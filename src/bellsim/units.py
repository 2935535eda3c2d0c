"""Unit conventions and conversions used throughout the package.

Internal unit system: lengths in nm (thicknesses in mm where noted), times
in fs, angular frequencies in rad/fs, angles in degrees at API boundaries
and radians internally.
"""

import math

import numpy as np

# Speed of light in nm/fs (== 1e-6 * c in m/s).
C_NM_PER_FS = 299.792458

# Pulse "duration" is interpreted as the intensity-envelope FWHM of a
# transform-limited Gaussian pulse.  sigma_omega = THIS / duration_fs gives
# the intensity-spectrum standard deviation in rad/fs.
INTENSITY_FWHM_TO_SIGMA_OMEGA = math.sqrt(2.0 * math.log(2.0))

# FWHM of a Gaussian intensity profile over its standard deviation.
GAUSSIAN_FWHM_OVER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def wavelength_to_angular_frequency(wavelength_nm):
    """Vacuum wavelength (nm) -> angular frequency (rad/fs)."""
    return 2.0 * np.pi * C_NM_PER_FS / np.asarray(wavelength_nm, dtype=float)


def fwhm_nm_to_fwhm_omega(center_nm: float, fwhm_nm: float) -> float:
    """Intensity FWHM in wavelength -> intensity FWHM in angular frequency.

    Exact endpoint conversion; for fwhm << center this reduces to the usual
    2*pi*c*fwhm/center^2.
    """
    half = 0.5 * fwhm_nm
    lo = wavelength_to_angular_frequency(center_nm + half)
    hi = wavelength_to_angular_frequency(center_nm - half)
    return float(hi - lo)
