"""Frequency-domain ingredients of the two-photon amplitude: pump envelope,
spectral filters, crystal phase matching and the sampled joint amplitude.

Conventions: angular frequencies in rad/fs on absolute axes; detunings are
measured from the configured signal/idler centers.  The phase-matching
function is the first-order (group-velocity) sinc,

    Phi(nu_s, nu_i) = sinc(D L / 2) * exp(i D L / 2),
    D = (1/u_p - 1/u_s) nu_s + (1/u_p - 1/u_i) nu_i,

i.e. the length-average of exp(i D z) over the crystal.

``build_jsa`` samples it without any 2-D transcendental call: the half
mismatch h = D L / 2 is a sum a(nu_s) + b(nu_i) of two 1-D terms, so
exp(i h) is the outer product of exp(i a) and exp(i b), and sinc(h) is
Im exp(i h) / h (the series 1 - h^2/6 + h^4/120 where |h| < 1e-2, where
the quotient would lose accuracy).  The real pump-times-filters envelope is
sampled once and multiplied by sinc(h); the norm is taken from that real
product, and exp(i h) is applied last.  ``phase_matching`` is the direct
formula, kept as the reference the sampled grid is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import JointSpectralAmplitude
from .errors import ConfigError, GridTruncationError
from .units import (
    GAUSSIAN_FWHM_OVER_SIGMA,
    INTENSITY_FWHM_TO_SIGMA_OMEGA,
    fwhm_nm_to_fwhm_omega,
    wavelength_to_angular_frequency,
)

# Interpretation of PumpPulse.duration_fs, recorded in JSA metadata.
DURATION_CONVENTION = "intensity_fwhm"

# Containment threshold for the Gaussian envelope factors at the grid edge.
EDGE_AMPLITUDE_LIMIT = 1.0e-4

# Im exp(i h) / h carries the few-1e-16 absolute rounding error of its
# numerator divided by |h|; below this |h| the sampled sinc(h) is taken from
# its series 1 - h^2/6 + h^4/120 instead (truncation error < 3e-16).
SINC_SERIES_BELOW = 1.0e-2


@dataclass(frozen=True)
class PumpPulse:
    """Transform-limited Gaussian pump pulse.

    ``duration_fs`` is the intensity-envelope FWHM; ``polarization_angle_deg``
    is measured from vertical.
    """

    center_wavelength_nm: float
    duration_fs: float
    polarization_angle_deg: float = 45.0

    def __post_init__(self):
        if self.center_wavelength_nm <= 0.0:
            raise ConfigError("pump center wavelength must be positive")
        if self.duration_fs <= 0.0:
            raise ConfigError("pump duration must be positive")

    @property
    def center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.center_wavelength_nm))

    @property
    def sigma_omega(self) -> float:
        """Intensity-spectrum standard deviation, rad/fs."""
        return INTENSITY_FWHM_TO_SIGMA_OMEGA / self.duration_fs


@dataclass(frozen=True)
class SpectralFilter:
    """Amplitude transmission filter; ``fwhm_nm`` is the intensity FWHM."""

    center_nm: float
    fwhm_nm: float
    shape: str = "gaussian"

    def __post_init__(self):
        if self.shape not in ("gaussian", "rectangular", "none"):
            raise ConfigError(f"filter shape must be gaussian|rectangular|none, got {self.shape!r}")
        if self.shape != "none" and self.fwhm_nm <= 0.0:
            raise ConfigError("filter FWHM must be positive")

    @property
    def fwhm_omega(self) -> float:
        return fwhm_nm_to_fwhm_omega(self.center_nm, self.fwhm_nm)

    @property
    def sigma_intensity_omega(self) -> float:
        return self.fwhm_omega / GAUSSIAN_FWHM_OVER_SIGMA


NO_FILTER = SpectralFilter(center_nm=1.0, fwhm_nm=1.0, shape="none")


@dataclass(frozen=True)
class PhaseMatchingSpec:
    """Crystal length, pair centers and the three inverse group velocities."""

    crystal_length_mm: float
    signal_center_nm: float
    idler_center_nm: float
    inverse_group_velocity_pump_fs_per_mm: float
    inverse_group_velocity_signal_fs_per_mm: float
    inverse_group_velocity_idler_fs_per_mm: float

    def __post_init__(self):
        if self.crystal_length_mm <= 0.0:
            raise ConfigError("crystal length must be positive")

    def check_energy_conservation(self, pump_center_nm: float) -> None:
        """Centers must satisfy 1/ls + 1/li = 1/lp within 1e-3 relative."""
        inv_pump = 1.0 / pump_center_nm
        mismatch = abs(1.0 / self.signal_center_nm + 1.0 / self.idler_center_nm - inv_pump)
        if mismatch / inv_pump > 1.0e-3:
            raise ConfigError(
                f"centers {self.signal_center_nm}/{self.idler_center_nm} nm violate "
                f"energy conservation with the {pump_center_nm} nm pump "
                f"(relative mismatch {mismatch / inv_pump:.3g} > 1e-3)"
            )

    @property
    def signal_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.signal_center_nm))

    @property
    def idler_center_angular_frequency(self) -> float:
        return float(wavelength_to_angular_frequency(self.idler_center_nm))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform absolute-frequency axes for the (signal, idler) plane."""

    signal_axis: np.ndarray
    idler_axis: np.ndarray

    def __post_init__(self):
        for name, axis in (("signal", self.signal_axis), ("idler", self.idler_axis)):
            if axis.ndim != 1 or axis.size < 2:
                raise ConfigError(f"{name} axis must be 1-D with at least 2 points")
            steps = np.diff(axis)
            if np.any(steps <= 0.0):
                raise ConfigError(f"{name} axis must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1.0e-9, atol=0.0):
                raise ConfigError(f"{name} axis must be uniformly spaced")

    @property
    def signal_spacing(self) -> float:
        return float(self.signal_axis[1] - self.signal_axis[0])

    @property
    def idler_spacing(self) -> float:
        return float(self.idler_axis[1] - self.idler_axis[0])

    @property
    def cell_area(self) -> float:
        return self.signal_spacing * self.idler_spacing

    @property
    def shape(self) -> tuple:
        return (self.signal_axis.size, self.idler_axis.size)

    def meshes(self):
        """Broadcastable (signal, idler) frequency meshes."""
        return self.signal_axis[:, None], self.idler_axis[None, :]

    def matches(self, other: "FrequencyGrid") -> bool:
        return (
            self.signal_axis.shape == other.signal_axis.shape
            and self.idler_axis.shape == other.idler_axis.shape
            and np.array_equal(self.signal_axis, other.signal_axis)
            and np.array_equal(self.idler_axis, other.idler_axis)
        )


def pump_spectrum(pulse: PumpPulse, omega_sum):
    """Pump spectral amplitude at the pair sum frequency; 1 at the center."""
    nu = np.subtract(omega_sum, pulse.center_angular_frequency, dtype=float)
    sigma = pulse.sigma_omega
    # In place: on a 2-D sum-frequency mesh this is a JSA build's largest
    # real array.
    nu *= nu
    nu /= -(4.0 * sigma * sigma)
    return np.exp(nu, out=nu) if isinstance(nu, np.ndarray) else np.exp(nu)


def filter_amplitude(filt: SpectralFilter, omega):
    """Amplitude transmission in [0, 1] (square root of the intensity curve)."""
    omega = np.asarray(omega, dtype=float)
    if filt.shape == "none":
        return np.ones_like(omega)
    center = float(wavelength_to_angular_frequency(filt.center_nm))
    if filt.shape == "rectangular":
        half = 0.5 * filt.fwhm_omega
        return np.where(np.abs(omega - center) <= half, 1.0, 0.0)
    sigma = filt.sigma_intensity_omega
    return np.exp(-((omega - center) ** 2) / (4.0 * sigma * sigma))


def phase_matching(spec: PhaseMatchingSpec, nu_s, nu_i):
    """Collinear first-order phase-matching amplitude; Phi(0, 0) = 1 + 0j."""
    du_s = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_signal_fs_per_mm
    du_i = spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_idler_fs_per_mm
    half = 0.5 * (du_s * np.asarray(nu_s) + du_i * np.asarray(nu_i)) * spec.crystal_length_mm
    return np.sinc(half / np.pi) * np.exp(1j * half)


def sinc_antidiagonal_scale(spec: PhaseMatchingSpec) -> float:
    """Per-axis detuning of the first sinc zero along the anticorrelated
    (nu_s = -nu_i) direction, or +inf for matched group velocities."""
    delta = abs(
        spec.inverse_group_velocity_signal_fs_per_mm
        - spec.inverse_group_velocity_idler_fs_per_mm
    )
    if delta * spec.crystal_length_mm < 1.0e-12:
        return math.inf
    return 2.0 * math.pi / (delta * spec.crystal_length_mm)


def make_grid(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    filters: tuple = (),
    points: int = 256,
    span_factor: float = 5.0,
    min_half_span: float = 0.0,
) -> FrequencyGrid:
    """Square grid centred on the pair centers, wide enough for the pump
    ridge, the filters, and the main phase-matching structure.

    With Gaussian filters present the phase-matching extent is capped at a
    few filter widths (the filters bound the support); ``min_half_span``
    lets callers widen the grid further (e.g. so a large applied delay
    stays below the sampling bound pi/spacing).
    """
    if points < 8:
        raise ConfigError("grid needs at least 8 points per axis")
    scales = [pulse.sigma_omega]
    filter_sigmas = [f.sigma_intensity_omega for f in filters if f.shape == "gaussian"]
    scales += filter_sigmas
    antidiag = sinc_antidiagonal_scale(spec)
    if math.isfinite(antidiag):
        scales.append(min(antidiag, 3.0 * max(filter_sigmas)) if filter_sigmas else antidiag)
    half_span = max(span_factor * max(scales), min_half_span)
    sig = np.linspace(-half_span, half_span, points) + spec.signal_center_angular_frequency
    idl = np.linspace(-half_span, half_span, points) + spec.idler_center_angular_frequency
    return FrequencyGrid(signal_axis=sig, idler_axis=idl)


def _check_grid(pulse, f_s, f_i, grid):
    """Span and resolution checks for the Gaussian factors, and the pump
    ridge's corner containment when no filter bounds the support; scalar
    work only, done before anything 2-D is allocated.

    The sinc tails fall off only algebraically and are therefore exempt from
    the edge tests (they cannot satisfy them on any practical grid); adequacy
    against them is covered by the grid-refinement stability property.
    """
    sigmas = [("pump envelope", pulse.sigma_omega)]
    for name, filt in (("signal filter", f_s), ("idler filter", f_i)):
        if filt.shape == "gaussian":
            sigmas.append((name, filt.sigma_intensity_omega))

    spacing = max(grid.signal_spacing, grid.idler_spacing)
    span = min(
        grid.signal_axis[-1] - grid.signal_axis[0],
        grid.idler_axis[-1] - grid.idler_axis[0],
    )
    narrowest = min(sigma for _, sigma in sigmas)
    if span < 6.0 * narrowest:
        raise GridTruncationError(
            f"grid span {span:.4g} rad/fs is below 6 standard deviations of the "
            f"narrowest envelope ({narrowest:.4g} rad/fs)"
        )
    for name, sigma in sigmas:
        if sigma < spacing:
            raise GridTruncationError(
                f"grid spacing {spacing:.4g} rad/fs cannot resolve the {name} "
                f"(sigma = {sigma:.4g} rad/fs); refine the grid"
            )

    if f_s.shape == "none" and f_i.shape == "none":
        # Only the pump envelope bounds the amplitude; its ridge width must
        # be contained: the largest reachable |w_s + w_i - W_p| sits at the
        # diagonal corners.
        corner_sums = (
            grid.signal_axis[0] + grid.idler_axis[0],
            grid.signal_axis[-1] + grid.idler_axis[-1],
        )
        edge = max(float(pump_spectrum(pulse, s)) for s in corner_sums)
        if edge > EDGE_AMPLITUDE_LIMIT:
            raise GridTruncationError(
                f"grid too narrow for the pump envelope: edge magnitude {edge:.3g} "
                f"exceeds {EDGE_AMPLITUDE_LIMIT} of the peak"
            )


def _check_border(envelope):
    """With filters bounding the support: the sampled Gaussian-factor
    product must fall below the edge limit along the whole grid border."""
    border = max(
        float(envelope[0, :].max()),
        float(envelope[-1, :].max()),
        float(envelope[:, 0].max()),
        float(envelope[:, -1].max()),
    )
    peak = float(envelope.max())
    if peak == 0.0 or border > EDGE_AMPLITUDE_LIMIT * peak:
        raise GridTruncationError(
            f"grid too narrow: envelope magnitude at the border is "
            f"{border / max(peak, 1e-300):.3g} of its peak (limit {EDGE_AMPLITUDE_LIMIT})"
        )


def _separable_phase_matching(spec: PhaseMatchingSpec, nu_s, nu_i):
    """(sinc(h), exp(i h)) of the first-order phase matching on the outer
    (nu_s, nu_i) grid of two 1-D detuning axes, from 1-D factors only.

    The half mismatch h = D L / 2 is a sum a(nu_s) + b(nu_i), so exp(i h) is
    the outer product of exp(i a) and exp(i b), and sinc(h) = Im exp(i h) / h:
    no 2-D complex exponential or sine is evaluated.  Where |h| is below
    ``SINC_SERIES_BELOW`` (including h == 0) sinc(h) comes from its series.
    """
    half_l = 0.5 * spec.crystal_length_mm
    a = (spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_signal_fs_per_mm) * half_l * nu_s
    b = (spec.inverse_group_velocity_pump_fs_per_mm - spec.inverse_group_velocity_idler_fs_per_mm) * half_l * nu_i
    carrier = np.multiply.outer(np.exp(1j * a), np.exp(1j * b))
    sinc = np.add.outer(a, b)
    near = np.abs(sinc) < SINC_SERIES_BELOW
    h2 = sinc[near] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(carrier.imag, sinc, out=sinc)
    sinc[near] = 1.0 - h2 / 6.0 * (1.0 - h2 / 20.0)
    return sinc, carrier


def _checked_norm(norm_sq: float) -> float:
    """The L2 norm from its square; a zero or non-finite one (e.g. from an
    infinite crystal length) is rejected."""
    if not (math.isfinite(norm_sq) and norm_sq > 0.0):
        raise GridTruncationError(f"joint amplitude norm squared is {norm_sq!r} on this grid; "
                                  "it must be finite and positive")
    return math.sqrt(norm_sq)


def build_jsa(
    pulse: PumpPulse,
    spec: PhaseMatchingSpec,
    f_s: SpectralFilter,
    f_i: SpectralFilter,
    grid: FrequencyGrid,
    phase_matching_fn=None,
    label: str = "",
) -> JointSpectralAmplitude:
    """Sample pump * phase-matching * filters on the grid and L2-normalize.

    The real envelope pump * filters is sampled once; the border check reads
    it too.  ``phase_matching_fn(nu_s, nu_i)`` overrides the sinc model
    (test hook for closed-form Gaussian cross-checks); it is called on
    broadcastable 2-D detuning meshes.
    """
    spec.check_energy_conservation(pulse.center_wavelength_nm)
    _check_grid(pulse, f_s, f_i, grid)
    ws, wi = grid.meshes()
    envelope = pump_spectrum(pulse, ws + wi)
    envelope *= filter_amplitude(f_s, grid.signal_axis)[:, None]
    envelope *= filter_amplitude(f_i, grid.idler_axis)[None, :]
    if f_s.shape != "none" or f_i.shape != "none":
        _check_border(envelope)

    nu_s = grid.signal_axis - spec.signal_center_angular_frequency
    nu_i = grid.idler_axis - spec.idler_center_angular_frequency
    if phase_matching_fn is not None:
        values = (envelope * phase_matching_fn(nu_s[:, None], nu_i[None, :])).astype(complex)
        values /= _checked_norm(float(np.sum(np.abs(values) ** 2)) * grid.cell_area)
    else:
        sinc, values = _separable_phase_matching(spec, nu_s, nu_i)
        envelope *= sinc
        envelope /= _checked_norm(float(np.vdot(envelope, envelope)) * grid.cell_area)
        values *= envelope

    metadata = {
        "crystal_label": label,
        "crystal_length_mm": spec.crystal_length_mm,
        "duration_convention": DURATION_CONVENTION,
        "phase_matching": "custom" if phase_matching_fn is not None else "sinc_first_order",
        "applied_delays": (),
    }
    return JointSpectralAmplitude(grid=grid, values=values, metadata=metadata)
