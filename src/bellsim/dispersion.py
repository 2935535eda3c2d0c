"""Refractive and group indices of uniaxial birefringent materials, and the
phase/group delays of plane-parallel optical elements built from them.

All Sellmeier constants are loaded from ``data/materials.yaml`` (see the
schema comment there); nothing numeric is hard-coded.  The Sellmeier form is

    n^2(L) = c0 + sum_i b_i L^2 / (L^2 - c_i),   L = wavelength in um,

evaluated with an analytic wavelength derivative so group indices never rely
on finite differences.

The extraordinary index of a crystal cut at angle theta to its optic axis is

    n_e(theta, L)^-2 = cos^2(theta)/n_o(L)^2 + sin^2(theta)/n_e(L)^2,

with the group index obtained by the chain rule from the principal
derivatives.

A ray's phase and group index come from one evaluation of the Sellmeier
fits (``ray_indices``), and its (group, phase) delay over a path from
``ray_delays`` alone.  ``element_delays`` traces both rays of a
plane-parallel element over one path: Snell's law with the ordinary index
fixes the internal angle, and both rays cross thickness/cos(angle), the
thickness at tilt 0.  Approximation: the e ray keeps its normal-incidence
index on that tilted path.  The tilt only lengthens the path, so
``tilt_deg`` broadcasts over an array: a whole tilt scan costs the three
index evaluations of one tilt (n_o for Snell, then each ray's).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError, WavelengthRangeError
from .units import C_NM_PER_FS

MM_TO_NM = 1.0e6
MAX_TILT_DEG = 45.0
ORIENTATIONS = ("horizontal", "vertical")  # of an element's optic-axis plane

# The libyaml-backed safe loader when PyYAML was built with it (about ten
# times faster); the pure-Python one otherwise.  Both build the same data.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class Material:
    """Sellmeier fits for both polarizations of a uniaxial material."""

    name: str
    sellmeier_o: tuple
    sellmeier_e: tuple
    valid_range_nm: tuple

    def __post_init__(self):
        if not self.sellmeier_o or not self.sellmeier_e:
            raise ConfigError(f"material {self.name!r}: empty Sellmeier coefficient list")
        lo, hi = self.valid_range_nm
        if not (0.0 < lo < hi):
            raise ConfigError(f"material {self.name!r}: bad validity range {self.valid_range_nm}")

    def _coefficients(self, pol: str) -> tuple:
        if pol == "o":
            return self.sellmeier_o
        if pol == "e":
            return self.sellmeier_e
        raise ConfigError(f"polarization must be 'o' or 'e', got {pol!r}")

    def check_range(self, wavelength_nm: float, strict: bool = False) -> None:
        lo, hi = self.valid_range_nm
        ok = (lo < wavelength_nm < hi) if strict else (lo <= wavelength_nm <= hi)
        if not ok:
            raise WavelengthRangeError(
                f"{wavelength_nm} nm outside {'interior of ' if strict else ''}validity "
                f"range [{lo}, {hi}] nm of material {self.name!r}"
            )


def check_tilt(tilt_deg) -> None:
    """ConfigError naming the first tilt (deg) that is not below 45 deg in
    magnitude; ``tilt_deg`` is a number or an array."""
    bad = ~(np.abs(tilt_deg) < MAX_TILT_DEG)
    if np.count_nonzero(bad):
        first = np.asarray(tilt_deg, dtype=float)[bad][0]
        raise ConfigError(f"|tilt| must be < {MAX_TILT_DEG:g} deg, got {first}")


@dataclass(frozen=True)
class BirefringentElement:
    """A plane-parallel uniaxial element in the beam path.

    ``axis_orientation`` is the transverse direction of the optic-axis plane
    ('horizontal' or 'vertical'); ``tilt_deg`` rotates the plate about the
    axis in that plane, 0 = normal incidence.
    """

    material: Material
    thickness_mm: float
    axis_orientation: str = "vertical"
    tilt_deg: float = 0.0

    def __post_init__(self):
        if self.thickness_mm <= 0.0:
            raise ConfigError(f"element thickness must be positive, got {self.thickness_mm} mm")
        check_tilt(self.tilt_deg)
        if self.axis_orientation not in ORIENTATIONS:
            raise ConfigError(f"axis_orientation must be {'|'.join(ORIENTATIONS)}, "
                              f"got {self.axis_orientation!r}")


def _sellmeier_n2_and_derivative(coefficients, wavelength_um: float):
    """n^2 and d(n^2)/dL (per um) of the Sellmeier form at one wavelength."""
    lam2 = wavelength_um * wavelength_um
    n2 = coefficients[0]
    dn2 = 0.0
    for k in range(1, len(coefficients), 2):
        b = coefficients[k]
        c = coefficients[k + 1]
        denom = lam2 - c
        n2 += b * lam2 / denom
        # d/dL [b L^2/(L^2-c)] = -2 b L c / (L^2-c)^2
        dn2 += -2.0 * b * wavelength_um * c / (denom * denom)
    return n2, dn2


def _index_and_derivative(material: Material, ray, wavelength_nm: float):
    """(n, dn/dL in um^-1) of a ray: 'o' or 'e' for a principal
    polarization, or the angle theta (rad) of an extraordinary ray to the
    optic axis."""
    if not isinstance(ray, str):
        n_o, dn_o = _index_and_derivative(material, "o", wavelength_nm)
        n_e, dn_e = _index_and_derivative(material, "e", wavelength_nm)
        cos2 = math.cos(ray) ** 2
        sin2 = math.sin(ray) ** 2
        inv_n2 = cos2 / (n_o * n_o) + sin2 / (n_e * n_e)
        n = 1.0 / math.sqrt(inv_n2)
        # d(n)/dL from d(1/n^2)/dL = -2 [cos2 dn_o/n_o^3 + sin2 dn_e/n_e^3]
        return n, n ** 3 * (cos2 * dn_o / n_o ** 3 + sin2 * dn_e / n_e ** 3)
    lam_um = wavelength_nm * 1.0e-3
    n2, dn2 = _sellmeier_n2_and_derivative(material._coefficients(ray), lam_um)
    if n2 <= 1.0:
        raise ConfigError(
            f"material {material.name!r} pol {ray!r}: n^2 = {n2} <= 1 at {wavelength_nm} nm"
        )
    n = math.sqrt(n2)
    return n, dn2 / (2.0 * n)


def ray_indices(material: Material, ray, wavelength_nm: float) -> tuple:
    """(n, n_g) of one ray (as in ``_index_and_derivative``) at a vacuum
    wavelength strictly inside the material's range, from one evaluation of
    its Sellmeier fits."""
    material.check_range(wavelength_nm, strict=True)
    lam_um = wavelength_nm * 1.0e-3
    n, dn = _index_and_derivative(material, ray, wavelength_nm)
    return n, n - lam_um * dn


def ray_delays(material: Material, ray, wavelength_nm: float, path_nm) -> tuple:
    """(group, phase) delay in fs, n_g L / c and n L / c, of one ray (as in
    ``ray_indices``) over a path L in nm (a number or an array)."""
    n, n_g = ray_indices(material, ray, wavelength_nm)
    return n_g * path_nm / C_NM_PER_FS, n * path_nm / C_NM_PER_FS


def refractive_index(material: Material, pol: str, wavelength_nm: float) -> float:
    """Principal refractive index n_o or n_e at a vacuum wavelength."""
    material.check_range(wavelength_nm)
    return _index_and_derivative(material, pol, wavelength_nm)[0]


def group_index(material: Material, pol: str, wavelength_nm: float) -> float:
    """Group index n_g = n - lambda dn/dlambda, from the analytic derivative."""
    return ray_indices(material, pol, wavelength_nm)[1]


def angled_extraordinary_index(material: Material, theta_rad: float, wavelength_nm: float) -> float:
    material.check_range(wavelength_nm)
    return _index_and_derivative(material, theta_rad, wavelength_nm)[0]


def angled_extraordinary_group_index(material: Material, theta_rad: float, wavelength_nm: float) -> float:
    return ray_indices(material, theta_rad, wavelength_nm)[1]


def phase_matching_cut_angle(
    material: Material,
    pump_nm: float,
    signal_nm: float,
    idler_nm: float,
) -> float:
    """Optic-axis cut angle (rad) for collinear type-I phase matching.

    Solves n_e(theta, pump)/pump = n_o(signal)/signal + n_o(idler)/idler in
    closed form.  Raises ConfigError when the material cannot phase-match.
    """
    n_target = pump_nm * (
        refractive_index(material, "o", signal_nm) / signal_nm
        + refractive_index(material, "o", idler_nm) / idler_nm
    )
    n_o = refractive_index(material, "o", pump_nm)
    n_e = refractive_index(material, "e", pump_nm)
    denom = 1.0 / (n_e * n_e) - 1.0 / (n_o * n_o)
    if denom == 0.0:
        raise ConfigError(f"material {material.name!r} is not birefringent at {pump_nm} nm")
    sin2 = (1.0 / (n_target * n_target) - 1.0 / (n_o * n_o)) / denom
    if not (0.0 <= sin2 <= 1.0):
        raise ConfigError(
            f"collinear type-I phase matching infeasible in {material.name!r} for "
            f"{pump_nm} -> {signal_nm} + {idler_nm} nm (needs n_e(theta) = {n_target:.6f}, "
            f"principal range [{min(n_o, n_e):.6f}, {max(n_o, n_e):.6f}])"
        )
    return math.asin(math.sqrt(sin2))


def element_delays(element: BirefringentElement, wavelength_nm: float, tilt_deg=None) -> tuple:
    """((e group, e phase), (o group, o phase)) delays, in fs, of both rays
    through a (possibly tilted) element, each ray's ``ray_delays`` over the
    one Snell path.  ``tilt_deg`` replaces the element's tilt and may be an
    array (checked like the element's): the delays are then arrays of its
    shape."""
    tilt = element.tilt_deg if tilt_deg is None else tilt_deg
    if tilt_deg is not None:
        check_tilt(tilt_deg)
    n_o = refractive_index(element.material, "o", wavelength_nm)
    path_nm = element.thickness_mm * MM_TO_NM / np.cos(np.arcsin(np.sin(np.radians(tilt)) / n_o))
    return tuple(ray_delays(element.material, ray, wavelength_nm, path_nm) for ray in "eo")


def _load_records(stream) -> dict:
    records = yaml.load(stream, Loader=YAML_LOADER)
    if not isinstance(records, list):
        raise ConfigError("material data file must contain a list of records")
    by_name: dict = {}
    for rec in records:
        try:
            name = rec["name"]
            pol = rec["pol"]
            coeffs = tuple(float(x) for x in rec["coefficients"])
            rng = tuple(float(x) for x in rec["valid_range_nm"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed material record {rec!r}: {exc}") from exc
        by_name.setdefault(name, {})[pol] = (coeffs, rng)

    table = {}
    for name, pols in by_name.items():
        if set(pols) != {"o", "e"}:
            raise ConfigError(f"material {name!r}: need exactly one 'o' and one 'e' record")
        (co, rng_o) = pols["o"]
        (ce, rng_e) = pols["e"]
        if rng_o != rng_e:
            raise ConfigError(f"material {name!r}: o/e validity ranges differ")
        table[name] = Material(
            name=name,
            sellmeier_o=co,
            sellmeier_e=ce,
            valid_range_nm=rng_o,
        )
    return table


def load_materials(path) -> dict:
    """Load the material table from a YAML file."""
    with open(path, "r") as fh:
        return _load_records(fh)


@functools.cache
def _packaged_table() -> dict:
    """The packaged material table, loaded once and cached."""
    return _load_records(resources.files("bellsim.data").joinpath("materials.yaml").read_text())


def material_names() -> tuple:
    """Sorted names of the packaged materials."""
    return tuple(sorted(_packaged_table()))


def get_material(name: str) -> Material:
    """Material from the packaged table."""
    try:
        return _packaged_table()[name]
    except KeyError:
        raise ConfigError(
            f"unknown material {name!r}; known: {list(material_names())}"
        ) from None
