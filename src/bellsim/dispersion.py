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
derivatives.  Tilted plates use exact plane-parallel refraction geometry:
Snell's law with the ordinary index fixes the internal angle, and the e-ray
is propagated along the same lengthened path with its normal-incidence
index (approximation flag ``e_index_at_normal_incidence`` in the report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import yaml

from .errors import ConfigError, WavelengthRangeError
from .units import C_NM_PER_FS

MM_TO_NM = 1.0e6

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
    source_note_o: str = ""
    source_note_e: str = ""

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
        if abs(self.tilt_deg) >= 45.0:
            raise ConfigError(f"|tilt| must be < 45 deg, got {self.tilt_deg}")
        if self.axis_orientation not in ("horizontal", "vertical"):
            raise ConfigError(f"axis_orientation must be horizontal|vertical, got {self.axis_orientation!r}")


@dataclass(frozen=True)
class GroupDelayReport:
    phase_delay_fs: float
    group_delay_fs: float
    polarization: str
    approximation: str = "e_index_at_normal_incidence"


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


def _index_and_derivative(material: Material, pol: str, wavelength_nm: float):
    """(n, dn/dL in um^-1) for a principal polarization."""
    lam_um = wavelength_nm * 1.0e-3
    n2, dn2 = _sellmeier_n2_and_derivative(material._coefficients(pol), lam_um)
    if n2 <= 1.0:
        raise ConfigError(
            f"material {material.name!r} pol {pol!r}: n^2 = {n2} <= 1 at {wavelength_nm} nm"
        )
    n = math.sqrt(n2)
    return n, dn2 / (2.0 * n)


def refractive_index(material: Material, pol: str, wavelength_nm: float) -> float:
    """Principal refractive index n_o or n_e at a vacuum wavelength."""
    material.check_range(wavelength_nm)
    n, _ = _index_and_derivative(material, pol, wavelength_nm)
    return n


def group_index(material: Material, pol: str, wavelength_nm: float) -> float:
    """Group index n_g = n - lambda dn/dlambda, from the analytic derivative."""
    material.check_range(wavelength_nm, strict=True)
    lam_um = wavelength_nm * 1.0e-3
    n, dn = _index_and_derivative(material, pol, wavelength_nm)
    return n - lam_um * dn


def _angled_index_and_derivative(material: Material, theta_rad: float, wavelength_nm: float):
    """(n, dn/dL) of the extraordinary ray at angle theta to the optic axis."""
    n_o, dn_o = _index_and_derivative(material, "o", wavelength_nm)
    n_e, dn_e = _index_and_derivative(material, "e", wavelength_nm)
    cos2 = math.cos(theta_rad) ** 2
    sin2 = math.sin(theta_rad) ** 2
    inv_n2 = cos2 / (n_o * n_o) + sin2 / (n_e * n_e)
    n = 1.0 / math.sqrt(inv_n2)
    # d(n)/dL from d(1/n^2)/dL = -2 [cos2 dn_o/n_o^3 + sin2 dn_e/n_e^3]
    dn = n ** 3 * (cos2 * dn_o / n_o ** 3 + sin2 * dn_e / n_e ** 3)
    return n, dn


def angled_extraordinary_index(material: Material, theta_rad: float, wavelength_nm: float) -> float:
    material.check_range(wavelength_nm)
    n, _ = _angled_index_and_derivative(material, theta_rad, wavelength_nm)
    return n


def angled_extraordinary_group_index(material: Material, theta_rad: float, wavelength_nm: float) -> float:
    material.check_range(wavelength_nm, strict=True)
    lam_um = wavelength_nm * 1.0e-3
    n, dn = _angled_index_and_derivative(material, theta_rad, wavelength_nm)
    return n - lam_um * dn


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


def internal_angle_rad(element: BirefringentElement, wavelength_nm: float) -> float:
    """Internal propagation angle from Snell's law with the ordinary index."""
    n_o = refractive_index(element.material, "o", wavelength_nm)
    return math.asin(math.sin(math.radians(element.tilt_deg)) / n_o)


def element_delays(element: BirefringentElement, pol: str, wavelength_nm: float) -> GroupDelayReport:
    """Phase and group delay of one ray through a (possibly tilted) element.

    The geometric path is lengthened to thickness/cos(internal angle); phase
    delay is n * L_eff / c and group delay n_g * L_eff / c.  At tilt 0 this
    reduces exactly to n L / c.
    """
    n = refractive_index(element.material, pol, wavelength_nm)
    n_g = group_index(element.material, pol, wavelength_nm)
    path_nm = element.thickness_mm * MM_TO_NM / math.cos(internal_angle_rad(element, wavelength_nm))
    return GroupDelayReport(
        phase_delay_fs=n * path_nm / C_NM_PER_FS,
        group_delay_fs=n_g * path_nm / C_NM_PER_FS,
        polarization=pol,
    )


def compensation_delay(crystals, pump_wavelength_nm: float) -> float:
    """Pump H-V group delay (fs) the compensator must pre-impose for a
    crossed pair of down-conversion crystals; positive means the component
    pumping the later crystal must be advanced.

    The exact requirement is the o-ray pump group delay through the first
    crystal minus the mean e-ray group delay of the pair photons crossing
    the second; with only the pump wavelength available here the pair group
    index is evaluated at the degenerate wavelength 2*lambda_p on the
    phase-matching cut (a few fs from the nondegenerate value).  Linear in
    total thickness: each crystal contributes half its own walk-off term.
    """
    total = 0.0
    for crystal in crystals:
        lam_d = 2.0 * pump_wavelength_nm
        theta = phase_matching_cut_angle(crystal.material, pump_wavelength_nm, lam_d, lam_d)
        n_g_pump_o = group_index(crystal.material, "o", pump_wavelength_nm)
        n_g_pair_e = angled_extraordinary_group_index(crystal.material, theta, lam_d)
        total += 0.5 * crystal.thickness_mm * MM_TO_NM * (n_g_pump_o - n_g_pair_e) / C_NM_PER_FS
    return total


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
            note = str(rec.get("source_note", ""))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed material record {rec!r}: {exc}") from exc
        by_name.setdefault(name, {})[pol] = (coeffs, rng, note)

    table = {}
    for name, pols in by_name.items():
        if set(pols) != {"o", "e"}:
            raise ConfigError(f"material {name!r}: need exactly one 'o' and one 'e' record")
        (co, rng_o, note_o) = pols["o"]
        (ce, rng_e, note_e) = pols["e"]
        if rng_o != rng_e:
            raise ConfigError(f"material {name!r}: o/e validity ranges differ")
        table[name] = Material(
            name=name,
            sellmeier_o=co,
            sellmeier_e=ce,
            valid_range_nm=rng_o,
            source_note_o=note_o,
            source_note_e=note_e,
        )
    return table


def load_materials(path=None) -> dict:
    """Load the material table from a YAML file (default: the packaged one)."""
    if path is None:
        text = resources.files("bellsim.data").joinpath("materials.yaml").read_text()
        return _load_records(text)
    with open(path, "r") as fh:
        return _load_records(fh)


_DEFAULT_TABLE = None


def get_material(name: str) -> Material:
    """Material from the packaged table, loaded once and cached."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = load_materials()
    try:
        return _DEFAULT_TABLE[name]
    except KeyError:
        raise ConfigError(
            f"unknown material {name!r}; known: {sorted(_DEFAULT_TABLE)}"
        ) from None
