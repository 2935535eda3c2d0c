"""Full experiment assembly: the interferometric (two-arm) and collinear
two-crystal source schemes, compensation bookkeeping, phase knobs, fringe
scans and parameter sweeps.

Timing model (collinear, crystals listed in beam order):

* amplitude a = pairs from the first crystal.  They cross the second
  crystal as its extraordinary ray (the crystals' axes are orthogonal);
  this crossing is modeled as a rigid retardation at the mean e-ray group
  delay evaluated on the phase-matching cut.  The ``cross_dispersion``
  toggle adds each arm's deviation of that e-ray from ordinary-ray
  propagation - the residual that actually distinguishes the amplitudes.
* amplitude b = pairs from the second crystal.  Its pump component first
  crosses the first crystal as an ordinary ray (slow), so amplitude b lags;
  the birefringent compensator pre-advances that pump component.
* the per-arm quartz plates (the signal/idler phase knobs) retard the
  polarization parallel to their axis; their phase delay difference is the
  fringe phase, their group-delay difference shifts the envelopes.

Every element acts to first order, as a group delay plus a carrier phase;
a ``DelayBudget`` holds each one's contribution to both amplitudes and both
crystals' phase-matching specs, so each cut angle is solved once per budget.
A compensation error replaces the compensator with an ideal pre-advance of
the exact required compensation plus that error; like a scan's plate terms,
it may be an array.  Every fringe value is thus an overlap of the two JSAs
at one (signal delay, idler delay, carrier phase).  ``_spectral_setup``
sizes one grid for the budget's largest delay (or checks a given one).  A
scan computes each step's pump-knob phase, analyzer angles and plate terms
as arrays, the plate terms from one dispersion pass per arm.  The delays
then go to one ``spectral.kernel_overlaps`` call, which streams the real
two-crystal kernel in cache-sized row blocks, never holds an N x N array,
and is the only place delays are deduplicated: an arm whose delay no entry
changes is a single phase row.  ``interference_terms`` is the same path with
one delay row; ``sweep`` takes one row per compensation error, or one row
weighted per pump ratio, and evaluates once per value only the parameters
that change the JSAs.  ``prepare_bell`` and ``effective_polarization_state``
take its terms (or evaluate them at the default numerics).
``build_amplitudes`` still assembles the two phased amplitudes explicitly,
for the tests and the time-domain oracle.

All constant carrier phases are folded into the amplitude values, so the
fringe position is simply the argument of the complex overlap; the pump
knob contributes the scanned phase 2 pi dx / lambda_p.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np
import yaml

from . import biphoton, polarization
from .biphoton import AmplitudePair, JointSpectralAmplitude
from .dispersion import (
    BirefringentElement,
    Material,
    angled_extraordinary_group_index,
    angled_extraordinary_index,
    element_delays,
    get_material,
    group_index,
    material_names,
    phase_matching_cut_angle,
    refractive_index,
    MM_TO_NM,
    YAML_LOADER,
)
from .errors import ConfigError, GridTruncationError, InfeasibleError
from .spectral import (
    NO_FILTER,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpPulse,
    SpectralFilter,
    build_jsa,
    kernel_overlaps,
    make_grid,
)
from .units import C_NM_PER_FS

# Scan axis -> the PhaseKnobs or AnalyzerSetting fields it sets to the
# scanned value.
SCAN_AXIS_FIELDS = {
    "pump_delay": ("pump_delta_x_nm",),
    "signal_tilt": ("signal_tilt_deg",),
    "idler_tilt": ("idler_tilt_deg",),
    "both_tilts": ("signal_tilt_deg", "idler_tilt_deg"),
    "analyzer2_angle": ("theta2_deg",),
}
SCAN_AXIS_KINDS = tuple(SCAN_AXIS_FIELDS)

# Grid spacing must stay below pi / (largest applied group delay) by this
# safety factor, otherwise the discrete overlap aliases.
DELAY_SAMPLING_SAFETY = 1.3
MAX_GRID_POINTS = 4096
MAX_SCAN_STEPS = 4096  # scan steps or sweep values: one kernel delay row each


@dataclass(frozen=True)
class CrystalConfig:
    """One down-conversion crystal and the pair centers it is cut for."""

    material: Material
    thickness_mm: float
    axis_orientation: str
    signal_center_nm: float
    idler_center_nm: float

    def __post_init__(self):
        if not self.thickness_mm > 0.0:
            raise ConfigError(f"crystal thickness_mm must be positive, got {self.thickness_mm}")

    def element(self) -> BirefringentElement:
        return BirefringentElement(
            material=self.material,
            thickness_mm=self.thickness_mm,
            axis_orientation=self.axis_orientation,
        )

    def pair_polarization(self) -> str:
        # Type-I pairs are ordinary rays, polarized orthogonal to the axis.
        return "V" if self.axis_orientation == "horizontal" else "H"


@dataclass(frozen=True)
class PhaseKnobs:
    pump_delta_x_nm: float = 0.0
    signal_tilt_deg: float = 0.0
    idler_tilt_deg: float = 0.0


@dataclass(frozen=True)
class SourceConfig:
    scheme: str
    pump: PumpPulse
    crystals: tuple
    compensator: tuple
    filters: tuple
    signal_plate: BirefringentElement
    idler_plate: BirefringentElement
    cross_dispersion_enabled: bool = False
    pump_amplitude_ratio: float = 1.0

    def __post_init__(self):
        if self.scheme not in ("collinear", "mzi"):
            raise ConfigError(f"scheme must be collinear|mzi, got {self.scheme!r}")
        if len(self.crystals) != 2:
            raise ConfigError("exactly two crystals are required")
        a, b = self.crystals
        if {a.axis_orientation, b.axis_orientation} != {"horizontal", "vertical"}:
            raise ConfigError("the two crystals must have orthogonal axis orientations")
        if len(self.filters) != 2:
            raise ConfigError("exactly two filters are required (signal, idler)")
        if not (math.isfinite(self.pump_amplitude_ratio) and self.pump_amplitude_ratio >= 0.0):
            raise ConfigError("pump_amplitude_ratio must be finite and >= 0")


@dataclass(frozen=True)
class ScanSettings:
    axis_kind: str = "pump_delay"
    start: float | None = None
    stop: float | None = None
    steps: int = 129
    analyzer1_deg: float = 45.0
    analyzer2_deg: float = 45.0
    grid_points: int = 128
    grid_span_factor: float = 5.0
    noise: str = "none"
    mean_counts: float = 1000.0

    def __post_init__(self):
        if self.axis_kind not in SCAN_AXIS_KINDS:
            raise ConfigError(f"axis_kind must be one of {SCAN_AXIS_KINDS}, got {self.axis_kind!r}")
        if self.noise not in ("none", "poisson"):
            raise ConfigError(f"noise must be none|poisson, got {self.noise!r}")
        if not 8 <= self.grid_points <= MAX_GRID_POINTS:
            raise ConfigError(f"scan.grid_points must be in [8, {MAX_GRID_POINTS}], got {self.grid_points}")
        if not (math.isfinite(self.mean_counts) and self.mean_counts > 0.0):
            raise ConfigError(f"scan.mean_counts must be finite and positive, got {self.mean_counts!r}")
        if not (math.isfinite(self.grid_span_factor) and self.grid_span_factor > 0.0):
            raise ConfigError(
                f"scan.grid_span_factor must be finite and positive, got {self.grid_span_factor!r}"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig
    knobs: PhaseKnobs
    scan: ScanSettings


@dataclass(frozen=True)
class FringeScan:
    axis: np.ndarray
    axis_kind: str
    rates: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.axis.shape != self.rates.shape or self.axis.ndim != 1:
            raise ConfigError("axis and rates must be equal-length 1-D arrays")
        if np.any(self.rates < 0.0):
            raise ConfigError("rates must be nonnegative")


# --------------------------------------------------------------------------
# Crystal physics derived from the material table


def phase_matching_spec(crystal: CrystalConfig, pump: PumpPulse,
                        cut_angle_rad: float | None = None) -> PhaseMatchingSpec:
    """Inverse group velocities on the phase-matching cut: extraordinary
    pump, ordinary pair.  A caller that already solved the crystal's cut
    angle passes it."""
    theta = crystal_cut_angle(crystal, pump) if cut_angle_rad is None else cut_angle_rad
    m = crystal.material
    inv = lambda n_g: n_g * MM_TO_NM / C_NM_PER_FS  # fs per mm of crystal
    return PhaseMatchingSpec(
        crystal_length_mm=crystal.thickness_mm,
        signal_center_nm=crystal.signal_center_nm,
        idler_center_nm=crystal.idler_center_nm,
        inverse_group_velocity_pump_fs_per_mm=inv(
            angled_extraordinary_group_index(m, theta, pump.center_wavelength_nm)
        ),
        inverse_group_velocity_signal_fs_per_mm=inv(group_index(m, "o", crystal.signal_center_nm)),
        inverse_group_velocity_idler_fs_per_mm=inv(group_index(m, "o", crystal.idler_center_nm)),
    )


def crystal_cut_angle(crystal: CrystalConfig, pump: PumpPulse) -> float:
    return phase_matching_cut_angle(
        crystal.material,
        pump.center_wavelength_nm,
        crystal.signal_center_nm,
        crystal.idler_center_nm,
    )


def _crossing_delays(first: CrystalConfig, second: CrystalConfig, pump: PumpPulse, theta2: float):
    """Delays (fs) of the crystal crossings, as three pairs: the first
    crystal's pairs crossing the second (cut at ``theta2``) as its
    extraordinary ray, (group, phase) at the pair mean; the (signal, idler)
    group-delay excess of that e-ray over ordinary-ray propagation; and the
    second crystal's pump component crossing the first as an ordinary ray,
    (group, phase)."""
    m2 = second.material
    length2_nm = second.thickness_mm * MM_TO_NM

    def e_delays(wavelength_nm):
        n_g = angled_extraordinary_group_index(m2, theta2, wavelength_nm)
        n_p = angled_extraordinary_index(m2, theta2, wavelength_nm)
        return n_g * length2_nm / C_NM_PER_FS, n_p * length2_nm / C_NM_PER_FS

    def o_excess(wavelength_nm):
        n_e = angled_extraordinary_group_index(m2, theta2, wavelength_nm)
        n_o = group_index(m2, "o", wavelength_nm)
        return (n_e - n_o) * length2_nm / C_NM_PER_FS

    sig_g, sig_p = e_delays(first.signal_center_nm)
    idl_g, idl_p = e_delays(first.idler_center_nm)

    length1_nm = first.thickness_mm * MM_TO_NM
    pump_o_group = group_index(first.material, "o", pump.center_wavelength_nm) * length1_nm / C_NM_PER_FS
    pump_o_phase = refractive_index(first.material, "o", pump.center_wavelength_nm) * length1_nm / C_NM_PER_FS

    return (
        (0.5 * (sig_g + idl_g), 0.5 * (sig_p + idl_p)),
        (o_excess(first.signal_center_nm), o_excess(first.idler_center_nm)),
        (pump_o_group, pump_o_phase),
    )


def _plate_effect_on_a(source: SourceConfig, arm: str, tilt_deg):
    """(group, phase) retardation of amplitude a relative to amplitude b
    caused by the per-arm plate of ``arm`` (signal|idler) at a tilt, or
    arrays of both at an array of tilts: positive when amplitude a's photon
    rides the slow extraordinary axis.  The plate's indices are evaluated
    once, at the arm's center wavelength; the tilts only set the path."""
    first = source.crystals[0]
    plate, center_nm = {
        "signal": (source.signal_plate, first.signal_center_nm),
        "idler": (source.idler_plate, first.idler_center_nm),
    }[arm]
    rep_e = element_delays(plate, "e", center_nm, tilt_deg)
    rep_o = element_delays(plate, "o", center_nm, tilt_deg)
    a_is_extraordinary = (first.pair_polarization() == "V") == (plate.axis_orientation == "vertical")
    sign = 1.0 if a_is_extraordinary else -1.0
    return (
        sign * (rep_e.group_delay_fs - rep_o.group_delay_fs),
        sign * (rep_e.phase_delay_fs - rep_o.phase_delay_fs),
    )


def _compensator_advance(source: SourceConfig) -> tuple:
    """(group, phase) pre-advance of amplitude b's pump component relative
    to amplitude a's, produced by the compensator elements."""
    pump_nm = source.pump.center_wavelength_nm
    pol_b_pump = "V" if source.crystals[1].axis_orientation == "vertical" else "H"
    adv_g = 0.0
    adv_p = 0.0
    for element in source.compensator:
        rep_e = element_delays(element, "e", pump_nm)
        rep_o = element_delays(element, "o", pump_nm)
        b_is_extraordinary = (pol_b_pump == "V") == (element.axis_orientation == "vertical")
        # advance of b = delay of the *other* component minus delay of b's.
        sign = 1.0 if b_is_extraordinary else -1.0
        adv_g += sign * (rep_o.group_delay_fs - rep_e.group_delay_fs)
        adv_p += sign * (rep_o.phase_delay_fs - rep_e.phase_delay_fs)
    return adv_g, adv_p


@dataclass(frozen=True)
class DelayBudget:
    """Each element's first-order (group, phase) delay, in fs, on the two
    amplitudes, plus the pump center frequency (rad/fs) and the two
    crystals' phase-matching ``specs``, derived from the same cut angles as
    the crossing.  The pair phases act about the first crystal's spec
    centers, ``specs[0].*_center_angular_frequency``.

    Amplitude a: ``crossing`` of crystal 2 by its pairs (collinear only),
    their ``cross_dispersion`` (signal, idler) group excess (when enabled),
    and the ``signal_plate`` and ``idler_plate`` retardations.  Amplitude b:
    ``pump_crossing`` of crystal 1 by its pump component (collinear only),
    less the ``compensation`` pre-advance.  A scan stores the plate terms of
    all its steps as arrays, from one ``_plate_effect_on_a`` pass per arm;
    every derived delay broadcasts over them.
    """

    pump_center: float
    specs: tuple
    compensation: tuple
    signal_plate: tuple
    idler_plate: tuple
    crossing: tuple = (0.0, 0.0)
    cross_dispersion: tuple = (0.0, 0.0)
    pump_crossing: tuple = (0.0, 0.0)

    @property
    def required_compensation_fs(self):
        """Group pre-advance of b's pump component that equalizes the two
        amplitudes' symmetric envelope retardations."""
        lag_a = (self.crossing[0] + 0.5 * (self.cross_dispersion[0] + self.cross_dispersion[1])
                 + 0.5 * (self.signal_plate[0] + self.idler_plate[0]))
        return self.pump_crossing[0] - lag_a

    def amplitude_a(self) -> tuple:
        """(signal group, idler group, carrier phase) retardation of a."""
        group = self.crossing[0]
        signal_center = self.specs[0].signal_center_angular_frequency
        idler_center = self.specs[0].idler_center_angular_frequency
        carrier = (signal_center + idler_center) * self.crossing[1]
        return (
            group + self.cross_dispersion[0] + self.signal_plate[0],
            group + self.cross_dispersion[1] + self.idler_plate[0],
            carrier + (signal_center * self.signal_plate[1] + idler_center * self.idler_plate[1]),
        )

    def amplitude_b(self) -> tuple:
        """(group, carrier phase) retardation of b, equal in both arms."""
        return (
            self.pump_crossing[0] - self.compensation[0],
            self.pump_center * self.pump_crossing[1] - self.pump_center * self.compensation[1],
        )

    def envelope_delay_fs(self):
        """Largest net group retardation between the amplitudes; the grid
        spacing must sample it."""
        return (
            np.abs(self.required_compensation_fs - self.compensation[0])
            + np.abs(self.signal_plate[0]) + np.abs(self.idler_plate[0])
            + abs(self.cross_dispersion[0] - self.cross_dispersion[1])
        )


def delay_budget(source: SourceConfig, knobs: PhaseKnobs | None = None,
                 compensation_error_fs=None) -> DelayBudget:
    """The delay budget at the knobs' plate tilts.  A compensation error (fs,
    a number or an array to broadcast over) replaces the compensator elements
    with an ideal pre-advance of the exact required compensation plus it."""
    knobs = knobs or PhaseKnobs()
    first, second = source.crystals
    theta2 = crystal_cut_angle(second, source.pump)
    crossings = {}
    if source.scheme == "collinear":
        crossing, excess, pump_crossing = _crossing_delays(first, second, source.pump, theta2)
        crossings = {"crossing": crossing, "pump_crossing": pump_crossing}
        if source.cross_dispersion_enabled:
            crossings["cross_dispersion"] = excess
    budget = DelayBudget(
        pump_center=source.pump.center_angular_frequency,
        specs=(phase_matching_spec(first, source.pump), phase_matching_spec(second, source.pump, theta2)),
        compensation=_compensator_advance(source) if compensation_error_fs is None else (0.0, 0.0),
        signal_plate=_plate_effect_on_a(source, "signal", knobs.signal_tilt_deg),
        idler_plate=_plate_effect_on_a(source, "idler", knobs.idler_tilt_deg),
        **crossings,
    )
    if compensation_error_fs is not None:
        exact = budget.required_compensation_fs + compensation_error_fs
        budget = replace(budget, compensation=(exact, exact))
    return budget


def required_compensation_fs(source: SourceConfig, knobs: PhaseKnobs | None = None) -> float:
    """Group pre-advance of amplitude b's pump component that equalizes the
    two amplitudes' symmetric envelope retardations (exact, nondegenerate;
    includes the standing per-arm plates and the cross-dispersion toggle)."""
    return delay_budget(source, knobs).required_compensation_fs


# --------------------------------------------------------------------------
# Amplitude assembly


def _pump_weights(source: SourceConfig) -> tuple:
    """Normalized amplitude weights (w_a, w_b); the ratio knob multiplies
    the horizontally-polarized pair amplitude."""
    chi = math.radians(source.pump.polarization_angle_deg)
    by_pol = {"H": abs(math.sin(chi)), "V": abs(math.cos(chi))}
    # Crystal k is pumped by the component parallel to its axis.
    w = []
    for crystal in source.crystals:
        pumped_by = "H" if crystal.axis_orientation == "horizontal" else "V"
        weight = by_pol[pumped_by]
        if crystal.pair_polarization() == "H":
            weight *= source.pump_amplitude_ratio
        w.append(weight)
    norm = math.hypot(*w)
    if norm == 0.0:
        raise ConfigError("pump weights vanish for both crystals")
    return w[0] / norm, w[1] / norm


def _spectral_setup(source: SourceConfig, budget: DelayBudget, points: int, span_factor: float,
                    grid: FrequencyGrid | None = None) -> FrequencyGrid:
    """The grid both crystals' JSAs are sampled on: ``grid`` or, when none
    is given, one sized for the envelopes and refined to sample the
    budget's largest net group retardation."""
    pump = source.pump
    max_delay = float(np.max(budget.envelope_delay_fs()))
    if not math.isfinite(max_delay):
        raise ConfigError(
            f"the net group delay between the amplitudes is {max_delay!r} fs; check every "
            "thickness_mm (crystals, compensator, knob plates)"
        )
    if grid is not None:
        return grid
    spec_a = budget.specs[0]
    grid = make_grid(pump, spec_a, filters=source.filters, points=points, span_factor=span_factor)
    half_span = 0.5 * float(grid.signal_axis[-1] - grid.signal_axis[0])
    needed = points
    while needed < 2.0 * half_span * max_delay * DELAY_SAMPLING_SAFETY / math.pi:
        needed *= 2
    if needed > MAX_GRID_POINTS:
        raise GridTruncationError(
            f"applied delays (~{max_delay:.0f} fs) would need {needed} grid points "
            f"(cap {MAX_GRID_POINTS}); reduce the delay or widen the cap"
        )
    if needed != points:
        grid = make_grid(pump, spec_a, filters=source.filters, points=needed, span_factor=span_factor)
    return grid


def budget_terms(source: SourceConfig, budget: DelayBudget, grid_points: int,
                 grid_span_factor: float, weights: tuple | None = None) -> tuple:
    """(|A_a|^2, |A_b|^2, <A_a|A_b> per delay entry, grid points used) of the
    amplitudes the budget makes of both crystals' JSAs, on the grid
    ``_spectral_setup`` sizes for its largest delay.  The per-entry
    (signal, idler) delays go straight to ``kernel_overlaps``, which streams
    the two-crystal kernel in row blocks and collapses an arm whose delays
    are all equal to one row; the carrier phases and pump weights (the
    source's, or ``weights`` (w_a, w_b) arrays) are applied to the overlaps.
    The JSAs are normalized, so the squared norms are the squared weights."""
    grid = _spectral_setup(source, budget, grid_points, grid_span_factor)
    w_a, w_b = _pump_weights(source) if weights is None else weights
    a_sig_group, a_idl_group, a_carrier = budget.amplitude_a()
    b_group, b_carrier = budget.amplitude_b()
    signal_delays, idler_delays = np.broadcast_arrays(np.atleast_1d(a_sig_group - b_group),
                                                      a_idl_group - b_group)
    overlaps = kernel_overlaps(source.pump, *budget.specs, *source.filters, grid, signal_delays,
                               idler_delays)
    cross = w_a * w_b * np.exp(1j * (a_carrier - b_carrier)) * overlaps
    return w_a * w_a, w_b * w_b, cross, grid.shape[0]


def interference_terms(
    source: SourceConfig,
    knobs: PhaseKnobs | None = None,
    grid_points: int = 128,
    grid_span_factor: float = 5.0,
    compensation_error_fs: float | None = None,
) -> tuple:
    """(|A_a|^2, |A_b|^2, <A_a|A_b>) of the amplitudes ``build_amplitudes``
    assembles at these knobs and compensation error: one delay budget, its
    grid and one stream of the kernel the scans use.  The pump knob is not
    included: it only multiplies the overlap by exp(i pump_knob_phase)."""
    budget = delay_budget(source, knobs, compensation_error_fs)
    norm_a, norm_b, cross, _ = budget_terms(source, budget, grid_points, grid_span_factor)
    return norm_a, norm_b, complex(cross[0])


def build_amplitudes(
    source: SourceConfig,
    knobs: PhaseKnobs | None = None,
    grid: FrequencyGrid | None = None,
    grid_points: int = 128,
    grid_span_factor: float = 5.0,
    compensation_error_fs: float | None = None,
) -> AmplitudePair:
    """Assemble the two interfering amplitudes for the configured scheme:
    the delay budget at ``knobs`` applied to both crystals' JSAs.

    ``compensation_error_fs`` (0.0: exact compensation) replaces the
    compensator elements as in ``delay_budget``.
    """
    knobs = knobs or PhaseKnobs()
    budget = delay_budget(source, knobs, compensation_error_fs)
    grid = _spectral_setup(source, budget, grid_points, grid_span_factor, grid)
    first, second = source.crystals
    spec_a, spec_b = budget.specs
    jsa_a = build_jsa(source.pump, spec_a, *source.filters, grid, label=first.axis_orientation)
    if spec_b == spec_a:
        jsa_b = JointSpectralAmplitude(grid=grid, values=jsa_a.values,
                                       metadata=dict(jsa_a.metadata, crystal_label=second.axis_orientation))
    else:
        jsa_b = build_jsa(source.pump, spec_b, *source.filters, grid, label=second.axis_orientation)
    w_a, w_b = _pump_weights(source)

    a_sig_group, a_idl_group, a_carrier = budget.amplitude_a()
    b_group, b_carrier = budget.amplitude_b()
    centers = (spec_a.signal_center_angular_frequency, spec_a.idler_center_angular_frequency)
    amp_a = biphoton.apply_envelope_phase(jsa_a, -a_sig_group, -a_idl_group, -a_carrier, *centers, "retard_a")
    amp_b = biphoton.apply_envelope_phase(jsa_b, -b_group, -b_group, -b_carrier, *centers, "retard_b")

    if w_a != 1.0:
        amp_a = biphoton.scale(amp_a, w_a)
    if w_b != 1.0:
        amp_b = biphoton.scale(amp_b, w_b)
    amp_a.metadata["grid_points"] = amp_b.metadata["grid_points"] = grid.shape[0]

    return AmplitudePair(
        amp_a=amp_a,
        amp_b=amp_b,
        relative_phase_rad=pump_knob_phase(source, knobs.pump_delta_x_nm),
    )


def pump_knob_phase(source: SourceConfig, delta_x_nm):
    """The pump spatial-delay knob as a pure phase K_p dx = 2 pi dx / lambda_p."""
    return 2.0 * math.pi * delta_x_nm / source.pump.center_wavelength_nm


# --------------------------------------------------------------------------
# Scans


def _h_and_v(source: SourceConfig, for_a, for_b) -> tuple:
    """A quantity given for amplitudes a and b, as (H pairs, V pairs)."""
    return (for_b, for_a) if source.crystals[0].pair_polarization() == "V" else (for_a, for_b)


def analyzer_rate(norm_h_sq, norm_v_sq, cross_term, theta1_deg, theta2_deg):
    """Normalized coincidence rate behind analyzers at theta1, theta2 of the
    H- and V-polarized pair amplitudes with squared norms ``norm_h_sq``,
    ``norm_v_sq`` and overlap ``cross_term`` (carrier phases included);
    peak 2 for ideal Bell settings.  Broadcasts over every argument."""
    t1, t2 = np.radians(theta1_deg), np.radians(theta2_deg)
    # <theta|V> = cos, <theta|H> = sin.
    f_h = np.sin(t1) * np.sin(t2)
    f_v = np.cos(t1) * np.cos(t2)
    cross = 2.0 * f_h * f_v * np.real(cross_term)
    return 4.0 * (f_h * f_h * norm_h_sq + f_v * f_v * norm_v_sq + cross) / (norm_h_sq + norm_v_sq)


def default_scan_range(source: SourceConfig, axis_kind: str) -> tuple:
    """Reconstructed defaults: about four fringe periods per scan."""
    if axis_kind == "pump_delay":
        span = 2.0 * source.pump.center_wavelength_nm
        return (-span, span)
    if axis_kind in ("signal_tilt", "idler_tilt", "both_tilts"):
        return (5.0, 35.0)
    return (0.0, 360.0)  # analyzer2_angle


def scan(
    source: SourceConfig,
    axis_kind: str,
    scan_range: tuple | None = None,
    steps: int = 129,
    analyzers: polarization.AnalyzerSetting | None = None,
    knobs: PhaseKnobs | None = None,
    grid_points: int = 128,
    grid_span_factor: float = 5.0,
    compensation_error_fs: float | None = None,
    noise: str = "none",
    mean_counts: float = 1000.0,
    seed: int | None = None,
) -> FringeScan:
    """Coincidence fringe versus one scanned knob or analyzer angle, from one
    ``delay_budget`` (scanned plate terms as arrays), grid and kernel stream.

    Sensible fits need 8 <= steps <= ``MAX_SCAN_STEPS`` spanning >= 1.5
    periods; shorter scans still produce data (the CLI writes the CSV first).
    """
    if axis_kind not in SCAN_AXIS_KINDS:
        raise ConfigError(f"axis_kind must be one of {SCAN_AXIS_KINDS}, got {axis_kind!r}")
    if not 2 <= steps <= MAX_SCAN_STEPS:
        raise ConfigError(f"scan needs 2 to {MAX_SCAN_STEPS} (MAX_SCAN_STEPS) steps, got {steps}")
    knobs = knobs or PhaseKnobs()
    analyzers = analyzers or polarization.AnalyzerSetting(45.0, 45.0)
    if scan_range is None:
        scan_range = default_scan_range(source, axis_kind)
    start, stop = (float(scan_range[0]), float(scan_range[1]))
    if not (math.isfinite(start) and math.isfinite(stop) and stop > start):
        raise ConfigError(f"scan range must be finite with stop > start, got ({start}, {stop})")
    values = np.linspace(start, stop, steps)

    # Per-step knobs and analyzers: the scanned fields take the scanned values.
    step = {name: np.full(steps, value) for name, value in (asdict(knobs) | asdict(analyzers)).items()}
    step.update(dict.fromkeys(SCAN_AXIS_FIELDS[axis_kind], values))

    # Only the scanned plates change the delays: all their steps' terms come
    # from one dispersion pass per arm; an unscanned arm's delay is one
    # overlap row for every step.
    scanned_arms = [arm for arm in ("signal", "idler") if f"{arm}_tilt_deg" in SCAN_AXIS_FIELDS[axis_kind]]
    standing = delay_budget(source, knobs, compensation_error_fs)
    budget = replace(standing, **{f"{arm}_plate": _plate_effect_on_a(source, arm, values)
                                  for arm in scanned_arms})
    norm_a, norm_b, cross, grid_points_used = budget_terms(source, budget, grid_points,
                                                           grid_span_factor)
    norms_sq = _h_and_v(source, norm_a, norm_b)
    rates = analyzer_rate(*norms_sq, cross * np.exp(1j * pump_knob_phase(source, step["pump_delta_x_nm"])),
                          step["theta1_deg"], step["theta2_deg"])
    # Rates are physically nonnegative; destructive-interference points can
    # round to tiny negative values.
    np.maximum(rates, 0.0, out=rates)

    # Tilt axes plot the mean effective path delay of the scanned plates,
    # relative to the standing tilts.
    plate_delays = [
        (getattr(budget, f"{arm}_plate")[1] - getattr(standing, f"{arm}_plate")[1]) * C_NM_PER_FS
        for arm in scanned_arms
    ]
    axis = np.mean(plate_delays, axis=0) if plate_delays else values.copy()

    metadata = {
        "axis_kind": axis_kind,
        "scan_range": (start, stop),
        "steps": steps,
        "scanned_values": tuple(float(v) for v in values),
        "analyzers": (analyzers.theta1_deg, analyzers.theta2_deg),
        "knobs": asdict(knobs),
        "grid_points": grid_points_used,
        "grid_span_factor": grid_span_factor,
        "compensation_error_fs": compensation_error_fs,
        "noise": noise,
        "source": source_snapshot(source),
    }
    if noise == "poisson":
        if seed is None:
            raise ConfigError("poisson noise requires a seed")
        rng = np.random.Generator(np.random.PCG64(seed))
        counts = rng.poisson(np.maximum(rates, 0.0) * mean_counts)
        rates = counts.astype(float) / mean_counts
        metadata["seed"] = seed
        metadata["mean_counts"] = mean_counts

    return FringeScan(axis=axis, axis_kind=axis_kind, rates=rates, metadata=metadata)


def _sweep_filters(source: SourceConfig, fwhm_nm) -> tuple:
    """Gaussian filters of one FWHM on both arms, or none for ``None``."""
    if fwhm_nm is None:
        return (NO_FILTER, NO_FILTER)
    centers = (source.crystals[0].signal_center_nm, source.crystals[0].idler_center_nm)
    return tuple(
        SpectralFilter(center_nm=f.center_nm if f.shape != "none" else c, fwhm_nm=fwhm_nm, shape="gaussian")
        for f, c in zip(source.filters, centers)
    )


# Sweep parameter -> the source at one value (a compensation error moves only the budget).
SWEEP_SOURCES = {
    "crystal_length": lambda src, v: replace(
        src, crystals=tuple(replace(c, thickness_mm=v) for c in src.crystals)),
    "filter_fwhm": lambda src, v: replace(src, filters=_sweep_filters(src, v)),
    "pump_ratio": lambda src, v: replace(src, pump_amplitude_ratio=v),
}
SWEEP_PARAMETERS = ("crystal_length", "filter_fwhm", "compensation_error_fs", "pump_ratio")


def sweep(source: SourceConfig, knobs: PhaseKnobs, parameter: str, values,
          grid_points: int = 128, grid_span_factor: float = 5.0) -> np.ndarray:
    """Visibility 2 |<A_a|A_b>| / (|A_a|^2 + |A_b|^2) at each of 1 to
    ``MAX_SCAN_STEPS`` values, compensated exactly plus the swept error if any.
    Only ``crystal_length`` and ``filter_fwhm`` (``None``: no filters) change
    the JSAs, one evaluation per value; the other sweeps are one evaluation."""
    if not 0 < len(values) <= MAX_SCAN_STEPS:
        raise ConfigError(f"a sweep takes 1 to {MAX_SCAN_STEPS} (MAX_SCAN_STEPS) values, got {len(values)}")
    if None in values and parameter != "filter_fwhm":
        raise ConfigError(f"{parameter} sweep values must be numbers")

    def visibilities(src, error=0.0, weights=None):
        budget = delay_budget(src, knobs, error)
        norm_a, norm_b, cross, _ = budget_terms(src, budget, grid_points, grid_span_factor, weights)
        return 2.0 * np.abs(cross) / (norm_a + norm_b)

    if parameter == "compensation_error_fs":
        return visibilities(source, np.asarray(values, dtype=float))
    if parameter == "pump_ratio":
        weights = [_pump_weights(SWEEP_SOURCES[parameter](source, v)) for v in values]
        return visibilities(source, weights=np.transpose(weights))
    return np.concatenate([visibilities(SWEEP_SOURCES[parameter](source, v)) for v in values])


def _coherence(norm_a_sq: float, norm_b_sq: float, cross: complex) -> float:
    """|<a|b>| / (|a| |b|), at most 1; 0 when either amplitude vanishes."""
    norms = math.sqrt(norm_a_sq) * math.sqrt(norm_b_sq)
    return 0.0 if norms == 0.0 else min(abs(cross) / norms, 1.0)


def prepare_bell(
    source: SourceConfig,
    target: str,
    knobs: PhaseKnobs | None = None,
    terms: tuple | None = None,
) -> PhaseKnobs:
    """Pump-knob setting that puts the space-time fringe at its maximum
    (phi+) or minimum (phi-); the returned knobs are verified by rate
    evaluation by the caller's tests.

    ``terms`` are the ``interference_terms`` of the amplitudes at these
    knobs, evaluated with whatever grid and compensation the caller chose;
    when absent they are ``interference_terms(source, knobs)``.  The pump
    knob does not change them, so one evaluation also serves the prepared
    knobs.
    """
    if target not in ("phi+", "phi-"):
        raise ConfigError(f"target must be phi+|phi-, got {target!r}")
    knobs = knobs or PhaseKnobs()
    if terms is None:
        terms = interference_terms(source, knobs)
    visibility = _coherence(*terms)
    if visibility <= 0.9:
        raise InfeasibleError(
            f"cannot prepare {target}: |overlap| = {visibility:.4f} <= 0.9 "
            "(compensation or balance insufficient)"
        )
    constant = np.angle(terms[2]) + pump_knob_phase(source, knobs.pump_delta_x_nm)
    wanted = 0.0 if target == "phi+" else math.pi
    delta_phase = (wanted - constant) % (2.0 * math.pi)
    delta_x = delta_phase * source.pump.center_wavelength_nm / (2.0 * math.pi)
    return replace(knobs, pump_delta_x_nm=knobs.pump_delta_x_nm + delta_x)


def effective_polarization_state(
    source: SourceConfig,
    knobs: PhaseKnobs | None = None,
    terms: tuple | None = None,
):
    """Pure-state polarization coefficients with the effective fringe phase,
    plus the separately reported coherence factor V = |overlap|.  ``terms``
    as in ``prepare_bell``."""
    knobs = knobs or PhaseKnobs()
    if terms is None:
        terms = interference_terms(source, knobs)
    na, nb, cross = terms
    w_a, w_b = math.sqrt(na), math.sqrt(nb)
    visibility = _coherence(na, nb, cross)
    phase = pump_knob_phase(source, knobs.pump_delta_x_nm) + (np.angle(cross) if w_a * w_b > 0.0 else 0.0)

    # The fringe phase rides on the horizontally-polarized pair amplitude.
    w_h, w_v = _h_and_v(source, w_a, w_b)
    coeffs = np.array([w_h * np.exp(1j * phase), 0.0, 0.0, w_v], dtype=complex) / math.hypot(w_a, w_b)
    state = polarization.PolarizationState(
        coefficients=coeffs,
        labels=(source.crystals[0].signal_center_nm, source.crystals[0].idler_center_nm),
    )
    return state, visibility


# --------------------------------------------------------------------------
# Configuration files


def source_snapshot(source: SourceConfig) -> dict:
    """Plain-data echo of the source for scan metadata and manifests."""
    return {
        "scheme": source.scheme,
        "pump": {
            "center_wavelength_nm": source.pump.center_wavelength_nm,
            "duration_fs": source.pump.duration_fs,
            "duration_convention": "intensity_fwhm",
            "polarization_angle_deg": source.pump.polarization_angle_deg,
        },
        "crystals": [
            {
                "material": c.material.name,
                "thickness_mm": c.thickness_mm,
                "axis_orientation": c.axis_orientation,
                "signal_center_nm": c.signal_center_nm,
                "idler_center_nm": c.idler_center_nm,
            }
            for c in source.crystals
        ],
        "compensator": [
            {
                "material": e.material.name,
                "thickness_mm": e.thickness_mm,
                "axis_orientation": e.axis_orientation,
                "tilt_deg": e.tilt_deg,
            }
            for e in source.compensator
        ],
        "filters": [
            {"center_nm": f.center_nm, "fwhm_nm": f.fwhm_nm, "shape": f.shape}
            for f in source.filters
        ],
        "plates": {
            arm: {
                "material": p.material.name,
                "thickness_mm": p.thickness_mm,
                "axis_orientation": p.axis_orientation,
            }
            for arm, p in (("signal", source.signal_plate), ("idler", source.idler_plate))
        },
        "cross_dispersion_enabled": source.cross_dispersion_enabled,
        "pump_amplitude_ratio": source.pump_amplitude_ratio,
        "approximations": (
            "e_index_on_phase_matching_cut",
            "plate_tilt_o_index_geometry",
            "first_order_group_velocity_expansion",
            "air_treated_as_vacuum",
        ),
    }


_REQUIRED = object()


def _mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {context!r} must be a mapping, got {value!r}")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in _mapping(mapping, context):
        raise ConfigError(f"config section {context!r} is missing key {key!r}")
    return mapping[key]


def _number(mapping: dict, key: str, context: str, default=_REQUIRED, kind=float):
    """The finite number (``kind`` float or int) at ``context.key``, or
    ``default`` when the key is absent and a default is given; anything else
    is a ConfigError naming the key path."""
    if default is not _REQUIRED and key not in _mapping(mapping, context):
        return default
    value = _require(mapping, key, context)
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}.{key} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{context}.{key} must be finite, got {value!r}")
    if kind is int and not number.is_integer():
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    return kind(number)


def _choice(mapping: dict, key: str, context: str, choices, default=_REQUIRED) -> str:
    """The string at ``context.key``, one of ``choices``, or ``default``
    when the key is absent and a default is given; anything else (another
    string, a number, a list, a mapping) is a ConfigError naming the key
    path."""
    if default is not _REQUIRED and key not in _mapping(mapping, context):
        return default
    value = _require(mapping, key, context)
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{context}.{key} must be one of {'|'.join(choices)}, got {value!r}")
    return value


ORIENTATIONS = ("horizontal", "vertical")


def _parse_element(entry: dict, context: str) -> BirefringentElement:
    return BirefringentElement(
        material=get_material(_choice(entry, "material", context, material_names())),
        thickness_mm=_number(entry, "thickness_mm", context),
        axis_orientation=_choice(entry, "axis_orientation", context, ORIENTATIONS, "vertical"),
        tilt_deg=_number(entry, "tilt_deg", context, 0.0),
    )


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed YAML mapping into an ExperimentConfig."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for section in ("pump", "crystals", "filters", "scheme"):
        if section not in data:
            raise ConfigError(f"config is missing the {section!r} section")

    p = data["pump"]
    pump = PumpPulse(
        center_wavelength_nm=_number(p, "center_wavelength_nm", "pump"),
        duration_fs=_number(p, "duration_fs", "pump"),
        polarization_angle_deg=_number(p, "polarization_angle_deg", "pump", 45.0),
    )

    crystals = []
    raw_crystals = data["crystals"]
    if not isinstance(raw_crystals, list) or len(raw_crystals) != 2:
        raise ConfigError("config section 'crystals' must list exactly two crystals")
    for k, entry in enumerate(raw_crystals):
        context = f"crystals[{k}]"
        crystals.append(
            CrystalConfig(
                material=get_material(_choice(entry, "material", context, material_names())),
                thickness_mm=_number(entry, "thickness_mm", context),
                axis_orientation=_choice(entry, "axis_orientation", context, ORIENTATIONS),
                signal_center_nm=_number(entry, "signal_center_nm", context),
                idler_center_nm=_number(entry, "idler_center_nm", context),
            )
        )

    filters = []
    raw_filters = data["filters"]
    if not isinstance(raw_filters, list) or len(raw_filters) != 2:
        raise ConfigError("config section 'filters' must list exactly two filters")
    for k, entry in enumerate(raw_filters):
        context = f"filters[{k}]"
        shape = _choice(entry, "shape", context, ("gaussian", "rectangular", "none"), "gaussian")
        if shape == "none":
            filters.append(NO_FILTER)
        else:
            filters.append(
                SpectralFilter(
                    center_nm=_number(entry, "center_nm", context),
                    fwhm_nm=_number(entry, "fwhm_nm", context),
                    shape=shape,
                )
            )

    compensator = tuple(
        _parse_element(entry, f"compensator[{k}]")
        for k, entry in enumerate(data.get("compensator", []) or [])
    )

    scheme = _mapping(data["scheme"], "scheme")
    cross_dispersion = scheme.get("cross_dispersion", False)
    if not isinstance(cross_dispersion, bool):
        raise ConfigError(f"scheme.cross_dispersion must be true or false, got {cross_dispersion!r}")
    knobs_raw = _mapping(data.get("knobs") or {}, "knobs")
    plates = {}
    for arm in ("signal_plate", "idler_plate"):
        entry = knobs_raw.get(arm)
        if entry is None:
            entry = {"material": "quartz", "thickness_mm": 3.0, "axis_orientation": "vertical"}
        plates[arm] = _parse_element(entry, f"knobs.{arm}")

    source = SourceConfig(
        scheme=_choice(scheme, "kind", "scheme", ("collinear", "mzi")),
        pump=pump,
        crystals=tuple(crystals),
        compensator=compensator,
        filters=tuple(filters),
        signal_plate=plates["signal_plate"],
        idler_plate=plates["idler_plate"],
        cross_dispersion_enabled=cross_dispersion,
        pump_amplitude_ratio=_number(scheme, "pump_amplitude_ratio", "scheme", 1.0),
    )

    knobs = PhaseKnobs(
        pump_delta_x_nm=_number(knobs_raw, "pump_delta_x_nm", "knobs", 0.0),
        signal_tilt_deg=_number(knobs_raw, "signal_tilt_deg", "knobs", 0.0),
        idler_tilt_deg=_number(knobs_raw, "idler_tilt_deg", "knobs", 0.0),
    )

    s = _mapping(data.get("scan") or {}, "scan")
    scan_settings = ScanSettings(
        axis_kind=_choice(s, "axis_kind", "scan", SCAN_AXIS_KINDS, "pump_delay"),
        start=None if s.get("start") is None else _number(s, "start", "scan"),
        stop=None if s.get("stop") is None else _number(s, "stop", "scan"),
        steps=_number(s, "steps", "scan", 129, int),
        analyzer1_deg=_number(s, "analyzer1_deg", "scan", 45.0),
        analyzer2_deg=_number(s, "analyzer2_deg", "scan", 45.0),
        grid_points=_number(s, "grid_points", "scan", 128, int),
        grid_span_factor=_number(s, "grid_span_factor", "scan", 5.0),
        noise=_choice(s, "noise", "scan", ("none", "poisson"), "none"),
        mean_counts=_number(s, "mean_counts", "scan", 1000.0),
    )

    return ExperimentConfig(source=source, knobs=knobs, scan=scan_settings)


def load_config(path) -> ExperimentConfig:
    """Load and validate a scenario config file (YAML)."""
    try:
        with open(path, "r") as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return parse_config(data)


def default_config_path():
    """Path of the packaged default scenario file."""
    from importlib import resources

    return resources.files("bellsim.data").joinpath("default.yaml")
