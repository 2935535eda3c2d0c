"""Full experiment assembly: the interferometric (two-arm) and collinear
two-crystal source schemes, compensation bookkeeping, phase knobs, fringe
scans and parameter sweeps.

Timing model (collinear, crystals listed in beam order):

* amplitude a = pairs from the first crystal.  They cross the second
  crystal as its extraordinary ray (the crystals' axes are orthogonal);
  this crossing is rigid: one ``pair``-axis term, carried at the pair's sum
  frequency, gives both arms the mean e-ray group delay of the pair centers
  on the phase-matching cut.  That drops the signal-idler differential
  (108.9 fs for the default crystals), which no pump delay removes; the
  default's visibility of ~1 rests on this approximation.  The
  ``cross_dispersion`` toggle adds each arm's e-ray less o-ray group delay
  through the second crystal as a term on that arm, a differential of a
  few fs.
* amplitude b = pairs from the second crystal.  Its pump component first
  crosses the first crystal as an ordinary ray (slow), so amplitude b lags;
  the birefringent compensator pre-advances that pump component.  Both are
  ``pump``-axis terms of b, carried at the pump frequency.
* the per-arm quartz plates (the signal/idler phase knobs) retard the
  polarization parallel to their axis; their phase delay difference is the
  fringe phase, their group-delay difference shifts the envelopes.  Each is
  a term of a on its own arm.

Every element acts to first order, as a group delay plus a phase delay on
one amplitude and one axis: a ``DelayTerm``, from its rays' delays over
their paths (``dispersion.ray_delays``).  A ``DelayBudget`` is the list
of these terms, keyed by element name, with each axis's carrier frequency
and both crystals' phase-matching specs.  Each delay quantity (an amplitude's per-arm retardation and
carrier phase, the delays of a relative to b, the required compensation,
the grid's envelope delay) is one sum over the terms in their fixed order.
A compensation error replaces the compensator with an ideal pre-advance of
the exact required compensation plus that error; like a scan's plate terms,
it may be an array.  Every fringe value is thus an overlap of the two JSAs
at one (signal delay, idler delay, carrier phase).  A delay outside the
kernel's time support (``spectral.kernel_time_support``, a scalar bound:
the walk-off segments widened by the pump and filter Gaussians) has an
overlap below 1e-12 of the peak and is reported as 0; ``spectral.make_grid``
sizes the one grid, in one call, for the largest delay inside it, so no
refinement is spent where no reported number can change.  A scan
computes each step's pump-knob phase, analyzer angles and plate terms as
arrays, the plate terms from one dispersion pass per arm.  The other delays
then go to one ``spectral.kernel_overlaps`` stream (the batch of one of
``spectral.kernel_overlaps_batch``), which streams the real
two-crystal kernel in cache-sized row blocks, never holds an N x N array,
and is the only place delays are deduplicated: an arm whose delay no entry
changes is a single phase row, and an arm with K distinct delays is
factored over its uniform axis into ~2 K sqrt(N) phases, so only the arm
that drives the product forms an N x K table.  Each block samples only the
columns where a bound of the pump-times-filters envelope reaches 1e-15 of
its crest, so the stream's time follows the envelope's frequency support
more than the grid (24 % of a default 1024^2 grid, 53 % of 128^2), with a
rerun on every cell when the skipped cells could move an overlap by more
than 1e-15.  ``sweep`` takes one row per compensation error, or one row
weighted per pump ratio; a crystal-length or filter-width sweep, whose
values change the JSAs, makes one ``budget_terms_batch`` call per chunk of
values, each value on its own grid, so the stream's 1-D set-up is stacked
over the values and paid once per batch.  A batch raises the first error it
meets; ``sweep`` alone finds the lowest-indexed failing value, by
evaluating that chunk's values again one at a time.  ``prepare_bell`` and
``effective_polarization_state`` take the terms of one delay row, which the
caller evaluates with ``budget_terms`` on the grid numerics of its config.
A process keeps (``bellsim.memo``) the last ``CONFIG_MEMO_SIZE`` delay
budgets without their compensation term (``_element_budget``, read-only
mappings) and compensator terms (``_compensator_term``), each by its
arguments, which are all it reads (no filter, pump ratio or pump knob), so
a command derives no budget an earlier command of the process derived.
A budget's length-free parts are kept apart from it, by what they read:
the cut angles (``_cut_angle``: material, pump and pair centers) and the
knob-plate terms at scalar tilts (``_kept_plate_term``: the plate, the
first crystal's centers and pair polarization, the tilt).  No crystal
thickness enters them, so the values of a crystal-length sweep share them,
and two crystals of one cut share one solve; ``ray_delays`` still forms
every n L / c, so each length's crossings keep their bits.
``spectral`` keeps the time supports and stacked set-ups likewise, and
``load_config`` the parsed configs.  Each config section is read into the
one class that holds its defaults.
``build_amplitudes`` still assembles the two phased amplitudes explicitly,
for the tests and the time-domain oracle.

All constant carrier phases are folded into the amplitude values, so the
fringe position is simply the argument of the complex overlap; the pump
knob contributes the scanned phase 2 pi dx / lambda_p.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import yaml

from . import biphoton, polarization
from .biphoton import AmplitudePair, coherence
from .dispersion import (
    BirefringentElement,
    Material,
    check_tilt,
    element_delays,
    get_material,
    material_names,
    phase_matching_cut_angle,
    ray_delays,
    MM_TO_NM,
    ORIENTATIONS,
    YAML_LOADER,
)
from .errors import ConfigError, InfeasibleError
from .memo import kept
from .spectral import (
    FILTER_SHAPES,
    MAX_GRID_POINTS,
    NO_FILTER,
    SUPPORT_LEVEL,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpPulse,
    SpectralFilter,
    build_jsa,
    kernel_overlaps_batch,
    kernel_time_support,
    make_grid,
)
from .units import C_NM_PER_FS

# Scan axis -> the fields it sets to the scanned value: PhaseKnobs fields,
# or theta2_deg, the second analyzer angle (``ScanSettings.analyzer2_deg``).
SCAN_AXIS_FIELDS = {
    "pump_delay": ("pump_delta_x_nm",),
    "signal_tilt": ("signal_tilt_deg",),
    "idler_tilt": ("idler_tilt_deg",),
    "both_tilts": ("signal_tilt_deg", "idler_tilt_deg"),
    "analyzer2_angle": ("theta2_deg",),
}
SCAN_AXIS_KINDS = tuple(SCAN_AXIS_FIELDS)
ARMS = ("signal", "idler")
SUM_AXES = ("pair", "pump")  # the delay-term axes that act on both arms
# The delay terms in summation order, which fixes every rounding (``DelayBudget``).
TERM_ORDER = ("signal_excess", "idler_excess", "signal_plate", "idler_plate", "crossing", "pump_crossing",
              "compensation")
NOISE_KINDS = ("none", "poisson")
SCHEME_KINDS = ("collinear", "mzi")

MAX_SCAN_STEPS = 4096  # scan steps or sweep values: one kernel delay row each
# Config texts whose parsed config a process keeps (``load_config``), and
# element budgets and compensator terms (``delay_budget``).  A config is a
# few KB, and a session of commands reads a handful of files.
CONFIG_MEMO_SIZE = 32
# Rates are at most 4 (``analyzer_rate``), so rate * mean_counts stays inside
# the range of numpy's Poisson sampler (lam below ~9.2e18).
MAX_MEAN_COUNTS = 1.0e18


@dataclass(frozen=True)
class CrystalConfig:
    """One down-conversion crystal and the pair centers it is cut for."""

    material: Material
    thickness_mm: float
    axis_orientation: str
    signal_center_nm: float
    idler_center_nm: float

    def __post_init__(self):
        for key in ("thickness_mm", "signal_center_nm", "idler_center_nm"):
            if not getattr(self, key) > 0.0:
                raise ConfigError(f"crystal {key} must be positive, got {getattr(self, key)}")

    def pump_polarization(self) -> str:
        # The crystal is pumped by the pump component parallel to its axis.
        return "H" if self.axis_orientation == "horizontal" else "V"

    def pair_polarization(self) -> str:
        # Type-I pairs are ordinary rays, polarized orthogonal to the axis.
        return "V" if self.axis_orientation == "horizontal" else "H"


def _check_pump_knob(path: str, *delta_x_nm) -> None:
    """ConfigError naming ``path`` unless the pump-knob phase 2 pi dx /
    lambda_p is finite at each ``delta_x_nm``: 2 pi dx overflows for |dx|
    above ~2.86e307 nm.  Checked before numpy ever sees the phase."""
    if not all(math.isfinite(2.0 * math.pi * float(dx)) for dx in delta_x_nm):
        raise ConfigError(f"{path}: the pump-knob phase 2 pi dx / lambda_p overflows; |dx| must be below "
                          f"~2.86e307 nm, got {', '.join(map(repr, delta_x_nm))}")


@dataclass(frozen=True)
class PhaseKnobs:
    """The ``knobs`` section's settings (its knob plates are ``SourceConfig``
    fields).  Each check names its key."""

    pump_delta_x_nm: float = 0.0
    signal_tilt_deg: float = 0.0
    idler_tilt_deg: float = 0.0

    def __post_init__(self):
        _check_pump_knob("knobs.pump_delta_x_nm", self.pump_delta_x_nm)
        for key in ("signal_tilt_deg", "idler_tilt_deg"):
            _in_context(f"knobs.{key}", check_tilt, tilt_deg=getattr(self, key))


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
        if self.scheme not in SCHEME_KINDS:
            raise ConfigError(f"scheme must be {'|'.join(SCHEME_KINDS)}, got {self.scheme!r}")
        if len(self.crystals) != 2:
            raise ConfigError("exactly two crystals are required")
        a, b = self.crystals
        if {a.axis_orientation, b.axis_orientation} != set(ORIENTATIONS):
            raise ConfigError(f"crystals[1].axis_orientation: the two crystals must have orthogonal axis "
                              f"orientations, got {a.axis_orientation!r} and {b.axis_orientation!r}")
        if len(self.filters) != 2:
            raise ConfigError("exactly two filters are required (signal, idler)")
        if not (math.isfinite(self.pump_amplitude_ratio) and self.pump_amplitude_ratio >= 0.0):
            raise ConfigError(f"scheme.pump_amplitude_ratio must be finite and >= 0, "
                              f"got {self.pump_amplitude_ratio!r}")
        # Energy conservation: 1/ls + 1/li = 1/lp within 1e-3 relative.
        pump_nm = self.pump.center_wavelength_nm
        for k, c in enumerate(self.crystals):
            mismatch = abs(1.0 / c.signal_center_nm + 1.0 / c.idler_center_nm - 1.0 / pump_nm) / (1.0 / pump_nm)
            if mismatch > 1.0e-3:
                raise ConfigError(f"crystals[{k}].signal_center_nm/idler_center_nm: centers {c.signal_center_nm}/"
                                  f"{c.idler_center_nm} nm violate energy conservation with the pump."
                                  f"center_wavelength_nm {pump_nm} nm pump (relative mismatch {mismatch:.3g} > 1e-3)")


@dataclass(frozen=True)
class ScanSettings:
    """The ``scan`` config section: every scan setting, its one default and
    its one check.  ``sweep`` and ``prepare`` use its grid numerics.  Without
    start and stop a scan covers the axis's default range (``values``)."""

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
        for key, choices in (("axis_kind", SCAN_AXIS_KINDS), ("noise", NOISE_KINDS)):
            if getattr(self, key) not in choices:
                raise ConfigError(f"scan.{key} must be one of {'|'.join(choices)}, got {getattr(self, key)!r}")
        if not 2 <= self.steps <= MAX_SCAN_STEPS:
            raise ConfigError(f"scan.steps: scan needs 2 to {MAX_SCAN_STEPS} (MAX_SCAN_STEPS) steps, "
                              f"got {self.steps}")
        if (self.start is None) != (self.stop is None):
            raise ConfigError("scan.start and scan.stop must be given together")
        if self.start is not None and not (math.isfinite(self.stop - self.start) and self.stop > self.start):
            raise ConfigError(f"scan.start/scan.stop: scan range must be finite with stop > start, "
                              f"got ({self.start}, {self.stop})")
        if self.start is not None and self.axis_kind == "pump_delay":
            _check_pump_knob("scan.start/scan.stop", self.start, self.stop)
        if not (math.isfinite(self.analyzer1_deg) and math.isfinite(self.analyzer2_deg)):
            raise ConfigError(f"scan.analyzer1_deg and scan.analyzer2_deg must be finite, got "
                              f"{self.analyzer1_deg!r} and {self.analyzer2_deg!r}")
        if not 8 <= self.grid_points <= MAX_GRID_POINTS:
            raise ConfigError(f"scan.grid_points must be in [8, {MAX_GRID_POINTS}], got {self.grid_points}")
        if not 0.0 < self.mean_counts <= MAX_MEAN_COUNTS:
            raise ConfigError(f"scan.mean_counts must be positive and at most {MAX_MEAN_COUNTS:g}, "
                              f"got {self.mean_counts!r}")
        if not (math.isfinite(self.grid_span_factor) and self.grid_span_factor > 0.0):
            raise ConfigError(
                f"scan.grid_span_factor must be finite and positive, got {self.grid_span_factor!r}"
            )

    def values(self, source: SourceConfig) -> np.ndarray:
        """The ``steps`` scanned values from start to stop, or over the
        axis's reconstructed default range: about four fringe periods."""
        span = 2.0 * source.pump.center_wavelength_nm
        default = {"pump_delay": (-span, span), "analyzer2_angle": (0.0, 360.0)}.get(self.axis_kind, (5.0, 35.0))
        start, stop = default if self.start is None else (self.start, self.stop)
        return np.linspace(start, stop, self.steps)


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig
    knobs: PhaseKnobs
    scan: ScanSettings


@dataclass(frozen=True)
class FringeScan:
    axis: np.ndarray
    rates: np.ndarray
    grid_points: int


# --------------------------------------------------------------------------
# Crystal physics derived from the material table


def phase_matching_spec(crystal: CrystalConfig, pump: PumpPulse) -> PhaseMatchingSpec:
    """Inverse group velocities on the phase-matching cut, each a ray's
    group delay over 1 mm: extraordinary pump, ordinary pair."""
    theta = crystal_cut_angle(crystal, pump)
    m = crystal.material
    return PhaseMatchingSpec(
        crystal_length_mm=crystal.thickness_mm,
        signal_center_nm=crystal.signal_center_nm,
        idler_center_nm=crystal.idler_center_nm,
        inverse_group_velocity_pump_fs_per_mm=ray_delays(m, theta, pump.center_wavelength_nm, MM_TO_NM)[0],
        inverse_group_velocity_signal_fs_per_mm=ray_delays(m, "o", crystal.signal_center_nm, MM_TO_NM)[0],
        inverse_group_velocity_idler_fs_per_mm=ray_delays(m, "o", crystal.idler_center_nm, MM_TO_NM)[0],
    )


def crystal_cut_angle(crystal: CrystalConfig, pump: PumpPulse) -> float:
    return _cut_angle(crystal.material, pump.center_wavelength_nm, crystal.signal_center_nm,
                      crystal.idler_center_nm)


@kept(CONFIG_MEMO_SIZE)
def _cut_angle(material: Material, pump_nm: float, signal_nm: float, idler_nm: float) -> float:
    """The phase-matching cut angle, by all it reads: no crystal thickness
    enters, so crystals that differ only in length share one solve."""
    return phase_matching_cut_angle(material, pump_nm, signal_nm, idler_nm)


class DelayTerm(NamedTuple):
    """One element's first-order group and phase delay, in fs, on one
    amplitude (a|b) and one axis (an arm, or a sum frequency: both arms)."""

    amplitude: str
    axis: str
    group: float
    phase: float


def _crossing_terms(pump: PumpPulse, crystals: tuple, cross_dispersion: bool, theta2: float) -> dict:
    """The crystal crossings' terms, each from ``ray_delays`` over a crystal
    length: a's pairs cross crystal 2 (cut at ``theta2``) as its e-ray,
    rigidly at the pair mean; b's pump crosses crystal 1 as an o-ray.  With
    cross-dispersion, each arm adds its e-ray less its o-ray group delay.  A
    crossing delay past the float range is an error naming the crystal's
    thickness."""
    first, second = crystals
    length2_nm = second.thickness_mm * MM_TO_NM
    centers = (first.signal_center_nm, first.idler_center_nm)
    (sig_g, sig_p), (idl_g, idl_p) = (ray_delays(second.material, theta2, center, length2_nm) for center in centers)
    pump_delays = ray_delays(first.material, "o", pump.center_wavelength_nm, first.thickness_mm * MM_TO_NM)
    for k, delays in ((1, (sig_g, sig_p, idl_g, idl_p)), (0, pump_delays)):
        if not all(map(math.isfinite, delays)):
            raise ConfigError(f"crystals[{k}].thickness_mm: the delay across crystal {k + 1} overflows a float; "
                              f"got {crystals[k].thickness_mm!r} mm")
    terms = {"crossing": DelayTerm("a", "pair", 0.5 * (sig_g + idl_g), 0.5 * (sig_p + idl_p)),
             "pump_crossing": DelayTerm("b", "pump", *pump_delays)}
    if cross_dispersion:
        for arm, e_group, center in zip(ARMS, (sig_g, idl_g), centers):
            o_group = ray_delays(second.material, "o", center, length2_nm)[0]
            terms[f"{arm}_excess"] = DelayTerm("a", arm, e_group - o_group, 0.0)
    return terms


def _retardation(element: BirefringentElement, keys: tuple, polarization: str, wavelength_nm: float,
                 tilt_deg=None):
    """(group, phase) delay, in fs, of the ray polarized ``polarization``
    (H|V) through ``element`` less that of the orthogonal ray, at the
    element's tilt or at ``tilt_deg`` (a number or an array).  A ray is
    extraordinary when its polarization lies along the element's axis.
    ``keys`` are the config keys of the element and of the wavelength: an
    index error names both, and a ray delay past the float range names the
    element's thickness, before the difference could take inf - inf."""
    try:
        delays = (e_group, e_phase), (o_group, o_phase) = element_delays(element, wavelength_nm, tilt_deg)
    except ConfigError as exc:
        raise _prefixed(" at ".join(keys), exc) from None
    if not np.isfinite(delays).all():
        raise ConfigError(f"{keys[0]}.thickness_mm: the delay across the element overflows a float; "
                          f"got {element.thickness_mm!r} mm")
    sign = 1.0 if (polarization == "V") == (element.axis_orientation == "vertical") else -1.0
    return sign * (e_group - o_group), sign * (e_phase - o_phase)


def _plate_term(plate: BirefringentElement, arm: str, center_nm: float, polarization: str, tilt_deg) -> DelayTerm:
    """Amplitude a's term of ``arm``'s knob plate at a tilt (arrays at an
    array of tilts): the retardation of a's photon, polarized
    ``polarization`` at the arm's center ``center_nm`` of the first crystal,
    relative to b's; the tilts only set the path.  An error names the
    plate's key (``_retardation``)."""
    if np.ndim(tilt_deg):  # a scan's tilts, checked before the index evaluation that names the plate
        check_tilt(tilt_deg)
    keys = (f"knobs.{arm}_plate", f"crystals[0].{arm}_center_nm")
    return DelayTerm("a", arm, *_retardation(plate, keys, polarization, center_nm, tilt_deg))


# A budget's plate term at its scalar tilt, by all it reads: no crystal
# thickness enters, so a crystal-length sweep's values share it.
_kept_plate_term = kept(2 * CONFIG_MEMO_SIZE)(_plate_term)


@kept(CONFIG_MEMO_SIZE)
def _compensator_term(compensator: tuple, pump_polarization: str, pump_nm: float) -> DelayTerm:
    """Amplitude b's term of the compensator elements: the retardation of
    b's pump component, polarized ``pump_polarization``, relative to a's,
    negative for a pre-advance.  An error names the element's key."""
    group = phase = 0.0
    for k, element in enumerate(compensator):
        keys = (f"compensator[{k}]", "pump.center_wavelength_nm")
        element_group, element_phase = _retardation(element, keys, pump_polarization, pump_nm)
        group += element_group
        phase += element_phase
    return DelayTerm("b", "pump", group, phase)


@dataclass(frozen=True)
class DelayBudget:
    """Each element's ``DelayTerm`` by name, the carrier (rad/fs) of each
    axis and the crystals' phase-matching ``specs`` (same cut angles as the
    crossing).  Four axes: ``signal`` and ``idler`` act on one arm, at the
    first crystal's spec centers; ``pair`` and ``pump`` act on both, at the
    centers' sum and the pump center.  Each delay quantity sums one
    amplitude's terms in term order (``TERM_ORDER``), so the term order is
    the summation order and fixes every rounding.  A scan swaps the plate
    terms by name for arrays, and a compensation error may be an array;
    every delay broadcasts over them."""

    terms: dict
    carriers: dict
    specs: tuple

    def _group(self, amplitude: str, axes, total=0.0, without: str | None = None):
        """``total`` plus the group delays of the terms of ``amplitude`` on
        ``axes``, but ``without``, added one by one in term order."""
        for name, (owner, axis, group, _) in self.terms.items():
            if owner == amplitude and axis in axes and name != without:
                total = total + group
        return total

    def retardation(self, amplitude: str) -> tuple:
        """(signal group, idler group, carrier phase) retardation of
        ``amplitude`` (a|b)."""
        carrier = 0.0
        for owner, axis, _, phase in self.terms.values():
            if owner == amplitude:
                carrier = carrier + self.carriers[axis] * phase
        both = self._group(amplitude, SUM_AXES)
        return (*(self._group(amplitude, (arm,), total=both) for arm in ARMS), carrier)

    def delays(self) -> tuple:
        """(signal delay, idler delay, carrier phase) of amplitude a
        relative to amplitude b."""
        (a_signal, a_idler, a_carrier), (b_signal, b_idler, b_carrier) = map(self.retardation, "ab")
        return a_signal - b_signal, a_idler - b_idler, a_carrier - b_carrier

    @property
    def required_compensation_fs(self):
        """Group pre-advance of b's pump component that equalizes the two
        amplitudes' symmetric envelope retardations: b's group delay without
        the compensation, less a's mean over the two arms."""
        lag_a = self._group("a", SUM_AXES) + 0.5 * (self._group("a", ("signal",)) + self._group("a", ("idler",)))
        return self._group("b", SUM_AXES, without="compensation") - lag_a

    def envelope_delay_fs(self):
        """Largest net group retardation between the amplitudes; the grid
        spacing must sample it.  It adds the plates' |group| (191 fs on the
        default) although the compensation cancels their mean in ``delays()``,
        and that margin is accuracy: sized by ``delays()`` alone, errors of
        495 to ~686 fs would stay on 128^2 and miss a 2048^2 stream by up to
        1.8e-9 (at 686 fs), where the grids chosen here stay within 2.4e-15."""
        group = lambda name: self.terms[name].group if name in self.terms else 0.0
        return (
            np.abs(self.required_compensation_fs + group("compensation"))
            + np.abs(group("signal_plate")) + np.abs(group("idler_plate"))
            + abs(group("signal_excess") - group("idler_excess"))
        )


def delay_budget(source: SourceConfig, knobs: PhaseKnobs | None = None,
                 compensation_error_fs=None) -> DelayBudget:
    """The delay budget at the knobs' plate tilts.  A compensation error (fs,
    a number or an array to broadcast over) replaces the compensator elements
    with an ideal pre-advance of the exact required compensation plus it.

    A process keeps the last ``CONFIG_MEMO_SIZE`` budgets without their
    compensation term (``_element_budget``), by all they read: the pump, the
    crystals, both knob plates, the scheme, the cross-dispersion toggle and
    the knobs' two tilts; the filters, the pump ratio and the pump knob do
    not enter.  It keeps as many compensator terms (``_compensator_term``),
    evaluated only without a compensation error.  A budget it derives takes
    its cut angles and knob-plate terms from their own memos, which no
    crystal thickness enters."""
    knobs = knobs or PhaseKnobs()
    budget = _element_budget(source.pump, source.crystals, source.signal_plate, source.idler_plate, source.scheme,
                             source.cross_dispersion_enabled, knobs.signal_tilt_deg, knobs.idler_tilt_deg)
    if compensation_error_fs is None:
        compensation = _compensator_term(source.compensator, source.crystals[1].pump_polarization(),
                                         source.pump.center_wavelength_nm)
    else:
        exact = budget.required_compensation_fs + compensation_error_fs
        compensation = DelayTerm("b", "pump", -exact, -exact)
    return replace(budget, terms=budget.terms | {"compensation": compensation})


@kept(CONFIG_MEMO_SIZE)
def _element_budget(pump: PumpPulse, crystals: tuple, signal_plate, idler_plate, scheme: str, cross_dispersion: bool,
                    signal_tilt_deg: float, idler_tilt_deg: float) -> DelayBudget:
    """The delay budget at the knob plates' tilts without the compensation
    term, its terms and carriers read-only mappings, as a process keeps it."""
    first, second = crystals
    specs = (phase_matching_spec(first, pump), phase_matching_spec(second, pump))
    signal_center, idler_center = specs[0].signal_center_angular_frequency, specs[0].idler_center_angular_frequency
    polarization = first.pair_polarization()
    terms = {"signal_plate": _kept_plate_term(signal_plate, "signal", first.signal_center_nm, polarization,
                                              signal_tilt_deg),
             "idler_plate": _kept_plate_term(idler_plate, "idler", first.idler_center_nm, polarization,
                                             idler_tilt_deg)}
    if scheme == "collinear":
        terms |= _crossing_terms(pump, crystals, cross_dispersion, crystal_cut_angle(second, pump))
    carriers = {"signal": signal_center, "idler": idler_center, "pair": signal_center + idler_center,
                "pump": pump.center_angular_frequency}
    return DelayBudget(terms=MappingProxyType({name: terms[name] for name in TERM_ORDER if name in terms}),
                       carriers=MappingProxyType(carriers), specs=specs)


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
    w = []
    for crystal in source.crystals:
        weight = by_pol[crystal.pump_polarization()]
        if crystal.pair_polarization() == "H":
            weight *= source.pump_amplitude_ratio
        w.append(weight)
    norm = math.hypot(*w)
    if norm == 0.0:
        raise ConfigError("pump weights vanish for both crystals")
    return w[0] / norm, w[1] / norm


def budget_terms(source: SourceConfig, budget: DelayBudget, grid_points: int,
                 grid_span_factor: float, weights: tuple | None = None) -> tuple:
    """(|A_a|^2, |A_b|^2, <A_a|A_b> per delay entry, grid points used) of the
    amplitudes the budget makes of both crystals' JSAs: the batch of one of
    ``budget_terms_batch``."""
    return budget_terms_batch([(source, budget)], grid_points, grid_span_factor, weights)[0]


def budget_terms_batch(evaluations, grid_points: int, grid_span_factor: float,
                       weights: tuple | None = None) -> list:
    """``budget_terms`` of each (source, budget) evaluation, in order.  The
    first ConfigError an evaluation raises is raised (``sweep`` finds the
    lowest-indexed value at fault).

    Every normalized overlap below ``SUPPORT_LEVEL`` is reported as 0.  An
    entry whose (signal, idler) delay lies outside the kernel's time support
    (``kernel_time_support``) has such an overlap and is not computed.  The
    others go straight to ``kernel_overlaps_batch``, on the grid
    ``make_grid`` sizes for the largest of each evaluation's delays (its
    own grid); it stacks the 1-D set-up of the evaluations whose grids share
    a point count, streams each two-crystal kernel in row blocks and
    collapses an arm whose delays are all equal to one row.  The carrier
    phases and pump weights (the source's, or ``weights`` (w_a, w_b) arrays)
    are applied to the overlaps.  The JSAs are normalized, so the squared
    norms are the squared weights."""
    scalars, streams = [], []
    for source, budget in evaluations:
        w_a, w_b = _pump_weights(source) if weights is None else weights
        signal_delay, idler_delay, carrier = budget.delays()
        signal_delays, idler_delays, envelope_delays = np.atleast_1d(signal_delay, idler_delay,
                                                                     budget.envelope_delay_fs())
        if not signal_delays.shape == idler_delays.shape == envelope_delays.shape:
            signal_delays, idler_delays, envelope_delays = np.broadcast_arrays(signal_delays, idler_delays,
                                                                               envelope_delays)
        (c_s, t_s), (c_i, t_i) = kernel_time_support(source.pump, *budget.specs, *source.filters)
        # A non-finite delay stays in, for ``make_grid`` to reject.
        inside = ~((np.abs(signal_delays - c_s) > t_s) | (np.abs(idler_delays - c_i) > t_i))
        inside |= ~np.isfinite(envelope_delays)
        grid = make_grid(source.pump, budget.specs[0], source.filters, grid_points, grid_span_factor,
                         float(np.max(envelope_delays[inside], initial=0.0)))
        scalars.append((w_a, w_b, carrier, inside, grid))
        streams.append((source.pump, *budget.specs, *source.filters, grid,
                        signal_delays[inside], idler_delays[inside]))
    results = []
    for (w_a, w_b, carrier, inside, grid), found in zip(scalars, kernel_overlaps_batch(streams)):
        overlaps = np.zeros(inside.shape, dtype=complex)
        overlaps[inside] = found
        overlaps[np.abs(overlaps) < SUPPORT_LEVEL] = 0.0
        cross = w_a * w_b * np.exp(1j * carrier) * overlaps
        results.append((w_a * w_a, w_b * w_b, cross, grid.points))
    return results


def build_amplitudes(
    source: SourceConfig,
    knobs: PhaseKnobs | None = None,
    grid: FrequencyGrid | None = None,
    grid_points: int = ScanSettings.grid_points,
    grid_span_factor: float = ScanSettings.grid_span_factor,
    compensation_error_fs: float | None = None,
) -> AmplitudePair:
    """Assemble the two interfering amplitudes for the configured scheme:
    the delay budget at ``knobs`` applied to both crystals' JSAs, on ``grid``
    or, when none is given, on the grid ``make_grid`` sizes for the budget's
    envelope delay.

    ``compensation_error_fs`` (0.0: exact compensation) replaces the
    compensator elements as in ``delay_budget``.
    """
    knobs = knobs or PhaseKnobs()
    budget = delay_budget(source, knobs, compensation_error_fs)
    spec_a, spec_b = budget.specs
    if grid is None:
        grid = make_grid(source.pump, spec_a, source.filters, grid_points, grid_span_factor,
                         float(np.max(budget.envelope_delay_fs())))
    jsa_a = build_jsa(source.pump, spec_a, *source.filters, grid)
    jsa_b = jsa_a if spec_b == spec_a else build_jsa(source.pump, spec_b, *source.filters, grid)
    w_a, w_b = _pump_weights(source)

    centers = (spec_a.signal_center_angular_frequency, spec_a.idler_center_angular_frequency)
    (a_signal, a_idler, a_carrier), (b_signal, b_idler, b_carrier) = map(budget.retardation, "ab")
    amp_a = biphoton.apply_envelope_phase(jsa_a, -a_signal, -a_idler, -a_carrier, *centers)
    amp_b = biphoton.apply_envelope_phase(jsa_b, -b_signal, -b_idler, -b_carrier, *centers)

    return AmplitudePair(
        amp_a=biphoton.scale(amp_a, w_a),
        amp_b=biphoton.scale(amp_b, w_b),
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


def scan(source: SourceConfig, knobs: PhaseKnobs, settings: ScanSettings, seed: int | None = None,
         compensation_error_fs: float | None = None) -> FringeScan:
    """Coincidence fringe of ``settings`` about the standing ``knobs``, from
    one ``delay_budget`` (scanned plate terms as arrays), grid and kernel
    stream.  Poisson noise draws from ``seed``.

    Sensible fits need 8 or more steps spanning >= 1.5 periods; shorter
    scans still produce data (the CLI writes the CSV first).
    """
    if settings.noise == "poisson" and (seed is None or seed < 0):
        raise ConfigError(f"poisson noise requires a seed >= 0, got {seed!r}")
    values = settings.values(source)
    scanned = SCAN_AXIS_FIELDS[settings.axis_kind]
    # A scanned field takes the scanned values; the others keep their standing scalar.
    pump_delta_x_nm = values if "pump_delta_x_nm" in scanned else knobs.pump_delta_x_nm
    theta2_deg = values if "theta2_deg" in scanned else settings.analyzer2_deg

    # Only the scanned plates change the delays: all their steps' terms come
    # from one dispersion pass per arm; an unscanned arm's delay is one
    # overlap row for every step.
    scanned_arms = [arm for arm in ARMS if f"{arm}_tilt_deg" in scanned]
    standing = delay_budget(source, knobs, compensation_error_fs)
    first = source.crystals[0]
    budget = replace(standing, terms=standing.terms | {
        f"{arm}_plate": _plate_term(getattr(source, f"{arm}_plate"), arm, getattr(first, f"{arm}_center_nm"),
                                    first.pair_polarization(), values)
        for arm in scanned_arms})
    norm_a, norm_b, cross, grid_points_used = budget_terms(source, budget, settings.grid_points,
                                                           settings.grid_span_factor)
    norms_sq = _h_and_v(source, norm_a, norm_b)
    rates = analyzer_rate(*norms_sq, cross * np.exp(1j * pump_knob_phase(source, pump_delta_x_nm)),
                          settings.analyzer1_deg, theta2_deg)
    # Rates are physically nonnegative; destructive-interference points can
    # round to tiny negative values.
    np.maximum(rates, 0.0, out=rates)

    # Tilt axes plot the mean effective path delay of the scanned plates,
    # relative to the standing tilts.
    plate_delays = [
        (budget.terms[f"{arm}_plate"].phase - standing.terms[f"{arm}_plate"].phase) * C_NM_PER_FS
        for arm in scanned_arms
    ]
    axis = np.mean(plate_delays, axis=0) if plate_delays else values.copy()

    if settings.noise == "poisson":
        rng = np.random.Generator(np.random.PCG64(seed))
        rates = rng.poisson(rates * settings.mean_counts) / settings.mean_counts

    return FringeScan(axis=axis, rates=rates, grid_points=grid_points_used)


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
# Values of a ``crystal_length`` or ``filter_fwhm`` sweep evaluated in one
# batch: ``spectral`` bounds each batch's stacked set-up, this bounds the
# sources, budgets and terms a sweep holds at once.
SWEEP_CHUNK = 64


def sweep(source: SourceConfig, knobs: PhaseKnobs, parameter: str, values,
          grid_points: int = ScanSettings.grid_points,
          grid_span_factor: float = ScanSettings.grid_span_factor) -> np.ndarray:
    """Visibility 2 |<A_a|A_b>| / (|A_a|^2 + |A_b|^2) at each of 1 to
    ``MAX_SCAN_STEPS`` values, compensated exactly plus the swept error if any.
    Only ``crystal_length`` and ``filter_fwhm`` (``None``: no filters) change
    the JSAs: each value is its own evaluation on its own grid, and the
    values of each ``SWEEP_CHUNK`` are one ``budget_terms_batch`` call, with
    one delay budget per value (a ``filter_fwhm`` sweep's values share the
    one ``delay_budget`` keeps, as no filter enters it).  The other sweeps
    are one evaluation.  A value's error names it; of several failing
    values, the lowest-indexed one's error is raised, the one it raises
    alone: when a chunk's batch raises, its values are evaluated again one
    at a time, in order."""
    if not 0 < len(values) <= MAX_SCAN_STEPS:
        raise ConfigError(f"a sweep takes 1 to {MAX_SCAN_STEPS} (MAX_SCAN_STEPS) values, got {len(values)}")
    if None in values and parameter != "filter_fwhm":
        raise ConfigError(f"{parameter} sweep values must be numbers")

    def visibilities(terms):
        norm_a, norm_b, cross, _ = terms
        return 2.0 * np.abs(cross) / (norm_a + norm_b)

    def context(value):
        return f"sweep {parameter} value {'none' if value is None else repr(value)}"

    if parameter == "compensation_error_fs":
        budget = delay_budget(source, knobs, np.asarray(values, dtype=float))
        return visibilities(budget_terms(source, budget, grid_points, grid_span_factor))
    if parameter == "pump_ratio":
        weights = [_in_context(context(v), lambda v=v: _pump_weights(SWEEP_SOURCES[parameter](source, v)))
                   for v in values]
        return visibilities(budget_terms(source, delay_budget(source, knobs, 0.0), grid_points, grid_span_factor,
                                         np.transpose(weights)))

    def evaluated(chunk):
        sources = [SWEEP_SOURCES[parameter](source, value) for value in chunk]
        return budget_terms_batch([(src, delay_budget(src, knobs, 0.0)) for src in sources], grid_points,
                                  grid_span_factor)

    found = []
    for start in range(0, len(values), SWEEP_CHUNK):
        chunk = values[start:start + SWEEP_CHUNK]
        try:
            found += map(visibilities, evaluated(chunk))
        except ConfigError:
            # A value reads the same bits alone as in a batch, and no memo
            # keeps an error: the first value that fails alone raises.
            for value in chunk:
                _in_context(context(value), evaluated, chunk=[value])
            raise
    return np.concatenate(found)


def prepare_bell(source: SourceConfig, target: str, knobs: PhaseKnobs, terms: tuple) -> PhaseKnobs:
    """Pump-knob setting that puts the space-time fringe at its maximum
    (phi+, and psi+ once a half-wave plate converts it) or minimum (phi-,
    psi-); the returned knobs are verified by rate evaluation by the
    caller's tests.  An infeasible source is an error naming ``target``.

    ``terms`` are (|A_a|^2, |A_b|^2, <A_a|A_b>) of the amplitudes at these
    knobs: ``budget_terms`` of their ``delay_budget``, on whatever grid and
    compensation the caller chose.  The pump knob does not change them, so
    one evaluation also serves the prepared knobs.
    """
    if target not in polarization.BELL_KINDS:
        raise ConfigError(f"target must be {'|'.join(polarization.BELL_KINDS)}, got {target!r}")
    visibility = coherence(*terms)
    if visibility <= 0.9:
        raise InfeasibleError(
            f"cannot prepare {target}: |overlap| = {visibility:.4f} <= 0.9 "
            "(compensation or balance insufficient)"
        )
    constant = np.angle(terms[2]) + pump_knob_phase(source, knobs.pump_delta_x_nm)
    wanted = 0.0 if target in ("phi+", "psi+") else math.pi
    delta_phase = (wanted - constant) % (2.0 * math.pi)
    delta_x = delta_phase * source.pump.center_wavelength_nm / (2.0 * math.pi)
    return replace(knobs, pump_delta_x_nm=knobs.pump_delta_x_nm + delta_x)


def effective_polarization_state(source: SourceConfig, knobs: PhaseKnobs, terms: tuple):
    """Pure-state polarization coefficients with the effective fringe phase,
    plus the separately reported coherence factor V = |overlap|.  ``terms``
    as in ``prepare_bell``."""
    na, nb, cross = terms
    w_a, w_b = math.sqrt(na), math.sqrt(nb)
    visibility = coherence(na, nb, cross)
    phase = pump_knob_phase(source, knobs.pump_delta_x_nm) + (np.angle(cross) if w_a * w_b > 0.0 else 0.0)

    # The fringe phase rides on the horizontally-polarized pair amplitude.
    w_h, w_v = _h_and_v(source, w_a, w_b)
    coeffs = np.array([w_h * np.exp(1j * phase), 0.0, 0.0, w_v], dtype=complex) / math.hypot(w_a, w_b)
    return polarization.PolarizationState(coefficients=coeffs), visibility


# --------------------------------------------------------------------------
# Configuration files

# The choices of each string field that a config section gives.
FIELD_CHOICES = {"axis_orientation": ORIENTATIONS, "shape": FILTER_SHAPES, "scheme": SCHEME_KINDS,
                 "axis_kind": SCAN_AXIS_KINDS, "noise": NOISE_KINDS}
# The keys of the ``scheme`` section and the SourceConfig fields they set.
SCHEME_KEYS = (("kind", "scheme"), ("cross_dispersion", "cross_dispersion_enabled"),
               ("pump_amplitude_ratio", "pump_amplitude_ratio"))
# The keys of a knob plate: its tilt is the knobs' ``<arm>_tilt_deg``.
PLATE_KEYS = tuple((key, key) for key in ("material", "thickness_mm", "axis_orientation"))
# The knob plate of an arm that the config leaves out or sets to null.
DEFAULT_PLATE = {"material": "quartz", "thickness_mm": 3.0}
ROOT_SECTIONS = ("pump", "crystals", "compensator", "filters", "scheme", "knobs", "scan")


def _prefixed(context: str, error: ConfigError) -> ConfigError:
    """``error`` prefixed with ``context``, the key path or the sweep value
    it came from, of the same type, unless its message already starts with
    that key path."""
    if str(error).startswith(f"{context}."):
        return error
    return type(error)(f"{context}: {error}")


def _in_context(context: str, make, **fields):
    """``make(**fields)``; a ConfigError that its own checks raise is raised
    again, ``_prefixed`` with ``context``."""
    try:
        return make(**fields)
    except ConfigError as exc:
        raise _prefixed(context, exc) from None


def _mapping(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {context!r} must be a mapping, got {value!r}")
    return value


def _check_keys(section: dict, context: str, known, note: str = "") -> None:
    """ConfigError naming the first key of the mapping ``section`` at key
    path ``context`` (empty: the config root) that is not in ``known``: a
    key that nothing would read."""
    for key in section:
        if key not in known:
            path, where = (f"{context}.{key}", repr(context)) if context else (key, "the config root")
            raise ConfigError(f"{path} is not a key of {where}; known: {', '.join(known)}{note}")


def _number(value, path: str, kind=float):
    """The finite number (``kind`` float or int) ``value`` at the key path
    ``path``; anything else is a ConfigError naming the path."""
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    if kind is int and not number.is_integer():
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return kind(number)


def _choice(value, path: str, choices) -> str:
    """``value`` at the key path ``path``, one of the strings ``choices``;
    anything else (another string, a number, a list, a mapping) is a
    ConfigError naming the path."""
    if not (isinstance(value, str) and value in choices):
        raise ConfigError(f"{path} must be one of {'|'.join(choices)}, got {value!r}")
    return value


@cache
def _layout(cls, keys=None) -> tuple:
    """(key, field name, type, required) of each field of the dataclass
    ``cls`` under its own name, or of the (key, field name) pairs ``keys``."""
    declared = {f.name: f for f in fields(cls)}
    return tuple((key, name, declared[name].type, declared[name].default is MISSING)
                 for key, name in keys or zip(declared, declared))


@cache
def _keys(cls, keys=None) -> tuple:
    """The config keys of ``_layout(cls, keys)``, in field order."""
    return tuple(key for key, *_ in _layout(cls, keys))


def _read(cls, section, context: str, keys=None, make=None, others=(), note=""):
    """``make`` (default: ``cls``) of the fields of the dataclass ``cls``
    that the config mapping ``section`` at key path ``context`` gives, its
    own checks prefixed with that path.  Each value is parsed by its field's
    type: a number through ``_number``, a string through ``_choice`` of its
    ``FIELD_CHOICES``, a material by name, a flag as true or false, and an
    optional number left unset by null.  An absent key is left out, so the
    field takes its class default; an absent required key is a ConfigError.
    ``keys`` pairs the section's keys with the fields they set, as in
    ``_layout``.  Any other key is a ConfigError that lists the known keys
    and ends with ``note``, unless it is one of ``others``, which the caller
    reads."""
    section = _mapping(section, context)
    _check_keys(section, context, _keys(cls, keys) + others, note)
    given = {}
    for key, name, kind, required in _layout(cls, keys):
        if key not in section:
            if required:
                raise ConfigError(f"config section {context!r} is missing key {key!r}")
            continue
        value, path = section[key], f"{context}.{key}"
        if kind == "str":
            given[name] = _choice(value, path, FIELD_CHOICES[name])
        elif kind == "Material":
            given[name] = get_material(_choice(value, path, material_names()))
        elif kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{path} must be true or false, got {value!r}")
            given[name] = value
        elif value is not None or kind != "float | None":
            given[name] = _number(value, path, int if kind == "int" else float)
    return _in_context(context, make or cls, **given)


def _filter(entry, context: str) -> SpectralFilter:
    """The filter at key path ``context``; one of shape none reads no other
    key, but each of its keys must be a filter key."""
    if _mapping(entry, context).get("shape") != NO_FILTER.shape:
        return _read(SpectralFilter, entry, context)
    _check_keys(entry, context, _keys(SpectralFilter))
    return NO_FILTER


def _pair(data: dict, section: str) -> list:
    entries = data[section]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ConfigError(f"config section {section!r} must list exactly two {section}")
    return entries


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a parsed YAML mapping into an ExperimentConfig.  Every
    section is read by ``_read`` of the class it describes, so each default
    and each choice list is its class's; the sections are read in the order
    pump, crystals, filters, compensator, scheme, knob plates, knobs, scan.
    A key that nothing reads, in a section or at the root, is an error."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for section in ("pump", "crystals", "filters", "scheme"):
        if section not in data:
            raise ConfigError(f"config is missing the {section!r} section")

    pump = _read(PumpPulse, data["pump"], "pump")
    crystals = tuple(_read(CrystalConfig, entry, f"crystals[{k}]")
                     for k, entry in enumerate(_pair(data, "crystals")))
    filters = tuple(_filter(entry, f"filters[{k}]") for k, entry in enumerate(_pair(data, "filters")))
    raw_compensator = data.get("compensator") or []
    if not isinstance(raw_compensator, list):
        raise ConfigError(f"config section 'compensator' must be a list, got {raw_compensator!r}")
    compensator = tuple(_read(BirefringentElement, entry, f"compensator[{k}]")
                        for k, entry in enumerate(raw_compensator))
    scheme = _read(SourceConfig, data["scheme"], "scheme", SCHEME_KEYS, make=dict)
    knobs = _mapping(data.get("knobs") or {}, "knobs")
    plates = {f"{arm}_plate": _read(BirefringentElement, DEFAULT_PLATE if knobs.get(f"{arm}_plate") is None
                                    else knobs[f"{arm}_plate"], f"knobs.{arm}_plate", PLATE_KEYS,
                                    note=f"; its tilt is knobs.{arm}_tilt_deg")
              for arm in ARMS}
    source = SourceConfig(pump=pump, crystals=crystals, compensator=compensator, filters=filters,
                          **plates, **scheme)
    config = ExperimentConfig(source=source, knobs=_read(PhaseKnobs, knobs, "knobs", others=tuple(plates)),
                              scan=_read(ScanSettings, data.get("scan") or {}, "scan"))
    # Last, so that an error inside a section is reported before a stray root key.
    _check_keys(data, "", ROOT_SECTIONS)
    return config


def load_config(path) -> ExperimentConfig:
    """Load and validate a scenario config file (YAML).  The file is read on
    every call; a process keeps the last ``CONFIG_MEMO_SIZE`` parsed configs
    by text (frozen dataclasses of numbers, strings, tuples and shared
    ``Material`` records, so every caller can hold the same one), and an
    invalid text raises again on every call."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # With line ends as a text-mode read gives them.
        text = data.decode().replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    try:
        return _parse_text(text)
    except yaml.YAMLError as exc:
        # YAML names the positions of a parsed string "<unicode string>".
        detail = str(exc).replace('"<unicode string>"', f'"{path}"')
        raise ConfigError(f"config {path} is not valid YAML: {detail}") from exc


@kept(CONFIG_MEMO_SIZE)
def _parse_text(text: str) -> ExperimentConfig:
    return parse_config(yaml.load(text, Loader=YAML_LOADER))


@cache
def default_config_path():
    """Path of the packaged default scenario file, resolved once per process."""
    from importlib import resources

    return resources.files("bellsim.data").joinpath("default.yaml")
