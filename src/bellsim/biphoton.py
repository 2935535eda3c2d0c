"""Two-photon amplitudes on a frequency grid and their interference.

An amplitude is a complex array A[j, k] over (signal, idler) frequencies.
Delays act as pure phases: a pair delay multiplies by exp(i (w_s + w_i) T),
a single-arm delay by exp(i w_arm T), with w the absolute frequencies, so
norms are preserved exactly.  The coincidence rate of a superposition is
normalized so that equal, fully overlapping amplitudes trace 1 + cos(dphi):
mean 1, peak 2.

All interference is evaluated in the frequency domain; the time-domain form
of the coincidence integral exists only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

NORM_TOLERANCE = 1.0e-9


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex pair amplitude sampled on a FrequencyGrid.

    Treated as immutable: every operation returns a new instance.  The
    metadata dict records provenance (crystal label, applied delays, model
    flags); ``unnormalized: True`` marks amplitudes deliberately scaled away
    from unit norm (e.g. pump-ratio weighting).
    """

    grid: object
    values: np.ndarray
    metadata: dict

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"amplitude shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def norm_squared(self) -> float:
        return float(np.vdot(self.values, self.values).real) * self.grid.cell_area

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def _with_values(self, values: np.ndarray, note) -> "JointSpectralAmplitude":
        meta = dict(self.metadata)
        meta["applied_delays"] = tuple(meta.get("applied_delays", ())) + (note,)
        return JointSpectralAmplitude(grid=self.grid, values=values, metadata=meta)


@dataclass(frozen=True)
class AmplitudePair:
    """The two crystal amplitudes plus the scanned relative carrier phase."""

    amp_a: JointSpectralAmplitude
    amp_b: JointSpectralAmplitude
    relative_phase_rad: float = 0.0

    def __post_init__(self):
        if not self.amp_a.grid.matches(self.amp_b.grid):
            raise ConfigError("amplitude pair must share one frequency grid")


@dataclass(frozen=True)
class CoincidenceResult:
    rate: float
    visibility_bound: float


def apply_pair_delay(jsa: JointSpectralAmplitude, delay_fs: float) -> JointSpectralAmplitude:
    """Common delay of both photons: values *= exp(i (w_s + w_i) T)."""
    if delay_fs == 0.0:
        return jsa
    phase_s = np.exp(1j * jsa.grid.signal_axis * delay_fs)
    phase_i = np.exp(1j * jsa.grid.idler_axis * delay_fs)
    return jsa._with_values(jsa.values * phase_s[:, None] * phase_i[None, :], ("pair", delay_fs))


def apply_single_arm_delay(jsa: JointSpectralAmplitude, arm: str, delay_fs: float) -> JointSpectralAmplitude:
    """Delay in one output arm only: exp(i w_s T) or exp(i w_i T)."""
    if arm not in ("signal", "idler"):
        raise ConfigError(f"arm must be signal|idler, got {arm!r}")
    if delay_fs == 0.0:
        return jsa
    if arm == "signal":
        phase = np.exp(1j * jsa.grid.signal_axis * delay_fs)[:, None]
    else:
        phase = np.exp(1j * jsa.grid.idler_axis * delay_fs)[None, :]
    return jsa._with_values(jsa.values * phase, (arm, delay_fs))


def apply_envelope_phase(
    jsa: JointSpectralAmplitude,
    signal_group_delay_fs: float = 0.0,
    idler_group_delay_fs: float = 0.0,
    carrier_phase_rad: float = 0.0,
    signal_center: float = 0.0,
    idler_center: float = 0.0,
    note: str = "element",
) -> JointSpectralAmplitude:
    """First-order dispersive element: carrier phase at the centers plus
    group delays acting on the detunings only.

    Equivalent to exp(i [phi0 + T_s (w_s - W_s) + T_i (w_i - W_i)]); with
    T_s = T_i = T and phi0 = (W_s + W_i) T this reduces to apply_pair_delay.
    """
    phase_s = np.exp(1j * signal_group_delay_fs * (jsa.grid.signal_axis - signal_center))
    phase_i = np.exp(1j * idler_group_delay_fs * (jsa.grid.idler_axis - idler_center))
    values = jsa.values * (np.exp(1j * carrier_phase_rad) * phase_s[:, None] * phase_i[None, :])
    return jsa._with_values(
        values, (note, signal_group_delay_fs, idler_group_delay_fs, carrier_phase_rad)
    )


def scale(jsa: JointSpectralAmplitude, factor: float) -> JointSpectralAmplitude:
    """Scale the amplitude (marks the result unnormalized unless |factor|=1)."""
    out = jsa._with_values(jsa.values * factor, ("scale", factor))
    if not math.isclose(abs(factor), 1.0, rel_tol=1.0e-12):
        out.metadata["unnormalized"] = True
    return out


def overlap(a: JointSpectralAmplitude, b: JointSpectralAmplitude) -> complex:
    """Discrete inner product sum(conj(a) b) dw_s dw_i on a shared grid."""
    if not a.grid.matches(b.grid):
        raise ConfigError("overlap requires amplitudes on the same grid")
    return complex(np.vdot(a.values, b.values) * a.grid.cell_area)


def delayed_overlaps(a: JointSpectralAmplitude, b: JointSpectralAmplitude, signal_delays_fs,
                     idler_delays_fs, signal_center: float, idler_center: float) -> np.ndarray:
    """<a|b> with a retarded relative to b by each (signal, idler) group
    delay pair as in apply_envelope_phase: all K pairs at once as
    ((E_s @ P) * E_i).sum(1), with P = conj(a) b and E = exp(i T (w - W))."""
    if not a.grid.matches(b.grid):
        raise ConfigError("overlap requires amplitudes on the same grid")

    def phase_rows(delays_fs, detunings):
        rows = np.multiply.outer(delays_fs, 1j * detunings)
        return np.exp(rows, out=rows)

    kernel = np.conj(a.values)
    kernel *= b.values
    rows = phase_rows(signal_delays_fs, a.grid.signal_axis - signal_center) @ kernel
    rows *= phase_rows(idler_delays_fs, a.grid.idler_axis - idler_center)
    return rows.sum(axis=1) * a.grid.cell_area


def normalized_overlap_magnitude(a: JointSpectralAmplitude, b: JointSpectralAmplitude) -> float:
    """|<a|b>| / (|a| |b|); 0 when either amplitude has zero norm."""
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(abs(overlap(a, b)) / (na * nb), 1.0)


def coincidence_rate(pair: AmplitudePair) -> CoincidenceResult:
    """Normalized rate of |A_a + e^{i dphi} A_b|^2.

    rate = int |A_a + e^{i dphi} A_b|^2 / (int |A_a|^2 + int |A_b|^2), so
    equal fully-overlapping amplitudes give 1 + cos(dphi): peak 2, mean 1.
    """
    a, b = pair.amp_a, pair.amp_b
    na_sq, nb_sq = a.norm_squared(), b.norm_squared()
    denom = na_sq + nb_sq
    if denom == 0.0:
        raise ConfigError("both amplitudes have zero norm")
    cross = overlap(a, b) * np.exp(1j * pair.relative_phase_rad)
    rate = (na_sq + nb_sq + 2.0 * cross.real) / denom
    return CoincidenceResult(
        rate=max(rate, 0.0),
        visibility_bound=normalized_overlap_magnitude(a, b),
    )


def interference_terms(pair: AmplitudePair):
    """(|A_a|^2, |A_b|^2, <A_a|A_b>) for callers scanning phases analytically."""
    return pair.amp_a.norm_squared(), pair.amp_b.norm_squared(), overlap(pair.amp_a, pair.amp_b)
