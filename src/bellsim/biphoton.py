"""Two-photon amplitudes on a frequency grid and their interference terms.

An amplitude is a complex array A[j, k] over (signal, idler) frequencies.
Every delay acts as a pure phase (``apply_envelope_phase``), so norms are
preserved exactly: with zero centers, group delays T_s = T_i = T are a
common delay of both photons, exp(i (w_s + w_i) T), and (T, 0) delays the
signal arm alone.  A pair's interference terms (|A_a|^2, |A_b|^2,
<A_a|A_b>) are what ``scenario.analyzer_rate`` turns into a coincidence
rate and ``coherence`` into the normalized overlap; the time-domain form of
the coincidence integral exists only as a test oracle.

Scans, sweeps and ``prepare`` never build these 2-D amplitudes: they take
their overlaps from ``spectral.kernel_overlaps``, which streams the real
two-crystal kernel in row blocks.  The amplitudes serve
``scenario.build_amplitudes`` and the tests that check the stream against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex pair amplitude sampled on a FrequencyGrid.

    Treated as immutable: every operation returns a new instance.
    """

    grid: object
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"amplitude shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def norm_squared(self) -> float:
        return float(np.vdot(self.values, self.values).real) * self.grid.cell_area


@dataclass(frozen=True)
class AmplitudePair:
    """The two crystal amplitudes plus the scanned relative carrier phase."""

    amp_a: JointSpectralAmplitude
    amp_b: JointSpectralAmplitude
    relative_phase_rad: float = 0.0

    def __post_init__(self):
        if self.amp_a.grid != self.amp_b.grid:
            raise ConfigError("amplitude pair must share one frequency grid")


def apply_envelope_phase(
    jsa: JointSpectralAmplitude,
    signal_group_delay_fs: float = 0.0,
    idler_group_delay_fs: float = 0.0,
    carrier_phase_rad: float = 0.0,
    signal_center: float = 0.0,
    idler_center: float = 0.0,
) -> JointSpectralAmplitude:
    """First-order dispersive element: carrier phase at the centers plus
    group delays acting on the detunings only.

    Equivalent to exp(i [phi0 + T_s (w_s - W_s) + T_i (w_i - W_i)]); with
    zero centers and carrier it is a pure delay of each arm.  The detunings
    w - W are the grid's uniform ones (``FrequencyGrid.detuning``), as in
    ``spectral.kernel_overlaps``.
    """
    phase_s = np.exp(1j * signal_group_delay_fs * jsa.grid.detuning(0, signal_center))
    phase_i = np.exp(1j * idler_group_delay_fs * jsa.grid.detuning(1, idler_center))
    values = jsa.values * (np.exp(1j * carrier_phase_rad) * phase_s[:, None] * phase_i[None, :])
    return JointSpectralAmplitude(jsa.grid, values)


def scale(jsa: JointSpectralAmplitude, factor: float) -> JointSpectralAmplitude:
    """The amplitude times ``factor``."""
    return JointSpectralAmplitude(jsa.grid, jsa.values * factor)


def overlap(a: JointSpectralAmplitude, b: JointSpectralAmplitude) -> complex:
    """Discrete inner product sum(conj(a) b) dw_s dw_i on a shared grid."""
    if a.grid != b.grid:
        raise ConfigError("overlap requires amplitudes on the same grid")
    return complex(np.vdot(a.values, b.values) * a.grid.cell_area)


def coherence(norm_a_sq: float, norm_b_sq: float, cross: complex) -> float:
    """|<a|b>| / (|a| |b|) from the interference terms (|a|^2, |b|^2,
    <a|b>), at most 1; 0 when either amplitude vanishes."""
    norms = math.sqrt(norm_a_sq) * math.sqrt(norm_b_sq)
    return 0.0 if norms == 0.0 else min(abs(cross) / norms, 1.0)


def normalized_overlap_magnitude(a: JointSpectralAmplitude, b: JointSpectralAmplitude) -> float:
    """``coherence`` of two amplitudes on a shared grid."""
    return coherence(a.norm_squared(), b.norm_squared(), overlap(a, b))


def interference_terms(pair: AmplitudePair):
    """(|A_a|^2, |A_b|^2, <A_a|A_b>) for callers scanning phases analytically."""
    return pair.amp_a.norm_squared(), pair.amp_b.norm_squared(), overlap(pair.amp_a, pair.amp_b)
