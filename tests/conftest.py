"""Shared fixtures and independent numerical oracles for the test suite."""

import numpy as np
import pytest

from bellsim import biphoton, memo, scenario
from bellsim.biphoton import AmplitudePair
from bellsim.spectral import build_jsa, make_grid


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with the engine's set-up memos empty, as a fresh
    process does, so a test that counts a command's work sees all of it."""
    memo.clear_memos()


@pytest.fixture(scope="session")
def default_config():
    """The packaged default scenario (session-scoped; treat as read-only)."""
    return scenario.load_config(scenario.default_config_path())


def evaluated_terms(source, knobs, compensation_error_fs=None,
                    grid_points=scenario.ScanSettings.grid_points,
                    grid_span_factor=scenario.ScanSettings.grid_span_factor) -> tuple:
    """(|A_a|^2, |A_b|^2, <A_a|A_b>) at these knobs, as ``bellsim prepare``
    evaluates them: one ``delay_budget`` and its ``budget_terms``.  The pump
    knob only multiplies the overlap by exp(i pump_knob_phase) and is not
    included."""
    budget = scenario.delay_budget(source, knobs, compensation_error_fs)
    norm_a, norm_b, cross, _ = scenario.budget_terms(source, budget, grid_points, grid_span_factor)
    return norm_a, norm_b, complex(cross[0])


def rate_45(pair: AmplitudePair) -> float:
    """The pair's coincidence rate behind 45/45 analyzers, as ``scan``
    computes it: ``scenario.analyzer_rate`` of its ``interference_terms``,
    with the pair's relative phase on the overlap.  At 45/45 both amplitudes
    weigh the same, so which one is H-polarized does not matter; equal, fully
    overlapping amplitudes trace 1 + cos(dphi)."""
    norm_a, norm_b, cross = biphoton.interference_terms(pair)
    return scenario.analyzer_rate(norm_a, norm_b, cross * np.exp(1j * pair.relative_phase_rad), 45.0, 45.0)


def time_domain_rate(pair: AmplitudePair) -> float:
    """Coincidence rate evaluated in the time domain.

    Transforms both amplitudes to (t_s, t_i) with a 2-D DFT and integrates
    |a(t) + e^{i dphi} b(t)|^2 numerically, normalized the same way as the
    frequency-domain rate (``rate_45``).  Independent of the engine's
    overlap algebra.
    """
    fa = np.fft.ifft2(pair.amp_a.values)
    fb = np.fft.ifft2(pair.amp_b.values)
    combined = np.abs(fa + np.exp(1j * pair.relative_phase_rad) * fb) ** 2
    numerator = float(np.sum(combined))
    denominator = float(np.sum(np.abs(fa) ** 2) + np.sum(np.abs(fb) ** 2))
    return numerator / denominator


def kernel_time_profile(pulse, spec_a, spec_b, f_s, f_i, points=1024, span_factor=5.0) -> tuple:
    """(delays, |overlap|): |<J_a retarded by (t_s, t_i)|J_b>| on the delay
    lattice of a 2-D FFT, delays[j] fs on the signal axis and delays[k] on
    the idler axis, for the normalized JSAs ``build_jsa`` samples on a
    points^2 grid.  Independent of the streamed kernel and of its support
    bound; its window is 2 pi / spacing, and its noise floor is near 1e-14
    of the peak."""
    grid = make_grid(pulse, spec_a, filters=(f_s, f_i), points=points, span_factor=span_factor)
    kernel = np.conj(build_jsa(pulse, spec_a, f_s, f_i, grid).values)
    kernel *= build_jsa(pulse, spec_b, f_s, f_i, grid).values
    magnitude = np.abs(np.fft.ifft2(kernel)) * (points * points * grid.cell_area)
    return 2.0 * np.pi * np.fft.fftfreq(points, grid.spacing), magnitude
