import itertools
import math
import re
import warnings

import numpy as np
import pytest

from bellsim import fitting
from bellsim.errors import DataError, InsufficientDataError
from bellsim.fitting import fit_fringe, raw_visibility
from test_fit_battery import battery_inputs


def synth(x, offset, visibility, period, phase):
    return offset * (1.0 + visibility * np.cos(2.0 * np.pi * x / period + phase))


class TestRoundTrip:
    def test_noiseless_random_parameters(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            offset = rng.uniform(0.5, 50.0)
            visibility = rng.uniform(0.05, 1.0)
            period = rng.uniform(10.0, 900.0)
            phase = rng.uniform(-math.pi, math.pi)
            n_periods = rng.uniform(2.0, 6.0)
            x = np.linspace(0.0, n_periods * period, 160)
            fit = fit_fringe((x, synth(x, offset, visibility, period, phase)))
            assert fit.converged
            assert fit.offset == pytest.approx(offset, rel=1e-6)
            assert fit.visibility == pytest.approx(visibility, rel=1e-6)
            assert fit.period == pytest.approx(period, rel=1e-6)
            # Compare phases on the circle.
            assert math.cos(fit.phase_rad - phase) == pytest.approx(1.0, abs=1e-10)

    def test_typical_contrast_value(self):
        x = np.linspace(-800.0, 800.0, 129)
        fit = fit_fringe((x, synth(x, 1.0, 0.92, 400.0, 0.3)))
        assert fit.visibility == pytest.approx(0.92, abs=1e-6)
        assert fit.period == pytest.approx(400.0, rel=1e-6)

    def test_poisson_noise_recovery(self):
        # Smaller companion of the acceptance Monte Carlo.
        x = np.linspace(0.0, 1600.0, 129)
        clean = synth(x, 1000.0, 0.92, 400.0, 1.1)
        hits = 0
        for seed in range(20):
            rng = np.random.Generator(np.random.PCG64(seed))
            counts = rng.poisson(clean).astype(float)
            fit = fit_fringe((x, counts), weights=counts)
            if abs(fit.visibility - 0.92) <= 0.01:
                hits += 1
        assert hits >= 18


class TestStopRule:
    # A fringe phase of 0 or +-pi/2 makes the sin or cos coefficient exactly
    # 0; the relative-change test must not wait for a zero to settle.
    @pytest.mark.parametrize("phase", [-math.pi / 2, math.pi / 2, 0.0])
    @pytest.mark.parametrize("points, x_range", [
        (129, (25.457, 392.553)),
        (65, (25.457, 392.553)),
        (97, (0.0, 360.0)),
    ])
    def test_zero_coefficient_converges_in_few_iterations(self, phase, points, x_range):
        x = np.linspace(*x_range, points)
        fit = fit_fringe((x, synth(x, 1.0, 1.0, 180.0, phase)))
        assert fit.converged
        assert fit.iterations <= 10
        assert fit.period == pytest.approx(180.0, rel=1e-9)
        assert fit.visibility == pytest.approx(1.0, abs=1e-9)
        assert math.cos(fit.phase_rad - phase) == pytest.approx(1.0, abs=1e-12)


class TestDegenerateAndErrors:
    def test_constant_data(self):
        x = np.linspace(0.0, 10.0, 32)
        fit = fit_fringe((x, np.full_like(x, 3.7)))
        assert fit.visibility < 1e-9
        assert fit.converged
        assert fit.period_degenerate

    def test_too_few_points(self):
        x = np.linspace(0.0, 10.0, 4)
        with pytest.raises(InsufficientDataError):
            fit_fringe((x, np.cos(x)))

    def test_short_span(self):
        period = 100.0
        x = np.linspace(0.0, period, 64)  # one period only
        with pytest.raises(InsufficientDataError):
            fit_fringe((x, synth(x, 1.0, 0.5, period, 0.0)))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            fit_fringe((np.arange(10.0), np.arange(9.0)))

    @pytest.mark.parametrize("half_span", [1e160, 1e300])
    def test_overflowing_gram_matrix_names_the_axis(self, half_span):
        # The frequency column of the Jacobian grows with the axis: its
        # squares overflow a float, which is an error, not a numpy warning.
        x = np.linspace(-half_span, half_span, 129)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"Gram matrix overflows a float on a scan axis "
                                                          f"reaching |x| = {half_span:g};")):
                fit_fringe((x, synth(x, 1.0, 0.9, half_span / 3.0, 0.0)))


class TestTinyAxes:
    # The damping adds a floor of 1e-30 to each Gram diagonal entry, but
    # never more than the entry: a tiny axis is damped as a unit axis is.
    @pytest.mark.parametrize("exponent", [0, -20, -50, -100, -150, -160])
    def test_exact_fringe_is_recovered(self, exponent):
        half_span = 10.0 ** exponent
        x = np.linspace(-half_span, half_span, 129)
        fit = fit_fringe((x, synth(x, 1.0, 0.9, half_span / 3.0, 0.0)))
        assert fit.converged
        assert fit.iterations == 4
        assert fit.visibility == pytest.approx(0.9, abs=1e-12)
        assert fit.period == pytest.approx(half_span / 3.0, rel=1e-12)

    @pytest.mark.parametrize("half_span", [1e-170, 1e-300])
    def test_underflowing_gram_matrix_names_the_span(self, half_span):
        # The frequency column is not zero, but its squares underflow to 0.
        x = np.linspace(-half_span, half_span, 129)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(f"Gram matrix underflows a float on a scan axis "
                                                          f"spanning {2.0 * half_span:g}; rescale the axis")):
                fit_fringe((x, synth(x, 1.0, 0.9, half_span / 3.0, 0.0)))


class TestSolve:
    def test_singular_solve_retries_at_ten_times_the_damping(self, monkeypatch):
        matrices = []
        solve = fitting._solve

        def fail_once(matrix, rhs):
            matrices.append(matrix.copy())
            if len(matrices) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(matrix, rhs)

        monkeypatch.setattr(fitting, "_solve", fail_once)
        x = np.linspace(-800.0, 800.0, 129)
        fit = fit_fringe((x, synth(x, 1.0, 0.92, 400.0, 0.3)))
        # Both hold J^T J off the diagonal and h (1 + lam) on it: lam is
        # 1e-3, then 1e-2.
        first, second = matrices[:2]
        assert (first - np.diag(np.diag(first)) == second - np.diag(np.diag(second))).all()
        assert np.diag(second) / np.diag(first) == pytest.approx(np.full(4, 1.01 / 1.001), rel=1e-12)
        assert fit.converged
        assert fit.visibility == pytest.approx(0.92, abs=1e-9)

    def test_solve_equals_numpy_on_damped_battery_systems(self, monkeypatch):
        systems = []
        solve = fitting._solve

        def record(matrix, rhs):
            systems.append((matrix.copy(), rhs.copy()))
            return solve(matrix, rhs)

        monkeypatch.setattr(fitting, "_solve", record)
        for x, y, weights in itertools.islice(battery_inputs(), 20):
            fit_fringe((x, y), weights=weights)
        assert len(systems) > 100
        for matrix, rhs in systems:
            assert solve(matrix, rhs).tobytes() == np.linalg.solve(matrix, rhs).tobytes()

    def test_singular_matrix_is_linalg_error(self):
        matrix = np.eye(4)
        matrix[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
        for solve in (np.linalg.solve, fitting._solve):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                solve(matrix, np.ones(4))


class TestInvariances:
    def test_scale_equivariance(self):
        x = np.linspace(0.0, 1200.0, 97)
        y = synth(x, 2.0, 0.6, 300.0, -0.4)
        base = fit_fringe((x, y))
        scaled = fit_fringe((x, 13.0 * y))
        assert scaled.offset == pytest.approx(13.0 * base.offset, rel=1e-9)
        assert scaled.visibility == pytest.approx(base.visibility, abs=1e-9)
        assert scaled.period == pytest.approx(base.period, rel=1e-9)
        assert scaled.phase_rad == pytest.approx(base.phase_rad, abs=1e-9)

    def test_shift_by_one_period(self):
        period = 250.0
        x = np.linspace(0.0, 4.0 * period, 120)
        y = synth(x, 1.5, 0.8, period, 0.9)
        base = fit_fringe((x, y))
        shifted = fit_fringe((x + period, y))
        assert shifted.period == pytest.approx(base.period, rel=1e-9)
        assert shifted.visibility == pytest.approx(base.visibility, abs=1e-9)
        assert shifted.phase_rad == pytest.approx(base.phase_rad, abs=1e-9)

    def test_phase_reported_in_half_open_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = np.linspace(0.0, 1000.0, 90)
            fit = fit_fringe((x, synth(x, 1.0, 0.7, 240.0, rng.uniform(-9, 9))))
            assert -math.pi < fit.phase_rad <= math.pi

    def test_nonuniform_axis(self):
        # Tilt-style axes are monotone but unevenly spaced.
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 1500.0, 140))
        y = synth(x, 1.0, 0.45, 300.0, 0.2)
        fit = fit_fringe((x, y))
        assert fit.period == pytest.approx(300.0, rel=1e-6)
        assert fit.visibility == pytest.approx(0.45, rel=1e-6)

    def test_ambiguous_spectrum_runs_both_starts(self):
        # Two well-separated tones of comparable power: the fit must return
        # the lower-residual branch instead of trusting one bin.
        x = np.linspace(0.0, 1000.0, 256)
        y = 10.0 + np.cos(2 * np.pi * x / 125.0) + 0.97 * np.cos(2 * np.pi * x / 40.0)
        fit = fit_fringe((x, y))
        assert fit.converged
        assert min(abs(fit.period - 125.0), abs(fit.period - 40.0)) < 1.0


class TestRawVisibility:
    def test_matches_definition(self):
        x = np.linspace(0.0, 800.0, 201)
        y = synth(x, 1.0, 0.92, 400.0, 0.0)
        assert raw_visibility(y) == pytest.approx(0.92, abs=1e-4)

    def test_zero_for_flat(self):
        assert raw_visibility(np.full(16, 2.0)) == 0.0
