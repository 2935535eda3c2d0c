import math

import numpy as np
import pytest

from bellsim.errors import ConfigError
from bellsim.polarization import (
    PHI_TO_PSI_HWP_DEG,
    AnalyzerSetting,
    PolarizationState,
    fidelity,
    half_wave_plate,
    make_state,
    project,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


def brute_force_projection(state, theta1_deg, theta2_deg):
    """Direct 4-vector contraction with explicitly tabulated analyzer kets."""
    t1, t2 = math.radians(theta1_deg), math.radians(theta2_deg)
    # <theta| on the ordered (HH, HV, VH, VV) basis.
    bra = np.array(
        [
            math.sin(t1) * math.sin(t2),
            math.sin(t1) * math.cos(t2),
            math.cos(t1) * math.sin(t2),
            math.cos(t1) * math.cos(t2),
        ]
    )
    return abs(np.dot(bra, state.coefficients)) ** 2


class TestMakeState:
    def test_phi_plus(self):
        state = make_state("phi+")
        assert np.allclose(state.coefficients, [SQRT_HALF, 0, 0, SQRT_HALF])

    def test_phi_minus_equals_phi_plus_with_pi(self):
        direct = make_state("phi-")
        phased = make_state("phi+", phase_rad=math.pi)
        assert fidelity(phased, direct) == pytest.approx(1.0, abs=1e-12)

    def test_psi_states(self):
        plus = make_state("psi+")
        assert np.allclose(plus.coefficients, [0, SQRT_HALF, SQRT_HALF, 0])
        minus = make_state("psi-")
        assert np.allclose(minus.coefficients, [0, SQRT_HALF, -SQRT_HALF, 0])

    def test_bad_inputs(self):
        for kind in ("chi+", "custom", "Φ+", "PHI+"):
            with pytest.raises(ConfigError):
                make_state(kind)

    def test_normalization_enforced(self):
        with pytest.raises(ConfigError):
            PolarizationState(coefficients=np.array([1.0, 1.0, 0.0, 0.0]))


class TestProject:
    def test_phi_plus_45_45(self):
        p = project(make_state("phi+"), AnalyzerSetting(45.0, 45.0))
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_phi_plus_crossed(self):
        p = project(make_state("phi+"), AnalyzerSetting(45.0, 135.0))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_phi_minus_law_against_brute_force(self):
        rng = np.random.default_rng(7)
        state = make_state("phi-")
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 360.0, size=2)
            p = project(state, AnalyzerSetting(t1, t2))
            assert p == pytest.approx(brute_force_projection(state, t1, t2), abs=1e-12)
            law = 0.5 * math.cos(math.radians(t1) + math.radians(t2)) ** 2
            assert p == pytest.approx(law, abs=1e-12)

    def test_phi_plus_law(self):
        rng = np.random.default_rng(11)
        state = make_state("phi+")
        for _ in range(200):
            t1, t2 = rng.uniform(0.0, 360.0, size=2)
            law = 0.5 * math.cos(math.radians(t1) - math.radians(t2)) ** 2
            assert project(state, AnalyzerSetting(t1, t2)) == pytest.approx(law, abs=1e-12)

    def test_basis_independence_of_phi_plus(self):
        rng = np.random.default_rng(13)
        state = make_state("phi+")
        for _ in range(100):
            t1, t2, delta = rng.uniform(0.0, 180.0, size=3)
            base = project(state, AnalyzerSetting(t1, t2))
            rotated = project(state, AnalyzerSetting(t1 + delta, t2 + delta))
            assert rotated == pytest.approx(base, abs=1e-12)

    def test_angles_reduced_mod_180(self):
        state = make_state("psi-")
        a = project(state, AnalyzerSetting(30.0, 75.0))
        b = project(state, AnalyzerSetting(210.0, -105.0))
        assert a == pytest.approx(b, abs=1e-12)

    def test_theta2_scan_visibility_is_unity(self):
        state = make_state("phi+")
        rates = [
            project(state, AnalyzerSetting(45.0, t2)) for t2 in np.linspace(0.0, 180.0, 721)
        ]
        hi, lo = max(rates), min(rates)
        assert (hi - lo) / (hi + lo) == pytest.approx(1.0, abs=1e-9)


class TestHalfWavePlate:
    def test_conversion_angle_maps_phi_to_psi(self):
        converted = half_wave_plate(make_state("phi+"), 1, PHI_TO_PSI_HWP_DEG)
        assert fidelity(converted, make_state("psi+")) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_is_phase_flip(self):
        flipped = half_wave_plate(make_state("phi+"), 1, 0.0)
        assert fidelity(flipped, make_state("phi-")) == pytest.approx(1.0, abs=1e-12)

    def test_involution(self):
        state = PolarizationState(coefficients=np.array([1.4, 0.0, 0.0, np.exp(0.7j)]) / math.hypot(1.4, 1.0))
        twice = half_wave_plate(half_wave_plate(state, 2, 33.0), 2, 33.0)
        assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        state = make_state("psi-", 0.2)
        out = half_wave_plate(state, 1, 17.0)
        assert np.sum(np.abs(out.coefficients) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_port_validated(self):
        with pytest.raises(ConfigError):
            half_wave_plate(make_state("phi+"), 3, 45.0)


class TestFidelity:
    def test_self(self):
        state = make_state("phi+", 0.3)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_bell_states(self):
        assert fidelity(make_state("phi+"), make_state("phi-")) == pytest.approx(0.0, abs=1e-15)

    def test_phase_error(self):
        for delta in (0.1, 0.5, 1.7, 3.0):
            state = make_state("phi+", delta)
            assert fidelity(state, make_state("phi+")) == pytest.approx(
                math.cos(delta / 2.0) ** 2, abs=1e-12
            )
