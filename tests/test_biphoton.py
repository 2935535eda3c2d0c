import math

import numpy as np
import pytest

from conftest import rate_45, time_domain_rate

from bellsim import biphoton
from bellsim.biphoton import (
    AmplitudePair,
    JointSpectralAmplitude,
    apply_envelope_phase,
    normalized_overlap_magnitude,
    overlap,
)
from bellsim.errors import ConfigError
from bellsim.fitting import fit_fringe
from bellsim.spectral import (
    NO_FILTER,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpPulse,
    build_jsa,
    kernel_overlaps,
    make_grid,
    pump_spectrum,
)
from bellsim.units import C_NM_PER_FS

PUMP = PumpPulse(400.0, 80.0)
SPEC = PhaseMatchingSpec(3.4, 730.0, 885.0, 5811.3, 5636.9, 5602.8)


def reference_jsa(points=128, pump=PUMP, spec=SPEC):
    grid = make_grid(pump, spec, points=points)
    return build_jsa(pump, spec, NO_FILTER, NO_FILTER, grid)


class TestPairDelay:
    """A common delay T of both photons, exp(i (w_s + w_i) T): group delays
    (T, T) at zero centers."""

    def test_norm_preserved(self):
        jsa = reference_jsa(64)
        delayed = apply_envelope_phase(jsa, 37.3, 37.3)
        assert delayed.norm_squared() == pytest.approx(jsa.norm_squared(), rel=1e-12)

    def test_half_period_carrier_flips_overlap(self):
        # Narrowband envelope so the envelope factor is ~1 at T = pi/W_p;
        # the grid is pump-scaled (the sinc is broad and irrelevant here).
        pump = PumpPulse(400.0, 4000.0)
        grid = FrequencyGrid(SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency,
                             5.0 * pump.sigma_omega, 128)
        jsa = build_jsa(pump, SPEC, NO_FILTER, NO_FILTER, grid)
        delay = math.pi / pump.center_angular_frequency
        shifted = apply_envelope_phase(jsa, delay, delay)
        got = overlap(jsa, shifted)
        # Independent inner-product oracle on the raw arrays.
        oracle = np.vdot(jsa.values, shifted.values) * jsa.grid.cell_area
        assert got == pytest.approx(complex(oracle), abs=1e-12)
        assert abs(got.real + 1.0) < 1e-6


class TestSingleArmDelay:
    """A delay of one arm: group delays (T, 0) or (0, T) at zero centers."""

    def test_idler_delay_fringe_period_is_idler_wavelength(self):
        jsa = reference_jsa(128)
        delays = np.linspace(0.0, 12.0, 96)  # ~4 periods of 885 nm

        rates = []
        for delay in delays:
            shifted = apply_envelope_phase(jsa, 0.0, delay)
            rates.append(rate_45(AmplitudePair(jsa, shifted)))
        fit = fit_fringe((delays * C_NM_PER_FS, np.array(rates)))
        assert fit.period == pytest.approx(885.0, rel=5e-3)

    def test_equal_arm_delays_fringe_at_pump_wavelength(self):
        # A common delay in both output arms modulates at the pump period.
        jsa = reference_jsa(128)
        delays = np.linspace(0.0, 5.4, 96)  # ~4 periods of 400 nm
        rates = []
        for delay in delays:
            shifted = apply_envelope_phase(apply_envelope_phase(jsa, delay, 0.0), 0.0, delay)
            rates.append(rate_45(AmplitudePair(jsa, shifted)))
        fit = fit_fringe((delays * C_NM_PER_FS, np.array(rates)))
        assert fit.period == pytest.approx(400.0, rel=5e-3)


class TestOverlap:
    def test_self_overlap_unity(self):
        jsa = reference_jsa(64)
        assert overlap(jsa, jsa) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_disjoint_amplitudes(self):
        jsa = reference_jsa(256)
        far = apply_envelope_phase(jsa, 600.0, 600.0)
        assert abs(overlap(jsa, far)) < 1e-3

    def test_grid_mismatch_rejected(self):
        a = reference_jsa(64)
        b = reference_jsa(96)
        with pytest.raises(ConfigError):
            overlap(a, b)

    def test_gaussian_model_closed_form(self):
        # Phase matching replaced by a Gaussian in (nu_s - nu_i): the pair
        # delay overlap is then exactly exp(-T^2 sigma^2 / 2).
        width = 0.08
        nu = np.linspace(-0.45, 0.45, 256)
        grid = FrequencyGrid(SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency,
                             0.45, nu.size)
        ws, wi = grid.signal_axis[:, None], grid.idler_axis[None, :]
        values = pump_spectrum(PUMP, ws + wi) * np.exp(-((nu[:, None] - nu[None, :]) ** 2) / (2.0 * width**2))
        values /= math.sqrt(float(np.sum(values**2)) * grid.cell_area)
        jsa = JointSpectralAmplitude(grid=grid, values=values.astype(complex))
        sigma = PUMP.sigma_omega
        for delay in (5.0, 20.0, 47.0, 80.0):
            shifted = apply_envelope_phase(jsa, delay, delay)
            expected = math.exp(-(delay**2) * sigma**2 / 2.0)
            assert abs(abs(overlap(jsa, shifted)) - expected) < 1e-4

    def test_cauchy_schwarz_bound(self):
        jsa = reference_jsa(128)
        for delay in (0.0, 13.0, 90.0, 240.0):
            shifted = apply_envelope_phase(jsa, delay, delay)
            bound = normalized_overlap_magnitude(jsa, shifted)
            assert 0.0 <= bound <= 1.0

    def test_bound_is_one_iff_equal_up_to_phase(self):
        jsa = reference_jsa(64)
        rotated = apply_envelope_phase(jsa, carrier_phase_rad=1.234)
        assert normalized_overlap_magnitude(jsa, rotated) == pytest.approx(1.0, abs=1e-12)
        shifted = apply_envelope_phase(jsa, 40.0, 40.0)
        assert normalized_overlap_magnitude(jsa, shifted) < 1.0 - 1e-6

    def test_delayed_overlaps_match_phased_overlap(self):
        # `other` is jsa advanced by (7, -3) fs with a 0.4 rad carrier; the
        # stream's kernel is jsa's with itself, so those shift its delays
        # and phase its overlaps.
        jsa = reference_jsa(64)
        centers = (SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency)
        other = apply_envelope_phase(jsa, 7.0, -3.0, 0.4, *centers)
        delays = np.array([(0.0, 0.0), (25.0, -10.0), (-60.0, 45.0)])
        batched = np.exp(0.4j) * kernel_overlaps(PUMP, SPEC, SPEC, NO_FILTER, NO_FILTER, jsa.grid,
                                                 delays[:, 0] + 7.0, delays[:, 1] - 3.0)
        for (t_s, t_i), got in zip(delays, batched):
            retarded = apply_envelope_phase(jsa, -t_s, -t_i, 0.0, *centers)
            assert got == pytest.approx(overlap(retarded, other), abs=1e-12)

    @pytest.mark.parametrize("constant", ["signal", "idler", "both"])
    def test_constant_arm_matches_full_rows(self, constant):
        # A constant arm is one phase row; the K-row product is the
        # reference.
        jsa = reference_jsa(64)
        centers = (SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency)
        other = apply_envelope_phase(jsa, 7.0, -3.0, 0.4, *centers)
        varying = np.linspace(-60.0, 45.0, 9)
        fixed = np.full(varying.size, 12.5)
        signal = varying if constant == "idler" else fixed
        idler = varying if constant == "signal" else fixed
        e_s = np.exp(1j * np.multiply.outer(signal, jsa.grid.signal_axis - centers[0]))
        e_i = np.exp(1j * np.multiply.outer(idler, jsa.grid.idler_axis - centers[1]))
        full = ((e_s @ (np.conj(jsa.values) * other.values)) * e_i).sum(axis=1) * jsa.grid.cell_area
        batched = np.exp(0.4j) * kernel_overlaps(PUMP, SPEC, SPEC, NO_FILTER, NO_FILTER, jsa.grid,
                                                 signal + 7.0, idler - 3.0)
        assert batched.shape == full.shape
        assert np.max(np.abs(batched - full)) <= 1e-12 * np.max(np.abs(full))


class TestCoincidenceRate:
    def test_constructive(self):
        jsa = reference_jsa(64)
        assert rate_45(AmplitudePair(jsa, jsa, 0.0)) == pytest.approx(2.0, abs=1e-12)
        assert normalized_overlap_magnitude(jsa, jsa) == pytest.approx(1.0, abs=1e-12)

    def test_destructive(self):
        jsa = reference_jsa(64)
        assert rate_45(AmplitudePair(jsa, jsa, math.pi)) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_rate_is_one(self):
        jsa = reference_jsa(256)
        far = apply_envelope_phase(jsa, 600.0, 600.0)
        for phase in (0.0, 1.0, math.pi):
            assert rate_45(AmplitudePair(jsa, far, phase)) == pytest.approx(1.0, abs=1e-3)

    def test_compensation_vs_mismatch_visibility(self):
        jsa = reference_jsa(1024)
        matched = apply_envelope_phase(jsa, 0.0, 0.0)
        assert normalized_overlap_magnitude(jsa, matched) > 0.999
        mismatched = apply_envelope_phase(jsa, 3000.0, 3000.0)
        assert normalized_overlap_magnitude(jsa, mismatched) < 1e-3
        # Cross-checked in the time domain.
        pair = AmplitudePair(jsa, mismatched, 0.4)
        assert time_domain_rate(pair) == pytest.approx(rate_45(pair), rel=1e-6)

    def test_fringe_law(self):
        # Equal amplitudes up to a partial delay: rate(dphi) = 1 + V cos,
        # with V = |overlap|, to residual < 1e-6 over a 2 pi scan.
        jsa = reference_jsa(128)
        partner = apply_envelope_phase(jsa, 25.0, 25.0)
        expected_v = abs(overlap(jsa, partner))
        phases = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 96)
        rates = np.array([rate_45(AmplitudePair(jsa, partner, p)) for p in phases])
        fit = fit_fringe((phases, rates))
        assert fit.rms_residual < 1e-6
        assert fit.visibility == pytest.approx(expected_v, abs=1e-6)
        assert fit.period == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_parseval_time_domain_equivalence(self):
        jsa = reference_jsa(64)
        partner = apply_envelope_phase(apply_envelope_phase(jsa, 9.0, 0.0), -4.0, -4.0)
        pair = AmplitudePair(jsa, partner, 0.77)
        assert time_domain_rate(pair) == pytest.approx(rate_45(pair), rel=1e-6)

    def test_phase_ops_preserve_norm(self):
        jsa = reference_jsa(64)
        out = apply_envelope_phase(
            apply_envelope_phase(apply_envelope_phase(jsa, 17.0, 17.0), 0.0, -3.0),
            signal_group_delay_fs=2.0,
            carrier_phase_rad=0.3,
        )
        assert out.norm_squared() == pytest.approx(jsa.norm_squared(), rel=1e-12)

    def test_zero_weight_partner(self):
        jsa = reference_jsa(64)
        empty = biphoton.scale(jsa, 0.0)
        assert rate_45(AmplitudePair(jsa, empty, 1.1)) == pytest.approx(1.0, abs=1e-12)
        assert normalized_overlap_magnitude(jsa, empty) == 0.0
