import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import biphoton, spectral
from bellsim import scenario
from bellsim.errors import ConfigError, GridTruncationError
from bellsim.spectral import (
    NO_FILTER,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpPulse,
    SpectralFilter,
    build_jsa,
    filter_amplitude,
    make_grid,
    phase_matching,
    pump_spectrum,
)
from bellsim.units import wavelength_to_angular_frequency

PUMP = PumpPulse(400.0, 80.0, 45.0)

# BBO inverse group velocities (fs/mm) on the phase-matching cut, frozen
# from the dispersion module at the default source wavelengths.
SPEC = PhaseMatchingSpec(
    crystal_length_mm=3.4,
    signal_center_nm=730.0,
    idler_center_nm=885.0,
    inverse_group_velocity_pump_fs_per_mm=5811.3,
    inverse_group_velocity_signal_fs_per_mm=5636.9,
    inverse_group_velocity_idler_fs_per_mm=5602.8,
)


class TestPumpSpectrum:
    def test_peak_is_one(self):
        assert pump_spectrum(PUMP, PUMP.center_angular_frequency) == pytest.approx(1.0, abs=0)

    def test_two_sigma_point(self):
        omega = PUMP.center_angular_frequency + 2.0 * PUMP.sigma_omega
        assert pump_spectrum(PUMP, omega) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_duration_bandwidth_against_fourier_oracle(self):
        # Time envelope with the configured intensity FWHM, transformed
        # numerically; its spectral intensity std must equal sigma_omega.
        s_field = PUMP.duration_fs / (2.0 * math.sqrt(math.log(2.0)))
        n, dt = 1 << 15, 0.25
        t = (np.arange(n) - n / 2) * dt
        spectrum = np.abs(np.fft.fft(np.exp(-(t**2) / (2 * s_field**2)))) ** 2
        omega = np.fft.fftfreq(n, d=dt) * 2.0 * np.pi
        sigma_est = math.sqrt(float(np.sum(spectrum * omega**2) / np.sum(spectrum)))
        assert sigma_est == pytest.approx(PUMP.sigma_omega, rel=1e-9)

    def test_invalid_pulse(self):
        with pytest.raises(ConfigError):
            PumpPulse(400.0, -1.0)


class TestPhaseMatching:
    def test_center_is_unity(self):
        assert phase_matching(SPEC, 0.0, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_sinc_zero(self):
        # Choose nu_s so that D L / 2 = pi with nu_i = 0.
        du_s = SPEC.inverse_group_velocity_pump_fs_per_mm - SPEC.inverse_group_velocity_signal_fs_per_mm
        nu_s = 2.0 * math.pi / (du_s * SPEC.crystal_length_mm)
        assert abs(phase_matching(SPEC, nu_s, 0.0)) < 1e-12

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(20261)
        du_s = SPEC.inverse_group_velocity_pump_fs_per_mm - SPEC.inverse_group_velocity_signal_fs_per_mm
        du_i = SPEC.inverse_group_velocity_pump_fs_per_mm - SPEC.inverse_group_velocity_idler_fs_per_mm
        z = np.linspace(0.0, SPEC.crystal_length_mm, 60001)
        for _ in range(20):
            nu_s, nu_i = rng.uniform(-0.3, 0.3, size=2)
            mismatch = du_s * nu_s + du_i * nu_i
            integrand = np.exp(1j * mismatch * z)
            # Simpson quadrature of the defining length average.
            h = z[1] - z[0]
            weights = np.ones_like(z)
            weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
            oracle = np.sum(weights * integrand) * h / 3.0 / SPEC.crystal_length_mm
            got = phase_matching(SPEC, nu_s, nu_i)
            assert abs(got - oracle) < 1e-9

    def test_energy_conservation_validated(self):
        bad = PhaseMatchingSpec(3.4, 700.0, 885.0, 5800.0, 5630.0, 5600.0)
        with pytest.raises(ConfigError):
            bad.check_energy_conservation(400.0)
        SPEC.check_energy_conservation(400.0)  # the default centers pass

    def test_build_rejects_energy_violation(self):
        bad = PhaseMatchingSpec(3.4, 700.0, 885.0, 5800.0, 5630.0, 5600.0)
        grid = make_grid(PUMP, bad, points=64)
        with pytest.raises(ConfigError):
            build_jsa(PUMP, bad, NO_FILTER, NO_FILTER, grid)


class TestFilterAmplitude:
    def test_none_everywhere_one(self):
        omega = np.linspace(2.0, 3.0, 7)
        assert np.all(filter_amplitude(NO_FILTER, omega) == 1.0)

    def test_gaussian_peak(self):
        filt = SpectralFilter(730.0, 10.0, "gaussian")
        center = wavelength_to_angular_frequency(730.0)
        assert filter_amplitude(filt, center) == pytest.approx(1.0, abs=1e-12)

    def test_half_intensity_points(self):
        filt = SpectralFilter(730.0, 10.0, "gaussian")
        center = wavelength_to_angular_frequency(730.0)
        for sign in (-1.0, 1.0):
            amp = filter_amplitude(filt, center + sign * 0.5 * filt.fwhm_omega)
            assert amp == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_rectangular_band(self):
        filt = SpectralFilter(730.0, 10.0, "rectangular")
        center = wavelength_to_angular_frequency(730.0)
        assert filter_amplitude(filt, center) == 1.0
        assert filter_amplitude(filt, center + 0.6 * filt.fwhm_omega) == 0.0


class TestFrequencyGrid:
    def test_rejects_nonuniform(self):
        axis = np.array([1.0, 2.0, 4.0])
        with pytest.raises(ConfigError):
            FrequencyGrid(signal_axis=axis, idler_axis=axis)

    def test_rejects_decreasing(self):
        axis = np.array([3.0, 2.0, 1.0])
        with pytest.raises(ConfigError):
            FrequencyGrid(signal_axis=axis, idler_axis=axis)

    def test_rejects_two_spacings(self):
        sig = np.linspace(-0.12, 0.12, 64)
        idl = np.linspace(-0.1, 0.1, 48)
        with pytest.raises(ConfigError, match="share one spacing") as error:
            FrequencyGrid(signal_axis=sig, idler_axis=idl)
        for axis in (sig, idl):
            assert repr(float(axis[-1] - axis[0]) / (axis.size - 1)) in str(error.value)

    def test_make_grid_centers(self):
        grid = make_grid(PUMP, SPEC, points=64)
        mid_s = 0.5 * float(grid.signal_axis[0] + grid.signal_axis[-1])
        assert mid_s == pytest.approx(SPEC.signal_center_angular_frequency, rel=1e-12)


class TestBuildJsa:
    def test_normalized(self):
        grid = make_grid(PUMP, SPEC, points=128)
        jsa = build_jsa(PUMP, SPEC, NO_FILTER, NO_FILTER, grid)
        total = float(np.sum(np.abs(jsa.values) ** 2)) * grid.cell_area
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_peak_real_positive(self):
        grid = make_grid(PUMP, SPEC, points=129)  # odd grid hits the centers
        jsa = build_jsa(PUMP, SPEC, NO_FILTER, NO_FILTER, grid)
        center = jsa.values[64, 64]
        assert center.real > 0.0
        assert abs(center.imag) < 1e-12 * abs(center)

    def test_energy_conservation_ridge(self):
        grid = make_grid(PUMP, SPEC, points=128)
        filt_s = SpectralFilter(730.0, 10.0, "gaussian")
        filt_i = SpectralFilter(885.0, 10.0, "gaussian")
        jsa = build_jsa(PUMP, SPEC, filt_s, filt_i, grid)
        ws, wi = grid.meshes()
        magnitude = np.abs(jsa.values)
        mask = magnitude > 1e-3 * magnitude.max()
        detuning = np.abs((ws + wi) - PUMP.center_angular_frequency)
        assert float(detuning[mask].max()) <= 4.0 * PUMP.sigma_omega

    def test_short_crystal_factorizes_along_sum_frequency(self):
        # For a vanishing crystal the amplitude support is unbounded along
        # the anticorrelated diagonal; supply an explicit pump-scaled grid.
        short = PhaseMatchingSpec(1e-4, 730.0, 885.0, 5811.3, 5636.9, 5602.8)
        half = 5.0 * PUMP.sigma_omega
        sig = np.linspace(-half, half, 64) + short.signal_center_angular_frequency
        idl = np.linspace(-half, half, 64) + short.idler_center_angular_frequency
        grid = FrequencyGrid(signal_axis=sig, idler_axis=idl)
        jsa = build_jsa(PUMP, short, NO_FILTER, NO_FILTER, grid)
        # Magnitudes at equal nu_s + nu_i must agree: the (j, k) and (k, j)
        # samples share the sum frequency on a square grid. The residual
        # phase-matching asymmetry is O((D L / 2)^2) ~ 1e-7 at this length.
        magnitude = np.abs(jsa.values)
        assert np.allclose(magnitude, magnitude.T, rtol=1e-5, atol=0.0)

    def test_narrow_filter_marginal_width(self):
        filt_s = SpectralFilter(730.0, 0.1, "gaussian")
        filt_i = SpectralFilter(885.0, 0.1, "gaussian")
        half = 8.0 * filt_s.sigma_intensity_omega
        sig = np.linspace(-half, half, 513) + SPEC.signal_center_angular_frequency
        idl = np.linspace(-half, half, 513) + SPEC.idler_center_angular_frequency
        grid = FrequencyGrid(signal_axis=sig, idler_axis=idl)
        jsa = build_jsa(PUMP, SPEC, filt_s, filt_i, grid)
        marginal = np.sum(np.abs(jsa.values) ** 2, axis=1)
        # FWHM of the signal marginal by interpolation.
        peak = marginal.max()
        above = np.where(marginal >= 0.5 * peak)[0]
        width = float(grid.signal_axis[above[-1]] - grid.signal_axis[above[0]])
        assert width == pytest.approx(filt_s.fwhm_omega, rel=0.05)

    def test_truncation_error_when_span_too_small(self):
        spec = PhaseMatchingSpec(3.4, 730.0, 885.0, 5811.3, 5636.9, 5602.8)
        half = 2.0 * PUMP.sigma_omega  # far too narrow for the ridge
        sig = np.linspace(-half, half, 64) + spec.signal_center_angular_frequency
        idl = np.linspace(-half, half, 64) + spec.idler_center_angular_frequency
        with pytest.raises(GridTruncationError):
            build_jsa(PUMP, spec, NO_FILTER, NO_FILTER, FrequencyGrid(sig, idl))

    def test_resolution_error_for_unresolved_filter(self):
        grid = make_grid(PUMP, SPEC, points=128)
        narrow = SpectralFilter(730.0, 0.1, "gaussian")
        with pytest.raises(GridTruncationError):
            build_jsa(PUMP, SPEC, narrow, NO_FILTER, grid)

    def test_metadata_records_conventions(self):
        grid = make_grid(PUMP, SPEC, points=64)
        jsa = build_jsa(PUMP, SPEC, NO_FILTER, NO_FILTER, grid, label="first")
        assert jsa.metadata["duration_convention"] == "intensity_fwhm"
        assert jsa.metadata["phase_matching"] == "sinc_first_order"
        assert jsa.metadata["crystal_label"] == "first"


def direct_jsa(pulse, spec, f_s, f_i, grid):
    """The normalized JSA from the direct 2-D formula of ``phase_matching``."""
    ws, wi = grid.meshes()
    values = (
        pump_spectrum(pulse, ws + wi)
        * filter_amplitude(f_s, grid.signal_axis)[:, None]
        * filter_amplitude(f_i, grid.idler_axis)[None, :]
        * phase_matching(spec, ws - spec.signal_center_angular_frequency,
                         wi - spec.idler_center_angular_frequency)
    )
    return values / math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_area)


# Equal and unequal signal/idler cuts: the default nondegenerate BBO spec, a
# shorter crystal, and a degenerate spec whose h vanishes on the whole
# anti-diagonal.
SAMPLING_SPECS = {
    "default": SPEC,
    "short": PhaseMatchingSpec(1.0, 730.0, 885.0, 5811.3, 5636.9, 5602.8),
    "degenerate": PhaseMatchingSpec(3.4, 800.0, 800.0, 5811.3, 5620.0, 5620.0),
}


class TestSeparableSampling:
    @pytest.mark.parametrize("name", SAMPLING_SPECS)
    @pytest.mark.parametrize("filtered", [True, False])
    def test_matches_direct_phase_matching(self, name, filtered):
        spec = SAMPLING_SPECS[name]
        filters = (
            (SpectralFilter(spec.signal_center_nm, 10.0), SpectralFilter(spec.idler_center_nm, 10.0))
            if filtered else (NO_FILTER, NO_FILTER)
        )
        grid = make_grid(PUMP, spec, filters=filters, points=129)  # odd: h == 0 at the center
        got = build_jsa(PUMP, spec, *filters, grid).values
        expected = direct_jsa(PUMP, spec, *filters, grid)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_zero_mismatch_cells(self):
        # Equal signal and idler rates and exactly opposite detunings: h is
        # exactly 0 on the anti-diagonal, where sinc(h) exp(i h) must be 1.
        spec = SAMPLING_SPECS["degenerate"]
        nu = np.arange(-4, 5) * 0.013
        a, b, left, right = spectral._sinc_factors(spec, nu, nu)
        sinc, h, work = np.empty((3, nu.size, nu.size))
        spectral._sinc_rows((a, b, left, right), slice(0, nu.size), sinc, h, work,
                            np.empty(sinc.shape, dtype=bool))
        assert np.all(sinc[::-1].diagonal() == 1.0)
        got = sinc * np.multiply.outer(np.exp(1j * a), np.exp(1j * b))
        assert np.max(np.abs(got[::-1].diagonal() - 1.0)) <= 1e-15
        expected = phase_matching(spec, nu[:, None], nu[None, :])
        assert np.max(np.abs(got - expected)) <= 1e-12

    @pytest.mark.parametrize("unequal", [False, True])
    def test_scenario_cuts_match_direct_formula(self, default_config, unequal):
        source = default_config.source
        if unequal:
            first, second = source.crystals
            source = replace(source, crystals=(first, replace(second, thickness_mm=2.0)))
        grid = make_grid(source.pump, scenario.phase_matching_spec(source.crystals[0], source.pump),
                         filters=source.filters, points=128)
        budget = scenario.delay_budget(source)
        assert scenario._spectral_setup(source, budget, 128, 5.0, grid) is grid
        for crystal, spec in zip(source.crystals, budget.specs):
            assert spec == scenario.phase_matching_spec(crystal, source.pump)
            jsa = build_jsa(source.pump, spec, *source.filters, grid)
            expected = direct_jsa(source.pump, spec, *source.filters, grid)
            assert np.max(np.abs(jsa.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_crystal_length_rejected(self):
        grid = make_grid(PUMP, SPEC, points=64)
        endless = replace(SPEC, crystal_length_mm=math.inf)
        with pytest.raises(GridTruncationError, match="finite and positive"):
            build_jsa(PUMP, endless, NO_FILTER, NO_FILTER, grid)



# Filter pairs for the stream tests: the default Gaussians, rectangular
# passbands of the same width, and none.
STREAM_FILTERS = {
    "gaussian": (SpectralFilter(730.0, 10.0), SpectralFilter(885.0, 10.0)),
    "rectangular": (SpectralFilter(730.0, 10.0, "rectangular"), SpectralFilter(885.0, 10.0, "rectangular")),
    "none": (NO_FILTER, NO_FILTER),
}
STREAM_CENTERS = (SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency)
_VARYING = np.linspace(-60.0, 45.0, 7)
_FIXED = np.full(_VARYING.size, 12.5)
# (signal, idler) delays in fs: K rows on both arms, or one constant arm.
STREAM_DELAYS = {
    "both_arms": (_VARYING, np.linspace(30.0, -20.0, 7)),
    "constant_signal": (_FIXED, _VARYING),
    "constant_idler": (_VARYING, _FIXED),
}


def dense_overlaps(spec_a, spec_b, filters, grid, signal, idler):
    """<J_a retarded by each delay pair|J_b> from the 2-D JSAs."""
    jsa_a = build_jsa(PUMP, spec_a, *filters, grid)
    jsa_b = build_jsa(PUMP, spec_b, *filters, grid)
    return np.array([
        biphoton.overlap(biphoton.apply_envelope_phase(jsa_a, -t_s, -t_i, 0.0, *STREAM_CENTERS), jsa_b)
        for t_s, t_i in zip(signal, idler)
    ])


class TestKernelOverlaps:
    @pytest.mark.parametrize("second_length_mm", [3.4, 2.0])
    @pytest.mark.parametrize("filters", STREAM_FILTERS)
    @pytest.mark.parametrize("delays", STREAM_DELAYS)
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_matches_dense_overlap(self, monkeypatch, second_length_mm, filters, delays, block_rows):
        # 5-row blocks split the 64 rows 12 x 5 + 4.
        points = 64
        if block_rows is not None:
            monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * points * block_rows)
        spec_b = replace(SPEC, crystal_length_mm=second_length_mm)
        pair = STREAM_FILTERS[filters]
        grid = make_grid(PUMP, SPEC, filters=pair, points=points)
        signal, idler = STREAM_DELAYS[delays]
        got = spectral.kernel_overlaps(PUMP, SPEC, spec_b, *pair, grid, signal, idler)
        expected = dense_overlaps(SPEC, spec_b, pair, grid, signal, idler)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_narrow_grid_has_the_border_message(self, monkeypatch, block_rows):
        # A grid 6.4 sigma wide passes the span check, but the filters are
        # still at 8 % of their peak on its border.
        if block_rows is not None:
            monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * 64 * block_rows)
        pair = STREAM_FILTERS["gaussian"]
        half = 3.2 * max(PUMP.sigma_omega, *(f.sigma_intensity_omega for f in pair))
        axis = np.linspace(-half, half, 64)
        grid = FrequencyGrid(axis + STREAM_CENTERS[0], axis + STREAM_CENTERS[1])
        ws, wi = grid.meshes()
        envelope = pump_spectrum(PUMP, ws + wi) * filter_amplitude(pair[0], ws) * filter_amplitude(pair[1], wi)
        border = max(envelope[0].max(), envelope[-1].max(), envelope[:, 0].max(), envelope[:, -1].max())
        expected = (f"grid too narrow: envelope magnitude at the border is "
                    f"{border / envelope.max():.3g} of its peak (limit {spectral.EDGE_AMPLITUDE_LIMIT})")
        with pytest.raises(GridTruncationError) as streamed:
            spectral.kernel_overlaps(PUMP, SPEC, SPEC, *pair, grid, [0.0], [0.0])
        with pytest.raises(GridTruncationError) as built:
            build_jsa(PUMP, SPEC, *pair, grid)
        assert str(streamed.value) == str(built.value) == expected

    @pytest.mark.parametrize("idler_half_span", [0.12 * 47 / 63])
    def test_rectangular_grids(self, idler_half_span):
        # 64 x 48 points of one spacing: the Hankel view of a non-square grid.
        sig = np.linspace(-0.12, 0.12, 64) + STREAM_CENTERS[0]
        idl = np.linspace(-idler_half_span, idler_half_span, 48) + STREAM_CENTERS[1]
        grid = FrequencyGrid(sig, idl)
        expected_jsa = direct_jsa(PUMP, SPEC, NO_FILTER, NO_FILTER, grid)
        got_jsa = build_jsa(PUMP, SPEC, NO_FILTER, NO_FILTER, grid).values
        assert np.max(np.abs(got_jsa - expected_jsa)) <= 1e-12 * np.max(np.abs(expected_jsa))
        signal, idler = STREAM_DELAYS["both_arms"]
        got = spectral.kernel_overlaps(PUMP, SPEC, SPEC, NO_FILTER, NO_FILTER, grid, signal, idler)
        expected = dense_overlaps(SPEC, SPEC, (NO_FILTER, NO_FILTER), grid, signal, idler)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
