import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import biphoton, spectral, units
from bellsim import scenario
from bellsim.errors import ConfigError, GridTruncationError
from bellsim.spectral import (
    DELAY_SAMPLING_SAFETY,
    MAX_GRID_POINTS,
    MIN_SPAN_SIGMAS,
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
CENTERS = (SPEC.signal_center_angular_frequency, SPEC.idler_center_angular_frequency)


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
    def test_make_grid_centers(self):
        grid = make_grid(PUMP, SPEC, points=64)
        mid_s = 0.5 * float(grid.signal_axis[0] + grid.signal_axis[-1])
        assert mid_s == pytest.approx(SPEC.signal_center_angular_frequency, rel=1e-12)

    @pytest.mark.parametrize("scale, advice", [
        (0.99, "; reduce the delay or lower scan.grid_span_factor"),
        (1.01, " on any grid span; reduce the delay and check every thickness_mm"),
    ])
    def test_unsampled_delay_advice_follows_the_least_span(self, scale, advice):
        # The delay that the least span the grid checks admit (MIN_SPAN_SIGMAS
        # pump sigmas, no Gaussian filter) samples with MAX_GRID_POINTS points.
        limit = MAX_GRID_POINTS * math.pi / (DELAY_SAMPLING_SAFETY * MIN_SPAN_SIGMAS * PUMP.sigma_omega)
        with pytest.raises(GridTruncationError, match=advice):
            make_grid(PUMP, SPEC, points=64, max_delay=scale * limit)


    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("reach, raises", [(0.99, False), (1.01, True)])
    def test_filter_band_must_meet_its_axis(self, side, reach, raises):
        # A rectangular idler band whose nearer edge sits ``reach`` half spans
        # above (side 1) or below (side -1) the idler center; the span does
        # not depend on a rectangular filter.
        signal = SpectralFilter(730.0, 10.0, "rectangular")
        half_span = make_grid(PUMP, SPEC, (signal, SpectralFilter(885.0, 10.0, "rectangular"))).half_span
        edge = wavelength_to_angular_frequency(1.0) / (CENTERS[1] + side * reach * half_span)
        idler = SpectralFilter(float(edge) - side * 5.0, 10.0, "rectangular")
        if raises:
            with pytest.raises(ConfigError, match=rf"^filters\[1\].center_nm {idler.center_nm:g} nm puts the idler "
                                                  r"filter's band outside the idler grid axis; set it near the "
                                                  r"idler center 885 nm$"):
                make_grid(PUMP, SPEC, (signal, idler))
        else:
            make_grid(PUMP, SPEC, (signal, idler))


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
        ws, wi = grid.signal_axis[:, None], grid.idler_axis[None, :]
        magnitude = np.abs(jsa.values)
        mask = magnitude > 1e-3 * magnitude.max()
        detuning = np.abs((ws + wi) - PUMP.center_angular_frequency)
        assert float(detuning[mask].max()) <= 4.0 * PUMP.sigma_omega

    def test_short_crystal_factorizes_along_sum_frequency(self):
        # For a vanishing crystal the amplitude support is unbounded along
        # the anticorrelated diagonal; supply an explicit pump-scaled grid.
        short = PhaseMatchingSpec(1e-4, 730.0, 885.0, 5811.3, 5636.9, 5602.8)
        grid = FrequencyGrid(short.signal_center_angular_frequency, short.idler_center_angular_frequency,
                             5.0 * PUMP.sigma_omega, 64)
        jsa = build_jsa(PUMP, short, NO_FILTER, NO_FILTER, grid)
        # Magnitudes at equal nu_s + nu_i must agree: the (j, k) and (k, j)
        # samples share the sum frequency on a square grid. The residual
        # phase-matching asymmetry is O((D L / 2)^2) ~ 1e-7 at this length.
        magnitude = np.abs(jsa.values)
        assert np.allclose(magnitude, magnitude.T, rtol=1e-5, atol=0.0)

    def test_narrow_filter_marginal_width(self):
        filt_s = SpectralFilter(730.0, 0.1, "gaussian")
        filt_i = SpectralFilter(885.0, 0.1, "gaussian")
        grid = FrequencyGrid(*CENTERS, 8.0 * filt_s.sigma_intensity_omega, 513)
        jsa = build_jsa(PUMP, SPEC, filt_s, filt_i, grid)
        marginal = np.sum(np.abs(jsa.values) ** 2, axis=1)
        # FWHM of the signal marginal by interpolation.
        peak = marginal.max()
        above = np.where(marginal >= 0.5 * peak)[0]
        width = float(grid.signal_axis[above[-1]] - grid.signal_axis[above[0]])
        assert width == pytest.approx(filt_s.fwhm_omega, rel=0.05)

    def test_truncation_error_when_span_too_small(self):
        # At span_factor 0.5 the span is 2 pi / walk-off (the first sinc zero's
        # half span), 3.7 pump sigmas of the 6 that the span rule needs.
        antidiag = 2.0 * math.pi / abs(SPEC.walk_off_fs[0] - SPEC.walk_off_fs[1])
        expected = (f"grid span {antidiag:.4g} rad/fs is below 6 standard deviations of the narrowest "
                    f"envelope ({PUMP.sigma_omega:.4g} rad/fs); raise scan.grid_span_factor")
        with pytest.raises(GridTruncationError) as error:
            make_grid(PUMP, SPEC, points=64, span_factor=0.5)
        assert str(error.value) == expected

    @pytest.mark.parametrize("fwhm_nm, advice", [
        (0.3, "raise scan.grid_points"),
        (0.01, "nor does any grid within 4096 points (MAX_GRID_POINTS); check filters[1].fwhm_nm and center_nm"),
    ])
    def test_resolution_error_for_unresolved_filter(self, fwhm_nm, advice):
        # The narrow idler filter is the narrowest factor; at 0.01 nm even
        # 4096 points over the span the signal filter sets cannot resolve it.
        narrow = SpectralFilter(885.0, fwhm_nm, "gaussian")
        filters = (SpectralFilter(730.0, 10.0), narrow)
        with pytest.raises(GridTruncationError) as error:
            make_grid(PUMP, SPEC, filters=filters, points=128)
        spacing = make_grid(PUMP, SPEC, filters=(filters[0], NO_FILTER), points=128).spacing
        assert str(error.value) == (f"grid spacing {spacing:.4g} rad/fs cannot resolve the idler filter "
                                    f"(sigma = {narrow.sigma_intensity_omega:.4g} rad/fs); {advice}")

    @pytest.mark.parametrize("span_factor, edge", [(3.0, 1.23e-4), (3.03, 1.03e-4)])
    def test_unfiltered_pump_corners(self, span_factor, edge):
        # Without walk-off or filters the pump sets the span alone: 3 sigma
        # on each side passes the span rule, but its corner value
        # exp(-(2 x 3 sigma)^2 / (4 sigma^2)) = exp(-9) exceeds 1e-4 of the peak.
        spec = SAMPLING_SPECS["degenerate"]
        for filters in ((), (NO_FILTER, NO_FILTER)):
            with pytest.raises(GridTruncationError) as error:
                make_grid(PUMP, spec, filters=filters, points=64, span_factor=span_factor)
            assert str(error.value) == (f"grid too narrow for the pump envelope: edge magnitude {edge:.3g} "
                                        f"exceeds 0.0001 of the peak; raise scan.grid_span_factor")
        # 3.04 sigma clears the corners; a filter of any shape bounds the
        # support instead (the samplers check its border).
        make_grid(PUMP, spec, points=64, span_factor=3.04)
        rectangular = SpectralFilter(800.0, 10.0, "rectangular")
        make_grid(PUMP, spec, filters=(rectangular, NO_FILTER), points=64, span_factor=span_factor)


def direct_jsa(pulse, spec, f_s, f_i, grid):
    """The normalized JSA from the direct 2-D formula of ``phase_matching``."""
    ws, wi = grid.signal_axis[:, None], grid.idler_axis[None, :]
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
        # Equal signal and idler rates and exactly opposite detunings (the
        # binary fractions -1/16 + n/64 on both axes): h is exactly 0 on the
        # anti-diagonal, where sinc(h) exp(i h) must be 1, so V is the pump.
        spec = SAMPLING_SPECS["degenerate"]
        grid = FrequencyGrid(spec.signal_center_angular_frequency, spec.idler_center_angular_frequency, 1 / 16, 9)
        nu = grid.detuning(0, spec.signal_center_angular_frequency)
        assert np.array_equal(nu, np.arange(-4, 5) / 64) and np.array_equal(nu, -nu[::-1])
        sampler = spectral._Sampler(PUMP, (spec,), NO_FILTER, NO_FILTER, grid)
        ((_, _, (amplitude,), _),) = list(sampler)
        assert np.all(amplitude[::-1].diagonal() == sampler.ridge[::-1].diagonal())
        a, b, _, _ = sampler.factors[0]
        got = amplitude / sampler.ridge * np.multiply.outer(np.exp(1j * a), np.exp(1j * b))
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



# Specs whose idler term b = v_i nu_i / 2 rises, falls or stays constant
# along the idler axis (idler walk-off > 0, < 0, = 0).  Their inverse group
# velocities are binary fractions, so on their ``series_grid`` (detunings
# -1/4 + n/128) h is exactly 0 on the anti-diagonal, the diagonal and the
# middle row.  The default spec has no exact zero; a 10 um crystal spreads
# |h| over 0..0.12, with hundreds of cells near the series limit, and a
# 0.1 um one puts every cell in the series.
SERIES_SPECS = {
    "rising": PhaseMatchingSpec(3.4, 800.0, 800.0, 5811.5, 5620.5, 5620.5),
    "falling": PhaseMatchingSpec(3.4, 800.0, 800.0, 5811.5, 5620.5, 6002.5),
    "constant": PhaseMatchingSpec(3.4, 800.0, 800.0, 5811.5, 5620.5, 5811.5),
    "default": SPEC,
    "short": replace(SPEC, crystal_length_mm=1e-2),
    "thin": replace(SPEC, crystal_length_mm=1e-4),
}


def series_grid(spec, points=65):
    half_span = 0.25 if spec.signal_center_nm == 800.0 else 5.0 * PUMP.sigma_omega
    return FrequencyGrid(spec.signal_center_angular_frequency, spec.idler_center_angular_frequency, half_span,
                         points)


def series_cells(sampler) -> set:
    """The (row, column) of every sampled cell whose sinc the sampler takes
    from the series, as its runs of blocks list them."""
    cells, first = set(), 0
    for length, candidates in sampler.runs:
        run = sampler.blocks[first:first + length]
        first += length
        if candidates:
            found = sampler._series_cells(sampler.factors[0], sampler.bands[0], run)
            for (rows, cols), listed in zip(run, found):
                width = cols.stop - cols.start
                cells |= {(rows.start + offset // width, cols.start + offset % width)
                          for offset in ([] if listed is None else listed[0].tolist())}
    return cells


class TestSeriesCells:
    """``_Sampler`` locates the cells with |h| < ``SINC_SERIES_BELOW`` from
    1-D data: per row, the columns that bisection on the monotone b bounds,
    each tested as the block's rank-2 product rounds h."""

    @pytest.mark.parametrize("name", SERIES_SPECS)
    @pytest.mark.parametrize("crop", [False, True])
    @pytest.mark.parametrize("block_rows", [None, 5])
    def test_equal_the_2d_mask(self, monkeypatch, name, crop, block_rows):
        # 5-row blocks split the 65 rows 13 x 5; with the thin crystal the
        # candidates of one block (325 cells) start a new run of blocks.
        points = 65
        if block_rows is not None:
            monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * points * block_rows)
        spec = SERIES_SPECS[name]
        sampler = spectral._Sampler(PUMP, (spec,), NO_FILTER, NO_FILTER, series_grid(spec), crop=crop)
        _, _, left, right = sampler.factors[0]
        expected, zeros = set(), 0
        for rows, cols in sampler.blocks:
            h = left[rows, :2] @ right[:2, cols]
            near = np.argwhere(np.abs(h) < spectral.SINC_SERIES_BELOW) + (rows.start, cols.start)
            expected |= set(map(tuple, near.tolist()))
            zeros += int(np.count_nonzero(h == 0.0))
        assert series_cells(sampler) == expected
        if name in ("rising", "falling", "constant"):
            assert zeros > 0
        if name == "thin":
            assert len(expected) == sum((r.stop - r.start) * (c.stop - c.start) for r, c in sampler.blocks)
            assert block_rows is None or len(sampler.runs) > 1

    @pytest.mark.parametrize("name", SERIES_SPECS)
    def test_amplitude_matches_the_direct_sinc(self, monkeypatch, name):
        # Every sampled V, the series cells included, against pump * sinc(h)
        # from numpy's sinc on the same h = a + b.
        monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * 65 * 5)
        spec = SERIES_SPECS[name]
        grid = series_grid(spec)
        sampler = spectral._Sampler(PUMP, (spec,), NO_FILTER, NO_FILTER, grid)
        a, b, _, _ = sampler.factors[0]
        sinc = np.sinc(np.add.outer(a, b) / np.pi)
        for rows, cols, (amplitude,), _ in sampler:
            expected = sampler.ridge[rows, cols] * sinc[rows, cols]
            assert np.max(np.abs(amplitude - expected)) <= 1e-13


# Filter pairs for the stream tests: the default Gaussians, rectangular
# passbands of the same width, and none.
STREAM_FILTERS = {
    "gaussian": (SpectralFilter(730.0, 10.0), SpectralFilter(885.0, 10.0)),
    "rectangular": (SpectralFilter(730.0, 10.0, "rectangular"), SpectralFilter(885.0, 10.0, "rectangular")),
    "none": (NO_FILTER, NO_FILTER),
}
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
        biphoton.overlap(biphoton.apply_envelope_phase(jsa_a, -t_s, -t_i, 0.0, *CENTERS), jsa_b)
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

    # The default filters, and both moved 5 nm up, which puts the envelope's
    # peak off the pump ridge's crest (its crest value is 0.77 of the peak).
    @pytest.mark.parametrize("block_rows, detuned_nm", [(None, 0.0), (5, 0.0), (None, 5.0), (5, 5.0)],
                             ids=["None", "5", "None-detuned", "5-detuned"])
    def test_narrow_grid_has_the_border_message(self, monkeypatch, block_rows, detuned_nm):
        # A grid 6.4 sigma wide passes the span check, but the filters are
        # still at 8 % (detuned: 11 %) of their peak on its border.
        if block_rows is not None:
            monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * 64 * block_rows)
        pair = detuned_filters(detuned_nm)
        grid = FrequencyGrid(*CENTERS, 3.2 * widest_sigma(pair), 64)
        expected = (f"grid too narrow: envelope magnitude at the border is "
                    f"{border_ratio(pair, grid):.3g} of its peak (limit {spectral.EDGE_AMPLITUDE_LIMIT}); "
                    "raise scan.grid_span_factor")
        with pytest.raises(GridTruncationError) as streamed:
            spectral.kernel_overlaps(PUMP, SPEC, SPEC, *pair, grid, [0.0], [0.0])
        with pytest.raises(GridTruncationError) as built:
            build_jsa(PUMP, SPEC, *pair, grid)
        assert str(streamed.value) == str(built.value) == expected

    @pytest.mark.parametrize("detuned_nm, half_sigmas", [(5.0, 4.98), (5.0, 5.06), (3.0, 4.84)])
    def test_border_off_the_crest_reads_the_sampled_peak(self, detuned_nm, half_sigmas):
        # With detuned filters the border lies above the edge limit of the
        # crest value, so the crest cannot decide: the border is 1.24e-4,
        # 0.90e-4 and 1.14e-4 of the sampled peak (1.61e-4, 1.18e-4 and
        # 1.25e-4 of the crest), an error, none and an error, as the exact
        # envelope has it.
        pair = detuned_filters(detuned_nm)
        grid = FrequencyGrid(*CENTERS, half_sigmas * widest_sigma(pair), 64)
        sampler = spectral._Sampler(PUMP, (SPEC,), *pair, grid, crop=True)
        assert sampler.border > spectral.EDGE_AMPLITUDE_LIMIT * sampler.crest
        ratio = border_ratio(pair, grid)
        if ratio > spectral.EDGE_AMPLITUDE_LIMIT:
            message = (f"grid too narrow: envelope magnitude at the border is {ratio:.3g} of its peak "
                       f"(limit {spectral.EDGE_AMPLITUDE_LIMIT}); raise scan.grid_span_factor")
            for run in (lambda: spectral.kernel_overlaps(PUMP, SPEC, SPEC, *pair, grid, [0.0], [0.0]),
                        lambda: build_jsa(PUMP, SPEC, *pair, grid)):
                with pytest.raises(GridTruncationError) as error:
                    run()
                assert str(error.value) == message
        else:
            spectral.kernel_overlaps(PUMP, SPEC, SPEC, *pair, grid, [0.0], [0.0])
            build_jsa(PUMP, SPEC, *pair, grid)

    @pytest.mark.parametrize("points", [64, 128])
    @pytest.mark.parametrize("second", ["equal", "2mm"])
    def test_matches_dense_overlap_at_5000_fs(self, points, second):
        # Both paths take the delay phases on the grid's uniform detuning, so
        # they agree far below what the sampled axes' rounding of the centers
        # moves (2.1-2.6e-13 in these overlaps).
        spec_b = SECOND_CRYSTALS[second]
        pair = STREAM_FILTERS["gaussian"]
        grid = make_grid(PUMP, SPEC, filters=pair, points=points)
        signal, idler = np.linspace(-5000.0, 5000.0, 9), np.linspace(5000.0, -5000.0, 9)
        for delays in ((signal, idler), (signal, np.full(9, 5000.0)), (np.full(9, -5000.0), idler)):
            got = spectral.kernel_overlaps(PUMP, SPEC, spec_b, *pair, grid, *delays)
            assert np.abs(got - dense_overlaps(SPEC, spec_b, pair, grid, *delays)).max() <= 5e-14

    def test_unequal_specs_get_each_norm(self, monkeypatch):
        # With two specs each block yields the kernel V_a V_b, and each norm
        # is the one a sampler of that spec alone takes.
        monkeypatch.setattr(spectral, "ROW_BLOCK_BYTES", 8 * 64 * 5)
        specs = (SPEC, replace(SPEC, crystal_length_mm=2.0))
        pair = STREAM_FILTERS["gaussian"]
        grid = make_grid(PUMP, SPEC, filters=pair, points=64)
        both = spectral._Sampler(PUMP, specs, *pair, grid)
        singles = [spectral._Sampler(PUMP, (spec,), *pair, grid) for spec in specs]
        for (_, _, amplitudes, kernel), *alone in zip(both, *singles):
            assert np.array_equal(kernel, amplitudes[0] * amplitudes[1])
            for amplitude, (_, _, (single,), _) in zip(amplitudes, alone):
                assert np.array_equal(amplitude, single)
        norms = both.norms()
        assert norms == [single.norms()[0] for single in singles]
        for norm, spec in zip(norms, specs):
            values = direct_jsa(PUMP, spec, *pair, grid) * norm
            assert math.sqrt(float(np.sum(np.abs(values) ** 2)) * grid.cell_area) == pytest.approx(norm, rel=1e-14)


class TestCenterConversions:
    def test_each_record_converts_once(self, monkeypatch):
        # A stream on fresh records converts the pump center, each spec's
        # two pair centers, and each filter's center and FWHM edges once;
        # a second stream on the same records converts nothing.
        converted = []
        convert = units.wavelength_to_angular_frequency

        def counted(wavelength_nm):
            converted.append(float(wavelength_nm))
            return convert(wavelength_nm)

        monkeypatch.setattr(units, "wavelength_to_angular_frequency", counted)
        monkeypatch.setattr(spectral, "wavelength_to_angular_frequency", counted)
        records = (PumpPulse(400.0, 80.0), replace(SPEC), replace(SPEC, crystal_length_mm=2.0),
                   SpectralFilter(730.0, 10.0), SpectralFilter(885.0, 10.0))
        grid = FrequencyGrid(*CENTERS, 0.2, 128)
        first = spectral.kernel_overlaps(*records, grid, [0.0, 40.0], [0.0, -40.0])
        assert sorted(converted) == [400.0, 725.0, 730.0, 730.0, 730.0, 735.0,
                                     880.0, 885.0, 885.0, 885.0, 890.0]
        converted.clear()
        assert np.array_equal(spectral.kernel_overlaps(*records, grid, [0.0, 40.0], [0.0, -40.0]), first)
        assert converted == []
        # Cached values are the direct conversions, bit for bit.
        pulse, spec, _, f_s, _ = records
        assert pulse.center_angular_frequency == float(convert(400.0))
        assert (spec.signal_center_angular_frequency, spec.idler_center_angular_frequency) == CENTERS
        assert f_s.fwhm_omega == units.fwhm_nm_to_fwhm_omega(730.0, 10.0)


def detuned_filters(detuned_nm: float) -> tuple:
    """The default 10 nm Gaussian filters, both centers moved by ``detuned_nm``."""
    return (SpectralFilter(730.0 + detuned_nm, 10.0), SpectralFilter(885.0 + detuned_nm, 10.0))


def widest_sigma(pair) -> float:
    return max(PUMP.sigma_omega, *(f.sigma_intensity_omega for f in pair))


def border_ratio(pair, grid) -> float:
    """The largest border value of the exact 2-D envelope over its peak."""
    ws, wi = grid.signal_axis[:, None], grid.idler_axis[None, :]
    envelope = pump_spectrum(PUMP, ws + wi) * filter_amplitude(pair[0], ws) * filter_amplitude(pair[1], wi)
    border = max(envelope[0].max(), envelope[-1].max(), envelope[:, 0].max(), envelope[:, -1].max())
    return border / envelope.max()


def direct_overlaps(spec_b, grid, signal_delays_fs, idler_delays_fs, axes=None):
    """The overlaps of ``kernel_overlaps`` evaluated directly: cos and sin
    of T nu + x (x the arm's phase of J_b less J_a's, from the sampled sinc
    factors) at each of the N columns for each of an arm's K distinct
    delays, a K x N table per arm; the real product of one arm's table with
    the kernel, then a row-wise sum against the other's.  ``axes`` are the
    (signal, idler) detunings nu; by default the grid's uniform axes
    -half span + n d about its centers."""
    pair = STREAM_FILTERS["gaussian"]
    specs = (SPEC,) if spec_b == SPEC else (SPEC, spec_b)
    sampler = spectral._Sampler(PUMP, specs, *pair, grid)
    if axes is None:
        uniform = grid.spacing * np.arange(grid.points) - grid.half_span
        axes = (uniform + (grid.signal_center - CENTERS[0]), uniform + (grid.idler_center - CENTERS[1]))

    def phase_rows(delays_fs, detuning, arm):
        delays_fs = np.asarray(delays_fs, dtype=float)
        if np.all(delays_fs == delays_fs[0]):
            delays_fs = delays_fs[:1]
        angles = np.multiply.outer(delays_fs, detuning)
        angles += sampler.factors[-1][arm] - sampler.factors[0][arm]
        return np.stack((np.cos(angles), np.sin(angles)))

    phases = (phase_rows(signal_delays_fs, axes[0], 0), phase_rows(idler_delays_fs, axes[1], 1))
    idler_drives = phases[1].shape[1] < phases[0].shape[1]
    drive, other = phases[::-1] if idler_drives else phases
    drive = drive.reshape(-1, grid.points)
    acc = np.zeros((grid.points, len(drive)) if idler_drives else (len(drive), grid.points))
    for rows, cols, _, kernel in sampler:
        if idler_drives:
            acc[rows] = kernel @ drive[:, cols].T
        else:
            acc[:, cols] += drive[:, rows] @ kernel
    norms = sampler.norms()
    acc = np.broadcast_to((acc.T if idler_drives else acc).reshape(2, -1, grid.points), other.shape)
    terms = (np.einsum("kn,kn->k", acc[0], other[0]) - np.einsum("kn,kn->k", acc[1], other[1])
             + 1j * (np.einsum("kn,kn->k", acc[0], other[1]) + np.einsum("kn,kn->k", acc[1], other[0])))
    return np.broadcast_to(terms, np.shape(signal_delays_fs)) * (grid.cell_area / (norms[0] * norms[-1]))


def factor_case_delays(varying, steps):
    """(signal, idler) delays (fs) within +-5000 fs: the ``varying`` arm(s)
    sweep ``steps`` values, a constant arm sits at 1234.5 fs."""
    signal, idler = np.linspace(-5000.0, 5000.0, steps), np.linspace(4000.0, -5000.0, steps)
    fixed = np.full(steps, 1234.5)
    return {"signal": (signal, fixed), "idler": (fixed, idler), "both": (signal, idler)}[varying]


# The second crystal of the factor tests: as the first, 2 mm long (arm
# phases of J_b less J_a that shift the delays), or 2 mm with its pair
# centers moved (a constant carrier phase too).
SECOND_CRYSTALS = {
    "equal": SPEC,
    "2mm": replace(SPEC, crystal_length_mm=2.0),
    "2mm_shifted_centers": replace(SPEC, crystal_length_mm=2.0, signal_center_nm=731.0,
                                   idler_center_nm=1.0 / (1.0 / 400.0 - 1.0 / 731.0)),
}


class TestFactoredDelayPhases:
    """``kernel_overlaps`` factors each arm's delay phases over the uniform
    axis, exp(i T nu_(m j + r)) = exp(i T nu_(m j)) exp(i T d r); the direct
    K x N evaluation is the reference."""

    @pytest.mark.parametrize("points", [64, 128, 1024])
    @pytest.mark.parametrize("second", SECOND_CRYSTALS)
    @pytest.mark.parametrize("varying", ["signal", "idler", "both"])
    @pytest.mark.parametrize("steps", [1, 2, 33, 257])
    def test_matches_the_direct_phase_table(self, points, second, varying, steps):
        spec_b = SECOND_CRYSTALS[second]
        pair = STREAM_FILTERS["gaussian"]
        grid = make_grid(PUMP, SPEC, filters=pair, points=points)
        signal, idler = factor_case_delays(varying, steps)
        got = spectral.kernel_overlaps(PUMP, SPEC, spec_b, *pair, grid, signal, idler)
        assert got.shape == (steps,)
        assert np.abs(got - direct_overlaps(spec_b, grid, signal, idler)).max() <= 1e-13
        # On the sampled axes (absolute samples less the centers), each
        # detuning is off the uniform one by a rounding of the center; the
        # normalized kernel sums to at most 1 in magnitude, so the overlaps
        # move by at most the largest phase that rounding puts on a cell.
        sampled = (grid.signal_axis - CENTERS[0], grid.idler_axis - CENTERS[1])
        uniform = grid.spacing * np.arange(points) - grid.half_span
        shift = sum(np.abs(delays).max() * np.abs(axis - uniform).max()
                    for delays, axis in zip((signal, idler), sampled))
        assert np.abs(got - direct_overlaps(spec_b, grid, signal, idler, sampled)).max() <= 1e-13 + shift

    @pytest.mark.parametrize("varying", ["signal", "idler"])
    def test_max_scan_steps_on_one_arm(self, varying):
        pair = STREAM_FILTERS["gaussian"]
        grid = make_grid(PUMP, SPEC, filters=pair, points=128)
        signal, idler = factor_case_delays(varying, scenario.MAX_SCAN_STEPS)
        got = spectral.kernel_overlaps(PUMP, SPEC, SPEC, *pair, grid, signal, idler)
        assert np.abs(got - direct_overlaps(SPEC, grid, signal, idler)).max() <= 1e-13

    @pytest.mark.parametrize("second_length_mm", [3.4, 2.0])
    @pytest.mark.parametrize("varying", ["signal", "idler", "both"])
    def test_no_arm_takes_a_cosine_per_delay_and_column(self, monkeypatch, second_length_mm, varying):
        # 257 delays on 256 columns: a K x N table would take 65792 cosines;
        # the factors take K (q + m) = 257 x 32 per varying arm.
        pair = STREAM_FILTERS["gaussian"]
        grid = make_grid(PUMP, SPEC, filters=pair, points=256)
        signal, idler = factor_case_delays(varying, 257)
        evaluated = []
        cos = np.cos

        def counted(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(np, "cos", counted)
        spectral.kernel_overlaps(PUMP, SPEC, replace(SPEC, crystal_length_mm=second_length_mm), *pair, grid,
                                 signal, idler)
        arms = 2 if varying == "both" else 1
        assert sum(evaluated) <= arms * 257 * 32 + 8 * 256 < 257 * 256 / 2
