import math
from dataclasses import replace

import numpy as np
import pytest

from bellsim import biphoton, scenario
from bellsim.errors import ConfigError, InfeasibleError
from bellsim.fitting import fit_fringe
from bellsim.polarization import AnalyzerSetting, fidelity, make_state
from bellsim.spectral import NO_FILTER


def fringe_visibility(pair):
    na, nb, cross = biphoton.interference_terms(pair)
    return 2.0 * abs(cross) / (na + nb)


@pytest.fixture()
def source(default_config):
    return default_config.source


@pytest.fixture()
def knobs(default_config):
    return default_config.knobs


class TestConfigLoading:
    def test_default_config_parses(self, default_config):
        src = default_config.source
        assert src.scheme == "collinear"
        assert src.pump.center_wavelength_nm == 400.0
        assert {c.axis_orientation for c in src.crystals} == {"horizontal", "vertical"}
        assert src.crystals[0].thickness_mm == 3.4

    def test_energy_conservation_of_default_centers(self, source):
        c = source.crystals[0]
        inv_pump = 1.0 / source.pump.center_wavelength_nm
        mismatch = abs(1.0 / c.signal_center_nm + 1.0 / c.idler_center_nm - inv_pump)
        assert mismatch / inv_pump < 1e-3

    def test_missing_section_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("pump: {center_wavelength_nm: 400, duration_fs: 80}\n")
        with pytest.raises(ConfigError):
            scenario.load_config(path)

    def test_parallel_crystals_rejected(self, tmp_path):
        text = scenario.default_config_path().read_text()
        path = tmp_path / "parallel.yaml"
        path.write_text(text.replace("axis_orientation: vertical\n    signal", "axis_orientation: horizontal\n    signal"))
        with pytest.raises(ConfigError):
            scenario.load_config(path)

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump: [unclosed\n")
        with pytest.raises(ConfigError):
            scenario.load_config(path)


class TestBuildAmplitudes:
    def test_perfect_compensation_high_overlap(self, source, knobs):
        required = scenario.required_compensation_fs(source, knobs)
        pair = scenario.build_amplitudes(source, knobs, compensation_override_fs=required)
        assert biphoton.normalized_overlap_magnitude(pair.amp_a, pair.amp_b) > 0.999

    def test_shipped_compensator_matches_required(self, source, knobs):
        pair = scenario.build_amplitudes(source, knobs)
        assert biphoton.normalized_overlap_magnitude(pair.amp_a, pair.amp_b) > 0.999

    def test_uncompensated_overlap_collapses(self, source, knobs):
        bare = replace(source, compensator=())
        pair = scenario.build_amplitudes(bare, knobs)
        assert biphoton.normalized_overlap_magnitude(pair.amp_a, pair.amp_b) < 0.05

    def test_zero_ratio_single_crystal_limit(self, source, knobs):
        single = replace(source, pump_amplitude_ratio=0.0)
        pair = scenario.build_amplitudes(single, knobs)
        assert pair.amp_b.norm_squared() == pytest.approx(0.0, abs=1e-30)
        result = biphoton.coincidence_rate(pair)
        assert result.rate == pytest.approx(1.0, abs=1e-9)
        assert result.visibility_bound == 0.0

    def test_grid_auto_refines_for_large_delays(self, source, knobs):
        bare = replace(source, compensator=())
        pair = scenario.build_amplitudes(bare, knobs, grid_points=128)
        assert pair.amp_a.metadata["grid_points"] > 128

    def test_required_compensation_near_quoted_band(self, source, knobs):
        required = scenario.required_compensation_fs(source, knobs)
        assert 1050.0 <= required + 100.0 <= 2050.0  # ~1.37 ps incl. plates


class TestScans:
    def test_pump_scan_period(self, source, knobs):
        result = scenario.scan(source, "pump_delay", steps=129, knobs=knobs)
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(400.0, rel=5e-3)
        assert fit.visibility > 0.99

    def test_signal_scan_period(self, source, knobs):
        result = scenario.scan(source, "signal_tilt", steps=129, knobs=knobs)
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(730.0, rel=5e-3)

    def test_idler_scan_period(self, source, knobs):
        result = scenario.scan(source, "idler_tilt", steps=129, knobs=knobs)
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(885.0, rel=5e-3)

    def test_both_tilts_scan_shows_pump_period(self, source, knobs):
        result = scenario.scan(source, "both_tilts", steps=129, knobs=knobs)
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(400.0, rel=5e-3)

    def test_analyzer_scan_after_preparation(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi+", knobs)
        result = scenario.scan(source, "analyzer2_angle", scan_range=(0.0, 360.0),
                               steps=161, knobs=prepared)
        hi, lo = result.rates.max(), result.rates.min()
        assert (hi - lo) / (hi + lo) > 0.999
        # Shape: rate ~ 2 cos^2(45 - theta2).
        theta = np.radians(result.axis)
        expected = 2.0 * np.cos(math.radians(45.0) - theta) ** 2
        assert np.allclose(result.rates, expected, atol=2e-3)

    def test_phase_sum_additivity(self, source, knobs):
        # Standing signal/idler offsets shift the pump fringe by the sum of
        # the injected arm phases (vertical-axis plates retard the same
        # amplitude the pump knob advances, so the signs match).
        base_fit = fit_fringe(scenario.scan(source, "pump_delay", steps=129, knobs=knobs))
        shifted_knobs = replace(knobs, signal_tilt_deg=9.0, idler_tilt_deg=12.0)
        # Injected effective path delays, read off the scan axes (public API).
        sig = scenario.scan(source, "signal_tilt",
                            scan_range=(knobs.signal_tilt_deg, 9.0), steps=8, knobs=knobs)
        idl = scenario.scan(source, "idler_tilt",
                            scan_range=(knobs.idler_tilt_deg, 12.0), steps=8, knobs=knobs)
        delta_s, delta_i = sig.axis[-1], idl.axis[-1]
        injected = (
            2.0 * math.pi * delta_s / source.crystals[0].signal_center_nm
            + 2.0 * math.pi * delta_i / source.crystals[0].idler_center_nm
        )
        new_fit = fit_fringe(scenario.scan(source, "pump_delay", steps=129, knobs=shifted_knobs))
        shift = (new_fit.phase_rad - base_fit.phase_rad - injected) % (2.0 * math.pi)
        shift = min(shift, 2.0 * math.pi - shift)
        assert shift < 1e-3
        # And the combined knob reproduces the pump-wavelength fringe: the
        # both-tilts scan fitted against its delay axis matches the pump
        # scan's period.
        both = fit_fringe(scenario.scan(source, "both_tilts", steps=129, knobs=knobs))
        assert both.period == pytest.approx(base_fit.period, rel=1e-3)

    def test_scan_determinism(self, source, knobs):
        a = scenario.scan(source, "pump_delay", steps=65, knobs=knobs)
        b = scenario.scan(source, "pump_delay", steps=65, knobs=knobs)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.axis, b.axis)

    def test_noise_requires_seed(self, source, knobs):
        with pytest.raises(ConfigError):
            scenario.scan(source, "pump_delay", steps=16, knobs=knobs, noise="poisson")

    def test_noise_seeded_reproducible(self, source, knobs):
        a = scenario.scan(source, "pump_delay", steps=33, knobs=knobs,
                          noise="poisson", mean_counts=500.0, seed=99)
        b = scenario.scan(source, "pump_delay", steps=33, knobs=knobs,
                          noise="poisson", mean_counts=500.0, seed=99)
        assert np.array_equal(a.rates, b.rates)
        assert a.metadata["seed"] == 99

    @pytest.mark.parametrize("axis_kind, fields", [
        ("signal_tilt", ("signal_tilt_deg",)),
        ("idler_tilt", ("idler_tilt_deg",)),
        ("both_tilts", ("signal_tilt_deg", "idler_tilt_deg")),
    ])
    def test_tilt_scan_runs_on_the_largest_step_grid(self, source, knobs, axis_kind, fields):
        # 490 fs off compensation: the large-tilt steps need a 256^2 grid,
        # the small-tilt steps at the end of the range only 128^2.
        override = scenario.required_compensation_fs(source, knobs) + 490.0
        result = scenario.scan(source, axis_kind, scan_range=(-35.0, 5.0), steps=9,
                               knobs=knobs, compensation_override_fs=override)
        step_knobs = [replace(knobs, **dict.fromkeys(fields, v))
                      for v in result.metadata["scanned_values"]]
        own = [scenario.build_amplitudes(source, kn, compensation_override_fs=override)
               for kn in step_knobs]
        sizes = [pair.amp_a.metadata["grid_points"] for pair in own]
        assert sizes[0] > sizes[-1]
        assert result.metadata["grid_points"] == max(sizes)

        grid = own[sizes.index(max(sizes))].amp_a.grid
        for kn, rate in zip(step_knobs, result.rates):
            pair = scenario.build_amplitudes(source, kn, grid=grid,
                                             compensation_override_fs=override)
            na, nb, cross = biphoton.interference_terms(pair)
            # 45/45 analyzers weight both amplitudes equally.
            expected = (na + nb + 2.0 * (cross * np.exp(1j * pair.relative_phase_rad)).real) / (na + nb)
            assert rate == pytest.approx(max(expected, 0.0), abs=1e-10)

    def test_metadata_snapshot(self, source, knobs):
        result = scenario.scan(source, "signal_tilt", steps=9, knobs=knobs)
        meta = result.metadata
        assert meta["axis_kind"] == "signal_tilt"
        assert meta["source"]["pump"]["duration_convention"] == "intensity_fwhm"
        assert "e_index_on_phase_matching_cut" in meta["source"]["approximations"]
        assert len(meta["scanned_values"]) == 9

    def test_bad_axis_kind(self, source, knobs):
        with pytest.raises(ConfigError):
            scenario.scan(source, "compensator_tilt", steps=16, knobs=knobs)

    def test_bad_range(self, source, knobs):
        with pytest.raises(ConfigError):
            scenario.scan(source, "pump_delay", scan_range=(10.0, 10.0), steps=16, knobs=knobs)


class TestPrepareBell:
    def test_phi_plus_is_scan_maximum(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi+", knobs)
        pair = scenario.build_amplitudes(source, prepared)
        # Amplitude a holds the V-polarized pairs of the default source.
        na, nb, cross = biphoton.interference_terms(pair)
        rate = scenario.analyzer_rate(nb, na, cross * np.exp(1j * pair.relative_phase_rad),
                                      45.0, 45.0)
        dense = scenario.scan(source, "pump_delay", steps=1025, knobs=prepared)
        assert rate >= dense.rates.max() - 1e-6

    def test_phi_minus_is_scan_minimum(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi-", knobs)
        pair = scenario.build_amplitudes(source, prepared)
        # Amplitude a holds the V-polarized pairs of the default source.
        na, nb, cross = biphoton.interference_terms(pair)
        rate = scenario.analyzer_rate(nb, na, cross * np.exp(1j * pair.relative_phase_rad),
                                      45.0, 45.0)
        dense = scenario.scan(source, "pump_delay", steps=1025, knobs=prepared)
        assert rate <= dense.rates.min() + 1e-6
        assert rate < 1e-3 * dense.rates.max()

    def test_fidelity_against_bell_state(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi+", knobs)
        state, visibility = scenario.effective_polarization_state(source, prepared)
        assert visibility > 0.999
        assert fidelity(state, make_state("phi+")) > 0.999

    def test_infeasible_without_compensation(self, source, knobs):
        bare = replace(source, compensator=())
        with pytest.raises(InfeasibleError) as err:
            scenario.prepare_bell(bare, "phi+", knobs)
        assert "overlap" in str(err.value)


class TestEffectiveState:
    def test_uncompensated_low_visibility(self, source, knobs):
        bare = replace(source, compensator=())
        _, visibility = scenario.effective_polarization_state(bare, knobs)
        assert visibility < 0.05

    def test_pump_ratio_two_coefficients(self, source, knobs):
        ratio2 = replace(source, pump_amplitude_ratio=2.0)
        state, _ = scenario.effective_polarization_state(ratio2, knobs)
        magnitudes = np.abs(state.coefficients)
        assert magnitudes == pytest.approx(
            np.array([2.0, 0.0, 0.0, 1.0]) / math.sqrt(5.0), abs=1e-9
        )


class TestModelProperties:
    def test_cross_dispersion_toggle_small(self, source, knobs):
        values = {}
        for enabled in (False, True):
            src = replace(source, cross_dispersion_enabled=enabled)
            pair = scenario.build_amplitudes(
                src, knobs,
                compensation_override_fs=scenario.required_compensation_fs(src, knobs),
            )
            values[enabled] = fringe_visibility(pair)
        assert abs(values[True] - values[False]) < 0.02

    def test_mzi_equals_collinear(self, source, knobs):
        collinear = scenario.build_amplitudes(
            source, knobs,
            compensation_override_fs=scenario.required_compensation_fs(source, knobs),
        )
        mzi_source = replace(source, scheme="mzi", compensator=())
        mzi = scenario.build_amplitudes(
            mzi_source, knobs,
            compensation_override_fs=scenario.required_compensation_fs(mzi_source, knobs),
        )
        v_col = fringe_visibility(collinear)
        v_mzi = fringe_visibility(mzi)
        assert abs(v_col - v_mzi) < 1e-6

    def test_grid_refinement_stability(self, source, knobs):
        coarse = scenario.build_amplitudes(source, knobs, grid_points=128)
        fine = scenario.build_amplitudes(source, knobs, grid_points=256)
        assert abs(fringe_visibility(coarse) - fringe_visibility(fine)) < 1e-4

    def test_flipped_crystal_order(self, source, knobs):
        flipped = replace(source, crystals=(source.crystals[1], source.crystals[0]))
        required = scenario.required_compensation_fs(flipped, knobs)
        pair = scenario.build_amplitudes(flipped, knobs, compensation_override_fs=required)
        assert fringe_visibility(pair) > 0.999
        state, _ = scenario.effective_polarization_state(
            flipped, knobs, compensation_override_fs=required
        )
        assert np.abs(state.coefficients[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
