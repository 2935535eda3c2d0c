import math
import tracemalloc
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
import pytest
import yaml

from bellsim import biphoton, dispersion, scenario, spectral
from bellsim.dispersion import YAML_LOADER
from bellsim.errors import ConfigError, GridTruncationError, InfeasibleError
from bellsim.fitting import fit_fringe
from bellsim.polarization import fidelity, make_state
from bellsim.scenario import ScanSettings
from bellsim.spectral import (NO_FILTER, SUPPORT_LEVEL, PumpPulse, SpectralFilter, kernel_overlaps,
                              kernel_time_support, make_grid)
from conftest import evaluated_terms, kernel_time_profile


# The dispersion layer's functions, down to the Sellmeier evaluation.
DISPERSION_CALLS = (
    "_sellmeier_n2_and_derivative",
    "refractive_index",
    "group_index",
    "angled_extraordinary_index",
    "angled_extraordinary_group_index",
    "phase_matching_cut_angle",
    "internal_angle_rad",
    "element_delays",
)


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

    @pytest.mark.parametrize("scan", [None, {}])
    def test_absent_scan_section_gives_the_defaults(self, scan):
        data = yaml.load(scenario.default_config_path().read_text(), Loader=YAML_LOADER)
        data.pop("scan")
        if scan is not None:
            data["scan"] = scan
        assert scenario.parse_config(data).scan == scenario.ScanSettings()

    def test_null_range_ends_stay_unset(self):
        data = yaml.load(scenario.default_config_path().read_text(), Loader=YAML_LOADER)
        data["scan"].update(start=None, stop=None)
        assert scenario.parse_config(data).scan == scenario.ScanSettings()

    def test_required_keys_alone_give_the_class_defaults(self):
        crystal = {"material": "BBO", "thickness_mm": 3.4, "signal_center_nm": 730.0, "idler_center_nm": 885.0}
        config = scenario.parse_config({
            "pump": {"center_wavelength_nm": 400.0, "duration_fs": 80.0},
            "crystals": [dict(crystal, axis_orientation="horizontal"), dict(crystal, axis_orientation="vertical")],
            "filters": [{"center_nm": 730.0, "fwhm_nm": 10.0}, {"center_nm": 885.0, "fwhm_nm": 10.0}],
            "scheme": {"kind": "collinear"},
        })
        source = config.source
        assert source.pump == PumpPulse(400.0, 80.0)
        assert source.pump.polarization_angle_deg == 45.0
        assert source.filters == (SpectralFilter(730.0, 10.0), SpectralFilter(885.0, 10.0))
        assert {f.shape for f in source.filters} == {"gaussian"}
        assert source.compensator == ()
        assert (source.cross_dispersion_enabled, source.pump_amplitude_ratio) == (False, 1.0)
        quartz_plate = dispersion.BirefringentElement(dispersion.get_material("quartz"), 3.0, "vertical", 0.0)
        assert source.signal_plate == source.idler_plate == quartz_plate
        assert config.knobs == scenario.PhaseKnobs(0.0, 0.0, 0.0)
        assert config.scan == ScanSettings()

    def test_null_plate_is_the_default_plate(self):
        data = yaml.load(scenario.default_config_path().read_text(), Loader=YAML_LOADER)
        data["knobs"]["signal_plate"] = None
        plate = scenario.parse_config(data).source.signal_plate
        assert plate == dispersion.BirefringentElement(dispersion.get_material("quartz"), 3.0, "vertical", 0.0)

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pump: [unclosed\n")
        with pytest.raises(ConfigError):
            scenario.load_config(path)


class TestBuildAmplitudes:
    def test_perfect_compensation_high_overlap(self, source, knobs):
        pair = scenario.build_amplitudes(source, knobs, compensation_error_fs=0.0)
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

    def test_given_grid_sets_the_recorded_points(self, source, knobs):
        grid = make_grid(source.pump, scenario.phase_matching_spec(source.crystals[0], source.pump),
                         filters=source.filters, points=256)
        pair = scenario.build_amplitudes(source, knobs, grid=grid)
        assert pair.amp_a.grid is grid
        assert pair.amp_a.metadata["grid_points"] == pair.amp_b.metadata["grid_points"] == 256

    @pytest.mark.parametrize("thickness", [0.0, -1.5, math.nan])
    def test_crystal_thickness_must_be_positive(self, source, thickness):
        with pytest.raises(ConfigError, match="crystal thickness_mm must be positive"):
            replace(source.crystals[1], thickness_mm=thickness)

    def test_required_compensation_near_quoted_band(self, source, knobs):
        required = scenario.required_compensation_fs(source, knobs)
        assert 1050.0 <= required + 100.0 <= 2050.0  # ~1.37 ps incl. plates

    @pytest.mark.parametrize("error", [0.0, -375.5, np.array([-700.0, 0.0, 120.0, 3000.0])])
    def test_compensation_error_is_measured_from_required(self, source, knobs, error):
        tilted = replace(knobs, signal_tilt_deg=12.0, idler_tilt_deg=-21.0)
        required = scenario.required_compensation_fs(source, tilted)
        budget = scenario.delay_budget(source, tilted, compensation_error_fs=error)
        terms = budget.terms
        for applied in (-terms["compensation"].group, -terms["compensation"].phase):
            assert np.array_equal(applied, required + error)
        assert np.allclose(budget.envelope_delay_fs(), np.abs(error) + abs(terms["signal_plate"].group)
                           + abs(terms["idler_plate"].group), rtol=0, atol=1e-9)


class TestScans:
    def test_pump_scan_period(self, source, knobs):
        result = scenario.scan(source, knobs, ScanSettings())
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(400.0, rel=5e-3)
        assert fit.visibility > 0.99

    def test_signal_scan_period(self, source, knobs):
        result = scenario.scan(source, knobs, ScanSettings(axis_kind="signal_tilt"))
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(730.0, rel=5e-3)

    def test_idler_scan_period(self, source, knobs):
        result = scenario.scan(source, knobs, ScanSettings(axis_kind="idler_tilt"))
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(885.0, rel=5e-3)

    def test_both_tilts_scan_shows_pump_period(self, source, knobs):
        result = scenario.scan(source, knobs, ScanSettings(axis_kind="both_tilts"))
        fit = fit_fringe(result)
        assert fit.period == pytest.approx(400.0, rel=5e-3)

    def test_analyzer_scan_after_preparation(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi+", knobs, evaluated_terms(source, knobs))
        result = scenario.scan(source, prepared, ScanSettings(axis_kind="analyzer2_angle", start=0.0,
                                                              stop=360.0, steps=161))
        hi, lo = result.rates.max(), result.rates.min()
        assert (hi - lo) / (hi + lo) > 0.999
        # Shape: rate ~ 2 cos^2(45 - theta2).
        theta = np.radians(result.axis)
        expected = 2.0 * np.cos(math.radians(45.0) - theta) ** 2
        assert np.allclose(result.rates, expected, atol=2e-3)

    @pytest.mark.parametrize("scan_range, steps", [((25.457, 392.553), 129), ((0.0, 360.0), 97)])
    def test_phi_plus_analyzer_fit_converges(self, source, knobs, scan_range, steps):
        # On the prepared phi+ state the analyzer fringe sits at phase -pi/2:
        # its cos coefficient is 0 and the fit must still stop promptly.
        phi_plus = replace(knobs, pump_delta_x_nm=287.58)
        result = scenario.scan(source, phi_plus, ScanSettings(axis_kind="analyzer2_angle", start=scan_range[0],
                                                              stop=scan_range[1], steps=steps))
        fit = fit_fringe(result)
        assert fit.converged
        assert fit.iterations <= 10
        assert fit.period == pytest.approx(180.0, rel=1e-9)
        assert fit.visibility > 0.9999

    def test_phase_sum_additivity(self, source, knobs):
        # Standing signal/idler offsets shift the pump fringe by the sum of
        # the injected arm phases (vertical-axis plates retard the same
        # amplitude the pump knob advances, so the signs match).
        base_fit = fit_fringe(scenario.scan(source, knobs, ScanSettings()))
        shifted_knobs = replace(knobs, signal_tilt_deg=9.0, idler_tilt_deg=12.0)
        # Injected effective path delays, read off the scan axes (public API).
        sig = scenario.scan(source, knobs, ScanSettings(axis_kind="signal_tilt", start=knobs.signal_tilt_deg,
                                                        stop=9.0, steps=8))
        idl = scenario.scan(source, knobs, ScanSettings(axis_kind="idler_tilt", start=knobs.idler_tilt_deg,
                                                        stop=12.0, steps=8))
        delta_s, delta_i = sig.axis[-1], idl.axis[-1]
        injected = (
            2.0 * math.pi * delta_s / source.crystals[0].signal_center_nm
            + 2.0 * math.pi * delta_i / source.crystals[0].idler_center_nm
        )
        new_fit = fit_fringe(scenario.scan(source, shifted_knobs, ScanSettings()))
        shift = (new_fit.phase_rad - base_fit.phase_rad - injected) % (2.0 * math.pi)
        shift = min(shift, 2.0 * math.pi - shift)
        assert shift < 1e-3
        # And the combined knob reproduces the pump-wavelength fringe: the
        # both-tilts scan fitted against its delay axis matches the pump
        # scan's period.
        both = fit_fringe(scenario.scan(source, knobs, ScanSettings(axis_kind="both_tilts")))
        assert both.period == pytest.approx(base_fit.period, rel=1e-3)

    def test_scan_determinism(self, source, knobs):
        a = scenario.scan(source, knobs, ScanSettings(steps=65))
        b = scenario.scan(source, knobs, ScanSettings(steps=65))
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.axis, b.axis)

    def test_noise_requires_seed(self, source, knobs):
        with pytest.raises(ConfigError, match="poisson noise requires a seed"):
            scenario.scan(source, knobs, ScanSettings(steps=16, noise="poisson"))

    def test_noise_seeded_reproducible(self, source, knobs):
        noisy = ScanSettings(steps=33, noise="poisson", mean_counts=500.0)
        a = scenario.scan(source, knobs, noisy, seed=99)
        b = scenario.scan(source, knobs, noisy, seed=99)
        assert np.array_equal(a.rates, b.rates)

    @pytest.mark.parametrize("axis_kind, fields", [
        ("signal_tilt", ("signal_tilt_deg",)),
        ("idler_tilt", ("idler_tilt_deg",)),
        ("both_tilts", ("signal_tilt_deg", "idler_tilt_deg")),
    ])
    def test_tilt_scan_runs_on_the_largest_step_grid(self, source, knobs, axis_kind, fields):
        # 490 fs off compensation: the large-tilt steps need a 256^2 grid,
        # the small-tilt steps at the end of the range only 128^2.
        result = scenario.scan(source, knobs, ScanSettings(axis_kind=axis_kind, start=-35.0, stop=5.0, steps=9),
                               compensation_error_fs=490.0)
        step_knobs = [replace(knobs, **dict.fromkeys(fields, v))
                      for v in np.linspace(-35.0, 5.0, 9)]
        # The scan's pre-advance is 490 fs off the standing knobs' required
        # compensation; each step's own budget gets the same pre-advance.
        standing = scenario.required_compensation_fs(source, knobs) + 490.0
        errors = [standing - scenario.required_compensation_fs(source, kn) for kn in step_knobs]
        own = [scenario.build_amplitudes(source, kn, compensation_error_fs=e)
               for kn, e in zip(step_knobs, errors)]
        sizes = [pair.amp_a.metadata["grid_points"] for pair in own]
        assert sizes[0] > sizes[-1]
        assert result.grid_points == max(sizes)

        grid = own[sizes.index(max(sizes))].amp_a.grid
        for kn, e, rate in zip(step_knobs, errors, result.rates):
            pair = scenario.build_amplitudes(source, kn, grid=grid, compensation_error_fs=e)
            na, nb, cross = biphoton.interference_terms(pair)
            # 45/45 analyzers weight both amplitudes equally.
            expected = (na + nb + 2.0 * (cross * np.exp(1j * pair.relative_phase_rad)).real) / (na + nb)
            assert rate == pytest.approx(max(expected, 0.0), abs=1e-10)

    def test_dispersion_work_independent_of_steps(self, source, knobs, monkeypatch):
        # Every step's plate terms come from one pass: a per-step loop over
        # the dispersion layer would make these counts grow with the steps.
        def counted_scan(steps):
            counts = dict.fromkeys(DISPERSION_CALLS, 0)
            for name in DISPERSION_CALLS:
                def counted(*args, _fn=getattr(dispersion, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                # scenario calls the names it imported, dispersion its own.
                for module in (dispersion, scenario):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counted)
            scenario.scan(source, knobs, ScanSettings(axis_kind="both_tilts", steps=steps))
            monkeypatch.undo()
            return counts

        few, many = counted_scan(33), counted_scan(257)
        assert few["_sellmeier_n2_and_derivative"] > 0 and few["element_delays"] > 0
        assert few == many, (few, many)


class TestPrepareBell:
    def test_phi_plus_is_scan_maximum(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi+", knobs, evaluated_terms(source, knobs))
        pair = scenario.build_amplitudes(source, prepared)
        # Amplitude a holds the V-polarized pairs of the default source.
        na, nb, cross = biphoton.interference_terms(pair)
        rate = scenario.analyzer_rate(nb, na, cross * np.exp(1j * pair.relative_phase_rad),
                                      45.0, 45.0)
        dense = scenario.scan(source, prepared, ScanSettings(steps=1025))
        assert rate >= dense.rates.max() - 1e-6

    def test_phi_minus_is_scan_minimum(self, source, knobs):
        prepared = scenario.prepare_bell(source, "phi-", knobs, evaluated_terms(source, knobs))
        pair = scenario.build_amplitudes(source, prepared)
        # Amplitude a holds the V-polarized pairs of the default source.
        na, nb, cross = biphoton.interference_terms(pair)
        rate = scenario.analyzer_rate(nb, na, cross * np.exp(1j * pair.relative_phase_rad),
                                      45.0, 45.0)
        dense = scenario.scan(source, prepared, ScanSettings(steps=1025))
        assert rate <= dense.rates.min() + 1e-6
        assert rate < 1e-3 * dense.rates.max()

    def test_fidelity_against_bell_state(self, source, knobs):
        terms = evaluated_terms(source, knobs)
        prepared = scenario.prepare_bell(source, "phi+", knobs, terms)
        state, visibility = scenario.effective_polarization_state(source, prepared, terms)
        assert visibility > 0.999
        assert fidelity(state, make_state("phi+")) > 0.999

    def test_infeasible_without_compensation(self, source, knobs):
        bare = replace(source, compensator=())
        with pytest.raises(InfeasibleError) as err:
            scenario.prepare_bell(bare, "phi+", knobs, evaluated_terms(bare, knobs))
        assert "overlap" in str(err.value)


class TestEffectiveState:
    def test_uncompensated_low_visibility(self, source, knobs):
        bare = replace(source, compensator=())
        _, visibility = scenario.effective_polarization_state(bare, knobs, evaluated_terms(bare, knobs))
        assert visibility < 0.05

    def test_pump_ratio_two_coefficients(self, source, knobs):
        ratio2 = replace(source, pump_amplitude_ratio=2.0)
        state, _ = scenario.effective_polarization_state(ratio2, knobs, evaluated_terms(ratio2, knobs))
        magnitudes = np.abs(state.coefficients)
        assert magnitudes == pytest.approx(
            np.array([2.0, 0.0, 0.0, 1.0]) / math.sqrt(5.0), abs=1e-9
        )


class TestModelProperties:
    def test_cross_dispersion_toggle_small(self, source, knobs):
        values = {}
        for enabled in (False, True):
            src = replace(source, cross_dispersion_enabled=enabled)
            pair = scenario.build_amplitudes(src, knobs, compensation_error_fs=0.0)
            values[enabled] = fringe_visibility(pair)
        assert abs(values[True] - values[False]) < 0.02

    def test_mzi_equals_collinear(self, source, knobs):
        collinear = scenario.build_amplitudes(source, knobs, compensation_error_fs=0.0)
        mzi_source = replace(source, scheme="mzi", compensator=())
        mzi = scenario.build_amplitudes(mzi_source, knobs, compensation_error_fs=0.0)
        v_col = fringe_visibility(collinear)
        v_mzi = fringe_visibility(mzi)
        assert abs(v_col - v_mzi) < 1e-6

    def test_grid_refinement_stability(self, source, knobs):
        coarse = scenario.build_amplitudes(source, knobs, grid_points=128)
        fine = scenario.build_amplitudes(source, knobs, grid_points=256)
        assert abs(fringe_visibility(coarse) - fringe_visibility(fine)) < 1e-4

    def test_flipped_crystal_order(self, source, knobs):
        flipped = replace(source, crystals=(source.crystals[1], source.crystals[0]))
        pair = scenario.build_amplitudes(flipped, knobs, compensation_error_fs=0.0)
        assert fringe_visibility(pair) > 0.999
        terms = evaluated_terms(flipped, knobs, compensation_error_fs=0.0)
        state, _ = scenario.effective_polarization_state(flipped, knobs, terms)
        assert np.abs(state.coefficients[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def _tilted(source, knobs):
    return source, replace(knobs, signal_tilt_deg=12.0, idler_tilt_deg=21.0)


# name -> (source, knobs) transform and the compensation error (None: the
# shipped compensator; a number: required + that error).
TERMS_CASES = {
    "collinear": (lambda src, kn: (src, kn), None),
    "mzi": (lambda src, kn: (replace(src, scheme="mzi", compensator=()), kn), 0.0),
    "override_error": (lambda src, kn: (src, kn), 450.0),
    "tilted": (_tilted, None),
    "pump_ratio": (lambda src, kn: (replace(src, pump_amplitude_ratio=2.0), kn), None),
    "cross_dispersion": (lambda src, kn: (replace(src, cross_dispersion_enabled=True), kn), 0.0),
    "unequal_cuts": (lambda src, kn: (replace(src, crystals=(src.crystals[0], replace(
        src.crystals[1], thickness_mm=2.0))), kn), 0.0),
    "rectangular_filters": (lambda src, kn: (replace(src, filters=tuple(
        replace(f, shape="rectangular") for f in src.filters)), kn), None),
    "no_filters": (lambda src, kn: (replace(src, filters=(NO_FILTER, NO_FILTER)), kn), None),
}


class TestInterferenceTerms:
    @pytest.mark.parametrize("case", TERMS_CASES)
    @pytest.mark.parametrize("grid_points", [128, 256])
    def test_matches_built_amplitudes(self, source, knobs, case, grid_points):
        transform, error = TERMS_CASES[case]
        src, kn = transform(source, knobs)
        got = evaluated_terms(src, kn, error, grid_points=grid_points)
        expected = biphoton.interference_terms(scenario.build_amplitudes(
            src, kn, grid_points=grid_points, compensation_error_fs=error))
        assert np.abs(np.array(got) - np.array(expected)).max() <= 1e-12

    def test_pump_knob_leaves_terms_unchanged(self, source, knobs):
        moved = replace(knobs, pump_delta_x_nm=123.0)
        assert evaluated_terms(source, moved) == evaluated_terms(source, knobs)

    def test_peak_memory_at_1024_points(self, source, knobs):
        # One complex 1024^2 JSA alone is 16 MiB; the stream holds a few
        # 512 KiB row blocks.
        evaluated_terms(source, knobs)
        tracemalloc.start()
        try:
            evaluated_terms(source, knobs, grid_points=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6

    def test_cut_angles_solved_once_per_crystal(self, source, knobs, monkeypatch):
        calls = []
        solve = scenario.phase_matching_cut_angle
        monkeypatch.setattr(scenario, "phase_matching_cut_angle", lambda *a: calls.append(a) or solve(*a))
        evaluated_terms(source, knobs)
        assert len(calls) == 2

    def test_infinite_crystal_delay_rejected(self, source, knobs):
        endless = replace(source, crystals=(replace(source.crystals[0], thickness_mm=math.inf),
                                            source.crystals[1]))
        with pytest.raises(ConfigError, match="thickness_mm"):
            evaluated_terms(endless, knobs)


class TestSweep:
    @pytest.mark.parametrize("scheme", ["collinear", "mzi"])
    def test_compensation_sweep_matches_per_value_amplitudes(self, source, knobs, scheme):
        # Alone, these errors need 128^2, 256^2, 512^2 and 1024^2 grids; the
        # sweep evaluates them all on the largest.  A compensation error
        # replaces the compensator elements, so the mzi scheme may keep them.
        src = replace(source, scheme=scheme)
        errors = [0.0, 800.0, -1800.0, 4000.0]
        pairs = [scenario.build_amplitudes(src, knobs, compensation_error_fs=e) for e in errors]
        assert [p.amp_a.metadata["grid_points"] for p in pairs] == [128, 256, 512, 1024]
        got = scenario.sweep(src, knobs, "compensation_error_fs", errors)
        expected = [fringe_visibility(pair) for pair in pairs]
        assert np.abs(got - expected).max() <= 1e-12
        assert got[0] > 0.999

    def test_pump_ratio_sweep_matches_per_value_amplitudes(self, source, knobs):
        ratios = [0.0, 0.5, 2.0]
        got = scenario.sweep(source, knobs, "pump_ratio", ratios)
        expected = [fringe_visibility(scenario.build_amplitudes(
            replace(source, pump_amplitude_ratio=r), knobs, compensation_error_fs=0.0)) for r in ratios]
        assert np.abs(got - expected).max() <= 1e-12
        assert got[0] == 0.0

    def test_one_pumped_crystal_has_zero_visibility_at_every_ratio(self, source, knobs):
        horizontal = replace(source, pump=replace(source.pump, polarization_angle_deg=0.0))
        got = scenario.sweep(horizontal, knobs, "pump_ratio", [0.25, 0.5, 1.0, 2.0, 7.0])
        assert np.array_equal(got, np.zeros(5))

    @pytest.mark.parametrize("parameter", scenario.SWEEP_PARAMETERS)
    def test_empty_sweep_rejected(self, source, knobs, parameter):
        with pytest.raises(ConfigError, match="a sweep takes 1 to"):
            scenario.sweep(source, knobs, parameter, [])

    def test_none_only_for_filter_width(self, source, knobs):
        with pytest.raises(ConfigError, match="pump_ratio sweep values must be numbers"):
            scenario.sweep(source, knobs, "pump_ratio", [1.0, None])


# name -> (source, knobs) transform for the kernel support tests.
SUPPORT_CASES = {
    "default": lambda src, kn: (src, kn),
    "filters_3nm": lambda src, kn: (replace(src, filters=scenario._sweep_filters(src, 3.0)), kn),
    "filters_20nm": lambda src, kn: (replace(src, filters=scenario._sweep_filters(src, 20.0)), kn),
    "filters_40nm": lambda src, kn: (replace(src, filters=scenario._sweep_filters(src, 40.0)), kn),
    "crystals_0.5mm": lambda src, kn: (scenario.SWEEP_SOURCES["crystal_length"](src, 0.5), kn),
    "crystals_5mm": lambda src, kn: (scenario.SWEEP_SOURCES["crystal_length"](src, 5.0), kn),
    "unequal_crystals": lambda src, kn: (replace(src, crystals=(src.crystals[0], replace(
        src.crystals[1], thickness_mm=1.0))), kn),
    "mzi": lambda src, kn: (replace(src, scheme="mzi"), kn),
    "cross_dispersion": lambda src, kn: (replace(src, cross_dispersion_enabled=True), kn),
    "tilted_plates": lambda src, kn: (src, replace(kn, signal_tilt_deg=20.0, idler_tilt_deg=-15.0)),
}


class TestKernelTimeSupport:
    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_fft_oracle_lies_inside_the_box(self, source, knobs, case):
        src, kn = SUPPORT_CASES[case](source, knobs)
        budget = scenario.delay_budget(src, kn)
        box = kernel_time_support(src.pump, *budget.specs, *src.filters)
        delays, magnitude = kernel_time_profile(src.pump, *budget.specs, *src.filters)
        above = magnitude > SUPPORT_LEVEL * magnitude.max()
        for (centre, half), cells in zip(box, (np.any(above, axis=1), np.any(above, axis=0))):
            # The FFT window holds the box, so no periodic image folds into it.
            assert abs(centre) + half < delays.max()
            extent = np.abs(delays[cells] - centre).max()
            assert extent <= half <= 1.1 * extent

    @pytest.mark.parametrize("shape", ["rectangular", "none"])
    def test_unbounded_without_gaussian_filters(self, source, shape):
        filters = (replace(source.filters[0], shape=shape), source.filters[1])
        budget = scenario.delay_budget(source)
        box = kernel_time_support(source.pump, *budget.specs, *filters)
        assert [half for _, half in box] == [math.inf, math.inf]

    @pytest.mark.parametrize("part, field, value", [
        ("pump", "duration_fs", 1e300), ("pump", "duration_fs", 1e-300), ("crystals", "thickness_mm", 1e300),
        ("filters", "fwhm_nm", 1e-300), ("filters", "center_nm", 1e300),
    ])
    def test_unbounded_when_a_scalar_overflows_or_vanishes(self, source, part, field, value):
        edited = getattr(source, part)
        if part == "pump":
            edited = replace(edited, **{field: value})
        else:
            edited = (replace(edited[0], **{field: value}), edited[1])
        src = replace(source, **{part: edited})
        box = kernel_time_support(src.pump, *scenario.delay_budget(src).specs, *src.filters)
        assert [half for _, half in box] == [math.inf, math.inf]

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_coarse_grids_match_1024_and_report_0_outside(self, source, knobs, case):
        src, kn = SUPPORT_CASES[case](source, knobs)
        errors = np.arange(-6000.0, 6001.0, 125.0)
        budget = scenario.delay_budget(src, kn, errors)
        _, _, coarse, coarse_points = scenario.budget_terms(src, budget, 128, 5.0)
        _, _, fine, fine_points = scenario.budget_terms(src, budget, 1024, 5.0)
        assert coarse_points <= 512 and fine_points == 1024
        assert np.abs(coarse - fine).max() <= 1e-10

        (c_s, t_s), (c_i, t_i) = kernel_time_support(src.pump, *budget.specs, *src.filters)
        signal_delays, idler_delays, _ = budget.delays()
        outside = (np.abs(signal_delays - c_s) > t_s) | (np.abs(idler_delays - c_i) > t_i)
        assert 0 < outside.sum() < errors.size - 8
        assert np.all(coarse[outside] == 0.0) and np.all(coarse[~outside] != 0.0)

    def test_no_periodic_image_is_reported(self, source, knobs):
        # A fixed 256^2 grid folds the kernel back in at 3000 fs off
        # compensation; the sweep sizes its own grid and reports 0 there.
        errors = [0.0, 1000.0, 3000.0, 12000.0, 30000.0]
        budget = scenario.delay_budget(source, knobs, np.array(errors))
        grid = make_grid(source.pump, budget.specs[0], filters=source.filters, points=256)
        signal_delays, idler_delays, _ = budget.delays()
        image = kernel_overlaps(source.pump, *budget.specs, *source.filters, grid,
                                signal_delays[2:3], idler_delays[2:3])
        assert abs(image[0]) > 0.1
        got = scenario.sweep(source, knobs, "compensation_error_fs", errors)
        assert got[0] > 0.999 and got[1] > 1e-16
        assert np.array_equal(got[2:], np.zeros(3))
        assert scenario.budget_terms(source, budget, 128, 5.0)[3] == 256

    def test_golden_compensation_sweep_runs_on_256(self, source, knobs):
        errors = np.array([-700.0, -300.0, 0.0, 100.0, 300.0, 600.0, 1000.0, 1500.0, 3000.0])
        budget = scenario.delay_budget(source, knobs, errors)
        assert scenario.budget_terms(source, budget, 128, 5.0)[3] == 256


def _with_filters(src, shape):
    """``src`` with its own filters, rectangular ones of the same widths, or none."""
    if shape == "rectangular":
        return replace(src, filters=tuple(replace(f, shape="rectangular") for f in src.filters))
    return replace(src, filters=(NO_FILTER, NO_FILTER)) if shape == "none" else src


def _recorded_samplers(monkeypatch) -> list:
    """Every ``spectral._Sampler`` made from here on, in order."""
    made = []
    sampler = spectral._Sampler

    def record(*args, **kwargs):
        made.append(sampler(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(spectral, "_Sampler", record)
    return made


def _stream_or_error(args):
    try:
        return kernel_overlaps(*args)
    except GridTruncationError as error:
        return str(error)


class TestCroppedStream:
    """``kernel_overlaps`` samples, per row block, only the columns where an
    envelope bound reaches ``CELL_LEVEL`` of the ridge crest; at
    ``CELL_LEVEL`` = 0 it samples every cell."""

    @staticmethod
    def _scan_args(src, kn, points):
        # Both arms vary (the signal rows drive the product), or only the
        # signal arm (the idler rows drive it).
        budget = scenario.delay_budget(src, kn, np.array([-400.0, 0.0, 250.0, 900.0]))
        grid = make_grid(src.pump, budget.specs[0], filters=src.filters, points=points)
        signal_delays, idler_delays, _ = budget.delays()
        head = (src.pump, *budget.specs, *src.filters, grid)
        return [head + (signal_delays, idler_delays),
                head + (signal_delays, np.full(idler_delays.shape, idler_delays[1]))]

    @pytest.mark.parametrize("case", SUPPORT_CASES)
    def test_matches_the_uncropped_stream(self, monkeypatch, source, knobs, case):
        src, kn = SUPPORT_CASES[case](source, knobs)
        for shape in ("config", "rectangular", "none"):
            for points in (128, 256, 512, 1024):
                for args in self._scan_args(_with_filters(src, shape), kn, points):
                    cropped = _stream_or_error(args)
                    with monkeypatch.context() as uncropped:
                        uncropped.setattr(spectral, "CELL_LEVEL", 0.0)
                        full = _stream_or_error(args)
                    if isinstance(full, str):
                        assert cropped == full
                    else:
                        assert np.abs(cropped - full).max() <= 1e-15, (shape, points)

    def test_default_1024_stream_samples_at_most_30_percent(self, monkeypatch, source, knobs):
        made = _recorded_samplers(monkeypatch)
        kernel_overlaps(*self._scan_args(source, knobs, 1024)[0])
        assert len(made) == 1 and 0 < made[0].cells <= 0.30 * 1024 ** 2

    def test_fallback_reruns_uncropped(self, monkeypatch, source, knobs):
        # At CELL_LEVEL = 0.5 the crop skips cells up to half the crest, so
        # their bound exceeds the (same) tolerance and every cell is sampled.
        args = self._scan_args(source, knobs, 256)[0]
        with monkeypatch.context() as uncropped:
            uncropped.setattr(spectral, "CELL_LEVEL", 0.0)
            full = kernel_overlaps(*args)
        made = _recorded_samplers(monkeypatch)
        monkeypatch.setattr(spectral, "CELL_LEVEL", 0.5)
        got = kernel_overlaps(*args)
        assert [sampler.threshold > 0.0 for sampler in made] == [True, False]
        assert made[0].cells < 256 ** 2 == made[1].cells
        assert np.array_equal(got, full)


class TestPlateTerms:
    @pytest.mark.parametrize("arm", ["signal", "idler"])
    @pytest.mark.parametrize("orientation", ["vertical", "horizontal"])
    def test_tilt_array_matches_per_tilt_elements(self, source, arm, orientation):
        source = replace(source, **{f"{arm}_plate": replace(getattr(source, f"{arm}_plate"),
                                                            axis_orientation=orientation)})
        plate = getattr(source, f"{arm}_plate")
        center = getattr(source.crystals[0], f"{arm}_center_nm")
        # The first crystal's pairs are V-polarized: the extraordinary ray
        # of a vertical-axis plate.
        sign = 1.0 if orientation == "vertical" else -1.0
        tilts = np.array([-35.0, -12.25, 0.0, 0.0, 7.5, 21.0, 44.0])
        amplitude, axis, group, phase = scenario._plate_term(source, arm, tilts)
        assert (amplitude, axis) == ("a", arm)
        for k, tilt in enumerate(tilts):
            tilted = replace(plate, tilt_deg=float(tilt))
            rep_e = dispersion.element_delays(tilted, "e", center)
            rep_o = dispersion.element_delays(tilted, "o", center)
            want_group = sign * (rep_e.group_delay_fs - rep_o.group_delay_fs)
            want_phase = sign * (rep_e.phase_delay_fs - rep_o.phase_delay_fs)
            assert group[k] == pytest.approx(want_group, rel=1e-12)
            assert phase[k] == pytest.approx(want_phase, rel=1e-12)

    def test_scalar_tilt_gives_scalar_terms(self, source):
        _, _, group, phase = scenario._plate_term(source, "idler", 9.0)
        arrays = scenario._plate_term(source, "idler", np.array([9.0]))
        assert np.ndim(group) == 0 and np.ndim(phase) == 0
        assert (group, phase) == pytest.approx((arrays.group[0], arrays.phase[0]), rel=1e-15)

    @pytest.mark.parametrize("axis_kind", ["signal_tilt", "idler_tilt", "both_tilts"])
    def test_scanned_tilt_bound_names_the_tilt(self, source, knobs, axis_kind):
        with pytest.raises(ConfigError, match=r"\|tilt\| must be < 45 deg, got 45"):
            scenario.scan(source, knobs, ScanSettings(axis_kind=axis_kind, start=30.0, stop=50.0, steps=17))


class TestScanSettings:
    @pytest.mark.parametrize("points", [4, 7, scenario.MAX_GRID_POINTS + 1, 100000])
    def test_grid_points_out_of_range(self, points):
        with pytest.raises(ConfigError, match="scan.grid_points"):
            scenario.ScanSettings(grid_points=points)

    @pytest.mark.parametrize("points", [8, scenario.MAX_GRID_POINTS])
    def test_grid_points_bounds_accepted(self, points):
        assert scenario.ScanSettings(grid_points=points).grid_points == points

    @pytest.mark.parametrize("factor", [-1.0, 0.0, math.nan, math.inf])
    def test_grid_span_factor_must_be_finite_positive(self, factor):
        with pytest.raises(ConfigError, match="scan.grid_span_factor"):
            scenario.ScanSettings(grid_span_factor=factor)

    @pytest.mark.parametrize("counts", [-5.0, 0.0, math.nan, math.inf])
    def test_mean_counts_must_be_finite_positive(self, counts):
        with pytest.raises(ConfigError, match="scan.mean_counts"):
            scenario.ScanSettings(noise="poisson", mean_counts=counts)

    @pytest.mark.parametrize("key, value", [("axis_kind", "compensator_tilt"), ("noise", "bogus")])
    def test_choices_are_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"scan.{key} must be one of"):
            scenario.ScanSettings(**{key: value})

    @pytest.mark.parametrize("steps", [0, 1, scenario.MAX_SCAN_STEPS + 1])
    def test_steps_out_of_range(self, steps):
        with pytest.raises(ConfigError, match=r"scan.steps: scan needs 2 to \d+ \(MAX_SCAN_STEPS\) steps"):
            scenario.ScanSettings(steps=steps)

    @pytest.mark.parametrize("steps", [2, scenario.MAX_SCAN_STEPS])
    def test_steps_bounds_accepted(self, steps):
        assert scenario.ScanSettings(steps=steps).steps == steps

    @pytest.mark.parametrize("start, stop", [(-math.inf, 5.0), (0.0, math.inf), (math.nan, 5.0),
                                             (10.0, 10.0), (10.0, -10.0)])
    def test_range_must_be_finite_and_increasing(self, start, stop):
        with pytest.raises(ConfigError, match="scan.start/scan.stop: scan range must be finite"):
            scenario.ScanSettings(axis_kind="signal_tilt", start=start, stop=stop)

    def test_analyzer_angles_must_be_finite(self):
        with pytest.raises(ConfigError, match="scan.analyzer1_deg and scan.analyzer2_deg must be finite"):
            scenario.ScanSettings(analyzer2_deg=math.inf)

    @pytest.mark.parametrize("axis_kind, first, last", [
        ("pump_delay", -800.0, 800.0), ("signal_tilt", 5.0, 35.0), ("analyzer2_angle", 0.0, 360.0),
    ])
    def test_default_ranges(self, source, axis_kind, first, last):
        values = scenario.ScanSettings(axis_kind=axis_kind).values(source)
        assert (values[0], values[-1], values.size) == (first, last, 129)


class TestYamlLoader:
    @pytest.mark.parametrize("name", ["default.yaml", "materials.yaml"])
    def test_packaged_files_parse_alike_under_both_loaders(self, name):
        text = resources.files("bellsim.data").joinpath(name).read_text()
        assert yaml.load(text, Loader=YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


@dataclass(frozen=True)
class LegacyDelayBudget:
    """The delay budget as eight per-element fields, each summed by hand: a
    copy of the sums the term list replaced, kept as the oracle of its fold.
    ``compensation`` is the pre-advance of b's pump component."""

    pump_center: float
    specs: tuple
    compensation: tuple
    signal_plate: tuple
    idler_plate: tuple
    crossing: tuple = (0.0, 0.0)
    cross_dispersion: tuple = (0.0, 0.0)
    pump_crossing: tuple = (0.0, 0.0)

    @property
    def required_compensation_fs(self):
        lag_a = (self.crossing[0] + 0.5 * (self.cross_dispersion[0] + self.cross_dispersion[1])
                 + 0.5 * (self.signal_plate[0] + self.idler_plate[0]))
        return self.pump_crossing[0] - lag_a

    def amplitude_a(self) -> tuple:
        group = self.crossing[0]
        signal_center = self.specs[0].signal_center_angular_frequency
        idler_center = self.specs[0].idler_center_angular_frequency
        carrier = (signal_center + idler_center) * self.crossing[1]
        return (
            group + self.cross_dispersion[0] + self.signal_plate[0],
            group + self.cross_dispersion[1] + self.idler_plate[0],
            carrier + (signal_center * self.signal_plate[1] + idler_center * self.idler_plate[1]),
        )

    def amplitude_b(self) -> tuple:
        return (
            self.pump_crossing[0] - self.compensation[0],
            self.pump_center * self.pump_crossing[1] - self.pump_center * self.compensation[1],
        )

    def envelope_delay_fs(self):
        return (
            np.abs(self.required_compensation_fs - self.compensation[0])
            + np.abs(self.signal_plate[0]) + np.abs(self.idler_plate[0])
            + abs(self.cross_dispersion[0] - self.cross_dispersion[1])
        )


def _legacy_budget(source, budget, compensation_error_fs=None) -> LegacyDelayBudget:
    """The eight fields of ``budget``: the element delays read from its
    terms, and the compensation summed element by element as before (or the
    exact required compensation plus the error)."""
    terms = budget.terms
    pair = lambda name: (terms[name].group, terms[name].phase) if name in terms else (0.0, 0.0)
    pol_b_pump = "V" if source.crystals[1].axis_orientation == "vertical" else "H"
    advance_g = advance_p = 0.0
    for element in source.compensator:
        group, phase = scenario._retardation(element, pol_b_pump, source.pump.center_wavelength_nm)
        advance_g -= group
        advance_p -= phase
    legacy = LegacyDelayBudget(
        pump_center=source.pump.center_angular_frequency, specs=budget.specs,
        compensation=(advance_g, advance_p) if compensation_error_fs is None else (0.0, 0.0),
        signal_plate=pair("signal_plate"), idler_plate=pair("idler_plate"), crossing=pair("crossing"),
        cross_dispersion=(pair("signal_excess")[0], pair("idler_excess")[0]),
        pump_crossing=pair("pump_crossing"),
    )
    if compensation_error_fs is not None:
        exact = legacy.required_compensation_fs + compensation_error_fs
        legacy = replace(legacy, compensation=(exact, exact))
    return legacy


def _with_compensator_axis(src, orientation):
    compensator = list(src.compensator)
    compensator[1] = replace(compensator[1], axis_orientation=orientation)
    return replace(src, compensator=tuple(compensator))


# name -> the (source, knobs) of a budget the fold must sum as the fields did.
FOLD_CASES = {
    "default": lambda src, kn: (src, kn),
    "mzi": lambda src, kn: (replace(src, scheme="mzi"), kn),
    "tilted_knobs": lambda src, kn: (src, replace(kn, signal_tilt_deg=12.0, idler_tilt_deg=-21.0)),
    "horizontal_signal_plate": lambda src, kn: (replace(src, signal_plate=replace(
        src.signal_plate, axis_orientation="horizontal")), kn),
    "vertical_compensator_plate": lambda src, kn: (_with_compensator_axis(src, "vertical"), kn),
    "flipped_crystals": lambda src, kn: (replace(src, crystals=src.crystals[::-1]), kn),
    "unequal_crystals": lambda src, kn: (replace(src, crystals=(src.crystals[0], replace(
        src.crystals[1], thickness_mm=2.0))), kn),
}
FOLD_TILTS = np.array([-35.0, -12.25, 0.0, 7.5, 21.0, 44.0])
FOLD_ERRORS = np.array([-700.0, -375.5, 0.0, 120.0, 3000.0])


def _fold_budgets(source, knobs, variant):
    """(new budget, legacy budget) of one variant: the knobs' scalar tilts,
    arrays of tilts swapped in by plate name as a scan does, or an array of
    compensation errors."""
    error = FOLD_ERRORS if variant == "error_array" else None
    budget = scenario.delay_budget(source, knobs, error)
    if variant == "tilt_arrays":
        budget = replace(budget, terms=budget.terms | {
            f"{arm}_plate": scenario._plate_term(source, arm, tilts)
            for arm, tilts in zip(scenario.ARMS, (FOLD_TILTS, -FOLD_TILTS[::-1]))})
    return budget, _legacy_budget(source, budget, error)


def _fold_pairs(budget, legacy) -> list:
    """(term-list value, legacy value) of every delay quantity."""
    a_signal, a_idler, a_carrier = legacy.amplitude_a()
    b_group, b_carrier = legacy.amplitude_b()
    return list(zip(
        (*budget.retardation("a"), *budget.retardation("b"), *budget.delays(),
         budget.required_compensation_fs, budget.envelope_delay_fs()),
        (a_signal, a_idler, a_carrier, b_group, b_group, b_carrier,
         a_signal - b_group, a_idler - b_group, a_carrier - b_carrier,
         legacy.required_compensation_fs, legacy.envelope_delay_fs()),
    ))


class TestDelayFold:
    """The term list's in-order sums give every delay quantity exactly as
    the eight hand-summed fields did."""

    @pytest.mark.parametrize("variant", ["scalar_tilts", "tilt_arrays", "error_array"])
    @pytest.mark.parametrize("case", FOLD_CASES)
    def test_fold_matches_the_field_sums_bit_for_bit(self, source, knobs, case, variant):
        budget, legacy = _fold_budgets(*FOLD_CASES[case](source, knobs), variant)
        for got, expected in _fold_pairs(budget, legacy):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("variant", ["scalar_tilts", "tilt_arrays", "error_array"])
    def test_cross_dispersion_regroups_within_1e_12(self, source, knobs, variant):
        # The required compensation sums each arm's excess with its plate
        # before halving, where the fields halved the two excesses apart.
        src = replace(source, cross_dispersion_enabled=True)
        budget, legacy = _fold_budgets(src, knobs, variant)
        assert legacy.cross_dispersion[0] != 0.0
        for got, expected in _fold_pairs(budget, legacy):
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_terms_are_in_summation_order(self, source, knobs):
        src = replace(source, cross_dispersion_enabled=True)
        budget = scenario.delay_budget(src, knobs)
        assert [(name, term.amplitude, term.axis) for name, term in budget.terms.items()] == [
            ("signal_excess", "a", "signal"), ("idler_excess", "a", "idler"),
            ("signal_plate", "a", "signal"), ("idler_plate", "a", "idler"), ("crossing", "a", "pair"),
            ("pump_crossing", "b", "pump"), ("compensation", "b", "pump"),
        ]
        mzi = scenario.delay_budget(replace(source, scheme="mzi"), knobs)
        assert list(mzi.terms) == ["signal_plate", "idler_plate", "compensation"]
