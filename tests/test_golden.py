"""Golden outputs of the default scenario, compared to 1e-10 absolute.

``tests/data/golden_default.json`` holds the default-config rates of all
five scan axes over their default ranges, the visibilities of every sweep
parameter, and the ``prepare`` report numbers for the four Bell targets.
Refactors of the amplitude engine must reproduce them.  Regenerate (only
when a physics change is intended) with

    PYTHONPATH=src python tests/test_golden.py

The file regenerates byte for byte only on the host that wrote it: on
another host (BLAS build, CPU) the script changes numbers by up to 1.4e-14.
The gate is therefore the 1e-10 tolerance, not a byte comparison.
"""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

from bellsim import polarization, scenario
from bellsim.cli import main

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_default.json"
TOLERANCE = 1.0e-10
STEPS = 129

SWEEPS = {
    "compensation_error_fs": "-700,-300,0,100,300,600,1000,1500,3000",
    "crystal_length": "0.5,1,2,3.4,5",
    "filter_fwhm": "5,10,20,none",
    "pump_ratio": "0,0.5,1,2",
}
PREPARE_KEYS = ("pump_delta_x_nm", "fidelity", "visibility", "rate_at_knobs",
                "required_compensation_fs")


def _report(prefix: Path) -> dict:
    lines = prefix.with_name(prefix.name + ".report.txt").read_text().splitlines()
    return dict(line.split(" = ", 1) for line in lines)


def golden_values(workdir: Path) -> dict:
    """Every golden number, computed by the code under test."""
    cfg = scenario.load_config(scenario.default_config_path())
    scans = {}
    for axis_kind in scenario.SCAN_AXIS_KINDS:
        result = scenario.scan(cfg.source, cfg.knobs, replace(cfg.scan, axis_kind=axis_kind, steps=STEPS))
        scans[axis_kind] = {
            "grid_points": result.grid_points,
            "axis": result.axis.tolist(),
            "rates": result.rates.tolist(),
        }

    sweeps = {}
    for parameter, grid in SWEEPS.items():
        out = workdir / f"sweep_{parameter}"
        code = main(["sweep", "--config", "default", "--output", str(out),
                     "--parameter", parameter, f"--grid={grid}"])
        assert code == 0
        rows = out.with_name(out.name + ".csv").read_text().splitlines()[1:]
        sweeps[parameter] = [float(row.split(",")[1]) for row in rows]

    prepare = {}
    for target in polarization.BELL_KINDS:
        out = workdir / f"prepare_{target}"
        assert main(["prepare", "--config", "default", "--output", str(out),
                     "--target", target]) == 0
        report = _report(out)
        prepare[target] = {key: float(report[key]) for key in PREPARE_KEYS}

    return {"steps": STEPS, "scans": scans, "sweeps": sweeps, "prepare": prepare}


def _max_deviation(expected, actual, path="") -> list:
    """(path, |difference|) of every number, recursing through the tree."""
    if isinstance(expected, dict):
        assert set(expected) == set(actual), path
        return [d for key in expected for d in _max_deviation(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list):
        assert len(expected) == len(actual), path
        return [d for k, (e, a) in enumerate(zip(expected, actual))
                for d in _max_deviation(e, a, f"{path}[{k}]")]
    assert math.isfinite(actual), path
    return [(path, abs(float(actual) - float(expected)))]


def test_default_scenario_matches_golden(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text())
    deviations = _max_deviation(expected, golden_values(tmp_path))
    worst = max(deviations, key=lambda d: d[1])
    assert worst[1] <= TOLERANCE, f"{worst[0]} deviates by {worst[1]:.3g}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = golden_values(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
