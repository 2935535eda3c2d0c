import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim import biphoton, cli, memo, scenario, spectral
from bellsim.cli import main
from bellsim.polarization import BELL_KINDS
from bellsim.scenario import SWEEP_PARAMETERS


def run(argv):
    return main([str(a) for a in argv])


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(scenario.default_config_path().read_text())
    return path


class TestScanCommand:
    def test_default_pump_scan(self, tmp_path, config_file):
        out = tmp_path / "run" / "pump"
        assert run(["scan", "--config", config_file, "--output", out]) == 0
        report = read_report(out.with_name("pump.report.txt"))
        assert float(report["period"]) == pytest.approx(400.0, rel=5e-3)
        assert float(report["visibility_fit"]) > 0.99
        csv_lines = out.with_name("pump.csv").read_text().splitlines()
        assert csv_lines[0] == "axis_value,rate"
        assert len(csv_lines) == 130

    def test_axis_override(self, tmp_path, config_file):
        out = tmp_path / "idler"
        code = run(["scan", "--config", config_file, "--output", out,
                    "--axis", "idler_tilt", "--steps", 129])
        assert code == 0
        report = read_report(out.with_name("idler.report.txt"))
        assert float(report["period"]) == pytest.approx(885.0, rel=5e-3)

    def test_negative_range_in_scientific_notation(self, tmp_path, config_file):
        # argparse would take a separate "-4e2" for an option; "-400" it reads as a number.
        outputs = []
        for name, start, stop in (("sci", "-4e2", "4e2"), ("plain", "-400", "400")):
            out = tmp_path / name
            assert run(["scan", "--config", config_file, "--output", out, "--axis", "pump_delay",
                        "--start", start, "--stop", stop]) == 0
            outputs.append([out.with_name(f"{name}{suffix}").read_bytes() for suffix in (".csv", ".report.txt")])
        assert outputs[0] == outputs[1]
        assert outputs[0][0].startswith(b"axis_value,rate\n-400.0,")

    def test_short_scan_writes_csv_then_fails(self, tmp_path, config_file):
        out = tmp_path / "short"
        code = run(["scan", "--config", config_file, "--output", out, "--steps", 4])
        assert code == 3
        assert out.with_name("short.csv").exists()
        assert not out.with_name("short.report.txt").exists()

    def test_failed_fit_manifest_names_only_the_csv(self, tmp_path, config_file):
        # A report left by an earlier run under the same prefix is not this
        # run's output.
        out = tmp_path / "short"
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 0
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 4]) == 3
        manifest = read_report(out.with_name("short.manifest.txt"))
        assert manifest["output_paths"] == str(out.with_name("short.csv"))

    def test_unwritable_report_manifest_names_only_the_csv(self, tmp_path, config_file, capsys):
        out = tmp_path / "x"
        out.with_name("x.report.txt").mkdir()
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 2
        assert capsys.readouterr().err.startswith("error: --output: cannot write ")
        manifest = read_report(out.with_name("x.manifest.txt"))
        assert manifest["output_paths"] == str(out.with_name("x.csv"))

    def test_manifest_names_csv_and_report(self, tmp_path, config_file):
        out = tmp_path / "scan"
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 0
        manifest = read_report(out.with_name("scan.manifest.txt"))
        assert manifest["output_paths"] == f"{out.with_name('scan.csv')},{out.with_name('scan.report.txt')}"

    def test_byte_identical_reruns(self, tmp_path, config_file):
        first = tmp_path / "a" / "scan"
        second = tmp_path / "b" / "scan"
        for out in (first, second):
            assert run(["scan", "--config", config_file, "--output", out,
                        "--seed", 7, "--reference"]) == 0
        assert first.with_name("scan.csv").read_bytes() == second.with_name("scan.csv").read_bytes()
        assert (
            first.with_name("scan.report.txt").read_bytes()
            == second.with_name("scan.report.txt").read_bytes()
        )

    def test_noisy_scan_records_seed_and_reproduces(self, tmp_path, config_file):
        noisy_cfg = tmp_path / "noisy.yaml"
        noisy_cfg.write_text(config_file.read_text().replace("noise: none", "noise: poisson"))
        outs = []
        for name in ("n1", "n2"):
            out = tmp_path / name
            assert run(["scan", "--config", noisy_cfg, "--output", out, "--seed", 123]) == 0
            outs.append(out)
        assert outs[0].with_name("n1.csv").read_bytes() == outs[1].with_name("n2.csv").read_bytes()
        manifest = outs[0].with_name("n1.manifest.txt").read_text()
        assert "seed = 123" in manifest

    @pytest.mark.parametrize("plate, thickness", [("signal_plate", "30.0"), ("idler_plate", "30.57")])
    def test_far_detuned_plate_scan(self, tmp_path, config_file, plate, thickness):
        # Ten times the standing plates: the 30 mm signal plate's overlaps lie
        # below SUPPORT_LEVEL and read 0, so the scan is flat; the 30.57 mm
        # idler plate's (V ~ 5e-11) lie above it and keep the 400 nm fringe.
        standing = "3.0" if plate == "signal_plate" else "3.057"
        config = _edited_config(config_file, tmp_path, f"{plate}: {{material: quartz, thickness_mm: {standing},",
                                f"{plate}: {{material: quartz, thickness_mm: {thickness},")
        out = tmp_path / "plate"
        assert run(["scan", "--config", config, "--output", out]) == 0
        report = read_report(out.with_name("plate.report.txt"))
        if plate == "signal_plate":
            assert float(report["visibility_fit"]) == 0.0 and report["iterations"] == "0"
            assert report["period_degenerate"] == "true"
        else:
            assert 1e-11 < float(report["visibility_fit"]) < 1e-10
            assert float(report["period"]) == pytest.approx(400.0, rel=5e-3)
            assert report["period_degenerate"] == "false"

    def test_missing_config_is_config_error(self, tmp_path):
        assert run(["scan", "--config", tmp_path / "nope.yaml", "--output", tmp_path / "x"]) == 2

    def test_broken_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pump: {center_wavelength_nm: 400.0}\n")
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2


class TestSweepCommand:
    def test_crystal_length_sweep(self, tmp_path, config_file):
        out = tmp_path / "len"
        code = run(["sweep", "--config", config_file, "--output", out,
                    "--parameter", "crystal_length", "--grid", "0.5,1,2,3.4,5"])
        assert code == 0
        rows = out.with_name("len.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert len(values) == 5
        assert min(values) > 0.99

    def test_unwritable_report_manifest_names_only_the_csv(self, tmp_path, capsys):
        out = tmp_path / "s"
        out.with_name("s.report.txt").mkdir()
        assert run(["sweep", "--config", "default", "--output", out, "--parameter", "pump_ratio",
                    "--grid", "1,2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --output: cannot write ")
        manifest = read_report(out.with_name("s.manifest.txt"))
        assert manifest["command"] == "sweep"
        assert manifest["output_paths"] == str(out.with_name("s.csv"))

    @pytest.mark.parametrize("grid", ["1e308", "1,1e308"])
    def test_overflowing_crystal_length_prints_only_its_error(self, tmp_path, capsys, grid):
        # Twice in one process, as Python prints a warning once per source
        # line: each run's stderr is the one error line, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            for _ in range(2):
                assert run(["sweep", "--config", "default", "--output", tmp_path / "s",
                            "--parameter", "crystal_length", "--grid", grid]) == 2
                assert capsys.readouterr().err == ("error: sweep crystal_length value 1e+308: crystals[1].thickness_mm: "
                                                   "the delay across crystal 2 overflows a float; got 1e+308 mm\n")

    def test_filter_sweep_with_none(self, tmp_path, config_file):
        out = tmp_path / "filt"
        code = run(["sweep", "--config", config_file, "--output", out,
                    "--parameter", "filter_fwhm", "--grid", "5,10,20,none"])
        assert code == 0
        rows = out.with_name("filt.csv").read_text().splitlines()[1:]
        assert rows[-1].startswith("none,")
        assert all(float(r.split(",")[1]) > 0.99 for r in rows)

    def test_compensation_error_sweep_monotone(self, tmp_path, config_file):
        out = tmp_path / "comp"
        grid = "0,50,100,200,300,500,800,1200,2000,3000"
        code = run(["sweep", "--config", config_file, "--output", out,
                    "--parameter", "compensation_error_fs", "--grid", grid])
        assert code == 0
        rows = out.with_name("comp.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] > 0.999
        floored = [v for v in values if v > 1e-12]
        assert all(a > b for a, b in zip(floored, floored[1:]))
        assert values[-1] < 1e-6

    def test_pump_ratio_sweep(self, tmp_path, config_file):
        out = tmp_path / "ratio"
        code = run(["sweep", "--config", config_file, "--output", out,
                    "--parameter", "pump_ratio", "--grid", "0,0.5,1,2"])
        assert code == 0
        rows = out.with_name("ratio.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[2] == pytest.approx(1.0, abs=1e-3)
        assert values[1] == pytest.approx(values[3], abs=1e-6)  # r and 1/r symmetric

    def test_negative_first_grid_value(self, tmp_path, config_file):
        # argparse would take a separate "-300,0,300" for an option.
        csvs = []
        for name, grid in (("split", ["--grid", "-300,0,300"]), ("joined", ["--grid=-300,0,300"])):
            out = tmp_path / name
            assert run(["sweep", "--config", config_file, "--output", out,
                        "--parameter", "compensation_error_fs", *grid]) == 0
            csvs.append(out.with_name(f"{name}.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].startswith(b"parameter_value,visibility\n-300.0,")

    def test_empty_grid_rejected(self, tmp_path, config_file):
        assert run(["sweep", "--config", config_file, "--output", tmp_path / "x",
                    "--parameter", "pump_ratio", "--grid", ","]) == 2

    def test_crystal_length_sweep_equals_one_value_sweeps(self, tmp_path):
        # Each one-value sweep starts from empty memos, as a fresh process.
        def rows(name, grid):
            out = tmp_path / name
            assert run(["sweep", "--config", "default", "--output", out, "--parameter", "crystal_length",
                        "--grid", grid]) == 0
            return out.with_name(f"{name}.csv").read_bytes().splitlines()[1:]

        grid = ["3.4", "0.5", "5", "1", "2.25"]
        together = rows("all", ",".join(grid))
        alone = []
        for k, value in enumerate(grid):
            memo.clear_memos()
            alone += rows(f"one{k}", value)
        assert together == alone

    @pytest.mark.parametrize("parameter, grid, streams, solves", [
        ("compensation_error_fs", "0,-600,1500", 1, 1),
        ("pump_ratio", "0,0.5,2", 1, 1),
        ("crystal_length", "1,2,3.4", 3, 1),
        ("filter_fwhm", "5,20,none", 3, 1),
    ])
    def test_kernel_streams_and_cut_angle_solves(self, tmp_path, monkeypatch, parameter, grid, streams, solves):
        # Every sweep is one batched evaluation.  A compensation error moves
        # only b's group delay and a pump ratio only the weights: one delay
        # budget and one kernel stream per sweep.  The other parameters
        # change the JSAs: one stream per value; a crystal length changes the
        # budget too (one per value), a filter does not.  The default's two
        # crystals share one cut, and no length enters it: one solve.
        calls = {"batch": 0, "stream": 0, "solve": 0}
        batch, stream, solve = scenario.budget_terms_batch, spectral._Sampler, scenario.phase_matching_cut_angle

        def counted(name, fn):
            return lambda *a, **k: calls.__setitem__(name, calls[name] + 1) or fn(*a, **k)

        monkeypatch.setattr(scenario, "budget_terms_batch", counted("batch", batch))
        monkeypatch.setattr(spectral, "_Sampler", counted("stream", stream))
        monkeypatch.setattr(scenario, "phase_matching_cut_angle", counted("solve", solve))
        assert run(["sweep", "--config", "default", "--output", tmp_path / "s",
                    "--parameter", parameter, "--grid", grid]) == 0
        assert calls == {"batch": 1, "stream": streams, "solve": solves}


def _rowwise_csv(header, rows) -> bytes:
    """The bytes of the row-by-row writer that formatted every cell with
    ``cli._fmt``: the reference for the column writer."""
    lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestCsvWriter:
    @staticmethod
    def _columns(kind):
        rng = np.random.default_rng(11)
        values = rng.normal(size=257) * 10.0 ** rng.integers(-300, 300, size=257)
        values[:3] = (0.0, -0.0, 0.1)
        if kind == "python_floats":
            return values.tolist(), (values / 3.0).tolist()
        if kind == "float64":
            return values, values / 3.0
        modest = rng.normal(size=257) * 10.0 ** rng.integers(-3, 4, size=257)
        return modest.astype(np.float32), (modest / 3.0).astype(np.float16)

    @pytest.mark.parametrize("kind", ["python_floats", "float64", "float32_float16"])
    def test_float_columns_match_rowwise_writer(self, kind):
        columns = self._columns(kind)
        text = cli._csv_text(("axis_value", "rate"), columns)
        assert text.encode() == _rowwise_csv(("axis_value", "rate"), zip(*columns))

    def test_filter_sweep_with_none_matches_rowwise_writer(self, tmp_path, default_config):
        grid = [5.0, 10.0, 20.0, None]
        out = tmp_path / "filters"
        assert run(["sweep", "--config", "default", "--output", out,
                    "--parameter", "filter_fwhm", "--grid=5,10,20,none"]) == 0
        visibilities = scenario.sweep(default_config.source, default_config.knobs, "filter_fwhm",
                                      grid, default_config.scan.grid_points,
                                      default_config.scan.grid_span_factor)
        rows = [("none" if v is None else v, vis) for v, vis in zip(grid, visibilities)]
        expected = _rowwise_csv(("parameter_value", "visibility"), rows)
        assert out.with_name("filters.csv").read_bytes() == expected
        assert b"\nnone," in expected


class TestFitCommand:
    def test_round_trip_through_scan(self, tmp_path, config_file):
        out = tmp_path / "scan"
        assert run(["scan", "--config", config_file, "--output", out]) == 0
        refit = tmp_path / "refit"
        assert run(["fit", "--input", out.with_name("scan.csv"), "--output", refit]) == 0
        scan_report = read_report(out.with_name("scan.report.txt"))
        fit_report = read_report(refit.with_name("refit.report.txt"))
        assert float(fit_report["period"]) == pytest.approx(float(scan_report["period"]), rel=1e-9)
        assert float(fit_report["visibility_fit"]) == pytest.approx(
            float(scan_report["visibility_fit"]), abs=1e-9
        )

    def test_synthetic_92_percent_file(self, tmp_path):
        x = np.linspace(0.0, 1600.0, 129)
        y = 1.0 + 0.92 * np.cos(2 * np.pi * x / 400.0 + 0.25)
        path = tmp_path / "fringe.csv"
        path.write_text("axis_value,rate\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n")
        out = tmp_path / "fit92"
        assert run(["fit", "--input", path, "--output", out]) == 0
        report = read_report(out.with_name("fit92.report.txt"))
        assert 0.915 <= float(report["visibility_fit"]) <= 0.925

    def test_flat_file_degenerate(self, tmp_path):
        x = np.linspace(0.0, 100.0, 40)
        path = tmp_path / "flat.csv"
        path.write_text("axis_value,rate\n" + "\n".join(f"{float(a)!r},2.0" for a in x) + "\n")
        out = tmp_path / "flat"
        assert run(["fit", "--input", path, "--output", out]) == 0
        report = read_report(out.with_name("flat.report.txt"))
        assert float(report["visibility_fit"]) < 1e-9
        assert report["period_degenerate"] == "true"

    def test_rounding_level_fringe_is_degenerate(self, tmp_path):
        # Rates that vary at ~1e-15 (a few ulps of 1.0): the fitted amplitude
        # lies below n eps |offset| = 1.4e-14, so no period is claimed.
        x = np.linspace(0.0, 1600.0, 65)
        y = 1.0 + 1e-15 * np.cos(2 * np.pi * x / 400.0)
        assert np.ptp(y) > 0.0
        path = tmp_path / "rounding.csv"
        path.write_text("axis_value,rate\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n")
        out = tmp_path / "rounding"
        assert run(["fit", "--input", path, "--output", out]) == 0
        report = read_report(out.with_name("rounding.report.txt"))
        assert float(report["visibility_fit"]) < 1e-14
        assert report["period_degenerate"] == "true"

    def test_manifest_keys(self, tmp_path):
        rows = "".join(f"{float(a)!r},{1.0 + math.cos(a / 64.0)!r}\n" for a in np.linspace(0.0, 1600.0, 65))
        path = tmp_path / "fringe.csv"
        path.write_text("axis_value,rate\n" + rows)
        out = tmp_path / "fit"
        assert run(["fit", "--input", path, "--output", out]) == 0
        manifest = read_report(out.with_name("fit.manifest.txt"))
        assert list(manifest) == ["config_path", "command", "output_paths", "seed", "tool_version",
                                  "timestamp"]
        assert manifest["config_path"] == "-"
        assert manifest["command"] == "fit"
        assert manifest["output_paths"] == str(out.with_name("fit.report.txt"))
        assert manifest["seed"] == "none"
        assert manifest["tool_version"] == bellsim.__version__
        assert datetime.fromisoformat(manifest["timestamp"]).tzinfo is not None

    def test_header_only_file_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("axis_value,rate\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3

    def test_headerless_file_fits_every_row(self, tmp_path):
        # Line 1 is a header unless it is two numbers; a file without one
        # keeps its first row and fits as the same rows under a header do.
        x = np.linspace(0.0, 1600.0, 20)
        rows = "".join(f"{float(a)!r},{1.0 + 0.9 * math.cos(2 * math.pi * a / 400.0)!r}\n" for a in x)
        reports = []
        for name, header in (("headed", "axis_value,rate\n"), ("headerless", "")):
            path = tmp_path / f"{name}.csv"
            path.write_text(header + rows)
            assert run(["fit", "--input", path, "--output", tmp_path / name]) == 0
            report = read_report(tmp_path / f"{name}.report.txt")
            assert report.pop("input") == str(path)
            reports.append(report)
        assert reports[0]["points"] == "20"
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("first", ["1,2,3", "1", "1.0,2.0,3.0,4.0"])
    def test_numeric_first_line_of_wrong_width_names_row_one(self, tmp_path, capsys, first):
        # A first line of numbers is data, not a header, whatever its width.
        rows = "".join(f"{a!r},{1.0 + math.cos(a / 64.0)!r}\n" for a in np.linspace(0.0, 1600.0, 65).tolist())
        path = tmp_path / "wide.csv"
        path.write_text(f"{first}\n{rows}")
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        width = first.count(",") + 1
        assert f"row 1 has {width} fields, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("first, named", [
        ("0.0,2.0x", "row 1 is not numeric: '0.0,2.0x'"),
        ("x,1.0", "row 1 is not numeric: 'x,1.0'"),
        ("1.0,y", "row 1 is not numeric: '1.0,y'"),
        ("1.0,y,z", "row 1 has 3 fields, expected 2"),
        ("axis_value,rate", None),
        ("foo,bar", None),
    ])
    def test_partly_numeric_first_line_is_row_one(self, tmp_path, capsys, first, named):
        # Line 1 is a header only if none of its fields is a number.
        rows = "".join(f"{a!r},{1.0 + math.cos(a / 64.0)!r}\n" for a in np.linspace(0.0, 1600.0, 65).tolist())
        path = tmp_path / "first.csv"
        path.write_text(f"{first}\n{rows}")
        code = run(["fit", "--input", path, "--output", tmp_path / "x"])
        if named is None:
            assert code == 0 and read_report(tmp_path / "x.report.txt")["points"] == "65"
        else:
            assert code == 3 and named in capsys.readouterr().err

    def test_headerless_non_finite_first_row_names_row_one(self, tmp_path, capsys):
        path = tmp_path / "gap.csv"
        path.write_text("nan,1.0\n" + "".join(f"{a!r},1.0\n" for a in np.linspace(1.0, 9.0, 9).tolist()))
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "row 1 " in err and "not finite" in err

    def test_malformed_row_names_the_row(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("axis_value,rate\n0.0,1.0\n1.0,oops\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_row_names_the_row(self, tmp_path, capsys, bad):
        x = np.linspace(0.0, 1600.0, 65)
        y = 1.0 + np.cos(2 * np.pi * x / 400.0)
        lines = [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
        lines[10] = f"{float(x[10])!r},{bad}"
        path = tmp_path / "gap.csv"
        path.write_text("axis_value,rate\n" + "\n".join(lines) + "\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "row 12" in err and "not finite" in err

    def test_zero_axis_span_is_data_error(self, tmp_path, capsys):
        rates = 1.0 + np.cos(np.linspace(0.0, 8.0 * np.pi, 33))
        path = tmp_path / "stuck.csv"
        path.write_text("axis_value,rate\n" + "".join(f"5.0,{float(r)!r}\n" for r in rates))
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        assert "scan axis spans zero: every axis value is 5.0" in capsys.readouterr().err


# One run of each CLI command on the default config.  The fit reads a
# fringe written by the test.
NO_AMPLITUDE_RUNS = {
    **{f"scan_{axis}": ["scan", "--config", "default", "--axis", axis, "--steps", 33]
       for axis in scenario.SCAN_AXIS_KINDS},
    **{f"sweep_{parameter}": ["sweep", "--config", "default", "--parameter", parameter, "--grid", grid]
       for parameter, grid in zip(SWEEP_PARAMETERS, ("1,3.4", "10,none", "0,300", "0.5,1"))},
    **{f"prepare_{target}": ["prepare", "--config", "default", "--target", target]
       for target in BELL_KINDS},
    "fit": ["fit", "--input", "{fringe}"],
}


@pytest.mark.parametrize("name", NO_AMPLITUDE_RUNS)
def test_no_command_builds_a_two_dimensional_amplitude(tmp_path, monkeypatch, name):
    # Every command takes its overlaps from the streamed kernel; the 2-D
    # amplitudes of ``biphoton`` serve only as the tests' reference.
    def refuse(*args, **kwargs):
        raise AssertionError("a CLI command built a 2-D amplitude")

    monkeypatch.setattr(biphoton.JointSpectralAmplitude, "__post_init__", refuse)
    monkeypatch.setattr(biphoton, "overlap", refuse)
    fringe = tmp_path / "fringe.csv"
    x = np.linspace(0.0, 1600.0, 65)
    fringe.write_text("".join(f"{a!r},{1.0 + math.cos(2 * math.pi * a / 400.0)!r}\n" for a in x.tolist()))
    argv = [str(a).replace("{fringe}", str(fringe)) for a in NO_AMPLITUDE_RUNS[name]]
    assert run(argv + ["--output", tmp_path / name]) == 0


class TestPrepareCommand:
    def test_phi_minus(self, tmp_path, config_file):
        out = tmp_path / "phim"
        assert run(["prepare", "--config", config_file, "--output", out,
                    "--target", "phi-"]) == 0
        report = read_report(out.with_name("phim.report.txt"))
        assert float(report["fidelity"]) > 0.999
        assert float(report["rate_at_knobs"]) < 1e-3

    def test_psi_plus_reports_waveplate(self, tmp_path, config_file):
        out = tmp_path / "psip"
        assert run(["prepare", "--config", config_file, "--output", out,
                    "--target", "psi+"]) == 0
        report = read_report(out.with_name("psip.report.txt"))
        assert report["hwp_inserted"] == "true"
        assert float(report["hwp_axis_deg"]) == 45.0
        assert float(report["fidelity"]) > 0.999

    def test_one_jsa_build_per_run(self, tmp_path, monkeypatch):
        # The pump knob only moves the carrier phase, so the solve and the
        # prepared state share one evaluation: one stream of the two-crystal
        # kernel.
        calls = []
        stream = spectral._Sampler
        monkeypatch.setattr(spectral, "_Sampler", lambda *a, **k: calls.append(1) or stream(*a, **k))
        assert run(["prepare", "--config", "default", "--output", tmp_path / "p",
                    "--target", "phi+"]) == 0
        assert len(calls) == 1

    def test_one_delay_budget_per_run(self, tmp_path, monkeypatch):
        # The solve, the prepared state and the reported compensation share
        # one delay budget: one cut-angle solve, which the default's two
        # crystals share.
        calls = []
        solve = scenario.phase_matching_cut_angle
        monkeypatch.setattr(scenario, "phase_matching_cut_angle", lambda *a, **k: calls.append(1) or solve(*a, **k))
        assert run(["prepare", "--config", "default", "--output", tmp_path / "p",
                    "--target", "psi-"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("target", ["phi+", "psi+", "psi-"])
    def test_uncompensated_is_infeasible(self, tmp_path, config_file, capsys, target):
        # The error names the state asked for, also for a psi target that is
        # prepared as its phi partner plus a half-wave plate.
        bare = tmp_path / "bare.yaml"
        text = config_file.read_text()
        start = text.index("compensator:")
        end = text.index("filters:")
        bare.write_text(text[:start] + "compensator: []\n\n" + text[end:])
        assert run(["prepare", "--config", bare, "--output", tmp_path / "x",
                    "--target", target]) == 4
        err = capsys.readouterr().err
        assert "overlap" in err
        assert f"cannot prepare {target}:" in err


    @staticmethod
    def _narrow_fine_config(config_file, tmp_path, points, span):
        # A 100 ps pump and 0.01 nm filters: the grid's step is so small that
        # the rounding of the absolute frequencies exceeds 1e-9 of it.
        text = config_file.read_text()
        for old, new in (("duration_fs: 80.0", "duration_fs: 100000.0"),
                         ("fwhm_nm: 10.0", "fwhm_nm: 0.01"),
                         ("grid_points: 128", f"grid_points: {points}"),
                         ("grid_span_factor: 5.0", f"grid_span_factor: {span}")):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "narrow.yaml"
        path.write_text(text)
        return path

    def test_narrow_fine_grid_is_uniform(self, tmp_path, config_file):
        narrow = self._narrow_fine_config(config_file, tmp_path, 2048, 8.0)
        out = tmp_path / "narrow"
        assert run(["prepare", "--config", narrow, "--output", out, "--target", "phi+"]) == 0
        report = read_report(out.with_name("narrow.report.txt"))
        assert float(report["visibility"]) > 0.999

    def test_narrow_coarse_span_stops_at_the_border_check(self, tmp_path, config_file, capsys):
        narrow = self._narrow_fine_config(config_file, tmp_path, 1024, 5.0)
        assert run(["prepare", "--config", narrow, "--output", tmp_path / "x",
                    "--target", "phi+"]) == 2
        err = capsys.readouterr().err
        assert "border" in err and "uniformly spaced" not in err
        assert "scan.grid_span_factor" in err


def _edited_config(config_file, tmp_path, old, new):
    path = tmp_path / "edited.yaml"
    text = config_file.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    return path


class TestBadInputExitCodes:
    COMMANDS = {
        "scan": [],
        "sweep": ["--parameter", "pump_ratio", "--grid", "0.5,1"],
        "prepare": ["--target", "phi+"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_infinite_crystal_thickness(self, tmp_path, config_file, capsys, command):
        bad = _edited_config(config_file, tmp_path, "thickness_mm: 3.4", "thickness_mm: .inf")
        out = tmp_path / "x"
        assert run([command, "--config", bad, "--output", out, *self.COMMANDS[command]]) == 2
        assert "thickness_mm" in capsys.readouterr().err
        assert not out.with_name("x.csv").exists()

    @pytest.mark.parametrize("points", [4, 100000])
    def test_grid_points_out_of_range(self, tmp_path, config_file, capsys, points):
        bad = _edited_config(config_file, tmp_path, "grid_points: 128", f"grid_points: {points}")
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert "scan.grid_points" in capsys.readouterr().err

    def test_negative_mean_counts(self, tmp_path, config_file, capsys):
        bad = _edited_config(config_file, tmp_path, "mean_counts: 1000.0", "mean_counts: -5")
        bad.write_text(bad.read_text().replace("noise: none", "noise: poisson"))
        assert run(["scan", "--config", bad, "--output", tmp_path / "x", "--seed", 3]) == 2
        assert "scan.mean_counts" in capsys.readouterr().err

    def test_mean_counts_beyond_the_poisson_range(self, tmp_path, config_file, capsys):
        bad = _edited_config(config_file, tmp_path, "mean_counts: 1000.0", "mean_counts: 1e300")
        bad.write_text(bad.read_text().replace("noise: none", "noise: poisson"))
        assert run(["scan", "--config", bad, "--output", tmp_path / "x", "--seed", 3]) == 2
        assert "scan.mean_counts" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("center_wavelength_nm: 400.0", "center_wavelength_nm: fast", "pump.center_wavelength_nm"),
        ("duration_fs: 80.0", "duration_fs: .nan", "pump.duration_fs"),
        ("thickness_mm: 3.4", "thickness_mm: thick", "crystals[0].thickness_mm"),
        ("fwhm_nm: 10.0", "fwhm_nm: [10]", "filters[0].fwhm_nm"),
        ("thickness_mm: 35.352", "thickness_mm: .nan", "compensator[0].thickness_mm"),
        ("thickness_mm: 3.057", "thickness_mm: -.inf", "knobs.idler_plate.thickness_mm"),
        ("signal_tilt_deg: 0.0", "signal_tilt_deg: null", "knobs.signal_tilt_deg"),
        ("pump_amplitude_ratio: 1.0", "pump_amplitude_ratio: .inf", "scheme.pump_amplitude_ratio"),
        ("steps: 129", "steps: 12.5", "scan.steps"),
        ("grid_span_factor: 5.0", "grid_span_factor: -1", "scan.grid_span_factor"),
        ("grid_span_factor: 5.0", "grid_span_factor: .nan", "scan.grid_span_factor"),
        # Domain checks of the config's objects, prefixed with the key path.
        ("thickness_mm: 3.4", "thickness_mm: -1", "crystals[0]: crystal thickness_mm must be positive"),
        ("signal_center_nm: 730.0", "signal_center_nm: 0", "crystals[0]: crystal signal_center_nm must be positive"),
        ("idler_center_nm: 885.0", "idler_center_nm: 900", "crystals[0].signal_center_nm/idler_center_nm: "
         "centers 730.0/900.0 nm violate energy conservation with the pump.center_wavelength_nm 400.0 nm pump"),
        ("center_wavelength_nm: 400.0", "center_wavelength_nm: 390", "crystals[0].signal_center_nm/idler_center_nm: "
         "centers 730.0/885.0 nm violate energy conservation with the pump.center_wavelength_nm 390.0 nm pump"),
        ("thickness_mm: 3.0", "thickness_mm: 0", "knobs.signal_plate: element thickness must be positive"),
        ("tilt_deg: 0.0}", "tilt_deg: 50}", "compensator[0]: |tilt| must be < 45 deg"),
        ("fwhm_nm: 10.0", "fwhm_nm: -3", "filters[0]: a filter needs"),
        ("pump_amplitude_ratio: 1.0", "pump_amplitude_ratio: -1",
         "scheme.pump_amplitude_ratio must be finite and >= 0, got -1.0"),
        ("axis_orientation: vertical\n    signal_center_nm", "axis_orientation: horizontal\n    signal_center_nm",
         "crystals[1].axis_orientation: the two crystals must have orthogonal axis orientations, "
         "got 'horizontal' and 'horizontal'"),
    ])
    def test_bad_number_names_the_key(self, tmp_path, config_file, capsys, old, new, key):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert key in capsys.readouterr().err

    FILTER_COMMANDS = [["scan"], ["prepare", "--target", "phi+"],
                       ["sweep", "--parameter", "crystal_length", "--grid", "1,3.4"]]

    @pytest.mark.parametrize("command", FILTER_COMMANDS)
    @pytest.mark.parametrize("center", ["1460", "365"])
    def test_filter_off_the_pair_spectrum_names_its_center(self, tmp_path, config_file, capsys, command, center):
        bad = _edited_config(config_file, tmp_path, "{center_nm: 730.0,", f"{{center_nm: {center},")
        assert run([*command, "--config", bad, "--output", tmp_path / "x"]) == 2
        assert (f"filters[0].center_nm {center} nm puts the signal filter's band outside the signal grid axis; "
                "set it near the signal center 730 nm") in capsys.readouterr().err

    @pytest.mark.parametrize("command", FILTER_COMMANDS)
    def test_plate_index_out_of_range_names_plate_and_center(self, tmp_path, config_file, capsys, command):
        # Pairs at 494.12 + 2100 nm: the idler plate's quartz is evaluated
        # past its 2050 nm range, at the first crystal's idler center.
        far = tmp_path / "far.yaml"
        far.write_text(config_file.read_text().replace("730.0", "494.12").replace("885.0", "2100.0"))
        assert run([*command, "--config", far, "--output", tmp_path / "x"]) == 2
        assert ("knobs.idler_plate at crystals[0].idler_center_nm: 2100.0 nm outside validity range "
                "[198.0, 2050.0] nm of material 'quartz'") in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, key", [
        pytest.param(command, old, key, id=f"{command[0]}-{key}")
        for old, key, commands in (("{material: quartz, thickness_mm: 35.352", "compensator[0]", FILTER_COMMANDS[:2]),
                                   ("signal_plate: {material: quartz, thickness_mm: 3.0", "knobs.signal_plate",
                                    FILTER_COMMANDS))
        for command in commands
    ])
    def test_overflowing_element_prints_only_its_error(self, tmp_path, config_file, capsys, command, old, key):
        # Twice in one process, as Python prints a warning once per source
        # line: each run's stderr is the one error line, naming the element's
        # thickness.  A sweep replaces the compensator, so only a plate fails it.
        bad = _edited_config(config_file, tmp_path, old, old.rsplit(" ", 1)[0] + " 1.0e+308")
        prefix = "sweep crystal_length value 1.0: " if command[0] == "sweep" else ""
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            for _ in range(2):
                assert run([*command, "--config", bad, "--output", tmp_path / "x"]) == 2
                assert capsys.readouterr().err == (f"error: {prefix}{key}.thickness_mm: the delay across the element "
                                                   "overflows a float; got 1e+308 mm\n")

    @pytest.mark.parametrize("command", FILTER_COMMANDS)
    def test_mildly_detuned_filter_runs(self, tmp_path, config_file, command):
        edited = _edited_config(config_file, tmp_path, "{center_nm: 730.0,", "{center_nm: 735.0,")
        assert run([*command, "--config", edited, "--output", tmp_path / "x"]) == 0

    @pytest.mark.parametrize("old, new, context", [
        ("pump:\n", "pump: 5\nold_pump:\n", "pump"),
        ("knobs:\n", "knobs: 5\nold_knobs:\n", "knobs"),
        ("signal_plate: {material: quartz, thickness_mm: 3.0, axis_orientation: vertical}", "signal_plate: 0",
         "knobs.signal_plate"),
        ("signal_plate: {material: quartz, thickness_mm: 3.0, axis_orientation: vertical}", "signal_plate: 5",
         "knobs.signal_plate"),
        ("scan:\n", "scan: 5\nold_scan:\n", "scan"),
        ("- {center_nm: 730.0, fwhm_nm: 10.0, shape: gaussian}", "- 5", "filters[0]"),
    ])
    def test_section_that_is_not_a_mapping(self, tmp_path, config_file, capsys, old, new, context):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert f"{context!r} must be a mapping" in capsys.readouterr().err

    PLATE = "thickness_mm: 3.0, axis_orientation: vertical}"

    @pytest.mark.parametrize("old, new, message", [
        ("pump:\n", "pupm: 1\npump:\n", "pupm is not a key of the config root; known: pump, crystals, compensator, "
         "filters, scheme, knobs, scan"),
        ("duration_fs: 80.0", "duration_fs: 80.0\n  durations_fs: 80.0",
         "pump.durations_fs is not a key of 'pump'; known: center_wavelength_nm, duration_fs, "
         "polarization_angle_deg"),
        ("thickness_mm: 3.4", "thickness_mm: 3.4\n    thickness: 3.4",
         "crystals[0].thickness is not a key of 'crystals[0]'; known: material, thickness_mm"),
        ("thickness_mm: 35.352,", "thickness_mm: 35.352, tilt: 1,",
         "compensator[0].tilt is not a key of 'compensator[0]'; known: material, thickness_mm, "
         "axis_orientation, tilt_deg"),
        ("fwhm_nm: 10.0, shape: gaussian}", "fwhm: 10.0, fwhm_nm: 10.0, shape: gaussian}",
         "filters[0].fwhm is not a key of 'filters[0]'; known: center_nm, fwhm_nm, shape"),
        ("- {center_nm: 730.0, fwhm_nm: 10.0, shape: gaussian}", "- {shape: none, width: 1}",
         "filters[0].width is not a key of 'filters[0]'; known: center_nm, fwhm_nm, shape"),
        ("kind: collinear", "kind: collinear\n  cross_dispersions: true",
         "scheme.cross_dispersions is not a key of 'scheme'; known: kind, cross_dispersion, pump_amplitude_ratio"),
        ("pump_delta_x_nm: 0.0", "pump_delta_x: 0.0", "knobs.pump_delta_x is not a key of 'knobs'; known: "
         "pump_delta_x_nm, signal_tilt_deg, idler_tilt_deg, signal_plate, idler_plate"),
        (PLATE, PLATE.replace("}", ", tilt_deg: 20}"), "knobs.signal_plate.tilt_deg is not a key of "
         "'knobs.signal_plate'; known: material, thickness_mm, axis_orientation; its tilt is knobs.signal_tilt_deg"),
        ("steps: 129", "stesp: 33", "scan.stesp is not a key of 'scan'; known: axis_kind, start, stop, steps"),
    ], ids=["root", "pump", "crystal", "compensator", "filter", "filter_none", "scheme", "knobs", "knob_plate",
            "scan"])
    def test_unknown_key_names_its_path_and_the_known_keys(self, tmp_path, config_file, capsys, old, new,
                                                           message):
        bad = _edited_config(config_file, tmp_path, old, new)
        out = tmp_path / "x"
        assert run(["scan", "--config", bad, "--output", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.with_name("x.csv").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("old, new, named", [
        ("signal_tilt_deg: 0.0", "signal_tilt_deg: 50", "knobs.signal_tilt_deg: |tilt| must be < 45 deg, got 50.0"),
        ("idler_tilt_deg: 0.0", "idler_tilt_deg: -45", "knobs.idler_tilt_deg: |tilt| must be < 45 deg, got -45.0"),
        ("pump_delta_x_nm: 0.0", "pump_delta_x_nm: 1e308",
         "knobs.pump_delta_x_nm: the pump-knob phase 2 pi dx / lambda_p overflows"),
    ], ids=["signal_tilt", "idler_tilt", "pump_knob"])
    def test_bad_knob_names_the_key(self, tmp_path, config_file, capsys, command, old, new, named):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run([command, "--config", bad, "--output", tmp_path / "x", *self.COMMANDS[command]]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("start, stop", [("1e308", "1.5e308"), ("-1.7e308", "0")])
    def test_overflowing_pump_scan_names_the_range(self, tmp_path, config_file, capsys, start, stop):
        out = tmp_path / "x"
        assert run(["scan", "--config", config_file, "--output", out, f"--start={start}", f"--stop={stop}"]) == 2
        assert ("scan.start/scan.stop: the pump-knob phase 2 pi dx / lambda_p overflows"
                in capsys.readouterr().err)
        assert not out.with_name("x.csv").exists()

    @pytest.mark.parametrize("value", ["5", "{a: 1}"])
    def test_compensator_that_is_not_a_list(self, tmp_path, config_file, capsys, value):
        bad = _edited_config(config_file, tmp_path, "compensator:\n", f"compensator: {value}\nold_compensator:\n")
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert "config section 'compensator' must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["signal_tilt", "idler_tilt", "both_tilts"])
    def test_scanned_tilt_beyond_bound(self, tmp_path, config_file, capsys, axis):
        out = tmp_path / "x"
        assert run(["scan", "--config", config_file, "--output", out, "--axis", axis,
                    "--start", 30, "--stop", 50]) == 2
        assert "|tilt| must be < 45" in capsys.readouterr().err
        assert not out.with_name("x.csv").exists()

    @pytest.mark.parametrize("axis", ["pump_delay", "signal_tilt"])
    @pytest.mark.parametrize("start, stop", [("-inf", "5"), ("0", "inf"), ("nan", "5"), ("-1.7e308", "1.7e308")])
    def test_non_finite_scan_range(self, tmp_path, config_file, capsys, axis, start, stop):
        out = tmp_path / "x"
        assert run(["scan", "--config", config_file, "--output", out, "--axis", axis,
                    f"--start={start}", f"--stop={stop}"]) == 2
        assert "scan range must be finite" in capsys.readouterr().err
        assert not out.with_name("x.csv").exists()

    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_value_names_the_token(self, tmp_path, config_file, capsys,
                                                    parameter, token):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--config", config_file, "--output", tmp_path / "x",
                        "--parameter", parameter, f"--grid=1,{token}"])
        assert code == 2
        assert f"bad sweep grid value {token!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("thickness_mm: 3.4", "thickness_mm: true", "crystals[0].thickness_mm"),
        ("steps: 129", "steps: false", "scan.steps"),
        ("cross_dispersion: false", "cross_dispersion: fast", "scheme.cross_dispersion"),
        ("cross_dispersion: false", "cross_dispersion: 1", "scheme.cross_dispersion"),
    ])
    def test_wrong_type_names_the_key(self, tmp_path, config_file, capsys, old, new, key):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("kind: collinear", "kind: [1.0]", "scheme.kind"),
        ("material: BBO", "material: {name: BBO}", "crystals[0].material"),
        ("axis_orientation: horizontal\n", "axis_orientation: [horizontal]\n", "crystals[0].axis_orientation"),
        ("material: quartz, thickness_mm: 35.352", "material: [quartz], thickness_mm: 35.352",
         "compensator[0].material"),
        ("axis_orientation: vertical}", "axis_orientation: 1}", "knobs.signal_plate.axis_orientation"),
        ("shape: gaussian}", "shape: [gaussian]}", "filters[0].shape"),
        ("axis_kind: pump_delay", "axis_kind: {pump: delay}", "scan.axis_kind"),
        ("noise: none", "noise: [poisson]", "scan.noise"),
    ])
    def test_bad_choice_names_the_key(self, tmp_path, config_file, capsys, old, new, key):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert f"{key} must be one of" in capsys.readouterr().err

    def test_too_wide_sweep_filter_names_width_and_center(self, tmp_path, config_file, capsys):
        assert run(["sweep", "--config", config_file, "--output", tmp_path / "x",
                    "--parameter", "filter_fwhm", "--grid", "10,3000"]) == 2
        err = capsys.readouterr().err
        assert "0 < fwhm_nm < 2 x center_nm" in err and "fwhm_nm 3000.0 at center_nm 730.0" in err

    @pytest.mark.parametrize("old, new, message", [
        ("- {center_nm: 730.0, fwhm_nm: 10.0", "- {center_nm: 730.0, fwhm_nm: 3000",
         "fwhm_nm 3000.0 at center_nm 730.0"),
        ("- {center_nm: 730.0, fwhm_nm: 10.0", "- {center_nm: -730, fwhm_nm: 10.0",
         "got fwhm_nm 10.0 at center_nm -730.0"),
    ])
    def test_impossible_config_filter_names_width_and_center(self, tmp_path, config_file, capsys,
                                                              old, new, message):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["start", "stop"])
    def test_lone_scan_range_end(self, tmp_path, config_file, capsys, key):
        bad = _edited_config(config_file, tmp_path, "steps: 129", f"{key}: 100.0\n  steps: 129")
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        err = capsys.readouterr().err
        assert "scan.start" in err and "scan.stop" in err
        assert not (tmp_path / "x.csv").exists()

    PREPARE = ["prepare", "--target", "phi+"]
    GAUSSIAN_FILTERS = "shape: gaussian}\n  - {center_nm: 885.0, fwhm_nm: 10.0, shape: gaussian}"
    COMPENSATION_SWEEP = ["sweep", "--parameter", "compensation_error_fs", "--grid"]

    @pytest.mark.parametrize("old, new, command, named", [
        ("grid_span_factor: 5.0", "grid_span_factor: 0.5", PREPARE, "scan.grid_span_factor"),
        ("fwhm_nm: 10.0", "fwhm_nm: 0.1", PREPARE, "scan.grid_points"),
        # Rectangular filters bound no time support: the delay sizes the grid.
        (GAUSSIAN_FILTERS, GAUSSIAN_FILTERS.replace("gaussian", "rectangular"),
         COMPENSATION_SWEEP + ["0,30000"], "scan.grid_span_factor"),
    ], ids=["span", "resolution", "rectangular_cap"])
    def test_grid_errors_name_the_key(self, tmp_path, config_file, capsys, old, new, command, named):
        config = _edited_config(config_file, tmp_path, old, new)
        assert run([command[0], "--config", config, "--output", tmp_path / "x", *command[1:]]) == 2
        err = capsys.readouterr().err
        assert named in err and "widen the cap" not in err
        assert len(err) < 250

    @pytest.mark.parametrize("error, bound", [("30000", 1e-10), ("1e300", 0.0)])
    def test_delays_beyond_the_kernel_support_read_zero(self, tmp_path, config_file, error, bound):
        out = tmp_path / "x"
        assert run(["sweep", "--config", config_file, "--output", out,
                    *self.COMPENSATION_SWEEP[1:], f"0,{error}"]) == 0
        rows = out.with_name("x.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[1]) for row in rows]
        assert values[0] > 0.999 and 0.0 <= values[1] <= bound

    def test_sweep_value_error_names_parameter_and_value(self, tmp_path, config_file, capsys):
        assert run(["sweep", "--config", config_file, "--output", tmp_path / "x",
                    "--parameter", "crystal_length", "--grid=1,0"]) == 2
        err = capsys.readouterr().err
        assert "sweep crystal_length value 0.0: crystal thickness_mm must be positive, got 0.0" in err
        assert not (tmp_path / "x.csv").exists()

    def test_scan_steps_bound(self, tmp_path, config_file, capsys):
        too_many = scenario.MAX_SCAN_STEPS + 1
        assert run(["scan", "--config", config_file, "--output", tmp_path / "x",
                    "--steps", too_many]) == 2
        bad = _edited_config(config_file, tmp_path, "steps: 129", f"steps: {too_many}")
        assert run(["scan", "--config", bad, "--output", tmp_path / "y"]) == 2
        err = capsys.readouterr().err
        assert err.count(f"scan needs 2 to {scenario.MAX_SCAN_STEPS} (MAX_SCAN_STEPS) steps") == 2

    @pytest.mark.parametrize("command", ["sweep", "prepare"])
    @pytest.mark.parametrize("new, named", [
        ("steps: 1", "scan.steps: scan needs 2 to"),
        ("start: 5.0\n  stop: 5.0\n  steps: 129", "scan.start/scan.stop: scan range must be finite"),
    ], ids=["one_step", "empty_range"])
    def test_every_command_checks_the_scan_section(self, tmp_path, config_file, capsys, command, new, named):
        bad = _edited_config(config_file, tmp_path, "steps: 129", new)
        assert run([command, "--config", bad, "--output", tmp_path / "x", *self.COMMANDS[command]]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--steps", 1], "scan.steps: scan needs 2 to 4096 (MAX_SCAN_STEPS) steps, got 1 (set by --steps)"),
        (["--start", 5, "--stop", 5], "scan.start/scan.stop: scan range must be finite with stop > start, "
                                      "got (5.0, 5.0) (set by --start/--stop)"),
    ], ids=["steps", "range"])
    def test_scan_flag_errors_name_key_and_flag(self, tmp_path, config_file, capsys, flags, named):
        assert run(["scan", "--config", config_file, "--output", tmp_path / "x", *flags]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("old, new, command, named", [
        ("duration_fs: 80.0", "duration_fs: 1e300", ["scan"], "check pump.duration_fs"),
        ("fwhm_nm: 10.0", "fwhm_nm: 1e-300", ["scan"], "check filters[0].fwhm_nm and center_nm"),
        ("thickness_mm: 3.4", "thickness_mm: 1e300", ["sweep", *COMMANDS["sweep"]], "crystal of thickness_mm 1e+300"),
        ("thickness_mm: 3.4", "thickness_mm: 1e300", ["sweep", "--parameter", "filter_fwhm", "--grid", "5"],
         "crystal of thickness_mm 1e+300"),
        ("thickness_mm: 3.4", "thickness_mm: 1e300", ["scan"], "on any grid span; reduce the delay and check "
         "every thickness_mm (crystals, compensator, knob plates)"),
        ("thickness_mm: 3.4", "thickness_mm: 1e300", PREPARE, "on any grid span; reduce the delay and check "
         "every thickness_mm (crystals, compensator, knob plates)"),
    ], ids=["pump_duration", "filter_width", "thickness_pump_ratio", "thickness_filter_fwhm", "thickness_scan",
            "thickness_prepare"])
    def test_extreme_magnitudes_name_the_key(self, tmp_path, config_file, capsys, old, new, command, named):
        bad = _edited_config(config_file, tmp_path, old, new)
        assert run([command[0], "--config", bad, "--output", tmp_path / "x", *command[1:]]) == 2
        err = capsys.readouterr().err
        assert named in err and "raise scan.grid_points" not in err

    def test_sweep_value_bound(self, tmp_path, config_file, capsys):
        grid = ",".join(["0"] * (scenario.MAX_SCAN_STEPS + 1))
        assert run(["sweep", "--config", config_file, "--output", tmp_path / "x",
                    "--parameter", "compensation_error_fs", "--grid", grid]) == 2
        assert f"1 to {scenario.MAX_SCAN_STEPS} (MAX_SCAN_STEPS) values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "sweep", "fit", "prepare"])
    @pytest.mark.parametrize("blocked", ["file_as_directory", "directory_as_file"])
    def test_unwritable_output_names_the_flag(self, tmp_path, config_file, capsys, command, blocked):
        if blocked == "file_as_directory":
            (tmp_path / "plain").write_text("")
            out = tmp_path / "plain" / "x"
        else:
            (tmp_path / "x.report.txt").mkdir()
            out = tmp_path / "x"
        if command == "fit":
            rows = "".join(f"{float(a)!r},{1.0 + math.cos(a / 64.0)!r}\n" for a in np.linspace(0.0, 1600.0, 65))
            (tmp_path / "fringe.csv").write_text("axis_value,rate\n" + rows)
            args = ["--input", tmp_path / "fringe.csv"]
        else:
            args = ["--config", config_file, *self.COMMANDS[command]]
        assert run([command, "--output", out, *args]) == 2
        assert capsys.readouterr().err.startswith("error: --output: cannot ")

    def _argv(self, tmp_path, config_file, command):
        """The arguments of ``command`` other than --output."""
        if command != "fit":
            return [command, "--config", config_file, *self.COMMANDS[command]]
        rows = "".join(f"{float(a)!r},{1.0 + math.cos(a / 64.0)!r}\n" for a in np.linspace(0.0, 1600.0, 65))
        (tmp_path / "fringe.csv").write_text("axis_value,rate\n" + rows)
        return [command, "--input", tmp_path / "fringe.csv"]

    @pytest.mark.parametrize("command", ["scan", "sweep", "fit", "prepare"])
    @pytest.mark.parametrize("prefix", ["", ".", "/", ".."])
    def test_output_naming_no_file_writes_nothing(self, tmp_path, config_file, monkeypatch, capsys,
                                                  command, prefix):
        argv = self._argv(tmp_path, config_file, command)
        work = tmp_path / "work" / "here"
        work.mkdir(parents=True)
        monkeypatch.chdir(work)
        before = sorted(tmp_path.rglob("*"))
        assert run([*argv, "--output", prefix]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --output: {prefix!r} names no file"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["scan", "sweep", "fit", "prepare"])
    def test_unwritable_first_file_leaves_an_empty_manifest(self, tmp_path, config_file, capsys, command):
        out = tmp_path / "x"
        out.with_name("x.report.txt" if command in ("fit", "prepare") else "x.csv").mkdir()
        assert run([*self._argv(tmp_path, config_file, command), "--output", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --output: cannot write ")
        manifest = read_report(out.with_name("x.manifest.txt"))
        assert manifest["command"] == command
        assert manifest["output_paths"] == ""

    def test_negative_seed_with_poisson_noise(self, tmp_path, config_file, capsys):
        noisy = _edited_config(config_file, tmp_path, "noise: none", "noise: poisson")
        assert run(["scan", "--config", noisy, "--output", tmp_path / "x", "--seed", -5]) == 2
        assert "--seed must be >= 0 for poisson noise, got -5" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_invalid_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("pump: [unclosed\n")
        assert run(["scan", "--config", bad, "--output", tmp_path / "x"]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_fit_axis_span_past_the_float_range(self, tmp_path, capsys):
        # A 2.5-period fringe on -1e308 to 1e308: every value is finite, but
        # the span is not.  The one error line names it; no warning.
        ts = [2.0 * k / 63 - 1.0 for k in range(64)]
        rows = "".join(f"{1e308 * t!r},{1.0 + 0.5 * math.cos(2.5 * math.pi * t)!r}\n" for t in ts)
        (tmp_path / "wide.csv").write_text("axis_value,rate\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--input", tmp_path / "wide.csv", "--output", tmp_path / "x"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: scan axis span overflows a float: the axis runs from -1e+308 to 1e+308; rescale the axis"]
        assert not (tmp_path / "x.report.txt").exists()


# Fit CSV inputs and what ``cli._read_csv`` gives for each: the (axis,
# rates) rows, or the DataError text after "<path>: ".  The texts are the
# row-by-row reader's, which the one-parse reader must keep.
CSV_CASES = {
    "header": (b"axis_value,rate\n1,2\n3,4\n", [(1.0, 2.0), (3.0, 4.0)]),
    "no header": (b"1,2\n3,4\n", [(1.0, 2.0), (3.0, 4.0)]),
    "blank lines": (b"\n\naxis,rate\n\n1,2\n  \n3,4\n\n", [(1.0, 2.0), (3.0, 4.0)]),
    "CRLF": (b"axis,rate\r\n1,2\r\n3,4\r\n", [(1.0, 2.0), (3.0, 4.0)]),
    "CR": (b"axis,rate\r1,2\r3,4\r", [(1.0, 2.0), (3.0, 4.0)]),
    "padded fields": (b"axis , rate\n 1 , 2 \n\t3,4\t\n", [(1.0, 2.0), (3.0, 4.0)]),
    "underscores": (b"1_0,2\n3,4_5\n", [(10.0, 2.0), (3.0, 45.0)]),
    "subnormal and signed zero": (b"5e-324,-0.0\n.5,1e-400\n", [(5e-324, -0.0), (0.5, 0.0)]),
    "UTF-8 BOM before the header": (b"\xef\xbb\xbfaxis,rate\r\n1,2\r\n", [(1.0, 2.0)]),
    "three-field header": (b"a,b,c\n1,2\n", [(1.0, 2.0)]),
    "1 field": (b"a,b\n1\n3,4\n", "row 2 has 1 fields, expected 2"),
    "3 fields": (b"a,b\n1,2\n3,4,5\n", "row 3 has 3 fields, expected 2"),
    "1 and 3 fields": (b"a,b\n1\n2,3,4\n", "row 2 has 1 fields, expected 2"),
    "numeric field in line 1": (b"x,1\n3,4\n", "row 1 is not numeric: 'x,1'"),
    "3 numbers in line 1": (b"1,2,3\n3,4\n", "row 1 has 3 fields, expected 2"),
    "empty field": (b"1,\n3,4\n", "row 1 is not numeric: '1,'"),
    "bad later row": (b"a,b\n1,2\n3,4\n5,x\n", "row 4 is not numeric: '5,x'"),
    "nan": (b"1,2\nnan,4\n", "row 2 is not finite: 'nan,4'"),
    "inf": (b"1,2\n3,inf\n", "row 2 is not finite: '3,inf'"),
    "1e400": (b"1,2\n1e400,4\n", "row 2 is not finite: '1e400,4'"),
    "BOM before a number": (b"\xef\xbb\xbf1,2\n3,4\n", [(1.0, 2.0), (3.0, 4.0)]),
    "header only": (b"axis,rate\n", "no data rows after the header"),
    "empty file": (b"", "empty file"),
    "blank lines only": (b"\n \n", "empty file"),
    "not UTF-8": (b"\xff\xfe1,2\n", "not UTF-8 text: invalid start byte at byte offset 0"),
    "bad byte later": (b"1,2\n3,\xe94\n", "not UTF-8 text: invalid continuation byte at byte offset 6"),
}


class TestReadCsv:
    @pytest.mark.parametrize("name", CSV_CASES)
    def test_rows_or_error(self, tmp_path, name):
        data, expected = CSV_CASES[name]
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        if isinstance(expected, str):
            with pytest.raises(cli.DataError) as info:
                cli._read_csv(path)
            assert str(info.value) == f"{path}: {expected}"
        else:
            axis, rates = cli._read_csv(path)
            want = np.array(expected).T
            assert axis.tobytes() == want[0].tobytes() and rates.tobytes() == want[1].tobytes()
            assert axis.flags.c_contiguous and rates.flags.c_contiguous

    def test_every_float_repr_reads_as_float_reads_it(self, tmp_path):
        rng = np.random.default_rng(33)
        values = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(float)
        values = values[np.isfinite(values)]
        path = tmp_path / "in.csv"
        path.write_text("".join(f"{v!r},{v:.12e}\n" for v in values.tolist()))
        axis, rates = cli._read_csv(path)
        assert axis.tobytes() == values.tobytes()
        assert rates.tolist() == [float(f"{v:.12e}") for v in values]


class TestInputEncoding:
    def test_fit_csv_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfeaxis,rate\n1,2\n")
        assert run(["fit", "--input", path, "--output", tmp_path / "x"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not UTF-8 text: invalid start byte at byte offset 0"]

    def test_config_that_is_not_utf8(self, tmp_path, config_file, capsys):
        data = config_file.read_bytes()
        at = data.index(b"BBO") + 1
        config_file.write_bytes(data[:at] + b"\xff" + data[at:])
        assert run(["scan", "--config", config_file, "--output", tmp_path / "x"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: config {config_file} is not UTF-8 text: invalid start byte at byte offset {at}"]

    def test_crlf_config_parses_as_its_lf_twin(self, tmp_path, config_file):
        crlf = tmp_path / "crlf.yaml"
        crlf.write_bytes(config_file.read_bytes().replace(b"\n", b"\r\n"))
        assert scenario.load_config(crlf) == scenario.load_config(config_file)

    def test_bom_crlf_fit_csv_fits_as_its_lf_twin(self, tmp_path):
        ts = np.linspace(-1.0, 1.0, 64).tolist()
        text = "axis_value,rate\n" + "".join(f"{t!r},{1.0 + 0.5 * math.cos(2.5 * math.pi * t)!r}\n" for t in ts)
        reports = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode()):
            (tmp_path / "in.csv").write_bytes(data)
            assert run(["fit", "--input", tmp_path / "in.csv", "--output", tmp_path / "x"]) == 0
            reports.append((tmp_path / "x.report.txt").read_text())
        assert reports[0] == reports[1]


class TestTinyFitAxis:
    def test_axis_whose_gram_matrix_underflows_is_data_error(self, tmp_path, capsys):
        ts = np.linspace(-1.0, 1.0, 129).tolist()
        rows = "".join(f"{1e-300 * t!r},{1.0 + 0.9 * math.cos(6.0 * math.pi * t)!r}\n" for t in ts)
        (tmp_path / "tiny.csv").write_text("axis_value,rate\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["fit", "--input", tmp_path / "tiny.csv", "--output", tmp_path / "x"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: the fit's Gram matrix underflows a float on a scan axis spanning 2e-300; rescale the axis"]
        assert not (tmp_path / "x.report.txt").exists()


def _frozen_walk(value, path="config"):
    """The key paths under ``value`` that are not a frozen dataclass, a
    tuple or a scalar."""
    if is_dataclass(value):
        if not value.__dataclass_params__.frozen:
            return [f"{path}: {type(value).__name__} is not frozen"]
        return [bad for f in fields(value) for bad in _frozen_walk(getattr(value, f.name), f"{path}.{f.name}")]
    if isinstance(value, tuple):
        return [bad for k, item in enumerate(value) for bad in _frozen_walk(item, f"{path}[{k}]")]
    if value is None or isinstance(value, (bool, int, float, str)):
        return []
    return [f"{path}: {type(value).__name__}"]


class TestInProcessReuse:
    """``main`` shares its parser and parsed configs across the commands of
    one process; nothing a command reads may carry over to the next."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parsed_config_is_immutable_throughout(self):
        config = scenario.load_config(scenario.default_config_path())
        assert _frozen_walk(config) == []

    def test_same_text_shares_one_config(self, tmp_path, config_file):
        copy = tmp_path / "copy.yaml"
        copy.write_text(config_file.read_text())
        assert scenario.load_config(copy) is scenario.load_config(config_file)

    def test_rewritten_config_is_read_again(self, tmp_path, config_file):
        out = tmp_path / "scan"
        for analyzer2 in ("45.0", "135.0", "45.0"):
            config_file.write_text(scenario.default_config_path().read_text().replace(
                "analyzer2_deg: 45.0", f"analyzer2_deg: {analyzer2}"))
            assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 0
            assert read_report(out.with_name("scan.report.txt"))["analyzer2_deg"] == analyzer2

    @pytest.mark.parametrize("old, new, named", [
        ("pump:\n", "pump: [unclosed\n", None),
        ("  duration_fs:", "  colour: blue\n  duration_fs:", "pump.colour is not a key of 'pump'"),
    ])
    def test_bad_config_fails_on_every_call(self, tmp_path, config_file, capsys, old, new, named):
        # The file parses first, so an edit that breaks it must not be
        # answered from the earlier text.
        out = tmp_path / "x"
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 0
        capsys.readouterr()
        text = config_file.read_text()
        assert old in text
        config_file.write_text(text.replace(old, new, 1))
        errors = []
        for _ in range(2):
            assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        if named is None:
            # The YAML positions name the file, as the message's start does.
            assert f"config {config_file} is not valid YAML" in errors[0]
            assert f'in "{config_file}", line ' in errors[0]
            assert "<unicode string>" not in errors[0]
        else:
            assert named in errors[0]

    def test_scan_flags_do_not_carry_over(self, tmp_path, config_file):
        out = tmp_path / "scan"
        assert run(["scan", "--config", config_file, "--output", out, "--steps", 33]) == 0
        assert len(out.with_name("scan.csv").read_text().splitlines()) == 34
        assert run(["scan", "--config", config_file, "--output", out]) == 0
        assert len(out.with_name("scan.csv").read_text().splitlines()) == 130
        assert read_report(out.with_name("scan.report.txt"))["steps"] == "129"


def _outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``, a usage error's too."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


DISPATCH_ARGVS = {
    "none": [],
    "version": ["--version"],
    "help": ["-h"],
    "command_help": ["scan", "-h"],
    "unknown_command": ["scna", "--config", "default", "--output", "{out}"],
    "bad_axis_choice": ["scan", "--config", "default", "--output", "{out}", "--axis", "sideways"],
    "missing_output": ["scan", "--config", "default"],
    "unrecognized_option": ["scan", "--config", "default", "--output", "{out}", "--colour", "blue"],
    "version_after_command": ["scan", "--version"],
    "stray_positional": ["prepare", "--config", "default", "--output", "{out}", "--target", "phi+", "stray"],
    "abbreviation": ["prepare", "--conf", "default", "--output", "{out}", "--target", "phi-"],
    "bad_seed": ["scan", "--config", "default", "--output", "{out}", "--seed", "x"],
    "start_without_stop": ["scan", "--config", "default", "--output", "{out}", "--start", "-5"],
    "missing_fit_input": ["fit", "--input", "{out}.missing.csv", "--output", "{out}"],
    "sweep_without_grid": ["sweep", "--config", "default", "--output", "{out}", "--parameter", "pump_ratio"],
    "valid_prepare": ["prepare", "--config", "default", "--output", "{out}", "--target", "psi+"],
}


class TestDispatch:
    """``main`` parses with the named command's parser alone, and falls back
    to the full parser: what it gives equals the full parser's path."""

    @pytest.mark.parametrize("name", DISPATCH_ARGVS)
    def test_same_outcome_as_the_full_parser(self, tmp_path, monkeypatch, capsys, name):
        argv = [arg.format(out=tmp_path / "x") for arg in DISPATCH_ARGVS[name]]
        got = _outcome(argv, capsys)
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert got == _outcome(argv, capsys)
        assert got[0] == (0 if name in ("version", "help", "command_help", "abbreviation", "valid_prepare")
                          else 3 if name == "missing_fit_input" else 2)

    def test_unrecognized_argument_has_the_full_usage(self, tmp_path, capsys):
        code, _, err = _outcome(["scan", "--config", "default", "--output", tmp_path / "x", "--colour", "blue"],
                                capsys)
        assert code == 2
        assert err.startswith("usage: bellsim [-h] [--version] ")
        assert err.endswith("bellsim: error: unrecognized arguments: --colour blue\n")

    def test_default_config_path_resolved_once_per_process(self, tmp_path, monkeypatch):
        from importlib import resources

        scenario.load_config(scenario.default_config_path())  # the material table is loaded too
        scenario.default_config_path.cache_clear()
        calls = []
        files = resources.files
        monkeypatch.setattr(resources, "files", lambda package: calls.append(package) or files(package))
        for target in ("phi+", "psi-"):
            assert run(["prepare", "--config", "default", "--output", tmp_path / target, "--target", target]) == 0
            manifest = read_report(tmp_path / f"{target}.manifest.txt")
            assert manifest["config_path"] == str(scenario.default_config_path())
        assert calls == ["bellsim.data"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child process imports the same bellsim as this one.
        src = str(Path(bellsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run(
            [sys.executable, "-m", "bellsim", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "bellsim" in result.stdout
