"""Run 19 CLI commands on 9 configs and keep what each one writes.

Usage: python tests/cli_matrix.py SRC OUTDIR | --compare DIR_A DIR_B

The commands cover all four of the CLI: 5 scan axes, a fit of each scan's
CSV, a fit of the pump_delay scan's CSV without its header line, 4 sweeps
and 4 prepare targets.  The configs are edits of the packaged
default (``CONFIGS``); the last, both filters rectangular, keeps the numbers
of a source whose passbands the grid samples coarsely.

SRC is a bellsim checkout (the directory holding ``src/bellsim``); OUTDIR
receives one directory per config, holding each command's CSV, report, exit
code and stderr.  Manifests carry a timestamp and are not kept.  Running it
on two checkouts and comparing with ``diff -r`` shows every output that a
change moves.

``--compare DIR_A DIR_B`` sizes those moves: for each file whose text
differs it prints how many numbers changed and the largest absolute and
relative change, then the largest of each per file kind (CSV, report,
stderr).  It exits 1 on any structural difference: a file on one side only,
another exit code, another row count, or other text once every finite
number is set aside (report keys, messages, nan).  The file name keeps
pytest from collecting it.
"""

import contextlib
import copy
import io
import os
import re
import sys
import warnings
from pathlib import Path

import yaml


def _flipped(data):
    data["crystals"].reverse()


def _mzi(data):
    data["scheme"]["kind"] = "mzi"
    data["compensator"] = []


def _tilted(data):
    data["knobs"].update(signal_tilt_deg=12.0, idler_tilt_deg=-21.0)


def _horizontal_signal_plate(data):
    data["knobs"]["signal_plate"]["axis_orientation"] = "horizontal"


def _vertical_compensator_plate(data):
    data["compensator"][1]["axis_orientation"] = "vertical"


def _unequal(data):
    data["crystals"][1]["thickness_mm"] = 2.0


def _cross_dispersion(data):
    data["scheme"]["cross_dispersion"] = True


def _rectangular_filters(data):
    for entry in data["filters"]:
        entry["shape"] = "rectangular"


# Config name -> its edit of the packaged default.
CONFIGS = {
    "default": lambda data: None,
    "mzi": _mzi,
    "tilted_knobs": _tilted,
    "horizontal_signal_plate": _horizontal_signal_plate,
    "vertical_compensator_plate": _vertical_compensator_plate,
    "flipped_crystals": _flipped,
    "unequal_crystals": _unequal,
    "cross_dispersion": _cross_dispersion,
    "rectangular_filters": _rectangular_filters,
}

SCAN_AXES = ("pump_delay", "signal_tilt", "idler_tilt", "both_tilts", "analyzer2_angle")
SWEEPS = {
    "crystal_length": "0.5,1,2,3.4,5",
    "filter_fwhm": "3,10,20,none",
    "compensation_error_fs": "-700,-300,0,100,300,600,1000,1500,3000",
    "pump_ratio": "0,0.5,1,2",
}
TARGETS = {"phi_plus": "phi+", "phi_minus": "phi-", "psi_plus": "psi+", "psi_minus": "psi-"}

# Command name -> its arguments, "{config}" standing for the config's
# directory; a fit reads the scan CSV of its axis, and the headerless fit
# that of pump_delay without its header line.
CONFIG = ["--config", "{config}/config.yaml"]
COMMANDS = {f"scan_{axis}": ["scan", *CONFIG, "--axis", axis] for axis in SCAN_AXES}
COMMANDS |= {f"fit_{axis}": ["fit", "--input", f"{{config}}/scan_{axis}.csv"] for axis in SCAN_AXES}
COMMANDS["fit_pump_delay_headerless"] = ["fit", "--input", "{config}/headerless.csv"]
COMMANDS |= {f"sweep_{name}": ["sweep", *CONFIG, "--parameter", name, "--grid", grid]
             for name, grid in SWEEPS.items()}
COMMANDS |= {f"prepare_{name}": ["prepare", *CONFIG, "--target", target] for name, target in TARGETS.items()}


def _show_warning(message, category, *_):
    # Without the source location, which differs between checkouts.
    print(f"{category.__name__}: {message}", file=sys.stderr)


def run_matrix(cli, default_config: Path) -> None:
    """Run every command on every config in the current directory."""
    base = yaml.safe_load(default_config.read_text())
    for config, edit in CONFIGS.items():
        data = copy.deepcopy(base)
        edit(data)
        Path(config).mkdir()
        Path(f"{config}/config.yaml").write_text(yaml.safe_dump(data, sort_keys=False))
        for name, argv in COMMANDS.items():
            prefix = f"{config}/{name}"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = _show_warning
                code = cli.main([arg.replace("{config}", config) for arg in argv] + ["--output", prefix])
            Path(f"{prefix}.exit").write_text(f"{code}\n")
            Path(f"{prefix}.stderr").write_text(stderr.getvalue())
            Path(f"{prefix}.manifest.txt").unlink(missing_ok=True)
            if name == "scan_pump_delay" and Path(f"{prefix}.csv").exists():
                lines = Path(f"{prefix}.csv").read_text().splitlines(keepends=True)
                Path(f"{config}/headerless.csv").write_text("".join(lines[1:]))


# A finite decimal number; "nan" and "inf" stay text, so that a number
# turning into either is a structural difference.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(line: str) -> tuple:
    """(the line with each number replaced by "#", its numbers)."""
    return NUMBER.sub("#", line), [float(x) for x in NUMBER.findall(line)]


def _changes(name: str, text_a: str, text_b: str) -> tuple:
    """(count, largest absolute, largest relative) change of the numbers of
    two texts of one file, or a str naming their structural difference."""
    if name.endswith(".exit"):
        return f"exit code {text_a.strip()} != {text_b.strip()}"
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return f"{len(lines_a)} rows != {len(lines_b)} rows"
    count, largest_abs, largest_rel = 0, 0.0, 0.0
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        (shape_a, values_a), (shape_b, values_b) = _split(line_a), _split(line_b)
        if shape_a != shape_b:
            return f"line {number} differs beyond its numbers: {line_a!r} != {line_b!r}"
        for a, b in zip(values_a, values_b):
            if a != b:
                count += 1
                largest_abs = max(largest_abs, abs(a - b))
                largest_rel = max(largest_rel, abs(a - b) / max(abs(a), abs(b)))
    return count, largest_abs, largest_rel


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the numeric changes between two output trees; 1 on a structural
    difference, else 0."""
    files = [{str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()} for root in (dir_a, dir_b)]
    structural = [f"{name}: only in {dir_a if name in files[0] else dir_b}" for name in sorted(files[0] ^ files[1])]
    kinds = {}  # file kind -> [files differing, numbers changed, largest absolute, largest relative]
    for name in sorted(files[0] & files[1]):
        text_a, text_b = ((root / name).read_text() for root in (dir_a, dir_b))
        if text_a == text_b:
            continue
        changes = _changes(name, text_a, text_b)
        if isinstance(changes, str):
            structural.append(f"{name}: {changes}")
            continue
        count, largest_abs, largest_rel = changes
        print(f"{name}: {count} numbers differ, largest change {largest_abs:.3g} absolute, "
              f"{largest_rel:.3g} relative")
        kind = kinds.setdefault(Path(name).name.split(".", 1)[1], [0, 0, 0.0, 0.0])
        kind[:] = kind[0] + 1, kind[1] + count, max(kind[2], largest_abs), max(kind[3], largest_rel)
    for kind, (differing, count, largest_abs, largest_rel) in sorted(kinds.items()):
        print(f"all .{kind}: {differing} files, {count} numbers differ, largest change "
              f"{largest_abs:.3g} absolute, {largest_rel:.3g} relative")
    for line in structural:
        print(f"structural: {line}")
    print(f"{len(files[0] | files[1])} files, {sum(k[0] for k in kinds.values())} with numeric changes only, "
          f"{len(structural)} structural differences")
    return 1 if structural else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*(Path(arg) for arg in argv[1:]))
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, outdir = (Path(arg).resolve() for arg in argv)
    sys.path.insert(0, str(src / "src"))
    from bellsim import cli, scenario

    outdir.mkdir(parents=True, exist_ok=False)
    os.chdir(outdir)
    run_matrix(cli, Path(scenario.default_config_path()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
