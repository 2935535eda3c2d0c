"""Run scan, prepare and sweep on every single-leaf edit of the packaged
default config, scan over extreme flag ranges and fit fringes on extreme
axis spans, and keep what each one gives.

Usage: python tests/config_mutations.py SRC OUT.json

A leaf is a number, string or flag of the default config at its key path
(``crystals[1].idler_center_nm``); each leaf takes each of the 16 values of
``mutations`` in turn, the rest of the config left as it is.  Each edited
config runs ``COMMANDS`` in one process through ``cli.main``.  The flag
family runs ``scan --axis <axis> --start -v --stop v`` on the default
config for each scan axis and each v of ``FLAG_SPANS``.  The fit family
writes an exact 2.5-period fringe (visibility 0.5) of 64 points on -v to v
for each v of ``FLAG_SPANS`` and runs ``fit --input`` on it.  The encoding
family runs ``COMMANDS`` on the default config with a 0xff byte inside a
value, and ``fit --input`` on fringe CSVs that start with bytes 0xff 0xfe,
that end lines in LF, and that end lines in CRLF after a UTF-8 BOM; the
last must exit 0 with the report of its LF twin.

SRC is a bellsim checkout (the directory holding ``src/bellsim``); OUT.json
maps "<key path> = <value>: <command>" (and each flag or fit command
line) to the command's exit code, stderr and report.  Running it on two
checkouts and comparing the two files shows every outcome a change moves.  The run is
deterministic.  A command that raises instead of exiting with its
documented code is recorded with its exception, and one that prints a
Python warning with its warnings (each also in its stderr); a usage error
(argparse's ``SystemExit``) is recorded with its exit code, as every
command here is well formed.  Any of the three, or a BOM fringe CSV that
fits otherwise than its LF twin, makes the script exit 1.
The file name keeps pytest from collecting it.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

import yaml

# Command name -> its arguments after the config and output flags.
COMMANDS = {
    "scan": ["scan"],
    "prepare": ["prepare", "--target", "phi+"],
    "sweep": ["sweep", "--parameter", "crystal_length", "--grid", "1,3.4"],
}

# The config flag of every command but fit, which reads no config.
CONFIG = ["--config", "config.yaml"]

# Values every leaf takes: no value, a flag, a string, a list, zero, a
# negative number, and numbers at and past the limits of a float.
ABSOLUTE = [None, True, "x", [1.0], 0, -1, 1.0e-300, 1.0e300, 1.0e308, math.nan, math.inf]

# Half ranges of the flag family: each scan axis runs --start -v --stop v,
# the values written as repr writes them (-1e+300 is no plain decimal).
FLAG_SPANS = [1.0, 1.0e-300, 1.0e300, 1.0e308]


def mutations(value) -> list:
    """The 16 values a leaf holding ``value`` takes: ``ABSOLUTE`` and five
    near its own (scaled numbers, integers kept integer, edited strings,
    spellings of a flag that YAML reads as strings or numbers)."""
    if isinstance(value, bool):
        near = [str(value).lower(), "yes", "on", 1, 0.0]
    elif isinstance(value, (int, float)):
        near = [type(value)(value * f if value else f) for f in (0.5, 0.9, 1.1, 2.0, 10.0)]
    else:
        near = [value.upper(), value[::-1], value + "_", "", "none"]
    return ABSOLUTE + near


def leaves(data, path=""):
    """(key path, value) of each scalar in the parsed config ``data``."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for k, value in enumerate(data):
            yield from leaves(value, f"{path}[{k}]")
    else:
        yield path, data


def edited(data, path: str, value):
    """A deep copy of ``data`` with the leaf at ``path`` set to ``value``."""
    data = copy.deepcopy(data)
    keys = path.replace("[", ".").replace("]", "").split(".")
    node = data
    for key in keys[:-1]:
        node = node[int(key) if isinstance(node, list) else key]
    last = keys[-1]
    node[int(last) if isinstance(node, list) else last] = value
    return data


def run_command(cli, name: str, argv: list) -> dict:
    """The outcome of ``argv``, with its outputs under the prefix ``name`` in
    the current directory, which it leaves empty."""
    stderr, shown = io.StringIO(), []

    def show_warning(message, category, *_):
        # Without the source location, which differs between checkouts.
        shown.append(f"{category.__name__}: {message}")
        print(shown[-1], file=sys.stderr)

    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_warning
        try:
            outcome = {"exit": cli.main(argv + ["--output", name])}
        except SystemExit as exc:  # a usage error: recorded, and the run exits 1
            outcome = {"exit": exc.code, "usage_error": True}
        except Exception:  # recorded, and the run exits 1
            outcome = {"exception": traceback.format_exc().strip().splitlines()[-1]}
    if shown:  # recorded, and the run exits 1
        outcome["warnings"] = shown
    report = Path(f"{name}.report.txt")
    outcome |= {"stderr": stderr.getvalue(), "report": report.read_text() if report.exists() else None}
    for output in Path().glob(f"{name}.*"):
        output.unlink()
    return outcome


def run(cli, data) -> dict:
    """Each command's outcome on the config ``data``, with the config and
    the outputs in the current directory."""
    Path("config.yaml").write_text(yaml.safe_dump(data, sort_keys=False))
    return {name: run_command(cli, name, argv + CONFIG) for name, argv in COMMANDS.items()}


def write_fringe(path: str, span: float) -> None:
    """An exact fringe 1 + 0.5 cos(2.5 pi t) at 64 points x = span t, t from
    -1 to 1, formed without overflow at any span."""
    ts = [2.0 * k / 63 - 1.0 for k in range(64)]
    rows = [f"{span * t!r},{1.0 + 0.5 * math.cos(2.5 * math.pi * t)!r}" for t in ts]
    Path(path).write_text("\n".join(["axis_value,rate", *rows]) + "\n")


# The fit CSVs of the encoding family: a label and the bytes made of the
# LF fringe file.
ENCODED_CSVS = {
    "starting 0xff 0xfe": lambda lf: b"\xff\xfe" + lf,
    "with LF line ends": lambda lf: lf,
    "with CRLF line ends after a UTF-8 BOM": lambda lf: b"\xef\xbb\xbf" + lf.replace(b"\n", b"\r\n"),
}


def encoding_family(cli, base) -> dict:
    """The outcomes of the encoding family.  Its files, config.yaml among
    them, are written to the current directory and removed after."""
    results = {}
    path, value = next((path, value) for path, value in leaves(base) if isinstance(value, str))
    marked = yaml.safe_dump(edited(base, path, "MARK"), sort_keys=False).encode()
    Path("config.yaml").write_bytes(marked.replace(b"MARK", value[:1].encode() + b"\xff" + value[1:].encode()))
    for name, argv in COMMANDS.items():
        results[f"encoding: {path} holds byte 0xff: {name}"] = run_command(cli, name, argv + CONFIG)
    Path("config.yaml").unlink()
    write_fringe("fringe.csv", 1.0)
    lf = Path("fringe.csv").read_bytes()
    for label, encode in ENCODED_CSVS.items():
        Path("fringe.csv").write_bytes(encode(lf))
        results[f"encoding: fit --input a fringe CSV {label}"] = run_command(cli, "fit", ["fit", "--input", "fringe.csv"])
    Path("fringe.csv").unlink()
    return results


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    src, out = (Path(arg).resolve() for arg in argv)
    sys.path.insert(0, str(src / "src"))
    from bellsim import cli, scenario

    base = yaml.safe_load(Path(scenario.default_config_path()).read_text())
    results = {}
    with tempfile.TemporaryDirectory() as work:
        # Relative paths, so that no message names the temporary directory.
        os.chdir(work)
        for path, value in leaves(base):
            for mutation in mutations(value):
                for name, outcome in run(cli, edited(base, path, mutation)).items():
                    results[f"{path} = {mutation!r}: {name}"] = outcome
        Path("config.yaml").write_text(yaml.safe_dump(base, sort_keys=False))
        for axis in scenario.SCAN_AXIS_KINDS:
            for span in FLAG_SPANS:
                argv = ["scan", "--axis", axis, "--start", repr(-span), "--stop", repr(span)]
                results[" ".join(argv)] = run_command(cli, "scan", argv + CONFIG)
        for span in FLAG_SPANS:
            argv = ["fit", "--input", f"fringe_{span!r}.csv"]
            write_fringe(argv[-1], span)
            results[" ".join(argv)] = run_command(cli, "fit", argv)
            Path(argv[-1]).unlink()
        results |= encoding_family(cli, base)
        os.chdir(src)
    out.write_text(json.dumps(results, indent=1) + "\n")
    problems = []
    for key, outcome in results.items():
        problems += [f"{key}: {warning}" for warning in outcome.get("warnings", [])]
        if "exception" in outcome:
            problems.append(f"{key}: {outcome['exception']}")
        if outcome.get("usage_error"):
            problems.append(f"{key}: usage error: {outcome['stderr'].strip().splitlines()[-1]}")
    lf, bom = (results[f"encoding: fit --input a fringe CSV {label}"] for label in list(ENCODED_CSVS)[1:])
    if bom.get("exit") != 0 or bom["report"] != lf["report"]:
        problems.append("a CRLF fringe CSV after a UTF-8 BOM does not fit as its LF twin does")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
