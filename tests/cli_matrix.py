"""Run 13 CLI commands on 8 configs and keep what each one writes.

Usage: python tests/cli_matrix.py SRC OUTDIR

SRC is a bellsim checkout (the directory holding ``src/bellsim``); OUTDIR
receives one directory per config, holding each command's CSV, report, exit
code and stderr.  Manifests carry a timestamp and are not kept.  Running it
on two checkouts and comparing with ``diff -r`` shows every output that a
change moves.  The file name keeps pytest from collecting it.
"""

import contextlib
import copy
import io
import os
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
}

SCAN_AXES = ("pump_delay", "signal_tilt", "idler_tilt", "both_tilts", "analyzer2_angle")
SWEEPS = {
    "crystal_length": "0.5,1,2,3.4,5",
    "filter_fwhm": "3,10,20,none",
    "compensation_error_fs": "-700,-300,0,100,300,600,1000,1500,3000",
    "pump_ratio": "0,0.5,1,2",
}
TARGETS = {"phi_plus": "phi+", "phi_minus": "phi-", "psi_plus": "psi+", "psi_minus": "psi-"}

COMMANDS = {f"scan_{axis}": ["scan", "--axis", axis] for axis in SCAN_AXES}
COMMANDS |= {f"sweep_{name}": ["sweep", "--parameter", name, "--grid", grid] for name, grid in SWEEPS.items()}
COMMANDS |= {f"prepare_{name}": ["prepare", "--target", target] for name, target in TARGETS.items()}


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
        config_path = f"{config}/config.yaml"
        Path(config_path).write_text(yaml.safe_dump(data, sort_keys=False))
        for name, argv in COMMANDS.items():
            prefix = f"{config}/{name}"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = _show_warning
                code = cli.main([argv[0], "--config", config_path, "--output", prefix, *argv[1:]])
            Path(f"{prefix}.exit").write_text(f"{code}\n")
            Path(f"{prefix}.stderr").write_text(stderr.getvalue())
            Path(f"{prefix}.manifest.txt").unlink(missing_ok=True)


def main(argv) -> int:
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
