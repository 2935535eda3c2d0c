"""Property tests: one junk value anywhere in a config file or a fringe CSV
ends in a documented exit code, never in a traceback."""

import copy
import math
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings, strategies as st

from bellsim import scenario
from bellsim.cli import main
from bellsim.scenario import SWEEP_PARAMETERS

DEFAULT = yaml.safe_load(scenario.default_config_path().read_text())


def _leaves(node, path=()):
    """Key paths of every scalar value in a parsed YAML tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, value in items:
        yield from _leaves(value, path + (key,))


LEAVES = tuple(_leaves(DEFAULT))
# scan.steps and scan.grid_points are capped at 4096, so large magnitudes are
# safe junk; they and tiny ones overflow or vanish in scalar physics.
CONFIG_JUNK = ("fast", math.nan, math.inf, -math.inf, -1.5, 0, None, [1.0], {"a": 1}, True, False,
               1e300, -1e300, 1e-300)

# One valid value per sweep parameter: the sweep runs one source build.
SWEEP_VALUE = {"crystal_length": "3.4", "filter_fwhm": "10", "compensation_error_fs": "0",
               "pump_ratio": "0.5"}
# A valid config can still be infeasible to prepare (pump_amplitude_ratio: 0
# leaves one amplitude), which is exit 4.
COMMANDS = {
    "scan": (["--steps", "33"], {0, 2}),
    "prepare": (["--target", "phi+"], {0, 2, 4}),
    "sweep": ([], {0, 2}),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(leaf=st.sampled_from(LEAVES), junk=st.sampled_from(CONFIG_JUNK),
       parameter=st.sampled_from(SWEEP_PARAMETERS))
def test_junk_config_leaf_ends_in_an_exit_code(leaf, junk, parameter):
    data = copy.deepcopy(DEFAULT)
    node = data
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = junk
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.yaml"
        config.write_text(yaml.safe_dump(data))
        for command, (extra, codes) in COMMANDS.items():
            if command == "sweep":
                extra = ["--parameter", parameter, "--grid", SWEEP_VALUE[parameter]]
            code = main([command, "--config", str(config), "--output", str(Path(tmp) / command),
                         *extra])
            assert code in codes, (command, leaf, junk)


AXIS = np.linspace(-800.0, 800.0, 33)
FRINGE_ROWS = tuple((repr(float(x)), repr(1.0 + math.cos(2.0 * math.pi * x / 400.0))) for x in AXIS)
CSV_JUNK = ("fast", "nan", "inf", "-inf", "", " ", "-1.5", "0", "1e400", "1,2")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(row=st.integers(0, len(FRINGE_ROWS)), column=st.integers(0, 1),
       junk=st.sampled_from(CSV_JUNK))
def test_junk_csv_cell_ends_in_an_exit_code(row, column, junk):
    # Row 0 is the header.
    rows = [["axis_value", "rate"]] + [list(r) for r in FRINGE_ROWS]
    rows[row][column] = junk
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fringe.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        assert main(["fit", "--input", str(path), "--output", str(Path(tmp) / "fit")]) in (0, 3)
