"""Seeded workloads of bellsim CLI commands, and the checks on their outputs.

An op is the unit the benchmark times: one or more CLI commands run back to
back.  Every workload generates an endless stream of cycles of ops from a
seed.  A cycle holds a fixed multiset of op kinds in a seeded order, and a
run measures whole cycles, so a run of any seed does the same mix of work;
the seed draws the ranges, analyzers, noise seeds and sweep values within
each kind.

The program only receives argv lists and copies of the packaged default
config with a few keys changed (``configs``).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Fitted periods must land within this share of the expected period.
PERIOD_TOLERANCE = 0.005
MIN_VISIBILITY = 0.99
MIN_FIDELITY = 0.999
# V at zero compensation error.
MIN_COMPENSATED_VISIBILITY = 0.999
# Visibilities far off compensation sit at ~1e-15 and move in their last
# digits with the BLAS thread count; monotonicity is checked to this slack.
VISIBILITY_ABS_SLACK = 1.0e-9

EXPECTED_PERIOD = {
    "pump_delay": 400.0,
    "signal_tilt": 730.0,
    "idler_tilt": 885.0,
    "both_tilts": 400.0,
    "analyzer2_angle": 180.0,
}

TILT_AXES = ("signal_tilt", "idler_tilt", "both_tilts")

# Pump knob (nm) that puts the default source on phi+, so an analyzer-angle
# fringe has full visibility instead of the ~0.19 it has at 0 nm.
PHI_PLUS_PUMP_DELTA_X_NM = 287.58

# Analyzer pairs of the 45-degree family: all give a full-visibility fringe.
ANALYZER_PAIRS = ((45.0, 45.0), (45.0, 135.0), (135.0, 45.0), (135.0, 135.0))


@dataclass(frozen=True)
class Command:
    """One CLI call, the output prefix it writes and what its outputs must show."""

    kind: str  # scan | fit | prepare | sweep
    argv: tuple
    prefix: str
    expect: dict = field(default_factory=dict)

    def output_paths(self):
        return [Path(self.prefix + suffix) for suffix in (".csv", ".report.txt", ".manifest.txt")]


@dataclass(frozen=True)
class Op:
    label: str
    commands: tuple


def _num(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}f}"


def _config(name: str, workdir: str) -> str:
    return f"{workdir}/configs/{name}.yaml"


class Workload:
    name = ""
    # Config name -> {section: {key: value}} overrides of the default config.
    config_overrides: dict = {}

    def write_configs(self, default_config: Path, workdir: str) -> None:
        base = yaml.safe_load(Path(default_config).read_text())
        target = Path(workdir) / "configs"
        target.mkdir(parents=True, exist_ok=True)
        for name, overrides in self.config_overrides.items():
            data = copy.deepcopy(base)
            for section, values in overrides.items():
                data[section].update(values)
            (target / f"{name}.yaml").write_text(yaml.safe_dump(data, sort_keys=False))

    def cycle(self, rng: random.Random, workdir: str) -> list:
        raise NotImplementedError

    def cycles(self, seed: int, workdir: str):
        rng = random.Random(seed)
        while True:
            yield self.cycle(rng, workdir)


def _scan(workdir, config, axis, start, stop, steps, seed=None, noisy=False):
    argv = ["scan", "--config", config, "--output", f"{workdir}/scan", "--axis", axis,
            "--start", start, "--stop", stop, "--steps", str(steps)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    expect = {"rows": steps, "period": EXPECTED_PERIOD[axis],
              "min_visibility": None if noisy else MIN_VISIBILITY}
    if axis in TILT_AXES:
        expect["builds"] = steps  # one amplitude build per step
    return Command("scan", tuple(argv), f"{workdir}/scan", expect)


def _pump_delay_range(rng):
    start = rng.uniform(-800.0, -400.0)
    return _num(start), _num(start + rng.uniform(1000.0, 1600.0))


class TiltScan(Workload):
    """Tilt scans: every step rebuilds the grid, both JSAs and the scalar
    dispersion, so this is the path batching the scan must speed up."""

    name = "tilt_scan"
    config_overrides = {
        f"analyzers_{int(a1)}_{int(a2)}": {"scan": {"analyzer1_deg": a1, "analyzer2_deg": a2}}
        for a1, a2 in ANALYZER_PAIRS
    }
    # The default 129 steps twice, so the median op and the 90th percentile
    # fall inside one step count each instead of between two.
    STEPS = (33, 65, 129, 129, 257)

    def cycle(self, rng, workdir):
        kinds = [(axis, steps) for axis in TILT_AXES for steps in self.STEPS]
        rng.shuffle(kinds)
        ops = []
        for axis, steps in kinds:
            # >= 30 degrees spans >= 1.5 fringe periods on every axis; plates
            # must stay below 45 degrees.
            start = rng.uniform(0.0, 12.0)
            stop = start + rng.uniform(30.0, 32.0)
            a1, a2 = rng.choice(ANALYZER_PAIRS)
            config = _config(f"analyzers_{int(a1)}_{int(a2)}", workdir)
            command = _scan(workdir, config, axis, _num(start), _num(stop), steps)
            ops.append(Op(f"scan {axis} {steps}", (command,)))
        return ops


class SessionMix(Workload):
    """User sessions of a few builds per command: parsing, CLI bookkeeping,
    fitting, polarization and file output carry the time."""

    name = "session_mix"
    config_overrides = {
        "phi_plus": {"knobs": {"pump_delta_x_nm": PHI_PLUS_PUMP_DELTA_X_NM}},
        "phi_plus_poisson": {"knobs": {"pump_delta_x_nm": PHI_PLUS_PUMP_DELTA_X_NM},
                             # Enough counts that the unweighted `fit` of the
                             # noisy CSV keeps its period within tolerance.
                             "scan": {"noise": "poisson", "mean_counts": 100000.0}},
    }
    SCAN_AXES = ("pump_delay", "analyzer2_angle")
    SWEEPS = ("pump_ratio", "filter_fwhm", "crystal_length")
    TARGETS = ("phi+", "phi-", "psi+", "psi-")

    def cycle(self, rng, workdir):
        # 12 sessions hold every axis x noise pairing, sweep parameter and
        # target equally often.
        kinds = [(self.SCAN_AXES[k % 2], k // 2 % 2 == 1, self.SWEEPS[k % 3], self.TARGETS[k % 4])
                 for k in range(12)]
        rng.shuffle(kinds)
        steps = [65, 129] * 6
        rng.shuffle(steps)
        return [self._session(rng, workdir, n, *kind) for n, kind in zip(steps, kinds)]

    def _session(self, rng, workdir, steps, axis, noisy, sweep, target):
        if axis == "pump_delay":
            start, stop = _pump_delay_range(rng)
        else:
            # The fit's frequency search needs about two periods of 180 deg.
            first = rng.uniform(0.0, 90.0)
            start, stop = _num(first), _num(first + rng.uniform(360.0, 450.0))
        config = _config("phi_plus_poisson" if noisy else "phi_plus", workdir)
        seed = rng.randrange(2**31) if noisy else None
        scan = _scan(workdir, config, axis, start, stop, steps, seed=seed, noisy=noisy)
        fit = Command("fit", ("fit", "--input", f"{scan.prefix}.csv", "--output", f"{workdir}/fit"),
                      f"{workdir}/fit", {"rows": steps, "period": EXPECTED_PERIOD[axis]})
        prepare = Command("prepare", ("prepare", "--config", _config("phi_plus", workdir),
                                      "--output", f"{workdir}/prepare", "--target", target),
                          f"{workdir}/prepare", {"min_fidelity": MIN_FIDELITY})
        low, high = {"pump_ratio": (0.25, 4.0), "filter_fwhm": (3.0, 40.0),
                     "crystal_length": (0.5, 5.0)}[sweep]
        values = [_num(v) for v in sorted(rng.uniform(low, high) for _ in range(5))]
        sweep_cmd = Command("sweep", ("sweep", "--config", _config("phi_plus", workdir),
                                      "--output", f"{workdir}/sweep", "--parameter", sweep,
                                      "--grid", ",".join(values)),
                            f"{workdir}/sweep", {"rows": 5, "sweep": sweep})
        label = f"session {axis}{' poisson' if noisy else ''} {sweep} {target}"
        return Op(label, (scan, fit, prepare, sweep_cmd))


class RefinedGrid(Workload):
    """Few builds on large refined grids: the tilt_scan kernels with the
    opposite shape, and the workload where memory growth shows."""

    name = "refined_grid"
    config_overrides = {f"grid_{n}": {"scan": {"grid_points": n}} for n in (512, 1024)}
    # Error bands (fs) that refine the default 128^2 grid to 256^2, 512^2 and
    # 1024^2; the edges sit at 495, 1182, 2556 and 5304 fs.
    ERROR_BANDS = ((600.0, 1100.0), (1300.0, 2400.0), (2700.0, 5000.0))

    def cycle(self, rng, workdir):
        kinds = [("sweep", None)] * 2
        kinds += [(f"grid_{n}", steps) for n in (512, 1024) for steps in (65, 129)]
        rng.shuffle(kinds)
        ops = []
        for kind, steps in kinds:
            if kind == "sweep":
                errors = [0.0] + [rng.choice((-1.0, 1.0)) * rng.uniform(*band)
                                  for band in self.ERROR_BANDS]
                grid = ",".join(_num(e) for e in errors)
                command = Command("sweep", ("sweep", "--config", "default", "--output",
                                            f"{workdir}/sweep", "--parameter",
                                            "compensation_error_fs", "--grid", grid),
                                  f"{workdir}/sweep",
                                  {"rows": len(errors), "sweep": "compensation_error_fs"})
                ops.append(Op("sweep compensation_error_fs", (command,)))
            else:
                start, stop = _pump_delay_range(rng)
                command = _scan(workdir, _config(kind, workdir), "pump_delay", start, stop, steps)
                ops.append(Op(f"scan pump_delay {kind} {steps}", (command,)))
        return ops


WORKLOADS = {w.name: w for w in (TiltScan(), SessionMix(), RefinedGrid())}


# --------------------------------------------------------------------------
# Output checks


def read_report(prefix: str) -> dict:
    items = {}
    for line in Path(prefix + ".report.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


def read_csv(prefix: str) -> list:
    lines = Path(prefix + ".csv").read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line.strip()]


def check_command(command: Command) -> tuple:
    """(problems, csv rows written) for a command that exited 0."""
    problems = []
    expect = command.expect
    report = read_report(command.prefix)
    rows = read_csv(command.prefix) if command.kind in ("scan", "sweep") else []

    if command.kind in ("scan", "sweep") and len(rows) != expect["rows"]:
        problems.append(f"{len(rows)} CSV rows, expected {expect['rows']}")
    if command.kind == "fit" and int(report["points"]) != expect["rows"]:
        problems.append(f"fit read {report['points']} points, expected {expect['rows']}")
    if "period" in expect:
        period = float(report["period"])
        deviation = abs(period / expect["period"] - 1.0)
        if not deviation <= PERIOD_TOLERANCE:
            problems.append(f"period {period} is {deviation:.2%} off {expect['period']}")
    if expect.get("min_visibility") is not None:
        visibility = float(report["visibility_fit"])
        if not visibility >= expect["min_visibility"]:
            problems.append(f"visibility_fit {visibility} < {expect['min_visibility']}")
    if "min_fidelity" in expect:
        fidelity = float(report["fidelity"])
        if not fidelity >= expect["min_fidelity"]:
            problems.append(f"fidelity {fidelity} < {expect['min_fidelity']}")
    if command.kind == "sweep":
        problems += _check_sweep(expect["sweep"], rows)
    return problems, len(rows)


def _check_sweep(parameter: str, rows: list) -> list:
    problems = []
    points = [(float(p), float(v)) for p, v in rows]
    for value, visibility in points:
        if not -VISIBILITY_ABS_SLACK <= visibility <= 1.0 + VISIBILITY_ABS_SLACK:  # also NaN
            problems.append(f"visibility {visibility} at {value} is outside [0, 1]")
    if parameter == "pump_ratio":
        for ratio, visibility in points:
            expected = 2.0 * ratio / (1.0 + ratio * ratio)
            if not abs(visibility - expected) <= 1.0e-3:
                problems.append(f"pump_ratio {ratio}: V {visibility}, expected {expected:.6f}")
    if parameter == "compensation_error_fs":
        by_error = sorted(points, key=lambda p: abs(p[0]))
        error, visibility = by_error[0]
        if error != 0.0 or not visibility > MIN_COMPENSATED_VISIBILITY:
            problems.append(f"V {visibility} at error {error} fs, "
                            f"expected > {MIN_COMPENSATED_VISIBILITY} at 0")
        for (e0, v0), (e1, v1) in zip(by_error, by_error[1:]):
            if v1 > v0 + VISIBILITY_ABS_SLACK:
                problems.append(f"V rises from {v0} at {e0} fs to {v1} at {e1} fs")
    return problems
