"""bellsim benchmark: seeded CLI workloads timed end to end, with a traced
run for per-layer numbers.

    python3 bellbench/run.py --workload tilt_scan --seed 7 --seconds 30 --trace 0
    python3 bellbench/run.py --workload all --seed 7 --seconds 30 --trace 0
    python3 bellbench/run.py --write-reference

Run from anywhere; it works in the checkout that holds this file, imports
bellsim from that checkout's ``src`` and writes only under
``.bellbench_work/`` there.

Each workload runs in one process, as a closed loop with one caller: the
next op starts when the previous one returns.  An op calls
``bellsim.cli.main(argv)`` in-process for each of its commands, so it pays
argument parsing, config loading, the engine, the fit and the file writes,
but not interpreter start-up, which ``setup_s`` reports.  Before the loop,
the reference ops (the first ops of the committed seed) run untimed; they
warm caches and are compared with ``reference.json``.

A fixed calibration kernel (pace.py) runs before every timed op and set-up
launch; the reported times are brought to the reference machine speed with
it, so that a shared host's changes of speed between runs cancel.  The raw
wall-clock figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a third of
the time untraced, then replays the same ops twice with spans on
(tracer.py): the first replay gives the per-layer metrics, averaged per op,
and the second must repeat its exact counts.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op passed its output checks, the reference outputs matched and the
traced counts repeated.  See METRICS.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from pace import Pace, scales  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_command, read_csv, read_report  # noqa: E402

WORK_DIR = ".bellbench_work"
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEED = 1
REFERENCE_OPS = 3
# CSV values and report numbers must match the reference to this, absolute:
# visibilities near 1e-15 move in their last digits with the BLAS threads.
REFERENCE_ABS_TOL = 1.0e-9
SETUP_LAUNCHES = 11
SETUP_PROBE = (
    "import sys; sys.path.insert(0, 'src'); import bellsim.cli as cli; "
    "cli.scenario.load_config(cli.scenario.default_config_path())"
)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import bellsim.cli from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bellsim.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bellbench: cannot import bellsim from {src}: {exc}")
    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"bellbench: imported bellsim from {cli.__file__}, not from {src}")
    return cli


# --------------------------------------------------------------------------
# Run record


def _git_commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bellsim").rglob("*")):
        if path.suffix in (".py", ".yaml"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas():
    """(version, threads) of the OpenBLAS numpy loaded, from the library itself."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    threads = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return version, threads


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    import yaml

    blas_version, blas_threads = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ} or "unset (default)",
    }


# --------------------------------------------------------------------------
# Running ops


@dataclass
class OpResult:
    label: str
    latency_s: float
    kernel_s: float = 0.0  # calibration kernel time measured just before the op
    rows: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)


class Runner:
    """Runs ops through ``bellsim.cli.main`` and checks what they wrote."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, op, tracer: Tracer | None = None, op_id: int = 0) -> OpResult:
        for command in op.commands:
            for path in command.output_paths():
                path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        failure = None
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for command in op.commands:
                try:
                    code = self.cli.main(list(command.argv))
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
                except Exception:
                    failure = f"{command.kind} raised:\n{traceback.format_exc()}"
                    break
                if code != 0:
                    failure = f"{command.kind} exited {code}: {err.getvalue().strip()}"
                    break
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()

        result = OpResult(op.label, latency)
        if failure is not None:
            result.problems.append(failure)
            return result
        for command in op.commands:
            try:
                problems, rows = check_command(command)
            except (OSError, KeyError, ValueError) as exc:
                problems, rows = [f"unreadable output: {exc!r}"], 0
            result.problems += [f"{command.kind}: {p}" for p in problems]
            result.rows += rows
            result.bytes_written += sum(p.stat().st_size for p in command.output_paths() if p.exists())
        return result


def closed_loop(runner: Runner, cycles, seconds: float, pace: Pace):
    """Run ops one at a time, whole cycles, until ``seconds`` have passed,
    timing the calibration kernel before each."""
    ops, results = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for op in next(cycles):
            ops.append(op)
            kernel_s = pace.kernel()
            results.append(runner.run(op))
            results[-1].kernel_s = kernel_s
    return ops, results


def measure_setup(pace: Pace):
    """Median time of a fresh interpreter importing bellsim.cli and loading
    the default config, raw and at the reference speed; one untimed launch
    first fills the bytecode cache."""
    times, kernels = [], []
    for k in range(SETUP_LAUNCHES + 1):
        kernel_s = statistics.median(pace.kernel() for _ in range(3))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"bellbench: set-up probe failed:\n{done.stderr.decode()}")
        if k:
            times.append(elapsed)
            kernels.append(kernel_s)
    paced = [t * f for t, f in zip(times, scales(kernels))]
    return statistics.median(times), statistics.median(paced)


# --------------------------------------------------------------------------
# Reference outputs


def _reference_ops(workload, workdir):
    return next(workload.cycles(REFERENCE_SEED, workdir))[:REFERENCE_OPS]


def _outputs(command) -> dict:
    csv = read_csv(command.prefix) if Path(command.prefix + ".csv").exists() else None
    return {"argv": list(command.argv), "csv": csv, "report": read_report(command.prefix)}


def _same(a: str, b: str) -> bool:
    try:
        return abs(float(a) - float(b)) <= REFERENCE_ABS_TOL
    except ValueError:
        return a == b


def _compare(label: str, got: dict, want: dict) -> list:
    if got["argv"] != want["argv"]:
        return [f"{label}: inputs differ from the reference: {got['argv']} != {want['argv']}"]
    problems = []
    got_csv, want_csv = got["csv"] or [], want["csv"] or []
    if len(got_csv) != len(want_csv):
        problems.append(f"{label}: {len(got_csv)} CSV rows, reference {len(want_csv)}")
    for number, (row, ref) in enumerate(zip(got_csv, want_csv), start=2):
        if len(row) != len(ref) or not all(_same(a, b) for a, b in zip(row, ref)):
            problems.append(f"{label}: CSV row {number} {row} != reference {ref}")
            break
    if set(got["report"]) != set(want["report"]):
        problems.append(f"{label}: report keys differ from the reference")
    for key in sorted(set(got["report"]) & set(want["report"])):
        if not _same(got["report"][key], want["report"][key]):
            problems.append(f"{label}: report {key} = {got['report'][key]}, "
                            f"reference {want['report'][key]}")
    return problems


def run_reference(runner, workload, workdir, reference=None):
    """Run the reference ops; return (outputs, problems).  With a reference,
    compare against it."""
    outputs, problems = [], []
    for k, op in enumerate(_reference_ops(workload, workdir)):
        result = runner.run(op)
        if result.problems:
            problems += [f"reference op {op.label}: {p}" for p in result.problems]
            continue
        outputs.append([_outputs(c) for c in op.commands])
        if reference is not None:
            for j, (got, want) in enumerate(zip(outputs[-1], reference[k])):
                problems += _compare(f"reference op {k} command {j}", got, want)
    return outputs, problems


def write_reference(cli) -> int:
    runner = Runner(cli)
    data = {"seed": REFERENCE_SEED, "ops_per_workload": REFERENCE_OPS,
            "abs_tolerance": REFERENCE_ABS_TOL, "workloads": {}}
    for workload in WORKLOADS.values():
        workdir = prepare_workdir(cli, workload)
        outputs, problems = run_reference(runner, workload, workdir)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        data["workloads"][workload.name] = outputs
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


# --------------------------------------------------------------------------
# Metrics


def _ms_quantiles(latencies):
    ms = sorted(1e3 * t for t in latencies)
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def end_to_end(results, setup_s):
    """Metrics at the reference machine speed (pace.py)."""
    paced = [r.latency_s * f for r, f in zip(results, scales([r.kernel_s for r in results]))]
    p50, p90 = _ms_quantiles(paced)
    busy = sum(paced)
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "points_per_s": (sum(r.rows for r in results) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, results, overhead):
    by_name, coverage = tracer.summary()
    n_ops = len(results)
    zero = {"calls": 0, "self_ns": 0.0, "x": 0, "y": 0}

    def get(name):
        return by_name.get(name, zero)

    def layer(module):
        stats = [s for name, s in by_name.items() if name.startswith(module + ".")]
        return sum(s["calls"] for s in stats), sum(s["self_ns"] for s in stats)

    metrics = {}
    for module in ("dispersion", "polarization"):
        calls, self_ns = layer(module)
        metrics[f"{module}.calls"] = (calls / n_ops, "count")
        metrics[f"{module}.self_ms"] = (self_ns / 1e6 / n_ops, "ms")
    for name in ("spectral.make_grid", "spectral.build_jsa", "biphoton.apply_envelope_phase",
                 "biphoton.overlap", "biphoton.interference_terms", "biphoton.norm_squared",
                 "scenario.build_amplitudes", "scenario.scan", "scenario.load_config",
                 "scenario.required_compensation_fs", "fitting.fit_fringe", "cli.main"):
        metrics[f"{name}.calls"] = (get(name)["calls"] / n_ops, "count")
        metrics[f"{name}.self_ms"] = (get(name)["self_ns"] / 1e6 / n_ops, "ms")
    jsa = get("spectral.build_jsa")
    metrics["spectral.build_jsa.cells"] = (jsa["x"] / n_ops, "count")
    metrics["spectral.build_jsa.bytes_computed"] = (jsa["y"] / n_ops, "B")
    metrics["spectral.build_jsa.ns_per_cell"] = (jsa["self_ns"] / jsa["x"] if jsa["x"] else 0.0, "ns")
    ovl = get("biphoton.overlap")
    metrics["biphoton.overlap.us_per_call"] = (
        ovl["self_ns"] / 1e3 / ovl["calls"] if ovl["calls"] else 0.0, "us")
    fit = get("fitting.fit_fringe")
    metrics["fitting.iterations"] = (fit["x"] / n_ops, "count")
    metrics["fitting.converged_ratio"] = (fit["y"] / fit["calls"] if fit["calls"] else 0.0, "ratio")
    metrics["cli.bytes_written"] = (sum(r.bytes_written for r in results) / n_ops, "B")
    metrics["trace.coverage"] = (coverage, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.ops"] = (n_ops, "count")
    return metrics


def _builds_per_step(ops, counts):
    """How many tilt scans built the amplitudes once per step.  Reported, not
    checked: building fewer times is the optimisation tilt_scan measures."""
    steps = [sum(c.expect.get("builds", 0) for c in op.commands) for op in ops]
    builds = [n.get("scenario.build_amplitudes", (0, 0, 0))[0] for n in counts]
    pairs = [(s, b) for s, b in zip(steps, builds) if s]
    if not pairs:
        return None
    return (f"scenario.build_amplitudes calls equal the step count on "
            f"{sum(s == b for s, b in pairs)} of {len(pairs)} tilt scans")


def _count_problems(first, second):
    problems = []
    for k, (a, b) in enumerate(zip(first, second)):
        if a != b:
            diff = sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))
            problems.append(f"op {k}: traced counts differ between replays: "
                            + ", ".join(f"{n} {a.get(n)} vs {b.get(n)}" for n in diff))
    return problems


# --------------------------------------------------------------------------
# Entry points


def prepare_workdir(cli, workload) -> str:
    workdir = f"{WORK_DIR}/{workload.name}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    workload.write_configs(cli.scenario.default_config_path(), workdir)
    return workdir


def run_workload(cli, args) -> int:
    workload = WORKLOADS[args.workload]
    workdir = prepare_workdir(cli, workload)
    record = run_record(workload.name, args.seed, args.seconds, args.trace)
    print("record " + json.dumps(record))

    pace = Pace()
    raw_setup_s, setup_s = measure_setup(pace)
    runner = Runner(cli)
    reference = json.loads(REFERENCE_PATH.read_text())
    _, problems = run_reference(runner, workload, workdir, reference["workloads"][workload.name])

    cycles = workload.cycles(args.seed, workdir)
    note = None
    if not args.trace:
        ops, results = closed_loop(runner, cycles, args.seconds, pace)
        metrics = end_to_end(results, setup_s)
        attempted = results
        raw_p50, raw_p90 = _ms_quantiles([r.latency_s for r in results])
        kernel_ms = statistics.median(1e3 * r.kernel_s for r in results)
        print(f"{workload.name}: raw wall clock: setup_s = {raw_setup_s!r} s, "
              f"op_ms_p50 = {raw_p50!r} ms, op_ms_p90 = {raw_p90!r} ms; "
              f"calibration kernel median {kernel_ms!r} ms")
    else:
        ops, untraced = closed_loop(runner, cycles, args.seconds / 3.0, pace)
        replays = []
        for _ in range(2):
            tracer = Tracer()
            results = []
            with tracer.installed():
                for k, op in enumerate(ops):
                    pace.kernel()  # as before each untraced op
                    results.append(runner.run(op, tracer, k))
            replays.append((tracer, results))
        (first, traced), (second, again) = replays
        first.save(ROOT / workdir / "spans.npz")
        counts = first.op_counts()
        note = _builds_per_step(ops, counts)
        problems += _count_problems(counts, second.op_counts())
        overhead = _ms_quantiles([r.latency_s for r in traced])[0] / \
            _ms_quantiles([r.latency_s for r in untraced])[0]
        metrics = per_layer(first, traced, overhead)
        attempted = untraced + traced + again

    failed = [r for r in attempted if r.problems]
    for r in failed[:10]:
        problems.append(f"op {r.label}: " + "; ".join(r.problems))
    (ROOT / workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload.name}: {len(attempted)} ops ({len(ops)} distinct), {len(failed)} failed, "
          f"fail_ratio = {len(failed) / len(attempted)!r}")
    if note:
        print(f"{workload.name}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value!r} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result line (exit {child.returncode})", file=sys.stderr)
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return code or int(not summary["correct"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"rewrite reference.json from seed {REFERENCE_SEED}")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    cli = import_program()
    if args.write_reference:
        return write_reference(cli)
    if args.workload == "all":
        return run_all(args)
    return run_workload(cli, args)


if __name__ == "__main__":
    sys.exit(main())
