"""Command-line front end: scan | sweep | fit | prepare.

A command computes its results, then writes plain-text files next to the
--output prefix, whose last part must name a file: a CSV data file (where
applicable), a flat key = value report, and, last on every exit, a run
manifest naming only the files written (none when the first cannot be).
Floats are written with repr so outputs are byte-reproducible; the manifest
is the only file carrying a timestamp.

Exit codes: 0 success, 2 config error, 3 data error, 4 preparation
infeasible.

``main`` can run many commands in one process, and each pays only for its
own work.  The argument parsers are built once per process
(``build_parser`` and the four command parsers it makes).  When the first
argument names a command, ``main`` parses the rest with that command's
parser alone; without a command, or when that parser leaves arguments
over, the full parser parses the whole argv again, so every usage and
error message is the one it gives.  The packaged default config's path is
resolved once per process (``scenario.default_config_path``), and
``scenario.load_config`` parses each distinct config text once, while
still reading the file on every command.  The output directory is made
only when it is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fitting, polarization, scenario
from .errors import ConfigError, DataError, InfeasibleError
from .polarization import PHI_TO_PSI_HWP_DEG


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_text(path: Path, text: str) -> None:
    """Write one output file, UTF-8 encoded, through its file descriptor
    alone (a text file object costs more system calls than a report's
    write); one that cannot be written (a directory, no permission) is a
    ConfigError naming --output."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            data = text.encode()
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"--output: cannot write {path}: {exc}") from None


def _kv_text(items) -> str:
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in items)


def _csv_cells(column) -> list:
    """One CSV column as text: a float array's values through ``repr`` (what
    ``_fmt`` gives them, without its per-cell type checks), anything else
    through ``_fmt``."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return list(map(repr, column.tolist()))
    return [_fmt(v) for v in column]


def _csv_text(header, columns) -> str:
    lines = [",".join(header)]
    lines += map(",".join, zip(*map(_csv_cells, columns)))
    return "\n".join(lines) + "\n"


def _resolve_config(arg: str):
    if arg == "default":
        return scenario.default_config_path()
    return arg


def _load(args):
    return scenario.load_config(_resolve_config(args.config))


@contextlib.contextmanager
def _outputs(args, command: str, seed):
    """Yields ``write(suffix, text)``: it writes --output plus the suffix and
    returns its path.  On every exit the manifest is written last, naming
    only the files written.  An --output naming no file, or a directory that
    cannot be made, is a ConfigError naming --output."""
    prefix = Path(args.output)
    if prefix.name in ("", ".."):
        raise ConfigError(f"--output: {args.output!r} names no file")
    try:
        if not prefix.parent.is_dir():
            prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--output: cannot make the directory {prefix.parent}: {exc}") from None
    written = []

    def write(suffix: str, text: str) -> Path:
        path = prefix.with_name(prefix.name + suffix)
        _write_text(path, text)
        written.append(path)
        return path

    try:
        yield write
    finally:
        write(".manifest.txt", _kv_text([
            ("config_path", _resolve_config(args.config) if hasattr(args, "config") else "-"),
            ("command", command),
            ("output_paths", ",".join(map(str, written))),
            ("seed", "none" if seed is None else seed),
            ("tool_version", __version__),
            ("timestamp", datetime.now(timezone.utc).isoformat()),
        ]))


def _fit_report_items(fit: fitting.FitResult, v_raw: float):
    return [
        ("offset", fit.offset),
        ("visibility_fit", fit.visibility),
        ("visibility_raw", v_raw),
        ("period", fit.period),
        ("phase_rad", fit.phase_rad),
        ("rms_residual", fit.rms_residual),
        ("converged", fit.converged),
        ("iterations", fit.iterations),
        ("period_degenerate", fit.period_degenerate),
    ]


def _scan_settings(args, settings: scenario.ScanSettings) -> scenario.ScanSettings:
    """The config's scan settings with the scan flags applied; an invalid
    flag value is reported with the flag that gave it."""
    if (args.start is None) != (args.stop is None):
        raise ConfigError("--start and --stop must be given together")
    for flag, given in (("--axis", {"axis_kind": args.axis}), ("--steps", {"steps": args.steps}),
                        ("--start/--stop", {"start": args.start, "stop": args.stop})):
        if None not in given.values():
            try:
                settings = replace(settings, **given)
            except ConfigError as exc:
                raise ConfigError(f"{exc} (set by {flag})") from None
    return settings


def cmd_scan(args) -> int:
    cfg = _load(args)
    settings = _scan_settings(args, cfg.scan)
    seed = args.seed
    if settings.noise == "poisson" and seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**31))
    if settings.noise == "poisson" and seed < 0:
        raise ConfigError(f"--seed must be >= 0 for poisson noise, got {seed}")
    result = scenario.scan(cfg.source, cfg.knobs, settings, seed=seed)

    with _outputs(args, "scan", seed) as write:
        # The CSV is written before fitting so short scans still produce data.
        csv_path = write(".csv", _csv_text(("axis_value", "rate"), (result.axis, result.rates)))
        weights = result.rates * settings.mean_counts if settings.noise == "poisson" else None
        fit = fitting.fit_fringe(result, weights=weights)
        items = [("axis_kind", settings.axis_kind), ("steps", settings.steps)]
        items += _fit_report_items(fit, fitting.raw_visibility(result.rates))
        items += [
            ("analyzer1_deg", settings.analyzer1_deg),
            ("analyzer2_deg", settings.analyzer2_deg),
            ("grid_points", result.grid_points),
            ("reference_mode", bool(args.reference)),
        ]
        write(".report.txt", _kv_text(items))
    print(f"scan: wrote {csv_path} (period {fit.period:g}, visibility {fit.visibility:g})")
    return 0


def _sweep_values(raw: str):
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "none":
            values.append(None)
        else:
            try:
                value = float(token)
                if not math.isfinite(value):
                    raise ValueError(token)
            except ValueError:
                raise ConfigError(f"bad sweep grid value {token!r}") from None
            values.append(value)
    if not values:
        raise ConfigError("sweep grid is empty")
    return values


def cmd_sweep(args) -> int:
    cfg = _load(args)
    values = _sweep_values(args.grid)
    visibilities = scenario.sweep(cfg.source, cfg.knobs, args.parameter, values,
                                  cfg.scan.grid_points, cfg.scan.grid_span_factor)
    labels = ["none" if value is None else value for value in values]

    with _outputs(args, "sweep", args.seed) as write:
        csv_path = write(".csv", _csv_text(("parameter_value", "visibility"), (labels, visibilities)))
        write(".report.txt", _kv_text([
            ("parameter", args.parameter),
            ("points", len(values)),
            ("visibility_min", min(visibilities)),
            ("visibility_max", max(visibilities)),
            ("reference_mode", bool(args.reference)),
        ]))
    print(f"sweep: wrote {csv_path} ({len(values)} points)")
    return 0


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _row_fault(line: str):
    """What is wrong with a data row of a fit CSV, or None: it must hold two
    comma-separated finite numbers."""
    parts = line.split(",")
    if len(parts) != 2:
        return f"has {len(parts)} fields, expected 2"
    try:
        row = tuple(map(float, parts))
    except ValueError:
        return f"is not numeric: {line!r}"
    if not all(map(math.isfinite, row)):
        return f"is not finite: {line!r}"
    return None


def _read_csv(path: Path):
    """The axis and rate columns of a fit CSV: UTF-8 text, less one leading
    byte-order mark, whose non-blank lines are data rows (``_row_fault``),
    after a header line 1 in which no field is a number.  Every data field
    is parsed in one ``np.array(fields, dtype=float)``, which reads a field
    as ``float`` does; only a file that fails is walked row by row, to name
    its first bad row."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    lines = list(filter(str.strip, text.removeprefix("\ufeff").splitlines()))
    if not lines:
        raise DataError(f"{path}: empty file")
    header = not any(map(_is_number, lines[0].split(",")))
    rows = lines[header:]
    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    fields = ",".join(rows).split(",")
    try:
        # 2 n fields and a comma in each of the n rows: two fields a row.
        if len(fields) != 2 * len(rows) or not all(["," in row for row in rows]):
            raise ValueError
        values = np.array(fields, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError
    except ValueError:
        for number, line in enumerate(rows, start=1 + header):
            fault = _row_fault(line)
            if fault is not None:
                raise DataError(f"{path}: row {number} {fault}") from None
        raise
    axis, rates = values.reshape(-1, 2).T.copy()
    return axis, rates


def cmd_fit(args) -> int:
    axis, rates = _read_csv(Path(args.input))
    fit = fitting.fit_fringe((axis, rates))

    with _outputs(args, "fit", args.seed) as write:
        report_path = write(".report.txt", _kv_text([("input", str(args.input)), ("points", axis.size)]
                                                    + _fit_report_items(fit, fitting.raw_visibility(rates))))
    print(f"fit: visibility {fit.visibility:g}, period {fit.period:g} -> {report_path}")
    return 0


def cmd_prepare(args) -> int:
    cfg = _load(args)
    source, knobs = cfg.source, cfg.knobs
    gp, sf = cfg.scan.grid_points, cfg.scan.grid_span_factor

    target = args.target
    # The pump knob only moves the carrier phase: one budget and its terms serve
    # the solve, the prepared state and the reported compensation.
    budget = scenario.delay_budget(source, knobs)
    norm_a, norm_b, cross, _ = scenario.budget_terms(source, budget, gp, sf)
    terms = (norm_a, norm_b, complex(cross[0]))
    prepared = scenario.prepare_bell(source, target, knobs, terms=terms)
    state, visibility = scenario.effective_polarization_state(source, prepared, terms=terms)
    # The HH and VV coefficients are the two amplitudes' normalized weights
    # with the fringe phase; the coherence factor scales their interference.
    c_hh, c_vv = state.coefficients[0], state.coefficients[3]
    rate = scenario.analyzer_rate(abs(c_hh) ** 2, abs(c_vv) ** 2, visibility * c_hh * np.conj(c_vv),
                                  45.0, 45.0)
    uses_hwp = target.startswith("psi")
    if uses_hwp:
        state = polarization.half_wave_plate(state, 1, PHI_TO_PSI_HWP_DEG)
    fid = polarization.fidelity(state, polarization.make_state(target))

    items = [
        ("target", target),
        ("pump_delta_x_nm", prepared.pump_delta_x_nm),
        ("signal_tilt_deg", prepared.signal_tilt_deg),
        ("idler_tilt_deg", prepared.idler_tilt_deg),
        ("hwp_inserted", uses_hwp),
    ]
    if uses_hwp:
        items += [("hwp_port", 1), ("hwp_axis_deg", PHI_TO_PSI_HWP_DEG)]
    items += [
        ("fidelity", fid),
        ("visibility", visibility),
        ("rate_at_knobs", rate),
        ("required_compensation_fs", budget.required_compensation_fs),
        ("state_quality", "coherent" if visibility > 0.5 else "incoherent-mixture-equivalent"),
        ("reference_mode", bool(args.reference)),
    ]
    with _outputs(args, "prepare", args.seed) as write:
        report_path = write(".report.txt", _kv_text(items))
    print(f"prepare: {target} fidelity {fid:g}, visibility {visibility:g} -> {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use; each
    ``parse_args`` call returns a new namespace, so it carries nothing from
    one command to the next."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple:
    """The full parser and its command parsers by name, built once."""
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Pulsed two-crystal SPDC entanglement source: scans, sweeps, fringe fits.",
    )
    parser.add_argument("--version", action="version", version=f"bellsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="scenario YAML path, or 'default' for the packaged one")
        p.add_argument("--output", required=True, help="output path prefix")
        p.add_argument("--seed", type=int, default=None, help="noise seed (recorded in the manifest)")
        p.add_argument("--reference", action="store_true",
                       help="write reference_mode = true into the scan, sweep and prepare reports")

    p = sub.add_parser("scan", help="run a fringe scan and fit it")
    common(p)
    p.add_argument("--axis", choices=scenario.SCAN_AXIS_KINDS, default=None)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sweep", help="sweep one source parameter, recording visibility")
    common(p)
    p.add_argument("--parameter", choices=scenario.SWEEP_PARAMETERS, required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated values; 'none' allowed for filter_fwhm")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit a fringe CSV (columns axis_value,rate)")
    common(p, needs_config=False)
    p.add_argument("--input", required=True, help="CSV file to fit")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("prepare", help="solve knob settings for a Bell state")
    common(p)
    p.add_argument("--target", choices=polarization.BELL_KINDS, required=True)
    p.set_defaults(func=cmd_prepare)

    return parser, sub.choices


def _joined_grid(argv: list) -> list:
    """``argv`` with each ``--grid``, ``--start`` or ``--stop`` joined to a
    next token whose first comma-separated value is a float: argparse takes
    a separate -4e2 or -300,0,300 (but not -400) for an option."""
    joined = list(argv)
    for k in range(len(joined) - 2, -1, -1):
        if joined[k] in ("--grid", "--start", "--stop") and _is_number(joined[k + 1].split(",")[0]):
            joined[k:k + 2] = [f"{joined[k]}={joined[k + 1]}"]
    return joined


def main(argv=None) -> int:
    argv = _joined_grid(sys.argv[1:] if argv is None else argv)
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    args, extras = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or extras:
        args = parser.parse_args(argv)  # its usage and messages, as for any argv
    try:
        return args.func(args)
    except (ConfigError, DataError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
