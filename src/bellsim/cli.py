"""Command-line front end: scan | sweep | fit | prepare.

Each run writes plain-text artifacts next to the --output prefix: a CSV data
file (where applicable), a flat key = value report, and a run manifest.
Floats are written with repr so outputs are byte-reproducible; the manifest
is the only file carrying a timestamp.

Exit codes: 0 success, 2 config error, 3 data error, 4 preparation
infeasible.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, fitting, polarization, scenario
from .errors import ConfigError, DataError, InfeasibleError, InsufficientDataError
from .polarization import PHI_TO_PSI_HWP_DEG

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_kv(path: Path, items) -> None:
    path.write_text("".join(f"{k} = {_fmt(v)}\n" for k, v in items))


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _resolve_config(arg: str):
    if arg == "default":
        return scenario.default_config_path()
    return arg


def _load(args):
    return scenario.load_config(_resolve_config(args.config))


def _outputs(args, *suffixes) -> list:
    """The paths of ``--output`` plus each suffix, in a directory that now
    exists."""
    prefix = Path(args.output)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return [prefix.with_name(prefix.name + suffix) for suffix in suffixes]


def _write_manifest(path: Path, args, command: str, outputs, seed) -> None:
    _write_kv(path, [
        ("config_path", _resolve_config(args.config) if hasattr(args, "config") else "-"),
        ("command", command),
        ("output_paths", ",".join(map(str, outputs))),
        ("seed", "none" if seed is None else seed),
        ("tool_version", __version__),
        ("timestamp", datetime.now(timezone.utc).isoformat()),
    ])


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


def cmd_scan(args) -> int:
    cfg = _load(args)
    settings = cfg.scan
    axis_kind = args.axis or settings.axis_kind
    steps = args.steps if args.steps is not None else settings.steps
    if args.start is not None or args.stop is not None:
        if args.start is None or args.stop is None:
            raise ConfigError("--start and --stop must be given together")
        scan_range = (args.start, args.stop)
    elif settings.start is not None and settings.stop is not None:
        scan_range = (settings.start, settings.stop)
    else:
        scan_range = None

    noise = settings.noise
    seed = args.seed
    if noise == "poisson" and seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**31))

    result = scenario.scan(
        cfg.source,
        axis_kind,
        scan_range=scan_range,
        steps=steps,
        analyzers=polarization.AnalyzerSetting(settings.analyzer1_deg, settings.analyzer2_deg),
        knobs=cfg.knobs,
        grid_points=settings.grid_points,
        grid_span_factor=settings.grid_span_factor,
        noise=noise,
        mean_counts=settings.mean_counts,
        seed=seed if noise == "poisson" else None,
    )

    csv_path, report_path, manifest_path = _outputs(args, ".csv", ".report.txt", ".manifest.txt")
    _write_csv(csv_path, ("axis_value", "rate"), zip(result.axis, result.rates))
    _write_manifest(manifest_path, args, "scan", (csv_path, report_path), seed)

    # The CSV is written before fitting so short scans still produce data.
    weights = result.rates * settings.mean_counts if noise == "poisson" else None
    fit = fitting.fit_fringe(result, weights=weights)
    items = [("axis_kind", axis_kind), ("steps", steps)]
    items += _fit_report_items(fit, fitting.raw_visibility(result.rates))
    items += [
        ("analyzer1_deg", settings.analyzer1_deg),
        ("analyzer2_deg", settings.analyzer2_deg),
        ("grid_points", result.metadata["grid_points"]),
        ("reference_mode", bool(args.reference)),
    ]
    _write_kv(report_path, items)
    print(f"scan: wrote {csv_path} (period {fit.period:g}, visibility {fit.visibility:g})")
    return EXIT_OK


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
    rows = [("none" if value is None else value, v) for value, v in zip(values, visibilities)]

    csv_path, report_path, manifest_path = _outputs(args, ".csv", ".report.txt", ".manifest.txt")
    _write_csv(csv_path, ("parameter_value", "visibility"), rows)
    _write_kv(report_path, [
        ("parameter", args.parameter),
        ("points", len(rows)),
        ("visibility_min", min(visibilities)),
        ("visibility_max", max(visibilities)),
        ("reference_mode", bool(args.reference)),
    ])
    _write_manifest(manifest_path, args, "sweep", (csv_path, report_path), args.seed)
    print(f"sweep: wrote {csv_path} ({len(rows)} points)")
    return EXIT_OK


def _read_csv(path: Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: row {number} has {len(parts)} fields, expected 2")
        try:
            row = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise DataError(f"{path}: row {number} is not numeric: {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path}: row {number} is not finite: {line!r}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


def cmd_fit(args) -> int:
    axis, rates = _read_csv(Path(args.input))
    fit = fitting.fit_fringe((axis, rates))

    report_path, manifest_path = _outputs(args, ".report.txt", ".manifest.txt")
    _write_kv(report_path, [("input", str(args.input)), ("points", axis.size)]
              + _fit_report_items(fit, fitting.raw_visibility(rates)))
    _write_manifest(manifest_path, args, "fit", (report_path,), args.seed)
    print(f"fit: visibility {fit.visibility:g}, period {fit.period:g} -> {report_path}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    cfg = _load(args)
    source, knobs = cfg.source, cfg.knobs
    gp, sf = cfg.scan.grid_points, cfg.scan.grid_span_factor

    target = args.target
    phi_target = {"phi+": "phi+", "phi-": "phi-", "psi+": "phi+", "psi-": "phi-"}[target]
    # The pump knob only moves the carrier phase: one budget and its terms serve
    # the solve, the prepared state and the reported compensation.
    budget = scenario.delay_budget(source, knobs)
    norm_a, norm_b, cross, _ = scenario.budget_terms(source, budget, gp, sf)
    terms = (norm_a, norm_b, complex(cross[0]))
    prepared = scenario.prepare_bell(source, phi_target, knobs, terms=terms)
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

    report_path, manifest_path = _outputs(args, ".report.txt", ".manifest.txt")
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
    _write_kv(report_path, items)
    _write_manifest(manifest_path, args, "prepare", (report_path,), args.seed)
    print(f"prepare: {target} fidelity {fid:g}, visibility {visibility:g} -> {report_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--target", choices=("phi+", "phi-", "psi+", "psi-"), required=True)
    p.set_defaults(func=cmd_prepare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InsufficientDataError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
