"""Sinusoid fitting for coincidence fringes: R = A (1 + V cos(2 pi x / P + phi)).

The optimizer works in the singularity-free parameterization
(A, a, b, f) with model A + a cos(2 pi f x) + b sin(2 pi f x), so V -> 0 does
not couple to the phase.  The frequency is initialized from the dominant
bin of a discrete transform of the mean-subtracted data, (A, a, b) by linear
least squares at that frequency, and all four are refined by a damped
(Levenberg-Marquardt) Gauss-Newton loop with an analytic Jacobian J.

Each damped trial solves (J^T J + lam D) step = -J^T r, D the diagonal of
J^T J with 1e-30 added to each entry but never more than the entry itself
(so a tiny axis is damped as a unit one is).  It then writes, into buffers
the fit keeps, the phase 2 pi f x, its cos and sin, the model, the
(weighted) residual r and the cost r.r; only an accepted trial turns its cos
and sin into columns of J and forms the frequency column
2 pi x (b cos - a sin).

Convergence means a relative parameter change below 1e-10 within the
iteration cap.  The step of A and f is taken relative to |A| and |f|; the
steps of a and b relative to max(|a|, 1e-5 hypot(a, b)) and
max(|b|, 1e-5 hypot(a, b)), so a coefficient that is exactly 0 (an exact
fringe at phase 0 or +-pi/2) does not keep the loop running to the cap,
while fits with two non-negligible coefficients follow the plain relative
test.  Visibility, period and phase are recovered afterwards:
V = sqrt(a^2 + b^2)/A, P = 1/f, phi = atan2(-b, a), phi in (-pi, pi].
A fit whose amplitude sqrt(a^2 + b^2) is at most n eps |A| (n points, eps
float64's machine epsilon), the rounding of the rates themselves, is
reported with ``period_degenerate``: its period and phase say nothing.

An axis whose span or Gram matrix J^T J overflows a float is a DataError,
and so is an axis so short (|x| below ~1e-160) that a nonzero column of J
has squares that underflow to a zero diagonal entry of J^T J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DataError, InsufficientDataError

MAX_ITERATIONS = 200
RELATIVE_PARAMETER_TOLERANCE = 1.0e-10
# The stop test divides the steps of the cos and sin coefficients by
# max(|coefficient|, floor * hypot(a, b)), so a coefficient that is exactly 0
# (fringe phase 0 or +-pi/2) does not hold the loop to MAX_ITERATIONS.
COEFFICIENT_SCALE_FLOOR = 1.0e-5
# Two spectral bins within this power ratio trigger a second fit start.
AMBIGUOUS_POWER_RATIO = 0.8
# The floor added to each entry of the damping diagonal, capped at the entry.
DAMPING_FLOOR = 1.0e-30
# A fitted amplitude hypot(a, b) of at most n * FLOAT_EPSILON * |offset|
# (n points) is the rates' rounding, not a fringe: the fit is degenerate.
FLOAT_EPSILON = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitResult:
    offset: float
    visibility: float
    period: float
    phase_rad: float
    rms_residual: float
    converged: bool
    iterations: int
    period_degenerate: bool = False


def raw_visibility(rates) -> float:
    """(max - min) / (max + min) contrast estimator on the raw samples."""
    r = np.asarray(rates, dtype=float)
    hi, lo = float(r.max()), float(r.min())
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def _spectral_frequencies(x, y):
    """Candidate fringe frequencies from the dominant nonzero bins of a
    discrete transform of the mean-subtracted data (resampled uniformly
    when the axis is not)."""
    n = x.size
    xs = np.linspace(x[0], x[-1], n)
    ys = y if np.max(np.abs(x - xs)) <= 1e-12 * (abs(x[-1] - x[0]) + 1.0) else np.interp(xs, x, y)
    spectrum = np.fft.rfft(ys - ys.mean())
    power = np.abs(spectrum) ** 2
    power[0] = 0.0
    if power.max() <= 0.0:
        return []
    # Bin k's frequency k / (n d), as np.fft.rfftfreq forms it.
    bin_width = 1.0 / (n * (float(xs[-1] - xs[0]) / (n - 1)))
    order = np.argsort(power)[::-1]
    best = int(order[0])
    candidates = [best * bin_width]
    if order.size > 1:
        second = int(order[1])
        if power[second] >= AMBIGUOUS_POWER_RATIO * power[best] and abs(second - best) > 1:
            candidates.append(second * bin_width)
    return [f for f in candidates if f > 0.0]


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _solve(matrix, rhs):
    """``np.linalg.solve(matrix, rhs)`` for one float64 system, without its
    argument checks: the same gufunc inside the same errstate, so the step
    has the same bits and a singular matrix is still a LinAlgError."""
    with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _umath_linalg.solve1(matrix, rhs, signature="dd->d")


def _levenberg_marquardt(x, y, sw, freq):
    """The damped Gauss-Newton loop from the least-squares (offset, a, b) at
    ``freq``; ``sw`` holds the square roots of the weights, or is None for
    unit weights.  Returns (params, model, cost, converged, iterations),
    with params (offset, a, b, freq) as Python floats."""
    n = x.size
    twopi_x = 2.0 * np.pi * x
    # The Jacobian at the current parameters, each row weighted by sw when
    # given: the columns 1, cos, sin and d/dfreq.
    jac = np.empty((n, 4))
    jac[:, 0] = 1.0 if sw is None else sw
    arg, cos, sin, term = np.empty((4, n))
    model, residual, t_model, t_residual = np.empty((4, n))
    damped = np.empty((4, 4))
    damped_diagonal = damped.reshape(16)[::5]

    def phase_terms(freq):
        """cos and sin of 2 pi freq x, into ``cos`` and ``sin``."""
        np.multiply(x, 2.0 * math.pi * freq, out=arg)
        np.cos(arg, out=cos)
        np.sin(arg, out=sin)

    def cost_at(offset, a, b, model, residual):
        """Writes the model and the (weighted) residual from ``cos`` and
        ``sin``, and returns the cost."""
        np.multiply(cos, a, out=model)
        np.add(model, offset, out=model)
        np.multiply(sin, b, out=term)
        np.add(model, term, out=model)
        np.subtract(model, y, out=residual)
        if sw is not None:
            np.multiply(residual, sw, out=residual)
        return float(residual.dot(residual))

    def take_phase_columns():
        for k, column in ((1, cos), (2, sin)):
            if sw is None:
                jac[:, k] = column
            else:
                np.multiply(column, sw, out=jac[:, k])

    def take_frequency_column(a, b):
        np.multiply(sin, -a, out=term)
        np.multiply(cos, b, out=arg)
        np.add(term, arg, out=term)
        np.multiply(term, twopi_x, out=term)
        if sw is None:
            jac[:, 3] = term
        else:
            np.multiply(term, sw, out=jac[:, 3])

    # The start: (offset, a, b) by least squares on the weighted columns
    # 1, cos and sin at ``freq``.
    phase_terms(freq)
    take_phase_columns()
    offset, a, b = np.linalg.lstsq(jac[:, :3], y if sw is None else y * sw, rcond=None)[0].tolist()
    params = [offset, a, b, freq]
    cost = cost_at(offset, a, b, model, residual)
    take_frequency_column(a, b)

    lam = 1.0e-3
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        neg_grad = -(jac.T @ residual)
        with np.errstate(over="ignore", invalid="ignore"):
            hessian = jac.T @ jac
        entries = hessian.ravel().tolist()
        if not all(map(math.isfinite, entries)):
            raise DataError(f"the fit's Gram matrix overflows a float on a scan axis reaching |x| = "
                            f"{float(np.abs(x).max()):g}; rescale the axis")
        gram = entries[::5]
        # Marquardt's scaling: each parameter is damped by its entry of the
        # Gram diagonal, plus a floor of DAMPING_FLOOR that never exceeds the
        # entry itself, so that a tiny axis keeps relative damping.  A zero
        # column is damped by the floor alone; a nonzero column whose squares
        # underflow to 0 would be damped wrongly, which is an error.
        if 0.0 in gram and any(d == 0.0 and jac[:, k].any() for k, d in enumerate(gram)):
            raise DataError(f"the fit's Gram matrix underflows a float on a scan axis spanning "
                            f"{float(x[-1] - x[0]):g}; rescale the axis")
        diagonal = [d + min(d, DAMPING_FLOOR) if d else DAMPING_FLOOR for d in gram]
        np.copyto(damped, hessian)
        step = None
        for _ in range(40):
            # Each trial adds lam times the floored diagonal to J^T J's.
            damped_diagonal[:] = [h + lam * d for h, d in zip(gram, diagonal)]
            try:
                step = _solve(damped, neg_grad).tolist()
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = [p + d for p, d in zip(params, step)]
            phase_terms(trial[3])
            t_cost = cost_at(*trial[:3], t_model, t_residual)
            if t_cost <= cost:
                lam = max(lam * 0.1, 1.0e-14)
                break
            lam *= 10.0
            step = None
        if step is None:
            break  # damping exhausted; keep best iterate
        # The stop test: each step below the tolerance of its scale; a NaN
        # step or parameter fails it (max(nan, x) is nan).
        offset, a, b, freq = params
        floor = COEFFICIENT_SCALE_FLOOR * math.hypot(a, b)
        scales = (abs(offset), max(abs(a), floor), max(abs(b), floor), abs(freq))
        small = all(abs(d) / (s + 1.0e-30) < RELATIVE_PARAMETER_TOLERANCE for d, s in zip(step, scales))
        params, cost = trial, t_cost
        model, t_model, residual, t_residual = t_model, model, t_residual, residual
        if small:
            converged = True
            break
        take_phase_columns()
        take_frequency_column(params[1], params[2])
    return params, model, cost, converged, iterations


def _wrap_phase(phi: float) -> float:
    wrapped = math.fmod(phi + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def fit_fringe(scan, weights=None) -> FitResult:
    """Fit the fringe model to a FringeScan or a bare (axis, rates) pair.

    ``weights`` are per-point variances (inverse-variance weighting); for
    count data pass the counts themselves (Poisson), floored at 1.
    """
    if hasattr(scan, "axis"):
        x = np.asarray(scan.axis, dtype=float)
        y = np.asarray(scan.rates, dtype=float)
    else:
        x, y = (np.asarray(v, dtype=float) for v in scan)
    if x.ndim != 1 or x.shape != y.shape:
        raise DataError("scan axis and rates must be equal-length 1-D arrays")
    if x.size < 8:
        raise InsufficientDataError(f"need at least 8 points, got {x.size}")
    if not (x[1:] > x[:-1]).all():
        # Scans come sorted; any other axis is sorted here.
        order = np.argsort(x)
        x, y = x[order], y[order]
        if weights is not None:
            weights = np.asarray(weights, dtype=float)[order]
    if x[-1] == x[0]:
        raise DataError(f"scan axis spans zero: every axis value is {float(x[0])!r}")
    first, last = float(x[0]), float(x[-1])
    span = last - first
    if not math.isfinite(span):
        raise DataError(f"scan axis span overflows a float: the axis runs from {first!r} to {last!r}; "
                        f"rescale the axis")
    # Unit weights are skipped, not multiplied by: sw is None.
    if weights is None:
        w = sw = None
    else:
        variances = np.maximum(np.asarray(weights, dtype=float), 1.0)
        w = 1.0 / variances
        sw = np.sqrt(w)

    candidates = _spectral_frequencies(x, y)
    if not candidates:
        # Flat data: no resolvable fringe. Report the scan span as the
        # (degenerate) period.
        offset = float(np.average(y, weights=w))
        rms = float(np.sqrt(np.mean((y - offset) ** 2)))
        return FitResult(
            offset=offset,
            visibility=0.0,
            period=span,
            phase_rad=0.0,
            rms_residual=rms,
            converged=True,
            iterations=0,
            period_degenerate=True,
        )

    if span * max(candidates) < 1.5:
        raise InsufficientDataError(
            f"scan spans {span * max(candidates):.3g} fringe periods; need >= 1.5"
        )

    best = None
    for freq in candidates:
        params, model, cost, converged, iterations = _levenberg_marquardt(x, y, sw, freq)
        if best is None or cost < best[2]:
            best = (params, model, cost, converged, iterations)

    params, model, _, converged, iterations = best
    offset, a, b, freq = params
    freq = abs(freq)
    amplitude = math.hypot(a, b)
    visibility = 0.0 if offset == 0.0 else min(max(amplitude / abs(offset), 0.0), 1.0)
    rms = float(np.sqrt(np.mean((model - y) ** 2)))
    return FitResult(
        offset=float(offset),
        visibility=float(visibility),
        period=float(1.0 / freq) if freq > 0.0 else float("inf"),
        phase_rad=_wrap_phase(math.atan2(-b, a)),
        rms_residual=rms,
        converged=bool(converged),
        iterations=int(iterations),
        period_degenerate=not (freq > 0.0 and amplitude > x.size * FLOAT_EPSILON * abs(offset)),
    )
