"""Sinusoid fitting for coincidence fringes: R = A (1 + V cos(2 pi x / P + phi)).

The optimizer works in the singularity-free parameterization
(A, a, b, f) with model A + a cos(2 pi f x) + b sin(2 pi f x), so V -> 0 does
not couple to the phase.  The frequency is initialized from the dominant
bin of a discrete transform of the mean-subtracted data and refined by a
damped (Levenberg-Marquardt) Gauss-Newton loop with an analytic Jacobian;
convergence means a relative parameter change below 1e-10 within the
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
An axis whose span or Gram matrix J^T J overflows a float is a DataError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientDataError

MAX_ITERATIONS = 200
RELATIVE_PARAMETER_TOLERANCE = 1.0e-10
# The stop test divides the steps of the cos and sin coefficients by
# max(|coefficient|, floor * hypot(a, b)), so a coefficient that is exactly 0
# (fringe phase 0 or +-pi/2) does not hold the loop to MAX_ITERATIONS.
COEFFICIENT_SCALE_FLOOR = 1.0e-5
# Two spectral bins within this power ratio trigger a second fit start.
AMBIGUOUS_POWER_RATIO = 0.8
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


def _model_and_jacobian(params, x, twopi_x, jac):
    """Model at ``params``; writes the cos, sin and frequency columns of the
    Jacobian into ``jac`` in place (column 0 holds the constant 1)."""
    offset, a, b, freq = params
    arg = 2.0 * np.pi * freq * x
    c = np.cos(arg, out=jac[:, 1])
    s = np.sin(arg, out=jac[:, 2])
    d_freq = np.multiply(s, -a, out=jac[:, 3])
    d_freq += b * c
    d_freq *= twopi_x
    model = a * c
    model += offset
    model += b * s
    return model


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
    freqs = np.fft.rfftfreq(n, d=(xs[-1] - xs[0]) / (n - 1))
    order = np.argsort(power)[::-1]
    best = order[0]
    candidates = [freqs[best]]
    if order.size > 1:
        second = order[1]
        if power[second] >= AMBIGUOUS_POWER_RATIO * power[best] and abs(int(second) - int(best)) > 1:
            candidates.append(freqs[second])
    return [f for f in candidates if f > 0.0]


def _initial_linear(x, y, sw, freq):
    """Least-squares (offset, a, b) at fixed frequency; ``sw`` holds the
    square roots of the weights, or is None for unit weights."""
    arg = 2.0 * np.pi * freq * x
    basis = np.column_stack((np.ones_like(x), np.cos(arg), np.sin(arg)))
    if sw is not None:
        basis *= sw[:, None]
        y = y * sw
    coeffs, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return coeffs


def _levenberg_marquardt(x, y, sw, params):
    twopi_x = 2.0 * np.pi * x
    jac = np.empty((x.size, 4))
    jac[:, 0] = 1.0

    def residual_and_cost(p):
        m = _model_and_jacobian(p, x, twopi_x, jac)
        r = m - y
        if sw is not None:
            r *= sw
        return m, r, float(r @ r)

    lam = 1.0e-3
    model, residual, cost = residual_and_cost(params)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        # Trials overwrite ``jac``, so grad and hessian are taken first.
        jw = jac if sw is None else jac * sw[:, None]
        grad = jw.T @ residual
        with np.errstate(over="ignore", invalid="ignore"):
            hessian = jw.T @ jw
        if not np.isfinite(hessian).all():
            raise DataError(f"the fit's Gram matrix overflows a float on a scan axis reaching |x| = "
                            f"{float(np.abs(x).max()):g}; rescale the axis")
        diagonal = hessian.diagonal() + 1e-30
        step = None
        for _ in range(40):
            damped = hessian.copy()
            damped.flat[::5] += lam * diagonal
            try:
                step = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = params + step
            t_model, t_residual, t_cost = residual_and_cost(trial)
            if t_cost <= cost:
                lam = max(lam * 0.1, 1.0e-14)
                break
            lam *= 10.0
            step = None
        if step is None:
            break  # damping exhausted; keep best iterate
        # The stop test, on four Python floats: each step below the tolerance
        # of its scale; a NaN step or parameter fails it (max(nan, x) is nan).
        offset, a, b, freq = params.tolist()
        floor = COEFFICIENT_SCALE_FLOOR * math.hypot(a, b)
        scales = (abs(offset), max(abs(a), floor), max(abs(b), floor), abs(freq))
        small = all(abs(d) / (s + 1.0e-30) < RELATIVE_PARAMETER_TOLERANCE for d, s in zip(step.tolist(), scales))
        params = trial
        model, residual, cost = t_model, t_residual, t_cost
        if small:
            converged = True
            break
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
    order = np.argsort(x)
    x, y = x[order], y[order]
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
        variances = np.maximum(np.asarray(weights, dtype=float)[order], 1.0)
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
        offset, a, b = _initial_linear(x, y, sw, freq)
        params = np.array([offset, a, b, freq], dtype=float)
        params, model, cost, converged, iterations = _levenberg_marquardt(x, y, sw, params)
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
