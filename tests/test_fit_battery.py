"""Pinned fit battery: ~300 seeded fringe fits, compared bit for bit.

``tests/data/fit_battery.json`` holds every ``FitResult`` field of 300
seeded fits, 33-257 points each: half on noiseless fringes, half on Poisson
counts fitted with Poisson weights.  Changes to the fitter that are meant to
leave converging fits alone (a cheaper iteration, a stop rule that only
differs when a cos/sin coefficient vanishes) must reproduce ``iterations``,
``converged`` and every parameter exactly.  Regenerate (only when a change
of the fitted numbers is intended) with

    PYTHONPATH=src python tests/test_fit_battery.py
"""

import json
import math
from pathlib import Path

import numpy as np

from bellsim.fitting import fit_fringe

BATTERY_PATH = Path(__file__).parent / "data" / "fit_battery.json"
SEED = 20000707
CASES = 300
FIELDS = ("offset", "visibility", "period", "phase_rad", "rms_residual",
          "converged", "iterations", "period_degenerate")


def battery_inputs():
    """(axis, rates, weights) of every case; weights are None when noiseless."""
    rng = np.random.Generator(np.random.PCG64(SEED))
    for case in range(CASES):
        points = int(rng.integers(33, 258))
        period = rng.uniform(20.0, 900.0)
        start = rng.uniform(-2.0, 2.0) * period
        x = np.linspace(start, start + rng.uniform(2.0, 8.0) * period, points)
        offset = rng.uniform(0.5, 5000.0)
        visibility = rng.uniform(0.02, 1.0)
        phase = rng.uniform(-math.pi, math.pi)
        clean = offset * (1.0 + visibility * np.cos(2.0 * np.pi * x / period + phase))
        if case % 2 == 0:
            yield x, clean, None
        else:
            counts = rng.poisson(clean).astype(float)
            yield x, counts, counts


def battery_values() -> list:
    """Every pinned field of every case, computed by the code under test."""
    values = []
    for x, y, weights in battery_inputs():
        fit = fit_fringe((x, y), weights=weights)
        values.append({field: getattr(fit, field) for field in FIELDS})
    return values


def test_fit_battery_matches_bit_for_bit():
    expected = json.loads(BATTERY_PATH.read_text())
    actual = battery_values()
    assert len(expected) == len(actual) == CASES
    mismatches = [(k, field, e[field], a[field])
                  for k, (e, a) in enumerate(zip(expected, actual))
                  for field in FIELDS if e[field] != a[field]]
    assert not mismatches, f"{len(mismatches)} mismatches, first {mismatches[:3]}"


if __name__ == "__main__":
    BATTERY_PATH.write_text(json.dumps(battery_values(), indent=0) + "\n")
    print(f"wrote {BATTERY_PATH}")
