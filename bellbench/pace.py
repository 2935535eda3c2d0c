"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same code runs at different speeds
for seconds to minutes at a time (on a 2-vCPU guest the same fixed session
alternated between ~38 and ~62 ms), with no steal time or frequency change
visible to the guest.  A run that falls in one speed state and the next run
in another then differ by more than any change to the program would.

``Pace`` times a fixed kernel that uses no bellsim code: a complex numpy
pass over a 128^2 array (the shape the spectral engine works on), a loop of
dict and string work (the interpreter work of argument and config handling)
and a pass over an 8 MB array (the memory traffic of refined grids).  The
kernel runs before every timed op and every set-up launch.  A time is then
reported at the reference speed, the speed at which the kernel takes
``REFERENCE_KERNEL_S``:

    reported = measured * REFERENCE_KERNEL_S / (median kernel time near it)

A change to bellsim leaves the kernel alone, so it moves the reported time
as much as the measured one; a change of machine state moves both the op
and the kernel, and cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the median kernel time after an op on a Xeon 2.1 GHz 2-vCPU guest
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31); a fixed constant, so reported
# times stay comparable between commits and runs.
REFERENCE_KERNEL_S = 3.5e-3
# A time is scaled by the median of the kernel times of this many ops on
# either side of it, so one noisy kernel time does not move it.
WINDOW = 4
WARMUP = 10


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        # Every array the kernel touches is allocated here, so its time does
        # not depend on the allocator state the program leaves behind.
        self._theta = rng.uniform(0.0, 2.0 * np.pi, (128, 128))
        self._amplitude = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self._phase = np.empty((128, 128), dtype=complex)
        self._large = rng.standard_normal(1 << 20)
        self._large_out = np.empty_like(self._large)
        for _ in range(WARMUP):
            self.kernel()

    def kernel(self) -> float:
        """Wall time of the fixed kernel, in seconds, on its second pass: the
        first pass after an op pays for the caches and threads the op left
        behind, which depend on the program, not on the machine."""
        self._pass()
        return self._pass()

    def _pass(self) -> float:
        start = time.perf_counter()
        np.cos(self._theta, out=self._phase.real)
        np.sin(self._theta, out=self._phase.imag)
        np.multiply(self._phase, self._amplitude, out=self._phase)
        total = float(np.vdot(self._phase, self._amplitude).real)
        table = {}
        for i in range(1500):
            key = f"k{i % 97}"
            table[key] = table.get(key, 0.0) + i * 0.5
        total += sum(table.values())
        np.multiply(self._large, 0.5, out=self._large_out)
        np.add(self._large_out, 1.0, out=self._large_out)
        total += float(self._large_out.sum())
        elapsed = time.perf_counter() - start
        if total != total:  # uses the result; it is never NaN
            raise RuntimeError("calibration kernel produced NaN")
        return elapsed


def scales(kernel_times) -> list:
    """Per-sample factor that brings a time to the reference speed, from the
    kernel times measured next to each sample."""
    n = len(kernel_times)
    return [REFERENCE_KERNEL_S / statistics.median(kernel_times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]
