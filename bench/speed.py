"""Machine-speed reference for the end-to-end times.

On a small shared machine the speed available to one thread drifts by up to
2x over tens of seconds (CPU time drifts with wall time, so it is not the
scheduler). Run medians of raw wall time then spread by about 20% between
runs, more than any bound worth having. The benchmark therefore times a
fixed numpy kernel of its own between measured calls, for about
``DUTY`` of the time measured (at least once after each call), and scales
each call's time by ``NOMINAL_S`` over the mean kernel time around it. The
package's code never runs in the kernel, so a change to the package moves
the scaled time exactly as it moves the raw time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time at the speed the scaled times are expressed in; close to
# its time on the machine the benchmark was tuned on.
NOMINAL_S = 0.1
# Kernel time per second measured: long calls average short-term
# fluctuations themselves, so their speed estimate needs as many samples.
DUTY = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        # small-matrix passes like a mini-batch curvature product, and
        # mid-size GEMMs like a full-batch chunk
        self._weights = [rng.standard_normal(s) for s in ((16, 36), (36, 20), (20, 10))]
        self._x = rng.standard_normal((32, 16))
        self._big = rng.standard_normal((192, 192))
        self._before = [self.kernel_time()]

    def kernel_time(self) -> float:
        t0 = perf_counter()
        for _ in range(2000):
            a, acts = self._x, []
            for w in self._weights:
                acts.append(a)
                a = np.maximum(a @ w, 0.0)
            for w, a_in in zip(reversed(self._weights), reversed(acts)):
                _ = a_in.T @ a
                a = a @ w.T
        for _ in range(100):
            _ = self._big @ self._big
        return perf_counter() - t0

    def scale(self, raw_s: float) -> float:
        """``raw_s``, measured just now, at nominal speed."""
        after = [self.kernel_time()]
        while sum(after) < DUTY * raw_s:
            after.append(self.kernel_time())
        speed_s = statistics.mean(self._before + after)
        self._before = after
        return raw_s * NOMINAL_S / speed_s
