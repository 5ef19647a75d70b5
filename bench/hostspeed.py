"""The host's speed over a run, from a fixed piece of reference work.

On a shared 2-vCPU host the same pass runs up to 1.7 times slower in
spells that last minutes, so whole runs read fast or slow together.
The benchmark times a fixed piece of pure-Python work of its own, which
no change to colorperm can touch, between the jobs of its passes.  The
run's time figures are scaled by ``REFERENCE_S`` over the mean time of
that work in the run: they read as seconds on this host at its usual
speed.  The unscaled figures are kept in the record.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

#: Mean seconds of reference_work on the reference host (2 vCPUs, Python 3.11).
REFERENCE_S = 0.0067
#: A burst of samples is taken at a job boundary at most this often.
SAMPLE_EVERY_S = 0.25
SAMPLE_BURST = 3


def reference_work() -> int:
    """Work shaped like the program's: a per-element tally, then a big-integer DP."""
    tally: dict = {}
    for w in itertools.permutations(range(7)):
        exc = 0
        for i, v in enumerate(w):
            if v > i:
                exc += 1
        key = (exc, w[0])
        tally[key] = tally.get(key, 0) + 1
    row = [1]
    for m in range(1, 120):
        row = [
            (row[k] * (k + 1) if k < m else 0) + (row[k - 1] * (m - k + 1) if k else 0)
            for k in range(m + 1)
        ]
    return len(tally) + len(row)


class HostSpeed:
    """Samples of reference_work's time, taken between jobs."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self):
        """Time a burst of reference work, unless one was taken just now."""
        if time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        for _ in range(SAMPLE_BURST):
            gc.disable()
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
            gc.enable()
        self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's seconds into seconds at the usual speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
