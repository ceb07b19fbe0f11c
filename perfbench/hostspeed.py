"""Host-speed reference: report times as if the host ran at one fixed speed.

On a shared 2-vCPU x86 VM the speed of one core drifted by up to 1.9x over
tens of seconds, as other tenants came and went, and it drifted alike for
every kind of code: numpy-heavy solves, tree-walk evaluation and this
module's kernel slowed down together.  Longer runs do not average it away
(over 4.5 minutes, the quartile spread of 29 s windows of ex6 solves was
0.15, of 1 s windows 0.20), but the ratio of the program's time to the
kernel's time, taken close together, moved 3-5% where each alone moved
13-25%.

So the benchmark times a fixed reference kernel between units of work, at
least every SLICE_S seconds, and scales each unit's time by
REFERENCE_MS / (the kernel's time around it): a time is reported as it would
read on a host that runs the kernel in exactly REFERENCE_MS.  The kernel does
not touch the program, so a change to the program moves the scaled times by
as much as it moves the raw ones.  Raw times stay in the run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_MS = 15.0
SLICE_S = 0.3

_ROUNDS = 1000
_A = np.cos(np.arange(64, dtype=float)).reshape(8, 8)
_B = _A @ _A.T + 8.0 * np.eye(8)


def kernel() -> float:
    """Fixed work of the kinds the program does: interpreter loops, dict and
    float arithmetic, and small numpy calls."""
    acc, counts = 0.0, {}
    for i in range(_ROUNDS):
        counts[i % 17] = counts.get(i % 17, 0) + i
        acc += float(np.linalg.norm(np.linalg.solve(_B + 1e-3 * (i % 5), _A[:, i % 8])))
        acc += sum(j * 0.5 for j in range(30))
    return acc


def reference_ms() -> float:
    tick = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - tick)


class SpeedLog:
    """Kernel timings taken between units of work, and the scale they give."""

    def __init__(self):
        self.ends = []       # perf_counter when each sample ended
        self.starts = []     # perf_counter when each sample began
        self.ms = []

    def sample(self) -> None:
        tick = time.perf_counter()
        kernel()
        tock = time.perf_counter()
        self.starts.append(tick)
        self.ends.append(tock)
        self.ms.append(1e3 * (tock - tick))

    def maybe_sample(self) -> None:
        """Sample when the last sample is older than SLICE_S."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= SLICE_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for work done in [t0, t1]: REFERENCE_MS over the mean of
        the last sample that ended by t0 and the first that began after t1."""
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        near = [self.ms[j] for j in (before, after) if 0 <= j < len(self.ms)]
        if not near:
            raise ValueError("no reference sample around the interval")
        return REFERENCE_MS / statistics.fmean(near)

    def run_scale(self) -> float:
        """One factor for a whole run: REFERENCE_MS over the median sample."""
        return REFERENCE_MS / statistics.median(self.ms)

    def summary(self) -> dict:
        return {"samples": len(self.ms), "ms_median": statistics.median(self.ms),
                "ms_min": min(self.ms), "ms_max": max(self.ms)}
