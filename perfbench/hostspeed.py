"""Host speed sampling, and durations rescaled to a reference speed.

The benchmark runs on shared 2-core hosts whose speed drifts by up to 2x for
tens of seconds while other tenants run; a plain wall time then measures the
neighbours more than the program.  A worker therefore runs a fixed kernel of
interpreter work every PERIOD_S seconds from a timer signal, in the same
thread as the workload, and records when each run started and ended.  A
stretch of work between two samples is divided by the slowdown those samples
measured (kernel time over REFERENCE_KERNEL_S, as a running median over
SMOOTH_S either side), and the samples themselves are left out.  The result
is the duration the work would have had at the reference speed; the raw wall
times are reported beside it.

perf_counter is CLOCK_MONOTONIC on Linux, so the parent's and the worker's
timestamps are comparable.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

PERIOD_S = 0.1
SMOOTH_S = 1.0  # a sample's slowdown is the median of the samples this close
# Sets the scale only: rescaled times are those of a host on which one kernel
# run takes this long (about a busy 2-vCPU Linux VM under CPython 3.11).
REFERENCE_KERNEL_S = 0.0015

_TABLE = {(i * 40503) % 65521: i for i in range(8192)}


@dataclass(frozen=True)
class _Cell:
    row: tuple
    col: tuple

    def __post_init__(self):
        object.__setattr__(self, "row", tuple(sorted(self.row)))


def kernel():
    """Fixed interpreter work of the program's kinds: rational row
    operations, dict churn on tuple keys, and small frozen dataclasses built,
    compared and hashed."""
    row = [Fraction(i, 7) for i in range(1, 30)]
    for j in range(1, 5):
        f = Fraction(j, 13)
        row = [x - f * y for x, y in zip(row, row[1:] + row[:1])]
    d = {}
    s = 0
    for i in range(800):
        s += _TABLE.get((i * 7919) % 65521, 0)
        d[(i & 255, s & 7)] = (s, i)
    cells = {_Cell((i % 7, i % 5, i % 3), (i,)) for i in range(300)}
    return row, d, len(cells)


class Sampler:
    """Runs the kernel on a timer signal; samples are (start, end) pairs."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def start(self):
        kernel()  # the first run in a fresh interpreter is slower
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


class Rescaler:
    """Durations of intervals at the reference speed, from one worker's
    samples."""

    def __init__(self, samples):
        samples = sorted(samples)
        starts = [s for s, _ in samples]
        raw = [(e - s) / REFERENCE_KERNEL_S for s, e in samples]
        # one kernel run is itself noisy; the host's drifts last seconds
        slow = []
        for t in starts:
            near = raw[bisect.bisect_left(starts, t - SMOOTH_S) : bisect.bisect_right(starts, t + SMOOTH_S)]
            slow.append(statistics.median(near))
        # stretches between samples: (start, end, slowdown); the ends reach
        # out to cover intervals before the first and after the last sample
        self.stretches = [(float("-inf"), samples[0][0], slow[0])]
        for i in range(len(samples) - 1):
            self.stretches.append((samples[i][1], samples[i + 1][0], (slow[i] + slow[i + 1]) / 2))
        self.stretches.append((samples[-1][1], float("inf"), slow[-1]))
        self.ends = [e for _, e, _ in self.stretches]

    def duration(self, a, b):
        total = 0.0
        for s, e, slow in self.stretches[bisect.bisect_right(self.ends, a) :]:
            if s >= b:
                break
            total += (min(b, e) - max(a, s)) / slow
        return total

    def slowdown(self):
        """Median slowdown over the samples."""
        slows = sorted(x for _, _, x in self.stretches[1:-1]) or [self.stretches[0][2]]
        return slows[len(slows) // 2]
