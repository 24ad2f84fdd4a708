"""Host speed, sampled while the jobs run, and job times at reference speed.

The benchmark runs on shared virtual CPUs whose speed changes by up to 1.8x
within seconds, while this process has the CPU to itself (its CPU time and
its wall time agree).  Wall times of the same work then differ by as much
between two runs as a real change of the program would.  So while the jobs
run, a timer interrupts the process every ``INTERVAL`` seconds and times a
fixed reference kernel: a small exact Gaussian elimination over Q and over
GF(p), the same kind of work the library does, in code of the benchmark's
own that no change of the library touches.  ``KERNEL_SECONDS`` over the
kernel's time is the host's speed at that moment, 1.0 on a host as fast as
the one the constant was measured on.

A job's time at reference speed is its wall time, less the time spent in
the kernel, times the mean speed over the samples taken during the job (or,
for a job shorter than a few intervals, the samples nearest it).  Samples
are evenly spaced in wall time, so their mean is the job's time-averaged
speed.  A program that does twice the work takes twice the reference
seconds whatever the host is doing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025     # seconds between samples
NEAREST = 4          # samples a job's speed rests on at least
PRIME = 1000003
# Seconds the kernel takes when sampled every INTERVAL on a 2-vCPU Intel
# Xeon VM with Python 3.11.7 (about the lower decile of its samples there).
KERNEL_SECONDS = 0.0008

_MATRIX = [[(3 * i * i + 5 * j + i * j + 1) % 11 - 5 for j in range(7)] for i in range(5)]


def _eliminate(rows, zero, divide):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [divide(x, lead) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, rows


def kernel():
    """Reduce a fixed 5x7 integer matrix over Q and over GF(PRIME)."""
    q = _eliminate([[Fraction(x) for x in r] for r in _MATRIX], 0, lambda a, b: a / b)
    p = _eliminate([[x % PRIME for x in r] for r in _MATRIX], 0,
                   lambda a, b: a * pow(b, PRIME - 2, PRIME) % PRIME)
    return q[0], p[0]


class WallClock:
    """``mark`` and ``since`` time a stretch of work; ``reference_seconds``
    gives its wall time as it is, with no correction for the host's speed."""

    busy = 0.0               # seconds spent outside the work being timed

    def mark(self):
        return time.perf_counter(), self.busy

    def since(self, mark):
        """(start, end, seconds outside the handler) of the work since ``mark``."""
        end, busy = time.perf_counter(), self.busy
        return mark[0], end, end - mark[0] - (busy - mark[1])

    def reference_seconds(self, stretch):
        return stretch[2]


class Sampler(WallClock):
    """Times ``kernel`` on SIGALRM every ``INTERVAL`` seconds while active
    (``with sampler:``).  ``reference_seconds`` turns a stretch into seconds
    at reference speed; call it once the samples after the stretch have been
    taken."""

    def __init__(self):
        self.times = []      # perf_counter at the start of each sample
        self.speeds = []     # KERNEL_SECONDS over the kernel's time
        self.busy = 0.0      # seconds spent in the handler
        self._inside = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._inside:
            return
        self._inside = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.speeds.append(KERNEL_SECONDS / (end - start))
        self.busy += time.perf_counter() - start
        self._inside = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start, end):
        """Mean speed over the samples in [start, end], or over the
        ``NEAREST`` samples around it when fewer fall inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        if lo >= hi:
            raise RuntimeError("no speed samples: the sampler did not run")
        return statistics.fmean(self.speeds[lo:hi])

    def reference_seconds(self, stretch):
        start, end, own = stretch
        return own * self.speed(start, end)
