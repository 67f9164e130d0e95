"""A fixed pure-Python computation that gauges the machine's current speed.

On a shared machine the same detmatroid call can take twice as long from one
second to the next.  While the benchmark measures, a SIGALRM handler runs
this reference every INTERVAL seconds, inside long operations too, and
each measured time is scaled by REF_SECONDS / (the mean reference time
during and around it).  The mean, not the median: an operation is slowed by
the share of its time the machine is busy, and the mean of the reference
times grows in step with that share, while their median jumps between the
busy and the idle time.  A time then reads as seconds at a fixed reference
speed, and the machine's load cancels out.  The reference uses the
interpreter the way the library does, with GF(p) row elimination and bitmask
scans, and never calls the library.  Time spent in the handler is subtracted
from every measured interval.

The handler runs inside the library's operations, so the reference is kept
independent of the library's state.  The computation allocates no list,
tuple, iterator or other object the cyclic garbage collector tracks, so it
never sets off a collection of the library's objects.  Each sample runs the
computation twice and times the second run, whose data is then in the core's
own caches whatever the library's working set left there.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from itertools import combinations
from time import perf_counter

# Roughly what one timed reference run takes at the fast end of a 2-vCPU
# x86-64 VM with CPython 3.11; sets the scale of every normalised time.
REF_SECONDS = 0.002
INTERVAL = 0.05
# reference samples this close to an interval describe its speed; at least
# MIN_SAMPLES of the nearest are used
WINDOW = 0.25
MIN_SAMPLES = 15

_P = 2147483647
_rng = random.Random(20261017)
# 64 x 64 so that the reference touches a working set the size of the
# library's larger Jacobians; a 14 x 14 matrix tracked the library's
# slowdowns only half as well.
_MATRIX = [[_rng.randrange(_P) for _ in range(64)] for _ in range(64)]
_WORK = [row[:] for row in _MATRIX]
_MASKS = [_rng.getrandbits(12) for _ in range(10)]
_SUBSETS = [sum(1 << i for i in rows) for rows in combinations(range(12), 4)]


def _compute() -> int:
    """One column of elimination on a fresh copy of _MATRIX, then a scan of
    all 4-row subsets of 12 rows against _MASKS; slice assignment and
    indexed loops keep it free of container and iterator allocations."""
    n = len(_WORK)
    for i in range(n):
        _WORK[i][:] = _MATRIX[i]
    prow = _WORK[0]
    inv = pow(prow[0], _P - 2, _P)
    for i in range(1, n):
        row = _WORK[i]
        f = row[0] * inv % _P
        for j in range(n):
            row[j] = (row[j] - f * prow[j]) % _P
    worst = 0
    for s in range(len(_SUBSETS)):  # indices: a list iterator is GC-tracked
        imask = _SUBSETS[s]
        total = 0
        for c in range(len(_MASKS)):
            total += (_MASKS[c] & imask).bit_count()
        if total > worst:
            worst = total
    return worst


def reference() -> float:
    """Run the reference once untimed, once timed; return the timed run's
    duration in seconds."""
    _compute()
    start = perf_counter()
    _compute()
    return perf_counter() - start


class SpeedProbe:
    """Reference timings sampled from SIGALRM while the probe is active.

    `paused` is the running total of seconds spent in the handler; callers
    read it before and after an interval and subtract the difference."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler is dropped
            return
        self._busy = True
        start = perf_counter()
        self.times.append(reference())
        self.stamps.append(start)
        self.paused += perf_counter() - start
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REF_SECONDS / the mean reference time within WINDOW of
        [start, end], widened to the MIN_SAMPLES nearest samples if fewer."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW)
        hi = bisect.bisect_right(self.stamps, end + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times):
                hi += 1
        return REF_SECONDS / statistics.fmean(self.times[lo:hi])
