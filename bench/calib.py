"""Host-speed calibration for the timed runs.

On a host shared with other jobs, the same code runs up to 2x slower for
stretches of seconds to minutes.  A fixed reference computation,
independent of cdcat, is timed about every TICK_S seconds while set-up and
the verdict run (from a SIGALRM handler, so no thread is started).  Each
slice of wall time between two ticks is divided by the reference time
measured at its ends and scaled by REF_S, the reference's time on an idle
host.  The result is in idle-host seconds: a program change moves it as it
moves wall time, while host contention, which slows the reference and the
program alike, largely cancels.

The reference mixes what cdcat spends its time on: dicts keyed by exponent
tuples, small objects with Python-level __hash__/__eq__, and Fraction
arithmetic.  Its time is excluded from the verdict's wall time.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes

TICK_S = 0.025
# reference() on an uncontended 2-vCPU x86-64 host with CPython 3.11.7 (the
# 10th percentile of 6,000 back-to-back runs); it only sets the unit
REF_S = 0.0016

_A = {(i % 5, (i * 3) % 4, i % 3): (i * 7) % 11 + 1 for i in range(40)}
_B = {((i * 2) % 5, i % 4, (i * 5) % 3): (i * 3) % 13 + 1 for i in range(40)}
_F = {(i % 4, i % 3): Fraction(i + 1, (i % 5) + 2) for i in range(14)}


class _Key:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def times(self, other):
        return _Key(self.a + other.a, self.b * other.b % 7)


_K = [_Key(i % 6, i % 7) for i in range(30)]


def reference():
    """The fixed reference computation."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    keys = {}
    for x in _K:
        for y in _K:
            k = x.times(y)
            keys[k] = keys.get(k, 0) + 1
    frac = {}
    for ea, ca in _F.items():
        for eb, cb in _F.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            frac[e] = frac.get(e, 0) + ca * cb
    return len(out) + len(keys) + len(frac)


reference()  # a first run is slower: compile-time and adaptive-interpreter warm-up
reference()


def spot() -> float:
    """Median time of three back-to-back reference runs."""
    times = []
    for _ in range(3):
        t = perf_counter()
        reference()
        times.append(perf_counter() - t)
    return statistics.median(times)


class Ticker:
    """Times reference() every TICK_S seconds of wall time while active."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each run

    def _tick(self, signum, frame):
        t = perf_counter()
        reference()
        self.ticks.append((t, perf_counter()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self, t0: float, t1: float) -> tuple[float, float, int]:
        """(wall seconds, idle-host seconds, ticks) of the interval t0..t1,
        both without the time spent in the reference itself."""
        ticks = [(a, b) for a, b in self.ticks if t0 <= a and b <= t1]
        if not ticks:  # shorter than one tick: use a spot reading
            return t1 - t0, (t1 - t0) * REF_S / spot(), 0
        cuts = [(t0, t0)] + ticks + [(t1, t1)]
        wall = idle = 0.0
        for k in range(len(cuts) - 1):
            piece = cuts[k + 1][0] - cuts[k][1]
            ends = [b - a for a, b in (cuts[k], cuts[k + 1]) if b > a]
            wall += piece
            idle += piece * REF_S * len(ends) / sum(ends)
        return wall, idle, len(ticks)
