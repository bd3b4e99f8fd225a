"""Reference seconds: measured times corrected for the machine's speed state.

The reference machine shares its two cores with other tenants and runs in
two speed states about 1.8x apart, each lasting from seconds to minutes.
Runs of the same commit then differ by some 40% in plain seconds. A fixed
exact-arithmetic kernel follows those states closely, since it does the
same kind of work as the program (``Fraction`` arithmetic in the
interpreter), and it uses only the standard library, so a change to the
program cannot move it.

While a ``Clock`` is open, an interval timer interrupts the run every
EVERY_S seconds and times the kernel, also in the middle of a long program
call. ``now()`` is ``perf_counter()`` less the time spent in the kernel, so
intervals measured with it leave the kernel out. An interval converts to
reference seconds as

    reference = measured * NOMINAL_S / mean kernel time around it,

the mean taken over the kernel samples inside the interval and the nearest
one on either side.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

from reference import det_elim

# The kernel's time on the reference machine in its faster state.
NOMINAL_S = 0.0013
# Time between two kernel samples; a sample costs about 4 ms.
EVERY_S = 0.25

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(10)] for _ in range(10)]


def kernel_s() -> float:
    """Median time of three exact 10x10 rational determinants."""
    runs = []
    for _ in range(3):
        start = perf_counter()
        det_elim(_MATRIX)
        runs.append(perf_counter() - start)
    return statistics.median(runs)


class Clock:
    """Kernel samples over one run, taken on a timer signal, and the
    conversion to reference seconds they give. Use as a context manager."""

    def __init__(self):
        self.times: list[float] = []  # on the now() scale
        self.values: list[float] = []
        self._paused = 0.0
        self._busy = False

    def now(self) -> float:
        return perf_counter() - self._paused

    def _sample(self, *_):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = perf_counter()
            value = kernel_s()
            self._paused += perf_counter() - start
            self.times.append(self.now())
            self.values.append(value)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean kernel time around [start, end]."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = bisect.bisect_left(self.times, end)
        return NOMINAL_S / statistics.fmean(self.values[first : last + 1])
