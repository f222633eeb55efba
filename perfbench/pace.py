"""Machine pace: a fixed reference computation, timed next to the ops, that
lets op times be read at one nominal machine speed.

The shared hosts this benchmark runs on change speed by themselves: the same
op runs up to 1.7x slower for stretches of seconds to minutes while other
tenants are busy, which moves every wall-clock figure of a run with it. The
reference below does the kinds of work the workloads do (interpreted Python
arithmetic and dict stores; sorts and cumulative sums of small numpy arrays
with ``math.fsum``; a gather and cumulative sum over an array larger than
the core's cache) and does not touch maxvar, so its time tracks the host's
speed and not the code under test. A time ``t`` measured between two pace
samples ``p0`` and ``p1`` is reported as ``t * NOMINAL_S / mean(p0, p1)``:
on a host that runs the reference in ``NOMINAL_S`` it reads as the wall
time, and a program that gets slower reads slower by the same factor.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# Median time of one ``Pace.sample`` on the machine the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6). It only fixes the
# scale; the spread of scaled times does not depend on it.
NOMINAL_S = 0.0044
# Take a pace sample after an op once this long has passed since the last.
EVERY_S = 0.2


class Pace:
    """The reference computation; ``sample()`` times one run of it."""

    def __init__(self) -> None:
        import numpy  # here, not at import: set-up time must not include it

        self.np = numpy
        rng = numpy.random.default_rng(12345)
        self.small = [rng.uniform(size=200) for _ in range(12)]
        self.large = rng.uniform(size=100_000)
        self.gather = rng.permutation(100_000)

    def _work(self) -> float:
        np = self.np
        s = 0.0
        table = {}
        for i in range(12_000):
            s += (i * 0.5) % 7.0
            table[i & 255] = s
        for a in self.small:
            cum = np.cumsum(a[np.argsort(a)])
            s += math.fsum(cum.tolist()) + float(np.searchsorted(cum, 0.5))
        return s + float(np.cumsum(self.large[self.gather])[-1])

    def sample(self) -> float:
        # No collection of the program's garbage inside the sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self._work()
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def scale(times: list[float], segments, paces: list[float]) -> list[float]:
    """Each time at the nominal pace; time ``k`` was taken between
    ``paces[segments[k]]`` and ``paces[segments[k] + 1]``."""
    return [t * NOMINAL_S * 2.0 / (paces[s] + paces[s + 1]) for t, s in zip(times, segments)]
