"""Machine-normalised timing.

The 2-core shared VM this benchmark was sized on changes speed by 30-70 %
over a few seconds: a fixed pure-Python loop alternates between about 10 ms
and 13 ms in runs of several seconds, process CPU time tracks wall time, and
no steal time is reported.  So the slowdown is in the CPU itself (a busy
sibling thread or a lower clock), and neither CPU time nor medians within one
run remove it: the medians of whole runs minutes apart differed by 78 %.

Each timed piece of work is therefore bracketed by a short calibration job
that does not use wfametrics (best-first search over a small heap of tuples
and numpy vectors, the same kind of work as the library's node loop), and
its wall time is rescaled by ``NOMINAL_S / calibration``.  The result is in
seconds of a machine on which the calibration job takes ``NOMINAL_S``, its
fast state on the hardware named in README.md.  On that hardware the
rescaling cut the rep-to-rep spread of bnb-corpus from 45 % to 9 %.
Raw wall times are kept in the full record next to the rescaled ones.
"""

from __future__ import annotations

import heapq
from time import perf_counter

import numpy as np

NOMINAL_S = 0.013
_NODES = 800
_REPEATS = 3


def reference_job(nodes: int = _NODES) -> None:
    rng = np.random.default_rng(0)
    mats = 0.4 * rng.standard_normal((2, 6, 6))
    weights = rng.standard_normal(6)
    heap = [(0.0, 0, (), weights)]
    for _ in range(nodes):
        _, depth, word, state = heapq.heappop(heap)
        children = mats @ state
        values = np.abs(children @ weights)
        for sym in range(2):
            bound = -float(values[sym]) - float(np.linalg.norm(children[sym]))
            heapq.heappush(heap, (bound, depth + 1, word + (sym,), children[sym]))


def calibrate() -> float:
    """Best of a few runs of the reference job, in seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        t0 = perf_counter()
        reference_job()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times callables and rescales each by the calibrations just before and after it."""

    def __init__(self):
        self.last = calibrate()
        self.calibrations = [self.last]

    def run(self, fn, *args):
        """``(result, wall seconds, factor)``; the normalised time is ``wall * factor``."""
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        now = calibrate()
        factor = NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        self.calibrations.append(now)
        return result, wall, factor
