"""Scaling wall times to one reference speed.

The speed of a shared host swings by up to a factor of 2 within minutes,
for the program and for fixed pure-Python work alike.  So the benchmark
times a fixed calibration task before each job, and a wall time is
multiplied by (CALIBRATION_REF_S / c) ** CALIBRATION_EXPONENT, where c is
the median of the last CALIBRATION_WINDOW calibration times.

The small calibration task slows more than the program's jobs do: over ten
runs each on a 2-core host, a job's slowdown went as the calibration
slowdown to the power 0.59 (poly_exact), 0.65 (gadget_certify) and 0.62
(identity_suite).  The exponent is their rounded mean.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

CALIBRATION_REF_S = 0.009
CALIBRATION_EXPONENT = 0.6
CALIBRATION_WINDOW = 5
_CAL_N = 9
_CAL_EDGES = [(v, (v + 1) % _CAL_N) for v in range(_CAL_N)] + [(0, 4), (2, 6)]
_CAL_ADJ = [sum(1 << u for e in _CAL_EDGES for u in e if v in e and u != v)
            for v in range(_CAL_N)]


def _calibration_task() -> int:
    """Fixed pure-Python work in the style of the three workloads: set
    partitions of 8 points checked for properness on a fixed graph, a cut
    loop with connectivity tests, and Fraction arithmetic."""
    adj, n = _CAL_ADJ, _CAL_N - 1
    arr = [0] * n
    found = 0

    def proper(colors) -> bool:
        return all(not (adj[v] >> u) & 1 or colors[u] != colors[v]
                   for v in range(n) for u in range(v + 1, n))

    def rec(pos: int, used: int) -> None:
        nonlocal found
        if pos == n:
            found += proper(tuple(arr))
            return
        for block in range(used + 1):
            arr[pos] = block
            rec(pos + 1, used + (block == used))

    rec(1, 1)

    def connected(mask: int) -> bool:
        seen = frontier = mask & -mask
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & mask & ~seen
            seen |= new
            frontier |= new
        return seen == mask

    full = (1 << _CAL_N) - 1
    for t in range(1 << (_CAL_N - 1)):
        shore = 1 | (t << 1)
        if shore != full and connected(shore) and connected(full & ~shore):
            found += 1
    acc, term = Fraction(0), Fraction(1)
    for i in range(1, 120):
        term = term * Fraction(7 - i, i)
        acc += term * i
    return found + (acc > 0)


class Speed:
    """The host's recent speed, from calibration samples."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        # with the collector off, the sample does not depend on how many
        # objects the program keeps alive
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration_task()
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def scale(self, recent: bool = True) -> float:
        """Factor from wall seconds to reference seconds, from the last
        few samples or from all of them."""
        window = self.samples[-CALIBRATION_WINDOW:] if recent else self.samples
        return (CALIBRATION_REF_S
                / statistics.median(window)) ** CALIBRATION_EXPONENT
