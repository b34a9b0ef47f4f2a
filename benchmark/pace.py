"""How fast the machine runs right now, from a fixed pure-Python probe.

On a shared virtual machine the same work can run 1.5-2x slower for
stretches of seconds to minutes, and the process CPU time slows with the
wall time.  A probe of fixed work, timed between operations, slows roughly in step
with them.  An operation's time scaled by REFERENCE_S / (local probe time) is
its time on a machine where the probe takes REFERENCE_S: the program's own
cost, with the machine's current speed divided out.  The probe calls nothing
in `dlog`, so a change to the program moves the scaled times and a change of
machine speed does not.
"""

from __future__ import annotations

import random
import statistics
from bisect import bisect
from time import perf_counter

REFERENCE_S = 0.007  # the unit: scaled times are seconds at this probe time
EVERY_S = 0.1  # at most one probe per this many seconds of run
NEIGHBOURS = 9  # an operation is scaled by the median of this many nearby probes


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def _pick(cell: _Cell, i: int) -> int:
    return cell.a + i if i & 1 else cell.b


TABLE_BYTES = 4 << 20  # larger than a core's private caches; counts in peak RSS
READS = 16_000


def probe(table: bytes, order: list[int]) -> float:
    """Seconds spent on a fixed piece of interpreter work: an integer loop,
    a loop of small function calls reading attributes, and reads of `table`
    in the random `order`.  Of the probes tried (also tokenising, building
    dataclasses, dict updates, allocating), the first two loops slowed and
    sped up most nearly in proportion to the program's operations; the
    reads add the stretches in which the machine slows memory access more
    than computation."""
    start = perf_counter()
    x = 0
    for i in range(30_000):
        x = (x * 31 + i) & 0xFFFF
    cell = _Cell(1, 2)
    for i in range(22_500):
        x += _pick(cell, i)
    for j in order:
        x += table[j]
    return perf_counter() - start


class Pace:
    """Probe timings taken through a run, and the scale factor they give
    for an operation that started at a given moment."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self._table = bytes(range(256)) * (TABLE_BYTES // 256)
        self._order = random.Random(0).sample(range(TABLE_BYTES), READS)

    def probe(self) -> None:
        self.at.append(perf_counter())
        self.seconds.append(probe(self._table, self._order))

    def tick(self) -> None:
        """Probe if EVERY_S has passed since the last probe."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the NEIGHBOURS probes nearest in
        time to `at` (fewer at the ends of the run)."""
        i = bisect(self.at, at)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.seconds[lo:lo + NEIGHBOURS])
