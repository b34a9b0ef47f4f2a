"""The chain-theory family, written as text and parsed like any other
theory, and the one procedure that times how the engine scales on it:
`dlog bench`, `demos/scaling.py` and acceptance criterion 6 all read
`bench_chain`'s points, and `tools/stages.py` times the chain's text.
"""

from __future__ import annotations

import operator
import statistics
import time
from typing import NamedTuple

from . import engine
from .core import GroundTheory, Tag, TaggedConclusion, ground, lit
from .parser import parse_theory

ROUNDS = 7


def chain_text(n: int, attack_every: int = 10) -> str:
    """A defeasible chain p0 => p1 => ... => pn with periodic attacks, as text.

    The fact p0 starts the chain; every `attack_every` steps (none when it
    is 0) an empty-bodied attacker for ~pi is added together with a
    superiority statement in favour of the chain rule, so clause (2.3) is
    exercised along the way while +d pn stays derivable.  Structure grows
    linearly with n.
    """
    lines = ["p0."]
    for i in range(1, n + 1):
        lines.append(f"c{i}: p{i - 1} => p{i}.")
        if attack_every and i % attack_every == 0:
            lines += [f"a{i}: => ~p{i}.", f"c{i} > a{i}."]
    return "\n".join(lines) + "\n"


def chain_theory(n: int, attack_every: int = 10) -> GroundTheory:
    """The grounding of `chain_text(n, attack_every)`."""
    return ground(parse_theory(chain_text(n, attack_every)))


class BenchPoint(NamedTuple):
    size: int
    seconds: float  # the median time over the rounds
    conclusions: int
    ratio: float  # the median over the rounds of seconds / the first size's seconds


def bench_chain(sizes: tuple[int, ...]) -> list[BenchPoint]:
    """Time `derive_all` on the chain of each size over `ROUNDS` rounds and
    check that the end of each chain is defeasibly proved.

    A round times every size back to back, in the given order on even rounds
    and reversed on odd ones, so the times divided within a round share the
    machine's phase, and the median drops the rounds that a speed swing
    caught anyway; a ratio of two best-of times can take its minima from
    different phases.  The last link is looked up in the first round only:
    every round derives the same set, and a set's first lookup indexes its
    whole table.
    """
    theories = [chain_theory(n) for n in sizes]
    times: list[list[float]] = [[] for _ in sizes]
    counts = [0] * len(sizes)
    for round_ in range(ROUNDS):
        for i in range(len(sizes)) if round_ % 2 == 0 else reversed(range(len(sizes))):
            start = time.perf_counter()
            conclusions = engine.derive_all(theories[i])
            times[i].append(time.perf_counter() - start)
            if round_ == 0:
                counts[i] = len(conclusions)
                if TaggedConclusion(Tag.PLUS_PARTIAL, lit(f"p{sizes[i]}")) not in conclusions:
                    raise AssertionError(f"chain of {sizes[i]} failed to prove its last link")
    return [
        BenchPoint(n, statistics.median(t), counts[i], statistics.median(map(operator.truediv, t, times[0])))
        for i, (n, t) in enumerate(zip(sizes, times))
    ]
