"""Differential testing of the three semantics against each other.

Any disagreement between the engine, the metaprogram fixpoint, and the
all-models consequences on a theory is a falsifying witness for one of the
soundness/completeness theorems the artifact rests on, so a witness is a
hard failure: it carries the rendered theory and is re-runnable as-is.
The random theories are written as text and parsed, as every theory is.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from . import engine, metaprogram, modelcheck
from .core import (
    ARROWS,
    ConclusionSet,
    RuleKind,
    SourceTheory,
    TaggedConclusion,
    ground,
    validate,
)
from .parser import parse_theory, render_theory


def generate_random_theory(
    seed: int, max_atoms: int, max_rules: int
) -> SourceTheory:
    """A random ground propositional theory, fully determined by the seed,
    written as text and parsed.

    Atoms are drawn from a pool of at most `max_atoms` propositions; bodies
    use both signs; all three rule kinds occur.  Superiority pairs are drawn
    over conflicting-head rules only and oriented from lower to higher rule
    index, which keeps the relation acyclic by construction.  A literal is
    drawn as its text, `p<k>` or `~p<k>`; facts and bodies skip a literal
    already drawn for them.
    """
    if max_atoms < 1:
        raise ValueError("max_atoms must be at least 1")
    rng = random.Random(seed)
    atoms = [f"p{i}" for i in range(rng.randint(1, max_atoms))]

    def random_literal() -> str:
        name = rng.choice(atoms)
        return name if rng.random() < 0.5 else f"~{name}"

    facts = []
    for _ in range(rng.randint(0, 2)):
        f = random_literal()
        if f not in facts:
            facts.append(f)
    lines = [f"{f}." for f in facts]
    heads = []
    for i in range(rng.randint(0, max_rules)):
        arrow = ARROWS[rng.choice(list(RuleKind))]
        body = []
        for _ in range(rng.randint(0, 2)):
            a = random_literal()
            if a not in body:
                body.append(a)
        heads.append(random_literal())
        lines.append(f"r{i}: {', '.join(body)} {arrow} {heads[i]}.")
    for i, hi in enumerate(heads):
        for j in range(i + 1, len(heads)):
            # complementary heads: the same atom, one of them negated
            if hi.lstrip("~") == heads[j].lstrip("~") and hi != heads[j] and rng.random() < 0.4:
                lines.append(f"r{i} > r{j}.")
    return parse_theory("\n".join(lines) + "\n")


class DivergenceWitness(NamedTuple):
    theory_text: str
    engine_conclusions: ConclusionSet
    metaprogram_conclusions: ConclusionSet
    model_conclusions: Optional[ConclusionSet]
    disagreements: tuple[TaggedConclusion, ...]

    def __str__(self) -> str:
        lines = ["semantics diverge on theory:", self.theory_text.rstrip()]
        lines += [f"  disagrees: {c}" for c in self.disagreements]
        return "\n".join(lines)


def compare_semantics(
    theory: SourceTheory,
    include_models: bool = True,
    cap: Optional[int] = None,
) -> Optional[DivergenceWitness]:
    """Run the theory through all semantics and return a witness on any
    disagreement, None when they coincide."""
    g = ground(theory)
    validate(g)
    from_engine = engine.derive_all(g)
    from_meta = metaprogram.conclusions(g)
    from_models = (
        modelcheck.logical_consequences(g, cap) if include_models else None
    )
    results = [from_meta] + ([from_models] if include_models else [])
    if all(other == from_engine for other in results):
        return None
    disagreements: set[TaggedConclusion] = set()
    for other in results:
        disagreements |= set(from_engine) ^ set(other)
    return DivergenceWitness(
        theory_text=render_theory(theory),
        engine_conclusions=from_engine,
        metaprogram_conclusions=from_meta,
        model_conclusions=from_models,
        disagreements=tuple(sorted(disagreements, key=str)),
    )


def fuzz(
    count: int,
    seed: int,
    max_atoms: int = 3,
    max_rules: int = 10,
    include_models: bool = True,
    cap: Optional[int] = None,
) -> list[DivergenceWitness]:
    """Compare the semantics on `count` seeded random theories."""
    witnesses = []
    for i in range(count):
        theory = generate_random_theory(seed + i, max_atoms, max_rules)
        w = compare_semantics(theory, include_models=include_models, cap=cap)
        if w is not None:
            witnesses.append(w)
    return witnesses
