"""Differential testing of the three semantics against each other.

Any disagreement between the engine, the metaprogram fixpoint, and the
all-models consequences on a theory is a falsifying witness for one of the
soundness/completeness theorems the artifact rests on, so a witness is a
hard failure: it carries the rendered theory and is re-runnable as-is.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from . import engine, metaprogram, modelcheck
from .core import (
    ConclusionSet,
    Literal,
    Rule,
    RuleKind,
    SourceTheory,
    TaggedConclusion,
    ground,
    lit,
    neg,
    validate,
)
from .parser import render_theory


def generate_random_theory(
    seed: int, max_atoms: int, max_rules: int
) -> SourceTheory:
    """A random ground propositional theory, fully determined by the seed.

    Atoms are drawn from a pool of at most `max_atoms` propositions; bodies
    use both signs; all three rule kinds occur.  Superiority pairs are drawn
    over conflicting-head rules only and oriented from lower to higher rule
    index, which keeps the relation acyclic by construction.
    """
    if max_atoms < 1:
        raise ValueError("max_atoms must be at least 1")
    rng = random.Random(seed)
    atoms = [f"p{i}" for i in range(rng.randint(1, max_atoms))]

    def random_literal() -> Literal:
        name = rng.choice(atoms)
        return lit(name) if rng.random() < 0.5 else neg(name)

    facts = []
    for _ in range(rng.randint(0, 2)):
        f = random_literal()
        if f not in facts:
            facts.append(f)
    rules = []
    for i in range(rng.randint(0, max_rules)):
        kind = rng.choice(list(RuleKind))
        body = []
        for _ in range(rng.randint(0, 2)):
            a = random_literal()
            if a not in body:
                body.append(a)
        rules.append(Rule(f"r{i}", kind, tuple(body), random_literal()))
    superiority = []
    for i, hi in enumerate(rules):
        for lo in rules[i + 1:]:
            if hi.head == lo.head.complement() and rng.random() < 0.4:
                superiority.append((hi.label, lo.label))
    return SourceTheory(tuple(facts), tuple(rules), tuple(superiority))


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
