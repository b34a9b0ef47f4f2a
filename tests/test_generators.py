"""The theory generators against references that build the same theories as
objects.

`differential.generate_random_theory` and `scaling.chain_theory` write their
theories as text and parse it.  The references below build the facts, rules
and superiority statements as `Literal`s and `Rule`s instead, from the same
random draws in the same order, so a fuzz seed, a witness printed with its
seed and the demos keep naming the same theories.
"""

import random
from typing import NamedTuple

import pytest

from dlog.core import Literal, Rule, RuleKind, ground, lit, neg
from dlog.differential import generate_random_theory
from dlog.parser import parse_theory, render_theory
from dlog.scaling import chain_text, chain_theory


class Written(NamedTuple):
    """A theory as objects: what `render_theory` reads."""

    facts: tuple[Literal, ...]
    rules: tuple[Rule, ...]
    superiority: tuple[tuple[str, str], ...]


def reference_random_theory(seed: int, max_atoms: int, max_rules: int) -> Written:
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
    return Written(tuple(facts), tuple(rules), tuple(superiority))


def reference_chain(n: int, attack_every: int) -> Written:
    facts = (lit("p0"),)
    rules = []
    superiority = []
    for i in range(1, n + 1):
        label = f"c{i}"
        rules.append(Rule(label, RuleKind.DEFEASIBLE, (lit(f"p{i-1}"),), lit(f"p{i}")))
        if attack_every and i % attack_every == 0:
            attacker = f"a{i}"
            rules.append(Rule(attacker, RuleKind.DEFEASIBLE, (), neg(f"p{i}")))
            superiority.append((label, attacker))
    return Written(facts, tuple(rules), tuple(superiority))


SEEDS = 5000  # per shape, 30,000 in all


@pytest.mark.parametrize(
    "max_atoms, max_rules, first_seed",
    [(3, 10, 0), (4, 12, 100_000), (4, 8, 200_000), (2, 6, 300_000), (1, 0, 400_000), (5, 20, 500_000)],
)
def test_random_theories_are_the_reference_draws(max_atoms, max_rules, first_seed):
    # (3, 10) is `dlog fuzz`'s default shape, and (4, 12) from seed 100,000
    # that of CI's fresh-seed fuzz
    for seed in range(first_seed, first_seed + SEEDS):
        t = generate_random_theory(seed, max_atoms, max_rules)
        assert (t.facts, t.rules, t.superiority) == reference_random_theory(seed, max_atoms, max_rules), seed


@pytest.mark.parametrize("attack_every", [0, 7, 10])
@pytest.mark.parametrize("n", [0, 1, 9, 10, 23, 2000])
def test_chain_is_the_reference_chain(n, attack_every):
    reference = reference_chain(n, attack_every)
    g = chain_theory(n, attack_every)
    assert (g.source.facts, g.source.rules, g.source.superiority) == reference
    # the canonical text of the objects grounds to the same columns
    expected = ground(parse_theory(render_theory(reference)))
    for field in ("positions", "offsets", "schema_of", "bindings", "kinds", "constants"):
        assert getattr(g, field) == getattr(expected, field), field
    assert parse_theory(chain_text(n, attack_every)) == g.source
