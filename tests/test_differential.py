"""Cross-semantics fuzzing and the chain-theory scaling family."""

import io
import random

import pytest

from dlog import engine, metaprogram, modelcheck
from dlog.cli import _print_conclusions
from dlog.core import (
    ConclusionSet,
    GroundingError,
    RuleKind,
    Tag,
    TaggedConclusion,
    ValidationError,
    ground,
    lit,
    neg,
    validate,
)
from dlog import scaling
from dlog.differential import compare_semantics, fuzz, generate_random_theory
from dlog.parser import parse_theory, render_theory
from dlog.scaling import bench_chain, chain_theory
from test_grounding import random_first_order_theory


def test_generator_is_deterministic():
    a = generate_random_theory(42, max_atoms=3, max_rules=10)
    b = generate_random_theory(42, max_atoms=3, max_rules=10)
    assert a == b
    assert a != generate_random_theory(43, max_atoms=3, max_rules=10)


def test_generator_output_is_valid_and_groundable():
    from dlog.core import ground

    kinds_seen = set()
    sup_seen = False
    for seed in range(200):
        t = generate_random_theory(seed, max_atoms=3, max_rules=10)
        g = ground(t)
        validate(g)  # acyclic superiority by construction
        kinds_seen.update(r.kind for r in t.rules)
        sup_seen = sup_seen or bool(t.superiority)
    # the generator reaches the whole language
    assert kinds_seen == set(RuleKind)
    assert sup_seen


def test_generator_rejects_empty_atom_pool():
    with pytest.raises(ValueError):
        generate_random_theory(0, max_atoms=0, max_rules=5)


def test_compare_semantics_accepts_agreement():
    t = parse_theory("r1: => p. r2: => ~p. r1 > r2.")
    assert compare_semantics(t) is None


def without_plus_d_p(g, conclusions):
    """`conclusions` over `g` with +d p taken out: a sabotaged oracle's."""
    return ConclusionSet.from_tag_sets(
        g, {tag: [c.literal for c in conclusions if c.tag is tag and str(c) != "+d p"] for tag in Tag}
    )


def test_compare_semantics_witness_is_rerunnable():
    # sabotage one oracle to prove a witness would actually surface
    import dlog.differential as d

    t = parse_theory("f. r: f => p.")
    real = d.metaprogram.conclusions

    def wrong(g):
        return without_plus_d_p(g, real(g))

    d.metaprogram.conclusions = wrong
    try:
        w = d.compare_semantics(t)
    finally:
        d.metaprogram.conclusions = real
    assert w is not None
    assert any(str(c) == "+d p" for c in w.disagreements)
    # the witness carries the theory in runnable form
    assert compare_semantics(parse_theory(w.theory_text)) is None


def test_compare_semantics_witness_from_models(monkeypatch):
    # a model-side mismatch names exactly the conclusions that differ
    import dlog.differential as d

    real = d.modelcheck.logical_consequences

    def wrong(g, cap=None):
        return without_plus_d_p(g, real(g, cap))

    monkeypatch.setattr(d.modelcheck, "logical_consequences", wrong)
    w = d.compare_semantics(parse_theory("f. r: f => p."))
    assert w is not None
    assert [str(c) for c in w.disagreements] == ["+d p"]
    assert w.metaprogram_conclusions == w.engine_conclusions


def test_oracles_read_columns_only(bird_text, monkeypatch):
    # the metaprogram, the model set, the comparison of their sets with the
    # engine's and the render of `models --consequences` read the columns:
    # neither the rules as `Rule`s nor the literal table is built, on the
    # bird fixture, 50 random propositional theories and 20 first-order ones
    # (those that ground and validate)
    import dlog.differential as d

    theories = [parse_theory(bird_text)]
    theories += [generate_random_theory(seed, 3, 10) for seed in range(50)]
    theories += [random_first_order_theory(seed) for seed in range(20)]
    cap = modelcheck.DEFAULT_CAP
    checked = []  # (theory, whether its models are within the cap)
    for theory in theories:
        try:
            g = ground(theory)
            validate(g)
        except (GroundingError, ValidationError):
            continue
        within = 6**g.table_size <= cap
        from_engine = engine.derive_all(g)
        assert metaprogram.conclusions(g) == from_engine
        if within:
            from_models = modelcheck.logical_consequences(g, cap)
            assert from_models == from_engine
            _print_conclusions(g, from_models, io.StringIO(), False)
        assert "rules" not in vars(g) and "literals" not in vars(g), render_theory(theory)
        checked.append((theory, within))
    assert len(checked) >= 60 and sum(within for _, within in checked) >= 50
    # and `compare_semantics` itself, on the theory it grounds
    kept = []

    def keep(theory):
        kept.append(ground(theory))
        return kept[-1]

    monkeypatch.setattr(d, "ground", keep)
    for theory, within in checked:
        assert compare_semantics(theory, include_models=within, cap=cap) is None
        assert "rules" not in vars(kept[-1]) and "literals" not in vars(kept[-1]), render_theory(theory)
    assert len(kept) == len(checked)


def test_fuzz_runs_clean():
    # [DERIVED] a window of the seed space; the acceptance suite runs the
    # full budgets
    assert fuzz(100, seed=2024) == []
    assert fuzz(50, seed=555, include_models=False) == []


def test_fuzz_four_atoms_all_semantics():
    # [DERIVED] bases up to 8 literals: 6^8 = 1,679,616 candidates, within
    # the default enumeration cap, so all three semantics take part
    bases = {len(ground(generate_random_theory(seed, 4, 12)).literals) for seed in range(200)}
    assert max(bases) == 8
    assert fuzz(200, seed=0, max_atoms=4, max_rules=12) == []


def test_duplicate_labels_agree_without_validate():
    # `validate` rejects a repeated label, but the semantics must not depend
    # on it: superiority relates rules by index, so `r > s` reaches the first
    # `r`, whose head conflicts with s's, in every semantics alike
    from dlog import modelcheck

    g = ground(parse_theory("r: => p. r: => q. s: => ~p. r > s."))
    assert g.positions.superiority == {(0, 2)}
    cs = engine.derive_all(g)
    assert cs == metaprogram.conclusions(g) == modelcheck.logical_consequences(g)
    goal = TaggedConclusion(Tag.PLUS_PARTIAL, lit("p"))
    assert goal in cs
    assert engine.prove(g, goal)
    assert engine.check_derivation(g, engine.explain(g, goal)).valid


def test_chain_theory_shape():
    g = chain_theory(20, attack_every=10)
    assert len(g.source.facts) == 1
    # 20 chain rules + 2 attackers
    assert len(g.rules) == 22
    assert len(g.superiority) == 2
    validate(g)
    cs = engine.derive_all(g)
    assert TaggedConclusion(Tag.PLUS_PARTIAL, lit("p20")) in cs
    # the attacked links still go through because the chain rule is superior
    assert TaggedConclusion(Tag.PLUS_PARTIAL, lit("p10")) in cs
    assert TaggedConclusion(Tag.MINUS_PARTIAL, neg("p10")) in cs


def test_chain_without_attacks():
    g = chain_theory(5, attack_every=0)
    assert len(g.rules) == 5
    cs = engine.derive_all(g)
    assert TaggedConclusion(Tag.PLUS_PARTIAL, lit("p5")) in cs


def test_bench_chain_reports_points():
    pts = bench_chain((100, 200))
    assert [p.size for p in pts] == [100, 200]
    assert all(p.seconds >= 0 for p in pts)
    assert all(p.conclusions > 0 for p in pts)
    assert pts[0].ratio == 1.0


def test_bench_chain_pairs_rounds(monkeypatch):
    # a fake clock that each fake derive_all advances by the size's next
    # scripted time, so the procedure is read without timing anything.  The
    # per-round ratios of size 3 to size 2 are 4, 4, 4, 1, 2, 2, 2, whose
    # median is 2; the ratio of the median times is 1 and of the best times 4
    scripted = {2: [1, 1, 1, 4, 4, 4, 4], 3: [4, 4, 4, 4, 8, 8, 8]}
    now, order, lookups = [0.0], [], []

    class Conclusions:
        def __len__(self):
            return 7

        def __contains__(self, conclusion):
            lookups.append(conclusion)
            return True

    def derive_all(g):
        size = len(g.rules)  # below the first attacker, one rule per link
        order.append(size)
        now[0] += scripted[size].pop(0)
        return Conclusions()

    monkeypatch.setattr(scaling.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(scaling.engine, "derive_all", derive_all)
    pts = bench_chain((2, 3))
    assert order == [2, 3, 3, 2] * 3 + [2, 3]
    assert pts == [scaling.BenchPoint(2, 4, 7, 1.0), scaling.BenchPoint(3, 4, 7, 2.0)]
    assert [str(c) for c in lookups] == ["+d p2", "+d p3"]


def circle_text(rng: random.Random, atoms: int, loops: int) -> str:
    """Disjoint cycles pa => pb over `atoms` atoms.  A cycle is left alone
    (its atoms stay undefined; two chances in five), given a fact, given an
    unconditional attacker of one member, or both."""
    cuts = sorted(rng.sample(range(1, atoms), loops - 1))
    names = list(range(atoms))
    rng.shuffle(names)
    statements = []
    for lo, hi in zip([0] + cuts, cuts + [atoms]):
        ring = names[lo:hi]
        for j, a in enumerate(ring):
            statements.append(f"c{a}: p{a} => p{ring[(j + 1) % len(ring)]}.")
        fact, attacked = rng.choice(
            [(False, False), (False, False), (True, False), (False, True), (True, True)]
        )
        if fact:
            statements.append(f"p{rng.choice(ring)}.")
        if attacked:
            a = rng.choice(ring)
            statements.append(f"x{a}: => ~p{a}.")
    return "\n".join(statements)


def teams_text(rng: random.Random, nodes: int) -> str:
    """A 4-ary tree of disputed literals: every qk has two supporting and two
    attacking rules whose bodies are its children (empty at the leaves); each
    supporter is superior to each attacker with probability 3/4."""
    statements = []
    for k in range(nodes):
        for j in range(1, 5):
            child = 4 * k + j
            body = f"q{child} " if child < nodes else ""
            head = f"q{k}" if j <= 2 else f"~q{k}"
            statements.append(f"t{k}_{j}: {body}=> {head}.")
        statements += [
            f"t{k}_{s} > t{k}_{a}." for s in (1, 2) for a in (3, 4) if rng.random() < 0.75
        ]
    return "\n".join(statements)


MID_SIZE = {
    "chain": lambda rng: chain_theory(rng.randint(120, 140), attack_every=rng.randint(2, 10)),
    "circle": lambda rng: ground(parse_theory(circle_text(rng, 150, rng.randint(8, 16)))),
    "teams": lambda rng: ground(parse_theory(teams_text(rng, 37))),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", sorted(MID_SIZE))
def test_engine_matches_metaprogram_mid_size(family, seed):
    # [DERIVED] the undefined-loop and superiority paths against the
    # fixpoint oracle on theories of about 150 rules
    g = MID_SIZE[family](random.Random(seed))
    validate(g)
    assert 120 <= len(g.rules) <= 220
    assert engine.derive_all(g) == metaprogram.conclusions(g)


LARGE = {
    "chain": lambda rng: chain_theory(10_000, attack_every=rng.randint(2, 10)),
    "circle": lambda rng: ground(parse_theory(circle_text(rng, 10_000, rng.randint(500, 1000)))),
    "teams": lambda rng: ground(parse_theory(teams_text(rng, 2_500))),
}


@pytest.mark.parametrize("family", sorted(LARGE))
def test_engine_matches_metaprogram_10k(family):
    # [DERIVED] the same families at 10k rules, which the linear fixpoint
    # makes affordable
    g = LARGE[family](random.Random(0))
    validate(g)
    assert 10_000 <= len(g.rules) <= 15_000
    assert engine.derive_all(g) == metaprogram.conclusions(g)
