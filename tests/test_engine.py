"""The conclusion engine: fixpoint results, explanations, derivation replay."""

import gc
import inspect
import itertools
import random
import sys

import pytest

from dlog.core import (
    ConclusionSet,
    GroundTheory,
    GroundingError,
    InternalError,
    Positions,
    RuleKind,
    Tag,
    TaggedConclusion,
    ValidationError,
    ground,
    lit,
    validate,
)
from dlog.differential import generate_random_theory
from dlog.engine import (
    NoDerivationError,
    _Propagation,
    check_derivation,
    derive_all,
    explain,
    prove,
)
from dlog.parser import ParseError, parse_conclusion, parse_theory
from test_grounding import benchmark_texts, random_first_order_theory


def conclude(text: str):
    return derive_all(ground(parse_theory(text)))


def c(text: str) -> TaggedConclusion:
    return parse_conclusion(text)


# [PAPER] the worked conclusions of the bird theory
BIRD_CONCLUSIONS = [
    "+D emu(ethel)",
    "+D bird(tweety)",
    "+D bird(ethel)",
    "-D heavy(tweety)",
    "-D ~flies(tweety)",
    "+d bird(ethel)",
    "-d brokenWing(ethel)",
    "-d ~flies(ethel)",
    "+d heavy(ethel)",
    "-d flies(ethel)",
    "-d brokenWing(tweety)",
    "-d heavy(tweety)",
    "-d ~flies(tweety)",
    "+d flies(tweety)",
]


def test_bird_conclusions(bird):
    cs = derive_all(bird)
    for text in BIRD_CONCLUSIONS:
        assert c(text) in cs, text
    # the defeater r3 prevents ~flies(ethel) without ever concluding it
    assert c("+d ~flies(ethel)") not in cs
    assert c("+d flies(ethel)") not in cs


def test_paraconsistency():
    # [PAPER] facts a and ~a do not leak into unrelated literals
    cs = conclude("a. ~a. r: b -> b.")
    for text in ("+D a", "+D ~a", "+d a", "+d ~a"):
        assert c(text) in cs
    # b is supported only by itself: undefined at both levels
    for tag in Tag:
        assert TaggedConclusion(tag, lit("b")) not in cs


def test_self_supporting_loop():
    # [PAPER] p => p gives no defeasible verdict on p but a definite failure
    cs = conclude("r: p => p.")
    assert c("-D p") in cs
    assert c("-D ~p") in cs
    assert c("-d ~p") in cs
    assert c("+d p") not in cs and c("-d p") not in cs


def test_unresolved_conflict():
    cs = conclude("r1: => p. r2: => ~p.")
    for text in ("-D p", "-D ~p", "-d p", "-d ~p"):
        assert c(text) in cs


def test_superiority_resolves_conflict():
    cs = conclude("r1: => p. r2: => ~p. r1 > r2.")
    assert c("+d p") in cs
    assert c("-d ~p") in cs


def test_team_defeat():
    # [DERIVED] each attacker is beaten by some supporter, though neither
    # supporter beats both; cross-checked against both oracles in the
    # differential suite
    cs = conclude(
        "r1: => p. r2: => p. s1: => ~p. s2: => ~p. r1 > s1. r2 > s2."
    )
    assert c("+d p") in cs
    assert c("-d ~p") in cs


def test_defeater_blocks_without_concluding():
    cs = conclude("f. r: f => p. d: ~> ~p.")
    # the defeater is applicable and unbeaten, so p is not defeasibly proved
    assert c("+d p") not in cs
    assert c("-d p") in cs
    # but a defeater never supports its own head
    assert c("+d ~p") not in cs
    assert c("-d ~p") in cs


def test_strict_chain():
    cs = conclude("a. r1: a -> b. r2: b -> c.")
    for text in ("+D a", "+D b", "+D c", "+d c"):
        assert c(text) in cs


def test_strict_beats_defeasible_conflict():
    # a definite conclusion forces -d on its complement
    cs = conclude("a. r1: a -> p. r2: => ~p.")
    assert c("+D p") in cs
    assert c("-d ~p") in cs


def test_prove_matches_derive_all(bird):
    cs = derive_all(bird)
    for concl in cs:
        assert prove(bird, concl)
    assert not prove(bird, c("+d ~flies(ethel)"))


def test_prove_extends_base(bird, bird_text):
    g = ground(parse_theory("p."))
    # zebra is not in the theory's base: no fact or rule has it or its
    # complement, so it is -D and -d and nothing else
    assert prove(g, c("-D zebra"))
    assert prove(g, c("-d zebra"))
    assert not prove(g, c("+d zebra"))
    # the same outside the bird base, of either sign: an unwritten predicate,
    # an unwritten constant and a wrong arity.  The answer, the derivation
    # (-D, then -d by clause (2.1)) and its replay need no literal table
    outside = [f"{sign}{atom}" for atom in ("newpred", "flies(zz)", "flies(a,b)") for sign in ("", "~")]
    for text in outside:
        fresh = ground(parse_theory(bird_text))
        for tag in Tag:
            target = c(f"{tag.value} {text}")
            if tag in (Tag.MINUS_DELTA, Tag.MINUS_PARTIAL):
                assert prove(fresh, target), target
                d = explain(fresh, target)
                assert [str(step) for step in d] == [f"-D {text}", f"-d {text}"][: 1 + (tag is Tag.MINUS_PARTIAL)]
                assert check_derivation(fresh, d), d
            else:
                assert not prove(fresh, target), target
                with pytest.raises(NoDerivationError):
                    explain(fresh, target)
        assert "literals" not in fresh.__dict__, text
    # the engine's set holds no conclusion of a literal outside the table
    conclusions = derive_all(bird)
    assert c("+d flies(tweety)") in conclusions and c("-d flies(tweety)") not in conclusions
    for text in outside:
        assert not any(c(f"{tag.value} {text}") in conclusions for tag in Tag), text
        assert conclusions.undefined_levels(c(f"-D {text}").literal) == ["definite", "partial"]
    for query in (prove, explain):
        with pytest.raises(GroundingError):
            query(bird, TaggedConclusion(Tag.MINUS_DELTA, lit("flies", "X")))


def test_explain_produces_replayable_derivations(bird):
    for text in BIRD_CONCLUSIONS:
        target = c(text)
        d = explain(bird, target)
        assert d[-1] == target
        result = check_derivation(bird, d)
        assert result.valid, f"{text}: step {result.index}: {result.reason}"


def test_explain_not_derivable(bird):
    with pytest.raises(NoDerivationError):
        explain(bird, c("+d ~flies(ethel)"))


def test_check_derivation_rejects_missing_premise(bird):
    d = explain(bird, c("+d flies(tweety)"))
    assert len(d) > 1
    # drop an interior step: something later must now lack its premise
    for drop in range(len(d) - 1):
        tampered = d[:drop] + d[drop + 1:]
        result = check_derivation(bird, tampered)
        if not result.valid:
            break
    else:
        pytest.fail("every single-step deletion still replayed")
    assert result.index is not None and result.reason


def test_check_derivation_rejects_unfounded_step(bird):
    result = check_derivation(bird, [c("+d flies(ethel)")])
    assert not result.valid
    assert result.index == 1


def test_check_derivation_accepts_empty(bird):
    assert check_derivation(bird, [])


def test_check_derivation_outside_base(bird):
    # a literal outside the table gets one more pair after it, as in a query
    assert check_derivation(bird, [c("-D newpred"), c("-d newpred")])
    result = check_derivation(bird, [c("+D newpred")])
    assert (result.index, result.reason) == (
        1, "+D newpred: literal is not a fact and no strict rule is established"
    )
    # outside the table twice over: an unwritten predicate and unwritten constants
    for text in ("p.", "zz(c,d)."):
        g = ground(parse_theory(text))
        shown = repr(g)
        target = c("-d zz(a,b)")
        assert g.position(target.literal) is None
        d = explain(g, target)
        assert d == (c("-D zz(a,b)"), target)
        assert check_derivation(g, d)
        assert check_derivation(g, d[1:]).index == 1
        assert repr(g) == shown  # the cached indexes stay out of repr
    # a non-ground literal is refused as `prove` and `explain` refuse it
    g = ground(parse_theory("p(a). r: p(X) => q(X)."))
    for call in (prove, explain, lambda g, x: check_derivation(g, [x])):
        with pytest.raises(GroundingError, match="q\\(X\\) is not ground"):
            call(g, TaggedConclusion(Tag.MINUS_DELTA, lit("q", "X")))


def checker_corpus(family: str):
    """Ground theories for the checker-against-engine test: 300 random
    propositional theories, and 100 first-order ones with the benchmark's
    seed-1 and seed-1009 `reach` texts, less those that fail grounding or
    validation."""
    if family == "propositional":
        theories = (generate_random_theory(seed, 6, 16) for seed in range(300))
    else:
        texts = benchmark_texts()
        reach = (parse_theory(texts[name]) for name in ("reach-1", "reach-1009"))
        theories = itertools.chain((random_first_order_theory(seed) for seed in range(100)), reach)
    for theory in theories:
        try:
            g = ground(theory)
            validate(g)
        except (GroundingError, ValidationError):
            continue
        yield g


def at_most(items, k: int) -> list:
    """`items` when there are at most k of them, else a seeded sample of k in
    their order."""
    items = list(items)
    if len(items) <= k:
        return items
    return [items[i] for i in sorted(random.Random(0).sample(range(len(items)), k))]


@pytest.mark.parametrize("family", ["propositional", "first-order"])
def test_checker_agrees_with_engine(family):
    # the replay and the engine are two encodings of the four inference rules:
    # the engine's whole run replays valid, so does every explanation, and a
    # conclusion the engine does not draw is rejected after the whole run.
    # Each rejection replays the whole run, so a theory gets at most 40,000
    # replayed steps of them: all of a random theory's (at most 192 pairs,
    # 96 conclusions), a dozen of a `reach` text's, whose runs open with
    # blocks of 1,946 and 1,856 inert steps
    tags = tuple(Tag)
    accepted = rejected = 0
    for g in checker_corpus(family):
        prop = _Propagation(g)
        run = [TaggedConclusion(tags[s & 3], g.literals[s >> 2]) for s in prop.order]
        assert check_derivation(g, run), run
        derived = derive_all(g)
        for conclusion in at_most(derived, 100):
            d = explain(g, conclusion)
            assert d[-1] == conclusion
            assert check_derivation(g, d), d
            accepted += 1
        extras = (TaggedConclusion(tag, literal) for literal in g.literals for tag in Tag)
        for extra in at_most((x for x in extras if x not in derived), 40_000 // (len(run) + 1)):
            result = check_derivation(g, run + [extra])
            assert result.index == len(run) + 1, (extra, result)
            assert result.reason.startswith(f"{extra}: ")
            rejected += 1
    assert accepted > 1000 and rejected > 1000


def inert_block(g: GroundTheory) -> list[int]:
    """The packed -D and -d steps of the inert literals, in table order.  A
    literal is inert when no fact and no rule head has its atom and no rule
    body mentions it."""
    claimed = {l.atom for l in g.source.facts} | {r.head.atom for r in g.rules}
    in_body = {l for r in g.rules for l in r.body}
    return [
        (q << 2) | code
        for q, l in enumerate(g.literals)
        if l.atom not in claimed and l not in in_body
        for code in (1, 3)
    ]


def inert_texts() -> dict[str, str]:
    # `p` heads only a defeater; `r` has no instance, as `u` is dead
    return {"reach-1": benchmark_texts()["reach-1"], "defeater": "a. d: a ~> p. r: u => v."}


def test_inert_literals_settle_first():
    # an inert literal is -D and -d, and its two steps open the run, before
    # any other step; no other literal's explanation reads them
    for name, text in inert_texts().items():
        g = ground(parse_theory(text))
        block = inert_block(g)
        prop = _Propagation(g)
        assert prop.order[: len(block)] == block, name
        derived = derive_all(g)
        inert = {g.literals[s >> 2] for s in block}
        for literal in inert:
            for tag in Tag:
                assert (TaggedConclusion(tag, literal) in derived) == (tag in (Tag.MINUS_DELTA, Tag.MINUS_PARTIAL))
        for conclusion in at_most((c for c in derived if c.literal not in inert), 300):
            assert not inert & {step.literal for step in explain(g, conclusion)}, (name, conclusion)
        if name == "defeater":
            assert sorted(map(str, inert)) == ["u", "v", "~u", "~v"]
        else:
            assert len(block) == 2 * 973  # of 1,600 base literals


def test_worklist_skips_the_inert_block():
    # inert steps wake nothing, so the worklist reads only the steps after
    # the block: the loop body's first line runs once per step it reads
    g = ground(parse_theory(inert_texts()["reach-1"]))
    lines, first = inspect.getsourcelines(_Propagation._run)
    (body,) = [first + i for i, line in enumerate(lines) if line.strip() == "q = step >> 2"]
    code = _Propagation._run.__code__
    reads = 0

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            nonlocal reads
            if event == "line" and frame.f_lineno == body:
                reads += 1
            return line

        return line

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        prop = _Propagation(g)
    finally:
        sys.settrace(previous)
    assert reads == len(prop.order) - len(inert_block(g)) > 0


def test_coherence_guard(bird, monkeypatch):
    # a fact together with an unbeaten attacker stays coherent: the engine
    # never concludes both signs of one tag
    cs = conclude("p. r: => ~p.")
    assert c("+D p") in cs and c("+d p") in cs
    with pytest.raises(InternalError):
        ConclusionSet.from_tag_sets(
            ground(parse_theory("q.")), {Tag.PLUS_PARTIAL: [lit("q")], Tag.MINUS_PARTIAL: [lit("q")], Tag.MINUS_DELTA: [lit("q")]}
        )
    # every run ends by building its ConclusionSet, so derive_all, prove and
    # explain all raise what that construction's check raises
    def breach(self):
        raise InternalError("containment violated: +D not within +d")

    monkeypatch.setattr(ConclusionSet, "verify_invariants", breach)
    target = c("+d flies(tweety)")
    for call in (lambda: derive_all(bird), lambda: prove(bird, target), lambda: explain(bird, target)):
        with pytest.raises(InternalError, match="^containment violated"):
            call()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_state_is_restored(bird, enabled):
    # the engine and the replay pause the cyclic GC while they build their
    # indexes; each must leave it as it found it, also when the build raises
    # (here: a fact and a rule head at a position past the table)
    broken = GroundTheory(
        source=parse_theory("q. r: => q."),
        constants=frozenset(),
        offsets={("p", 0): 0},
        positions=Positions(heads=(2,), bodies=((),), facts=(2,), superiority=frozenset()),
        schema_of=(0,),
        bindings=((),),
        kinds=(RuleKind.DEFEASIBLE,),
    )
    calls = [lambda g, target: derive_all(g), prove, explain, lambda g, target: check_derivation(g, [target])]
    resume = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            call(bird, c("+d flies(tweety)"))
            assert gc.isenabled() is enabled
            with pytest.raises(IndexError):
                call(broken, c("+d p"))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if resume else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_front_end_restores_gc_state(bird_text, enabled):
    # parse_theory and ground pause the cyclic GC too; each must leave it as
    # it found it, also when it raises
    calls = [
        (lambda: parse_theory(bird_text), None),
        (lambda: parse_theory("p(a).\nr: p(X,Y) => q."), ParseError),
        (lambda: parse_theory("p _ q."), ParseError),
        (lambda: ground(parse_theory(bird_text)), None),
        (lambda: ground(parse_theory("r: p(X) => q(X).")), GroundingError),
    ]
    resume = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call, error in calls:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if resume else gc.disable)()
