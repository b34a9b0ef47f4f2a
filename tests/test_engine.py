"""The conclusion engine: fixpoint results, explanations, derivation replay."""

import gc

import pytest

from dlog.core import (
    GroundTheory,
    GroundingError,
    InternalError,
    Rule,
    RuleKind,
    Tag,
    TaggedConclusion,
    ground,
    lit,
    neg,
)
from dlog.engine import (
    NoDerivationError,
    check_derivation,
    derive_all,
    explain,
    prove,
)
from dlog.parser import parse_conclusion, parse_theory


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


def test_prove_extends_base(bird):
    g = ground(parse_theory("p."))
    # zebra is not in the theory's base; the query adds it
    assert prove(g, c("-D zebra"))
    assert prove(g, c("-d zebra"))
    # the same for a literal outside the bird base, of either sign
    for text in ("-D newpred", "-d newpred", "-D ~newpred", "-d ~newpred"):
        target = c(text)
        assert prove(bird, target)
        d = explain(bird, target)
        assert d[-1] == target
        assert check_derivation(bird, d)
    assert not prove(bird, c("+d newpred"))
    with pytest.raises(NoDerivationError):
        explain(bird, c("+d newpred"))
    assert lit("newpred") not in bird.literals  # the table is left as it was
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


def test_coherence_guard():
    # a fact together with an unbeaten attacker stays coherent: the engine
    # never concludes both signs of one tag (guarded by an internal check)
    cs = conclude("p. r: => ~p.")
    assert c("+D p") in cs and c("+d p") in cs
    with pytest.raises(InternalError):
        # force the guard directly: feeding an incoherent set to the
        # invariant checker must raise
        from dlog.core import ConclusionSet

        ConclusionSet([c("+d q"), c("-d q"), c("-D q")])


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_gc_state_is_restored(bird, enabled):
    # the engine pauses the cyclic GC while it builds its indexes; it must
    # leave it as it found it, also when the build raises (here: a rule head
    # missing from the hand-built base)
    broken = GroundTheory(
        facts=frozenset(),
        rules=(Rule("r", RuleKind.DEFEASIBLE, (), lit("q")),),
        superiority=frozenset(),
        constants=frozenset(),
        herbrand_base=frozenset({lit("p"), neg("p")}),
        written_labels=("r",),
        written_superiority=(),
    )
    calls = [lambda g, target: derive_all(g), prove, explain]
    resume = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            call(bird, c("+d flies(tweety)"))
            assert gc.isenabled() is enabled
            with pytest.raises(KeyError):
                call(broken, c("+d p"))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if resume else gc.disable)()
