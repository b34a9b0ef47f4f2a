"""The logic-program translation and its 3-valued fixpoint semantics.

`fitting_iteration` is the reference fixpoint: it reruns a full
`fitting_step` pass from all-unknown until nothing changes, which is
quadratic on a chain.  `kunen_fixpoint` propagates counters instead; the two
must return the same interpretation.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from test_grounding import random_first_order_theory

from dlog import engine
from dlog.core import F, T, U, InternalError, ground, lit, neg
from dlog.differential import generate_random_theory
from dlog.metaprogram import (
    DEFEASIBLY,
    DEFINITELY,
    BodyLiteral,
    Clause,
    GroundMetaProgram,
    MetaAtom,
    all_unknown,
    conclusions,
    fitting_step,
    kunen_fixpoint,
    to_conclusions,
    translate,
)
from dlog.parser import parse_theory, render_theory


def fitting_iteration(p):
    """Iterate `fitting_step` from all-unknown until it is the identity.

    Each step may only turn unknowns into true/false (information
    monotonicity), so the fixpoint is reached within #atoms + 1 steps; going
    past that bound means the step operator is broken.
    """
    current = all_unknown(p)
    for _ in range(len(current) + 1):
        nxt = fitting_step(p, current)
        if nxt == current:
            return current
        for atom, v in current.items():
            if v != U and nxt[atom] != v:
                raise InternalError(f"fitting step retracted {atom} = {v}")
        current = nxt
    raise InternalError("fixpoint not reached within #atoms + 1 steps")


def test_translation_clause_shapes():
    g = ground(parse_theory("f. r1: f -> p. r2: f => q. d: ~> ~q. r2 > d."))
    p = translate(g)
    text = p.render()
    # one line per schematic clause family, fully ground
    assert "definitely(f)." in text
    assert "definitely(p) :- definitely(f)." in text
    assert "defeasibly(p) :- definitely(p)." in text
    assert (
        "defeasibly(q) :- not definitely(~q), defeasibly(f), "
        "not overruled(r2, q)." in text
    )
    # the defeater attacks q but is never itself a supportive rule
    assert "overruled(r2, q) :- not defeated(d, ~q)." in text
    assert "defeated(d, ~q) :- defeasibly(f)." in text
    # no defeasibly clause is headed by the defeater's conclusion
    assert "not overruled(d, ~q)" not in text


def test_translation_universe_covers_base():
    g = ground(parse_theory("r: p => p."))
    p = translate(g)
    for q in (lit("p"), neg("p")):
        assert MetaAtom(DEFINITELY, q) in p.atoms
        assert MetaAtom(DEFEASIBLY, q) in p.atoms


def test_fitting_step_monotone_on_information():
    # [DERIVED] one step from all-unknown can only add truth values, and
    # iterating never retracts them (checked internally by kunen_fixpoint)
    g = ground(parse_theory("a. r1: a -> b. r2: b => c. r3: => ~c."))
    p = translate(g)
    i0 = all_unknown(p)
    i1 = fitting_step(p, i0)
    assert i1[MetaAtom(DEFINITELY, lit("a"))] == T
    assert i1[MetaAtom(DEFINITELY, neg("a"))] == F
    assert fitting_iteration(p) == kunen_fixpoint(p)  # raises on any retraction
    # the codes' arithmetic: q :- not a gives q the code T - a, and a, which
    # heads no clause, gets F
    q, a = MetaAtom(DEFEASIBLY, lit("q")), MetaAtom(DEFINITELY, lit("a"))
    one = GroundMetaProgram((Clause(q, (BodyLiteral(a, positive=False),)),))
    for v, expected in ((F, T), (U, U), (T, F)):
        assert fitting_step(one, {q: U, a: v}) == {q: expected, a: F}, v


def test_fixpoint_leaves_loops_unknown():
    g = ground(parse_theory("r: p => p."))
    fix = kunen_fixpoint(translate(g))
    assert fix[MetaAtom(DEFEASIBLY, lit("p"))] == U
    assert fix[MetaAtom(DEFEASIBLY, neg("p"))] == F
    assert fix[MetaAtom(DEFINITELY, lit("p"))] == F


def test_fixpoint_detects_broken_step(monkeypatch):
    g = ground(parse_theory("p."))
    p = translate(g)

    def retracting_step(program, i):
        out = fitting_step(program, i)
        if all(v != U for v in out.values()):
            out[MetaAtom(DEFINITELY, lit("p"))] = U  # illegal retraction
        return out

    import dlog.metaprogram as mp

    monkeypatch.setattr(mp, "fitting_step", retracting_step)
    with pytest.raises(InternalError):
        mp.kunen_fixpoint(p)


def test_fixpoint_matches_fitting_iteration_on_random_theories():
    # [DERIVED] counter propagation and the plain iteration reach the same
    # least fixpoint; bases of up to 8 literals
    sizes = set()
    for seed in range(2000):
        g = ground(generate_random_theory(seed, 4, 12))
        sizes.add(len(g.literals))
        p = translate(g)
        assert kunen_fixpoint(p) == fitting_iteration(p), seed
    assert max(sizes) == 8


def test_fixpoint_matches_fitting_iteration_on_first_order_theories():
    # [DERIVED] the same on grounded theories with variables; a cyclic
    # superiority relation is still a program, so validation is not needed
    for seed in range(2000):
        theory = random_first_order_theory(seed)
        p = translate(ground(theory))
        assert kunen_fixpoint(p) == fitting_iteration(p), render_theory(theory)


def test_readout():
    g = ground(parse_theory("p. r: => q."))
    cs = conclusions(g)
    from dlog.parser import parse_conclusion as c

    for text in ("+D p", "+d p", "-D q", "+d q", "-D ~q", "-d ~q"):
        assert c(text) in cs


def test_matches_engine_on_bird(bird):
    # [DERIVED] first oracle: the fixpoint readout reproduces the engine
    assert conclusions(bird) == engine.derive_all(bird)


def test_matches_engine_on_handpicked_theories():
    cases = [
        "a. ~a. r: b -> b.",
        "r: p => p.",
        "r1: => p. r2: => ~p.",
        "r1: => p. r2: => ~p. r1 > r2.",
        "r1: => p. r2: => p. s1: => ~p. s2: => ~p. r1 > s1. r2 > s2.",
        "f. r: f => p. d: ~> ~p.",
        "a. r1: a -> p. r2: => ~p.",
        "",
    ]
    for text in cases:
        g = ground(parse_theory(text))
        assert conclusions(g) == engine.derive_all(g), text


def test_clause_str_forms():
    # [TRIVIAL]
    a = MetaAtom(DEFINITELY, lit("p"))
    assert str(Clause(a, ())) == "definitely(p)."
    assert str(MetaAtom("overruled", lit("p"), "r")) == "overruled(r, p)"


TRANSLATE_CLAUSES = """
import sys
from dlog.core import ground
from dlog.metaprogram import translate
from dlog.parser import parse_theory
for c in translate(ground(parse_theory(sys.argv[1]))).clauses:
    print(c)
"""


def test_clause_order_does_not_depend_on_hash_seed():
    # the clause tuple, fact clauses included, comes out in the same order
    # in processes with different string-hash seeds
    src = pathlib.Path(__file__).parent.parent / "src"
    theory = "e. d. c. b. a. r: a, b => q."
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", TRANSLATE_CLAUSES, theory],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0].startswith("definitely(a).\ndefinitely(b).")
    assert outputs[0] == outputs[1]
