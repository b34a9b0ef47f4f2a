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
    GroundMetaProgram,
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
    current = [U] * p.size
    for _ in range(len(current) + 1):
        nxt = fitting_step(p, current)
        if nxt == current:
            return current
        for atom, v in enumerate(current):
            if v != U and nxt[atom] != v:
                raise InternalError(f"fitting step retracted {p.name(atom)} = {v}")
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


def test_translation_numbers_overruled_by_rule():
    # team defeat: the two supportive rules for p, and the two for ~p, each
    # get their own overruled atom 2n + r, not one atom per head
    g = ground(parse_theory("r1: => p. r2: => p. s1: => ~p. s2: => ~p. r1 > s1. r2 > s2."))
    p = translate(g)
    n, m = len(g.literals), len(g.rules)
    assert {h for h, _ in p.clauses if 2 * n <= h < 2 * n + m} == {2 * n + r for r in range(m)}
    text = p.render()
    assert "defeasibly(p) :- not definitely(~p), not overruled(r1, p)." in text
    assert "defeasibly(p) :- not definitely(~p), not overruled(r2, p)." in text


def test_translation_universe_covers_base():
    # definitely(q) is atom q and defeasibly(q) atom n + q, for every base
    # position q; every clause names atoms below the program's size
    g = ground(parse_theory("r: p => p."))
    p = translate(g)
    n = len(g.literals)
    assert p.size == 2 * n + 2 * len(g.rules)
    for q in (lit("p"), neg("p")):
        assert p.name(g.position(q)) == f"definitely({q})"
        assert p.name(n + g.position(q)) == f"defeasibly({q})"
    assert {h for h, _ in p.clauses} >= set(range(n, 2 * n))
    for h, body in p.clauses:
        assert all(0 <= a < p.size for a in (h, *[b if b >= 0 else ~b for b in body]))


def test_fitting_step_monotone_on_information():
    # [DERIVED] one step from all-unknown can only add truth values, and
    # iterating never retracts them (checked internally by kunen_fixpoint)
    g = ground(parse_theory("a. r1: a -> b. r2: b => c. r3: => ~c."))
    p = translate(g)
    i0 = [U] * p.size
    i1 = fitting_step(p, i0)
    assert i1[g.position(lit("a"))] == T
    assert i1[g.position(neg("a"))] == F
    assert fitting_iteration(p) == kunen_fixpoint(p)  # raises on any retraction
    # the codes' arithmetic: q :- not a gives q the code T - a, and a, like
    # every other atom that heads no clause, gets F
    names = ground(parse_theory("a. q."))  # the program below reads its atoms only
    q, a = len(names.literals) + names.position(lit("q")), names.position(lit("a"))
    one = GroundMetaProgram(((q, (~a,)),), names)
    assert one.render() == "defeasibly(q) :- not definitely(a).\n"
    for v, expected in ((F, T), (U, U), (T, F)):
        i = [U] * one.size
        i[a] = v
        out = [F] * one.size
        out[q] = expected
        assert fitting_step(one, i) == out, v


def test_fixpoint_leaves_loops_unknown():
    g = ground(parse_theory("r: p => p."))
    fix = kunen_fixpoint(translate(g))
    n = len(g.literals)
    assert fix[n + g.position(lit("p"))] == U
    assert fix[n + g.position(neg("p"))] == F
    assert fix[g.position(lit("p"))] == F


def test_fixpoint_detects_broken_step(monkeypatch):
    g = ground(parse_theory("p."))
    p = translate(g)

    def retracting_step(program, i):
        out = fitting_step(program, i)
        if all(v != U for v in out):
            out[g.position(lit("p"))] = U  # illegal retraction
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
    # the atom numbers of the four predicates, their names and clause texts
    g = ground(parse_theory("f. r: f => p. s: => ~p. r > s."))
    p = translate(g)
    n, m = len(g.literals), len(g.rules)
    f, q = g.position(lit("f")), g.position(lit("p"))
    r, s = ([x.label for x in g.rules].index(label) for label in "rs")
    assert [p.name(a) for a in (f, n + q, 2 * n + r, 2 * n + m + s)] == [
        "definitely(f)", "defeasibly(p)", "overruled(r, p)", "defeated(s, ~p)"
    ]
    texts = {
        (f, ()): "definitely(f).",
        (n + q, (~(q ^ 1), n + f, ~(2 * n + r))):
            "defeasibly(p) :- not definitely(~p), defeasibly(f), not overruled(r, p).",
        (2 * n + r, (~(2 * n + m + s),)): "overruled(r, p) :- not defeated(s, ~p).",
        (2 * n + m + s, (n + f,)): "defeated(s, ~p) :- defeasibly(f).",
    }
    assert {c: p.text(c) for c in texts} == texts
    assert set(texts) <= set(p.clauses)


TRANSLATE_CLAUSES = """
import sys
from dlog.core import ground
from dlog.metaprogram import translate
from dlog.parser import parse_theory
p = translate(ground(parse_theory(sys.argv[1])))
for c in p.clauses:
    print(p.text(c))
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
