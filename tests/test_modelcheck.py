"""Model checking and exhaustive enumeration over small bases.

`full_product_mask` builds every candidate interpretation up front and applies
every literal's closure conditions to all of them at once.  `_model_mask`
grows a frontier one base column at a time and drops rows as soon as a
literal's conditions can be checked.  The two must keep the same rows.
"""

import numpy as np
import pytest

import dlog.modelcheck as mc
from dlog import engine
from dlog.core import (
    GroundTheory,
    InternalError,
    RuleKind,
    ground,
    lit,
    neg,
)
from dlog.differential import generate_random_theory
from dlog.modelcheck import (
    CapExceededError,
    DefeasibleInterpretation,
    ThreeVal,
    UsageError,
    closure_forces_epistemic,
    conj_value,
    count_models,
    default_cap,
    enumerate_interpretations,
    is_model,
    logical_consequences,
)
from dlog.parser import parse_conclusion as c
from dlog.parser import parse_theory

T, F, U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNDEFINED


def g(text: str):
    return ground(parse_theory(text))


def full_product_mask(g: GroundTheory, well_formed_only: bool = True):
    """All `width ** len(base)` candidates, filtered down to the models.  The
    rules of each literal are found by scanning `g.rules`, so that this
    reference shares no index with the code under test."""
    base = g.literals
    index = {q: i for i, q in enumerate(base)}
    pairs = mc._WELL_FORMED_PAIRS if well_formed_only else mc._WELL_FORMED_PAIRS + mc._EXTRA_PAIRS
    width = len(pairs)
    n = width ** len(base)
    digits = (
        np.arange(n, dtype=np.int64)[:, None]
        // (width ** np.arange(len(base), dtype=np.int64))
    ) % width
    delta_codes = np.array([mc._CODE[p[0]] for p in pairs], dtype=np.int8)
    partial_codes = np.array([mc._CODE[p[1]] for p in pairs], dtype=np.int8)
    delta = delta_codes[digits]
    partial = partial_codes[digits]

    conj_d = {r.label: mc._conj_columns(delta, [index[a] for a in r.body]) for r in g.rules}
    conj_p = {r.label: mc._conj_columns(partial, [index[a] for a in r.body]) for r in g.rules}
    sup = g.superiority
    mask = np.ones(n, dtype=bool)
    for j, q in enumerate(base):
        strict = [r for r in g.rules if r.head == q and r.kind is RuleKind.STRICT]
        sd = [r for r in g.rules if r.head == q and r.kind is not RuleKind.DEFEATER]
        attackers = [r for r in g.rules if r.head == base[j ^ 1]]
        dq, pq = delta[:, j], partial[:, j]
        dcomp = delta[:, j ^ 1]

        rhs = np.zeros(n, dtype=bool) if q not in g.facts else np.ones(n, dtype=bool)
        for r in strict:
            rhs |= conj_d[r.label] == 1
        mask &= (dq == 1) == rhs

        rhs = np.ones(n, dtype=bool) if q not in g.facts else np.zeros(n, dtype=bool)
        for r in strict:
            rhs &= conj_d[r.label] == 0
        mask &= (dq == 0) == rhs

        some_supportive = np.zeros(n, dtype=bool)
        all_supportive_fail = np.ones(n, dtype=bool)
        for r in sd:
            some_supportive |= conj_p[r.label] == 1
            all_supportive_fail &= conj_p[r.label] == 0
        every_attack_countered = np.ones(n, dtype=bool)
        some_attack_wins = np.zeros(n, dtype=bool)
        for s in attackers:
            defeated = np.zeros(n, dtype=bool)
            no_live_superior = np.ones(n, dtype=bool)
            for t in sd:
                if (t.label, s.label) in sup:
                    defeated |= conj_p[t.label] == 1
                    no_live_superior &= conj_p[t.label] == 0
            every_attack_countered &= (conj_p[s.label] == 0) | defeated
            some_attack_wins |= (conj_p[s.label] == 1) & no_live_superior
        rhs = (dq == 1) | (some_supportive & (dcomp == 0) & every_attack_countered)
        mask &= (pq == 1) == rhs
        rhs = (dq == 0) & (all_supportive_fail | (dcomp == 1) | some_attack_wins)
        mask &= (pq == 0) == rhs
    return base, delta[mask], partial[mask]


def model_rows(base, delta, partial) -> set:
    """The rows as a set of (definite codes, defeasible codes)."""
    return set(zip(map(tuple, delta.tolist()), map(tuple, partial.tolist())))


def test_conj_value():
    # [TRIVIAL] Kleene conjunction; empty conjunction is True
    f = {lit("a"): T, lit("b"): F, lit("c"): U}
    assert conj_value(f, ()) is T
    assert conj_value(f, (lit("a"),)) is T
    assert conj_value(f, (lit("a"), lit("c"))) is U
    assert conj_value(f, (lit("c"), lit("b"))) is F


def test_well_formed():
    # is_model checks both epistemic conditions
    theory = g("p.")
    base = theory.herbrand_base
    good = DefeasibleInterpretation(base, {lit("p"): T, neg("p"): F},
                                    {lit("p"): T, neg("p"): F})
    assert is_model(theory, good).is_model
    # known definitely but not believed defeasibly
    bad = DefeasibleInterpretation(base, {lit("p"): T, neg("p"): F},
                                   {lit("p"): U, neg("p"): F})
    assert ("epistemic-1", lit("p"), "if") in is_model(theory, bad).violations
    # disbelieved defeasibly but not refuted definitely
    bad = DefeasibleInterpretation(base, {lit("p"): T, neg("p"): U},
                                   {lit("p"): T, neg("p"): F})
    assert ("epistemic-2", neg("p"), "if") in is_model(theory, bad).violations


def test_is_model_requires_matching_base():
    theory = g("p.")
    other = DefeasibleInterpretation(frozenset({lit("q")}), {}, {})
    with pytest.raises(UsageError):
        is_model(theory, other)


def test_is_model_reports_direction():
    theory = g("p.")
    base = theory.herbrand_base
    # claiming ignorance of a fact: the Δ-condition fails in the "if"
    # direction (the right-hand side holds but the status is not True)
    m = DefeasibleInterpretation(
        base,
        {lit("p"): U, neg("p"): F},
        {lit("p"): U, neg("p"): F},
    )
    report = is_model(theory, m)
    assert not report.is_model
    assert ("Δ-True", lit("p"), "if") in report.violations
    # an unfounded status fails in the "only-if" direction
    m2 = DefeasibleInterpretation(
        base,
        {lit("p"): T, neg("p"): T},
        {lit("p"): T, neg("p"): T},
    )
    report2 = is_model(theory, m2)
    assert ("Δ-True", neg("p"), "only-if") in report2.violations


def test_loop_theory_has_three_models():
    # [PAPER] p => p admits exactly three models: partial status of p is
    # False, True, or undefined, while ~p is settled False everywhere
    theory = g("r: p => p.")
    assert count_models(theory) == 3
    models = [
        m for m in enumerate_interpretations(theory) if is_model(theory, m).is_model
    ]
    assert len(models) == 3
    statuses = sorted(str(m.partial[lit("p")].value) for m in models)
    assert statuses == ["False", "True", "undefined"]
    for m in models:
        assert m.delta[lit("p")] is F
        assert m.partial[neg("p")] is F


def test_loop_theory_consequences():
    # [PAPER] what holds in all three models
    cs = logical_consequences(g("r: p => p."))
    assert set(map(str, cs)) == {"-D p", "-D ~p", "-d ~p"}


def test_simple_defeasible_fact_single_model():
    # [PAPER] => p has exactly one model
    theory = g("r: => p.")
    assert count_models(theory) == 1
    cs = logical_consequences(theory)
    assert c("+d p") in cs and c("-D p") in cs and c("-d ~p") in cs


def test_generator_and_vectorized_routes_agree():
    # [DERIVED] the reference per-interpretation checker and the vectorized
    # mask must accept exactly the same number of interpretations
    for text in (
        "r: p => p.",
        "r: => p.",
        "r1: => p. r2: => ~p.",
        "r1: => p. r2: => ~p. r1 > r2.",
        "p. r: p -> q.",
    ):
        theory = g(text)
        reference = sum(
            1
            for m in enumerate_interpretations(theory)
            if is_model(theory, m).is_model
        )
        assert count_models(theory) == reference, text


def test_frontier_matches_full_product():
    # [DERIVED] the frontier keeps exactly the rows of the full product's
    # mask, on the unrestricted 9-pair space too while it stays small
    sizes = set()
    for seed in range(500):
        theory = ground(generate_random_theory(seed, 3, 10))
        sizes.add(len(theory.literals))
        for well_formed_only in (True, False) if len(theory.literals) <= 4 else (True,):
            frontier = mc._model_mask(theory, None, well_formed_only)
            assert model_rows(*frontier) == model_rows(*full_product_mask(theory, well_formed_only)), seed
    assert {2, 4, 6} <= sizes


def test_frontier_matches_is_model():
    # [DERIVED] on bases of at most 4 literals, the frontier's rows are the
    # interpretations the per-interpretation checker accepts; a window of
    # the seeds above, as the checker takes about 0.1 s per 4-literal base
    codes = mc._CODE
    checked = 0
    for seed in range(60):
        theory = ground(generate_random_theory(seed, 3, 10))
        if len(theory.literals) > 4:
            continue
        accepted = {
            (tuple(codes[m.delta[q]] for q in theory.literals),
             tuple(codes[m.partial[q]] for q in theory.literals))
            for m in enumerate_interpretations(theory)
            if is_model(theory, m).is_model
        }
        assert model_rows(*mc._model_mask(theory, None)) == accepted, seed
        checked += 1
    assert checked >= 40


def test_consequences_match_engine_on_small_theories():
    # [DERIVED] second oracle on desk-sized bases
    for text in (
        "r: p => p.",
        "r1: => p. r2: => ~p.",
        "r1: => p. r2: => ~p. r1 > r2.",
        "p. r: p => q. d: ~> ~q.",
    ):
        theory = g(text)
        assert logical_consequences(theory) == engine.derive_all(theory), text


def test_closure_forces_epistemic():
    # [PAPER] the epistemic conditions need not be imposed: every
    # interpretation satisfying the closure conditions already has them
    for text in ("r: p => p.", "r: => p.", "p. r1: p -> q."):
        assert closure_forces_epistemic(g(text)), text


def test_closure_forces_epistemic_enumerates_nine_pairs():
    # the unrestricted space has 9 status pairs per literal, and the cap is
    # checked against all of them before anything is built
    with pytest.raises(CapExceededError) as e:
        closure_forces_epistemic(g("p."), cap=80)
    assert e.value.required == 9 ** 2
    assert closure_forces_epistemic(g("p."), cap=81)


def test_cap_enforced():
    theory = g("p. q. r. s.")  # base of 8 literals: 6^8 > 1000
    with pytest.raises(CapExceededError) as e:
        count_models(theory, cap=1000)
    assert e.value.required == 6 ** 8
    with pytest.raises(CapExceededError):
        list(enumerate_interpretations(theory, cap=1000))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("DLOG_CAP", "17")
    assert default_cap() == 17
    with pytest.raises(CapExceededError):
        count_models(g("p."))  # 6^2 = 36 > 17
    monkeypatch.delenv("DLOG_CAP")
    assert default_cap() == 2_000_000


def test_no_models_is_an_error():
    # an unsatisfiable condition set would falsify the semantics; the
    # consequence operator refuses to average over nothing
    theory = g("p.")
    with pytest.raises(InternalError):
        # impossible cap path is exercised above; force the zero-model branch
        # by asking for consequences of a model set with no rows
        real = mc._model_mask

        def no_rows(*args, **kwargs):
            base, delta, partial = real(*args, **kwargs)
            return base, delta[:0], partial[:0]

        mc._model_mask, saved = no_rows, real
        try:
            logical_consequences(theory)
        finally:
            mc._model_mask = saved
