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
    F,
    T,
    U,
    CapExceededError,
    UsageError,
    closure_forces_epistemic,
    count_models,
    default_cap,
    enumerate_interpretations,
    is_model,
    logical_consequences,
)
from dlog.parser import parse_conclusion as c
from dlog.parser import parse_theory
from test_grounding import benchmark_texts, outcome, random_first_order_theory


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
    delta_codes = np.array([p[0] for p in pairs], dtype=np.int8)
    partial_codes = np.array([p[1] for p in pairs], dtype=np.int8)
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

        rhs = np.zeros(n, dtype=bool) if q not in g.source.facts else np.ones(n, dtype=bool)
        for r in strict:
            rhs |= conj_d[r.label] == T
        mask &= (dq == T) == rhs

        rhs = np.ones(n, dtype=bool) if q not in g.source.facts else np.zeros(n, dtype=bool)
        for r in strict:
            rhs &= conj_d[r.label] == F
        mask &= (dq == F) == rhs

        some_supportive = np.zeros(n, dtype=bool)
        all_supportive_fail = np.ones(n, dtype=bool)
        for r in sd:
            some_supportive |= conj_p[r.label] == T
            all_supportive_fail &= conj_p[r.label] == F
        every_attack_countered = np.ones(n, dtype=bool)
        some_attack_wins = np.zeros(n, dtype=bool)
        for s in attackers:
            defeated = np.zeros(n, dtype=bool)
            no_live_superior = np.ones(n, dtype=bool)
            for t in sd:
                if (t.label, s.label) in sup:
                    defeated |= conj_p[t.label] == T
                    no_live_superior &= conj_p[t.label] == F
            every_attack_countered &= (conj_p[s.label] == F) | defeated
            some_attack_wins |= (conj_p[s.label] == T) & no_live_superior
        rhs = (dq == T) | (some_supportive & (dcomp == F) & every_attack_countered)
        mask &= (pq == T) == rhs
        rhs = (dq == F) & (all_supportive_fail | (dcomp == T) | some_attack_wins)
        mask &= (pq == F) == rhs
    return base, delta[mask], partial[mask]


def model_rows(base, delta, partial) -> set:
    """The rows as a set of (definite codes, defeasible codes)."""
    return set(zip(map(tuple, delta.tolist()), map(tuple, partial.tolist())))


def test_conj_columns():
    # [TRIVIAL] Kleene conjunction is the least code; the empty one is True
    values = np.array([[T, F, U]], dtype=np.int8)  # columns a, b, c
    assert mc._conj_columns(values, []).tolist() == [T]
    assert mc._conj_columns(values, [0]).tolist() == [T]
    assert mc._conj_columns(values, [0, 2]).tolist() == [U]
    assert mc._conj_columns(values, [2, 1]).tolist() == [F]


def test_well_formed():
    # is_model checks both epistemic conditions; the base is (p, ~p)
    theory = g("p.")
    assert is_model(theory, (T, F), (T, F)).is_model
    # known definitely but not believed defeasibly
    assert ("epistemic-1", lit("p"), "if") in is_model(theory, (T, F), (U, F)).violations
    # disbelieved defeasibly but not refuted definitely
    assert ("epistemic-2", neg("p"), "if") in is_model(theory, (T, U), (T, F)).violations


def test_is_model_rejects_malformed_codes():
    # one code per base literal and level, each of them F, U or T
    theory = g("p.")
    for delta, partial in (((T,), (T, F)), ((T, F), (T, F, F)), ((T, F, U), (T, F, U))):
        with pytest.raises(UsageError):
            is_model(theory, delta, partial)
    for delta, partial in (((T, 3), (T, F)), ((T, F), (-1, F))):
        with pytest.raises(UsageError):
            is_model(theory, delta, partial)


def test_is_model_reports_direction():
    theory = g("p.")
    # claiming ignorance of a fact: the Δ-condition fails in the "if"
    # direction (the right-hand side holds but the status is not True)
    report = is_model(theory, (U, F), (U, F))
    assert not report.is_model
    assert ("Δ-True", lit("p"), "if") in report.violations
    # an unfounded status fails in the "only-if" direction
    report2 = is_model(theory, (T, T), (T, T))
    assert ("Δ-True", neg("p"), "only-if") in report2.violations


def test_empty_theory_has_one_interpretation():
    # the empty base has exactly one interpretation, and it is a model
    theory = g("")
    assert list(enumerate_interpretations(theory)) == [((), ())]
    assert is_model(theory, (), ()).is_model
    assert count_models(theory) == 1
    assert len(logical_consequences(theory)) == 0


def test_loop_theory_has_three_models():
    # [PAPER] p => p admits exactly three models: partial status of p is
    # False, True, or undefined, while ~p is settled False everywhere
    theory = g("r: p => p.")
    assert count_models(theory) == 3
    models = [m for m in enumerate_interpretations(theory) if is_model(theory, *m).is_model]
    assert len(models) == 3
    p, not_p = theory.position(lit("p")), theory.position(neg("p"))
    assert sorted(partial[p] for _, partial in models) == [F, U, T]
    for delta, partial in models:
        assert delta[p] == F
        assert partial[not_p] == F


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
            if is_model(theory, *m).is_model
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
    checked = 0
    for seed in range(60):
        theory = ground(generate_random_theory(seed, 3, 10))
        if len(theory.literals) > 4:
            continue
        accepted = {
            m for m in enumerate_interpretations(theory) if is_model(theory, *m).is_model
        }
        base, delta, partial = mc._model_mask(theory, None)
        assert model_rows(base, delta, partial) == accepted, seed
        # a row pair is read as it is, numpy rows and all
        assert all(is_model(theory, d, p).is_model for d, p in zip(delta, partial)), seed
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


def engine_interpretation(theory: GroundTheory):
    """`derive_all`'s conclusions as status codes per level: T where the
    level's + tag holds, F where its - tag holds, U where neither does."""
    pd, md, pp, mp = engine.derive_all(theory).flags
    delta = [T if plus else F if minus else U for plus, minus in zip(pd, md)]
    partial = [T if plus else F if minus else U for plus, minus in zip(pp, mp)]
    return delta, partial


def test_engine_conclusions_form_a_model(bird):
    # [DERIVED] the completeness half of a certificate: the engine's
    # conclusions, read as an interpretation, satisfy every closure condition
    theories = {"bird": bird}
    for name, text in benchmark_texts().items():
        theories[name] = g(text)
    for seed in range(300):
        theories[f"random {seed}"], _ = outcome(ground, generate_random_theory(seed, 6, 20))
        theories[f"first-order {seed}"], _ = outcome(ground, random_first_order_theory(seed))
    checked = {name: theory for name, theory in theories.items() if theory is not None}
    assert len(checked) >= 450  # 8 benchmark texts, 300 random, 162 first-order
    for name, theory in checked.items():
        assert is_model(theory, *engine_interpretation(theory)).violations == (), name


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
    assert e.value.required == (9, 2)
    assert str(e.value) == "enumeration needs 9^2 interpretations, cap is 80"
    assert closure_forces_epistemic(g("p."), cap=81)


def test_cap_enforced():
    theory = g("p. q. r. s.")  # base of 8 literals: 6^8 > 1000
    with pytest.raises(CapExceededError) as e:
        count_models(theory, cap=1000)
    assert e.value.required == (6, 8)
    with pytest.raises(CapExceededError):
        list(enumerate_interpretations(theory, cap=1000))


def test_cap_check_builds_no_large_power():
    # the message names the power: 6^6002 has 4,671 digits, past CPython's
    # limit on converting an int to str, so it must not be formatted
    with pytest.raises(CapExceededError) as e:
        mc._check_cap(6, 6002, 2_000_000)
    assert str(e.value) == "enumeration needs 6^6002 interpretations, cap is 2000000"
    # at the bit-length boundary the power is compared exactly
    mc._check_cap(6, 2, 36)
    mc._check_cap(2, 6, 64)  # 64 has 7 bits
    mc._check_cap(6, 0, 1)
    for width, n, cap in ((6, 2, 35), (2, 7, 127), (6, 1, 1)):
        with pytest.raises(CapExceededError):
            mc._check_cap(width, n, cap)


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
