"""Model checking and exhaustive enumeration over small bases."""

import pytest

from dlog import engine
from dlog.core import InternalError, ground, lit, neg
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
        # by asking for consequences of a doctored mask
        import numpy as np

        import dlog.modelcheck as mc

        real = mc._model_mask

        def empty_mask(*args, **kwargs):
            base, delta, partial, mask = real(*args, **kwargs)
            return base, delta, partial, np.zeros_like(mask)

        mc._model_mask, saved = empty_mask, real
        try:
            logical_consequences(theory)
        finally:
            mc._model_mask = saved
