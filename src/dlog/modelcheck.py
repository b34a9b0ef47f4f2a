"""Model-theoretic semantics: interpretations as pairs of partial truth
assignments (definite level, defeasible level) over the Herbrand base,
model checking against the four closure conditions, exhaustive enumeration
on small bases, and all-models logical consequences.

This is the second independent oracle for the engine: on every theory with a
small enough base, `logical_consequences` must equal `engine.derive_all`.

Two enumeration routes are provided on purpose.  `enumerate_interpretations`
plus `is_model` is the plain per-interpretation reference; the consequence
computation itself runs vectorized over numpy status arrays so that a base of
six literals (46656 candidate interpretations) stays desk-scale fast.  The
test suite cross-checks the two routes against each other.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (
    ConclusionSet,
    GroundTheory,
    InternalError,
    Literal,
    Rule,
    RuleKind,
    Tag,
    TaggedConclusion,
)


class UsageError(Exception):
    pass


class CapExceededError(Exception):
    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration needs {required} interpretations, cap is {cap}"
        )
        self.required = required
        self.cap = cap


class ThreeVal(Enum):
    TRUE = "True"
    FALSE = "False"
    UNDEFINED = "undefined"  # the partial function is not defined here


_T, _F, _U = ThreeVal.TRUE, ThreeVal.FALSE, ThreeVal.UNDEFINED

DEFAULT_CAP = 2_000_000


def default_cap() -> int:
    text = os.environ.get("DLOG_CAP")
    if text is None:
        return DEFAULT_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise UsageError(f"DLOG_CAP must be an integer of at least 1, got {text!r}")
    return cap


def conj_value(f: dict[Literal, ThreeVal], body: Iterable[Literal]) -> ThreeVal:
    """Kleene conjunction of the values of the body literals.

    False absorbs; undefined dominates true; the empty conjunction is True
    (an empty-body rule is unconditionally applicable).
    """
    value = _T
    for literal in body:
        v = f[literal]
        if v is _F:
            return _F
        if v is _U:
            value = _U
    return value


@dataclass(frozen=True)
class DefeasibleInterpretation:
    """A pair of truth maps over the base; UNDEFINED encodes partiality."""

    base: frozenset[Literal]
    delta: dict[Literal, ThreeVal]
    partial: dict[Literal, ThreeVal]


@dataclass(frozen=True)
class ModelReport:
    violations: tuple[tuple[str, Literal, str], ...]  # (condition, literal, direction)

    @property
    def is_model(self) -> bool:
        return not self.violations


def is_model(g: GroundTheory, m: DefeasibleInterpretation) -> ModelReport:
    """Check the four biconditional closure conditions at every base literal,
    plus the two epistemic conditions.

    A biconditional fails in direction "if" when its right-hand side holds
    but the status differs (the interpretation is not deductively closed),
    and in direction "only-if" when the status holds without the right-hand
    side (not abductively closed: a status with no reason for it).
    """
    if m.base != g.herbrand_base:
        raise UsageError("interpretation base does not match the theory base")
    delta, partial = m.delta, m.partial
    sup = g.superiority
    violations: list[tuple[str, Literal, str]] = []

    def check(condition: str, q: Literal, status: bool, rhs: bool) -> None:
        if rhs and not status:
            violations.append((condition, q, "if"))
        elif status and not rhs:
            violations.append((condition, q, "only-if"))

    for q in g.literals:
        comp = q.complement()
        strict = g.rules_for({RuleKind.STRICT}, q)
        sd = g.rules_for({RuleKind.STRICT, RuleKind.DEFEASIBLE}, q)
        attackers = g.rules_for(RuleKind, comp)

        check(
            "Δ-True", q, delta[q] is _T,
            q in g.facts or any(conj_value(delta, r.body) is _T for r in strict),
        )
        check(
            "Δ-False", q, delta[q] is _F,
            q not in g.facts
            and all(conj_value(delta, r.body) is _F for r in strict),
        )

        def counterattacked(s: Rule) -> bool:
            return any(
                conj_value(partial, t.body) is _T and (t.label, s.label) in sup
                for t in sd
            )

        check(
            "∂-True", q, partial[q] is _T,
            delta[q] is _T
            or (
                any(conj_value(partial, r.body) is _T for r in sd)
                and delta[comp] is _F
                and all(
                    conj_value(partial, s.body) is _F or counterattacked(s)
                    for s in attackers
                )
            ),
        )

        def undefeated(s: Rule) -> bool:
            return conj_value(partial, s.body) is _T and all(
                conj_value(partial, t.body) is _F or (t.label, s.label) not in sup
                for t in sd
            )

        check(
            "∂-False", q, partial[q] is _F,
            delta[q] is _F
            and (
                all(conj_value(partial, r.body) is _F for r in sd)
                or delta[comp] is _T
                or any(undefeated(s) for s in attackers)
            ),
        )

        if delta[q] is _T and partial[q] is not _T:
            violations.append(("epistemic-1", q, "if"))
        if partial[q] is _F and delta[q] is not _F:
            violations.append(("epistemic-2", q, "if"))
    return ModelReport(tuple(violations))


# admissible (delta, partial) status pairs; the first six satisfy the
# epistemic conditions, the remaining three complete the unrestricted space
_WELL_FORMED_PAIRS = ((_T, _T), (_F, _T), (_F, _F), (_F, _U), (_U, _T), (_U, _U))
_EXTRA_PAIRS = ((_T, _F), (_T, _U), (_U, _F))


def enumerate_interpretations(
    g: GroundTheory, cap: Optional[int] = None
) -> Iterator[DefeasibleInterpretation]:
    """Yield every interpretation over the base exactly once, using the 6
    epistemically admissible status pairs per literal."""
    cap = default_cap() if cap is None else cap
    base = g.literals
    required = len(_WELL_FORMED_PAIRS) ** len(base)
    if required > cap:
        raise CapExceededError(required, cap)
    for assignment in itertools.product(_WELL_FORMED_PAIRS, repeat=len(base)):
        yield DefeasibleInterpretation(
            base=g.herbrand_base,
            delta={q: a[0] for q, a in zip(base, assignment)},
            partial={q: a[1] for q, a in zip(base, assignment)},
        )


# -- vectorized enumeration ------------------------------------------------
# status encoding in the arrays: 0 = False, 1 = True, 2 = undefined

_CODE = {_F: 0, _T: 1, _U: 2}


def _conj_columns(values: np.ndarray, idx: list[int]) -> np.ndarray:
    """Row-wise Kleene conjunction of the selected columns (codes 0/1/2)."""
    if not idx:
        return np.ones(values.shape[0], dtype=np.int8)
    cols = values[:, idx]
    any_false = (cols == 0).any(axis=1)
    all_true = (cols == 1).all(axis=1)
    return np.where(any_false, 0, np.where(all_true, 1, 2)).astype(np.int8)


def _model_mask(
    g: GroundTheory, cap: Optional[int], well_formed_only: bool = True
) -> tuple[tuple[Literal, ...], np.ndarray, np.ndarray, np.ndarray]:
    cap = default_cap() if cap is None else cap
    base = g.literals
    index = {q: i for i, q in enumerate(base)}
    pairs = _WELL_FORMED_PAIRS if well_formed_only else _WELL_FORMED_PAIRS + _EXTRA_PAIRS
    width = len(pairs)
    n = width ** len(base)
    if n > cap:
        raise CapExceededError(n, cap)
    digits = (
        np.arange(n, dtype=np.int64)[:, None]
        // (width ** np.arange(len(base), dtype=np.int64))
    ) % width
    delta_codes = np.array([_CODE[p[0]] for p in pairs], dtype=np.int8)
    partial_codes = np.array([_CODE[p[1]] for p in pairs], dtype=np.int8)
    delta = delta_codes[digits]
    partial = partial_codes[digits]

    conj_d = {r.label: _conj_columns(delta, [index[a] for a in r.body]) for r in g.rules}
    conj_p = {r.label: _conj_columns(partial, [index[a] for a in r.body]) for r in g.rules}
    sup = g.superiority
    mask = np.ones(n, dtype=bool)
    for j, q in enumerate(base):
        strict = g.rules_for({RuleKind.STRICT}, q)
        sd = g.rules_for({RuleKind.STRICT, RuleKind.DEFEASIBLE}, q)
        attackers = g.rules_for(RuleKind, base[j ^ 1])
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
    return base, delta, partial, mask


def closure_forces_epistemic(g: GroundTheory, cap: Optional[int] = None) -> bool:
    """Enumerate the unrestricted status space (9 pairs per literal), keep
    only interpretations satisfying the four closure conditions, and report
    whether every one of them also satisfies the epistemic conditions."""
    _, delta, partial, mask = _model_mask(g, cap, well_formed_only=False)
    d, p = delta[mask], partial[mask]
    breach_1 = ((d == 1) & (p != 1)).any()
    breach_2 = ((p == 0) & (d != 0)).any()
    return not (breach_1 or breach_2)


def count_models(g: GroundTheory, cap: Optional[int] = None) -> int:
    _, _, _, mask = _model_mask(g, cap)
    return int(mask.sum())


def logical_consequences(g: GroundTheory, cap: Optional[int] = None) -> ConclusionSet:
    """Conclusions holding in every model: +Δq iff the definite status of q
    is True in all models, and so on for the other three tags."""
    base, delta, partial, mask = _model_mask(g, cap)
    models_d = delta[mask]
    models_p = partial[mask]
    if models_d.shape[0] == 0:
        raise InternalError("theory has no models; the model conditions are broken")
    out: list[TaggedConclusion] = []
    for j, q in enumerate(base):
        dcol, pcol = models_d[:, j], models_p[:, j]
        if (dcol == 1).all():
            out.append(TaggedConclusion(Tag.PLUS_DELTA, q))
        elif (dcol == 0).all():
            out.append(TaggedConclusion(Tag.MINUS_DELTA, q))
        if (pcol == 1).all():
            out.append(TaggedConclusion(Tag.PLUS_PARTIAL, q))
        elif (pcol == 0).all():
            out.append(TaggedConclusion(Tag.MINUS_PARTIAL, q))
    return ConclusionSet(out)
