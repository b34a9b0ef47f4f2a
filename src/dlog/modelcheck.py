"""Model-theoretic semantics: interpretations as pairs of partial truth
assignments (definite level, defeasible level) over the Herbrand base,
model checking against the four closure conditions, exhaustive enumeration
on small bases, and all-models logical consequences.

This is the second independent oracle for the engine: on every theory with a
small enough base, `logical_consequences` must equal `engine.derive_all`.

Two enumeration routes are provided on purpose: `enumerate_interpretations`
plus `is_model` is the plain reference; `models` grows numpy status rows one
base column at a time and drops rows as soon as a literal's closure conditions
can be checked.  `DLOG_CAP` still bounds the candidate space 6^|base|, checked
before enumeration.  The tests cross-check the routes against each other.

Both routes read R[q] as `GroundTheory.rules_at` of q's position and pick
its strict and supportive rules by kind; `models` reads a rule's body columns
from `GroundTheory.table_positions` and keys its conjunctions by rule index.
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
    rules, sup = g.rules, g.superiority
    violations: list[tuple[str, Literal, str]] = []

    def check(condition: str, q: Literal, status: bool, rhs: bool) -> None:
        if rhs and not status:
            violations.append((condition, q, "if"))
        elif status and not rhs:
            violations.append((condition, q, "only-if"))

    for j, q in enumerate(g.literals):
        comp = q.complement()
        sd = [rules[r] for r in g.rules_at(j) if rules[r].kind is not RuleKind.DEFEATER]
        strict = [r for r in sd if r.kind is RuleKind.STRICT]
        attackers = [rules[s] for s in g.rules_at(j ^ 1)]

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
) -> tuple[tuple[Literal, ...], np.ndarray, np.ndarray]:
    """The base in table order, and every model as one row of status codes
    per level."""
    cap = default_cap() if cap is None else cap
    base, rules = g.literals, g.rules
    body = g.table_positions().bodies  # a rule's body columns
    pairs = _WELL_FORMED_PAIRS if well_formed_only else _WELL_FORMED_PAIRS + _EXTRA_PAIRS
    width = len(pairs)
    n = width ** len(base)
    if n > cap:
        raise CapExceededError(n, cap)
    delta_codes = np.array([_CODE[p[0]] for p in pairs], dtype=np.int8)
    partial_codes = np.array([_CODE[p[1]] for p in pairs], dtype=np.int8)
    # literal j's conditions read columns j and j ^ 1 and the bodies of its
    # supportive rules and attackers; they apply once all these are assigned
    supportive = [r.kind is not RuleKind.DEFEATER for r in rules]
    ready: list[list[int]] = [[] for _ in base]
    for j in range(len(base)):
        read = [r for r in g.rules_at(j) if supportive[r]] + g.rules_at(j ^ 1)
        ready[max([j | 1, *(a for r in read for a in body[r])])].append(j)
    delta = partial = np.zeros((1, 0), dtype=np.int8)
    for checked in ready:
        rows = delta.shape[0]
        delta = np.column_stack((np.repeat(delta, width, axis=0), np.tile(delta_codes, rows)))
        partial = np.column_stack((np.repeat(partial, width, axis=0), np.tile(partial_codes, rows)))
        for j in checked:
            q = base[j]
            sd = [r for r in g.rules_at(j) if supportive[r]]
            strict = [r for r in sd if rules[r].kind is RuleKind.STRICT]
            attackers = g.rules_at(j ^ 1)
            conj_d = {r: _conj_columns(delta, list(body[r])) for r in strict}
            conj_p = {r: _conj_columns(partial, list(body[r])) for r in sd + attackers}
            n = delta.shape[0]
            dq, pq, dcomp = delta[:, j], partial[:, j], delta[:, j ^ 1]

            rhs = np.zeros(n, dtype=bool) if q not in g.facts else np.ones(n, dtype=bool)
            for r in strict:
                rhs |= conj_d[r] == 1
            mask = (dq == 1) == rhs

            rhs = np.ones(n, dtype=bool) if q not in g.facts else np.zeros(n, dtype=bool)
            for r in strict:
                rhs &= conj_d[r] == 0
            mask &= (dq == 0) == rhs

            some_supportive = np.zeros(n, dtype=bool)
            all_supportive_fail = np.ones(n, dtype=bool)
            for r in sd:
                some_supportive |= conj_p[r] == 1
                all_supportive_fail &= conj_p[r] == 0
            every_attack_countered = np.ones(n, dtype=bool)
            some_attack_wins = np.zeros(n, dtype=bool)
            for s in attackers:
                defeated = np.zeros(n, dtype=bool)
                no_live_superior = np.ones(n, dtype=bool)
                for t in sd:
                    if (rules[t].label, rules[s].label) in g.superiority:
                        defeated |= conj_p[t] == 1
                        no_live_superior &= conj_p[t] == 0
                every_attack_countered &= (conj_p[s] == 0) | defeated
                some_attack_wins |= (conj_p[s] == 1) & no_live_superior
            rhs = (dq == 1) | (some_supportive & (dcomp == 0) & every_attack_countered)
            mask &= (pq == 1) == rhs
            rhs = (dq == 0) & (all_supportive_fail | (dcomp == 1) | some_attack_wins)
            mask &= (pq == 0) == rhs
            delta, partial = delta[mask], partial[mask]
    return base, delta, partial


def closure_forces_epistemic(g: GroundTheory, cap: Optional[int] = None) -> bool:
    """Enumerate the unrestricted status space (9 pairs per literal), keep
    only interpretations satisfying the four closure conditions, and report
    whether every one of them also satisfies the epistemic conditions."""
    _, d, p = _model_mask(g, cap, well_formed_only=False)
    breach_1 = ((d == 1) & (p != 1)).any()
    breach_2 = ((p == 0) & (d != 0)).any()
    return not (breach_1 or breach_2)


@dataclass(frozen=True)
class ModelSet:
    """Every model of a theory: one row of status codes per model."""

    base: tuple[Literal, ...]
    delta: np.ndarray
    partial: np.ndarray

    def consequences(self) -> ConclusionSet:
        """Conclusions holding in every model: +Δq iff the definite status
        of q is True in all models, and so on for the other three tags."""
        if not len(self.delta):
            raise InternalError("theory has no models; the model conditions are broken")
        d, p = self.delta, self.partial
        holds = (d == 1, d == 0, p == 1, p == 0)
        return ConclusionSet.from_table(self.base, [column.all(axis=0).tolist() for column in holds])


def models(g: GroundTheory, cap: Optional[int] = None) -> ModelSet:
    return ModelSet(*_model_mask(g, cap))


def count_models(g: GroundTheory, cap: Optional[int] = None) -> int:
    return len(models(g, cap).delta)


def logical_consequences(g: GroundTheory, cap: Optional[int] = None) -> ConclusionSet:
    """Conclusions holding in every model (`ModelSet.consequences`)."""
    return models(g, cap).consequences()
