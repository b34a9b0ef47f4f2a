"""Model-theoretic semantics: interpretations as pairs of partial truth
assignments (definite level, defeasible level) over the Herbrand base,
model checking against the four closure conditions, exhaustive enumeration
on small bases, and all-models logical consequences.

This is the second independent oracle for the engine: on every theory with a
small enough base, `logical_consequences` must equal `engine.derive_all`.

An interpretation has one encoding: two sequences of status codes over the
table positions, the definite level and the defeasible one.  The codes are
`core`'s F, U, T = 0, 1, 2, in truth order, U where the partial function is
undefined, so a Kleene conjunction is the least code of its conjuncts; the
metaprogram reads its fixpoint in the same codes.

Two model routes read that encoding on purpose, each with its own encoding
of the closure conditions: `enumerate_interpretations` plus `is_model` is the
plain reference, one interpretation at a time; `models` grows numpy status
rows one base column at a time and drops rows as soon as a literal's closure
conditions can be checked.  A `ModelSet` row pair is an interpretation that
`is_model` accepts.  `DLOG_CAP` still bounds the candidate space 6^|base|,
checked before enumeration (`_check_cap`).  The tests cross-check the
routes against each other.

Both routes read R[q] as `GroundTheory.rules_at` of q's position, pick its
strict and supportive rules by `GroundTheory.kinds`, and read a rule's body,
the facts' positions and superiority by rule index from
`GroundTheory.positions`.  Only a violation that `is_model` records reads
`GroundTheory.literals`, and `ModelSet.consequences` hands its flags over
the table to `ConclusionSet`, which `dlog models` renders as `derive` does.

numpy is imported inside `_model_mask`, after the cap check, and nowhere
else: it is the only function that builds status rows, and every other
numpy call is a method of the rows it returns.  Importing numpy costs more
than the rest of dlog together, so `dlog derive` and `import dlog` start
without it, and so does an interpreter that lacks it; there the model
routes raise `UsageError`, and a theory over the cap still raises
`CapExceededError` first.  Both errors are defined in `core`, so that the
command line catches them without importing this module, and re-exported
here.  `ModelReport` and `ModelSet` are named tuples, as every record in
dlog is.
"""

from __future__ import annotations

import itertools
import os
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .core import (
    CapExceededError,
    ConclusionSet,
    F,
    GroundTheory,
    InternalError,
    Literal,
    RuleKind,
    T,
    U,
    UsageError,
)

if TYPE_CHECKING:
    import numpy as np


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


class ModelReport(NamedTuple):
    violations: tuple[tuple[str, Literal, str], ...]  # (condition, literal, direction)

    @property
    def is_model(self) -> bool:
        return not self.violations


def is_model(g: GroundTheory, delta: Sequence[int], partial: Sequence[int]) -> ModelReport:
    """Check the four biconditional closure conditions at every base literal,
    plus the two epistemic conditions, of the interpretation that gives
    `g.literals[j]` the status codes `delta[j]` (definite level) and
    `partial[j]` (defeasible level).

    A biconditional fails in direction "if" when its right-hand side holds
    but the status differs (the interpretation is not deductively closed),
    and in direction "only-if" when the status holds without the right-hand
    side (not abductively closed: a status with no reason for it).
    """
    size = g.table_size
    for level in (delta, partial):
        if len(level) != size:
            raise UsageError(f"expected {size} status codes per level, got {len(level)}")
        bad = set(level) - {F, U, T}
        if bad:
            raise UsageError(f"status codes are F, U, T = 0, 1, 2; got {sorted(map(repr, bad))}")
    kinds, sup = g.kinds, g.positions.superiority
    bodies = g.positions.bodies
    fact = bytearray(size)
    for f in g.positions.facts:
        fact[f] = 1
    violations: list[tuple[str, Literal, str]] = []

    def conj(level: Sequence[int], r: int) -> int:
        return min((level[a] for a in bodies[r]), default=T)

    def check(condition: str, j: int, status: bool, rhs: bool) -> None:
        if rhs and not status:
            violations.append((condition, g.literals[j], "if"))
        elif status and not rhs:
            violations.append((condition, g.literals[j], "only-if"))

    for j in range(size):
        sd = [r for r in g.rules_at(j) if kinds[r] is not RuleKind.DEFEATER]
        strict = [r for r in sd if kinds[r] is RuleKind.STRICT]
        attackers = g.rules_at(j ^ 1)
        dq, pq, dcomp = delta[j], partial[j], delta[j ^ 1]

        check("Δ-True", j, dq == T, fact[j] or any(conj(delta, r) == T for r in strict))
        check("Δ-False", j, dq == F, not fact[j] and all(conj(delta, r) == F for r in strict))
        check(
            "∂-True", j, pq == T,
            dq == T
            or (
                any(conj(partial, r) == T for r in sd)
                and dcomp == F
                and all(
                    conj(partial, s) == F
                    or any(conj(partial, t) == T and (t, s) in sup for t in sd)
                    for s in attackers
                )
            ),
        )
        check(
            "∂-False", j, pq == F,
            dq == F
            and (
                all(conj(partial, r) == F for r in sd)
                or dcomp == T
                or any(
                    conj(partial, s) == T
                    and all(conj(partial, t) == F or (t, s) not in sup for t in sd)
                    for s in attackers
                )
            ),
        )

        if dq == T and pq != T:
            violations.append(("epistemic-1", g.literals[j], "if"))
        if pq == F and dq != F:
            violations.append(("epistemic-2", g.literals[j], "if"))
    return ModelReport(tuple(violations))


# admissible (delta, partial) status pairs; the first six satisfy the
# epistemic conditions, the remaining three complete the unrestricted space
_WELL_FORMED_PAIRS = ((T, T), (F, T), (F, F), (F, U), (U, T), (U, U))
_EXTRA_PAIRS = ((T, F), (T, U), (U, F))


def _check_cap(width: int, n: int, cap: Optional[int]) -> None:
    """Raise `CapExceededError` when `width ** n` exceeds the cap (`DLOG_CAP`
    when None).  Past the cap's bit length `width ** n >= 2 ** n > cap`, so
    the power, which may have thousands of digits, is not built there."""
    cap = default_cap() if cap is None else cap
    if n > cap.bit_length() or width**n > cap:
        raise CapExceededError(width, n, cap)


def enumerate_interpretations(
    g: GroundTheory, cap: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every interpretation over the base exactly once, as its
    `(delta, partial)` status codes in table order, using the 6
    epistemically admissible status pairs per literal."""
    _check_cap(len(_WELL_FORMED_PAIRS), g.table_size, cap)
    for assignment in itertools.product(_WELL_FORMED_PAIRS, repeat=g.table_size):
        yield tuple(a[0] for a in assignment), tuple(a[1] for a in assignment)


# -- vectorized enumeration ------------------------------------------------


def _conj_columns(values: np.ndarray, idx: list[int]) -> np.ndarray:
    """Row-wise Kleene conjunction of the selected columns: their least code,
    T when none are selected."""
    return values[:, idx].min(axis=1, initial=T)


def _model_mask(
    g: GroundTheory, cap: Optional[int], well_formed_only: bool = True
) -> tuple[GroundTheory, np.ndarray, np.ndarray]:
    """The theory, and every model of it as one row of status codes per
    level, in table order."""
    size, kinds = g.table_size, g.kinds
    body, sup = g.positions.bodies, g.positions.superiority  # a rule's body columns; t > s by index
    pairs = _WELL_FORMED_PAIRS if well_formed_only else _WELL_FORMED_PAIRS + _EXTRA_PAIRS
    width = len(pairs)
    _check_cap(width, size, cap)
    fact = bytearray(size)
    for f in g.positions.facts:
        fact[f] = 1
    try:
        import numpy as np
    except ImportError as e:
        raise UsageError(f"model enumeration needs numpy, which cannot be imported ({e})") from None
    delta_codes = np.array([p[0] for p in pairs], dtype=np.int8)
    partial_codes = np.array([p[1] for p in pairs], dtype=np.int8)
    # literal j's conditions read columns j and j ^ 1 and the bodies of its
    # supportive rules and attackers; they apply once all these are assigned
    supportive = [kind is not RuleKind.DEFEATER for kind in kinds]
    ready: list[list[int]] = [[] for _ in range(size)]
    for j in range(size):
        read = [r for r in g.rules_at(j) if supportive[r]] + g.rules_at(j ^ 1)
        ready[max([j | 1, *(a for r in read for a in body[r])])].append(j)
    delta = partial = np.zeros((1, 0), dtype=np.int8)
    for checked in ready:
        rows = delta.shape[0]
        delta = np.column_stack((np.repeat(delta, width, axis=0), np.tile(delta_codes, rows)))
        partial = np.column_stack((np.repeat(partial, width, axis=0), np.tile(partial_codes, rows)))
        for j in checked:
            sd = [r for r in g.rules_at(j) if supportive[r]]
            strict = [r for r in sd if kinds[r] is RuleKind.STRICT]
            attackers = g.rules_at(j ^ 1)
            conj_d = {r: _conj_columns(delta, list(body[r])) for r in strict}
            conj_p = {r: _conj_columns(partial, list(body[r])) for r in sd + attackers}
            n = delta.shape[0]
            dq, pq, dcomp = delta[:, j], partial[:, j], delta[:, j ^ 1]

            rhs = np.ones(n, dtype=bool) if fact[j] else np.zeros(n, dtype=bool)
            for r in strict:
                rhs |= conj_d[r] == T
            mask = (dq == T) == rhs

            rhs = np.zeros(n, dtype=bool) if fact[j] else np.ones(n, dtype=bool)
            for r in strict:
                rhs &= conj_d[r] == F
            mask &= (dq == F) == rhs

            some_supportive = np.zeros(n, dtype=bool)
            all_supportive_fail = np.ones(n, dtype=bool)
            for r in sd:
                some_supportive |= conj_p[r] == T
                all_supportive_fail &= conj_p[r] == F
            every_attack_countered = np.ones(n, dtype=bool)
            some_attack_wins = np.zeros(n, dtype=bool)
            for s in attackers:
                defeated = np.zeros(n, dtype=bool)
                no_live_superior = np.ones(n, dtype=bool)
                for t in sd:
                    if (t, s) in sup:
                        defeated |= conj_p[t] == T
                        no_live_superior &= conj_p[t] == F
                every_attack_countered &= (conj_p[s] == F) | defeated
                some_attack_wins |= (conj_p[s] == T) & no_live_superior
            rhs = (dq == T) | (some_supportive & (dcomp == F) & every_attack_countered)
            mask &= (pq == T) == rhs
            rhs = (dq == F) & (all_supportive_fail | (dcomp == T) | some_attack_wins)
            mask &= (pq == F) == rhs
            delta, partial = delta[mask], partial[mask]
    return g, delta, partial


def closure_forces_epistemic(g: GroundTheory, cap: Optional[int] = None) -> bool:
    """Enumerate the unrestricted status space (9 pairs per literal), keep
    only interpretations satisfying the four closure conditions, and report
    whether every one of them also satisfies the epistemic conditions."""
    _, d, p = _model_mask(g, cap, well_formed_only=False)
    breach_1 = ((d == T) & (p != T)).any()
    breach_2 = ((p == F) & (d != F)).any()
    return not (breach_1 or breach_2)


class ModelSet(NamedTuple):
    """Every model of a theory: row i of `delta` and of `partial` holds the
    status codes (F, U, T) of model i over `theory`'s table, in table
    order."""

    theory: GroundTheory
    delta: np.ndarray
    partial: np.ndarray

    def consequences(self) -> ConclusionSet:
        """Conclusions holding in every model: +Δq iff the definite status
        of q is True in all models, and so on for the other three tags."""
        if not len(self.delta):
            raise InternalError("theory has no models; the model conditions are broken")
        d, p = self.delta, self.partial
        holds = (d == T, d == F, p == T, p == F)
        return ConclusionSet(self.theory, [column.all(axis=0).tolist() for column in holds])


def models(g: GroundTheory, cap: Optional[int] = None) -> ModelSet:
    return ModelSet(*_model_mask(g, cap))


def count_models(g: GroundTheory, cap: Optional[int] = None) -> int:
    return len(models(g, cap).delta)


def logical_consequences(g: GroundTheory, cap: Optional[int] = None) -> ConclusionSet:
    """Conclusions holding in every model (`ModelSet.consequences`)."""
    return models(g, cap).consequences()
