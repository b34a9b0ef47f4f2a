"""Translation of a ground theory into a ground logic program over the
predicates definitely/defeasibly/overruled/defeated, and its 3-valued
fixpoint semantics (Fitting iteration from all-unknown, which for finite
ground programs coincides with Kunen's semantics).

This is the first of the two independent oracles for the engine: reading the
fixpoint off as tagged conclusions must reproduce `engine.derive_all` on
every theory.

The schematic clauses are partially evaluated at translation time: rule
classification predicates are resolved statically and body lists are expanded
per ground rule, so the program consists of ground clauses only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .core import (
    ALL_KINDS,
    SUPPORTIVE,
    ConclusionSet,
    GroundTheory,
    InternalError,
    Literal,
    RuleKind,
    Tag,
    TaggedConclusion,
)

TRUE, FALSE, UNKNOWN = "t", "f", "u"

DEFINITELY = "definitely"
DEFEASIBLY = "defeasibly"
OVERRULED = "overruled"
DEFEATED = "defeated"


class MetaAtom(NamedTuple):
    predicate: str
    literal: Literal
    label: str = ""  # rule label, for overruled/defeated only

    def __str__(self) -> str:
        if self.label:
            return f"{self.predicate}({self.label}, {self.literal})"
        return f"{self.predicate}({self.literal})"


class BodyLiteral(NamedTuple):
    atom: MetaAtom
    positive: bool = True  # False marks negation-as-failure

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


class Clause(NamedTuple):
    head: MetaAtom
    body: tuple[BodyLiteral, ...]

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(b) for b in self.body)}."


@dataclass(frozen=True)
class GroundMetaProgram:
    clauses: tuple[Clause, ...]

    @cached_property
    def clauses_by_head(self) -> dict[MetaAtom, tuple[Clause, ...]]:
        by_head: dict[MetaAtom, list[Clause]] = {}
        for c in self.clauses:
            by_head.setdefault(c.head, []).append(c)
        return {h: tuple(cs) for h, cs in by_head.items()}

    @cached_property
    def atoms(self) -> frozenset[MetaAtom]:
        # every base literal q has the clause defeasibly(q) :- definitely(q),
        # so both of its atoms are among the clauses' atoms
        universe: set[MetaAtom] = set()
        for c in self.clauses:
            universe.add(c.head)
            universe.update(b.atom for b in c.body)
        return frozenset(universe)

    def render(self) -> str:
        return "\n".join(str(c) for c in sorted(self.clauses, key=str)) + "\n"


ThreeValuedInterpretation = dict[MetaAtom, str]


def _pos(p: str, l: Literal, label: str = "") -> BodyLiteral:
    return BodyLiteral(MetaAtom(p, l, label))


def _naf(p: str, l: Literal, label: str = "") -> BodyLiteral:
    return BodyLiteral(MetaAtom(p, l, label), positive=False)


def translate(g: GroundTheory) -> GroundMetaProgram:
    """Emit the ground program for a theory.

    Per fact q:                definitely(q).
    Per strict rule r:         definitely(q) :- definitely(a1), ...
    Per base literal q:        defeasibly(q) :- definitely(q).
    Per supportive rule r:     defeasibly(q) :- not definitely(~q),
                                   defeasibly(a1), ..., not overruled(r, q).
    Per supportive r, attacker s with head ~q:
                               overruled(r, q) :- defeasibly(u1), ...,
                                   not defeated(s, ~q).
    Per attacker s, supportive t with head q and t > s:
                               defeated(s, ~q) :- defeasibly(v1), ...
    """
    clauses: list[Clause] = []
    for q in sorted(g.facts, key=str):
        clauses.append(Clause(MetaAtom(DEFINITELY, q), ()))
    for r in g.rules:
        if r.kind is RuleKind.STRICT:
            clauses.append(
                Clause(
                    MetaAtom(DEFINITELY, r.head),
                    tuple(_pos(DEFINITELY, a) for a in r.body),
                )
            )
    for q in g.literals:
        clauses.append(Clause(MetaAtom(DEFEASIBLY, q), (_pos(DEFINITELY, q),)))
    for r in g.rules_for(SUPPORTIVE):
        q = r.head
        comp = q.complement()
        clauses.append(
            Clause(
                MetaAtom(DEFEASIBLY, q),
                (_naf(DEFINITELY, comp),)
                + tuple(_pos(DEFEASIBLY, a) for a in r.body)
                + (_naf(OVERRULED, q, r.label),),
            )
        )
        for s in g.rules_for(ALL_KINDS, comp):
            clauses.append(
                Clause(
                    MetaAtom(OVERRULED, q, r.label),
                    tuple(_pos(DEFEASIBLY, u) for u in s.body)
                    + (_naf(DEFEATED, comp, s.label),),
                )
            )
    for s in g.rules:
        for t in g.rules_for(SUPPORTIVE, s.head.complement()):
            if (t.label, s.label) in g.superiority:
                clauses.append(
                    Clause(
                        MetaAtom(DEFEATED, s.head, s.label),
                        tuple(_pos(DEFEASIBLY, v) for v in t.body),
                    )
                )
    return GroundMetaProgram(tuple(clauses))


def _eval_body(body: Iterable[BodyLiteral], i: ThreeValuedInterpretation) -> str:
    # Kleene conjunction: false absorbs, unknown otherwise dominates true
    value = TRUE
    for b in body:
        v = i[b.atom]
        if not b.positive:
            v = FALSE if v == TRUE else TRUE if v == FALSE else UNKNOWN
        if v == FALSE:
            return FALSE
        if v == UNKNOWN:
            value = UNKNOWN
    return value


def fitting_step(
    p: GroundMetaProgram, i: ThreeValuedInterpretation
) -> ThreeValuedInterpretation:
    """One Kleene 3-valued consequence step: an atom becomes true iff some
    clause body evaluates true, false iff every clause body (none included)
    evaluates false, unknown otherwise."""
    by_head = p.clauses_by_head
    out: ThreeValuedInterpretation = {}
    for atom in i:
        clauses = by_head.get(atom, ())
        value = FALSE
        for c in clauses:
            v = _eval_body(c.body, i)
            if v == TRUE:
                value = TRUE
                break
            if v == UNKNOWN:
                value = UNKNOWN
        out[atom] = value
    return out


def all_unknown(p: GroundMetaProgram) -> ThreeValuedInterpretation:
    return {atom: UNKNOWN for atom in p.atoms}


def kunen_fixpoint(p: GroundMetaProgram) -> ThreeValuedInterpretation:
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
            if v != UNKNOWN and nxt[atom] != v:
                raise InternalError(f"fitting step retracted {atom} = {v}")
        current = nxt
    raise InternalError("fixpoint not reached within #atoms + 1 steps")


def to_conclusions(
    i: ThreeValuedInterpretation, base: frozenset[Literal]
) -> ConclusionSet:
    """Read tagged conclusions off a fixpoint: definitely(q) true/false gives
    +D/-D, defeasibly(q) true/false gives +d/-d, unknown gives nothing."""
    out: list[TaggedConclusion] = []
    readout = (
        (DEFINITELY, Tag.PLUS_DELTA, Tag.MINUS_DELTA),
        (DEFEASIBLY, Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL),
    )
    for q in base:
        for predicate, plus, minus in readout:
            v = i.get(MetaAtom(predicate, q), UNKNOWN)
            if v == TRUE:
                out.append(TaggedConclusion(plus, q))
            elif v == FALSE:
                out.append(TaggedConclusion(minus, q))
    return ConclusionSet(out)


def conclusions(g: GroundTheory) -> ConclusionSet:
    """Convenience pipeline: translate, run to fixpoint, read off."""
    program = translate(g)
    return to_conclusions(kunen_fixpoint(program), g.herbrand_base)
