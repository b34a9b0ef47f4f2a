"""Translation of a ground theory into a ground logic program over the
predicates definitely/defeasibly/overruled/defeated, and its 3-valued
fixpoint semantics: the least fixpoint of Fitting's operator (`fitting_step`)
from all-unknown, which for finite ground programs coincides with Kunen's
semantics.

An interpretation maps each atom to one of `core`'s three-valued codes
F, U, T = 0, 1, 2, the codes the model checker reads too.  A negated body
literal reads T - v, a clause body the least code of its literals (T when it
has none), and an atom the greatest code of its clauses' bodies (F when it
heads none).

This is the first of the two independent oracles for the engine: reading the
fixpoint off as tagged conclusions must reproduce `engine.derive_all` on
every theory.  Only `translate` encodes the inference rules; the fixpoint
knows nothing but the clauses, and nothing here imports the engine.

The schematic clauses are partially evaluated at translation time: rule
classification predicates are resolved statically and body lists are expanded
per ground rule, so the program consists of ground clauses only.

`kunen_fixpoint` reaches the fixpoint by counter-based propagation, linear in
the size of the program, and checks it with one `fitting_step` pass.  Rerunning
`fitting_step` until nothing changes gives the same interpretation but is
quadratic on a chain; the tests keep that loop as the reference.
`translate`, `kunen_fixpoint` and `to_conclusions` build an object per clause
or atom and hold the cyclic GC paused (`core.gc_paused`), as the engine does:
on a 100k-rule chain the readout took 7.2 s with the GC on and 3.1 s paused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .core import (
    ConclusionSet,
    F,
    GroundTheory,
    InternalError,
    Literal,
    RuleKind,
    T,
    U,
    gc_paused,
)

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
        return "".join(f"{c}\n" for c in sorted(self.clauses, key=str))


ThreeValuedInterpretation = dict[MetaAtom, int]  # an F, U or T code per atom


def _pos(p: str, l: Literal, label: str = "") -> BodyLiteral:
    return BodyLiteral(MetaAtom(p, l, label))


def _naf(p: str, l: Literal, label: str = "") -> BodyLiteral:
    return BodyLiteral(MetaAtom(p, l, label), positive=False)


@gc_paused
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

    The attackers of a rule with head position h, and the rules that may
    defeat it, are `g.rules_at(h ^ 1)`.
    """
    rules, heads = g.rules, g.positions.heads
    clauses: list[Clause] = []
    for q in sorted(g.facts, key=str):
        clauses.append(Clause(MetaAtom(DEFINITELY, q), ()))
    for r in rules:
        if r.kind is RuleKind.STRICT:
            clauses.append(
                Clause(
                    MetaAtom(DEFINITELY, r.head),
                    tuple(_pos(DEFINITELY, a) for a in r.body),
                )
            )
    for q in g.literals:
        clauses.append(Clause(MetaAtom(DEFEASIBLY, q), (_pos(DEFINITELY, q),)))
    for r, h in zip(rules, heads):
        if r.kind is RuleKind.DEFEATER:
            continue
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
        for s in map(rules.__getitem__, g.rules_at(h ^ 1)):
            clauses.append(
                Clause(
                    MetaAtom(OVERRULED, q, r.label),
                    tuple(_pos(DEFEASIBLY, u) for u in s.body)
                    + (_naf(DEFEATED, comp, s.label),),
                )
            )
    for s, h in zip(rules, heads):
        for t in map(rules.__getitem__, g.rules_at(h ^ 1)):
            if t.kind is not RuleKind.DEFEATER and (t.label, s.label) in g.superiority:
                clauses.append(
                    Clause(
                        MetaAtom(DEFEATED, s.head, s.label),
                        tuple(_pos(DEFEASIBLY, v) for v in t.body),
                    )
                )
    return GroundMetaProgram(tuple(clauses))


def _eval_body(body: Iterable[BodyLiteral], i: ThreeValuedInterpretation) -> int:
    # Kleene conjunction: the least code, T when empty; the first F settles it
    value = T
    for b in body:
        v = i[b.atom]
        if not b.positive:
            v = T - v
        if v == F:
            return F
        if v < value:
            value = v
    return value


def fitting_step(
    p: GroundMetaProgram, i: ThreeValuedInterpretation
) -> ThreeValuedInterpretation:
    """One Kleene 3-valued consequence step: an atom gets the greatest code
    of its clause bodies, so T iff some body evaluates T, and F iff every
    body (none included) evaluates F; the first T settles it."""
    by_head = p.clauses_by_head
    out: ThreeValuedInterpretation = {}
    for atom in i:
        value = F
        for c in by_head.get(atom, ()):
            v = _eval_body(c.body, i)
            if v == T:
                value = T
                break
            if v > value:
                value = v
        out[atom] = value
    return out


def all_unknown(p: GroundMetaProgram) -> ThreeValuedInterpretation:
    return dict.fromkeys(p.atoms, U)


@gc_paused
def kunen_fixpoint(p: GroundMetaProgram) -> ThreeValuedInterpretation:
    """The least fixpoint of `fitting_step` from all-unknown, by counter-based
    propagation (the Dowling-Gallier linear Horn technique, in Kleene logic).

    Each clause counts its body literals not yet true and carries a
    falsified flag; each atom counts its clauses not yet falsified.  An atom
    turns true when one of its clauses counts down to 0, and false when its
    own count does (at once if it heads no clause).  Every atom settles at
    most once and every body occurrence is visited at most once per
    settling, so the pass is linear in the size of the program.

    The result is checked with one `fitting_step`, which must return it
    unchanged.
    """
    ids: dict[MetaAtom, int] = {}  # the atoms of `p.atoms`, numbered
    # body occurrences per atom: (clause, the atom's code that makes the literal true)
    occurrences: list[list[tuple[int, int]]] = []
    heads: list[int] = []
    waiting: list[int] = []
    for k, c in enumerate(p.clauses):
        h = ids.setdefault(c.head, len(ids))
        if h == len(occurrences):
            occurrences.append([])
        heads.append(h)
        waiting.append(len(c.body))
        for b in c.body:
            a = ids.setdefault(b.atom, len(ids))
            if a == len(occurrences):
                occurrences.append([])
            occurrences[a].append((k, T if b.positive else F))
    atoms = list(ids)
    falsified = [False] * len(heads)
    live = [0] * len(atoms)
    for h in heads:
        live[h] += 1
    value = [U] * len(atoms)
    settled = [(h, T) for h, n in zip(heads, waiting) if n == 0]
    settled += [(a, F) for a, n in enumerate(live) if n == 0]
    while settled:
        a, v = settled.pop()
        if value[a] != U:
            continue  # a second clause of a true atom came true
        value[a] = v
        for k, true_at in occurrences[a]:
            if v == true_at:  # the body literal turned true
                waiting[k] -= 1
                if waiting[k] == 0 and not falsified[k]:
                    settled.append((heads[k], T))
            elif not falsified[k]:
                falsified[k] = True
                h = heads[k]
                live[h] -= 1
                if live[h] == 0:
                    settled.append((h, F))
    fixpoint = dict(zip(atoms, value))
    if fitting_step(p, fixpoint) != fixpoint:
        raise InternalError("counter propagation stopped short of a Fitting fixpoint")
    return fixpoint


@gc_paused
def to_conclusions(
    i: ThreeValuedInterpretation, base: Sequence[Literal]
) -> ConclusionSet:
    """Read tagged conclusions off a fixpoint: definitely(q) true/false gives
    +D/-D, defeasibly(q) true/false gives +d/-d, unknown gives nothing."""
    levels = [[i.get(MetaAtom(p, q), U) for q in base] for p in (DEFINITELY, DEFEASIBLY)]
    return ConclusionSet.from_table(
        base, [[v == want for v in values] for values in levels for want in (T, F)]
    )


def conclusions(g: GroundTheory) -> ConclusionSet:
    """Convenience pipeline: translate, run to fixpoint, read off."""
    program = translate(g)
    return to_conclusions(kunen_fixpoint(program), g.literals)
