"""Translation of a ground theory into a ground logic program over the
predicates definitely/defeasibly/overruled/defeated, and its 3-valued
fixpoint semantics: the least fixpoint of Fitting's operator (`fitting_step`)
from all-unknown, which for finite ground programs coincides with Kunen's
semantics.

Atoms are numbered by arithmetic, as `core` numbers ground literals by table
position.  For a theory with n base literals (`table_size`) and m rules
(`kinds`), `definitely(q)` is atom q and `defeasibly(q)` is n + q, for q a
table position; `overruled(r, head r)` is 2n + r and `defeated(s, head s)`
is 2n + m + s, for r and s rule indexes.  A clause is a `(head, body)` pair
of such numbers, and a negated (negation-as-failure) body literal is `~atom`.
Only `GroundMetaProgram.name` turns a number back into text, and only it
reads `GroundTheory.literals` and `rules`.  Rules sharing a
label and a head get an `overruled` atom each; their clauses are the same,
so are their values, and `validate` rejects duplicate labels anyway.

An interpretation is a list of `core`'s three-valued codes F, U, T = 0, 1, 2
indexed by atom, the codes the model checker reads too.  A negated body
literal reads T - v, a clause body the least code of its literals (T when it
has none), and an atom the greatest code of its clauses' bodies (F when it
heads none).  The fixpoint's slices `[0:n]` and `[n:2n]` are the definite
and the defeasible level, which `to_conclusions` hands to `ConclusionSet`
as flags over `g`'s table.

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
`translate` and `kunen_fixpoint` build an object per clause or atom and hold
the cyclic GC paused (`core.gc_paused`), as the engine does.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .core import (
    ConclusionSet,
    F,
    GroundTheory,
    InternalError,
    RuleKind,
    T,
    U,
    gc_paused,
)

DEFINITELY = "definitely"
DEFEASIBLY = "defeasibly"
OVERRULED = "overruled"
DEFEATED = "defeated"

Clause = tuple[int, tuple[int, ...]]  # (head atom, body atoms; ~atom negated)
ThreeValuedInterpretation = list[int]  # an F, U or T code per atom


class _GroundMetaProgramFields(NamedTuple):
    clauses: tuple[Clause, ...]
    theory: GroundTheory  # names the atoms


class GroundMetaProgram(_GroundMetaProgramFields):
    """The clauses of `translate`, and the theory whose table and rules
    number their atoms."""

    @property
    def size(self) -> int:
        """The number of atoms, 2n + 2m."""
        return 2 * (self.theory.table_size + len(self.theory.kinds))

    @cached_property
    def clauses_by_head(self) -> list[list[Clause]]:
        by_head: list[list[Clause]] = [[] for _ in range(self.size)]
        for c in self.clauses:
            by_head[c[0]].append(c)
        return by_head

    def name(self, atom: int) -> str:
        """The atom's text, such as `defeasibly(~p)` or `overruled(r, p)`."""
        literals, rules = self.theory.literals, self.theory.rules
        n = len(literals)
        if atom < 2 * n:
            k, q = divmod(atom, n)
            return f"{(DEFINITELY, DEFEASIBLY)[k]}({literals[q]})"
        k, r = divmod(atom - 2 * n, len(rules))
        return f"{(OVERRULED, DEFEATED)[k]}({rules[r].label}, {rules[r].head})"

    def text(self, clause: Clause) -> str:
        head, body = clause
        if not body:
            return f"{self.name(head)}."
        names = [self.name(b) if b >= 0 else f"not {self.name(~b)}" for b in body]
        return f"{self.name(head)} :- {', '.join(names)}."

    def render(self) -> str:
        return "".join(f"{t}\n" for t in sorted(map(self.text, self.clauses)))


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
    defeat it, are `g.rules_at(h ^ 1)`; t > s is `(t, s)` in
    `g.positions.superiority`, by rule index.
    """
    kinds, (heads, bodies, facts, sup) = g.kinds, g.positions
    n = g.table_size
    overruled, defeated = 2 * n, 2 * n + len(kinds)
    clauses: list[Clause] = [(q, ()) for q in sorted(facts)]
    for r, kind in enumerate(kinds):
        if kind is RuleKind.STRICT:
            clauses.append((heads[r], bodies[r]))
    clauses += [(n + q, (q,)) for q in range(n)]
    for r, kind in enumerate(kinds):
        if kind is RuleKind.DEFEATER:
            continue
        h = heads[r]
        clauses.append((n + h, (~(h ^ 1), *[n + a for a in bodies[r]], ~(overruled + r))))
        for s in g.rules_at(h ^ 1):
            clauses.append((overruled + r, (*[n + u for u in bodies[s]], ~(defeated + s))))
    for s, h in enumerate(heads):
        for t in g.rules_at(h ^ 1):
            if kinds[t] is not RuleKind.DEFEATER and (t, s) in sup:
                clauses.append((defeated + s, tuple([n + v for v in bodies[t]])))
    return GroundMetaProgram(tuple(clauses), g)


def _eval_body(body: Iterable[int], i: ThreeValuedInterpretation) -> int:
    # Kleene conjunction: the least code, T when empty; the first F settles it
    value = T
    for b in body:
        v = i[b] if b >= 0 else T - i[~b]
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
    out: ThreeValuedInterpretation = []
    for clauses in p.clauses_by_head:
        value = F
        for _, body in clauses:
            v = _eval_body(body, i)
            if v == T:
                value = T
                break
            if v > value:
                value = v
        out.append(value)
    return out


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
    size = p.size
    # body occurrences per atom: (clause, the atom's code that makes the literal true)
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    heads: list[int] = []
    waiting: list[int] = []
    live = [0] * size
    for k, (h, body) in enumerate(p.clauses):
        heads.append(h)
        waiting.append(len(body))
        live[h] += 1
        for b in body:
            if b >= 0:
                occurrences[b].append((k, T))
            else:
                occurrences[~b].append((k, F))
    falsified = [False] * len(heads)
    value = [U] * size
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
    if fitting_step(p, value) != value:
        raise InternalError("counter propagation stopped short of a Fitting fixpoint")
    return value


def to_conclusions(i: ThreeValuedInterpretation, g: GroundTheory) -> ConclusionSet:
    """Read tagged conclusions off a fixpoint of `translate(g)`, over `g`'s
    table: definitely(q) true/false gives +D/-D, defeasibly(q) true/false
    gives +d/-d, unknown gives nothing."""
    n = g.table_size
    levels = (i[:n], i[n : 2 * n])
    return ConclusionSet(g, [[v == want for v in values] for values in levels for want in (T, F)])


def conclusions(g: GroundTheory) -> ConclusionSet:
    """Convenience pipeline: translate, run to fixpoint, read off."""
    program = translate(g)
    return to_conclusions(kunen_fixpoint(program), g)
