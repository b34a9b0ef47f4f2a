"""Tagged-conclusion derivation by monotone fixpoint over the four inference
rules, plus replayable derivations.

The propagation is worklist-driven with per-rule counters (body literals not
yet proved at the relevant level) and occurrence lists from literals to the
rules mentioning them, so a conclusion set is computed in time linear in the
size of the theory plus the superiority relation.  Negative tags are derived
by the same worklist: the inference rules are monotone in the derived set, so
no separate failure search is needed.  The build and the run, both in
`_Propagation.__init__`, hold the cyclic GC paused (`core.gc_paused`): they
allocate lists over the rules and an occurrence list per body literal, none
of them cyclic.

Literals are positions in the ground theory's table (`GroundTheory.literals`):
the heads, bodies and facts come as positions from `ground`
(`GroundTheory.positions`), and a query is located by position
arithmetic (`GroundTheory.position`).  The four status flag lists over the
table are the result (`ConclusionSet.from_table`).  `explain` slices the run
by packed steps, indexed in one flat list over `(position << 2) | code`, and
names literals only to return the derivation.  `check_derivation` locates each
step's literal once in the same way and replays the steps over four flag
arrays by position.  Both find R[q] through `GroundTheory.rules_at` and test
rule kinds in place, and both run with the cyclic GC paused.

Status codes used throughout: 0 = +D, 1 = -D, 2 = +d, 3 = -d, the position
of each tag in `Tag`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    _CODE,
    Atom,
    ConclusionSet,
    GroundTheory,
    GroundingError,
    InternalError,
    Literal,
    RuleKind,
    Tag,
    TaggedConclusion,
    gc_paused,
)

_PD, _MD, _Pd, _Md = 0, 1, 2, 3


class NoDerivationError(Exception):
    pass


Derivation = tuple[TaggedConclusion, ...]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of replaying a derivation: valid, or invalid at a 1-based index."""

    index: Optional[int] = None
    reason: str = ""

    @property
    def valid(self) -> bool:
        return self.index is None

    def __bool__(self) -> bool:
        return self.valid


class _Propagation:
    """One worklist run over a ground theory.  Holds the interned state."""

    @gc_paused
    def __init__(self, g: GroundTheory, query: Optional[Literal] = None):
        literals = g.literals
        positions = g.positions
        self.query: Optional[int] = None  # the queried literal's position
        if query is not None:
            if not query.is_ground():
                raise GroundingError(f"queried literal {query} is not ground")
            self.query = g.position(query)
            if self.query is None:  # one more pair, after the table
                positive = Literal(True, query.atom)
                literals += (positive, positive.complement())
                self.query = len(literals) - 2 + (not query.positive)
        self.literals = literals
        n = len(literals)
        self.fact = [False] * n
        for f in positions.facts:
            self.fact[f] = True

        rules = g.rules
        nr = len(rules)
        self.rules = rules
        self.head = positions.heads
        self.body = positions.bodies
        self.is_strict = [r.kind is RuleKind.STRICT for r in rules]
        self.is_sd = [r.kind is not RuleKind.DEFEATER for r in rules]

        # literal -> rules mentioning it in the body, in ascending rule order
        self.body_occ: dict[int, list[int]] = {}
        self.strict_body_occ: dict[int, list[int]] = {}
        for ri, body in enumerate(self.body):
            for a in body:
                self.body_occ.setdefault(a, []).append(ri)
                if self.is_strict[ri]:
                    self.strict_body_occ.setdefault(a, []).append(ri)

        self.n_strict_unblocked = [0] * n
        self.n_sd_undiscarded = [0] * n
        self.n_attackers_alive = [0] * n  # rules with head ~q not yet neutralized
        self.n_supported_sd = [0] * n
        self.attack_won = [False] * n
        for ri in range(nr):
            h = self.head[ri]
            if self.is_strict[ri]:
                self.n_strict_unblocked[h] += 1
            if self.is_sd[ri]:
                self.n_sd_undiscarded[h] += 1
            self.n_attackers_alive[h ^ 1] += 1

        # beats[t] = attackers s with head ~head(t) and t > s; for each such s,
        # t is one of its "live superiors" whose discard brings s closer to
        # winning its attack (clause 2.3 of the -d rule)
        by_label = {r.label: i for i, r in enumerate(rules)}
        self.beats: dict[int, list[int]] = {}
        self.n_live_superiors = [0] * nr
        for hi, lo in g.superiority:
            t, s = by_label.get(hi), by_label.get(lo)
            if t is None or s is None:
                continue
            if self.is_sd[t] and self.head[s] == (self.head[t] ^ 1):
                self.beats.setdefault(t, []).append(s)
                self.n_live_superiors[s] += 1

        self.delta_remaining = [len(self.body[ri]) for ri in range(nr)]
        self.partial_remaining = [len(self.body[ri]) for ri in range(nr)]
        self.delta_blocked = [False] * nr
        self.supported = [False] * nr
        self.discarded = [False] * nr
        self.neutralized = [False] * nr

        self.status = [[False] * n for _ in range(4)]
        self.order: list[int] = []  # packed steps (q << 2) | code
        self._run()

    # -- event plumbing ----------------------------------------------------

    def establish(self, code: int, q: int) -> None:
        flags = self.status[code]
        if flags[q]:
            return
        if self.status[code ^ 1][q]:
            raise InternalError(
                f"coherence breach: both signs of a tag for {self.literals[q]}"
            )
        flags[q] = True
        step = (q << 2) | code  # packed; tuples here would dominate allocation
        self.order.append(step)

    def _run(self) -> None:
        for q in range(len(self.literals)):
            if self.fact[q]:
                self.establish(_PD, q)
            elif self.n_strict_unblocked[q] == 0:
                self.establish(_MD, q)
        for ri in range(len(self.rules)):
            if self.is_strict[ri] and self.delta_remaining[ri] == 0:
                self.establish(_PD, self.head[ri])
            if self.partial_remaining[ri] == 0:
                self.on_supported(ri)
        # `order` is the worklist too: steps appended while it is read are
        # reached by the same loop, first in first out
        for step in self.order:
            code, q = step & 3, step >> 2
            if code == _PD:
                self.on_plus_delta(q)
            elif code == _MD:
                self.on_minus_delta(q)
            elif code == _Pd:
                self.on_plus_partial(q)
            else:
                self.on_minus_partial(q)

    def on_plus_delta(self, q: int) -> None:
        self.establish(_Pd, q)  # +d clause (1)
        for ri in self.strict_body_occ.get(q, ()):
            self.delta_remaining[ri] -= 1
            if self.delta_remaining[ri] == 0:
                self.establish(_PD, self.head[ri])
        self.check_minus_partial(q ^ 1)  # -d clause (2.2)

    def on_minus_delta(self, q: int) -> None:
        for ri in self.strict_body_occ.get(q, ()):
            if not self.delta_blocked[ri]:
                self.delta_blocked[ri] = True
                h = self.head[ri]
                self.n_strict_unblocked[h] -= 1
                if self.n_strict_unblocked[h] == 0 and not self.fact[h]:
                    self.establish(_MD, h)
        self.check_minus_partial(q)
        self.check_plus_partial(q ^ 1)  # +d clause (2.2)

    def on_plus_partial(self, q: int) -> None:
        for ri in self.body_occ.get(q, ()):
            self.partial_remaining[ri] -= 1
            if self.partial_remaining[ri] == 0:
                self.on_supported(ri)

    def on_minus_partial(self, q: int) -> None:
        for ri in self.body_occ.get(q, ()):
            if not self.discarded[ri]:
                self.on_discarded(ri)

    def on_supported(self, ri: int) -> None:
        if self.supported[ri]:
            return
        self.supported[ri] = True
        h = self.head[ri]
        target = h ^ 1  # the literal this rule attacks
        if self.is_sd[ri]:
            self.n_supported_sd[h] += 1
            for s in self.beats.get(ri, ()):  # +d clause (2.3.2): s is now defeated
                if not self.neutralized[s]:
                    self.neutralized[s] = True
                    self.n_attackers_alive[h] -= 1
            self.check_plus_partial(h)
        if self.n_live_superiors[ri] == 0:  # -d clause (2.3): attack succeeds
            self.attack_won[target] = True
            self.check_minus_partial(target)

    def on_discarded(self, ri: int) -> None:
        if self.discarded[ri]:
            return
        self.discarded[ri] = True
        h = self.head[ri]
        target = h ^ 1
        if self.is_sd[ri]:
            self.n_sd_undiscarded[h] -= 1
            self.check_minus_partial(h)  # -d clause (2.1)
            for s in self.beats.get(ri, ()):
                self.n_live_superiors[s] -= 1
                if self.n_live_superiors[s] == 0 and self.supported[s]:
                    self.attack_won[self.head[s] ^ 1] = True
                    self.check_minus_partial(self.head[s] ^ 1)
        if not self.neutralized[ri]:  # +d clause (2.3.1)
            self.neutralized[ri] = True
            self.n_attackers_alive[target] -= 1
            self.check_plus_partial(target)

    def check_plus_partial(self, q: int) -> None:
        if self.status[_Pd][q]:
            return
        if (
            self.n_supported_sd[q] > 0
            and self.status[_MD][q ^ 1]
            and self.n_attackers_alive[q] == 0
        ):
            self.establish(_Pd, q)

    def check_minus_partial(self, q: int) -> None:
        if self.status[_Md][q] or not self.status[_MD][q]:
            return
        if (
            self.n_sd_undiscarded[q] == 0
            or self.status[_PD][q ^ 1]
            or self.attack_won[q]
        ):
            self.establish(_Md, q)

    # -- results -----------------------------------------------------------

    def conclusions(self) -> ConclusionSet:
        return ConclusionSet.from_table(self.literals, self.status)

    def holds(self, tag: Tag) -> bool:
        """Whether the run established `tag` of the queried literal."""
        return self.status[_CODE[tag]][self.query]


def derive_all(g: GroundTheory) -> ConclusionSet:
    """All tagged conclusions derivable from the theory over its base.

    Literals whose status is settled neither positively nor negatively at a
    level (circular support, for instance) simply carry no conclusion there.
    """
    return _Propagation(g).conclusions()


def prove(g: GroundTheory, c: TaggedConclusion) -> bool:
    """Whether the conclusion is derivable; the base is extended with the
    queried literal if it is not already covered."""
    return _Propagation(g, c.literal).holds(c.tag)


@gc_paused
def explain(g: GroundTheory, c: TaggedConclusion) -> Derivation:
    """A derivation ending with `c`, built by backward-slicing the worklist
    run to the justification cone of `c`.  Effort-minimal, not length-minimal;
    always passes `check_derivation`."""
    prop = _Propagation(g, c.literal)
    if not prop.holds(c.tag):
        raise NoDerivationError(f"{c} is not derivable")
    order = prop.order
    # at[s]: the index in `order` of the packed step s, or len(order) when
    # the run never established it
    at = [len(order)] * (4 * len(prop.literals))
    for i, s in enumerate(order):
        at[s] = i
    needed = bytearray(len(at))
    stack = [(prop.query << 2) | _CODE[c.tag]]
    while stack:
        step = stack.pop()
        if not needed[step]:
            needed[step] = 1
            stack.extend(_justify(g, prop, at, step))
    # `tuple.__new__` builds each step without the named tuple's Python-level `__new__`
    tags, literals, new = tuple(Tag), prop.literals, tuple.__new__
    return tuple(new(TaggedConclusion, (tags[s & 3], literals[s >> 2])) for s in order if needed[s])


def _justify(g: GroundTheory, prop: _Propagation, at: list[int], step: int) -> list[int]:
    """Premises (earlier steps of the run, packed) justifying one established
    step.  R[q] is `g.rules_at(q)`; the queried pair past the table has none."""
    code, q = step & 3, step >> 2
    limit = at[step]

    def before(c: int, l: int) -> bool:
        return at[(l << 2) | c] < limit

    body, is_strict, is_sd, rules_at = prop.body, prop.is_strict, prop.is_sd, g.rules_at
    if code == _PD:
        if prop.fact[q]:
            return []
        for ri in rules_at(q):
            if is_strict[ri] and all(before(_PD, a) for a in body[ri]):
                return [(a << 2) | _PD for a in body[ri]]
        raise InternalError(f"no justification for +D {prop.literals[q]}")
    if code == _MD:
        premises = []
        for ri in rules_at(q):
            if not is_strict[ri]:
                continue
            witness = next((a for a in body[ri] if before(_MD, a)), None)
            if witness is None:
                raise InternalError(f"no justification for -D {prop.literals[q]}")
            premises.append((witness << 2) | _MD)
        return premises
    comp_q = q ^ 1
    if code == _Pd:
        if before(_PD, q):
            return [(q << 2) | _PD]
        for ri in rules_at(q):
            if is_sd[ri] and all(before(_Pd, a) for a in body[ri]):
                premises = [(a << 2) | _Pd for a in body[ri]]
                break
        else:
            raise InternalError(f"no justification for +d {prop.literals[q]}")
        premises.append((comp_q << 2) | _MD)
        for s in rules_at(comp_q):
            # each attacker is either discarded or counter-attacked by a
            # superior supportive rule (`beats` holds supportive rules only)
            w = next((a for a in body[s] if before(_Md, a)), None)
            if w is not None:
                premises.append((w << 2) | _Md)
                continue
            for t in rules_at(q):
                if s in prop.beats.get(t, ()) and all(before(_Pd, a) for a in body[t]):
                    premises.extend((a << 2) | _Pd for a in body[t])
                    break
            else:
                raise InternalError(
                    f"unneutralized attacker for +d {prop.literals[q]}"
                )
        return premises
    # code == _Md
    premises = [(q << 2) | _MD]
    if before(_PD, comp_q):  # (2.2)
        premises.append((comp_q << 2) | _PD)
        return premises
    witnesses = []
    for ri in rules_at(q):  # (2.1)
        if not is_sd[ri]:
            continue
        w = next((a for a in body[ri] if before(_Md, a)), None)
        if w is None:
            witnesses = None
            break
        witnesses.append((w << 2) | _Md)
    if witnesses is not None:
        return premises + witnesses
    for s in rules_at(comp_q):  # (2.3)
        if not all(before(_Pd, a) for a in body[s]):
            continue
        counter = []
        for t in rules_at(q):
            if s not in prop.beats.get(t, ()):
                continue  # t is not a supportive rule superior to s
            w = next((a for a in body[t] if before(_Md, a)), None)
            if w is None:
                counter = None
                break
            counter.append((w << 2) | _Md)
        if counter is not None:
            return premises + [(a << 2) | _Pd for a in body[s]] + counter
    raise InternalError(f"no justification for -d {prop.literals[q]}")


@gc_paused
def check_derivation(g: GroundTheory, d: Iterable[TaggedConclusion]) -> CheckResult:
    """Replay a derivation against the theory: every element must be justified
    by one of the four inference rules applied to the strict prefix before it.

    The replay keeps its own encoding of the rules and shares no state with
    the engine.  Each step's literal is located once (`GroundTheory.position`);
    a literal outside the table gets one more pair after it.  The prefix is
    four flag arrays over positions, one per `Tag`, and a position's rules
    come from `GroundTheory.rules_at`, with the kind test of each inference
    rule made here.  Superiority is read as label pairs.  A non-ground literal
    is a `GroundingError`, as in `prove` and `explain`."""
    steps = list(d)
    n = len(g.literals)
    outside: dict[Atom, int] = {}  # atom -> the position of its pair after the table
    at = []
    for c in steps:
        q = g.position(c.literal)
        if q is None:  # every table literal is ground
            if not c.literal.is_ground():
                raise GroundingError(f"derivation literal {c.literal} is not ground")
            atom = c.literal.atom
            q = outside.setdefault(atom, n + 2 * len(outside)) + (not c.literal.positive)
        at.append(q)
    size = n + 2 * len(outside)
    pD, mD, pd, md = (bytearray(size) for _ in Tag)

    positions = g.positions
    body = positions.bodies
    fact = bytearray(size)
    for f in positions.facts:
        fact[f] = 1
    rules_at = g.rules_at
    kinds = [r.kind for r in g.rules]
    labels = [r.label for r in g.rules]
    sup = g.superiority

    def supported(r: int) -> bool:
        return all(pd[a] for a in body[r])

    def discarded(r: int) -> bool:
        return any(md[a] for a in body[r])

    for i, (c, q) in enumerate(zip(steps, at), start=1):
        tag = c.tag
        rules = rules_at(q)
        if tag is Tag.PLUS_DELTA:
            ok = fact[q] or any(
                kinds[r] is RuleKind.STRICT and all(pD[a] for a in body[r]) for r in rules
            )
            reason = "literal is not a fact and no strict rule is established"
            flags = pD
        elif tag is Tag.MINUS_DELTA:
            ok = not fact[q] and all(
                any(mD[a] for a in body[r]) for r in rules if kinds[r] is RuleKind.STRICT
            )
            reason = "literal is a fact or some strict rule is unrefuted"
            flags = mD
        elif tag is Tag.PLUS_PARTIAL:
            sd = [r for r in rules if kinds[r] is not RuleKind.DEFEATER]
            ok = pD[q] or (
                any(supported(r) for r in sd)
                and mD[q ^ 1]
                and all(
                    discarded(s)
                    or any(
                        supported(t) and (labels[t], labels[s]) in sup for t in sd
                    )
                    for s in rules_at(q ^ 1)
                )
            )
            reason = "clause (1) and clause (2) both fail against the prefix"
            flags = pd
        else:
            sd = [r for r in rules if kinds[r] is not RuleKind.DEFEATER]
            ok = mD[q] and (
                all(discarded(r) for r in sd)
                or pD[q ^ 1]
                or any(
                    supported(s)
                    and all(
                        discarded(t) or (labels[t], labels[s]) not in sup
                        for t in sd
                    )
                    for s in rules_at(q ^ 1)
                )
            )
            reason = "none of clauses (2.1)-(2.3) holds against the prefix"
            flags = md
        if not ok:
            return CheckResult(index=i, reason=f"{c}: {reason}")
        flags[q] = 1
    return CheckResult()
