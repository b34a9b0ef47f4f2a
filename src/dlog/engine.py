"""Tagged-conclusion derivation by monotone fixpoint over the four inference
rules, plus replayable derivations.

The propagation is worklist-driven with per-rule counters (body literals not
yet proved at the relevant level) and occurrence lists from literals to the
rules mentioning them, so a conclusion set is computed in time linear in the
size of the theory plus the superiority relation.  Negative tags are derived
by the same worklist: the inference rules are monotone in the derived set, so
no separate failure search is needed.

Status codes used throughout: 0 = +D, 1 = -D, 2 = +d, 3 = -d, the position
of each tag in `Tag`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    ConclusionSet,
    GroundTheory,
    GroundingError,
    InternalError,
    Literal,
    Rule,
    RuleKind,
    Tag,
    TaggedConclusion,
)

_PD, _MD, _Pd, _Md = 0, 1, 2, 3
_CODE = {tag: code for code, tag in enumerate(Tag)}


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

    def __init__(self, g: GroundTheory, query: Optional[Literal] = None):
        # the build allocates a list per rule and per body literal, and each
        # cyclic-GC collection rescans everything live: with the GC on, a
        # 100k-rule chain took 3.0-3.5x as long as a 50k one, about 2x with
        # it paused.  Nothing cyclic is created here
        resume_gc = gc.isenabled()
        gc.disable()
        try:
            self._build(g, query)
        finally:
            if resume_gc:
                gc.enable()

    def _build(self, g: GroundTheory, query: Optional[Literal]) -> None:
        literals = g.literals
        if query is not None:
            if not query.is_ground():
                raise GroundingError(f"queried literal {query} is not ground")
            if query not in g.herbrand_base:  # one more pair, after the table
                positive = Literal(True, query.atom)
                literals += (positive, positive.complement())
        self.literals = literals
        self.index = {l: i for i, l in enumerate(literals)}
        n = len(literals)
        self.fact = [False] * n
        for f in g.facts:
            self.fact[self.index[f]] = True

        rules = g.rules
        nr = len(rules)
        self.rules = rules
        self.head = [self.index[r.head] for r in rules]
        self.body = [[self.index[a] for a in r.body] for r in rules]
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
        self._by_head: Optional[dict[int, list[int]]] = None
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
        literals = self.literals
        return ConclusionSet.from_tag_sets(
            {
                tag: frozenset(
                    literals[q] for q, on in enumerate(self.status[code]) if on
                )
                for code, tag in enumerate(Tag)
            }
        )

    def holds(self, c: TaggedConclusion) -> bool:
        q = self.index.get(c.literal)
        return q is not None and self.status[_CODE[c.tag]][q]

    # head-indexed rule lookups, used only when slicing out justifications
    def heads(self, q: int) -> list[int]:
        if self._by_head is None:
            by_head: dict[int, list[int]] = {}
            for ri, h in enumerate(self.head):
                by_head.setdefault(h, []).append(ri)
            self._by_head = by_head
        return self._by_head.get(q, [])

    def strict_heads(self, q: int) -> list[int]:
        return [ri for ri in self.heads(q) if self.is_strict[ri]]

    def sd_heads(self, q: int) -> list[int]:
        return [ri for ri in self.heads(q) if self.is_sd[ri]]


def derive_all(g: GroundTheory) -> ConclusionSet:
    """All tagged conclusions derivable from the theory over its base.

    Literals whose status is settled neither positively nor negatively at a
    level (circular support, for instance) simply carry no conclusion there.
    """
    return _Propagation(g).conclusions()


def prove(g: GroundTheory, c: TaggedConclusion) -> bool:
    """Whether the conclusion is derivable; the base is extended with the
    queried literal if it is not already covered."""
    return _Propagation(g, c.literal).holds(c)


def explain(g: GroundTheory, c: TaggedConclusion) -> Derivation:
    """A derivation ending with `c`, built by backward-slicing the worklist
    run to the justification cone of `c`.  Effort-minimal, not length-minimal;
    always passes `check_derivation`."""
    prop = _Propagation(g, c.literal)
    if not prop.holds(c):
        raise NoDerivationError(f"{c} is not derivable")
    position = {(s & 3, s >> 2): i for i, s in enumerate(prop.order)}
    target = (_CODE[c.tag], prop.index[c.literal])
    needed: set[tuple[int, int]] = set()
    stack = [target]
    while stack:
        step = stack.pop()
        if step in needed:
            continue
        needed.add(step)
        stack.extend(_justify(prop, position, step))
    ordered = sorted(needed, key=position.__getitem__)
    tags = tuple(Tag)
    return tuple(TaggedConclusion(tags[code], prop.literals[q]) for code, q in ordered)


def _justify(prop: _Propagation, position, step) -> list[tuple[int, int]]:
    """Premises (earlier steps of the run) justifying one established step."""
    code, q = step
    limit = position[step]

    def before(c: int, l: int) -> bool:
        p = position.get((c, l))
        return p is not None and p < limit

    body = prop.body
    if code == _PD:
        if prop.fact[q]:
            return []
        for ri in prop.strict_heads(q):
            if all(before(_PD, a) for a in body[ri]):
                return [(_PD, a) for a in body[ri]]
        raise InternalError(f"no justification for +D {prop.literals[q]}")
    if code == _MD:
        premises = []
        for ri in prop.strict_heads(q):
            witness = next((a for a in body[ri] if before(_MD, a)), None)
            if witness is None:
                raise InternalError(f"no justification for -D {prop.literals[q]}")
            premises.append((_MD, witness))
        return premises
    comp_q = q ^ 1
    if code == _Pd:
        if before(_PD, q):
            return [(_PD, q)]
        for ri in prop.sd_heads(q):
            if all(before(_Pd, a) for a in body[ri]):
                premises = [(_Pd, a) for a in body[ri]]
                break
        else:
            raise InternalError(f"no justification for +d {prop.literals[q]}")
        premises.append((_MD, comp_q))
        for s in prop.heads(comp_q):
            # each attacker is either discarded or counter-attacked by a
            # superior supportive rule
            w = next((a for a in body[s] if before(_Md, a)), None)
            if w is not None:
                premises.append((_Md, w))
                continue
            for t in prop.sd_heads(q):
                if s in prop.beats.get(t, ()) and all(before(_Pd, a) for a in body[t]):
                    premises.extend((_Pd, a) for a in body[t])
                    break
            else:
                raise InternalError(
                    f"unneutralized attacker for +d {prop.literals[q]}"
                )
        return premises
    # code == _Md
    premises = [(_MD, q)]
    if before(_PD, comp_q):  # (2.2)
        premises.append((_PD, comp_q))
        return premises
    witnesses = []
    for ri in prop.sd_heads(q):  # (2.1)
        w = next((a for a in body[ri] if before(_Md, a)), None)
        if w is None:
            witnesses = None
            break
        witnesses.append((_Md, w))
    if witnesses is not None:
        return premises + witnesses
    for s in prop.heads(comp_q):  # (2.3)
        if not all(before(_Pd, a) for a in body[s]):
            continue
        counter = []
        for t in prop.sd_heads(q):
            if s not in prop.beats.get(t, ()):
                continue  # t is not superior to s
            w = next((a for a in body[t] if before(_Md, a)), None)
            if w is None:
                counter = None
                break
            counter.append((_Md, w))
        if counter is not None:
            return premises + [(_Pd, a) for a in body[s]] + counter
    raise InternalError(f"no justification for -d {prop.literals[q]}")


def check_derivation(g: GroundTheory, d: Iterable[TaggedConclusion]) -> CheckResult:
    """Replay a derivation against the theory: every element must be justified
    by one of the four inference rules applied to the strict prefix before it."""
    seen: set[TaggedConclusion] = set()

    def has(tag: Tag, literal: Literal) -> bool:
        return TaggedConclusion(tag, literal) in seen

    def supported(rule: Rule) -> bool:
        return all(has(Tag.PLUS_PARTIAL, a) for a in rule.body)

    def discarded(rule: Rule) -> bool:
        return any(has(Tag.MINUS_PARTIAL, a) for a in rule.body)

    sup = g.superiority
    for i, c in enumerate(d, start=1):
        tag, q = c.tag, c.literal
        comp = q.complement()
        strict = g.rules_for({RuleKind.STRICT}, q)
        sd = g.rules_for({RuleKind.STRICT, RuleKind.DEFEASIBLE}, q)
        attackers = g.rules_for(RuleKind, comp)
        ok = False
        reason = ""
        if tag is Tag.PLUS_DELTA:
            ok = q in g.facts or any(
                all(has(Tag.PLUS_DELTA, a) for a in r.body) for r in strict
            )
            reason = "literal is not a fact and no strict rule is established"
        elif tag is Tag.MINUS_DELTA:
            ok = q not in g.facts and all(
                any(has(Tag.MINUS_DELTA, a) for a in r.body) for r in strict
            )
            reason = "literal is a fact or some strict rule is unrefuted"
        elif tag is Tag.PLUS_PARTIAL:
            ok = has(Tag.PLUS_DELTA, q) or (
                any(supported(r) for r in sd)
                and has(Tag.MINUS_DELTA, comp)
                and all(
                    discarded(s)
                    or any(
                        supported(t) and (t.label, s.label) in sup for t in sd
                    )
                    for s in attackers
                )
            )
            reason = "clause (1) and clause (2) both fail against the prefix"
        else:
            ok = has(Tag.MINUS_DELTA, q) and (
                all(discarded(r) for r in sd)
                or has(Tag.PLUS_DELTA, comp)
                or any(
                    supported(s)
                    and all(
                        discarded(t) or (t.label, s.label) not in sup
                        for t in sd
                    )
                    for s in attackers
                )
            )
            reason = "none of clauses (2.1)-(2.3) holds against the prefix"
        if not ok:
            return CheckResult(index=i, reason=f"{c}: {reason}")
        seen.add(c)
    return CheckResult()
