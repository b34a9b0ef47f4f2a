"""Tagged-conclusion derivation by monotone fixpoint over the four inference
rules, plus replayable derivations.

The propagation is one worklist loop with per-rule counters (body literals
not yet proved at the relevant level) and occurrence lists from literals to
the rules mentioning them, so a conclusion set is computed in time linear in
the size of the theory plus the superiority relation.  Negative tags are
derived by the same worklist: the inference rules are monotone in the derived
set, so no separate failure search is needed.  `_Propagation._run` builds the
indexes and runs the loop over local names.  Each tag is one branch of the
loop, and what a step sets off (a rule supported, discarded or blocked, an
attacker neutralised, a check of a -d or +d clause) is written out in the
branch, so an event costs no method call.  The build and the run hold the
cyclic GC paused (`core.gc_paused`): they allocate lists over the rules and
an occurrence list per body literal, none of them cyclic.

Coherence and containment are checked once, when the run ends by building
its `ConclusionSet` (`_Propagation.conclusions`), so `derive_all`, and
`prove` and `explain` of a literal in the table, all get the check.  One
check suffices: a flag is only ever set, never cleared, so a breach anywhere
in the run is still there at the end, and every append is guarded by its
flag, so a breaching run still ends.

The run's packed steps, `order`, are the worklist too, and they open with the
*inert block*.  A literal is inert when it is not a fact, heads no rule, its
complement is neither, and no body mentions it.  It is -D and -d whatever
else holds, and no inference rule for another literal reads it.  So both
steps of every inert literal are written in bulk, one `range` per run of
inert table positions, and the loop starts after the block.  Every other
step keeps its order: read by the loop, an inert literal's -D step would
establish its -d and nothing else, so taking the pair out of the loop leaves
the other steps in the order they would have had.  `explain` derivations,
the whole-run replay and every rendered output are the same either way.

Literals are positions in the ground theory's table (`GroundTheory.literals`):
the heads, bodies and facts come as positions from `ground`
(`GroundTheory.positions`), the rule kinds as its kind column
(`GroundTheory.kinds`), the table's size from its layout
(`GroundTheory.table_size`), and a query is located by position arithmetic
(`GroundTheory.position`).  The four status flag lists over the table are
the result (`ConclusionSet(g, flags)`), so a run builds the table only
when something names a literal.  A queried literal outside the table is no
fact and heads no rule, nor does its complement, so the inference rules
make it -D and -d and nothing else: `prove` and `explain` answer it without
a run.  `explain` slices the run by packed steps, indexed in one flat list
over `(position << 2) | code`, in one loop that writes the four inference
rules out, so a sliced step costs no Python call; it names literals, from
`GroundTheory.literals`, only to return the derivation.  `check_derivation`
locates every step's literal in one call (`GroundTheory.locate`) and
replays the steps over four sets of positions, a body tested by one set
method.  Both read R[q] from `GroundTheory.rule_index`, the dict behind
`rules_at`, test rule kinds in place, and run with the cyclic GC paused.

Status codes used throughout: 0 = +D, 1 = -D, 2 = +d, 3 = -d, the position
of each tag in `Tag`.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from operator import itemgetter, not_, xor
from typing import Iterable, NamedTuple, Optional

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
_OUTSIDE = (Tag.MINUS_DELTA, Tag.MINUS_PARTIAL)  # the tags of a literal outside the table
_STRICT, _DEFEATER = RuleKind.STRICT, RuleKind.DEFEATER


class NoDerivationError(Exception):
    pass


Derivation = tuple[TaggedConclusion, ...]


class CheckResult(NamedTuple):
    """Outcome of replaying a derivation: valid, or invalid at a 1-based
    index.  Its truth is its validity, not the tuple's length, and its
    `index` field stands where the tuple's `index` method would."""

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
    def __init__(self, g: GroundTheory):
        self._run(g)

    def _run(self, g: GroundTheory) -> None:
        """Index the rules, settle the inert block, and propagate the four
        inference rules to their fixpoint, appending each step to `order`;
        then check the result as `conclusions`."""
        n = g.table_size
        head, bodies, facts, sup = g.positions
        kinds = g.kinds
        nr = len(kinds)
        self.fact = fact = [False] * n
        for f in facts:
            fact[f] = True
        self.body = bodies
        self.is_strict = is_strict = [k is _STRICT for k in kinds]
        self.is_sd = is_sd = [k is not _DEFEATER for k in kinds]

        # literal -> rules mentioning it in the body, in ascending rule order
        occ: dict[int, list[int]] = {}
        strict_occ: dict[int, list[int]] = {}  # the same for strict rules
        strict_left = [0] * n  # strict rules for q not yet blocked
        sd_left = [0] * n  # supportive rules for q not yet discarded
        attackers = [0] * n  # rules with head ~q not yet neutralized
        for ri, h, body, strict, sd in zip(count(), head, bodies, is_strict, is_sd):
            for a in body:
                occ.setdefault(a, []).append(ri)
            if strict:
                strict_left[h] += 1
                for a in body:
                    strict_occ.setdefault(a, []).append(ri)
            if sd:
                sd_left[h] += 1
            attackers[h ^ 1] += 1
        sd_supported = [False] * n  # some supportive rule for q is supported
        won = [False] * n  # some attack on q succeeds: -d clause (2.3)

        # beats[t] = attackers s with head ~head(t) and t > s; for each such s,
        # t is one of its "live superiors" whose discard brings s closer to
        # winning its attack (clause 2.3 of the -d rule)
        beats = {}
        superiors = [0] * nr
        for t, s in sup:
            if is_sd[t] and head[s] == (head[t] ^ 1):
                beats.setdefault(t, []).append(s)
                superiors[s] += 1

        delta_left = list(map(len, bodies))  # body literals not yet +D
        partial_left = delta_left.copy()  # body literals not yet +d
        blocked = [False] * nr  # some body literal is -D
        supported = [False] * nr
        discarded = [False] * nr
        neutralized = [False] * nr

        self.status = pD, mD, pd, md = [False] * n, [False] * n, [False] * n, [False] * n
        self.order = order = []  # packed steps (q << 2) | code
        append = order.append
        occ_at, strict_occ_at, beats_of = occ.get, strict_occ.get, beats.get

        # The inert block.  A literal is touched when it is in a body, or
        # when a fact or a rule head claims its atom; the others are -D and
        # -d and wake nothing.  A run [low, high) of them is the steps
        # range(4 * low + 1, 4 * high, 2): -D low, -d low, -D low + 1, ...
        touched = set(occ)
        touched.update(facts, head, map(xor, facts, repeat(1)), map(xor, head, repeat(1)))
        touched = sorted(touched)
        low = 0
        for high in [*touched, n]:
            if low < high:
                order += range(4 * low + 1, 4 * high, 2)
                mD[low:high] = md[low:high] = [True] * (high - low)
            low = high + 1
        worklist = len(order)

        for q in touched:
            if fact[q]:
                pD[q] = True
                append(q << 2)
            elif not strict_left[q]:
                mD[q] = True
                append((q << 2) | _MD)

        # the rules with empty bodies, in rule order, apply from the start
        for ri in compress(count(), map(not_, partial_left)):
            h = head[ri]
            if is_strict[ri] and not pD[h]:
                pD[h] = True
                append(h << 2)
            # rule ri is supported, as in the +d branch below
            supported[ri] = True
            t = h ^ 1  # the literal this rule attacks
            if is_sd[ri]:
                sd_supported[h] = True
                for s in beats_of(ri, ()):  # +d clause (2.3.2): s is now defeated
                    if not neutralized[s]:
                        neutralized[s] = True
                        attackers[h] -= 1
                if not pd[h] and mD[t] and not attackers[h]:
                    pd[h] = True
                    append((h << 2) | _Pd)
            if not superiors[ri]:  # -d clause (2.3): the attack on t succeeds
                won[t] = True
                if mD[t] and not md[t]:
                    md[t] = True
                    append((t << 2) | _Md)

        # `order` is the worklist too: steps appended while it is read are
        # reached by the same loop, first in first out
        for step in islice(order, worklist, None):
            q = step >> 2
            if step & 1:
                if step & 2:  # -d q
                    for ri in occ_at(q, ()):
                        if discarded[ri]:
                            continue
                        discarded[ri] = True
                        h = head[ri]
                        t = h ^ 1
                        if is_sd[ri]:
                            left = sd_left[h] - 1
                            sd_left[h] = left
                            if not md[h] and mD[h] and (not left or pD[t] or won[h]):  # -d (2.1)
                                md[h] = True
                                append((h << 2) | _Md)
                            for s in beats_of(ri, ()):
                                superiors[s] -= 1
                                if not superiors[s] and supported[s]:
                                    x = head[s] ^ 1  # -d clause (2.3) for x
                                    won[x] = True
                                    if mD[x] and not md[x]:
                                        md[x] = True
                                        append((x << 2) | _Md)
                        if not neutralized[ri]:  # +d clause (2.3.1)
                            neutralized[ri] = True
                            left = attackers[t] - 1
                            attackers[t] = left
                            if not left and not pd[t] and sd_supported[t] and mD[h]:
                                pd[t] = True
                                append((t << 2) | _Pd)
                else:  # -D q
                    for ri in strict_occ_at(q, ()):
                        if blocked[ri]:
                            continue
                        blocked[ri] = True
                        h = head[ri]
                        left = strict_left[h] - 1
                        strict_left[h] = left
                        if not left and not fact[h]:
                            mD[h] = True
                            append((h << 2) | _MD)
                    c = q ^ 1
                    if not md[q] and (not sd_left[q] or pD[c] or won[q]):
                        md[q] = True
                        append(step | _Md)
                    if not pd[c] and sd_supported[c] and not attackers[c]:  # +d (2.2) for ~q
                        pd[c] = True
                        append((c << 2) | _Pd)
            elif step & 2:  # +d q
                for ri in occ_at(q, ()):
                    left = partial_left[ri] - 1
                    partial_left[ri] = left
                    if left:
                        continue
                    h = head[ri]
                    # rule ri is supported, as for the empty bodies above
                    supported[ri] = True
                    t = h ^ 1
                    if is_sd[ri]:
                        sd_supported[h] = True
                        for s in beats_of(ri, ()):  # +d clause (2.3.2)
                            if not neutralized[s]:
                                neutralized[s] = True
                                attackers[h] -= 1
                        if not pd[h] and mD[t] and not attackers[h]:
                            pd[h] = True
                            append((h << 2) | _Pd)
                    if not superiors[ri]:  # -d clause (2.3)
                        won[t] = True
                        if mD[t] and not md[t]:
                            md[t] = True
                            append((t << 2) | _Md)
            else:  # +D q
                if not pd[q]:  # +d clause (1)
                    pd[q] = True
                    append(step | _Pd)
                for ri in strict_occ_at(q, ()):
                    left = delta_left[ri] - 1
                    delta_left[ri] = left
                    if not left:
                        h = head[ri]
                        if not pD[h]:
                            pD[h] = True
                            append(h << 2)
                c = q ^ 1
                if mD[c] and not md[c]:  # -d clause (2.2) for ~q
                    md[c] = True
                    append((c << 2) | _Md)

        # the one coherence and containment check of the run
        self.conclusions = ConclusionSet(g, self.status)


def derive_all(g: GroundTheory) -> ConclusionSet:
    """All tagged conclusions derivable from the theory over its base.

    Literals whose status is settled neither positively nor negatively at a
    level (circular support, for instance) simply carry no conclusion there.
    """
    return _Propagation(g).conclusions


def _position(g: GroundTheory, literal: Literal) -> Optional[int]:
    """The queried literal's table position, None when it is outside the
    table; a non-ground literal is a `GroundingError`."""
    if not literal.is_ground():
        raise GroundingError(f"queried literal {literal} is not ground")
    return g.position(literal)


def prove(g: GroundTheory, c: TaggedConclusion) -> bool:
    """Whether the conclusion is derivable.  A literal outside the table is
    -D and -d and nothing else, as the module docstring says."""
    q = _position(g, c.literal)
    if q is None:
        return c.tag in _OUTSIDE
    return _Propagation(g).status[_CODE[c.tag]][q]


@gc_paused
def explain(g: GroundTheory, c: TaggedConclusion) -> Derivation:
    """A derivation ending with `c`, built by backward-slicing the worklist
    run to the justification cone of `c`.  Effort-minimal, not length-minimal;
    always passes `check_derivation`.  The slice is one loop over a stack of
    packed steps, each step's inference rule written out in it; a premise s
    of the step at index `limit` in `order` has `at[s] < limit`, and a
    clause that fails takes the premises it pushed off the stack again.  A
    literal outside the table is -D outright, and -d by clause (2.1) after
    that, as in `prove`."""
    q = _position(g, c.literal)
    if q is None:
        if c.tag not in _OUTSIDE:
            raise NoDerivationError(f"{c} is not derivable")
        d = (TaggedConclusion(Tag.MINUS_DELTA, c.literal),)
        return d if c.tag is Tag.MINUS_DELTA else d + (c,)
    prop = _Propagation(g)
    if not prop.status[_CODE[c.tag]][q]:
        raise NoDerivationError(f"{c} is not derivable")
    order = prop.order
    at = [len(order)] * (4 * g.table_size)
    for i, s in enumerate(order):
        at[s] = i
    body, is_strict, is_sd, fact = prop.body, prop.is_strict, prop.is_sd, prop.fact
    rules_of, sup = g.rule_index.get, g.positions.superiority
    taken = bytearray(len(order))  # taken[i]: order[i] is in the derivation
    stack = [(q << 2) | _CODE[c.tag]]
    push, pop = stack.append, stack.pop
    while stack:
        step = pop()
        limit = at[step]
        if taken[limit]:
            continue
        taken[limit] = 1
        q, code = step >> 2, step & 3
        mark = len(stack)  # where this step's premises start
        if code == _PD:
            if fact[q]:
                continue
            for ri in rules_of(q, ()):
                if is_strict[ri]:
                    for a in body[ri]:
                        if at[a << 2] >= limit:
                            del stack[mark:]
                            break
                        push(a << 2)
                    else:
                        break
            else:
                raise InternalError(f"no justification for +D {g.literals[q]}")
        elif code == _MD:
            for ri in rules_of(q, ()):
                if is_strict[ri]:
                    for a in body[ri]:
                        if at[(a << 2) | _MD] < limit:
                            push((a << 2) | _MD)
                            break
                    else:
                        raise InternalError(f"no justification for -D {g.literals[q]}")
        elif code == _Pd:
            if at[q << 2] < limit:
                push(q << 2)
                continue
            for ri in rules_of(q, ()):
                if is_sd[ri]:
                    for a in body[ri]:
                        if at[(a << 2) | _Pd] >= limit:
                            del stack[mark:]
                            break
                        push((a << 2) | _Pd)
                    else:
                        break
            else:
                raise InternalError(f"no justification for +d {g.literals[q]}")
            push(((q ^ 1) << 2) | _MD)
            for s in rules_of(q ^ 1, ()):
                # each attacker is either discarded or counter-attacked by a
                # superior supportive rule
                for a in body[s]:
                    if at[(a << 2) | _Md] < limit:
                        push((a << 2) | _Md)
                        break
                else:
                    mark = len(stack)
                    for t in rules_of(q, ()):
                        if is_sd[t] and (t, s) in sup:
                            for a in body[t]:
                                if at[(a << 2) | _Pd] >= limit:
                                    del stack[mark:]
                                    break
                                push((a << 2) | _Pd)
                            else:
                                break
                    else:
                        raise InternalError(f"unneutralized attacker for +d {g.literals[q]}")
        else:
            push(step ^ 2)  # -D q
            if at[(q ^ 1) << 2] < limit:  # (2.2)
                push((q ^ 1) << 2)
                continue
            mark += 1
            for ri in rules_of(q, ()):  # (2.1)
                if is_sd[ri]:
                    for a in body[ri]:
                        if at[(a << 2) | _Md] < limit:
                            push((a << 2) | _Md)
                            break
                    else:
                        del stack[mark:]
                        break
            else:  # every supportive rule for q is discarded
                continue
            for s in rules_of(q ^ 1, ()):  # (2.3)
                for a in body[s]:
                    if at[(a << 2) | _Pd] >= limit:
                        del stack[mark:]
                        break
                    push((a << 2) | _Pd)
                else:
                    for t in rules_of(q, ()):
                        if is_sd[t] and (t, s) in sup:  # a supportive rule superior to s
                            for a in body[t]:
                                if at[(a << 2) | _Md] < limit:
                                    push((a << 2) | _Md)
                                    break
                            else:
                                del stack[mark:]
                                break
                    else:
                        break
            else:
                raise InternalError(f"no justification for -d {g.literals[q]}")
    # `tuple.__new__` builds each step without the named tuple's Python-level `__new__`
    tags, literals, new = tuple(Tag), g.literals, tuple.__new__
    return tuple(new(TaggedConclusion, (tags[s & 3], literals[s >> 2])) for s in compress(order, taken))


@gc_paused
def check_derivation(g: GroundTheory, d: Iterable[TaggedConclusion]) -> CheckResult:
    """Replay a derivation against the theory: every element must be justified
    by one of the four inference rules applied to the strict prefix before it.

    The replay keeps its own encoding of the rules and shares no state with
    the engine.  Each step's literal is located once, all in one call
    (`GroundTheory.locate`); a literal outside the table gets one more pair
    after it.  The prefix is four sets of positions, one per `Tag`, and a
    position's rules come from `GroundTheory.rule_index`, with the kind test
    of each inference rule made here.  A non-ground literal is a
    `GroundingError`, as in `prove` and `explain`."""
    steps = list(d)
    n = g.table_size
    outside: dict[Atom, int] = {}  # atom -> the position of its pair after the table
    at = g.locate(map(itemgetter(1), steps))  # each step's literal
    if None in at:  # every table literal is ground
        for k, (_, literal) in enumerate(steps):
            if at[k] is None:
                if not literal.is_ground():
                    raise GroundingError(f"derivation literal {literal} is not ground")
                at[k] = outside.setdefault(literal.atom, n + 2 * len(outside)) + (not literal.positive)
    pD, mD, pd, md = set(), set(), set(), set()
    # a body is supported when its +d literals are a subset of the prefix's,
    # and discarded unless its -d literals are disjoint from them
    D_proves, d_proves, D_open, d_open = pD.issuperset, pd.issuperset, mD.isdisjoint, md.isdisjoint
    (_, body, facts, sup), kinds = g.positions, g.kinds
    fact = bytearray(n + 2 * len(outside))
    for f in facts:
        fact[f] = 1
    rules_of = g.rule_index.get
    plus_delta, minus_delta, plus_partial, _ = Tag  # told apart by identity: a tag hashes in Python
    for i, (tag, _), q in zip(count(1), steps, at):
        rules = rules_of(q, ())
        if tag is plus_delta:
            ok, flags, why = fact[q], pD, "literal is not a fact and no strict rule is established"
            if not ok:
                for r in rules:
                    if kinds[r] is _STRICT and D_proves(body[r]):
                        ok = True
                        break
        elif tag is minus_delta:
            ok, flags, why = not fact[q], mD, "literal is a fact or some strict rule is unrefuted"
            if ok:
                for r in rules:
                    if kinds[r] is _STRICT and D_open(body[r]):
                        ok = False
                        break
        elif tag is plus_partial:
            ok, flags, why = q in pD, pd, "clause (1) and clause (2) both fail against the prefix"
            if not ok and q ^ 1 in mD:
                won = []  # the supportive rules for q that the prefix supports
                for r in rules:
                    if kinds[r] is not _DEFEATER and d_proves(body[r]):
                        won.append(r)
                ok = bool(won)
                for s in rules_of(q ^ 1, ()):  # each attacker discarded, or beaten by one of them
                    if d_open(body[s]) and sup.isdisjoint(zip(won, repeat(s))):
                        ok = False
                        break
        else:
            ok, flags, why = q in mD, md, "none of clauses (2.1)-(2.3) holds against the prefix"
            if ok and q ^ 1 not in pD:
                live = []  # the supportive rules for q that the prefix does not discard
                for r in rules:
                    if kinds[r] is not _DEFEATER and d_open(body[r]):
                        live.append(r)
                if live:  # else (2.1)
                    ok = False
                    for s in rules_of(q ^ 1, ()):  # (2.3): a supported attacker none of them beats
                        if d_proves(body[s]) and sup.isdisjoint(zip(live, repeat(s))):
                            ok = True
                            break
        if not ok:
            return CheckResult(index=i, reason=f"{steps[i - 1]}: {why}")
        flags.add(q)
    return CheckResult()
