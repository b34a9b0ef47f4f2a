"""`engine.explain` and `engine.check_derivation` give what they gave when
each sliced step was a Python call.

`reference_explain`, `reference_justify` and `reference_check_derivation`
are those versions, kept as they were but for their names and for reading
the table and the target's position from the ground theory: the slice called
`reference_justify` per step, which built a closure and looked R[q] up
through `GroundTheory.rules_at`, and the replay located each literal with
`GroundTheory.position` and tested rule kinds and bodies with generator
expressions.  Over the checker's corpus, the bird fixture and the
benchmark's `families` texts, the derivations are equal, and so are the
verdicts (index and reason) on each derivation with a step dropped, with two
adjacent steps swapped and with a tag flipped, and on the whole run with a
conclusion the engine does not draw appended."""

from collections import Counter
from typing import Iterable

import pytest

from dlog.core import (
    _CODE,
    Atom,
    GroundTheory,
    GroundingError,
    InternalError,
    RuleKind,
    Tag,
    TaggedConclusion,
    gc_paused,
    ground,
)
from dlog.engine import (
    _MD,
    _PD,
    CheckResult,
    Derivation,
    NoDerivationError,
    _Md,
    _Pd,
    _Propagation,
    check_derivation,
    derive_all,
    explain,
)
from dlog.parser import parse_conclusion, parse_theory
from test_engine import at_most, checker_corpus
from test_grounding import benchmark_texts, benchmark_workloads


@gc_paused
def reference_explain(g: GroundTheory, c: TaggedConclusion) -> Derivation:
    """A derivation ending with `c`, built by backward-slicing the worklist
    run to the justification cone of `c`.  Effort-minimal, not length-minimal;
    always passes `check_derivation`."""
    q = g.position(c.literal)
    prop = _Propagation(g)
    if not prop.status[_CODE[c.tag]][q]:
        raise NoDerivationError(f"{c} is not derivable")
    order = prop.order
    # at[s]: the index in `order` of the packed step s, or len(order) when
    # the run never established it
    at = [len(order)] * (4 * g.table_size)
    for i, s in enumerate(order):
        at[s] = i
    needed = bytearray(len(at))
    stack = [(q << 2) | _CODE[c.tag]]
    while stack:
        step = stack.pop()
        if not needed[step]:
            needed[step] = 1
            stack.extend(reference_justify(g, prop, at, step))
    # `tuple.__new__` builds each step without the named tuple's Python-level `__new__`
    tags, literals, new = tuple(Tag), g.literals, tuple.__new__
    return tuple(new(TaggedConclusion, (tags[s & 3], literals[s >> 2])) for s in order if needed[s])


def reference_justify(g: GroundTheory, prop: _Propagation, at: list[int], step: int) -> list[int]:
    """Premises (earlier steps of the run, packed) justifying one established
    step.  R[q] is `g.rules_at(q)`."""
    code, q = step & 3, step >> 2
    limit = at[step]

    def before(c: int, l: int) -> bool:
        return at[(l << 2) | c] < limit

    body, is_strict, is_sd, rules_at = prop.body, prop.is_strict, prop.is_sd, g.rules_at
    sup = g.positions.superiority
    if code == _PD:
        if prop.fact[q]:
            return []
        for ri in rules_at(q):
            if is_strict[ri] and all(before(_PD, a) for a in body[ri]):
                return [(a << 2) | _PD for a in body[ri]]
        raise InternalError(f"no justification for +D {g.literals[q]}")
    if code == _MD:
        premises = []
        for ri in rules_at(q):
            if not is_strict[ri]:
                continue
            witness = next((a for a in body[ri] if before(_MD, a)), None)
            if witness is None:
                raise InternalError(f"no justification for -D {g.literals[q]}")
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
            raise InternalError(f"no justification for +d {g.literals[q]}")
        premises.append((comp_q << 2) | _MD)
        for s in rules_at(comp_q):
            # each attacker is either discarded or counter-attacked by a
            # superior supportive rule
            w = next((a for a in body[s] if before(_Md, a)), None)
            if w is not None:
                premises.append((w << 2) | _Md)
                continue
            for t in rules_at(q):
                if is_sd[t] and (t, s) in sup and all(before(_Pd, a) for a in body[t]):
                    premises.extend((a << 2) | _Pd for a in body[t])
                    break
            else:
                raise InternalError(
                    f"unneutralized attacker for +d {g.literals[q]}"
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
            if not (is_sd[t] and (t, s) in sup):
                continue  # t is not a supportive rule superior to s
            w = next((a for a in body[t] if before(_Md, a)), None)
            if w is None:
                counter = None
                break
            counter.append((w << 2) | _Md)
        if counter is not None:
            return premises + [(a << 2) | _Pd for a in body[s]] + counter
    raise InternalError(f"no justification for -d {g.literals[q]}")


@gc_paused
def reference_check_derivation(g: GroundTheory, d: Iterable[TaggedConclusion]) -> CheckResult:
    """Replay a derivation against the theory: every element must be justified
    by one of the four inference rules applied to the strict prefix before it.

    The replay keeps its own encoding of the rules and shares no state with
    the engine.  Each step's literal is located once (`GroundTheory.position`);
    a literal outside the table gets one more pair after it.  The prefix is
    four flag arrays over positions, one per `Tag`, and a position's rules
    come from `GroundTheory.rules_at`, with the kind test of each inference
    rule made here.  A non-ground literal is a `GroundingError`, as in
    `prove` and `explain`."""
    steps = list(d)
    n = g.table_size
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
    kinds = g.kinds
    sup = positions.superiority

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
                        supported(t) and (t, s) in sup for t in sd
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
                        discarded(t) or (t, s) not in sup
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


def mutations(d: Derivation, k: int):
    """At most k each of: `d` with one step dropped, with two adjacent steps
    swapped, and with one step's tag flipped (+ to -, - to +)."""
    tags = tuple(Tag)
    for i in at_most(range(len(d)), k):
        yield d[:i] + d[i + 1:]
    for i in at_most(range(len(d) - 1), k):
        yield d[:i] + (d[i + 1], d[i]) + d[i + 2:]
    for i in at_most(range(len(d)), k):
        yield d[:i] + (TaggedConclusion(tags[_CODE[d[i].tag] ^ 1], d[i].literal),) + d[i + 1:]


def assert_same(g: GroundTheory, targets, k: int, extras: int, counts: Counter) -> None:
    """Equal derivations of `targets` and equal verdicts on each and on at
    most k of each mutation of each, and on the whole run with at most
    `extras` underived conclusions appended; `counts` tallies derivations
    and the verdicts, accepted and rejected."""
    for target in targets:
        d = explain(g, target)
        assert d == reference_explain(g, target), target
        counts["explained"] += 1
        for tampered in (d, *mutations(d, k)):
            result = check_derivation(g, tampered)
            assert result == reference_check_derivation(g, tampered), tampered
            counts["accepted" if result else "rejected"] += 1
    tags = tuple(Tag)
    prop = _Propagation(g)
    run = [TaggedConclusion(tags[s & 3], g.literals[s >> 2]) for s in prop.order]
    derived = prop.conclusions
    underived = (TaggedConclusion(tag, literal) for literal in g.literals for tag in Tag)
    for extra in at_most((x for x in underived if x not in derived), extras):
        result = check_derivation(g, run + [extra])
        assert result == reference_check_derivation(g, run + [extra]), extra
        assert result.index == len(run) + 1
        counts["rejected"] += 1


@pytest.mark.parametrize("family", ["propositional", "first-order"])
def test_checker_corpus_matches_reference(family):
    counts = Counter()
    for g in checker_corpus(family):
        assert_same(g, at_most(derive_all(g), 25), 2, 3, counts)
    assert counts["explained"] > 1000 and counts["accepted"] > 2000 and counts["rejected"] > 2000, counts


def test_bird_matches_reference(bird):
    counts = Counter()
    assert_same(bird, list(derive_all(bird)), 100, 100, counts)
    assert counts["explained"] == 40 and counts["accepted"] > 50 and counts["rejected"] > 100, counts


@pytest.mark.parametrize("name", ["chain", "circle", "teams"])
def test_families_match_reference(name):
    texts = benchmark_texts()
    counts = Counter()
    for seed in (1, 1009):
        g = ground(parse_theory(texts[f"{name}-{seed}"]))
        target, = (parse_conclusion(op.target) for op in benchmark_workloads().families(seed).ops
                   if op.op == "explain" and op.kind == f"explain-{name}")
        assert_same(g, [target, *at_most(derive_all(g), 8)], 3, 2, counts)
    assert counts["explained"] == 18 and counts["rejected"] > 20, counts
