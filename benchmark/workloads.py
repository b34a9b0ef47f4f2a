"""Seeded input generation and independent output references.

Every input is `.dl` text, so an operation pays for parsing exactly as
`dlog derive file.dl` does.  The expected conclusions come from closed forms
(the Maher et al. families) or from a plain graph search (reachability),
never from the program under test.

The families follow the scalable test theories of Maher, Rock, Antoniou,
Billington & Miller, "Efficient defeasible reasoning systems", IJAIT 2001.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

# Sizes: about 2k ground rules per family and 16 constants for reachability
# keep each operation near 0.15-0.2 s, so a run holds over a hundred samples
# and its 90th percentile has ten beyond it.  The small cross-check theories
# use the `dlog fuzz` defaults.
CHAIN_LINKS, CHAIN_ATTACKS = 1_800, 200
CIRCLE_RULES, CIRCLE_LOOPS = 2_000, 4
TEAMS_NODES = 500  # four rules per node
REACH_CONSTANTS, REACH_EDGES, REACH_BLOCKED = 16, 32, 16
SMALL_ATOMS, SMALL_RULES = 3, 10
MID_CHAIN_LINKS, MID_CHAIN_ATTACKS = 136, 14
MID_CIRCLE_RULES, MID_CIRCLE_LOOPS = 150, 2
MID_TEAMS_NODES = 38
XCHECK_BLOCK = 200  # one mid-size theory closes each block of cross-checks
XCHECK_BLOCKS = 40  # stream length; a run that gets further wraps around


@dataclass(frozen=True)
class Expected:
    """A full `dlog derive` answer: `TAG literal` lines plus the
    `literal (levels)` entries of the undefined section."""

    conclusions: frozenset[str]
    undefined: frozenset[str]


@dataclass(frozen=True)
class Op:
    """One operation of a workload's stream.

    `op` is derive, explain or xcheck; `kind` groups operations of equal cost
    and carries the mix weight.  `target` is the conclusion to explain;
    `models` selects the model-enumeration oracle for a cross-check.
    """

    op: str
    kind: str
    text: str
    expected: Optional[Expected] = None
    target: Optional[str] = None
    models: bool = True


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    first_pass: int  # operations in one pass through the rotation
    weights: dict[str, float]  # kind -> share of operations in the mix
    tail: float  # latency quantile printed as op_tail_ms; ten or more samples lie beyond it

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.op}\0{op.kind}\0{op.target}\0{op.models}\0".encode())
            h.update(op.text.encode())
        return h.hexdigest()


def _text(statements: list[str], rng: random.Random) -> str:
    rng.shuffle(statements)
    return "\n".join(statements) + "\n"


def _expected(plus_d: list[str], minus_d: list[str], minus_delta: list[str],
              plus_delta: list[str] = (), undefined: list[str] = ()) -> Expected:
    lines = [f"+D {l}" for l in plus_delta]
    lines += [f"-D {l}" for l in minus_delta]
    lines += [f"+d {l}" for l in plus_d]
    lines += [f"-d {l}" for l in minus_d]
    return Expected(frozenset(lines), frozenset(f"{l} (partial)" for l in undefined))


def chain(rng: random.Random, links: int, attacks: int) -> tuple[str, Expected, str]:
    """p0 => p1 => ... => pN with `attacks` seeded links attacked by an
    empty-bodied rule for ~pi that the chain rule beats.

    Closed form: +D p0; every pi is +d; every pi but p0 and every ~pi is -D;
    every ~pi is -d.
    """
    statements = ["p0."]
    statements += [f"c{i}: p{i - 1} => p{i}." for i in range(1, links + 1)]
    for i in rng.sample(range(1, links + 1), attacks):
        statements += [f"a{i}: => ~p{i}.", f"c{i} > a{i}."]
    p = [f"p{i}" for i in range(links + 1)]
    not_p = [f"~{x}" for x in p]
    expected = _expected(
        plus_d=p, minus_d=not_p, minus_delta=p[1:] + not_p, plus_delta=["p0"]
    )
    return _text(statements, rng), expected, f"+d p{links}"


def circle(rng: random.Random, rules: int, loops: int) -> tuple[str, Expected, str]:
    """`loops` disjoint cycles pa => pb of seeded lengths over `rules` atoms.

    Closed form: every pi is -D and undefined at the defeasible level; every
    ~pi is -D and -d.
    """
    cuts = sorted(rng.sample(range(1, rules), loops - 1))
    names = list(range(rules))
    rng.shuffle(names)
    statements = []
    for lo, hi in zip([0] + cuts, cuts + [rules]):
        ring = names[lo:hi]
        for j, a in enumerate(ring):
            statements.append(f"c{a}: p{a} => p{ring[(j + 1) % len(ring)]}.")
    p = [f"p{i}" for i in range(rules)]
    not_p = [f"~{x}" for x in p]
    expected = _expected(
        plus_d=[], minus_d=not_p, minus_delta=p + not_p, undefined=p
    )
    return _text(statements, rng), expected, f"-d ~p{rng.randrange(rules)}"


def teams(rng: random.Random, nodes: int) -> tuple[str, Expected, str]:
    """A 4-ary tree of disputed literals: every qk has two supporting and two
    attacking rules whose bodies are its children (empty at the leaves), and
    both supporters are superior to both attackers.

    Closed form: every qk is +d, every ~qk is -d, everything is -D.
    """
    names = [0] + rng.sample(range(1, nodes), nodes - 1)  # the root stays q0
    statements = []
    for k, n in enumerate(names):
        for j in range(1, 5):
            child = 4 * k + j
            body = f"q{names[child]} " if child < nodes else ""
            head = f"q{n}" if j <= 2 else f"~q{n}"
            statements.append(f"t{n}_{j}: {body}=> {head}.")
        statements += [f"t{n}_{s} > t{n}_{a}." for s in (1, 2) for a in (3, 4)]
    q = [f"q{i}" for i in range(nodes)]
    not_q = [f"~{x}" for x in q]
    expected = _expected(plus_d=q, minus_d=not_q, minus_delta=q + not_q)
    return _text(statements, rng), expected, "+d q0"


REACH_SCHEMAS = """\
r1: edge(X,Y) => reach(X,Y).
r2: reach(X,Y), edge(Y,Z) => reach(X,Z).
d1: blocked(X,Y) ~> ~reach(X,Y).
cyc: reach(X,X) => cyclic(X).
acyc: node(X) => ~cyclic(X).
cyc > acyc.
"""


def reach(rng: random.Random, constants: int, edges: int, blocked: int) -> tuple[str, Expected]:
    """Reachability over a seeded random graph, with a defeater that blocks
    seeded (source, target) pairs and a superiority statement between two
    1-variable schemas (cyc, acyc) with complementary heads.

    Reference: reach(x,y) is +d iff a breadth-first search from x over the
    edges reaches y without ever entering a blocked (x, target) pair; -d is
    the least fixpoint of "blocked, or no edge x->y and every predecessor w
    of y has reach(x,w) -d"; every other pair stays undefined (a positive
    loop).  cyclic(x) mirrors reach(x,x) and ~cyclic(x) mirrors its
    opposite.  Facts and their absence are +D/+d and -D/-d as usual.
    """
    n = constants
    c = [f"c{i}" for i in range(n)]
    edge_set = set(rng.sample([(x, y) for x in range(n) for y in range(n) if x != y], edges))
    blocked_set = set(rng.sample([(x, y) for x in range(n) for y in range(n)], blocked))
    facts = [f"node({c[x]})." for x in range(n)]
    facts += [f"edge({c[x]},{c[y]})." for x, y in edge_set]
    facts += [f"blocked({c[x]},{c[y]})." for x, y in blocked_set]
    text = _text(facts, rng) + REACH_SCHEMAS

    succ = {x: [] for x in range(n)}
    pred = {y: [] for y in range(n)}
    for x, y in edge_set:
        succ[x].append(y)
        pred[y].append(x)
    plus = set()
    for x in range(n):
        queue = deque([x])
        while queue:
            w = queue.popleft()
            for y in succ[w]:
                if (x, y) not in blocked_set and (x, y) not in plus:
                    plus.add((x, y))
                    queue.append(y)
    minus = set(blocked_set)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if (x, y) in minus or (x, y) in edge_set:
                    continue
                if all((x, w) in minus for w in pred[y]):
                    minus.add((x, y))
                    changed = True

    lines, undefined = [], []

    def fact_predicate(name, args, holds):
        atom = f"{name}({','.join(c[a] for a in args)})"
        lines.extend([f"-D ~{atom}", f"-d ~{atom}"])
        lines.extend([f"+D {atom}", f"+d {atom}"] if holds else [f"-D {atom}", f"-d {atom}"])

    def three_valued(atom, tag_plus, tag_minus, pair):
        if pair in plus:
            lines.append(f"{tag_plus} {atom}")
        elif pair in minus:
            lines.append(f"{tag_minus} {atom}")
        else:
            undefined.append(atom)

    for x in range(n):
        fact_predicate("node", (x,), True)
        cyclic = f"cyclic({c[x]})"
        lines.extend([f"-D {cyclic}", f"-D ~{cyclic}"])
        three_valued(cyclic, "+d", "-d", (x, x))
        three_valued(f"~{cyclic}", "-d", "+d", (x, x))
        for y in range(n):
            fact_predicate("edge", (x, y), (x, y) in edge_set)
            fact_predicate("blocked", (x, y), (x, y) in blocked_set)
            r = f"reach({c[x]},{c[y]})"
            lines.extend([f"-D {r}", f"-D ~{r}", f"-d ~{r}"])
            three_valued(r, "+d", "-d", (x, y))
    expected = Expected(frozenset(lines), frozenset(f"{l} (partial)" for l in undefined))
    return text, expected


def small_theory(rng: random.Random, max_atoms: int, max_rules: int) -> str:
    """A random propositional theory drawn like `dlog fuzz` draws them: up to
    `max_atoms` atoms, both signs, all three rule kinds, superiority only
    between conflicting heads and oriented by rule index (so acyclic)."""
    atoms = [f"p{i}" for i in range(rng.randint(1, max_atoms))]

    def literal() -> str:
        name = rng.choice(atoms)
        return name if rng.random() < 0.5 else f"~{name}"

    facts = []
    for _ in range(rng.randint(0, 2)):
        f = literal()
        if f not in facts:
            facts.append(f)
    rules = []
    for i in range(rng.randint(0, max_rules)):
        arrow = rng.choice(("->", "=>", "~>"))
        body = []
        for _ in range(rng.randint(0, 2)):
            a = literal()
            if a not in body:
                body.append(a)
        rules.append((f"r{i}", arrow, body, literal()))
    lines = [f"{f}." for f in facts]
    lines += [f"{label}: {', '.join(body)}{' ' if body else ''}{arrow} {head}."
              for label, arrow, body, head in rules]
    for i, (hi, _, _, hi_head) in enumerate(rules):
        for lo, _, _, lo_head in rules[i + 1:]:
            if hi_head.lstrip("~") == lo_head.lstrip("~") and hi_head != lo_head \
                    and rng.random() < 0.4:
                lines.append(f"{hi} > {lo}.")
    return "\n".join(lines) + "\n"


def families(seed: int) -> Workload:
    """Seeded rotation of derive and explain over chain, circle and teams."""
    rng = random.Random(seed)
    built = {
        "chain": chain(rng, CHAIN_LINKS, CHAIN_ATTACKS),
        "circle": circle(rng, CIRCLE_RULES, CIRCLE_LOOPS),
        "teams": teams(rng, TEAMS_NODES),
    }
    ops = []
    for family, (text, expected, target) in built.items():
        ops.append(Op("derive", f"derive-{family}", text, expected))
        ops.append(Op("explain", f"explain-{family}", text, expected, target))
    rng.shuffle(ops)
    return Workload(tuple(ops), len(ops), {op.kind: 1 / len(ops) for op in ops}, 0.9)


def reach_workload(seed: int) -> Workload:
    text, expected = reach(random.Random(seed), REACH_CONSTANTS, REACH_EDGES, REACH_BLOCKED)
    return Workload((Op("derive", "derive-reach", text, expected),), 1, {"derive-reach": 1.0}, 0.9)


def crosscheck(seed: int) -> Workload:
    """A fixed stream of compare_semantics calls: blocks of XCHECK_BLOCK - 1
    small theories on all three semantics, each closed by one ~150-rule
    family theory checked engine against metaprogram only."""
    rng = random.Random(seed)
    mids = [
        ("mid-chain", chain(rng, MID_CHAIN_LINKS, MID_CHAIN_ATTACKS)[0]),
        ("mid-circle", circle(rng, MID_CIRCLE_RULES, MID_CIRCLE_LOOPS)[0]),
        ("mid-teams", teams(rng, MID_TEAMS_NODES)[0]),
    ]
    ops = []
    for block in range(XCHECK_BLOCKS):
        ops += [Op("xcheck", "small", small_theory(rng, SMALL_ATOMS, SMALL_RULES))
                for _ in range(XCHECK_BLOCK - 1)]
        kind, text = mids[block % len(mids)]
        ops.append(Op("xcheck", kind, text, models=False))
    weights = {"small": (XCHECK_BLOCK - 1) / XCHECK_BLOCK}
    weights.update({kind: 1 / (XCHECK_BLOCK * len(mids)) for kind, _ in mids})
    return Workload(tuple(ops), XCHECK_BLOCK, weights, 0.95)


WORKLOADS = {"families": families, "reach": reach_workload, "crosscheck": crosscheck}
