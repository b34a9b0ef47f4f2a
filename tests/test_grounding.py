"""Relevance grounding against the naive reference grounding.

`naive_ground` instantiates every schema over all assignments of the
constants and expands each superiority statement to the cross product of the
instances of its two schemas.  `core.ground` builds only the instances whose
body can hold and keeps only the superiority pairs with conflicting heads.
The two must agree on validation and on every conclusion.
"""

import gc
import io
import itertools
import random
import re
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

from dlog import cli, engine, metaprogram, modelcheck
from dlog.core import (
    GroundingError,
    GroundTheory,
    Literal,
    Positions,
    Rule,
    RuleKind,
    SourceTheory,
    ValidationError,
    ground,
    is_variable,
    lit,
    validate,
)
from dlog.differential import generate_random_theory
from dlog.parser import parse_theory, render_theory

ROOT = Path(__file__).resolve().parent.parent


def substitute(literal: Literal, binding: dict[str, str]) -> Literal:
    """The literal with each variable bound in `binding` replaced by its constant."""
    return lit(literal.atom.predicate, *(binding.get(t, t) for t in literal.atom.args), positive=literal.positive)


class Reference(NamedTuple):
    """The naive grounding written out: every instance as a `Rule` with the
    label of its schema, the base sorted by text, and the ground theory whose
    columns hold them."""

    instances: tuple[Rule, ...]
    schema_labels: tuple[str, ...]
    table: tuple[Literal, ...]
    theory: GroundTheory


def naive_reference(theory: SourceTheory) -> Reference:
    """Every schema over `constants^vars`, superiority as the cross product of
    the instance indexes of each statement's two schemas, and the base of
    every written signature over the constants, sorted by text.  Positions
    are looked up in a dict over that table, and each signature's offset is
    the position of its first literal there."""
    constants = sorted(theory.constants)
    instances: list[Rule] = []
    schema_of: list[int] = []
    bindings: list[tuple[int, ...]] = []
    instances_of: dict[str, list[int]] = {}  # a schema label -> the indexes of its instances
    for s, schema in enumerate(theory.rules):
        variables = schema.variables
        if variables and not constants:
            raise GroundingError(
                f"rule {schema.label} has variables but the theory has no constants"
            )
        indexes = instances_of.setdefault(schema.label, [])
        for values in itertools.product(range(len(constants)), repeat=len(variables)):
            assignment = [constants[i] for i in values]
            binding = dict(zip(variables, assignment))
            indexes.append(len(instances))
            schema_of.append(s)
            bindings.append(values)
            instances.append(
                Rule(
                    label=f"{schema.label}#{','.join(assignment)}" if variables else schema.label,
                    kind=schema.kind,
                    body=tuple(substitute(l, binding) for l in schema.body),
                    head=substitute(schema.head, binding),
                )
            )
    expanded = {
        (a, b)
        for hi, lo in theory.superiority
        for a in instances_of.get(hi, ())
        for b in instances_of.get(lo, ())
    }
    signatures = {(l.atom.predicate, l.atom.arity) for l in theory.literals}
    positives = sorted(
        (lit(predicate, *args) for predicate, arity in signatures for args in itertools.product(constants, repeat=arity)),
        key=str,
    )
    table = tuple(l for q in positives for l in (q, q.complement()))
    index = {l: i for i, l in enumerate(table)}
    offsets: dict[tuple[str, int], int] = {}
    for i, q in enumerate(table):
        offsets.setdefault((q.atom.predicate, q.atom.arity), i)
    facts = frozenset(theory.facts)
    g = GroundTheory(
        source=theory,
        constants=frozenset(constants),
        offsets=offsets,
        positions=Positions(
            tuple(index[r.head] for r in instances),
            tuple(tuple(index[a] for a in r.body) for r in instances),
            tuple(index[f] for f in facts),
            frozenset(expanded),
        ),
        schema_of=tuple(schema_of),
        bindings=tuple(bindings),
        kinds=tuple(r.kind for r in instances),
    )
    labels = tuple(theory.rules[s].label for s in schema_of)
    return Reference(tuple(instances), labels, table, g)


def naive_ground(theory: SourceTheory) -> GroundTheory:
    """The naive grounding as a ground theory (see `naive_reference`)."""
    return naive_reference(theory).theory


CONSTANTS = ("a", "b", "c", "d", "e", "f")
VARIABLES = ("X", "Y", "Z")
PREDICATES = ("p", "q", "r", "s")


def random_first_order_theory(seed: int, constants: tuple[int, int] = (1, 3), max_arity: int = 2) -> SourceTheory:
    """A small theory with variables, fully determined by the seed: between
    `constants[0]` and `constants[1]` constants (at most 6), predicates of
    arity 0 to `max_arity`, both signs, all three rule kinds, head-only
    variables, and superiority statements between random labels (cycles
    included, so validation can fail).  Written as text and parsed."""
    rng = random.Random(seed)
    constants = CONSTANTS[: rng.randint(*constants)]
    arity = {p: rng.randint(0, max_arity) for p in PREDICATES[: rng.randint(2, 4)]}

    def literal(terms):
        predicate = rng.choice(sorted(arity))
        args = tuple(rng.choice(terms) for _ in range(arity[predicate]))
        return lit(predicate, *args, positive=rng.random() < 0.6)

    # every constant is written somewhere, so schemas can always be grounded
    facts = {lit("dom", c) for c in constants}
    facts.update(literal(constants) for _ in range(rng.randint(0, 4)))
    lines = [f"{f}." for f in sorted(facts)]
    labels = []
    for i in range(rng.randint(1, 6)):
        terms = constants + VARIABLES[: rng.randint(1, 3)]
        body = tuple(literal(terms) for _ in range(rng.randint(0, 2)))
        labels.append(f"r{i}")
        lines.append(str(Rule(labels[i], rng.choice(list(RuleKind)), body, literal(terms))))
    lines += [f"{rng.choice(labels)} > {rng.choice(labels)}." for _ in range(rng.randint(0, 3))]
    return parse_theory("\n".join(lines) + "\n")


def outcome(grounder, theory):
    """The grounding, or the text of the error grounding or validation raised."""
    try:
        g = grounder(theory)
        validate(g)
    except (GroundingError, ValidationError) as e:
        return None, f"{type(e).__name__}: {e}"
    return g, None


def is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(any(x == y for y in rest) for x in short)


THEORIES = 2000
LARGE_THEORIES = 300  # 4-6 constants and arity up to 3, so a join column is up to 6 long


def assert_matches_naive_grounding(theory: SourceTheory, seed: int) -> tuple[bool, int]:
    """`ground` against `naive_ground` on one theory: the same validation
    outcome and, when it validates, exactly the instances whose bodies can
    hold, column by column, and the same conclusions.  Returns whether the
    theory validated and how many naive instances were pruned."""
    naive, naive_error = outcome(naive_ground, theory)
    g, error = outcome(ground, theory)
    context = render_theory(theory)
    assert error == naive_error, context
    if error is not None:
        return False, 0
    reference = naive_reference(theory)
    # the columns build the written-out instances and table
    assert naive.rules == reference.instances, context
    assert naive.literals == reference.table, context
    assert is_subsequence(g.rules, naive.rules), context
    # exactly the instances whose body literals are all facts or heads of
    # strict and defeasible instances, column by column
    live = set(naive.source.facts) | {r.head for r in naive.rules if r.kind is not RuleKind.DEFEATER}
    kept = [i for i, r in enumerate(reference.instances) if all(b in live for b in r.body)]
    assert g.rules == tuple(reference.instances[i] for i in kept), context
    assert g.literals == reference.table, context
    assert list(g.offsets.items()) == list(naive.offsets.items()), context
    heads, bodies, facts, sup = g.positions
    assert heads == tuple(naive.positions.heads[i] for i in kept), context
    assert bodies == tuple(naive.positions.bodies[i] for i in kept), context
    assert sorted(facts) == sorted(naive.positions.facts), context
    assert g.kinds == tuple(reference.instances[i].kind for i in kept), context
    assert g.bindings == tuple(naive.bindings[i] for i in kept), context
    assert g.source.rules == naive.source.rules and g.schema_of == tuple(naive.schema_of[i] for i in kept), context
    assert [g.source.rules[s].label for s in g.schema_of] == [reference.schema_labels[i] for i in kept], context
    # the pairs of the cross product whose instances are kept and whose heads conflict
    kept_at = {i: k for k, i in enumerate(kept)}
    assert sup == {
        (kept_at[a], kept_at[b])
        for a, b in naive.positions.superiority
        if a in kept_at and b in kept_at and naive.positions.heads[a] ^ 1 == naive.positions.heads[b]
    }, context
    heads = {r.label: r.head for r in g.rules}
    assert g.superiority == {
        (hi, lo)
        for hi, lo in naive.superiority
        if hi in heads and lo in heads and heads[hi] == heads[lo].complement()
    }, context
    conclusions = engine.derive_all(g)
    assert conclusions == engine.derive_all(naive), context
    assert metaprogram.conclusions(g) == conclusions, context
    rng = random.Random(seed)
    for c in rng.sample(list(conclusions), min(2, len(conclusions))):
        assert engine.check_derivation(g, engine.explain(g, c)).valid, (context, c)
    return True, len(naive.rules) - len(g.rules)


def test_relevance_grounding_matches_naive_grounding():
    checked = pruned = 0
    for seed in range(THEORIES):
        ok, dropped = assert_matches_naive_grounding(random_first_order_theory(seed), seed)
        checked += ok
        pruned += dropped
    # the corpus exercises both validation outcomes and the pruning
    assert 0 < checked < THEORIES
    assert pruned > 0


def shapes(theory: SourceTheory) -> set[str]:
    """The join shapes a theory's schemas hold: a variable repeated in one
    literal, a head-only variable, a literal with constants and variables,
    and two body literals of one signature."""
    found = set()
    for r in theory.rules:
        literals = (*r.body, r.head)
        if any(len(l.variables) < sum(map(is_variable, l.atom.args)) for l in literals):
            found.add("repeated")
        if set(r.head.variables) - {v for l in r.body for v in l.variables}:
            found.add("head-only")
        if any(l.variables and not all(map(is_variable, l.atom.args)) for l in literals):
            found.add("mixed")
        signatures = [(l.positive, l.atom.predicate, l.atom.arity) for l in r.body if l.variables]
        if len(set(signatures)) < len(signatures):
            found.add("same-signature")
    return found


def test_relevance_grounding_matches_naive_grounding_at_real_sizes():
    # the join's columns run along 4-6 constants, over atoms of up to 3
    # arguments, and every join shape occurs in theories that validate
    checked = pruned = 0
    seen: Counter = Counter()
    for seed in range(LARGE_THEORIES):
        theory = random_first_order_theory(seed, constants=(4, 6), max_arity=3)
        ok, dropped = assert_matches_naive_grounding(theory, seed)
        checked += ok
        pruned += dropped
        if ok:
            seen.update(shapes(theory))
    assert 0 < checked < LARGE_THEORIES
    assert pruned > 0
    assert set(seen) == {"repeated", "head-only", "mixed", "same-signature"}, seen


def test_pruning_keeps_the_models():
    # a pruned instance is discarded in every model, so the model set is the
    # same; checked where enumeration is cheap (at most 4 base literals)
    pruned = 0
    for seed in range(400):
        theory = generate_random_theory(seed, max_atoms=2, max_rules=8)
        naive, g = naive_ground(theory), ground(theory)
        pruned += len(g.rules) < len(naive.rules)
        assert modelcheck.count_models(g) == modelcheck.count_models(naive), render_theory(theory)
    assert pruned > 0


def test_positive_loop_is_kept():
    # p matches its own head, so r survives and p stays undefined at the
    # defeasible level instead of turning into -d p
    g = ground(parse_theory("r: p => p."))
    assert [r.label for r in g.rules] == ["r"]
    assert g.rules == naive_ground(parse_theory("r: p => p.")).rules


@pytest.mark.parametrize(
    "text, labels",
    [
        ("e: => q(X,X). r: q(a,b) => t. s: q(a,a) => u.", ["e#a", "e#b", "s"]),
        ("q(a,a). q(a,b). q(b,a). r: q(X,X) => t(X).", ["r#a"]),
        ("h: => q(a). r: q(X) => t(X).", ["h", "r#a"]),
        ("h: => ~q. r: q => t. s: ~q => u.", ["h", "s"]),
        ("d: ~> p. r: p => q.", ["d"]),
        ("p(a). e(a,b). r: p(X), e(X,Y), s(Y) => s(X). f: => s(b).", ["r#a,b", "f"]),
        # the join binds every body variable, so its rows are taken as one
        # column: the dead h(a) drops the row (a,b), and Z, in the head only,
        # ranges over the constants after
        ("e(a,b). e(b,c). t: => h(b). r: e(X,Y), h(X) => s(X,Z).", ["t", "r#b,c,a", "r#b,c,b", "r#b,c,c"]),
    ],
    ids=["repeated-variable", "repeated-variable-fact", "constant", "sign", "defeater-head", "join", "rows-as-column"],
)
def test_dead_body_literals_are_pruned(text, labels):
    # a body literal is live when it is a fact or matches a strict or
    # defeasible head, respecting constants, repeated variables and sign
    theory = parse_theory(text)
    g = ground(theory)
    assert [r.label for r in g.rules] == labels
    assert engine.derive_all(g) == engine.derive_all(naive_ground(theory))


def reach_theory(n_constants: int, edges, blocked) -> str:
    c = [f"c{i:03d}" for i in range(n_constants)]
    lines = [f"node({x})." for x in c]
    lines += [f"edge({c[x]},{c[y]})." for x, y in edges]
    lines += [f"blocked({c[x]},{c[y]})." for x, y in blocked]
    lines += [
        "r1: edge(X,Y) => reach(X,Y).",
        "r2: reach(X,Y), edge(Y,Z) => reach(X,Z).",
        "d1: blocked(X,Y) ~> ~reach(X,Y).",
        "cyc: reach(X,X) => cyclic(X).",
        "acyc: node(X) => ~cyclic(X).",
        "cyc > acyc.",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [5, 201])
def test_reachability_instance_count(n):
    # r1 per edge, r2 per constant and edge, d1 per blocked pair, cyc and
    # acyc per constant: |E| + |C|.|E| + |B| + 2|C|, against |C|^3 for r2 alone
    rng = random.Random(n)
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    edges = rng.sample(pairs, n // 2)
    blocked = rng.sample(pairs, n // 2)
    g = ground(parse_theory(reach_theory(n, edges, blocked)))
    assert len(g.rules) == len(edges) + n * len(edges) + len(blocked) + 2 * n
    # cyc > acyc leaves one effective pair per constant
    assert len(g.superiority) == n


def benchmark_workloads():
    """The benchmark's input generators (`benchmark/workloads.py`)."""
    if str(ROOT / "benchmark") not in sys.path:
        sys.path.append(str(ROOT / "benchmark"))
    import workloads

    return workloads


def ground_calls(n: int) -> int:
    """The Python frames `ground` runs on the benchmark's reachability theory
    over n constants, 2n edges and n blocked pairs: the "call" events of
    `sys.setprofile`, where a generator's every resumption is one."""
    theory = parse_theory(benchmark_workloads().reach(random.Random(1), n, 2 * n, n)[0])
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        ground(theory)
    finally:
        sys.setprofile(None)
    return calls


def test_ground_frames_follow_bindings_not_assignments():
    # doubling the constants doubles the edges, the fact join's rows and the
    # columns, while r2's assignments grow 4x (|C| * |E|): no Python frame
    # may run per assignment or per instance
    small, large = ground_calls(16), ground_calls(32)
    assert large <= 2.2 * small, (small, large)


def benchmark_texts() -> dict[str, str]:
    """The `families` and `reach` texts of the benchmark for its default and
    hold-out seeds, by name."""
    workloads = benchmark_workloads()
    texts = {}
    for seed in (1, 1009):
        for op in workloads.families(seed).ops:
            if op.op == "derive":
                texts[f"{op.kind.removeprefix('derive-')}-{seed}"] = op.text
        texts[f"reach-{seed}"] = workloads.reach_workload(seed).ops[0].text
    return texts


def assert_positions_are_table_lookups(theory: SourceTheory, context) -> None:
    """The positions `ground` hands over are a table lookup of every rule's
    head and body and of every fact.  Each rule is checked against its schema
    with the instance label's constants substituted, so that positions and
    literals cannot be wrong together; an instance's literals are the table's
    own objects, `position` and `locate` find every base literal and no
    other, and `rules_at` is R[q] at every position (`assert_rules_at_scans`)."""
    g = ground(theory)
    index = {l: i for i, l in enumerate(g.literals)}
    assert len(index) == len(g.literals), context
    schemas = {schema.label: schema for schema in theory.rules}
    positions = g.positions
    for r, head, body in zip(g.rules, positions.heads, positions.bodies, strict=True):
        label, _, values = r.label.partition("#")
        schema = schemas[label]
        binding = dict(zip(schema.variables, values.split(",") if values else ()))
        expected = Rule(r.label, schema.kind, tuple(substitute(l, binding) for l in schema.body), substitute(schema.head, binding))
        assert r == expected, context
        assert head == index[expected.head], context
        assert body == tuple(index[a] for a in expected.body), context
        if values:  # an instance, not a variable-free schema
            assert r.head is g.literals[head], context
            assert all(a is g.literals[at] for a, at in zip(r.body, body)), context
    assert sorted(positions.facts) == sorted(index[f] for f in g.source.facts), context
    assert all(g.position(l) == i for l, i in index.items()), context
    outside = [lit("no_such_predicate"), lit("no_such_constant", "zz")]
    outside += [lit(q.atom.predicate, *q.atom.args, "a") for q in g.literals[:2]]  # one more argument
    assert [g.position(l) for l in outside] == [None] * len(outside), context
    assert g.locate(outside + list(g.literals)) == [None] * len(outside) + list(range(len(g.literals))), context
    assert_rules_at_scans(g, context)


def assert_rules_at_scans(g: GroundTheory, context) -> None:
    """`g.rules_at(j)` is what a scan of `g.rules` finds for the head
    `g.literals[j]`, in order, at every position, and no rules are past the
    table.  One scan groups the rules by head literal, not by position."""
    scan: dict = {}
    for ri, r in enumerate(g.rules):
        scan.setdefault(r.head, []).append(ri)
    for j, q in enumerate(g.literals):
        assert g.rules_at(j) == scan.get(q, []), (context, q)
    assert g.rules_at(len(g.literals)) == [], context


def test_ground_positions_are_table_lookups(bird_text):
    assert_positions_are_table_lookups(parse_theory(bird_text), "bird")
    for name, text in benchmark_texts().items():
        assert_positions_are_table_lookups(parse_theory(text), name)


def test_ground_positions_on_first_order_theories():
    # repeated variables, constants inside schema arguments, and bodies such
    # as p(X), p(Y) that collapse when X = Y
    collapsed = 0
    for seed in range(THEORIES):
        theory = random_first_order_theory(seed)
        try:
            g = ground(theory)
        except GroundingError:
            continue
        assert_positions_are_table_lookups(theory, render_theory(theory))
        collapsed += sum(
            len(r.body) < len(schema.body)
            for schema in theory.rules
            for r in g.rules
            if r.label.partition("#")[0] == schema.label
        )
    assert collapsed > 0


_ARROW_KIND = {"->": RuleKind.STRICT, "=>": RuleKind.DEFEASIBLE, "~>": RuleKind.DEFEATER}
_LITERAL = re.compile(r"(~?)([a-z]\w*)(?:\(([^)]*)\))?")


def object_parse(text: str) -> tuple:
    """The facts, rules and superiority statements of a well-formed text as
    objects, statement by statement: a `Literal` per occurrence and a `Rule`
    per rule, whose constructor deduplicates the body, and unlabeled rules
    labelled `_r1`, `_r2`, ... in order.  A reference for the parser's views,
    sharing none of its code."""
    def literal(match) -> Literal:
        sign, name, args = match.groups()
        return lit(name, *(a.strip() for a in args.split(",")) if args else (), positive=not sign)

    facts, rules, superiority = [], [], []
    for statement in re.findall(r"([^.]*)\.", re.sub(r"%[^\n]*", "", text)):
        if m := re.fullmatch(r"\s*([a-z]\w*)\s*>\s*([a-z]\w*)\s*", statement):
            superiority.append(m.groups())
        elif m := re.fullmatch(r"\s*(?:([a-z]\w*)\s*:)?(.*?)(->|=>|~>)(.*)", statement, re.S):
            label, body, arrow, head = m.groups()
            label = label or f"_r{sum(r.label.startswith('_r') for r in rules) + 1}"
            body = [literal(b) for b in _LITERAL.finditer(body)]
            rules.append(Rule(label, _ARROW_KIND[arrow], body, literal(_LITERAL.search(head))))
        else:
            facts.append(literal(_LITERAL.search(statement)))
    return tuple(facts), tuple(rules), tuple(superiority)


# written duplicates in bodies, comments, unlabeled rules and negation, which
# no rendered theory holds
HANDWRITTEN = """% a comment
p. q(a). ~r.
s: p, q(a), p => t.   % p twice
p, ~r, p, ~r -> u(b).
v: q(X), q(X), ~r ~> ~u(X).
s > v.
"""


def producer_corpus() -> dict[str, str]:
    """Texts by name: the bird fixture, the benchmark texts, a handwritten
    one, and the renders of 500 random propositional theories and of 300
    first-order ones over 1-6 constants."""
    texts = {"bird": (ROOT / "tests" / "fixtures" / "bird.dl").read_text(), "handwritten": HANDWRITTEN}
    texts.update(benchmark_texts())
    texts.update(
        (f"random-{seed}", render_theory(generate_random_theory(seed, max_atoms=4, max_rules=8))) for seed in range(500)
    )
    texts.update(
        (f"first-order-{seed}", render_theory(random_first_order_theory(seed, constants=(1, 6), max_arity=3)))
        for seed in range(300)
    )
    return texts


def test_source_views_are_the_objects_the_text_writes():
    # the parser hands over columns; its views rebuild the objects that
    # parsing statement by statement gives, with equal literals one object
    for name, text in producer_corpus().items():
        t = parse_theory(text)
        assert (t.facts, t.rules, t.superiority) == object_parse(text), name
        literals = [*t.facts, *(l for r in t.rules for l in (*r.body, r.head))]
        assert len({id(l) for l in literals}) == len(set(literals)), name
    g = ground(parse_theory(HANDWRITTEN))
    assert [len(body) for body in g.positions.bodies] == [2, 2, 2]  # q(X), q(X) is one literal
    assert len(g.positions.facts) == 3


@pytest.mark.parametrize("name", ["bird", "chain-1", "circle-1", "teams-1", "reach-1"])
def test_derive_path_builds_no_rule(bird_text, name):
    # parse, ground, validate, derive and both renders read columns only:
    # no `Rule` is built, and the source's `rules` view is never read
    text = bird_text if name == "bird" else benchmark_texts()[name]

    def rules_alive() -> int:
        return sum(type(o) is Rule for o in gc.get_objects())

    gc.collect()  # so that no garbage from earlier tests is freed while counting
    before = rules_alive()
    theory = parse_theory(text)
    g = ground(theory)
    validate(g)
    conclusions = engine.derive_all(g)
    for as_json in (False, True):
        cli._print_conclusions(g, conclusions, io.StringIO(), as_json)
    assert rules_alive() == before
    assert "rules" not in vars(theory) and "rules" not in vars(g)
