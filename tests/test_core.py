"""Domain types, grounding, validation, and the conclusion-set invariants."""

import gc
import graphlib
import io
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from dlog import cli, engine, metaprogram, modelcheck
from dlog.core import (
    ConclusionSet,
    GroundingError,
    InternalError,
    Rule,
    RuleKind,
    Tag,
    TaggedConclusion,
    ValidationError,
    ground,
    lit,
    neg,
    validate,
)
from dlog.parser import parse_theory, render_theory
from dlog.scaling import chain_theory
from test_grounding import ROOT, naive_ground


BIRD = """
emu(ethel).  bird(tweety).
r1: emu(X) -> bird(X).
r2: bird(X) => flies(X).
r3: heavy(X) ~> ~flies(X).
r4: brokenWing(X) => ~flies(X).
r5: => heavy(ethel).
r4 > r2.
"""


def test_literal_basics():
    # [TRIVIAL]
    p = lit("p", "a")
    assert str(p) == "p(a)"
    assert str(neg("p", "a")) == "~p(a)"
    assert p.complement().complement() == p
    assert p != neg("p", "a")
    assert lit("p") == lit("p")
    assert hash(lit("p", "a")) == hash(lit("p", "a"))


def test_variable_convention():
    # [TRIVIAL] uppercase first letter marks a variable
    assert lit("p", "X").variables == ("X",)
    assert lit("p", "x").variables == ()
    assert not lit("p", "X").is_ground()
    assert lit("p", "x").is_ground()


def test_rule_body_is_a_set():
    # [TRIVIAL] duplicate body literals collapse, order of first occurrence kept
    r = Rule("r", RuleKind.DEFEASIBLE, (lit("a"), lit("b"), lit("a")), lit("c"))
    assert r.body == (lit("a"), lit("b"))
    assert Rule("r", RuleKind.DEFEASIBLE, (lit("a"), lit("a"), lit("b")), lit("c")).body == (lit("a"), lit("b"))
    # equal fields give equal rules with equal hashes
    same = Rule(label="r", kind=RuleKind.DEFEASIBLE, body=[lit("a"), lit("b")], head=lit("c"))
    assert same == r and hash(same) == hash(r)
    assert r != Rule("r", RuleKind.STRICT, r.body, r.head)
    # an instance of p(X), p(Y) with X = Y keeps one body literal
    g = ground(parse_theory("p(a). r: p(X), p(Y) => q(X,Y)."))
    assert [(x.label, x.body) for x in g.rules] == [("r#a,a", (lit("p", "a"),))]


def test_rule_variables_first_occurrence_order():
    # [TRIVIAL]
    r = Rule("r", RuleKind.STRICT, (lit("p", "Y", "X"),), lit("q", "Z"))
    assert r.variables == ("Y", "X", "Z")


def test_ground_bird_counts():
    # [PAPER] in the naive grounding the five schemas give nine propositional
    # rules over two constants, and the single superiority statement expands
    # to four pairs
    naive = naive_ground(parse_theory(BIRD))
    assert len(naive.rules) == 9
    assert len(naive.superiority) == 4
    assert naive.constants == {"ethel", "tweety"}
    # [PAPER] base: 5 predicates x 2 constants x 2 signs
    assert len(naive.herbrand_base) == 20
    # relevance grounding leaves out r1#tweety (emu(tweety) is no fact and no
    # head), r3#tweety (heavy(tweety) is no head of r5) and both r4
    # instances (brokenWing has no fact and no rule), so r4 > r2 leaves no pair
    g = ground(parse_theory(BIRD))
    assert [r.label for r in g.rules] == ["r1#ethel", "r2#ethel", "r2#tweety", "r3#ethel", "r5"]
    assert len(g.superiority) == 0
    assert g.constants == {"ethel", "tweety"}
    assert len(g.herbrand_base) == 20


def test_ground_instance_labels():
    # instance labels carry the bindings in variable first-occurrence order
    naive = naive_ground(parse_theory(BIRD))
    labels = {r.label for r in naive.rules}
    assert "r1#ethel" in labels and "r1#tweety" in labels
    assert "r5" in labels  # variable-free schema keeps its label
    assert ("r4#ethel", "r2#ethel") in naive.superiority
    assert ("r4#ethel", "r2#tweety") in naive.superiority
    # relevance grounding builds some of these instances, in the same order
    g = ground(parse_theory(BIRD))
    assert {r.label for r in g.rules} <= labels
    assert g.rules == tuple(r for r in naive.rules if r in g.rules)


def test_ground_requires_constants_for_schemas():
    t = parse_theory("r: -> p(X).")
    with pytest.raises(GroundingError):
        ground(t)


def test_herbrand_base_closed_under_complement():
    g = ground(parse_theory(BIRD))
    for q in g.herbrand_base:
        assert q.complement() in g.herbrand_base


FIRST_ORDER = """
edge(a,b).  rain.
r1: edge(X,Y), rain => wet(Y).
d1: dry(X) ~> blocked(X).
"""

PROPOSITIONAL = "p. r1: p => q. r2: ~q ~> ~p. r3: q -> s."


def reference_base(g):
    """Every fact and ground body/head literal, closed under complement,
    plus both signs of every atom over the constants, per predicate."""
    occurring = set(g.source.facts)
    for r in g.rules:
        occurring.update(r.body)
        occurring.add(r.head)
    base = occurring | {l.complement() for l in occurring}
    for predicate, arity in {(l.atom.predicate, l.atom.arity) for l in occurring}:
        for args in itertools.product(sorted(g.constants), repeat=arity):
            base |= {lit(predicate, *args), neg(predicate, *args)}
    return base


@pytest.mark.parametrize(
    "text", [BIRD, FIRST_ORDER, PROPOSITIONAL], ids=["bird", "first-order", "propositional"]
)
def test_herbrand_base_matches_reference(text):
    naive = naive_ground(parse_theory(text))
    assert naive.herbrand_base == reference_base(naive)
    # relevance grounding keeps the base of the naive grounding
    assert ground(parse_theory(text)).herbrand_base == naive.herbrand_base


@pytest.mark.parametrize(
    "text", [BIRD, FIRST_ORDER, PROPOSITIONAL, ""], ids=["bird", "first-order", "propositional", "empty"]
)
def test_literal_table(text):
    g = ground(parse_theory(text))
    table = g.literals
    assert set(table) == g.herbrand_base
    assert len(table) == len(g.herbrand_base)  # no duplicates
    for i, q in enumerate(table):
        assert q.positive == (i % 2 == 0)
        assert table[i ^ 1] == q.complement()
    assert table[0::2] + table[1::2] == tuple(sorted(g.herbrand_base, key=str))
    assert g.literals is table  # built once


def test_validate_ok_with_warning_on_nonconflicting_pairs():
    # [PAPER] in the naive grounding r4#ethel > r2#tweety and r4#tweety >
    # r2#ethel relate rules without conflicting heads
    naive = naive_ground(parse_theory(BIRD))
    heads = {r.label: r.head for r in naive.rules}
    nonconflicting = [(hi, lo) for hi, lo in naive.superiority if heads[hi] != heads[lo].complement()]
    assert len(nonconflicting) == 2
    # relevance grounding keeps no pair of r4 > r2, so the statement warns once
    report = validate(ground(parse_theory(BIRD)))
    assert report.ok
    assert report.warnings == ["superiority r4 > r2 relates no instances with conflicting heads"]


@pytest.mark.parametrize(
    "text",
    [
        "r: -> p. r: => q.",
        "p(a). r: p(X) => q(X). r: => s.",
        "p(a). r: p(X), p(Y) => s(X,Y). r: => t.",
        "p(a). r: p(X) => q(X). r: p(Y) => s(Y).",
        "r: => p. r: => q. r: => s.",
    ],
    ids=["variable-free", "schema-and-rule", "two-variables", "same-instance-labels", "three-copies"],
)
def test_validate_duplicate_labels(text):
    # written labels are checked, not instance labels: a schema r next to a
    # rule r is a duplicate, and two schemas r are reported as r, not r#a;
    # a label written three times is reported once
    with pytest.raises(ValidationError, match="^duplicate rule label r$"):
        validate(ground(parse_theory(text)))


def test_validate_dangling_superiority():
    # a label missing from two statements is reported once
    t = parse_theory("r1: => p. r2: => ~p. r1 > zz. r2 > zz.")
    with pytest.raises(ValidationError, match="^superiority references undeclared label zz$"):
        validate(ground(t))


def test_validate_superiority_cycle():
    t = parse_theory("r1: => p. r2: => ~p. r1 > r2. r2 > r1.")
    with pytest.raises(ValidationError, match="cycle"):
        validate(ground(t))
    report = validate(ground(t), allow_cyclic_superiority=True)
    assert any("cycle" in w for w in report.warnings)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a: => p. b: => ~p. c: => p. a > b. b > c. c > a.", "superiority cycle: a > b > c > a"),
        ("a: => p. b: => ~p. a > a. a > b.", "superiority cycle: a > a"),
    ],
    ids=["3-cycle", "self-loop"],
)
def test_validate_superiority_cycle_message(text, message):
    with pytest.raises(ValidationError) as raised:
        validate(ground(parse_theory(text)))
    assert raised.value.report.errors == [message]


def reference_validate(g, allow_cyclic_superiority: bool) -> tuple[list[str], list[str]]:
    """The errors and warnings of `validate`, every statement sorted and
    checked, and a cycle looked for by `graphlib` alone."""
    labels, of = g.source.labels, g.schema_of
    declared = Counter(labels)
    errors = [f"duplicate rule label {l}" for l, k in declared.items() if k > 1]
    effective = {(labels[of[t]], labels[of[s]]) for t, s in g.positions.superiority}
    statements = sorted(set(g.source.superiority))
    undeclared = dict.fromkeys(l for pair in statements for l in pair if l not in declared)
    errors += [f"superiority references undeclared label {l}" for l in undeclared]
    warnings = [
        f"superiority {hi} > {lo} relates no instances with conflicting heads"
        for hi, lo in statements
        if hi in declared and lo in declared and (hi, lo) not in effective
    ]
    graph = graphlib.TopologicalSorter()
    for hi, lo in statements:
        graph.add(hi, lo)
    try:
        graph.prepare()
    except graphlib.CycleError as e:
        message = "superiority cycle: " + " > ".join(reversed(e.args[1]))
        (warnings if allow_cyclic_superiority else errors).append(message)
    return errors, warnings


def label_graph(rng: random.Random) -> str:
    """A text of rules with labels from a-f, some repeated, heads that may
    conflict, and superiority statements over a-h, so that some name a label
    no rule has, and some relate a label to itself."""
    rules = [(rng.choice("abcdef"), rng.choice(("p", "~p", "q"))) for _ in range(rng.randint(0, 6))]
    statements = [(rng.choice("abcdefgh"), rng.choice("abcdefgh")) for _ in range(rng.randint(0, 12))]
    return " ".join([f"{l}: => {h}." for l, h in rules] + [f"{hi} > {lo}." for hi, lo in statements])


@pytest.mark.parametrize("seed", [0, 1])
def test_validate_matches_sort_everything_reference(seed):
    # `validate` sorts only the statements a message names, and looks for a
    # cycle only among labels on both sides of some statement; 1,000 label
    # graphs per seed
    rng = random.Random(seed)
    for _ in range(1000):
        text = label_graph(rng)
        g = ground(parse_theory(text))
        reports = []
        for allow in (False, True):
            try:
                report = validate(g, allow_cyclic_superiority=allow)
            except ValidationError as e:
                report = e.report
            assert (report.errors, report.warnings) == reference_validate(g, allow), text
            reports.append(report)
        strict, lenient = reports
        cycle = [m for m in strict.errors if m.startswith("superiority cycle: ")]
        assert lenient.errors == strict.errors[: len(strict.errors) - len(cycle)]
        assert lenient.warnings == strict.warnings + cycle


def test_tag_opposites_and_display():
    # [TRIVIAL]
    assert Tag.PLUS_DELTA.value == "+D"
    assert Tag.PLUS_PARTIAL.display == "+∂"


def conclusion_set(g, *conclusions: TaggedConclusion) -> ConclusionSet:
    """The set over `g`'s table holding exactly `conclusions`."""
    by_tag = {}
    for c in conclusions:
        by_tag.setdefault(c.tag, []).append(c.literal)
    return ConclusionSet.from_tag_sets(g, by_tag)


PQ = "p. q."  # its table is (p, ~p, q, ~q)


def test_conclusion_set_membership_and_iteration():
    cs = conclusion_set(
        ground(parse_theory(PQ)),
        TaggedConclusion(Tag.PLUS_DELTA, lit("p")),
        TaggedConclusion(Tag.PLUS_PARTIAL, lit("p")),
        TaggedConclusion(Tag.MINUS_DELTA, lit("q")),
    )
    assert TaggedConclusion(Tag.PLUS_DELTA, lit("p")) in cs
    assert TaggedConclusion(Tag.MINUS_DELTA, lit("p")) not in cs
    assert len(cs) == 3
    assert [str(c) for c in cs] == ["+D p", "-D q", "+d p"]


def test_conclusion_set_coherence_enforced():
    with pytest.raises(InternalError, match="coherence"):
        conclusion_set(
            ground(parse_theory(PQ)),
            TaggedConclusion(Tag.PLUS_PARTIAL, lit("p")),
            TaggedConclusion(Tag.MINUS_PARTIAL, lit("p")),
        )


def test_conclusion_set_containment_enforced():
    g = ground(parse_theory(PQ))
    # +D without +d breaks "definite implies defeasible"
    with pytest.raises(InternalError, match="containment"):
        conclusion_set(g, TaggedConclusion(Tag.PLUS_DELTA, lit("p")))
    # -d without -D breaks the dual inclusion
    with pytest.raises(InternalError, match="containment"):
        conclusion_set(g, TaggedConclusion(Tag.MINUS_PARTIAL, lit("p")))


def test_conclusion_set_equality():
    g = ground(parse_theory(PQ))
    a = conclusion_set(g, TaggedConclusion(Tag.MINUS_DELTA, lit("p")))
    b = conclusion_set(g, TaggedConclusion(Tag.MINUS_DELTA, lit("p")))
    assert a == b and hash(a) == hash(b)
    assert a != conclusion_set(g)
    # over another grounding of the same text, by tag
    again = conclusion_set(ground(parse_theory(PQ)), TaggedConclusion(Tag.MINUS_DELTA, lit("p")))
    assert a == again and hash(a) == hash(again)


def test_from_theory_enforces_invariants():
    g = ground(parse_theory("p."))  # its table is (p, ~p)
    with pytest.raises(InternalError, match="coherence"):  # +D and -D of p
        ConclusionSet(g, [[True, False], [True, False], [True, False], [False, False]])
    with pytest.raises(InternalError, match="containment"):  # +D without +d
        ConclusionSet(g, [[True, False], [False, False], [False, False], [False, False]])
    # four flag lists, each as long as the table
    with pytest.raises(ValueError, match="^expected 4 flag sequences of length 2$"):
        ConclusionSet(g, [[False, False]] * 3)
    with pytest.raises(ValueError, match="^expected 4 flag sequences of length 2$"):
        ConclusionSet(g, [[False, False, False]] * 4)


@pytest.mark.parametrize(
    "flags, message",
    [
        ([[1, 0], [1, 0], [1, 0], [0, 0]], r"coherence violated at \['p'\]"),
        ([[0, 0], [0, 1], [0, 1], [0, 1]], r"coherence violated at \['~p'\]"),
        ([[0, 1], [0, 0], [0, 0], [0, 0]], "containment violated: \\+D not within \\+d"),
        ([[0, 0], [0, 0], [0, 0], [1, 0]], "containment violated: -d not within -D"),
    ],
    ids=["definite-coherence", "defeasible-coherence", "plus-containment", "minus-containment"],
)
def test_flags_breaking_invariants_raise(flags, message):
    # the checks run on the flags; each breach is an InternalError, which
    # names the literals of the theory's table (p, ~p)
    g = ground(parse_theory("p."))
    with pytest.raises(InternalError, match=f"^{message}$"):
        ConclusionSet(g, [[bool(v) for v in row] for row in flags])


def test_from_theory_matches_conclusion_set(bird, bird_text):
    cs = engine.derive_all(bird)
    flags = [[l in cs.with_tag(tag) for l in bird.literals] for tag in Tag]
    assert ConclusionSet(bird, flags) == conclusion_set(bird, *cs) == cs
    # over another grounding of the same text, the sets compare by tag
    again = ground(parse_theory(bird_text))
    assert ConclusionSet(again, flags) == cs
    # over the same theory, by flags: drop +d flies(tweety)
    flags[2][bird.position(lit("flies", "tweety"))] = False
    assert ConclusionSet(bird, flags) != cs
    assert ConclusionSet(again, flags) != cs


def test_benchmark_traces_conclusion_set_construction(bird):
    # the benchmark times ConclusionSet construction (`core.conclusionset_s`)
    # by wrapping the constructor, which every oracle's readout calls
    if str(ROOT / "benchmark") not in sys.path:
        sys.path.append(str(ROOT / "benchmark"))
    import spans

    import dlog.differential  # noqa: F401  (`instrument` wraps a function of every layer)

    tracer = spans.Tracer()
    oracles = (
        engine.derive_all,
        metaprogram.conclusions,
        lambda g: modelcheck.logical_consequences(g, cap=6 ** len(g.literals)),
    )
    with spans.instrument(tracer):
        for op, oracle in enumerate(oracles):
            with tracer.operation(op):
                oracle(bird)
    built = [op for name, *_, op in tracer.spans if name == spans.CONCLUSION_SET]
    assert sorted(built) == [0, 1, 2]


def test_herbrand_base_stays_lazy(bird_text):
    # the set view of the base is built only when asked for: no oracle,
    # replay or query reads it
    g = ground(parse_theory(bird_text))
    target = TaggedConclusion(Tag.PLUS_PARTIAL, lit("flies", "tweety"))
    cs = engine.derive_all(g)
    assert engine.prove(g, target)
    assert engine.prove(g, TaggedConclusion(Tag.MINUS_DELTA, lit("newpred")))
    assert engine.check_derivation(g, engine.explain(g, target))
    assert metaprogram.conclusions(g) == cs
    # the cap bounds the whole candidate space; the pruned frontier is small
    assert modelcheck.logical_consequences(g, cap=6 ** len(g.literals)) == cs
    assert "herbrand_base" not in g.__dict__
    assert g.herbrand_base == frozenset(g.literals)


def test_undefined_levels():
    cs = conclusion_set(ground(parse_theory("p.")), TaggedConclusion(Tag.MINUS_DELTA, lit("p")))
    assert cs.undefined_levels(lit("p")) == ["partial"]
    assert cs.undefined_levels(lit("q")) == ["definite", "partial"]


def test_rules_at():
    # [PAPER] defeaters belong to R[q] but not to R_sd or R_d
    nf_ethel = neg("flies", "ethel")

    def labels(g, rules):
        return [g.rules[r].label for r in rules]

    naive = naive_ground(parse_theory(BIRD))
    allk = naive.rules_at(naive.literals.index(nf_ethel))
    assert labels(naive, allk) == ["r3#ethel", "r4#ethel"]  # in `rules` order
    sd = [r for r in allk if naive.rules[r].kind is not RuleKind.DEFEATER]
    assert labels(naive, sd) == ["r4#ethel"]
    strict = [r.label for r in naive.rules if r.kind is RuleKind.STRICT]
    assert strict == ["r1#ethel", "r1#tweety"]
    # relevance grounding has no r4 instance and no r1#tweety
    g = ground(parse_theory(BIRD))
    assert labels(g, g.rules_at(g.position(nf_ethel))) == ["r3#ethel"]
    assert [r.label for r in g.rules if r.kind is RuleKind.STRICT] == ["r1#ethel"]
    # a position past the table has no rules
    assert g.rules_at(len(g.literals)) == []


def test_conclusion_set_over_another_table(bird, bird_text):
    # the same tag sets over another grounding of the same text
    cs = engine.derive_all(bird)
    again = ground(parse_theory(bird_text))
    rebuilt = ConclusionSet.from_tag_sets(again, {tag: cs.with_tag(tag) for tag in Tag})
    assert rebuilt == cs and hash(rebuilt) == hash(cs)
    assert rebuilt.flags == cs.flags
    # a literal outside the table carries no conclusion, and none can be given
    assert not any(TaggedConclusion(tag, lit("zebra")) in rebuilt for tag in Tag)
    assert rebuilt.undefined_levels(lit("zebra")) == ["definite", "partial"]
    with pytest.raises(ValueError, match="^zebra is not in the theory's base$"):
        ConclusionSet.from_tag_sets(again, {Tag.MINUS_DELTA: [lit("zebra")]})


def test_front_end_grows_linearly_without_a_clock():
    # from a 20k-link chain to a 40k-link one, the objects alive after
    # `ground` and the peak of memory traced from parse to render may grow
    # by at most 2.05x; counted with the GC off, so no collection untracks
    # any of them
    def measure(links: int) -> tuple[int, int]:
        text = render_theory(chain_theory(links).source)
        resume = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            g = ground(parse_theory(text))
            tracked = len(gc.get_objects()) - before
        finally:
            if resume:
                gc.enable()
        del g
        tracemalloc.start()
        try:
            g = ground(parse_theory(text))
            validate(g)
            cli._print_conclusions(g, engine.derive_all(g), io.StringIO(), False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return tracked, peak

    (tracked_20k, peak_20k), (tracked_40k, peak_40k) = measure(20_000), measure(40_000)
    assert tracked_40k <= 2.05 * tracked_20k, (tracked_20k, tracked_40k)
    assert peak_40k <= 2.05 * peak_20k, (peak_20k, peak_40k)
