"""Domain types, grounding, validation, and the conclusion-set invariants."""

import itertools

import pytest

from dlog.core import (
    Atom,
    ConclusionSet,
    GroundingError,
    InternalError,
    Literal,
    Rule,
    RuleKind,
    SourceTheory,
    Tag,
    TaggedConclusion,
    ValidationError,
    ground,
    lit,
    neg,
    validate,
)
from dlog.parser import parse_theory
from test_grounding import naive_ground


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
    assert not lit("p", "a").is_ground() or True
    assert lit("p", "X").variables == ("X",)
    assert lit("p", "x").variables == ()
    assert not lit("p", "X").is_ground()
    assert lit("p", "x").is_ground()


def test_substitution():
    # [TRIVIAL]
    r = lit("p", "X", "Y", "X")
    assert str(r.substitute({"X": "a", "Y": "b"})) == "p(a,b,a)"


def test_rule_body_is_a_set():
    # [TRIVIAL] duplicate body literals collapse, order of first occurrence kept
    r = Rule("r", RuleKind.DEFEASIBLE, (lit("a"), lit("b"), lit("a")), lit("c"))
    assert r.body == (lit("a"), lit("b"))


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


def test_ground_requires_ground_facts():
    t = SourceTheory(facts=(lit("p", "X"),))
    with pytest.raises(GroundingError):
        ground(t)


def test_ground_requires_constants_for_schemas():
    t = SourceTheory(rules=(Rule("r", RuleKind.STRICT, (), lit("p", "X")),))
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
    occurring = set(g.facts)
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
        None,
        "p(a). r: p(X) => q(X). r: => s.",
        "p(a). r: p(X), p(Y) => s(X,Y). r: => t.",
        "p(a). r: p(X) => q(X). r: p(Y) => s(Y).",
    ],
    ids=["variable-free", "schema-and-rule", "two-variables", "same-instance-labels"],
)
def test_validate_duplicate_labels(text):
    # written labels are checked, not instance labels: a schema r next to a
    # rule r is a duplicate, and two schemas r are reported as r, not r#a
    if text is None:
        t = SourceTheory(
            rules=(
                Rule("r", RuleKind.STRICT, (), lit("p")),
                Rule("r", RuleKind.DEFEASIBLE, (), lit("q")),
            )
        )
    else:
        t = parse_theory(text)
    with pytest.raises(ValidationError, match="^duplicate rule label r$"):
        validate(ground(t))


def test_validate_dangling_superiority():
    t = SourceTheory(
        rules=(Rule("r1", RuleKind.DEFEASIBLE, (), lit("p")),),
        superiority=(("r1", "zz"),),
    )
    with pytest.raises(ValidationError, match="undeclared"):
        validate(ground(t))


def test_validate_superiority_cycle():
    t = SourceTheory(
        rules=(
            Rule("r1", RuleKind.DEFEASIBLE, (), lit("p")),
            Rule("r2", RuleKind.DEFEASIBLE, (), neg("p")),
        ),
        superiority=(("r1", "r2"), ("r2", "r1")),
    )
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


def test_tag_opposites_and_display():
    # [TRIVIAL]
    assert Tag.PLUS_DELTA.value == "+D"
    assert Tag.PLUS_PARTIAL.display == "+∂"


def test_conclusion_set_membership_and_iteration():
    cs = ConclusionSet(
        [
            TaggedConclusion(Tag.PLUS_DELTA, lit("p")),
            TaggedConclusion(Tag.PLUS_PARTIAL, lit("p")),
            TaggedConclusion(Tag.MINUS_DELTA, lit("q")),
        ]
    )
    assert TaggedConclusion(Tag.PLUS_DELTA, lit("p")) in cs
    assert TaggedConclusion(Tag.MINUS_DELTA, lit("p")) not in cs
    assert len(cs) == 3
    assert [str(c) for c in cs] == ["+D p", "-D q", "+d p"]


def test_conclusion_set_coherence_enforced():
    with pytest.raises(InternalError, match="coherence"):
        ConclusionSet(
            [
                TaggedConclusion(Tag.PLUS_PARTIAL, lit("p")),
                TaggedConclusion(Tag.MINUS_PARTIAL, lit("p")),
            ]
        )


def test_conclusion_set_containment_enforced():
    # +D without +d breaks "definite implies defeasible"
    with pytest.raises(InternalError, match="containment"):
        ConclusionSet([TaggedConclusion(Tag.PLUS_DELTA, lit("p"))])
    # -d without -D breaks the dual inclusion
    with pytest.raises(InternalError, match="containment"):
        ConclusionSet([TaggedConclusion(Tag.MINUS_PARTIAL, lit("p"))])


def test_conclusion_set_equality():
    a = ConclusionSet([TaggedConclusion(Tag.MINUS_DELTA, lit("p"))])
    b = ConclusionSet([TaggedConclusion(Tag.MINUS_DELTA, lit("p"))])
    assert a == b and hash(a) == hash(b)
    assert a != ConclusionSet([])


def test_undefined_levels():
    cs = ConclusionSet([TaggedConclusion(Tag.MINUS_DELTA, lit("p"))])
    assert cs.undefined_levels(lit("p")) == ["partial"]
    assert cs.undefined_levels(lit("q")) == ["definite", "partial"]


def test_rules_for_selections():
    # [PAPER] defeaters belong to R[q] but not to R_sd or R_d
    naive = naive_ground(parse_theory(BIRD))
    nf_ethel = neg("flies", "ethel")
    sd = naive.rules_for({RuleKind.STRICT, RuleKind.DEFEASIBLE}, nf_ethel)
    allk = naive.rules_for(RuleKind, nf_ethel)
    assert {r.label for r in sd} == {"r4#ethel"}
    assert {r.label for r in allk} == {"r3#ethel", "r4#ethel"}
    strict = naive.rules_for({RuleKind.STRICT})
    assert {r.label for r in strict} == {"r1#ethel", "r1#tweety"}
    # relevance grounding has no r4 instance and no r1#tweety
    g = ground(parse_theory(BIRD))
    assert g.rules_for({RuleKind.STRICT, RuleKind.DEFEASIBLE}, nf_ethel) == ()
    assert {r.label for r in g.rules_for(RuleKind, nf_ethel)} == {"r3#ethel"}
    assert {r.label for r in g.rules_for({RuleKind.STRICT})} == {"r1#ethel"}
