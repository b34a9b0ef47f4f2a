"""Concrete syntax: tokenizing, parsing, error reporting, round-tripping."""

import pytest

from dlog.core import RuleKind, lit, neg
from dlog.differential import generate_random_theory
from dlog.parser import (
    ParseError,
    parse_conclusion,
    parse_theory,
    render_theory,
)


def test_parse_bird_fixture(bird_text):
    t = parse_theory(bird_text)
    assert [str(f) for f in t.facts] == ["emu(ethel)", "bird(tweety)"]
    assert [r.label for r in t.rules] == ["r1", "r2", "r3", "r4", "r5"]
    assert [r.kind for r in t.rules] == [
        RuleKind.STRICT,
        RuleKind.DEFEASIBLE,
        RuleKind.DEFEATER,
        RuleKind.DEFEASIBLE,
        RuleKind.DEFEASIBLE,
    ]
    assert t.rules[4].body == ()
    assert t.superiority == (("r4", "r2"),)


def test_comments_and_whitespace():
    t = parse_theory("% a comment\n  p.  % trailing\n\n% only comments\n")
    assert t.facts == (lit("p"),)
    assert parse_theory("").facts == ()


def test_negation_in_facts_and_rules():
    t = parse_theory("~p(a). q: ~r(X) => ~s(X).")
    assert t.facts == (neg("p", "a"),)
    assert t.rules[0].body == (neg("r", "X"),)
    assert t.rules[0].head == neg("s", "X")


def test_unlabeled_rules_get_generated_labels():
    t = parse_theory("p => q. => r. a, b -> c.")
    assert [r.label for r in t.rules] == ["_r1", "_r2", "_r3"]
    assert t.rules[2].body == (lit("a"), lit("b"))
    assert t.rules[2].kind is RuleKind.STRICT


def test_multiargument_atoms():
    t = parse_theory("edge(a,b). r: edge(X,Y) => path(X,Y).")
    assert t.facts[0] == lit("edge", "a", "b")
    assert t.rules[0].head == lit("path", "X", "Y")


def test_nonground_fact_rejected():
    with pytest.raises(ParseError, match="variable"):
        parse_theory("p(X).")


def test_arity_clash_rejected():
    with pytest.raises(ParseError, match="arity clash"):
        parse_theory("p(a). r: p(X,Y) => q.")


def test_error_positions():
    try:
        parse_theory("p.\n q =>")
        assert False, "should have raised"
    except ParseError as e:
        assert e.line == 2
        assert "end of input" in str(e)
    with pytest.raises(ParseError, match="1:1"):
        parse_theory("? p.")


@pytest.mark.parametrize(
    "parse, text, message, line, column, token",
    [
        (parse_theory, "p. % note\nq => .\n",
         "expected a predicate name, found '.'", 2, 6, "."),
        (parse_theory, "p.\nq.\nr: s => t u.\n", "expected '.', found 'u'", 3, 11, "u"),
        (parse_theory, "q.\n  p(a).\nr: p(X,Y) => s.\n",
         "arity clash for p: 2 here, 1 at 2:3", 3, 4, "p"),
        (parse_theory, "p.\nr: a & b => c.\n", "unexpected character '&'", 2, 6, "&"),
        (parse_conclusion, "+d p(a) q", "unexpected 'q' after literal", 1, 7, "q"),
    ],
    ids=["after-comment", "line-3", "arity-clash", "bad-character", "conclusion-trailing"],
)
def test_error_locations(parse, text, message, line, column, token):
    with pytest.raises(ParseError) as info:
        parse(text)
    e = info.value
    assert (e.message, e.line, e.column, e.token) == (message, line, column, token)
    assert str(e) == f"{line}:{column}: {message}"


def test_missing_dot():
    with pytest.raises(ParseError):
        parse_theory("p => q")


def test_superiority_statement():
    t = parse_theory("a > b. c > d.")
    assert t.superiority == (("a", "b"), ("c", "d"))
    with pytest.raises(ParseError):
        parse_theory("a > .")


def test_parse_conclusion():
    c = parse_conclusion("+d flies(tweety)")
    assert c.tag.value == "+d" and c.literal == lit("flies", "tweety")
    c = parse_conclusion("-D ~heavy(e)")
    assert c.tag.value == "-D" and c.literal == neg("heavy", "e")
    with pytest.raises(ParseError, match="tag"):
        parse_conclusion("*D p")
    with pytest.raises(ParseError, match="not ground"):
        parse_conclusion("+d p(X)")
    with pytest.raises(ParseError):
        parse_conclusion("+d p q")


def test_render_round_trip_bird(bird_text):
    t = parse_theory(bird_text)
    assert parse_theory(render_theory(t)) == t


def test_render_round_trip_random():
    # [DERIVED] the printer and parser are mutually inverse on the full
    # space the generator reaches
    for seed in range(50):
        t = generate_random_theory(seed, max_atoms=4, max_rules=8)
        assert parse_theory(render_theory(t)) == t
