"""Concrete syntax: tokenizing, parsing, error reporting, round-tripping."""

import pytest

from dlog.core import RuleKind, SourceTheory, lit, neg
from dlog.differential import generate_random_theory
from dlog.parser import (
    ParseError,
    parse_conclusion,
    parse_theory,
    render_theory,
)
from test_grounding import random_first_order_theory


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



# Every distinct ParseError message, with the position and token it is
# reported at.  Recorded from the earlier parser, which lexed the whole text
# into (text, offset) pairs before parsing: an unexpected character anywhere
# is reported before any other error, and a conclusion is located within the
# text after its tag.
GOLDEN_ERRORS = [
    pytest.param(parse_theory, 'p.\nr: a & b => c.\n',
                 "unexpected character '&'", 2, 6, '&', id='char-ampersand'),
    pytest.param(parse_theory, 'p.\nr: ré => q ü.\n',
                 "unexpected character 'ü'", 2, 12, 'ü', id='char-non-ascii'),
    pytest.param(parse_theory, 'p.\n  é(a).\n',
                 "unexpected character 'é'", 2, 3, 'é', id='char-non-ascii-start'),
    pytest.param(parse_theory, 'p(a).\n_q(a).\n',
                 "unexpected character '_'", 2, 1, '_', id='char-underscore'),
    pytest.param(parse_theory, 'p(1).\n',
                 "unexpected character '1'", 1, 3, '1', id='char-digit'),
    pytest.param(parse_theory, 'p - q.\n',
                 "unexpected character '-'", 1, 3, '-', id='char-lone-minus'),
    pytest.param(parse_theory, 'a = b.\n',
                 "unexpected character '='", 1, 3, '=', id='char-lone-equals'),
    pytest.param(parse_theory, 'p => .\nq => r 7.\n',
                 "unexpected character '7'", 2, 8, '7', id='char-after-structural-error'),
    pytest.param(parse_theory, '? p.',
                 "unexpected character '?'", 1, 1, '?', id='char-first-line'),
    pytest.param(parse_theory, 'a > b.\nc > .\n',
                 "expected a rule label, found '.'", 2, 5, '.', id='label-found'),
    pytest.param(parse_theory, 'a >',
                 "expected a rule label, found 'end of input'", 1, 4, '', id='label-end'),
    pytest.param(parse_theory, 'p.\nq.\nr: s => t u.\n',
                 "expected '.', found 'u'", 3, 11, 'u', id='dot-found'),
    pytest.param(parse_theory, 'p => q',
                 "expected '.', found 'end of input'", 1, 7, '', id='dot-end'),
    pytest.param(parse_theory, 'a > b c.\n',
                 "expected '.', found 'c'", 1, 7, 'c', id='dot-superiority'),
    pytest.param(parse_theory, 'p q.\n',
                 "expected an arrow ('->', '=>' or '~>'), found 'q'", 1, 3, 'q', id='arrow-found'),
    pytest.param(parse_theory, 'p, q',
                 "expected an arrow ('->', '=>' or '~>'), found 'end of input'", 1, 5, '', id='arrow-end'),
    pytest.param(parse_theory, 'r: p, q.\n',
                 "expected an arrow ('->', '=>' or '~>'), found '.'", 1, 8, '.', id='arrow-after-label'),
    pytest.param(parse_theory, 'p. % note\nq => .\n',
                 "expected a predicate name, found '.'", 2, 6, '.', id='name-found'),
    pytest.param(parse_theory, 'p.\n q =>',
                 "expected a predicate name, found 'end of input'", 2, 6, '', id='name-end'),
    pytest.param(parse_theory, 'r: P => q.\n',
                 "expected a predicate name, found 'P'", 1, 4, 'P', id='name-uppercase'),
    pytest.param(parse_theory, '~(a).\n',
                 "expected a predicate name, found '('", 1, 2, '(', id='name-after-negation'),
    pytest.param(parse_theory, 'p(a b).\n',
                 "expected ')', found 'b'", 1, 5, 'b', id='paren-found'),
    pytest.param(parse_theory, 'p(a',
                 "expected ')', found 'end of input'", 1, 4, '', id='paren-end'),
    pytest.param(parse_theory, 'p(,).\n',
                 "expected a term, found ','", 1, 3, ',', id='term-found'),
    pytest.param(parse_theory, 'p(',
                 "expected a term, found 'end of input'", 1, 3, '', id='term-end'),
    pytest.param(parse_theory, 'q.\n  p(a).\nr: p(X,Y) => s.\n',
                 'arity clash for p: 2 here, 1 at 2:3', 3, 4, 'p', id='arity-clash'),
    pytest.param(parse_theory, 'p.\nr: q => ~p(a).\n',
                 'arity clash for p: 1 here, 0 at 1:1', 2, 10, 'p', id='arity-clash-zero'),
    pytest.param(parse_theory, 'r: ~p(X) => q.\ns: p => q.\n',
                 'arity clash for p: 0 here, 1 at 1:5', 2, 4, 'p', id='arity-clash-negated-first'),
    pytest.param(parse_theory, 'p(a).\n  p(X).\n',
                 'fact p(X) contains a variable', 2, 3, 'p', id='fact-variable'),
    pytest.param(parse_theory, 'q.\n~p(a,Y).\n',
                 'fact ~p(a,Y) contains a variable', 2, 1, '~', id='fact-variable-negated'),
    pytest.param(parse_conclusion, '+d p(a) q',
                 "unexpected 'q' after literal", 1, 7, 'q', id='conclusion-trailing'),
    pytest.param(parse_conclusion, '*D p',
                 "unknown tag in '*D p' (expected +D, -D, +d or -d)", 1, 1, '*D', id='conclusion-unknown-tag'),
    pytest.param(parse_conclusion, ' +',
                 "unknown tag in '+' (expected +D, -D, +d or -d)", 1, 1, '+', id='conclusion-short-tag'),
    pytest.param(parse_conclusion, '-D ~p(a,X)',
                 'conclusion literal ~p(a,X) is not ground', 1, 3, '~p(a,X)', id='conclusion-not-ground'),
    pytest.param(parse_conclusion, '+d p(é)',
                 "unexpected character 'é'", 1, 4, 'é', id='conclusion-bad-char'),
    pytest.param(parse_conclusion, '+d (a)',
                 "expected a predicate name, found '('", 1, 2, '(', id='conclusion-name'),
    pytest.param(parse_conclusion, '+d ~',
                 "expected a predicate name, found 'end of input'", 1, 3, '', id='conclusion-end'),
]


@pytest.mark.parametrize("parse, text, message, line, column, token", GOLDEN_ERRORS)
def test_parse_error_golden(parse, text, message, line, column, token):
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


@pytest.mark.parametrize(
    "text",
    [
        "p. p => q.",
        "p => q. => ~r. a, b -> c. s: q ~> ~c.",
        "p. r1: p => q. r2: => ~q. r1 > r2. q -> s.",
    ],
    ids=["one-unlabeled", "labeled-between-unlabeled", "superiority-and-unlabeled"],
)
def test_render_round_trip_unlabeled(text):
    # generated labels `_r<k>` are written as unlabeled rules, which the
    # parser labels the same way again
    t = parse_theory(text)
    assert parse_theory(render_theory(t)) == t, render_theory(t)


def test_render_round_trip_random():
    # [DERIVED] the printer and parser are mutually inverse on the full
    # space the generator reaches
    for seed in range(50):
        t = generate_random_theory(seed, max_atoms=4, max_rules=8)
        assert parse_theory(render_theory(t)) == t


def test_render_round_trip_first_order():
    # variables, constants, arities 0-2 and superiority between labels
    for seed in range(300):
        t = random_first_order_theory(seed)
        assert parse_theory(render_theory(t)) == t, render_theory(t)


def test_source_theory_is_made_by_the_parser_only():
    # calling the class, with or without the removed constructor's
    # arguments, names the one way in
    for args, kwargs in (((), {}), (((), ()), {}), ((), {"facts": (), "rules": (), "superiority": ()})):
        with pytest.raises(TypeError, match=r"^a SourceTheory is made by parser\.parse_theory"):
            SourceTheory(*args, **kwargs)
    # the repr counts what was written and reads as no call
    t = parse_theory("p. p. q. r: p => s. t: q => ~s. r > t.")
    assert repr(t) == "<SourceTheory: 3 facts, 2 rules, 1 superiority statements>"
    assert repr(parse_theory("")) == "<SourceTheory: 0 facts, 0 rules, 0 superiority statements>"
