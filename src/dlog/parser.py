"""Textual front end for defeasible theories and tagged conclusions.

Concrete syntax (`.dl` files):

    emu(ethel).  bird(tweety).          % facts
    r1: emu(X) -> bird(X).              % strict rule
    r2: bird(X) => flies(X).            % defeasible rule
    r3: heavy(X) ~> ~flies(X).          % defeater
    r5: => heavy(ethel).                % empty body is allowed
    r4 > r2.                            % superiority

`~` is classical negation, `%` starts a line comment, constants begin with a
lowercase letter and variables with an uppercase one.  Labels are optional;
unlabeled rules get generated labels `_r1`, `_r2`, ... in file order.

Lexing is one `findall`: each token is a plain string, which is also its
kind, and the end of input is the empty string.  The parser keeps no
offsets.  The line and column of a `ParseError` are worked out only when one
is raised, by lexing the text again up to the offending token.  A character
no token starts with lexes as a token of its own that the parser never
accepts; it is reported before any other error, as if the text had been
checked for such characters first.  Equal literals are one object per parse.
"""

from __future__ import annotations

import itertools
import re

from .core import (
    Atom,
    Literal,
    Rule,
    SourceTheory,
    Tag,
    TaggedConclusion,
    ARROWS,
    gc_paused,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


_TOKEN = r"[-=~]>|[~().,:>]|[A-Za-z]\w*"
# group 1 is a token, a character no token starts with, or the end of input;
# the whitespace and comments before it are skipped
_TOKEN_RE = re.compile(rf"\s*(?:%[^\n]*\s*)*({_TOKEN}|.|\Z)")
_WELL_FORMED = re.compile(_TOKEN)

_ARROW_KIND = {arrow: kind for kind, arrow in ARROWS.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)  # the last is '', the end of input
        self.pos = 0
        self.interned: dict[tuple, Literal] = {}  # (positive, name, args) -> literal
        self.arities: dict[str, tuple[int, int]] = {}  # arity, token index of first use
        self.auto_label = 0

    def where(self, index: int) -> tuple[int, int]:
        """1-based line and column of token `index`, by lexing the text again."""
        offset = next(itertools.islice(_TOKEN_RE.finditer(self.text), index, None)).start(1)
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def fail(self, index: int, message: str):
        """Raise a located ParseError at token `index`, or at the first
        character no token starts with, wherever it is."""
        tokens = self.tokens
        bad = next((i for i, t in enumerate(tokens) if t and not _WELL_FORMED.match(t)), None)
        if bad is not None:
            index, message = bad, f"unexpected character {tokens[bad]!r}"
        raise ParseError(message, *self.where(index), tokens[index])

    def expected(self, index: int, what: str):
        self.fail(index, f"expected {what}, found {self.tokens[index] or 'end of input'!r}")

    def theory(self) -> SourceTheory:
        facts: list[Literal] = []
        rules: list[Rule] = []
        sup: list[tuple[str, str]] = []
        tokens = self.tokens
        while tokens[self.pos]:
            start = self.pos
            first, second = tokens[start], tokens[start + 1]
            label = None
            if "a" <= first < "{" and second == ">":
                lo = tokens[start + 2]
                if not "a" <= lo < "{":
                    self.expected(start + 2, "a rule label")
                if tokens[start + 3] != ".":
                    self.expected(start + 3, "'.'")
                self.pos = start + 4
                sup.append((first, lo))
                continue
            if "a" <= first < "{" and second == ":":
                label = first
                self.pos = start + 2
                body = [] if tokens[self.pos] in _ARROW_KIND else self.body()
            else:
                body = [] if first in _ARROW_KIND else self.body()
                if len(body) == 1 and tokens[self.pos] == ".":
                    self.pos += 1
                    if not body[0].is_ground():
                        self.fail(start, f"fact {body[0]} contains a variable")
                    facts.append(body[0])
                    continue
            rules.append(self.rule_tail(label, body))
        return SourceTheory(tuple(facts), tuple(rules), tuple(sup))

    def body(self) -> list[Literal]:
        """One or more comma-separated literals."""
        body = [self.literal()]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            body.append(self.literal())
        return body

    def rule_tail(self, label, body) -> Rule:
        tokens = self.tokens
        kind = _ARROW_KIND.get(tokens[self.pos])
        if kind is None:
            self.expected(self.pos, "an arrow ('->', '=>' or '~>')")
        self.pos += 1
        head = self.literal()
        if tokens[self.pos] != ".":
            self.expected(self.pos, "'.'")
        self.pos += 1
        if label is None:
            self.auto_label += 1
            label = f"_r{self.auto_label}"
        return Rule(label, kind, tuple(body), head)

    def literal(self) -> Literal:
        """`[~]name` or `[~]name(term, ...)`.  The arity of a name is checked
        when a literal is first seen, which a clash always is."""
        tokens, pos = self.tokens, self.pos
        positive = tokens[pos] != "~"
        if not positive:
            pos += 1
        name_at, name = pos, tokens[pos]
        if not "a" <= name < "{":  # a lowercase ASCII letter first
            self.expected(pos, "a predicate name")
        pos += 1
        args: tuple[str, ...] = ()
        if tokens[pos] == "(":
            terms = []
            while not terms or tokens[pos] == ",":
                pos += 1
                term = tokens[pos]
                if not ("a" <= term < "{" or "A" <= term < "["):
                    self.expected(pos, "a term")
                terms.append(term)
                pos += 1
            if tokens[pos] != ")":
                self.expected(pos, "')'")
            pos += 1
            args = tuple(terms)
        self.pos = pos
        key = (positive, name, args)
        literal = self.interned.get(key)
        if literal is None:
            arity, first = self.arities.setdefault(name, (len(args), name_at))
            if arity != len(args):
                line, column = self.where(first)
                self.fail(name_at, f"arity clash for {name}: {len(args)} here, {arity} at {line}:{column}")
            literal = self.interned[key] = Literal(positive, Atom(name, args))
        return literal


@gc_paused
def parse_theory(text: str) -> SourceTheory:
    """Parse a `.dl` document.  Malformed input raises a located ParseError."""
    return _Parser(text).theory()


_TAGS = {t.value: t for t in Tag}


def parse_conclusion(text: str) -> TaggedConclusion:
    """Parse a tagged conclusion such as `+d flies(tweety)` or `-D ~heavy(e)`."""
    stripped = text.strip()
    if len(stripped) < 2 or stripped[:2] not in _TAGS:
        raise ParseError(f"unknown tag in {stripped!r} (expected +D, -D, +d or -d)", 1, 1, stripped[:2])
    tag = _TAGS[stripped[:2]]
    p = _Parser(stripped[2:])
    literal = p.literal()
    if p.tokens[p.pos]:
        p.fail(p.pos, f"unexpected {p.tokens[p.pos]!r} after literal")
    if not literal.is_ground():
        raise ParseError(f"conclusion literal {literal} is not ground", 1, 3, str(literal))
    return TaggedConclusion(tag, literal)


def render_theory(t: SourceTheory) -> str:
    """Canonical text form; `parse_theory(render_theory(t))` equals `t` for
    every `t` the parser returns.  A rule labelled as the parser labels the
    k-th unlabeled rule, `_r<k>`, is written without its label."""
    lines = [f"{fact}." for fact in t.facts]
    unlabeled = 0
    for rule in t.rules:
        text = str(rule)
        if rule.label == f"_r{unlabeled + 1}":
            unlabeled += 1
            text = text[len(rule.label) + 2:]  # after "<label>: "
        lines.append(text)
    lines += [f"{hi} > {lo}." for hi, lo in t.superiority]
    return "\n".join(lines) + ("\n" if lines else "")
