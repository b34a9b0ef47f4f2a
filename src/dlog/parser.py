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

A token is a `(text, offset)` pair and its text is its kind.  The line and
column of a `ParseError` are worked out from the offending token's offset
only when the error is raised.
"""

from __future__ import annotations

import re

from .core import (
    Atom,
    Literal,
    Rule,
    SourceTheory,
    Tag,
    TaggedConclusion,
    ARROWS,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int, token: str = ""):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.token = token


# group 1 is a token, group 2 a character no token starts with; whitespace
# and comments match neither
_TOKEN_RE = re.compile(r"\s+|%[^\n]*|([-=~]>|[~().,:>]|[A-Za-z]\w*)|(.)")

_ARROW_KIND = {arrow: kind for kind, arrow in ARROWS.items()}


def _is_name(text: str) -> bool:
    return text[:1].islower()


def _is_term(text: str) -> bool:
    return text[:1].isalpha()


def _location(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        token, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r}", *_location(text, m.start()), bad)
        if token:
            tokens.append((token, m.start()))
    tokens.append(("", len(text)))  # end of input
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, tuple[int, int]] = {}  # arity, offset of first use
        self.auto_label = 0

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)][0]

    def expect(self, what: str, accept) -> tuple[str, int]:
        """Consume the next token, failing unless `accept(text)` holds; no
        `accept` holds for the end of input."""
        tok = self.tokens[self.pos]
        if not accept(tok[0]):
            self.fail(f"expected {what}, found {tok[0] or 'end of input'!r}", tok)
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple[str, int]):
        raise ParseError(message, *_location(self.text, tok[1]), tok[0])

    def theory(self) -> SourceTheory:
        facts: list[Literal] = []
        rules: list[Rule] = []
        sup: list[tuple[str, str]] = []
        while self.peek():
            self.statement(facts, rules, sup)
        return SourceTheory(tuple(facts), tuple(rules), tuple(sup))

    def statement(self, facts, rules, sup):
        start = self.tokens[self.pos]
        text = start[0]
        if text in _ARROW_KIND:
            rules.append(self.rule_tail(None, []))
            return
        if _is_name(text) and self.peek(1) == ":":
            self.pos += 2
            body = [] if self.peek() in _ARROW_KIND else self.sequence(self.literal)
            rules.append(self.rule_tail(text, body))
            return
        if _is_name(text) and self.peek(1) == ">":
            self.pos += 2
            lo = self.expect("a rule label", _is_name)[0]
            self.expect("'.'", ".".__eq__)
            sup.append((text, lo))
            return
        body = self.sequence(self.literal)
        if len(body) == 1 and self.peek() == ".":
            self.pos += 1
            if not body[0].is_ground():
                self.fail(f"fact {body[0]} contains a variable", start)
            facts.append(body[0])
            return
        rules.append(self.rule_tail(None, body))

    def rule_tail(self, label, body) -> Rule:
        arrow = self.expect("an arrow ('->', '=>' or '~>')", _ARROW_KIND.__contains__)[0]
        head = self.literal()
        self.expect("'.'", ".".__eq__)
        if label is None:
            self.auto_label += 1
            label = f"_r{self.auto_label}"
        return Rule(label, _ARROW_KIND[arrow], tuple(body), head)

    def sequence(self, item) -> list:
        """One or more comma-separated `item()`s."""
        out = [item()]
        while self.peek() == ",":
            self.pos += 1
            out.append(item())
        return out

    def literal(self) -> Literal:
        positive = self.peek() != "~"
        if not positive:
            self.pos += 1
        return Literal(positive, self.atom())

    def atom(self) -> Atom:
        tok = self.expect("a predicate name", _is_name)
        name = tok[0]
        args: list[str] = []
        if self.peek() == "(":
            self.pos += 1
            args = self.sequence(self.term)
            self.expect("')'", ")".__eq__)
        arity, first = self.arities.setdefault(name, (len(args), tok[1]))
        if arity != len(args):
            line, column = _location(self.text, first)
            self.fail(f"arity clash for {name}: {len(args)} here, {arity} at {line}:{column}", tok)
        return Atom(name, tuple(args))

    def term(self) -> str:
        return self.expect("a term", _is_term)[0]


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
    trailing = p.tokens[p.pos]
    if trailing[0]:
        p.fail(f"unexpected {trailing[0]!r} after literal", trailing)
    if not literal.is_ground():
        raise ParseError(f"conclusion literal {literal} is not ground", 1, 3, str(literal))
    return TaggedConclusion(tag, literal)


def render_theory(t: SourceTheory) -> str:
    """Canonical text form; `parse_theory(render_theory(t))` equals `t`."""
    lines = [f"{fact}." for fact in t.facts]
    lines += [str(rule) for rule in t.rules]
    lines += [f"{hi} > {lo}." for hi, lo in t.superiority]
    return "\n".join(lines) + ("\n" if lines else "")
