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
checked for such characters first.

`parse_theory` is the only producer of a `SourceTheory`, so every theory
has passed its checks: identifier names, one arity per predicate, no
variable in a fact, and no label of the instance form `schema#c1,c2`.  It
builds no `Literal` and no `Rule`: it numbers each distinct literal
`(positive, name, args)` when first met, noting its constants and whether it
holds a variable, and hands over a `SourceTheory` of columns: the table of
distinct literals in order of first occurrence, each rule's label, kind,
head id and body ids (deduplicated in written order), the fact ids and the
superiority statements as written.  Its views build the facts and rules as
objects on first read, equal literals one object.
"""

from __future__ import annotations

import itertools
import re

from .core import (
    Atom,
    Literal,
    RuleKind,
    SourceTheory,
    Tag,
    TaggedConclusion,
    ARROWS,
    gc_paused,
    is_variable,
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
        self.ids: dict[tuple[bool, str, tuple[str, ...]], int] = {}  # (positive, name, args) -> literal id
        self.arities: dict[str, tuple[int, int]] = {}  # arity, token index of first use; in first-use order
        self.constants: set[str] = set()
        self.variable_ids: set[int] = set()  # the literals holding a variable
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

    def written(self, i: int) -> Literal:
        """Literal `i` as an object, to name it in a message."""
        positive, name, args = next(itertools.islice(self.ids, i, None))
        return Literal(positive, Atom(name, args))

    def theory(self) -> SourceTheory:
        fact_ids: list[int] = []
        labels: list[str] = []
        kinds: list[RuleKind] = []
        heads: list[int] = []
        bodies: list[list[int]] = []
        sup: list[tuple[str, str]] = []
        tokens, literal, pos = self.tokens, self.literal, 0
        while tokens[pos]:
            start = pos
            first, second = tokens[start], tokens[start + 1]
            label = None
            if "a" <= first < "{" and second == ">":
                lo = tokens[start + 2]
                if not "a" <= lo < "{":
                    self.expected(start + 2, "a rule label")
                if tokens[start + 3] != ".":
                    self.expected(start + 3, "'.'")
                pos = start + 4
                sup.append((first, lo))
                continue
            if "a" <= first < "{" and second == ":":
                label = first
                pos = start + 2
            body = []
            if tokens[pos] not in _ARROW_KIND:  # one or more comma-separated literals
                i, pos = literal(pos)
                body.append(i)
                while tokens[pos] == ",":
                    i, pos = literal(pos + 1)
                    body.append(i)
                if label is None and len(body) == 1 and tokens[pos] == ".":
                    pos += 1
                    if i in self.variable_ids:
                        self.fail(start, f"fact {self.written(i)} contains a variable")
                    fact_ids.append(i)
                    continue
            kind = _ARROW_KIND.get(tokens[pos])
            if kind is None:
                self.expected(pos, "an arrow ('->', '=>' or '~>')")
            i, pos = literal(pos + 1)
            heads.append(i)
            if tokens[pos] != ".":
                self.expected(pos, "'.'")
            pos += 1
            if label is None:
                self.auto_label += 1
                label = f"_r{self.auto_label}"
            labels.append(label)
            kinds.append(kind)
            bodies.append(body)
        t = object.__new__(SourceTheory)
        t.written = tuple(self.ids)
        t.signatures = tuple((name, arity) for name, (arity, _) in self.arities.items())
        t.constants = frozenset(self.constants)
        t.variable_ids = frozenset(self.variable_ids)
        t.fact_ids, t.labels, t.kinds, t.heads = tuple(fact_ids), tuple(labels), tuple(kinds), tuple(heads)
        t.bodies = tuple([tuple(dict.fromkeys(body)) if len(body) > 1 else tuple(body) for body in bodies])
        t.superiority = tuple(sup)
        return t

    def literal(self, pos: int) -> tuple[int, int]:
        """`[~]name` or `[~]name(term, ...)` at token `pos`: its id, and the
        position after it.  A literal gets the next id when it is first
        seen, and only then is its name's arity checked: a literal that
        clashes is always new."""
        tokens = self.tokens
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
        key = (positive, name, args)
        i = self.ids.get(key)
        if i is None:
            arity, first = self.arities.setdefault(name, (len(args), name_at))
            if arity != len(args):
                line, column = self.where(first)
                self.fail(name_at, f"arity clash for {name}: {len(args)} here, {arity} at {line}:{column}")
            i = self.ids[key] = len(self.ids)
            if args:
                constants = [t for t in args if not is_variable(t)]
                self.constants.update(constants)
                if len(constants) < len(args):
                    self.variable_ids.add(i)
        return i, pos


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
    i, pos = p.literal(0)
    literal = p.written(i)
    if p.tokens[pos]:
        p.fail(pos, f"unexpected {p.tokens[pos]!r} after literal")
    if p.variable_ids:
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
