"""Domain types for defeasible theories: literals, rules, theories, grounding.

A defeasible theory is a triple (facts, rules, superiority).  Rules come in
three kinds: strict (->), defeasible (=>), and defeaters (~>).  Theories may
be written with rule schemas containing variables; `ground` instantiates the
schemas over the theory's constants to obtain a purely propositional theory,
which is what the engine and the two semantic oracles operate on.

`Atom`, `Literal` and `TaggedConclusion` are named tuples, so equality and
hashing are those of the tuple of their fields: an instance also equals a
plain tuple of its field values, and it can be iterated and unpacked.
The same holds for `metaprogram.MetaAtom`, `BodyLiteral` and `Clause`.
`Rule` stays a dataclass because its constructor deduplicates the body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional


class GroundingError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.errors))
        self.report = report


class InternalError(Exception):
    """An internal invariant was violated.  Always indicates a bug."""


def is_variable(term: str) -> bool:
    return bool(term) and term[0].isupper()


class Atom(NamedTuple):
    predicate: str
    args: tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def variables(self) -> tuple[str, ...]:
        seen = []
        for t in self.args:
            if is_variable(t) and t not in seen:
                seen.append(t)
        return tuple(seen)

    def is_ground(self) -> bool:
        return not any(is_variable(t) for t in self.args)

    def substitute(self, binding: dict[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(t, t) for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


class Literal(NamedTuple):
    positive: bool
    atom: Atom

    def complement(self) -> "Literal":
        return Literal(not self.positive, self.atom)

    @property
    def variables(self) -> tuple[str, ...]:
        return self.atom.variables

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def substitute(self, binding: dict[str, str]) -> "Literal":
        return Literal(self.positive, self.atom.substitute(binding))

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


def lit(predicate: str, *args: str, positive: bool = True) -> Literal:
    """Shorthand constructor used heavily in tests and demos."""
    return Literal(positive, Atom(predicate, tuple(args)))


def neg(predicate: str, *args: str) -> Literal:
    return lit(predicate, *args, positive=False)


class RuleKind(Enum):
    STRICT = "strict"
    DEFEASIBLE = "defeasible"
    DEFEATER = "defeater"


ARROWS = {
    RuleKind.STRICT: "->",
    RuleKind.DEFEASIBLE: "=>",
    RuleKind.DEFEATER: "~>",
}


@dataclass(frozen=True, slots=True)
class Rule:
    label: str
    kind: RuleKind
    body: tuple[Literal, ...]
    head: Literal

    def __post_init__(self):
        # body is a set; collapse duplicates but keep written order so that
        # variable first-occurrence order (used for instance labels) is stable
        deduped = tuple(dict.fromkeys(self.body))
        if deduped != self.body:
            object.__setattr__(self, "body", deduped)

    @property
    def variables(self) -> tuple[str, ...]:
        seen = []
        for literal in self.body + (self.head,):
            for v in literal.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def is_ground(self) -> bool:
        return all(l.is_ground() for l in self.body) and self.head.is_ground()

    def __str__(self) -> str:
        body = ", ".join(str(l) for l in self.body)
        arrow = ARROWS[self.kind]
        lhs = f"{body} " if body else ""
        return f"{self.label}: {lhs}{arrow} {self.head}."


@dataclass(frozen=True)
class SourceTheory:
    """A theory as written: facts, rule schemas, superiority over labels."""

    facts: tuple[Literal, ...] = ()
    rules: tuple[Rule, ...] = ()
    superiority: tuple[tuple[str, str], ...] = ()

    @property
    def constants(self) -> frozenset[str]:
        consts = set()
        for literal in self._all_literals():
            for t in literal.atom.args:
                if not is_variable(t):
                    consts.add(t)
        return frozenset(consts)

    def _all_literals(self) -> Iterator[Literal]:
        yield from self.facts
        for r in self.rules:
            yield from r.body
            yield r.head


@dataclass(frozen=True)
class GroundTheory:
    """A fully instantiated propositional theory plus its Herbrand base."""

    facts: frozenset[Literal]
    rules: tuple[Rule, ...]
    superiority: frozenset[tuple[str, str]]
    constants: frozenset[str]
    herbrand_base: frozenset[Literal]

    @cached_property
    def _head_index(self) -> dict[Literal, tuple[Rule, ...]]:
        index: dict[Literal, list[Rule]] = {}
        for r in self.rules:
            index.setdefault(r.head, []).append(r)
        return {h: tuple(rs) for h, rs in index.items()}

    def rules_for(self, kinds: Iterable[RuleKind], head: Optional[Literal] = None) -> tuple[Rule, ...]:
        """Select rules by kind and (optionally) head literal.

        Covers the usual selections: strict rules, strict-or-defeasible
        ("supportive") rules, defeasible rules, defeaters, and all rules for
        a given head.  Defeaters are included only when asked for.
        """
        wanted = set(kinds)
        if head is None:
            return tuple(r for r in self.rules if r.kind in wanted)
        return tuple(r for r in self._head_index.get(head, ()) if r.kind in wanted)


ALL_KINDS = frozenset(RuleKind)
SUPPORTIVE = frozenset({RuleKind.STRICT, RuleKind.DEFEASIBLE})


def ground(theory: SourceTheory) -> GroundTheory:
    """Instantiate every rule schema over the theory's constants.

    Instance labels are `<schema>#<c1,...,ck>` with variables taken in first
    occurrence order; variable-free schemas keep their label unchanged.  The
    superiority relation is expanded to the cross product of the instances of
    the related schemas.  Deterministic: constants are instantiated in sorted
    order, schemas in written order.
    """
    constants = sorted(theory.constants)
    for f in theory.facts:
        if not f.is_ground():
            raise GroundingError(f"fact {f} contains a variable")
    instances: list[Rule] = []
    instances_of: dict[str, list[str]] = {}
    for schema in theory.rules:
        variables = schema.variables
        if variables and not constants:
            raise GroundingError(
                f"rule {schema.label} has variables but the theory has no constants"
            )
        labels = instances_of.setdefault(schema.label, [])
        if not variables:
            instances.append(schema)
            labels.append(schema.label)
            continue
        for assignment in itertools.product(constants, repeat=len(variables)):
            binding = dict(zip(variables, assignment))
            label = f"{schema.label}#{','.join(assignment)}"
            instances.append(
                Rule(
                    label=label,
                    kind=schema.kind,
                    body=tuple(l.substitute(binding) for l in schema.body),
                    head=schema.head.substitute(binding),
                )
            )
            labels.append(label)
    expanded = set()
    for hi, lo in theory.superiority:
        for a in instances_of.get(hi, [hi]):
            for b in instances_of.get(lo, [lo]):
                expanded.add((a, b))
    facts = frozenset(theory.facts)
    return GroundTheory(
        facts=facts,
        rules=tuple(instances),
        superiority=frozenset(expanded),
        constants=frozenset(constants),
        herbrand_base=_build_base(theory, constants),
    )


def _build_base(theory: SourceTheory, constants: list[str]) -> frozenset[Literal]:
    """Both signs of every atom whose predicate and arity are written in the
    theory, over its constants.  Every ground fact, body and head literal is
    among them: it instantiates a written literal over the same constants."""
    signatures = {(l.atom.predicate, l.atom.arity) for l in theory._all_literals()}
    return frozenset(
        Literal(positive, Atom(predicate, args))
        for predicate, arity in signatures
        for args in itertools.product(constants, repeat=arity)
        for positive in (True, False)
    )


def herbrand_base(g: GroundTheory, extra: Iterable[Literal] = ()) -> frozenset[Literal]:
    """The theory's base, optionally extended with further ground literals.

    The result is closed under complement and contains every literal occurring
    in the theory's facts, bodies, and heads.
    """
    base = g.herbrand_base
    new: set[Literal] = set()
    for literal in extra:
        if not literal.is_ground():
            raise GroundingError(f"extra literal {literal} is not ground")
        if literal not in base:
            new.add(literal)
            new.add(literal.complement())
    return base | new if new else base


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: GroundTheory, allow_cyclic_superiority: bool = False) -> ValidationReport:
    """Structural checks on a ground theory.

    Raises ValidationError on duplicate labels, dangling superiority labels,
    or superiority cycles (unless `allow_cyclic_superiority`).  Superiority
    pairs over non-conflicting heads are retained with a warning: inference
    consults the relation only for conflicting pairs, so they have no effect.
    """
    report = ValidationReport()
    seen: set[str] = set()
    for r in g.rules:
        if r.label in seen:
            report.errors.append(f"duplicate rule label {r.label}")
        seen.add(r.label)
    by_label = {r.label: r for r in g.rules}
    edges: dict[str, list[str]] = {}
    for hi, lo in sorted(g.superiority):
        for l in (hi, lo):
            if l not in by_label:
                report.errors.append(f"superiority references undeclared label {l}")
        edges.setdefault(hi, []).append(lo)
        if hi in by_label and lo in by_label:
            if by_label[hi].head != by_label[lo].head.complement():
                report.warnings.append(
                    f"superiority {hi} > {lo} relates rules without conflicting heads"
                )
    cycle = _find_cycle(edges)
    if cycle is not None:
        message = "superiority cycle: " + " > ".join(cycle)
        if allow_cyclic_superiority:
            report.warnings.append(message)
        else:
            report.errors.append(message)
    if report.errors:
        raise ValidationError(report)
    return report


def _find_cycle(edges: dict[str, list[str]]) -> Optional[list[str]]:
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    parent: dict[str, str] = {}
    for start in edges:
        if color.get(start, WHITE) != WHITE:
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GREY:
                    # walk parents back to nxt to report the cycle
                    cycle = [node]
                    while cycle[-1] != nxt:
                        cycle.append(parent[cycle[-1]])
                    cycle.reverse()
                    return cycle + [nxt]
                if c == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


class Tag(Enum):
    """The four conclusion kinds, in canonical order."""

    PLUS_DELTA = "+D"
    MINUS_DELTA = "-D"
    PLUS_PARTIAL = "+d"
    MINUS_PARTIAL = "-d"

    @property
    def opposite(self) -> "Tag":
        return _OPPOSITE[self]

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_OPPOSITE = {
    Tag.PLUS_DELTA: Tag.MINUS_DELTA,
    Tag.MINUS_DELTA: Tag.PLUS_DELTA,
    Tag.PLUS_PARTIAL: Tag.MINUS_PARTIAL,
    Tag.MINUS_PARTIAL: Tag.PLUS_PARTIAL,
}
_DISPLAY = {
    Tag.PLUS_DELTA: "+Δ",
    Tag.MINUS_DELTA: "−Δ",
    Tag.PLUS_PARTIAL: "+∂",
    Tag.MINUS_PARTIAL: "−∂",
}
TAG_ORDER = (Tag.PLUS_DELTA, Tag.MINUS_DELTA, Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL)


class TaggedConclusion(NamedTuple):
    tag: Tag
    literal: Literal

    def __str__(self) -> str:
        return f"{self.tag.value} {self.literal}"


class ConclusionSet:
    """Tagged conclusions indexed by (tag, literal), with coherence and
    containment enforced on construction."""

    def __init__(self, conclusions: Iterable[TaggedConclusion]):
        grouped: dict[Tag, set[Literal]] = {tag: set() for tag in Tag}
        for c in conclusions:
            grouped[c.tag].add(c.literal)
        self._by_tag: dict[Tag, frozenset[Literal]] = {
            tag: frozenset(lits) for tag, lits in grouped.items()
        }
        self.verify_invariants()

    @classmethod
    def from_tag_sets(cls, by_tag: dict[Tag, frozenset[Literal]]) -> "ConclusionSet":
        self = cls.__new__(cls)
        self._by_tag = {tag: frozenset(by_tag.get(tag, ())) for tag in Tag}
        self.verify_invariants()
        return self

    def verify_invariants(self) -> None:
        for plus, minus in (
            (Tag.PLUS_DELTA, Tag.MINUS_DELTA),
            (Tag.PLUS_PARTIAL, Tag.MINUS_PARTIAL),
        ):
            both = self._by_tag[plus] & self._by_tag[minus]
            if both:
                raise InternalError(f"coherence violated at {sorted(map(str, both))}")
        if not self._by_tag[Tag.PLUS_DELTA] <= self._by_tag[Tag.PLUS_PARTIAL]:
            raise InternalError("containment violated: +D not within +d")
        if not self._by_tag[Tag.MINUS_PARTIAL] <= self._by_tag[Tag.MINUS_DELTA]:
            raise InternalError("containment violated: -d not within -D")

    def with_tag(self, tag: Tag) -> frozenset[Literal]:
        return self._by_tag[tag]

    def undefined_levels(self, literal: Literal) -> list[str]:
        """Which of the two levels carry no conclusion for this literal."""
        levels = []
        if literal not in self._by_tag[Tag.PLUS_DELTA] and literal not in self._by_tag[Tag.MINUS_DELTA]:
            levels.append("definite")
        if literal not in self._by_tag[Tag.PLUS_PARTIAL] and literal not in self._by_tag[Tag.MINUS_PARTIAL]:
            levels.append("partial")
        return levels

    def __contains__(self, c: TaggedConclusion) -> bool:
        return c.literal in self._by_tag[c.tag]

    def __iter__(self) -> Iterator[TaggedConclusion]:
        for tag in TAG_ORDER:
            for literal in sorted(self._by_tag[tag], key=str):
                yield TaggedConclusion(tag, literal)

    def __len__(self) -> int:
        return sum(len(lits) for lits in self._by_tag.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, ConclusionSet):
            return self._by_tag == other._by_tag
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._by_tag[tag] for tag in TAG_ORDER))

    def __repr__(self) -> str:
        return f"ConclusionSet({[str(c) for c in self]})"
