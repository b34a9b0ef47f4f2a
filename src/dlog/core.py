"""Domain types for defeasible theories: literals, rules, theories, grounding.

A defeasible theory is a triple (facts, rules, superiority).  Rules come in
three kinds: strict (->), defeasible (=>), and defeaters (~>).  Theories may
be written with rule schemas containing variables; `ground` instantiates the
schemas over the theory's constants to obtain a purely propositional theory,
which is what the engine and the two semantic oracles operate on.  It prunes:
an instance with a body literal that is no fact and no supportive head could
never apply, so it is not built, and superiority keeps only the pairs whose
heads conflict.  Neither changes a conclusion or a model (see `ground`).

`GroundTheory.literals` is the Herbrand base, built once by `ground`: the
positive literals in text order, each followed by its complement.  The
engine, the model checker and the metaprogram each give a status per
position of it, and `ConclusionSet.from_table` reads the conclusions off
those; the command line renders from it.  `herbrand_base` is a set view.

`Atom`, `Literal` and `TaggedConclusion` are named tuples, so equality and
hashing are those of the tuple of their fields: an instance also equals a
plain tuple of its field values, and it can be iterated and unpacked.
The same holds for `metaprogram.MetaAtom`, `BodyLiteral` and `Clause`.
`Rule` stays a dataclass because its constructor deduplicates the body.

`parse_theory`, `ground` and the engine's build and run hold the cyclic GC
paused (`gc_paused`): each builds objects per rule and literal, none cyclic,
and every collection those allocations set off rescans everything live.
"""

from __future__ import annotations

import functools
import gc
import graphlib
import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class GroundingError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.errors))
        self.report = report


class InternalError(Exception):
    """An internal invariant was violated.  Always indicates a bug."""


def gc_paused(fn):
    """`fn`, run with the cyclic GC paused and then left as the caller had
    it, also when `fn` raises.  Every collection rescans everything live, so
    with the GC on a stage that builds an object per rule or literal grows
    faster than its input: the engine took 3.0-3.5x as long on a 100k-rule
    chain as on a 50k one, and about 2x with the GC paused."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        resume = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if resume:
                gc.enable()

    return paused


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
    """A propositional theory instantiated from the written one, its Herbrand
    base, and the written rule labels and superiority statements."""

    facts: frozenset[Literal]
    rules: tuple[Rule, ...]
    superiority: frozenset[tuple[str, str]]
    constants: frozenset[str]
    literals: tuple[Literal, ...]  # the base; literals[i ^ 1] is the complement of literals[i]
    written_labels: tuple[str, ...]  # rule labels as written, one per schema
    written_superiority: tuple[tuple[str, str], ...]  # statements as written

    @cached_property
    def _selections(self) -> dict[frozenset[RuleKind], dict[Optional[Literal], tuple[Rule, ...]]]:
        return {}

    @cached_property
    def herbrand_base(self) -> frozenset[Literal]:
        """The base as a set, built on first use."""
        return frozenset(self.literals)

    def rules_for(self, kinds: Iterable[RuleKind], head: Optional[Literal] = None) -> tuple[Rule, ...]:
        """Select rules by kind and (optionally) head literal, in `rules` order.

        Covers the usual selections: strict rules (`STRICT_ONLY`),
        strict-or-defeasible ("supportive") rules (`SUPPORTIVE`), and all
        rules (`ALL_KINDS`), each for all heads or for one.  Defeaters are
        included only when asked for.  The first call for a set of kinds
        indexes the rules by head; later calls with the same frozenset look
        the selection up.
        """
        if not isinstance(kinds, frozenset):
            kinds = frozenset(kinds)
        by_head = self._selections.get(kinds)
        if by_head is None:
            index: dict[Optional[Literal], list[Rule]] = {None: []}
            for r in self.rules:
                if r.kind in kinds:
                    index[None].append(r)
                    index.setdefault(r.head, []).append(r)
            by_head = self._selections[kinds] = {h: tuple(rs) for h, rs in index.items()}
        return by_head.get(head, ())


STRICT_ONLY = frozenset({RuleKind.STRICT})
SUPPORTIVE = frozenset({RuleKind.STRICT, RuleKind.DEFEASIBLE})
ALL_KINDS = frozenset(RuleKind)


@gc_paused
def ground(theory: SourceTheory) -> GroundTheory:
    """Instantiate the rule schemas over the theory's constants, building only
    the instances whose body can hold.

    A ground body literal is *dead* when it is not a fact and matches the head
    of no strict or defeasible schema (a match respects constants and repeated
    variables; defeater heads do not count).  No instance with a dead body
    literal is built.  This is sound: in the full grounding a dead literal has
    no fact and no supportive rule, so it is -D and -d and False at both
    levels in every model; a rule with it in the body is then discarded at
    both levels, so it supports nothing, no attack of it succeeds and it
    beats no attacker, and leaving it out changes no conclusion and no model.
    The pruning is one round on the schema heads, not a fixpoint over the
    surviving rules: `r: p => p` keeps `r`, because `p` matches its own head,
    so `p` stays undefined.

    Each schema's instances are found by a join: its variables are bound
    first from the facts of the body literals that no supportive head can
    match, the other body literals are checked, and variables occurring only
    in the head range over the constants.

    Instance labels are `<schema>#<c1,...,ck>` with variables taken in first
    occurrence order; variable-free schemas keep their label unchanged.
    Instances come in the order of the full grounding: schemas in written
    order, each one's assignments in sorted order of the constants.  The
    superiority relation holds the pairs of instances of related schemas
    whose heads conflict, the only pairs inference consults.  The written
    labels and superiority statements are kept for `validate`.
    """
    constants = sorted(theory.constants)
    for f in theory.facts:
        if not f.is_ground():
            raise GroundingError(f"fact {f} contains a variable")
    facts = frozenset(theory.facts)
    fact_args: dict[tuple, list[tuple[str, ...]]] = {}
    for f in facts:
        fact_args.setdefault(_signature(f), []).append(f.atom.args)
    variables_of = [schema.variables for schema in theory.rules]
    heads = {schema.head for schema in theory.rules if schema.kind is not RuleKind.DEFEATER}
    open_heads: dict[tuple, list[tuple[str, ...]]] = {}  # signature -> argument patterns
    for schema, variables in zip(theory.rules, variables_of):
        if variables and schema.kind is not RuleKind.DEFEATER and not schema.head.is_ground():
            open_heads.setdefault(_signature(schema.head), []).append(schema.head.atom.args)
    # only the join of variable-bearing schemas reads the head signatures
    head_signatures = {_signature(h) for h in heads} if any(variables_of) else set()
    known_live = facts | heads

    def is_live(literal: Literal) -> bool:
        return literal in known_live or any(
            _match(pattern, literal.atom.args, {}) is not None
            for pattern in open_heads.get(_signature(literal), ())
        )

    instances: list[Rule] = []
    schemas: list[str] = []  # the schema label of each instance
    for schema, variables in zip(theory.rules, variables_of):
        if variables and not constants:
            raise GroundingError(
                f"rule {schema.label} has variables but the theory has no constants"
            )
        if not variables:
            if known_live.issuperset(schema.body) or all(map(is_live, schema.body)):
                instances.append(schema)
                schemas.append(schema.label)
            continue
        for assignment in _live_assignments(schema, variables, constants, fact_args, head_signatures, is_live):
            binding = dict(zip(variables, assignment))
            instances.append(
                Rule(
                    label=f"{schema.label}#{','.join(assignment)}",
                    kind=schema.kind,
                    body=tuple(l.substitute(binding) for l in schema.body),
                    head=schema.head.substitute(binding),
                )
            )
            schemas.append(schema.label)
    return GroundTheory(
        facts=facts,
        rules=tuple(instances),
        superiority=_conflicting_pairs(theory.superiority, zip(schemas, instances)),
        constants=frozenset(constants),
        literals=_literal_table(theory, constants),
        written_labels=tuple(r.label for r in theory.rules),
        written_superiority=tuple(theory.superiority),
    )


def _conflicting_pairs(statements, instances) -> frozenset[tuple[str, str]]:
    """The pairs of instance labels that a superiority statement relates and
    whose heads are complementary, found through an index of the heads of
    each related schema's instances; `instances` holds (schema label, rule)."""
    related = {label for statement in statements for label in statement}
    # schema label -> head atom -> (sign, label) of each instance with that head atom
    by_atom: dict[str, dict[Atom, list[tuple[bool, str]]]] = {}
    for schema, rule in instances:
        if schema in related:
            by_atom.setdefault(schema, {}).setdefault(rule.head.atom, []).append(
                (rule.head.positive, rule.label)
            )
    pairs = set()
    for hi, lo in statements:
        superior, inferior = by_atom.get(hi), by_atom.get(lo)
        if superior and inferior:
            for atom, ours in superior.items():
                for sign, a in ours:
                    for other, b in inferior.get(atom, ()):
                        if other != sign:
                            pairs.add((a, b))
    return frozenset(pairs)


def _signature(literal: Literal) -> tuple[bool, str, int]:
    return literal.positive, literal.atom.predicate, len(literal.atom.args)


def _match(pattern: tuple[str, ...], args: tuple[str, ...], binding: dict[str, str]) -> Optional[dict[str, str]]:
    """`binding` extended so that `pattern` instantiates to the ground `args`,
    or None when no extension does."""
    extended = dict(binding)
    for term, value in zip(pattern, args):
        if is_variable(term):
            if extended.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return extended


def _live_assignments(schema, variables, constants, fact_args, head_signatures, is_live) -> list[tuple[str, ...]]:
    """The assignments to the schema's `variables`, in sorted order, under
    which no body literal is dead."""
    fact_only = [l for l in schema.body if _signature(l) not in head_signatures]
    # a literal that some supportive head matches as written, its variables
    # taken as constants, is live in every instance and needs no check
    rest = [l for l in schema.body if _signature(l) in head_signatures and not is_live(l)]
    bindings: list[dict[str, str]] = [{}]
    for l in fact_only:
        bindings = [
            extended
            for binding in bindings
            for args in fact_args.get(_signature(l), ())
            if (extended := _match(l.atom.args, args, binding)) is not None
        ]
    bound = {v for l in fact_only for v in l.variables}
    body_free = [v for v in dict.fromkeys(v for l in rest for v in l.variables) if v not in bound]
    unchecked = [v for v in variables if v not in bound and v not in body_free]
    found = []
    for binding in bindings:
        for values in itertools.product(constants, repeat=len(body_free)):
            binding.update(zip(body_free, values))
            if all(is_live(l.substitute(binding)) for l in rest):
                for more in itertools.product(constants, repeat=len(unchecked)):
                    binding.update(zip(unchecked, more))
                    found.append(tuple(binding[v] for v in variables))
    found.sort()
    return found


def _literal_table(theory: SourceTheory, constants: list[str]) -> tuple[Literal, ...]:
    """Both signs of every atom whose predicate and arity are written in the
    theory, over its constants, the positive one first.  Every ground fact,
    body and head literal is among them: it instantiates a written literal
    over the same constants.

    The atoms come sorted by predicate, arity and arguments (`constants` is
    sorted).  For the names the parser accepts, that is text order: `(`,
    `,` and `)` sort before every identifier character, and a predicate has
    one arity.  `literals[0::2] + literals[1::2]` is the base in text order,
    since `~` sorts after the lowercase letter each predicate starts with.
    """
    signatures = sorted({(l.atom.predicate, len(l.atom.args)) for l in theory._all_literals()})
    table: list[Literal] = []
    for predicate, arity in signatures:
        for args in itertools.product(constants, repeat=arity):
            atom = Atom(predicate, args)
            table += (Literal(True, atom), Literal(False, atom))
    return tuple(table)


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: GroundTheory, allow_cyclic_superiority: bool = False) -> ValidationReport:
    """Structural checks on the theory as written.

    Raises ValidationError on duplicate rule labels, superiority statements
    naming an undeclared label, or superiority cycles (unless
    `allow_cyclic_superiority`).  These are checked on the written labels and
    statements, so a schema without surviving instances still counts.  A
    cycle among the statements exists iff one exists among the instance pairs
    of the full grounding, which relates every instance of the superior schema
    to every instance of the inferior one, and every schema has an instance
    there.  A statement that leaves no pair of instances with conflicting
    heads gets a warning: inference consults the relation only for
    conflicting pairs, so it has no effect.
    """
    report = ValidationReport()
    declared: set[str] = set()
    for label in g.written_labels:
        if label in declared:
            report.errors.append(f"duplicate rule label {label}")
        declared.add(label)
    # an instance label is its schema's label, or that label, "#" and the bindings
    effective = {(hi.partition("#")[0], lo.partition("#")[0]) for hi, lo in g.superiority}
    graph = graphlib.TopologicalSorter()
    for hi, lo in sorted(set(g.written_superiority)):
        undeclared = [l for l in (hi, lo) if l not in declared]
        for l in undeclared:
            report.errors.append(f"superiority references undeclared label {l}")
        graph.add(hi, lo)
        if not undeclared and (hi, lo) not in effective:
            report.warnings.append(
                f"superiority {hi} > {lo} relates no instances with conflicting heads"
            )
    try:
        graph.prepare()
    except graphlib.CycleError as e:
        # the cycle comes as a list in which each label precedes the next,
        # that is, each is inferior to the next
        message = "superiority cycle: " + " > ".join(reversed(e.args[1]))
        if allow_cyclic_superiority:
            report.warnings.append(message)
        else:
            report.errors.append(message)
    if report.errors:
        raise ValidationError(report)
    return report


class Tag(Enum):
    """The four conclusion kinds, in canonical order."""

    PLUS_DELTA = "+D"
    MINUS_DELTA = "-D"
    PLUS_PARTIAL = "+d"
    MINUS_PARTIAL = "-d"

    @property
    def display(self) -> str:
        return _DISPLAY[self]


_DISPLAY = {
    Tag.PLUS_DELTA: "+Δ",
    Tag.MINUS_DELTA: "−Δ",
    Tag.PLUS_PARTIAL: "+∂",
    Tag.MINUS_PARTIAL: "−∂",
}


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

    @classmethod
    def from_table(cls, literals: Sequence[Literal], holds: Iterable[Iterable[bool]]) -> "ConclusionSet":
        """The conclusions over a literal table: the k-th `Tag` holds of
        `literals[i]` iff `holds[k][i]` is true, for one sequence of truth
        values per tag, such as a row of flags or a numpy bool column."""
        return cls.from_tag_sets(
            {tag: frozenset(itertools.compress(literals, flags)) for tag, flags in zip(Tag, holds, strict=True)}
        )

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
        for tag in Tag:
            for literal in sorted(self._by_tag[tag], key=str):
                yield TaggedConclusion(tag, literal)

    def __len__(self) -> int:
        return sum(len(lits) for lits in self._by_tag.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, ConclusionSet):
            return self._by_tag == other._by_tag
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._by_tag[tag] for tag in Tag))

    def __repr__(self) -> str:
        return f"ConclusionSet({[str(c) for c in self]})"
