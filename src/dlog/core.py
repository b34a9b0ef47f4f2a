"""Domain types for defeasible theories: literals, rules, theories, grounding.

A defeasible theory is a triple (facts, rules, superiority).  Rules come in
three kinds: strict (->), defeasible (=>), and defeaters (~>).  Theories may
be written with rule schemas containing variables; `ground` instantiates the
schemas over the theory's constants to obtain a purely propositional theory,
which is what the engine and the two semantic oracles operate on.  It prunes:
an instance with a body literal that is no fact and no supportive head could
never apply, so it is not built, and superiority keeps only the pairs whose
heads conflict.  Neither changes a conclusion or a model (see `ground`).
Grounding works on integers: which literals are live is one flag per table
position, facts are joined on their constants' indexes, and a schema's
instances are found a column at a time: the join's rows as one column when
they bind every body variable, else along one free variable, over which
every literal's position is an arithmetic progression.

A theory as written is a `SourceTheory` of integer columns, and only the
parser (`parser.parse_theory`) makes one: it numbers each distinct literal
once and enforces what the language requires, one arity per predicate and
no variable in a fact.  `ground` reads the columns only, computing one
position per distinct literal.  The facts and rules as `Literal`s and
`Rule`s are views, built on first read; the derive path reads neither.

The Herbrand base is a table: the positive literals in text order, each
followed by its complement, so position `i ^ 1` holds the complement of
position `i`.  Each written `(predicate, arity)` has a block of it starting
at an offset (`GroundTheory.offsets`), in which an atom's place is its
arguments' constant indexes read as a number in base |constants|; a
literal's position is found by that arithmetic, never by hashing it.
`ground` builds neither the table's literals nor a rule per instance.  It
hands the position of every rule head, body literal and fact over as
`GroundTheory.positions`, and each rule's schema index, bindings and kind as
columns beside them; from there on a ground literal is named by its position
and a rule by its index.  The derive path (`validate`, the engine,
`check_derivation` and the command line's render) reads these integers
only, as do both oracles.  `GroundTheory.literals`, the table as `Literal`s,
and `GroundTheory.rules`, the rules as `Rule`s, are each built once, on first
read, where text is made: `explain`'s output and the oracles' atom names.
Superiority is handed over in `positions` too, as the index pairs `(t, s)`
for which rule t beats rule s; the engine, `check_derivation`, the model
checker and the metaprogram all test `(t, s) in positions.superiority`.
`GroundTheory.superiority` gives the same pairs as labels; no semantics
reads it.  R[q], the rules with head q, is one index by head position
(`GroundTheory.rule_index`, read per position through `rules_at`), which
`explain`, `check_derivation`, the model checker and the metaprogram share;
each filters it by kind where its inference rule reads the strict rules
R_s[q] or the supportive ones R_sd[q].  The engine, the model checker and
the metaprogram each give four flags per position (one per `Tag`) to
`ConclusionSet(g, flags)`, the one readout of every oracle, which holds
them as one byte per flag, a `bytearray` per tag, checks them as whole
columns and reads the table only to name a literal; the command line
renders straight from its `flags`, and two sets over one theory compare by
them.  `herbrand_base`
is a set view.  The model checker and the metaprogram read three-valued
truth as the codes `F, U, T = 0, 1, 2` defined here.

Every record in dlog but two is a named tuple (`typing.NamedTuple`), here
and in the other modules, so equality and hashing are those of the tuple of
their fields: an instance also equals a plain tuple of its field values, and
it can be iterated, indexed and unpacked.  `SourceTheory` is a plain class:
it equals another by its views, the facts, rules and superiority statements,
not by its columns, whose ids follow the order literals were first met in.  A record holding a dict
(`GroundTheory.offsets`, and so `metaprogram.GroundMetaProgram`) or numpy
rows (`modelcheck.ModelSet`) is not hashable.  A record that caches a value
on first use (`GroundTheory`, `GroundMetaProgram`) is a subclass without
`__slots__`, so it keeps a `__dict__` for `cached_property`.  `Rule`'s
constructor deduplicates the body; `GroundTheory.rules` builds its instances
without it, their bodies already distinct.  The one mutable record,
`ValidationReport`, is the other plain class.

`UsageError` and `CapExceededError`, which only the model oracle raises,
are defined here too, so that the command line catches them without
importing that oracle.

`parse_theory`, `ground`, the builds of `GroundTheory.literals` and
`GroundTheory.rules`, and the engine's build and run hold the cyclic GC
paused (`gc_paused`): each builds objects per rule or literal, none cyclic,
and every collection those allocations set off rescans everything live.
"""

from __future__ import annotations

import functools
import gc
import itertools
import operator
from collections import Counter
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


class UsageError(Exception):
    """A request the program cannot serve as given: a bad `DLOG_CAP`, status
    codes that are not F, U, T, or model enumeration without numpy."""


class CapExceededError(Exception):
    """Model enumeration would build more interpretations than the cap:
    `width` status pairs for each of `n` base literals, `required = (width, n)`."""

    def __init__(self, width: int, n: int, cap: int):
        super().__init__(f"enumeration needs {width}^{n} interpretations, cap is {cap}")
        self.required = (width, n)
        self.cap = cap


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


class _RuleFields(NamedTuple):
    label: str
    kind: RuleKind
    body: tuple[Literal, ...]
    head: Literal


class Rule(_RuleFields):
    """A rule schema or ground instance; the constructor deduplicates the body."""

    __slots__ = ()

    def __new__(cls, label: str, kind: RuleKind, body: Iterable[Literal], head: Literal) -> "Rule":
        # body is a set; collapse duplicates but keep written order so that
        # variable first-occurrence order (used for instance labels) is stable
        body = tuple(body)
        if len(body) > 1:
            body = tuple(dict.fromkeys(body))
        return tuple.__new__(cls, (label, kind, body, head))

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


class SourceTheory:
    """A theory as written, as columns over its distinct literals.

    `written[i]` is the i-th distinct literal, as `(positive, predicate,
    args)`, in order of first occurrence; facts and rules name literals by
    these ids.  The facts are `fact_ids`, as written, duplicates kept.  Rule
    `r` has label `labels[r]`, kind `kinds[r]`, head `heads[r]` and body
    `bodies[r]` (distinct ids, in written order, as `Rule` deduplicates a
    body).  `superiority` holds the statements' label pairs as written.
    `signatures` (the `(predicate, arity)` pairs, in first-occurrence order),
    `constants` and `variable_ids` (the literals holding a variable) are what
    numbering the literals saw.

    `facts`, `rules` and `literals` give the same theory as objects, built on
    first read, one `Literal` per id, so equal literals are one object; two
    theories are equal when these values and `superiority` are.
    `parser.parse_theory` is the one way to make a theory, so each has passed
    the parser's checks: calling the class is a `TypeError`, and the parser
    builds one with `object.__new__`.  A theory made in code is written as
    text and parsed (`scaling.chain_text`).  The repr counts the facts, rules
    and statements as written."""

    written: tuple[tuple[bool, str, tuple[str, ...]], ...]
    signatures: tuple[tuple[str, int], ...]
    constants: frozenset[str]
    variable_ids: frozenset[int]
    fact_ids: tuple[int, ...]
    labels: tuple[str, ...]
    kinds: tuple[RuleKind, ...]
    heads: tuple[int, ...]
    bodies: tuple[tuple[int, ...], ...]
    superiority: tuple[tuple[str, str], ...]

    @cached_property
    def literals(self) -> tuple[Literal, ...]:
        """`written` as `Literal`s, built on first read."""
        new = tuple.__new__
        return tuple(new(Literal, (positive, new(Atom, (predicate, args)))) for positive, predicate, args in self.written)

    @cached_property
    def facts(self) -> tuple[Literal, ...]:
        return tuple(map(self.literals.__getitem__, self.fact_ids))

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The rule schemas as `Rule`s, built on first read."""
        literals, new = self.literals, tuple.__new__
        return tuple(
            new(Rule, (label, kind, tuple(map(literals.__getitem__, body)), literals[head]))
            for label, kind, head, body in zip(self.labels, self.kinds, self.heads, self.bodies)
        )

    def _value(self) -> tuple:
        return self.facts, self.rules, self.superiority

    def __eq__(self, other) -> bool:
        if not isinstance(other, SourceTheory):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __init__(self, *args, **kwargs):
        raise TypeError("a SourceTheory is made by parser.parse_theory, not by its constructor")

    def __repr__(self) -> str:
        return f"<SourceTheory: {len(self.fact_ids)} facts, {len(self.labels)} rules, {len(self.superiority)} superiority statements>"


class Positions(NamedTuple):
    """Where a ground theory's rules and facts sit in its literal table, and
    the superiority relation over its rules by index."""

    heads: tuple[int, ...]  # heads[r]: the position of rule r's head
    bodies: tuple[tuple[int, ...], ...]  # bodies[r]: those of its body, in order
    facts: tuple[int, ...]
    superiority: frozenset[tuple[int, int]]  # (t, s): rule t beats rule s


class _GroundTheoryFields(NamedTuple):
    source: SourceTheory  # the theory as written, as columns
    constants: frozenset[str]
    offsets: dict[tuple[str, int], int]  # in table order
    positions: Positions
    # one entry per rule, beside `positions`: rule r instantiates
    # source.rules[schema_of[r]] with its variables, in first occurrence order,
    # bound to the constants at indexes bindings[r] of the sorted constants
    # (none for a variable-free schema), and its kind is kinds[r]
    schema_of: tuple[int, ...]
    bindings: tuple[tuple[int, ...], ...]
    kinds: tuple[RuleKind, ...]


class GroundTheory(_GroundTheoryFields):
    """A propositional theory instantiated from the written one, as columns
    over its Herbrand base, with the written theory's columns (`source`).

    `offsets` says where each `(predicate, arity)`'s atoms start in the
    table, and `positions` where every rule's head and body and every fact
    sit there, and which rules beat which; `ground` fills both in, with each
    rule's schema, bindings and kind.  The table itself (`literals`), the
    rules as `Rule`s (`rules`), the constant index that `position` reads, the
    rules by head position that `rules_at` reads (`rule_index`), and the
    superiority relation as label pairs are built once per theory, on first
    use; the facts as written are the source's (`source.facts`)."""

    @cached_property
    def table_size(self) -> int:
        """The number of positions in the table, `len(literals)`, read off
        the layout without building the table."""
        return _table_size(self.offsets, len(self.constants))

    @cached_property
    def literals(self) -> tuple[Literal, ...]:
        """The Herbrand base, built on first read: `literals[i ^ 1]` is the
        complement of `literals[i]` (see `_literal_table`)."""
        return _literal_table(self.offsets, sorted(self.constants))

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """The rules as `Rule`s, in index order, built on first read (see
        `_instances`)."""
        return _instances(self)

    def position(self, literal: Literal) -> Optional[int]:
        """The position of a ground literal in `literals`, or None when it is
        not in the base."""
        return _locate((literal,), self.offsets, self._constant_index)[0]

    def locate(self, literals: Iterable[Literal]) -> list[Optional[int]]:
        """`position` of each literal, in one call."""
        return _locate(literals, self.offsets, self._constant_index)

    @cached_property
    def _constant_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(sorted(self.constants))}

    @cached_property
    def rule_index(self) -> dict[int, list[int]]:
        """R[q] by head position, built on first use: the dict that
        `rules_at` reads, with no entry for a position no rule heads."""
        by_head: dict[int, list[int]] = {}
        for ri, h in enumerate(self.positions.heads):
            by_head.setdefault(h, []).append(ri)
        return by_head

    @cached_property
    def superiority(self) -> frozenset[tuple[str, str]]:
        """`positions.superiority` as pairs of rule labels, built on first
        use; no semantics reads it."""
        rules = self.rules
        return frozenset((rules[t].label, rules[s].label) for t, s in self.positions.superiority)

    @cached_property
    def herbrand_base(self) -> frozenset[Literal]:
        """The base as a set, built on first use."""
        return frozenset(self.literals)

    def rules_at(self, position: int) -> list[int]:
        """R[q] for q = `literals[position]`: the indexes of the rules with
        that head, in `rules` order, and none for a position past the table.
        The strict rules R_s[q] and the supportive ones R_sd[q] are these
        filtered by kind; defeaters belong to R[q] only.  The index is built
        from `positions` on first use (`rule_index`)."""
        return self.rule_index.get(position, [])


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

    `ground` reads the source's columns only, and relies on the parser's
    checks: no fact holds a variable and each predicate has one arity.  Each
    distinct written literal without a variable gets its position once, and
    the facts, the heads and the bodies of the variable-free schemas are
    lists of ids mapped through those positions; schemas with variables
    compile their literals from the source's table of distinct literals
    (`_template`).

    Liveness is one flag per table position, all set before any schema is
    instantiated: at the facts, at the ground heads of the strict and
    defeasible schemas, and at every position that such a head with variables
    instantiates to (`_mark`).  A ground literal is dead when its flag is
    unset.  Each schema's instances are then found in constant indexes
    (`_live_assignments`): its variables are bound first by a join over the
    facts of the body literals that no supportive head can match, the other
    body variables range over the constants, an assignment stays when every
    body position is live, and variables occurring only in the head range
    over the constants last.  When the join binds every body variable, its
    rows are one column; otherwise the last free body variable is one
    column, along which each head and body position steps by a fixed stride.
    Either way the live test, the survivors and their positions are read off
    whole columns by C builtins; Python loops over the join's rows and the
    other free variables only in the second case.

    Instances come in the order of the full grounding: schemas in written
    order, each one's assignments in sorted order of the constants.  Each is
    handed over as columns: its head and body positions (`positions`), its
    schema's index, its variables' constants as indexes into the sorted
    constants (`bindings`, none for a variable-free schema) and its kind.  A
    body position that an assignment repeats (`p(X), p(Y)` with X = Y) is
    kept once.  No `Rule` and no `Literal` is built: the table and the rules
    as `Rule`s are built on first read, and the derive path reads neither
    (see `_instances`).  The superiority relation, `positions.superiority`,
    holds the index pairs of instances of related schemas whose heads
    conflict, the only pairs inference consults; with duplicate labels,
    every schema of a label is related.  The source is kept, for `validate`
    and the views of what was written.
    """
    written, variable_ids, kinds = theory.written, theory.variable_ids, theory.kinds
    with_variables = []  # the schemas holding a variable, in order
    if variable_ids:
        with_variables = [
            s for s, (head, body) in enumerate(zip(theory.heads, theory.bodies))
            if head in variable_ids or not variable_ids.isdisjoint(body)
        ]
    constants = sorted(theory.constants)
    if with_variables and not constants:
        raise GroundingError(f"rule {theory.labels[with_variables[0]]} has variables but the theory has no constants")
    offsets = _layout(sorted(theory.signatures), len(constants))
    index = {c: i for i, c in enumerate(constants)}
    count = len(constants)
    # the position of each distinct written literal, a propositional one by
    # one lookup; None for one holding a variable (`key[1:]` is its atom)
    at = [
        _locate(((key[0], key[1:]),), offsets, index)[0] if key[2] else offsets[key[1], 0] + (not key[0])
        for key in written
    ]
    live = bytearray(_table_size(offsets, count))  # the facts and every instance of a supportive head
    fact_ids = list(dict.fromkeys(theory.fact_ids))
    fact_positions = list(map(at.__getitem__, fact_ids))
    for f in fact_positions:
        live[f] = 1
    head_at = list(map(at.__getitem__, theory.heads))
    for kind, h, head in zip(kinds, head_at, theory.heads):
        if kind is RuleKind.DEFEATER:
            continue
        if h is not None:
            live[h] = 1
        else:
            _mark(live, *_template(written[head], offsets, index, _slots((written[head],))), count)
    # only the join of schemas with variables reads the facts' arguments and the head signatures
    fact_args: dict[tuple[bool, str, int], list[tuple[int, ...]]] = {}
    head_signatures: set[tuple[bool, str, int]] = set()
    if with_variables:
        for i in fact_ids:
            key = written[i]
            fact_args.setdefault(_signature(key), []).append(tuple(map(index.__getitem__, key[2])))
        head_signatures = {_signature(written[h]) for h, kind in zip(theory.heads, kinds) if kind is not RuleKind.DEFEATER}

    heads: list[int] = []
    bodies: list[tuple[int, ...]] = []
    schema_of: list[int] = []
    bindings: list[tuple[int, ...]] = []
    starts = [0]  # schema s's instances are those from starts[s] to starts[s + 1]
    done = 0
    for s in [*with_variables, len(kinds)]:
        # the variable-free schemas before s, each its own instance when its body is live
        body_at = [tuple(map(at.__getitem__, body)) for body in theory.bodies[done:s]]
        keep = [all(map(live.__getitem__, body)) for body in body_at]
        heads += itertools.compress(head_at[done:s], keep)
        bodies += itertools.compress(body_at, keep)
        schema_of += itertools.compress(range(done, s), keep)
        bindings += itertools.repeat((), len(heads) - len(bindings))
        starts += itertools.islice(itertools.accumulate(keep, initial=starts[-1]), 1, None)
        if s == len(kinds):
            break
        body = [written[i] for i in theory.bodies[s]]
        head = written[theory.heads[s]]
        found_heads, found_bodies, found_bindings = _live_assignments(
            body, head, offsets, index, fact_args, head_signatures, live
        )
        heads += found_heads
        bodies += found_bodies
        schema_of += itertools.repeat(s, len(found_heads))
        bindings += found_bindings
        starts.append(len(heads))
        done = s + 1
    # the label of each schema that a superiority statement names -> the indexes of its instances
    members: dict[str, list[int]] = {label: [] for statement in theory.superiority for label in statement}
    for s in itertools.compress(range(len(kinds)), map(members.__contains__, theory.labels)):
        members[theory.labels[s]] += range(starts[s], starts[s + 1])
    return GroundTheory(
        source=theory,
        constants=theory.constants,
        offsets=offsets,
        positions=Positions(tuple(heads), tuple(bodies), tuple(fact_positions), _conflicting_pairs(theory.superiority, members, heads)),
        schema_of=tuple(schema_of),
        bindings=tuple(bindings),
        kinds=tuple(map(kinds.__getitem__, schema_of)),
    )


def _layout(signatures: list[tuple[str, int]], count: int) -> dict[tuple[str, int], int]:
    """The position at which each of the sorted `signatures` starts in the
    table over `count` constants: both signs of each atom, one block per
    signature, in order."""
    offsets: dict[tuple[str, int], int] = {}
    at = 0
    for predicate, arity in signatures:
        offsets[predicate, arity] = at
        at += 2 * count**arity
    return offsets


def _table_size(offsets: dict[tuple[str, int], int], count: int) -> int:
    """The number of positions in the table that `offsets` lays out over
    `count` constants: where its last signature's block ends."""
    if not offsets:
        return 0
    (_, arity), at = next(reversed(offsets.items()))
    return at + 2 * count**arity


@gc_paused
def _literal_table(offsets: dict[tuple[str, int], int], constants: list[str]) -> tuple[Literal, ...]:
    """Both signs of every atom of the signatures in `offsets` over the
    sorted `constants`, the positive one first, each signature's block at
    its offset.  Every ground fact, body and head literal is among them: it
    instantiates a written literal over the same constants.

    The atoms come sorted by predicate, arity and arguments.  For the names
    the parser accepts, that is text order: `(`, `,` and `)` sort before
    every identifier character, and a predicate has one arity.
    `literals[0::2] + literals[1::2]` is the base in text order, since `~`
    sorts after the lowercase letter each predicate starts with.  The atoms
    of a signature are in `itertools.product` order, so `_locate` finds a
    literal by arithmetic on its constants' indexes.
    """
    # `tuple.__new__` builds each named tuple without its Python-level
    # constructor, which took a third of this build on the 100k chain and
    # half on reach; the signatures of one arity share its argument tuples
    new = tuple.__new__
    table: list[Literal] = []
    arguments: dict[int, list[tuple[str, ...]]] = {}
    for predicate, arity in offsets:
        if arity not in arguments:
            arguments[arity] = list(itertools.product(constants, repeat=arity))
        for args in arguments[arity]:
            atom = new(Atom, (predicate, args))
            table += (new(Literal, (True, atom)), new(Literal, (False, atom)))
    return tuple(table)


@gc_paused
def _instances(g: GroundTheory) -> tuple[Rule, ...]:
    """Each rule of `g` as a `Rule`, its literals the table's own objects,
    found by position.  An instance of a variable-free schema has the
    schema's label; one of a schema with variables is labelled
    `<schema>#<c1,...,ck>`, its constants in the order of its bindings."""
    literals, constants, labels = g.literals, sorted(g.constants), g.source.labels
    new = tuple.__new__  # the bodies are distinct positions: Rule's dedupe is done
    rules = []
    for s, values, kind, head, body in zip(g.schema_of, g.bindings, g.kinds, g.positions.heads, g.positions.bodies):
        label = f"{labels[s]}#{','.join([constants[i] for i in values])}" if values else labels[s]
        rules.append(new(Rule, (label, kind, tuple(map(literals.__getitem__, body)), literals[head])))
    return tuple(rules)


def _locate(
    literals: Iterable[tuple[bool, tuple[str, tuple[str, ...]]]], offsets: dict[tuple[str, int], int], index: dict[str, int]
) -> list[Optional[int]]:
    """The position of each ground literal `(positive, (predicate, args))` in
    the table that `offsets` lays out over the constants numbered by `index`,
    or None where it is not there: its signature's offset, plus twice its
    arguments read as a number in base |constants|, plus 1 when it is
    negative.  One loop for all of them, since a call per literal cost a
    fifth more on the 479,684 literals of a whole-run replay of reach-201."""
    width, at = len(index), []
    for positive, (predicate, args) in literals:
        q = offsets.get((predicate, len(args)))
        if q is not None:
            atom = 0
            for t in args:
                i = index.get(t)
                if i is None:
                    q = None
                    break
                atom = atom * width + i
            else:
                q += 2 * atom + (not positive)
        at.append(q)
    return at


def _slots(literals) -> dict[str, int]:
    """The variables of `(positive, predicate, args)` literals, numbered in
    first occurrence order."""
    variables = dict.fromkeys(t for _, _, args in literals for t in args if is_variable(t))
    return {v: k for k, v in enumerate(variables)}


def _template(
    key: tuple[bool, str, tuple[str, ...]], offsets: dict[tuple[str, int], int], index: dict[str, int], slots: dict[str, int]
) -> tuple[int, list[int]]:
    """A schema literal `(positive, predicate, args)` compiled to
    arithmetic: the part of `_locate`'s sum its sign and constants fix, and per
    variable slot the stride by which the slot's constant index moves the
    position (0 for a slot the literal does not hold; a repeated variable's
    strides add up)."""
    positive, predicate, args = key
    fixed = offsets[predicate, len(args)] + (not positive)
    strides = [0] * len(slots)
    stride = 2 * len(index) ** len(args)
    for t in args:
        stride //= len(index)
        if t in slots:
            strides[slots[t]] += stride
        else:
            fixed += stride * index[t]
    return fixed, strides


def _mark(live: bytearray, fixed: int, strides: list[int], count: int) -> None:
    """Set `live` at every position that a compiled schema literal
    instantiates to, each of its variables ranging over `count` constants;
    the literal's slots are its own variables, so no stride is 0."""
    *outer, inner = strides
    starts = [fixed]
    for stride in outer:
        starts = [s + stride * i for s in starts for i in range(count)]
    ones = b"\1" * count
    for s in starts:
        live[s : s + inner * count : inner] = ones


def _conflicting_pairs(statements, members, heads) -> frozenset[tuple[int, int]]:
    """The pairs of instance indexes that a superiority statement relates and
    whose heads are complementary.  `members` maps a schema label to the
    indexes of its instances, and `heads` holds their head positions.  Complementary heads are the positions `h` and `h ^ 1`; the
    instances of an inferior schema with more than one are indexed by head
    atom (`h >> 1`) on first use."""
    by_atom: dict[str, dict[int, list[int]]] = {}
    pairs = set()
    for hi, lo in statements:
        superior, inferior = members.get(hi), members.get(lo)
        if not superior or not inferior:
            continue
        if len(inferior) > 1 and lo not in by_atom:
            by_atom[lo] = index = {}
            for b in inferior:
                index.setdefault(heads[b] >> 1, []).append(b)
        for a in superior:
            for b in inferior if len(inferior) == 1 else by_atom[lo].get(heads[a] >> 1, ()):
                if heads[a] ^ 1 == heads[b]:
                    pairs.add((a, b))
    return frozenset(pairs)


def _signature(key: tuple[bool, str, tuple[str, ...]]) -> tuple[bool, str, int]:
    positive, predicate, args = key
    return positive, predicate, len(args)


def _fact_join(body, slots, fact_args, head_signatures) -> tuple[list[int], list[tuple[int, ...]]]:
    """Bindings for the variables of the body literals that no supportive
    head can match: the slots bound, and distinct rows holding their
    constants' indexes in that order.  A hash join over `fact_args`, literal
    by literal, that binds each variable at its first argument; every
    assignment under which each such literal is a fact is among the rows.
    Constants and repeated variables are left to the live test, since such
    a literal is live exactly where it is a fact."""
    bound: list[int] = []
    rows: list[tuple[int, ...]] = [()]
    for l in body:
        signature = _signature(l)
        if signature in head_signatures:
            continue
        first: dict[int, int] = {}  # slot -> its first argument position
        for j, t in enumerate(l[2]):
            if t in slots:
                first.setdefault(slots[t], j)
        key_at = [first[k] for k in bound if k in first]
        from_row = [i for i, k in enumerate(bound) if k in first]
        new = [k for k in first if k not in bound]
        new_at = [first[k] for k in new]
        matches: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for values in fact_args.get(signature, ()):
            matches.setdefault(tuple(map(values.__getitem__, key_at)), []).append(tuple(map(values.__getitem__, new_at)))
        rows = list(dict.fromkeys([row + more for row in rows for more in matches.get(tuple(map(row.__getitem__, from_row)), ())]))
        bound += new
    return bound, rows


def _live_assignments(
    body, head, offsets, index, fact_args, head_signatures, live
) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The instances of a schema with variables, its `body` and `head` as
    `(positive, predicate, args)`, under which no body literal is dead, as
    three columns in sorted order of their assignments: head positions, body
    positions (distinct, in written order) and bindings (the constants'
    indexes in first occurrence order of the variables, body then head).

    The variables of the body literals that no supportive head can match are
    bound first (`_fact_join`); the other body variables are *free*.  When
    none is free, the join's rows are the assignments, taken as one column:
    each slot's values are a column, each compiled literal's positions are
    the column `fixed + Σ stride · value`, liveness is one bytes column per
    body literal, and the rows where all of them are 1 (an AND of the
    columns read as ints) are the survivors.  Otherwise the last free
    variable in slot order is the inner column: along it each compiled
    literal's position is `range(base, base + step * |C|, step)`, its step
    the literal's stride for that variable, or one constant position when
    the step is 0, and liveness is a slice of `live`; Python loops over the
    join's rows and the other free variables.  Either way the survivors are
    taken by `itertools.compress` over rows zipped from the value and
    position columns, and the head position is one more column.  Variables
    occurring only in the head come last in slot order and range over the
    constants after the sort.

    Until the sort, an instance is one flat row of values and positions;
    its bindings and body tuples are cut from the sorted rows afterwards, so
    what outlives `ground` is allocated together.  Zipped into those tuples
    during the join instead, beside the rows, they made the first full
    collection after `ground` take 2.1-2.5x as long at 201 reach constants."""
    mul, repeat = operator.mul, itertools.repeat
    count = len(index)
    slots = _slots((*body, head))
    in_body = len(_slots(body))  # the body's variables come first
    bound, rows = _fact_join(body, slots, fact_args, head_signatures)
    if not rows:
        return [], [], []
    free = [k for k in range(in_body) if k not in bound]
    templates = [_template(l, offsets, index, slots) for l in (head, *body)]
    if not free:  # the rows are the assignments: one column per slot, in slot order
        values = [column for _, column in sorted(zip(bound, zip(*rows)))]
        columns = values[:]
        ok = int.from_bytes(b"\1" * len(rows), "big")  # one byte per row, 1 while every body position is live
        for j, (fixed, strides) in enumerate(templates):
            at = repeat(fixed, len(rows))
            for stride, column in zip(strides, values):
                if stride:
                    at = map(operator.add, at, map(stride.__mul__, column))
            columns.append(at := list(at))
            if j:
                ok &= int.from_bytes(bytes(map(live.__getitem__, at)), "big")
        found = list(itertools.compress(zip(*columns), ok.to_bytes(len(rows), "big")))
    else:
        inner = free.pop()
        steps = [strides[inner] for _, strides in templates]
        values = [0] * in_body  # the inner slot stays 0, so a position computed from it is its column's base
        found = []
        for row in rows:
            for k, v in zip(bound, row):
                values[k] = v
            for more in itertools.product(range(count), repeat=len(free)):
                for k, v in zip(free, more):
                    values[k] = v
                columns = list(map(repeat, values, repeat(count)))
                columns[inner] = range(count)
                selectors = []
                for j, ((fixed, strides), step) in enumerate(zip(templates, steps)):
                    at = fixed + sum(map(mul, strides, values))
                    if step:
                        columns.append(range(at, at + step * count, step))
                        if j:
                            selectors.append(live[at : at + step * count : step])
                    elif not j or live[at]:
                        columns.append(repeat(at, count))
                    else:
                        break
                else:
                    ok = selectors[0] if len(selectors) == 1 else bytes(map(min, *selectors))
                    found += itertools.compress(zip(*columns), ok)
    found.sort()
    heads = list(map(operator.itemgetter(in_body), found))
    bodies = list(map(operator.itemgetter(slice(in_body + 1, None)), found))
    bindings = list(map(operator.itemgetter(slice(in_body)), found))
    # only literals of one signature can meet under an assignment (p(X), p(Y) with X = Y)
    if len(set(map(_signature, body))) < len(body):
        bodies = list(map(tuple, map(dict.fromkeys, bodies)))
    if in_body < len(slots):
        head_strides = templates[0][1]
        more = list(itertools.product(range(count), repeat=len(slots) - in_body))
        shift = [sum(map(mul, head_strides[in_body:], m)) for m in more]
        heads = [at + d for at in heads for d in shift]
        bodies = [body for body in bodies for _ in more]
        bindings = [binding + m for binding in bindings for m in more]
    return heads, bodies, bindings


class ValidationReport:
    """The errors and warnings of `validate`, each a list of messages."""

    def __init__(self, errors: Optional[list[str]] = None, warnings: Optional[list[str]] = None):
        self.errors = [] if errors is None else errors
        self.warnings = [] if warnings is None else warnings

    def __repr__(self) -> str:
        return f"ValidationReport(errors={self.errors!r}, warnings={self.warnings!r})"

    def __eq__(self, other) -> bool:  # by value, so unhashable, as the dataclass was
        if not isinstance(other, ValidationReport):
            return NotImplemented
        return (self.errors, self.warnings) == (other.errors, other.warnings)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: GroundTheory, allow_cyclic_superiority: bool = False) -> ValidationReport:
    """Structural checks on the theory as written.

    Raises ValidationError on duplicate rule labels, superiority statements
    naming an undeclared label, or superiority cycles (unless
    `allow_cyclic_superiority`).  These are checked on the written labels and
    statements, so a schema without surviving instances still counts; each
    bad label is reported once, in the order first met.  A cycle among the
    statements exists iff one exists among the instance pairs of the full
    grounding, which relates every instance of the superior schema to every
    instance of the inferior one, and every schema has an instance there.
    A statement that leaves no pair of instances with conflicting heads gets
    a warning: inference consults the relation only for conflicting pairs,
    so it has no effect.
    """
    report = ValidationReport()
    labels, of = g.source.labels, g.schema_of
    declared = Counter(labels)
    report.errors += [f"duplicate rule label {l}" for l, k in declared.items() if k > 1]
    effective = {(labels[of[t]], labels[of[s]]) for t, s in g.positions.superiority}
    statements = set(g.source.superiority)
    tops, bottoms = set(map(operator.itemgetter(0), statements)), set(map(operator.itemgetter(1), statements))
    missing = set(itertools.filterfalse(declared.__contains__, tops | bottoms))  # not `difference`, which walks `declared`
    if missing:  # only the statements that a message names are sorted
        named = sorted(itertools.filterfalse(missing.isdisjoint, statements))
        undeclared = dict.fromkeys(l for pair in named for l in pair if l in missing)
        report.errors += [f"superiority references undeclared label {l}" for l in undeclared]
    idle = sorted(filter(missing.isdisjoint, statements - effective))
    report.warnings += [f"superiority {hi} > {lo} relates no instances with conflicting heads" for hi, lo in idle]
    both = tops & bottoms  # a label on a cycle stands above one label and below another
    if both and _has_cycle(filter(both.issuperset, statements)):
        import graphlib  # loaded only to name a cycle

        graph = graphlib.TopologicalSorter()
        for hi, lo in sorted(statements):
            graph.add(hi, lo)
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


def _has_cycle(statements: Iterable[tuple[str, str]]) -> bool:
    """Whether the superiority statements `(superior, inferior)` close a
    cycle, by Kahn's count: take labels that no statement places above
    another still left, until none are; a cycle is what remains."""
    above: dict[str, list[str]] = {}  # inferior -> the labels it stands under
    below: dict[str, int] = {}  # label -> statements placing it above one not yet taken
    for hi, lo in statements:
        above.setdefault(lo, []).append(hi)
        below[hi] = below.get(hi, 0) + 1
        below.setdefault(lo, 0)
    ready = [label for label, count in below.items() if not count]
    for label in ready:  # grows while it is read
        for hi in above.get(label, ()):
            below[hi] -= 1
            if not below[hi]:
                ready.append(hi)
    return len(ready) < len(below)


# three-valued truth as codes in truth order, which both semantic oracles
# read: a Kleene conjunction is the least code of its conjuncts (T when there
# are none), a disjunction the greatest (F when there are none), and the
# negation of v is T - v
F, U, T = 0, 1, 2


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


_CODE = {tag: code for code, tag in enumerate(Tag)}  # a tag's position in `Tag`, as the flag columns are indexed


class TaggedConclusion(NamedTuple):
    tag: Tag
    literal: Literal

    def __str__(self) -> str:
        return f"{self.tag.value} {self.literal}"


class ConclusionSet:
    """Tagged conclusions over a ground theory's table, as four flag columns,
    one `bytearray` per `Tag` in `Tag` order: the k-th tag holds of
    `g.literals[i]` iff `flags[k][i]` is 1.  A `bytearray` given (the
    engine's) is kept rather than copied, and any other sequence of truth
    values (the oracles' lists) is converted.  Coherence and containment are
    checked on construction, as four ANDs of flag columns read as ints; the
    positions are walked only to name a breach.  A literal is found by the
    theory's arithmetic (`GroundTheory.position`), and the table is read only
    to name a literal; one outside it carries no conclusion.  Two sets over
    one theory compare by flags, any others by tag."""

    def __init__(self, g: GroundTheory, flags: Sequence[Sequence[bool]]):
        if [len(f) for f in flags] != [g.table_size] * len(Tag):
            raise ValueError(f"expected {len(Tag)} flag sequences of length {g.table_size}")
        self._theory = g
        self.flags = [f if type(f) is bytearray else bytearray(f) for f in flags]
        self.verify_invariants()

    @classmethod
    def from_tag_sets(cls, g: GroundTheory, by_tag: dict[Tag, Iterable[Literal]]) -> "ConclusionSet":
        """The set over `g`'s table holding each tag of the literals given
        for it; a literal outside the table is a `ValueError`."""
        flags = [bytearray(g.table_size) for _ in Tag]
        for tag, literals in by_tag.items():
            literals = list(literals)
            held = flags[_CODE[tag]]
            for literal, i in zip(literals, g.locate(literals)):
                if i is None:
                    raise ValueError(f"{literal} is not in the theory's base")
                held[i] = 1
        return cls(g, flags)

    def verify_invariants(self) -> None:
        pd, md, pp, mp = columns = [int.from_bytes(held, "big") for held in self.flags]
        for plus, minus in ((0, 1), (2, 3)):
            if columns[plus] & columns[minus]:
                both = itertools.compress(self._theory.literals, map(operator.and_, self.flags[plus], self.flags[minus]))
                raise InternalError(f"coherence violated at {sorted(map(str, both))}")
        if pd & ~pp:
            raise InternalError("containment violated: +D not within +d")
        if mp & ~md:
            raise InternalError("containment violated: -d not within -D")

    def with_tag(self, tag: Tag) -> frozenset[Literal]:
        return frozenset(itertools.compress(self._theory.literals, self.flags[_CODE[tag]]))

    def undefined_levels(self, literal: Literal) -> list[str]:
        """Which of the two levels carry no conclusion for this literal."""
        i = self._theory.position(literal)
        if i is None:
            return ["definite", "partial"]
        pd, md, pp, mp = self.flags
        levels = []
        if not (pd[i] or md[i]):
            levels.append("definite")
        if not (pp[i] or mp[i]):
            levels.append("partial")
        return levels

    def __contains__(self, c: TaggedConclusion) -> bool:
        i = self._theory.position(c.literal)
        return i is not None and bool(self.flags[_CODE[c.tag]][i])

    def __iter__(self) -> Iterator[TaggedConclusion]:
        for tag in Tag:
            for literal in sorted(self.with_tag(tag), key=str):
                yield TaggedConclusion(tag, literal)

    def __len__(self) -> int:
        return sum(map(sum, self.flags))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConclusionSet):
            return NotImplemented
        if self._theory is other._theory:
            return self.flags == other.flags
        return all(self.with_tag(tag) == other.with_tag(tag) for tag in Tag)

    def __hash__(self) -> int:
        return hash(tuple(self.with_tag(tag) for tag in Tag))

    def __repr__(self) -> str:
        return f"ConclusionSet({[str(c) for c in self]})"

