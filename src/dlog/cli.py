"""Command-line surface.

Exit codes: 0 ok/proved, 1 output closed by its reader before it was all
written (`dlog derive f.dl | head`; nothing is printed on stderr), 2 bad
input, 3 queried conclusion not derivable, 4 enumeration cap exceeded,
5 internal invariant breach (including any divergence between the three
semantics, which falsifies the correspondence the artifact is built on).

Bad input (exit 2, one `error:` line on stderr) is a file that cannot be read
or is not UTF-8, a parse error, a rule whose variables cannot be grounded, a
failed validation (duplicate labels, undeclared superiority labels, a
superiority cycle without --allow-cycles), an invalid option value, which
argparse reports after its usage line, a DLOG_CAP value that is not an
integer of at least 1, or `models` (or `fuzz` without --no-models) where
numpy cannot be imported: only model enumeration needs it, and a theory over
the cap is still refused with exit 4 first.

`derive` (and `models --consequences`) lists the conclusions by tag, in the
order +D, -D, +d, -d, and each tag's literals in text order, so every
positive literal comes before every negated one, read off the
`ConclusionSet`'s flags over the theory's table.  An `undefined:` section
follows, in the same literal order.  `--json` keeps both orders.  `models`
prints `models: N` first; with `--json` it prints one JSON object instead,
holding `"models": N` and, with `--consequences`, the `conclusions` and
`undefined` keys of `derive --json`.

`query` and `explain` accept a ground literal outside the theory's base: it
is -D and -d (exit 0), and +D or +d of it is not derivable (exit 3).

The environment variable DLOG_CAP overrides the default model-enumeration
cap.

A command loads only what it runs: `meta`, `models` and `fuzz` import the
oracle modules inside their functions, `bench` imports `scaling` there and
no oracle, and `json` is imported where `--json` output is written, so
`check`, `derive`, `query` and `explain` load `core`, `parser` and `engine`
only.  That is why `UsageError` and `CapExceededError` are defined in
`core`.  An oracle is called through its module (`metaprogram.translate`),
so a wrapper put on the module's function is the one called.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import operator
import os
import sys

from . import engine
from .core import (
    CapExceededError,
    GroundTheory,
    GroundingError,
    InternalError,
    Tag,
    UsageError,
    ValidationError,
    ground,
    validate,
)
from .parser import ParseError, parse_conclusion, parse_theory

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1
EXIT_PARSE = 2
EXIT_NOT_DERIVABLE = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str) -> GroundTheory:
    g = ground(parse_theory(_read(path)))
    validate(g)
    return g


# the undefined levels of a literal by its code, 2 * definite + partial
# where each is 1 when that level has a conclusion
_LEVELS = (["definite", "partial"], ["definite"], ["partial"])
_SUFFIXES = tuple(f" ({', '.join(levels)})" for levels in _LEVELS)
_OPEN = bytes((1, 1, 1)) + bytes(253)  # a `bytes.translate` table: 1 for the codes with an open level


def _print_conclusions(g: GroundTheory, conclusions, out, as_json: bool, doc: dict | None = None) -> None:
    """The conclusions by tag and the undefined literals, as text or as one
    JSON object, which extends `doc` when one is given."""
    # the conclusions are four byte columns over the table, whose even
    # positions hold the positive literals in text order and whose odd ones
    # their complements (see GroundTheory.literals): a tag's literals in text
    # order are the names at its even flags, then at its odd ones.  The
    # atoms' names are made per signature, in table order, from the strings
    # of the constants' product, so the table is not built.  Each name is a
    # str, untracked by the cyclic GC (a tuple per conclusion set off
    # collections that rescan the whole theory).  Names and flags are read as
    # whole columns (`map`, `compress`), the level codes and the undefined
    # positions come from int operations on the columns, and each tag's block
    # and the undefined block are written by one `str.join`, so no Python
    # frame runs per literal and no call per settled one
    flags = conclusions.flags
    constants = sorted(g.constants)
    arguments = {}  # arity -> "(c1,...,ck)" for each tuple of constants, in order
    atoms = []
    for predicate, arity in g.offsets:
        if not arity:  # a propositional theory has one signature per atom
            atoms.append(predicate)
            continue
        if arity not in arguments:
            arguments[arity] = list(map("({})".format, map(",".join, itertools.product(constants, repeat=arity))))
        atoms += map(predicate.__add__, arguments[arity])
    names = atoms + list(map("~".__add__, atoms))
    ordered = [held[0::2] + held[1::2] for held in flags]
    tagged = {tag.value: list(itertools.compress(names, held)) for tag, held in zip(Tag, ordered)}
    pd, md, pp, mp = (int.from_bytes(held, "big") for held in ordered)
    # each literal's settled levels coded 2 * definite + partial, 3 when both
    # are, one byte per literal: each flag byte is 0 or 1, so a shift doubles
    # it without a carry into the next
    codes = (((pd | md) << 1) | pp | mp).to_bytes(len(names), "big")
    at = list(itertools.compress(range(len(names)), codes.translate(_OPEN)))
    undefined = list(map(names.__getitem__, at))
    codes = list(map(codes.__getitem__, at))
    if as_json:
        import json

        doc = {
            **(doc or {}),
            "conclusions": [
                {"tag": tag, "literal": l} for tag, literals in tagged.items() for l in literals
            ],
            "undefined": [{"literal": l, "levels": _LEVELS[c]} for l, c in zip(undefined, codes)],
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for tag, literals in tagged.items():
        if literals:
            out.write(f"{tag} " + f"\n{tag} ".join(literals) + "\n")
    if undefined:
        out.write("undefined:\n  " + "\n  ".join(map(operator.add, undefined, map(_SUFFIXES.__getitem__, codes))) + "\n")


def cmd_check(args, out) -> int:
    g = ground(parse_theory(_read(args.file)))
    report = validate(g, allow_cyclic_superiority=args.allow_cycles)
    out.write(
        f"ok: {len(g.positions.facts)} facts, {len(g.kinds)} rules, "
        f"{len(g.positions.superiority)} superiority pairs, "
        f"base {g.table_size}\n"
    )
    for w in report.warnings:
        out.write(f"warning: {w}\n")
    return EXIT_OK


def cmd_derive(args, out) -> int:
    g = _load(args.file)
    _print_conclusions(g, engine.derive_all(g), out, args.json)
    return EXIT_OK


def cmd_query(args, out) -> int:
    g = _load(args.file)
    c = parse_conclusion(f"{args.tag} {args.literal}")
    if engine.prove(g, c):
        out.write(f"proved: {c}\n")
        return EXIT_OK
    out.write(f"not derivable: {c}\n")
    return EXIT_NOT_DERIVABLE


def cmd_explain(args, out) -> int:
    g = _load(args.file)
    c = parse_conclusion(f"{args.tag} {args.literal}")
    try:
        derivation = engine.explain(g, c)
    except engine.NoDerivationError:
        out.write(f"not derivable: {c}\n")
        return EXIT_NOT_DERIVABLE
    for i, step in enumerate(derivation, start=1):
        out.write(f"P({i}) = {step.tag.value} {step.literal}\n")
    return EXIT_OK


def cmd_meta(args, out) -> int:
    from . import metaprogram

    g = _load(args.file)
    out.write(metaprogram.translate(g).render())
    return EXIT_OK


def cmd_models(args, out) -> int:
    from . import modelcheck

    g = _load(args.file)
    found = modelcheck.models(g, args.cap)
    count = len(found.delta)
    if not args.json:
        out.write(f"models: {count}\n")
    if args.consequences:
        _print_conclusions(g, found.consequences(), out, args.json, {"models": count})
    elif args.json:
        import json

        out.write(json.dumps({"models": count}, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_fuzz(args, out) -> int:
    from . import differential

    witnesses = differential.fuzz(
        count=args.count,
        seed=args.seed,
        max_atoms=args.max_atoms,
        max_rules=args.max_rules,
        include_models=not args.no_models,
        cap=args.cap,
    )
    if not witnesses:
        out.write(f"ok: {args.count} theories, no divergence\n")
        return EXIT_OK
    for w in witnesses:
        out.write(str(w) + "\n")
    out.write(f"FAILURE: {len(witnesses)} divergence witnesses\n")
    return EXIT_INTERNAL


def cmd_bench(args, out) -> int:
    from . import scaling

    points = scaling.bench_chain(args.sizes)
    for p in points:
        out.write(
            f"chain {p.size}: {p.seconds:.3f}s, {p.conclusions} conclusions\n"
        )
    if len(points) >= 2:
        out.write(
            f"scaling ratio ({points[-1].size}/{points[0].size}): {points[-1].ratio:.2f}\n"
        )
    return EXIT_OK


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return value

    return parse


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(map(_int_at_least(1), text.split(",")))


@functools.cache  # built once per process: building costs 50x a parse_args
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlog", description="defeasible logic reasoner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, ground and validate a theory")
    p.add_argument("file")
    p.add_argument("--allow-cycles", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("derive", help="all derivable tagged conclusions")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("query", help="prove a single tagged conclusion")
    p.add_argument("tag", choices=[t.value for t in Tag])
    p.add_argument("literal")
    p.add_argument("file")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("explain", help="print a replayable derivation")
    p.add_argument("tag", choices=[t.value for t in Tag])
    p.add_argument("literal")
    p.add_argument("file")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("meta", help="dump the ground metaprogram")
    p.add_argument("file")
    p.set_defaults(fn=cmd_meta)

    p = sub.add_parser("models", help="enumerate models of a small theory")
    p.add_argument("file")
    p.add_argument("--consequences", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cap", type=_int_at_least(1), default=None)
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("fuzz", help="differential-test the three semantics")
    p.add_argument("--count", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-atoms", type=_int_at_least(1), default=3)
    p.add_argument("--max-rules", type=_int_at_least(0), default=10)
    p.add_argument("--no-models", action="store_true",
                   help="skip model enumeration, compare engine vs metaprogram only")
    p.add_argument("--cap", type=_int_at_least(1), default=None)
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("bench", help="chain-theory scaling report")
    p.add_argument("--sizes", type=_sizes, default="50000,100000",
                   help="comma-separated chain lengths, each at least 1")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    # tags -D and -d are positional arguments of query/explain but look like
    # options to argparse; shield them with "--"
    if (
        len(argv) >= 2
        and argv[0] in ("query", "explain")
        and argv[1] in {t.value for t in Tag}
    ):
        argv.insert(1, "--")
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args, out)
        out.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except (
        ParseError, GroundingError, ValidationError, UsageError,
        UnicodeDecodeError, OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
