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
argparse reports after its usage line, or a DLOG_CAP value that is not an
integer of at least 1.

`derive` (and `models --consequences`) lists the conclusions by tag, in the
order +D, -D, +d, -d, and each tag's literals in text order, so every
positive literal comes before every negated one.  An `undefined:` section
follows, in the same literal order.  `--json` keeps both orders.

The environment variable DLOG_CAP overrides the default model-enumeration
cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import differential, engine, metaprogram, modelcheck
from .core import (
    GroundTheory,
    GroundingError,
    InternalError,
    Tag,
    ValidationError,
    ground,
    validate,
)
from .parser import ParseError, parse_conclusion, parse_theory, render_theory

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


def _print_conclusions(g: GroundTheory, conclusions, out, as_json: bool) -> None:
    # the conclusions are over the base, so one walk of it in text order per
    # tag lists them (see GroundTheory.literals).  They are collected as
    # strings, which the cyclic GC does not track: a tuple per conclusion set
    # off collections that rescan the whole theory, doubling render at 100k
    ordered = g.literals[0::2] + g.literals[1::2]
    tagged = {}
    for tag in Tag:
        held = conclusions.with_tag(tag)
        tagged[tag.value] = [str(l) for l in ordered if l in held]
    undefined = [(str(l), levels) for l in ordered if (levels := conclusions.undefined_levels(l))]
    if as_json:
        doc = {
            "conclusions": [
                {"tag": tag, "literal": l} for tag, literals in tagged.items() for l in literals
            ],
            "undefined": [{"literal": l, "levels": levels} for l, levels in undefined],
        }
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    for tag, literals in tagged.items():
        out.writelines(f"{tag} {l}\n" for l in literals)
    if undefined:
        out.write("undefined:\n")
        out.writelines(f"  {l} ({', '.join(levels)})\n" for l, levels in undefined)


def cmd_check(args, out) -> int:
    g = ground(parse_theory(_read(args.file)))
    report = validate(g, allow_cyclic_superiority=args.allow_cycles)
    out.write(
        f"ok: {len(g.facts)} facts, {len(g.rules)} rules, "
        f"{len(g.superiority)} superiority pairs, "
        f"base {len(g.herbrand_base)}\n"
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
    g = _load(args.file)
    out.write(metaprogram.translate(g).render())
    return EXIT_OK


def cmd_models(args, out) -> int:
    g = _load(args.file)
    out.write(f"models: {modelcheck.count_models(g, args.cap)}\n")
    if args.consequences:
        _print_conclusions(g, modelcheck.logical_consequences(g, args.cap), out, args.json)
    return EXIT_OK


def cmd_fuzz(args, out) -> int:
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
    points = differential.bench_chain(args.sizes)
    for p in points:
        out.write(
            f"chain {p.size}: {p.seconds:.3f}s, {p.conclusions} conclusions\n"
        )
    if len(points) >= 2:
        ratio = points[-1].seconds / max(points[0].seconds, 1e-9)
        out.write(
            f"scaling ratio ({points[-1].size}/{points[0].size}): {ratio:.2f}\n"
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
        ParseError, GroundingError, ValidationError, modelcheck.UsageError,
        UnicodeDecodeError, OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except modelcheck.CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
