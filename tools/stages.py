#!/usr/bin/env python3
"""Per-stage timings of the dlog pipeline, parent against change, as JSON.

    python tools/stages.py --parent ../dlog-parent --out BENCH_9.json

Each workload is one `.dl` text, run through the stages of `dlog derive`:
parse (`parse_theory`), ground (`ground`), validate (`validate`), derive
(`engine.derive_all`) and render (`cli._print_conclusions` into memory).
The chain and the `families` texts add `engine.explain` of one target and
`engine.check_derivation` of its derivation (explain, check), and the
metaprogram workload adds `metaprogram.translate` and `kunen_fixpoint`.
The model workload runs the stages of `compare_semantics` on each of its
theories, `modelcheck.logical_consequences` among them, and sums each stage.
Every run is a fresh interpreter that imports dlog from one tree's `src/`;
runs alternate between the trees, and the record holds each stage's median
over `--repeats` runs per tree, and the runs themselves.  A run's `import_s`
is its import of `dlog.cli`, `dlog.metaprogram` and `dlog.modelcheck`,
timed before any stage and after this script's own standard-library
imports; `total_s` sums the stages without it.  Records up to BENCH_27
timed `import dlog.cli` alone there and loaded the other two modules
inside the meta and model workloads' first stages, so those stages and
`import_s` are not comparable with them.  Every run compiles dlog from
source, as a fresh checkout under the benchmark does: its
`PYTHONPYCACHEPREFIX` is a new empty directory, so a `__pycache__` left in
either tree is never read (the record's `bytecode`).  Once dlog is
imported, the prefix is dropped, so that numpy, which the model oracle
loads inside a timed stage, loads from its installed cache.
Before each stage a full collection runs, untimed (`gc.collect()`, the
record's `gc`), so that no stage is charged for a collection that the
allocations of the stages before it set off; the model workload collects
once per theory instead, since a full collection there costs 3-4 ms, and
one per stage would add 5 s to each of its runs.
Records up to BENCH_28 ran none, so a stage there could carry the
collector's schedule: BENCH_28's `validate_s` on the small texts read
1.7-4.6x its parent's because its first collection was a generation-1 one.
Each run also notes whether numpy was loaded once the derive stages had run
(`numpy_loaded`, per tree): only the model oracle needs it, so the model
workload reads it after its first theory's derive stage.  Each run
also takes 5 pace probes (`benchmark/pace.py`) before its stages and 5
after, and records `scale`, `pace.REFERENCE_S` over their median;
`median_scaled_s` is the median of each stage's seconds times its run's
scale, the stage's time with the machine's current speed divided out, so
that stages can be compared between trees measured minutes apart.

Workloads: the chain `p0 => p1 => ... => pN` with an overruled attacker on
every tenth link (`dlog.scaling.chain_text`, written by this tree's `src/`
for both trees; `--chain`, 100,000 links by default; explained at `+d pN`),
the three seed-1 `families` texts at their benchmark `explain` targets, the
seed-1 `reach` text of the benchmark
(`benchmark/workloads.py`), the same reachability theory at grounding scale
(`--reach` constants, 201 by default, with twice as many edges and as many
blocked pairs, the benchmark's ratios), a `--meta-chain` chain (250 links)
for the metaprogram oracle, and the model-checked theories of the first seed-1
`crosscheck` block (199 theories) for all three semantics.
Without `--parent` only this tree is measured.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBES = 5  # pace probes before a run's stages, and as many after


def inputs(links: int, reach_constants: int, meta_links: int) -> dict[str, tuple[str, str, str]]:
    """Workload name -> (kind, file contents, target).  The kind is `derive`,
    `explain` (derive, then the explain stages of the target), `meta` (derive,
    then the metaprogram stages) or `models` (a JSON list of texts); the
    target is empty unless the kind is `explain`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    import workloads
    from dlog.scaling import chain_text

    texts = {f"chain-{links}": ("explain", chain_text(links), f"+d p{links}")}
    ops = workloads.families(1).ops
    targets = {op.text: op.target for op in ops if op.op == "explain"}
    for op in ops:
        if op.op == "derive":
            texts[f"families-{op.kind.removeprefix('derive-')}-seed1"] = ("explain", op.text, targets[op.text])
    texts["reach-seed1"] = ("derive", workloads.reach_workload(1).ops[0].text, "")
    n = reach_constants
    texts[f"reach-{n}"] = ("derive", workloads.reach(random.Random(1), n, 2 * n, n)[0], "")
    texts[f"meta-chain-{meta_links}"] = ("meta", chain_text(meta_links), "")
    block = [op.text for op in workloads.crosscheck(1).ops[: workloads.XCHECK_BLOCK] if op.models]
    texts["models-seed1"] = ("models", json.dumps(block), "")
    return texts


def timed(seconds: dict[str, float], stage: str, fn, *args, collect: bool = True):
    """`fn(*args)`, its seconds added to `seconds[f"{stage}_s"]`, after a
    full collection, untimed, when `collect`."""
    if collect:
        gc.collect()
    start = perf_counter()
    result = fn(*args)
    key = f"{stage}_s"
    seconds[key] = seconds.get(key, 0.0) + perf_counter() - start
    return result


def measure_models(texts: list[str]) -> dict:
    """Seconds per stage of `compare_semantics`, summed over the theories,
    and summed sizes, in this process."""
    from dlog import engine, metaprogram, modelcheck
    from dlog.core import ground, validate
    from dlog.parser import parse_theory

    seconds: dict[str, float] = {}
    numpy_loaded = None
    sizes = dict.fromkeys(("theories", "input_bytes", "rules", "base", "interpretations", "conclusions"), 0)

    def stage(name, fn, *args):
        return timed(seconds, name, fn, *args, collect=False)

    for text in texts:
        gc.collect()  # once per theory, untimed: one per stage would add 5 s to a run
        g = stage("ground", ground, stage("parse", parse_theory, text))
        stage("validate", validate, g)
        conclusions = stage("derive", engine.derive_all, g)
        if numpy_loaded is None:
            numpy_loaded = "numpy" in sys.modules
        stage("fixpoint", metaprogram.kunen_fixpoint, stage("translate", metaprogram.translate, g))
        stage("consequences", modelcheck.logical_consequences, g)
        sizes["theories"] += 1
        sizes["input_bytes"] += len(text.encode())
        sizes["rules"] += len(g.kinds)
        sizes["base"] += g.table_size
        sizes["interpretations"] += 6**g.table_size
        sizes["conclusions"] += len(conclusions)
    seconds["total_s"] = sum(seconds.values())
    return {"seconds": seconds, "sizes": sizes, "numpy_loaded": numpy_loaded}


def paced(path: Path, kind: str, target: str) -> dict:
    """`measure`, between pace probes, with the scale they give."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import pace

    probes = pace.Pace()
    for _ in range(PROBES):
        probes.probe()
    result = measure(path, kind, target)
    for _ in range(PROBES):
        probes.probe()
    result["scale"] = pace.REFERENCE_S / statistics.median(probes.seconds)
    return result


def measure(path: Path, kind: str, target: str) -> dict:
    """Seconds per stage and sizes for one workload file, in this process."""
    if kind == "models":
        return measure_models(json.loads(path.read_text()))
    from dlog import cli, engine, metaprogram
    from dlog.core import ground, validate
    from dlog.parser import parse_conclusion, parse_theory

    text = path.read_text()
    seconds: dict[str, float] = {}
    g = timed(seconds, "ground", ground, timed(seconds, "parse", parse_theory, text))
    timed(seconds, "validate", validate, g)
    conclusions = timed(seconds, "derive", engine.derive_all, g)
    out = io.StringIO()
    timed(seconds, "render", cli._print_conclusions, g, conclusions, out, False)
    numpy_loaded = "numpy" in sys.modules
    if kind == "explain":
        derivation = timed(seconds, "explain", engine.explain, g, parse_conclusion(target))
        verdict = timed(seconds, "check", engine.check_derivation, g, derivation)
        if not verdict:
            raise SystemExit(f"{path.name}: the derivation of {target} is rejected: {verdict.reason}")
    if kind == "meta":
        timed(seconds, "fixpoint", metaprogram.kunen_fixpoint, timed(seconds, "translate", metaprogram.translate, g))
    seconds["total_s"] = sum(seconds.values())
    sizes = {
        "input_bytes": len(text.encode()),
        "rules": len(g.kinds),
        "base": g.table_size,
        "conclusions": len(conclusions),
        "output_bytes": len(out.getvalue().encode()),
    }
    if kind == "explain":
        sizes["derivation_steps"] = len(derivation)
    return {"seconds": seconds, "sizes": sizes, "numpy_loaded": numpy_loaded}


BYTECODE = (
    "dlog compiled from source in every run: PYTHONPYCACHEPREFIX names a fresh empty directory per run, "
    "so no tree's __pycache__ is read; import_s times importing dlog.cli, dlog.metaprogram and dlog.modelcheck, "
    "so no stage includes compiling dlog; modules first loaded by a stage come from their installed caches"
)


def run_in(tree: Path, path: Path, kind: str, target: str) -> dict:
    """`paced` in a fresh interpreter importing dlog from `tree/src`, its
    bytecode cache an empty directory of its own (see `BYTECODE`)."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=cache)
        argv = [sys.executable, __file__, "--measure", str(path), "--kind", kind, "--target", target]
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def commit(tree: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {"commit": head, "src_modified": None if dirty is None else bool(dirty)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, help="JSON file to write (required)")
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit to compare against")
    ap.add_argument("--repeats", type=int, default=3, help="runs per workload and tree")
    ap.add_argument("--chain", type=int, default=100_000, help="links of the large chain")
    ap.add_argument("--reach", type=int, default=201, help="constants of the large reachability theory")
    ap.add_argument("--meta-chain", type=int, default=250, help="links of the metaprogram chain")
    ap.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--kind", default="derive", help=argparse.SUPPRESS)
    ap.add_argument("--target", default="", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        start = perf_counter()
        import dlog.cli, dlog.metaprogram, dlog.modelcheck  # noqa: E401, F401  # all of dlog, from source
        import_s = perf_counter() - start
        # what the stages load later (numpy) comes from its installed cache, as in the benchmark
        sys.pycache_prefix = None
        result = paced(args.measure, args.kind, args.target)
        result["seconds"]["import_s"] = import_s
        print(json.dumps(result))
        return 0
    if args.out is None:
        ap.error("--out is required")

    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": args.parent.resolve(), **trees}
    runs: dict[str, dict[str, list[dict]]] = {}
    scales: dict[str, dict[str, list[float]]] = {}
    numpy_loaded: dict[str, dict[str, list[bool]]] = {}
    sizes: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as work:
        for name, (kind, text, target) in inputs(args.chain, args.reach, args.meta_chain).items():
            path = Path(work) / f"{name}.dl"
            path.write_text(text)
            runs[name] = {label: [] for label in trees}
            scales[name] = {label: [] for label in trees}
            numpy_loaded[name] = {label: [] for label in trees}
            for r in range(args.repeats):
                order = list(trees.items())
                for label, tree in order if r % 2 == 0 else reversed(order):
                    result = run_in(tree, path, kind, target)
                    runs[name][label].append(result["seconds"])
                    scales[name][label].append(result["scale"])
                    numpy_loaded[name][label].append(result["numpy_loaded"])
                    if sizes.setdefault(name, result["sizes"]) != result["sizes"]:
                        raise SystemExit(f"{name}: the trees disagree on the sizes {result['sizes']}")
                print(f"{name}: run {r + 1} of {args.repeats} done", file=sys.stderr)
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "repeats": args.repeats,
        "bytecode": BYTECODE,
        "gc": "a full collection, untimed, before every stage, and before every theory of models-seed1",
        "trees": {label: commit(tree) for label, tree in trees.items()},
        "workloads": {
            name: {
                "sizes": sizes[name],
                "median_s": {
                    label: {key: statistics.median(run[key] for run in by_tree[label]) for key in by_tree[label][0]}
                    for label in trees
                },
                "median_scaled_s": {
                    label: {
                        key: statistics.median(run[key] * scale for run, scale in zip(by_tree[label], scales[name][label]))
                        for key in by_tree[label][0]
                    }
                    for label in trees
                },
                "runs_s": by_tree,
                "scales": scales[name],
                "numpy_loaded": numpy_loaded[name],
            }
            for name, by_tree in runs.items()
        },
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
