"""Set-up, the closed measuring loop, reference checks and metrics.

One client runs operations back to back in this single thread (a closed
loop): the next operation starts when the previous one has returned.  The
first pass through a workload's rotation is reported apart from the steady
state, because the first pass in a fresh process runs at a different speed.
Throughput and latency are weighted by each kind's fixed share of the mix,
so a run that stops part-way through a rotation still measures the same mix.
Every time is also given scaled to the machine's speed at that moment (see
`pace.py`); the gated metrics use the scaled times.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy

import dlog
from dlog import cli, core, differential, engine, modelcheck, parser
from dlog.core import Tag

import pace
import spans
from workloads import WORKLOADS, Op, Workload

SETUP_REPEATS = 7  # set-up is timed this many times and the median reported
OP_TIMEOUT_S = 60  # an operation running longer counts as failed
HARD_STOP_S = 110  # no operation starts later than this into the loop
# pace is imported after the timed import: it would load modules dlog needs
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "t = time.perf_counter(); import dlog.cli; s = time.perf_counter() - t; "
    "import pace; p = pace.Pace(); [p.probe() for _ in range(5)]; print(s, s * p.scale(t))"
)

# traced span -> per-layer self-time metric
SELF_TIME_METRICS = {
    "parser.parse_theory": "parser.parse_s",
    "core.ground": "core.ground_s",
    "core.validate": "core.validate_s",
    spans.CONCLUSION_SET: "core.conclusionset_s",
    "engine.derive_all": "engine.derive_s",
    "engine.explain": "engine.explain_s",
    "engine.check_derivation": "engine.check_s",
    "cli.main": "cli.render_s",
    "metaprogram.translate": "metaprogram.translate_s",
    "metaprogram.kunen_fixpoint": "metaprogram.fixpoint_s",
    "metaprogram.to_conclusions": "metaprogram.readout_s",
    "modelcheck.logical_consequences": "modelcheck.consequences_s",
    "differential.compare_semantics": "differential.compare_s",
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def imported_from(src: Path) -> bool:
    return Path(dlog.__file__).resolve().is_relative_to(src.resolve())


# -- operations and their references -----------------------------------------

def execute(op: Op, path: Path):
    """Run one operation; return (seconds, result).  Every call goes through a
    module attribute so that a traced run sees it."""
    if op.op == "derive":
        out = io.StringIO()
        start = perf_counter()
        code = cli.main(["derive", str(path)], out=out)
        return perf_counter() - start, (code, out.getvalue())
    if op.op == "explain":
        start = perf_counter()
        g = core.ground(parser.parse_theory(op.text))
        core.validate(g)
        derivation = engine.explain(g, parser.parse_conclusion(op.target))
        verdict = engine.check_derivation(g, derivation)
        return perf_counter() - start, (derivation, verdict)
    start = perf_counter()
    witness = differential.compare_semantics(parser.parse_theory(op.text), include_models=op.models)
    return perf_counter() - start, witness


def mismatch(op: Op, result) -> str | None:
    """Why the result disagrees with the reference, or None when it agrees."""
    if op.op == "derive":
        code, text = result
        if code != 0:
            return f"dlog derive exited {code}"
        head, _, tail = text.partition("undefined:\n")
        lines = head.splitlines()
        undefined = [l.strip() for l in tail.splitlines()]
        for got, want, what in ((lines, op.expected.conclusions, "conclusions"),
                                (undefined, op.expected.undefined, "undefined literals")):
            if len(got) != len(want) or set(got) != want:
                wrong = sorted(set(got) ^ want)[:3]
                return f"{what} differ from the reference ({len(got)} vs {len(want)}; e.g. {wrong})"
        return None
    if op.op == "explain":
        derivation, verdict = result
        if not verdict.valid:
            return f"derivation rejected: {verdict.reason}"
        if not derivation or str(derivation[-1]) != op.target:
            return f"derivation does not end with {op.target}"
        if op.target not in op.expected.conclusions:
            return f"{op.target} is not in the reference"
        return None
    return None if result is None else f"semantics diverge: {result.disagreements[:3]}"


def layer_counts(calls) -> dict[str, float]:
    """Sizes of one operation's work, read off the traced calls' arguments and
    results after the operation (outside every timed span)."""
    n = defaultdict(float)
    for (text, *_), _ in calls.get("parser.parse_theory", ()):
        n["parser.bytes"] += len(text.encode())
    for _, g in calls.get("core.ground", ()):
        heads = {r.label: r.head for r in g.rules}
        n["core.ground_rules"] += len(g.rules)
        n["core.herbrand_base"] += len(g.herbrand_base)
        n["core.superiority_pairs"] += len(g.superiority)
        n["core.superiority_effective"] += sum(
            1 for hi, lo in g.superiority if heads[hi] == heads[lo].complement()
        )
    for _, report in calls.get("core.validate", ()):
        n["core.validate_warnings"] += len(report.warnings)
    for (g, *_), cs in calls.get("engine.derive_all", ()):
        proved = cs.with_tag(Tag.PLUS_PARTIAL)
        n["engine.conclusions"] += len(cs)
        n["engine.undefined_literals"] += sum(1 for l in g.herbrand_base if cs.undefined_levels(l))
        n["engine.supported_rules"] += sum(1 for r in g.rules if all(a in proved for a in r.body))
        n["engine.rules"] += len(g.rules)
    for _, derivation in calls.get("engine.explain", ()):
        n["engine.derivation_steps"] += len(derivation)
    for _, program in calls.get("metaprogram.translate", ()):
        n["metaprogram.clauses"] += len(program.clauses)
    for (g, *rest), _ in calls.get("modelcheck.logical_consequences", ()):
        n["modelcheck.interpretations"] += 6 ** len(g.herbrand_base)
        n["modelcheck.models"] += modelcheck.count_models(g, *rest)
    return n


# -- set-up ---------------------------------------------------------------------

def time_import(src: Path) -> tuple[float, float]:
    """Seconds to import dlog and its command line in a fresh interpreter,
    as measured and scaled by probes taken in that interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(Path(__file__).parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    wall, scaled = map(float, done.stdout.split())
    return wall, scaled


def generate(name: str, seed: int, work: Path) -> tuple[Workload, list[Path]]:
    """Build the workload and write each derive input to a `.dl` file."""
    workload = WORKLOADS[name](seed)
    paths = []
    for i, op in enumerate(workload.ops):
        path = work / f"op{i}.dl"
        if op.op == "derive":
            path.write_text(op.text)
        paths.append(path)
    return workload, paths


def environment(root: Path) -> dict:
    sources = hashlib.sha256()
    for f in sorted((root / "src" / "dlog").glob("*.py")):
        sources.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit(root),
        "source_sha256": sources.hexdigest(),
    }


def commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the loop -------------------------------------------------------------------

def attempt(op: Op, path: Path, tracer, op_id: int):
    """One operation: (seconds, failure reason or None, counts or None)."""
    try:
        signal.alarm(OP_TIMEOUT_S)
        try:
            if tracer is None:
                seconds, result = execute(op, path)
            else:
                with tracer.operation(op_id):
                    seconds, result = execute(op, path)
        finally:
            signal.alarm(0)
        counts = None
        if tracer is not None:
            counts = layer_counts(tracer.calls)
            tracer.calls.clear()  # so the untraced twin runs on the same heap
            if op.op == "derive":
                counts["cli.output_bytes"] = len(result[1].encode())
        return seconds, mismatch(op, result), counts
    except Exception as e:  # the run goes on: a failed operation is counted
        return None, f"{type(e).__name__}: {e}", None


def run_loop(workload: Workload, paths: list[Path], seconds: float, tracer, clock: pace.Pace):
    """Run the rotation until `seconds` have passed and every kind has a
    steady-state sample, probing the machine's speed between operations.  A
    traced run executes each steady operation once traced and once untraced,
    alternating the order, to measure overhead."""
    samples = []  # dicts: kind, op, seconds, scaled, traced, first, failure
    steady_kinds = set()
    start = perf_counter()
    i = 0
    while True:
        op = workload.ops[i % len(workload.ops)]
        first = i < workload.first_pass
        modes = [False] if tracer is None or first else [i % 2 == 0, i % 2 == 1]
        for traced in modes:
            clock.tick()
            at = perf_counter()
            secs, failure, counts = attempt(op, paths[i % len(paths)], tracer if traced else None,
                                            len(samples))
            samples.append({"index": i, "kind": op.kind, "op": op.op, "seconds": secs, "at": at,
                            "traced": traced, "first": first, "failure": failure,
                            "counts": counts})
        if not first:
            steady_kinds.add(op.kind)
        i += 1
        elapsed = perf_counter() - start
        if elapsed > HARD_STOP_S:
            break
        if elapsed >= seconds and not first and steady_kinds == set(workload.weights):
            break
    clock.probe()
    for s in samples:
        s["scale"] = clock.scale(s["at"])
        s["scaled"] = None if s["seconds"] is None else s["seconds"] * s["scale"]
    return samples


# -- statistics -----------------------------------------------------------------

def weighted_quantile(samples, weights, q: float, key: str) -> float:
    """Quantile of the latency distribution under the fixed mix: each sample
    weighs its kind's share divided by the kind's sample count.  With equal
    weights this is the ordinary quantile (midpoint at an exact split)."""
    per_kind = defaultdict(int)
    for s in samples:
        per_kind[s["kind"]] += 1
    points = sorted((s[key], weights[s["kind"]] / per_kind[s["kind"]]) for s in samples)
    total = sum(w for _, w in points)
    cut, eps = q * total, 1e-9 * total
    cumulative, lower, upper = 0.0, None, None
    for value, w in points:
        cumulative += w
        if lower is None and cumulative >= cut - eps:
            lower = value
        if cumulative > cut + eps:
            upper = value
            break
    return (lower + (upper if upper is not None else lower)) / 2


def present(samples, weights) -> dict[str, float]:
    """The mix restricted to the kinds present in `samples`, renormalised."""
    kinds = {s["kind"] for s in samples}
    return {k: weights[k] / sum(weights[k] for k in kinds) for k in kinds}


def mix_mean(samples, weights, key: str) -> float:
    """Mean seconds per operation under the mix."""
    w = present(samples, weights)
    return sum(wk * statistics.fmean(s[key] for s in samples if s["kind"] == k)
               for k, wk in w.items())


def mix_stats(samples, weights, tail: float, key: str) -> dict:
    """Throughput, median and tail latency of the operations in `samples`
    under the mix, from their `key` times ("seconds" or "scaled")."""
    w = present(samples, weights)
    return {
        "per_s": 1 / mix_mean(samples, weights, key),
        "p50_s": weighted_quantile(samples, w, 0.5, key),
        "tail_s": weighted_quantile(samples, w, tail, key),
        "p99_s": weighted_quantile(samples, w, 0.99, key),
        "n": len(samples),
    }


def by_op_type(samples, workload: Workload, key: str) -> dict:
    ok = [s for s in samples if s["failure"] is None]
    out = {"all": mix_stats(ok, workload.weights, workload.tail, key)} if ok else {}
    for op in sorted({s["op"] for s in ok}):
        out[op] = mix_stats([s for s in ok if s["op"] == op], workload.weights, workload.tail, key)
    return out


def per_layer(samples, weights, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, each a mix-weighted mean per
    operation, plus the self-time table; times are scaled like the
    operations they belong to."""
    traced = {i: s for i, s in enumerate(samples) if s["traced"] and s["failure"] is None}
    self_times = tracer.self_times(set(traced))
    w = present(traced.values(), weights)

    def weighted(per_op) -> float:
        return sum(wk * statistics.fmean(per_op(i) for i, s in traced.items() if s["kind"] == k)
                   for k, wk in w.items())

    def count(name):
        return weighted(lambda i: traced[i]["counts"].get(name, 0.0))

    def ratio(num, den):
        d = count(den)
        return count(num) / d if d else 0.0

    span_names = list(SELF_TIME_METRICS) + [spans.ROOT]
    table = {name: weighted(lambda i, n=name: self_times[i].get(n, 0.0) * traced[i]["scale"])
             for name in span_names}
    untraced = {s["index"]: s for s in samples
                if not s["traced"] and not s["first"] and s["failure"] is None}
    # each traced operation has an untraced twin run right before or after
    # it; the median of the paired ratios resists the machine's speed swings
    overhead = statistics.median(s["seconds"] / untraced[s["index"]]["seconds"] - 1
                                 for s in traced.values() if s["index"] in untraced)
    metrics = {SELF_TIME_METRICS[name]: table[name] for name in SELF_TIME_METRICS}
    parse_s = metrics["parser.parse_s"]
    metrics.update({
        "parser.input_mb_per_s": count("parser.bytes") / parse_s / 1e6 if parse_s else 0.0,
        "core.ground_rules": count("core.ground_rules"),
        "core.herbrand_base": count("core.herbrand_base"),
        "core.superiority_pairs": count("core.superiority_pairs"),
        "core.superiority_effective_ratio": ratio("core.superiority_effective", "core.superiority_pairs"),
        "core.validate_warnings": count("core.validate_warnings"),
        "engine.conclusions": count("engine.conclusions"),
        "engine.undefined_literals": count("engine.undefined_literals"),
        "engine.supported_rule_ratio": ratio("engine.supported_rules", "engine.rules"),
        "engine.derivation_steps": count("engine.derivation_steps"),
        "cli.output_bytes": count("cli.output_bytes"),
        "metaprogram.clauses": count("metaprogram.clauses"),
        "modelcheck.interpretations": count("modelcheck.interpretations"),
        "modelcheck.model_ratio": ratio("modelcheck.models", "modelcheck.interpretations"),
        "trace.overhead_ratio": overhead,
    })
    accounting = {"untraced_op_s": mix_mean(list(untraced.values()), weights, "scaled"),
                  "overhead_ratio": overhead, "self_s": table}
    return metrics, accounting


# -- reporting ------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def op_type_lines(stats: dict, tail: float) -> list[tuple[str, float, str, int]]:
    """The whole mix (ops_per_s, op_p50_ms, op_tail_ms), then per operation
    type <op>_per_s, <op>_p50 and <op>_p<tail>, in seconds for derive and
    explain and in milliseconds, with the 99th percentile, for cross-checks."""
    lines = []
    pct = f"p{round(tail * 100)}"
    for op, st in stats.items():
        if op == "all":
            lines += [("ops_per_s", st["per_s"], "1/s", st["n"]),
                      ("op_p50_ms", st["p50_s"] * 1e3, "ms", st["n"]),
                      (f"op_tail_ms ({pct})", st["tail_s"] * 1e3, "ms", st["n"])]
            continue
        scale, unit = (1, "s") if op in ("derive", "explain") else (1e3, "ms")
        lines += [(f"{op}_per_s", st["per_s"], "1/s", st["n"]),
                  (f"{op}_p50_{unit}", st["p50_s"] * scale, unit, st["n"]),
                  (f"{op}_{pct}_{unit}", st["tail_s"] * scale, unit, st["n"])]
        if op == "xcheck":
            lines.append((f"{op}_p99_ms", st["p99_s"] * scale, unit, st["n"]))
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    out_dir = Path(__file__).resolve().parent / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    clock = pace.Pace()
    try:
        import_s = [time_import(root / "src") for _ in range(SETUP_REPEATS)]  # (wall, scaled)
        generate_at = []  # (start, wall seconds)
        for _ in range(SETUP_REPEATS):
            clock.probe()
            start = perf_counter()
            workload, paths = generate(name, seed, work)
            generate_at.append((start, perf_counter() - start))
        tracer = spans.Tracer() if trace else None
        if tracer is None:
            samples = run_loop(workload, paths, seconds, None, clock)
        else:
            with spans.instrument(tracer):
                samples = run_loop(workload, paths, seconds, tracer, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    env = environment(root)
    digest = workload.digest()
    failures = [s for s in samples if s["failure"] is not None]
    generate_s = [(secs, secs * clock.scale(at)) for at, secs in generate_at]  # (wall, scaled)
    parts = {"import": import_s, "generate": generate_s}
    setup_wall = {part: statistics.median(wall for wall, _ in times) for part, times in parts.items()}
    setup = {part: statistics.median(scaled for _, scaled in times) for part, times in parts.items()}
    setup_s = setup["import"] + setup["generate"]
    untraced = [s for s in samples if not s["traced"]]
    steady = by_op_type([s for s in untraced if not s["first"]], workload, "scaled")
    first = by_op_type([s for s in untraced if s["first"]], workload, "scaled")
    steady_wall = by_op_type([s for s in untraced if not s["first"]], workload, "seconds")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs workload={name} seed={seed} ops={len(workload.ops)} sha256={digest}")
    probe_ms = [x * 1e3 for x in clock.seconds]
    print(f"pace probe {statistics.median(probe_ms):.3f} ms median over {len(probe_ms)} probes "
          f"(quartiles {' '.join(f'{q:.3f}' for q in statistics.quantiles(probe_ms, n=4))}); "
          f"times below are scaled to a {pace.REFERENCE_S * 1e3:g} ms probe, wall_ lines are not")
    print(f"setup_s {setup_s:.4f} s (import {setup['import']:.4f} s + generate "
          f"{setup['generate']:.4f} s, medians of {SETUP_REPEATS}; wall "
          f"{setup_wall['import'] + setup_wall['generate']:.4f} s)")
    for label, stats in (("steady", steady), ("first_pass", first), ("wall_steady", steady_wall)):
        for metric, value, unit, n in op_type_lines(stats, workload.tail):
            print(f"{label} {metric} {value:.6g} {unit} (n={n})")
    print(f"failed_ops {len(failures) / len(samples):.6g} ratio ({len(failures)} of {len(samples)})")
    for s in failures[:5]:
        print(f"failure {s['kind']}: {s['failure']}", file=sys.stderr)
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "inputs_sha256": digest, "import_s": import_s, "generate_s": generate_s,
              "setup_s": setup_s, "steady": steady, "first_pass": first,
              "steady_wall": steady_wall, "probes": list(zip(clock.at, clock.seconds)),
              "peak_rss_mb": peak_rss_mb, "attempted": len(samples), "failed": len(failures),
              "failures": [s["failure"] for s in failures[:20]],
              "samples": [[s["kind"], s["seconds"], s["scaled"], s["first"], s["traced"], s["at"]]
                          for s in samples]}
    if trace:
        traced_ok = any(s["traced"] and s["failure"] is None for s in samples)
        if traced_ok and steady:
            metrics, accounting = per_layer(samples, workload.weights, tracer)
            print_layer_table(accounting)
        else:
            metrics, accounting = {}, {}
        record["layers"] = accounting
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans,
            "ops": [{"kind": s["kind"], "traced": s["traced"], "first": s["first"]}
                    for s in samples]}))
    else:
        overall = steady.get("all", {})
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": overall.get("per_s", 0.0),
            "op_p50_ms": overall.get("p50_s", 0.0) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    record["metrics"] = metrics
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    units = END_TO_END_UNITS if not trace else {}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units.get(m) or unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


def print_layer_table(accounting: dict) -> None:
    untraced = accounting["untraced_op_s"]
    overhead = accounting["overhead_ratio"] * untraced
    table = accounting["self_s"]
    print(f"self time per operation (mix-weighted); untraced operation {untraced:.6f} s")
    layers = defaultdict(float)
    for span, secs in table.items():
        layers[span.split(".")[0]] += secs
        if secs:
            print(f"  {span:34s} {secs:12.6f} s {secs / untraced:8.1%}")
    for layer, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  layer {layer:28s} {secs:12.6f} s {secs / untraced:8.1%}")
    print(f"  tracing overhead {overhead:+.6f} s/op ({overhead / untraced:+.2%}, median of paired "
          f"runs); self times - overhead = {(sum(table.values()) - overhead) / untraced:.1%} "
          f"of the untraced operation")
