"""Acceptance gate: the six headline checks, one printed verdict line each.

Run as part of the normal suite; each test prints its pass/fail line outside
pytest's capture so the verdicts are visible in any log.
"""

import time

import pytest

from dlog import engine, metaprogram, modelcheck
from dlog.core import ConclusionSet, Tag, ground
from dlog.differential import fuzz, generate_random_theory
from dlog.parser import parse_conclusion as c
from dlog.parser import parse_theory
from dlog.scaling import ROUNDS, bench_chain


def report(capsys, n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_bird_reproduction(bird, capsys):
    # the fourteen walkthrough conclusions, exact membership, under a second
    expected = [
        "+D emu(ethel)", "+D bird(tweety)", "+D bird(ethel)",
        "-D heavy(tweety)", "-D ~flies(tweety)",
        "+d bird(ethel)", "+d heavy(ethel)", "+d flies(tweety)",
        "-d brokenWing(ethel)", "-d ~flies(ethel)", "-d flies(ethel)",
        "-d brokenWing(tweety)", "-d heavy(tweety)", "-d ~flies(tweety)",
    ]
    start = time.perf_counter()
    cs = engine.derive_all(bird)
    elapsed = time.perf_counter() - start
    missing = [t for t in expected if c(t) not in cs]
    ok = not missing and elapsed < 1.0
    report(
        capsys, 1, ok,
        f"{len(expected) - len(missing)}/{len(expected)} conclusions, "
        f"{elapsed * 1000:.0f} ms" + (f", missing {missing}" if missing else ""),
    )


def test_criterion_2_paraconsistency(capsys):
    inconsistent = ground(parse_theory("a. ~a. r: b -> b."))
    alone = ground(parse_theory("r: b -> b."))
    cs = engine.derive_all(inconsistent)
    cs_alone = engine.derive_all(alone)
    wanted = ["+D a", "+D ~a", "+d a", "+d ~a"]
    got_a = all(c(t) in cs for t in wanted)
    b_statuses = lambda s: {  # noqa: E731
        tag: (c(f"{tag.value} b") in s, c(f"{tag.value} ~b") in s) for tag in Tag
    }
    isolated = b_statuses(cs) == b_statuses(cs_alone)
    undefined = all(not v for pair in b_statuses(cs).values() for v in [pair[0]])
    ok = got_a and isolated and undefined
    report(
        capsys, 2, ok,
        "inconsistency confined to a; b undefined at both levels"
        if ok else f"a-conclusions={got_a}, b-isolation={isolated}",
    )


def test_criterion_3_triple_oracle(capsys):
    start = time.perf_counter()
    witnesses = fuzz(500, seed=1, max_atoms=3, max_rules=10, include_models=True)
    elapsed = time.perf_counter() - start
    ok = not witnesses and elapsed < 600
    report(
        capsys, 3, ok,
        f"500 theories, {len(witnesses)} divergences, {elapsed:.1f} s",
    )
    for w in witnesses:
        print(w)


def test_criterion_4_invariants(bird, capsys):
    # ConclusionSet raises on any coherence/containment breach, so surviving
    # construction is the check; verify_invariants re-runs it explicitly
    checked = 0
    failures = 0

    def check(cs: ConclusionSet):
        nonlocal checked, failures
        try:
            cs.verify_invariants()
        except Exception:
            failures += 1
        checked += 1

    check(engine.derive_all(bird))
    check(engine.derive_all(ground(parse_theory("a. ~a. r: b -> b."))))
    for seed in range(500):  # the criterion-3 population
        g = ground(generate_random_theory(1 + seed, 3, 10))
        check(engine.derive_all(g))
    disagreements = 0
    for seed in range(5000):  # engine vs metaprogram only
        g = ground(generate_random_theory(100_000 + seed, 3, 10))
        from_engine = engine.derive_all(g)
        from_meta = metaprogram.conclusions(g)
        check(from_engine)
        check(from_meta)
        if from_engine != from_meta:
            disagreements += 1
    ok = failures == 0 and disagreements == 0
    report(
        capsys, 4, ok,
        f"{checked} conclusion sets, {failures} invariant breaches, "
        f"{disagreements} engine/metaprogram disagreements",
    )


def test_criterion_5_model_theory(capsys):
    loop = ground(parse_theory("r: p => p."))
    simple = ground(parse_theory("r: => p."))
    loop_models = modelcheck.count_models(loop)
    loop_consequences = set(map(str, modelcheck.logical_consequences(loop)))
    simple_models = modelcheck.count_models(simple)
    counterexamples = []
    for seed in range(60):
        t = generate_random_theory(seed, max_atoms=2, max_rules=6)
        g = ground(t)
        if len(g.herbrand_base) > 4:
            continue
        if not modelcheck.closure_forces_epistemic(g):
            counterexamples.append(seed)
    ok = (
        loop_models == 3
        and loop_consequences == {"-D p", "-D ~p", "-d ~p"}
        and simple_models == 1
        and not counterexamples
    )
    report(
        capsys, 5, ok,
        f"loop: {loop_models} models, consequences {sorted(loop_consequences)}; "
        f"fact: {simple_models} model; epistemic counterexamples: "
        f"{counterexamples or 'none'}",
    )


def test_criterion_6_scaling(capsys):
    # the gate is `bench_chain`'s statistic, the median of the 100k/50k ratios
    # of derive_all times paired within each of its rounds (see dlog.scaling)
    _, t100 = bench_chain((50_000, 100_000))
    ok = t100.seconds < 5.0 and t100.ratio <= 2.5
    report(
        capsys, 6, ok,
        f"100k rules in {t100.seconds:.2f} s (median), median ratio 100k/50k = {t100.ratio:.2f} "
        f"over {ROUNDS} paired rounds",
    )
