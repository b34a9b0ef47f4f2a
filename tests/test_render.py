"""`dlog derive`, `derive --json` and `models --consequences` print exactly
what a set-membership rendering of the same conclusions prints.

`reference_print_conclusions` is the renderer the command line used before
it read the conclusion flags by table position: it tests membership in each
tag's set, literal by literal, and asks `undefined_levels` of every base
literal."""

import gc
import io
import json

import pytest

from dlog import engine, modelcheck
from dlog.cli import _print_conclusions, main
from dlog.core import GroundingError, Tag, ValidationError, ground, validate
from dlog.differential import generate_random_theory
from dlog.parser import parse_theory, render_theory
from test_grounding import benchmark_texts, random_first_order_theory


def reference_print_conclusions(g, conclusions, out, as_json: bool, doc: dict | None = None) -> None:
    ordered = g.literals[0::2] + g.literals[1::2]
    tagged = {}
    for tag in Tag:
        held = conclusions.with_tag(tag)
        tagged[tag.value] = [str(l) for l in ordered if l in held]
    undefined = [(str(l), levels) for l in ordered if (levels := conclusions.undefined_levels(l))]
    if as_json:
        doc = {
            **(doc or {}),
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


def reference(g, conclusions, as_json, doc=None) -> str:
    out = io.StringIO()
    reference_print_conclusions(g, conclusions, out, as_json, doc)
    return out.getvalue()


def run(argv) -> str:
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return out.getvalue()


def assert_derive_matches(path, text) -> None:
    g = ground(parse_theory(text))
    conclusions = engine.derive_all(g)
    assert run(["derive", str(path)]) == reference(g, conclusions, False), text
    assert run(["derive", "--json", str(path)]) == reference(g, conclusions, True), text


def assert_models_match(path, text) -> None:
    g = ground(parse_theory(text))
    cap = 6 ** len(g.literals)  # the whole candidate space; the pruned frontier is small
    found = modelcheck.models(g, cap)
    count = len(found.delta)
    consequences = found.consequences()
    models = ["models", "--consequences", "--cap", str(cap), str(path)]
    assert run(models) == f"models: {count}\n" + reference(g, consequences, False), text
    assert run(models + ["--json"]) == reference(
        g, consequences, True, {"models": count}
    ), text


def test_bird_matches_reference(bird_path, bird_text):
    assert_derive_matches(bird_path, bird_text)
    assert_models_match(bird_path, bird_text)


def test_benchmark_texts_match_reference(tmp_path):
    texts = benchmark_texts()
    assert len(texts) == 8  # chain, circle, teams and reach, for seeds 1 and 1009
    for name, text in texts.items():
        path = tmp_path / f"{name}.dl"
        path.write_text(text)
        assert_derive_matches(path, text)


FIRST_ORDER_THEORIES = 100


def test_random_theories_match_reference(tmp_path):
    # the `dlog fuzz` defaults: up to 3 atoms and 10 rules, so every theory's
    # models can be enumerated
    undefined = 0
    path = tmp_path / "theory.dl"
    for seed in range(500):
        text = render_theory(generate_random_theory(seed, 3, 10))
        path.write_text(text)
        assert_derive_matches(path, text)
        assert_models_match(path, text)
        undefined += "undefined:" in run(["derive", str(path)])
    assert undefined > 0  # the undefined section is exercised too
    # atom names with arguments: first-order theories over 1-6 constants and
    # arities up to 3, the first that pass validation
    rendered, seed = 0, 0
    while rendered < FIRST_ORDER_THEORIES:
        theory = random_first_order_theory(seed, constants=(1, 6), max_arity=3)
        seed += 1
        try:
            validate(ground(theory))
        except (GroundingError, ValidationError):
            continue
        text = render_theory(theory)
        path.write_text(text)
        assert_derive_matches(path, text)
        rendered += 1


def test_hand_built_conclusions_render_over_the_base(bird):
    # a conclusion set built from its tag sets renders as the engine's
    cs = engine.derive_all(bird)
    rebuilt = type(cs).from_tag_sets(bird, {tag: cs.with_tag(tag) for tag in Tag})
    for as_json in (False, True):
        out = io.StringIO()
        _print_conclusions(bird, rebuilt, out, as_json)
        assert out.getvalue() == reference(bird, cs, as_json)


@pytest.mark.parametrize("name", ["bird", "reach-1"])
def test_derive_path_reads_columns_only(bird_text, name):
    # `ground`, `validate`, `derive_all` and both renders of `derive` read
    # the columns: neither the rules as `Rule`s nor the literal table is
    # built.  What they leave behind forms no reference cycle, which only a
    # collection would free: with the GC paused, dropping the theory and its
    # conclusions leaves nothing unreachable.  (`json.dumps` with an indent
    # leaves cycles of its own, collected before the drop.)
    theory = parse_theory(bird_text if name == "bird" else benchmark_texts()[name])
    resume = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        g = ground(theory)
        validate(g)
        conclusions = engine.derive_all(g)
        for as_json in (False, True):
            _print_conclusions(g, conclusions, io.StringIO(), as_json)
        assert "rules" not in vars(g) and "literals" not in vars(g)
        gc.collect()
        del g, conclusions
        assert gc.collect() == 0
    finally:
        if resume:
            gc.enable()
