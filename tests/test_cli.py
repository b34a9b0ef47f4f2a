"""The command-line surface: subcommands, JSON output, exit codes."""

import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from dlog.cli import (
    EXIT_CAP,
    EXIT_CLOSED_OUTPUT,
    EXIT_INTERNAL,
    EXIT_NOT_DERIVABLE,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from dlog.core import Tag, ground
from dlog.engine import derive_all
from dlog.parser import parse_theory
from dlog.scaling import chain_text
from test_grounding import naive_ground


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_check(bird_path, bird_text):
    # the naive grounding's counts, which check printed before relevance grounding
    naive = naive_ground(parse_theory(bird_text))
    counts = f"{len(naive.source.facts)} facts, {len(naive.rules)} rules, {len(naive.superiority)} superiority pairs"
    assert counts == "2 facts, 9 rules, 4 superiority pairs"
    code, out = run(["check", str(bird_path)])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "ok: 2 facts, 5 rules, 0 superiority pairs, base 20",
        "warning: superiority r4 > r2 relates no instances with conflicting heads",
    ]


def test_check_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.dl"
    bad.write_text("p => ")
    code, _ = run(["check", str(bad)])
    assert code == EXIT_PARSE
    assert "error" in capsys.readouterr().err


def test_check_missing_file():
    code, _ = run(["check", "/no/such/file.dl"])
    assert code == EXIT_PARSE


def test_derive_text(bird_path):
    code, out = run(["derive", str(bird_path)])
    assert code == EXIT_OK
    assert "+d flies(tweety)" in out
    assert "-d flies(ethel)" in out
    # blocked by the defeater, flies(ethel) gets no positive conclusion,
    # but every literal of this theory is settled at both levels
    assert "+d flies(ethel)" not in out
    assert "undefined:" not in out


def test_derive_reports_undefined_literals(tmp_path):
    f = tmp_path / "loop.dl"
    f.write_text("r: p => p.\n")
    code, out = run(["derive", str(f)])
    assert code == EXIT_OK
    assert "undefined:" in out
    assert "p (partial)" in out


BIRD_DERIVE = """\
+D bird(ethel)
+D bird(tweety)
+D emu(ethel)
-D brokenWing(ethel)
-D brokenWing(tweety)
-D emu(tweety)
-D flies(ethel)
-D flies(tweety)
-D heavy(ethel)
-D heavy(tweety)
-D ~bird(ethel)
-D ~bird(tweety)
-D ~brokenWing(ethel)
-D ~brokenWing(tweety)
-D ~emu(ethel)
-D ~emu(tweety)
-D ~flies(ethel)
-D ~flies(tweety)
-D ~heavy(ethel)
-D ~heavy(tweety)
+d bird(ethel)
+d bird(tweety)
+d emu(ethel)
+d flies(tweety)
+d heavy(ethel)
-d brokenWing(ethel)
-d brokenWing(tweety)
-d emu(tweety)
-d flies(ethel)
-d heavy(tweety)
-d ~bird(ethel)
-d ~bird(tweety)
-d ~brokenWing(ethel)
-d ~brokenWing(tweety)
-d ~emu(ethel)
-d ~emu(tweety)
-d ~flies(ethel)
-d ~flies(tweety)
-d ~heavy(ethel)
-d ~heavy(tweety)
"""

LOOP_DERIVE = """\
-D p
-D ~p
-d ~p
undefined:
  p (partial)
"""


def test_derive_text_golden(bird_path, tmp_path):
    # the exact output, order included: tags in +D -D +d -d order, literals
    # by their text, then the undefined section
    assert run(["derive", str(bird_path)]) == (EXIT_OK, BIRD_DERIVE)
    f = tmp_path / "loop.dl"
    f.write_text("r: p => p.\n")
    assert run(["derive", str(f)]) == (EXIT_OK, LOOP_DERIVE)


NAMES = """
p_1(a_b,c2).  pA(c2,aB).  p(x).
r_1: p_1(X,Y) => q(Y,X).
rB: pA(X,Y) => ~q(Y,X).
r2: q(X,Y) -> p_1(Y,X).
r3: p(X) => p2(X).
loop: wA_b(X) => wA_b(X).
"""


def test_derive_lists_literals_in_text_order(tmp_path):
    # `_`, digits and inner capitals sort by character code, not as written
    f = tmp_path / "names.dl"
    f.write_text(NAMES)
    g = ground(parse_theory(NAMES))
    cs = derive_all(g)
    listed = [(tag.value, str(l)) for tag in Tag for l in sorted(cs.with_tag(tag), key=str)]
    undefined = [str(l) for l in sorted(g.herbrand_base, key=str) if cs.undefined_levels(l)]
    assert all(len(cs.with_tag(tag)) > 1 for tag in Tag) and len(undefined) > 1

    code, out = run(["derive", str(f)])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[:len(listed)] == [f"{tag} {l}" for tag, l in listed]
    assert lines[len(listed)] == "undefined:"
    assert [line.split()[0] for line in lines[len(listed) + 1:]] == undefined

    code, out = run(["derive", "--json", str(f)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["conclusions"] == [{"tag": tag, "literal": l} for tag, l in listed]
    assert [u["literal"] for u in doc["undefined"]] == undefined


def test_derive_json(bird_path):
    code, out = run(["derive", "--json", str(bird_path)])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"conclusions", "undefined"}
    assert {"tag": "+d", "literal": "flies(tweety)"} in doc["conclusions"]
    assert doc["undefined"] == []


def test_derive_json_undefined(tmp_path):
    f = tmp_path / "loop.dl"
    f.write_text("r: p => p.\n")
    _, out = run(["derive", "--json", str(f)])
    doc = json.loads(out)
    assert {"literal": "p", "levels": ["partial"]} in doc["undefined"]


def test_query(bird_path):
    code, out = run(["query", "+d", "flies(tweety)", str(bird_path)])
    assert code == EXIT_OK and "proved" in out
    code, out = run(["query", "+d", "flies(ethel)", str(bird_path)])
    assert code == EXIT_NOT_DERIVABLE and "not derivable" in out
    # tags spelled -D/-d must survive argparse's option syntax
    code, _ = run(["query", "-d", "~flies(ethel)", str(bird_path)])
    assert code == EXIT_OK
    # querying a literal outside the theory's base is fine
    code, _ = run(["query", "-D", "zebra(ethel)", str(bird_path)])
    assert code == EXIT_OK


def test_explain(bird_path):
    code, out = run(["explain", "+d", "flies(tweety)", str(bird_path)])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("P(1) = ")
    assert lines[-1].endswith("+d flies(tweety)")
    code, _ = run(["explain", "+d", "flies(ethel)", str(bird_path)])
    assert code == EXIT_NOT_DERIVABLE


def test_stdin_input(monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("p. r: p => q.\n"))
    code, out = run(["derive", "-"])
    assert code == EXIT_OK
    assert "+d q" in out


def test_meta(tmp_path):
    f = tmp_path / "t.dl"
    f.write_text("p. r: p => q.\n")
    code, out = run(["meta", str(f)])
    assert code == EXIT_OK
    assert "definitely(p)." in out
    assert "defeasibly(q) :- not definitely(~q), defeasibly(p), not overruled(r, q)." in out


def test_meta_empty_theory(tmp_path):
    # no clauses, no output, as `derive` prints nothing for an empty theory
    f = tmp_path / "empty.dl"
    f.write_text("")
    assert run(["meta", str(f)]) == (EXIT_OK, "")
    assert run(["derive", str(f)]) == (EXIT_OK, "")


def test_models(tmp_path):
    f = tmp_path / "loop.dl"
    f.write_text("r: p => p.\n")
    code, out = run(["models", str(f)])
    assert code == EXIT_OK and "models: 3" in out
    code, out = run(["models", "--consequences", str(f)])
    assert "-d ~p" in out


def test_models_json(tmp_path):
    # under --json, stdout is one JSON object: the model count, plus the
    # keys of `derive --json` with --consequences
    f = tmp_path / "loop.dl"
    f.write_text("r: p => p.\n")
    code, out = run(["models", "--json", str(f)])
    assert code == EXIT_OK and json.loads(out) == {"models": 3}
    code, out = run(["models", "--json", "--consequences", str(f)])
    doc = json.loads(out)
    assert code == EXIT_OK and doc.pop("models") == 3
    assert {"tag": "-d", "literal": "~p"} in doc["conclusions"]
    code, derived = run(["derive", "--json", str(f)])
    assert doc == json.loads(derived)


def test_models_cap(tmp_path, capsys):
    f = tmp_path / "big.dl"
    f.write_text("p. q. r. s. t. u. v. w.\n")
    code, _ = run(["models", str(f)])
    assert code == EXIT_CAP
    assert "cap" in capsys.readouterr().err
    code, _ = run(["models", "--cap", "100", str(f)])
    assert code == EXIT_CAP


def test_models_cap_env(tmp_path, monkeypatch, capsys):
    f = tmp_path / "two.dl"
    f.write_text("p.\n")
    monkeypatch.setenv("DLOG_CAP", "10")
    code, _ = run(["models", str(f)])
    assert code == EXIT_CAP
    capsys.readouterr()


def test_models_cap_on_a_large_base(tmp_path, monkeypatch, capsys):
    # the 3,000-link chain's base has 6,002 literals: 6^6002 has more digits
    # than an int may have to become a str, so the cap is checked without it
    monkeypatch.delenv("DLOG_CAP", raising=False)
    f = tmp_path / "chain.dl"
    f.write_text(chain_text(3000))
    code, out = run(["models", str(f)])
    assert code == EXIT_CAP and out == ""
    err = capsys.readouterr().err
    assert err == "error: enumeration needs 6^6002 interpretations, cap is 2000000\n"


def test_validation_error_exit(tmp_path):
    f = tmp_path / "dup.dl"
    f.write_text("r: => p. r: => q.\n")
    code, _ = run(["check", str(f)])
    assert code == EXIT_PARSE


def test_check_allow_cycles(tmp_path, capsys):
    f = tmp_path / "cycle.dl"
    f.write_text("r1: => p. r2: => ~p. r1 > r2. r2 > r1.\n")
    code, _ = run(["check", str(f)])
    assert code == EXIT_PARSE
    assert "superiority cycle" in capsys.readouterr().err
    code, out = run(["check", "--allow-cycles", str(f)])
    assert code == EXIT_OK
    assert "warning: superiority cycle: r1 > r2 > r1" in out


@pytest.mark.parametrize(
    "content, message",
    [
        (b"r: p(X) => q(X).\n", "rule r has variables but the theory has no constants"),
        (b"p.\xff\n", "can't decode byte 0xff"),
    ],
    ids=["grounding-error", "not-utf8"],
)
def test_bad_input_is_one_line_error(tmp_path, capsys, content, message):
    f = tmp_path / "bad.dl"
    f.write_bytes(content)
    code, _ = run(["derive", str(f)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--max-atoms", "0"],
        ["fuzz", "--max-rules", "-1"],
        ["bench", "--sizes", "x"],
        ["fuzz", "--count", "-1"],
        ["models", "--cap", "0", "x.dl"],
        ["fuzz", "--cap", "-5"],
    ],
    ids=[
        "max-atoms-0", "max-rules-negative", "sizes-not-a-number",
        "count-negative", "models-cap-0", "fuzz-cap-negative",
    ],
)
def test_bad_option_value_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"dlog {argv[0]}: error: argument {argv[1]}: expected an integer" in err.splitlines()[-1]
    assert "Traceback" not in err


def test_bad_cap_env_is_one_line_error(tmp_path, monkeypatch, capsys):
    f = tmp_path / "p.dl"
    f.write_text("p.\n")
    monkeypatch.setenv("DLOG_CAP", "abc")
    code, _ = run(["models", str(f)])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "DLOG_CAP" in err and "'abc'" in err
    assert "Traceback" not in err


def test_fuzz_command():
    code, out = run(["fuzz", "--count", "25", "--seed", "3"])
    assert code == EXIT_OK
    assert "no divergence" in out


def test_fuzz_divergence_is_internal_error(monkeypatch):
    import dlog.differential as d
    from dlog.core import ConclusionSet

    real = d.metaprogram.conclusions
    monkeypatch.setattr(
        d.metaprogram, "conclusions", lambda g: ConclusionSet.from_tag_sets(g, {})
    )
    code, out = run(["fuzz", "--count", "5", "--seed", "0", "--no-models"])
    assert code == EXIT_INTERNAL
    assert "FAILURE" in out
    monkeypatch.setattr(d.metaprogram, "conclusions", real)


def test_bench_command():
    code, out = run(["bench", "--sizes", "200,400"])
    assert code == EXIT_OK
    assert re.fullmatch(
        r"chain 200: \d+\.\d{3}s, 804 conclusions\n"
        r"chain 400: \d+\.\d{3}s, 1604 conclusions\n"
        r"scaling ratio \(400/200\): \d+\.\d{2}\n",
        out,
    )


def test_no_models_is_internal_error(tmp_path, monkeypatch, capsys):
    # a theory without models breaches the semantics: exit 5, not bad input
    import dlog.modelcheck as mc

    real = mc._model_mask

    def no_rows(*args, **kwargs):
        base, delta, partial = real(*args, **kwargs)
        return base, delta[:0], partial[:0]

    monkeypatch.setattr(mc, "_model_mask", no_rows)
    f = tmp_path / "p.dl"
    f.write_text("p.\n")
    code, out = run(["models", "--consequences", str(f)])
    assert code == EXIT_INTERNAL
    assert out == "models: 0\n"
    assert capsys.readouterr().err == "internal error: theory has no models; the model conditions are broken\n"


def test_closed_output_pipe_exits_1(tmp_path):
    # the answer (about 200 KB) outgrows the 64 KiB pipe buffer, so the
    # writer is still writing when the reader closes its end after one line
    chain = tmp_path / "chain.dl"
    chain.write_text("p0.\n" + "".join(f"r{i}: p{i} -> p{i + 1}.\n" for i in range(5000)))
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dlog.cli", "derive", str(chain)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_CLOSED_OUTPUT
    assert first == b"+D p0\n"
    assert stderr == b""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_output_pipe_leaks_no_descriptor(bird_path):
    # stdout is a pipe whose reader is already gone; main must leave the
    # process with the descriptors it had before the call
    script = (
        "import json, os, sys\n"
        "from dlog.cli import main\n"
        "r, w = os.pipe()\n"
        "os.close(r)\n"
        "os.dup2(w, sys.stdout.fileno())\n"
        "os.close(w)\n"
        "before = set(os.listdir('/proc/self/fd'))\n"
        "code = main(['derive', sys.argv[1]])\n"
        "after = set(os.listdir('/proc/self/fd'))\n"
        "json.dump([code, sorted(after - before)], sys.stderr)\n"
    )
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(bird_path)],
        env=env, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [EXIT_CLOSED_OUTPUT, []]


# the modules that `derive` and `check` must not load: the oracles, and the
# standard-library modules that records built with `dataclasses` pulled in
UNLOADED = ("dataclasses", "inspect", "json", "dlog.modelcheck", "dlog.metaprogram", "dlog.differential")

# the names `dlog` exported when it imported every module up front, by the
# module that defines them; the two errors moved to core and are re-exported
# by modelcheck, so they are listed under both
EXPORTED = {
    "dlog.core": [
        "Atom", "CapExceededError", "ConclusionSet", "GroundTheory", "GroundingError", "InternalError",
        "Literal", "Rule", "RuleKind", "SourceTheory", "Tag", "TaggedConclusion", "UsageError",
        "ValidationError", "ValidationReport", "ground", "lit", "neg", "validate",
    ],
    "dlog.differential": ["DivergenceWitness", "compare_semantics", "fuzz", "generate_random_theory"],
    "dlog.engine": ["CheckResult", "NoDerivationError", "check_derivation", "derive_all", "explain", "prove"],
    "dlog.metaprogram": ["GroundMetaProgram", "kunen_fixpoint", "to_conclusions", "translate"],
    "dlog.modelcheck": [
        "CapExceededError", "DEFAULT_CAP", "UsageError", "closure_forces_epistemic", "count_models",
        "default_cap", "enumerate_interpretations", "is_model", "logical_consequences",
    ],
    "dlog.parser": ["ParseError", "parse_conclusion", "parse_theory", "render_theory"],
    "dlog.scaling": ["BenchPoint", "bench_chain", "chain_theory"],
}


def test_commands_without_numpy(bird_path, tmp_path):
    # only the model routes need numpy: every other command starts and answers
    # without it, and `models` says in one line that it is missing.  Each run
    # is a fresh interpreter, so that no earlier import has loaded numpy.
    # After each command it also notes which of UNLOADED are loaded, and, once
    # all have run, which EXPORTED names `dlog` lists in `dir` and `__all__`
    # and resolves to the defining module's object (the oracles' names on
    # first access)
    loop = tmp_path / "loop.dl"
    loop.write_text("r: p => p.\n")
    bird = str(bird_path)
    commands = [
        ["check", bird],
        ["derive", bird],
        ["derive", "--json", bird],
        ["query", "+d", "flies(tweety)", bird],
        ["query", "+d", "flies(ethel)", bird],
        ["explain", "-d", "flies(ethel)", bird],
        ["bench", "--sizes", "200,400"],
        ["meta", bird],
        ["fuzz", "--count", "20", "--no-models"],
        ["models", bird],  # over the cap: refused before numpy is needed
        ["models", str(loop)],
    ]
    # json is imported only once the commands have run: it is among UNLOADED
    script = (
        "import contextlib, io, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['numpy'] = None\n"
        "import dlog, dlog.cli\n"
        f"commands, unloaded, exported = {commands!r}, {UNLOADED!r}, {EXPORTED!r}\n"
        "runs = []\n"
        "for argv in commands:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = dlog.cli.main(argv, out)\n"
        "    loaded = [m for m in unloaded if m in sys.modules]\n"
        "    runs.append([code, out.getvalue(), err.getvalue(), 'numpy' in sys.modules, loaded])\n"
        "import importlib, json\n"
        "listed = dir(dlog)\n"
        "wrong = [\n"
        "    name for module, names in exported.items() for name in names\n"
        "    if name not in listed or name not in dlog.__all__\n"
        "    or getattr(dlog, name) is not getattr(importlib.import_module(module), name)\n"
        "]\n"
        "json.dump([runs, wrong], sys.stdout)\n"
    )
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    runs = {}
    for mode in ("blocked", "free"):
        proc = subprocess.run(
            [sys.executable, "-c", script, mode],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode], wrong = json.loads(proc.stdout)
        assert wrong == []
    *answered, (blocked_code, blocked_out, blocked_err, *_) = runs["blocked"]
    # `bench` prints times, which differ from run to run
    untimed = lambda run: [run[0], re.sub(r"\d+\.\d+", "#", run[1])]  # noqa: E731
    assert list(map(untimed, answered)) == list(map(untimed, runs["free"][:-1]))
    assert [run[0] for run in answered] == [EXIT_OK] * 4 + [EXIT_NOT_DERIVABLE] + [EXIT_OK] * 4 + [EXIT_CAP]
    assert (blocked_code, blocked_out) == (EXIT_PARSE, "")
    assert blocked_err.startswith("error: model enumeration needs numpy")
    assert blocked_err.count("\n") == 1
    assert runs["free"][-1][:2] == [EXIT_OK, "models: 3\n"]
    # unblocked, numpy is first loaded by the one command that enumerates models
    assert [run[3] for run in runs["free"]] == [False] * (len(commands) - 1) + [True]
    # each command loads only what it runs: `--json` loads json, `bench` no
    # oracle, `meta` the metaprogram, `fuzz` the differential module and both oracles
    oracles = ["dlog.modelcheck", "dlog.metaprogram", "dlog.differential"]
    for mode in runs:
        assert [run[4] for run in runs[mode][:-1]] == [
            [], [], ["json"], ["json"], ["json"], ["json"], ["json"], ["json", "dlog.metaprogram"],
            ["json", *oracles], ["json", *oracles],
        ]
