"""dlog: a reasoner for sceptical defeasible logic.

Derives tagged conclusions (+D, -D, +d, -d) from defeasible theories and
cross-validates the proof theory against two independent semantics: a
3-valued fixpoint of a translated logic program, and exhaustive model
enumeration on small instances.

`import dlog` loads `core`, `parser` and `engine` only.  The modules of the
two oracles, of the differential tests and of the scaling measurement
(`metaprogram`, `modelcheck`, `differential`, `scaling`), and the names
taken from them, are resolved on first access by the module `__getattr__`
below (PEP 562), and then kept here: `from dlog import translate` imports
`dlog.metaprogram` at that point.  `dir(dlog)` and `__all__` list them all,
so `from dlog import *` imports every module, as it always did.
"""

from .core import (
    Atom,
    CapExceededError,
    ConclusionSet,
    GroundTheory,
    GroundingError,
    InternalError,
    Literal,
    Rule,
    RuleKind,
    SourceTheory,
    Tag,
    TaggedConclusion,
    UsageError,
    ValidationError,
    ValidationReport,
    ground,
    lit,
    neg,
    validate,
)
from .engine import (
    CheckResult,
    NoDerivationError,
    check_derivation,
    derive_all,
    explain,
    prove,
)
from .parser import ParseError, parse_conclusion, parse_theory, render_theory

__version__ = "0.1.0"

# the names resolved on first access, by the module that defines them
_LAZY = {
    "differential": ("DivergenceWitness", "compare_semantics", "fuzz", "generate_random_theory"),
    "metaprogram": ("GroundMetaProgram", "kunen_fixpoint", "to_conclusions", "translate"),
    "modelcheck": (
        "DEFAULT_CAP", "closure_forces_epistemic", "count_models", "default_cap",
        "enumerate_interpretations", "is_model", "logical_consequences",
    ),
    "scaling": ("BenchPoint", "bench_chain", "chain_theory"),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted({name for name in globals() if not name.startswith("_")} | {*_LAZY, *_ORIGIN})


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
