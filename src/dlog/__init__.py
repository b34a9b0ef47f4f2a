"""dlog: a reasoner for sceptical defeasible logic.

Derives tagged conclusions (+D, -D, +d, -d) from defeasible theories and
cross-validates the proof theory against two independent semantics: a
3-valued fixpoint of a translated logic program, and exhaustive model
enumeration on small instances.
"""

from .core import (
    Atom,
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
    ValidationError,
    ValidationReport,
    ground,
    lit,
    neg,
    validate,
)
from .differential import (
    BenchPoint,
    DivergenceWitness,
    bench_chain,
    chain_theory,
    compare_semantics,
    fuzz,
    generate_random_theory,
)
from .engine import (
    CheckResult,
    NoDerivationError,
    check_derivation,
    derive_all,
    explain,
    prove,
)
from .metaprogram import (
    GroundMetaProgram,
    kunen_fixpoint,
    to_conclusions,
    translate,
)
from .modelcheck import (
    CapExceededError,
    DEFAULT_CAP,
    UsageError,
    closure_forces_epistemic,
    count_models,
    default_cap,
    enumerate_interpretations,
    is_model,
    logical_consequences,
)
from .parser import ParseError, parse_conclusion, parse_theory, render_theory

__version__ = "0.1.0"
