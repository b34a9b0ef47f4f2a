"""In-memory spans around calls into the layers' public functions.

The program is not changed: `instrument` swaps each public function for a
timing wrapper wherever a `dlog` module holds a reference to it (the defining
module and every `from .x import f` copy), and puts the originals back on
exit.  Spans recorded outside an operation are dropped.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs wrapped in traced runs; the span name is
# "<module>.<function>", and the module name is the layer
TRACED = (
    ("parser", "parse_theory"),
    ("core", "ground"),
    ("core", "validate"),
    ("engine", "derive_all"),
    ("engine", "explain"),
    ("engine", "check_derivation"),
    ("cli", "main"),
    ("metaprogram", "translate"),
    ("metaprogram", "kunen_fixpoint"),
    ("metaprogram", "to_conclusions"),
    ("modelcheck", "logical_consequences"),
    ("differential", "compare_semantics"),
)
CONCLUSION_SET = "core.ConclusionSet"  # construction, wherever it happens
ROOT = "bench.op"


class Tracer:
    """Spans as [name, start, end, parent index, op id], plus the arguments
    and result of each traced call of the current operation so that counts
    can be taken after it, outside the timed spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[int] = []
        self.op = None

    def _open(self, name: str) -> list:
        record = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            self.calls[name].append((args, result))
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation."""
        self.op = op_id
        record = self._open(ROOT)
        try:
            yield record
        finally:
            self._close(record)
            self.op = None

    def self_times(self, ops: set[int]) -> dict[int, dict[str, float]]:
        """Self time per operation and span name: a span's duration minus the
        part of it that its child spans cover."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                totals[op][name] += end - start - child_time[i]
        return totals


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every TRACED function and ConclusionSet construction in the dlog
    modules imported so far."""
    from dlog.core import ConclusionSet

    modules = [m for name, m in sys.modules.items() if name == "dlog" or name.startswith("dlog.")]
    patched = []
    for module, function in TRACED:
        original = getattr(sys.modules[f"dlog.{module}"], function)
        wrapper = tracer.wrap(f"{module}.{function}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    patched.append((m, attr, original))
                    setattr(m, attr, wrapper)
    init = ConclusionSet.__dict__["__init__"]
    from_tag_sets = ConclusionSet.__dict__["from_tag_sets"]
    ConclusionSet.__init__ = tracer.wrap(CONCLUSION_SET, init)
    ConclusionSet.from_tag_sets = classmethod(tracer.wrap(CONCLUSION_SET, from_tag_sets.__func__))
    patched += [(ConclusionSet, "__init__", init), (ConclusionSet, "from_tag_sets", from_tag_sets)]
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
