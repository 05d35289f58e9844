"""Outside-in tracing of hipar's public functions.

The tracer replaces each listed function at every hipar module binding that
holds it (``enumeration`` imports ``closure`` by name, ``cli`` imports
``run_hipar`` by name, ...), so calls made through any binding are seen.
Nothing under ``src/`` changes: the wrappers live here and are removed again
by ``Tracer.uninstall``.

A span is ``(op, span_id, parent_id, name, start_ns, end_ns)``. Spans stay in
memory until ``write_spans`` is called at the end of a run. A span's self time
is its duration minus the durations of its direct children; since calls nest,
self times of all spans add up to the time of the root spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "hipar",
    "hipar.data",
    "hipar.discretization",
    "hipar.patterns",
    "hipar.enumeration",
    "hipar.regression",
    "hipar.selection",
    "hipar.prediction",
    "hipar.pipeline",
    "hipar.cli",
)

# (defining module, function): each gets a span named "<layer>.<function>".
SPANNED = (
    ("data", "load_csv"),
    ("discretization", "binarize_target"),
    ("discretization", "mdlp_cuts"),
    ("patterns", "closure"),
    ("patterns", "region"),
    ("enumeration", "hipar_init"),
    ("enumeration", "enumerate_candidates"),
    ("enumeration", "occam_test"),
    ("regression", "best_local_model"),
    ("regression", "fit_lasso"),
    ("regression", "fit_omp"),
    ("regression", "fit_ols"),
    ("selection", "build_problem"),
    ("selection", "solve"),
    ("prediction", "predict"),
    ("prediction", "predict_batch"),
    ("pipeline", "run_hipar"),
    ("pipeline", "cross_validate"),
    ("pipeline", "serialize_rules"),
    ("pipeline", "deserialize_rules"),
    ("cli", "main"),
)

# Counted but not spanned: evaluate runs ~10^4 times per fit, and its time is
# part of whichever traced caller (occam_test, fit_lasso, ...) asked for it.
COUNTED = (("regression", "evaluate"),)


class Tracer:
    """Spans, call counts and the counters read from traced return values."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.enum_stats: list = []  # EnumStats of every enumerate_candidates call
        self.solvers: Counter[str] = Counter()
        self.candidates: list[int] = []  # pool size of every build_problem call
        self.chosen: list[int] = []  # rule count of every solve call
        self.op = 0
        self._next_id = 1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def new_op(self) -> None:
        """Start a new operation; later spans carry its id."""
        self.op += 1

    def _observe(self, name: str, result) -> None:
        if name == "enumeration.enumerate_candidates":
            self.enum_stats.append(result.stats)
        elif name == "selection.build_problem":
            self.candidates.append(len(result.candidates))
        elif name == "selection.solve":
            self.solvers[result.solver] += 1
            self.chosen.append(len(result.chosen))

    def _spanned(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
            self.calls[name] += 1
            self._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every module binding that holds it."""
        modules = [importlib.import_module(m) for m in MODULES]
        for make, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for layer, func in targets:
                original = getattr(importlib.import_module(f"hipar.{layer}"), func)
                wrapper = make(f"{layer}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_ns: dict[int, int] = defaultdict(int)
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _op, sid, _parent, name, start, end in self.spans:
            out[name] += (end - start - child_ns.get(sid, 0)) / 1e9
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)))
                fh.write("\n")
