"""Outside-in tracing of popdiff's layers, installed from the benchmark.

Each layer is a popdiff module. The Tracer wraps the public functions listed
in TARGETS, in every popdiff namespace that holds the function object (a
function imported by name into another module is wrapped there too), and
restores the originals afterwards. Spans stay in memory as (name, start,
end, parent, iteration, error) and are written once, at the end.

Run as a script, it traces one CLI call in a fresh interpreter, so a traced
call starts from the same cold state as an untraced one:

    python3 perfbench/tracer.py SPANS.json ITERATION <popdiff arguments...>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

MODULES = ("cli", "patterns", "gridfn", "_grid", "ffalg", "analysis", "counterexample", "threept")
TARGETS = (
    ("cli", "main"),
    ("patterns", "PatternSpec.from_json_obj"),
    ("gridfn", "read_grid_function"),
    ("gridfn", "GridFunction.__init__"),
    ("gridfn", "GridFunction.mean"),
    ("gridfn", "grid_decode"),
    ("_grid", "digit_table"),
    ("_grid", "encode_digits"),
    ("_grid", "add_perm"),
    ("_grid", "linear_perm"),
    ("ffalg", "mat_inverse"),
    ("ffalg", "rref"),
    ("ffalg", "FpMatrix.mul"),
    ("ffalg", "is_invertible"),
    ("analysis", "popular_search"),
    ("analysis", "pattern_count"),
    ("analysis", "translate"),
    ("analysis", "gowers_norm"),
    ("counterexample", "cex_report"),
    ("counterexample", "final_assembly"),
    ("counterexample", "dressed_h_matrix"),
    ("counterexample", "f1_matrix"),
    ("counterexample", "sparse_pattern_max"),
    ("counterexample", "hypergraph_expectations"),
    ("counterexample", "core_expectation_table"),
    ("threept", "FiniteGroupSpec.from_json_obj"),
    ("threept", "popular_3pt_search"),
    ("threept", "FiniteGroupSpec.apply"),
    ("threept", "FiniteGroupSpec.add_perm"),
)
ROOT_SPAN = "popdiff.cli.main"
TRANSLATE = "popdiff.analysis.translate"
LINEAR_PERM = "popdiff._grid.linear_perm"
MAT_INVERSE = "popdiff.ffalg.mat_inverse"
SPARSE_MAX = "popdiff.counterexample.sparse_pattern_max"
ELEMENTS = f"{TRANSLATE}.elements"  # sum of grid sizes gathered by translate
DISTINCT = f"{LINEAR_PERM}.distinct"  # distinct argument tuples of linear_perm
SUPPORT_PAIRS = "popdiff.counterexample.support_pairs"  # sum of support^2 over sparse_pattern_max

# Every per-layer metric with its unit and the direction that is better.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _mod, _qual in TARGETS:
    LAYER_METRICS[f"popdiff.{_mod}.{_qual}.calls"] = ("count", "lower")
    LAYER_METRICS[f"popdiff.{_mod}.{_qual}.self_s"] = ("s", "lower")
for _mod in MODULES:
    LAYER_METRICS[f"popdiff.{_mod}.self_s"] = ("s", "lower")
    LAYER_METRICS[f"popdiff.{_mod}.share"] = ("ratio", "lower")
LAYER_METRICS.update({
    ELEMENTS: ("count", "lower"),
    DISTINCT: ("count", "lower"),
    f"{MAT_INVERSE}.raised": ("count", "lower"),
    "popdiff.counterexample.affine_accept_ratio": ("ratio", "higher"),
    SUPPORT_PAIRS: ("count", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
})


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    iteration: int
    error: str | None  # exception type name when the call raised


class Tracer:
    """Wraps TARGETS while installed (use as a context manager)."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        self.spans: list[Span | None] = []
        self.counters = {ELEMENTS: 0, SUPPORT_PAIRS: 0}
        self.linear_perm_args: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {TRANSLATE: self._on_translate, LINEAR_PERM: self._on_linear_perm, SPARSE_MAX: self._on_sparse_max}

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        importlib.import_module("popdiff.cli")  # imports every layer
        namespaces = [m for k, m in list(sys.modules.items()) if k == "popdiff" or k.startswith("popdiff.")]
        for mod_name, qualname in TARGETS:
            module = sys.modules[f"popdiff.{mod_name}"]
            *path, attr = qualname.split(".")
            owner = functools.reduce(getattr, path, module)
            raw = vars(owner)[attr]
            name = f"popdiff.{mod_name}.{qualname}"
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            self._set(owner, attr, wrapped)
            if owner is module:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw and ns is not module:
                            self._set(ns, key, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, func):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.iteration, error)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _on_translate(self, args, kwargs, result) -> None:
        self.counters[ELEMENTS] += int(result.size)

    def _on_linear_perm(self, args, kwargs, result) -> None:
        self.linear_perm_args.add(repr((args, sorted(kwargs.items()))))

    def _on_sparse_max(self, args, kwargs, result) -> None:
        self.counters[SUPPORT_PAIRS] += int(result["support"]) ** 2

    def dump(self) -> dict:
        """Spans and counters as JSON-ready data."""
        counters = dict(self.counters, **{DISTINCT: len(self.linear_perm_args)})
        return {"spans": [list(s) for s in self.spans], "counters": counters}


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name; self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out: dict[str, tuple[int, float]] = {}
    for i, s in enumerate(spans):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + (s.end - s.start) - child[i])
    return out


def layer_metrics(dumps: list[dict]) -> tuple[dict[str, float], float]:
    """Per-layer metrics of one iteration from the dumps of its traced calls
    (every metric in LAYER_METRICS except trace_overhead_ratio), and the
    summed duration of its cli.main spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    root_s = 0.0
    raised = 0
    for dump in dumps:
        spans = [Span(*s) for s in dump["spans"]]
        for name, (n, t) in self_times(spans).items():
            calls[name] += n
            self_s[name] += t
        root_s += sum(s.end - s.start for s in spans if s.parent < 0 and s.name == ROOT_SPAN)
        raised += sum(1 for s in spans if s.name == MAT_INVERSE and s.error is not None)
        for key, value in dump["counters"].items():
            counters[key] += value
    out: dict[str, float] = {}
    for mod, qual in TARGETS:
        name = f"popdiff.{mod}.{qual}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for mod in MODULES:
        total = sum(self_s[f"popdiff.{mod}.{qual}"] for m, qual in TARGETS if m == mod)
        out[f"popdiff.{mod}.self_s"] = total
        out[f"popdiff.{mod}.share"] = total / root_s if root_s > 0 else 0.0
    for key in (ELEMENTS, DISTINCT, SUPPORT_PAIRS):
        out[key] = counters[key]
    attempts = calls[MAT_INVERSE]
    out[f"{MAT_INVERSE}.raised"] = raised
    out["popdiff.counterexample.affine_accept_ratio"] = (attempts - raised) / attempts if attempts else 0.0
    return out, root_s


def main(argv: list[str]) -> int:
    out_path, iteration, cli_args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(iteration)
    try:
        with tracer:
            code = sys.modules["popdiff.cli"].main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
