"""In-memory span tracer installed around the public functions of robustpred.

Each public function defined in one of the layer modules is replaced by a
wrapper that records a span: name, start, end, parent span and operation id.
The wrapper is rebound wherever the original object is reachable by name in
a ``robustpred`` module namespace, because a module that did
``from .gate import delta_stat`` holds its own reference to the function.

Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "dataio", "datagen", "linalg", "predictors", "gate", "robust", "evalkit")

# Called once per written cell by write_csv: a span per cell would multiply
# write_csv's traced time. Its cost stays in write_csv's self time.
UNWRAPPED = {"dataio.fmt_float"}


def _rows_of(a) -> int:
    return a.shape[0] if isinstance(a, np.ndarray) and a.ndim == 2 else 1


def _stats_read_csv(args, kwargs, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _stats_write_csv(args, kwargs, result):
    names = list(args[1])
    return {"rows": len(args[2][names[0]]), "bytes": os.path.getsize(args[0])}


def _stats_build_lagged(args, kwargs, result):
    return {"rows": result.n, "rows_dropped": result.n_dropped}


def _stats_generate_linear(args, kwargs, result):
    return {"rows": result[0].shape[0]}


def _stats_fit_gate(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _stats_mc(args, kwargs, result):
    return {"failed_runs": len(result[0].failed_runs)}


def _stats_rows_arg(index):
    def stats(args, kwargs, result):
        return {"rows": _rows_of(np.asarray(args[index]))}

    return stats


# Per-call counters read from arguments or results, inside the span.
STATS = {
    "dataio.read_csv": _stats_read_csv,
    "dataio.write_csv": _stats_write_csv,
    "dataio.build_lagged": _stats_build_lagged,
    "datagen.generate_linear": _stats_generate_linear,
    "gate.fit_gate": _stats_fit_gate,
    "gate.delta_stat": _stats_rows_arg(2),
    "gate.is_outlier": _stats_rows_arg(1),
    "predictors.predict": _stats_rows_arg(1),
    "robust.predict_robust": _stats_rows_arg(1),
    "evalkit.run_mc_experiment": _stats_mc,
}


class Tracer:
    """Span store. Spans are appended in start order; ``parent`` is an index."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stats = {}
        self.stack = []
        self.op = -1
        self.installed = []

    def wrap(self, name, fn):
        stats_fn = STATS.get(name)
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack, stats = self.parents, self.ops, self.stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the span includes this bookkeeping, so tracing cost shows up as
            # self time of the traced function, not as unaccounted time
            t0 = clock()
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(t0)
            ends.append(t0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if stats_fn is not None:
                    stats[idx] = stats_fn(args, kwargs, result)
                return result
            finally:
                stack.pop()
                ends[idx] = clock()

        return traced

    def install(self, package: str = "robustpred") -> list:
        """Wrap every public function of each layer module and rebind it in
        every module of the package that holds it by name."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self.installed.append(f"{mod.__name__}.{attr}")
        return sorted(self.installed)

    def open_op(self, name: str) -> int:
        """Open the root span of one harness operation. The call's cost
        outside the wrapped functions becomes this span's self time. The span
        reads the clock itself, apart from the harness's timing of the call."""
        t0 = time.perf_counter()
        self.op += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(-1)
        self.ops.append(self.op)
        self.starts.append(t0)
        self.ends.append(t0)
        self.stack.append(idx)
        return idx

    def close_op(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def mark(self) -> int:
        return len(self.names)

    def self_times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Self time of spans [lo, hi): duration minus the child spans.

        Raises ValueError if a child does not lie inside its parent, a span
        crosses operations, or siblings overlap.
        """
        hi = len(self.names) if hi is None else hi
        starts = np.asarray(self.starts[lo:hi])
        ends = np.asarray(self.ends[lo:hi])
        parents = np.asarray(self.parents[lo:hi], dtype=np.int64)
        ops = np.asarray(self.ops[lo:hi])
        dur = ends - starts
        if np.any(dur < 0):
            raise ValueError("span ends before it starts")
        child = np.flatnonzero(parents >= 0)
        p = parents[child] - lo
        if np.any(p < 0):
            raise ValueError("span parent lies outside the analysed range")
        if np.any((starts[child] < starts[p]) | (ends[child] > ends[p]) | (ops[child] != ops[p])):
            raise ValueError("a span is not nested in its parent")
        # siblings, in start order, must not overlap
        order = np.lexsort((child, p))
        same = p[order][1:] == p[order][:-1]
        if np.any(starts[child[order][1:]][same] < ends[child[order][:-1]][same]):
            raise ValueError("sibling spans overlap")
        return dur - np.bincount(p, weights=dur[child], minlength=hi - lo)

    def write(self, path) -> None:
        """Write all spans as JSON lines: name, start, end, parent, op, stats."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                rec = {
                    "span": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "op": self.ops[i],
                }
                if i in self.stats:
                    rec.update(self.stats[i])
                fh.write(json.dumps(rec) + "\n")
