"""Span tracing of tsagg's public functions, patched in from outside the package.

A ``Tracer`` replaces each traced function with a timing wrapper in every
``tsagg`` module that binds it (``tsagg.dispatch_model.solve`` and
``tsagg.evaluation.solve`` are separate names for one function), records
one span per call in memory, and puts the originals back on exit.  Nothing
in ``src/`` is edited.  Spans are plain tuples

    (span_id, parent_id, op_id, name, start_ns, end_ns, info)

where ``parent_id`` is -1 for a root, ``op_id`` is the span id of the
benchmark operation the call belongs to, and ``info`` carries the counts a
layer metric needs (pivots and flops, bytes written, hours, trials).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

SPAN_FIELDS = ("span_id", "parent_id", "op_id", "name", "start_ns", "end_ns", "info")


def _simplex_info(args, result):
    # simplex(c, A, b, ...) -> (status, basis, iterations)
    m, n = args[1].shape
    pivots = int(result[2])
    return {"pivots": pivots, "tableau_flops": pivots * 2 * (m + 1) * (n + m + 1)}


def _bytes_info(args, result):
    # write_report(report, path) and write_clusters(model, features, path)
    return {"bytes": os.path.getsize(args[-1])}


def _hours_info(args, result):
    return {"hours": int(args[0].horizon)}


def _trials_info(args, result):
    return {"trials": int(result.trials)}


# (layer name, module, attribute, info hook).  The layer name is
# "<module>.<function>" as used in the per-layer metric names.
TARGETS = (
    ("_kernels.simplex", "_kernels", "simplex", _simplex_info),
    ("_kernels.basis_eval", "_kernels", "basis_eval", None),
    ("lp_core.solve", "lp_core", "solve", None),
    ("lp_core.solve_with_basis", "lp_core", "solve_with_basis", None),
    ("lp_core.StandardFormLP", "lp_core", "StandardFormLP.__init__", None),
    ("dispatch_model.hourly_rhs", "dispatch_model", "hourly_rhs", None),
    ("dispatch_model.solve_full", "dispatch_model", "solve_full", _hours_info),
    ("dispatch_model.solve_aggregated", "dispatch_model", "solve_aggregated", None),
    ("tsa_clustering.normalize_features", "tsa_clustering", "normalize_features", None),
    ("tsa_clustering.kmeans", "tsa_clustering", "kmeans", None),
    ("tsa_clustering.basis_cluster", "tsa_clustering", "basis_cluster", None),
    ("tsa_clustering.to_representatives", "tsa_clustering", "to_representatives", None),
    ("tsa_clustering.input_mse", "tsa_clustering", "input_mse", None),
    ("evaluation.compare_methods_detailed", "evaluation", "compare_methods_detailed", None),
    ("evaluation.theorem_check", "evaluation", "theorem_check", None),
    ("evaluation.run_theorem_trials", "evaluation", "run_theorem_trials", _trials_info),
    ("data_io.load_config", "data_io", "load_config", None),
    ("data_io.write_report", "data_io", "write_report", _bytes_info),
    ("data_io.write_clusters", "data_io", "write_clusters", _bytes_info),
    ("data_io.generate_synthetic", "data_io", "generate_synthetic", None),
    ("cli.main", "cli", "main", None),
    ("plotting.write_plot", "plotting", "write_plot", None),
)


class Tracer:
    """In-memory span recorder; use as a context manager to patch tsagg."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op = -1
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, info) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, self._op, name, t0, t1, info))

    def op(self, name: str, fn, *args, **kwargs):
        """Run one benchmark operation as a root span; returns fn's result."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        sid, parent = self._open()
        self._op = sid
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0, None)
            self._op = -1

    def wrap(self, name: str, fn, info_hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            t0 = time.perf_counter_ns()
            info = None
            try:
                result = fn(*args, **kwargs)
                if info_hook is not None:
                    info = info_hook(args, result)
                return result
            finally:
                tracer._close(sid, parent, name, t0, info)

        return traced

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        importlib.import_module("tsagg.cli")  # loads every tsagg module
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "tsagg" or key.startswith("tsagg.")
        ]
        for name, module, attr, hook in TARGETS:
            owner = importlib.import_module(f"tsagg.{module}")
            if "." in attr:
                # A class: wrap its __init__ on the class itself, so every
                # construction site (including with_rhs) is covered.
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self.wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        return False

    # -- output -----------------------------------------------------------

    def write_csv(self, path) -> None:
        """Write every span as a gzip-compressed CSV row."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(",".join(SPAN_FIELDS) + "\n")
            for sid, parent, op, name, t0, t1, info in self.spans:
                extra = ";".join(f"{k}={v}" for k, v in info.items()) if info else ""
                handle.write(f"{sid},{parent},{op},{name},{t0},{t1},{extra}\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, int]:
    """Per span: duration minus the part of it covered by its children (ns).

    Children are clipped to the parent's interval and overlapping children
    are merged first, so the result never goes below zero.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _op, _name, t0, t1, _info in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _op, _name, t0, t1, _info in spans:
        covered, reach = 0, t0  # reach: end of the union swept so far
        for c0, c1 in sorted(children.get(sid, ())):
            start, end = max(c0, reach), min(c1, t1)
            if end > start:
                covered += end - start
                reach = end
        out[sid] = (t1 - t0) - covered
    return out


def layer_totals(spans) -> dict[str, float]:
    """Per layer: calls, inclusive ms, self ms and the summed info counts.

    Inclusive ms counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for sid, parent, _op, name, t0, t1, info in spans:
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_ms"] += selfs[sid] / 1e6
        if name not in _ancestor_names(by_id, parent):
            totals[f"{name}.ms"] += (t1 - t0) / 1e6
        if info:
            for key, value in info.items():
                totals[f"{name}.{key}"] += value
    return dict(totals)


def _ancestor_names(by_id, parent):
    while parent >= 0:
        span = by_id[parent]
        yield span[3]
        parent = span[1]


def hours_per_simplex_call(spans) -> float:
    """Hours solved by solve_full over simplex calls made inside it."""
    by_id = {s[0]: s for s in spans}
    hours = sum(
        s[6]["hours"] for s in spans
        if s[3] == "dispatch_model.solve_full" and s[6]
    )
    calls = sum(
        1 for s in spans
        if s[3] == "_kernels.simplex"
        and "dispatch_model.solve_full" in _ancestor_names(by_id, s[1])
    )
    return hours / calls if calls else 0.0


def trial_accept_ratio(spans) -> float:
    """Trials kept over LPs drawn: solves made directly by run_theorem_trials."""
    by_id = {s[0]: s for s in spans}
    trials = sum(
        s[6]["trials"] for s in spans
        if s[3] == "evaluation.run_theorem_trials" and s[6]
    )
    drawn = sum(
        1 for s in spans
        if s[3] == "lp_core.solve" and s[1] >= 0
        and by_id[s[1]][3] == "evaluation.run_theorem_trials"
    )
    return trials / drawn if drawn else 0.0
