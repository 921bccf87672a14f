"""Spans around calls into the public functions of each hfreemaps module.

The spans are installed from outside the program: every function named
in ``LAYERS`` is replaced, in each ``hfreemaps`` module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent) and the layer's counters.  ``numpy.linalg.svd`` is wrapped the
same way, because it is the boundary of SVD rank certification.  A
layer's self time is the span's duration minus the time its child spans
cover.  Spans stay in memory until the worker writes them out.

A function that is missing (a later version renamed or removed it) is
reported as absent instead of failing the run.  Modules that the
workload never imports are simply not traced: their layers read zero.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# layer -> the public functions whose calls it times, as (module, attribute)
LAYERS = {
    "scenario.load": [("hfreemaps.scenario", "load_scenario")],
    "expr.parse": [("hfreemaps.expr", "parse")],
    "expr.jet": [("hfreemaps.expr", "eval_jet2"), ("hfreemaps.expr", "eval_jet2_many")],
    "expr.value": [("hfreemaps.expr", "eval_value_many")],
    "lie.lie": [("hfreemaps.lie", "lie")],
    "lie.expr": [("hfreemaps.lie", "lie_expr")],
    "hfree.assemble": [("hfreemaps.hfree", "freedom_matrix_many")],
    "hfree.invert": [("hfreemaps.hfree", "infinitesimal_invert")],
    "hfree.point": [("hfreemaps.hfree", name) for name in (
        "freedom_matrix", "is_hfree_at", "is_h_immersion_at",
        "wintergarten_rank", "induced_metric")],
    "linalg.svd": [("numpy.linalg", "svd")],
    "constructions.build": [("hfreemaps.constructions", name) for name in (
        "compose_1d", "build_cis", "build_rp", "hamiltonian_field",
        "cis_determinant_constant")],
    "constructions.verify": [("hfreemaps.constructions", name) for name in (
        "verify_1d", "verify_cis", "rp_bracket_many")],
    "genericity.trial": [("hfreemaps.genericity", "genericity_trial")],
    "genericity.mapgen": [("hfreemaps.genericity", "random_poly_map")],
    "transversal.tube": [("hfreemaps.transversal", "build_tube")],
    "transversal.locate": [("hfreemaps.transversal", "tube_function")],
    "transversal.glue": [("hfreemaps.transversal", "glue")],
    "transversal.verify": [("hfreemaps.transversal", "verify_transversal")],
    "transversal.profile": [("hfreemaps.transversal", "BumpProfile.__init__")],
    "contours.march": [("hfreemaps.contours", "marching_squares")],
    "contours.svg": [("hfreemaps.contours", "contour_svg")],
    "io.csv": [("hfreemaps.transversal", "write_grid_csv"),
               ("hfreemaps.genericity", "write_trials_csv")],
    "cli.self": [("hfreemaps.cli", "run")],
}

# phases of the benchmark's own code, so that self times add up to the pass
BENCH_PHASES = ("bench.inputs", "bench.check")

# per-layer metrics reported by a traced run: name -> (unit, better)
TIME_METRICS = [f"{layer}_s" for layer in LAYERS] + [f"{p}_s" for p in BENCH_PHASES] + [
    "trace.walk_s", "trace.run_s", "trace.untraced_run_s", "trace.overhead_s",
    "trace.self_sum_s"]
COUNT_METRICS = [
    "expr.parse_calls", "expr.jet_calls", "expr.jet_points", "expr.jet_tree_nodes",
    "expr.jet_unique_nodes", "expr.value_calls", "expr.value_points",
    "lie.lie_calls", "hfree.assemble_calls", "hfree.matrices",
    "hfree.invert_calls", "hfree.point_calls", "linalg.svd_calls",
    "linalg.svd_matrices", "linalg.svd_in_invert", "genericity.pairs",
    "transversal.rhs_calls", "transversal.located", "transversal.queried",
    "contours.cells", "contours.segments", "io.bytes", "trace.spans"]
RATIO_METRICS = {
    # name -> (numerator, denominator, unit, better)
    "expr.jet_unique_ratio": ("expr.jet_unique_nodes", "expr.jet_tree_nodes", "ratio", "lower"),
    "hfree.mean_batch": ("hfree.matrices", "hfree.assemble_calls", "points", "higher"),
    "linalg.svd_per_solve": ("linalg.svd_in_invert", "hfree.invert_calls", "count", "lower"),
    "transversal.located_ratio": ("transversal.located", "transversal.queried", "ratio", "higher"),
}
# helper counts that only feed a ratio are not reported on their own
_RATIO_PARTS = {"linalg.svd_in_invert", "transversal.located", "transversal.queried"}
REPORTED_COUNTS = [n for n in COUNT_METRICS if n not in _RATIO_PARTS]
# the layer whose public functions a count metric depends on
_COUNT_LAYER = {
    "expr.parse_calls": "expr.parse", "expr.jet_calls": "expr.jet",
    "expr.jet_points": "expr.jet", "expr.jet_tree_nodes": "expr.jet",
    "expr.jet_unique_nodes": "expr.jet", "expr.value_calls": "expr.value",
    "expr.value_points": "expr.value", "lie.lie_calls": "lie.lie",
    "hfree.assemble_calls": "hfree.assemble", "hfree.matrices": "hfree.assemble",
    "hfree.invert_calls": "hfree.invert", "hfree.point_calls": "hfree.point",
    "linalg.svd_calls": "linalg.svd", "linalg.svd_matrices": "linalg.svd",
    "linalg.svd_in_invert": "linalg.svd", "genericity.pairs": "genericity.trial",
    "transversal.rhs_calls": "expr.value", "transversal.located": "transversal.locate",
    "transversal.queried": "transversal.locate", "contours.cells": "contours.march",
    "contours.segments": "contours.march",
}


def per_layer_metrics() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json, in report order."""
    out = [{"name": n, "unit": "s", "better": "lower"} for n in TIME_METRICS]
    out += [{"name": n, "unit": "count",
             "better": "higher" if n == "genericity.pairs" else "lower"}
            for n in REPORTED_COUNTS]
    out += [{"name": n, "unit": unit, "better": better}
            for n, (_, _, unit, better) in RATIO_METRICS.items()]
    return out


def _batch_size(points) -> int:
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return int(shape[0]) if len(shape) > 1 else 1


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []        # (name, start, end, parent index)
        self._stack: list = []       # [span index, time covered by children]
        self._open = Counter()       # layer -> open spans of that layer
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.walk_s = 0.0
        self._trees: dict = {}       # id(root) -> (root, tree nodes, unique nodes)

    def is_open(self, layer: str) -> bool:
        return self._open[layer] > 0

    def _enter(self, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0, parent, perf_counter()]
        self.spans.append(None)
        self._stack.append(frame)
        self._open[layer] += 1
        return frame

    def _exit(self, layer: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        self._open[layer] -= 1
        index, covered, parent, start = frame
        duration = end - start
        self.spans[index] = (layer, start, end, parent)
        self.self_time[layer] += duration - covered
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, layer: str):
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(layer, frame)

    def call(self, layer: str, fn, args, kwargs):
        frame = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(layer, frame)

    def count_tree(self, root) -> None:
        """Tree and unique node counts of an expression, walked outside
        the timed spans; the walk's time is charged to ``trace.walk_s``."""
        start = perf_counter()
        hit = self._trees.get(id(root))
        if hit is None or hit[0] is not root:
            tree, unique = _tree_sizes(root)
            hit = (root, tree, unique)
            self._trees[id(root)] = hit
        self.counts["expr.jet_tree_nodes"] += hit[1]
        self.counts["expr.jet_unique_nodes"] += hit[2]
        duration = perf_counter() - start
        self.walk_s += duration
        if self._stack:
            self._stack[-1][1] += duration

    def metrics(self) -> dict:
        """Self times, calls and counts of the pass, by metric name."""
        out = {f"{layer}_s": self.self_time[layer] for layer in LAYERS}
        for phase in BENCH_PHASES:
            out[f"{phase}_s"] = self.self_time[phase]
        out["trace.walk_s"] = self.walk_s
        out["trace.self_sum_s"] = sum(self.self_time.values()) + self.walk_s
        for name in COUNT_METRICS:
            if name.endswith("_calls") and name[:-len("_calls")] in LAYERS:
                out[name] = self.calls[name[:-len("_calls")]]
            else:
                out[name] = self.counts[name]
        out["trace.spans"] = len(self.spans)
        return out


_CHILD_FIELDS: dict = {}


def _children(node, expr_type):
    names = _CHILD_FIELDS.get(type(node))
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(node)) \
            if dataclasses.is_dataclass(node) else ()
        _CHILD_FIELDS[type(node)] = names
    kids = (getattr(node, n) for n in names)
    return [k for k in kids if isinstance(k, expr_type)]


def _tree_sizes(root) -> tuple[int, int]:
    """(nodes counted as a tree, distinct node objects) below ``root``."""
    expr_type = sys.modules["hfreemaps.expr"].Expr
    size: dict = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if id(node) in size:
            continue
        kids = _children(node, expr_type)
        pending = [k for k in kids if id(k) not in size]
        if pending:
            todo.append(node)
            todo.extend(pending)
        else:
            size[id(node)] = 1 + sum(size[id(k)] for k in kids)
    return size[id(root)], len(size)


# counters read from a layer call's arguments or result
def _before_jet(rec, name, args, kwargs):
    root = args[0] if args else kwargs["e"]
    rec.count_tree(root)
    if name == "eval_jet2":
        rec.counts["expr.jet_points"] += 1
    else:
        rec.counts["expr.jet_points"] += _batch_size(args[2] if len(args) > 2 else kwargs["points"])


def _before_value(rec, name, args, kwargs):
    rec.counts["expr.value_points"] += _batch_size(args[2] if len(args) > 2 else kwargs["points"])
    if rec.is_open("transversal.tube"):
        rec.counts["transversal.rhs_calls"] += 1


def _before_assemble(rec, name, args, kwargs):
    rec.counts["hfree.matrices"] += _batch_size(args[2] if len(args) > 2 else kwargs["points"])


def _before_svd(rec, name, args, kwargs):
    a = args[0] if args else kwargs["a"]
    rec.counts["linalg.svd_matrices"] += math.prod(getattr(a, "shape", (1, 1))[:-2])
    if rec.is_open("hfree.invert"):
        rec.counts["linalg.svd_in_invert"] += 1


def _after_trial(rec, name, result):
    rec.counts["genericity.pairs"] += int(result.n_pairs)


def _after_locate(rec, name, result):
    times = result.times
    rec.counts["transversal.queried"] += int(times.size)
    rec.counts["transversal.located"] += int((times == times).sum())  # not NaN


def _before_march(rec, name, args, kwargs):
    values = args[2] if len(args) > 2 else kwargs["values"]
    ny, nx = values.shape
    rec.counts["contours.cells"] += (ny - 1) * (nx - 1)


def _after_march(rec, name, result):
    polylines = result[0]
    rec.counts["contours.segments"] += sum(len(line) - 1 for line in polylines)


_BEFORE = {"expr.jet": _before_jet, "expr.value": _before_value,
           "hfree.assemble": _before_assemble, "linalg.svd": _before_svd,
           "contours.march": _before_march}
_AFTER = {"genericity.trial": _after_trial, "transversal.locate": _after_locate,
          "contours.march": _after_march}


def _wrap(rec: Recorder, layer: str, name: str, fn):
    before, after = _BEFORE.get(layer), _AFTER.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(rec, name, args, kwargs)
        result = rec.call(layer, fn, args, kwargs)
        if after is not None:
            after(rec, name, result)
        return result

    return traced


class Tracer:
    """Installs and removes the layer wrappers around one Recorder."""

    def __init__(self):
        self.recorder = Recorder()
        self.absent: list[str] = []
        self._patches: list = []

    def install(self) -> None:
        self.absent = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                if not self._install_one(layer, module_name, attr):
                    self.absent.append(f"{module_name}.{attr}")

    def _install_one(self, layer, module_name, attr) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return True  # not imported by this workload, so never called
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name, None)
        if owner is None:
            return False
        if method:
            original = owner.__dict__.get(method)
            if original is None:
                return False
            self._patch(owner, method, original, _wrap(self.recorder, layer, attr, original))
            return True
        wrapper = _wrap(self.recorder, layer, attr, owner)
        self._patch(module, attr, owner, wrapper)
        for name, mod in list(sys.modules.items()):
            if mod is None or mod is module:
                continue
            if name == "hfreemaps" or name.startswith("hfreemaps."):
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, owner, wrapper)
        return True

    def _patch(self, holder, name, original, wrapper) -> None:
        setattr(holder, name, wrapper)
        self._patches.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches = []

    def span(self, phase: str):
        return self.recorder.span(phase)

    def reset(self) -> None:
        self.recorder = Recorder()


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    def span(self, phase: str):
        return nullcontext()


def ratio_metrics(counts: dict) -> dict:
    out = {}
    for name, (num, den, _, _) in RATIO_METRICS.items():
        out[name] = counts[num] / counts[den] if counts.get(den) else 0.0
    return out


def absent_metrics(absent_functions: list[str]) -> list[str]:
    """Metric names whose layer lost at least one traced function."""
    lost_layers = {layer for layer, targets in LAYERS.items()
                   for module_name, attr in targets
                   if f"{module_name}.{attr}" in absent_functions}
    names = [f"{layer}_s" for layer in lost_layers]
    names += [n for n, layer in _COUNT_LAYER.items() if layer in lost_layers]
    names += [n for n, (num, den, _, _) in RATIO_METRICS.items()
              if _COUNT_LAYER.get(num) in lost_layers or _COUNT_LAYER.get(den) in lost_layers]
    return sorted(set(names) - _RATIO_PARTS)
