"""Span tracing for the traced benchmark run.

The tracer wraps, from outside the library, every function that one rbell
module imports from another (for example ``rbell.bell._s2r`` or
``rbell.analytic.sturm_root_count``), every verify suite, and
``IntPolynomial.__mul__``.  Each wrapped call records a span: name, start,
end and parent.  Spans live in flat arrays because a single table query makes
about a million calls across the bell -> stirling boundary.

A layer is the module that defines the called function, and its self time is
the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

MODULES = ("algebra", "analytic", "bell", "cli", "oracle", "stirling", "transforms", "verify")
LAYERS = ("cli", "verify", "stirling", "bell", "transforms", "algebra", "analytic", "oracle")

# Argument checks and a math.comb wrapper: called everywhere, they would
# multiply the span count without telling which layer does the work.
UNWRAPPED = {"_check_natural", "binomial"}

# inclusive-time metrics: metric -> span names it sums
GROUPS = {
    "algebra.det_int_s": ("algebra.det_int",),
    "algebra.det_poly_s": ("algebra.det_poly",),
    "algebra.sturm_s": ("algebra.sturm_root_count",),
    "analytic.dobinski_s": ("analytic.dobinski_eval", "analytic.dobinski_series_sum"),
    "analytic.quad_s": ("analytic.cesaro_integral", "analytic.sin_moment"),
    "analytic.series_s": (
        "analytic.egf_coeffs", "analytic.ogf_coefficient_pair", "analytic.kummer_residual",
    ),
    "oracle.enumerate_s": ("oracle.enumerate_restricted_partitions",),
}

# call-count metrics: metric -> span names it counts
CALLS = {
    "algebra.det_calls": ("algebra.det_int", "algebra.det_poly"),
    "algebra.sturm_calls": ("algebra.sturm_root_count",),
    "algebra.polymul_calls": ("algebra.IntPolynomial.__mul__",),
    "analytic.dobinski_calls": ("analytic.dobinski_eval", "analytic.dobinski_series_sum"),
}


class Tracer:
    """Records spans for one operation at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.values = {"analytic.quad_nodes": 0, "oracle.partitions": 0}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None, name_for=None):
        """A wrapper of fn that records a span; name_for(args) may pick the
        span name per call, and on_result sees the return value."""
        fixed = self.name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = tracer.name_id(name_for(args)) if name_for else fixed
            stack = tracer.stack
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer self times, group times, counts and the spans merged by
        call path, for the operation traced since the last reset."""
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name_time: dict[str, float] = {}
        by_name_calls: dict[str, int] = {}
        layer_calls = dict.fromkeys(LAYERS, 0)
        # merged call tree: node key (parent node, name id) -> node id
        node_of = [0] * n
        nodes: dict[tuple[int, int], int] = {}
        tree: list[list] = []
        for i in range(n):
            nm = names[self.name[i]]
            layer = nm.split(".", 1)[0]
            self_s[layer] += dur[i] - child[i]
            layer_calls[layer] += 1
            by_name_time[nm] = by_name_time.get(nm, 0.0) + dur[i]
            by_name_calls[nm] = by_name_calls.get(nm, 0) + 1
            p = self.parent[i]
            key = (node_of[p] if p >= 0 else -1, self.name[i])
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = len(tree)
                parent_path = tree[key[0]][0] + "/" if key[0] >= 0 else ""
                tree.append([parent_path + nm, 0, 0.0, 0.0])
            node_of[i] = node
            entry = tree[node]
            entry[1] += 1
            entry[2] += dur[i]
            entry[3] += dur[i] - child[i]
        times = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        for metric, members in GROUPS.items():
            times[metric] = sum(by_name_time.get(m, 0.0) for m in members)
        for name, total in by_name_time.items():
            if name.startswith("verify.suite."):
                times[f"verify.{name[len('verify.suite.'):]}_s"] = total
        counts = {
            "stirling.calls": layer_calls["stirling"],
            "bell.calls": layer_calls["bell"],
        }
        for metric, members in CALLS.items():
            counts[metric] = sum(by_name_calls.get(m, 0) for m in members)
        counts.update(self.values)
        return {"times": times, "counts": counts, "tree": tree}


def install(tracer: Tracer) -> None:
    """Wrap rbell's module boundaries in place; rbell must already be imported."""
    from rbell.algebra import IntPolynomial

    def count_nodes(result):
        tracer.values["analytic.quad_nodes"] += result.nodes_used

    def count_partitions(result):
        tracer.values["oracle.partitions"] += result.total

    special = {
        "fraction_free_det": dict(
            name_for=lambda args: "algebra.det_poly"
            if any(isinstance(e, IntPolynomial) for row in args[0] for e in row)
            else "algebra.det_int"
        ),
        "cesaro_integral": dict(on_result=count_nodes),
        "enumerate_restricted_partitions": dict(on_result=count_partitions),
    }
    for short in MODULES:
        module = importlib.import_module(f"rbell.{short}")
        for attr, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", None) or ""
            if (
                callable(obj)
                and not isinstance(obj, type)
                and owner.startswith("rbell.")
                and owner != module.__name__
                and attr not in UNWRAPPED
            ):
                layer = owner.rsplit(".", 1)[1]
                setattr(module, attr, tracer.wrap(obj, f"{layer}.{attr}", **special.get(attr, {})))

    verify = importlib.import_module("rbell.verify")
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = tracer.wrap(fn, f"verify.suite.{suite}")

    mul = tracer.wrap(IntPolynomial.__mul__, "algebra.IntPolynomial.__mul__")
    IntPolynomial.__mul__ = mul
    IntPolynomial.__rmul__ = mul
