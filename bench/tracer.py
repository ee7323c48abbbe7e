"""Spans around calls into qrspaces' public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``qrspaces`` module that holds a copy of it (``from .x import y`` makes
one copy per importing module), and each traced method once, on its class.
``uninstall`` puts every original back.  Spans are kept in memory as
``[name, start, end, parent, item, nested, attrs]`` lists (``parent`` is the
index of the enclosing span, ``nested`` marks a call inside a call of the same
layer, ``attrs`` holds work counts) and written out by ``write``; the
per-layer metrics are aggregated from them by ``metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

from qrspaces import quadrature
from qrspaces.quadrature import angular_count_for


def _jacobi_cache_info():
    """(hits, misses) of the Gauss-Jacobi node cache, (0, 0) if it is gone."""
    cache = getattr(quadrature, "_jacobi_01", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    return (info.hits, info.misses) if info else (0, 0)


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _kernel_nodes(tracer, args, kwargs, result):
    """radial x angular count of one per-a integral (computed, not counted).

    With s_eff = 0 the kernel integrates the master grid once per problem and
    caches the value, so only the first call on a problem costs nodes.
    """
    problem, a = args[0], args[1]
    if problem.s_eff == 0.0:
        if problem in tracer._constant_problems:
            return {"nodes": 0}
        tracer._constant_problems.add(problem)
        return {"nodes": problem.radial * problem.max_angular}
    count = min(angular_count_for(abs(complex(a)), abs(problem.s_eff),
                                  problem.base_angular), problem.max_angular)
    return {"nodes": problem.radial * count}


def _tabulate_nodes(tracer, args, kwargs, result):
    problem = args[0]
    return {"nodes": problem.radial * problem.max_angular}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
FUNCTIONS = [
    ("qrspaces.cli", "main", "cli", None),
    ("qrspaces.spaces", "q_npa_norm", "spaces.norm", None),
    ("qrspaces.spaces", "qh_npa_norm", "spaces.norm", None),
    ("qrspaces.spaces", "fh_pqs_norm", "spaces.norm", None),
    ("qrspaces.spaces", "m_pqs_norm", "spaces.norm", None),
    ("qrspaces.spaces", "specialized_norm", "spaces.norm", None),
    ("qrspaces.spaces", "sigma_deriv_constant", "spaces.constant", None),
    ("qrspaces.spaces", "weight_overlap_constant", "spaces.constant", None),
    ("qrspaces.spaces", "morrey_constant", "spaces.constant", None),
    ("qrspaces.spaces", "qs_constant", "spaces.constant", None),
    ("qrspaces.verify", "check_conjugate_bound_qh", "verify.check", None),
    ("qrspaces.verify", "check_conjugate_bound_fh", "verify.check", None),
    ("qrspaces.verify", "check_inhomogeneous_bound_qh", "verify.check", None),
    ("qrspaces.verify", "check_inhomogeneous_bound_fh", "verify.check", None),
    ("qrspaces.verify", "verify_corollary", "verify.check", None),
    ("qrspaces.verify", "verify_membership", "verify.membership",
     lambda args, kwargs, res: {"radii": len(res.extra["truncation_trace"])}),
    ("qrspaces.quadrature", "disk_integral_green", "quadrature.green",
     lambda args, kwargs, res: {"refinements": res.refinements_used}),
    ("qrspaces.quadrature", "truncated_radial_rule", "quadrature.truncated_rule",
     None),
    ("qrspaces.quadrature", "build_grid", "quadrature.grid", None),
    ("qrspaces.harmonic", "wirtinger", "harmonic.wirtinger", _points),
    ("qrspaces.harmonic", "estimate_quasiregularity", "harmonic.qr_estimate",
     None),
    ("qrspaces.families", "growth_exponent", "families.growth", None),
    ("qrspaces.mobius", "sigma", "mobius.sigma", _points),
    ("qrspaces.analytic", "compose_mobius", "analytic.compose", None),
]

# (module, class, method, span name, attrs(tracer, args, kwargs, result) or None)
METHODS = [
    ("qrspaces.spaces", "WeightedSupProblem", "__init__", "spaces.tabulate",
     _tabulate_nodes),
    ("qrspaces.spaces", "WeightedSupProblem", "integral_at", "spaces.kernel",
     _kernel_nodes),
    ("qrspaces.spaces", "WeightedSupProblem", "refined_integral_at",
     "spaces.refine", None),
    ("qrspaces.analytic", "AnalyticFn", "jet", "analytic.jet",
     lambda tracer, *call: _points(*call)),
]

# Per-layer metric -> (span name, aggregate, unit).  ``s`` is wall time inside
# the layer's outermost calls, ``self_s`` excludes time in traced callees.
LAYER_METRICS = {
    "spaces.kernel.calls": ("spaces.kernel", "calls", "count"),
    "spaces.kernel.s": ("spaces.kernel", "s", "s"),
    "spaces.kernel.nodes": ("spaces.kernel", "nodes", "count"),
    "spaces.kernel.calls_per_item": ("spaces.kernel", "calls_per_item", "count"),
    "spaces.refine.calls": ("spaces.refine", "calls", "count"),
    "spaces.refine.s": ("spaces.refine", "s", "s"),
    "spaces.tabulate.calls": ("spaces.tabulate", "calls", "count"),
    "spaces.tabulate.s": ("spaces.tabulate", "s", "s"),
    "spaces.tabulate.nodes": ("spaces.tabulate", "nodes", "count"),
    "analytic.jet.calls": ("analytic.jet", "calls", "count"),
    "analytic.jet.self_s": ("analytic.jet", "self_s", "s"),
    "analytic.jet.points": ("analytic.jet", "points", "count"),
    "analytic.compose.calls": ("analytic.compose", "calls", "count"),
    "spaces.norm.calls": ("spaces.norm", "calls", "count"),
    "spaces.norm.self_s": ("spaces.norm", "self_s", "s"),
    "spaces.constant.calls": ("spaces.constant", "calls", "count"),
    "spaces.constant.self_s": ("spaces.constant", "self_s", "s"),
    "verify.check.calls": ("verify.check", "calls", "count"),
    "verify.check.self_s": ("verify.check", "self_s", "s"),
    "verify.membership.calls": ("verify.membership", "calls", "count"),
    "verify.membership.self_s": ("verify.membership", "self_s", "s"),
    "verify.membership.radii": ("verify.membership", "radii", "count"),
    "quadrature.green.calls": ("quadrature.green", "calls", "count"),
    "quadrature.green.s": ("quadrature.green", "s", "s"),
    "quadrature.green.refinements": ("quadrature.green", "refinements", "count"),
    "quadrature.truncated_rule.calls": ("quadrature.truncated_rule", "calls",
                                        "count"),
    "quadrature.truncated_rule.s": ("quadrature.truncated_rule", "s", "s"),
    "quadrature.grid.calls": ("quadrature.grid", "calls", "count"),
    "quadrature.grid.s": ("quadrature.grid", "s", "s"),
    "harmonic.wirtinger.calls": ("harmonic.wirtinger", "calls", "count"),
    "harmonic.wirtinger.s": ("harmonic.wirtinger", "s", "s"),
    "harmonic.wirtinger.points": ("harmonic.wirtinger", "points", "count"),
    "harmonic.qr_estimate.calls": ("harmonic.qr_estimate", "calls", "count"),
    "harmonic.qr_estimate.s": ("harmonic.qr_estimate", "s", "s"),
    "families.growth.calls": ("families.growth", "calls", "count"),
    "families.growth.s": ("families.growth", "s", "s"),
    "mobius.sigma.calls": ("mobius.sigma", "calls", "count"),
    "mobius.sigma.points": ("mobius.sigma", "points", "count"),
    "cli.calls": ("cli", "calls", "count"),
    "cli.self_s": ("cli", "self_s", "s"),
    "cli.out_bytes": ("item", "out_bytes", "bytes"),
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._open = defaultdict(int)  # span name -> calls currently open
        self._item = None
        self._patches = []  # (owner, attribute, original)
        self._constant_problems = weakref.WeakSet()
        self._jacobi_start = None
        self.missing = []

    # --- recording ------------------------------------------------------------

    def _start(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else None, self._item,
                self._open[name] > 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open[name] += 1
        return span

    def _stop(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrap(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stop(span)
            if attrs is not None:
                span[6] = attrs(args, kwargs, result)
            return result

        return traced

    def begin_item(self, item_id):
        self._item = item_id
        self._item_span = self._start("item")

    def end_item(self, out_bytes: int):
        self._stop(self._item_span)
        self._item_span[6] = {"out_bytes": out_bytes}
        self._item = None

    # --- patching -------------------------------------------------------------

    def install(self):
        """Patch every target; a target the program no longer has is skipped
        and listed in ``missing`` (its layer then reports zero)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qrspaces" or name.startswith("qrspaces.")]
        for mod_name, attr, name, attrs in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            traced = self._wrap(original, name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for mod_name, cls_name, method, name, attrs in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{method}")
                continue
            bound_attrs = None if attrs is None else functools.partial(attrs, self)
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, bound_attrs))
        self._jacobi_start = _jacobi_cache_info()

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # --- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Aggregate the spans into the per-layer metrics, with units."""
        agg = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, item, nested, attrs), self_s in \
                zip(self.spans, self._span_self_times()):
            layer = agg[name]
            layer["calls"] += 1
            layer["self_s"] += self_s
            if not nested:
                layer["s"] += end - start
            for key, value in (attrs or {}).items():
                layer[key] += value
        items = agg["item"]["calls"]
        agg["spaces.kernel"]["calls_per_item"] = \
            agg["spaces.kernel"]["calls"] / items if items else 0.0
        hits, misses = (now - start for now, start in
                        zip(_jacobi_cache_info(), self._jacobi_start))
        lookups = hits + misses
        out = {"quadrature.jacobi_cache.hit_ratio":
               {"value": hits / lookups if lookups else 0.0, "unit": "ratio"}}
        for metric, (span, key, unit) in LAYER_METRICS.items():
            value = agg[span][key]
            out[metric] = {"value": value if unit == "s" else _count(value),
                           "unit": unit}
        return out

    def _span_self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        return [span[2] - span[1] - child
                for span, child in zip(self.spans, child_time)]

    def self_times(self) -> dict:
        """Self time in seconds per span name, including the item spans."""
        out = defaultdict(float)
        for span, self_s in zip(self.spans, self._span_self_times()):
            out[span[0]] += self_s
        return dict(out)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item",
                                  "nested", "attrs"],
                       "spans": self.spans}, fh)


def _count(value):
    return int(value) if float(value).is_integer() else value
