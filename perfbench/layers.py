"""Per-layer numbers from one cProfile run around the timed loop.

Layers are the modules of the package plus the standard `fractions` module,
whose arithmetic is most of the exact kernel's cost. A module's self time is
the summed `tottime` of its functions; everything else (the benchmark, other
standard modules, numpy, builtins) is `other`.
"""
from __future__ import annotations

import fractions
import importlib
import os
import pstats

MODULES = ("rationals", "linalg", "dd", "lp", "fractions", "polytopes", "fans", "toric",
           "bdiv", "okounkov", "chern", "ideals", "report", "cli")

# metric prefix -> (module, function name as the profiler records it)
FUNCTIONS = {
    "linalg.rref": ("linalg", "rref"),
    "dd.extreme_rays": ("dd", "extreme_rays"),
    "fractions.Fraction.new": ("fractions", "__new__"),
    "lp.lp_max": ("lp", "lp_max"),
    "fans.refine_by_slopes": ("fans", "refine_by_slopes"),
    "fans.is_complete": ("fans", "is_complete"),
    "fans.common_refinement": ("fans", "common_refinement"),
    "fans.cone_contains": ("fans", "cone_contains"),
    "toric.psi_value": ("toric", "psi_value"),
    "polytopes.canonicalize": ("polytopes", "canonicalize"),
    "polytopes.mixed_volume": ("polytopes", "mixed_volume"),
    "polytopes.lattice_points": ("polytopes", "lattice_points"),
    "polytopes.hausdorff_linf": ("polytopes", "hausdorff_linf"),
    "bdiv.bdiv_of_metric": ("bdiv", "bdiv_of_metric"),
    "bdiv.intersect_cartier": ("bdiv", "intersect_cartier"),
    "bdiv.leq": ("bdiv", "leq"),
    "okounkov.FlagValuation.coords": ("okounkov", "coords"),
    "okounkov.partial_okounkov": ("okounkov", "partial_okounkov"),
    "chern.fiber_product_projectivization": ("chern", "fiber_product_projectivization"),
    "chern.eval_segre_monomial": ("chern", "eval_segre_monomial"),
    "ideals.test_ideal": ("ideals", "test_ideal"),
    "ideals._power_bracket": ("ideals", "_power_bracket"),
    "ideals.multiplier_ideal_monomial": ("ideals", "multiplier_ideal_monomial"),
    "cli.run": ("cli", "run"),
}

# cache name -> the module-level lru_cache it reads
CACHES = {"polytope_of_divisor": ("toric", "polytope_of_divisor"),
          "model_polytope": ("toric", "model_polytope"),
          "incarnation": ("bdiv", "_incarnation_on_own_fan")}

DERIVED = [("dd.extreme_rays.calls_per_query", "count/query"),
           ("ideals._power_bracket.calls_per_query", "count/query"),
           ("bdiv.bdiv_of_metric.calls_per_metric", "count/metric"),
           ("okounkov.hull_points_per_vertex", "points/vertex"),
           ("trace.loop_s", "s"),
           ("trace.self_coverage", "1"),
           ("trace.overhead_ratio", "1")]

METRICS = ([(f"{m}.self_s", "s") for m in MODULES + ("other",)]
           + [(f"{f}.{k}", u) for f in FUNCTIONS for k, u in (("calls", "count"), ("cum_s", "s"))]
           + [(f"cache.{c}.hit_ratio", "1") for c in CACHES]
           + DERIVED)
UNITS = dict(METRICS)


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each module cache; (0, 0) where the cache is gone."""
    out = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(importlib.import_module(f"toricbdiv.{module}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[name] = (info.hits, info.misses) if info else (0, 0)
    return out


def _module_of(filename: str, pkg_dir: str) -> str:
    if filename == fractions.__file__:
        return "fractions"
    if os.path.dirname(filename) == pkg_dir:
        stem = os.path.splitext(os.path.basename(filename))[0]
        if stem in MODULES:
            return stem
    return "other"


def profile_metrics(stats: pstats.Stats, loop_s: float, caches_before: dict,
                    caches_after: dict) -> dict[str, float]:
    """Module self times, per-function calls and cumulative times, cache hit ratios."""
    pkg_dir = os.path.dirname(importlib.import_module("toricbdiv").__file__)
    wanted = {v: k for k, v in FUNCTIONS.items()}
    out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES + ("other",)}
    for f in FUNCTIONS:
        out[f"{f}.calls"], out[f"{f}.cum_s"] = 0, 0.0
    total_self = 0.0
    for (filename, _, func), (_, calls, self_s, cum_s, _) in stats.stats.items():
        module = _module_of(filename, pkg_dir)
        out[f"{module}.self_s"] += self_s
        total_self += self_s
        name = wanted.get((module, func))
        if name:
            out[f"{name}.calls"] += calls
            out[f"{name}.cum_s"] += cum_s
    for c in CACHES:
        hits = caches_after[c][0] - caches_before[c][0]
        misses = caches_after[c][1] - caches_before[c][1]
        out[f"cache.{c}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["trace.loop_s"] = loop_s
    out["trace.self_coverage"] = total_self / loop_s
    return out
