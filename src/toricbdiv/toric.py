"""Toric divisors and PL metrics: polytopes, masses, volumes along refinements.

Sign conventions: psi_D(v_rho) = -a_rho, P_D = {m : <m, v_rho> >= -a_rho}, and the
Lelong number along a ray is nu_rho = g(v_rho) - psi_D(v_rho) >= 0. A metric is
g = min_j <m_j, v> over its slopes m_j, and every invariant reads only the model
polytope P(g), their hull (Botero 2019), so a metric holds its line and P(g).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import fans, polytopes
from .fans import Fan
from .linalg import solve
from .polytopes import Polytope
from .rationals import Vec, dot, idot, int_row, rat, vec


@dataclass(frozen=True)
class ToricDivisor:
    """Torus-invariant divisor sum a_rho D_rho on a fixed fan, with the functional m
    of each maximal cone (<m, v_rho> = -a_rho on its rays), a read-only map that
    equal divisors share and that eq and hash skip."""
    fan: Fan
    coeffs: tuple[Fraction, ...]
    functionals: Mapping[fans.Cone, Vec] = field(compare=False, repr=False)

    # cache keys: each Fraction hash takes a modular inverse, so hash once per object
    @cached_property
    def _hash(self) -> int:
        return hash((self.fan, self.coeffs))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def nef(self) -> bool:
        """psi_D concave: each cone's functional lies in P_D; tested once per object."""
        return _in_polytope(self, list(self.functionals.values()))


def divisor(fan: Fan, coeffs) -> ToricDivisor:
    """Build a divisor from a ray->coefficient mapping or a ray-aligned sequence."""
    if isinstance(coeffs, Mapping):
        out = [Fraction(0)] * len(fan.rays)
        seen = set()
        for key, val in coeffs.items():
            i = fan.ray_index(tuple(int(x) for x in key))
            if i is None:
                raise ValueError("ray not in fan")
            # keys such as (1, 0) and (2, 0) name one ray: neither may win by its order
            if i in seen:
                raise ValueError("ray given twice")
            seen.add(i)
            out[i] = rat(val)
        vals = tuple(out)
    else:
        vals = tuple(rat(c) for c in coeffs)
        if len(vals) != len(fan.rays):
            raise ValueError("coefficient count mismatch")
    return ToricDivisor(fan, vals, _functionals(fan, vals))


@lru_cache(maxsize=None)
def _functionals(fan: Fan, vals: tuple[Fraction, ...]) -> Mapping[fans.Cone, Vec]:
    """The functional of each maximal cone, solved once per (fan, coefficients) and
    read-only, as equal divisors share it."""
    functionals = {}
    for cone in fan.cones:
        m = solve(fan.cone_rays(cone), tuple(-vals[i] for i in cone))
        if m is None:
            raise ValueError("support function not linear on a cone")
        functionals[cone] = m
    return MappingProxyType(functionals)


def psi_value(d: ToricDivisor, v: Sequence) -> Fraction:
    """Evaluate the support function psi_D at a point of the fan's support."""
    x = vec(v)
    cone = fans.find_cone(d.fan, x)
    if cone is None:
        raise ValueError("ray not in support")
    return dot(d.functionals[cone], x)


@lru_cache(maxsize=None)
def polytope_of_divisor(d: ToricDivisor) -> Polytope:
    """P_D = {m : <m, v_rho> >= -a_rho}; raises "empty polytope" when infeasible.

    For a nef divisor on a complete fan, P_D is the hull of the cone functionals
    m_sigma (Cox, Little & Schenck, Thm 6.1.7), each a vertex, as the n rays of
    its full-dimensional cone are tight there; other divisors take a DD.
    """
    if not d.fan.complete:
        raise ValueError("fan must be complete")
    if d.nef:
        return polytopes.canonicalize(d.functionals.values())
    rows = [(vec(r), -a) for r, a in zip(d.fan.rays, d.coeffs)]
    return polytopes.from_halfspaces(rows, d.fan.dim)


def _in_polytope(d: ToricDivisor, points: Sequence[Vec]) -> bool:
    """Every point m lies in P_D: <m, v_rho> + a_rho >= 0 for every ray, tested on
    integers after one lcm over the points and the coefficients."""
    n = d.fan.dim
    if any(len(m) != n for m in points):
        raise ValueError("dimension mismatch")
    k = len(points) * n
    ints = int_row([x for m in points for x in m] + list(d.coeffs))[0]
    offsets = ints[k:]
    return all(idot(ints[i:i + n], r) + a >= 0
               for i in range(0, k, n) for r, a in zip(d.fan.rays, offsets))


def is_big(d: ToricDivisor) -> bool:
    try:
        p = polytope_of_divisor(d)
    except ValueError:
        return False
    return polytopes.affine_rank(list(p.vertices)) == d.fan.dim


@dataclass(frozen=True)
class ToricMetric:
    """PL concave metric g = min_{m in P(g)} <m, v> on O(D), held as its model
    polytope P(g): the Hermitian toric line that the masses, b-divisors and bodies
    take. Metrics that differ only in slopes inside P(g) or constants are equal."""
    line: ToricDivisor
    body: Polytope

    @cached_property
    def _hash(self) -> int:
        return hash((self.line, self.body))

    def __hash__(self) -> int:
        return self._hash

    def g(self, v: Sequence) -> Fraction:
        """Recession value min_j <m_j, v>: the slope of the metric at infinity."""
        x = vec(v)
        return min(dot(m, x) for m in self.body.vertices)


def _metric_on(line: ToricDivisor, body: Polytope) -> ToricMetric:
    """The metric of body P(g) on the line, once every vertex lies in P_D."""
    if not _in_polytope(line, body.vertices):
        raise ValueError("negative Lelong number")
    return ToricMetric(line, body)


def metric(line: ToricDivisor, pieces: Iterable[tuple[Sequence, object]]) -> ToricMetric:
    """The metric of pairs (m_j, c_j) on the line: only the slopes m_j are read,
    as no invariant depends on the constants c_j."""
    slopes = [m for m, _ in pieces]
    if not slopes:
        raise ValueError("metric needs at least one piece")
    return _metric_on(line, polytopes.canonicalize(slopes))


def metric_with_ray_weights(d: ToricDivisor, weights: Mapping) -> ToricMetric:
    """Metric with log singularity of weight w_rho along each listed ray divisor."""
    w = {}
    for key, val in weights.items():
        ray = tuple(int(x) for x in key)
        if d.fan.ray_index(ray) is None:
            raise ValueError("ray not in fan")
        w[ray] = rat(val)
    rows = [(vec(r), -a + w.get(r, Fraction(0))) for r, a in zip(d.fan.rays, d.coeffs)]
    return _metric_on(d, polytopes.from_halfspaces(rows, d.fan.dim))


def on_one_fan(d1: ToricDivisor, d2: ToricDivisor) -> tuple[Fan, Sequence[Fraction], Sequence[Fraction]]:
    """One fan both divisors live on, with the coefficients of each there: a shared
    fan as it is, else the common refinement with a_rho = -psi(v_rho)."""
    if d1.fan == d2.fan:
        return d1.fan, d1.coeffs, d2.coeffs
    common = fans.common_refinement(d1.fan, d2.fan)
    return common, [-psi_value(d1, r) for r in common.rays], [-psi_value(d2, r) for r in common.rays]


def divisor_sum(d1: ToricDivisor, d2: ToricDivisor) -> ToricDivisor:
    """psi_1 + psi_2, on the fan of on_one_fan."""
    fan, a1, a2 = on_one_fan(d1, d2)
    return divisor(fan, [x + y for x, y in zip(a1, a2)])


def tensor(h1: ToricMetric, h2: ToricMetric) -> ToricMetric:
    """Product metric: divisors add, and P(g1 + g2) = P(g1) + P(g2)."""
    return _metric_on(divisor_sum(h1.line, h2.line), polytopes.minkowski_sum(h1.body, h2.body))


def hermitian(metric_: ToricMetric) -> ToricMetric:
    """The metric itself, as a Hermitian toric line is its PL metric; kept because
    perfbench/workloads.py builds its lines through it."""
    return metric_


def np_mass(hs: Sequence[ToricMetric]) -> Fraction:
    """Non-pluripolar mass: n! times the mixed volume of the model polytopes."""
    if not hs:
        raise ValueError("wrong count of bodies")
    n = hs[0].line.fan.dim
    if any(h.line.fan.dim != n for h in hs):
        raise ValueError("dimension/fan mismatch")
    return math.factorial(n) * polytopes.mixed_volume([h.body for h in hs])


def volume_profile(h: ToricMetric, chain: Sequence[Fan]) -> list[Fraction]:
    """n! vol(P_D) of the minimal extension's divisor, a_rho = -g(v_rho), on each fan
    of a refinement chain."""
    for fine, coarse in zip(chain[1:], chain):
        if not fans.refines(fine, coarse):
            raise ValueError("chain not nested")
    out = []
    for f in chain:
        d = divisor(f, [-h.g(r) for r in f.rays])
        out.append(math.factorial(f.dim) * polytopes.volume(polytope_of_divisor(d)))
    return out
