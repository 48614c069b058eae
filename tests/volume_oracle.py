"""The volume route the library ran before Minkowski's facet formula: test oracle only.

`volume` triangulates a full-dimensional polytope recursively over its facets
and sums simplex determinants; `mixed_volume` polarizes it by
inclusion-exclusion over scaled Minkowski sums of the distinct bodies. The
differential tests in `test_polytopes.py` and `test_bdiv.py`, and
criterion-2 in `test_acceptance.py`, compare the library against these.

`volume_profile` and `incarnation_volumes` are two routes to the chain
volumes of `toric.volume_profile`: one through the minimal extension's metric
on each fan, one through the incarnation of the metric's b-divisor, whose psi
equals g everywhere.
Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Sequence

from toricbdiv import fans, polytopes, toric
from toricbdiv.bdiv import WeilNefB
from toricbdiv.fans import Fan
from toricbdiv.linalg import det
from toricbdiv.polytopes import (Polytope, _chain2d, affine_rank, canonicalize,
                                 minkowski_sum)
from toricbdiv.rationals import IntVec, Vec, dot, vsub

from conftest import pullback, scale


def _facet_vertices(p: Polytope, w: IntVec, c: Fraction) -> list[Vec]:
    return [v for v in p.vertices if dot(w, v) == c]


def _drop_coord(points: list[Vec], j: int) -> list[Vec]:
    return [v[:j] + v[j + 1:] for v in points]


def _triangulate(p: Polytope) -> list[tuple[Vec, ...]]:
    """Simplices covering a full-dimensional polytope (vertex tuples)."""
    n = p.dim
    verts = p.vertices
    if len(verts) == n + 1:
        return [verts]
    if n == 1:
        return [(verts[0], verts[-1])]
    if n == 2:
        hull = _chain2d(list(verts))
        return [(hull[0], hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    v0 = verts[0]
    simplices: list[tuple[Vec, ...]] = []
    for w, c in p.halfspaces:
        if dot(w, v0) == c:
            continue
        fverts = _facet_vertices(p, w, c)
        j = next(i for i, x in enumerate(w) if x != 0)
        proj = _drop_coord(fverts, j)
        back = {pr: orig for pr, orig in zip(proj, fverts)}
        sub = canonicalize(proj)
        for simplex in _triangulate(sub):
            simplices.append(tuple(back[s] for s in simplex) + (v0,))
    return simplices


def _det(vectors: list[Vec]) -> Fraction:
    return det([list(v) for v in vectors])


def volume(p: Polytope) -> Fraction:
    """Euclidean volume in the ambient dimension (0 for lower-dimensional bodies)."""
    n = p.dim
    if n == 0:
        return Fraction(0)
    if len(p.vertices) <= n or affine_rank(list(p.vertices)) < n:
        return Fraction(0)
    total = Fraction(0)
    fact = math.factorial(n)
    for simplex in _triangulate(p):
        base = simplex[-1]
        d = _det([vsub(v, base) for v in simplex[:-1]])
        total += abs(d) / fact
    return total


def _group_bodies(ps: Sequence[Polytope]) -> tuple[list[Polytope], list[int]]:
    reps: list[Polytope] = []
    mult: list[int] = []
    for body in ps:
        for i, r in enumerate(reps):
            if r.vertices == body.vertices:
                mult[i] += 1
                break
        else:
            reps.append(body)
            mult.append(1)
    return reps, mult


def mixed_volume(ps: Sequence[Polytope]) -> Fraction:
    """Mixed volume V(P1,...,Pn), normalized so V(P,...,P) = volume(P)."""
    if not ps:
        raise ValueError("wrong count of bodies")
    n = ps[0].dim
    if any(q.dim != n for q in ps):
        raise ValueError("dimension mismatch")
    if len(ps) != n:
        raise ValueError("wrong count of bodies")
    reps, mult = _group_bodies(ps)
    total = Fraction(0)
    for combo in product(*[range(m + 1) for m in mult]):
        k = sum(combo)
        if k == 0:
            continue
        count = 1
        for m, c in zip(mult, combo):
            count *= math.comb(m, c)
        body = None
        for rep, c in zip(reps, combo):
            if c == 0:
                continue
            piece = scale(rep, c)
            body = piece if body is None else minkowski_sum(body, piece)
        sign = -1 if (n - k) % 2 else 1
        total += sign * count * volume(body)
    return total / math.factorial(n)


def minimal_extension(m: toric.ToricMetric, fan: Fan) -> toric.ToricMetric:
    """Twist killing all Lelong numbers on the given fan: a'_rho = -g(v_rho)."""
    line = toric.divisor(fan, [-m.g(r) for r in fan.rays])
    return toric.metric(line, [(v, 0) for v in m.body.vertices])


def incarnation(b, fan: Fan) -> toric.ToricDivisor:
    """Divisor with a_rho = -psi(v_rho) on the given complete fan."""
    if isinstance(b, WeilNefB):
        b = b.limit if b.limit is not None else b.approximants[-1]
    return pullback(b, fan)


def volume_profile(h: toric.ToricMetric, chain: Sequence[Fan]) -> list[Fraction]:
    """n!-normalized volumes of the minimal extension's divisor along a refinement chain."""
    for fine, coarse in zip(chain[1:], chain):
        if not fans.refines(fine, coarse):
            raise ValueError("chain not nested")
    n = h.line.fan.dim
    out = []
    for f in chain:
        d = minimal_extension(h, f).line
        out.append(math.factorial(n) * polytopes.volume(toric.polytope_of_divisor(d)))
    return out


def incarnation_volumes(b: toric.ToricDivisor, chain: Sequence[Fan]) -> list[Fraction]:
    """n!-normalized volumes of the incarnation divisors along a refinement chain."""
    for fine, coarse in zip(chain[1:], chain):
        if not fans.refines(fine, coarse):
            raise ValueError("chain not nested")
    n = b.fan.dim
    out = []
    for f in chain:
        d = incarnation(b, f)
        out.append(math.factorial(n) * polytopes.volume(toric.polytope_of_divisor(d)))
    return out
