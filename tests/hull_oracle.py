"""The hull route the library ran before its integer `_hull`: test oracle only.

`canonicalize` extracts facets on `Fraction` points, with `Fraction` offsets
and a `Fraction` tight test; `_sum_normals` hulls a Minkowski sum of integer
point sets by its own lifted double description; `hull_of_ints` builds the
`Fraction`s of an integer hull first and sorts and dedups them after. The
differential tests in `test_polytopes.py` compare the library's
`canonicalize`, tail normals and `hull_of_ints` against these. Not collected
by pytest (no `test_` prefix).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from toricbdiv import dd
from toricbdiv.linalg import rank
from toricbdiv.polytopes import (Halfspace, Polytope, _build, _chain2d, _hull,
                                 affine_rank)
from toricbdiv.rationals import IntVec, dot, primitive, vec, vsub


def _normalize_facet(a: Sequence[Fraction], c: Fraction) -> Halfspace:
    """Rescale <a, x> >= c so the normal is a primitive integer vector."""
    n = primitive(a)
    i = next(j for j, x in enumerate(n) if x != 0)
    scale = Fraction(a[i]) / n[i]
    return n, Fraction(c) / scale


def _equality_pair(normal: Sequence[Fraction], c: Fraction) -> list[Halfspace]:
    n = primitive(normal)
    i = next(j for j, x in enumerate(n) if x != 0)
    if n[i] < 0:
        n = tuple(-x for x in n)
    scale = Fraction(normal[i]) / n[i]
    c = Fraction(c) / scale
    return [(n, c), (tuple(-x for x in n), -c)]


def canonicalize(raw_vertices: Iterable[Sequence]) -> Polytope:
    """Convex hull with minimal V- and H-representations, deterministically ordered."""
    pts = sorted({vec(p) for p in raw_vertices})
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("dimension mismatch")
    if len(pts) == 1:
        hs: list[Halfspace] = []
        for i in range(n):
            e = tuple(Fraction(int(i == j)) for j in range(n))
            hs.extend(_equality_pair(e, pts[0][i]))
        return _build(n, pts, hs)
    if n == 2 and affine_rank(pts) == 2:
        hull = _chain2d(pts)
        hs = []
        for i, v in enumerate(hull):
            w = hull[(i + 1) % len(hull)]
            d = vsub(w, v)
            normal = primitive((-d[1], d[0]))
            hs.append((normal, dot(normal, v)))
        return _build(n, hull, hs)

    # polar cone of the lifted points: extreme rays <-> facets, lineality <-> affine hull
    rows = [tuple(p) + (Fraction(1),) for p in pts]
    lin, rays = dd.extreme_rays(rows, n + 1)
    halfspaces: list[Halfspace] = []
    eq_normals: list[IntVec] = []
    for l in lin:
        a, c = l[:n], l[n]
        if all(x == 0 for x in a):
            continue
        pair = _equality_pair(a, -c)
        halfspaces.extend(pair)
        eq_normals.append(pair[0][0])
    for r in rays:
        a, c = r[:n], r[n]
        if all(x == 0 for x in a):
            continue
        halfspaces.append(_normalize_facet([Fraction(x) for x in a], Fraction(-c)))

    facet_list = [h for h in halfspaces]
    verts = []
    for p in pts:
        tight = [w for w, c in facet_list if dot(w, p) == c]
        if rank(tight) == n:
            verts.append(p)
    return _build(n, verts, halfspaces)


def _sum_normals(bodies: Sequence[Sequence[IntVec]]) -> list[IntVec]:
    """Primitive facet normals of the hull of a Minkowski sum of integer point sets;
    for a sum of codimension 1 the two normals of its hyperplane, below that none."""
    pts = {tuple(map(sum, zip(*combo))) for combo in product(*bodies)}
    m = len(next(iter(pts)))
    lin, rays = dd.extreme_rays([p + (1,) for p in pts], m + 1)
    if lin:
        a = primitive(lin[0][:m])
        return [a, tuple(-x for x in a)] if len(lin) == 1 else []
    return [primitive(r[:m]) for r in rays if any(r[:m])]


def hull_of_ints(pts: list[IntVec], s: int, k: int = 1) -> Polytope:
    """Hull of lex-sorted distinct integer points meant as pts/(s k), its vertices
    and rows sorted as `Fraction`s."""
    verts, rows = _hull(pts, s)
    d = s * k
    return _build(len(pts[0]), [tuple(Fraction(x, d) for x in v) for v in verts],
                  [(w, Fraction(c, d)) for w, c in rows])
