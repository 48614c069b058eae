"""Exact rational convex polytopes: hulls, volumes, mixed volumes, lattice counts.

A Polytope stores both minimal representations: lex-sorted extreme points and
facet halfspaces <normal, x> >= offset with primitive integer normals. Equality
constraints of lower-dimensional bodies appear as opposite halfspace pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from . import dd
from .linalg import det, rank
from .rationals import IntVec, Vec, dot, fmt, primitive, rat, vadd, vec, vsub

Halfspace = tuple[IntVec, Fraction]

_LATTICE_BUDGET = 50_000_000


@dataclass(frozen=True, eq=False)
class Polytope:
    dim: int
    vertices: tuple[Vec, ...]
    halfspaces: tuple[Halfspace, ...]

    # vertices are the canonical invariant; halfspace lists of lower-dimensional
    # bodies can differ between construction routes
    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.dim == other.dim and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    def contains(self, x: Sequence) -> bool:
        p = vec(x)
        return all(dot(w, p) >= c for w, c in self.halfspaces)

    def is_point(self) -> bool:
        return len(self.vertices) == 1

    def to_json(self) -> dict:
        return {"dim": self.dim, "vertices": [[fmt(c) for c in v] for v in self.vertices]}

    def __str__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={[tuple(map(str, v)) for v in self.vertices]})"


def from_json(data: dict) -> Polytope:
    return canonicalize([vec(v) for v in data["vertices"]])


def affine_rank(points: Sequence[Vec]) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return rank([vsub(p, p0) for p in points[1:]])


def _cross(o: Vec, a: Vec, b: Vec) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain2d(pts: list[Vec]) -> list[Vec]:
    """Counterclockwise hull of >= 3 non-collinear sorted points (Andrew's chain)."""
    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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


def _build(dim: int, vertices: Iterable[Vec], halfspaces: Iterable[Halfspace]) -> Polytope:
    return Polytope(dim, tuple(sorted(set(vertices))), tuple(sorted(set(halfspaces))))


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


def from_halfspaces(rows: Iterable[tuple[Sequence, Fraction]], dim: int) -> Polytope:
    """Bounded intersection of halfspaces <w, x> >= c; errors on empty or unbounded."""
    lin, rays = dd.homogenized_rays(rows, dim)
    verts = [tuple(Fraction(x, r[dim]) for x in r[:dim]) for r in rays if r[dim] > 0]
    if not verts:
        raise ValueError("empty polytope")
    if lin or any(r[dim] == 0 for r in rays):
        raise ValueError("unbounded polytope")
    return canonicalize(verts)


def translate(p: Polytope, t: Sequence) -> Polytope:
    tv = vec(t)
    verts = [vadd(v, tv) for v in p.vertices]
    hs = [(w, c + dot(w, tv)) for w, c in p.halfspaces]
    return _build(p.dim, verts, hs)


def scale(p: Polytope, t) -> Polytope:
    t = rat(t)
    if t < 0:
        raise ValueError("negative scale")
    if t == 0:
        return canonicalize([tuple(Fraction(0) for _ in range(p.dim))])
    verts = [tuple(t * x for x in v) for v in p.vertices]
    hs = [(w, t * c) for w, c in p.halfspaces]
    return _build(p.dim, verts, hs)


def linear_image(p: Polytope, matrix: Sequence[Sequence], shift: Sequence | None = None) -> Polytope:
    """Image under an invertible linear map plus optional translation."""
    rows = [vec(r) for r in matrix]
    out = []
    for v in p.vertices:
        img = tuple(dot(r, v) for r in rows)
        if shift is not None:
            img = vadd(img, vec(shift))
        out.append(img)
    return canonicalize(out)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    # the hull pass discards non-extreme pairwise sums, no prefilter needed
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if p.is_point():
        return translate(q, p.vertices[0])
    if q.is_point():
        return translate(p, q.vertices[0])
    return canonicalize({vadd(a, b) for a in p.vertices for b in q.vertices})


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


@dataclass(frozen=True)
class HausdorffDist:
    value: Fraction
    norm: str = "linf"


def _farthest(p: Polytope, q: Polytope) -> Fraction:
    """Largest sup-norm distance from a vertex of P to Q.

    For every t > 0, Q + t[-1,1]^n has the facet normals of Q + [-1,1]^n, with
    offsets min_Q <w, .> - t |w|_1, so v lies within t of Q exactly when
    t >= (c - <w, v>)/|w|_1 + 1 on every facet <w, x> >= c of Q + [-1,1]^n.
    """
    grown = minkowski_sum(q, canonicalize(product((-1, 1), repeat=q.dim)))
    worst = Fraction(0)
    for w, c in grown.halfspaces:
        norm = sum(abs(x) for x in w)
        for v in p.vertices:
            worst = max(worst, (c - dot(w, v)) / norm + 1)
    return worst


def hausdorff_linf(p: Polytope, q: Polytope) -> HausdorffDist:
    """Hausdorff distance in the sup norm, exact: the larger of the two vertex-to-body distances."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return HausdorffDist(max(_farthest(p, q), _farthest(q, p)))


def translate_into(p: Polytope, q: Polytope) -> Vec | None:
    """Lex-minimal v >= 0 with P + v inside Q, or None."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    n = p.dim
    # the feasible shifts form a polytope (Q is bounded); its lex-minimal point is a vertex
    rows = [(w, c - min(dot(w, v) for v in p.vertices)) for w, c in q.halfspaces]
    rows += [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    _, rays = dd.homogenized_rays(rows, n)
    verts = [tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n] > 0]
    return min(verts, default=None)


def _lattice_rows(p: Polytope) -> np.ndarray:
    """Integer points of the polytope as lex-sorted int64 rows, by enumeration
    over the bounding box."""
    n = p.dim
    lo = [math.ceil(min(v[i] for v in p.vertices)) for i in range(n)]
    hi = [math.floor(max(v[i] for v in p.vertices)) for i in range(n)]
    cells = 1
    for a, b in zip(lo, hi):
        if b < a:
            return np.empty((0, n), dtype=np.int64)
        cells *= b - a + 1
    if cells > _LATTICE_BUDGET:
        raise ValueError("lattice enumeration budget exceeded")
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij") if n > 1 else [axes[0]]
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    mask = np.ones(len(pts), dtype=bool)
    for w, c in p.halfspaces:
        bound = math.ceil(c)
        mask &= pts @ np.array(w, dtype=np.int64) >= bound
    return pts[mask]


def lattice_points(p: Polytope) -> list[IntVec]:
    """Integer points of the polytope in lex order."""
    return [tuple(row) for row in _lattice_rows(p).tolist()]


def lattice_count(p: Polytope) -> int:
    """Exact number of integer points."""
    return len(_lattice_rows(p))


def lattice_run_ends(p: Polytope) -> list[IntVec]:
    """First and last integer point of each run along the last axis, in lex order.

    The integer points of a convex body on one axis-parallel line form an
    unbroken run, so these points have the same convex hull as all of them.
    """
    rows = _lattice_rows(p)
    if len(rows) == 0:
        return []
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    ends = np.ones(len(rows), dtype=bool)
    ends[:-1] = starts[1:]
    return [tuple(row) for row in rows[starts | ends].tolist()]
