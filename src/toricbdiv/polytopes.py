"""Exact rational convex polytopes: hulls, volumes, mixed volumes, lattice counts.

A Polytope stores both minimal representations: lex-sorted extreme points and
facet halfspaces <normal, x> >= offset with primitive integer normals. Equality
constraints of lower-dimensional bodies appear as opposite halfspace pairs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Iterable, Iterator, Sequence

from . import dd
from .linalg import rank
from .rationals import IntVec, Vec, dot, idot, int_row, primitive, vadd, vec, vsub

Halfspace = tuple[IntVec, Fraction]

_LATTICE_BUDGET = 50_000_000
_RUN_BLOCK = 1 << 20  # prefix-facet cells per pass of _lattice_runs


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

    @functools.cached_property
    def _volume(self) -> Fraction:
        """Euclidean volume, computed once per body."""
        return _mixed_volume([self] * self.dim) if self.dim else Fraction(0)

    @functools.cached_property
    def _scaled(self) -> tuple:
        """The body times the lcm s of the denominators of its vertices and
        offsets: s, the (min, max) of each axis over the vertices, and the facet
        normals and their offsets, sorted with w_n > 0 first and w_n = 0 last
        and by w_n within each."""
        n, m = self.dim, len(self.vertices) * self.dim
        rows = sorted(self.halfspaces, key=lambda r: (r[0][-1] <= 0, r[0][-1] == 0, r[0][-1]))
        ints, s = int_row([x for v in self.vertices for x in v] + [c for _, c in rows])
        ends = [(min(ints[i:m:n]), max(ints[i:m:n])) for i in range(n)]
        return s, ends, [w for w, _ in rows], ints[m:]

    @functools.cached_property
    def _facets(self) -> tuple:
        """The sorted normals of `_scaled` as an int64 matrix (None past int64),
        how many have w_n > 0 and w_n != 0, and the largest |w_1| + ... +
        |w_{n-1}|."""
        import numpy as np

        normals = self._scaled[2]
        w = np.array(normals, dtype=np.int64) if max(abs(x) for v in normals for x in v) < 2**63 else None
        split = (sum(v[-1] > 0 for v in normals), sum(v[-1] != 0 for v in normals))
        return w, split, max(sum(map(abs, v[:-1])) for v in normals)


def affine_rank(points: Sequence[Vec]) -> int:
    if len(points) <= 1:
        return 0
    p0 = points[0]
    return rank([vsub(p, p0) for p in points[1:]])


def _cross(o: IntVec, a: IntVec, b: IntVec) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain2d(pts: list[IntVec]) -> list[IntVec]:
    """Counterclockwise hull of sorted points (Andrew's chain); of collinear ones, the two ends."""
    lower: list[IntVec] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull(pts: list[IntVec], s: int) -> tuple[list[IntVec], list[tuple[IntVec, int]]]:
    """Extreme points and facet rows <w, x> >= c (w primitive, c an int) of the hull
    of lex-sorted distinct integer points, which are s > 0 times the points meant.

    A lower-dimensional hull also gets the equations <w, x> = c of a basis of its
    affine hull, each as the opposite pair of rows with w's first nonzero entry
    positive. The points are lifted as (p, s), so the double description sees
    the primitive rows of the points meant, lifted by 1.
    """
    n = len(pts[0])
    if len(pts) == 1:
        rows = []
        for i, x in enumerate(pts[0]):
            e = tuple(int(i == j) for j in range(n))
            rows += [(e, x), (tuple(-y for y in e), -x)]
        return pts, rows
    if n == 1:
        # a segment's hull is its two ends
        return [pts[0], pts[-1]], [((1,), pts[0][0]), ((-1,), -pts[-1][0])]
    hull = _chain2d(pts) if n == 2 else []
    if len(hull) >= 3:
        # three chain vertices span the plane
        rows = []
        for v, u in zip(hull, hull[1:] + hull[:1]):
            w = primitive((v[1] - u[1], u[0] - v[0]))
            rows.append((w, idot(w, v)))
        return hull, rows

    # polar cone of the lifted points: extreme rays <-> facets, lineality <-> affine hull
    lin, rays = dd.extreme_rays([p + (s,) for p in pts], n + 1)
    rows = []
    for l in lin:
        if any(l[:n]):
            w = primitive(l[:n])
            if next(x for x in w if x) < 0:
                w = tuple(-x for x in w)
            c = idot(w, pts[0])
            rows += [(w, c), (tuple(-x for x in w), -c)]
    for r in rays:
        if any(r[:n]):
            # <r[:n], x> >= -r[n] s passes through an input point, so g divides r[n] s
            g = math.gcd(*r[:n])
            rows.append((tuple(x // g for x in r[:n]), -r[n] * s // g))
    verts = [p for p in pts if rank([w for w, c in rows if idot(w, p) == c]) == n]
    return verts, rows


def _build(dim: int, vertices: Iterable[Vec], halfspaces: Iterable[Halfspace]) -> Polytope:
    return Polytope(dim, tuple(sorted(set(vertices))), tuple(sorted(set(halfspaces))))


def canonicalize(raw_vertices: Iterable[Sequence]) -> Polytope:
    """Convex hull with minimal V- and H-representations, deterministically ordered.

    The points are scaled once by the lcm s of their denominators, then sorted,
    deduplicated and hulled on integers by `hull_of_ints`: dividing by s > 0
    keeps the lex order and distinctness.
    """
    pts = [vec(p) for p in raw_vertices]
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("dimension mismatch")
    ints, s = int_row([x for p in pts for x in p])
    return hull_of_ints(sorted({tuple(ints[i * n:(i + 1) * n]) for i in range(len(pts))}), s)


def hull_of_ints(pts: list[IntVec], s: int, k: int = 1) -> Polytope:
    """Hull of lex-sorted distinct integer points meant as pts/(s k).

    The points are hulled as pts/s, so `_hull` lifts them by s, and the hull is
    then shrunk by k; `Fraction`s are built only for the Polytope returned. A
    lift by s k can pick other equations for a flat hull.
    """
    verts, rows = _hull(pts, s)
    # dividing by d > 0 keeps the lex order and is one to one, so sorting and
    # dedup on integers leave each Fraction to be built once, in order
    d = s * k
    return Polytope(len(pts[0]), tuple(tuple(Fraction(x, d) for x in v) for v in sorted(set(verts))),
                    tuple((w, Fraction(c, d)) for w, c in sorted(set(rows))))


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


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    # the hull pass discards non-extreme pairwise sums, no prefilter needed
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    return canonicalize({vadd(a, b) for a in p.vertices for b in q.vertices})


def _mixed2(a: Sequence[IntVec], b: Sequence[IntVec]) -> int:
    """2 V(A, B) in the plane: the sum over the counter-clockwise edges e of B of
    -min_A <rot90(e), .>, rot90(e) being the inner normal of e as long as e. A
    segment B is the 2-gon of its ends, a point has no edges."""
    hull = _chain2d(sorted(b))
    total = 0
    for v, u in zip(hull, hull[1:] + hull[:1]):
        ex, ey = u[0] - v[0], u[1] - v[1]
        total -= min(ex * y - ey * x for x, y in a)
    return total


def _mixed(groups: list[tuple[tuple[IntVec, ...], int, Sequence[IntVec] | None]]) -> int:
    """m! V(K1,...,Km) for integer point sets given as (points, multiplicity, facet
    normals or None), the multiplicities summing to the dimension m.

    Minkowski's facet formula (Schneider, Convex Bodies, 5.1), K1 of least
    multiplicity: m V(K1,...,Km) sums, over the facet normals w of K2+...+Km,
    -min_{K1} <w, .> times the (m-1)-volume of the faces F_w K2, ..., F_w Km.
    Dropping a coordinate j with w_j != 0 maps the lattice of w's hyperplane
    onto one of index |w_j|, so that volume is the mixed volume of the dropped
    faces divided by |w_j|, exactly on lattice bodies.
    """
    m = sum(k for _, k, _ in groups)
    if len(groups) == 1 and len(groups[0][0]) <= m:
        return 0
    if m == 1:
        xs = [v[0] for v in groups[0][0]]
        return max(xs) - min(xs)
    i = min(range(len(groups)), key=lambda t: groups[t][1])
    head = groups[i][0]
    tail = [(pts, k - (t == i), nrm) for t, (pts, k, nrm) in enumerate(groups) if k - (t == i)]
    if m == 2:
        return _mixed2(head, tail[0][0])
    normals = tail[0][2] if len(tail) == 1 else None
    if not normals:
        # the equations and relative facets of a flat sum give only zero terms
        sums ={tuple(map(sum, zip(*combo))) for combo in product(*(pts for pts, _, _ in tail))}
        normals = [w for w, _ in _hull(sorted(sums), 1)[1]]
    total = 0
    for w in normals:
        j = next(t for t, x in enumerate(w) if x)
        faces: dict[tuple[IntVec, ...], int] = {}
        for pts, k, _ in tail:
            vals = [idot(w, v) for v in pts]
            lo = min(vals)
            face = tuple(v[:j] + v[j + 1:] for v, x in zip(pts, vals) if x == lo)
            faces[face] = faces.get(face, 0) + k
        sub = _mixed([(face, k, None) for face, k in faces.items()])
        if sub:
            total -= min(idot(w, v) for v in head) * (sub // abs(w[j]))
    return total


def mixed_volume(ps: Sequence[Polytope]) -> Fraction:
    """Mixed volume V(P1,...,Pn), normalized so V(P,...,P) = volume(P).

    The facet formula runs on integer vertices: each distinct body is scaled by
    the lcm s of its denominators, and by multilinearity the result is divided
    by n! times the product of the s.
    """
    if not ps:
        raise ValueError("wrong count of bodies")
    n = ps[0].dim
    if any(q.dim != n for q in ps):
        raise ValueError("dimension mismatch")
    if len(ps) != n:
        raise ValueError("wrong count of bodies")
    if all(q is ps[0] for q in ps):
        return ps[0]._volume
    return _mixed_volume(ps)


def _mixed_volume(ps: Sequence[Polytope]) -> Fraction:
    """The facet formula of `mixed_volume` on n checked bodies of dimension n > 0."""
    n = ps[0].dim
    groups, den = [], math.factorial(n)
    for t, body in enumerate(ps):
        if any(q.vertices == body.vertices for q in ps[:t]):
            continue
        k = sum(q.vertices == body.vertices for q in ps[t:])
        ints, s = int_row([x for v in body.vertices for x in v])
        pts = tuple(tuple(ints[i:i + n]) for i in range(0, len(ints), n))
        groups.append((pts, k, [w for w, _ in body.halfspaces]))
        den *= s ** k
    return Fraction(_mixed(groups), den)


def volume(p: Polytope) -> Fraction:
    """Euclidean volume in the ambient dimension (0 for lower-dimensional bodies)."""
    return p._volume


@dataclass(frozen=True)
class HausdorffDist:
    value: Fraction


def _grown_rows(pts: list[IntVec], rows: list[tuple[IntVec, int]]) -> list[tuple[IntVec, int]]:
    """Rows (w, min over Q of <w, .>) whose normals hold every facet normal of
    Q + [-1,1]^n, Q the hull of the integer points pts, with facet rows `rows`.

    A facet of Q + [-1,1]^n is a face of Q plus the cube's face along the axes
    S on which its normal w vanishes, so w is a facet normal or an equation of
    the projection of Q that drops S: one of Q's rows, a row of a projection
    onto 2 to n-1 axes lifted back with zeros, or one of the +-e_i. Each
    minimum is read off the row the normal came from.
    """
    n = len(pts[0])
    out = list(rows)
    for size in range(2, n):
        for axes in combinations(range(n), size):
            proj = sorted({tuple(v[i] for i in axes) for v in pts})
            for w, c in _hull(proj, 1)[1]:
                lifted = dict(zip(axes, w))
                out.append((tuple(lifted.get(i, 0) for i in range(n)), c))
    for i in range(n):
        e, xs = tuple(int(i == j) for j in range(n)), [v[i] for v in pts]
        out += [(e, min(xs)), (tuple(-x for x in e), -max(xs))]
    return out


def hausdorff_linf(p: Polytope, q: Polytope) -> HausdorffDist:
    """Hausdorff distance in the sup norm, exact, in closed form.

    Support functions add under Minkowski sums (Schneider, Convex Bodies, 1.7),
    so min over Q + t[-1,1]^n of <w, .> is min_Q <w, .> - t |w|_1, and the
    distance from P to Q is the largest (min_Q <w, .> - min_P <w, .>)/|w|_1 over
    the facet normals w of Q + [-1,1]^n, or 0. Any other w gives at most that
    distance, so extra rows do no harm. Both bodies are scaled once by the lcm
    s of their denominators; the facet offsets of Q are its tight minima.
    """
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    n = p.dim
    ints, s = int_row([x for v in p.vertices + q.vertices for x in v])
    pts = [tuple(ints[i * n:(i + 1) * n]) for i in range(len(p.vertices) + len(q.vertices))]
    a, b = pts[:len(p.vertices)], pts[len(p.vertices):]
    num, den = 0, 1
    # the vertices of P against the body Q, then those of Q against P
    for verts, body_verts, body in ((a, b, q), (b, a, p)):
        rows = [(w, c.numerator * (s // c.denominator)) for w, c in body.halfspaces]
        for w, low in _grown_rows(body_verts, rows):
            gap = low - min(idot(w, v) for v in verts)
            norm = sum(map(abs, w))
            if gap * den > num * norm:
                num, den = gap, norm
    return HausdorffDist(Fraction(num, den * s))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _box(p: Polytope, k: int) -> list[tuple[int, int]] | None:
    """Integer bounds (lo, hi) of each axis of the bounding box of kP, or None
    when an axis holds no integer; raises when the box has too many cells."""
    s, ends = p._scaled[:2]
    box, cells = [], 1
    for a, b in ends:
        lo, hi = _ceil_div(k * a, s), k * b // s
        if hi < lo:
            return None
        box.append((lo, hi))
        cells *= hi - lo + 1
    if cells > _LATTICE_BUDGET:
        raise ValueError("lattice enumeration budget exceeded")
    return box


def _lattice_runs(p: Polytope, ks: range) -> Iterator[tuple]:
    """For each k of ks in order, the nonempty runs of integer points of kP along
    the last axis, in lex order: int64 prefixes (the first n-1 coordinates) and
    each run's first and last value.

    Consecutive k's share one pass while their prefix-facet cells, at least
    one row's worth each, fit _RUN_BLOCK; a k with more cells runs alone and is
    split over several. Each k's box and int64 bounds are checked before its
    group runs, so a range raises what its first failing k raises, after the
    runs of the k's before it.
    """
    (s, _, _, offsets), (w, _, wide) = p._scaled, p._facets
    group, cells = [], 0
    for k in ks:
        # an empty box has no rows, so its table entries are never read
        box, ck, rows = _box(p, k), [0] * len(offsets), 0
        if box is not None:
            ck = [_ceil_div(k * c, s) for c in offsets]
            top = max(abs(x) for ab in box for x in ab)
            if w is None or max(top, wide * top + max(map(abs, ck))) >= 2**63:
                raise ValueError("lattice enumeration exceeds int64")
            rows = math.prod(hi - lo + 1 for lo, hi in box[:-1])
        size = max(rows, 1) * len(ck)
        if group and cells + size > _RUN_BLOCK:
            yield from _stacked_runs(p, group)
            group, cells = [], 0
        group.append((box or [(0, 0)] * p.dim, ck, rows))
        cells += size
    yield from _stacked_runs(p, group)


def _stacked_runs(p: Polytope, group: list) -> Iterator[tuple]:
    """The runs of `_lattice_runs` for a group of k's, given as (box, offsets
    ceil(k c), rows): one pass over the rows of all of them, or, for a single
    k of more than _RUN_BLOCK cells, one per block of its rows.

    The rows, one per prefix in each k's box of the first n-1 axes, are
    stacked in k order. Each row decodes its prefix from its index in its k's
    box and takes that k's offsets from a per-k table. One pass over all
    facets <w, x> >= k c gives rest = ceil(k c) - <w', x'>, which bounds the
    last coordinate by an exact division by w_n or, when w_n = 0, empties the
    run if rest > 0; a run so bounded lies in kP, so within its box. The
    facets with w_n > 0 are negated, so that each bound is a floor division,
    ceil(r/w) being -floor(-r/w); numpy divides an int64 array by a scalar far
    faster than by a broadcast column, so each run of facets with equal w_n is
    divided at once by its w_n.
    """
    import numpy as np

    n, (w, (a, b), _) = p.dim, p._facets
    ends = list(accumulate((rows for _, _, rows in group), initial=0))
    if not ends[-1]:
        # no k has a prefix, and w may be None
        none = np.empty(0, dtype=np.int64)
        for _ in group:
            yield np.empty((0, n - 1), dtype=np.int64), none, none
        return
    lows = np.array([[lo for lo, _ in box[:-1]] for box, _, _ in group], dtype=np.int64)
    sizes = np.array([[hi - lo + 1 for lo, hi in box[:-1]] for box, _, _ in group], dtype=np.int64)
    sign = np.where(np.arange(len(w)) < a, -1, 1)[:, None]
    cks = sign * np.array([ck for _, ck, _ in group], dtype=np.int64).T
    wp, wn = sign * w[:, :-1], w[:b, -1].tolist()
    cuts = [f for f in range(b + 1) if f in (0, b) or wn[f] != wn[f - 1]]
    starts, step = np.array(ends, dtype=np.int64), max(1, _RUN_BLOCK // len(w))
    passes = []
    for i in range(0, ends[-1], step):
        row = np.arange(i, min(i + step, ends[-1]), dtype=np.int64)
        kk = np.searchsorted(starts, row, side="right") - 1
        local = row - starts[kk]
        prefixes = np.empty((len(row), n - 1), dtype=np.int64)
        for j in range(n - 2, 0, -1):
            local, prefixes[:, j] = np.divmod(local, sizes[kk, j])
        if n > 1:
            prefixes[:, 0] = local
        prefixes += lows[kk]
        # facets down the first axis, rows along the second
        rest = np.take(cks, kk, axis=1)
        for j in range(n - 1):
            rest -= wp[:, j:j + 1] * prefixes[:, j]
        bound = np.empty((b, len(row)), dtype=np.int64)
        for f, g in zip(cuts, cuts[1:]):
            np.floor_divide(rest[f:g], wn[f], out=bound[f:g])
        lo, hi = -bound[:a].min(axis=0, initial=2**63 - 1), bound[a:].min(axis=0, initial=2**63 - 1)
        keep = np.flatnonzero((lo <= hi) & (rest[b:] <= 0).all(axis=0))
        passes.append((kk[keep], prefixes[keep], lo[keep], hi[keep]))
    kk, *runs = passes[0] if len(passes) == 1 else map(np.concatenate, zip(*passes))
    cut = np.searchsorted(kk, np.arange(len(group) + 1)).tolist()
    for t in range(len(group)):
        yield tuple(x[cut[t]:cut[t + 1]] for x in runs)


def lattice_counts(p: Polytope, ks: range) -> list[int]:
    """Exact number of integer points of kP for each k of ks; raises before the
    first pass when the box of the last k has too many cells."""
    if ks:
        _box(p, ks[-1])
    return [int((hi - lo + 1).sum()) for _, lo, hi in _lattice_runs(p, ks)]


def lattice_run_ends(p: Polytope, ks: range) -> Iterator[list[IntVec]]:
    """For each k of ks in order, the first and last integer point of each run of
    kP along the last axis, in lex order.

    The integer points of a convex body on one axis-parallel line form an
    unbroken run, so these points have the same convex hull as all of them.
    Raises before the first pass when the box of the last k has too many cells.
    """
    if ks:
        _box(p, ks[-1])
    for prefixes, lo, hi in _lattice_runs(p, ks):
        ends = []
        for x, a, b in zip(prefixes.tolist(), lo.tolist(), hi.tolist()):
            ends.append((*x, a))
            if b > a:
                ends.append((*x, b))
        yield ends
