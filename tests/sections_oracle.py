"""The `sections` routes the library ran before its integer ones: test oracle only.

- `_farthest` grows the body Q + [-1,1]^n with `minkowski_sum` and reads the
  distance off its facets, in every dimension;
- `hausdorff_by_normals` takes the candidate normals of Q + [-1,1]^n from
  `_grown_normals` and scans both bodies' vertices for each normal's minimum;
- `_box` and `_lattice_runs` read the box bounds of kP off the `Fraction`
  vertices and bound each run by one numpy pass per facet;
- `_lattice_runs_per_k` bounds the runs of one kP in one pass over all
  facets, with its prefixes from `np.indices`, one call per k;
- `partial_hulls_by_run_ends` hands every lattice run end of kP to the flag
  hull, not only the vertices of its 2-d slice;
- `partial_hulls` maps each lattice run end through `FlagValuation.coords` on
  `Fraction`s, hulls with `canonicalize` and shrinks with `scale`;
- `flag_image` maps a body by translating it, taking the `linear_image` of
  its vertices on `Fraction`s and hulling them with `canonicalize`;
- `_lattice_rows` enumerates the integer points by masking the bounding box;
- `nu_of_metric` builds the metric's b-divisor and reads its functional at
  the flag's trivializing cone off the determination fan.

The differential tests in `test_polytopes.py` and `test_okounkov.py` compare
the library against these. Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from toricbdiv import bdiv, okounkov, polytopes, toric
from toricbdiv.bdiv import CartierB
from toricbdiv.polytopes import (_LATTICE_BUDGET, Halfspace, HausdorffDist,
                                 Polytope, _ceil_div, _hull, canonicalize,
                                 minkowski_sum)
from toricbdiv.rationals import IntVec, Vec, dot, idot, int_row, vadd, vec, vsub

from conftest import scale


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


def hausdorff_linf(p: Polytope, q: Polytope) -> Fraction:
    return max(_farthest(p, q), _farthest(q, p))


def _grown_normals(pts: list[IntVec], rows: Iterable[Halfspace]) -> list[IntVec]:
    """Normals holding every facet normal of Q + [-1,1]^n, Q the hull of the
    integer points pts, with halfspaces `rows`.

    A facet of Q + [-1,1]^n is a face of Q plus the cube's face along the axes
    S on which its normal w vanishes, so w is a facet normal or an equation of
    the projection of Q that drops S: one of Q's rows, a row of a projection
    onto 2 to n-1 axes lifted back with zeros, or one of the +-e_i.
    """
    n = len(pts[0])
    normals = [w for w, _ in rows]
    for size in range(2, n):
        for axes in combinations(range(n), size):
            proj = sorted({tuple(v[i] for i in axes) for v in pts})
            for w, _ in _hull(proj, 1)[1]:
                lifted = dict(zip(axes, w))
                normals.append(tuple(lifted.get(i, 0) for i in range(n)))
    return normals + [tuple(sign * int(i == j) for j in range(n)) for i in range(n) for sign in (1, -1)]


def hausdorff_by_normals(p: Polytope, q: Polytope) -> HausdorffDist:
    """Hausdorff distance in the sup norm, exact, in closed form.

    Support functions add under Minkowski sums (Schneider, Convex Bodies, 1.7),
    so min over Q + t[-1,1]^n of <w, .> is min_Q <w, .> - t |w|_1, and the
    distance from P to Q is the largest (min_Q <w, .> - min_P <w, .>)/|w|_1 over
    the facet normals w of Q + [-1,1]^n, or 0. Any other w gives at most that
    distance, so extra rows do no harm. Both bodies are scaled once by the lcm
    s of their denominators.
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
        for w in _grown_normals(body_verts, body.halfspaces):
            gap = min(idot(w, v) for v in body_verts) - min(idot(w, v) for v in verts)
            norm = sum(map(abs, w))
            if gap * den > num * norm:
                num, den = gap, norm
    return HausdorffDist(Fraction(num, den * s))


def _box(p: Polytope, k: int) -> list[tuple[int, int]] | None:
    """Integer bounds (lo, hi) of each axis of the bounding box of kP, or None
    when an axis holds no integer; raises when the box has too many cells."""
    box, cells = [], 1
    for i in range(p.dim):
        xs = [v[i] for v in p.vertices]
        a, b = min(xs), max(xs)
        lo = _ceil_div(k * a.numerator, a.denominator)
        hi = k * b.numerator // b.denominator
        if hi < lo:
            return None
        box.append((lo, hi))
        cells *= hi - lo + 1
    if cells > _LATTICE_BUDGET:
        raise ValueError("lattice enumeration budget exceeded")
    return box


def _lattice_runs(p: Polytope, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty runs of integer points of kP along the last axis, in lex order:
    int64 prefixes (the first n-1 coordinates) and each run's first and last value.

    One run per prefix in the box of the first n-1 axes: each facet
    <w, x> >= k c bounds the last coordinate by an exact ceil or floor division
    of ceil(k c) - <w', x'> by w_n, or, when w_n = 0, keeps or empties the run.
    """
    n = p.dim
    box = _box(p, k)
    if box is None:
        none = np.empty(0, dtype=np.int64)
        return np.empty((0, n - 1), dtype=np.int64), none, none
    if n == 1:
        prefixes = np.empty((1, 0), dtype=np.int64)
    else:
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in box[:-1]]
        prefixes = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    lo = np.full(len(prefixes), box[-1][0], dtype=np.int64)
    hi = np.full(len(prefixes), box[-1][1], dtype=np.int64)
    for w, c in p.halfspaces:
        rest = _ceil_div(k * c.numerator, c.denominator) - prefixes @ np.array(w[:-1], dtype=np.int64)
        if w[-1] > 0:
            lo = np.maximum(lo, -(-rest // w[-1]))
        elif w[-1] < 0:
            hi = np.minimum(hi, rest // w[-1])
        else:
            hi = np.where(rest <= 0, hi, lo - 1)
    keep = lo <= hi
    return prefixes[keep], lo[keep], hi[keep]


def _lattice_runs_per_k(p: Polytope, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonempty runs of integer points of kP along the last axis, in lex order:
    int64 prefixes (the first n-1 coordinates) and each run's first and last value.

    One run per prefix in the box of the first n-1 axes, bounded in one pass
    over all facets <w, x> >= k c: rest = ceil(k c) - <w', x'> bounds the last
    coordinate by an exact ceil or floor division by w_n, or, when w_n = 0,
    empties the run if rest > 0. The pass takes _RUN_BLOCK prefix-facet cells
    at a time. Raises before any value could leave int64.
    """
    n = p.dim
    box = polytopes._box(p, k)
    if box is None:
        none = np.empty(0, dtype=np.int64)
        return np.empty((0, n - 1), dtype=np.int64), none, none
    (s, _, _, offsets), (w, (a, b), wide) = p._scaled, p._facets
    ck = [_ceil_div(k * c, s) for c in offsets]
    top = max(abs(x) for ab in box for x in ab)
    if w is None or max(top, wide * top + max(map(abs, ck))) >= 2**63:
        raise ValueError("lattice enumeration exceeds int64")
    ck, wn, step = np.array(ck, dtype=np.int64), w[:, -1], max(1, polytopes._RUN_BLOCK // len(w))
    sizes = [hi - lo + 1 for lo, hi in box[:-1]]
    prefixes = np.indices(sizes, dtype=np.int64).reshape(n - 1, math.prod(sizes)).T \
        + np.array([lo for lo, _ in box[:-1]], dtype=np.int64)
    lo, hi, open_ = (np.empty(len(prefixes), dtype=t) for t in (np.int64, np.int64, bool))
    for i in range(0, len(prefixes), step):
        run = slice(i, i + step)
        rest = ck - prefixes[run] @ w[:, :-1].T
        lo[run] = (-(-rest[:, :a] // wn[:a])).max(axis=1, initial=box[-1][0])
        hi[run] = (rest[:, a:b] // wn[a:b]).min(axis=1, initial=box[-1][1])
        open_[run] = (rest[:, b:] <= 0).all(axis=1)
    keep = (lo <= hi) & open_
    return prefixes[keep], lo[keep], hi[keep]


def partial_hulls_by_run_ends(m: toric.ToricMetric, nu: okounkov.FlagValuation,
                              k_max: int) -> list[Polytope | None]:
    """The section hulls Delta_k of `okounkov.partial_okounkov`, from the flag
    hull of every lattice run end of kP."""
    model = m.body
    m0 = okounkov._trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    ks = range(1, k_max + 1)
    for k, pts in zip(ks, polytopes.lattice_run_ends(model, ks)):
        # the flag map is affine, so the ends of the lattice runs span the hull
        hulls.append(okounkov._flag_hull(pts, nu, m0, k) if pts else None)
    return hulls


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
    return [tuple(row) for row in _lattice_rows(p).tolist()]


def lattice_count(p: Polytope) -> int:
    return len(_lattice_rows(p))


def lattice_run_ends(p: Polytope) -> list[IntVec]:
    rows = _lattice_rows(p)
    if len(rows) == 0:
        return []
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    ends = np.ones(len(rows), dtype=bool)
    ends[:-1] = starts[1:]
    return [tuple(row) for row in rows[starts | ends].tolist()]


def partial_hulls(m: toric.ToricMetric, nu: okounkov.FlagValuation, k_max: int) -> list[Polytope | None]:
    """The section hulls Delta_k of `okounkov.partial_okounkov`, on `Fraction`s."""
    model = m.body
    m0 = okounkov._trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    for k in range(1, k_max + 1):
        # the flag map is affine, so the ends of the lattice runs span the hull
        pts = lattice_run_ends(scale(model, k))
        if not pts:
            hulls.append(None)
            continue
        km0 = [k * x for x in m0]
        vecs = [nu.coords(vsub(vec(p), vec(km0))) for p in pts]
        hulls.append(scale(polytopes.canonicalize(vecs), Fraction(1, k)))
    return hulls


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


def flag_image(p: Polytope, nu: okounkov.FlagValuation, m0: Sequence) -> Polytope:
    """The flag image M (P - m0) of `okounkov._flag_hull` with k = 1, on `Fraction`s."""
    shifted = polytopes.translate(p, [-x for x in vec(m0)])
    return linear_image(shifted, nu.matrix)


def nu_of_metric(m: toric.ToricMetric, nu: okounkov.FlagValuation) -> Vec:
    """Valuation vector of the metric: flag coordinates of the singularity data."""
    return _nu_of(m, bdiv.bdiv_of_metric(m).cartier, nu)


def _nu_of(m: toric.ToricMetric, b: CartierB, nu: okounkov.FlagValuation) -> Vec:
    """nu_of_metric for a metric whose b-divisor b is already built."""
    return nu.coords(vsub(okounkov._trivialization(b.incarnation, nu), okounkov._trivialization(m.line, nu)))
