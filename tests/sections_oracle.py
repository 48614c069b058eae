"""The `sections` routes the library ran before its integer ones: test oracle only.

- `_farthest` grows the body Q + [-1,1]^n with `minkowski_sum` and reads the
  distance off its facets, in every dimension;
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
from itertools import product
from typing import Sequence

import numpy as np

from toricbdiv import bdiv, okounkov, polytopes, toric
from toricbdiv.bdiv import CartierB
from toricbdiv.polytopes import (_LATTICE_BUDGET, Polytope, canonicalize,
                                 minkowski_sum)
from toricbdiv.rationals import IntVec, Vec, dot, vadd, vec, vsub

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


def partial_hulls(h, nu: okounkov.FlagValuation, k_max: int) -> list[Polytope | None]:
    """The section hulls Delta_k of `okounkov.partial_okounkov`, on `Fraction`s."""
    m = toric._as_metric(h)
    model = toric.model_polytope(m)
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


def nu_of_metric(h, nu: okounkov.FlagValuation) -> Vec:
    """Valuation vector of the metric: flag coordinates of the singularity data."""
    m = toric._as_metric(h)
    return _nu_of(m, bdiv.bdiv_of_metric(toric.hermitian(m)).cartier, nu)


def _nu_of(m: toric.ToricMetric, b: CartierB, nu: okounkov.FlagValuation) -> Vec:
    """nu_of_metric for a metric whose b-divisor b is already built."""
    return nu.coords(vsub(okounkov._trivialization(b.incarnation, nu), okounkov._trivialization(m.line, nu)))
