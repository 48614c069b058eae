"""Okounkov bodies for toric classes, partial bodies from section hulls, b-divisor limits.

The flag valuation sits at an ordered smooth maximal cone: a section monomial
x^m valuates to A * (<m - m0, v_i>)_i where m0 trivializes at the cone picked
by the lexicographic perturbation v_1 + eps*v_2 + ... of the flag directions.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bdiv, polytopes, toric
from .linalg import det, inverse_directions
from .polytopes import Polytope
from .rationals import IntVec, Vec, dot, idot, int_row, rat, vec, vsub
from .toric import ToricDivisor, ToricMetric


@dataclass(frozen=True)
class FlagValuation:
    """Ordered rays of a smooth maximal cone plus a unimodular reindexing matrix."""
    base_cone: tuple[IntVec, ...]
    order: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.base_cone)

    @functools.cached_property
    def matrix(self) -> tuple[IntVec, ...]:
        """A * V, where the rows of V are the flag rays v_1, ..., v_n."""
        return tuple(tuple(sum(a * v[j] for a, v in zip(row, self.base_cone))
                           for j in range(self.dim)) for row in self.order)

    @functools.cached_property
    def _inverse_transpose(self) -> tuple[IntVec, ...]:
        """The rows of M^-T, the columns of M^-1: integral, as M is unimodular."""
        return tuple(map(tuple, inverse_directions(self.matrix)))

    def coords(self, m: Sequence) -> Vec:
        """Flag coordinates A * (<m, v_1>, ..., <m, v_n>)."""
        x = vec(m)
        return tuple(dot(row, x) for row in self.matrix)


def flag(cone_rays: Sequence[Sequence[int]], order: Sequence[Sequence[int]] | None = None) -> FlagValuation:
    rays = tuple(tuple(int(x) for x in r) for r in cone_rays)
    n = len(rays)
    if any(len(r) != n for r in rays):
        raise ValueError("dimension mismatch")
    if abs(det(rays)) != 1:
        raise ValueError("flag cone must be smooth")
    if order is None:
        order = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    a = tuple(tuple(int(x) for x in row) for row in order)
    if len(a) != n or any(len(row) != n for row in a):
        raise ValueError("order matrix must be n x n")
    if abs(det(a)) != 1:
        raise ValueError("order matrix must be unimodular")
    return FlagValuation(rays, a)


@dataclass(frozen=True)
class OkounkovBody:
    body: Polytope
    provenance: str  # "class" | "partial_Gk" | "bdiv_limit"
    shift: Vec | None = None

    def volume(self) -> Fraction:
        return polytopes.volume(self.body)

    def to_json(self) -> dict:
        out = {"vertices": [[str(x) for x in v] for v in self.body.vertices],
               "provenance": self.provenance}
        if self.shift is not None:
            out["shift"] = [str(x) for x in self.shift]
        return out


def _trivialization(d: ToricDivisor, nu: FlagValuation) -> Vec:
    """Functional of psi_D on the cone holding v_1 + eps*v_2 + ... for all small eps > 0."""
    if d.fan.dim != nu.dim:
        raise ValueError("dimension mismatch")
    zero = (0,) * nu.dim
    for cone, rows in d.fan.halfspaces.items():
        # tuples compare lexicographically
        if all(tuple(idot(a, v) for v in nu.base_cone) >= zero for a in rows):
            return d.functionals[cone]
    raise ValueError("ray not in support")


def _flag_ints(points: Sequence[Sequence], nu: FlagValuation, m0: Vec, k: int) -> tuple[list[IntVec], int]:
    """The flag images M (x - k m0) of the points, M = nu.matrix, as sorted integer
    points and a scale s: the images are the points over s.

    Points and m0 are scaled once by the lcm t of their denominators, so
    t M (x - k m0) is an integer vector; dividing it and t by their common gcd
    g leaves exactly the integer points and scale `canonicalize` would find
    for the images.
    """
    n = len(m0)
    ints, t = int_row([x for p in points for x in p] + list(m0))
    tm0 = ints[-n:]
    rows = [(row, k * idot(row, tm0)) for row in nu.matrix]
    pts = [ints[i:i + n] for i in range(0, len(ints) - n, n)]
    img = [tuple(idot(r, p) - c for r, c in rows) for p in pts]
    g = math.gcd(t, *(x for v in img for x in v))
    return sorted(tuple(x // g for x in v) for v in img), t // g


def _flag_hull(points: Sequence[Sequence], nu: FlagValuation, m0: Vec, k: int = 1) -> Polytope:
    """Hull of the flag images M (x - k m0)/k of the points, M = nu.matrix."""
    return polytopes.hull_of_ints(*_flag_ints(points, nu, m0, k), k)


def _flag_image(p: Polytope, nu: FlagValuation, m0: Vec) -> Polytope:
    """The body M (P - m0), M = nu.matrix, equal to `_flag_hull` of P's vertices.

    M is unimodular, so it maps P's vertices to the body's vertices, and each
    facet normal w of a full-dimensional P to the body's facet normal M^-T w,
    integral and still primitive, whose offset is its least value on the
    image. A flat P, one with an opposite row pair, is hulled, as its equations
    could come out in another basis.
    """
    pts, s = _flag_ints(p.vertices, nu, m0, 1)
    inv = nu._inverse_transpose
    rows = []
    for w, _ in p.halfspaces:
        u = tuple(idot(r, w) for r in inv)
        rows.append((u, min(idot(u, v) for v in pts)))
    offsets = dict(rows)
    if any(offsets.get(tuple(-x for x in u)) == -c for u, c in rows):
        return polytopes.hull_of_ints(pts, s)
    return Polytope(p.dim, tuple(tuple(Fraction(x, s) for x in v) for v in pts),
                    tuple((u, Fraction(c, s)) for u, c in sorted(rows)))


def _body(d: ToricDivisor, nu: FlagValuation) -> Polytope:
    """Flag image of P_D minus its trivializing vertex."""
    return _flag_image(toric.polytope_of_divisor(d), nu, _trivialization(d, nu))


def okounkov_of_class(d: ToricDivisor, nu: FlagValuation) -> OkounkovBody:
    """Body of a nef and big class."""
    if not (d.nef and toric.is_big(d)):
        raise ValueError("not nef or not big")
    return OkounkovBody(_body(d, nu), "class")


def _nu_of_metric(m: ToricMetric, nu: FlagValuation, m0: Vec) -> Vec:
    """Valuation vector of the metric: flag coordinates of the singularity data,
    given the trivializing vertex m0 of its line.

    The b-divisor has psi = g = min_j <m_j, .>, and the flag rays form a basis,
    so its functional at v_1 + eps*v_2 + ... is the slope whose values
    (<m_j, v_1>, ..., <m_j, v_n>) are least in the lex order.
    """
    low = min(m.body.vertices, key=lambda s: tuple(dot(s, v) for v in nu.base_cone))
    return nu.coords(vsub(low, m0))


def _slice_vertices(ends: list[IntVec]) -> list[IntVec]:
    """Of lex-sorted integer points, those that are vertices of their 2-d slice,
    the points with the same first n-2 coordinates: a vertex of the hull of all
    of them is a vertex of every slice through it."""
    if not ends or len(ends[0]) < 2:
        return ends
    out = []
    for head, group in itertools.groupby(ends, key=lambda x: x[:-2]):
        tails = [x[-2:] for x in group]
        # the chain of a single point is empty
        out += [head + t for t in (polytopes._chain2d(tails) if len(tails) > 1 else tails)]
    return out


def partial_okounkov(m: ToricMetric, nu: FlagValuation,
                     k_max: int = 20) -> tuple[list[Polytope | None], OkounkovBody]:
    """Section hulls Delta_k for k <= k_max and their limit body, built once per
    distinct (m, nu, k_max) per process; the list is the caller's own."""
    if k_max < 1:
        raise ValueError("k must be positive")
    hulls, limit = _partial_okounkov(m, nu, k_max)
    return list(hulls), limit


@functools.lru_cache(maxsize=None)
def _partial_okounkov(m: ToricMetric, nu: FlagValuation,
                      k_max: int) -> tuple[tuple[Polytope | None, ...], OkounkovBody]:
    if polytopes.affine_rank(m.body.vertices) != m.line.fan.dim:
        raise ValueError("not nef or not big")
    m0 = _trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    ks = range(1, k_max + 1)
    for k, ends in zip(ks, polytopes.lattice_run_ends(m.body, ks)):
        # the flag map is affine, so the vertices of the run ends' slices span the hull
        pts = _slice_vertices(ends)
        hulls.append(_flag_hull(pts, nu, m0, k) if pts else None)
    if all(p is None for p in hulls):
        raise ValueError("empty section space at all k <= k_max")
    return tuple(hulls), _limit_body(m, nu, m0)


def limit_body(m: ToricMetric, nu: FlagValuation) -> OkounkovBody:
    """Limit of the section hulls: the flag image M (P(g) - m0), with nu(h) as its shift."""
    return _limit_body(m, nu, _trivialization(m.line, nu))


def _limit_body(m: ToricMetric, nu: FlagValuation, m0: Vec) -> OkounkovBody:
    return OkounkovBody(_flag_image(m.body, nu, m0), "partial_Gk", _nu_of_metric(m, nu, m0))


def okounkov_of_bdiv(w, nu: FlagValuation, tol=Fraction(1, 10**6)) -> OkounkovBody:
    """Body of a nef b-divisor: exact for Cartier, Hausdorff limit for Weil."""
    tol = rat(tol)
    if isinstance(w, ToricDivisor):
        return OkounkovBody(_body(w, nu), "bdiv_limit")
    if w.limit is not None:
        return OkounkovBody(_body(w.limit, nu), "bdiv_limit")
    prev: Polytope | None = None
    for b in w.approximants:
        cur = _body(b, nu)
        # a lone approximant has converged
        if len(w.approximants) == 1 or prev is not None and polytopes.hausdorff_linf(prev, cur).value < tol:
            return OkounkovBody(cur, "bdiv_limit")
        prev = cur
    raise ValueError("tolerance not reached")


@dataclass(frozen=True)
class OkounidenReport:
    lhs: OkounkovBody
    shift: Vec
    rhs: OkounkovBody
    verdict: str

    def to_json(self) -> dict:
        return {"lhs": self.lhs.to_json(), "shift": [str(x) for x in self.shift],
                "rhs": self.rhs.to_json(), "verdict": self.verdict}


def verify_okouniden(m: ToricMetric, nu: FlagValuation) -> OkounidenReport:
    """Check body(bdiv) + nu(m) = body(metric limit) through both pipelines."""
    lhs = okounkov_of_bdiv(bdiv.bdiv_of_metric(m).cartier, nu)
    rhs = limit_body(m, nu)
    verdict = "equal" if polytopes.translate(lhs.body, rhs.shift) == rhs.body else "gap"
    return OkounidenReport(lhs, rhs.shift, rhs, verdict)
