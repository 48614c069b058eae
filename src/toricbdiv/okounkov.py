"""Okounkov bodies for toric classes, partial bodies from section hulls, b-divisor limits.

The flag valuation sits at an ordered smooth maximal cone: a section monomial
x^m valuates to A * (<m - m0, v_i>)_i where m0 trivializes at the cone picked
by the lexicographic perturbation v_1 + eps*v_2 + ... of the flag directions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bdiv, polytopes, toric
from .bdiv import CartierB
from .chern import projectivize_split
from .linalg import det
from .polytopes import Polytope
from .rationals import IntVec, Vec, dot, idot, int_row, rat, vec, vsub
from .toric import ToricDivisor


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


def _flag_hull(points: Sequence[Sequence], nu: FlagValuation, m0: Vec, k: int = 1) -> Polytope:
    """Hull of the flag images M (x - k m0)/k of the points, M = nu.matrix.

    Points and m0 are scaled once by the lcm t of their denominators, so
    t M (x - k m0) is an integer vector; dividing it and t by their common gcd
    g leaves, for k = 1, exactly the integer points and scale `canonicalize`
    would find for the images.
    """
    n = len(m0)
    ints, t = int_row([x for p in points for x in p] + list(m0))
    tm0 = ints[-n:]
    rows = [(row, k * idot(row, tm0)) for row in nu.matrix]
    pts = [ints[i:i + n] for i in range(0, len(ints) - n, n)]
    img = [tuple(idot(r, p) - c for r, c in rows) for p in pts]
    g = math.gcd(t, *(x for v in img for x in v))
    return polytopes.hull_of_ints(sorted(tuple(x // g for x in v) for v in img), t // g, k)


def _body(d: ToricDivisor, nu: FlagValuation) -> Polytope:
    """Flag image of P_D minus its trivializing vertex."""
    return _flag_hull(toric.polytope_of_divisor(d).vertices, nu, _trivialization(d, nu))


def okounkov_of_class(d: ToricDivisor, nu: FlagValuation) -> OkounkovBody:
    """Body of a nef and big class."""
    if not (toric.is_nef(d) and toric.is_big(d)):
        raise ValueError("not nef or not big")
    return OkounkovBody(_body(d, nu), "class")


def nu_of_metric(h, nu: FlagValuation) -> Vec:
    """Valuation vector of the metric: flag coordinates of the singularity data.

    The b-divisor has psi = g = min_j <m_j, .>, and the flag rays form a basis,
    so its functional at v_1 + eps*v_2 + ... is the slope whose values
    (<m_j, v_1>, ..., <m_j, v_n>) are least in the lex order.
    """
    m = toric._as_metric(h)
    m0 = _trivialization(m.line, nu)
    low = min((s for s, _ in m.pieces), key=lambda s: tuple(dot(s, v) for v in nu.base_cone))
    return nu.coords(vsub(low, m0))


def partial_okounkov(h, nu: FlagValuation, k_max: int = 20) -> tuple[list[Polytope | None], OkounkovBody]:
    """Section hulls Delta_k for k <= k_max and their limit body."""
    m = toric._as_metric(h)
    if k_max < 1:
        raise ValueError("k must be positive")
    model = toric.model_polytope(m)
    if polytopes.affine_rank(model.vertices) != m.line.fan.dim:
        raise ValueError("not nef or not big")
    polytopes.check_lattice_budget(model, k_max)
    m0 = _trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    for k in range(1, k_max + 1):
        # the flag map is affine, so the ends of the lattice runs span the hull
        pts = polytopes.lattice_run_ends(model, k)
        hulls.append(_flag_hull(pts, nu, m0, k) if pts else None)
    if all(p is None for p in hulls):
        raise ValueError("empty section space at all k <= k_max")
    limit = OkounkovBody(_flag_hull(model.vertices, nu, m0), "partial_Gk", nu_of_metric(m, nu))
    return hulls, limit


def okounkov_of_bdiv(w, nu: FlagValuation, tol=Fraction(1, 10**6)) -> OkounkovBody:
    """Body of a nef b-divisor: exact for Cartier, Hausdorff limit for Weil."""
    tol = rat(tol)
    if isinstance(w, CartierB):
        return OkounkovBody(_body(w.incarnation, nu), "bdiv_limit")
    if w.limit is not None:
        return OkounkovBody(_body(w.limit.incarnation, nu), "bdiv_limit")
    prev: Polytope | None = None
    for b in w.approximants:
        cur = _body(b.incarnation, nu)
        if prev is not None and polytopes.hausdorff_linf(prev, cur).value < tol:
            return OkounkovBody(cur, "bdiv_limit")
        prev = cur
    if len(w.approximants) == 1:
        return OkounkovBody(prev, "bdiv_limit")
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


def verify_okouniden(h, nu: FlagValuation) -> OkounidenReport:
    """Check body(bdiv) + nu(h) = body(metric limit) through both pipelines."""
    m = toric._as_metric(h)
    lhs = okounkov_of_bdiv(bdiv.bdiv_of_metric(toric.hermitian(m)).cartier, nu)
    m0 = _trivialization(m.line, nu)
    shift = nu_of_metric(m, nu)
    rhs = OkounkovBody(_flag_hull(toric.model_polytope(m).vertices, nu, m0), "partial_Gk", shift)
    translated = polytopes.translate(lhs.body, shift)
    verdict = "equal" if translated == rhs.body else "gap"
    return OkounidenReport(lhs, shift, rhs, verdict)


@dataclass(frozen=True)
class ContainmentCertificate:
    holds: bool
    margins: tuple[tuple[IntVec, Fraction, Fraction], ...]  # (normal, offset, slack)


def monotone_containment(alpha: ToricDivisor, beta: ToricDivisor,
                         nu: FlagValuation) -> ContainmentCertificate:
    """Certificate that body(alpha) + body(beta - alpha) sits inside body(beta)."""
    if alpha.fan != beta.fan:
        raise ValueError("dimension/fan mismatch")
    if not (toric.is_nef(alpha) and toric.is_nef(beta)):
        raise ValueError("hypothesis violated")
    diff = toric.divisor(beta.fan, [b - a for a, b in zip(alpha.coeffs, beta.coeffs)])
    try:
        for d in (diff, alpha, beta):
            toric.polytope_of_divisor(d)
    except ValueError:
        raise ValueError("hypothesis violated")
    body_a, body_d, body_b = _body(alpha, nu), _body(diff, nu), _body(beta, nu)
    margins = []
    ok = True
    for w, c in body_b.halfspaces:
        # support functions add under Minkowski sums: no sum is built
        slack = min(dot(w, v) for v in body_a.vertices) + min(dot(w, v) for v in body_d.vertices) - c
        margins.append((tuple(int(x) for x in w), c, slack))
        ok = ok and slack >= 0
    return ContainmentCertificate(ok, tuple(margins))


def okounkov_of_bundle(bundle, nu: FlagValuation, k_max: int = 20):
    """Body of O(1) on the dual projectivization; nu lives on the total space."""
    _, o1 = projectivize_split(bundle)
    return partial_okounkov(o1, nu, k_max)
