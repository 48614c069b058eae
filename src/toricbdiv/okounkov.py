"""Okounkov bodies for toric classes, partial bodies from section hulls, b-divisor limits.

The flag valuation sits at an ordered smooth maximal cone: a section monomial
x^m valuates to A * (<m - m0, v_i>)_i where m0 trivializes at the cone picked
by the lexicographic perturbation v_1 + eps*v_2 + ... of the flag directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import bdiv, fans, polytopes, toric
from .bdiv import CartierB, WeilNefB
from .fans import Fan
from .linalg import det, solve
from .polytopes import Polytope
from .rationals import IntVec, Vec, dot, rat, vec, vsub
from .toric import HermitianToricLine, ToricDivisor


@dataclass(frozen=True)
class FlagValuation:
    """Ordered rays of a smooth maximal cone plus a unimodular reindexing matrix."""
    base_cone: tuple[IntVec, ...]
    order: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.base_cone)

    def coords(self, m: Sequence) -> Vec:
        """Flag coordinates A * (<m, v_1>, ..., <m, v_n>)."""
        duals = tuple(dot(vec(v), vec(m)) for v in self.base_cone)
        return tuple(sum(Fraction(a) * x for a, x in zip(row, duals))
                     for row in self.order)

    def matrix(self) -> list[list[Fraction]]:
        n = self.dim
        return [[sum(Fraction(self.order[i][k]) * self.base_cone[k][j]
                     for k in range(n)) for j in range(n)] for i in range(n)]


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


def _lex_nonneg(seq: Sequence[Fraction]) -> bool:
    for x in seq:
        if x != 0:
            return x > 0
    return True


def _lex_cone(fan: Fan, nu: FlagValuation) -> fans.Cone:
    """Maximal cone holding v_1 + eps*v_2 + ... for all small eps > 0."""
    if fan.dim != nu.dim:
        raise ValueError("dimension mismatch")
    for cone in fan.cones:
        rows = fans.cone_halfspaces(fan, cone)
        if all(_lex_nonneg(tuple(dot(a, vec(v)) for v in nu.base_cone)) for a in rows):
            return cone
    raise ValueError("ray not in support")


def _trivialization(d: ToricDivisor, nu: FlagValuation) -> Vec:
    """Supporting functional of psi_D at the lex cone of the flag."""
    cone = _lex_cone(d.fan, nu)
    m0 = toric._cone_functional(d, cone)
    if m0 is None:
        raise ValueError("support function not linear on a cone")
    return m0


def _image(p: Polytope, nu: FlagValuation, m0: Sequence) -> Polytope:
    shifted = polytopes.translate(p, [-x for x in vec(m0)])
    return polytopes.linear_image(shifted, nu.matrix())


def okounkov_of_class(d: ToricDivisor, nu: FlagValuation) -> OkounkovBody:
    """Body of a nef and big class: flag image of P_D minus its trivializing vertex."""
    if not (toric.is_nef(d) and toric.is_big(d)):
        raise ValueError("not nef or not big")
    p = toric.polytope_of_divisor(d)
    return OkounkovBody(_image(p, nu, _trivialization(d, nu)), "class")


def nu_of_metric(h, nu: FlagValuation) -> Vec:
    """Valuation vector of the metric: flag coordinates of the singularity data."""
    m = toric._as_metric(h)
    b = bdiv.bdiv_of_metric(toric.hermitian(m)).cartier
    m0_g = _trivialization(b.divisor(), nu)
    m0_d = _trivialization(m.line, nu)
    return nu.coords(vsub(vec(m0_g), vec(m0_d)))


def partial_okounkov(h, nu: FlagValuation, k_max: int = 20) -> tuple[list[Polytope | None], OkounkovBody]:
    """Section hulls Delta_k for k <= k_max and their limit body."""
    m = toric._as_metric(h)
    if k_max < 1:
        raise ValueError("k must be positive")
    model = toric.model_polytope(m)
    if polytopes.affine_rank(model.vertices) != m.line.fan.dim:
        raise ValueError("not nef or not big")
    m0 = _trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    any_sections = False
    for k in range(1, k_max + 1):
        # the flag map is affine, so the ends of the lattice runs span the hull
        pts = polytopes.lattice_run_ends(polytopes.scale(model, k))
        if not pts:
            hulls.append(None)
            continue
        any_sections = True
        km0 = [k * x for x in m0]
        vecs = [nu.coords(vsub(vec(p), vec(km0))) for p in pts]
        hulls.append(polytopes.scale(polytopes.canonicalize(vecs), Fraction(1, k)))
    if not any_sections:
        raise ValueError("empty section space at all k <= k_max")
    limit = OkounkovBody(_image(model, nu, m0), "partial_Gk", nu_of_metric(m, nu))
    return hulls, limit


def _body_of_cartier(b: CartierB, nu: FlagValuation) -> Polytope:
    return _image(b.polytope(), nu, _trivialization(b.divisor(), nu))


def okounkov_of_bdiv(w, nu: FlagValuation, tol=Fraction(1, 10**6)) -> OkounkovBody:
    """Body of a nef b-divisor: exact for Cartier, Hausdorff limit for Weil."""
    tol = rat(tol)
    if isinstance(w, CartierB):
        return OkounkovBody(_body_of_cartier(w, nu), "bdiv_limit")
    if w.limit is not None:
        return OkounkovBody(_body_of_cartier(w.limit, nu), "bdiv_limit")
    prev: Polytope | None = None
    for b in w.approximants:
        cur = _body_of_cartier(b, nu)
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
    b = bdiv.bdiv_of_metric(toric.hermitian(m)).cartier
    lhs = okounkov_of_bdiv(b, nu)
    model = toric.model_polytope(m)
    shift = nu_of_metric(m, nu)
    rhs = OkounkovBody(_image(model, nu, _trivialization(m.line, nu)),
                       "partial_Gk", shift)
    translated = polytopes.translate(lhs.body, shift)
    verdict = "equal" if translated == rhs.body else "gap"
    return OkounidenReport(lhs, shift, rhs, verdict)


@dataclass(frozen=True)
class ContainmentCertificate:
    holds: bool
    margins: tuple[tuple[IntVec, Fraction, Fraction], ...]  # (normal, offset, slack)

    def to_json(self) -> dict:
        return {"holds": self.holds,
                "margins": [[[str(x) for x in w], str(c), str(s)] for w, c, s in self.margins]}


def monotone_containment(alpha: ToricDivisor, beta: ToricDivisor,
                         nu: FlagValuation) -> ContainmentCertificate:
    """Certificate that body(alpha) + body(beta - alpha) sits inside body(beta)."""
    if alpha.fan != beta.fan:
        raise ValueError("dimension/fan mismatch")
    if not (toric.is_nef(alpha) and toric.is_nef(beta)):
        raise ValueError("hypothesis violated")
    diff = toric.divisor(beta.fan, [b - a for a, b in zip(alpha.coeffs, beta.coeffs)])
    try:
        p_diff = toric.polytope_of_divisor(diff)
        p_alpha = toric.polytope_of_divisor(alpha)
        p_beta = toric.polytope_of_divisor(beta)
    except ValueError:
        raise ValueError("hypothesis violated")
    body_a = _image(p_alpha, nu, _trivialization(alpha, nu))
    body_d = _image(p_diff, nu, _trivialization(diff, nu))
    body_b = _image(p_beta, nu, _trivialization(beta, nu))
    total = polytopes.minkowski_sum(body_a, body_d)
    margins = []
    ok = True
    for w, c in body_b.halfspaces:
        slack = min(dot(w, vec(v)) for v in total.vertices) - c
        margins.append((tuple(int(x) for x in w), c, slack))
        ok = ok and slack >= 0
    return ContainmentCertificate(ok, tuple(margins))


def okounkov_of_bundle(bundle, nu: FlagValuation, k_max: int = 20):
    """Body of O(1) on the dual projectivization; nu lives on the total space."""
    from .chern import projectivize_split
    _, o1 = projectivize_split(bundle)
    return partial_okounkov(o1, nu, k_max)
