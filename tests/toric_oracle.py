"""Divisor and metric routes the library ran before it read divisors and metrics
from their own data.

- `polytope_of_divisor` takes one homogenized double description of the rays'
  halfspaces for every divisor, where the library hulls the cone functionals
  m_sigma of a nef divisor on a complete fan (Cox, Little & Schenck, Thm 6.1.7).
- `in_polytope` tests one point with `Fraction` dot products, where the library
  tests all points in one integer pass.
- `ToricMetric` keeps every piece (m_j, c_j) of g = min_j(<m_j, v> + c_j), and
  `model_polytope` hulls the slopes on demand, where the library's metric holds
  only its line and the model polytope P(g). `determination`, `np_mass`,
  `limit_body` and `partial_okounkov` are the library's routes as they read the
  pieces.

Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from toricbdiv import bdiv, fans, okounkov, polytopes, toric
from toricbdiv.okounkov import FlagValuation, OkounkovBody
from toricbdiv.polytopes import Polytope
from toricbdiv.rationals import Vec, dot, idot, int_row, rat, vec, vsub
from toricbdiv.toric import ToricDivisor

Piece = tuple[Vec, Fraction]


def polytope_of_divisor(d: ToricDivisor) -> Polytope:
    """P_D = {m : <m, v_rho> >= -a_rho}; raises "empty polytope" when infeasible."""
    if not d.fan.complete:
        raise ValueError("fan must be complete")
    rows = [(vec(r), -a) for r, a in zip(d.fan.rays, d.coeffs)]
    return polytopes.from_halfspaces(rows, d.fan.dim)


def in_polytope(d: ToricDivisor, m: Vec) -> bool:
    """m lies in P_D: <m, v_rho> >= -a_rho for every ray."""
    return all(dot(m, r) >= -a for r, a in zip(d.fan.rays, d.coeffs))


@dataclass(frozen=True)
class ToricMetric:
    """PL concave metric g = min_j(<m_j, v> + c_j) on the line bundle O(D), with
    every piece kept."""
    line: ToricDivisor
    pieces: tuple[Piece, ...]

    def g(self, v: Sequence) -> Fraction:
        """Recession value min_j <m_j, v>: the slope of the metric at infinity."""
        x = vec(v)
        return min(dot(m, x) for m, _ in self.pieces)


def metric(line: ToricDivisor, pieces: Iterable[tuple[Sequence, object]]) -> ToricMetric:
    norm: list[Piece] = sorted({(vec(m), rat(c)) for m, c in pieces})
    if not norm:
        raise ValueError("metric needs at least one piece")
    if not toric._in_polytope(line, [m for m, _ in norm]):
        raise ValueError("negative Lelong number")
    return ToricMetric(line, tuple(norm))


@lru_cache(maxsize=None)
def model_polytope(h: ToricMetric) -> Polytope:
    """P(g): the hull of the recession slopes."""
    return polytopes.canonicalize([m for m, _ in h.pieces])


def determination(g: ToricMetric) -> bdiv.CartierB:
    """psi = g on the fan refined by every slope of g."""
    slopes = [m for m, _ in g.pieces]
    fan = fans.refine_by_slopes(g.line.fan, slopes)
    ints, s = int_row([x for m in slopes for x in m])
    rows = [ints[i:i + fan.dim] for i in range(0, len(ints), fan.dim)]
    return bdiv.cartier(fan, [Fraction(min(idot(m, r) for m in rows), s) for r in fan.rays])


def np_mass(hs: Sequence[ToricMetric]) -> Fraction:
    """n! times the mixed volume of the model polytopes."""
    n = hs[0].line.fan.dim
    return math.factorial(n) * polytopes.mixed_volume([model_polytope(h) for h in hs])


def _nu_of_metric(m: ToricMetric, nu: FlagValuation, m0: Vec) -> Vec:
    """Flag coordinates of the slope whose values on the flag rays are lex least."""
    low = min((s for s, _ in m.pieces), key=lambda s: tuple(dot(s, v) for v in nu.base_cone))
    return nu.coords(vsub(low, m0))


def limit_body(m: ToricMetric, nu: FlagValuation) -> OkounkovBody:
    m0 = okounkov._trivialization(m.line, nu)
    return OkounkovBody(okounkov._flag_image(model_polytope(m), nu, m0), "partial_Gk",
                        _nu_of_metric(m, nu, m0))


def partial_okounkov(m: ToricMetric, nu: FlagValuation,
                     k_max: int) -> tuple[list[Polytope | None], OkounkovBody]:
    """The section hulls Delta_k for k <= k_max and their limit body."""
    model = model_polytope(m)
    if polytopes.affine_rank(model.vertices) != m.line.fan.dim:
        raise ValueError("not nef or not big")
    m0 = okounkov._trivialization(m.line, nu)
    hulls: list[Polytope | None] = []
    ks = range(1, k_max + 1)
    for k, ends in zip(ks, polytopes.lattice_run_ends(model, ks)):
        pts = okounkov._slice_vertices(ends)
        hulls.append(okounkov._flag_hull(pts, nu, m0, k) if pts else None)
    if all(p is None for p in hulls):
        raise ValueError("empty section space at all k <= k_max")
    return hulls, limit_body(m, nu)
