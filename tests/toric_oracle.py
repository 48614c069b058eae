"""Divisor routes the library ran before it read nef divisors from their own data.

- `polytope_of_divisor` takes one homogenized double description of the rays'
  halfspaces for every divisor, where the library hulls the cone functionals
  m_sigma of a nef divisor on a complete fan (Cox, Little & Schenck, Thm 6.1.7).
- `in_polytope` tests one point with `Fraction` dot products, where the library
  tests all points in one integer pass.

Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

from toricbdiv import polytopes
from toricbdiv.polytopes import Polytope
from toricbdiv.rationals import Vec, dot, vec
from toricbdiv.toric import ToricDivisor


def polytope_of_divisor(d: ToricDivisor) -> Polytope:
    """P_D = {m : <m, v_rho> >= -a_rho}; raises "empty polytope" when infeasible."""
    if not d.fan.complete:
        raise ValueError("fan must be complete")
    rows = [(vec(r), -a) for r, a in zip(d.fan.rays, d.coeffs)]
    return polytopes.from_halfspaces(rows, d.fan.dim)


def in_polytope(d: ToricDivisor, m: Vec) -> bool:
    """m lies in P_D: <m, v_rho> >= -a_rho for every ray."""
    return all(dot(m, r) >= -a for r, a in zip(d.fan.rays, d.coeffs))
