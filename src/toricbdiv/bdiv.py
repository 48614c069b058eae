"""Cartier and Weil-nef b-divisors: determinations, ordering, intersections, volumes.

A Cartier b-divisor is its divisor on a determination fan, the conewise linear
function psi_D with psi_D(v_rho) = -a_rho; numerical equivalence is equality up
to a global linear functional. Decreasing sequences of nef b-divisors have
increasing psi's and shrinking polytopes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import dd, fans, polytopes, toric
from .fans import Fan
from .rationals import fmt, idot, int_row, rat
from .toric import ToricDivisor, ToricMetric


def cartier(fan: Fan, values: Sequence) -> ToricDivisor:
    """The divisor on the fan whose psi takes the given values at its rays."""
    vals = tuple(rat(x) for x in values)
    if len(vals) != len(fan.rays):
        raise ValueError("value count mismatch")
    return toric.divisor(fan, [-x for x in vals])


@dataclass(frozen=True)
class HermBDiv:
    """The b-divisor of a Hermitian line: psi = g on the fan refined by the slopes."""
    cartier: ToricDivisor


def bdiv_of_metric(h: ToricMetric) -> HermBDiv:
    return HermBDiv(_determination(h))


@functools.lru_cache(maxsize=None)
def _determination(g: ToricMetric) -> ToricDivisor:
    """psi = g on the fan refined by g's slopes, built once per metric."""
    slopes = g.body.vertices
    fan = fans.refine_by_slopes(g.line.fan, slopes)
    # psi = g = min_j <m_j, .> at each ray, on the slopes scaled by their lcm s
    ints, s = int_row([x for m in slopes for x in m])
    rows = [ints[i:i + fan.dim] for i in range(0, len(ints), fan.dim)]
    return cartier(fan, [Fraction(min(idot(m, r) for m in rows), s) for r in fan.rays])


def add(b1: ToricDivisor, b2: ToricDivisor) -> ToricDivisor:
    """Sum psi_1 + psi_2, on the fan of toric.on_one_fan; kept because
    perfbench/workloads.py adds its pairs through it."""
    return toric.divisor_sum(b1, b2)


def leq(b1: ToricDivisor, b2: ToricDivisor) -> bool:
    """b1 <= b2: psi_1 - psi_2 + <m, .> >= 0 for some linear functional m, that is,
    P_{D2 - D1} = {m : <m, v_rho> >= a1_rho - a2_rho} is nonempty on one fan."""
    fan, a1, a2 = toric.on_one_fan(b1, b2)
    # m = 0 is a witness when a1 <= a2 at every ray, and needs no DD
    if all(x <= y for x, y in zip(a1, a2)):
        return True
    _, rays = dd.homogenized_rays([(r, x - y) for r, x, y in zip(fan.rays, a1, a2)], fan.dim)
    return any(r[-1] > 0 for r in rays)


@dataclass(frozen=True)
class WeilNefB:
    """Explicit non-increasing sequence of nef Cartier b-divisors, optional exact limit."""
    approximants: tuple[ToricDivisor, ...]
    limit: ToricDivisor | None = None


def weil(approximants: Sequence[ToricDivisor], limit: ToricDivisor | None = None) -> WeilNefB:
    if not approximants:
        raise ValueError("empty approximant sequence")
    for b in approximants:
        if not b.nef:
            raise ValueError("intersection defined for nef inputs")
    for cur, nxt in zip(approximants, approximants[1:]):
        if not leq(nxt, cur):
            raise ValueError("approximants must be non-increasing")
    return WeilNefB(tuple(approximants), limit)


def intersect_cartier(bs: Sequence[ToricDivisor]) -> Fraction:
    """Dang-Favre intersection number: n! times the mixed volume of the polytopes."""
    if not bs:
        raise ValueError("wrong count of bodies")
    n = bs[0].fan.dim
    if any(b.fan.dim != n for b in bs):
        raise ValueError("dimension mismatch")
    for b in bs:
        if not b.nef:
            raise ValueError("intersection defined for nef inputs")
    return math.factorial(n) * polytopes.mixed_volume([toric.polytope_of_divisor(b) for b in bs])


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction
    certified: bool

    def width(self) -> Fraction:
        return self.hi - self.lo


def _as_weil(w) -> WeilNefB:
    if isinstance(w, WeilNefB):
        return w
    return WeilNefB((w,), w)


def intersect_nef(ws: Sequence, tol) -> RatInterval:
    """Diagonal of the approximant sequences, stopped at consecutive gap < tol."""
    if not ws:
        raise ValueError("wrong count of bodies")
    tol = rat(tol)
    seqs = [_as_weil(w) for w in ws]
    budget = max(len(s.approximants) for s in seqs)
    prev: Fraction | None = None
    for k in range(budget):
        row = [s.approximants[min(k, len(s.approximants) - 1)] for s in seqs]
        val = intersect_cartier(row)
        # a lone approximant has converged: with no previous value its gap is 0
        gap = Fraction(0) if prev is None else prev - val
        if budget == 1 or prev is not None and abs(gap) < tol:
            if all(s.limit is not None for s in seqs):
                lo = intersect_cartier([s.limit for s in seqs])
                return RatInterval(lo, val, True)
            return RatInterval(val - gap, val, False)
        prev = val
    raise ValueError("tolerance not reached in budget")


def vol(b, tol=Fraction(1, 10**6)):
    """Volume as the diagonal self-intersection; exact for Cartier, interval for Weil."""
    if isinstance(b, ToricDivisor):
        n = b.fan.dim
        return intersect_cartier([b] * n)
    n = b.approximants[0].fan.dim
    return intersect_nef([b] * n, tol)


@dataclass(frozen=True)
class ChernWeilReport:
    lhs: Fraction
    rhs: Fraction
    mid: Fraction | None
    verdict: str

    def to_json(self) -> dict:
        out = {"lhs": fmt(self.lhs), "rhs": fmt(self.rhs), "verdict": self.verdict}
        if self.mid is not None:
            out["mid"] = fmt(self.mid)
        return out


def chern_weil_line(hs: Sequence[ToricMetric]) -> ChernWeilReport:
    """Mass of the b-divisor intersection vs the non-pluripolar mass: a gap is a verdict."""
    if not hs:
        raise ValueError("wrong count of bodies")
    n = hs[0].line.fan.dim
    built = {h: bdiv_of_metric(h).cartier for h in set(hs)}
    lhs = intersect_cartier([built[h] for h in hs])
    rhs = toric.np_mass(hs)
    mid: Fraction | None = None
    if len(built) == 1:
        mid = math.factorial(n) * polytopes.volume(hs[0].body)
    ok = lhs == rhs and (mid is None or mid == lhs)
    return ChernWeilReport(lhs, rhs, mid, "equal" if ok else "gap")
