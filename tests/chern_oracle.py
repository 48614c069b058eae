"""The Segre route the library ran before it read masses: test oracle only.

- `eval_segre_monomial` builds the b-divisor of every O(1) line of the fiber
  product of the projectivizations, which refines that fan by the line's
  slopes (a DD per cone), and intersects the Cartier b-divisors, where the
  library takes the non-pluripolar mass of the same lines. The Chern-Weil
  formula makes the two equal.

Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from toricbdiv import bdiv
from toricbdiv.chern import SplitToricBundle, fiber_product_projectivization


def eval_segre_monomial(bs: Sequence[SplitToricBundle], exps: Sequence[int]) -> Fraction:
    """Integral of s_{a_1}(E_1)...s_{a_m}(E_m) against the fundamental class."""
    if len(bs) != len(exps):
        raise ValueError("exponent-sum mismatch")
    if not bs:
        raise ValueError("wrong count of bodies")
    n = bs[0].fan.dim
    if any(b.fan != bs[0].fan for b in bs):
        raise ValueError("dimension/fan mismatch")
    if any(a < 0 for a in exps):
        return Fraction(0)
    if sum(exps) != n:
        raise ValueError("exponent-sum mismatch")
    _, lines = fiber_product_projectivization(bs)
    factors: list[bdiv.CartierB] = []
    for line, b, a in zip(lines, bs, exps):
        d = bdiv.bdiv_of_metric(line).cartier
        factors.extend([d] * (a + b.rank - 1))
    sign = Fraction(-1) ** sum(exps)
    return sign * bdiv.intersect_cartier(factors)
