"""The Segre routes the library ran on the fiber product of the projectivizations:
test oracles only.

- `fiber_product_projectivization` builds the fan of the fiber product, of
  dimension n + sum(r_i - 1), and the O(1) line of each bundle on it.
- `mass_segre_monomial` takes the non-pluripolar mass of each O(1) line
  repeated a_i + r_i - 1 times. The library sums masses of the summands on
  the base instead; the Cayley trick makes the two equal.
- `eval_segre_monomial` builds the b-divisor of every O(1) line, which refines
  the fiber product's fan by the line's slopes (a DD per cone), and intersects
  the Cartier b-divisors. The Chern-Weil formula makes it equal to the mass.

Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from toricbdiv import bdiv, fans, toric
from toricbdiv.chern import SplitToricBundle, _as_int
from toricbdiv.fans import Fan
from toricbdiv.rationals import Rat, rat
from toricbdiv.toric import ToricMetric


def _embed(v: Sequence, total: int, offset: int) -> tuple:
    out = [Fraction(0)] * total
    for i, x in enumerate(v):
        out[offset + i] = rat(x)
    return tuple(out)


def fiber_product_projectivization(
        bs: Sequence[SplitToricBundle]) -> tuple[Fan, list[ToricMetric]]:
    """Fan of the fiber product of the dual projectivizations and the O(1) lines.

    Coordinates are (base, fiber block 1, ..., fiber block m); block i has one
    coordinate per non-reference summand of bundle i (summand 0 is the chart
    anchor). Base rays lift by the coefficient differences a_j - a_0, fiber
    rays are the block unit vectors plus their negated sum.
    """
    if not bs:
        raise ValueError("wrong count of bodies")
    base = bs[0].fan
    if any(b.fan != base for b in bs):
        raise ValueError("dimension/fan mismatch")
    n = base.dim
    sizes = [b.rank - 1 for b in bs]
    offsets = []
    pos = n
    for r in sizes:
        offsets.append(pos)
        pos += r
    total = pos

    rays: list[tuple] = []
    for ridx, v in enumerate(base.rays):
        lift = [int(x) for x in v]
        for b, off in zip(bs, offsets):
            a0 = b.summands[0].line.coeffs[ridx]
            for j in range(1, b.rank):
                lift.append(_as_int(b.summands[j].line.coeffs[ridx] - a0))
        rays.append(tuple(lift))
    n_base_rays = len(rays)

    # fiber rays per block: index 0 is -sum(e_j), index j >= 1 is e_{off+j-1}
    fiber_ray_ids: list[list[int]] = []
    for b, off in zip(bs, offsets):
        ids = []
        if b.rank > 1:
            neg = [0] * total
            for j in range(b.rank - 1):
                neg[off + j] = -1
            ids.append(len(rays))
            rays.append(tuple(neg))
            for j in range(b.rank - 1):
                e = [0] * total
                e[off + j] = 1
                ids.append(len(rays))
                rays.append(tuple(e))
        fiber_ray_ids.append(ids)

    cones: list[tuple[int, ...]] = []
    charts = [range(b.rank) for b in bs]
    for cone in base.cones:
        lifted = [i for i in cone]
        for pick in product(*charts):
            cids = list(lifted)
            for i, k in enumerate(pick):
                ids = fiber_ray_ids[i]
                if ids:
                    cids.extend(ids[j] for j in range(len(ids)) if j != k)
            cones.append(tuple(cids))
    fan = fans.make_fan(rays, cones)

    lines: list[ToricMetric] = []
    for i, (b, off) in enumerate(zip(bs, offsets)):
        coeffs: dict[tuple, Rat] = {}
        for ridx in range(n_base_rays):
            coeffs[rays[ridx]] = b.summands[0].line.coeffs[ridx]
        for k, rid in enumerate(fiber_ray_ids[i]):
            coeffs[rays[rid]] = Fraction(1) if k == 0 else Fraction(0)
        line = toric.divisor(fan, coeffs)
        pieces = []
        for j in range(b.rank):
            for slope in b.summands[j].body.vertices:
                lifted_slope = list(_embed(slope, total, 0))
                if j > 0:
                    lifted_slope[off + j - 1] = Fraction(1)
                pieces.append((tuple(lifted_slope), 0))
        lines.append(toric.metric(line, pieces))
    return fan, lines


def _lines_and_counts(bs: Sequence[SplitToricBundle], exps: Sequence[int]):
    """The library's checks, then each O(1) line with its count a_i + r_i - 1;
    None when an exponent is negative, where the monomial is 0."""
    if len(bs) != len(exps):
        raise ValueError("exponent-sum mismatch")
    if not bs:
        raise ValueError("wrong count of bodies")
    n = bs[0].fan.dim
    if any(b.fan != bs[0].fan for b in bs):
        raise ValueError("dimension/fan mismatch")
    if any(a < 0 for a in exps):
        return None
    if sum(exps) != n:
        raise ValueError("exponent-sum mismatch")
    _, lines = fiber_product_projectivization(bs)
    return [(line, a + b.rank - 1) for line, b, a in zip(lines, bs, exps)]


def mass_segre_monomial(bs: Sequence[SplitToricBundle], exps: Sequence[int]) -> Fraction:
    """Integral of s_{a_1}(E_1)...s_{a_m}(E_m) as the mass on the fiber product."""
    counted = _lines_and_counts(bs, exps)
    if counted is None:
        return Fraction(0)
    return Fraction(-1) ** sum(exps) * toric.np_mass([line for line, k in counted for _ in range(k)])


def eval_segre_monomial(bs: Sequence[SplitToricBundle], exps: Sequence[int]) -> Fraction:
    """Integral of s_{a_1}(E_1)...s_{a_m}(E_m) against the fundamental class."""
    counted = _lines_and_counts(bs, exps)
    if counted is None:
        return Fraction(0)
    factors: list[bdiv.CartierB] = []
    for line, k in counted:
        factors.extend([bdiv.bdiv_of_metric(line).cartier] * k)
    return Fraction(-1) ** sum(exps) * bdiv.intersect_cartier(factors)
