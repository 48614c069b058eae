"""The monomial-ideal routes the library ran before its integer ones: test oracle only.

- `NewtonRegion.strictly_inside_scaled` tests Howald's condition on `Fraction`s,
  one facet of the Newton polyhedron at a time;
- `_minimal_in_box` visits the box in graded-lex order (`_graded_box`) and
  skips a point above any generator kept so far;
- `_member_of_power` searches every composition of N for four or more
  generators, and builds its arrays for three on every call.

`multiplier_ideal_monomial` and `power_bracket` run the old routes end to end.

The library's next route, which `ideals` replaced by closed-form column floors:
- `_walk_in_box` walks each column's last coordinate up from 0 in lex order,
  calling member until it holds or reaches the least threshold of the columns
  prefix - e_i;
- `_member_of_power_by_rows` tests one point against the library's
  `_power_rows`, or one integer interval for one or two generators.

`walk_multiplier_ideal` and `walk_power_bracket` run that walk end to end,
with `howald_member` and `bracket_member` as its tests. The differential tests
in `test_ideals.py` compare the library against all of these.
Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

import numpy as np

from toricbdiv import dd
from toricbdiv.ideals import (_BOX_BUDGET, _POWER_BUDGET, MonomialIdeal, _bracket_box, _newton_facets,
                              _power_rows, make_ideal, unit_ideal)
from toricbdiv.rationals import idot, rat


@dataclass(frozen=True)
class NewtonRegion:
    """conv(generators) + the nonnegative orthant, stored by facet halfspaces."""
    nvars: int
    halfspaces: tuple[tuple[tuple[int, ...], Fraction], ...]

    def strictly_inside_scaled(self, x: Sequence[Fraction], c: Fraction) -> bool:
        """Interior membership of x in c * region (strict at every facet)."""
        return all(sum(w * xi for w, xi in zip(normal, x)) > c * off for normal, off in self.halfspaces)


def newton_region(a: MonomialIdeal) -> NewtonRegion:
    n = a.nvars
    rows = [tuple(Fraction(x) for x in g) + (Fraction(1),) for g in a.gens]
    for i in range(n):
        rows.append(tuple(Fraction(int(i == j)) for j in range(n)) + (Fraction(0),))
    lin, rays = dd.extreme_rays(rows, n + 1)
    if lin:
        raise AssertionError("newton region must be full-dimensional")
    hs = []
    for r in rays:
        w, t = r[:n], r[n]
        if all(x == 0 for x in w):
            continue
        hs.append((tuple(int(x) for x in w), Fraction(-t)))
    return NewtonRegion(n, tuple(sorted(hs)))


def _graded_box(bounds: Sequence[int]):
    """Box lattice points in graded-lex order, so antichain pruning is sound."""
    pts = list(product(*[range(b + 1) for b in bounds]))
    pts.sort(key=lambda m: (sum(m), m))
    return pts


def _minimal_in_box(bounds: Sequence[int], member: Callable[[tuple[int, ...]], bool],
                    what: str) -> MonomialIdeal:
    """Ideal generated by the box points m with member(m), for a test closed
    upward: in graded-lex order, a point above a kept generator is skipped."""
    if math.prod(b + 1 for b in bounds) > _BOX_BUDGET:
        raise ValueError(f"{what} budget exceeded")
    gens: list[tuple[int, ...]] = []
    for m in _graded_box(bounds):
        if any(all(x >= g for x, g in zip(m, kept)) for kept in gens):
            continue
        if member(m):
            gens.append(m)
    if not gens:
        raise AssertionError(f"{what} search box too small")
    return make_ideal(len(bounds), gens)


def multiplier_ideal_monomial(a: MonomialIdeal, c) -> MonomialIdeal:
    """Howald membership: m in I(a^c) iff m + 1 lies strictly inside c * Newton(a)."""
    c = rat(c)
    if c < 0:
        raise ValueError("exponent must be nonnegative")
    n = a.nvars
    if c == 0:
        return unit_ideal(n)
    region = newton_region(a)
    maxcoord = max(max(g) for g in a.gens)
    bound = math.ceil(c * maxcoord) + n + 2
    return _minimal_in_box(
        [bound] * n, lambda m: region.strictly_inside_scaled(tuple(Fraction(x + 1) for x in m), c),
        "multiplier ideal")


def power_bracket(i: MonomialIdeal, n_pow: int, q: int) -> MonomialIdeal:
    """`ideals._power_bracket` on the graded scan and the composition search."""
    n = i.nvars
    if n_pow == 0:
        return unit_ideal(n)
    bounds = [max((n_pow * g[j]) // q for g in i.gens) for j in range(n)]
    return _minimal_in_box(
        bounds, lambda m: _member_of_power(tuple(q * (x + 1) - 1 for x in m), i.gens, n_pow),
        "test ideal")


def _member_of_power(w: Sequence[int], gens: Sequence[tuple[int, ...]], n_pow: int) -> bool:
    """Does x^w lie in I^N, i.e. is some N-fold generator sum componentwise <= w."""
    k = len(gens)
    if k == 1:
        return all(n_pow * x <= y for x, y in zip(gens[0], w))
    if k == 2:
        lo, hi = 0, n_pow
        for x0, x1, y in zip(gens[0], gens[1], w):
            a = x0 - x1
            rhs = y - n_pow * x1
            if a > 0:
                hi = min(hi, rhs // a)
            elif a < 0:
                lo = max(lo, -(rhs // (-a)))
            elif rhs < 0:
                return False
        return lo <= hi
    counts = n_pow + 1 if k == 3 else math.comb(n_pow + k - 1, k - 1)
    # an N-fold sum is at most N max_i g_ij in coordinate j, so clipping w_j
    # there changes no answer, and every value below stays within 3 such bounds
    top = [n_pow * max(col) for col in zip(*gens)]
    if counts > _POWER_BUDGET or 3 * max(top) >= 2**63:
        raise ValueError("test ideal budget exceeded")
    wv = np.array([min(y, t) for y, t in zip(w, top)], dtype=np.int64)
    g = np.array(gens, dtype=np.int64)
    if k == 3:
        c1 = np.arange(n_pow + 1, dtype=np.int64)
        lo = np.zeros(n_pow + 1, dtype=np.int64)
        hi = n_pow - c1
        ok = np.ones(n_pow + 1, dtype=bool)
        for j in range(len(w)):
            a = g[1][j] - g[2][j]
            rhs = wv[j] - n_pow * g[2][j] - c1 * (g[0][j] - g[2][j])
            if a > 0:
                hi = np.minimum(hi, rhs // a)
            elif a < 0:
                lo = np.maximum(lo, -(rhs // (-a)))
            else:
                ok &= rhs >= 0
        return bool(np.any(ok & (lo <= hi)))
    # generic fallback: explicit composition enumeration
    stack = [(0, n_pow, np.zeros(len(w), dtype=np.int64))]
    while stack:
        idx, left, acc = stack.pop()
        if np.any(acc > wv):
            continue
        if idx == k - 1:
            if np.all(acc + left * g[idx] <= wv):
                return True
            continue
        for c in range(left + 1):
            stack.append((idx + 1, left - c, acc + c * g[idx]))
    return False


def _walk_in_box(bounds: Sequence[int], member: Callable[[tuple[int, ...]], bool],
                 what: str) -> MonomialIdeal:
    """Ideal generated by the box points m with member(m), for a test closed
    upward: one threshold per column (prefix, t). In lex order, t walks up from
    0, calling member until it holds (a generator) or t reaches the least
    threshold of the columns prefix - e_i: member sees only non-members and generators."""
    if math.prod(b + 1 for b in bounds) > _BOX_BUDGET:
        raise ValueError(f"{what} budget exceeded")
    n = len(bounds)
    *head, last = bounds if n else [0]  # no variables: one column, the point ()
    steps = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head))]
    thresholds: list[int] = []  # one per prefix, in lex order
    gens: list[tuple[int, ...]] = []
    for k, prefix in enumerate(np.ndindex(*[b + 1 for b in head])):
        t, stop = 0, min([last + 1] + [thresholds[k - s] for x, s in zip(prefix, steps) if x])
        while t < stop and not member(m := (*prefix, t)[:n]):
            t += 1
        if t < stop:
            gens.append(m)
        thresholds.append(t)
    if not gens:
        raise AssertionError(f"{what} search box too small")
    return make_ideal(n, gens)


def _member_of_power_by_rows(w: Sequence[int], gens: Sequence[tuple[int, ...]], n_pow: int) -> bool:
    """Does x^w lie in I^N, i.e. is some N-fold generator sum componentwise <= w."""
    if len(gens) <= 2:
        # one generator g is the pair (g, g)
        lo, hi = 0, n_pow
        for x0, x1, y in zip(gens[0], gens[-1], w):
            a = x0 - x1
            rhs = y - n_pow * x1
            if a > 0:
                hi = min(hi, rhs // a)
            elif a < 0:
                lo = max(lo, -(rhs // (-a)))
            elif rhs < 0:
                return False
        return lo <= hi
    # per row, g_{k-1} takes 0 <= c <= left counts from g_k: c (g_{k-1} - g_k) <= w - base
    top, left, base, slope = _power_rows(tuple(gens), n_pow)
    lo, hi, ok = np.zeros_like(left), left, np.ones(len(left), dtype=bool)
    for y, t, b, a in zip(w, top, base, slope):
        rhs = min(y, t) - b
        if a > 0:
            hi = np.minimum(hi, rhs // a)
        elif a < 0:
            lo = np.maximum(lo, -(rhs // (-a)))
        else:
            ok &= rhs >= 0
    return bool(np.any(ok & (lo <= hi)))


def howald_member(a: MonomialIdeal, c: Fraction) -> Callable[[tuple[int, ...]], bool]:
    """The walk's test of m in I(a^c): one integer bound per facet of the Newton polyhedron."""
    # <w, m + 1> > c off  <=>  <w, m> >= floor(c off) - |w|_1 + 1, as w >= 0
    facets = [(w, c.numerator * off // c.denominator - sum(w) + 1) for w, off in _newton_facets(a)]
    return lambda m: all(idot(w, m) >= b for w, b in facets)


def bracket_member(i: MonomialIdeal, n_pow: int, q: int) -> Callable[[tuple[int, ...]], bool]:
    """The walk's test of x^m in (I^N)^[1/q]: x^(q(m + 1) - 1) in I^N."""
    return lambda m: _member_of_power_by_rows(tuple(q * (x + 1) - 1 for x in m), i.gens, n_pow)


def walk_multiplier_ideal(a: MonomialIdeal, c) -> MonomialIdeal:
    """`ideals.multiplier_ideal_monomial` on the column walk."""
    c = rat(c)
    if c < 0:
        raise ValueError("exponent must be nonnegative")
    n = a.nvars
    if c == 0 or a.is_unit():
        return unit_ideal(n)
    bound = math.ceil(c * max(max(g) for g in a.gens)) + n + 2
    return _walk_in_box([bound] * n, howald_member(a, c), "multiplier ideal")


def walk_power_bracket(i: MonomialIdeal, n_pow: int, q: int) -> MonomialIdeal:
    """`ideals._power_bracket` on the column walk, budgeted by `_power_rows` alone."""
    if n_pow == 0:
        return unit_ideal(i.nvars)
    return _walk_in_box(_bracket_box(i, n_pow, q), bracket_member(i, n_pow, q), "test ideal")
