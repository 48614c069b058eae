"""Monomial multiplier ideals, section counting, and characteristic-p test ideals."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import dd, polytopes, toric
from .rationals import rat
from .toric import HermitianToricLine

_POWER_BUDGET = 30_000_000


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal (antichain) generators."""
    nvars: int
    gens: tuple[tuple[int, ...], ...]

    def is_unit(self) -> bool:
        return self.gens == (tuple(0 for _ in range(self.nvars)),)

    def contains_monomial(self, m: Sequence[int]) -> bool:
        return any(all(x >= g for x, g in zip(m, gen)) for gen in self.gens)

    def to_json(self) -> dict:
        return {"nvars": self.nvars, "gens": [list(g) for g in self.gens]}


def _antichain(vectors: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    # ascending lex puts every dominator before what it dominates
    keep = []
    for v in sorted(set(vectors)):
        if not any(all(k <= x for k, x in zip(u, v)) for u in keep):
            keep.append(v)
    # present descending lex so earlier variables print first: (1,0) before (0,1)
    return tuple(sorted(keep, reverse=True))


def make_ideal(nvars: int, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    norm = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if len(t) != nvars or any(x < 0 for x in t):
            raise ValueError("invalid exponent vector")
        norm.append(t)
    if not norm:
        raise ValueError("ideal needs at least one generator")
    return MonomialIdeal(nvars, _antichain(norm))


def unit_ideal(nvars: int) -> MonomialIdeal:
    return make_ideal(nvars, [tuple(0 for _ in range(nvars))])


def ideal_from_json(data: dict) -> MonomialIdeal:
    return make_ideal(int(data["nvars"]), data["gens"])


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.nvars != b.nvars:
        raise ValueError("dimension mismatch")
    return make_ideal(a.nvars, [tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens])


def ideal_subset(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    return all(b.contains_monomial(g) for g in a.gens)


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
    gens: list[tuple[int, ...]] = []
    for m in _graded_box([bound] * n):
        if any(all(x >= g for x, g in zip(m, kept)) for kept in gens):
            continue
        shifted = tuple(Fraction(x + 1) for x in m)
        if region.strictly_inside_scaled(shifted, c):
            gens.append(m)
    if not gens:
        raise AssertionError("multiplier ideal search box too small")
    return make_ideal(n, gens)


def multiplier_ideal_snc(weights: Sequence[tuple[str, object]], k: int) -> dict[str, int]:
    """I(k * sum a_i D_i) = O(-sum floor(k a_i) D_i) for simple normal crossings."""
    if k <= 0:
        raise ValueError("k must be positive")
    out = {}
    for label, a in weights:
        av = rat(a)
        if av < 0:
            raise ValueError("weights must be nonnegative")
        out[str(label)] = math.floor(k * av)
    return out


def graded_sections(h: HermitianToricLine, k: int) -> int:
    """Count of lattice points of k * P(g): sections of L^k cut by the ideal of k*h."""
    if k <= 0:
        raise ValueError("k must be positive")
    body = polytopes.scale(toric.model_polytope(h.metric), k)
    return polytopes.lattice_count(body)


def volume_of_pair(h: HermitianToricLine, k_max: int = 20) -> tuple[Fraction, list[Fraction]]:
    """Exact vol(L,h) = vol(P(g)) plus the normalized section-count sequence."""
    exact = polytopes.volume(toric.model_polytope(h.metric))
    n = h.line.fan.dim
    seq = [Fraction(graded_sections(h, k), k**n) for k in range(1, k_max + 1)]
    return exact, seq


def frobenius_bracket(i: MonomialIdeal, p: int, e: int) -> MonomialIdeal:
    """p^e-th root ideal: generated by ceil((g+1)/p^e) - 1 over the generators."""
    _check_prime(p)
    if e <= 0:
        raise ValueError("e must be positive")
    q = p**e
    return make_ideal(i.nvars, [tuple((x + q) // q - 1 for x in g) for g in i.gens])


@dataclass(frozen=True)
class TestIdealQuery:
    ideal: MonomialIdeal
    lam: Fraction
    p: int
    e_max: int = 12

    def __post_init__(self):
        _check_prime(self.p)
        if self.lam < 0:
            raise ValueError("exponent must be nonnegative")


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("p must be prime")


def _member_of_power(w: Sequence[int], gens: Sequence[tuple[int, ...]], n_pow: int) -> bool:
    """Does x^w lie in I^N, i.e. is some N-fold generator sum componentwise <= w."""
    k = len(gens)
    wv = np.array(w, dtype=np.int64)
    g = np.array(gens, dtype=np.int64)
    if k == 1:
        return bool(np.all(n_pow * g[0] <= wv))
    if k == 2:
        lo, hi = 0, n_pow
        for j in range(len(w)):
            a = g[0][j] - g[1][j]
            rhs = wv[j] - n_pow * g[1][j]
            if a > 0:
                hi = min(hi, rhs // a)
            elif a < 0:
                lo = max(lo, -(rhs // (-a)))
            elif rhs < 0:
                return False
        return lo <= hi
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
    combos = math.comb(n_pow + k - 1, k - 1)
    if combos > _POWER_BUDGET:
        raise ValueError("test ideal budget exceeded")
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


def _power_bracket(i: MonomialIdeal, n_pow: int, q: int) -> MonomialIdeal:
    """frobenius_bracket(I^n_pow, p, e) with q = p^e, without materializing I^n_pow.

    x^m lies in the bracket iff x^(q(m+1)-1) lies in I^n_pow, and the minimal
    such m have coordinates bounded by the single-generator brackets.
    """
    n = i.nvars
    if n_pow == 0:
        return unit_ideal(n)
    bounds = [max((n_pow * g[j]) // q for g in i.gens) for j in range(n)]
    gens: list[tuple[int, ...]] = []
    for m in _graded_box(bounds):
        if any(all(x >= g for x, g in zip(m, kept)) for kept in gens):
            continue
        w = tuple(q * (x + 1) - 1 for x in m)
        if _member_of_power(w, i.gens, n_pow):
            gens.append(m)
    if not gens:
        raise AssertionError("bracket search box too small")
    return make_ideal(n, gens)


def _probe_affordable(i: MonomialIdeal, n_pow: int, q: int) -> bool:
    k = len(i.gens)
    if k <= 2:
        return True
    box = 1
    for j in range(i.nvars):
        box *= max((n_pow * g[j]) // q for g in i.gens) + 1
    if k == 3:
        return box * (n_pow + 1) <= 100_000_000
    return math.comb(n_pow + k - 1, k - 1) <= _POWER_BUDGET


def test_ideal(query: TestIdealQuery) -> MonomialIdeal:
    """Stable value of e -> (I^ceil(lam p^e))^[1/p^e]; raises if it never settles.

    The chain is increasing in e but may plateau for a few steps before a late
    jump, so a coincidence of consecutive values is confirmed at a doubled
    exponent whenever e_max and the work budget allow the extra evaluation.
    """
    i, lam, p = query.ideal, rat(query.lam), query.p
    if lam == 0:
        return unit_ideal(i.nvars)
    e = 1
    prev: MonomialIdeal | None = None
    jump = (0, 0)
    while e <= query.e_max:
        cur = _power_bracket(i, math.ceil(lam * p**e), p**e)
        if prev is not None and cur == prev:
            f = min(2 * e, query.e_max)
            while f > e and not _probe_affordable(i, math.ceil(lam * p**f), p**f):
                f -= 1
            if f == e:
                return cur
            probe = _power_bracket(i, math.ceil(lam * p**f), p**f)
            if probe == cur:
                return cur
            jump = (e, f)
            e, cur = f, probe
        prev = cur
        e += 1
    # a probe that failed at e_max skipped the exponents below it; as the chain
    # increases, a value at k < e_max equal to the one at e_max is stable on [k, e_max]
    k = query.e_max - 1
    if jump[1] == query.e_max and jump[0] < k:
        if _power_bracket(i, math.ceil(lam * p**k), p**k) == prev:
            return prev
    raise ValueError("no stabilization by e_max")
