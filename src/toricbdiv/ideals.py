"""Monomial multiplier ideals, section counting, and characteristic-p test ideals."""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import dd, polytopes
from .rationals import idot, index, rat
from .toric import ToricMetric

_POWER_BUDGET = 30_000_000
_BOX_BUDGET = 100_000


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal (antichain) generators."""
    nvars: int
    gens: tuple[tuple[int, ...], ...]

    def is_unit(self) -> bool:
        return self.gens == (tuple(0 for _ in range(self.nvars)),)

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
    nvars = index(nvars)
    norm = []
    for g in gens:
        t = tuple(index(x) for x in g)
        if len(t) != nvars or any(x < 0 for x in t):
            raise ValueError("invalid exponent vector")
        norm.append(t)
    if not norm:
        raise ValueError("ideal needs at least one generator")
    return MonomialIdeal(nvars, _antichain(norm))


def unit_ideal(nvars: int) -> MonomialIdeal:
    return make_ideal(nvars, [tuple(0 for _ in range(nvars))])


@functools.lru_cache(maxsize=None)
def _newton_facets(a: MonomialIdeal) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Facets <w, x> >= off of conv(generators) + the nonnegative orthant, w >= 0, found
    once per ideal."""
    n = a.nvars
    rows = [g + (1,) for g in a.gens] + [tuple(int(i == j) for j in range(n + 1)) for i in range(n)]
    lin, rays = dd.extreme_rays(rows, n + 1)
    if lin:
        raise AssertionError("newton region must be full-dimensional")
    return tuple((r[:n], -r[n]) for r in rays if any(r[:n]))


def _minimal_in_box(bounds: Sequence[int], floor_of: Callable[[tuple[int, ...]], int | None],
                    what: str) -> MonomialIdeal:
    """Ideal generated by the box points of a set closed upward, given floor_of(prefix), the least
    last coordinate of the set over a column, or None. In lex order, (prefix, t) is a generator iff
    t <= last and t lies below the threshold min(t', last + 1) of each column prefix - e_i."""
    if math.prod(b + 1 for b in bounds) > _BOX_BUDGET:
        raise ValueError(f"{what} budget exceeded")
    *head, last = bounds or [0]  # no variables: one column, the point ()
    steps = [math.prod(b + 1 for b in head[i + 1:]) for i in range(len(head))]
    thresholds: list[int] = []  # one per prefix, in lex order
    gens: list[tuple[int, ...]] = []
    for k, prefix in enumerate(itertools.product(*[range(b + 1) for b in head])):
        stop = min([last + 1] + [thresholds[k - s] for x, s in zip(prefix, steps) if x])
        t = floor_of(prefix) if stop else None  # a threshold 0 below: the floor is 0 too
        if t is not None and t < stop:
            gens.append((*prefix, t)[:len(bounds)])
        thresholds.append(stop if t is None else min(t, stop))
    if not gens:
        raise AssertionError(f"{what} search box too small")
    # no earlier generator lies below a later one, and the scan runs in ascending lex
    # order, so the generators are the minimal ones, and reversed in make_ideal's order
    return MonomialIdeal(len(bounds), tuple(reversed(gens)))


def multiplier_ideal_monomial(a: MonomialIdeal, c) -> MonomialIdeal:
    """Howald membership: m in I(a^c) iff m + 1 lies strictly inside c * Newton(a)."""
    c = rat(c)
    if c < 0:
        raise ValueError("exponent must be nonnegative")
    n = a.nvars
    if c == 0 or a.is_unit():
        return unit_ideal(n)
    # <w, m + 1> > c off  <=>  <w, m> >= b = floor(c off) - |w|_1 + 1, as w >= 0; over a
    # column m' that bounds t = m_n from below where w_n > 0, and holds or fails where w_n = 0
    facets = [(w[:-1], w[-1], c.numerator * off // c.denominator - sum(w) + 1)
              for w, off in _newton_facets(a)]

    def floor_of(prefix: tuple[int, ...]) -> int | None:
        cuts = [(b - idot(w, prefix), w_n) for w, w_n, b in facets]
        if any(r > 0 for r, w_n in cuts if not w_n):
            return None
        return max([0] + [-(-r // w_n) for r, w_n in cuts if w_n])

    # a minimal generator m has m_i <= floor(c max_g g_i) (Howald): past it, m + 1 - e_i still
    # dominates c z for the same z in conv(gens), so m - e_i is in the ideal too
    bounds = [c.numerator * max(col) // c.denominator for col in zip(*a.gens)]
    return _minimal_in_box(bounds, floor_of, "multiplier ideal")


def volume_of_pair(h: ToricMetric, k_max: int = 20) -> tuple[Fraction, list[Fraction]]:
    """Exact vol(L,h) = vol(P(g)) plus the normalized section-count sequence, counted
    once per distinct (h, k_max) per process; the list is the caller's own."""
    if k_max < 1:
        raise ValueError("k must be positive")
    exact, seq = _volume_of_pair(h, k_max)
    return exact, list(seq)


@functools.lru_cache(maxsize=None)
def _volume_of_pair(h: ToricMetric, k_max: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    n = h.line.fan.dim
    ks = range(1, k_max + 1)
    seq = tuple(Fraction(c, k**n) for k, c in zip(ks, polytopes.lattice_counts(h.body, ks)))
    return polytopes.volume(h.body), seq


@dataclass(frozen=True)
class TestIdealQuery:
    ideal: MonomialIdeal
    lam: Fraction
    p: int
    e_max: int = 12

    def __post_init__(self):
        _check_prime(self.p)
        if self.e_max < 1:
            raise ValueError("e_max must be at least 1")
        if self.lam < 0:
            raise ValueError("exponent must be nonnegative")


def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError("p must be prime")


def _power_count(k: int, n_pow: int) -> int:
    """The rows _power_rows builds for k >= 3 generators, which the power budget caps; 0 for fewer."""
    return math.comb(n_pow + k - 2, k - 2) if k > 2 else 0


def _power_rows(gens: tuple[tuple[int, ...], ...], n_pow: int):
    """One row per count vector c of the first k - 2 generators with |c| <= N: left = N - |c| and
    base = sum c_i g_i + left g_k per coordinate; no N-fold sum passes top_j = N max_i g_ij."""
    import numpy as np

    top = [n_pow * max(col) for col in zip(*gens)]
    if _power_count(len(gens), n_pow) > _POWER_BUDGET or 3 * max(top) >= 2**63:
        raise ValueError("test ideal budget exceeded")
    g = np.array(gens, dtype=np.int64)
    left = np.full(1, n_pow, dtype=np.int64)
    acc = np.zeros((1, len(top)), dtype=np.int64)
    for gi in g[:-2]:
        reps = left + 1  # row r spawns the counts 0..left[r] of gi
        c = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        left = np.repeat(left, reps) - c
        acc = np.repeat(acc, reps, axis=0) + np.outer(c, gi)
    return top, left, (acc + np.outer(left, g[-1])).T.copy(), g[-2] - g[-1]


def _power_floor(gens: Sequence[tuple[int, ...]], n_pow: int, q: int) -> Callable:
    """floor_of for (I^N)^[1/q]: x^(x', t) lies in it iff q(t + 1) - 1 >= S, that is t >= S // q,
    for S the least last coordinate of an N-fold generator sum s with s_j <= q(x_j + 1) - 1 for
    j < n. Per row, c (g_{k-1} - g_k) <= s - base bounds the count c in one interval [lo, hi]."""
    if len(gens) <= 2:  # one row on Python ints; one generator g is the pair (g, g)
        *rows, (a_n, b_n) = [(x0 - x1, n_pow * x1) for x0, x1 in zip(gens[0], gens[-1])]

        def floor_of(prefix: tuple[int, ...]) -> int | None:
            lo, hi = 0, n_pow
            for x, (a, b) in zip(prefix, rows):
                rhs = q * (x + 1) - 1 - b
                if a > 0:
                    hi = min(hi, rhs // a)
                elif a < 0:
                    lo = max(lo, -(rhs // (-a)))
                elif rhs < 0:
                    return None
            return None if lo > hi else (b_n + a_n * (lo if a_n > 0 else hi)) // q
        return floor_of
    import numpy as np

    top, left, base, slope = _power_rows(tuple(gens), n_pow)

    def floor_of(prefix: tuple[int, ...]) -> int | None:
        lo, hi, ok = np.zeros_like(left), left, np.ones(len(left), dtype=bool)
        for x, t, b, a in zip(prefix, top, base, slope):
            rhs = min(q * (x + 1) - 1, t) - b  # clipped at top, values stay within 3 top_j
            if a > 0:
                hi = np.minimum(hi, rhs // a)
            elif a < 0:
                lo = np.maximum(lo, -(rhs // (-a)))
            else:
                ok &= rhs >= 0
        ok &= lo <= hi
        c = (lo if slope[-1] > 0 else hi)[ok]
        return int((base[-1][ok] + slope[-1] * c).min()) // q if ok.any() else None
    return floor_of


def _bracket_box(i: MonomialIdeal, n_pow: int, q: int) -> list[int]:
    """Per-axis bounds of the minimal generators of (I^N)^[1/q]: the largest floor(N g_j / q)."""
    return [max((n_pow * g[j]) // q for g in i.gens) for j in range(i.nvars)]


def _affordable(i: MonomialIdeal, n_pow: int, q: int) -> bool:
    """One or two generators, or rows within the power budget and at most 10^8 row visits: the
    floor scan makes one numpy pass over the rows per column of the box."""
    rows = _power_count(len(i.gens), n_pow)
    columns = math.prod(b + 1 for b in _bracket_box(i, n_pow, q)[:-1])
    return rows <= _POWER_BUDGET and rows * columns <= 10**8


def _power_bracket(i: MonomialIdeal, n_pow: int, q: int) -> MonomialIdeal:
    """(I^N)^[1/q] for N = n_pow, without materializing I^N."""
    if n_pow == 0 or i.is_unit():
        return unit_ideal(i.nvars)
    if len(i.gens) >= 4 and not _affordable(i, n_pow, q):
        raise ValueError("test ideal budget exceeded")
    return _minimal_in_box(_bracket_box(i, n_pow, q), _power_floor(i.gens, n_pow, q), "test ideal")


def test_ideal(query: TestIdealQuery) -> MonomialIdeal:
    """Stable value of e -> (I^ceil(lam p^e))^[1/p^e]; raises if it never settles.

    The chain is increasing in e but may plateau for a few steps before a late jump, so a
    coincidence of consecutive values is confirmed at a doubled exponent whenever e_max and the
    work budget allow; with four or more generators, e_max ends where the budget does."""
    i, lam, p = query.ideal, rat(query.lam), query.p
    if lam == 0:
        return unit_ideal(i.nvars)
    e, e_max, prev, jump = 1, query.e_max, None, (0, 0)
    while e <= e_max:
        if e > 1 and len(i.gens) >= 4 and not _affordable(i, math.ceil(lam * p**e), p**e):
            e_max = e - 1  # the chain ends at the last exponent within the work budget
            break
        cur = _power_bracket(i, math.ceil(lam * p**e), p**e)
        if prev is not None and cur == prev:
            f = min(2 * e, e_max)
            while f > e and not _affordable(i, math.ceil(lam * p**f), p**f):
                f -= 1
            if f == e or (probe := _power_bracket(i, math.ceil(lam * p**f), p**f)) == cur:
                return cur
            jump = (e, f)
            e, cur = f, probe
        prev = cur
        e += 1
    # a probe that failed at e_max skipped the exponents below it; as the chain
    # increases, a value at k < e_max equal to the one at e_max is stable on [k, e_max]
    k = e_max - 1
    if jump[1] == e_max and jump[0] < k and _power_bracket(i, math.ceil(lam * p**k), p**k) == prev:
        return prev
    raise ValueError("test ideal budget exceeded" if e_max < query.e_max else "no stabilization by e_max")
