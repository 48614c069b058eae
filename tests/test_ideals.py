"""Monomial multiplier ideals, section counting, Frobenius brackets, test ideals."""
import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ideal_oracle as io
import lp_oracle as lp
from toricbdiv import dd, ideals, polytopes, toric
from toricbdiv.ideals import (TestIdealQuery, make_ideal,
                              multiplier_ideal_monomial, unit_ideal)
from toricbdiv.rationals import idot

from conftest import (ideal_product, ideal_subset, lattice_count, minimal_metric,
                      o_p1p1, o_p2)

TestIdealQuery.__test__ = False  # not a test class despite the name


# -- independent oracles ------------------------------------------------------

def _in_interior_of_scaled_newton(x, gens, c) -> bool:
    """max t with x - t*1 in c*(conv(gens) + R>=0^n); interior iff t > 0."""
    n = len(x)
    k = len(gens)
    # vars: lambda_1..k, s_1..n, t ; maximize t
    nv = k + n + 1
    a_eq, b_eq = [], []
    for i in range(n):
        row = [Fraction(0)] * nv
        for j, g in enumerate(gens):
            row[j] = c * Fraction(g[i])
        row[k + i] = c
        row[k + n] = Fraction(1)
        a_eq.append(row)
        b_eq.append(Fraction(x[i]))
    row = [Fraction(1)] * k + [Fraction(0)] * (n + 1)
    a_eq.append(row)
    b_eq.append(Fraction(1))
    a_ub = []
    b_ub = []
    for j in range(k + n):  # lambda >= 0, s >= 0 (t free)
        r = [Fraction(0)] * nv
        r[j] = Fraction(-1)
        a_ub.append(r)
        b_ub.append(Fraction(0))
    obj = [Fraction(0)] * (k + n) + [Fraction(1)]
    res = lp.lp_max(obj, a_ub, b_ub, a_eq, b_eq)
    return res.status == lp.OPTIMAL and res.value > 0


def _howald_oracle(ideal, c, box=7):
    """Multiplier ideal membership by direct interior test over a box."""
    n = ideal.nvars
    members = []
    for m in itertools.product(range(box), repeat=n):
        shifted = tuple(x + 1 for x in m)
        if c == 0 or _in_interior_of_scaled_newton(shifted, ideal.gens, c):
            members.append(m)
    return members


def _bracket_oracle(ideal, p, e, box=12):
    """I^[1/q] by enumerating members x^a with q | a+1 and mapping down."""
    q = p ** e
    n = ideal.nvars
    out = []
    for b in itertools.product(range(box), repeat=n):
        a = tuple(q * x + q - 1 for x in b)
        if ideal.contains_monomial(a):
            out.append(b)
    return make_ideal(n, out)


# -- multiplier ideals --------------------------------------------------------

def test_multiplier_frozen():
    xy = make_ideal(2, [[1, 0], [0, 1]])
    assert multiplier_ideal_monomial(xy, Fraction(3, 2)).is_unit()
    assert multiplier_ideal_monomial(xy, Fraction(5, 2)) == xy
    assert multiplier_ideal_monomial(xy, 0).is_unit()
    prod = make_ideal(2, [[1, 1]])
    assert multiplier_ideal_monomial(prod, Fraction(5, 2)) == make_ideal(2, [[2, 2]])


def test_multiplier_against_interior_oracle():
    rng = random.Random(17)
    cases = [make_ideal(2, [[1, 0], [0, 1]]),
             make_ideal(2, [[1, 1]]),
             make_ideal(2, [[2, 0], [0, 3]]),
             make_ideal(2, [[3, 0], [1, 1], [0, 2]])]
    for ideal in cases:
        for _ in range(3):
            c = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
            mult = multiplier_ideal_monomial(ideal, c)
            for m in itertools.product(range(5), repeat=2):
                expect = tuple(x + 1 for x in m)
                assert mult.contains_monomial(m) == _in_interior_of_scaled_newton(
                    expect, ideal.gens, c), (ideal.gens, c, m)


def test_newton_facets_run_one_dd_per_ideal(monkeypatch):
    ideals._newton_facets.cache_clear()
    calls = []
    real = dd.extreme_rays
    monkeypatch.setattr(dd, "extreme_rays", lambda rows, dim: calls.append(dim) or real(rows, dim))
    a = make_ideal(2, [[4, 0], [1, 1], [0, 5]])
    same = make_ideal(2, [[0, 5], [2, 2], [4, 0], [1, 1]])  # (2, 2) is no minimal generator
    for c in (1, Fraction(3, 2), 7):
        assert multiplier_ideal_monomial(a, c) == multiplier_ideal_monomial(same, c)
    assert calls == [3]
    multiplier_ideal_monomial(make_ideal(2, [[2, 0], [0, 3]]), 1)
    assert calls == [3, 3]


def test_multiplier_against_interior_oracle_in_three_variables():
    # c off is an integer on a facet of each Newton polyhedron, and some m + 1
    # of the box lies on c times that facet, where Howald's inequality is strict
    cases = [(make_ideal(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), Fraction(3)),
             (make_ideal(3, [[2, 0, 0], [0, 3, 0], [0, 0, 4]]), Fraction(7, 3)),
             (make_ideal(3, [[2, 0, 1], [0, 2, 0], [1, 1, 3]]), Fraction(3, 2)),
             (make_ideal(3, [[3, 0, 0], [1, 1, 0], [0, 0, 2], [0, 2, 1]]), Fraction(5, 2))]
    for ideal, c in cases:
        facets = ideals._newton_facets(ideal)
        mult = multiplier_ideal_monomial(ideal, c)
        on_facet = 0
        for m in itertools.product(range(3), repeat=3):
            x = tuple(v + 1 for v in m)
            on_facet += any(off > 0 and idot(w, x) == c * off for w, off in facets)
            assert mult.contains_monomial(m) == _in_interior_of_scaled_newton(
                x, ideal.gens, c), (ideal.gens, c, m)
        assert on_facet, (ideal.gens, c)


def _outcome(f, *args):
    try:
        return f(*args)
    except (AssertionError, ValueError) as exc:
        return repr(exc)


@st.composite
def ideals_and_exponents(draw):
    # a seeded generator: hypothesis' own draws favour 0 and repeats, which the
    # antichain reduction collapses to a single generator
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n, k = rng.randint(1, 3), rng.randint(1, 4)
    top = 5 if n < 3 else 3  # keeps most boxes of the slow oracle small
    gens = [[rng.randint(0, top) for _ in range(n)] for _ in range(k)]
    if n > 1 and rng.random() < 0.7:  # a staircase in the first two variables
        xs, ys = sorted(rng.sample(range(top + 1), k)), sorted(rng.sample(range(top + 1), k))
        for g, x, y in zip(gens, xs, reversed(ys)):
            g[:2] = x, y
    gens = [g if any(g) else [1] * n for g in gens]
    if rng.random() < 0.1:
        gens.append([0] * n)  # the unit ideal
    ideal = make_ideal(n, gens)
    kind = rng.choice(["zero", "integral", "ratio", "on-facet"])
    if kind == "zero":
        return ideal, Fraction(0)
    if kind == "integral":
        return ideal, Fraction(rng.randint(1, 8))
    if kind == "ratio":
        return ideal, Fraction(rng.randint(1, 24), rng.randint(1, 12))
    # c off an integer on a facet with off > 0 (the unit ideal has none)
    off = rng.choice([off for _, off in ideals._newton_facets(ideal) if off > 0] or [1])
    return ideal, Fraction(rng.randint(1, 3 * off), off)


@given(ideals_and_exponents())
@example((make_ideal(2, [[4, 0], [1, 1], [0, 5]]), Fraction(10000)))
@example((make_ideal(3, [[1, 2, 0], [0, 0, 1]]), Fraction(81, 2)))
@settings(max_examples=60, deadline=None)
def test_multiplier_matches_graded_scan_oracle(case):
    # over-budget boxes raise the same error on both routes, but for a box that only the
    # oracle's wider one exceeds
    ideal, c = case
    _check_multiplier(_outcome(multiplier_ideal_monomial, ideal, c),
                      _outcome(io.multiplier_ideal_monomial, ideal, c), ideal, c)


_MULTIPLIER_BUDGET = repr(ValueError("multiplier ideal budget exceeded"))


def _check_multiplier(got, want, ideal, c):
    """got is want, or want is the budget error of the oracles' box [ceil(c max g) + n + 2]^n,
    wider than the library's, and each generator g of got is in I(a^c) and no g - e_i is."""
    if want != _MULTIPLIER_BUDGET or isinstance(got, str):
        assert got == want
        return
    member = io.howald_member(ideal, c)
    for g in got.gens:
        assert member(g), g
        assert not any(member(g[:i] + (x - 1,) + g[i + 1:]) for i, x in enumerate(g) if x), g


def test_multiplier_box_reaches_past_the_oracle_budget():
    # the per-axis box [floor(c max_g g_i)]_i = [320, 40] holds every minimal generator
    # (Howald); the oracles' box [ceil(c max g) + n + 2]^n = [324, 324] exceeds the budget
    ideal, c = make_ideal(2, [[8, 0], [0, 1]]), Fraction(40)
    want = _outcome(io.multiplier_ideal_monomial, ideal, c)
    assert want == _outcome(io.walk_multiplier_ideal, ideal, c) == _MULTIPLIER_BUDGET
    got = multiplier_ideal_monomial(ideal, c)
    _check_multiplier(got, want, ideal, c)


def _recording(scan, calls):
    """scan(bounds, test, what) with each call x -> y of its test appended to calls as (x, y)."""
    def run(bounds, test, what):
        def record(x):
            calls.append((x, y := test(x)))
            return y
        return scan(bounds, record, what)
    return run


def _columns_at_zero(points):
    """The columns whose point with last coordinate 0 is among points; with no variables, ()."""
    return {m[:-1] for m in points if not m or m[-1] == 0}


def _check_floors(floors, member, beyond):
    """Each column floor t is the least last coordinate with member, and None only where
    member fails at beyond, past every floor."""
    for prefix, t in floors:
        if t is None:
            assert not member((*prefix, beyond)), prefix
        else:
            assert member((*prefix, t)) and (t == 0 or not member((*prefix, t - 1))), (prefix, t)


def _ideal_floor(ideal):
    """floor_of of a monomial ideal: the least last coordinate of a generator below the column."""
    return lambda prefix: min((g[-1] if g else 0 for g in ideal.gens
                               if all(x >= y for x, y in zip(prefix, g))), default=None)


@given(st.integers(min_value=0, max_value=3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(min_value=0, max_value=6), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n),
             min_size=1, max_size=5))))
@settings(max_examples=150, deadline=None)
def test_box_scan_calls_member_where_the_graded_scan_does(case):
    # membership in a monomial ideal is closed upward; its generators may lie
    # outside the box, which then may hold no member at all. The floor scan asks
    # about the columns whose point at last coordinate 0 the graded scan tests.
    bounds, gens = case
    ideal = make_ideal(len(bounds), gens)
    floors, members = [], []
    got = _outcome(_recording(ideals._minimal_in_box, floors), bounds, _ideal_floor(ideal), "x")
    assert got == _outcome(_recording(io._minimal_in_box, members), bounds, ideal.contains_monomial, "x")
    assert got == _outcome(io._walk_in_box, bounds, ideal.contains_monomial, "x")
    asked = [prefix for prefix, _ in floors]
    assert len(asked) == len(set(asked))
    assert set(asked) == _columns_at_zero(m for m, _ in members)
    if bounds:
        _check_floors(floors, ideal.contains_monomial, 9)


@pytest.mark.parametrize("gens, n_pow, q", [
    ([[1, 1]], 3, 4),
    ([[2, 0], [0, 3]], 5, 3),
    ([[4, 0], [1, 1], [0, 5]], 7, 4),
    ([[4, 0], [1, 1], [0, 5]], 22, 8),
    ([[2, 0, 1], [0, 2, 0], [1, 1, 3]], 9, 5),
    ([[3, 0], [2, 1], [1, 2], [0, 3]], 6, 4),
])
def test_power_bracket_calls_member_where_the_graded_scan_does(monkeypatch, gens, n_pow, q):
    ideal = make_ideal(len(gens[0]), gens)
    floors, members = [], []
    monkeypatch.setattr(ideals, "_minimal_in_box", _recording(ideals._minimal_in_box, floors))
    monkeypatch.setattr(io, "_minimal_in_box", _recording(io._minimal_in_box, members))
    got = ideals._power_bracket(ideal, n_pow, q)
    assert got == io.power_bracket(ideal, n_pow, q) == io.walk_power_bracket(ideal, n_pow, q)
    asked = [prefix for prefix, _ in floors]
    assert len(asked) == len(set(asked))
    assert set(asked) == _columns_at_zero(m for m, _ in members)
    _check_floors(floors, io.bracket_member(ideal, n_pow, q), n_pow * max(g[-1] for g in gens))


@given(ideals_and_exponents())
@settings(max_examples=60, deadline=None)
def test_multiplier_column_floors_match_the_walk(case):
    # an empty column has a facet with w_n = 0 that fails, whatever the last coordinate
    ideal, c = case
    floors = []
    with mock.patch.object(ideals, "_minimal_in_box", _recording(ideals._minimal_in_box, floors)):
        got = _outcome(multiplier_ideal_monomial, ideal, c)
    _check_multiplier(got, _outcome(io.walk_multiplier_ideal, ideal, c), ideal, c)
    _check_floors(floors, io.howald_member(ideal, c), 10**9)


@st.composite
def power_brackets(draw):
    # seeded like ideals_and_exponents; 0 to 3 variables and 1 to 5 drawn generators. With
    # p = 2^61 - 1, q (m + 1) - 1 passes int64 at once, and N near q keeps the box off 0.
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n, k = rng.choice((0, 1, 2, 2, 3, 3)), rng.randint(1, 5)
    gens = [[rng.randint(0, 5) for _ in range(n)] for _ in range(k)]
    if n > 1 and rng.random() < 0.8:  # a staircase in the first two variables
        xs, ys = sorted(rng.sample(range(6), k)), sorted(rng.sample(range(6), k))
        for g, x, y in zip(gens, xs, reversed(ys)):
            g[:2] = x, y
    ideal = make_ideal(n, gens)
    q = rng.choice((2, 3, 5, 2**61 - 1)) ** rng.randint(1, 2)
    if q > 25 and len(ideal.gens) <= 2 and rng.random() < 0.7:
        return ideal, rng.randint(q // 2, 3 * q), q  # one interval on Python ints
    return ideal, rng.randint(0, 10 if n < 3 else 4), q


@given(power_brackets())
@settings(max_examples=60, deadline=None)
def test_power_bracket_column_floors_match_the_walk(case):
    # an empty column has no N-fold sum within its first n - 1 bounds
    ideal, n_pow, q = case
    floors = []
    with mock.patch.object(ideals, "_minimal_in_box", _recording(ideals._minimal_in_box, floors)):
        got = _outcome(ideals._power_bracket, ideal, n_pow, q)
    assert got == _outcome(io.walk_power_bracket, ideal, n_pow, q)
    if floors:
        beyond = n_pow * max(g[-1] for g in ideal.gens)  # q (beyond + 1) - 1 passes every sum
        _check_floors(floors, io.bracket_member(ideal, n_pow, q), beyond)


def _in_power(w, gens, n_pow) -> bool:
    """x^w in I^N read off the column floor at q = 1: w_n is at least the floor."""
    t = ideals._power_floor(gens, n_pow, 1)(tuple(w[:-1]))
    return t is not None and t <= w[-1]


@st.composite
def power_memberships(draw):
    # seeded like ideals_and_exponents; w_j at the edges of top_j = N max_i g_ij
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n, k = rng.randint(1, 3), rng.randint(1, 5)
    gens = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(k)]
    n_pow = draw(st.integers(min_value=0, max_value=12))
    tops = [n_pow * max(col) for col in zip(*gens)]
    w = tuple(rng.choice((0, 1, t - 1, t, t + 1, 10**30, rng.randint(0, t))) for t in tops)
    return w, gens, n_pow


@given(power_memberships())
@example(((10**6,) * 4, [tuple(int(i == j) for j in range(4)) for i in range(4)], 7745))
@example(((2**64, 2**64), [(2**62, 0), (1, 1), (0, 5)], 2))
@settings(max_examples=300, deadline=None)
def test_power_membership_matches_composition_search_oracle(case):
    # equal answers, or the same budget error
    assert _outcome(_in_power, *case) == _outcome(io._member_of_power, *case)


def _as_make_ideal_gives(got) -> bool:
    """An ideal the box scan returned holds the generators, in the order, that
    make_ideal would keep of them; an error message stands as it is."""
    return not isinstance(got, ideals.MonomialIdeal) or got == make_ideal(got.nvars, got.gens)


@given(ideals_and_exponents())
@settings(max_examples=80, deadline=None)
def test_multiplier_box_scan_gives_make_ideals_generators(case):
    assert _as_make_ideal_gives(_outcome(multiplier_ideal_monomial, *case))


@given(power_brackets())
@settings(max_examples=80, deadline=None)
def test_power_bracket_box_scan_gives_make_ideals_generators(case):
    assert _as_make_ideal_gives(_outcome(ideals._power_bracket, *case))


@given(ideals_and_exponents(), st.sampled_from((2, 3, 5, 7)), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_test_ideal_box_scan_gives_make_ideals_generators(case, p, e_max):
    # lambda from the drawn exponents, over the drawn ideals
    ideal, lam = case
    assert _as_make_ideal_gives(_outcome(ideals.test_ideal, TestIdealQuery(ideal, lam, p, e_max)))


def test_box_scan_of_no_variables_asks_about_the_empty_monomial():
    asked = []
    assert ideals._minimal_in_box([], lambda prefix: asked.append(prefix) or 0, "x") == make_ideal(0, [()])
    assert asked == [()]
    with pytest.raises(AssertionError, match="x search box too small"):
        ideals._minimal_in_box([], lambda prefix: None, "x")


def test_multiplier_subadditivity():
    rng = random.Random(29)
    for _ in range(6):
        gens = [[rng.randint(0, 3), rng.randint(0, 3)] for _ in range(rng.randint(1, 3))]
        if all(g == [0, 0] for g in gens):
            continue
        a = make_ideal(2, gens)
        c1 = Fraction(rng.randint(1, 5), 2)
        c2 = Fraction(rng.randint(1, 5), 2)
        lhs = multiplier_ideal_monomial(a, c1 + c2)
        rhs = ideal_product(multiplier_ideal_monomial(a, c1),
                                   multiplier_ideal_monomial(a, c2))
        assert ideal_subset(lhs, rhs)


# -- section counting ---------------------------------------------------------

def test_volume_of_pair():
    exact, seq = ideals.volume_of_pair(minimal_metric(o_p2(2)), k_max=12)
    assert exact == 2
    assert seq[0] == 6  # h^0(O(2)) = 6 lattice points of 2*simplex
    hw = toric.metric_with_ray_weights(o_p2(2), {(1, 0): 1})
    exact_w, seq_w = ideals.volume_of_pair(hw, k_max=12)
    assert exact_w == Fraction(1, 2)
    # Ehrhart boundary bound: |seq_k - exact| <= C/k with a perimeter constant
    for k in (4, 8, 12):
        assert abs(seq_w[k - 1] - exact_w) <= Fraction(4, k)


def test_volume_of_pair_counts_graded_sections():
    # the sequence counts the lattice points of k times the model polytope
    for h, n in ((toric.metric_with_ray_weights(o_p2(2), {(1, 0): 1}), 2), (minimal_metric(o_p1p1(1, 2)), 2)):
        _, seq = ideals.volume_of_pair(h, k_max=9)
        model = h.body
        assert seq == [Fraction(lattice_count(model, k), k**n) for k in range(1, 10)]


@pytest.mark.parametrize("k_max", [0, -3])
def test_volume_of_pair_requires_positive_k(k_max):
    # an identical second call raises again: no error is cached
    for _ in range(2):
        with pytest.raises(ValueError, match="k must be positive"):
            ideals.volume_of_pair(minimal_metric(o_p2(1)), k_max)


def _weighted_p2():
    return toric.metric_with_ray_weights(o_p2(3), {(1, 0): Fraction(1, 2)})


def test_volume_of_pair_counts_once_per_distinct_input(monkeypatch):
    ideals._volume_of_pair.cache_clear()
    real = polytopes.lattice_counts
    calls = []

    def once(*args):
        if calls:
            pytest.fail("sections counted twice")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytopes, "lattice_counts", once)
    # equal metrics built separately are one key
    h1, h2 = _weighted_p2(), _weighted_p2()
    assert h1 is not h2
    first = ideals.volume_of_pair(h1, k_max=7)
    assert ideals.volume_of_pair(h2, k_max=7) == first
    assert len(calls) == 1


def test_volume_of_pair_returns_a_fresh_list():
    exact, seq = ideals.volume_of_pair(_weighted_p2(), k_max=5)
    want = list(seq)
    seq[0] = Fraction(-1)
    again = ideals.volume_of_pair(_weighted_p2(), k_max=5)
    assert again == (exact, want)


def test_volume_of_pair_budget_raises_on_every_call(monkeypatch):
    calls = []
    real = polytopes.lattice_counts
    monkeypatch.setattr(polytopes, "lattice_counts", lambda *args: calls.append(args) or real(*args))
    h = minimal_metric(o_p2(10**5))
    for n in (1, 2):
        with pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
            ideals.volume_of_pair(h, k_max=2)
        assert len(calls) == n


# -- Frobenius brackets and test ideals ---------------------------------------

def test_bracket_frozen():
    # I^[1/q] is the power bracket at N = 1
    assert ideals._power_bracket(make_ideal(1, [[3]]), 1, 2) == make_ideal(1, [[1]])
    assert ideals._power_bracket(unit_ideal(2), 1, 9).is_unit()
    assert ideals._power_bracket(make_ideal(2, [[2, 5]]), 1, 3) == make_ideal(2, [[0, 1]])


def test_bracket_against_member_oracle():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.choice([1, 2])
        gens = [[rng.randint(0, 6) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        ideal = make_ideal(n, gens)
        p = rng.choice([2, 3, 5])
        e = rng.choice([1, 2])
        assert ideals._power_bracket(ideal, 1, p**e) == _bracket_oracle(ideal, p, e)


def test_bracket_chain_increasing_in_e():
    for gens, lam, p in [([[1, 1]], Fraction(1, 2), 2),
                         ([[2, 0], [0, 3]], Fraction(3, 2), 3),
                         ([[1, 0], [0, 1]], Fraction(7, 3), 5)]:
        ideal = make_ideal(2, gens)
        prev = None
        for e in range(1, 5):
            q = p ** e
            cur = ideals._power_bracket(ideal, math.ceil(lam * q), q)
            if prev is not None:
                assert ideal_subset(prev, cur)
            prev = cur


def test_test_ideal_frozen():
    x = make_ideal(1, [[1]])
    assert ideals.test_ideal(TestIdealQuery(x, Fraction(3, 2), 5)) == x
    assert ideals.test_ideal(TestIdealQuery(x, 2, 2)) == make_ideal(1, [[2]])
    assert ideals.test_ideal(TestIdealQuery(x, 0, 3)).is_unit()


def test_test_ideal_contains_ideal():
    for gens in ([[1, 1]], [[2, 0], [0, 3]], [[1, 0], [0, 2]]):
        ideal = make_ideal(2, gens)
        tau = ideals.test_ideal(TestIdealQuery(ideal, 1, 3))
        assert ideal_subset(ideal, tau)


def test_test_ideal_matches_multiplier_sample():
    grid = [(make_ideal(2, [[1, 1]]), Fraction(1, 2), 2),
            (make_ideal(2, [[2, 0], [0, 3]]), Fraction(3, 2), 3),
            (make_ideal(2, [[1, 0], [0, 1]]), Fraction(7, 3), 5)]
    for ideal, lam, p in grid:
        assert ideals.test_ideal(TestIdealQuery(ideal, lam, p)) == \
            multiplier_ideal_monomial(ideal, lam)


def test_no_stabilization_error():
    with pytest.raises(ValueError, match="no stabilization by e_max"):
        ideals.test_ideal(TestIdealQuery(make_ideal(2, [[1, 1]]), Fraction(7, 3), 2, e_max=1))


def test_stabilization_confirmed_below_a_failed_probe_at_e_max():
    # the plateau at e = 3, 4 probes e = 8, which differs; the chain is constant
    # from e = 5 on, so the value at 7 confirms the one at 8
    ideal = make_ideal(2, [[4, 0], [1, 1], [0, 5]])
    got = ideals.test_ideal(TestIdealQuery(ideal, Fraction(7, 3), 2, e_max=8))
    assert got == make_ideal(2, [[6, 0], [3, 1], [2, 2], [1, 3], [0, 7]])
    assert got == multiplier_ideal_monomial(ideal, Fraction(7, 3))


def test_chain_ended_by_the_work_budget_fails_at_once():
    # six generators: the chain ends before the first exponent past 10^8 row visits, with
    # no value confirmed by then; the composition count let this search run for minutes
    ideal = make_ideal(3, [[6, 5, 0], [6, 1, 1], [5, 1, 4], [4, 4, 3], [4, 3, 5], [1, 5, 5]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals.test_ideal(TestIdealQuery(ideal, Fraction(3), 5))
    assert time.perf_counter() - start < 5


def test_power_membership_budget():
    # four generators build comb(N + 2, 2) rows: 180,901 at N = 600, over 30 million at N = 7745
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert ideals._power_count(4, 600) == math.comb(602, 2)
    assert _in_power((10**6,) * 4, units, 600)
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals._power_floor(units, 7745, 1)


def test_three_generator_power_budget():
    # N + 1 counts of the first generator, more than the power budget
    gens = [(4, 0), (1, 1), (0, 5)]
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals._power_floor(gens, ideals._POWER_BUDGET, 1)


def _in_power_by_search(w, gens, n_pow) -> bool:
    """Some sum of n_pow generators, with repeats, componentwise <= w."""
    return any(all(sum(g[j] for g in combo) <= w[j] for j in range(len(w)))
               for combo in itertools.combinations_with_replacement(gens, n_pow))


@pytest.mark.parametrize("gens, n_pow", [
    ([(2, 1)], 3),
    ([(2, 0), (0, 3)], 4),
    ([(4, 0), (1, 1), (0, 5)], 3),
    ([(2, 0, 1), (0, 2, 0), (1, 1, 3)], 2),
    ([(3, 0), (2, 1), (1, 2), (0, 3)], 3),
])
def test_power_membership_beyond_int64(gens, n_pow):
    # w_j runs past N max_i g_ij, where it cannot bind, up to far beyond int64
    tops = [n_pow * max(col) for col in zip(*gens)]
    for w in itertools.product(*[(0, 1, t - 1, t, t + 1, 10**30) for t in tops]):
        assert _in_power(w, gens, n_pow) == _in_power_by_search(w, gens, n_pow), w


def test_power_membership_of_huge_generators_is_over_budget():
    gens = [(2**62, 0), (1, 1), (0, 5)]
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals._power_floor(gens, 2, 1)


def test_search_box_budget():
    always = lambda prefix: 0  # noqa: E731
    with pytest.raises(ValueError, match="multiplier ideal budget exceeded"):
        ideals._minimal_in_box([ideals._BOX_BUDGET], always, "multiplier ideal")
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals._minimal_in_box([99, 1000], always, "test ideal")
    assert ideals._minimal_in_box([ideals._BOX_BUDGET - 1], always, "x") == make_ideal(1, [[0]])
    ideal = make_ideal(2, [[4, 0], [1, 1], [0, 5]])
    with pytest.raises(ValueError, match="multiplier ideal budget exceeded"):
        multiplier_ideal_monomial(ideal, 10000)
    with pytest.raises(ValueError, match="test ideal budget exceeded"):
        ideals.test_ideal(TestIdealQuery(ideal, Fraction(10000), 2))


def test_query_validation():
    with pytest.raises(ValueError, match="p must be prime"):
        TestIdealQuery(make_ideal(1, [[1]]), 1, 4)
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        TestIdealQuery(make_ideal(1, [[1]]), -1, 2)
    with pytest.raises(ValueError, match="invalid exponent vector"):
        make_ideal(2, [[1, -1]])
    with pytest.raises(ValueError, match="at least one generator"):
        make_ideal(2, [])
    for e_max in (0, -3):
        with pytest.raises(ValueError, match="e_max must be at least 1"):
            TestIdealQuery(make_ideal(1, [[1]]), 1, 2, e_max)


@pytest.mark.parametrize("nvars, gens", [
    (1, [[1.5]]), (1, [[1.0]]), (1, [[True]]), (1, [[Fraction(1)]]), (2.7, [[1, 0]]),
    (True, [[1]]), (1, [["1"]]),
], ids=["float", "integral-float", "bool", "fraction", "float-nvars", "bool-nvars", "string"])
def test_make_ideal_takes_integers_only(nvars, gens):
    # operator.index takes ints and int-like types only; bool is an int it refuses
    with pytest.raises(TypeError):
        make_ideal(nvars, gens)
