"""Cartier/Weil b-divisors: order, sums, determinations, intersections, volumes."""
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdiv_oracle as bo
import fan_oracle as fo
import lp_oracle as lp
import volume_oracle as vo
from toricbdiv import bdiv, dd, fans, polytopes, report, toric
from toricbdiv.bdiv import (RatInterval, add, bdiv_of_metric, cartier,
                            intersect_cartier, intersect_nef, leq, vol, weil)
from toricbdiv.toric import polytope_of_divisor

from conftest import (half_plane, minimal_metric, o_p1p1, o_p2, p1, p1cubed, p1xp1, p2,
                      pullback, rand_weighted, rand_weighted3, singularity_divisor)


def b_of(d: toric.ToricDivisor) -> toric.ToricDivisor:
    return cartier(d.fan, [toric.psi_value(d, r) for r in d.fan.rays])


def zero_b(fan) -> toric.ToricDivisor:
    return cartier(fan, [0] * len(fan.rays))


def _values(b: toric.ToricDivisor) -> list[Fraction]:
    """psi at each ray of the divisor's fan: the values `cartier` takes."""
    return [-a for a in b.coeffs]


def coeffs(d: toric.ToricDivisor) -> dict:
    """The coefficient of each ray of the divisor's fan."""
    return dict(zip(d.fan.rays, d.coeffs))


def o3_weighted():
    return bdiv_of_metric(toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1}))


def shrinking_weil(limit_deg=2, steps=12):
    fan = p2()
    approx = [b_of(o_p2(limit_deg + Fraction(1, 2**k))) for k in range(steps)]
    return weil(approx, b_of(o_p2(limit_deg)))


# -- construction and incarnations --------------------------------------------

def test_cartier_basics():
    b = b_of(o_p2(2))
    assert b.nef
    assert coeffs(b) == {(-1, -1): 2, (0, 1): 0, (1, 0): 0}
    assert polytope_of_divisor(b) == polytope_of_divisor(o_p2(2))
    with pytest.raises(ValueError, match="value count mismatch"):
        cartier(p2(), [0, 0])


def test_bdiv_of_metric_refines_and_is_nef():
    h = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    b = bdiv_of_metric(h).cartier
    assert b.nef
    assert (1, -1) in b.fan.rays and (-1, 1) in b.fan.rays
    # psi at every determination ray is the metric's own slope function
    for r in b.fan.rays:
        assert toric.psi_value(b, r) == h.g(r)


def test_determination_psi_is_g_on_rational_slopes():
    # psi at the rays is read on the slopes scaled to integers, and g on Fractions
    rng = random.Random(41)
    for h in [rand_weighted(rng, fan()) for fan in (p2, p1xp1) for _ in range(8)] \
            + [rand_weighted3(rng) for _ in range(6)]:
        b = bdiv_of_metric(h).cartier
        assert [toric.psi_value(b, r) for r in b.fan.rays] == [h.g(r) for r in b.fan.rays]


def test_incarnation_pushforward_compatible():
    h = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    b = bdiv_of_metric(h).cartier
    assert len(b.fan.rays) == 5
    d_fine = vo.incarnation(b, b.fan)
    d_coarse = vo.incarnation(b, p2())
    cf, cc = coeffs(d_fine), coeffs(d_coarse)
    for key, val in cc.items():
        assert cf[key] == val
    # the added rays see the bend, the base fan does not
    assert polytope_of_divisor(d_coarse) == polytope_of_divisor(o_p2(2))


def test_minimal_metric_bdiv_recovers_line():
    for d in (o_p2(3), o_p1p1(1, 2)):
        b = bdiv_of_metric(minimal_metric(d)).cartier
        assert coeffs(vo.incarnation(b, d.fan)) == coeffs(d)


def test_incarnation_is_line_minus_singularity():
    rng = random.Random(7)
    for _ in range(8):
        h = rand_weighted(rng, p2())
        b = bdiv_of_metric(h).cartier
        fan = b.fan
        line = pullback(h.line, fan)
        sing = singularity_divisor(h, fan)
        got, lc, sc = coeffs(vo.incarnation(b, fan)), coeffs(line), coeffs(sing)
        # a_rho(incarnation) = a_rho(line) - nu_rho
        assert got == {k: lc[k] - sc[k] for k in got}


# -- order ---------------------------------------------------------------------

def test_leq_reflexive_and_strict():
    b1, b2 = b_of(o_p2(1)), b_of(o_p2(2))
    assert leq(b1, b1)
    assert leq(b1, b2)
    assert not leq(b2, b1)


def test_leq_weighted_below_minimal():
    bw = o3_weighted().cartier
    bm = bdiv_of_metric(minimal_metric(o_p2(3))).cartier
    assert leq(bw, bm)
    assert not leq(bm, bw)
    assert not (leq(bw, bm) and leq(bm, bw))


def test_leq_incomparable_pair():
    b1 = b_of(o_p1p1(3, 1))
    b2 = b_of(o_p2(2))
    assert not leq(b1, b2)
    assert not leq(b2, b1)


def test_leq_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        leq(b_of(toric.divisor(p1(), [1, 0])), b_of(o_p2(1)))


def test_leq_invariant_under_linear_shift():
    b = b_of(o_p2(2))
    m = (1, -2)
    shifted = cartier(p2(), [v + m[0] * r[0] + m[1] * r[1]
                             for v, r in zip(_values(b), b.fan.rays)])
    assert leq(b, shifted) and leq(shifted, b)
    assert polytope_of_divisor(b) == polytopes.translate(polytope_of_divisor(shifted), [-1, 2])


def _leq_lp(b1, b2):
    """b1 <= b2 by LP: some m has <m, r> >= psi_2(r) - psi_1(r) on every common ray."""
    common = fans.common_refinement(b1.fan, b2.fan)
    a_ub = [[-Fraction(x) for x in r] for r in common.rays]
    b_ub = [toric.psi_value(b1, r) - toric.psi_value(b2, r) for r in common.rays]
    return lp.feasible(a_ub, b_ub) is not None


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from([p2, p1xp1]),
       st.sampled_from([p2, p1xp1]))
@settings(max_examples=25, deadline=None)
def test_leq_matches_lp_oracle(seed, fan1, fan2):
    rng = random.Random(seed)
    b1 = bdiv_of_metric(rand_weighted(rng, fan1())).cartier
    b2 = bdiv_of_metric(rand_weighted(rng, fan2())).cartier
    for x, y in ((b1, b2), (b2, b1)):
        assert leq(x, y) is _leq_lp(x, y)


# the upper half-plane is not complete: {m : <m, r> >= c_r} keeps the recession
# ray (0, 1), so even an empty system has extreme rays, all with t = 0
HALF_PLANE = half_plane()


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_leq_matches_lp_oracle_on_incomplete_fan(values1, values2):
    b1 = cartier(HALF_PLANE, values1)
    b2 = cartier(fans.stellar_refine(HALF_PLANE, (1, 1)), values2)
    for x, y in ((b1, b2), (b2, b1)):
        assert leq(x, y) is _leq_lp(x, y)


@st.composite
def half_plane_pairs(draw):
    """Drawn values on the incomplete upper half-plane or its star subdivision at
    (1, 1), one fan each: shared or distinct."""
    out = []
    for _ in range(2):
        fan = draw(st.sampled_from([HALF_PLANE, fans.stellar_refine(HALF_PLANE, (1, 1))]))
        out.append(cartier(fan, draw(st.lists(st.integers(min_value=-3, max_value=3),
                                              min_size=len(fan.rays), max_size=len(fan.rays)))))
    return tuple(out)


# -- sums ----------------------------------------------------------------------

def test_add_zero_and_line_sum():
    b = b_of(o_p2(2))
    assert add(b, zero_b(p2())) == b
    s = add(b_of(o_p2(1)), b_of(o_p2(2)))
    assert leq(s, b_of(o_p2(3))) and leq(b_of(o_p2(3)), s)
    assert polytope_of_divisor(s) == polytope_of_divisor(b_of(o_p2(3)))


def test_add_is_minkowski_on_polytopes():
    rng = random.Random(11)
    for _ in range(6):
        h1, h2 = rand_weighted(rng, p2()), rand_weighted(rng, p2())
        b1, b2 = bdiv_of_metric(h1).cartier, bdiv_of_metric(h2).cartier
        s = add(b1, b2)
        assert polytope_of_divisor(s) == polytopes.minkowski_sum(polytope_of_divisor(b1),
                                                                 polytope_of_divisor(b2))
        assert polytope_of_divisor(s) == polytope_of_divisor(add(b2, b1))


def test_add_associative_on_polytopes():
    b1, b2, b3 = b_of(o_p2(1)), o3_weighted().cartier, zero_b(p2())
    assert (polytope_of_divisor(add(add(b1, b2), b3))
            == polytope_of_divisor(add(b1, add(b2, b3))))


_BASE = {"P2": p2, "P1xP1": p1xp1, "P1^3": p1cubed}


def _weighted(rng, name):
    return rand_weighted3(rng) if name == "P1^3" else rand_weighted(rng, _BASE[name]())


def _new_rays(base):
    """Rays with entries in {-1, 0, 1} that the base fan lacks: each star subdivides it."""
    return [v for v in product((-1, 0, 1), repeat=base.dim) if any(v) and v not in base.rays]


@st.composite
def cartier_pairs(draw):
    """Two Cartier b-divisors on P2, P1xP1 or (P1)^3, each a weighted metric's
    b-divisor (nef) or drawn values (often not nef) on the base fan or on one of
    two star subdivisions of it: one fan shared or two distinct fans."""
    name = draw(st.sampled_from(sorted(_BASE)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    base = _BASE[name]()
    centers = draw(st.lists(st.sampled_from(_new_rays(base)), min_size=2, max_size=2, unique=True))
    stars = [fans.stellar_refine(base, w) for w in centers]
    values = st.integers(min_value=-2, max_value=3)
    out = []
    for _ in range(2):
        source = draw(st.sampled_from(["metric", base, *stars]))
        if source == "metric":
            out.append(bdiv_of_metric(_weighted(rng, name)).cartier)
        else:
            out.append(cartier(source, draw(st.lists(values, min_size=len(source.rays),
                                                     max_size=len(source.rays)))))
    return tuple(out)


@given(cartier_pairs())
@settings(max_examples=200, deadline=None)
def test_add_matches_common_refinement_oracle(case):
    # on a shared fan whose rays all span cones, the common refinement is that fan
    b1, b2 = case
    assert repr(add(b1, b2)) == repr(fo.add(b1, b2))


@given(st.one_of(cartier_pairs(), half_plane_pairs()))
@settings(max_examples=200, deadline=None)
def test_leq_matches_common_refinement_oracle(case):
    b1, b2 = case
    for x, y in ((b1, b2), (b2, b1)):
        assert leq(x, y) is fo.leq(x, y)


def test_leq_on_a_shared_fan_reads_coefficients(monkeypatch):
    b1 = o3_weighted().cartier
    b2 = cartier(b1.fan, [v - 1 for v in _values(b1)])
    calls = []
    for module, name in ((toric, "psi_value"), (fans, "common_refinement"), (dd, "extreme_rays")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert leq(b1, b2)
    # a1 <= a2 at every ray: m = 0 certifies the order with no DD, no psi and no refinement
    assert calls == []
    assert not leq(b2, b1)
    # the other direction takes one homogenized DD, still with no psi and no refinement
    assert calls == ["extreme_rays"]


@st.composite
def translated_pairs(draw):
    """b1 from `cartier_pairs` and b2 = b1 + <m, .> - bump in psi on b1's fan, with
    m != 0 and bump >= 0 at each ray: m certifies b1 <= b2, and m = 0 mostly does not."""
    b1 = draw(cartier_pairs())[0]
    fan = b1.fan
    m = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=fan.dim,
                      max_size=fan.dim).filter(any))
    bumps = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(1, 2)]), min_size=len(fan.rays),
                          max_size=len(fan.rays)))
    return b1, cartier(fan, [v + sum(x * y for x, y in zip(m, r)) - bump
                             for v, r, bump in zip(_values(b1), fan.rays, bumps)])


@given(translated_pairs())
@settings(max_examples=150, deadline=None)
def test_leq_of_a_translate_matches_dd_oracle(case):
    b1, b2 = case
    assert leq(b1, b2) and bo.leq(b1, b2)
    assert leq(b2, b1) is bo.leq(b2, b1)


@given(cartier_pairs())
@settings(max_examples=150, deadline=None)
def test_leq_matches_dd_oracle(case):
    # unordered pairs, on one fan or on two
    b1, b2 = case
    for x, y in ((b1, b2), (b2, b1)):
        assert leq(x, y) is bo.leq(x, y)


def test_leq_on_a_fan_with_lineality():
    # two half-planes sharing the x-axis each contain a line, so they make no
    # fan: no comparison can read an empty common refinement of such fans
    with pytest.raises(ValueError, match="cone not pointed"):
        fans.make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize("name", sorted(_BASE))
def test_weighted_metric_intersection_runs_no_dd_past_its_hull(name, monkeypatch):
    # the base fan's halfspaces are warm: the refinement gives the fan back, the
    # nef polytope is the hull of the functionals, and only a 3-d hull runs a DD
    rng = random.Random(18)
    real = dd.extreme_rays
    for _ in range(6):
        h = _weighted(rng, name)
        fan, slopes = h.line.fan, h.body.vertices
        assert fan.halfspaces
        bdiv._determination.cache_clear()
        toric.polytope_of_divisor.cache_clear()
        calls = []
        monkeypatch.setattr(dd, "extreme_rays", lambda rows, dim: calls.append(dim) or real(rows, dim))
        b = bdiv_of_metric(h).cartier
        assert b.fan is fan and fans.refine_by_slopes(fan, slopes) is fan
        intersect_cartier([b] * fan.dim)
        seen = list(calls)
        calls.clear()
        polytopes.canonicalize(b.functionals.values())
        assert seen == calls == ([] if fan.dim == 2 else [4])
        monkeypatch.undo()


def test_add_dimension_mismatch():
    for route in (add, fo.add):
        with pytest.raises(ValueError, match="dimension mismatch"):
            route(b_of(o_p2(1)), b_of(toric.divisor(p1(), [1, 0])))


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(sorted(_BASE)), st.data())
@settings(max_examples=60, deadline=None)
def test_chain_volumes_match_extension_and_incarnation_loops(seed, name, data):
    rng = random.Random(seed)
    h = _weighted(rng, name)
    b = bdiv_of_metric(h).cartier
    base = _BASE[name]()
    star = fans.stellar_refine(base, data.draw(st.sampled_from(_new_rays(base))))
    unit = [tuple(int(i == j) for j in range(base.dim)) for i in range(base.dim)]
    orthant = fans.make_fan(unit, [range(base.dim)])
    # the last three chains are not nested, not complete, or of another dimension
    chains = [[base], [base, b.fan], [base, star, fans.common_refinement(star, b.fan)],
              [star, base], [orthant], [p1cubed() if base.dim == 2 else p2()]]
    # psi = g everywhere, so the incarnation's volumes are the minimal extension's
    for chain in chains:
        got = _outcome(toric.volume_profile, h, chain)
        assert got == _outcome(vo.volume_profile, h, chain) == _outcome(vo.incarnation_volumes, b, chain), chain


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


# -- intersections --------------------------------------------------------------

def test_intersect_frozen():
    assert intersect_cartier([b_of(o_p2(1)), b_of(o_p2(2))]) == 2
    assert intersect_cartier([b_of(o_p1p1(1, 0)), b_of(o_p1p1(0, 1))]) == 1
    assert intersect_cartier([b_of(o_p1p1(1, 0))] * 2) == 0
    assert intersect_cartier([b_of(o_p2(3))] * 2) == 9
    assert intersect_cartier([o3_weighted().cartier] * 2) == 4
    assert intersect_cartier([zero_b(p2())] * 2) == 0


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(["P2", "P1xP1", "P1^3"]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_intersect_matches_volume_oracle(seed, fan, repeat):
    rng = random.Random(seed)
    if fan == "P1^3":
        hs = [rand_weighted3(rng) for _ in range(3)]
    else:
        hs = [rand_weighted(rng, p2() if fan == "P2" else p1xp1()) for _ in range(2)]
    if repeat:
        hs[-1] = hs[0]
    bs = [bdiv_of_metric(h).cartier for h in hs]
    expected = math.factorial(len(bs)) * vo.mixed_volume([polytope_of_divisor(b) for b in bs])
    assert intersect_cartier(bs) == expected


def test_intersect_symmetric_and_monotone():
    rng = random.Random(13)
    for _ in range(5):
        bs = [bdiv_of_metric(rand_weighted(rng, p2())).cartier for _ in range(2)]
        assert intersect_cartier(bs) == intersect_cartier(bs[::-1])
    x = o3_weighted().cartier
    assert intersect_cartier([b_of(o_p2(1)), x]) <= intersect_cartier([b_of(o_p2(2)), x])


def test_intersect_errors():
    with pytest.raises(ValueError, match="wrong count of bodies"):
        intersect_cartier([])
    with pytest.raises(ValueError, match="wrong count of bodies"):
        intersect_cartier([b_of(o_p2(1))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        intersect_cartier([b_of(o_p2(1)), b_of(toric.divisor(p1(), [1, 0]))])
    not_nef = cartier(p2(), [1, 0, 0])
    assert not not_nef.nef
    with pytest.raises(ValueError, match="intersection defined for nef inputs"):
        intersect_cartier([not_nef, b_of(o_p2(1))])


def test_nefness_is_tested_once_per_divisor(monkeypatch):
    # intersect_cartier and weil check nefness, and polytope_of_divisor reads it
    # on a miss: each divisor object runs the membership test once
    b1, b2 = b_of(o_p2(2)), b_of(o_p2(1))
    toric.polytope_of_divisor.cache_clear()
    calls = []
    real = toric._in_polytope
    monkeypatch.setattr(toric, "_in_polytope", lambda d, points: calls.append(d) or real(d, points))
    assert intersect_cartier([b1, b2]) == 2
    assert intersect_cartier([b1, b2]) == 2
    assert weil([b1, b2]).approximants == (b1, b2)
    assert len(calls) == 2 and calls[0] is b1 and calls[1] is b2


# -- Weil sequences --------------------------------------------------------------

def test_weil_validation():
    with pytest.raises(ValueError, match="empty approximant sequence"):
        weil([])
    with pytest.raises(ValueError, match="intersection defined for nef inputs"):
        weil([cartier(p2(), [1, 0, 0])])
    with pytest.raises(ValueError, match="approximants must be non-increasing"):
        weil([b_of(o_p2(1)), b_of(o_p2(2))])


def test_intersect_nef_single_cartier():
    out = intersect_nef([b_of(o_p2(3)), b_of(o_p2(3))], Fraction(1, 100))
    assert out == RatInterval(Fraction(9), Fraction(9), True)


@pytest.mark.parametrize("tol", [Fraction(1, 100), Fraction(0)])
def test_intersect_nef_lone_approximant_converges_at_once(tol):
    # with no previous value the gap is 0, whatever the tolerance
    w = weil([b_of(o_p2(3))])
    assert intersect_nef([w, w], tol) == RatInterval(Fraction(9), Fraction(9), False)
    w = weil([b_of(o_p2(3))], b_of(o_p2(2)))
    assert intersect_nef([w, w], tol) == RatInterval(Fraction(4), Fraction(9), True)


def test_intersect_nef_with_limit_certifies():
    w = shrinking_weil()
    out = intersect_nef([w, w], Fraction(1, 100))
    assert out.certified
    assert out.lo == 4
    assert 4 <= out.hi <= 5
    assert out.width() < Fraction(1, 2)


def test_intersect_nef_without_limit():
    approx = [b_of(o_p2(2 + Fraction(1, 2**k))) for k in range(12)]
    w = weil(approx)
    out = intersect_nef([w, w], Fraction(1, 100))
    assert not out.certified
    assert out.hi >= 4


def test_intersect_nef_budget_error():
    w = weil([b_of(o_p2(4)), b_of(o_p2(3)), b_of(o_p2(2))])
    with pytest.raises(ValueError, match="tolerance not reached in budget"):
        intersect_nef([w, w], Fraction(1, 10**9))


def test_intersect_nef_diagonal_monotone():
    w = shrinking_weil(steps=6)
    vals = [intersect_cartier([a, a]) for a in w.approximants]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    assert all(v >= 4 for v in vals)


def test_intersect_nef_mixed_weil_and_cartier():
    out = intersect_nef([shrinking_weil(steps=25), b_of(o_p2(1))], Fraction(1, 1000))
    assert out.certified
    assert out.lo == 2


# -- volumes ----------------------------------------------------------------------

def test_vol_cartier():
    assert vol(b_of(o_p2(3))) == 9
    assert vol(o3_weighted().cartier) == 4
    assert vol(zero_b(p2())) == 0


def test_vol_weil_interval():
    out = vol(shrinking_weil(steps=25))
    assert isinstance(out, RatInterval)
    assert out.certified
    assert out.lo == 4
    assert out.width() < Fraction(1, 10**5)


def test_vol_equals_model_polytope_volume():
    rng = random.Random(17)
    for _ in range(8):
        h = rand_weighted(rng, p2())
        b = bdiv_of_metric(h).cartier
        assert vol(b) == 2 * polytopes.volume(h.body)


def test_vol_tensor_bilinearity():
    rng = random.Random(19)
    for _ in range(5):
        h1, h2 = rand_weighted(rng, p2()), rand_weighted(rng, p2())
        b1, b2 = bdiv_of_metric(h1).cartier, bdiv_of_metric(h2).cartier
        b12 = bdiv_of_metric(toric.tensor(h1, h2)).cartier
        assert vol(b12) == vol(b1) + 2 * intersect_cartier([b1, b2]) + vol(b2)


# -- mass comparison ---------------------------------------------------------------

def test_chern_weil_line_frozen():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    rep = bdiv.chern_weil_line([h, h])
    assert (rep.lhs, rep.rhs, rep.mid, rep.verdict) == (4, 4, 4, "equal")
    assert rep.to_json() == {"lhs": "4", "mid": "4", "rhs": "4", "verdict": "equal"}


def _count_bdiv_of_metric(monkeypatch):
    calls = []
    real = bdiv.bdiv_of_metric

    def counted(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(bdiv, "bdiv_of_metric", counted)
    return calls


@pytest.mark.parametrize("draw", [lambda rng: rand_weighted(rng, p2()),
                                  lambda rng: rand_weighted(rng, p1xp1()),
                                  rand_weighted3], ids=["P2", "P1xP1", "P1^3"])
def test_chern_weil_line_builds_one_bdiv_per_metric(monkeypatch, draw):
    h = draw(random.Random(5))
    n = h.line.fan.dim
    calls = _count_bdiv_of_metric(monkeypatch)
    rep = bdiv.chern_weil_line([h] * n)
    assert rep.verdict == "equal"
    assert len(calls) == 1
    twice = toric.divisor(h.line.fan, [2 * a for a in h.line.coeffs])
    calls.clear()
    bdiv.chern_weil_line([h, minimal_metric(twice)] + [h] * (n - 2))
    assert len(calls) == 2


def test_determination_is_built_once_per_metric(monkeypatch):
    bdiv._determination.cache_clear()
    calls = []
    real = fans.refine_by_slopes
    monkeypatch.setattr(fans, "refine_by_slopes",
                        lambda fan, slopes: calls.append(fan) or real(fan, slopes))
    data = {"divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "3"}},
            "pieces": [{"slope": ["0", "0"]}, {"slope": ["1/2", "0"]}, {"slope": ["0", "3"]}]}
    # the uncached parser: report.metric_of would hand back one object twice
    g1, g2 = (report._metric(p2(), data, "scenario") for _ in range(2))
    assert g1 == g2 and g1 is not g2
    b1 = bdiv_of_metric(g1).cartier
    b2 = bdiv_of_metric(g2).cartier
    assert len(calls) == 1 and b2 is b1
    fresh = bdiv._determination.__wrapped__(g2)
    assert fresh is not b1 and fresh == b1


def test_chern_weil_line_minimal_is_classical():
    rep = bdiv.chern_weil_line([minimal_metric(o_p1p1(1, 0)), minimal_metric(o_p1p1(0, 1))])
    assert rep.verdict == "equal"
    assert rep.lhs == 1
    assert rep.mid is None


def test_chern_weil_line_random():
    rng = random.Random(23)
    for fan in (p2(), p1xp1()):
        for _ in range(5):
            h = rand_weighted(rng, fan)
            rep = bdiv.chern_weil_line([h, h])
            assert rep.verdict == "equal"
            assert rep.lhs == rep.rhs == rep.mid
