"""Toric divisors, PL metrics, Lelong data, masses, minimal extensions."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toric_oracle
import volume_oracle as vo
from toricbdiv import bdiv, fans, okounkov, polytopes, report, toric
from toricbdiv.polytopes import canonicalize, minkowski_sum, volume
from toricbdiv.rationals import dot, vec

from conftest import (complete_fan_2d, lattice_count, lelong_numbers, minimal_metric,
                      o_p1p1, o_p2, p1cubed, p1xp1, p2, pullback, rand_weighted,
                      rand_weighted3, singularity_divisor)


def test_polytope_of_divisor_frozen():
    for d in (1, 3):
        p = toric.polytope_of_divisor(o_p2(d))
        assert p == canonicalize([(0, 0), (d, 0), (0, d)])
    zero = toric.divisor(p2(), [0, 0, 0])
    assert toric.polytope_of_divisor(zero).vertices == ((0, 0),)
    box = toric.polytope_of_divisor(o_p1p1(2, 5))
    assert box == canonicalize([(0, 0), (2, 0), (0, 5), (2, 5)])


def test_polytope_of_divisor_empty():
    with pytest.raises(ValueError, match="empty polytope"):
        toric.polytope_of_divisor(o_p2(-1))


def test_divisor_coefficient_forms():
    # the command line reads rays given as "r1,r2" map keys; the library takes tuples
    d1 = report.divisor_of(p2(), {"coeffs": {"1,0": 0, "0,1": 0, "-1,-1": 2}}, "scenario")
    d2 = toric.divisor(p2(), {(1, 0): 0, (0, 1): 0, (-1, -1): 2})
    d3 = toric.divisor(p2(), [2, 0, 0])  # aligned to sorted rays
    assert d1 == d2 == d3
    assert toric.divisor(p2(), dict(zip(d1.fan.rays, d1.coeffs))) == d1


def test_a_divisor_solves_each_cone_once(monkeypatch):
    fan = p1xp1()
    toric._functionals.cache_clear()
    calls = []
    real = toric.solve
    monkeypatch.setattr(toric, "solve", lambda rows, rhs: calls.append(rhs) or real(rows, rhs))
    d = toric.divisor(fan, [1, 2, 3, 4])
    assert len(calls) == len(fan.cones)
    calls.clear()
    # equal coefficients, given as a map of other rationals, read the same functionals
    e = toric.divisor(fan, dict(zip(fan.rays, ["1", Fraction(2), 3, 4])))
    assert calls == [] and e == d and e.functionals is d.functionals
    with pytest.raises(TypeError):
        d.functionals[fan.cones[0]] = (Fraction(0),) * 2


def test_psi_values():
    d = o_p2(3)
    assert toric.psi_value(d, (1, 0)) == 0
    assert toric.psi_value(d, (-1, -1)) == -3
    assert toric.psi_value(d, (1, 1)) == 0  # linear on the first quadrant cone
    assert toric.psi_value(d, (-2, -2)) == -6  # homogeneous


def test_nef_big():
    assert o_p2(1).nef and toric.is_big(o_p2(1))
    assert not o_p2(-1).nef
    assert not toric.is_big(o_p2(-1))
    assert o_p1p1(1, 0).nef and not toric.is_big(o_p1p1(1, 0))


def test_pullback_to_blowup_stays_nef():
    fine = fans.stellar_refine(p2(), (1, 1))
    pb = pullback(o_p2(1), fine)
    assert pb.nef and toric.is_big(pb)
    assert toric.polytope_of_divisor(pb) == toric.polytope_of_divisor(o_p2(1))


def test_metric_evaluation_and_model():
    h = toric.metric(o_p2(3), [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
    assert h.g((1, 0)) == 0
    assert h.g((-1, -1)) == -2
    assert h.body == canonicalize([(1, 0), (0, 1), (1, 1)])


def test_minimal_metric_has_zero_lelong():
    h = minimal_metric(o_p2(2))
    nus = lelong_numbers(h, p2())
    assert all(v == 0 for v in nus.values())


def test_weighted_metric_lelong():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    nus = lelong_numbers(h, p2())
    assert nus[(1, 0)] == 1
    assert nus[(0, 1)] == 0 and nus[(-1, -1)] == 0
    assert h.body == canonicalize([(1, 0), (3, 0), (1, 2)])


def test_lelong_after_refinement():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    fine = fans.stellar_refine(p2(), (1, 1))
    nus = lelong_numbers(h, fine)
    expected = h.g((1, 1)) - toric.psi_value(h.line, (1, 1))
    assert nus[(1, 1)] == expected
    sing = singularity_divisor(h, fine)
    assert sing.coeffs[fine.ray_index((1, 1))] == expected


def test_negative_lelong_rejected_at_construction():
    # piece (-1,0) puts g(e1) = -1 below psi_{O(1)}(e1) = 0
    with pytest.raises(ValueError, match="negative Lelong number"):
        toric.metric(o_p2(1), [((-1, 0), 0)])


def test_np_mass_frozen():
    for d in (1, 2, 3):
        assert toric.np_mass([minimal_metric(o_p2(d))] * 2) == d * d
    for d, a in ((3, 1), (4, 2)):
        h = toric.metric_with_ray_weights(o_p2(d), {(1, 0): a})
        assert toric.np_mass([h, h]) == (d - a) ** 2
    point = minimal_metric(toric.divisor(p2(), [0, 0, 0]))
    assert toric.np_mass([minimal_metric(o_p2(2)), point]) == 0


def test_np_mass_refinement_invariance():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    fine = fans.stellar_refine(p2(), (1, 1))
    pb = pullback(h.line, fine)
    h_fine = toric.metric(pb, [(m, 0) for m in h.body.vertices])
    assert toric.np_mass([h_fine, h_fine]) == toric.np_mass([h, h])
    assert h_fine.body == h.body


def test_minimal_extension():
    h = minimal_metric(o_p2(2))
    ext = vo.minimal_extension(h, p2())
    assert ext.line == h.line  # already minimal: unchanged
    hw = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    ext = vo.minimal_extension(hw, p2())
    i = p2().ray_index((1, 0))
    assert ext.line.coeffs[i] == hw.line.coeffs[i] - 1
    assert all(v == 0 for v in lelong_numbers(ext, p2()).values())
    assert ext.body == hw.body


def test_minimal_extension_after_refinement():
    h = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    fine = fans.stellar_refine(p2(), (1, -1))
    base_ext = vo.minimal_extension(h, p2())
    fine_ext = vo.minimal_extension(h, fine)
    # on the finer fan the extension differs exactly by the new ray's Lelong number
    pb = pullback(base_ext.line, fine)
    nu_new = lelong_numbers(h, fine)[(1, -1)]
    j = fine.ray_index((1, -1))
    assert pb.coeffs[j] - fine_ext.line.coeffs[j] == nu_new


def test_volume_profile():
    h = minimal_metric(o_p2(2))
    chain = [p2(), p2(), p2()]
    assert toric.volume_profile(h, chain) == [4, 4, 4]

    # g is a support function on the base fan: profile constant immediately
    hw = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    fine = fans.stellar_refine(p2(), (1, 1))
    assert toric.volume_profile(hw, [p2(), fine]) == [4, 4]

    # strictly finer singularities: strictly decreasing first step
    hs = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    fine = fans.stellar_refine(p2(), (1, -1))
    prof = toric.volume_profile(hs, [p2(), fine])
    assert prof == [4, 2]


def test_volume_profile_chain_not_nested():
    with pytest.raises(ValueError, match="chain not nested"):
        toric.volume_profile(minimal_metric(o_p2(1)),
                             [fans.stellar_refine(p2(), (1, 1)), p2()])


def test_tensor_adds():
    rng = random.Random(31)
    for _ in range(8):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        h1 = toric.metric_with_ray_weights(o_p2(d1), {(1, 0): Fraction(1, 2)})
        h2 = minimal_metric(o_p2(d2))
        t = toric.tensor(h1, h2)
        assert t.body == minkowski_sum(
            h1.body, h2.body)
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert t.g(v) == h1.g(v) + h2.g(v)


def test_tensor_with_a_one_vertex_metric_translates():
    # a one-vertex body's pairwise sums are the other body moved by that vertex
    h = toric.metric_with_ray_weights(o_p2(2), {(1, 0): Fraction(1, 2)})
    pt = toric.metric(o_p2(1), [((Fraction(1, 3), Fraction(1, 4)), 0)])
    assert len(pt.body.vertices) == 1
    moved = polytopes.translate(h.body, pt.body.vertices[0])
    for t in (toric.tensor(h, pt), toric.tensor(pt, h)):
        assert t.body == moved
        assert sorted(t.body.halfspaces) == sorted(moved.halfspaces)


def test_metric_json_round_trip():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): Fraction(1, 2)})
    line = h.line
    data = {"divisor": {"coeffs": {",".join(map(str, r)): str(a)
                                   for r, a in zip(line.fan.rays, line.coeffs)}},
            "pieces": [{"slope": [str(x) for x in m], "offset": "0"} for m in h.body.vertices]}
    back = report.metric_of(p2(), data, "scenario")
    assert back.body == h.body and back == h


def test_graded_sections_frozen():
    h = minimal_metric(o_p2(2))
    assert lattice_count(h.body, 3) == 28
    hw = toric.metric_with_ray_weights(o_p2(2), {(1, 0): 1})
    assert lattice_count(hw.body, 3) == 10


_FANS = {"P2": p2, "P1xP1": p1xp1, "P1^3": p1cubed}
frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6]))


def _base_fan(draw) -> fans.Fan:
    name = draw(st.sampled_from(sorted(_FANS) + ["random 2-d"]))
    if name != "random 2-d":
        return _FANS[name]()
    rays = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                         min_size=3, max_size=7))
    try:
        return complete_fan_2d(rays)
    except ValueError:
        assume(False)


@st.composite
def _support_divisors(draw):
    """a_rho = -min_j <m_j, v_rho> on a complete fan, with the slopes' span cut
    down to a point or to the first axis for flat polytopes."""
    fan = _base_fan(draw)
    ms = draw(st.lists(st.tuples(*[frac] * fan.dim), min_size=1, max_size=5))
    shape = draw(st.sampled_from(["full", "point", "first axis"]))
    if shape == "point":
        ms = ms[:1]
    elif shape == "first axis":
        ms = [(m[0],) + (Fraction(0),) * (fan.dim - 1) for m in ms]
    return toric.divisor(fan, [-min(dot(m, vec(r)) for m in ms) for r in fan.rays])


def _same_polytope(d: toric.ToricDivisor) -> None:
    got, want = toric.polytope_of_divisor(d), toric_oracle.polytope_of_divisor(d)
    assert got.vertices == want.vertices and got.halfspaces == want.halfspaces


@given(_support_divisors())
@settings(max_examples=150, deadline=None)
def test_nef_polytope_matches_halfspace_route(d):
    # every ray's halfspace touches the hull of the slopes: nef on these fans
    assert d.nef
    _same_polytope(d)


def test_flat_nef_polytopes_match_halfspace_route():
    zeros = [toric.divisor(f(), [0] * len(f().rays)) for f in (p2, p1xp1, p1cubed)]
    # pullbacks from a factor: a segment in the plane, a rectangle in 3-space
    factor = [o_p1p1(2, 0), o_p1p1(0, 3),
              toric.divisor(p1cubed(), {(-1, 0, 0): 2, (0, -1, 0): Fraction(1, 2)})]
    for d in zeros + factor:
        assert d.nef and not toric.is_big(d)
        _same_polytope(d)


def test_a_divisor_that_is_not_nef_keeps_the_halfspace_route():
    # on the blow-up of P2 at (1, 1), O(1) plus the exceptional divisor, whose
    # halfspace <m, (1, 1)> >= -1 misses P_D; and one with P_D empty
    fine = fans.stellar_refine(p2(), (1, 1))
    d = toric.divisor(fine, {(-1, -1): 1, (1, 1): 1, (1, 0): 0, (0, 1): 0})
    assert not d.nef
    _same_polytope(d)
    empty = toric.divisor(fine, {(-1, -1): 1, (1, 1): -2, (1, 0): 0, (0, 1): 0})
    for route in (toric.polytope_of_divisor, toric_oracle.polytope_of_divisor):
        with pytest.raises(ValueError, match="empty polytope"):
            route(empty)


@given(st.sampled_from(sorted(_FANS)), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_membership_matches_fraction_oracle(name, data):
    fan = _FANS[name]()
    n, k = fan.dim, len(fan.rays)
    denoms = st.sampled_from([1, 2, 3, 5, 7, 12])
    mixed = st.builds(Fraction, st.integers(-9, 9), denoms)
    d = toric.divisor(fan, data.draw(st.lists(mixed, min_size=k, max_size=k)))
    pts = data.draw(st.lists(st.tuples(*[mixed] * n), max_size=4))
    # each functional is tight at the rays of its cone: on the boundary of those halfspaces
    pts += list(d.functionals.values())
    try:
        pts += list(toric_oracle.polytope_of_divisor(d).vertices)
    except ValueError:
        pass  # P_D is empty
    pts = data.draw(st.permutations(pts))
    for m in pts:
        assert toric._in_polytope(d, [m]) is toric_oracle.in_polytope(d, m)
    assert toric._in_polytope(d, pts) is all(toric_oracle.in_polytope(d, m) for m in pts)


@pytest.mark.parametrize("slope", [(1,), (0, 0, 1)])
def test_metric_rejects_a_slope_of_the_wrong_length(slope):
    # a slice of the wrong width would test another point: the length is checked first
    with pytest.raises(ValueError, match="dimension mismatch"):
        toric.metric(o_p2(2), [((0, 0), 0), (slope, 0)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        toric._in_polytope(o_p2(2), [(Fraction(0),) * 2, vec(slope)])


def _weighted_of(seed: int, name: str) -> toric.ToricMetric:
    rng = random.Random(seed)
    return rand_weighted3(rng) if name == "P1^3" else rand_weighted(rng, _FANS[name]())


@given(st.integers(min_value=0, max_value=2**32), st.sampled_from(sorted(_FANS)))
@settings(max_examples=60, deadline=None)
def test_equal_keys_hash_equal_and_as_their_field_tuples(seed, name):
    # the same draw twice gives equal divisors and metrics that are distinct objects
    m1, m2 = (_weighted_of(seed, name) for _ in range(2))
    assert m1 is not m2 and m1.line is not m2.line
    for d in (m1.line, m2.line):
        assert hash(d) == hash((d.fan, d.coeffs))
    for m in (m1, m2):
        assert hash(m) == hash((m.line, m.body))
    assert m1 == m2 and hash(m1) == hash(m2) and hash(m1.line) == hash(m2.line)


def test_a_second_lookup_hashes_no_fraction(monkeypatch):
    h1, h2 = (toric.metric_with_ray_weights(o_p2(3), {(1, 0): Fraction(1, 2)}) for _ in range(2))
    calls = []
    real = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: calls.append(x) or real(x))
    bdiv._determination.cache_clear()
    b = bdiv._determination(h1)
    # the first lookup of each key reads its Fractions
    assert calls
    for h in (h1, h2):
        calls.clear()
        assert bdiv._determination(h) is b
        assert bool(calls) is (h is h2)
        # the key hashed once: a second lookup, and a set of its divisor, read the kept hashes
        calls.clear()
        assert bdiv._determination(h) is b
        assert len({h1.line, h.line, h}) == 2
        assert calls == []


def _convex_point(draw, points):
    """A rational convex combination of the points, with small weights."""
    ws = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)).filter(any))
    return tuple(Fraction(sum(w * p[i] for w, p in zip(ws, points))) / sum(ws) for i in range(len(points[0])))


@st.composite
def _metric_pieces(draw):
    """A line O(D) on P^2, P^1xP^1 or (P^1)^3, slopes inside P_D, slopes inside
    their hull, and an offset for every piece: (line, pieces)."""
    name = draw(st.sampled_from(sorted(_FANS)))
    fan = _FANS[name]()
    degs = [draw(st.integers(1, 3)) for _ in range(fan.dim)]
    corners = ([(0, 0), (degs[0], 0), (0, degs[0])] if name == "P2"
               else list(itertools.product(*[(0, d) for d in degs])))
    line = toric.divisor(fan, [-min(dot(vec(m), vec(r)) for m in corners) for r in fan.rays])
    slopes = [_convex_point(draw, corners) for _ in range(draw(st.integers(1, 5)))]
    # points of the hull of the slopes: never a vertex of it that was not already one
    inner = [_convex_point(draw, slopes) for _ in range(draw(st.integers(0, 4)))]
    # a slope given twice, with another offset
    twice = slopes[:draw(st.integers(0, 1))]
    pieces = [(m, draw(frac)) for m in slopes + inner + twice]
    return line, draw(st.permutations(pieces))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("error", str(exc))


@given(_metric_pieces(), st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=4))
@settings(max_examples=50, deadline=None)
def test_a_metric_reduced_to_its_body_agrees_with_the_pieces(case, points):
    line, pieces = case
    fan, n = line.fan, line.fan.dim
    old, h = toric_oracle.metric(line, pieces), toric.metric(line, pieces)
    body = toric_oracle.model_polytope(old)
    assert h.body == body and h.body.halfspaces == body.halfspaces
    reduced = toric.metric(line, [(v, 0) for v in body.vertices])
    assert h == reduced and hash(h) == hash(reduced)
    for v in list(fan.rays) + [p[:n] for p in points]:
        assert h.g(v) == old.g(v)
    got, want = bdiv._determination(h), toric_oracle.determination(old)
    assert (got.fan.rays, got.fan.cones, got.coeffs) == (want.fan.rays, want.fan.cones, want.coeffs)
    # the minimal metric of the line as the other bodies of a mixed mass
    corners = [(v, 0) for v in toric.polytope_of_divisor(line).vertices]
    base, base_old = toric.metric(line, corners), toric_oracle.metric(line, corners)
    for k in range(n + 1):
        got = toric.np_mass([h] * k + [base] * (n - k))
        assert got == toric_oracle.np_mass([old] * k + [base_old] * (n - k))
    nu = okounkov.flag([[int(i == j) for j in range(n)] for i in range(n)])
    assert okounkov.limit_body(h, nu) == toric_oracle.limit_body(old, nu)
    assert _outcome(okounkov.partial_okounkov, h, nu, 3) == _outcome(toric_oracle.partial_okounkov, old, nu, 3)


@given(_metric_pieces(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_metrics_equal_up_to_offsets_and_inner_slopes_share_one_determination(case, rng):
    line, pieces = case
    other = [(m, Fraction(rng.randint(-9, 9), 7)) for m, _ in pieces]
    rng.shuffle(other)
    # the hull's vertices alone, with no offset
    bare = [(v, 0) for v in toric_oracle.model_polytope(toric_oracle.metric(line, pieces)).vertices]
    h1, h2, h3 = (toric.metric(line, p) for p in (pieces, other, bare))
    assert h1 == h2 == h3 and hash(h1) == hash(h2) == hash(h3)
    assert h1 is not h2
    bdiv._determination.cache_clear()
    b = [bdiv.bdiv_of_metric(h).cartier for h in (h1, h2, h3)]
    assert b[0] is b[1] is b[2]
    info = bdiv._determination.cache_info()
    assert (info.misses, info.hits) == (1, 2)
