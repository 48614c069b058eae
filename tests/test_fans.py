"""Fans: construction, containment, refinement, common refinements."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fan_oracle
import lp_oracle as lp
from toricbdiv import dd, fans, report, toric
from toricbdiv.fans import (common_refinement, make_fan, refine_by_slopes,
                            refines, stellar_refine)
from toricbdiv.rationals import dot, vec

from conftest import complete_fan_2d, half_plane, p1, p1cubed, p1xp1, p2


def test_projective_plane_fan():
    f = p2()
    assert f.dim == 2 and f.complete
    assert f.rays == ((-1, -1), (0, 1), (1, 0))
    assert len(f.cones) == 3


def test_make_fan_errors():
    with pytest.raises(ValueError, match="empty fan"):
        make_fan([], [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_fan([(1, 0), (0, 1, 0)], [[0, 1]])


P2_RAYS = [(1, 0), (0, 1), (-1, -1)]


def test_make_fan_rejects_a_ray_in_no_cone():
    # (1, 1) lies inside the cone of (1, 0) and (0, 1) but generates no listed cone
    with pytest.raises(ValueError, match="ray in no cone"):
        make_fan(P2_RAYS + [(1, 1)], [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError, match="ray in no cone"):
        make_fan(P2_RAYS, [])


@pytest.mark.parametrize("index", [-1, 7])
def test_make_fan_rejects_a_cone_index_out_of_range(index):
    with pytest.raises(ValueError, match="cone index out of range"):
        make_fan(P2_RAYS, [[0, 1], [1, 2], [2, index]])


def test_make_fan_reads_a_generator_of_cones_once():
    cones = (c for c in [[0, 1], [1, 2], [2, 0]])
    assert make_fan(P2_RAYS, cones) == p2()


def test_fan_json_round_trip():
    f = p1xp1()
    data = {"rays": [list(r) for r in f.rays], "cones": [list(c) for c in f.cones]}
    assert report.fan_of({"fan": data}, "scenario") == f


def test_cone_membership():
    f = p2()
    cone = next(c for c in f.cones if set(f.cone_rays(c)) == {(1, 0), (0, 1)})
    assert fans.cone_contains(f, cone, (2, 3))
    assert not fans.cone_contains(f, cone, (-1, 0))
    assert fans.find_cone(f, (-2, -5)) is not None


def _cone_contains_lp(fan, cone, v):
    """Membership by LP: v is a combination of the cone's rays with weights >= 0."""
    gens = fan.cone_rays(cone)
    k = len(gens)
    a_eq = [[Fraction(g[i]) for g in gens] for i in range(fan.dim)]
    a_ub = [[Fraction(-int(i == j)) for i in range(k)] for j in range(k)]
    return lp.feasible(a_ub, [Fraction(0)] * k, a_eq, list(v)) is not None


small = st.integers(min_value=-3, max_value=3)
point3 = st.tuples(small, small, small)
# square pyramid {|x| + |y| <= z}: four rays in R^3, so not simplicial
PYRAMID = make_fan([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [[0, 1, 2, 3]])


@given(point3)
@settings(max_examples=150, deadline=None)
def test_cone_contains_matches_lp_oracle_on_square_pyramid(v):
    cone = PYRAMID.cones[0]
    assert fans.cone_contains(PYRAMID, cone, v) is _cone_contains_lp(PYRAMID, cone, v)


@given(st.lists(point3.filter(any), min_size=1, max_size=6),
       st.lists(point3, min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_cone_contains_matches_lp_oracle_on_random_cones(rays, points):
    # the cone holds a line iff 0 is a convex combination of its rays
    k = len(rays)
    a_ub = [[Fraction(-int(i == j)) for i in range(k)] for j in range(k)]
    a_eq = [[Fraction(r[i]) for r in rays] for i in range(3)] + [[Fraction(1)] * k]
    if lp.feasible(a_ub, [Fraction(0)] * k, a_eq, [0, 0, 0, 1]) is not None:
        with pytest.raises(ValueError, match="cone not pointed"):
            make_fan(rays, [range(k)])
        return
    fan = make_fan(rays, [range(len(rays))])
    cone = fan.cones[0]
    for v in points:
        assert fans.cone_contains(fan, cone, v) is _cone_contains_lp(fan, cone, v)


def test_stellar_refine_p2():
    f = stellar_refine(p2(), (1, 1))
    assert len(f.cones) == 4 and (1, 1) in f.rays
    assert refines(f, p2())


def test_stellar_outside_support():
    single = make_fan([(1, 0), (0, 1)], [[0, 1]])
    with pytest.raises(ValueError, match="ray not in support"):
        stellar_refine(single, (-1, 0))


def test_stellar_commutes_in_distinct_cones():
    a = stellar_refine(stellar_refine(p2(), (1, 1)), (-1, 0))
    b = stellar_refine(stellar_refine(p2(), (-1, 0)), (1, 1))
    assert a == b


def test_common_refinement():
    f1 = stellar_refine(p2(), (1, 1))
    f2 = stellar_refine(p2(), (-1, 0))
    c = common_refinement(f1, f2)
    assert refines(c, f1) and refines(c, f2)
    assert {(1, 1), (-1, 0)} <= set(c.rays)


def test_refines_is_reflexive_not_symmetric():
    f = stellar_refine(p2(), (1, 1))
    assert refines(f, f)
    assert not refines(p2(), f)


def test_refine_by_slopes():
    # min((0,0).v, (1,1).v) switches sign across the line x+y=0
    f = refine_by_slopes(p2(), [(0, 0), (1, 1)])
    assert {(1, -1), (-1, 1)} <= set(f.rays)
    assert refines(f, p2())


HALF_PLANE = half_plane()
BASE_FANS = {"P2": p2(), "P1xP1": p1xp1(), "P1^3": p1cubed(), "half-plane": HALF_PLANE}
small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))


def _slopes(dim):
    return st.lists(st.tuples(*[small] * dim), min_size=1, max_size=4)


@given(st.sampled_from(sorted(BASE_FANS)).flatmap(
    lambda name: st.tuples(st.just(name), _slopes(BASE_FANS[name].dim), _slopes(BASE_FANS[name].dim))))
@settings(max_examples=40, deadline=None)
def test_refinement_completeness_flag_matches_is_complete(case):
    name, s1, s2 = case
    base = BASE_FANS[name]
    f1 = refine_by_slopes(base, s1)
    f2 = refine_by_slopes(base, s2)
    assert f1.complete == fans.is_complete(f1) == base.complete
    both = common_refinement(f1, f2)
    assert both.complete == fans.is_complete(both) == base.complete
    with_p = common_refinement(both, p2() if base.dim == 2 else p1cubed())
    assert with_p.complete == fans.is_complete(with_p) == base.complete


def test_refinements_of_the_half_plane_are_incomplete():
    f = refine_by_slopes(HALF_PLANE, [(0, 0), (1, 1), (-1, 2)])
    assert len(f.cones) > len(HALF_PLANE.cones)
    assert not f.complete and not fans.is_complete(f)
    g = common_refinement(p2(), HALF_PLANE)
    assert refines(g, HALF_PLANE)
    assert not g.complete and not fans.is_complete(g)


def test_refinements_of_a_fan_with_lineality():
    # two half-planes sharing the x-axis: each contains a line, so they are no
    # fan, and no refinement of them is built
    with pytest.raises(ValueError, match="cone not pointed"):
        make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize("rays, cones", [
    pytest.param([(1, 0), (-1, 0), (1, 1), (0, -1)], [[0, 1, 2], [0, 1, 3]], id="half-planes-G"),
    pytest.param([(1, 0), (0, 1), (-1, 0)], [[0, 1, 2]], id="one-half-plane"),
    pytest.param([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [[0, 1, 2]], id="half-plane-in-3d"),
])
def test_make_fan_rejects_a_cone_with_a_line(rays, cones):
    # G and the two half-planes above once had a common refinement with no cone,
    # so leq and add answered from an empty fan; the single half-plane once
    # failed stellar_refine at (1, 1)
    with pytest.raises(ValueError, match="cone not pointed"):
        make_fan(rays, cones)


def test_make_fan_accepts_a_lower_dimensional_pointed_cone():
    # a quadrant of the plane z = 0 contains no line, though its rows include +-e_3
    f = make_fan([(1, 0, 0), (0, 1, 0)], [[0, 1]])
    assert not f.complete and len(f.halfspaces[f.cones[0]]) == 4


# square pyramid {|x| + |y| <= z} and the normal fan of the octahedron, whose
# cones over the faces of the cube have four rays each: neither is simplicial
CUBE_RAYS = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
CUBE = make_fan(CUBE_RAYS, [[i for i, r in enumerate(CUBE_RAYS) if r[axis] == sign]
                            for axis in range(3) for sign in (-1, 1)])
LIFT_FANS = {**BASE_FANS, "pyramid": PYRAMID, "cube": CUBE}


def _random_fan_2d(draw):
    rays = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                         min_size=3, max_size=7))
    try:
        return complete_fan_2d(rays)
    except ValueError:
        assume(False)


@st.composite
def _fan_and_slopes(draw):
    name = draw(st.sampled_from(sorted(LIFT_FANS) + ["random 2-d"]))
    base = _random_fan_2d(draw) if name == "random 2-d" else LIFT_FANS[name]
    pts = draw(_slopes(base.dim))
    extra = draw(st.sets(st.sampled_from(["repeated", "collinear", "non-vertex"])))
    a, b = pts[0], pts[-1]
    if "repeated" in extra:
        pts.append(a)
    if "collinear" in extra:  # a, b and a point beyond b on their line
        pts.append(tuple(2 * y - x for x, y in zip(a, b)))
    if "non-vertex" in extra:  # the mean of the slopes so far
        pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    return base, draw(st.permutations(pts))


@given(_fan_and_slopes())
@settings(max_examples=150, deadline=None)
def test_lifted_refinement_matches_per_cell_oracle(case):
    base, slopes = case
    lifted = refine_by_slopes(base, slopes)
    cells = fan_oracle.refine_by_slopes(base, slopes)
    # Fan equality compares dim, rays, cones and the completeness flag
    assert lifted == cells


@st.composite
def _vertex_slopes(draw):
    """A complete simplicial fan, a divisor D with a_rho = -min_j <m_j, v_rho>, and
    the vertices of P_D as slopes, with points of P_D that are no vertex added."""
    name = draw(st.sampled_from(["P2", "P1xP1", "P1^3", "random 2-d"]))
    base = _random_fan_2d(draw) if name == "random 2-d" else BASE_FANS[name]
    ms = draw(_slopes(base.dim))
    d = toric.divisor(base, [-min(dot(m, vec(r)) for m in ms) for r in base.rays])
    pts = list(toric.polytope_of_divisor(d).vertices)
    a, b = pts[0], pts[-1]
    extra = draw(st.sets(st.sampled_from(["repeated", "midpoint", "mean"])))
    if "repeated" in extra:
        pts.append(a)
    if "midpoint" in extra:
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
    if "mean" in extra:
        pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    return base, d, draw(st.permutations(pts))


@given(_vertex_slopes())
@settings(max_examples=150, deadline=None)
def test_slopes_linear_on_every_cone_give_the_fan_back(case):
    base, d, slopes = case
    # each ray's halfspace touches conv(m_j), which on a product of projective
    # spaces or a complete 2-d fan makes D nef; then g = psi_D is linear on each
    # cone, and the fan itself comes back
    assert d.nef
    got = refine_by_slopes(base, slopes)
    assert got is base
    assert got == fan_oracle.refine_by_slopes(base, slopes)


def test_a_non_simplicial_fan_takes_the_lifted_dd():
    # g = -max_i |v_i| is linear on each cone of CUBE, yet its cones have four rays
    octahedron = [tuple(s * int(i == j) for j in range(3)) for i in range(3) for s in (-1, 1)]
    got = refine_by_slopes(CUBE, octahedron)
    assert got is not CUBE
    assert got == CUBE == fan_oracle.refine_by_slopes(CUBE, octahedron)


def test_a_flat_cone_with_n_rays_takes_the_lifted_dd():
    # three rays in the plane z = 0: as many as the dimension, yet not a simplicial
    # cone of R^3, so the cone spans no cell and the refinement is empty
    flat = make_fan([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [[0, 1, 2]])
    slopes = [(0, 0, 0), (1, 1, 1)]
    got = refine_by_slopes(flat, slopes)
    assert got.cones == () and got == fan_oracle.refine_by_slopes(flat, slopes)


@pytest.mark.parametrize("slopes, message", [
    ([], "no slopes"), ([(0, 0), (1,)], "dimension mismatch"),
    ([(0, 0), (1, 0, 0)], "dimension mismatch"), ([(0, 0, 0), (1, 0, 0)], "dimension mismatch"),
])
def test_refine_by_slopes_rejects_slopes_it_cannot_read(slopes, message):
    # the lifted DD once failed an assertion or returned an empty fan on these
    with pytest.raises(ValueError, match=message):
        refine_by_slopes(p2(), slopes)


def test_find_cone_after_building_a_fan_runs_no_dd(monkeypatch):
    base, p2_fan = p1xp1(), p2()
    assert base.halfspaces
    calls = []
    real = dd.extreme_rays
    monkeypatch.setattr(dd, "extreme_rays", lambda rows, dim: calls.append(dim) or real(rows, dim))
    for build, dds in ((lambda: stellar_refine(base, (1, 1)), 5),
                       (lambda: make_fan(p2_fan.rays, p2_fan.cones), 3)):
        fans._checked_fan.cache_clear()
        calls.clear()
        f = build()
        assert f.complete and len(calls) == dds  # one DD per maximal cone
        calls.clear()
        assert fans.find_cone(f, (-2, 3)) is not None
        assert build() is f  # a repeat build is the same fan
        assert calls == []


def test_equal_fans_are_one_object():
    f = make_fan(P2_RAYS, [[0, 1], [1, 2], [2, 0]])
    # the same rays in another order, one of them not primitive, and the cones renumbered
    assert make_fan([(-2, -2), (0, 1), (1, 0)], [[2, 1], [1, 0], [0, 2]]) is f
    assert f is p2() and f.complete


@pytest.mark.parametrize("rays, cones, message", [
    (P2_RAYS + [(1, 1)], [[0, 1], [1, 2], [2, 0]], "ray in no cone"),
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 2, 3]], "cone not pointed"),
])
def test_a_rejected_fan_raises_on_every_call(rays, cones, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            make_fan(rays, cones)


def test_product_fan():
    f = p1xp1()
    assert f.complete
    assert f.rays == ((-1, 0), (0, -1), (0, 1), (1, 0))
    assert len(f.cones) == 4


def test_complete_fan_2d():
    f = complete_fan_2d([(1, 0), (0, 1), (-1, -1)])
    assert f == p2()


def test_p1_fan():
    f = p1()
    assert f.rays == ((-1,), (1,)) and f.complete
