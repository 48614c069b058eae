"""Fans: construction, containment, refinement, common refinements."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fan_oracle
import lp_oracle as lp
from toricbdiv import dd, fans, report
from toricbdiv.fans import (common_refinement, complete_fan_2d, make_fan,
                            product_fan, projective_space_fan,
                            refine_by_slopes, refines, stellar_refine)

from conftest import half_plane, p1, p1cubed, p1xp1, p2


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
    fan = make_fan(rays, [range(len(rays))], 3)
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
    # two half-planes: every cone of a fan has the same lineality space, so the
    # cells of a refinement either all keep a line (and are left out) or none does
    f = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 2, 3]])
    assert f.complete
    quadrants = refine_by_slopes(f, [(0, 0), (1, 0)])
    assert len(quadrants.cones) == 4
    assert quadrants.complete and fans.is_complete(quadrants)
    lines = refine_by_slopes(f, [(0, 0), (0, 1)])
    assert lines.cones == ()
    assert not lines.complete and not fans.is_complete(lines)


LINEALITY = make_fan([(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1, 2], [0, 2, 3]])
LIFT_FANS = {**BASE_FANS, "lineality": LINEALITY}


@st.composite
def _fan_and_slopes(draw):
    name = draw(st.sampled_from(sorted(LIFT_FANS) + ["random 2-d"]))
    if name == "random 2-d":
        rays = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                             min_size=3, max_size=7))
        try:
            base = complete_fan_2d(rays)
        except ValueError:
            assume(False)
    else:
        base = LIFT_FANS[name]
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


def test_find_cone_after_building_a_fan_runs_no_dd(monkeypatch):
    base, p2_fan = p1xp1(), p2()
    assert base.halfspaces
    calls = []
    real = dd.extreme_rays
    monkeypatch.setattr(dd, "extreme_rays", lambda rows, dim: calls.append(dim) or real(rows, dim))
    for build, dds in ((lambda: stellar_refine(base, (1, 1)), 5),
                       (lambda: make_fan(p2_fan.rays, p2_fan.cones), 3)):
        calls.clear()
        f = build()
        assert f.complete and len(calls) == dds  # one DD per maximal cone
        calls.clear()
        assert fans.find_cone(f, (-2, 3)) is not None
        assert calls == []


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
