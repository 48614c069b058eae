"""Exact rational kernel: parsing, linear algebra, extreme rays, and the simplex test oracle."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracle as lp
from toricbdiv import dd, linalg
from toricbdiv.rationals import dot, fmt, primitive, rat, vec

ints = st.integers(min_value=-5, max_value=5)


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == -7
    assert rat(5) == 5
    assert rat(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_fmt_round_trip():
    for x in [Fraction(3, 4), Fraction(-2), Fraction(0), Fraction(22, 7)]:
        assert rat(fmt(x)) == x
    assert fmt(Fraction(6, 3)) == "2"


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive((Fraction(1, 2), Fraction(3, 2))) == (1, 3)


def _det3_cofactor(m):
    """Independent 3x3 determinant by first-row cofactor expansion."""
    a, b, c = m[0]
    def minor(i, j):
        rows = [r for k, r in enumerate(m) if k != i]
        return [tuple(x for l, x in enumerate(r) if l != j) for r in rows]
    def det2(n):
        return n[0][0] * n[1][1] - n[0][1] * n[1][0]
    return a * det2(minor(0, 0)) - b * det2(minor(0, 1)) + c * det2(minor(0, 2))


@given(st.lists(st.tuples(ints, ints, ints), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_oracle(rows):
    assert linalg.det(rows) == _det3_cofactor(rows)


def test_rank_rref_solve():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    sol = linalg.solve([[2, 0], [0, 4]], [1, 2])
    assert sol == (Fraction(1, 2), Fraction(1, 2))
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_nullspace():
    ns = linalg.nullspace([[1, 1, 0]])
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0


def test_lp_max_frozen():
    # max x+y st x<=2, y<=3, x,y>=0 -> 5 at (2,3)
    res = lp.lp_max([1, 1],
                    [[1, 0], [0, 1], [-1, 0], [0, -1]],
                    [2, 3, 0, 0])
    assert res.status == lp.OPTIMAL
    assert res.value == 5
    assert res.x == (2, 3)


def test_lp_unbounded_and_infeasible():
    assert lp.lp_max([1], [[-1]], [0]).status == lp.UNBOUNDED
    assert lp.lp_max([1], [[1], [-1]], [-1, 0]).status == lp.INFEASIBLE


def test_lp_min():
    res = lp.lp_min([1, 0], [[-1, 0], [0, -1], [1, 1]], [0, 0, 4])
    assert res.status == lp.OPTIMAL
    assert res.value == 0


@given(st.lists(st.tuples(ints, ints), min_size=1, max_size=4),
       st.tuples(ints, ints))
@settings(max_examples=50, deadline=None)
def test_feasible_point_satisfies_constraints(rows, p):
    # constraints a.x <= a.p are satisfiable by construction (p itself)
    a_ub = [list(r) for r in rows]
    b_ub = [dot(vec(r), vec(p)) for r in rows]
    x = lp.feasible(a_ub, b_ub, nvars=2)
    assert x is not None
    for r, b in zip(rows, b_ub):
        assert dot(vec(r), x) <= b


def test_feasible_none_on_contradiction():
    assert lp.feasible([[1], [-1]], [0, -1]) is None


def test_extreme_rays_orthant():
    lin, rays = dd.extreme_rays([[1, 0], [0, 1]], 2)
    assert lin == []
    assert sorted(primitive(r) for r in rays) == [(0, 1), (1, 0)]


def test_extreme_rays_halfplane_has_lineality():
    lin, rays = dd.extreme_rays([[1, 0]], 2)
    assert len(lin) == 1 and primitive(lin[0]) in ((0, 1), (0, -1))
