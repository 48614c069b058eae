"""Exact rational kernel: parsing, linear algebra, extreme rays, and the test oracles."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_kernel as fk
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


# -- the integer kernel against the Fraction kernel it replaced ----------------------

fracs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def matrices(draw, ncols=None, nrows=None):
    """Fraction matrices with 1-4 columns; extra rows are combinations of the
    drawn ones, so rank-deficient matrices come up often."""
    ncols = ncols or draw(st.integers(1, 4))
    rows = st.lists(fracs, min_size=ncols, max_size=ncols)
    base = draw(st.lists(rows, min_size=1, max_size=nrows or 4))
    total = nrows or draw(st.integers(len(base), len(base) + 2))
    coefs = draw(st.lists(st.lists(fracs, min_size=len(base), max_size=len(base)),
                          min_size=total - len(base), max_size=total - len(base)))
    extra = [[sum((c * r[j] for c, r in zip(cs, base)), Fraction(0)) for j in range(ncols)]
             for cs in coefs]
    return draw(st.permutations(base + extra))


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_and_nullspace_match_fraction_kernel(rows):
    assert linalg.rank(rows) == fk.rank(rows)
    assert linalg.nullspace(rows) == fk.nullspace(rows)


@given(matrices(), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_matches_fraction_kernel(rows, consistent, data):
    n = len(rows[0])
    if consistent:
        x0 = data.draw(st.lists(fracs, min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
    else:
        rhs = data.draw(st.lists(fracs, min_size=len(rows), max_size=len(rows)))
    expected = fk.solve(rows, rhs)
    assert linalg.solve(rows, rhs) == expected
    if consistent:
        assert expected is not None


@given(st.integers(1, 4).flatmap(lambda n: matrices(ncols=n, nrows=n)))
@settings(max_examples=200, deadline=None)
def test_det_matches_fraction_kernel(rows):
    d = linalg.det(rows)
    assert d == fk.det(rows) and isinstance(d, Fraction)


def test_kernel_edge_cases_match_fraction_kernel():
    inconsistent = ([[1, 2], [2, 4]], [1, 3])
    assert linalg.solve(*inconsistent) is None is fk.solve(*inconsistent)
    assert linalg.nullspace([], 3) == fk.nullspace([], 3)
    assert linalg.nullspace([[0, 0, 0]]) == fk.nullspace([[0, 0, 0]])
    assert linalg.det([]) == fk.det([]) == 1
    with pytest.raises(ValueError, match="square"):
        linalg.det([[1, 2]])


def _check_extreme_rays(rows, dim):
    lin, rays = dd.extreme_rays(rows, dim)
    old_lin, old_rays = fk.extreme_rays(rows, dim)
    assert lin == old_lin
    assert rays == old_rays


row_ints = st.integers(-3, 3)


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(row_ints, min_size=n, max_size=n), min_size=n, max_size=n + 3)))
@settings(max_examples=150, deadline=None)
def test_extreme_rays_match_fraction_kernel_on_pointed_cones(rows):
    # the unit rows make the cone pointed; the others cut it
    n = len(rows[0])
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    _check_extreme_rays(unit + rows, n)


@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=1, max_size=5),
                        st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))))
@settings(max_examples=150, deadline=None)
def test_extreme_rays_match_fraction_kernel_with_lineality(case):
    # zeroing some coordinates in every row puts their axes in the lineality space
    rows, zeroed = case
    rows = [[Fraction(0) if j in zeroed else x for j, x in enumerate(r)] for r in rows]
    _check_extreme_rays(rows, len(rows[0]))


@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(st.lists(st.lists(fracs, min_size=n - 1, max_size=n - 1), min_size=1, max_size=6),
                        st.lists(fracs, min_size=n - 1, max_size=n - 1), fracs)))
@settings(max_examples=150, deadline=None)
def test_extreme_rays_match_fraction_kernel_on_lifted_flat_polytopes(case):
    # points on the hyperplane x_n = <a, x'> + b, lifted by a last coordinate 1, as canonicalize does
    pts, a, b = case
    rows = [list(p) + [sum((u * v for u, v in zip(a, p)), b), Fraction(1)] for p in pts]
    _check_extreme_rays(rows, len(rows[0]))


@st.composite
def lifted_box_points(draw):
    """Rows (p, 1) for the points p of the box {0,1,2}^3 or {0,1}^4, in any order,
    or of a subset of it: many points share each facet of their hull."""
    n, side = draw(st.sampled_from([(4, 2), (3, 3)]))
    box = list(itertools.product(range(side), repeat=n))
    pts = draw(st.one_of(st.lists(st.sampled_from(box), min_size=1, max_size=len(box), unique=True),
                         st.permutations(box)))
    return [list(p) + [1] for p in pts]


@st.composite
def pyramids(draw):
    """Rows (r.r) w - (w.r) r, all orthogonal to one apex ray r, and at times the
    base row r: r is then tight on every row but the base."""
    n = draw(st.integers(3, 4))
    apex = draw(st.lists(row_ints, min_size=n, max_size=n).filter(any))
    rr = sum(a * a for a in apex)
    sides = draw(st.lists(st.lists(row_ints, min_size=n, max_size=n), min_size=1, max_size=8))
    rows = [[rr * x - sum(u * a for u, a in zip(w, apex)) * a for x, a in zip(w, apex)] for w in sides]
    if draw(st.booleans()):
        rows.append(apex)
    return draw(st.permutations(rows))


@given(st.one_of(lifted_box_points(), pyramids()))
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, -1, 1, 0], [-1, 1, 1, 0], [1, 1, -1, 0],
          [0, 0, 0, 1]])
@example([list(p) + [1] for p in itertools.product(range(2), repeat=4)])
@settings(max_examples=150, deadline=None)
def test_extreme_rays_match_fraction_kernel_at_high_incidence(rows):
    # the other draws have at most n + 3 or 6 rows, so few rows meet at a ray.
    # The explicit examples run first: a DD without its adjacency test returns
    # too many rays on each at once, but takes minutes on a whole {0,1,2}^3 box
    _check_extreme_rays(rows, len(rows[0]))
