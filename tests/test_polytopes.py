"""Convex bodies: hulls, Minkowski sums, volumes, mixed volumes, Hausdorff."""
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hull_oracle as ho
import lp_oracle as lp
import sections_oracle as so
import volume_oracle as vo
from toricbdiv import dd, polytopes
from toricbdiv.polytopes import (Polytope, canonicalize, from_halfspaces,
                                 hausdorff_linf, minkowski_sum,
                                 mixed_volume, translate, volume)
from toricbdiv.rationals import dot

from conftest import lattice_count, lattice_points, scale, translate_into

coord = st.integers(min_value=-4, max_value=4)
point2 = st.tuples(coord, coord)


def square(a=1):
    return canonicalize([(0, 0), (a, 0), (0, a), (a, a)])


def simplex(d=1):
    return canonicalize([(0, 0), (d, 0), (0, d)])


def run_ends(p, k=1):
    return next(polytopes.lattice_run_ends(p, range(k, k + 1)))


def test_canonicalize_drops_interior_point():
    p = canonicalize([(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 4))])
    assert p.vertices == ((0, 0), (0, 1), (1, 0))


def test_canonicalize_single_point():
    p = canonicalize([(0, 0)])
    assert p.is_point() and p.vertices == ((0, 0),)
    assert volume(p) == 0


def test_canonicalize_hull_of_four():
    p = canonicalize([(0, 0), (2, 0), (0, 3), (1, 1)])
    assert p.vertices == ((0, 0), (0, 3), (2, 0))


def test_canonicalize_empty_input():
    with pytest.raises(ValueError, match="empty point set"):
        canonicalize([])


def test_vertices_sorted_lexicographically():
    p = canonicalize([(2, 0), (0, 0), (1, 5), (0, 3)])
    assert list(p.vertices) == sorted(p.vertices)


@given(st.lists(point2, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent(pts):
    p = canonicalize(pts)
    assert canonicalize(p.vertices) == p


small = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3]))


@st.composite
def flat_point_sets(draw, dims=(1, 2, 3, 4), coords=small):
    """1-8 points of R^n, n drawn from dims, spanning an affine subspace of
    dimension at most r for a drawn r <= n (r = 0 gives a single point), some
    repeated."""
    n = draw(st.sampled_from(dims))
    r = draw(st.integers(min_value=0, max_value=n))
    base = draw(st.tuples(*[coords] * n))
    dirs = draw(st.lists(st.tuples(*[coords] * n), min_size=r, max_size=r))
    steps = st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r)
    pts = [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
           for cs in draw(st.lists(steps, min_size=1, max_size=8))]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


@given(flat_point_sets())
@settings(max_examples=400, deadline=None)
def test_canonicalize_matches_fraction_hull_oracle(pts):
    p, q = canonicalize(pts), ho.canonicalize(pts)
    assert p.vertices == q.vertices
    assert p.halfspaces == q.halfspaces


@given(flat_point_sets(coords=st.integers(min_value=-4, max_value=4)),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_hull_of_ints_matches_fraction_sort_route(pts, s, k):
    # sorting on integers before dividing by s k > 0 keeps every field
    pts = sorted(set(pts))
    got, want = polytopes.hull_of_ints(pts, s, k), ho.hull_of_ints(pts, s, k)
    assert (got.dim, got.vertices, got.halfspaces) == (want.dim, want.vertices, want.halfspaces)


@given(st.sampled_from([3, 4]).flatmap(lambda n: st.lists(
    flat_point_sets((n,), st.integers(min_value=-3, max_value=3)), min_size=2, max_size=3)))
@settings(max_examples=60, deadline=None)
def test_tail_sum_normals_match_oracle(sets):
    # a flat sum also gets its relative facets, which add only zero terms to _mixed
    sums = sorted({tuple(map(sum, zip(*combo))) for combo in product(*sets)})
    normals = [w for w, _ in polytopes._hull(sums, 1)[1]]
    old = ho._sum_normals(sets)
    assert set(old) <= set(normals)
    if polytopes.affine_rank(sums) == len(sums[0]):
        assert sorted(old) == sorted(normals)


@pytest.mark.parametrize("pts", [
    [(3, -1)],
    [(-2, 5), (4, 1)],
    [(x, 2 * x - 1) for x in range(-3, 6)],
    [(0, 0), (1, 3), (4, 1)],
    [(-4,)],
    [(-4,), (5,)],
    [(x,) for x in range(-3, 6, 2)],
], ids=["point", "two points", "collinear", "triangle", "1-d point", "1-d segment",
        "1-d run"])
def test_planar_hull_cases_match_fraction_oracle(pts, monkeypatch):
    want = ho.canonicalize([tuple(Fraction(x, 3) for x in v) for v in pts])
    runs = []
    extreme_rays = dd.extreme_rays
    monkeypatch.setattr(dd, "extreme_rays", lambda *args: runs.append(args) or extreme_rays(*args))
    got = polytopes.hull_of_ints(sorted(pts), 3)
    assert (got.vertices, got.halfspaces) == (want.vertices, want.halfspaces)
    # Andrew's chain answers a hull with three vertices and a segment's ends
    # answer a 1-d hull; a flat planar one of two or more points goes on to
    # the double description
    assert len(runs) == (len(pts) > 1 and len(pts[0]) == 2 and polytopes.affine_rank(pts) < 2)


def test_minkowski_squares():
    assert minkowski_sum(square(), square()) == square(2)


def test_minkowski_pentagon():
    p = minkowski_sum(simplex(), square())
    assert p.vertices == ((0, 0), (0, 2), (1, 2), (2, 0), (2, 1))


def test_minkowski_point_translates():
    p = simplex(2)
    v = canonicalize([(3, 5)])
    assert minkowski_sum(p, v) == translate(p, (3, 5))


def test_minkowski_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        minkowski_sum(square(), canonicalize([(0, 0, 0)]))


def test_volume_frozen():
    assert volume(square()) == 1
    assert volume(simplex()) == Fraction(1, 2)
    assert volume(canonicalize([(0, 0), (2, 0), (0, 3)])) == 3
    # lower-dimensional bodies have volume 0
    assert volume(canonicalize([(0, 0), (1, 1)])) == 0


def test_mixed_volume_frozen():
    assert mixed_volume([square(), square()]) == 1
    assert mixed_volume([simplex(), square()]) == 1
    assert volume(minkowski_sum(simplex(), square())) == Fraction(7, 2)
    assert mixed_volume([square(), canonicalize([(1, 2)])]) == 0


def test_mixed_volume_wrong_count():
    with pytest.raises(ValueError, match="wrong count of bodies"):
        mixed_volume([square()])


def test_mixed_volume_symmetric_3d():
    import itertools
    cube = canonicalize(list(itertools.product([0, 1], repeat=3)))
    s3 = canonicalize([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    seg = canonicalize([(0, 0, 0), (1, 1, 0)])
    bodies = [cube, s3, seg]
    vals = {mixed_volume([bodies[i] for i in perm])
            for perm in itertools.permutations(range(3))}
    assert len(vals) == 1


def _rand_poly(rng, n):
    pts = [tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(n))
           for _ in range(n + 2 + rng.randint(0, 3))]
    return canonicalize(pts)


def test_mixed_volume_diagonal_and_homogeneity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 3])
        p = _rand_poly(rng, n)
        assert mixed_volume([p] * n) == volume(p)
        t = Fraction(rng.randint(0, 4), rng.choice([1, 2]))
        scaled = scale(p, t)
        assert volume(minkowski_sum(p, scaled)) == (1 + t) ** n * volume(p)


def test_mixed_volume_multilinear():
    rng = random.Random(11)
    for _ in range(10):
        p1, p1b, p2 = (_rand_poly(rng, 2) for _ in range(3))
        lhs = mixed_volume([minkowski_sum(p1, p1b), p2])
        assert lhs == mixed_volume([p1, p2]) + mixed_volume([p1b, p2])


def test_hausdorff_frozen():
    d = hausdorff_linf(square(), square(2))
    assert d.value == 1
    assert hausdorff_linf(simplex(), simplex()).value == 0
    assert hausdorff_linf(simplex(), translate(simplex(), (1, 1))).value == 1


def test_hausdorff_axioms():
    rng = random.Random(3)
    for _ in range(15):
        p, q, r = (_rand_poly(rng, 2) for _ in range(3))
        dpq = hausdorff_linf(p, q).value
        assert dpq == hausdorff_linf(q, p).value
        assert hausdorff_linf(p, r).value <= dpq + hausdorff_linf(q, r).value
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert hausdorff_linf(translate(p, v), translate(q, v)).value == dpq


def test_lattice_count_frozen():
    for k in range(1, 5):
        assert lattice_count(square(k)) == (k + 1) ** 2
    for d in range(1, 6):
        assert lattice_count(simplex(d)) == (d + 1) * (d + 2) // 2
    assert lattice_count(canonicalize([(Fraction(1, 2), Fraction(1, 2))])) == 0


def test_lattice_count_brute_force_oracle():
    rng = random.Random(23)
    for _ in range(8):
        p = canonicalize([(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(5)])
        k = rng.randint(1, 30)
        kp = scale(p, k)
        inside = {(x, y) for x in range(0, 4 * k + 1) for y in range(0, 4 * k + 1)
                  if kp.contains((x, y))}
        assert lattice_count(kp) == len(inside)
        pts = lattice_points(kp)
        assert len(pts) == len(set(pts))
        assert set(pts) == inside
        ends = set()
        for x in {x for x, _ in inside}:
            ys = [y for x2, y in inside if x2 == x]
            ends |= {(x, min(ys)), (x, max(ys))}
        got = run_ends(kp)
        assert len(got) == len(set(got))
        assert set(got) == ends


def test_lattice_count_budget():
    # the bounding box has 8001^2 > 50 million cells
    with pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
        lattice_count(canonicalize([(0, 0), (8000, 0), (0, 8000)]))
    # and that of 8000 times the unit triangle too, checked without enumerating
    unit = simplex()
    polytopes._box(unit, 7000)
    with pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
        polytopes._box(unit, 8000)
    with pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
        lattice_count(unit, 8000)
    # the range functions check the last k's box before their first pass
    big = canonicalize([(0, 0), (10**5, 0), (0, 10**5)])
    for f in (polytopes.lattice_counts, lambda p, ks: list(polytopes.lattice_run_ends(p, ks))):
        assert f(big, range(1, 1)) == []
        with mock.patch.object(polytopes, "_lattice_runs", side_effect=AssertionError("enumerated")), \
                pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
            f(big, range(1, 3))


def test_translate_into_frozen():
    assert translate_into(square(), square(2)) == (0, 0)
    assert translate_into(square(2), square()) is None
    shifted = translate(simplex(2), (Fraction(1, 2), 0))
    assert translate_into(simplex(), shifted) == (Fraction(1, 2), 0)


def test_translate_into_lex_minimal_and_nonnegative():
    p = canonicalize([(0, 0)])
    q = canonicalize([(1, 0), (2, 0), (1, 1), (2, 1)])
    v = translate_into(p, q)
    assert v == (1, 0)
    # q shifted to negative coordinates is unreachable with v >= 0
    q_neg = translate(q, (-5, 0))
    assert translate_into(p, q_neg) is None


# -- differential tests against the simplex oracle ----------------------------

def _farthest_lp(p, q):
    """Largest sup-norm distance from a vertex of P to Q: one LP per vertex."""
    n = p.dim
    worst = Fraction(0)
    for v in p.vertices:
        a_ub, b_ub = [], []
        for w, c in q.halfspaces:
            a_ub.append([-Fraction(x) for x in w] + [Fraction(0)])
            b_ub.append(-c)
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            a_ub.append(e + [Fraction(-1)])
            b_ub.append(v[i])
            a_ub.append([-x for x in e] + [Fraction(-1)])
            b_ub.append(-v[i])
        res = lp.lp_min([Fraction(0)] * n + [Fraction(1)], a_ub, b_ub)
        assert res.status == lp.OPTIMAL
        worst = max(worst, res.value)
    return worst


def _translate_into_lp(p, q):
    """Lex-minimal shift by n LPs, each fixing the coordinate the last one minimized."""
    n = p.dim
    a_ub, b_ub = [], []
    for w, c in q.halfspaces:
        a_ub.append([-Fraction(x) for x in w])
        b_ub.append(min(dot(w, v) for v in p.vertices) - c)
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(-1)
        a_ub.append(e)
        b_ub.append(Fraction(0))
    a_eq, b_eq, sol = [], [], []
    for i in range(n):
        c_obj = [Fraction(0)] * n
        c_obj[i] = Fraction(1)
        res = lp.lp_min(c_obj, a_ub, b_ub, a_eq, b_eq)
        if res.status != lp.OPTIMAL:
            return None
        sol.append(res.value)
        a_eq.append([Fraction(int(j == i)) for j in range(n)])
        b_eq.append(res.value)
    return tuple(sol)


half = st.integers(min_value=-6, max_value=6).map(lambda x: Fraction(x, 2))


@st.composite
def bodies(draw, n):
    """Hulls of 1-6 points of R^n, so points and segments come up; some are flat."""
    pts = draw(st.lists(st.tuples(*[half] * n), min_size=1, max_size=6))
    pinned = draw(st.sampled_from([None, None] + list(range(n))))
    if pinned is not None:
        pts = [v[:pinned] + (Fraction(0),) + v[pinned + 1:] for v in pts]
    return canonicalize(pts)


@st.composite
def boxes(draw, n):
    """Products of half-integer intervals: their facets +-e_i with i < n have w_n = 0."""
    ends = draw(st.lists(st.tuples(half, half), min_size=n, max_size=n))
    return canonicalize(product(*ends))


def _bodies_in_one_dim(count):
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(*[bodies(n)] * count))


@given(_bodies_in_one_dim(2))
@settings(max_examples=90, deadline=None)
def test_hausdorff_matches_lp_oracle(pq):
    p, q = pq
    assert hausdorff_linf(p, q).value == max(_farthest_lp(p, q), _farthest_lp(q, p))


# 1-4-d bodies: hulls of half-integer points, some pinned to a coordinate
# plane, and points, segments and flats spanned by skew directions
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(*[st.one_of(bodies(n), flat_point_sets((n,)).map(canonicalize))] * 2)))
@settings(max_examples=200, deadline=None)
def test_hausdorff_matches_grown_body_oracle(pq):
    p, q = pq
    assert hausdorff_linf(p, q).value == so.hausdorff_linf(p, q)


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(*[st.one_of(bodies(n), boxes(n), flat_point_sets((n,)).map(canonicalize))] * 2)))
@settings(max_examples=200, deadline=None)
def test_hausdorff_matches_normal_scan_oracle(pq):
    # each normal's minimum over its own body comes from the row it came from
    p, q = pq
    assert hausdorff_linf(p, q) == so.hausdorff_by_normals(p, q)


def test_planar_hausdorff_grows_no_body(monkeypatch):
    def no_sum(p, q):
        raise AssertionError("minkowski_sum called")

    monkeypatch.setattr(polytopes, "minkowski_sum", no_sum)
    assert hausdorff_linf(square(), simplex(3)).value == 2
    segment = canonicalize([(0, 0), (Fraction(3, 2), 1)])
    assert hausdorff_linf(segment, canonicalize([(0, 0)])).value == Fraction(3, 2)
    assert hausdorff_linf(canonicalize([(1,)]), canonicalize([(3,), (5,)])).value == 4
    # the unit cube against its corner; a skew segment against its midpoint
    cube = canonicalize(product((0, 1), repeat=3))
    assert hausdorff_linf(cube, canonicalize([(0, 0, 0)])).value == 1
    skew = canonicalize([(0, 0, 0, 0), (1, 2, 3, 4)])
    assert hausdorff_linf(skew, canonicalize([(Fraction(1, 2), 1, Fraction(3, 2), 2)])).value == 2
    # a triangle on a skew plane inside 3 times the 4-d standard simplex,
    # whose corner 3 e_1 lies 2 from it
    flat = canonicalize([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    simplex4 = canonicalize([(0,) * 4] + [tuple(3 * int(i == j) for j in range(4)) for i in range(4)])
    assert hausdorff_linf(flat, simplex4).value == 2


tiny = st.builds(Fraction, st.integers(min_value=-2, max_value=2), st.sampled_from([1, 2, 3]))


# 1-4-d hulls of half-integer points, some pinned to a coordinate plane, and
# 1-3-d sets on skew flats; points and thin bodies often hold no lattice point
@given(st.one_of(st.integers(min_value=1, max_value=4).flatmap(bodies),
                 flat_point_sets((1, 2, 3), tiny).map(canonicalize)),
       st.integers(min_value=1, max_value=2))
@settings(max_examples=300, deadline=None)
def test_lattice_runs_match_box_mask_oracle(p, k):
    kp = scale(p, k)
    want = so.lattice_points(kp)
    assert lattice_points(p, k) == lattice_points(kp) == want
    assert lattice_count(p, k) == lattice_count(kp) == len(want)
    assert run_ends(p, k) == so.lattice_run_ends(kp)


def _outcome(f, *args):
    """f's value, or the message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def _same(got, want) -> bool:
    """Equal messages, or nests of lists and tuples of the same types and lengths
    whose arrays have equal shapes, dtypes and values."""
    if isinstance(got, np.ndarray):
        return isinstance(want, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(got, (list, tuple)):
        return type(got) is type(want) and len(got) == len(want) and all(map(_same, got, want))
    return not isinstance(want, np.ndarray) and got == want


def _runs_over(p, ks):
    """The runs of kP for each k of ks, from one call of the range route."""
    return list(polytopes._lattice_runs(p, ks))


def _runs_per_k(p, ks):
    """The same from one call of the per-k pass for each k; the first error ends it."""
    return [so._lattice_runs_per_k(p, k) for k in ks]


# 1-4-d hulls, some pinned to a coordinate plane, boxes, and 1-4-d sets on
# skew flats that often hold no lattice point; k up to 40, so some boxes
# exceed the budget; small blocks split the prefixes into many passes
@given(st.one_of(st.integers(min_value=1, max_value=4).flatmap(bodies),
                 st.integers(min_value=1, max_value=4).flatmap(boxes),
                 flat_point_sets((1, 2, 3, 4), tiny).map(canonicalize)),
       st.integers(min_value=1, max_value=40),
       st.sampled_from([polytopes._RUN_BLOCK, 1 << 12, 16]))
@settings(max_examples=200, deadline=None)
def test_lattice_runs_match_per_facet_oracle(p, k, block):
    assert _outcome(polytopes._box, p, k) == _outcome(so._box, p, k)
    want = _outcome(so._lattice_runs, p, k)
    with mock.patch.object(polytopes, "_RUN_BLOCK", block):
        assert _same(_outcome(_runs_over, p, range(k, k + 1)), want if isinstance(want, str) else [want])


@st.composite
def thin_boxes(draw, n):
    """Products of intervals [i/d, (i + j)/d] narrower than 1, the last axis
    [0, m] when n > 1: their boxes at k are empty or not monotone in k, and
    for m = 10^7 or 3 10^7 they pass the budget at some k with one prefix."""
    axes = []
    for _ in range(n if n == 1 else n - 1):
        d = draw(st.sampled_from([2, 3, 4, 5, 6]))
        i, j = draw(st.integers(min_value=-6, max_value=6)), draw(st.integers(min_value=0, max_value=d - 1))
        axes.append((Fraction(i, d), Fraction(i + j, d)))
    if n > 1:
        axes.append((0, draw(st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from([10**7, 3 * 10**7])))))
    return canonicalize(product(*axes))


def test_thin_box_counts_are_not_monotone():
    thin = canonicalize(product((Fraction(1, 3), Fraction(2, 3)), (0, 5)))
    assert polytopes.lattice_counts(thin, range(1, 8)) == [0, 11, 32, 21, 52, 93, 72]
    assert _same(_outcome(_runs_over, thin, range(1, 8)), _outcome(_runs_per_k, thin, range(1, 8)))


def _work(p, ks, block):
    """The prefix rows over ks up to the first k whose box raises, and about
    how many passes the range route takes over them at this block."""
    rows = 0
    for k in ks:
        box = _outcome(polytopes._box, p, k)
        if isinstance(box, str):
            break
        rows += math.prod(hi - lo + 1 for lo, hi in box[:-1]) if box else 0
    return rows, rows // max(1, block // len(p.halfspaces))


# the bodies, boxes and flat sets above, and thin boxes; ranges reach k = 40,
# so some boxes exceed the budget partway; small blocks split one k over many
# passes, large ones take many k's in one. The per-k pass, whose output does
# not depend on the block, runs at the default one. Examples of more than
# 50,000 rows or 2,000 passes are skipped, so that the test's time stays bounded
@given(st.one_of(st.integers(min_value=1, max_value=4).flatmap(bodies),
                 st.integers(min_value=1, max_value=4).flatmap(boxes),
                 flat_point_sets((1, 2, 3, 4), tiny).map(canonicalize),
                 st.integers(min_value=1, max_value=3).flatmap(thin_boxes)),
       st.integers(min_value=1, max_value=40).flatmap(
           lambda last: st.integers(min_value=1, max_value=last).map(lambda first: range(first, last + 1))),
       st.sampled_from([polytopes._RUN_BLOCK, 1 << 12, 16]))
@settings(max_examples=200, deadline=None)
def test_lattice_runs_over_a_range_match_the_per_k_pass(p, ks, block):
    rows, passes = _work(p, ks, block)
    assume(rows <= 50_000 and passes <= 2000)
    want = _outcome(_runs_per_k, p, ks)
    with mock.patch.object(polytopes, "_RUN_BLOCK", block):
        assert _same(_outcome(_runs_over, p, ks), want)


def test_lattice_runs_over_a_range_raise_the_first_per_k_error():
    a = 2**32
    # empty boxes at odd k; at k = 6 the box has 6 * 10^7 + 1 cells, over the
    # budget, while the box at k = 7 is empty again
    segment = canonicalize([(Fraction(1, 2), 0), (Fraction(1, 2), 10**7)])
    polytopes._box(segment, 7)
    assert polytopes.lattice_counts(segment, range(1, 6)) == [0, 2 * 10**7 + 1, 0, 4 * 10**7 + 1, 0]
    # an offset past int64 at every k whose box holds an integer, and the
    # int64 error at k = 2 before the budget error at k = 6
    wide = canonicalize([(a, 0), (a + Fraction(1, a), 1), (a, 1)])
    both = canonicalize([(Fraction(1, 2), 0), (Fraction(1, 2), 10**7),
                         (Fraction(1, 2) + Fraction(1, 2**62), 0)])
    for p, ks, message in [(segment, range(1, 8), "lattice enumeration budget exceeded"),
                           (wide, range(1, 4), "lattice enumeration exceeds int64"),
                           (both, range(1, 8), "lattice enumeration exceeds int64")]:
        got = _outcome(_runs_over, p, ks)
        assert _same(got, _outcome(_runs_per_k, p, ks)) and got == message
        with pytest.raises(ValueError, match=message):
            polytopes.lattice_counts(p, ks)
    # the offset of the facet (-1, -10^18) leaves int64 at k = 3, whose box
    # is empty, and at k = 4, but not at k = 2, where the box has 9 points
    steep = canonicalize([(Fraction(1, 2), 0), (Fraction(1, 2), 4),
                          (Fraction(5, 8), 4 - Fraction(1, 8 * 10**18)), (Fraction(5, 8), 0)])
    assert polytopes.lattice_counts(steep, range(1, 4)) == [0, 9, 0]
    got = _outcome(_runs_over, steep, range(1, 5))
    assert _same(got, _outcome(_runs_per_k, steep, range(1, 5))) and got == "lattice enumeration exceeds int64"


def test_lattice_runs_memory_does_not_grow_with_facets(monkeypatch):
    # a polygon 2 high under a parabola of 200 edges: at k = 200 its 40,001
    # prefixes times 203 facets make a 65 MB int64 matrix in one pass, and
    # all k up to 200 have about 4 million runs
    n = 100
    p = canonicalize([(i, Fraction(i * i, n * n)) for i in range(-n, n + 1)] + [(-n, 2), (n, 2)])
    assert len(p.halfspaces) == 2 * n + 3
    monkeypatch.setattr(polytopes, "_RUN_BLOCK", 1 << 16)
    want = {}
    for k in (1, 99, 200):
        _, lo, hi = so._lattice_runs(p, k)
        want[k] = int((hi - lo + 1).sum())
    tracemalloc.start()
    try:
        counts = polytopes.lattice_counts(p, range(1, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {k: counts[k - 1] for k in want} == want
    assert peak < 8 << 20


def test_lattice_enumeration_past_int64_fails_cleanly():
    a = 2**32
    cases = [
        # the facet normal (-1, -10^20) of a thin triangle
        canonicalize([(0, 0), (1, 0), (0, Fraction(1, 10**20))]),
        # a box corner past int64
        canonicalize([(2**63,), (2**63 + 1,)]),
        # the normal (-a, 1) fits in int64, its offset -a^2 does not
        canonicalize([(a, 0), (a + Fraction(1, a), 1), (a, 1)]),
    ]
    for p in cases:
        polytopes._box(p, 3)
        for f in (lattice_count, lattice_points, run_ends):
            with pytest.raises(ValueError, match="lattice enumeration exceeds int64"):
                f(p, 3)


def test_lattice_runs_of_bodies_without_lattice_points():
    thin = canonicalize([(Fraction(1, 3), 0), (Fraction(2, 3), 5), (Fraction(1, 2), -4)])
    assert lattice_points(thin) == run_ends(thin) == []
    assert lattice_count(thin) == 0
    assert lattice_count(thin, 3) == so.lattice_count(scale(thin, 3)) == 2


@given(_bodies_in_one_dim(3), st.booleans())
@settings(max_examples=90, deadline=None)
def test_translate_into_matches_lp_oracle(pqr, grow):
    p, q, r = pqr
    if grow:
        # P + v lies in P + R for every v in R, so these mostly have an answer
        q = minkowski_sum(p, r)
    assert translate_into(p, q) == _translate_into_lp(p, q)


@st.composite
def body_lists(draw, dims, most_distinct):
    """n bodies of R^n drawn from at most most_distinct ones, so bodies repeat."""
    n = draw(st.sampled_from(dims))
    distinct = draw(st.lists(bodies(n), min_size=1, max_size=min(n, most_distinct)))
    picks = draw(st.lists(st.sampled_from(range(len(distinct))), min_size=n, max_size=n))
    return [distinct[i] for i in picks]


@given(body_lists((1, 2, 3), 3))
@settings(max_examples=150, deadline=None)
def test_mixed_volume_matches_oracle(ps):
    assert mixed_volume(ps) == vo.mixed_volume(ps)


@given(body_lists((4,), 2))
@settings(max_examples=25, deadline=None)
def test_mixed_volume_matches_oracle_4d(ps):
    assert mixed_volume(ps) == vo.mixed_volume(ps)


@given(st.tuples(bodies(3), bodies(3), bodies(3)))
@settings(max_examples=40, deadline=None)
def test_mixed_volume_of_three_bodies_matches_oracle(ps):
    # the tail of two distinct bodies takes its normals from their Minkowski sum
    assert mixed_volume(list(ps)) == vo.mixed_volume(list(ps))


@given(st.integers(min_value=1, max_value=4).flatmap(bodies))
@settings(max_examples=120, deadline=None)
def test_volume_matches_oracle(p):
    assert volume(p) == vo.volume(p)


@given(st.integers(min_value=1, max_value=4).flatmap(bodies))
@settings(max_examples=60, deadline=None)
def test_a_repeat_volume_runs_the_facet_formula_once(p):
    # a fresh copy, so no cached volume of the drawn body is read
    q, calls = Polytope(p.dim, p.vertices, p.halfspaces), []
    real = polytopes._mixed
    with mock.patch.object(polytopes, "_mixed", lambda groups: calls.append(groups) or real(groups)):
        first = volume(q)
        # the formula recurses: its first call takes the one body n times
        assert calls and [k for _, k, _ in calls[0]] == [q.dim]
        calls.clear()
        assert volume(q) == mixed_volume([q] * q.dim) == first == vo.volume(p)
        assert calls == []


def test_from_halfspaces_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        p = _rand_poly(rng, 2)
        assert from_halfspaces(p.halfspaces, 2) == p


def test_from_halfspaces_infeasible():
    with pytest.raises(ValueError, match="empty polytope"):
        from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(0))], 2)


def test_from_halfspaces_unbounded():
    with pytest.raises(ValueError, match="unbounded polytope"):
        from_halfspaces([((1, 0), Fraction(0)), ((0, 1), Fraction(0))], 2)


def test_linear_image_and_affine_rank():
    p = simplex(2)
    q = so.linear_image(p, [[0, 1], [1, 0]])
    assert q == p  # simplex is symmetric under coordinate swap
    assert polytopes.affine_rank(list(p.vertices)) == 2
    assert polytopes.affine_rank([(0, 0), (1, 1)]) == 1
