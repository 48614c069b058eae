"""Flag valuations, Okounkov bodies, section hulls, translation identity."""
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricbdiv import bdiv, cli, okounkov, polytopes, toric
from toricbdiv.okounkov import (flag, okounkov_of_bdiv, okounkov_of_class,
                                partial_okounkov, verify_okouniden)
from toricbdiv.chern import split_bundle

import sections_oracle as so
from chern_oracle import fiber_product_projectivization
from conftest import (half_plane, in_polytope, lattice_points, lelong_numbers, minimal_metric,
                      o_p1p1, o_p2, p1, p1cubed, p1xp1, p2, rand_weighted, rand_weighted3, scale)


GOLDEN = Path(__file__).parent / "golden"


def std_flag():
    return flag([(1, 0), (0, 1)])


def hull(pts):
    return polytopes.canonicalize([tuple(Fraction(x) for x in p) for p in pts])


def nu_of_metric(m, nu):
    """The valuation vector nu(h): the shift of the metric's limit body."""
    return okounkov.limit_body(m, nu).shift


def contains_origin(p):
    return all(c <= 0 for _, c in p.halfspaces)


def op1(d):
    return toric.divisor(p1(), {(-1,): d, (1,): 0})


# -- flags ---------------------------------------------------------------------

def test_flag_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        flag([(1, 0)])
    with pytest.raises(ValueError, match="flag cone must be smooth"):
        flag([(1, 0), (1, 2)])
    with pytest.raises(ValueError, match="order matrix must be unimodular"):
        flag([(1, 0), (0, 1)], order=[[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="order matrix must be n x n"):
        flag([(1, 0), (0, 1)], order=[[1]])
    with pytest.raises(ValueError, match="order matrix must be n x n"):
        flag([(1, 0), (0, 1)], order=[[1, 0], [0, 1], [0, 0]])


def test_flag_coords_and_order():
    nu = flag([(1, 0), (0, 1)], order=[[0, 1], [1, 0]])
    assert nu.coords((2, 5)) == (5, 2)
    # coords applies the same matrix that maps polytopes to bodies
    skew = flag([(1, 0), (1, 1)], order=[[1, 1], [0, 1]])
    assert skew.matrix == ((2, 1), (1, 1))
    assert skew.coords((Fraction(1, 2), 3)) == (4, Fraction(7, 2))
    body = okounkov_of_class(o_p1p1(1, 2), nu).body
    assert body == hull([(0, 0), (2, 0), (0, 1), (2, 1)])


# -- class bodies -----------------------------------------------------------------

def test_class_body_frozen():
    out = okounkov_of_class(o_p2(3), std_flag())
    assert out.body == hull([(0, 0), (3, 0), (0, 3)])
    assert out.provenance == "class"
    assert out.shift is None
    assert out.volume() == Fraction(9, 2)
    assert okounkov_of_class(o_p1p1(1, 1), std_flag()).body == \
        hull([(0, 0), (1, 0), (0, 1), (1, 1)])


def test_class_body_cornered_flag():
    nu = flag([(0, 1), (-1, -1)])
    out = okounkov_of_class(o_p2(3), nu)
    assert out.body == hull([(0, 0), (3, 0), (0, 3)])
    assert contains_origin(out.body)


def test_class_body_rejects():
    with pytest.raises(ValueError, match="not nef or not big"):
        okounkov_of_class(o_p1p1(1, 0), std_flag())
    with pytest.raises(ValueError, match="not nef or not big"):
        okounkov_of_class(toric.divisor(p2(), {(-1, -1): -1}), std_flag())


# -- partial bodies ----------------------------------------------------------------

def test_partial_minimal_recovers_class():
    hulls, limit = partial_okounkov(minimal_metric(o_p2(3)), std_flag(), k_max=6)
    want = hull([(0, 0), (3, 0), (0, 3)])
    assert all(h == want for h in hulls)
    assert limit.body == want
    assert limit.provenance == "partial_Gk"
    assert limit.shift == (0, 0)


def test_partial_weighted():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    hulls, limit = partial_okounkov(h, std_flag(), k_max=8)
    model = hull([(1, 0), (3, 0), (1, 2)])
    assert limit.body == model
    assert limit.shift == (1, 0)
    for k, hk in enumerate(hulls, start=1):
        # hulls grow inside the model polytope and hit it at k = 1 already here
        assert all(in_polytope(model, v) for v in hk.vertices)
    assert hulls[0] == model
    assert 2 * limit.volume() == bdiv.vol(bdiv.bdiv_of_metric(h).cartier)


def all_points_hulls(m, nu, k_max):
    """Oracle: hull of every lattice point of kP through the flag map, over k."""
    model = m.body
    m0 = okounkov._trivialization(m.line, nu)
    out = []
    for k in range(1, k_max + 1):
        pts = lattice_points(scale(model, k))
        if not pts:
            out.append(None)
            continue
        vecs = [nu.coords([x - k * y for x, y in zip(p, m0)]) for p in pts]
        out.append(scale(polytopes.canonicalize(vecs), Fraction(1, k)))
    return out


def assert_same_hulls(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.vertices == w.vertices
            assert g.halfspaces == w.halfspaces


def test_partial_hulls_match_all_points_oracle():
    rng = random.Random(61)
    flags = [std_flag(), flag([(0, 1), (-1, -1)])]
    for fan in (p2, p1xp1):
        for nu in flags:
            for _ in range(3):
                h = rand_weighted(rng, fan())
                hulls, _ = partial_okounkov(h, nu, k_max=10)
                assert_same_hulls(hulls, all_points_hulls(h, nu, 10))


_ORDERS = {
    2: [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 1), (1, 1))],
    3: [((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
        ((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((2, 1, 0), (1, 1, 0), (1, 0, 1))],
}


@st.composite
def section_cases(draw, k_max_by_dim=(6, 3)):
    """(line, flag, k_max): a nef and big divisor with rational coefficients on
    P2, P1xP1 or (P1)^3, a metric whose slopes are rational convex combinations
    of its polytope's vertices, a flag at a drawn cone in a drawn order, and
    k_max up to k_max_by_dim[0] in 2-d and k_max_by_dim[1] in 3-d."""
    fan = draw(st.sampled_from([p2, p1xp1, p1cubed]))()
    coeff = st.builds(Fraction, st.integers(min_value=-2, max_value=3), st.sampled_from([1, 2, 3]))
    degree = st.builds(Fraction, st.integers(min_value=1, max_value=4), st.sampled_from([1, 2, 3]))
    # P2 needs a positive degree, the products a positive degree on each factor
    groups = [fan.rays] if len(fan.rays) == 3 else [
        [r for r in fan.rays if r[i]] for i in range(fan.dim)]
    coeffs = {}
    for rays in groups:
        coeffs.update((r, draw(coeff)) for r in rays[1:])
        coeffs[rays[0]] = draw(degree) - sum(coeffs[r] for r in rays[1:])
    d = toric.divisor(fan, coeffs)
    verts = toric.polytope_of_divisor(d).vertices
    weights = st.lists(st.integers(min_value=0, max_value=3), min_size=len(verts),
                       max_size=len(verts)).filter(any)
    slopes = [tuple(sum(lam * v[i] for lam, v in zip(lams, verts)) / sum(lams)
                    for i in range(fan.dim))
              for lams in draw(st.lists(weights, min_size=fan.dim + 1, max_size=5))]
    assume(polytopes.affine_rank(slopes) == fan.dim)
    h = toric.metric(d, [(m, 0) for m in slopes])
    cone = draw(st.sampled_from(sorted(fan.halfspaces)))
    rays = draw(st.permutations([fan.rays[i] for i in cone]))
    nu = flag(rays, draw(st.sampled_from(_ORDERS[fan.dim])))
    return h, nu, draw(st.integers(min_value=1, max_value=k_max_by_dim[fan.dim - 2]))


@given(section_cases())
@settings(max_examples=150, deadline=None)
def test_partial_hulls_match_fraction_oracle(case):
    h, nu, k_max = case
    want = so.partial_hulls(h, nu, k_max)
    if all(w is None for w in want):
        with pytest.raises(ValueError, match="empty section space"):
            partial_okounkov(h, nu, k_max)
    else:
        assert_same_hulls(partial_okounkov(h, nu, k_max)[0], want)


# Delta_k from the vertices of the 2-d slices against the flag hull of all run
# ends: flat hulls at small k, empty ones, and k up to 40 in 2-d, 8 in 3-d
@given(section_cases((40, 8)))
@settings(max_examples=60, deadline=None)
def test_partial_hulls_match_run_ends_oracle(case):
    h, nu, k_max = case
    want = so.partial_hulls_by_run_ends(h, nu, k_max)
    if all(w is None for w in want):
        with pytest.raises(ValueError, match="empty section space"):
            partial_okounkov(h, nu, k_max)
    else:
        assert_same_hulls(partial_okounkov(h, nu, k_max)[0], want)


def test_flat_3d_hulls_match_run_ends_oracle():
    # O(1, 1, 1) on (P1)^3 cut to slopes whose hull holds three lattice points
    # at k = 1, a flat triangle, and the point (0, 0, 1) from k = 2 on
    d = toric.divisor(p1cubed(), {r: (1 if min(r) < 0 else 0) for r in p1cubed().rays})
    slopes = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]
    h = toric.metric(d, [(m, 0) for m in slopes])
    for nu in (flag([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), flag([(0, 0, 1), (1, 0, 0), (0, 1, 0)], _ORDERS[3][3])):
        hulls = partial_okounkov(h, nu, k_max=5)[0]
        assert polytopes.affine_rank(hulls[0].vertices) == 2
        assert polytopes.affine_rank(hulls[1].vertices) == 3
        assert_same_hulls(hulls, so.partial_hulls_by_run_ends(h, nu, 5))


def test_slice_vertices_keep_single_points():
    ends = [(0, 0, 0), (0, 0, 3), (1, 2, 2), (2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 1, 0), (2, 1, 2)]
    # the slice x_1 = 1 is one point, and (2, 0, 1) lies inside its slice's edge
    assert okounkov._slice_vertices(ends) == [(0, 0, 0), (0, 0, 3), (1, 2, 2),
                                              (2, 0, 0), (2, 1, 0), (2, 1, 2), (2, 0, 2)]
    assert okounkov._slice_vertices([(1,), (4,)]) == [(1,), (4,)]
    assert okounkov._slice_vertices([]) == []


def _logged(log, value):
    log.append(value)
    return value


def test_p1cubed_hull_gets_only_slice_vertices(monkeypatch):
    # at k = 20 the golden (P1)^3 scenario has 1,302 run ends, of which 124
    # are vertices of their slice x_1 = const
    okounkov._partial_okounkov.cache_clear()
    ends, sizes = [], []
    run_ends, hull_of_ints = polytopes.lattice_run_ends, polytopes.hull_of_ints
    monkeypatch.setattr(polytopes, "lattice_run_ends",
                        lambda *args: (_logged(ends, e) for e in run_ends(*args)))
    monkeypatch.setattr(polytopes, "hull_of_ints", lambda pts, *args: _logged(sizes, pts) and hull_of_ints(pts, *args))
    code, _ = cli.run(["partial-okounkov", "--scenario", str(GOLDEN / "p1cubed.json"), "--kmax", "20"])
    assert code == 0
    # the limit body maps the model's rows and runs no hull: the hull at k = 20 is the last
    assert len(ends) == 20
    assert (len(ends[19]), len(sizes[-1])) == (1302, 124)


small = st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3]))


@st.composite
def unimodular(draw, n):
    """An integer n x n matrix of determinant +-1: row operations on a signed permutation."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    rows = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(min_value=-2, max_value=2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


@st.composite
def flag_image_cases(draw):
    """A 2-d or 3-d body of affine rank r <= n (r = 0: one point), a rational m0,
    and a flag with a unimodular base cone and order matrix."""
    n = draw(st.sampled_from((2, 3)))
    r = draw(st.integers(min_value=0, max_value=n))
    base = draw(st.tuples(*[small] * n))
    dirs = draw(st.lists(st.tuples(*[small] * n), min_size=r, max_size=r))
    steps = st.lists(st.integers(min_value=-2, max_value=2), min_size=r, max_size=r)
    pts = [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
           for cs in draw(st.lists(steps, min_size=1, max_size=8))]
    m0 = draw(st.tuples(*[small] * n))
    return polytopes.canonicalize(pts), flag(draw(unimodular(n)), draw(unimodular(n))), m0


@given(flag_image_cases())
@settings(max_examples=300, deadline=None)
def test_flag_hull_matches_fraction_image(case):
    p, nu, m0 = case
    assert repr(okounkov._flag_hull(p.vertices, nu, m0)) == repr(so.flag_image(p, nu, m0))


@given(flag_image_cases())
@settings(max_examples=300, deadline=None)
def test_flag_image_matches_flag_hull(case):
    # a full-dimensional body maps its rows; a flat one is hulled, so that its
    # equations, too, come out as the hull's
    p, nu, m0 = case
    assert repr(okounkov._flag_image(p, nu, m0)) == repr(okounkov._flag_hull(p.vertices, nu, m0))


def test_flag_keeps_its_inverse_transpose():
    nu = flag([(0, 1), (-1, -1)])
    assert nu._inverse_transpose == ((-1, 1), (-1, 0))
    assert nu._inverse_transpose is nu._inverse_transpose
    # M^-T times the transpose of M is the identity
    m = nu.matrix
    assert [[sum(a * x for a, x in zip(row, m[j])) for j in range(2)]
            for row in nu._inverse_transpose] == [[1, 0], [0, 1]]


def test_bundle_hulls_match_all_points_oracle():
    bundle = split_bundle([minimal_metric(o_p2(1)), toric.metric_with_ray_weights(o_p2(2), {(1, 0): 1})])
    nu = flag([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    _, (o1,) = fiber_product_projectivization([bundle])
    hulls, limit = partial_okounkov(o1, nu, k_max=6)
    assert limit.body.dim == 3
    assert_same_hulls(hulls, all_points_hulls(o1, nu, 6))


def test_partial_k_validation():
    # an identical second call raises again: no error is cached
    for _ in range(2):
        with pytest.raises(ValueError, match="k must be positive"):
            partial_okounkov(minimal_metric(o_p2(1)), std_flag(), k_max=0)


def _counted(log, real):
    return lambda *args: log.append(args) or real(*args)


def test_partial_empty_sections(monkeypatch):
    t0 = (Fraction(3, 7), Fraction(3, 7))
    pieces = [(t0, 0),
              ((t0[0] + Fraction(1, 9), t0[1]), 0),
              ((t0[0], t0[1] + Fraction(1, 9)), 0)]
    h = toric.metric(o_p2(1), pieces)
    calls = []
    monkeypatch.setattr(polytopes, "lattice_run_ends", _counted(calls, polytopes.lattice_run_ends))
    for n in (1, 2):
        with pytest.raises(ValueError, match="empty section space at all k <= k_max"):
            partial_okounkov(h, std_flag(), k_max=3)
        assert len(calls) == n


def test_partial_budget_raises_on_every_call(monkeypatch):
    calls = []
    monkeypatch.setattr(polytopes, "lattice_run_ends", _counted(calls, polytopes.lattice_run_ends))
    h = minimal_metric(o_p2(10**5))
    for n in (1, 2):
        with pytest.raises(ValueError, match="lattice enumeration budget exceeded"):
            partial_okounkov(h, std_flag(), k_max=2)
        assert len(calls) == n


def _weighted_p2():
    return toric.metric_with_ray_weights(o_p2(3), {(1, 0): Fraction(1, 2)})


def test_partial_sections_built_once_per_distinct_input(monkeypatch):
    okounkov._partial_okounkov.cache_clear()
    real = polytopes.lattice_run_ends
    calls = []

    def once(*args):
        if calls:
            pytest.fail("sections enumerated twice")
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polytopes, "lattice_run_ends", once)
    # equal metrics and flags built separately are one key
    h1, h2 = _weighted_p2(), _weighted_p2()
    assert h1 is not h2
    hulls, limit = partial_okounkov(h1, std_flag(), k_max=6)
    assert partial_okounkov(h2, std_flag(), k_max=6) == (hulls, limit)
    assert len(calls) == 1


def test_partial_returns_a_fresh_list():
    hulls, limit = partial_okounkov(_weighted_p2(), std_flag(), k_max=4)
    want = list(hulls)
    hulls.clear()
    again, limit_again = partial_okounkov(_weighted_p2(), std_flag(), k_max=4)
    assert again == want and limit_again == limit


def test_partial_finds_the_trivializing_vertex_once_per_miss(monkeypatch):
    okounkov._partial_okounkov.cache_clear()
    calls = []
    monkeypatch.setattr(okounkov, "_trivialization", _counted(calls, okounkov._trivialization))
    h = _weighted_p2()
    for k_max, n in ((5, 1), (5, 1), (6, 2)):
        _, limit = partial_okounkov(h, std_flag(), k_max)
        assert len(calls) == n
    assert limit == okounkov.limit_body(h, std_flag())


# -- b-divisor bodies ----------------------------------------------------------------

def b_of(d):
    return bdiv.cartier(d.fan, [toric.psi_value(d, r) for r in d.fan.rays])


def test_bdiv_body_cartier():
    out = okounkov_of_bdiv(b_of(o_p2(3)), std_flag())
    assert out.body == hull([(0, 0), (3, 0), (0, 3)])
    assert out.provenance == "bdiv_limit"
    assert 2 * out.volume() == bdiv.vol(b_of(o_p2(3)))


def test_bdiv_body_weil_limit():
    approx = [b_of(o_p2(2 + Fraction(1, 2**k))) for k in range(6)]
    w = bdiv.weil(approx, b_of(o_p2(2)))
    out = okounkov_of_bdiv(w, std_flag())
    assert out.body == hull([(0, 0), (2, 0), (0, 2)])


def test_bdiv_body_without_limit_stops_by_tol():
    approx = [b_of(o_p2(2 + Fraction(1, 4**k))) for k in range(8)]
    w = bdiv.weil(approx)
    out = okounkov_of_bdiv(w, std_flag(), tol=Fraction(1, 100))
    lim = hull([(0, 0), (2, 0), (0, 2)])
    assert all(in_polytope(out.body, v) for v in lim.vertices)
    assert polytopes.hausdorff_linf(lim, out.body).value < Fraction(1, 100)


def test_bdiv_body_of_a_lone_approximant():
    b = b_of(o_p2(3))
    out = okounkov_of_bdiv(bdiv.weil([b]), std_flag(), tol=Fraction(0))
    assert out == okounkov_of_bdiv(b, std_flag())


def test_bdiv_body_tolerance_error():
    w = bdiv.weil([b_of(o_p2(3)), b_of(o_p2(2))])
    with pytest.raises(ValueError, match="tolerance not reached"):
        okounkov_of_bdiv(w, std_flag(), tol=Fraction(1, 10**9))


def test_bdiv_body_contains_origin():
    rng = random.Random(43)
    for _ in range(6):
        h = rand_weighted(rng, p2())
        out = okounkov_of_bdiv(bdiv.bdiv_of_metric(h).cartier, std_flag())
        assert contains_origin(out.body)


# -- translation identity ---------------------------------------------------------------

def test_okouniden_minimal():
    rep = verify_okouniden(minimal_metric(o_p2(2)), std_flag())
    assert rep.verdict == "equal"
    assert rep.shift == (0, 0)
    assert rep.lhs.body == rep.rhs.body


def test_okouniden_weighted():
    rep = verify_okouniden(toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1}), std_flag())
    assert rep.verdict == "equal"
    assert rep.shift == (1, 0)
    assert rep.lhs.body == hull([(0, 0), (2, 0), (0, 2)])
    assert rep.rhs.body == hull([(1, 0), (3, 0), (1, 2)])


def test_okouniden_two_ray_weights():
    h = toric.metric_with_ray_weights(o_p2(4), {(1, 0): 1, (0, 1): 2})
    rep = verify_okouniden(h, std_flag())
    assert rep.verdict == "equal"
    assert rep.shift == (1, 2)


def test_okouniden_bent_pieces():
    pieces = [((1, 0), 0), ((0, 2), 0), ((2, 2), 0), ((3, 0), 0)]
    h = toric.metric(o_p2(5), pieces)
    rep = verify_okouniden(h, std_flag())
    assert rep.verdict == "equal"
    assert polytopes.translate(rep.lhs.body, rep.shift) == rep.rhs.body


def test_okouniden_random():
    rng = random.Random(47)
    for fan in (p2(), p1xp1()):
        for _ in range(5):
            rep = verify_okouniden(rand_weighted(rng, fan), std_flag())
            assert rep.verdict == "equal"


def test_okouniden_builds_the_bdiv_once(monkeypatch):
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    calls = []
    real = bdiv.bdiv_of_metric
    monkeypatch.setattr(bdiv, "bdiv_of_metric", lambda h: calls.append(h) or real(h))
    rep = verify_okouniden(h, std_flag())
    assert rep.verdict == "equal"
    assert len(calls) == 1
    assert rep.shift == nu_of_metric(h, std_flag())


def test_nu_of_metric_slope_convergence():
    # decreasing metrics: per-ray singularities converge to the limit metric's
    ray = (-1, -1)
    limit = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    fan = bdiv.bdiv_of_metric(limit).cartier.fan
    nu_lim = lelong_numbers(limit, fan)[ray]
    prev = None
    for k in (1, 2, 4, 8, 16):
        t = 1 - Fraction(1, k)
        hk = toric.metric(o_p2(2), [((0, 0), 0), ((t, t), 0)])
        nu_k = lelong_numbers(hk, fan)[ray]
        if prev is not None:
            assert nu_k <= prev
        prev = nu_k
        assert nu_k >= nu_lim
        assert nu_k - nu_lim == Fraction(2, k)


@st.composite
def weighted_metric_flags(draw):
    """A random weighted metric on P2, P1xP1 or (P1)^3 and a flag at any cone of
    its fan (all are smooth), rays in a drawn order, order matrix drawn."""
    name = draw(st.sampled_from(["P2", "P1xP1", "P1^3"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    h = rand_weighted3(rng) if name == "P1^3" else rand_weighted(rng, p2() if name == "P2" else p1xp1())
    fan = h.line.fan
    cone = draw(st.sampled_from(sorted(fan.halfspaces)))
    rays = draw(st.permutations([fan.rays[i] for i in cone]))
    return h, flag(rays, draw(unimodular(fan.dim)))


@given(st.one_of(weighted_metric_flags(), section_cases().map(lambda case: case[:2])))
@settings(max_examples=250, deadline=None)
def test_nu_of_metric_matches_determination_fan_oracle(case):
    # the lex-least slope is the b-divisor's functional at the flag's cone
    h, nu = case
    assert nu_of_metric(h, nu) == so.nu_of_metric(h, nu)


def test_nu_of_metric_errors_match_oracle():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    upper = toric.metric(toric.divisor(half_plane(), [0, 0, 0]),
                                         [((0, 0), 0), ((0, 1), 0)])
    cases = [(h, flag([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), "dimension mismatch"),
             (upper, flag([(0, -1), (1, 0)]), "ray not in support")]
    for line, nu, message in cases:
        for route in (nu_of_metric, so.nu_of_metric):
            with pytest.raises(ValueError, match=message):
                route(line, nu)


# -- bundle bodies ------------------------------------------------------------------------

def test_okounkov_of_bundle_hirzebruch():
    bundle = split_bundle([minimal_metric(op1(0)), minimal_metric(op1(1))])
    _, (o1,) = fiber_product_projectivization([bundle])
    hulls, limit = partial_okounkov(o1, std_flag(), k_max=5)
    assert limit.body == hull([(0, 0), (0, 1), (1, 1)])
    assert limit.volume() == Fraction(1, 2)
    assert hulls[-1] == limit.body
