"""Segre/Chern universal polynomials, twists, projectivizations, evaluation."""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chern_oracle
import volume_oracle
from toricbdiv import bdiv, chern, fans, toric
from toricbdiv.chern import (BundleDecl, chern_from_segre, chern_number,
                             constant, eval_segre_monomial, one,
                             parse_chern_expr, split_bundle, symbol,
                             twist_segre, zero)
from chern_oracle import fiber_product_projectivization

from conftest import (minimal_metric, o_p1p1, o_p2, p1, p1cubed, p1xp1, p2)


def s(i, b="E"):
    return symbol("s", b, i)


def c(i, b="E"):
    return symbol("c", b, i)


def numeric(elem, table):
    """Evaluate a graded element with a {(kind, bundle, i): Fraction} table."""
    out = elem.substitute(lambda sym: constant(table[sym]))
    assert not out.terms or out.terms[0][0] == ()
    return out.coeff(())


def series_inverse(coeffs, deg):
    """Inverse power series of 1 + coeffs[1] t + ... truncated at deg."""
    inv = [Fraction(1)]
    for m in range(1, deg + 1):
        inv.append(-sum(coeffs[j] * inv[m - j]
                        for j in range(1, m + 1) if j < len(coeffs)))
    return inv


def elementary(roots, deg):
    """Coefficients of prod (1 + r t) up to degree deg."""
    out = [Fraction(1)] + [Fraction(0)] * deg
    for r in roots:
        for j in range(deg, 0, -1):
            out[j] += out[j - 1] * r
    return out


def line(coeff_map, fan=None):
    return minimal_metric(toric.divisor(fan or p2(), coeff_map))


def op1(d):
    return toric.divisor(p1(), {(-1,): d, (1,): 0})


# -- universal polynomials -----------------------------------------------------

def test_universal_frozen():
    assert chern_from_segre(0) == one()
    assert chern_from_segre(1) == zero() - s(1)
    assert chern_from_segre(2) == s(1) * s(1) - s(2)
    assert chern._universal(2, "E", "c") == c(1) * c(1) - c(2)
    assert chern_from_segre(-1) == zero()


def test_universal_matches_series_inversion():
    rng = random.Random(31)
    for _ in range(4):
        deg = 10
        svals = [Fraction(1)] + [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                 for _ in range(deg)]
        cvals = series_inverse(svals, deg)
        table = {("s", "E", i): svals[i] for i in range(1, deg + 1)}
        for m in range(deg + 1):
            assert numeric(chern_from_segre(m), table) == cvals[m]


def test_universal_round_trip():
    for m in range(1, 9):
        assert chern._universal(m, "E", "c").to_segre() == s(m)


# -- twists ----------------------------------------------------------------------

def test_twist_frozen():
    e1 = BundleDecl("E", 1)
    assert twist_segre(e1, "L", 0) == one()
    assert twist_segre(e1, "L", 1) == s(1) - c(1, "L")
    e2 = BundleDecl("E", 2)
    assert twist_segre(e2, "L", 1) == s(1) - c(1, "L").scale(2)
    assert twist_segre(e2, "L", -1) == zero()


def test_twist_by_trivial_line_is_identity():
    for rank in (1, 2, 3):
        for a in range(5):
            out = twist_segre(BundleDecl("E", rank), "L", a).substitute(
                lambda sym: constant(Fraction(0)) if sym == ("c", "L", 1) else None)
            assert out == (s(a) if a else one())


def test_twist_matches_split_roots():
    rng = random.Random(37)
    deg = 4
    for rank in (1, 2, 3, 4):
        for _ in range(4):
            roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(rank)]
            y = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            se = series_inverse(elementary(roots, deg), deg)
            st = series_inverse(elementary([r + y for r in roots], deg), deg)
            table = {("s", "E", i): se[i] for i in range(1, deg + 1)}
            table[("c", "L", 1)] = y
            for a in range(deg + 1):
                got = numeric(twist_segre(BundleDecl("E", rank), "L", a), table)
                assert got == st[a], (rank, a)


# -- projectivizations -----------------------------------------------------------

def test_projectivize_trivial_rank_two():
    b = split_bundle([minimal_metric(op1(0)), minimal_metric(op1(0))])
    fan, (o1,) = fiber_product_projectivization([b])
    assert fan == fans.product_fan(p1(), p1())
    want = {(-1, 0): 0, (0, -1): 1, (0, 1): 0, (1, 0): 0}
    assert dict(zip(o1.line.fan.rays, o1.line.coeffs)) == want


def test_projectivize_hirzebruch():
    b = split_bundle([minimal_metric(op1(0)), minimal_metric(op1(1))])
    fan, (o1,) = fiber_product_projectivization([b])
    assert fan.rays == ((-1, 1), (0, -1), (0, 1), (1, 0))
    assert o1.line.nef


def test_projectivize_rank_one_is_identity():
    h = minimal_metric(o_p2(2))
    fan, (o1,) = fiber_product_projectivization([split_bundle([h])])
    assert fan == p2()
    assert o1 == h


def test_split_bundle_errors():
    with pytest.raises(ValueError, match="bundle needs at least one summand"):
        split_bundle([])
    with pytest.raises(ValueError, match="dimension/fan mismatch"):
        split_bundle([minimal_metric(op1(1)), minimal_metric(o_p2(1))])
    # the base route never reads the differences, but keeps refusing them
    frac = minimal_metric(toric.divisor(p2(), {(-1, -1): Fraction(3, 2)}))
    with pytest.raises(ValueError, match="summand coefficients must be integral"):
        eval_segre_monomial([split_bundle([frac, minimal_metric(o_p2(0))])], [2])


# -- numeric evaluation -----------------------------------------------------------

def test_eval_frozen_surface():
    e = split_bundle([minimal_metric(o_p2(1)), minimal_metric(o_p2(1))])
    assert eval_segre_monomial([e], [2]) == 3
    o1 = split_bundle([minimal_metric(o_p2(1))])
    assert eval_segre_monomial([o1], [2]) == 1
    assert eval_segre_monomial([o1, e], [0, 2]) == 3


def test_eval_curve_s1():
    for a in range(3):
        for b in range(3):
            e = split_bundle([minimal_metric(op1(a)), minimal_metric(op1(b))])
            assert eval_segre_monomial([e], [1]) == -(a + b)


def test_eval_negative_and_errors():
    e = split_bundle([minimal_metric(o_p2(1))])
    assert eval_segre_monomial([e, e], [-1, 3]) == 0
    with pytest.raises(ValueError, match="exponent-sum mismatch"):
        eval_segre_monomial([e], [1])
    with pytest.raises(ValueError, match="exponent-sum mismatch"):
        eval_segre_monomial([e], [2, 0])
    with pytest.raises(ValueError, match="wrong count of bodies"):
        eval_segre_monomial([], [])
    f = split_bundle([minimal_metric(op1(1))])
    with pytest.raises(ValueError, match="dimension/fan mismatch"):
        eval_segre_monomial([e, f], [1, 1])


def test_eval_commutes():
    e = split_bundle([minimal_metric(o_p2(1)), minimal_metric(o_p2(2))])
    f = split_bundle([minimal_metric(o_p2(1))])
    assert eval_segre_monomial([e, f], [1, 1]) == eval_segre_monomial([f, e], [1, 1])
    g = split_bundle([minimal_metric(op1(1)), minimal_metric(op1(2))])
    h = split_bundle([minimal_metric(op1(0)), minimal_metric(op1(3))])
    assert eval_segre_monomial([g, h], [1, 0]) == eval_segre_monomial([h, g], [0, 1])


def test_eval_singular_summand_full_mass():
    h = toric.metric_with_ray_weights(o_p2(3), {(1, 0): 1})
    l = split_bundle([h])
    # (-1)^n s_n of a line is c_1^n, the non-pluripolar mass
    assert eval_segre_monomial([l], [2]) == 4
    assert toric.np_mass([h, h]) == 4


BASES = {"P2": p2(), "P1xP1": p1xp1(), "P1^3": p1cubed()}


@st.composite
def _summand(draw, base):
    """A nef line: degree 0 to 2 at each ray of negative sum, shifted by 1/2 at
    all of them when drawn so, with a weight along a positive ray of degree >= 1."""
    neg = [r for r in base.rays if sum(r) < 0]
    half = draw(st.sampled_from([0, 0, 0, Fraction(1, 2)]))
    degs = {r: draw(st.integers(0, 2)) for r in neg}
    d = toric.divisor(base, {r: degs[r] + half if r in degs else 0 for r in base.rays})
    # the positive unit ray e_i meets the negative rays with a -1 at i
    pos = [r for r in base.rays if sum(r) > 0
           and any(degs[q] >= 1 for q in neg if any(x * y < 0 for x, y in zip(q, r)))]
    if pos and draw(st.booleans()):
        w = draw(st.builds(Fraction, st.integers(1, 2), st.sampled_from([2, 3, 4])))
        return toric.metric_with_ray_weights(d, {draw(st.sampled_from(pos)): w})
    return minimal_metric(d)


def _compositions_of(n, parts):
    """Every tuple of `parts` integers >= 0 summing to n."""
    if parts == 1:
        yield (n,)
        return
    for a in range(n + 1):
        for rest in _compositions_of(n - a, parts - 1):
            yield (a,) + rest


@st.composite
def _split_bundles(draw):
    """One or two split bundles of rank 1 to 3 over P2, P1xP1 or (P1)^3."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    return [chern.split_bundle(draw(st.lists(_summand(base), min_size=1, max_size=3)))
            for _ in range(draw(st.integers(1, 2)))]


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(_split_bundles())
@settings(max_examples=40, deadline=None)
def test_segre_masses_match_the_bdiv_oracle(bs):
    # summands whose 1/2 shifts differ give fractional coefficient differences,
    # which every route refuses with the same message; the fiber product's
    # mass and its b-divisor number check the base route and each other
    n = bs[0].fan.dim
    for exps in [*_compositions_of(n, len(bs)), (-1,) + (n + 1,) * (len(bs) - 1)]:
        got = _value_or_error(eval_segre_monomial, bs, exps)
        assert got == _value_or_error(chern_oracle.mass_segre_monomial, bs, exps), exps
        assert got == _value_or_error(chern_oracle.eval_segre_monomial, bs, exps), exps


@given(_split_bundles())
@settings(max_examples=10, deadline=None)
def test_chern_number_refines_no_fan(bs):
    # with no determination cached, the b-divisor route would refine each O(1)
    # fan, and a fiber product would build its own fan first
    bdiv._determination.cache_clear()
    n = bs[0].fan.dim
    table = {f"E{i}": b for i, b in enumerate(bs)}
    expr = f"s{n}(E0) - c1(E0)^{n}"
    if len(bs) == 2:
        expr += f" + s{n}(E1) - 2*s1(E0)*s{n - 1}(E1) + c1(E1)^{n - 1}*c1(E0)"
    with mock.patch.object(fans, "refine_by_slopes", side_effect=AssertionError("fan refined")), \
            mock.patch.object(fans, "make_fan", side_effect=AssertionError("fan built")):
        _value_or_error(chern_number, table, expr)


def test_chern_number_of_a_power_matches_the_root_expansion():
    # c1(E0)^3 - c3(E1) on rank-3 bundles over (P1)^3: c_k is e_k of the
    # summands' classes, and a degree-3 root monomial is 3! V of their models
    base = p1cubed()

    def o(a, b, c):
        return toric.divisor(base, {(-1, 0, 0): a, (0, -1, 0): b, (0, 0, -1): c,
                                    (1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0})

    e0 = [minimal_metric(o(1, 0, 1)), toric.metric_with_ray_weights(o(2, 1, 1), {(1, 0, 0): Fraction(1, 2)}),
          minimal_metric(o(0, 2, 1))]
    e1 = [minimal_metric(o(1, 1, 1)), minimal_metric(o(1, 2, 0)),
          toric.metric_with_ray_weights(o(1, 1, 2), {(0, 0, 1): 1})]
    table = {"E0": split_bundle(e0), "E1": split_bundle(e1)}
    p, q = [[h.body for h in e] for e in (e0, e1)]
    cube = sum(volume_oracle.mixed_volume([p[i], p[j], p[k]])
               for i in range(3) for j in range(3) for k in range(3))
    want = 6 * (cube - volume_oracle.mixed_volume(q))
    assert chern_number(table, "c1(E0)^3 - c3(E1)") == want


def test_chern_number_frozen():
    table = {"E": split_bundle([minimal_metric(o_p2(1)), minimal_metric(o_p2(1))]),
             "L": split_bundle([minimal_metric(o_p2(2))])}
    assert chern_number(table, "c2(E)") == 1
    assert chern_number(table, "c1(E)^2") == 4
    assert chern_number(table, "c1(L)*c1(L)") == 4
    assert chern_number(table, "c2(L)") == 0
    assert chern_number(table, "c1(E)^2 - c2(E)") == 3
    assert chern_number(table, "3/2*c2(E) - s2(L)") == Fraction(-5, 2)
    with pytest.raises(ValueError, match="unknown bundle"):
        chern_number(table, "c2(F)")


# -- parser -------------------------------------------------------------------------

def test_parse_shapes():
    assert parse_chern_expr("c1(E)*c1(E) - 2*s2(E)") == \
        c(1) * c(1) - s(2).scale(2)
    assert parse_chern_expr("(c1(E) + s1(E))^2") == (c(1) + s(1)) ** 2
    assert parse_chern_expr("-s1(E)") == s(1).scale(-1)
    assert parse_chern_expr("3/2") == constant(Fraction(3, 2))


@pytest.mark.parametrize("text, pos", [("c1(E) +  x", 9), ("c1(E)^2 - 1/0", 10), ("  @", 2)])
def test_parse_error_points_at_the_token_not_the_space_before_it(text, pos):
    with pytest.raises(ValueError, match=f"parse error at position {pos}$"):
        parse_chern_expr(text)


@pytest.mark.parametrize("text", ["c1(E)^2 ", "c1(E)^2\n", " c1(E) ^ 2\t"])
def test_parse_ignores_surrounding_whitespace(text):
    assert parse_chern_expr(text) == parse_chern_expr("c1(E)^2")


def test_parse_errors():
    for bad in ("c1(E", "q1(E)", "c1(E) +", "c1(E)^(2)", "c1(E) $"):
        with pytest.raises(ValueError, match="parse error at position"):
            parse_chern_expr(bad)
