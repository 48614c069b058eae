"""Acceptance gate: nine end-to-end checks at stated tolerances and budgets.

Each test prints one line; run with -v (or -rA) for the per-criterion record.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from toricbdiv import bdiv, chern, fans, ideals, okounkov, polytopes, toric
from toricbdiv.chern import split_bundle
from toricbdiv.ideals import TestIdealQuery, make_ideal, multiplier_ideal_monomial
from toricbdiv.okounkov import flag, partial_okounkov, verify_okouniden

import chern_oracle
import volume_oracle
from conftest import (ideal_subset, minimal_metric, o_p2, p1, p1xp1, p2, rand_weighted,
                      rand_weighted3)

TestIdealQuery.__test__ = False  # imported dataclass, not a test case


def b_of_metric(h):
    return bdiv.bdiv_of_metric(h).cartier


def perim_l1(p: polytopes.Polytope) -> Fraction:
    vs = list(p.vertices)
    out = Fraction(0)
    for i in range(len(vs)):
        x, y = vs[i], vs[(i + 1) % len(vs)]
        out += abs(x[0] - y[0]) + abs(x[1] - y[1])
    return out


def _report(tag, ok, extra=""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {extra}".rstrip())
    assert ok, f"[{tag}] {extra}"


# 1. volumes by mixed volume vs section counting, 25 random metrics, < 10 s

def test_01_chern_weil_volume_vs_counting():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for fan_builder in (p2, p1xp1):
        for _ in range(13 if fan_builder is p2 else 12):
            h = rand_weighted(rng, fan_builder())
            mass = bdiv.vol(b_of_metric(h))
            exact, seq = ideals.volume_of_pair(h, k_max=60)
            assert mass == 2 * exact
            # Ehrhart boundary bound at k = 60 with the instance constant
            c_inst = 2 * (perim_l1(h.body) / 2 + 1)
            assert abs(2 * seq[59] - mass) <= c_inst / 60
            checked += 1
    elapsed = time.monotonic() - t0
    _report("criterion-1", checked == 25 and elapsed < 10.0,
            f"25 metrics, {elapsed:.2f}s of 10s")


# 2. mixed masses through two pipelines, 10 pairs/triples, < 5 s

def test_02_mixed_mass_two_pipelines():
    t0 = time.monotonic()
    rng = random.Random(202)
    scenarios = []
    for _ in range(4):
        scenarios.append([rand_weighted(rng, p2()), rand_weighted(rng, p2())])
    for _ in range(3):
        scenarios.append([rand_weighted(rng, p1xp1()), rand_weighted(rng, p1xp1())])
    for _ in range(3):
        scenarios.append([rand_weighted3(rng) for _ in range(3)])
    for hs in scenarios:
        n = hs[0].line.fan.dim
        assert len(hs) == n
        mass = toric.np_mass(hs)
        # both sides below run the library's facet formula; the inclusion-exclusion
        # oracle on the model polytopes is the independent second route
        models = [h.body for h in hs]
        assert mass == math.factorial(n) * volume_oracle.mixed_volume(models), mass
        bs = [b_of_metric(h) for h in hs]
        polar = Fraction(0)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                acc = bs[subset[0]]
                for i in subset[1:]:
                    acc = bdiv.add(acc, bs[i])
                polar += Fraction(-1) ** (n - size) * bdiv.vol(acc)
        # each diagonal volume already carries one n!, the polarization the other
        assert polar == math.factorial(n) * mass, (mass, polar)
    elapsed = time.monotonic() - t0
    _report("criterion-2", len(scenarios) == 10 and elapsed < 5.0,
            f"10 scenarios, {elapsed:.2f}s of 5s")


# 3. translation identity on 20 scenarios plus C/k hull convergence, < 30 s

def test_03_okouniden_and_hull_rate():
    t0 = time.monotonic()
    rng = random.Random(303)
    flags = [flag([(1, 0), (0, 1)]), flag([(0, 1), (-1, -1)])]
    for i in range(20):
        if i % 2:
            h = rand_weighted(rng, p2())
            nu = flags[(i // 2) % 2]
        else:
            h = rand_weighted(rng, p1xp1())
            nu = flags[0]
        rep = verify_okouniden(h, nu)
        assert rep.verdict == "equal"
    nu = flags[0]
    for _ in range(6):
        h = rand_weighted(rng, p2(), max_deg=2)
        hulls, limit = partial_okounkov(h, nu, k_max=40)
        dists = [None if p is None else
                 polytopes.hausdorff_linf(p, limit.body).value for p in hulls]
        assert all(d is not None for d in dists)
        c_burn = max(Fraction(k) * d for k, d in enumerate(dists[:10], start=1))
        for k, d in enumerate(dists, start=1):
            assert d * k <= max(c_burn, 0), (k, d)
    elapsed = time.monotonic() - t0
    _report("criterion-3", elapsed < 30.0, f"20 + 6 scenarios, {elapsed:.2f}s of 30s")


# 4. body volume equals b-divisor volume, 0-membership, Weil intervals, < 30 s

def test_04_okounkov_volume_identity():
    t0 = time.monotonic()
    rng = random.Random(404)
    nu = flag([(1, 0), (0, 1)])
    for fan_builder in (p2, p1xp1):
        for _ in range(4):
            b = b_of_metric(rand_weighted(rng, fan_builder()))
            body = okounkov.okounkov_of_bdiv(b, nu)
            assert 2 * body.volume() == bdiv.vol(b)
            assert all(c <= 0 for _, c in body.body.halfspaces)

    def seq_of(base_deg):
        approx, limit = [], minimal_metric(o_p2(base_deg))
        for k in range(14):
            d = base_deg + Fraction(1, 4**k)
            pieces = [((0, 0), 0), ((d, 0), 0), ((0, d), 0)]
            approx.append(b_of_metric(
                toric.metric(toric.divisor(
                    p2(), {(1, 0): 0, (0, 1): 0, (-1, -1): d}), pieces)))
        return bdiv.weil(approx, b_of_metric(limit))

    tol = Fraction(1, 10**6)
    for base in (1, 2, 3, 4, 5):
        w = seq_of(base)
        iv = bdiv.vol(w, tol)
        assert iv.certified
        assert iv.lo == base * base
        assert iv.width() <= tol
        body = okounkov.okounkov_of_bdiv(w, nu)
        assert 2 * body.volume() == iv.lo
        assert all(c <= 0 for _, c in body.body.halfspaces)
    elapsed = time.monotonic() - t0
    _report("criterion-4", elapsed < 30.0, f"8 Cartier + 5 Weil, {elapsed:.2f}s of 30s")


# 5. series inversion to degree 10, twist oracle, classical numbers, < 20 s

def test_05_segre_chern_calculus():
    t0 = time.monotonic()
    for m in range(1, 11):
        total = chern.zero()
        for j in range(m + 1):
            sj = chern.one() if j == 0 else chern.symbol("s", "E", j)
            total = total + sj * chern.chern_from_segre(m - j)
        assert total == chern.zero(), m

    def series_inverse(coeffs, deg):
        inv = [Fraction(1)]
        for m in range(1, deg + 1):
            inv.append(-sum(coeffs[j] * inv[m - j]
                            for j in range(1, m + 1) if j < len(coeffs)))
        return inv

    def elementary(roots, deg):
        out = [Fraction(1)] + [Fraction(0)] * deg
        for r in roots:
            for j in range(deg, 0, -1):
                out[j] += out[j - 1] * r
        return out

    rng = random.Random(505)
    for rank in (1, 2, 3, 4):
        for _ in range(3):
            roots = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rank)]
            y = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            se = series_inverse(elementary(roots, 4), 4)
            st = series_inverse(elementary([r + y for r in roots], 4), 4)
            table = {("s", "E", i): se[i] for i in range(1, 5)}
            table[("c", "L", 1)] = y
            for a in range(5):
                got = chern.twist_segre(chern.BundleDecl("E", rank), "L", a) \
                    .substitute(lambda sym: chern.constant(table[sym]))
                assert got.coeff(()) == st[a]

    e11 = split_bundle([minimal_metric(o_p2(1))] * 2)
    assert chern.eval_segre_monomial([e11], [2]) == 3

    def op1(d):
        return toric.divisor(p1(), {(-1,): d, (1,): 0})

    for a in range(6):
        for b in range(6):
            e = split_bundle([minimal_metric(op1(a)), minimal_metric(op1(b))])
            assert chern.eval_segre_monomial([e], [1]) == -(a + b)

    rng = random.Random(506)
    for _ in range(5):
        e = split_bundle([minimal_metric(o_p2(rng.randint(0, 2))) for _ in range(2)])
        f = split_bundle([minimal_metric(o_p2(rng.randint(0, 2))) for _ in range(2)])
        for exps in ((1, 1), (2, 0), (0, 2)):
            fwd = chern.eval_segre_monomial([e, f], list(exps))
            rev = chern.eval_segre_monomial([f, e], list(exps[::-1]))
            assert fwd == rev
    elapsed = time.monotonic() - t0
    _report("criterion-5", elapsed < 20.0, f"deg 10 + oracles, {elapsed:.2f}s of 20s")


# 6. projectivized intersection vs line-bundle Segre pipeline, < 20 s

def test_06_segre_via_projectivization():
    t0 = time.monotonic()

    def downstairs(bundles, exps):
        """(-1)^sum * sum over the complete homogeneous expansion in roots."""
        n = bundles[0].fan.dim
        sign = Fraction(-1) ** sum(exps)
        total = Fraction(0)
        parts_per_bundle = []
        for bundle, a in zip(bundles, exps):
            bs = [b_of_metric(s) for s in bundle.summands]
            parts_per_bundle.append([(i, a - i, bs) for i in range(a + 1)])
        for combo in itertools.product(*parts_per_bundle):
            factors = []
            for i, j, bs in combo:
                factors.extend([bs[0]] * i + [bs[1]] * j)
            assert len(factors) == n
            total += bdiv.intersect_cartier(factors)
        return sign * total

    def op1(d):
        return toric.divisor(p1(), {(-1,): d, (1,): 0})

    cases = []
    for a_w in (Fraction(1, 2), 1):
        sing = toric.metric_with_ray_weights(op1(2), {(1,): a_w})
        cases.append(([split_bundle([minimal_metric(op1(1)), sing])], [1]))
    sing2 = toric.metric_with_ray_weights(o_p2(2), {(1, 0): 1})
    e = split_bundle([minimal_metric(o_p2(1)), sing2])
    f = split_bundle([minimal_metric(o_p2(1)), minimal_metric(o_p2(2))])
    cases.append(([e], [2]))
    cases.append(([e, f], [1, 1]))
    cases.append(([f, e], [0, 2]))
    for bundles, exps in cases:
        base = chern.eval_segre_monomial(bundles, exps)
        up = chern_oracle.mass_segre_monomial(bundles, exps)
        down = downstairs(bundles, exps)
        assert base == up == down, (exps, base, up, down)
    elapsed = time.monotonic() - t0
    _report("criterion-6", elapsed < 20.0, f"{len(cases)} cases, {elapsed:.2f}s of 20s")


# 7. test ideals: stabilization by e <= 8, monotone brackets, Howald match, < 60 s

def test_07_test_ideal_grid():
    t0 = time.monotonic()
    grid_ideals = [
        make_ideal(2, [[1, 0], [0, 1]]),
        make_ideal(2, [[2, 0], [0, 3]]),
        make_ideal(2, [[1, 1]]),
        make_ideal(2, [[3, 6]]),
        make_ideal(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        make_ideal(3, [[2, 0, 0], [0, 3, 0], [0, 0, 6]]),
        make_ideal(3, [[1, 1, 1]]),
    ]
    lams = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]
    ps = [2, 3, 5]
    for ideal in grid_ideals:
        for lam in lams:
            mult = multiplier_ideal_monomial(ideal, lam)
            for p in ps:
                tau = ideals.test_ideal(TestIdealQuery(ideal, lam, p, e_max=8))
                assert tau == mult, (ideal.gens, lam, p)
    for ideal in (grid_ideals[0], grid_ideals[2], grid_ideals[6]):
        for lam, p in ((Fraction(1, 2), 2), (Fraction(7, 3), 5)):
            prev = None
            for e in range(1, 5):
                q = p**e
                cur = ideals._power_bracket(ideal, math.ceil(lam * q), q)
                if prev is not None:
                    assert ideal_subset(prev, cur)
                prev = cur
    elapsed = time.monotonic() - t0
    _report("criterion-7", elapsed < 60.0, f"105-point grid, {elapsed:.2f}s of 60s")


# 8. decreasing sequences and refinement profiles, < 30 s

def test_08_decreasing_structure():
    t0 = time.monotonic()

    def shrink_seq(coeffs_of, steps=14):
        approx = []
        for k in range(steps):
            t = Fraction(1, 4**k)
            d = toric.divisor(*coeffs_of(t))
            approx.append(bdiv.cartier(d.fan, [toric.psi_value(d, r)
                                               for r in d.fan.rays]))
        d_lim = toric.divisor(*coeffs_of(Fraction(0)))
        lim = bdiv.cartier(d_lim.fan, [toric.psi_value(d_lim, r)
                                       for r in d_lim.fan.rays])
        return approx, lim

    sequences = [
        lambda t: (p2(), {(1, 0): 0, (0, 1): 0, (-1, -1): 2 + t}),
        lambda t: (p2(), {(1, 0): 0, (0, 1): 0, (-1, -1): 3 + t}),
        lambda t: (p1xp1(), {(1, 0): 0, (0, 1): 0, (-1, 0): 1 + t, (0, -1): 2 + t}),
        lambda t: (p1xp1(), {(1, 0): 0, (0, 1): 0, (-1, 0): 2 + t, (0, -1): 2 + t}),
        lambda t: (p2(), {(1, 0): t, (0, 1): 0, (-1, -1): 1 + t}),
    ]
    tol = Fraction(1, 10**6)
    for coeffs_of in sequences:
        approx, lim = shrink_seq(coeffs_of)
        vals = [bdiv.intersect_cartier([a, a]) for a in approx]
        limit_val = bdiv.intersect_cartier([lim, lim])
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert all(v >= limit_val for v in vals)
        assert vals[-1] - limit_val <= tol

    h = toric.metric(o_p2(2), [((0, 0), 0), ((1, 1), 0)])
    base = p2()
    f1 = fans.stellar_refine(base, (1, -1))
    f2 = fans.stellar_refine(f1, (-1, 1))
    f3 = fans.stellar_refine(f2, (2, -1))
    prof = toric.volume_profile(h, [base, f1, f2, f3])
    assert prof == [4, 2, 0, 0]
    assert all(x >= y for x, y in zip(prof, prof[1:]))
    assert prof[-1] == bdiv.vol(b_of_metric(h))
    elapsed = time.monotonic() - t0
    _report("criterion-8", elapsed < 30.0, f"5 sequences + profile, {elapsed:.2f}s of 30s")


# 9. tensor products: Minkowski models and mass equality, 10 pairs, < 5 s

def test_09_tensor_igoodness():
    t0 = time.monotonic()
    rng = random.Random(909)
    for i in range(10):
        fan = p2() if i % 2 else p1xp1()
        h1, h2 = rand_weighted(rng, fan), rand_weighted(rng, fan)
        h12 = toric.tensor(h1, h2)
        p1m = h1.body
        p2m = h2.body
        assert h12.body == polytopes.minkowski_sum(p1m, p2m)
        for h in (h1, h2, h12):
            rep = bdiv.chern_weil_line([h, h])
            assert rep.verdict == "equal"
    elapsed = time.monotonic() - t0
    _report("criterion-9", elapsed < 5.0, f"10 pairs, {elapsed:.2f}s of 5s")
