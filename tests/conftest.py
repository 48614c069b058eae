"""Shared builders for the test suite."""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable, Sequence

from toricbdiv import dd, fans, ideals, polytopes, toric
from toricbdiv.polytopes import Polytope, _build, canonicalize
from toricbdiv.rationals import IntVec, Vec, dot, primitive, rat, vec


def p2() -> fans.Fan:
    return fans.projective_space_fan(2)


def p1() -> fans.Fan:
    return fans.projective_space_fan(1)


def p1xp1() -> fans.Fan:
    return fans.product_fan(p1(), p1())


def p1cubed() -> fans.Fan:
    return fans.product_fan(p1xp1(), p1())


def half_plane() -> fans.Fan:
    """The upper half-plane as the first two quadrants: a fan that is not complete."""
    return fans.make_fan([(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])


def o_p2(d) -> toric.ToricDivisor:
    """O(d) on the projective plane: d times the divisor of the ray (-1,-1)."""
    return toric.divisor(p2(), {(1, 0): 0, (0, 1): 0, (-1, -1): d})


def o_p1p1(a, b) -> toric.ToricDivisor:
    return toric.divisor(p1xp1(), {(1, 0): 0, (0, 1): 0, (-1, 0): a, (0, -1): b})


def minimal_metric(d: toric.ToricDivisor) -> toric.ToricMetric:
    """g = support function of P_D (the concavification of psi_D); zero Lelong data."""
    p = toric.polytope_of_divisor(d)
    return toric.metric(d, [(v, 0) for v in p.vertices])


def pullback(d: toric.ToricDivisor, fine: fans.Fan) -> toric.ToricDivisor:
    """Incarnation of the divisor on a refinement: coefficients -psi_D at new rays."""
    return toric.divisor(fine, [-toric.psi_value(d, r) for r in fine.rays])


def lelong_numbers(m: toric.ToricMetric, fan: fans.Fan) -> dict[IntVec, Fraction]:
    """nu_rho = g(v_rho) - psi_D(v_rho) per ray of the (refined) fan."""
    out: dict[IntVec, Fraction] = {}
    for r in fan.rays:
        nu = m.g(r) - toric.psi_value(m.line, r)
        if nu < 0:
            raise ValueError("negative Lelong number")
        out[r] = nu
    return out


def singularity_divisor(h, fan: fans.Fan) -> toric.ToricDivisor:
    nus = lelong_numbers(h, fan)
    return toric.divisor(fan, [nus[r] for r in fan.rays])


def sort_rays_ccw(rays: Sequence[IntVec]) -> list[IntVec]:
    """Counterclockwise angular order of 2-d rays, starting at the positive x-axis."""
    def half(r: IntVec) -> int:
        if r[1] > 0 or (r[1] == 0 and r[0] > 0):
            return 0
        return 1

    def cmp(a: IntVec, b: IntVec) -> int:
        ha, hb = half(a), half(b)
        if ha != hb:
            return -1 if ha < hb else 1
        cr = a[0] * b[1] - a[1] * b[0]
        if cr > 0:
            return -1
        if cr < 0:
            return 1
        return 0

    return sorted(rays, key=functools.cmp_to_key(cmp))


def complete_fan_2d(rays: Iterable[Sequence]) -> fans.Fan:
    """Complete 2-d fan whose maximal cones are consecutive pairs of the given rays."""
    prim = sorted({primitive(vec(r)) for r in rays})
    if len(prim) < 3:
        raise ValueError("need at least three rays")
    ordered = sort_rays_ccw(list(prim))
    idx = {r: i for i, r in enumerate(prim)}
    cones = []
    for i, r in enumerate(ordered):
        s = ordered[(i + 1) % len(ordered)]
        if r[0] * s[1] - r[1] * s[0] <= 0:
            raise ValueError("rays do not span the plane positively")
        cones.append((idx[r], idx[s]))
    return fans.make_fan(prim, cones)


def in_polytope(p: Polytope, x: Sequence) -> bool:
    """The point satisfies every halfspace of the body."""
    v = vec(x)
    return all(dot(w, v) >= c for w, c in p.halfspaces)


def lattice_count(p: Polytope, k: int = 1) -> int:
    """Exact number of integer points of kP."""
    return polytopes.lattice_counts(p, range(k, k + 1))[0]


def lattice_points(p: Polytope, k: int = 1) -> list[IntVec]:
    """Integer points of kP in lex order."""
    import numpy as np

    prefixes, lo, hi = next(polytopes._lattice_runs(p, range(k, k + 1)))
    lengths = hi - lo + 1
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    last = np.repeat(lo, lengths) + np.arange(len(first)) - first
    rows = np.column_stack([np.repeat(prefixes, lengths, axis=0), last])
    return [tuple(row) for row in rows.tolist()]


def rand_weighted(rng, fan: fans.Fan, max_deg: int = 4) -> toric.ToricMetric:
    """Random nef+big line with small rational weights along one or two rays."""
    if fan.dim != 2:
        raise ValueError("2d helper")
    if len(fan.rays) == 3:
        deg = rng.randint(1, max_deg)
        d = toric.divisor(fan, {(1, 0): 0, (0, 1): 0, (-1, -1): deg})
    else:
        a, b = rng.randint(1, max_deg), rng.randint(1, max_deg)
        d = toric.divisor(fan, {(1, 0): 0, (0, 1): 0, (-1, 0): a, (0, -1): b})
    rays = list(fan.rays)
    weights = {}
    for ray in rng.sample(rays, rng.randint(0, 2)):
        # weight < half the polytope's extent along the ray keeps the model big
        margin = _extent(d, ray)
        if margin > 0:
            num = rng.randint(0, 2)
            den = rng.choice([2, 3, 4])
            w = min(Fraction(num, den), margin / 2 - Fraction(1, 8))
            if w > 0:
                weights[ray] = w
    return toric.metric_with_ray_weights(d, weights) if weights else minimal_metric(d)


def rand_weighted3(rng):
    """Random nef+big weighted line on the triple product of lines."""
    fan = p1cubed()
    a, b, c = (rng.randint(1, 3) for _ in range(3))
    d = toric.divisor(fan, {(-1, 0, 0): a, (0, -1, 0): b, (0, 0, -1): c,
                            (1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0})
    weights = {}
    if rng.random() < 0.7:
        axis = rng.randrange(3)
        ray = tuple(1 if i == axis else 0 for i in range(3))
        w = Fraction(rng.randint(1, 2), rng.choice([2, 3, 4]))
        if w < (a, b, c)[axis]:
            weights[ray] = w
    if weights:
        return toric.metric_with_ray_weights(d, weights)
    return minimal_metric(d)


def _extent(d: toric.ToricDivisor, ray) -> Fraction:
    p = toric.polytope_of_divisor(d)
    vals = [dot(vec(ray), v) for v in p.vertices]
    return max(vals) - min(vals)


def scale(p: Polytope, t) -> Polytope:
    t = rat(t)
    if t < 0:
        raise ValueError("negative scale")
    if t == 0:
        return canonicalize([tuple(Fraction(0) for _ in range(p.dim))])
    verts = [tuple(t * x for x in v) for v in p.vertices]
    hs = [(w, t * c) for w, c in p.halfspaces]
    return _build(p.dim, verts, hs)


def translate_into(p: Polytope, q: Polytope) -> Vec | None:
    """Lex-minimal v >= 0 with P + v inside Q, or None."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    n = p.dim
    # the feasible shifts form a polytope (Q is bounded); its lex-minimal point is a vertex
    rows = [(w, c - min(dot(w, v) for v in p.vertices)) for w, c in q.halfspaces]
    rows += [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    _, rays = dd.homogenized_rays(rows, n)
    verts = [tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n] > 0]
    return min(verts, default=None)


def ideal_product(a: ideals.MonomialIdeal, b: ideals.MonomialIdeal) -> ideals.MonomialIdeal:
    if a.nvars != b.nvars:
        raise ValueError("dimension mismatch")
    return ideals.make_ideal(a.nvars, [tuple(x + y for x, y in zip(g, h)) for g in a.gens for h in b.gens])


def in_ideal(ideal: ideals.MonomialIdeal, m: Sequence[int]) -> bool:
    """The monomial x^m lies in the ideal: some generator divides it."""
    return any(all(x >= g for x, g in zip(m, gen)) for gen in ideal.gens)


def ideal_subset(a: ideals.MonomialIdeal, b: ideals.MonomialIdeal) -> bool:
    return all(in_ideal(b, g) for g in a.gens)
