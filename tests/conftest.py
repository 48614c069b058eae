"""Shared builders for the test suite."""
from __future__ import annotations

from fractions import Fraction

from toricbdiv import dd, fans, ideals, toric
from toricbdiv.polytopes import Polytope, _build, canonicalize
from toricbdiv.rationals import Vec, dot, rat, vec


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


def minimal_line(d: toric.ToricDivisor, label: str = "") -> toric.HermitianToricLine:
    return toric.hermitian(toric.minimal_metric(d), label)


def weighted_line(d: toric.ToricDivisor, weights) -> toric.HermitianToricLine:
    return toric.hermitian(toric.metric_with_ray_weights(d, weights))


def rand_weighted(rng, fan: fans.Fan, max_deg: int = 4) -> toric.HermitianToricLine:
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
    return weighted_line(d, weights) if weights else minimal_line(d)


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
        return weighted_line(d, weights)
    return minimal_line(d)


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


def ideal_subset(a: ideals.MonomialIdeal, b: ideals.MonomialIdeal) -> bool:
    return all(b.contains_monomial(g) for g in a.gens)
