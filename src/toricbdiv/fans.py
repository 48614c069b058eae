"""Rational polyhedral fans: membership, completeness, stellar and common refinement."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import dd
from .linalg import rank
from .rationals import IntVec, Vec, dot, idot, primitive, vec

Cone = tuple[int, ...]


@dataclass(frozen=True)
class Fan:
    """Fan given by primitive ray generators and maximal cones (ray index tuples)."""
    dim: int
    rays: tuple[IntVec, ...]
    cones: tuple[Cone, ...]
    complete: bool = False

    def ray_index(self, v: Sequence) -> int | None:
        p = primitive(vec(v))
        try:
            return self.rays.index(p)
        except ValueError:
            return None

    def cone_rays(self, cone: Cone) -> list[IntVec]:
        return [self.rays[i] for i in cone]

    @functools.cached_property
    def halfspaces(self) -> dict[Cone, tuple[IntVec, ...]]:
        """Integer rows a of each maximal cone = {x : <a, x> >= 0 for all rows}."""
        out = {}
        for cone in self.cones:
            lin, extr = dd.extreme_rays(self.cone_rays(cone), self.dim)
            rows = list(extr)
            for l in lin:
                lv = primitive(l)
                rows.append(lv)
                rows.append(tuple(-x for x in lv))
            out[cone] = tuple(rows)
        return out


def make_fan(rays: Iterable[Sequence], cones: Iterable[Iterable[int]], dim: int | None = None) -> Fan:
    """Normalize rays to primitive vectors, dedupe, sort, and remap cone indices; each
    index names a ray and each ray generates a cone, so a divisor's a_rho is -psi(v_rho)."""
    prim = [primitive(vec(r)) for r in rays]
    if not prim:
        raise ValueError("empty fan")
    n = dim if dim is not None else len(prim[0])
    if any(len(r) != n for r in prim):
        raise ValueError("dimension mismatch")
    cones = [list(c) for c in cones]
    # a negative index would silently pick a ray from the end of the list
    if any(not 0 <= i < len(prim) for c in cones for i in c):
        raise ValueError("cone index out of range")
    uniq = sorted(set(prim))
    remap = {r: i for i, r in enumerate(uniq)}
    new_cones = sorted({tuple(sorted({remap[prim[i]] for i in c})) for c in cones})
    if len({i for c in new_cones for i in c}) < len(uniq):
        raise ValueError("ray in no cone")
    fan = Fan(n, tuple(uniq), tuple(new_cones))
    # set before the fan is shared, so it keeps the halfspaces is_complete computes
    object.__setattr__(fan, "complete", is_complete(fan))
    return fan


def cone_contains(fan: Fan, cone: Cone, v: Sequence) -> bool:
    """Exact membership of v in the maximal cone spanned by the listed rays."""
    x = vec(v)
    return all(dot(a, x) >= 0 for a in fan.halfspaces[cone])


def find_cone(fan: Fan, v: Sequence) -> Cone | None:
    for c in fan.cones:
        if cone_contains(fan, c, v):
            return c
    return None


def is_complete(fan: Fan) -> bool:
    """Walls of full-dimensional cones must each be shared by exactly two cones."""
    if not fan.cones:
        return False
    counts: dict[frozenset[int], int] = {}
    for cone in fan.cones:
        if rank(fan.cone_rays(cone)) < fan.dim:
            return False
        for a in fan.halfspaces[cone]:
            # a full-dimensional cone has no lineality rows: each row is a facet normal
            key = frozenset(i for i in cone if idot(a, fan.rays[i]) == 0)
            counts[key] = counts.get(key, 0) + 1
    return all(c == 2 for c in counts.values())


def stellar_refine(fan: Fan, w: Sequence) -> Fan:
    """Star subdivision at a ray; identity if the ray already belongs to the fan."""
    wp = primitive(vec(w))
    if wp in fan.rays:
        return fan
    hit = [c for c in fan.cones if cone_contains(fan, c, wp)]
    if not hit:
        raise ValueError("ray not in support")
    new_cones: list[tuple[IntVec, ...]] = []
    for cone in fan.cones:
        if cone not in hit:
            new_cones.append(tuple(fan.rays[i] for i in cone))
            continue
        # wp lies in the cone, so the lineality rows, orthogonal to its span, are skipped
        for a in fan.halfspaces[cone]:
            if idot(a, wp) == 0:
                continue
            facet = tuple(fan.rays[i] for i in cone if idot(a, fan.rays[i]) == 0)
            new_cones.append(facet + (wp,))
    all_rays = list(fan.rays) + [wp]
    idx = {r: i for i, r in enumerate(all_rays)}
    return make_fan(all_rays, [tuple(idx[r] for r in c) for c in new_cones], fan.dim)


def _fan_of_cones(cones_rays: Sequence[Sequence[IntVec]], dim: int, complete: bool) -> Fan:
    """Fan whose maximal cones are spanned by the given ray lists.

    The cones refine fans that are complete when `complete` is, and cover the
    same support, so is_complete is not rerun. All cones of a fan share one
    lineality space, so either every cell of a refinement has lineality and no
    cone is left (an empty, incomplete fan), or none has.
    """
    all_rays = sorted({r for rays in cones_rays for r in rays})
    idx = {r: i for i, r in enumerate(all_rays)}
    cones = sorted({tuple(sorted(idx[r] for r in rays)) for rays in cones_rays})
    return Fan(dim, tuple(all_rays), tuple(cones), complete and bool(cones))


def common_refinement(f1: Fan, f2: Fan) -> Fan:
    """Fan whose cones are the full-dimensional intersections of cones from both fans."""
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    cells = []
    for a in f1.halfspaces.values():
        for b in f2.halfspaces.values():
            lin, rays = dd.extreme_rays(a + b, f1.dim)
            if not lin and rank(rays) == f1.dim:
                cells.append(rays)
    return _fan_of_cones(cells, f1.dim, f1.complete and f2.complete)


def refines(fine: Fan, coarse: Fan) -> bool:
    """True when every maximal cone of `fine` lies inside some cone of `coarse`."""
    if fine.dim != coarse.dim:
        return False
    for cone in fine.cones:
        gens = fine.cone_rays(cone)
        if not any(all(cone_contains(coarse, c, g) for g in gens) for c in coarse.cones):
            return False
    return True


def refine_by_slopes(fan: Fan, slopes: Sequence[Vec]) -> Fan:
    """Refine so each cone lies in one region of linearity of g = min_k <slope_k, v>.

    This is the subdivision of each maximal cone sigma induced by lifting it by g
    (De Loera, Rambau & Santos, Triangulations, ch. 2): one DD of the lifted cone
    {(x, t) : x in sigma, t <= <m, x> for every slope m}. The cell of sigma where
    g = <m, .> is its face t = <m, x>, so the cell's rays are the lifted rays
    tight at the row (m, -1), dropped to x; a cell is kept when it spans.
    """
    pts = list(dict.fromkeys(slopes))
    if len(pts) == 1:
        return fan
    n = fan.dim
    lifted = [primitive(tuple(m) + (-1,)) for m in pts]
    cells = []
    for rows in fan.halfspaces.values():
        lin, rays = dd.extreme_rays([a + (0,) for a in rows] + lifted, n + 1)
        if lin:
            continue  # the line lies in every cell of this cone
        for s in lifted:
            cell = [primitive(r[:n]) for r in rays if idot(s, r) == 0]
            if len(cell) >= n and rank(cell) == n:
                cells.append(cell)
    return _fan_of_cones(cells, n, fan.complete)


def projective_space_fan(n: int) -> Fan:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return make_fan(rays, cones, n)


def product_fan(f1: Fan, f2: Fan) -> Fan:
    n1, n2 = f1.dim, f2.dim
    rays = [r + tuple(0 for _ in range(n2)) for r in f1.rays]
    rays += [tuple(0 for _ in range(n1)) + r for r in f2.rays]
    cones = []
    for c1 in f1.cones:
        for c2 in f2.cones:
            cones.append(tuple(c1) + tuple(len(f1.rays) + i for i in c2))
    return make_fan(rays, cones, n1 + n2)


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


def complete_fan_2d(rays: Iterable[Sequence]) -> Fan:
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
    return make_fan(prim, cones, 2)
