"""Rational polyhedral fans: membership, completeness, stellar and common refinement."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import dd
from .linalg import rank
from .rationals import IntVec, Vec, dot, idot, index, int_row, primitive, vec

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


def make_fan(rays: Iterable[Sequence], cones: Iterable[Iterable[int]]) -> Fan:
    """Normalize rays to primitive vectors, dedupe, sort, and remap cone indices; each
    index names a ray and each ray generates a cone, so a divisor's a_rho is -psi(v_rho).
    Each cone must be pointed (strongly convex: Cox, Little & Schenck, Def. 3.1.2)."""
    prim = [primitive(vec(r)) for r in rays]
    if not prim:
        raise ValueError("empty fan")
    n = len(prim[0])
    if any(len(r) != n for r in prim):
        raise ValueError("dimension mismatch")
    # an index is an int, never a bool: true would pick ray 1
    cones = [[index(i) for i in c] for c in cones]
    # a negative index would silently pick a ray from the end of the list
    if any(not 0 <= i < len(prim) for c in cones for i in c):
        raise ValueError("cone index out of range")
    uniq = sorted(set(prim))
    remap = {r: i for i, r in enumerate(uniq)}
    new_cones = sorted({tuple(sorted({remap[prim[i]] for i in c})) for c in cones})
    return _checked_fan(n, tuple(uniq), tuple(new_cones))


@functools.lru_cache(maxsize=None)
def _checked_fan(n: int, rays: tuple[IntVec, ...], cones: tuple[Cone, ...]) -> Fan:
    """The fan of normalized rays and cones, checked and built once per process; an
    invalid one raises on every call, as errors are not cached."""
    if len({i for c in cones for i in c}) < len(rays):
        raise ValueError("ray in no cone")
    fan = Fan(n, rays, cones)
    # a cone contains no line exactly when its dual spans, that is, its rows have full rank
    if any(rank(rows) < n for rows in fan.halfspaces.values()):
        raise ValueError("cone not pointed")
    # set before the cache shares the fan, so it keeps the halfspaces is_complete computes
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
    return make_fan(all_rays, [tuple(idx[r] for r in c) for c in new_cones])


def _fan_of_cones(cones_rays: Sequence[Sequence[IntVec]], dim: int, complete: bool) -> Fan:
    """Fan whose maximal cones are spanned by the given ray lists.

    The cones refine fans that are complete when `complete` is, and cover the
    same support, so is_complete is not rerun.
    """
    all_rays = sorted({r for rays in cones_rays for r in rays})
    idx = {r: i for i, r in enumerate(all_rays)}
    cones = sorted({tuple(sorted(idx[r] for r in rays)) for rays in cones_rays})
    return Fan(dim, tuple(all_rays), tuple(cones), complete)


def common_refinement(f1: Fan, f2: Fan) -> Fan:
    """Fan whose cones are the full-dimensional intersections of cones from both fans."""
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    cells = []
    for a in f1.halfspaces.values():
        for b in f2.halfspaces.values():
            _, rays = dd.extreme_rays(a + b, f1.dim)
            if rank(rays) == f1.dim:
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


def _linear_on_cones(fan: Fan, ms: Sequence[IntVec]) -> bool:
    """Every maximal cone is simplicial and one slope m attains g = min_k <slope_k, .>
    at each of its rays, tested on the slopes scaled by one lcm.

    g is concave and positively homogeneous, so superadditive: for x = sum l_rho v_rho
    in the cone, g(x) >= sum l_rho g(v_rho) = <m, x> >= g(x). So g = <m, .> on the
    cone, and the lifted DD would give the cone back as its one spanning cell.
    """
    n = fan.dim
    if any(len(c) != n for c in fan.cones):
        return False
    least = []
    for r in fan.rays:
        vals = [idot(m, r) for m in ms]
        low = min(vals)
        least.append({j for j, v in enumerate(vals) if v == low})
    return all(set.intersection(*(least[i] for i in c)) and rank(fan.cone_rays(c)) == n
               for c in fan.cones)


def refine_by_slopes(fan: Fan, slopes: Sequence[Vec]) -> Fan:
    """Refine so each cone lies in one region of linearity of g = min_k <slope_k, v>.

    This is the subdivision of each maximal cone sigma induced by lifting it by g
    (De Loera, Rambau & Santos, Triangulations, ch. 2): one DD of the lifted cone
    {(x, t) : x in sigma, t <= <m, x> for every slope m}. The cell of sigma where
    g = <m, .> is its face t = <m, x>, so the cell's rays are the lifted rays
    tight at the row (m, -1), dropped to x; a cell is kept when it spans.

    When g is already linear on every maximal cone, the fan is its own
    refinement and is returned as it is, with its cached halfspaces.
    """
    n = fan.dim
    if not slopes:
        raise ValueError("no slopes")
    if any(len(m) != n for m in slopes):
        raise ValueError("dimension mismatch")
    # the slopes scaled by one lcm q: equal slopes give equal integer rows, in
    # the order they first come, and (q m, -q) lifts m as (m, -1) does
    ints, q = int_row([x for m in slopes for x in m])
    ms = list(dict.fromkeys(tuple(ints[i:i + n]) for i in range(0, len(ints), n)))
    if len(ms) == 1 or _linear_on_cones(fan, ms):
        return fan
    lifted = [primitive(m + (-q,)) for m in ms]
    cells = []
    for rows in fan.halfspaces.values():
        _, rays = dd.extreme_rays([a + (0,) for a in rows] + lifted, n + 1)
        for s in lifted:
            cell = [primitive(r[:n]) for r in rays if idot(s, r) == 0]
            if len(cell) >= n and rank(cell) == n:
                cells.append(cell)
    return _fan_of_cones(cells, n, fan.complete)


def projective_space_fan(n: int) -> Fan:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)]
    return make_fan(rays, cones)


def product_fan(f1: Fan, f2: Fan) -> Fan:
    n1, n2 = f1.dim, f2.dim
    rays = [r + tuple(0 for _ in range(n2)) for r in f1.rays]
    rays += [tuple(0 for _ in range(n1)) + r for r in f2.rays]
    cones = []
    for c1 in f1.cones:
        for c2 in f2.cones:
            cones.append(tuple(c1) + tuple(len(f1.rays) + i for i in c2))
    return make_fan(rays, cones)
