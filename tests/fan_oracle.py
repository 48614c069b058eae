"""Fan routes the library ran before, kept as test oracles.

- `refine_by_slopes` runs one double description per (cone, region) cell,
  where the library runs one lifted DD per cone; both must give equal fans,
  completeness flag included.
- `add` sums two Cartier b-divisors on their common refinement, also when
  they share a fan, where the library adds coefficients on that fan.
- `leq` compares two Cartier b-divisors by psi at the rays of their common
  refinement, also when they share a fan, where the library reads the
  coefficients on that fan.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from toricbdiv import bdiv, dd, fans
from toricbdiv.bdiv import CartierB
from toricbdiv.fans import Fan
from toricbdiv.linalg import rank
from toricbdiv.rationals import IntVec, Vec, primitive, vsub


def _fan_from_cells(cells: Iterable[Sequence[IntVec]], dim: int, complete: bool) -> Fan:
    """Fan of the full-dimensional pointed cells {x : <a, x> >= 0 for all rows a of the cell}.

    The cells meet the cones of the fans being refined with each other or with
    regions that cover space, so they cover the same support: the result is
    complete when those fans are (`complete`), and is_complete is not rerun.
    """
    cones_rays: list[list[IntVec]] = []
    for rows in cells:
        lin, rays = dd.extreme_rays(rows, dim)
        if not lin and rank(rays) == dim:
            cones_rays.append(rays)
    all_rays = sorted({r for rays in cones_rays for r in rays})
    idx = {r: i for i, r in enumerate(all_rays)}
    cones = sorted({tuple(sorted(idx[r] for r in rays)) for rays in cones_rays})
    return Fan(dim, tuple(all_rays), tuple(cones), complete)


def refine_by_slopes(fan: Fan, slopes: Sequence[Vec]) -> Fan:
    """Refine so each cone lies in one region of linearity of min_k <slope_k, v>."""
    pts = list(dict.fromkeys(slopes))
    if len(pts) == 1:
        return fan
    # the regions {v : <other - m, v> >= 0 for every other slope} cover space
    regions = [tuple(primitive(vsub(other, m)) for other in pts if other != m) for m in pts]
    return _fan_from_cells((h + region for region in regions for h in fan.halfspaces.values()),
                           fan.dim, fan.complete)


def add(b1: CartierB, b2: CartierB) -> CartierB:
    """Sum psi_1 + psi_2, determined on the common refinement."""
    if b1.fan.dim != b2.fan.dim:
        raise ValueError("dimension mismatch")
    common = fans.common_refinement(b1.fan, b2.fan)
    return bdiv.cartier(common, [b1.psi(r) + b2.psi(r) for r in common.rays])


def leq(b1: CartierB, b2: CartierB) -> bool:
    """b1 <= b2: psi_1 - psi_2 + <m, .> >= 0 for some linear functional m."""
    if b1.fan.dim != b2.fan.dim:
        raise ValueError("dimension mismatch")
    common = fans.common_refinement(b1.fan, b2.fan)
    rows = [(r, b2.psi(r) - b1.psi(r)) for r in common.rays]
    _, rays = dd.homogenized_rays(rows, common.dim)
    return any(r[-1] > 0 for r in rays)
