"""Double description method: extreme rays of {x : A x >= 0} over the rationals.

Standard incremental algorithm with the combinatorial adjacency test, valid in
the pointed case; lineality is split off first. Rays are returned as primitive
integer vectors, deterministically ordered.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .linalg import nullspace, rank, rref
from .rationals import IntVec, Vec, primitive, rat, vec


def _int_rows(rows: Sequence[Sequence]) -> list[IntVec]:
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        if all(x == 0 for x in fr):
            continue
        out.append(primitive(fr))
    # dedupe, keep first-seen order
    seen: set[IntVec] = set()
    uniq = []
    for r in out:
        if r not in seen:
            seen.add(r)
            uniq.append(r)
    return uniq


def _idot(u: Sequence[int], v: Sequence[Fraction | int]):
    return sum(a * b for a, b in zip(u, v, strict=True))


def extreme_rays(rows: Sequence[Sequence], dim: int) -> tuple[list[tuple[Fraction, ...]], list[IntVec]]:
    """Return (lineality basis, extreme rays) of {x in R^dim : row.x >= 0 for all rows}."""
    A = _int_rows(rows)
    if not A:
        basis = [tuple(Fraction(i == j) for i in range(dim)) for j in range(dim)]
        return basis, []
    lin = nullspace(A, dim)
    constraints: list[IntVec] = list(A)
    for l in lin:
        lv = primitive(l)
        constraints.append(lv)
        constraints.append(tuple(-x for x in lv))

    # initial simplicial subcone from dim independent constraints
    chosen: list[int] = []
    rows_so_far: list[IntVec] = []
    for i, row in enumerate(constraints):
        if rank(rows_so_far + [row]) > len(chosen):
            chosen.append(i)
            rows_so_far.append(row)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise AssertionError("pointed phase expected full-rank constraint set")

    # rays of {B x >= 0} are the columns of B^{-1}
    aug = [list(map(Fraction, rows_so_far[i])) + [Fraction(i == j) for j in range(dim)] for i in range(dim)]
    red, piv = rref(aug)
    if piv != list(range(dim)):
        raise AssertionError("initial constraint block must be invertible")
    inv_cols = [[red[i][dim + j] for i in range(dim)] for j in range(dim)]
    rays: list[IntVec] = [primitive(col) for col in inv_cols]
    chosen_set = set(chosen)
    zsets: list[int] = []
    for r in rays:
        z = 0
        for idx in chosen:
            if _idot(constraints[idx], r) == 0:
                z |= 1 << idx
        zsets.append(z)

    for t, row in enumerate(constraints):
        if t in chosen_set:
            continue
        vals = [_idot(row, r) for r in rays]
        if all(v >= 0 for v in vals):
            for k, v in enumerate(vals):
                if v == 0:
                    zsets[k] |= 1 << t
            continue
        keep_idx = [k for k, v in enumerate(vals) if v > 0]
        zero_idx = [k for k, v in enumerate(vals) if v == 0]
        neg_idx = [k for k, v in enumerate(vals) if v < 0]
        new_rays: list[IntVec] = []
        new_z: list[int] = []
        for p in keep_idx:
            for q in neg_idx:
                common = zsets[p] & zsets[q]
                adjacent = True
                for k in range(len(rays)):
                    if k != p and k != q and (common & zsets[k]) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vp, vq = vals[p], vals[q]
                combo = tuple(vp * b - vq * a for a, b in zip(rays[p], rays[q], strict=True))
                nr = primitive(combo)
                z = 0
                for idx in chosen:
                    if _idot(constraints[idx], nr) == 0:
                        z |= 1 << idx
                for idx in range(len(constraints)):
                    if idx <= t and idx not in chosen_set and _idot(constraints[idx], nr) == 0:
                        z |= 1 << idx
                new_rays.append(nr)
                new_z.append(z)
        rays = [rays[k] for k in keep_idx] + [rays[k] for k in zero_idx] + new_rays
        zsets = [zsets[k] for k in keep_idx] + [zsets[k] | (1 << t) for k in zero_idx] + new_z
        # dedupe (combinatorially new pairs can rebuild an existing ray)
        seen: dict[IntVec, int] = {}
        ded_rays: list[IntVec] = []
        ded_z: list[int] = []
        for r, z in zip(rays, zsets):
            if r in seen:
                ded_z[seen[r]] |= z
            else:
                seen[r] = len(ded_rays)
                ded_rays.append(r)
                ded_z.append(z)
        rays, zsets = ded_rays, ded_z

    rays = sorted(rays)
    return lin, rays


def homogenized_rays(rows: Iterable[tuple[Sequence, object]], dim: int) -> tuple[list[Vec], list[IntVec]]:
    """(lineality basis, extreme rays) of the cone {(x, t) : <w, x> >= c t, t >= 0}.

    The polyhedron {x : <w, x> >= c for all rows (w, c)} is its slice t = 1: the
    polyhedron is empty exactly when no extreme ray has a positive last
    coordinate, and its vertices are those rays scaled to t = 1.
    """
    hrows = [vec(w) + (-rat(c),) for w, c in rows]
    hrows.append((Fraction(0),) * dim + (Fraction(1),))
    return extreme_rays(hrows, dim + 1)
