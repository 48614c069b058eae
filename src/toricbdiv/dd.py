"""Double description method: extreme rays of {x : A x >= 0} over the rationals.

Standard incremental algorithm with the combinatorial adjacency test, valid in
the pointed case; lineality is split off first. Rays are returned as primitive
integer vectors, deterministically ordered.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import _eliminate, inverse_directions, nullspace
from .rationals import IntVec, Vec, idot, int_row, primitive, rat, vec


def _int_rows(rows: Sequence[Sequence]) -> list[IntVec]:
    """Nonzero rows as primitive integer vectors, deduplicated in first-seen order."""
    uniq: dict[IntVec, None] = {}
    for row in rows:
        ints = int_row(row)[0]
        if any(ints):
            uniq[primitive(ints)] = None
    return list(uniq)


def _independent_rows(rows: Sequence[IntVec]) -> list[int]:
    """Indices of the first rows, in order, that extend the span of those before
    them: the pivot columns of the transpose."""
    return _eliminate([list(col) for col in zip(*rows)])[0]


def extreme_rays(rows: Sequence[Sequence], dim: int) -> tuple[list[tuple[Fraction, ...]], list[IntVec]]:
    """Return (lineality basis, extreme rays) of {x in R^dim : row.x >= 0 for all rows}."""
    A = _int_rows(rows)
    if not A:
        basis = [tuple(Fraction(i == j) for i in range(dim)) for j in range(dim)]
        return basis, []
    # initial simplicial subcone from dim independent constraints; only a
    # rank-deficient A has lineality, whose basis then joins the constraints
    chosen = _independent_rows(A)
    lin = nullspace(A, dim) if len(chosen) < dim else []
    constraints: list[IntVec] = list(A)
    for l in lin:
        lv = primitive(l)
        constraints.append(lv)
        constraints.append(tuple(-x for x in lv))
    if lin:
        chosen = _independent_rows(constraints)
    if len(chosen) < dim:
        raise AssertionError("pointed phase expected full-rank constraint set")

    # rays of {B x >= 0} are the columns of B^{-1}
    inv_cols = inverse_directions([constraints[i] for i in chosen])
    if inv_cols is None:
        raise AssertionError("initial constraint block must be invertible")
    rays: list[IntVec] = [primitive(col) for col in inv_cols]
    chosen_set = set(chosen)
    zsets: list[int] = []
    for r in rays:
        z = 0
        for idx in chosen:
            if idot(constraints[idx], r) == 0:
                z |= 1 << idx
        zsets.append(z)

    for t, row in enumerate(constraints):
        if t in chosen_set:
            continue
        vals = [idot(row, r) for r in rays]
        if all(v >= 0 for v in vals):
            for k, v in enumerate(vals):
                if v == 0:
                    zsets[k] |= 1 << t
            continue
        keep_idx = [k for k, v in enumerate(vals) if v > 0]
        zero_idx = [k for k, v in enumerate(vals) if v == 0]
        neg_idx = [k for k, v in enumerate(vals) if v < 0]
        # a new ray records its tight rows among the starting rows and rows 0..t
        seen_rows = chosen + [idx for idx in range(t + 1) if idx not in chosen_set]
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
                nr = primitive([vp * b - vq * a for a, b in zip(rays[p], rays[q], strict=True)])
                z = 0
                for idx in seen_rows:
                    if idot(constraints[idx], nr) == 0:
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
