"""Double description method: extreme rays of {x : A x >= 0} over the rationals.

Standard incremental algorithm with the combinatorial adjacency test, valid in
the pointed case; lineality is split off first. Each ray keeps its set of tight
rows as a bit set, which a new ray takes from its two parents (Fukuda & Prodon
1996). Rays are returned as primitive integer vectors, deterministically
ordered.
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


def extreme_rays(rows: Sequence[Sequence], dim: int) -> tuple[list[tuple[Fraction, ...]], list[IntVec]]:
    """Return (lineality basis, extreme rays) of {x in R^dim : row.x >= 0 for all rows}."""
    A = _int_rows(rows)
    if not A:
        basis = [tuple(Fraction(i == j) for i in range(dim)) for j in range(dim)]
        return basis, []
    # initial simplicial subcone: the first rows of A that extend the span (the
    # pivot columns of its transpose), then the +l of each lineality basis
    # vector, which extends the span as it is orthogonal to every row of A
    chosen = _eliminate([list(col) for col in zip(*A)])[0]
    lin = nullspace(A, dim) if len(chosen) < dim else []
    constraints: list[IntVec] = list(A)
    for l in lin:
        lv = primitive(l)
        chosen.append(len(constraints))
        constraints += [lv, tuple(-x for x in lv)]

    # rays of {B x >= 0} are the columns of B^{-1}: column j is tight on every
    # chosen row but the j-th. zsets[k] is the bit set of the rows seen so far
    # that rays[k] is tight on.
    rays = [primitive(col) for col in inverse_directions([constraints[i] for i in chosen])]
    full = sum(1 << i for i in chosen)
    zsets = [full & ~(1 << i) for i in chosen]

    chosen_set = set(chosen)
    for t, row in enumerate(constraints):
        if t in chosen_set:
            continue
        bit = 1 << t
        vals = [idot(row, r) for r in rays]
        neg_idx = [k for k, v in enumerate(vals) if v < 0]
        new_rays: list[IntVec] = []
        new_z: list[int] = []
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q in neg_idx:
                # the cone is pointed, so p and q are adjacent exactly when no
                # other ray is tight on every row both are tight on
                common = zsets[p] & zsets[q]
                if any(common & z == common and k != p and k != q for k, z in enumerate(zsets)):
                    continue
                vq = vals[q]
                new_rays.append(primitive([vp * b - vq * a for a, b in zip(rays[p], rays[q], strict=True)]))
                # a positive combination of p and q is tight where both are
                new_z.append(common | bit)
        rays = [r for r, v in zip(rays, vals) if v >= 0] + new_rays
        zsets = [z | bit if v == 0 else z for z, v in zip(zsets, vals) if v >= 0] + new_z

    return lin, sorted(rays)


def homogenized_rays(rows: Iterable[tuple[Sequence, object]], dim: int) -> tuple[list[Vec], list[IntVec]]:
    """(lineality basis, extreme rays) of the cone {(x, t) : <w, x> >= c t, t >= 0}.

    The polyhedron {x : <w, x> >= c for all rows (w, c)} is its slice t = 1: the
    polyhedron is empty exactly when no extreme ray has a positive last
    coordinate, and its vertices are those rays scaled to t = 1.
    """
    hrows = [vec(w) + (-rat(c),) for w, c in rows]
    hrows.append((Fraction(0),) * dim + (Fraction(1),))
    return extreme_rays(hrows, dim + 1)
