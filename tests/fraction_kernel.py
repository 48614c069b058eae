"""The Fraction kernel the library ran before its integer elimination: test oracle only.

Gauss-Jordan elimination over Fraction (`rref`, `rank`, `solve`, `nullspace`,
`det`), the Fraction-scaling `primitive`, and the double description
`extreme_rays` built on them. The differential tests in `test_kernel.py`
require the library's integer kernel to return exactly what these return.
Not collected by pytest (no `test_` prefix).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]


def primitive(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    fracs = [Fraction(x) for x in v]
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


Matrix = list[list[Fraction]]


def _to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = _to_matrix(rows)
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b, or None if inconsistent (free vars set to 0)."""
    if not rows:
        return ()
    aug = [list(row) + [b] for row, b in zip(rows, rhs, strict=True)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][-1]
    return tuple(x)


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of A."""
    if not rows:
        return [] if not ncols else [tuple(Fraction(i == j) for i in range(ncols)) for j in range(ncols)]
    red, pivots = rref(rows)
    n = len(rows[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    m = _to_matrix(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


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
