"""Exact linear algebra over the rationals (row reduction based)."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
