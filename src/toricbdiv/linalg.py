"""Exact linear algebra over the rationals, by fraction-free integer elimination.

Each row is scaled to integers by the lcm of its denominators, and one
Gauss-Jordan elimination in Bareiss's fraction-free form (Bareiss 1968) runs on
Python ints. A Fraction is built only for the entries a function returns.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from .rationals import int_row


def _eliminate(m: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place.

    Returns (pivot columns, d, sign). Every pivot entry ends equal to d, so m / d
    is the reduced row echelon form of the input; all divisions are exact, since
    each entry stays a minor of the input (Sylvester's identity). sign is the
    parity of the row swaps, so a square input of full rank has determinant
    sign * d.
    """
    pivots: list[int] = []
    nrows = len(m)
    prev, sign, r = 1, 1, 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(nrows):
            row = m[i]
            if i == r or not any(row):
                continue
            f = row[c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return pivots, prev, sign


def _int_matrix(rows: Sequence[Sequence]) -> list[list[int]]:
    return [int_row(row)[0] for row in rows]


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(_eliminate(_int_matrix(rows))[0])


def solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b, or None if inconsistent (free vars set to 0)."""
    if not rows:
        return ()
    m = _int_matrix([list(row) + [b] for row, b in zip(rows, rhs, strict=True)])
    pivots, d, _ = _eliminate(m)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = Fraction(m[i][-1], d)
    return tuple(x)


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of A, one vector per free column of its reduced echelon form."""
    if not rows:
        return [] if not ncols else [tuple(Fraction(i == j) for i in range(ncols)) for j in range(ncols)]
    m = _int_matrix(rows)
    pivots, d, _ = _eliminate(m)
    n = len(rows[0])
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = Fraction(-m[i][f], d)
        basis.append(tuple(v))
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant: the last fraction-free pivot over the product of the row scales."""
    scaled = [int_row(row) for row in rows]
    n = len(scaled)
    if any(len(row) != n for row, _ in scaled):
        raise ValueError("determinant needs a square matrix")
    pivots, d, sign = _eliminate([row for row, _ in scaled])
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, prod(den for _, den in scaled))


def inverse_directions(rows: Sequence[Sequence[int]]) -> list[list[int]] | None:
    """Columns of the inverse of a square integer matrix, each scaled by the same
    positive integer; None when the matrix is singular."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, d, _ = _eliminate(m)
    if pivots != list(range(n)):
        return None
    s = 1 if d > 0 else -1
    return [[s * m[i][n + j] for i in range(n)] for j in range(n)]
