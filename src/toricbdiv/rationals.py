"""Exact rational scalars and vectors used throughout the library."""
from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational; never a bool
    or a float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def index(x) -> int:
    """x if it is an int (operator.index), never a bool, a float such as 1.5 or a string."""
    if isinstance(x, bool):
        raise TypeError("an integer is expected, not bool")
    return operator.index(x)


def fmt(x: Fraction) -> str:
    """Render as 'p/q', omitting '/q' when the denominator is 1."""
    return str(x)


def vec(xs: Iterable) -> Vec:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of integer vectors of the same length, as an int."""
    return sum(map(mul, u, v))


def int_row(v: Sequence) -> tuple[list[int], int]:
    """(v * den, den) with den the lcm of the denominators of the entries of v."""
    den = 1
    for x in v:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (den // x.denominator) for x in v], den


def primitive(v: Sequence) -> IntVec:
    """Scale a nonzero rational vector to a primitive integer vector, keeping direction."""
    ints = int_row(v)[0]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)
