"""Exact rational scalars and vectors used throughout the library."""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


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
