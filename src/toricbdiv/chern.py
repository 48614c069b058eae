"""Segre/Chern calculus: formal graded ring plus numeric evaluation on split bundles.

Symbols s_i(B) and c_i(B) with exact rational coefficients; s_0 = c_0 = 1 and
s_i = 0 for i < 0 are baked into normalization. Numeric Segre monomials are
the non-pluripolar masses of the O(1) lines on the fiber product of the
projectivizations, with sign (-1)^(sum of indices): by the Chern-Weil formula
these equal the b-divisor intersection numbers of the same lines, as the
b-divisor of g = min_j <m_j, .> has the hull of the slopes as its polytope.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from . import fans, toric
from .fans import Fan
from .rationals import Rat, rat
from .toric import HermitianToricLine

Sym = tuple[str, str, int]  # (kind "s"|"c", bundle name, index i >= 1)
Mono = tuple[Sym, ...]


@dataclass(frozen=True)
class BundleDecl:
    """Formal bundle of rank r+1 for symbolic identities."""
    name: str
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least one")


@dataclass(frozen=True)
class GradedElem:
    """Sparse polynomial in the symbols s_i(B), c_i(B)."""
    terms: tuple[tuple[Mono, Fraction], ...] = field(default=())

    def coeff(self, mono: Mono) -> Fraction:
        key = tuple(sorted(mono))
        for m, c in self.terms:
            if m == key:
                return c
        return Fraction(0)

    def __add__(self, other: "GradedElem") -> "GradedElem":
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return graded(acc)

    def __sub__(self, other: "GradedElem") -> "GradedElem":
        return self + other.scale(-1)

    def __mul__(self, other: "GradedElem") -> "GradedElem":
        acc: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                key = tuple(sorted(m1 + m2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return graded(acc)

    def __pow__(self, k: int) -> "GradedElem":
        if k < 0:
            raise ValueError("negative power")
        out = one()
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "GradedElem":
        c = rat(c)
        return graded({m: c * x for m, x in self.terms})

    def substitute(self, fn) -> "GradedElem":
        """Replace each symbol by fn(sym) (a GradedElem), None keeping it."""
        out = zero()
        for mono, c in self.terms:
            term = constant(c)
            for sym in mono:
                rep = fn(sym)
                term = term * (rep if rep is not None else graded({(sym,): Fraction(1)}))
            out = out + term
        return out

    def to_segre(self) -> "GradedElem":
        """Rewrite every c_i(B) through the universal polynomial."""
        return self.substitute(
            lambda s: chern_from_segre(s[2], s[1]) if s[0] == "c" else None)


def graded(acc: Mapping[Mono, Fraction] | dict) -> GradedElem:
    clean: dict[Mono, Fraction] = {}
    for mono, c in acc.items():
        c = rat(c)
        if c == 0:
            continue
        kept = []
        dead = False
        for kind, b, i in mono:
            if i < 0:
                dead = True
                break
            if i > 0:
                kept.append((kind, b, i))
        if dead:
            continue
        key = tuple(sorted(kept))
        clean[key] = clean.get(key, Fraction(0)) + c
    return GradedElem(tuple(sorted((m, c) for m, c in clean.items() if c != 0)))


def zero() -> GradedElem:
    return GradedElem(())


def one() -> GradedElem:
    return constant(1)


def constant(c) -> GradedElem:
    return graded({(): rat(c)})


def symbol(kind: str, bundle: str, i: int) -> GradedElem:
    if kind not in ("s", "c"):
        raise ValueError("unknown symbol kind")
    return graded({((kind, bundle, i),): Fraction(1)})


def _compositions(m: int, t: int):
    """Ordered tuples of t positive integers summing to m."""
    for cuts in combinations(range(1, m), t - 1):
        prev = 0
        parts = []
        for c in list(cuts) + [m]:
            parts.append(c - prev)
            prev = c
        yield tuple(parts)


def _universal(m: int, bundle: str, kind: str) -> GradedElem:
    # c_m = sum over compositions of m of (-1)^(number of parts) s_parts, and
    # symmetrically for s_m in the c's: the relation c(t)s(t) = 1 is symmetric.
    if m < 0:
        return zero()
    if m == 0:
        return one()
    acc: dict[Mono, Fraction] = {}
    for t in range(1, m + 1):
        for alpha in _compositions(m, t):
            key = tuple(sorted((kind, bundle, i) for i in alpha))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(-1) ** t
    return graded(acc)


def chern_from_segre(m: int, bundle: str = "E") -> GradedElem:
    """c_m as the universal polynomial in s_1..s_m."""
    return _universal(m, bundle, "s")


def twist_segre(e: BundleDecl, line: str, a: int) -> GradedElem:
    """s_a(E tensor L) in the symbols s_j(E) and c_1(L)."""
    if a < 0:
        return zero()
    r = e.rank - 1
    out = zero()
    for j in range(a + 1):
        term = symbol("s", e.name, j) if j > 0 else one()
        term = term * (symbol("c", line, 1) ** (a - j))
        sign = Fraction(-1) ** (a + j)
        out = out + term.scale(sign * math.comb(a + r, j + r))
    return out


@dataclass(frozen=True)
class SplitToricBundle:
    """Direct sum of Hermitian toric lines over a common base fan."""
    fan: Fan
    summands: tuple[HermitianToricLine, ...]

    @property
    def rank(self) -> int:
        return len(self.summands)


def split_bundle(summands: Sequence[HermitianToricLine]) -> SplitToricBundle:
    if not summands:
        raise ValueError("bundle needs at least one summand")
    fan = summands[0].line.fan
    if any(h.line.fan != fan for h in summands):
        raise ValueError("dimension/fan mismatch")
    return SplitToricBundle(fan, tuple(summands))


def _embed(v: Sequence, total: int, offset: int) -> tuple:
    out = [Fraction(0)] * total
    for i, x in enumerate(v):
        out[offset + i] = rat(x)
    return tuple(out)


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ValueError("summand coefficients must be integral")
    return int(x)


def fiber_product_projectivization(
        bs: Sequence[SplitToricBundle]) -> tuple[Fan, list[HermitianToricLine]]:
    """Fan of the fiber product of the dual projectivizations and the O(1) lines.

    Coordinates are (base, fiber block 1, ..., fiber block m); block i has one
    coordinate per non-reference summand of bundle i (summand 0 is the chart
    anchor). Base rays lift by the coefficient differences a_j - a_0, fiber
    rays are the block unit vectors plus their negated sum.
    """
    if not bs:
        raise ValueError("wrong count of bodies")
    base = bs[0].fan
    if any(b.fan != base for b in bs):
        raise ValueError("dimension/fan mismatch")
    n = base.dim
    sizes = [b.rank - 1 for b in bs]
    offsets = []
    pos = n
    for r in sizes:
        offsets.append(pos)
        pos += r
    total = pos

    rays: list[tuple] = []
    for ridx, v in enumerate(base.rays):
        lift = [int(x) for x in v]
        for b, off in zip(bs, offsets):
            a0 = b.summands[0].line.coeffs[ridx]
            for j in range(1, b.rank):
                lift.append(_as_int(b.summands[j].line.coeffs[ridx] - a0))
        rays.append(tuple(lift))
    n_base_rays = len(rays)

    # fiber rays per block: index 0 is -sum(e_j), index j >= 1 is e_{off+j-1}
    fiber_ray_ids: list[list[int]] = []
    for b, off in zip(bs, offsets):
        ids = []
        if b.rank > 1:
            neg = [0] * total
            for j in range(b.rank - 1):
                neg[off + j] = -1
            ids.append(len(rays))
            rays.append(tuple(neg))
            for j in range(b.rank - 1):
                e = [0] * total
                e[off + j] = 1
                ids.append(len(rays))
                rays.append(tuple(e))
        fiber_ray_ids.append(ids)

    cones: list[tuple[int, ...]] = []
    charts = [range(b.rank) for b in bs]
    for cone in base.cones:
        lifted = [i for i in cone]
        for pick in product(*charts):
            cids = list(lifted)
            for i, k in enumerate(pick):
                ids = fiber_ray_ids[i]
                if ids:
                    cids.extend(ids[j] for j in range(len(ids)) if j != k)
            cones.append(tuple(cids))
    fan = fans.make_fan(rays, cones, total)

    lines: list[HermitianToricLine] = []
    for i, (b, off) in enumerate(zip(bs, offsets)):
        coeffs: dict[tuple, Rat] = {}
        for ridx in range(n_base_rays):
            coeffs[rays[ridx]] = b.summands[0].line.coeffs[ridx]
        for k, rid in enumerate(fiber_ray_ids[i]):
            coeffs[rays[rid]] = Fraction(1) if k == 0 else Fraction(0)
        line = toric.divisor(fan, coeffs)
        pieces = []
        for j in range(b.rank):
            for slope, off_c in b.summands[j].metric.pieces:
                lifted_slope = list(_embed(slope, total, 0))
                if j > 0:
                    lifted_slope[off + j - 1] = Fraction(1)
                pieces.append((tuple(lifted_slope), off_c))
        lines.append(toric.hermitian(toric.metric(line, pieces), f"O(1)#{i}"))
    return fan, lines


def eval_segre_monomial(bs: Sequence[SplitToricBundle], exps: Sequence[int]) -> Fraction:
    """Integral of s_{a_1}(E_1)...s_{a_m}(E_m) against the fundamental class: the
    mass of the O(1) line of each E_i taken a_i + r_i - 1 times, r_i its rank."""
    if len(bs) != len(exps):
        raise ValueError("exponent-sum mismatch")
    if not bs:
        raise ValueError("wrong count of bodies")
    n = bs[0].fan.dim
    if any(b.fan != bs[0].fan for b in bs):
        raise ValueError("dimension/fan mismatch")
    if any(a < 0 for a in exps):
        return Fraction(0)
    if sum(exps) != n:
        raise ValueError("exponent-sum mismatch")
    _, lines = fiber_product_projectivization(bs)
    factors = [line for line, b, a in zip(lines, bs, exps) for _ in range(a + b.rank - 1)]
    return Fraction(-1) ** sum(exps) * toric.np_mass(factors)


_TOKEN = re.compile(r"(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[()^*+-])")
_SPACE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token; whitespace between tokens is skipped."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"parse error at position {pos}")
        out.append((m.lastgroup, m.group(), pos))
        pos = _SPACE.match(text, m.end()).end()
    out.append(("end", "", len(text)))
    return out


_SYM_NAME = re.compile(r"^([sc])(\d+)$")


class _Parser:
    """expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := atom ('^' int)*; atom := number | sym '(' name ')' | '(' expr ')' | '-' atom."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise ValueError(f"parse error at position {tok[2]}")
        self.i += 1
        return tok

    def expr(self) -> GradedElem:
        out = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> GradedElem:
        out = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> GradedElem:
        out = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            tok = self.take("num")
            if "/" in tok[1]:
                raise ValueError(f"parse error at position {tok[2]}")
            out = out ** int(tok[1])
        return out

    def atom(self) -> GradedElem:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return self.atom().scale(-1)
        if kind == "num":
            self.take()
            try:
                return constant(Fraction(value))
            except ZeroDivisionError:
                raise ValueError(f"parse error at position {pos}")
        if kind == "op" and value == "(":
            self.take()
            out = self.expr()
            self.take("op", ")")
            return out
        if kind == "name":
            m = _SYM_NAME.match(value)
            if not m:
                raise ValueError(f"parse error at position {pos}")
            self.take()
            self.take("op", "(")
            bundle = self.take("name")[1]
            self.take("op", ")")
            return symbol(m.group(1), bundle, int(m.group(2)))
        raise ValueError(f"parse error at position {pos}")


def parse_chern_expr(text: str) -> GradedElem:
    p = _Parser(text)
    out = p.expr()
    p.take("end")
    return out


def chern_number(bundles: Mapping[str, SplitToricBundle], expr) -> Fraction:
    """Evaluate a degree-n Chern/Segre expression against the bundle table."""
    elem = parse_chern_expr(expr) if isinstance(expr, str) else expr
    elem = elem.to_segre()
    total = Fraction(0)
    for mono, coeff in elem.terms:
        names = []
        exps = []
        for kind, b, i in mono:
            if b not in bundles:
                raise ValueError(f"unknown bundle {b}")
            names.append(b)
            exps.append(i)
        if not mono:
            raise ValueError("exponent-sum mismatch")
        total += coeff * eval_segre_monomial([bundles[b] for b in names], exps)
    return total
