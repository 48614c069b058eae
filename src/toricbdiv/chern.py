"""Segre/Chern calculus: formal graded ring plus numeric evaluation on split bundles.

Symbols s_i(B) and c_i(B) with exact rational coefficients; s_0 = c_0 = 1 and
s_i = 0 for i < 0 are baked into normalization. Expanding an expression is
charged against a work budget before it runs. Numeric Segre monomials are
computed on the base fan: for a split bundle with summand classes x_j,
c(E) = prod (1 + x_j), so s_a(E) = (-1)^a h_a(x), and a degree-n monomial in
the x_j is the non-pluripolar mass of those summands (the Cayley trick: the
model polytope of the O(1) line on the projectivization is the Cayley
polytope of the summands' models). By the Chern-Weil formula these equal the
b-divisor intersection numbers of the O(1) lines on the fiber product of the
projectivizations, which tests/chern_oracle.py keeps as the oracle.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Mapping, Sequence

from . import toric
from .fans import Fan
from .rationals import rat
from .toric import ToricMetric

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
        _charge(_mul_work(self, other))
        acc: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                key = tuple(sorted(m1 + m2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return graded(acc)

    def __pow__(self, k: int) -> "GradedElem":
        if k < 0:
            raise ValueError("negative power")
        out, work = one(), k
        for _ in range(k):
            work += _mul_work(out, self)
            _charge(work)
            out = out * self
        return out

    def scale(self, c) -> "GradedElem":
        c = rat(c)
        return graded({m: c * x for m, x in self.terms})

    def substitute(self, fn) -> "GradedElem":
        """Replace each symbol by fn(sym) (a GradedElem), None keeping it."""
        reps: dict[Sym, GradedElem] = {}
        acc: dict[Mono, Fraction] = {}
        work = 0
        for mono, c in self.terms:
            term = constant(c)
            for sym in mono:
                if sym not in reps:
                    rep = fn(sym)
                    reps[sym] = rep if rep is not None else graded({(sym,): Fraction(1)})
                work += _mul_work(term, reps[sym])
                _charge(work)
                term = term * reps[sym]
            for m, x in term.terms:
                acc[m] = acc.get(m, Fraction(0)) + x
        return graded(acc)

    def to_segre(self) -> "GradedElem":
        """Rewrite every c_i(B) through the universal polynomial."""
        return self.substitute(
            lambda s: chern_from_segre(s[2], s[1]) if s[0] == "c" else None)


# Symbols one expansion may write: c_m in the other kind writes its 2^(m-1)
# compositions of m, a product every pair of terms, a power each of its products.
_EXPAND_BUDGET = 1 << 18


def _charge(work: int) -> None:
    if work > _EXPAND_BUDGET:
        raise ValueError("chern expression budget exceeded")


def _mul_work(a: GradedElem, b: GradedElem) -> int:
    """Symbols a * b writes: each pair of terms writes both monomials."""
    return (len(b.terms) * sum(len(m) for m, _ in a.terms)
            + len(a.terms) * sum(len(m) for m, _ in b.terms))


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
    _charge(m << (m - 1))
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
    summands: tuple[ToricMetric, ...]

    @property
    def rank(self) -> int:
        return len(self.summands)


def split_bundle(summands: Sequence[ToricMetric]) -> SplitToricBundle:
    if not summands:
        raise ValueError("bundle needs at least one summand")
    fan = summands[0].line.fan
    if any(h.line.fan != fan for h in summands):
        raise ValueError("dimension/fan mismatch")
    return SplitToricBundle(fan, tuple(summands))


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ValueError("summand coefficients must be integral")
    return int(x)


def eval_segre_monomial(bs: Sequence[SplitToricBundle], exps: Sequence[int]) -> Fraction:
    """Integral of s_{a_1}(E_1)...s_{a_m}(E_m) against the fundamental class.

    s_a(E) = (-1)^a h_a(x) in the classes x_j of E's summands, and a degree-n
    monomial in the x_j is the mass of those summands on the base (the Cayley
    trick), so this sums np_mass over one multiset of a_i summands per E_i."""
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
    # the projectivization's rays lift by these differences; the number is
    # defined only where they are integral, though the sum below never reads them
    for b in bs:
        for h in b.summands[1:]:
            for x, x0 in zip(h.line.coeffs, b.summands[0].line.coeffs):
                _as_int(x - x0)
    picks = product(*(combinations_with_replacement(b.summands, a) for b, a in zip(bs, exps)))
    total = sum(toric.np_mass([h for part in pick for h in part]) for pick in picks)
    return Fraction(-1) ** n * total


class ParseError(ValueError):
    """A Chern expression that is not well formed, as against one too large to expand."""


# numbers and degrees in ASCII digits: \d also takes other scripts' digits
_TOKEN = re.compile(r"(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[()^*+-])")
_SPACE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token; whitespace between tokens is skipped."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"parse error at position {pos}")
        out.append((m.lastgroup, m.group(), pos))
        pos = _SPACE.match(text, m.end()).end()
    out.append(("end", "", len(text)))
    return out


_SYM_NAME = re.compile(r"^([sc])([0-9]+)$")
_MAX_DEPTH = 200  # nested parentheses, as in CPython's own parser


class _Parser:
    """expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := atom ('^' int)*; atom := number | sym '(' name ')' | '(' expr ')' | '-' atom."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise ParseError(f"parse error at position {tok[2]}")
        self.i += 1
        return tok

    def expr(self) -> GradedElem:
        # one accumulation, as a sum normalized after each term is quadratic
        acc: dict[Mono, Fraction] = {}
        sign = 1
        while True:
            for m, c in self.term().terms:
                acc[m] = acc.get(m, Fraction(0)) + sign * c
            if self.peek()[:2] not in (("op", "+"), ("op", "-")):
                return graded(acc)
            sign = 1 if self.take()[1] == "+" else -1

    def term(self) -> GradedElem:
        # a chain of products is charged as a whole, as a power is
        out, work = self.factor(), 0
        while self.peek()[:2] == ("op", "*"):
            self.take()
            rhs = self.factor()
            work += _mul_work(out, rhs)
            _charge(work)
            out = out * rhs
        return out

    def factor(self) -> GradedElem:
        out = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            tok = self.take("num")
            if "/" in tok[1]:
                raise ParseError(f"parse error at position {tok[2]}")
            out = out ** int(tok[1])
        return out

    def atom(self) -> GradedElem:
        # a run of unary minuses is one sign, and each '(' costs four frames
        # (atom, expr, term, factor), so nesting stops before the recursion limit
        sign = 1
        while self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -sign
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            try:
                out = constant(Fraction(value))
            except ZeroDivisionError:
                raise ParseError(f"parse error at position {pos}")
        elif kind == "op" and value == "(" and self.depth < _MAX_DEPTH:
            self.take()
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            self.take("op", ")")
        elif kind == "name" and (m := _SYM_NAME.match(value)):
            self.take()
            self.take("op", "(")
            bundle = self.take("name")[1]
            self.take("op", ")")
            out = symbol(m.group(1), bundle, int(m.group(2)))
        else:
            raise ParseError(f"parse error at position {pos}")
        return out if sign == 1 else out.scale(-1)


def parse_chern_expr(text: str) -> GradedElem:
    p = _Parser(text)
    out = p.expr()
    p.take("end")
    return out


def chern_number(bundles: Mapping[str, SplitToricBundle], expr: str) -> Fraction:
    """Evaluate the text of a degree-n Chern/Segre expression against the bundle
    table; a syntax error raises `ParseError`."""
    elem = parse_chern_expr(expr).to_segre()
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
