"""Exact geometry for the oracles, written without toricbdiv.

Every model polytope the workloads generate is either a polygon (on P^2) or an
axis-parallel box (on P^1 x P^1 and (P^1)^3), and the generators know it in
closed form. The oracles compare the library's answers against the volumes and
mixed volumes computed here, so a defect in the library's hull, refinement or
intersection code cannot also hide in its own check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Sequence

Point = tuple[Fraction, ...]


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2(points) -> tuple[Point, ...]:
    """Vertices of the planar convex hull, counterclockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def area2(vertices: Sequence[Point]) -> Fraction:
    """Area of a convex polygon given counterclockwise."""
    n = len(vertices)
    twice = sum(vertices[i][0] * vertices[(i + 1) % n][1]
                - vertices[(i + 1) % n][0] * vertices[i][1] for i in range(n))
    return Fraction(twice, 2) if n >= 3 else Fraction(0)


def polygon(rows: Sequence[tuple[Sequence, Fraction]]) -> tuple[Point, ...]:
    """Vertices of {m : <a, m> >= b for every row (a, b)}, a bounded polygon."""
    corners = []
    for (a1, b1), (a2, b2) in combinations(rows, 2):
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        x = Fraction(b1 * a2[1] - b2 * a1[1], det)
        y = Fraction(a1[0] * b2 - a2[0] * b1, det)
        if all(a[0] * x + a[1] * y >= b for a, b in rows):
            corners.append((x, y))
    return hull2(corners)


@dataclass(frozen=True)
class Shape:
    """A model polytope: a box given per axis as (lo, hi), or a planar polygon."""
    dim: int
    box: tuple[tuple[Fraction, Fraction], ...] | None = None
    poly: tuple[Point, ...] | None = None

    def vertices(self) -> tuple[Point, ...]:
        if self.box is not None:
            return tuple(product(*self.box))
        return self.poly

    def linf_diameter(self) -> Fraction:
        vs = self.vertices()
        return max(max(abs(a - b) for a, b in zip(u, v)) for u in vs for v in vs)

    def l1_perimeter(self) -> Fraction:
        vs = hull2(self.vertices())
        return sum(abs(vs[i][0] - vs[i - 1][0]) + abs(vs[i][1] - vs[i - 1][1])
                   for i in range(len(vs)))


def _columns(p: Shape, k: int):
    """(x, lowest y, highest y) of the integer points of k * p, one per column x."""
    vs = [(k * x, k * y) for x, y in hull2(p.vertices())]
    for x in range(math.ceil(min(v[0] for v in vs)), math.floor(max(v[0] for v in vs)) + 1):
        ys = []
        for (px, py), (qx, qy) in zip(vs, vs[1:] + vs[:1]):
            if px == qx:
                if px == x:
                    ys += [py, qy]
            elif min(px, qx) <= x <= max(px, qx):
                ys.append(py + (x - px) * (qy - py) / (qx - px))
        if ys and math.ceil(min(ys)) <= math.floor(max(ys)):
            yield x, math.ceil(min(ys)), math.floor(max(ys))


def lattice_count(p: Shape, k: int) -> int:
    """Number of integer points of k * p."""
    if p.box is not None:
        return math.prod(max(0, math.floor(k * hi) - math.ceil(k * lo) + 1)
                         for lo, hi in p.box)
    return sum(hi - lo + 1 for _, lo, hi in _columns(p, k))


def lattice_points2(p: Shape, k: int) -> list[tuple[int, int]]:
    """Integer points of k * p for a planar p."""
    return [(x, y) for x, lo, hi in _columns(p, k) for y in range(lo, hi + 1)]


def box(bounds) -> Shape:
    return Shape(len(bounds), box=tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds))


def poly(vertices) -> Shape:
    return Shape(2, poly=hull2(vertices))


def minkowski(p: Shape, q: Shape) -> Shape:
    if p.box is not None and q.box is not None:
        return box([(a + c, b + d) for (a, b), (c, d) in zip(p.box, q.box)])
    return poly([tuple(x + y for x, y in zip(u, v))
                 for u in p.vertices() for v in q.vertices()])


def volume(p: Shape) -> Fraction:
    if p.box is not None:
        return math.prod((hi - lo for lo, hi in p.box), start=Fraction(1))
    return area2(p.poly)


def normalized_mixed(shapes: Sequence[Shape]) -> Fraction:
    """n! times the mixed volume V(K_1, ..., K_n): the toric intersection number.

    Boxes: the permanent of the edge-length matrix. Planar bodies: the
    polarization area(P + Q) - area(P) - area(Q).
    """
    n = len(shapes)
    if any(s.dim != n for s in shapes):
        raise ValueError("need n bodies in dimension n")
    if all(s.box is not None for s in shapes):
        lengths = [[hi - lo for lo, hi in s.box] for s in shapes]
        return sum((math.prod((lengths[i][sigma[i]] for i in range(n)), start=Fraction(1))
                    for sigma in permutations(range(n))), Fraction(0))
    if n != 2:
        raise ValueError("non-box bodies are planar here")
    p, q = shapes
    return volume(minkowski(p, q)) - volume(p) - volume(q)
