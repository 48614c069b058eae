"""The seeded workloads: query pools built in set-up, checked after the timed loop.

A builder turns a seed into the whole query pool of a run, through the
package's public constructors only. A Query holds the call the timed loop
makes, the oracle that checks the answer once the loop is over, a label that
names its input in failure listings, and the metrics it reads. The oracles
mostly use closed forms and the exact geometry in geometry.py, so they do not
share the library's hull, refinement or intersection code; where an identity
of the paper is the check (2 exact == vol, test ideal == multiplier ideal), the
other side comes from a different route through the library.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable

from toricbdiv import bdiv, cli, fans, ideals, okounkov, polytopes, toric

import geometry as geo

# Queries in a pool: a third more than a 25 s run answers on the baseline
# machine in the host's fast phases, and no more, because building the pool
# (and writing the cli files) is set-up time. A run that exhausts it ends early
# and says so (no wrap-around, which would hand the module caches inputs they
# have already seen).
POOL_SIZE = {"pipeline": 900, "sections": 320, "cli": 3200}
# Fixed query prefix of the traced run, so per-layer totals compare across commits.
TRACE_QUERIES = {"pipeline": 100, "sections": 60, "cli": 400}

# Known defects of the package: the text of the error, and its cause. A query
# whose input is listed in known_defects.json (made by defect_table.py) hits
# one; it is run after the timed loop and reported there, outside the counted
# queries, so that no counted query fails and the defect still shows every run.
KNOWN_DEFECTS = {
    "no stabilization by e_max":
        "ideals.test_ideal confirms a plateau with a doubled exponent that jumps "
        "from e = 4 straight to e_max, so a chain constant from e = 5 to 8 is "
        "reported as unstable; exit 3 from tideal and verify test-vs-multiplier",
}

_P1 = fans.projective_space_fan(1)
FANS = {"P1": _P1, "P2": fans.projective_space_fan(2),
        "P1xP1": fans.product_fan(_P1, _P1),
        "P1^3": fans.product_fan(fans.product_fan(_P1, _P1), _P1)}
_BOX_FAN = {1: "P1", 2: "P1xP1", 3: "P1^3"}
_FLAGS = {2: okounkov.flag([(1, 0), (0, 1)]),
          3: okounkov.flag([(1, 0, 0), (0, 1, 0), (0, 0, 1)])}


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right
    label: str
    lines: tuple = ()  # input metrics, for bdiv_of_metric calls per metric
    hulls: Callable[[], Any] | None = None  # the section-hull computation, run again untimed
    defect: bool = False  # its input is listed in known_defects.json


@dataclass(frozen=True, eq=False)
class Line:
    """A Hermitian toric line with its model polytope known in closed form."""
    fan: str
    coeffs: tuple[tuple[tuple[int, ...], Fraction], ...]
    h: toric.HermitianToricLine | None  # None where only a scenario file reads it
    shape: geo.Shape
    label: str


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 3), rng.choice((2, 3, 4)))


def _label(fan: str, degs, weights: dict) -> str:
    w = ",".join(f"{r}:{x}" for r, x in weights.items())
    return f"{fan} O{tuple(degs)} weights {{{w}}}".replace(" ", "")


def _hermitian(fan: str, coeffs: dict, weights: dict, build: bool):
    if not build:
        return None
    div = toric.divisor(FANS[fan], coeffs)
    return toric.hermitian(toric.metric_with_ray_weights(div, weights))


def p2_line(rng: random.Random, d: int, build: bool = True) -> Line:
    """O(d) on P^2 with random log weights along some rays; the model is a polygon."""
    rays = ((1, 0), (0, 1), (-1, -1))
    weights: dict = {}
    for ray in rays:
        if rng.random() < 0.4:
            x = _weight(rng)
            if sum(weights.values()) + x < d:
                weights[ray] = x
    coeffs = {(1, 0): 0, (0, 1): 0, (-1, -1): d}
    rows = [(r, weights.get(r, Fraction(0)) - coeffs[r]) for r in rays]
    return Line("P2", tuple(coeffs.items()), _hermitian("P2", coeffs, weights, build),
                geo.poly(geo.polygon(rows)), _label("P2", (d,), weights))


def box_line(rng: random.Random, degs: tuple[int, ...], build: bool = True) -> Line:
    """O(a_1, ..., a_k) on (P^1)^k with random log weights; the model is a box."""
    k = len(degs)
    coeffs: dict = {}
    weights: dict = {}
    bounds = []
    for i, a in enumerate(degs):
        e = tuple(int(j == i) for j in range(k))
        neg = tuple(-x for x in e)
        coeffs[e], coeffs[neg] = 0, a
        low, high = Fraction(0), Fraction(a)
        for ray in (e, neg):
            if rng.random() < 0.25:
                x = _weight(rng)
                if high - low > x:
                    weights[ray] = x
                    if ray == e:
                        low += x
                    else:
                        high -= x
        bounds.append((low, high))
    name = _BOX_FAN[k]
    return Line(name, tuple(coeffs.items()), _hermitian(name, coeffs, weights, build),
                geo.box(bounds), _label(name, degs, weights))


def _degs(rng: random.Random, k: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(k))


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got}, expected {want}"


def _first(*reasons) -> str | None:
    return next((r for r in reasons if r), None)


def _cartier(line: Line) -> bdiv.CartierB:
    return bdiv.bdiv_of_metric(line.h).cartier


class Files:
    """The files a cli pool reads, held as text until write() creates them.

    Creating files on a shared disk takes from 0.04 to 1 ms each, varying with
    the other tenants' I/O, and it is the benchmark's work, not the package's;
    the worker times it apart from set-up."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.texts: dict[Path, str] = {}

    def add(self, name: str, payload) -> str:
        path = self.workdir / name
        self.texts[path] = json.dumps(payload, sort_keys=True)
        return str(path)

    def write(self) -> None:
        for path, text in self.texts.items():
            path.write_text(text, encoding="utf-8")


# -- pipeline ------------------------------------------------------------------

# One deck of 20 metrics, plus a Weil sequence after every fourth. The (P^1)^3
# okouniden, chern_weil and pair queries and the Weil queries make up about a
# fifth of all queries, so p90 falls inside that spread-out group rather than
# on the gap below it.
_PIPELINE_FANS = ["P2"] * 8 + ["P1xP1"] * 7 + ["P1^3"] * 5
_WEIL_EVERY = 4


def _pipeline_line(rng: random.Random, fan: str) -> Line:
    if fan == "P2":
        return p2_line(rng, rng.randint(1, 4))
    return box_line(rng, _degs(rng, 2, 1, 4) if fan == "P1xP1" else _degs(rng, 3, 1, 3))


def _q_vol(line: Line) -> Query:
    n = line.shape.dim
    return Query("vol", lambda: bdiv.vol(_cartier(line)),
                 lambda got: _mismatch("vol", got, geo.normalized_mixed([line.shape] * n)),
                 line.label, (line,))


def _q_np_mass(line: Line, partner: Line) -> Query:
    n = line.shape.dim
    ls = [line] * (n - 1) + [partner]
    return Query("np_mass", lambda: toric.np_mass([x.h for x in ls]),
                 lambda got: _mismatch("np_mass", got,
                                       geo.normalized_mixed([x.shape for x in ls])),
                 f"{line.label} with {partner.label}", (line, partner))


def _q_chern_weil(line: Line) -> Query:
    n = line.shape.dim

    def check(rep) -> str | None:
        want = geo.normalized_mixed([line.shape] * n)
        return _first(_mismatch("verdict", rep.verdict, "equal"),
                      _mismatch("lhs", rep.lhs, want), _mismatch("rhs", rep.rhs, want),
                      _mismatch("mid", rep.mid, want) if rep.mid is not None else None)

    return Query("chern_weil", lambda: bdiv.chern_weil_line([line.h] * n), check,
                 line.label, (line,))


def _q_okouniden(line: Line) -> Query:
    nu = _FLAGS[line.shape.dim]

    def check(rep) -> str | None:
        # the flag sits at the cone where the divisor's coefficients vanish, so
        # the metric's body is the model polytope itself
        return _first(_mismatch("verdict", rep.verdict, "equal"),
                      _mismatch("limit body", set(rep.rhs.body.vertices),
                                set(line.shape.vertices())),
                      _mismatch("body volume", rep.lhs.volume(), geo.volume(line.shape)))

    return Query("okouniden", lambda: okounkov.verify_okouniden(line.h, nu), check,
                 line.label, (line,))


def _q_pair(line: Line, partner: Line) -> Query:
    n = line.shape.dim

    def call():
        b1, b2 = _cartier(line), _cartier(partner)
        mixed = [bdiv.intersect_cartier([b1] * (n - k) + [b2] * k) for k in range(1, n)]
        return bdiv.vol(bdiv.add(b1, b2)), mixed

    def check(got) -> str | None:
        vol_sum, mixed = got
        s1, s2 = line.shape, partner.shape
        terms = [geo.normalized_mixed([s1] * (n - k) + [s2] * k) for k in range(n + 1)]
        # criterion 2: vol(b1 + b2) = sum_k C(n, k) (b1^(n-k) . b2^k)
        polar = terms[0] + terms[n] + sum(math.comb(n, k) * m
                                          for k, m in enumerate(mixed, start=1))
        return _first(_mismatch("vol(b1+b2)", vol_sum,
                                geo.normalized_mixed([geo.minkowski(s1, s2)] * n)),
                      _mismatch("mixed terms", mixed, terms[1:n]),
                      _mismatch("polarization", polar, vol_sum))

    return Query("pair", call, check, f"{line.label} with {partner.label}", (line, partner))


def _weil_line(fan: str, degs: tuple, t: Fraction) -> Line:
    if fan == "P2":
        d = degs[0] + t
        coeffs = {(1, 0): 0, (0, 1): 0, (-1, -1): d}
        shape = geo.poly([(0, 0), (d, 0), (0, d)])
    else:
        a, b = degs[0] + t, degs[1] + t
        coeffs = {(1, 0): 0, (0, 1): 0, (-1, 0): a, (0, -1): b}
        shape = geo.box([(0, a), (0, b)])
    pieces = [(v, 0) for v in shape.vertices()]
    h = toric.hermitian(toric.metric(toric.divisor(FANS[fan], coeffs), pieces))
    return Line(fan, tuple(coeffs.items()), h, shape, f"{fan} O{degs} + {t}")


def _q_weil(rng: random.Random, index: int) -> Query:
    """Decreasing sequence O(D + t_k) with t_k = r^-k down to O(D), volume as an interval.

    Fan and ratio cycle with the index, so the sequence lengths of a run do not
    depend on the draws."""
    fan = ("P2", "P1xP1")[index % 2]
    degs = _degs(rng, 1 if fan == "P2" else 2, 1, 3)
    ratio, tol = (2, 3, 4)[index % 3], Fraction(1, 1000)
    limit = _weil_line(fan, degs, Fraction(0))
    seq = [_weil_line(fan, degs, Fraction(1))]
    while True:
        seq.append(_weil_line(fan, degs, Fraction(1, ratio ** len(seq))))
        gap = (geo.normalized_mixed([seq[-2].shape] * 2)
               - geo.normalized_mixed([seq[-1].shape] * 2))
        if gap < tol:  # the diagonal stops at the first gap below tol
            break

    def call():
        w = bdiv.weil([_cartier(x) for x in seq], _cartier(limit))
        return bdiv.vol(w, tol)

    def check(iv) -> str | None:
        return _first(_mismatch("certified", iv.certified, True),
                      _mismatch("lo", iv.lo, geo.normalized_mixed([limit.shape] * 2)),
                      _mismatch("hi", iv.hi, geo.normalized_mixed([seq[-1].shape] * 2)),
                      None if iv.hi - iv.lo < tol else f"width {iv.hi - iv.lo} >= {tol}")

    label = f"weil {fan} O{degs} ratio 1/{ratio} steps {len(seq)} tol {tol}"
    return Query("weil", call, check, label, tuple(seq) + (limit,))


def build_pipeline(rng: random.Random, size: int, files: Files) -> list[Query]:
    pool: list[Query] = []
    deck: list[str] = []
    partners: dict[str, Line] = {}
    metrics = 0
    while len(pool) < size:
        if not deck:
            deck = _PIPELINE_FANS[:]
            rng.shuffle(deck)
        fan = deck.pop()
        line = _pipeline_line(rng, fan)
        partner = partners.get(fan) or _pipeline_line(rng, fan)
        partners[fan] = line
        group = [_q_vol(line), _q_np_mass(line, partner), _q_chern_weil(line),
                 _q_okouniden(line), _q_pair(line, partner)]
        rng.shuffle(group)
        pool += group
        metrics += 1
        if metrics % _WEIL_EVERY == 0:
            pool.append(_q_weil(rng, metrics // _WEIL_EVERY))
    return pool


# -- sections ------------------------------------------------------------------

# (kind, fan, degrees): one deck of 12 slots. Degrees and k_max are fixed per
# slot and only the weights are drawn, so every deck costs about the same. The
# four cheap counting slots, four light hull slots and four heavy hull slots put
# p50 inside the light block and p90 inside the heavy one.
_SECTIONS_DECK = ([("volume_of_pair", "P2", (d,)) for d in (3, 4)]
                  + [("volume_of_pair", "P1xP1", ab) for ab in ((1, 3), (2, 2))]
                  + [("partial", "P2", (d,)) for d in (1, 1, 2, 2, 3)]
                  + [("partial", "P1xP1", ab) for ab in ((1, 2), (2, 1), (2, 2))])
_K_MAX = {"volume_of_pair": 30, "partial": 8}


def _q_volume_of_pair(line: Line, k_max: int) -> Query:
    def check(got) -> str | None:
        exact, seq = got
        s = line.shape
        slack = s.l1_perimeter() / 2 + 1
        reasons = [_mismatch("exact", exact, geo.volume(s)),
                   _mismatch("2 exact vs vol", 2 * exact, bdiv.vol(_cartier(line))),
                   _mismatch("sequence length", len(seq), k_max)]
        for k, x in enumerate(seq, start=1):
            reasons.append(_mismatch(f"sections at k={k}", x,
                                     Fraction(geo.lattice_count(s, k), k * k)))
            if abs(x - exact) > slack / k:
                reasons.append(f"Ehrhart bound fails at k={k}: {x} vs {exact}")
        return _first(*reasons)

    return Query("volume_of_pair", lambda: ideals.volume_of_pair(line.h, k_max), check,
                 f"{line.label} k_max {k_max}", (line,))


def _q_partial(line: Line, k_max: int) -> Query:
    def call():
        hulls, limit = okounkov.partial_okounkov(line.h, _FLAGS[2], k_max)
        dists = [None if p is None else polytopes.hausdorff_linf(p, limit.body).value
                 for p in hulls]
        return hulls, limit, dists

    def check(got) -> str | None:
        hulls, limit, dists = got
        s = line.shape
        reasons = [_mismatch("hull count", len(hulls), k_max),
                   _mismatch("limit body", set(limit.body.vertices), set(s.vertices())),
                   _mismatch("limit volume", limit.volume(), geo.volume(s))]
        for k, (p, dist) in enumerate(zip(hulls, dists), start=1):
            want = geo.hull2([(Fraction(x, k), Fraction(y, k))
                              for x, y in geo.lattice_points2(s, k)])
            got_vs = None if p is None else set(p.vertices)
            reasons.append(_mismatch(f"hull at k={k}", got_vs, set(want) if want else None))
            if dist is not None and not 0 <= dist <= s.linf_diameter():
                reasons.append(f"distance at k={k} out of range: {dist}")
        return _first(*reasons)

    return Query("partial", call, check, f"{line.label} k_max {k_max}", (line,),
                 lambda: okounkov.partial_okounkov(line.h, _FLAGS[2], k_max))


def build_sections(rng: random.Random, size: int, files: Files) -> list[Query]:
    pool: list[Query] = []
    deck: list = []
    while len(pool) < size:
        if not deck:
            deck = _SECTIONS_DECK[:]
            rng.shuffle(deck)
        kind, fan, degs = deck.pop()
        line = p2_line(rng, degs[0]) if fan == "P2" else box_line(rng, degs)
        make = _q_volume_of_pair if kind == "volume_of_pair" else _q_partial
        pool.append(make(line, _K_MAX[kind]))
    return pool


# -- cli -----------------------------------------------------------------------

def _chern_by_roots(shapes: list[geo.Shape], terms) -> Fraction:
    """sum_j coeff_j * prod_k c_k(E) for E split with the given summand models.

    c_k is the k-th elementary symmetric polynomial in the Chern roots, and a
    monomial in the roots is the mixed volume of the matching models.
    """
    rank = len(shapes)
    total = Fraction(0)
    for coeff, ks in terms:
        poly = {(0,) * rank: 1}
        for k in ks:
            e_k = [a for a in product((0, 1), repeat=rank) if sum(a) == k]
            nxt: dict = {}
            for m, c in poly.items():
                for a in e_k:
                    key = tuple(x + y for x, y in zip(m, a))
                    nxt[key] = nxt.get(key, 0) + c
            poly = nxt
        for alpha, c in poly.items():
            factors = [s for s, a in zip(shapes, alpha) for _ in range(a)]
            total += coeff * c * geo.normalized_mixed(factors)
    return total


# (fan, expression, the expression as sum_j coeff_j * prod c_k(E)) of the chern
# queries, taken in turn: degree 1 on P^1 and degree 2 on P^2.
_CHERN_CASES = (("P1", "c1(E)", [(1, (1,))]),
                ("P2", "c1(E)^2 - c2(E)", [(1, (1, 1)), (-1, (2,))]))

# One deck of 20. The single chern slot (P^1 and P^2 in turn) is the slowest
# kind and stays above p90, which falls inside the spread of the other kinds.
_CLI_DECK = (["tideal"] * 7 + ["mideal"] * 4 + ["verify-tvm"] * 2 + ["volume"] * 2
             + ["mass"] * 2 + ["okounkov"] * 2 + ["chern"])
_LAMS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(5, 4), Fraction(3, 2),
         Fraction(2), Fraction(7, 3))
_PRIMES = (2, 3, 5)


def _primes_for(ideal: ideals.MonomialIdeal) -> tuple[int, ...]:
    """p = 5 only below three generators: with three, test_ideal's arrays have
    about lam * 5^e entries and single queries reach seconds, not milliseconds."""
    return _PRIMES if len(ideal.gens) < 3 else _PRIMES[:2]
_EMAX = 8
_TOP = {2: 5, 3: 3}  # largest exponent drawn, by number of variables
_USES_PER_FILE = 6  # queries that read one ideal or scenario file


@functools.cache
def _defect_inputs() -> frozenset:
    table = json.loads(Path(__file__).with_name("known_defects.json").read_text("utf-8"))
    assert table["emax"] == _EMAX, "known_defects.json is out of date: run defect_table.py"
    return frozenset((tuple(map(tuple, gens)), lam, p) for gens, lam, p in table["inputs"])


def hits_defect(ideal: ideals.MonomialIdeal, lam: Fraction, p: int) -> bool:
    """Does test_ideal hit a known defect on this input (known_defects.json)?"""
    return (ideal.gens, str(lam), p) in _defect_inputs()


def draw_ideal(rng: random.Random) -> ideals.MonomialIdeal:
    """2 or 3 variables, 1 to 4 drawn generators, exponents up to 5 (3 in 3 variables).

    Ideals with four minimal generators are drawn again: test_ideal enumerates
    4-part compositions in pure Python there, and one query can run for a minute.
    """
    while True:
        n = rng.choice((2, 3))
        gens = [[rng.randint(0, _TOP[n]) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        ideal = ideals.make_ideal(n, gens)
        if len(ideal.gens) <= 3:
            return ideal


def _fan_json(fan: fans.Fan) -> dict:
    return {"rays": [list(r) for r in fan.rays], "cones": [list(c) for c in fan.cones]}


def _metric_json(line: Line) -> dict:
    return {"divisor": {"coeffs": {",".join(map(str, r)): str(a) for r, a in line.coeffs}},
            "pieces": [{"slope": [str(x) for x in v]} for v in line.shape.vertices()]}


def _cli_call(argv: list[str]):
    code, text = cli.run(argv)
    return code, json.loads(text)


def _cli_check(inner: Callable[[dict], str | None]):
    def check(got) -> str | None:
        code, rep = got
        if code != 0:
            return f"exit {code}: {rep.get('error', {}).get('message')}"
        return inner(rep)
    return check


def _ideal_json(ideal: ideals.MonomialIdeal) -> dict:
    return {"nvars": ideal.nvars, "gens": [list(g) for g in ideal.gens]}


@functools.cache
def _multiplier_json(ideal: ideals.MonomialIdeal, lam: Fraction) -> dict:
    """The oracle's answer, computed once per ideal and exponent after the loop."""
    return ideals.multiplier_ideal_monomial(ideal, lam).to_json()


def _q_ideal(kind: str, ideal, path: str, rng: random.Random) -> Query:
    lam = rng.choice(_LAMS)
    defect = False
    if kind == "mideal":
        argv = ["mideal", "--ideal", path, "--c", str(lam)]
    else:
        p = rng.choice(_primes_for(ideal))
        argv = ["tideal", "--ideal", path, "--lam", str(lam), "--p", str(p),
                "--emax", str(_EMAX)]
        defect = hits_defect(ideal, lam, p)

    def inner(rep) -> str | None:
        # Hara-Yoshida: test ideals of monomial ideals are the multiplier ideals
        return _mismatch("ideal", rep["outputs"], _multiplier_json(ideal, lam))

    label = f"{' '.join(argv[:1] + argv[3:])} ideal {ideal.gens}"
    return Query(kind, lambda: _cli_call(argv), _cli_check(inner), label, defect=defect)


def _q_tvm(rng: random.Random, ideal, files: Files, name: str) -> Query:
    lams = rng.sample(_LAMS, 2)
    ps = rng.sample(_primes_for(ideal), rng.randint(1, 2))
    scn = files.add(name, {"ideal": _ideal_json(ideal), "lams": [str(x) for x in lams],
                           "ps": ps, "emax": _EMAX})
    argv = ["verify", "--scenario", scn, "--suite", "test-vs-multiplier"]

    def inner(rep) -> str | None:
        grid = rep["outputs"]["grid"]
        return _first(_mismatch("verdict", rep.get("verdict"), "equal"),
                      _mismatch("grid size", len(grid), len(lams) * len(ps)),
                      _mismatch("matches", all(g["match"] for g in grid), True))

    label = f"verify test-vs-multiplier ideal {ideal.gens} lams {[str(x) for x in lams]} ps {ps}"
    return Query("verify-tvm", lambda: _cli_call(argv), _cli_check(inner), label,
                 defect=any(hits_defect(ideal, lam, p) for lam in lams for p in ps))


def _q_scenario(kind: str, line: Line, partner: Line, path: str) -> Query:
    argv = [kind, "--scenario", path]
    s = line.shape

    def inner(rep) -> str | None:
        out = rep["outputs"]
        if kind == "volume":
            return _mismatch("volume", Fraction(out["value"]), geo.normalized_mixed([s, s]))
        if kind == "mass":
            return _mismatch("mass", Fraction(out["value"]),
                             geo.normalized_mixed([s, partner.shape]))
        # the body of the b-divisor is trivialized at the lexicographically
        # smallest slope, the functional of psi on the flag's cone
        body, m0 = out["body"], min(s.vertices())
        return _first(_mismatch("body", {tuple(map(Fraction, v)) for v in body["vertices"]},
                                {tuple(x - y for x, y in zip(v, m0)) for v in s.vertices()}),
                      _mismatch("body volume", Fraction(body["volume"]), geo.volume(s)))

    label = f"{kind} {line.label}" + (f" with {partner.label}" if kind == "mass" else "")
    return Query(kind, lambda: _cli_call(argv), _cli_check(inner), label, (line,))


def _q_chern(rng: random.Random, index: int, files: Files, name: str) -> Query:
    """chern on a fresh rank-2 split bundle, some summands singular."""
    fan, expr, terms = _CHERN_CASES[index % len(_CHERN_CASES)]
    if fan == "P2":
        summands = [p2_line(rng, rng.randint(1, 2), build=False) for _ in range(2)]
    else:
        summands = [box_line(rng, _degs(rng, 1, 0, 3), build=False) for _ in range(2)]
    scn = files.add(name, {"fan": _fan_json(FANS[fan]), "expression": expr,
                           "bundles": {"E": {"summands": [_metric_json(x) for x in summands]}}})
    argv = ["chern", "--scenario", scn]

    def inner(rep) -> str | None:
        # criterion 6: the Chern-root expansion over the summands' model polytopes
        want = _chern_by_roots([x.shape for x in summands], terms)
        return _mismatch("chern number", Fraction(rep["outputs"]["value"]), want)

    label = f"chern {expr} over {fan}: " + " + ".join(x.label for x in summands)
    return Query("chern", lambda: _cli_call(argv), _cli_check(inner), label, tuple(summands))


def _cli_line(rng: random.Random, fan: str) -> Line:
    if fan == "P2":
        return p2_line(rng, rng.randint(1, 2), build=False)
    return box_line(rng, _degs(rng, 2, 1, 2), build=False)


def build_cli(rng: random.Random, size: int, files: Files) -> list[Query]:
    pool: list[Query] = []
    deck: list[str] = []
    ideal, ideal_path, ideal_uses = None, "", _USES_PER_FILE
    line = partner = None
    scn_path, scn_uses = "", _USES_PER_FILE
    chern_queries = 0
    while len(pool) < size:
        if not deck:
            deck = _CLI_DECK[:]
            rng.shuffle(deck)
        kind = deck.pop()
        if kind in ("tideal", "mideal"):
            if ideal_uses == _USES_PER_FILE:
                ideal = draw_ideal(rng)
                ideal_path = files.add(f"ideal-{len(pool)}.json", _ideal_json(ideal))
                ideal_uses = 0
            ideal_uses += 1
            pool.append(_q_ideal(kind, ideal, ideal_path, rng))
        elif kind == "verify-tvm":
            pool.append(_q_tvm(rng, draw_ideal(rng), files, f"tvm-{len(pool)}.json"))
        elif kind == "chern":
            chern_queries += 1
            pool.append(_q_chern(rng, chern_queries, files, f"chern-{len(pool)}.json"))
        else:
            if scn_uses == _USES_PER_FILE:
                fan = rng.choice(("P2", "P1xP1"))
                line, partner = _cli_line(rng, fan), _cli_line(rng, fan)
                scn_path = files.add(f"scn-{len(pool)}.json", {
                    "fan": _fan_json(FANS[fan]), "metric": _metric_json(line),
                    "metrics": [_metric_json(line), _metric_json(partner)],
                    "flag": {"cone": [[1, 0], [0, 1]]}})
                scn_uses = 0
            scn_uses += 1
            pool.append(_q_scenario(kind, line, partner, scn_path))
    return pool


BUILDERS = {"pipeline": build_pipeline, "sections": build_sections, "cli": build_cli}


def build(workload: str, seed: int, workdir: Path
          ) -> tuple[list[Query], list[tuple[int, Query]], Files]:
    """The query pool of one run, the drawn queries that hit a known defect, and
    the files they read, yet to be written to workdir; the same seed gives the
    same pool. Each defect query comes with the number of pool queries drawn
    before it, so a run can tell which of them fell within its range."""
    rng = random.Random(f"{workload}:{seed}")
    files = Files(workdir)
    pool, defects = [], []
    for q in BUILDERS[workload](rng, POOL_SIZE[workload], files):
        if q.defect:
            defects.append((len(pool), q))
        else:
            pool.append(q)
    return pool, defects, files
