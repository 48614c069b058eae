"""The parse memo of toricbdiv.report against its uncached parsers."""
from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricbdiv import report
from toricbdiv.cli import run
from toricbdiv.report import CliError

FANS = {
    "p2": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]},
    "p1xp1": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
              "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]},
}

small = st.integers(-3, 3)
rational = st.builds(lambda p, q: f"{p}/{q}", small, st.integers(1, 4))


@st.composite
def metrics(draw, fan_json):
    """A valid metric on the fan: integer slopes, then each a_rho large enough that
    every slope lies in P_D, with the coefficient map in a drawn key order."""
    rays = fan_json["rays"]
    slopes = draw(st.lists(st.tuples(small, small), min_size=1, max_size=4))
    coeffs = {}
    for ray in draw(st.permutations(rays)):
        lowest = min(m[0] * ray[0] + m[1] * ray[1] for m in slopes)
        coeffs[",".join(map(str, ray))] = str(draw(st.integers(0, 2)) - lowest)
    if draw(st.booleans()):
        coeffs = [coeffs[",".join(map(str, ray))] for ray in sorted(map(tuple, rays))]
    pieces = [{"slope": [str(x) for x in m], "offset": draw(rational)} for m in slopes]
    return {"divisor": {"coeffs": coeffs}, "pieces": pieces}


@st.composite
def flags(draw):
    """A unimodular flag cone and order on a 2-dimensional fan."""
    def unimodular():
        k = draw(small)
        rows = [[1, k], [0, 1]]
        if draw(st.booleans()):
            rows.reverse()
        return [[-x for x in r] for r in rows] if draw(st.booleans()) else rows
    flag = {"cone": unimodular()}
    if draw(st.booleans()):
        flag["order"] = unimodular()
    return flag


@st.composite
def ideals(draw):
    nvars = draw(st.integers(1, 3))
    exponent = st.integers(0, 4) | st.integers(0, 4).map(str)
    gens = draw(st.lists(st.lists(exponent, min_size=nvars, max_size=nvars),
                         min_size=1, max_size=4))
    return {"nvars": nvars, "gens": gens}


@st.composite
def inputs(draw):
    """(memoized parser, uncached parser, fan or None, the JSON value) of one input."""
    name = draw(st.sampled_from(sorted(FANS)))
    fan = report.fan_of({"fan": FANS[name]}, name)
    kind = draw(st.sampled_from(["metric", "flag", "ideal", "fan"]))
    if kind == "metric":
        return report.metric_of, report._metric, fan, draw(metrics(FANS[name]))
    if kind == "flag":
        return (lambda f, d, w: report.flag_of(f, {"flag": d}, w)), report._flag, fan, draw(flags())
    if kind == "ideal":
        return (lambda f, d, w: report.ideal_of(d, w)), report._ideal, None, draw(ideals())
    return (lambda f, d, w: report.fan_of({"fan": d}, w)), report._fan, None, FANS[name]


def _fresh(parse, fan, data, where):
    return parse(data, where) if fan is None else parse(fan, data, where)


@settings(max_examples=150, deadline=None)
@given(inputs())
def test_a_memoized_parse_is_the_uncached_parse_and_is_kept(case):
    memoized, uncached, fan, data = case
    first = memoized(fan, data, "first.json")
    assert first == _fresh(uncached, fan, data, "fresh.json")
    # an equal value read again, at another path, is the object parsed first
    assert memoized(fan, copy.deepcopy(data), "second.json") is first


def _volume(path: Path, scn: dict) -> tuple[int, dict]:
    path.write_text(json.dumps(scn) + "\n", encoding="utf-8")
    code, text = run(["volume", "--scenario", str(path)])
    return code, json.loads(text)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FANS)).flatmap(
    lambda name: st.tuples(st.just(name), metrics(FANS[name]), metrics(FANS[name]))))
def test_files_are_read_on_every_call(case):
    name, one, other = case
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a.json"), Path(tmp, "b.json")
        # the same bad bytes at two paths raise twice, each naming its own path
        bad = {"fan": FANS[name], "metric": {**one, "pieces": [{"slope": ["1"]}]}}
        for path in (a, b):
            code, rep = _volume(path, bad)
            assert code == 2
            assert rep["error"]["message"] == f"slope of length 2 expected in {path} pieces[0]"
        # a rewritten file gives the answer of what it holds now
        _, first = _volume(a, {"fan": FANS[name], "metric": one})
        _, rewritten = _volume(a, {"fan": FANS[name], "metric": other})
        _, direct = _volume(b, {"fan": FANS[name], "metric": other})
        assert rewritten == direct
        assert rewritten["inputs"] != first["inputs"] or one == other


@pytest.mark.parametrize("order", [["1,0", "2,0"], ["2,0", "1,0"]])
def test_a_ray_named_twice_raises_in_either_order_and_is_not_kept(order):
    fan = report.fan_of({"fan": FANS["p2"]}, "p2")
    coeffs = dict.fromkeys(order, "0") | {"0,1": "0", "-1,-1": "1"}
    for _ in range(2):
        with pytest.raises(ValueError, match="ray given twice"):
            report.divisor_of(fan, {"coeffs": coeffs}, "scenario")
        with pytest.raises(ValueError, match="ray given twice"):
            report._divisor(fan, {"coeffs": coeffs}, "scenario")


def test_errors_are_not_kept():
    for where in ("a.json", "b.json"):
        with pytest.raises(CliError, match=f"bad ideal in {where}"):
            report.ideal_of({"nvars": 1, "gens": [[True]]}, where)
    assert not any(key[0] is report._ideal and "true" in key[2] for key in report._parsed)
