"""Command line contract: exit codes, report shapes, byte stability."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricbdiv
from toricbdiv import cli, fans, report
from toricbdiv.cli import run
from toricbdiv.report import CliError

P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
GOLDEN = Path(__file__).parent / "golden"


def mk(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path)


def metric_json(deg, pieces):
    return {"divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": str(deg)}},
            "pieces": [{"slope": [str(x) for x in s]} for s in pieces]}


def scn_weighted_o3(tmp_path):
    # weight 1 along the ray (1,0): model polytope is a shifted 2-simplex
    return mk(tmp_path, "w3.json", {
        "fan": P2_FAN,
        "metric": metric_json(3, [(1, 0), (3, 0), (1, 2)]),
        "metrics": [metric_json(3, [(1, 0), (3, 0), (1, 2)])] * 2,
        "flag": {"cone": [[1, 0], [0, 1]]},
    })


def report_of(text):
    return json.loads(text)


# -- core commands -------------------------------------------------------------

def test_intersect_and_volume(tmp_path):
    scn = scn_weighted_o3(tmp_path)
    code, text = run(["intersect", "--scenario", scn])
    assert code == 0
    rep = report_of(text)
    assert rep["outputs"]["value"] == "4"
    assert rep["timing_ms"] is None
    assert "verdict" not in rep
    code, text = run(["volume", "--scenario", scn])
    assert code == 0
    assert report_of(text)["outputs"]["value"] == "4"


def test_mass(tmp_path):
    scn = scn_weighted_o3(tmp_path)
    code, text = run(["mass", "--scenario", scn])
    assert code == 0
    assert report_of(text)["outputs"]["value"] == "4"


def test_volume_empty_pieces_precondition(tmp_path):
    scn = mk(tmp_path, "empty.json", {
        "fan": P2_FAN,
        "metric": {"divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "1"}},
                   "pieces": []},
    })
    code, text = run(["volume", "--scenario", scn])
    assert code == 3
    rep = report_of(text)
    assert rep["error"]["code"] == 3
    assert rep["error"]["message"] == "model polytope empty"


def test_volume_negative_lelong_precondition(tmp_path):
    scn = mk(tmp_path, "neg.json", {
        "fan": P2_FAN,
        "metric": metric_json(1, [(-1, 0)]),
    })
    code, text = run(["volume", "--scenario", scn])
    assert code == 3
    assert report_of(text)["error"]["message"] == "negative Lelong number"


def test_okounkov_class_body(tmp_path):
    scn = mk(tmp_path, "cls.json", {
        "fan": P2_FAN,
        "divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "3"}},
        "flag": {"cone": [[1, 0], [0, 1]]},
    })
    out = str(tmp_path / "verts.json")
    code, text = run(["okounkov", "--scenario", scn, "--out", out])
    assert code == 0
    body = report_of(text)["outputs"]["body"]
    assert body["volume"] == "9/2"
    assert body["provenance"] == "class"
    assert body["shift"] == ["0", "0"]
    assert json.loads(open(out).read())["vertices"] == \
        [["0", "0"], ["0", "3"], ["3", "0"]]


def test_partial_okounkov(tmp_path):
    scn = scn_weighted_o3(tmp_path)
    code, text = run(["partial-okounkov", "--scenario", scn, "--kmax", "4"])
    assert code == 0
    out = report_of(text)["outputs"]
    assert len(out["hulls"]) == 4
    assert out["distances"] == ["0"] * 4
    assert out["limit"]["shift"] == ["1", "0"]
    assert out["limit"]["volume"] == "2"


def test_mideal_golden_bytes(tmp_path):
    ideal = mk(tmp_path, "xy.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    code, text = run(["mideal", "--ideal", ideal, "--c", "5/2"])
    assert code == 0
    rep = report_of(text)
    assert rep["outputs"] == {"nvars": 2, "gens": [[1, 0], [0, 1]]}
    # byte determinism: identical invocations render identical reports
    assert run(["mideal", "--ideal", ideal, "--c", "5/2"])[1] == text
    assert text.endswith("\n")
    assert json.dumps(rep, sort_keys=True, indent=2) + "\n" == text


def test_tideal(tmp_path):
    ideal = mk(tmp_path, "x.json", {"nvars": 1, "gens": [[1]]})
    code, text = run(["tideal", "--ideal", ideal, "--lam", "2", "--p", "2"])
    assert code == 0
    assert report_of(text)["outputs"]["gens"] == [[2]]
    code, text = run(["tideal", "--ideal", ideal, "--lam", "3/2", "--p", "4"])
    assert code == 3
    assert report_of(text)["error"]["message"] == "p must be prime"


def test_chern(tmp_path):
    scn = mk(tmp_path, "ch.json", {
        "fan": P2_FAN,
        "bundles": {"E": {"summands": [metric_json(1, [(0, 0), (1, 0), (0, 1)])] * 2}},
        "expression": "c2(E)",
    })
    code, text = run(["chern", "--scenario", scn])
    assert code == 0
    assert report_of(text)["outputs"] == {"expression": "c2(E)", "value": "1"}
    bad = mk(tmp_path, "chbad.json", {
        "fan": P2_FAN,
        "bundles": {"E": {"summands": [metric_json(1, [(0, 0), (1, 0), (0, 1)])]}},
        "expression": "c2(E",
    })
    code, text = run(["chern", "--scenario", bad])
    assert code == 2
    assert "parse error at position" in report_of(text)["error"]["message"]


def test_profile(tmp_path):
    refined = {"rays": [[1, 0], [0, 1], [-1, -1], [1, -1], [-1, 1]],
               "cones": [[0, 1], [1, 4], [4, 2], [2, 3], [3, 0]]}
    scn = mk(tmp_path, "prof.json", {
        "fan": P2_FAN,
        "metric": metric_json(2, [(0, 0), (1, 1)]),
        "chain": [P2_FAN, refined],
    })
    code, text = run(["profile", "--scenario", scn])
    assert code == 0
    out = report_of(text)["outputs"]
    assert out["limit"] == "0"
    assert out["profile"][0] == "4"


def test_export_plot(tmp_path):
    scn = mk(tmp_path, "plot.json", {
        "fan": P2_FAN,
        "divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "1"}},
        "flag": {"cone": [[1, 0], [0, 1]]},
    })
    out = str(tmp_path / "plot_out.json")
    code, text = run(["export-plot", "--scenario", scn, "--out", out])
    assert code == 0
    payload = json.loads(open(out).read())
    assert payload["approximate"] is True
    assert [0.0, 0.0] in payload["vertices"]
    code, text = run(["export-plot", "--scenario", scn])
    assert code == 2


# on P^2: a flat model polytope, one with no integer point at k = 1, and one
# whose box at k = 1 has over 50 million cells; the limit body needs no sections
EXPORT_METRICS = {
    "flat": (metric_json(2, [(0, 0), (1, 0), (2, 0)]), [[0.0, 0.0], [2.0, 0.0]]),
    "no-section-at-k-1": (metric_json(1, [(Fraction(1, 3), Fraction(1, 3)), (Fraction(2, 3), Fraction(1, 3)),
                                          (Fraction(1, 3), Fraction(2, 3))]), None),
    "large": (metric_json(100000, [(0, 0), (100000, 0), (0, 100000)]),
              [[0.0, 0.0], [0.0, 100000.0], [100000.0, 0.0]]),
}


@pytest.mark.parametrize("name", EXPORT_METRICS)
def test_export_plot_of_a_metric_writes_its_limit_body(tmp_path, name):
    metric, want = EXPORT_METRICS[name]
    scn = mk(tmp_path, "plot.json", {"fan": P2_FAN, "metric": metric, "flag": {"cone": [[1, 0], [0, 1]]}})
    out = str(tmp_path / "plot_out.json")
    code, text = run(["export-plot", "--scenario", scn, "--out", out])
    assert code == 0, text
    got = json.loads(open(out).read())["vertices"]
    assert report_of(text)["outputs"]["count"] == len(got)
    if want is None:
        # the limit of partial-okounkov, whose first section is at k = 2
        code, text = run(["partial-okounkov", "--scenario", scn, "--kmax", "2"])
        assert code == 0
        want = [[float(Fraction(x)) for x in v] for v in report_of(text)["outputs"]["limit"]["vertices"]]
    assert got == want


# -- verify suites ----------------------------------------------------------------

def test_verify_suites_pass(tmp_path):
    scn = scn_weighted_o3(tmp_path)
    for suite in ("chern-weil-line", "okouniden"):
        code, text = run(["verify", "--suite", suite, "--scenario", scn])
        assert code == 0, text
        assert report_of(text)["verdict"] == "equal"
    seg = mk(tmp_path, "seg.json", {
        "fan": P2_FAN,
        "bundles": {"E": {"summands": [metric_json(1, [(0, 0), (1, 0), (0, 1)])] * 2},
                    "F": {"summands": [metric_json(2, [(0, 0), (2, 0), (0, 2)])]}},
        "factors": [["E", 1], ["F", 1]],
    })
    code, text = run(["verify", "--suite", "segre-comm", "--scenario", seg])
    assert code == 0
    rep = report_of(text)
    assert rep["outputs"]["forward"] == rep["outputs"]["reverse"]
    code, text = run(["verify", "--suite", "dfvol", "--scenario", scn])
    assert code == 0
    rep = report_of(text)
    assert rep["outputs"]["mass_route"] == rep["outputs"]["volume_route"] == "4"
    tvm = mk(tmp_path, "tvm.json", {
        "ideal": {"nvars": 2, "gens": [[1, 0], [0, 1]]},
        "lams": ["1/2", "3/2"], "ps": [2, 3],
    })
    code, text = run(["verify", "--suite", "test-vs-multiplier", "--scenario", tvm])
    assert code == 0
    rep = report_of(text)
    assert len(rep["outputs"]["grid"]) == 4
    assert all(cell["match"] for cell in rep["outputs"]["grid"])


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_dfvol_nonpositive_kmax_is_domain_error(tmp_path, kmax):
    scn = scn_weighted_o3(tmp_path)
    code, text = run(["verify", "--suite", "dfvol", "--scenario", scn, "--kmax", kmax])
    assert code == 3
    assert report_of(text)["error"] == {"code": 3, "message": "k must be positive"}


def test_dfvol_lattice_budget_is_domain_error(tmp_path):
    # O(10000) on P^2: counting its 2-simplex scans a box of 10001^2 cells
    scn = mk(tmp_path, "big.json", {
        "fan": P2_FAN, "metric": metric_json(10000, [(0, 0), (10000, 0), (0, 10000)])})
    code, text = run(["verify", "--suite", "dfvol", "--scenario", scn, "--kmax", "1"])
    assert code == 3
    assert report_of(text)["error"] == {"code": 3, "message": "lattice enumeration budget exceeded"}


@pytest.mark.parametrize("argv", [["partial-okounkov"], ["verify", "--suite", "dfvol"]],
                         ids=["partial-okounkov", "dfvol"])
def test_huge_kmax_fails_the_lattice_budget_at_once(argv):
    # the budget is checked for k_max P before the loop, not when the loop reaches k_max
    scn = str(Path(__file__).parent / "golden" / "p2.json")
    start = time.perf_counter()
    code, text = run(argv + ["--scenario", scn, "--kmax", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert report_of(text)["error"] == {"code": 3, "message": "lattice enumeration budget exceeded"}


@pytest.mark.parametrize("argv", [["partial-okounkov"], ["verify", "--suite", "dfvol"]],
                         ids=["partial-okounkov", "dfvol"])
def test_normals_past_int64_are_domain_errors(tmp_path, argv):
    # the thin triangle's facet normal (-1, -10^20) does not fit in int64
    scn = mk(tmp_path, "thin.json", {
        "fan": P2_FAN, "metric": metric_json(1, [(0, 0), (1, 0), (0, Fraction(1, 10**20))]),
        "flag": {"cone": [[1, 0], [0, 1]]}})
    code, text = run(argv + ["--scenario", scn, "--kmax", "3"])
    assert code == 3
    assert report_of(text)["error"] == {"code": 3, "message": "lattice enumeration exceeds int64"}


@pytest.mark.parametrize("argv", [
    ["mideal", "--c", "10000"],
    ["tideal", "--lam", "10000", "--p", "2"],
    ["tideal", "--lam", "1/2", "--p", "1000003", "--emax", "4"],
], ids=["mideal-box", "tideal-box", "tideal-counts"])
def test_ideal_work_budgets_fail_at_once(argv):
    ideal = str(Path(__file__).parent / "golden" / "ideal2.json")
    start = time.perf_counter()
    code, text = run(argv[:1] + ["--ideal", ideal] + argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 3
    kind = "multiplier" if argv[0] == "mideal" else "test"
    assert report_of(text)["error"] == {"code": 3, "message": f"{kind} ideal budget exceeded"}


@pytest.mark.parametrize("gens, lam, p, emax", [
    ([[1, 1]], "1/2", 1000000007, 12),
    ([[2, 0], [0, 3]], "3/2", 1000000007, 12),
    ([[1, 1]], "1", 3037000493, 2),
    ([[4, 0], [1, 1], [0, 5]], "1/1" + "0" * 30, 1000000007, 12),
], ids=["xy", "x2-y3", "xy-p-squared-past-int64", "three-generators"])
def test_large_primes_are_no_internal_error(tmp_path, gens, lam, p, emax):
    # q (m + 1) - 1 outgrows int64 at once; an answer must be the multiplier ideal
    ideal = mk(tmp_path, "ideal.json", {"nvars": 2, "gens": gens})
    code, text = run(["tideal", "--ideal", ideal, "--lam", lam, "--p", str(p), "--emax", str(emax)])
    assert code in (0, 3), text
    if code == 0:
        expect = report_of(run(["mideal", "--ideal", ideal, "--c", lam])[1])["outputs"]
        assert report_of(text)["outputs"] == expect


@pytest.mark.parametrize("lam, p, emax", [("3/2", 3, 6), ("7/3", 5, 8)])
def test_four_generators_answer_within_seconds(tmp_path, lam, p, emax):
    # the plateau probe at e = 5 once searched 8.2 million compositions per member call
    ideal = mk(tmp_path, "x.json", {"nvars": 2, "gens": [[3, 0], [2, 1], [1, 2], [0, 3]]})
    start = time.perf_counter()
    code, text = run(["tideal", "--ideal", ideal, "--lam", lam, "--p", str(p), "--emax", str(emax)])
    assert time.perf_counter() - start < 5
    assert code == 0, text
    expect = report_of(run(["mideal", "--ideal", ideal, "--c", lam])[1])["outputs"]
    assert report_of(text)["outputs"] == expect


@pytest.mark.parametrize("emax", ["12", "1000000"])
def test_four_generators_within_the_row_budget_answer(tmp_path, emax):
    # comb(N + 2, 2) rows, not comb(N + 3, 3) compositions; columns x rows passes 10^8 from
    # e = 10 on, so the chain ends at e = 9, whatever e_max: the plateau at e = 3, 4 probes
    # e = 8, which differs, and e = 9 repeats e = 8
    ideal = mk(tmp_path, "x.json", {"nvars": 3, "gens": [[3, 2, 0], [3, 1, 2], [1, 2, 2], [0, 1, 3]]})
    start = time.perf_counter()
    code, text = run(["tideal", "--ideal", ideal, "--lam", "7/3", "--p", "2", "--emax", emax])
    assert time.perf_counter() - start < 5
    assert code == 0, text
    expect = report_of(run(["mideal", "--ideal", ideal, "--c", "7/3"])[1])["outputs"]
    assert report_of(text)["outputs"] == expect


@pytest.mark.parametrize("argv", [["mideal", "--c", "1"], ["tideal", "--lam", "1", "--p", "2"]],
                         ids=["mideal", "tideal"])
def test_zero_variable_ideal_is_the_unit_ideal(tmp_path, argv):
    ideal = mk(tmp_path, "unit0.json", {"nvars": 0, "gens": [[]]})
    code, text = run(argv[:1] + ["--ideal", ideal] + argv[1:])
    assert code == 0, text
    assert report_of(text)["outputs"] == {"nvars": 0, "gens": [[]]}


_IDEAL_COMMANDS = {
    "mideal": lambda path: ["mideal", "--ideal", path, "--c", "1"],
    "tideal": lambda path: ["tideal", "--ideal", path, "--lam", "1", "--p", "2"],
    "tvm": lambda path: ["verify", "--suite", "test-vs-multiplier", "--scenario", path],
}


def _ideal_file(tmp_path, kind, ideal):
    """The file `kind` reads the ideal from: the ideal itself, or a test-vs-multiplier scenario."""
    return mk(tmp_path, "ideal.json", {**TVM, "ideal": ideal} if kind == "tvm" else ideal)


@pytest.mark.parametrize("kind", sorted(_IDEAL_COMMANDS))
@pytest.mark.parametrize("ideal", [
    {"nvars": 1, "gens": [[1.5]]},
    {"nvars": 1, "gens": [[1.0]]},
    {"nvars": 1, "gens": [[True]]},
    {"nvars": 2.7, "gens": [[1, 0]]},
    {"nvars": True, "gens": [[1]]},
    {"nvars": 1, "gens": [["x"]]},
], ids=["float-exponent", "integral-float-exponent", "bool-exponent", "float-nvars",
        "bool-nvars", "word-exponent"])
def test_non_integer_ideal_entries_are_input_errors(tmp_path, kind, ideal):
    # these were truncated by int(): 1.5 and true answered for x, 2.7 for two variables
    path = _ideal_file(tmp_path, kind, ideal)
    code, text = run(_IDEAL_COMMANDS[kind](path))
    assert code == 2, text
    assert report_of(text)["error"]["message"].startswith(f"bad ideal in {path}: bad integer")


@pytest.mark.parametrize("kind", sorted(_IDEAL_COMMANDS))
@pytest.mark.parametrize("ideal", [[[1, 0]], "x", 3, None], ids=["list", "string", "number", "null"])
def test_ideal_that_is_not_an_object_is_named(tmp_path, kind, ideal):
    # these echoed Python's TypeError text, such as "'int' object is not subscriptable"
    path = _ideal_file(tmp_path, kind, ideal)
    code, text = run(_IDEAL_COMMANDS[kind](path))
    assert code == 2, text
    assert report_of(text)["error"]["message"] == f"bad ideal in {path}: ideal must be an object"


@pytest.mark.parametrize("kind", sorted(_IDEAL_COMMANDS))
def test_ideal_entries_may_be_strings_of_integers(tmp_path, kind):
    # int_of's rule: a JSON integer or a string of one
    answers = []
    for ideal in ({"nvars": 2, "gens": [[2, 1]]}, {"nvars": "2", "gens": [["2", "1"]]}):
        code, text = run(_IDEAL_COMMANDS[kind](_ideal_file(tmp_path, kind, ideal)))
        assert code == 0, text
        answers.append(report_of(text)["outputs"])
    assert answers[0] == answers[1]


@pytest.mark.parametrize("emax", ["0", "-3"])
def test_emax_below_one_is_an_input_error(tmp_path, emax):
    # no exponent is tried, so "no stabilization by e_max" would be no verdict at all
    ideal = str(GOLDEN / "ideal2.json")
    code, text = run(["tideal", "--ideal", ideal, "--lam", "5/4", "--p", "3", "--emax", emax])
    assert code == 2
    assert report_of(text)["error"] == {"code": 2, "message": "--emax must be at least 1"}
    scn = mk(tmp_path, "tvm.json", {**TVM, "emax": int(emax)})
    code, text = run(["verify", "--suite", "test-vs-multiplier", "--scenario", scn])
    assert code == 2
    assert report_of(text)["error"] == {"code": 2, "message": f"emax must be at least 1 in {scn}"}
    code, text = run(["tideal", "--ideal", ideal, "--lam", "5/4", "--p", "3", "--emax", "1"])
    assert code in (0, 3) and "at least 1" not in text


def test_verify_gap_exit(tmp_path, monkeypatch):
    scn = scn_weighted_o3(tmp_path)
    monkeypatch.setitem(cli._SUITE_FNS, "okouniden",
                        lambda args, scn: ({"note": "forced"}, "gap"))
    code, text = run(["verify", "--suite", "okouniden", "--scenario", scn])
    assert code == 1
    assert report_of(text)["verdict"] == "gap"


def test_weil_interval(tmp_path):
    approx = []
    for k in range(8):
        d = f"{2*2**k + 1}/{2**k}"
        approx.append({"divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": d}},
                       "pieces": [{"slope": ["0", "0"]}, {"slope": [d, "0"]},
                                  {"slope": ["0", d]}]})
    limit = metric_json(2, [(0, 0), (2, 0), (0, 2)])
    scn = mk(tmp_path, "weil.json", {"fan": P2_FAN,
                                     "weil": {"approximants": approx, "limit": limit}})
    code, text = run(["volume", "--scenario", scn, "--tol", "1/10"])
    assert code == 0
    iv = report_of(text)["outputs"]["interval"]
    assert iv["lo"] == "4"
    assert iv["certified"] is True


@pytest.mark.parametrize("argv, want", [
    (["volume"], {"interval": {"certified": False, "lo": "4", "hi": "4"}}),
    (["intersect"], {"interval": {"certified": False, "lo": "4", "hi": "4"}}),
    (["okounkov"], {"body": {"provenance": "bdiv_limit", "shift": ["0", "0"], "volume": "2",
                             "vertices": [["0", "0"], ["0", "2"], ["2", "0"]]}}),
], ids=["volume", "intersect", "okounkov"])
def test_weil_of_one_approximant_and_no_limit(tmp_path, argv, want):
    # O(2) on P^2 as the only approximant: no gap to stop on and no limit to certify
    weil = {"approximants": [metric_json(2, [(0, 0), (2, 0), (0, 2)])]}
    scn = mk(tmp_path, "weil1.json", {"fan": P2_FAN, "weil": weil, "weils": [weil] * 2,
                                      "flag": {"cone": [[1, 0], [0, 1]]}})
    code, text = run(argv + ["--scenario", scn])
    assert code == 0
    assert report_of(text)["outputs"] == want


# -- parse failures -----------------------------------------------------------------

def test_parse_errors(tmp_path):
    code, text = run(["frobnicate"])
    assert code == 2
    code, text = run([])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, text = run(["volume", "--scenario", str(bad)])
    assert code == 2
    msg = report_of(text)["error"]["message"]
    assert "parse error in" in msg and "line 1" in msg
    code, text = run(["volume", "--scenario", str(tmp_path / "missing.json")])
    assert code == 2
    scn = mk(tmp_path, "nofan.json", {"metric": metric_json(1, [(0, 0)])})
    code, text = run(["volume", "--scenario", scn])
    assert code == 2
    assert "missing key 'fan'" in report_of(text)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["volume", "--scenario"], ["mideal", "--c", "1", "--ideal"], ["batch"],
], ids=["scenario", "ideal", "manifest"])
def test_non_utf8_input_is_a_parse_error(tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"nvars": 1, "gens": [[1]], "note": "\xff"}\n')
    code, text = run(argv + [str(path)])
    assert code == 2, text
    assert report_of(text)["error"]["message"] == f"parse error in {path}: invalid UTF-8 at byte 37"


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda s: s["fan"]["cones"].append([0, 3]), "cone index out of range",
                 id="cone-index-past-end"),
    pytest.param(lambda s: s["fan"]["cones"].append([0, -1]), "cone index out of range",
                 id="cone-index-negative"),
    pytest.param(lambda s: s["fan"]["rays"].append(["1/0", "1"]), "bad fan in",
                 id="ray-zero-denominator"),
    pytest.param(lambda s: s["metric"]["pieces"].append({"offset": "1"}), "missing key 'slope'",
                 id="piece-without-slope"),
    pytest.param(lambda s: s["metric"]["pieces"].append({"slope": ["1/0", "0"]}),
                 "bad rational '1/0'", id="slope-zero-denominator"),
    pytest.param(lambda s: s["metric"]["divisor"]["coeffs"].update({"0,1": "1/0"}),
                 "bad rational '1/0'", id="coeff-zero-denominator"),
    pytest.param(lambda s: s["metric"]["divisor"]["coeffs"].update({"x": "2"}),
                 "bad ray 'x'", id="coeff-key-not-integers"),
    pytest.param(lambda s: s["metric"]["divisor"]["coeffs"].update({"1.5,0": "1"}),
                 "bad ray '1.5,0'", id="coeff-key-not-integral"),
    pytest.param(lambda s: s["metric"]["pieces"].append({"slope": ["1", "0", "0"]}),
                 "slope of length 2", id="slope-too-long"),
    pytest.param(lambda s: s["metric"]["pieces"].append({"slope": ["1"]}),
                 "slope of length 2", id="slope-too-short"),
    pytest.param(lambda s: s["metric"].update({"pieces": 5}), "pieces must be a list",
                 id="pieces-not-a-list"),
    pytest.param(lambda s: s["metric"]["divisor"]["coeffs"].update({"1,0,0": "1"}),
                 "ray of length 2 expected", id="coeff-key-wrong-length"),
    pytest.param(lambda s: s["metric"]["divisor"].update({"coeffs": ["0", "0"]}),
                 "3 coefficients expected", id="coeff-list-wrong-length"),
])
def test_malformed_scenario_is_input_error(tmp_path, edit, message):
    scn = {"fan": json.loads(json.dumps(P2_FAN)), "metric": metric_json(3, [(0, 0), (1, 0)])}
    edit(scn)
    code, text = run(["volume", "--scenario", mk(tmp_path, "bad.json", scn)])
    assert code == 2
    assert message in report_of(text)["error"]["message"]


@pytest.mark.parametrize("coeffs", [
    pytest.param({"1,0": "0", "2,0": "-1", "0,1": "0", "-1,-1": "3"}, id="primitive-first"),
    pytest.param({"2,0": "-1", "1,0": "0", "0,1": "0", "-1,-1": "3"}, id="multiple-first"),
    pytest.param({"1,0": "0", "01,0": "-1", "0,1": "0", "-1,-1": "3"}, id="same-tuple"),
])
def test_a_ray_named_twice_is_a_precondition_error_in_either_order(tmp_path, coeffs):
    scn = {"fan": P2_FAN, "metric": {"divisor": {"coeffs": coeffs}, "pieces": [{"slope": ["0", "0"]}]}}
    code, text = run(["volume", "--scenario", mk(tmp_path, "twice.json", scn)])
    assert code == 3, text
    assert report_of(text)["error"]["message"] == "ray given twice"


@pytest.mark.parametrize("argv, edit, message", [
    pytest.param(["volume"], lambda s: s["fan"]["rays"].__setitem__(0, [True, 0]),
                 "cannot coerce bool", id="fan-ray-true"),
    pytest.param(["volume"], lambda s: s["fan"]["cones"].__setitem__(0, [0, True]),
                 "not bool", id="cone-index-true"),
    pytest.param(["volume"], lambda s: s["fan"]["cones"].__setitem__(0, [0, 1.0]),
                 "bad fan in", id="cone-index-float"),
    pytest.param(["volume"], lambda s: s["metric"]["divisor"]["coeffs"].update({"0,1": True}),
                 "bad rational 'True'", id="coeff-true"),
    pytest.param(["volume"], lambda s: s["metric"]["divisor"].update({"coeffs": [True, 0, 0]}),
                 "bad rational 'True'", id="coeff-list-true"),
    pytest.param(["volume"], lambda s: s["metric"]["pieces"].append({"slope": [True, "0"]}),
                 "bad rational 'True'", id="slope-true"),
    pytest.param(["volume"], lambda s: s["metric"]["pieces"][0].update({"offset": True}),
                 "bad rational 'True'", id="offset-true"),
    pytest.param(["okounkov"], lambda s: s.update({"flag": {"cone": [[1, 0], [0, 1.5]]}}),
                 "bad integer '1.5'", id="flag-cone-float"),
    pytest.param(["okounkov"], lambda s: s.update({"flag": {"cone": [[1, 0], [0, True]]}}),
                 "bad integer 'True'", id="flag-cone-true"),
    pytest.param(["okounkov"], lambda s: s.update(
        {"flag": {"cone": [[1, 0], [0, 1]], "order": [[0, 1], [1.9, 0]]}}),
                 "bad integer '1.9'", id="flag-order-float"),
])
def test_json_booleans_and_floats_are_not_integers(tmp_path, argv, edit, message):
    scn = {"fan": json.loads(json.dumps(P2_FAN)), "metric": metric_json(3, [(0, 0), (1, 0)]),
           "flag": {"cone": [[1, 0], [0, 1]]}}
    edit(scn)
    code, text = run(argv + ["--scenario", mk(tmp_path, "bad.json", scn)])
    assert code == 2, text
    assert message in report_of(text)["error"]["message"]


@pytest.mark.parametrize("text, key", [
    pytest.param('{"fan": %s, "metric": {"divisor": {"coeffs": {"1,0": "0", "0,1": "0", '
                 '"-1,-1": "1", "-1,-1": "3"}}, "pieces": [{"slope": ["0", "0"]}]}}', "-1,-1",
                 id="nested"),
    pytest.param('{"fan": {"rays": [], "cones": []}, "fan": %s, "metric": {"divisor": '
                 '{"coeffs": ["3", "0", "0"]}, "pieces": [{"slope": ["0", "0"]}]}}', "fan",
                 id="top-level"),
])
def test_a_key_given_twice_is_a_parse_error(tmp_path, text, key):
    # json.loads alone keeps the last value, which ran volume to exit 0
    path = tmp_path / "twice.json"
    path.write_text(text % json.dumps(P2_FAN) + "\n", encoding="utf-8")
    code, out = run(["volume", "--scenario", str(path)])
    assert code == 2, out
    assert report_of(out)["error"]["message"] == f"parse error in {path}: key '{key}' given twice"


@pytest.mark.parametrize("key", ["1_0,0", " 1,0", "1,0 ", "\u0661,0", "1,\u0660", "+-1,0", ","])
def test_a_ray_key_takes_only_ascii_digits(tmp_path, key):
    # int() alone reads "1_0" as 10, strips spaces and reads other scripts' digits
    coeffs = {key: "0", "0,1": "0", "-1,-1": "3"}
    scn = {"fan": P2_FAN, "metric": {"divisor": {"coeffs": coeffs}, "pieces": [{"slope": ["0", "0"]}]}}
    code, text = run(["volume", "--scenario", mk(tmp_path, "ray.json", scn)])
    assert code == 2, text
    assert report_of(text)["error"]["message"].startswith(f"bad ray '{key}' in ")


@pytest.mark.parametrize("exponent", ["1_0", " 1", "\u0661", "1.0", ""])
def test_an_ideal_exponent_takes_only_ascii_digits(tmp_path, exponent):
    ideal = mk(tmp_path, "ideal.json", {"nvars": 2, "gens": [[exponent, "0"], ["0", "1"]]})
    code, text = run(["mideal", "--ideal", ideal, "--c", "1"])
    assert code == 2, text
    assert report_of(text)["error"]["message"].endswith(f"bad integer '{exponent}'")


@pytest.mark.parametrize("key, exponent", [("+1,0", "+1"), ("01,-0", "01")])
def test_signed_ascii_integers_still_read(tmp_path, key, exponent):
    scn = {"fan": P2_FAN, "metric": {"divisor": {"coeffs": {key: "0", "0,1": "0", "-1,-1": "3"}},
                                     "pieces": [{"slope": ["0", "0"]}]}}
    code, text = run(["volume", "--scenario", mk(tmp_path, "ray.json", scn)])
    assert code == 0, text
    ideal = mk(tmp_path, "ideal.json", {"nvars": 1, "gens": [[exponent]]})
    code, text = run(["mideal", "--ideal", ideal, "--c", "1"])
    assert code == 0, text


# each of these reads as a small positive rational through Fraction() alone
LOOSE_RATIONALS = [" 1/2 ", "1.5", "1e1", "1_0", "١/2"]


def _rational_runs(tmp_path, value) -> dict:
    """An argv per place the CLI reads a rational, each given the value there."""
    line = {"1,0": "0", "0,1": "0", "-1,-1": "20"}

    def volume(coeff="20", slope="0", offset="0"):
        metric = {"divisor": {"coeffs": {**line, "-1,-1": coeff}},
                  "pieces": [{"slope": ["0", "0"]}, {"slope": [slope, "0"], "offset": offset}]}
        return ["volume", "--scenario", mk(tmp_path, "scn.json", {"fan": P2_FAN, "metric": metric})]

    ideal = mk(tmp_path, "ideal.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    return {"coeff": volume(coeff=value), "slope": volume(slope=value),
            "offset": volume(offset=value),
            "--c": ["mideal", "--ideal", ideal, "--c", value],
            "--lam": ["tideal", "--ideal", ideal, "--lam", value, "--p", "2"],
            "--tol": ["volume", "--scenario", str(GOLDEN / "p2_weil.json"), "--tol", value]}


@pytest.mark.parametrize("place", ["coeff", "slope", "offset", "--c", "--lam", "--tol"])
@pytest.mark.parametrize("value", LOOSE_RATIONALS)
def test_a_rational_takes_only_ascii_digits_and_one_slash(tmp_path, value, place):
    # Fraction() alone strips spaces and reads decimals, exponents, "1_0" and
    # other scripts' digits
    code, text = run(_rational_runs(tmp_path, value)[place])
    assert code == 2, text
    assert report_of(text)["error"]["message"].startswith(f"bad rational '{value}' in ")


@pytest.mark.parametrize("place", ["coeff", "slope", "offset", "--c", "--lam", "--tol"])
def test_signed_ascii_rationals_still_read(tmp_path, place):
    for value in ["+1/2", "04/2", "3"]:
        code, text = run(_rational_runs(tmp_path, value)[place])
        assert code == 0, (value, text)


def _int_option_runs(tmp_path, value) -> dict:
    ideal = mk(tmp_path, "ideal.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    return {"--kmax": ["partial-okounkov", "--scenario", str(GOLDEN / "p2.json"), "--kmax", value],
            "--p": ["tideal", "--ideal", ideal, "--lam", "1/2", "--p", value],
            "--emax": ["tideal", "--ideal", ideal, "--lam", "1/2", "--p", "2", "--emax", value]}


@pytest.mark.parametrize("option, value", [
    ("--kmax", "1_0"), ("--kmax", " 3"), ("--kmax", "٣"),
    ("--p", "1_1"), ("--p", " 3"), ("--p", "٣"),
    ("--emax", "1_0"), ("--emax", " 3"), ("--emax", "٣"),
])
def test_an_int_option_takes_only_ascii_digits(tmp_path, option, value):
    # argparse's int strips spaces and reads "1_0" and other scripts' digits
    code, text = run(_int_option_runs(tmp_path, value)[option])
    assert code == 2, text
    assert report_of(text)["error"]["message"] == f"argument {option}: invalid int value: {value!r}"
    code, text = run(_int_option_runs(tmp_path, "+3")[option])
    assert code == 0, text


@pytest.mark.parametrize("expr, position", [
    ("٣*c1(E)^2", 0), ("s١(E)^2", 0), ("c1(E)^٢", 6), ("c1(E)*c١(E)", 6),
])
def test_a_chern_expression_takes_only_ascii_digits(tmp_path, expr, position):
    # \d also matches other scripts' digits: each of these read as a degree-2 expression
    scn = json.loads((GOLDEN / "p2.json").read_text(encoding="utf-8"))
    scn["expression"] = expr
    code, text = run(["chern", "--scenario", mk(tmp_path, "p2.json", scn)])
    assert code == 2, text
    assert report_of(text)["error"]["message"] == f"parse error at position {position}"


@pytest.mark.parametrize("expr", [
    "c1(E)\u00a0^\u00a02", "c1(E)\u3000*\u2003c1(E)", "c1(E)\f^ 2", "c1(E)\v^ 2",
])
def test_a_chern_expression_takes_only_ascii_whitespace(tmp_path, expr):
    # \s also matches no-break, ideographic, em, form-feed and vertical-tab
    # spaces: each of these read as c1(E)^2, value 4
    scn = json.loads((GOLDEN / "p2.json").read_text(encoding="utf-8"))
    scn["expression"] = expr
    code, text = run(["chern", "--scenario", mk(tmp_path, "p2.json", scn)])
    assert code == 2, text
    assert report_of(text)["error"]["message"] == "parse error at position 5"


def test_malformed_flag_chain_and_bundles_are_input_errors(tmp_path):
    base = {"fan": P2_FAN, "metric": metric_json(3, [(0, 0), (1, 0)])}
    cases = [(["okounkov"], {"flag": {"cone": [[1, 0], ["x", 1]]}}, "bad flag"),
             (["okounkov"], {"flag": {"cone": 5}}, "bad flag"),
             (["okounkov"], {"flag": {"cone": [[1, 0], [0, 1]], "order": [[1]]}},
              "bad flag"),
             (["okounkov"], {"flag": {"cone": [[1, 0], [0, 1]], "order": [[1, 0]]}},
              "bad flag"),
             (["okounkov"], {"flag": {"cone": [[1, 0]]}}, "bad flag"),
             (["okounkov"], {"flag": {"cone": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
              "bad flag"),
             (["profile"], {"chain": [{"rays": [[1, 0]], "cones": [[1]]}]}, "chain[0]"),
             (["profile"], {"chain": 5}, "chain must be a list"),
             (["chern"], {"bundles": [1], "expression": "c1(E)"}, "bundles must map"),
             (["chern"], {"bundles": {"E": {"summands": 1}}, "expression": "c1(E)"},
              "summands must be a list")]
    for i, (argv, extra, message) in enumerate(cases):
        path = mk(tmp_path, f"bad{i}.json", {**base, **extra})
        code, text = run(argv + ["--scenario", path])
        assert code == 2, (argv, extra)
        assert message in report_of(text)["error"]["message"]


TVM = {"ideal": {"nvars": 2, "gens": [[1, 0], [0, 1]]}, "lams": ["1/2"], "ps": [2], "emax": 12}
W3 = metric_json(3, [(1, 0), (3, 0), (1, 2)])
SEG = {"fan": P2_FAN, "bundles": {"E": {"summands": [metric_json(1, [(0, 0), (1, 0), (0, 1)])]}}}


@pytest.mark.parametrize("argv, scn, message", [
    pytest.param(["verify", "--suite", "test-vs-multiplier"], {**TVM, "lams": ["1/0"]},
                 "bad rational '1/0'", id="lams-zero-denominator"),
    pytest.param(["verify", "--suite", "test-vs-multiplier"], {**TVM, "lams": "1/2"},
                 "lams must be a list", id="lams-not-a-list"),
    pytest.param(["verify", "--suite", "test-vs-multiplier"], {**TVM, "ps": ["x"]},
                 "bad integer 'x'", id="ps-not-an-integer"),
    pytest.param(["verify", "--suite", "test-vs-multiplier"], {**TVM, "ps": [2.5]},
                 "bad integer '2.5'", id="ps-fractional"),
    pytest.param(["verify", "--suite", "test-vs-multiplier"], {**TVM, "emax": "many"},
                 "bad integer 'many'", id="emax-not-an-integer"),
    pytest.param(["partial-okounkov"], {"fan": P2_FAN, "metric": W3, "kmax": "4.5",
                                        "flag": {"cone": [[1, 0], [0, 1]]}},
                 "bad integer '4.5'", id="kmax-not-an-integer"),
    pytest.param(["volume"], {"fan": P2_FAN, "metric": {**W3, "divisor": {"coeffs": 5}}},
                 "coeffs must be a list or a map", id="coeffs-not-a-list"),
    pytest.param(["mass"], {"fan": P2_FAN, "metrics": 5}, "metrics must be a list",
                 id="metrics-not-a-list"),
    pytest.param(["volume"], {"fan": P2_FAN, "weil": {"approximants": 5}},
                 "approximants must be a list", id="approximants-not-a-list"),
    pytest.param(["verify", "--suite", "segre-comm"], {**SEG, "factors": [["E", 2.5]]},
                 "bad integer '2.5'", id="segre-exponent-fractional"),
    pytest.param(["verify", "--suite", "segre-comm"], {**SEG, "factors": [["E", True]]},
                 "bad integer 'True'", id="segre-exponent-bool"),
])
def test_malformed_suite_and_list_inputs_are_input_errors(tmp_path, argv, scn, message):
    code, text = run(argv + ["--scenario", mk(tmp_path, "bad.json", scn)])
    assert code == 2
    assert message in report_of(text)["error"]["message"]


@pytest.mark.parametrize("golden, argv, key, value, message", [
    pytest.param("p2.json", ["verify", "--suite", "segre-comm"], "factors",
                 [[["E"], 1], ["F", 1]], "unknown bundle", id="list-as-factor-name"),
    pytest.param("p2.json", ["verify", "--suite", "segre-comm"], "factors",
                 [[{"E": 1}, 1]], "unknown bundle", id="object-as-factor-name"),
    pytest.param("p1xp1.json", ["chern"], "expression", -1, "expression must be a string",
                 id="number-as-expression"),
])
def test_non_string_names_are_input_errors(tmp_path, golden, argv, key, value, message):
    scn = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    scn[key] = value
    code, text = run(argv + ["--scenario", mk(tmp_path, golden, scn)])
    assert code == 2
    assert message in report_of(text)["error"]["message"]


@pytest.mark.parametrize("golden, argv, key, value, code, message", [
    pytest.param("p2.json", ["chern"], "expression", "1/0", 2, "parse error at position 0",
                 id="chern-zero-denominator"),
    pytest.param("p2.json", ["verify", "--suite", "chern-weil-line"], "metrics", [], 3,
                 "wrong count of bodies", id="chern-weil-without-metrics"),
    pytest.param("p2_weil.json", ["intersect"], "weils", 5, 2, "weils must be a list", id="weils-number"),
    pytest.param("p2_weil.json", ["intersect"], "weils", None, 2, "weils must be a list", id="weils-null"),
    pytest.param("p2_weil.json", ["intersect"], "weils", {}, 2, "weils must be a list", id="weils-object"),
    pytest.param("p2_weil.json", ["intersect"], "weils", [], 3, "wrong count of bodies", id="weils-empty"),
])
def test_malformed_golden_scenarios_exit_without_traceback(tmp_path, golden, argv, key, value, code, message):
    scn = json.loads((GOLDEN / golden).read_text(encoding="utf-8"))
    scn[key] = value
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got, text = run(argv + ["--scenario", mk(tmp_path, golden, scn)])
    assert got == code
    assert report_of(text)["error"]["code"] == code
    assert message in report_of(text)["error"]["message"]
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("expr, code, answer", [
    pytest.param("c22(E)", 3, "chern expression budget exceeded", id="c22"),
    pytest.param("c1(E)^20000", 3, "chern expression budget exceeded", id="c1-power"),
    pytest.param("c40(E) - c40(E) + c2(E)", 0, "1", id="cancels-at-parse"),
    pytest.param("*".join(["c1(E)"] * 4000), 3, "chern expression budget exceeded",
                 id="product-chain"),
    pytest.param(" + ".join(f"c1(A{i})" for i in range(2000)) + " + c2(E) - "
                 + " - ".join(f"c1(A{i})" for i in range(2000)), 0, "1", id="long-sum"),
    pytest.param(" + ".join(["(s1(E)+s2(E)+s3(E)+s4(E)+s5(E))^12"] * 100), 3,
                 "chern expression budget exceeded", id="sum-of-100-powers"),
    pytest.param(" + ".join(["(s1(E)+s2(E)+s3(E)+s4(E)+s5(E))^12"] * 10), 3,
                 "chern expression budget exceeded", id="sum-of-10-powers"),
    pytest.param(" + ".join(["*".join(["c1(E)"] * 700)] * 3), 3,
                 "chern expression budget exceeded", id="sum-of-product-chains"),
])
def test_chern_expansion_budget(tmp_path, expr, code, answer):
    # c_m in the s's spells 2^(m-1) compositions and a power or a chain of
    # products sorts ever longer monomials, so each charges the budget before it
    # expands (without it they took 26 s, over 40 s and 2.8 s); a symbol that
    # cancels at parse is never expanded, and a long sum is added up once. The
    # parse keeps one total for the whole expression, so a sum of terms that
    # each fit is charged as a whole (charged term by term, 100 powers ran ~16 s
    # and 10 powers or 3 chains ended in "exponent-sum mismatch")
    scn = json.loads((GOLDEN / "p2.json").read_text(encoding="utf-8"))
    scn["expression"] = expr
    t0 = time.monotonic()
    got, text = run(["chern", "--scenario", mk(tmp_path, "p2.json", scn)])
    assert time.monotonic() - t0 < 5.0
    assert got == code
    rep = report_of(text)
    assert (rep["error"]["message"] if code else rep["outputs"]["value"]) == answer


@pytest.mark.parametrize("expr, code, answer", [
    pytest.param("(" * 200 + "c2(E)" + ")" * 200, 0, "1", id="200-levels"),
    pytest.param("(" * 201 + "c2(E)" + ")" * 201, 2, "parse error at position 200", id="201-levels"),
    pytest.param("(" * 1200 + "c2(E)" + ")" * 1200, 2, "parse error at position 200",
                 id="1200-levels"),
    pytest.param("-" * 1200 + "c2(E)", 0, "1", id="1200-minuses"),
    pytest.param("-" * 1201 + "c2(E)", 0, "-1", id="1201-minuses"),
])
def test_chern_deep_expressions(tmp_path, capsys, expr, code, answer):
    # nesting stops at 200 levels as an input error, not at the recursion
    # limit as an internal one, and a run of minuses is one sign at any length
    scn = json.loads((GOLDEN / "p2.json").read_text(encoding="utf-8"))
    scn["expression"] = "c2(E)"
    plain = mk(tmp_path, "plain.json", scn)
    scn["expression"] = expr
    deep = mk(tmp_path, "deep.json", scn)
    assert report_of(run(["chern", "--scenario", plain])[1])["outputs"]["value"] == "1"
    got, text = run(["chern", "--scenario", deep])
    assert got == code
    rep = report_of(text)
    assert (rep["error"]["message"] if code else rep["outputs"]["value"]) == answer
    # inside a batch the entry answers the same
    got, text = run(["batch", mk(tmp_path, "runs.json", {"runs": [["chern", "--scenario", deep]]})])
    entry = report_of(text)["outputs"]["runs"][0]
    assert (got, entry["exit"]) == (code, code)
    assert entry["report"] == rep
    assert capsys.readouterr().err == ""


def test_ray_in_no_cone_is_input_error(tmp_path):
    # (1, 1) is listed as a ray, but no cone names it
    fan = {"rays": P2_FAN["rays"] + [[1, 1]], "cones": P2_FAN["cones"]}
    scn = mk(tmp_path, "orphan.json", {"fan": fan, "metric": metric_json(3, [(0, 0), (1, 0)])})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(["volume", "--scenario", scn])
    assert code == 2
    assert report_of(text)["error"] == {"code": 2, "message": f"bad fan in {scn}: ray in no cone"}
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("fan", [[[1]], [1, 2], "x", 3, None],
                         ids=["list-of-lists", "list", "string", "number", "null"])
def test_fan_that_is_not_an_object_is_named(tmp_path, fan):
    # these echoed Python's TypeError text, such as "list indices must be integers or slices, not str"
    scn = mk(tmp_path, "fan.json", {"fan": fan, "metric": metric_json(3, [(0, 0), (1, 0)])})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(["volume", "--scenario", scn])
    assert code == 2
    assert report_of(text)["error"] == {"code": 2, "message": f"bad fan in {scn}: fan must be an object"}
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("fan", [
    pytest.param({"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]], "cones": [[0, 1, 2], [0, 2, 3]]},
                 id="half-planes-F"),
    pytest.param({"rays": [[1, 0], [-1, 0], [1, 1], [0, -1]], "cones": [[0, 1, 2], [0, 1, 3]]},
                 id="half-planes-G"),
    pytest.param({"rays": [[1, 0], [0, 1], [-1, 0]], "cones": [[0, 1, 2]]}, id="one-half-plane"),
])
def test_cone_with_a_line_is_input_error(tmp_path, fan):
    coeffs = {",".join(map(str, r)): "0" for r in fan["rays"]}
    scn = mk(tmp_path, "line.json", {"fan": fan, "metric": {"divisor": {"coeffs": coeffs},
                                                             "pieces": [{"slope": ["0", "0"]}]}})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, text = run(["volume", "--scenario", scn])
    assert code == 2
    assert report_of(text)["error"] == {"code": 2, "message": f"bad fan in {scn}: cone not pointed"}
    assert "Traceback" not in err.getvalue()


def test_integer_strings_still_count_as_integers(tmp_path):
    scn = mk(tmp_path, "tvm.json", {**TVM, "ps": ["2"], "emax": "12"})
    code, text = run(["verify", "--suite", "test-vs-multiplier", "--scenario", scn])
    assert code == 0
    assert report_of(text)["outputs"]["grid"] == [{"lam": "1/2", "p": 2, "match": True}]


def test_bad_tolerance(tmp_path):
    scn2 = mk(tmp_path, "w2.json", {
        "fan": P2_FAN,
        "weils": [{"approximants": [metric_json(2, [(0, 0), (2, 0), (0, 2)])]}] * 2,
        "tol": "0",
    })
    code, text = run(["intersect", "--scenario", scn2])
    assert code == 2
    assert "tolerance must be positive" in report_of(text)["error"]["message"]


# -- timing and batch ------------------------------------------------------------------

def test_timing_flag(tmp_path):
    ideal = mk(tmp_path, "xy.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    code, text = run(["mideal", "--ideal", ideal, "--c", "1/2", "--timing"])
    assert code == 0
    assert isinstance(report_of(text)["timing_ms"], float)


def test_batch(tmp_path):
    ideal = mk(tmp_path, "xy.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{", encoding="utf-8")
    manifest = mk(tmp_path, "runs.json", {"runs": [
        ["mideal", "--ideal", ideal, "--c", "5/2"],
        ["mideal", "--ideal", str(corrupt), "--c", "1"],
        ["mideal", "--ideal", ideal, "--c", "0"],
    ]})
    code, text = run(["batch", manifest])
    assert code == 2
    rep = report_of(text)
    runs = rep["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [0, 2, 0]
    assert rep["outputs"]["worst_exit"] == 2
    assert runs[0]["report"]["outputs"]["gens"] == [[1, 0], [0, 1]]
    assert runs[2]["report"]["outputs"]["gens"] == [[0, 0]]


def test_batch_isolates_a_malformed_scenario(tmp_path):
    metric = metric_json(3, [(1, 0), (3, 0), (1, 2)])
    good = mk(tmp_path, "good.json", {"fan": P2_FAN, "metric": metric})
    bad = mk(tmp_path, "bad.json", {"fan": {"rays": P2_FAN["rays"], "cones": [[0, 7]]},
                                    "metric": metric})
    manifest = mk(tmp_path, "runs.json", [["volume", "--scenario", bad],
                                          ["volume", "--scenario", good]])
    code, text = run(["batch", manifest])
    assert code == 2
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [2, 0]
    assert "cone index out of range" in runs[0]["report"]["error"]["message"]
    assert runs[1]["report"]["outputs"]["value"] == "4"


def test_batch_isolates_a_zero_denominator_lam(tmp_path):
    bad = mk(tmp_path, "bad.json", {**TVM, "lams": ["1/0"]})
    good = mk(tmp_path, "good.json", TVM)
    suite = ["verify", "--suite", "test-vs-multiplier", "--scenario"]
    manifest = mk(tmp_path, "runs.json", [suite + [bad], suite + [good]])
    code, text = run(["batch", manifest])
    assert code == 2
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [2, 0]
    assert "bad rational '1/0'" in runs[0]["report"]["error"]["message"]
    assert runs[1]["report"]["verdict"] == "equal"


def test_batch_isolates_a_bad_ray_key(tmp_path):
    metric = metric_json(3, [(1, 0), (3, 0), (1, 2)])
    good = mk(tmp_path, "good.json", {"fan": P2_FAN, "metric": metric})
    broken = json.loads(json.dumps(metric))
    broken["divisor"]["coeffs"]["1.5,0"] = "1"
    bad = mk(tmp_path, "bad.json", {"fan": P2_FAN, "metric": broken})
    manifest = mk(tmp_path, "runs.json", [["volume", "--scenario", bad],
                                          ["volume", "--scenario", good]])
    code, text = run(["batch", manifest])
    assert code == 2
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [2, 0]
    assert "bad ray '1.5,0'" in runs[0]["report"]["error"]["message"]
    assert runs[1]["report"]["outputs"]["value"] == "4"


def test_batch_isolates_a_help_entry(tmp_path, capsys):
    ideal = mk(tmp_path, "x.json", {"nvars": 1, "gens": [[1]]})
    manifest = mk(tmp_path, "runs.json", [["volume", "-h"], ["--help"],
                                          ["mideal", "--ideal", ideal, "--c", "1/2"]])
    code, text = run(["batch", manifest])
    assert code == 2
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [2, 2, 0]
    assert runs[0]["report"]["error"]["message"] == "help is not available in batch"
    assert runs[2]["report"]["outputs"]["gens"] == [[0]]
    # the help text goes nowhere: stdout holds only what main() prints
    assert capsys.readouterr().out == ""


def test_batch_refuses_a_batch_entry(tmp_path, capsys):
    # a manifest that names itself ran about 110 levels deep, to a RecursionError
    ideal = mk(tmp_path, "x.json", {"nvars": 1, "gens": [[1]]})
    manifest = tmp_path / "self.json"
    manifest.write_text(json.dumps([["batch", str(manifest)],
                                    ["mideal", "--ideal", ideal, "--c", "1/2"]]), encoding="utf-8")
    code, text = run(["batch", str(manifest)])
    assert code == 2
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [2, 0]
    assert runs[0]["report"] == {"command": "batch",
                                 "error": {"code": 2, "message": "batch is not available in batch"}}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, depth):
    # json.loads raises RecursionError past the interpreter's recursion limit
    scn = tmp_path / "deep.json"
    scn.write_text('{"fan": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    manifest = tmp_path / "runs.json"
    manifest.write_text("[" * depth + "]" * depth, encoding="utf-8")
    for argv, path in ((["volume", "--scenario", str(scn)], scn), (["batch", str(manifest)], manifest)):
        code, text = run(argv)
        assert code == 2, text
        assert report_of(text)["error"]["message"] == f"parse error in {path}: nesting too deep"
    entry = mk(tmp_path, "entry.json", [["volume", "--scenario", str(scn)]])
    code, text = run(["batch", entry])
    assert code == 2
    assert report_of(text)["outputs"]["runs"][0]["report"]["error"]["message"] == \
        f"parse error in {scn}: nesting too deep"
    assert "Traceback" not in capsys.readouterr().err


def test_help_is_printed_with_exit_zero(capsys):
    code, text = run(["volume", "-h"])
    assert code == 0
    assert text.startswith("usage: toricbdiv volume [-h] --scenario SCENARIO")
    assert cli.main(["volume", "-h"]) == 0
    assert capsys.readouterr().out == text


def test_internal_error_is_reported_with_code_4(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setitem(cli._HANDLERS, "mass", broken)
    scn = scn_weighted_o3(tmp_path)
    code, text = run(["mass", "--scenario", scn])
    assert code == 4
    assert report_of(text) == {"command": "mass", "error": {
        "code": 4, "message": "internal error: KeyError: 'lost'"}}
    manifest = mk(tmp_path, "runs.json", [["mass", "--scenario", scn],
                                          ["volume", "--scenario", scn]])
    code, text = run(["batch", manifest])
    assert code == 4
    runs = report_of(text)["outputs"]["runs"]
    assert [r["exit"] for r in runs] == [4, 0]
    assert runs[0]["report"]["error"]["code"] == 4
    assert runs[1]["report"]["outputs"]["value"] == "4"


def test_parser_is_built_once(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("parser rebuilt"))
    ideal = mk(tmp_path, "x.json", {"nvars": 1, "gens": [[1]]})
    manifest = mk(tmp_path, "runs.json", [["mideal", "--ideal", ideal, "--c", "1/2"]])
    assert run(["batch", manifest])[0] == 0


def _parsed(parse, argv):
    """vars() of the parse, or the CliError or help text it raised."""
    try:
        return vars(parse(argv))
    except CliError as exc:
        return ("error", exc.code, exc.message)
    except cli._HelpRequested as exc:
        return ("help", exc.args[0])


GOLDEN_ARGVS = ([case["argv"] for case in json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))]
                + json.loads((GOLDEN / "batch.json").read_text(encoding="utf-8"))["runs"])


@pytest.mark.parametrize("argv", GOLDEN_ARGVS + [
    ["mass", "--frob"], ["volume"], ["tideal", "-h"], ["verify", "--suite", "nope"],
    ["verify", "--sc", "p2.json", "--suite", "dfvol"], ["chern", "--scenario=p2.json", "--tim"],
    ["mass", "--", "--scenario", "p2.json"], ["help"], ["--help", "mass"],
], ids=" ".join)
def test_a_subcommand_parser_reads_argv_as_the_top_parser_does(argv, monkeypatch):
    # argparse wraps help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert _parsed(cli._parse, argv) == _parsed(cli._PARSER.parse_args, argv)


def test_a_repeated_run_builds_no_fan_again(tmp_path, monkeypatch):
    scn = scn_weighted_o3(tmp_path)
    calls = []
    real = fans.dd.extreme_rays
    monkeypatch.setattr(fans, "dd", SimpleNamespace(
        extreme_rays=lambda rows, dim: calls.append(dim) or real(rows, dim)))
    fans._checked_fan.cache_clear()
    report._parsed.clear()
    first = run(["volume", "--scenario", scn])
    assert first[0] == 0 and calls
    calls.clear()
    assert run(["volume", "--scenario", scn]) == first and calls == []
    # what a file holds decides the answer, not its path
    mk(tmp_path, "w3.json", {"fan": P2_FAN, "metric": metric_json(1, [(0, 0), (1, 0), (0, 1)])})
    code, text = run(["volume", "--scenario", scn])
    assert code == 0 and report_of(text)["outputs"]["value"] == "1"


def test_batch_bare_list_and_empty(tmp_path):
    ideal = mk(tmp_path, "x.json", {"nvars": 1, "gens": [[1]]})
    manifest = mk(tmp_path, "bare.json",
                  [["mideal", "--ideal", ideal, "--c", "1/2"]])
    code, text = run(["batch", manifest])
    assert code == 0
    empty = mk(tmp_path, "none.json", {"runs": []})
    code, text = run(["batch", empty])
    assert code == 0
    assert report_of(text)["outputs"] == {"runs": [], "worst_exit": 0}
    badman = mk(tmp_path, "badman.json", {"runs": ["volume"]})
    code, text = run(["batch", badman])
    assert code == 2
    nullruns = mk(tmp_path, "nullruns.json", {"runs": None})
    code, text = run(["batch", nullruns])
    assert code == 2
    assert report_of(text)["error"]["message"].startswith("runs must be a list")


# -- console script ---------------------------------------------------------------------

def test_console_script(tmp_path):
    ideal = mk(tmp_path, "xy.json", {"nvars": 2, "gens": [[1, 0], [0, 1]]})
    # the child imports the package from where this process found it
    src = str(Path(toricbdiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "toricbdiv.cli",
                           "mideal", "--ideal", ideal, "--c", "5/2"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outputs"]["gens"] == [[1, 0], [0, 1]]


# -- fuzz ------------------------------------------------------------------------------

_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**63, -2**64, 10**40]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "x", "0", "-1", "1/2", "1/0", "1,0", "-1,-1", "E", "c1(E)"]),
    st.text(max_size=4))
_VALUE = st.one_of(_LEAF, st.lists(_LEAF, max_size=3),
                   st.dictionaries(st.sampled_from(["", "x", "1,0", "E"]), _LEAF, max_size=2))


def _paths(doc, path=()):
    """Every path to a value inside the JSON document, the root left out."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def _mutated(draw, doc):
    """The document with one or two values replaced or deleted, at random paths."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = doc
        for key in head:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = draw(_VALUE)
    return doc


def _commands(out):
    scenario = [["intersect"], ["volume"], ["mass"], ["okounkov"], ["partial-okounkov", "--kmax", "3"],
                ["chern"], ["profile"], ["export-plot", "--out", out]]
    scenario += [["verify", "--suite", suite, "--kmax", "3"] for suite in cli._SUITE_FNS]
    return {"scenario": [argv + ["--scenario"] for argv in scenario],
            "ideal": [["mideal", "--c", "7/3", "--ideal"], ["tideal", "--lam", "5/4", "--p", "3", "--ideal"]],
            "batch": [["batch"]]}


def _fuzz_inputs():
    docs = {name: ("scenario", json.loads((GOLDEN / name).read_text(encoding="utf-8")))
            for name in ("p2.json", "p2_weil.json", "p2_class.json", "p1xp1.json", "tvm.json")}
    docs["ideal2.json"] = ("ideal", json.loads((GOLDEN / "ideal2.json").read_text(encoding="utf-8")))
    # batch entries name their inputs relative to the golden folder
    runs = json.loads((GOLDEN / "batch.json").read_text(encoding="utf-8"))["runs"]
    docs["batch.json"] = ("batch", {"runs": [[str(GOLDEN / x) if x.endswith(".json") else x for x in argv]
                                             for argv in runs]})
    return docs


def test_mutated_inputs_never_crash(tmp_path):
    # every input fault maps to exit 2 or 3 with a JSON report, never to a traceback
    docs = _fuzz_inputs()
    commands = _commands(str(tmp_path / "plot.json"))

    @given(st.sampled_from(sorted(docs)).flatmap(
        lambda name: st.tuples(st.just(name), _mutated(docs[name][1]))))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def check(case):
        name, doc = case
        path = mk(tmp_path, name, doc)
        for argv in commands[docs[name][0]]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, text = run(argv + [path])
            assert code in (0, 1, 2, 3), (argv, doc, text)
            json.loads(text)
            assert "Traceback" not in err.getvalue()

    check()
