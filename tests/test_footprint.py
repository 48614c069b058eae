"""What a fresh interpreter loads: the b-divisor pipeline and most commands run without numpy.

Only the lattice-run kernel of `polytopes` and the power-row kernel of `ideals` (three or
more generators) import numpy, inside the functions that use it. The lattice budget is
checked before either, and `export-plot` of a metric enumerates no lattice points.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import toricbdiv

GOLDEN = Path(__file__).parent / "golden"

_CHILD = r'''
import json, os, sys
from fractions import Fraction
from pathlib import Path

import toricbdiv, toricbdiv.cli
from toricbdiv import bdiv, cli, fans, ideals, okounkov, polytopes, toric
from toricbdiv.rationals import fmt

out = {"numpy at import": "numpy" in sys.modules}
p2 = fans.make_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
o = lambda d: toric.divisor(p2, {(1, 0): 0, (0, 1): 0, (-1, -1): d})
h = toric.metric_with_ray_weights(o(3), {(1, 0): Fraction(1, 2)})
g = toric.metric_with_ray_weights(o(3), {(0, 1): 1})
bh, bg = bdiv.bdiv_of_metric(h).cartier, bdiv.bdiv_of_metric(g).cartier
nu = okounkov.flag([(1, 0), (0, 1)])
cb = lambda d: bdiv.bdiv_of_metric(toric.metric_with_ray_weights(o(d), {})).cartier
w = bdiv.weil([cb(2 + Fraction(1, 2**k)) for k in range(12)], cb(2))
nef = bdiv.intersect_nef([w, w], Fraction(1, 100))
out["pipeline"] = {
    "vol": fmt(bdiv.vol(bh)), "np_mass": fmt(toric.np_mass([h, g])),
    "chern_weil": bdiv.chern_weil_line([h, h]).to_json(),
    "okouniden": okounkov.verify_okouniden(h, nu).to_json(),
    "intersect": fmt(bdiv.intersect_cartier([bh, bg])),
    "nef": [fmt(nef.lo), fmt(nef.hi), nef.certified]}

os.chdir(sys.argv[1])  # the golden cases name their files relative to it
out["golden"] = {}
for case in json.loads(Path("cases.json").read_text(encoding="utf-8")):
    if case["argv"][:1] and case["argv"][0] in ("volume", "mass", "okounkov", "intersect", "chern", "mideal"):
        code, text = cli.run(case["argv"])
        expected = Path("expected", case["id"] + ".txt").read_bytes()
        out["golden"][case["id"]] = code == case["exit"] and text.encode("utf-8") == expected
# O(100000) on P^2: its box at k = 1 has over 50 million cells
big = Path(sys.argv[2], "big.json")
big.write_text(json.dumps({"fan": json.loads(Path("p2.json").read_text(encoding="utf-8"))["fan"],
    "metric": {"divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "100000"}},
               "pieces": [{"slope": s} for s in (["0", "0"], ["100000", "0"], ["0", "100000"])]},
    "flag": {"cone": [[1, 0], [0, 1]]}}),
    encoding="utf-8")
out["lattice-free"] = {}
for name, argv in [("plot p2", ["export-plot", "--scenario", "p2.json"]),
                   ("plot p1cubed", ["export-plot", "--scenario", "p1cubed.json"]),
                   ("partial budget", ["partial-okounkov", "--scenario", str(big), "--kmax", "1"]),
                   ("dfvol budget", ["verify", "--suite", "dfvol", "--scenario", str(big), "--kmax", "1"])]:
    if argv[0] == "export-plot":
        argv += ["--out", str(Path(sys.argv[2], name + ".json"))]
    code, text = cli.run(argv)
    out["lattice-free"][name] = [code, json.loads(text).get("error", {}).get("message")]
out["numpy after"] = "numpy" in sys.modules

p = h.body
hulls, limit = okounkov.partial_okounkov(h, nu, 4)
tst = ideals.test_ideal(ideals.TestIdealQuery(
    ideals.make_ideal(2, [[4, 0], [1, 1], [0, 5]]), Fraction(5, 4), 3))
out["numpy kernels"] = {
    "lattice_counts": polytopes.lattice_counts(p, range(1, 9)),
    "partial": [[[fmt(x) for x in v] for v in q.vertices] for q in hulls],
    "limit": limit.to_json(), "test_ideal": tst.to_json()}
out["numpy at last"] = "numpy" in sys.modules
print(json.dumps(out))
'''

# the answers with numpy loaded at import, as the package did before it loaded numpy lazily
PIPELINE = {
    "vol": "25/4", "np_mass": "5",
    "chern_weil": {"lhs": "25/4", "rhs": "25/4", "verdict": "equal", "mid": "25/4"},
    "okouniden": {"lhs": {"vertices": [["0", "0"], ["0", "5/2"], ["5/2", "0"]], "provenance": "bdiv_limit"},
                  "shift": ["1/2", "0"],
                  "rhs": {"vertices": [["1/2", "0"], ["1/2", "5/2"], ["3", "0"]],
                          "provenance": "partial_Gk", "shift": ["1/2", "0"]},
                  "verdict": "equal"},
    "intersect": "5", "nef": ["4", "1050625/262144", True]}
NUMPY_KERNELS = {
    "lattice_counts": [6, 21, 36, 66, 91, 136, 171, 231],
    "partial": [[["1", "0"], ["1", "2"], ["3", "0"]], [["1/2", "0"], ["1/2", "5/2"], ["3", "0"]],
                [["2/3", "0"], ["2/3", "7/3"], ["3", "0"]], [["1/2", "0"], ["1/2", "5/2"], ["3", "0"]]],
    "limit": {"vertices": [["1/2", "0"], ["1/2", "5/2"], ["3", "0"]], "provenance": "partial_Gk",
              "shift": ["1/2", "0"]},
    "test_ideal": {"nvars": 2, "gens": [[2, 0], [1, 1], [0, 2]]}}


def test_pipeline_and_most_commands_run_without_numpy(tmp_path):
    src = str(Path(toricbdiv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(GOLDEN), str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["numpy at import"] is False
    assert len(out["golden"]) == 30  # 25 answers, 4 errors and one help text
    assert all(out["golden"].values()), out["golden"]
    budget = [3, "lattice enumeration budget exceeded"]
    assert out["lattice-free"] == {"plot p2": [0, None], "plot p1cubed": [0, None],
                                   "partial budget": budget, "dfvol budget": budget}
    assert out["numpy after"] is False
    assert out["pipeline"] == PIPELINE
    # the kernels that load numpy answer as they did with numpy loaded at import
    assert out["numpy kernels"] == NUMPY_KERNELS
    assert out["numpy at last"] is True
