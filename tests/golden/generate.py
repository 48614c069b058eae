"""Write the golden CLI corpus: input files, then each case's report bytes and exit code.

Run from anywhere with `python tests/golden/generate.py`. Every case runs with
the working directory set to this folder, so the file paths in argv and the
digests in the reports do not depend on where the repository lives.
Regenerating the corpus changes what `tests/test_golden.py` checks: only a
change that means to alter report bytes should do it, and it says so.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

P2_FAN = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
P1XP1_FAN = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
             "cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}
P1CUBED_FAN = {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
               "cones": [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]}
# P2 blown up at the torus-fixed point of the cone spanned by (1,0) and (0,1)
P2_BLOWUP = {"rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
             "cones": [[0, 3], [3, 1], [1, 2], [0, 2]]}
P1XP1_REFINED = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]],
                 "cones": [[0, 4], [4, 1], [1, 2], [2, 5], [5, 3], [3, 0]]}


def piece(*slope, offset=None):
    out = {"slope": [str(x) for x in slope]}
    if offset is not None:
        out["offset"] = offset
    return out


def metric(coeffs, pieces):
    return {"divisor": {"coeffs": coeffs}, "pieces": pieces}


# O(3) on P2 with weight 1 along the ray (1,0); O(2) with weight 1/2 along (0,1)
P2_W3 = metric({"1,0": "0", "0,1": "0", "-1,-1": "3"},
               [piece(1, 0), piece(3, 0), piece(1, 2, offset="1/2")])
P2_W2 = metric({"1,0": "0", "0,1": "0", "-1,-1": "2"},
               [piece(0, "1/2"), piece("3/2", "1/2"), piece(0, 2)])
P2_MIN1 = metric({"1,0": "0", "0,1": "0", "-1,-1": "1"}, [piece(0, 0), piece(1, 0), piece(0, 1)])
P2_MIN2 = metric({"1,0": "0", "0,1": "0", "-1,-1": "2"}, [piece(0, 0), piece(2, 0), piece(0, 2)])

# O(2,1) on P1xP1 with weight 1/2 along (1,0); O(1,2) with weight 1/3 along (0,1)
P1XP1_A = metric({"1,0": "0", "0,1": "0", "-1,0": "2", "0,-1": "1"},
                 [piece("1/2", 0), piece(2, 0), piece("1/2", 1), piece(2, 1)])
P1XP1_B = metric(["1", "2", "0", "0"],
                 [piece(0, "1/3"), piece(1, "1/3"), piece(0, 2), piece(1, 2)])
P1XP1_MIN = metric({"1,0": "0", "0,1": "0", "-1,0": "1", "0,-1": "1"},
                   [piece(0, 0), piece(1, 0), piece(0, 1), piece(1, 1)])


def box3(lo, hi, coeffs):
    pieces = [piece(x, y, z) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])
              for z in (lo[2], hi[2])]
    return metric(coeffs, pieces)


# O(2,1,1) on (P1)^3 with weight 1/2 along (1,0,0); O(1,1,1) without weights
P1CUBED_A = box3(("1/2", 0, 0), (2, 1, 1),
                 {"-1,0,0": "2", "0,-1,0": "1", "0,0,-1": "1"})
P1CUBED_B = box3((0, 0, 0), (1, 1, 1), {"-1,0,0": "1", "0,-1,0": "1", "0,0,-1": "1"})
P1CUBED_MIN = box3((0, 0, 0), (1, 1, 1), {"-1,0,0": "1", "0,-1,0": "1", "0,0,-1": "1"})
P1CUBED_MIN211 = box3((0, 0, 0), (2, 1, 1), {"-1,0,0": "2", "0,-1,0": "1", "0,0,-1": "1"})


def weil_p2():
    """O(2 + 1/2^k) on P2, decreasing to O(2)."""
    approx = []
    for k in range(8):
        d = f"{2 * 2**k + 1}/{2**k}"
        approx.append(metric({"1,0": "0", "0,1": "0", "-1,-1": d},
                             [piece(0, 0), piece(d, 0), piece(0, d)]))
    return {"approximants": approx, "limit": P2_MIN2}


INPUTS = {
    "p2.json": {
        "fan": P2_FAN, "metric": P2_W3, "metrics": [P2_W3, P2_W2],
        "flag": {"cone": [[1, 0], [0, 1]]}, "kmax": 6,
        "chain": [P2_FAN, P2_BLOWUP],
        "bundles": {"E": {"summands": [P2_MIN1, P2_MIN1]}, "F": {"summands": [P2_MIN2]}},
        "expression": "c1(E)^2 - c2(E)", "factors": [["E", 1], ["F", 1]],
    },
    "p2_same.json": {"fan": P2_FAN, "metric": P2_W2, "metrics": [P2_W2, P2_W2],
                     "flag": {"cone": [[0, 1], [-1, -1]], "order": [[0, 1], [1, 0]]}},
    "p2_class.json": {"fan": P2_FAN, "flag": {"cone": [[1, 0], [0, 1]]},
                      "divisor": {"coeffs": {"1,0": "0", "0,1": "0", "-1,-1": "3"}}},
    "p2_weil.json": {"fan": P2_FAN, "weil": weil_p2(), "weils": [weil_p2(), weil_p2()],
                     "flag": {"cone": [[1, 0], [0, 1]]}, "tol": "1/10"},
    "p1xp1.json": {
        "fan": P1XP1_FAN, "metric": P1XP1_A, "metrics": [P1XP1_A, P1XP1_B],
        "flag": {"cone": [[1, 0], [0, 1]], "order": [[0, 1], [1, 0]]}, "kmax": 5,
        "chain": [P1XP1_FAN, P1XP1_REFINED],
        "bundles": {"E": {"summands": [P1XP1_MIN, P1XP1_MIN]},
                    "F": {"summands": [P1XP1_MIN]}},
        "expression": "c2(E) + c1(F)^2", "factors": [["E", 1], ["F", 1]],
    },
    "p1xp1_class.json": {"fan": P1XP1_FAN, "flag": {"cone": [[-1, 0], [0, -1]]},
                         "divisor": {"coeffs": ["0", "0", "2", "1"]}},
    "p1cubed.json": {
        "fan": P1CUBED_FAN, "metric": P1CUBED_A,
        "metrics": [P1CUBED_A, P1CUBED_B, P1CUBED_A],
        "flag": {"cone": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "kmax": 3,
        "chain": [P1CUBED_FAN],
        "bundles": {"E": {"summands": [P1CUBED_MIN]}, "F": {"summands": [P1CUBED_MIN211]}},
        "expression": "c1(E)^2 * c1(F)", "factors": [["E", 2], ["F", 1]],
    },
    "p1cubed_class.json": {"fan": P1CUBED_FAN, "flag": {"cone": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                           "divisor": {"coeffs": {"-1,0,0": "1", "0,-1,0": "2", "0,0,-1": "1"}}},
    "tvm.json": {"ideal": {"nvars": 2, "gens": [[2, 0], [1, 1], [0, 3]]},
                 "lams": ["1/2", "5/4"], "ps": [3, 5], "emax": 10},
    "bad_fan.json": {"fan": {"rays": P2_FAN["rays"], "cones": [[0, 7]]}, "metric": P2_W3},
    "ideal2.json": {"nvars": 2, "gens": [[4, 0], [1, 1], [0, 5]]},
    "ideal3.json": {"nvars": 3, "gens": [[2, 0, 0], [0, 2, 0], [0, 0, 3]]},
    "batch.json": {"runs": [
        ["volume", "--scenario", "p2.json"],
        ["volume", "--scenario", "bad_fan.json"],
        ["mideal", "--ideal", "ideal2.json", "--c", "3/2"],
        ["mass", "--scenario", "missing.json"],
    ]},
}

SCENARIO_COMMANDS = ["intersect", "volume", "mass", "okounkov", "partial-okounkov",
                     "chern", "profile"]
SUITES = ["chern-weil-line", "okouniden", "segre-comm", "dfvol"]


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for stem in ("p2", "p1xp1", "p1cubed"):
        for command in SCENARIO_COMMANDS:
            out.append((f"{stem}-{command}", [command, "--scenario", f"{stem}.json"]))
        for suite in SUITES:
            out.append((f"{stem}-verify-{suite}",
                        ["verify", "--suite", suite, "--scenario", f"{stem}.json"]))
        out.append((f"{stem}-okounkov-class", ["okounkov", "--scenario", f"{stem}_class.json"]))
    out += [
        ("p2-same-intersect", ["intersect", "--scenario", "p2_same.json"]),
        ("p2-same-verify-chern-weil-line",
         ["verify", "--suite", "chern-weil-line", "--scenario", "p2_same.json"]),
        ("p2-same-verify-okouniden",
         ["verify", "--suite", "okouniden", "--scenario", "p2_same.json"]),
        ("p2-same-partial-okounkov", ["partial-okounkov", "--scenario", "p2_same.json",
                                      "--kmax", "4"]),
        ("p2-weil-volume", ["volume", "--scenario", "p2_weil.json"]),
        ("p2-weil-volume-tol", ["volume", "--scenario", "p2_weil.json", "--tol", "1/1000"]),
        ("p2-weil-intersect", ["intersect", "--scenario", "p2_weil.json"]),
        ("p2-weil-okounkov", ["okounkov", "--scenario", "p2_weil.json"]),
        ("p2-verify-dfvol-kmax", ["verify", "--suite", "dfvol", "--scenario", "p2.json",
                                  "--kmax", "4"]),
        ("mideal-2", ["mideal", "--ideal", "ideal2.json", "--c", "7/3"]),
        ("mideal-3", ["mideal", "--ideal", "ideal3.json", "--c", "3/2"]),
        ("tideal-2", ["tideal", "--ideal", "ideal2.json", "--lam", "5/4", "--p", "3"]),
        ("tideal-3", ["tideal", "--ideal", "ideal3.json", "--lam", "1/2", "--p", "2",
                      "--emax", "8"]),
        ("tideal-not-prime", ["tideal", "--ideal", "ideal2.json", "--lam", "1", "--p", "4"]),
        ("verify-test-vs-multiplier",
         ["verify", "--suite", "test-vs-multiplier", "--scenario", "tvm.json"]),
        ("batch", ["batch", "batch.json"]),
        ("error-missing-subcommand", []),
        ("error-unknown-subcommand", ["frobnicate"]),
        ("error-missing-scenario", ["volume"]),
        ("error-bad-suite", ["verify", "--suite", "nope", "--scenario", "p2.json"]),
        ("error-bad-kmax", ["partial-okounkov", "--scenario", "p2.json", "--kmax", "x"]),
        ("error-unknown-option", ["mass", "--scenario", "p2.json", "--frob"]),
        ("error-bad-tol", ["volume", "--scenario", "p2_weil.json", "--tol", "0"]),
        ("error-bad-fan", ["volume", "--scenario", "bad_fan.json"]),
        ("help", ["-h"]),
        ("help-volume", ["volume", "-h"]),
        ("help-verify", ["verify", "--help"]),
    ]
    return out


def invoke(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the console script, help included."""
    from toricbdiv import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def main() -> None:
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))
    # argparse wraps help text to the terminal width
    os.environ["COLUMNS"] = "80"
    os.chdir(HERE)
    for name, payload in INPUTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=1) + "\n")
    os.makedirs("expected", exist_ok=True)
    index = []
    for case_id, argv in cases():
        code, text = invoke(argv)
        with open(os.path.join("expected", f"{case_id}.txt"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        index.append({"id": case_id, "argv": argv, "exit": code})
        print(f"{code} {case_id}")
    with open("cases.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(index, indent=1) + "\n")


if __name__ == "__main__":
    main()
