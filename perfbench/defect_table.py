"""List the cli workload's test-ideal inputs on which test_ideal hits a known defect.

    python3 perfbench/defect_table.py        # about 30 minutes on one core

Runs ideals.test_ideal, with the workload's e_max, on every input the cli
workload can draw for `tideal` and `verify --suite test-vs-multiplier`: every
ideal workloads.draw_ideal can return (each antichain of at most three
exponent vectors in its box), every exponent in workloads._LAMS and every
prime workloads._primes_for allows. The inputs that raise an error of
workloads.KNOWN_DEFECTS go to known_defects.json, which the workload reads to
run those queries after its timed loop instead of in it. Any other error stops
the script. Rerun it whenever test_ideal or the generator changes.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from toricbdiv import ideals  # noqa: E402

import workloads as w  # noqa: E402


def support() -> list[ideals.MonomialIdeal]:
    """Every ideal draw_ideal can return, in a fixed order."""
    out = []
    for n, top in sorted(w._TOP.items()):
        points = list(product(range(top + 1), repeat=n))
        for r in (1, 2, 3):
            for combo in combinations(points, r):
                ideal = ideals.make_ideal(n, [list(x) for x in combo])
                if len(ideal.gens) == r:  # the r points form an antichain
                    out.append(ideal)
    return out


def main() -> int:
    start = time.monotonic()
    found, by_case, tried = [], Counter(), 0
    for ideal in support():
        for lam in w._LAMS:
            for p in w._primes_for(ideal):
                tried += 1
                try:
                    ideals.test_ideal(ideals.TestIdealQuery(ideal, lam, p, w._EMAX))
                except ValueError as exc:
                    if str(exc) not in w.KNOWN_DEFECTS:
                        raise
                    found.append([[list(g) for g in ideal.gens], str(lam), p])
                    by_case[(p, str(lam))] += 1
    out = HERE / "known_defects.json"
    out.write_text(json.dumps({"emax": w._EMAX, "inputs": found}, separators=(",", ":"))
                   + "\n", encoding="utf-8")
    print(f"{len(found)} of {tried} inputs hit a known defect "
          f"({time.monotonic() - start:.0f} s); written to {out.name}")
    for (p, lam), count in sorted(by_case.items()):
        print(f"  p {p}, lam {lam}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
