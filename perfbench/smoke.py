"""Smoke test of the benchmark at its smallest run size.

    python3 perfbench/smoke.py

For every workload it runs run.py with --seconds 0, once with --trace 0 and
once with --trace 1. The timed loop then stops at its minimum of 100 queries,
and the traced run takes its usual fixed prefix. It checks that

- the last line is the JSON result, with every metric BENCHMARK.json names
  and the unit it gives;
- every end-to-end metric, and failed_ratio, is printed with its sample count;
- every oracle passed, and every drawn query that hits a known defect, run
  after the loop, either reproduced the defect or answered right;
- the traced run wrote its spans;
- known_defects.json lists the documented test_ideal e_max case.

It also checks that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files. Exits 0 when every
check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "sections", "cli")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace))
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}, "
                        f"units {sorted(k for k in wanted if k in got and got[k] != wanted[k])}")
    if not trace:
        for name in list(wanted) + ["failed_ratio"]:
            if not any(line.startswith(name + " ") and "(n: " in line for line in lines):
                problems.append(f"{where}: no printed line for {name} with its sample count")
    else:
        trace_file = ROOT / ".perfbench_out" / f"trace-{workload}-seed1.json"
        if not json.loads(trace_file.read_text())["spans"]:
            problems.append(f"{where}: no spans in {trace_file}")
    problems += [f"{where}: {line}" for line in lines
                 if line.startswith(("failure", "known defect unexpected", "UNEXPECTED"))]
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, failed {result['failed']}, "
                        f"attempted {result['attempted']}")
    defects = [line for line in lines if line.startswith("known defects")]
    print(f"{where}: {result['attempted']} queries, {result['failed']} failed, "
          f"{len(result['metrics'])} metrics" + "".join(f"; {d}" for d in defects), flush=True)
    return problems


def _check_defect_table() -> list[str]:
    """The documented case: ideal ((4,0),(1,1),(0,5)), lam 7/3, p 2, e_max 8."""
    table = json.loads((HERE / "known_defects.json").read_text(encoding="utf-8"))
    if [[[4, 0], [1, 1], [0, 5]], "7/3", 2] not in table["inputs"]:
        return ["known_defects.json lacks the documented test_ideal e_max case"]
    return []


def _check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py printed a result without the package source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_bare_directory() + _check_defect_table()
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += _check_run(workload, trace, spec)
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
