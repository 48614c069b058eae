"""Run one seeded workload of the toricbdiv benchmark and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Workloads: pipeline, sections, cli (see README.md in this directory).
Each measurement runs worker.py in a fresh interpreter that imports the
package from ./src, builds the seeded query pool, runs a closed loop with one
client and no think time, and checks every answer afterwards.

--trace 0 prints the end-to-end metrics. setup_s is the median of several
fresh interpreters, each timed from its start to the moment its first query
could be sent, less the time spent creating the cli workload's input files;
the measured run is one of them. Query and set-up times are
scaled to the speed of a fixed probe timed alongside them, which takes out the
host's drift; the unscaled figures are printed too.

--trace 1 prints the per-layer metrics: the workload's fixed first queries
run once plainly and once under cProfile, each in its own interpreter, and
trace.overhead_ratio is the ratio of their loop times. Spans and metrics go to
.perfbench_out/ as JSON.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; `correct` is false when any counted query
failed. Drawn queries whose input hits a known defect of the package
(workloads.KNOWN_DEFECTS, inputs in known_defects.json) are not counted: they
run after the timed loop, and each is printed as reproduced, fixed or
unexpected; an unexpected one makes `correct` false too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "sections", "cli")
SETUP_ONLY_RUNS = 4  # plus the measured run: setup_s is a median of five
DEADLINE_S = 170.0   # the whole run, children included, ends before 180 s
END_TO_END = {"queries_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "success_ratio": "1", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise WorkerError(f"worker exceeded the time limit: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-3000:]}")
    out = json.loads(lines[-1])
    out["setup_raw_s"] = out["ready"] - spawned - out["files_s"]
    out["setup_s"] = out["setup_raw_s"] * out["setup_speed"]
    return out


def _failure_lines(failures: list[dict]) -> list[str]:
    return [f"failure #{f['id']} {f['kind']} input: {f['input']} cause: {f['cause']}"
            for f in failures]


def _defect_lines(defects: list[dict]) -> list[str]:
    if not defects:
        return []
    counts = Counter(d["outcome"] for d in defects)
    lines = [f"known defects, not counted: {len(defects)} drawn queries within the run's "
             f"range hit one; run after the loop: "
             + ", ".join(f"{counts[k]} {k}" for k in ("reproduced", "fixed", "unexpected"))]
    lines += [f"known defect {d['outcome']}: {d['kind']} input: {d['input']} cause: {d['cause']}"
              for d in defects]
    if counts["fixed"]:
        lines.append("a known defect no longer fails: rerun perfbench/defect_table.py")
    return lines


def end_to_end(base: list[str], seconds: float, deadline: float):
    setups = [_worker(deadline, *base, "--mode", "setup") for _ in range(SETUP_ONLY_RUNS)]
    m = _worker(deadline, *base, "--mode", "measure", "--seconds", str(seconds))
    setup = [s["setup_s"] for s in setups + [m]]
    raw = [x * 1000.0 for x in m["latencies"]]
    lat = [x * f for x, f in zip(raw, m["speed"])]  # scaled to the reference host speed
    wall = m["wall"] * sum(lat) / sum(raw)
    n, failed = len(lat), len(m["failures"])
    rank90 = math.ceil(0.9 * n)
    metrics = {"queries_per_s": (n - failed) / wall,
               "latency_p50_ms": statistics.median(lat),
               "latency_p90_ms": sorted(lat)[rank90 - 1],
               "success_ratio": (n - failed) / n,
               "setup_s": statistics.median(setup),
               "peak_rss_mb": m["rss_mb"]}
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(m["kinds"].items()))
    counts = {"queries_per_s": f"{n - failed} answered correctly in {m['wall']:.3f} s",
              "latency_p50_ms": f"{n} queries",
              "latency_p90_ms": f"{n} queries, {n - rank90} beyond p90",
              "success_ratio": f"{n} attempted",
              "setup_s": f"median of {len(setup)} fresh interpreters: "
                         + " ".join(f"{x:.3f}" for x in setup) + "; unscaled: "
                         + " ".join(f"{s['setup_raw_s']:.3f}" for s in setups + [m])
                         + f"; not counted: {m['files']} input files written in "
                         f"{m['files_s']:.3f} s",
              "peak_rss_mb": "1 process, ru_maxrss after the loop"}
    lines = [f"closed loop, 1 client, {seconds:g} s: {n} queries ({kinds}); "
             f"oracles took {m['oracle_s']:.3f} s after the loop"
             + (" -- pool exhausted, run ended early" if m["pool_exhausted"] else "")]
    lines.append(f"host speed: {m['probes']} probes, speed factor median "
                 f"{statistics.median(m['speed']):.3f}, range {min(m['speed']):.3f} to "
                 f"{max(m['speed']):.3f}; unscaled: queries_per_s {(n - failed) / m['wall']:.6g}, "
                 f"latency_p50_ms {statistics.median(raw):.6g}, "
                 f"latency_p90_ms {sorted(raw)[rank90 - 1]:.6g}")
    lines += [f"{k:<15} {v:.6g} {END_TO_END[k]}  (n: {counts[k]})" for k, v in metrics.items()]
    lines.append(f"{'failed_ratio':<15} {failed / n:.6g} 1  (n: {failed} failed of {n} attempted)")
    lines += _defect_lines(m["defects"])
    unexpected = [d for d in m["defects"] if d["outcome"] == "unexpected"]
    return metrics, n, m["failures"], lines, unexpected


def per_layer(base: list[str], workload: str, seed: int, deadline: float):
    plain = _worker(deadline, *base, "--mode", "prefix", "--profile", "0")
    traced = _worker(deadline, *base, "--mode", "prefix", "--profile", "1")
    metrics = traced["layers"]
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "per_layer": metrics,
                                "plain_loop_s": plain["wall"], "spans": traced["spans"]},
                               indent=1), encoding="utf-8")
    lines = [f"traced {traced['attempted']} queries: loop {traced['wall']:.3f} s traced, "
             f"{plain['wall']:.3f} s plain; spans in {path.relative_to(ROOT)}"]
    return metrics, traced["attempted"], traced["failures"], lines, plain["failures"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "toricbdiv" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'toricbdiv'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            metrics, attempted, failures, lines, other = per_layer(base, args.workload,
                                                                   args.seed, deadline)
            units = layers.UNITS
        else:
            metrics, attempted, failures, lines, other = end_to_end(base, args.seconds,
                                                                    deadline)
            units = END_TO_END
    except WorkerError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines + _failure_lines(failures):
        print(line)
    if other:
        print(f"UNEXPECTED outside the counted queries: {json.dumps(other)}")
    print(json.dumps({"correct": not failures and not other, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
