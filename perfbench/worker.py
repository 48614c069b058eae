"""One benchmark process: set up a workload, run its queries, check the answers.

run.py starts this script in a fresh interpreter for every measurement, so the
package's module-level caches start empty and set-up is timed from process
start. The last line of standard output is one JSON object.

Modes:
  setup    build the query pool, report when it was ready, and exit;
  measure  closed loop for --seconds (and at least 100 queries) with host-speed
           probes between queries, then the oracles, then the drawn queries
           that hit a known defect, outside the counted ones;
  prefix   the fixed first queries of the pool, under cProfile with --profile 1.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_QUERIES = 100  # so that at least ten latencies lie beyond p90
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_NOMINAL_S = 0.0025  # median _probe() time on the reference machine (README.md)
SETUP_PROBES = 4  # before and again after building the pool


def _eliminate(matrix: list[list[Fraction]]) -> None:
    """Gauss-Jordan elimination over Fraction, the exact kernel's kind of work."""
    rows = [row[:] for row in matrix]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        r += 1


_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + 2 * j) % 4) for j in range(7)]
                 for i in range(6)]


def _probe() -> float:
    """Time a fixed piece of exact arithmetic, the reference for the host's speed.

    The garbage collector is off meanwhile, so the size of the program's heap
    does not change the probe's time."""
    gc.disable()
    t0 = time.perf_counter()
    _eliminate(_PROBE_MATRIX)
    _eliminate(_PROBE_MATRIX)
    t1 = time.perf_counter()
    gc.enable()
    return t1 - t0


def _call(q):
    """The query's answer and None, or None and the error it raised."""
    try:
        return q.call(), None
    except Exception as exc:  # a raising query is a failure
        return None, f"{type(exc).__name__}: {exc}"


def _run_loop(queries, seconds: float | None, min_queries: int, probe: bool = False):
    """Closed loop, one client: each query starts when the previous one returns.

    With probe, the host's speed is probed between queries every PROBE_EVERY_S
    and once after the last query; probe time is left out of the wall time.
    """
    records, probes = [], []
    paused, next_probe = 0.0, 0.0
    start = time.perf_counter()
    for q in queries:
        now = time.perf_counter() - start
        if seconds is not None and len(records) >= min_queries and now - paused >= seconds:
            break
        if probe and now >= next_probe:
            d = _probe()
            probes.append((now, d))
            paused += d
            next_probe = now + PROBE_EVERY_S
        t0 = time.perf_counter()
        answer, error = _call(q)
        records.append((q, answer, error, t0 - start, time.perf_counter() - start))
    if probe:
        d = _probe()
        probes.append((time.perf_counter() - start, d))
        paused += d
    return records, time.perf_counter() - start - paused, probes


def _speed_factors(records, probes) -> list[float]:
    """Per query, PROBE_NOMINAL_S over the median probe within PROBE_WINDOW_S of it."""
    times = [t for t, _ in probes]
    out = []
    for *_, t0, t1 in records:
        near = [d for _, d in probes[bisect_left(times, t0 - PROBE_WINDOW_S):
                                     bisect_right(times, t1 + PROBE_WINDOW_S)]]
        out.append(PROBE_NOMINAL_S / statistics.median(near))
    return out


def _cause(q, answer, error) -> str | None:
    """Why the answer is wrong, or None: the oracle's verdict on one query."""
    if error is not None:
        return error
    try:
        return q.check(answer)
    except Exception as exc:
        return f"oracle raised {type(exc).__name__}: {exc}"


def _failures(records) -> list[dict]:
    """Run every oracle; one entry per query that raised or answered wrong."""
    out = []
    for qid, (q, answer, error, _, _) in enumerate(records):
        cause = _cause(q, answer, error)
        if cause:
            out.append({"id": qid, "kind": q.kind, "input": q.label, "cause": cause})
    return out


def _known_defects(queries, known: dict) -> list[dict]:
    """Run the queries that hit a known defect, after the loop and uncounted.

    Each is reproduced (fails with a known error), fixed (answers right) or
    unexpected (fails otherwise)."""
    out = []
    for q in queries:
        cause = _cause(q, *_call(q))
        outcome = ("fixed" if cause is None else
                   "reproduced" if any(text in cause for text in known) else "unexpected")
        out.append({"kind": q.kind, "input": q.label, "cause": cause, "outcome": outcome})
    return out


def _summary(records) -> dict:
    t0 = time.perf_counter()
    failures = _failures(records)
    return {"attempted": len(records), "failures": failures,
            "oracle_s": time.perf_counter() - t0,
            "kinds": dict(Counter(q.kind for q, *_ in records))}


def _measure(pool, defects, seconds: float, min_queries: int, known: dict) -> dict:
    records, wall, probes = _run_loop(pool, seconds, min_queries, probe=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = _summary(records)
    out["defects"] = _known_defects([q for drawn, q in defects if drawn < len(records)], known)
    out.update(wall=wall, rss_mb=rss_mb, latencies=[t1 - t0 for *_, t0, t1 in records],
               speed=_speed_factors(records, probes), probes=len(probes),
               pool_exhausted=len(records) == len(pool) and wall < seconds)
    return out


def _hull_points_per_vertex(records) -> float:
    """Points sent to polytopes.canonicalize per hull vertex it returns.

    Counted after the loop, without the profiler, by running the section-hull
    computation of each traced query again with canonicalize wrapped.
    """
    from toricbdiv import polytopes
    real = polytopes.canonicalize
    fed = returned = 0

    def counting(points):
        nonlocal fed, returned
        points = list(points)
        hull = real(points)
        fed += len(points)
        returned += len(hull.vertices)
        return hull

    polytopes.canonicalize = counting
    try:
        for q, _, error, _, _ in records:
            if q.hulls and error is None:
                q.hulls()
    finally:
        polytopes.canonicalize = real
    return fed / returned if returned else 0.0


def _prefix(pool, count: int, profile: bool) -> dict:
    queries = pool[:count]
    caches_before = layers.cache_counts()
    prof = cProfile.Profile() if profile else None
    if prof:
        prof.enable()
    records, wall, _ = _run_loop(queries, None, 0)
    if prof:
        prof.disable()
    caches_after = layers.cache_counts()  # before the oracles, which use the caches too
    out = _summary(records)
    out["wall"] = wall
    if not prof:
        return out
    metrics = layers.profile_metrics(pstats.Stats(prof), wall, caches_before, caches_after)
    n = len(records)
    metrics["dd.extreme_rays.calls_per_query"] = metrics["dd.extreme_rays.calls"] / n
    metrics["ideals._power_bracket.calls_per_query"] = metrics["ideals._power_bracket.calls"] / n
    distinct = {id(line) for q, *_ in records for line in q.lines}
    metrics["bdiv.bdiv_of_metric.calls_per_metric"] = (
        metrics["bdiv.bdiv_of_metric.calls"] / len(distinct) if distinct else 0.0)
    metrics["okounkov.hull_points_per_vertex"] = _hull_points_per_vertex(records)
    out["layers"] = metrics
    out["spans"] = [{"id": i, "kind": q.kind, "start": t0, "end": t1}
                    for i, (q, _, _, t0, t1) in enumerate(records)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "prefix"), required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--profile", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import toricbdiv
    if Path(toricbdiv.__file__).resolve().parent != SRC / "toricbdiv":
        print(f"toricbdiv imported from {toricbdiv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    setup_probes = [_probe() for _ in range(SETUP_PROBES)]

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool, defects, files = workloads.build(args.workload, args.seed, workdir)
        t0 = time.monotonic()
        files.write()
        ready = time.monotonic()
        files_s = ready - t0
        setup_probes += [_probe() for _ in range(SETUP_PROBES)]
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = _measure(pool, defects, args.seconds, MIN_QUERIES, workloads.KNOWN_DEFECTS)
        else:
            count = min(workloads.TRACE_QUERIES[args.workload], len(pool))
            result = _prefix(pool, count, bool(args.profile))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another worker still uses it
    result.update(ready=ready, files=len(files.texts), files_s=files_s)
    result["setup_speed"] = PROBE_NOMINAL_S / statistics.median(setup_probes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
