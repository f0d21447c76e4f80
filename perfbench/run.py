#!/usr/bin/env python3
"""Closed-loop benchmark of the distributed particle filter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload arm-table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, fresh process each
    python3 perfbench/run.py --smoke               # every workload briefly, checks on

A single-workload run prints information lines starting with ``#`` (run
metadata, host reference timings, round counts, each correctness check) and
then, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("arm-table2", "sessions-churn", "shards-shm")
#: the timed rounds are cut into this many consecutive parts of equal round
#: count; each timing metric is taken per part and the median over the parts
#: is reported, so a host slowdown that spans less than a third of a run
#: does not move it (README, "Parts and tail percentile").
PARTS = 3
#: the highest percentile with at least ten samples beyond it in a part of
#: the 100-round minimum.
TAIL_PERCENTILE = 90
MIN_ROUNDS = PARTS * 100
SETUP_REPS = 9
DEFAULT_SECONDS = 25
SMOKE_SECONDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "particles_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_per_step"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _import_program() -> None:
    """Put the program's sources first on the path, or exit 2 without them."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this process and print its result lines."""
    import numpy as np

    from perfbench.reference import host_reference_ms
    from perfbench.workloads import CHECK_ROUNDS, PER_LAYER, WORKLOADS
    from repro.telemetry import run_metadata

    pct = TAIL_PERCENTILE
    min_rounds = CHECK_ROUNDS if smoke else max(CHECK_ROUNDS, MIN_ROUNDS)
    reps = 1 if smoke else SETUP_REPS
    print(f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
          f"{' smoke' if smoke else ''}")
    print("# metadata " + json.dumps(run_metadata()))
    host_before = host_reference_ms()
    out = WORKLOADS[name](seed, seconds, trace, reps, min_rounds)
    host_after = host_reference_ms()

    parts = np.array_split(1e3 * np.asarray(out.samples, dtype=np.float64), PARTS)
    p50 = [float(np.median(p)) for p in parts]
    tail = [float(np.percentile(p, pct)) for p in parts]
    rate = [1e3 * out.particles_per_round * len(p) / float(p.sum()) for p in parts]
    print(f"# host_reference_ms before={host_before:.3f} after={host_after:.3f}")
    print(f"# rounds={len(out.samples)} in {PARTS} parts of {[len(p) for p in parts]}; "
          f"per part step_ms_p50={[round(v, 3) for v in p50]} "
          f"step_ms_p{pct}={[round(v, 3) for v in tail]}")
    print(f"# setup_s={[round(s, 4) for s in out.setup_s]}")
    # Printed for the reader, not a result metric: on a host shared with
    # other tenants its run-to-run spread reached 0.3-0.4, beyond the 0.25
    # bound of the timings (README, "Why step_ms_tail is not gated").
    print(f"# step_ms_tail={float(np.median(tail)):.3f} ms (p{pct}, median over parts)")
    for check, (ok, detail) in out.checks.items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {check}: {detail}")

    if trace:
        metrics = {k: {"value": float(out.layers.get(k, 0.0)), "unit": _layer_unit(k)}
                   for k in PER_LAYER}
    else:
        values = {
            "setup_s": float(np.median(out.setup_s)),
            "particles_per_s": float(np.median(rate)),
            "step_ms_p50": float(np.median(p50)),
            "peak_rss_mb": out.peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {
        "correct": all(ok for ok, _ in out.checks.values()),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Run every workload, each in a fresh process; print a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        except subprocess.TimeoutExpired:
            print(f"## {name}: timed out")
            combined["correct"] = False
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stderr)
            print(f"## {name}: exited {proc.returncode} without a result")
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"## {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"##   {metric:<28} {v['value']:>16.6g} {v['unit']}")
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(WORKLOADS) + ["all"],
                    help="one workload, or 'all' (default) for each in a fresh process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload briefly, one set-up, all checks on")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace), args.smoke)
    try:
        run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    finally:
        _stop_children()
    return 0


def _stop_children() -> None:
    """End and reap every process this run started, so none outlives it.

    Besides the backend's workers (which ``close`` already joins), creating
    a shared-memory segment starts ``multiprocessing``'s resource-tracker
    process; left alone it exits only after this process has, as an orphan.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
