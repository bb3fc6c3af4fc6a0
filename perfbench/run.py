"""expsys benchmark: time-to-verdict, set-up time and memory per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload digit-onb --seed 1 --seconds 10 --trace 0

Workloads: digit-onb, presets-mixed, gram-sweep (see workloads.py and
README.md).  Each pass of a workload runs in a fresh interpreter with
BLAS/OpenMP pinned to one thread.

--trace 0: a few set-up-only interpreters time `import expsys` plus input
    construction (setup_s is their median), then whole passes run until at
    least --seconds have been measured (one pass when a pass is longer).
    Prints the end-to-end metrics, medians over passes.
--trace 1: one untraced pass, then one traced pass whose report bodies must
    hash equal to the untraced ones.  Prints the per-layer metrics from the
    traced pass, the per-job times from the untraced pass, and the tracing
    overhead (traced wall_s minus untraced wall_s).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it carries the details (per-job times,
digests, check failures, lazy first-use attributions, machine facts).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 4  # set-up-only interpreters per untraced run
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode, deadline, *extra):
    """Run child.py once; (seconds until READY, parsed result or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        print(f"error: {mode} pass of {workload} exited {proc.returncode}", file=sys.stderr)
        return setup, None
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def failures(workload, result):
    bad = 0
    for job in result["jobs"]:
        for msg in job["errors"]:
            print(f"FAIL {workload} {job['name']}: {msg}", file=sys.stderr)
        bad += bool(job["errors"])
    return bad


def end_to_end(setups, passes):
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in passes), "unit": "MB"},
    }


def job_metrics(plain):
    """Per-job times of the untraced pass; 0 for jobs of other workloads."""
    seconds = {job["name"]: job["seconds"] for job in plain["jobs"]}
    metrics = {f"job.{name}_s": {"value": seconds.get(name, 0.0), "unit": "s"}
               for names in workloads.HEADLINE.values() for name in names}
    light = sum(seconds.get(name, 0.0) for name in workloads.LIGHT)
    metrics["light_jobs_s"] = {"value": light, "unit": "s"}
    return metrics


def per_layer(plain, traced):
    times = traced["trace"]["times"]
    counts = traced["trace"]["counts"]
    metrics = {k: {"value": v, "unit": "s"} for k, v in times.items()}
    metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
    pairs = counts["analysis.pairs"]
    metrics["analysis.unique_ratio"] = {
        "value": counts["analysis.unique_differences"] / pairs if pairs else 0.0, "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": traced["trace"]["spans"], "unit": "count"}
    metrics.update(job_metrics(plain))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "expsys" / "__init__.py").is_file():
        print(f"error: no expsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    setups, passes = [], []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            setups.append(spawn(args.workload, args.seed, "setup", deadline)[0])
        measured = 0.0
        while True:
            setup, result = spawn(args.workload, args.seed, "run", deadline)
            if result is None:
                return 1
            setups.append(setup)
            passes.append(result)
            measured += result["wall_s"]
            left = deadline - time.monotonic()
            if measured >= args.seconds or left < 1.5 * result["wall_s"] + setup:
                break
        metrics = end_to_end(setups, passes)
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = str(out_dir / f"spans-{args.workload}.jsonl")
        for mode in ("run", "trace"):
            extra = ("--spans", spans) if mode == "trace" else ()
            setup, result = spawn(args.workload, args.seed, mode, deadline, *extra)
            if result is None:
                return 1
            setups.append(setup)
            passes.append(result)
        plain, traced = passes
        metrics = per_layer(plain, traced)
        for a, b in zip(plain["jobs"], traced["jobs"]):
            if a["sha256"] != b["sha256"]:
                b["errors"].append("report body differs from the untraced pass")
        details["counts_by_job"] = traced["trace"]["counts_by_job"]

    attempted = sum(len(r["jobs"]) for r in passes)
    failed = sum(failures(args.workload, r) for r in passes)
    details["setup_s_samples"] = setups
    details["machine"] = passes[0]["machine"]
    details["passes"] = [
        {k: r[k] for k in ("wall_s", "peak_rss_mb", "jobs")} for r in passes]
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
