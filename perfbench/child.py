"""One pass of one workload in a fresh interpreter (started by run.py).

Imports expsys, builds the workload's inputs, prints READY (the parent times
set-up up to that line), then runs the jobs in their fixed order and prints
one JSON line with per-job times, report digests, check failures, lazy
first-use attributions, peak RSS and, in trace mode, the layer summary.
With --mode setup it exits right after READY.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

import workloads


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed(job):
    """Run one job; its time, report digest and failed checks."""
    t0 = time.perf_counter()
    try:
        out = job.run()
        seconds = time.perf_counter() - t0
        body, errors = job.finish(out)
    except Exception:
        seconds = time.perf_counter() - t0
        body, errors = "", ["raised: " + traceback.format_exc(limit=3)]
    return {"name": job.name, "seconds": seconds, "sha256": workloads.digest(body), "errors": errors}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--spans", help="file for the trace spans (trace mode)")
    args = parser.parse_args()

    from expsys import measures

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return

    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        gates = len(measures._PRODUCT_GATE)
        stats = "scipy.stats" in sys.modules
        result = timed(job)
        result["first_use"] = []
        if len(measures._PRODUCT_GATE) > gates:
            result["first_use"].append("product-formula gate")
        if not stats and "scipy.stats" in sys.modules:
            result["first_use"].append("scipy.stats import")
        results.append(result)

    out = {
        "jobs": results,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        times, counts = tracer.summary()
        out["trace"] = {
            "times": times,
            "counts": counts,
            "counts_by_job": tracer.job_counts,
            "spans": len(tracer.spans),
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
