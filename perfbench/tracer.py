"""Outside-in layer trace for the expsys benchmark.

Wraps the public functions of each expsys module from the benchmark's own
files, so the program's source stays untouched.  Every wrapped call records
a span (name, start, end, parent span, job id) and, at some boundaries, a
work count.  Spans stay in memory until the run ends; `summary` turns them
into per-layer self times (a span's duration minus its child spans) and
counts.

Names bound with `from x import y` are patched where they are looked up:
`analysis.exp_moments`, `reconstruct.exp_moments` and
`_oscillatory.exp_moments` (the last is reached through the lazy import in
`measures.fourier_transform`); `scipy.linalg.svd`, which `frame_bounds`
imports at call time; methods go on their classes.
"""

from __future__ import annotations

import functools
import json
import time

# Per-layer metric names; every span name is one of TIME_METRICS.
TIME_METRICS = (
    "cli.run_s",
    "cli.serialize_s",
    "config.build_s",
    "spectra.build_s",
    "spectra.density_s",
    "measures.gate_s",
    "measures.sample_s",
    "measures.digit_nodes_s",
    "measures.gauss_nodes_s",
    "measures.integrate_s",
    "phases.eval_s",
    "phases.invert_s",
    "phases.preservation_s",
    "phases.jacobian_s",
    "phases.probe_s",
    "oscillatory.exp_moments_s",
    "analysis.unique_differences_s",
    "analysis.gram_s",
    "analysis.verify_onb_s",
    "analysis.frame_bounds_s",
    "analysis.svd_s",
    "reconstruct.coefficients_s",
    "reconstruct.l2_error_s",
    "tiling.histogram_s",
    "tiling.overlap_s",
    "repdisc.verify_s",
)
COUNT_METRICS = (
    "config.build.calls",
    "spectra.points",
    "measures.gate.samples",
    "measures.samples",
    "measures.digit_nodes.calls",
    "measures.gauss_nodes",
    "phases.eval.points",
    "phases.invert.calls",
    "phases.invert.points",
    "oscillatory.exp_moments.calls",
    "oscillatory.exp_moments.freqs",
    "analysis.pairs",
    "analysis.unique_differences",
    "reconstruct.coefficients.calls",
    "tiling.overlap.calls",
)


class Tracer:
    """Records spans and work counts for wrapped calls in one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job]
        self.stack = []
        self.job = "setup"
        self.job_counts = {}

    def add(self, key, n):
        counts = self.job_counts.setdefault(self.job, dict.fromkeys(COUNT_METRICS, 0))
        counts[key] += int(n)

    def enclosed_by(self, name):
        """True if a span called `name` encloses the innermost open span."""
        return any(self.spans[i][0] == name for i in self.stack[:-1])

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a span-recording wrapper.

        `count(tracer, result)` runs before the span closes, so it can still
        see the spans that enclose the call.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.job]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, result)
                return result
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()

        setattr(owner, attr, wrapper)

    def summary(self):
        """(self time per layer, total count per counter) over every job."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            times[name] += (end - start) - child[i]
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for per_job in self.job_counts.values():
            for key, n in per_job.items():
                counts[key] += n
        return times, counts

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count(key, amount=lambda result: 1):
    return lambda tracer, result: tracer.add(key, amount(result))


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def install(tracer):
    """Wrap every layer boundary of the benchmark's per-layer table."""
    import scipy.linalg

    from expsys import (
        _oscillatory,
        analysis,
        cli,
        config,
        measures,
        phases,
        reconstruct,
        repdisc,
        spectra,
        tiling,
    )

    w = tracer.wrap
    w(cli, "run", "cli.run_s")
    w(cli, "serialize_report", "cli.serialize_s")

    for attr in ("build_measure", "build_phase", "build_spectrum", "build_quad"):
        w(config, attr, "config.build_s", _count("config.build.calls"))
        setattr(cli, attr, getattr(config, attr))

    for attr in ("lattice", "lambda4", "explicit"):
        w(spectra, attr, "spectra.build_s", _count("spectra.points", lambda r: r.size))
    w(spectra, "beurling_density", "spectra.density_s")

    w(measures, "validate_product_formula", "measures.gate_s")

    def sampled(tracer, result):
        # outermost sampler only: pushforwards sample through their base;
        # draws made inside the product gate count as gate samples
        if tracer.enclosed_by("measures.sample_s"):
            return
        gate = tracer.enclosed_by("measures.gate_s")
        tracer.add("measures.gate.samples" if gate else "measures.samples", result.shape[0])

    for cls in _subclasses(measures.Measure):
        if "_sample" in cls.__dict__:
            w(cls, "_sample", "measures.sample_s", sampled)

    w(measures, "digit_nodes", "measures.digit_nodes_s", _count("measures.digit_nodes.calls"))
    w(measures, "box_gauss_nodes", "measures.gauss_nodes_s",
      _count("measures.gauss_nodes", lambda r: r[0].shape[0]))
    w(measures, "integrate", "measures.integrate_s")
    for mod in (_oscillatory, analysis, reconstruct):
        mod.integrate = measures.integrate
    _oscillatory.digit_nodes = measures.digit_nodes
    _oscillatory.box_gauss_nodes = measures.box_gauss_nodes

    w(phases.PhaseMap, "__call__", "phases.eval_s",
      _count("phases.eval.points", lambda r: 1 if r.ndim == 1 else r.shape[0]))

    def inverted(tracer, result):
        tracer.add("phases.invert.calls", 1)
        tracer.add("phases.invert.points", result[0].shape[0])

    w(phases.Triangular2D, "invert", "phases.invert_s", inverted)
    w(phases, "measure_preservation_check", "phases.preservation_s")
    tiling.measure_preservation_check = phases.measure_preservation_check
    for cls in _subclasses(phases.PhaseMap):
        if "jacobian_batch" in cls.__dict__:
            w(cls, "jacobian_batch", "phases.jacobian_s")
    w(phases, "essential_injectivity_probe", "phases.probe_s")

    def moments(tracer, result):
        tracer.add("oscillatory.exp_moments.calls", 1)
        tracer.add("oscillatory.exp_moments.freqs", result[0].shape[0])

    w(_oscillatory, "exp_moments", "oscillatory.exp_moments_s", moments)
    analysis.exp_moments = _oscillatory.exp_moments
    reconstruct.exp_moments = _oscillatory.exp_moments

    def differences(tracer, result):
        tracer.add("analysis.pairs", result[1].size)
        tracer.add("analysis.unique_differences", result[0].shape[0])

    w(analysis, "unique_differences", "analysis.unique_differences_s", differences)
    w(analysis, "gram", "analysis.gram_s")
    w(analysis, "verify_onb", "analysis.verify_onb_s")
    w(analysis, "frame_bounds", "analysis.frame_bounds_s")
    w(scipy.linalg, "svd", "analysis.svd_s")

    w(reconstruct, "coefficients", "reconstruct.coefficients_s",
      _count("reconstruct.coefficients.calls"))
    w(reconstruct, "l2_error", "reconstruct.l2_error_s")

    w(tiling, "frac_histogram_test", "tiling.histogram_s")
    w(tiling, "overlap_volume", "tiling.overlap_s", _count("tiling.overlap.calls"))
    w(repdisc, "verify_system_on_window", "repdisc.verify_s")
