"""Workload definitions, input builders and output checks.

A workload is a fixed, ordered list of jobs run one after another in one
fresh interpreter.  Preset jobs go through `expsys.cli.run` in-process with
`--threads 1`; gram-sweep jobs call `expsys.analysis.gram` directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

DEFAULT_SEED = 1  # every preset config ships with "seed": 1

WORKLOADS = {
    # the self-similar path: product-formula gate (paid by the first job),
    # digit enumeration, Monte-Carlo moments, DigitMap evaluation and six
    # battery coefficients per preset
    "digit-onb": ["cantor4", "cantor3"],
    # every other preset, in PRESETS order: tiling, repdisc, probes,
    # densities, reconstruction and small verify-onb/frame-bounds runs; many
    # short calls into the Gram and moment engine, never the product gate
    "presets-mixed": [
        "identity-1d",
        "unipotent-sin",
        "square-phase-1d",
        "holhos-disc",
        "halfbox-frame",
        "counterexample-exp",
        "unipotent-tiling",
        "density-z2",
        "density-lambda4",
        "heisenberg",
        "poly2d",
        "axb",
        "shearlet",
        "probe-x2",
        "probe-digitmap",
        "reconstruct-sawtooth",
    ],
    # library Gram calls at growing m: unique_differences, tensor-Gauss
    # kernel, product formula and peak memory; no randomness
    "gram-sweep": [
        "unipotent2d-r4",
        "unipotent2d-r8",
        "unipotent2d-r10",
        "identity1d-r256",
        "identity1d-r512",
        "identity1d-r1024",
        "lambda4-n8",
        "lambda4-n10",
        "lambda4-n11",
    ],
}

# Jobs whose own time is a per-layer metric `job.<name>_s`, so that a gain on
# one job cannot hide a loss on another in the same workload.
HEADLINE = {
    "digit-onb": ["cantor4", "cantor3"],
    "presets-mixed": ["counterexample-exp", "unipotent-sin", "shearlet"],
    "gram-sweep": ["unipotent2d-r10", "identity1d-r1024", "lambda4-n11"],
}

# The presets that took under 1 s each when the benchmark was written; their
# summed time is `light_jobs_s`, which catches per-call overhead.
LIGHT = [
    "identity-1d",
    "square-phase-1d",
    "halfbox-frame",
    "unipotent-tiling",
    "density-z2",
    "density-lambda4",
    "heisenberg",
    "poly2d",
    "axb",
    "probe-x2",
    "probe-digitmap",
    "reconstruct-sawtooth",
]

# Exit codes from the README preset table; every preset not listed exits 0.
EXPECTED_EXIT = {
    "holhos-disc": 2,
    "counterexample-exp": 1,
    "square-phase-1d": 1,
    "probe-x2": 1,
}

# Report numbers are deterministic for a fixed (config, seed); the slack
# admits summation-order changes while catching any real change.
RTOL = 1e-6
ATOL = 1e-9

# Gram-sweep orthonormality threshold (the benchmark's commit reads <= 1e-13).
GRAM_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Job(NamedTuple):
    """One timed call.  `run` is timed; `finish` turns its output into
    (report body text, list of failed-check messages) outside the timing."""

    name: str
    run: Callable
    finish: Callable


def without_meta(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "meta"}


def serialize(body: dict) -> str:
    """Body text as `expsys.cli.serialize_report` writes it."""
    return json.dumps(body, sort_keys=True, indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_of(result: dict):
    return result.get("tiling", result.get("verdict"))


def run_preset(name):
    """(exit code, stdout text) of `expsys <command> --preset name --threads 1`."""
    from expsys import cli
    from expsys.presets import PRESETS

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([PRESETS[name]["command"], "--preset", name, "--threads", "1"])
    return code, buf.getvalue()


def leaves(obj, path=""):
    """(path, value) for every scalar in a JSON tree; paths join keys with '/'."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:
            yield from leaves(v, f"{path}/{k}" if path else str(k))
    else:
        yield path, obj


def _same(a, b):
    if isinstance(a, bool) or isinstance(b, bool) or not isinstance(a, (int, float)) \
            or not isinstance(b, (int, float)):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare_body(body: dict, ref: dict, skip=()):
    """Messages for every leaf that differs from the reference body.

    Leaves whose path starts with an entry of `skip` are not compared.
    """
    got = dict(leaves(body))
    want = dict(leaves(ref))
    errors = []
    for key in sorted(set(got) | set(want)):
        if any(key == s or key.startswith(s + "/") for s in skip):
            continue
        if key not in got or key not in want:
            errors.append(f"{key}: present in only one of report and reference")
        elif not _same(got[key], want[key]):
            errors.append(f"{key}: {got[key]!r} != reference {want[key]!r}")
    return errors


def _preset_job(name, seed, reference):
    ref = reference["presets"][name]
    skip = () if seed == DEFAULT_SEED else ref["seeded"]

    def finish(out):
        code, text = out
        errors = []
        expected = EXPECTED_EXIT.get(name, 0)
        if code != expected:
            errors.append(f"exit code {code} != {expected}")
        try:
            body = without_meta(json.loads(text))
        except ValueError:
            return "", errors + ["no JSON report on stdout"]
        got = verdict_of(body.get("result", {}))
        if got != ref["verdict"]:
            errors.append(f"verdict {got!r} != {ref['verdict']!r}")
        errors += compare_body(body, ref["body"], skip)
        return serialize(body), errors

    return Job(name, lambda: run_preset(name), finish)


def _gram_inputs():
    """name -> (measure, phase, spectrum, quad, expected unique differences)."""
    import numpy as np

    from expsys import measures, phases, spectra

    shear = phases.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2)
    square = measures.LebesgueBox([0.0, 0.0], [1.0, 1.0])
    unit = measures.LebesgueBox([0.0], [1.0])
    cantor = measures.middle_fourth_cantor()
    inputs = {}
    for r in (4, 8, 10):
        inputs[f"unipotent2d-r{r}"] = (
            square, shear, spectra.integer_lattice(2, r), measures.gauss(64), (4 * r + 1) ** 2)
    for r in (256, 512, 1024):
        inputs[f"identity1d-r{r}"] = (
            unit, phases.Identity(1), spectra.integer_lattice(1, r), measures.gauss(64), 4 * r + 1)
    for n in (8, 10, 11):
        inputs[f"lambda4-n{n}"] = (
            cantor, phases.Identity(1), spectra.lambda4(n), measures.digit(40), 3**n)
    return inputs


def _gram_job(name, args):
    mu, phi, spectrum, quad, n_unique = args

    def run():
        from expsys import analysis

        return analysis.gram(mu, phi, spectrum, quad, threads=1)

    def finish(rep):
        out = rep.to_json_dict()
        errors = []
        if not (rep.max_offdiag <= GRAM_TOL and rep.diag_dev <= GRAM_TOL):
            errors.append(f"max_offdiag {rep.max_offdiag:.3e} / diag_dev {rep.diag_dev:.3e} > {GRAM_TOL}")
        if out["n_unique_differences"] != n_unique:
            errors.append(f"n_unique_differences {out['n_unique_differences']} != {n_unique}")
        if out["n"] != spectrum.size or out["n_pairs"] != spectrum.size**2:
            errors.append(f"n {out['n']} / n_pairs {out['n_pairs']} do not match m={spectrum.size}")
        return serialize(out), errors

    return Job(name, run, finish)


def build(workload, seed):
    """Jobs of `workload` with their inputs built; presets get `seed`.

    gram-sweep has no randomness, so the seed does not reach it.
    """
    names = WORKLOADS[workload]
    if workload == "gram-sweep":
        inputs = _gram_inputs()
        return [_gram_job(name, inputs[name]) for name in names]
    from expsys.presets import PRESETS

    reference = json.loads(REFERENCE_PATH.read_text())
    for name in names:
        PRESETS[name]["config"]["seed"] = seed
    return [_preset_job(name, seed, reference) for name in names]
