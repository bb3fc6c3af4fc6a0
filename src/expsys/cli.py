"""Reproducible experiment runner.

Subcommands: verify-onb, frame-bounds, tiling-check, density, reconstruct,
repdisc, probe-injectivity, list-presets.  Configs are strict-schema JSON;
reports are deterministic JSON (timestamps live in a separate "meta" field),
with optional CSV artifacts.  Exit codes: 0 PASS/UNIFORM/TILES, 1
FAIL/NONUNIFORM/NOT-TILING, 2 INCONCLUSIVE, 3 config or runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time

import numpy as np

from . import analysis, measures, phases, reconstruct, repdisc, spectra, tiling
from ._oscillatory import MAX_THREADS, _unwrap, plan
from .config import (
    build_measure,
    build_phase,
    build_quad,
    build_spectrum,
    check_keys,
    options,
    pick,
)
from .errors import ConfigError, DomainError, ExpSysError, _integer, _real
from .expr import expression_on_points, parse_expression  # re-exported: CLI surface
from .presets import PRESETS

__all__ = ["main", "run", "parse_expression"]

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_INCONCLUSIVE = 2
_EXIT_ERROR = 3

_VERDICT_EXIT = {
    analysis.PASS: _EXIT_OK,
    tiling.UNIFORM: _EXIT_OK,
    tiling.TILES: _EXIT_OK,
    analysis.FAIL: _EXIT_FAIL,
    tiling.NONUNIFORM: _EXIT_FAIL,
    tiling.NOT_TILING: _EXIT_FAIL,
    analysis.INCONCLUSIVE: _EXIT_INCONCLUSIVE,
    tiling.INCONCLUSIVE: _EXIT_INCONCLUSIVE,
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def serialize_report(report: dict) -> str:
    """Deterministic serialization of everything outside the meta field."""
    body = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(_jsonable(body), sort_keys=True, indent=2)


def _write_report(report, out_path):
    body = serialize_report(report)
    meta = json.dumps(_jsonable(report.get("meta", {})), sort_keys=True, indent=2)
    text = body[:-2] + ",\n  \"meta\": " + meta.replace("\n", "\n  ") + "\n}"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text


def _quad(cfg_quad, seed):
    """The config's rule; a Monte-Carlo rule without a seed of its own takes the run's."""
    if isinstance(cfg_quad, dict) and cfg_quad.get("scheme") == "monte-carlo":
        cfg_quad = {"seed": seed, **cfg_quad}
    return build_quad(cfg_quad)


def _system(cfg, seed):
    """(mu, phi, spectrum, quad) of a config, built in that order."""
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    spectrum = build_spectrum(cfg["spectrum"])
    return mu, phi, spectrum, _quad(cfg["quad"], seed)


def _box(cfg, where):
    """(lo, hi) of a {lo, hi} config object."""
    check_keys(cfg, ["lo", "hi"], [], where)
    return cfg["lo"], cfg["hi"]


_BATTERIES = {"default": analysis.default_test_battery, "periodic": analysis.periodic_test_battery}
_BASES = {"dyadic": analysis.dyadic_indicator_basis, "legendre": analysis.legendre_basis}
_GROUP_PRESETS = {
    "heisenberg": repdisc.heisenberg_group,
    "poly2d": repdisc.poly2d_group,
    "axb": repdisc.axb_group,
    "shearlet": repdisc.shearlet_group,
}


# ---------------------------------------------------------------------------
# subcommand handlers: handler(cfg, seed, threads, opts) returns (result dict,
# verdict, CSV writer or None); opts holds the options the config sets, as given
# ---------------------------------------------------------------------------


def _run_verify_onb(cfg, seed, threads, opts):
    mu, phi, spectrum, quad = _system(cfg, seed)
    battery = pick(_BATTERIES, opts.pop("battery", "default"), "battery")(mu)
    report = analysis.verify_onb(
        mu, phi, spectrum, quad, test_functions=battery, threads=threads, **opts
    )
    return report.to_json_dict(), report.verdict, report.gram_report.write_csv


def _run_frame_bounds(cfg, seed, threads, opts):
    min_ratio = _real(opts.get("min_ratio", 0.01), "min_ratio")
    # a_est <= b_est, so outside (0, 1] the verdict would not depend on them
    if not 0 < min_ratio <= 1:
        raise DomainError(f"min_ratio must be in (0, 1], got {min_ratio}")
    mu, phi, spectrum, quad = _system(cfg, seed)
    basis_cfg = cfg.get("basis", {"kind": "dyadic", "m": 64})
    check_keys(basis_cfg, ["kind", "m"], [], "frame-bounds basis")
    basis = pick(_BASES, basis_cfg["kind"], "basis kind")(mu, basis_cfg["m"])
    report = analysis.frame_bounds(mu, phi, spectrum, basis, quad, threads=threads)
    # report-level verdict only: a_est/b_est below min_ratio at this
    # truncation is called FAIL; no infinite-spectrum claim either way
    ok = np.isfinite(report.b_est) and report.a_est >= min_ratio * report.b_est
    result = report.to_json_dict()
    result["verdict"] = analysis.PASS if ok else analysis.FAIL
    result["min_ratio"] = min_ratio
    return result, result["verdict"], None


def _run_tiling_check(cfg, seed, threads, opts):
    phi = build_phase(cfg["phase"])
    check_keys(cfg["lattice"], ["A"], [], "tiling-check lattice")
    A = cfg["lattice"]["A"]
    report = tiling.tiling_verdict(
        phi, _box(cfg["box"], "tiling-check box"), A, seed=seed, **opts
    )
    return (
        report.to_json_dict(),
        report.tiling,
        lambda path: report.histogram.write_csv(path, A),
    )


def _run_density(cfg, seed, threads, opts):
    spectrum = build_spectrum(cfg["spectrum"])
    if "centers_box" in cfg:
        opts["centers_box"] = _box(cfg["centers_box"], "density centers_box")
    report = spectra.beurling_density(spectrum, cfg["windows"], seed=seed, **opts)
    return report.to_json_dict(), analysis.PASS, None


def _run_reconstruct(cfg, seed, threads, opts):
    mu, phi, spectrum, quad = _system(cfg, seed)
    f = expression_on_points(parse_expression(cfg["f"]))
    coeffs = reconstruct.coefficients(f, mu, phi, spectrum, quad, threads=threads)
    g = reconstruct.synthesize(coeffs.values, phi, spectrum)
    # adaptive runs on boxes and discs only; a self-similar base takes its norm rule
    if isinstance(_unwrap(mu)[0], measures.SelfSimilar):
        norm_rule = plan(mu, phases.Identity(mu.dim), quad, "measure").rule
    else:
        norm_rule = measures.adaptive(abs_tol=1e-8)
    err = reconstruct.l2_error(f, g, mu, norm_rule)
    result = {
        "n_coefficients": int(spectrum.size),
        "flagged_entries": int(np.count_nonzero(coeffs.failed)),
        "l2_error": float(err),
        "truncation": spectrum.to_json_dict(),
        "note": "error is relative to this finite truncation; no infinite-spectrum claim",
    }
    return result, analysis.PASS, coeffs.write_csv


def _run_repdisc(cfg, seed, threads, opts):
    group_cfg = cfg["group"]
    if isinstance(group_cfg, str):
        group = pick(_GROUP_PRESETS, group_cfg, "group preset")()
    else:
        check_keys(group_cfg, ["A", "ell"], [], "repdisc group")
        group = repdisc.GroupData(matrices=group_cfg["A"], ell=group_cfg["ell"])
    omega_lo, omega_hi = _box(cfg["omega"], "repdisc omega")
    ws = repdisc.WindowSystem(
        omega_lo=omega_lo,
        omega_hi=omega_hi,
        gamma_set=cfg["gamma"],
        spectrum=build_spectrum(cfg["spectrum"]),
        phase=repdisc.phase_from_group(group),
    )
    window = _box(cfg["window"], "repdisc window")
    if "quad" in cfg:
        opts["quad"] = _quad(cfg["quad"], seed)
    report = repdisc.verify_system_on_window(
        ws, window, mode=cfg["mode"], threads=threads, **opts
    )
    return report.to_json_dict(), report.verdict, None


def _run_probe(cfg, seed, threads, opts):
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    report = phases.essential_injectivity_probe(phi, mu, seed=seed, **opts)
    result = report.to_json_dict()
    # collisions refute essential injectivity at the probe scales; none found
    # is not a certificate
    result["verdict"] = analysis.FAIL if report.collision_fraction > 0 else analysis.PASS
    return result, result["verdict"], None


_SYSTEM = ["measure", "phase", "spectrum", "quad"]

# command: (handler, required keys, options, other allowed keys).  The options
# reach the handler as given, and the library function each one reaches reads
# its value.  Every config may also set seed and out, read by run(), and csv
# where a command lists it.
_COMMANDS = {
    "verify-onb": (_run_verify_onb, _SYSTEM, ["tol_orth", "tol_complete", "battery"], ["csv"]),
    "frame-bounds": (_run_frame_bounds, _SYSTEM, ["min_ratio"], ["basis"]),
    "tiling-check": (
        _run_tiling_check, ["phase", "box", "lattice"], ["n", "bins", "radius"], ["csv"]
    ),
    "density": (_run_density, ["spectrum", "windows"], ["n_centers"], ["centers_box"]),
    "reconstruct": (_run_reconstruct, _SYSTEM + ["f"], [], ["csv"]),
    "repdisc": (
        _run_repdisc,
        ["group", "omega", "gamma", "spectrum", "window", "mode"],
        ["tol", "basis_size", "exploratory"],
        ["quad"],
    ),
    "probe-injectivity": (_run_probe, ["measure", "phase"], ["n", "delta_x", "delta_y"], []),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors become one `error: ` line and exit 3 in run(), not
    argparse's exit 2, which is the INCONCLUSIVE code; --help still exits 0."""

    def error(self, message):
        raise ConfigError(message)


def run(argv=None) -> int:
    parser = _Parser(
        prog="expsys",
        description="Generalized exponential systems: verification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["list-presets"]:
        p = sub.add_parser(name)
        if name != "list-presets":
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--config", help="path to a JSON config")
            src.add_argument("--preset", help="named preset")
            p.add_argument("--out", help="report path (overrides config 'out')")
            p.add_argument("--threads", type=int, default=1, help=f"1 to {MAX_THREADS}")
    try:
        args = parser.parse_args(argv)
        if args.command == "list-presets":
            for name in sorted(PRESETS):
                print(f"{name:22s} [{PRESETS[name]['command']}] {PRESETS[name]['description']}")
            return _EXIT_OK

        _integer(args.threads, "--threads", 1, MAX_THREADS)
        preset_name = None
        if args.preset is not None:
            if args.preset not in PRESETS:
                raise ConfigError(f"unknown preset {args.preset!r}")
            preset = PRESETS[args.preset]
            if preset["command"] != args.command:
                raise ConfigError(
                    f"preset {args.preset!r} belongs to {preset['command']!r}"
                )
            cfg = json.loads(json.dumps(preset["config"]))  # deep copy
            preset_name = args.preset
        else:
            with open(args.config) as fh:
                try:
                    cfg = json.load(fh)
                except RecursionError:
                    raise ConfigError("config nests too deeply to parse") from None

        handler, required, keys, other = _COMMANDS[args.command]
        check_keys(cfg, required, ["seed", "out", *keys, *other], f"{args.command} config")
        common = options(cfg, ["seed", "out", "csv"])
        seed = _integer(common.get("seed", 0), "seed", 0)
        for key in ("out", "csv"):  # paths; an integer would open a file descriptor
            if not isinstance(common.get(key, ""), str):
                raise ConfigError(f"{key} must be a string, got {common[key]!r}")
        t0 = time.time()
        result, verdict, write_csv = handler(cfg, seed, args.threads, options(cfg, keys))
        runtime = time.time() - t0

        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "preset": preset_name,
            "config": cfg,
            "result": result,
            "meta": {
                "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runtime_seconds": runtime,
                "package_version": "0.1.0",
            },
        }
        out_path = args.out or common.get("out")
        text = _write_report(report, out_path)
        if not out_path:
            print(text)
        else:
            print(f"report written to {out_path}")
        if common.get("csv"):
            write_csv(common["csv"])
            print(f"csv written to {common['csv']}")
        return _VERDICT_EXIT[verdict]
    except ExpSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def main():
    sys.exit(run())
