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
from .config import (
    as_scalar,
    build_measure,
    build_phase,
    build_quad,
    build_spectrum,
    check_keys,
)
from .errors import ConfigError, ExpSysError
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


def _quad_with_seed(cfg_quad, seed):
    quad = build_quad(cfg_quad)
    if quad.scheme == "monte-carlo" and "seed" not in cfg_quad:
        quad = measures.monte_carlo(n_samples=quad.n_samples, seed=seed)
    return quad


def _seed(cfg):
    return as_scalar(cfg.get("seed", 0), int, "seed")


def _battery(name, mu):
    if name == "default":
        return analysis.default_test_battery(mu)
    if name == "periodic":
        return analysis.periodic_test_battery(mu)
    raise ConfigError(f"unknown battery {name!r}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result_dict, exit_code, csv_writers)
# ---------------------------------------------------------------------------


def _run_verify_onb(cfg, threads):
    check_keys(
        cfg,
        ["measure", "phase", "spectrum", "quad"],
        ["seed", "out", "csv", "tol_orth", "tol_complete", "battery"],
        "verify-onb config",
    )
    seed = _seed(cfg)
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    spectrum = build_spectrum(cfg["spectrum"])
    quad = _quad_with_seed(cfg["quad"], seed)
    battery = _battery(cfg.get("battery", "default"), mu)
    report = analysis.verify_onb(
        mu,
        phi,
        spectrum,
        quad,
        tol_orth=as_scalar(cfg.get("tol_orth", 1e-8), float, "tol_orth"),
        tol_complete=as_scalar(cfg.get("tol_complete", 0.02), float, "tol_complete"),
        test_functions=battery,
        threads=threads,
    )
    csvs = {}
    if cfg.get("csv"):
        csvs[cfg["csv"]] = report.gram_report.write_csv
    return report.to_json_dict(), _VERDICT_EXIT[report.verdict], csvs


def _run_frame_bounds(cfg, threads):
    check_keys(
        cfg,
        ["measure", "phase", "spectrum", "quad"],
        ["seed", "out", "basis", "min_ratio"],
        "frame-bounds config",
    )
    seed = _seed(cfg)
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    spectrum = build_spectrum(cfg["spectrum"])
    quad = _quad_with_seed(cfg["quad"], seed)
    basis_cfg = cfg.get("basis", {"kind": "dyadic", "m": 64})
    check_keys(basis_cfg, ["kind", "m"], [], "frame-bounds basis")
    m = as_scalar(basis_cfg["m"], int, "basis.m")
    if basis_cfg["kind"] == "dyadic":
        basis = analysis.dyadic_indicator_basis(mu, m)
    elif basis_cfg["kind"] == "legendre":
        basis = analysis.legendre_basis(mu, m)
    else:
        raise ConfigError(f"unknown basis kind {basis_cfg['kind']!r}")
    report = analysis.frame_bounds(mu, phi, spectrum, basis, quad, threads=threads)
    min_ratio = as_scalar(cfg.get("min_ratio", 0.01), float, "min_ratio")
    # report-level verdict only: a_est/b_est below min_ratio at this
    # truncation is called FAIL; no infinite-spectrum claim either way
    ok = np.isfinite(report.b_est) and report.a_est >= min_ratio * report.b_est
    result = report.to_json_dict()
    result["verdict"] = analysis.PASS if ok else analysis.FAIL
    result["min_ratio"] = min_ratio
    return result, _VERDICT_EXIT[result["verdict"]], {}


def _run_tiling_check(cfg, threads):
    check_keys(
        cfg,
        ["phase", "box", "lattice"],
        ["n", "bins", "radius", "seed", "out", "csv"],
        "tiling-check config",
    )
    phi = build_phase(cfg["phase"])
    check_keys(cfg["box"], ["lo", "hi"], [], "tiling-check box")
    check_keys(cfg["lattice"], ["A"], [], "tiling-check lattice")
    box = (cfg["box"]["lo"], cfg["box"]["hi"])
    A = cfg["lattice"]["A"]
    report = tiling.tiling_verdict(
        phi,
        box,
        A,
        n=as_scalar(cfg.get("n", 100_000), int, "n"),
        bins=as_scalar(cfg.get("bins", 16), int, "bins"),
        radius=as_scalar(cfg.get("radius", 2), int, "radius"),
        seed=_seed(cfg),
    )
    csvs = {}
    if cfg.get("csv"):
        csvs[cfg["csv"]] = lambda path: report.histogram.write_csv(path, A)
    return report.to_json_dict(), _VERDICT_EXIT[report.tiling], csvs


def _run_density(cfg, threads):
    check_keys(
        cfg,
        ["spectrum", "windows"],
        ["centers_box", "n_centers", "seed", "out"],
        "density config",
    )
    spectrum = build_spectrum(cfg["spectrum"])
    centers_box = None
    if "centers_box" in cfg:
        check_keys(cfg["centers_box"], ["lo", "hi"], [], "density centers_box")
        centers_box = (cfg["centers_box"]["lo"], cfg["centers_box"]["hi"])
    if not isinstance(cfg["windows"], list):
        raise ConfigError("windows must be a list of numbers")
    report = spectra.beurling_density(
        spectrum,
        [as_scalar(r, float, "window") for r in cfg["windows"]],
        centers_box=centers_box,
        n_centers=as_scalar(cfg.get("n_centers", 1000), int, "n_centers"),
        seed=_seed(cfg),
    )
    return report.to_json_dict(), _EXIT_OK, {}


def _run_reconstruct(cfg, threads):
    check_keys(
        cfg,
        ["measure", "phase", "spectrum", "quad", "f"],
        ["seed", "out", "csv"],
        "reconstruct config",
    )
    seed = _seed(cfg)
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    spectrum = build_spectrum(cfg["spectrum"])
    quad = _quad_with_seed(cfg["quad"], seed)
    f = expression_on_points(parse_expression(cfg["f"]))
    coeffs = reconstruct.coefficients(f, mu, phi, spectrum, quad, threads=threads)
    g = reconstruct.synthesize(coeffs.values, phi, spectrum)
    err = reconstruct.l2_error(
        f, g, mu, measures.adaptive(abs_tol=1e-8, max_subdivisions=2000)
    )
    result = {
        "n_coefficients": int(spectrum.size),
        "flagged_entries": int(np.count_nonzero(coeffs.failed)),
        "l2_error": float(err),
        "truncation": spectrum.to_json_dict(),
        "note": "error is relative to this finite truncation; no infinite-spectrum claim",
    }
    csvs = {}
    if cfg.get("csv"):
        csvs[cfg["csv"]] = coeffs.write_csv
    return result, _EXIT_OK, csvs


_GROUP_PRESETS = {
    "heisenberg": repdisc.heisenberg_group,
    "poly2d": repdisc.poly2d_group,
    "axb": repdisc.axb_group,
    "shearlet": repdisc.shearlet_group,
}


def _run_repdisc(cfg, threads):
    check_keys(
        cfg,
        ["group", "omega", "gamma", "spectrum", "window", "mode"],
        ["quad", "tol", "basis_size", "exploratory", "seed", "out"],
        "repdisc config",
    )
    group_cfg = cfg["group"]
    if isinstance(group_cfg, str):
        if group_cfg not in _GROUP_PRESETS:
            raise ConfigError(f"unknown group preset {group_cfg!r}")
        group = _GROUP_PRESETS[group_cfg]()
    else:
        check_keys(group_cfg, ["A", "ell"], [], "repdisc group")
        group = repdisc.GroupData(matrices=group_cfg["A"], ell=group_cfg["ell"])
    phase = repdisc.phase_from_group(group)
    check_keys(cfg["omega"], ["lo", "hi"], [], "repdisc omega")
    ws = repdisc.WindowSystem(
        omega_lo=cfg["omega"]["lo"],
        omega_hi=cfg["omega"]["hi"],
        gamma_set=cfg["gamma"],
        spectrum=build_spectrum(cfg["spectrum"]),
        phase=phase,
    )
    check_keys(cfg["window"], ["lo", "hi"], [], "repdisc window")
    quad = _quad_with_seed(
        cfg.get("quad", {"scheme": "tensor-gauss", "order": 48}), _seed(cfg)
    )
    report = repdisc.verify_system_on_window(
        ws,
        (cfg["window"]["lo"], cfg["window"]["hi"]),
        mode=cfg["mode"],
        quad=quad,
        tol=as_scalar(cfg.get("tol", 1e-10), float, "tol"),
        basis_size=as_scalar(cfg.get("basis_size", 32), int, "basis_size"),
        threads=threads,
        exploratory=bool(cfg.get("exploratory", False)),
    )
    return report.to_json_dict(), _VERDICT_EXIT[report.verdict], {}


def _run_probe(cfg, threads):
    check_keys(
        cfg,
        ["measure", "phase"],
        ["n", "delta_x", "delta_y", "seed", "out"],
        "probe-injectivity config",
    )
    mu = build_measure(cfg["measure"])
    phi = build_phase(cfg["phase"])
    delta = {
        key: as_scalar(cfg[key], float, key)
        for key in ("delta_x", "delta_y")
        if cfg.get(key) is not None
    }
    report = phases.essential_injectivity_probe(
        phi,
        mu,
        n=as_scalar(cfg.get("n", 10_000), int, "n"),
        seed=_seed(cfg),
        **delta,
    )
    result = report.to_json_dict()
    # collisions refute essential injectivity at the probe scales; none found
    # is not a certificate
    result["verdict"] = analysis.FAIL if report.collision_fraction > 0 else analysis.PASS
    return result, _VERDICT_EXIT[result["verdict"]], {}


_HANDLERS = {
    "verify-onb": _run_verify_onb,
    "frame-bounds": _run_frame_bounds,
    "tiling-check": _run_tiling_check,
    "density": _run_density,
    "reconstruct": _run_reconstruct,
    "repdisc": _run_repdisc,
    "probe-injectivity": _run_probe,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expsys",
        description="Generalized exponential systems: verification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_HANDLERS) + ["list-presets"]:
        p = sub.add_parser(name)
        if name != "list-presets":
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--config", help="path to a JSON config")
            src.add_argument("--preset", help="named preset")
            p.add_argument("--out", help="report path (overrides config 'out')")
            p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name in sorted(PRESETS):
            print(f"{name:22s} [{PRESETS[name]['command']}] {PRESETS[name]['description']}")
        return _EXIT_OK

    try:
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
                cfg = json.load(fh)

        t0 = time.time()
        result, code, csvs = _HANDLERS[args.command](cfg, max(1, args.threads))
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
        out_path = args.out or cfg.get("out")
        text = _write_report(report, out_path)
        if not out_path:
            print(text)
        else:
            print(f"report written to {out_path}")
        for path, writer in csvs.items():
            writer(path)
            print(f"csv written to {path}")
        return code
    except ExpSysError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def main():
    sys.exit(run())
