"""Strict JSON config schema: builders for measures, phases, spectra, quads.

Unknown keys are rejected at every level, never silently ignored.  Function
handles are given as expressions in the grammar of `expr` (identifiers
x1..x8, arithmetic, sin cos exp log sqrt abs sgn, pi, e).
"""

from __future__ import annotations

import math

import numpy as np

from . import measures, phases, repdisc, spectra
from .errors import ConfigError
from .expr import expression_on_points, parse_expression


def check_keys(cfg: dict, required, optional, where):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    allowed = set(required) | set(optional)
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing key(s) {missing} in {where}")


def as_scalar(value, kind, what):
    """kind(value) for kind int or float; ConfigError when it does not convert,
    when an int field gets a non-integral number or a float field a non-finite one."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not math.isfinite(out) or (isinstance(value, float) and out != value):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}")
    return out


def _expr_fn_of(text, allowed_vars, where):
    expr = parse_expression(text)
    bad = sorted(expr.variables - set(allowed_vars))
    if bad:
        raise ConfigError(f"identifiers {bad} not allowed in {where} ({text!r})")
    return expr


def _of_x2(expr):
    """Adapt an expression in x2 alone to a map on 1-d arrays t."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = expr.evaluate({"x2": t})
        return np.broadcast_to(np.asarray(out, dtype=float), t.shape).copy()

    return fn


def build_measure(cfg) -> measures.Measure:
    check_keys(cfg, ["kind"], ["lo", "hi", "center", "radius", "ratio", "digits", "base", "map"], "measure")
    kind = cfg["kind"]
    if kind == "lebesgue_box":
        check_keys(cfg, ["kind", "lo", "hi"], [], "measure.lebesgue_box")
        return measures.LebesgueBox(cfg["lo"], cfg["hi"])
    if kind == "lebesgue_disc":
        check_keys(cfg, ["kind", "center", "radius"], [], "measure.lebesgue_disc")
        return measures.LebesgueDisc(cfg["center"], cfg["radius"])
    if kind == "self_similar":
        check_keys(cfg, ["kind", "ratio", "digits"], [], "measure.self_similar")
        return measures.SelfSimilar(
            as_scalar(cfg["ratio"], int, "measure.ratio"), cfg["digits"]
        )
    if kind == "pushforward":
        check_keys(cfg, ["kind", "base", "map"], [], "measure.pushforward")
        return measures.pushforward(build_measure(cfg["base"]), build_phase(cfg["map"]))
    raise ConfigError(f"unknown measure kind {kind!r}")


def build_phase(cfg) -> phases.PhaseMap:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("phase must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "identity":
        check_keys(cfg, ["kind"], ["dim"], "phase.identity")
        return phases.Identity(as_scalar(cfg.get("dim", 1), int, "phase.dim"))
    if kind == "affine":
        check_keys(cfg, ["kind", "M"], ["b"], "phase.affine")
        return phases.Affine(cfg["M"], cfg.get("b"))
    if kind == "digit_map":
        check_keys(
            cfg,
            ["kind", "in_base", "in_digits", "out_base", "digit_map"],
            ["depth"],
            "phase.digit_map",
        )
        if not isinstance(cfg["digit_map"], dict):
            raise ConfigError("phase.digit_map must be an object")
        return phases.DigitMap(
            as_scalar(cfg["in_base"], int, "phase.in_base"),
            cfg["in_digits"],
            as_scalar(cfg["out_base"], int, "phase.out_base"),
            {
                as_scalar(k, int, "digit_map key"): as_scalar(v, float, "digit_map value")
                for k, v in cfg["digit_map"].items()
            },
            depth=as_scalar(cfg.get("depth", 30), int, "phase.depth"),
        )
    if kind == "holhos":
        check_keys(cfg, ["kind"], [], "phase.holhos")
        return phases.Holhos()
    if kind == "unipotent":
        check_keys(cfg, ["kind", "l"], [], "phase.unipotent")
        exprs = list(cfg["l"])
        d = len(exprs) + 1
        shifts = [
            expression_on_points(
                _expr_fn_of(text, {f"x{j}" for j in range(k + 2, d + 1)}, f"unipotent l_{k + 1}")
            )
            for k, text in enumerate(exprs)
        ]
        return phases.Unipotent(shifts, dim=d)
    if kind == "triangular2d":
        check_keys(cfg, ["kind", "z"], ["f", "K"], "phase.triangular2d")
        z = _of_x2(_expr_fn_of(cfg["z"], {"x2"}, "triangular2d z"))
        f = _of_x2(_expr_fn_of(cfg.get("f", "0"), {"x2"}, "triangular2d f"))
        return phases.Triangular2D(z, f, K=as_scalar(cfg.get("K", 0.0), float, "phase.K"))
    if kind == "custom":
        check_keys(cfg, ["kind", "expr", "in_dim"], [], "phase.custom")
        in_dim = as_scalar(cfg["in_dim"], int, "phase.in_dim")
        comps = [
            expression_on_points(
                _expr_fn_of(t, {f"x{j}" for j in range(1, in_dim + 1)}, "custom expr")
            )
            for t in cfg["expr"]
        ]
        return phases.CustomPhase(
            lambda pts: np.stack([c(pts) for c in comps], axis=-1),
            in_dim=in_dim,
            out_dim=len(comps),
        )
    if kind == "group_exp":
        check_keys(cfg, ["kind", "A", "ell"], [], "phase.group_exp")
        group = repdisc.GroupData(matrices=cfg["A"], ell=cfg["ell"])
        return repdisc.phase_from_group(group)
    raise ConfigError(f"unknown phase kind {kind!r}")


def build_spectrum(cfg) -> spectra.SpectrumSet:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("spectrum must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "lattice":
        check_keys(cfg, ["kind", "A", "radius"], [], "spectrum.lattice")
        return spectra.lattice(cfg["A"], as_scalar(cfg["radius"], float, "spectrum.radius"))
    if kind == "lambda4":
        check_keys(cfg, ["kind", "n"], [], "spectrum.lambda4")
        return spectra.lambda4(as_scalar(cfg["n"], int, "spectrum.n"))
    if kind == "explicit":
        check_keys(cfg, ["kind", "points"], [], "spectrum.explicit")
        return spectra.explicit(cfg["points"])
    raise ConfigError(f"unknown spectrum kind {kind!r}")


def build_quad(cfg) -> measures.QuadratureSpec:
    if not isinstance(cfg, dict) or "scheme" not in cfg:
        raise ConfigError("quad must be an object with a 'scheme'")
    scheme = cfg["scheme"]
    if scheme == "tensor-gauss":
        check_keys(cfg, ["scheme"], ["order"], "quad.tensor-gauss")
        return measures.gauss(order=as_scalar(cfg.get("order", 32), int, "quad.order"))
    if scheme == "monte-carlo":
        check_keys(cfg, ["scheme"], ["n_samples", "seed"], "quad.monte-carlo")
        return measures.monte_carlo(
            n_samples=as_scalar(cfg.get("n_samples", 100_000), int, "quad.n_samples"),
            seed=as_scalar(cfg.get("seed", 0), int, "quad.seed"),
        )
    if scheme == "self-similar-digit":
        check_keys(cfg, ["scheme"], ["depth"], "quad.self-similar-digit")
        return measures.digit(depth=as_scalar(cfg.get("depth", 30), int, "quad.depth"))
    if scheme == "adaptive":
        check_keys(
            cfg, ["scheme"], ["abs_tol", "max_subdivisions", "order"], "quad.adaptive"
        )
        return measures.adaptive(
            abs_tol=as_scalar(cfg.get("abs_tol", 1e-9), float, "quad.abs_tol"),
            max_subdivisions=as_scalar(
                cfg.get("max_subdivisions", 2000), int, "quad.max_subdivisions"
            ),
            order=as_scalar(cfg.get("order", 16), int, "quad.order"),
        )
    raise ConfigError(f"unknown quadrature scheme {scheme!r}")
