"""Strict JSON config schema: builders for measures, phases, spectra, quads.

Unknown keys are rejected at every level, never silently ignored.  Values
pass through to the library function they reach, whose readers refuse a bad
one with DomainError; this layer checks keys and JSON kinds only.  Function
handles are given as expressions in the grammar of `expr` (identifiers
x1..x8, arithmetic, sin cos exp log sqrt abs sgn, pi, e).
"""

from __future__ import annotations

import numpy as np

from . import measures, phases, repdisc, spectra
from .errors import ConfigError, _integer
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


def pick(table, name, what):
    """table[name]; ConfigError when name is not one of its string keys."""
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"unknown {what} {name!r}")
    return table[name]


def options(cfg, keys, prefix=""):
    """{key: value} of the `keys` that cfg sets, as given.  ConfigError for a
    null value: leaving a key out is how a config takes its default."""
    out = {key: cfg[key] for key in keys if key in cfg}
    for key, value in out.items():
        if value is None:
            raise ConfigError(f"{prefix}{key} must not be null; leave it out for its default")
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
        return measures.SelfSimilar(cfg["ratio"], cfg["digits"])
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
        return phases.Identity(**options(cfg, ["dim"], "phase."))
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
        try:  # JSON object keys are strings
            table = {int(k): v for k, v in cfg["digit_map"].items()}
        except ValueError:
            raise ConfigError("phase.digit_map keys must be integers") from None
        return phases.DigitMap(
            cfg["in_base"],
            cfg["in_digits"],
            cfg["out_base"],
            table,
            **options(cfg, ["depth"], "phase."),
        )
    if kind == "holhos":
        check_keys(cfg, ["kind"], [], "phase.holhos")
        return phases.Holhos()
    if kind == "unipotent":
        check_keys(cfg, ["kind", "l"], [], "phase.unipotent")
        exprs = cfg["l"]
        if not isinstance(exprs, list):
            raise ConfigError("phase.l must be a list of expressions")
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
        return phases.Triangular2D(z, f, **options(cfg, ["K"], "phase."))
    if kind == "custom":
        check_keys(cfg, ["kind", "expr", "in_dim"], [], "phase.custom")
        in_dim = _integer(cfg["in_dim"], "phase.in_dim", 1, 8)  # the grammar names x1..x8
        if not isinstance(cfg["expr"], list) or not cfg["expr"]:
            raise ConfigError("phase.expr must be a non-empty list of expressions")
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
        return spectra.lattice(cfg["A"], cfg["radius"])
    if kind == "lambda4":
        check_keys(cfg, ["kind", "n"], [], "spectrum.lambda4")
        return spectra.lambda4(cfg["n"])
    if kind == "explicit":
        check_keys(cfg, ["kind", "points"], [], "spectrum.explicit")
        return spectra.explicit(cfg["points"])
    raise ConfigError(f"unknown spectrum kind {kind!r}")


_QUADS = {
    "tensor-gauss": (measures.gauss, ["order"]),
    "monte-carlo": (measures.monte_carlo, ["n_samples", "seed"]),
    "self-similar-digit": (measures.digit, ["depth"]),
    "adaptive": (measures.adaptive, ["abs_tol", "max_subdivisions", "order"]),
}


def build_quad(cfg) -> measures.QuadratureSpec:
    if not isinstance(cfg, dict) or "scheme" not in cfg:
        raise ConfigError("quad must be an object with a 'scheme'")
    make, keys = pick(_QUADS, cfg["scheme"], "quadrature scheme")
    check_keys(cfg, ["scheme"], keys, f"quad.{cfg['scheme']}")
    return make(**options(cfg, keys, "quad."))
