import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import expsys as es
from expsys import _oscillatory, measures
from expsys._oscillatory import (
    _digit_moments,
    _digit_transfer,
    _guard_rows,
    _split_moments,
    _tensor_gauss,
    exp_moments,
    plan,
)
from expsys.errors import DomainError, QuadratureError, SchemeMismatchError
from expsys.measures import _MAX_ENTRIES, _box_ft, digit_nodes
from expsys.reconstruct import coefficients
from expsys.seeding import spawn_rng


def _half(lo, hi):
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


STACK_CASES = {
    "tensor-gauss": (
        es.LebesgueBox([0.0], [1.0]),
        es.Identity(1),
        [[0.0], [1.0], [2.5], [-7.0]],
        es.gauss(32),
        [
            None,
            (lambda x: x[:, 0] ** 2, None),
            (lambda x: np.cos(3 * x[:, 0]), _half([0.0], [0.5])),
            (lambda x: np.exp(1j * x[:, 0]), _half([0.25], [1.0])),
        ],
    ),
    "monte-carlo": (
        es.LebesgueBox([0.0], [1.0]),
        es.Identity(1),
        [[0.0], [1.0], [2.5]],
        es.monte_carlo(20_000, seed=3),
        [None, (lambda x: x[:, 0], None), (lambda x: x[:, 0] ** 2, _half([0.0], [0.5]))],
    ),
    "self-similar-digit": (
        es.middle_third_cantor(),
        es.Identity(1),
        [[0.0], [3.0], [4.5]],
        es.digit(depth=12),
        [None, (lambda x: x[:, 0], None), (None, _half([0.0], [0.5]))],
    ),
    "adaptive-disc": (
        es.LebesgueDisc([0.0, 0.0], 1.0),
        es.Identity(2),
        [[0.0, 0.0], [0.5, -0.25]],
        es.adaptive(abs_tol=1e-8, max_subdivisions=400),
        [None, (lambda x: x[:, 0] ** 2, None), (None, _half([-2.0, -2.0], [2.0, 0.0]))],
    ),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_weight_stack_matches_single_weight_calls(case):
    mu, phi, lam, quad, weights = STACK_CASES[case]
    lam = -np.asarray(lam, dtype=float)
    vals, errs = exp_moments(mu, phi, lam, quad, weights=weights)
    assert vals.shape == errs.shape == (len(lam), len(weights))
    for j, w in enumerate(weights):
        v1, e1 = exp_moments(mu, phi, lam, quad, weights=[w])
        assert v1.shape == (len(lam), 1)
        scale = np.max(np.abs(v1))
        assert_allclose(vals[:, j], v1[:, 0], rtol=1e-12, atol=1e-12 * scale)
        # error estimates compare on the value scale: Gauss ones are round-off
        assert_allclose(errs[:, j], e1[:, 0], rtol=1e-12, atol=1e-12 * scale)


PUSHED = {
    "tensor-gauss": (es.LebesgueBox([0.0], [1.0]), es.gauss(32)),
    "monte-carlo": (es.LebesgueBox([0.0], [1.0]), es.monte_carlo(200_000, seed=5)),
    "self-similar-digit": (es.middle_third_cantor(), es.digit(depth=16)),
}


@pytest.mark.parametrize("scheme", sorted(PUSHED))
def test_pushforward_weights_use_image_coordinates(scheme):
    # psi(x) = 2x pushes both base measures to mean 1; integral of y d(psi_* mu)
    # is 1, and the box y < 1 carries half the mass
    base, quad = PUSHED[scheme]
    pf = es.pushforward(base, es.Affine([[2.0]]))
    zero = es.explicit([[0.0]])
    c = coefficients(lambda y: y[:, 0], pf, es.Identity(1), zero, quad)
    ref, ref_err = es.integrate(lambda y: y[:, 0], pf, quad)
    assert abs(c.values[0] - 1.0) <= 5 * c.errors[0] + 1e-12
    assert abs(ref - 1.0) <= 5 * ref_err + 1e-12

    box = [(None, _half([0.0], [1.0]))]
    if scheme == "tensor-gauss":
        with pytest.raises(SchemeMismatchError):
            exp_moments(pf, es.Identity(1), [[0.0]], quad, weights=box)
    else:
        v, e = exp_moments(pf, es.Identity(1), [[0.0]], quad, weights=box)
        assert abs(v[0, 0] - 0.5) <= 5 * e[0, 0] + 1e-12


def test_tensor_gauss_support_box_is_clipped_to_the_measure():
    # [-1, 0.5) reaches outside Lebesgue[0, 1]: its indicator has mass 0.5
    mu, box = es.LebesgueBox([0.0], [1.0]), [(None, _half([-1.0], [0.5]))]
    for quad in (es.gauss(32), es.adaptive()):
        v, e = exp_moments(mu, es.Identity(1), [[0.0], [3.0]], quad, weights=box)
        assert_allclose(v[:, 0], [0.5, 1j / (3 * np.pi)], atol=1e-12)


def _record_rule_edges(monkeypatch):
    """The panel edges of every rule `_gauss_moments` builds, as tuples."""
    from expsys import _oscillatory

    seen = []
    real = _oscillatory.box_gauss_nodes

    def recorded(edges, order):
        seen.append(tuple(tuple(e.tolist()) for e in edges))
        return real(edges, order)

    monkeypatch.setattr(_oscillatory, "box_gauss_nodes", recorded)
    return seen


def test_tensor_gauss_unboxed_rule_has_no_edge_at_another_columns_box(monkeypatch):
    # |lambda| = 15 at gauss(32) gives ceil(5 * 15 / 32) = 3 panels on
    # [0, 1]: the unboxed column keeps thirds, with no edge at the other
    # column's box edge 1/2; the box [0, 1/2) gets its half share, 2 panels
    seen = _record_rule_edges(monkeypatch)
    box = _half([0.0], [0.5])
    v, e = exp_moments(
        es.LebesgueBox([0.0], [1.0]), es.Identity(1), [[15.0]], es.gauss(32),
        weights=[None, (None, box)],
    )
    thirds = (tuple(np.linspace(0.0, 1.0, 4).tolist()),)
    assert seen == [thirds, thirds, ((0.0, 0.25, 0.5),), ((0.0, 0.25, 0.5),)]
    assert_allclose(v[0], [0.0, 1j / (15 * np.pi)], atol=1e-14)


def test_tensor_gauss_empty_boxes_integrate_to_zero(monkeypatch):
    # outside, empty and inverted boxes build no rule and give exact zeros
    seen = _record_rule_edges(monkeypatch)
    boxes = [_half([2.0], [3.0]), _half([0.5], [0.5]), _half([0.7], [0.2])]
    v, e = exp_moments(
        es.LebesgueBox([0.0], [1.0]), es.Identity(1), [[0.0], [3.0]], es.gauss(16),
        weights=[(None, box) for box in boxes],
    )
    assert seen == []
    assert np.array_equal(v, np.zeros((2, 3))) and np.array_equal(e, np.zeros((2, 3)))


def test_tensor_gauss_frame_matrix_runs_one_sub_rule_per_cell(monkeypatch):
    # 64 indicator cells over Lebesgue[0, 1/2] at |lambda| <= 256: one cycle
    # estimate and one refined layout; each (cell, order) sub-rule builds
    # only its own cell's nodes, one panel of 24 or 32
    from expsys import _oscillatory

    calls = {"contract": 0, "cycles": 0, "nodes": 0}
    largest = []

    def counted(name, fn, amount=lambda r: 1):
        def wrapper(*args):
            out = fn(*args)
            calls[name] += amount(out)
            return out

        return wrapper

    def nodes(r):
        largest.append(r[0].shape[0])
        return r[0].shape[0]

    monkeypatch.setattr(_oscillatory, "_contract", counted("contract", _oscillatory._contract))
    monkeypatch.setattr(
        _oscillatory, "oscillation_cycles", counted("cycles", _oscillatory.oscillation_cycles)
    )
    monkeypatch.setattr(
        _oscillatory, "box_gauss_nodes", counted("nodes", _oscillatory.box_gauss_nodes, nodes)
    )
    mu = es.LebesgueBox([0.0], [0.5])
    basis = es.dyadic_indicator_basis(mu, 64)
    report = es.frame_bounds(mu, es.Identity(1), es.integer_lattice(1, 256), basis, es.gauss(24))
    assert calls == {"contract": 64 * 2, "cycles": 1, "nodes": 64 * (24 + 32)}
    assert max(largest) == 32
    # a restricted Parseval frame: b <= 1, and a < 1 from the spectrum truncation
    assert 0.5 < report.a_est <= report.b_est <= 1.0 + 1e-12


def test_tensor_gauss_frame_matrix_holds_one_box_at_a_time():
    # an 8 x 8 dyadic basis: each box's sub-grid, weights and phase image
    # live only while its sub-rule runs (a node set over all 64 boxes,
    # with its image and weight blocks, peaks near 17 MB)
    import tracemalloc

    mu = es.LebesgueBox([0.0, 0.0], [1.0, 1.0])
    basis = es.dyadic_indicator_basis(mu, 64)
    lam = es.integer_lattice(2, 2).points
    weights = [(f.fn, f.support_box) for f in basis.functions]
    tracemalloc.start()
    try:
        exp_moments(mu, es.Identity(2), -lam, es.gauss(48), weights=weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "make_phase",
    [
        lambda: es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2),
        lambda: es.Triangular2D(z=np.exp),
    ],
    ids=["shear", "triangular"],
)
def test_boxed_blocks_are_thread_deterministic(make_phase):
    # boxed and unboxed columns under a nonlinear phase give the same bytes
    # on any number of workers; each run starts the triangular memo afresh,
    # so the workers race to build it
    mu = es.LebesgueBox([0.0, 0.0], [1.0, 1.0])
    basis = es.dyadic_indicator_basis(mu, 16)
    weights = [(f.fn, f.support_box) for f in basis.functions] + [(lambda x: x[:, 0], None)]
    lam = es.integer_lattice(2, 3).points
    runs = [
        exp_moments(mu, make_phase(), lam, es.gauss(32), weights=weights, threads=t)
        for t in (1, 2, 4)
    ]
    for T, E in runs[1:]:
        assert np.array_equal(T, runs[0][0])
        assert np.array_equal(E, runs[0][1])


@pytest.mark.parametrize("dim, m", [(1, 2048), (2, 256)])
def test_tensor_gauss_indicator_frame_matrix_matches_closed_form(dim, m):
    # each indicator column is contracted over its own cell's nodes only, so
    # bases that per-cell rules ran stay inside the entry budget (an (n, k)
    # stack over every node needs 56 m^2 entries in 1-d at gauss(48))
    mu = es.LebesgueBox([0.0] * dim, [1.0] * dim)
    basis = es.dyadic_indicator_basis(mu, m)
    lam = es.integer_lattice(dim, 2).points
    weights = [(f.fn, f.support_box) for f in basis.functions]
    T, _ = exp_moments(mu, es.Identity(dim), -lam, es.gauss(48), weights=weights)
    lo = np.array([f.support_box[0] for f in basis.functions])  # (m, dim)
    hi = np.array([f.support_box[1] for f in basis.functions])
    t = -2j * np.pi * lam[:, None, :]  # (freqs, 1, dim)
    with np.errstate(invalid="ignore", divide="ignore"):
        sides = np.where(t == 0, hi - lo, (np.exp(t * hi) - np.exp(t * lo)) / t)
    scale = basis.functions[0].fn(np.zeros((1, dim)))[0]
    assert_allclose(T, scale * sides.prod(axis=2), atol=1e-12)


def test_tensor_gauss_reports_the_phase_domain_error():
    # the Jacobian probe samples the radius-2 disc, outside Holhos' domain
    with pytest.raises(DomainError, match="closed unit disc"):
        exp_moments(es.LebesgueDisc([0.0, 0.0], 2.0), es.Holhos(), [[1.0, 0.0]], es.gauss(16))


B2Q = es.binary_to_quaternary(depth=30)
T2Q = es.ternary_to_quaternary(depth=30)
MC400K = es.monte_carlo(400_000, seed=0)

ADAPTIVE_DISC = es.adaptive(abs_tol=2e-5, max_subdivisions=600, order=16)
TIGHT_ADAPTIVE = es.adaptive(abs_tol=1e-10, max_subdivisions=4000)
CANTOR4 = (4, ((0.0, 0.5), (2.0, 0.5)))  # digit key of the middle-fourth Cantor measure
CANTOR4_X2 = (4, ((0.0, 0.5), (4.0, 0.5)))
UNIT = es.LebesgueBox([0.0], [1.0])
SQUARED = es.CustomPhase(lambda x: x**2, 1, 1)


def _pinned(p):
    """(path, rule or the reduced measure's digit key, trunc) of a plan."""
    return p.path, p.mu.digit_key() if p.rule is None else p.rule, p.trunc


def _plans(mu, phi, quad):
    """Every plan the library asks for with this (mu, phi, quad), by purpose:
    gram, coefficients and frame matrices (weights), norms (the measure rule
    planned from the coefficient rule, as verify_onb does), the basis residual
    (measure, from quad) and fourier_transform (gauss(64), identity phase)."""
    ident = es.Identity(mu.dim)
    weights = plan(mu, phi, quad, "weights")
    return {
        "gram": plan(mu, phi, quad, "gram"),
        "weights": weights,
        "norms": plan(mu, ident, weights.rule, "measure"),
        "measure": plan(mu, ident, quad, "measure"),
        "transform": plan(mu, ident, es.gauss(64), "transform"),
    }


def _pf(trunc, key=CANTOR4):
    return ("product-formula", key, trunc)


def _q(rule):
    return ("quadrature", rule, None)


# (mu, phi, quad) -> {purpose: (path, rule or reduced digit key, trunc)}; one
# entry per (measure kind, phase kind, scheme, purpose) the library reaches.
# Boxes and discs have closed-form transforms, so they carry no transform entry.
RULE_CASES = {
    "cantor4": (UNIT, B2Q, es.digit(40), {
        "gram": _pf(40), "weights": _q(MC400K), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(48)),
    }),
    "cantor3": (es.middle_third_cantor(), T2Q, es.digit(40), {
        "gram": _pf(40), "weights": _q(es.digit(40)), "norms": _q(es.digit(30)),
        "measure": _q(es.digit(30)), "transform": _pf(40, (3, ((0.0, 0.5), (2.0, 0.5)))),
    }),
    "cantor4-monte-carlo": (UNIT, B2Q, es.monte_carlo(1000, seed=3), {
        "gram": _q(es.monte_carlo(1000, seed=3)),
        "weights": _q(es.monte_carlo(1000, seed=3)), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(48)),
    }),
    # the transfer runs inside the digit rule only: samples stay samples ...
    "cantor3-monte-carlo": (es.middle_third_cantor(), T2Q, es.monte_carlo(1000, seed=3), {
        "gram": _q(es.monte_carlo(1000, seed=3)),
        "weights": _q(es.monte_carlo(1000, seed=3)), "norms": _q(es.digit(30)),
        "measure": _q(es.digit(30)),
    }),
    # ... and a phase that is no digit system runs the digit rule
    "cantor3-squared": (es.middle_third_cantor(), SQUARED, es.digit(40), {
        "gram": _q(es.digit(40)), "weights": _q(es.digit(40)), "norms": _q(es.digit(30)),
        "measure": _q(es.digit(30)),
    }),
    "cantor3-digit50": (es.middle_third_cantor(), T2Q, es.digit(50), {
        "gram": _pf(50), "weights": _q(es.digit(50)), "norms": _q(es.digit(30)),
        "measure": _q(es.digit(30)),
    }),
    # the coefficient rule is 400k samples, so the norms run under gauss(48),
    # while the residual, planned from quad itself, runs under gauss(64)
    "digit-map-box-gauss64": (UNIT, B2Q, es.gauss(64), {
        "gram": _pf(40), "weights": _q(MC400K), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(64)),
    }),
    "box-digit": (UNIT, es.Identity(1), es.digit(40), {
        "gram": _q(es.digit(40)), "weights": _q(MC400K), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(48)),
    }),
    "holhos-disc": (es.LebesgueDisc([0.0, 0.0], 1.0), es.Holhos(), ADAPTIVE_DISC, {
        "gram": _q(ADAPTIVE_DISC), "weights": _q(ADAPTIVE_DISC),
        "norms": _q(TIGHT_ADAPTIVE), "measure": _q(TIGHT_ADAPTIVE),
    }),
    "disc-pushforward": (
        es.pushforward(es.LebesgueDisc([0.0, 0.0], 1.0), es.Holhos()), es.Identity(2),
        es.gauss(16), {
            "gram": _q(es.gauss(16)), "weights": _q(es.gauss(16)),
            "norms": _q(TIGHT_ADAPTIVE), "measure": _q(TIGHT_ADAPTIVE),
            "transform": _q(TIGHT_ADAPTIVE),
        },
    ),
    "box-gauss": (es.LebesgueBox([0.0, 0.0], [1.0, 1.0]), es.Identity(2), es.gauss(64), {
        "gram": _q(es.gauss(64)), "weights": _q(es.gauss(64)), "norms": _q(es.gauss(64)),
        "measure": _q(es.gauss(64)),
    }),
    "box-gauss-low-order": (es.LebesgueBox([0.0], [0.5]), es.Identity(1), es.gauss(24), {
        "gram": _q(es.gauss(24)), "weights": _q(es.gauss(24)), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(48)),
    }),
    "user-monte-carlo": (UNIT, es.Identity(1), es.monte_carlo(50_000, seed=7), {
        "gram": _q(es.monte_carlo(50_000, seed=7)),
        "weights": _q(es.monte_carlo(50_000, seed=7)), "norms": _q(es.gauss(48)),
        "measure": _q(es.gauss(48)),
    }),
    "digit-map-pushforward": (es.pushforward(UNIT, B2Q), es.Identity(1), es.gauss(64), {
        "gram": _pf(40), "weights": _q(MC400K), "norms": _q(MC400K),
        "measure": _q(MC400K), "transform": _pf(40),
    }),
    "gauss-on-cantor": (es.middle_fourth_cantor(), es.Identity(1), es.gauss(32), {
        "gram": _pf(40), "weights": _q(es.digit(30)), "norms": _q(es.digit(30)),
        "measure": _q(es.digit(30)), "transform": _pf(40),
    }),
    # 2 x on the middle-fourth Cantor measure is the digit system {0, 4}
    "affine-on-cantor": (
        es.pushforward(es.middle_fourth_cantor(), es.Affine([[2.0]])), es.Identity(1),
        es.gauss(32), {
            "gram": _pf(40, CANTOR4_X2), "weights": _q(es.digit(30)),
            "norms": _q(es.digit(30)), "measure": _q(es.digit(30)),
            "transform": _pf(40, CANTOR4_X2),
        },
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_rule_table(case):
    mu, phi, quad, expected = RULE_CASES[case]
    plans = _plans(mu, phi, quad)
    assert {purpose: _pinned(plans[purpose]) for purpose in expected} == expected


def test_gram_plan_runs_on_the_collapsed_pair():
    p = plan(es.pushforward(UNIT, es.Affine([[2.0]])), es.Identity(1), es.gauss(32), "gram")
    assert p.mu.kind == "lebesgue_box" and isinstance(p.phi, es.Affine)
    with pytest.raises(ValueError, match="unknown moment purpose"):
        plan(UNIT, es.Identity(1), es.gauss(32), "norms")


def _names(path):
    """(every name a module binds, reads or imports, the names it calls or imports)."""
    import ast

    bound, called = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute):
            bound.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound |= {node.name, node.asname}
            called.add(node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return bound, called


def _users(path, name):
    """The top-level definitions of a module ("<module>" for other statements)
    that call or import `name`."""
    import ast

    users = set()
    for stmt in ast.parse(path.read_text()).body:
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            if getattr(node, "name", None) == name or name in (
                getattr(func, "id", None), getattr(func, "attr", None)
            ):
                users.add(getattr(stmt, "name", "<module>"))
    return users


def test_plan_is_the_one_decision_point():
    from pathlib import Path

    library = sorted(Path(es.__file__).parent.glob("*.py"))
    for path in library + sorted(Path(__file__).parent.glob("*.py")):
        bound, called = _names(path)
        assert not bound & {"rule_for", "measure_rule"}, path.name
        if path in library and path.stem not in ("_oscillatory", "measures"):
            assert not called & {"as_selfsimilar", "selfsimilar_moments"}, path.name
        # every other moment call goes through a plan; integrate is the engine's
        # lambda = 0 moment under the caller's own rule
        if path in library and path.stem != "_oscillatory":
            expected = {"integrate"} if path.stem == "measures" else set()
            assert _users(path, "exp_moments") == expected, path.name
    # the gate's enumeration oracle is the digit enumeration, never the transfer
    measures_path = Path(es.__file__).parent / "measures.py"
    assert _users(measures_path, "_digit_moments") == {"validate_product_formula"}
    # measures builds the adaptive cells' nodes; the engine refines each pair
    assert not _names(measures_path)[0] & {"heapq", "_adaptive_cells"}


def test_digit_systems_are_recognized_by_the_engine_only():
    # phases defines as_digit_system and pushes it forward in as_selfsimilar
    from pathlib import Path

    library = sorted(Path(es.__file__).parent.glob("*.py"))
    for path in library:
        if path.stem not in ("_oscillatory", "measures", "phases"):
            assert "as_digit_system" not in _names(path)[1], path.name
    phases_path = Path(es.__file__).parent / "phases.py"
    assert _users(phases_path, "as_digit_system") == {"as_digit_system", "as_selfsimilar"}


def test_measures_exponentiates_only_in_its_closed_forms():
    # the product-formula gate's oracles run on the engine, not on an exp of their own
    from pathlib import Path

    path = Path(es.__file__).parent / "measures.py"
    assert _users(path, "exp") == {"_mask_value", "_box_ft", "_disc_ft"}


def test_product_formula_plan_takes_the_unit_weight_only():
    how = plan(es.middle_fourth_cantor(), es.Identity(1), es.digit(40), "gram")
    assert how.path == "product-formula"
    lam = np.array([[0.0], [1.0], [4.0]])
    vals, _ = how.moments(lam)
    assert_allclose(how.moments(lam, [(None, None)])[0], vals)
    f = (lambda y: y[:, 0], None)
    g = (None, (np.array([0.0]), np.array([0.5])))
    for weights in ([f, g], [f], [g], [None, None]):
        with pytest.raises(DomainError, match="unit weight"):
            how.moments(lam, weights)


def test_pushforward_transform_rule_samples_digit_maps():
    pf = es.pushforward(UNIT, B2Q)
    assert plan(pf, es.Identity(1), es.gauss(64), "measure").rule == MC400K
    # a digit map off Lebesgue[0, 1] does not reduce, so its transform samples
    half = es.pushforward(es.LebesgueBox([0.0], [0.5]), B2Q)
    assert plan(half, es.Identity(1), es.gauss(64), "transform").rule == MC400K
    scaled = es.pushforward(UNIT, es.Affine([[2.0]]))
    assert plan(scaled, es.Identity(1), es.gauss(64), "transform").rule == es.gauss(64)


def test_tensor_gauss_disc_matches_per_quadrant_integrate():
    # frequencies low enough for one panel per quadrant, so each of the disc's
    # cells is one plain tensor-Gauss `integrate` call through its node map
    disc = es.LebesgueDisc([0.2, -0.1], 1.5)
    lam = np.array([[0.0, 0.0], [1.0, -0.5], [-1.5, 1.25]])
    weights = [None, (lambda y: y[:, 0] ** 2 + y[:, 1], None)]
    quad = es.gauss(32)
    vals, errs = exp_moments(disc, es.Identity(2), lam, quad, weights=weights)
    for i, row in enumerate(lam):
        for j, w in enumerate(weights):
            fn = (lambda y: np.ones(y.shape[0])) if w is None else w[0]

            def f(rt, row=row, fn=fn):
                y, r = disc.cell_nodes(rt, 1.0)
                return np.exp(2j * np.pi * (y @ row)) * fn(y) * r

            parts = [es.integrate(f, es.LebesgueBox(lo, hi), quad) for lo, hi in disc.cells()]
            value = sum(v for v, _ in parts)
            scale = abs(value)
            assert abs(vals[i, j] - value) <= 1e-12 * scale
            assert abs(errs[i, j] - sum(e for _, e in parts)) <= 1e-12 * scale


def test_tensor_gauss_disc_panels_match_closed_form():
    disc = es.LebesgueDisc([0.2, -0.1], 1.5)
    for row in ([7.0, -3.0], [0.0, 12.5]):
        vals, errs = exp_moments(disc, es.Identity(2), [row], es.gauss(32))
        exact = es.fourier_transform(disc, row)
        assert abs(vals[0, 0] - exact) <= 1e-10
        assert errs[0, 0] <= 1e-8


# real weights on each measure: conj of the +lambda moment is the -lambda one
REAL_WEIGHTS = [None, (lambda x: x[:, 0] ** 2, None), (lambda x: np.cos(3 * x[:, 0]), None)]
BENT = es.CustomPhase(lambda x: x + 0.1 * np.sin(2 * np.pi * x), 1, 1)
CONJUGATION_CASES = {
    "tensor-gauss": (es.LebesgueBox([0.0], [1.0]), es.gauss(16)),
    "monte-carlo": (es.LebesgueBox([0.0], [1.0]), es.monte_carlo(2_000, seed=11)),
    "self-similar-digit": (es.middle_third_cantor(), es.digit(depth=8)),
    "adaptive": (es.LebesgueBox([0.0], [1.0]), es.adaptive(abs_tol=1e-6, max_subdivisions=200)),
}


@pytest.mark.parametrize("scheme", sorted(CONJUGATION_CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(lam=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3))
def test_negated_frequency_conjugates_moments(scheme, lam):
    mu, quad = CONJUGATION_CASES[scheme]
    lam = np.asarray(lam)[:, None]
    vals, errs = exp_moments(mu, BENT, lam, quad, weights=REAL_WEIGHTS)
    neg_vals, neg_errs = exp_moments(mu, BENT, -lam, quad, weights=REAL_WEIGHTS)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    assert_allclose(neg_vals, np.conj(vals), rtol=0, atol=1e-12 * scale)
    assert_allclose(neg_errs, errs, rtol=1e-12, atol=1e-12 * scale)


NAN_PHASE = es.CustomPhase(lambda x: np.where(x < 0.5, np.nan, x), 1, 1)


@pytest.mark.parametrize("scheme", sorted(CONJUGATION_CASES))
def test_non_finite_moments_raise_under_every_scheme(scheme):
    # tensor-gauss stops at the Jacobian probe and adaptive at its integrand
    # check; the sampled and enumerated schemes reach the check on the result
    mu, quad = CONJUGATION_CASES[scheme]
    on_result = scheme in ("monte-carlo", "self-similar-digit")
    with pytest.raises(QuadratureError, match="non-finite value" if on_result else None):
        exp_moments(mu, NAN_PHASE, [[1.0]], quad)
    if on_result:
        vals, _ = exp_moments(mu, NAN_PHASE, [[1.0]], quad, strict=False)
        assert np.isnan(vals[0, 0])


def _adaptive_cells(f, cells, quad, seen):
    """The per-pair refinement the engine shares its rules from: every cell
    builds its own two rules and runs f on them.  Each (cell lo, cell hi,
    order) it builds is added to `seen`."""
    import heapq

    abs_tol, max_subdivisions, order = quad.abs_tol, quad.max_subdivisions, quad.order
    order_lo = max(2, order // 2)
    counter = 0
    heap = []

    def eval_cell(lo, hi):
        seen.update((lo.tobytes(), hi.tobytes(), o) for o in (order, order_lo))
        pts, w = es.measures.box_gauss_nodes(np.stack([lo, hi], axis=1), order)
        hi_val = w @ es.measures._apply(f, pts)
        pts2, w2 = es.measures.box_gauss_nodes(np.stack([lo, hi], axis=1), order_lo)
        lo_val = w2 @ es.measures._apply(f, pts2)
        return hi_val, abs(hi_val - lo_val)

    for lo, hi in cells:
        val, err = eval_cell(lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    subdivisions = 0
    while True:
        total_err = sum(item[5] for item in heap)
        if total_err <= abs_tol or subdivisions >= max_subdivisions:
            break
        neg_err, _, lo, hi, _, _ = heapq.heappop(heap)
        widths = hi - lo
        split = int(np.argmax(widths))
        mid = 0.5 * (lo[split] + hi[split])
        for piece in (0, 1):
            plo = lo.copy()
            phi_ = hi.copy()
            if piece == 0:
                phi_[split] = mid
            else:
                plo[split] = mid
            val, err = eval_cell(plo, phi_)
            heapq.heappush(heap, (-err, counter, plo, phi_, val, err))
            counter += 1
        subdivisions += 1

    value = sum(item[4] for item in heap)
    err = sum(item[5] for item in heap)
    assert err <= 10 * abs_tol
    return value, err


def _per_pair_moments(mu, phi, lam, quad, weights):
    """(values, errors, {weight: the (cell, order) rules its pairs build}) of
    one refinement per (frequency, weight) pair, each with its own integrand."""
    vals = np.zeros((lam.shape[0], len(weights)), dtype=complex)
    errs = np.zeros(vals.shape)
    seen = {j: set() for j in range(len(weights))}
    for i in range(lam.shape[0]):
        for j in range(len(weights)):

            def f(cell_pts):
                pts, jac = mu.cell_nodes(cell_pts, 1.0)
                w = _oscillatory._weight_matrix(weights[j : j + 1], pts)[:, 0]
                return np.exp(2j * np.pi * (phi(pts) @ lam[i])) * w * jac

            vals[i, j], errs[i, j] = _adaptive_cells(f, mu.cells(), quad, seen[j])
    return vals, errs, seen


# (mu, phi, quad, 21 frequencies) under adaptive; each is run with a unit, a
# boxed and a complex weight
SHARED_RULE_CASES = {
    "holhos-disc": (
        es.LebesgueDisc([0.0, 0.0], 1.0), es.Holhos(), ADAPTIVE_DISC,
        spawn_rng(5, "adaptive-pairs").uniform(-2.0, 2.0, (21, 2)),
    ),
    "bent-box": (
        es.LebesgueBox([0.0, 0.0], [1.0, 2.0]),
        es.CustomPhase(lambda x: x + 0.1 * np.sin(2 * np.pi * x), 2, 2),
        es.adaptive(abs_tol=1e-7, max_subdivisions=600, order=16),
        spawn_rng(6, "adaptive-pairs").uniform(-3.0, 3.0, (21, 2)),
    ),
}


SHARED_RULE_WEIGHTS = [
    (None, None),
    (lambda x: x[:, 0] ** 2, _half([-2.0, 0.0], [0.5, 2.0])),
    (lambda x: np.exp(1j * x[:, 1]), None),
]


@functools.lru_cache(maxsize=None)
def _per_pair_case(case):
    mu, phi, quad, lam = SHARED_RULE_CASES[case]
    return _per_pair_moments(mu, phi, lam, quad, SHARED_RULE_WEIGHTS)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", sorted(SHARED_RULE_CASES))
def test_adaptive_pairs_sharing_rules_match_per_pair_refinement(case, threads):
    mu, phi, quad, lam = SHARED_RULE_CASES[case]
    vals, errs = exp_moments(mu, phi, lam, quad, weights=SHARED_RULE_WEIGHTS, threads=threads)
    ref_vals, ref_errs, _ = _per_pair_case(case)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(errs, ref_errs)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("case", sorted(SHARED_RULE_CASES))
def test_adaptive_builds_each_cell_rule_once_a_call(monkeypatch, case, threads):
    # every (cell, order) rule is built once, and a weight runs once on each
    # rule of a cell that a pair of that weight refines, on no other
    from collections import Counter

    mu, phi, quad, lam = SHARED_RULE_CASES[case]
    weights = SHARED_RULE_WEIGHTS
    _, _, seen = _per_pair_case(case)
    node_keys = {}  # the nodes' bytes -> their (cell lo, cell hi, order)
    for key in set().union(*seen.values()):
        lo, hi = (np.frombuffer(b) for b in key[:2])
        pts, _ = es.measures.box_gauss_nodes(np.stack([lo, hi], axis=1), key[2])
        node_keys[mu.cell_nodes(pts, 1.0)[0].tobytes()] = key
    built, ran = [], {j: [] for j in range(len(weights))}

    def build(edges, order):
        built.append((edges[:, 0].tobytes(), edges[:, 1].tobytes(), order))
        return es.measures.box_gauss_nodes(edges, order)

    def spied(j, fn):
        def weight(y):
            ran[j].append(node_keys[y.tobytes()])
            return fn(y)

        return weight

    monkeypatch.setattr(_oscillatory, "box_gauss_nodes", build)
    spies = [(None if fn is None else spied(j, fn), box) for j, (fn, box) in enumerate(weights)]
    exp_moments(mu, phi, lam, quad, weights=spies, threads=threads)
    assert Counter(built) == Counter(set().union(*seen.values()))
    assert len(built) < sum(map(len, seen.values()))
    for j, (fn, _) in enumerate(weights):
        assert Counter(ran[j]) == (Counter() if fn is None else Counter(seen[j]))


def test_adaptive_rule_table_starts_over_past_its_node_bound(monkeypatch):
    # four order-16 rules of 256 nodes: the table starts over and rebuilds on use
    mu, phi, quad, lam = SHARED_RULE_CASES["bent-box"]
    built = []

    def build(edges, order):
        built.append((edges.tobytes(), order))
        return es.measures.box_gauss_nodes(edges, order)

    monkeypatch.setattr(_oscillatory, "_ADAPTIVE_NODES", 4 * 256)
    monkeypatch.setattr(_oscillatory, "box_gauss_nodes", build)
    vals, errs = exp_moments(mu, phi, lam, quad, weights=SHARED_RULE_WEIGHTS)
    ref_vals, ref_errs, _ = _per_pair_case("bent-box")
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(errs, ref_errs)
    assert len(built) > len(set(built))


def test_tensor_gauss_sizes_each_sub_rule_by_its_own_box():
    # 64 panels a dimension at gauss(128): a node set over every panel would
    # hold 75,759,616 x 2 entries, the one box's sub-rule holds 136^2 nodes
    mu, box = es.LebesgueBox([0.0, 0.0], [1.0, 1.0]), _half([0.0, 0.0], [1 / 64, 1 / 64])
    lam = np.array([1601.3, 1600.7])
    v, e = exp_moments(mu, es.Identity(2), [lam], es.gauss(128), weights=[(None, box)])
    exact = _box_ft(es.LebesgueBox(*box), lam[None, :])[0]
    assert abs(v[0, 0] - exact) <= e[0, 0] + 1e-14


def test_weight_stack_budget_refused_before_building():
    # 2^20 digit nodes leave room for 128 weight columns; x^2 is no digit
    # system, so the call runs the enumeration at the caller's depth
    mu, quad = es.middle_fourth_cantor(), es.digit(depth=30)
    n = 1 << 20
    k = _MAX_ENTRIES // n
    assert _digit_transfer(mu, SQUARED, np.zeros((1, 1)), quad.depth, [(None, None)]) is None
    with pytest.raises(DomainError, match="weight stack"):
        exp_moments(mu, SQUARED, [[0.0]], quad, weights=[None] * (k + 1))


def test_digit_rule_does_not_depend_on_the_digit_listing():
    # the enumeration's error model reads adjacent nodes (listed descending,
    # the digits gave errors up to 35.6 where ascending gave 1.9e-10), and
    # the transfer's cylinders and recursion follow `as_digit_system`'s rows
    # (rows in listed order moved these moments of x^2 by up to 1.6e-16)
    weights = [(lambda x: x[:, 0] ** 2, None)]
    for m in (4, 40):
        lam = np.linspace(-17.0, 17.0, m)[:, None]
        (v_up, e_up), (v_down, e_down) = (
            exp_moments(es.SelfSimilar(4, digits), es.Identity(1), lam, es.digit(30), weights)
            for digits in (((0.0, 0.5), (2.0, 0.5)), ((2.0, 0.5), (0.0, 0.5)))
        )
        assert np.array_equal(v_down, v_up)
        assert np.array_equal(e_down, e_up)
        assert np.max(e_down) <= 1e-9


# ---------------------------------------------------------------------------
# the linear split of the one unit column on boxes
# ---------------------------------------------------------------------------


def _trig_shift(terms):
    """l_k(p) = sum of a sin(2 pi f p_j + c) over (j, a, f, c), each j > k."""
    return lambda p: sum(a * np.sin(2 * np.pi * f * p[:, j] + c) for j, a, f, c in terms)


@st.composite
def _linear_cases(draw):
    """(box measure, phase with a linear part, frequencies)."""
    small = st.floats(-1.0, 1.0)
    affine = draw(st.booleans())
    d = draw(st.integers(1, 3) if affine else st.integers(2, 3))
    corner = draw(st.lists(st.floats(-1.5, 2.5), min_size=2 * d, max_size=2 * d))
    lo, hi = np.minimum(corner[:d], corner[d:]), np.maximum(corner[:d], corner[d:])
    assume(np.all(hi > lo))
    mu = es.LebesgueBox(lo, hi)
    if affine:
        out = draw(st.integers(1, 3))
        M = draw(st.lists(st.floats(-2.0, 2.0), min_size=out * d, max_size=out * d))
        b = draw(st.lists(st.floats(-3.0, 3.0), min_size=out, max_size=out))
        phi = es.Affine(np.reshape(M, (out, d)), b)
    else:
        out = d
        shifts = []
        for k in range(d - 1):
            terms = [
                (j, draw(small), draw(st.integers(0, 2)), draw(st.floats(0.0, 6.3)))
                for j in range(k + 1, d)
            ]
            shifts.append(_trig_shift(terms))
        phi = es.Unipotent(shifts, d)
    m = draw(st.integers(17, 24))
    lam = draw(st.lists(st.floats(-3.0, 3.0), min_size=m * out, max_size=m * out))
    return mu, phi, np.reshape(lam, (m, out))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_linear_cases())
def test_linear_split_matches_the_full_rule(case):
    mu, phi, lam = case
    quad = es.gauss(24)
    split, split_err = _split_moments(mu, phi, phi.linear_part(), lam, quad, 1)
    full, full_err = _tensor_gauss(mu, None, phi, lam, quad, [(None, None)], 1)
    assert np.all(np.abs(split - full) <= split_err + full_err + 1e-12)
    # the guard accepts it, and every row takes the split
    vals, errs = exp_moments(mu, phi, lam, quad)
    assert np.array_equal(vals, split) and np.array_equal(errs, split_err)


@st.composite
def _thread_cases(draw, shape, kind, unit):
    """(measure, phase, frequencies, weights) for tensor-gauss: the `shape`
    (an interval, a 2-d box or a disc), the `kind` of phase (the
    identity, an affine map or a trig shear), 17-24 frequencies, and with
    `unit` the one unit column (the linear split on a box, guarded by the
    full rule), else a complex weight beside a boxed one (unboxed on a disc)."""
    small = st.floats(-1.0, 1.0)
    disc, d = shape == "disc", 1 if shape == "interval" else 2
    if disc:
        center = draw(st.lists(small, min_size=2, max_size=2))
        mu = es.LebesgueDisc(center, draw(st.floats(0.25, 1.5)))
    else:
        corner = draw(st.lists(st.floats(-1.5, 2.5), min_size=2 * d, max_size=2 * d))
        lo, hi = np.minimum(corner[:d], corner[d:]), np.maximum(corner[:d], corner[d:])
        assume(np.all(hi - lo > 0.05))
        mu = es.LebesgueBox(lo, hi)
    if kind == "identity":
        phi = es.Identity(d)
    elif kind == "affine":
        M = draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d))
        phi = es.Affine(np.reshape(M, (d, d)), draw(st.lists(small, min_size=d, max_size=d)))
    else:
        terms = [(1, draw(small), draw(st.integers(0, 2)), draw(st.floats(0.0, 6.3)))]
        phi = es.Unipotent([_trig_shift(terms)], 2)
    m = draw(st.integers(17, 24))
    lam = draw(st.lists(st.floats(-3.0, 3.0), min_size=m * d, max_size=m * d))
    a = draw(small)
    weights = [(lambda x: np.exp(1j * a * x[:, 0]) * (1 + x[:, -1] ** 2), None)]
    if not disc:
        weights.append((lambda x: x[:, 0] - 0.5, (lo - 1.0, (lo + hi) / 2)))
    return mu, phi, np.reshape(lam, (m, d)), [None] if unit else weights


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "weighted"])
@pytest.mark.parametrize(
    "shape, kind",
    [
        (shape, kind)
        for shape in ("interval", "box", "disc")
        for kind in ("identity", "affine", "shear")
        if (shape, kind) != ("interval", "shear")  # a shear needs two coordinates
    ],
)
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_tensor_gauss_is_thread_deterministic(shape, kind, unit, data):
    # the same bytes on 1 and 3 workers: the split and its guard's full rule
    # on the pool, complex and boxed weights, and a disc's four cells
    mu, phi, lam, weights = data.draw(_thread_cases(shape, kind, unit))
    (v1, e1), (v3, e3) = (
        exp_moments(mu, phi, lam, es.gauss(16), weights, threads=t) for t in (1, 3)
    )
    assert np.array_equal(v3, v1) and np.array_equal(e3, e1)


def test_linear_split_on_a_subnormal_width_box():
    # the box [0, 2.2e-309] x [0, 1] makes the round-off bound's 1 / w
    # overflow; the bound must stay finite and the split match the rule
    mu, phi = es.LebesgueBox([0.0, 0.0], [2.22507386e-309, 1.0]), es.Affine(np.eye(2))
    lam = np.array([[0.0, 0.0], [1.0, -2.0], [2.5, 0.5]])
    split, split_err = _split_moments(mu, phi, phi.linear_part(), lam, es.gauss(24), 1)
    full, full_err = _tensor_gauss(mu, None, phi, lam, es.gauss(24), [(None, None)], 1)
    assert np.all(np.isfinite(split_err))
    assert np.all(np.abs(split - full) <= split_err + full_err + 1e-12)


@pytest.mark.parametrize(
    "weights",
    [[(None, _half([0.25, 0.0], [0.75, 1.0]))], [None, (lambda x: x[:, 0], None)]],
    ids=["boxed-unit", "unit-beside-weighted"],
)
def test_only_the_one_unit_column_takes_the_split(weights):
    # any other weight list runs the full rule, bit for bit
    mu = es.LebesgueBox([0.0, 0.0], [1.0, 1.0])
    phi = es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2)
    lam = es.integer_lattice(2, 2).points  # 25 frequencies
    vals, errs = exp_moments(mu, phi, lam, es.gauss(32), weights=weights)
    full_weights = [(None, None) if w is None else w for w in weights]
    full, full_err = _tensor_gauss(mu, None, phi, lam, es.gauss(32), full_weights, 1)
    assert np.array_equal(vals, full) and np.array_equal(errs, full_err)


class _FalselyLinear(es.PhaseMap):
    """x -> x^2, claiming to be affine in x."""

    in_dim = out_dim = 1

    def _eval(self, pts):
        return pts**2

    def jacobian_batch(self, pts):
        return 2 * pts[:, :, None]

    def linear_part(self):
        return (0,), np.eye(1)


def test_guard_refuses_a_false_linear_part():
    lam = np.arange(-16.0, 17.0)[:, None]
    phi, quad = _FalselyLinear(), es.gauss(32)
    split, _ = _split_moments(UNIT, phi, phi.linear_part(), lam, quad, 1)
    full, full_err = _tensor_gauss(UNIT, None, phi, lam, quad, [(None, None)], 1)
    assert np.max(np.abs(split - full)) > 0.1  # the claim is false
    vals, errs = exp_moments(UNIT, phi, lam, quad)
    assert np.array_equal(vals, full) and np.array_equal(errs, full_err)


def _spy_rows(monkeypatch, name):
    """(mu, frequency rows) of each call to the engine's rule `name`, called
    as name(mu, psi, phi, lam, ...), in order."""
    calls = []
    honest = getattr(_oscillatory, name)

    def spy(mu, psi, phi, lam, *rest):
        calls.append((mu, lam.copy()))
        return honest(mu, psi, phi, lam, *rest)

    monkeypatch.setattr(_oscillatory, name, spy)
    return calls


@pytest.mark.parametrize(
    "mu, phi",
    [
        (UNIT, es.Identity(1)),
        (
            es.LebesgueBox([0.0, 0.0], [1.0, 1.0]),
            es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2),
        ),
    ],
    ids=["identity", "shear"],
)
def test_sixteen_frequencies_take_the_linear_split(monkeypatch, mu, phi):
    # a call of at most 16 frequencies is guarded as any other: the full rule
    # over mu runs every row once, and the split answers
    lam = np.random.default_rng(5).uniform(-9.0, 9.0, (16, mu.dim))
    split, split_errs = _split_moments(mu, phi, phi.linear_part(), lam, es.gauss(32), 1)
    full, _ = _tensor_gauss(mu, None, phi, lam, es.gauss(32), [(None, None)], 1)
    assert not np.array_equal(split, full)  # the two rules are told apart
    calls = _spy_rows(monkeypatch, "_tensor_gauss")
    vals, errs = exp_moments(mu, phi, lam, es.gauss(32))
    assert np.array_equal(vals, split) and np.array_equal(errs, split_errs)
    rows = [rows for rule_mu, rows in calls if rule_mu is mu]  # not the split's sub-box
    assert len(rows) == 1 and np.array_equal(rows[0], lam)


def test_linear_split_is_closed_form_on_affine_boxes(monkeypatch):
    # no coordinate remains, so every value is the box transform times
    # e^{2 pi i lambda . b}, and the only rules built are the guard rows'
    seen = _record_rule_edges(monkeypatch)
    mu = es.LebesgueBox([0.0, -0.5], [1.0, 1.5])
    phi = es.Affine([[1.0, 2.0], [0.0, 1.0]], [0.25, -1.0])
    lam = es.integer_lattice(2, 3).points  # 49 frequencies
    vals, errs = exp_moments(mu, phi, lam, es.gauss(32))
    exact = _box_ft(mu, lam @ phi.M) * np.exp(2j * np.pi * (lam @ phi.b))
    assert_allclose(vals[:, 0], exact, rtol=0, atol=1e-14)
    assert np.all(errs < 1e-13)  # the stated round-off term only
    built = list(seen)
    seen.clear()
    _tensor_gauss(mu, None, phi, lam[_guard_rows(lam)], es.gauss(32), [(None, None)], 1)
    assert built == seen


# ---------------------------------------------------------------------------
# the digit transfer inside the digit rule on digit systems
# ---------------------------------------------------------------------------


def _smooth_weight(kind, a, b):
    """One of five smooth weights on the line, scaled by a and b."""
    return {
        "poly": lambda x: a * x[:, 0] ** 3 - b * x[:, 0] + 0.5,
        "sextic": lambda x: a * (x[:, 0] - 1) ** 6 + b * x[:, 0] ** 2,
        "cos": lambda x: np.cos(2 * np.pi * a * x[:, 0] + b),
        "exp": lambda x: np.exp(a * x[:, 0]) * (1j * b + 1),
        "rational": lambda x: 1 / (2 + b + a * np.sin(x[:, 0])),
    }[kind]


@st.composite
def _digit_systems(draw):
    """(SelfSimilar measure, phase making it a digit system, support box in
    gaps between its cylinders, digit depth): 2-4 digits of unequal weights,
    one of them possibly zero, r and q in 2..5."""
    kind = draw(st.sampled_from(["identity", "affine", "digit-map"]))
    r = draw(st.integers(2, 5))
    k = draw(st.integers(2, min(4, r) if kind == "digit-map" else 4))
    top = r - 1 if kind == "digit-map" else 6
    offsets = draw(st.lists(st.integers(0, top), min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k, unique=True))
    if draw(st.booleans()) and k > 2:
        raw[draw(st.integers(0, k - 1))] = 0.0
    p = np.array(raw) / sum(raw)
    mu = es.SelfSimilar(r, tuple(zip(map(float, offsets), p)))
    if kind == "identity":
        phi = es.Identity(1)
    elif kind == "affine":
        a = draw(st.sampled_from([-1.5, -0.5, 0.75, 2.0]))
        phi = es.Affine([[a]], [draw(st.floats(-1.0, 1.0))])
    else:
        q = draw(st.integers(2, 5))
        sigma = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k, unique=True))
        phi = es.DigitMap(r, offsets, q, dict(zip(offsets, map(float, sigma))))
    # a box from below the support to the middle of a gap between two
    # top-level pieces, or around everything where the pieces leave no gap
    support = sorted(d for d, w in zip(offsets, p) if w > 0)
    lo, hi = support[0] / (r - 1), support[-1] / (r - 1)
    gaps = [
        ((a + hi) / r + (b + lo) / r) / 2
        for a, b in zip(support, support[1:]) if (b + lo) / r > (a + hi) / r
    ]
    end = draw(st.sampled_from(gaps)) if gaps else hi + 1.0
    box = (np.array([lo - 1.0]), np.array([end]))
    depth = int(math.log(8192) / math.log(k))  # at most 8192 digit nodes
    return mu, phi, box, depth


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    case=_digit_systems(),
    kinds=st.lists(st.sampled_from(["poly", "cos", "exp", "rational"]), min_size=1, max_size=3),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    lam=st.lists(st.floats(-6.0, 6.0), min_size=17, max_size=24),
    whole=st.booleans(),
)
def test_digit_transfer_matches_the_digit_rule(case, kinds, a, b, lam, whole):
    # `whole` fits polynomials on one cylinder, the whole measure, so that
    # every Chebyshev moment of the recursion carries weight; the top 4096
    # cylinders leave the higher ones little
    mu, phi, box, depth = case
    lam = np.asarray(lam)[:, None]
    if whole:
        kinds, box = ["poly", "sextic"], (box[0], np.array([np.inf]))
    weights = [(_smooth_weight(kind, a, b), None) for kind in kinds] + [(None, box)]
    how = plan(mu, phi, es.digit(depth), "weights")
    with pytest.MonkeyPatch.context() as patch:
        if whole:
            patch.setattr(_oscillatory, "_TRANSFER_CELLS", 1)
        found = _digit_transfer(mu, phi, lam, depth, weights)
        assert found is not None
        vals, errs = found
        digit_vals, digit_errs = _digit_moments(mu, None, phi, lam, es.digit(depth), weights)
        assert np.all(np.abs(vals - digit_vals) <= errs + digit_errs + 1e-12)
        # the guard accepts it, and every row takes the transfer
        got, got_errs = how.moments(lam, weights)
    assert np.array_equal(got, vals) and np.array_equal(got_errs, errs)


CANTOR3_LAM = -es.lambda4(6).points  # 64 frequencies, as cantor3's battery asks


def test_digit_transfer_takes_cantor3_battery_within_the_leaf_check():
    # the transfer's own error is far below the digit rule's at depth 20
    battery = es.default_test_battery(es.middle_third_cantor())
    weights = [(tf.fn, tf.support_box) for tf in battery]
    vals, errs = _digit_transfer(es.middle_third_cantor(), T2Q, CANTOR3_LAM, 40, weights)
    digit_vals, digit_errs = _digit_moments(
        es.middle_third_cantor(), None, T2Q, CANTOR3_LAM[::8], es.digit(40), weights
    )
    assert np.all(np.abs(vals[::8] - digit_vals) <= errs[::8] + digit_errs + 1e-12)
    assert np.max(errs) < 1e-9 < np.max(digit_errs)


def test_sixteen_frequencies_take_the_digit_transfer(monkeypatch):
    # cantor3's pair, battery and depth: the transfer answers 16 rows as it
    # does 64, and its guard runs every one of them on 2^16 nodes
    mu, lam, quad = es.middle_third_cantor(), CANTOR3_LAM[:16], es.digit(40)
    weights = [(tf.fn, tf.support_box) for tf in es.default_test_battery(mu)]
    transfer, transfer_errs = _digit_transfer(mu, T2Q, lam, quad.depth, weights)
    enum, _ = _digit_moments(mu, None, T2Q, lam, quad, weights)
    assert not np.array_equal(enum, transfer)  # the two rules are told apart
    counts = _spy_digit_nodes(monkeypatch)
    calls = _spy_rows(monkeypatch, "_digit_moments")
    vals, errs = exp_moments(mu, T2Q, lam, quad, weights)
    assert np.array_equal(vals, transfer) and np.array_equal(errs, transfer_errs)
    assert counts == [1 << 16] and len(calls) == 1 and np.array_equal(calls[0][1], lam)


def test_one_frequency_refused_transfer_runs_the_enumeration_at_the_callers_depth(monkeypatch):
    # cantor3's one-frequency norm call: a transfer 1e-6 off is refused by
    # its guard, so a small call's guard is no tautology
    mu, lam, quad = es.middle_third_cantor(), np.zeros((1, 1)), es.digit(30)
    weights = [(tf.fn, tf.support_box) for tf in es.default_test_battery(mu)]
    honest = _oscillatory._digit_transfer

    def off(*args):
        vals, errs = honest(*args)
        return vals + 1e-6, errs

    monkeypatch.setattr(_oscillatory, "_digit_transfer", off)
    counts = _spy_digit_nodes(monkeypatch)
    vals, errs = exp_moments(mu, es.Identity(1), lam, quad, weights)
    assert counts == [1 << 16, 1 << 20]  # the guard refuses; the caller's rule runs
    ref, ref_errs = _digit_moments(mu, None, es.Identity(1), lam, quad, weights)
    assert np.array_equal(vals, ref) and np.array_equal(errs, ref_errs)


@pytest.mark.parametrize(
    "mu, weights",
    [
        # 2 x on the middle-fourth Cantor measure: boxes in image coordinates
        (
            es.pushforward(es.middle_fourth_cantor(), es.Affine([[2.0]])),
            [(lambda y: y[:, 0] ** 2, None), (None, _half([0.0], [1.0]))],
        ),
        # a digit-map pushforward: the unit weight, boxed in image coordinates
        (
            es.pushforward(es.middle_third_cantor(), T2Q),
            [(None, None), (None, _half([0.0], [0.5]))],
        ),
    ],
    ids=["affine", "digit-map"],
)
def test_digit_transfer_on_pushforwards(mu, weights):
    lam = np.arange(-10.0, 10.0)[:, None]
    found = _digit_transfer(mu, es.Identity(1), lam, 30, weights)
    assert found is not None
    vals, errs = found
    digit_vals, digit_errs = _digit_moments(
        mu.base, mu.map, es.Identity(1), lam, es.digit(12), weights
    )
    assert np.all(np.abs(vals - digit_vals) <= errs + digit_errs + 1e-12)


def _digit_rule_runs(mu, phi, lam, weights, strict=True):
    """Plan.moments of a "weights" call that must run the digit enumeration:
    the plan returns `_digit_moments`' values bit for bit."""
    quad = es.digit(12)
    vals, errs = plan(mu, phi, quad, "weights").moments(lam, weights, strict=strict)
    stack = [w or (None, None) for w in weights]  # None is the unit weight
    ref, ref_errs = _digit_moments(mu, None, phi, lam, quad, stack)
    assert np.array_equal(vals, ref, equal_nan=True)
    assert np.array_equal(errs, ref_errs, equal_nan=True)
    return vals


def _flipped_sigma(monkeypatch):
    # the phase's digit system only: the support boxes' image system stays
    # honest, so the transfer still answers and only the guard can refuse it
    honest = _oscillatory.phases.as_digit_system

    def flipped(mu, phi):
        system = honest(mu, phi)
        if system is None or isinstance(phi, es.Identity):
            return system
        return system[0], system[1], tuple((d, -s, p) for d, s, p in system[2])

    monkeypatch.setattr(_oscillatory.phases, "as_digit_system", flipped)


def test_guard_refuses_a_corrupted_transfer(monkeypatch):
    # the digit system with sigma's sign flipped is a different phase
    mu, lam = es.middle_third_cantor(), CANTOR3_LAM
    weights = [(lambda x: x[:, 0], None)]
    _flipped_sigma(monkeypatch)
    wrong, _ = _digit_transfer(mu, T2Q, lam, 12, weights)
    ref, _ = _digit_moments(mu, None, T2Q, lam, es.digit(12), weights)
    assert np.max(np.abs(wrong - ref)) > 0.1
    _digit_rule_runs(mu, T2Q, lam, weights)


def _spy_digit_nodes(monkeypatch):
    """The node count of each `digit_nodes` call the engine makes, in order."""
    counts = []
    honest = _oscillatory.digit_nodes

    def spy(mu, depth):
        nodes = honest(mu, depth)
        counts.append(nodes[0])  # (count, blocks, tail width)
        return nodes

    monkeypatch.setattr(_oscillatory, "digit_nodes", spy)
    return counts


def _whole_enumeration(mu, phi, lam, depth, weights):
    """(values, errors, (pts, masses)) of the digit enumeration over all its
    nodes at once: one `_cylinders` call, its error model over every
    adjacent pair and one `_contract` (sorted, positive-weight digits)."""
    d, p = mu._offsets, mu._weights
    levels = min(depth, measures._levels_within(d.size, measures._MAX_DIGIT_NODES))
    x, w, scale = measures._cylinders(d, p, mu.ratio, levels)
    geo = scale / (mu.ratio - 1)
    pts, tail = (x + float(d @ p) * geo)[:, None], float(d.max() - d.min()) * geo
    W = _oscillatory._weight_matrix(weights, pts)
    img = phi(pts)
    dx = np.diff(pts[:, 0])
    slopes = np.max(np.abs(np.diff(W, axis=0)) / np.maximum(dx, tail)[:, None], axis=0)
    fine = dx <= 2 * tail * (mu.ratio - 1) + 1e-300
    span = np.max(np.abs(np.diff(img[:, 0]))[fine])
    phase = 2 * np.pi * np.linalg.norm(lam, axis=1) * span
    errs = slopes * tail + np.max(np.abs(W), axis=0) * phase[:, None]
    return _oscillatory._contract(img, lam, W * w[:, None]), errs, (pts, w)


ENUMERATION_WEIGHTS = [
    (None, None),
    (lambda x: np.sin(7 * x[:, 0]) + 1j * x[:, 0] ** 2, None),
    (lambda x: np.cos(3 * x[:, 0]), _half([0.1], [0.5])),
]


@pytest.mark.parametrize(
    "mu, phi, depth",
    [
        (es.middle_third_cantor(), T2Q, 16),  # 2^16 nodes
        (es.SelfSimilar(4, ((0.0, 1 / 3), (1.0, 1 / 3), (3.0, 1 / 3))), es.Identity(1), 10),
        (es.middle_fourth_cantor(), es.Identity(1), 9),
    ],
    ids=["cantor3-16", "three-digits-10", "cantor4-9"],
)
def test_enumeration_of_at_most_2_16_nodes_is_one_block(mu, phi, depth):
    # every guard's enumeration and all of cantor3's: one block, whose values
    # and errors are those of one pass over the whole node set, bit for bit
    lam = np.array([[0.0], [0.37], [-2.5], [11.0]])
    count, blocks, _ = digit_nodes(mu, depth)
    assert count <= measures._NODE_BLOCK and len(list(blocks)) == 1
    vals, errs = _digit_moments(mu, None, phi, lam, es.digit(depth), ENUMERATION_WEIGHTS)
    ref_vals, ref_errs, _ = _whole_enumeration(mu, phi, lam, depth, ENUMERATION_WEIGHTS)
    assert np.array_equal(vals, ref_vals) and np.array_equal(errs, ref_errs)


def test_enumeration_streams_its_2_20_nodes_in_blocks():
    # the gate's depth-30 enumeration: 16 blocks of 2^16 nodes whose floats
    # are one enumeration's; the error model's differences cross each block
    # edge, so the errors are bit-identical, and only the values' summation
    # order moves.  One pass over all nodes holds a 48 MiB exp chunk
    import tracemalloc

    mu, lam = es.middle_fourth_cantor(), np.array(measures._GATE_XI)[:, None]
    ref_vals, ref_errs, (ref_pts, ref_w) = _whole_enumeration(
        mu, es.Identity(1), lam, 30, ENUMERATION_WEIGHTS
    )
    count, blocks, _ = digit_nodes(mu, 30)
    pts, w = (np.concatenate(parts) for parts in zip(*blocks))
    assert count == pts.shape[0] == 2**20
    assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)
    del pts, w, ref_pts, ref_w
    tracemalloc.start()
    try:
        vals, errs = _digit_moments(
            mu, None, es.Identity(1), lam, es.digit(30), ENUMERATION_WEIGHTS
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(errs, ref_errs)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-13
    assert peak <= 16 * 2**20


@pytest.mark.parametrize(
    "mu, phi, lam, quad",
    [
        # cantor3's pair, battery and depth: 16 levels of 2 digits
        (es.middle_third_cantor(), T2Q, CANTOR3_LAM, es.digit(40)),
        # 8 levels of 4 digits; 16 levels would enumerate 2^20 nodes
        (
            es.SelfSimilar(5, ((0.0, 0.1), (1.0, 0.2), (3.0, 0.3), (4.0, 0.4))),
            es.Identity(1),
            np.arange(-12.0, 12.0)[:, None],
            es.digit(30),
        ),
    ],
    ids=["cantor3", "four-digits"],
)
def test_transfer_guard_enumerates_at_most_2_16_nodes(monkeypatch, mu, phi, lam, quad):
    weights = [(tf.fn, tf.support_box) for tf in es.default_test_battery(mu)]
    counts = _spy_digit_nodes(monkeypatch)
    vals, errs = exp_moments(mu, phi, lam, quad, weights)
    assert len(counts) == 1 and counts[0] <= 1 << 16  # the guard's one enumeration
    transfer, transfer_errs = _digit_transfer(mu, phi, lam, quad.depth, weights)
    assert np.array_equal(vals, transfer) and np.array_equal(errs, transfer_errs)


def _scaled_chebyshev(monkeypatch):
    honest = _oscillatory._chebyshev_moments

    def scaled(*args):
        cheb, growth = honest(*args)
        return 1.001 * cheb, growth

    monkeypatch.setattr(_oscillatory, "_chebyshev_moments", scaled)


@pytest.mark.parametrize(
    "fault", [_scaled_chebyshev, _flipped_sigma], ids=["chebyshev-x1.001", "sigma-sign"]
)
def test_refused_transfer_runs_the_enumeration_at_the_callers_depth(monkeypatch, fault):
    # cantor3's pair and battery; depth 18 keeps the fallback at 2^18 nodes,
    # above the guard's 2^16, as the preset's depth 40 is (at 2^20)
    mu, lam, quad = es.middle_third_cantor(), CANTOR3_LAM, es.digit(18)
    weights = [(tf.fn, tf.support_box) for tf in es.default_test_battery(mu)]
    clean, clean_errs = _digit_transfer(mu, T2Q, lam, quad.depth, weights)
    fault(monkeypatch)
    wrong, _ = _digit_transfer(mu, T2Q, lam, quad.depth, weights)
    assert np.max(np.abs(wrong - clean) - clean_errs) > 1e-6
    counts = _spy_digit_nodes(monkeypatch)
    vals, errs = exp_moments(mu, T2Q, lam, quad, weights)
    assert counts == [1 << 16, 1 << 18]  # the guard refuses; the caller's rule runs
    ref, ref_errs = _digit_moments(mu, None, T2Q, lam, quad, weights)
    assert np.array_equal(vals, ref) and np.array_equal(errs, ref_errs)


@pytest.mark.parametrize(
    "weights",
    [
        # 0.1 = 0.0022..._3 lies in the Cantor set, so its cylinder is cut
        [(None, _half([0.0], [0.1]))],
        [(lambda x: (x[:, 0] >= 0.1).astype(float), None)],
    ],
    ids=["box-cuts-a-cylinder", "jump-inside-a-cylinder"],
)
def test_digit_rule_runs_where_the_transfer_cannot(weights):
    mu = es.middle_third_cantor()
    assert _digit_transfer(mu, T2Q, CANTOR3_LAM, 12, weights) is None
    _digit_rule_runs(mu, T2Q, CANTOR3_LAM, weights)


@pytest.mark.parametrize(
    "weight", [lambda x: np.where(x[:, 0] > 0.5, np.nan, 1.0)], ids=["nan-weight"]
)
def test_non_finite_values_run_the_digit_rule(weight):
    # the transfer refuses them; the digit rule raises under strict
    mu, lam, weights = es.middle_third_cantor(), CANTOR3_LAM, [(weight, None)]
    assert _digit_transfer(mu, T2Q, lam, 12, weights) is None
    with pytest.raises(QuadratureError, match="non-finite value"):
        plan(mu, T2Q, es.digit(12), "weights").moments(lam, weights)
    vals = _digit_rule_runs(mu, T2Q, lam, weights, strict=False)
    assert np.any(np.isnan(vals))


# ---------------------------------------------------------------------------
# the blocked Monte-Carlo sum
# ---------------------------------------------------------------------------


def _one_shot_mc_moments(mu, psi, phi, lam, quad, weights):
    """The Monte-Carlo rule as one contraction over every sample."""
    rng = spawn_rng(quad.seed, "mc-moments", mu.kind)
    pts = mu._sample(quad.n_samples, rng)
    y = pts if psi is None else psi(pts)
    W = _oscillatory._weight_matrix(weights, y)
    n = pts.shape[0]
    mean = _oscillatory._contract(phi(y), lam, W) / n
    sq = np.sum(np.abs(W) ** 2, axis=0)
    var = np.maximum(sq[None, :] - n * np.abs(mean) ** 2, 0.0) / (n - 1)
    return mu.total_mass * mean, mu.total_mass * np.sqrt(var / n)


MC_BOX = es.LebesgueBox([0.0, -1.0], [1.0, 2.0])
MC_SHEAR = es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2)
# a unit, a boxed and a complex weight, |w| <= 2 on the box and its image
MC_WEIGHTS = [
    (None, None),
    (None, _half([0.2, 0.0], [0.7, 1.5])),
    (lambda y: np.exp(1j * y[:, 0]) * y[:, 1], None),
]
MC_LAM = np.array([[0.0, 0.0], [1.0, -2.0], [3.5, 0.25], [-7.0, 4.0]])


@pytest.mark.parametrize(
    "n, pushed",
    [(1, False), (2**18 - 1, False), (2**18 + 3, False), (3 * 2**18 + 5, False), (2**18 + 3, True)],
)
def test_blocked_mc_moments_match_one_contraction(n, pushed):
    psi = es.Affine([[1.0, 0.5], [0.0, 1.0]], [0.1, 0.0]) if pushed else None
    pts = MC_BOX._sample(n, np.random.default_rng(n))
    sums, sq = _oscillatory._mc_sums(pts, psi, MC_SHEAR, MC_LAM, MC_WEIGHTS)
    y = pts if psi is None else psi(pts)
    W = _oscillatory._weight_matrix(MC_WEIGHTS, y)
    one_shot = _oscillatory._contract(MC_SHEAR(y), MC_LAM, W)
    assert_allclose(sums, one_shot, rtol=0, atol=1e-15 * 2 * n)
    assert_allclose(sq, np.sum(np.abs(W) ** 2, axis=0), rtol=1e-12, atol=0)
    if n > 1:  # a sample variance needs two samples
        quad = es.monte_carlo(n, seed=3)
        vals, errs = _oscillatory._mc_moments(MC_BOX, psi, MC_SHEAR, MC_LAM, quad, MC_WEIGHTS)
        ref, ref_errs = _one_shot_mc_moments(MC_BOX, psi, MC_SHEAR, MC_LAM, quad, MC_WEIGHTS)
        assert_allclose(vals, ref, rtol=0, atol=1e-15 * 2 * MC_BOX.total_mass)
        assert_allclose(errs, ref_errs, rtol=1e-12, atol=0)


def test_complex_weights_contract_as_two_real_matmuls():
    # W = A + iB contracts as A Z + i B Z over the real view of Z: three
    # exp chunks of 32, 32 and 6 frequencies, against the complex product
    rng = np.random.default_rng(7)
    img = rng.random((5000, 2))
    lam = rng.normal(0.0, 50.0, (70, 2))
    W = rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
    got = _oscillatory._contract(img, lam, W)
    ref = (W.T @ np.exp(2j * np.pi * (img @ lam.T))).T
    assert got.shape == (70, 3)
    assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(W).sum())
    parts = _oscillatory._contract(img, lam, W.real.copy()) + 1j * _oscillatory._contract(
        img, lam, W.imag.copy()
    )
    assert_allclose(got, parts, rtol=0, atol=1e-12 * np.abs(W).sum())


def _two_matmul_contract(img, lam, W):
    """`_contract` of a complex W = A + iB as two real matmuls A Z and B Z over
    the interleaved (re, im) columns of Z, joined as A Z + i B Z."""
    out = np.empty((lam.shape[0], W.shape[1]), dtype=complex)
    real, imag = np.ascontiguousarray(W.real.T), np.ascontiguousarray(W.imag.T)
    for freqs in _oscillatory._chunks(img.shape[0], lam.shape[0]):
        Z = np.zeros((img.shape[0], lam[freqs].shape[0]), dtype=complex)
        np.matmul(img, lam[freqs].T, out=Z.imag)
        Z.imag *= 2 * np.pi
        np.exp(Z, out=Z)
        AZ = (real @ Z.view(float)).view(complex).T
        BZ = (imag @ Z.view(float)).view(complex).T
        block = out[freqs]
        np.subtract(AZ.real, BZ.imag, out=block.real)
        np.add(AZ.imag, BZ.real, out=block.imag)
    return out


@pytest.mark.parametrize("n_freqs", [20, 70])  # one exp chunk, and 32 + 32 + 6
def test_complex_weights_contract_as_the_two_matmul_split(n_freqs):
    # the real stack [A, B] sums the same products as A Z and B Z; BLAS picks
    # its kernel by shape, so the sums may differ in order, never by more
    # than a few eps of each column's summed |w| (a swapped or misplaced
    # part would be off by the moment itself)
    rng = np.random.default_rng(11)
    img = rng.random((5000, 2))
    lam = rng.normal(0.0, 50.0, (n_freqs, 2))
    W = rng.normal(size=(5000, 3)) + 1j * rng.normal(size=(5000, 3))
    got = _oscillatory._contract(img, lam, W)
    ref = _two_matmul_contract(img, lam, W)
    assert got.shape == ref.shape == (n_freqs, 3)
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(W).sum(axis=0))


@pytest.mark.parametrize("rows", [1, 5000, 2**14, 2**16, 2**20])
@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 65, 70])
def test_exp_chunks_fit_the_work_limit_with_no_one_wide_chunk(rows, m):
    # a one-wide chunk runs its GEMM as a GEMV, whose sums round differently:
    # only m = 1 has one.  The chunks tile the m frequencies in one width,
    # the largest power of two up to 32 whose (rows, width) complex block
    # fits in 4 MiB (2 at least), and a last chunk of one frequency joins
    # the one before
    chunks = _oscillatory._chunks(rows, m)
    assert [c.start for c in chunks] == [0] + [c.stop for c in chunks[:-1]]
    assert chunks[-1].stop == m
    fits = [w for w in (32, 16, 8, 4) if rows * w * 16 <= _oscillatory._WORK_BYTES]
    width = fits[0] if fits else 2
    *full, last = [c.stop - c.start for c in chunks]
    assert full == [width] * len(full)
    assert (last == 1) if m == 1 else (2 <= last <= width + 1)


@pytest.mark.parametrize("weighted", [True, False], ids=["weights", "unit"])
@pytest.mark.parametrize("m", [1, 2, 9, 17, 64])
def test_grouped_code_sums_match_one_group(monkeypatch, m, weighted):
    # the products are formed one frequency group at a time; BLAS picks its
    # kernel by shape, so a group's sums may differ from one group's in
    # order, never by more than a few eps of each column's summed |w|
    rng = np.random.default_rng(m)
    n, blocks, codes_per_block = 2 * 2**14 + 5, 3, 64
    codes = rng.integers(0, codes_per_block, (n, blocks))
    offsets = rng.random((blocks, codes_per_block)) * 4.0 ** -np.arange(blocks)[:, None]
    tables = _oscillatory._phase_tables(offsets, rng.normal(0.0, 30.0, m))
    W = rng.normal(size=(n, 3)) if weighted else None
    got = _oscillatory._code_sums(codes, W, tables)
    assert len(_oscillatory._chunks(2**14, m)) == max(1, m // 16)
    monkeypatch.setattr(_oscillatory, "_chunks", lambda rows, m: [slice(0, m)])
    ref = _oscillatory._code_sums(codes, W, tables)
    summed = np.abs(W).sum(axis=0) if weighted else np.array([n])
    assert got.shape == ref.shape == (m, summed.size)
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * summed)


# ---------------------------------------------------------------------------
# Monte-Carlo sums of a digit phase from its level tables
# ---------------------------------------------------------------------------

# a unit, a boxed and a complex weight on [0, 1], as MC_WEIGHTS on its box
DIGIT_WEIGHTS = [
    (None, None),
    (None, _half([0.2], [0.7])),
    (lambda x: np.exp(1j * x[:, 0]) * (1 + x[:, 0]), None),
]


def _point_path_sums(pts, phi, lam, weights):
    """`_mc_sums` with phi run at every sample, one _MC_ROWS block at a time."""
    sums = np.zeros((lam.shape[0], len(weights)), dtype=complex)
    sq = np.zeros(len(weights))
    for lo in range(0, pts.shape[0], _oscillatory._MC_ROWS):
        x = pts[lo:lo + _oscillatory._MC_ROWS]
        W = _oscillatory._weight_matrix(weights, x)
        sums += _oscillatory._contract(phi(x), lam, W)
        sq += np.sum(np.abs(W) ** 2, axis=0)
    return sums, sq


def _spy_contract(monkeypatch):
    """(the unpatched _contract, the (rows, frequencies) of each later call)."""
    contract, calls = _oscillatory._contract, []

    def spy(img, lam, W):
        calls.append((img.shape[0], lam.shape[0]))
        return contract(img, lam, W)

    monkeypatch.setattr(_oscillatory, "_contract", spy)
    return contract, calls


def _shift_codes_one_level_block(monkeypatch):
    """Patch DigitMap._codes to offsets at out_base^(-L (b + 1)) instead of out_base^(-L b)."""
    codes = es.DigitMap._codes

    def shifted(self, pts, levels):
        found, offsets = codes(self, pts, levels)
        return found, offsets * float(self.out_base) ** -levels

    monkeypatch.setattr(es.DigitMap, "_codes", shifted)


@pytest.mark.parametrize(
    "phi, lam",
    [
        (B2Q, CANTOR3_LAM),  # 3 blocks of 10 binary levels
        (es.DigitMap(3, (0, 2), 4, {0: 0.0, 2: 2.0}), CANTOR3_LAM),  # 5 blocks of 6 levels
        (es.DigitMap(2, (-2, -1), 4, {-2: 3.0, -1: 1.0}, depth=7), CANTOR3_LAM),  # one code
        (B2Q, CANTOR3_LAM[:5]),  # every frequency is a guard row
    ],
    ids=["binary-digits", "snapped-ternary-digits", "one-snapped-digit", "five-frequencies"],
)
@pytest.mark.parametrize("n", [2, 2**14 - 1, 2**14 + 3, 3 * 2**14 + 5])
def test_digit_phase_mc_sums_from_level_tables_match_one_contraction(monkeypatch, phi, lam, n):
    # phi runs at no sample past the first block's guard rows
    contract, calls = _spy_contract(monkeypatch)
    pts = UNIT._sample(n, np.random.default_rng(n))
    sums, sq = _oscillatory._mc_sums(pts, None, phi, lam, DIGIT_WEIGHTS)
    assert calls == [(min(n, _oscillatory._MC_ROWS), min(len(lam), _oscillatory._GUARD_ROWS))]
    W = _oscillatory._weight_matrix(DIGIT_WEIGHTS, pts)
    img = phi(pts)
    one_shot = contract(img, lam, W)
    # 1e-13 a sample, plus the rounding of each term's phase in either sum, up
    # to eps 2 pi |lambda| max|phi|: samples that share a code share its table
    # entry's rounding, so it need not average out (|w| <= 2)
    reach = 2 * np.pi * np.finfo(float).eps * np.abs(lam[:, 0]) * np.max(np.abs(img))
    assert np.all(np.abs(sums - one_shot) <= (2 * n * (1e-13 + 2 * reach))[:, None])
    assert_allclose(sq, np.sum(np.abs(W) ** 2, axis=0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", ["one-level-block-off", "2000-snapped-digits"])
def test_digit_phase_mc_sums_refused_by_the_guard_run_phi_per_point(monkeypatch, case):
    if case == "one-level-block-off":
        phi = B2Q
        _shift_codes_one_level_block(monkeypatch)
    else:  # no level block of 2000 digit indices fits the table size
        phi = es.DigitMap(2000, (0, 1999), 4, {0: 0.0, 1999: 2.0})
    pts = UNIT._sample(3 * 2**14 + 5, np.random.default_rng(5))
    sums, sq = _oscillatory._mc_sums(pts, None, phi, CANTOR3_LAM, DIGIT_WEIGHTS)
    want, want_sq = _point_path_sums(pts, phi, CANTOR3_LAM, DIGIT_WEIGHTS)
    assert np.array_equal(sums, want) and np.array_equal(sq, want_sq)


def test_levels_within_one_digit_returns():
    # one digit has a single string at every depth
    assert _oscillatory._levels_within(1, _oscillatory._DIGIT_CODES) == math.inf
    assert _oscillatory._levels_within(2, _oscillatory._DIGIT_CODES) == 10
    assert _oscillatory._levels_within(3, 8) == 1


@pytest.mark.parametrize("level", [9, 11])
def test_digit_phase_level_tables_pass_the_guard_at_high_lambda4_levels(monkeypatch, level):
    # the guard's bound carries the rounding of either sum's phase, 4 eps
    # 2 pi |lambda| max|phi| a unit of |w|, which at these levels exceeds 1e-12:
    # the battery still takes the tables, and they match the point path within it
    lam = -es.lambda4(level).points
    battery = [(tf.fn, tf.support_box) for tf in es.default_test_battery(UNIT)]
    pts = UNIT._sample(2**14 + 3, np.random.default_rng(level))
    _, calls = _spy_contract(monkeypatch)
    sums, sq = _oscillatory._mc_sums(pts, None, B2Q, lam, battery)
    assert calls == [(2**14, 16)]
    want, want_sq = _point_path_sums(pts, B2Q, lam, battery)
    W = _oscillatory._weight_matrix(battery, pts)
    reach = 8 * np.pi * np.finfo(float).eps * np.abs(lam[:, 0]) * np.max(np.abs(B2Q(pts)))
    assert np.all(np.abs(sums - want) <= (1e-12 + reach)[:, None] * np.sum(np.abs(W), axis=0))
    assert np.array_equal(sq, want_sq)


def test_digit_phase_level_tables_one_level_block_off_refused_at_lambda4_level_11(monkeypatch):
    # the guard's rounding term, up to 5.2e-9 a unit of |w| here, still refuses it
    lam = -es.lambda4(11).points
    battery = [(tf.fn, tf.support_box) for tf in es.default_test_battery(UNIT)]
    _shift_codes_one_level_block(monkeypatch)
    pts = UNIT._sample(2**14 + 3, np.random.default_rng(11))
    sums, sq = _oscillatory._mc_sums(pts, None, B2Q, lam, battery)
    want, want_sq = _point_path_sums(pts, B2Q, lam, battery)
    assert np.array_equal(sums, want) and np.array_equal(sq, want_sq)


def test_cantor4_battery_exponentiates_only_its_guard_block(monkeypatch):
    # cantor4's battery draws its 400k samples and sums them from level tables:
    # _contract sees the first 2^14-row block at the 16 guard frequencies only
    cplan = plan(UNIT, B2Q, es.digit(40), "weights")
    assert cplan.rule == MC400K
    drawn = []
    sample = es.LebesgueBox._sample

    def spy_sample(self, n, rng):
        drawn.append(n)
        return sample(self, n, rng)

    monkeypatch.setattr(es.LebesgueBox, "_sample", spy_sample)
    _, calls = _spy_contract(monkeypatch)
    battery = [(tf.fn, tf.support_box) for tf in es.default_test_battery(UNIT)]
    vals, _ = cplan.moments(CANTOR3_LAM, battery)
    assert np.all(np.isfinite(vals))
    assert drawn == [400_000]
    assert calls == [(2**14, 16)]


def test_thread_count_refused_before_any_pool(monkeypatch):
    # every scheme and the product formula refuse the count where the call
    # enters: before the measure is unwrapped or the product formula summed
    product = plan(es.middle_fourth_cantor(), es.Identity(1), es.digit(40), "gram")
    assert product.path == "product-formula"

    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(_oscillatory, "ThreadPoolExecutor", never)
    monkeypatch.setattr(_oscillatory, "_unwrap", never)
    monkeypatch.setattr(es.measures, "selfsimilar_moments", never)
    box = es.LebesgueBox([0.0], [1.0])
    schemes = [
        (box, es.gauss(16)),
        (box, es.adaptive()),
        (es.middle_third_cantor(), es.digit(12)),
        (box, es.monte_carlo(1000, seed=1)),
    ]
    for threads in (0, _oscillatory.MAX_THREADS + 1, 10**6, 2.5, True, "2", None):
        for mu, quad in schemes:
            with pytest.raises(DomainError, match="threads must be"):
                exp_moments(mu, es.Identity(1), [[1.0]], quad, threads=threads)
        with pytest.raises(DomainError, match="threads must be"):
            product.moments([[1.0]], threads=threads)


FRONT_DOOR_BOX = es.LebesgueBox([0.0], [1.0])
FRONT_DOOR_DISC = es.LebesgueDisc([0.0, 0.0], 1.0)
# (call, frequency dimension, whether it is a transform's one xi)
FRONT_DOOR_PATHS = {
    "tensor-gauss-box": (
        lambda lam: exp_moments(FRONT_DOOR_BOX, es.Identity(1), lam, es.gauss(16)), 1, False
    ),
    "tensor-gauss-disc": (
        lambda lam: exp_moments(FRONT_DOOR_DISC, es.Identity(2), lam, es.gauss(16)), 2, False
    ),
    "monte-carlo": (
        lambda lam: exp_moments(FRONT_DOOR_BOX, es.Identity(1), lam, es.monte_carlo(1000, 1)),
        1,
        False,
    ),
    "digit": (
        lambda lam: exp_moments(es.middle_third_cantor(), es.Identity(1), lam, es.digit(12)),
        1,
        False,
    ),
    "adaptive": (
        lambda lam: exp_moments(FRONT_DOOR_BOX, es.Identity(1), lam, es.adaptive()), 1, False
    ),
    "product-formula": (
        plan(es.middle_fourth_cantor(), es.Identity(1), es.digit(40), "gram").moments, 1, False
    ),
    "transform-box": (lambda xi: es.fourier_transform(FRONT_DOOR_BOX, xi), 1, True),
    "transform-disc": (lambda xi: es.fourier_transform(FRONT_DOOR_DISC, xi), 2, True),
    "transform-cantor": (
        lambda xi: es.fourier_transform(es.middle_fourth_cantor(), xi), 1, True
    ),
}


@pytest.mark.parametrize("bad", [np.inf, np.nan, True], ids=["inf", "nan", "boolean"])
@pytest.mark.parametrize("path", sorted(FRONT_DOOR_PATHS))
def test_non_finite_frequencies_refused_before_any_work(monkeypatch, path, bad):
    # every moment call reads its frequencies in one place and refuses one
    # that is not a finite number before any node, sample or product is built
    call, dim, transform = FRONT_DOOR_PATHS[path]

    def never(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(_oscillatory, "box_gauss_nodes", never)
    monkeypatch.setattr(_oscillatory, "digit_nodes", never)
    monkeypatch.setattr(es.measures, "selfsimilar_moments", never)
    for kind in (es.LebesgueBox, es.LebesgueDisc, es.SelfSimilar):
        monkeypatch.setattr(kind, "_sample", never)
    row = [bad] + [0.0] * (dim - 1)
    if transform:
        with pytest.raises(DomainError, match="xi must be"):
            call(row)
    else:
        with pytest.raises(DomainError, match="frequencies must be"):
            call([[0.5] * dim, row])


def test_product_formula_values_pass_the_strict_check(monkeypatch):
    product = plan(es.middle_fourth_cantor(), es.Identity(1), es.digit(40), "gram")
    monkeypatch.setattr(
        es.measures, "selfsimilar_moments", lambda *args: (np.array([np.nan]), np.zeros(1))
    )
    with pytest.raises(QuadratureError, match="non-finite value in product-formula moments"):
        product.moments([[1.0]])
    vals, _ = product.moments([[1.0]], strict=False)
    assert np.isnan(vals[0, 0])


def test_the_tensor_gauss_rule_builds_the_engine_only_pool():
    from pathlib import Path

    path = Path(_oscillatory.__file__)
    bound, _ = _names(path)
    assert not bound & {"threading", "Lock", "_map_pool"}
    # the module imports ThreadPoolExecutor; one function calls it
    assert _users(path, "ThreadPoolExecutor") == {"<module>", "_tensor_gauss"}
