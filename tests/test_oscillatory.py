import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import expsys as es
from expsys._oscillatory import _MAX_WEIGHT_ENTRIES, exp_moments, measure_rule, rule_for
from expsys.errors import DomainError, QuadratureError, SchemeMismatchError
from expsys.measures import disc_quadrants, polar_xy
from expsys.reconstruct import coefficients


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


B2Q = es.binary_to_quaternary(depth=30)
T2Q = es.ternary_to_quaternary(depth=30)
MC400K = es.monte_carlo(400_000, seed=0)

# (mu, phi, quad) -> (coefficient rule, norm rule); the norm rule is taken
# from the coefficient rule, as verify_onb does
RULE_CASES = {
    "cantor4": (es.LebesgueBox([0.0], [1.0]), B2Q, es.digit(40), MC400K, es.gauss(48)),
    "cantor3": (es.middle_third_cantor(), T2Q, es.digit(40), es.digit(40), es.digit(30)),
    "holhos-disc": (
        es.LebesgueDisc([0.0, 0.0], 1.0),
        es.Holhos(),
        es.adaptive(abs_tol=2e-5, max_subdivisions=600, order=16),
        es.adaptive(abs_tol=2e-5, max_subdivisions=600, order=16),
        es.adaptive(abs_tol=1e-10, max_subdivisions=4000),
    ),
    "box-gauss": (
        es.LebesgueBox([0.0, 0.0], [1.0, 1.0]), es.Identity(2), es.gauss(64),
        es.gauss(64), es.gauss(64),
    ),
    "box-gauss-low-order": (
        es.LebesgueBox([0.0], [0.5]), es.Identity(1), es.gauss(24), es.gauss(24), es.gauss(48),
    ),
    "user-monte-carlo": (
        es.LebesgueBox([0.0], [1.0]), es.Identity(1), es.monte_carlo(50_000, seed=7),
        es.monte_carlo(50_000, seed=7), es.gauss(48),
    ),
    "digit-map-pushforward": (
        es.pushforward(es.LebesgueBox([0.0], [1.0]), B2Q), es.Identity(1), es.gauss(64),
        MC400K, MC400K,
    ),
    "gauss-on-cantor": (
        es.middle_fourth_cantor(), es.Identity(1), es.gauss(32), es.digit(30), es.digit(30),
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_rule_table(case):
    mu, phi, quad, coefficient_rule, norm_rule = RULE_CASES[case]
    assert rule_for(mu, phi, quad) == coefficient_rule
    assert measure_rule(mu, coefficient_rule) == norm_rule


def test_pushforward_transform_rule_samples_digit_maps():
    pf = es.pushforward(es.LebesgueBox([0.0], [1.0]), B2Q)
    assert measure_rule(pf, es.gauss(64)) == MC400K
    scaled = es.pushforward(es.LebesgueBox([0.0], [1.0]), es.Affine([[2.0]]))
    assert measure_rule(scaled, es.gauss(64)) == es.gauss(64)


def test_tensor_gauss_disc_matches_per_quadrant_integrate():
    # frequencies low enough for one panel per quadrant, so each quadrant is
    # one plain tensor-Gauss `integrate` call in polar coordinates
    disc = es.LebesgueDisc([0.2, -0.1], 1.5)
    lam = np.array([[0.0, 0.0], [1.0, -0.5], [-1.5, 1.25]])
    weights = [None, (lambda y: y[:, 0] ** 2 + y[:, 1], None)]
    quad = es.gauss(32)
    vals, errs = exp_moments(disc, es.Identity(2), lam, quad, weights=weights)
    for i, row in enumerate(lam):
        for j, w in enumerate(weights):
            fn = (lambda y: np.ones(y.shape[0])) if w is None else w[0]

            def f(rt, row=row, fn=fn):
                y = polar_xy(disc.center, rt)
                return np.exp(2j * np.pi * (y @ row)) * fn(y) * rt[:, 0]

            parts = [
                es.integrate(f, es.LebesgueBox(lo, hi), quad)
                for lo, hi in disc_quadrants(disc)
            ]
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
@settings(max_examples=25, deadline=None)
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


def test_weight_stack_budget_refused_before_building():
    # 2^20 digit nodes leave room for 128 weight columns
    mu, quad = es.middle_fourth_cantor(), es.digit(depth=30)
    n = 1 << 20
    k = _MAX_WEIGHT_ENTRIES // n
    with pytest.raises(DomainError, match="weight stack"):
        exp_moments(mu, es.Identity(1), [[0.0]], quad, weights=[None] * (k + 1))
