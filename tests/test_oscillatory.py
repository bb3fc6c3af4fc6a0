import numpy as np
import pytest
from numpy.testing import assert_allclose

import expsys as es
from expsys._oscillatory import exp_moments
from expsys.errors import SchemeMismatchError
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
    vals, errs = exp_moments(mu, phi, lam, quad, sign=-1, weights=weights)
    assert vals.shape == errs.shape == (len(lam), len(weights))
    for j, w in enumerate(weights):
        v1, e1 = exp_moments(mu, phi, lam, quad, sign=-1, weights=[w])
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
