import numpy as np
from numpy.testing import assert_allclose

import expsys as es
from expsys.reconstruct import coefficients, l2_error, synthesize


def unit_box():
    return es.LebesgueBox([0.0], [1.0])


class TestCoefficients:
    def test_constant_function(self):
        spec = es.integer_lattice(1, 8)
        c = coefficients(
            lambda x: np.ones(x.shape[0]), unit_box(), es.Identity(1), spec, es.gauss(48)
        )
        zero = int(np.where(spec.points[:, 0] == 0.0)[0][0])
        assert abs(c.values[zero] - 1.0) <= 1e-12
        others = np.delete(c.values, zero)
        assert np.max(np.abs(others)) <= 1e-12

    def test_linear_function_analytic(self):
        # c_k = i / (2 pi k) for k != 0, c_0 = 1/2
        spec = es.integer_lattice(1, 16)
        c = coefficients(
            lambda x: x[:, 0], unit_box(), es.Identity(1), spec, es.gauss(64)
        )
        for lam, val in zip(spec.points[:, 0], c.values):
            expected = 0.5 if lam == 0 else 1j / (2 * np.pi * lam)
            assert abs(val - expected) <= 1e-10

    def test_cantor_constant_expansion(self):
        nu3 = es.middle_third_cantor()
        phi = es.ternary_to_quaternary(depth=30)
        spec = es.lambda4(4)
        c = coefficients(
            lambda x: np.ones(x.shape[0]), nu3, phi, spec, es.digit(depth=30)
        )
        zero = int(np.where(spec.points[:, 0] == 0.0)[0][0])
        assert abs(c.values[zero] - 1.0) <= 1e-10
        others = np.delete(c.values, zero)
        assert np.max(np.abs(others)) <= 1e-6

    def test_rule_comes_from_plan(self):
        # a digit map on a box has no Jacobian for tensor-Gauss: the
        # coefficients take the seeded 400k-sample rule that plan picks
        phi = es.DigitMap(2, [0, 1], 4, {0: 0.0, 1: 2.0})
        spec = es.lambda4(3)
        one = lambda x: np.ones(x.shape[0])  # noqa: E731
        c = coefficients(one, unit_box(), phi, spec, es.gauss(32))
        sampled = coefficients(one, unit_box(), phi, spec, es.monte_carlo(400_000, seed=0))
        np.testing.assert_array_equal(c.values, sampled.values)
        zero = int(np.where(spec.points[:, 0] == 0.0)[0][0])
        assert abs(c.values[zero] - 1.0) <= 1e-12
        assert np.max(np.abs(np.delete(c.values, zero))) <= 1e-2

    def test_linearity(self):
        spec = es.integer_lattice(1, 8)
        quad = es.gauss(48)
        f = lambda x: x[:, 0]
        g = lambda x: np.cos(2 * np.pi * x[:, 0])
        cf = coefficients(f, unit_box(), es.Identity(1), spec, quad).values
        cg = coefficients(g, unit_box(), es.Identity(1), spec, quad).values
        combo = coefficients(
            lambda x: 2.0 * f(x) - 0.5 * g(x), unit_box(), es.Identity(1), spec, quad
        ).values
        assert np.max(np.abs(combo - (2.0 * cf - 0.5 * cg))) <= 1e-12

    def test_csv_dump(self, tmp_path):
        spec = es.integer_lattice(1, 2)
        c = coefficients(
            lambda x: x[:, 0], unit_box(), es.Identity(1), spec, es.gauss(32)
        )
        path = tmp_path / "coeffs.csv"
        c.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "lambda_1,re,im"
        assert len(lines) == 1 + spec.size
        for line in lines[1:]:
            [float(cell) for cell in line.split(",")]


class TestSynthesize:
    def test_delta_coefficient_is_constant_one(self):
        spec = es.integer_lattice(1, 4)
        c = np.zeros(spec.size, dtype=complex)
        c[int(np.where(spec.points[:, 0] == 0.0)[0][0])] = 1.0
        g = synthesize(c, es.Identity(1), spec)
        pts = np.linspace(0, 1, 13)[:, None]
        assert_allclose(g(pts), np.ones(13), atol=1e-14)

    def test_partial_sum_at_quarter(self):
        # truncated expansion of f(x) = x evaluated at 1/4
        spec = es.integer_lattice(1, 16)
        c = coefficients(
            lambda x: x[:, 0], unit_box(), es.Identity(1), spec, es.gauss(64)
        )
        g = synthesize(c.values, es.Identity(1), spec)
        val = g(np.array([[0.25]]))[0]
        ks = np.arange(1, 17)
        partial = 0.5 + np.sum(
            2 * np.real(1j / (2 * np.pi * ks) * np.exp(2j * np.pi * ks * 0.25))
        )
        assert abs(val - partial) <= 1e-9
        tail_bound = np.sum(1.0 / (np.pi * np.arange(17, 4000)))
        assert abs(val - 0.25) <= tail_bound + 1e-9

    def test_zero_coefficients(self):
        spec = es.integer_lattice(1, 4)
        g = synthesize(np.zeros(spec.size), es.Identity(1), spec)
        assert np.all(g(np.random.default_rng(0).random((7, 1))) == 0.0)


class TestL2Error:
    def test_equal_functions(self):
        f = lambda x: np.sin(x[:, 0])
        assert l2_error(f, f, unit_box(), es.gauss(32)) == 0.0

    def test_truncation_tail_of_sawtooth(self):
        # ||x - S_16 x||^2 = sum_{|k| > 16} 1 / (4 pi^2 k^2), within 10%
        spec = es.integer_lattice(1, 16)
        c = coefficients(
            lambda x: x[:, 0], unit_box(), es.Identity(1), spec, es.gauss(64)
        )
        g = synthesize(c.values, es.Identity(1), spec)
        err = l2_error(
            lambda x: x[:, 0], g, unit_box(), es.monte_carlo(400_000, seed=7)
        )
        ks = np.arange(17, 200_000)
        analytic = np.sqrt(np.sum(2.0 / (4 * np.pi**2 * ks**2)))
        assert abs(err**2 - analytic**2) <= 0.1 * analytic**2

    def test_distance_between_zero_and_one_on_cantor(self):
        err = l2_error(
            lambda x: np.ones(x.shape[0]),
            lambda x: np.zeros(x.shape[0]),
            es.middle_fourth_cantor(),
            es.digit(depth=25),
        )
        assert_allclose(err, 1.0, atol=1e-12)


class TestRoundTrip:
    def test_error_decreases_with_truncation(self):
        f = lambda x: x[:, 0] * (1.0 - x[:, 0])
        errors = []
        for radius in (4, 8, 16, 32):
            spec = es.integer_lattice(1, radius)
            c = coefficients(f, unit_box(), es.Identity(1), spec, es.gauss(64))
            g = synthesize(c.values, es.Identity(1), spec)
            errors.append(
                l2_error(f, g, unit_box(), es.monte_carlo(100_000, seed=11))
            )
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


class TestEntryFlagging:
    def test_bad_entries_flagged_not_zeroed(self):
        # an integrand that goes non-finite flags its entries instead of
        # silently zeroing them
        spec = es.integer_lattice(1, 2)
        bad = lambda x: np.where(x[:, 0] > 0.99, np.nan, x[:, 0])
        c = coefficients(bad, unit_box(), es.Identity(1), spec, es.gauss(32))
        assert np.all(c.failed)
        assert np.all(np.isnan(c.values.real))
