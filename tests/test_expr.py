import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expsys.errors import ExprError
from expsys.expr import expression_on_points, parse_expression


class TestParse:
    def test_sin_at_quarter(self):
        e = parse_expression("sin(2*pi*x2)")
        assert_allclose(e.evaluate({"x2": 0.25}), 1.0, atol=1e-15)

    def test_polynomial(self):
        e = parse_expression("x1+x2^2")
        assert_allclose(e.evaluate({"x1": 1.0, "x2": 2.0}), 5.0)

    def test_exp_matches_library(self):
        e = parse_expression("exp(-x1)")
        xs = np.random.default_rng(0).uniform(-5, 5, size=1000)
        got = e.evaluate({"x1": xs})
        ref = np.exp(-xs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 4 * np.finfo(float).eps

    def test_right_assoc_power(self):
        assert parse_expression("2^3^2").evaluate({}) == 512.0

    @pytest.mark.parametrize(
        "text, value", [("-x1^2", -9.0), ("-2^2", -4.0), ("2^-1", 0.5)]
    )
    def test_unary_minus_binds_looser_than_power(self, text, value):
        assert parse_expression(text).evaluate({"x1": 3.0}) == value

    def test_constant_division_by_zero_is_inf(self):
        # float64 literals: no ZeroDivisionError and no warning
        assert parse_expression("x1 + 1/0").evaluate({"x1": 1.0}) == np.inf

    def test_unary_minus_and_constants(self):
        assert_allclose(parse_expression("-x1 + e").evaluate({"x1": 1.0}), math.e - 1)
        assert_allclose(parse_expression("sgn(-3.5)").evaluate({}), -1.0)
        assert_allclose(parse_expression("sqrt(abs(-4))").evaluate({}), 2.0)

    def test_vectorized(self):
        e = parse_expression("cos(pi*x1)*x1")
        xs = np.array([0.0, 0.5, 1.0])
        assert_allclose(e.evaluate({"x1": xs}), [0.0, 0.0, -1.0], atol=1e-15)

    def test_on_points_adapter(self):
        fn = expression_on_points(parse_expression("x1*x2"))
        pts = np.array([[2.0, 3.0], [0.5, 4.0]])
        assert_allclose(fn(pts), [6.0, 2.0])


class TestErrors:
    def test_syntax_error_offset(self):
        with pytest.raises(ExprError) as exc:
            parse_expression("sin(2*pi*x2")
        assert exc.value.offset == 11

    def test_unknown_identifier(self):
        with pytest.raises(ExprError) as exc:
            parse_expression("2*foo")
        assert exc.value.offset == 2

    def test_out_of_range_coordinate(self):
        with pytest.raises(ExprError):
            parse_expression("x9 + 1")

    def test_bad_character(self):
        with pytest.raises(ExprError) as exc:
            parse_expression("1 + $")
        assert exc.value.offset == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            parse_expression("1 2")

    def test_unbound_variable_at_eval(self):
        e = parse_expression("x1 + x2")
        with pytest.raises(ExprError):
            e.evaluate({"x1": 1.0})

    @pytest.mark.parametrize(
        "text",
        ["-" * 3000 + "x1", "(" * 3000 + "x1" + ")" * 3000, "+".join(["x1"] * 3000)],
    )
    def test_oversized_expression_refused_at_parse(self, text):
        with pytest.raises(ExprError, match="tokens"):
            parse_expression(text)

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 127 + "x1" + ")" * 127,
            "-" * 255 + "x1",
            "^".join(["x1"] * 128),
            "-(" * 85 + "x1" + ")" * 85,
        ],
    )
    def test_deepest_expressions_under_the_bound_evaluate(self, text):
        assert abs(parse_expression(text).evaluate({"x1": 1.0})) == 1.0
