import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsys as es
from expsys.analysis import FAIL, INCONCLUSIVE, PASS, unique_differences
from expsys.analysis import TestFunction as TFn

# Frozen oracle values (scripts: high-order Gauss-Legendre, 400 nodes; the
# z = e^{x2} entry cross-checked against a 1e7-sample Monte-Carlo run).
TRIANGULAR_EXP_G10 = 0.1001356804  # |G_{(1,0),(0,0)}| for z = e^{x2} over [0,1]^2
FRESNEL_G10 = 0.2984651222  # |int_0^1 e^{2 pi i x^2} dx|
PARSEVAL_X_32 = 0.9953240065  # ratio for f(x) = x at |k| <= 32 (analytic)


def unit_box(d=1):
    return es.LebesgueBox([0.0] * d, [1.0] * d)


def sin_unipotent():
    return es.Unipotent(
        shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),),
        dim=2,
        grads=(lambda p: 2 * np.pi * np.cos(2 * np.pi * p[:, 1]),),
    )


def exp_triangular():
    K = 1.0 - np.exp(-1.0)  # second component vanishes at x2 = 0
    return es.Triangular2D(
        z=lambda t: np.exp(t),
        f=lambda t: np.zeros_like(t),
        K=K,
        z_prime=lambda t: np.exp(t),
        f_prime=lambda t: np.zeros_like(t),
    )


class TestGram:
    def test_classical_identity_gram(self):
        rep = es.gram(unit_box(), es.Identity(1), es.integer_lattice(1, 16), es.gauss(64))
        assert rep.max_offdiag <= 1e-12
        assert rep.diag_dev <= 1e-12

    def test_digit_map_product_path(self):
        rep = es.gram(
            unit_box(),
            es.binary_to_quaternary(depth=30),
            es.lambda4(4),
            es.digit(depth=40),
        )
        assert rep.path == "product-formula"
        assert rep.max_offdiag <= 1e-8
        assert rep.diag_dev <= 1e-10

    def test_triangular_counterexample_entry(self):
        spectrum = es.integer_lattice(2, 2)
        rep = es.gram(unit_box(2), exp_triangular(), spectrum, es.gauss(48))
        pts = spectrum.points
        i = int(np.where((pts == [1.0, 0.0]).all(axis=1))[0][0])
        j = int(np.where((pts == [0.0, 0.0]).all(axis=1))[0][0])
        entry = abs(rep.entries[i, j])
        assert entry >= 0.5 * TRIANGULAR_EXP_G10
        assert abs(entry - TRIANGULAR_EXP_G10) <= 1e-6

    def test_difference_cache(self):
        spectrum = es.integer_lattice(1, 6)
        rep = es.gram(unit_box(), es.Identity(1), spectrum, es.gauss(32))
        assert rep.n_unique_differences < rep.n_pairs
        pts = spectrum.points[:, 0]
        m = pts.size
        for i in range(0, m, 3):
            for j in range(0, m, 3):
                for k in range(0, m, 3):
                    for l in range(0, m, 3):
                        if pts[i] - pts[j] == pts[k] - pts[l]:
                            assert rep.entries[i, j] == rep.entries[k, l]

    def test_hermiticity_invariant(self):
        for rep in (
            es.gram(unit_box(), es.Identity(1), es.integer_lattice(1, 8), es.gauss(48)),
            es.gram(
                unit_box(2), sin_unipotent(), es.integer_lattice(2, 2), es.gauss(48)
            ),
            es.gram(
                es.middle_fourth_cantor(),
                es.Identity(1),
                es.lambda4(3),
                es.digit(depth=40),
            ),
        ):
            assert rep.hermiticity_residual <= 10 * max(rep.quad_error, 1e-15)

    def test_pushforward_equivalence(self):
        # Gram over mu with phase phi == Gram over phi_* mu with identity phase
        cases = [
            (unit_box(), es.binary_to_quaternary(depth=30), es.lambda4(3), es.digit(30)),
            (
                unit_box(2),
                sin_unipotent(),
                es.integer_lattice(2, 2),
                es.gauss(48),
            ),
            (
                unit_box(),
                es.CustomPhase(lambda p: p[:, 0] ** 2, 1, 1),
                es.integer_lattice(1, 4),
                es.monte_carlo(50_000, seed=3),
            ),
        ]
        for mu, phi, spectrum, quad in cases:
            direct = es.gram(mu, phi, spectrum, quad)
            pushed = es.gram(es.pushforward(mu, phi), es.Identity(phi.out_dim), spectrum, quad)
            err = direct.quad_error + pushed.quad_error + 1e-12
            assert np.max(np.abs(direct.entries - pushed.entries)) <= err

    def test_spectrum_cap(self):
        big = es.SpectrumSet(np.arange(5000, dtype=float)[:, None])
        with pytest.raises(ValueError):
            es.gram(unit_box(), es.Identity(1), big, es.gauss(16))


def reference_unique_differences(points):
    """The np.unique(axis=0) form of unique_differences.  -0.0 is folded into
    0.0 first: np.unique keeps whichever sign its unstable sort puts first."""
    m = points.shape[0]
    keys = np.round((points[:, None, :] - points[None, :, :]).reshape(m * m, -1), 12)
    uniq, inverse = np.unique(keys + 0.0, axis=0, return_inverse=True)
    return uniq, inverse.reshape(m, m)


# coordinates on a coarse grid, nudged to within 1e-12 of the grid value (and
# of 0), so that rounding to 12 digits merges or splits nearby differences
NUDGES = [0.0, 2e-13, -2e-13, 4.9e-13, -4.9e-13, 5.1e-13, -5.1e-13, 1e-12, -1e-12]
coords = st.builds(
    lambda k, e: k / 4 + e, st.integers(-6, 6), st.sampled_from(NUDGES)
)


@st.composite
def explicit_points(draw):
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(coords, min_size=d, max_size=d), min_size=1, max_size=30))
    rows = np.array(rows)
    # keep one row per rounded key, as SpectrumSet requires (explicit() would
    # read a single d-row as d 1-d points)
    _, first = np.unique(np.round(rows, 12) + 0.0, axis=0, return_index=True)
    return es.SpectrumSet(rows[np.sort(first)], {"kind": "explicit"}).points


structured_points = st.one_of(
    st.integers(0, 12).map(lambda r: es.integer_lattice(1, r).points),
    st.integers(0, 5).map(lambda r: es.integer_lattice(2, r).points),
    st.integers(0, 2).map(lambda r: es.integer_lattice(3, r).points),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 1.5), st.floats(0.5, 3.0)).map(
        lambda t: es.lattice([[1.0, t[0]], [0.0, t[1]]], t[2]).points
    ),
    st.integers(1, 6).map(lambda n: es.lambda4(n).points),
)


class TestUniqueDifferences:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(explicit_points(), structured_points))
    def test_matches_np_unique(self, points):
        uniq, inverse = unique_differences(points.copy())
        ref_uniq, ref_inverse = reference_unique_differences(points)
        assert np.array_equal(uniq, ref_uniq)
        assert np.array_equal(np.signbit(uniq), np.signbit(ref_uniq))
        assert np.array_equal(inverse, ref_inverse)


class TestVerifyOnb:
    def test_identity_parseval_ratio_analytic(self):
        battery = [TFn("x", lambda p: p[:, 0], norm_sq=1.0 / 3.0)]
        rep = es.verify_onb(
            unit_box(),
            es.Identity(1),
            es.integer_lattice(1, 32),
            es.gauss(64),
            tol_orth=1e-10,
            tol_complete=0.01,
            test_functions=battery,
        )
        assert rep.verdict == PASS
        assert abs(rep.parseval_ratios["x"] - PARSEVAL_X_32) <= 1e-6

    def test_square_phase_fails_orthogonality(self):
        phi = es.CustomPhase(lambda p: p[:, 0] ** 2, 1, 1)
        rep = es.verify_onb(
            unit_box(), phi, es.integer_lattice(1, 4), es.gauss(64), tol_orth=1e-8
        )
        assert rep.verdict == FAIL
        assert not rep.orthogonal
        assert rep.gram_report.max_offdiag >= FRESNEL_G10 - 1e-8

    def test_unipotent_passes(self):
        battery = [
            TFn("one", lambda p: np.ones(p.shape[0]), norm_sq=1.0),
            TFn("x2", lambda p: p[:, 1], norm_sq=1.0 / 3.0),
        ]
        rep = es.verify_onb(
            unit_box(2),
            sin_unipotent(),
            es.integer_lattice(2, 4),
            es.gauss(64),
            tol_orth=1e-8,
            tol_complete=0.06,
            test_functions=battery,
        )
        assert rep.verdict == PASS
        assert rep.orthogonal

    def test_truncation_gives_inconclusive(self):
        # orthogonal system, battery function with a slow tail, tiny spectrum
        battery = [TFn("x", lambda p: p[:, 0], norm_sq=1.0 / 3.0)]
        rep = es.verify_onb(
            unit_box(),
            es.Identity(1),
            es.integer_lattice(1, 2),
            es.gauss(48),
            tol_complete=0.02,
            test_functions=battery,
        )
        assert rep.verdict == INCONCLUSIVE

    def test_bessel_violation_reported_as_failure(self):
        # a lying norm makes the ratio exceed 1 + tol: flagged distinctly
        battery = [TFn("liar", lambda p: p[:, 0], norm_sq=0.5 / 3.0)]
        rep = es.verify_onb(
            unit_box(),
            es.Identity(1),
            es.integer_lattice(1, 32),
            es.gauss(64),
            test_functions=battery,
        )
        assert rep.bessel_violation
        assert rep.verdict == FAIL

    def test_bessel_sanity_invariant(self):
        # truncated subsets of a verified spectrum never overshoot Parseval
        for radius in (4, 8, 16):
            battery = [
                TFn("x", lambda p: p[:, 0], norm_sq=1.0 / 3.0),
                TFn("one", lambda p: np.ones(p.shape[0]), norm_sq=1.0),
            ]
            rep = es.verify_onb(
                unit_box(),
                es.Identity(1),
                es.integer_lattice(1, radius),
                es.gauss(64),
                test_functions=battery,
            )
            bound = 1.0 + 10 * max(rep.gram_report.quad_error, 1e-14)
            for ratio in rep.parseval_ratios.values():
                assert ratio <= bound

    def test_nan_ratio_on_half_interval_raises(self):
        # nan compares false both ways, so a NaN ratio must not reach the verdict
        half_nan = TFn(
            "half_nan", lambda p: np.where(p[:, 0] < 0.5, np.nan, 1.0), norm_sq=0.5
        )
        with pytest.raises(es.QuadratureError):
            es.verify_onb(
                unit_box(), es.Identity(1), es.integer_lattice(1, 4), es.gauss(32),
                test_functions=[half_nan],
            )

    def test_nan_ratio_on_cantor_digit_raises(self):
        nan = TFn("nan", lambda p: np.full(p.shape[0], np.nan))
        with pytest.raises(es.QuadratureError):
            es.verify_onb(
                es.middle_fourth_cantor(), es.Identity(1), es.lambda4(3), es.digit(40),
                test_functions=[nan],
            )


class TestFrameBounds:
    def test_parseval_on_unit_interval(self):
        basis = es.dyadic_indicator_basis(unit_box(), 64)
        rep = es.frame_bounds(
            unit_box(), es.Identity(1), es.integer_lattice(1, 256), basis, es.gauss(24)
        )
        assert 0.9 <= rep.a_est <= 1.0 + 1e-9
        assert 0.99 <= rep.b_est <= 1.01

    def test_half_interval_restriction(self):
        mu = es.LebesgueBox([0.0], [0.5])
        basis = es.dyadic_indicator_basis(mu, 64)
        rep = es.frame_bounds(
            mu, es.Identity(1), es.integer_lattice(1, 256), basis, es.gauss(24)
        )
        assert 0.9 <= rep.a_est <= 1.01
        assert 0.9 <= rep.b_est <= 1.01

    def test_even_integers_not_a_frame(self):
        basis = es.dyadic_indicator_basis(unit_box(), 64)
        rep = es.frame_bounds(
            unit_box(), es.Identity(1), es.lattice([[2.0]], 256), basis, es.gauss(24)
        )
        assert rep.a_est <= 0.1

    def test_monotone_in_truncation(self):
        mu = es.LebesgueBox([0.0], [0.5])
        basis = es.dyadic_indicator_basis(mu, 32)
        reports = [
            es.frame_bounds(
                mu, es.Identity(1), es.integer_lattice(1, R), basis, es.gauss(24)
            )
            for R in (64, 128, 256)
        ]
        for prev, cur in zip(reports, reports[1:]):
            assert cur.a_est >= prev.a_est - 1e-10
            assert cur.b_est >= prev.b_est - 1e-10

    def test_legendre_basis_alternative(self):
        # degree-7 tail beyond |k| = 64 is ~11%; near-tight is the claim
        basis = es.legendre_basis(unit_box(), 8)
        rep = es.frame_bounds(
            unit_box(), es.Identity(1), es.integer_lattice(1, 64), basis, es.gauss(32)
        )
        assert 0.85 <= rep.a_est <= 1.0 + 1e-9
        assert 0.99 <= rep.b_est <= 1.0 + 1e-9

    def test_non_orthonormal_basis_rejected(self):
        from expsys.analysis import TestBasis

        bad = TestBasis(
            functions=[
                TFn("a", lambda p: np.ones(p.shape[0]), norm_sq=1.0),
                TFn("b", lambda p: np.ones(p.shape[0]), norm_sq=1.0),
            ],
            descriptor="duplicated",
            exactly_orthonormal=False,
        )
        with pytest.raises(ValueError):
            es.frame_bounds(
                unit_box(), es.Identity(1), es.integer_lattice(1, 8), bad, es.gauss(16)
            )


def _pairwise_residual(mu, basis, quad):
    """The orthonormality residual as one `integrate` per pair of functions."""
    from expsys._oscillatory import _inside, measure_rule

    def masked(tf, x):
        v = np.asarray(tf.fn(x))
        return v if tf.support_box is None else np.where(_inside(x, tf.support_box), v, 0.0)

    fns = basis.functions
    G = np.zeros((len(fns), len(fns)), dtype=complex)
    for i, a in enumerate(fns):
        for j, b in enumerate(fns):
            prod = lambda x, a=a, b=b: masked(a, x) * np.conj(masked(b, x))
            G[i, j] = es.integrate(prod, mu, measure_rule(mu, quad))[0]
    return float(np.max(np.abs(G - np.eye(len(fns)))))


def _skew_basis_2d():
    from expsys.analysis import TestBasis

    half = (np.array([0.0, 0.0]), np.array([0.5, 2.0]))
    return TestBasis(
        functions=[
            TFn("one", lambda x: np.full(x.shape[0], np.sqrt(0.5)), norm_sq=1.0),
            TFn("wave", lambda x: np.exp(2j * np.pi * x[:, 0]) * np.sqrt(0.5), norm_sq=1.0),
            TFn("tilt", lambda x: (x[:, 0] + x[:, 1] ** 2) * 0.4, norm_sq=1.0),
            TFn("half", lambda x: np.ones(x.shape[0]), support_box=half, norm_sq=1.0),
        ],
        descriptor="skew 2-d",
        exactly_orthonormal=False,
    )


@pytest.mark.parametrize("case", ["legendre-8", "skew-2d"])
def test_orthonormality_residual_is_one_stacked_moment_call(monkeypatch, case):
    from expsys import analysis

    if case == "legendre-8":
        mu = unit_box()
        basis = es.legendre_basis(mu, 8)
    else:
        mu = es.LebesgueBox([0.0, 0.0], [1.0, 2.0])
        basis = _skew_basis_2d()
    quad = es.gauss(16)
    expected = _pairwise_residual(mu, basis, quad)

    calls = []
    real = analysis.exp_moments

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "exp_moments", counted)
    monkeypatch.setattr(es.measures, "integrate", None)  # any integrate call fails
    resid = analysis._basis_orthonormality_residual(mu, basis, quad)
    assert len(calls) == 1
    assert abs(resid - expected) <= 1e-12


class TestUnimodularConjugation:
    def test_identity_matrix(self):
        dev = es.unimodular_conjugation_check(
            unit_box(2), es.Identity(2), np.eye(2), 2, es.gauss(32)
        )
        assert dev == 0.0

    def test_shear_on_identity_phase(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        dev = es.unimodular_conjugation_check(
            unit_box(2), es.Identity(2), M, 4, es.gauss(48)
        )
        assert dev <= 1e-12

    def test_shear_on_unipotent_phase(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        rep = es.gram(
            unit_box(2), sin_unipotent(), es.integer_lattice(2, 4), es.gauss(64)
        )
        dev = es.unimodular_conjugation_check(
            unit_box(2), sin_unipotent(), M, 4, es.gauss(64)
        )
        assert dev <= 2 * max(rep.quad_error, 1e-13)

    def test_nonunimodular_rejected(self):
        with pytest.raises(ValueError):
            es.unimodular_conjugation_check(
                unit_box(2), es.Identity(2), np.diag([2.0, 1.0]), 2, es.gauss(16)
            )


class TestLinearPhaseClassification:
    def test_negated_identity_accepted(self):
        # phi(x) = -x is the other admissible linear phase
        phi = es.Affine(np.array([[-1.0]]))
        rep = es.verify_onb(
            unit_box(),
            phi,
            es.integer_lattice(1, 16),
            es.gauss(64),
            tol_orth=1e-10,
            tol_complete=0.02,
            test_functions=[
                TFn("x", lambda p: p[:, 0], norm_sq=1.0 / 3.0),
                TFn("one", lambda p: np.ones(p.shape[0]), norm_sq=1.0),
            ],
        )
        assert rep.verdict == PASS

    def test_smooth_perturbation_rejected(self):
        # phi(x) = x + sin(2 pi x)/10 is a C^1 monotone perturbation; its
        # first Gram entry is a Bessel value J_1(pi/5) ~ 0.3, not zero
        phi = es.CustomPhase(
            lambda p: p[:, 0] + 0.1 * np.sin(2 * np.pi * p[:, 0]), 1, 1
        )
        rep = es.verify_onb(
            unit_box(), phi, es.integer_lattice(1, 8), es.gauss(64), tol_orth=1e-8
        )
        assert rep.verdict == FAIL
        assert not rep.orthogonal
        from scipy.special import jv

        pts = es.integer_lattice(1, 8).points[:, 0]
        i = int(np.where(pts == 1.0)[0][0])
        j = int(np.where(pts == 0.0)[0][0])
        assert abs(
            abs(rep.gram_report.entries[i, j]) - abs(jv(-1, 0.2 * np.pi))
        ) <= 1e-10
