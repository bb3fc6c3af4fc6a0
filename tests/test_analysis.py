import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import expsys as es
from expsys.analysis import FAIL, INCONCLUSIVE, PASS, unique_differences
from expsys.analysis import TestFunction as TFn
from expsys.measures import _box_ft
from expsys.spectra import unique_rows

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
    )


def exp_triangular():
    K = 1.0 - np.exp(-1.0)  # second component vanishes at x2 = 0
    return es.Triangular2D(
        z=lambda t: np.exp(t),
        f=lambda t: np.zeros_like(t),
        K=K,
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

    def test_irrational_lattice_entries_sit_at_exact_differences(self):
        # the 12-digit class keys move these frequencies by up to 5e-13, which
        # moves a key-integrated entry by 1.4e-12; each class is integrated at
        # the unrounded difference of its first pair instead
        A = np.array([[np.sqrt(2.0), 1.0 / 3.0], [0.0, np.pi / 4.0]])
        spectrum = es.lattice(A, 4.0)
        mu = es.LebesgueBox([0.0, 0.0], [1.0, 2.0])
        rep = es.gram(mu, es.Identity(2), spectrum, es.gauss(32))
        k = np.round(spectrum.points @ np.linalg.inv(A).T)
        at_exact = _box_ft(mu, ((k[:, None, :] - k[None, :, :]) @ A.T).reshape(-1, 2))
        assert np.max(np.abs(rep.entries.ravel() - at_exact)) <= 1e-14
        keys, inverse, _ = unique_differences(spectrum.points)
        assert np.max(np.abs(_box_ft(mu, keys)[inverse].ravel() - at_exact)) > 1e-13

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
    uniq, first, inverse = np.unique(keys + 0.0, axis=0, return_index=True, return_inverse=True)
    return uniq, inverse.reshape(m, m), first


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


@st.composite
def integer_points(draw):
    """Distinct integer-valued points in shuffled order, of either sign: near
    ones (their doubled box mostly within m^2 bins, keyed by exact integers),
    sparse ones (the box above m^2 bins) and ones from 2^51 up, which both take
    the rounded rows."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["near", "sparse", "huge"]))
    coord = {"near": st.integers(0, 2), "sparse": st.integers(0, 10**6), "huge": st.integers(0, 8)}
    rows = draw(st.lists(st.lists(coord[kind], min_size=d, max_size=d), min_size=1, max_size=30))
    shift = {
        "near": st.integers(-3, 3),
        "sparse": st.just(0),
        "huge": st.sampled_from([2**51, 2**52, 2**60]),
    }
    sign = draw(st.sampled_from([1.0, -1.0]))
    rows = np.unique(sign * (np.array(rows, dtype=float) + draw(shift[kind])), axis=0)
    return rows[draw(st.permutations(range(rows.shape[0])))]


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
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(st.one_of(explicit_points(), integer_points(), structured_points))
    def test_matches_np_unique(self, points):
        uniq, inverse, freqs = unique_differences(points.copy())
        ref_uniq, ref_inverse, ref_first = reference_unique_differences(points)
        assert np.array_equal(uniq, ref_uniq)
        assert np.array_equal(np.signbit(uniq), np.signbit(ref_uniq))
        assert inverse.shape == ref_inverse.shape and inverse.size == ref_inverse.size
        assert np.array_equal(inverse, ref_inverse)
        assert np.array_equal(np.concatenate([b for _, b in inverse.blocks()]), ref_inverse)
        # row blocks whose edges fall mid-spectrum, read by index
        m = points.shape[0]
        for rows in np.array_split(np.arange(m), 3):
            assert np.array_equal(inverse[rows[:, None], np.arange(m)], ref_inverse[rows])
        # each class at the unrounded difference of its first pair, the upper
        # half at the negated lower half
        i, j = np.divmod(ref_first, points.shape[0])
        low = slice(0, uniq.shape[0] // 2 + 1)
        assert np.array_equal(freqs[low], (points[i] - points[j])[low])
        assert np.array_equal(freqs, -freqs[::-1])
        assert not np.any(np.signbit(freqs) & (freqs == 0))
        assert np.array_equal(np.round(freqs, 12) + 0.0, uniq)

    def test_integer_points_skip_the_rounded_rows(self, monkeypatch):
        import expsys.analysis as an

        integer = [es.lambda4(11).points, es.integer_lattice(1, 1024).points]
        rounded = [
            es.lattice([[np.sqrt(2.0)]], 20).points,  # not integer-valued
            np.array([[0.0], [1.0], [10.0**6]]),  # doubled box above m^2 bins
            np.array([[2.0**51], [2.0**51 + 1], [2.0**51 + 2]]),  # not below 2^51
        ]
        calls = []

        def spy(rows):
            calls.append(rows.shape[0])
            return unique_rows(rows)

        monkeypatch.setattr(an, "unique_rows", spy)
        for points in integer:
            unique_differences(points)
        assert calls == []
        for points in rounded:
            unique_differences(points)
        assert calls == [points.shape[0] ** 2 for points in rounded]

    def test_integer_tables_peak_below_the_rounded_rows(self):
        # lambda4(11): the bool mark over its doubled box of about (2/3) m^2
        # bins (2.8 MB), the class codes and one row block of 2^16 codes
        # (about 5 MiB in all); the rounded rows (differences, sort order,
        # inverse, ranks) take about 6 m^2 doubles (200 MiB)
        points = es.lambda4(11).points
        tracemalloc.start()
        try:
            unique_differences(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_refuses_above_the_gram_cap_before_any_difference(self):
        from expsys.analysis import MAX_GRAM_POINTS

        class Points:  # fails if a difference row is ever formed
            shape = (MAX_GRAM_POINTS + 1, 1)

            def __getitem__(self, key):
                raise AssertionError("a difference row was formed")

        with pytest.raises(es.DomainError, match="cap"):
            unique_differences(Points())


@st.composite
def random_lattice_points(draw):
    """A lattice A Z^d with A = diag(s) (I + 0.3 R), R in [-1, 1]^(d x d): well conditioned."""
    d = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    R = np.array(draw(st.lists(unit, min_size=d * d, max_size=d * d))).reshape(d, d)
    s = np.array(draw(st.lists(st.floats(0.8, 1.5), min_size=d, max_size=d)))
    radius = draw(st.floats(*[(2.0, 20.0), (1.0, 2.5), (0.8, 1.2)][d - 1]))
    points = es.lattice(s[:, None] * (np.eye(d) + 0.3 * R), radius).points
    assume(points.shape[0] <= 60)
    return points


def dense_scalars(rep, mass):
    """The report scalars as the m x m Gram gives them: the oracle for the table."""
    G = rep.entries
    off = np.abs(G)
    np.fill_diagonal(off, 0.0)
    return (
        float(off.max()) if G.shape[0] > 1 else 0.0,
        float(np.max(np.abs(np.diagonal(G) - mass))),
        float(np.max(np.abs(G - G.conj().T))),
        float(np.max(rep.errors[rep.inverse])),
    )


def table_scalars(rep):
    return rep.max_offdiag, rep.diag_dev, rep.hermiticity_residual, rep.quad_error


class TestDifferenceTable:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.one_of(
            random_lattice_points(),
            explicit_points(),
            st.integers(1, 5).map(lambda n: es.lambda4(n).points),
        )
    )
    def test_scalars_match_dense_gram(self, points):
        uniq, _, _ = unique_differences(points.copy())
        assert np.array_equal(uniq, -uniq[::-1])
        mu = unit_box(points.shape[1])
        spectrum = es.SpectrumSet(points, {"kind": "explicit"})
        rep = es.gram(mu, es.Identity(mu.dim), spectrum, es.monte_carlo(64, seed=2))
        assert table_scalars(rep) == dense_scalars(rep, mu.total_mass)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_lambda4_product_formula(self, n):
        mu = es.middle_fourth_cantor()
        rep = es.gram(mu, es.Identity(1), es.lambda4(n), es.digit(40))
        assert rep.path == "product-formula"
        assert table_scalars(rep) == dense_scalars(rep, mu.total_mass)

    def test_single_point(self):
        rep = es.gram(unit_box(), es.Identity(1), es.explicit([[0.3]]), es.gauss(16))
        assert rep.max_offdiag == 0.0 and rep.hermiticity_residual == 0.0
        assert table_scalars(rep) == dense_scalars(rep, 1.0)

    @pytest.mark.parametrize(
        "mu, spectrum, quad, n_unique",
        [
            (unit_box(), es.integer_lattice(1, 2047), es.gauss(64), 8189),
            (es.middle_fourth_cantor(), es.lambda4(12), es.digit(40), 3**12),
        ],
        ids=["z-4095", "lambda4-4096"],
    )
    def test_gram_at_the_cap(self, mu, spectrum, quad, n_unique):
        # a Gram at the 4096-point cap never holds the m x m table: the whole
        # call stays under 48 MiB (about 0.2 and 1.4 m^2 int64s)
        es.gram(mu, es.Identity(1), es.lambda4(2), quad)  # the gate and node caches, untraced
        points = spectrum.points
        m = points.shape[0]
        tracemalloc.start()
        try:
            rep = es.gram(mu, es.Identity(1), spectrum, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert rep.n_unique_differences == n_unique
        assert rep.n_pairs == m * m and rep.max_offdiag <= 1e-12
        keys, inverse, freqs = unique_differences(points)
        assert inverse.size == m * m and keys.shape[0] == n_unique
        # the first two row blocks hold each pair's exact difference
        for (start, block), _ in zip(inverse.blocks(), range(2)):
            rows = points[start : start + block.shape[0]]
            assert np.array_equal(freqs[block], rows[:, None, :] - points[None, :, :])

    def test_difference_rounding_to_zero_counts_off_diagonal(self):
        # distinct points whose only nonzero difference rounds to 0 at 12 digits
        spectrum = es.explicit([[0.49e-12], [0.51e-12]])
        rep = es.gram(unit_box(), es.Identity(1), spectrum, es.gauss(16))
        assert rep.n_unique_differences == 1
        assert rep.max_offdiag == pytest.approx(1.0)
        assert table_scalars(rep) == dense_scalars(rep, 1.0)


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

    def test_unresolved_gauss_norm_raises(self):
        # the measure rule sizes its panels from the phase alone: one panel of
        # order 64 reads ||cos(2 pi 30 x)||^2 as 0.4159 against 0.5, with a
        # two-order error of 0.012; at 10 cycles it resolves (error 1.4e-15)
        def battery(cycles):
            return [TFn("cos", lambda p: np.cos(2 * np.pi * cycles * p[:, 0]))]

        args = (unit_box(), es.Identity(1), es.integer_lattice(1, 32), es.gauss(64))
        with pytest.raises(es.QuadratureError, match="tensor-gauss norm of 'cos'"):
            es.verify_onb(*args, test_functions=battery(30))
        rep = es.verify_onb(*args, test_functions=battery(10))
        assert rep.verdict == PASS

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

    @pytest.mark.parametrize("dim, m", [(1, 2), (1, 3), (1, 5), (1, 7), (2, 9)])
    def test_indicator_residual_integrates_each_product_on_its_box(self, dim, m):
        # each product psi_i conj(psi_j) runs on the intersection of the two
        # cells, so Gauss never integrates a step across a panel
        from expsys.analysis import TestBasis, _basis_orthonormality_residual

        mu = unit_box(dim)
        exact = es.dyadic_indicator_basis(mu, m)
        basis = TestBasis(exact.functions, exact.descriptor, exactly_orthonormal=False)
        assert _basis_orthonormality_residual(mu, basis, es.gauss(32)) <= 1e-15
        lam = es.integer_lattice(dim, 2)
        checked = es.frame_bounds(mu, es.Identity(dim), lam, basis, es.gauss(32))
        trusted = es.frame_bounds(mu, es.Identity(dim), lam, exact, es.gauss(32))
        assert checked.a_est == trusted.a_est and checked.b_est == trusted.b_est

    @pytest.mark.parametrize("quad", [es.gauss(32), es.digit(40)], ids=["gauss", "digit"])
    def test_frame_matrix_rule_comes_from_plan(self, quad):
        # the binary-to-quaternary digit map on Lebesgue[0, 1] has no
        # Jacobian for tensor-Gauss and no self-similar base for digit
        # enumeration: both fall back to the seeded 400k-sample rule
        phi = es.DigitMap(2, [0, 1], 4, {0: 0.0, 1: 2.0})
        basis = es.dyadic_indicator_basis(unit_box(), 8)
        rep = es.frame_bounds(unit_box(), phi, es.lambda4(3), basis, quad)
        assert rep.a_est == pytest.approx(0.7435388531, abs=1e-9)
        assert rep.b_est == pytest.approx(1.0047243811, abs=1e-9)

    def test_fewer_frequencies_than_test_functions_has_no_lower_bound(self):
        # three frequencies against eight cells: T has a null space on the
        # test subspace, so the lower frame bound there is 0
        basis = es.dyadic_indicator_basis(unit_box(), 8)
        rep = es.frame_bounds(
            unit_box(), es.Identity(1), es.explicit([0, 1, 2]), basis, es.gauss(32)
        )
        assert rep.singular_values.size == 3 and rep.singular_values.min() > 0.5
        assert rep.a_est == 0.0 and rep.b_est == pytest.approx(rep.singular_values.max() ** 2)

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
    from expsys._oscillatory import plan
    from expsys.measures import _in_box

    def masked(tf, x):
        v = np.asarray(tf.fn(x))
        return v if tf.support_box is None else np.where(_in_box(x, *tf.support_box), v, 0.0)

    fns = basis.functions
    rule = plan(mu, es.Identity(mu.dim), quad, "measure").rule
    G = np.zeros((len(fns), len(fns)), dtype=complex)
    for i, a in enumerate(fns):
        for j, b in enumerate(fns):
            prod = lambda x, a=a, b=b: masked(a, x) * np.conj(masked(b, x))
            G[i, j] = es.integrate(prod, mu, rule)[0]
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
    from expsys import _oscillatory, analysis

    if case == "legendre-8":
        mu = unit_box()
        basis = es.legendre_basis(mu, 8)
    else:
        mu = es.LebesgueBox([0.0, 0.0], [1.0, 2.0])
        basis = _skew_basis_2d()
    quad = es.gauss(16)
    expected = _pairwise_residual(mu, basis, quad)

    calls = []
    real = _oscillatory.exp_moments

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_oscillatory, "exp_moments", counted)
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

    def test_spectrum_above_gram_cap_rejected(self):
        # 4097 points: refused before the m^2 difference rows are formed
        with pytest.raises(es.DomainError):
            es.unimodular_conjugation_check(
                unit_box(), es.Identity(1), [[1.0]], 2048, es.gauss(16)
            )

    def test_self_similar_tables_take_the_product_formula(self, monkeypatch):
        # both tables run as gram runs them: -x on the Cantor measure is
        # self-similar too, so each takes the gated product formula
        calls = []
        real = es.measures.selfsimilar_moments
        monkeypatch.setattr(
            es.measures, "selfsimilar_moments", lambda *args: calls.append(args) or real(*args)
        )
        dev = es.unimodular_conjugation_check(
            es.middle_fourth_cantor(), es.Identity(1), [[-1.0]], 8, es.digit(40)
        )
        assert len(calls) == 2 and dev <= 1e-14

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
