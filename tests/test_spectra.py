import numpy as np
import pytest
from numpy.testing import assert_allclose

import expsys as es
from expsys.errors import DomainError
from expsys.spectra import MAX_DENSITY_WORK


class TestLattice:
    def test_integers_radius_two(self):
        pts = es.lattice([[1.0]], 2).points[:, 0]
        assert_allclose(np.sort(pts), [-2, -1, 0, 1, 2])

    def test_even_integers_radius_three(self):
        pts = es.lattice([[2.0]], 3).points[:, 0]
        assert_allclose(np.sort(pts), [-2, 0, 2])

    def test_rotated_scaled_count_matches_bruteforce(self):
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        A = np.array([[c, -s], [s, c]]) / np.sqrt(np.pi)
        spec = es.lattice(A, 1.0)
        brute = 0
        for i in range(-10, 11):
            for j in range(-10, 11):
                p = A @ np.array([i, j])
                if np.max(np.abs(p)) <= 1.0 + 1e-9:
                    brute += 1
        assert spec.size == brute

    def test_symmetric(self):
        spec = es.lattice([[1.0, 0.3], [0.0, 0.8]], 2.5)
        pts = set(map(tuple, np.round(spec.points, 9)))
        for p in pts:
            assert tuple(-np.asarray(p)) in pts

    def test_singular_rejected(self):
        with pytest.raises(DomainError):
            es.lattice([[1.0, 1.0], [1.0, 1.0]], 2)

    @pytest.mark.parametrize(
        "A, radius",
        [("x", 2), ([[np.nan]], 2), ([[1.0, 2.0], [3.0]], 2), ([[1.0]], np.inf), ([[1.0]], [1, 2])],
    )
    def test_bad_input_rejected(self, A, radius):
        with pytest.raises(DomainError):
            es.lattice(A, radius)

    def test_oversized_box_refused_before_allocation(self):
        with pytest.raises(DomainError, match="coordinate box"):
            es.lattice([[1.0]], 1e9)
        # 1025^2 = 1,050,625 coordinates: just above the limit
        with pytest.raises(DomainError, match="coordinate box"):
            es.lattice(np.eye(2), 512)
        assert es.lattice(np.eye(2), 64).size == 129**2  # the density-z2 preset


class TestDualLattice:
    def test_identity(self):
        assert_allclose(es.dual_lattice(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert_allclose(es.dual_lattice(np.diag([2.0, 1.0])), np.diag([0.5, 1.0]))

    def test_defining_property(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            A = rng.normal(size=(3, 3)) + 3 * np.eye(3)
            D = es.dual_lattice(A)
            pairing = D.T @ A
            assert np.max(np.abs(pairing - np.round(pairing))) <= 1e-12


class TestLambda4:
    def test_level_one(self):
        assert_allclose(np.sort(es.lambda4(1).points[:, 0]), [0, 1])

    def test_level_two(self):
        assert_allclose(np.sort(es.lambda4(2).points[:, 0]), [0, 1, 4, 5])

    def test_level_three_max(self):
        pts = es.lambda4(3).points[:, 0]
        assert pts.size == 8
        assert pts.max() == 21  # (4^3 - 1) / 3

    def test_nesting_and_doubling(self):
        for n in range(1, 8):
            a = set(es.lambda4(n).points[:, 0].astype(int))
            b = set(es.lambda4(n + 1).points[:, 0].astype(int))
            assert a < b
            assert len(b) == 2 * len(a)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            es.lambda4(0)
        with pytest.raises(ValueError):
            es.lambda4(17)


class TestBeurlingDensity:
    def test_integer_lattice_one_dim(self):
        spec = es.lattice([[1.0]], 8)
        rep = es.beurling_density(spec, [10, 20, 40], centers_box=([-3.0], [3.0]))
        for R, dp, dm in zip(rep.windows, rep.d_plus, rep.d_minus):
            assert abs(dp - 1.0) <= 2.0 / R
            assert abs(dm - 1.0) <= 2.0 / R

    def test_even_integers_half_density(self):
        spec = es.lattice([[2.0]], 8)
        rep = es.beurling_density(spec, [10, 20, 40], centers_box=([-3.0], [3.0]))
        for R, dp, dm in zip(rep.windows, rep.d_plus, rep.d_minus):
            assert abs(dp - 0.5) <= 2.0 / R
            assert abs(dm - 0.5) <= 2.0 / R

    def test_lambda4_window_counts_and_decay(self):
        spec = es.lambda4(8)
        for n in range(1, 9):
            assert es.window_count(spec, [0.0], [float(4**n)]) == 2**n
        rep = es.beurling_density(
            spec, [4.0, 16.0, 64.0, 256.0], centers_box=([0.0], [1.0])
        )
        assert all(b < a for a, b in zip(rep.d_plus, rep.d_plus[1:]))
        assert rep.verdict == "decreasing"

    def test_lattice_density_converges_to_inverse_det(self):
        A = np.diag([1.0, 0.5])
        spec = es.lattice(A, 40)
        rep = es.beurling_density(
            spec, [5.0, 10.0, 20.0], centers_box=([-2.0, -2.0], [2.0, 2.0]),
            n_centers=200,
        )
        target = 1.0 / abs(np.linalg.det(A))
        d = 2
        for R, dp, dm in zip(rep.windows, rep.d_plus, rep.d_minus):
            bound = target * (2 * d / R + (d / R) ** 2) + 1e-9
            assert abs(dp - target) <= bound
            assert abs(dm - target) <= bound

    def test_oversized_window_refused_before_enumeration(self):
        # 10^10 lattice points and 2^30 lambda4 points
        with pytest.raises(DomainError):
            es.window_count(es.lattice(np.eye(2), 4), [-5e4, -5e4], [5e4, 5e4])
        with pytest.raises(DomainError):
            es.window_count(es.lambda4(8), [0.0], [1e18])
        # the largest lambda4 window still enumerated: 2^20 points below 4^20
        assert es.window_count(es.lambda4(8), [0.0], [float(4**20)]) == 2**20

    @pytest.mark.parametrize("side", [np.nan, 0.0, -5.0, np.inf])
    def test_bad_window_sides_rejected(self, side):
        with pytest.raises(DomainError):
            es.beurling_density(es.lattice(np.eye(2), 8), [10.0, side])

    def test_bad_centers_rejected(self):
        spec = es.lattice(np.eye(2), 8)
        with pytest.raises(DomainError):
            es.beurling_density(spec, [4.0], n_centers=0)
        with pytest.raises(DomainError):
            es.beurling_density(spec, [4.0], centers_box=("a", [1.0, 1.0]))
        with pytest.raises(DomainError):
            es.window_count(spec, [np.nan, 0.0], [1.0, 1.0])

    def test_total_work_bound(self):
        # one 1000-side window is ~10^6 points: 1001 or 101 centres are refused
        # before any window is counted
        spec = es.lattice(np.eye(2), 8)
        with pytest.raises(DomainError, match="enumerate"):
            es.beurling_density(spec, [1000.0])
        with pytest.raises(DomainError, match="enumerate"):
            es.beurling_density(spec, [4.0, 1000.0], n_centers=100)
        # lambda4 work grows with the window's top end
        with pytest.raises(DomainError, match="enumerate"):
            es.beurling_density(es.lambda4(8), [4.0**19], centers_box=([0.0], [4.0**19]))
        assert MAX_DENSITY_WORK == 1 << 26

    def test_explicit_window_guard(self):
        spec = es.explicit([[-1.0], [0.0], [1.0]])
        object.__setattr__(spec, "truncation", 1.0)
        with pytest.raises(DomainError):
            es.window_count(spec, [-50.0], [50.0])


class TestSpectrumSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            es.explicit([[0.0], [0.0]])

    def test_explicit_shapes(self):
        assert es.explicit([1.0, 2.0, 3.0]).points.shape == (3, 1)
        assert es.explicit(2.0).points.shape == (1, 1)
        # a single d-row is one d-dimensional point, not d scalars
        assert es.explicit([[1.0, 2.0]]).points.tolist() == [[1.0, 2.0]]
        assert es.explicit([[0.0, 0.0]]).dim == 2

    @pytest.mark.parametrize(
        "points", ["abc", [[1, 2], [3]], [[0.0], [np.nan]], [[np.inf, 0.0]], [], [[]]]
    )
    def test_non_finite_or_ill_typed_points_rejected(self, points):
        with pytest.raises(DomainError):
            es.explicit(points)
        with pytest.raises(DomainError):
            es.SpectrumSet(points)

    def test_lattice_contains_zero(self):
        assert np.any(np.all(es.lattice(np.eye(2), 3).points == 0.0, axis=1))
