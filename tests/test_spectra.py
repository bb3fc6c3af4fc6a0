import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import expsys as es
import expsys.spectra as spectra
from expsys.errors import DomainError
from expsys.seeding import spawn_rng
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


class TestGenerator:
    @pytest.mark.parametrize(
        "A, d",
        [
            ("x", None),
            ([[np.nan]], None),
            ([[True]], None),
            ([[1.0, 2.0]], None),
            ([[[1.0]]], None),
            ([], None),
            ([[1.0]], 2),
            ([[1e-8, 0.0], [0.0, 1e-8]], None),
        ],
        ids=["string", "nan", "bool", "not-square", "3-d", "empty", "wrong-d", "singular"],
    )
    def test_refuses_a_bad_generator(self, A, d):
        with pytest.raises(DomainError):
            spectra.generator(A, d)

    def test_returns_the_matrix_and_its_inverse(self):
        A, A_inv = spectra.generator([[2.0, 1.0], [0.0, 1.0]], 2)
        assert A.dtype == float and A.shape == (2, 2)
        assert_allclose(A @ A_inv, np.eye(2), atol=1e-15)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4),
        st.floats(0.5, 2.0),
        st.floats(0.0, 4.0),
    )
    def test_lattice_matches_a_brute_force_box(self, entries, scale, radius):
        A = scale * (np.eye(2) + np.reshape(entries, (2, 2)))
        assume(abs(np.linalg.det(A)) > 0.05)
        # every point with sup-norm <= radius has coordinates inside the brute-force box
        assume(np.abs(np.linalg.inv(A)).sum(axis=1).max() * (radius + 1) < 200)
        k = np.stack(np.meshgrid(*[np.arange(-200, 201)] * 2, indexing="ij"), -1).reshape(-1, 2)
        pts = k @ A.T
        expected = pts[np.max(np.abs(pts), axis=1) <= radius + 1e-9]
        got = es.lattice(A, radius).points
        assert got.shape == expected.shape
        assert_allclose(got, expected[np.lexsort(expected.T[::-1])])


class TestDualLattice:
    def test_non_finite_generator_refused(self):
        with pytest.raises(DomainError, match="finite"):
            es.dual_lattice([[np.nan]])

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

    def test_numeric_string_sides_are_read_as_numbers(self):
        spec = es.integer_lattice(1, 50)
        rep = es.beurling_density(spec, ["2", "4"])
        assert rep.windows == [2.0, 4.0]
        assert rep == es.beurling_density(spec, [2.0, 4.0])

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

    def test_windows_enumerated_once_not_per_centre(self, monkeypatch):
        def per_centre(*args):
            raise AssertionError("beurling_density counted a centre through window_count")

        monkeypatch.setattr(spectra, "window_count", per_centre)
        rep = es.beurling_density(es.lattice(np.eye(2), 8), [10.0, 20.0, 40.0], seed=1)
        assert rep.n_centers == 1001
        assert rep.d_minus[-1] <= 1.0 <= rep.d_plus[-1]

    def test_infinite_enumeration_refused_without_warning(self):
        # (2e300)^2 coordinates: sized in Python floats, so inf and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                es.window_count(es.lattice(np.eye(2), 4), [-1e300] * 2, [1e300] * 2)


_CENTRES_EXTENT = 10.0
_MAX_SIDE = 20.0


def _oracle_counts(points, centres, R):
    """Points in each centre's half-open window x + [-R/2, R/2)^d, one centre at a time."""
    return np.array([
        np.count_nonzero(np.all(
            (points >= x - R / 2.0 - 1e-12) & (points < x + R / 2.0 - 1e-12), axis=1
        ))
        for x in centres
    ])


@st.composite
def _density_case(draw):
    """(spectrum, oracle points covering every window, centres_box, n_centers, seed, windows)."""
    kind = draw(st.sampled_from(["lattice-1d", "lattice-2d", "lambda4"]))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    reach = _CENTRES_EXTENT + _MAX_SIDE / 2
    if kind == "lambda4":
        spec = es.lambda4(8)
        # the full four-adic set below 4^11 > reach
        vals = np.array([sum(4**i for i in range(11) if k >> i & 1) for k in range(2**11)])
        points = vals.astype(float)[:, None]
    else:
        d = 1 if kind == "lattice-1d" else 2
        A = 2.0 * np.eye(d) + np.array([[draw(unit) for _ in range(d)] for _ in range(d)])
        assume(np.linalg.cond(A) < 20.0)
        spec = es.lattice(A, 2.0)
        # a generous integer box: |k|_inf <= ||A^-1||_inf * reach, plus a margin
        b = int(np.ceil(np.abs(np.linalg.inv(A)).sum(axis=1).max() * reach)) + 2
        K = np.stack(np.meshgrid(*[np.arange(-b, b + 1)] * d, indexing="ij"), -1).reshape(-1, d)
        points = K @ A.T
    d = spec.dim
    corner = st.floats(-_CENTRES_EXTENT, _CENTRES_EXTENT, allow_nan=False)
    lo = np.array([draw(corner) for _ in range(d)])
    hi = np.array([draw(corner) for _ in range(d)])
    windows = draw(st.lists(st.floats(0.5, _MAX_SIDE), min_size=1, max_size=3))
    n_centers = draw(st.integers(1, 49))
    seed = draw(st.integers(0, 2**16))
    return spec, points, (np.minimum(lo, hi), np.maximum(lo, hi)), n_centers, seed, windows


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=_density_case())
def test_density_counts_match_brute_force_oracle(case):
    spec, points, (clo, chi), n_centers, seed, windows = case
    d = spec.dim
    rep = es.beurling_density(spec, windows, centers_box=(clo, chi), n_centers=n_centers, seed=seed)
    # the documented centres: the origin, then n_centers uniform draws from the box
    rng = spawn_rng(seed, "beurling-centers")
    centres = np.vstack([np.zeros(d), clo + rng.random((n_centers, d)) * (chi - clo)])
    assert rep.n_centers == centres.shape[0]
    for R, dp, dm in zip(windows, rep.d_plus, rep.d_minus):
        counts = _oracle_counts(points, centres, R)
        assert [es.window_count(spec, x - R / 2.0, x + R / 2.0) for x in centres] == counts.tolist()
        assert (dp, dm) == (float((counts / R**d).max()), float((counts / R**d).min()))


class TestSpectrumSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            es.explicit([[0.0], [0.0]])

    def test_points_beyond_rounding_range_stay_distinct(self):
        # doubles above 2^52 are integers and skip the 12-digit rounding,
        # which would overflow to inf above ~1.8e296
        assert es.explicit([[1e300], [1.5e300]]).size == 2

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


def test_integer_lattice_dimension_is_bounded_before_its_generator_is_built():
    # np.eye(10^12) made numpy raise MemoryError; every dimension above the
    # bound has a coordinate box of at least 3^d > MAX_LATTICE_BOX points
    assert 3**spectra.MAX_LATTICE_DIM <= spectra.MAX_LATTICE_BOX < 3 ** (spectra.MAX_LATTICE_DIM + 1)
    for d in (spectra.MAX_LATTICE_DIM + 1, 10**12):
        with pytest.raises(DomainError, match=r"lattice dim must be in \[1, 12\]"):
            es.integer_lattice(d, 0)


def test_lattice_box_size_is_checked_before_anything_the_size_of_the_box_is_built():
    # the box's 2^18 corners and their preimages (72 MiB) were built before the check
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="lattice coordinate box above"):
            es.lattice(np.eye(18), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("A", [np.eye(2), [[2.0, 1.0], [-1.0, 3.0]], [[0.3, -1.7], [2.2, 0.4]]])
def test_lattice_box_covers_the_preimage_of_every_corner(A):
    A, A_inv = spectra.generator(A)
    lo, hi = np.array([-2.5, -1.0]), np.array([3.0, 4.5])
    size, build = spectra._lattice_box(A, A_inv, lo, hi)
    k = np.rint(build() @ A_inv.T)
    corners = np.array([[x, y] for x in (lo[0], hi[0]) for y in (lo[1], hi[1])]) @ A_inv.T
    assert size == len(k)
    assert np.all(k.min(axis=0) == np.floor(corners.min(axis=0)) - 1)
    assert np.all(k.max(axis=0) == np.ceil(corners.max(axis=0)) + 1)
