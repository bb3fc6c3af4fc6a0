import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import expsys as es
from expsys import phases
from expsys.cli import run
from expsys.errors import DomainError, InversionError
from expsys.phases import _guide, _lookup, _MonotoneAntiderivative


class TestEval:
    def test_identity(self):
        phi = es.Identity(2)
        assert_allclose(phi(np.array([0.3, 0.7])), [0.3, 0.7])

    def test_holhos_positive_axis(self):
        # (r, 0) maps to (r sqrt(pi/2), 0): arcsin(1) = pi/2 and sgn(0) = 0
        phi = es.Holhos()
        for r in (0.1, 0.5, 1.0):
            out = phi(np.array([r, 0.0]))
            assert_allclose(out, [r * math.sqrt(math.pi / 2), 0.0], atol=1e-15)

    def test_holhos_origin(self):
        assert_allclose(es.Holhos()(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_digit_map_at_half(self):
        # 0.5 = (0.0111...)_2 non-terminating; expected sum_{i>=2} 2/4^i = 1/6
        phi = es.binary_to_quaternary(depth=40)
        val = phi(np.array([0.5]))[0]
        assert_allclose(val, 1.0 / 6.0, atol=4.0**-40)
        geometric = sum(2.0 / 4**i for i in range(2, 41))
        assert_allclose(val, geometric, atol=1e-15)

    def test_digit_map_endpoints(self):
        phi = es.binary_to_quaternary(depth=40)
        assert phi(np.array([0.0]))[0] == 0.0
        assert_allclose(phi(np.array([1.0]))[0], 2.0 / 3.0, atol=1e-12)

    def test_digit_map_requires_unit_interval(self):
        with pytest.raises(DomainError):
            es.binary_to_quaternary()(np.array([1.5]))

    def test_holhos_requires_disc(self):
        with pytest.raises(DomainError):
            es.Holhos()(np.array([1.2, 0.9]))

    def test_triangular_positivity_checked(self):
        phi = es.Triangular2D(z=lambda t: t, f=lambda t: np.zeros_like(t))
        with pytest.raises(DomainError):
            phi(np.array([[0.5, -1.0]]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: es.Unipotent((lambda p: p[:, 1],), dim=2.5),
            lambda: es.Unipotent((), dim=0),
            lambda: es.Unipotent((), dim="1"),
            lambda: es.CustomPhase(lambda p: p, 1.7, 1.2),
            lambda: es.CustomPhase(lambda p: p, 0, 0),
            lambda: es.CustomPhase(lambda p: p, 2, True),
        ],
        ids=[
            "unipotent-2.5", "unipotent-0", "unipotent-str", "custom-1.7", "custom-0", "custom-bool",
        ],
    )
    def test_phase_dims_must_be_positive_integers(self, build):
        with pytest.raises(DomainError):
            build()

    def test_custom_phase_output_must_match_its_dim(self):
        phi = es.CustomPhase(lambda p: p[:, 0] ** 2, 1, 2)
        with pytest.raises(DomainError, match="expected"):
            phi(np.zeros((3, 1)))

    def test_linear_parts(self):
        M = np.array([[2.0, 1.0], [0.5, -1.0], [0.0, 3.0]])
        cols, C = es.Affine(M, [1.0, 2.0, 3.0]).linear_part()
        assert cols == (0, 1) and np.array_equal(C, M)
        cols, C = es.Identity(3).linear_part()
        assert cols == (0, 1, 2) and np.array_equal(C, np.eye(3))
        shear = es.Unipotent((lambda p: np.sin(p[:, 1]), lambda p: p[:, 2] ** 2), dim=3)
        cols, C = shear.linear_part()
        assert cols == (0,) and np.array_equal(C, [[1.0], [0.0], [0.0]])
        # phi(x + t e_1) = phi(x) + t C[:, 0]
        x = np.array([[0.3, -0.7, 1.1]])
        assert_allclose(shear(x + [[0.25, 0.0, 0.0]]) - shear(x), 0.25 * C.T, atol=1e-15)
        for phi in (
            es.Triangular2D(z=np.exp),
            es.Holhos(),
            es.binary_to_quaternary(),
            es.CustomPhase(lambda p: p, 1, 1),
            es.compose(shear, es.Affine(np.eye(3), [1.0, 0.0, 0.0])),
        ):
            assert phi.linear_part() is None


class TestJacobian:
    def test_unipotent_sin_shear_entries(self):
        # exact unit diagonal and zero below it; the upper entry is a central
        # difference with step 1e-5, whose truncation error is at most
        # (2 pi)^3 (1e-5)^2 / 6 = 4.1e-9 for sin 2 pi x2
        phi = es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2)
        J = phi.jacobian_batch(np.array([[0.3, 0.64]]))[0]
        assert J[0, 0] == 1.0 and J[1, 1] == 1.0 and J[1, 0] == 0.0
        assert abs(J[0, 1] - 2 * np.pi * np.cos(2 * np.pi * 0.64)) <= 5e-9

    def test_unipotent_unit_upper_triangular_structure(self):
        # diagonal exactly 1, below exactly 0, at every point: det == 1 identically
        rng = np.random.default_rng(0)
        phi = es.Unipotent(
            shifts=(
                lambda p: np.cos(p[:, 1] * p[:, 2]),
                lambda p: p[:, 2] ** 3,
            ),
            dim=3,
        )
        J = phi.jacobian_batch(rng.random((50, 3)))
        assert np.all(J[:, np.arange(3), np.arange(3)] == 1.0)
        for i in range(3):
            for j in range(i):
                assert np.all(J[:, i, j] == 0.0)

    def test_triangular_det_one(self):
        # z * (1/z) cancels analytically
        phi = es.Triangular2D(
            z=lambda t: np.exp(t),
            f=lambda t: np.zeros_like(t),
        )
        rng = np.random.default_rng(1)
        J = phi.jacobian_batch(rng.random((200, 2)))
        dets = np.linalg.det(J)
        assert np.max(np.abs(dets - 1.0)) <= 1e-14

    def test_holhos_finite_difference_det(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.7, 0.7, size=(40_000, 2))
        keep = (
            (np.abs(pts[:, 0]) >= 0.05)
            & (np.abs(pts[:, 1]) >= 0.05)
            & (np.hypot(pts[:, 0], pts[:, 1]) <= 0.95)
        )
        pts = pts[keep][:10_000]
        J = es.Holhos().jacobian_batch(pts)
        dets = np.abs(np.linalg.det(J))
        assert np.max(np.abs(dets - 1.0)) <= 1e-6

    def test_digit_map_not_differentiable(self):
        with pytest.raises(DomainError):
            es.binary_to_quaternary().jacobian_batch(np.array([[0.3]]))

    def test_group_exp_jacobian_matches_fd(self):
        from expsys.repdisc import phase_from_group, shearlet_group

        phi = phase_from_group(shearlet_group())
        pts = np.array([[0.2, -0.4], [1.1, 0.3]])
        J = phi.jacobian_batch(pts)
        Jfd = es.PhaseMap.jacobian_batch(phi, pts)
        assert_allclose(J, Jfd, atol=1e-8)


class TestTriangularStructure:
    def test_second_component_ignores_x1(self):
        phi = es.Triangular2D(z=lambda t: 1.0 + t**2, f=lambda t: np.sin(t))
        x2 = np.full(11, 0.37)
        x1 = np.linspace(-3, 3, 11)
        out = phi(np.stack([x1, x2], axis=-1))
        assert np.max(np.abs(out[:, 1] - out[0, 1])) == 0.0

    def test_antiderivative_constant_z(self):
        phi = es.Triangular2D(z=lambda t: np.ones_like(t), K=2.5)
        x2 = np.linspace(-1.0, 3.0, 17)
        out = phi(np.stack([np.zeros_like(x2), x2], axis=-1))
        assert_allclose(out[:, 1], x2 - 1.0 + 2.5, atol=1e-10)

    def test_antiderivative_exponential_z(self):
        K = 0.6
        phi = es.Triangular2D(z=lambda t: np.exp(t), K=K)
        x2 = np.linspace(-0.5, 2.0, 13)
        out = phi(np.stack([np.zeros_like(x2), x2], axis=-1))
        assert_allclose(out[:, 1], np.exp(-1.0) - np.exp(-x2) + K, atol=1e-10)

    def test_inverse_roundtrip(self):
        phi = es.Triangular2D(z=lambda t: np.exp(t), f=lambda t: np.cos(t), K=0.3)
        rng = np.random.default_rng(3)
        pts = rng.random((500, 2))
        y = phi(pts)
        back, ok = phi.invert(y)
        assert np.all(ok)
        assert_allclose(back, pts, atol=1e-9)

    def test_inverse_roundtrip_over_wide_dynamic_range(self):
        # F reaches about -4.9e8 at x2 = -20; summed from the left end, the
        # knot values near t = 1 lost about eps e^{32} to cancellation
        phi = es.Triangular2D(z=np.exp)
        rng = np.random.default_rng(11)
        pts = np.stack([rng.random(2000), rng.uniform(-20.0, 4.0, 2000)], axis=-1)
        back, ok = phi.invert(phi(pts))
        assert np.all(ok)
        assert_allclose(back, pts, rtol=0, atol=1e-12)

    def test_z_needs_positivity_only_where_queried(self):
        # z = t + 0.5 and sqrt t are positive on [0.3, 1] but not everywhere
        x2 = np.array([0.3, 0.99])
        shifted = es.Triangular2D(z=lambda t: t + 0.5)
        assert_allclose(
            shifted.second_component(x2), np.log((x2 + 0.5) / 1.5), rtol=1e-13, atol=0
        )
        root = es.Triangular2D(z=np.sqrt)
        assert_allclose(
            root.second_component(np.array([0.3])), [2 * (np.sqrt(0.3) - 1)], rtol=1e-13
        )

    def test_unipotent_inverse_roundtrip(self):
        phi = es.Unipotent(
            shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2
        )
        rng = np.random.default_rng(4)
        pts = rng.random((100, 2))
        back, ok = phi.invert(phi(pts))
        assert np.all(ok)
        assert_allclose(back, pts, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_unipotent_box_hint_keeps_the_inside_mask(self, d, seed):
        # random shears; translates by the integer vectors of [-1, 1]^d of
        # the image of the box, whose rows land in it or not
        rng = np.random.default_rng(seed)
        amp, freq, phase = rng.uniform(-1.5, 1.5, (3, d, d))
        shifts = [
            (lambda p, k=k: sum(amp[k, j] * np.sin(freq[k, j] * p[:, j] + phase[k, j])
                                for j in range(k + 1, d)))
            for k in range(d - 1)
        ]
        phi = es.Unipotent(shifts, d)
        lo, hi = np.zeros(d), np.ones(d)
        box = (lo - 1e-12, hi - 1e-12)
        pts = rng.random((2000, d))
        for k in np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d), axis=-1).reshape(-1, d):
            y = phi(pts) + k
            x, ok = phi.invert(y)
            x_box, ok_box = phi.invert(y, box)
            np.testing.assert_array_equal(ok_box, ok)
            inside = es.measures._in_box(x, *box)
            np.testing.assert_array_equal(es.measures._in_box(x_box, *box), inside)
            assert_allclose(x_box[inside], x[inside], rtol=0, atol=1e-15)


def _gauss_from_knot(anti, t):
    """Per-point oracle: F at the knot below t plus a 16-node Gauss panel up to t."""
    knots, cum = anti._grid[:2]
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    base = knots[idx]
    x, wq = np.polynomial.legendre.leggauss(16)
    half = 0.5 * (t - base)
    nodes = (0.5 * (base + t))[..., None] + half[..., None] * x
    return cum[idx] + half * (anti.w(nodes) @ wq)


def _gauss_inverse(anti, v):
    """Per-point oracle of `inverse` on the grid the last call left behind."""
    knots, cum = anti._grid[:2]
    eps_lo = 1e-9 * (1.0 + abs(cum[0]))
    eps_hi = 1e-9 * (1.0 + abs(cum[-1]))
    ok = (v >= cum[0] - eps_lo) & (v <= cum[-1] + eps_hi)
    safe_v = np.clip(v, cum[0], cum[-1])
    j = np.clip(np.searchsorted(cum, safe_v), 1, len(knots) - 1)
    t = np.interp(safe_v, cum, knots)
    for _ in range(anti._NEWTON_STEPS):
        step = (_gauss_from_knot(anti, t) - safe_v) / anti.w(t)
        t = np.clip(t - np.where(np.isfinite(step), step, 0.0), knots[j - 1], knots[j])
    return t, ok


_WEIGHTS = {
    "exp": lambda t: np.exp(-t),
    "oscillating": lambda t: 1.0 / (1.5 + np.sin(20 * t)),
    "saturating": lambda t: 1.0 / (1.0 + t**2),
}


class TestMonotoneAntiderivative:
    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    def test_matches_per_point_gauss(self, name):
        anti = _MonotoneAntiderivative(_WEIGHTS[name])
        first = np.linspace(0.0, 2.0, 101)
        assert_allclose(anti(first), _gauss_from_knot(anti, first), rtol=0, atol=1e-12)
        wide = np.linspace(-3.0, 6.0, 401)  # beyond the first grid: rebuilt
        assert anti._grid[0][0] > -3.0
        F = anti(wide)
        assert anti._grid[0][0] <= -3.0
        assert_allclose(F, _gauss_from_knot(anti, wide), rtol=0, atol=1e-12)
        # 50 past either end: reachable by growing the grid unless F saturates
        v = np.concatenate([F, [F[0] - 50.0, F[-1] + 50.0]])
        t, ok = anti.inverse(v)
        t_ref, ok_ref = _gauss_inverse(anti, v)
        np.testing.assert_array_equal(ok, ok_ref)
        assert_allclose(t, t_ref, rtol=0, atol=1e-12)
        assert_allclose(t[:-2], wide, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("lo", [-20.0, -30.0, -60.0])
    def test_refinement_is_relative_to_each_panel(self, lo):
        # w = e^{-t} spans e^{60}: an absolute panel tolerance bisects
        # rounding there (176,043 knots at -60), a relative one does not
        anti = _MonotoneAntiderivative(_WEIGHTS["exp"])
        t = np.linspace(lo, 4.0, 2001)
        F = anti(t)
        assert len(anti._grid[0]) <= 1000
        exact = np.exp(-1.0) - np.exp(-t)
        assert np.all(np.abs(F - exact) <= 1e-12 * (1.0 + np.abs(exact)))

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    def test_values_do_not_depend_on_query_history(self, name):
        t = np.linspace(0.0, 1.0, 101)
        grown = _MonotoneAntiderivative(_WEIGHTS[name])
        grown(np.linspace(0.5, 1.0, 11))
        fresh = _MonotoneAntiderivative(_WEIGHTS[name])
        F = grown(t)
        np.testing.assert_array_equal(F, fresh(t))
        np.testing.assert_array_equal(grown.inverse(F)[0], fresh.inverse(F)[0])

    def test_inverse_grows_past_slow_early_growth(self):
        # F(t) = e^{-1} - e^{-t}: the first spans gain little of the gap to
        # -1e6, but F has not saturated, so the grid keeps growing
        anti = _MonotoneAntiderivative(_WEIGHTS["exp"])
        t, ok = anti.inverse(np.array([-1e6]))
        assert ok[0]
        assert abs(t[0] + np.log(1e6 + np.exp(-1.0))) <= 1e-12

    def test_saturated_side_is_final_and_not_rebuilt(self):
        # F saturates at e^{-1} < 0.5 on the right: no preimage, and once the
        # grid has grown to saturation a repeat query builds nothing
        anti = _MonotoneAntiderivative(_WEIGHTS["exp"])
        builds = []
        real = anti._build
        anti._build = lambda lo, hi: builds.append((lo, hi)) or real(lo, hi)
        assert not anti.inverse(np.array([0.5]))[1][0]
        first = len(builds)
        assert not anti.inverse(np.array([0.5]))[1][0]
        assert len(builds) == first

    def test_nonpositive_weight_raises(self):
        with pytest.raises(DomainError):
            _MonotoneAntiderivative(np.cos)(np.array([0.0, 5.0]))
        with pytest.raises(DomainError):
            _MonotoneAntiderivative(np.cos).inverse(np.array([0.0]))
        # z > 0 at both queried points, z < 0 between them
        phi = es.Triangular2D(z=lambda t: np.abs(t - 1.0) - 0.1)
        with pytest.raises(DomainError):
            phi(np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_nonfinite_query_raises(self):
        with pytest.raises(DomainError):
            _MonotoneAntiderivative(_WEIGHTS["exp"])(np.array([0.0, np.inf]))
        with pytest.raises(DomainError):
            _MonotoneAntiderivative(_WEIGHTS["exp"])(np.array([np.nan]))

    def test_empty_input(self):
        phi = es.Triangular2D(z=lambda t: np.exp(t))
        assert phi(np.empty((0, 2))).shape == (0, 2)
        back, ok = phi.invert(np.empty((0, 2)))
        assert back.shape == (0, 2) and ok.shape == (0,)

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    @pytest.mark.parametrize(
        "window",
        [(-1e-12, 1.0 - 1e-12), (0.3, 0.3), (-2.5, -2.0), (-1e3, 1e3), (1e3, 2e3), (-2e3, -1e3)],
        ids=["unit", "point", "left", "all", "past-right", "past-left"],
    )
    def test_window_refines_only_rows_that_can_land_in_it(self, name, window):
        anti = _MonotoneAntiderivative(_WEIGHTS[name])
        F = anti(np.linspace(-3.0, 4.0, 701))
        # the knot values themselves, and values with no preimage on a
        # saturating side
        v = np.concatenate([F, anti._grid[1], [F[0] - 50.0, F[-1] + 50.0]])
        t, ok = anti.inverse(v)
        t_win, ok_win = anti.inverse(v, window)
        np.testing.assert_array_equal(ok_win, ok)
        knots, cum = anti._grid[:2]
        lo, hi = window
        j = np.clip(np.searchsorted(cum, np.clip(v, cum[0], cum[-1])), 1, len(knots) - 1)
        meets = ok & (knots[j] >= lo) & (knots[j - 1] <= hi)
        np.testing.assert_array_equal(t_win[meets], t[meets])
        # every other row with a preimage comes back at a knot between its
        # answer and the window, so a box test on it fails as on the answer
        skipped = ok & ~meets
        assert np.all(np.isin(t_win[skipped], knots))
        left = skipped & (t_win < lo)
        assert np.all(t[left] <= t_win[left])
        right = skipped & ~left
        assert np.all((hi < t_win[right]) & (t_win[right] <= t[right]))

    def test_counterexample_exp_refines_rows_its_box_can_hold(self, monkeypatch, tmp_path):
        # 24 translates of 200,000 points and the centre probe: only the
        # probe and the four k2 = 0 translates can land in the unit box
        newton_points, building = [], []
        init, series = _MonotoneAntiderivative.__init__, _MonotoneAntiderivative._series

        def spied_series(self, a, b):
            building.append(True)
            try:
                return series(self, a, b)
            finally:
                building.pop()

        def spied_init(self, w):
            def counted(t):
                if not building:  # a Newton step, not a grid build
                    newton_points.append(np.size(t))
                return w(t)

            init(self, counted)

        monkeypatch.setattr(_MonotoneAntiderivative, "__init__", spied_init)
        monkeypatch.setattr(_MonotoneAntiderivative, "_series", spied_series)
        out = tmp_path / "report.json"
        code = run(["tiling-check", "--preset", "counterexample-exp", "--out", str(out)])
        assert code == 1
        steps = _MonotoneAntiderivative._NEWTON_STEPS
        assert sum(newton_points) == steps * 800_001

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    def test_inverse_roundtrip_property(self, name, fractions):
        anti = _MonotoneAntiderivative(_WEIGHTS[name])
        lo, hi = anti(np.array([-4.0, 4.0]))
        v = lo + (hi - lo) * np.array(fractions)
        t, ok = anti.inverse(v)
        assert np.all(ok)
        assert_allclose(anti(t), v, rtol=0, atol=1e-12)


def _head_at(t, a, b, base, coef):
    """The Clenshaw sum as the allocating loop wrote it before its in-place form."""
    s = (2.0 * t - a - b) / (b - a)
    b1 = b2 = 0.0
    for row in coef[:0:-1]:
        b1, b2 = row + 2.0 * s * b1 - b2, b1
    return base + (coef[0] + s * b1 - b2)


def _head_call(anti, t):
    """F(t) from `searchsorted` and `_head_at` on the grid `anti` holds."""
    knots, cum, coef = anti._grid[:3]
    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    return _head_at(t, knots[idx], knots[idx + 1], cum[idx], coef[:, idx])


def _head_refine(anti, v):
    """`_refine` as the allocating Newton loop wrote it, on one block."""
    knots, cum, coef = anti._grid[:3]
    j = np.clip(np.searchsorted(cum, v), 1, len(knots) - 1)
    t = np.interp(v, cum, knots)
    t_lo, t_hi, base, c = knots[j - 1], knots[j], cum[j - 1], coef[:, j - 1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(anti._NEWTON_STEPS):
            step = (_head_at(t, t_lo, t_hi, base, c) - v) / anti.w(t)
            step = np.where(np.isfinite(step), step, 0.0)
            t = np.clip(t - step, t_lo, t_hi)
    return t


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@functools.lru_cache(maxsize=None)
def _grid_for(name, lo, hi):
    anti = _MonotoneAntiderivative(_WEIGHTS[name])
    anti(np.array([lo, hi]))
    return anti


_SPANS = [(0.0, 2.0), (-3.0, 4.0), (-60.0, 6.0)]


class TestKnotLookupAndInPlaceKernels:
    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    @pytest.mark.parametrize("span", _SPANS, ids=["first", "wide", "to-60"])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_lookup_is_clipped_searchsorted(self, name, span, data):
        knots = _grid_for(name, *span)._grid[0]
        at_knot = st.tuples(
            st.integers(0, len(knots) - 1), st.sampled_from([-1, 0, 1])
        ).map(lambda p: float(np.nextafter(knots[p[0]], p[1] * np.inf) if p[1] else knots[p[0]]))
        off_range = st.one_of(
            st.floats(-1e300, float(knots[0])), st.floats(float(knots[-1]), 1e300),
            st.sampled_from([-np.inf, np.inf]),
        )
        t = np.array(data.draw(st.lists(st.one_of(at_knot, off_range), min_size=1, max_size=64)))
        ref = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
        np.testing.assert_array_equal(_lookup(_guide(knots), t), ref)

    def test_lookup_on_ties_and_one_interval(self):
        for x in (np.array([0.0, 1.0]), np.array([-1.0, 0.0, 0.0, 0.0, 2.0, 2.0, 5.0])):
            t = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf), [-9.0, 9.0]])
            ref = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
            np.testing.assert_array_equal(_lookup(_guide(x), t), ref)

    @pytest.mark.parametrize("name", sorted(_WEIGHTS))
    @pytest.mark.parametrize("span", _SPANS, ids=["first", "wide", "to-60"])
    def test_in_place_kernels_keep_every_bit(self, name, span):
        anti = _grid_for(name, *span)
        knots, cum = anti._grid[:2]
        rng = np.random.default_rng(len(knots))
        t = np.concatenate([
            knots, np.nextafter(knots[1:], -np.inf), np.nextafter(knots[:-1], np.inf),
            0.5 * (knots[:-1] + knots[1:]), rng.uniform(*span, 9000),
        ])
        F = anti(t)  # several blocks, the last one short
        assert _same_bits(F, _head_call(anti, t))
        v = np.concatenate([F, cum, 0.5 * (cum[:-1] + cum[1:])])
        assert _same_bits(anti._refine(anti._grid, v), _head_refine(anti, v))
        t_inv, ok = anti.inverse(v)
        assert np.all(ok) and anti._grid[0] is knots
        assert _same_bits(t_inv, _head_refine(anti, np.clip(v, cum[0], cum[-1])))


class TestMeasurePreservation:
    def test_identity_exact(self):
        rep = es.measure_preservation_check(
            es.Identity(2), es.LebesgueBox([0, 0], [1, 1]), n=2000, tol=1e-6, seed=0
        )
        assert rep.max_dev == 0.0
        assert rep.passed

    def test_holhos_passes_off_axes(self):
        rep = es.measure_preservation_check(
            es.Holhos(),
            es.LebesgueDisc([0.0, 0.0], 1.0),
            n=10_000,
            tol=1e-6,
            seed=1,
            exclusion=es.axis_band_exclusion(0.05),
        )
        assert rep.passed, rep.max_dev
        assert 0 < rep.excluded_fraction < 0.3

    def test_affine_dilation_fails(self):
        rep = es.measure_preservation_check(
            es.Affine(np.diag([2.0, 1.0])),
            es.LebesgueBox([0, 0], [1, 1]),
            n=1000,
            tol=1e-6,
            seed=2,
        )
        assert not rep.passed
        assert_allclose(rep.max_dev, 1.0, atol=1e-12)


class TestInjectivityProbe:
    def test_square_phase_collides(self):
        # mirror pairs x, -x land together for almost every sample
        mu = es.LebesgueBox([-1.0], [1.0])
        phi = es.CustomPhase(lambda p: p[:, 0] ** 2, 1, 1)
        rep = es.essential_injectivity_probe(
            phi, mu, n=10_000, delta_x=0.1, delta_y=0.01, seed=0
        )
        assert rep.collision_fraction >= 0.5
        for a, b in rep.collisions:
            a = np.asarray(a)
            b = np.asarray(b)
            assert np.linalg.norm(a - b) > rep.delta_x
            assert abs(a[0] ** 2 - b[0] ** 2) < rep.delta_y

    def test_identity_clean(self):
        rep = es.essential_injectivity_probe(
            es.Identity(1), es.LebesgueBox([0.0], [1.0]),
            n=10_000, delta_x=0.1, delta_y=0.01, seed=0,
        )
        assert rep.collision_fraction == 0.0

    def test_digit_map_clean_and_monotone(self):
        mu = es.LebesgueBox([0.0], [1.0])
        phi = es.binary_to_quaternary(depth=30)
        rep = es.essential_injectivity_probe(phi, mu, n=10_000, seed=5)
        assert rep.collision_fraction == 0.0
        # sorted-sample monotonicity oracle
        pts = np.sort(es.sample(mu, 10**5, seed=6)[:, 0])
        img = phi(pts[:, None])[:, 0]
        assert np.all(np.diff(img) >= 0.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            es.essential_injectivity_probe(
                es.Identity(1), es.LebesgueBox([0.0], [1.0]), n=50
            )

    @pytest.mark.parametrize(
        "scales",
        [
            {"delta_y": 0.0},
            {"delta_y": -1.0},
            {"delta_x": -1.0},
            # finite positive reals only: inf made every pair a collision,
            # 10**400 overflowed float(), True read as 1.0, "0.1" a TypeError
            {"delta_y": np.inf},
            {"delta_x": np.inf},
            {"delta_y": np.nan},
            {"delta_y": 10**400},
            {"delta_y": True},
            {"delta_y": "0.1"},
        ],
    )
    def test_given_scales_must_be_positive(self, scales):
        with pytest.raises(DomainError):
            es.essential_injectivity_probe(
                es.Identity(1), es.LebesgueBox([0.0], [1.0]), n=1000, **scales
            )

    def test_constant_image_takes_the_scale_floor(self):
        # a zero-span image has no delta_y to derive: the probe floors it at 1e-12
        phi = es.CustomPhase(lambda p: np.zeros(p.shape[0]), 1, 1)
        rep = es.essential_injectivity_probe(phi, es.LebesgueBox([0.0], [1.0]), n=1000)
        assert rep.delta_y == 1e-12 and rep.collision_fraction == 1.0

    @given(
        d=st.integers(1, 3),
        n=st.integers(2, 300),
        cloud=st.sampled_from(["lattice", "uniform", "folded", "constant", "spread"]),
        delta_y=st.sampled_from([0.25, 0.1, 0.5, 1e-3]),
        delta_x=st.sampled_from([0.05, 0.5, 1.5]),
        block=st.sampled_from([1, 7, 1 << 18]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_grid_pairs_match_a_kd_tree(self, d, n, cloud, delta_y, delta_x, block, seed):
        # the cell grid against scipy's k-d tree, on clouds with duplicate
        # points, pairs exactly delta_y apart (the lattice at a power-of-two
        # delta_y), constant images and columns too wide for a full key
        from unittest import mock

        from scipy.spatial import cKDTree

        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (n, d))
        img = {
            "lattice": lambda: rng.integers(0, 4, (n, d)) * delta_y,
            "uniform": lambda: rng.uniform(-1.0, 1.0, (n, d)),
            "folded": lambda: np.abs(pts),
            "constant": lambda: np.full((n, d), 0.5),
            "spread": lambda: rng.uniform(-1e6, 1e6, (n, d))[rng.integers(0, max(1, n // 3), n)]
            + rng.uniform(-delta_y, delta_y, (n, d)),
        }[cloud]()
        i, j = cKDTree(img).query_pairs(delta_y, output_type="ndarray").reshape(-1, 2).T
        hit = (np.linalg.norm(img[i] - img[j], axis=1) < delta_y) & (
            np.linalg.norm(pts[i] - pts[j], axis=1) > delta_x
        )
        i, j = i[hit], j[hit]
        involved = np.zeros(n, dtype=bool)
        involved[i] = involved[j] = True
        first = np.lexsort((j, i))[:64]
        with mock.patch.object(phases, "_PAIR_BLOCK", block):
            got, got_first = phases._collisions(img, pts, delta_x, delta_y)
        assert np.array_equal(got, involved)
        assert got_first.tolist() == np.stack([i[first], j[first]], axis=1).tolist()
        assert float(got.mean()) == float(involved.mean())

    def test_huge_delta_y_refused_before_any_block(self, monkeypatch):
        # every pair of the 20,000 samples is a candidate: counted and refused
        # before the first block of pairs is built
        blocks = []
        monkeypatch.setattr(
            phases, "_candidate_blocks", lambda *args: blocks.append(args) or iter(())
        )
        with pytest.raises(DomainError, match="collision pair list"):
            es.essential_injectivity_probe(
                es.Identity(1), es.LebesgueBox([0.0], [1.0]), n=20_000, delta_y=1e300
            )
        assert blocks == []


class TestHolhosBoundary:
    def test_l1_norm_on_circle(self):
        th = np.linspace(0, 2 * np.pi, 1000, endpoint=False)
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        out = es.Holhos()(pts)
        resid = np.abs(np.abs(out[:, 0]) + np.abs(out[:, 1]) - math.sqrt(math.pi / 2))
        assert np.max(resid) <= 1e-9


class TestDigitMonotonicity:
    def test_binary_quaternary_monotone_on_sorted_samples(self):
        pts = np.sort(es.sample(es.LebesgueBox([0.0], [1.0]), 10**5, seed=12)[:, 0])
        img = es.binary_to_quaternary(depth=30)(pts[:, None])[:, 0]
        assert np.all(np.diff(img) >= 0.0)


def _searchsorted_digit_map(phi, x):
    """The digit snapping DigitMap used before its lookup table: a
    searchsorted and a nearer-neighbour comparison at every level."""
    allowed = np.array(sorted(phi.in_digits), dtype=float)
    out_for = np.array([phi.digit_map[int(d)] for d in allowed])
    r = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(r)
    scale = 1.0
    nonzero = r > 0
    for _ in range(phi.depth):
        scale /= phi.out_base
        t = r * phi.in_base
        d = np.clip(np.where(nonzero, np.ceil(t) - 1.0, 0.0), 0, phi.in_base - 1)
        idx = np.clip(np.searchsorted(allowed, d), 0, len(allowed) - 1)
        left = np.clip(idx - 1, 0, len(allowed) - 1)
        idx = np.where(np.abs(allowed[left] - d) < np.abs(allowed[idx] - d), left, idx)
        out += np.where(nonzero, out_for[idx], 0.0) * scale
        r = t - allowed[idx]
    return out


class TestDigitSnapTable:
    @pytest.mark.parametrize(
        "phi",
        [
            es.ternary_to_quaternary(depth=30),  # off-support 1s tie between 0 and 2
            es.binary_to_quaternary(depth=64),
            es.DigitMap(5, (1, 3), 7, {1: 4.0, 3: 1.0}, depth=20),  # 0 and 4 outside
            es.DigitMap(2, (0, 3), 4, {0: 0.0, 3: 3.0}),  # a digit above the base
            es.DigitMap(10**15, (0, 1), 4, {0: 0.0, 1: 2.0}),  # a base past any table
        ],
    )
    def test_lookup_matches_searchsorted_snapping(self, phi):
        rng = np.random.default_rng(31)
        x = np.concatenate([
            rng.random(20_000),
            [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1 / 3, 2 / 3, 1 - 1e-16, 1.0],
            [np.nextafter(1.0, 0.0), -1e-13, 1 + 1e-13],
        ])
        with np.errstate(over="ignore", invalid="ignore"):  # as PhaseMap.__call__
            want = _searchsorted_digit_map(phi, x)
        assert np.array_equal(phi(x[:, None])[:, 0], want)

    def test_table_past_the_entry_budget_is_refused(self):
        with pytest.raises(DomainError, match="digit snap table"):
            es.DigitMap(2**40, (0, 2**30), 4, {0: 0.0, 2**30: 2.0})


class TestDigitCodes:
    # the level-block codes that Monte-Carlo moments of a digit phase gather
    # their phase tables at: summed over the blocks, their offsets are the image
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_block_offsets_sum_to_the_image(self, data):
        base = data.draw(st.integers(2, 6), label="in_base")
        # digits below 0 or above the base are snapped into the table
        digits = data.draw(st.lists(st.integers(-2, base + 2), min_size=1, max_size=4, unique=True))
        out_base = data.draw(st.integers(2, 6), label="out_base")
        values = data.draw(st.lists(
            st.floats(1 - out_base, out_base - 1), min_size=len(digits), max_size=len(digits),
            unique=True,
        ))
        depth = data.draw(st.integers(1, 30), label="depth")
        levels = data.draw(st.integers(1, 5), label="levels")
        phi = es.DigitMap(base, digits, out_base, dict(zip(digits, values)), depth=depth)
        rationals = data.draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2**40))))
        x = np.array([0.0, 1.0] + [k % (base**j + 1) / base**j for j, k in rationals])

        codes, offsets = phi._codes(x[:, None], levels)
        blocks = -(-depth // levels)
        assert codes.shape == (len(x), blocks)
        assert offsets.shape == (blocks, (phi._top + 1) ** levels + 1)
        total = sum(offsets[b, codes[:, b]] for b in range(blocks))
        assert np.max(np.abs(total - phi(x[:, None])[:, 0])) <= 1e-15

        off = data.draw(st.sampled_from([-0.5, -1e-11, 1 + 1e-11, 2.0]), label="off")
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            phi(np.array([[0.5], [off]]))
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\]"):
            phi._codes(np.array([[0.5], [off]]), levels)


class TestDigitMapConstruction:
    # int() truncated these to bases 2 and 4 and depth 30; inf was stored
    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((2.5, (0, 1), 4, {0: 0.0, 1: 2.0}), {}),
            ((2, (0, 1), 4.7, {0: 0.0, 1: 2.0}), {}),
            ((2, (0, 1), 4, {0: 0.0, 1: 2.0}), {"depth": 30.7}),
            ((2, (0, 1), 4, {0: 0.0, 1: np.inf}), {}),
            ((2, (0, 1), 4, {0: 0.0, 1: np.nan}), {}),
            ((2, (0, 1), 4, {0: 0.0, 1.5: 2.0}), {}),
        ],
        ids=["in-base", "out-base", "depth", "inf-value", "nan-value", "fractional-key"],
    )
    def test_non_integer_or_non_finite_parameters_refused(self, args, kwargs):
        with pytest.raises(DomainError):
            es.DigitMap(*args, **kwargs)

    def test_integral_parameters_of_any_number_type_are_accepted(self):
        digits = {0.0: 0.0, np.int64(1): 2.0}
        phi = es.DigitMap(np.float64(2.0), (0, 1), 4.0, digits, depth=np.int32(12))
        assert (phi.in_base, phi.out_base, phi.depth) == (2, 4, 12)
        assert phi.digit_map == {0: 0.0, 1: 2.0}

    def test_values_near_the_double_limit_are_refused(self):
        with pytest.raises(DomainError, match="digit_map values must be below 1e150"):
            es.DigitMap(3, [0, 2], 3, {0: -1e300, 2: 2.0})

    def test_empty_digit_set_is_refused(self):
        with pytest.raises(DomainError, match="in_digits must be a non-empty list"):
            es.DigitMap(2, [], 4, {})


class TestLinearConstruction:
    @pytest.mark.parametrize("dim", [0, -1, 2.7, True, "x"])
    def test_identity_needs_an_integer_dim_of_at_least_one(self, dim):
        with pytest.raises(DomainError):
            es.Identity(dim)

    def test_identity_accepts_integral_dims_of_any_number_type(self):
        assert es.Identity(np.float64(3.0)).in_dim == 3

    @pytest.mark.parametrize(
        "M, b",
        [
            ("abc", None),
            ([[1.0, 2.0], [3.0]], None),
            ([[[1.0]]], None),
            ([[np.nan]], None),
            ([[np.inf, 0.0], [0.0, 1.0]], None),
            ([], None),
            ([[1.0]], "x"),
            ([[1.0]], [np.nan]),
        ],
        ids=["string", "ragged", "3-d", "nan", "inf", "empty", "b-string", "b-nan"],
    )
    def test_affine_refuses_bad_matrix_or_offset(self, M, b):
        with pytest.raises(DomainError):
            es.Affine(M, b)

    def test_singular_affine_map_has_no_inverse(self):
        with pytest.raises(InversionError, match="singular"):
            es.Affine([[1.0, 1.0], [1.0, 1.0]]).invert([[0.5, 0.5]])


class TestCompose:
    def test_compose_identity_collapses(self):
        phi = es.Holhos()
        assert es.compose(es.Identity(2), phi) is phi
        assert es.compose(phi, es.Identity(2)) is phi

    def test_composed_eval_and_jacobian(self):
        inner = es.Affine(np.array([[2.0, 0.0], [0.0, 1.0]]), [0.1, -0.2])
        outer = es.Unipotent(shifts=(lambda p: p[:, 1] ** 2,), dim=2)
        comp = es.compose(outer, inner)
        pts = np.random.default_rng(8).random((20, 2))
        assert_allclose(comp(pts), outer(inner(pts)))
        Jc = comp.jacobian_batch(pts)
        Jref = np.einsum(
            "nij,njk->nik", outer.jacobian_batch(inner(pts)), inner.jacobian_batch(pts)
        )
        assert_allclose(Jc, Jref, atol=1e-9)

    def test_as_selfsimilar_recognition(self):
        from expsys.phases import as_selfsimilar

        mu = es.LebesgueBox([0.0], [1.0])
        ss = as_selfsimilar(mu, es.binary_to_quaternary())
        assert ss is not None and ss.ratio == 4
        assert ss.digits == ((0.0, 0.5), (2.0, 0.5))
        nu3 = es.middle_third_cantor()
        ss2 = as_selfsimilar(nu3, es.ternary_to_quaternary())
        assert ss2 is not None and ss2.digits == ((0.0, 0.5), (2.0, 0.5))
        assert as_selfsimilar(mu, es.Identity(1)) is None
        assert as_selfsimilar(es.LebesgueBox([0.0], [2.0]), es.binary_to_quaternary()) is None

    @pytest.mark.parametrize(
        "mu, phi",
        [
            (es.LebesgueBox([0.0, 0.0], [1.0, 1.0]), es.binary_to_quaternary()),
            (es.LebesgueBox([0.5], [1.0]), es.binary_to_quaternary()),
            # digits {0, 2} are not the full base 3
            (es.LebesgueBox([0.0], [1.0]), es.ternary_to_quaternary()),
            # ratio 4 against input base 3
            (es.middle_fourth_cantor(), es.ternary_to_quaternary()),
            # digits {0, 1} against the input digits {0, 2}
            (es.SelfSimilar(3, ((0.0, 0.5), (1.0, 0.5))), es.ternary_to_quaternary()),
            (es.middle_fourth_cantor(), es.Affine([[0.0]], [1.0])),
            (es.middle_fourth_cantor(), es.Affine([[1.0], [2.0]])),
            (es.LebesgueBox([0.0], [1.0]), es.Affine([[2.0]])),
            # two digits of base 10^15: refused before any list of 10^15 digits
            (es.LebesgueBox([0.0], [1.0]), es.DigitMap(10**15, [0, 1], 4, {0: 0.0, 1: 2.0})),
        ],
        ids=[
            "2-d-box", "box-lo", "digits-not-full-base", "ratio-mismatch",
            "digit-set-mismatch", "affine-a-0", "affine-1-to-2", "affine-on-box",
            "in-base-1e15",
        ],
    )
    def test_as_selfsimilar_refusals(self, mu, phi):
        from expsys.phases import as_digit_system, as_selfsimilar

        assert as_selfsimilar(mu, phi) is None
        assert as_digit_system(mu, phi) is None

    @pytest.mark.parametrize(
        "mu, phi, system",
        [
            (es.middle_third_cantor(), es.Identity(1), (3, 3, ((0.0, 0.0, 0.5), (2.0, 2.0, 0.5)))),
            # a x + b of sum d_i 4^-i is sum (a d_i + 3 b) 4^-i
            (
                es.middle_fourth_cantor(), es.Affine([[-3.0]], [0.25]),
                (4, 4, ((0.0, 0.75, 0.5), (2.0, -5.25, 0.5))),
            ),
            (
                es.SelfSimilar(3, ((2.0, 0.25), (0.0, 0.75))), es.ternary_to_quaternary(),
                (3, 4, ((0.0, 0.0, 0.75), (2.0, 2.0, 0.25))),
            ),
            (
                es.LebesgueBox([0.0], [1.0]), es.binary_to_quaternary(),
                (2, 4, ((0.0, 0.0, 0.5), (1.0, 2.0, 0.5))),
            ),
        ],
        ids=["identity", "affine", "digit-map", "digit-map-on-unit"],
    )
    def test_as_selfsimilar_is_the_digit_system_pushed_forward(self, mu, phi, system):
        from expsys.phases import as_digit_system, as_selfsimilar

        assert as_digit_system(mu, phi) == system
        q, rows = system[1:]
        ss = as_selfsimilar(mu, phi)
        assert (ss.ratio, ss.digits) == (q, tuple((s, p) for _, s, p in rows))

    def test_affine_image_of_a_self_similar_measure(self):
        # a x + b of sum d_i 4^-i is sum (a d_i + 3 b) 4^-i
        from expsys.phases import as_selfsimilar

        ss = as_selfsimilar(es.middle_fourth_cantor(), es.Affine([[-3.0]], [0.25]))
        assert ss.ratio == 4 and ss.digits == ((0.75, 0.5), (-5.25, 0.5))
        product = es.measures._selfsimilar_product  # ungated: no 6M-sample oracle run
        xi = np.array([0.3, 1.7, -2.2])
        assert_allclose(
            product(ss, xi, 40),
            np.exp(2j * np.pi * 0.25 * xi) * product(es.middle_fourth_cantor(), -3.0 * xi, 40),
            atol=1e-13,
        )
