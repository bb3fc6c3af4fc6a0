import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import ks_2samp

import expsys as es
from expsys._oscillatory import _digit_moments
from expsys.errors import (
    ProductFormulaError,
    QuadratureError,
    SchemeMismatchError,
    _integer,
    _real,
)
from expsys.measures import (
    _box_ft,
    _in_box,
    _IterateCodes,
    _selfsimilar_product,
    digit_nodes,
    selfsimilar_moments,
)
from expsys.seeding import spawn_rng


def unit_box():
    return es.LebesgueBox([0.0], [1.0])


class TestIntegrate:
    def test_total_mass_box(self):
        val, err = es.integrate(lambda x: np.ones(x.shape[0]), unit_box(), es.gauss(32))
        assert_allclose(val, 1.0, atol=1e-14)

    def test_integer_frequency_vanishes(self):
        f = lambda x: np.exp(2j * np.pi * 3 * x[:, 0])
        val, err = es.integrate(f, unit_box(), es.gauss(32))
        assert abs(val) <= 1e-12

    def test_digit_quadrature_matches_mc_oracle(self):
        # oracle: Monte-Carlo digit sampling, 1e6 draws, 3 standard errors
        nu4 = es.middle_fourth_cantor()
        f = lambda x: np.exp(2j * np.pi * x[:, 0])
        val, _ = es.integrate(f, nu4, es.digit(depth=30))
        pts = es.sample(nu4, 10**6, seed=11)[:, 0]
        mc = np.exp(2j * np.pi * pts)
        se_re = mc.real.std(ddof=1) / 1000.0
        se_im = mc.imag.std(ddof=1) / 1000.0
        assert abs(val.real - mc.real.mean()) <= 3 * se_re
        assert abs(val.imag - mc.imag.mean()) <= 3 * se_im

    def test_total_mass_all_kinds(self):
        one = lambda x: np.ones(x.shape[0])
        disc = es.LebesgueDisc([0.0, 0.0], 1.0)
        val, err = es.integrate(one, disc, es.adaptive(abs_tol=1e-9))
        assert_allclose(val, np.pi, atol=1e-8)
        val, _ = es.integrate(one, es.middle_third_cantor(), es.digit(depth=20))
        assert_allclose(val, 1.0, atol=1e-12)
        box2 = es.LebesgueBox([0.0, -1.0], [2.0, 1.0])
        val, _ = es.integrate(one, box2, es.gauss(16))
        assert_allclose(val, 4.0, atol=1e-12)

    def test_mc_error_is_standard_error(self):
        f = lambda x: x[:, 0]
        val, err = es.integrate(f, unit_box(), es.monte_carlo(200_000, seed=5))
        assert abs(val - 0.5) <= 3 * err
        assert 0 < err < 1e-2

    def test_scheme_measure_mismatch(self):
        with pytest.raises(SchemeMismatchError):
            es.integrate(lambda x: x[:, 0], unit_box(), es.digit(depth=10))
        with pytest.raises(SchemeMismatchError):
            es.integrate(
                lambda x: x[:, 0], es.middle_fourth_cantor(), es.gauss(16)
            )

    def test_nonfinite_integrand_raises(self):
        def bad(x):
            return np.full(x.shape[0], np.nan)

        with pytest.raises(QuadratureError):
            es.integrate(bad, unit_box(), es.gauss(8))

    @pytest.mark.parametrize(
        "mu, quad",
        [
            (es.LebesgueBox([0.0], [1.0]), es.monte_carlo(1000, seed=2)),
            (es.middle_fourth_cantor(), es.digit(depth=8)),
            (es.LebesgueBox([0.0, 0.0], [1.0, 2.0]), es.adaptive(abs_tol=1e-8)),
            (es.LebesgueDisc([0.0, 0.0], 1.0), es.adaptive(abs_tol=1e-8)),
        ],
        ids=["monte-carlo", "self-similar-digit", "adaptive-box", "adaptive-disc"],
    )
    @pytest.mark.parametrize(
        "bad",
        [lambda x: np.full(x.shape[0], np.nan), lambda x: np.ones((x.shape[0], 2))],
        ids=["nan", "wrong-shape"],
    )
    def test_bad_integrand_raises_under_every_scheme(self, mu, quad, bad):
        with pytest.raises(QuadratureError):
            es.integrate(bad, mu, quad)

    def test_digit_error_is_the_slope_bound(self):
        # max |f(x_{k+1}) - f(x_k)| / max(dx_k, tail) over adjacent nodes, times
        # tail: the enumeration's error at lambda = 0 (`integrate` itself takes
        # the digit transfer, whose guard this enumeration is)
        nu4 = es.middle_fourth_cantor()
        f = lambda x: np.sin(7 * x[:, 0]) + x[:, 0] ** 2
        for depth in (6, 10):
            _, blocks, tail = digit_nodes(nu4, depth)
            (pts, _), = blocks  # at most 2^16 nodes: one block
            vals = f(pts)
            slope = np.max(np.abs(np.diff(vals)) / np.maximum(np.diff(pts[:, 0]), tail))
            _, err = _digit_moments(
                nu4, None, es.Identity(1), np.zeros((1, 1)), es.digit(depth=depth), [(f, None)]
            )
            assert err[0, 0] == slope * tail > 0

    @pytest.mark.parametrize(
        "mu, quad",
        [
            (es.LebesgueBox([0.0], [1.0]), es.gauss(16)),
            (es.LebesgueBox([0.0], [1.0]), es.monte_carlo(1000, seed=2)),
            (es.middle_third_cantor(), es.digit(depth=8)),
            (es.LebesgueDisc([0.0, 0.0], 1.0), es.adaptive(abs_tol=1e-8)),
            (es.LebesgueDisc([0.0, 0.0], 1.0), es.gauss(16)),
        ],
        ids=["gauss", "monte-carlo", "digit", "adaptive-disc", "gauss-disc"],
    )
    def test_real_integrand_gives_real_value(self, mu, quad):
        val, err = es.integrate(lambda x: x[:, 0] ** 2 + 1.0, mu, quad)
        assert not np.iscomplexobj(val) and np.isfinite(val) and err >= 0
        val, _ = es.integrate(lambda x: np.exp(1j * x[:, 0]), mu, quad)
        assert np.iscomplexobj(val)

    def test_zero_weight_digits_are_not_enumerated(self):
        # the middle-fourth Cantor measure listed with a third digit of weight
        # 0 got 3^12 nodes, 4096 of them weighted, and a tail 1.5 times wider
        listed = es.SelfSimilar(4, ((0.0, 0.5), (2.0, 0.5), (3.0, 0.0)))
        for depth in (8, 30):
            count, blocks, tail = digit_nodes(listed, depth)
            ref_count, ref_blocks, ref_tail = digit_nodes(es.middle_fourth_cantor(), depth)
            assert count == ref_count == 2 ** min(depth, 20) and tail == ref_tail
            for (pts, w), (ref_pts, ref_w) in zip(blocks, ref_blocks, strict=True):
                assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)

    def test_digit_depth_agreement_invariant(self):
        # depth D vs D+5 within 2 pi |xi| * tail width of depth D
        nu4 = es.middle_fourth_cantor()
        for xi in (1.0, 7.5, 16.0):
            f = lambda x, xi=xi: np.exp(2j * np.pi * xi * x[:, 0])
            v10, _ = es.integrate(f, nu4, es.digit(depth=10))
            v15, _ = es.integrate(f, nu4, es.digit(depth=15))
            _, _, tail = digit_nodes(nu4, 10)
            assert abs(v10 - v15) <= 2 * np.pi * abs(xi) * tail + 1e-15


class TestSample:
    def test_uniform_mean_band(self):
        pts = es.sample(unit_box(), 10**5, seed=2)
        assert 0.497 <= pts.mean() <= 0.503

    def test_middle_third_gap(self):
        nu3 = es.middle_third_cantor()
        pts = es.sample(nu3, 20_000, seed=3)[:, 0]
        assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
        slack = 3.0**-30
        in_gap = (pts > 1.0 / 3 + slack) & (pts < 2.0 / 3 - slack)
        assert not np.any(in_gap)

    def test_pushforward_sampler_agrees_with_direct(self):
        # two-sampler agreement through the digit transport
        mu = unit_box()
        phi = es.binary_to_quaternary(depth=30)
        pf = es.pushforward(mu, phi)
        a = es.sample(pf, 10**5, seed=7)[:, 0]
        b = es.sample(es.middle_fourth_cantor(), 10**5, seed=8)[:, 0]
        assert ks_2samp(a, b).statistic <= 0.01

    def test_deterministic_under_seed(self):
        a = es.sample(unit_box(), 1000, seed=42)
        b = es.sample(unit_box(), 1000, seed=42)
        c = es.sample(unit_box(), 1000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_disc_rejection_inside(self):
        disc = es.LebesgueDisc([1.0, -2.0], 0.5)
        pts = es.sample(disc, 5000, seed=1)
        r = np.hypot(pts[:, 0] - 1.0, pts[:, 1] + 2.0)
        assert np.all(r <= 0.5)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            es.sample(unit_box(), 0)

    @staticmethod
    def _decoded_iterate(ss, L):
        # the L-fold iterate's cylinder offsets and cumulative masses, by a
        # base-k decode of each cylinder that sums the positive-weight digits'
        # offsets in level order
        pos = ss._weights > 0
        d, w = ss._offsets[pos], ss._weights[pos]
        codes = np.arange(d.size**L)
        offsets, mass, s = np.zeros(codes.size), np.ones(codes.size), 1.0
        for j in range(L):
            i = codes // d.size ** (L - 1 - j) % d.size
            s /= ss.ratio
            offsets = offsets + d[i] * s
            mass = mass * w[i]
        return offsets, np.cumsum(mass)

    @classmethod
    def _level_stream(cls, ss, n, rng):
        # the plain L-level loop: one rng.random(n) per block of L levels and
        # a binary search over the iterate's cumulative masses; returns the
        # (n, 30 / L) cylinder codes and the (n, 1) samples
        L = ss._iterate[0]
        offsets, cumw = cls._decoded_iterate(ss, L)
        codes, x, scale = [], np.zeros(n), 1.0
        for _ in range(30 // L):
            idx = np.minimum(np.searchsorted(cumw, rng.random(n), side="right"), offsets.size - 1)
            codes.append(idx)
            x += offsets[idx] * scale
            scale /= ss.ratio**L
        return np.stack(codes, axis=1), x[:, None]

    @classmethod
    def _level_loop(cls, ss, n, rng):
        return cls._level_stream(ss, n, rng)[1]

    @staticmethod
    def _decoded_codes(ss, n, rng):
        # the codes measure's draws, decoded with the sampler's level offsets
        # added in block order; its dtype holds every cylinder index
        codes = _IterateCodes(ss)
        got = codes._sample(n, rng)
        assert got.shape == (n, codes.dim) and got.dtype == codes.dtype
        cylinders = ss._iterate[1].size
        assert codes.offsets.shape[1] == cylinders
        assert np.iinfo(codes.dtype).max >= cylinders - 1
        x = np.zeros(n)
        for b in range(codes.dim):
            x += codes.offsets[b, got[:, b]]
        return x[:, None]

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize(
        "ss, L",
        [
            (es.middle_third_cantor(), 10),
            (es.SelfSimilar(5, ((0.0, 0.25), (1.0, 0.0), (3.0, 0.25), (4.0, 0.5))), 6),
            (es.SelfSimilar(13, tuple((d, 0.0 if d == 4 else 1 / 11) for d in range(12))), 3),
        ],
        ids=["2-digits", "4-digits-zero-weight", "12-digits"],
    )
    def test_blocked_sampler_draws_the_level_loop_stream(self, ss, L, seed):
        # 2^18 is the block length; 11 positive digits give 1331 cylinders at
        # L = 3, whose cuts need a comparison pass
        assert ss._iterate[0] == L
        for n in (1, 2**18 - 1, 2**18 + 3, 3 * 2**18 + 5):
            got = ss._sample(n, np.random.default_rng(seed))
            want = self._level_loop(ss, n, np.random.default_rng(seed))
            assert got.shape == (n, 1)
            assert np.array_equal(got, want)
            assert np.array_equal(self._decoded_codes(ss, n, np.random.default_rng(seed)), got)

    WINDOW_SYSTEMS = {
        "2-equal": (es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5))), 10, np.uint16),
        "0.7-0.3": (es.SelfSimilar(5, ((0.0, 0.7), (3.0, 0.3))), 6, np.uint8),
        "3-equal": (es.SelfSimilar(4, ((0.0, 1 / 3), (1.0, 1 / 3), (3.0, 1 / 3))), 6, np.uint16),
    }

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(WINDOW_SYSTEMS)),
        n=st.one_of(st.sampled_from([1, 2**18 - 1, 2**18, 2**18 + 1]), st.integers(1, 2**19)),
        seed=st.integers(0, 2**32 - 1),
        buffered=st.booleans(),
        data=st.data(),
    )
    def test_row_windows_concatenate_to_the_whole_draw(self, name, n, seed, buffered, data):
        # the product gate draws its codes in row windows; each window reads
        # the level-major stream from advanced copies of the generator, which
        # stays at the stream's start until the window that ends at n leaves
        # it where the whole draw does, a buffered 32-bit draw included
        ss, L, dtype = self.WINDOW_SYSTEMS[name]
        codes = _IterateCodes(ss)
        assert (ss._iterate[0], codes.dtype) == (L, dtype)

        def generator():
            rng = np.random.default_rng(seed)
            if buffered:
                rng.integers(0, 10, dtype=np.uint32)  # leaves a 32-bit half buffered
            return rng

        ref = generator()
        want_codes, want_x = self._level_stream(ss, n, ref)
        end = ref.bit_generator.state
        for draw, want in ((codes._sample, want_codes), (ss._sample, want_x)):
            rng = generator()
            assert np.array_equal(draw(n, rng), want) and rng.bit_generator.state == end
        cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else set()
        edges = [0, *sorted(cuts), n]
        rng = generator()
        start = rng.bit_generator.state
        windows = []
        for lo, hi in zip(edges, edges[1:]):
            windows.append(codes._sample(n, rng, (lo, hi)))
            assert windows[-1].dtype == dtype and windows[-1].shape == (hi - lo, codes.dim)
            assert rng.bit_generator.state == (end if hi == n else start)
        got = np.concatenate(windows)
        assert np.array_equal(got, want_codes)
        # decoded in block order, the windows' codes are the whole point draw
        x = np.zeros(n)
        for b in range(codes.dim):
            x += codes.offsets[b, got[:, b]]
        assert np.array_equal(x[:, None], want_x)

    class _Uniforms:
        """A generator stub whose every `random` call writes the chosen u."""

        def __init__(self, u):
            self.u = u

        def random(self, out):
            out[:] = self.u[: out.size]
            return out

    @pytest.mark.parametrize(
        "ss, L, guide",
        [
            (es.SelfSimilar(4, tuple((float(d), 0.25) for d in range(4))), 1, (4, 0)),
            (
                es.SelfSimilar(8, ((1.0, 0.5), (2.0, 1e-17), (3.0, 0.0), (4.0, 0.5))),
                1,
                (2, 0),
            ),
            (es.SelfSimilar(4, ((0.0, 0.5), (1.0, 1e-13), (2.0, 0.5 - 1e-13))), 1, (2, 1)),
            (es.SelfSimilar(2, tuple((float(d), 1 / 4097) for d in range(4097))), 1, (4096, 1)),
            (es.middle_fourth_cantor(), 10, (1024, 0)),
        ],
        ids=["cuts-on-bin-edges", "duplicate-cuts", "1e-13-weight", "4097-digits", "cantor4-L10"],
    )
    def test_ties_fall_as_in_searchsorted(self, ss, L, guide, monkeypatch):
        # random draws never hit a cut, so a stub writes each cut, the double
        # below it, 0 and the largest uniform; (K, passes) is the guide table
        # size: 4097 digits need a pass per bin at the 2^12-bin cap.  The
        # zero-weight digit is not in the table; the 1e-17 weight is below
        # the cumulative sum's resolution, so its cut duplicates the one at
        # 1/2.  The Cantor-4 case is one block of its 1024 cylinders
        import expsys.measures as m

        # _SAMPLE_DEPTH = L makes one level block at scale 1
        monkeypatch.setattr(m, "_SAMPLE_DEPTH", L)
        assert (ss._iterate[0], ss._iterate[2][:2]) == (L, guide)
        offsets, cumw = self._decoded_iterate(ss, L)
        cuts = cumw[:-1]
        u = np.concatenate([cuts, np.nextafter(cuts, -1.0), [0.0, 1.0 - 2.0**-53]])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = ss._sample(u.size, self._Uniforms(u))[:, 0]
        assert np.array_equal(got, offsets[np.searchsorted(cuts, u, side="right")])
        assert np.array_equal(self._decoded_codes(ss, u.size, self._Uniforms(u))[:, 0], got)

    class _Counting:
        """A generator that counts the uniforms asked of it."""

        def __init__(self, seed):
            self.rng, self.uniforms = np.random.default_rng(seed), 0

        def random(self, out):
            self.uniforms += out.size
            return self.rng.random(out=out)

    @pytest.mark.parametrize(
        "weights, per_sample",
        [((0.5, 0.5), 3), ((0.25,) * 4, 5), ((0.99, 0.01), None), ((0.7, 0.2, 0.1), None)],
        ids=["2-equal", "4-equal", "0.99-0.01", "0.7-0.2-0.1"],
    )
    def test_uniforms_per_sample(self, weights, per_sample):
        # 2 equal digits (the product gate's system) take 10 levels per
        # uniform, 4 equal digits 6; uneven weights never make more passes over
        # a block, (uniforms per sample) (1 + comparison passes), than L = 1
        from expsys.measures import _guide_table

        ss = es.SelfSimilar(5, tuple((float(2 * j), w) for j, w in enumerate(weights)))
        n = 2**18 + 3
        rng = self._Counting(7)
        ss._sample(n, rng)
        L, _, (_, passes, *_) = ss._iterate
        assert rng.uniforms == n * 30 // L
        if per_sample is not None:
            assert (rng.uniforms, passes) == (per_sample * n, 0)
        one_level = _guide_table(np.cumsum(weights)[:-1])[1]
        assert 30 // L * (1 + passes) <= 30 * (1 + one_level)

    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(
        k=st.integers(2, 1000),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.floats(0.0, 0.9),
        n=st.integers(2**18 - 2, 2**18 + 2),
    )
    def test_guide_table_draws_the_level_loop_stream(self, k, seed, zero_share, n):
        # digit systems with random zero weights; n straddles the 2^18 block
        gen = np.random.default_rng(seed)
        w = gen.random(k) * (gen.random(k) >= zero_share)
        w[gen.choice(k, 2, replace=False)] += 1.0
        ss = es.SelfSimilar(k + 1, tuple(zip(range(k), w / w.sum())))
        got = ss._sample(n, np.random.default_rng(seed))
        assert np.array_equal(got, self._level_loop(ss, n, np.random.default_rng(seed)))


class TestPushforward:
    def test_identity_pushforward_integrates_same(self):
        mu = unit_box()
        pf = es.pushforward(mu, es.Identity(1))
        f = lambda x: x[:, 0] ** 3 + 1.0
        v1, _ = es.integrate(f, mu, es.gauss(16))
        v2, _ = es.integrate(f, pf, es.gauss(16))
        assert_allclose(v1, v2, atol=1e-14)

    def test_digit_map_pushforward_is_quarter_cantor(self):
        mu = unit_box()
        pf = es.pushforward(mu, es.binary_to_quaternary(depth=30))
        nu4 = es.middle_fourth_cantor()
        for lam in (1.0, 2.0, 3.0):
            v = es.fourier_transform(pf, [lam])
            w = es.fourier_transform(nu4, [lam])
            assert abs(v - w) <= 1e-6

    def test_exponential_pushforward_reciprocal_law(self):
        # image of Lebesgue[-1, 1] under s -> e^{-s} has density 1/x on [1/e, e]
        mu = es.LebesgueBox([-1.0], [1.0])
        phi = es.CustomPhase(lambda p: np.exp(-p[:, 0]), 1, 1)
        pf = es.pushforward(mu, phi)
        pts = np.sort(es.sample(pf, 10**5, seed=9)[:, 0])
        cdf_exact = (np.log(pts) + 1.0) / 2.0
        emp = np.arange(1, pts.size + 1) / pts.size
        ks = max(
            np.max(np.abs(emp - cdf_exact)),
            np.max(np.abs(emp - 1.0 / pts.size - cdf_exact)),
        )
        assert ks <= 0.01

    def test_dimension_mismatch(self):
        with pytest.raises(es.DomainError):
            es.pushforward(unit_box(), es.Identity(2))

    def test_change_of_variables_property(self):
        # integrate(f, pushforward(mu, phi)) == integrate(f o phi, mu)
        rng = np.random.default_rng(0)
        mu = es.LebesgueBox([0.0, 0.0], [1.0, 1.0])
        phi = es.Unipotent(
            shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2
        )
        pf = es.pushforward(mu, phi)
        for _ in range(4):
            a, b = rng.normal(size=2)
            f = lambda y, a=a, b=b: np.exp(1j * (a * y[:, 0] + b * y[:, 1]))
            v1, e1 = es.integrate(f, pf, es.monte_carlo(100_000, seed=4))
            v2, e2 = es.integrate(
                lambda x: f(phi(x)), mu, es.monte_carlo(100_000, seed=4)
            )
            assert abs(v1 - v2) <= 1e-12  # same seed, same nodes


@st.composite
def digit_systems(draw):
    """Ratio 2 to 6, 2 to 4 distinct digits with offset 0 listed first, last or
    not at all, and one zero weight once three digits leave two supported."""
    ratio = draw(st.integers(2, 6))
    k = draw(st.integers(2, 4))
    nonzero = st.integers(-3 * ratio, 3 * ratio).filter(bool).map(float)
    offsets = draw(st.lists(nonzero, min_size=k, max_size=k, unique=True))
    zero_at = draw(st.sampled_from([0, k - 1, None]))
    if zero_at is not None:
        offsets[zero_at] = 0.0
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    if k > 2:
        weights[draw(st.integers(0, k - 1))] = 0.0
    return es.SelfSimilar(ratio, list(zip(offsets, weights / weights.sum())))


class TestFourierTransform:
    def test_zero_frequency_gives_mass(self):
        assert_allclose(es.fourier_transform(unit_box(), [0.0]), 1.0)
        disc = es.LebesgueDisc([0.3, 0.0], 2.0)
        assert_allclose(es.fourier_transform(disc, [0.0, 0.0]), np.pi * 4.0)
        assert_allclose(
            es.fourier_transform(es.middle_fourth_cantor(), [0.0]), 1.0
        )

    def test_spectrum_orthogonality_of_quarter_cantor(self):
        nu4 = es.middle_fourth_cantor()
        pts = es.lambda4(4).points[:, 0]
        for i in range(pts.size):
            for j in range(pts.size):
                if i == j:
                    continue
                v = es.fourier_transform(nu4, [pts[i] - pts[j]])
                assert abs(v) <= 1e-10

    def test_product_formula_vs_sampling_oracle(self):
        nu4 = es.middle_fourth_cantor()
        val = es.fourier_transform(nu4, [1.0])
        pts = es.sample(nu4, 10**6, seed=21)[:, 0]
        mc = np.exp(2j * np.pi * pts)
        assert abs(val.real - mc.real.mean()) <= 3 * mc.real.std(ddof=1) / 1000
        assert abs(val.imag - mc.imag.mean()) <= 3 * mc.imag.std(ddof=1) / 1000

    def test_hermitian_symmetry(self):
        for mu, xi in (
            (unit_box(), [0.37]),
            (es.middle_fourth_cantor(), [1.9]),
            (es.LebesgueDisc([0.1, 0.2], 1.5), [0.4, -0.8]),
        ):
            plus = es.fourier_transform(mu, xi)
            minus = es.fourier_transform(mu, [-v for v in xi])
            assert minus == np.conj(plus)

    def test_box_closed_form_matches_quadrature(self):
        box = es.LebesgueBox([0.25, -1.0], [1.5, 0.5])
        xi = np.array([1.3, -0.7])
        closed = es.fourier_transform(box, xi)
        f = lambda x: np.exp(2j * np.pi * (x @ xi))
        quad_val, _ = es.integrate(f, box, es.gauss(48))
        assert abs(closed - quad_val) <= 1e-12

    def test_box_transform_keeps_its_digits_at_small_frequencies(self):
        # the Taylor series of integral_lo^hi e^{2 pi i x t} dt, summed to
        # round-off at |x| <= 1e-5; an exp-difference form loses about
        # log10(1 / |x|) digits to cancellation there
        box = es.LebesgueBox([0.25, -1.0], [1.5, 0.5])
        xi = np.array([[1e-9, 0.0], [3e-7, -2e-8], [-1e-5, 4e-6], [0.0, 0.0]])
        n = np.arange(8)
        t = 2j * np.pi * xi[:, :, None]  # (m, dim, 1)
        coef = (box.hi[:, None] ** (n + 1) - box.lo[:, None] ** (n + 1)) / (
            (n + 1) * np.cumprod(np.maximum(n, 1))
        )
        series = np.sum(t**n * coef, axis=2).prod(axis=1)
        assert_allclose(_box_ft(box, xi), series, rtol=1e-15, atol=0)
        assert _box_ft(box, xi)[-1] == box.total_mass

    def test_non_reducible_pushforward_transform(self):
        # the shear (x1 + sin 2 pi x2, x2) keeps an integer x1-frequency, so
        # the transform at (1, 2) vanishes
        shear = es.Unipotent(shifts=(lambda p: np.sin(2 * np.pi * p[:, 1]),), dim=2)
        pf = es.pushforward(es.LebesgueBox([0.0, 0.0], [1.0, 1.0]), shear)
        assert abs(es.fourier_transform(pf, [1.0, 2.0])) <= 1e-12

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(digit_systems(), st.lists(st.floats(-1e6, 1e6), max_size=6), st.integers(1, 40))
    def test_product_matches_the_stacked_exponentials(self, ss, xi, trunc):
        xi = np.array(xi + [0.0, -0.0])
        scale, oracle = 1.0, np.ones(xi.shape, dtype=complex)
        for _ in range(trunc):  # every digit through exp, summed by one stacked np.sum
            scale /= ss.ratio
            oracle *= np.sum(
                ss._weights[None, :]
                * np.exp(2j * np.pi * ss._offsets[None, :] * (xi * scale)[..., None]),
                axis=-1,
            )
        got = _selfsimilar_product(ss, xi, trunc)
        for a, b in ((got.real, oracle.real), (got.imag, oracle.imag)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_gate_refuses_corrupted_product(self, monkeypatch):
        import expsys.measures as m

        weird = es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5)))
        monkeypatch.setattr(
            m, "_selfsimilar_product", lambda ss, xi, trunc: np.full(
                np.shape(np.asarray(xi)), 0.123 + 0.0j
            )
        )
        m._PRODUCT_GATE.pop(weird.digit_key(), None)
        with pytest.raises(ProductFormulaError):
            m.validate_product_formula(weird)
        m._PRODUCT_GATE.pop(weird.digit_key(), None)

    def test_gate_checks_its_own_depth(self, monkeypatch):
        # a caller's deeper product is gated at the gate's own _FT_TRUNC levels,
        # so the cached verdict cannot depend on which caller came first
        import expsys.measures as m

        truncs = []

        def product(ss, xi, trunc):
            truncs.append(trunc)
            return np.full(np.shape(np.asarray(xi)), 0.123 + 0.0j)

        monkeypatch.setattr(m, "_selfsimilar_product", product)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        with pytest.raises(ProductFormulaError):
            selfsimilar_moments(es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5))), [1.0], 60)
        assert truncs == [m._FT_TRUNC]

    def test_gate_sums_the_sampling_oracle_in_blocks(self, monkeypatch):
        # three blocks, the last one short: the residual is the one-shot mean's
        import expsys.measures as m

        monkeypatch.setattr(m, "_GATE_MC_SAMPLES", 3 * 2**18 + 5)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        ss = es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5)))
        worst = m.validate_product_formula(ss)
        xi = np.array(m._GATE_XI)
        prod = m._selfsimilar_product(ss, xi, m._FT_TRUNC)
        rng = m.spawn_rng(m._GATE_SEED, "product-gate", ss.digit_key())
        pts = ss._sample(m._GATE_MC_SAMPLES, rng)[:, 0]
        one_shot = max(
            abs(p - np.exp(2j * np.pi * x * pts).mean()) for x, p in zip(xi, prod)
        )
        assert abs(worst - one_shot) <= 1e-15

        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        monkeypatch.setattr(m, "_GATE_MC_TOL", 1e-12)
        with pytest.raises(ProductFormulaError, match="sampling oracle"):
            m.validate_product_formula(ss)

    def test_gate_refuses_a_phase_table_one_level_block_off(self, monkeypatch):
        # tables at ratio^(-L (b + 1)) instead of the sampler's ratio^(-L b)
        import expsys._oscillatory as osc
        import expsys.measures as m

        ss = es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5)))
        phase_tables = osc._phase_tables
        shifted = float(ss.ratio) ** -ss._iterate[0]
        monkeypatch.setattr(
            osc, "_phase_tables", lambda offsets, xi: phase_tables(offsets * shifted, xi)
        )
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        with pytest.raises(ProductFormulaError, match="sampling oracle"):
            m.validate_product_formula(ss)

    def test_cantor4_gate_residual_is_pinned(self, monkeypatch):
        # _code_sums also sums Monte-Carlo moments of digit phases under a
        # weight matrix; the gate's unit column must not move by a bit
        import expsys.measures as m

        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        worst = m.validate_product_formula(es.middle_fourth_cantor())
        assert worst == float.fromhex("0x1.2efcec619638bp-11")

    def test_gate_exponentiates_no_sample_row(self, monkeypatch):
        # the 6M samples reach the engine's exp kernel in no row: _contract
        # sees only the enumeration oracle's 2^20 nodes
        import expsys._oscillatory as osc
        import expsys.measures as m

        rows = []
        contract = osc._contract

        def spy(img, lam, W):
            rows.append(img.shape[0])
            return contract(img, lam, W)

        monkeypatch.setattr(osc, "_contract", spy)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        assert m.validate_product_formula(es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5)))) < 1e-3
        assert rows and sum(rows) <= 2**20

    def test_three_digits_gate_through_the_point_path(self, monkeypatch):
        # 5 level blocks of 729 cylinders: 10 bytes of codes per sample, more
        # than a float64 point, so the points are summed by the Monte-Carlo
        # rule, and its residual is pinned bit for bit
        import expsys._oscillatory as osc
        import expsys.measures as m

        ss = es.SelfSimilar(4, ((0.0, 1 / 3), (1.0, 1 / 3), (3.0, 1 / 3)))
        codes = _IterateCodes(ss)
        assert (codes.dim, codes.dtype) == (5, np.uint16)
        calls = []
        mc_sums = osc._mc_sums

        def spy(pts, *args):
            calls.append(pts.shape)
            return mc_sums(pts, *args)

        def refuse(*args):
            raise AssertionError("three digits take the point path")

        monkeypatch.setattr(osc, "_mc_sums", spy)
        monkeypatch.setattr(osc, "_code_sums", refuse)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        assert m.validate_product_formula(ss) == float.fromhex("0x1.edb661a994801p-13")
        assert calls == [(m._GATE_MC_SAMPLES, 1)]

    def test_gate_memory_stays_below_its_full_length_temporaries(self, monkeypatch):
        # both oracles stream: the enumeration holds one 2^16-node block (its
        # whole 2^20 nodes' exp chunk alone is 48 MiB) and the sampling oracle
        # one 2^18-row window of codes (all 6M are 36 MB); each peaks near 9 MiB
        import expsys.measures as m

        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        tracemalloc.start()
        try:
            m.validate_product_formula(es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_gate_runs_neither_the_transfer_nor_exp_moments(self, monkeypatch):
        # the enumeration oracle is the digit enumeration itself, whatever
        # the digit rule may route through the transfer
        import expsys._oscillatory as osc
        import expsys.measures as m

        def refuse(*args, **kwargs):
            raise AssertionError("the gate must not reach this")

        monkeypatch.setattr(osc, "_digit_transfer", refuse)
        monkeypatch.setattr(osc, "exp_moments", refuse)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        assert m.validate_product_formula(es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5)))) < 1e-3

    def test_gate_refuses_a_non_finite_oracle(self, monkeypatch):
        # a NaN residual compares False against the tolerance: it must fail
        import expsys._oscillatory as osc
        import expsys.measures as m

        def nan_moments(mu, psi, phi, lam, quad, weights):
            return np.full((len(lam), 1), np.nan + 0j), np.zeros((len(lam), 1))

        monkeypatch.setattr(osc, "_digit_moments", nan_moments)
        monkeypatch.setattr(m, "_PRODUCT_GATE", {})
        with pytest.raises(ProductFormulaError, match="digit enumeration"):
            m.validate_product_formula(es.SelfSimilar(5, ((0.0, 0.5), (3.0, 0.5))))

    def test_selfsimilar_needs_positive_trunc(self):
        with pytest.raises(ValueError):
            selfsimilar_moments(es.middle_fourth_cantor(), [1.0], 0)


class TestConstruction:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: es.LebesgueBox([0.0], [np.nan]),
            lambda: es.LebesgueBox([-np.inf], [1.0]),
            lambda: es.LebesgueBox([1.0], [0.0]),
            lambda: es.LebesgueBox([0.0, 0.0], [1.0]),
            lambda: es.LebesgueDisc([np.inf, 0.0], 1.0),
            lambda: es.LebesgueDisc([0.0, 0.0], np.nan),
            lambda: es.LebesgueDisc([0.0, 0.0], 0.0),
            # finite bounds whose mass overflows a double
            lambda: es.LebesgueBox([0.0, 0.0], [1e300, 1e300]),
            lambda: es.LebesgueBox([-1e308], [1e308]),
            lambda: es.LebesgueDisc([0.0, 0.0], 1e300),
            lambda: es.LebesgueDisc([0.0, 0.0], 1e154),
        ],
    )
    def test_bad_bounds_are_domain_errors(self, build):
        with pytest.raises(es.DomainError):
            build()

    @pytest.mark.parametrize(
        "ratio, digits",
        [
            (1e300, ((0.0, 0.5), (2.0, 0.5))),  # ratio^-64 underflows
            (2**15 + 1, ((0.0, 0.5), (2.0, 0.5))),
            (3, ((0.0, 0.5), (0.0, 0.5))),  # one point: zero support width
            (3, ((0.0, 1.0), (2.0, 0.0))),
        ],
    )
    def test_degenerate_self_similar_refused(self, ratio, digits):
        with pytest.raises(es.DomainError):
            es.SelfSimilar(ratio, digits)

    @pytest.mark.parametrize("ratio", [2.5, 3.999, np.inf, np.nan, "3"])
    def test_non_integer_ratio_refused(self, ratio):
        # int() would truncate 2.5 to a ratio-2 measure
        with pytest.raises(es.DomainError, match="ratio must be an integer"):
            es.SelfSimilar(ratio, ((0.0, 0.5), (2.0, 0.5)))

    def test_integral_ratio_of_any_number_type_is_accepted(self):
        assert es.SelfSimilar(4.0, ((0.0, 0.5), (2.0, 0.5))).ratio == 4
        assert es.SelfSimilar(np.int64(3), ((0.0, 0.5), (2.0, 0.5))).ratio == 3

    def test_largest_self_similar_ratio_is_accepted(self):
        mu = es.SelfSimilar(2**15, ((0.0, 0.5), (2.0, 0.5)))
        assert mu.ratio == 2**15

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            es.SelfSimilar(4, ((0.0, 0.5), (2.0, 0.6)))

    def test_mass_invariants(self):
        box = es.LebesgueBox([0.0, 1.0], [2.0, 4.0])
        assert box.total_mass == pytest.approx(6.0)
        disc = es.LebesgueDisc([0.0, 0.0], 3.0)
        assert disc.total_mass == pytest.approx(9 * np.pi)
        pf = es.pushforward(box, es.Identity(2))
        assert pf.total_mass == box.total_mass

    def test_quadspec_validation(self):
        with pytest.raises(SchemeMismatchError):
            es.QuadratureSpec("nope")
        with pytest.raises(ValueError):
            es.QuadratureSpec("tensor-gauss", order=1)
        with pytest.raises(ValueError):
            es.QuadratureSpec("self-similar-digit", depth=0)
        with pytest.raises(ValueError):
            es.QuadratureSpec("adaptive", abs_tol=0.0)

    def test_adaptive_order_below_three_refused(self):
        # at order 2 both orders of a cell's error are 2: exp(5 x) on [0, 1]
        # came back as (27.2346, 0.0) against the exact 29.4826
        with pytest.raises(es.DomainError, match="adaptive order"):
            es.adaptive(order=2, max_subdivisions=0)
        assert es.gauss(2).order == 2 and es.QuadratureSpec("monte-carlo", order=2).order == 2
        f = lambda x: np.exp(5 * x[:, 0])  # noqa: E731
        val, err = es.integrate(f, unit_box(), es.adaptive(abs_tol=1e-9, order=3))
        assert 0 < err <= 1e-8
        assert abs(val - (np.exp(5.0) - 1.0) / 5.0) <= 1e-8

    @pytest.mark.parametrize(
        "fields",
        [{"abs_tol": np.nan}, {"abs_tol": np.inf}, {"abs_tol": -1e-9}, {"max_subdivisions": -5}],
    )
    def test_quadspec_refuses_bad_adaptive_fields(self, fields):
        with pytest.raises(es.DomainError):
            es.QuadratureSpec("adaptive", **fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"order": 32.5},
            {"n_samples": 1000.5},
            {"seed": 1.5},
            {"seed": -1},
            {"seed": True},
            {"depth": 30.5},
            {"max_subdivisions": 10.5},
            {"order": "32"},
        ],
        ids=["order", "n-samples", "seed", "negative-seed", "bool-seed", "depth", "subdivisions",
             "string-order"],
    )
    def test_quadspec_refuses_non_integer_fields(self, fields):
        with pytest.raises(es.DomainError):
            es.QuadratureSpec("monte-carlo", **fields)

    def test_quadspec_stores_integral_fields_as_int(self):
        q = es.QuadratureSpec("tensor-gauss", order=np.float64(32.0), depth=np.int32(12))
        assert type(q.order) is int and type(q.depth) is int
        assert q == es.QuadratureSpec("tensor-gauss", order=32, depth=12)

    def test_nan_tolerance_cannot_skip_the_adaptive_refusal(self):
        # NaN made `err > 10 * abs_tol` false: this integral came back with a 3.6e-5 error
        rough = lambda x: np.abs(x[:, 0] - 1 / 3) ** 0.5  # noqa: E731
        unit = es.LebesgueBox([0.0], [1.0])
        with pytest.raises(es.QuadratureError):
            es.integrate(rough, unit, es.adaptive(abs_tol=1e-9, max_subdivisions=5))
        with pytest.raises(es.DomainError):
            es.adaptive(abs_tol=np.nan, max_subdivisions=5)
        assert es.adaptive(max_subdivisions=0).max_subdivisions == 0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: es.LebesgueDisc([0.0, 0.0], True),
            lambda: es.LebesgueDisc([False, 0.0], 1.0),
            lambda: es.LebesgueBox([False], [True]),
            lambda: es.LebesgueBox(np.array([0.0]), np.array([True])),
            lambda: es.SelfSimilar(4, [[True, 0.5], [2.0, 0.5]]),
            lambda: es.SelfSimilar(4, [[0.0, 0.5], [2.0, np.True_]]),
        ],
        ids=["disc-radius", "disc-center", "box-lists", "box-bool-array", "digit", "weight"],
    )
    def test_booleans_are_not_numbers(self, build):
        with pytest.raises(es.DomainError, match="booleans"):
            build()

    def test_numeric_strings_are_numbers(self):
        assert es.LebesgueBox(["0"], ["1.5"]).total_mass == 1.5

    def test_support_boxes(self):
        lo, hi = es.middle_fourth_cantor().support_box()
        assert_allclose([lo[0], hi[0]], [0.0, 2.0 / 3.0])
        lo, hi = es.middle_third_cantor().support_box()
        assert_allclose([lo[0], hi[0]], [0.0, 1.0])


class TestCells:
    def test_box_is_its_own_cell(self):
        box = es.LebesgueBox([0.0, -1.0], [1.0, 2.0])
        [(lo, hi)] = box.cells()
        assert_allclose(lo, [0.0, -1.0])
        assert_allclose(hi, [1.0, 2.0])
        pts, w = np.ones((3, 2)), np.arange(3.0)
        mapped_pts, mapped_w = box.cell_nodes(pts, w)
        assert mapped_pts is pts and mapped_w is w
        cycles = np.array([[1.0, 5.0]])
        assert box.cell_cycles(cycles) is cycles

    def test_disc_cells_are_polar_quadrants(self):
        disc = es.LebesgueDisc([0.2, -0.1], 1.5)
        cells = disc.cells()
        assert_allclose([lo for lo, _ in cells], [[0.0, k * np.pi / 2] for k in range(4)])
        assert_allclose([hi for _, hi in cells], [[1.5, (k + 1) * np.pi / 2] for k in range(4)])
        rt = np.array([[0.5, 0.0], [1.0, np.pi / 2], [1.5, np.pi]])
        xy, w = disc.cell_nodes(rt, np.array([1.0, 2.0, 3.0]))
        assert_allclose(xy, [[0.7, -0.1], [0.2, 0.9], [-1.3, -0.1]], atol=1e-15)
        assert_allclose(w, [0.5, 2.0, 4.5])
        # r and theta each take the larger Cartesian cycle count
        assert_allclose(disc.cell_cycles(np.array([[1.0, 5.0], [3.0, 2.0]])), [[5, 5], [3, 3]])
        # the polar rule integrates the disc's area
        assert es.integrate(lambda y: np.ones(y.shape[0]), disc, es.gauss(16))[0] == (
            pytest.approx(np.pi * 1.5**2, rel=1e-14)
        )



@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    d=st.integers(1, 4),
    data=st.data(),
)
def test_in_box_is_the_half_open_test_of_every_column(d, data):
    edge = st.sampled_from([-1.0, 0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), np.inf, -np.inf, np.nan])
    value = st.one_of(edge, st.floats(-2.0, 2.0))
    x = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=40)))
    lo = np.array(data.draw(st.lists(st.floats(-1.0, 0.5), min_size=d, max_size=d)))
    hi = lo + np.array(data.draw(st.lists(st.floats(0.0, 1.5), min_size=d, max_size=d)))
    np.testing.assert_array_equal(_in_box(x, lo, hi), np.all((x >= lo) & (x < hi), axis=1))
    if d == 1:  # scalar bounds broadcast as they do in the comparison
        np.testing.assert_array_equal(_in_box(x, lo[0], hi[0]), (x[:, 0] >= lo[0]) & (x[:, 0] < hi[0]))


def _histogram(**sizes):
    return es.frac_histogram_test(es.Identity(1), unit_box(), [[1.0]], **sizes)


def _tiling(**sizes):
    return es.tiling_verdict(es.Identity(1), unit_box(), [[1.0]], **sizes)


# every library count, size, level, seed and thread count, as a call of the
# value under test and an integral float the call accepts
INTEGER_ARGUMENTS = {
    "order": (lambda v: es.gauss(order=v), 16.0),
    "n_samples": (lambda v: es.monte_carlo(n_samples=v), 100.0),
    "quad seed": (lambda v: es.monte_carlo(seed=v), 2.0),
    "digit depth": (lambda v: es.digit(depth=v), 12.0),
    "max_subdivisions": (lambda v: es.adaptive(max_subdivisions=v), 10.0),
    "ratio": (lambda v: es.SelfSimilar(v, ((0.0, 0.5), (2.0, 0.5))), 4.0),
    "sample n": (lambda v: es.sample(unit_box(), v), 2.0),
    "sample seed": (lambda v: es.sample(unit_box(), 2, seed=v), 2.0),
    "trunc": (lambda v: selfsimilar_moments(es.middle_fourth_cantor(), [0.5], v), 2.0),
    "identity dim": (lambda v: es.Identity(v), 2.0),
    "unipotent dim": (lambda v: es.Unipotent((lambda p: p[:, 1],), v), 2.0),
    "custom in_dim": (lambda v: es.CustomPhase(lambda p: p, v, 1), 1.0),
    "custom out_dim": (lambda v: es.CustomPhase(lambda p: p, 1, v), 1.0),
    "in_base": (lambda v: es.DigitMap(v, [0, 1], 4, {0: 0.0, 1: 2.0}), 2.0),
    "out_base": (lambda v: es.DigitMap(2, [0, 1], v, {0: 0.0, 1: 2.0}), 4.0),
    "digit map depth": (lambda v: es.DigitMap(2, [0, 1], 4, {0: 0.0, 1: 2.0}, depth=v), 8.0),
    "probe n": (lambda v: es.essential_injectivity_probe(es.Identity(1), unit_box(), n=v), 100.0),
    "lambda4 level": (lambda v: es.lambda4(v), 2.0),
    "lattice dim": (lambda v: es.integer_lattice(v, 1), 2.0),
    "n_centers": (
        lambda v: es.beurling_density(es.integer_lattice(1, 4), [2.0], n_centers=v), 2.0
    ),
    "dyadic basis size": (lambda v: es.dyadic_indicator_basis(unit_box(), v), 2.0),
    "legendre basis size": (lambda v: es.legendre_basis(unit_box(), v), 2.0),
    "histogram n": (lambda v: _histogram(n=v, bins=2), 20.0),
    "histogram bins": (lambda v: _histogram(n=100, bins=v), 2.0),
    "overlap n": (lambda v: es.overlap_volume(es.Identity(1), unit_box(), [1.0], n=v), 10.0),
    "tiling n": (lambda v: _tiling(n=v, bins=2, radius=1), 20.0),
    "tiling radius": (lambda v: _tiling(n=20, bins=2, radius=v), 1.0),
    # seeds 2.5 and True were read as 2 and 1
    "spawn_rng seed": (lambda v: spawn_rng(v, "tag"), 2.0),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_non_integers_and_take_integral_floats(name):
    call, accepted = INTEGER_ARGUMENTS[name]
    for value in (2.5, True, "2", None):
        with pytest.raises(es.DomainError, match="must be an integer"):
            call(value)
    call(accepted)


def test_bounded_integer_messages():
    with pytest.raises(es.DomainError, match=r"^n must be >= 1, got 0$"):
        _integer(0.0, "n", 1)
    with pytest.raises(es.DomainError, match=r"^order must be in \[2, 512\], got 513$"):
        _integer(513, "order", 2, 512)
    assert _integer(np.int64(7), "n", 1, 7) == 7 and type(_integer(3.0, "n")) is int


def test_real_reads_one_finite_number():
    assert _real("2.5", "tol") == 2.5 and type(_real(np.float32(0.5), "tol")) is float
    assert _real(0, "tol", 0) == 0.0
    with pytest.raises(es.DomainError, match=r"^tol must be >= 0, got -1e-09$"):
        _real(-1e-9, "tol", 0)
    for value in (None, True, "x", [], [1.0], {}, np.nan, np.inf, 10**400):
        with pytest.raises(es.DomainError, match="^tol must be"):
            _real(value, "tol")


def _onb(**tols):
    return es.verify_onb(unit_box(), es.Identity(1), es.integer_lattice(1, 1), es.gauss(8), **tols)


def _window_check(**kwargs):
    ws = es.WindowSystem(
        [0.0], [1.0], [[0.0]], es.integer_lattice(1, 1), es.Affine([[1.0]])
    )
    return es.verify_system_on_window(ws, ([0.0], [1.0]), **kwargs)


# value arguments that leaked TypeError, ValueError, OverflowError, IndexError,
# KeyError or LinAlgError past the library's readers
VALUE_ARGUMENTS = [
    ("adaptive", "abs_tol", lambda v: es.adaptive(abs_tol=v), [None, "x", []]),
    ("verify_onb", "tol_orth", lambda v: _onb(tol_orth=v), [None, "x"]),
    ("verify_onb", "tol_complete", lambda v: _onb(tol_complete=v), [None, "x"]),
    ("Triangular2D", "K", lambda v: es.Triangular2D(np.exp, K=v), [None, "x", []]),
    # float(base) is exact up to 2^53; 1e300 overflowed the digit arithmetic
    (
        "DigitMap", "in_base",
        lambda v: es.DigitMap(v, [0, 1], 4, {0: 0.0, 1: 2.0}), [10**400, 1e300, 2**53 + 1],
    ),
    ("DigitMap", "digit_map", lambda v: es.DigitMap(2, [0, 1], 4, v), [None, "x"]),
    ("Unipotent", "shifts", lambda v: es.Unipotent(v, dim=2), [None, True]),
    (
        "overlap_volume", "k",
        lambda v: es.overlap_volume(es.Identity(1), unit_box(), v, n=10), [None, "x"],
    ),
    (
        "synthesize", "values",
        lambda v: es.synthesize(v, es.Identity(1), es.integer_lattice(1, 1)), [10**400],
    ),
    (
        "unimodular_conjugation_check", "M",
        lambda v: es.unimodular_conjugation_check(
            unit_box(), es.Identity(1), v, 1, es.gauss(8)
        ),
        [[], "x"],
    ),
    (
        "beurling_density", "centers_box",
        lambda v: es.beurling_density(es.integer_lattice(1, 4), [2.0], centers_box=v), [[], {}],
    ),
    (
        "tiling_verdict", "box",
        lambda v: es.tiling_verdict(es.Identity(1), v, [[1.0]], n=10), [None, True, "x"],
    ),
    ("verify_system_on_window", "tol", lambda v: _window_check(tol=v), [None, "x"]),
    ("verify_system_on_window", "exploratory", lambda v: _window_check(exploratory=v), ["false"]),
]


@pytest.mark.parametrize(
    "call, value",
    [(call, value) for _, _, call, values in VALUE_ARGUMENTS for value in values],
    ids=[
        f"{name}-{arg}-{'10**400' if value == 10**400 else repr(value)}"
        for name, arg, _, values in VALUE_ARGUMENTS
        for value in values
    ],
)
def test_value_arguments_refused_with_domain_error(call, value):
    with pytest.raises(es.DomainError):
        call(value)
