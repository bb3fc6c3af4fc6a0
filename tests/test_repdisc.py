import numpy as np
import pytest
from numpy.testing import assert_allclose

import expsys as es
from expsys.analysis import PASS
from expsys.errors import DomainError
from expsys.repdisc import WindowSystem, verify_system_on_window


class TestPhaseFromGroup:
    def test_zero_generator_gives_constant(self):
        g = es.GroupData(matrices=(((0.0, 0.0), (0.0, 0.0)),), ell=(0.7, -0.3))
        phi = es.phase_from_group(g)
        pts = np.linspace(-2, 2, 9)[:, None]
        out = phi(pts)
        assert_allclose(out, np.tile([0.7, -0.3], (9, 1)), atol=1e-15)

    def test_heisenberg_phase(self):
        phi = es.phase_from_group(es.heisenberg_group())
        t = np.array([[0.0], [0.5], [-1.25], [2.0]])
        out = phi(t)
        assert_allclose(out[:, 0], 1.0, atol=1e-14)
        assert_allclose(out[:, 1], -t[:, 0], atol=1e-14)

    def test_shearlet_phase(self):
        phi = es.phase_from_group(es.shearlet_group())
        t = np.array([[0.2, -0.4], [1.0, 0.7]])
        out = phi(t)
        expected = np.stack(
            [np.exp(-t[:, 0]), -t[:, 1] * np.exp(-t[:, 0])], axis=-1
        )
        assert_allclose(out, expected, atol=1e-13)

    def test_poly2d_phase(self):
        phi = es.phase_from_group(es.poly2d_group())
        t = np.array([[0.3, 0.9], [-1.0, 0.25]])
        out = phi(t)
        expected = np.stack(
            [np.ones(2), -t[:, 0], -t[:, 1] + t[:, 0] ** 2 / 2.0], axis=-1
        )
        assert_allclose(out, expected, atol=1e-13)

    def test_noncommuting_rejected(self):
        a1 = ((0.0, 1.0), (0.0, 0.0))
        a2 = ((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            es.GroupData(matrices=(a1, a2), ell=(1.0, 0.0))

    def test_commuting_flow_identity(self):
        # phase(t + s) = exp(-sum s_k A_k)^T phase(t), exact by commutativity
        rng = np.random.default_rng(0)
        import scipy.linalg

        phi = es.phase_from_group(es.shearlet_group())
        A = phi.group.matrix_stack()
        for _ in range(10):
            t = rng.normal(size=2)
            s = rng.normal(size=2)
            lhs = phi(np.array([t + s]))[0]
            E = scipy.linalg.expm(-np.einsum("k,kij->ij", s, A))
            rhs = E.T @ phi(np.array([t]))[0]
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def _expm_oracle(A, ell, pts):
    """phase and Jacobian through scipy.linalg.expm, point by point."""
    import scipy.linalg

    E = np.stack([scipy.linalg.expm(-np.einsum("k,kij->ij", t, A)) for t in pts])
    phase = np.einsum("nji,j->ni", E, ell)
    J = np.stack([-np.einsum("ij,njk->nki", a, E) @ ell for a in A], axis=-1)
    return E, phase, J


def _commuting_unipotent_stack(rng, d=4, m=3):
    """c_k I + N_k with every N_k a polynomial in one strictly upper N.

    |c_k| <= 1/2 keeps |sum t_k c_k| near the shipped groups' range: expm's
    own relative error grows past 1e-14 once that exponent passes about 2."""
    N = np.triu(rng.normal(size=(d, d)), 1)
    powers = [np.linalg.matrix_power(N, j) for j in range(1, d)]
    mats = [
        rng.uniform(-0.5, 0.5) * np.eye(d) + sum(rng.normal() * P for P in powers)
        for _ in range(m)
    ]
    return es.GroupData(matrices=tuple(map(tuple, (map(tuple, a) for a in mats))), ell=tuple(rng.normal(size=d)))


class TestGroupExponential:
    @pytest.mark.parametrize("name", ["heisenberg", "poly2d", "axb", "shearlet", "random-d4"])
    def test_closed_form_matches_expm(self, name):
        rng = np.random.default_rng(7)
        if name == "random-d4":
            group = _commuting_unipotent_stack(rng)
        else:
            group = getattr(es, f"{name}_group")()
        phi = es.phase_from_group(group)
        # |t| <= 1: further out expm itself drifts (next test)
        pts = rng.uniform(-1.0, 1.0, size=(64, group.m))
        E, phase, J = _expm_oracle(phi.group.matrix_stack(), phi.group.ell_vector(), pts)
        scale = 1.0 + np.max(np.abs(E), axis=(1, 2))
        assert np.all(np.max(np.abs(phi(pts) - phase), axis=1) <= 1e-14 * scale)
        err = np.max(np.abs(phi.jacobian_batch(pts) - J), axis=(1, 2))
        assert np.all(err <= 1e-14 * scale)

    def test_closed_form_is_exact_where_expm_drifts(self):
        # at t1 = -2.1 expm's shearlet entries are off by 5e-14 relative;
        # the closed form is the exact (e^{-t1}, -t2 e^{-t1}) to round-off
        phi = es.phase_from_group(es.shearlet_group())
        t = np.random.default_rng(7).normal(scale=3.0, size=(256, 2))
        exact = np.stack([np.exp(-t[:, 0]), -t[:, 1] * np.exp(-t[:, 0])], axis=-1)
        assert_allclose(phi(t), exact, rtol=4e-16, atol=0)

    @pytest.mark.parametrize(
        "matrix", [((1.0, 0.0), (0.0, 2.0)), ((0.0, 1.0), (-1.0, 0.0))]
    )
    def test_other_stacks_run_through_expm(self, matrix):
        group = es.GroupData(matrices=(matrix,), ell=(1.0, 0.5))
        phi = es.phase_from_group(group)
        pts = np.linspace(-2.0, 2.0, 9)[:, None]
        import scipy.linalg

        E = scipy.linalg.expm(-np.einsum("nk,kij->nij", pts, group.matrix_stack()))
        np.testing.assert_array_equal(phi(pts), np.einsum("nji,j->ni", E, group.ell_vector()))
        _, phase, J = _expm_oracle(group.matrix_stack(), group.ell_vector(), pts)
        assert_allclose(phi(pts), phase, rtol=0, atol=1e-13)
        assert_allclose(phi.jacobian_batch(pts), J, rtol=0, atol=1e-13)

    def test_shearlet_overflow_refused(self):
        phi = es.phase_from_group(es.shearlet_group())
        with pytest.raises(DomainError):
            phi(np.array([[-1000.0, 0.5]]))
        with pytest.raises(DomainError):
            phi.jacobian_batch(np.array([[-1000.0, 0.0]]))

    def test_empty_points(self):
        phi = es.phase_from_group(es.poly2d_group())
        assert phi(np.empty((0, 2))).shape == (0, 3)


def heisenberg_system(radius=8):
    phi = es.phase_from_group(es.heisenberg_group())
    points = [[0.0, float(k)] for k in range(-radius, radius + 1)]
    return WindowSystem(
        omega_lo=[0.0],
        omega_hi=[1.0],
        gamma_set=[[float(g)] for g in range(-2, 3)],
        spectrum=es.explicit(points),
        phase=phi,
    )


class TestAtoms:
    def test_zero_index_atom_is_indicator(self):
        ws = heisenberg_system()
        atoms = es.build_system(ws)
        a = atoms.atom([0.0, 0.0], [0.0])
        s = np.array([[-0.5], [0.25], [0.75], [1.5]])
        assert_allclose(a(s), [0.0, 1.0, 1.0, 0.0], atol=1e-15)

    def test_disjoint_supports_no_quadrature_needed(self):
        # cross-block products vanish pointwise: block diagonalization is exact
        ws = heisenberg_system()
        atoms = es.build_system(ws)
        a = atoms.atom([0.0, 3.0], [0.0])
        b = atoms.atom([0.0, -2.0], [1.0])
        s = np.linspace(-3, 4, 71)[:, None]
        prods = a(s) * np.conj(b(s))
        assert np.all(prods == 0.0)

    def test_translate_overlap_rejected(self):
        with pytest.raises(ValueError):
            WindowSystem(
                omega_lo=[0.0],
                omega_hi=[1.0],
                gamma_set=[[0.0], [0.5]],
                spectrum=es.explicit([[0.0, 0.0]]),
                phase=es.phase_from_group(es.heisenberg_group()),
            )

    def test_gamma_set_above_cap_rejected(self):
        # refused before any pair is compared, however far apart the translates
        with pytest.raises(DomainError, match="4097 gamma translations"):
            WindowSystem(
                omega_lo=[0.0],
                omega_hi=[1.0],
                gamma_set=np.arange(4097.0)[:, None],
                spectrum=es.explicit([[0.0, 0.0]]),
                phase=es.phase_from_group(es.heisenberg_group()),
            )

    def test_overlap_found_in_any_row_block(self):
        # 4096 unit-spaced translates pass; moving row 300 (past the first
        # row block) half a window from the last translate makes them overlap
        gammas = np.arange(4096.0)[:, None]
        kwargs = dict(
            omega_lo=[0.0],
            omega_hi=[1.0],
            spectrum=es.explicit([[0.0, 0.0]]),
            phase=es.phase_from_group(es.heisenberg_group()),
        )
        WindowSystem(gamma_set=gammas, **kwargs)
        gammas[300] = 4095.5
        with pytest.raises(DomainError, match="overlap"):
            WindowSystem(gamma_set=gammas, **kwargs)


class TestVerifyOnWindow:
    def test_heisenberg_blocks_are_identity(self):
        ws = heisenberg_system(radius=8)
        rep = verify_system_on_window(
            ws, ([-2.0], [3.0]), mode="onb", quad=es.gauss(48), tol=1e-10
        )
        assert rep.verdict == PASS
        assert rep.block.max_offdiag <= 1e-10
        assert rep.block.diag_dev <= 1e-10
        assert rep.gammas_used.shape[0] == 5

    def test_heisenberg_agrees_with_direct_gram_bitwise(self):
        # the windowed block is exactly the analysis-module Gram call
        ws = heisenberg_system(radius=4)
        rep = verify_system_on_window(
            ws, ([-2.0], [3.0]), mode="onb", quad=es.gauss(48), tol=1e-10
        )
        direct = es.gram(
            es.LebesgueBox([0.0], [1.0]), ws.phase, ws.spectrum, es.gauss(48)
        )
        assert np.array_equal(rep.block.entries, direct.entries)

    def test_poly2d_windowed_onb(self):
        phi = es.phase_from_group(es.poly2d_group())
        pts = [
            [0.0, float(k1), float(k2)]
            for k1 in range(-3, 4)
            for k2 in range(-3, 4)
        ]
        ws = WindowSystem(
            omega_lo=[0.0, 0.0],
            omega_hi=[1.0, 1.0],
            gamma_set=[[float(a), float(b)] for a in (-1, 0) for b in (-1, 0)],
            spectrum=es.explicit(pts),
            phase=phi,
        )
        rep = verify_system_on_window(
            ws, ([-1.0, -1.0], [1.0, 1.0]), mode="onb", quad=es.gauss(48), tol=1e-10
        )
        assert rep.verdict == PASS

    def test_axb_frame_bounds_positive(self):
        phi = es.phase_from_group(es.axb_group())
        L = np.exp(0.5) - np.exp(-0.5)
        pts = [[k / L] for k in range(-24, 25)]
        ws = WindowSystem(
            omega_lo=[-0.5],
            omega_hi=[0.5],
            gamma_set=[[-1.0], [0.0], [1.0]],
            spectrum=es.explicit(pts),
            phase=phi,
        )
        rep = verify_system_on_window(
            ws, ([-1.5], [1.5]), mode="frame", quad=es.gauss(48), basis_size=32
        )
        assert rep.verdict == PASS
        assert 0.0 < rep.block.a_est <= rep.block.b_est < np.inf
        # the pushforward density 1/x on [e^-1/2, e^1/2] is pinched between
        # its extremes, so the bounds land within those weights roughly
        assert rep.block.b_est <= np.exp(0.5) * 1.2

    def test_window_misalignment_rejected(self):
        ws = heisenberg_system()
        with pytest.raises(DomainError):
            verify_system_on_window(ws, ([-2.0], [2.5]), mode="onb")

    def test_overflow_guard(self):
        phi = es.phase_from_group(es.axb_group())
        with pytest.raises(DomainError):
            phi(np.array([[-2000.0]]))
