"""Discretization of semidirect-product group actions into windowed systems.

The group R^d x| R^m acts by t . y = exp(sum_k t_k A_k) y for pairwise
commuting A_k; its generalized time-frequency atoms over a window Omega and
translation set Gamma are

    a_{lambda, gamma}(s) = e^{2 pi i phase(s - gamma) . lambda} 1_Omega(s - gamma)

with phase(t) = exp(-sum_k t_k A_k)^T ell.  Windowed verification exploits
the disjoint supports: the Gram block-diagonalizes over gamma, and every
block equals the single Gram of E(Lambda, phase) over Lebesgue(Omega) by the
change of variables u = s - gamma (for the ax+b family the e^kappa spectrum
dilation cancels the same way), so the block is computed once and replicated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import DomainError
from .measures import LebesgueBox, QuadratureSpec, _finite
from .phases import PhaseMap
from .spectra import SpectrumSet


@dataclass(frozen=True)
class GroupData:
    """Commuting generator matrices A_1..A_m and the functional vector ell."""

    matrices: tuple
    ell: tuple

    def __post_init__(self):
        mats = _finite(self.matrices, "group matrices")
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DomainError("matrices must be a stack of square matrices")
        worst = 0.0
        for i in range(mats.shape[0]):
            for j in range(i + 1, mats.shape[0]):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                worst = max(worst, float(np.max(np.abs(comm))))
        if worst > 1e-12:
            raise DomainError(
                f"generator matrices must pairwise commute (residual {worst:.3e})"
            )
        ell = _finite(self.ell, "group ell")
        if ell.shape != (mats.shape[1],):
            raise DomainError("ell must match the matrix dimension")
        object.__setattr__(
            self, "matrices", tuple(tuple(map(tuple, m)) for m in mats.tolist())
        )
        object.__setattr__(self, "ell", tuple(ell.tolist()))

    @property
    def m(self):
        return len(self.matrices)

    @property
    def d(self):
        return len(self.ell)

    def matrix_stack(self):
        return np.asarray(self.matrices, dtype=float)

    def ell_vector(self):
        return np.asarray(self.ell, dtype=float)


class GroupExpPhase(PhaseMap):
    """phase(t) = exp(-sum_k t_k A_k)^T ell, with the analytic Jacobian
    column d(phase)/dt_k = -exp(-sum t_j A_j)^T A_k^T ell (valid because the
    A_k commute).  The matrix exponential is scaling-and-squaring Pade
    (scipy.linalg.expm), batched over evaluation points."""

    def __init__(self, group: GroupData):
        self.group = group
        self.in_dim = group.m
        self.out_dim = group.d
        self._A = group.matrix_stack()
        self._ell = group.ell_vector()

    def _exp_stack(self, pts):
        import scipy.linalg  # here, not at module level: slow to import, rarely needed

        B = -np.einsum("nk,kij->nij", pts, self._A)
        with np.errstate(over="ignore", invalid="ignore"):
            E = scipy.linalg.expm(B)
        if not np.all(np.isfinite(E)):
            raise DomainError("matrix exponential overflow for extreme t")
        return E

    def _eval(self, pts):
        E = self._exp_stack(pts)
        return np.einsum("nji,j->ni", E, self._ell)

    def jacobian_batch(self, pts, h=1e-5):
        # d/dt_k exp(-B)^T ell = -(A_k exp(-B))^T ell since the A_k commute
        E = self._exp_stack(pts)
        J = np.empty((pts.shape[0], self.out_dim, self.in_dim))
        for k in range(self.in_dim):
            AkE = np.einsum("ij,njk->nik", self._A[k], E)
            J[:, :, k] = -np.einsum("nji,j->ni", AkE, self._ell)
        return J


def phase_from_group(group: GroupData) -> GroupExpPhase:
    return GroupExpPhase(group)


def heisenberg_group() -> GroupData:
    return GroupData(matrices=(((0.0, 1.0), (0.0, 0.0)),), ell=(1.0, 0.0))


def poly2d_group() -> GroupData:
    a1 = ((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    a2 = ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    return GroupData(matrices=(a1, a2), ell=(1.0, 0.0, 0.0))


def axb_group() -> GroupData:
    return GroupData(matrices=(((1.0,),),), ell=(1.0,))


def shearlet_group() -> GroupData:
    a1 = ((1.0, 0.0), (0.0, 1.0))
    a2 = ((0.0, 1.0), (0.0, 0.0))
    return GroupData(matrices=(a1, a2), ell=(1.0, 0.0))


@dataclass
class WindowSystem:
    omega_lo: np.ndarray
    omega_hi: np.ndarray
    gamma_set: np.ndarray  # (k, m) translations
    spectrum: SpectrumSet
    phase: PhaseMap

    def __post_init__(self):
        omega = LebesgueBox(self.omega_lo, self.omega_hi)  # checks the window
        self.omega_lo, self.omega_hi = omega.lo, omega.hi
        self.gamma_set = np.atleast_2d(_finite(self.gamma_set, "gamma translations"))
        if self.gamma_set.ndim != 2 or self.gamma_set.shape[1] != self.omega_lo.size:
            raise DomainError("gamma translations must match the window dimension")
        if self.phase.in_dim != self.omega_lo.size:
            raise DomainError("phase domain must match the window dimension")
        width = self.omega_hi - self.omega_lo
        k = self.gamma_set.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                gap = np.abs(self.gamma_set[i] - self.gamma_set[j])
                if np.all(gap < width - 1e-12):
                    raise DomainError(
                        "window translates overlap beyond a common boundary"
                    )

    @property
    def omega(self):
        return self.omega_lo.copy(), self.omega_hi.copy()


@dataclass
class AtomSystem:
    window: WindowSystem

    def atom(self, lam, gamma):
        lam = np.asarray(lam, dtype=float)
        gamma = np.asarray(gamma, dtype=float)
        lo, hi = self.window.omega
        phase = self.window.phase

        def a(pts):
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            shifted = pts - gamma
            inside = np.all((shifted >= lo) & (shifted < hi), axis=1)
            out = np.zeros(pts.shape[0], dtype=complex)
            if np.any(inside):
                out[inside] = np.exp(
                    2j * np.pi * (phase(shifted[inside]) @ lam)
                )
            return out

        return a


def build_system(ws: WindowSystem) -> AtomSystem:
    """Evaluable atom family a_{lambda,gamma}; supports disjoint across gamma."""
    return AtomSystem(ws)


@dataclass
class WindowReport:
    mode: str
    verdict: str
    gammas_used: np.ndarray
    block: object  # GramReport or FrameBoundsReport
    blocks_equal_by_translation: bool = True
    max_offdiag: float | None = None
    diag_dev: float | None = None
    a_est: float | None = None
    b_est: float | None = None
    exploratory: bool = False
    notes: tuple = ()

    def to_json_dict(self):
        out = {
            "mode": self.mode,
            "verdict": self.verdict,
            "n_blocks": int(self.gammas_used.shape[0]),
            "blocks_equal_by_translation": self.blocks_equal_by_translation,
            "exploratory": self.exploratory,
            "notes": list(self.notes),
        }
        if self.max_offdiag is not None:
            out["max_offdiag"] = self.max_offdiag
            out["diag_dev"] = self.diag_dev
        if self.a_est is not None:
            out["a_est"] = self.a_est
            out["b_est"] = self.b_est
        return out


def _select_gammas(ws: WindowSystem, window_lo, window_hi):
    lo, hi = ws.omega
    width = hi - lo
    inside = []
    for gamma in ws.gamma_set:
        if np.all(lo + gamma >= window_lo - 1e-9) and np.all(
            hi + gamma <= window_hi + 1e-9
        ):
            inside.append(gamma)
    if not inside:
        raise DomainError("no window translate fits inside the verification window")
    gammas = np.asarray(inside)
    covered = gammas.shape[0] * float(np.prod(width))
    target = float(np.prod(np.asarray(window_hi) - np.asarray(window_lo)))
    if abs(covered - target) > 1e-9 * max(target, 1.0):
        raise DomainError(
            "verification window is not a union of disjoint translates "
            f"(covered {covered}, window volume {target})"
        )
    return gammas


def verify_system_on_window(
    ws: WindowSystem,
    window,
    mode="onb",
    quad: QuadratureSpec | None = None,
    tol=1e-10,
    basis_size=32,
    threads=1,
    exploratory=False,
) -> WindowReport:
    """Verify the windowed atom system over W = union of Omega + gamma.

    onb mode compares every Gram block against total-mass times identity;
    frame mode estimates per-block frame bounds with a dyadic test basis.
    Blocks coincide by translation covariance, so a single block is computed
    (see module docstring); reports always state the spectrum truncation.
    """
    if quad is None:
        quad = QuadratureSpec("tensor-gauss", order=48)
    window_lo = np.atleast_1d(_finite(window[0], "verification window lo"))
    window_hi = np.atleast_1d(_finite(window[1], "verification window hi"))
    if window_lo.shape != ws.omega_lo.shape or window_hi.shape != ws.omega_lo.shape:
        raise DomainError("verification window must match the window dimension")
    gammas = _select_gammas(ws, window_lo, window_hi)
    lo, hi = ws.omega
    block_measure = LebesgueBox(lo, hi)
    notes = (
        "verdict covers the verification window only; no claim about all of R^m",
        f"spectrum truncation: {ws.spectrum.size} points",
    )
    if mode == "onb":
        rep = analysis.gram(block_measure, ws.phase, ws.spectrum, quad, threads=threads)
        ok = rep.max_offdiag <= tol and rep.diag_dev <= tol
        return WindowReport(
            mode=mode,
            verdict=analysis.PASS if ok else analysis.FAIL,
            gammas_used=gammas,
            block=rep,
            max_offdiag=rep.max_offdiag,
            diag_dev=rep.diag_dev,
            exploratory=exploratory,
            notes=notes,
        )
    if mode == "frame":
        basis = analysis.dyadic_indicator_basis(block_measure, basis_size)
        rep = analysis.frame_bounds(
            block_measure, ws.phase, ws.spectrum, basis, quad, threads=threads
        )
        ok = rep.a_est > 0 and np.isfinite(rep.b_est)
        return WindowReport(
            mode=mode,
            verdict=analysis.PASS if ok else analysis.FAIL,
            gammas_used=gammas,
            block=rep,
            a_est=rep.a_est,
            b_est=rep.b_est,
            exploratory=exploratory,
            notes=notes,
        )
    raise DomainError(f"unknown mode {mode!r}")
