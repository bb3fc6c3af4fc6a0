"""Verification core: Gram matrices, orthonormal-basis verdicts, frame bounds.

The Gram of a generalized exponential system E(Lambda, phi) over mu is
G[i, j] = integral of e^{2 pi i (lambda_i - lambda_j) . phi(x)} dmu(x).
Entries depend only on the frequency difference, so one integral is computed
per distinct difference and broadcast across the matrix.  When the pair
(mu, phi) reduces to a recognized self-similar pushforward, entries come from
the validated Fourier product formula instead of quadrature.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import measures, phases
from ._oscillatory import _inside, effective_pair, exp_moments, measure_rule, rule_for
from .errors import DomainError, QuadratureError
from .measures import QuadratureSpec
from .spectra import SpectrumSet, lattice, unique_rows

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


def unique_differences(points):
    """(unique_diffs, inverse) with inverse indexing the (m, m) difference grid."""
    m = points.shape[0]
    diffs = points[:, None, :] - points[None, :, :]
    uniq, inverse = unique_rows(diffs.reshape(m * m, -1))
    return uniq, inverse.reshape(m, m)


@dataclass
class GramReport:
    spectrum: SpectrumSet
    entries: np.ndarray
    entry_errors: np.ndarray
    max_offdiag: float
    diag_dev: float
    hermiticity_residual: float
    quad: QuadratureSpec
    path: str
    n_pairs: int
    n_unique_differences: int
    total_mass: float

    @property
    def quad_error(self):
        return float(np.max(self.entry_errors)) if self.entry_errors.size else 0.0

    def to_json_dict(self):
        return {
            "n": int(self.spectrum.size),
            "max_offdiag": self.max_offdiag,
            "diag_dev": self.diag_dev,
            "hermiticity": self.hermiticity_residual,
            "quad_error": self.quad_error,
            "path": self.path,
            "n_pairs": self.n_pairs,
            "n_unique_differences": self.n_unique_differences,
            "quad": self.quad.to_json_dict(),
        }

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im"])
            m = self.entries.shape[0]
            for i in range(m):
                for j in range(m):
                    writer.writerow(
                        [i, j, repr(self.entries[i, j].real), repr(self.entries[i, j].imag)]
                    )


def gram(mu, phi, spectrum: SpectrumSet, quad: QuadratureSpec, threads=1) -> GramReport:
    """Gram matrix report of E(spectrum, phi) over mu."""
    pts = spectrum.points
    m = pts.shape[0]
    if m > 4096:
        raise DomainError("spectrum truncation above the 4096-entry cap")
    uniq, inverse = unique_differences(pts)

    eff_mu, eff_phi = effective_pair(mu, phi)
    reduced = None
    if quad.scheme != "monte-carlo" and pts.shape[1] == 1:
        reduced = phases.as_selfsimilar(eff_mu, eff_phi)

    if reduced is not None:
        trunc = max(quad.depth, 40) if quad.scheme == "self-similar-digit" else 40
        vals, errs = measures.selfsimilar_moments(reduced, uniq[:, 0], trunc)
        path = "product-formula"
    else:
        vals, errs = exp_moments(eff_mu, eff_phi, uniq, quad, threads=threads)
        vals, errs = vals[:, 0], errs[:, 0]
        path = "quadrature"

    G = vals[inverse]
    E = errs[inverse]
    mass = mu.total_mass
    off = np.abs(G)
    np.fill_diagonal(off, 0.0)
    return GramReport(
        spectrum=spectrum,
        entries=G,
        entry_errors=E,
        max_offdiag=float(off.max()) if m > 1 else 0.0,
        diag_dev=float(np.max(np.abs(np.diagonal(G) - mass))),
        hermiticity_residual=float(np.max(np.abs(G - G.conj().T))),
        quad=quad,
        path=path,
        n_pairs=m * m,
        n_unique_differences=int(uniq.shape[0]),
        total_mass=mass,
    )


# ---------------------------------------------------------------------------
# test functions and ONB verification
# ---------------------------------------------------------------------------


@dataclass
class TestFunction:
    name: str
    fn: object  # vectorized (n, d) -> (n,)
    support_box: tuple | None = None
    norm_sq: float | None = None


def default_test_battery(mu) -> list:
    """Polynomials up to degree 4, an indicator, and one oscillatory function."""
    lo, hi = mu.support_box()
    d = mu.dim
    width = hi - lo
    battery = [TestFunction("one", lambda x: np.ones(x.shape[0]))]
    battery.append(TestFunction("x1", lambda x: x[:, 0]))
    if d > 1:
        battery.append(TestFunction("x_last", lambda x: x[:, -1]))
    battery.append(TestFunction("x1_sq", lambda x: x[:, 0] ** 2))
    battery.append(
        TestFunction("poly4", lambda x: (x[:, 0] - float(lo[0])) ** 4)
    )
    half = (lo.copy(), (lo + 0.5 * width).copy())
    battery.append(
        TestFunction(
            "indicator_half",
            lambda x: np.ones(x.shape[0]),
            support_box=half,
            norm_sq=None,
        )
    )
    battery.append(
        TestFunction(
            "oscillatory",
            lambda x: np.cos(2 * np.pi * np.sum((x - lo) / width, axis=1)),
        )
    )
    return battery


def periodic_test_battery(mu) -> list:
    """Battery of box-periodic-friendly functions plus one linear coordinate.

    Sharp-truncation Parseval ratios of boundary-mismatched functions (x^2,
    indicators) fall below 0.98 at small truncations for analytic reasons;
    this battery keeps every ratio above that line at radius >= 8.
    """
    lo, hi = mu.support_box()
    width = hi - lo
    battery = [
        TestFunction("one", lambda x: np.ones(x.shape[0])),
        TestFunction("x_last", lambda x: x[:, -1]),
        TestFunction(
            "cos_x1",
            lambda x: np.cos(2 * np.pi * (x[:, 0] - lo[0]) / width[0]),
        ),
        TestFunction(
            "trig_mix",
            lambda x: np.cos(2 * np.pi * (x[:, 0] - lo[0]) / width[0])
            * (np.sin(2 * np.pi * (x[:, -1] - lo[-1]) / width[-1]) + 0.5),
        ),
    ]
    return battery


@dataclass
class OnbReport:
    gram_report: GramReport
    orthogonal: bool
    parseval_ratios: dict
    bessel_violation: bool
    verdict: str
    tol_orth: float
    tol_complete: float

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "orthogonal": bool(self.orthogonal),
            "parseval_ratios": {k: float(v) for k, v in self.parseval_ratios.items()},
            "bessel_violation": bool(self.bessel_violation),
            "tol_orth": self.tol_orth,
            "tol_complete": self.tol_complete,
            "gram": self.gram_report.to_json_dict(),
        }


def verify_onb(
    mu,
    phi,
    spectrum: SpectrumSet,
    quad: QuadratureSpec,
    tol_orth=1e-8,
    tol_complete=0.02,
    test_functions=None,
    threads=1,
) -> OnbReport:
    """Orthogonality via the Gram, completeness via a Parseval-ratio proxy.

    PASS requires max_offdiag and diag_dev below tol_orth and every ratio
    sum_lambda |c_lambda|^2 / (mass * ||f||^2) within tol_complete of 1.
    Ratios above 1 + tol signal quadrature trouble (Bessel violation,
    reported distinctly as FAIL); ratios below 1 - tol with clean
    orthogonality yield INCONCLUSIVE, since spectrum truncation alone can
    explain them.  No finite battery certifies completeness.  A non-finite
    ratio raises QuadratureError.
    """
    report = gram(mu, phi, spectrum, quad, threads=threads)
    orthogonal = report.max_offdiag <= tol_orth and report.diag_dev <= tol_orth

    battery = test_functions if test_functions is not None else default_test_battery(mu)
    if not battery:
        raise DomainError("test_functions must be nonempty")
    cquad = rule_for(mu, phi, quad)
    coeffs, _ = exp_moments(  # c_lambda is the f-weighted moment at -lambda
        mu, phi, -spectrum.points, cquad,
        weights=[(tf.fn, tf.support_box) for tf in battery], threads=threads,
    )
    # ||f||^2 as the lambda = 0 moment of |f|^2 on the same supports
    norm_sq = [tf.norm_sq for tf in battery]
    unknown = [j for j, tf in enumerate(battery) if tf.norm_sq is None]
    if unknown:
        norms, _ = exp_moments(
            mu,
            phases.Identity(mu.dim),
            np.zeros((1, mu.dim)),
            measure_rule(mu, cquad),
            weights=[
                (lambda x, fn=battery[j].fn: np.abs(fn(x)) ** 2, battery[j].support_box)
                for j in unknown
            ],
            threads=threads,
        )
        for j, value in zip(unknown, np.real(norms[0])):
            norm_sq[j] = float(value)
    ratios = {
        tf.name: float(np.sum(np.abs(coeffs[:, j]) ** 2) / (mu.total_mass * norm_sq[j]))
        for j, tf in enumerate(battery)
    }
    bad = {name: r for name, r in ratios.items() if not np.isfinite(r)}
    if bad:
        raise QuadratureError(f"non-finite Parseval ratio(s) {bad}")
    bessel = any(r > 1.0 + tol_complete for r in ratios.values())

    if not orthogonal or bessel:
        verdict = FAIL
    elif any(r < 1.0 - tol_complete for r in ratios.values()):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return OnbReport(
        gram_report=report,
        orthogonal=orthogonal,
        parseval_ratios=ratios,
        bessel_violation=bessel,
        verdict=verdict,
        tol_orth=tol_orth,
        tol_complete=tol_complete,
    )


# ---------------------------------------------------------------------------
# frame bounds
# ---------------------------------------------------------------------------


@dataclass
class TestBasis:
    functions: list  # of TestFunction with norm_sq == 1
    descriptor: str
    exactly_orthonormal: bool


def dyadic_indicator_basis(mu, m) -> TestBasis:
    """Normalized indicators of an m-cell partition along each axis.

    Cells are congruent sub-boxes; disjoint supports make the family exactly
    orthonormal in L^2(mu) for any box measure.  For dim > 1, m must be a
    perfect d-th power and cells form the tensor partition.
    """
    if not isinstance(mu, measures.LebesgueBox):
        raise DomainError("the dyadic indicator basis requires a box measure")
    d = mu.dim
    per_dim = round(max(m, 0) ** (1.0 / d))
    if m < 1 or per_dim**d != m:
        raise DomainError(f"m={m} is not a positive {d}-th power")
    lo, hi = mu.support_box()
    edges = [np.linspace(lo[i], hi[i], per_dim + 1) for i in range(d)]
    cell_vol = mu.total_mass / m
    scale = 1.0 / np.sqrt(cell_vol)
    functions = []
    idx = np.stack(
        np.meshgrid(*[np.arange(per_dim)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    for cell in idx:
        clo = np.array([edges[i][cell[i]] for i in range(d)])
        chi = np.array([edges[i][cell[i] + 1] for i in range(d)])
        functions.append(
            TestFunction(
                name=f"cell_{'_'.join(map(str, cell))}",
                fn=(lambda x, s=scale: np.full(x.shape[0], s)),
                support_box=(clo, chi),
                norm_sq=1.0,
            )
        )
    return TestBasis(functions, f"dyadic-indicators m={m}", True)


def legendre_basis(mu, m) -> TestBasis:
    """Normalized Legendre polynomials on a 1-d box (smooth alternative)."""
    if not isinstance(mu, measures.LebesgueBox) or mu.dim != 1:
        raise DomainError("the Legendre basis is implemented for 1-d boxes")
    lo, hi = float(mu.lo[0]), float(mu.hi[0])
    width = hi - lo
    functions = []
    for j in range(m):
        coeffs = np.zeros(j + 1)
        coeffs[j] = 1.0

        def fn(x, c=coeffs, lo=lo, width=width, j=j):
            t = 2.0 * (x[:, 0] - lo) / width - 1.0
            return np.polynomial.legendre.legval(t, c) * np.sqrt((2 * j + 1) / width)

        functions.append(TestFunction(name=f"P{j}", fn=fn, norm_sq=1.0))
    return TestBasis(functions, f"legendre m={m}", True)


@dataclass
class FrameBoundsReport:
    a_est: float
    b_est: float
    singular_values: np.ndarray
    spectrum_size: int
    subspace_dim: int
    basis_descriptor: str
    orthonormality_residual: float

    def to_json_dict(self):
        return {
            "a_est": self.a_est,
            "b_est": self.b_est,
            "spectrum_size": self.spectrum_size,
            "subspace_dim": self.subspace_dim,
            "test_basis": self.basis_descriptor,
            "orthonormality_residual": self.orthonormality_residual,
            "bias_note": (
                "a_est upper-bounds the true lower bound on the test subspace; "
                "b_est lower-bounds the true upper bound (spectrum truncation)"
            ),
        }


def frame_bounds(
    mu, phi, spectrum: SpectrumSet, test_basis: TestBasis, quad: QuadratureSpec,
    threads=1,
) -> FrameBoundsReport:
    """Extreme squared singular values of T[lambda, j] = <psi_j, e_lambda o phi>.

    For f = sum c_j psi_j the frame sum over the truncated spectrum is
    ||T c||^2, so min/max squared singular values estimate the frame bounds
    restricted to the test subspace.  The test basis must be orthonormal in
    L^2(mu) within 1e-10 (exact-by-construction bases skip the numeric check).
    """
    resid = 0.0
    if not test_basis.exactly_orthonormal:
        resid = _basis_orthonormality_residual(mu, test_basis, quad)
        if resid > 1e-10:
            raise DomainError(
                f"test basis is not orthonormal: residual {resid:.3e} > 1e-10"
            )
    lam = spectrum.points
    T, _ = exp_moments(  # (|Lambda|, M): <psi_j, e_lambda o phi> at -lambda
        mu, phi, -lam, quad,
        weights=[(tf.fn, tf.support_box) for tf in test_basis.functions], threads=threads,
    )
    from scipy.linalg import svd

    try:
        s = svd(T, compute_uv=False, lapack_driver="gesvd")
    except Exception as exc:  # pragma: no cover - LAPACK non-convergence
        raise QuadratureError(f"SVD failed to converge: {exc}") from exc
    return FrameBoundsReport(
        a_est=float(s.min() ** 2),
        b_est=float(s.max() ** 2),
        singular_values=s,
        spectrum_size=int(lam.shape[0]),
        subspace_dim=len(test_basis.functions),
        basis_descriptor=test_basis.descriptor,
        orthonormality_residual=float(resid),
    )


def _basis_orthonormality_residual(mu, test_basis, quad):
    """max |<psi_i, psi_j> - delta_ij| from one stack of products psi_i conj(psi_j)."""

    def masked(tf, x):
        v = np.asarray(tf.fn(x))
        return v if tf.support_box is None else np.where(_inside(x, tf.support_box), v, 0.0)

    fns = test_basis.functions
    pairs = list(combinations_with_replacement(range(len(fns)), 2))
    products = [
        (lambda x, a=fns[i], b=fns[j]: masked(a, x) * np.conj(masked(b, x)), None)
        for i, j in pairs
    ]
    vals, _ = exp_moments(
        mu, phases.Identity(mu.dim), np.zeros((1, mu.dim)), measure_rule(mu, quad),
        weights=products,
    )
    Gpsi = np.zeros((len(fns), len(fns)), dtype=complex)
    for (i, j), val in zip(pairs, vals[0]):
        Gpsi[i, j], Gpsi[j, i] = val, np.conj(val)
    return float(np.max(np.abs(Gpsi - np.eye(len(fns)))))


# ---------------------------------------------------------------------------
# unimodular conjugation
# ---------------------------------------------------------------------------


def unimodular_conjugation_check(mu, phi, M, radius, quad: QuadratureSpec, threads=1):
    """Max entry deviation between Gram(M phi) and the M^T-reindexed Gram(phi).

    For integer unimodular M, e^{2 pi i k . (M phi)} == e^{2 pi i (M^T k) . phi},
    so the Gram of the conjugated system is the reindexing of the original:
    G^{M phi}_{k,k'} = G^{phi}_{M^T k, M^T k'} for every pair in the truncation.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.allclose(M, np.round(M), atol=1e-12):
        raise DomainError("M must have integer entries")
    if abs(abs(np.linalg.det(M)) - 1.0) > 1e-12:
        raise DomainError("M must be unimodular (|det| == 1)")
    d = M.shape[0]
    lam = lattice(np.eye(d), radius)
    if lam.size < 2:
        raise DomainError("truncation too small to compare any pair")
    uniq, _ = unique_differences(lam.points)
    conj_phase = phases.compose(phases.Affine(M), phi)
    g_conj, _ = exp_moments(mu, conj_phase, uniq, quad, threads=threads)
    g_base, _ = exp_moments(mu, phi, uniq @ M, quad, threads=threads)
    return float(np.max(np.abs(g_conj[:, 0] - g_base[:, 0])))
