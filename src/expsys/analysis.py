"""Verification core: Gram matrices, orthonormal-basis verdicts, frame bounds.

The Gram of a generalized exponential system E(Lambda, phi) over mu is
G[i, j] = integral of e^{2 pi i (lambda_i - lambda_j) . phi(x)} dmu(x).
Entries depend only on the frequency difference, so one integral is computed
per distinct difference and every report scalar is read off that table.  The
(m, m) class of each pair is a `DifferenceTable`: integer spectra hold only
their point and class codes and form a row block of classes when it is read,
so no m^2 array is held unless `GramReport.entries` or `np.asarray` asks.
`_oscillatory.plan` picks how every moment call here runs: Gram entries come
from the validated Fourier product formula when the pair (mu, phi) reduces to
a recognized self-similar pushforward, and from quadrature otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import measures, phases
from ._oscillatory import plan
from .errors import DomainError, QuadratureError, _finite, _integer, _real
from .measures import QuadratureSpec
from .spectra import SpectrumSet, lattice, unique_rows

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
# spectra above this many points are refused before any difference is formed
MAX_GRAM_POINTS = 4096


def unique_differences(points):
    """(keys, inverse, freqs): the difference rows rounded to 12 digits, the
    `DifferenceTable` of each pair's class, and each class's frequency, the
    unrounded points[i] - points[j] of its first pair, mirrored so that
    freqs[n - 1 - u] == -freqs[u] as for the keys (-0.0 folded into 0.0).
    Above MAX_GRAM_POINTS points it raises before any difference is formed.
    Integer-valued points take `_integer_classes`, with the same tables; their
    table holds no m^2 array and forms each class only when read.  Other
    points sort the m^2 difference rows and keep the built (m, m) index
    behind the table."""
    m = points.shape[0]
    if m > MAX_GRAM_POINTS:
        raise DomainError(f"spectrum truncation above the {MAX_GRAM_POINTS}-entry cap")
    integer = _integer_classes(points)
    if integer is not None:
        return integer
    diffs = points[:, None, :] - points[None, :, :]
    keys, inverse, first = unique_rows(diffs.reshape(m * m, -1))
    zero = first.size // 2  # the zero class is the middle row
    i, j = np.divmod(first[: zero + 1], m)
    low = points[i] - points[j]
    inverse = inverse.reshape(m, m)
    table = DifferenceTable(
        m, lambda rows, cols: inverse[rows, cols], np.count_nonzero(inverse == zero) > m
    )
    return keys, table, np.concatenate([low, -low[-2::-1]]) + 0.0


def _row_slices(m):
    """Row slices of an (m, m) table, each about 2^16 entries (at least one row)."""
    step = max(1, (1 << 16) // m)
    return (slice(start, start + step) for start in range(0, m, step))


class DifferenceTable:
    """The (m, m) class index of `unique_differences`: [i, j] is the class of
    points[i] - points[j], and `zero_offdiag` says whether an off-diagonal
    pair falls in the zero class.  Entries are formed only when read, through
    `blocks()`, `[i, j]` (integers or index arrays, broadcast together) or
    `np.asarray`, each by the constructor's `index(rows, cols)` at broadcast
    index arrays.
    """

    def __init__(self, m, index, zero_offdiag):
        self.shape = (m, m)
        self.size = m * m
        self.zero_offdiag = bool(zero_offdiag)
        self._index = index

    def __getitem__(self, key):
        return self._index(*key)

    def blocks(self):
        """(first row, its block of rows) over the table, about 2^16 entries each."""
        rows, cols = np.arange(self.shape[0]), np.arange(self.shape[1])
        for block in _row_slices(self.shape[0]):
            yield block.start, self._index(rows[block, None], cols)

    def __array__(self, dtype=None, copy=None):
        rows = np.arange(self.shape[0])
        return np.asarray(self._index(rows[:, None], rows), dtype=dtype)


def _integer_classes(points):
    """`unique_differences` keyed by exact integers, or None unless the points
    are integer-valued, below 2^51, and their doubled box (each axis's
    differences take 2 (max - min) + 1 values) has at most m^2 bins.

    Such differences are exact doubles below m^2 / 2 <= 2^23 in magnitude, on
    which rounding to 12 digits is the identity (x * 1e12 is exact), so the
    keys are the frequencies themselves, with no -0.0 from int64.  The classes
    of the rounded rows are the distinct integer differences in lexicographic
    order, and every pair of a class, its first included, has the class's
    value.  A mixed-radix code over the doubled box, first axis most
    significant, is ordered as the rows: the code of points[i] - points[j]
    is lin[i] - shifted[j], with shifted = lin - code(span).  A bool mark over the box, set one row block at
    a time, gives the occurring codes, `bins`, in order, and each frequency is
    read off its bin.  The table holds lin and bins only, and ranks a code by
    searchsorted when read.  Distinct points have distinct codes, so the zero
    class occurs off the diagonal exactly when lin repeats."""
    m = points.shape[0]
    if not (np.all(np.abs(points) < 2.0**51) and np.all(points == np.rint(points))):
        return None
    lo = points.min(axis=0)
    span = (points.max(axis=0) - lo).astype(np.int64)
    radix = tuple(2 * int(s) + 1 for s in span)
    if math.prod(radix) > m * m:
        return None
    lin = np.ravel_multi_index((points - lo).astype(np.int64).T, radix)
    shifted = lin - np.ravel_multi_index(span, radix)  # code of i - j: lin[i] - shifted[j]
    occ = np.zeros(math.prod(radix), dtype=bool)
    for rows in _row_slices(m):
        occ[np.subtract.outer(lin[rows], shifted)] = True
    bins = np.flatnonzero(occ)
    del occ  # up to m^2 bytes, freed before the frequencies are formed
    freqs = (np.stack(np.unravel_index(bins, radix), axis=1) - span).astype(float)
    table = DifferenceTable(
        m,
        lambda rows, cols: np.searchsorted(bins, lin[rows] - shifted[cols]),
        np.unique(lin).size < m,
    )
    return freqs.copy(), table, freqs


@dataclass
class GramReport:
    spectrum: SpectrumSet
    values: np.ndarray  # (n,) one moment per unique difference
    errors: np.ndarray  # (n,) its quadrature error estimate
    # (m, m): G[i, j] = values[inverse[i, j]]; formed when read, and on integer
    # spectra never held whole (write_csv reads row blocks; `entries` builds G)
    inverse: DifferenceTable
    max_offdiag: float
    diag_dev: float
    hermiticity_residual: float
    quad_error: float
    quad: QuadratureSpec
    path: str
    n_pairs: int
    n_unique_differences: int

    @property
    def entries(self):
        return self.values[self.inverse]

    def is_orthogonal(self, tol):
        """The one orthogonality rule of the Gram verdicts: both deviations within tol."""
        return self.max_offdiag <= tol and self.diag_dev <= tol

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
            for start, block in self.inverse.blocks():
                for i, row in enumerate(self.values[block].tolist(), start):
                    for j, z in enumerate(row):
                        writer.writerow([i, j, repr(z.real), repr(z.imag)])


def gram(mu, phi, spectrum: SpectrumSet, quad: QuadratureSpec, threads=1) -> GramReport:
    """Gram report of E(spectrum, phi) over mu, read off its difference table."""
    pts = spectrum.points
    m = pts.shape[0]
    keys, inverse, freqs = unique_differences(pts)
    how = plan(mu, phi, quad, "gram")
    vals, errs = how.moments(freqs, threads=threads)
    vals, errs = vals[:, 0], errs[:, 0]

    z = keys.shape[0] // 2  # the zero difference, the middle class, on every diagonal entry
    off = np.abs(vals)
    if not inverse.zero_offdiag:
        off[z] = 0.0
    # G[j, i] = vals[n - 1 - inverse[i, j]]: fl(b - a) = -fl(a - b), rounding is odd and
    # -0 is folded into 0, so -keys[u] = keys[n - 1 - u] (negation reverses lex order)
    return GramReport(
        spectrum=spectrum,
        values=vals,
        errors=errs,
        inverse=inverse,
        max_offdiag=float(off.max()) if m > 1 else 0.0,
        diag_dev=float(np.abs(vals[z] - mu.total_mass)),
        hermiticity_residual=float(np.max(np.abs(vals - vals[::-1].conj()))),
        quad_error=float(np.max(errs)),
        quad=quad,
        path=how.path,
        n_pairs=m * m,
        n_unique_differences=int(keys.shape[0]),
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
    ratio raises QuadratureError, as does a tensor-gauss ||f||^2 whose
    two-order error exceeds 1e-6 of it.  tol_orth must be >= 0 and
    tol_complete in [0, 1); outside those ranges a verdict would not depend
    on the system.
    """
    tol_orth = _real(tol_orth, "tol_orth", 0)
    tol_complete = _real(tol_complete, "tol_complete", 0)
    if not tol_complete < 1:
        raise DomainError(f"tol_complete must be below 1, got {tol_complete!r}")
    report = gram(mu, phi, spectrum, quad, threads=threads)
    orthogonal = report.is_orthogonal(tol_orth)

    battery = test_functions if test_functions is not None else default_test_battery(mu)
    if not battery:
        raise DomainError("test_functions must be nonempty")
    cplan = plan(mu, phi, quad, "weights")
    coeffs, _ = cplan.moments(  # c_lambda is the f-weighted moment at -lambda
        -spectrum.points, [(tf.fn, tf.support_box) for tf in battery], threads=threads
    )
    # ||f||^2 on the same supports, under the measure rule planned from the
    # coefficient rule (not from quad); the measure rule sizes its Gauss panels
    # from the phase alone, so a tensor-gauss norm that f outruns is refused
    norm_sq = [tf.norm_sq for tf in battery]
    unknown = [j for j, tf in enumerate(battery) if tf.norm_sq is None]
    if unknown:
        pairs = [(j, j) for j in unknown]
        norms, errs, rule = _inner_products(mu, battery, pairs, cplan.rule, threads)
        for j, value, err in zip(unknown, np.real(norms), errs):
            if rule.scheme == "tensor-gauss" and err > 1e-6 * abs(value):
                raise QuadratureError(
                    f"tensor-gauss norm of {battery[j].name!r} unresolved: "
                    f"{value:.6g} with error {err:.3e}, above 1e-6 of it"
                )
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


# test bases larger than this are refused before any function is built
MAX_TEST_BASIS = 4096


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
    m = _integer(m, "test basis size", 1, MAX_TEST_BASIS)
    d = mu.dim
    per_dim = round(m ** (1.0 / d))
    if per_dim**d != m:
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
    m = _integer(m, "test basis size", 1, MAX_TEST_BASIS)
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
    restricted to the test subspace.  T runs under `plan(mu, phi, quad, "weights")`.
    With fewer frequencies than test functions T has a null space on the test
    subspace, so a_est is 0.
    The test basis must be orthonormal in L^2(mu) within 1e-10
    (exact-by-construction bases skip the numeric check).
    """
    resid = 0.0
    if not test_basis.exactly_orthonormal:
        resid = _basis_orthonormality_residual(mu, test_basis, quad, threads)
        if resid > 1e-10:
            raise DomainError(
                f"test basis is not orthonormal: residual {resid:.3e} > 1e-10"
            )
    lam = spectrum.points
    T, _ = plan(mu, phi, quad, "weights").moments(  # <psi_j, e_lambda o phi> at -lambda
        -lam, [(tf.fn, tf.support_box) for tf in test_basis.functions], threads=threads
    )
    try:
        s = np.linalg.svd(T, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise QuadratureError(f"SVD failed to converge: {exc}") from exc
    return FrameBoundsReport(
        a_est=float(s.min() ** 2) if T.shape[0] >= T.shape[1] else 0.0,
        b_est=float(s.max() ** 2),
        singular_values=s,
        spectrum_size=int(lam.shape[0]),
        subspace_dim=len(test_basis.functions),
        basis_descriptor=test_basis.descriptor,
        orthonormality_residual=float(resid),
    )


def _box_intersection(a, b):
    """The support box of a product of two weights (None: unboxed)."""
    if a is None or b is None:
        return b if a is None else a
    return np.maximum(a[0], b[0]), np.minimum(a[1], b[1])


def _inner_products(mu, functions, pairs, rule, threads=1):
    """(values, errors, the rule they ran under) of <f_i, f_j> for each (i, j)
    in pairs: the lambda = 0 moments of the products f_i conj(f_j), each on the
    intersection of the two support boxes, in one stack under the "measure"
    plan made from `rule`."""
    products = [
        (lambda x, a=functions[i].fn, b=functions[j].fn: a(x) * np.conj(b(x)),
         _box_intersection(functions[i].support_box, functions[j].support_box))
        for i, j in pairs
    ]
    mplan = plan(mu, phases.Identity(mu.dim), rule, "measure")
    vals, errs = mplan.moments(np.zeros((1, mu.dim)), products, threads=threads)
    return vals[0], errs[0], mplan.rule


def _basis_orthonormality_residual(mu, test_basis, quad, threads=1):
    """max |<psi_i, psi_j> - delta_ij| over every pair of the basis."""
    n = len(test_basis.functions)
    pairs = list(combinations_with_replacement(range(n), 2))
    vals, _, _ = _inner_products(mu, test_basis.functions, pairs, quad, threads)
    Gpsi = np.zeros((n, n), dtype=complex)
    for (i, j), val in zip(pairs, vals):
        Gpsi[i, j], Gpsi[j, i] = val, np.conj(val)
    return float(np.max(np.abs(Gpsi - np.eye(n))))


# ---------------------------------------------------------------------------
# unimodular conjugation
# ---------------------------------------------------------------------------


def unimodular_conjugation_check(mu, phi, M, radius, quad: QuadratureSpec, threads=1):
    """Max entry deviation between Gram(M phi) and the M^T-reindexed Gram(phi).

    For integer unimodular M, e^{2 pi i k . (M phi)} == e^{2 pi i (M^T k) . phi},
    so the Gram of the conjugated system is the reindexing of the original:
    G^{M phi}_{k,k'} = G^{phi}_{M^T k, M^T k'} for every pair in the truncation.
    Both difference tables run as `gram` runs them.
    """
    M = np.atleast_2d(_finite(M, "M"))
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DomainError(f"M must be a non-empty square matrix, got shape {M.shape}")
    if not np.allclose(M, np.round(M), atol=1e-12):
        raise DomainError("M must have integer entries")
    if abs(abs(np.linalg.det(M)) - 1.0) > 1e-12:
        raise DomainError("M must be unimodular (|det| == 1)")
    d = M.shape[0]
    lam = lattice(np.eye(d), radius)
    if lam.size < 2:
        raise DomainError("truncation too small to compare any pair")
    _, _, freqs = unique_differences(lam.points)
    conj_phase = phases.compose(phases.Affine(M), phi)
    g_conj, _ = plan(mu, conj_phase, quad, "gram").moments(freqs, threads=threads)
    g_base, _ = plan(mu, phi, quad, "gram").moments(freqs @ M, threads=threads)
    return float(np.max(np.abs(g_conj[:, 0] - g_base[:, 0])))
