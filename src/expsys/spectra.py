"""Frequency sets: lattices, dual lattices, the four-adic binary spectrum,
and empirical Beurling densities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .measures import _finite
from .seeding import spawn_rng

# lattice() and window_count() refuse to enumerate more points than this
MAX_LATTICE_BOX = 1 << 20
# beurling_density() refuses to enumerate more points over all windows and centres
MAX_DENSITY_WORK = 1 << 26


def unique_rows(rows):
    """(uniq, inverse) of the rows of a finite (n, d) array, rounded to 12
    digits in place; uniq is sorted lexicographically as by np.unique(axis=0)
    and -0.0 is folded into 0.0."""
    np.round(rows, 12, out=rows)
    rows += 0.0
    order = np.lexsort(rows.T[::-1])
    new = np.zeros(rows.shape[0], dtype=bool)
    new[:1] = True
    for col in rows.T:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


@dataclass(frozen=True)
class SpectrumSet:
    points: np.ndarray  # (m, d)
    generator: dict = field(default_factory=dict)
    truncation: float | None = None

    def __post_init__(self):
        pts = np.atleast_2d(_finite(self.points, "spectrum points"))
        if pts.ndim != 2 or 0 in pts.shape:
            raise DomainError("spectrum points must be a non-empty list of d-vectors")
        if unique_rows(pts.copy())[0].shape[0] != pts.shape[0]:
            raise DomainError("spectrum points must be pairwise distinct")
        kind = self.generator.get("kind")
        if kind in ("lattice", "lambda4"):
            if not np.any(np.all(np.abs(pts) < 1e-12, axis=1)):
                raise DomainError(f"{kind} spectra must contain 0")
        object.__setattr__(self, "points", pts)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def to_json_dict(self):
        out = {"generator": self.generator, "size": self.size, "dim": self.dim}
        if self.truncation is not None:
            out["truncation"] = self.truncation
        return out


def explicit(points) -> SpectrumSet:
    pts = _finite(points, "spectrum points")
    if pts.ndim < 2:
        # a scalar or a flat list of scalars is a 1-d spectrum
        pts = pts.reshape(-1, 1)
    return SpectrumSet(pts, generator={"kind": "explicit"})


def lattice(A, radius) -> SpectrumSet:
    """All points of A Z^d with sup-norm <= radius, sorted lexicographically."""
    A = np.atleast_2d(_finite(A, "lattice A"))
    d = A.shape[0]
    if A.shape != (d, d):
        raise DomainError("A must be square")
    radius = _finite(radius, "lattice radius")
    if radius.shape != ():
        raise DomainError("lattice radius must be a number")
    det = np.linalg.det(A)
    if abs(det) < 1e-14:
        raise DomainError("lattice generator matrix is singular")
    Ainv = np.linalg.inv(A)
    # |k|_inf <= ||A^-1||_inf * radius on the preimage of the sup-ball
    bound = np.ceil(np.max(np.sum(np.abs(Ainv), axis=1)) * radius + 1e-9)
    # "not <=" also refuses an infinite bound before int() sees it
    if not bound <= MAX_LATTICE_BOX or (2 * int(bound) + 1) ** d > MAX_LATTICE_BOX:
        raise DomainError(f"lattice coordinate box above {MAX_LATTICE_BOX} points")
    bound = int(bound)
    ranges = [np.arange(-bound, bound + 1)] * d
    K = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    pts = K @ A.T
    keep = np.max(np.abs(pts), axis=1) <= radius + 1e-9
    pts = pts[keep]
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    return SpectrumSet(
        pts, generator={"kind": "lattice", "A": A.tolist()}, truncation=float(radius)
    )


def integer_lattice(d, radius) -> SpectrumSet:
    return lattice(np.eye(d), radius)


def dual_lattice(A) -> np.ndarray:
    """Generator of the dual lattice: A^{-T}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if abs(np.linalg.det(A)) < 1e-14:
        raise DomainError("lattice generator matrix is singular")
    return np.linalg.inv(A).T


def lambda4(n: int) -> SpectrumSet:
    """Level-n four-adic binary spectrum {sum_{i<n} 4^i a_i : a_i in {0,1}}."""
    if not 1 <= n <= 16:
        raise DomainError("level must satisfy 1 <= n <= 16")
    vals = np.zeros(1, dtype=np.int64)
    for i in range(n):
        vals = np.concatenate([vals, vals + 4**i])
    vals = np.sort(vals)
    pts = vals.astype(float)[:, None]
    return SpectrumSet(pts, generator={"kind": "lambda4", "n": n}, truncation=n)


@dataclass
class DensityReport:
    windows: list
    d_plus: list
    d_minus: list
    verdict: str
    n_centers: int

    def to_json_dict(self):
        return {
            "windows": list(self.windows),
            "d_plus": list(self.d_plus),
            "d_minus": list(self.d_minus),
            "verdict": self.verdict,
            "n_centers": self.n_centers,
        }


def _coordinate_box(A, lo, hi):
    """Integer coordinates (klo, khi) whose box maps under A over [lo, hi)."""
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, len(lo))
    Kc = corners @ np.linalg.inv(A).T
    return np.floor(Kc.min(axis=0)) - 1, np.ceil(Kc.max(axis=0)) + 1


def _lambda4_levels(top):
    """Levels with 4^i < top: an element with a digit at 4^i >= top exceeds top."""
    return sum(4**i < top for i in range(31))


def _enumeration_size(spectrum, lo, hi):
    """Points window_count enumerates for [lo, hi)."""
    kind = spectrum.generator.get("kind")
    if kind == "lattice":
        klo, khi = _coordinate_box(np.asarray(spectrum.generator["A"], dtype=float), lo, hi)
        return float(np.prod(khi - klo + 1))
    if kind == "lambda4":
        return 2.0 ** _lambda4_levels(hi[0])
    return spectrum.points.shape[0]


def window_count(spectrum: SpectrumSet, lo, hi) -> int:
    """Count of spectrum points in the half-open box [lo, hi).

    Generator-backed sets (lattice, lambda4) are enumerated lazily inside the
    window; explicit sets must have a truncation covering the window.  A
    non-finite window, or one whose enumeration would exceed MAX_LATTICE_BOX
    points, raises DomainError before anything is enumerated.
    """
    d = spectrum.dim
    lo = np.atleast_1d(_finite(lo, "window lo"))
    hi = np.atleast_1d(_finite(hi, "window hi"))
    if lo.shape != (d,) or hi.shape != (d,):
        raise DomainError(f"window corners must be {d}-vectors")
    kind = spectrum.generator.get("kind")
    if kind == "lattice":
        A = np.asarray(spectrum.generator["A"], dtype=float)
        klo, khi = _coordinate_box(A, lo, hi)
        if not np.prod(khi - klo + 1) <= MAX_LATTICE_BOX:  # also refuses NaN
            raise DomainError(f"density window holds above {MAX_LATTICE_BOX} lattice points")
        ranges = [np.arange(int(klo[i]), int(khi[i]) + 1) for i in range(d)]
        K = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
        pts = K @ A.T
        inside = np.all((pts >= lo - 1e-12) & (pts < hi - 1e-12), axis=1)
        return int(np.count_nonzero(inside))
    if kind == "lambda4":
        levels = _lambda4_levels(hi[0])
        if 2**levels > MAX_LATTICE_BOX:
            raise DomainError(f"density window holds above {MAX_LATTICE_BOX} lambda4 points")
        vals = np.zeros(1, dtype=np.int64)
        for i in range(levels):
            vals = np.concatenate([vals, vals + 4**i])
        vals = vals.astype(float)
        return int(np.count_nonzero((vals >= lo[0] - 1e-12) & (vals < hi[0] - 1e-12)))
    pts = spectrum.points
    if spectrum.truncation is not None:
        if np.any(np.abs(lo) > spectrum.truncation + 1e-9) or np.any(
            np.abs(hi) > spectrum.truncation + 1e-9
        ):
            raise DomainError("window exceeds the enumerable range of this spectrum")
    inside = np.all((pts >= lo - 1e-12) & (pts < hi - 1e-12), axis=1)
    return int(np.count_nonzero(inside))


def beurling_density(
    spectrum: SpectrumSet,
    windows,
    centers_box=None,
    n_centers=1000,
    seed=0,
) -> DensityReport:
    """Empirical window-count densities over sampled centers plus the origin.

    For each window side R, reports max/min over centers of
    #(spectrum in x + [-R/2, R/2)^d) / R^d.  Windows are half-open; the
    empirical max is a lower bound on the true sup and the empirical min an
    upper bound on the true inf.  Window sides must be finite and positive,
    and at most MAX_DENSITY_WORK points may be enumerated over all windows
    and centres (sized at the largest centre); both are checked up front.
    """
    d = spectrum.dim
    sides = _finite(windows, "density windows")
    if sides.ndim != 1 or np.any(sides <= 0):
        raise DomainError("density windows must be a list of positive numbers")
    if n_centers < 1:
        raise DomainError("n_centers must be >= 1")
    rng = spawn_rng(seed, "beurling-centers")
    if centers_box is None:
        centers_box = (np.full(d, -10.0), np.full(d, 10.0))
    clo = np.atleast_1d(_finite(centers_box[0], "centers_box lo"))
    chi = np.atleast_1d(_finite(centers_box[1], "centers_box hi"))
    if clo.shape != (d,) or chi.shape != (d,):
        raise DomainError(f"centers_box corners must be {d}-vectors")
    centers = clo + rng.random((n_centers, d)) * (chi - clo)
    centers = np.vstack([np.zeros(d), centers])
    top = centers.max(axis=0)
    per_centre = sum(_enumeration_size(spectrum, top - R / 2, top + R / 2) for R in sides)
    work = centers.shape[0] * per_centre
    if not work <= MAX_DENSITY_WORK:
        raise DomainError(f"density would enumerate {work:.3g} points, above {MAX_DENSITY_WORK}")
    d_plus = []
    d_minus = []
    for R in windows:
        counts = np.array(
            [
                window_count(spectrum, x - R / 2.0, x + R / 2.0)
                for x in centers
            ],
            dtype=float,
        )
        dens = counts / R**d
        d_plus.append(float(dens.max()))
        d_minus.append(float(dens.min()))
    if len(windows) >= 2 and d_plus[-1] < 0.5 * d_plus[0]:
        verdict = "decreasing"
    elif len(windows) >= 2 and abs(d_plus[-1] - d_minus[-1]) <= max(
        2.0 * spectrum.dim / windows[-1], 1e-9
    ) * max(d_plus[-1], 1.0):
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return DensityReport(
        windows=list(windows),
        d_plus=d_plus,
        d_minus=d_minus,
        verdict=verdict,
        n_centers=int(centers.shape[0]),
    )
