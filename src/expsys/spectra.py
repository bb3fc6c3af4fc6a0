"""Frequency sets: lattices, dual lattices, the four-adic binary spectrum,
and empirical Beurling densities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _finite, _integer, _real
from .seeding import spawn_rng

# lattice(), window_count() and each beurling_density() window refuse to
# enumerate more points than this
MAX_LATTICE_BOX = 1 << 20
# the largest lattice dimension whose coordinate box, at least 3 points wide
# per axis, stays within MAX_LATTICE_BOX: 3^12 <= 2^20 < 3^13
MAX_LATTICE_DIM = 12
# beurling_density() refuses more centre-point comparisons over all its windows
MAX_DENSITY_WORK = 1 << 26


def round_in_place(a, decimals):
    """Round a finite array to `decimals` digits in place and return it.

    Doubles from 2^52 up are integers, so rounding them changes nothing;
    np.round would overflow on them above ~1.8e296.
    """
    small = np.abs(a) < 2.0**52
    a[small] = np.round(a[small], decimals)
    return a


def unique_rows(rows):
    """(uniq, inverse, first) of the rows of a finite (n, d) array, rounded to
    12 digits in place; uniq is sorted lexicographically as by np.unique(axis=0),
    -0.0 is folded into 0.0, and first[u] is the first row index of uniq[u]."""
    round_in_place(rows, 12)
    rows += 0.0
    order = np.lexsort(rows.T[::-1])
    new = np.zeros(rows.shape[0], dtype=bool)
    new[:1] = True
    for col in rows.T:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]  # lexsort is stable
    return rows[first], inverse, first


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


def generator(A, d=None):
    """(A, A^-1) of a lattice generator: finite, square (d x d when d is given)
    and nonsingular."""
    A = np.atleast_2d(_finite(A, "lattice A"))
    n = len(A) if d is None else d
    if A.shape != (n, n):
        raise DomainError(f"lattice A must be a square {n}x{n} matrix")
    if abs(np.linalg.det(A)) < 1e-14:
        raise DomainError("lattice generator matrix is singular")
    return A, np.linalg.inv(A)


def _lattice_box(A, A_inv, lo, hi):
    """(size, build) of the points A k with k in the integer box spanned by the
    preimages of the corners of [lo, hi], widened by one.  The box comes from
    interval arithmetic on A^-1, so no corner is built."""
    pos, neg = np.maximum(A_inv, 0), np.minimum(A_inv, 0)
    klo, khi = np.floor(pos @ lo + neg @ hi) - 1, np.ceil(pos @ hi + neg @ lo) + 1

    def build():
        K = np.meshgrid(*map(np.arange, klo.astype(int), khi.astype(int) + 1), indexing="ij")
        return np.stack(K, axis=-1).reshape(-1, len(lo)) @ A.T

    return math.prod(b - a + 1 for a, b in zip(klo.tolist(), khi.tolist())), build


def lattice(A, radius) -> SpectrumSet:
    """All points of A Z^d with sup-norm <= radius, sorted lexicographically."""
    A, A_inv = generator(A)
    radius = _real(radius, "lattice radius", 0)
    size, build = _lattice_box(A, A_inv, np.full(len(A), -radius), np.full(len(A), radius))
    if not size <= MAX_LATTICE_BOX:  # also refuses NaN
        raise DomainError(f"lattice coordinate box above {MAX_LATTICE_BOX} points")
    pts = build()
    pts = pts[np.max(np.abs(pts), axis=1) <= radius + 1e-9]
    pts = pts[np.lexsort(pts.T[::-1])]
    return SpectrumSet(pts, {"kind": "lattice", "A": A.tolist()}, truncation=float(radius))


def integer_lattice(d, radius) -> SpectrumSet:
    """Z^d with sup-norm <= radius; d is bounded before np.eye(d) is built, at
    the largest d whose coordinate box (at least 3^d points) `lattice` takes."""
    return lattice(np.eye(_integer(d, "lattice dim", 1, MAX_LATTICE_DIM)), radius)


def dual_lattice(A) -> np.ndarray:
    """Generator of the dual lattice: A^{-T}."""
    return generator(A)[1].T


def _lambda4_values(n):
    """The 2^n values sum_{i<n} 4^i a_i, a_i in {0, 1}, unsorted."""
    vals = np.zeros(1, dtype=np.int64)
    for i in range(n):
        vals = np.concatenate([vals, vals + 4**i])
    return vals


def lambda4(n: int) -> SpectrumSet:
    """Level-n four-adic binary spectrum {sum_{i<n} 4^i a_i : a_i in {0,1}}."""
    n = _integer(n, "lambda4 level", 1, 16)
    pts = np.sort(_lambda4_values(n)).astype(float)[:, None]
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


def _candidates(spectrum, lo, hi):
    """(size, build) of the spectrum points that may lie in [lo, hi); size, a
    Python float (inf past the double range), is known before build() allocates."""
    kind = spectrum.generator.get("kind")
    if kind == "lattice":
        return _lattice_box(*generator(spectrum.generator["A"]), lo, hi)
    if kind == "lambda4":
        # an element with a digit at 4^i >= hi exceeds hi
        levels = sum(4**i < hi[0] for i in range(31))
        return 2.0**levels, lambda: _lambda4_values(levels).astype(float)[:, None]
    t = spectrum.truncation
    if t is not None and (np.any(np.abs(lo) > t + 1e-9) or np.any(np.abs(hi) > t + 1e-9)):
        raise DomainError("window exceeds the enumerable range of this spectrum")
    return float(spectrum.size), lambda: spectrum.points


def _counts(pts, lo, hi):
    """Points of pts in each half-open box [lo[i], hi[i]), a block of boxes at a time."""
    step = max(1, (1 << 22) // pts.size)
    counts = []
    for i in range(0, len(lo), step):
        inside = True
        for j, col in enumerate(pts.T):
            inside = inside & (col >= lo[i : i + step, j, None] - 1e-12)
            inside &= col < hi[i : i + step, j, None] - 1e-12
        counts.append(np.count_nonzero(inside, axis=1))
    return np.concatenate(counts)


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
    size, build = _candidates(spectrum, lo, hi)
    if not size <= MAX_LATTICE_BOX:  # also refuses NaN
        raise DomainError(f"density window holds above {MAX_LATTICE_BOX} points")
    return int(_counts(build(), lo[None], hi[None])[0])


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
    upper bound on the true inf.  Window sides must be finite and positive.
    Each window is enumerated once, over the union of its boxes at all
    centres, and every centre is counted against that one enumeration.  At
    most MAX_LATTICE_BOX points per window and MAX_DENSITY_WORK centre-point
    pairs over all windows are checked before anything is enumerated.
    """
    d = spectrum.dim
    sides = _finite(windows, "density windows")
    if sides.ndim != 1 or sides.size == 0 or np.any(sides <= 0):
        raise DomainError("density windows must be a non-empty list of positive numbers")
    n_centers = _integer(n_centers, "n_centers", 1, MAX_DENSITY_WORK - 1)
    rng = spawn_rng(seed, "beurling-centers")
    if centers_box is None:
        centers_box = (np.full(d, -10.0), np.full(d, 10.0))
    box = _finite(centers_box, "centers_box")
    if box.shape[:1] != (2,) or box.size != 2 * d:
        raise DomainError(f"centers_box must be two corners, {d}-vectors")
    clo, chi = box.reshape(2, d)
    centers = clo + rng.random((n_centers, d)) * (chi - clo)
    centers = np.vstack([np.zeros(d), centers])
    low, top = centers.min(axis=0), centers.max(axis=0)
    with np.errstate(over="ignore"):  # a box past the double range is refused below
        boxes = [(low - R / 2, top + R / 2) for R in sides]
    if not np.all(np.isfinite(boxes)):
        raise DomainError("density windows around these centres leave the double range")
    sizes, builds = zip(*(_candidates(spectrum, lo, hi) for lo, hi in boxes))
    work = centers.shape[0] * sum(sizes)
    if not (work <= MAX_DENSITY_WORK and all(s <= MAX_LATTICE_BOX for s in sizes)):
        raise DomainError(
            f"density would enumerate {max(sizes):.3g} points in one window and "
            f"{work:.3g} centre-point pairs, above {MAX_LATTICE_BOX} or {MAX_DENSITY_WORK}"
        )
    d_plus = []
    d_minus = []
    for R, build in zip(sides, builds):
        dens = _counts(build(), centers - R / 2.0, centers + R / 2.0) / R**d
        d_plus.append(float(dens.max()))
        d_minus.append(float(dens.min()))
    if sides.size >= 2 and d_plus[-1] < 0.5 * d_plus[0]:
        verdict = "decreasing"
    elif sides.size >= 2 and abs(d_plus[-1] - d_minus[-1]) <= max(
        2.0 * spectrum.dim / sides[-1], 1e-9
    ) * max(d_plus[-1], 1.0):
        verdict = "converging"
    else:
        verdict = "inconclusive"
    return DensityReport(
        windows=sides.tolist(),
        d_plus=d_plus,
        d_minus=d_minus,
        verdict=verdict,
        n_centers=int(centers.shape[0]),
    )
