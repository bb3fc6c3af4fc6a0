"""Numerical lattice packing/tiling machinery for phase-map images.

A measure-preserving injective image phi([0,1)^d) that packs under a lattice
of matching volume tiles; these checks realize that criterion with a
chi-square uniformity test on lattice-reduced samples (its tail probability
computed with `math` alone), Monte-Carlo overlap volumes with analytic
inversion where the phase structure allows it, and a combined verdict.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, _finite, _integer
from .measures import LebesgueBox, _check_entries, _in_box
from .phases import measure_preservation_check
from .seeding import spawn_rng
from .spectra import generator, round_in_place

UNIFORM = "UNIFORM"
NONUNIFORM = "NONUNIFORM"
INCONCLUSIVE = "INCONCLUSIVE"
TILES = "TILES"
NOT_TILING = "NOT-TILING"

# tiling_verdict() refuses more draws than this over all lattice translates
MAX_TILING_DRAWS = 1 << 27


@dataclass
class HistogramReport:
    chi2: float
    dof: int
    verdict: str
    empty_bins: int
    n: int
    bins_per_dim: int
    counts: np.ndarray

    def to_json_dict(self):
        return {
            "chi2": self.chi2,
            "dof": self.dof,
            "verdict": self.verdict,
            "empty_bins": self.empty_bins,
            "n": self.n,
            "bins_per_dim": self.bins_per_dim,
        }

    def write_csv(self, path, lattice_A):
        d = self.counts.ndim
        centers = [(np.arange(self.bins_per_dim) + 0.5) / self.bins_per_dim] * d
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"center_{i+1}" for i in range(d)] + ["count"])
            grid = np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1).reshape(-1, d)
            frac_to_pt = np.asarray(lattice_A, dtype=float)
            for frac, cnt in zip(grid, self.counts.ravel()):
                writer.writerow([repr(float(v)) for v in frac @ frac_to_pt.T] + [int(cnt)])


def _finite_image(phi, pts):
    """phi(pts), refused when not finite: binning it would count NaNs."""
    img = phi(pts)
    if not np.all(np.isfinite(img)):
        raise DomainError("the phase image of the box is not finite")
    return img


def _chi2_tail(dof, chi2):
    """P(X >= chi2) for X ~ chi-square(dof): the regularized upper incomplete
    gamma Q(dof / 2, chi2 / 2), by its series below a + 1 and by a Lentz
    continued fraction above (Numerical Recipes, section 6.2)."""
    a, x = dof / 2, chi2 / 2
    if x <= 0:
        return 1.0
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    tiny = 1e-300
    if x < a + 1:
        term = total = 1 / a
        for k in range(1, 100_000):
            term *= x / (a + k)
            total += term
            if term < total * 1e-16:
                break
        return 1 - total * scale
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for k in range(1, 100_000):
        an = -k * (k - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return h * scale


def _chi2_verdict(chi2, dof):
    """UNIFORM when the chi-square(dof) tail at chi2 is at least 0.01 (chi2 at
    most the 99th percentile), NONUNIFORM when it is at most 1e-4 (at least
    the 99.99th), else INCONCLUSIVE; so is dof 0, which has no tail."""
    tail = _chi2_tail(dof, chi2) if dof else math.nan
    if tail >= 0.01:
        return UNIFORM
    if tail <= 1e-4:
        return NONUNIFORM
    return INCONCLUSIVE


def frac_histogram_test(
    phi, box, lattice_A, n=100_000, bins=16, seed=0
) -> HistogramReport:
    """Chi-square uniformity of phi(uniform(box)) reduced modulo the lattice.

    `bins` is the per-dimension bin count.  Verdict is UNIFORM when the
    chi-square(dof) upper tail at the statistic is at least 0.01 (at most the
    99th percentile), NONUNIFORM when it is at most 1e-4 (at least the
    99.99th), else INCONCLUSIVE; the band prevents flaky verdicts at large n.
    One bin leaves no degrees of freedom, and the verdict is INCONCLUSIVE.
    """
    box = _as_box(box, phi)
    d = box.dim
    bins = _integer(bins, "bins", 1)
    cells = bins**d
    n = _integer(n, f"n for {cells} bins", 10 * cells)
    _, A_inv = generator(lattice_A, d)
    _check_entries(n, d, "sample set")
    pts = box._sample(n, spawn_rng(seed, "frac-histogram"))
    t = _finite_image(phi, pts) @ A_inv.T
    frac = t - np.floor(t)
    idx = np.clip((frac * bins).astype(int), 0, bins - 1)
    flat = np.ravel_multi_index(idx.T, (bins,) * d)
    counts = np.bincount(flat, minlength=cells).reshape((bins,) * d)
    expected = n / cells
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    dof = cells - 1
    return HistogramReport(
        chi2=chi2,
        dof=dof,
        verdict=_chi2_verdict(chi2, dof),
        empty_bins=int(np.count_nonzero(counts == 0)),
        n=n,
        bins_per_dim=bins,
        counts=counts,
    )


class _GridMembership:
    """Occupancy-grid membership test for images of maps without an inverse.

    _CELLS^d cells over the image bounding box, marked from a dense forward
    sweep of _SWEEP^d points and dilated by one cell; approximate by
    construction.
    """

    _CELLS = 256
    _SWEEP = 1024

    def __init__(self, phi, lo, hi):
        d = lo.size
        _check_entries(self._SWEEP**d, d, "membership sweep")
        cells = self._CELLS
        grids = [np.linspace(lo[i], hi[i], self._SWEEP, endpoint=False) for i in range(d)]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, d)
        img = _finite_image(phi, mesh)
        self.lo = img.min(axis=0)
        self.hi = img.max(axis=0)
        span = np.where(self.hi > self.lo, self.hi - self.lo, 1.0)
        self.span = span
        idx = np.clip(((img - self.lo) / span * cells).astype(int), 0, cells - 1)
        occ = np.zeros((cells,) * d, dtype=bool)
        occ[tuple(idx.T)] = True
        for axis in range(d):
            occ |= np.roll(occ, 1, axis=axis) | np.roll(occ, -1, axis=axis)
        self.occ = occ

    def __call__(self, y):
        inside = np.all((y >= self.lo) & (y <= self.hi), axis=1)
        idx = np.clip(
            ((y - self.lo) / self.span * self._CELLS).astype(int), 0, self._CELLS - 1
        )
        hits = self.occ[tuple(idx.T)]
        return hits & inside, np.zeros(y.shape[0], dtype=bool)


def _membership(phi, lo, hi):
    """y -> (inside mask, failure mask) for y in phi([lo, hi)).

    Inversion into the box where phi has an inverse (probed at the box
    centre), else an occupancy grid.  The inversion gets the box as a hint,
    so it may leave unrefined the rows that cannot land in it.
    """
    try:
        phi.invert(phi(np.atleast_2d((lo + hi) / 2.0)))
    except InversionError:
        return _GridMembership(phi, lo, hi)

    # one pair of bounds for the box test and the inversion's hint
    box = (lo - 1e-12, hi - 1e-12)

    def invert_into_box(y):
        x, ok = phi.invert(y, box)
        inside = ok & _in_box(x, *box)
        return inside, ~ok

    return invert_into_box


@dataclass
class OverlapReport:
    volume_est: float
    std_err: float
    n: int
    failures: int
    valid: bool

    def to_json_dict(self):
        return {
            "volume_est": self.volume_est,
            "std_err": self.std_err,
            "n": self.n,
            "failures": self.failures,
            "valid": bool(self.valid),
        }


def overlap_volume(phi, box, k, n=100_000, seed=0, membership=None) -> OverlapReport:
    """Monte-Carlo volume of (phi(box) + k) intersected with phi(box).

    Draws x uniform in the box, forms y = phi(x) + k, and tests y in phi(box)
    by analytic inversion (back-substitution for triangular structures) or an
    occupancy grid for custom maps.  The inversion is refined only where a
    preimage can land in the box: a `Triangular2D` translate whose x2 cannot
    reach the box runs no Newton steps, and a `Unipotent` one evaluates no
    shift.  Caller asserts injectivity on the box (probe available in the
    phases module).  More than 1% inversion failures invalidates the
    estimate.
    """
    box = _as_box(box, phi)
    n = _integer(n, "n", 1)
    _check_entries(n, box.dim, "sample set")
    k = _finite(k, "translate k")
    if k.shape != (box.dim,):
        raise DomainError(f"translate k must be a {box.dim}-vector, got shape {k.shape}")
    vol = box.total_mass
    rng = spawn_rng(seed, "overlap", tuple(round_in_place(k.copy(), 9).tolist()))
    y = phi(box._sample(n, rng)) + k
    inside, failed = (membership or _membership(phi, box.lo, box.hi))(y)
    failures = int(np.count_nonzero(failed))
    p = float(np.count_nonzero(inside)) / n
    se = vol * math.sqrt(max(p * (1 - p), 0.0) / n)
    return OverlapReport(
        volume_est=vol * p,
        std_err=se,
        n=n,
        failures=failures,
        valid=failures <= 0.01 * n,
    )


@dataclass
class TilingReport:
    packing: str
    volume_match: bool
    tiling: str
    histogram: HistogramReport
    overlaps: dict
    preservation_max_dev: float

    def to_json_dict(self):
        return {
            "packing": self.packing,
            "volume_match": bool(self.volume_match),
            "tiling": self.tiling,
            "histogram": self.histogram.to_json_dict(),
            "overlaps": {
                str(k): rep.to_json_dict() for k, rep in self.overlaps.items()
            },
            "preservation_max_dev": self.preservation_max_dev,
        }


def tiling_verdict(
    phi,
    box,
    lattice_A,
    n=100_000,
    bins=16,
    radius=2,
    seed=0,
) -> TilingReport:
    """Packing (zero lattice-translate overlaps) + volume match => tiling.

    Packing checks every nonzero |k|_inf <= radius; an overlap counts as
    positive above max(3 sigma, a 3/n Poisson floor).  Volume match combines
    a sampled |det J| == 1 check with m(box) == |det A|.  The chi-square
    histogram corroborates; a NONUNIFORM histogram blocks a TILES verdict.
    The total work, n draws for each of the (2 radius + 1)^d translates, is
    capped at MAX_TILING_DRAWS before anything is drawn; with the default n
    this refuses d >= 5 at radius 2.
    """
    n = _integer(n, "n", 1)
    radius = _integer(radius, "radius", 1)  # no translate is checked below 1
    box = _as_box(box, phi)
    d = box.dim
    draws = n * (2 * radius + 1) ** d
    if draws > MAX_TILING_DRAWS:
        raise DomainError(
            f"tiling check draws n x (2 radius + 1)^d = {draws} points in total, "
            f"above {MAX_TILING_DRAWS}; lower n or radius"
        )
    A, _ = generator(lattice_A, d)
    vol = box.total_mass

    membership = _membership(phi, box.lo, box.hi)

    hist = frac_histogram_test(phi, box, A, n=n, bins=bins, seed=seed)
    pres = measure_preservation_check(phi, box, n=min(n, 20_000), seed=seed)
    volume_match = pres.passed and abs(vol - abs(np.linalg.det(A))) <= 1e-9 * max(
        vol, 1.0
    )

    overlaps = {}
    packing = "PASS"
    ranges = [np.arange(-radius, radius + 1)] * d
    for kvec in np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d):
        if np.all(kvec == 0):
            continue
        shift = kvec @ A.T
        rep = overlap_volume(
            phi, box, shift, n=n, seed=seed, membership=membership
        )
        overlaps[tuple(int(v) for v in kvec)] = rep
        floor = 3.0 * vol / n
        if rep.volume_est > max(3.0 * rep.std_err, floor):
            packing = "FAIL"

    if packing == "PASS" and volume_match and hist.verdict != NONUNIFORM:
        tiling = TILES
    elif packing == "FAIL" or hist.verdict == NONUNIFORM or not volume_match:
        tiling = NOT_TILING
    else:
        tiling = INCONCLUSIVE
    return TilingReport(
        packing=packing,
        volume_match=volume_match,
        tiling=tiling,
        histogram=hist,
        overlaps=overlaps,
        preservation_max_dev=pres.max_dev,
    )


def _as_box(box, phi):
    """A LebesgueBox, or one built from a (lo, hi) pair, for a phase that maps
    the box's dimension to itself."""
    if not isinstance(box, LebesgueBox):
        pair = _finite(box, "box")
        if pair.shape[:1] != (2,):
            raise DomainError(f"box must be a LebesgueBox or a (lo, hi) pair, got {box!r}")
        box = LebesgueBox(*pair)
    if (phi.in_dim, phi.out_dim) != (box.dim, box.dim):
        raise DomainError(
            f"the phase maps dimension {phi.in_dim} to {phi.out_dim}; "
            f"tiling needs the box's dimension {box.dim} to itself"
        )
    return box
