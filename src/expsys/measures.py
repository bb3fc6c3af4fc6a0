"""Finite Borel measures: integration, sampling, Fourier transforms, pushforwards.

Supported kinds: Lebesgue measure on an axis-aligned box, Lebesgue measure on a
disc, equal-ratio self-similar digit measures (Cantor-type), and pushforwards of
any of these under a phase map.  Measures are immutable after construction and
safe to share across threads.

Quadrature schemes
------------------
This module builds the nodes, weights and cells of each scheme; the batched
moment engine (`_oscillatory.exp_moments`) runs them.  `integrate` is the
engine's single-weight moment at lambda = 0.

tensor-gauss        composite tensor-product Gauss-Legendre; the error estimate
                    is the difference of two orders.  Oscillatory
                    exponentials get ceil(5*cycles/order) panels per dimension
                    (one at lambda = 0), which keeps the rule in its
                    superexponential-convergence regime; support-box edges
                    are panel edges, so box masks are exact.  The disc is
                    handled in polar coordinates over four quadrant cells.
monte-carlo         i.i.d. sampling from the measure; error is one standard
                    error (acceptance-style checks should use 3-sigma bands).
self-similar-digit  exact enumeration of digit strings to the effective depth
                    min(depth, cap) with a tail-mean anchor added to every
                    node; the reported error is a Lipschitz-style tail bound.
adaptive            global adaptive subdivision with per-cell two-order Gauss
                    error estimates; the disc starts from the quadrant cells.
                    The engine refines each (frequency, weight) pair in
                    order, with no pool (pools run only inside tensor-gauss);
                    the pairs of a call share each cell's rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DomainError,
    ProductFormulaError,
    QuadratureError,
    SchemeMismatchError,
    _finite,
    _integer,
    _real,
)
from .seeding import spawn_rng

_SCHEMES = ("tensor-gauss", "monte-carlo", "self-similar-digit", "adaptive")

# Digit enumeration is exact up to this many nodes; deeper digits enter through
# the tail-mean anchor, whose centered truncation error is far below float
# noise for Lipschitz integrands.
_MAX_DIGIT_NODES = 1 << 20

_PANEL_FACTOR = 5.0  # panels = ceil(PANEL_FACTOR * cycles / order)

# larger sample sets, node sets and (n, k) weight stacks are refused before
# they are built: 1 GiB of float64
_MAX_ENTRIES = 1 << 27

# digit expansions stop here: 2^-64 is below double precision on a unit width
_MAX_DEPTH = 64

# ratio^-64, the deepest digit scale, stays a normal double up to 2^15
_MAX_RATIO = 1 << 15

# nodes per block of a digit enumeration: every enumeration of at most this
# many nodes is one block
_NODE_BLOCK = 1 << 16

_SAMPLE_DEPTH = 30  # digits per self-similar sample
_SAMPLE_CHUNK = 1 << 18  # samples per block of the digit sampler
_GUIDE_BITS = 12  # a digit sampler's guide table has at most 2^12 bins
_FT_TRUNC = 40  # product levels of a self-similar Fourier transform


def _check_entries(n, width, what):
    """Refuse an (n, width) array above the entry budget before it is built."""
    if n * width > _MAX_ENTRIES:
        raise DomainError(f"{n} x {width} {what} above {_MAX_ENTRIES} entries")


def _in_box(x, lo, hi):
    """Mask of the rows of the (n, d) x with lo <= x < hi in every column,
    tested column by column (no (n, d) temporaries)."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape[1:])
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape[1:])
    inside = np.ones(x.shape[0], dtype=bool)
    for j in range(x.shape[1]):
        inside &= x[:, j] >= lo[j]
        inside &= x[:, j] < hi[j]
    return inside


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str
    order: int = 32
    n_samples: int = 100_000
    seed: int = 0
    depth: int = 30
    abs_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise SchemeMismatchError(f"unknown quadrature scheme {self.scheme!r}")
        for name, lo, hi in (
            ("order", 2, 512),
            ("n_samples", 2, None),
            ("seed", 0, None),
            ("depth", 1, _MAX_DEPTH),
            ("max_subdivisions", 0, None),
        ):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo, hi))
        if self.scheme == "adaptive" and self.order < 3:
            # its error compares orders `order` and max(2, order // 2), equal at 2
            raise DomainError(f"adaptive order must be >= 3, got {self.order}")
        object.__setattr__(self, "abs_tol", _real(self.abs_tol, "abs tol"))
        if not self.abs_tol > 0:
            raise DomainError(f"abs tol must be > 0, got {self.abs_tol}")

    def to_json_dict(self):
        out = {"scheme": self.scheme}
        if self.scheme == "tensor-gauss":
            out["order"] = self.order
        elif self.scheme == "monte-carlo":
            out.update(n_samples=self.n_samples, seed=self.seed)
        elif self.scheme == "self-similar-digit":
            out["depth"] = self.depth
        else:
            out.update(abs_tol=self.abs_tol, max_subdivisions=self.max_subdivisions)
        return out


def gauss(order=32) -> QuadratureSpec:
    return QuadratureSpec("tensor-gauss", order=order)


def monte_carlo(n_samples=100_000, seed=0) -> QuadratureSpec:
    return QuadratureSpec("monte-carlo", n_samples=n_samples, seed=seed)


def digit(depth=30) -> QuadratureSpec:
    return QuadratureSpec("self-similar-digit", depth=depth)


def adaptive(abs_tol=1e-9, max_subdivisions=2000, order=16) -> QuadratureSpec:
    return QuadratureSpec(
        "adaptive", abs_tol=abs_tol, max_subdivisions=max_subdivisions, order=order
    )


# ---------------------------------------------------------------------------
# measure kinds
# ---------------------------------------------------------------------------


class Measure:
    """Base class; subclasses set dim and total_mass at construction."""

    dim: int
    total_mass: float
    kind: str  # tags the RNG streams, so seeded results depend on it

    def support_box(self):
        """(lo, hi) arrays bounding the support."""
        raise NotImplementedError

    def _sample(self, n, rng):
        raise NotImplementedError


def _finite_mass(mass, what):
    if not np.isfinite(mass):
        raise DomainError(f"{what} mass overflows a double")
    return float(mass)


class LebesgueBox(Measure):
    kind = "lebesgue_box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(_finite(lo, "box lo"))
        hi = np.atleast_1d(_finite(hi, "box hi"))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("lo/hi must be 1-d vectors of equal length")
        if np.any(hi <= lo):
            raise DomainError("box must have positive side lengths")
        self.lo = lo
        self.hi = hi
        self.dim = lo.size
        with np.errstate(over="ignore"):
            self.total_mass = _finite_mass(np.prod(hi - lo), "box")

    def support_box(self):
        return self.lo.copy(), self.hi.copy()

    def _sample(self, n, rng):
        u = rng.random((n, self.dim))
        return self.lo + u * (self.hi - self.lo)

    def cells(self):
        """The cells tensor-gauss and adaptive rules start from: the box itself."""
        return [(self.lo, self.hi)]

    def cell_nodes(self, pts, w):
        """Points and weights on the measure of rule nodes and weights on a cell."""
        return pts, w

    def cell_cycles(self, cycles):
        """Oscillation cycles per cell coordinate from (m, dim) cycles per axis."""
        return cycles

    def __repr__(self):
        return f"LebesgueBox({self.lo.tolist()}, {self.hi.tolist()})"


class LebesgueDisc(Measure):
    kind = "lebesgue_disc"

    def __init__(self, center=(0.0, 0.0), radius=1.0):
        center = _finite(center, "disc center")
        radius = _finite(radius, "disc radius")
        if center.shape != (2,) or radius.shape != ():
            raise DomainError("disc center must be a 2-vector and radius a number")
        if radius <= 0:
            raise DomainError("disc radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.dim = 2
        try:
            mass = math.pi * self.radius**2
        except OverflowError:
            mass = math.inf
        self.total_mass = _finite_mass(mass, "disc")

    def support_box(self):
        r = self.radius
        return self.center - r, self.center + r

    def _sample(self, n, rng):
        # rejection from the bounding box keeps the sampler uniform-exact
        out = np.empty((n, 2))
        filled = 0
        while filled < n:
            m = max(int((n - filled) * 1.6) + 16, 32)
            cand = self.center + self.radius * (2.0 * rng.random((m, 2)) - 1.0)
            keep = np.sum((cand - self.center) ** 2, axis=1) <= self.radius**2
            cand = cand[keep]
            take = min(cand.shape[0], n - filled)
            out[filled : filled + take] = cand[:take]
            filled += take
        return out

    def cells(self):
        """The four polar (r, theta) quadrants: the axes, where maps may kink, are edges."""
        return [
            (np.array([0.0, t0]), np.array([self.radius, t0 + math.pi / 2]))
            for t0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
        ]

    def cell_nodes(self, rt, w):
        """Cartesian points of (r, theta) rows, and the weights times r."""
        r, th = rt[:, 0], rt[:, 1]
        c = self.center
        return np.stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)], axis=-1), w * r

    def cell_cycles(self, cycles):
        """r and theta each take the larger of the two Cartesian cycle counts."""
        return np.repeat(cycles.max(axis=1, keepdims=True), 2, axis=1)

    def __repr__(self):
        return f"LebesgueDisc({self.center.tolist()}, {self.radius})"


def _guide_table(cuts):
    """(K, passes, guide, cuts_k, digit): an exact guide table for the sorted cuts.

    The digit of a uniform u in [0, 1) is the number of cuts <= u, which is
    C[j] with j the number of distinct cuts v <= u (a mass below the
    cumulative sum's resolution duplicates a cut).  With K = 2^p bins,
    guide[b] counts the v <= b / K, and at most `passes` distinct cuts lie
    strictly inside one bin, so from j = guide[floor(u K)] that many steps
    of j += (u K >= cuts_k[j]) reach it; cuts_k is v K with +inf appended.
    Scaling by a power of two and the floor are exact, so ties at a cut
    fall as in searchsorted(cuts, u, side="right").  K is the smallest power
    of two up to 2^_GUIDE_BITS with the fewest passes.  `digit` maps the
    final index to the digit: C[j], or C[guide[b]] straight from the bin
    when there are no passes.
    """
    v, counts = np.unique(cuts, return_counts=True)
    C = np.concatenate([[0], np.cumsum(counts)])
    inside = []  # the most distinct cuts strictly inside one of 2^p bins
    for p in range(_GUIDE_BITS + 1):
        vk = v * (1 << p)
        bins = np.floor(vk[(vk < 1 << p) & (vk != np.floor(vk))])
        inside.append(int(np.unique(bins, return_counts=True)[1].max(initial=0)))
    passes = min(inside)
    K = 1 << inside.index(passes)
    guide = np.searchsorted(v, np.arange(K) / K, side="right")
    return K, passes, guide, np.append(v * K, np.inf), C if passes else C[guide]


class SelfSimilar(Measure):
    """Equal-contraction digit measure: law of sum_i d_{J_i} ratio^-i, J_i iid.

    `digits` is a tuple of (offset, weight) pairs; weights must sum to 1
    within 1e-12.  The middle-fourth Cantor measure is ratio=4 with digits
    ((0, 1/2), (2, 1/2)); the middle-third Cantor measure is ratio=3 with the
    same digit offsets.
    """

    kind = "self_similar"

    def __init__(self, ratio, digits):
        ratio = _integer(ratio, "ratio", 2, _MAX_RATIO)
        pairs = _finite(digits, "self-similar digits")
        if pairs.ndim != 2 or pairs.shape[1:] != (2,) or pairs.shape[0] == 0:
            raise DomainError("digits must be a non-empty list of (offset, weight) pairs")
        digits = tuple((float(d), float(w)) for d, w in pairs)
        wsum = sum(w for _, w in digits)
        if abs(wsum - 1.0) > 1e-12:
            raise DomainError(f"digit weights must sum to 1 (got {wsum!r})")
        if any(w < 0 for _, w in digits):
            raise DomainError("digit weights must be nonnegative")
        if len({d for d, w in digits if w > 0}) < 2:
            raise DomainError("the digits must support more than one point")
        self.ratio = ratio
        self.digits = digits
        self.dim = 1
        self.total_mass = 1.0
        self._offsets = np.array([d for d, _ in digits])
        self._weights = np.array([w for _, w in digits])

    def support_box(self):
        lo = self._offsets.min() / (self.ratio - 1)
        hi = self._offsets.max() / (self.ratio - 1)
        return np.array([lo]), np.array([hi])

    @cached_property
    def _iterate(self):
        """(L, offsets, guide): the L-fold iterate of the positive-weight digits.

        The measure is also that of the system (ratio^L, {(sum_j d_j
        ratio^(L-j), prod_j w_j)}) (Hutchinson 1981), so one uniform can pick
        L digit levels at once.  `offsets` are the k^L cylinder offsets sum_j
        d_j ratio^-j and `guide` the `_guide_table` over the cumulative
        cylinder masses, both in the order of `_cylinders`.  L divides
        _SAMPLE_DEPTH with k^L <= 2^_GUIDE_BITS (L = 1 always qualifies) and
        makes the fewest passes over a block, (_SAMPLE_DEPTH / L) (1 +
        passes), the larger L on a tie: two equal digits take L = 10, 1024
        bins and no pass.  Built on the first draw.
        """
        pos = self._weights > 0
        offsets, weights = self._offsets[pos], self._weights[pos]
        best = None
        top = min(_SAMPLE_DEPTH, max(1, _levels_within(offsets.size, 1 << _GUIDE_BITS)))
        for L in range(1, top + 1):
            if _SAMPLE_DEPTH % L == 0:
                pts, mass, _ = _cylinders(offsets, weights, self.ratio, L)
                guide = _guide_table(np.cumsum(mass)[:-1])
                cost = _SAMPLE_DEPTH // L * (1 + guide[1])
                if best is None or cost <= best[0]:
                    best = cost, L, pts, guide
        return best[1:]

    def _picks(self, n, rng, rows=None):
        """Yield (block, lo, j): rows lo to lo + j.size of the window `rows`
        = (start, stop) of the n draws (default all of them) pick, in level
        block `block`, the cylinders digit[j], `digit` that of `_iterate`'s
        guide table.

        The stream is level-major, that of one `rng.random(n)` per level
        block, read in _SAMPLE_CHUNK blocks.  A whole draw reads it from rng
        in order.  A window reads level block b from a copy of rng's PCG64
        advanced by b n + start (`random` spends one 64-bit draw per
        double); rng stays at the stream's start, and the window that ends
        at n leaves it at the stream's end, as a whole draw does.  A uniform
        u picks cylinder searchsorted(cuts, u, side="right"), cuts the
        cumulative masses but the last, bit for bit: the guide table's bin
        floor(u K), then one exact step per pass over the distinct cuts
        inside that bin; with no passes the bin is the index.  The uniforms
        and j reuse preallocated buffers of one block, so j is valid until
        the next pick.
        """
        L, _, (K, passes, guide, cuts_k, _) = self._iterate
        start, stop = (0, n) if rows is None else rows
        levels = _SAMPLE_DEPTH // L
        draw, window = rng.random, (start, stop) != (0, n)
        if window:
            bits = rng.bit_generator
            state, twin = bits.state, type(bits)(0)
            if stop == n:  # to the end; advance() drops the buffered 32 bits, kept here
                bits.advance(levels * n)
                bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                              "uinteger": state["uinteger"]}
        m = min(stop - start, _SAMPLE_CHUNK)
        u = np.empty(m)
        idx = np.empty(m, dtype=np.intp)
        step = np.empty(m)
        for block in range(levels):
            if window:
                twin.state = state
                twin.advance(block * n + start)
                draw = np.random.Generator(twin).random
            for lo in range(0, stop - start, m):
                c = min(m, stop - start - lo)
                uk = np.multiply(draw(out=u[:c]), K, out=u[:c])
                j = idx[:c]
                np.copyto(j, uk, casting="unsafe")  # floor(u K), as u K >= 0
                if passes:
                    np.take(guide, j, out=j, mode="clip")
                    for _ in range(passes):
                        j += uk >= np.take(cuts_k, j, out=step[:c], mode="clip")
                yield block, lo, j

    def _level_offsets(self):
        """(_SAMPLE_DEPTH / L, k^L): level block b's cylinder offsets, those of
        `_iterate` times ratio^(-L b), the floats `_sample` adds."""
        L, offsets, _ = self._iterate
        out, scale = [], 1.0
        for _ in range(_SAMPLE_DEPTH // L):
            out.append(offsets * scale)
            scale /= self.ratio**L
        return np.array(out)

    def _sample(self, n, rng):
        """n draws as (n, 1): each adds its `_picks` cylinder offsets level
        block by level block into a zero vector."""
        digit = self._iterate[2][-1]  # guide-table index -> cylinder
        tables = self._level_offsets()[:, digit]
        x = np.zeros(n)
        step = np.empty(min(n, _SAMPLE_CHUNK))
        for block, lo, j in self._picks(n, rng):
            x[lo:lo + j.size] += np.take(tables[block], j, out=step[:j.size], mode="clip")
        return x[:, None]

    def digit_key(self):
        return (self.ratio, self.digits)

    def __repr__(self):
        return f"SelfSimilar(ratio={self.ratio}, digits={self.digits})"


class _IterateCodes(Measure):
    """The cylinder codes of `ss`'s samples: row i holds, for each level block
    b of `SelfSimilar._picks`, the cylinder that sample i picks there, so
    that sample is the sum over b of offsets[b, codes[i, b]] in block order.
    The uniforms, their order and the picks are `SelfSimilar._sample`'s;
    each code takes the smallest unsigned dtype that holds k^L - 1.  A draw
    of the window `rows` = (start, stop) of the n samples (`_picks`; default
    all) holds its window's codes and one _SAMPLE_CHUNK block of uniforms
    and picks.
    """

    kind = "self_similar_codes"

    def __init__(self, ss: SelfSimilar):
        self.ss = ss
        self.offsets = ss._level_offsets()
        self.dim = self.offsets.shape[0]
        self.total_mass = 1.0
        self.dtype = np.min_scalar_type(self.offsets.shape[1] - 1)

    def _sample(self, n, rng, rows=None):
        digit = self.ss._iterate[2][-1].astype(self.dtype)  # guide-table index -> cylinder
        start, stop = (0, n) if rows is None else rows
        codes = np.empty((self.dim, stop - start), dtype=self.dtype)
        for block, lo, j in self.ss._picks(n, rng, rows):
            np.take(digit, j, out=codes[block, lo:lo + j.size], mode="clip")
        return codes.T


class PushforwardMeasure(Measure):
    """Image measure of `base` under the phase map `map`."""

    kind = "pushforward"

    def __init__(self, base, phase_map):
        if phase_map.in_dim != base.dim:
            raise DomainError(
                f"phase domain dim {phase_map.in_dim} != measure dim {base.dim}"
            )
        self.base = base
        self.map = phase_map
        self.dim = phase_map.out_dim
        self.total_mass = base.total_mass

    def support_box(self):
        # image box estimated from a deterministic sample of the base support
        pts = sample(self.base, 4096, seed=0)
        img = self.map(pts)
        lo = img.min(axis=0)
        hi = img.max(axis=0)
        pad = 1e-9 * (1.0 + np.abs(hi - lo))
        return lo - pad, hi + pad

    def _sample(self, n, rng):
        return self.map(self.base._sample(n, rng))


def middle_fourth_cantor() -> SelfSimilar:
    return SelfSimilar(4, ((0.0, 0.5), (2.0, 0.5)))


def middle_third_cantor() -> SelfSimilar:
    return SelfSimilar(3, ((0.0, 0.5), (2.0, 0.5)))


def pushforward(mu: Measure, phi) -> PushforwardMeasure:
    """Image measure of mu under phi; integration composes with phi."""
    return PushforwardMeasure(mu, phi)


def sample(mu: Measure, n: int, seed: int = 0) -> np.ndarray:
    """n i.i.d. draws from mu as an (n, dim) array, deterministic in seed."""
    n = _integer(n, "n", 1)
    _check_entries(n, mu.dim, "sample set")
    rng = spawn_rng(seed, "sample", mu.kind)
    return mu._sample(n, rng)


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_nodes_1d(edges, order):
    """Composite Gauss nodes/weights with one panel between adjacent `edges`."""
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return nodes, weights


def box_gauss_nodes(edges, order):
    """Tensor-product composite Gauss rule; `edges[i]` are the panel edges of dim i.

    Returns (pts (n, d), weights (n,)).
    """
    per_dim = [_panel_nodes_1d(e, order) for e in edges]
    grids = np.meshgrid(*[nd for nd, _ in per_dim], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*[wd for _, wd in per_dim], indexing="ij")
    weights = np.prod(np.stack([wg.ravel() for wg in wgrids]), axis=0)
    return pts, weights


def panels_from_cycles(cycles, order):
    """Panels per dimension for a target of `cycles` oscillations per dim."""
    cycles = np.maximum(np.asarray(cycles, dtype=float), 0.0)
    # clipped below the int64 limit so that huge cycle counts stay huge
    panels = np.minimum(np.ceil(_PANEL_FACTOR * cycles / order), 2.0**62)
    return np.maximum(1, panels.astype(int))


def _apply(f, pts):
    vals = np.asarray(f(pts))
    if vals.shape != (pts.shape[0],):
        raise QuadratureError(
            f"integrand returned shape {vals.shape}, expected ({pts.shape[0]},)"
        )
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("non-finite integrand value during quadrature")
    return vals


# ---------------------------------------------------------------------------
# digit enumeration
# ---------------------------------------------------------------------------


def _cylinders(offsets, weights, ratio, depth, top=None):
    """(points, masses, ratio^-depth) of the depth-level digit strings.

    A string's point is sum_j d_j ratio^-j and its mass prod_j w_j; the
    first level varies slowest, so string (i_1, ..., i_depth) is entry
    sum_j i_j k^(depth - j).  `top`, the (points, masses, scale) of some
    cylinders that an earlier call returned, continues those cylinders
    `depth` more levels, to the floats one call would give.
    """
    pts, mass, scale = (np.zeros(1), np.ones(1), 1.0) if top is None else top
    for _ in range(depth):
        scale /= ratio
        pts = (pts[:, None] + offsets[None, :] * scale).ravel()
        mass = (mass[:, None] * weights[None, :]).ravel()
    return pts, mass, scale


def _levels_within(k, cap):
    """The most digit levels L >= 0 whose k^L strings stay within cap; one
    digit has a single string at every depth, so no L is most: math.inf."""
    if k == 1:
        return math.inf
    levels = 0
    while k ** (levels + 1) <= cap:
        levels += 1
    return levels


def digit_nodes(ss: SelfSimilar, depth: int):
    """Exact enumeration nodes/weights of the depth-truncated digit measure.

    Only the positive-weight digits are enumerated, so a digit listed with
    weight 0 changes no node, weight or tail width.  The effective depth is
    min(depth, cap) keeping the node count below ~2^20; each node is shifted
    by the mean of the dropped tail so the truncation is centered.  Digits
    are enumerated in ascending offset order (stable for equal offsets), so
    the nodes do not depend on the order the digits are listed in.  Returns
    (count, blocks, tail_width): `blocks` yields (pts (b, 1), weights (b,))
    of at most _NODE_BLOCK nodes each, in node order, so one block is held
    at a time.  A block continues a run of top cylinders down to the
    effective depth (`_cylinders`), so its nodes and weights are the floats
    of one enumeration of all count nodes.
    """
    pos = ss._weights > 0
    order = np.argsort(ss._offsets[pos], kind="stable")
    offsets, digit_weights = ss._offsets[pos][order], ss._weights[pos][order]
    k = len(offsets)  # >= 2: the measure supports more than one point
    d_eff = min(depth, max(1, _levels_within(k, _MAX_DIGIT_NODES)))
    inner = min(d_eff, _levels_within(k, _NODE_BLOCK))  # levels enumerated per block
    top_pts, top_mass, top_scale = _cylinders(offsets, digit_weights, ss.ratio, d_eff - inner)
    group = _NODE_BLOCK // k**inner  # top cylinders per block
    scale = top_scale
    for _ in range(inner):
        scale /= ss.ratio
    mean_digit = float(offsets @ digit_weights)
    span = float(offsets.max() - offsets.min())
    geo = scale / (ss.ratio - 1)  # sum of ratio^-i for i > d_eff

    def blocks():
        for lo in range(0, top_pts.size, group):
            top = top_pts[lo:lo + group], top_mass[lo:lo + group], top_scale
            pts, weights, _ = _cylinders(offsets, digit_weights, ss.ratio, inner, top)
            yield (pts + mean_digit * geo)[:, None], weights

    return k**d_eff, blocks(), span * geo


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def integrate(f, mu: Measure, quad: QuadratureSpec):
    """Approximate integral of f over mu: returns (value, err_estimate).

    f must be vectorized: it receives an (n, dim) array and returns (n,)
    values (real or complex); a real f gives a real value.  This is the
    lambda = 0, single-weight moment of `_oscillatory.exp_moments`, so every
    scheme and measure kind runs through the one engine.
    """
    # lazy: _oscillatory imports this module
    from ._oscillatory import exp_moments
    from .phases import Identity

    seen_complex = []

    def checked(pts):
        vals = _apply(f, pts)
        seen_complex.append(np.iscomplexobj(vals))
        return vals

    vals, errs = exp_moments(
        mu, Identity(mu.dim), np.zeros((1, mu.dim)), quad, weights=[(checked, None)]
    )
    value = vals[0, 0] if any(seen_complex) else vals[0, 0].real
    return value, errs[0, 0]


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------

_PRODUCT_GATE: dict = {}

_GATE_XI = (0.37, 0.91, 1.7)
_GATE_MC_SAMPLES = 6_000_000
# codes per window of the sampling oracle: a multiple of the 2^14-row blocks
# of `_oscillatory._code_sums`, so its partial sums add in one order
_GATE_ROWS = _SAMPLE_CHUNK
_GATE_MC_TOL = 1e-3
_GATE_ENUM_TOL = 1e-6
_GATE_SEED = 0x5E1F51A1


def _mask_value(ss: SelfSimilar, xi):
    """One-level digit symbol m(xi) = sum_j w_j e^{2 pi i d_j xi}.

    A digit at offset 0 contributes its weight exactly, with no exp.  The sum
    must give the bits of np.sum over a stacked digit axis, which adds up to 3
    complex terms one by one onto +0.0 and 4 or more pairwise (numpy's
    pairwise sum; test_product_matches_the_stacked_exponentials pins both).
    Up to 3 digits, every preset's case, are added in place in listed order,
    skipping the stacked np.sum's length-k reduction, which costs more than the
    adds; more digits keep the stacked np.sum."""
    xi = np.asarray(xi, dtype=float)
    terms = [
        w if d == 0 else w * np.exp((2j * np.pi * d) * xi)
        for w, d in zip(ss._weights, ss._offsets)
    ]
    if len(terms) > 3:
        return np.sum(np.stack(np.broadcast_arrays(*terms), axis=-1), axis=-1)
    out = np.zeros(xi.shape, dtype=complex)
    for term in terms:
        out += term
    return out


def _selfsimilar_product(ss: SelfSimilar, xi, trunc):
    xi = np.asarray(xi, dtype=float)
    out = np.ones(xi.shape, dtype=complex)
    scale = 1.0
    for _ in range(trunc):
        scale /= ss.ratio
        out *= _mask_value(ss, xi * scale)
    return out


def selfsimilar_moments(ss: SelfSimilar, xi, trunc):
    """(values, errors) of the Fourier transform of ss at the 1-d frequencies xi.

    Values are the `trunc`-level one-level-symbol product, gated behind
    `validate_product_formula`.  Errors bound the dropped levels:
    |m(xi) - 1| <= 2 pi max|d| |xi|, summed over every level past `trunc`.
    """
    trunc = _integer(trunc, "trunc", 1)
    validate_product_formula(ss)
    xi = np.asarray(xi, dtype=float)
    values = _selfsimilar_product(ss, xi, trunc)
    max_d = max(abs(d) for d, _ in ss.digits)
    errors = (
        2.0 * np.pi * max_d * np.abs(xi) * ss.ratio ** (-float(trunc)) / (ss.ratio - 1)
    )
    return values, errors


def validate_product_formula(ss: SelfSimilar) -> float:
    """Cross-validate the _FT_TRUNC-level product against independent oracles.

    Oracle 1: exact digit-string enumeration of the truncated measure, the
    engine's depth-30 enumeration (`_oscillatory._digit_moments`, never the
    digit transfer, whose unit-weight recursion is the product formula),
    which holds one _NODE_BLOCK block of its 2^20 nodes at a time.
    Oracle 2: Monte-Carlo digit sampling (6M samples, tolerance 1e-3, fixed
    internal seed), drawn from the L-fold iterate of the digit system
    (`SelfSimilar._iterate`: 3 uniforms per sample for two equal digits).
    Where a sample's cylinder codes take no more memory than its float64
    point (two equal digits: 3 uint16 codes), the gate draws the codes
    (`_IterateCodes`, the same uniforms and picks) in _GATE_ROWS-row windows
    and sums products of per-level-block phase tables
    (`_oscillatory._phase_tables`) over each window into one
    `_oscillatory._code_sums` accumulator, so one window of codes is held
    at a time and the sums are those of one call over all of them; the
    Monte-Carlo moments of DigitMap phases run the same kernel per block
    with a weight matrix where the gate passes None, the unit column.
    Other systems draw all their points at once (48 MB) and sum them in
    blocks by the engine's Monte-Carlo sum.
    Neither oracle runs the product formula.  Returns the worst residual;
    raises ProductFormulaError on failure, a non-finite residual included.
    Results are cached per digit system, and the product-formula path
    refuses to run without a pass.
    """
    key = ss.digit_key()
    if key in _PRODUCT_GATE:
        return _PRODUCT_GATE[key]
    # lazy: _oscillatory imports this module
    from ._oscillatory import _code_sums, _digit_moments, _mc_sums, _phase_tables
    from .phases import Identity
    xi = np.array(_GATE_XI)
    lam = xi[:, None]
    prod = _selfsimilar_product(ss, xi, _FT_TRUNC)

    def oracles():
        # one at a time: the enumeration's last block is freed before the samples
        enum, _ = _digit_moments(ss, None, Identity(1), lam, digit(30), [(None, None)])
        yield "digit enumeration", _GATE_ENUM_TOL, enum[:, 0]
        rng = spawn_rng(_GATE_SEED, "product-gate", key)
        codes = _IterateCodes(ss)
        if codes.dim * codes.dtype.itemsize <= 8:  # no larger than the float64 points
            tables = _phase_tables(codes.offsets, xi)
            sums = np.zeros((xi.size, 1), dtype=complex)
            for lo in range(0, _GATE_MC_SAMPLES, _GATE_ROWS):
                rows = lo, min(lo + _GATE_ROWS, _GATE_MC_SAMPLES)
                _code_sums(codes._sample(_GATE_MC_SAMPLES, rng, rows), None, tables, out=sums)
            sums = sums[:, 0]
        else:
            pts = ss._sample(_GATE_MC_SAMPLES, rng)
            sums = _mc_sums(pts, None, Identity(1), lam, [(None, None)])[0][:, 0]
        yield "the sampling oracle", _GATE_MC_TOL, sums / _GATE_MC_SAMPLES

    worst = 0.0
    for oracle, tol, values in oracles():
        for x, p, v in zip(xi, prod, values):
            resid = abs(p - v)
            worst = max(worst, resid)
            if not resid <= tol:  # a NaN residual fails too
                raise ProductFormulaError(
                    f"product formula disagrees with {oracle} at xi={x}: "
                    f"|delta|={resid:.3e} > {tol}"
                )
    _PRODUCT_GATE[key] = worst
    return worst


def _box_ft(mu: LebesgueBox, xi):
    """(m,) transforms of the box at an (m, dim) frequency stack: per axis
    w sinc(xi w) e^{pi i xi (lo + hi)}, w = hi - lo, which keeps full relative
    accuracy at small xi and gives the exact conjugate at -xi."""
    xi = np.asarray(xi, dtype=float)
    width = mu.hi - mu.lo
    factors = width * np.sinc(xi * width) * np.exp(1j * np.pi * xi * (mu.lo + mu.hi))
    return np.prod(factors, axis=1)


def _disc_ft(mu: LebesgueDisc, xi):
    from scipy.special import j1

    norm = float(np.hypot(xi[0], xi[1]))
    if norm == 0.0:
        return complex(mu.total_mass)
    phase = np.exp(2j * np.pi * (xi @ mu.center))
    return phase * mu.radius * j1(2 * math.pi * mu.radius * norm) / norm


def fourier_transform(mu: Measure, xi):
    """mu-hat(xi) = integral of e^{2 pi i xi.x} dmu(x).

    Boxes and discs use closed forms.  Self-similar measures and pushforwards
    run as `_oscillatory.plan` says for a transform: the 40-level product
    formula when the measure reduces to a self-similar one, else quadrature
    under the plan's `measure` rule.  DomainError refuses an xi that is not
    a finite number (inf, nan, a boolean) or not of shape (dim,).
    """
    xi = np.atleast_1d(_finite(xi, "xi"))
    if xi.shape != (mu.dim,):
        raise DomainError(f"xi must have shape ({mu.dim},), got {xi.shape}")

    if isinstance(mu, LebesgueBox):
        return complex(_box_ft(mu, xi[None, :])[0])

    if isinstance(mu, LebesgueDisc):
        return complex(_disc_ft(mu, xi))

    if isinstance(mu, (SelfSimilar, PushforwardMeasure)):
        # lazy: both modules import this one
        from ._oscillatory import plan
        from .phases import Identity

        # gauss(64) sets the box order; discs and digit bases get their own rules
        vals, _ = plan(mu, Identity(mu.dim), gauss(order=64), "transform").moments(xi[None, :])
        return complex(vals[0, 0])

    raise SchemeMismatchError(f"unsupported measure kind {mu.kind!r}")
