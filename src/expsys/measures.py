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
                    superexponential-convergence regime.  The disc is
                    handled in polar coordinates over four quadrant cells.
monte-carlo         i.i.d. sampling from the measure; error is one standard
                    error (acceptance-style checks should use 3-sigma bands).
self-similar-digit  exact enumeration of digit strings to the effective depth
                    min(depth, cap) with a tail-mean anchor added to every
                    node; the reported error is a Lipschitz-style tail bound.
adaptive            global adaptive subdivision with per-cell two-order Gauss
                    error estimates; the disc starts from the quadrant cells.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    ProductFormulaError,
    QuadratureError,
    SchemeMismatchError,
)
from .seeding import spawn_rng

_SCHEMES = ("tensor-gauss", "monte-carlo", "self-similar-digit", "adaptive")

# Digit enumeration is exact up to this many nodes; deeper digits enter through
# the tail-mean anchor, whose centered truncation error is far below float
# noise for Lipschitz integrands.
_MAX_DIGIT_NODES = 1 << 20

_PANEL_FACTOR = 5.0  # panels = ceil(PANEL_FACTOR * cycles / order)


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
        if not 2 <= self.order <= 512:
            raise DomainError(f"order must be in [2, 512], got {self.order}")
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.depth < 1:
            raise DomainError("depth must be >= 1")
        if self.abs_tol <= 0:
            raise DomainError("abs tol must be > 0")

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

    def _sample(self, n, rng, depth):
        raise NotImplementedError


def _finite(values, what):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be numeric") from None
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


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
        self.total_mass = float(np.prod(hi - lo))

    def support_box(self):
        return self.lo.copy(), self.hi.copy()

    def _sample(self, n, rng, depth):
        u = rng.random((n, self.dim))
        return self.lo + u * (self.hi - self.lo)

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
        self.total_mass = math.pi * self.radius**2

    def support_box(self):
        r = self.radius
        return self.center - r, self.center + r

    def _sample(self, n, rng, depth):
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

    def __repr__(self):
        return f"LebesgueDisc({self.center.tolist()}, {self.radius})"


class SelfSimilar(Measure):
    """Equal-contraction digit measure: law of sum_i d_{J_i} ratio^-i, J_i iid.

    `digits` is a tuple of (offset, weight) pairs; weights must sum to 1
    within 1e-12.  The middle-fourth Cantor measure is ratio=4 with digits
    ((0, 1/2), (2, 1/2)); the middle-third Cantor measure is ratio=3 with the
    same digit offsets.
    """

    kind = "self_similar"

    def __init__(self, ratio, digits):
        ratio = int(ratio)
        if ratio < 2:
            raise DomainError("ratio must be an integer >= 2")
        pairs = _finite(digits, "self-similar digits")
        if pairs.ndim != 2 or pairs.shape[1:] != (2,) or pairs.shape[0] == 0:
            raise DomainError("digits must be a non-empty list of (offset, weight) pairs")
        digits = tuple((float(d), float(w)) for d, w in pairs)
        wsum = sum(w for _, w in digits)
        if abs(wsum - 1.0) > 1e-12:
            raise DomainError(f"digit weights must sum to 1 (got {wsum!r})")
        if any(w < 0 for _, w in digits):
            raise DomainError("digit weights must be nonnegative")
        self.ratio = ratio
        self.digits = digits
        self.dim = 1
        self.total_mass = 1.0
        self._offsets = np.array([d for d, _ in digits])
        self._weights = np.array([w for _, w in digits])
        self._cumw = np.cumsum(self._weights)

    def support_box(self):
        lo = self._offsets.min() / (self.ratio - 1)
        hi = self._offsets.max() / (self.ratio - 1)
        return np.array([lo]), np.array([hi])

    def _sample(self, n, rng, depth):
        x = np.zeros(n)
        scale = 1.0
        for _ in range(depth):
            scale /= self.ratio
            idx = np.searchsorted(self._cumw, rng.random(n), side="right")
            idx = np.minimum(idx, len(self.digits) - 1)
            x += self._offsets[idx] * scale
        return x[:, None]

    def digit_key(self):
        return (self.ratio, self.digits)

    def __repr__(self):
        return f"SelfSimilar(ratio={self.ratio}, digits={self.digits})"


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

    def _sample(self, n, rng, depth):
        return self.map(self.base._sample(n, rng, depth))


def middle_fourth_cantor() -> SelfSimilar:
    return SelfSimilar(4, ((0.0, 0.5), (2.0, 0.5)))


def middle_third_cantor() -> SelfSimilar:
    return SelfSimilar(3, ((0.0, 0.5), (2.0, 0.5)))


def pushforward(mu: Measure, phi) -> PushforwardMeasure:
    """Image measure of mu under phi; integration composes with phi."""
    return PushforwardMeasure(mu, phi)


def sample(mu: Measure, n: int, seed: int = 0, depth: int = 30) -> np.ndarray:
    """n i.i.d. draws from mu as an (n, dim) array, deterministic in seed."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rng = spawn_rng(seed, "sample", mu.kind)
    return mu._sample(n, rng, depth)


# ---------------------------------------------------------------------------
# Gauss-Legendre machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_nodes_1d(lo, hi, order, panels):
    """Composite Gauss nodes/weights on [lo, hi] with `panels` equal panels."""
    x, w = _leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
    weights = (halfs[:, None] * w[None, :]).ravel()
    return nodes, weights


def box_gauss_nodes(lo, hi, order, panels):
    """Tensor-product composite Gauss rule on a box.

    Returns (pts (n, d), weights (n,)).  `panels` is a per-dimension array.
    """
    lo = np.atleast_1d(lo)
    hi = np.atleast_1d(hi)
    per_dim = [
        _panel_nodes_1d(lo[i], hi[i], order, int(panels[i])) for i in range(lo.size)
    ]
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


def disc_quadrants(mu: LebesgueDisc):
    """The four polar (r, theta) quadrant cells of a disc, as (lo, hi) boxes."""
    return [
        (np.array([0.0, t0]), np.array([mu.radius, t0 + math.pi / 2]))
        for t0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    ]


def polar_xy(center, rt):
    """Cartesian points of (r, theta) rows around `center`."""
    r, th = rt[:, 0], rt[:, 1]
    return np.stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)], axis=-1)


def _adaptive_cells(f, cells, quad):
    """Global adaptive refinement over a list of boxes (lo, hi): (value, err)."""
    abs_tol, max_subdivisions, order = quad.abs_tol, quad.max_subdivisions, quad.order
    order_lo = max(2, order // 2)
    counter = 0
    heap = []

    def eval_cell(lo, hi):
        ones = np.ones(len(lo), dtype=int)
        pts, w = box_gauss_nodes(lo, hi, order, ones)
        hi_val = w @ _apply(f, pts)
        pts2, w2 = box_gauss_nodes(lo, hi, order_lo, ones)
        lo_val = w2 @ _apply(f, pts2)
        return hi_val, abs(hi_val - lo_val)

    for lo, hi in cells:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        val, err = eval_cell(lo, hi)
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    subdivisions = 0
    while True:
        total_err = sum(item[5] for item in heap)
        if total_err <= abs_tol or subdivisions >= max_subdivisions:
            break
        neg_err, _, lo, hi, _, _ = heapq.heappop(heap)
        widths = hi - lo
        split = int(np.argmax(widths))
        mid = 0.5 * (lo[split] + hi[split])
        for piece in (0, 1):
            plo = lo.copy()
            phi_ = hi.copy()
            if piece == 0:
                phi_[split] = mid
            else:
                plo[split] = mid
            val, err = eval_cell(plo, phi_)
            heapq.heappush(heap, (-err, counter, plo, phi_, val, err))
            counter += 1
        subdivisions += 1

    value = sum(item[4] for item in heap)
    err = sum(item[5] for item in heap)
    if err > 10 * abs_tol:
        raise QuadratureError(
            f"adaptive quadrature error {err:.3e} above tolerance "
            f"{abs_tol:.3e} after {max_subdivisions} subdivisions"
        )
    return value, err


# ---------------------------------------------------------------------------
# digit enumeration
# ---------------------------------------------------------------------------


def digit_nodes(ss: SelfSimilar, depth: int):
    """Exact enumeration nodes/weights of the depth-truncated digit measure.

    The effective depth is min(depth, cap) keeping the node count below
    ~2^20; each node is shifted by the mean of the dropped tail so the
    truncation is centered.  Returns (pts (n,1), weights (n,), tail_width).
    """
    k = len(ss.digits)
    cap = max(1, int(math.log(_MAX_DIGIT_NODES) / math.log(max(k, 2))))
    d_eff = min(depth, cap) if k > 1 else depth
    pts = np.zeros(1)
    weights = np.ones(1)
    scale = 1.0
    for _ in range(d_eff):
        scale /= ss.ratio
        pts = (pts[:, None] + ss._offsets[None, :] * scale).ravel()
        weights = (weights[:, None] * ss._weights[None, :]).ravel()
    mean_digit = float(ss._offsets @ ss._weights)
    span = float(ss._offsets.max() - ss._offsets.min())
    geo = scale / (ss.ratio - 1)  # sum of ratio^-i for i > d_eff
    pts = pts + mean_digit * geo
    tail_width = span * geo
    return pts[:, None], weights, tail_width


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
_GATE_MC_TOL = 1e-3
_GATE_ENUM_TOL = 1e-6
_GATE_SEED = 0x5E1F51A1


def _mask_value(ss: SelfSimilar, xi):
    """One-level digit symbol m(xi) = sum_j w_j e^{2 pi i d_j xi}."""
    xi = np.asarray(xi, dtype=float)
    return np.sum(
        ss._weights[None, :]
        * np.exp(2j * np.pi * ss._offsets[None, :] * xi[..., None]),
        axis=-1,
    )


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
    if trunc < 1:
        raise DomainError("trunc must be >= 1 for self-similar measures")
    validate_product_formula(ss, trunc=max(trunc, 40))
    xi = np.asarray(xi, dtype=float)
    values = _selfsimilar_product(ss, xi, trunc)
    max_d = max(abs(d) for d, _ in ss.digits)
    errors = (
        2.0 * np.pi * max_d * np.abs(xi) * ss.ratio ** (-float(trunc)) / (ss.ratio - 1)
    )
    return values, errors


def validate_product_formula(ss: SelfSimilar, trunc: int = 40) -> float:
    """Cross-validate the truncated product against independent oracles.

    Oracle 1: exact digit-string enumeration of the truncated measure.
    Oracle 2: Monte-Carlo digit sampling (tolerance 1e-3, fixed internal
    seed).  Returns the worst residual; raises ProductFormulaError on
    failure.  Results are cached per digit system, and the product-formula
    path refuses to run without a pass.
    """
    key = ss.digit_key()
    if key in _PRODUCT_GATE:
        return _PRODUCT_GATE[key]
    xi = np.array(_GATE_XI)
    prod = _selfsimilar_product(ss, xi, trunc)

    # one depth-30 node set, all three frequencies in one product
    nodes, w, _ = digit_nodes(ss, 30)
    Z = 2j * np.pi * xi * nodes
    enum = w @ np.exp(Z, out=Z)
    del nodes, w, Z  # free the 2^20-node arrays before the 6M-sample oracle
    worst = 0.0
    for x, p, enum_val in zip(xi, prod, enum):
        resid = abs(p - enum_val)
        worst = max(worst, resid)
        if resid > _GATE_ENUM_TOL:
            raise ProductFormulaError(
                f"product formula disagrees with digit enumeration at xi={x}: "
                f"|delta|={resid:.3e} > {_GATE_ENUM_TOL}"
            )

    rng = spawn_rng(_GATE_SEED, "product-gate", key)
    pts = ss._sample(_GATE_MC_SAMPLES, rng, 30)[:, 0]
    for x, p in zip(xi, prod):
        mc = np.exp(2j * np.pi * x * pts).mean()
        resid = abs(p - mc)
        worst = max(worst, resid)
        if resid > _GATE_MC_TOL:
            raise ProductFormulaError(
                f"product formula disagrees with the sampling oracle at xi={x}: "
                f"|delta|={resid:.3e} > {_GATE_MC_TOL}"
            )
    _PRODUCT_GATE[key] = worst
    return worst


def _box_ft(mu: LebesgueBox, xi):
    out = 1.0 + 0.0j
    for i in range(mu.dim):
        x = xi[i]
        if x == 0.0:
            out *= mu.hi[i] - mu.lo[i]
        else:
            out *= (
                np.exp(2j * np.pi * x * mu.hi[i]) - np.exp(2j * np.pi * x * mu.lo[i])
            ) / (2j * np.pi * x)
    return out


def _disc_ft(mu: LebesgueDisc, xi):
    from scipy.special import j1

    norm = float(np.hypot(xi[0], xi[1]))
    if norm == 0.0:
        return complex(mu.total_mass)
    phase = np.exp(2j * np.pi * (xi @ mu.center))
    return phase * mu.radius * j1(2 * math.pi * mu.radius * norm) / norm


def fourier_transform(mu: Measure, xi, trunc: int = 40):
    """mu-hat(xi) = integral of e^{2 pi i xi.x} dmu(x).

    SelfSimilar uses `selfsimilar_moments`.  Boxes and discs use closed forms.
    Pushforwards reduce to a recognized self-similar image when possible and
    otherwise integrate under `_oscillatory.measure_rule`.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (mu.dim,):
        raise DomainError(f"xi must have shape ({mu.dim},), got {xi.shape}")

    if isinstance(mu, SelfSimilar):
        return complex(selfsimilar_moments(mu, xi[:1], trunc)[0][0])

    if isinstance(mu, LebesgueBox):
        return complex(_box_ft(mu, xi))

    if isinstance(mu, LebesgueDisc):
        return complex(_disc_ft(mu, xi))

    if isinstance(mu, PushforwardMeasure):
        # lazy: both modules import this one
        from ._oscillatory import effective_pair, exp_moments, measure_rule
        from .phases import Identity, as_selfsimilar

        reduced = as_selfsimilar(*effective_pair(mu.base, mu.map))
        if reduced is not None:
            return fourier_transform(reduced, xi, trunc=trunc)
        # gauss(64) sets the box order; discs and digit bases get their own rules
        quad = measure_rule(mu, gauss(order=64))
        vals, _ = exp_moments(mu, Identity(mu.dim), xi[None, :], quad)
        return complex(vals[0, 0])

    raise SchemeMismatchError(f"unsupported measure kind {mu.kind!r}")
