"""Phase maps: evaluation, Jacobians, measure-preservation and injectivity probes.

All maps are vectorized: calling a map with an (n, in_dim) array returns an
(n, out_dim) array; a single point of shape (in_dim,) returns (out_dim,).
Evaluation is pure and thread-safe (the triangular family's antiderivative
memo is swapped atomically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import DomainError, InversionError


class PhaseMap:
    in_dim: int
    out_dim: int
    differentiable = True  # False: no Jacobian, so no oscillation-aware quadrature

    def _eval(self, pts):
        raise NotImplementedError

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.in_dim:
            raise DomainError(
                f"expected points of dim {self.in_dim}, got {pts.shape[1]}"
            )
        out = self._eval(pts)
        return out[0] if single else out

    def jacobian(self, x, h=1e-5):
        """(out_dim, in_dim) Jacobian at one point; central differences by default."""
        return self.jacobian_batch(np.asarray(x, dtype=float)[None, :], h=h)[0]

    def jacobian_batch(self, pts, h=1e-5):
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[0]
        J = np.empty((n, self.out_dim, self.in_dim))
        for j in range(self.in_dim):
            step = np.zeros(self.in_dim)
            step[j] = h
            J[:, :, j] = (self._eval(pts + step) - self._eval(pts - step)) / (2 * h)
        return J

    def invert(self, y):
        raise InversionError(f"{type(self).__name__} has no inverse routine")


class Identity(PhaseMap):
    def __init__(self, dim=1):
        self.in_dim = self.out_dim = int(dim)

    def _eval(self, pts):
        return pts.copy()

    def jacobian_batch(self, pts, h=1e-5):
        n = pts.shape[0]
        return np.broadcast_to(np.eye(self.in_dim), (n, self.in_dim, self.in_dim)).copy()

    def invert(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return y.copy(), np.ones(y.shape[0], dtype=bool)


class Affine(PhaseMap):
    """x -> M x + b with M of shape (out_dim, in_dim)."""

    def __init__(self, M, b=None):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        self.M = M
        self.out_dim, self.in_dim = M.shape
        self.b = np.zeros(self.out_dim) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (self.out_dim,):
            raise DomainError("b must match the output dimension")

    def _eval(self, pts):
        return pts @ self.M.T + self.b

    def jacobian_batch(self, pts, h=1e-5):
        return np.broadcast_to(self.M, (pts.shape[0],) + self.M.shape).copy()

    def invert(self, y):
        if self.in_dim != self.out_dim:
            raise InversionError("affine map is not square")
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = np.linalg.solve(self.M, (y - self.b).T).T
        return x, np.ones(y.shape[0], dtype=bool)


class DigitMap(PhaseMap):
    """Base-b digit re-encoding on [0, 1]-type supports.

    The input is expanded in base `in_base` using its non-terminating
    expansion (b-adic rationals take the all-(b-1)s tail, a measure-zero
    choice), each digit is re-mapped through `digit_map`, and the output is
    re-assembled in base `out_base`.  Expansion is truncated at `depth`.
    Digits that fall outside `in_digits` (possible for points off the digit
    support, or from float noise) are snapped to the nearest allowed digit.
    """

    differentiable = False

    def __init__(self, in_base, in_digits, out_base, digit_map, depth=30):
        self.in_base = int(in_base)
        self.out_base = int(out_base)
        digits = measures._finite(in_digits, "digit map in_digits")
        if digits.ndim != 1 or np.any(digits != np.round(digits)):
            raise DomainError("in_digits must be a list of integers")
        self.in_digits = tuple(int(d) for d in digits)
        self.digit_map = {int(k): float(v) for k, v in dict(digit_map).items()}
        self.depth = int(depth)
        if self.in_base < 2 or self.out_base < 2:
            raise DomainError("bases must be >= 2")
        if set(self.digit_map) != set(self.in_digits):
            raise DomainError("digit_map must cover exactly the input digit set")
        out_vals = list(self.digit_map.values())
        if len(set(out_vals)) != len(out_vals):
            raise DomainError("digit_map must be injective on the input digit set")
        self.in_dim = self.out_dim = 1
        self._allowed = np.array(sorted(self.in_digits), dtype=float)
        self._out_for = np.array(
            [self.digit_map[int(d)] for d in self._allowed], dtype=float
        )

    def _eval(self, pts):
        x = pts[:, 0]
        if np.any((x < -1e-12) | (x > 1 + 1e-12)):
            raise DomainError("digit map points must lie in [0, 1]")
        r = np.clip(x, 0.0, 1.0)
        out = np.zeros_like(r)
        scale = 1.0
        nonzero = r > 0
        for _ in range(self.depth):
            scale /= self.out_base
            t = r * self.in_base
            d = np.where(nonzero, np.ceil(t) - 1.0, 0.0)
            d = np.clip(d, 0, self.in_base - 1)
            idx = np.searchsorted(self._allowed, d)
            idx = np.clip(idx, 0, len(self._allowed) - 1)
            left = np.clip(idx - 1, 0, len(self._allowed) - 1)
            pick_left = np.abs(self._allowed[left] - d) < np.abs(
                self._allowed[idx] - d
            )
            idx = np.where(pick_left, left, idx)
            snapped = self._allowed[idx]
            out += np.where(nonzero, self._out_for[idx], 0.0) * scale
            r = t - snapped
        return out[:, None]

    def jacobian_batch(self, pts, h=1e-5):
        raise DomainError("digit maps are not differentiable")


def binary_to_quaternary(depth=30) -> DigitMap:
    """[0,1] -> middle-fourth Cantor set: binary digit e becomes 2e base 4."""
    return DigitMap(2, (0, 1), 4, {0: 0.0, 1: 2.0}, depth=depth)


def ternary_to_quaternary(depth=30) -> DigitMap:
    """Middle-third Cantor set -> middle-fourth: ternary digits {0,2} kept, base 4."""
    return DigitMap(3, (0, 2), 4, {0: 0.0, 2: 2.0}, depth=depth)


class Holhos(PhaseMap):
    """Area-preserving map from the closed unit disc onto the l1 ball of area pi.

    sgn(0) = 0, which sends the axes to the square's diagonals consistently
    with continuity of the radial factor.  C^1 off the axes.
    """

    def __init__(self):
        self.in_dim = self.out_dim = 2

    def _eval(self, pts):
        x = pts[:, 0]
        y = pts[:, 1]
        r2 = x * x + y * y
        if np.any(r2 > 1 + 1e-9):
            raise DomainError("Holhos map requires points in the closed unit disc")
        safe = np.where(r2 > 0, r2, 1.0)
        ratio = np.clip((x * x - y * y) / safe, -1.0, 1.0)
        asn = np.arcsin(ratio)
        s = np.sqrt(r2 / (2 * math.pi))
        X = np.sign(x) * s * (math.pi / 2 + asn)
        Y = np.sign(y) * s * (math.pi / 2 - asn)
        return np.stack([X, Y], axis=-1)


class Unipotent(PhaseMap):
    """phi(x)_k = x_k + l_k(x_{k+1..d}), last coordinate fixed.

    `shifts` holds the l_k as callables on full (n, d) point arrays; l_k must
    depend only on columns k+1..d-1 (0-based).  The Jacobian is unit upper
    triangular by construction: the diagonal is exactly 1 and entries at or
    below it are exactly 0, so det == 1 identically.  Optional `grads[k]`
    returns the (n, d-1-k) array of dl_k/dx_j for j = k+1..d-1; otherwise
    entries above the diagonal use central differences.
    """

    def __init__(self, shifts, dim, grads=None):
        self.shifts = tuple(shifts)
        self.in_dim = self.out_dim = int(dim)
        if len(self.shifts) != self.in_dim - 1:
            raise DomainError("need d-1 shift functions for dimension d")
        self.grads = tuple(grads) if grads is not None else None

    def _eval(self, pts):
        out = pts.copy()
        for k, l_k in enumerate(self.shifts):
            out[:, k] += np.asarray(l_k(pts))
        return out

    def jacobian_batch(self, pts, h=1e-5):
        n, d = pts.shape
        J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        for k, l_k in enumerate(self.shifts):
            if self.grads is not None:
                g = np.asarray(self.grads[k](pts))
                if g.ndim == 1:
                    g = g[:, None]
                J[:, k, k + 1 :] = g
            else:
                for j in range(k + 1, d):
                    step = np.zeros(d)
                    step[j] = h
                    J[:, k, j] = (
                        np.asarray(l_k(pts + step)) - np.asarray(l_k(pts - step))
                    ) / (2 * h)
        return J

    def invert(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = y.copy()
        for k in range(self.in_dim - 2, -1, -1):
            x[:, k] = y[:, k] - np.asarray(self.shifts[k](x))
        return x, np.ones(y.shape[0], dtype=bool)


class _MonotoneAntiderivative:
    """F(t) = integral_1^t w(tau) dtau for strictly positive w.

    Composite-Gauss grid refined until every interval's two-order residual is
    below `tol`; queries add a 16-node panel from the nearest grid knot, so
    evaluation is vectorized and the grid is a read-only memo.  Extension on
    out-of-range queries rebuilds the grid (atomic swap; thread-safe reads).
    """

    _ORDER_HI = 16
    _ORDER_LO = 8

    def __init__(self, w, tol=1e-12):
        self.w = w
        self.tol = tol
        self._grid = None  # (knots, F-values)

    def _panel(self, a, b, order):
        x, wq = measures._leggauss(order)
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * x[None, :]
        with np.errstate(over="ignore"):
            vals = self.w(nodes.ravel()).reshape(nodes.shape)
        if np.any(vals < 0):
            raise DomainError("z must stay positive on the queried range")
        return half * (vals @ wq)

    def _build(self, lo, hi):
        knots = np.unique(np.concatenate([np.linspace(lo, hi, 257), [1.0]]))
        for _ in range(40):
            a, b = knots[:-1], knots[1:]
            hi_int = self._panel(a, b, self._ORDER_HI)
            lo_int = self._panel(a, b, self._ORDER_LO)
            err = np.abs(hi_int - lo_int)
            bad = err > self.tol / max(len(a), 1)
            if not np.any(bad):
                break
            mids = 0.5 * (a[bad] + b[bad])
            knots = np.unique(np.concatenate([knots, mids]))
        a, b = knots[:-1], knots[1:]
        seg = self._panel(a, b, self._ORDER_HI)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        anchor = np.searchsorted(knots, 1.0)
        cum = cum - cum[anchor]  # F(1) = 0
        if not np.all(np.isfinite(cum)):
            raise DomainError("antiderivative overflows on the requested range")
        self._grid = (knots, cum)

    def _ensure(self, lo, hi):
        pad = 0.5 * (hi - lo + 1.0)
        if self._grid is None:
            self._build(lo - pad, hi + pad)
            return
        knots, _ = self._grid
        if lo < knots[0] or hi > knots[-1]:
            self._build(min(lo, knots[0]) - pad, max(hi, knots[-1]) + pad)

    def _edge_gain(self, a, b):
        """Attainable |F| growth over [a, b]; inf signals overflow (worth trying)."""
        try:
            with np.errstate(over="ignore"):
                seg = self._panel(np.array([a]), np.array([b]), self._ORDER_LO)
            return float(seg[0]) if np.isfinite(seg[0]) else np.inf
        except DomainError:
            return np.inf

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        self._ensure(float(t.min()), float(t.max()))
        knots, cum = self._grid
        idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
        base = knots[idx]
        x, wq = measures._leggauss(self._ORDER_HI)
        mid = 0.5 * (base + t)
        half = 0.5 * (t - base)
        nodes = mid[..., None] + half[..., None] * x
        with np.errstate(over="ignore"):
            vals = self.w(nodes.ravel()).reshape(nodes.shape)
        return cum[idx] + half * (vals @ wq)

    def inverse(self, v, newton_steps=4):
        """Solve F(t) = v where reachable; F is strictly increasing since w > 0.

        Returns (t, ok): ok is False where v lies outside the attainable range
        of F.  F may saturate (integrable tails of w); expansion of the grid
        stops once the attainable boundary no longer makes progress toward the
        requested values, so those become definitive no-preimage answers.
        """
        v = np.asarray(v, dtype=float)
        if self._grid is None:
            self._ensure(0.0, 2.0)
        for _ in range(8):
            knots, cum = self._grid
            hi_ok = v.max() <= cum[-1]
            lo_ok = v.min() >= cum[0]
            if hi_ok and lo_ok:
                break
            # extend only sides that are both needed and can still make
            # progress (F may saturate); symmetric growth would let
            # unreachable targets inflate the grid until its dynamic range
            # destroys the anchored cumulative sums by cancellation
            span = knots[-1] - knots[0]
            grow_hi = grow_lo = False
            if not hi_ok:
                gain = self._edge_gain(knots[-1], knots[-1] + span)
                grow_hi = gain > 0.01 * (v.max() - cum[-1])
            if not lo_ok:
                gain = self._edge_gain(knots[0] - span, knots[0])
                grow_lo = gain > 0.01 * (cum[0] - v.min())
            if not (grow_hi or grow_lo):
                break
            try:
                self._build(
                    knots[0] - (span if grow_lo else 0.0),
                    knots[-1] + (span if grow_hi else 0.0),
                )
            except (DomainError, FloatingPointError):
                break
        knots, cum = self._grid
        eps_lo = 1e-9 * (1.0 + abs(cum[0]))
        eps_hi = 1e-9 * (1.0 + abs(cum[-1]))
        ok = (v >= cum[0] - eps_lo) & (v <= cum[-1] + eps_hi)
        safe_v = np.clip(v, cum[0], cum[-1])
        # exact bracket per point, then clipped Newton inside it
        j = np.clip(np.searchsorted(cum, safe_v), 1, len(knots) - 1)
        t_lo = knots[j - 1]
        t_hi = knots[j]
        t = np.interp(safe_v, cum, knots)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for _ in range(newton_steps):
                step = (self(t) - safe_v) / self.w(t)
                step = np.where(np.isfinite(step), step, 0.0)
                t = np.clip(t - step, t_lo, t_hi)
        return t, ok


class Triangular2D(PhaseMap):
    """(x1, x2) -> (z(x2) x1 + f(x2), integral_1^{x2} dt/z(t) + K).

    The family with upper-triangular unit-determinant Jacobian.  z must be
    positive C^1 (checked at call time on queried points); the inner integral
    uses an adaptive composite-Gauss antiderivative memo with abs tol 1e-12.
    Optional z_prime / f_prime give the analytic Jacobian's corner entry.
    """

    def __init__(self, z, f=None, K=0.0, z_prime=None, f_prime=None):
        self.z = z
        self.f = f if f is not None else (lambda t: np.zeros_like(t))
        self.K = float(K)
        self.z_prime = z_prime
        self.f_prime = f_prime
        self.in_dim = self.out_dim = 2
        self._anti = _MonotoneAntiderivative(lambda t: 1.0 / self._z_checked(t))

    def _z_checked(self, t):
        vals = np.asarray(self.z(t), dtype=float)
        if np.any(vals <= 0):
            raise DomainError("z(x2) must be positive on queried points")
        return vals

    def second_component(self, x2):
        return self._anti(np.asarray(x2, dtype=float)) + self.K

    def _eval(self, pts):
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        z = self._z_checked(x2)
        out1 = z * x1 + np.asarray(self.f(x2), dtype=float)
        out2 = self.second_component(x2)
        return np.stack([out1, out2], axis=-1)

    def jacobian_batch(self, pts, h=1e-5):
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        z = self._z_checked(x2)
        if self.z_prime is not None:
            zp = np.asarray(self.z_prime(x2), dtype=float)
        else:
            zp = (self._z_checked(x2 + h) - self._z_checked(x2 - h)) / (2 * h)
        if self.f_prime is not None:
            fp = np.asarray(self.f_prime(x2), dtype=float)
        else:
            fp = (
                np.asarray(self.f(x2 + h), dtype=float)
                - np.asarray(self.f(x2 - h), dtype=float)
            ) / (2 * h)
        n = pts.shape[0]
        J = np.zeros((n, 2, 2))
        J[:, 0, 0] = z
        J[:, 0, 1] = fp + x1 * zp
        J[:, 1, 1] = 1.0 / z
        return J

    def invert(self, y):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x2, ok = self._anti.inverse(y[:, 1] - self.K)
        z = self._z_checked(x2)
        x1 = (y[:, 0] - np.asarray(self.f(x2), dtype=float)) / z
        out = np.stack([x1, x2], axis=-1)
        ok = ok & np.all(np.isfinite(out), axis=1)
        return out, ok


class CustomPhase(PhaseMap):
    def __init__(self, fn, in_dim, out_dim, jac=None):
        self.fn = fn
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self._jac = jac

    def _eval(self, pts):
        out = np.asarray(self.fn(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        return out

    def jacobian_batch(self, pts, h=1e-5):
        if self._jac is not None:
            return np.asarray(self._jac(pts), dtype=float)
        return super().jacobian_batch(pts, h=h)


class ComposedPhase(PhaseMap):
    """outer(inner(x)); Jacobian by the chain rule where both sides have one."""

    def __init__(self, outer, inner):
        if inner.out_dim != outer.in_dim:
            raise DomainError("composition dimensions do not match")
        self.outer = outer
        self.inner = inner
        self.in_dim = inner.in_dim
        self.out_dim = outer.out_dim
        self.differentiable = outer.differentiable and inner.differentiable

    def _eval(self, pts):
        return self.outer._eval(self.inner._eval(pts))

    def jacobian_batch(self, pts, h=1e-5):
        inner_pts = self.inner._eval(pts)
        Jo = self.outer.jacobian_batch(inner_pts, h=h)
        Ji = self.inner.jacobian_batch(pts, h=h)
        return np.einsum("nij,njk->nik", Jo, Ji)

    def invert(self, y):
        mid, ok1 = self.outer.invert(y)
        x, ok2 = self.inner.invert(mid)
        return x, ok1 & ok2


def compose(outer, inner) -> PhaseMap:
    if isinstance(outer, Identity):
        return inner
    if isinstance(inner, Identity):
        return outer
    return ComposedPhase(outer, inner)


# ---------------------------------------------------------------------------
# pushforward recognition (digit systems)
# ---------------------------------------------------------------------------


def as_selfsimilar(mu, phi) -> measures.SelfSimilar | None:
    """Recognize phi_* mu for a base measure mu as a self-similar digit measure.

    Cases: identity on a SelfSimilar; a DigitMap over Lebesgue[0,1] (binary
    digits of a uniform variable are i.i.d. uniform); a DigitMap over a
    matching equal-ratio SelfSimilar with the same digit set.  Else None.
    """
    if isinstance(phi, Identity) and isinstance(mu, measures.SelfSimilar):
        return mu
    if not isinstance(phi, DigitMap):
        return None
    if isinstance(mu, measures.LebesgueBox):
        if mu.dim != 1:
            return None
        if abs(mu.lo[0]) > 1e-12 or abs(mu.hi[0] - 1.0) > 1e-12:
            return None
        if tuple(sorted(phi.in_digits)) != tuple(range(phi.in_base)):
            return None
        w = 1.0 / phi.in_base
        digits = tuple((phi.digit_map[d], w) for d in sorted(phi.in_digits))
        return measures.SelfSimilar(phi.out_base, digits)
    if isinstance(mu, measures.SelfSimilar):
        if mu.ratio != phi.in_base:
            return None
        offsets = tuple(sorted(d for d, _ in mu.digits))
        if offsets != tuple(sorted(float(d) for d in phi.in_digits)):
            return None
        digits = tuple(
            (phi.digit_map[int(d)], w) for d, w in sorted(mu.digits)
        )
        return measures.SelfSimilar(phi.out_base, digits)
    return None


# ---------------------------------------------------------------------------
# checks and probes
# ---------------------------------------------------------------------------


@dataclass
class PreservationReport:
    max_dev: float
    points_checked: int
    excluded_fraction: float
    tol: float

    @property
    def passed(self):
        return self.max_dev <= self.tol


def axis_band_exclusion(width):
    """Exclude points within `width` of a coordinate axis (non-smooth loci)."""

    def excluded(pts):
        return np.any(np.abs(pts) < width, axis=1)

    return excluded


def measure_preservation_check(
    phi, domain, n=10_000, tol=1e-6, seed=0, exclusion=None, h=1e-5
) -> PreservationReport:
    """Sampled check of |det J(phi)| == 1 over the domain measure.

    PASS iff the max deviation over non-excluded sample points is <= tol.
    `exclusion` masks a neighborhood of non-smooth loci (e.g. the disc axes
    for the disc-to-square map); the excluded fraction is reported.
    """
    pts = measures.sample(domain, n, seed=seed)
    if exclusion is not None:
        mask = ~np.asarray(exclusion(pts), dtype=bool)
    else:
        mask = np.ones(pts.shape[0], dtype=bool)
    kept = pts[mask]
    if kept.shape[0] == 0:
        raise DomainError("exclusion region removed every sample point")
    J = phi.jacobian_batch(kept, h=h)
    dets = np.abs(np.linalg.det(J))
    max_dev = float(np.max(np.abs(dets - 1.0)))
    return PreservationReport(
        max_dev=max_dev,
        points_checked=int(kept.shape[0]),
        excluded_fraction=float(1.0 - kept.shape[0] / pts.shape[0]),
        tol=tol,
    )


@dataclass
class CollisionReport:
    n_samples: int
    collisions: list
    collision_fraction: float
    delta_x: float
    delta_y: float

    def to_json_dict(self):
        return {
            "n_samples": self.n_samples,
            "n_collision_pairs_stored": len(self.collisions),
            "collision_fraction": self.collision_fraction,
            "delta_x": self.delta_x,
            "delta_y": self.delta_y,
        }


_MAX_STORED_PAIRS = 64


def essential_injectivity_probe(
    phi, mu, n=10_000, delta_x=None, delta_y=None, seed=0
) -> CollisionReport:
    """Sampled falsification probe for injectivity off a null set.

    Searches n draws from mu for pairs that are far in x (> delta_x) but
    close in phi(x) (< delta_y), via a k-d tree on the image values.
    collision_fraction is the fraction of samples involved in at least one
    such pair; the first pairs in (i, j) order are stored.  A zero fraction
    is "no counterexample found", never a certificate; a large fraction
    refutes essential injectivity at the probe scales.  Caller is
    responsible for delta_x > delta_y * L when a Lipschitz bound L is known.
    """
    from scipy.spatial import cKDTree

    if n < 100:
        raise DomainError("n must be >= 100")
    pts = measures.sample(mu, n, seed=seed)
    img = phi(pts)
    if delta_x is None:
        lo, hi = mu.support_box()
        delta_x = 0.05 * float(np.linalg.norm(hi - lo))
    if delta_y is None:
        span = img.max(axis=0) - img.min(axis=0)
        delta_y = 1e-4 * float(np.linalg.norm(span))
    if delta_y <= 0:
        delta_y = 1e-12

    i, j = cKDTree(img).query_pairs(delta_y, output_type="ndarray").T
    hit = (np.linalg.norm(img[i] - img[j], axis=1) < delta_y) & (
        np.linalg.norm(pts[i] - pts[j], axis=1) > delta_x
    )
    i, j = i[hit], j[hit]
    involved = np.zeros(n, dtype=bool)
    involved[i] = involved[j] = True
    first = np.lexsort((j, i))[:_MAX_STORED_PAIRS]
    return CollisionReport(
        n_samples=n,
        collisions=[(pts[a].tolist(), pts[b].tolist()) for a, b in zip(i[first], j[first])],
        collision_fraction=float(involved.mean()),
        delta_x=float(delta_x),
        delta_y=float(delta_y),
    )
