"""Phase maps: evaluation, Jacobians, measure-preservation and injectivity probes.

All maps are vectorized: calling a map with an (n, in_dim) array returns an
(n, out_dim) array; a single point of shape (in_dim,) returns (out_dim,).
Evaluation is pure and thread-safe: the triangular family's antiderivative
memo is swapped atomically, and its values do not depend on which queries
built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import DomainError, InversionError, _finite, _integer, _real

_STEP = 1e-5  # central-difference step of numerical Jacobian entries

# digit map bases stop here, where float(base) is still exact
_MAX_BASE = 1 << 53


def _central(fn, x, step):
    """Central difference of fn at x; `step` is _STEP or a vector holding it once."""
    fwd, back = np.asarray(fn(x + step), dtype=float), np.asarray(fn(x - step), dtype=float)
    return (fwd - back) / (2 * _STEP)


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
        with np.errstate(all="ignore"):  # inf and nan pass on; consumers check finiteness
            out = self._eval(pts)
        return out[0] if single else out

    def jacobian_batch(self, pts):
        """(n, out_dim, in_dim) Jacobians at n points.

        Central differences with step `_STEP` unless a subclass knows better:
        exact for identity, affine and group-exponential phases; exact
        diagonal and zeros, differenced upper entries for the triangular ones.
        """
        pts = np.asarray(pts, dtype=float)
        n = pts.shape[0]
        J = np.empty((n, self.out_dim, self.in_dim))
        for j in range(self.in_dim):
            step = np.zeros(self.in_dim)
            step[j] = _STEP
            with np.errstate(invalid="ignore", over="ignore"):  # callers check finiteness
                J[:, :, j] = _central(self._eval, pts, step)
        return J

    def invert(self, y, box=None):
        """(x, ok): phi(x) = y where ok, for y of shape (n, out_dim).

        `box` is an optional (lo, hi) pair, the bounds of a membership test
        lo <= x < hi run on the answer.  With it, a row whose preimage
        provably lies outside the box may come back unrefined, but still
        outside the box; `ok` never depends on it.
        """
        raise InversionError(f"{type(self).__name__} has no inverse routine")

    def linear_part(self):
        """(cols, C) when phi is affine in the input coordinates `cols` with the
        constant coefficient block C = d phi / d x_cols of shape
        (out_dim, len(cols)), so lambda . phi is too; None when none is known."""
        return None


class Identity(PhaseMap):
    def __init__(self, dim=1):
        self.in_dim = self.out_dim = _integer(dim, "identity dim", 1)

    def _eval(self, pts):
        return pts.copy()

    def jacobian_batch(self, pts):
        n = pts.shape[0]
        return np.broadcast_to(np.eye(self.in_dim), (n, self.in_dim, self.in_dim)).copy()

    def invert(self, y, box=None):
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return y.copy(), np.ones(y.shape[0], dtype=bool)

    def linear_part(self):
        return tuple(range(self.in_dim)), np.eye(self.in_dim)


class Affine(PhaseMap):
    """x -> M x + b with M of shape (out_dim, in_dim)."""

    def __init__(self, M, b=None):
        M = np.atleast_2d(_finite(M, "affine M"))
        if M.ndim != 2 or M.size == 0:
            raise DomainError("affine M must be a non-empty 2-d matrix")
        self.M = M
        self.out_dim, self.in_dim = M.shape
        self.b = np.zeros(self.out_dim) if b is None else _finite(b, "affine b")
        if self.b.shape != (self.out_dim,):
            raise DomainError("b must match the output dimension")

    def _eval(self, pts):
        return pts @ self.M.T + self.b

    def jacobian_batch(self, pts):
        return np.broadcast_to(self.M, (pts.shape[0],) + self.M.shape).copy()

    def invert(self, y, box=None):
        if self.in_dim != self.out_dim:
            raise InversionError("affine map is not square")
        y = np.atleast_2d(np.asarray(y, dtype=float))
        try:
            x = np.linalg.solve(self.M, (y - self.b).T).T
        except np.linalg.LinAlgError:
            raise InversionError("affine map is singular") from None
        return x, np.ones(y.shape[0], dtype=bool)

    def linear_part(self):
        return tuple(range(self.in_dim)), self.M


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
        self.in_base = _integer(in_base, "in_base", 2, _MAX_BASE)
        self.out_base = _integer(out_base, "out_base", 2, _MAX_BASE)
        digits = _finite(in_digits, "digit map in_digits")
        if digits.ndim != 1 or digits.size == 0 or np.any(digits != np.round(digits)):
            raise DomainError("in_digits must be a non-empty list of integers")
        self.in_digits = tuple(int(d) for d in digits)
        if not isinstance(digit_map, dict):
            raise DomainError(f"digit_map must be a dict of digits to numbers, got {digit_map!r}")
        self.digit_map = {
            _integer(k, "digit_map key"): _real(v, "digit_map value")
            for k, v in digit_map.items()
        }
        self.depth = _integer(depth, "depth", 1, measures._MAX_DEPTH)
        if set(self.digit_map) != set(self.in_digits):
            raise DomainError("digit_map must cover exactly the input digit set")
        out_vals = list(self.digit_map.values())
        # squares of the image must stay finite, as in the injectivity probe
        top = max(map(abs, out_vals), default=0.0)
        if top >= 1e150:
            raise DomainError(f"digit_map values must be below 1e150 in magnitude, got {top!r}")
        if len(set(out_vals)) != len(out_vals):
            raise DomainError("digit_map must be injective on the input digit set")
        self.in_dim = self.out_dim = 1
        allowed = np.array(sorted(self.in_digits), dtype=float)
        out_for = np.array([self.digit_map[int(d)] for d in allowed], dtype=float)
        # each base digit's nearest allowed digit, ties to the larger; digits
        # above the largest allowed one snap to it, so the table stops there
        self._top = int(np.clip(allowed[-1], 0, self.in_base - 1))
        measures._check_entries(self._top + 1, 1, "digit snap table")
        d = np.arange(self._top + 1, dtype=float)
        idx = np.minimum(np.searchsorted(allowed, d), len(allowed) - 1)
        left = np.maximum(idx - 1, 0)
        idx = np.where(np.abs(allowed[left] - d) < np.abs(allowed[idx] - d), left, idx)
        self._snapped = allowed[idx]
        self._snapped_out = out_for[idx]

    def _levels(self, pts):
        """The levels of the (n, 1) points' expansions, first to last, each as
        (out_base^-level, (n,) snapped digit indices k, mask of the points
        above 0).  Index k is the input digit _snapped[k] with output digit
        _snapped_out[k]; a point at 0 has no digits and maps to 0."""
        x = pts[:, 0]
        if np.any((x < -1e-12) | (x > 1 + 1e-12)):
            raise DomainError("digit map points must lie in [0, 1]")
        r = np.clip(x, 0.0, 1.0)
        scale = 1.0
        nonzero = r > 0
        for _ in range(self.depth):
            scale /= self.out_base
            t = r * self.in_base
            d = np.where(nonzero, np.ceil(t) - 1.0, 0.0)
            k = np.clip(d, 0, self._top).astype(np.intp)
            yield scale, k, nonzero
            r = t - self._snapped[k]

    def _eval(self, pts):
        out = np.zeros(pts.shape[0])
        for scale, k, nonzero in self._levels(pts):
            out += np.where(nonzero, self._snapped_out[k], 0.0) * scale
        return out[:, None]

    def _codes(self, pts, levels):
        """((n, B) codes, (B, K^L + 1) offsets) of the (n, 1) points: their
        expansions cut into B blocks of L = `levels` levels (the last one may
        be shorter), K = _top + 1.  A code packs its block's snapped digit
        indices in base K, the block's first level most significant, and
        offsets[b, code] is that block's output digits times out_base^-level,
        added level by level as `_eval` adds them, so phi(x) is
        sum_b offsets[b, codes[:, b]] up to rounding.  A point at 0 takes code
        K^L, whose offset is 0, in every block.  Points off [0, 1] raise as
        `_eval` does."""
        K = self._top + 1
        size = K**levels
        blocks = -(-self.depth // levels)
        codes = np.zeros((blocks, pts.shape[0]), dtype=np.intp)
        offsets = np.zeros((blocks, size + 1))
        table = np.zeros(1)
        for level, (scale, k, nonzero) in enumerate(self._levels(pts)):
            block = codes[level // levels]
            block *= K
            block += k
            table = (table[:, None] + self._snapped_out * scale).ravel()
            if (level + 1) % levels == 0 or level + 1 == self.depth:
                offsets[level // levels, : table.size] = table
                table = np.zeros(1)
        codes[:, ~nonzero] = size
        return codes.T, offsets

    def jacobian_batch(self, pts):
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
    triangular by construction: the diagonal is exactly 1 and entries
    below it are exactly 0, so det == 1 identically.  Entries above the
    diagonal are central differences of the l_k; no consumer reads them
    beyond a cycle estimate that rounds to whole panels.  No l_k reads x1,
    so phi is affine in x1 with the constant coefficient e_1.
    """

    def __init__(self, shifts, dim):
        if not (isinstance(shifts, (list, tuple)) and all(map(callable, shifts))):
            raise DomainError(f"unipotent shifts must be a list of callables, got {shifts!r}")
        self.shifts = tuple(shifts)
        self.in_dim = self.out_dim = _integer(dim, "unipotent dim", 1)
        if len(self.shifts) != self.in_dim - 1:
            raise DomainError("need d-1 shift functions for dimension d")

    def _eval(self, pts):
        out = pts.copy()
        for k, l_k in enumerate(self.shifts):
            out[:, k] += np.asarray(l_k(pts))
        return out

    def jacobian_batch(self, pts):
        n, d = pts.shape
        J = np.broadcast_to(np.eye(d), (n, d, d)).copy()
        for k, l_k in enumerate(self.shifts):
            for j in range(k + 1, d):
                step = np.zeros(d)
                step[j] = _STEP
                J[:, k, j] = _central(l_k, pts, step)
        return J

    def invert(self, y, box=None):
        """Back-substitution x_k = y_k - l_k(x), last coordinate first.

        With a box, l_k runs only on the rows whose coordinates after k
        already lie in it; the other rows keep x_k = y_k, and their later
        coordinates stay outside the box.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = y.copy()
        live = None if box is None else np.ones(y.shape[0], dtype=bool)
        for k in range(self.in_dim - 2, -1, -1):
            if live is None:
                x[:, k] = y[:, k] - np.asarray(self.shifts[k](x))
                continue
            live &= x[:, k + 1] >= box[0][k + 1]
            live &= x[:, k + 1] < box[1][k + 1]
            rows = np.flatnonzero(live)
            if rows.size:
                x[rows, k] = y[rows, k] - np.asarray(self.shifts[k](x[rows]))
        return x, np.ones(y.shape[0], dtype=bool)

    def linear_part(self):
        return (0,), np.eye(self.out_dim)[:, :1]


def _cheb_rule(n):
    """First-kind Chebyshev nodes on [-1, 1] and the cosine matrix taking
    samples there to Chebyshev coefficients (row j: coefficient of T_j)."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    cosines = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    cosines[0] *= 0.5
    return np.cos(theta), cosines


_BLOCK = 4096  # points per block: a block's gathered panel series stay in cache


def _blocks(n):
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


_GUIDE_CELLS = 4  # guide cells per interval of the sorted array a guide serves


def _cells(t, x0, scale, cells):
    """Guide cells of t: floor((t - x0) scale) held to [0, cells - 1] (NaN to
    the last).  Each float step is monotone in t, so the cells are too."""
    c = np.subtract(t, x0)
    c *= scale
    np.fmin(c, cells - 1, out=c)
    np.fmax(c, 0, out=c)
    return c.astype(np.intp)


def _guide(x):
    """The table `_lookup` reads for the sorted array x (length n >= 2):
    uniform cells over [x[0], x[-1]], and for each cell the number of x in
    lower cells, minus 1, held to [0, n - 2].  Since `_cells` is monotone, an
    x[i] in a lower cell than t lies below t, so a cell's entry never
    exceeds the index of any query in it."""
    n = x.size
    cells = _GUIDE_CELLS * (n - 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = cells / (x[-1] - x[0])
    if not (np.isfinite(scale) and scale > 0):
        cells, scale = 1, 0.0
    start = np.searchsorted(_cells(x, x[0], scale, cells), np.arange(cells)) - 1
    nxt = np.append(x[1:-1], np.nan)  # x[i + 1]; NaN never compares, so no step past n - 2
    return x[0], scale, cells, np.clip(start, 0, n - 2), nxt


def _lookup(guide, t):
    """clip(searchsorted(x, t, side="right") - 1, 0, len(x) - 2), the last
    x[i] <= t, for the `_guide` of x and t not NaN.  Exact, ties included:
    each query starts at its cell's entry and steps up while the next x is
    at or below it."""
    x0, scale, cells, start, nxt = guide
    idx = start[_cells(t, x0, scale, cells)]
    up = nxt[idx] <= t
    idx += up
    rows = np.flatnonzero(up)
    while rows.size:  # only the rows that stepped can step again
        at = idx[rows]
        up = nxt[at] <= t[rows]
        idx[rows] = at + up
        rows = rows[up]
    return idx


class _MonotoneAntiderivative:
    """F(t) = integral_1^t w(tau) dtau for strictly positive w.

    Each knot panel [a, b] holds the Chebyshev series of integral_a^t w
    (degree `_ORDER`, from w at `_ORDER` Chebyshev nodes).  A panel is split
    while w's last two coefficients, scaled to the panel, exceed `_TOL` of
    the panel's own integral.  F at the knots is the running sum of the
    panels' end values, outward from t = 1.  The knots start from one fixed
    partition anchored at 1 (`_offsets`), so grids built for different
    ranges share their panels and F is bitwise independent of query
    history.  A query finds its panel in the grid's guide table (`_lookup`,
    exactly `searchsorted`'s panel) and sums the panel's series by Clenshaw
    in per-block buffers, so the grid is a read-only memo.  Extension on
    out-of-range queries rebuilds the grid and its guide (atomic swap;
    thread-safe reads).
    """

    _ORDER = 16
    _TOL = 1e-12
    _NEWTON_STEPS = 4
    _CHEB_NODES, _CHEB_COSINES = _cheb_rule(_ORDER)

    def __init__(self, w):
        self.w = w
        self._grid = None  # (knots, F at the knots, (degree + 1, panels) series, knot guide)

    @staticmethod
    def _offsets(reach):
        """Offsets 2^{j/64} - 1 of the fixed partition, j = 0, 1, ..., up to
        the first one at or past `reach` >= 0 (at least up to j = 1)."""
        j = np.arange(int(64 * np.log2(1.0 + reach)) + 2)
        offs = np.exp2(j / 64.0) - 1.0
        return offs[: max(np.searchsorted(offs, reach), 1) + 1]

    def _series(self, a, b):
        """Chebyshev coefficients of integral_a^t w on each panel [a, b], and
        the panels' truncation estimate (w's last two coefficients, scaled)."""
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[:, None] + half[:, None] * self._CHEB_NODES
        with np.errstate(over="ignore", invalid="ignore"):
            vals = self.w(nodes.ravel()).reshape(nodes.shape)
            if np.any(vals < 0):
                raise DomainError("z must stay positive on the queried range")
            # einsum, not a BLAS matmul, whose sums depend on the batch: a
            # panel's series must not depend on the panels built beside it
            cw = np.einsum("jk,nk->jn", self._CHEB_COSINES, vals)
            tail = half * (np.abs(cw[-2]) + np.abs(cw[-1]))
            return np.polynomial.chebyshev.chebint(cw, lbnd=-1) * half, tail

    def _build(self, lo, hi):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DomainError("antiderivative overflows on the requested range")
        left = self._offsets(1.0 - min(lo, 1.0))
        knots = np.concatenate([1.0 - left[:0:-1], 1.0 + self._offsets(max(hi, 1.0) - 1.0)])
        for depth in range(41):  # a panel is bisected at most 40 times
            a, b = knots[:-1], knots[1:]
            coef, tail = self._series(a, b)
            # T_j(1) = 1, so a panel's integral is its series' coefficient sum
            ends = coef.sum(axis=0)
            bad = tail > self._TOL * ends
            if depth == 40 or not np.any(bad):
                break
            knots = np.unique(np.concatenate([knots, 0.5 * (a[bad] + b[bad])]))
        k = int(np.searchsorted(knots, 1.0))
        F = np.concatenate([-np.cumsum(ends[:k][::-1])[::-1], [0.0], np.cumsum(ends[k:])])
        if not np.all(np.isfinite(F)):
            raise DomainError("antiderivative overflows on the requested range")
        self._grid = grid = (knots, F, coef, _guide(knots))
        return grid

    def _ensure(self, lo, hi):
        """A grid covering [lo, hi]; callers read the one returned, since
        another thread may swap in a grid for a different range meanwhile."""
        grid = self._grid
        if grid is not None:
            knots = grid[0]
            if knots[0] <= lo and hi <= knots[-1]:
                return grid
            lo, hi = min(lo, knots[0]), max(hi, knots[-1])
        return self._build(lo, hi)

    def _edge_gain(self, a, b):
        """Attainable |F| growth over [a, b]; inf signals overflow (worth trying)."""
        try:
            gain = float(self._series(np.array([a]), np.array([b]))[0].sum())
        except DomainError:
            return np.inf
        return gain if np.isfinite(gain) else np.inf

    @staticmethod
    def _panels(grid, idx):
        """(a, b, F(a), series) of the panels idx, for `_at`."""
        knots, cum, coef, _ = grid
        return knots[idx], knots[idx + 1], cum[idx], coef[:, idx]

    @staticmethod
    def _at(t, a, b, base, coef, out, work):
        """F(t) for t in [a, b] into `out`: base plus a Clenshaw sum of the
        panel's series, b_k = (c_k + (2 s) b_{k+1}) - b_{k+2} from b = 0,
        in the (5, len(t)) buffer `work`.  Every value is rounded as in
        the sum written out term by term: the same operations in the same
        order, with 2 s formed once."""
        s, s2, b1, b2, nxt = work
        np.multiply(t, 2.0, out=s)
        s -= a
        s -= b
        np.subtract(b, a, out=nxt)
        s /= nxt
        np.multiply(s, 2.0, out=s2)
        b1.fill(0.0)
        b2.fill(0.0)
        for row in coef[:0:-1]:
            np.multiply(s2, b1, out=nxt)
            nxt += row
            nxt -= b2
            b1, b2, nxt = nxt, b1, b2
        np.multiply(s, b1, out=nxt)
        nxt += coef[0]
        nxt -= b2
        np.add(base, nxt, out=out)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.size == 0:
            return np.zeros(t.shape)
        grid = self._ensure(float(t.min()), float(t.max()))
        flat = t.ravel()
        idx = _lookup(grid[3], flat)
        out = np.empty_like(flat)
        work = np.empty((5, min(flat.size, _BLOCK)))
        for blk in _blocks(flat.size):
            tb = flat[blk]
            self._at(tb, *self._panels(grid, idx[blk]), out[blk], work[:, : tb.size])
        return out.reshape(t.shape)

    def inverse(self, v, window=None):
        """Solve F(t) = v where reachable; F is strictly increasing since w > 0.

        Returns (t, ok): ok is False where v lies outside the attainable range
        of F.  F may saturate (integrable tails of w): the grid grows on a
        needed side only while the series over one more span gains more than
        `_TOL` (1 + |F|) at that edge, so values past a saturated side become
        definitive no-preimage answers.
        Each point starts from the knot interpolant and takes clipped Newton
        steps on the series of its bracketing panel.

        `window` is an optional (lo, hi) pair of t bounds.  With it, only ok
        rows whose bracketing panel meets [lo, hi] are refined, each to the
        same t as without a window.  Newton stays in the panel, so every
        other row's answer lies outside [lo, hi] either way; such a row comes
        back at the knot that bounds its preimage off the window (below lo or
        above hi).  `ok` does not depend on the window.
        """
        v = np.asarray(v, dtype=float)
        if v.size == 0:
            return np.zeros(v.shape), np.zeros(v.shape, dtype=bool)
        grid = self._grid or self._ensure(0.0, 2.0)
        for _ in range(64):
            knots, cum = grid[:2]
            hi_ok = v.max() <= cum[-1]
            lo_ok = v.min() >= cum[0]
            if hi_ok and lo_ok:
                break
            # extend only sides that are both needed and can still make
            # progress: a saturated side would be rebuilt on every call
            span = knots[-1] - knots[0]
            grow_hi = grow_lo = False
            if not hi_ok:
                gain = self._edge_gain(knots[-1], knots[-1] + span)
                grow_hi = gain > self._TOL * (1.0 + abs(cum[-1]))
            if not lo_ok:
                gain = self._edge_gain(knots[0] - span, knots[0])
                grow_lo = gain > self._TOL * (1.0 + abs(cum[0]))
            if not (grow_hi or grow_lo):
                break
            try:
                grid = self._build(
                    knots[0] - (span if grow_lo else 0.0),
                    knots[-1] + (span if grow_hi else 0.0),
                )
            except (DomainError, FloatingPointError):
                break
        knots, cum = grid[:2]
        eps_lo = 1e-9 * (1.0 + abs(cum[0]))
        eps_hi = 1e-9 * (1.0 + abs(cum[-1]))
        ok = (v >= cum[0] - eps_lo) & (v <= cum[-1] + eps_hi)
        safe_v = np.clip(v, cum[0], cum[-1]).ravel()
        if window is None:
            return self._refine(grid, safe_v).reshape(v.shape), ok
        # the panels [knots[j-1], knots[j]] meeting the window are j_lo..j_hi;
        # a row's panel j is monotone in v, so two comparisons find its rows
        last = len(knots) - 1
        j_lo = max(int(np.searchsorted(knots, window[0])), 1)
        j_hi = min(int(np.searchsorted(knots, window[1], side="right")), last)
        v_lo = cum[j_lo - 1] if j_lo > 1 else -np.inf
        v_hi = cum[j_hi] if j_hi < last else np.inf
        below = safe_v <= v_lo
        t = np.where(below, knots[j_lo - 1], knots[j_hi])
        rows = np.flatnonzero(ok.ravel() & ~below & (safe_v <= v_hi) & (j_lo <= j_hi))
        t[rows] = self._refine(grid, safe_v[rows])
        return t.reshape(v.shape), ok

    def _refine(self, grid, v):
        """t with F(t) = v for flat v in [F(knots[0]), F(knots[-1])]: the exact
        bracket per point, then clipped Newton inside it, in place per block."""
        knots, cum = grid[:2]
        j = np.clip(np.searchsorted(cum, v), 1, len(knots) - 1)
        t = np.interp(v, cum, knots)
        work = np.empty((6, min(t.size, _BLOCK)))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for blk in _blocks(t.size):
                t_lo, t_hi, base, coef = self._panels(grid, j[blk] - 1)
                tb, vb = t[blk], v[blk]
                step, buf = work[0, : tb.size], work[1:, : tb.size]
                for _ in range(self._NEWTON_STEPS):
                    self._at(tb, t_lo, t_hi, base, coef, step, buf)
                    step -= vb
                    step /= self.w(tb)
                    np.copyto(step, 0.0, where=~np.isfinite(step))
                    tb -= step
                    np.clip(tb, t_lo, t_hi, out=tb)
        return t


class Triangular2D(PhaseMap):
    """(x1, x2) -> (z(x2) x1 + f(x2), integral_1^{x2} dt/z(t) + K).

    The family with upper-triangular unit-determinant Jacobian.  z must be
    positive C^1 between 1 and the queried x2 (checked where it is evaluated,
    which reaches about 1% past them); the inner integral is a
    piecewise-Chebyshev memo, each panel's series within a relative 1e-12.
    The Jacobian's diagonal is z and 1/z, so det == z (1/z); its corner entry
    f' + x1 z' is a central difference of z and f.
    """

    def __init__(self, z, f=None, K=0.0):
        self.z = z
        self.f = f if f is not None else (lambda t: np.zeros_like(t))
        self.K = _real(K, "K")
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

    def jacobian_batch(self, pts):
        x1 = pts[:, 0]
        x2 = pts[:, 1]
        z = self._z_checked(x2)
        n = pts.shape[0]
        J = np.zeros((n, 2, 2))
        J[:, 0, 0] = z
        J[:, 0, 1] = _central(self.f, x2, _STEP) + x1 * _central(self._z_checked, x2, _STEP)
        J[:, 1, 1] = 1.0 / z
        return J

    def invert(self, y, box=None):
        """Inverse of the second component, then x1 = (y1 - f(x2)) / z(x2).

        With a box, x2 is refined only on rows whose x2 can land in the box's
        x2 range (`_MonotoneAntiderivative.inverse`'s window); x1 is formed on
        every row.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        window = None if box is None else (box[0][1], box[1][1])
        x2, ok = self._anti.inverse(y[:, 1] - self.K, window)
        z = self._z_checked(x2)
        x1 = (y[:, 0] - np.asarray(self.f(x2), dtype=float)) / z
        ok &= np.isfinite(x1)
        ok &= np.isfinite(x2)
        return np.stack([x1, x2], axis=-1), ok


class CustomPhase(PhaseMap):
    def __init__(self, fn, in_dim, out_dim):
        self.fn = fn
        self.in_dim = _integer(in_dim, "custom in_dim", 1)
        self.out_dim = _integer(out_dim, "custom out_dim", 1)

    def _eval(self, pts):
        out = np.asarray(self.fn(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (pts.shape[0], self.out_dim):
            raise DomainError(
                f"custom phase returned shape {out.shape}, expected ({pts.shape[0]}, {self.out_dim})"
            )
        return out


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

    def jacobian_batch(self, pts):
        inner_pts = self.inner._eval(pts)
        Jo = self.outer.jacobian_batch(inner_pts)
        Ji = self.inner.jacobian_batch(pts)
        return np.einsum("nij,njk->nik", Jo, Ji)

    def invert(self, y, box=None):
        # the box bounds the inner map's preimage, not the middle points
        mid, ok1 = self.outer.invert(y)
        x, ok2 = self.inner.invert(mid, box)
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


def as_digit_system(mu, phi):
    """(r, q, rows of (d, sigma(d), p) in ascending d) when phi on the base
    measure mu is a digit system: mu is the law of x = sum_j d_{J_j} r^-j with
    J_j i.i.d. of law p, and phi(x) = sum_j sigma(d_{J_j}) q^-j.  Else None.

    Cases: a 1-d x -> a x + b (a != 0; the identity is a = 1, b = 0) on a
    SelfSimilar(r, {(d, p)}), where sigma(d) = a d + b (r - 1)
    and q = r since b = sum_j b (r - 1) r^-j; a DigitMap over a SelfSimilar of
    ratio in_base whose digit offsets are its input digits (sigma the digit
    map, q = out_base), Lebesgue[0,1] entering as the uniform list of all
    in_base digits (the base-b digits of a uniform variable are i.i.d.
    uniform), built only when the DigitMap lists in_base digits.
    """
    if isinstance(phi, (Identity, Affine)) and isinstance(mu, measures.SelfSimilar):
        M, b = (phi.M, phi.b) if isinstance(phi, Affine) else (np.eye(phi.in_dim), np.zeros(1))
        if M.shape != (1, 1) or M[0, 0] == 0:
            return None
        a, b, r = float(M[0, 0]), float(b[0]), mu.ratio
        return r, r, tuple((d, a * d + b * (r - 1), w) for d, w in sorted(mu.digits))
    if not isinstance(phi, DigitMap):
        return None
    if isinstance(mu, measures.LebesgueBox):  # the uniform digit list, built only if it can match
        on_unit = mu.dim == 1 and abs(mu.lo[0]) <= 1e-12 and abs(mu.hi[0] - 1.0) <= 1e-12
        if not on_unit or len(phi.in_digits) != phi.in_base:
            return None
        ratio, digits = phi.in_base, [(float(d), 1.0 / phi.in_base) for d in range(phi.in_base)]
    elif isinstance(mu, measures.SelfSimilar):
        ratio, digits = mu.ratio, mu.digits
    else:
        return None
    if ratio != phi.in_base or sorted(d for d, _ in digits) != sorted(map(float, phi.in_digits)):
        return None
    rows = tuple((d, phi.digit_map[int(d)], w) for d, w in sorted(digits))
    return ratio, phi.out_base, rows


def as_selfsimilar(mu, phi) -> measures.SelfSimilar | None:
    """phi_* mu as a self-similar digit measure when (mu, phi) is a digit
    system (`as_digit_system`): SelfSimilar(q, {(sigma(d), p)}).  Else None."""
    system = as_digit_system(mu, phi)
    if system is None:
        return None
    q, rows = system[1:]
    return measures.SelfSimilar(q, tuple((s, w) for _, s, w in rows))


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
    phi, domain, n=10_000, tol=1e-6, seed=0, exclusion=None
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
    J = phi.jacobian_batch(kept)
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
# candidate pairs the probe tests at once: in 2-d, a block's index pairs and
# its gathered, difference and distance rows stay within about 4 MiB
_PAIR_BLOCK = 1 << 15


def _cell_grid(img, delta_y):
    """Integer cell keys of the (n, d) image points, and the key steps from a
    cell to its forward neighbours.

    A cell is a little wider than delta_y in every column, and at least 2^-28
    of the column's span so that each cell index is exact; two points closer
    than delta_y then lie in one cell or in neighbouring cells.  Columns enter
    the key while its range fits an int64, and the exact distance test covers
    any column left out.
    """
    lo = img.min(axis=0)
    side = np.maximum(delta_y * (1 + 2.0**-20), (img.max(axis=0) - lo) * 2.0**-28)
    keys = np.zeros(img.shape[0], dtype=np.int64)
    steps, stride = [0], 1
    for k in range(img.shape[1]):
        # index + 1, so a neighbour's index is never negative
        cells = np.floor((img[:, k] - lo[k]) / side[k]).astype(np.int64) + 1
        radix = int(cells.max()) + 2
        if stride * radix > 1 << 62:
            break
        keys += cells * stride
        steps = [s + o * stride for s in steps for o in (-1, 0, 1)]
        stride *= radix
    return keys, [s for s in steps if s > 0]


def _candidate_spans(keys, steps):
    """For the points sorted by cell key, each row's span (lo, count) of
    candidate partners: the later rows of its own cell, then per step the
    rows of that forward neighbour cell."""
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    size = np.diff(np.r_[first, keys.size])
    rows = np.arange(keys.size)
    yield rows + 1, np.repeat(first + size, size) - rows - 1
    cells = keys[first]
    for step in steps:
        at = np.minimum(np.searchsorted(cells, cells + step), cells.size - 1)
        count = np.where(cells[at] == cells + step, size[at], 0)
        yield np.repeat(first[at], size), np.repeat(count, size)


def _candidate_blocks(order, lo, count):
    """The spans' candidate pairs as sample indices (i, j), i < j, in blocks of
    whole spans holding about _PAIR_BLOCK pairs."""
    ends = np.cumsum(count)
    start = 0
    while start < count.size:
        base = ends[start] - count[start]
        stop = max(int(np.searchsorted(ends, base + _PAIR_BLOCK, side="right")), start + 1)
        c = count[start:stop]
        total = int(ends[stop - 1] - base)
        if total:
            p = np.repeat(np.arange(start, stop), c)
            q = np.repeat(lo[start:stop] - (ends[start:stop] - c - base), c) + np.arange(total)
            a, b = order[p], order[q]
            yield np.minimum(a, b), np.maximum(a, b)
        start = stop


def _collisions(img, pts, delta_x, delta_y):
    """The mask of samples in a pair (i, j) with |img_i - img_j| < delta_y and
    |pts_i - pts_j| > delta_x, and the first _MAX_STORED_PAIRS such pairs in
    (i, j) order, i < j, found on the cell grid of _cell_grid."""
    n = img.shape[0]
    keys, steps = _cell_grid(img, delta_y)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # every candidate is counted before the first block: the budget is that of
    # a list of all of them with their two distance rows
    candidates = sum(int(count.sum()) for _, count in _candidate_spans(keys, steps))
    measures._check_entries(candidates, 2 + img.shape[1] + pts.shape[1], "collision pair list")
    involved = np.zeros(n, dtype=bool)
    first = np.zeros(0, dtype=np.int64)  # the smallest pairs so far, as i * n + j
    for lo, count in _candidate_spans(keys, steps):
        for i, j in _candidate_blocks(order, lo, count):
            near = np.linalg.norm(img[i] - img[j], axis=1) < delta_y
            i, j = i[near], j[near]
            far = np.linalg.norm(pts[i] - pts[j], axis=1) > delta_x
            i, j = i[far], j[far]
            involved[i] = involved[j] = True
            first = np.concatenate([first, i * n + j])
            if first.size > _MAX_STORED_PAIRS:
                first = np.partition(first, _MAX_STORED_PAIRS - 1)[:_MAX_STORED_PAIRS]
    first = np.sort(first)
    return involved, np.stack([first // n, first % n], axis=1)


def essential_injectivity_probe(
    phi, mu, n=10_000, delta_x=None, delta_y=None, seed=0
) -> CollisionReport:
    """Sampled falsification probe for injectivity off a null set.

    Searches n draws from mu for pairs that are far in x (> delta_x) but
    close in phi(x) (< delta_y).  The image points are sorted into cells of
    side about delta_y; each cell's pairs and its pairs with the forward
    neighbour cells are the candidates, tested exactly in blocks, so memory
    stays bounded and no pair list is built.  collision_fraction is the
    fraction of samples involved in at least one such pair; the first pairs
    in (i, j) order are stored.  A zero fraction is "no counterexample
    found", never a certificate; a large fraction refutes essential
    injectivity at the probe scales.  Caller is responsible for
    delta_x > delta_y * L when a Lipschitz bound L is known.
    """
    n = _integer(n, "n", 100)
    for name, scale in (("delta_x", delta_x), ("delta_y", delta_y)):
        # the scales refuse numeric strings ("0.1") as well
        if scale is not None and (isinstance(scale, str) or _real(scale, name) <= 0):
            raise DomainError(f"{name} must be a number > 0, got {scale!r}")
    pts = measures.sample(mu, n, seed=seed)
    img = phi(pts)
    # squared distances must stay below the float64 maximum (NaN fails too)
    if not (np.all(np.abs(pts) < 1e150) and np.all(np.abs(img) < 1e150)):
        raise DomainError("the injectivity probe needs points and images below 1e150")
    if delta_x is None:
        lo, hi = mu.support_box()
        delta_x = 0.05 * float(np.linalg.norm(hi - lo))
    if delta_y is None:
        span = img.max(axis=0) - img.min(axis=0)
        # a constant image has no span to scale by
        delta_y = 1e-4 * float(np.linalg.norm(span)) or 1e-12
    delta_x, delta_y = float(delta_x), float(delta_y)

    involved, first = _collisions(img, pts, delta_x, delta_y)
    return CollisionReport(
        n_samples=n,
        collisions=[(pts[i].tolist(), pts[j].tolist()) for i, j in first],
        collision_fraction=float(involved.mean()),
        delta_x=delta_x,
        delta_y=delta_y,
    )
