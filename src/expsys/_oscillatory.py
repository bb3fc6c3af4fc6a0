"""The integration engine: batched oscillatory moments

    integral of w_j(y) e^{2 pi i lambda . phi(y)} dmu(y)

over m signed frequencies lambda and a stack of k weights w_j at once (a
coefficient of f is the f-weighted moment at -lambda), and the one
place that picks the integration rule for a (measure, phase, scheme).  It is
the only engine: Gram entries, coefficients, norms, frame matrices and plain
`measures.integrate` calls (lambda = 0, one weight) all run through it.

Each scheme builds its node set once, evaluates the phase on it once, builds
an (n, k) weight matrix once and contracts every exp chunk with every column.
Frequencies sharing a composite-Gauss panel signature share one node set;
under tensor-gauss a weight with its own support box gets its own sub-box
rule, so node sets are keyed by (support box, panel signature), and a disc
is four polar-quadrant node sets whose two-order errors add.
Monte-Carlo and digit-enumeration schemes share one node set across all
frequencies and weights by construction; the digit error adds the
weight's finest-scale slope to the phase term.  Adaptive integrals stay one
refinement per (frequency, weight).  A pushforward psi_*mu is integrated over
mu with the phase and the weights evaluated at y = psi(x).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import measures, phases
from .errors import DomainError, QuadratureError, SchemeMismatchError
from .measures import (
    LebesgueBox,
    LebesgueDisc,
    PushforwardMeasure,
    QuadratureSpec,
    SelfSimilar,
    box_gauss_nodes,
    digit_nodes,
    panels_from_cycles,
    polar_xy,
)
from .seeding import spawn_rng

_CHUNK = 32  # max frequencies per exp/matmul chunk
# larger node sets and (n, k) weight stacks are refused before they are built:
# 1 GiB of float64
_MAX_WEIGHT_ENTRIES = 1 << 27


def _chunk_size(n_nodes, n_weights=1):
    # keep the complex exp chunk plus the real (n, k) weight matrix around 64 MB
    cols = 8_000_000 // max(n_nodes, 1) - n_weights
    return max(1, min(_CHUNK, cols // 2))


def _unwrap(mu):
    """(base measure, pushforward map chain or None) of mu."""
    psi = None
    while isinstance(mu, PushforwardMeasure):
        psi = mu.map if psi is None else phases.compose(psi, mu.map)
        mu = mu.base
    return mu, psi


def effective_pair(mu, phi):
    """Collapse pushforward layers: Gram over psi_*mu == Gram of phi o psi over mu."""
    base, psi = _unwrap(mu)
    return base, phi if psi is None else phases.compose(phi, psi)


def rule_for(mu, phi, quad: QuadratureSpec) -> QuadratureSpec:
    """The rule for moments of arbitrary weights against phi over mu.

    `quad` itself when exp_moments can run it; otherwise digit enumeration on
    a self-similar base, else 400k samples seeded with quad.seed.  The Gram
    may ride the product formula where quad cannot run (a digit map on a box).
    """
    base, eff_phi = effective_pair(mu, phi)
    if quad.scheme == "monte-carlo":
        return quad
    if isinstance(base, SelfSimilar):
        if quad.scheme == "self-similar-digit":
            return quad
        return measures.digit(depth=quad.depth)
    if quad.scheme != "self-similar-digit" and eff_phi.differentiable:
        return quad
    return measures.monte_carlo(n_samples=400_000, seed=quad.seed)


def measure_rule(mu, quad: QuadratureSpec) -> QuadratureSpec:
    """The rule for non-oscillatory integrals over mu alone.

    Used for norms, basis-orthonormality residuals and pushforward Fourier
    transforms: Gauss of order >= 48 on boxes, tight adaptive on discs, digit
    enumeration on self-similar bases; digit-map chains go through `rule_for`.
    """
    identity = phases.Identity(mu.dim)
    base, chain = effective_pair(mu, identity)
    if isinstance(base, SelfSimilar):
        return measures.digit(depth=30)
    if not chain.differentiable:
        return rule_for(mu, identity, quad)
    if isinstance(base, LebesgueBox):
        return measures.gauss(order=max(48, quad.order))
    return measures.adaptive(abs_tol=1e-10, max_subdivisions=4000)


def oscillation_cycles(phi, mu, lambdas, n_probe=64):
    """Estimated oscillation cycles per input dimension for each frequency.

    Bounds |d(lambda . phi)/dx_i| by sampled Jacobian row maxima times the
    support width.  Returns (m, in_dim) cycles; raises QuadratureError when
    the phase has no usable Jacobian (digit maps) at a nonzero frequency.
    """
    lam = np.atleast_2d(lambdas)
    lo, hi = mu.support_box()
    width = hi - lo
    if isinstance(phi, phases.Identity):
        return np.abs(lam) * width[None, :]
    if not np.any(lam):
        return np.zeros((lam.shape[0], mu.dim))
    try:
        J = phi.jacobian_batch(measures.sample(mu, n_probe, seed=0xC3C1E5))
    except Exception:
        J = np.array(np.nan)
    if not np.all(np.isfinite(J)):
        raise QuadratureError(
            "tensor-gauss needs a differentiable phase for oscillation "
            "control; use monte-carlo or self-similar-digit"
        )
    rowmax = np.max(np.abs(J), axis=0)  # (out_dim, in_dim)
    # cycles_i = sum_j |lambda_j| max|dphi_j/dx_i| * width_i
    return (np.abs(lam) @ rowmax) * width[None, :]


def exp_moments(
    mu,
    phi,
    lambdas,
    quad: QuadratureSpec,
    weights=(None,),
    threads=1,
    strict=True,
):
    """(values, errors), each (m, k): moments at m frequencies for k weights.

    `weights` is a sequence whose entries are (fn, support_box) pairs or None,
    the unit weight.  `fn` maps (n, dim) points of mu to (n,) values (None is
    the constant 1); `support_box` (lo, hi) restricts the weight to a box.
    Under tensor-gauss the box must be a sub-box of a LebesgueBox measure and
    gets its own rule; other schemes mask nodes or samples outside it.
    With `strict`, any non-finite value raises QuadratureError.
    """
    base, psi = _unwrap(mu)
    weights = [(None, None) if w is None else tuple(w) for w in weights]
    lam = np.atleast_2d(np.asarray(lambdas, dtype=float))
    if lam.shape[1] != phi.out_dim:
        raise DomainError(
            f"frequency dim {lam.shape[1]} != phase output dim {phi.out_dim}"
        )

    if quad.scheme == "monte-carlo":
        vals, errs = _mc_moments(base, psi, phi, lam, quad, weights)
    elif quad.scheme == "self-similar-digit":
        if not isinstance(base, SelfSimilar):
            raise SchemeMismatchError("self-similar-digit is only valid for SelfSimilar measures")
        vals, errs = _digit_moments(base, psi, phi, lam, quad, weights)
    elif quad.scheme == "tensor-gauss":
        vals, errs = _gauss_moments(base, psi, phi, lam, quad, weights, threads)
    else:
        vals, errs = _per_integral(base, psi, phi, lam, quad, weights, threads)
    if strict and not np.all(np.isfinite(vals)):
        raise QuadratureError(f"non-finite value in {quad.scheme} moments")
    return vals, errs


def _inside(y, box):
    lo, hi = box
    return np.all((y >= lo) & (y < hi), axis=1)


def _check_entries(n, width, what):
    """Refuse an (n, width) array above the entry budget before it is built."""
    if n * width > _MAX_WEIGHT_ENTRIES:
        raise DomainError(f"{n} x {width} {what} above {_MAX_WEIGHT_ENTRIES} entries")


def _weight_matrix(weights, y, node_weights=None):
    """(n, k) weight values at y, zero outside each support box, times node weights."""
    n, k = y.shape[0], len(weights)
    _check_entries(n, k, "weight stack")
    W = np.empty((n, k))
    for j, (fn, box) in enumerate(weights):
        col = 1.0 if fn is None else np.asarray(fn(y))
        if np.iscomplexobj(col) and not np.iscomplexobj(W):
            W = W.astype(complex)
        W[:, j] = col
        if box is not None:
            W[~_inside(y, box), j] = 0.0
    if node_weights is not None:
        W *= node_weights[:, None]
    return W


def _contract(img, lam, W):
    """(m, k) sums over nodes of W[:, j] e^{2 pi i lambda . img}."""
    n, k = W.shape
    out = np.empty((lam.shape[0], k), dtype=complex)
    step = _chunk_size(n, k)
    for start in range(0, lam.shape[0], step):
        rows = slice(start, start + step)
        Z = np.zeros((n, lam[rows].shape[0]), dtype=complex)  # exp chunk, in place
        Z.imag = img @ lam[rows].T
        Z.imag *= 2 * np.pi
        with np.errstate(invalid="ignore"):  # a NaN phase is refused by exp_moments
            np.exp(Z, out=Z)
        if np.iscomplexobj(W):
            out[rows] = (W.T @ Z).T
        else:  # one real matmul over the interleaved (re, im) columns
            out[rows] = (W.T @ Z.view(float)).view(complex).T
    return out


def _mc_moments(mu, psi, phi, lam, quad, weights):
    _check_entries(quad.n_samples, max(mu.dim, len(weights)), "sample set")
    rng = spawn_rng(quad.seed, "mc-moments", mu.kind)
    pts = mu._sample(quad.n_samples, rng, quad.depth)
    y = pts if psi is None else psi(pts)
    W = _weight_matrix(weights, y)
    n = pts.shape[0]
    mean = _contract(phi(y), lam, W) / n
    # per-column sample variance of w e^{i theta}; |e^{i theta}| == 1, so
    # sum |w z - mean|^2 == sum |w|^2 - n |mean|^2
    sq = np.sum(np.abs(W) ** 2, axis=0)
    var = np.maximum(sq[None, :] - n * np.abs(mean) ** 2, 0.0) / (n - 1)
    return mu.total_mass * mean, mu.total_mass * np.sqrt(var / n)


def _digit_moments(mu, psi, phi, lam, quad, weights):
    pts, w, tail_width = digit_nodes(mu, quad.depth)
    y = pts if psi is None else psi(pts)
    img = phi(y)
    W = _weight_matrix(weights, y)
    # Lipschitz tail bound: the dropped tail moves a node by at most
    # tail_width, and |d(w e^{i theta})| <= |dw| + |w| |d e^{i theta}|; the
    # weight's slope and the image span are read off adjacent finest-scale
    # enumeration nodes (ascending order); column by column, so no (n, k)
    # temporaries are made.
    peaks = np.array([np.max(np.abs(col)) for col in W.T])
    slopes = np.zeros(len(weights))
    fine_span = 0.0
    dx = np.diff(pts[:, 0])
    if dx.size:
        gap = np.maximum(dx, tail_width)
        slopes = np.array([np.max(np.abs(np.diff(col)) / gap) for col in W.T])
        fine = dx <= 2 * tail_width * (mu.ratio - 1) + 1e-300
        if np.any(fine):
            dimg = np.linalg.norm(np.diff(img, axis=0), axis=1)
            fine_span = float(np.max(dimg[fine]))
        else:
            fine_span = float(tail_width)
    phase = 2 * np.pi * np.linalg.norm(lam, axis=1) * fine_span
    errs = slopes * tail_width + peaks * phase[:, None]
    W *= w[:, None]
    return _contract(img, lam, W), errs


def _map_pool(fn, items, threads):
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(it) for it in items]


def _gauss_moments(mu, psi, phi, lam, quad, weights, threads):
    boxes: dict = {}  # support box (lo + hi flattened) -> weight columns
    for j, (_, box) in enumerate(weights):
        key = None if box is None else tuple(np.asarray(box, dtype=float).ravel())
        boxes.setdefault(key, []).append(j)
    if (psi is not None or not isinstance(mu, LebesgueBox)) and set(boxes) != {None}:
        raise SchemeMismatchError("support_box with tensor-gauss requires a box measure")
    if not isinstance(mu, (LebesgueBox, LebesgueDisc)):
        raise SchemeMismatchError(
            f"tensor-gauss is not valid for measure kind {mu.kind!r}"
        )
    eff_phi = phi if psi is None else phases.compose(phi, psi)
    polar = isinstance(mu, LebesgueDisc)

    items = []  # (cells, panel signature, frequency rows, weight columns)
    for key, cols in boxes.items():
        sub = mu if key is None else LebesgueBox(*np.reshape(key, (2, -1)))
        cycles = oscillation_cycles(eff_phi, sub, lam)
        if polar:  # quadrant cells put the axes, where maps may kink, on cell edges
            cells = measures.disc_quadrants(mu)
            cycles = np.repeat(cycles.max(axis=1, keepdims=True), 2, axis=1)
        else:
            cells = [(sub.lo, sub.hi)]
        groups: dict = {}
        for i, sig in enumerate(panels_from_cycles(cycles, quad.order)):
            groups.setdefault(tuple(sig), []).append(i)
        for sig in groups:  # the order + 8 pass is the larger one
            n = math.prod(int(s) * (quad.order + 8) for s in sig)
            _check_entries(n, max(mu.dim, len(cols)), "node set")
        items += [(cells, sig, np.asarray(idx), cols) for sig, idx in groups.items()]

    def run_group(item):
        cells, sig, idx, cols = item
        fns = [(weights[j][0], None) for j in cols]  # the sub-box rule is the support
        total = err = 0.0
        for lo, hi in cells:
            passes = []
            for order in (quad.order, quad.order + 8):
                pts, w = box_gauss_nodes(lo, hi, order, np.asarray(sig))
                if polar:
                    pts, w = polar_xy(mu.center, pts), w * pts[:, 0]
                y = pts if psi is None else psi(pts)
                passes.append(_contract(phi(y), lam[idx], _weight_matrix(fns, y, w)))
            total = total + passes[1]
            err = err + np.abs(passes[1] - passes[0])
        return total, err

    vals = np.empty((lam.shape[0], len(weights)), dtype=complex)
    errs = np.empty(vals.shape)
    for (_, _, idx, cols), (total, err) in zip(items, _map_pool(run_group, items, threads)):
        vals[np.ix_(idx, cols)] = total
        errs[np.ix_(idx, cols)] = err
    return vals, errs


def _per_integral(mu, psi, phi, lam, quad, weights, threads):
    """One adaptive refinement per (frequency, weight) pair.

    A box starts from one cell; a disc from its four polar quadrant cells,
    with the integrand carrying the r Jacobian.
    """
    polar = isinstance(mu, LebesgueDisc)
    if polar:
        cells = measures.disc_quadrants(mu)
    elif isinstance(mu, LebesgueBox):
        cells = [(mu.lo, mu.hi)]
    else:
        raise SchemeMismatchError(f"adaptive is not valid for measure kind {mu.kind!r}")
    k = len(weights)

    def one(pair):
        i, j = divmod(pair, k)

        def f(pts):
            y = pts if psi is None else psi(pts)
            w = _weight_matrix(weights[j : j + 1], y)[:, 0]
            return np.exp(2j * np.pi * (phi(y) @ lam[i])) * w

        if polar:
            return measures._adaptive_cells(
                lambda rt: f(polar_xy(mu.center, rt)) * rt[:, 0], cells, quad
            )
        return measures._adaptive_cells(f, cells, quad)

    results = _map_pool(one, range(lam.shape[0] * k), threads)
    vals = np.array([r[0] for r in results], dtype=complex).reshape(-1, k)
    errs = np.array([r[1] for r in results], dtype=float).reshape(-1, k)
    return vals, errs
