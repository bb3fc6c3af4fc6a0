"""The integration engine: batched oscillatory moments

    integral of w_j(y) e^{2 pi i lambda . phi(y)} dmu(y)

over m signed frequencies lambda and a stack of k weights w_j at once (a
coefficient of f is the f-weighted moment at -lambda), and `plan`, the one
place that decides how a (measure, phase, scheme, purpose) runs: product
formula or which rule.  It is the only engine: Gram entries, coefficients,
norms, frame matrices, transforms and `measures.integrate` calls run on it.
Every call, the product formula's too, reads its arguments in `_read_call`
before any work and, with `strict`, refuses a non-finite value.

Every scheme ends in one kernel, `_contract`: a phase image, its
frequencies and an (n, k) node-weighted weight matrix.  A support box is a
mask on its weight under every scheme.  Tensor-gauss gives each support box
one rule over the box clipped to the measure, with the measure's panel count
scaled by the box's share of each width, and unboxed weights one rule over
the measure's cells; frequencies with one panel layout share a rule.  Its
work items are (box, layout, cell, order) rules: each builds its tensor
grid, weights and phase image when it runs and frees them when it returns.
The measure gives its cells and their node map: a box is one cell, a disc
four polar quadrants whose two-order errors add.  A call whose weights are
the one unit column [(None, None)], as every Gram call's are, on a box (no
pushforward) takes the linear split when phi names a linear part
(`PhaseMap.linear_part`, coordinates x_cols with constant coefficients C):
the 1-d box factors at C^T lambda times the full rule's moment of the
remaining box under x' -> phi(x_cols = 0, x'), closed form when none
remains.  It guards itself: min(16, m) of its m frequencies, seeded (the
largest-norm one always), also run the full rule and must agree within
both errors + 1e-12, or the call runs the full rule.
Monte-Carlo and digit-enumeration schemes share one node set across all
frequencies and weights; samples are summed in 2^14-row blocks, and the
digit enumeration runs its nodes in blocks of at most 2^16
(`measures.digit_nodes`), holding one block at a time; its error adds the
weight's finest-scale slope to the phase term.  A
sample known by one code per level block has as phase the product of each
block's table e^{2 pi i xi t_b} at its code (`_phase_tables`);
`_code_sums` sums those products over an array of codes against a weight
matrix or the unit column, so the tables are the only exponentials.  The
product-formula gate's sampling oracle draws cylinder codes in 2^18-row
windows and sums each into one accumulator, holding one window at a time
(systems whose codes outweigh their points draw all 6M points at once);
Monte-Carlo moments of a DigitMap phase (no pushforward, 1-d
frequencies) read them off its digit loop (`DigitMap._codes`, K^L <= 2^10
codes a block) in the blocks of their own loop, and guard themselves:
the first block's guard rows also run `_contract` on phi's image and
must agree within (1e-12 + 4 eps 2 pi |lambda| max|phi|), the rounding
either sum carries in each term's phase, times each weight's summed |w|,
or every block runs phi.  The digit rule on a
digit system (x = sum d_j r^-j, phi(psi(x)) = sum sigma(d_j) q^-j) takes
the digit transfer: degree-8 Chebyshev fits of each weight on the top
<= 4096 cylinders, contracted against moments from the self-similar
transfer recursion.  It guards itself as the linear split
does, its guard rows under the enumeration on at most 2^16 nodes
(min(depth, floor(16 / log2 k)) levels of k digits, at least one); a
refused call runs the enumeration at the caller's depth, as do support
boxes that cut a cylinder's image hull, fits whose tail is too large and
non-finite weights.
Adaptive integrals refine each (frequency, weight) pair in order; the pairs
of one call build each (cell, order) rule's nodes, phase image and weight
columns once, in a table that starts over past 2^19 rule nodes.  Pools run
only inside tensor-gauss, whose rules run on `threads` workers.  A
pushforward psi_*mu is integrated over mu with the phase and the weights
evaluated at y = psi(x).
"""

from __future__ import annotations

import heapq
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import measures, phases
from .errors import DomainError, QuadratureError, SchemeMismatchError, _finite, _integer
from .measures import (
    LebesgueBox,
    LebesgueDisc,
    PushforwardMeasure,
    QuadratureSpec,
    SelfSimilar,
    _FT_TRUNC,
    _NODE_BLOCK,
    _check_entries,
    _in_box,
    _levels_within,
    box_gauss_nodes,
    digit_nodes,
    panels_from_cycles,
)
from .seeding import spawn_rng

_CHUNK = 32  # max frequencies per exp/matmul chunk
_N_PROBE = 64  # sampled Jacobians per oscillation-cycle estimate
# frequencies of each guarded call (all when fewer ask) also run by its guard: the full
# rule, `_contract` on phi's image, or the digit enumeration on at most _GUARD_NODES
# nodes (min(depth, floor(16 / log2 k)) levels of k digits, at least one)
_GUARD_ROWS = 16
_GUARD_NODES = _NODE_BLOCK  # 2^16: a guard's enumeration is one node block
_TRANSFER_CELLS = 4096  # a digit-transfer fit's top-level cylinders: k^L <= 4096 for k digits
_FIT_DEGREE = 8  # Chebyshev degree of each cylinder's weight fit
_FIT_TOL = 1e-9  # largest fit tail, relative to the weight's size, the transfer accepts
MAX_THREADS = 64  # worker threads of one moment call; `--threads` has the same range
# rows per Monte-Carlo block: a longer BLAS contraction adds round-off in sequence
# (a 786,437-sample gate mean: 9e-15 off its pairwise sum at 2^18 rows, 4e-16 at 2^14)
_MC_ROWS = 1 << 14
# codes per level block of a DigitMap's Monte-Carlo phase tables: K^L <= 2^10 for
# K snapped digits (cantor4: 3 blocks of 10 binary levels); larger K runs phi per point
_DIGIT_CODES = 1 << 10
_ADAPTIVE_NODES = 1 << 19  # rule nodes (order^dim a rule) an adaptive call's table holds


def _chunk_size(n_nodes, n_weights):
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


@dataclass(frozen=True)
class Plan:
    """How one moment call runs: the product formula over the reduced
    self-similar `mu` to `trunc` levels, or quadrature under `rule` over (mu, phi)."""

    path: str  # "product-formula" or "quadrature"
    mu: object
    phi: object
    rule: QuadratureSpec | None = None
    trunc: int | None = None

    def moments(self, lambdas, weights=(None,), threads=1, strict=True):
        """(values, errors), each (m, k), read and returned as by `exp_moments`;
        the product formula takes the unit weight only."""
        if self.rule is not None:
            return exp_moments(self.mu, self.phi, lambdas, self.rule, weights, threads, strict)
        lam, weights, _ = _read_call(lambdas, weights, threads, self.phi)
        if len(weights) != 1 or any(part is not None for part in weights[0]):
            raise DomainError("the product formula takes the unit weight only")
        vals, errs = measures.selfsimilar_moments(self.mu, lam[:, 0], self.trunc)
        if strict and not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite value in product-formula moments")
        return vals[:, None], errs[:, None]


def plan(mu, phi, quad: QuadratureSpec, purpose) -> Plan:
    """How moments over (mu, phi) run for `purpose`, given the caller's quad.

    "gram" and "transform" take the product formula when quad is not
    monte-carlo and the pushforward-collapsed pair reduces to a self-similar
    measure (max(depth, 40) levels under digit, else 40); otherwise gram runs
    quad over the collapsed pair and transform the "measure" rule.
    "weights" (coefficients, frame matrices) takes quad when exp_moments can
    run it, else digit enumeration on a self-similar base, else 400k samples
    seeded with quad.seed (the digit rule takes the digit transfer itself,
    as tensor-gauss takes the linear split, and samples under a DigitMap
    phase are summed from its level tables).  "measure" (norms, residuals;
    phi is the identity) takes depth-30 digits on self-similar bases, the
    "weights" rule on digit-map chains, Gauss of order >= 48 on boxes and
    tight adaptive on discs.
    """
    if purpose not in ("gram", "transform", "weights", "measure"):
        raise ValueError(f"unknown moment purpose {purpose!r}")
    base, psi = _unwrap(mu)
    eff_phi = phi if psi is None else phases.compose(phi, psi)
    digit = quad.scheme == "self-similar-digit"
    if purpose in ("gram", "transform") and quad.scheme != "monte-carlo":
        reduced = phases.as_selfsimilar(base, eff_phi)
        if reduced is not None:
            trunc = max(quad.depth, _FT_TRUNC) if digit else _FT_TRUNC
            return Plan("product-formula", reduced, phases.Identity(1), trunc=trunc)
    if purpose == "gram":
        return Plan("quadrature", base, eff_phi, rule=quad)
    smooth = purpose != "weights" and eff_phi.differentiable
    if isinstance(base, SelfSimilar) and purpose != "weights":
        rule = measures.digit(depth=30)
    elif isinstance(base, SelfSimilar):
        rule = quad if digit or quad.scheme == "monte-carlo" else measures.digit(quad.depth)
    elif smooth and isinstance(base, LebesgueBox):
        rule = measures.gauss(order=max(48, quad.order))
    elif smooth:
        rule = measures.adaptive(abs_tol=1e-10, max_subdivisions=4000)
    elif quad.scheme == "monte-carlo" or (not digit and eff_phi.differentiable):
        rule = quad
    else:
        rule = measures.monte_carlo(n_samples=400_000, seed=quad.seed)
    return Plan("quadrature", mu, phi, rule=rule)


def oscillation_cycles(phi, mu, lambdas):
    """Estimated oscillation cycles per input dimension for each frequency.

    Bounds |d(lambda . phi)/dx_i| by sampled Jacobian row maxima times the
    support width.  Returns (m, in_dim) cycles; raises QuadratureError when
    the phase has no Jacobian (digit maps) or a non-finite one at a nonzero
    frequency.
    """
    lam = np.atleast_2d(lambdas)
    lo, hi = mu.support_box()
    width = hi - lo
    if not np.any(lam):
        return np.zeros((lam.shape[0], mu.dim))
    pts = measures.sample(mu, _N_PROBE, seed=0xC3C1E5)
    J = phi.jacobian_batch(pts) if phi.differentiable else np.nan
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
    the constant 1); `support_box` (lo, hi) restricts the weight to a box: it
    masks nodes or samples outside it.  Tensor-gauss takes support boxes on a
    LebesgueBox only and integrates each over its own panels in the box.
    With `strict`, any non-finite value raises QuadratureError.  Threads,
    frequencies and sizes are refused before any work, as `_read_call` says.
    """
    lam, weights, threads = _read_call(lambdas, weights, threads, phi)
    base, psi = _unwrap(mu)
    if quad.scheme == "monte-carlo":
        vals, errs = _mc_moments(base, psi, phi, lam, quad, weights)
    elif quad.scheme == "self-similar-digit":
        if not isinstance(base, SelfSimilar):
            raise SchemeMismatchError("self-similar-digit is only valid for SelfSimilar measures")
        k = np.count_nonzero(base._weights > 0)
        guard_rule = measures.digit(min(quad.depth, max(1, _levels_within(k, _GUARD_NODES))))
        vals, errs = _guarded(
            lambda: _digit_transfer(mu, phi, lam, quad.depth, weights),
            lambda rows: _digit_moments(base, psi, phi, rows, quad, weights),
            lam,
            guard=lambda rows: _digit_moments(base, psi, phi, rows, guard_rule, weights),
        )
    elif quad.scheme == "tensor-gauss":
        # the one unit column on a box takes the linear split where phi names a linear part
        unit = len(weights) == 1 and weights[0][0] is None and weights[0][1] is None
        linear = unit and psi is None and isinstance(base, LebesgueBox) and phi.linear_part()
        vals, errs = _guarded(
            lambda: _split_moments(base, phi, linear, lam, quad, threads) if linear else None,
            lambda rows: _tensor_gauss(base, psi, phi, rows, quad, weights, threads),
            lam,
        )
    else:
        vals, errs = _per_integral(base, psi, phi, lam, quad, weights)
    if strict and not np.all(np.isfinite(vals)):
        raise QuadratureError(f"non-finite value in {quad.scheme} moments")
    return vals, errs


def _read_call(lambdas, weights, threads, phi):
    """((m, out_dim) frequencies, (fn, support_box) weights, threads) of every moment
    call, read before any work: DomainError for threads outside [1, MAX_THREADS], a
    frequency that is not a finite number (inf, nan, a boolean), a frequency dim
    other than phi's output dim, and (m, k) above the entry budget."""
    threads = _integer(threads, "threads", 1, MAX_THREADS)
    weights = [(None, None) if w is None else tuple(w) for w in weights]
    lam = np.atleast_2d(_finite(lambdas, "frequencies"))
    _check_entries(lam.shape[0], len(weights), "moment matrix")
    if lam.shape[1] != phi.out_dim:
        raise DomainError(f"frequency dim {lam.shape[1]} != phase output dim {phi.out_dim}")
    return lam, weights, threads


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
            W[~_in_box(y, *box), j] = 0.0
    if node_weights is not None:
        W *= node_weights[:, None]
    return W


def _contract(img, lam, W):
    """(m, k) sums over nodes of W[:, j] e^{2 pi i lambda . img}.

    `img` is the (n, out_dim) phase image of the nodes and W their (n, k)
    node-weighted weight values; frequencies run in exp chunks sized to W.
    The weights contract as one real matmul over the interleaved (re, im)
    columns of the exponentials Z, rather than a complex matmul (several
    times slower); a complex W = A + iB runs as the real stack [A, B], whose
    two halves give A Z + i B Z.
    """
    k = W.shape[1]
    if np.iscomplexobj(W):
        W = np.hstack([W.real, W.imag])
    out = np.empty((lam.shape[0], W.shape[1]), dtype=complex)
    step = _chunk_size(*W.shape)
    with np.errstate(invalid="ignore"):  # a NaN or infinite phase is refused by exp_moments
        for start in range(0, lam.shape[0], step):
            freqs = slice(start, start + step)
            Z = np.zeros((img.shape[0], lam[freqs].shape[0]), dtype=complex)  # in place
            np.matmul(img, lam[freqs].T, out=Z.imag)
            Z.imag *= 2 * np.pi
            np.exp(Z, out=Z)
            out[freqs] = (W.T @ Z.view(float)).view(complex).T
    return out if out.shape[1] == k else out[:, :k] + 1j * out[:, k:]


def _mc_moments(mu, psi, phi, lam, quad, weights):
    n = quad.n_samples
    _check_entries(n, max(mu.dim, len(weights)), "sample set")
    pts = mu._sample(n, spawn_rng(quad.seed, "mc-moments", mu.kind))
    sums, sq = _mc_sums(pts, psi, phi, lam, weights)
    mean = sums / n
    # per-column sample variance of w e^{i theta}; |e^{i theta}| == 1, so
    # sum |w z - mean|^2 == sum |w|^2 - n |mean|^2
    var = np.maximum(sq[None, :] - n * np.abs(mean) ** 2, 0.0) / (n - 1)
    return mu.total_mass * mean, mu.total_mass * np.sqrt(var / n)


def _mc_sums(pts, psi, phi, lam, weights):
    """(sums (m, k), sums of |w_j|^2 (k,)) of w_j(y) e^{2 pi i lambda . phi(y)},
    y = psi(pts), with psi, the weights and phi run one _MC_ROWS block at a
    time.  A DigitMap phi with no psi and 1-d frequencies sums each block
    from its level tables instead (`_code_sums` of `phi._codes` in blocks of
    L levels, K^L <= _DIGIT_CODES for K snapped digits), built on the first
    block and kept when that block's guard rows (`_guard_rows`) agree with
    `_contract` of phi's image within 1e-12 plus the rounding of either sum's
    phase, 4 eps 2 pi |lambda| max|phi|, times each column's summed |w|; else
    every block runs phi."""
    digit = psi is None and isinstance(phi, phases.DigitMap) and lam.shape[1] == 1
    levels = min(phi.depth, _levels_within(phi._top + 1, _DIGIT_CODES)) if digit else 0
    sums = np.zeros((lam.shape[0], len(weights)), dtype=complex)
    sq = np.zeros(len(weights))
    tables = None
    for lo in range(0, pts.shape[0], _MC_ROWS):
        x = pts[lo:lo + _MC_ROWS]
        y = x if psi is None else psi(x)
        W = _weight_matrix(weights, y)
        sq += np.sum(np.abs(W) ** 2, axis=0)
        if not levels:
            sums += _contract(phi(y), lam, W)
            continue
        codes, offsets = phi._codes(x, levels)
        if tables is None:  # the first block builds the tables and guards them
            tables = _phase_tables(offsets, lam[:, 0])
            img = phi(x)
            rows = _guard_rows(lam)
            miss = np.abs(_code_sums(codes, W, tables[rows]) - _contract(img, lam[rows], W))
            reach = 8 * np.pi * np.finfo(float).eps * np.abs(lam[rows, 0]) * np.max(np.abs(img))
            if not np.all(miss <= (1e-12 + reach)[:, None] * np.sum(np.abs(W), axis=0)):
                levels = 0
                sums += _contract(img, lam, W)
                continue
        sums += _code_sums(codes, W, tables)
    return sums, sq


def _phase_tables(offsets, xi):
    """(m, B, K^L) phase tables e^{2 pi i xi offsets[b]} of the (B, K^L) level
    block offsets at the 1-d frequencies xi."""
    return np.exp(2j * np.pi * xi[:, None, None] * offsets)


def _code_sums(codes, W, tables, out=None):
    """(m, k) sums over the rows of the (n, B) codes of W[:, j] e^{2 pi i xi x},
    where e^{2 pi i xi x} is the product over b of tables[:, b, codes[:, b]]
    (`_phase_tables`) and W is an (n, k) weight matrix, None for the unit
    column.  The tables are gathered _MC_ROWS rows at a time, so no
    exponential runs per row; each block's sum is added onto `out` when
    given (and returned), else onto zeros."""
    n, blocks = codes.shape
    shape = (tables.shape[0], 1 if W is None else W.shape[1])
    sums = np.zeros(shape, dtype=complex) if out is None else out
    rows = min(n, _MC_ROWS)
    j = np.empty((blocks, rows), dtype=np.intp)
    prod = np.empty((tables.shape[0], rows), dtype=complex)
    step = np.empty(rows, dtype=complex)
    for lo in range(0, n, rows):
        c = min(rows, n - lo)
        np.copyto(j[:, :c], codes[lo:lo + c].T)
        for table, row in zip(tables, prod):
            # mode "clip" writes straight into row; "raise" buffers a copy
            np.take(table[0], j[0, :c], out=row[:c], mode="clip")
            for b in range(1, blocks):
                row[:c] *= np.take(table[b], j[b, :c], out=step[:c], mode="clip")
        if W is None:
            sums[:, 0] += prod[:, :c].sum(axis=1)
        else:
            sums += prod[:, :c] @ W[lo:lo + c]
    return sums


def _digit_moments(mu, psi, phi, lam, quad, weights):
    """(values, errors), each (m, k), of the digit enumeration at quad.depth,
    run block by block over `digit_nodes`' blocks: each block's pushforward,
    phase image, weights and `_contract`, so one block of nodes is held at a
    time.  An enumeration of at most _NODE_BLOCK nodes is one block."""
    count, blocks, tail_width = digit_nodes(mu, quad.depth)
    _check_entries(count, len(weights), "weight stack")
    # Lipschitz tail bound: the dropped tail moves a node by at most
    # tail_width, and |d(w e^{i theta})| <= |dw| + |w| |d e^{i theta}|; the
    # weight's slope and the image span are read off adjacent finest-scale
    # enumeration nodes (k >= 2 digits, so some are adjacent), column by
    # column.  Each block's differences start from the last node, image row
    # and unweighted weight row of the block before, and the maxima run
    # over the blocks, so the bound is that of one block of all nodes.
    peaks = slopes = np.zeros(len(weights))
    fine_span, vals = 0.0, None
    last = None, None, [None] * len(weights)  # the block before's last node and rows
    for pts, w in blocks:
        y = pts if psi is None else psi(pts)
        img = phi(y)
        W = _weight_matrix(weights, y)
        peaks = np.maximum(peaks, [np.max(np.abs(col)) for col in W.T])
        dx = _diff_after(last[0], pts[:, 0])
        gap = np.maximum(dx, tail_width)
        slopes = np.maximum(
            slopes, [np.max(np.abs(_diff_after(c, col)) / gap) for c, col in zip(last[2], W.T)]
        )
        fine = dx <= 2 * tail_width * (mu.ratio - 1) + 1e-300
        # the steps' lengths without squaring them, which overflows past 1e154
        step = _diff_after(last[1], img)
        step = np.abs(step[:, 0]) if step.shape[1] == 1 else np.hypot.reduce(step, axis=1)
        fine_span = np.maximum(fine_span, np.max(step[fine], initial=0.0))
        last = pts[-1, 0], img[-1:].copy(), W[-1].copy()  # before W is weighted in place
        W *= w[:, None]
        part = _contract(img, lam, W)
        vals = part if vals is None else vals + part
    phase = 2 * np.pi * np.linalg.norm(lam, axis=1) * float(fine_span)
    errs = slopes * tail_width + peaks * phase[:, None]
    return vals, errs


def _diff_after(first, a):
    """np.diff of a along axis 0 with the row `first` before a's first row
    (none when first is None)."""
    return np.diff(a, axis=0) if first is None else np.diff(a, axis=0, prepend=first)


def _digit_transfer(mu, phi, lam, depth, weights):
    """(values, errors), each (m, k), of the weights over a digit system, or
    None when the transfer cannot take the call: frequencies that are not
    1-d, a pair that is no digit system, or a refused weight.

    With x = sum_j d_j r^-j and phi(psi(x)) = sum_j sigma(d_j) q^-j, the top L
    cylinders c of `measures._cylinders` (k^L <= _TRANSFER_CELLS for k
    positive-weight digits) are x = x_c + r^-L y, and on each one w(psi(x))
    is fitted by the degree-K Chebyshev interpolant sum_k a_ck T_k(t) in the
    local coordinate t in [-1, 1] of y over the support's hull.  Each
    cylinder adds p_c e^{2 pi i lambda phi_c} sum_k a_ck M_k(lambda q^-L),
    M the moments of `_chebyshev_moments`.  A weight is refused when a
    support box cuts a cylinder's image hull, a value at a fit node is not
    finite, or its fit tail (|a_{K-1}| + |a_K| summed over the cylinders'
    masses) exceeds _FIT_TOL times its size.  The error is that tail, plus
    the dropped levels 2 pi |lambda| q^-(L + depth) max|sigma| / (q - 1) and
    a round-off bound, each of the latter times the fits' summed coefficient
    size: the recursion's monomial steps have infinity-norm <= 1, so its
    round-off is a few eps a level, grown once by the largest row sum of
    |T_k|'s monomial coefficients; the cylinder sum adds eps per cylinder
    and the phase its relative eps times 2 pi |lambda| max|phi|.
    """
    if lam.shape[1] != 1:
        return None
    base, psi = _unwrap(mu)
    system = phases.as_digit_system(base, phi if psi is None else phases.compose(phi, psi))
    if system is None:
        return None
    r, q, rows = system
    d, sigma, p = (np.array(col) for col in zip(*(row for row in rows if row[2] > 0)))
    levels = _levels_within(len(p), _TRANSFER_CELLS)
    x_c, mass, r_scale = measures._cylinders(d, p, r, levels)
    mid = (d.min() + d.max()) / (2 * (r - 1))
    half = (d.max() - d.min()) / (2 * (r - 1))
    K = _FIT_DEGREE
    t = np.polynomial.chebyshev.chebpts1(K + 1)
    x = (x_c[:, None] + r_scale * (mid + half * t)).reshape(-1, 1)
    W = _weight_matrix([(fn, None) for fn, _ in weights], x if psi is None else psi(x))
    W = W.reshape(len(mass), K + 1, len(weights))
    if not np.all(np.isfinite(W)):
        return None
    if any(box is not None for _, box in weights):
        # a box must hold each cylinder's image hull or miss it
        image = phases.as_digit_system(base, phases.Identity(1) if psi is None else psi)
        if image is None:
            return None
        sigma_of = {a: s for a, s, _ in image[2]}
        image_sigma = np.array([sigma_of[a] for a in d])
        qi = image[1]
        y_c, _, qi_scale = measures._cylinders(image_sigma, p, qi, levels)
        lo = y_c + qi_scale * image_sigma.min() / (qi - 1)
        hi = y_c + qi_scale * image_sigma.max() / (qi - 1)
        for j, (_, box) in enumerate(weights):
            if box is not None:
                b_lo, b_hi = np.asarray(box, dtype=float).reshape(2, -1)[:, 0]
                inside = (lo >= b_lo) & (hi < b_hi)
                if np.any(~inside & (hi >= b_lo) & (lo < b_hi)):
                    return None
                W[:, :, j] *= inside[:, None]
    fit = np.linalg.inv(np.polynomial.chebyshev.chebvander(t, K))
    A = np.einsum("ki,cij->cjk", fit, W)  # (cylinders, weights, K + 1)
    tail = mass @ np.abs(A[:, :, -2:]).sum(axis=2)
    if np.any(tail > _FIT_TOL * (mass @ np.abs(W).max(axis=1))):
        return None

    e = (d - (r - 1) * mid) / (r * half)  # each digit in the local coordinate
    phi_c, _, q_scale = measures._cylinders(sigma, p, q, levels)
    cheb, growth = _chebyshev_moments(r, q, e, sigma, p, lam[:, 0] * q_scale, depth)
    W = (mass[:, None, None] * A).reshape(len(mass), -1)
    sums = _contract(phi_c[:, None], lam, W).reshape(len(lam), len(weights), K + 1)
    vals = np.einsum("ijk,ik->ij", sums, cheb)
    size = mass @ np.abs(A).sum(axis=2)
    reach = 2 * np.pi * np.abs(lam[:, 0]) * np.max(np.abs(sigma)) / (q - 1)
    roundoff = 8 * np.finfo(float).eps * ((depth + 1) * growth + len(mass) + reach)
    errs = tail + (reach * q_scale * float(q) ** -depth + roundoff)[:, None] * size
    return vals, errs


def _chebyshev_moments(r, q, e, sigma, p, xi, depth):
    """((m, K + 1) moments of T_k(t) e^{2 pi i xi phi(y)} over the digit
    measure, the largest row sum of |T_k|'s monomial coefficients).

    After a first digit d the local coordinate is t = t' / r + e_d, t' that
    of the remaining digits, so the moments v_k(xi) of t^k obey
    v(xi) = sum_d p_d e^{2 pi i xi sigma(d) / q} D_d v(xi / q) with
    D_d[k, j] = C(k, j) r^-j e_d^{k-j}; `depth` levels run up from the
    polynomial moments v(0), the fixed point of the xi = 0 system, taken at
    xi q^-depth.
    """
    K = _FIT_DEGREE
    k, j = np.indices((K + 1, K + 1))
    binom = np.vectorize(math.comb)(k, j)  # 0 above the diagonal
    D = binom * float(r) ** -j * e[:, None, None] ** np.maximum(k - j, 0)
    P = np.einsum("d,dkj->kj", p, D)
    v0 = np.zeros(K + 1)
    v0[0] = 1.0
    for n in range(1, K + 1):
        v0[n] = P[n, :n] @ v0[:n] / (1 - float(r) ** -n)
    v = np.tile(v0.astype(complex), (len(xi), 1))
    for level in range(depth - 1, -1, -1):
        digit_phase = p * np.exp(2j * np.pi * np.outer(xi * float(q) ** -level, sigma / q))
        v = np.einsum("id,dkj,ij->ik", digit_phase, D, v)
    C2P = np.zeros((K + 1, K + 1))  # C2P[k, j]: the t^j coefficient of T_k
    for n in range(K + 1):
        C2P[n, : n + 1] = np.polynomial.chebyshev.cheb2poly(np.eye(K + 1)[n])
    return v @ C2P.T, np.abs(C2P).sum(axis=1).max()


def _guarded(fast, oracle, lam, guard=None):
    """fast()'s (values, errors) when it answers (not None) and `guard`
    (default `oracle`) agrees on the `_guard_rows` within both errors +
    1e-12; else oracle(lam).  `oracle` and `guard` map frequency rows to
    (values, errors); the digit transfer's guard is the enumeration on at
    most _GUARD_NODES nodes, its oracle the enumeration at the caller's depth."""
    found = fast()
    if found is not None:
        vals, errs = found
        rows = _guard_rows(lam)
        oracle_vals, oracle_errs = (guard or oracle)(lam[rows])
        if np.all(np.abs(vals[rows] - oracle_vals) <= errs[rows] + oracle_errs + 1e-12):
            return vals, errs
    return oracle(lam)


def _guard_rows(lam):
    """All m rows when m <= _GUARD_ROWS, else _GUARD_ROWS seeded ones with the largest-norm one."""
    rows = np.arange(lam.shape[0])
    if rows.size <= _GUARD_ROWS:
        return rows
    top = int(np.argmax(np.linalg.norm(lam, axis=1)))
    others = np.delete(rows, top)
    picked = spawn_rng(0, "linear-split-guard").choice(others, _GUARD_ROWS - 1, replace=False)
    return np.sort(np.append(picked, top))


def _split_moments(mu, phi, linear, lam, quad, threads):
    """(values, errors), each (m, 1), of the unit weight on the box mu when phi
    is affine in the coordinates `cols` with the coefficient block C, linear =
    (cols, C): the 1-d box factors at (C^T lambda)_j times the moment of the
    remaining box under x' -> phi(x_cols = 0, x'), which the full rule
    integrates (e^{2 pi i lambda . phi(0)} when no coordinate remains).  The
    error is |factors| times that rule's two-order error (8 eps pi sum_k
    |lambda_k phi(0)_k| for the closed form) plus the factors' round-off,
    8 eps vol (len(cols) + sum_j min(pi |(C^T lambda)_j|, 1 / w_j) (|lo_j| +
    |hi_j|)): each factor w sinc(xi w) e^{pi i xi (lo + hi)} errs by a few eps
    w in its sinc and by its own size, at most min(w, 1 / (pi |xi|)), times
    the phase's 3 eps pi |xi| (|lo| + |hi|)."""
    cols, C = linear
    cols = list(cols)
    rest = [i for i in range(mu.dim) if i not in cols]
    lo, hi = mu.lo, mu.hi
    coef = lam @ C  # row i: (C^T lambda_i)
    eps = np.finfo(float).eps
    factor = measures._box_ft(LebesgueBox(lo[cols], hi[cols]), coef)[:, None]
    with np.errstate(over="ignore"):  # 1 / w is inf for a subnormal width w
        reach = np.minimum(np.pi * np.abs(coef), 1 / (hi[cols] - lo[cols]))
    reach = reach @ (np.abs(lo[cols]) + np.abs(hi[cols]))
    roundoff = 8 * eps * np.prod(hi - lo) * (len(cols) + reach[:, None])
    if rest:
        embed = phases.Affine(np.eye(mu.dim)[:, rest])
        sub, sub_err = _tensor_gauss(
            LebesgueBox(lo[rest], hi[rest]), None, phases.compose(phi, embed),
            lam, quad, [(None, None)], threads,
        )
    else:
        origin = phi(np.zeros(mu.dim))
        sub = np.exp(2j * np.pi * (lam @ origin))[:, None]
        sub_err = 8 * eps * np.pi * (np.abs(lam) @ np.abs(origin))[:, None]
    return factor * sub, np.abs(factor) * sub_err + roundoff


def _tensor_gauss(mu, psi, phi, lam, quad, weights, threads):
    """The full tensor-gauss rule over the measure's cells or support boxes;
    its work items run on a pool of `threads` workers, the engine's only pool."""
    groups: dict = {}  # support box (lo + hi flattened, None unboxed) -> weight columns
    for j, (_, box) in enumerate(weights):
        key = None if box is None else tuple(np.asarray(box, dtype=float).ravel())
        groups.setdefault(key, []).append(j)
    if any(key is not None for key in groups) and (
        psi is not None or not isinstance(mu, LebesgueBox)
    ):
        raise SchemeMismatchError("support_box with tensor-gauss requires a box measure")
    if not isinstance(mu, (LebesgueBox, LebesgueDisc)):
        raise SchemeMismatchError(
            f"tensor-gauss is not valid for measure kind {mu.kind!r}"
        )
    eff_phi = phi if psi is None else phases.compose(phi, psi)
    cells = mu.cells()
    sig = panels_from_cycles(mu.cell_cycles(oscillation_cycles(eff_phi, mu, lam)), quad.order)
    orders = (quad.order, quad.order + 8)
    layouts: dict = {}  # box width / measure width -> (panel layouts, their frequencies)
    # work items, the two orders of a (group, layout, cell) side by side:
    # (frequency rows, the rule's panel edges, order, weight columns)
    items = []
    for key, cols in groups.items():
        if key is None:  # the measure's own cells
            rule_cells, share = cells, np.ones(mu.dim)
        else:  # one rule over the box clipped to the measure
            lo, hi = np.maximum(key[: mu.dim], mu.lo), np.minimum(key[mu.dim :], mu.hi)
            if not np.all(hi > lo):  # empty, inverted or outside: integrates to 0
                continue
            rule_cells, share = [(lo, hi)], (hi - lo) / (mu.hi - mu.lo)
        if tuple(share) not in layouts:  # the guard keeps 64 * (1/64) at one panel
            counts = np.maximum(1, np.ceil(sig * share * (1 - 1e-12))).astype(np.int64)
            layouts[tuple(share)] = np.unique(counts, axis=0, return_inverse=True)
        layout_set, inverse = layouts[tuple(share)]
        for g, layout in enumerate(layout_set):
            idx = np.flatnonzero(inverse.ravel() == g)
            # its nodes, image and weights at the larger order, before any edge
            count = math.prod(int(p) * orders[1] for p in layout)
            _check_entries(count, max(mu.dim, len(cols)), "sub-rule")
            for lo, hi in rule_cells:
                edges = [np.linspace(a, b, p + 1) for a, b, p in zip(lo, hi, layout)]
                items += [(idx, edges, order, cols) for order in orders]

    def run_item(item):
        # the rule's own tensor grid, weights and phase image, freed on return
        idx, edges, order, cols = item
        pts, w = mu.cell_nodes(*box_gauss_nodes(edges, order))
        y = pts if psi is None else psi(pts)
        W = _weight_matrix([weights[j] for j in cols], y, w)
        return _contract(phi(y), lam[idx], W)

    vals = np.zeros((lam.shape[0], len(weights)), dtype=complex)
    errs = np.zeros(vals.shape)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            sums = list(pool.map(run_item, items))
    else:
        sums = [run_item(item) for item in items]
    for (idx, _, _, cols), low, high in zip(items[::2], sums[::2], sums[1::2]):
        rows = np.ix_(idx, cols)
        vals[rows] += high
        errs[rows] += np.abs(high - low)
    return vals, errs


def _per_integral(mu, psi, phi, lam, quad, weights):
    """Global adaptive refinement of each (frequency, weight) pair from the
    measure's cells, two-order Gauss errors per cell.  The pairs run in order
    in the calling thread and share each (cell, order) rule's Gauss weights,
    node factor and phase image, and a weight's column from its first pair to
    reach the cell, in a table that starts over past _ADAPTIVE_NODES nodes."""
    if not isinstance(mu, (LebesgueBox, LebesgueDisc)):
        raise SchemeMismatchError(f"adaptive is not valid for measure kind {mu.kind!r}")
    k, abs_tol = len(weights), quad.abs_tol
    orders = (quad.order, max(2, quad.order // 2))
    rules: dict = {}  # (cell lo, cell hi, order) -> (w, jac, image, y, {weight: column})

    def cell_sum(i, j, lo, hi, order):
        key = (lo.tobytes(), hi.tobytes(), order)
        if key not in rules:
            if len(rules) * quad.order**mu.dim >= _ADAPTIVE_NODES:  # rebuilt on use
                rules.clear()
            pts, w = box_gauss_nodes(np.stack([lo, hi], axis=1), order)
            pts, jac = mu.cell_nodes(pts, 1.0)
            y = pts if psi is None else psi(pts)
            rules[key] = (w, jac, phi(y), y, {})
        w, jac, img, y, cols = rules[key]
        if j not in cols:
            cols[j] = _weight_matrix(weights[j : j + 1], y)[:, 0]
        vals = np.exp(2j * np.pi * (img @ lam[i])) * cols[j] * jac
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("non-finite integrand value during quadrature")
        return w @ vals

    def one(pair):
        i, j = divmod(pair, k)
        heap, tick = [], itertools.count()

        def push(lo, hi):
            val = cell_sum(i, j, lo, hi, orders[0])
            err = abs(val - cell_sum(i, j, lo, hi, orders[1]))
            heapq.heappush(heap, (-err, next(tick), lo, hi, val, err))

        for lo, hi in mu.cells():
            push(lo, hi)
        for _ in range(quad.max_subdivisions):
            if sum(item[5] for item in heap) <= abs_tol:
                break
            _, _, lo, hi, _, _ = heapq.heappop(heap)  # split its widest side in half
            split = int(np.argmax(hi - lo))
            low_hi, high_lo = hi.copy(), lo.copy()
            low_hi[split] = high_lo[split] = 0.5 * (lo[split] + hi[split])
            push(lo, low_hi)
            push(high_lo, hi)
        value = sum(item[4] for item in heap)
        err = sum(item[5] for item in heap)
        if err > 10 * abs_tol:
            raise QuadratureError(
                f"adaptive quadrature error {err:.3e} above tolerance "
                f"{abs_tol:.3e} after {quad.max_subdivisions} subdivisions"
            )
        return value, err

    results = [one(pair) for pair in range(lam.shape[0] * k)]
    vals = np.array([r[0] for r in results], dtype=complex).reshape(-1, k)
    errs = np.array([r[1] for r in results], dtype=float).reshape(-1, k)
    return vals, errs
