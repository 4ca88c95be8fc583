"""Smooth approximation of intrinsic Lipschitz graphs by group convolution.

Pipeline: mollify the subgraph indicator with a symmetric smooth kernel
supported in the homogeneous ball of radius alpha,

    f_alpha(p) = int rho_alpha(u) chi_E(u^{-1} p) du,

extract the level set {f_alpha = c} as a graph over the base (the section
t -> f_alpha(i(a) * (t e1)) is monotone), and report the measured
convergence rate sup|phi_alpha - phi| / alpha together with the intrinsic
gradient bound of the approximants.

Numerical notes.  The kernel is a product bump (``MollifierKernel``):
its weights on the k^(m+n) midpoint grid of its support are the outer
product of a horizontal and a vertical bump, each on its own k^m or k^n
block grid, over the sum of that product on the grid: unit discrete mass,
with no continuum normalizer (every share below divides by the weights'
total anyway).  It keeps the grid's axes and the nonzero-weight nodes u_k,
which the same blocks count for the work budget before any kernel is
built and the convolution runs over; the whole grid, ``nodes`` and
``weights``, is rebuilt on read.  Each kernel is built once per process:
kernels of the same alpha and k on groups of the same m, n, epsilon and B
share one read-only convolution set from a bounded memo.  The indicator
becomes per node a subcell volume fraction (standard level-set practice),
the ramp r_k = clip(g_k/delta + 1/2, 0, 1) over one grid cell delta of the ramp
argument g_k = phi(base(u_k^-1 p)) - t(u_k^-1 p), and f_alpha is the share
of kernel weight below the graph, sum_k w_k r_k / sum_k w_k (``_share``):
each row's vecdot of ramps and weights over the same vecdot of ones, the
kernel's total.  Rounding is monotone and every r_k <= 1, so f_alpha lies
in [0, 1], exactly 1 where every ramp is 1 (deep inside the subgraph) and
exactly 0 where every ramp is 0 (far above it, phi read through its
extension beyond its box).  Tables come in blocks of whole rows, each row
reduced on its own, so a point's values depend neither on the other points
of the call, nor on the blocks, nor on the leading axes of the batch.
Right multiplication by s e1 moves only the V-part of the splitting
G = W * V, so g at p * (s e1) is g at p minus s, and one table of g per
batch of points (one split and one phi evaluation per point and node,
``_ramp_table``) serves f_alpha and the three items below; a non-finite g
is a NonFiniteState error in each of them, and a NaN or infinite point given
to a public call a ValidationError.

* the level set.  A section f(t) = sum_k w_k r_k(g_k - t) / sum w is
  nonincreasing and linear between its 2K kinks g_k -+ delta/2, 1 at the
  first and 0 at the last.  Each row keeps a bracket of two kinks with
  f(kinks[lo]) > c >= f(kinks[hi]), and each pass over the table reads f
  at the kink nearest the secant root of that bracket (regula falsi over
  the sorted kinks, one searchsorted per row), strictly inside it.  An end
  the bracket keeps for a second pass weighs half its f - c in the next
  secant (the Illinois rule), so a bracket that closes from one side
  speeds up.  After B = ceil(log2(2K - 1)) secant passes a row bisects, so
  no row takes more than 2B passes, where a secant that creeps a few kinks
  per pass could take up to 2K - 2: a section that drops steeply to just
  above c and then nears c slowly over many kinks spends its B secant
  passes that way.  The search ends on the piece that crosses c; the
  secant on it is the exact root, and where f equals c over an interval
  the root is its left end, inf{t : f <= c}.  ``section_evals`` counts
  the evaluations of f read off the table, including one pass at the
  roots that measures |f - c| (``max_level_residual``, rounding only).
* the gradient.  Right multiplication by h e_j, j >= 2, keeps t and moves
  the base along e_j + sum_s c_s e_{y_s}, with the frozen coefficients c_s
  of calculus taken at t in place of phi(base).  So X_j g is the intrinsic
  gradient of phi at the split base frozen at t (D_j phi where g = 0), and
  X_1 g = -1.  With the ramp slopes averaged over h = alpha/64,
  beta = [r(g + h) - r(g - h)] / 2h, X_j f_alpha = sum_k w_k beta_k X_j g_k
  / sum w, a kernel mean of the intrinsic gradient over the ramp band; X_1
  f_alpha is the central difference along e1.  A node with g on a kink
  -+delta/2 gets half the weight of one inside the band.  For phi linear
  in x-hat alone every X_j g is phi's constant gradient, and so is the
  level set's gradient up to rounding.  At p * (s e1) the ramps are read
  at g - s and X_j g is frozen at t + s, so one table serves any shift s.
  Only the band of pairs with beta != 0 reads its base and t off the
  table block's split, by the band's flat pair indices, to form X_j g from
  phi's partials or else its central differences (2(m - 1) evaluations of
  phi per band pair), summed back into the rows (``_shifted_gradient``).
  The level set's gradient at i(a) * (phi_alpha(a) e1) is the shift
  phi_alpha(a) of the rows i(a): the report walks the row blocks of the
  table on the rows i(a) once per alpha, finds each block's roots and reads
  the gradient of its subsampled rows off the same block, so it splits
  every (point, node) pair once per alpha, and no pair twice.
* the gradient mass, the integral of |grad_G f_alpha| over the base and t
  on 48 midpoint nodes in t per base column a.  At i(a) * (t e1) the ramp
  argument of node k is g_k(i(a)) - t, and every beta_k is 0 once
  |g_k(i(a)) - t| >= reach = delta/2 + h.  So the integrand vanishes
  outside |t - phi(a)| < R, R = max_{a,k} |g_k(i(a)) - phi(a)| + reach,
  read off the table of g on the rows i(a); the window half-width
  R * 48/47 puts both end nodes at distance R, where the gradient is
  exactly 0.  All 48 slices are shifts of the same rows, so they read one
  more pass over that table, in row blocks: two passes in all, not one
  per slice.  Slice i of row a sits at t_0 + i dt, so the slices in a
  pair's band are a run of at most floor(2 reach/dt) + 1 from just above
  floor((g - reach - t_0)/dt), found in closed form.  That run and one
  slack slice per side against rounding, clipped to the 48 slices, are
  read in as many dense passes over the block, and off its band a pair
  reads beta = 0 exactly (``_sliced_gradient``).  With analytic partials
  X_j g is affine in the value it is frozen at: at t + s it is X_j g at t
  plus s sum_s' b^(s')_{j1} d_{y_s'} phi, so the partials are evaluated
  once per block, on every pair; central differences are taken in each
  pass where beta != 0.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .calculus import (
    _frame_apply,
    _graph_gradient,
    _intrinsic_gradient,
    _vertical_rate,
    intrinsic_gradient,
)
from .errors import DimensionMismatch, NonFiniteState, QuadratureUnderflow, ValidationError
from .functions import check_base_points
from .group import _check_finite, _finite_point
from .quadrature import (
    check_count,
    check_positive,
    check_work_budget,
    grid_axes,
    grid_from_axes,
    midpoint_rule,
    tensor_grid,
)
from .splitting import _anchor_terms, _split, graph_point

_BATCH_OPS_LIMIT = 2 ** 21
# point-node pairs per row block of the two gradients and of the level-set
# walks, which hold several arrays of that size per block: the split, g, the
# sorted kinks and the ramps
_GRADIENT_OPS_LIMIT = 2 ** 16
# the ramp slopes of the gradient are averaged over h = alpha * _SLOPE_STEP
_SLOPE_STEP = 1.0 / 64.0

# approximation_report passes when the rate ratios sup|phi_alpha - phi| / alpha
# stay within RATE_FACTOR of each other, or all lie at or below
# RATE_NOISE_FLOOR, and the approximants' gradient sup stays within
# GRADIENT_ALLOWANCE of the measured sup of phi's gradient.
RATE_FACTOR = 2.0
RATE_NOISE_FLOOR = 5e-5
GRADIENT_ALLOWANCE = 1.10
# approximation_report reads the gradient on every (N // GRADIENT_SAMPLES)-th grid point
GRADIENT_SAMPLES = 256


def _bump(t):
    """exp(-1/(1-t)) on t < 1, extended by zero; smooth on the real line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
    return out


def _kernel_points_per_axis(points_per_axis):
    """An integer below 4, zero and negatives too, underflows the kernel;
    any other count that is not a positive integer is a ValidationError."""
    k = points_per_axis
    if isinstance(k, numbers.Integral) and not isinstance(k, bool) and k < 4:
        raise QuadratureUnderflow(f"kernel needs at least 4 points per axis, got {k}")
    return check_count(k, "points_per_axis must be a positive integer")


def _block_bump(dim, k, half, unit, factor=1.0):
    """exp(-1/(1 - factor |x/unit|^2)) at the k^dim midpoint nodes x of
    [-half, half]^dim (C order): one factor of the kernel profile on its
    block of the kernel grid."""
    x = grid_from_axes(grid_axes(np.full(dim, -half), np.full(dim, half), (k,) * dim)) / unit
    return _bump(factor * np.sum(x * x, axis=-1))


def _nonzero_node_count(G, points_per_axis):
    """The nonzero-weight nodes of a kernel with ``points_per_axis`` nodes
    per axis, counted without building it: the profile is a horizontal bump
    times a vertical bump, so the count is the product of each bump's
    nonzero nodes on its unit-ball grid, k^m and k^n nodes."""
    k = _kernel_points_per_axis(points_per_axis)
    return (int(np.count_nonzero(_block_bump(G.m, k, 1.0, 1.0)))
            * int(np.count_nonzero(_block_bump(G.n, k, 1.0, 1.0))))


def _kernel_alpha(G, alpha):
    """alpha as a float; a ValidationError names it unless it is positive and
    finite and a^2, the vertical half-width a^2/eps^2 and the widths 2a and
    2a^2/eps^2 of the kernel's support box are finite normal floats: below,
    a^2 underflows and the weights are NaN; above, the box overflows."""
    a = check_positive(alpha, "alpha must be positive and finite")
    with np.errstate(all="ignore"):
        unit = np.float64(a) * a
        y_half = unit / np.float64(G.epsilon) ** 2
        normal = (min(unit, y_half) >= np.finfo(float).tiny
                  and np.isfinite(2.0 * max(a, y_half)))
    if not normal:
        raise ValidationError(f"alpha must keep the kernel's support box [-a, a]^m x "
                              f"[-a^2/eps^2, a^2/eps^2]^n within the normal float range, "
                              f"got {a!r}")
    return a


# Convolution sets by (m, n, eps, B, alpha, k), shared by every kernel the
# process builds for them: a report builds one kernel per alpha, again on each
# call.  The memo keeps no group, and holds at most _KERNEL_MEMO_BYTES of
# arrays, oldest out first, because nothing else bounds how many kernels a
# process builds or how large they are (one free_step2(3) set at k = 12 takes
# 165 MB; the five of a benchmark smoothing pass take 3.6 MB).
_KERNEL_MEMO_BYTES = 2 ** 26
_kernel_memo = OrderedDict()
_kernel_memo_lock = threading.Lock()


def _convolution_set(G, a, k):
    """(axes, subcell width, flat index, nodes, weights, total, bracket terms)
    of the kernel of radius a with k points per axis on G (``MollifierKernel``),
    from the memo or built and stored there; its arrays are read-only."""
    key = (G.m, G.n, G.epsilon, G.B.tobytes(), a, k)
    with _kernel_memo_lock:
        if key in _kernel_memo:
            _kernel_memo.move_to_end(key)
            return _kernel_memo[key][0]
    y_half = a * a / G.epsilon ** 2
    half = np.array([a] * G.m + [y_half] * G.n)
    axes = tuple(grid_axes(-half, half, (k,) * G.dim))
    # the grid's weights, C order: the outer product of the two block
    # bumps over its sum, so deep-inside convolutions evaluate to 1
    weights = np.multiply.outer(
        _block_bump(G.m, k, a, a),
        _block_bump(G.n, k, y_half, a ** 2, G.epsilon ** 4)).reshape(-1)
    weights /= np.sum(weights)
    keep = np.flatnonzero(weights)
    cols = np.unravel_index(keep, (k,) * G.dim)
    nodes = np.stack([axis[i] for axis, i in zip(axes, cols)], axis=-1)
    w = weights[keep]
    terms = _anchor_terms(G, nodes)
    arrays = (*axes, keep, nodes, w, *terms)
    for array in arrays:
        array.flags.writeable = False
    conv = (axes, 2.0 * a / k, keep, nodes, w, float(np.vecdot(np.ones_like(w), w)), terms)
    with _kernel_memo_lock:
        _kernel_memo[key] = conv, sum(array.nbytes for array in arrays)
        while sum(size for _, size in _kernel_memo.values()) > _KERNEL_MEMO_BYTES:
            _kernel_memo.popitem(last=False)
    return conv


@dataclass
class MollifierKernel:
    """Symmetric smooth kernel on the homogeneous ball of radius alpha.

    Unit-ball profile rho(x, y) = exp(-1/(1-|x|^2)) exp(-1/(1-eps^4|y|^2)),
    dilated by (x, y) -> (x/a, y/a^2); rho(-p) = rho(p) because both factors
    are even, and the support is exactly {max(|x|, eps |y|^(1/2)) < a}.
    ``points_per_axis`` fixes the midpoint grid on the support box
    [-a, a]^m x [-a^2/eps^2, a^2/eps^2]^n.  The weights are the profile at
    the grid's nodes over its sum there, with no continuum normalizer; the
    kernel keeps the grid's axes and its nonzero-weight nodes, with their
    terms in the one split of ``splitting._split``.  Those arrays are
    read-only and shared by every kernel of the same alpha and k on a group
    of the same m, n, epsilon and B (``_convolution_set``).  ``nodes`` and
    ``weights``, the whole grid, are rebuilt on each read and kept only for
    the benchmark and tests.  An alpha whose a^2 underflows or whose
    support box overflows is a ValidationError.
    """

    G: object
    alpha: float
    points_per_axis: int = 16
    subcell_width: float = field(init=False)
    _axes: tuple = field(init=False, repr=False)
    # convolution set: the nonzero-weight nodes u, their flat grid indices, weights,
    # total (reduced as _share reduces a row) and terms in every split of u^{-1} p
    _conv_index: np.ndarray = field(init=False, repr=False)
    _conv_nodes: np.ndarray = field(init=False, repr=False)
    _conv_weights: np.ndarray = field(init=False, repr=False)
    _conv_total: float = field(init=False, repr=False)
    _conv_terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        (self._axes, self.subcell_width, self._conv_index, self._conv_nodes,
         self._conv_weights, self._conv_total, self._conv_terms) = _convolution_set(
            self.G, _kernel_alpha(self.G, self.alpha),
            _kernel_points_per_axis(self.points_per_axis))

    @property
    def nodes(self):
        """The whole k^(m+n) midpoint grid (C order), built on each read."""
        return grid_from_axes(self._axes)

    @property
    def weights(self):
        """The weight of every node of ``nodes``, 0 off the convolution set."""
        out = np.zeros(len(self._axes[0]) ** len(self._axes))
        out[self._conv_index] = self._conv_weights
        return out


def _ramp_table(G, phi, kernel, P, limit=None):
    """Per block of whole rows of P, one row or at most ``limit`` (default
    ``_BATCH_OPS_LIMIT``) point-node pairs: its slice of rows, (base, t) of
    u^-1 p for those rows p and all nonzero kernel nodes u, and g = phi(base)
    - t, a fresh array the caller may overwrite; a non-finite g raises
    NonFiniteState.  The kernel holds the bracket terms of its nodes, so it must be built on
    G or on a group of the same m, n, epsilon and B (a ValidationError)."""
    K = kernel.G
    if K is not G and not (K.m == G.m and K.n == G.n and K.epsilon == G.epsilon
                           and np.array_equal(K.B, G.B)):
        raise ValidationError(f"the kernel was built on {K}, not on {G}")
    step = max(1, (limit or _BATCH_OPS_LIMIT) // kernel._conv_weights.size)
    for start in range(0, P.shape[0], step):
        rows = slice(start, start + step)
        base, t = _split(G, kernel._conv_terms, P[rows])
        g = np.subtract(phi.eval_extended(base), t)
        if not np.all(np.isfinite(g)):
            raise NonFiniteState("phi is not finite within the kernel's reach of a point")
        yield rows, base, t, g


def _restore(out, lead):
    """Per-row ``out`` with the leading axes ``lead`` back (a scalar as a float)."""
    out = out.reshape(lead + out.shape[1:])
    return float(out) if out.ndim == 0 else out


def _ramp(g, delta, shift, out=None):
    """The ramps r = clip((g - shift)/delta + 1/2, 0, 1) at p * (shift e1),
    formed in ``out`` (default a fresh array); ``shift`` is a scalar or a
    column of one value per row of g, and a shift of 0 leaves g as it is."""
    frac = np.subtract(g, shift, out=out)
    frac /= delta
    frac += 0.5
    return np.clip(frac, 0.0, 1.0, out=frac)


def _share(ramps, kernel):
    """Each row's share sum_k w_k r_k / sum_k w_k of kernel weight (module docstring)."""
    return np.vecdot(ramps, kernel._conv_weights) / kernel._conv_total


def mollified_indicator(G, phi, kernel, p):
    """f_alpha at point(s) p: the group convolution of the subgraph
    indicator, in [0, 1], nonincreasing in the graph coordinate, with a
    kernel built on G (``_ramp_table``)."""
    p = _finite_point(G, p)
    P = p.reshape(-1, G.dim)
    out = np.empty(P.shape[0])
    for rows, _, _, g in _ramp_table(G, phi, kernel, P):
        out[rows] = _share(_ramp(g, kernel.subcell_width, 0.0, out=g), kernel)
    return _restore(out, p.shape[:-1])


def _shifted_gradient(G, phi, kernel, table, shift, pick):
    """(X_1 f_alpha, ..., X_m f_alpha) at p * (s e1), (rows, m), for the rows
    ``pick`` (a slice) of one block (base, t, g) of a ramp table on points p
    and their shifts s, a column of one value per row.  The band of pairs
    with beta != 0 reads its base and t off the block's flat columns; the
    derivation is the module docstring's gradient."""
    base, t, g = table
    h, delta = kernel.alpha * _SLOPE_STEP, kernel.subcell_width
    g = g[pick]
    # beta holds 2h w_k beta_k
    beta = _ramp(g, delta, shift - h)
    beta -= _ramp(g, delta, shift + h)
    beta *= kernel._conv_weights
    out = np.zeros((g.shape[0], G.m))
    out[:, 0] -= np.sum(beta, axis=-1)
    band = np.flatnonzero(beta != 0.0)
    band_rows, cols = np.divmod(band, g.shape[1])
    # each band pair's index among the block's flat pairs
    pairs = np.arange(t.shape[0])[pick][band_rows] * t.shape[1] + cols
    at = np.moveaxis(base, -1, 0).reshape(G.base_dim, -1)
    xs = _intrinsic_gradient(G, phi, np.take(at, pairs, axis=1).T,
                             np.take(t, pairs) + shift[band_rows, 0])
    xs *= beta.reshape(-1)[band, None]
    for j in range(G.m - 1):
        out[:, j + 1] += np.bincount(band_rows, xs[:, j], minlength=g.shape[0])
    out /= 2.0 * h * kernel._conv_total
    return out


def _gradient_at_shifts(G, phi, kernel, P, shift):
    """``_shifted_gradient`` on every row of P and its shift, a (P, 1)
    column, block by block of one table of g on P."""
    out = np.empty((P.shape[0], G.m))
    for rows, *table in _ramp_table(G, phi, kernel, P, _GRADIENT_OPS_LIMIT):
        out[rows] = _shifted_gradient(G, phi, kernel, table, shift[rows], slice(None))
    return out


def _sliced_gradient(G, phi, kernel, P, first, dt, slices):
    """(X_1 f_alpha, ..., X_m f_alpha) at p * (s e1), (P, slices, m), for
    every row p of P and its shifts s = first + i dt, i < slices (``first``
    one value per row), read off one table of g on P, streamed in row
    blocks.  Each pair is read on the ``width`` slices from ``lowest``,
    which hold every slice where its beta is not 0; the derivation is the
    module docstring's gradient mass."""
    h, delta = kernel.alpha * _SLOPE_STEP, kernel.subcell_width
    k = G.m - 1
    reach = 0.5 * delta + h
    width = min(int(2.0 * reach / dt) + 3, slices)
    first = np.reshape(first, (-1, 1))
    out = np.zeros((P.shape[0], slices, G.m))
    for rows, base, t, g in _ramp_table(G, phi, kernel, P, _GRADIENT_OPS_LIMIT):
        block = out[rows].reshape(-1, G.m)
        lowest = np.floor((g - reach - first[rows]) / dt).clip(0, slices - width).astype(int)
        # every pair's base point, column by column off base's buffer
        at = np.moveaxis(base, -1, 0).reshape(G.base_dim, -1).T
        if phi.has_partials:
            grad = phi.partials(at)
            xg = _frame_apply(G, at, t.reshape(-1), grad)
            rate = _vertical_rate(G, grad[:, k:])
        for o in range(width):
            i = lowest + o
            s = first[rows] + i * dt
            beta = _ramp(g, delta, s - h)
            beta -= _ramp(g, delta, s + h)
            beta *= kernel._conv_weights
            band = np.flatnonzero(beta)
            beta = beta.reshape(-1)[band]
            # the (row, slice) entry of each band pair
            entry = band // g.shape[1] * slices + i.reshape(-1)[band]
            s = s.reshape(-1)[band]
            if phi.has_partials:
                xs = xg[band] + s[:, None] * rate[band]
            else:
                xs = _intrinsic_gradient(G, phi, at[band], t.reshape(-1)[band] + s)
            block[:, 0] -= np.bincount(entry, beta, minlength=len(block))
            for j in range(k):
                block[:, j + 1] += np.bincount(entry, beta * xs[:, j], minlength=len(block))
    out /= 2.0 * h * kernel._conv_total
    return out


def horizontal_gradient_mollified(G, phi, kernel, p):
    """(X_1 f_alpha, ..., X_m f_alpha) at p: the ramp slopes beta weight
    X_j g of every (point, node) pair, from one split (module docstring)."""
    p = _finite_point(G, p)
    P = p.reshape(-1, G.dim)
    return _restore(_gradient_at_shifts(G, phi, kernel, P, np.zeros((P.shape[0], 1))),
                    p.shape[:-1])


def level_set_phi_alpha(G, phi, kernel, c_level, a):
    """phi_alpha(a): the root in t of f_alpha(i(a) * (t e1)) = c, batched
    over the base points (see ``_section_roots``).  Where f_alpha equals c
    over an interval of t, the root is the interval's left end."""
    a = check_base_points(a, G.base_dim)
    _check_finite(a)
    _check_level(c_level)
    A = a.reshape(-1, G.base_dim)
    check_work_budget(A.shape[0] * kernel._conv_weights.size, "the level-set ramp table",
                      "point-node pairs")
    roots = np.empty(A.shape[0])
    for rows, *_, g in _ramp_table(G, phi, kernel, graph_point(G, A, 0.0),
                                   _GRADIENT_OPS_LIMIT):
        roots[rows] = _section_roots(kernel, c_level, g)[0]
    return _restore(roots, a.shape[:-1])


def _check_level(c_level):
    if not (isinstance(c_level, numbers.Real) and 0.0 < c_level < 1.0):
        raise ValidationError("level c must lie in (0, 1)")


def _section_roots(kernel, c_level, g):
    """Roots inf{t : f_alpha(i(a) * (t e1)) <= c} of the rows of one block g
    of the table of g on the rows i(a), the point evaluations of f_alpha
    spent and max |f - c| at the roots (the module docstring's level set);
    g is left as it is."""
    count, size = g.shape
    delta = kernel.subcell_width
    # each row's kinks in order: the sorted g -+ delta/2, merged; the search
    # keeps f(kinks[lo]) > c >= f(kinks[hi]) on neighbouring kinks at the end
    kinks = np.empty((count, 2 * size))
    kinks[:, :size] = g
    kinks[:, :size].sort(axis=1)
    np.add(kinks[:, :size], 0.5 * delta, out=kinks[:, size:])
    kinks[:, :size] -= 0.5 * delta
    kinks.sort(axis=1, kind="stable")

    rows = np.arange(count)
    lo = np.zeros(count, dtype=np.intp)
    hi = np.full(count, 2 * size - 1)
    f_lo, f_hi = np.ones(count), np.zeros(count)
    # the secant's f - c at each end, halved while that end is kept
    d_lo, d_hi = f_lo - c_level, f_hi - c_level
    moved_lo = np.zeros(count, dtype=bool)
    moved_hi = np.zeros(count, dtype=bool)
    budget = int(np.ceil(np.log2(2 * size - 1)))
    frac = np.empty_like(g)
    evals = passes = 0
    while True:
        todo = np.flatnonzero(hi - lo > 1)
        if todo.size == 0:
            break
        lo_t, hi_t = lo[todo], hi[todo]
        if passes < budget:
            # the kink nearest the secant root, strictly inside the bracket
            t_lo, t_hi = kinks[todo, lo_t], kinks[todo, hi_t]
            d = d_lo[todo]
            target = t_lo + d / (d - d_hi[todo]) * (t_hi - t_lo)
            right = np.array([kinks[r].searchsorted(t) for r, t in zip(todo, target)]
                             ).clip(lo_t + 1, hi_t)
            nearer_left = target - kinks[todo, right - 1] < kinks[todo, right] - target
            mid = (right - nearer_left).clip(lo_t + 1, hi_t - 1)
        else:
            mid = (lo_t + hi_t) // 2
        f = _share(_ramp(g if todo.size == count else g[todo], delta,
                         kinks[todo, mid, None], out=frac[:todo.size]), kernel)
        evals += todo.size
        passes += 1
        up = f > c_level
        lo[todo[up]], f_lo[todo[up]], d_lo[todo[up]] = mid[up], f[up], f[up] - c_level
        hi[todo[~up]], f_hi[todo[~up]], d_hi[todo[~up]] = mid[~up], f[~up], f[~up] - c_level
        # Illinois: an end kept for a second pass weighs half in the secant
        d_hi[todo[up & moved_lo[todo]]] *= 0.5
        d_lo[todo[~up & moved_hi[todo]]] *= 0.5
        moved_lo[todo], moved_hi[todo] = up, ~up
    t_lo, t_hi = kinks[rows, lo], kinks[rows, hi]
    roots = t_lo + (f_lo - c_level) / (f_lo - f_hi) * (t_hi - t_lo)
    f = _share(_ramp(g, delta, roots[:, None], out=frac), kernel)
    return roots, evals + count, float(np.max(np.abs(f - c_level), initial=0.0))


def intrinsic_gradient_of_level_set(G, phi, kernel, A, phi_alpha_values):
    """Gradient of the extracted graph via its defining function:
    -(X_2 f_alpha / X_1 f_alpha, ...) evaluated on the level set, at the
    shifts phi_alpha(a) of one table of g on the rows i(a).  One finite
    value per base point, or a :class:`ValidationError`."""
    A = check_base_points(A, G.base_dim)
    _check_finite(A)
    phi_alpha_values = np.asarray(phi_alpha_values, dtype=float)
    if phi_alpha_values.shape != A.shape[:-1]:
        raise DimensionMismatch(f"need one phi_alpha value per base point, shape "
                                f"{A.shape[:-1]}, got {phi_alpha_values.shape}")
    if not np.all(np.isfinite(phi_alpha_values)):
        raise ValidationError("phi_alpha values must be finite")
    grad = _gradient_at_shifts(G, phi, kernel, graph_point(G, A.reshape(-1, G.base_dim), 0.0),
                               phi_alpha_values.reshape(-1, 1))
    return _restore(_graph_gradient(grad[:, 0], grad[:, 1:]), A.shape[:-1])


def approximation_report(G, phi, alpha_list, c_level=0.5, grid_per_axis=32,
                         points_per_axis=16):
    """Convergence table of the smoothing pipeline.

    Per alpha: sup|phi_alpha - phi| on a base grid, the rate ratio
    sup/alpha, sup|grad of the approximant| on every (N // 256)-th of the
    grid's N points (``GRADIENT_SAMPLES``; all of them when N < 512), the
    point-evaluations of f_alpha spent on the level set and its final
    max |f - c|.
    PASS requires the rate ratios to stay within ``RATE_FACTOR`` of each
    other (ratios at most ``RATE_NOISE_FLOOR`` qualify as flat) and the
    gradient sup not to exceed the measured sup of phi's intrinsic gradient
    by more than ``GRADIENT_ALLOWANCE``.
    """
    rule = "alpha must be positive and finite"
    try:
        alphas = sorted(_kernel_alpha(G, al) for al in alpha_list)
    except TypeError:
        raise ValidationError(f"{rule}, got {alpha_list!r}") from None
    if not alphas:
        raise ValidationError("alpha_list must hold at least one alpha")
    _check_level(c_level)
    # one ramp argument per grid point and nonzero kernel node, checked
    # before anything is built; tensor_grid rejects a count below 1
    check_work_budget(max(grid_per_axis, 0) ** phi.domain.dim
                      * _nonzero_node_count(G, points_per_axis),
                      "the level-set ramp table", "point-node pairs")
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (grid_per_axis,) * phi.domain.dim)
    phi_vals = phi.eval_extended(A)
    w_inf = float(np.max(np.linalg.norm(intrinsic_gradient(G, phi, A), axis=-1)))
    stride = max(1, len(A) // GRADIENT_SAMPLES)
    P = graph_point(G, A, 0.0)
    rows = []
    for alpha in alphas:
        kernel = MollifierKernel(G, alpha, points_per_axis=points_per_axis)
        pa, grad = np.empty(len(A)), []
        section_evals, level_residual = 0, 0.0
        # one walk over the table of g on the rows i(a): each block's roots,
        # then the level set's gradient at i(a) * (phi_alpha(a) e1) on the
        # block's rows of the subsample, every stride-th grid point
        for block, *table in _ramp_table(G, phi, kernel, P, _GRADIENT_OPS_LIMIT):
            roots, evals, residual = _section_roots(kernel, c_level, table[2])
            pa[block] = roots
            section_evals += evals
            level_residual = max(level_residual, residual)
            pick = slice(-block.start % stride, None, stride)
            grad.append(_shifted_gradient(G, phi, kernel, table, roots[pick, None], pick))
        sup_err = float(np.max(np.abs(pa - phi_vals)))
        grad = np.concatenate(grad)
        grad = _graph_gradient(grad[:, 0], grad[:, 1:])
        grad_sup = float(np.max(np.linalg.norm(grad, axis=-1)))
        rows.append({
            "alpha": alpha,
            "sup_error": sup_err,
            "rate_ratio": sup_err / alpha,
            "gradient_sup": grad_sup,
            "section_evals": section_evals,
            "max_level_residual": level_residual,
        })
    ratios = [r["rate_ratio"] for r in rows]
    at_noise_floor = max(ratios) <= RATE_NOISE_FLOOR
    rate_ok = at_noise_floor or (max(ratios) <= RATE_FACTOR * min(ratios))
    grad_ok = all(r["gradient_sup"] <= GRADIENT_ALLOWANCE * max(w_inf, 1e-12)
                  for r in rows)
    return {
        "rows": rows,
        "w_inf_measured": w_inf,
        "c_level": c_level,
        "grid_per_axis": grid_per_axis,
        "rate_bounded": bool(rate_ok),
        "rate_at_noise_floor": bool(at_noise_floor),
        "gradient_bounded": bool(grad_ok),
        "passed": bool(rate_ok and grad_ok),
    }


def horizontal_gradient_mass(G, phi, kernel, base_per_axis=12):
    """int over base O and graph coordinate t of |grad_G f_alpha|, by the
    midpoint rule on ``base_per_axis`` nodes per base axis and 48 nodes in t
    per base column a, on the window |t - phi(a)| <= half that holds the
    integrand's support (the module docstring's gradient mass).

    Returns ``mass``, ``window_halfwidth`` (half) and ``edge_gradient_max``,
    the largest |grad_G f_alpha| on the window's two end nodes, exactly 0.
    The table's point-node pairs (base nodes times nonzero kernel nodes) go
    through the work budget before it is built, so the default call on
    heisenberg(2), 12^4 x 325,632 pairs, is a :class:`GridTooLarge` error.
    """
    A, cell_base = midpoint_rule(phi.domain.lo, phi.domain.hi, base_per_axis)
    check_work_budget(len(A) * kernel._conv_weights.size,
                      "the gradient-mass ramp table", "point-node pairs")
    phi_vals = phi.eval_extended(A)
    if not np.all(np.isfinite(phi_vals)):
        raise NonFiniteState("phi is not finite at a base node of the gradient mass")
    P = graph_point(G, A, 0.0)
    spread = max(float(np.max(np.abs(g - phi_vals[rows, None])))
                 for rows, *_, g in _ramp_table(G, phi, kernel, P))
    t_points = 48
    reach = spread + 0.5 * kernel.subcell_width + kernel.alpha * _SLOPE_STEP
    # R widened by a relative 1e-12, so that the rounding of the shifts
    # phi(a) -+ R cannot bring an end node's ramps off their saturated values
    half = reach * (1.0 + 1e-12) * t_points / (t_points - 1)
    dt = 2.0 * half / t_points
    grad = _sliced_gradient(G, phi, kernel, P, phi_vals - half + 0.5 * dt, dt, t_points)
    mags = np.linalg.norm(grad, axis=-1)
    return {"mass": float(np.sum(mags)) * dt * cell_base, "window_halfwidth": half,
            "edge_gradient_max": float(np.max(mags[:, [0, -1]]))}
