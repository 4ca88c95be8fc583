"""Smooth approximation of intrinsic Lipschitz graphs by group convolution.

Pipeline: mollify the subgraph indicator with a symmetric smooth kernel
supported in the homogeneous ball of radius alpha,

    f_alpha(p) = int rho_alpha(u) chi_E(u^{-1} p) du,

extract the level set {f_alpha = c} as a graph over the base (the section
t -> f_alpha(i(a) * (t e1)) is monotone), and report the measured
convergence rate sup|phi_alpha - phi| / alpha together with the intrinsic
gradient bound of the approximants.

Numerical notes.  The kernel integral is a midpoint grid on the kernel
support, normalized to unit mass, over its nonzero-weight nodes u_k.  The
indicator becomes per node a subcell volume fraction, the ramp
r_k = clip(g_k/delta + 1/2, 0, 1) over one grid cell delta of the ramp
argument g_k = phi(base(u_k^-1 p)) - t(u_k^-1 p), and f_alpha is the share
of kernel weight below the graph, below / (below + above): exactly 1 deep
inside the subgraph, exactly 0 far above it (phi read through its
extension beyond its box).  Right multiplication by s e1 moves only the
V-part of the splitting G = W * V, so g at p * (s e1) is g at p minus s,
and one table of g per batch of points (one split and one phi evaluation
per point and node) serves:

* the level set.  A section f(t) = sum_k w_k r_k(g_k - t) / sum w is
  nonincreasing and linear between its 2K kinks g_k -+ delta/2, 1 at the
  first and 0 at the last.  A binary search over the sorted kinks reaches
  the piece that crosses c in at most ceil(log2(2K - 1)) passes over the
  table; the secant on it is the exact root, and where f equals c over an
  interval the root is its left end, inf{t : f <= c}.  ``section_evals``
  counts the evaluations of f read off the table, including one pass at
  the roots that measures |f - c|.
* the gradient.  Right multiplication by h e_j, j >= 2, keeps t and moves
  the base along e_j + sum_s c_s e_{y_s}, with the frozen coefficients c_s
  of calculus taken at t in place of phi(base).  So X_j g is the intrinsic
  gradient of phi at the split base frozen at t (D_j phi where g = 0), and
  X_1 g = -1.  With the ramp slopes averaged over h = alpha/64,
  beta = [r(g + h) - r(g - h)] / 2h, X_j f_alpha = sum_k w_k beta_k X_j g_k
  / sum w, a kernel mean of the intrinsic gradient over the ramp band; X_1
  f_alpha is the central difference along e1.  A node with g on a kink
  -+delta/2 gets half the weight of one inside the band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .calculus import _intrinsic_gradient, intrinsic_gradient
from .errors import (
    DegenerateHorizontalGradient,
    NonFiniteState,
    QuadratureUnderflow,
    ValidationError,
)
from .quadrature import check_work_budget, tensor_grid
from .splitting import _anchor_terms, _split, graph_point

_BATCH_OPS_LIMIT = 2 ** 21
# the gradient holds several (point, node, coordinate) arrays per chunk
_GRADIENT_OPS_LIMIT = 2 ** 16

# approximation_report passes when the rate ratios sup|phi_alpha - phi| / alpha
# stay within RATE_FACTOR of each other, or all lie at or below
# RATE_NOISE_FLOOR, and the approximants' gradient sup stays within
# GRADIENT_ALLOWANCE of the measured sup of phi's gradient.
RATE_FACTOR = 2.0
RATE_NOISE_FLOOR = 5e-5
GRADIENT_ALLOWANCE = 1.10


def _bump(t):
    """exp(-1/(1-t)) on t < 1, extended by zero; smooth on the real line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
    return out


@functools.cache
def _radial_mass(dim):
    """int_{R^dim} exp(-1/(1-|x|^2)) dx via the radial representation,
    memoised: each kernel needs it for its two block dimensions."""
    from scipy.integrate import quad
    from scipy.special import gamma as gamma_fn

    surface = 2.0 * np.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)
    val, _ = quad(lambda r: _bump(r * r) * r ** (dim - 1), 0.0, 1.0, limit=200)
    return surface * val


def _kernel_points_per_axis(points_per_axis):
    k = int(points_per_axis)
    if k < 4:
        raise QuadratureUnderflow(
            f"kernel needs at least 4 points per axis, got {k}")
    return k


def _nonzero_node_count(G, points_per_axis):
    """The nonzero-weight nodes of a kernel with ``points_per_axis`` nodes
    per axis, counted without building it: the profile is a horizontal bump
    times a vertical bump, so the count is the product of each bump's
    nonzero nodes on its unit-ball grid, k^m and k^n nodes."""
    k = _kernel_points_per_axis(points_per_axis)

    def nonzero(dim):
        pts = tensor_grid(np.full(dim, -1.0), np.full(dim, 1.0), (k,) * dim)
        return int(np.count_nonzero(_bump(np.sum(pts * pts, axis=-1))))

    return nonzero(G.m) * nonzero(G.n)


@dataclass
class MollifierKernel:
    """Symmetric smooth kernel on the homogeneous ball of radius alpha.

    Unit-ball profile rho(x, y) = C exp(-1/(1-|x|^2)) exp(-1/(1-eps^4|y|^2)),
    dilated by (x, y) -> (x/a, y/a^2); rho(-p) = rho(p) because both factors
    are even, and the support is exactly {max(|x|, eps |y|^(1/2)) < a}.
    ``points_per_axis`` fixes the midpoint quadrature grid on the support
    box [-a, a]^m x [-a^2/eps^2, a^2/eps^2]^n; ``nodes`` and ``weights``
    hold the whole grid, and the convolution uses its nonzero-weight nodes.
    """

    G: object
    alpha: float
    points_per_axis: int = 16
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    raw_mass: float = field(init=False)
    normalizer: float = field(init=False)
    subcell_width: float = field(init=False)
    # convolution set: the nonzero-weight nodes u, their weights, and their
    # terms in every split of u^{-1} p
    _conv_nodes: np.ndarray = field(init=False, repr=False)
    _conv_weights: np.ndarray = field(init=False, repr=False)
    _conv_terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        G = self.G
        a = float(self.alpha)
        if not (np.isfinite(a) and a > 0):
            raise ValidationError(f"alpha must be positive and finite, got {a}")
        k = _kernel_points_per_axis(self.points_per_axis)
        y_half = a * a / G.epsilon ** 2
        half = np.array([a] * G.m + [y_half] * G.n)
        nodes = tensor_grid(-half, half, (k,) * G.dim)
        cell = float(np.prod(2.0 * half / k))
        # continuum normalizer: the profile factorizes into two radial bumps
        z = _radial_mass(G.m) * _radial_mass(G.n) / G.epsilon ** (2 * G.n)
        rho = self._profile(nodes) / z / a ** G.homogeneous_dimension
        raw = rho * cell
        self.raw_mass = float(np.sum(raw))
        # normalized discrete weights: deep-inside convolutions evaluate to 1
        self.weights = raw / self.raw_mass
        self.nodes = nodes
        self.normalizer = 1.0 / z
        self.subcell_width = 2.0 * a / k
        keep = self.weights > 0.0
        self._conv_nodes = nodes[keep]
        self._conv_weights = self.weights[keep]
        self._conv_terms = _anchor_terms(G, self._conv_nodes)

    def _profile(self, p):
        """Unnormalized profile of rho(delta_{1/alpha} p)."""
        G, a = self.G, self.alpha
        x = p[..., :G.m] / a
        y = p[..., G.m:] / a ** 2
        return _bump(np.sum(x * x, axis=-1)) * \
            _bump(G.epsilon ** 4 * np.sum(y * y, axis=-1))

    def mass(self, points_per_axis=48):
        """Integral of rho_alpha on an independent grid (should be ~1).

        The profile factorizes into horizontal and vertical bumps, so the
        two blocks are integrated on separate tensor grids.  Each block is
        radial and its midpoint axis symmetric about 0, so every axis is
        folded onto its nonnegative nodes: multiplicity 2, or 1 for the node
        at 0 of an odd count.
        """
        G, a = self.G, self.alpha
        k = points_per_axis
        count = (k + 1) // 2
        mult = np.full(count, 2.0)
        if k % 2:
            mult[0] = 1.0

        def block(dim, half, scale):
            cell = 2.0 * half / k
            # the nonnegative midpoints of [-half, half] split into k cells
            pts = tensor_grid(np.full(dim, half - count * cell), np.full(dim, half),
                              (count,) * dim)
            weight = mult
            for _ in range(dim - 1):
                weight = np.multiply.outer(weight, mult)
            vals = _bump(scale * np.sum(pts * pts, axis=-1))
            return float(vals @ weight.reshape(-1)) * cell ** dim

        ix = block(G.m, a, 1.0 / a ** 2)
        iy = block(G.n, a * a / G.epsilon ** 2, G.epsilon ** 4 / a ** 4)
        return ix * iy * self.normalizer / a ** G.homogeneous_dimension


def _node_chunks(kernel, count, limit=None):
    """Ranges of nonzero kernel nodes holding at most ``limit`` (default
    ``_BATCH_OPS_LIMIT``) point-node pairs for ``count`` points."""
    limit = _BATCH_OPS_LIMIT if limit is None else limit
    chunk = max(1, limit // max(count, 1))
    size = kernel._conv_weights.size
    return [(start, min(start + chunk, size)) for start in range(0, size, chunk)]


def _ramp_arguments(G, phi, kernel, P, start, stop, out=None):
    """g = phi(base(u^-1 p)) - t(u^-1 p) for every row p of P and every
    nonzero node u start..stop-1, as a (P, stop - start) array written to
    ``out`` if given: one split and one phi evaluation per (point, node)."""
    base, t = _split(G, kernel._conv_terms, P, start, stop)
    # a fresh array (or out), so that phi's own result is never written
    return np.subtract(phi.eval_extended(base), t, out=out)


def _ramp(g, delta, shift, out=None):
    """The ramps r = clip((g - shift)/delta + 1/2, 0, 1) at p * (shift e1),
    formed in ``out`` (default a fresh array); ``shift`` is a scalar or one
    value per row of g, and a shift of 0 leaves g bitwise as it is."""
    frac = np.subtract(g, np.reshape(shift, (-1, 1)), out=out)
    frac /= delta
    frac += 0.5
    return np.clip(frac, 0.0, 1.0, out=frac)


def _ramp_sums(g, w, delta, shift, out=None):
    """The kernel weight below and above the graph at p * (shift e1):
    sum_k w_k r_k and sum_k w_k (1 - r_k), the ramps formed in ``out``."""
    frac = _ramp(g, delta, shift, out=out)
    below = frac @ w
    np.subtract(1.0, frac, out=frac)
    return below, frac @ w


def mollified_indicator(G, phi, kernel, p):
    """f_alpha at point(s) p: the group convolution of the subgraph
    indicator, in [0, 1], nonincreasing in the graph coordinate.  The
    kernel must be built on G: it carries the bracket terms of its nodes."""
    p = np.asarray(p, dtype=float)
    P = np.atleast_2d(p)
    below = np.zeros(P.shape[0])
    above = np.zeros_like(below)
    for start, stop in _node_chunks(kernel, P.shape[0]):
        g = _ramp_arguments(G, phi, kernel, P, start, stop)
        b, a = _ramp_sums(g, kernel._conv_weights[start:stop],
                          kernel.subcell_width, 0.0, out=g)
        below += b
        above += a
    # the share of kernel weight below the graph: exactly 1 (0) where every
    # node is below (above) it, and in [0, 1] whatever the rounding
    out = below / (below + above)
    return float(out[0]) if p.ndim == 1 else out


def horizontal_gradient_mollified(G, phi, kernel, p):
    """(X_1 f_alpha, ..., X_m f_alpha) at p: the ramp slopes beta weight
    X_j g of every (point, node) pair, from one split (module docstring)."""
    p = np.asarray(p, dtype=float)
    P = np.atleast_2d(p)
    h, delta = kernel.alpha / 64.0, kernel.subcell_width
    out = np.zeros((P.shape[0], G.m))
    for start, stop in _node_chunks(kernel, P.shape[0], _GRADIENT_OPS_LIMIT):
        base, t = _split(G, kernel._conv_terms, P, start, stop)
        g = np.subtract(phi.eval_extended(base), t)
        # 2h w_k beta_k, the second ramp formed in g's own buffer
        beta = _ramp(g, delta, -h)
        beta -= _ramp(g, delta, h, out=g)
        beta *= kernel._conv_weights[start:stop]
        out[:, 0] -= np.sum(beta, axis=-1)
        xg = _intrinsic_gradient(G, phi, base, t)
        out[:, 1:] += np.matmul(beta[:, None, :], xg)[:, 0]
    out /= 2.0 * h * np.sum(kernel._conv_weights)
    return out[0] if p.ndim == 1 else out


def level_set_phi_alpha(G, phi, kernel, c_level, a):
    """phi_alpha(a): the root in t of f_alpha(i(a) * (t e1)) = c, batched
    over the base points (see ``_section_roots``).  Where f_alpha equals c
    over an interval of t, the root is the interval's left end."""
    a = np.asarray(a, dtype=float)
    roots, _, _ = _section_roots(G, phi, kernel, c_level, np.atleast_2d(a))
    return float(roots[0]) if a.ndim == 1 else roots


def _section_roots(G, phi, kernel, c_level, A):
    """Roots inf{t : f_alpha(i(a) * (t e1)) <= c} over the rows a of A, the
    point evaluations of f_alpha spent and max |f - c| at the roots, from
    one table of g on the rows i(a) (module docstring)."""
    if not (0.0 < c_level < 1.0):
        raise ValidationError("level c must lie in (0, 1)")
    count, size = A.shape[0], kernel._conv_weights.size
    w, delta = kernel._conv_weights, kernel.subcell_width
    g = np.empty((count, size))
    base_points = graph_point(G, A, 0.0)
    for start, stop in _node_chunks(kernel, count):
        _ramp_arguments(G, phi, kernel, base_points, start, stop,
                        out=g[:, start:stop])
    if not np.all(np.isfinite(g)):
        raise NonFiniteState("phi is not finite within the kernel's reach of a section")
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
    frac = np.empty_like(g)
    evals = 0
    while True:
        todo = np.flatnonzero(hi - lo > 1)
        if todo.size == 0:
            break
        mid = (lo[todo] + hi[todo]) // 2
        below, above = _ramp_sums(g if todo.size == count else g[todo], w, delta,
                                  kinks[todo, mid], out=frac[:todo.size])
        f = below / (below + above)
        evals += todo.size
        up = f > c_level
        lo[todo[up]], f_lo[todo[up]] = mid[up], f[up]
        hi[todo[~up]], f_hi[todo[~up]] = mid[~up], f[~up]
    t_lo, t_hi = kinks[rows, lo], kinks[rows, hi]
    roots = t_lo + (f_lo - c_level) / (f_lo - f_hi) * (t_hi - t_lo)
    below, above = _ramp_sums(g, w, delta, roots, out=frac)
    residual = float(np.max(np.abs(below / (below + above) - c_level)))
    return roots, evals + count, residual


def intrinsic_gradient_of_level_set(G, phi, kernel, A, phi_alpha_values):
    """Gradient of the extracted graph via its defining function:
    -(X_2 f_alpha / X_1 f_alpha, ...) evaluated on the level set."""
    pts = graph_point(G, A, phi_alpha_values)
    grad = horizontal_gradient_mollified(G, phi, kernel, pts)
    x1f = grad[..., 0]
    if np.any(np.abs(x1f) <= 1e-14):
        raise DegenerateHorizontalGradient(
            "X_1 f_alpha vanishes on the extracted level set")
    return -grad[..., 1:] / x1f[..., None]


def approximation_report(G, phi, alpha_list, c_level=0.5, grid_per_axis=32,
                         points_per_axis=16, gradient_samples=256):
    """Convergence table of the smoothing pipeline.

    Per alpha: sup|phi_alpha - phi| on a base grid, the rate ratio
    sup/alpha, sup|grad of the approximant| on a subsample of the grid, the
    point-evaluations of f_alpha spent on the level set and its final
    max |f - c|.
    PASS requires the rate ratios to stay within ``RATE_FACTOR`` of each
    other (ratios at most ``RATE_NOISE_FLOOR`` qualify as flat) and the
    gradient sup not to exceed the measured sup of phi's intrinsic gradient
    by more than ``GRADIENT_ALLOWANCE``.
    """
    alphas = sorted(float(al) for al in alpha_list)
    if not alphas:
        raise ValidationError("alpha_list must hold at least one alpha")
    if grid_per_axis < 1:
        raise ValidationError(f"grid_per_axis must be at least 1, got {grid_per_axis}")
    # the root finder keeps one ramp argument per grid point and nonzero
    # kernel node; checked before any grid, gradient or kernel is built
    check_work_budget(grid_per_axis ** phi.domain.dim
                      * _nonzero_node_count(G, points_per_axis),
                      "the level-set ramp table", "point-node pairs")
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (grid_per_axis,) * phi.domain.dim)
    phi_vals = phi.eval_extended(A)
    w_inf = float(np.max(np.linalg.norm(intrinsic_gradient(G, phi, A), axis=-1)))
    sub = A[:: max(1, len(A) // gradient_samples)]
    rows = []
    for alpha in alphas:
        kernel = MollifierKernel(G, alpha, points_per_axis=points_per_axis)
        pa, section_evals, level_residual = _section_roots(
            G, phi, kernel, c_level, A)
        sup_err = float(np.max(np.abs(pa - phi_vals)))
        pa_sub = pa[:: max(1, len(A) // gradient_samples)]
        grad = intrinsic_gradient_of_level_set(G, phi, kernel, sub, pa_sub)
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


def _base_slope_bounds(G, phi, A):
    """Measured sup of |d phi / d xhat| and |d phi / dy| on the grid."""
    if phi.has_partials:
        g = phi.partials(A)
    else:
        g = np.empty(A.shape)
        for i in range(A.shape[1]):
            e = np.zeros(A.shape[1])
            e[i] = 1e-5
            g[:, i] = (phi.eval_extended(A + e) - phi.eval_extended(A - e)) / 2e-5
    lx = float(np.max(np.linalg.norm(g[:, :G.m - 1], axis=-1)))
    ly = float(np.max(np.linalg.norm(g[:, G.m - 1:], axis=-1)))
    return lx, ly


def horizontal_gradient_mass(G, phi, kernel, base_per_axis=12):
    """int over the slab {base in O, |t| < 2M} of |grad_G f_alpha|.

    The integrand vanishes exactly where the kernel ball misses the graph,
    so the t-integration is restricted per base column to a window around
    phi(a) of three times the kernel reach through the measured slopes of
    phi, on 48 midpoint nodes.
    """
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (base_per_axis,) * phi.domain.dim)
    phi_vals = phi.eval_extended(A)
    a = kernel.alpha
    lx, ly = _base_slope_bounds(G, phi, A)
    p1_max = np.hypot(float(np.max(np.abs(phi_vals))) + a,
                      float(np.max(np.abs(A[:, :G.m - 1]))) + a)
    reach = a * (1.0 + lx) + ly * (a * a / G.epsilon ** 2
                                   + 0.5 * G.b_max * a * p1_max)
    half = 3.0 * reach + 6.0 * kernel.subcell_width
    t_points = 48
    cell_base = float(np.prod((phi.domain.hi - phi.domain.lo) / base_per_axis))
    dt = 2.0 * half / t_points
    total = 0.0
    edge_max = 0.0
    for k in range(t_points):
        t = phi_vals - half + (k + 0.5) * dt
        grad = horizontal_gradient_mollified(G, phi, kernel, graph_point(G, A, t))
        mags = np.linalg.norm(grad, axis=-1)
        if k == 0 or k == t_points - 1:
            edge_max = max(edge_max, float(np.max(mags)))
        total += float(np.sum(mags)) * dt * cell_base
    return {"mass": total, "window_halfwidth": half, "edge_gradient_max": edge_max}
