"""Smooth approximation of intrinsic Lipschitz graphs by group convolution.

Pipeline: mollify the subgraph indicator with a symmetric smooth kernel
supported in the homogeneous ball of radius alpha,

    f_alpha(p) = int rho_alpha(u) chi_E(u^{-1} p) du,

extract the level set {f_alpha = c} as a graph over the base (the section
t -> f_alpha(i(a) * (t e1)) is monotone), and report the measured
convergence rate sup|phi_alpha - phi| / alpha together with the intrinsic
gradient bound of the approximants.

Numerical notes.  The kernel integral uses a fixed midpoint grid on the
kernel support; the indicator is replaced per node by a subcell volume
fraction (clipped linear ramp over one grid cell), the standard second-order
level-set treatment.  This keeps f_alpha continuous in p, so that the
level-set root finder and the frame-directional finite differences behave.
The convolution runs over the grid nodes of nonzero weight only (a node
outside the open support adds exactly zero) and returns the weighted share
of the kernel below the graph, below / (below + above), which is exactly 1
deep inside the subgraph and exactly 0 far above it.  u^{-1} p is split by
the splitting module's helper, from node terms computed once per kernel,
into base coordinates that phi reads with contiguous columns; the ramp is
formed in place.  The layout changes no value: each point's sums add the
same terms in the same order.

Right multiplication by an element of V = <e1> moves only the V-part of
the splitting G = W * V: u^-1 p (s e1) has the base of u^-1 p and a graph
coordinate larger by s.  So the ramp argument g = phi(base) - t of each
(point, node) pair, built from one split and one phi evaluation, serves
every point p * (s e1) as g - s.  The level-set root finder splits once per
section, on i(a), and each sweep forms only the ramp share at its t; X_1
f_alpha reads both of its difference points off one g.  The kernel is
normalized so the dilated family integrates to one; beyond its box the graph
function is evaluated by analytic/clamped extension so lateral domain edges
do not bias the convolution.  Level sets are found by Illinois regula
falsi under a projection safeguard, at most one sweep per root beyond
bisection's count and, on the pipeline's cases, about half of it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import group as gp
from .calculus import intrinsic_gradient
from .errors import (
    BracketFailure,
    DegenerateHorizontalGradient,
    QuadratureUnderflow,
    ValidationError,
)
from .quadrature import check_work_budget, tensor_grid
from .splitting import _anchor_terms, _split, graph_point

_MAX_ROOT_SWEEPS = 200
_BATCH_OPS_LIMIT = 2 ** 21

# The level-set root finder stops only once |f_alpha - c| is below this.
LEVEL_RESIDUAL_TOL = 1e-3
# approximation_report passes when the rate ratios sup|phi_alpha - phi| / alpha
# stay within RATE_FACTOR of each other and the approximants' gradient sup
# stays within GRADIENT_ALLOWANCE of the measured sup of phi's gradient.
RATE_FACTOR = 2.0
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


def _node_chunks(kernel, count):
    """Ranges of nonzero kernel nodes holding at most ``_BATCH_OPS_LIMIT``
    point-node pairs for ``count`` points."""
    chunk = max(1, _BATCH_OPS_LIMIT // max(count, 1))
    size = kernel._conv_weights.size
    return [(start, min(start + chunk, size)) for start in range(0, size, chunk)]


def _ramp_arguments(G, phi, kernel, P, start, stop, out=None):
    """g = phi(base(u^-1 p)) - t(u^-1 p) for every row p of P and every
    nonzero node u start..stop-1, as a (P, stop - start) array written to
    ``out`` if given: one split and one phi evaluation per (point, node).
    g at p * (s e1) is g at p minus s (module docstring)."""
    base, t = _split(G, kernel._conv_terms, P, start, stop)
    # a fresh array (or out), so that phi's own result is never written
    return np.subtract(phi.eval_extended(base), t, out=out)


def _ramp_sums(g, w, delta, shift, out=None):
    """The kernel weight below and above the graph at p * (shift e1), from
    the ramp arguments g at p: sum_k w_k r_k and sum_k w_k (1 - r_k) with
    the ramp r = clip((g - shift)/delta + 1/2, 0, 1) formed in place in
    ``out`` (default a fresh array).  ``shift`` is a scalar or one value per
    row of g; a shift of 0 leaves g bitwise as it is."""
    frac = np.subtract(g, np.reshape(shift, (-1, 1)), out=out)
    frac /= delta
    frac += 0.5
    np.clip(frac, 0.0, 1.0, out=frac)
    below = frac @ w
    np.subtract(1.0, frac, out=frac)
    return below, frac @ w


def _shifted_indicator(G, phi, kernel, P, shifts):
    """f_alpha(p * (s e1)) for every row p of P, one row of the result per
    shift s in ``shifts`` (each a scalar or one value per point), from one
    set of ramp arguments per node chunk however many shifts there are."""
    delta = kernel.subcell_width
    below = np.zeros((len(shifts), P.shape[0]))
    above = np.zeros_like(below)
    for start, stop in _node_chunks(kernel, P.shape[0]):
        w = kernel._conv_weights[start:stop]
        g = _ramp_arguments(G, phi, kernel, P, start, stop)
        # one buffer for every ramp of the chunk; g's own for a single shift
        frac = g if len(shifts) == 1 else np.empty_like(g)
        for i, s in enumerate(shifts):
            b, a = _ramp_sums(g, w, delta, s, out=frac)
            below[i] += b
            above[i] += a
    # the share of kernel weight below the graph: exactly 1 (0) where every
    # node is below (above) it, and in [0, 1] whatever the rounding
    return below / (below + above)


def mollified_indicator(G, phi, kernel, p):
    """f_alpha at point(s) p: the group convolution of the subgraph
    indicator, in [0, 1], nonincreasing in the graph coordinate.  The
    kernel must be built on G: it carries the bracket terms of its nodes."""
    p = np.asarray(p, dtype=float)
    out = _shifted_indicator(G, phi, kernel, np.atleast_2d(p), (0.0,))[0]
    return float(out[0]) if p.ndim == 1 else out


def _frame_gradient(G, phi, kernel, P, x1_pair, h):
    """(X_1 f_alpha, ..., X_m f_alpha) at the rows of P by frame-directional
    central differences with step h:
    X_j f(p) ~ [f(p * (h e_j)) - f(p * (-h e_j))] / 2h.
    X_1 comes from the caller's pair (f(p * (h e1)), f(p * (-h e1))), read
    off shared ramp arguments; right multiplication by e_j, j >= 2, moves
    the base of u^-1 p, so each X_j beyond X_1 takes two full convolutions."""
    fwd, bwd = x1_pair
    cols = [(fwd - bwd) / (2.0 * h)]
    for j in range(1, G.m):
        step = np.zeros(G.dim)
        step[j] = h
        cols.append((mollified_indicator(G, phi, kernel, gp.multiply(G, P, step))
                     - mollified_indicator(G, phi, kernel, gp.multiply(G, P, -step)))
                    / (2.0 * h))
    return np.stack(cols, axis=-1)


def horizontal_gradient_mollified(G, phi, kernel, p):
    """(X_1 f_alpha, ..., X_m f_alpha) at p by frame-directional central
    differences with step h = alpha / 64:
    X_j f(p) ~ [f(p * (h e_j)) - f(p * (-h e_j))] / 2h."""
    p = np.asarray(p, dtype=float)
    P = np.atleast_2d(p)
    h = kernel.alpha / 64.0
    out = _frame_gradient(G, phi, kernel, P,
                          _shifted_indicator(G, phi, kernel, P, (h, -h)), h)
    return out[0] if p.ndim == 1 else out


def _sup_abs_extended(G, phi, kernel):
    """sup |phi| padded by the kernel's base reach (two-pass estimate)."""
    a = kernel.alpha
    m0 = phi.sup_abs()
    x_max = float(np.max(np.abs(phi.domain.hi[:G.m - 1]))
                  + np.max(np.abs(phi.domain.lo[:G.m - 1]))) + a
    p1_max = np.hypot(2 * m0 + 1, x_max)
    y_pad = a * a / G.epsilon ** 2 + 0.5 * G.b_max * a * p1_max
    pad = max(a, y_pad)
    return phi.sup_abs(padding=pad)


def level_set_phi_alpha(G, phi, kernel, c_level, a, t_tol=None):
    """phi_alpha(a): the root in t of f_alpha(i(a) * (t e1)) = c, batched
    over the base points (see ``_section_roots``).

    Iterates until the bracket is below ``t_tol`` (default the documented
    1e-3 (4M+2)) and the residual |f - c| is below ``LEVEL_RESIDUAL_TOL``;
    the latter pins the root error to the local slope scale, which is
    proportional to alpha, so measured convergence rates stay meaningful.
    """
    a = np.asarray(a, dtype=float)
    roots, _, _ = _section_roots(G, phi, kernel, c_level, np.atleast_2d(a), t_tol)
    return float(roots[0]) if a.ndim == 1 else roots


def _section_roots(G, phi, kernel, c_level, A, t_tol):
    """Roots of the sections t -> f_alpha(i(a) * (t e1)) - c over the rows
    of A, with the point-evaluations of f_alpha spent and the final
    max |f - c|.

    Illinois regula falsi (Dowell & Jarratt 1971) on a bracket [lo, hi]
    with f(lo) > c >= f(hi), f being nonincreasing in t; only the base
    points not yet converged are evaluated.  Two safeguards bound the
    sweeps.  Sweep j projects the interpolant onto the ball of radius
    t_tol 2^(n + 1 - j) - width/2 about the midpoint, n being bisection's
    sweep count to t_tol, so the width after sweep j is at most
    t_tol 2^(n + 1 - j): up to rounding, one sweep beyond bisection's at
    worst (the projection of the ITP method, Oliveira & Takahashi 2020,
    with one sweep of slack).  And the point keeps a quarter of
    min(t_tol, width) off either end, so an estimate at the root lands
    beyond it and closes the bracket.  Each root is the end of its final
    bracket with the smaller |f - c|: within t_tol of the crossing even
    where f stays at c over an interval.

    The points i(a) * (t e1) differ from i(a) by a right factor in V, so
    the ramp arguments g are built once on the rows i(a), len(A) x K
    doubles, and a sweep forms only the ramp share at shift t on the
    rows still active.
    """
    if not (0.0 < c_level < 1.0):
        raise ValidationError("level c must lie in (0, 1)")
    M = _sup_abs_extended(G, phi, kernel)
    count = A.shape[0]
    lo = np.full(count, -2.0 * M - 1.0)
    hi = np.full(count, 2.0 * M + 1.0)
    if t_tol is None:
        t_tol = 1e-3 * (4.0 * M + 2.0)

    w, delta = kernel._conv_weights, kernel.subcell_width
    # the ramp arguments of the active rows, in the order of ``active``
    g = np.empty((count, w.size))
    base_points = graph_point(G, A, 0.0)
    for start, stop in _node_chunks(kernel, count):
        _ramp_arguments(G, phi, kernel, base_points, start, stop,
                        out=g[:, start:stop])

    def section(tvals):
        below, above = _ramp_sums(g, w, delta, tvals)
        return below / (below + above) - c_level

    active = np.arange(count)
    f_lo = section(lo)
    f_hi = section(hi)
    evals = 2 * count
    if np.any(f_lo <= 0.0) or np.any(f_hi >= 0.0):
        raise BracketFailure(
            "section does not straddle the level; quadrature too coarse "
            "or bracket too narrow")
    # |f - c| at the ends; f_lo and f_hi carry the Illinois scaling
    r_lo, r_hi = np.abs(f_lo), np.abs(f_hi)
    n_bisect = np.ceil(np.log2((4.0 * M + 2.0) / t_tol))
    # the end replaced by the previous sweep: -1 lo, +1 hi, 0 none yet
    last = np.zeros(count, dtype=np.int8)
    for sweep in range(1, _MAX_ROOT_SWEEPS + 1):
        l, h, fl, fh = lo[active], hi[active], f_lo[active], f_hi[active]
        width = h - l
        mid = 0.5 * (l + h)
        x = l + width * (fl / (fl - fh))
        r = np.maximum(t_tol * 2.0 ** (n_bisect + 1 - sweep) - 0.5 * width, 0.0)
        x = np.clip(x, mid - r, mid + r)
        keep_off = 0.25 * np.minimum(t_tol, width)
        x = np.clip(x, l + keep_off, h - keep_off)
        fx = section(x)
        evals += active.size
        resid = np.abs(fx)
        up = fx > 0.0                    # root lies above x: x replaces lo
        side = np.where(up, -1, 1).astype(np.int8)
        # Illinois: the same end replaced twice running halves the value
        # kept at the other end
        scale = np.where(last[active] == side, 0.5, 1.0)
        lo[active] = np.where(up, x, l)
        hi[active] = np.where(up, h, x)
        f_lo[active] = np.where(up, fx, fl * scale)
        f_hi[active] = np.where(up, fh * scale, fx)
        r_lo[active] = np.where(up, resid, r_lo[active])
        r_hi[active] = np.where(up, r_hi[active], resid)
        last[active] = side
        done = ((hi[active] - lo[active] <= t_tol)
                & (np.minimum(r_lo[active], r_hi[active]) <= LEVEL_RESIDUAL_TOL))
        active = active[~done]
        if active.size == 0:
            break
        if np.any(done):
            g = g[~done]
    else:
        raise BracketFailure(
            f"level-set root finder did not reach |f - c| <= "
            f"{LEVEL_RESIDUAL_TOL}; quadrature too coarse")
    roots = np.where(r_hi < r_lo, hi, lo)
    return roots, evals, float(np.max(np.minimum(r_lo, r_hi)))


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
    other (errors at the root-finder resolution qualify as flat) and the
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
    noise_floor = 0.0
    for alpha in alphas:
        kernel = MollifierKernel(G, alpha, points_per_axis=points_per_axis)
        t_tol = 1e-6 * alpha
        noise_floor = max(noise_floor, 50.0 * t_tol / alpha)
        pa, section_evals, level_residual = _section_roots(
            G, phi, kernel, c_level, A, t_tol)
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
    at_noise_floor = max(ratios) <= noise_floor
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
    # the gradient of horizontal_gradient_mollified; X_1 on every slice is
    # read off one set of ramp arguments on the rows i(a)
    h = a / 64.0
    ts = [phi_vals - half + (k + 0.5) * dt for k in range(t_points)]
    x1_pairs = _shifted_indicator(G, phi, kernel, graph_point(G, A, 0.0),
                                  [s for t in ts for s in (t + h, t - h)])
    total = 0.0
    edge_max = 0.0
    for k, t in enumerate(ts):
        grad = _frame_gradient(G, phi, kernel, graph_point(G, A, t),
                               x1_pairs[2 * k:2 * k + 2], h)
        mags = np.linalg.norm(grad, axis=-1)
        if k == 0 or k == t_points - 1:
            edge_max = max(edge_max, float(np.max(mags)))
        total += float(np.sum(mags)) * dt * cell_base
    return {"mass": total, "window_halfwidth": half, "edge_gradient_max": edge_max}
