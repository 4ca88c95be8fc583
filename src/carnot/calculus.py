"""Nonlinear intrinsic derivatives and distributional residuals.

The operators

    D_j = d/dx_j + sum_s (phi * b^(s)_{j1} + 1/2 sum_i x_i b^(s)_{ji}) d/dy_s

(j = 2..m) act on scalar functions of the base coordinates; in the first
Heisenberg group D_2 is the classical Burgers operator d/dx2 - phi d/dy.
Pointwise values use analytic partials when the function carries them and a
frozen-direction central difference otherwise.  The distributional residual
checks the integration-by-parts identity of the system D phi = w against
compactly supported bump test functions on a midpoint quadrature grid.  Its
integrand vanishes off the support ball |u| < 1 of the bump, u = (a -
center)/radius, so only the grid nodes with |u| < 1 are evaluated; the terms
are placed back at their nodes of the full grid and summed there, in the
dense grid's order, so the sum is bitwise the one over every node.

Every contraction with the B^(s) blocks walks the group's table of
nonzero entries b^(s)_jl (``group._walk``), one coordinate column per
entry, so no small matmul and no (points, m-1, n) array runs on a batch.
One private helper applies the frame d/dx_j + sum_s (value b^(s)_{j1} +
1/2 x-hat B^(s)_{j.}) d/dy_s to coordinate gradients for every row j at
once, each column summed over its entries in increasing (s, l): with
value = phi it is the analytic intrinsic gradient (one evaluation of phi,
its partials and the domain check for all j; D_j phi is its column j - 2),
with value = 0 the frame derivatives X_j of a test function on the base,
and with value = x_1/2 and the full gradient the left-invariant fields
X_1..X_m of the group.  The graph gradient -(X_2 f, ..., X_m f) / X_1 f of
a level set {f = c} is formed once, by ``_graph_gradient``, with one
degeneracy floor (``HORIZONTAL_GRADIENT_FLOOR``) for a defining function
and the mollified level set alike.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import group as gp
from .errors import (
    DegenerateHorizontalGradient,
    DimensionMismatch,
    NonFiniteState,
    OutOfDomain,
    StepTooLarge,
    SupportNotCovered,
    ValidationError,
)
from .functions import check_base_points, check_domain_dim
from .quadrature import (
    _coordinate_major,
    check_positive,
    default_points_per_axis,
    grid_from_axes,
    midpoint_axes,
)

HORIZONTAL_GRADIENT_FLOOR = 1e-12


def _check_direction(G, j):
    """Raise :class:`ValidationError` unless j is an integer in 2..m."""
    if isinstance(j, bool) or not isinstance(j, numbers.Integral) or not 2 <= j <= G.m:
        raise ValidationError(
            f"direction index j must be in 2..{G.m} (an integer), got {j!r}")


def frozen_coefficients(G, phi, j, a):
    """Vertical coefficients c_s(a) = phi(a) b^(s)_{j1} + 1/2 sum_i x_i b^(s)_{ji}.

    The drift sum runs over the base x-block (i = 2..m); the diagonal entry
    b_{jj} vanishes by skew-symmetry so the moving coordinate never enters.
    A NaN or infinite base point is a ValidationError.
    """
    _check_direction(G, j)
    check_domain_dim(phi.domain, G.base_dim)
    a = check_base_points(a, G.base_dim)
    gp._check_finite(a)
    return _frozen_coefficients(G, j, a, phi.eval_extended(a))


def _drift(G, j, a):
    """The drift 1/2 sum_l x_l b^(s)_{jl} of the frozen coefficients."""
    return 0.5 * gp._row_dot(G, j - 1, a[..., :G.m - 1])


def _frozen_coefficients(G, j, a, value):
    """c_s(a) of :func:`frozen_coefficients` with ``value`` in place of phi(a)."""
    return np.asarray(value)[..., None] * G.B[:, j - 1, 0] + _drift(G, j, a)


def _frozen_difference(G, phi, j, a, c, h, check_domain):
    """Central difference of phi along e_j + sum_s c_s e_{y_s}."""
    if h is None:
        h = 1e-5 * (1.0 + np.sqrt(gp._sum_of_squares(a)))
    h = np.asarray(h, dtype=float)
    direction = _coordinate_major(a.shape[:-1], a.shape[-1], 0.0)
    direction[..., j - 2] = 1.0
    direction[..., G.m - 1:] = c
    step = h[..., None] * direction
    fwd = a + step
    bwd = a - step
    if check_domain and not np.all(phi.in_domain(fwd) & phi.in_domain(bwd)):
        raise StepTooLarge(
            "central-difference stencil leaves the domain; decrease h or move inward")
    return (phi.eval_extended(fwd) - phi.eval_extended(bwd)) / (2.0 * h)


def intrinsic_derivative(G, phi, j, a):
    """D_j phi at base points a: column j - 2 of :func:`intrinsic_gradient`."""
    _check_direction(G, j)
    return intrinsic_gradient(G, phi, a)[..., j - 2]


def intrinsic_gradient(G, phi, a, h=None, check_domain=True):
    """All components (D_2 phi, ..., D_m phi) stacked on the last axis, from
    one evaluation of phi and of the domain check for all j.

    Uses analytic partials when available (and no ``h``), in one pass over
    them; otherwise an O(h^2) central difference along each frozen
    direction e_j + sum_s c_s(a) e_{y_s} with default step
    h = 1e-5 (1 + |a|); a given ``h`` must be positive and finite.  With
    ``check_domain=False`` the stencil evaluates through the function's
    extension instead of raising.
    """
    check_domain_dim(phi.domain, G.base_dim)
    a = np.asarray(a, dtype=float)
    if h is not None:
        h = np.asarray(h, dtype=float)
        if not np.all(np.isfinite(h) & (h > 0)):
            raise ValidationError(f"difference step h must be positive and finite, got {h}")
    if check_domain and not np.all(phi.in_domain(a)):
        raise OutOfDomain("intrinsic derivative point outside domain")
    return _intrinsic_gradient(G, phi, a, phi.eval_extended(a), h, check_domain)


def _intrinsic_gradient(G, phi, a, value, h=None, check_domain=False):
    """:func:`intrinsic_gradient` with ``value`` in place of phi(a) in the
    frozen coefficients c_s of the directions e_j + sum_s c_s e_{y_s}."""
    if not phi.has_partials or h is not None:
        columns = [_frozen_difference(G, phi, j, a, _frozen_coefficients(G, j, a, value),
                                      h, check_domain) for j in range(2, G.m + 1)]
        out = _coordinate_major(columns[0].shape, G.m - 1, None)
        for j, column in enumerate(columns):
            out[..., j] = column
        return out
    return _frame_apply(G, a, value, phi.partials(a))


def _frame_apply(G, a, value, grad):
    """d/dx_j + sum_s (value b^(s)_{j1} + 1/2 sum_l x_l b^(s)_{jl}) d/dy_s
    applied to the coordinate gradients ``grad`` at base points a; ``value``
    is an array over a's points or 0.  ``grad`` omits d/dx_1, giving
    j = 2..m on the last axis, or holds it, giving j = 1..m.  Each column is
    the sum over the entries b^(s)_{jl} in increasing (s, l) of the term of
    c_s times d/dy_s, then d/dx_j."""
    first = G.m + G.n - grad.shape[-1]
    value = np.asarray(value)
    # a value of 0 adds no terms; -0.0 is the identity of the final sum, so
    # a column without terms is its d/dx_j, signed zeros included
    with_value = not (value.ndim == 0 and value == 0)
    out = _coordinate_major(np.broadcast_shapes(a.shape[:-1], value.shape, grad.shape[:-1]),
                            G.m - first, -0.0)
    gy = grad[..., G.m - first:]
    half = 0.5 * a[..., :G.m - 1]
    # the entry b^(s)_{jl} adds (value b or x_l/2 b) d/dy_s to column j
    gp._walk(out, ((i - first, value if l == 0 else half[..., l - 1], b, gy[..., s])
                   for s, i, l, b in G._terms if i >= first and (l > 0 or with_value)))
    out += grad[..., :G.m - first]
    return out


def _vertical_rate(G, grad_y):
    """sum_s b^(s)_{j1} d/dy_s for j = 2..m on the last axis: the frame's
    d/d value, from the vertical gradients ``grad_y``."""
    return gp._walk(_coordinate_major(grad_y.shape[:-1], G.m - 1, 0.0),
                    ((i - 1, grad_y[..., s], b, None) for s, i, l, b in G._terms
                     if l == 0))


def gradient_from_defining_function(G, f_grad, p):
    """Intrinsic gradient from a defining function via its horizontal frame
    derivatives: -(X_2 f / X_1 f, ..., X_m f / X_1 f) at p.

    ``f_grad(p)`` must return finite coordinate gradients of f, shape
    (..., m+n); a NaN or infinite point is a ValidationError.
    X_1 f, ..., X_m f is the frame of :func:`_frame_apply` on (x-hat, y)
    with value x_1/2, the term 1/2 x_1 b^(s)_{j1} of X_j, and the whole
    gradient; X_1 has no value term, as b^(s)_{11} = 0.
    """
    p = gp._finite_point(G, p)
    grad = np.asarray(f_grad(p), dtype=float)
    if grad.shape[-1:] != (G.dim,):
        raise DimensionMismatch(f"f_grad must give gradients of length {G.dim}, "
                                f"got shape {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteState("f_grad is not finite at a point")
    xf = _frame_apply(G, p[..., 1:], 0.5 * p[..., 0], grad)
    return _graph_gradient(xf[..., 0], xf[..., 1:])


def _graph_gradient(x1f, xf):
    """-xf / X_1 f, the intrinsic gradient of the level set {f = c} as a
    graph over the base (implicit function theorem), from X_1 f and
    (X_2 f, ..., X_m f) on the last axis of ``xf``."""
    if np.any(np.abs(x1f) <= HORIZONTAL_GRADIENT_FLOOR):
        raise DegenerateHorizontalGradient(
            "X_1 f vanishes at an evaluation point; the graph direction is degenerate")
    return -xf / x1f[..., None]


@dataclass(frozen=True)
class TestFunction:
    """Standard bump: exp(1 - 1/(1 - |u|^2)) on |u| < 1, u = (a - center)/radius.

    Smooth, compactly supported, peak value 1 at the center, with closed-form
    gradient; vanishes with its gradient outside the support ball.
    """

    __test__ = False            # not a pytest item despite the name

    center: np.ndarray
    radius: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        except (TypeError, ValueError):
            raise ValidationError(f"test-function center must be finite numbers, "
                                  f"got {self.center!r}") from None
        if not np.all(np.isfinite(self.center)):
            raise ValidationError("test-function center must be finite")
        object.__setattr__(self, "radius", check_positive(
            self.radius, "test-function radius must be positive and finite"))

    def _u2(self, a):
        u = (np.asarray(a, dtype=float) - self.center) / self.radius
        return u, gp._sum_of_squares(u)

    def _on_support(self, u, t):
        """Value and gradient from u and t = |u|^2 of points in the support
        ball (every t < 1), forming 1 - t and the exp once."""
        s = 1.0 - t
        value = np.exp(1.0 - 1.0 / s)
        return value, -(value / s ** 2)[..., None] * 2.0 * u / self.radius

    def value(self, a):
        u, t = self._u2(a)
        out = np.zeros_like(t)
        inside = t < 1.0
        out[inside] = self._on_support(u[inside], t[inside])[0]
        return out

    def gradient(self, a):
        u, t = self._u2(a)
        out = np.zeros_like(u)
        inside = t < 1.0
        out[inside] = self._on_support(u[inside], t[inside])[1]
        return out

    def supported_inside(self, box):
        """Support ball inside the box, up to 1e-12 of rounding slack."""
        return bool(np.all(self.center - self.radius >= box.lo - 1e-12) and
                    np.all(self.center + self.radius <= box.hi + 1e-12))


def distributional_residual(G, phi, w, zeta, points_per_axis=None):
    """Residual vector of the weak identity, one entry per j = 2..m:

        R_j = int phi (X_j zeta + phi sum_s b^(s)_{j1} Y_s zeta) + int w_j zeta,

    by the midpoint rule with ``points_per_axis`` nodes per axis of phi's
    box (default by dimension).  Near zero at grid resolution iff phi
    solves D phi = w distributionally.

    The integrand vanishes with zeta and its gradient off the support ball
    |u| < 1, u = (a - center)/radius, so phi, w and zeta are evaluated only
    at the grid nodes with |u|^2 < 1: per axis the nodes with |u_i| < 1 (a
    superset, as u_i^2 <= |u|^2 and rounding is monotone) give a sub-box of
    the grid, and of its nodes those with |u|^2 < 1, by the bump's own
    expression, are kept.  Each column of the integrand is scattered into
    zeros over the full grid and summed there, so the sum runs in the dense
    grid's order over the same nonzero terms: the result is bitwise the
    dense sum, but for the sign of an all-zero entry.  A phi or w that is
    not finite at a support node is a NonFiniteState error; off the support
    neither is read.
    """
    return np.array(residual_report(G, phi, w, zeta, points_per_axis)["residual"])


def residual_report(G, phi, w, zeta, points_per_axis=None):
    """:func:`distributional_residual` as a report: the ``residual`` list,
    the ``grid`` points per axis and ``support_nodes``, the count of nodes
    at which phi, w and the bump were evaluated."""
    box = phi.domain
    check_domain_dim(box, G.base_dim)
    if zeta.center.shape != (box.dim,):
        raise DimensionMismatch(f"center must have length {box.dim}, got {zeta.center.shape}")
    points_per_axis = default_points_per_axis(box.dim, points_per_axis)
    axes, cell = midpoint_axes(box.lo, box.hi, points_per_axis)
    if not zeta.supported_inside(box):
        raise SupportNotCovered("test function support is not inside the domain box")
    # per axis, the one index range of nodes with |u_i| < 1
    cut = []
    for i, axis in enumerate(axes):
        near = np.flatnonzero(np.abs((axis - zeta.center[i]) / zeta.radius) < 1.0)
        cut.append(slice(near[0], near[-1] + 1) if near.size else slice(0, 0))
    sub = [axis[c] for axis, c in zip(axes, cut)]
    pts = grid_from_axes(sub)
    u, t = zeta._u2(pts)
    inside = t < 1.0
    pts = pts[inside]
    zv, zg = zeta._on_support(u[inside], t[inside])
    phi_v = phi.eval_extended(pts)
    w_v = w(pts)
    k = G.m - 1
    if np.shape(w_v) != (len(pts), k):
        raise DimensionMismatch(f"w must give m-1 = {k} components per point, "
                                f"got shape {np.shape(w_v)}")
    if not (np.all(np.isfinite(phi_v)) and np.all(np.isfinite(w_v))):
        raise NonFiniteState("phi or w is not finite at a node of the test function's "
                             "support")
    # X_j zeta restricted to W: the frame with value 0
    xj_zeta = _frame_apply(G, pts, 0.0, zg)
    vert = _vertical_rate(G, zg[..., k:])
    integrand = phi_v[..., None] * (xj_zeta + phi_v[..., None] * vert)
    total = _coordinate_major(tuple(len(axis) for axis in axes), k, 0.0)
    total[tuple(cut)][inside.reshape([len(axis) for axis in sub])] = \
        integrand + w_v * zv[..., None]
    total = total.reshape(-1, k)
    return {"residual": [float(np.sum(total[..., j]) * cell) for j in range(k)],
            "grid": int(points_per_axis), "support_nodes": len(pts)}
