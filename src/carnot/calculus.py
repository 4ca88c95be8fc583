"""Nonlinear intrinsic derivatives and distributional residuals.

The operators

    D_j = d/dx_j + sum_s (phi * b^(s)_{j1} + 1/2 sum_i x_i b^(s)_{ji}) d/dy_s

(j = 2..m) act on scalar functions of the base coordinates; in the first
Heisenberg group D_2 is the classical Burgers operator d/dx2 - phi d/dy.
Pointwise values use analytic partials when the function carries them and a
frozen-direction central difference otherwise.  The distributional residual
checks the integration-by-parts identity of the system D phi = w against
compactly supported bump test functions on a midpoint quadrature grid.

Every contraction with the B^(s) blocks is a plain matmul.  With analytic
partials the whole gradient (D_2 phi, ..., D_m phi) takes one evaluation of
phi, its partials and the domain check, and sums its vertical terms one
index s at a time, so no (points, m-1, n) array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import group as gp
from .errors import (
    DegenerateHorizontalGradient,
    OutOfDomain,
    StepTooLarge,
    SupportNotCovered,
    ValidationError,
)
from .quadrature import QuadratureGrid, default_points_per_axis

HORIZONTAL_GRADIENT_FLOOR = 1e-12


def frozen_coefficients(G, phi, j, a):
    """Vertical coefficients c_s(a) = phi(a) b^(s)_{j1} + 1/2 sum_i x_i b^(s)_{ji}.

    The drift sum runs over the base x-block (i = 2..m); the diagonal entry
    b_{jj} vanishes by skew-symmetry so the moving coordinate never enters.
    """
    if not (2 <= j <= G.m):
        raise ValidationError(f"direction index j must be in 2..{G.m}, got {j}")
    a = np.asarray(a, dtype=float)
    return _frozen_coefficients(G, j, a, phi.eval_extended(a))


def _frozen_coefficients(G, j, a, value):
    """c_s(a) of :func:`frozen_coefficients` with ``value`` in place of phi(a)."""
    col = G.B[:, j - 1, 0]                       # b^(s)_{j1}
    rows = G.B[:, j - 1, 1:]                     # b^(s)_{ji}, i = 2..m
    drift = 0.5 * (a[..., :G.m - 1] @ rows.T)
    return value[..., None] * col + drift


def _frozen_difference(G, phi, j, a, c, h, check_domain):
    """Central difference of phi along e_j + sum_s c_s e_{y_s}."""
    if h is None:
        h = 1e-5 * (1.0 + np.linalg.norm(a, axis=-1))
    h = np.asarray(h, dtype=float)
    direction = np.zeros(a.shape)
    direction[..., j - 2] = 1.0
    direction[..., G.m - 1:] = c
    step = h[..., None] * direction
    fwd = a + step
    bwd = a - step
    if check_domain and not np.all(phi.in_domain(fwd) & phi.in_domain(bwd)):
        raise StepTooLarge(
            "central-difference stencil leaves the domain; decrease h or move inward")
    return (phi.eval_extended(fwd) - phi.eval_extended(bwd)) / (2.0 * h)


def intrinsic_derivative(G, phi, j, a, h=None, check_domain=True):
    """D_j phi at base points a.

    Uses analytic partials when available; otherwise an O(h^2) central
    difference along the frozen direction e_j + sum_s c_s(a) e_{y_s} with
    default step h = 1e-5 (1 + |a|).  With ``check_domain=False`` the
    stencil evaluates through the function's extension instead of raising.
    """
    a = np.asarray(a, dtype=float)
    if check_domain and not np.all(phi.in_domain(a)):
        raise OutOfDomain("intrinsic derivative point outside domain")
    c = frozen_coefficients(G, phi, j, a)
    if phi.has_partials and h is None:
        grad = phi.partials(a)
        return grad[..., j - 2] + np.einsum("...s,...s->...", c, grad[..., G.m - 1:])
    return _frozen_difference(G, phi, j, a, c, h, check_domain)


def intrinsic_gradient(G, phi, a, h=None, check_domain=True):
    """All components (D_2 phi, ..., D_m phi) stacked on the last axis, from
    one evaluation of phi and of the domain check for all j: with analytic
    partials (and no ``h``) one pass over them, otherwise the central
    differences of :func:`intrinsic_derivative`."""
    a = np.asarray(a, dtype=float)
    if check_domain and not np.all(phi.in_domain(a)):
        raise OutOfDomain("intrinsic derivative point outside domain")
    return _intrinsic_gradient(G, phi, a, phi.eval_extended(a), h, check_domain)


def _intrinsic_gradient(G, phi, a, value, h=None, check_domain=False):
    """:func:`intrinsic_gradient` with ``value`` in place of phi(a) in the
    frozen coefficients c_s of the directions e_j + sum_s c_s e_{y_s}."""
    if not phi.has_partials or h is not None:
        return np.stack([_frozen_difference(G, phi, j, a,
                                            _frozen_coefficients(G, j, a, value),
                                            h, check_domain)
                         for j in range(2, G.m + 1)], axis=-1)
    k = G.m - 1
    value = value[..., None]
    grad = phi.partials(a)
    xhat = a[..., :k]
    for s in range(G.n):
        # c_s(a) of frozen_coefficients for every j at once, times d/dy_s phi
        c = xhat @ G.B[s, 1:, 1:].T
        c *= 0.5
        c += value * G.B[s, 1:, 0]
        c *= grad[..., k + s, None]
        if s == 0:
            out = c
        else:
            out += c
    out += grad[..., :k]
    return out


def gradient_from_defining_function(G, f_grad, p):
    """Intrinsic gradient from a defining function via its horizontal frame
    derivatives: -(X_2 f / X_1 f, ..., X_m f / X_1 f) at p.

    ``f_grad(p)`` must return coordinate gradients of f, shape (..., m+n);
    they are converted to frame derivatives with the left-invariant frame.
    """
    p = np.asarray(p, dtype=float)
    grad = np.asarray(f_grad(p), dtype=float)
    Xf = gp.frame_derivatives(G, p, grad)[..., :G.m]
    x1f = Xf[..., 0]
    if np.any(np.abs(x1f) <= HORIZONTAL_GRADIENT_FLOOR):
        raise DegenerateHorizontalGradient(
            "X_1 f vanishes at an evaluation point; the graph direction is degenerate")
    return -Xf[..., 1:] / x1f[..., None]


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
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValidationError("test-function radius must be positive")

    def _u2(self, a):
        u = (np.asarray(a, dtype=float) - self.center) / self.radius
        return u, np.sum(u * u, axis=-1)

    def value(self, a):
        u, t = self._u2(a)
        out = np.zeros_like(t)
        inside = t < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
        return out

    def gradient(self, a):
        u, t = self._u2(a)
        out = np.zeros_like(u)
        inside = t < 1.0
        g = np.zeros_like(t)
        g[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside])) / (1.0 - t[inside]) ** 2
        out[inside] = -g[inside, None] * 2.0 * u[inside] / self.radius
        return out

    def supported_inside(self, box):
        """Support ball inside the box, up to 1e-12 of rounding slack."""
        return bool(np.all(self.center - self.radius >= box.lo - 1e-12) and
                    np.all(self.center + self.radius <= box.hi + 1e-12))


def base_frame_apply(G, a, zeta_grad):
    """Frame derivatives of a test function on the base:
    (X_2 zeta, ..., X_m zeta, Y_1 zeta, ..., Y_n zeta) restricted to W."""
    a = np.asarray(a, dtype=float)
    xhat = a[..., :G.m - 1]
    grad_x = zeta_grad[..., :G.m - 1]
    grad_y = zeta_grad[..., G.m - 1:]
    # X_j|_W zeta = d/dx_j zeta + 1/2 sum_s sum_{l>=2} b^(s)_{jl} x_l d/dy_s zeta
    for s in range(G.n):
        term = xhat @ G.B[s, 1:, 1:].T
        term *= 0.5
        term *= grad_y[..., s, None]
        if s == 0:
            xj = term
        else:
            xj += term
    xj += grad_x
    return xj, grad_y


def distributional_residual(G, phi, w, zeta, grid=None, points_per_axis=None):
    """Residual vector of the weak identity, one entry per j = 2..m:

        R_j = int phi (X_j zeta + phi sum_s b^(s)_{j1} Y_s zeta) + int w_j zeta.

    Near zero at grid resolution iff phi solves D phi = w distributionally.
    """
    box = phi.domain
    if grid is None:
        if points_per_axis is None:
            points_per_axis = default_points_per_axis(box.dim)
        grid = QuadratureGrid(box.lo, box.hi, (points_per_axis,) * box.dim)
    if not zeta.supported_inside(box):
        raise SupportNotCovered("test function support is not inside the domain box")
    if not (np.all(grid.lo <= zeta.center - zeta.radius) and
            np.all(zeta.center + zeta.radius <= grid.hi)):
        raise SupportNotCovered("test function support is not covered by the grid")
    pts = grid.points()
    phi_v = phi.eval_extended(pts)
    zg = zeta.gradient(pts)
    zv = zeta.value(pts)
    xj_zeta, y_zeta = base_frame_apply(G, pts, zg)
    col = G.B[:, 1:, 0]                        # b^(s)_{j1} indexed (s, j-2)
    vert = y_zeta @ col
    integrand = phi_v[..., None] * (xj_zeta + phi_v[..., None] * vert)
    w_v = w(pts)
    total = integrand + w_v * zv[..., None]
    return np.array([grid.integrate(total[..., j]) for j in range(G.m - 1)])
