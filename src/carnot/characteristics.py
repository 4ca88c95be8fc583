"""Characteristic lines of the intrinsic derivative fields and the
Lipschitz-along-curve diagnostics with their explicit constants.

A characteristic of the j-th field moves the coordinate x_j at unit speed
while the vertical block follows

    dgamma_s/dt = b^(s)_{j1} phi(x_j(t), xhat_j, gamma(t))
                  + 1/2 sum_{l} b^(s)_{jl} x_l,

the drift term being constant along the line (b_{jj} = 0).  Trajectories are
integrated with fixed-step RK4; the right-hand side is merely continuous in
general (Peano setting), so a step-halved rerun, run when the estimate is
first read, is reported as the error estimate instead of any uniqueness
claim.  The rate of a curve is formed once from the column b^(s)_{j1} and
the constant drift, so each RK4 stage costs one evaluation of phi, and the
states are bitwise those of forming the frozen coefficients at every stage.

The stages run on Python floats: the shifts and the RK4 combination are
formed coordinate by coordinate, and an expression phi is evaluated by its
one-point call on the stage's floats (``functions`` module docstring).  A
grid, callable or translated phi sees each stage point in one reused
(m+n-1,) array.  Each float operation is the single IEEE operation that
the elementwise array form made, in the same order, and Python fuses no
operations across statements, so the states stay bitwise those of the
array form.  At one point per stage, small arrays cost far more in
per-call overhead than in arithmetic.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from operator import le

import numpy as np

from .errors import DimensionMismatch, LeftDomain, NonFiniteState, ValidationError
from .calculus import _check_direction, _drift, _frozen_coefficients
from .quadrature import check_count, check_positive, check_work_budget, tensor_grid
from .splitting import graph_quasidistance


@dataclass(frozen=True)
class CharacteristicCurve:
    """Numerically integrated characteristic line with phi sampled along it."""

    j: int
    t_grid: np.ndarray          # uniform times in [0, T] (or truncated)
    base_points: np.ndarray     # (steps+1, m+n-1): full base point per time
    phi_along: np.ndarray
    step: float
    exit_time: float | None = None
    n_vertical: int = field(default=1)
    # (G, phi, a0, T, steps) of the integration, for the step-halved rerun
    _rerun: tuple = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def error_estimate(self):
        """Max discrepancy of the vertical states against the step-halved
        rerun at their shared times, from a rerun with the same arguments on
        first read; a rerun that goes non-finite raises NonFiniteState here."""
        G, phi, a0, T, steps = self._rerun
        fine, _, used_fine = _rk4_path(G, phi, self.j, a0, T, 2 * steps)
        shared = min(len(self.t_grid) - 1, used_fine // 2)
        return float(np.max(np.abs(self.base_points[:shared + 1, G.m - 1:]
                                   - fine[:2 * shared + 1:2, G.m - 1:]))) if shared else 0.0

    @property
    def gamma(self):
        """Vertical states along the curve, shape (steps+1, n)."""
        return self.base_points[:, -self.n_vertical:]

    @property
    def truncated(self):
        return self.exit_time is not None


def _rk4_path(G, phi, j, a0, T, steps):
    d = G.base_dim
    v0 = d - G.n                # first vertical coordinate
    x = j - 2                   # the coordinate moving at unit speed
    out = np.empty((steps + 1, d))
    out[0] = a0
    h = T / steps
    inside_limit = steps
    # only x_j and the vertical block move, and b_jj = 0: the drift of the
    # frozen coefficients is the same at every stage of the curve
    col = G.B[:, j - 1, 0].tolist()
    drift = _drift(G, j, out[0]).tolist()
    # a state is inside when it lies in phi's box (Box.contains, read
    # inline); a phi whose domain is finer than its box (a translated phi
    # overrides in_domain) is asked as well
    lo, hi = phi.domain.lo.tolist(), phi.domain.hi.tolist()
    finer = not phi.fills_box
    half = 0.5 * h
    vert = range(G.n)
    value = phi.one_point
    if value is None:
        buf = np.empty(d)

        def value(b):
            buf[:] = b
            return float(phi.eval_extended(buf))

    def rate(b):
        v = value(b)
        return [v * c + r for c, r in zip(col, drift)]

    def shift(a, dt, ks):
        """a moved by dt along x_j and by dt * ks on the vertical block."""
        b = a.copy()
        b[x] += dt
        for s in vert:
            b[v0 + s] += dt * ks[s]
        return b

    a = out[0].tolist()
    for k in range(steps):
        k1 = rate(a)
        k2 = rate(shift(a, half, k1))
        k3 = rate(shift(a, half, k2))
        k4 = rate(shift(a, h, k3))
        a = a.copy()
        a[x] += h
        for s in vert:
            a[v0 + s] += h * (k1[s] + 2 * k2[s] + 2 * k3[s] + k4[s]) / 6.0
        if not all(map(math.isfinite, a)):
            raise NonFiniteState(f"characteristic state became non-finite at step {k}")
        if not (all(map(le, lo, a)) and all(map(le, a, hi))) \
                or finer and not phi.in_domain(a):
            inside_limit = k
            break
        out[k + 1] = a
    return out[:inside_limit + 1], h, inside_limit


def integrate_characteristic(G, phi, j, a0, T, steps=1000):
    """Fixed-step RK4 characteristic from base point a0 over [0, T].

    A rerun with halved step supplies ``error_estimate`` (max discrepancy at
    shared times) when that is first read; its work is checked here.  If
    the trajectory leaves the domain box it is truncated and the exit time
    recorded rather than extrapolated; a start point
    outside the domain raises :class:`LeftDomain`, and a NaN or infinite T
    or start point and a direction j outside 2..m a :class:`ValidationError`.
    """
    _check_direction(G, j)
    T = check_positive(T, "need a finite T > 0")
    if check_count(steps, "RK4 steps must be a positive integer") < 8:
        raise ValidationError("need at least 8 RK4 steps")
    check_work_budget(2 * steps + 1, "the step-halved rerun", "RK4 rows")
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (G.base_dim,):
        raise ValidationError(
            f"start point must have length m+n-1 = {G.base_dim}, got {a0.shape}")
    if not np.all(np.isfinite(a0)):
        raise ValidationError(f"start point must be finite, got {a0.tolist()}")
    if not phi.in_domain(a0):
        raise LeftDomain("characteristic start point lies outside the domain")
    path, h, used = _rk4_path(G, phi, j, a0, T, steps)
    if used == 0:
        raise LeftDomain("trajectory exits the domain box within the first step")
    t_grid = h * np.arange(path.shape[0])
    exit_time = None if used == steps else float(t_grid[-1])
    return CharacteristicCurve(
        j=j, t_grid=t_grid, base_points=path,
        phi_along=np.asarray(phi.eval_extended(path)),
        step=h, exit_time=exit_time, n_vertical=G.n, _rerun=(G, phi, a0.copy(), T, steps))


def flux_values(G, j, xhat, phi_values):
    """Conserved fluxes f_s(phi) = (b^(s)_{j1} phi^2 + phi sum_l b^(s)_{jl} x_l)/2
    at x-hat = (x_2, ..., x_m); other than m - 1 coordinates is a DimensionMismatch."""
    _check_direction(G, j)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.ndim == 0 or xhat.shape[-1] != G.m - 1:
        raise DimensionMismatch(
            f"expected x-hat of length {G.m - 1}, got shape {xhat.shape}")
    phi_values = np.asarray(phi_values, dtype=float)
    # phi times the frozen coefficients with phi/2 in place of phi
    return phi_values[..., None] * _frozen_coefficients(G, j, xhat, 0.5 * phi_values)


def broadstar_residual(curve, phi, w_j):
    """max_t | phi(gamma(t)) - phi(gamma(0)) - int_0^t w_j(gamma(r)) dr |,
    the integral by composite Simpson on the curve's uniform time grid."""
    from scipy.integrate import cumulative_simpson

    vals = np.asarray(w_j(curve.base_points), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteState("w_j is not finite at a point of the curve")
    integral = cumulative_simpson(vals, x=curve.t_grid, initial=0.0)
    lhs = curve.phi_along - curve.phi_along[0]
    return float(np.max(np.abs(lhs - integral)))


def _pairwise_sup_slope(t, v):
    """sup |v(t2) - v(t1)| / (t2 - t1): adjacent pairs plus an all-pairs
    sweep over every tenth point (adjacent pairs dominate for smooth data)."""
    dt = np.diff(t)
    keep = dt > 0
    best = float(np.max(np.abs(np.diff(v))[keep] / dt[keep])) if np.any(keep) else 0.0
    ts = t[::10]
    vs = v[::10]
    if len(ts) > 1:
        dtm = ts[None, :] - ts[:, None]
        dvm = vs[None, :] - vs[:, None]
        sel = dtm > 0
        best = max(best, float(np.max(np.abs(dvm[sel]) / dtm[sel])))
    return best


def sup_w_estimate(w_j, curve):
    """||w_j||_inf over the curve's bounding box: sampled max over the curve
    points plus a 5-per-axis box grid, inflated by 5% (an essential sup
    cannot be computed exactly)."""
    pts = curve.base_points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    box_pts = tensor_grid(lo, hi, np.where(hi > lo, 5, 1), nodes="endpoint")
    allpts = np.concatenate([pts, box_pts], axis=0)
    sup = float(np.max(np.abs(w_j(allpts))))
    if not math.isfinite(sup):
        raise NonFiniteState("w_j is not finite on the curve's bounding box")
    return 1.05 * sup


def _check_constant(value, name):
    """``value`` as a float; ValidationError unless it is a finite real >= 0
    (not a bool).  C_h = 0 holds for a phi that does not depend on y."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


def lipschitz_along_curve(G, curve, phi, w_j, holder_constant):
    """Measured Lipschitz constant of phi along the curve and the explicit
    bound ||w_j||_inf + (1 + sqrt 2)/2 * C_h^2 * sum_s |b^(s)_{j1}|.

    ``w_j`` is the j-th intrinsic derivative of phi (a callable on base
    points) and ``holder_constant`` C_h its vertical 1/2-Hoelder constant,
    e.g. from one domain-wide :func:`vertical_holder_modulus`, a finite
    number >= 0; ``phi`` itself is not read.  The bound is proved for two
    vertical directions; for general n the sum over all s is the direct
    extension and is flagged as extrapolated.
    """
    holder_constant = _check_constant(holder_constant, "holder_constant")
    measured = _pairwise_sup_slope(curve.t_grid, curve.phi_along)
    w_inf = sup_w_estimate(w_j, curve)
    col_sum = float(np.sum(np.abs(G.B[:, curve.j - 1, 0])))
    bound = w_inf + (1.0 + np.sqrt(2.0)) / 2.0 * holder_constant ** 2 * col_sum
    return {
        "measured": measured,
        "bound": bound,
        "w_inf": w_inf,
        "holder_constant": holder_constant,
        "bound_is_extrapolated": G.n > 2,
    }


def curve_graph_speed_bound(G, c1, C_L):
    """Constant chain bounding the graph quasi-distance along unit-speed
    characteristics: qd(gamma(t1), gamma(t)) <= C1 (t - t1) with

        M1 = c1 (m-1) (2 + C_L B_M n^2)
        C1 = M2 = 2 [M1 + 8 c1^2 n^2 (m-1) B_M C_L + sqrt(2 B_M) c1 n (m-1)].
    """
    m, n, bm = G.m, G.n, G.b_max
    M1 = c1 * (m - 1) * (2.0 + C_L * bm * n ** 2)
    return 2.0 * (M1 + 8.0 * c1 ** 2 * n ** 2 * (m - 1) * bm * C_L
                  + np.sqrt(2.0 * bm) * c1 * n * (m - 1))


def phi_along_curve_lipschitz_vs_intrinsic(G, curve, phi, C_L):
    """Check the quasi-distance growth bound along a characteristic and the
    induced Lipschitz bound |phi(gamma(t)) - phi(gamma(t1))| <= C_L C1 (t-t1)
    for an intrinsic Lipschitz constant C_L of phi, a finite number >= 0.

    Returns measured slopes and the bound C1 computed from the norm
    equivalence constant c1 = 1 + 1/eps (exact for the max-norm).
    """
    C_L = _check_constant(C_L, "C_L")
    c1 = 1.0 + 1.0 / G.epsilon
    C1 = curve_graph_speed_bound(G, c1, C_L)
    t = curve.t_grid
    pts = curve.base_points
    stride = max(1, len(t) // 40)
    anchors = range(0, len(t) - 1, stride)
    qd_slope = 0.0
    for i in anchors:
        later = pts[i + 1::stride]
        dts = t[i + 1::stride] - t[i]
        qd = graph_quasidistance(G, phi, np.broadcast_to(pts[i], later.shape),
                                 later, check_domain=False)
        qd_slope = max(qd_slope, float(np.max(qd / dts)))
    phi_slope = _pairwise_sup_slope(t, curve.phi_along)
    return {
        "quasidistance_slope": qd_slope,
        "quasidistance_bound": C1,
        "phi_slope": phi_slope,
        "phi_bound": C_L * C1,
    }


def conservation_residual(G, curve, w_j):
    """Max mismatch of d/dt f_s(phi(gamma(t))) against gamma_dot_s * w_j
    along the curve, centered differences at interior grid times; phi is
    read off the curve's samples, and a w_j not finite there is an error."""
    # the full x-block: the flux drift ignores the moving coordinate (b_jj = 0)
    f = flux_values(G, curve.j, curve.base_points[:, :G.m - 1], curve.phi_along)
    t = curve.t_grid
    dfdt = (f[2:] - f[:-2]) / (t[2:] - t[:-2])[:, None]
    vel = _frozen_coefficients(G, curve.j, curve.base_points[1:-1],
                               curve.phi_along[1:-1])
    w_vals = np.asarray(w_j(curve.base_points[1:-1]), dtype=float)
    if not np.all(np.isfinite(w_vals)):
        raise NonFiniteState("w_j is not finite at a point of the curve")
    return float(np.max(np.abs(dfdt - vel * w_vals[:, None])))
