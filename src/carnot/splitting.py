"""The codimension-1 splitting G = W * V, intrinsic graphs and cones.

V is the one-dimensional horizontal x1-axis and W the complementary normal
subgroup {x1 = 0}, identified with R^(m+n-1) through the inclusion
i(x2..xm, y1..yn) = (0, x2..xm, y1..yn).  This module provides the exact
projections, graph maps, intrinsic translations, the graph quasi-distance
and its coordinate form, and the sampled diagnostics (intrinsic Lipschitz
estimate, vertical Hoelder modulus) built from them.

Graph points, splittings and the graph quasi-distance are closed forms,
not compositions of group operations.  With a = (x-hat, y), first layers
embedded with x1 = 0 and b_1 the s-vector of the rows b^(s)_{1.}:

    i(a) * (t e1) = (t, x-hat, y + t/2 <b_1, x-hat>),
    v = u^-1 p = (p1 - u1, p2 - u2 - 1/2 <B u1, p1>) = i(base) * (v1_1 e1),
        base = (v1_2..m, v2 - v1_1/2 <b_1, v1>),
    phi(a)^-1 i(a)^-1 i(b) phi(a) = (g1, y_b - y_a - 1/2 <B x_a, x_b>
        + phi(a) <b_1, g1>),   g1 = x_b - x_a.

One helper splits u^-1 p for every point against every anchor u, from
u-side terms computed once per anchor set (kernel nodes, a cone vertex, a
translation q, the origin).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import group as gp
from .errors import (
    DegenerateSample,
    DimensionMismatch,
    NonFiniteState,
    OutOfDomain,
    ValidationError,
)
from .functions import Box, GraphFunction
from .quadrature import check_work_budget, tensor_grid

# Pairs whose quasi-distance falls below this are skipped in ratio estimates
# (the a = b limit), not reported as errors.
QUASIDISTANCE_FLOOR = 1e-14


def graph_point(G, a, t):
    """i(a) * (t e1) in closed form (module docstring); the base points
    a = (x-hat, y) and graph coordinates t broadcast over leading axes."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != G.base_dim:
        raise DimensionMismatch(
            f"expected base points of length {G.base_dim}, got {a.shape}")
    t = np.asarray(t, dtype=float)
    xhat, y = a[..., :G.m - 1], a[..., G.m - 1:]
    out = np.empty(np.broadcast_shapes(a.shape[:-1], t.shape) + (G.dim,))
    out[..., 0] = t
    out[..., 1:G.m] = xhat
    out[..., G.m:] = y + 0.5 * t[..., None] * (xhat @ G.B[:, 0, 1:].T)
    return out


def _anchor_terms(G, u):
    """The u-side terms of u^-1 p for the rows u of a (K, m+n) array: u1, u2,
    (B^(s) u1)_i as (m, K, n) and <b_1, u1>, anchor axis second to last."""
    ux = u[:, :G.m]
    return ux, u[:, G.m:], np.einsum("sij,kj->iks", G.B, ux), ux @ G.B[:, 0, :].T


def _split(G, terms, p, start=0, stop=None):
    """(base, t) of u^-1 p for every row p of the (P, m+n) array and every
    anchor u start..stop-1 of terms; t is (P, K) and base a (P, K, m+n-1)
    view of one (m+n-1, P, K) buffer, written column by column."""
    m, n = G.m, G.n
    ux, uy, bx, row1 = (a[..., start:stop, :] for a in terms)
    px, py = p[:, :m], p[:, m:]
    k = ux.shape[0]
    br = (px @ bx.reshape(m, -1)).reshape(-1, k, n)      # <B u1, p1>
    p_row1 = px @ G.B[:, 0, :].T
    t = px[:, None, 0] - ux[None, :, 0]
    half_t = 0.5 * t
    buf = np.empty((m - 1 + n, p.shape[0], k))
    for i in range(1, m):
        np.subtract(px[:, None, i], ux[None, :, i], out=buf[i - 1])
    for s in range(n):
        col = buf[m - 1 + s]
        # (p2 - u2 - <B u1, p1>/2) - (t/2) <b^(s)_{1.}, p1 - u1>
        np.subtract(py[:, None, s], uy[None, :, s], out=col)
        col -= 0.5 * br[..., s]
        col -= half_t * (p_row1[:, None, s] - row1[None, :, s])
    return np.moveaxis(buf, 0, -1), t


def _split_from(G, u, p):
    """(base, t) of u^-1 p for one anchor u and points p of any leading shape."""
    p = gp._check_point(G, p)
    u = np.asarray(u, dtype=float).reshape(1, G.dim)
    base, t = _split(G, _anchor_terms(G, u), p.reshape(-1, G.dim))
    # t[()] is a scalar for a single point
    return base.reshape(p.shape[:-1] + (G.base_dim,)), t.reshape(p.shape[:-1])[()]


def project_splitting(G, p):
    """Split p = p_W * p_V = graph_point(G, base, t); returns (base, t),
    the base coordinates of p_W and the graph coordinate x1 of p_V."""
    return _split_from(G, np.zeros(G.dim), p)


def graph_map(G, phi, a, check_domain=True):
    """Graph point Phi(a) = i(a) * (phi(a), 0, ..., 0)."""
    a = np.asarray(a, dtype=float)
    return graph_point(G, a, phi(a) if check_domain else phi.eval_extended(a))


def translate_graph_function(G, phi, q):
    """Evaluator for the translated function: q * graph(phi) = graph(phi_q).

    phi_q(a) = phi(P_W(q^-1 i(a))) - t(q^-1 i(a)) on the set where the
    projected base point lies in phi's domain.  The x-hat part of the
    translated domain is an exact box; the y-part is tracked by the exact
    membership predicate.
    """
    q = np.asarray(q, dtype=float)

    def pulled_base(a):
        return _split_from(G, q, graph_point(G, a, 0.0))

    def evaluate(a):
        b, t = pulled_base(a)
        return phi.eval_extended(b) - t

    def mask(a):
        b, _ = pulled_base(a)
        return phi.in_domain(b)

    # bounding box of the translated domain: the x-hat block shifts exactly
    # by q's first layer; the pulled-back vertical block is a_y plus an
    # affine function of a_xhat, so its extremes sit at the x-hat corners.
    shift_x = q[1:G.m]
    lo = phi.domain.lo.copy()
    hi = phi.domain.hi.copy()
    lo[:G.m - 1] += shift_x
    hi[:G.m - 1] += shift_x
    corners = tensor_grid(lo[:G.m - 1], hi[:G.m - 1], (2,) * (G.m - 1),
                          nodes="endpoint")
    # the vertical part of the pulled-back corners is the affine correction
    g_y = pulled_base(np.pad(corners, ((0, 0), (0, G.n))))[0][:, G.m - 1:]
    lo[G.m - 1:] -= np.max(g_y, axis=0)
    hi[G.m - 1:] -= np.min(g_y, axis=0)
    return GraphFunction.from_callable(evaluate, Box(lo, hi), mask=mask,
                                       label=f"translate({phi.label})")


@dataclass(frozen=True)
class Cone:
    """Intrinsic cone with vertex q and opening beta:
    {p : ||P_W(q^-1 p)|| <= beta ||P_V(q^-1 p)||}."""

    vertex: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "vertex", np.asarray(self.vertex, dtype=float))
        if self.beta < 0:
            raise ValidationError("cone opening beta must be >= 0")


def cone_membership(G, cone, p):
    """Membership test; on the axis P_W = 0 every opening qualifies."""
    b, t = _split_from(G, cone.vertex, p)
    w_norm = gp._layer_norm(G, b[..., :G.m - 1], b[..., G.m - 1:])
    return w_norm <= cone.beta * np.abs(t)


def graph_quasidistance(G, phi, a, b, check_domain=True):
    """|| phi(a)^-1 i(a)^-1 i(b) phi(a) ||, from the closed form of the
    product (module docstring)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[-1] != G.base_dim:
        raise DimensionMismatch(
            f"expected base points of length {G.base_dim}, got {b.shape}")
    if check_domain:
        ok = phi.in_domain(a) & phi.in_domain(b)
        if not np.all(ok):
            raise OutOfDomain("quasi-distance arguments outside domain")
    return _quasidistance(G, phi.eval_extended(a), a, b)


def _quasidistance(G, t, a, b):
    """graph_quasidistance at base points a, b with t = phi(a) given."""
    k = G.m - 1
    xa, xb = a[..., :k], b[..., :k]
    g1 = xb - xa
    y = b[..., k:] - a[..., k:] - 0.5 * gp._bracket(G._base_bt, xa, xb)
    y += t[..., None] * (g1 @ G.B[:, 0, 1:].T)
    return gp._layer_norm(G, g1, y)


def sigma_form(G, phi, b, a):
    """Coordinate quasi-distance form sigma_phi(b, a): the sum over vertical
    components of |y_s - y'_s + phi(b) sum_l (x_l - x'_l) b^(s)_{1l}
    - 1/2 <B^(s) x', x>|^(1/2), with a = (x, y), b = (x', y') and first-layer
    vectors embedded with x1 = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = G.m - 1
    xa, ya = a[..., :k], a[..., k:]
    xb, yb = b[..., :k], b[..., k:]
    phib = phi.eval_extended(b)
    lin = (xa - xb) @ G.B[:, 0, 1:].T         # sum_l (x_l - x'_l) b^(s)_{1l}
    cross = gp._bracket(G._base_bt, xb, xa)   # <B^(s) x', x>
    inner = ya - yb + phib[..., None] * lin - 0.5 * cross
    return np.sum(np.sqrt(np.abs(inner)), axis=-1)


def estimate_intrinsic_lipschitz(G, phi, pair_samples=10_000, seed=0):
    """Lower bound for the intrinsic Lipschitz constant:
    sup over sampled pairs of |phi(b) - phi(a)| / quasidistance(a, b).

    Pairs: all pairs of a uniform grid (capped at ``pair_samples``), then
    uniform random pairs up to the requested count; deterministic in ``seed``.
    Pairs with quasi-distance below the floor are skipped (a = b limit);
    a non-finite phi or quasi-distance on any pair raises
    :class:`NonFiniteState`.
    """
    if pair_samples < 1:
        raise ValidationError(f"pair_samples must be at least 1, got {pair_samples}")
    check_work_budget(pair_samples, "the Lipschitz estimate", "pairs")
    box = phi.domain
    # grid sized so the all-pairs count stays within the pair budget
    target_points = max(2, int((2.0 * pair_samples) ** 0.5))
    per_axis = max(2, int(target_points ** (1.0 / box.dim)))
    pts = tensor_grid(box.lo, box.hi, (per_axis,) * box.dim, nodes="endpoint")
    first, second = np.triu_indices(len(pts), k=1)
    a = pts[first[:pair_samples]]
    b = pts[second[:pair_samples]]
    extra = pair_samples - len(a)
    if extra > 0:
        rng = np.random.default_rng(seed)
        a = np.concatenate([a, box.sample(extra, rng)])
        b = np.concatenate([b, box.sample(extra, rng)])
    phi_a = phi.eval_extended(a)
    qd = _quasidistance(G, phi_a, a, b)
    dphi = np.abs(phi.eval_extended(b) - phi_a)
    if not (np.all(np.isfinite(dphi)) and np.all(np.isfinite(qd))):
        raise NonFiniteState("phi or the quasi-distance is not finite on a sampled pair")
    keep = qd > QUASIDISTANCE_FLOOR
    if not np.any(keep):
        raise DegenerateSample("all sampled pairs coincide")
    return float(np.max(dphi[keep] / qd[keep]))


def vertical_holder_modulus(phi, r_list, grid_per_axis=None, n_vertical=1):
    """Per-radius vertical 1/2-Hoelder moduli.

    For each r: sup over same-x pairs with 0 < |y' - y| <= r of
    |phi(x, y') - phi(x, y)| / |y' - y|^(1/2), over a uniform grid in the
    domain box whose trailing ``n_vertical`` axes are the vertical block.
    The table is nondecreasing in r; "little" Hoelder behavior shows as
    modulus -> 0 with r.  Returns a list of (r, modulus), decreasing r.

    On the grid a pair is fixed by its vertical index lag L, and |y' - y|
    depends on L alone, so one pass over the lags L > 0 (the pair (y', y)
    is the pair (y, y') at lag -L) keeps the largest |phi(x, y') - phi(x, y)|
    per lag; no array of all pairs is formed.
    """
    box = phi.domain
    d = box.dim
    if grid_per_axis is None:
        grid_per_axis = max(4, int(round(10_000 ** (1.0 / d))))
    g = grid_per_axis
    shape = (g,) * d
    pts = tensor_grid(box.lo, box.hi, shape, nodes="endpoint")
    # (x-slices, y-axis 1, ..., y-axis n_vertical)
    vals = phi.eval_extended(pts).reshape((-1,) + shape[d - n_vertical:])
    spacing = (box.hi[d - n_vertical:] - box.lo[d - n_vertical:]) / max(g - 1, 1)
    lags = [lag for lag in itertools.product(range(1 - g, g), repeat=n_vertical)
            if lag > (0,) * n_vertical]
    dy = np.linalg.norm(np.reshape(lags, (-1, n_vertical)) * spacing, axis=-1)
    dv = np.empty(len(lags))
    for i, lag in enumerate(lags):
        # index k on every vertical axis against index k + lag
        at = (slice(None),) + tuple(slice(max(0, -l), g - max(0, l)) for l in lag)
        shifted = (slice(None),) + tuple(slice(max(0, l), g + min(0, l)) for l in lag)
        dv[i] = np.max(np.abs(vals[shifted] - vals[at]))
    out = []
    for r in sorted(r_list, reverse=True):
        # relative slack so grid spacings equal to r are not lost to rounding
        sel = dy <= r * (1.0 + 1e-9)
        if not np.any(sel):
            out.append((float(r), 0.0))
            continue
        out.append((float(r), float(np.max(dv[sel] / np.sqrt(dy[sel])))))
    return out
