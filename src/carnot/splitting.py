"""The codimension-1 splitting G = W * V, intrinsic graphs and cones.

V is the one-dimensional horizontal x1-axis and W the complementary normal
subgroup {x1 = 0}, identified with R^(m+n-1) through the inclusion
i(x2..xm, y1..yn) = (0, x2..xm, y1..yn).  This module provides the exact
projections, graph maps, intrinsic translations, the graph quasi-distance
and its coordinate form, and the sampled diagnostics (intrinsic Lipschitz
estimate, vertical Hoelder modulus) built from them.  A translated phi is a
plain ``GraphFunction`` on a bounding box whose ``inside`` mask keeps the
points that pull back into phi's domain.

Graph points, splittings and the graph quasi-distance are closed forms,
not compositions of group operations.  With a = (x-hat, y), first layers
embedded with x1 = 0 and b_1 the s-vector of the rows b^(s)_{1.}
(``group._row_dot`` with row 1; the bracket is ``group.bracket`` on x-hat,
both walks over the group's table of nonzero entries of B):

    i(a) * (t e1) = (t, x-hat, y + t/2 <b_1, x-hat>),
    v = u^-1 p = (p1 - u1, p2 - u2 - 1/2 <B u1, p1>) = i(base) * (v1_1 e1),
        base = (v1_2..m, v2 - v1_1/2 <b_1, v1>),
    phi(a)^-1 i(a)^-1 i(b) phi(a) = (g1, y_b - y_a - 1/2 <B x_a, x_b>
        + phi(a) <b_1, g1>),   g1 = x_b - x_a.

One helper splits u^-1 p for every point against every anchor, from u-side
terms computed once per anchor set (kernel nodes, a cone vertex, a
translation q, the origin); a caller that needs some of the pairs again
reads them off that table.  The coordinate form
sigma_phi(b, a) is sum_s |y_s|^(1/2) of the second layer y of the
quasi-distance's product with a and b swapped.
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
from .functions import Box, GraphFunction, check_base_points, check_domain_dim
from .quadrature import check_count, check_positive, check_work_budget, seeded_rng, tensor_grid

# Pairs whose quasi-distance falls below this are skipped in ratio estimates
# (the a = b limit), not reported as errors.
QUASIDISTANCE_FLOOR = 1e-14


def graph_point(G, a, t):
    """i(a) * (t e1) in closed form (module docstring); the base points
    a = (x-hat, y) and graph coordinates t broadcast over leading axes."""
    a = check_base_points(a, G.base_dim)
    t = np.asarray(t, dtype=float)
    xhat, y = a[..., :G.m - 1], a[..., G.m - 1:]
    out = np.empty(np.broadcast_shapes(a.shape[:-1], t.shape) + (G.dim,))
    out[..., 0] = t
    out[..., 1:G.m] = xhat
    np.add(y, 0.5 * t[..., None] * gp._row_dot(G, 0, xhat), out=out[..., G.m:])
    return out


def _anchor_terms(G, u):
    """The u-side terms of u^-1 p for the rows u of a (K, m+n) array, anchor
    axis last and every row contiguous: u as (m+n, K), B^(s) u1 / 2 as
    (n, m, K) and <b^(s)_{1.}, u1> / 2 as (n, K)."""
    ut = np.ascontiguousarray(u.T)
    half_b = 0.5 * G.B
    return ut, half_b @ ut[:G.m], half_b[:, 0, :] @ ut[:G.m]


def _split(G, terms, p):
    """(base, t) of u^-1 p for every point of the (P, m+n) array p against
    every anchor of terms, t (P, K).  base is a view of one
    (m+n-1, P, K) buffer, written column by column."""
    u, half_bu, half_row1 = terms
    pc = [c[:, None] for c in p.T]
    p_half_row1 = 0.5 * G.B[:, 0, :] @ p.T[:G.m]
    t = pc[0] - u[0]
    buf = np.empty((G.base_dim,) + t.shape)
    for c in range(1, G.dim):
        np.subtract(pc[c], u[c], out=buf[c - 1])
    scratch = np.empty_like(t)
    for s, col in enumerate(buf[G.m - 1:]):
        # p2 - u2 - <B^(s) u1, p1>/2 - t <b^(s)_{1.}, p1 - u1>/2
        for i in range(G.m):
            col -= np.multiply(pc[i], half_bu[s, i], out=scratch)
        np.subtract(p_half_row1[s][:, None], half_row1[s], out=scratch)
        col -= np.multiply(t, scratch, out=scratch)
    return np.moveaxis(buf, 0, -1), t


def _anchor(G, u):
    """u as a float array; DimensionMismatch unless it is one point of G."""
    u = np.asarray(u, dtype=float)
    if u.shape != (G.dim,):
        raise DimensionMismatch(f"expected an anchor of length {G.dim}, got {u.shape}")
    return u


def _split_from(G, u, p):
    """(base, t) of u^-1 p for one anchor u and points p of any leading shape."""
    p = gp._check_point(G, p)
    u = _anchor(G, u)
    base, t = _split(G, _anchor_terms(G, u[None]), p.reshape(-1, G.dim))
    # t[()] is a scalar for a single point
    return base.reshape(p.shape[:-1] + (G.base_dim,)), t.reshape(p.shape[:-1])[()]


def project_splitting(G, p):
    """Split p = p_W * p_V = graph_point(G, base, t); returns (base, t),
    the base coordinates of p_W and the graph coordinate x1 of p_V.  A NaN
    or infinite point is a ValidationError."""
    return _split_from(G, np.zeros(G.dim), gp._finite_point(G, p))


def _finite_phi(values):
    """phi's values at base points; NonFiniteState unless all are finite."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("phi is not finite at a base point")
    return values


def graph_map(G, phi, a):
    """Graph point Phi(a) = i(a) * (phi(a), 0, ..., 0); a base point outside
    phi's domain raises OutOfDomain, a NaN or infinite phi(a) NonFiniteState."""
    return graph_point(G, a, _finite_phi(phi(a)))


def translate_graph_function(G, phi, q):
    """The translated function: q * graph(phi) = graph(phi_q).

    phi_q(a) = phi(base) - t with (base, t) the split of q^-1 i(a), on the
    set where base lies in phi's domain: a ``GraphFunction`` on a bounding
    box, narrowed by that set as its ``inside`` mask.  The x-hat part of
    the translated domain is an exact box; the y-part is tracked by the
    mask.
    """
    check_domain_dim(phi.domain, G.base_dim)
    q = _anchor(G, q)

    def pulled(a):
        """(base, t) of q^-1 i(a)."""
        return _split_from(G, q, graph_point(G, a, 0.0))

    def value(a):
        b, t = pulled(a)
        return phi.eval_extended(b) - t

    def mask(a):
        return phi.in_domain(pulled(a)[0])

    # bounding box of the translated domain: the x-hat block shifts exactly
    # by q's first layer; the pulled-back vertical block is a_y plus an
    # affine function of a_xhat, so its extremes sit at the x-hat corners.
    lo, hi = phi.domain.lo.copy(), phi.domain.hi.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        lo[:G.m - 1] += q[1:G.m]
        hi[:G.m - 1] += q[1:G.m]
        corners = tensor_grid(lo[:G.m - 1], hi[:G.m - 1], (2,) * (G.m - 1),
                              nodes="endpoint")
        # the vertical part of the pulled-back corners is the affine correction
        g_y = pulled(np.pad(corners, ((0, 0), (0, G.n))))[0][:, G.m - 1:]
        lo[G.m - 1:] -= np.max(g_y, axis=0)
        hi[G.m - 1:] -= np.min(g_y, axis=0)
    try:
        # Box refuses the bounds that a NaN, infinite or too large q leaves
        return GraphFunction(Box(lo, hi), value, inside=mask)
    except ValidationError:
        raise ValidationError(f"translation q = {q.tolist()} must be finite and keep phi's "
                              f"domain within the float range") from None


@dataclass(frozen=True)
class Cone:
    """Intrinsic cone with vertex q and opening beta:
    {p : ||P_W(q^-1 p)|| <= beta ||P_V(q^-1 p)||}."""

    vertex: np.ndarray
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "vertex", np.asarray(self.vertex, dtype=float))
        if not np.all(np.isfinite(self.vertex)):
            raise ValidationError("cone vertex must be finite")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValidationError("cone opening beta must be >= 0 and finite")


def cone_membership(G, cone, p):
    """Membership test; on the axis P_W = 0 every opening qualifies.  A NaN
    or infinite point is a ValidationError."""
    return _cone_membership(G, cone, gp._finite_point(G, p))


def _cone_membership(G, cone, p):
    """:func:`cone_membership` without the finiteness check."""
    b, t = _split_from(G, cone.vertex, p)
    w_norm = gp._layer_norm(G, b[..., :G.m - 1], b[..., G.m - 1:])
    return w_norm <= cone.beta * np.abs(t)


def graph_quasidistance(G, phi, a, b, check_domain=True):
    """|| phi(a)^-1 i(a)^-1 i(b) phi(a) ||, from the closed form of the
    product (module docstring).  Arguments outside phi's domain raise
    OutOfDomain, or with ``check_domain=False`` read phi through its
    extension, where a NaN or infinite point is a ValidationError; a NaN or
    infinite phi(a) is a NonFiniteState error."""
    a = np.asarray(a, dtype=float)
    b = check_base_points(b, G.base_dim)
    if check_domain:
        ok = phi.in_domain(a) & phi.in_domain(b)
        if not np.all(ok):
            raise OutOfDomain("quasi-distance arguments outside domain")
    else:
        gp._check_finite(a, b)
    return _quasidistance(G, _finite_phi(phi.eval_extended(a)), a, b)


def _quasidistance(G, t, a, b):
    """graph_quasidistance at base points a, b with t = phi(a) given."""
    return gp._layer_norm(G, *_conjugated_layers(G, t, a, b))


def _conjugated_layers(G, t, a, b):
    """The layers (g1, y) of (t e1)^-1 i(a)^-1 i(b) (t e1) at base points
    a, b; with t = phi(a) this is the product of the module docstring."""
    k = G.m - 1
    xa, xb = a[..., :k], b[..., :k]
    g1 = xb - xa
    y = b[..., k:] - a[..., k:] - 0.5 * gp.bracket(G, xa, xb)
    y += t[..., None] * gp._row_dot(G, 0, g1)
    return g1, y


def sigma_form(G, phi, b, a):
    """Coordinate quasi-distance form sigma_phi(b, a): the sum over vertical
    components of |y_s - y'_s + phi(b) sum_l (x_l - x'_l) b^(s)_{1l}
    - 1/2 <B^(s) x', x>|^(1/2), with a = (x, y), b = (x', y') and first-layer
    vectors embedded with x1 = 0.  The inner values are the second layer of
    phi(b)^-1 i(b)^-1 i(a) phi(b), the one graph_quasidistance(b, a) takes
    the norm of.  A NaN or infinite point is a ValidationError, a NaN or
    infinite phi(b) a NonFiniteState error."""
    a, b = check_base_points(a, G.base_dim), check_base_points(b, G.base_dim)
    gp._check_finite(a, b)
    _, y = _conjugated_layers(G, _finite_phi(phi.eval_extended(b)), b, a)
    return np.sum(np.sqrt(np.abs(y)), axis=-1)


def estimate_intrinsic_lipschitz(G, phi, pair_samples=10_000, seed=0):
    """Lower bound for the intrinsic Lipschitz constant:
    sup over sampled pairs of |phi(b) - phi(a)| / quasidistance(a, b).

    Pairs: all pairs of a uniform grid (capped at ``pair_samples``), then
    uniform random pairs up to the requested count; deterministic in ``seed``.
    Pairs with quasi-distance below the floor are skipped (a = b limit);
    a non-finite phi or quasi-distance on any pair raises
    :class:`NonFiniteState`.
    """
    check_domain_dim(phi.domain, G.base_dim)
    pair_samples = check_count(pair_samples, "pair_samples must be a positive integer")
    check_work_budget(pair_samples, "the Lipschitz estimate", "pairs")
    rng = seeded_rng(seed)
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
    per lag; no array of all pairs is formed.  A phi not finite at a grid
    node is a NonFiniteState error.
    """
    rule = "Hoelder radii must be positive real numbers"
    try:
        radii = sorted((check_positive(r, rule) for r in r_list), reverse=True)
    except TypeError:
        raise ValidationError(f"{rule}, got {r_list!r}") from None
    box = phi.domain
    d = box.dim
    rule = f"n_vertical must be an integer from 1 to {d - 1}"
    if check_count(n_vertical, rule) >= d:
        raise ValidationError(f"{rule}, got {n_vertical!r}")
    if grid_per_axis is None:
        grid_per_axis = max(4, int(round(10_000 ** (1.0 / d))))
    # one node per axis leaves no pair, which would read as modulus 0
    rule = "grid_per_axis must be an integer of at least 2"
    g = check_count(grid_per_axis, rule)
    if g < 2:
        raise ValidationError(f"{rule}, got {grid_per_axis!r}")
    shape = (g,) * d
    pts = tensor_grid(box.lo, box.hi, shape, nodes="endpoint")
    # (x-slices, y-axis 1, ..., y-axis n_vertical)
    vals = phi.eval_extended(pts).reshape((-1,) + shape[d - n_vertical:])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteState("phi is not finite at a node of the Hoelder grid")
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
    ratio = dv / np.sqrt(dy)
    # relative slack so grid spacings equal to r are not lost to rounding;
    # a radius below every lag's |y' - y| has modulus 0
    return [(r, float(np.max(ratio, where=dy <= r * (1.0 + 1e-9), initial=0.0)))
            for r in radii]
