"""Constructive cone geometry: the opening beta(k), the parallelogram
construction solving y = <B eta, z> under angle constraints, and
Monte-Carlo cone-containment sweeps for subgraphs.

The opening is the largest beta satisfying the constraint pair

    beta (beta / eps^2 - b12 / 2) <= 3 b12 h / 8,   h = sqrt(k^2 / (2 - k^2)),
    beta^2 <= k^2 / (2 - 2 k^2)            (second one dropped at k = 1),

taking the largest admissible value.  Numerical caution: for vertical
values near the edge of the cone window these constraints do not confine
the point to the exactly representable range of the parallelogram's linear
form; the constructor raises a dedicated error there and the sampler
restricts itself to the representable sector.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import group as gp
from .errors import (
    DegenerateZ,
    InvalidK,
    NonFiniteState,
    PointOutsideCone,
    ValidationError,
    ValueNotRepresentable,
)
from .functions import Box
from .quadrature import (
    _coordinate_major,
    check_count,
    check_positive,
    check_work_budget,
    seeded_rng,
)
from .splitting import Cone, _cone_membership, _split_from, cone_membership, graph_point


def beta_for_k(k, epsilon=1.0, b12=1.0):
    """Largest opening satisfying both defining constraints.

    The first is a quadratic inequality in beta with positive root
    eps^2 (b12/2 + sqrt(b12^2/4 + 3 b12 h / (2 eps^2))) / 2; the second
    bound k / sqrt(2 - 2k^2) is +inf at k = 1 and is dropped there.
    """
    if not (isinstance(k, numbers.Real) and 0.0 < k <= 1.0):
        raise InvalidK(f"k must lie in (0, 1], got {k}")
    if not (isinstance(epsilon, numbers.Real) and 0.0 < epsilon <= 1.0):
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    k = float(k)
    b12 = check_positive(b12, "b12 must be positive and finite")
    h = np.sqrt(k * k / (2.0 - k * k))
    disc = b12 * b12 / 4.0 + 3.0 * b12 * h / (2.0 * epsilon ** 2)
    beta = epsilon ** 2 * (b12 / 2.0 + np.sqrt(disc)) / 2.0
    if k < 1.0:
        beta = min(beta, k / np.sqrt(2.0 - 2.0 * k * k))
    return float(beta)


def cone_window(k, epsilon, b12):
    """(beta, h) pair used by the parallelogram construction."""
    return beta_for_k(k, epsilon, b12), float(np.sqrt(k * k / (2.0 - k * k)))


def parallelogram_vertices(z, h):
    """Extremal vertices of {|eta2| <= -h eta1, |z2 - eta2| <= -h (z1 - eta1)},
    for each z on the last axis."""
    z = np.asarray(z, dtype=float)
    z1, z2 = z[..., 0], z[..., 1]
    zh1 = _coordinate_major(z.shape[:-1], 2, None)
    zh2 = _coordinate_major(z.shape[:-1], 2, None)
    zh1[..., 0], zh1[..., 1] = (z2 + h * z1) / (2.0 * h), (z2 + h * z1) / 2.0
    zh2[..., 0], zh2[..., 1] = (h * z1 - z2) / (2.0 * h), (z2 - h * z1) / 2.0
    return zh1, zh2


def _vertical_value(b12, eta, z):
    """<B^(1) eta, z> = b12 (eta2 z1 - eta1 z2), over the last axis: the
    parallelogram's linear form, the vertical value that eta solves for."""
    return b12 * (eta[..., 1] * z[..., 0] - eta[..., 0] * z[..., 1])


def construct_eta_m2n1(G, p, k):
    """Solve p3 = <B^(1) eta, p1> with eta in the admissible parallelogram.

    Requires m = 2, n = 1 and the half-cone condition with axis nu = e1 and
    opening beta(k).  The solution interpolates linearly between the two
    extremal vertices (which swaps roles automatically when b12 < 0); both
    angle conditions <eta, nu> <= -sqrt(1-k^2)|eta| and
    <p1 - eta, nu> <= -sqrt(1-k^2)|p1 - eta| hold by construction.
    """
    if G.m != 2 or G.n != 1:
        raise ValidationError("parallelogram construction requires m=2, n=1")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValidationError(f"expected a point of R^3, got shape {p.shape}")
    b12 = float(G.B[0, 0, 1])
    beta, h = cone_window(k, G.epsilon, abs(b12))
    # half-cone with axis nu = e1: ||P_W(p)|| <= -beta p1
    if not (p[0] <= 0 and cone_membership(G, Cone(np.zeros(3), beta), p)):
        raise PointOutsideCone("point does not satisfy the half-cone condition")
    z = p[:2]
    y = p[2]
    if np.allclose(z, 0.0):
        raise DegenerateZ("horizontal part vanishes; parallelogram degenerates")
    if y == 0.0:
        return np.zeros(2)      # the vertex 0 solves the equation exactly
    zh1, zh2 = parallelogram_vertices(z, h)
    v1, v2 = _vertical_value(b12, zh1, z), _vertical_value(b12, zh2, z)
    lo, hi = min(v1, v2), max(v1, v2)
    if not (lo <= y <= hi):
        raise ValueNotRepresentable(
            f"vertical value {y:.6g} outside attainable range [{lo:.6g}, {hi:.6g}]")
    s = (y - v1) / (v2 - v1)
    eta = zh1 + s * (zh2 - zh1)
    return eta


def eta_verification(G, p, k, eta):
    """Replay the defining identity and both angle inequalities; returns the
    identity residual and the two (signed) angle slacks."""
    p = np.asarray(p, dtype=float)
    eta = np.asarray(eta, dtype=float)
    b12 = float(G.B[0, 0, 1])
    resid = abs(_vertical_value(b12, eta, p) - p[2])
    root = np.sqrt(max(0.0, 1.0 - k * k))
    slack1 = -root * np.linalg.norm(eta) - eta[0]
    diff = p[:2] - eta
    slack2 = -root * np.linalg.norm(diff) - diff[0]
    return {"identity_residual": resid, "angle_slack": (slack1, slack2)}


def sample_cone_points_m2n1(G, k, count, seed=0):
    """Rejection-sample representable half-cone points (m=2, n=1).

    Draws p1 in [-1, -0.05) with |p2| <= 0.9 min(beta, h) |p1|, then a
    vertical value inside 0.9 times both the cone window and the attainable
    range of the parallelogram's linear form (the constructible sector).
    Candidates are drawn and tested in batches of at most 2^16.
    """
    if G.m != 2 or G.n != 1:
        raise ValidationError("sampler requires m=2, n=1")
    count = check_count(count, "count must be a positive integer")
    check_work_budget(count, "the cone sampler", "points")
    rng = seeded_rng(seed)
    b12 = float(G.B[0, 0, 1])
    beta, h = cone_window(k, G.epsilon, abs(b12))
    cone = Cone(np.zeros(3), beta)
    size = min(count, 2 ** 16)
    out = _coordinate_major((0,), 3, None)
    while len(out) < count:
        p = _coordinate_major((size,), 3, None)
        p1, p2 = p[:, 0], p[:, 1]
        np.negative(rng.uniform(0.05, 1.0, size), out=p1)
        p2[...] = 0.9 * min(beta, h) * np.abs(p1) * rng.uniform(-1.0, 1.0, size)
        z = p[:, :2]
        v1, v2 = (_vertical_value(b12, v, z) for v in parallelogram_vertices(z, h))
        # cone window on the vertical value
        half = (beta * p1 / G.epsilon) ** 2
        center = 0.5 * b12 * p1 * p2
        lo = np.maximum(center - half, np.minimum(v1, v2)) * 0.9
        hi = np.minimum(center + half, np.maximum(v1, v2)) * 0.9
        p[:, 2] = lo + (hi - lo) * rng.random(size)
        # p1 < 0: the lower half-cone; the accepted rows, coordinate-major
        # as the batch they are taken from
        keep = np.flatnonzero((hi > lo) & _cone_membership(G, cone, p))
        out = np.concatenate([out, p.T[:, keep].T])
    return out[:count]


def check_cone_containment(G, phi, beta, samples=10_000, seed=0, radius=0.5):
    """Sampled verification that lower/upper half-cones at graph points stay
    inside / outside the subgraph.

    Cone points are built as q = Phi(a) * (w * (t e1)) with ||w|| below
    0.95 beta |t|, so they satisfy the strict cone condition by
    construction; the report counts indicator disagreements (0 expected
    for openings below the intrinsic-Lipschitz threshold).  The sweep's
    batches are finite by construction, so it calls the helpers that skip
    the public functions' finiteness checks; a phi that is not finite where
    the sweep reads it would miscount, so it is a NonFiniteState error.
    """
    beta = check_positive(beta, "cone opening must be positive and finite")
    radius = check_positive(radius, "radius must be positive and finite")
    samples = check_count(samples, "samples must be a positive integer")
    check_work_budget(samples, "the cone-containment check", "samples")
    rng = seeded_rng(seed)
    box = phi.domain
    inner = Box(box.lo + 0.1 * (box.hi - box.lo), box.hi - 0.1 * (box.hi - box.lo))
    A = inner.sample(samples, rng)
    values = phi.eval_extended(A)
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("phi is not finite at a sampled base point")
    P = graph_point(G, A, values)
    t = rng.uniform(0.05, 1.0, size=samples) * radius
    sides = rng.integers(0, 2, size=samples) * 2 - 1     # -1: below, +1: above
    t = t * sides
    # W-component with homogeneous norm <= 0.95 beta |t|
    r_w = 0.95 * beta * np.abs(t)
    # (x-hat, y): each row-major draw transposed once into its block of w
    w = _coordinate_major((samples,), G.base_dim, None)
    xhat, yv = w[:, :G.m - 1], w[:, G.m - 1:]
    xhat[...] = rng.uniform(-1.0, 1.0, size=(samples, G.m - 1))
    xhat *= (r_w / np.maximum(np.sqrt(gp._sum_of_squares(xhat)), 1e-300))[:, None] \
        * rng.uniform(0.0, 1.0, size=samples)[:, None]
    yv[...] = rng.uniform(-1.0, 1.0, size=(samples, G.n))
    y_cap = (r_w / G.epsilon) ** 2
    yn = np.sqrt(gp._sum_of_squares(yv))
    yv *= (y_cap / np.maximum(yn, 1e-300))[:, None] \
        * rng.uniform(0.0, 1.0, size=samples)[:, None]
    q = gp._multiply(G, P, graph_point(G, w, t))
    inside = _subgraph_indicator(G, phi, q)
    expected = (sides < 0).astype(float)
    violations = int(np.count_nonzero(inside != expected))
    return {
        "samples": samples,
        "violations": violations,
        "beta": beta,
        "radius": radius,
    }


def _subgraph_indicator(G, phi, p):
    """1 where a finite point of p lies strictly below the graph, else 0,
    reading phi through its extension beyond its box (grids clamp); a phi
    not finite at a projected base point is a NonFiniteState error."""
    base, t = _split_from(G, np.zeros(G.dim), p)
    values = phi.eval_extended(base)
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("phi is not finite at the base point of a cone point")
    return (t < values).astype(float)
