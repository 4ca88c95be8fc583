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

import numpy as np

from . import group as gp
from .area import subgraph_indicator_extended
from .errors import (
    DegenerateZ,
    InvalidK,
    PointOutsideCone,
    ValidationError,
    ValueNotRepresentable,
)
from .quadrature import check_work_budget
from .splitting import Cone, cone_membership, graph_map, graph_point


def beta_for_k(k, epsilon=1.0, b12=1.0):
    """Largest opening satisfying both defining constraints.

    The first is a quadratic inequality in beta with positive root
    eps^2 (b12/2 + sqrt(b12^2/4 + 3 b12 h / (2 eps^2))) / 2; the second
    bound k / sqrt(2 - 2k^2) is +inf at k = 1 and is dropped there.
    """
    k = float(k)
    if not (0.0 < k <= 1.0):
        raise InvalidK(f"k must lie in (0, 1], got {k}")
    if not (0.0 < epsilon <= 1.0):
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if b12 <= 0:
        raise ValidationError(f"b12 must be positive, got {b12}")
    h = np.sqrt(k * k / (2.0 - k * k))
    disc = b12 * b12 / 4.0 + 3.0 * b12 * h / (2.0 * epsilon ** 2)
    beta = epsilon ** 2 * (b12 / 2.0 + np.sqrt(disc)) / 2.0
    if k < 1.0:
        beta = min(beta, k / np.sqrt(2.0 - 2.0 * k * k))
    return float(beta)


def cone_window(k, epsilon=1.0, b12=1.0):
    """(beta, h) pair used by the parallelogram construction."""
    return beta_for_k(k, epsilon, b12), float(np.sqrt(k * k / (2.0 - k * k)))


def parallelogram_vertices(z, h):
    """Extremal vertices of {|eta2| <= -h eta1, |z2 - eta2| <= -h (z1 - eta1)}."""
    z1, z2 = float(z[0]), float(z[1])
    zh1 = np.array([(z2 + h * z1) / (2.0 * h), (z2 + h * z1) / 2.0])
    zh2 = np.array([(h * z1 - z2) / (2.0 * h), (z2 - h * z1) / 2.0])
    return zh1, zh2


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
    phi_of = lambda eta: b12 * (eta[1] * z[0] - eta[0] * z[1])
    v1, v2 = phi_of(zh1), phi_of(zh2)
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
    resid = abs(b12 * (eta[1] * p[0] - eta[0] * p[1]) - p[2])
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
    """
    if G.m != 2 or G.n != 1:
        raise ValidationError("sampler requires m=2, n=1")
    rng = np.random.default_rng(seed)
    b12 = float(G.B[0, 0, 1])
    beta, h = cone_window(k, G.epsilon, abs(b12))
    cone = Cone(np.zeros(3), beta)
    out = np.empty((count, 3))
    got = 0
    while got < count:
        p1 = -rng.uniform(0.05, 1.0)
        p2 = 0.9 * min(beta, h) * abs(p1) * rng.uniform(-1.0, 1.0)
        z = np.array([p1, p2])
        zh1, zh2 = parallelogram_vertices(z, h)
        vals = [b12 * (v[1] * z[0] - v[0] * z[1]) for v in (zh1, zh2)]
        lo_rep, hi_rep = min(vals), max(vals)
        # cone window on the vertical value
        half = (beta * p1 / G.epsilon) ** 2
        center = 0.5 * b12 * p1 * p2
        lo = max(center - half, lo_rep) * 0.9
        hi = min(center + half, hi_rep) * 0.9
        if hi <= lo:
            continue
        y = rng.uniform(lo, hi)
        p = np.array([p1, p2, y])
        if cone_membership(G, cone, p):         # p1 < 0: the lower half-cone
            out[got] = p
            got += 1
    return out


def plane_reduction(G, p, nu, k):
    """Projection data reducing the general half-cone condition to the
    plane spanned by the horizontal part: xi = |<x, nu>| / |x|, the
    normalized projected axis, and the rescaled vertical part p2 / xi^2.

    Rejects inputs with xi < 1/sqrt(1 + beta^2), outside the validity of
    the reduction.
    """
    p = np.asarray(p, dtype=float)
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    x, y = p[:G.m], p[G.m:]
    nx = np.linalg.norm(x)
    if nx == 0:
        raise DegenerateZ("horizontal part vanishes")
    beta = beta_for_k(k, G.epsilon, max(G.b_max, 1e-12))
    t = float(x @ nu)
    xi = abs(t) / nx
    if xi < 1.0 / np.sqrt(1.0 + beta * beta) - 1e-12:
        raise PointOutsideCone(
            f"projection size xi={xi:.6g} below the admissible threshold")
    nu_hat = np.sign(t) * x / nx
    return {"xi": xi, "nu_hat": nu_hat, "p2_rescaled": y / xi ** 2, "beta": beta}


def check_cone_containment(G, phi, beta, samples=10_000, seed=0, radius=0.5):
    """Sampled verification that lower/upper half-cones at graph points stay
    inside / outside the subgraph.

    Cone points are built as q = Phi(a) * (w * (t e1)) with ||w|| below
    0.95 beta |t|, so they satisfy the strict cone condition by
    construction; the report counts indicator disagreements (0 expected
    for openings below the intrinsic-Lipschitz threshold).
    """
    if beta <= 0:
        raise ValidationError("cone opening must be positive")
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    check_work_budget(samples, "the cone-containment check", "samples")
    rng = np.random.default_rng(seed)
    box = phi.domain
    inner_lo = box.lo + 0.1 * (box.hi - box.lo)
    inner_hi = box.hi - 0.1 * (box.hi - box.lo)
    A = rng.uniform(inner_lo, inner_hi, size=(samples, box.dim))
    P = graph_map(G, phi, A, check_domain=False)
    t = rng.uniform(0.05, 1.0, size=samples) * radius
    sides = rng.integers(0, 2, size=samples) * 2 - 1     # -1: below, +1: above
    t = t * sides
    # W-component with homogeneous norm <= 0.95 beta |t|
    r_w = 0.95 * beta * np.abs(t)
    xhat = rng.uniform(-1.0, 1.0, size=(samples, G.m - 1))
    xhat *= (r_w / np.maximum(np.linalg.norm(xhat, axis=-1), 1e-300))[:, None] \
        * rng.uniform(0.0, 1.0, size=samples)[:, None]
    yv = rng.uniform(-1.0, 1.0, size=(samples, G.n))
    y_cap = (r_w / G.epsilon) ** 2
    yn = np.linalg.norm(yv, axis=-1)
    yv *= (y_cap / np.maximum(yn, 1e-300))[:, None] \
        * rng.uniform(0.0, 1.0, size=samples)[:, None]
    q = gp.multiply(G, P, graph_point(G, np.concatenate([xhat, yv], axis=-1), t))
    inside = subgraph_indicator_extended(G, phi, q)
    expected = (sides < 0).astype(float)
    violations = int(np.count_nonzero(inside != expected))
    return {
        "samples": samples,
        "violations": violations,
        "beta": beta,
        "radius": radius,
    }
