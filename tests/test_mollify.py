from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot import errors
from carnot import mollify
from carnot.area import area_integral
from carnot.calculus import _intrinsic_gradient, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.group import multiply
from carnot.mollify import (
    MollifierKernel,
    _bump,
    _nonzero_node_count,
    _radial_mass,
    _section_roots,
    approximation_report,
    horizontal_gradient_mass,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.quadrature import tensor_grid
from carnot.splitting import _split
from conftest import embed_base, lift_graph_value, unit_box

# (group fixture, kernel points per axis, expression) for the four groups
FOUR_GROUPS = [("heis1", 16, "0.3*sin(x2) + 0.2*y"),
               ("heis2", 8, "0.5*x2 + 0.25*x4"),
               ("free3", 6, "0.3*x2 - 0.2*y1 + 0.1*x3*y3"),
               ("quat", 4, "0.3*x2 - 0.2*y1 + 0.1*x4*y3")]


@pytest.fixture(scope="module")
def phi_unit(heis1):
    return GraphFunction.from_expression("x2", Box([0.0, 0.0], [1.0, 1.0]), 2, 1)


@pytest.fixture(scope="module")
def kernel01(heis1):
    return MollifierKernel(heis1, 0.1)


def section_point(G, a, t):
    return multiply(G, embed_base(G, np.asarray(a)),
                    lift_graph_value(G, np.asarray(t)))


def test_radial_mass_memo_matches_quadrature():
    for dim in range(1, 6):
        assert _radial_mass(dim) == _radial_mass.__wrapped__(dim)


def test_kernel_mass_normalized(heis1, free3):
    for alpha in (0.2, 0.05):
        kern = MollifierKernel(heis1, alpha)
        assert abs(kern.mass() - 1.0) <= 1e-3
    kern = MollifierKernel(free3, 0.2, points_per_axis=6)
    assert abs(kern.mass() - 1.0) <= 1e-3


def _full_grid_mass(kern, k):
    # the kernel mass on the unfolded k^dim grids of both factor blocks
    G, a = kern.G, kern.alpha

    def block(dim, half, scale):
        pts = tensor_grid(np.full(dim, -half), np.full(dim, half), (k,) * dim)
        vals = _bump(scale * np.sum(pts * pts, axis=-1))
        return float(np.sum(vals)) * (2.0 * half / k) ** dim

    ix = block(G.m, a, 1.0 / a ** 2)
    iy = block(G.n, a * a / G.epsilon ** 2, G.epsilon ** 4 / a ** 4)
    return ix * iy * kern.normalizer / a ** G.homogeneous_dimension


@pytest.mark.parametrize("k", [12, 13, 48])
def test_kernel_mass_folded_matches_full_grid(heis1, heis2, k):
    for G, alpha in ((heis1, 0.1), (heis2, 0.15)):
        kern = MollifierKernel(G, alpha, points_per_axis=8)
        full = _full_grid_mass(kern, k)
        assert kern.mass(points_per_axis=k) == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize("group, k", [("heis1", 16), ("heis2", 8), ("free3", 6)])
def test_kernel_convolution_set_is_nonzero_nodes(request, group, k):
    G = request.getfixturevalue(group)
    kern = MollifierKernel(G, 0.15, points_per_axis=k)
    # nodes and weights stay the whole grid
    assert kern.nodes.shape == (k ** G.dim, G.dim)
    half = np.array([0.15] * G.m + [0.15 ** 2 / G.epsilon ** 2] * G.n)
    assert np.array_equal(kern.nodes, tensor_grid(-half, half, (k,) * G.dim))
    profile = kern._profile(kern.nodes)
    assert np.allclose(kern.weights, profile / np.sum(profile), rtol=1e-12, atol=0.0)
    # the convolution runs over exactly the nonzero-weight nodes
    keep = kern.weights > 0.0
    assert kern._conv_weights.size == np.count_nonzero(kern.weights) < k ** G.dim
    assert np.array_equal(kern._conv_weights, kern.weights[keep])
    assert np.array_equal(kern._conv_nodes, kern.nodes[keep])


@pytest.mark.parametrize("group", ["heis1", "heis2", "free3", "quat"])
def test_nonzero_node_count_matches_built_kernel(request, group):
    # the count the work budget is checked against before any kernel is built
    G = request.getfixturevalue(group)
    for k in (4, 6, 8, 16):
        if k ** G.dim > 2 ** 18:
            continue
        for alpha in (0.013, 0.05, 0.3):
            kern = MollifierKernel(G, alpha, points_per_axis=k)
            assert _nonzero_node_count(G, k) == kern._conv_weights.size


def test_kernel_symmetric(kernel01):
    vals = kernel01._profile(kernel01.nodes)
    flipped = kernel01._profile(-kernel01.nodes)
    assert np.allclose(vals, flipped)


def test_kernel_underflow():
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=1.0)
    with pytest.raises(errors.QuadratureUnderflow):
        MollifierKernel(G, 0.1, points_per_axis=3)
    # the report counts kernel nodes before building a kernel: same error
    phi = GraphFunction.from_expression("x2", unit_box(2), 2, 1)
    for k in (3, 0, -2):
        with pytest.raises(errors.QuadratureUnderflow, match="at least 4"):
            approximation_report(G, phi, [0.1], grid_per_axis=4, points_per_axis=k)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_kernel_rejects_non_finite_alpha(alpha):
    # a NaN alpha ran all root sweeps and failed as "quadrature too coarse"
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=1.0)
    with pytest.raises(errors.ValidationError, match="positive and finite"):
        MollifierKernel(G, alpha)


def test_indicator_range_and_extremes(heis1, phi_unit, kernel01):
    rng = np.random.default_rng(109)
    a = phi_unit.domain.sample(64, rng)
    t = rng.uniform(-3.0, 3.0, size=64)
    f = mollified_indicator(heis1, phi_unit, kernel01, section_point(heis1, a, t))
    assert np.all((0.0 <= f) & (f <= 1.0))
    deep = mollified_indicator(heis1, phi_unit, kernel01,
                               section_point(heis1, a, np.full(64, -2.5)))
    high = mollified_indicator(heis1, phi_unit, kernel01,
                               section_point(heis1, a, np.full(64, 2.5)))
    assert np.all(deep == 1.0)
    assert np.all(high == 0.0)


@pytest.mark.parametrize("alpha", [0.15, 0.3])
def test_indicator_deep_inside_is_exactly_one(heis1, phi_unit, alpha):
    # the normalized weights of these kernels sum to 1 + 1 ulp in the BLAS
    # order used for four points; f_alpha must still stay in [0, 1]
    kern = MollifierKernel(heis1, alpha)
    A = tensor_grid([0.0, 0.0], [1.0, 1.0], (2, 2))
    P = section_point(heis1, A, np.full(4, -2.5))
    assert np.all(mollified_indicator(heis1, phi_unit, kern, P) == 1.0)


@given(h2=st.booleans(), alpha=st.floats(0.05, 0.3), slope=st.floats(-1.0, 1.0),
       base=st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4),
       ts=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6))
def test_indicator_range_and_monotone_property(heis1, heis2, h2, alpha, slope,
                                               base, ts):
    G, k = (heis2, 4) if h2 else (heis1, 8)
    d = G.base_dim
    phi = GraphFunction.from_expression(f"{slope!r}*x2", Box([0.0] * d, [1.0] * d),
                                        G.m, G.n)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    ts = np.sort(ts)
    a = np.tile(base[:d], (len(ts), 1))
    f = mollified_indicator(G, phi, kern, section_point(G, a, ts))
    assert np.all((0.0 <= f) & (f <= 1.0))
    # nonincreasing along t e1, up to rounding
    assert np.all(np.diff(f) <= 1e-12)


def _full_grid_indicator(G, phi, kernel, P):
    # f_alpha as a convolution over every grid node with 3-operand einsum
    # bracket terms, kept as the reference for the pruned convolution
    m = G.m
    U, W = kernel.nodes, kernel.weights
    out = np.zeros(P.shape[0])
    chunk = max(1, 2 ** 21 // P.shape[0])
    px, py = P[:, :m], P[:, m:]
    row1 = G.B[:, 0, :]
    for start in range(0, U.shape[0], chunk):
        u, w = U[start:start + chunk], W[start:start + chunk]
        ux, uy = u[:, :m], u[:, m:]
        vx = px[:, None, :] - ux[None, :, :]
        br = np.einsum("sij,kj,bi->bks", G.B, ux, px)
        vy = py[:, None, :] - uy[None, :, :] - 0.5 * br
        t = vx[..., 0]
        corr = np.einsum("sj,bkj->bks", row1, vx)
        base = np.concatenate([vx[..., 1:], vy - 0.5 * t[..., None] * corr],
                              axis=-1)
        g = phi.eval_extended(base) - t
        out += np.clip(0.5 + g / kernel.subcell_width, 0.0, 1.0) @ w
    return np.clip(out, 0.0, 1.0)


def _phi_of_kind(G, expr):
    # "grid": 0.3*sin(x2) + 0.2*y sampled on a 9 x 9 grid; "callable": x2,
    # returned as a read-only view of the points it is given, so that
    # f_alpha may not write it; anything else is an expression
    d = G.dim - 1
    box = Box([0.0] * d, [1.0] * d)
    if expr == "grid":
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9),
                           indexing="ij")
        return GraphFunction.from_grid(0.3 * np.sin(x) + 0.2 * y, box)
    if expr == "callable":
        return GraphFunction.from_callable(
            lambda a: np.broadcast_to(a[..., 0], a.shape[:-1]), box)
    return GraphFunction.from_expression(expr, box, G.m, G.n)


@pytest.mark.parametrize("group, k, expr, alpha", [
    ("heis1", 16, "0.3*sin(x2) + 0.2*y", 0.1),
    ("heis2", 8, "0.5*x2 + 0.25*x4", 0.15),
    ("free3", 6, "0.3*x2 - 0.2*y1 + 0.1*x3*y3", 0.2),
    ("heis1", 16, "grid", 0.1),
    ("heis2", 8, "callable", 0.15),
])
def test_indicator_matches_full_grid_convolution(request, group, k, expr, alpha):
    G = request.getfixturevalue(group)
    d = G.dim - 1
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    rng = np.random.default_rng(211)
    A = rng.uniform(0.0, 1.0, size=(256, d))
    t = phi.eval_extended(A) + rng.uniform(-2.0 * alpha, 2.0 * alpha, size=256)
    P = section_point(G, A, t)
    f = mollified_indicator(G, phi, kern, P)
    assert np.max(np.abs(f - _full_grid_indicator(G, phi, kern, P))) <= 1e-13
    # the points straddle the graph: both ramps and saturated values occur
    assert np.any((0.0 < f) & (f < 1.0)) and np.any(f == 0.0)


def _one_pass_indicator(G, phi, kernel, P):
    # f_alpha as one loop: split, phi - t and the ramp sums per node chunk,
    # with no ramp arguments shared between shifts
    delta = kernel.subcell_width
    below = np.zeros(P.shape[0])
    above = np.zeros(P.shape[0])
    chunk = max(1, mollify._BATCH_OPS_LIMIT // P.shape[0])
    for start in range(0, kernel._conv_weights.size, chunk):
        w = kernel._conv_weights[start:start + chunk]
        base, t = _split(G, kernel._conv_terms, P, start, start + chunk)
        frac = np.subtract(phi.eval_extended(base), t)
        frac /= delta
        frac += 0.5
        np.clip(frac, 0.0, 1.0, out=frac)
        below += frac @ w
        np.subtract(1.0, frac, out=frac)
        above += frac @ w
    return below / (below + above)


def _group_case(request, index):
    name, k, expr = FOUR_GROUPS[index]
    G = request.getfixturevalue(name)
    d = G.base_dim
    return G, k, GraphFunction.from_expression(expr, Box([0.0] * d, [1.0] * d),
                                               G.m, G.n)


def _straddling_points(G, phi, alpha, count, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(count, G.base_dim))
    t = phi.eval_extended(A) + rng.uniform(-2.0 * alpha, 2.0 * alpha, size=count)
    return section_point(G, A, t)


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 0.3), count=st.sampled_from([1, 256]),
       chunked=st.booleans())
def test_indicator_bitwise_matches_one_pass_loop_property(request, index, seed, alpha,
                                                   count, chunked):
    # the s = 0 share of the ramp arguments is the one-pass loop's f_alpha
    # bit for bit; a small chunk limit splits the nodes of every point batch
    G, k, phi = _group_case(request, index)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, count, seed)
    limit = 2 ** 12 if chunked else mollify._BATCH_OPS_LIMIT
    with mock.patch.object(mollify, "_BATCH_OPS_LIMIT", limit):
        if chunked and count > 1:
            assert len(mollify._node_chunks(kern, count)) > 1
        f = mollified_indicator(G, phi, kern, P)
        assert np.array_equal(f, _one_pass_indicator(G, phi, kern, P))
        if count == 1:
            assert mollified_indicator(G, phi, kern, P[0]) == f[0]


def _two_call_column(G, phi, kern, P, j, h):
    # X_j f_alpha as the central difference of two full convolutions
    step = np.zeros(G.dim)
    step[j] = h
    return (mollified_indicator(G, phi, kern, multiply(G, P, step))
            - mollified_indicator(G, phi, kern, multiply(G, P, -step))) / (2.0 * h)


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 0.3))
def test_gradient_from_ramp_table_property(request, index, seed, alpha):
    # X_1 f_alpha from the ramp slopes against the two-call central
    # difference; X_j g of every (point, node) pair, the intrinsic gradient
    # at the split base frozen at t, against a central difference of g
    # along p * (+-h e_j)
    G, k, phi = _group_case(request, index)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, 32, seed)
    grad = horizontal_gradient_mollified(G, phi, kern, P)
    col = _two_call_column(G, phi, kern, P, 0, alpha / 64.0)
    assert np.max(np.abs(grad[:, 0] - col)) <= 1e-9
    base, t = _split(G, kern._conv_terms, P)
    xg = _intrinsic_gradient(G, phi, base, t)
    h = 1e-5
    for j in range(1, G.m):
        step = np.zeros(G.dim)
        step[j] = h
        fwd_base, fwd_t = _split(G, kern._conv_terms, multiply(G, P, step))
        bwd_base, bwd_t = _split(G, kern._conv_terms, multiply(G, P, -step))
        diff = ((phi.eval_extended(fwd_base) - fwd_t)
                - (phi.eval_extended(bwd_base) - bwd_t)) / (2.0 * h)
        assert np.max(np.abs(xg[..., j - 1] - diff)) <= 9e-11


@pytest.mark.parametrize("group, k, expr", [
    ("heis1", 8, "0.5*x2"),
    ("heis2", 4, "0.5*x2 + 0.25*x4"),
    ("free3", 4, "0.3*x2 - 0.2*y1 + 0.1*y3"),
    ("quat", 4, "0.3*x2 - 0.2*y1 + 0.1*y3"),
])
def test_frame_columns_match_two_calls_away_from_kinks(request, group, k, expr):
    # for affine phi, g moves by h X_j g along p * (h e_j); where no g lies
    # within h max(1, |X_j g|) of a kink, both the ramp slopes and the
    # two-call central difference are exact
    G = request.getfixturevalue(group)
    alpha = 0.05
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, 64, 223)
    h = alpha / 64.0
    base, t = _split(G, kern._conv_terms, P)
    g = phi.eval_extended(base) - t
    reach = h * np.maximum(1.0, np.max(np.abs(_intrinsic_gradient(G, phi, base, t)),
                                       axis=-1))
    half = 0.5 * kern.subcell_width
    clear = np.all(np.abs(np.abs(g) - half) > reach, axis=1)
    # of those, the points that see a ramp, not only saturated nodes
    seen = clear & np.any(np.abs(g) < half, axis=1)
    assert np.count_nonzero(seen) >= 4
    grad = horizontal_gradient_mollified(G, phi, kern, P[seen])
    assert np.all(grad[:, 0] < 0.0)
    for j in range(G.m):
        col = _two_call_column(G, phi, kern, P[seen], j, h)
        assert np.max(np.abs(grad[:, j] - col)) <= 1e-9


@pytest.mark.parametrize("group, k, expr", [
    ("heis1", 16, "0.7*x2"),
    ("heis2", 8, "0.4*x2 + 0.3*x4"),
])
def test_level_set_gradient_of_affine_phi_is_exact(request, group, k, expr):
    # every X_j g equals the constant gradient of phi, so the beta-weighted
    # ratio -X_j f / X_1 f returns it up to rounding
    G = request.getfixturevalue(group)
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, 0.1, points_per_axis=k)
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (3,) * G.base_dim)
    roots = level_set_phi_alpha(G, phi, kern, 0.45, A)
    grad = intrinsic_gradient_of_level_set(G, phi, kern, A, roots)
    assert np.max(np.abs(grad - intrinsic_gradient(G, phi, A))) <= 1e-12


def _counted_phi(G, calls):
    # 0.3 x2 as a callable that counts its evaluations on the node set,
    # the (points, nodes, base) arrays of a split
    def fn(a):
        if a.ndim == 3:
            calls.append(a.shape[:2])
        return 0.3 * a[..., 0]

    d = G.base_dim
    return GraphFunction.from_callable(fn, Box([0.0] * d, [1.0] * d))


@pytest.mark.parametrize("index", range(4))
def test_phi_evaluations_on_node_set_counted(request, index):
    G, k, _ = _group_case(request, index)
    calls = []
    phi = _counted_phi(G, calls)
    kern = MollifierKernel(G, 0.2, points_per_axis=k)
    A = tensor_grid([0.0] * G.base_dim, [1.0] * G.base_dim, (2,) * G.base_dim)
    pairs = len(A) * kern._conv_weights.size
    roots, evals, _ = _section_roots(G, phi, kern, 0.5, A)
    # one split of every (base point, node) pair, however many passes; the
    # pairs are counted, so the node chunks do not matter
    assert sum(rows * cols for rows, cols in calls) == pairs
    assert evals > 4 * len(A)
    calls.clear()
    horizontal_gradient_mollified(G, phi, kern, section_point(G, A, roots))
    # g once, then phi's central differences along X_2..X_m
    assert sum(rows * cols for rows, cols in calls) == (2 * G.m - 1) * pairs


def test_indicator_half_at_flat_graph(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    val = mollified_indicator(heis1, phi0, kernel01, np.zeros(3))
    assert val == pytest.approx(0.5, abs=2e-3)


def test_section_monotone(heis1, kernel01):
    phi = GraphFunction.from_expression("0.3*sin(x2) + 0.2*y", unit_box(2), 2, 1)
    a = np.array([0.2, -0.1])
    ts = np.linspace(-1.5, 1.5, 121)
    f = mollified_indicator(heis1, phi, kernel01,
                            section_point(heis1, np.tile(a, (121, 1)), ts))
    assert np.all(np.diff(f) <= 1e-12)
    # strictly decreasing through the level
    mid = np.abs(f - 0.5) < 0.3
    assert np.all(np.diff(f[mid]) < 0)


def test_level_set_flat_graph(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    t = level_set_phi_alpha(heis1, phi0, kernel01, 0.5, np.array([0.1, 0.2]))
    assert t == pytest.approx(0.0, abs=2e-3)


def test_level_set_residual_contract(heis1, phi_unit, kernel01):
    rng = np.random.default_rng(113)
    A = phi_unit.domain.sample(16, rng)
    t = level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, A)
    pts = section_point(heis1, A, t)
    f = mollified_indicator(heis1, phi_unit, kernel01, pts)
    assert np.all(np.abs(f - 0.5) <= 1e-3)


def test_level_set_smoothness_diagnostic(heis1, phi_unit, kernel01):
    # second differences of phi_alpha bounded uniformly at fixed alpha
    xs = np.linspace(0.2, 0.8, 31)
    A = np.stack([xs, np.full_like(xs, 0.4)], axis=-1)
    t = level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, A)
    second = np.abs(np.diff(t, 2)) / (xs[1] - xs[0]) ** 2
    assert np.max(second) < 5.0


def _bisection_roots(G, phi, kernel, c_level, A, t_tol):
    # plain bisection to a bracket of t_tol with |f - c| <= 1e-3 at an end;
    # returns the end of the final bracket with the smaller |f - c| and the
    # point-evaluations spent.  The bracket is +-(2M + 1), M the sup of |phi|
    # sampled on the domain padded by 1, and is checked to straddle the level.
    pad = tensor_grid(phi.domain.lo - 1.0, phi.domain.hi + 1.0,
                      (9,) * phi.domain.dim, nodes="endpoint")
    M = float(np.max(np.abs(phi.eval_extended(pad))))
    lo = np.full(len(A), -2.0 * M - 1.0)
    hi = -lo

    def section(t):
        return mollified_indicator(G, phi, kernel, section_point(G, A, t)) - c_level

    f_lo, f_hi = section(lo), section(hi)
    assert np.all(f_lo > 0.0) and np.all(f_hi <= 0.0)
    r_lo, r_hi = np.abs(f_lo), np.abs(f_hi)
    evals = 2 * len(A)
    while (np.any(hi - lo > t_tol)
           or np.any(np.minimum(r_lo, r_hi) > 1e-3)):
        mid = 0.5 * (lo + hi)
        f = section(mid)
        evals += len(A)
        up = f > 0.0
        lo, r_lo = np.where(up, mid, lo), np.where(up, np.abs(f), r_lo)
        hi, r_hi = np.where(up, hi, mid), np.where(up, r_hi, np.abs(f))
    return np.where(r_hi < r_lo, hi, lo), evals


@pytest.mark.parametrize("group, k, expr, alpha, c_level, per_axis", [
    ("heis1", 16, "x2", 0.1, 0.45, 6),
    ("heis1", 16, "0.25*y", 0.2, 0.5, 10),
    ("heis1", 16, "0.25*y", 0.05, 0.5, 10),
    ("heis2", 8, "0.5*x2 + 0.25*x4", 0.15, 0.5, 3),
])
def test_level_set_no_more_evaluations_than_bisection(request, group, k, expr,
                                                      alpha, c_level, per_axis):
    G = request.getfixturevalue(group)
    d = G.dim - 1
    box = Box([0.0] * d, [1.0] * d)
    phi = GraphFunction.from_expression(expr, box, G.m, G.n)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    A = tensor_grid(box.lo, box.hi, (per_axis,) * d)
    t_tol = 1e-6 * alpha
    roots, evals, resid = _section_roots(G, phi, kern, c_level, A)
    ref, ref_evals = _bisection_roots(G, phi, kern, c_level, A, t_tol)
    assert evals <= ref_evals
    assert np.max(np.abs(roots - ref)) <= t_tol
    assert resid <= 1e-12
    # recomputed in one batch, f_alpha may differ in the last bits
    f = mollified_indicator(G, phi, kern, section_point(G, A, roots))
    assert np.max(np.abs(f - c_level)) == pytest.approx(resid, abs=1e-14)


def test_level_set_root_at_left_end_of_flat_interval(heis1):
    # here f_alpha equals c on t in [0.06236, 0.06264]: no ramp is active
    # there and the kernel weight below the graph is exactly half; the root
    # is inf{t : f_alpha <= c}, the left end
    phi = GraphFunction.from_expression("0.25*y", Box([0.0, 0.0], [1.0, 1.0]), 2, 1)
    kern = MollifierKernel(heis1, 0.05, points_per_axis=16)
    a = np.array([0.95, 0.25])
    root = level_set_phi_alpha(heis1, phi, kern, 0.5, a)
    assert abs(root - 0.06236) <= 1e-5
    f = mollified_indicator(heis1, phi, kern, section_point(heis1, a, root))
    assert abs(f - 0.5) <= 1e-15
    before = mollified_indicator(heis1, phi, kern, section_point(heis1, a, root - 1e-5))
    assert before > 0.5


def test_level_set_rejects_non_finite_phi(heis1, kernel01):
    # a NaN in the ramp table is reported before the kinks are sorted
    phi = GraphFunction.from_callable(
        lambda a: np.where(a[..., 0] > 0.9, np.nan, a[..., 0]), unit_box(2))
    with pytest.raises(errors.NonFiniteState):
        level_set_phi_alpha(heis1, phi, kernel01, 0.5, np.array([[0.1, 0.2], [0.85, 0.2]]))


def test_horizontal_gradient_sign_and_flat(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    rng = np.random.default_rng(127)
    a = 0.5 * rng.uniform(-1, 1, size=(32, 2))
    pts = section_point(heis1, a, np.zeros(32))
    grad = horizontal_gradient_mollified(heis1, phi0, kernel01, pts)
    assert np.all(grad[:, 0] < 0.0)
    assert np.allclose(grad[:, 1], 0.0, atol=1e-8)


def test_gradient_ratio_matches_w(heis1, phi_unit):
    kern = MollifierKernel(heis1, 0.05)
    rng = np.random.default_rng(131)
    A = 0.25 + 0.5 * rng.uniform(0, 1, size=(16, 2))
    t = level_set_phi_alpha(heis1, phi_unit, kern, 0.5, A)
    w_alpha = intrinsic_gradient_of_level_set(heis1, phi_unit, kern, A, t)
    assert np.allclose(w_alpha[:, 0], 1.0, atol=0.05)


def test_approximation_report_flat(heis1):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    rep = approximation_report(heis1, phi0, [0.2, 0.1], c_level=0.5,
                               grid_per_axis=6, gradient_samples=8)
    for row in rep["rows"]:
        assert row["sup_error"] <= 2e-3
        assert row["gradient_sup"] <= 1e-6
    assert rep["rate_at_noise_floor"]
    assert rep["passed"]


def test_approximation_report_linear_rate(heis1, phi_unit):
    rep = approximation_report(heis1, phi_unit, [0.2, 0.1], c_level=0.45,
                               grid_per_axis=8, gradient_samples=16)
    ratios = [row["rate_ratio"] for row in rep["rows"]]
    assert max(ratios) <= 2.0 * min(ratios)
    for row in rep["rows"]:
        assert row["gradient_sup"] <= 1.10 * rep["w_inf_measured"]
    assert rep["passed"]


def test_pipeline_vertical_dependence(heis1):
    # y-dependent graph: bracket corrections enter the pulled-back base
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("0.25*y", box, 2, 1)
    from carnot.calculus import intrinsic_gradient
    A = tensor_grid(box.lo, box.hi, (10, 10))
    w_inf = np.max(np.abs(intrinsic_gradient(heis1, phi, A)))
    for alpha in (0.2, 0.05):
        kern = MollifierKernel(heis1, alpha)
        pa = level_set_phi_alpha(heis1, phi, kern, 0.5, A)
        assert np.max(np.abs(pa - phi.eval_extended(A))) <= 0.01 * alpha
        grad = intrinsic_gradient_of_level_set(heis1, phi, kern, A[::7], pa[::7])
        assert np.max(np.abs(grad)) <= 1.10 * w_inf


def test_pipeline_higher_dimensional_group(heis2):
    # m = 4: base dim 4, one vertical direction
    box = Box([0.0] * 4, [1.0] * 4)
    phi = GraphFunction.from_expression("0.5*x2 + 0.25*x4", box, 4, 1)
    kern = MollifierKernel(heis2, 0.15, points_per_axis=8)
    assert abs(kern.mass() - 1.0) <= 1e-3
    A = tensor_grid(box.lo, box.hi, (3,) * 4)
    pa = level_set_phi_alpha(heis2, phi, kern, 0.5, A)
    assert np.max(np.abs(pa - phi.eval_extended(A))) <= 5e-3


def test_pipeline_small_epsilon():
    # eps < 1 widens the kernel's vertical support (alpha^2 / eps^2)
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=0.5)
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    kern = MollifierKernel(G, 0.1)
    assert abs(kern.mass() - 1.0) <= 1e-3
    A = tensor_grid(box.lo, box.hi, (6, 6))
    pa = level_set_phi_alpha(G, phi, kern, 0.45, A)
    err = np.max(np.abs(pa - phi.eval_extended(A)))
    assert err <= 0.1 * kern.alpha


def test_gradient_mass_matches_area(heis1, phi_unit):
    kern = MollifierKernel(heis1, 0.05)
    rep = horizontal_gradient_mass(heis1, phi_unit, kern, base_per_axis=8)
    area = area_integral(heis1, phi_unit)
    assert rep["edge_gradient_max"] <= 1e-8
    assert abs(rep["mass"] - area) <= 0.03 * area
