import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot import errors
from carnot.area import area_integral
from carnot.functions import Box, GraphFunction
from carnot.group import multiply
from carnot.mollify import (
    LEVEL_RESIDUAL_TOL,
    MollifierKernel,
    _bump,
    _radial_mass,
    _section_roots,
    _sup_abs_extended,
    approximation_report,
    horizontal_gradient_mass,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.quadrature import tensor_grid
from conftest import embed_base, lift_graph_value, unit_box


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


def test_kernel_symmetric(kernel01):
    vals = kernel01._profile(kernel01.nodes)
    flipped = kernel01._profile(-kernel01.nodes)
    assert np.allclose(vals, flipped)


def test_kernel_underflow():
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=1.0)
    with pytest.raises(errors.QuadratureUnderflow):
        MollifierKernel(G, 0.1, points_per_axis=3)


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
    t = level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, A,
                            t_tol=1e-8)
    second = np.abs(np.diff(t, 2)) / (xs[1] - xs[0]) ** 2
    assert np.max(second) < 5.0


def _bisection_roots(G, phi, kernel, c_level, A, t_tol):
    # plain bisection under the same stop rule; returns the end of the final
    # bracket with the smaller |f - c| and the point-evaluations spent
    M = _sup_abs_extended(G, phi, kernel)
    lo = np.full(len(A), -2.0 * M - 1.0)
    hi = -lo

    def section(t):
        return mollified_indicator(G, phi, kernel, section_point(G, A, t)) - c_level

    r_lo, r_hi = np.abs(section(lo)), np.abs(section(hi))
    evals = 2 * len(A)
    while (np.any(hi - lo > t_tol)
           or np.any(np.minimum(r_lo, r_hi) > LEVEL_RESIDUAL_TOL)):
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
    roots, evals, resid = _section_roots(G, phi, kern, c_level, A, t_tol)
    ref, ref_evals = _bisection_roots(G, phi, kern, c_level, A, t_tol)
    assert evals <= ref_evals
    assert np.max(np.abs(roots - ref)) <= t_tol
    assert resid <= LEVEL_RESIDUAL_TOL
    # recomputed in one batch, f_alpha may differ in the last bits
    f = mollified_indicator(G, phi, kern, section_point(G, A, roots))
    assert np.max(np.abs(f - c_level)) == pytest.approx(resid, abs=1e-14)


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
    t = level_set_phi_alpha(heis1, phi_unit, kern, 0.5, A, t_tol=1e-8)
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
        pa = level_set_phi_alpha(heis1, phi, kern, 0.5, A, t_tol=1e-6 * alpha)
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
    pa = level_set_phi_alpha(heis2, phi, kern, 0.5, A, t_tol=1e-6)
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
    pa = level_set_phi_alpha(G, phi, kern, 0.45, A, t_tol=1e-7)
    err = np.max(np.abs(pa - phi.eval_extended(A)))
    assert err <= 0.1 * kern.alpha


def test_gradient_mass_matches_area(heis1, phi_unit):
    kern = MollifierKernel(heis1, 0.05)
    rep = horizontal_gradient_mass(heis1, phi_unit, kern, base_per_axis=8)
    area = area_integral(heis1, phi_unit)
    assert rep["edge_gradient_max"] <= 1e-8
    assert abs(rep["mass"] - area) <= 0.03 * area
