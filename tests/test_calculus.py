import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from carnot import errors
from carnot.calculus import (
    HORIZONTAL_GRADIENT_FLOOR,
    TestFunction,
    _frame_apply,
    _graph_gradient,
    distributional_residual,
    gradient_from_defining_function,
    intrinsic_derivative,
    intrinsic_gradient,
    residual_report,
)
from carnot.functions import Box, GraphFunction, VectorField, base_coordinate_names
from carnot.mollify import MollifierKernel, intrinsic_gradient_of_level_set
from carnot.quadrature import midpoint_rule, richardson_order
from carnot.group import multiply

from conftest import embed_base, lift_graph_value, unit_box

SMOOTH_EXAMPLES = [
    "x2",
    "y",
    "x2*y",
    "sin(x2)*cos(y)",
    "exp(x2/2) + y**2/4",
]


def test_intrinsic_derivative_linear(heis1, phi_x2):
    rng = np.random.default_rng(71)
    a = phi_x2.domain.sample(50, rng) * 0.9
    vals = intrinsic_derivative(heis1, phi_x2, 2, a)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_intrinsic_derivative_vertical(heis1, phi_y):
    # phi = y: coefficient phi * b21 = -y multiplies d/dy phi = 1
    rng = np.random.default_rng(73)
    a = phi_y.domain.sample(50, rng) * 0.9
    vals = intrinsic_derivative(heis1, phi_y, 2, a)
    assert np.allclose(vals, -a[:, 1], atol=1e-12)


@pytest.mark.parametrize("expr", SMOOTH_EXAMPLES)
def test_burgers_reduction(heis1, expr):
    # in the first Heisenberg group D_2 phi = d/dx2 phi - phi d/dy phi
    phi = GraphFunction.from_expression(expr, unit_box(2), 2, 1)
    rng = np.random.default_rng(79)
    a = phi.domain.sample(100, rng)
    got = intrinsic_derivative(heis1, phi, 2, a)
    grad = phi.partials(a)
    expected = grad[:, 0] - phi(a) * grad[:, 1]
    assert np.allclose(got, expected, atol=1e-10)


def test_fd_matches_analytic_order2(heis1):
    phi = GraphFunction.from_expression("sin(x2)*cos(y)", unit_box(2), 2, 1)
    a = np.array([[0.3, -0.2]])
    exact = intrinsic_derivative(heis1, phi, 2, a)[0]
    errs = []
    for h in (1e-2, 5e-3):
        fd = intrinsic_gradient(heis1, phi, a, h=np.array([h]))[0, 0]
        errs.append(abs(fd - exact))
    assert errs[0] / errs[1] >= 3.5


def test_fd_step_too_large(heis1, phi_x2):
    with pytest.raises(errors.StepTooLarge):
        intrinsic_gradient(heis1, phi_x2, np.array([[0.999, 0.0]]), h=np.array([0.1]))


def test_intrinsic_derivative_out_of_domain(heis1, phi_x2):
    with pytest.raises(errors.OutOfDomain):
        intrinsic_derivative(heis1, phi_x2, 2, np.array([[3.0, 0.0]]))


def test_gradient_from_linear_defining_function(heis1):
    # f = x1 - c2 x2 depends only on x, so X_j f = d/dx_j f
    c2 = 0.75

    def grad_f(p):
        g = np.zeros(p.shape)
        g[..., 0] = 1.0
        g[..., 1] = -c2
        return g

    rng = np.random.default_rng(83)
    p = rng.uniform(-1, 1, size=(100, 3))
    w = gradient_from_defining_function(heis1, grad_f, p)
    assert np.allclose(w, c2, atol=1e-13)


def test_gradient_from_x1_defining_function(heis1):
    def grad_f(p):
        g = np.zeros(p.shape)
        g[..., 0] = 1.0
        return g

    w = gradient_from_defining_function(heis1, grad_f, np.array([0.4, -0.2, 0.9]))
    assert np.allclose(w, 0.0)


def test_gradient_degenerate(heis1):
    def grad_f(p):
        return np.zeros(p.shape)

    with pytest.raises(errors.DegenerateHorizontalGradient):
        gradient_from_defining_function(heis1, grad_f, np.zeros(3))


def test_gradient_from_defining_function_heisenberg_frame(heis1):
    # f = x1 - c y: X1 f = 1 - c x2/2 and X2 f = c x1/2 (X1 = d/dx1 + x2/2
    # d/dy, X2 = d/dx2 - x1/2 d/dy), so both frame rows enter the quotient
    c = 0.8

    def grad_f(p):
        g = np.zeros(p.shape)
        g[..., 0] = 1.0
        g[..., 2] = -c
        return g

    p = np.random.default_rng(5).uniform(-1.5, 1.5, size=(200, 3))
    w = gradient_from_defining_function(heis1, grad_f, p)
    want = -(c * p[:, 0] / 2.0) / (1.0 - c * p[:, 1] / 2.0)
    assert w.shape == (200, 1)
    assert np.allclose(w[:, 0], want, rtol=1e-14, atol=1e-15)
    single = gradient_from_defining_function(heis1, grad_f, p[7])
    assert single.shape == (1,) and np.allclose(single, want[7], rtol=1e-14)


def test_gradient_from_defining_function_at_origin(all_groups):
    # the frame is the coordinate frame at 0: -grad_xhat f / d_1 f exactly
    rng = np.random.default_rng(9)
    for G in all_groups:
        grad = rng.uniform(-2.0, 2.0, size=G.dim)
        grad[0] = 1.5
        w = gradient_from_defining_function(G, lambda p: grad, np.zeros(G.dim))
        assert np.array_equal(w, -grad[1:G.m] / grad[0])


def test_graph_gradient_floor_on_both_routes(heis1):
    # |X_1 f| = 5e-13 lies below the one floor, on the defining-function
    # route and on the mollified level set alike
    x1f = 5e-13
    assert x1f <= HORIZONTAL_GRADIENT_FLOOR
    with pytest.raises(errors.DegenerateHorizontalGradient):
        _graph_gradient(np.array([x1f]), np.array([[1.0]]))

    def grad_f(p):
        return np.array([x1f, 1.0, 0.0])

    with pytest.raises(errors.DegenerateHorizontalGradient):
        gradient_from_defining_function(heis1, grad_f, np.zeros(3))
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    kern = MollifierKernel(heis1, 0.2, points_per_axis=4)
    with mock.patch("carnot.mollify._shifted_gradient",
                    return_value=np.array([[x1f, 1.0]])):
        with pytest.raises(errors.DegenerateHorizontalGradient):
            intrinsic_gradient_of_level_set(heis1, phi, kern, np.array([[0.5, 0.5]]),
                                            np.array([0.5]))


def _extract_graph_coordinate(G, f, a, bracket=(-10.0, 10.0)):
    """Root-find the graph coordinate of {f = 0} over base point a."""
    def section(t):
        p = multiply(G, embed_base(G, a), lift_graph_value(G, np.array(t)))
        return f(p)
    return brentq(section, *bracket, xtol=1e-13)


def test_gradient_defining_function_vs_level_set_oracle(heis1):
    # f = x1 - y: the level set is the graph of phi(x2, y) = y / (1 - x2/2)
    def f(p):
        return p[..., 0] - p[..., 2]

    def grad_f(p):
        g = np.zeros(p.shape)
        g[..., 0] = 1.0
        g[..., 2] = -1.0
        return g

    rng = np.random.default_rng(89)
    A = rng.uniform(-0.5, 0.5, size=(20, 2))
    closed_form = A[:, 1] / (1.0 - A[:, 0] / 2.0)
    roots = np.array([_extract_graph_coordinate(heis1, f, a) for a in A])
    assert np.allclose(roots, closed_form, atol=1e-10)

    graph_pts = multiply(heis1, embed_base(heis1, A), lift_graph_value(heis1, roots))
    w_frame = gradient_from_defining_function(heis1, grad_f, graph_pts)

    # independent route: finite differences of the numerically extracted graph
    h = 1e-5
    w_fd = np.empty(len(A))
    for i, a in enumerate(A):
        c = roots[i] * heis1.B[0, 1, 0]     # frozen vertical coefficient
        ap = a + h * np.array([1.0, c])
        am = a - h * np.array([1.0, c])
        w_fd[i] = (_extract_graph_coordinate(heis1, f, ap)
                   - _extract_graph_coordinate(heis1, f, am)) / (2.0 * h)
    assert np.allclose(w_frame[:, 0], w_fd, atol=1e-6)
    # closed form of the intrinsic gradient for this surface
    expected = -0.5 * closed_form / (1.0 - A[:, 0] / 2.0)
    assert np.allclose(w_frame[:, 0], expected, atol=1e-10)


def test_bump_gradient_matches_fd():
    zeta = TestFunction(center=np.array([0.1, -0.2]), radius=0.6)
    rng = np.random.default_rng(97)
    pts = np.array([0.1, -0.2]) + 0.5 * rng.uniform(-1, 1, size=(50, 2))
    grad = zeta.gradient(pts)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (zeta.value(pts + e) - zeta.value(pts - e)) / (2.0 * h)
        assert np.allclose(grad[:, axis], fd, atol=1e-6)


def test_bump_peak_and_support():
    zeta = TestFunction(center=np.zeros(2), radius=0.5)
    assert zeta.value(np.zeros(2)[None])[0] == pytest.approx(1.0)
    outside = np.array([[0.6, 0.0], [0.0, -0.7]])
    assert np.all(zeta.value(outside) == 0.0)
    assert np.all(zeta.gradient(outside) == 0.0)


def test_residual_zero_for_zero_data(heis1):
    box = unit_box(2)
    phi0 = GraphFunction.constant(0.0, box)
    w0 = VectorField.constant([0.0], box)
    zeta = TestFunction(np.zeros(2), 0.5)
    res = distributional_residual(heis1, phi0, w0, zeta)
    assert np.allclose(res, 0.0)


def test_residual_manufactured_solution_order(heis1):
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    w = VectorField.constant([1.0], box)
    zeta = TestFunction([0.5, 0.5], 0.4)
    res = []
    for k in (32, 64, 128):
        res.append(abs(distributional_residual(heis1, phi, w, zeta, k)[0]))
    assert res[0] > res[1] > res[2]
    assert richardson_order(*[r + 1e-18 for r in res]) >= 1.9 or res[2] < 1e-14


def test_residual_detects_wrong_w(heis1):
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    zeta = TestFunction([0.5, 0.5], 0.4)
    pts, cell = midpoint_rule(box.lo, box.hi, 128)
    good = abs(distributional_residual(
        heis1, phi, VectorField.constant([1.0], box), zeta, 128)[0])
    bad = abs(distributional_residual(
        heis1, phi, VectorField.constant([0.0], box), zeta, 128)[0])
    # wrong datum leaves the integral of zeta, far above the true residual
    assert bad > 10.0 * good
    assert bad == pytest.approx(np.sum(zeta.value(pts)) * cell, rel=1e-6)


def test_residual_smooth_solution_refines_to_zero(heis1):
    box = unit_box(2)
    phi = GraphFunction.from_expression("0.3*sin(x2) + 0.1*y", box, 2, 1)
    zeta = TestFunction([0.0, 0.0], 0.7)

    class WFromPhi:
        def __call__(self, pts):
            return intrinsic_gradient(heis1, phi, pts)

    res = []
    for k in (32, 64, 128):
        res.append(np.max(np.abs(
            distributional_residual(heis1, phi, WFromPhi(), zeta, k))))
    assert res[2] < res[0]
    assert res[2] < 1e-4


def test_residual_support_not_covered(heis1, phi_x2):
    w = VectorField.constant([1.0], phi_x2.domain)
    zeta = TestFunction([0.9, 0.9], 0.5)
    with pytest.raises(errors.SupportNotCovered):
        distributional_residual(heis1, phi_x2, w, zeta)


def _dense_residual(G, phi, w, zeta, k):
    """The residual with phi, w and the bump evaluated at every node of the
    full midpoint grid (the reference for the support-only evaluation);
    the nodes with |u| < 1 it finds."""
    box = phi.domain
    pts, cell = midpoint_rule(box.lo, box.hi, k)
    u = (pts - zeta.center) / zeta.radius
    t = np.sum(u * u, axis=-1)
    inside = t < 1.0
    zv = np.zeros_like(t)
    zv[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside]))
    zg = np.zeros_like(u)
    zg[inside] = -(zv[inside] / (1.0 - t[inside]) ** 2)[:, None] * 2.0 * u[inside] \
        / zeta.radius
    phi_v = phi.eval_extended(pts)
    vert = zg[..., G.m - 1:] @ G.B[:, 1:, 0]
    integrand = phi_v[..., None] * (_base_frame_apply(G, pts, zg) + phi_v[..., None] * vert)
    total = integrand + w(pts) * zv[..., None]
    res = np.array([float(np.sum(total[..., j]) * cell) for j in range(G.m - 1)])
    return res, int(np.sum(inside))


@given(st.integers(0, 3), st.integers(1, 16), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["ball", "inside one cell", "touching the box"]))
def test_residual_on_support_is_the_dense_sum_property(all_groups, index, k, seed, ball):
    # phi, w and zeta read on the support only, against every node read:
    # bitwise equal, but for the sign of an all-zero result when no node
    # lies in the ball; the grid is capped at about 2^18 nodes per case so
    # the dense reference stays small
    G = all_groups[index]
    d = G.base_dim
    k = min(k, int(2 ** (18 / d)))
    names = base_coordinate_names(G.m, G.n)
    box = Box([-1.0] * d, [1.5] * d)
    phi = GraphFunction.from_expression(
        f"0.3*sin(3*{names[0]})*cos({names[-1]}) + {names[-1]}**2 - 0.2", box, G.m, G.n)
    w = VectorField([GraphFunction.from_expression(f"{v}*{names[-1]} + 0.5", box, G.m, G.n)
                     for v in names[:G.m - 1]])
    rng = np.random.default_rng(seed)
    h = 2.5 / k
    if ball == "ball":
        r = rng.uniform(0.02, 1.25)
        c = rng.uniform(-1.0 + r, 1.5 - r, d)
    elif ball == "inside one cell":
        # a quarter cell from a node on every axis: no node within h/4
        r = rng.uniform(0.1, 0.9) * h / 4.0
        c = -1.0 + h * (rng.integers(0, k, d) + 0.25)
    else:
        # out of the box on one side by less than supported_inside's slack
        r = rng.uniform(0.05, 1.0)
        c = rng.uniform(-1.0 + r, 1.5 - r, d)
        axis = rng.integers(0, d)
        c[axis] = -1.0 + r - 0.5e-12 if rng.random() < 0.5 else 1.5 - r + 0.5e-12
    zeta = TestFunction(c, r)
    got = distributional_residual(G, phi, w, zeta, k)
    ref, nodes = _dense_residual(G, phi, w, zeta, k)
    assert residual_report(G, phi, w, zeta, k)["support_nodes"] == nodes
    if ball == "inside one cell":
        assert nodes == 0
    if nodes == 0:
        assert np.all(got == 0.0) and np.all(ref == 0.0)
    else:
        assert got.tobytes() == ref.tobytes()


def test_residual_reads_phi_on_the_support_only(heis1):
    # sqrt(x2 - 0.4) is NaN for x2 < 0.4, off the support 0.5 < x2 < 0.9;
    # the residual is finite and equals that of a phi agreeing on the
    # support (the dense sum was NaN)
    box = Box([0.0, 0.0], [1.0, 1.0])
    w = VectorField.constant([1.0], box)
    zeta = TestFunction([0.7, 0.5], 0.2)
    res = [distributional_residual(
        heis1, GraphFunction.from_expression(expr, box, 2, 1), w, zeta, 64)
        for expr in ("sqrt(x2 - 0.4)", "sqrt(abs(x2 - 0.4))")]
    assert np.all(np.isfinite(res[0]))
    assert res[0].tobytes() == res[1].tobytes()


def test_residual_grid_over_budget_allocates_nothing(heis1, phi_x2):
    w = VectorField.constant([1.0], phi_x2.domain)
    zeta = TestFunction([0.0, 0.0], 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(errors.GridTooLarge, match=f"tensor grid of {2 ** 24} nodes"):
            distributional_residual(heis1, phi_x2, w, zeta, 2 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.tuples(*[st.sampled_from([-0.5, 0.0, 0.25, 1.0])] * 3))
def test_intrinsic_gradient_one_pass_property(all_groups, index, seed, coef):
    # the one-pass gradient against each direction's own D_j, and against
    # the frozen-direction central difference
    G = all_groups[index]
    d = G.base_dim
    a0, b0, c0 = coef
    expr = f"{a0}*x2*y1 + {b0}*sin(x{G.m}) + {c0}*y{G.n}**2 + x2"
    phi = GraphFunction.from_expression(expr, unit_box(d), G.m, G.n)
    a = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(64, d))
    got = intrinsic_gradient(G, phi, a)
    assert got.shape == (64, G.m - 1)
    per_direction = np.stack([intrinsic_derivative(G, phi, j, a)
                              for j in range(2, G.m + 1)], axis=-1)
    np.testing.assert_allclose(got, per_direction, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(got, intrinsic_gradient(G, phi, a, h=1e-5),
                               rtol=1e-7, atol=1e-7)
    # a single point gives the row of the batch
    np.testing.assert_allclose(intrinsic_gradient(G, phi, a[3]), got[3],
                               rtol=1e-14, atol=1e-14)


def _base_frame_apply(G, a, zeta_grad):
    """The reference frame derivatives X_2..X_m of a test function on the
    base, as the residual formed them in their own loop."""
    xhat = a[..., :G.m - 1]
    grad_y = zeta_grad[..., G.m - 1:]
    for s in range(G.n):
        term = xhat @ G.B[s, 1:, 1:].T
        term *= 0.5
        term *= grad_y[..., s, None]
        if s == 0:
            xj = term
        else:
            xj += term
    xj += zeta_grad[..., :G.m - 1]
    return xj


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
def test_frame_apply_is_the_residual_frame(group_name, request):
    # the residual's X_j zeta is the frame with value 0, bitwise the
    # reference loop, zeros of the bump's gradient outside its ball included
    G = request.getfixturevalue(group_name)
    pts = np.random.default_rng(61).uniform(-1.0, 1.0, size=(2000, G.base_dim))
    pts[::5] *= -1.0
    zg = TestFunction(np.zeros(G.base_dim), 0.9).gradient(pts)
    got = _frame_apply(G, pts, 0.0, zg)
    assert got.tobytes() == _base_frame_apply(G, pts, zg).tobytes()


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
def test_intrinsic_derivative_is_a_gradient_column(group_name, request):
    # D_j phi, with analytic partials and by central differences of a
    # callable, is column j - 2 of the one-pass gradient, bitwise; a
    # direction outside 2..m is rejected at the entry
    G = request.getfixturevalue(group_name)
    names = base_coordinate_names(G.m, G.n)
    expr = " + ".join(f"{0.1 * (i + 1)}*sin({v})" for i, v in enumerate(names))
    phi = GraphFunction.from_expression(f"{expr} + 0.2*{names[0]}*{names[-1]}",
                                        unit_box(G.base_dim), G.m, G.n)
    # 1e-3 inside the box, so the difference stencils stay in the domain
    pts = np.random.default_rng(67).uniform(-0.999, 0.999, size=(500, G.base_dim))
    fd_phi = GraphFunction.from_callable(phi.eval_extended, phi.domain)
    for f in (phi, fd_phi):
        grad = intrinsic_gradient(G, f, pts)
        for j in range(2, G.m + 1):
            assert intrinsic_derivative(G, f, j, pts).tobytes() == \
                np.ascontiguousarray(grad[:, j - 2]).tobytes()
    for j in (1, G.m + 1):
        with pytest.raises(errors.ValidationError, match="direction index"):
            intrinsic_derivative(G, phi, j, pts)
