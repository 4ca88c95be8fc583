import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from carnot import errors
from carnot.calculus import (
    TestFunction,
    distributional_residual,
    gradient_from_defining_function,
    intrinsic_derivative,
    intrinsic_gradient,
)
from carnot.functions import Box, GraphFunction, VectorField
from carnot.quadrature import QuadratureGrid, richardson_order
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
        fd = intrinsic_derivative(heis1, phi, 2, a, h=np.array([h]))[0]
        errs.append(abs(fd - exact))
    assert errs[0] / errs[1] >= 3.5


def test_fd_step_too_large(heis1, phi_x2):
    with pytest.raises(errors.StepTooLarge):
        intrinsic_derivative(heis1, phi_x2, 2, np.array([[0.999, 0.0]]),
                             h=np.array([0.1]))


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
        grid = QuadratureGrid(box.lo, box.hi, (k, k))
        res.append(abs(distributional_residual(heis1, phi, w, zeta, grid)[0]))
    assert res[0] > res[1] > res[2]
    assert richardson_order(*[r + 1e-18 for r in res]) >= 1.9 or res[2] < 1e-14


def test_residual_detects_wrong_w(heis1):
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    zeta = TestFunction([0.5, 0.5], 0.4)
    grid = QuadratureGrid(box.lo, box.hi, (128, 128))
    good = abs(distributional_residual(
        heis1, phi, VectorField.constant([1.0], box), zeta, grid)[0])
    bad = abs(distributional_residual(
        heis1, phi, VectorField.constant([0.0], box), zeta, grid)[0])
    # wrong datum leaves the integral of zeta, far above the true residual
    assert bad > 10.0 * good
    assert bad == pytest.approx(grid.integrate(zeta.value(grid.points())), rel=1e-6)


def test_residual_smooth_solution_refines_to_zero(heis1):
    box = unit_box(2)
    phi = GraphFunction.from_expression("0.3*sin(x2) + 0.1*y", box, 2, 1)
    zeta = TestFunction([0.0, 0.0], 0.7)

    class WFromPhi:
        def __call__(self, pts):
            return intrinsic_gradient(heis1, phi, pts)

    res = []
    for k in (32, 64, 128):
        grid = QuadratureGrid(box.lo, box.hi, (k, k))
        res.append(np.max(np.abs(
            distributional_residual(heis1, phi, WFromPhi(), zeta, grid))))
    assert res[2] < res[0]
    assert res[2] < 1e-4


def test_residual_support_not_covered(heis1, phi_x2):
    w = VectorField.constant([1.0], phi_x2.domain)
    zeta = TestFunction([0.9, 0.9], 0.5)
    with pytest.raises(errors.SupportNotCovered):
        distributional_residual(heis1, phi_x2, w, zeta)


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
