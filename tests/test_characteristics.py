import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import errors
from carnot.calculus import frozen_coefficients
from carnot.characteristics import (
    _cumulative_simpson,
    _rk4_path,
    broadstar_residual,
    conservation_residual,
    flux_values,
    integrate_characteristic,
    lipschitz_along_curve,
    phi_along_curve_lipschitz_vs_intrinsic,
)
from carnot.functions import Box, GraphFunction, base_coordinate_names
from carnot.splitting import (
    estimate_intrinsic_lipschitz,
    translate_graph_function,
    vertical_holder_modulus,
)

from conftest import unit_box


def wide_box(dim, half=4.0):
    return Box([-half] * dim, [half] * dim)


def test_zero_phi_constant_curve(heis1):
    phi0 = GraphFunction.constant(0.0, wide_box(2))
    curve = integrate_characteristic(heis1, phi0, 2, np.array([0.0, 0.3]), 1.0, 64)
    assert np.allclose(curve.gamma, 0.3)
    assert curve.error_estimate == pytest.approx(0.0, abs=1e-15)


def test_quadratic_closed_form(heis1):
    # phi = x2: gamma' = -t, so gamma(t) = y0 - t^2/2
    phi = GraphFunction.from_expression("x2", wide_box(2), 2, 1)
    y0 = 0.25
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, y0]), 1.0, 1000)
    exact = y0 - curve.t_grid ** 2 / 2.0
    assert np.max(np.abs(curve.gamma[:, 0] - exact)) <= 1e-10


def test_exponential_closed_form(heis1):
    # phi = y: gamma' = -gamma, so gamma(t) = y0 exp(-t)
    phi = GraphFunction.from_expression("y", wide_box(2), 2, 1)
    y0 = 1.0
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, y0]), 1.0, 1000)
    exact = y0 * np.exp(-curve.t_grid)
    rel = np.max(np.abs(curve.gamma[:, 0] - exact) / exact)
    assert rel <= 1e-8


def test_rk4_order_from_step_halving(heis1):
    phi = GraphFunction.from_expression("y", wide_box(2), 2, 1)
    y0 = 1.0
    errs = []
    for steps in (16, 32):
        curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, y0]),
                                         1.0, steps)
        exact = y0 * np.exp(-curve.t_grid)
        errs.append(np.max(np.abs(curve.gamma[:, 0] - exact)))
    assert errs[0] / errs[1] >= 12.0


def test_error_estimate_reported(heis1):
    phi = GraphFunction.from_expression("y", wide_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 1.0]), 1.0, 16)
    exact = np.exp(-curve.t_grid)
    true_err = np.max(np.abs(curve.gamma[:, 0] - exact))
    assert curve.error_estimate > 0.0
    assert curve.error_estimate == pytest.approx(true_err, rel=0.2)


def test_left_domain_truncates(heis1):
    phi = GraphFunction.from_expression("x2", Box([-0.5, -0.5], [0.5, 0.5]), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.0]), 2.0, 256)
    assert curve.truncated
    assert curve.exit_time is not None
    assert curve.exit_time <= 0.5 + 1e-9


def test_left_domain_start_outside(heis1):
    phi = GraphFunction.from_expression("x2", Box([-0.5, -0.5], [0.5, 0.5]), 2, 1)
    with pytest.raises(errors.LeftDomain):
        integrate_characteristic(heis1, phi, 2, np.array([2.0, 0.0]), 1.0, 64)


def test_free3_drift_structure(free3):
    # j = 2 from base (x2, x3, y1, y2, y3): the (3,2) matrix contributes x3/2
    phi = GraphFunction.constant(0.0, wide_box(5))
    x3 = 0.8
    a0 = np.array([0.0, x3, 0.0, 0.0, 0.0])
    curve = integrate_characteristic(free3, phi, 2, a0, 1.0, 128)
    # ordering of vertical axes: (2,1), (3,1), (3,2)
    assert np.allclose(curve.gamma[-1], [0.0, 0.0, 0.5 * x3 * 1.0], atol=1e-12)


def test_broadstar_zero(heis1):
    phi0 = GraphFunction.constant(0.0, wide_box(2))
    curve = integrate_characteristic(heis1, phi0, 2, np.array([0.0, 0.0]), 1.0, 64)
    res = broadstar_residual(curve, phi0, lambda pts: np.zeros(pts.shape[:-1]))
    assert res == pytest.approx(0.0, abs=1e-15)


def test_broadstar_linear(heis1):
    phi = GraphFunction.from_expression("x2", wide_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.25]), 1.0, 1000)
    res = broadstar_residual(curve, phi, lambda pts: np.ones(pts.shape[:-1]))
    assert res <= 1e-8


def test_broadstar_exponential(heis1):
    phi = GraphFunction.from_expression("y", wide_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 1.0]), 1.0, 1000)
    res = broadstar_residual(curve, phi, lambda pts: -pts[..., 1])
    assert res <= 1e-7


def test_broadstar_detects_wrong_w(heis1):
    phi = GraphFunction.from_expression("x2", wide_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.25]), 1.0, 500)
    res = broadstar_residual(curve, phi, lambda pts: np.zeros(pts.shape[:-1]))
    assert res > 0.1


@settings(max_examples=100)
@given(st.one_of(st.integers(2, 40), st.sampled_from([500, 501, 1000, 1001])),
       st.sampled_from(["uniform", "unequal"]),
       st.sampled_from(["normal", "integer", "negative-zero"]),
       st.integers(0, 2 ** 32 - 1))
def test_cumulative_simpson_matches_scipy_property(nodes, spacing, kind, seed):
    # bitwise scipy's cumulative_simpson(initial=0.0), its trapezoid fallback
    # on two nodes included, on an even or odd count of uniform times (a
    # curve's grid) or unequal ones, with the sign of every zero
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(seed)
    t = (rng.uniform(0.001, 0.1) * np.arange(nodes) if spacing == "uniform"
         else np.cumsum(rng.uniform(0.01, 1.0, nodes)) - 3.0)
    y = {"normal": rng.normal(size=nodes), "integer": np.round(rng.normal(size=nodes)),
         "negative-zero": np.full(nodes, -0.0)}[kind]
    got = _cumulative_simpson(y, t)
    want = cumulative_simpson(y, x=t, initial=0.0)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_lipschitz_along_curve_linear(heis1):
    phi = GraphFunction.from_expression("x2", wide_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.25]), 1.0, 500)
    report = lipschitz_along_curve(heis1, curve, phi,
                                   lambda pts: np.ones(pts.shape[:-1]),
                                   holder_constant=0.0)
    assert report["measured"] == pytest.approx(1.0, abs=1e-9)
    assert report["measured"] <= report["bound"] + 1e-6
    assert report["bound"] == pytest.approx(1.05, abs=1e-12)  # 5% inflation


def test_lipschitz_along_curve_vertical(heis1):
    phi = GraphFunction.from_expression("y", unit_box(2), 2, 1)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.9]), 0.9, 500)
    table = vertical_holder_modulus(phi, [2.0], grid_per_axis=101)
    c_h = table[0][1]
    report = lipschitz_along_curve(heis1, curve, phi,
                                   lambda pts: -pts[..., 1], c_h)
    assert report["measured"] <= report["bound"] + 1e-6


def test_flux_values_heisenberg(heis1):
    # m = 2: the drift sum is empty and f_1 = b21 phi^2 / 2 = -phi^2 / 2
    vals = flux_values(heis1, 2, np.array([0.3]), np.array([2.0]))
    assert np.allclose(vals, [-2.0])


def test_conservation_along_curve(heis1):
    phi = GraphFunction.from_expression("0.4*sin(x2) + 0.2*y", wide_box(2), 2, 1)

    def w_j(pts):
        g = phi.partials(pts)
        return g[..., 0] - phi.eval_extended(pts) * g[..., 1]

    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.2]), 1.0, 1000)
    assert conservation_residual(heis1, curve, w_j) <= 1e-5


def test_quasidistance_growth_constant_phi(heis1):
    # phi constant: the conjugated second layer cancels, qd grows like |dt|
    phi_c = GraphFunction.constant(0.4, wide_box(2))
    curve = integrate_characteristic(heis1, phi_c, 2, np.array([0.0, 0.1]), 1.0, 200)
    report = phi_along_curve_lipschitz_vs_intrinsic(heis1, curve, phi_c, C_L=0.0)
    assert report["quasidistance_slope"] == pytest.approx(1.0, rel=1e-9)
    assert report["phi_slope"] == pytest.approx(0.0, abs=1e-12)


def test_phi_along_curve_bounds_linear(heis1):
    phi = GraphFunction.from_expression("x2", wide_box(2), 2, 1)
    C_L = estimate_intrinsic_lipschitz(heis1, phi, 4000)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.25]), 1.0, 500)
    report = phi_along_curve_lipschitz_vs_intrinsic(heis1, curve, phi, C_L)
    assert report["phi_slope"] == pytest.approx(1.0, abs=1e-9)
    assert report["quasidistance_slope"] <= report["quasidistance_bound"]
    assert report["phi_slope"] <= report["phi_bound"]


def test_broadstar_distributional_equivalence(heis1):
    # both residuals vanish together for a manufactured pair and both flag
    # the same mismatched datum
    from carnot.calculus import TestFunction, distributional_residual
    from carnot.functions import VectorField

    box = Box([-2.0, -2.0], [2.0, 2.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    zeta = TestFunction([0.0, 0.0], 1.0)
    curve = integrate_characteristic(heis1, phi, 2, np.array([0.0, 0.25]),
                                     1.0, 500)
    for value, small in ((1.0, True), (0.0, False)):
        w = VectorField.constant([value], box)
        dist = abs(distributional_residual(heis1, phi, w, zeta, 128)[0])
        broad = broadstar_residual(curve, phi, w.components[0].eval_extended)
        if small:
            assert dist < 1e-5 and broad < 1e-8
        else:
            assert dist > 0.1 and broad > 0.1


def test_phi_along_curve_bounds_random_sweep(heis1):
    rng = np.random.default_rng(101)
    phi = GraphFunction.from_expression("0.3*sin(x2)*cos(y)", wide_box(2, 2.0), 2, 1)
    C_L = estimate_intrinsic_lipschitz(heis1, phi, 4000)
    for _ in range(100):
        a0 = rng.uniform(-0.5, 0.5, size=2)
        curve = integrate_characteristic(heis1, phi, 2, a0, 1.0, 128)
        report = phi_along_curve_lipschitz_vs_intrinsic(heis1, curve, phi, C_L)
        assert report["quasidistance_slope"] <= report["quasidistance_bound"]
        assert report["phi_slope"] <= report["phi_bound"]


def _rk4_path_per_stage(G, phi, j, a0, T, steps):
    """The reference RK4 loop: one frozen_coefficients call per stage."""
    d, n = G.base_dim, G.n
    out = np.empty((steps + 1, d))
    out[0] = a0
    h = T / steps
    inside_limit = steps
    for k in range(steps):
        a = out[k]

        def shift(dt, dy):
            b = a.copy()
            b[j - 2] += dt
            b[d - n:] += dy
            return b

        k1 = frozen_coefficients(G, phi, j, a)
        k2 = frozen_coefficients(G, phi, j, shift(0.5 * h, 0.5 * h * k1))
        k3 = frozen_coefficients(G, phi, j, shift(0.5 * h, 0.5 * h * k2))
        k4 = frozen_coefficients(G, phi, j, shift(h, h * k3))
        nxt = shift(h, h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0)
        if not phi.in_domain(nxt):
            inside_limit = k
            break
        out[k + 1] = nxt
    return out[:inside_limit + 1], h, inside_limit


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
def test_rk4_rate_formed_once_matches_per_stage_loop(group_name, request):
    # the drift is constant along the line (b_jj = 0), so forming the rate
    # once per curve leaves every state bitwise as the per-stage loop had it
    G = request.getfixturevalue(group_name)
    names = base_coordinate_names(G.m, G.n)
    expr = " + ".join(f"{0.1 * (i + 1)}*sin({v})" for i, v in enumerate(names))
    phi = GraphFunction.from_expression(f"{expr} + 0.2*{names[0]}*{names[-1]}",
                                        wide_box(G.base_dim, half=1.5), G.m, G.n)
    starts = np.random.default_rng(23).uniform(-0.5, 0.5, size=(3, G.base_dim))
    for j in range(2, G.m + 1):
        for a0 in starts:
            # T = 1.5 leaves the box on some curves: truncation is covered
            path, h, used = _rk4_path(G, phi, j, a0, 1.5, 40)
            ref, h_ref, used_ref = _rk4_path_per_stage(G, phi, j, a0, 1.5, 40)
            assert (h, used) == (h_ref, used_ref)
            assert path.tobytes() == ref.tobytes()


def _phi_kinds(G, box):
    """An "x2", a power-and-division expression, a callable, a grid and a
    translated phi over ``box``, by name; the translated one's domain is
    finer than its bounding box."""
    d = G.base_dim
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(5,) * d)
    x2 = GraphFunction.from_expression("x2", box, G.m, G.n)
    y = base_coordinate_names(G.m, G.n)[-1]
    q = np.linspace(0.4, -0.3, G.dim)
    return {
        "x2": x2,
        "power": GraphFunction.from_expression(
            f"0.3*x2**3 - 0.2*{y}**2 + 0.1*Abs({y})**(1/4) + sqrt(2 + x2)"
            f" + 0.4*x2/(2.5 + {y}) + 0.05*(1 + x2**2)**(-1) + 0.1*Abs(x2)**(3/2)",
            box, G.m, G.n),
        "callable": GraphFunction.from_callable(
            lambda a: np.sin(a[..., 0]) * a[..., -1] + 0.5 * a[..., -1] ** 2, box),
        "grid": GraphFunction.from_grid(values, box),
        "translated": translate_graph_function(G, x2, q),
    }


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
@pytest.mark.parametrize("kind", ["x2", "power", "callable", "grid", "translated"])
def test_rk4_stages_match_per_stage_loop_for_each_phi_kind(group_name, kind, request):
    G = request.getfixturevalue(group_name)
    phi = _phi_kinds(G, wide_box(G.base_dim, half=1.5))[kind]
    starts = np.random.default_rng(29).uniform(-0.9, 0.9, size=(3, G.base_dim))
    truncated = 0
    for j in range(2, G.m + 1):
        for a0 in starts:
            path, h, used = _rk4_path(G, phi, j, a0, 1.7, 24)
            ref, h_ref, used_ref = _rk4_path_per_stage(G, phi, j, a0, 1.7, 24)
            assert (h, used) == (h_ref, used_ref)
            assert path.tobytes() == ref.tobytes()
            truncated += used < 24
    # T = 1.7 from within 0.9 of the centre of a 1.5-box: some curves leave it
    assert truncated > 0


def test_rk4_evaluates_phi_once_per_stage(heis1):
    points = []

    def counted(a):
        points.append(np.shape(a))
        return 0.3 * a[..., 0] * a[..., -1]

    phi = GraphFunction.from_callable(counted, wide_box(2))
    path, _, used = _rk4_path(heis1, phi, 2, np.array([0.1, 0.2]), 1.0, 50)
    assert used == 50 and path.shape == (51, 2)
    assert points == [(2,)] * (4 * 50)
