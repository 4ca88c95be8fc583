"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria tolerances are pinned here; every expected value is either trivial,
derived from a closed form, or checked against an independent oracle.
"""

import time

import numpy as np
import pytest
import sympy as sp

from carnot.area import area_integral, area_report
from carnot.calculus import (
    TestFunction,
    distributional_residual,
    gradient_from_defining_function,
    intrinsic_derivative,
    intrinsic_gradient,
)
from carnot.characteristics import (
    broadstar_residual,
    integrate_characteristic,
    lipschitz_along_curve,
)
from carnot.cones import (
    beta_for_k,
    check_cone_containment,
    construct_eta_m2n1,
    eta_verification,
    sample_cone_points_m2n1,
)
from carnot.functions import Box, GraphFunction, VectorField
from carnot.group import (
    calibrate_epsilon,
    dilate,
    distance,
    homogeneous_norm,
    inverse,
    multiply,
    standard_group,
    triangle_violations,
    _sample_unit_ball,
)
from carnot.mollify import MollifierKernel, approximation_report, \
    horizontal_gradient_mass
from carnot.splitting import graph_map, vertical_holder_modulus


def _line(num, ok, label):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def groups():
    return {
        "heisenberg(1)": standard_group("heisenberg", 1, epsilon=1.0),
        "heisenberg(2)": standard_group("heisenberg", 2, epsilon=1.0),
        "free_step2(3)": standard_group("free_step2", 3, epsilon=1.0),
        "h_type(quaternion)": standard_group("h_type", "quaternion", epsilon=1.0),
    }


def test_criterion_01_group_axioms(groups):
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(0)
    for G in groups.values():
        p, q, r = (rng.uniform(-1, 1, size=(10_000, G.dim)) for _ in range(3))
        left = multiply(G, multiply(G, p, q), r)
        right = multiply(G, p, multiply(G, q, r))
        scale = np.maximum(1.0, np.max(np.abs(right), axis=-1))
        ok &= bool(np.max(np.abs(left - right) / scale[:, None]) <= 1e-12)
        ok &= bool(np.max(np.abs(multiply(G, p, inverse(G, p)))) <= 1e-14)
        ok &= bool(np.max(np.abs(multiply(G, p, np.zeros(G.dim)) - p)) <= 1e-14)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _line(1, ok, f"group axioms on 4 groups, 1e4 triples ({elapsed:.2f}s)")


def test_criterion_02_norm_invariance_and_calibration(groups):
    ok = True
    rng = np.random.default_rng(1)
    for G in groups.values():
        p = rng.uniform(-1, 1, size=(10_000, G.dim))
        q = rng.uniform(-1, 1, size=(10_000, G.dim))
        g = rng.uniform(-1, 1, size=(10_000, G.dim))
        lam = rng.uniform(0.1, 4.0, size=10_000)
        hn = homogeneous_norm(G, p)
        scale = np.maximum(1.0, lam * hn)
        ok &= bool(np.max(np.abs(homogeneous_norm(G, dilate(G, lam, p))
                                 - lam * hn) / scale) <= 1e-12)
        d0 = distance(G, p, q)
        dg = distance(G, multiply(G, g, p), multiply(G, g, q))
        ok &= bool(np.max(np.abs(dg - d0) / np.maximum(1.0, d0)) <= 1e-12)
        eps = calibrate_epsilon(G, 10_000, seed=0)
        fresh = np.random.default_rng(12345)
        ps = _sample_unit_ball(G, 10_000, fresh)
        qs = _sample_unit_ball(G, 10_000, fresh)
        ok &= triangle_violations(G, ps, qs, epsilon=eps) == 0
    _line(2, ok, "norm homogeneity, left invariance, calibrated triangle inequality")


def test_criterion_03_gradient_consistency(groups):
    ok = True
    rng = np.random.default_rng(2)
    for name in ("heisenberg(1)", "free_step2(3)"):
        G = groups[name]
        d = G.base_dim
        box = Box([-1.0] * d, [1.0] * d)
        xs = [f"x{j}" for j in range(2, G.m + 1)]
        linear = " + ".join(f"({0.2 * (i + 1):.1f})*{v}" for i, v in enumerate(xs))
        quadratic = " + ".join(f"({0.1 * (i + 1):.1f})*{v}**2" for i, v in enumerate(xs))
        for expr in (linear, quadratic):
            g_fn = GraphFunction.from_expression(expr, box, G.m, G.n)

            def grad_f(p, g_fn=g_fn):
                out = np.zeros(p.shape)
                out[..., 0] = 1.0
                # base partials of g in the x block (g depends on x only)
                gp = g_fn.partials(np.concatenate(
                    [p[..., 1:G.m], np.zeros(p.shape[:-1] + (G.n,))], axis=-1))
                out[..., 1:G.m] = -gp[..., :G.m - 1]
                return out

            A = box.sample(100, rng) * 0.9
            pts = graph_map(G, g_fn, A)
            via_frame = gradient_from_defining_function(G, grad_f, pts)
            direct = intrinsic_gradient(G, g_fn, A)
            ok &= bool(np.max(np.abs(via_frame - direct)) <= 1e-6)
    _line(3, ok, "defining-function gradient matches intrinsic derivative")


def test_criterion_04_burgers_reduction(groups):
    G = groups["heisenberg(1)"]
    box = Box([-1.0, -1.0], [1.0, 1.0])
    rng = np.random.default_rng(3)
    ok = True
    for expr in ("x2", "y", "x2*y", "sin(x2)*cos(y)", "exp(x2/2) + y**2/4"):
        phi = GraphFunction.from_expression(expr, box, 2, 1)
        a = box.sample(200, rng)
        got = intrinsic_derivative(G, phi, 2, a)
        grad = phi.partials(a)
        expected = grad[:, 0] - phi(a) * grad[:, 1]
        ok &= bool(np.max(np.abs(got - expected)) <= 1e-10)
    _line(4, ok, "Burgers form of the intrinsic derivative on 5 smooth functions")


def test_criterion_05_distributional_residual_order(groups):
    G = groups["heisenberg(1)"]
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    zeta = TestFunction([0.5, 0.5], 0.4)
    w_good = VectorField.constant([1.0], box)
    w_bad = VectorField.constant([0.0], box)
    res = {}
    for k in (64, 128):
        res[k] = abs(distributional_residual(G, phi, w_good, zeta, k)[0])
    order = np.log2(res[64] / res[128]) if res[128] > 0 else np.inf
    bad = abs(distributional_residual(G, phi, w_bad, zeta, 128)[0])
    ok = (order >= 1.9) and (bad > 10.0 * res[128])
    _line(5, ok, f"residual order {order:.2f} >= 1.9; wrong-w ratio "
                 f"{bad / max(res[128], 1e-300):.1e} > 10")


def test_criterion_06_characteristics_closed_forms(groups):
    G = groups["heisenberg(1)"]
    box = Box([-4.0, -4.0], [4.0, 4.0])
    ok = True
    # quadratic: phi = x2, gamma(t) = y0 - t^2/2, w = 1
    phi1 = GraphFunction.from_expression("x2", box, 2, 1)
    t0 = time.perf_counter()
    c1 = integrate_characteristic(G, phi1, 2, np.array([0.0, 0.25]), 1.0, 1000)
    run1 = time.perf_counter() - t0
    exact1 = 0.25 - c1.t_grid ** 2 / 2.0
    err1 = np.max(np.abs(c1.gamma[:, 0] - exact1))
    res1 = broadstar_residual(c1, phi1, lambda pts: np.ones(pts.shape[:-1]))
    # exponential: phi = y, gamma(t) = y0 exp(-t), w = -y
    phi2 = GraphFunction.from_expression("y", box, 2, 1)
    t0 = time.perf_counter()
    c2 = integrate_characteristic(G, phi2, 2, np.array([0.0, 1.0]), 1.0, 1000)
    run2 = time.perf_counter() - t0
    exact2 = np.exp(-c2.t_grid)
    err2 = np.max(np.abs(c2.gamma[:, 0] - exact2))
    res2 = broadstar_residual(c2, phi2, lambda pts: -pts[..., 1])
    ok &= err1 <= 1e-8 and err2 <= 1e-8
    ok &= res1 <= 1e-7 and res2 <= 1e-7
    ok &= run1 < 1.0 and run2 < 1.0
    _line(6, ok, f"closed-form curves: errors {err1:.1e}/{err2:.1e}, "
                 f"broadstar {res1:.1e}/{res2:.1e}, {run1:.2f}s/{run2:.2f}s")


SMOOTH_CATALOG = {
    "heisenberg(1)": ["x2", "y", "0.3*sin(x2)*cos(y)"],
    "free_step2(3)": ["x2", "0.25*y1", "0.2*x3 + 0.1*sin(x2)"],
}


def test_criterion_07_curve_lipschitz_bound(groups):
    ok = True
    worst_gap = np.inf
    curves_run = 0
    for name, exprs in SMOOTH_CATALOG.items():
        G = groups[name]
        d = G.base_dim
        box = Box([-2.0] * d, [2.0] * d)
        rng = np.random.default_rng(4)
        for expr in exprs:
            phi = GraphFunction.from_expression(expr, box, G.m, G.n)
            table = vertical_holder_modulus(
                phi, [4.0 * np.sqrt(G.n)], grid_per_axis=min(21, 10),
                n_vertical=G.n)
            c_h = max(mod for _, mod in table)

            def w_j(pts, j):
                grad = phi.partials(pts)
                from carnot.calculus import frozen_coefficients
                c = frozen_coefficients(G, phi, j, pts)
                return grad[..., j - 2] + np.einsum("...s,...s->...",
                                                    c, grad[..., G.m - 1:])

            per_phi = 100 // len(exprs) + 1
            for i in range(per_phi):
                j = 2 + (i % (G.m - 1))
                a0 = rng.uniform(-0.5, 0.5, size=d)
                curve = integrate_characteristic(G, phi, j, a0, 1.0, 200)
                report = lipschitz_along_curve(
                    G, curve, phi, lambda pts, j=j: w_j(pts, j), c_h)
                gap = report["bound"] + 1e-6 - report["measured"]
                worst_gap = min(worst_gap, gap)
                ok &= gap >= 0.0
                curves_run += 1
    _line(7, ok, f"Lipschitz-along-curve bound on {curves_run} curves "
                 f"(worst slack {worst_gap:.2e})")


def test_criterion_08_area_formula(groups):
    G = groups["heisenberg(1)"]
    box = Box([0.0, 0.0], [1.0, 1.0])
    flat = GraphFunction.constant(0.0, box)
    v_flat = area_integral(G, flat)
    linear = GraphFunction.from_expression("x2", box, 2, 1)
    v_lin = area_integral(G, linear)
    smooth = GraphFunction.from_expression("0.3*sin(2*x2)*cos(y)",
                                           Box([-1, -1], [1, 1]), 2, 1)
    rep = area_report(G, smooth, points_per_axis=16)
    ok = (abs(v_flat - 1.0) <= 1e-12
          and abs(v_lin - np.sqrt(2.0)) <= 1e-10
          and rep["estimated_order"] >= 1.9)
    _line(8, ok, f"area: flat {v_flat:.15f}, linear {v_lin:.12f}, "
                 f"order {rep['estimated_order']:.2f}")


def test_criterion_09_smoothing_pipeline(groups):
    G = groups["heisenberg(1)"]
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    start = time.perf_counter()
    # c = 0.45: a level where the flat-graph approximation error is genuinely
    # linear in alpha (at c = 1/2 symmetry makes it vanish identically)
    rep = approximation_report(G, phi, [0.2, 0.1, 0.05], c_level=0.45,
                               grid_per_axis=32)
    elapsed = time.perf_counter() - start
    ratios = [row["rate_ratio"] for row in rep["rows"]]
    grad_sups = [row["gradient_sup"] for row in rep["rows"]]
    ok = (max(ratios) < 2.0 * min(ratios)
          and max(grad_sups) <= 1.10
          and elapsed < 120.0)
    _line(9, ok, f"smoothing pipeline: ratios {min(ratios):.4f}..{max(ratios):.4f}, "
                 f"grad sup {max(grad_sups):.4f} <= 1.10, {elapsed:.0f}s")


def test_criterion_10_area_vs_mollification(groups):
    G = groups["heisenberg(1)"]
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    area = area_integral(G, phi)
    kern = MollifierKernel(G, 0.05)
    rep = horizontal_gradient_mass(G, phi, kern, base_per_axis=12)
    rel = abs(rep["mass"] - area) / area
    ok = rel <= 0.03 and rep["edge_gradient_max"] <= 1e-8
    _line(10, ok, f"gradient mass {rep['mass']:.5f} vs area {area:.5f} "
                  f"(rel {rel:.3%} <= 3%)")


LIPSCHITZ_CATALOG = {
    "heisenberg(1)": ["x2", "0.25*y", "0.3*sin(x2)", "0.2*x2 + 0.1*cos(y)"],
    "free_step2(3)": ["x2", "0.25*y1"],
}


def test_criterion_11_cone_machinery(groups):
    ok = True
    # pinned quadratic-root value, oracle via exact arithmetic
    b = sp.symbols("b", positive=True)
    root = float(sp.solve(sp.Eq(b * (b - sp.Rational(1, 2)),
                                sp.Rational(3, 8)), b)[0])
    got = beta_for_k(1.0, 1.0, 1.0)
    ok &= abs(got - root) <= 1e-12
    ok &= abs(got - (0.5 + np.sqrt(7.0 / 4.0)) / 2.0) <= 1e-12

    G1 = groups["heisenberg(1)"]
    pts = sample_cone_points_m2n1(G1, 0.8, 1000, seed=17)
    for p in pts:
        eta = construct_eta_m2n1(G1, p, 0.8)
        rep = eta_verification(G1, p, 0.8, eta)
        ok &= rep["identity_residual"] <= 1e-12 * max(1.0, abs(p[2]))
        ok &= rep["angle_slack"][0] >= -1e-12
        ok &= rep["angle_slack"][1] >= -1e-12

    total_violations = 0
    for name, exprs in LIPSCHITZ_CATALOG.items():
        G = groups[name]
        d = G.base_dim
        box = Box([-1.0] * d, [1.0] * d)
        rng = np.random.default_rng(5)
        for expr in exprs:
            phi = GraphFunction.from_expression(expr, box, G.m, G.n)
            w_sup = float(np.max(np.linalg.norm(
                intrinsic_gradient(G, phi, box.sample(2048, rng)), axis=-1)))
            k = 1.0 / np.sqrt(1.0 + w_sup ** 2)
            beta = beta_for_k(k, G.epsilon, max(G.b_max, 1e-12))
            report = check_cone_containment(G, phi, beta, samples=10_000,
                                            seed=19, radius=0.4)
            total_violations += report["violations"]
    ok &= total_violations == 0
    _line(11, ok, f"beta root {got:.12f}; 1000 eta replays exact; "
                  f"containment violations {total_violations}")


def test_criterion_12_holder_diagnostics():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    radii = [0.5, 0.1, 0.02]
    phi_lin = GraphFunction.from_expression("y", box, 2, 1)
    table_lin = dict(vertical_holder_modulus(phi_lin, radii, grid_per_axis=101))
    phi_sqrt = GraphFunction.from_expression("sqrt(abs(y))", box, 2, 1)
    table_sqrt = dict(vertical_holder_modulus(phi_sqrt, radii, grid_per_axis=101))
    ok = (table_lin[0.02] <= 0.15
          and table_lin[0.02] < table_lin[0.1] < table_lin[0.5]
          and all(mod >= 0.9 for mod in table_sqrt.values()))
    _line(12, ok, f"little-Hoelder modulus {table_lin[0.02]:.3f} -> 0 vs "
                  f"sqrt modulus >= {min(table_sqrt.values()):.3f}")
