import numpy as np
import pytest
import sympy as sp

from carnot import errors
from carnot.cones import (
    _subgraph_indicator,
    beta_for_k,
    check_cone_containment,
    cone_window,
    construct_eta_m2n1,
    eta_verification,
    parallelogram_vertices,
    sample_cone_points_m2n1,
)
from carnot.functions import GraphFunction
from carnot.group import make_group, multiply
from carnot.splitting import graph_map

from conftest import lift_graph_value, unit_box


def test_beta_quadratic_root_oracle():
    # independent oracle: exact positive root of beta^2 - beta/2 - 3/8 = 0
    b = sp.symbols("b", positive=True)
    root = float(sp.solve(sp.Eq(b * (b - sp.Rational(1, 2)), sp.Rational(3, 8)), b)[0])
    assert beta_for_k(1.0, 1.0, 1.0) == pytest.approx(root, abs=1e-12)
    assert root == pytest.approx((0.5 + np.sqrt(7.0 / 4.0)) / 2.0, abs=1e-15)


def test_beta_satisfies_both_constraints():
    for k in (0.25, 0.5, 0.8, 1.0):
        for eps in (1.0, 0.5):
            beta = beta_for_k(k, eps, 1.0)
            h = np.sqrt(k * k / (2.0 - k * k))
            assert beta * (beta / eps ** 2 - 0.5) <= 3.0 * h / 8.0 + 1e-12
            if k < 1.0:
                assert beta ** 2 <= k * k / (2.0 - 2.0 * k * k) + 1e-12


def test_beta_monotone_and_vanishing():
    ks = np.linspace(0.05, 1.0, 30)
    betas = [beta_for_k(k, 1.0, 1.0) for k in ks]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(betas, betas[1:]))
    assert beta_for_k(1e-4, 1.0, 1.0) < 1e-3


def test_beta_invalid_k():
    for k in (0.0, -0.5, 1.5):
        with pytest.raises(errors.InvalidK):
            beta_for_k(k, 1.0, 1.0)


def test_construct_eta_zero_vertical(heis1):
    eta = construct_eta_m2n1(heis1, np.array([-1.0, 0.0, 0.0]), 0.8)
    assert np.allclose(eta, 0.0)


def test_construct_eta_extremal_vertex(heis1):
    # max attainable vertical value is realized exactly at the vertex zh1
    z = np.array([-1.0, 0.0])
    _, h = cone_window(1.0, 1.0, 1.0)
    zh1, _ = parallelogram_vertices(z, h)
    y_max = (h ** 2 * z[0] ** 2) / (2.0 * h)     # b12 = 1, z2 = 0
    eta = construct_eta_m2n1(heis1, np.array([z[0], z[1], y_max]), 1.0)
    assert np.allclose(eta, zh1, atol=1e-14)


def test_construct_eta_rejects_outside_cone(heis1):
    with pytest.raises(errors.PointOutsideCone):
        construct_eta_m2n1(heis1, np.array([1.0, 0.0, 0.0]), 0.8)


def test_construct_eta_degenerate_z(heis1):
    with pytest.raises(errors.DegenerateZ):
        construct_eta_m2n1(heis1, np.array([0.0, 0.0, 0.0]), 0.8)


def test_construct_eta_unrepresentable_vertical(heis1):
    # near the lateral edge of the cone the attainable range collapses
    _, h = cone_window(1.0, 1.0, 1.0)
    z = np.array([-1.0, -0.9])
    y = 0.6         # inside the cone window but beyond b12 (h^2 z1^2 - z2^2)/2h
    p = np.array([z[0], z[1], y])
    with pytest.raises(errors.ValueNotRepresentable):
        construct_eta_m2n1(heis1, p, 1.0)


@pytest.mark.parametrize("k", [0.5, 0.8, 1.0])
def test_construct_eta_sampled_verification(heis1, k):
    pts = sample_cone_points_m2n1(heis1, k, 300, seed=11)
    for p in pts:
        eta = construct_eta_m2n1(heis1, p, k)
        rep = eta_verification(heis1, p, k, eta)
        assert rep["identity_residual"] <= 1e-12 * max(1.0, abs(p[2]))
        assert rep["angle_slack"][0] >= -1e-12
        assert rep["angle_slack"][1] >= -1e-12


def test_construct_eta_negative_b12():
    G = make_group(2, 1, [[[0.0, -1.0], [1.0, 0.0]]], 1.0)
    pts = sample_cone_points_m2n1(G, 0.8, 200, seed=13)
    for p in pts:
        eta = construct_eta_m2n1(G, p, 0.8)
        rep = eta_verification(G, p, 0.8, eta)
        assert rep["identity_residual"] <= 1e-12 * max(1.0, abs(p[2]))
        assert rep["angle_slack"][0] >= -1e-12
        assert rep["angle_slack"][1] >= -1e-12


def test_subgraph_indicator_above_below(heis1, phi_x2):
    a = np.array([0.25, -0.3])
    p = graph_map(heis1, phi_x2, a)
    below = multiply(heis1, p, lift_graph_value(heis1, np.array(-0.5)))
    above = multiply(heis1, p, lift_graph_value(heis1, np.array(0.5)))
    assert _subgraph_indicator(heis1, phi_x2, below) == 1.0
    assert _subgraph_indicator(heis1, phi_x2, above) == 0.0
    # boundary excluded by the strict inequality
    assert _subgraph_indicator(heis1, phi_x2, p) == 0.0


def test_containment_half_space(heis1):
    phi0 = GraphFunction.constant(0.0, unit_box(2, half=4.0))
    for beta in (0.3, 1.0):
        report = check_cone_containment(heis1, phi0, beta, samples=2000, seed=3)
        assert report["violations"] == 0


def test_containment_linear_graph(heis1):
    phi = GraphFunction.from_expression("x2", unit_box(2, half=4.0), 2, 1)
    beta = beta_for_k(1.0 / np.sqrt(2.0), 1.0, 1.0)
    report = check_cone_containment(heis1, phi, beta, samples=10_000, seed=5)
    assert report["violations"] == 0


def test_containment_power(heis1):
    # sanity that the sweep can fail: an opening far above the Lipschitz
    # threshold must produce violations
    phi = GraphFunction.from_expression("x2", unit_box(2, half=4.0), 2, 1)
    report = check_cone_containment(heis1, phi, 10.0, samples=5000, seed=7)
    assert report["violations"] > 0


def test_cone_draws_are_rng_uniform_bitwise(heis1, quat, monkeypatch):
    # the sweep's base points are rng.uniform on the inner box, and the
    # generator is left where rng.uniform leaves it: the graph coordinates
    # drawn next are the same too
    import carnot.cones as cones

    calls = []
    graph_point = cones.graph_point

    def recording(G, a, t):
        calls.append((np.array(a), np.array(t)))
        return graph_point(G, a, t)

    monkeypatch.setattr(cones, "graph_point", recording)
    for G, lo, hi in ((heis1, [-1.0, -2.0], [0.5, 3.0]), (quat, [-0.5] * 6, [0.75] * 6)):
        phi = GraphFunction.from_expression("0.2*x2", (lo, hi), G.m, G.n)
        calls.clear()
        check_cone_containment(G, phi, 0.3, samples=500, seed=17, radius=0.4)
        rng = np.random.default_rng(17)
        lo, hi = phi.domain.lo, phi.domain.hi
        A = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=(500, len(lo)))
        t = rng.uniform(0.05, 1.0, size=500) * 0.4
        t = t * (rng.integers(0, 2, size=500) * 2 - 1)
        assert calls[0][0].tobytes() == A.tobytes()
        assert calls[1][1].tobytes() == t.tobytes()
