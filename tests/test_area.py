from unittest import mock

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from carnot import errors, splitting
from carnot.area import (
    area_integral,
    area_report,
    subgraph_indicator,
    unit_normal,
)
from carnot.calculus import gradient_from_defining_function, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.group import multiply
from carnot.splitting import graph_map

from conftest import lift_graph_value, unit_box


def test_unit_normal_flat():
    assert np.allclose(unit_normal([0.0]), [-1.0, 0.0])


def test_unit_normal_heisenberg_unit_slope():
    assert np.allclose(unit_normal([1.0]), [-1.0 / np.sqrt(2), 1.0 / np.sqrt(2)])


def test_unit_normal_is_unit():
    rng = np.random.default_rng(103)
    w = rng.normal(size=(200, 3))
    nu = unit_normal(w)
    assert np.allclose(np.linalg.norm(nu, axis=-1), 1.0)
    assert np.all(nu[:, 0] < 0)


def test_area_flat_graph_unit_box(heis1):
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi0 = GraphFunction.constant(0.0, box)
    val = area_integral(heis1, phi0)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_area_linear_graph_sqrt2(heis1):
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    val = area_integral(heis1, phi)
    assert val == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_area_of_translated_graph(heis1):
    # a translated phi has no partials and a domain finer than its box, so
    # its nodes go through the domain test: shifted vertically, its domain
    # is a box and its area is phi's within the central differences' error;
    # shifted along x1, its domain is a parallelogram inside its bounding box
    phi = GraphFunction.from_expression("0.3*sin(2*x2)*cos(y)", unit_box(2), 2, 1)
    up = splitting.translate_graph_function(heis1, phi, [0.0, 0.0, 0.25])
    assert not up.fills_box
    assert area_integral(heis1, up, points_per_axis=32) == pytest.approx(
        area_integral(heis1, phi, points_per_axis=32), abs=1e-9)
    along = splitting.translate_graph_function(heis1, phi, [0.3, 0.0, 0.0])
    with pytest.raises(errors.OutOfDomain):
        area_integral(heis1, along, points_per_axis=32)


def test_area_quadrature_order(heis1):
    phi = GraphFunction.from_expression("0.3*sin(2*x2)*cos(y)", unit_box(2), 2, 1)
    report = area_report(heis1, phi, points_per_axis=16)
    assert report["estimated_order"] >= 1.9

    # independent value oracle: adaptive quadrature of the same integrand
    def integrand(y, x2):
        a = np.array([x2, y])
        w = intrinsic_gradient(heis1, phi, a)
        return float(np.sqrt(1.0 + np.sum(w * w)))

    ref, _ = sp_integrate.dblquad(integrand, -1.0, 1.0, -1.0, 1.0,
                                  epsabs=1e-9, epsrel=1e-9)
    # order-2 midpoint at 64 points per axis: error ~ h^2
    assert report["area_integral"] == pytest.approx(ref, abs=1e-4)


def test_area_lower_bound_volume(heis1):
    box = unit_box(2)
    phi = GraphFunction.from_expression("0.2*x2*y", box, 2, 1)
    volume = float(np.prod(box.hi - box.lo))
    assert area_integral(heis1, phi) >= volume
    phi0 = GraphFunction.constant(0.3, box)
    assert area_integral(heis1, phi0) == pytest.approx(volume, abs=1e-12)


def test_subgraph_indicator_above_below(heis1, phi_x2):
    a = np.array([0.25, -0.3])
    p = graph_map(heis1, phi_x2, a)
    below = multiply(heis1, p, lift_graph_value(heis1, np.array(-0.5)))
    above = multiply(heis1, p, lift_graph_value(heis1, np.array(0.5)))
    assert subgraph_indicator(heis1, phi_x2, below) == 1.0
    assert subgraph_indicator(heis1, phi_x2, above) == 0.0
    # boundary excluded by the strict inequality
    assert subgraph_indicator(heis1, phi_x2, p) == 0.0


def test_subgraph_indicator_out_of_domain(heis1, phi_x2):
    with pytest.raises(errors.OutOfDomain):
        subgraph_indicator(heis1, phi_x2, np.array([0.0, 5.0, 0.0]))


def test_subgraph_indicator_splits_once(heis1, phi_x2):
    # one split serves the domain check and the value
    p = graph_map(heis1, phi_x2, np.array([0.25, -0.3]))
    below = multiply(heis1, p, lift_graph_value(heis1, np.array(-0.5)))
    with mock.patch("carnot.splitting._split", wraps=splitting._split) as split:
        assert subgraph_indicator(heis1, phi_x2, below) == 1.0
        assert split.call_count == 1
        with pytest.raises(errors.OutOfDomain):
            subgraph_indicator(heis1, phi_x2, np.array([0.0, 5.0, 0.0]))
        assert split.call_count == 2


def test_normal_consistency_with_defining_function(heis1):
    # f = x1 - y: normals from the intrinsic gradient of the explicit graph
    # match the frame-derivative route on the surface
    def grad_f(p):
        g = np.zeros(p.shape)
        g[..., 0] = 1.0
        g[..., 2] = -1.0
        return g

    phi = GraphFunction.from_expression("y / (1 - x2/2)",
                                        Box([-0.5, -0.5], [0.5, 0.5]), 2, 1)
    rng = np.random.default_rng(107)
    A = phi.domain.sample(50, rng)
    pts = graph_map(heis1, phi, A)
    w_frame = gradient_from_defining_function(heis1, grad_f, pts)
    w_direct = intrinsic_gradient(heis1, phi, A)
    assert np.allclose(unit_normal(w_frame), unit_normal(w_direct), atol=1e-8)
