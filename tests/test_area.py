import numpy as np
import pytest
from scipy import integrate as sp_integrate

from carnot import errors, splitting
from carnot.area import area_integral, area_report
from carnot.calculus import gradient_from_defining_function, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.splitting import graph_map

from conftest import unit_box


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


def test_area_report_grids_are_ints(heis1):
    # a numpy count is checked into an int, so the echoed grids are ints
    report = area_report(heis1, GraphFunction.from_expression("0.3*sin(x2)", unit_box(2), 2, 1),
                         points_per_axis=np.int64(4))
    assert report["grids"] == [4, 8, 16]
    assert all(type(k) is int for k in report["grids"])


def test_area_lower_bound_volume(heis1):
    box = unit_box(2)
    phi = GraphFunction.from_expression("0.2*x2*y", box, 2, 1)
    volume = float(np.prod(box.hi - box.lo))
    assert area_integral(heis1, phi) >= volume
    phi0 = GraphFunction.constant(0.3, box)
    assert area_integral(heis1, phi0) == pytest.approx(volume, abs=1e-12)


def test_normal_consistency_with_defining_function(heis1):
    # f = x1 - y: the intrinsic gradient of the explicit graph matches the
    # frame-derivative route on the surface, and with it the unit normal
    # (-1, w) / sqrt(1 + |w|^2), a bijection of w
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
    assert np.allclose(w_frame, w_direct, atol=1e-8)
