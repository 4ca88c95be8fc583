"""The batch contract of the public calls: points of any leading shape
(..., width) give results of that leading shape, each bit for bit the one
the same points give as a flat (rows, width) batch."""

import numpy as np
import pytest

from carnot.calculus import frozen_coefficients, gradient_from_defining_function, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.group import dilate, distance, homogeneous_norm, multiply
from carnot.mollify import (
    MollifierKernel,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.splitting import Cone, cone_membership, graph_map, graph_quasidistance, sigma_form

EXPR = "0.3*x2 - 0.2*y1 + 0.1*x3*y3"


def _f_grad(p):
    # a defining function's coordinate gradient with X_1 f = 1
    return np.concatenate([np.ones(p.shape[:-1] + (1,)), 0.1 * p[..., 1:]], axis=-1)


# (id, "point" or "base" batches, call of the group, phi, kernel and two batches)
CALLS = [
    ("multiply", "point", lambda G, phi, kern, x, y: multiply(G, x, y)),
    ("homogeneous_norm", "point", lambda G, phi, kern, x, y: homogeneous_norm(G, x)),
    ("distance", "point", lambda G, phi, kern, x, y: distance(G, x, y)),
    ("dilate", "point", lambda G, phi, kern, x, y: dilate(G, 0.7, x)),
    ("graph_map", "base", lambda G, phi, kern, a, b: graph_map(G, phi, a)),
    ("graph_quasidistance", "base",
     lambda G, phi, kern, a, b: graph_quasidistance(G, phi, a, b)),
    ("sigma_form", "base", lambda G, phi, kern, a, b: sigma_form(G, phi, b, a)),
    ("cone_membership", "point",
     lambda G, phi, kern, x, y: cone_membership(G, Cone(np.full(G.dim, 0.1), 0.5), x)),
    ("frozen_coefficients", "base", lambda G, phi, kern, a, b: frozen_coefficients(G, phi, 2, a)),
    ("intrinsic_gradient", "base", lambda G, phi, kern, a, b: intrinsic_gradient(G, phi, a)),
    ("gradient_from_defining_function", "point",
     lambda G, phi, kern, x, y: gradient_from_defining_function(G, _f_grad, x)),
    ("expression_eval_extended", "base", lambda G, phi, kern, a, b: phi.eval_extended(a)),
    ("grid_eval_extended", "base",
     lambda G, phi, kern, a, b: GraphFunction.from_grid(
         np.arange(3.0 ** 5).reshape((3,) * 5) / 243.0, phi.domain).eval_extended(a)),
    ("mollified_indicator", "point",
     lambda G, phi, kern, x, y: mollified_indicator(G, phi, kern, x)),
    ("horizontal_gradient_mollified", "point",
     lambda G, phi, kern, x, y: horizontal_gradient_mollified(G, phi, kern, x)),
    ("level_set_phi_alpha", "base",
     lambda G, phi, kern, a, b: level_set_phi_alpha(G, phi, kern, 0.5, a)),
    ("intrinsic_gradient_of_level_set", "base",
     lambda G, phi, kern, a, b: intrinsic_gradient_of_level_set(
         G, phi, kern, a, phi.eval_extended(a))),
]


@pytest.fixture(scope="module")
def free3_kernel(free3):
    return MollifierKernel(free3, 0.2, points_per_axis=6)


@pytest.mark.parametrize("kind, call", [case[1:] for case in CALLS],
                         ids=[case[0] for case in CALLS])
def test_leading_axes_give_the_flat_batch_bits(free3, free3_kernel, kind, call):
    # on free_step2(3), m = 3 and n = 3, a (2, 3, width) batch against the
    # same six points as one (6, width) batch
    G = free3
    phi = GraphFunction.from_expression(EXPR, Box([0.0] * 5, [1.0] * 5), G.m, G.n)
    width = G.dim if kind == "point" else G.base_dim
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.0, 1.0, size=(2, 6, width))
    flat = np.asarray(call(G, phi, free3_kernel, x, y))
    shaped = np.asarray(call(G, phi, free3_kernel, x.reshape(2, 3, width),
                             y.reshape(2, 3, width)))
    assert flat.shape[0] == 6
    assert shaped.shape == (2, 3) + flat.shape[1:]
    assert np.array_equal(shaped.reshape(flat.shape), flat)
    assert np.all(np.isfinite(flat))
