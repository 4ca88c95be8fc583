"""The batch contract of the public calls: points of any leading shape
(..., width) give results of that leading shape, each bit for bit the one
the same points give as a flat (rows, width) batch, and a batch gives the
same bits in row-major and in coordinate-major layout."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot.calculus import frozen_coefficients, gradient_from_defining_function, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.group import _multiply, _sum_of_squares, dilate, distance, homogeneous_norm, multiply
from carnot.mollify import (
    MollifierKernel,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.splitting import (
    Cone,
    cone_membership,
    graph_map,
    graph_point,
    graph_quasidistance,
    project_splitting,
    sigma_form,
)

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


def _coordinate_major_copy(x):
    """x with the same entries, each coordinate (last-axis column) one
    contiguous block."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


# (id, call of the group, phi with partials, phi without, point batches p
# and q, base batches a and graph coordinates t)
LAYOUT_CALLS = [
    ("_multiply", lambda G, phi, kink, p, q, a, t: _multiply(G, p, q)),
    ("homogeneous_norm", lambda G, phi, kink, p, q, a, t: homogeneous_norm(G, p)),
    ("graph_point", lambda G, phi, kink, p, q, a, t: graph_point(G, a, t)),
    ("project_splitting", lambda G, phi, kink, p, q, a, t: project_splitting(G, p)),
    ("intrinsic_gradient", lambda G, phi, kink, p, q, a, t: intrinsic_gradient(G, phi, a)),
    ("intrinsic_gradient_differences",
     lambda G, phi, kink, p, q, a, t: intrinsic_gradient(G, kink, a, check_domain=False)),
    ("_sum_of_squares_points", lambda G, phi, kink, p, q, a, t: _sum_of_squares(p)),
    ("_sum_of_squares_base", lambda G, phi, kink, p, q, a, t: _sum_of_squares(a)),
]


@pytest.fixture(scope="module")
def layout_groups(heis1, heis2, free3, quat, heis4, free5):
    # each group with a phi over [-1, 1]^(m+n-1) that has analytic partials
    # and reads x2, x_m, y1 and y_n, and the same phi plus an Abs term, which
    # has none and takes central differences
    out = []
    for G in (heis1, heis2, free3, quat, heis4, free5):
        expr = f"0.3*x2 - 0.2*y{G.n} + 0.1*sin(x{G.m})*y1"
        box = Box([-1.0] * G.base_dim, [1.0] * G.base_dim)
        out.append((G, GraphFunction.from_expression(expr, box, G.m, G.n),
                    GraphFunction.from_expression(expr + " + 0.1*abs(x2)", box, G.m, G.n)))
    return out


@given(st.integers(0, 5), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
def test_layout_gives_the_same_bits(layout_groups, group, count, seed):
    # the same batch in row-major and in coordinate-major layout: every call
    # gives the same bits, including the sums over 8 or more coordinates of
    # heisenberg(4) and free_step2(5), which np.sum takes in another order on
    # a coordinate-major batch
    G, phi, kink = layout_groups[group]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, (count, 1))
    p, q = scale * rng.normal(size=(2, count, G.dim))
    a = rng.uniform(-1.0, 1.0, (count, G.base_dim))
    t = rng.normal(size=count)
    rows = [np.ascontiguousarray(x) for x in (p, q, a)]
    columns = [_coordinate_major_copy(x) for x in (p, q, a)]
    assert not columns[0].flags.c_contiguous or count == 1
    for name, call in LAYOUT_CALLS:
        want = call(G, phi, kink, *rows, t)
        got = call(G, phi, kink, *columns, t)
        for w, g in zip(*(x if isinstance(x, tuple) else (x,) for x in (want, got))):
            assert np.shape(w) == np.shape(g), name
            assert np.ascontiguousarray(w).tobytes() == np.ascontiguousarray(g).tobytes(), name
