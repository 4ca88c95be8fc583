import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot import errors
from carnot.functions import Box, GraphFunction, base_coordinate_names
from carnot.group import dilate, homogeneous_norm, inverse, multiply
from carnot.splitting import (
    Cone,
    _anchor_terms,
    _first_pairs,
    _split,
    cone_membership,
    estimate_intrinsic_lipschitz,
    graph_map,
    graph_point,
    graph_quasidistance,
    project_splitting,
    sigma_form,
    translate_graph_function,
    vertical_holder_modulus,
)

from carnot.quadrature import tensor_grid
from conftest import embed_base, lift_graph_value, random_points, unit_box


def recompose(G, base, t):
    return multiply(G, embed_base(G, base), lift_graph_value(G, t))


def test_project_splitting_example(heis1):
    base, t = project_splitting(heis1, [1.0, 2.0, 3.0])
    assert t == pytest.approx(1.0)
    assert np.allclose(base, [2.0, 2.0])
    assert np.allclose(recompose(heis1, base, t), [1.0, 2.0, 3.0])


def test_project_splitting_w_point(heis1):
    base, t = project_splitting(heis1, [0.0, 2.0, 3.0])
    assert t == 0.0
    assert np.allclose(base, [2.0, 3.0])


def test_project_splitting_v_point(heis1):
    base, t = project_splitting(heis1, [1.7, 0.0, 0.0])
    assert t == pytest.approx(1.7)
    assert np.allclose(base, [0.0, 0.0])


def test_project_recompose_identity(all_groups):
    rng = np.random.default_rng(23)
    for G in all_groups:
        p = random_points(G, 500, rng, scale=2.0)
        base, t = project_splitting(G, p)
        back = recompose(G, base, t)
        assert np.allclose(back, p, rtol=1e-13, atol=1e-13)


def test_graph_map_zero_function(heis1):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    a = np.array([0.3, -0.4])
    assert np.allclose(graph_map(heis1, phi0, a), embed_base(heis1, a))


def test_graph_map_example(heis1, phi_x2):
    assert np.allclose(graph_map(heis1, phi_x2, [1.0, 0.0]), [1.0, 1.0, 0.5])


def test_graph_map_roundtrip(heis1, phi_x2):
    rng = np.random.default_rng(29)
    a = phi_x2.domain.sample(200, rng)
    p = graph_map(heis1, phi_x2, a)
    base, t = project_splitting(heis1, p)
    assert np.allclose(base, a, atol=1e-13)
    assert np.allclose(t, phi_x2(a), atol=1e-13)


def test_graph_map_out_of_domain(heis1, phi_x2):
    with pytest.raises(errors.OutOfDomain):
        graph_map(heis1, phi_x2, [5.0, 0.0])


def test_translate_by_identity(heis1, phi_x2):
    phi0 = translate_graph_function(heis1, phi_x2, np.zeros(3))
    rng = np.random.default_rng(31)
    a = phi_x2.domain.sample(100, rng)
    assert np.allclose(phi0.eval_extended(a), phi_x2(a), atol=1e-13)


def test_translate_normalization(heis1, phi_x2):
    # shifting by the inverse of a graph point sends that point to the origin
    a0 = np.array([0.25, -0.5])
    q = inverse(heis1, graph_map(heis1, phi_x2, a0))
    phi_q = translate_graph_function(heis1, phi_x2, q)
    assert phi_q.eval_extended(np.zeros(2)) == pytest.approx(0.0, abs=1e-13)


def test_translate_graph_identity(heis1, phi_x2):
    # q * graph(phi) = graph(phi_q), checked pointwise through the graph map
    rng = np.random.default_rng(37)
    q = np.array([0.3, -0.2, 0.15])
    phi_q = translate_graph_function(heis1, phi_x2, q)
    b = phi_x2.domain.sample(200, rng)
    moved = multiply(heis1, q, graph_map(heis1, phi_x2, b))
    base, t = project_splitting(heis1, moved)
    assert np.all(phi_q.in_domain(base))
    assert np.allclose(phi_q.eval_extended(base), t, atol=1e-10)


def test_translate_out_of_domain(heis1, phi_x2):
    # pulled-back base point must land in the original domain
    q = np.array([0.0, 1.5, 0.0])
    phi_q = translate_graph_function(heis1, phi_x2, q)
    assert bool(phi_q.in_domain(np.array([2.4, 0.0])))
    assert not bool(phi_q.in_domain(np.array([0.0, 0.0])))
    with pytest.raises(errors.OutOfDomain):
        phi_q(np.array([0.0, 0.0]))


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
def test_translate_checked_call_matches_unchecked(group_name, request):
    # a checked call gives the unchecked value bit for bit inside the
    # domain, and OutOfDomain outside it
    G = request.getfixturevalue(group_name)
    names = base_coordinate_names(G.m, G.n)
    phi = GraphFunction.from_expression(f"0.4*{names[0]} + 0.3*sin({names[-1]})",
                                        unit_box(G.base_dim, half=2.0), G.m, G.n)
    rng = np.random.default_rng(43)
    q = 0.1 * rng.uniform(-1.0, 1.0, size=G.dim)
    phi_q = translate_graph_function(G, phi, q)
    a = rng.uniform(-1.0, 1.0, size=(200, G.base_dim))
    assert np.all(phi_q.in_domain(a))
    value = phi_q(a)
    with pytest.raises(errors.OutOfDomain):
        phi_q(np.full(G.base_dim, 5.0))
    assert np.array_equal(value, phi_q.eval_extended(a))


def test_lipschitz_estimate_translation_coherent(heis1):
    # the graph quasi-distance is left invariant, so the sampled constant of
    # the translated function stays close (boxes differ, so not identical)
    phi = GraphFunction.from_expression("0.5*x2 + 0.2*y", unit_box(2), 2, 1)
    cl = estimate_intrinsic_lipschitz(heis1, phi, 6000)
    phi_q = translate_graph_function(heis1, phi, np.array([0.4, -0.3, 0.2]))
    cl_q = estimate_intrinsic_lipschitz(heis1, phi_q, 6000)
    assert abs(cl_q - cl) <= 0.25 * cl


def test_cone_rejects_negative_opening():
    with pytest.raises(errors.ValidationError):
        Cone(vertex=np.zeros(3), beta=-0.1)


def test_cone_membership_vertex_and_axis(heis1):
    cone = Cone(vertex=np.array([0.5, -0.2, 0.1]), beta=0.5)
    assert bool(cone_membership(heis1, cone, cone.vertex))
    axis_cone = Cone(vertex=np.zeros(3), beta=0.0)
    assert bool(cone_membership(heis1, axis_cone, [1.0, 0.0, 0.0]))


def test_cone_membership_monotone_in_beta(heis1):
    rng = np.random.default_rng(41)
    p = random_points(heis1, 500, rng)
    small = cone_membership(heis1, Cone(np.zeros(3), 0.4), p)
    large = cone_membership(heis1, Cone(np.zeros(3), 1.1), p)
    assert np.all(large[small])


def test_quasidistance_zero_on_diagonal(heis1, phi_x2):
    a = np.array([0.3, 0.4])
    assert graph_quasidistance(heis1, phi_x2, a, a) == pytest.approx(0.0, abs=1e-15)


def test_quasidistance_zero_function(heis1):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    rng = np.random.default_rng(43)
    a = phi0.domain.sample(100, rng)
    b = phi0.domain.sample(100, rng)
    qd = graph_quasidistance(heis1, phi0, a, b)
    ref = homogeneous_norm(
        heis1, multiply(heis1, inverse(heis1, embed_base(heis1, a)),
                        embed_base(heis1, b)))
    assert np.allclose(qd, ref, atol=1e-14)


def test_sigma_form_matches_group_quasidistance(heis1):
    # with one vertical direction the conjugated second layer is exactly the
    # sigma-form inner value: qd(a,b) = max(|dx|, eps * sigma(a,b))
    phi = GraphFunction.from_expression("0.4*x2 + 0.3*sin(y)", unit_box(2), 2, 1)
    rng = np.random.default_rng(151)
    a = phi.domain.sample(300, rng)
    b = phi.domain.sample(300, rng)
    qd = graph_quasidistance(heis1, phi, a, b)
    sig = sigma_form(heis1, phi, a, b)
    dx = np.abs(a[:, 0] - b[:, 0])
    assert np.allclose(qd, np.maximum(dx, heis1.epsilon * sig), atol=1e-12)


@pytest.mark.parametrize("group_name", ["heis1", "free3", "quat"])
def test_sigma_quasi_symmetry_gap(group_name, request):
    G = request.getfixturevalue(group_name)
    d = G.base_dim
    phi = GraphFunction.from_expression(
        "x2 + sin(y1)" if G.n >= 1 else "x2", unit_box(d), G.m, G.n)
    rng = np.random.default_rng(47)
    a = phi.domain.sample(400, rng)
    b = phi.domain.sample(400, rng)
    s_ba = sigma_form(G, phi, b, a)
    s_ab = sigma_form(G, phi, a, b)
    dphi = np.abs(phi.eval_extended(a) - phi.eval_extended(b))
    dx = np.linalg.norm(a[:, :G.m - 1] - b[:, :G.m - 1], axis=-1)
    bound = G.n * np.sqrt(G.b_max) * np.sqrt(dphi) * np.sqrt(dx)
    assert np.all(np.abs(s_ba - s_ab) <= bound + 1e-12)


def test_lipschitz_estimate_constant_is_zero(heis1):
    phi_c = GraphFunction.constant(0.7, unit_box(2))
    assert estimate_intrinsic_lipschitz(heis1, phi_c, 2000) == pytest.approx(0.0)


def test_lipschitz_estimate_stable_under_refinement(heis1):
    phi = GraphFunction.from_expression("x2", Box([0.0, 0.0], [1.0, 1.0]), 2, 1)
    coarse = estimate_intrinsic_lipschitz(heis1, phi, pair_samples=4000)
    fine = estimate_intrinsic_lipschitz(heis1, phi, pair_samples=16000)
    assert coarse > 0.0
    assert abs(fine - coarse) <= 0.05 * max(fine, coarse)


def test_lipschitz_estimate_deterministic(heis1, phi_x2):
    e1 = estimate_intrinsic_lipschitz(heis1, phi_x2, pair_samples=3000, seed=4)
    e2 = estimate_intrinsic_lipschitz(heis1, phi_x2, pair_samples=3000, seed=4)
    assert e1 == e2


def test_lipschitz_estimate_detects_non_lipschitz(heis1):
    # |y|^(1/4) has vertical quotient |y|^(-1/4) -> diverges under refinement
    estimates = []
    for half in (1.0, 1e-3, 1e-6):
        phi = GraphFunction.from_expression(
            "abs(y)**0.25", Box([-1.0, -half], [1.0, half]), 2, 1)
        estimates.append(estimate_intrinsic_lipschitz(heis1, phi, 4000))
    assert estimates[0] < estimates[1] < estimates[2]
    assert estimates[2] > 10.0 * estimates[0]


def test_vertical_holder_modulus_independent_of_y():
    phi = GraphFunction.from_expression("x2", unit_box(2), 2, 1)
    table = vertical_holder_modulus(phi, [0.5, 0.1, 0.02])
    assert all(mod == pytest.approx(0.0, abs=1e-13) for _, mod in table)


def test_vertical_holder_modulus_linear():
    phi = GraphFunction.from_expression("y", unit_box(2), 2, 1)
    # grid spacing 0.02 exactly, so each radius has pairs realizing it
    table = dict(vertical_holder_modulus(phi, [0.5, 0.1, 0.02], grid_per_axis=101))
    for r, mod in table.items():
        assert mod == pytest.approx(np.sqrt(r), rel=0.05)
    assert table[0.02] < 0.15


def test_vertical_holder_modulus_sqrt():
    phi = GraphFunction.from_expression("sqrt(abs(y))", unit_box(2), 2, 1)
    table = dict(vertical_holder_modulus(phi, [0.5, 0.1, 0.02], grid_per_axis=101))
    for mod in table.values():
        assert mod >= 0.9


def _holder_modulus_all_pairs(phi, r_list, grid_per_axis, n_vertical):
    """The modulus from the full (x-slices, Ny, Ny) arrays of pair
    differences, as first implemented: the reference for the per-lag pass."""
    box = phi.domain
    d = box.dim
    shape = (grid_per_axis,) * d
    pts = tensor_grid(box.lo, box.hi, shape, nodes="endpoint")
    vals = phi.eval_extended(pts).reshape(shape)
    y_pts = tensor_grid(box.lo[d - n_vertical:], box.hi[d - n_vertical:],
                        shape[d - n_vertical:], nodes="endpoint")
    vals = vals.reshape(-1, y_pts.shape[0])
    dy = np.linalg.norm(y_pts[:, None, :] - y_pts[None, :, :], axis=-1)
    dv = np.abs(vals[:, :, None] - vals[:, None, :])
    out = []
    for r in sorted(r_list, reverse=True):
        sel = (dy > 0) & (dy <= r * (1.0 + 1e-9))
        if not np.any(sel):
            out.append((float(r), 0.0))
            continue
        out.append((float(r), float(np.max(dv[:, sel] / np.sqrt(dy[sel])[None, :]))))
    return out


@pytest.mark.parametrize("expr, m, n, grid", [
    ("sin(3*x2)*cos(2*y) + sqrt(abs(y))", 2, 1, 9),
    ("x2*x3 + exp(y/2)*cos(4*y)", 3, 1, 7),
    ("sin(x2 + 2*y1) - 0.3*y2**2 + abs(y3)**0.7", 2, 3, 5),
    ("x2*y1 + sin(3*x3*y2) + sqrt(abs(y3 - 0.1))", 3, 3, 4),
])
def test_vertical_holder_modulus_matches_all_pairs(expr, m, n, grid):
    dim = m + n - 1
    phi = GraphFunction.from_expression(expr, Box([-1.0] * dim, [1.3] * dim), m, n)
    spacing = 2.3 / (grid - 1)
    # radii below, at and between grid separations, and past the diameter
    radii = [0.5 * spacing, spacing, 1.5 * spacing, math.sqrt(2) * spacing,
             0.9, 2.3 * math.sqrt(n) + 1.0]
    got = vertical_holder_modulus(phi, radii, grid_per_axis=grid, n_vertical=n)
    want = _holder_modulus_all_pairs(phi, radii, grid, n)
    assert [r for r, _ in got] == [r for r, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0.0)
    assert got[-1][1] == 0.0            # no pair is closer than one spacing


def test_vertical_holder_modulus_memory_bounded():
    # free_step2(3) base, 10 per axis: 100 x-slices of 1000 vertical points,
    # whose all-pairs difference array alone would take 800 MB
    phi = GraphFunction.from_expression("0.25*y1", Box([-2.0] * 5, [2.0] * 5), 3, 3)
    tracemalloc.start()
    try:
        table = vertical_holder_modulus(phi, [4.0 * math.sqrt(3)], grid_per_axis=10,
                                        n_vertical=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # the largest quotient is across the whole y1 range: 0.25 * 4 / sqrt(4)
    assert table[0][1] == pytest.approx(0.5, rel=1e-12)


def test_lipschitz_estimate_builds_only_the_pairs_it_reads(free5):
    # the first pairs of its grid in np.triu_indices order; free_step2(5)'s
    # 14-axis base has a grid of 2^14 points, and all their 134M index pairs
    # took 2 GB where 2000 are read
    for count in (1, 2, 3, 10, 121):
        want = np.triu_indices(count, k=1)
        for limit in (1, 2, 7, 100, 10_000):
            got = _first_pairs(count, limit)
            assert all(np.array_equal(g, w[:limit]) for g, w in zip(got, want))
    phi = GraphFunction.from_expression("0.2*x3 + 0.1*y4", Box([0.0] * 14, [1.0] * 14), 5, 10)
    tracemalloc.start()
    try:
        estimate = estimate_intrinsic_lipschitz(free5, phi, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert math.isfinite(estimate) and estimate > 0.0


def test_c0_inequality(heis1_calibrated):
    G = heis1_calibrated
    rng = np.random.default_rng(53)
    base = rng.uniform(-1.0, 1.0, size=(2000, 2))
    t = rng.uniform(-1.0, 1.0, size=2000)
    pw = embed_base(G, base)
    pv = lift_graph_value(G, t)
    prod = multiply(G, pw, pv)
    lhs = homogeneous_norm(G, prod)
    total = homogeneous_norm(G, pw) + homogeneous_norm(G, pv)
    keep = total > 1e-12
    ratios = lhs[keep] / total[keep]
    c0 = float(np.min(ratios))
    assert 0.0 < c0 < 1.0
    assert np.all(lhs[keep] <= total[keep] * (1.0 + 1e-12))


def test_linear_graph_is_homogeneous_subgroup(heis1, free3):
    rng = np.random.default_rng(59)
    for G, coeffs in ((heis1, [0.8]), (free3, [0.5, -0.3])):
        d = G.base_dim
        expr = "+".join(f"({c})*x{j + 2}" for j, c in enumerate(coeffs))
        phi = GraphFunction.from_expression(expr, unit_box(d, half=50.0), G.m, G.n)
        a = rng.uniform(-1, 1, size=(200, d))
        b = rng.uniform(-1, 1, size=(200, d))
        lam = rng.uniform(0.1, 3.0, size=200)
        prod = multiply(G, graph_map(G, phi, a), graph_map(G, phi, b))
        base, t = project_splitting(G, prod)
        assert np.allclose(t, phi.eval_extended(base), atol=1e-11)
        dil = dilate(G, lam, graph_map(G, phi, a))
        base_d, t_d = project_splitting(G, dil)
        assert np.allclose(t_d, phi.eval_extended(base_d), atol=1e-11)


def test_cone_condition_equivalence(heis1):
    # measured constant C implies cones of opening 1/C' avoid the graph
    phi = GraphFunction.from_expression("x2", unit_box(2), 2, 1)
    C = estimate_intrinsic_lipschitz(heis1, phi, 4000)
    rng = np.random.default_rng(61)
    a = phi.domain.sample(60, rng)
    P = graph_map(heis1, phi, a)
    for cp in (1.01 * C, 2.0 * C):
        cone_hits = 0
        for i in range(len(P)):
            cone = Cone(P[i], 1.0 / cp)
            member = cone_membership(heis1, cone, P)
            member[i] = False           # the vertex itself is allowed
            cone_hits += int(np.count_nonzero(member))
        assert cone_hits == 0


def test_holder_bound_from_lipschitz(heis1):
    # 1/2-Hoelder quotient stays bounded at small separations
    phi = GraphFunction.from_expression("0.5*x2 + 0.25*y", unit_box(2), 2, 1)
    rng = np.random.default_rng(67)
    a = phi.domain.sample(4000, rng)
    b = phi.domain.sample(4000, rng)
    sep = homogeneous_norm(
        heis1, multiply(heis1, inverse(heis1, embed_base(heis1, a)),
                        embed_base(heis1, b)))
    dphi = np.abs(phi.eval_extended(a) - phi.eval_extended(b))
    keep = sep > 1e-12
    quot = dphi[keep] / np.sqrt(sep[keep])
    overall = np.max(quot)
    close = sep[keep] < 0.1
    assert np.max(quot[close]) <= 2.0 * overall
    assert np.isfinite(overall)


def _composed_quasidistance(G, phi, a, b):
    """|| phi(a)^-1 i(a)^-1 i(b) phi(a) || by three products, two inverses
    and two embeddings: the form the closed form replaced."""
    v = lift_graph_value(G, phi.eval_extended(a))
    g = multiply(G, multiply(G, inverse(G, v), inverse(G, embed_base(G, a))),
                 multiply(G, embed_base(G, b), v))
    return homogeneous_norm(G, g)


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["0.7*x2 - 0.4*y1", "sin(3*x2) + y1**2", "0"]))
def test_quasidistance_closed_form_property(all_groups, index, seed, expr):
    G = all_groups[index]
    d = G.base_dim
    phi = GraphFunction.from_expression(expr, unit_box(d, half=2.0), G.m, G.n)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, size=(200, d))
    b = rng.uniform(-2.0, 2.0, size=(200, d))
    want = _composed_quasidistance(G, phi, a, b)
    np.testing.assert_allclose(graph_quasidistance(G, phi, a, b), want, rtol=1e-12)
    # one point against a batch
    np.testing.assert_allclose(graph_quasidistance(G, phi, a[0], b),
                               _composed_quasidistance(G, phi, a[0], b), rtol=1e-12)
    # coincident pairs sit below QUASIDISTANCE_FLOOR: on these groups each
    # base block of B^(s) holds at most one skew pair, whose two terms
    # cancel exactly
    assert np.all(graph_quasidistance(G, phi, a, a) == 0.0)


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 100.0))
def test_split_and_recompose_property(all_groups, index, seed, scale):
    # p = i(b) * (t, 0, ..., 0) for (b, t) = project_splitting(p)
    G = all_groups[index]
    p = random_points(G, 100, np.random.default_rng(seed), scale=scale)
    base, t = project_splitting(G, p)
    np.testing.assert_allclose(recompose(G, base, t), p, rtol=1e-12,
                               atol=1e-13 * scale ** 2)


def _composed_split(G, p):
    """(base, t) of p = p_W * p_V straight from the layers of p, without
    the shared split: the reference for the anchored splits."""
    x, y = p[..., :G.m], p[..., G.m:]
    t = x[..., 0]
    y_w = y - 0.5 * t[..., None] * (x @ G.B[:, 0, :].T)
    return np.concatenate([x[..., 1:], y_w], axis=-1), t


_EXPRS = ["0.7*x2 - 0.4*y1", "sin(3*x2) + y1**2", "0"]


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.01, 100.0))
def test_graph_point_closed_form_property(all_groups, index, seed, scale):
    G = all_groups[index]
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(-1.0, 1.0, size=(100, G.base_dim))
    t = scale * rng.uniform(-1.0, 1.0, size=100)
    np.testing.assert_allclose(graph_point(G, a, t), recompose(G, a, t),
                               rtol=1e-12, atol=1e-13 * scale ** 2)
    # one base point against a batch of graph coordinates
    np.testing.assert_allclose(graph_point(G, a[0], t), recompose(G, a[0], t),
                               rtol=1e-12, atol=1e-13 * scale ** 2)


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 2.0))
def test_right_v_factor_moves_only_graph_coordinate_property(all_groups, index,
                                                             seed, s):
    # u^-1 p (s e1) = i(base) * ((t + s) e1) for (base, t) the split of
    # u^-1 p: the mollifier reads g - s at p * (s e1) off g at p
    G = all_groups[index]
    rng = np.random.default_rng(seed)
    terms = _anchor_terms(G, random_points(G, 7, rng))
    p = random_points(G, 50, rng, scale=2.0)
    step = np.zeros(G.dim)
    step[0] = s
    base, t = _split(G, terms, p)
    moved_base, moved_t = _split(G, terms, multiply(G, p, step))
    bound = 1e-15 * (1.0 + np.linalg.norm(p, axis=-1))
    assert np.all(np.abs(moved_base - base) <= bound[:, None, None])
    assert np.all(np.abs(moved_t - (t + s)) <= bound[:, None])


def test_graph_point_dimension_mismatch(heis1):
    with pytest.raises(errors.DimensionMismatch):
        graph_point(heis1, np.zeros(3), 0.0)


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0))
def test_cone_membership_matches_composed_property(all_groups, index, seed, beta):
    G = all_groups[index]
    rng = np.random.default_rng(seed)
    cone = Cone(rng.uniform(-1.0, 1.0, size=G.dim), beta)
    p = random_points(G, 300, rng, scale=2.0)
    base, t = _composed_split(G, multiply(G, inverse(G, cone.vertex), p))
    want = homogeneous_norm(G, embed_base(G, base)) <= beta * np.abs(t)
    assert np.array_equal(cone_membership(G, cone, p), want)
    assert bool(cone_membership(G, cone, p[0])) == bool(want[0])


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from(_EXPRS))
def test_translate_matches_composed_property(all_groups, index, seed, expr):
    G = all_groups[index]
    phi = GraphFunction.from_expression(expr, unit_box(G.base_dim, half=2.0),
                                        G.m, G.n)
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=G.dim)
    a = rng.uniform(-3.0, 3.0, size=(300, G.base_dim))
    base, t = _composed_split(G, multiply(G, inverse(G, q), embed_base(G, a)))
    phi_q = translate_graph_function(G, phi, q)
    np.testing.assert_allclose(phi_q.eval_extended(a), phi.eval_extended(base) - t,
                               rtol=1e-12, atol=1e-14)
    assert np.array_equal(phi_q.in_domain(a), phi.in_domain(base))


@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1), st.sampled_from(_EXPRS))
def test_translate_matches_graph_map_property(all_groups, index, seed, expr):
    # q * Phi(b) = Phi_q(a'): the moved graph point splits into (a', phi_q(a'))
    G = all_groups[index]
    phi = GraphFunction.from_expression(expr, unit_box(G.base_dim, half=2.0),
                                        G.m, G.n)
    rng = np.random.default_rng(seed)
    q = rng.uniform(-1.0, 1.0, size=G.dim)
    # inside the domain by a margin, so rounding cannot move b out of it
    b = rng.uniform(-1.999, 1.999, size=(300, G.base_dim))
    moved_base, moved_t = project_splitting(
        G, multiply(G, q, graph_map(G, phi, b)))
    phi_q = translate_graph_function(G, phi, q)
    assert np.all(phi_q.in_domain(moved_base))
    np.testing.assert_allclose(phi_q(moved_base), moved_t, rtol=1e-12, atol=1e-12)


def _sigma_form_reference(G, phi, b, a):
    """sigma_phi(b, a) term by term from its coordinate formula."""
    k = G.m - 1
    xa, ya = a[..., :k], a[..., k:]
    xb, yb = b[..., :k], b[..., k:]
    lin = (xa - xb) @ G.B[:, 0, 1:].T          # sum_l (x_l - x'_l) b^(s)_{1l}
    cross = np.einsum("sij,...j,...i->...s", G.B[:, 1:, 1:], xb, xa)   # <B^(s) x', x>
    inner = ya - yb + phi.eval_extended(b)[..., None] * lin - 0.5 * cross
    return np.sum(np.sqrt(np.abs(inner)), axis=-1)


@pytest.mark.parametrize("group_name", ["heis1", "heis2", "free3", "quat"])
def test_sigma_form_is_the_quasidistance_layer(group_name, request):
    # sigma_form reads the second layer of the quasi-distance's conjugated
    # product; it agrees with the coordinate formula up to rounding, which
    # is relative to max(sigma, 1): a small sigma comes from cancellation
    # inside |.|, where the terms' own rounding dominates
    G = request.getfixturevalue(group_name)
    names = base_coordinate_names(G.m, G.n)
    phi = GraphFunction.from_expression(f"0.4*{names[0]} + 0.3*sin({names[-1]})",
                                        unit_box(G.base_dim), G.m, G.n)
    rng = np.random.default_rng(71)
    a = phi.domain.sample(1000, rng)
    b = phi.domain.sample(1000, rng)
    want = _sigma_form_reference(G, phi, b, a)
    got = sigma_form(G, phi, b, a)
    assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(want, 1.0))
