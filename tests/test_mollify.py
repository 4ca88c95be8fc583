import gc
import json
import sys
import threading
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot import errors
from carnot import mollify
from carnot.area import area_integral
from carnot.calculus import _intrinsic_gradient, intrinsic_gradient
from carnot.functions import Box, GraphFunction
from carnot.group import make_group, multiply, standard_group
from carnot.mollify import (
    MollifierKernel,
    _bump,
    _nonzero_node_count,
    _section_roots,
    approximation_report,
    horizontal_gradient_mass,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.quadrature import tensor_grid
from carnot.splitting import _anchor_terms, _split, graph_point
from conftest import embed_base, lift_graph_value, unit_box

# (group fixture, kernel points per axis, expression) for the four groups
FOUR_GROUPS = [("heis1", 16, "0.3*sin(x2) + 0.2*y"),
               ("heis2", 8, "0.5*x2 + 0.25*x4"),
               ("free3", 6, "0.3*x2 - 0.2*y1 + 0.1*x3*y3"),
               ("quat", 4, "0.3*x2 - 0.2*y1 + 0.1*x4*y3")]


@pytest.fixture(scope="module")
def phi_unit(heis1):
    return GraphFunction.from_expression("x2", Box([0.0, 0.0], [1.0, 1.0]), 2, 1)


@pytest.fixture(scope="module")
def kernel01(heis1):
    return MollifierKernel(heis1, 0.1)


def section_point(G, a, t):
    return multiply(G, embed_base(G, np.asarray(a)),
                    lift_graph_value(G, np.asarray(t)))


def _full_grid_profile(kern, p):
    # the unnormalised profile of rho(delta_{1/alpha} p) at every point p
    G, a = kern.G, kern.alpha
    x = p[..., :G.m] / a
    y = p[..., G.m:] / a ** 2
    return _bump(np.sum(x * x, axis=-1)) * _bump(G.epsilon ** 4 * np.sum(y * y, axis=-1))


@pytest.mark.parametrize("group", ["heis1", "heis2", "free3", "quat"])
def test_kernel_weights_from_factor_bumps_match_full_grid(request, group):
    # the two factor bumps on their k^m and k^n block grids give the
    # profile of every node of the k^(m+n) grid bit for bit, and the
    # weights are that profile over its sum
    G = request.getfixturevalue(group)
    for k in (4, 5, 8) + tuple(k for k in (12, 16) if k ** G.dim <= 2 ** 20):
        for alpha in (0.013, 0.15, 1.0):
            kern = MollifierKernel(G, alpha, points_per_axis=k)
            half = np.array([alpha] * G.m + [alpha ** 2 / G.epsilon ** 2] * G.n)
            nodes = tensor_grid(-half, half, (k,) * G.dim)
            profile = _full_grid_profile(kern, nodes)
            weights = profile / np.sum(profile)
            keep = weights > 0.0
            assert np.array_equal(kern.nodes, nodes)
            assert np.array_equal(kern.weights, weights)
            assert np.array_equal(kern._conv_nodes, nodes[keep])
            assert np.array_equal(kern._conv_weights, weights[keep])
            for got, ref in zip(kern._conv_terms, _anchor_terms(G, nodes[keep])):
                assert np.array_equal(got, ref)


@pytest.mark.parametrize("group, k", [(group, k) for group, k, _ in FOUR_GROUPS])
def test_kernel_holds_no_full_grid_array(request, group, k):
    # the kernel keeps its convolution set and the grid's axes, never an
    # array over all k^(m+n) nodes; nodes and weights are built on read
    G = request.getfixturevalue(group)
    kern = MollifierKernel(G, 0.15, points_per_axis=k)
    held = list(vars(kern).values())
    while held:
        item = held.pop()
        if isinstance(item, (list, tuple)):
            held.extend(item)
        elif isinstance(item, np.ndarray):
            assert k ** G.dim not in item.shape
    assert kern.nodes.shape == (k ** G.dim, G.dim)
    assert kern.weights.shape == (k ** G.dim,)


@pytest.mark.parametrize("group, k", [("heis1", 16), ("heis2", 8), ("free3", 6)])
def test_kernel_convolution_set_is_nonzero_nodes(request, group, k):
    G = request.getfixturevalue(group)
    kern = MollifierKernel(G, 0.15, points_per_axis=k)
    # nodes and weights stay the whole grid
    assert kern.nodes.shape == (k ** G.dim, G.dim)
    half = np.array([0.15] * G.m + [0.15 ** 2 / G.epsilon ** 2] * G.n)
    assert np.array_equal(kern.nodes, tensor_grid(-half, half, (k,) * G.dim))
    profile = _full_grid_profile(kern, kern.nodes)
    assert np.allclose(kern.weights, profile / np.sum(profile), rtol=1e-12, atol=0.0)
    # the convolution runs over exactly the nonzero-weight nodes
    keep = kern.weights > 0.0
    assert kern._conv_weights.size == np.count_nonzero(kern.weights) < k ** G.dim
    assert np.array_equal(kern._conv_weights, kern.weights[keep])
    assert np.array_equal(kern._conv_nodes, kern.nodes[keep])


@pytest.mark.parametrize("group", ["heis1", "heis2", "free3", "quat"])
def test_nonzero_node_count_matches_built_kernel(request, group):
    # the count the work budget is checked against before any kernel is built
    G = request.getfixturevalue(group)
    for k in (4, 6, 8, 16):
        if k ** G.dim > 2 ** 18:
            continue
        for alpha in (0.013, 0.05, 0.3):
            kern = MollifierKernel(G, alpha, points_per_axis=k)
            assert _nonzero_node_count(G, k) == kern._conv_weights.size


def test_kernel_on_an_equal_group(heis1, phi_unit):
    # a kernel carries the bracket terms of its group: one built on an equal
    # but distinct group gives the same bits, one built on a group of the
    # same m, n and epsilon but another B is refused
    p = graph_point(heis1, [[0.5, 0.5], [0.25, 0.75]], [0.4, 0.3])
    want = mollified_indicator(heis1, phi_unit, MollifierKernel(heis1, 0.2, 8), p)
    twin = standard_group("heisenberg", 1, epsilon=1.0)
    assert twin is not heis1
    got = mollified_indicator(heis1, phi_unit, MollifierKernel(twin, 0.2, 8), p)
    assert got.tobytes() == want.tobytes()
    scaled = make_group(2, 1, [[[0.0, 2.0], [-2.0, 0.0]]], epsilon=1.0)
    with pytest.raises(errors.ValidationError, match="the kernel was built on"):
        mollified_indicator(heis1, phi_unit, MollifierKernel(scaled, 0.2, 8), p)


def _held_arrays(kern):
    # the arrays of a kernel's axes and convolution set
    return [*kern._axes, kern._conv_index, kern._conv_nodes, kern._conv_weights,
            *kern._conv_terms]


def test_kernel_memo_shares_read_only_arrays(heis1):
    # a twin group, equal in m, n, epsilon and B but another object, gets the
    # same arrays; another epsilon gets its own; none of them can be written,
    # and the memo keeps no group alive
    twin = standard_group("heisenberg", 1, epsilon=1.0)
    assert twin is not heis1
    held = _held_arrays(MollifierKernel(heis1, 0.125, 8))
    shared = _held_arrays(MollifierKernel(twin, 0.125, 8))
    assert all(a is b for a, b in zip(held, shared))
    other = _held_arrays(MollifierKernel(standard_group("heisenberg", 1, epsilon=0.5),
                                         0.125, 8))
    assert not any(a is b for a, b in zip(held, other))
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array.reshape(-1)[0] = 1.0
    gone = weakref.ref(twin)
    del twin
    gc.collect()
    assert gone() is None


def test_kernel_memo_is_bounded(heis1):
    # a set larger than the memo's bound is built but not kept
    with mock.patch.object(mollify, "_KERNEL_MEMO_BYTES", 0):
        first = _held_arrays(MollifierKernel(heis1, 0.0625, 8))
        second = _held_arrays(MollifierKernel(heis1, 0.0625, 8))
        assert not mollify._kernel_memo
    assert not any(a is b for a, b in zip(first, second))
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_kernel_memo_under_concurrent_builds(heis1):
    # eight threads on a short switch interval build the kernels of four
    # alphas while a bound of two sets keeps evicting: every kernel holds
    # the arrays of a build outside the memo, and the memo ends within bound
    alphas = [0.05, 0.1, 0.2, 0.3]
    with mock.patch.object(mollify, "_KERNEL_MEMO_BYTES", 0):
        want = {alpha: _held_arrays(MollifierKernel(heis1, alpha, 6)) for alpha in alphas}
    bound = 2 * sum(array.nbytes for array in want[0.05])
    failures = []

    def build(first):
        try:
            for i in range(40):
                alpha = alphas[(first + i) % len(alphas)]
                got = _held_arrays(MollifierKernel(heis1, alpha, 6))
                if not all(np.array_equal(a, b) for a, b in zip(got, want[alpha])):
                    failures.append(alpha)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with mock.patch.object(mollify, "_KERNEL_MEMO_BYTES", bound):
            threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert 0 < sum(size for _, size in mollify._kernel_memo.values()) <= bound
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def test_kernel_symmetric(kernel01):
    # the grid reversed is the grid negated, and rho(-p) = rho(p)
    assert np.allclose(kernel01.nodes[::-1], -kernel01.nodes)
    assert np.allclose(kernel01.weights[::-1], kernel01.weights)


def test_kernel_underflow():
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=1.0)
    with pytest.raises(errors.QuadratureUnderflow):
        MollifierKernel(G, 0.1, points_per_axis=3)
    # the report counts kernel nodes before building a kernel: same error
    phi = GraphFunction.from_expression("x2", unit_box(2), 2, 1)
    for k in (3, 0, -2):
        with pytest.raises(errors.QuadratureUnderflow, match="at least 4"):
            approximation_report(G, phi, [0.1], grid_per_axis=4, points_per_axis=k)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_kernel_rejects_non_finite_alpha(alpha):
    # a NaN alpha ran all root sweeps and failed as "quadrature too coarse"
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=1.0)
    with pytest.raises(errors.ValidationError, match="positive and finite"):
        MollifierKernel(G, alpha)


def test_indicator_range_and_extremes(heis1, phi_unit, kernel01):
    rng = np.random.default_rng(109)
    a = phi_unit.domain.sample(64, rng)
    t = rng.uniform(-3.0, 3.0, size=64)
    f = mollified_indicator(heis1, phi_unit, kernel01, section_point(heis1, a, t))
    assert np.all((0.0 <= f) & (f <= 1.0))
    deep = mollified_indicator(heis1, phi_unit, kernel01,
                               section_point(heis1, a, np.full(64, -2.5)))
    high = mollified_indicator(heis1, phi_unit, kernel01,
                               section_point(heis1, a, np.full(64, 2.5)))
    assert np.all(deep == 1.0)
    assert np.all(high == 0.0)


@pytest.mark.parametrize("alpha", [0.15, 0.3])
def test_indicator_deep_inside_is_exactly_one(heis1, phi_unit, alpha):
    # the normalized weights of these kernels sum to 1 + 1 ulp in the BLAS
    # order used for four points; f_alpha must still stay in [0, 1]
    kern = MollifierKernel(heis1, alpha)
    A = tensor_grid([0.0, 0.0], [1.0, 1.0], (2, 2))
    P = section_point(heis1, A, np.full(4, -2.5))
    assert np.all(mollified_indicator(heis1, phi_unit, kern, P) == 1.0)


@given(h2=st.booleans(), alpha=st.floats(0.05, 0.3), slope=st.floats(-1.0, 1.0),
       base=st.lists(st.floats(-0.5, 1.5), min_size=4, max_size=4),
       ts=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6))
def test_indicator_range_and_monotone_property(heis1, heis2, h2, alpha, slope,
                                               base, ts):
    G, k = (heis2, 4) if h2 else (heis1, 8)
    d = G.base_dim
    phi = GraphFunction.from_expression(f"{slope!r}*x2", Box([0.0] * d, [1.0] * d),
                                        G.m, G.n)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    ts = np.sort(ts)
    a = np.tile(base[:d], (len(ts), 1))
    f = mollified_indicator(G, phi, kern, section_point(G, a, ts))
    assert np.all((0.0 <= f) & (f <= 1.0))
    # nonincreasing along t e1, up to rounding
    assert np.all(np.diff(f) <= 1e-12)


def _full_grid_indicator(G, phi, kernel, P):
    # f_alpha as a convolution over every grid node with 3-operand einsum
    # bracket terms, kept as the reference for the pruned convolution
    m = G.m
    U, W = kernel.nodes, kernel.weights
    out = np.zeros(P.shape[0])
    chunk = max(1, 2 ** 21 // P.shape[0])
    px, py = P[:, :m], P[:, m:]
    row1 = G.B[:, 0, :]
    for start in range(0, U.shape[0], chunk):
        u, w = U[start:start + chunk], W[start:start + chunk]
        ux, uy = u[:, :m], u[:, m:]
        vx = px[:, None, :] - ux[None, :, :]
        br = np.einsum("sij,kj,bi->bks", G.B, ux, px)
        vy = py[:, None, :] - uy[None, :, :] - 0.5 * br
        t = vx[..., 0]
        corr = np.einsum("sj,bkj->bks", row1, vx)
        base = np.concatenate([vx[..., 1:], vy - 0.5 * t[..., None] * corr],
                              axis=-1)
        g = phi.eval_extended(base) - t
        out += np.clip(0.5 + g / kernel.subcell_width, 0.0, 1.0) @ w
    return np.clip(out, 0.0, 1.0)


def _phi_of_kind(G, expr):
    # "grid": 0.3*sin(x2) + 0.2*y sampled on a 9 x 9 grid; "callable": x2,
    # returned as a read-only view of the points it is given, so that
    # f_alpha may not write it; anything else is an expression
    d = G.dim - 1
    box = Box([0.0] * d, [1.0] * d)
    if expr == "grid":
        x, y = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9),
                           indexing="ij")
        return GraphFunction.from_grid(0.3 * np.sin(x) + 0.2 * y, box)
    if expr == "callable":
        return GraphFunction.from_callable(
            lambda a: np.broadcast_to(a[..., 0], a.shape[:-1]), box)
    return GraphFunction.from_expression(expr, box, G.m, G.n)


@pytest.mark.parametrize("group, k, expr, alpha", [
    ("heis1", 16, "0.3*sin(x2) + 0.2*y", 0.1),
    ("heis2", 8, "0.5*x2 + 0.25*x4", 0.15),
    ("free3", 6, "0.3*x2 - 0.2*y1 + 0.1*x3*y3", 0.2),
    ("heis1", 16, "grid", 0.1),
    ("heis2", 8, "callable", 0.15),
])
def test_indicator_matches_full_grid_convolution(request, group, k, expr, alpha):
    G = request.getfixturevalue(group)
    d = G.dim - 1
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    rng = np.random.default_rng(211)
    A = rng.uniform(0.0, 1.0, size=(256, d))
    t = phi.eval_extended(A) + rng.uniform(-2.0 * alpha, 2.0 * alpha, size=256)
    P = section_point(G, A, t)
    f = mollified_indicator(G, phi, kern, P)
    assert np.max(np.abs(f - _full_grid_indicator(G, phi, kern, P))) <= 1e-13
    # the points straddle the graph: both ramps and saturated values occur
    assert np.any((0.0 < f) & (f < 1.0)) and np.any(f == 0.0)


def _one_pass_indicator(G, phi, kernel, P):
    # f_alpha as one loop over the points: split, phi - t and one vecdot of
    # the ramps with the weights per row, with no ramp arguments shared
    # between shifts; the share divides by the weights' vecdot with ones
    delta, w = kernel.subcell_width, kernel._conv_weights
    out = np.empty(P.shape[0])
    for row in range(P.shape[0]):
        base, t = _split(G, kernel._conv_terms, P[row:row + 1])
        frac = np.subtract(phi.eval_extended(base), t)[0]
        frac /= delta
        frac += 0.5
        np.clip(frac, 0.0, 1.0, out=frac)
        out[row] = np.vecdot(frac, w) / np.vecdot(np.ones_like(w), w)
    return out


def _group_case(request, index):
    name, k, expr = FOUR_GROUPS[index]
    G = request.getfixturevalue(name)
    d = G.base_dim
    return G, k, GraphFunction.from_expression(expr, Box([0.0] * d, [1.0] * d),
                                               G.m, G.n)


def _straddling_points(G, phi, alpha, count, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(count, G.base_dim))
    t = phi.eval_extended(A) + rng.uniform(-2.0 * alpha, 2.0 * alpha, size=count)
    return section_point(G, A, t)


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 0.3), count=st.sampled_from([1, 256]),
       chunked=st.booleans())
def test_indicator_bitwise_matches_one_pass_loop_property(request, index, seed, alpha,
                                                   count, chunked):
    # the s = 0 share of the ramp arguments is the one-pass loop's f_alpha
    # bit for bit; a small limit splits every batch of points into row blocks
    G, k, phi = _group_case(request, index)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, count, seed)
    limit = 2 ** 12 if chunked else mollify._BATCH_OPS_LIMIT
    with mock.patch.object(mollify, "_BATCH_OPS_LIMIT", limit), \
            mock.patch("carnot.mollify._split", wraps=mollify._split) as split:
        f = mollified_indicator(G, phi, kern, P)
        if chunked and count > 1:
            assert split.call_count > 1
        assert np.array_equal(f, _one_pass_indicator(G, phi, kern, P))
        if count == 1:
            assert mollified_indicator(G, phi, kern, P[0]) == f[0]


def _two_call_column(G, phi, kern, P, j, h):
    # X_j f_alpha as the central difference of two full convolutions
    step = np.zeros(G.dim)
    step[j] = h
    return (mollified_indicator(G, phi, kern, multiply(G, P, step))
            - mollified_indicator(G, phi, kern, multiply(G, P, -step))) / (2.0 * h)


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 0.3))
def test_gradient_from_ramp_table_property(request, index, seed, alpha):
    # X_1 f_alpha from the ramp slopes against the two-call central
    # difference; X_j g of every (point, node) pair, the intrinsic gradient
    # at the split base frozen at t, against a central difference of g
    # along p * (+-h e_j)
    G, k, phi = _group_case(request, index)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, 32, seed)
    grad = horizontal_gradient_mollified(G, phi, kern, P)
    col = _two_call_column(G, phi, kern, P, 0, alpha / 64.0)
    assert np.max(np.abs(grad[:, 0] - col)) <= 1e-9
    base, t = _split(G, kern._conv_terms, P)
    xg = _intrinsic_gradient(G, phi, base, t)
    h = 1e-5
    for j in range(1, G.m):
        step = np.zeros(G.dim)
        step[j] = h
        fwd_base, fwd_t = _split(G, kern._conv_terms, multiply(G, P, step))
        bwd_base, bwd_t = _split(G, kern._conv_terms, multiply(G, P, -step))
        diff = ((phi.eval_extended(fwd_base) - fwd_t)
                - (phi.eval_extended(bwd_base) - bwd_t)) / (2.0 * h)
        assert np.max(np.abs(xg[..., j - 1] - diff)) <= 9e-11


def _table_roots(G, phi, kern, c_level, A):
    # _section_roots on the one block of the table of g on the rows i(a): the
    # roots, the evaluations of f, max |f - c| and the block (base, t, g)
    (_, *table), = mollify._ramp_table(G, phi, kern, graph_point(G, A, 0.0))
    return (*_section_roots(kern, c_level, table[2]), table)


def _phi_as(G, phi, kind):
    # phi as an expression (analytic partials), a callable, or sampled on a
    # grid (both central differences)
    if kind == "callable":
        return GraphFunction.from_callable(phi.eval_extended, phi.domain)
    if kind == "grid":
        per_axis = 5 if G.base_dim <= 3 else 3
        nodes = tensor_grid(phi.domain.lo, phi.domain.hi, (per_axis,) * G.base_dim,
                            nodes="endpoint")
        return GraphFunction.from_grid(
            phi.eval_extended(nodes).reshape((per_axis,) * G.base_dim), phi.domain)
    return phi


def _dense_shifted_gradient(G, phi, kernel, P, shifts):
    # the gradient formula over every (point, node) pair: beta, and X_j g
    # frozen at t + s, at each shift s; also the (row, shift) entries whose
    # band is empty
    h, delta = kernel.alpha * mollify._SLOPE_STEP, kernel.subcell_width
    w = kernel._conv_weights
    base, t = _split(G, kernel._conv_terms, P)
    g = phi.eval_extended(base) - t
    out, empty = [], []
    for s in shifts:
        beta = w * (np.clip((g - (s - h)) / delta + 0.5, 0.0, 1.0)
                    - np.clip((g - (s + h)) / delta + 0.5, 0.0, 1.0))
        xg = _intrinsic_gradient(G, phi, base, t + s)
        out.append(np.concatenate([-np.sum(beta, axis=-1)[:, None],
                                   np.einsum("pk,pkj->pj", beta, xg)], axis=1))
        empty.append(~np.any(beta, axis=-1))
    return (np.stack(out, axis=1) / (2.0 * h * np.sum(w)),
            np.stack(empty, axis=1))


@given(index=st.integers(0, 3), kind=st.sampled_from(["expr", "callable", "grid"]),
       seed=st.integers(0, 2 ** 32 - 1), alpha=st.floats(0.05, 0.3),
       case=st.sampled_from(["points", "slices", "level_set"]))
def test_shifted_gradient_matches_dense_formula_property(request, index, kind, seed,
                                                        alpha, case):
    # X_j g only on the band, read off the table pair by pair, and for the t-slices
    # on closed-form slice runs with analytic phi once per chunk, against
    # the formula over every pair; a row whose band is empty gives exactly 0
    G, _, phi = _group_case(request, index)
    phi = _phi_as(G, phi, kind)
    # the smallest kernels, so that the reference stays cheap on every group
    kern = MollifierKernel(G, alpha, points_per_axis=4)
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(2, G.base_dim))
    if case == "slices":
        # the t-slice columns of the gradient mass on base rows i(a), on a
        # window wider than the support, so that its 48 slices' end slices
        # see no ramp, for 1, 3 and 48 slices (1 and 3 read every slice in
        # every pass, 48 clip the runs at both window ends), and a third row
        # whose window is 2 below the graph, so that every run is clipped
        A = np.concatenate([A, rng.uniform(0.0, 1.0, size=(1, G.base_dim))])
        P = graph_point(G, A, 0.0)
        half = 3.0 * alpha
        shifts, got = [], []
        for slices in (1, 3, 48):
            dt = 2.0 * half / slices
            first = phi.eval_extended(A) + [0.0, 0.0, -2.0] - half + 0.5 * dt
            shifts += [first[:, None] + j * dt for j in range(slices)]
            got.append(mollify._sliced_gradient(G, phi, kern, P, first, dt, slices))
        got = np.concatenate(got, axis=1)
    elif case == "level_set":
        # the level set's points i(a) * (phi_alpha(a) e1), read off the
        # table of g that the roots were found on
        A = np.concatenate([A, rng.uniform(0.0, 1.0, size=(4, G.base_dim))])
        P = graph_point(G, A, 0.0)
        roots, _, _, table = _table_roots(G, phi, kern, 0.5, A)
        shifts = [roots[:, None]]
        got = mollify._shifted_gradient(G, phi, kern, table, roots[:, None],
                                        slice(None))[:, None]
    else:
        # points i(b) * (t e1) straddling the graph, each t drawn inside the
        # ramp band of one kernel node (|g_k(i(b)) - t| < 0.9 reach), so that
        # every such row sees a ramp, and two far below and above it
        B = rng.uniform(0.0, 1.0, size=(6, G.base_dim))
        base, t = _split(G, kern._conv_terms, graph_point(G, B, 0.0))
        g = phi.eval_extended(base) - t
        reach = 0.5 * kern.subcell_width + alpha * mollify._SLOPE_STEP
        node = rng.integers(0, g.shape[1], size=6)
        t = g[np.arange(6), node] + 0.9 * reach * rng.uniform(-1.0, 1.0, size=6)
        P = np.concatenate([section_point(G, B, t),
                            graph_point(G, A, phi.eval_extended(A) + [-2.0, 2.0])])
        shifts = [0.0]
        got = mollify._gradient_at_shifts(G, phi, kern, P, np.zeros((len(P), 1)))[:, None]
    ref, empty = _dense_shifted_gradient(G, phi, kern, P, shifts)
    assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    # every root sees a ramp; elsewhere some rows see none
    assert not np.all(empty) and (np.any(empty) or case == "level_set")
    assert np.all(got[empty] == 0.0)


@pytest.mark.parametrize("group, k, expr", [
    ("heis1", 8, "0.5*x2"),
    ("heis2", 4, "0.5*x2 + 0.25*x4"),
    ("free3", 4, "0.3*x2 - 0.2*y1 + 0.1*y3"),
    ("quat", 4, "0.3*x2 - 0.2*y1 + 0.1*y3"),
])
def test_frame_columns_match_two_calls_away_from_kinks(request, group, k, expr):
    # for affine phi, g moves by h X_j g along p * (h e_j); where no g lies
    # within h max(1, |X_j g|) of a kink, both the ramp slopes and the
    # two-call central difference are exact
    G = request.getfixturevalue(group)
    alpha = 0.05
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, 64, 223)
    h = alpha / 64.0
    base, t = _split(G, kern._conv_terms, P)
    g = phi.eval_extended(base) - t
    reach = h * np.maximum(1.0, np.max(np.abs(_intrinsic_gradient(G, phi, base, t)),
                                       axis=-1))
    half = 0.5 * kern.subcell_width
    clear = np.all(np.abs(np.abs(g) - half) > reach, axis=1)
    # of those, the points that see a ramp, not only saturated nodes
    seen = clear & np.any(np.abs(g) < half, axis=1)
    assert np.count_nonzero(seen) >= 4
    grad = horizontal_gradient_mollified(G, phi, kern, P[seen])
    assert np.all(grad[:, 0] < 0.0)
    for j in range(G.m):
        col = _two_call_column(G, phi, kern, P[seen], j, h)
        assert np.max(np.abs(grad[:, j] - col)) <= 1e-9


@pytest.mark.parametrize("group, k, expr", [
    ("heis1", 16, "0.7*x2"),
    ("heis2", 8, "0.4*x2 + 0.3*x4"),
])
def test_level_set_gradient_of_affine_phi_is_exact(request, group, k, expr):
    # every X_j g equals the constant gradient of phi, so the beta-weighted
    # ratio -X_j f / X_1 f returns it up to rounding
    G = request.getfixturevalue(group)
    phi = _phi_of_kind(G, expr)
    kern = MollifierKernel(G, 0.1, points_per_axis=k)
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (3,) * G.base_dim)
    roots = level_set_phi_alpha(G, phi, kern, 0.45, A)
    grad = intrinsic_gradient_of_level_set(G, phi, kern, A, roots)
    assert np.max(np.abs(grad - intrinsic_gradient(G, phi, A))) <= 1e-12


def _counted_phi(G, calls):
    # 0.3 x2 as a callable that counts the points of each evaluation
    def fn(a):
        calls.append(a[..., 0].size)
        return 0.3 * a[..., 0]

    d = G.base_dim
    return GraphFunction.from_callable(fn, Box([0.0] * d, [1.0] * d))


@pytest.mark.parametrize("index", range(4))
def test_phi_evaluations_on_node_set_counted(request, index):
    G, k, _ = _group_case(request, index)
    calls = []
    phi = _counted_phi(G, calls)
    kern = MollifierKernel(G, 0.2, points_per_axis=k)
    A = tensor_grid([0.0] * G.base_dim, [1.0] * G.base_dim, (2,) * G.base_dim)
    pairs = len(A) * kern._conv_weights.size
    roots, evals, _, _ = _table_roots(G, phi, kern, 0.5, A)
    # one split of every (base point, node) pair, however many passes; the
    # pairs are counted, so the node chunks do not matter
    assert sum(calls) == pairs
    # more than one search pass besides the pass at the roots
    assert evals > 2 * len(A)
    P = section_point(G, A, roots)
    # the band: the pairs whose ramp slope is not 0, from the test's own split
    base, t = _split(G, kern._conv_terms, P)
    g = 0.3 * base[..., 0] - t
    h, delta = kern.alpha / 64.0, kern.subcell_width
    beta = kern._conv_weights * (np.clip((g + h) / delta + 0.5, 0.0, 1.0)
                                 - np.clip((g - h) / delta + 0.5, 0.0, 1.0))
    band = np.count_nonzero(beta)
    assert 0 < band < pairs // 2
    calls.clear()
    horizontal_gradient_mollified(G, phi, kern, P)
    # g once per pair, then phi's central differences along X_2..X_m on the
    # band only
    assert sum(calls) == pairs + 2 * (G.m - 1) * band


@pytest.mark.parametrize("index", range(4))
def test_approximation_report_splits_each_pair_once(request, index):
    # per alpha the roots' table splits every (base point, node) pair once;
    # the level-set gradient reads that table at the roots, the base and t of
    # its band included, and evaluates phi again only on the band pairs of
    # its subsampled rows
    G, k, _ = _group_case(request, index)
    calls = []
    phi = _counted_phi(G, calls)
    d = G.base_dim
    A = tensor_grid([0.0] * d, [1.0] * d, (2,) * d)
    sub = slice(None, None, max(1, len(A) // mollify.GRADIENT_SAMPLES))
    alphas, c = [0.2, 0.3], 0.5
    nodes = _nonzero_node_count(G, k)
    with mock.patch("carnot.mollify._split", wraps=mollify._split) as split:
        approximation_report(G, phi, alphas, c_level=c, grid_per_axis=2,
                             points_per_axis=k)
    report_calls = sum(calls)
    # each call splits its rows against every node (the anchors of its terms)
    split_pairs = sum(call.args[2].shape[0] * call.args[1][0].shape[1]
                      for call in split.call_args_list)
    assert split_pairs == len(alphas) * len(A) * nodes
    # the band of each alpha from the roots' own table
    bands = []
    for alpha in alphas:
        kern = MollifierKernel(G, alpha, points_per_axis=k)
        roots, _, _, (_, _, g) = _table_roots(G, phi, kern, c, A)
        h, delta = kern.alpha / 64.0, kern.subcell_width
        shift = roots[sub, None]
        beta = kern._conv_weights * (
            np.clip((g[sub] - (shift - h)) / delta + 0.5, 0.0, 1.0)
            - np.clip((g[sub] - (shift + h)) / delta + 0.5, 0.0, 1.0))
        bands.append(np.count_nonzero(beta))
        assert 0 < bands[-1] < g[sub].size // 2
    # phi on the grid and its central differences for w_inf, then per alpha
    # g once per pair and the central differences along X_2..X_m on the band
    assert report_calls == ((2 + 2 * (G.m - 1)) * len(A)
                            + sum(len(A) * nodes + 2 * (G.m - 1) * band
                                  for band in bands))


@pytest.mark.parametrize("group, k, per_axis, expr", [
    ("heis1", 6, 23, "0.3*sin(3*x2) + 0.2*y"),
    ("heis2", 4, 3, "0.5*x2 + 0.25*x4"),
])
def test_table_walks_do_not_depend_on_the_blocks(request, group, k, per_axis, expr):
    # the report, the roots and both gradients over row blocks of 5 rows (3
    # for any table at the batch limit) give the bits of the default blocks;
    # on the 529 points of the heisenberg(1) grid the report's gradient reads
    # every second row, so its first row in a block alternates between the
    # first two
    G = request.getfixturevalue(group)
    d = G.base_dim
    phi = GraphFunction.from_expression(expr, Box([-1.0] * d, [1.0] * d), G.m, G.n)
    kern = MollifierKernel(G, 0.1, points_per_axis=k)
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (per_axis,) * d)
    P = graph_point(G, A, phi.eval_extended(A)
                    + np.random.default_rng(17).uniform(-0.1, 0.1, len(A)))

    def calls():
        report = approximation_report(G, phi, [0.2, 0.1], grid_per_axis=per_axis,
                                      points_per_axis=k)
        roots = level_set_phi_alpha(G, phi, kern, 0.5, A)
        return (json.dumps(report), roots.tobytes(),
                horizontal_gradient_mollified(G, phi, kern, P).tobytes(),
                intrinsic_gradient_of_level_set(G, phi, kern, A, roots).tobytes())

    want = calls()
    nodes = kern._conv_weights.size
    with mock.patch.object(mollify, "_BATCH_OPS_LIMIT", 3 * nodes), \
            mock.patch.object(mollify, "_GRADIENT_OPS_LIMIT", 5 * nodes), \
            mock.patch("carnot.mollify._section_roots", wraps=mollify._section_roots) as roots:
        got = calls()
    # two alphas and the roots, in blocks of 5 rows
    assert roots.call_count == 3 * -(-len(A) // 5)
    assert got == want
    if per_axis == 23:
        assert len(A) // mollify.GRADIENT_SAMPLES == 2


def test_gradient_mass_evaluates_partials_once_per_chunk(heis1, phi_unit):
    # X_j g is affine in the value it is frozen at, so one evaluation of the
    # partials per row block serves all 48 t-slices; a block holds whole rows
    kern = MollifierKernel(heis1, 0.05)
    nodes = kern._conv_weights.size
    blocks = -(-8 * 8 // (mollify._GRADIENT_OPS_LIMIT // nodes))
    assert blocks > 1
    with mock.patch.object(phi_unit, "partials", wraps=phi_unit.partials) as partials:
        rep = horizontal_gradient_mass(heis1, phi_unit, kern, base_per_axis=8)
    assert partials.call_count == blocks
    sizes = [len(call.args[0]) for call in partials.call_args_list]
    assert sum(sizes) == 8 * 8 * nodes and all(size % nodes == 0 for size in sizes)
    assert rep["edge_gradient_max"] == 0.0


def test_indicator_half_at_flat_graph(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    val = mollified_indicator(heis1, phi0, kernel01, np.zeros(3))
    assert val == pytest.approx(0.5, abs=2e-3)


def test_section_monotone(heis1, kernel01):
    phi = GraphFunction.from_expression("0.3*sin(x2) + 0.2*y", unit_box(2), 2, 1)
    a = np.array([0.2, -0.1])
    ts = np.linspace(-1.5, 1.5, 121)
    f = mollified_indicator(heis1, phi, kernel01,
                            section_point(heis1, np.tile(a, (121, 1)), ts))
    assert np.all(np.diff(f) <= 1e-12)
    # strictly decreasing through the level
    mid = np.abs(f - 0.5) < 0.3
    assert np.all(np.diff(f[mid]) < 0)


def test_level_set_flat_graph(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    t = level_set_phi_alpha(heis1, phi0, kernel01, 0.5, np.array([0.1, 0.2]))
    assert t == pytest.approx(0.0, abs=2e-3)


def test_level_set_residual_contract(heis1, phi_unit, kernel01):
    rng = np.random.default_rng(113)
    A = phi_unit.domain.sample(16, rng)
    t = level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, A)
    pts = section_point(heis1, A, t)
    f = mollified_indicator(heis1, phi_unit, kernel01, pts)
    assert np.all(np.abs(f - 0.5) <= 1e-3)


def test_level_set_smoothness_diagnostic(heis1, phi_unit, kernel01):
    # second differences of phi_alpha bounded uniformly at fixed alpha
    xs = np.linspace(0.2, 0.8, 31)
    A = np.stack([xs, np.full_like(xs, 0.4)], axis=-1)
    t = level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, A)
    second = np.abs(np.diff(t, 2)) / (xs[1] - xs[0]) ** 2
    assert np.max(second) < 5.0


def _bisection_roots(G, phi, kernel, c_level, A, t_tol):
    # plain bisection to a bracket of t_tol with |f - c| <= 1e-3 at an end;
    # returns the end of the final bracket with the smaller |f - c| and the
    # point-evaluations spent.  The bracket is +-(2M + 1), M the sup of |phi|
    # sampled on the domain padded by 1, and is checked to straddle the level.
    pad = tensor_grid(phi.domain.lo - 1.0, phi.domain.hi + 1.0,
                      (9,) * phi.domain.dim, nodes="endpoint")
    M = float(np.max(np.abs(phi.eval_extended(pad))))
    lo = np.full(len(A), -2.0 * M - 1.0)
    hi = -lo

    def section(t):
        return mollified_indicator(G, phi, kernel, section_point(G, A, t)) - c_level

    f_lo, f_hi = section(lo), section(hi)
    assert np.all(f_lo > 0.0) and np.all(f_hi <= 0.0)
    r_lo, r_hi = np.abs(f_lo), np.abs(f_hi)
    evals = 2 * len(A)
    while (np.any(hi - lo > t_tol)
           or np.any(np.minimum(r_lo, r_hi) > 1e-3)):
        mid = 0.5 * (lo + hi)
        f = section(mid)
        evals += len(A)
        up = f > 0.0
        lo, r_lo = np.where(up, mid, lo), np.where(up, np.abs(f), r_lo)
        hi, r_hi = np.where(up, hi, mid), np.where(up, r_hi, np.abs(f))
    return np.where(r_hi < r_lo, hi, lo), evals


@pytest.mark.parametrize("group, k, expr, alpha, c_level, per_axis", [
    ("heis1", 16, "x2", 0.1, 0.45, 6),
    ("heis1", 16, "0.25*y", 0.2, 0.5, 10),
    ("heis1", 16, "0.25*y", 0.05, 0.5, 10),
    ("heis2", 8, "0.5*x2 + 0.25*x4", 0.15, 0.5, 3),
])
def test_level_set_no_more_evaluations_than_bisection(request, group, k, expr,
                                                      alpha, c_level, per_axis):
    G = request.getfixturevalue(group)
    d = G.dim - 1
    box = Box([0.0] * d, [1.0] * d)
    phi = GraphFunction.from_expression(expr, box, G.m, G.n)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    A = tensor_grid(box.lo, box.hi, (per_axis,) * d)
    t_tol = 1e-6 * alpha
    roots, evals, resid, _ = _table_roots(G, phi, kern, c_level, A)
    ref, ref_evals = _bisection_roots(G, phi, kern, c_level, A, t_tol)
    assert evals <= ref_evals
    assert np.max(np.abs(roots - ref)) <= t_tol
    assert resid <= 1e-12
    # recomputed in one batch, f_alpha may differ in the last bits
    f = mollified_indicator(G, phi, kern, section_point(G, A, roots))
    assert np.max(np.abs(f - c_level)) == pytest.approx(resid, abs=1e-14)


def _kink_bisection_roots(G, phi, kernel, c_level, A):
    # the level-set search as plain bisection over each row's sorted kinks,
    # one pass per halving, then the secant on the last piece; returns the
    # roots, the evaluations of f (with the pass at the roots) and max |f - c|
    delta = kernel.subcell_width
    g = np.concatenate([g for *_, g in mollify._ramp_table(G, phi, kernel,
                                                           graph_point(G, A, 0.0))], axis=1)
    count, size = g.shape
    kinks = np.sort(np.concatenate([g - 0.5 * delta, g + 0.5 * delta], axis=1), axis=1)
    lo, hi = np.zeros(count, dtype=int), np.full(count, 2 * size - 1)
    f_lo, f_hi = np.ones(count), np.zeros(count)
    evals = count
    while np.any(hi - lo > 1):
        todo = np.flatnonzero(hi - lo > 1)
        mid = (lo[todo] + hi[todo]) // 2
        f = mollify._share(mollify._ramp(g[todo], delta, kinks[todo, mid, None]), kernel)
        evals += todo.size
        up = f > c_level
        lo[todo[up]], f_lo[todo[up]] = mid[up], f[up]
        hi[todo[~up]], f_hi[todo[~up]] = mid[~up], f[~up]
    rows = np.arange(count)
    t_lo, t_hi = kinks[rows, lo], kinks[rows, hi]
    roots = t_lo + (f_lo - c_level) / (f_lo - f_hi) * (t_hi - t_lo)
    f = mollify._share(mollify._ramp(g, delta, roots[:, None]), kernel)
    return roots, evals, float(np.max(np.abs(f - c_level)))


def _search_passes(G, phi, kernel, c_level, A):
    # _section_roots and the passes of its search: one share call per pass
    # over the rows still searching, and one at the roots
    with mock.patch("carnot.mollify._share", wraps=mollify._share) as sums:
        roots, evals, resid, _ = _table_roots(G, phi, kernel, c_level, A)
    budget = int(np.ceil(np.log2(2 * kernel._conv_weights.size - 1)))
    return roots, evals, resid, sums.call_count - 1, budget


@pytest.mark.parametrize("kind", ["expr", "callable", "grid"])
@pytest.mark.parametrize("index", range(4))
def test_level_set_search_matches_kink_bisection(request, index, kind):
    # the secant search ends on the bracket that bisection over the same
    # kinks ends on, in no more evaluations and never more than twice its
    # passes; f at a kink has the same bits whichever rows share the pass,
    # so the roots are bitwise equal
    G, k, phi = _group_case(request, index)
    phi = _phi_as(G, phi, kind)
    d = G.base_dim
    A = tensor_grid([0.0] * d, [1.0] * d, ((4 if d == 2 else 2),) * d)
    for alpha, c_level in [(0.1, 0.45), (0.2, 0.3)]:
        kern = MollifierKernel(G, alpha, points_per_axis=k)
        roots, evals, resid, passes, budget = _search_passes(G, phi, kern, c_level, A)
        ref, ref_evals, ref_resid = _kink_bisection_roots(G, phi, kern, c_level, A)
        assert np.array_equal(roots, ref)
        assert resid <= 1.1e-15 and ref_resid <= 1.1e-15
        assert evals <= ref_evals
        assert passes <= 2 * budget


def test_level_set_pass_budget_bounds_a_flat_section(heis1):
    # on this row the section drops from 1 to within 2e-5 of c over a few
    # kinks and then nears c over some fifty more, so each secant lands a
    # few kinks on; the row spends its budget of secant passes, then
    # bisects, and stays within twice the budget
    phi = GraphFunction.from_expression("0.3*abs(y)**0.25", Box([-1.0, -1.0], [1.0, 1.0]),
                                        2, 1)
    kern = MollifierKernel(heis1, 0.05)
    A = np.array([[-0.75, -0.75]])
    roots, evals, resid, passes, budget = _search_passes(heis1, phi, kern, 0.5, A)
    assert budget < passes <= 2 * budget
    assert evals == passes + 1
    ref, _, ref_resid = _kink_bisection_roots(heis1, phi, kern, 0.5, A)
    assert resid <= 2.2e-16 and ref_resid <= 2.2e-16
    assert roots[0] == ref[0]


@pytest.mark.parametrize("group, per_axis, k", [("heis1", 16, 16), ("heis2", 3, 8)])
def test_level_set_root_does_not_depend_on_batch_mates(request, group, per_axis, k):
    # f stays within a few ulps of c over stretches of t here, so a root
    # read off f rounded with other rows could move to another kink; each
    # row's share is its own reduction, and one call per base point gives
    # the grid call's roots bit for bit
    G = request.getfixturevalue(group)
    d = G.base_dim
    phi = GraphFunction.from_expression("0.3*abs(y)**0.25", Box([-1.0] * d, [1.0] * d),
                                        G.m, G.n)
    kern = MollifierKernel(G, 0.05, points_per_axis=k)
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (per_axis,) * d)
    roots = level_set_phi_alpha(G, phi, kern, 0.5, A)
    alone = [level_set_phi_alpha(G, phi, kern, 0.5, a) for a in A]
    assert np.array_equal(roots, alone)


def test_level_set_root_at_left_end_of_flat_interval(heis1):
    # here f_alpha equals c on t in [0.06236, 0.06264]: no ramp is active
    # there and the kernel weight below the graph is exactly half; the root
    # is inf{t : f_alpha <= c}, the left end
    phi = GraphFunction.from_expression("0.25*y", Box([0.0, 0.0], [1.0, 1.0]), 2, 1)
    kern = MollifierKernel(heis1, 0.05, points_per_axis=16)
    a = np.array([0.95, 0.25])
    root = level_set_phi_alpha(heis1, phi, kern, 0.5, a)
    assert abs(root - 0.06236) <= 1e-5
    f = mollified_indicator(heis1, phi, kern, section_point(heis1, a, root))
    assert abs(f - 0.5) <= 1e-15
    before = mollified_indicator(heis1, phi, kern, section_point(heis1, a, root - 1e-5))
    assert before > 0.5


@pytest.mark.parametrize("call", ["indicator", "gradient", "level_set", "gradient_mass"])
def test_level_set_rejects_non_finite_phi(heis1, kernel01, call):
    # a NaN in the ramp table is reported by every pass that reads it, not
    # returned as a NaN f_alpha or gradient
    phi = GraphFunction.from_callable(
        lambda a: np.where(a[..., 0] > 0.9, np.nan, a[..., 0]), unit_box(2))
    A = np.array([[0.1, 0.2], [0.85, 0.2]])
    P = section_point(heis1, A, phi.eval_extended(A))
    passes = {
        "indicator": lambda: mollified_indicator(heis1, phi, kernel01, P),
        "gradient": lambda: horizontal_gradient_mollified(heis1, phi, kernel01, P),
        "level_set": lambda: level_set_phi_alpha(heis1, phi, kernel01, 0.5, A),
        "gradient_mass": lambda: horizontal_gradient_mass(heis1, phi, kernel01),
    }
    with pytest.raises(errors.NonFiniteState):
        passes[call]()


def test_level_set_gradient_needs_one_value_per_point(heis1, phi_unit, kernel01):
    # three base points and two values: a typed error, not numpy's ValueError
    with pytest.raises(errors.DimensionMismatch, match="one phi_alpha value per base"):
        intrinsic_gradient_of_level_set(heis1, phi_unit, kernel01, np.full((3, 2), 0.5),
                                        np.full(2, 0.5))


def test_horizontal_gradient_sign_and_flat(heis1, kernel01):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    rng = np.random.default_rng(127)
    a = 0.5 * rng.uniform(-1, 1, size=(32, 2))
    pts = section_point(heis1, a, np.zeros(32))
    grad = horizontal_gradient_mollified(heis1, phi0, kernel01, pts)
    assert np.all(grad[:, 0] < 0.0)
    assert np.allclose(grad[:, 1], 0.0, atol=1e-8)


def test_gradient_ratio_matches_w(heis1, phi_unit):
    kern = MollifierKernel(heis1, 0.05)
    rng = np.random.default_rng(131)
    A = 0.25 + 0.5 * rng.uniform(0, 1, size=(16, 2))
    t = level_set_phi_alpha(heis1, phi_unit, kern, 0.5, A)
    w_alpha = intrinsic_gradient_of_level_set(heis1, phi_unit, kern, A, t)
    assert np.allclose(w_alpha[:, 0], 1.0, atol=0.05)


def test_approximation_report_flat(heis1):
    phi0 = GraphFunction.constant(0.0, unit_box(2))
    rep = approximation_report(heis1, phi0, [0.2, 0.1], c_level=0.5,
                               grid_per_axis=6)
    for row in rep["rows"]:
        assert row["sup_error"] <= 2e-3
        assert row["gradient_sup"] <= 1e-6
    assert rep["rate_at_noise_floor"]
    assert rep["passed"]


def test_approximation_report_rejects_negative_grid(heis1, phi_unit):
    # a negative count is named as such, not as a ramp table over budget
    with pytest.raises(errors.ValidationError, match="positive count per axis"):
        approximation_report(heis1, phi_unit, [0.1], grid_per_axis=-5000)


@pytest.mark.parametrize("args", [{"c_level": 0.0}, {"c_level": 1.0},
                                  {"c_level": float("nan")}, {"c_level": "0.5"}],
                         ids=lambda args: "{}={!r}".format(*next(iter(args.items()))))
def test_approximation_report_rejects_bad_arguments(heis1, phi_unit, args):
    # typed errors, raised before any kernel or table is built
    with mock.patch("carnot.mollify.MollifierKernel") as kernel, \
            mock.patch("carnot.mollify._split") as split:
        with pytest.raises(errors.ValidationError, match=r"level c must lie in \(0, 1\)"):
            approximation_report(heis1, phi_unit, [0.1], grid_per_axis=4, **args)
    assert kernel.call_count == 0 and split.call_count == 0


def test_approximation_report_linear_rate(heis1, phi_unit):
    rep = approximation_report(heis1, phi_unit, [0.2, 0.1], c_level=0.45,
                               grid_per_axis=8)
    ratios = [row["rate_ratio"] for row in rep["rows"]]
    assert max(ratios) <= 2.0 * min(ratios)
    for row in rep["rows"]:
        assert row["gradient_sup"] <= 1.10 * rep["w_inf_measured"]
    assert rep["passed"]


def test_pipeline_vertical_dependence(heis1):
    # y-dependent graph: bracket corrections enter the pulled-back base
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("0.25*y", box, 2, 1)
    from carnot.calculus import intrinsic_gradient
    A = tensor_grid(box.lo, box.hi, (10, 10))
    w_inf = np.max(np.abs(intrinsic_gradient(heis1, phi, A)))
    for alpha in (0.2, 0.05):
        kern = MollifierKernel(heis1, alpha)
        pa = level_set_phi_alpha(heis1, phi, kern, 0.5, A)
        assert np.max(np.abs(pa - phi.eval_extended(A))) <= 0.01 * alpha
        grad = intrinsic_gradient_of_level_set(heis1, phi, kern, A[::7], pa[::7])
        assert np.max(np.abs(grad)) <= 1.10 * w_inf


def test_pipeline_higher_dimensional_group(heis2):
    # m = 4: base dim 4, one vertical direction
    box = Box([0.0] * 4, [1.0] * 4)
    phi = GraphFunction.from_expression("0.5*x2 + 0.25*x4", box, 4, 1)
    kern = MollifierKernel(heis2, 0.15, points_per_axis=8)
    A = tensor_grid(box.lo, box.hi, (3,) * 4)
    pa = level_set_phi_alpha(heis2, phi, kern, 0.5, A)
    assert np.max(np.abs(pa - phi.eval_extended(A))) <= 5e-3


def test_pipeline_small_epsilon():
    # eps < 1 widens the kernel's vertical support (alpha^2 / eps^2)
    from carnot.group import standard_group
    G = standard_group("heisenberg", 1, epsilon=0.5)
    box = Box([0.0, 0.0], [1.0, 1.0])
    phi = GraphFunction.from_expression("x2", box, 2, 1)
    kern = MollifierKernel(G, 0.1)
    A = tensor_grid(box.lo, box.hi, (6, 6))
    pa = level_set_phi_alpha(G, phi, kern, 0.45, A)
    err = np.max(np.abs(pa - phi.eval_extended(A)))
    assert err <= 0.1 * kern.alpha


def test_gradient_mass_matches_area(heis1, phi_unit):
    kern = MollifierKernel(heis1, 0.05)
    rep = horizontal_gradient_mass(heis1, phi_unit, kern, base_per_axis=8)
    area = area_integral(heis1, phi_unit)
    assert rep["edge_gradient_max"] == 0.0
    assert abs(rep["mass"] - area) <= 0.03 * area


@pytest.mark.parametrize("base_per_axis", [0, -2])
def test_gradient_mass_rejects_empty_base_grid(heis1, phi_unit, kernel01, base_per_axis):
    with pytest.raises(errors.ValidationError, match="positive count per axis"):
        horizontal_gradient_mass(heis1, phi_unit, kernel01, base_per_axis=base_per_axis)


@pytest.mark.parametrize("slope", [0.7, 1.3])
def test_gradient_mass_window_is_the_support(heis1, slope):
    # the t-window is the exact support of the integrand, widened by 48/47:
    # the end nodes sit on its edge, where the gradient is exactly 0
    phi = GraphFunction.from_expression(f"{slope}*x2", Box([0.0, 0.0], [1.0, 1.0]),
                                        2, 1)
    kern = MollifierKernel(heis1, 0.05)
    rep = horizontal_gradient_mass(heis1, phi, kern, base_per_axis=4)
    area = area_integral(heis1, phi)
    assert rep["edge_gradient_max"] == 0.0
    assert abs(rep["mass"] - area) <= 1e-3 * area
    # and the window is no wider than the support: 2% inside its edge R,
    # one side of some base column still sees a gradient
    reach = rep["window_halfwidth"] * 47.0 / 48.0
    A = tensor_grid(phi.domain.lo, phi.domain.hi, (4, 4))
    for side in (-1.0, 1.0):
        t = phi.eval_extended(A) + side * 0.98 * reach
        grad = horizontal_gradient_mollified(heis1, phi, kern, graph_point(heis1, A, t))
        if np.any(grad != 0.0):
            break
    else:
        raise AssertionError("no gradient within 2% of the window's edge")


@pytest.mark.parametrize("group, k, alpha, base_per_axis, expr", [
    ("heis2", 8, 0.15, 2, "0.5*x2 + 0.25*x4"),
    ("heis1", 16, 0.05, 2, "callable"),
])
def test_gradient_mass_edge_gradient_is_exactly_zero(request, group, k, alpha,
                                                     base_per_axis, expr):
    # the end nodes read the same table as the window's width: no rounding
    # of a second split brings their ramps off the saturated values
    G = request.getfixturevalue(group)
    d = G.base_dim
    if expr == "callable":
        phi = GraphFunction.from_callable(lambda a: 0.7 * a[..., 0],
                                          Box([0.0] * d, [1.0] * d))
    else:
        phi = GraphFunction.from_expression(expr, Box([0.0] * d, [1.0] * d), G.m, G.n)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    rep = horizontal_gradient_mass(G, phi, kern, base_per_axis=base_per_axis)
    assert rep["edge_gradient_max"] == 0.0
    assert rep["mass"] > 0.0


def test_gradient_mass_splits_one_table(heis1, phi_unit):
    # one split of the base rows i(a) sizes the window, and one more, in row
    # blocks for the gradient, serves all 48 t-slices
    kern = MollifierKernel(heis1, 0.05)
    rows, nodes = 8 * 8, kern._conv_weights.size
    with mock.patch("carnot.mollify._split", wraps=mollify._split) as split:
        horizontal_gradient_mass(heis1, phi_unit, kern, base_per_axis=8)
    blocks = -(-rows // (mollify._GRADIENT_OPS_LIMIT // nodes))
    assert blocks > 1
    assert split.call_count == 1 + blocks
    # each call splits whole rows against every node (the anchors of its terms)
    pairs = [call.args[2].shape[0] * call.args[1][0].shape[1]
             for call in split.call_args_list]
    assert pairs[0] == rows * nodes and sum(pairs) == 2 * rows * nodes


def test_gradient_mass_work_is_budgeted(heis2):
    # the default call on heisenberg(2): 12^4 base points times 325,632
    # nonzero nodes, rejected before any split
    kern = MollifierKernel(heis2, 0.15)
    phi = GraphFunction.from_expression("0.5*x2 + 0.25*x4", Box([0.0] * 4, [1.0] * 4),
                                        4, 1)
    with mock.patch("carnot.mollify._split", wraps=mollify._split) as split:
        with pytest.raises(errors.GridTooLarge, match="gradient-mass ramp table"):
            horizontal_gradient_mass(heis2, phi, kern)
    assert split.call_count == 0


def _four_calls(G, phi, kern, P, A, values):
    # the four entry points: f_alpha and its gradient at P, the roots and
    # the level set's gradient at the base points A
    return (mollified_indicator(G, phi, kern, P),
            horizontal_gradient_mollified(G, phi, kern, P),
            level_set_phi_alpha(G, phi, kern, 0.5, A),
            intrinsic_gradient_of_level_set(G, phi, kern, A, values))


@given(index=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       alpha=st.floats(0.05, 0.3))
def test_results_do_not_depend_on_the_batch_property(request, index, seed, alpha):
    # a point's f_alpha, gradient, root and level-set gradient are its own,
    # bit for bit: alone, in sub-batches, under leading axes (2, 3) and with
    # both table limits so small that every row block is one row
    G, k, phi = _group_case(request, index)
    kern = MollifierKernel(G, alpha, points_per_axis=k)
    P = _straddling_points(G, phi, alpha, 6, seed)
    A = np.random.default_rng(seed).uniform(0.0, 1.0, size=(6, G.base_dim))
    values = level_set_phi_alpha(G, phi, kern, 0.5, A)
    whole = _four_calls(G, phi, kern, P, A, values)
    alone = [_four_calls(G, phi, kern, P[i], A[i], values[i]) for i in range(6)]
    halves = [_four_calls(G, phi, kern, P[i:i + 3], A[i:i + 3], values[i:i + 3])
              for i in (0, 3)]
    shaped = _four_calls(G, phi, kern, P.reshape(2, 3, -1), A.reshape(2, 3, -1),
                         values.reshape(2, 3))
    with mock.patch.object(mollify, "_BATCH_OPS_LIMIT", 1), \
            mock.patch.object(mollify, "_GRADIENT_OPS_LIMIT", 1):
        small = _four_calls(G, phi, kern, P, A, values)
    for j, want in enumerate(whole):
        assert np.array_equal(np.stack([np.asarray(out[j]) for out in alone]), want)
        assert np.array_equal(np.concatenate([out[j] for out in halves]), want)
        assert shaped[j].shape == (2, 3) + want.shape[1:]
        assert np.array_equal(shaped[j].reshape(want.shape), want)
        assert np.array_equal(small[j], want)
    assert isinstance(alone[0][0], float) and isinstance(alone[0][2], float)


def test_empty_batches_give_empty_results(heis1, phi_unit, kernel01):
    # no points in, no values out, from each entry point
    points, base = np.empty((0, 3)), np.empty((0, 2))
    assert mollified_indicator(heis1, phi_unit, kernel01, points).shape == (0,)
    assert horizontal_gradient_mollified(heis1, phi_unit, kernel01, points).shape == (0, 2)
    assert level_set_phi_alpha(heis1, phi_unit, kernel01, 0.5, base).shape == (0,)
    assert intrinsic_gradient_of_level_set(heis1, phi_unit, kernel01, base,
                                           np.empty(0)).shape == (0, 1)
