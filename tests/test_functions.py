import json
import tracemalloc
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import errors
from carnot.functions import (
    Box,
    GraphFunction,
    base_coordinate_names,
    graph_function_from_dict,
    load_graph_function,
    vector_field_from_dict,
)
from carnot.quadrature import (
    MAX_GRID_NODES,
    midpoint_rule,
    richardson_order,
    tensor_grid,
)

from conftest import unit_box


def test_expression_evaluation_and_partials():
    phi = GraphFunction.from_expression("sin(x2)*y + x2**2", unit_box(2), 2, 1)
    a = np.array([[0.3, -0.4], [0.0, 1.0]])
    vals = phi(a)
    assert vals[0] == pytest.approx(np.sin(0.3) * -0.4 + 0.09)
    grads = phi.partials(a)
    assert grads[0, 0] == pytest.approx(np.cos(0.3) * -0.4 + 0.6)
    assert grads[0, 1] == pytest.approx(np.sin(0.3))


def test_expression_y_alias():
    p1 = GraphFunction.from_expression("y", unit_box(2), 2, 1)
    p2 = GraphFunction.from_expression("y1", unit_box(2), 2, 1)
    a = np.array([[0.5, -0.25]])
    assert p1(a) == pytest.approx(p2(a))


def test_expression_rejects_unknown_symbols():
    with pytest.raises(errors.ValidationError):
        GraphFunction.from_expression("x2 + q", unit_box(2), 2, 1)
    with pytest.raises(errors.ValidationError):
        GraphFunction.from_expression("x2 +* 1", unit_box(2), 2, 1)


def test_expression_derivative_constant_beyond_float_range_has_no_partials():
    # 2**1023 fits a float, the derivative's 3*2**1023 does not: its compiled
    # partials raised OverflowError at every call, so phi has none and its
    # derivatives are central differences
    phi = GraphFunction.from_expression("2**1023*x2**3", unit_box(2), 2, 1)
    assert phi(np.array([0.25, 0.5])) == 2.0 ** 1023 / 64
    assert not phi.has_partials


def test_expression_with_uncompilable_derivative_has_no_partials():
    # Abs's derivative holds re, im and an unevaluated Derivative, which the
    # compile check refuses: phi has no partials, so its derivatives are
    # central differences
    phi = GraphFunction.from_expression("abs(x2 - 0.5) + x2", unit_box(2), 2, 1)
    assert phi(np.array([0.25, 0.5])) == 0.5
    assert not phi.has_partials


@pytest.mark.parametrize("expr, m, n", [
    ("sin(x2)*y + x2**2", 2, 1),
    ("x2*x3 + exp(y1)*y2 - tanh(y3)", 3, 3),
    ("0.5*x2 + 0.25*x4 + cos(x3*y)", 4, 1),
    ("sqrt(1 + x2**2)*y3 + x4**3*y1 + 2", 4, 3),
])
def test_expression_partials_match_one_lambdify_per_partial(expr, m, n):
    # partials are compiled as one gradient list; the reference compiles
    # each partial on its own, and the arithmetic is the same
    d = m + n - 1
    phi = GraphFunction.from_expression(expr, unit_box(d), m, n)
    syms = sp.symbols(base_coordinate_names(m, n))
    tree = sp.sympify(expr, locals={"y": syms[-1],
                                    **dict(zip(map(str, syms), syms))})
    a = np.random.default_rng(5).uniform(-1.0, 1.0, size=(300, d))
    cols = [a[:, i] for i in range(d)]
    want = np.stack([np.broadcast_to(np.asarray(
        sp.lambdify(syms, sp.diff(tree, s), modules="numpy")(*cols), dtype=float),
        (300,)) for s in syms], axis=-1)
    assert np.array_equal(phi.partials(a), want)


def test_expression_memo_returns_fresh_functions():
    lo = GraphFunction.from_expression("x2 + y", unit_box(2), 2, 1)
    wide = GraphFunction.from_expression("x2 + y", unit_box(2, half=4.0), 2, 1)
    assert lo is not wide
    assert np.array_equal(lo.domain.hi, [1.0, 1.0])
    assert np.array_equal(wide.domain.hi, [4.0, 4.0])
    a = np.array([[3.0, 2.0]])
    assert wide(a) == pytest.approx([5.0])
    with pytest.raises(errors.OutOfDomain):
        lo(a)
    with pytest.raises(errors.DimensionMismatch):
        GraphFunction.from_expression("x2 + y", unit_box(3), 2, 1)


@pytest.mark.parametrize("expr", ["x2", "0.75", "0.5*x2 + y"])
def test_expression_result_fresh_and_full_shape(expr):
    # the evaluator copies only a scalar, a broadcast or an aliasing result;
    # every result is a writable full-shape array of its own
    phi = GraphFunction.from_expression(expr, unit_box(2), 2, 1)
    ref = {"x2": lambda a: a[..., 0], "0.75": lambda a: np.full(a.shape[:-1], 0.75),
           "0.5*x2 + y": lambda a: 0.5 * a[..., 0] + a[..., 1]}[expr]
    for a in (np.linspace(-1.0, 1.0, 24).reshape(4, 3, 2),
              np.moveaxis(np.linspace(-1.0, 1.0, 24).reshape(2, 4, 3), 0, -1)):
        out = phi.eval_extended(a)
        assert out.shape == a.shape[:-1]
        assert out.flags.writeable
        assert not np.shares_memory(out, a)
        assert np.array_equal(out, ref(a))
        out[...] = 7.0
        assert np.array_equal(phi.eval_extended(a), ref(a))


def test_aliasing_result_is_copied_for_a_point_and_a_batch():
    # "x2" returns its own input column: the copy taken of it must share no
    # memory with the input, so a caller may reuse its buffer
    phi = GraphFunction.from_expression("x2", unit_box(2), 2, 1)
    for a in (np.array([0.25, -0.5]), np.linspace(-1.0, 1.0, 24).reshape(4, 3, 2)):
        out = phi.eval_extended(a)
        before = out.copy()
        assert out.shape == a.shape[:-1]
        assert not np.may_share_memory(out, a)
        a[...] = 9.0
        assert out.tobytes() == before.tobytes()


def test_constant_broadcasting():
    phi = GraphFunction.constant(2.5, unit_box(3))
    a = np.zeros((4, 5, 3))
    assert phi(a).shape == (4, 5)
    assert np.all(phi(a) == 2.5)


def test_grid_multilinear_interpolation():
    # multilinear interpolation is exact on multilinear data
    box = Box([0.0, 0.0], [1.0, 2.0])
    xs = np.linspace(0, 1, 9)
    ys = np.linspace(0, 2, 11)
    vals = 1.0 + 2.0 * xs[:, None] + 0.5 * ys[None, :] + 3.0 * xs[:, None] * ys[None, :]
    phi = GraphFunction.from_grid(vals, box)
    rng = np.random.default_rng(137)
    a = box.sample(200, rng)
    expected = 1.0 + 2.0 * a[:, 0] + 0.5 * a[:, 1] + 3.0 * a[:, 0] * a[:, 1]
    assert np.allclose(phi(a), expected, atol=1e-12)


def test_grid_clamped_extension():
    box = unit_box(2)
    vals = np.ones((5, 5))
    phi = GraphFunction.from_grid(vals, box)
    assert phi.eval_extended(np.array([3.0, -7.0])) == pytest.approx(1.0)
    with pytest.raises(errors.OutOfDomain):
        phi(np.array([3.0, -7.0]))


def test_grid_interpolation_error_order():
    # sup error of multilinear interpolation is O(h^2) on smooth data
    box = unit_box(2)
    f = lambda x, y: np.sin(2 * x) * np.cos(y)
    errs = []
    for k in (17, 33, 65):
        xs = np.linspace(-1, 1, k)
        phi = GraphFunction.from_grid(f(xs[:, None], xs[None, :]), box)
        rng = np.random.default_rng(1)
        a = box.sample(3000, rng)
        errs.append(np.max(np.abs(phi(a) - f(a[:, 0], a[:, 1]))))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_function_json_roundtrip(tmp_path, heis1):
    spec = {"kind": "expr", "domain": {"lo": [-1, -1], "hi": [1, 1]},
            "expr": "x2*y"}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec))
    phi = load_graph_function(path, heis1)
    assert phi(np.array([[0.5, 0.5]]))[0] == pytest.approx(0.25)


def test_function_json_grid(tmp_path, heis1):
    values = np.linspace(0, 1, 12).reshape(3, 4)
    csv = tmp_path / "vals.csv"
    np.savetxt(csv, values.reshape(-1), delimiter=",")
    spec = {"kind": "grid", "domain": {"lo": [0, 0], "hi": [1, 1]},
            "grid": {"shape": [3, 4], "values": "vals.csv"}}
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(spec))
    phi = load_graph_function(path, heis1)
    assert phi(np.array([[0.0, 0.0]]))[0] == pytest.approx(values[0, 0])
    assert phi(np.array([[1.0, 1.0]]))[0] == pytest.approx(values[-1, -1])


def test_function_json_errors(heis1):
    with pytest.raises(errors.ValidationError):
        graph_function_from_dict({"kind": "expr",
                                  "domain": {"lo": [0], "hi": [1]}}, heis1)
    with pytest.raises(errors.ValidationError):
        graph_function_from_dict({"kind": "spline",
                                  "domain": {"lo": [0, 0], "hi": [1, 1]},
                                  "expr": "x2"}, heis1)


def test_vector_field_dict(heis1, free3):
    w = vector_field_from_dict(
        {"kind": "expr", "domain": {"lo": [-1, -1], "hi": [1, 1]}, "expr": "1"},
        heis1)
    assert len(w.components) == 1
    spec = {"components": [
        {"kind": "expr", "domain": {"lo": [-1] * 5, "hi": [1] * 5}, "expr": "x2"},
        {"kind": "expr", "domain": {"lo": [-1] * 5, "hi": [1] * 5}, "expr": "y2"},
    ]}
    w3 = vector_field_from_dict(spec, free3)
    assert len(w3.components) == 2
    with pytest.raises(errors.DimensionMismatch):
        vector_field_from_dict(
            {"kind": "expr", "domain": {"lo": [-1] * 5, "hi": [1] * 5},
             "expr": "x2"}, free3)


def test_quadrature_grid_basics():
    pts, cell = midpoint_rule([0.0, 0.0], [1.0, 2.0], 4)
    assert cell == pytest.approx(0.125)
    assert pts.shape == (16, 2)
    assert np.sum(np.ones(16)) * cell == pytest.approx(2.0)
    assert np.array_equal(pts, tensor_grid([0.0, 0.0], [1.0, 2.0], (4, 4)))


def test_quadrature_midpoint_order():
    vals = []
    for k in (16, 32, 64):
        pts, cell = midpoint_rule([0.0], [1.0], k)
        vals.append(float(np.sum(np.exp(pts[:, 0])) * cell))
    order = richardson_order(*vals)
    assert order == pytest.approx(2.0, abs=0.1)


def test_quadrature_validation():
    with pytest.raises(errors.ValidationError):
        Box([0.0], [0.0])
    for shape in ((0,), (3, -2)):
        with pytest.raises(errors.ValidationError,
                           match="shape must give a positive count per axis"):
            tensor_grid([0.0] * len(shape), [1.0] * len(shape), shape)


@st.composite
def _boxes(draw):
    d = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=d, max_size=d)))
    lo = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=d, max_size=d)))
    return lo, lo + width, shape


@given(_boxes())
def test_tensor_grid_properties(box):
    lo, hi, shape = box
    for nodes in ("midpoint", "endpoint"):
        pts = tensor_grid(lo, hi, shape, nodes=nodes)
        assert pts.shape == (int(np.prod(shape)), len(shape))
        # C order: coordinate i depends only on index i, increasing along it
        cube = pts.reshape(shape + (len(shape),))
        for i, k in enumerate(shape):
            axis = np.moveaxis(cube[..., i], i, 0).reshape(k, -1)
            assert np.all(axis == axis[:, :1])
            assert np.all(np.diff(axis[:, 0]) > 0)
        # bitwise the ij meshgrid of the per-axis nodes
        axes = [np.moveaxis(cube[..., i], i, 0).reshape(k, -1)[:, 0]
                for i, k in enumerate(shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        assert np.array_equal(pts, np.stack([m.reshape(-1) for m in mesh], axis=-1))
    ends = tensor_grid(lo, hi, shape, nodes="endpoint")
    assert np.array_equal(ends.min(axis=0), lo)
    assert np.array_equal(ends.max(axis=0),
                          np.where(np.array(shape) > 1, hi, lo))
    mids = tensor_grid(lo, hi, shape)
    assert np.all((mids > lo) & (mids < hi))


def test_tensor_grid_over_budget_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(errors.GridTooLarge, match=str(MAX_GRID_NODES)):
            tensor_grid([0.0] * 6, [1.0] * 6, (32,) * 6, nodes="endpoint")
        with pytest.raises(errors.GridTooLarge, match=str(256 ** 4)):
            midpoint_rule([0.0] * 4, [1.0] * 4, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_box_contains_matches_all_over_axis(dim, seed):
    # the column-by-column test against np.all over the last axis, with
    # points on the faces, outside, NaN and infinite, batched and single
    rng = np.random.default_rng(seed)
    box = Box(rng.uniform(-2.0, 0.0, dim), rng.uniform(0.5, 2.0, dim))
    pts = rng.uniform(-3.0, 3.0, size=(4, 50, dim))
    faces = rng.integers(0, 2, size=pts.shape).astype(bool)
    pts[faces] = np.broadcast_to(box.lo, pts.shape)[faces]
    pts[0, :3, 0] = [np.nan, np.inf, -np.inf]
    want = np.all((pts >= box.lo) & (pts <= box.hi), axis=-1)
    assert np.array_equal(box.contains(pts), want)
    assert box.contains(pts[1, 7]) == want[1, 7]
    assert box.contains(box.lo) and box.contains(box.hi)


# powers 2, 3, -1, 1/2, 1/4 and 3/2, sqrt, Abs, exp, sin, cos, tanh, pi,
# division and a constant; points with x2 = 0, y = 0 or x2 = y divide by
# zero, and negative ones take the square root of a negative number
_CATALOG = [
    "x2**2 + 0.5*y**3",
    "1/x2 + y**(-1)",
    "x2**(1/2) - Abs(y)**(1/4)",
    "Abs(x2)**(3/2) + sqrt(1 + y**2)",
    "exp(-y**2)*sin(3*x2) + x2/y",
    "cos(x2)/(x2 - y) + pi",
    "tanh(x2*y)/3 - sqrt(y)",
    "y**(-2) - 1/sqrt(x2)",
    "2.5",
]
_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                   st.floats(-3.0, 3.0, allow_subnormal=False))


def _run_recorded(fn):
    """(fn(), the categories of the warnings it issued)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, {w.category for w in caught}


@settings(max_examples=300)
@given(st.sampled_from(_CATALOG), _COORD, _COORD)
def test_one_point_call_matches_array_call_bitwise(expr, x2, y):
    phi = GraphFunction.from_expression(expr, unit_box(2), 2, 1)
    got, got_warned = _run_recorded(lambda: phi.one_point([x2, y]))
    want, want_warned = _run_recorded(lambda: phi.eval_extended(np.array([[x2, y]]))[0])
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()
    assert got_warned == want_warned


def _default_lambdify(expr, partials):
    """``expr`` over H^1's base, or its partials, through sympy's default
    numpy printer."""
    x2, y1 = syms = sp.symbols("x2 y1")
    tree = sp.sympify(expr, locals={"x2": x2, "y1": y1, "y": y1, "Abs": sp.Abs})
    if partials:
        tree = [sp.diff(tree, s) for s in syms]
    return sp.lambdify(syms, tree, modules="numpy")


@settings(max_examples=100)
@given(st.sampled_from(_CATALOG), st.integers(0, 2 ** 32 - 1))
def test_compiled_expression_matches_default_lambdify_bitwise(expr, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, size=(200, 2))
    a[rng.integers(0, 200, 10), rng.integers(0, 2, 10)] = 0.0
    phi = GraphFunction.from_expression(expr, unit_box(2), 2, 1)
    with np.errstate(all="ignore"):
        want = _default_lambdify(expr, False)(a[:, 0], a[:, 1])
        want = np.broadcast_to(np.asarray(want, dtype=float), (200,))
        assert phi.eval_extended(a).tobytes() == want.tobytes()
        if phi.has_partials:
            want = np.stack([np.broadcast_to(np.asarray(g, dtype=float), (200,))
                             for g in _default_lambdify(expr, True)(a[:, 0], a[:, 1])],
                            axis=-1)
            assert phi.partials(a).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_box_sample_is_rng_uniform_bitwise(dim):
    rng = np.random.default_rng(dim)
    lo = rng.uniform(-5.0, 0.0, dim)
    box = Box(lo, lo + rng.uniform(1e-3, 7.0, dim))
    mine, ref = np.random.default_rng(41), np.random.default_rng(41)
    for count in (1, 7, 1000):
        got = box.sample(count, mine)
        assert got.tobytes() == ref.uniform(box.lo, box.hi, size=(count, dim)).tobytes()
        assert mine.bit_generator.state == ref.bit_generator.state
