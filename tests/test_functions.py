import ast
import inspect
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from carnot import errors, functions
from carnot.functions import (
    Box,
    GraphFunction,
    base_coordinate_names,
    graph_function_from_dict,
    load_graph_function,
    vector_field_from_dict,
)
from carnot.group import standard_group
from carnot.quadrature import (
    MAX_GRID_NODES,
    midpoint_rule,
    richardson_order,
    tensor_grid,
)
from carnot.splitting import translate_graph_function

from conftest import unit_box


def test_expression_evaluation_and_partials():
    phi = GraphFunction.from_expression("sin(x2)*y + x2**2", unit_box(2), 2, 1)
    a = np.array([[0.3, -0.4], [0.0, 1.0]])
    vals = phi(a)
    assert vals[0] == pytest.approx(np.sin(0.3) * -0.4 + 0.09)
    grads = phi.partials(a)
    assert grads[0, 0] == pytest.approx(np.cos(0.3) * -0.4 + 0.6)
    assert grads[0, 1] == pytest.approx(np.sin(0.3))


@pytest.mark.parametrize("value", [0.12345678901234566, 0.30000000000000004,
                                   1.0000000000000002, -9.8765432109876539e-05,
                                   123456.78901234567])
def test_number_keeps_every_bit(value):
    # sympy printed a float with 15 significant digits, so a number phi, a
    # JSON "expr" number or a coefficient lost its last bits
    G = standard_group("heisenberg", 1, epsilon=1.0)
    phis = [GraphFunction.from_expression(expr, unit_box(2), 2, 1)
            for expr in (value, repr(value), f"{value!r}*x2")]
    phis.append(graph_function_from_dict(
        {"kind": "expr", "domain": {"lo": [-1, -1], "hi": [1, 1]}, "expr": value}, G))
    for phi in phis:
        assert phi.eval_extended(np.array([1.0, 0.5])).tobytes() == np.float64(value).tobytes()
        assert phi.one_point([1.0, 0.5]) == value


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


def test_long_sum_compiles_and_keeps_its_order():
    # the printed source puts in only the parentheses the tree needs: 300
    # terms summed left to right would nest past the parser's 200
    phi = GraphFunction.from_expression(" + ".join(f"{k}*x2" for k in range(1, 301)),
                                        unit_box(2), 2, 1)
    want = 0.3
    for k in range(2, 301):
        want = want + k * 0.3
    assert phi.one_point([0.3, 0.5]) == want
    assert phi.partials(np.array([0.3, 0.5])).tolist() == [45150.0, 0.0]


def test_deep_sum_and_product_compile_and_fold_left_to_right():
    # a left spine of one operator is parsed, printed and differentiated in
    # a loop: 2000 terms or factors compile, and each evaluates to Python's
    # left-to-right fold of the same float operations; the sum's partial is
    # the fold of its coefficients, and a product that deep has none
    rng = np.random.default_rng(41)
    coefs = rng.uniform(0.9, 1.1, size=2000).tolist()
    a = rng.uniform(-0.05, 0.05, size=(64, 2))
    phis = {}
    for op, term, fold in (("+", "{!r}*x2", lambda c, x2, y: c * x2),
                           ("*", "({!r} + y)", lambda c, x2, y: c + y)):
        phi = phis[op] = GraphFunction.from_expression(
            f" {op} ".join(map(term.format, coefs)), unit_box(2), 2, 1)
        want = []
        for x2, y in a.tolist():
            value = fold(coefs[0], x2, y)
            for c in coefs[1:]:
                value = value + fold(c, x2, y) if op == "+" else value * fold(c, x2, y)
            want.append(value)
        assert phi(a).tolist() == want
        assert [phi.one_point(point) for point in a.tolist()] == want
        assert phi.has_partials == (op == "+")
    total = coefs[0]
    for c in coefs[1:]:
        total = total + c
    assert phis["+"].partials(a).tolist() == [[total, 0.0]] * len(a)
    # 5000 terms exceed Python's own parser
    with pytest.raises(errors.ValidationError, match="maximum recursion depth"):
        GraphFunction.from_expression(" + ".join(["x2"] * 5000), unit_box(2), 2, 1)


def test_expression_derivative_constant_beyond_float_range_has_no_partials():
    # 2**1023 fits a float, the derivative's 3*2**1023 does not: its compiled
    # partials raised OverflowError at every call, so phi has none and its
    # derivatives are central differences
    phi = GraphFunction.from_expression("2**1023*x2**3", unit_box(2), 2, 1)
    assert phi(np.array([0.25, 0.5])) == 2.0 ** 1023 / 64
    assert not phi.has_partials


def test_expression_with_uncompilable_derivative_has_no_partials():
    # the differentiator forms no derivative of Abs: phi has no partials, so
    # its derivatives are central differences
    phi = GraphFunction.from_expression("abs(x2 - 0.5) + x2", unit_box(2), 2, 1)
    assert phi(np.array([0.25, 0.5])) == 0.5
    assert not phi.has_partials


# sympy's default lambdify is the reference for the compiled expressions.
# The compiled code evaluates an expression as written; sympy simplifies and
# reorders it first.  Where sympy's printed form runs the same operations on
# the same numbers (the same ``_canonical`` form) the two agree bit for bit;
# elsewhere they agree within _ULPS ulps (``np.spacing``) of the sum of the
# two forms' error scales (``_error_scale``, the sum of the terms'
# magnitudes), at the points where both are finite.  The compiled side's
# scale is taken with no constant folded, so that it holds the roundings of
# the folds.  Over 3*10^4 expressions of up to ten leaves drawn from the
# grammar below, the largest error seen was 14.5 ulps; sympy prints a float
# with 15 digits, which alone can be 10 ulps off.
_ULPS = 64
_NAMES = {"pi": math.pi, "E": math.e, "e": math.e, "y": "y1", "Abs": "abs",
          "absolute": "abs"}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_FUNCS = {"sin": (np.sin, np.cos), "cos": (np.cos, lambda v: -np.sin(v)),
          "tan": (np.tan, lambda v: 1 + np.tan(v) ** 2),
          "tanh": (np.tanh, lambda v: 1 - np.tanh(v) ** 2), "exp": (np.exp, np.exp),
          "log": (np.log, lambda v: 1 / v), "sqrt": (np.sqrt, lambda v: 0.5 / np.sqrt(v)),
          "abs": (np.abs, np.sign)}


def _negated(form):
    """(whether a canonical form is a negation, its negation)."""
    if isinstance(form, float):
        return math.copysign(1.0, form) < 0, -form
    return (True, form[1]) if form[0] == "neg" else (False, ("neg", form))


def _canonical(node):
    """A form of an expression's ``ast`` in which two expressions are equal
    when they run the same float64 operations on the same numbers, up to
    exact rewrites: numbers as floats, the two operands of + and * sorted,
    a negation pulled out of a product or a quotient and turned with + or -
    into the other one, a power call a power, and numpy's and sympy's names
    read as the expression language's."""
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return _NAMES.get(name, name)
    if isinstance(node, ast.UnaryOp):
        inner = _canonical(node.operand)
        return inner if isinstance(node.op, ast.UAdd) else _negated(inner)[1]
    if isinstance(node, ast.Call) and _canonical(node.func) == "power":
        node = ast.BinOp(node.args[0], ast.Pow(), node.args[1])
    if isinstance(node, ast.Call):
        return (_canonical(node.func), *map(_canonical, node.args))
    op = _BINARY[type(node.op)]
    pair, sign = [_canonical(node.left), _canonical(node.right)], False
    if op in ("*", "/"):
        for i, (negative, negation) in enumerate(map(_negated, pair)):
            if negative:
                sign, pair[i] = not sign, negation
    elif op in ("+", "-") and _negated(pair[1])[0]:
        # a + (-b) is a - b, a - (-b) is a + b
        op, pair[1] = "-" if op == "+" else "+", _negated(pair[1])[1]
    if op == "+" and _negated(pair[0])[0]:
        # -a + b is b - a
        op, pair = "-", [pair[1], _negated(pair[0])[1]]
    form = (op, *(sorted(pair, key=repr) if op in ("+", "*") else pair))
    return ("neg", form) if sign else form


def _error_scale(form, env):
    """(value, scale) of a canonical form at the coordinate columns ``env``:
    the scale is the sum of the magnitudes of the terms, carried through
    each operation to first order, so that the rounding error of evaluating
    the form in float64 is a few ulps of it.  Each operation adds the
    smallest normal float, an epsilon of which bounds an underflow's error."""
    if isinstance(form, float):
        return form, abs(form)
    if isinstance(form, str):
        return env[form], np.abs(env[form])
    op, *args = form
    (a, sa), (b, sb) = [_error_scale(arg, env) for arg in (args[0], args[-1])]
    if op == "neg":
        v, scale = -a, sa
    elif op in ("+", "-"):
        v, scale = (a + b if op == "+" else a - b), sa + sb
    elif op == "*":
        v, scale = a * b, sa * sb
    elif op == "/":
        v, scale = a / b, sa / np.abs(b) + np.abs(a) * sb / b ** 2
    elif op == "**":
        v = np.power(a, b)
        scale = np.abs(v) * (1 + np.abs(b) * sa / np.abs(a) + np.abs(np.log(np.abs(a))) * sb)
    else:
        f, df = _FUNCS[op]
        v, scale = f(a), np.abs(f(a)) + np.abs(df(a)) * sa
    return v, scale + np.finfo(float).tiny


def _agree(got, forms, want, want_form, env):
    """Whether got and want, the compiled and sympy's values at the columns
    ``env``, were checked bit for bit (else within the bound).  ``forms``
    are the canonical forms of the compiled code and of the same code with
    no constant folded, whose error scale holds the rounding of the folds."""
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    if repr(forms[0]) == repr(want_form):  # the repr tells -0.0 from 0.0
        # a NaN's sign and payload are not compared: -(a*b) and (-a)*b are
        # the same number but not the same NaN
        nan = np.isnan(got)
        assert np.array_equal(nan, np.isnan(want))
        assert got[~nan].tobytes() == want[~nan].tobytes()
        return True
    scale = np.broadcast_to(_error_scale(forms[1], env)[1] + _error_scale(want_form, env)[1],
                            got.shape)
    ok = np.isfinite(got) & np.isfinite(want) & np.isfinite(scale)
    assert np.all(np.abs(got - want)[ok] <= _ULPS * np.spacing(scale[ok]))
    return False


def _compiled_forms(expr, names, n):
    """The canonical forms of the code compiled for ``expr`` and each of its
    partials (None without partials), from the compiler's own trees, as
    (folded, unfolded) pairs."""
    def forms():
        # the names and the source as ``_compile_expression`` reads them
        tree = functions._parse(ast.parse(expr.replace("^", "**"), mode="eval").body, expr,
                                dict(zip(names, names)) | functions._CONSTANTS
                                | ({"y": "y1"} if n == 1 else {}))
        trees = [tree]
        for name in names:
            try:
                trees.append(functions._derivative(tree, name))
            except ArithmeticError:
                trees.append(None)
        return [None if t is None else _canonical(ast.parse(functions._source(t)).body[0].value)
                for t in trees]

    def variable(tree):
        return isinstance(tree, str) or isinstance(tree, tuple) and any(map(variable, tree[1:]))

    fold, derivative, folded = functions._op, functions._derivative, forms()
    # a subtree without a coordinate stays a constant, of derivative 0
    with mock.patch.object(functions, "_op", lambda op, *args: fold(op, *args)
                           if op == "pos" else (op, *args)), \
            mock.patch.object(functions, "_derivative", lambda tree, name: derivative(
                tree, name) if variable(tree) else 0.0):
        return list(zip(folded, forms()))


def _check_against_lambdify(expr, m, n, a, one_list=True):
    """Check phi = ``expr`` over G(m, n) and its partials against sympy's
    default lambdify at the points a (``_agree``); sympy's partials compiled
    as one list or each on its own.  Returns whether the values, and each
    partial, were checked bit for bit; None for the partials when phi has
    none."""
    names = base_coordinate_names(m, n)
    phi = GraphFunction.from_expression(expr, unit_box(len(names)), m, n)
    forms = _compiled_forms(expr, names, n)
    syms = sp.symbols(names)
    ref = sp.sympify(expr, locals=dict(zip(names, syms)) | (
        {"y": syms[-1]} if n == 1 else {}) | {"abs": sp.Abs})
    diffs = [sp.diff(ref, s) for s in syms] if phi.has_partials else []
    if any(t.has(sp.I, sp.zoo, sp.nan, sp.oo, -sp.oo) or {f.func for f in t.atoms(
            sp.Function)} - {sp.sin, sp.cos, sp.tan, sp.exp, sp.log, sp.Abs, sp.tanh}
           for t in [ref] + diffs):
        # sympy finds a constant that is not a finite real, or rewrites in
        # functions outside the language (Abs(exp(x2)) is exp(re(x2)))
        reject()
    cols = [a[..., i] for i in range(len(names))]
    env = dict(zip(names, cols))

    def lambdified(target):
        try:
            f = sp.lambdify(syms, target, modules="numpy")
            value = f(*cols)
        except (OverflowError, ValueError):
            # sympy's code for a constant it keeps, 2.5**1000, overflows as a
            # Python float power, and 2**-19683 is too long to print
            reject()
        if any(map(np.iscomplexobj, value if isinstance(value, list) else [value])):
            # a constant sympy keeps, (-2)**(-pi), is not real
            reject()
        return value, ast.parse(inspect.getsource(f)).body[0].body[-1].value

    with np.errstate(all="ignore"):
        want, node = lambdified(ref)
        bitwise = [_agree(phi.eval_extended(a), forms[0], want, _canonical(node), env)]
        if not phi.has_partials:
            return bitwise[0], None
        if one_list:
            wants, node = lambdified(diffs)
            refs = zip(wants, map(_canonical, node.elts))
        else:
            refs = [(w, _canonical(nd)) for w, nd in map(lambdified, diffs)]
        got = phi.partials(a)
        bitwise += [_agree(got[..., i], forms[i + 1], want, want_form, env)
                    for i, (want, want_form) in enumerate(refs)]
    return bitwise[0], bitwise[1:]


# expression, m, n and whether each partial is sympy's bit for bit
_PARTIAL_CASES = [
    ("sin(x2)*y + x2**2", 2, 1, [True, True]),
    ("x2*x3 + exp(y1)*y2 - tanh(y3)", 3, 3, [True, True, True, True, False]),
    ("0.5*x2 + 0.25*x4 + cos(x3*y)", 4, 1, [True, True, True, True]),
    ("sqrt(1 + x2**2)*y3 + x4**3*y1 + 2", 4, 3, [False, True, True, True, True, True]),
    ("x2*tan(y1) + log(2 + x3)/y2", 3, 2, [True, False, True, True]),
]


@pytest.mark.parametrize("expr, m, n, bitwise", _PARTIAL_CASES,
                         ids=[f"{expr}-{m}-{n}" for expr, m, n, _ in _PARTIAL_CASES])
def test_expression_partials_match_one_lambdify_per_partial(expr, m, n, bitwise):
    # sympy's partials compiled each on its own: bit for bit where its
    # printed derivative is the compiled one, which holds for each partial
    # here but three, which agree within the bound: d/dx2 of the square root,
    # where sympy cancels the 2s of the chain rule (x2/sqrt(...) against
    # 1/(2 sqrt(...)) * (2 x2)), d/dy3 of -tanh(y3), which sympy prints as
    # tanh(y3)**2 - 1 and the differentiator as -(1 - tanh(y3)**2), and
    # d/dx3 of log(2 + x3)/y2, 1/(y2 (x3 + 2)) against 1/(2 + x3)/y2
    a = np.random.default_rng(5).uniform(-1.0, 1.0, size=(300, m + n - 1))
    assert _check_against_lambdify(expr, m, n, a, one_list=False)[1] == bitwise


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


def _same_bits(got, want):
    """Equal values, NaN where the other is NaN, and the same sign on every
    zero (np.array_equal takes -0.0 for +0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    keep = ~np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[keep]), np.signbit(want[keep])))


@st.composite
def _grids(draw):
    """A box of 1 to 6 axes of 1 to 5 nodes each, values from a seed
    (normal, rounded to integers so that terms cancel, or all -0.0) and
    points on the nodes, on grid lines, at the box's corners, outside the
    box and with a NaN coordinate."""
    d = draw(st.integers(1, 6))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    lo = np.array(draw(st.lists(st.sampled_from([0.0, -1.0, -2.5, 0.3]),
                                min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = {"normal": rng.normal(size=shape), "integer": np.round(rng.normal(size=shape)),
              "negative-zero": np.full(shape, -0.0)}[
        draw(st.sampled_from(["normal", "integer", "negative-zero"]))]
    box = Box(lo, lo + width)
    axes = [np.linspace(a, b, k) for a, b, k in zip(box.lo, box.hi, shape)]
    pts = rng.uniform(box.lo, box.hi, (40, d))
    on_node = rng.random(pts.shape) < 0.3
    for i, axis in enumerate(axes):
        pts[on_node[:, i], i] = rng.choice(axis, on_node[:, i].sum())
    outside = rng.uniform(box.lo - width, box.hi + width, (8, d))
    corners = np.array(np.meshgrid(*zip(box.lo, box.hi), indexing="ij")).reshape(d, -1).T
    pts = np.concatenate([pts, outside, corners, [np.full(d, -0.0)], [box.hi + 1.0]])
    pts[0, rng.integers(d)] = np.nan
    return box, axes, values, pts


@settings(max_examples=200)
@given(_grids())
def test_grid_interpolant_matches_scipy_property(grid):
    # bitwise scipy's RegularGridInterpolator on the clamped points, batched
    # and one point at a time, for every axis count and one-node axes
    from scipy.interpolate import RegularGridInterpolator

    box, axes, values, pts = grid
    want = RegularGridInterpolator(axes, values, method="linear", bounds_error=False,
                                   fill_value=None)(box.clamp(pts))
    phi = GraphFunction.from_grid(values, box)
    assert _same_bits(phi.eval_extended(pts), want)
    assert _same_bits(phi.eval_extended(pts.reshape(2, -1, box.dim)), want.reshape(2, -1))
    for point, value in zip(pts[-4:], want[-4:]):
        assert _same_bits(phi.eval_extended(point), value)


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


# values of grid nodes and constants, signed zeros among them
_VALUE = st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.25])


def _one_point_kind(kind, data):
    """A phi of ``kind`` that is not an expression, drawn from ``data``."""
    if kind.startswith("grid"):
        # the 2-D interpolant, the 2-D one along the one axis of more than
        # one node, and the general corner loop
        shape = {"grid-2d": (3, 4), "grid-2d-one-node": (1, 3),
                 "grid-3d": (2, 3, 2)}[kind]
        values = data.draw(st.lists(_VALUE, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))
        return GraphFunction.from_grid(np.reshape(values, shape), unit_box(len(shape)))
    if kind == "callable":
        return GraphFunction.from_callable(
            lambda a: np.sin(a[..., 0]) * a[..., -1] - a[..., 1] ** 2, unit_box(2))
    if kind == "constant":
        return GraphFunction.constant(data.draw(_VALUE), unit_box(2))
    G = standard_group("heisenberg", 1, epsilon=1.0)
    q = data.draw(st.sampled_from([[0.0, 0.0, 0.0], [0.3, -0.2, 0.15], [-0.0, 0.5, -1.0]]))
    return translate_graph_function(
        G, GraphFunction.from_expression("x2*y - 0.5*x2", unit_box(2), 2, 1), q)


@settings(max_examples=300)
@given(st.sampled_from(["grid-2d", "grid-2d-one-node", "grid-3d", "callable", "constant",
                        "translated"]), _COORD, _COORD, _COORD, st.data())
def test_one_point_call_matches_array_call_for_every_kind(kind, x2, y, z, data):
    phi = _one_point_kind(kind, data)
    a = np.array([x2, y, z][:phi.domain.dim])
    got = phi.one_point(a.tolist())
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(float(phi.eval_extended(a))).tobytes()


# per catalog entry, whether sympy prints the values, and each partial, as
# the compiled code runs them (``_check_against_lambdify``); Abs leaves phi
# without partials
_CATALOG_BITWISE = {
    "x2**2 + 0.5*y**3": (True, [True, True]),
    "1/x2 + y**(-1)": (False, [True, False]),
    "x2**(1/2) - Abs(y)**(1/4)": (False, None),
    "Abs(x2)**(3/2) + sqrt(1 + y**2)": (False, None),
    "exp(-y**2)*sin(3*x2) + x2/y": (True, [False, False]),
    "cos(x2)/(x2 - y) + pi": (True, [True, False]),
    "tanh(x2*y)/3 - sqrt(y)": (False, [False, False]),
    "y**(-2) - 1/sqrt(x2)": (True, [False, False]),
    "2.5": (True, [True, True]),
}


@settings(max_examples=100)
@given(st.sampled_from(_CATALOG), st.integers(0, 2 ** 32 - 1))
def test_compiled_expression_matches_default_lambdify_bitwise(expr, seed):
    # bit for bit where sympy prints the expression as written, else within
    # the bound; which entries are which is pinned
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0, size=(200, 2))
    a[rng.integers(0, 200, 10), rng.integers(0, 2, 10)] = 0.0
    assert _check_against_lambdify(expr, 2, 1, a) == _CATALOG_BITWISE[expr]


# the expression language by its grammar: numbers (17-digit floats among
# them, which sympy prints with 15 digits), the coordinates, the constants,
# + - * / and ** or ^, unary - and +, and every function
_LEAVES = st.one_of(st.sampled_from(["x2", "y", "y1", "2", "3", "0.5", "0.1", "pi", "E"]),
                    st.floats(0.05, 4.0).map(repr))


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda t: "({} {} {})".format(*t)),
        st.tuples(inner, st.sampled_from(["**", "^"]),
                  st.sampled_from(["2", "3", "0.5", "(-1)"]) | inner).map(
            lambda t: "({}){}({})".format(*t)),
        st.tuples(st.sampled_from(functions._CALLS + ("abs",)), inner).map(
            lambda t: "{}({})".format(*t)),
        st.tuples(st.sampled_from("-+"), inner).map(lambda t: "{}({})".format(*t)))


@settings(max_examples=150, deadline=None)
@given(st.recursive(_LEAVES, _grow, max_leaves=6), st.integers(0, 2 ** 32 - 1))
def test_expression_grammar_matches_lambdify(expr, seed):
    # any expression of the language against sympy's lambdify, by the rule
    # of ``_check_against_lambdify``; an expression whose constants sympy
    # or the compiler finds not to be finite reals is not compared
    try:
        GraphFunction.from_expression(expr, unit_box(2), 2, 1)
    except errors.ValidationError as exc:
        assert re.search("constant too large|not a finite real", str(exc)), exc
        reject()
    a = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(100, 2))
    _check_against_lambdify(expr, 2, 1, a)


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
