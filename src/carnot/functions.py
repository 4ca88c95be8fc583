"""Scalar functions on a box in R^(m+n-1): the graph data.

A ``GraphFunction`` is either a closed-form expression with analytic
partials, a sampled grid with multilinear interpolation, or an opaque
callable.  An optional mask narrows its domain below its box (a translated
phi).  Coordinates on the base are named x2..xm, y1..yn; when n == 1 the
alias ``y`` is accepted.

An expression is parsed by Python's ``ast`` into a tree, folded where it is
constant and printed as numpy code in the tree's order, with its partials
from a small differentiator (``_d``).  Each phi has a one-point call on a
list of floats, which the RK4 stages of a characteristic use: a grid's or a
callable's is the array function on that one point; an expression's runs
on the floats themselves and gives the bits of the array call, as every
operation is then one IEEE float operation, which Python and numpy round
alike, or a numpy function called on a scalar.  Python's ``float ** e`` is
libm ``pow``, which differs from numpy's power in the last bit on a few
percent of values, so every power is printed as ``numpy.power(b, e)``.  A
Python float divided by zero raises where numpy gives inf or nan; the
one-point call then evaluates that point through the array call.

A grid function clamps each point to its box and interpolates
multilinearly between the corners of the grid cell that holds it, with the
bits of scipy's ``RegularGridInterpolator(method="linear")``, which the
tests check it against.  A coordinate's cell starts at the last node at or
below it (the last cell also holds hi), and its weight on the cell's right
node is (x - left node) / cell width, w, with 1 - w on the left node.  On
two axes the four corner terms, each value times its two weights in turn,
are summed left to right as scipy's ``evaluate_linear_2d`` sums them; on
any other count the corners are summed in ``itertools.product`` order from
+0.0, each value times the product of its weights.  An axis of one node
holds no cell and phi is constant along it; on two axes the two terms
along the other axis are summed from the first, with no +0.0 in front, as
scipy sums them.

Vector fields w = (w_2, ..., w_m) on the base reuse the same machinery
componentwise.
"""

from __future__ import annotations

import ast
import functools
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfDomain, ValidationError
from .quadrature import check_count


def base_coordinate_names(m, n):
    return [f"x{j}" for j in range(2, m + 1)] + [f"y{s}" for s in range(1, n + 1)]


# the language: numbers, the coordinates, the constants pi and E, + - * /
# and ** (or ^), unary - and +, and these functions ("abs" is Abs)
_CALLS = ("sin", "cos", "tan", "exp", "log", "sqrt", "Abs", "tanh")
_CONSTANTS = {"pi": math.pi, "E": math.e}
# the globals of the compiled code: the numpy functions it calls, no builtins
_NUMPY = {"__builtins__": {}, "power": np.power, **{n: getattr(np, n.lower()) for n in _CALLS}}
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "power",
        ast.USub: "neg", ast.UAdd: "pos"}
_RANK = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _left_spine(tree):
    """tree and its first arguments while they apply tree's operator, top
    first: the chain that a long sum or product a op b op c ... parses to."""
    spine = [tree]
    while isinstance(spine[-1][1], tuple) and spine[-1][1][0] == tree[0]:
        spine.append(spine[-1][1])
    return spine


def _source(tree, rank=0):
    """The numpy source of a tree, in parentheses where it binds less tightly
    than ``rank`` (a right operand of equal rank keeps them): the tree's order.
    A left spine of one operator is printed in a loop, with no parentheses
    inside it."""
    if not isinstance(tree, tuple):
        return repr(tree) if isinstance(tree, float) else tree
    op, *args = tree
    if op not in _RANK:
        return f"{op}({', '.join(map(_source, args))})"
    if op == "neg":
        source = f"-{_source(args[0], 3)}"
    else:
        spine = _left_spine(tree)
        source = " ".join([_source(spine[-1][1], _RANK[op])]
                          + [f"{op} {_source(node[2], _RANK[op] + 1)}"
                             for node in reversed(spine)])
    return f"({source})" if _RANK[op] < rank else source


def _op(op, *args):
    """The tree (op, *args), or if every argument is a number the one the code
    computes ("pos" keeps it): OverflowError if infinite, ArithmeticError if NaN."""
    if not all(isinstance(arg, float) for arg in args):
        return (op, *args)
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            value = args[0] if op == "pos" else float(eval(_source((op, *args)), _NUMPY))
    except (ZeroDivisionError, FloatingPointError):
        value = math.nan
    if not math.isfinite(value):
        raise OverflowError if math.isinf(value) else ArithmeticError
    return value


def _parse(node, expr, names):
    """The tree of ``expr``'s ``ast`` node, a float, a coordinate name or (op,
    *trees), folded by ``_op``; a ValidationError outside the language.  A
    left spine of one binary operator, as in x2 + x2 + ... + x2, is parsed
    bottom first in a loop, not one call deep per term."""
    spine = [node]
    while type(node) is ast.BinOp and type(node.left) is ast.BinOp \
            and type(node.left.op) is type(node.op):
        node = node.left
        spine.append(node)
    tree = None
    for node in reversed(spine):
        tree = _parse_node(node, expr, names, tree)
    return tree


def _parse_node(node, expr, names, left):
    """``_parse`` of one node, given the tree of its left operand or None."""
    kind, op, args, func = type(node), "pos", [], getattr(node, "func", None)
    if kind is ast.Name and node.id in names:
        return names[node.id]
    if kind is ast.Call and getattr(func, "id", None) not in _CALLS + ("abs",):
        raise ValidationError(f"expression {expr!r} uses {ast.unparse(func)}, which is not "
                              f"one of {', '.join(_CALLS)}")
    if kind is ast.Call and len(node.args) == 1 and not node.keywords:
        op, args = "Abs" if func.id == "abs" else func.id, node.args
    elif kind in (ast.BinOp, ast.UnaryOp) and type(node.op) in _OPS:
        op, args = _OPS[type(node.op)], [c for c in ast.iter_child_nodes(node)
                                         if isinstance(c, ast.expr)]
    elif not (kind is ast.Constant and type(node.value) in (int, float, complex)):
        raise ValidationError(f"expression {expr!r} uses {ast.unparse(node)!r}, which is "
                              f"not part of the language")
    args = [left if i == 0 and left is not None else _parse(arg, expr, names)
            for i, arg in enumerate(args)]
    try:
        if kind is ast.Constant:
            # float() of an int beyond the float range is an OverflowError
            return _op("pos", math.nan if type(node.value) is complex else float(node.value))
        return args[0] if op == "pos" else _op(op, *args)
    except ArithmeticError as exc:
        why = ("a constant too large for a float" if isinstance(exc, OverflowError) else
               f"the constant {ast.unparse(node)}, which is not a finite real number")
        raise ValidationError(f"expression {expr!r} has {why}") from None


def _d(op, a, b):
    """The tree (op, a, b) as the differentiator forms it: sums with 0, zero
    dividends and powers of 1 drop out, and numeric factors fold by one rule.
    A zero factor gives 0, a number moves to the front of a product, a number
    times a product that starts with one is their product (rounded once)
    times the rest, and a factor 1 drops out."""
    if op == "*":
        if 0.0 in (a, b):
            return 0.0
        a, b = (b, a) if isinstance(b, float) else (a, b)
        if type(a) is float and type(b) is tuple and b[0] == "*" and type(b[1]) is float:
            a, b = _op("*", a, b[1]), b[2]
        if a == 1.0:
            return b
    elif b == 0.0 and op in ("+", "-") or a == 0.0 and op == "/" \
            or b == 1.0 and op == "power":
        return a
    elif a == 0.0 and op in ("+", "-"):
        return b if op == "+" else _op("neg", b)
    return _op(op, a, b)


def _derivative(tree, name):
    """The tree of d tree / d ``name``, each step formed by ``_d``; None
    where it needs Abs's derivative.  A fold that is not finite raises.  A
    left spine of one operator is differentiated bottom first in a loop."""
    if not isinstance(tree, tuple):
        return 1.0 if tree == name else 0.0
    spine = _left_spine(tree)
    d = _derivative(spine[-1][1], name)
    for node in reversed(spine):
        d = _derivative_step(node, [d] + [_derivative(arg, name) for arg in node[2:]])
    return d


def _derivative_step(tree, d):
    """d tree from the derivatives ``d`` of its arguments (``_derivative``)."""
    op, *args = tree
    if None in d or op == "Abs":
        return None
    (a, da), (b, db) = (args[0], d[0]), (args[-1], d[-1])
    if op in ("+", "-", "neg"):
        return _d(op, da, db) if op != "neg" else _d("-", 0.0, da)
    if op == "*":
        return _d("+", _d("*", da, b), _d("*", a, db))
    if op == "/":
        return _d("-", _d(op, da, b), _d(op, _d("*", a, db), _d("power", b, 2.0)))
    if op == "power":
        # d a**b = b a**(b - 1) da + a**b log(a) db
        return _d("+", _d("*", _d("*", b, _d(op, a, _d("-", b, 1.0))), da),
                  _d("*", _d("*", tree, _op("log", a)), db))
    # f'(a) for tree = f(a)
    outer = {"sin": ("cos", a), "cos": ("neg", ("sin", a)), "exp": tree,
             "log": ("/", 1.0, a), "sqrt": ("/", 1.0, ("*", 2.0, tree)),
             "tan": ("+", 1.0, ("power", tree, 2.0)),
             "tanh": ("-", 1.0, ("power", tree, 2.0))}
    return _d("*", outer[op], da)


@functools.lru_cache(maxsize=256)
def _compile_expression(expr, m, n):
    """(evaluate, partials, point) for an expression over the base of G(m, n):
    numpy code from its folded ``ast`` tree (``_parse``) and partials (``_d``;
    None where one is not formed or folds a non-finite constant)."""
    params = base_coordinate_names(m, n)
    names = dict(zip(params, params)) | _CONSTANTS | ({"y": "y1"} if n == 1 else {})
    source = expr.strip().replace("^", "**")  # ^ is a power, of a power's precedence
    head = f"lambda {', '.join(params)}: "
    try:
        tree = _parse(ast.parse(source, mode="eval").body, expr, names)
        # nested calls past Python's 200 parentheses are a SyntaxError here
        f = eval(head + _source(tree), _NUMPY)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot parse expression {expr!r}: {exc}") from None
    try:
        grads = [_derivative(tree, name) for name in params]
        grad = None if None in grads else eval(
            f"{head}({', '.join(map(_source, grads))},)", _NUMPY)
    except (ArithmeticError, RecursionError, SyntaxError):
        # a fold that is not finite, or partials nested deeper than Python
        # compiles (a long product's)
        grad = None

    def evaluate(a):
        out = np.asarray(f(*[a[..., i] for i in range(len(params))]), dtype=float)
        # copy a scalar result or a view, which may alias the input ("x2")
        if out.shape != a.shape[:-1] or out.base is not None:
            out = np.full(a.shape[:-1], out)
        return out

    partials = None
    if grad is not None:

        def partials(a):
            columns = grad(*[a[..., i] for i in range(len(params))])
            return np.stack([np.broadcast_to(g, a.shape[:-1]) for g in columns], axis=-1)

    def point(coords):
        try:
            return float(f(*coords))
        except ZeroDivisionError:
            # a Python float divided by zero, where numpy returns inf or nan
            return float(evaluate(np.array(coords, dtype=float)))

    return evaluate, partials, point


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        try:
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        except (TypeError, ValueError):
            raise ValidationError(f"domain bounds must be numbers, got lo={self.lo!r}, "
                                  f"hi={self.hi!r}") from None
        if lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi)) \
                or np.any(hi <= lo):
            raise ValidationError("invalid box: need finite lo < hi componentwise")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise ValidationError("invalid box: the width hi - lo overflows")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.size

    def contains(self, a):
        a = np.asarray(a, dtype=float)
        # column by column: np.all over the short last axis of a batch costs
        # several times more than the comparisons themselves
        ok = (a[..., 0] >= self.lo[0]) & (a[..., 0] <= self.hi[0])
        for i in range(1, self.dim):
            ok &= (a[..., i] >= self.lo[i]) & (a[..., i] <= self.hi[i])
        return ok

    def clamp(self, a):
        return np.clip(np.asarray(a, dtype=float), self.lo, self.hi)

    def sample(self, count, rng):
        """``count`` uniform points of the box: the bits and the generator
        state of ``rng.uniform(lo, hi, (count, dim))``, which forms the same
        lo + (hi - lo) * u through a broadcast over the short last axis that
        costs several times more than these column passes."""
        count = check_count(count, "sample count must be a positive integer")
        out = rng.random((count, self.dim))
        for col, lo, width in zip(out.T, self.lo, self.hi - self.lo):
            col *= width
            col += lo
        return out


def check_base_points(a, dim):
    """a as a float array; DimensionMismatch unless its rows have ``dim``
    coordinates (a 0-d array has no rows)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise DimensionMismatch(f"expected base points of length {dim}, got {a.shape}")
    return a


def check_domain_dim(domain, base_dim):
    """DimensionMismatch unless the box ``domain`` has ``base_dim`` = m+n-1 axes."""
    if domain.dim != base_dim:
        raise DimensionMismatch(f"domain dimension {domain.dim} != m+n-1 = {base_dim}")


def _multilinear(values, domain):
    """The array call of a grid phi: the multilinear interpolant of
    ``values`` on the uniform node axes of ``domain`` at each point clamped
    to the box, with the bits of scipy's ``RegularGridInterpolator``
    (module docstring)."""
    shape = values.shape
    axes = [np.linspace(lo, hi, k) for lo, hi, k in zip(domain.lo, domain.hi, shape)]
    widths = [np.diff(axis) for axis in axes]
    # phi is constant along an axis of one node, which no corner reads
    live = [i for i, k in enumerate(shape) if k > 1]
    flat_axes = [i for i, k in enumerate(shape) if k == 1]
    flat = values.ravel()
    strides = [stride // values.itemsize for stride in values.strides]
    # per corner of a cell, its side on each live axis and its flat offset
    corner_offsets = [(corner, sum(strides[i] for i, bit in zip(live, corner) if bit))
                      for corner in itertools.product((0, 1), repeat=len(live))]

    def cell(pts, i):
        """Per clamped point, the cell of axis i that holds its coordinate
        (the last cell holds hi) and the coordinate's distance from the
        cell's left node as a fraction of the cell's width."""
        x = pts[:, i]
        # the interior nodes at or below x: scipy's index, clipped to the cells
        k = axes[i][1:-1].searchsorted(x, "right")
        return k, (x - axes[i][k]) / widths[i][k]

    def corners(pts):
        """The sum over the corners of each point's cell, in the order of
        ``itertools.product``, each value times the product of its weights
        taken axis by axis; the sum starts from the first term."""
        cells = [cell(pts, i) for i in live]
        # an index per point, also when no axis is live
        base = sum((k * strides[i] for i, (k, _) in zip(live, cells)),
                   np.zeros(len(pts), dtype=np.intp))
        out = None
        for corner, offset in corner_offsets:
            weight = 1.0
            for bit, (_, y) in zip(corner, cells):
                weight = weight * (y if bit else 1 - y)
            term = flat[base + offset] * weight
            if out is None:
                out = term
            else:
                out += term
        return out

    if values.ndim == 2 and not flat_axes:
        def interpolate(pts):
            """scipy's ``evaluate_linear_2d``: one left-to-right sum of four
            terms, each value times its two weights in turn."""
            k0, y0 = cell(pts, 0)
            k1, y1 = cell(pts, 1)
            k = k0 * shape[1] + k1
            a0, a1 = 1 - y0, 1 - y1
            out = flat[k] * a0 * a1
            out += flat[k + 1] * a0 * y1
            k += shape[1]
            out += flat[k] * y0 * a1
            out += flat[k + 1] * y0 * y1
            # scipy's sum starts from +0.0, so that four -0.0 terms give +0.0
            out += 0.0
            return out
    elif values.ndim == 2:
        # scipy's two-axis path along the axis of more nodes, if any, with
        # no +0.0 in front
        interpolate = corners
    else:
        def interpolate(pts):
            # scipy's general path sums from +0.0
            out = corners(pts)
            out += 0.0
            return out

    def evaluate(a):
        a = np.asarray(a, dtype=float)
        pts = domain.clamp(a.reshape(-1, domain.dim))
        out = interpolate(pts)
        if flat_axes:
            # no corner reads a coordinate on a one-node axis; scipy gives
            # NaN wherever one is NaN
            out[np.isnan(pts[:, flat_axes]).any(axis=1)] = np.nan
        return out.reshape(a.shape[:-1])

    return evaluate


class GraphFunction:
    """Scalar function on a box, with optional analytic partials.

    Calling the object evaluates with a domain check (raises
    :class:`OutOfDomain`); ``eval_extended`` evaluates everywhere
    (expressions/callables directly, grids by clamped interpolation), which
    the mollification pipeline relies on.  The mask ``inside`` narrows the
    domain below the box; ``fills_box`` says there is none.  ``one_point``
    is the one-point call (module docstring), unchecked like
    ``eval_extended``.
    """

    def __init__(self, domain, fn, partials=None, one_point=None, inside=None):
        self.domain = domain if isinstance(domain, Box) else Box(*domain)
        self._fn = fn
        self._partials = partials
        if one_point is None:
            def one_point(coords):
                return float(fn(np.array(coords, dtype=float)))
        self.one_point = one_point
        self._inside = inside
        self.fills_box = inside is None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_expression(cls, expr, domain, m, n):
        """Closed-form phi over ``domain``, from a string or a number.

        Parsing and compilation are memoised by ``(expr, m, n)`` in a
        bounded per-process cache; each call still returns a fresh object
        with its own domain.
        """
        if isinstance(expr, bool) or not isinstance(expr, (str, int, float)):
            raise ValidationError(
                f"expression must be a string or a number, got {type(expr).__name__}")
        # a number as its repr, which keeps every bit (and -0.0 apart from 0.0)
        evaluate, partials, point = _compile_expression(str(expr), m, n)
        obj = cls(domain, evaluate, partials=partials, one_point=point)
        check_domain_dim(obj.domain, m + n - 1)
        return obj

    @classmethod
    def from_grid(cls, values, domain):
        """phi sampled at the uniform nodes of ``domain``, ``values.shape[i]``
        nodes on axis i, with the clamped multilinear extension (module
        docstring); an axis of one node makes phi constant along it."""
        domain = domain if isinstance(domain, Box) else Box(*domain)
        # a C-ordered copy, which the flat corner indices of the interpolant read
        values = np.array(values, dtype=float)
        if values.ndim != domain.dim:
            raise DimensionMismatch(
                f"grid has {values.ndim} axes but domain is {domain.dim}-dimensional")
        if values.size == 0:
            raise ValidationError(f"every grid axis needs at least one node, "
                                  f"got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("grid values must be finite")
        return cls(domain, _multilinear(values, domain))

    @classmethod
    def from_callable(cls, fn, domain):
        return cls(domain, fn)

    @classmethod
    def constant(cls, value, domain):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not math.isfinite(value):
            raise ValidationError(f"a constant phi needs a finite number, got {value!r}")
        domain = domain if isinstance(domain, Box) else Box(*domain)
        return cls.from_expression(float(value), domain, domain.dim + 1, 0)

    # -- evaluation -------------------------------------------------------------

    def in_domain(self, a):
        a = check_base_points(a, self.domain.dim)
        ok = self.domain.contains(a)
        return ok if self.fills_box else ok & self._inside(a)

    def __call__(self, a):
        a = check_base_points(a, self.domain.dim)
        ok = self.in_domain(a)
        if not np.all(ok):
            bad = a.reshape(-1, a.shape[-1])[~np.atleast_1d(ok).reshape(-1)][0]
            raise OutOfDomain(f"point outside domain: {bad}")
        return self._fn(a)

    def eval_extended(self, a):
        """Evaluate without the domain check (grids are clamped)."""
        return self._fn(check_base_points(a, self.domain.dim))

    @property
    def has_partials(self):
        return self._partials is not None

    def partials(self, a):
        if self._partials is None:
            raise ValidationError("graph function has no analytic partials")
        return self._partials(check_base_points(a, self.domain.dim))


class VectorField:
    """w = (w_2, ..., w_m): componentwise graph functions on a shared box."""

    def __init__(self, components):
        comps = list(components)
        if not comps:
            raise ValidationError("vector field needs at least one component")
        self.components = comps
        self.domain = comps[0].domain

    @classmethod
    def constant(cls, values, domain):
        return cls([GraphFunction.constant(v, domain) for v in np.atleast_1d(values)])

    def __call__(self, a):
        return np.stack([c.eval_extended(a) for c in self.components], axis=-1)


# -- JSON interface --------------------------------------------------------------

def _domain_from_dict(data):
    try:
        lo, hi = data["lo"], data["hi"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"function spec missing domain field: {exc}") from exc
    return Box(lo, hi)


def graph_function_from_dict(data, G, base_dir="."):
    """Build phi from {"kind":"expr"|"grid", "domain":{...}, "expr"|"grid":...}."""
    if not isinstance(data, dict):
        raise ValidationError(f"a function spec is an object, got {data!r}")
    kind = data.get("kind")
    domain = _domain_from_dict(data.get("domain", {}))
    check_domain_dim(domain, G.base_dim)
    if kind == "expr":
        if "expr" not in data:
            raise ValidationError("expression spec missing 'expr' field")
        return GraphFunction.from_expression(data["expr"], domain, G.m, G.n)
    if kind == "grid":
        spec = data.get("grid")
        if not (isinstance(spec, dict) and "shape" in spec
                and isinstance(spec.get("values"), str)):
            raise ValidationError("grid spec needs 'shape' and 'values' fields, "
                                  "'values' a file name")
        shape = spec["shape"]
        if not (isinstance(shape, list) and all(
                isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in shape)):
            raise ValidationError(f"grid shape must be a list of integers >= 1, "
                                  f"got {shape!r}")
        path = spec["values"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            values = np.loadtxt(path, delimiter=",")
        except ValueError as exc:
            raise ValidationError(f"grid values in {path} must be numbers: {exc}") from None
        try:
            values = values.reshape(shape)
        except ValueError:
            raise DimensionMismatch(f"{values.size} grid values in {path} do not "
                                    f"fill the shape {shape!r}") from None
        return GraphFunction.from_grid(values, domain)
    raise ValidationError(f"unknown function kind {kind!r}")


def load_graph_function(path, G):
    with open(path) as fh:
        data = json.load(fh)
    return graph_function_from_dict(data, G, base_dir=os.path.dirname(path) or ".")


def vector_field_from_dict(data, G, base_dir="."):
    """Accept a single scalar spec (m == 2) or {"components": [spec, ...]}."""
    if isinstance(data, dict) and "components" in data:
        if not isinstance(data["components"], list):
            raise ValidationError("'components' must be a list of function specs")
        comps = [graph_function_from_dict(c, G, base_dir) for c in data["components"]]
        if len(comps) != G.m - 1:
            raise DimensionMismatch(
                f"need m-1 = {G.m - 1} components, got {len(comps)}")
        return VectorField(comps)
    if G.m != 2:
        raise DimensionMismatch("scalar w spec is only valid when m == 2")
    return VectorField([graph_function_from_dict(data, G, base_dir)])


def load_vector_field(path, G):
    with open(path) as fh:
        data = json.load(fh)
    return vector_field_from_dict(data, G, base_dir=os.path.dirname(path) or ".")
