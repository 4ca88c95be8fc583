"""Scalar functions on a box in R^(m+n-1): the graph data.

A ``GraphFunction`` is either a closed-form expression (parsed with sympy,
evaluated through lambdify, with analytic partials), a sampled grid with
multilinear interpolation, or an opaque callable.  An optional mask narrows
its domain below its box (a translated phi).  Coordinates on the base are
named x2..xm, y1..yn; when n == 1 the alias ``y`` is accepted.

Each has a one-point call on a list of floats, which the RK4 stages of a
characteristic use.  For a grid or a callable it is the array function on
that one point; an expression's runs the compiled expression on the floats
themselves, not on 0-d arrays.  The latter gives the bits of the array call
because every operation is then either one IEEE float operation, which
Python and numpy round alike, or a numpy function called on a scalar.
Python's ``float ** e`` is libm ``pow``, which differs from numpy's power
in the last bit on a few percent of values, so the compiled code prints
every power as ``numpy.power(b, e)`` (the square roots sympy prints as
``numpy.sqrt``).  A Python float divided by zero raises where numpy gives
inf or nan; the one-point call then evaluates that point through the array
call.

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

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfDomain, ValidationError
from .quadrature import check_count


def base_coordinate_names(m, n):
    return [f"x{j}" for j in range(2, m + 1)] + [f"y{s}" for s in range(1, n + 1)]


# the sympy functions and constants an expression may use besides +, -, *, /
# and ** ("abs" is an alias of Abs); any other sympy name (gamma, Heaviside,
# Integral, I, zoo, nan, ...) is a ValidationError when the expression is
# compiled (``_unsupported``)
_ALLOWED_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt", "Abs", "tanh", "pi", "E")


@functools.cache
def _power_printer():
    """sympy's numpy printer with each power it would print as ``b**e``
    printed as ``numpy.power(b, e)`` (module docstring); on arrays the two
    give the same bits."""
    from sympy import S
    from sympy.printing.numpy import NumPyPrinter

    class PowerPrinter(NumPyPrinter):
        def _hprint_Pow(self, expr, rational=False, sqrt="numpy.sqrt"):
            if not rational and expr.is_commutative and expr.exp in (S.Half, -S.Half):
                return super()._hprint_Pow(expr, rational, sqrt)
            return (f"{self._module_format('numpy.power')}"
                    f"({self._print(expr.base)}, {self._print(expr.exp)})")

    return PowerPrinter


def _unsupported(tree):
    """Why the compiled code cannot evaluate a sympy tree on real floats
    (a phrase), or None: every node must be a symbol, +, * or **, a name of
    ``_ALLOWED_FUNCS`` or a number the compiled code reads as a finite float.
    It reads a rational p/q as Python's int division (p alone for an
    integer), an OverflowError beyond the float range, and a float literal
    as Python does, inf beyond it, which sympy keeps finite."""
    import sympy as sp

    allowed = {getattr(sp, name) for name in _ALLOWED_FUNCS}
    for node in sp.preorder_traversal(tree):
        if isinstance(node, (sp.Symbol, sp.Add, sp.Mul, sp.Pow)) \
                or node in allowed or node.func in allowed:
            continue
        if isinstance(node, (sp.Rational, sp.Float)):
            try:
                value = node.p / node.q if isinstance(node, sp.Rational) else float(node)
            except OverflowError:
                value = math.inf
            if math.isfinite(value):
                continue
            return "has a constant too large for a float"
        if node.is_Atom and node.is_number and not node.is_real:
            return f"has the constant {node}, which is not a finite real number"
        return f"uses {node.func.__name__}, which is not one of {', '.join(_ALLOWED_FUNCS)}"
    return None


@functools.lru_cache(maxsize=256)
def _compile_expression(expr, m, n):
    """(evaluate, partials, point) for an expression over the base of
    G(m, n): the array call, the array partials (None when a derivative
    fails the check of ``_unsupported``, as Abs's does) and the one-point
    call on a list of floats (module docstring).  sympy is imported here, so
    only a process that compiles an expression loads it."""
    import sympy as sp

    names = base_coordinate_names(m, n)
    syms = sp.symbols(names)
    local = dict(zip(names, syms))
    if n == 1:
        local["y"] = local["y1"]
    local.update({name: getattr(sp, name) for name in _ALLOWED_FUNCS})
    local["abs"] = sp.Abs
    try:
        tree = sp.sympify(expr, locals=local)
    except (sp.SympifyError, SyntaxError, TypeError) as exc:
        raise ValidationError(f"cannot parse expression {expr!r}: {exc}") from exc
    if not isinstance(tree, sp.Expr):
        raise ValidationError(f"expression {expr!r} is not a scalar expression")
    extra = tree.free_symbols - set(syms)
    if extra:
        raise ValidationError(
            f"expression {expr!r} uses unknown symbols {sorted(map(str, extra))}")
    problem = _unsupported(tree)
    if problem:
        raise ValidationError(f"expression {expr!r} {problem}")
    # the settings lambdify gives its own printer
    printer = _power_printer()({"fully_qualified_modules": False, "inline": True,
                                "allow_unknown_functions": True, "user_functions": {}})
    f = sp.lambdify(syms, tree, modules="numpy", printer=printer)
    diffs = [sp.diff(tree, s) for s in syms]
    # derivatives that cannot be compiled fall back to central differences
    grad = (None if any(map(_unsupported, diffs)) else
            sp.lambdify(syms, diffs, modules="numpy", printer=printer))

    columns = [(..., i) for i in range(len(names))]

    def evaluate(a):
        a = np.asarray(a, dtype=float)
        out = np.asarray(f(*[a[c] for c in columns]), dtype=float)
        # copy only a scalar or broadcast result, or a view, which may alias
        # the input ("x2" returns its own column); any other is already fresh
        if out.shape != a.shape[:-1]:
            out = np.broadcast_to(out, a.shape[:-1]).copy()
        elif out.base is not None:
            out = out.copy()
        return out

    def point(coords):
        try:
            return float(f(*coords))
        except ZeroDivisionError:
            # a Python float divided by zero, where numpy returns inf or nan
            return float(evaluate(coords))

    partials = None
    if grad is not None:
        def partials(a):
            a = np.asarray(a, dtype=float)
            cols = [a[..., i] for i in range(a.shape[-1])]
            outs = [np.broadcast_to(np.asarray(g, dtype=float), a.shape[:-1])
                    for g in grad(*cols)]
            return np.stack(outs, axis=-1)

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
        bounded per-process cache, so a loop that rebuilds the same
        expression pays for sympy once; each call still returns a fresh
        object with its own domain.
        """
        if isinstance(expr, bool) or not isinstance(expr, (str, int, float)):
            raise ValidationError(
                f"expression must be a string or a number, got {type(expr).__name__}")
        evaluate, partials, point = _compile_expression(expr, m, n)
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
        value = float(value)

        def evaluate(a):
            return np.full(np.asarray(a).shape[:-1], value)

        def partials(a):
            a = np.asarray(a, dtype=float)
            return np.zeros(a.shape)

        return cls(domain, evaluate, partials=partials)

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
