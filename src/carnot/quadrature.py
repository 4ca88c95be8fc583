"""Uniform tensor-product quadrature grids (composite midpoint rule).

The midpoint rule is order 2, has positive weights, and its nodes never touch
box boundaries, which keeps integrands with boundary singularities usable.
Every midpoint weight in the package comes from :func:`midpoint_rule` (or
:func:`midpoint_axes`, its weight and axes before the nodes are built), so
that refinement studies are comparable across modules, and every tensor grid
of sample points is built by :func:`tensor_grid`, which joins the per-axis
nodes of :func:`grid_axes` with :func:`grid_from_axes`; a caller that needs
only a sub-box of a grid (the distributional residual, on a test function's
support) slices those axes and joins them the same way.  Only curve
integrals (``characteristics.broadstar_residual``) use composite Simpson
instead.
One work budget, :func:`check_work_budget`, caps grid nodes and every other
count that sizes an array (sampled pairs, cone samples, RK4 rows).  The
other argument checks that several modules share live here too:
:func:`check_count`, :func:`check_positive` and :func:`seeded_rng` make a
count, a positive scalar or a seed that is not one a ValidationError.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import GridTooLarge, ValidationError

# Largest count of points any one array may be built for: tensor grid
# nodes, sampled pairs, cone samples and RK4 rows.  Larger counts are
# rejected before anything is allocated.  The default grids stay well below
# it (the finest area grid on a 4-D base has 32^4 ~ 1.05M nodes), and a
# free_step2(3) kernel at 16 points per axis (16.7M nodes) is rejected.
MAX_GRID_NODES = 2 ** 23


def check_work_budget(count, what, unit):
    """Raise :class:`GridTooLarge` when ``what`` needs more than
    MAX_GRID_NODES ``unit``; call it before allocating them."""
    if count > MAX_GRID_NODES:
        raise GridTooLarge(f"{what} of {count} {unit} exceeds the budget "
                           f"of {MAX_GRID_NODES} {unit}")


def check_count(count, rule):
    """``count`` as an int; :class:`ValidationError` stating ``rule`` unless
    it is a positive integer (a bool is not)."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
        raise ValidationError(f"{rule}, got {count!r}")
    return int(count)


def check_positive(value, rule):
    """``value`` as a float; :class:`ValidationError` stating ``rule`` unless
    it is a positive finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{rule}, got {value!r}")
    return float(value)


def seeded_rng(seed):
    """``np.random.default_rng(seed)``; a seed it refuses is a ValidationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}") from None


def tensor_grid(lo, hi, shape, nodes="midpoint"):
    """All nodes of a tensor grid on the box [lo, hi] as an (N, d) array
    (C order): :func:`grid_from_axes` of :func:`grid_axes`."""
    return grid_from_axes(grid_axes(lo, hi, shape, nodes))


def grid_axes(lo, hi, shape, nodes="midpoint"):
    """The node coordinates of :func:`tensor_grid` on each axis, one 1-D
    array per axis; the counts and the work budget of the whole grid are
    checked first.

    ``"midpoint"`` places cell centres lo + h (k + 1/2), h = (hi - lo) / count;
    ``"endpoint"`` places ``np.linspace(lo, hi, count)`` (just lo for a count
    of 1).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    shape = tuple(check_count(k, "shape must give a positive count per axis")
                  for k in shape)
    check_work_budget(math.prod(shape), "tensor grid", "nodes")
    if nodes == "midpoint":
        h = (hi - lo) / np.asarray(shape, dtype=float)
        return [lo[i] + h[i] * (np.arange(k) + 0.5) for i, k in enumerate(shape)]
    if nodes == "endpoint":
        return [np.linspace(lo[i], hi[i], k) for i, k in enumerate(shape)]
    raise ValidationError(f"unknown node placement {nodes!r}")


def grid_from_axes(axes):
    """The (N, d) nodes (C order) of the tensor product of d 1-D axes, each
    broadcast straight into its column: one pass over the nodes."""
    d = len(axes)
    out = np.empty(tuple(len(axis) for axis in axes) + (d,))
    for i, axis in enumerate(axes):
        out[..., i] = axis.reshape((-1,) + (1,) * (d - 1 - i))
    return out.reshape(-1, d)


def default_points_per_axis(dim, count=None):
    """``count`` when it is not None, else by dimension: 64 per axis in 1-2 D,
    24 in 3 D, 8 beyond (cost grows as N^dim)."""
    if count is not None:
        return count
    return 64 if dim <= 2 else 24 if dim == 3 else 8


def midpoint_rule(lo, hi, per_axis):
    """Composite midpoint rule on the box [lo, hi] with ``per_axis`` cells
    on every axis, a positive integer: the (N, d) nodes of
    :func:`tensor_grid` and the volume of one cell, the weight of each node."""
    axes, cell = midpoint_axes(lo, hi, per_axis)
    return grid_from_axes(axes), cell


def midpoint_axes(lo, hi, per_axis):
    """:func:`midpoint_rule` before its nodes are built: the
    :func:`grid_axes` of its grid and the volume of one cell."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    axes = grid_axes(lo, hi, (per_axis,) * lo.size)
    return axes, float(np.prod((hi - lo) / per_axis))


def richardson_order(coarse, mid, fine):
    """Observed convergence order from three successively halved-step values."""
    d1 = abs(coarse - mid)
    d2 = abs(mid - fine)
    if d2 == 0:
        return np.inf
    return float(np.log2(d1 / d2))
