"""The graph area integral.

The subgraph E collects the points strictly below the graph in the graph
coordinate.  Its inward unit normal along the graph is
(-1, w) / sqrt(1 + |w|^2) with w the intrinsic gradient; the normal is a
bijection of w, so the package computes w alone.  The surface content of
the graph over the base domain is int sqrt(1 + |w|^2).  The group constants
relating this integral to the perimeter and to spherical Hausdorff measure
are never computed; all outputs are normalized to the area integral itself.
"""

from __future__ import annotations

import numpy as np

from .calculus import _intrinsic_gradient, intrinsic_gradient
from .errors import NonFiniteState
from .functions import check_domain_dim
from .group import _sum_of_squares
from .quadrature import (
    check_work_budget,
    default_points_per_axis,
    midpoint_rule,
    richardson_order,
)

# grid nodes per integrand evaluation in area_integral
_POINT_CHUNK = 2 ** 14


def area_integral(G, phi, points_per_axis=None):
    """Quadrature of sqrt(1 + |w|^2) over the base domain, with w the
    intrinsic gradient of phi (analytic partials or central differences),
    on ``points_per_axis`` midpoint nodes per axis (default by dimension).
    The value equals the graph perimeter up to an uncomputed group constant;
    a NaN or infinite integrand is a NonFiniteState error.  The integrand
    is evaluated on chunks of nodes into one array, so its temporaries stay
    small on any grid and the sum is unchanged.

    Midpoint nodes lie inside the box (within the work budget, rounding
    cannot push lo + h (k + 1/2) past hi), so when phi's domain is its whole
    box the nodes skip the domain test; a phi without partials still has
    its difference stencil checked against the domain.
    """
    box = phi.domain
    check_domain_dim(box, G.base_dim)
    pts, cell = midpoint_rule(box.lo, box.hi,
                              default_points_per_axis(box.dim, points_per_axis))
    values = np.empty(len(pts))
    for start in range(0, len(pts), _POINT_CHUNK):
        chunk = pts[start:start + _POINT_CHUNK]
        if phi.fills_box:
            w_vals = _intrinsic_gradient(G, phi, chunk, phi.eval_extended(chunk),
                                         check_domain=True)
        else:
            w_vals = intrinsic_gradient(G, phi, chunk)
        values[start:start + _POINT_CHUNK] = np.sqrt(1.0 + _sum_of_squares(w_vals))
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("the area integrand is not finite at a grid node")
    return float(np.sum(values) * cell)


def area_report(G, phi, points_per_axis=None):
    """Area integral on k, 2k and 4k points per axis plus the observed
    convergence order of the three values (k defaults by dimension).  The
    finest grid is checked against the work budget before any integral."""
    dim = phi.domain.dim
    k = default_points_per_axis(dim, points_per_axis)
    grids = [k * 2 ** i for i in range(3)]
    check_work_budget(grids[-1] ** dim, "tensor grid", "nodes")
    values = [area_integral(G, phi, points_per_axis=g) for g in grids]
    order = richardson_order(*values)
    if not np.isfinite(order):
        order = None        # differences at rounding floor: order undefined
    return {
        "area_integral": values[-1],
        "values": values,
        "grids": grids,
        "estimated_order": order,
    }
