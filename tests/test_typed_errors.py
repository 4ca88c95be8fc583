"""One table of raise paths that the rest of the suite does not reach, each
through a public call: the library cases expect their typed error, the CLI
cases (a group, phi, w or suite file that is not JSON, a suite scenario of
the wrong shape) exit 1 from ``cli.run``."""

import json
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from carnot import cli, errors
from carnot.area import area_integral
from carnot.calculus import (
    TestFunction,
    distributional_residual,
    frozen_coefficients,
    gradient_from_defining_function,
    intrinsic_derivative,
    intrinsic_gradient,
)
from carnot.characteristics import (
    broadstar_residual,
    conservation_residual,
    flux_values,
    integrate_characteristic,
    lipschitz_along_curve,
    phi_along_curve_lipschitz_vs_intrinsic,
)
from carnot.cones import (
    beta_for_k,
    check_cone_containment,
    construct_eta_m2n1,
    sample_cone_points_m2n1,
)
from carnot.functions import (
    Box,
    GraphFunction,
    VectorField,
    graph_function_from_dict,
    vector_field_from_dict,
)
from carnot.group import (
    dilate,
    distance,
    homogeneous_norm,
    inverse,
    make_group,
    multiply,
    standard_group,
)
from carnot.mollify import (
    MollifierKernel,
    approximation_report,
    horizontal_gradient_mass,
    horizontal_gradient_mollified,
    intrinsic_gradient_of_level_set,
    level_set_phi_alpha,
    mollified_indicator,
)
from carnot.quadrature import MAX_GRID_NODES, tensor_grid
from carnot.splitting import (
    Cone,
    cone_membership,
    estimate_intrinsic_lipschitz,
    graph_map,
    graph_quasidistance,
    project_splitting,
    sigma_form,
    translate_graph_function,
    vertical_holder_modulus,
)

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
GROUP = os.path.join(DATA, "heisenberg1.json")
PHI = os.path.join(DATA, "phi_linear.json")
UNIT = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}


# the matrix B of heisenberg(1)
G_H1_B = [[[0.0, 1.0], [-1.0, 0.0]]]


def _phi():
    return GraphFunction.from_expression("x2", Box(**UNIT), 2, 1)


def _phi_h2():
    return GraphFunction.from_expression("x2", Box([0.0] * 4, [1.0] * 4), 4, 1)


def _cli(argv, text="{not json"):
    """Run ``argv`` with the placeholder BAD replaced by a file holding
    ``text``, by default not JSON; the exit code."""
    def call(G, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        return cli.run([str(bad) if a == "BAD" else a for a in argv])[0]
    return call


def _suite(scenario):
    """A suite file of the one ``scenario``, through ``cli.run``."""
    return _cli(["suite", "BAD"], json.dumps({"scenarios": [scenario]}))


def _pole_crossing(G, tmp):
    # the RK4 stages step x2 onto the pole of phi at x2 = 0.5 mid-curve, in
    # a box tall enough that y stays inside until then; the division by
    # zero is silenced so that the typed error is what is seen
    phi = GraphFunction.from_expression("1/(x2 - 0.5)", Box([0.0, -1e3], [1.0, 1e3]),
                                        2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrate_characteristic(G, phi, 2, np.array([0.25, 0.5]), 0.5, 8)


# points and base points of heisenberg(1) with a NaN or infinite coordinate
_BAD_POINTS = (("nan", [0.1, 0.2, np.nan]), ("inf", [0.1, 0.2, np.inf]),
               ("inf-x1", [np.inf, 0.2, 0.3]))
_BAD_BASE_POINTS = (("nan", [0.5, np.nan]), ("inf", [0.5, np.inf]))


def _curve(G):
    return integrate_characteristic(G, _phi(), 2, np.full(2, 0.5), 0.25, 8)


def _nan_w(a):
    return np.full(np.shape(a)[:-1], np.nan)


def _mass_on_pole(G, tmp):
    # phi is infinite at the one base node, x2 = 0.5, and finite at every
    # kernel node around it; the mass was NaN, with no error.  The division
    # by zero is silenced so that the typed error is what is seen
    phi = GraphFunction.from_expression("1/(x2 - 0.5)", Box(**UNIT), 2, 1)
    with np.errstate(divide="ignore"):
        horizontal_gradient_mass(G, phi, MollifierKernel(G, 0.1, points_per_axis=4),
                                 base_per_axis=1)


def _residual_on_nan_phi(G, tmp):
    # phi = sqrt(x2 - 0.8) is NaN on the whole support 0.1 < x2 < 0.5; the
    # invalid square root is silenced so that the typed error is what is seen
    phi = GraphFunction.from_expression("sqrt(x2 - 0.8)", Box(**UNIT), 2, 1)
    with np.errstate(invalid="ignore"):
        distributional_residual(G, phi, VectorField.constant([1.0], Box(**UNIT)),
                                TestFunction([0.3, 0.5], 0.2), 64)


def _area_of_overflow(G, tmp):
    # exp(1000 x2) overflows on most of the box and its gradient is NaN
    # there; the overflow is silenced so that the typed error is what is seen
    phi = GraphFunction.from_expression("exp(1000*x2)", Box(**UNIT), 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        area_integral(G, phi, points_per_axis=8)


def _level_set_over_budget(G, tmp):
    # one base point more than the budget allows in the level set's ramp
    # table, which must be refused before any of it is split
    kernel = MollifierKernel(G, 0.1, points_per_axis=4)
    A = np.full((MAX_GRID_NODES // kernel._conv_weights.size + 1, 2), 0.5)
    with mock.patch("carnot.mollify._split") as split:
        try:
            level_set_phi_alpha(G, _phi(), kernel, 0.5, A)
        finally:
            assert split.call_count == 0


def _kernel_under_error_warnings(G, alpha):
    # numpy's floating-point warnings raised, as under python -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        MollifierKernel(G, alpha, points_per_axis=4)


def _on_log_phi(expr, call):
    """``call(G, phi)`` for phi = ``expr``, a logarithm that is NaN on part
    of the unit box; the invalid logarithm and its pole are silenced so that
    the typed error is what is seen."""
    def run(G, tmp):
        phi = GraphFunction.from_expression(expr, Box(**UNIT), 2, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            call(G, phi)
    return run


def _ones(a):
    return np.ones(np.shape(a)[:-1])


def _grid_of_words(G, tmp):
    values = tmp / "values.csv"
    values.write_text("a,b\nc,d\n")
    graph_function_from_dict({"kind": "grid", "domain": UNIT,
                              "grid": {"shape": [2, 2], "values": str(values)}}, G)


def _grid_of_shape(shape, values):
    """A grid spec of ``shape`` over a CSV file of ``values``."""
    def call(G, tmp):
        csv = tmp / "values.csv"
        csv.write_text(",".join(map(str, values)))
        return graph_function_from_dict({"kind": "grid", "domain": UNIT,
                                         "grid": {"shape": shape, "values": str(csv)}}, G)
    return call


def _cli_grid_of_no_nodes(G, tmp):
    # `carnot gradient` on a grid of shape [0, 2] over an empty CSV file
    (tmp / "empty.csv").write_text("")
    return _cli(["gradient", "--group", GROUP, "--phi", "BAD", "--at", "0.5,0.5"],
                json.dumps({"kind": "grid", "domain": UNIT,
                            "grid": {"shape": [0, 2], "values": "empty.csv"}}))(G, tmp)


CASES = [
    ("grid-axes", errors.DimensionMismatch, "grid has 3 axes",
     lambda G, tmp: GraphFunction.from_grid(np.zeros((3, 3, 3)), Box(**UNIT))),
    ("point-length", errors.DimensionMismatch, "base points of length 2",
     lambda G, tmp: _phi()(np.zeros(3))),
    ("expr-spec-without-expr", errors.ValidationError, "missing 'expr'",
     lambda G, tmp: graph_function_from_dict({"kind": "expr", "domain": UNIT}, G)),
    ("grid-spec-without-values", errors.ValidationError, "needs 'shape' and 'values'",
     lambda G, tmp: graph_function_from_dict(
         {"kind": "grid", "domain": UNIT, "grid": {"shape": [2, 2]}}, G)),
    ("w-component-count", errors.DimensionMismatch, "need m-1 = 1 components",
     lambda G, tmp: vector_field_from_dict(
         {"components": [{"kind": "expr", "domain": UNIT, "expr": "1"}] * 2}, G)),
    ("group-m-below-2", errors.ValidationError, "need m >= 2",
     lambda G, tmp: make_group(1, 1, np.zeros((1, 1, 1)))),
    ("group-matrix-shape", errors.DimensionMismatch, "matrices of shape",
     lambda G, tmp: make_group(2, 1, np.zeros((1, 3, 3)))),
    # int() built m = 2 from 2.5, and "a" and B = "ab" raised ValueErrors
    *[(f"group-{name}", errors.ValidationError, message,
       lambda G, tmp, args=args: make_group(*args))
      for name, message, args in (
          ("m-float", "'m' and 'n' must be integers", (2.5, 1, G_H1_B)),
          ("m-string", "'m' and 'n' must be integers", ("a", 1, G_H1_B)),
          ("b-string", "B must be 1 arrays of 2 x 2 numbers", (2, 1, "ab")))],
    # 29.1 TiB of B was an untyped MemoryError
    ("heisenberg-matrices-budget", errors.GridTooLarge, "the matrices B of 4000000000000",
     lambda G, tmp: standard_group("heisenberg", 10 ** 6)),
    ("heisenberg-index", errors.UnknownName, "heisenberg index",
     lambda G, tmp: standard_group("heisenberg", 0)),
    ("quasidistance-point-length", errors.DimensionMismatch, "base points of length 2",
     lambda G, tmp: graph_quasidistance(G, _phi(), np.zeros(2), np.zeros(3))),
    ("quasidistance-outside", errors.OutOfDomain, "quasi-distance arguments",
     lambda G, tmp: graph_quasidistance(G, _phi(), np.full(2, 5.0), np.zeros(2))),
    ("rk4-steps", errors.ValidationError, "at least 8 RK4 steps",
     lambda G, tmp: integrate_characteristic(G, _phi(), 2, np.full(2, 0.5), 1.0, 4)),
    ("rk4-start-length", errors.ValidationError, "start point must have length",
     lambda G, tmp: integrate_characteristic(G, _phi(), 2, np.full(3, 0.5), 1.0, 8)),
    ("cone-epsilon", errors.ValidationError, "epsilon must lie",
     lambda G, tmp: beta_for_k(0.5, epsilon=2.0)),
    ("parallelogram-group", errors.ValidationError, "requires m=2, n=1",
     lambda G, tmp: construct_eta_m2n1(standard_group("heisenberg", 2, epsilon=1.0),
                                       np.zeros(5), 0.5)),
    ("cone-opening", errors.ValidationError, "opening must be positive",
     lambda G, tmp: check_cone_containment(G, _phi(), 0.0)),
    ("grid-nodes", errors.ValidationError, "unknown node placement",
     lambda G, tmp: tensor_grid([0.0], [1.0], (2,), nodes="gauss")),
    ("cli-group-not-json", 1, "invalid input file", _cli(["group", "validate", "BAD"])),
    ("cli-phi-not-json", 1, "invalid input file",
     _cli(["gradient", "--group", GROUP, "--phi", "BAD", "--at", "0.5,0.5"])),
    ("cli-w-not-json", 1, "invalid input file",
     _cli(["residual", "--group", GROUP, "--phi", PHI, "--w", "BAD",
           "--zeta", "0.5,0.5,0.4", "--grid", "8"])),
    ("cli-suite-not-json", 1, "invalid input file", _cli(["suite", "BAD"])),
    ("bump-radius", errors.ValidationError, "radius must be positive",
     lambda G, tmp: TestFunction(np.zeros(2), 0.0)),
    ("rk4-pole", errors.NonFiniteState, "became non-finite at step 3", _pole_crossing),
    ("cli-suite-without-command", 1, "suite scenario 0 needs a 'command' string",
     _suite({"name": "no command"})),
    ("cli-suite-args-not-strings", 1, "suite scenario 0: 'args' must be a list",
     _suite({"command": "group", "args": ["validate", 3]})),
    ("cone-b12", errors.ValidationError, "b12 must be positive",
     lambda G, tmp: beta_for_k(0.5, b12=0.0)),
    ("parallelogram-point", errors.ValidationError, "expected a point of R\\^3",
     lambda G, tmp: construct_eta_m2n1(G, np.zeros(2), 0.5)),
    ("cone-sampler-group", errors.ValidationError, "sampler requires m=2, n=1",
     lambda G, tmp: sample_cone_points_m2n1(standard_group("heisenberg", 2, epsilon=1.0),
                                            0.5, 3)),
    ("grid-not-finite", errors.ValidationError, "grid values must be finite",
     lambda G, tmp: GraphFunction.from_grid(np.full((2, 2), np.nan), Box(**UNIT))),
    ("no-partials", errors.ValidationError, "graph function has no analytic partials",
     lambda G, tmp: GraphFunction.from_callable(np.sin, Box(**UNIT)).partials(
         np.zeros(2))),
    ("empty-vector-field", errors.ValidationError, "at least one component",
     lambda G, tmp: VectorField([])),
    ("domain-without-hi", errors.ValidationError, "missing domain field",
     lambda G, tmp: graph_function_from_dict(
         {"kind": "expr", "domain": {"lo": [0.0, 0.0]}, "expr": "x2"}, G)),
    ("grid-values-not-numbers", errors.ValidationError, "must be numbers", _grid_of_words),
    # an axis of no nodes ended in an untyped IndexError, and a -1 in a
    # spec's shape was inferred from the count of values
    ("grid-axis-of-no-nodes", errors.ValidationError,
     "every grid axis needs at least one node",
     lambda G, tmp: GraphFunction.from_grid(np.zeros((0, 2)), Box(**UNIT))),
    ("grid-shape-inferred", errors.ValidationError,
     "grid shape must be a list of integers >= 1", _grid_of_shape([-1, 2], [0.5] * 4)),
    ("cli-grid-of-no-nodes", 1, "grid shape must be a list of integers >= 1",
     _cli_grid_of_no_nodes),
    ("free-step2-m", errors.UnknownName, "free_step2 needs m >= 2",
     lambda G, tmp: standard_group("free_step2", 1)),
    # a valid but steep bracket: at B = 1e13 B_heisenberg every eps down to
    # 2^-20 breaks the triangle inequality on the sampled pairs
    ("calibration-fails", errors.CalibrationFailed, "no epsilon on the dyadic grid",
     lambda G, tmp: make_group(2, 1, [[[0.0, 1e13], [-1e13, 0.0]]])),
    ("lipschitz-coinciding-pairs", errors.DegenerateSample, "all sampled pairs coincide",
     lambda G, tmp: estimate_intrinsic_lipschitz(
         G, GraphFunction.from_expression("x2", Box([0.0, 0.0], [1e-30, 1e-30]), 2, 1),
         pair_samples=10)),
    # counts that are not positive integers: named, not truncated or
    # left to an untyped error
    ("grid-count-float", errors.ValidationError, "positive count per axis, got 2.5",
     lambda G, tmp: tensor_grid([0.0], [1.0], (2.5,))),
    ("area-count-float", errors.ValidationError, "positive count per axis, got 2.5",
     lambda G, tmp: area_integral(G, _phi(), points_per_axis=2.5)),
    ("mass-count-float", errors.ValidationError, "positive count per axis, got 2.5",
     lambda G, tmp: horizontal_gradient_mass(
         G, _phi(), MollifierKernel(G, 0.2, points_per_axis=4), base_per_axis=2.5)),
    ("lipschitz-count-float", errors.ValidationError, "pair_samples must be a positive",
     lambda G, tmp: estimate_intrinsic_lipschitz(G, _phi(), 2.5)),
    ("lipschitz-count-bool", errors.ValidationError, "pair_samples must be a positive",
     lambda G, tmp: estimate_intrinsic_lipschitz(G, _phi(), True)),
    ("cone-count-float", errors.ValidationError, "samples must be a positive integer",
     lambda G, tmp: check_cone_containment(G, _phi(), 0.5, samples=2.5)),
    *[(f"rk4-steps-{steps}", errors.ValidationError, "RK4 steps must be a positive integer",
       lambda G, tmp, steps=steps: integrate_characteristic(G, _phi(), 2, np.full(2, 0.5),
                                                            1.0, steps))
      for steps in (100.0, 8.0, 100.5)],
    *[(f"kernel-count-{count}", errors.ValidationError,
       "points_per_axis must be a positive integer",
       lambda G, tmp, count=count: MollifierKernel(G, 0.1, points_per_axis=count))
      for count in (4.9, True)],
    ("report-kernel-count-float", errors.ValidationError,
     "points_per_axis must be a positive integer",
     lambda G, tmp: approximation_report(G, _phi(), [0.1], grid_per_axis=4,
                                         points_per_axis=6.5)),
    *[(f"holder-n-vertical-{k}", errors.ValidationError, "n_vertical must be an integer",
       lambda G, tmp, k=k: vertical_holder_modulus(_phi(), [0.5], grid_per_axis=5,
                                                   n_vertical=k))
      for k in (0, 3, 1.5)],
    # a NaN passes a sign test; each of these gave a count, a NaN or a
    # membership instead of an error (the right violation count here is 0)
    *[(f"cone-radius-{r}", errors.ValidationError, "radius must be positive",
       lambda G, tmp, r=r: check_cone_containment(G, _phi(), 0.5, samples=200, seed=1,
                                                  radius=r))
      for r in (np.nan, 0.0, -0.5, np.inf)],
    *[(f"cone-opening-{beta}", errors.ValidationError, "opening must be positive",
       lambda G, tmp, beta=beta: check_cone_containment(G, _phi(), beta, samples=200))
      for beta in (np.nan, np.inf)],
    ("cone-b12-nan", errors.ValidationError, "b12 must be positive",
     lambda G, tmp: beta_for_k(0.5, b12=np.nan)),
    ("bump-radius-nan", errors.ValidationError, "radius must be positive",
     lambda G, tmp: TestFunction(np.zeros(2), np.nan)),
    ("cone-beta-nan", errors.ValidationError, "cone opening beta must be >= 0",
     lambda G, tmp: Cone(np.zeros(3), np.nan)),
    *[(f"dilate-{lam}", errors.NonPositiveLambda, "dilation factor must be positive",
       lambda G, tmp, lam=lam: dilate(G, lam, np.ones(3)))
      for lam in (np.nan, np.inf)],
    # anchors and centres of the wrong length ended in an untyped reshape
    # or broadcast error; a NaN one gave False or 0 everywhere
    ("cone-vertex-length", errors.DimensionMismatch, "anchor of length 3",
     lambda G, tmp: cone_membership(G, Cone([0.0, 0.0], 0.5), np.zeros(3))),
    ("translation-length", errors.DimensionMismatch, "anchor of length 3",
     lambda G, tmp: translate_graph_function(G, _phi(), np.zeros(2))),
    ("cone-vertex-nan", errors.ValidationError, "cone vertex must be finite",
     lambda G, tmp: Cone([np.nan, 0.0, 0.0], 0.5)),
    ("bump-center-nan", errors.ValidationError, "center must be finite",
     lambda G, tmp: TestFunction([np.nan, 0.0], 0.5)),
    ("residual-center-length", errors.DimensionMismatch, "center must have length 2",
     lambda G, tmp: distributional_residual(
         G, _phi(), VectorField.constant([0.0], Box(**UNIT)),
         TestFunction([0.5, 0.5, 0.5], 0.2))),
    # a NaN or non-positive radius selected no lag and read as modulus 0
    *[(f"holder-radius-{r}", errors.ValidationError, "radii must be positive",
       lambda G, tmp, r=r: vertical_holder_modulus(_phi(), [r, 0.5], grid_per_axis=5))
      for r in (np.nan, 0.0, -1.0)],
    ("mass-phi-not-finite", errors.NonFiniteState, "not finite at a base node",
     _mass_on_pole),
    *[(f"cone-sampler-count-{count}", errors.ValidationError,
       "count must be a positive integer",
       lambda G, tmp, count=count: sample_cone_points_m2n1(G, 0.8, count))
      for count in (2.5, -1, True)],
    ("level-set-budget", errors.GridTooLarge, "the level-set ramp table",
     _level_set_over_budget),
    # a 0-d point, a float direction, a negative sample count and a base
    # point in place of a group point ended in an untyped error
    ("inverse-point-0d", errors.DimensionMismatch, "expected point of length 3",
     lambda G, tmp: inverse(G, 3.0)),
    ("derivative-direction-float", errors.ValidationError, "direction index j must be in",
     lambda G, tmp: intrinsic_derivative(G, _phi(), 2.0, np.full(2, 0.5))),
    ("box-sample-count", errors.ValidationError, "sample count must be a positive integer",
     lambda G, tmp: Box(**UNIT).sample(-1, np.random.default_rng(0))),
    *[(f"{name}-base-point", errors.DimensionMismatch, "expected point of length 3",
       lambda G, tmp, f=f: f(G, _phi(), MollifierKernel(G, 0.2, points_per_axis=4),
                             np.full(2, 0.5)))
      for name, f in (("indicator", mollified_indicator),
                      ("gradient", horizontal_gradient_mollified))],
    # each of these was accepted: a kernel whose alpha is a string or a bool,
    # heisenberg(1) and free_step2(2) from a fractional index, and a modulus
    # of 0 read off a grid with no pair
    *[(f"kernel-alpha-{kind}", errors.ValidationError, "alpha must be positive and finite",
       lambda G, tmp, alpha=alpha: MollifierKernel(G, alpha, points_per_axis=4))
      for kind, alpha in (("string", "0.1"), ("bool", True))],
    ("heisenberg-index-float", errors.ValidationError, "heisenberg index must be an integer",
     lambda G, tmp: standard_group("heisenberg", 1.5)),
    ("free-step2-m-float", errors.ValidationError, "free_step2 needs an integer m",
     lambda G, tmp: standard_group("free_step2", 2.5)),
    ("holder-grid-one", errors.ValidationError, "grid_per_axis must be an integer of at",
     lambda G, tmp: vertical_holder_modulus(_phi(), [0.5], grid_per_axis=1)),
    # a kernel built on heisenberg(1) and used on heisenberg(2), and a T, a
    # radius, an opening or a seed that is not one, ended in an untyped
    # error; a w with a component too many gave a one-entry residual
    *[(f"{name}-kernel-group", errors.ValidationError, "the kernel was built on",
       lambda G, tmp, call=call: call(standard_group("heisenberg", 2, epsilon=1.0),
                                      _phi_h2(), MollifierKernel(G, 0.2, points_per_axis=4)))
      for name, call in (
          ("indicator", lambda G, phi, k: mollified_indicator(G, phi, k, np.full(5, 0.5))),
          ("gradient",
           lambda G, phi, k: horizontal_gradient_mollified(G, phi, k, np.full(5, 0.5))),
          ("level-set", lambda G, phi, k: level_set_phi_alpha(G, phi, k, 0.5, np.full(4, 0.5))),
          ("gradient-mass",
           lambda G, phi, k: horizontal_gradient_mass(G, phi, k, base_per_axis=2)))],
    ("rk4-T-string", errors.ValidationError, "need a finite T > 0, got '1'",
     lambda G, tmp: integrate_characteristic(G, _phi(), 2, np.full(2, 0.5), "1", 8)),
    ("bump-radius-string", errors.ValidationError, "radius must be positive and finite",
     lambda G, tmp: TestFunction(np.full(2, 0.5), "0.2")),
    *[(f"cone-{name}-string", errors.ValidationError, message,
       lambda G, tmp, kwargs=kwargs: check_cone_containment(G, _phi(), samples=10,
                                                            **kwargs))
      for name, message, kwargs in (
          ("opening", "cone opening must be positive", {"beta": "0.5"}),
          ("radius", "radius must be positive", {"beta": 0.5, "radius": "0.5"}),
          ("seed", "seed must be a non-negative integer", {"beta": 0.5, "seed": "x"}))],
    ("cone-b12-string", errors.ValidationError, "b12 must be positive",
     lambda G, tmp: beta_for_k(0.5, b12="1")),
    ("lipschitz-seed-string", errors.ValidationError, "seed must be a non-negative integer",
     lambda G, tmp: estimate_intrinsic_lipschitz(G, _phi(), 10, seed="x")),
    ("cone-sampler-seed-negative", errors.ValidationError, "seed must be a non-negative",
     lambda G, tmp: sample_cone_points_m2n1(G, 0.8, 3, seed=-1)),
    ("residual-w-components", errors.DimensionMismatch, "w must give m-1 = 1 components",
     lambda G, tmp: distributional_residual(
         G, _phi(), VectorField.constant([0.0, 1.0], Box(**UNIT)),
         TestFunction([0.5, 0.5], 0.2))),
    # a w that is NaN along the curve gave a NaN residual, and a NaN w_inf
    # and bound
    ("broadstar-w-nan", errors.NonFiniteState, "w_j is not finite at a point of the curve",
     lambda G, tmp: broadstar_residual(_curve(G), _phi(), _nan_w)),
    ("curve-lipschitz-w-nan", errors.NonFiniteState,
     "w_j is not finite on the curve's bounding box",
     lambda G, tmp: lipschitz_along_curve(G, _curve(G), _phi(), _nan_w, 1.0)),
    # a phi or w that is NaN at a node of the test function's support gave
    # a NaN residual
    ("residual-phi-nan", errors.NonFiniteState, "phi or w is not finite at a node",
     _residual_on_nan_phi),
    ("residual-w-nan", errors.NonFiniteState, "phi or w is not finite at a node",
     lambda G, tmp: distributional_residual(
         G, _phi(), lambda a: np.full(np.shape(a)[:-1] + (1,), np.nan),
         TestFunction([0.5, 0.5], 0.2))),
    # the residual's grid count and work budget, checked before any node
    # is built, and the shape of w when no node lies in the support
    *[(f"residual-grid-{count}", errors.ValidationError,
       "shape must give a positive count per axis",
       lambda G, tmp, count=count: distributional_residual(
           G, _phi(), VectorField.constant([1.0], Box(**UNIT)),
           TestFunction([0.5, 0.5], 0.2), count))
      for count in (0, -1, 2.5, True)],
    ("residual-grid-over-budget", errors.GridTooLarge, "tensor grid of 16777216 nodes",
     lambda G, tmp: distributional_residual(
         G, _phi(), VectorField.constant([1.0], Box(**UNIT)),
         TestFunction([0.5, 0.5], 0.2), 2 ** 12)),
    ("residual-w-components-no-node", errors.DimensionMismatch,
     "w must give m-1 = 1 components",
     lambda G, tmp: distributional_residual(
         G, _phi(), VectorField.constant([0.0, 1.0], Box(**UNIT)),
         TestFunction([0.5, 0.5], 1e-3), 4)),
    # an a of the wrong length gave a number, an H1 phi on heisenberg(2) an
    # untyped matmul or broadcast ValueError, j = 1 a flux of 0 and j = 3 an
    # IndexError, a radius that is no number or no list of radii a ValueError
    # or a TypeError, and a numeric string or a bool a radius of 0.5 or 1
    ("sigma-form-a-length", errors.DimensionMismatch, "base points of length 2",
     lambda G, tmp: sigma_form(G, _phi(), [0.5, 0.5], [0.1, 0.2, 0.3])),
    *[(f"{name}-phi-domain-dim", errors.DimensionMismatch, "domain dimension 2 != m\\+n-1 = 4",
       lambda G, tmp, call=call: call(standard_group("heisenberg", 2)))
      for name, call in (
          ("gradient", lambda H: intrinsic_gradient(H, _phi(), [0.5, 0.5])),
          ("lipschitz", lambda H: estimate_intrinsic_lipschitz(H, _phi(), 10)),
          ("area", lambda H: area_integral(H, _phi(), points_per_axis=4)),
          ("mollify-report", lambda H: approximation_report(
              H, _phi(), [0.1], grid_per_axis=2, points_per_axis=8)),
          ("residual", lambda H: distributional_residual(
              H, _phi(), VectorField.constant([1.0, 1.0, 1.0], Box(**UNIT)),
              TestFunction([0.5, 0.5], 0.2))),
          ("frozen-coefficients", lambda H: frozen_coefficients(H, _phi(), 2, [0.5, 0.5])),
          ("translate", lambda H: translate_graph_function(H, _phi(), np.zeros(5))))],
    *[(f"flux-direction-{j}", errors.ValidationError, "direction index j must be in 2..2",
       lambda G, tmp, j=j: flux_values(G, j, [[0.5]], [0.25]))
      for j in (1, 3)],
    *[(f"holder-radii-{name}", errors.ValidationError, "radii must be positive real numbers",
       lambda G, tmp, r_list=r_list: vertical_holder_modulus(_phi(), r_list, grid_per_axis=5))
      for name, r_list in (("string", ["a"]), ("none", None), ("numeric-string", ["0.5"]),
                           ("bool", [True]))],
    # a NaN or infinite point gave a NaN product, norm or distance
    ("multiply-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: multiply(G, [0.5, np.nan, 0.0], np.zeros(3))),
    ("norm-inf-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: homogeneous_norm(G, [[0.0, 0.0, 1.0], [0.0, 0.0, np.inf]])),
    ("distance-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: distance(G, np.zeros(3), [0.0, 0.0, np.nan])),
    # a box whose width hi - lo overflows escaped as an untyped OverflowError
    # from rng.uniform when sampled
    ("box-width-overflows", errors.ValidationError, "width hi - lo overflows",
     lambda G, tmp: Box([-1e308, 0.0], [1e308, 1.0]).sample(3, np.random.default_rng(0))),
    # a NaN or infinite point gave False through the cone test
    ("cone-membership-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: cone_membership(G, Cone(np.zeros(3), 0.5), [np.nan, 0.0, 0.0])),
    # a NaN point gave a NaN form, quasi-distance, inverse or dilation
    ("sigma-form-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: sigma_form(G, _phi(), [0.5, np.nan], [0.5, 0.5])),
    ("quasidistance-unchecked-nan-point", errors.ValidationError,
     "point has a NaN or infinite",
     lambda G, tmp: graph_quasidistance(G, _phi(), [np.nan, 0.5], [0.5, 0.5],
                                        check_domain=False)),
    ("inverse-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: inverse(G, [0.5, np.nan, 0.0])),
    ("dilate-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: dilate(G, 2.0, [0.0, 0.0, np.nan])),
    # a 0-d base point escaped as an IndexError from phi's shape check
    *[(f"{name}-0d-base-point", errors.DimensionMismatch, "base points of length 2",
       lambda G, tmp, call=call: call(G, _phi()))
      for name, call in (
          ("eval-extended", lambda G, phi: phi.eval_extended(0.5)),
          ("phi-call", lambda G, phi: phi(0.5)),
          ("in-domain", lambda G, phi: phi.in_domain(0.5)),
          ("gradient", lambda G, phi: intrinsic_gradient(G, phi, 0.5)),
          ("quasidistance", lambda G, phi: graph_quasidistance(G, phi, 0.5, [0.5, 0.5])))],
    # the drift read the first m - 1 coordinates of any longer x-hat
    ("flux-xhat-length", errors.DimensionMismatch, "x-hat of length 1",
     lambda G, tmp: flux_values(G, 2, [0.5, 0.5, 0.5], [0.1])),
    # an integer constant beyond the float range was an OverflowError on every
    # call, and a float literal beyond it an inf
    *[(f"expr-constant-{name}", errors.ValidationError, "constant too large for a float",
       lambda G, tmp, expr=expr: GraphFunction.from_expression(expr, Box(**UNIT), 2, 1))
      for name, expr in (("power-of-ten", "10**400*x2"), ("power-of-two", "x2*2**2000"),
                         ("float-literal", "1e400*x2"))],
    # NaN, an infinity or the imaginary unit gave NaN, inf or a dropped
    # imaginary part, or failed at the first call (zoo a KeyError); sympy's
    # names for them are not part of the language
    *[(f"expr-constant-{name}", errors.ValidationError, "which is not a finite real number",
       lambda G, tmp, expr=expr: GraphFunction.from_expression(expr, Box(**UNIT), 2, 1))
      for name, expr in (("complex-infinity", "1/0 + x2"),
                         ("square-root-of-minus-one", "sqrt(-1)*x2"))],
    *[(f"expr-constant-{name}", errors.ValidationError, "which is not part of the language",
       lambda G, tmp, expr=expr: GraphFunction.from_expression(expr, Box(**UNIT), 2, 1))
      for name, expr in (("nan", "nan*x2"), ("infinity", "oo*x2"), ("imaginary-unit", "I*x2"),
                         ("imaginary-power", "x2**I"))],
    # a sympy name outside the allowed functions compiled, then raised a
    # NameError or a printing error at the first call, or evaluated
    *[(f"expr-function-{name}", errors.ValidationError, "which is not one of sin, cos",
       lambda G, tmp, expr=expr: GraphFunction.from_expression(expr, Box(**UNIT), 2, 1))
      for name, expr in (("gamma", "gamma(x2)"), ("zeta", "zeta(x2)"),
                         ("besselj", "besselj(0, x2)"), ("heaviside", "Heaviside(x2)"),
                         ("integral", "Integral(x2, x2)"),
                         ("derivative", "Derivative(y, x2)"))],
    # a NaN point, a zero step or a gradient of the wrong length or NaN gave
    # NaN or an empty array
    ("project-splitting-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: project_splitting(G, [np.nan, 0.5, 0.5])),
    ("frozen-coefficients-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: frozen_coefficients(G, _phi(), 2, [np.nan, 0.5])),
    ("gradient-step-zero", errors.ValidationError, "step h must be positive and finite",
     lambda G, tmp: intrinsic_gradient(G, _phi(), [0.5, 0.5], h=0.0)),
    ("defining-function-gradient-length", errors.DimensionMismatch,
     "f_grad must give gradients of length 3",
     lambda G, tmp: gradient_from_defining_function(G, lambda p: np.ones(2), np.zeros(3))),
    ("defining-function-nan-point", errors.ValidationError, "point has a NaN or infinite",
     lambda G, tmp: gradient_from_defining_function(G, np.ones_like, [np.nan, 0.5, 0.5])),
    ("defining-function-nan-gradient", errors.NonFiniteState, "f_grad is not finite",
     lambda G, tmp: gradient_from_defining_function(
         G, lambda p: np.array([np.nan, 1.0, 0.0]), np.zeros(3))),
    ("area-integrand-overflows", errors.NonFiniteState, "the area integrand is not finite",
     _area_of_overflow),
    # a k, an epsilon, an alpha, a bound or a centre that is not a number, and
    # a translation q that is not a point, raised an untyped ValueError,
    # TypeError or IndexError
    ("cone-k-string", errors.InvalidK, "k must lie in",
     lambda G, tmp: beta_for_k("a")),
    ("cone-epsilon-string", errors.ValidationError, "epsilon must lie in",
     lambda G, tmp: beta_for_k(0.5, "a")),
    *[(f"report-alphas-{name}", errors.ValidationError, "alpha must be positive and finite",
       lambda G, tmp, alphas=alphas: approximation_report(G, _phi(), alphas, grid_per_axis=2))
      for name, alphas in (("string", ["a"]), ("not-a-list", 0.1))],
    ("box-bound-string", errors.ValidationError, "domain bounds must be numbers",
     lambda G, tmp: Box(["a"], [1])),
    ("bump-center-string", errors.ValidationError, "center must be finite numbers",
     lambda G, tmp: TestFunction(["a"], 0.1)),
    ("translate-scalar-q", errors.DimensionMismatch, "anchor of length 3",
     lambda G, tmp: translate_graph_function(G, _phi(), 0.1)),
    # a NaN or infinite q read as an invalid box or escaped as numpy's
    # RuntimeWarning, and so did a q whose shift leaves the float range
    *[(f"translate-q-{name}", errors.ValidationError, r"translation q = \[.*\] must be finite",
       lambda G, tmp, q=q: translate_graph_function(G, _phi(), q))
      for name, q in (("nan", [np.nan, 0.0, 0.0]), ("inf", [0.0, np.inf, 0.0]),
                      ("inf-x1", [-np.inf, 0.0, 0.0]), ("overflow", [1e308, 1e308, 0.0]),
                      ("too-far", [0.0, 0.0, 1e308]))],
    # a value that is not a number raised an untyped ValueError, and NaN gave
    # a phi that is NaN everywhere
    *[(f"constant-{name}", errors.ValidationError, "a constant phi needs a finite number",
       lambda G, tmp, value=value: GraphFunction.constant(value, Box(**UNIT)))
      for name, value in (("string", "x"), ("nan", np.nan), ("inf", -np.inf))],
    # a NaN phi_alpha value, a NaN w_j and a NaN, infinite or negative
    # constant gave a NaN gradient, residual or bound (or a negative one)
    ("level-set-gradient-nan-value", errors.ValidationError,
     "phi_alpha values must be finite",
     lambda G, tmp: intrinsic_gradient_of_level_set(
         G, _phi(), MollifierKernel(G, 0.1, points_per_axis=4), [[0.5, 0.5]], [np.nan])),
    ("conservation-nan-w", errors.NonFiniteState, "w_j is not finite at a point",
     lambda G, tmp: conservation_residual(G, _curve(G), _nan_w)),
    *[(f"curve-lipschitz-holder-{name}", errors.ValidationError,
       "holder_constant must be a finite number >= 0",
       lambda G, tmp, c=c: lipschitz_along_curve(G, _curve(G), _phi(), _ones, c))
      for name, c in (("nan", np.nan), ("inf", np.inf), ("negative", -1.0))],
    *[(f"curve-speed-lipschitz-{name}", errors.ValidationError,
       "C_L must be a finite number >= 0",
       lambda G, tmp, c=c: phi_along_curve_lipschitz_vs_intrinsic(G, _curve(G), _phi(), c))
      for name, c in (("nan", np.nan), ("inf", np.inf), ("negative", -1.0))],
    # a phi that is NaN inside its own box gave a wrong violation count (375
    # for log(x2 - 0.5) at beta 0.3) or a NaN modulus
    ("cone-nan-phi-at-base-point", errors.NonFiniteState,
     "phi is not finite at a sampled base point",
     _on_log_phi("log(x2 - 0.5)",
                 lambda G, phi: check_cone_containment(G, phi, 0.3, samples=1000))),
    ("cone-nan-phi-at-cone-point", errors.NonFiniteState,
     "phi is not finite at the base point of a cone point",
     _on_log_phi("log(x2 - 0.05)",
                 lambda G, phi: check_cone_containment(G, phi, 0.3, samples=1000))),
    ("holder-nan-phi", errors.NonFiniteState, "phi is not finite at a node of the Hoelder",
     _on_log_phi("log(x2 - 0.5)",
                 lambda G, phi: vertical_holder_modulus(phi, [0.5], grid_per_axis=5))),
    # the same phi gave a graph point (nan, 0.25, nan) and a NaN quasi-distance
    # and coordinate form at the base point (0.25, 0.5)
    ("graph-map-nan-phi", errors.NonFiniteState, "phi is not finite at a base point",
     _on_log_phi("log(x2 - 0.5)", lambda G, phi: graph_map(G, phi, [0.25, 0.5]))),
    ("quasidistance-nan-phi", errors.NonFiniteState, "phi is not finite at a base point",
     _on_log_phi("log(x2 - 0.5)",
                 lambda G, phi: graph_quasidistance(G, phi, [0.25, 0.5], [0.75, 0.5]))),
    ("sigma-form-nan-phi", errors.NonFiniteState, "phi is not finite at a base point",
     _on_log_phi("log(x2 - 0.5)", lambda G, phi: sigma_form(G, phi, [0.25, 0.5], [0.75, 0.5]))),
    # an alpha whose a^2 underflows gave NaN weights, and so NaN f_alpha and
    # report rows; one whose support box overflows gave NaN weights or an
    # untyped OverflowError; under -W error 1e-300 and 1e200 escaped as
    # RuntimeWarnings
    *[(f"kernel-alpha-{alpha:g}", errors.ValidationError,
       "alpha must keep the kernel's support box .* got " + re.escape(repr(alpha)),
       lambda G, tmp, alpha=alpha: MollifierKernel(G, alpha, points_per_axis=4))
      for alpha in (1e-170, 1e154, 1e155)],
    ("report-alpha-1e-170", errors.ValidationError,
     "alpha must keep the kernel's support box .* got 1e-170",
     lambda G, tmp: approximation_report(G, _phi(), [0.1, 1e-170], grid_per_axis=2,
                                         points_per_axis=4)),
    *[(f"kernel-alpha-{alpha:g}-under-W-error", errors.ValidationError,
       "alpha must keep the kernel's support box .* got " + re.escape(repr(alpha)),
       lambda G, tmp, alpha=alpha: _kernel_under_error_warnings(G, alpha))
      for alpha in (1e-300, 1e200)],
    # nested calls past Python's 200 parentheses escaped as a SyntaxError
    ("expr-power-chain-250", errors.ValidationError, "too many nested parentheses",
     lambda G, tmp: GraphFunction.from_expression("**".join(["x2"] * 250), Box(**UNIT),
                                                  2, 1)),
    # an infinite point gave a level 0.5, a gradient [[1.]] and an f_alpha
    # of 0.98, or a RuntimeWarning from numpy; a NaN point read as phi not
    # finite within the kernel's reach (NonFiniteState)
    *[(f"{name}-{kind}-point", errors.ValidationError, "point has a NaN or infinite",
       lambda G, tmp, call=call, x=x: call(G, _phi(), MollifierKernel(G, 0.1, points_per_axis=4),
                                           x))
      for name, call, points in (
          ("indicator", mollified_indicator, _BAD_POINTS),
          ("gradient", horizontal_gradient_mollified, _BAD_POINTS),
          ("level-set", lambda G, phi, k, a: level_set_phi_alpha(G, phi, k, 0.5, a),
           _BAD_BASE_POINTS),
          ("level-set-gradient",
           lambda G, phi, k, a: intrinsic_gradient_of_level_set(G, phi, k, [a], [0.5]),
           _BAD_BASE_POINTS))
      for kind, x in points],
    # True and False ran as the seeds 1 and 0
    *[(f"lipschitz-seed-{seed}", errors.ValidationError, "seed must be a non-negative integer",
       lambda G, tmp, seed=seed: estimate_intrinsic_lipschitz(G, _phi(), 10, seed=seed))
      for seed in (True, False)],
]


@pytest.mark.parametrize("expected, message, call", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_raise_path_is_typed(heis1, tmp_path, capsys, expected, message, call):
    if expected == 1:
        assert call(heis1, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        return
    with pytest.raises(expected, match=message):
        call(heis1, tmp_path)
