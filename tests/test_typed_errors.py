"""One table of raise paths that the rest of the suite does not reach, each
through a public call: the library cases expect their typed error, the CLI
cases (a group, phi, w or suite file that is not JSON) exit 1 from
``cli.run``."""

import os

import numpy as np
import pytest

from carnot import cli, errors
from carnot.characteristics import integrate_characteristic
from carnot.cones import beta_for_k, check_cone_containment, construct_eta_m2n1
from carnot.functions import (
    Box,
    GraphFunction,
    graph_function_from_dict,
    vector_field_from_dict,
)
from carnot.group import calibrate_epsilon, make_group, standard_group
from carnot.quadrature import tensor_grid
from carnot.splitting import graph_quasidistance

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
GROUP = os.path.join(DATA, "heisenberg1.json")
PHI = os.path.join(DATA, "phi_linear.json")
UNIT = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def _phi():
    return GraphFunction.from_expression("x2", Box(**UNIT), 2, 1)


def _cli(argv):
    """Run ``argv`` with the placeholder BAD replaced by a file that is not
    JSON; the exit code."""
    def call(G, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        return cli.run([str(bad) if a == "BAD" else a for a in argv])[0]
    return call


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
    ("heisenberg-index", errors.UnknownName, "heisenberg index",
     lambda G, tmp: standard_group("heisenberg", 0)),
    ("calibration-samples", errors.ValidationError, "sample_count",
     lambda G, tmp: calibrate_epsilon(G, sample_count=0)),
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
