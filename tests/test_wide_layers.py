"""Library outputs on two groups with a layer of 8 or more coordinates,
heisenberg(4) (first layer 8, base 8) and free_step2(5) (second layer 10,
base 14), against one recording.  ``np.sum`` and ``np.linalg.norm`` reduce
8 or more entries in an order that depends on the memory layout of the
batch, so these are the groups where a change of layout could move a bit.
Each array is recorded as its shape and the sha256 of its float64 bytes,
each number as ``float.hex``, so the comparison is byte for byte.

After an intended change of one of these outputs, rewrite the recording with
``PYTHONPATH=src python tests/test_wide_layers.py`` and review its diff.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from carnot.area import area_integral
from carnot.calculus import intrinsic_gradient
from carnot.cones import check_cone_containment
from carnot.functions import Box, GraphFunction
from carnot.group import homogeneous_norm, multiply, standard_group
from carnot.mollify import MollifierKernel
from carnot.splitting import estimate_intrinsic_lipschitz, sigma_form

RECORDING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                         "wide_layers.json")
GROUPS = {"heisenberg(4)": ("heisenberg", 4), "free_step2(5)": ("free_step2", 5)}
# a smooth phi with analytic partials that reads every kind of coordinate,
# and a phi with an Abs term, which has none and takes central differences
PHI = {"heisenberg(4)": "0.3*x2 - 0.2*x5 + 0.15*sin(y1) + 0.05*x3*x8",
       "free_step2(5)": "0.2*x3 - 0.1*x5 + 0.1*sin(y4) - 0.05*y10*x2 + 0.03*y7*y1"}
KINK = " + 0.1*abs(x4)"


def _entry(value):
    """A number as float.hex, an int as itself, an array as shape and sha256."""
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, float):
        return value.hex()
    value = np.ascontiguousarray(value, dtype="<f8")
    return {"shape": list(value.shape), "sha256": hashlib.sha256(value.tobytes()).hexdigest()}


def outputs(name, G):
    """The recorded outputs of group ``name`` on G (epsilon 1)."""
    box = Box([-0.5] * G.base_dim, [0.5] * G.base_dim)
    phi = GraphFunction.from_expression(PHI[name], box, G.m, G.n)
    kink = GraphFunction.from_expression(PHI[name] + KINK, box, G.m, G.n)
    assert not kink.has_partials
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, (500, G.dim)) * 10.0 ** rng.uniform(-2, 2, (500, 1))
    q = rng.uniform(-1.0, 1.0, (500, G.dim))
    a = box.sample(500, rng)
    b = box.sample(500, rng)
    out = {
        "calibrated_epsilon": standard_group(*GROUPS[name]).epsilon,
        "norm_of_products": homogeneous_norm(G, multiply(G, p, q)),
        "area_integral_2": area_integral(G, phi, 2),
        "lipschitz_2000": estimate_intrinsic_lipschitz(G, phi, 2000, seed=3),
        "cone_2000": check_cone_containment(G, phi, 0.5, samples=2000, seed=5)["violations"],
        "intrinsic_gradient_500": intrinsic_gradient(G, phi, a),
        "intrinsic_gradient_fd_500": intrinsic_gradient(G, kink, a, check_domain=False),
        "sigma_form_500": sigma_form(G, phi, b, a),
    }
    if G.m >= 8:
        out["kernel_weights_4"] = MollifierKernel(G, 0.5, 4).weights
    return {key: _entry(value) for key, value in out.items()}


@pytest.fixture(scope="module")
def recording():
    with open(RECORDING) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, fixture", [("heisenberg(4)", "heis4"),
                                           ("free_step2(5)", "free5")])
def test_outputs_match_the_recording(name, fixture, recording, request):
    assert outputs(name, request.getfixturevalue(fixture)) == recording[name]


if __name__ == "__main__":
    record = {name: outputs(name, standard_group(*args, epsilon=1.0))
              for name, args in GROUPS.items()}
    with open(RECORDING, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
