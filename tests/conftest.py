import numpy as np
import pytest
from hypothesis import settings

from carnot.errors import DimensionMismatch
from carnot.functions import Box, GraphFunction
from carnot.group import standard_group

# Deterministic examples and no per-example deadline (host speed varies).
settings.register_profile("carnot", derandomize=True, deadline=None,
                          max_examples=25)
settings.load_profile("carnot")


@pytest.fixture(scope="session")
def heis1():
    return standard_group("heisenberg", 1, epsilon=1.0)


@pytest.fixture(scope="session")
def heis1_calibrated():
    return standard_group("heisenberg", 1)


@pytest.fixture(scope="session")
def heis2():
    return standard_group("heisenberg", 2, epsilon=1.0)


@pytest.fixture(scope="session")
def free3():
    return standard_group("free_step2", 3, epsilon=1.0)


@pytest.fixture(scope="session")
def quat():
    return standard_group("h_type", "quaternion", epsilon=1.0)


@pytest.fixture(scope="session")
def all_groups(heis1, heis2, free3, quat):
    return [heis1, heis2, free3, quat]


def unit_box(dim, half=1.0):
    return Box([-half] * dim, [half] * dim)


@pytest.fixture()
def phi_x2(heis1):
    """phi(x2, y) = x2 on [-1,1]^2."""
    return GraphFunction.from_expression("x2", unit_box(2), 2, 1)


@pytest.fixture()
def phi_y(heis1):
    """phi(x2, y) = y on [-1,1]^2."""
    return GraphFunction.from_expression("y", unit_box(2), 2, 1)


def random_points(G, count, rng, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=(count, G.dim))


# The composed references for the W * V splitting: i(a) and (t, 0, ..., 0)
# as points of G, so that i(a) * (t e1) is a group product.

def embed_base(G, a):
    """i(a): insert the zero graph coordinate, landing in W."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != G.base_dim:
        raise DimensionMismatch(
            f"expected base points of length {G.base_dim}, got {a.shape}")
    zero = np.zeros(a.shape[:-1] + (1,))
    return np.concatenate([zero, a], axis=-1)


def lift_graph_value(G, t):
    """(t, 0, ..., 0): the V-component with graph coordinate t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (G.dim,))
    out[..., 0] = t
    return out
