import pytest
from hypothesis import settings

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
