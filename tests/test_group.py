import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from carnot import errors
from carnot.calculus import _frame_apply
from carnot.group import (
    CALIBRATION_PAIRS,
    GroupStructure,
    bracket,
    calibrate_epsilon,
    dilate,
    distance,
    group_from_dict,
    homogeneous_norm,
    inverse,
    make_group,
    multiply,
    standard_group,
    triangle_violations,
    _row_sum,
    _sample_unit_ball,
)

from carnot.splitting import _conjugated_layers, graph_point

from conftest import random_points

H1_B = [[[0.0, 1.0], [-1.0, 0.0]]]


def test_make_group_heisenberg_valid():
    G = make_group(2, 1, H1_B, 1.0)
    assert G.m == 2 and G.n == 1
    assert G.homogeneous_dimension == 4


def test_make_group_rejects_non_skew():
    with pytest.raises(errors.NotSkewSymmetric):
        make_group(2, 1, [[[0.0, 1.0], [1.0, 0.0]]], 1.0)


def test_make_group_rejects_dependent_matrices():
    # skew 2x2 space is 1-dimensional: any two such matrices are dependent
    with pytest.raises(errors.TooManyVerticalDirections):
        make_group(2, 2, [H1_B[0], [[0.0, 2.0], [-2.0, 0.0]]], 1.0)


def test_make_group_rejects_dependent_matrices_rank():
    B1 = np.zeros((3, 3))
    B1[0, 1], B1[1, 0] = 1.0, -1.0
    with pytest.raises(errors.LinearlyDependentMatrices):
        make_group(3, 2, [B1, 2.0 * B1], 1.0)


def test_make_group_rejects_bad_epsilon():
    for eps in (0.0, -1.0, 1.5):
        with pytest.raises(errors.EpsilonOutOfRange):
            make_group(2, 1, H1_B, eps)


def test_standard_group_heisenberg(heis1):
    assert heis1.m == 2 and heis1.n == 1
    assert np.array_equal(heis1.B[0], np.array(H1_B[0]))


def test_standard_group_free3(free3):
    assert free3.m == 3 and free3.n == 3


def test_free_step2_2_matches_heisenberg1(heis1):
    F = standard_group("free_step2", 2, epsilon=1.0)
    assert F.m == heis1.m and F.n == heis1.n
    assert np.array_equal(F.B, heis1.B)


def test_h_type_properties(quat):
    # orthogonal and pairwise anticommuting on top of skew-symmetry
    for Bs in quat.B:
        assert np.allclose(Bs.T @ Bs, np.eye(4))
    for s in range(3):
        for l in range(s + 1, 3):
            assert np.allclose(quat.B[s] @ quat.B[l], -quat.B[l] @ quat.B[s])


def test_unknown_name():
    with pytest.raises(errors.UnknownName):
        standard_group("solvable", 1)
    with pytest.raises(errors.UnknownName):
        standard_group("h_type", "octonion")


def test_multiply_heisenberg_example(heis1):
    assert np.allclose(multiply(heis1, [1, 0, 0], [0, 1, 0]), [1, 1, -0.5])


def test_multiply_identity(heis1):
    rng = np.random.default_rng(3)
    p = random_points(heis1, 100, rng)
    assert np.allclose(multiply(heis1, p, np.zeros(3)), p)
    assert np.allclose(multiply(heis1, np.zeros(3), p), p)


def test_multiply_associative(heis1):
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    c = np.array([7.0, 8.0, 9.0])
    left = multiply(heis1, multiply(heis1, a, b), c)
    right = multiply(heis1, a, multiply(heis1, b, c))
    assert np.allclose(left, right, rtol=1e-12)


def test_multiply_dimension_mismatch(heis1):
    with pytest.raises(errors.DimensionMismatch):
        multiply(heis1, [1.0, 2.0], [0.0, 0.0, 0.0])


def test_inverse_examples(heis1):
    assert np.allclose(inverse(heis1, [1, 2, 3]), [-1, -2, -3])
    assert np.allclose(inverse(heis1, np.zeros(3)), np.zeros(3))


def test_inverse_property(all_groups):
    rng = np.random.default_rng(7)
    for G in all_groups:
        p = random_points(G, 1000, rng)
        prod = multiply(G, p, inverse(G, p))
        assert np.max(np.abs(prod)) < 1e-14


def test_dilate_examples(heis1):
    assert np.allclose(dilate(heis1, 2.0, [1, 1, 1]), [2, 2, 4])
    p = np.array([0.3, -0.7, 0.2])
    assert np.allclose(dilate(heis1, 1.0, p), p)
    with pytest.raises(errors.NonPositiveLambda):
        dilate(heis1, 0.0, p)


def test_dilation_homomorphism(all_groups):
    rng = np.random.default_rng(11)
    for G in all_groups:
        p = random_points(G, 200, rng)
        q = random_points(G, 200, rng)
        lam = rng.uniform(0.1, 3.0, size=200)
        lhs = dilate(G, lam, multiply(G, p, q))
        rhs = multiply(G, dilate(G, lam, p), dilate(G, lam, q))
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_norm_examples(heis1):
    assert homogeneous_norm(heis1, [3, 4, 0]) == pytest.approx(5.0)
    assert homogeneous_norm(heis1, [0, 0, 4]) == pytest.approx(2.0)


def test_norm_homogeneity(all_groups):
    rng = np.random.default_rng(13)
    for G in all_groups:
        p = random_points(G, 500, rng)
        lam = rng.uniform(0.1, 5.0, size=500)
        lhs = homogeneous_norm(G, dilate(G, lam, p))
        rhs = lam * homogeneous_norm(G, p)
        assert np.allclose(lhs, rhs, rtol=1e-13)


def test_distance_left_invariance(all_groups):
    rng = np.random.default_rng(17)
    for G in all_groups:
        g = random_points(G, 300, rng)
        p = random_points(G, 300, rng)
        q = random_points(G, 300, rng)
        d1 = distance(G, multiply(G, g, p), multiply(G, g, q))
        d2 = distance(G, p, q)
        assert np.allclose(d1, d2, rtol=1e-12, atol=1e-14)


def test_calibrate_epsilon_deterministic(heis1):
    e1 = calibrate_epsilon(heis1)
    e2 = calibrate_epsilon(heis1)
    assert e1 == e2
    assert 0.0 < e1 <= 1.0


def test_calibrate_epsilon_fresh_sample(heis1):
    eps = calibrate_epsilon(heis1)
    rng = np.random.default_rng(999)
    p = _sample_unit_ball(heis1, 10_000, rng)
    q = _sample_unit_ball(heis1, 10_000, rng)
    assert triangle_violations(heis1, p, q, epsilon=eps) == 0


def test_calibrate_epsilon_monotone(heis1):
    # if eps passes on its fixed pairs, eps/2 passes on the same pairs
    eps = calibrate_epsilon(heis1)
    rng = np.random.default_rng(0)
    p = _sample_unit_ball(heis1, CALIBRATION_PAIRS, rng)
    q = _sample_unit_ball(heis1, CALIBRATION_PAIRS, rng)
    assert triangle_violations(heis1, p, q, epsilon=eps) == 0
    assert triangle_violations(heis1, p, q, epsilon=eps / 2) == 0


def test_group_json_roundtrip(heis1):
    data = {"m": heis1.m, "n": heis1.n, "epsilon": heis1.epsilon,
            "B": [b.reshape(-1).tolist() for b in heis1.B]}
    G = group_from_dict(data)
    assert G.m == heis1.m and G.n == heis1.n
    assert np.array_equal(G.B, heis1.B)
    assert G.epsilon == heis1.epsilon


def test_group_equality_is_identity():
    # B is an array, so structures compare and hash by identity: comparing
    # two equal-content structures must not raise, and a structure is a key
    G1 = standard_group("heisenberg", 1)
    G2 = standard_group("heisenberg", 1)
    assert G1 == G1 and G1 != G2
    table = {G1: 1, G2: 2}
    assert table[G1] == 1 and table[G2] == 2
    assert hash(G1) == hash(G1)


def test_group_json_null_epsilon_calibrates():
    data = {"m": 2, "n": 1, "B": [[0.0, 1.0, -1.0, 0.0]], "epsilon": None}
    G = group_from_dict(data)
    assert 0.0 < G.epsilon <= 1.0


def test_group_json_missing_field():
    with pytest.raises(errors.ValidationError):
        group_from_dict({"m": 2, "B": [[0.0, 1.0, -1.0, 0.0]]})


def test_make_group_copies_caller_matrices():
    # calibration is memoised by content, so a later load of the mutated
    # array must calibrate the new structure, and the first group keeps its B
    B = np.array(H1_B)
    G1 = make_group(2, 1, B)
    B *= 8.0
    G8 = make_group(2, 1, B)
    assert np.array_equal(G1.B, np.array(H1_B))
    assert G1.epsilon == calibrate_epsilon(GroupStructure(2, 1, np.array(H1_B)))
    assert G8.epsilon == calibrate_epsilon(GroupStructure(2, 1, 8.0 * np.array(H1_B)))
    assert G8.epsilon < G1.epsilon


@st.composite
def _skew_families(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, m * (m - 1) // 2))
    upper = np.triu_indices(m, 1)
    B = np.zeros((n, m, m))
    for s in range(n):
        B[s][upper] = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(upper[0]),
                                    max_size=len(upper[0])))
        B[s] -= B[s].T
    return m, n, B


@given(_skew_families())
def test_memoised_calibration_property(family):
    m, n, B = family
    try:
        G = make_group(m, n, B)
    except errors.LinearlyDependentMatrices:
        assume(False)
    assert G.epsilon == calibrate_epsilon(GroupStructure(m, n, B.copy()))
    assert make_group(m, n, B.copy()).epsilon == G.epsilon
    rng = np.random.default_rng(3)
    p, q, r = (random_points(G, 200, rng) for _ in range(3))
    assert np.allclose(multiply(G, multiply(G, p, q), r),
                       multiply(G, p, multiply(G, q, r)), rtol=1e-12, atol=1e-12)
    assert np.array_equal(multiply(G, p, np.zeros(G.dim)), p)
    assert np.max(np.abs(multiply(G, p, inverse(G, p)))) < 1e-14
    lam = rng.uniform(0.1, 5.0, size=200)
    assert np.allclose(homogeneous_norm(G, dilate(G, lam, p)),
                       lam * homogeneous_norm(G, p), rtol=1e-13)


@pytest.mark.parametrize("name, param", [("heisenberg", 2), ("free_step2", 5)])
def test_norm_is_bitwise_its_linalg_form(name, param):
    # the layer sums run column by column in np.sum's order, sequential
    # below 8 entries and pairwise from 8 on (free_step2(5) has n = 10):
    # bitwise np.linalg.norm either way
    G = standard_group(name, param, epsilon=0.5)
    p = np.random.default_rng(5).normal(size=(100, G.dim))
    want = np.maximum(np.linalg.norm(p[:, :G.m], axis=-1),
                      0.5 * np.sqrt(np.linalg.norm(p[:, G.m:], axis=-1)))
    assert homogeneous_norm(G, p).tobytes() == want.tobytes()


def test_row_sum_is_bitwise_np_sum_on_either_layout():
    # np.sum over a contiguous last axis is pairwise from 8 entries and
    # splits beyond 128; _row_sum takes that order on a row-major and on a
    # coordinate-major batch alike, signed zeros included
    rng = np.random.default_rng(9)
    for width in [*range(0, 41), 63, 64, 65, 127, 128, 129, 136, 140, 257]:
        x = rng.normal(size=(300, width)) * 10.0 ** rng.uniform(-8, 8, (300, width))
        x[:5] = -0.0
        x[5:10, ::2] = 0.0
        want = np.sum(x, axis=-1)
        columns = np.moveaxis(np.ascontiguousarray(x.T), 0, -1)
        for got in (_row_sum(x), _row_sum(columns)):
            assert got.tobytes() == want.tobytes(), width


_STANDARD = [("heisenberg", 1), ("heisenberg", 2), ("free_step2", 3),
             ("h_type", "quaternion")]


@given(st.one_of(st.sampled_from(_STANDARD).map(
                     lambda spec: standard_group(*spec, epsilon=1.0)),
                 _skew_families().map(lambda family: GroupStructure(*family))),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 50))
def test_bracket_matches_einsum_property(G, seed, count):
    # the matmul bracket against the three-operand contraction it replaced,
    # on batches and on one point against a batch, both ways round
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-3.0, 3.0, size=(count, G.m))
    x2 = rng.uniform(-3.0, 3.0, size=(count, G.m))
    for a, b in ((x1, x2), (x1[0], x2), (x1, x2[0])):
        want = np.einsum("sij,...j,...i->...s", G.B, a, b)
        got = bracket(G, a, b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def _dense_frame(G, a, value, grad):
    """The frame d/dx_j + sum_s c_s d/dy_s, j = 2..m, with one matmul per s
    for the drift of c_s, summed over s in order."""
    k = G.m - 1
    for s in range(G.n):
        c = a[..., :k] @ G.B[s, 1:, 1:].T
        c *= 0.5
        c += np.asarray(value)[..., None] * G.B[s, 1:, 0]
        c *= grad[..., k + s, None]
        if s == 0:
            out = c
        else:
            out += c
    return out + grad[..., :k]


def _dense_conjugated_layers(G, t, a, b):
    k = G.m - 1
    xa, xb = a[..., :k], b[..., :k]
    g1 = xb - xa
    y = b[..., k:] - a[..., k:] - 0.5 * np.einsum("sij,...j,...i->...s",
                                                  G.B[:, 1:, 1:], xa, xb)
    y += t[..., None] * (g1 @ G.B[:, 0, 1:].T)
    return g1, y


# standard groups whose full bracket sums two nonzero terms per s, so that
# its order cannot matter
_BRACKET_BITWISE = {"heisenberg(1)", "free_step2(3)"}


@given(st.one_of(st.sampled_from(_STANDARD).map(
                     lambda spec: standard_group(*spec, epsilon=1.0)),
                 _skew_families().map(lambda family: GroupStructure(*family))),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 50))
def test_table_walk_matches_dense_formulas_property(G, seed, count):
    # the kernels that walk B's nonzero entries against the dense matmul and
    # einsum formulas, on batches and on one point: within 1e-13 for any B,
    # and bitwise on the standard groups, the full bracket where its sums
    # have two terms
    rng = np.random.default_rng(seed)
    a, b = (rng.uniform(-1.0, 1.0, size=(count, G.base_dim)) for _ in range(2))
    x1, x2 = (rng.uniform(-1.0, 1.0, size=(count, G.m)) for _ in range(2))
    t, value = (rng.uniform(-1.0, 1.0, size=count) for _ in range(2))
    grad = rng.standard_normal((count, G.base_dim))
    xa, xb = a[:, :G.m - 1], b[:, :G.m - 1]
    standard = G.name != ""
    pairs = [
        (bracket(G, x1, x2), np.einsum("sij,...j,...i->...s", G.B, x1, x2),
         G.name in _BRACKET_BITWISE),
        (bracket(G, xa, xb), np.einsum("sij,...j,...i->...s", G.B[:, 1:, 1:], xa, xb),
         standard),
        (_frame_apply(G, a, value, grad), _dense_frame(G, a, value, grad), standard),
        (_frame_apply(G, a[0], value[0], grad[0]),
         _dense_frame(G, a[0], value[0], grad[0]), standard),
        (graph_point(G, a, t)[:, G.m:],
         a[:, G.m - 1:] + 0.5 * t[:, None] * (xa @ G.B[:, 0, 1:].T), standard),
        *((got, want, standard) for got, want in zip(
            _conjugated_layers(G, t, a, b), _dense_conjugated_layers(G, t, a, b))),
    ]
    for got, want, bitwise in pairs:
        assert got.shape == want.shape
        if bitwise:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
