"""Arithmetic and metric structure of a step-2 Carnot group on R^(m+n).

A group is determined by n linearly independent skew-symmetric m x m matrices
B^(1..n).  Points are plain numpy arrays of length m+n (first layer x, second
layer y); every operation broadcasts over leading axes, so batches of points
are arrays of shape (..., m+n).

The group law is

    p * q = (x_p + x_q,  y_p + y_q + 1/2 <B x_p, x_q>)

with <B x_p, x_q>_s = <B^(s) x_p, x_q>, dilations scale the two layers with
exponents 1 and 2, and the homogeneous norm is
max(|x|, eps * |y|^(1/2)) for a group-dependent eps in (0, 1].

The bracket <B x_p, x_q> is computed as one matmul of x_q against the
(m, n*m) matrix with entries B^(s)_ij at (i, s*m + j), built once per
structure, followed by a batched dot product with x_p; no three-operand
contraction runs on point batches.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CalibrationFailed,
    DimensionMismatch,
    EpsilonOutOfRange,
    LinearlyDependentMatrices,
    NonPositiveLambda,
    NotSkewSymmetric,
    TooManyVerticalDirections,
    UnknownName,
    ValidationError,
)
from .quadrature import check_count, seeded_rng

# Absolute slack used when checking the triangle inequality numerically: the
# inequality is tight (equality on collinear horizontal pairs), so exact
# comparisons would flag pure rounding noise as violations.
TRIANGLE_FP_SLACK = 1e-12
# calibrate_epsilon searches eps = 2^0, 2^-1, ..., 2^-EPSILON_GRID_DEPTH.
EPSILON_GRID_DEPTH = 20


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Immutable step-2 group data; safe to share across threads.  Equality
    and hashing are by identity, so a structure can be a dict key."""

    m: int
    n: int
    B: np.ndarray          # shape (n, m, m), skew-symmetric
    epsilon: float = 1.0
    name: str = ""
    # max |b_{jl}^{(s)}|, used by several explicit constants
    b_max: float = field(init=False, default=0.0)
    # B^(s)_ij at (i, s*k + j), for all of B (k = m) and for its block
    # i, j >= 2 that acts on the base x-block (k = m - 1): see _bracket
    _bt: np.ndarray = field(init=False, default=None, repr=False)
    _base_bt: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b_max", float(np.max(np.abs(B)))
                           if B.size else 0.0)
        for name, block in (("_bt", B), ("_base_bt", B[:, 1:, 1:])):
            object.__setattr__(self, name, block.transpose(1, 0, 2).reshape(
                block.shape[1], -1))

    @property
    def dim(self) -> int:
        return self.m + self.n

    @property
    def base_dim(self) -> int:
        """Dimension of the codimension-1 base W, identified with R^(m+n-1)."""
        return self.m + self.n - 1

    @property
    def homogeneous_dimension(self) -> int:
        return self.m + 2 * self.n

    def __repr__(self):
        tag = self.name or "group"
        return f"GroupStructure({tag}, m={self.m}, n={self.n}, epsilon={self.epsilon:g})"


def _check_point(G, p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != G.dim:
        raise DimensionMismatch(
            f"expected point of length {G.dim}, got shape {p.shape}")
    return p


def split_layers(G, p):
    """Return the (x, y) layers of a point array."""
    p = _check_point(G, p)
    return p[..., :G.m], p[..., G.m:]


def make_group(m, n, matrices, epsilon=None, name=""):
    """Validate group data and build a :class:`GroupStructure`.

    ``matrices`` is a sequence of n real m x m arrays.  Skew-symmetry is
    checked entrywise exactly (group data is exact user input); linear
    independence through singular values of the stacked vectorizations with
    threshold 1e-10.  ``epsilon=None`` triggers :func:`calibrate_epsilon`
    with its default samples, memoised by ``(m, n, B)`` content in a bounded
    per-process cache, so reloading a structure does not calibrate again.
    """
    m = int(m)
    n = int(n)
    if m < 2 or n < 1:
        raise ValidationError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if n > m * (m - 1) // 2:
        raise TooManyVerticalDirections(
            f"n={n} exceeds m(m-1)/2={m*(m-1)//2} for m={m}")
    B = np.array(matrices, dtype=float)     # a copy: callers keep theirs
    if B.shape != (n, m, m):
        raise DimensionMismatch(
            f"expected {n} matrices of shape ({m},{m}), got array of shape {B.shape}")
    for s in range(n):
        if not np.array_equal(B[s].T, -B[s]):
            raise NotSkewSymmetric(f"matrix {s + 1} is not exactly skew-symmetric")
    sv = np.linalg.svd(B.reshape(n, m * m), compute_uv=False)
    if sv[-1] <= 1e-10 * max(1.0, sv[0]):
        raise LinearlyDependentMatrices(
            f"stacked vectorizations have numerical rank < n (sigma_min={sv[-1]:.3e})")
    if epsilon is None:
        eps = _calibrated_epsilon(m, n, B.tobytes())
    else:
        try:
            eps = float(epsilon)
        except (TypeError, ValueError):
            raise EpsilonOutOfRange(f"epsilon must be a number, got {epsilon!r}") from None
        if not (0.0 < eps <= 1.0):
            raise EpsilonOutOfRange(f"epsilon must lie in (0, 1], got {eps}")
    return GroupStructure(m=m, n=n, B=B, epsilon=eps, name=name)


def _heisenberg_matrices(k):
    m = 2 * k
    B = np.zeros((1, m, m))
    B[0, :k, k:] = np.eye(k)
    B[0, k:, :k] = -np.eye(k)
    return B


def _free_step2_matrices(m):
    # one matrix per pair h < l, ordered lexicographically by (l, h):
    # entry -1 at (l, h), +1 at (h, l).
    pairs = [(l, h) for l in range(2, m + 1) for h in range(1, l)]
    B = np.zeros((len(pairs), m, m))
    for s, (l, h) in enumerate(pairs):
        B[s, l - 1, h - 1] = -1.0
        B[s, h - 1, l - 1] = 1.0
    return B


def _quaternion_matrices():
    # left multiplication by i, j, k on R^4: orthogonal, skew, anticommuting.
    J1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    J2 = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    J3 = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    return np.array([J1, J2, J3], dtype=float)


def standard_group(name, param=None, epsilon=None):
    """Build one of the named groups.

    heisenberg(k):  m=2k, n=1, B^(1) = [[0, I_k], [-I_k, 0]].
    free_step2(m):  n = m(m-1)/2 elementary skew matrices.
    h_type(id):     built-in orthogonal anticommuting family; the only
                    built-in id is "quaternion" (m=4, n=3).
    """
    key = name.lower()
    if key == "heisenberg":
        k = 1 if param is None else param
        if isinstance(k, numbers.Real) and k < 1:
            raise UnknownName(f"heisenberg index must be >= 1, got {k}")
        k = check_count(k, "heisenberg index must be an integer")
        return make_group(2 * k, 1, _heisenberg_matrices(k), epsilon,
                          name=f"heisenberg({k})")
    if key == "free_step2":
        m = 2 if param is None else param
        if isinstance(m, numbers.Real) and m < 2:
            raise UnknownName(f"free_step2 needs m >= 2, got {m}")
        m = check_count(m, "free_step2 needs an integer m")
        return make_group(m, m * (m - 1) // 2, _free_step2_matrices(m), epsilon,
                          name=f"free_step2({m})")
    if key == "h_type":
        ident = (param or "quaternion")
        if str(ident) != "quaternion":
            raise UnknownName(f"unknown h_type id {ident!r}; built-in: 'quaternion'")
        return make_group(4, 3, _quaternion_matrices(), epsilon,
                          name="h_type(quaternion)")
    raise UnknownName(f"unknown group name {name!r}")


def _bracket(bt, x1, x2):
    """s-vector of <B^(s) x1, x2> from bt, the (k, n*k) matrix holding
    B^(s)_ij at (i, s*k + j): the rows sum_i x2_i B^(s)_ij in one matmul,
    then their dot products with x1.  Broadcasts over leading axes of x1/x2."""
    rows = np.matmul(x2, bt)
    rows = rows.reshape(rows.shape[:-1] + (-1, bt.shape[0]))
    return np.einsum("...sj,...j->...s", rows, x1)


def bracket(G, x1, x2):
    """Second-layer bilinear term: s-vector of <B^(s) x1, x2>."""
    return _bracket(G._bt, x1, x2)


def multiply(G, p, q):
    """Group product p * q."""
    x1, y1 = split_layers(G, p)
    x2, y2 = split_layers(G, q)
    return np.concatenate([x1 + x2, y1 + y2 + 0.5 * bracket(G, x1, x2)], axis=-1)


def inverse(G, p):
    """Group inverse, p^(-1) = -p."""
    return -_check_point(G, p)


def dilate(G, lam, p):
    """Anisotropic dilation: x -> lam x, y -> lam^2 y."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise NonPositiveLambda(f"dilation factor must be positive and finite, got {lam}")
    x, y = split_layers(G, p)
    lam = lam[..., None]
    return np.concatenate([lam * x, lam ** 2 * y], axis=-1)


def homogeneous_norm(G, p):
    """max(|x|, eps |y|^(1/2)); 1-homogeneous under dilations."""
    return _layer_norm(G, *split_layers(G, p))


def _layer_norm(G, x, y):
    """The homogeneous norm of the point with layers x and y; x may omit
    coordinates that are zero."""
    return np.maximum(np.linalg.norm(x, axis=-1),
                      G.epsilon * np.sqrt(np.linalg.norm(y, axis=-1)))


def distance(G, p, q):
    """Left-invariant quasi-distance d(p, q) = ||p^(-1) q||."""
    return homogeneous_norm(G, multiply(G, inverse(G, p), q))


def _sample_unit_ball(G, count, rng):
    """Sample points in the unit ball of the eps=1 norm (dilation-normalized)."""
    p = rng.uniform(-1.0, 1.0, size=(count, G.dim))
    nrm = np.maximum(np.linalg.norm(p[:, :G.m], axis=-1),
                     np.sqrt(np.linalg.norm(p[:, G.m:], axis=-1)))
    lam = 1.0 / np.maximum(nrm, 1.0)
    p[:, :G.m] *= lam[:, None]
    p[:, G.m:] *= (lam ** 2)[:, None]
    return p


def triangle_violations(G, p, q, epsilon=None):
    """Count sampled pairs with ||p*q|| > ||p|| + ||q|| beyond fp slack."""
    eps = G.epsilon if epsilon is None else float(epsilon)
    Ge = replace(G, epsilon=eps)
    lhs = homogeneous_norm(Ge, multiply(Ge, p, q))
    rhs = homogeneous_norm(Ge, p) + homogeneous_norm(Ge, q)
    return int(np.count_nonzero(lhs - rhs > TRIANGLE_FP_SLACK * np.maximum(1.0, rhs)))


def calibrate_epsilon(G, sample_count=10_000, seed=0):
    """Largest eps on the dyadic grid 2^0, 2^-1, ... that satisfies the
    triangle inequality on ``sample_count`` sampled pairs from the unit ball.

    The same pairs are reused for every eps, so the per-pair pass set is
    monotone in eps and the search result is well-defined and deterministic.
    """
    sample_count = check_count(sample_count, "sample_count must be a positive integer")
    rng = seeded_rng(seed)
    p = _sample_unit_ball(G, sample_count, rng)
    q = _sample_unit_ball(G, sample_count, rng)
    for k in range(EPSILON_GRID_DEPTH + 1):
        eps = 2.0 ** (-k)
        if triangle_violations(G, p, q, epsilon=eps) == 0:
            return eps
    raise CalibrationFailed(
        f"no epsilon on the dyadic grid down to 2^-{EPSILON_GRID_DEPTH} passes")


@functools.lru_cache(maxsize=64)
def _calibrated_epsilon(m, n, b_bytes):
    """calibrate_epsilon of the structure whose float64 B has these bytes."""
    B = np.frombuffer(b_bytes, dtype=float).reshape(n, m, m)
    return calibrate_epsilon(GroupStructure(m=m, n=n, B=B))


# -- JSON interface ------------------------------------------------------------

def group_from_dict(data):
    """Build a group from {"m":int,"n":int,"B":[row-major m*m arrays],"epsilon":float|null}."""
    try:
        m, n, rows = data["m"], data["n"], data["B"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"group definition missing field: {exc}") from exc
    # a JSON integer only: int() would read 2.7, "2" and true as counts
    if not all(isinstance(k, int) and not isinstance(k, bool) for k in (m, n)):
        raise ValidationError(f"group 'm' and 'n' must be integers, got {m!r} and {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise DimensionMismatch(f"'B' must be a list of {n} matrices")
    mats = []
    for flat in rows:
        try:
            arr = np.asarray(flat, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"'B' entries must be numbers, got {flat!r}") from None
        if arr.size != m * m:
            raise DimensionMismatch(
                f"each matrix must have {m * m} row-major entries, got {arr.size}")
        mats.append(arr.reshape(m, m))
    eps = data.get("epsilon", None)
    return make_group(m, n, np.array(mats), eps, name=str(data.get("name", "")))


def load_group(path):
    with open(path) as fh:
        return group_from_dict(json.load(fh))
