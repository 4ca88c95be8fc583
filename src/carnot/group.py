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

Each structure keeps one table of the nonzero entries (s, i, j, b^(s)_ij)
of B, in increasing (s, i, j).  Every contraction with B on point batches
(the bracket <B x_p, x_q> here; the graph points, the quasi-distance layers
and the intrinsic frame elsewhere) walks that table with :func:`_walk`:
each nonzero entry gives one product of coordinate columns, added into one
column of the output, and each sum runs over its nonzero terms in table
order from its first term.  The standard groups have two to four nonzero
entries per B^(s), so a batch costs a few column operations per entry and
no small matmul.  Short sums over the last axis (the layer norms) run
column by column too, in the order of ``np.sum``, so their results are
bitwise those of ``np.sum`` and ``np.linalg.norm``.
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
from .quadrature import check_count, check_work_budget

# Absolute slack used when checking the triangle inequality numerically: the
# inequality is tight (equality on collinear horizontal pairs), so exact
# comparisons would flag pure rounding noise as violations.
TRIANGLE_FP_SLACK = 1e-12
# calibrate_epsilon searches eps = 2^0, 2^-1, ..., 2^-EPSILON_GRID_DEPTH on
# CALIBRATION_PAIRS pairs drawn from seed 0.
EPSILON_GRID_DEPTH = 20
CALIBRATION_PAIRS = 10_000


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
    # the nonzero entries (s, i, j, b^(s)_ij) of B, 0-based, in increasing
    # (s, i, j): the table that _walk sums over
    _terms: tuple = field(init=False, default=(), repr=False)

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b_max", float(np.max(np.abs(B)))
                           if B.size else 0.0)
        index = np.nonzero(B)
        object.__setattr__(self, "_terms", tuple(zip(
            *(k.tolist() for k in index), B[index].tolist())))

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


def _dimensions(m, n):
    """(m, n) as ints; ValidationError unless both are integers (a bool is
    not): int() would read 2.7 as 2, and "2" and True as counts."""
    if not all(isinstance(k, numbers.Integral) and not isinstance(k, bool) for k in (m, n)):
        raise ValidationError(f"group 'm' and 'n' must be integers, got {m!r} and {n!r}")
    return int(m), int(n)


def make_group(m, n, matrices, epsilon=None, name=""):
    """Validate group data and build a :class:`GroupStructure`.

    ``matrices`` is a sequence of n real m x m arrays.  Skew-symmetry is
    checked entrywise exactly (group data is exact user input); linear
    independence through singular values of the stacked vectorizations with
    threshold 1e-10.  ``epsilon=None`` triggers :func:`calibrate_epsilon`,
    memoised by ``(m, n, B)`` content in a bounded per-process cache, so
    reloading a structure does not calibrate again.
    """
    m, n = _dimensions(m, n)
    if m < 2 or n < 1:
        raise ValidationError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    if n > m * (m - 1) // 2:
        raise TooManyVerticalDirections(
            f"n={n} exceeds m(m-1)/2={m*(m-1)//2} for m={m}")
    try:
        B = np.array(matrices, dtype=float)     # a copy: callers keep theirs
    except (TypeError, ValueError):
        raise ValidationError(f"B must be {n} arrays of {m} x {m} numbers") from None
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
        m, n, build, label = 2 * k, 1, lambda: _heisenberg_matrices(k), f"heisenberg({k})"
    elif key == "free_step2":
        m = 2 if param is None else param
        if isinstance(m, numbers.Real) and m < 2:
            raise UnknownName(f"free_step2 needs m >= 2, got {m}")
        m = check_count(m, "free_step2 needs an integer m")
        n, build = m * (m - 1) // 2, lambda: _free_step2_matrices(m)
        label = f"free_step2({m})"
    elif key == "h_type":
        ident = (param or "quaternion")
        if str(ident) != "quaternion":
            raise UnknownName(f"unknown h_type id {ident!r}; built-in: 'quaternion'")
        m, n, build, label = 4, 3, _quaternion_matrices, "h_type(quaternion)"
    else:
        raise UnknownName(f"unknown group name {name!r}")
    # B's n m^2 entries go through the budget before any matrix is built
    check_work_budget(n * m * m, "the matrices B", "entries")
    return make_group(m, n, build(), epsilon, name=label)


def _walk(out, terms):
    """Sum the terms of a pass over a group's table of nonzero entries into
    the columns of ``out``, in the order given.  A term (c, u, f, v) adds
    (u f) v, or u f when v is None, to out[..., c]; u and v are coordinate
    columns (or arrays that broadcast to one) and f a number.  A column
    starts from its first term, not from 0.0, and a column that no term
    names keeps what it held.  A product by f = 1 or -1 is exact, so it is
    not formed: a term with f = -1 is subtracted.  Every term is formed in
    place, in its column or in one scratch column.  Returns out."""
    started = set()
    scratch = None
    for c, u, f, v in terms:
        col = out[..., c]
        if c in started:
            if scratch is None:
                scratch = np.empty_like(col)
            dst = scratch
        else:
            started.add(c)
            dst = col
        if f not in (1.0, -1.0):
            np.multiply(u, f, out=dst)
            if v is not None:
                dst *= v
        elif v is None:
            np.copyto(dst, u)
        else:
            np.multiply(u, v, out=dst)
        if dst is col:
            if f == -1.0:
                np.negative(col, out=col)
        elif f == -1.0:
            col -= dst
        else:
            col += dst
    return out


def bracket(G, x1, x2):
    """Second-layer bilinear term: s-vector of <B^(s) x1, x2>, the sum of
    x2_i b^(s)_ij x1_j over the nonzero entries.  x1 and x2 hold the whole
    first layer, or both omit x_1 (a first layer with x_1 = 0), when only
    the entries with i, j >= 2 enter.  Broadcasts over leading axes."""
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    k = G.m - x1.shape[-1]
    out = np.zeros(np.broadcast_shapes(x1.shape[:-1], x2.shape[:-1]) + (G.n,))
    return _walk(out, ((s, x2[..., i - k], b, x1[..., j - k])
                       for s, i, j, b in G._terms if i >= k and j >= k))


def _row_dot(G, r, x):
    """s-vector of sum_j b^(s)_rj x_j, row r of each B^(s) against x, which
    holds the whole first layer or omits x_1 (its j = 1 entry is then
    dropped)."""
    k = G.m - x.shape[-1]
    return _walk(np.zeros(x.shape[:-1] + (G.n,)),
                 ((s, x[..., j - k], b, None) for s, i, j, b in G._terms
                  if i == r and j >= k))


def _check_finite(*points):
    """ValidationError unless every entry of every array is finite."""
    if not all(np.all(np.isfinite(p)) for p in points):
        raise ValidationError("point has a NaN or infinite coordinate")


def _finite_point(G, p):
    """_check_point, and ValidationError unless every entry is finite."""
    p = _check_point(G, p)
    _check_finite(p)
    return p


def multiply(G, p, q):
    """Group product p * q; ValidationError on a NaN or infinite entry."""
    return _multiply(G, _finite_point(G, p), _finite_point(G, q))


def _multiply(G, p, q):
    """p * q of checked point arrays p and q."""
    x1, y1 = p[..., :G.m], p[..., G.m:]
    x2, y2 = q[..., :G.m], q[..., G.m:]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    np.add(x1, x2, out=out[..., :G.m])
    y = np.add(y1, y2, out=out[..., G.m:])
    cross = bracket(G, x1, x2)
    cross *= 0.5
    y += cross
    return out


def inverse(G, p):
    """Group inverse, p^(-1) = -p; ValidationError on a NaN or infinite entry."""
    return -_finite_point(G, p)


def dilate(G, lam, p):
    """Anisotropic dilation: x -> lam x, y -> lam^2 y; ValidationError on a
    NaN or infinite entry of p."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise NonPositiveLambda(f"dilation factor must be positive and finite, got {lam}")
    p = _finite_point(G, p)
    lam = lam[..., None]
    return np.concatenate([lam * p[..., :G.m], lam ** 2 * p[..., G.m:]], axis=-1)


def homogeneous_norm(G, p):
    """max(|x|, eps |y|^(1/2)); 1-homogeneous under dilations.
    ValidationError on a NaN or infinite entry."""
    return _norm(G, _finite_point(G, p))


def _norm(G, p):
    """homogeneous_norm of a checked point array."""
    return _layer_norm(G, p[..., :G.m], p[..., G.m:])


def _sum_of_squares(x):
    """Sum of x_c^2 over the last axis: column by column in np.sum's order,
    which is sequential below 8 entries, and np.sum itself from 8 on."""
    x = np.asarray(x, dtype=float)
    if not 0 < x.shape[-1] < 8:
        return np.sum(x * x, axis=-1)
    total = x[..., 0] * x[..., 0]
    square = np.empty_like(total)
    for c in range(1, x.shape[-1]):
        total += np.multiply(x[..., c], x[..., c], out=square)
    return total


def _layer_norm(G, x, y):
    """The homogeneous norm of the point with layers x and y; x may omit
    coordinates that are zero."""
    return np.maximum(np.sqrt(_sum_of_squares(x)),
                      G.epsilon * np.sqrt(np.sqrt(_sum_of_squares(y))))


def distance(G, p, q):
    """Left-invariant quasi-distance d(p, q) = ||p^(-1) q||; ValidationError
    on a NaN or infinite entry."""
    p, q = _finite_point(G, p), _finite_point(G, q)
    return _norm(G, _multiply(G, -p, q))


def _sample_unit_ball(G, count, rng):
    """Sample points in the unit ball of the eps=1 norm (dilation-normalized)."""
    p = rng.uniform(-1.0, 1.0, size=(count, G.dim))
    nrm = np.maximum(np.linalg.norm(p[:, :G.m], axis=-1),
                     np.sqrt(np.linalg.norm(p[:, G.m:], axis=-1)))
    lam = 1.0 / np.maximum(nrm, 1.0)
    p[:, :G.m] *= lam[:, None]
    p[:, G.m:] *= (lam ** 2)[:, None]
    return p


def triangle_violations(G, p, q, epsilon):
    """Count pairs with ||p*q|| > ||p|| + ||q|| beyond fp slack, at ``epsilon``."""
    Ge = replace(G, epsilon=float(epsilon))
    p, q = _check_point(G, p), _check_point(G, q)
    lhs = _norm(Ge, _multiply(Ge, p, q))
    rhs = _norm(Ge, p) + _norm(Ge, q)
    return int(np.count_nonzero(lhs - rhs > TRIANGLE_FP_SLACK * np.maximum(1.0, rhs)))


def calibrate_epsilon(G):
    """Largest eps on the dyadic grid 2^0, 2^-1, ... that satisfies the
    triangle inequality on ``CALIBRATION_PAIRS`` (10^4) pairs sampled from
    the unit ball with ``np.random.default_rng(0)``: p, then q.

    The same pairs are reused for every eps, so the per-pair pass set is
    monotone in eps and the search result is well-defined and deterministic.
    """
    rng = np.random.default_rng(0)
    p = _sample_unit_ball(G, CALIBRATION_PAIRS, rng)
    q = _sample_unit_ball(G, CALIBRATION_PAIRS, rng)
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
    # the row sizes below need the integers that make_group checks
    m, n = _dimensions(m, n)
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
