"""Per-layer micro-suite: public calls of each ``carnot`` module at stated
sizes, each normalised by its unit of work.

Cheap calls are repeated and the median is kept; the heavy ones (the
free_step2(3) Hoelder modulus and the H^2 convolution) run once.
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import time

import numpy as np

import carnot
from carnot import area, calculus, characteristics, cli, cones, functions, group, mollify, splitting
from carnot.functions import Box, GraphFunction

_clock = time.perf_counter

BATCH = 100_000
SINGLE_CALLS = 2_000
HOLDER_GRID = 10
AREA_GRID = 256
F_ALPHA_POINTS = 1024
LEVEL_SET_POINTS = 32
GRADIENT_POINTS = 64


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        start = _clock()
        fn()
        times.append(_clock() - start)
    return statistics.median(times)


def _factor_grid(dim, half, k):
    """The midpoint grid of ``mollify.MollifierKernel`` on [-half, half]^dim."""
    axis = -half + (np.arange(k) + 0.5) * (2.0 * half / k)
    mesh = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def separable_kernel_counts(G, alpha, k):
    """(nodes, nonzero) of the kernel on G at k points per axis, from the
    horizontal and vertical factor grids alone: a node's weight is the
    product of the package's bump on each factor, so the full node array is
    never built.  ``run`` checks this against built kernels on H^1 and H^2."""
    x = _factor_grid(G.m, alpha, k) / alpha
    y = _factor_grid(G.n, alpha * alpha / G.epsilon ** 2, k) / alpha ** 2
    fx = mollify._bump(np.sum(x * x, axis=-1))
    fy = mollify._bump(G.epsilon ** 4 * np.sum(y * y, axis=-1))
    fx, fy = fx[fx > 0], fy[fy > 0]
    nonzero = 0
    for start in range(0, fx.size, 256):
        nonzero += int(np.count_nonzero(np.multiply.outer(fx[start:start + 256], fy)))
    return k ** G.dim, nonzero


def _graph_points(G, phi, count, spread, rng):
    """Points within ``spread`` of the graph of phi, in the graph coordinate:
    Phi(a) * (s e1) moves Phi(a) by s along the graph direction."""
    A = phi.domain.sample(count, rng)
    shift = np.zeros((count, G.dim))
    shift[:, 0] = rng.uniform(-spread, spread, size=count)
    return group.multiply(G, carnot.graph_map(G, phi, A), shift)


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--json"])
    if code != 0:
        raise RuntimeError(f"carnot {' '.join(argv)} exited {code}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workdir, suite_path):
    """Every per-layer metric as {name: (value, unit)}, plus a detail dict."""
    rng = np.random.default_rng(0)
    out = {}
    detail = {}
    G1 = carnot.standard_group("heisenberg", 1, epsilon=1.0)
    G2 = carnot.standard_group("heisenberg", 2, epsilon=1.0)
    F3 = carnot.standard_group("free_step2", 3, epsilon=1.0)
    unit2 = Box([0.0, 0.0], [1.0, 1.0])
    expr = "0.8*x2 + 0.2*sin(x2)*cos(y)"
    phi = GraphFunction.from_expression(expr, unit2, 2, 1)
    lin = GraphFunction.from_expression("x2", unit2, 2, 1)

    # group: products and norms on point batches, and calibration
    for tag, G in (("h1", G1), ("free3", F3)):
        P = rng.uniform(-1.0, 1.0, size=(BATCH, G.dim))
        Q = rng.uniform(-1.0, 1.0, size=(BATCH, G.dim))
        out[f"group.multiply.ns_per_point.{tag}"] = (
            _median_time(lambda: group.multiply(G, P, Q), 5) / BATCH * 1e9, "ns")
        out[f"group.norm.ns_per_point.{tag}"] = (
            _median_time(lambda: group.homogeneous_norm(G, P), 5) / BATCH * 1e9, "ns")
    out["group.calibrate_ms"] = (
        _median_time(lambda: group.calibrate_epsilon(F3), 3) * 1e3, "ms")

    # functions: parse, single-point and batched evaluation
    out["functions.parse_ms"] = (_median_time(
        lambda: GraphFunction.from_expression(expr, unit2, 2, 1), 5) * 1e3, "ms")
    a1 = np.array([0.4, 0.6])

    def single_evals():
        for _ in range(SINGLE_CALLS):
            phi.eval_extended(a1)

    out["functions.expr_eval.us_per_call"] = (
        _median_time(single_evals, 3) / SINGLE_CALLS * 1e6, "us")
    A = unit2.sample(BATCH, rng)
    out["functions.expr_eval.ns_per_point"] = (
        _median_time(lambda: phi.eval_extended(A), 5) / BATCH * 1e9, "ns")
    axis = np.linspace(0.0, 1.0, 65)
    grid_phi = GraphFunction.from_grid(np.add.outer(0.8 * axis, 0.1 * axis), unit2)
    out["functions.grid_eval.ns_per_point"] = (
        _median_time(lambda: grid_phi.eval_extended(A), 5) / BATCH * 1e9, "ns")

    # splitting: quasi-distance pairs, Lipschitz sweep, Hoelder modulus
    B = unit2.sample(BATCH, rng)
    out["splitting.quasidistance.ns_per_pair"] = (_median_time(
        lambda: splitting.graph_quasidistance(G1, phi, A, B, check_domain=False), 5)
        / BATCH * 1e9, "ns")
    out["splitting.lipschitz_estimate_ms"] = (_median_time(
        lambda: splitting.estimate_intrinsic_lipschitz(G1, phi, 10_000), 3) * 1e3, "ms")
    box5 = Box([-2.0] * 5, [2.0] * 5)
    phi5 = GraphFunction.from_expression("0.25*y1", box5, 3, 3)
    rss_before = _peak_rss_mb()
    out["splitting.holder_modulus_s"] = (_median_time(
        lambda: splitting.vertical_holder_modulus(
            phi5, [4.0 * math.sqrt(3)], grid_per_axis=HOLDER_GRID, n_vertical=3), 1), "s")
    # ru_maxrss is the process peak so far: the (X, Ny, Ny) arrays set it
    out["splitting.holder_modulus.peak_rss_mb"] = (_peak_rss_mb(), "MB")
    detail["rss_before_holder_mb"] = rss_before
    # (X, Ny, Ny) float64 array of value differences: X = 10^2, Ny = 10^3
    out["splitting.holder_modulus.mb_computed"] = (
        HOLDER_GRID ** 2 * HOLDER_GRID ** 6 * 8 / 1e6, "MB")

    # calculus: frozen coefficients, intrinsic gradient, weak residual
    def single_frozen():
        for _ in range(SINGLE_CALLS):
            calculus.frozen_coefficients(G1, phi, 2, a1)

    out["calculus.frozen_coefficients.us_per_call"] = (
        _median_time(single_frozen, 3) / SINGLE_CALLS * 1e6, "us")
    inner = 0.1 + 0.8 * A
    out["calculus.intrinsic_gradient.ns_per_point.analytic"] = (_median_time(
        lambda: calculus.intrinsic_gradient(G1, phi, inner), 5) / BATCH * 1e9, "ns")
    out["calculus.intrinsic_gradient.ns_per_point.fd"] = (_median_time(
        lambda: calculus.intrinsic_gradient(G1, phi, inner, h=1e-5), 5)
        / BATCH * 1e9, "ns")
    w = functions.VectorField.constant([0.5], unit2)
    zeta = calculus.TestFunction([0.5, 0.5], 0.3)
    out["calculus.residual_ms"] = (_median_time(
        lambda: calculus.distributional_residual(G1, phi, w, zeta, points_per_axis=64),
        3) * 1e3, "ms")

    # characteristics: one 200-step curve (plus its 400-step rerun)
    wide = GraphFunction.from_expression("0.3*sin(x2)*cos(y)",
                                         Box([-2.0] * 2, [2.0] * 2), 2, 1)

    def w_j(pts):
        grad = wide.partials(pts)
        c = calculus.frozen_coefficients(G1, wide, 2, pts)
        return grad[..., 0] + c[..., 0] * grad[..., 1]

    a0 = np.array([0.1, -0.2])
    steps = 200
    out["characteristics.rk4.us_per_step"] = (_median_time(
        lambda: characteristics.integrate_characteristic(G1, wide, 2, a0, 1.0, steps),
        3) / (3 * steps) * 1e6, "us")
    curve = characteristics.integrate_characteristic(G1, wide, 2, a0, 1.0, steps)
    c_h = max(m for _, m in splitting.vertical_holder_modulus(
        wide, [4.0], grid_per_axis=10))
    out["characteristics.lipschitz_along_curve_ms"] = (_median_time(
        lambda: characteristics.lipschitz_along_curve(G1, curve, wide, w_j, c_h), 5)
        * 1e3, "ms")
    out["characteristics.broadstar_ms"] = (_median_time(
        lambda: characteristics.broadstar_residual(curve, wide, w_j), 5) * 1e3, "ms")

    # area: one quadrature on a stated grid
    out["area.ns_per_node"] = (_median_time(
        lambda: area.area_integral(G1, phi, points_per_axis=AREA_GRID), 3)
        / AREA_GRID ** 2 * 1e9, "ns")

    # mollify: convolution cost per (point x node), kernel sizes, root finding
    K1 = mollify.MollifierKernel(G1, 0.1, points_per_axis=16)
    K2 = mollify.MollifierKernel(G2, 0.15, points_per_axis=8)
    P1 = _graph_points(G1, lin, F_ALPHA_POINTS, 0.1, rng)
    phi2 = GraphFunction.from_expression("0.5*x2 + 0.25*x4", Box([0.0] * 4, [1.0] * 4),
                                         4, 1)
    P2 = _graph_points(G2, phi2, F_ALPHA_POINTS, 0.15, rng)
    for tag, G, f, K, P, reps in (("h1", G1, lin, K1, P1, 3), ("h2", G2, phi2, K2, P2, 1)):
        out[f"mollify.f_alpha.ns_per_point_node.{tag}"] = (_median_time(
            lambda: mollify.mollified_indicator(G, f, K, P), reps)
            / (len(P) * K.nodes.shape[0]) * 1e9, "ns")
    counts = {"h1_16": (K1.nodes.shape[0], int(np.count_nonzero(K1.weights))),
              "h2_8": (K2.nodes.shape[0], int(np.count_nonzero(K2.weights))),
              "free3_16": separable_kernel_counts(F3, 0.1, 16)}
    detail["separable_counts_match_built"] = (
        separable_kernel_counts(G1, 0.1, 16) == counts["h1_16"]
        and separable_kernel_counts(G2, 0.15, 8) == counts["h2_8"])
    for tag, (nodes, nonzero) in counts.items():
        out[f"mollify.kernel.nodes.{tag}"] = (nodes, "count")
        out[f"mollify.kernel.nonzero.{tag}"] = (nonzero, "count")
        out[f"mollify.kernel.nonzero_ratio.{tag}"] = (nonzero / nodes, "ratio")
    out["mollify.kernel_build_ms"] = (_median_time(
        lambda: mollify.MollifierKernel(G2, 0.15, points_per_axis=8), 3) * 1e3, "ms")
    A_root = unit2.sample(LEVEL_SET_POINTS, rng)
    P_root = carnot.graph_map(G1, lin, A_root)
    root_s = _median_time(
        lambda: mollify.level_set_phi_alpha(G1, lin, K1, 0.45, A_root), 1)
    eval_s = _median_time(lambda: mollify.mollified_indicator(G1, lin, K1, P_root), 3)
    out["mollify.level_set.f_evals_per_root"] = (root_s / eval_s, "evals")
    P_grad = P1[:GRADIENT_POINTS]
    out["mollify.gradient.ms_per_point"] = (_median_time(
        lambda: mollify.horizontal_gradient_mollified(G1, lin, K1, P_grad), 3)
        / GRADIENT_POINTS * 1e3, "ms")

    # cones: containment sweep
    beta = cones.beta_for_k(1.0 / math.sqrt(2.0), G1.epsilon, 1.0)
    out["cones.containment.ns_per_sample"] = (_median_time(
        lambda: cones.check_cone_containment(G1, lin, beta, samples=10_000), 3)
        / 10_000 * 1e9, "ns")

    # cli: file loading, command overhead, suite against its scenarios
    gpath = os.path.join(workdir, "layers_group.json")
    ppath = os.path.join(workdir, "layers_phi.json")
    with open(gpath, "w") as fh:
        json.dump({"m": 2, "n": 1, "B": [[0.0, 1.0, -1.0, 0.0]], "epsilon": None}, fh)
    with open(ppath, "w") as fh:
        json.dump({"kind": "expr", "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
                   "expr": expr}, fh)

    def load():
        G = group.load_group(gpath)
        functions.load_graph_function(ppath, G)

    out["cli.load_ms"] = (_median_time(load, 5) * 1e3, "ms")
    at = np.array([0.4, 0.6])
    command = _median_time(lambda: _quiet_cli(
        ["gradient", "--group", gpath, "--phi", ppath, "--at", "0.4,0.6"]), 5)
    direct = _median_time(lambda: calculus.intrinsic_gradient(G1, phi, at), 5)
    out["cli.overhead_ms"] = ((command - direct) * 1e3, "ms")
    out["cli.suite_ms"] = (_median_time(
        lambda: _quiet_cli(["suite", suite_path]), 3) * 1e3, "ms")
    with open(suite_path) as fh:
        scenarios = json.load(fh)["scenarios"]

    def scenarios_direct():
        for scn in scenarios:
            _quiet_cli([scn["command"], *scn["args"]])

    out["cli.suite_scenarios_ms"] = (_median_time(scenarios_direct, 3) * 1e3, "ms")
    return out, detail
