"""The two workloads: set-up, and one pass of ops with a check in each.

Every call into ``carnot`` goes through ``T.call`` so that a traced run
records it as a span named ``<module>.<function>``.  An op fails when it
raises, when a CLI command exits nonzero, or when its check is false.
"""

import contextlib
import io
import json
import math
import sys
import traceback
from types import SimpleNamespace

import carnot
from carnot import area, cli, mollify
from carnot.functions import Box, GraphFunction

import inputs

# smoothing: sizes of the three kinds of op
H1_ALPHAS = [0.2, 0.1, 0.05]
H1_BASE_GRID = 4
H1_KERNEL_AXIS = 16
H2_ALPHAS = [0.3, 0.15]
H2_BASE_GRID = 2
H2_KERNEL_AXIS = 8
MASS_ALPHA = 0.05
MASS_BASE_GRID = 4
MASS_TOLERANCE = 0.03
EDGE_GRADIENT_MAX = 1e-8

# reports
LIPSCHITZ_PAIRS = 10_000
CONE_SAMPLES = 10_000
AREA_LINEAR_TOL = 1e-10
GRADIENT_EXPR_TOL = 1e-12
GRADIENT_GRID_TOL = 1e-6


class PassLog:
    """What one pass did: ops attempted and failed, latency samples, and the
    deterministic counts that every pass must repeat.  Apart from ``ops``,
    each count is read from what the program returned: its reports' rows,
    the grid sizes and sample counts they echo, and built kernels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.latency_ms = []
        self.wall_s = 0.0
        self.counts = {"ops": 0, "report_rows": 0, "base_points": 0,
                       "kernel_nodes": 0, "sampled_pairs": 0, "cone_samples": 0}

    def run(self, T, name, check):
        """Run one op; ``check`` does its work and says whether the output is
        correct."""
        self.attempted += 1
        self.counts["ops"] += 1
        times = []
        try:
            with T.op(name, times.append):
                ok = bool(check())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            self.failures.append(name)
        self.latency_ms.append(times[0] * 1e3)


# -- smoothing -----------------------------------------------------------------------

def smoothing_setup(p):
    G1 = carnot.standard_group("heisenberg", 1)
    G2 = carnot.standard_group("heisenberg", 2)
    h1 = [(GraphFunction.from_expression(f"{q['slope']!r}*x2",
                                         Box([0.0] * 2, [1.0] * 2), 2, 1), q["level"])
          for q in p["h1"]]
    a, b = p["h2_coef"]
    phi2 = GraphFunction.from_expression(f"{a!r}*x2 + {b!r}*x4",
                                         Box([0.0] * 4, [1.0] * 4), 4, 1)
    return SimpleNamespace(G1=G1, G2=G2, h1=h1, phi2=phi2, c2=p["h2_level"])


def smoothing_pass(s, T, log):
    def h1_report(phi, c):
        rep = T.call("mollify.approximation_report", mollify.approximation_report,
                     s.G1, phi, H1_ALPHAS, c_level=c,
                     grid_per_axis=H1_BASE_GRID, points_per_axis=H1_KERNEL_AXIS)
        log.counts["report_rows"] += len(rep["rows"])
        log.counts["base_points"] += rep["grid_per_axis"] ** 2
        return rep["passed"]

    def h2_report():
        rep = T.call("mollify.approximation_report", mollify.approximation_report,
                     s.G2, s.phi2, H2_ALPHAS, c_level=s.c2,
                     grid_per_axis=H2_BASE_GRID, points_per_axis=H2_KERNEL_AXIS)
        log.counts["report_rows"] += len(rep["rows"])
        log.counts["base_points"] += rep["grid_per_axis"] ** 4
        return rep["passed"]

    phi1 = s.h1[0][0]

    def gradient_mass():
        kernel = T.call("mollify.MollifierKernel", mollify.MollifierKernel,
                        s.G1, MASS_ALPHA)
        rep = T.call("mollify.horizontal_gradient_mass",
                     mollify.horizontal_gradient_mass, s.G1, phi1, kernel,
                     base_per_axis=MASS_BASE_GRID)
        ref = T.call("area.area_integral", area.area_integral, s.G1, phi1)
        log.counts["kernel_nodes"] += kernel.nodes.shape[0]
        return (abs(rep["mass"] - ref) <= MASS_TOLERANCE * ref
                and rep["edge_gradient_max"] <= EDGE_GRADIENT_MAX)

    # with three cheap H^1 reports to one H^2 report, op_ms.p50 falls among
    # the H^1 reports and op_ms.p90 among the H^2 ones once a run makes
    # two passes or more
    for phi, c in s.h1:
        log.run(T, "h1_report", lambda: h1_report(phi, c))
    log.run(T, "h2_report", h2_report)
    log.run(T, "gradient_mass", gradient_mass)


# -- reports ------------------------------------------------------------------------

def reports_setup(p):
    return SimpleNamespace(**p)


def run_cli(T, argv):
    """``carnot <argv> --json`` in-process: (exit code, parsed report)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = T.call("cli.main", cli.main, argv + ["--json"])
    if code != 0:
        sys.stderr.write(err.getvalue())
        return code, None
    return code, json.loads(out.getvalue())


def analytic_gradient(B, m, n, coef, u):
    """(D_2 phi, ..., D_m phi) at base point u for
    phi = a x2 + b y_n + c sin(x_m), computed here in plain Python."""
    x = {i: u[i - 2] for i in range(2, m + 1)}
    y_n = u[m - 1 + n - 1]
    a, b, c = coef["a"], coef["b"], coef["c"]
    phi = a * x[2] + b * y_n + c * math.sin(x[m])
    out = []
    for j in range(2, m + 1):
        d_xj = (a if j == 2 else 0.0) + (c * math.cos(x[m]) if j == m else 0.0)
        row = B[n - 1][j - 1]
        c_n = phi * row[0] + 0.5 * sum(x[i] * row[i - 1] for i in range(2, m + 1))
        out.append(d_xj + c_n * b)
    return out


def _close(got, want, tol):
    return len(got) == len(want) and all(
        abs(g - w) <= tol * (1.0 + abs(w)) for g, w in zip(got, want))


def _finite(values):
    return all(math.isfinite(v) for v in values)


def reports_pass(s, T, log):
    def phi_ops(g, phi, B, grid_kind):
        d = g["m"] + g["n"] - 1
        res_grid, area_grid = inputs.REPORT_GRIDS[d]
        common = ["--group", g["path"], "--phi", phi["path"], "--seed", str(phi["seed"])]

        def gradient():
            code, rep = run_cli(T, ["gradient", *common,
                                    "--at=" + ",".join(repr(v) for v in phi["at"])])
            want = analytic_gradient(B, g["m"], g["n"], phi["coef"], phi["at"])
            tol = GRADIENT_GRID_TOL if grid_kind else GRADIENT_EXPR_TOL
            return code == 0 and _close(rep["gradient"], want, tol)

        def lipschitz():
            code, rep = run_cli(T, ["lipschitz", *common,
                                    "--pairs", str(LIPSCHITZ_PAIRS)])
            if code != 0:
                return False
            log.counts["sampled_pairs"] += rep["pairs"]
            return _finite([rep["lipschitz_estimate"]])

        def residual():
            code, rep = run_cli(T, ["residual", *common, "--w", g["w_path"],
                                    "--zeta=" + inputs.zeta_arg(phi["lo"], phi["hi"]),
                                    "--grid", str(res_grid)])
            if code != 0:
                return False
            log.counts["base_points"] += rep["grid"] ** d
            return _finite(rep["residual"])

        def area_op():
            code, rep = run_cli(T, ["area", *common, "--grid", str(area_grid)])
            if code != 0:
                return False
            log.counts["base_points"] += sum(k ** d for k in rep["grids"])
            if phi["coef"]["b"] == 0.0 and phi["coef"]["c"] == 0.0 and not grid_kind:
                want = math.sqrt(1.0 + phi["coef"]["a"] ** 2)
                return abs(rep["area_integral"] - want) <= AREA_LINEAR_TOL
            return _finite([rep["area_integral"]])

        def cone():
            code, rep = run_cli(T, ["cone", *common, "--samples", str(CONE_SAMPLES)])
            if code != 0:
                return False
            log.counts["cone_samples"] += rep["samples"]
            return rep["violations"] == 0

        ops = [("gradient", gradient), ("lipschitz", lipschitz),
               ("residual", residual), ("area", area_op)]
        if not grid_kind:
            # on a grid phi, `carnot cone` fails for some --seed values: its
            # finite-difference gradient samples reach the box edge (NOTES.md)
            ops.append(("cone", cone))
        for name, op in ops:
            log.run(T, name, op)

    for g in s.groups:
        B = inputs.group_matrices(g["key"])
        for action in ("validate", "info"):
            log.run(T, f"group_{action}", lambda action=action: run_cli(
                T, ["group", action, g["path"]])[0] == 0)
        for phi in g["phis"]:
            phi_ops(g, phi, B, grid_kind=False)
    phi_ops(s.groups[0], s.grid_phi, inputs.group_matrices("h1"), grid_kind=True)

    def suite():
        code, rep = run_cli(T, ["suite", s.suite])
        if code != 0:
            return False
        log.counts["report_rows"] += len(rep["rows"])
        return rep["failed"] == 0

    log.run(T, "suite", suite)


SETUP = {"smoothing": smoothing_setup, "reports": reports_setup}
PASS = {"smoothing": smoothing_pass, "reports": reports_pass}
