"""Command-line front door.

Subcommands: group {validate,info}, gradient, residual, lipschitz,
characteristics, broadstar, area, mollify, cone, suite.  Structured output
is JSON (sorted keys, no timestamps) so identical configs and seeds yield
byte-identical reports; curves are CSV.  Exit codes: 0 success, 1
validation or usage error, 2 numerical failure.

Each shared option is declared once, on a parent parser that the
subcommands taking it inherit: ``--out/--json`` (all), ``--seed`` (all
but ``group``), ``--group/--phi`` (the eight commands that read a graph
function), ``--w`` and ``--j/--from/--T/--steps``.
Those eight read ``--group`` then ``--phi`` through :func:`_inputs`.
Every ``cmd_*`` returns its report; :func:`run` parses and runs one
command and writes ``--out``, and :func:`main` prints the report once.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import area as area_mod
from . import calculus, characteristics, cones, mollify, splitting
from . import group as gp
from .errors import NonFiniteState, NumericalError, ValidationError
from .functions import load_graph_function, load_vector_field
from .quadrature import seeded_rng


def _write_atomic(path, text):
    """Write ``text`` to ``path`` through a temp file beside it: a write that
    fails leaves neither a partial file nor the temp file, and its OSError
    names ``path``."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".carnot-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                # the mode open() would give the file, not mkstemp's 0600
                mask = os.umask(0)
                os.umask(mask)
                os.fchmod(fh.fileno(), 0o666 & ~mask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None


def _jsonable(obj, key=""):
    """Plain-python, valid-JSON view of a report.  A NaN or infinite value
    raises :class:`NumericalError` naming its key (``rows[1].error``)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v, f"{key}.{k}" if key else str(k))
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v, f"{key}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not np.isfinite(v):
            raise NumericalError(f"report value {key} is {v}")
        return v
    return obj


def _json_text(report):
    return json.dumps(report, indent=2, sort_keys=True)


def _emit(report, args):
    """Print the report: JSON with --json, else text."""
    if args.json:
        print(_json_text(report))
    elif args.command == "suite":
        rows = report["rows"]
        width = max([4] + [len(r["name"]) for r in rows])
        for r in rows:
            print(f"{r['name']:<{width}}  {'PASS' if r['pass'] else 'FAIL'}")
        print(f"{report['failed']} failing of {len(rows)}")
    else:
        for key, value in sorted(report.items()):
            print(f"{key}: {value}")


def _parse_floats(text, option):
    try:
        return np.array([float(tok) for tok in text.replace(";", ",").split(",") if tok])
    except ValueError:
        raise ValidationError(
            f"{option} must be comma-separated numbers, got {text!r}") from None


def _inputs(args):
    """The group of ``--group``, then the graph function of ``--phi`` over it."""
    G = gp.load_group(args.group)
    return G, load_graph_function(args.phi, G)


def cmd_group(args):
    G = gp.load_group(args.file)
    report = {
        "m": G.m,
        "n": G.n,
        "homogeneous_dimension": G.homogeneous_dimension,
        "epsilon": G.epsilon,
        "valid": True,
    }
    if args.action == "info":
        report["B"] = [G.B[s].tolist() for s in range(G.n)]
        report["b_max"] = G.b_max
    return report


def cmd_gradient(args):
    G, phi = _inputs(args)
    a = _parse_floats(args.at, "--at")
    w = calculus.intrinsic_gradient(G, phi, a)
    return {"at": a.tolist(), "gradient": np.atleast_1d(w).tolist(),
            "seed": args.seed}


def cmd_residual(args):
    G, phi = _inputs(args)
    w = load_vector_field(args.w, G)
    vals = _parse_floats(args.zeta, "--zeta")
    if vals.size != G.base_dim + 1:
        raise ValidationError(f"--zeta needs {G.base_dim + 1} numbers (the centre's "
                              f"{G.base_dim} coordinates, then the radius), "
                              f"got {vals.size}")
    zeta = calculus.TestFunction(vals[:-1], vals[-1])
    report = calculus.residual_report(G, phi, w, zeta, points_per_axis=args.grid)
    report["seed"] = args.seed
    return report


def cmd_lipschitz(args):
    G, phi = _inputs(args)
    est = splitting.estimate_intrinsic_lipschitz(G, phi, pair_samples=args.pairs,
                                                 seed=args.seed)
    return {"lipschitz_estimate": est, "pairs": args.pairs, "seed": args.seed}


def _integrate_curve(G, phi, args):
    a0 = _parse_floats(getattr(args, "from"), "--from")
    return characteristics.integrate_characteristic(G, phi, args.j, a0,
                                                    args.T, args.steps)


def cmd_characteristics(args):
    G, phi = _inputs(args)
    curve = _integrate_curve(G, phi, args)
    report = {
        "steps": len(curve.t_grid) - 1,
        "step": curve.step,
        "error_estimate": curve.error_estimate,
        "truncated": curve.truncated,
        "exit_time": curve.exit_time,
        "seed": args.seed,
    }
    if args.out:
        buf = io.StringIO()
        table = np.column_stack([curve.t_grid, curve.gamma, curve.phi_along])
        header = ",".join(["t"] + [f"gamma_{s}" for s in range(1, G.n + 1)] + ["phi"])
        np.savetxt(buf, table, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=header, comments="")
        _write_atomic(args.out, buf.getvalue())
        report["curve_csv"] = args.out
    return report


def cmd_broadstar(args):
    G, phi = _inputs(args)
    w = load_vector_field(args.w, G)
    curve = _integrate_curve(G, phi, args)
    w_j = w.components[args.j - 2].eval_extended
    res = characteristics.broadstar_residual(curve, phi, w_j)
    return {"broadstar_residual": res, "j": args.j,
            "integrator_error_estimate": curve.error_estimate,
            "seed": args.seed}


def cmd_area(args):
    G, phi = _inputs(args)
    report = area_mod.area_report(G, phi, points_per_axis=args.grid)
    report["seed"] = args.seed
    return report


def cmd_mollify(args):
    G, phi = _inputs(args)
    alphas = _parse_floats(args.alphas, "--alphas")
    report = mollify.approximation_report(G, phi, alphas, c_level=args.c,
                                          grid_per_axis=args.grid)
    report["seed"] = args.seed
    return report


def cmd_cone(args):
    G, phi = _inputs(args)
    sample = phi.domain.sample(2048, seeded_rng(args.seed))
    # a sampled point may sit within one difference step of the box edge
    w = calculus.intrinsic_gradient(G, phi, sample, check_domain=False)
    w_sup = float(np.max(np.sqrt(gp._sum_of_squares(w))))
    if not np.isfinite(w_sup):
        raise NonFiniteState(f"intrinsic gradient of phi is {w_sup} on a sampled point")
    k = args.k if args.k is not None else 1.0 / np.sqrt(1.0 + w_sup ** 2)
    b12 = max(G.b_max, 1e-12)
    beta = cones.beta_for_k(k, G.epsilon, b12)
    report = cones.check_cone_containment(G, phi, beta, samples=args.samples,
                                          seed=args.seed)
    report.update({"k": float(k), "seed": args.seed,
                   "gradient_sup_measured": w_sup})
    return report


def _number(value):
    return isinstance(value, (int, float)) and bool(np.isfinite(value))


def _suite_scenarios(config):
    """The scenarios of a suite config, each checked for its shape before
    any runs: a command other than ``suite``, string args, and expect rules
    that are objects with a finite number ``value`` and ``tol``."""
    scenarios = config.get("scenarios", []) if isinstance(config, dict) else None
    if not isinstance(scenarios, list):
        raise ValidationError("a suite config is an object with a 'scenarios' list")
    for i, scn in enumerate(scenarios):
        where = f"suite scenario {i}"
        if not (isinstance(scn, dict) and isinstance(scn.get("command"), str)
                and isinstance(scn.get("name", ""), str)):
            raise ValidationError(f"{where} needs a 'command' string (and a string "
                                  "'name' if it has one)")
        if scn["command"] == "suite":
            raise ValidationError(f"{where} runs a nested suite")
        args, expect = scn.get("args", []), scn.get("expect", {})
        if not (isinstance(args, list) and all(isinstance(a, str) for a in args)):
            raise ValidationError(f"{where}: 'args' must be a list of strings")
        if not (isinstance(expect, dict)
                and all(isinstance(r, dict) and _number(r.get("value"))
                        and _number(r.get("tol", 0.0)) for r in expect.values())):
            raise ValidationError(f"{where}: each 'expect' rule must be an object with "
                                  "a finite number 'value' and optional 'tol'")
    return scenarios


def cmd_suite(args):
    with open(args.config) as fh:
        config = json.load(fh)
    rows = []
    for scn in _suite_scenarios(config):
        name = scn.get("name", scn["command"])
        code, _, report = run([scn["command"], *scn.get("args", [])])
        ok = code == 0
        for key, rule in scn.get("expect", {}).items():
            got = report.get(key) if report else None
            # a missing key or a value that is not a number fails the scenario
            if not _number(got) or abs(got - rule["value"]) > rule.get("tol", 0.0):
                ok = False
        rows.append({"name": name, "pass": ok})
    failed = sum(not r["pass"] for r in rows)
    return {"rows": rows, "failed": failed, "seed": args.seed}


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="numerics for step-2 Carnot groups and intrinsic graphs")
    subs = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--json", action="store_true")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--seed", type=int, default=0)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--group", required=True)
    inputs.add_argument("--phi", required=True)
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--w", required=True)
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--j", type=int, default=2)
    curve.add_argument("--from", required=True, help="comma-separated start base point")
    curve.add_argument("--T", type=float, default=1.0)
    curve.add_argument("--steps", type=int, default=1000)

    def add(fn, shared, **kw):
        p = subs.add_parser(fn.__name__.removeprefix("cmd_"), parents=shared, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add(cmd_group, [output], help="validate or describe a group file")
    p.add_argument("action", choices=["validate", "info"])
    p.add_argument("file")

    p = add(cmd_gradient, [inputs, common], help="intrinsic gradient at a base point")
    p.add_argument("--at", required=True, help="comma-separated base point")

    p = add(cmd_residual, [inputs, field, common],
            help="distributional residual of D phi = w")
    p.add_argument("--zeta", required=True,
                   help="bump spec: center coordinates then radius")
    p.add_argument("--grid", type=int, help="points per axis (default by base dimension)")

    p = add(cmd_lipschitz, [inputs, common], help="intrinsic Lipschitz estimate")
    p.add_argument("--pairs", type=int, default=10_000)

    add(cmd_characteristics, [inputs, curve, common])
    add(cmd_broadstar, [inputs, field, curve, common])

    p = add(cmd_area, [inputs, common], help="graph area integral with order estimate")
    p.add_argument("--grid", type=int,
                   help="coarsest points per axis (default by base dimension)")

    p = add(cmd_mollify, [inputs, common], help="smoothing pipeline convergence report")
    p.add_argument("--alphas", default="0.2,0.1,0.05")
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--grid", type=int, default=32)

    p = add(cmd_cone, [inputs, common], help="cone-containment sweep")
    p.add_argument("--k", type=float)
    p.add_argument("--samples", type=int, default=10_000)

    p = add(cmd_suite, [common], help="run a scenario suite from a config file")
    p.add_argument("config")
    return parser


def run(argv):
    """Parse ``argv`` and run its command: (exit code, args, report).

    Usage errors and files that cannot be read or written exit 1
    (``--help`` exits 0), a report holding a NaN or infinite value exits 2,
    and a report whose ``failed`` count is nonzero exits 1; the report is
    None when the command raised.  The report is plain python (see
    :func:`_jsonable`) and is written to ``--out`` here, except for
    characteristics, whose command writes its curve CSV there.  numpy's
    invalid-value and divide warnings are silenced: a non-finite result is
    reported as a typed error instead.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (1 if exc.code else 0), None, None
    try:
        with np.errstate(invalid="ignore", divide="ignore"):
            report = _jsonable(args.fn(args))
        if args.out and args.command != "characteristics":
            _write_atomic(args.out, _json_text(report) + "\n")
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, args, None
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2, args, None
    except json.JSONDecodeError as exc:
        print(f"error: invalid input file ({exc})", file=sys.stderr)
        return 1, args, None
    return (1 if report.get("failed") else 0), args, report


def main(argv=None):
    code, args, report = run(argv)
    if report is not None:
        _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
