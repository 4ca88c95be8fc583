import contextlib
import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from carnot import errors
from carnot.cli import _jsonable, main, run
from carnot.group import standard_group
from carnot.quadrature import MAX_GRID_NODES


@pytest.fixture()
def heis_file(tmp_path):
    path = tmp_path / "heis1.json"
    path.write_text(json.dumps(
        {"m": 2, "n": 1, "B": [[0.0, 1.0, -1.0, 0.0]], "epsilon": 1.0}))
    return str(path)


@pytest.fixture()
def phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]},
         "expr": "x2"}))
    return str(path)


@pytest.fixture()
def w_one_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]},
         "expr": "1"}))
    return str(path)


def test_group_validate(heis_file, capsys):
    assert main(["group", "validate", heis_file]) == 0
    out = capsys.readouterr().out
    assert "m: 2" in out
    assert "homogeneous_dimension: 4" in out


def test_group_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 2, "n": 1,
                               "B": [[0.0, 1.0, 1.0, 0.0]], "epsilon": 1.0}))
    assert main(["group", "validate", str(bad)]) == 1
    assert "skew" in capsys.readouterr().err


def test_group_missing_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"m": 2, "n": 1}))
    assert main(["group", "validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "B" in err


def test_gradient_command(heis_file, phi_file, capsys):
    code = main(["gradient", "--group", heis_file, "--phi", phi_file,
                 "--at", "0.3,0.2", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gradient"] == pytest.approx([1.0])


def test_residual_command(heis_file, phi_file, w_one_file, capsys):
    code = main(["residual", "--group", heis_file, "--phi", phi_file,
                 "--w", w_one_file, "--zeta", "0,0,1.5", "--grid", "128",
                 "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["residual"][0]) < 1e-3


def test_lipschitz_command(heis_file, phi_file, capsys):
    code = main(["lipschitz", "--group", heis_file, "--phi", phi_file,
                 "--pairs", "2000", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["lipschitz_estimate"] <= 1.0 + 1e-9


def test_characteristics_command(heis_file, phi_file, tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code = main(["characteristics", "--group", heis_file, "--phi", phi_file,
                 "--j", "2", "--from", "0,0.25", "--T", "1", "--steps", "200",
                 "--out", str(out_csv), "--json"])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "gamma_1", "phi"]
    assert len(rows) == 202
    t_last = float(rows[-1][0])
    gamma_last = float(rows[-1][1])
    assert gamma_last == pytest.approx(0.25 - t_last ** 2 / 2.0, abs=1e-9)


def test_broadstar_command(heis_file, phi_file, w_one_file, capsys):
    code = main(["broadstar", "--group", heis_file, "--phi", phi_file,
                 "--w", w_one_file, "--j", "2", "--from", "0,0.25",
                 "--T", "1", "--steps", "500", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["broadstar_residual"] <= 1e-8


def test_area_command(heis_file, tmp_path, capsys):
    phi = tmp_path / "phi_unit.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
         "expr": "x2"}))
    out = tmp_path / "report.json"
    code = main(["area", "--group", heis_file, "--phi", str(phi),
                 "--grid", "32", "--out", str(out), "--json"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["area_integral"] == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert report["estimated_order"] is None or report["estimated_order"] > 1.5


def test_cone_command(heis_file, phi_file, capsys):
    code = main(["cone", "--group", heis_file, "--phi", phi_file,
                 "--samples", "2000", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 0


def test_characteristics_numerical_failure_exit(heis_file, tmp_path, capsys):
    # start point on the domain edge heading out: numerical failure, exit 2
    phi = tmp_path / "phi_small.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [-0.5, -0.5], "hi": [0.5, 0.5]},
         "expr": "x2"}))
    code = main(["characteristics", "--group", heis_file, "--phi", str(phi),
                 "--j", "2", "--from", "0.5,0.0", "--T", "1", "--steps", "64"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_mollify_command_small(heis_file, tmp_path, capsys):
    phi = tmp_path / "phi_unit.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
         "expr": "x2"}))
    code = main(["mollify", "--group", heis_file, "--phi", str(phi),
                 "--alphas", "0.2,0.1", "--c", "0.45", "--grid", "4", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["rows"]) == 2


@pytest.fixture()
def heis2_mollify_argv(tmp_path):
    # H^2 at the default --grid 32: 32^4 base points times 325,632 nonzero
    # kernel nodes
    G = standard_group("heisenberg", 2, epsilon=1.0)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"m": G.m, "n": G.n, "epsilon": 1.0,
                                 "B": [b.reshape(-1).tolist() for b in G.B]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [0.0] * 4, "hi": [1.0] * 4},
         "expr": "x2"}))
    return ["mollify", "--group", str(group), "--phi", str(phi)]


def test_mollify_work_over_budget_rejected(heis2_mollify_argv, capsys):
    code, _, report = run(heis2_mollify_argv)
    assert code == 1 and report is None
    err = capsys.readouterr().err
    assert f"{32 ** 4 * 325_632} point-node pairs exceeds the budget" in err


def test_mollify_over_budget_rejected_before_any_work(heis2_mollify_argv, capsys,
                                                      monkeypatch):
    # the budget is checked on the counted kernel nodes, before the base
    # grid's gradient or any kernel is computed
    from carnot import mollify

    def forbidden(*args, **kwargs):
        raise AssertionError("work done before the budget check")

    monkeypatch.setattr(mollify, "intrinsic_gradient", forbidden)
    monkeypatch.setattr(mollify, "MollifierKernel", forbidden)
    code, _, report = run(heis2_mollify_argv)
    assert code == 1 and report is None
    assert "point-node pairs exceeds the budget" in capsys.readouterr().err


@pytest.mark.parametrize("command, target", [("area", "missing/r.json"), ("area", "dir"),
                                             ("characteristics", "dir")])
def test_unwritable_out_exits_1(heis_file, phi_file, tmp_path, capsys, command, target):
    # the --out write is inside run's error handling: one error line and no
    # traceback, and neither the file nor a temp file is left behind
    work = tmp_path / "work"
    (work / "dir").mkdir(parents=True)
    argv = [command, "--group", heis_file, "--phi", phi_file,
            "--out", str(work / target)]
    argv += ["--grid", "8"] if command == "area" else ["--from", "0,0.25", "--steps", "16"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {work / target}") and err.count("\n") == 1
    assert [p.name for p in work.rglob("*")] == ["dir"]


@pytest.mark.parametrize("command", ["lipschitz", "characteristics"])
def test_out_file_has_the_mode_open_gives(heis_file, phi_file, tmp_path, command):
    # the temp file behind --out is made 0600; the report or curve CSV gets
    # the mode of a file that open() creates in the same directory
    out = tmp_path / "out"
    argv = [command, "--group", heis_file, "--phi", phi_file, "--out", str(out)]
    argv += ["--pairs", "100"] if command == "lipschitz" else ["--from", "0,0.25",
                                                               "--steps", "16"]
    assert main(argv) == 0
    (tmp_path / "plain").write_text("")
    assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_determinism_byte_identical(heis_file, phi_file, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert main(["lipschitz", "--group", heis_file, "--phi", phi_file,
                     "--pairs", "1000", "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_inputs_never_mutated(heis_file, phi_file, tmp_path):
    import pathlib
    before = (pathlib.Path(heis_file).read_bytes(),
              pathlib.Path(phi_file).read_bytes())
    main(["gradient", "--group", heis_file, "--phi", phi_file, "--at", "0,0"])
    main(["lipschitz", "--group", heis_file, "--phi", phi_file,
          "--pairs", "500", "--out", str(tmp_path / "r.json")])
    after = (pathlib.Path(heis_file).read_bytes(),
             pathlib.Path(phi_file).read_bytes())
    assert before == after


def test_suite_empty(tmp_path, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"scenarios": []}))
    assert main(["suite", str(cfg)]) == 0
    assert "0 failing of 0" in capsys.readouterr().out


def test_bundled_demo_suite(monkeypatch, capsys):
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    if not (root / "data" / "suite.json").exists():
        pytest.skip("demo data not present")
    monkeypatch.chdir(root)
    assert main(["suite", "data/suite.json"]) == 0
    assert "0 failing of 3" in capsys.readouterr().out


def test_suite_pass_and_fail(tmp_path, heis_file, phi_file, w_one_file, capsys):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"scenarios": [
        {"name": "broadstar-linear", "command": "broadstar",
         "args": ["--group", heis_file, "--phi", phi_file, "--w", w_one_file,
                  "--j", "2", "--from", "0,0.25", "--T", "1", "--steps", "200"],
         "expect": {"broadstar_residual": {"value": 0.0, "tol": 1e-8}}},
        {"name": "gradient-wrong-expect", "command": "gradient",
         "args": ["--group", heis_file, "--phi", phi_file, "--at", "0,0"],
         "expect": {"seed": {"value": 5.0, "tol": 0.0}}},
    ]}))
    code = main(["suite", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "broadstar-linear" in out and "PASS" in out
    assert "gradient-wrong-expect" in out and "FAIL" in out
    assert "1 failing of 2" in out


def test_usage_errors_exit_1(heis_file, capsys):
    assert main(["area", "--bogus"]) == 1
    assert main(["group", "validate", heis_file, "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert main(["--help"]) == 0


# the eight commands that read a graph function, each with small valid
# arguments besides --group and --phi
INPUT_COMMANDS = {
    "gradient": ["--at", "0.3,0.2"],
    "residual": ["--w", "W", "--zeta", "0,0,1.5", "--grid", "8"],
    "lipschitz": ["--pairs", "200"],
    "characteristics": ["--from", "0,0.25", "--steps", "8"],
    "broadstar": ["--w", "W", "--from", "0,0.25", "--steps", "8"],
    "area": ["--grid", "4"],
    "mollify": ["--alphas", "0.2", "--grid", "4"],
    "cone": ["--samples", "200"],
}


@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_input_commands_take_the_shared_options(heis_file, phi_file, w_one_file,
                                                tmp_path, capsys, command):
    out = tmp_path / "out"
    extra = [w_one_file if a == "W" else a for a in INPUT_COMMANDS[command]]
    code = main([command, "--group", heis_file, "--phi", phi_file, *extra,
                 "--seed", "3", "--json", "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 3
    if command == "characteristics":
        assert out.read_bytes().startswith(b"t,gamma_1,phi\r\n")
    else:
        assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("dropped", ["--group", "--phi"])
@pytest.mark.parametrize("command", INPUT_COMMANDS)
def test_input_commands_require_group_and_phi(heis_file, phi_file, w_one_file, capsys,
                                              command, dropped):
    kept = "--phi" if dropped == "--group" else "--group"
    files = {"--group": heis_file, "--phi": phi_file}
    extra = [w_one_file if a == "W" else a for a in INPUT_COMMANDS[command]]
    assert main([command, kept, files[kept], *extra]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"the following arguments are required: {dropped}\n")


@pytest.mark.parametrize("argv", [["group", "validate", "FILE", "--phi", "x"],
                                  ["suite", "FILE", "--group", "x"]])
def test_commands_without_inputs_reject_them(heis_file, capsys, argv):
    assert main([heis_file if a == "FILE" else a for a in argv]) == 1
    assert f"unrecognized arguments: {argv[-2]} x" in capsys.readouterr().err


def test_cone_grid_phi_samples_near_edge(heis_file, tmp_path, capsys):
    # seed 5 draws a point within one difference step of the box edge
    axis = np.linspace(-1.0, 1.0, 17)
    values = 0.6 * axis[:, None] + 0.1 * axis[None, :]
    np.savetxt(tmp_path / "vals.csv", values.reshape(1, -1), delimiter=",")
    phi = tmp_path / "phi_grid.json"
    phi.write_text(json.dumps(
        {"kind": "grid", "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
         "grid": {"shape": [17, 17], "values": "vals.csv"}}))
    code = main(["cone", "--group", heis_file, "--phi", str(phi),
                 "--samples", "2000", "--seed", "5", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["violations"] == 0


@pytest.mark.parametrize("name, param, base_dim, grid", [
    # --grid 64 on H^2 refines to 256^4 nodes; --grid 8 on the quaternion
    # group to 32^6
    ("heisenberg", 2, 4, 64),
    ("h_type", "quaternion", 6, 8),
])
def test_area_grid_over_budget_rejected_up_front(tmp_path, capsys, name, param,
                                                 base_dim, grid):
    G = standard_group(name, param, epsilon=1.0)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"m": G.m, "n": G.n, "epsilon": 1.0,
                                 "B": [b.reshape(-1).tolist() for b in G.B]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [0.0] * base_dim, "hi": [1.0] * base_dim},
         "expr": "x2"}))
    tracemalloc.start()
    try:
        code = main(["area", "--group", str(group), "--phi", str(phi),
                     "--grid", str(grid)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    # a refinement grid is rejected before the first integral is computed
    assert f"exceeds the budget of {MAX_GRID_NODES} nodes" in err
    assert peak < 2 ** 26


def test_default_grid_follows_base_dimension(tmp_path, capsys):
    # H^2 has a 4-D base: 8 points per axis (area refines to 16 and 32),
    # where a fixed default of 64 exceeds the node budget
    G = standard_group("heisenberg", 2, epsilon=1.0)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"m": G.m, "n": G.n, "epsilon": 1.0,
                                 "B": [b.reshape(-1).tolist() for b in G.B]}))
    domain = {"lo": [0.0] * 4, "hi": [1.0] * 4}
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"kind": "expr", "domain": domain, "expr": "x2"}))
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"components": [
        {"kind": "expr", "domain": domain, "expr": e} for e in ("1", "0", "0")]}))
    common = ["--group", str(group), "--phi", str(phi), "--json"]
    assert main(["area", *common]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grids"] == [8, 16, 32]
    assert report["area_integral"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert main(["residual", *common, "--w", str(w),
                 "--zeta", "0.5,0.5,0.5,0.5,0.4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["grid"] == 8
    assert len(report["residual"]) == 3


@pytest.mark.parametrize("command", ["area", "residual", "mollify"])
def test_zero_grid_rejected(monkeypatch, capsys, command):
    # --grid 0 reaches the quadrature grid, which rejects it, instead of
    # falling back to the default grid
    import pathlib
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parents[1])
    extra = []
    if command == "residual":
        extra = ["--w", "data/w_one.json", "--zeta", "0.5,0.5,0.4"]
    assert main([command, "--group", "data/heisenberg1.json",
                 "--phi", "data/phi_linear.json", "--grid", "0", *extra]) == 1
    assert "positive count per axis" in capsys.readouterr().err


def test_mollify_reports_root_counters(heis_file, tmp_path, capsys):
    phi = tmp_path / "phi_unit.json"
    phi.write_text(json.dumps(
        {"kind": "expr", "domain": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
         "expr": "x2"}))
    argv = ["mollify", "--group", heis_file, "--phi", str(phi),
            "--alphas", "0.2,0.1", "--c", "0.45", "--grid", "4", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    for row in json.loads(first)["rows"]:
        # two bracket ends and at least one sweep per base point
        assert isinstance(row["section_evals"], int)
        assert row["section_evals"] >= 3 * 16
        assert 0.0 <= row["max_level_residual"] <= 1e-3
    # the counters are deterministic, so the report is too
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def _phi_spec(expr, half=1.0):
    return {"kind": "expr", "domain": {"lo": [-half, -half], "hi": [half, half]},
            "expr": expr}


@pytest.mark.parametrize("expr", [[1, 2], None, {"a": 1}, True, "[1, 2]"])
def test_non_text_expr_rejected(heis_file, tmp_path, capsys, expr):
    # a list or null ended in an AttributeError traceback, a dict in
    # "unknown symbols ['a']", and true was read as the number 1
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(_phi_spec(expr)))
    assert main(["gradient", "--group", heis_file, "--phi", str(phi),
                 "--at", "0.5,0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expression")
    assert "unknown symbols" not in err


@pytest.mark.parametrize("expr", ["sqrt(x2-2)", "nan"])
@pytest.mark.parametrize("command, key", [
    (["gradient", "--at", "0.5,0.5"], "gradient[0]"),
    (["area", "--grid", "8"], "area_integral"),
])
def test_non_finite_report_is_numerical_failure(heis_file, tmp_path, capsys,
                                                expr, command, key):
    # these reports exited 0 with the value printed as null
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(_phi_spec(expr)))
    argv = [command[0], "--group", heis_file, "--phi", str(phi), *command[1:]]
    with np.errstate(invalid="ignore"):
        assert main(argv + ["--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"report value {key} is nan" in err
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"name": "nan", "command": argv[0], "args": argv[1:]}]}))
        assert main(["suite", str(cfg), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"name": "nan", "pass": False}]


def test_rewritten_inputs_are_reloaded(tmp_path, capsys):
    # group calibration and expression compilation are memoised by content,
    # never by path: a rewritten file gives the new file's report
    group, phi = tmp_path / "group.json", tmp_path / "phi.json"
    results = []
    for scale, expr in [(1.0, "x2"), (8.0, "3*x2")]:
        group.write_text(json.dumps(
            {"m": 2, "n": 1, "B": [[0.0, scale, -scale, 0.0]], "epsilon": None}))
        phi.write_text(json.dumps(_phi_spec(expr)))
        assert main(["group", "info", str(group), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert main(["gradient", "--group", str(group), "--phi", str(phi),
                     "--at", "0.5,0.5", "--json"]) == 0
        results.append((info, json.loads(capsys.readouterr().out)))
    (info1, grad1), (info8, grad8) = results
    assert info1["B"] == [[[0.0, 1.0], [-1.0, 0.0]]] and info1["epsilon"] == 1.0
    assert info8["B"] == [[[0.0, 8.0], [-8.0, 0.0]]] and info8["epsilon"] == 0.5
    assert grad1["gradient"] == pytest.approx([1.0])
    assert grad8["gradient"] == pytest.approx([3.0])


@pytest.mark.parametrize("command, error", [
    (["mollify", "--grid", "0"], errors.ValidationError),
    (["mollify", "--alphas", ""], errors.ValidationError),
    (["lipschitz", "--pairs", "-5"], errors.ValidationError),
    (["lipschitz", "--pairs", "0"], errors.ValidationError),
    (["cone", "--samples", "-3"], errors.ValidationError),
    (["cone", "--samples", "0"], errors.ValidationError),
])
def test_bad_counts_are_validation_errors(heis_file, phi_file, capsys, command,
                                          error):
    # --grid 0 and --alphas "" ended in an untyped ValueError, --pairs -5 in a
    # TypeError, --samples -3 in a numpy ValueError, and --samples 0 exited 0
    # with no violations
    argv = [command[0], "--group", heis_file, "--phi", phi_file, *command[1:]]
    code, args, report = run(argv)
    assert (code, report) == (1, None)
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(error):
        args.fn(args)


@pytest.mark.parametrize("expr", ["sqrt(x2-2)", "nan"])
@pytest.mark.parametrize("command", [["lipschitz", "--pairs", "200"],
                                     ["cone", "--samples", "200"]])
def test_non_finite_phi_is_numerical_failure(heis_file, tmp_path, capsys, expr,
                                             command):
    # lipschitz said "all sampled pairs coincide" and cone said "k must lie
    # in (0, 1], got nan", both exit 1
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(_phi_spec(expr)))
    argv = [command[0], "--group", heis_file, "--phi", str(phi), *command[1:]]
    with np.errstate(invalid="ignore"):
        code, args, report = run(argv)
        assert (code, report) == (2, None)
        assert capsys.readouterr().err.startswith("numerical failure: ")
        with pytest.raises(errors.NonFiniteState):
            args.fn(args)


@pytest.mark.parametrize("command, option", [
    (["mollify", "--alphas", "abc"], "--alphas"),
    (["gradient", "--at", "0.5,x"], "--at"),
    (["residual", "--w", "W", "--zeta", "0.5,0.5,r"], "--zeta"),
    (["characteristics", "--from", "0,y"], "--from"),
    (["broadstar", "--w", "W", "--from", "0;zero"], "--from"),
])
def test_non_number_options_are_validation_errors(heis_file, phi_file, w_one_file,
                                                  capsys, command, option):
    # each ended in a ValueError traceback from float()
    argv = [command[0], "--group", heis_file, "--phi", phi_file,
            *[w_one_file if tok == "W" else tok for tok in command[1:]]]
    code, args, report = run(argv)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} must be comma-separated numbers")
    assert err.count("\n") == 1
    with pytest.raises(errors.ValidationError):
        args.fn(args)


@pytest.mark.parametrize("alpha", ["nan", "inf", "0.1,-inf"])
def test_non_finite_alpha_is_validation_error(heis_file, phi_file, capsys, alpha):
    # --alphas nan ran every root sweep, warned about a divide and exited 2
    # with "quadrature too coarse"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, report = run(["mollify", "--group", heis_file, "--phi", phi_file,
                               "--alphas", alpha, "--grid", "2"])
    assert (code, report) == (1, None)
    assert caught == []
    assert capsys.readouterr().err.startswith("error: alpha must be positive and finite")


@pytest.mark.parametrize("command", ["characteristics", "broadstar"])
def test_step_budget_rejected_before_allocating(heis_file, phi_file, w_one_file,
                                                capsys, command):
    # --steps 1e11 asked numpy for a 1.46 TiB array of RK4 rows
    argv = [command, "--group", heis_file, "--phi", phi_file, "--from", "0,0",
            "--steps", "100000000000"]
    if command == "broadstar":
        argv += ["--w", w_one_file]
    tracemalloc.start()
    try:
        code, _, report = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert f"exceeds the budget of {MAX_GRID_NODES} RK4 rows" in err
    assert peak < 2 ** 26


@pytest.mark.parametrize("command", [["lipschitz", "--pairs", "200"],
                                     ["cone", "--samples", "200"],
                                     ["gradient", "--at", "0.5,0.5"]])
def test_numerical_failure_prints_one_line(heis_file, tmp_path, capsys, command):
    # numpy's RuntimeWarning, with the lambdify source line, came before the
    # numerical failure line
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(_phi_spec("sqrt(x2-2)")))
    argv = [command[0], "--group", heis_file, "--phi", str(phi), *command[1:]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, report = run(argv)
    assert (code, report) == (2, None)
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("zeta", ["0.4", "0.5,0.4", "0.5,0.5,0.5,0.4"])
def test_zeta_count_is_validation_error(heis_file, phi_file, w_one_file, capsys,
                                        zeta):
    # --zeta 0.4 on a 2-D base ended in an untyped numpy broadcast ValueError
    argv = ["residual", "--group", heis_file, "--phi", phi_file, "--w", w_one_file,
            "--zeta", zeta, "--grid", "8"]
    code, args, report = run(argv)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert err.startswith("error: --zeta needs 3 numbers")
    assert f"got {zeta.count(',') + 1}" in err
    with pytest.raises(errors.ValidationError):
        args.fn(args)


@pytest.mark.parametrize("command", ["characteristics", "broadstar"])
@pytest.mark.parametrize("option, value", [("--T", "nan"), ("--T", "inf"),
                                           ("--from", "nan,0.25"), ("--from", "0,inf")])
def test_non_finite_curve_inputs_are_validation_errors(heis_file, phi_file,
                                                       w_one_file, capsys, command,
                                                       option, value):
    # --T nan said "state became non-finite" and --from nan,0.25 "outside the
    # domain", both exit 2
    argv = [command, "--group", heis_file, "--phi", phi_file, "--from", "0,0",
            "--steps", "16", option, value]
    if command == "broadstar":
        argv += ["--w", w_one_file]
    code, args, report = run(argv)
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    want = "error: need a finite T > 0" if option == "--T" else \
        "error: start point must be finite"
    assert err.startswith(want)
    with pytest.raises(errors.ValidationError):
        args.fn(args)


@pytest.mark.parametrize("command, unit", [(["lipschitz", "--pairs"], "pairs"),
                                          (["cone", "--samples"], "samples")])
@pytest.mark.parametrize("count", [MAX_GRID_NODES + 1, 10 ** 9])
def test_pair_and_sample_budget_rejected_before_allocating(heis_file, phi_file,
                                                           capsys, command, unit,
                                                           count):
    # --pairs 1e9 asked np.triu_indices for two index arrays of about 8 GB
    argv = [command[0], "--group", heis_file, "--phi", phi_file, command[1],
            str(count)]
    tracemalloc.start()
    try:
        code, _, report = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, report) == (1, None)
    err = capsys.readouterr().err
    assert f"of {count} {unit} exceeds the budget of {MAX_GRID_NODES} {unit}" in err
    assert peak < 2 ** 26


def _bad_file_probe(tmp_path, heis_file, phi_file, probe):
    """argv of one bad-file probe, its files written under tmp_path."""
    def write(name, data):
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    gradient = ["gradient", "--group", heis_file, "--phi", phi_file, "--at", "0,0"]
    heis = {"m": 2, "n": 1, "B": [[0.0, 1.0, -1.0, 0.0]], "epsilon": 1.0}
    domain = {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
    if probe == "expect-on-list-value":
        scn = {"command": "gradient", "args": gradient[1:],
               "expect": {"gradient": {"value": 1.0, "tol": 0.0}}}
        return ["suite", write("suite.json", {"scenarios": [scn]})]
    if probe == "expect-rule-not-object":
        scn = {"command": "gradient", "args": gradient[1:], "expect": {"seed": 0}}
        return ["suite", write("suite.json", {"scenarios": [scn]})]
    if probe == "expect-value-nan":
        # json reads NaN, and every |got - NaN| > tol is false: it passed
        scn = {"command": "gradient", "args": gradient[1:],
               "expect": {"seed": {"value": float("nan")}}}
        return ["suite", write("suite.json", {"scenarios": [scn]})]
    if probe == "scenarios-not-list":
        return ["suite", write("suite.json", {"scenarios": "abc"})]
    if probe == "suite-runs-itself":
        path = str(tmp_path / "suite.json")
        return ["suite", write("suite.json", {"scenarios": [
            {"command": "suite", "args": [path]}]})]
    if probe == "group-m-not-integer":
        return ["group", "validate", write("g.json", {**heis, "m": "x"})]
    if probe == "group-m-float":
        return ["group", "validate", write("g.json", {**heis, "m": 2.7})]
    if probe == "group-n-string":
        return ["group", "validate", write("g.json", {**heis, "n": "1"})]
    if probe == "group-m-bool":
        return ["group", "validate", write("g.json", {**heis, "m": True})]
    if probe == "group-epsilon-not-number":
        return ["group", "validate", write("g.json", {**heis, "epsilon": "x"})]
    if probe == "group-b-not-number":
        return ["group", "validate",
                write("g.json", {**heis, "B": [[0.0, "one", -1.0, 0.0]]})]
    if probe == "domain-bound-not-number":
        bad = write("phi.json", {"kind": "expr", "expr": "x2",
                                 "domain": {"lo": ["a", -1.0], "hi": [1.0, 1.0]}})
        return ["gradient", "--group", heis_file, "--phi", bad, "--at", "0,0"]
    if probe == "domain-bound-nan":
        # a NaN bound passed the lo < hi check and reached the sampler
        bad = write("phi.json", {"kind": "expr", "expr": "x2",
                                 "domain": {**domain, "lo": [float("nan"), -1.0]}})
        return ["cone", "--group", heis_file, "--phi", bad, "--samples", "100"]
    if probe == "phi-not-object":
        bad = write("phi.json", ["x2"])
        return ["gradient", "--group", heis_file, "--phi", bad, "--at", "0,0"]
    if probe == "w-components-not-list":
        bad = write("w.json", {"components": 5})
        return ["broadstar", "--group", heis_file, "--phi", phi_file, "--w", bad,
                "--from", "0,0", "--steps", "8"]
    if probe == "expr-constant-overflows":
        bad = write("phi.json", {"kind": "expr", "expr": "10**400*x2", "domain": domain})
        return ["gradient", "--group", heis_file, "--phi", bad, "--at", "0,0"]
    if probe == "grid-values-miss-shape":
        write("vals.csv", ",".join(["0.5"] * 9))
        bad = write("phi.json", {"kind": "grid", "domain": domain,
                                 "grid": {"shape": [4, 4], "values": "vals.csv"}})
        return ["gradient", "--group", heis_file, "--phi", bad, "--at", "0,0"]
    raise AssertionError(probe)


BAD_FILE_PROBES = [
    ("expect-on-list-value", None, None),
    ("expect-rule-not-object", errors.ValidationError, "rule must be an object"),
    ("expect-value-nan", errors.ValidationError, "a finite number 'value'"),
    ("scenarios-not-list", errors.ValidationError, "a 'scenarios' list"),
    ("suite-runs-itself", errors.ValidationError, "runs a nested suite"),
    ("group-m-not-integer", errors.ValidationError, "must be integers"),
    ("group-m-float", errors.ValidationError, "must be integers"),
    ("group-n-string", errors.ValidationError, "must be integers"),
    ("group-m-bool", errors.ValidationError, "must be integers"),
    ("group-epsilon-not-number", errors.EpsilonOutOfRange, "epsilon must be a number"),
    ("group-b-not-number", errors.ValidationError, "'B' entries must be numbers"),
    ("domain-bound-not-number", errors.ValidationError, "bounds must be numbers"),
    ("grid-values-miss-shape", errors.DimensionMismatch, "9 grid values"),
    ("domain-bound-nan", errors.ValidationError, "need finite lo < hi"),
    ("phi-not-object", errors.ValidationError, "a function spec is an object"),
    ("w-components-not-list", errors.ValidationError, "'components' must be a list"),
    ("expr-constant-overflows", errors.ValidationError, "constant too large for a float"),
]


@pytest.mark.parametrize("probe, error, message", BAD_FILE_PROBES,
                         ids=[probe for probe, _, _ in BAD_FILE_PROBES])
def test_bad_files_are_typed_errors(tmp_path, heis_file, phi_file, capsys, probe,
                                    error, message):
    # each of these escaped run() as a TypeError, AttributeError,
    # RecursionError or ValueError traceback; an expect on a value that is
    # not a number now fails its scenario like a missing key
    code, args, report = run(_bad_file_probe(tmp_path, heis_file, phi_file, probe))
    assert code == 1
    if error is None:
        assert report["failed"] == 1 and report["rows"][0]["pass"] is False
        return
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    with pytest.raises(error):
        args.fn(args)


@pytest.mark.parametrize("command, j", [("characteristics", "1"), ("broadstar", "3")])
def test_direction_outside_range_exits_1(heis_file, phi_file, w_one_file, capsys,
                                         command, j):
    # the RK4 stages no longer check j (they read a rate formed once per
    # curve), so integrate_characteristic checks it before anything else
    argv = [command, "--group", heis_file, "--phi", phi_file, "--from", "0,0",
            "--steps", "16", "--j", j]
    if command == "broadstar":
        argv += ["--w", w_one_file]
    code, args, report = run(argv)
    assert (code, report) == (1, None)
    assert "direction index j must be in 2..2" in capsys.readouterr().err
    with pytest.raises(errors.ValidationError):
        args.fn(args)


# -- fuzz: random files and argument values through run() -------------------------

_NAN, _INF = float("nan"), float("inf")
_HEIS = {"m": 2, "n": 1, "B": [[0.0, 1.0, -1.0, 0.0]], "epsilon": 1.0}
_UNIT = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}
_FUZZ_GROUPS = {
    "heis1": _HEIS,
    "b-short": {**_HEIS, "B": [[0.0, 1.0, -1.0]]},
    "b-nan": {**_HEIS, "B": [[0.0, _NAN, -_NAN, 0.0]]},
    "b-string": {**_HEIS, "B": "B"},
    "epsilon-inf": {**_HEIS, "epsilon": _INF},
    "m-list": {**_HEIS, "m": [2]},
    "not-object": [2, 1],
}
_FUZZ_PHIS = {
    "expr": {"kind": "expr", "domain": _UNIT, "expr": "0.5*x2 + 0.2*y"},
    "expr-nan": {"kind": "expr", "domain": _UNIT, "expr": "sqrt(x2 - 2)"},
    "expr-list": {"kind": "expr", "domain": _UNIT, "expr": ["x2"]},
    "domain-short": {"kind": "expr", "domain": {"lo": [0.0], "hi": [1.0]}, "expr": "x2"},
    "domain-nan": {"kind": "expr", "domain": {"lo": [_NAN, 0.0], "hi": [1.0, 1.0]},
                   "expr": "x2"},
    "domain-inverted": {"kind": "expr", "domain": {"lo": [1.0, 1.0], "hi": [0.0, 0.0]},
                        "expr": "x2"},
    "kind-unknown": {"kind": "spline", "domain": _UNIT, "expr": "x2"},
    "grid": {"kind": "grid", "domain": _UNIT,
             "grid": {"shape": [3, 3], "values": "values.csv"}},
    "grid-nan": {"kind": "grid", "domain": _UNIT,
                 "grid": {"shape": [3, 3], "values": "values_nan.csv"}},
    "grid-short": {"kind": "grid", "domain": _UNIT,
                   "grid": {"shape": [3, 4], "values": "values.csv"}},
    "grid-shape-string": {"kind": "grid", "domain": _UNIT,
                          "grid": {"shape": "3x3", "values": "values.csv"}},
    "not-object": ["x2"],
}
_FUZZ_WS = {
    "one": {"kind": "expr", "domain": _UNIT, "expr": "1"},
    "nan": {"kind": "expr", "domain": _UNIT, "expr": "sqrt(x2 - 2)"},
    "domain-short": {"kind": "expr", "domain": {"lo": [0.0], "hi": [1.0]}, "expr": "1"},
    "components-two": {"components": [{"kind": "expr", "domain": _UNIT,
                                       "expr": "1"}] * 2},
    "components-number": {"components": 5},
    "not-object": 5,
}
# each command with small valid values for its options; the fuzzed option
# takes one of _FUZZ_VALUES instead
_FUZZ_COMMANDS = {
    "gradient": {"--at": "0.25,0.5"},
    "residual": {"--zeta": "0.5,0.5,0.3", "--grid": "8"},
    "lipschitz": {"--pairs": "100"},
    "characteristics": {"--from": "0.5,0.5", "--T": "0.25", "--steps": "8", "--j": "2"},
    "broadstar": {"--from": "0.5,0.5", "--T": "0.25", "--steps": "8", "--j": "2"},
    "area": {"--grid": "4"},
    "mollify": {"--alphas": "0.2", "--c": "0.5", "--grid": "2"},
    "cone": {"--samples": "100", "--k": "0.5"},
}
_OVER_BUDGET = str(10 ** 12)
_FUZZ_VALUES = ["0", "-3", "nan", _OVER_BUDGET]
# the options that size an array, and so go through the work budget
_COUNT_OPTIONS = {"--grid", "--pairs", "--samples", "--steps"}


@st.composite
def _fuzz_case(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    options = dict(_FUZZ_COMMANDS[command])
    fuzzed = draw(st.sampled_from([None, *sorted(options)]))
    if fuzzed is not None:
        options[fuzzed] = draw(st.sampled_from(_FUZZ_VALUES))
    return (command, draw(st.sampled_from(sorted(_FUZZ_GROUPS))),
            draw(st.sampled_from(sorted(_FUZZ_PHIS))),
            draw(st.sampled_from(sorted(_FUZZ_WS))), options, fuzzed)


@given(case=_fuzz_case())
def test_cli_fuzz_exits_with_typed_errors(tmp_path_factory, case):
    # every run exits 0, 1 or 2 within a memory bound, any failure is a
    # CarnotError, and a count over the budget is rejected before it is built
    command, group, phi, w, options, fuzzed = case
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "values.csv").write_text(",".join(["0.5", "0.25", "0.0"] * 3))
    (tmp / "values_nan.csv").write_text(",".join(["0.5", "nan", "0.0"] * 3))
    files = {}
    for name, data in [("group", _FUZZ_GROUPS[group]), ("phi", _FUZZ_PHIS[phi]),
                       ("w", _FUZZ_WS[w])]:
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(data))
    argv = [command, "--group", str(files["group"]), "--phi", str(files["phi"])]
    if command in ("residual", "broadstar"):
        argv += ["--w", str(files["w"])]
    for option, value in options.items():
        argv += [f"{option}={value}"]
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err):
            code, args, report = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1, 2)
    assert peak < 2 ** 26
    if code == 0:
        assert report is not None
        return
    assert report is None
    if args is not None:
        # the command, or the check of its report for non-finite values
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(errors.CarnotError):
                _jsonable(args.fn(args))
    valid_files = (group, phi) == ("heis1", "expr") and w == "one"
    if valid_files and fuzzed in _COUNT_OPTIONS and options[fuzzed] == _OVER_BUDGET:
        assert "exceeds the budget" in err.getvalue()
