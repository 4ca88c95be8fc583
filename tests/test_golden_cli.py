"""The README CLI examples, ``gradient``, ``area``, ``lipschitz`` and
``cone`` on heisenberg(2) and the quaternion group, ``gradient``, ``area``,
``lipschitz`` and ``residual`` on a grid phi over heisenberg(1) and
heisenberg(2), and ``suite
data/suite.json`` against recorded reports: a refactor must leave every
``--json`` report (and the characteristics curve CSV) byte-identical.  ``mollify`` runs on a coarse
base grid of 8 points per axis to keep its run time short.

After an intended change of a report, rewrite the recordings with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review their diff;
it writes none of them unless every example exits 0.
"""

import contextlib
import io
import os
import sys

import pytest

from carnot.cli import main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(REPO, "tests", "golden")
CURVE_PLACEHOLDER = "CURVE_CSV"

G = ["--group", "data/heisenberg1.json"]
PHI = ["--phi", "data/phi_linear.json"]
WIDE = ["--phi", "data/phi_linear_wide.json"]
CURVE = ["--j", "2", "--from", "0,0.25", "--T", "1", "--steps", "1000"]
# groups beyond H^1, each with a phi that has a sin term in the vertical
# coordinates, so D_j phi reads the b^(s)_{j1} column as well as the drift
HEIS2 = ["--group", "data/heisenberg2.json", "--phi", "data/phi_heis2_sin.json"]
QUAT = ["--group", "data/quaternion.json", "--phi", "data/phi_quat_sin.json"]
# sampled (grid) phi: a 9 x 7 grid on H^1, interpolated in two axes, and a
# 5 x 4 x 1 x 3 grid on heisenberg(2), whose four axes and one-node axis take
# the general multilinear path
GRID_H1 = ["--group", "data/heisenberg1.json", "--phi", "data/phi_grid_h1.json"]
GRID_HEIS2 = ["--group", "data/heisenberg2.json", "--phi", "data/phi_grid_heis2.json"]
EXAMPLES = {
    "group_validate": ["group", "validate", "data/heisenberg1.json"],
    "group_info": ["group", "info", "data/heisenberg1.json"],
    "gradient": ["gradient", *G, *PHI, "--at", "0.5,0.5"],
    "lipschitz": ["lipschitz", *G, *PHI, "--pairs", "10000"],
    "residual": ["residual", *G, *PHI, "--w", "data/w_one.json",
                 "--zeta", "0.5,0.5,0.4", "--grid", "128"],
    "characteristics": ["characteristics", *G, *WIDE, *CURVE],
    "broadstar": ["broadstar", *G, *WIDE, "--w", "data/w_one.json", *CURVE],
    "area": ["area", *G, *PHI, "--grid", "128"],
    "cone": ["cone", *G, *WIDE, "--samples", "10000"],
    "mollify": ["mollify", *G, *PHI, "--c", "0.45", "--grid", "8"],
    "suite": ["suite", "data/suite.json"],
    "gradient_heis2": ["gradient", *HEIS2, "--at", "0.3,-0.2,0.4,0.1"],
    "area_heis2": ["area", *HEIS2, "--grid", "4"],
    "lipschitz_heis2": ["lipschitz", *HEIS2, "--pairs", "10000"],
    "cone_heis2": ["cone", *HEIS2, "--samples", "10000"],
    "gradient_quat": ["gradient", *QUAT, "--at", "0.3,-0.2,0.4,0.1,-0.5,0.25"],
    "area_quat": ["area", *QUAT, "--grid", "2"],
    "lipschitz_quat": ["lipschitz", *QUAT, "--pairs", "10000"],
    "cone_quat": ["cone", *QUAT, "--samples", "10000"],
    "gradient_grid": ["gradient", *GRID_H1, "--at", "0.3,-0.45"],
    "area_grid": ["area", *GRID_H1, "--grid", "32"],
    "lipschitz_grid": ["lipschitz", *GRID_H1, "--pairs", "10000"],
    "residual_grid": ["residual", *GRID_H1, "--w", "data/w_one.json",
                      "--zeta", "0.1,-0.2,0.5", "--grid", "64"],
    "gradient_grid_heis2": ["gradient", *GRID_HEIS2, "--at", "0.3,-0.2,0.4,0.1"],
    "area_grid_heis2": ["area", *GRID_HEIS2, "--grid", "4"],
    "lipschitz_grid_heis2": ["lipschitz", *GRID_HEIS2, "--pairs", "10000"],
    "residual_grid_heis2": ["residual", *GRID_HEIS2, "--w", "data/w_heis2.json",
                            "--zeta", "0.1,-0.2,0.3,0.05,0.5", "--grid", "8"],
}


def run_example(name, csv_path):
    """(exit code, --json stdout, curve CSV text or None), run from the repo
    root; the echoed curve CSV path is replaced by a placeholder."""
    argv = EXAMPLES[name] + ["--json"]
    if name == "characteristics":
        argv += ["--out", csv_path]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = out.getvalue().replace(csv_path, CURVE_PLACEHOLDER)
    curve = None
    if name == "characteristics":
        with open(csv_path, newline="") as fh:
            curve = fh.read()
    return code, text, curve


def _read(name):
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_cli_report_matches_recording(name, tmp_path):
    code, text, curve = run_example(name, str(tmp_path / "curve.csv"))
    assert code == 0
    assert text == _read(f"{name}.json")
    if curve is not None:
        assert curve == _read("characteristics_curve.csv")


if __name__ == "__main__":
    import tempfile

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(EXAMPLES):
            code, text, curve = run_example(name, os.path.join(tmp, "curve.csv"))
            if code != 0:
                sys.exit(f"{name} exited {code}; no recording was written")
            results[f"{name}.json"] = text
            if curve is not None:
                results["characteristics_curve.csv"] = curve
    os.makedirs(GOLDEN, exist_ok=True)
    for filename, text in results.items():
        with open(os.path.join(GOLDEN, filename), "w", newline="") as fh:
            fh.write(text)
