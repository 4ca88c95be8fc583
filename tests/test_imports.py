"""Which heavy dependencies each CLI path loads, in a fresh interpreter:
sympy only once an expression is compiled, scipy only once a grid is
interpolated, a curve integral is taken or a mollifier is built; and
README's module pointers name every module, each with a docstring."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import carnot

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(pathlib.Path(carnot.__file__).resolve().parents[1])

SCRIPT = r"""
import contextlib, io, json, sys

def loaded():
    return {name: name in sys.modules for name in ("scipy", "sympy")}

steps = {}
import carnot, carnot.cli as cli
steps["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["group", "validate", "data/heisenberg1.json"])]
    steps["group validate"] = loaded()
    codes.append(cli.main(["gradient", "--group", "data/heisenberg1.json",
                           "--phi", "data/phi_linear.json", "--at", "0.5,0.5"]))
    steps["gradient"] = loaded()
    codes.append(cli.main(["broadstar", "--group", "data/heisenberg1.json",
                           "--phi", "data/phi_linear_wide.json",
                           "--w", "data/w_one.json", "--from", "0,0.25",
                           "--steps", "64"]))
    steps["broadstar"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_every_export_resolves():
    # a name left in __all__ after its object is deleted would dangle
    for name in carnot.__all__:
        assert hasattr(carnot, name), name


def test_readme_points_to_every_module_docstring():
    # README's "Modules" section is one `python -m pydoc carnot.<module>`
    # paragraph per module: each must import with a docstring to show, and
    # a new module must get a paragraph
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Modules\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"python -m pydoc carnot\.(\w+)", section)
    assert len(named) == len(set(named))
    for name in named:
        assert (importlib.import_module(f"carnot.{name}").__doc__ or "").strip(), name
    modules = {path.stem for path in pathlib.Path(carnot.__file__).parent.glob("*.py")}
    assert set(named) == modules - {"__init__", "errors"}


def test_heavy_imports_load_on_first_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    none = {"scipy": False, "sympy": False}
    assert result["steps"] == {
        "import": none,
        "group validate": none,
        "gradient": {"scipy": False, "sympy": True},
        "broadstar": {"scipy": True, "sympy": True},
    }
