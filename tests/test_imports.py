"""Which heavy dependencies each CLI path loads, in a fresh interpreter:
neither scipy nor sympy, not for an expression, a grid phi or a curve
integral, and no module imports either;
README's module pointers name every module, each with a docstring; and
no module keeps an import or a private helper that nothing uses."""

import ast
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
    codes.append(cli.main(["mollify", "--group", "data/heisenberg1.json",
                           "--phi", "data/phi_linear.json", "--grid", "4"]))
    steps["mollify"] = loaded()
    codes.append(cli.main(["broadstar", "--group", "data/heisenberg1.json",
                           "--phi", "data/phi_linear_wide.json",
                           "--w", "data/w_one.json", "--from", "0,0.25",
                           "--steps", "64"]))
    steps["broadstar"] = loaded()
    codes.append(cli.main(["gradient", "--group", "data/heisenberg1.json",
                           "--phi", "data/phi_grid_h1.json", "--at", "0.3,-0.45"]))
    steps["gradient on a grid"] = loaded()
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


def test_no_unused_imports_or_private_helpers():
    # no linter runs here, and a deletion leaves stale names behind: every
    # module but __init__ uses each name it imports, and each module-level
    # _private function or class is named somewhere in the package
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(carnot.__file__).parent.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    stale = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        stale.append(f"{module}: import {name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__") \
                    and node.name not in referenced:
                stale.append(f"{module}: {node.name}")
    assert stale == []


def test_no_module_imports_a_test_dependency():
    # scipy and sympy are test dependencies only: the package's numpy code
    # is checked against them, and no module may import either
    for path in pathlib.Path(carnot.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            assert not any(name.split(".")[0] in ("scipy", "sympy") for name in names), \
                path.name


def test_no_command_loads_a_heavy_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0, 0]
    none = {"scipy": False, "sympy": False}
    assert result["steps"] == {step: none for step in (
        "import", "group validate", "gradient", "mollify", "broadstar",
        "gradient on a grid")}


def test_defaulted_parameter_count_is_pinned():
    # each defaulted parameter is a mode that callers can reach and tests
    # must cover; the count over src/carnot may not grow, and when a default
    # goes this number goes down with it
    count = 0
    for path in pathlib.Path(carnot.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arguments):
                count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
    assert count == 40


# Point batches stay coordinate-major: every (..., k) batch of k coordinates
# is allocated by quadrature._coordinate_major, as the np.moveaxis view of a
# (k, ...) buffer.  These sites keep a row-major one, each for its reason.
ROW_MAJOR = {
    "characteristics._rk4_path": "the curve is written one state, one row, per RK4 step",
}
# attributes that hold a coordinate count (G.m, G.n, G.dim, G.base_dim,
# box.dim), and the package's names for a dimension
COUNT_ATTRIBUTES = {"m", "n", "dim", "base_dim"}
COUNT_NAMES = {"d", "dim"}


def _scopes(tree):
    """(name, node) of each top-level function and method of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _count_names(scope):
    """The local names a scope binds to an expression of coordinate counts
    (k = G.m - 1, v0 = d - G.n), to a fixpoint."""
    names, grown = set(COUNT_NAMES), True
    while grown:
        grown = False
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id not in names and _has_count(node.value, names):
                names.add(node.targets[0].id)
                grown = True
    return names


def _has_count(node, names):
    return any(isinstance(x, ast.Attribute) and x.attr in COUNT_ATTRIBUTES
               or isinstance(x, ast.Name) and x.id in names for x in ast.walk(node))


def _ends_in_count(shape, names):
    """Whether a shape argument has several axes and a coordinate count last:
    a tuple display or a sum that ends in a tuple that ends in one, a whole
    ``.shape`` (of a batch, say), or np.broadcast_shapes of such shapes."""
    if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Add):
        right = shape.right
        return _has_count(right.elts[-1], names) if isinstance(right, ast.Tuple) \
            else isinstance(right, ast.BinOp) and _ends_in_count(right, names)
    if isinstance(shape, ast.Tuple):
        return len(shape.elts) > 1 and _has_count(shape.elts[-1], names)
    if isinstance(shape, ast.Call) and getattr(shape.func, "attr", "") == "broadcast_shapes":
        return any(_ends_in_count(arg, names) for arg in shape.args)
    return isinstance(shape, ast.Attribute) and shape.attr == "shape"


def _on_last_axis(call):
    """Whether an np.stack or np.concatenate call joins on axis -1."""
    axis = [kw.value for kw in call.keywords if kw.arg == "axis"] + call.args[1:2]
    return any(isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub)
               and getattr(a.operand, "value", None) == 1 for a in axis)


def test_point_batches_are_coordinate_major():
    # np.stack or np.concatenate on the last axis, or an np.empty, np.zeros,
    # np.full or np.ones whose shape ends in a coordinate count, would
    # allocate a row-major batch, whose columns every kernel reads at a
    # stride of k entries
    found = set()
    for path in pathlib.Path(carnot.__file__).parent.glob("*.py"):
        for name, scope in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            site = f"{path.stem}.{name}"
            if site == "quadrature._coordinate_major":
                continue
            names = _count_names(scope)
            for node in ast.walk(scope):
                func = getattr(node, "func", None)
                if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                        and getattr(func.value, "id", None) == "np"):
                    continue
                if func.attr in ("stack", "concatenate") and _on_last_axis(node) \
                        or func.attr in ("empty", "zeros", "full", "ones") and node.args \
                        and _ends_in_count(node.args[0], names):
                    found.add(site)
                    assert site in ROW_MAJOR, f"{site}: np.{func.attr} builds a row-major batch"
    # a listed site that no longer keeps a row-major batch leaves the list
    assert found == set(ROW_MAJOR)
