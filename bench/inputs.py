"""Seeded inputs for the two workloads, in plain Python.

Nothing here imports numpy or ``carnot``: inputs are made before the
set-up clock starts, so ``setup_s`` covers the package's own imports.
The same seed gives the same inputs (``random.Random`` is stable across
Python versions for ``random`` and ``uniform``).
"""

import json
import os
import random

# (m, n) of the groups by short key: heisenberg(1), heisenberg(2),
# free_step2(3) and h_type(quaternion).
GROUP_DIMS = {"h1": (2, 1), "h2": (4, 1), "free3": (3, 3), "quat": (4, 3)}

# smoothing: H^1 reports per pass, each on its own seeded slope and level
H1_REPORTS = 3

# Per base dimension: residual grid, area base grid (refined twice, x4),
# chosen so that every command costs tens of milliseconds.
REPORT_GRIDS = {2: (64, 32), 4: (12, 4), 5: (8, 2), 6: (5, 1)}
REPORT_PHI_PER_GROUP = 5
GRID_PHI_SHAPE = (17, 17)


def base_names(m, n):
    ys = ["y"] if n == 1 else [f"y{s}" for s in range(1, n + 1)]
    return [f"x{j}" for j in range(2, m + 1)] + ys


def _level(rng):
    """A level c in [0.35, 0.65] at least 0.05 away from 0.5, where the
    flat-graph error vanishes by symmetry."""
    return 0.5 + rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.15)


def smoothing_params(seed):
    rng = random.Random(seed)
    return {
        "h1": [{"slope": rng.uniform(0.5, 1.5), "level": _level(rng)}
               for _ in range(H1_REPORTS)],
        "h2_coef": [rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.4)],
        "h2_level": _level(rng),
    }


# -- reports: JSON/CSV files for the CLI ------------------------------------------

def _unit(m, i, j):
    mat = [[0.0] * m for _ in range(m)]
    mat[i][j] = 1.0
    mat[j][i] = -1.0
    return mat


def group_matrices(key):
    """Skew-symmetric matrices B^(1..n) as nested lists."""
    if key == "h1":
        return [_unit(2, 0, 1)]
    if key == "h2":
        mat = [[0.0] * 4 for _ in range(4)]
        for i in range(2):
            mat[i][i + 2] = 1.0
            mat[i + 2][i] = -1.0
        return [mat]
    if key == "free3":
        # pairs (l, h), h < l, lexicographic in (l, h): -1 at (l, h)
        return [_unit(3, h - 1, l - 1) for l in range(2, 4) for h in range(1, l)]
    if key == "quat":
        return [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
                [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
                [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]]
    raise KeyError(key)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _fmt(v):
    return repr(float(v))


def write_report_inputs(seed, workdir, root):
    """Write group, phi and w files for the reports workload; return the
    groups with their phi files, the grid-kind phi and the suite path.
    Each phi also carries the ``--seed`` its commands get."""
    rng = random.Random(seed)
    groups = []
    for key, (m, n) in GROUP_DIMS.items():
        d = m + n - 1
        names = base_names(m, n)
        if key == "h1":
            with open(os.path.join(root, "data", "heisenberg1.json")) as fh:
                spec = json.load(fh)
        else:
            spec = {"m": m, "n": n,
                    "B": [[float(v) for row in mat for v in row]
                          for mat in group_matrices(key)]}
        spec["epsilon"] = None          # calibrate on every load
        gpath = os.path.join(workdir, f"{key}.json")
        _write_json(gpath, spec)

        w_path = os.path.join(workdir, f"{key}_w.json")
        comps = [{"kind": "expr", "domain": {"lo": [-1.0] * d, "hi": [1.0] * d},
                  "expr": _fmt(rng.uniform(-1.0, 1.0))} for _ in range(m - 1)]
        _write_json(w_path, comps[0] if m == 2 else {"components": comps})

        phis = []
        for i in range(REPORT_PHI_PER_GROUP):
            if i == 0:
                # linear graph over the unit cube: area is sqrt(1 + s^2)
                coef = {"a": rng.uniform(0.5, 1.5), "b": 0.0, "c": 0.0}
                lo, hi = [0.0] * d, [1.0] * d
            else:
                coef = {"a": rng.uniform(0.3, 1.0), "b": rng.uniform(-0.3, 0.3),
                        "c": rng.uniform(0.0, 0.2)}
                lo, hi = [-1.0] * d, [1.0] * d
            expr = (f"{_fmt(coef['a'])}*x2 + {_fmt(coef['b'])}*{names[-1]}"
                    f" + {_fmt(coef['c'])}*sin(x{m})")
            path = os.path.join(workdir, f"{key}_phi{i}.json")
            _write_json(path, {"kind": "expr", "domain": {"lo": lo, "hi": hi},
                               "expr": expr})
            at = [rng.uniform(l + 0.1 * (h - l), h - 0.1 * (h - l))
                  for l, h in zip(lo, hi)]
            phis.append({"path": path, "coef": coef, "at": at, "lo": lo, "hi": hi,
                         "seed": rng.randrange(1 << 31)})
        groups.append({"key": key, "m": m, "n": n, "path": gpath,
                       "w_path": w_path, "phis": phis})

    # one grid-kind phi on H^1: samples of a x2 + b y (multilinear-exact)
    a, b = rng.uniform(0.3, 1.0), rng.uniform(-0.3, 0.3)
    nx, ny = GRID_PHI_SHAPE
    rows = []
    for i in range(nx):
        x2 = -1.0 + 2.0 * i / (nx - 1)
        rows.append(",".join(_fmt(a * x2 + b * (-1.0 + 2.0 * k / (ny - 1)))
                             for k in range(ny)))
    csv_path = os.path.join(workdir, "h1_grid_values.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    grid_path = os.path.join(workdir, "h1_phi_grid.json")
    _write_json(grid_path, {"kind": "grid",
                            "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
                            "grid": {"shape": [nx, ny],
                                     "values": os.path.basename(csv_path)}})
    grid_phi = {"path": grid_path, "coef": {"a": a, "b": b, "c": 0.0},
                "at": [rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)],
                "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "seed": rng.randrange(1 << 31)}
    return {"groups": groups, "grid_phi": grid_phi,
            "suite": os.path.join(root, "data", "suite.json")}


def zeta_arg(lo, hi):
    """Bump centred in the box with radius a third of its smallest side."""
    centre = [0.5 * (l + h) for l, h in zip(lo, hi)]
    radius = min(h - l for l, h in zip(lo, hi)) / 3.0
    return ",".join(_fmt(v) for v in centre + [radius])
