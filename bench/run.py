#!/usr/bin/env python3
"""Benchmark of the carnot package: one workload, one seed, one run.

    python3 bench/run.py --workload smoothing --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's details and provenance.
``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones (see NOTES.md).  ``--self-test`` runs two passes and checks
that every deterministic count repeats.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: with two, per-curve times on a 2-core host swing twofold.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 10           # extra set-ups in child processes, for setup_s
WORKLOADS = ("smoothing", "reports")

_clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="set up once, with scratch files under DIR, "
                             "and print the seconds it took")
    parser.add_argument("--self-test", action="store_true",
                        help="run two passes and compare their counts")
    return parser.parse_args(argv)


def make_inputs(workload, seed, workdir):
    import inputs
    if workload == "smoothing":
        return inputs.smoothing_params(seed)
    return inputs.write_report_inputs(seed, workdir, ROOT)


def timed_setup(workload, params):
    """Import the package and build what the workload keeps across ops.
    Nothing before this imports numpy, so the clock covers every import
    ``carnot`` needs."""
    start = _clock()
    import workloads
    import carnot
    state = workloads.SETUP[workload](params)
    elapsed = _clock() - start
    if os.path.dirname(os.path.abspath(carnot.__file__)) != os.path.join(SRC, "carnot"):
        raise SystemExit(f"carnot was imported from {carnot.__file__}, not {SRC}")
    return elapsed, state


def probe_setup(args, workdir):
    """Set-up time of a fresh process running the same set-up.  Its scratch
    files go under ``workdir``, which this process removes."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def one_pass(workload, state, tracer):
    import workloads
    log = workloads.PassLog()
    start = _clock()
    workloads.PASS[workload](state, tracer, log)
    log.wall_s = _clock() - start
    return log


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(args):
    import numpy
    import scipy
    import sympy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
            "git_commit": _git_commit()}


def summarize(logs):
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    return attempted, failed, {
        "passes": len(logs),
        "pass_wall_s": [log.wall_s for log in logs],
        "counts_per_pass": logs[0].counts,
        "counts_repeat": all(log.counts == logs[0].counts for log in logs),
        "failures": sorted({name for log in logs for name in log.failures}),
        "error_rate": failed / attempted,
    }


def end_to_end(args, state, setup_s, workdir):
    """A warm-up pass, then timed passes until they add up to ``--seconds``.
    The warm-up's ops are checked and counted but not timed: the first pass
    runs some 10% slower while the allocator's heap and the caches fill.
    The set-up probes run between passes, spread over the run, because the
    host's speed drifts within a run."""
    from tracing import Tracer
    tracer = Tracer(False)
    warmup = one_pass(args.workload, state, tracer)
    logs = []
    setup_samples = [setup_s]
    timed_s = 0.0
    while not logs or timed_s < args.seconds:
        logs.append(one_pass(args.workload, state, tracer))
        timed_s += logs[-1].wall_s
        due = math.ceil(SETUP_PROBES * min(timed_s / args.seconds, 1.0))
        while len(setup_samples) <= due:
            setup_samples.append(probe_setup(args, workdir))
    attempted, failed, detail = summarize([warmup] + logs)
    timed_ok = sum(log.attempted - log.failed for log in logs)
    latency = [ms for log in logs for ms in log.latency_ms]
    wall = sum(log.wall_s for log in logs)
    detail.update({"setup_samples_s": setup_samples, "latency_samples": len(latency)})
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (timed_ok / wall, "op/s"),
        "op_ms.p50": (statistics.median(latency), "ms"),
        "op_ms.p90": (statistics.quantiles(latency, n=10, method="inclusive")[-1], "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return attempted, failed, metrics, detail


def per_layer(args, state, workdir):
    """A warm-up pass, untraced and traced passes in pairs, then the
    micro-suite.  The warm-up keeps first-call costs out of the overhead."""
    import layers
    from tracing import Tracer
    plain, traced = Tracer(False), Tracer(True)
    warmup = one_pass(args.workload, state, plain)
    pairs = []
    start = _clock()
    while not pairs or _clock() - start < args.seconds:
        pairs.append((one_pass(args.workload, state, plain),
                      one_pass(args.workload, state, traced)))
    logs = [warmup] + [log for pair in pairs for log in pair]
    attempted, failed, detail = summarize(logs)
    metrics, micro_detail = layers.run(workdir, os.path.join(ROOT, "data", "suite.json"))
    overhead = sum(t.wall_s - u.wall_s for u, t in pairs) / len(pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(traced.spans) // len(pairs), "count")
    detail.update(micro_detail)
    detail["layers_per_pass"] = {
        layer: {"self_s": self_s / len(pairs), "calls": calls // len(pairs)}
        for layer, (self_s, calls) in sorted(traced.layer_totals().items())}
    detail["untraced_pass_s"] = [u.wall_s for u, _ in pairs]
    detail["traced_pass_s"] = [t.wall_s for _, t in pairs]
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    traced.write(path, {"workload": args.workload, "seed": args.seed,
                        "passes": len(pairs)})
    detail["trace_file"] = os.path.relpath(path, ROOT)
    return attempted, failed, metrics, detail


def self_test(args, state, params, workdir):
    """Regenerate the inputs and run two passes: inputs and counts repeat."""
    from tracing import Tracer
    tracer = Tracer(False)
    logs = [one_pass(args.workload, state, tracer) for _ in range(2)]
    same_inputs = params == make_inputs(args.workload, args.seed, workdir)
    counts_repeat = logs[0].counts == logs[1].counts
    print(json.dumps({"counts": [log.counts for log in logs],
                      "inputs_repeat": same_inputs, "counts_repeat": counts_repeat}))
    return 0 if same_inputs and counts_repeat else 1


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so scratch files and child probes go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(BLAS_PIN)
    sys.path.insert(1, SRC)
    os.chdir(ROOT)            # scenario files name data/ relative to the root
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.setup_probe or OUT)
    try:
        params = make_inputs(args.workload, args.seed, workdir)
        setup_s, state = timed_setup(args.workload, params)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.self_test:
            return self_test(args, state, params, workdir)
        if args.trace:
            result = per_layer(args, state, workdir)
        else:
            result = end_to_end(args, state, setup_s, workdir)
        attempted, failed, metrics, detail = result
        detail["provenance"] = provenance(args)
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            # a traced run also needs the separable kernel counts to match
            # the package's built kernels
            "correct": (failed == 0 and detail["counts_repeat"]
                        and detail.get("separable_counts_match_built", True)),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
