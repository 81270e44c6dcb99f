"""diffglue benchmark: time to verdict, check throughput by block dimension
and seam-query latency, with a traced run for per-layer numbers.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload dual --seed 1 --seconds 30 --trace 0

One client issues the workload's operations in a closed loop, pass after
pass, until the passes have taken ``--seconds``.  Inputs come from
``--seed``; every output is checked after its pass, outside the timed
section.  Every timing is
scaled to the nominal machine speed (see ``speed.py``), so that runs made
while the machine is fast and while it is slow can be compared.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``;
with ``--trace 1`` the same untraced passes are followed by one traced
pass and the per-layer metrics are printed instead, and the spans are
written under ``.bench_run/traces/``.  Span times include the gauge's
readings within a run, some 4% of it.  The exit code is 0 only if every
operation matched its expected outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

import ladder
import speed
import workloads as wl
from tracing import Tracer

SETUP_REPS = 5   # set-ups measured before each pass; setup_s is their median


def provenance(root: str, workload: str, seed: int) -> dict:
    src = os.path.join(root, "src")
    lines = 0
    for base, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_commit": _git_commit(root),
            "src_py_lines": lines, "nominal_kernel_s": speed.NOMINAL_S}


def _git_commit(root: str):
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure_setup(scenarios, mode: str, seed: int, gauge) -> list:
    """SETUP_REPS scaled timings of load_scenario + build_context over a pass."""
    from diffglue import scenario as sc
    from diffglue.errors import DiffglueError
    totals = []
    for _ in range(SETUP_REPS):
        gauge.begin()
        for s in scenarios:
            try:
                sc.build_context(sc.load_scenario(s.path), mode=mode, seed=seed)
            except DiffglueError:
                pass    # the negative control that fails at construction
        raw, factor = gauge.end()
        totals.append(raw * factor)
    return totals


def end_to_end(passes, setups) -> dict:
    """pass_s is the median over the passes and the throughputs pool them.

    Every pass issues the same queries in the same order; a query's latency
    is its median over the passes, so that one interrupted or badly scaled
    instance does not set the tail.  The 1000 queries leave ten beyond p99.
    """
    run_s = sum(p.run_s for p in passes)
    latencies = np.median(np.asarray([p.latencies_us for p in passes]), axis=0)
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "checks_per_s": (sum(p.samples for p in passes) / run_s, "1/s"),
    }
    for d in ladder.DIMS:
        out[f"checks_per_s.d{d}"] = (sum(p.rung_samples[d] for p in passes)
                                     / sum(p.rung_s[d] for p in passes), "1/s")
    for q in (50, 99):
        out[f"query_us.p{q}"] = (float(np.percentile(latencies, q)), "us")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.MODES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "diffglue", "__init__.py")):
        print(f"error: no diffglue sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    seed = args.seed % 2**32
    work = os.path.join(root, ".bench_run", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(args, root, src, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root, src, work, seed) -> int:
    inputs = wl.build_inputs(args.workload, seed, src, work)
    mode = wl.MODES[args.workload]
    gauge = speed.Gauge()
    # set-ups are spread over the run, as the passes are
    attempted, errors, passes, setups = 0, [], [], []
    while not passes or sum(p.raw_s for p in passes) < args.seconds:
        setups += measure_setup(inputs.runs + inputs.queried, mode, seed, gauge)
        res = wl.run_pass(args.workload, inputs, seed, work, gauge)
        ops, errs = wl.check_pass(res)
        attempted += ops
        errors += errs
        # keep only the timings, so memory does not grow with the pass count
        res.runs.clear()
        res.queries.clear()
        passes.append(res)

    if args.trace:
        tracer = Tracer().install()
        try:
            traced = wl.run_pass(args.workload, inputs, seed, work, gauge, tracer)
        finally:
            tracer.uninstall()
        ops, errs = wl.check_pass(traced)
        attempted += ops
        errors += errs
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (
            traced.wall_s / statistics.median(p.wall_s for p in passes), "ratio")
        metrics["failed_ratio"] = (len(errors) / attempted, "share")
        trace_dir = os.path.join(root, ".bench_run", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write_spans(os.path.join(trace_dir, f"{args.workload}-seed{seed}.jsonl"))
    else:
        metrics = end_to_end(passes, setups)

    print(f"workload {args.workload} seed {seed}: {attempted} operations, "
          f"{len(errors)} failed (failed_ratio {len(errors) / attempted:.4f})")
    print(f"  {len(passes)} passes, {sum(len(p.latencies_us) for p in passes)} "
          f"timed queries; measured pass seconds "
          + " ".join(f"{p.raw_s:.3f}" for p in passes)
          + ", scaled " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for e in errors[:10]:
        print(f"mismatch: {e}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(root, args.workload, seed)))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
