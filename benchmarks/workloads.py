"""Workload inputs, one pass over them, and the checks on every output.

Both workloads model one user at the tool, in a closed loop: each pass
first waits on ``diffglue run`` (through ``diffglue.cli.main``, the
shipped path) for the verdict on every scenario, then inspects the seam
point by point (``classify_point`` -> ``compute_fibre`` ->
``GluedMetric.gram_at`` -> ``nabla.gamma``).  The workloads differ only in
the differentiation mode.  Every package entry point is looked up through
its module at call time, so the tracer's patches take effect.

A pass has three phases:

* the 7 bundled fixtures, 4 positive with their full catalogue and the 3
  negative controls;
* the dimension ladder: generated positive scenarios at d = 1 to 4
  (``ladder.py``), the only source of the per-dimension throughputs;
* the seam-query stream over all three locus kinds and d = 1 to 4, about
  a quarter of it revisiting earlier points.

Times are scaled to the nominal machine speed by ``speed.Gauge``.
Outputs are checked after the pass, outside the timed section: runs
against the expected-outcome table, queries against independent oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import ladder

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("cross_flat", "cross_mixed_grams", "halfline_curved",
            "plane_axis_gluing", "halfline_mismatch",
            "halfline_connection_clash", "cubic_gluing_invalid")
# Point-set, open-subdomain and submanifold loci, one scenario per block
# dimension above 1.  With the 1D scenarios at the cheap end and the 3D
# and 4D ones at the costly end, the median query falls inside the 2D
# latencies rather than on an edge between two dimensions.
QUERY_SCENARIOS = ("cross_mixed_grams", "halfline_curved",
                   "plane_axis_gluing", "ladder_d3", "ladder_d4")
# Stream length per pass: some 750 distinct points, far more than the few
# dozen the suites revisit, so a per-point cache shows its miss cost too.
STREAM_QUERIES = 1000
REVISIT_SHARE = 0.25        # share of stream queries that repeat a point
QUERY_BOX = 2.0             # queries sample coordinates in [-2, 2]^d
QUERY_BLOCK = 50            # queries between two readings of the gauge

# Runs of each ladder rung per pass.  One 1D rung takes some 25 ms, one 2D
# rung some 250 ms and one 3D or 4D rung about a second: too little time to
# measure a throughput on against the machine's jitter.  Repeated, every
# rung takes half a second or more of each pass, the costlier ones more.
RUNG_REPEATS = {1: 20, 2: 4, 3: 2, 4: 2}

MODES = {"dual": "forward_dual", "fd": "central_fd"}


@dataclass
class Scenario:
    name: str
    path: str
    dim: int
    expected: dict
    rung: bool = False      # a dimension-ladder scenario


@dataclass
class Inputs:
    runs: list              # scenarios run through the CLI, in order
    queried: list           # scenarios the stream queries
    stream: list            # (index into queried, which, coords)


@dataclass
class PassResult:
    """Scaled seconds and counts of one pass, and its outputs to check."""
    wall_s: float = 0.0
    raw_s: float = 0.0
    run_s: float = 0.0
    samples: int = 0
    rung_s: dict = field(default_factory=dict)        # dimension -> seconds
    rung_samples: dict = field(default_factory=dict)  # dimension -> samples
    latencies_us: list = field(default_factory=list)
    runs: list = field(default_factory=list)      # (scenario, rc, report, err)
    queries: list = field(default_factory=list)   # (scenario, which, coords, out, ctx)


def load_expected() -> dict:
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _context(path, mode, seed):
    from diffglue import scenario as sc
    return sc.build_context(sc.load_scenario(path), mode=mode, seed=seed)


def build_inputs(workload: str, seed: int, src_dir: str, work_dir: str) -> Inputs:
    """Inputs of a workload from its seed; writes the ladder rungs."""
    from diffglue import scenario as sc
    expected = load_expected()
    paths = {name: os.path.join(src_dir, "diffglue", "fixtures", f"{name}.yaml")
             for name in FIXTURES}
    for d in ladder.DIMS:
        path = os.path.join(work_dir, f"ladder_d{d}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ladder.ladder_yaml(d, seed))
        paths[f"ladder_d{d}"] = path

    def scenario(name):
        dim = int(sc.load_scenario(paths[name]).raw["space"]["block1"]["dim"])
        return Scenario(name, paths[name], dim, expected[name],
                        rung=name.startswith("ladder_"))

    runs = [scenario(n) for n in FIXTURES]
    for d in ladder.DIMS:
        runs += [scenario(f"ladder_d{d}")] * RUNG_REPEATS[d]
    queried = [scenario(n) for n in QUERY_SCENARIOS]
    rng = np.random.default_rng([seed, 0x5EA])
    stream = _query_stream(queried, rng, seed, MODES[workload])
    return Inputs(runs, queried, stream)


def _fresh_query(ctx, rng, kind):
    """(which, coords) of a block-1 (kind 0), locus (1) or block-2 (2) point."""
    from diffglue import space as sp
    space = ctx.space
    d = space.block1.dim
    if kind == 1:
        locus = space.locus
        if locus.kind == "point_set":
            return 1, tuple(locus.points[int(rng.integers(len(locus.points)))])
        if locus.kind == "submanifold":
            t = rng.uniform(-QUERY_BOX, QUERY_BOX, size=locus.param_dim)
            return 1, tuple(float(v) for v in locus.chart([float(v) for v in t]))
        while True:
            y = tuple(float(v) for v in rng.uniform(-QUERY_BOX, QUERY_BOX, size=d))
            if locus.contains(y):
                return 1, y
    which, region = (1, "block1") if kind == 0 else (2, "block2")
    while True:   # an open-subdomain locus covers part of each block
        y = tuple(float(v) for v in rng.uniform(-QUERY_BOX, QUERY_BOX, size=d))
        if sp.classify_point(space, which, y).region == region:
            return which, y


def _query_stream(scenarios, rng, seed, mode) -> list:
    """One interleaved stream over the scenarios and point kinds.

    Scenario and kind cycle rather than being drawn, so every seed gives
    the same mix of cheap and costly queries and the latency percentiles do
    not move with the seed.  About a quarter of the queries revisit an
    earlier point of the same scenario and kind.
    """
    ctxs = [_context(s.path, mode, seed) for s in scenarios]
    n = len(scenarios)
    stream, seen = [], {}
    for q in range(STREAM_QUERIES):
        i, kind = q % n, q // n % 3
        earlier = seen.setdefault((i, kind), [])
        if earlier and rng.random() < REVISIT_SHARE:
            stream.append(earlier[int(rng.integers(len(earlier)))])
        else:
            stream.append((i,) + _fresh_query(ctxs[i], rng, kind))
            earlier.append(stream[-1])
    return stream


# -- one pass -------------------------------------------------------------


def _prepare(scn, mode, seed):
    """Context with the glued metric and both connections built."""
    ctx = _context(scn.path, mode, seed)
    ctx.glued_metric()
    ctx.nabla1, ctx.nabla2   # noqa: B018  (lazy construction)
    return ctx


def _query(ctx, which, coords):
    from diffglue import forms, space
    point = space.classify_point(ctx.space, which, coords)
    fibre = forms.compute_fibre(ctx.space, point)
    gram = ctx.glued_metric().gram_at(point, fibre)
    nabla = ctx.nabla2 if point.region == "block2" else ctx.nabla1
    return point, fibre.dim, gram, nabla.gamma(point.coords)


def _run(s: Scenario, mode: str, seed: int, work_dir: str, sink):
    """One ``diffglue run``: (exit code, report, exception)."""
    from diffglue import cli
    report = os.path.join(work_dir, f"report-{s.name}.json")
    if os.path.exists(report):
        os.remove(report)
    rc, err = None, None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", s.path, "--mode", mode, "--seed", str(seed),
                           "--report-out", report])
    except Exception as exc:   # a crash is a failed operation
        err = exc
    sink.seek(0)
    sink.truncate()
    rep = None
    if os.path.exists(report):
        with open(report, encoding="utf-8") as fh:
            rep = json.load(fh)
    return rc, rep, err


def run_pass(workload: str, inputs: Inputs, seed: int, work_dir: str,
             gauge, tracer=None) -> PassResult:
    mode = MODES[workload]
    res = PassResult()
    clock = time.perf_counter
    sink = io.StringIO()
    for req, s in enumerate(inputs.runs):
        if tracer is not None:
            tracer.request = req
        gauge.begin()
        rc, rep, err = _run(s, mode, seed, work_dir, sink)
        raw, factor = gauge.end()
        samples = sum(int(x["samples"]) for x in rep["suites"]) if rep else 0
        res.runs.append((s, rc, rep, err))
        res.raw_s += raw
        res.run_s += raw * factor
        res.samples += samples
        if s.rung:
            res.rung_s[s.dim] = res.rung_s.get(s.dim, 0.0) + raw * factor
            res.rung_samples[s.dim] = res.rung_samples.get(s.dim, 0) + samples

    gauge.begin()
    ctxs = [_prepare(s, mode, seed) for s in inputs.queried]
    raw, factor = gauge.end()
    res.raw_s += raw
    res.wall_s = res.run_s + raw * factor
    base = len(inputs.runs)
    for start in range(0, len(inputs.stream), QUERY_BLOCK):
        block = []
        gauge.begin(ticks=False)
        for req, (i, which, coords) in enumerate(
                inputs.stream[start:start + QUERY_BLOCK], base + start):
            if tracer is not None:
                tracer.request = req
            t0 = clock()
            try:
                out = _query(ctxs[i], which, coords)
            except Exception as exc:   # a crash is a failed operation
                out = exc
            block.append(clock() - t0)
            res.queries.append((inputs.queried[i], which, coords, out, ctxs[i]))
        _, factor = gauge.end()
        res.raw_s += sum(block)
        res.wall_s += sum(block) * factor
        res.latencies_us += [dt * factor * 1e6 for dt in block]
    return res


# -- checks ---------------------------------------------------------------


def check_run(s: Scenario, rc, rep, err) -> str | None:
    """Mismatch against the expected-outcome table, or None."""
    exp = s.expected
    if err is not None:
        return f"{s.name}: raised {type(err).__name__}: {err}"
    if rc != exp["exit"]:
        return f"{s.name}: exit {rc}, expected {exp['exit']}"
    if rep is None:
        return f"{s.name}: no report written"
    got = {x["suite"]: [x["status"], int(x["samples"])] for x in rep["suites"]}
    if got != exp["suites"]:
        return f"{s.name}: suites {got}, expected {exp['suites']}"
    status = rep["derivative_trust"].get("status")
    if status != exp["derivative_trust"]:
        return f"{s.name}: derivative trust {status}, expected {exp['derivative_trust']}"
    if "construction_error" in exp:
        errors = {w.get("error") for x in rep["suites"] for w in x["witnesses"]}
        if errors != {exp["construction_error"]}:
            return f"{s.name}: construction errors {errors}"
    return None


def check_query(s: Scenario, which, coords, out, ctx) -> str | None:
    """Fibre dimension, SPD Gram and Koszul-vs-closed-form Christoffels."""
    from diffglue import connection, forms
    from diffglue.numerics import PD_FLOOR_REL
    where = f"{s.name} query {which}:{list(coords)}"
    if isinstance(out, Exception):
        return f"{where}: raised {type(out).__name__}: {out}"
    point, fdim, gram, gamma = out
    space = ctx.space
    d1, d2 = space.block1.dim, space.block2.dim
    if point.region == "locus":
        rel = forms.relation_matrix(space, point.coords)
        want = d1 + d2 - (int(np.linalg.matrix_rank(rel)) if rel.size else 0)
    else:
        want = d1 if point.region == "block1" else d2
    if fdim != want:
        return f"{where}: fibre dim {fdim}, expected {want}"
    scale = 1.0 + float(np.max(np.abs(gram)))
    if gram.shape != (fdim, fdim) or np.max(np.abs(gram - gram.T)) > 1e-12 * scale:
        return f"{where}: Gram not symmetric"
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if eig[0] <= PD_FLOOR_REL * max(eig[-1], 1.0):
        return f"{where}: Gram not positive definite (min eigenvalue {eig[0]:.3e})"
    g = ctx.g2 if point.region == "block2" else ctx.g1
    oracle = connection.christoffel_closed_form(g, ctx.engine)(list(point.coords))
    res = float(np.max(np.abs(gamma - oracle)))
    if res > ctx.engine.config.suite_tol:
        return f"{where}: Koszul vs closed form {res:.3e}"
    return None


def check_pass(res: PassResult) -> tuple:
    """(operations, failures as messages) of one pass."""
    errors = [e for e in (check_run(*r) for r in res.runs) if e]
    errors += [e for e in (check_query(*q) for q in res.queries) if e]
    return len(res.runs) + len(res.queries), errors
