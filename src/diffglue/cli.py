"""Command-line surface: scenario runs and point inspection.

``diffglue run <scenario> [--suite NAME]... [--mode dual|fd] [--seed N]
[--report-out PATH]`` executes the selected verification suites and writes
a human-readable summary plus a machine-readable JSON report; exit status
is 0 iff every selected suite passed, 1 if a suite failed, and 2 on bad
input (an unreadable or malformed scenario, an unknown suite).

``diffglue inspect <scenario> --point <region:coords>`` prints the fibre,
the metric Gram, and the Christoffel slice at one point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .connection import release_point_store
from .errors import DiffglueError, ParseError, ValidationError
from .scenario import SUITE_CATALOGUE, build_context, load_scenario
from .space import classify_point
from .suites import SUITES, SuiteResult, derivative_trust_sweep

MODE_ALIASES = {"dual": "forward_dual", "fd": "central_fd",
                "forward_dual": "forward_dual", "central_fd": "central_fd"}


def _build_report(scenario_name: str, mode: str, seed: int,
                  results: list, diagnostic: dict) -> dict:
    return {
        "scenario": scenario_name,
        "mode": mode,
        "seed": seed,
        "derivative_trust": diagnostic,
        "suites": [r.to_dict() for r in sorted(results, key=lambda r: r.suite)],
    }


def run_command(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mode = MODE_ALIASES[args.mode] if args.mode else None
    selected = tuple(args.suite) if args.suite else scenario.suites
    for name in selected:
        if name not in SUITE_CATALOGUE:
            print(f"error: unknown suite {name!r}", file=sys.stderr)
            return 2
    t0 = time.time()
    results = []
    diagnostic = {"status": "skipped"}
    try:
        ctx = build_context(scenario, mode=mode, seed=args.seed, prime_koszul=True)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiffglueError as exc:
        # construction failure: every selected suite fails with the witness
        results = [SuiteResult.failed(name, exc) for name in selected]
        ctx = None
    if ctx is not None:
        try:
            diagnostic = derivative_trust_sweep(ctx)
        except DiffglueError as exc:
            diagnostic = {"status": "fail", "error": type(exc).__name__,
                          "detail": str(exc)}
        for name in selected:
            results.append(SUITES[name](ctx))
        release_point_store(ctx.space)
    wall = time.time() - t0

    seed = args.seed if args.seed is not None else scenario.plan.seed
    mode_name = mode or scenario.diff.mode
    report = _build_report(scenario.name, mode_name, seed, results, diagnostic)

    all_pass = all(r.passed for r in results) and diagnostic.get("status") != "fail"
    print(f"scenario {scenario.name} [mode={mode_name} seed={seed}]")
    if "max_discrepancy" in diagnostic:
        print(f"  derivative-trust: dual/fd agree within "
              f"{diagnostic['max_discrepancy']:.3e} ({diagnostic['samples']} samples)")
    elif diagnostic["status"] == "fail":
        print(f"  derivative-trust: FAIL {diagnostic['error']}: {diagnostic['detail']}")
    for r in sorted(results, key=lambda r: r.suite):
        status = "PASS" if r.passed else "FAIL"
        line = f"  {r.suite:<24} {status}  max_residual={r.max_residual:.3e} " \
               f"samples={r.samples}"
        print(line)
        if not r.passed and r.witnesses:
            print(f"    witness: {json.dumps(r.witnesses[0], default=str)}")
        if r.notes:
            print(f"    note: {r.notes}")
    print(f"  wall time: {wall:.2f}s")

    if args.report_out:
        payload = dict(report)
        payload["wall_time_s"] = wall
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        print(f"  report written to {args.report_out}")
    return 0 if all_pass else 1


def _parse_point_spec(spec: str):
    try:
        region, _, coord_text = spec.partition(":")
        coords = tuple(float(c) for c in coord_text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad point spec {spec!r}; expected region:c1,c2,...") from exc
    if region not in ("block1", "block2", "locus"):
        raise ParseError(f"bad region {region!r}; expected block1|block2|locus")
    return region, coords


def inspect_command(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        region, coords = _parse_point_spec(args.point)
        ctx = build_context(scenario)
        which = 2 if region == "block2" else 1
        point = classify_point(ctx.space, which, coords)
        if region == "locus" and point.region != "locus":
            print(f"error: {coords} is not on the gluing locus", file=sys.stderr)
            return 2
        from .forms import compute_fibre
        fibre = compute_fibre(ctx.space, point)
        print(f"point: region={point.region} coords={list(point.coords)}"
              + (f" image={list(point.coords2)}" if point.coords2 else ""))
        print(f"fibre: dim={fibre.dim}")
        for row in fibre.basis:
            print(f"  basis {np.round(row, 12).tolist()}")
        G = ctx.glued_metric()
        print("metric Gram on the fibre basis:")
        for row in G.gram_at(point, fibre):
            print(f"  {np.round(row, 12).tolist()}")
        which, coords = point.sides[0]
        gamma = (ctx.nabla1, ctx.nabla2)[which - 1].gamma(coords)
        print("christoffel slice Gamma[k][i][j]:")
        print(np.round(gamma, 10))
        return 0
    except DiffglueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diffglue",
        description="Glued-space calculus verification runner")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run verification suites on a scenario")
    runp.add_argument("scenario", help="path to a scenario YAML file")
    runp.add_argument("--suite", action="append",
                      help="suite to run (repeatable; default: scenario list)")
    runp.add_argument("--mode", choices=sorted(MODE_ALIASES),
                      help="differentiation mode override")
    runp.add_argument("--seed", type=int, help="sampling seed override")
    runp.add_argument("--report-out", help="write machine-readable JSON report here")
    runp.set_defaults(func=run_command)

    insp = sub.add_parser("inspect", help="print fibre/metric/connection at a point")
    insp.add_argument("scenario")
    insp.add_argument("--point", required=True,
                      help="point spec, e.g. locus:0.0 or block1:0.5,1.0")
    insp.set_defaults(func=inspect_command)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
