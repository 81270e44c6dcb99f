"""Run the reference runs of this checkout and write their outputs as one JSON,
or compare two such files.

Usage: python3 tools/report_identity.py OUT_DIR
       python3 tools/report_identity.py --compare A.json B.json

The 52 reference runs are ``diffglue run`` on the 7 bundled fixtures, on
the dimension-ladder rungs d = 1..4 (``benchmarks/ladder.py``, seed 0) and
on the rungs d = 2 and 3 with the whole suite catalogue, so that the suites
a rung leaves out are covered from dimension 2 up; each in ``--mode dual``
and ``--mode fd``, with the scenario's own seed and with ``--seed 3``.  The seed drives the suites' random section, function and
perturbation families; the sample grid does not depend on it, so the two
runs of a scenario check the same points with different random data.  Each
run records its exit code, its stdout without the wall-time and report
lines, and its ``--report-out`` JSON without ``wall_time_s``.  Everything
else in a run is deterministic, so running this on two checkouts and
comparing the two ``OUT_DIR/report_identity.json`` files shows whether a
change moved any verdict, residual, witness or sample count.

``--compare`` prints each run whose exit code, stdout or report differs
between the two files (or that only one file has), with each JSON path that
differs and its old and new value, and ends with one line that says whether
any exit code, status, sample count, witness or note differs, or only the
suites' ``max_residual`` values and their stdout lines.  It exits 0 only
when nothing differs.

The runs go through ``diffglue.cli.main`` in this process, against the
``src/`` next to this script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from diffglue import cli  # noqa: E402
import ladder  # noqa: E402

LADDER_SEED = 0
CATALOGUE_DIMS = (2, 3)   # rungs run once more with the whole catalogue
MODES = ("dual", "fd")
SEEDS = (None, 3)
DROPPED_LINES = ("  wall time:", "  report written to")


def scenarios(work_dir: str) -> dict:
    """Name -> scenario path: the bundled fixtures, the ladder rungs, then the
    rungs that run the whole catalogue."""
    fixtures = os.path.join(ROOT, "src", "diffglue", "fixtures")
    paths = {name[:-5]: os.path.join(fixtures, name)
             for name in sorted(os.listdir(fixtures)) if name.endswith(".yaml")}
    for d in ladder.DIMS:
        path = os.path.join(work_dir, f"ladder_d{d}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ladder.ladder_yaml(d, LADDER_SEED))
        paths[f"ladder_d{d}"] = path
    for d in CATALOGUE_DIMS:
        doc = ladder.ladder_scenario(d, LADDER_SEED)
        del doc["suites"]   # a scenario that lists no suites runs them all
        path = os.path.join(work_dir, f"ladder_d{d}_catalogue.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        paths[f"ladder_d{d}_catalogue"] = path
    return paths


def reference_run(path: str, mode: str, seed, report_path: str) -> dict:
    argv = ["run", path, "--mode", mode, "--report-out", report_path]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if os.path.exists(report_path):
        os.remove(report_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    lines = [ln for ln in stdout.getvalue().splitlines()
             if not ln.startswith(DROPPED_LINES)]
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_time_s", None)
    return {"exit": code, "stdout": lines, "report": report}


_ABSENT = object()
_RESIDUAL_VALUE = re.compile(r"max_residual=\S+")


def differing_paths(a, b, path: str = "") -> list:
    """(JSON path, value in a, value in b) for each place at which two decoded
    JSON values differ; a key that only one side has gives _ABSENT on the other."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [q for k in sorted(set(a) | set(b), key=str)
                for q in differing_paths(a.get(k, _ABSENT), b.get(k, _ABSENT), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [q for i, (x, y) in enumerate(zip(a, b))
                for q in differing_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path or ".", a, b)]


def residual_only(path: str, a, b) -> bool:
    """Whether a difference is a suite's max_residual: the report field, or a
    stdout line that differs only in its ``max_residual=`` value."""
    if path.endswith(".max_residual"):
        return True
    return (path.startswith(".stdout[") and isinstance(a, str) and isinstance(b, str)
            and _RESIDUAL_VALUE.sub("", a) == _RESIDUAL_VALUE.sub("", b))


def _shown(v) -> str:
    return "(absent)" if v is _ABSENT else json.dumps(v)


def compare(path_a: str, path_b: str) -> int:
    """Print each differing run with old -> new at each differing path, then
    one line saying whether anything but residuals differs."""
    with open(path_a, encoding="utf-8") as fh:
        runs_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        runs_b = json.load(fh)
    keys = sorted(set(runs_a) | set(runs_b))
    differing, beyond = 0, 0
    for key in keys:
        if key not in runs_a or key not in runs_b:
            print(f"{key}: only in {path_a if key in runs_a else path_b}")
            differing, beyond = differing + 1, beyond + 1
            continue
        diffs = differing_paths(runs_a[key], runs_b[key])
        if not diffs:
            continue
        differing += 1
        beyond += not all(residual_only(*d) for d in diffs)
        print(f"{key}:")
        for path, a, b in diffs:
            print(f"  {path}: {_shown(a)} -> {_shown(b)}")
    if not differing:
        print(f"0 of {len(keys)} runs differ")
    elif beyond:
        print(f"{differing} of {len(keys)} runs differ; {beyond} of them in more than "
              f"residuals (an exit code, status, sample count, witness or note)")
    else:
        print(f"{differing} of {len(keys)} runs differ, in residuals only (max_residual "
              f"and its stdout line); every exit code, status, sample count, witness "
              f"and note is the same")
    return 1 if differing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print("\n".join(__doc__.strip().splitlines()[3:5]), file=sys.stderr)
        return 2
    out_dir = argv[0]
    os.makedirs(out_dir, exist_ok=True)
    runs = {}
    with tempfile.TemporaryDirectory() as work_dir:
        report_path = os.path.join(work_dir, "report.json")
        for name, path in scenarios(work_dir).items():
            for mode in MODES:
                for seed in SEEDS:
                    key = f"{name} --mode {mode}" + (f" --seed {seed}" if seed is not None else "")
                    runs[key] = reference_run(path, mode, seed, report_path)
    out_path = os.path.join(out_dir, "report_identity.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(runs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(runs)} runs written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
