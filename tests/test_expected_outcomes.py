"""Every entry of the benchmark's expected-outcome table, at seed 0 in dual mode.

``benchmarks/expected.json`` pins, for each bundled fixture and each ladder
rung (``benchmarks/ladder.py``), the exit code of ``diffglue run``, the
derivative-trust status, each suite's status and sample count, and the
construction error of a scenario that fails to build.  This runs each
scenario once through the CLI and asserts its entry; it only reads the file.
"""

import json
import os
import sys

import pytest

from diffglue.cli import main
from diffglue.scenario import fixture_path

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")
sys.path.append(BENCH_DIR)
import ladder  # noqa: E402

with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def test_the_table_covers_the_fixtures_and_the_ladder():
    rungs = {f"ladder_d{d}" for d in ladder.DIMS}
    fixtures = {name[:-5] for name in os.listdir(fixture_path("cross_flat").parent)
                if name.endswith(".yaml")}
    assert set(EXPECTED) == fixtures | rungs


@pytest.mark.parametrize("name", EXPECTED)
def test_a_run_matches_its_expected_outcome(name, tmp_path):
    expected = EXPECTED[name]
    if name.startswith("ladder_d"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(ladder.ladder_yaml(int(name[len("ladder_d"):]), 0))
    else:
        path = fixture_path(name)
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--mode", "dual", "--seed", "0",
                 "--report-out", str(out)]) == expected["exit"]
    report = json.loads(out.read_text())
    assert report["derivative_trust"]["status"] == expected["derivative_trust"]
    assert {r["suite"]: [r["status"], r["samples"]] for r in report["suites"]} \
        == expected["suites"]
    if "construction_error" in expected:
        errors = {w.get("error") for r in report["suites"] for w in r["witnesses"]}
        assert errors == {expected["construction_error"]}
