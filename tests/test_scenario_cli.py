"""Scenario parsing, fixture loading, the CLI, and report determinism."""

import json
import os
import subprocess
import sys

import pytest

import diffglue
from diffglue.cli import main
from diffglue.errors import ParseError, ValidationError
from diffglue.scenario import (SUITE_CATALOGUE, build_context, fixture_path,
                               load_scenario, parse_poly)

POSITIVE = ["cross_flat", "cross_mixed_grams", "halfline_curved",
            "plane_axis_gluing"]
FAILURES = {"halfline_mismatch": "metric-gluing",
            "halfline_connection_clash": "leibniz",
            "cubic_gluing_invalid": "fibres"}


def test_all_fixtures_parse():
    for name in POSITIVE + list(FAILURES):
        sc = load_scenario(fixture_path(name))
        assert sc.name == name
        for suite in sc.suites:
            assert suite in SUITE_CATALOGUE


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly({"a": 1.0}, 1, "here")
    with pytest.raises(ParseError):
        parse_poly({"0,1": 1.0}, 1, "here")
    p = parse_poly({"2": 3.0, "0": 1.0}, 1, "here")
    assert p((2.0,)) == pytest.approx(13.0)


def test_malformed_yaml_reports_location(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nspace: [unclosed\n")
    with pytest.raises(ParseError) as err:
        load_scenario(bad)
    assert "line" in str(err.value)


def test_unknown_suite_rejected(tmp_path):
    doc = load_scenario(fixture_path("cross_flat")).raw
    doc["suites"] = ["nonexistent-suite"]
    import yaml
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValidationError):
        load_scenario(p)


def test_context_builds_for_positive_fixtures():
    for name in POSITIVE:
        ctx = build_context(load_scenario(fixture_path(name)))
        assert ctx.space.flags.asserted
        assert ctx.glued_metric() is not None


def test_run_exit_codes(tmp_path):
    rc = main(["run", str(fixture_path("cross_flat")),
               "--suite", "fibres", "--suite", "metric-gluing"])
    assert rc == 0
    rc = main(["run", str(fixture_path("halfline_mismatch"))])
    assert rc == 1


def test_run_full_catalogue_halfline_curved():
    assert main(["run", str(fixture_path("halfline_curved"))]) == 0


def test_run_writes_machine_report(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["run", str(fixture_path("halfline_mismatch")),
               "--report-out", str(out)])
    assert rc == 1
    report = json.loads(out.read_text())
    by_name = {s["suite"]: s for s in report["suites"]}
    assert by_name["metric-gluing"]["status"] == "fail"
    # a failing suite always carries at least one witness
    assert len(by_name["metric-gluing"]["witnesses"]) >= 1
    assert report["scenario"] == "halfline_mismatch"


def test_report_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["run", str(fixture_path("cross_flat")), "--suite", "fibres",
            "--suite", "koszul", "--seed", "3"]
    assert main(args + ["--report-out", str(out1)]) == 0
    assert main(args + ["--report-out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2
    assert r1["seed"] == 3


def test_mode_override(tmp_path):
    out = tmp_path / "fd.json"
    rc = main(["run", str(fixture_path("cross_flat")), "--suite", "koszul",
               "--mode", "fd", "--report-out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["mode"] == "central_fd"


def test_inspect_cross_origin(capsys):
    rc = main(["inspect", str(fixture_path("cross_flat")), "--point", "locus:0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dim=2" in out
    assert "0.5" in out


def test_inspect_block_point(capsys):
    rc = main(["inspect", str(fixture_path("cross_flat")), "--point", "block1:1.0"])
    assert rc == 0
    assert "dim=1" in capsys.readouterr().out


def _del_locus_bound(doc):
    del doc["space"]["locus"]["domain"]["bound"]


def _word_dim(doc):
    doc["space"]["block1"]["dim"] = "one"


def _one_index_metric_key(doc):
    doc["metrics"]["g1"]["entries"] = {"0": {"0": 1.0, "2": 1.0}}


def _zero_per_axis(doc):
    doc["samples"]["per_axis"] = 0


def _unknown_domain_kind(doc):
    doc["space"]["block1"]["domain"]["kind"] = "nowhere"


def _scalar_suite_list(doc):
    doc["suites"] = 5


@pytest.mark.parametrize("damage", [_del_locus_bound, _word_dim, _one_index_metric_key,
                                    _zero_per_axis, _unknown_domain_kind,
                                    _scalar_suite_list])
def test_malformed_scenario_exits_2(tmp_path, capsys, damage):
    import yaml
    doc = load_scenario(fixture_path("halfline_curved")).raw
    damage(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path)]) == 2
    assert main(["inspect", str(path), "--point", "block1:1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_malformed_point_spec(capsys):
    rc = main(["inspect", str(fixture_path("cross_flat")), "--point", "origin"])
    assert rc == 2


def test_console_entrypoint_runs():
    # the child finds the package where this process imported it from
    src = os.path.dirname(os.path.dirname(diffglue.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "diffglue.cli", "run",
         str(fixture_path("cross_flat")), "--suite", "fibres"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "fibres" in proc.stdout
