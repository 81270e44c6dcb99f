"""Scenario parsing, fixture loading, the CLI, and report determinism."""

import json
import os
import subprocess
import sys

import pytest

import diffglue
from diffglue import connection as cx
from diffglue import scenario
from diffglue.cli import main
from diffglue.errors import ParseError, ValidationError
from diffglue.scenario import (SUITE_CATALOGUE, build_context, fixture_path,
                               load_scenario, parse_locus, parse_poly)

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmarks"))
import ladder  # noqa: E402

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


def test_chart_axes_must_be_distinct():
    spec = {"kind": "submanifold", "chart": {"kind": "axis_embed", "axes": [0, 0]},
            "param_samples": [[0.0, 1.0]]}
    with pytest.raises(ParseError, match="distinct"):
        parse_locus(spec, 3, "space.locus")


def test_malformed_yaml_reports_location(tmp_path, capsys):
    # a truncated flow sequence: the parser's mark survives the C loader
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nspace: [unclosed\n")
    with pytest.raises(ParseError) as err:
        load_scenario(bad)
    assert "invalid YAML (line 3, column 1)" in str(err.value)
    assert main(["run", str(bad)]) == 2
    assert "invalid YAML (line 3, column 1)" in capsys.readouterr().err


def test_unknown_suite_rejected(tmp_path):
    doc = load_scenario(fixture_path("cross_flat")).raw
    doc["suites"] = ["nonexistent-suite"]
    import yaml
    p = tmp_path / "s.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValidationError):
        load_scenario(p)
    # a bare name is not read as a list of one-letter suites
    doc["suites"] = "koszul"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ParseError, match="list of suite names"):
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
    # the whole catalogue in fd mode reaches the dual verdicts on the same samples
    verdicts = {}
    for mode in ("dual", "fd"):
        out = tmp_path / f"halfline_{mode}.json"
        assert main(["run", str(fixture_path("halfline_curved")), "--mode", mode,
                     "--report-out", str(out)]) == 0
        verdicts[mode] = [(r["suite"], r["status"], r["samples"])
                          for r in json.loads(out.read_text())["suites"]]
    assert len(verdicts["fd"]) == len(SUITE_CATALOGUE)
    assert verdicts["fd"] == verdicts["dual"]


def test_seed_override_reaches_suites():
    scenario = load_scenario(fixture_path("halfline_curved"))
    values = []
    for seed in (3, 11):
        ctx = build_context(scenario, seed=seed)
        point = ctx.space.region_samples()["locus"][0]
        values.append([s.at(point).components.tolist()
                       for s in ctx.sections])
    assert values[0] != values[1]


def test_negative_seed_override_exits_2(capsys):
    assert main(["run", str(fixture_path("halfline_curved")), "--suite", "koszul",
                 "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


def _counting(monkeypatch, names) -> dict:
    """Count calls of connection functions under every name the package uses."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cx, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("diffglue") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def test_run_builds_each_scenario_quantity_once(monkeypatch):
    counts = _counting(monkeypatch, ("koszul_solve", "compatible_section_pairs",
                                     "check_connections_compatible", "glued_function_family"))
    assert main(["run", str(fixture_path("plane_axis_gluing"))]) == 0
    assert counts == {"koszul_solve": 2, "compatible_section_pairs": 1,
                      "check_connections_compatible": 1, "glued_function_family": 1}


def test_a_koszul_only_run_builds_no_section_family(monkeypatch, tmp_path):
    # the ladder's d4 rung runs koszul alone, which reads no glued section
    path = tmp_path / "ladder_d4.yaml"
    path.write_text(ladder.ladder_yaml(4, 0))
    counts = _counting(monkeypatch, ("koszul_solve", "section_family"))
    assert main(["run", str(path)]) == 0
    assert counts == {"koszul_solve": 2, "section_family": 0}


def test_each_probe_function_is_validated_once_per_run(monkeypatch):
    # leibniz and bracket-split share the run's functions, validated where
    # the run builds them
    from diffglue.forms import GluedFunction
    families, validated = [], []
    family = scenario.glued_function_family
    validate = GluedFunction.validate
    monkeypatch.setattr(scenario, "glued_function_family",
                        lambda *a: families.append(family(*a)) or families[-1])
    monkeypatch.setattr(GluedFunction, "validate",
                        lambda self: validated.append(self) or validate(self))
    assert main(["run", str(fixture_path("plane_axis_gluing")),
                 "--suite", "leibniz", "--suite", "bracket-split"]) == 0
    functions, = families
    assert len(functions) == 8
    assert [id(h) for h in validated] == [id(h) for h in functions]


def test_a_probe_function_off_the_seam_fails_both_suites_alike(monkeypatch, tmp_path):
    from diffglue.forms import GluedFunction
    family = scenario.glued_function_family

    def with_a_non_function(space, rng):
        return family(space, rng) + [GluedFunction(space, lambda x: x[0],
                                                   lambda z: z[0] + 1.0)]

    monkeypatch.setattr(scenario, "glued_function_family", with_a_non_function)
    out = tmp_path / "report.json"
    assert main(["run", str(fixture_path("plane_axis_gluing")), "--suite", "leibniz",
                 "--suite", "bracket-split", "--report-out", str(out)]) == 1
    suites = json.loads(out.read_text())["suites"]
    assert [r["suite"] for r in suites] == ["bracket-split", "leibniz"]
    witness = suites[0]["witnesses"]
    assert witness[0]["error"] == "NotAFunctionOnGluedSpace"
    assert suites[1]["witnesses"] == witness
    assert all(r["status"] == "fail" for r in suites)


def test_inheritance_glues_koszul_factors_not_the_scenario_connections(tmp_path):
    import yaml
    doc = load_scenario(fixture_path("halfline_curved")).raw
    doc["connections"] = {"kind": "flat"}
    path = tmp_path / "flat.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--suite", "metric-compat",
                 "--suite", "levi-civita-inheritance", "--report-out", str(out)]) == 1
    status = {r["suite"]: r["status"] for r in json.loads(out.read_text())["suites"]}
    assert status == {"metric-compat": "fail", "levi-civita-inheritance": "pass"}


def test_locus_sample_off_the_locus_fails_construction(tmp_path, capsys):
    import yaml
    doc = load_scenario(fixture_path("halfline_curved")).raw
    doc["space"]["locus"]["sample_points"][0] = [0.5]
    path = tmp_path / "off_locus.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--report-out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    suites = json.loads(out.read_text())["suites"]
    assert len(suites) == len(SUITE_CATALOGUE)
    for result in suites:
        assert result["status"] == "fail"
        assert result["witnesses"][0]["error"] == "LocusOutsideBlock"
        assert "(0.5,)" in result["witnesses"][0]["detail"]


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


@pytest.mark.parametrize("name, point", [("halfline_curved", "block1:0.5,1.0"),
                                         ("plane_axis_gluing", "block1:0.5")])
def test_inspect_point_of_wrong_arity_exits_2(capsys, name, point):
    assert main(["inspect", str(fixture_path(name)), "--point", point]) == 2
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err
    assert "Traceback" not in err


def _del_locus_bound(doc):
    del doc["space"]["locus"]["domain"]["bound"]


def _word_dim(doc):
    doc["space"]["block1"]["dim"] = "one"


def _one_index_metric_key(doc):
    doc["metrics"]["g1"]["entries"] = {"0": {"0": 1.0, "2": 1.0}}


def _zero_per_axis(doc):
    doc["samples"]["per_axis"] = 0


def _negative_seed(doc):
    doc["samples"]["seed"] = -2


def _unknown_domain_kind(doc):
    doc["space"]["block1"]["domain"]["kind"] = "nowhere"


def _scalar_suite_list(doc):
    doc["suites"] = 5


def _string_suite_list(doc):
    doc["suites"] = "koszul"


def _nan_fd_step(doc):
    doc["diff"]["fd_step"] = float("nan")


def _infinite_fd_step(doc):
    doc["diff"]["fd_step"] = float("inf")


def _plane_seed_in_line_block(doc):
    doc["space"]["block1"]["seed_points"] = [[1.0, 2.0]]


def _plane_locus_sample(doc):
    doc["space"]["locus"]["sample_points"].append([-1.0, 2.0])


def _as_plane_axis(doc):
    """Replace the document by plane_axis_gluing (2D blocks, submanifold locus)."""
    doc.clear()
    doc.update(load_scenario(fixture_path("plane_axis_gluing")).raw)
    return doc


def _chart_axis_too_big(doc):
    _as_plane_axis(doc)["space"]["locus"]["chart"]["axes"] = [5]


def _chart_axis_negative(doc):
    _as_plane_axis(doc)["space"]["locus"]["chart"]["axes"] = [-1]


def _domain_axis_too_big(doc):
    _as_plane_axis(doc)["space"]["block1"]["domain"] = {"kind": "below", "axis": 7,
                                                        "bound": 3.0}


def _metric_key_too_big(doc):
    _as_plane_axis(doc)["metrics"]["g1"]["entries"]["2,0"] = {"0,0": 0.1}


def _christoffel_key_too_big(doc):
    _as_plane_axis(doc)["connections"] = {"kind": "explicit",
                                          "gamma1": {"entries": {"3,0,0": {"0,0": 1.0}}},
                                          "gamma2": {"entries": {}}}


def _affine_map(doc, offset):
    doc["space"]["map"] = {"kind": "affine", "matrix": [[2.0]], "offset": offset}


def _empty_affine_offset(doc):
    _affine_map(doc, [])


def _scalar_affine_offset(doc):
    _affine_map(doc, 1.0)


def _long_affine_offset(doc):
    _affine_map(doc, [1.0, 2.0])


def _nan_affine_matrix(doc):
    doc["space"]["map"] = {"kind": "affine", "matrix": [[float("nan")]], "offset": [0.0]}


def _infinite_affine_offset(doc):
    _affine_map(doc, [float("inf")])


def _negative_exponent(doc):
    _as_plane_axis(doc)["metrics"]["g1"]["entries"]["0,0"]["-1,0"] = 1.0


@pytest.mark.parametrize("damage", [_del_locus_bound, _word_dim, _one_index_metric_key,
                                    _zero_per_axis, _negative_seed, _unknown_domain_kind,
                                    _scalar_suite_list, _string_suite_list, _nan_fd_step,
                                    _infinite_fd_step, _plane_seed_in_line_block,
                                    _plane_locus_sample, _chart_axis_too_big,
                                    _chart_axis_negative, _domain_axis_too_big,
                                    _metric_key_too_big, _christoffel_key_too_big,
                                    _negative_exponent, _empty_affine_offset,
                                    _scalar_affine_offset, _long_affine_offset,
                                    _nan_affine_matrix, _infinite_affine_offset])
def test_malformed_scenario_exits_2(tmp_path, capsys, damage):
    import yaml
    doc = load_scenario(fixture_path("halfline_curved")).raw
    damage(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path)]) == 2
    assert main(["inspect", str(path), "--point", "block1:1.0"]) == 2
    assert "error:" in capsys.readouterr().err


def _huge_per_axis(doc):
    doc["samples"]["per_axis"] = 1e308


def _infinite_per_axis(doc):
    doc["samples"]["per_axis"] = float("inf")


def _huge_locus_coordinate(doc):
    doc["space"]["locus"]["param_samples"][0][0] = 1e308


def _huge_fd_step(doc):
    doc["diff"]["fd_step"] = 1e308


@pytest.mark.parametrize("damage, section", [
    (_huge_per_axis, "samples: malformed (ValueError: sample counts must lie in [1, 1000])"),
    (_infinite_per_axis, "samples: malformed (OverflowError"),
    (_huge_locus_coordinate, "space.locus.param_samples: point [1e+308] needs finite "
                             "coordinates with finite squares"),
    (_huge_fd_step, "diff: malformed (ValueError: fd_step must be at most 0.01, got 1e+308)"),
], ids=["per_axis 1e308", "per_axis inf", "locus coordinate 1e308", "fd_step 1e308"])
def test_sizes_and_coordinates_no_run_can_use_exit_2(tmp_path, capsys, damage, section):
    # rejected while parsing, before a grid is built or a coordinate squared:
    # they used to raise out of numpy (an array too large, eigenvalues that
    # do not converge, an infinite float to int)
    import yaml
    doc = load_scenario(fixture_path("plane_axis_gluing")).raw
    damage(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path)]) == 2
    assert main(["inspect", str(path), "--point", "block1:1.0,0.5"]) == 2
    err = capsys.readouterr().err
    assert section in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["x", "true", 1, 0.0, None, [True]], ids=repr)
def test_hypothesis_flags_accept_only_booleans(tmp_path, capsys, value):
    import yaml
    doc = load_scenario(fixture_path("plane_axis_gluing")).raw
    doc["space"]["hypothesis_flags"] = {"pullback_equality_asserted": True,
                                        "omega_diffeology_equality_asserted": value}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--suite", "fibres"]) == 2
    err = capsys.readouterr().err
    assert "hypothesis_flags: omega_diffeology_equality_asserted" in err
    assert "Traceback" not in err


def test_a_missing_hypothesis_flag_is_false(tmp_path):
    import yaml
    doc = load_scenario(fixture_path("plane_axis_gluing")).raw
    del doc["space"]["hypothesis_flags"]["omega_diffeology_equality_asserted"]
    path = tmp_path / "half.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--suite", "fibres", "--report-out", str(out)]) == 1
    witness, = json.loads(out.read_text())["suites"][0]["witnesses"]
    assert witness["error"] == "HypothesisNotAsserted"


def test_a_gram_singular_on_the_locus_fails_through_singular_gram(tmp_path, capsys):
    # g2 = diag(1, x^2) is positive-definite at the seeds and singular over
    # the locus point (0, 0)
    import yaml
    from diffglue.errors import SingularGram
    from diffglue.forms import compute_fibre
    from diffglue.metric import canonical_pair_elements
    doc = load_scenario(fixture_path("plane_axis_gluing")).raw
    doc["metrics"]["g2"]["entries"]["1,1"] = {"2,0": 1.0}
    path = tmp_path / "singular.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--suite", "metric-gluing", "--report-out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    witness, = json.loads(out.read_text())["suites"][0]["witnesses"]
    assert witness["error"] == "SingularGram"
    assert "(0.0, 0.0)" in witness["detail"]
    ctx = build_context(load_scenario(path))
    point, = [p for p in ctx.space.region_samples()["locus"] if p.coords == (0.0, 0.0)]
    with pytest.raises(SingularGram):
        canonical_pair_elements(ctx.space, ctx.g1, ctx.g2, compute_fibre(ctx.space, point))


@pytest.mark.parametrize("mode", ["dual", "fd"])
def test_nan_fd_step_exits_2_in_both_modes(tmp_path, capsys, mode):
    import yaml
    doc = load_scenario(fixture_path("halfline_curved")).raw
    _nan_fd_step(doc)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert "fd_step must be positive and finite" in captured.err
    assert "derivative-trust" not in captured.out


def test_failed_derivative_trust_sweep_is_reported(monkeypatch, capsys):
    from diffglue import cli
    from diffglue.errors import ModesDisagree

    def failing(ctx):
        raise ModesDisagree("dual/fd gradients disagree by 1.0e+00")

    monkeypatch.setattr(cli, "derivative_trust_sweep", failing)
    assert main(["run", str(fixture_path("halfline_curved")), "--suite", "koszul"]) == 1
    out = capsys.readouterr().out
    assert "derivative-trust: FAIL ModesDisagree: dual/fd gradients disagree" in out


def test_leibniz_fails_on_a_nan_connection_off_the_locus():
    # block 2's connection is NaN only where block 2 is off the locus
    # (x >= 0), so the NaN reaches no additivity check and no locus tensor
    from diffglue.suites import SUITES
    ctx = build_context(load_scenario(fixture_path("halfline_curved")))
    n2 = ctx.koszul(2)
    nan = diffglue.BlockConnection(ctx.space.block2, lambda x: (
        [[[float("nan")]]] if x[0] >= 0.0 else n2.christoffel(x)))
    C = cx.GluedConnection(ctx.space, ctx.glued_metric(), ctx.koszul(1), nan, ctx.store)
    ctx.glued_connection = lambda *pair: C
    r = SUITES["leibniz"](ctx)
    assert not r.passed
    assert r.max_residual != r.max_residual
    assert {w["region"] for w in r.witnesses} == {"block2"}


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
