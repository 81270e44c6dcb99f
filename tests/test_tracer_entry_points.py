"""The benchmark tracer's entry points exist, and uninstalling restores them.

``benchmarks/tracing.py`` patches package names by lookup, so a renamed or
deleted entry point would otherwise surface only when a traced benchmark
run starts.
"""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "benchmarks"))

import tracing  # noqa: E402


def test_every_entry_point_resolves():
    for modname, attr, name, _ in tracing.ENTRY_POINTS:
        mod = importlib.import_module(f"diffglue.{modname}")
        owner_name, _, method = attr.partition(".")
        assert hasattr(mod, owner_name), name
        if method:
            assert method in vars(getattr(mod, owner_name)), name


def test_install_then_uninstall_restores_patched_names():
    from diffglue import connection, numerics, suites

    def snapshot():
        return (numerics.DiffEngine.__dict__["gradient"], connection.glue_connections,
                dict(suites.SUITES), numerics.DualScalar.__dict__["__init__"])

    before = snapshot()
    tracer = tracing.Tracer().install()
    try:
        patched = snapshot()
        assert patched[0] is not before[0]
        assert patched[1] is not before[1]
        assert all(patched[2][k] is not fn for k, fn in before[2].items())
        assert patched[3] is not before[3]
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after[0] is before[0]
    assert after[1] is before[1]
    assert after[2].keys() == before[2].keys()
    assert all(after[2][k] is fn for k, fn in before[2].items())
    assert after[3] is before[3]


def test_traced_runs_pass(tmp_path, capsys):
    # the tracer wraps the Koszul closure and the oracle callable, and its
    # closure hook reads float points, so the construction-time and oracle
    # passes over coordinate arrays must run beneath it unchanged; so must a
    # full catalogue in both modes, the point store's probes included
    import ladder
    from diffglue.cli import main
    from diffglue.scenario import fixture_path

    rung = tmp_path / "ladder_d4.yaml"
    rung.write_text(ladder.ladder_yaml(4, 0))
    runs = [(rung, "dual"), (fixture_path("plane_axis_gluing"), "dual"),
            (fixture_path("halfline_curved"), "dual"), (fixture_path("halfline_curved"), "fd")]
    tracer = tracing.Tracer().install()
    try:
        for path, mode in runs:
            assert main(["run", str(path), "--mode", mode]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["connection.koszul_solve"] == 8
    assert tracer.calls["connection.christoffel_closed_form"] == 8
    for name in ("numerics.gradient", "metric.gram", "fields.poly_eval", "suites.leibniz",
                 "suites.metric-compat", "suites.levi-civita-inheritance"):
        assert tracer.calls[name] > 0, name
