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
