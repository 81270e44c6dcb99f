"""Checks of the dimension-ladder generator.

Not collected by the repository's test run (the file name does not match
``test_*.py``) because it takes several seconds; run it with

    python3 -m pytest -q benchmarks/ladder_check.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ladder  # noqa: E402
from diffglue import scenario as sc  # noqa: E402
from diffglue.suites import SUITES, derivative_trust_sweep  # noqa: E402

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


@pytest.mark.parametrize("d", ladder.DIMS)
def test_same_seed_gives_identical_yaml(d):
    assert ladder.ladder_yaml(d, 5).encode() == ladder.ladder_yaml(d, 5).encode()
    assert ladder.ladder_yaml(d, 5) != ladder.ladder_yaml(d, 6)


@pytest.mark.parametrize("mode,seed", [("forward_dual", 0), ("forward_dual", 1),
                                       ("forward_dual", 123), ("central_fd", 2)])
@pytest.mark.parametrize("d", ladder.DIMS)
def test_rung_passes_selected_suites_and_sweep(tmp_path, d, seed, mode):
    path = tmp_path / f"ladder_d{d}.yaml"
    path.write_text(ladder.ladder_yaml(d, seed), encoding="utf-8")
    scenario = sc.load_scenario(path)
    assert scenario.suites == ladder.RUNG_SUITES[d]
    ctx = sc.build_context(scenario, mode=mode)
    assert ctx.space.block1.dim == d
    assert derivative_trust_sweep(ctx)["status"] == "pass"
    expected = EXPECTED[f"ladder_d{d}"]["suites"]
    for name in scenario.suites:
        result = SUITES[name](ctx)
        assert result.passed, (name, result.witnesses[:1])
        assert ["pass", result.samples] == expected[name]


def test_connection_is_curved_off_the_locus(tmp_path):
    path = tmp_path / "ladder_d3.yaml"
    path.write_text(ladder.ladder_yaml(3, 0), encoding="utf-8")
    ctx = sc.build_context(sc.load_scenario(path))
    gamma = ctx.nabla1.gamma([0.3, -0.2, 0.9])
    assert abs(gamma).max() > 1e-2
