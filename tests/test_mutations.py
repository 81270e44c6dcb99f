"""Seeded defects in the calculus, and the suites that kill them.

Each mutant is a one-token change to the source of one function of
``diffglue.connection``, compiled and monkeypatched in for one test.  The
full catalogue then runs on the fixtures that must kill it, and the test
pins exactly which suites fail there, each with a witness.  Each test
prints its row of the kill matrix (``pytest -s`` shows them); the control
row runs the unmutated code.
"""

import inspect
import textwrap

import pytest

from diffglue import connection as cx
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.suites import SUITES

FIXTURES = ("halfline_curved", "plane_axis_gluing")
TORSION = {"symmetry", "torsion-split", "levi-civita-inheritance"}

# name: (owner, function, text, replacement, suites killing it on each of FIXTURES)
MUTANTS = {
    "control": (None, None, None, None, set()),
    "bracket sign in torsion_block": (
        cx, "torsion_block", "br.scaled(minus_one)", "br", {"torsion-split"}),
    "bracket sign in PointStore.bracket": (
        cx.PointStore, "bracket", "_frozen(_primal(", "_frozen(-_primal(",
        TORSION | {"bracket-split"}),
}


def mutate(monkeypatch, owner, name, text, replacement):
    """Monkeypatch ``owner.name`` with its source, ``text`` replaced once."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(text) == 1, (name, text)
    namespace = dict(vars(cx))
    exec(compile(source.replace(text, replacement), cx.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


@pytest.mark.parametrize("mode", ("dual", "fd"))
@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_suites_that_kill_each_mutant(monkeypatch, mutant, mode):
    owner, name, text, replacement, killers = MUTANTS[mutant]
    if owner is not None:
        mutate(monkeypatch, owner, name, text, replacement)
    row = []
    for fixture in FIXTURES:
        ctx = build_context(load_scenario(fixture_path(fixture)),
                            mode={"dual": "forward_dual", "fd": "central_fd"}[mode],
                            prime_koszul=True)
        results = {suite: run(ctx) for suite, run in SUITES.items()}
        failed = {suite for suite, result in results.items() if not result.passed}
        assert failed == killers, (fixture, failed)
        assert all(results[suite].witnesses for suite in failed)
        row.append(" ".join(f"{suite} ({results[suite].max_residual:.3g})"
                            for suite in sorted(failed)) or "–")
    print(f"\n| {mutant} ({mode}) | " + " | ".join(row) + " |")
