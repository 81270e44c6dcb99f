"""Seeded defects in the calculus, and the suites that kill them.

Each mutant is a one-token change to the source of one function of
``diffglue.connection``, compiled and monkeypatched in for one test.  The
full catalogue then runs on each fixture, in each mode its row names, and
the test pins exactly which suites fail on each fixture, each with a
witness; an empty set on a fixture records an equivalent mutant there.
Each test prints its row of the kill matrix (``pytest -s`` shows them); the
control row runs the unmutated code.  The ladder rows run the same way on
the d = 3 rung of ``benchmarks/ladder.py`` (seed 0), whose first sections
are coordinate forms.
"""

import inspect
import os
import sys
import textwrap

import pytest

from diffglue import connection as cx
from diffglue import scenario
from diffglue.scenario import build_context, fixture_path, load_scenario
from diffglue.suites import SUITES

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmarks"))
import ladder  # noqa: E402

FIXTURES = ("halfline_curved", "plane_axis_gluing")
MODES = ("dual", "fd")
TORSION = {"symmetry", "torsion-split", "levi-civita-inheritance"}
COMPAT = {"metric-compat", "levi-civita-inheritance"}

# name: (owner, function, text, replacement, modes, suites killing it on each of FIXTURES)
MUTANTS = {
    "control": (None, None, None, None, MODES, (set(), set())),
    "bracket sign in PointStore.bracket": (
        cx.PointStore, "bracket", "_frozen(_primal(", "_frozen(-_primal(", MODES,
        (TORSION | {"bracket-split"},) * 2),
    "Gamma sign in _covariant_rows": (
        cx, "_covariant_rows", "total = total - gam", "total = total + gam", ("dual",),
        (COMPAT | {"covderiv-split"}, COMPAT | TORSION | {"covderiv-split"})),
    # a dim-1 tensor has one entry, so the swap is equivalent on halfline_curved
    "slot swap in _covariant_rows": (
        cx, "_covariant_rows", "total = jac[j][i]", "total = jac[i][j]", ("dual",),
        (set(), COMPAT | TORSION | {"leibniz", "covderiv-split"})),
    "dropped Gram-derivative term in koszul_solve": (
        cx, "koszul_solve", "0.5 * (_dot(gram[k], q) - p", "0.5 * (-p", ("dual",),
        ({"koszul"} | COMPAT, {"koszul", "symmetry"} | COMPAT)),
}

# name of a mutant above: suites killing it on ladder d3, in dual mode.
# torsion-split's pairs start where the family holds x_1 dx_0, whose
# Jacobian is not symmetric, so it sees the swap there
LADDER_D3 = {
    "slot swap in _covariant_rows": COMPAT | TORSION | {"leibniz", "covderiv-split"},
}


def mutate(monkeypatch, owner, name, text, replacement):
    """Monkeypatch ``owner.name`` with its source, ``text`` replaced once;
    ``scenario``, which imports ``koszul_solve`` by name, gets the mutant too."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(text) == 1, (name, text)
    namespace = dict(vars(cx))
    exec(compile(source.replace(text, replacement), cx.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    if getattr(scenario, name, None) is original:
        monkeypatch.setattr(scenario, name, namespace[name])


def killed_cell(path, mode, killers) -> str:
    """Run the whole catalogue on the scenario at ``path``, assert that
    exactly ``killers`` fail, each with a witness, and return the cell."""
    ctx = build_context(load_scenario(path),
                        mode={"dual": "forward_dual", "fd": "central_fd"}[mode],
                        prime_koszul=True)
    results = {suite: run(ctx) for suite, run in SUITES.items()}
    failed = {suite for suite, result in results.items() if not result.passed}
    assert failed == killers, (path, failed)
    assert all(results[suite].witnesses for suite in failed)
    return " ".join(f"{suite} ({results[suite].max_residual:.3g})"
                    for suite in sorted(failed)) or "–"


@pytest.mark.parametrize("mutant,mode", [(mutant, mode) for mutant, row in MUTANTS.items()
                                         for mode in row[4]])
def test_the_suites_that_kill_each_mutant(monkeypatch, mutant, mode):
    owner, name, text, replacement, _, killed = MUTANTS[mutant]
    if owner is not None:
        mutate(monkeypatch, owner, name, text, replacement)
    row = [killed_cell(fixture_path(fixture), mode, killers)
           for fixture, killers in zip(FIXTURES, killed)]
    print(f"\n| {mutant} ({mode}) | " + " | ".join(row) + " |")


@pytest.mark.parametrize("mutant", LADDER_D3)
def test_the_suites_that_kill_each_mutant_on_ladder_d3(monkeypatch, tmp_path, mutant):
    mutate(monkeypatch, *MUTANTS[mutant][:4])
    path = tmp_path / "ladder_d3.yaml"
    path.write_text(ladder.ladder_yaml(3, 0))
    print(f"\n| {mutant} (dual, ladder d3) | {killed_cell(path, 'dual', LADDER_D3[mutant])} |")
