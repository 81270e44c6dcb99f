"""Every function, class and method of the package is used from the package.

The test walks the syntax trees of ``src/diffglue`` (``__init__.py``, which
only re-exports, does not count) and lists each definition whose name is
referenced nowhere else there: not as a name, not as an attribute, and not
from inside its own body.  That list must be the allowlist below, where each
entry gives the reason the name stays; a helper that loses its last caller
fails the test until it is deleted or given a reason.  Dunder methods are
called by Python and are not listed.
"""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "diffglue"

SUITE = "a registered suite, called through suites.SUITES"
ALLOWLIST = {
    "pairing_apply": "pairing map, reserved for the dual-side checks (ROADMAP item 3)",
    "pairing_invert": "inverse pairing map, reserved for the dual-side checks (ROADMAP item 3)",
    "suite_tol": "read by the benchmark's query check",
    "fixture_path": "locates a bundled fixture for the tests, tools and benchmark",
    "constant_metric": "public constructor of a constant block metric",
    "exp": "generic e^x for user-written fields (dual-, array- and complex-safe)",
    "suite_fibres": SUITE,
    "suite_metric_gluing": SUITE,
    "suite_koszul": SUITE,
    "suite_leibniz": SUITE,
    "suite_symmetry": SUITE,
    "suite_metric_compat": SUITE,
    "suite_bracket_split": SUITE,
    "suite_covderiv_split": SUITE,
    "suite_torsion_split": SUITE,
    "suite_levi_civita_inheritance": SUITE,
}


class References(ast.NodeVisitor):
    """Definitions of a module, and references to names from outside the
    definition of that name."""

    def __init__(self, defined: set, references: Counter):
        self.defined, self.references, self.enclosing = defined, references, []

    def visit_def(self, node):
        self.defined.add(node.name)
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.enclosing.append(node.name)
        for child in ast.iter_child_nodes(node):
            if child not in node.decorator_list:
                self.visit(child)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_def

    def refer(self, name: str):
        if name not in self.enclosing:
            self.references[name] += 1

    def visit_Name(self, node):
        self.refer(node.id)

    def visit_Attribute(self, node):
        self.refer(node.attr)
        self.generic_visit(node)


def unreferenced() -> set:
    defined, references = set(), Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            References(defined, references).visit(ast.parse(path.read_text(encoding="utf-8")))
    return {name for name in defined
            if not references[name] and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_referenced_or_has_a_reason():
    assert unreferenced() == set(ALLOWLIST)
