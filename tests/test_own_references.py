"""The test references own what they check: no ``tests/reference_*.py``
imports a leading-underscore name from ``warpcurv`` or reads one as an
attribute of a name it imported from there (``wf._StructFiber``).  A
reference that borrows a private helper of the package compares the
package with itself, so such a borrowing fails here."""

import ast
from pathlib import Path

REFERENCES = sorted(Path(__file__).parent.glob("reference_*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _of_warpcurv(module):
    return module is not None and (module == "warpcurv"
                                   or module.startswith("warpcurv."))


def private_reads(tree):
    """The lines where a module imports or reads a private warpcurv name."""
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0]
                      for a in node.names if _of_warpcurv(a.name)}
        elif isinstance(node, ast.ImportFrom) and _of_warpcurv(node.module):
            for a in node.names:
                if _private(a.name):
                    found.append(node.lineno)
                bound.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.lineno)
    return sorted(found)


def test_references_found():
    assert {"reference_hyperdual.py", "reference_lifts.py",
            "reference_oracle.py"} <= {p.name for p in REFERENCES}


def test_no_reference_reads_a_private_name():
    found = {p.name: private_reads(ast.parse(p.read_text()))
             for p in REFERENCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_sees_a_borrowed_helper():
    assert private_reads(ast.parse(
        "from warpcurv import warped_formulas as wf\n"
        "from warpcurv.warped_formulas import _fiber_bracket, ricci_matrix\n"
        "class Fiber(wf._StructFiber): pass\n"
        "import warpcurv.hyperdual\n"
        "rule = warpcurv.hyperdual._power_rule\n"
        "build = wf.ricci_matrix\n"
        "from numpy import _globals\n"
        "size = wf.__name__\n")) == [2, 3, 5]
