"""One way to seed derivatives: charts and batches seed ``Jet`` coordinates
through ``hyperdual.seed``, and scalar functions, those of the base line
included, go through ``hyperdual.jet``.  ``Jet`` is the package's one
derivative type: no module of ``src`` names a ``HyperDual``, whose one
copy is the tests' reference (``tests/reference_hyperdual.py``).  A second
derivative type or seeding loop back in the package fails here."""

import ast
from pathlib import Path

import warpcurv
from warpcurv import hyperdual

SRC = Path(warpcurv.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _hyperdual_uses(tree):
    """(constructions, other mentions) of the name HyperDual in a module."""
    calls, names = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "HyperDual") or \
                    (isinstance(f, ast.Attribute) and f.attr == "HyperDual"):
                calls.append(node.lineno)
        if isinstance(node, ast.ImportFrom):
            names += [node.lineno for a in node.names if a.name == "HyperDual"]
        elif (isinstance(node, ast.Name) and node.id == "HyperDual") or \
                (isinstance(node, ast.Attribute) and node.attr == "HyperDual"):
            names.append(node.lineno)
    return sorted(calls), sorted(names)


def test_modules_found():
    assert {"hyperdual.py", "tensor_oracle.py"} <= {p.name for p in MODULES}


def test_no_module_names_hyperdual():
    found = {}
    for path in MODULES:
        text = path.read_text()
        calls, names = _hyperdual_uses(ast.parse(text))
        if calls or names or "HyperDual" in text:
            found[path.name] = calls + names
    assert found == {}


def test_hyperdual_exports_one_derivative_type():
    gone = {"HyperDual", "scalar_derivatives", "partials", "value"}
    assert "Jet" in hyperdual.__all__
    assert gone.isdisjoint(hyperdual.__all__)
    assert not any(hasattr(hyperdual, name) for name in gone)


def test_the_guard_sees_a_seeding_loop():
    calls, names = _hyperdual_uses(ast.parse(
        "from .hyperdual import HyperDual\n"
        "from . import hyperdual as hd\n"
        "a = [HyperDual(x, 1.0, 0.0) for x in xs]\n"
        "b = hd.HyperDual(1.0)\n"))
    assert calls == [3, 4] and names == [1, 3, 4]
