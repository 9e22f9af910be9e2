"""One way to seed derivatives: charts and batches seed ``Jet`` coordinates
through ``hyperdual.seed``, and a ``HyperDual`` is built only inside
``hyperdual.py`` (its arithmetic, and the seeding in
``scalar_derivatives``).  A second seeding loop in another module, or a
per-point path back in the chart oracle, fails here."""

import ast
from pathlib import Path

import warpcurv

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


def test_only_hyperdual_constructs_a_hyperdual():
    found = {}
    for path in MODULES:
        if path.name != "hyperdual.py":
            calls, _ = _hyperdual_uses(ast.parse(path.read_text()))
            if calls:
                found[path.name] = calls
    assert found == {}


def test_tensor_oracle_does_not_import_hyperdual():
    _, names = _hyperdual_uses(ast.parse((SRC / "tensor_oracle.py").read_text()))
    assert names == []


def test_the_guard_sees_a_seeding_loop():
    calls, names = _hyperdual_uses(ast.parse(
        "from .hyperdual import HyperDual\n"
        "from . import hyperdual as hd\n"
        "a = [HyperDual(x, 1.0, 0.0) for x in xs]\n"
        "b = hd.HyperDual(1.0)\n"))
    assert calls == [3, 4] and names == [1, 3, 4]
