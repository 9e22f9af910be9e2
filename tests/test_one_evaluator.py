"""One plane evaluator: ``cli._evaluate_planes`` checks every plane.

Inside ``cli.py`` only the evaluator runs a route to K (the closed forms,
the generic route, the oracle's null contraction) or reads the tolerance
constants, only ``_disagree`` compares a difference with a tolerance, and
``report``, ``compare`` and ``scan`` each call the evaluator.  A second
per-plane check grown back in a command fails here.  The source is read
with ``ast``; nothing is patched."""

import ast
from pathlib import Path

import warpcurv

CLI = Path(warpcurv.__file__).parent / "cli.py"

ROUTES = {"specialized_null_curvature", "null_curvature_generic",
          "null_sectional_batch", "lowered_riemann_batch"}
TOLERANCES = {"COMPARE_ABS_TOL", "COMPARE_REL_TOL"}


def _uses(tree) -> list[tuple[str, str, int]]:
    """(enclosing function, what, line) of each call of a route, each read
    of a tolerance constant and each comparison of an ``abs(...)``; the
    function is the innermost one, ``<module>`` at the top level."""
    found = []

    def name(node):
        if isinstance(node, ast.Name):
            return node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if isinstance(node, ast.Call) and name(node.func) in ROUTES:
            found.append((function, name(node.func), node.lineno))
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and isinstance(node.ctx, ast.Load) and name(node) in TOLERANCES:
            found.append((function, name(node), node.lineno))
        elif isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and name(side.func) == "abs"
                for side in (node.left, *node.comparators)):
            found.append((function, "abs-compare", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def _callers(tree, callee: str) -> set[str]:
    callers = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) \
                        and isinstance(inner.func, ast.Name) \
                        and inner.func.id == callee:
                    callers.add(node.name)
    return callers


def test_only_the_evaluator_runs_a_route():
    uses = _uses(ast.parse(CLI.read_text()))
    assert {what for _, what, _ in uses} == ROUTES | TOLERANCES | {
        "abs-compare"}
    assert [u for u in uses if u[1] != "abs-compare"
            and u[0] != "_evaluate_planes"] == []


def test_the_agreement_test_is_written_once():
    uses = _uses(ast.parse(CLI.read_text()))
    assert [(f, w) for f, w, _ in uses if w == "abs-compare"] == [
        ("_disagree", "abs-compare")]


def test_every_command_calls_the_evaluator():
    tree = ast.parse(CLI.read_text())
    assert _callers(tree, "_evaluate_planes") == {
        "cmd_report", "_compare_chunks", "cmd_scan"}
    assert _callers(tree, "_disagree") == {"cmd_report", "_compare_chunks"}


def test_the_guard_sees_a_second_check():
    tree = ast.parse(
        "from . import tensor_oracle as to\n"
        "TOL = COMPARE_ABS_TOL\n"
        "def report(spec, plane, k, tol):\n"
        "    res = specialized_null_curvature(spec, plane)\n"
        "    ok = abs(res.value - k) > tol\n"
        "    return to.null_sectional_batch([], [], []), max(\n"
        "        cli.COMPARE_ABS_TOL, COMPARE_REL_TOL)\n"
        "def scan(rows):\n"
        "    return [r for r in rows if 1e-9 >= abs(r)]\n")
    assert _uses(tree) == [
        ("<module>", "COMPARE_ABS_TOL", 2),
        ("report", "specialized_null_curvature", 4),
        ("report", "abs-compare", 5),
        ("report", "null_sectional_batch", 6),
        ("report", "COMPARE_ABS_TOL", 7),
        ("report", "COMPARE_REL_TOL", 7),
        ("scan", "abs-compare", 9)]
    assert _callers(tree, "specialized_null_curvature") == {"report"}
