"""One plane sampler: ``null_sectional.sample_planes`` draws every plane.

Only the sampler's functions draw normals (``.standard_normal``) or solve
with the fiber metrics' Cholesky factors (``np.linalg.solve``), and
``cli.py`` draws its planes a batch at a time, never one plane per
iteration of a loop.  A second draw loop grown back elsewhere fails here.
So does a second copy of the plane arithmetic: ``normalize_null``,
``make_degenerate_plane`` and the batched try must call the shared null
completion and projection, and ``PointContext.form`` the batched metric,
which runs on float64 arrays: no class of ``src`` wraps a lane, and no
code there tests for a numpy scalar type.  The source is read with
``ast``; nothing is patched."""

import ast
from pathlib import Path

import warpcurv

SRC = Path(warpcurv.__file__).parent
MODULES = sorted(SRC.glob("*.py"))

# the sampler: the draws of one try, and the batched try that solves them
SAMPLER = {("null_sectional.py", "_try_draws"),
           ("null_sectional.py", "_tries")}
# the other calls, which draw no plane
ELSEWHERE = {
    # the random vectors of a fiber's constant-curvature check
    ("core_types.py", "check_curvature_tag"),
    # the random vectors of a catalog fact's Ricci check
    ("models.py", "_check_ricci_zero"),
    # raises the last index of R(X, Y) Z with the metric
    ("warped_formulas.py", "riemann_general"),
}


def _is_draw(call: ast.Call) -> bool:
    """``<anything>.standard_normal(...)`` or ``<...>.linalg.solve(...)``."""
    f = call.func
    if not isinstance(f, ast.Attribute):
        return False
    return f.attr == "standard_normal" or (
        f.attr == "solve" and isinstance(f.value, ast.Attribute)
        and f.value.attr == "linalg")


def _calls(tree, wanted) -> list[tuple[str, int, bool]]:
    """(enclosing function, line, inside a loop) of each call that
    ``wanted`` accepts; the function is the innermost one, ``<module>`` at
    the top level, and a loop is a ``for``, a ``while`` or a
    comprehension inside that function."""
    found = []
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp)

    def visit(node, function, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
            looped = False
        elif isinstance(node, loops):
            looped = True
        if isinstance(node, ast.Call) and wanted(node):
            found.append((function, node.lineno, looped))
        for child in ast.iter_child_nodes(node):
            visit(child, function, looped)

    visit(tree, "<module>", False)
    return found


def _names(name):
    """A test for calls of ``name`` or ``<module>.name``."""
    def wanted(call: ast.Call) -> bool:
        f = call.func
        return (isinstance(f, ast.Name) and f.id == name) or (
            isinstance(f, ast.Attribute) and f.attr == name)
    return wanted


def _tree(name: str):
    return ast.parse((SRC / name).read_text())


def test_modules_found():
    assert {"null_sectional.py", "cli.py"} <= {p.name for p in MODULES}


def test_only_the_sampler_draws():
    drawing = {(path.name, function)
               for path in MODULES
               for function, _, _ in _calls(ast.parse(path.read_text()),
                                            _is_draw)}
    assert drawing - ELSEWHERE == SAMPLER


def test_cli_draws_a_batch_at_a_time():
    tree = _tree("cli.py")
    assert [c for c in _calls(tree, _names("sample_plane"))
            if c[2]] == []
    assert {function for function, _, _ in
            _calls(tree, _names("sample_planes"))} == {
        "cmd_report", "_compare_chunks", "cmd_scan"}


def test_the_guard_sees_a_draw_loop():
    tree = ast.parse(
        "import numpy as np\n"
        "def draw(rng, cs):\n"
        "    z = rng.standard_normal(3)\n"
        "    return [np.linalg.solve(c, z) for c in cs]\n"
        "def report(spec, ctx, rng, n):\n"
        "    planes = [sample_plane(spec, ctx, rng) for _ in range(n)]\n"
        "    for _ in range(n):\n"
        "        ns.sample_plane(spec, ctx, rng)\n"
        "    return sample_plane(spec, ctx, rng)\n")
    assert _calls(tree, _is_draw) == [("draw", 3, False), ("draw", 4, True)]
    assert _calls(tree, _names("sample_plane")) == [
        ("report", 6, True), ("report", 8, True), ("report", 9, False)]


# the plane arithmetic, each stated once: who must call which statement
SHARED = {
    ("null_sectional.py", "normalize_null"): {"_complete_null"},
    ("null_sectional.py", "make_degenerate_plane"): {"_project"},
    ("null_sectional.py", "_tries"): {"_complete_null", "_project"},
    ("core_types.py", "PointContext.form"): {"_Metric"},
}


def _functions(tree) -> dict:
    """Each function of a module by name, a method as ``Class.name``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{f.name}": f for f in node.body
                          if isinstance(f, ast.FunctionDef)})
    return found


def _numpy_scalar_tests(tree) -> list[int]:
    """The lines that name ``np.generic`` (or ``numpy.generic``)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "generic"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")]


def test_the_guard_sees_a_numpy_scalar_test():
    tree = ast.parse("import numpy as np\n"
                     "def typed(c):\n"
                     "    return isinstance(c, np.generic)\n")
    assert _numpy_scalar_tests(tree) == [3]


def test_the_plane_arithmetic_is_stated_once():
    """The library's plane functions, the batched try and the metric form
    run the shared lane statements on float64 arrays; the scalar copies
    and the lane wrapper that typed their results are gone."""
    for (module, function), helpers in SHARED.items():
        called = {name for name in helpers
                  if _calls(_functions(_tree(module))[function],
                            _names(name))}
        assert called == helpers, (module, function)
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert not {name for _, name in defined} & {
        "_null", "_degenerate_plane", "_fiber_inner", "_Lanes"}
    assert [d for d in defined if d[1] == "_Metric"] == [
        ("core_types.py", "_Metric")]
    assert {path.name: _numpy_scalar_tests(ast.parse(path.read_text()))
            for path in MODULES} == {path.name: [] for path in MODULES}
