"""Every function the per-layer benchmark traces still exists.

``warpbench/traced_cli.py`` wraps each ``(module, function)`` of its
``TRACED`` table by name before the CLI runs; a name that no longer
resolves makes every traced run fail.  The file is loaded read-only here
and nothing is patched."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "warpbench" / "traced_cli.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("_traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED, module.MODULES


TRACED, MODULES = traced_table()


@pytest.mark.parametrize("module,function", sorted(TRACED),
                         ids=[f"{m}.{f}" for m, f in sorted(TRACED)])
def test_traced_name_resolves(module, function):
    mod = importlib.import_module(f"warpcurv.{module}")
    assert callable(getattr(mod, function, None))


def test_traced_modules_import():
    for name in MODULES:
        importlib.import_module(f"warpcurv.{name}")
