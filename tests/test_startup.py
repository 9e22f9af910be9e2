"""What a CLI process pays before and after its work, checked by structure
(nothing is timed): importing the CLI loads no ``hashlib`` and generates
no dataclass, and the process entry point freezes the import-time heap,
which an in-process ``main`` call leaves alone."""

import gc
import subprocess
import sys
import tomllib
from pathlib import Path

from warpcurv import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# print the freeze count when the process ends, however it ends
AT_EXIT = ("import atexit, gc; atexit.register(lambda: print("
           "'freeze count', gc.get_freeze_count()))")
COMMAND = ["scan", "minkowski", "--quantity", "ricci", "--from", "0",
           "--to", "1", "--steps", "2"]


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)


def _freeze_count(code: str) -> int:
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("freeze count "), proc.stdout
    return int(last.split()[-1])


def test_importing_the_cli_loads_no_hashlib():
    proc = _python("import sys, warpcurv.cli; "
                   "print('hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_no_dataclass_but_the_result_type():
    proc = _python(
        "import dataclasses, inspect, sys, warpcurv.cli\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'warpcurv':\n"
        "        for obj in vars(mod).values():\n"
        "            if (inspect.isclass(obj) and obj.__module__ == name\n"
        "                    and dataclasses.is_dataclass(obj)):\n"
        "                print(obj.__qualname__)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["NullCurvatureResult"]


def test_module_entry_freezes_the_heap():
    code = (f"{AT_EXIT}\nimport runpy, sys\n"
            f"sys.argv = ['warpcurv'] + {COMMAND!r}\n"
            "runpy.run_module('warpcurv.cli', run_name='__main__', "
            "alter_sys=True)")
    assert _freeze_count(code) > 0


def test_console_script_freezes_the_heap():
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"][
        "warpcurv"]
    module, func = target.split(":")
    code = (f"{AT_EXIT}\nimport importlib, sys\n"
            f"sys.argv = ['warpcurv'] + {COMMAND!r}\n"
            f"getattr(importlib.import_module({module!r}), {func!r})()")
    assert _freeze_count(code) > 0


def test_in_process_main_leaves_the_freeze_count(capsys):
    before = gc.get_freeze_count()
    assert cli.main(COMMAND) == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.startswith("coordinate,")
