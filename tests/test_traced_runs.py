"""Traced runs write what plain runs write.

``warpbench/traced_cli.py`` runs the CLI with the package's functions,
``cli.open`` and ``cli.json`` wrapped to record spans.  Here it runs
unchanged in a subprocess, once per command, and every output file must
have the bytes of the plain CLI's.  Only files under the test's temporary
directory are written."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "warpbench" / "traced_cli.py"

COMMANDS = {
    "report": ["report", "kasner_vacuum", "--planes", "70", "--path", "all",
               "--seed", "3", "--out"],
    "compare": ["compare", "kasner_vacuum", "--samples", "70", "--path",
                "as-printed", "--seed", "3", "--ledger"],
    "scan": ["scan", "kasner_vacuum", "--from", "0.5", "--to", "2.5",
             "--steps", "70", "--quantity", "ricci", "--out"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_traced_run_writes_the_plain_bytes(tmp_path, command):
    argv = COMMANDS[command]
    plain, traced, spans = (tmp_path / name
                            for name in ("plain", "traced", "spans.json"))
    run = subprocess.run([sys.executable, "-m", "warpcurv.cli", *argv,
                          str(plain)], capture_output=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    run = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "t0",
                          "--", *argv, str(traced)],
                         capture_output=True, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert traced.read_bytes() == plain.read_bytes()
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.command", "cli.output"} <= names
