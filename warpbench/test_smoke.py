"""Smoke test of the benchmark itself, at the smallest size.

Run from the root of a checkout:  python3 -m pytest warpbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

ROOT = os.path.dirname(bench.BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
         "--workload", "all", "--seed", "3", "--seconds", "0.1",
         "--units", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    metrics = _result(_run("--trace", str(trace)))
    names = {m["name"]: m["unit"] for m in _spec()[section]}
    expected = {f"{w['name']}.{k}": u
                for w in _spec()["workloads"] for k, u in names.items()}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    for key, val in metrics.items():
        assert isinstance(val["value"], (int, float)), key
        if val["unit"] == "count":
            assert isinstance(val["value"], int), key
    if trace:
        def m(wl, name):
            return metrics[f"{wl}.{name}"]["value"]
        # one oracle call per report process, from the CLI
        assert m("report_warm", "tensor_oracle.riemann_oracle.calls_cli") \
            == m("report_warm", "cli.command.calls") == 8
        assert m("scan_ricci", "null_sectional.sample_plane.calls") == 0
        assert m("compare_printed", "warped_formulas.ricci_general.calls") == 0
        assert m("scan_ricci", "warped_formulas.ricci_general.calls") > 0
        assert m("report_warm", "warped_formulas.ricci_general.calls") > 0
        # 10 hyper-dual metric evaluations per 4-D oracle point
        assert m("scan_ricci", "tensor_oracle.metric_evals") \
            >= 10 * m("scan_ricci", "tensor_oracle.riemann_oracle.calls_cli")
    else:
        for key, val in metrics.items():
            assert val["value"] > 0, key


class _FakeLauncher:
    """Answers like the CLI would, writing ``ledger`` rows to --ledger."""

    def __init__(self, rows):
        self.rows = rows

    def run(self, argv, timeout=90.0):
        with open(argv[argv.index("--ledger") + 1], "w") as fh:
            json.dump(self.rows, fh)
        return {"rc": 0, "wall_s": 0.1, "maxrss_bytes": 1,
                "stdout": "kasner_vacuum: ...; derived-vs-oracle OK\n",
                "stderr": ""}


def _ledger_run(tmp, rows):
    with open(os.path.join(bench.BENCH_DIR, "expected_pairs.json")) as fh:
        ctx = {"expected_pairs": json.load(fh)}
    inp = {"model": "kasner_vacuum", "seed": 1}
    run = bench.Run("compare_printed", [inp], 1, _FakeLauncher(rows), ctx,
                    tmp)
    run.invoke(inp, 1)
    return run


def _clean_rows():
    with open(os.path.join(bench.BENCH_DIR, "expected_pairs.json")) as fh:
        pairs = json.load(fh)["kasner_vacuum"]
    return [{"model": "kasner_vacuum", "point": [1.0, 0, 0, 0],
             "plane_seed": 1, "term": term, "path_a": path_a,
             "path_b": "as-derived", "value_a": 1.0, "value_b": 2.0,
             "abs_diff": 1.0} for path_a, term in pairs]


@pytest.fixture
def workdir():
    path = os.path.join(bench.OUT_DIR, f"smoke-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_clean_ledger_passes(workdir):
    run = _ledger_run(workdir, _clean_rows())
    assert (run.attempted, run.failures) == (1, [])


def test_injected_as_derived_row_is_a_failure(workdir):
    rows = _clean_rows()
    rows.append({**rows[0], "term": "value", "path_a": "as-derived",
                 "path_b": "oracle"})
    run = _ledger_run(workdir, rows)
    assert run.attempted == 1 and len(run.failures) == 1
    assert "as-derived" in run.failures[0]


def test_fails_without_the_program(workdir):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(bench.BENCH_DIR, os.path.join(workdir, "warpbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "warpbench/run.py", "--workload", "scan_ricci",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
