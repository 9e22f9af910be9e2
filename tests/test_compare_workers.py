"""`compare` with its chunks split across forked workers: the same bytes
as one process, the same exit codes and stderr lines on every error, and
no process left behind.

The worker count comes from ``os.sched_getaffinity``, so the tests set it
by patching that function: ``ONE_CPU`` runs every chunk in this process,
``TWO_CPUS`` and ``THREE_CPUS`` fork one and two workers whatever the
machine has.  Calls are recorded one line each in a file, from whichever
process makes them, to see which process ran what.
"""

import contextlib
import dataclasses
import io
import os
from pathlib import Path

import numpy as np
import pytest

from test_compare import record_call, recorded_calls
from warpcurv import DomainError, catalog, cli

NAMES = [e.name for e in catalog()]
ONE_CPU, TWO_CPUS, THREE_CPUS = {0}, {0, 1}, {0, 1, 2}
# two chunks, so two blocks: the first chunk here, the second (one
# sample, one point in its oracle call) in the worker
SAMPLES = cli.CHUNK + 1


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_compare(monkeypatch, tmp_path, cpus, *argv):
    """(exit code, stdout, stderr, ledger text or None) of an in-process
    compare on ``cpus``; checks that every worker has been reaped."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    ledger = tmp_path / "ledger.json"
    if ledger.exists():
        ledger.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["compare", *argv, "--ledger", str(ledger)])
    assert_no_children()
    text = ledger.read_text() if ledger.exists() else None
    return code, out.getvalue(), err.getvalue(), text


# ---------------------------------------------------------------------------
# the same bytes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", ["as-printed", "as-derived"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", NAMES)
def test_one_cpu_gives_the_default_bytes(monkeypatch, tmp_path, name, seed,
                                         path):
    argv = (name, "--samples", "200", "--seed", str(seed), "--path", path)
    default = run_compare(monkeypatch, tmp_path, None, *argv)
    alone = run_compare(monkeypatch, tmp_path, ONE_CPU, *argv)
    assert default == alone
    assert default[0] == 0 and default[3] is not None


@pytest.mark.parametrize("name", ["kasner_vacuum",
                                  "generalized_reissner_nordstrom_demo"])
def test_three_blocks_give_the_bytes_of_one(monkeypatch, tmp_path, name):
    """200 samples, 4 chunks, on 3 CPUs: blocks of 1, 1 and 2 chunks, the
    last two in workers."""
    log = tmp_path / "calls"
    real = cli._compare_chunks

    def recorded(*args):
        record_call(log, len(args[-1]))
        return real(*args)
    monkeypatch.setattr(cli, "_compare_chunks", recorded)
    argv = (name, "--samples", "200", "--seed", "5", "--path", "as-printed")
    split = run_compare(monkeypatch, tmp_path, THREE_CPUS, *argv)
    calls = recorded_calls(log)
    assert len(calls) == 3 and calls.pop(os.getpid()) == ["1"]
    assert sorted(sum(calls.values(), [])) == ["1", "2"]
    assert split == run_compare(monkeypatch, tmp_path, ONE_CPU, *argv)


def test_zero_samples_and_one_chunk_fork_no_worker(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    for samples in ("0", "1", str(cli.CHUNK)):
        code, _, _, text = run_compare(monkeypatch, tmp_path, TWO_CPUS,
                                       "kasner_vacuum", "--samples", samples)
        assert code == 0 and text is not None


def serial_and_split(monkeypatch, tmp_path, *argv):
    """The runs on one CPU and on two, each as run_compare gives it."""
    alone = run_compare(monkeypatch, tmp_path, ONE_CPU, *argv)
    split = run_compare(monkeypatch, tmp_path, TWO_CPUS, *argv)
    return alone, split


def test_a_disagreement_exits_1_with_its_ledger(monkeypatch, tmp_path):
    """Every sample's generic value is off by one: exit 1, and the ledger
    and stdout of one process."""
    real = cli.null_curvature_generic

    def off_by_one(spec, plane):
        res = real(spec, plane)
        return dataclasses.replace(res, value=res.value + 1.0)
    monkeypatch.setattr(cli, "null_curvature_generic", off_by_one)
    alone, split = serial_and_split(monkeypatch, tmp_path, "einstein_static",
                                    "--samples", "200", "--seed", "2")
    assert split == alone
    code, out, err, text = split
    assert code == 1 and "DISAGREES" in out and err == ""
    assert text.count('"path_a": "generic"') == 200


# ---------------------------------------------------------------------------
# errors in a block
# ---------------------------------------------------------------------------

def patch_oracle(monkeypatch, log, raise_at):
    """Record every oracle call; ``raise_at(points)`` raises where it
    should."""
    real = cli.riemann_oracle_batch

    def oracle(chart, points):
        record_call(log, len(points))
        raise_at(points)
        return real(chart, points)
    monkeypatch.setattr(cli, "riemann_oracle_batch", oracle)


def test_domain_error_only_in_the_worker(monkeypatch, tmp_path):
    log = tmp_path / "calls"

    def raise_at(points):
        if len(points) == 1:
            raise DomainError(f"outside the chart in pid {os.getpid()}")
    patch_oracle(monkeypatch, log, raise_at)
    code, out, err, text = run_compare(monkeypatch, tmp_path, TWO_CPUS,
                                       "kasner_vacuum", "--samples",
                                       str(SAMPLES))
    calls = recorded_calls(log)
    worker, = set(calls) - {os.getpid()}
    assert calls == {os.getpid(): [str(cli.CHUNK)], worker: ["1"]}
    assert (code, out, err, text) == (
        3, "", f"error: outside the chart in pid {worker}\n", None)


def test_the_first_blocks_error_wins(monkeypatch, tmp_path):
    """Both blocks raise; the worker's one-sample block raises first in
    time, the first block's message is the one printed, as in one
    process."""
    def raise_at(points):
        raise DomainError(f"outside the chart at {len(points)} points")
    patch_oracle(monkeypatch, tmp_path / "calls", raise_at)
    alone, split = serial_and_split(monkeypatch, tmp_path, "kasner_vacuum",
                                    "--samples", str(SAMPLES))
    assert split == alone == (
        3, "", f"error: outside the chart at {cli.CHUNK} points\n", None)


def test_the_first_blocks_error_kills_the_workers(monkeypatch, tmp_path):
    """200 samples: the first block fails at its first chunk while the
    worker still has two chunks to go; it is killed and reaped."""
    log = tmp_path / "calls"

    def raise_at(points):
        if os.getpid() == main_pid:
            raise DomainError("outside the chart")
    main_pid = os.getpid()
    patch_oracle(monkeypatch, log, raise_at)
    code, out, err, text = run_compare(monkeypatch, tmp_path, TWO_CPUS,
                                       "kasner_vacuum", "--samples", "200")
    assert (code, out, err, text) == (
        3, "", "error: outside the chart\n", None)
    assert recorded_calls(log)[main_pid] == [str(cli.CHUNK)]


def oracle_that_breaks_in_a_worker(points):
    if len(points) == 1:
        raise KeyError("no such component")


def test_unexpected_error_in_the_worker_exits_4(monkeypatch, tmp_path):
    patch_oracle(monkeypatch, tmp_path / "calls",
                 oracle_that_breaks_in_a_worker)
    alone, split = serial_and_split(monkeypatch, tmp_path, "kasner_vacuum",
                                    "--samples", str(SAMPLES))
    for code, out, err, text in (alone, split):
        assert (code, out, text) == (4, "", None)
        assert "Traceback (most recent call last):" in err
        assert err.rstrip().endswith("KeyError: 'no such component'")
    # the worker's own traceback, chained as the cause, names the function
    assert "in oracle_that_breaks_in_a_worker" in split[2]
    assert "WorkerTraceback" in split[2]


class Unsendable(Exception):
    """An exception pickle can write but not read back."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def test_an_exception_that_cannot_be_sent_exits_4(monkeypatch, tmp_path):
    def raise_at(points):
        if len(points) == 1:
            raise Unsendable("broken", "the worker")
    patch_oracle(monkeypatch, tmp_path / "calls", raise_at)
    code, out, err, text = run_compare(monkeypatch, tmp_path, TWO_CPUS,
                                       "kasner_vacuum", "--samples",
                                       str(SAMPLES))
    assert (code, out, text) == (4, "", None)
    assert ("RuntimeError: a compare worker raised Unsendable: broken at "
            "the worker") in err
    assert "in raise_at" in err


def test_overflow_in_the_worker_exits_3(monkeypatch, tmp_path):
    """The worker evaluates under the np.errstate that cli.main set."""
    def raise_at(points):
        if len(points) == 1:
            np.float64(1e308) * np.float64(10.0)
    patch_oracle(monkeypatch, tmp_path / "calls", raise_at)
    alone, split = serial_and_split(monkeypatch, tmp_path, "kasner_vacuum",
                                    "--samples", str(SAMPLES))
    assert split == alone
    code, out, err, text = split
    assert (code, out, text) == (3, "", None)
    assert err.startswith("error: the model cannot be evaluated here: "
                          "overflow")


def test_unwritable_ledger_exits_2_after_the_workers(monkeypatch, tmp_path):
    ledger = tmp_path / "missing" / "ledger.json"
    runs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["compare", "einstein_static", "--samples",
                             "200", "--path", "as-printed",
                             "--ledger", str(ledger)])
        assert_no_children()
        runs.append((code, err.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and str(ledger) in runs[0][1]
    assert not Path(ledger).parent.exists()


def test_ledger_directory_gone_during_the_run_exits_2(monkeypatch, tmp_path):
    """The ledger's directory passes the up-front check and is removed
    while the first block runs: the final ``open`` fails on its own, after
    the workers, with the same exit code and stderr on one and two CPUs."""
    folder = tmp_path / "gone"
    ledger = folder / "ledger.json"
    real = cli._compare_chunks

    def removing(*args):
        result = real(*args)
        with contextlib.suppress(FileNotFoundError):
            folder.rmdir()
        return result
    monkeypatch.setattr(cli, "_compare_chunks", removing)
    runs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        folder.mkdir()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["compare", "einstein_static", "--samples",
                             "200", "--path", "as-printed",
                             "--ledger", str(ledger)])
        assert_no_children()
        runs.append((code, err.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and str(ledger) in runs[0][1]
    assert "Errno" in runs[0][1] and not folder.exists()
