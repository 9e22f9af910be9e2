"""`compare` in chunks: the batched run against the per-sample loop it
replaced, the streamed ledger writer against ``json.dump``, and the
batched fills of the contexts' base and fiber tensors against a fill of
one."""

import contextlib
import functools
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from reference_oracle import (lowered_riemann, null_sectional_from_tensors,
                              riemann_oracle)
from warpcurv import (CoordinateChart, DomainError, Interval, Point,
                      PointContext, ValidationError, WarpingFunction,
                      assemble_chart, by_name, catalog, euclidean_fiber,
                      flatten, formula_paths, generic_warped_spec, grw_spec,
                      null_curvature_generic, sample_plane,
                      schwarzschild_spatial_fiber, spec_to_json,
                      specialized_null_curvature, sphere_fiber)
from warpcurv import cli, core_types
from warpcurv import hyperdual as hd

CATALOG = catalog()
NAMES = [e.name for e in CATALOG]
SEEDS = (0, 7)
SAMPLES = cli.CHUNK + 1
VALUE_TOL = 1e-13
FIELDS = ("model", "point", "plane_seed", "term", "path_a", "path_b",
          "value_a", "value_b", "abs_diff")


def run_compare(*argv):
    """(exit code, stdout, ledger text or None) of an in-process compare."""
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["compare", *argv, "--ledger", str(ledger)])
        text = ledger.read_text() if ledger.exists() else None
        return code, out.getvalue().replace(str(ledger), "LEDGER"), text


@functools.cache
def batched(name, seed, samples=SAMPLES):
    return run_compare(name, "--samples", str(samples), "--seed", str(seed),
                       "--path", "as-printed")


def scalar_compare(entry, seed, samples):
    """The per-sample loop compare ran before it was chunked, with the
    scalar oracle at every sample: (exit code, stdout, rows)."""
    spec = entry.spec
    chart = assemble_chart(spec)
    printed_paths = [p for p in formula_paths(spec) if p != "derived"]
    root = np.random.default_rng(np.uint64(seed))
    rows, ok = [], True

    def row(coords, term, path_a, path_b, va, vb):
        rows.append({**coords, "term": term, "path_a": path_a,
                     "path_b": path_b, "value_a": va, "value_b": vb,
                     "abs_diff": abs(va - vb)})

    for _ in range(samples):
        plane_seed = int(root.integers(0, 2 ** 63))
        rng = np.random.default_rng(np.uint64(plane_seed))
        ctx = PointContext(spec, entry.random_point(rng))
        plane = sample_plane(spec, ctx, rng)
        x = list(ctx.point.flat(spec))
        tensors = riemann_oracle(chart, x)
        k_oracle = null_sectional_from_tensors(tensors, flatten(plane.L),
                                               flatten(plane.S))
        scale = max(1.0, float(np.max(np.abs(lowered_riemann(tensors)))))
        tol = max(cli.COMPARE_ABS_TOL, cli.COMPARE_REL_TOL * scale)
        coords = {"model": entry.name, "point": x, "plane_seed": plane_seed}
        derived = specialized_null_curvature(spec, plane, "derived")
        gen = null_curvature_generic(spec, plane)
        for label, res in (("as-derived", derived), ("generic", gen)):
            if abs(res.value - k_oracle) > tol:
                ok = False
                row(coords, "value", label, "oracle", res.value, k_oracle)
        for path in printed_paths:
            printed = specialized_null_curvature(spec, plane, path)
            label = ("as-printed:"
                     f"{path.removeprefix('printed').lstrip('_') or 'main'}")
            for key in sorted(set(derived.breakdown) | set(printed.breakdown)):
                va = printed.breakdown.get(key, 0.0)
                vb = derived.breakdown.get(key, 0.0)
                if not np.isfinite(va) or abs(va - vb) > tol:
                    row(coords, key, label, "as-derived", va, vb)
            if not np.isfinite(printed.value) \
                    or abs(printed.value - k_oracle) > tol:
                row(coords, "value", label, "oracle", printed.value, k_oracle)
    stdout = (f"{entry.name}: {samples} samples, {len(rows)} ledger entries "
              f"-> LEDGER; derived-vs-oracle {'OK' if ok else 'DISAGREES'}\n")
    return (0 if ok else 1), stdout, rows


def keys(rows):
    return [(r["plane_seed"], r["term"], r["path_a"], r["path_b"])
            for r in rows]


def assert_close(got, want):
    """Equal numbers up to VALUE_TOL of the row's scale; NaN and the
    infinities must match exactly."""
    scale = max([1.0] + [abs(want[k]) for k in ("value_a", "value_b")
                         if math.isfinite(want[k])])
    pairs = list(zip(got["point"], want["point"]))
    pairs += [(got[k], want[k]) for k in ("value_a", "value_b", "abs_diff")]
    for a, b in pairs:
        if math.isfinite(b):
            assert abs(a - b) <= VALUE_TOL * scale, (a, b)
        else:
            assert a == b or (math.isnan(a) and math.isnan(b)), (a, b)


def dumped(rows):
    buf = io.StringIO()
    json.dump(rows, buf, indent=2)
    return buf.getvalue() + "\n"


def written(rows):
    """The rows spelled by the ledger's head and row functions, framed as
    ``compare`` frames them; each row's ``abs_diff`` is recomputed."""
    buf = io.StringIO()
    cli._write_framed(buf, [
        cli._ledger_text(
            cli._ledger_head(json.dumps(r["model"]), r["point"],
                             r["plane_seed"]),
            json.dumps(r["term"]), json.dumps(r["path_a"]),
            json.dumps(r["path_b"]), r["value_a"], r["value_b"])
        for r in rows])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the chunked run against the per-sample loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("entry", CATALOG, ids=NAMES)
class TestAgainstScalarLoop:
    def test_rows_and_stdout(self, entry, seed):
        code, stdout, text = batched(entry.name, seed)
        want_code, want_stdout, want = scalar_compare(entry, seed, SAMPLES)
        got = json.loads(text)
        assert (code, stdout) == (want_code, want_stdout)
        assert keys(got) == keys(want)
        for g, w in zip(got, want):
            assert g["model"] == w["model"]
            assert_close(g, w)

    def test_chunk_boundary(self, entry, seed):
        """The first chunk's rows do not depend on the samples after it."""
        root = np.random.default_rng(np.uint64(seed))
        seeds = [int(root.integers(0, 2 ** 63)) for _ in range(SAMPLES)]
        full = json.loads(batched(entry.name, seed)[2])
        first = batched(entry.name, seed, cli.CHUNK)[2]
        assert dumped([r for r in full
                       if r["plane_seed"] != seeds[-1]]) == first
        assert {r["plane_seed"] for r in full} <= set(seeds)


def recorded_calls(log):
    """{pid: [line, ...]} of a call log, each process's lines in order."""
    calls = {}
    for line in log.read_text().splitlines():
        pid, _, what = line.partition(" ")
        calls.setdefault(int(pid), []).append(what)
    return calls


def record_call(log, what) -> None:
    """Append one line for a call, from whichever process makes it (the
    chunks after the first block run in forked workers)."""
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {what}\n")


@pytest.mark.parametrize("target", ["riemann_oracle_batch",
                                    "null_curvature_generic"])
def test_domain_error_in_a_chunk_writes_no_ledger(monkeypatch, tmp_path,
                                                  target):
    """A DomainError in the second chunk (the oracle, on its one point)
    or in the first chunk's last sample (the generic expansion) exits 3,
    no ledger.  Calls are recorded in a file, so a worker's count too."""
    real = getattr(cli, target)
    log = tmp_path / "calls"
    calls = {"n": 0}  # this process's calls; a worker counts its own

    def failing(*args, **kwargs):
        calls["n"] += 1
        record_call(log, target)
        if (len(args[1]) == 1 if target == "riemann_oracle_batch"
                else calls["n"] == cli.CHUNK):
            raise DomainError("outside the chart")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, target, failing)
    code, stdout, text = run_compare("kasner_vacuum", "--samples",
                                     str(SAMPLES), "--path", "as-printed")
    recorded = recorded_calls(log)
    if target == "riemann_oracle_batch":
        assert sum(map(len, recorded.values())) == 2
    else:
        # the first chunk runs here; a worker may have started the second
        assert len(recorded[os.getpid()]) == cli.CHUNK
    assert (code, stdout, text) == (3, "", None)


# ---------------------------------------------------------------------------
# the ledger writer against json.dump
# ---------------------------------------------------------------------------

def ledger_row(**values):
    """A ledger row whose ``abs_diff`` is |value_a - value_b|, as
    ``compare`` writes it."""
    row = {"model": "kasner_vacuum", "point": [1.25, 0.1, -0.2, 0.3],
           "plane_seed": 12345, "term": "value",
           "path_a": "as-printed:main", "path_b": "oracle",
           "value_a": 0.5, "value_b": -0.25, "abs_diff": None}
    row.update(values)
    row["abs_diff"] = abs(row["value_a"] - row["value_b"])
    assert tuple(row) == FIELDS
    return row


class TestLedgerWriter:
    def test_zero_rows(self):
        assert written([]) == dumped([]) == "[]\n"
        code, _, text = run_compare("minkowski", "--samples", "0")
        assert code == 0 and text == dumped([])

    def test_one_row(self):
        rows = [ledger_row()]
        assert written(rows) == dumped(rows)

    def test_special_numbers(self):
        rows = [ledger_row(value_a=math.nan),
                ledger_row(value_a=math.inf, value_b=-math.inf),
                ledger_row(value_b=-0.0, point=[-0.0, 5e-324, 1e300, -1e-7]),
                ledger_row(plane_seed=2 ** 63 - 1, value_a=np.float64(0.1),
                           value_b=1e-310)]
        text = written(rows)
        assert text == dumped(rows)
        for word in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324",
                     "1e-310", "9223372036854775807"):
            assert word in text

    def test_non_ascii_model_name(self, tmp_path):
        name = "Kasner été – φ² \U0001d4ae"
        spec = {"kind": "Kasner", "name": name,
                "base": {"t1": 0.2, "t2": 3.0},
                "fibers": [{"dim": 1, "model": "euclidean"}] * 3,
                "warpings": [{"form": "power",
                              "params": {"c": 1.0, "q": 1.0}}],
                "kasner_exponents": [2 / 3, 2 / 3, -1 / 3]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec, ensure_ascii=False),
                        encoding="utf-8")
        code, _, text = run_compare(str(path), "--samples", "5",
                                    "--path", "as-printed")
        rows = json.loads(text)
        assert code == 0 and rows
        assert {r["model"] for r in rows} == {name}
        assert text == dumped(rows) == written(rows)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", NAMES)
    def test_catalog_ledgers(self, name, seed):
        text = batched(name, seed)[2]
        rows = json.loads(text)
        assert text == dumped(rows) == written(rows)


# ---------------------------------------------------------------------------
# the batched fill of the contexts' base tensors
# ---------------------------------------------------------------------------

def generic_spec():
    base = CoordinateChart(
        dim=2,
        metric_at=lambda c: [[-(1.0 + c[1] * c[1]), 0.0], [0.0, 1.0]],
        name="curved_line")
    return generic_warped_spec(
        base, [lambda c: hd.exp(0.5 * c[1]),
               lambda c: hd.cosh(c[0]) + c[1] * c[1]],
        [sphere_fiber(2, 1.5), euclidean_fiber(1, ("z",))], name="generic")


def generic_point(rng):
    return Point((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 ((rng.uniform(0.6, 2.5), rng.uniform(0, 6)),
                  (rng.uniform(-1, 1),)))


def chart_base_cases():
    cases = [pytest.param(e.spec, e.random_point, id=e.name) for e in CATALOG
             if e.spec.kind == "SSST"]
    assert len(cases) == 3
    return cases + [pytest.param(generic_spec(), generic_point, id="generic")]


TENSOR_FIELDS = ("metric", "metric_inv", "gamma", "riemann", "ricci",
                 "dmetric")


@pytest.mark.parametrize("spec,draw", chart_base_cases())
def test_batched_fill_equals_a_fill_of_one(spec, draw):
    rng = np.random.default_rng(11)
    points = [draw(rng) for _ in range(cli.CHUNK)]
    chunk = [PointContext(spec, p) for p in points]
    PointContext.fill_base_tensors(chunk)
    for ctx, p in zip(chunk, points):
        alone = PointContext(spec, p).base_tensors
        filled = ctx.base_tensors
        assert filled.point == alone.point
        for field in TENSOR_FIELDS:
            got, want = getattr(filled, field), getattr(alone, field)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert not got.flags.writeable and not want.flags.writeable
            with pytest.raises(ValueError):
                got[(0,) * got.ndim] = 1.0
    # a filled slot is never replaced
    before = [ctx.base_tensors for ctx in chunk]
    PointContext.fill_base_tensors(chunk)
    assert all(ctx.base_tensors is t for ctx, t in zip(chunk, before))


def grw_schwarzschild_spec():
    """A time-base spec whose fiber has no constant curvature, so the
    generic route reads the fiber's own oracle tensors."""
    return grw_spec(Interval(0.5, 3.0),
                    WarpingFunction.from_form("exp", {"c": 1.0, "k": 0.3}),
                    schwarzschild_spatial_fiber(1.0), name="grw_schwarzschild")


def test_batched_fiber_fill_equals_a_fill_of_one():
    spec = grw_schwarzschild_spec()
    entry = cli._fallback_entry(spec.name, spec)
    rng = np.random.default_rng(12)
    points = [entry.random_point(rng) for _ in range(cli.CHUNK)]
    chunk = [PointContext(spec, p) for p in points]
    PointContext.fill_fiber_tensors(chunk, 0)
    for ctx, p in zip(chunk, points):
        alone = PointContext(spec, p).fiber_tensors(0)
        filled = ctx.fiber_tensors(0)
        assert filled.point == alone.point
        for field in TENSOR_FIELDS:
            got, want = getattr(filled, field), getattr(alone, field)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert not got.flags.writeable and not want.flags.writeable
    before = [ctx.fiber_tensors(0) for ctx in chunk]
    PointContext.fill_fiber_tensors(chunk, 0)
    assert all(ctx.fiber_tensors(0) is t for ctx, t in zip(chunk, before))


def test_compare_fills_fiber_tensors_once_per_chunk(monkeypatch, tmp_path):
    """compare on a spec file with a Schwarzschild spatial fiber: one
    batched fiber oracle call per chunk (200 samples: 4 chunks).  Calls
    are recorded in a file, from every process; this process's come
    first, then each worker's (forked in block order, so by pid)."""
    log = tmp_path / "calls"
    batch = core_types.riemann_oracle_batch

    def counted(chart, points):
        record_call(log, len(points))
        return batch(chart, points)
    monkeypatch.setattr(core_types, "riemann_oracle_batch", counted)
    path = tmp_path / "grw_schwarzschild.json"
    path.write_text(spec_to_json(grw_schwarzschild_spec()))
    code, out, _ = run_compare(str(path), "--samples", "200", "--seed", "3")
    assert code == 0, out
    recorded = recorded_calls(log)
    order = sorted(recorded, key=lambda pid: (pid != os.getpid(), pid))
    calls = [int(n) for pid in order for n in recorded[pid]]
    assert calls == [64, 64, 64, 8]


def test_fill_on_a_line_base_is_a_no_op():
    entry = CATALOG[0]
    ctx = PointContext(entry.spec, entry.default_point())
    PointContext.fill_base_tensors([ctx])
    assert ctx.base_tensors is None


def test_fill_refuses_contexts_of_two_specs():
    a, b = by_name("einstein_static"), by_name("schwarzschild_exterior")
    with pytest.raises(ValidationError, match="different specs"):
        PointContext.fill_base_tensors(
            [PointContext(a.spec, a.default_point()),
             PointContext(b.spec, b.default_point())])
