"""Command-line front end.

Three subcommands, whose sampled planes, a chunk at a time, are all
evaluated in :func:`_evaluate_planes`; two values agree there only if
|a - b| <= tol, which a NaN or an infinity never is:

* ``report``  : curvature report (Ricci, isotropy scan, sampled planes)
  at one point, through the closed forms and the chart oracle.
* ``compare`` : seeded random (point, plane) draws; writes a term-level
  discrepancy ledger (``ledger.json``) and exits nonzero if the derived
  closed forms ever disagree with the oracle beyond tolerance.
* ``scan``    : CSV sweep of a quantity along the base coordinate.

Exit codes: 0 success; 1 only from ``compare``, when a derived closed form
disagrees with the oracle; 2 input, validation or file error; 3 domain
error or degenerate metric; 4 internal error (traceback on stderr).
The default seed comes from the ``WARPCURV_SEED`` environment variable.
Output is byte-identical for identical (arguments, seed) on one platform;
``compare`` spreads its chunks over forked workers, one per CPU the
process may run on, and its output does not depend on how many.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import pickle
import signal
import sys
import threading
import traceback

import numpy as np

from . import __version__
from .core_types import (ManifoldSpec, Point, PointContext, assemble_chart,
                         flatten, point_from_flat, spec_from_json, spec_hash)
from .errors import (DegenerateMetricError, DomainError, GeometryError,
                     ValidationError)
from .models import CatalogEntry, by_name
from .null_sectional import (formula_paths, isotropy_summary,
                             null_curvature_generic, sample_planes,
                             specialized_null_curvature)
from .tensor_oracle import (lowered_riemann_batch, null_sectional_batch,
                            riemann_oracle, riemann_oracle_batch)
from .warped_formulas import ricci_matrix

COMPARE_ABS_TOL = 1e-10
COMPARE_REL_TOL = 1e-8

# points per batched oracle call in ``scan`` and samples per chunk in
# ``compare``; bounds the batch's memory
CHUNK = 64


# ---------------------------------------------------------------------------
# model/point resolution
# ---------------------------------------------------------------------------

def _resolve_model(token: str) -> tuple[str, ManifoldSpec, CatalogEntry]:
    """A catalog model, or a spec file's with :func:`_fallback_entry`."""
    if not os.path.exists(token):
        entry = by_name(token)
        return entry.name, entry.spec, entry
    if not os.path.isfile(token):
        raise ValidationError(f"spec file {token!r} is not a regular file")
    try:
        with open(token) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc.reason
        raise ValidationError(f"cannot read spec file {token!r}: {reason}") \
            from None
    spec = spec_from_json(text)
    name = spec.name or os.path.basename(token)
    return name, spec, _fallback_entry(name, spec)


def _fallback_entry(name: str, spec: ManifoldSpec) -> CatalogEntry:
    """Sampling windows for spec-file models: jitter around the fiber
    sample coordinates, base coordinate in a bounded interior window."""
    samples = spec.base.sample_points(9)
    base_window = (samples[1], samples[-2])
    windows = []
    for f in spec.fibers:
        center = f.sample_coords or tuple(0.3 for _ in range(f.dim))
        windows.append(tuple((c - 0.2, c + 0.2) for c in center))
    return CatalogEntry(name=name, spec=spec, known_facts=(),
                        base_window=base_window, fiber_windows=tuple(windows))


def _parse_point(spec: ManifoldSpec, text: str, default: Point) -> Point:
    """Named coordinates, each given at most once, override the model's
    default point; bare comma-separated values must list every
    coordinate."""
    names = spec.flat_coord_names()
    if "=" in text:
        given = {}
        for item in text.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in names:
                raise ValidationError(
                    f"unknown coordinate {key!r}; expected {names}")
            if key in given:
                raise ValidationError(
                    f"--point: coordinate {key!r} given twice")
            given[key] = _coordinate(key, val)
        coords = [given.get(k, c) for k, c in zip(names, default.flat(spec))]
    else:
        coords = [_coordinate(names[i] if i < len(names) else f"#{i + 1}", v)
                  for i, v in enumerate(text.split(","))]
    return point_from_flat(spec, coords)  # validated by the caller's context


def _coordinate(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"--point: coordinate {name!r} is not a number: {text.strip()!r}"
        ) from None


def _count(minimum: int):
    """argparse type: an integer count of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    return parse


def _seed_from(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("WARPCURV_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValidationError(
                f"WARPCURV_SEED must be an integer, got {text!r}") from None
    return seed & (2 ** 64 - 1)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _check_output(path: str) -> None:
    """Refuse, before any work, an output path that is a directory or
    whose directory does not exist.  Nothing is created; the final
    ``open`` still reports any other error."""
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path!r}: it is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValidationError(
            f"cannot write {path!r}: {folder!r} is not a directory")


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or the file at ``path``, closed afterwards."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


# ---------------------------------------------------------------------------
# the plane evaluator
# ---------------------------------------------------------------------------

def _evaluate_planes(spec, planes, tensors, paths, generic: bool):
    """Evaluate drawn planes at the chart tensors of each one's point: per
    plane (the plane, K_oracle, tolerance, {path: result} for the
    closed-form ``paths``, the generic route's result or None), with one
    :func:`null_sectional_batch` (which checks every plane first) and one
    :func:`lowered_riemann_batch` for the tolerance's scale max(1, |R|).
    The routes run as the caller iterates; every caller runs it to the
    end (``compare`` zips strictly), so none of the chunk outlives it."""
    k_oracles = null_sectional_batch(tensors,
                                     [flatten(plane.L) for plane in planes],
                                     [flatten(plane.S) for plane in planes])
    distinct = {id(t): t for t in tensors}  # a report's planes share one
    peaks = dict(zip(distinct, np.abs(lowered_riemann_batch(
        list(distinct.values()))).max(axis=(1, 2, 3, 4)).tolist()))
    tols = [max(COMPARE_ABS_TOL, COMPARE_REL_TOL * max(1.0, peaks[id(t)]))
            for t in tensors]
    return ((plane, k_oracle, tol,
             {path: specialized_null_curvature(spec, plane, path)
              for path in paths},
             null_curvature_generic(spec, plane) if generic else None)
            for plane, k_oracle, tol in zip(planes, k_oracles.tolist(), tols))


def _disagree(a: float, b: float, tol: float) -> bool:
    """Whether a and b differ by more than tol, as a NaN or an inf does."""
    return not abs(a - b) <= tol


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    name, spec, entry = _resolve_model(args.model)
    seed = _seed_from(args)
    default = entry.default_point()
    p = _parse_point(spec, args.point, default) if args.point else default
    ctx = PointContext(spec, p)  # shared by every plane of the report
    if args.out:
        _check_output(args.out)

    chart = assemble_chart(spec)
    x = list(p.flat(spec))
    tensors = riemann_oracle(chart, x)
    ric_s, ric_o = ricci_matrix(spec, [ctx])[0], tensors.ricci
    paths = formula_paths(spec) if args.path == "all" else (args.path,)

    rng = np.random.default_rng(np.uint64(seed))
    planes = []
    flags = []
    generic_values = []
    # every plane is at the one point and comes from the one generator, so
    # each chunk is one batched draw
    for start in range(0, args.planes, CHUNK):
        size = min(CHUNK, args.planes - start)
        drawn = sample_planes(spec, [ctx] * size, [rng] * size)
        evaluations = _evaluate_planes(spec, drawn, [tensors] * size, paths,
                                       generic=True)
        for i, (_, k_oracle, tol, forms, gen) in enumerate(evaluations, start):
            generic_values.append(gen.value)
            row = {"index": i, "K_oracle": k_oracle}
            for path, res in forms.items():
                row[f"K_{path}"] = res.value
                if path == "derived":
                    row["breakdown"] = res.breakdown
                if _disagree(res.value, k_oracle, tol):
                    flags.append(f"plane {i}: {path} K deviates from oracle")
            planes.append(row)

    doc = {
        "tool": "warpcurv",
        "version": __version__,
        "model": name,
        "spec_sha256": spec_hash(spec),
        "seed": seed,
        "point": {"names": spec.flat_coord_names(), "coords": x},
        "ricci": {
            "specialized": ric_s.tolist(),
            "oracle": ric_o.tolist(),
            "max_abs_diff": float(np.max(np.abs(ric_s - ric_o))),
        },
        "isotropy": isotropy_summary(generic_values),
        "planes": planes,
        "discrepancy_flags": flags,
    }
    _emit_report(doc, args)
    return 0


def _emit_report(doc, args) -> None:
    with _output(args.out) as out:
        if args.format == "json":
            json.dump(doc, out, indent=2)
            out.write("\n")
        elif args.format == "csv":
            out.write("quantity,path,value\r\n")
            out.write(f"ricci_max_abs_diff,both,{_csv(doc['ricci']['max_abs_diff'])}\r\n")
            out.write(f"isotropy_mean,derived,{_csv(doc['isotropy']['mean'])}\r\n")
            out.write(f"isotropy_max_deviation,derived,"
                      f"{_csv(doc['isotropy']['max_deviation'])}\r\n")
            for row in doc["planes"]:
                for key, val in row.items():
                    if key.startswith("K_"):
                        out.write(f"plane{row['index']}_{key},"
                                  f"{key[2:]},{_csv(val)}\r\n")
        else:
            out.write(f"model {doc['model']}  (spec {doc['spec_sha256']}, "
                      f"seed {doc['seed']})\n")
            out.write(f"point: {dict(zip(doc['point']['names'], doc['point']['coords']))}\n")
            out.write(f"ricci max |specialized - oracle|: "
                      f"{doc['ricci']['max_abs_diff']:.3e}\n")
            out.write(f"isotropy: mean {doc['isotropy']['mean']:.12g}, "
                      f"max deviation {doc['isotropy']['max_deviation']:.3e}\n")
            for row in doc["planes"]:
                ks = "  ".join(f"{k}={v:.12g}" for k, v in row.items()
                               if k.startswith("K_"))
                out.write(f"plane {row['index']}: {ks}\n")
            if doc["discrepancy_flags"]:
                out.write("flags:\n")
                for f in doc["discrepancy_flags"]:
                    out.write(f"  {f}\n")
            else:
                out.write("flags: none\n")


def _csv(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    """Compare every closed form with the chart oracle at ``--samples``
    seeded (point, plane) draws; write the ledger, print one summary line.

    Each sample's ``plane_seed`` is drawn from the root generator up front,
    in sample order, and the samples are evaluated ``CHUNK`` at a time by
    :func:`_compare_chunks`.  The chunks are cut into contiguous blocks,
    one per CPU this process may run on (:func:`_blocks`): the process
    evaluates the first block and a forked worker each of the others.  A
    block returns its rows already spelled as ledger text, and a sample's
    rows never straddle two blocks, so the joined ledger has the bytes of
    a run in one process.  A ledger path that cannot be written
    (:func:`_check_output`) is refused before the first sample.  The
    ledger is written only once every block has succeeded; an error in a
    block is raised here as it would be in one process, the first block's
    before any worker's.
    """
    name, spec, entry = _resolve_model(args.model)
    seed = _seed_from(args)
    _check_output(args.ledger)
    chart = assemble_chart(spec)
    paths = formula_paths(spec) if args.path == "as-printed" else ("derived",)

    root = np.random.default_rng(np.uint64(seed))
    plane_seeds = [int(root.integers(0, 2 ** 63))
                   for _ in range(args.samples)]
    chunks = [plane_seeds[start:start + CHUNK]
              for start in range(0, args.samples, CHUNK)]
    job = functools.partial(_compare_chunks, name, spec, entry, chart, paths)
    with _blocks(job, chunks) as results:
        entries = sum(rows for _, rows, _ in results)
        derived_ok = all(ok for _, _, ok in results)
        with open(args.ledger, "w") as fh:
            _write_framed(fh, _fragments(results))
    print(f"{name}: {args.samples} samples, {entries} ledger entries "
          f"-> {args.ledger}; derived-vs-oracle "
          f"{'OK' if derived_ok else 'DISAGREES'}")
    return 0 if derived_ok else 1


def _fragments(results: list):
    """The blocks' fragments in block order.  Each block is let go once it
    is written, so this process's own text is freed before a worker's is
    read."""
    while results:
        yield from results.pop(0)[0]


def _compare_chunks(name, spec, entry, chart, paths,
                    chunks) -> tuple[list[str], int, bool]:
    """Evaluate chunks of plane seeds on the generic route and the
    closed-form ``paths``, the derived one first: (a fragment of ledger
    text per chunk with rows, its rows' texts joined by ``",\\n"``; the
    number of rows; whether the derived closed forms agree with the
    oracle at every sample).  A sample with rows has its head spelled
    once (:func:`_ledger_head`) and each row from it
    (:func:`_ledger_text`); each distinct string is spelled once."""
    spelled: dict[str, str] = {}

    def spell(text: str) -> str:
        if text not in spelled:
            spelled[text] = json.dumps(text)
        return spelled[text]

    model = spell(name)
    value, oracle, as_derived, generic = map(
        spell, ("value", "oracle", "as-derived", "generic"))
    labels = {}  # each printed path's label, spelled
    for path in paths[1:]:
        suffix = path.removeprefix("printed").lstrip("_") or "main"
        labels[path] = spell(f"as-printed:{suffix}")
    fragments = []
    entries = 0
    derived_ok = True
    for plane_seeds in chunks:
        ledger = []
        # each sample draws its point and plane from its own seed, so
        # drawing a chunk at a time leaves every draw as it was
        rngs = [np.random.default_rng(np.uint64(s)) for s in plane_seeds]
        contexts = [PointContext(spec, entry.random_point(rng))
                    for rng in rngs]
        planes = sample_planes(spec, contexts, rngs)
        # the evaluators reuse the context each plane was drawn at; the
        # chunk's curvature tensors are built in one batch, and with them
        # the base tensors and warp bundles they are built from
        PointContext.fill_riemann_tensors(contexts)
        batch = riemann_oracle_batch(chart, [c.point.flat(spec)
                                             for c in contexts])
        evaluations = _evaluate_planes(spec, planes, batch, paths,
                                       generic=True)
        del batch  # before the next chunk's batch is built
        for plane_seed, (plane, k_oracle, tol, forms, gen) in zip(
                plane_seeds, evaluations, strict=True):
            found = []  # (term, path_a, path_b, value_a, value_b), spelled
            derived = forms["derived"]
            for label, res in ((as_derived, derived), (generic, gen)):
                if _disagree(res.value, k_oracle, tol):
                    derived_ok = False
                    found.append((value, label, oracle, res.value, k_oracle))
            for path, label in labels.items():
                printed = forms[path]
                keys = sorted(set(derived.breakdown) | set(printed.breakdown))
                for key in keys:
                    va = printed.breakdown.get(key, 0.0)
                    vb = derived.breakdown.get(key, 0.0)
                    if _disagree(va, vb, tol):
                        found.append((spell(key), label, as_derived, va, vb))
                if _disagree(printed.value, k_oracle, tol):
                    found.append((value, label, oracle, printed.value,
                                  k_oracle))
            if found:
                head = _ledger_head(model, plane.context.point.flat(spec),
                                    plane_seed)
                ledger += [_ledger_text(head, *f) for f in found]
        if ledger:
            fragments.append(",\n".join(ledger))
            entries += len(ledger)
    return fragments, entries, derived_ok


def _ledger_head(model: str, point, plane_seed: int) -> str:
    """The opening of each ledger row of one sample, up to its
    ``plane_seed``, as ``json.dump(rows, indent=2)`` spells it inside the
    list; ``model`` is already spelled."""
    coords = ",\n      ".join(map(_json_number, point))
    listed = f"[\n      {coords}\n    ]" if coords else "[]"
    return (f'  {{\n'
            f'    "model": {model},\n'
            f'    "point": {listed},\n'
            f'    "plane_seed": {_json_number(plane_seed)},\n')


def _ledger_text(head: str, term: str, path_a: str, path_b: str,
                 va: float, vb: float) -> str:
    """A ledger row, from its sample's :func:`_ledger_head` and its
    strings already spelled, as ``json.dump(rows, indent=2)`` spells it
    inside the list; ``abs_diff`` is |va - vb|."""
    return (f'{head}'
            f'    "term": {term},\n'
            f'    "path_a": {path_a},\n'
            f'    "path_b": {path_b},\n'
            f'    "value_a": {_json_number(va)},\n'
            f'    "value_b": {_json_number(vb)},\n'
            f'    "abs_diff": {_json_number(abs(va - vb))}\n'
            f'  }}')


def _write_framed(fh, texts) -> None:
    """Write texts of ledger rows, or of runs of rows joined by
    ``",\\n"``, inside the list's brackets as ``json.dump`` frames them."""
    sep = "[\n"
    for text in texts:
        fh.write(sep + text)
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")


def _json_number(x) -> str:
    """A number as ``json`` writes it: ``float.__repr__``, with NaN and
    the infinities spelled NaN, Infinity and -Infinity."""
    if not isinstance(x, float):
        return int.__repr__(x)
    if math.isfinite(x):
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


# ---------------------------------------------------------------------------
# blocks of chunks in forked workers
# ---------------------------------------------------------------------------

class WorkerTraceback(Exception):
    """The formatted traceback of an exception a worker raised; chained as
    the cause of that exception where it is raised again."""


@contextlib.contextmanager
def _blocks(job, chunks: list):
    """Yield ``job(block)``, ``(fragments, rows, derived_ok)``, for each of
    contiguous blocks of ``chunks``, in order.

    There is one block per CPU this process may run on
    (``os.sched_getaffinity``), at most one per chunk, and at least one.
    The process evaluates the first block itself and forks a worker for
    each other one.  Where a worker cannot be forked safely (no
    ``os.fork`` or ``os.sched_getaffinity``, or other threads running),
    the first block holds every chunk.  A worker sends back its block's
    row count and verdict once its block is done, then its fragments
    one at a time as the caller reads them, so no process holds more
    than its own block's text; or it sends the exception it raised,
    which is raised here.  The exceptions come in block order, so the
    first block's comes before any worker's.  Every worker is reaped
    before this ends, and killed first if a block or the caller raised.
    """
    n = 1
    if len(chunks) > 1 and hasattr(os, "fork") \
            and hasattr(os, "sched_getaffinity") \
            and threading.active_count() == 1:
        n = min(len(chunks), len(os.sched_getaffinity(0)))
    cuts = [len(chunks) * i // n for i in range(n + 1)]
    workers = []  # (pid, the read end of its pipe)
    done = False
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork_worker(job, chunks[lo:hi]))
        results = [job(chunks[:cuts[1]])]
        results += [_worker_result(pid, fh) for pid, fh in workers]
        yield results
        done = True
    finally:
        for pid, fh in workers:
            fh.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_worker(job, block) -> tuple:
    """Fork a worker that evaluates ``job(block)``, sends the result or
    the exception through a pipe and leaves with ``os._exit``; (its pid,
    the read end of the pipe)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as fh:
                try:
                    fragments, rows, ok = job(block)
                except BaseException as exc:
                    pickle.dump(_raised(exc), fh)
                else:
                    pickle.dump(("result", (rows, ok), len(fragments)), fh)
                    for fragment in fragments:
                        pickle.dump(fragment, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _raised(exc: BaseException) -> tuple:
    """A worker's message for an exception: the exception, or where it
    cannot be sent as it is a RuntimeError that names it; and the
    formatted traceback."""
    text = "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"a compare worker raised "
                           f"{type(exc).__name__}: {exc}")
    return "raised", exc, "\n" + text


def _worker_result(pid: int, fh) -> tuple:
    """A worker's (fragments, rows, derived_ok), the fragments read from
    its pipe as they are iterated; or raise the exception it sent."""
    try:
        kind, value, extra = pickle.load(fh)
    except EOFError:
        raise RuntimeError(f"compare worker {pid} ended without sending "
                           f"a result") from None
    if kind == "raised":
        raise value from WorkerTraceback(extra)
    return ((pickle.load(fh) for _ in range(extra)), *value)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    name, spec, entry = _resolve_model(args.model)
    if args.var != "t":
        raise ValidationError("only the base coordinate t can be scanned")
    if not math.isfinite(args.stop - args.start):
        raise ValidationError(
            "--from and --to must be finite numbers with a finite span")
    seed = _seed_from(args)
    chart = assemble_chart(spec)
    base_point = entry.default_point()

    points = [Point(float(t), base_point.fiber_coords)
              for t in np.linspace(args.start, args.stop, args.steps)]
    for p in points:
        p.validate(spec)
    if args.out:
        _check_output(args.out)

    rows = []
    ctx = None
    for start in range(0, len(points), CHUNK):
        chunk = points[start:start + CHUNK]
        batch = riemann_oracle_batch(chart, [p.flat(spec) for p in chunk])
        contexts = []
        for p in chunk:
            # only t moves along the sweep; each step's context shares the
            # work that does not depend on it with the step before.  On a
            # static model t moves nothing, so the first context is filled
            # before it is shared and every step reads its slots
            if ctx is None:
                ctx = PointContext(spec, p)
                if spec.kind == "SSST":
                    PointContext.fill_warp_bundles([ctx])
            else:
                ctx = ctx.at_base(p.t)
            contexts.append(ctx)
        PointContext.fill_warp_bundles(contexts)
        # (value, oracle value) at each step
        if args.quantity == "ricci":
            # the chunk's Ricci matrices in one build, and max |Ric| of
            # each step in one reduction per side; a max is exact, so each
            # step's value is its own max
            pairs = zip(*(np.max(np.abs(m), axis=(1, 2)).tolist()
                          for m in (ricci_matrix(spec, contexts),
                                    np.array([t.ricci for t in batch]))))
        else:
            # every step draws its plane from a generator seeded afresh;
            # the chunk's planes are one batched draw
            pairs = []
            planes = sample_planes(
                spec, contexts,
                [np.random.default_rng(np.uint64(seed)) for _ in contexts])
            evaluations = _evaluate_planes(spec, planes, batch, ("derived",),
                                           generic=False)
            for plane, k_oracle, _, forms, _ in evaluations:
                res = forms["derived"]
                pairs.append((res.numerator, k_oracle * plane.g_SS)
                             if args.quantity == "numerator"
                             else (res.value, k_oracle))
        del batch  # before the next chunk's batch is built
        for p, (val, oval) in zip(chunk, pairs):
            rows.append(f"{_csv(p.t)},{args.quantity},{_csv(val)},"
                        f"{_csv(oval)},{_csv(abs(val - oval))}\r\n")

    with _output(args.out) as out:
        out.write("coordinate,quantity,value,oracle_value,abs_diff\r\n")
        for row in rows:
            out.write(row)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcurv",
        description="Null sectional curvature of warped-product spacetimes, "
                    "closed forms cross-checked against a chart oracle.")
    parser.add_argument("--version", action="version",
                        version=f"warpcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="curvature report at a point")
    rep.add_argument("model", help="catalog model name or spec JSON file")
    rep.add_argument("--point", help="t=...,x=... or comma-separated coords")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--planes", type=_count(1), default=10)
    rep.add_argument("--path", default="derived",
                     help="derived, a printed path, or 'all'")
    rep.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    rep.add_argument("--out", help="write to file instead of stdout")
    rep.set_defaults(func=cmd_report)

    cmp_ = sub.add_parser("compare",
                          help="formula-vs-oracle comparison, ledger output")
    cmp_.add_argument("model")
    cmp_.add_argument("--samples", type=_count(0), default=100)
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.add_argument("--path", choices=("as-derived", "as-printed"),
                      default="as-derived")
    cmp_.add_argument("--ledger", default="ledger.json")
    cmp_.set_defaults(func=cmd_compare)

    scn = sub.add_parser("scan", help="CSV sweep along the base coordinate")
    scn.add_argument("model")
    scn.add_argument("--var", default="t")
    scn.add_argument("--from", dest="start", type=float, required=True)
    scn.add_argument("--to", dest="stop", type=float, required=True)
    scn.add_argument("--steps", type=_count(0), default=20)
    scn.add_argument("--quantity", choices=("KU", "ricci", "numerator"),
                     default="KU")
    scn.add_argument("--seed", type=int, default=None)
    scn.add_argument("--out", help="write to file instead of stdout")
    scn.set_defaults(func=cmd_scan)
    return parser


def run() -> None:
    """The process entry point (``python -m warpcurv.cli`` and the
    ``warpcurv`` console script): exit with :func:`main`'s code.

    The imports are done by now, so their objects (numpy's and
    warpcurv's) are frozen first: the collector, the interpreter's final
    collection at exit included, never walks them again.  In-process
    callers call :func:`main`, which leaves the collector as it is."""
    gc.freeze()
    sys.exit(main())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numpy overflow or invalid operation raises, as Python's do
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (DomainError, DegenerateMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # overflow or division by zero
        print(f"error: the model cannot be evaluated here: {exc}",
              file=sys.stderr)
        return 3
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    run()
