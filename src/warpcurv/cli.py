"""Command-line front end.

Three subcommands:

* ``report``  : curvature report (Ricci, isotropy scan, sampled planes)
  at one point, through the closed forms and the chart oracle.
* ``compare`` : seeded random (point, plane) draws; writes a term-level
  discrepancy ledger (``ledger.json``) and exits nonzero if the derived
  closed forms ever disagree with the oracle beyond tolerance.
* ``scan``    : CSV sweep of a quantity along the base coordinate.

Exit codes: 0 success, 2 input/validation error, 3 chart-domain error.
The default seed comes from the ``WARPCURV_SEED`` environment variable.
Output is byte-identical for identical (arguments, seed) on one platform.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .core_types import (ManifoldSpec, Point, assemble_chart, flatten,
                         point_from_flat, spec_from_json, spec_hash)
from .errors import (DegenerateMetricError, DomainError, GeometryError,
                     ValidationError)
from .models import CatalogEntry, by_name
from .null_sectional import (formula_paths, isotropy_summary,
                             null_curvature_generic, sample_plane,
                             specialized_null_curvature)
from .tensor_oracle import (lowered_riemann, null_sectional_from_tensors,
                            riemann_oracle, riemann_oracle_batch)
from .warped_formulas import ricci_matrix

COMPARE_ABS_TOL = 1e-10
COMPARE_REL_TOL = 1e-8

# points per batched oracle call in ``scan``; bounds the batch's memory
SCAN_CHUNK = 64


# ---------------------------------------------------------------------------
# model/point resolution
# ---------------------------------------------------------------------------

def _resolve_model(token: str) -> tuple[str, ManifoldSpec, CatalogEntry | None]:
    if os.path.exists(token):
        with open(token) as fh:
            spec = spec_from_json(fh.read())
        return spec.name or os.path.basename(token), spec, None
    entry = by_name(token)
    return entry.name, entry.spec, entry


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
    """Named coordinates override the model's default point; bare
    comma-separated values must list every coordinate."""
    names = spec.flat_coord_names()
    if "=" in text:
        values = dict(zip(names, default.flat(spec)))
        for item in text.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in values:
                raise ValidationError(
                    f"unknown coordinate {key!r}; expected {names}")
            values[key] = _coordinate(key, val)
        coords = [values[k] for k in names]
    else:
        coords = [_coordinate(names[i] if i < len(names) else f"#{i + 1}", v)
                  for i, v in enumerate(text.split(","))]
    p = point_from_flat(spec, coords)
    p.validate(spec)
    return p


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
    seed = args.seed if args.seed is not None \
        else int(os.environ.get("WARPCURV_SEED", "0"))
    return seed & (2 ** 64 - 1)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    name, spec, entry = _resolve_model(args.model)
    if entry is None:
        entry = _fallback_entry(name, spec)
    seed = _seed_from(args)
    default = entry.default_point()
    p = _parse_point(spec, args.point, default) if args.point else default
    p.validate(spec)

    chart = assemble_chart(spec)
    x = list(p.flat(spec))
    tensors = riemann_oracle(chart, x)
    ric_s, ric_o = ricci_matrix(spec, p), tensors.ricci
    paths = formula_paths(spec) if args.path == "all" else (args.path,)

    rng = np.random.default_rng(np.uint64(seed))
    planes = []
    flags = []
    generic_values = []
    scale = max(1.0, float(np.max(np.abs(lowered_riemann(tensors)))))
    for i in range(args.planes):
        plane = sample_plane(spec, p, rng)
        k_oracle = null_sectional_from_tensors(tensors, flatten(plane.L),
                                               flatten(plane.S))
        generic_values.append(null_curvature_generic(spec, plane).value)
        row = {"index": i, "K_oracle": k_oracle}
        for path in paths:
            res = specialized_null_curvature(spec, plane, path)
            key = "K_derived" if path == "derived" else f"K_{path}"
            row[key] = res.value
            if path == "derived":
                row["breakdown"] = res.breakdown
                if abs(res.value - k_oracle) > max(COMPARE_ABS_TOL,
                                                   COMPARE_REL_TOL * scale):
                    flags.append(f"plane {i}: derived K deviates from oracle")
            elif abs(res.value - k_oracle) > max(COMPARE_ABS_TOL,
                                                 COMPARE_REL_TOL * scale):
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
    out = open(args.out, "w") if args.out else sys.stdout
    try:
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
    finally:
        if args.out:
            out.close()


def _csv(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    name, spec, entry = _resolve_model(args.model)
    if entry is None:
        entry = _fallback_entry(name, spec)
    seed = _seed_from(args)
    chart = assemble_chart(spec)
    printed_paths = [p for p in formula_paths(spec) if p != "derived"] \
        if args.path == "as-printed" else []

    root = np.random.default_rng(np.uint64(seed))
    ledger = []
    derived_ok = True
    for i in range(args.samples):
        plane_seed = int(root.integers(0, 2 ** 63))
        rng = np.random.default_rng(np.uint64(plane_seed))
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        x = list(p.flat(spec))
        tensors = riemann_oracle(chart, x)
        k_oracle = null_sectional_from_tensors(tensors, flatten(plane.L),
                                               flatten(plane.S))
        scale = max(1.0, float(np.max(np.abs(lowered_riemann(tensors)))))
        tol = max(COMPARE_ABS_TOL, COMPARE_REL_TOL * scale)
        coords = {"model": name, "point": x, "plane_seed": plane_seed}

        derived = specialized_null_curvature(spec, plane, "derived")
        if abs(derived.value - k_oracle) > tol:
            derived_ok = False
            ledger.append({**coords, "term": "value",
                           "path_a": "as-derived", "path_b": "oracle",
                           "value_a": derived.value, "value_b": k_oracle,
                           "abs_diff": abs(derived.value - k_oracle)})

        gen = null_curvature_generic(spec, plane)
        if abs(gen.value - k_oracle) > tol:
            derived_ok = False
            ledger.append({**coords, "term": "value",
                           "path_a": "generic", "path_b": "oracle",
                           "value_a": gen.value, "value_b": k_oracle,
                           "abs_diff": abs(gen.value - k_oracle)})

        for path in printed_paths:
            printed = specialized_null_curvature(spec, plane, path)
            label = f"as-printed:{path.removeprefix('printed').lstrip('_') or 'main'}"
            keys = sorted(set(derived.breakdown) | set(printed.breakdown))
            for key in keys:
                va = printed.breakdown.get(key, 0.0)
                vb = derived.breakdown.get(key, 0.0)
                if not np.isfinite(va) or abs(va - vb) > tol:
                    ledger.append({**coords, "term": key,
                                   "path_a": label, "path_b": "as-derived",
                                   "value_a": va, "value_b": vb,
                                   "abs_diff": abs(va - vb)})
            if not np.isfinite(printed.value) \
                    or abs(printed.value - k_oracle) > tol:
                ledger.append({**coords, "term": "value",
                               "path_a": label, "path_b": "oracle",
                               "value_a": printed.value, "value_b": k_oracle,
                               "abs_diff": abs(printed.value - k_oracle)})

    with open(args.ledger, "w") as fh:
        json.dump(ledger, fh, indent=2)
        fh.write("\n")
    print(f"{name}: {args.samples} samples, {len(ledger)} ledger entries "
          f"-> {args.ledger}; derived-vs-oracle "
          f"{'OK' if derived_ok else 'DISAGREES'}")
    return 0 if derived_ok else 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    name, spec, entry = _resolve_model(args.model)
    if entry is None:
        entry = _fallback_entry(name, spec)
    if args.var != "t":
        raise ValidationError("only the base coordinate t can be scanned")
    seed = _seed_from(args)
    chart = assemble_chart(spec)
    base_point = entry.default_point()

    points = [Point(float(t), base_point.fiber_coords)
              for t in np.linspace(args.start, args.stop, args.steps)]
    for p in points:
        p.validate(spec)

    rows = []
    for start in range(0, len(points), SCAN_CHUNK):
        chunk = points[start:start + SCAN_CHUNK]
        batch = riemann_oracle_batch(chart, [p.flat(spec) for p in chunk])
        for p, tensors in zip(chunk, batch):
            if args.quantity == "ricci":
                val = float(np.max(np.abs(ricci_matrix(spec, p))))
                oval = float(np.max(np.abs(tensors.ricci)))
            else:
                rng = np.random.default_rng(np.uint64(seed))
                plane = sample_plane(spec, p, rng)
                res = specialized_null_curvature(spec, plane, "derived")
                k_oracle = null_sectional_from_tensors(
                    tensors, flatten(plane.L), flatten(plane.S))
                if args.quantity == "numerator":
                    val = res.numerator
                    oval = k_oracle * plane.g_SS
                else:
                    val, oval = res.value, k_oracle
            rows.append(f"{_csv(p.t)},{args.quantity},{_csv(val)},"
                        f"{_csv(oval)},{_csv(abs(val - oval))}\r\n")
        del batch  # before the next chunk's batch is built

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("coordinate,quantity,value,oracle_value,abs_diff\r\n")
        for row in rows:
            out.write(row)
    finally:
        if args.out:
            out.close()
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, DegenerateMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
