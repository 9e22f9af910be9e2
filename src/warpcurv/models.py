"""Catalog of ready-made warped-product spacetimes with checkable facts.

Each entry bundles a :class:`~warpcurv.core_types.ManifoldSpec`, safe
sampling windows (clear of chart singularities: Schwarzschild radii at
r >= 2.02 m, polar angles inside [0.1, pi - 0.1]), and a list of known
analytic facts that :func:`validate_entry` can machine-check through both
the specialized formulas and the chart oracle.
"""

from __future__ import annotations

import math

import numpy as np

from ._frozen import Frozen, set_field
from .core_types import (Interval, ManifoldSpec, Point, PointContext,
                         StaticPotential, WarpingFunction, assemble_chart,
                         euclidean_fiber, flatten, grw_spec, hyperbolic_fiber,
                         kasner_spec, mgrw_spec, schwarzschild_spatial_fiber,
                         sphere_fiber, split, ssst_spec)
from .errors import ValidationError
from .null_sectional import (closed_form, formula_paths, isotropy_scan,
                             sample_plane, specialized_null_curvature)
from .tensor_oracle import null_sectional_oracle, riemann_oracle
from .warped_formulas import ricci_general

__all__ = ["KnownFact", "CatalogEntry", "catalog", "by_name", "validate_entry"]


class KnownFact(Frozen):
    """One machine-checkable analytic statement about a catalog model;
    ``params`` defaults to a new empty dict."""

    __slots__ = ("quantity", "where", "expected", "tol", "provenance",
                 "params")

    def __init__(self, quantity: str, where: str, expected: float,
                 tol: float, provenance: str, params: dict | None = None):
        set_field(self, "quantity", quantity)
        set_field(self, "where", where)
        set_field(self, "expected", expected)
        set_field(self, "tol", tol)
        set_field(self, "provenance", provenance)
        set_field(self, "params", {} if params is None else params)


class CatalogEntry(Frozen):
    __slots__ = ("name", "spec", "known_facts", "base_window",
                 "fiber_windows")

    def __init__(self, name: str, spec: ManifoldSpec,
                 known_facts: tuple[KnownFact, ...],
                 base_window: tuple[float, float],
                 fiber_windows: tuple):  # per fiber: per-coordinate (lo, hi)
        set_field(self, "name", name)
        set_field(self, "spec", spec)
        set_field(self, "known_facts", known_facts)
        set_field(self, "base_window", base_window)
        set_field(self, "fiber_windows", fiber_windows)

    def default_point(self) -> Point:
        t = 0.5 * (self.base_window[0] + self.base_window[1])
        coords = tuple(tuple(0.5 * (lo + hi) for lo, hi in win)
                       for win in self.fiber_windows)
        return Point(t, coords)

    def random_point(self, rng) -> Point:
        t = rng.uniform(*self.base_window)
        coords = tuple(tuple(rng.uniform(lo, hi) for lo, hi in win)
                       for win in self.fiber_windows)
        return Point(t, coords)


_S3_WIN = ((0.6, math.pi - 0.6), (0.6, math.pi - 0.6), (0.0, 2.0 * math.pi))
_S2_WIN = ((0.6, math.pi - 0.6), (0.0, 2.0 * math.pi))
_H3_WIN = ((0.3, 2.0), (0.6, math.pi - 0.6), (0.0, 2.0 * math.pi))
_R3_WIN = ((-2.0, 2.0),) * 3
_LINE_WIN = ((-2.0, 2.0),)


def _entries() -> tuple[CatalogEntry, ...]:
    one = WarpingFunction.constant(1.0)
    t_linear = WarpingFunction.from_form("power", {"c": 1.0, "q": 1.0})

    minkowski = CatalogEntry(
        name="minkowski",
        spec=grw_spec(Interval(-math.inf, math.inf), one, euclidean_fiber(3),
                      name="minkowski"),
        known_facts=(
            KnownFact("null_sectional_zero", "everywhere", 0.0, 1e-10,
                      "flat spacetime, exact"),
            KnownFact("ricci_zero", "everywhere", 0.0, 1e-10,
                      "flat spacetime, exact"),
            KnownFact("isotropy", "everywhere", 0.0, 1e-10,
                      "flat spacetime, exact"),
        ),
        base_window=(-2.0, 2.0),
        fiber_windows=(_R3_WIN,),
    )

    einstein_static = CatalogEntry(
        name="einstein_static",
        spec=ssst_spec(Interval(-math.inf, math.inf), StaticPotential.constant(1.0),
                       sphere_fiber(3, 1.0), name="einstein_static"),
        known_facts=(
            KnownFact("constant_null_curvature", "all planes", 1.0, 1e-8,
                      "constant potential: K equals the fiber curvature"),
            KnownFact("static_offset", "base-free planes", 0.0, 1e-8,
                      "Hessian of a constant potential vanishes (k = 0)"),
            KnownFact("isotropy", "everywhere", 0.0, 1e-8,
                      "constant-curvature fiber"),
        ),
        base_window=(-2.0, 2.0),
        fiber_windows=(_S3_WIN,),
    )

    anti_de_sitter = CatalogEntry(
        name="anti_de_sitter_cover",
        spec=ssst_spec(Interval(-math.inf, math.inf),
                       StaticPotential.from_form("cosh", {"c": 1.0, "k": 1.0}),
                       hyperbolic_fiber(3, 1.0), name="anti_de_sitter_cover"),
        known_facts=(
            KnownFact("constant_null_curvature", "all planes", 0.0, 1e-8,
                      "constant-curvature spacetime: null sectional curvature "
                      "vanishes; value pinned by the oracle"),
            KnownFact("static_offset", "base-free planes", -1.0, 1e-8,
                      "cosh potential on unit hyperbolic space has "
                      "Hessian = f * metric (k = 1); offset K_F - K = -k"),
        ),
        base_window=(-2.0, 2.0),
        fiber_windows=(_H3_WIN,),
    )

    schwarzschild = CatalogEntry(
        name="schwarzschild_exterior",
        spec=ssst_spec(Interval(-math.inf, math.inf),
                       StaticPotential.from_form("schwarzschild", {"m": 1.0}),
                       schwarzschild_spatial_fiber(1.0),
                       name="schwarzschild_exterior"),
        known_facts=(
            KnownFact("ricci_zero", "exterior region", 0.0, 1e-8,
                      "vacuum solution; oracle-confirmed"),
            KnownFact("line_element", "spatial fiber", 0.0, 0.0,
                      "chart reproduces the standard exterior line element "
                      "exactly", params={"mass": 1.0}),
        ),
        base_window=(-2.0, 2.0),
        fiber_windows=(((2.5, 8.0), (0.6, math.pi - 0.6), (0.0, 2.0 * math.pi)),),
    )

    kasner_fibers = [euclidean_fiber(1, ("x",)), euclidean_fiber(1, ("y",)),
                     euclidean_fiber(1, ("z",))]

    kasner_vacuum = CatalogEntry(
        name="kasner_vacuum",
        spec=kasner_spec(Interval(0.0, math.inf), t_linear,
                         (2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0), kasner_fibers,
                         name="kasner_vacuum"),
        known_facts=(
            KnownFact("ricci_zero", "t in {0.5, 1, 2}", 0.0, 1e-8,
                      "exponents satisfy both vacuum constraints",
                      params={"times": (0.5, 1.0, 2.0)}),
            KnownFact("kasner_scaling", "t -> 0+", 100.0, 1.0,
                      "closed form scales as 1/t^2; ratio test at t = 0.1, 0.01",
                      params={"t_hi": 0.1, "t_lo": 0.01}),
            KnownFact("anisotropy", "t = 1", 0.1, 0.0,
                      "deviation exceeds 0.1 of the mean magnitude"),
        ),
        base_window=(0.4, 3.0),
        fiber_windows=(_LINE_WIN, _LINE_WIN, _LINE_WIN),
    )

    kasner_flat = CatalogEntry(
        name="kasner_flat",
        spec=kasner_spec(Interval(0.0, math.inf), t_linear, (1.0, 0.0, 0.0),
                         kasner_fibers, name="kasner_flat"),
        known_facts=(
            KnownFact("null_sectional_zero", "everywhere sampled", 0.0, 1e-9,
                      "these exponents give a flat model in disguised form"),
            KnownFact("ricci_zero", "everywhere", 0.0, 1e-9,
                      "flat model, oracle-confirmed"),
        ),
        base_window=(0.4, 3.0),
        fiber_windows=(_LINE_WIN, _LINE_WIN, _LINE_WIN),
    )

    grw_exponential = CatalogEntry(
        name="grw_exponential",
        spec=grw_spec(Interval(-math.inf, math.inf),
                      WarpingFunction.from_form("exp", {"c": 1.0, "k": 1.0}),
                      sphere_fiber(3, 1.0), name="grw_exponential"),
        known_facts=(
            KnownFact("exp_warping_identity", "all planes", 0.0, 1e-10,
                      "exponential warping: K equals K_F / b^2 exactly"),
            KnownFact("isotropy", "everywhere", 0.0, 1e-8,
                      "constant-curvature fiber"),
        ),
        base_window=(-1.5, 1.5),
        fiber_windows=(_S3_WIN,),
    )

    rn_demo = CatalogEntry(
        name="generalized_reissner_nordstrom_demo",
        spec=mgrw_spec(Interval(0.0, math.inf),
                       [t_linear, WarpingFunction.from_form("power",
                                                            {"c": 1.0, "q": 2.0})],
                       [sphere_fiber(2, 1.0), euclidean_fiber(1, ("w",))],
                       name="generalized_reissner_nordstrom_demo"),
        known_facts=(
            KnownFact("oracle_equivalence", "random planes", 0.0, 1e-8,
                      "two-fiber closed form against the chart oracle"),
        ),
        base_window=(0.5, 3.0),
        fiber_windows=(_S2_WIN, _LINE_WIN),
    )

    return (minkowski, einstein_static, anti_de_sitter, schwarzschild,
            kasner_vacuum, kasner_flat, grw_exponential, rn_demo)


_CATALOG: tuple[CatalogEntry, ...] | None = None


def catalog() -> tuple[CatalogEntry, ...]:
    """All named models, built once and reused; a tuple, so no caller can
    change what the next one reads."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return _CATALOG


def by_name(name: str) -> CatalogEntry:
    for entry in catalog():
        if entry.name == name:
            return entry
    raise ValidationError(
        f"unknown model {name!r}; known: {[e.name for e in catalog()]}")


# ---------------------------------------------------------------------------
# fact checking
# ---------------------------------------------------------------------------

def _check_null_zero(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    chart = assemble_chart(spec)
    rng = np.random.default_rng(np.uint64(seed))
    worst = {path: 0.0 for path in paths}
    worst["oracle"] = 0.0
    for _ in range(n_planes):
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        for path in paths:
            k = specialized_null_curvature(spec, plane, path).value
            worst[path] = max(worst[path], abs(k - fact.expected))
        k_or = null_sectional_oracle(chart, list(p.flat(spec)),
                                     flatten(plane.L), flatten(plane.S))
        worst["oracle"] = max(worst["oracle"], abs(k_or - fact.expected))
    for path, w in worst.items():
        rows.append(_row(fact, path, w, w <= fact.tol))


def _check_ricci_zero(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    chart = assemble_chart(spec)
    rng = np.random.default_rng(np.uint64(seed))
    times = fact.params.get("times")
    worst_s = worst_o = 0.0
    for k in range(max(3, 0 if times is None else len(times))):
        p = entry.random_point(rng)
        if times is not None and k < len(times):
            p = Point(times[k], p.fiber_coords)
        tensors = riemann_oracle(chart, list(p.flat(spec)))
        worst_o = max(worst_o, float(np.max(np.abs(tensors.ricci))))
        ctx = PointContext(spec, p)
        for _ in range(5):
            x = split(rng.standard_normal(spec.dim), spec)
            y = split(rng.standard_normal(spec.dim), spec)
            worst_s = max(worst_s, abs(ricci_general(spec, ctx, x, y)))
    rows.append(_row(fact, "specialized", worst_s, worst_s <= fact.tol))
    rows.append(_row(fact, "oracle", worst_o, worst_o <= fact.tol))


def _check_isotropy(entry, fact, seed, n_planes, rows, paths):
    p = entry.default_point()
    scan = isotropy_scan(entry.spec, p, None, max(50, n_planes), seed)
    dev = scan["max_deviation"]
    rows.append(_row(fact, "specialized", dev, dev <= fact.tol))


def _check_anisotropy(entry, fact, seed, n_planes, rows, paths):
    p = entry.default_point()
    scan = isotropy_scan(entry.spec, p, None, max(100, n_planes), seed)
    ref = fact.expected * abs(scan["mean"])
    dev = scan["max_deviation"]
    rows.append(_row(fact, "specialized", dev, dev > ref))


def _check_exp_identity(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    rng = np.random.default_rng(np.uint64(seed))
    k_f = spec.fibers[0].constant_curvature
    worst = {path: 0.0 for path in paths}
    for _ in range(n_planes):
        ctx = PointContext(spec, entry.random_point(rng))
        b = ctx.warp_bundle[0].value
        plane = sample_plane(spec, ctx, rng)
        for path in paths:
            k = specialized_null_curvature(spec, plane, path).value
            worst[path] = max(worst[path], abs(k - k_f / (b * b)))
    for path, w in worst.items():
        rows.append(_row(fact, path, w, w <= fact.tol))


def _check_static_offset(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    rng = np.random.default_rng(np.uint64(seed))
    k_f = spec.fibers[0].constant_curvature
    worst = 0.0
    for _ in range(n_planes):
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng, base_free=True)
        k = specialized_null_curvature(spec, plane, "derived").value
        worst = max(worst, abs((k_f - k) - fact.expected))
    rows.append(_row(fact, "specialized", worst, worst <= fact.tol))
    rng = np.random.default_rng(np.uint64(seed))
    p = entry.random_point(rng)
    plane = sample_plane(spec, p, rng, base_free=True)
    k_r = closed_form(spec, plane, "SSST remark")
    resid = abs((k_f - k_r) - fact.expected)
    rows.append(_row(fact, "oracle", resid, resid <= fact.tol))


def _check_kasner_scaling(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    t_hi, t_lo = fact.params["t_hi"], fact.params["t_lo"]
    vals = {}
    for t in (t_hi, t_lo):
        rng = np.random.default_rng(np.uint64(seed))
        p = Point(t, entry.default_point().fiber_coords)
        plane = sample_plane(spec, p, rng)
        vals[t] = specialized_null_curvature(spec, plane, "derived").value
    ratio = vals[t_lo] / vals[t_hi]
    ok = abs(ratio - fact.expected) <= 0.01 * fact.expected
    rows.append(_row(fact, "specialized", ratio, ok))


def _check_line_element(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    m = fact.params["mass"]
    chart = assemble_chart(spec)
    rng = np.random.default_rng(np.uint64(seed))
    worst_fiber = worst_time = 0.0
    for _ in range(10):
        p = entry.random_point(rng)
        r, theta, _ = p.fiber_coords[0]
        g = np.array(chart.metric_at(list(p.flat(spec))), dtype=float)
        fiber_block = np.diag([1.0 / (1.0 - 2.0 * m / r), r * r,
                               r * r * math.sin(theta) ** 2])
        worst_fiber = max(worst_fiber,
                          float(np.max(np.abs(g[1:, 1:] - fiber_block))))
        # the assembled time component squares the potential, so it is
        # exact only to roundoff
        worst_time = max(worst_time, abs(g[0, 0] + (1.0 - 2.0 * m / r)))
    rows.append(_row(fact, "oracle", worst_fiber, worst_fiber <= fact.tol))
    rows.append(_row(fact, "specialized", worst_time, worst_time <= 1e-15))


def _check_oracle_equivalence(entry, fact, seed, n_planes, rows, paths):
    spec = entry.spec
    chart = assemble_chart(spec)
    rng = np.random.default_rng(np.uint64(seed))
    worst = 0.0
    for _ in range(n_planes):
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        k_s = specialized_null_curvature(spec, plane, "derived").value
        k_o = null_sectional_oracle(chart, list(p.flat(spec)),
                                    flatten(plane.L), flatten(plane.S))
        worst = max(worst, abs(k_s - k_o) / max(1.0, abs(k_o)))
    rows.append(_row(fact, "specialized", worst, worst <= fact.tol))


_CHECKERS = {
    "null_sectional_zero": _check_null_zero,
    "constant_null_curvature": _check_null_zero,
    "ricci_zero": _check_ricci_zero,
    "isotropy": _check_isotropy,
    "anisotropy": _check_anisotropy,
    "exp_warping_identity": _check_exp_identity,
    "static_offset": _check_static_offset,
    "kasner_scaling": _check_kasner_scaling,
    "line_element": _check_line_element,
    "oracle_equivalence": _check_oracle_equivalence,
}


def _row(fact: KnownFact, path: str, observed: float, passed: bool) -> dict:
    return {"quantity": fact.quantity, "where": fact.where, "path": path,
            "expected": fact.expected, "tol": fact.tol,
            "observed": float(observed), "pass": bool(passed)}


def validate_entry(entry: CatalogEntry, seed: int = 0, n_planes: int = 20,
                   include_printed: bool = False) -> dict:
    """Check every known fact through the specialized formulas and the
    oracle; with ``include_printed`` the literally-transcribed published
    forms are evaluated too, and their failures are recorded (the report
    never raises on a printed-path failure)."""
    rows: list[dict] = []
    paths = ["derived"]
    if include_printed:
        paths = [p for p in formula_paths(entry.spec)]
    for fact in entry.known_facts:
        checker = _CHECKERS[fact.quantity]
        checker(entry, fact, seed, n_planes, rows, paths)
    all_pass = all(r["pass"] for r in rows
                   if r["path"] in ("derived", "specialized", "oracle"))
    return {"entry": entry.name, "rows": rows, "all_pass": all_pass}
