"""Acceptance suite: eight criteria, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` or directly with
``python tests/test_acceptance.py``.  Tolerances are pinned here and
nowhere else:

1. oracle equivalence, 100 seeded planes and 100 lifted triples per
   catalog model, relative 1e-8
2. flat-model nullity across a 10^3 grid, absolute 1e-10
3. exponential-warping identity on a 5 x 5 x 20 (c, k, t) grid at 1e-10,
   and the linear-warping residual K_F/b^2 - K = -1/t^2 at 1e-10
   (the residual is oriented so the closed-form correction b''/b - (b'/b)^2
   carries its oracle-verified sign)
4. static-potential offset K_F - K = -k at 1e-8 over 50 planes, for
   potentials with Hessian = k f g (k = 0 and k = 1 models)
5. Kasner vacuum Ricci at 1e-8 for t in {0.5, 1, 2}; flat exponents give
   |K| <= 1e-9 everywhere sampled
6. gauge invariance at 1e-9 and quadratic null scaling at relative 1e-10,
   1000 samples across models
7. the compare command's ledger: nonempty for the literally-transcribed
   published forms (multiply-warped theorem terms and Kasner corollary
   terms), empty for the derived path on every model
8. oracle identity residuals (antisymmetries, pair symmetry, first
   Bianchi, Ricci symmetry, metric compatibility) at 1e-9 on 50 random
   points per model
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest

from warpcurv import (Interval, NullPlane, Point, WarpingFunction,
                      assemble_chart, by_name, catalog, curvature_residuals,
                      euclidean_fiber, flatten, grw_spec,
                      null_curvature_generic, riemann_apply, riemann_general,
                      riemann_oracle, sample_plane, specialized_null_curvature,
                      sphere_fiber, split)
from warpcurv.cli import main as cli_main
from warpcurv.tensor_oracle import null_sectional_from_tensors


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    worst_plane = 0.0
    worst_lift = 0.0
    for entry in catalog():
        spec = entry.spec
        chart = assemble_chart(spec)
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            tensors = riemann_oracle(chart, list(p.flat(spec)))
            k_oracle = null_sectional_from_tensors(tensors, flatten(plane.L),
                                                   flatten(plane.S))
            k_spec = specialized_null_curvature(spec, plane, "derived").value
            worst_plane = max(worst_plane,
                              abs(k_spec - k_oracle) / max(1.0, abs(k_oracle)))
        for _ in range(10):
            p = entry.random_point(rng)
            tensors = riemann_oracle(chart, list(p.flat(spec)))
            scale = max(1.0, float(np.max(np.abs(tensors.riemann))))
            for _ in range(10):
                vecs = [split(rng.standard_normal(spec.dim), spec)
                        for _ in range(3)]
                got = np.array(flatten(riemann_general(spec, p, *vecs)))
                expected = riemann_apply(tensors, *(flatten(v) for v in vecs))
                worst_lift = max(worst_lift,
                                 float(np.max(np.abs(got - expected))) / scale)
    report("criterion 1 (oracle equivalence)",
           worst_plane <= 1e-8 and worst_lift <= 1e-8,
           f"plane rel dev {worst_plane:.2e}, lifted-triple rel dev "
           f"{worst_lift:.2e}, tol 1e-8")


# ---------------------------------------------------------------------------
# 2. flat-model nullity on a 10^3 grid
# ---------------------------------------------------------------------------

def test_criterion_2_minkowski_grid_nullity():
    entry = by_name("minkowski")
    spec = entry.spec
    chart = assemble_chart(spec)
    rng = np.random.default_rng(102)
    worst = 0.0
    for t in np.linspace(-2.0, 2.0, 10):
        for x in np.linspace(-3.0, 3.0, 10):
            for y in np.linspace(-1.0, 1.0, 10):
                p = Point(float(t), ((float(x), float(y), 0.37),))
                tensors = riemann_oracle(chart, list(p.flat(spec)))
                worst = max(worst, float(np.max(np.abs(tensors.riemann))),
                            float(np.max(np.abs(tensors.ricci))))
                plane = sample_plane(spec, p, rng)
                worst = max(worst,
                            abs(specialized_null_curvature(
                                spec, plane, "derived").value))
    report("criterion 2 (flat nullity, 1000-point grid)", worst <= 1e-10,
           f"max |curvature| {worst:.2e}, tol 1e-10")


# ---------------------------------------------------------------------------
# 3. exponential-warping characterization
# ---------------------------------------------------------------------------

def test_criterion_3_exponential_characterization():
    fiber = sphere_fiber(3, 1.0)
    rng = np.random.default_rng(103)
    worst_exp = 0.0
    for c in np.linspace(0.5, 2.5, 5):
        for k in np.linspace(-1.0, 1.0, 5):
            spec = grw_spec(Interval(-math.inf, math.inf),
                            WarpingFunction.from_form("exp", {"c": c, "k": k}),
                            fiber)
            for t in np.linspace(-1.0, 1.0, 20):
                p = Point(float(t), ((1.2, 1.0, 0.5),))
                plane = sample_plane(spec, p, rng)
                b = c * math.exp(k * t)
                kv = specialized_null_curvature(spec, plane, "derived").value
                worst_exp = max(worst_exp, abs(kv - 1.0 / (b * b)))

    spec_t = grw_spec(Interval(0.0, math.inf),
                      WarpingFunction.from_form("power", {"c": 1.0, "q": 1.0}),
                      euclidean_fiber(3))
    worst_lin = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        p = Point(t, ((0.1, 0.2, 0.3),))
        plane = sample_plane(spec_t, p, rng)
        kv = specialized_null_curvature(spec_t, plane, "derived").value
        residual = 0.0 / (t * t) - kv  # K_F/b^2 - K with a flat fiber
        worst_lin = max(worst_lin, abs(residual - (-1.0 / (t * t))))
    report("criterion 3 (exponential warping identity)",
           worst_exp <= 1e-10 and worst_lin <= 1e-10,
           f"grid residual {worst_exp:.2e}, linear-warping residual vs "
           f"-1/t^2 dev {worst_lin:.2e}, tol 1e-10")


# ---------------------------------------------------------------------------
# 4. static-potential offset
# ---------------------------------------------------------------------------

def test_criterion_4_static_offset():
    worst = 0.0
    for name, k_eig in (("einstein_static", 0.0), ("anti_de_sitter_cover", 1.0)):
        entry = by_name(name)
        spec = entry.spec
        k_f = spec.fibers[0].constant_curvature
        rng = np.random.default_rng(104)
        for _ in range(50):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng, base_free=True)
            k = specialized_null_curvature(spec, plane, "derived").value
            worst = max(worst, abs((k_f - k) - (-k_eig)))
    report("criterion 4 (static offset K_F - K = -k)", worst <= 1e-8,
           f"max offset deviation {worst:.2e} over 50 planes x 2 models, "
           "tol 1e-8")


# ---------------------------------------------------------------------------
# 5. Kasner vacuum and flat exponents
# ---------------------------------------------------------------------------

def test_criterion_5_kasner_vacuum_and_flat():
    vac = by_name("kasner_vacuum")
    chart = assemble_chart(vac.spec)
    worst_ricci = 0.0
    for t in (0.5, 1.0, 2.0):
        tensors = riemann_oracle(chart, [t, 0.1, 0.2, 0.3])
        worst_ricci = max(worst_ricci, float(np.max(np.abs(tensors.ricci))))

    flat = by_name("kasner_flat")
    rng = np.random.default_rng(105)
    worst_k = 0.0
    for _ in range(100):
        p = flat.random_point(rng)
        plane = sample_plane(flat.spec, p, rng)
        worst_k = max(worst_k, abs(specialized_null_curvature(
            flat.spec, plane, "derived").value))
    report("criterion 5 (Kasner vacuum / flat)",
           worst_ricci <= 1e-8 and worst_k <= 1e-9,
           f"vacuum Ricci {worst_ricci:.2e} (tol 1e-8), flat-exponent "
           f"|K| {worst_k:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 6. gauge invariance and quadratic scaling, 1000 samples
# ---------------------------------------------------------------------------

def test_criterion_6_gauge_and_scaling():
    models = ("minkowski", "grw_exponential", "kasner_vacuum",
              "einstein_static")
    worst_gauge = 0.0
    worst_scale = 0.0
    for name in models:
        entry = by_name(name)
        spec = entry.spec
        rng = np.random.default_rng(106)
        for _ in range(250):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k0 = null_curvature_generic(spec, plane).value
            alpha = rng.uniform(-10.0, 10.0)
            shifted = NullPlane.build(spec, p, plane.L,
                                      plane.S + alpha * plane.L,
                                      frame_U=plane.frame_U)
            k1 = null_curvature_generic(spec, shifted).value
            worst_gauge = max(worst_gauge, abs(k1 - k0))
            c = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            scaled = NullPlane.build(spec, p, c * plane.L, plane.S)
            k2 = null_curvature_generic(spec, scaled).value
            worst_scale = max(worst_scale,
                              abs(k2 - c * c * k0) / max(1.0, abs(c * c * k0)))
    report("criterion 6 (gauge and quadratic scaling, 1000 samples)",
           worst_gauge <= 1e-9 and worst_scale <= 1e-10,
           f"gauge dev {worst_gauge:.2e} (tol 1e-9), scaling rel dev "
           f"{worst_scale:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 7. discrepancy-ledger completeness
# ---------------------------------------------------------------------------

def test_criterion_7_ledger_completeness():
    with tempfile.TemporaryDirectory() as tmp:
        printed_ok = True
        for model in ("generalized_reissner_nordstrom_demo", "kasner_vacuum"):
            path = os.path.join(tmp, f"{model}_printed.json")
            code = cli_main(["compare", model, "--samples", "25", "--seed", "7",
                             "--path", "as-printed", "--ledger", path])
            with open(path) as fh:
                rows = json.load(fh)
            printed_ok &= (code == 0 and len(rows) > 0)
            printed_ok &= any(r["path_b"] == "oracle" for r in rows)
        derived_ok = True
        for entry in catalog():
            path = os.path.join(tmp, f"{entry.name}_derived.json")
            code = cli_main(["compare", entry.name, "--samples", "25",
                             "--seed", "7", "--ledger", path])
            with open(path) as fh:
                rows = json.load(fh)
            derived_ok &= (code == 0 and rows == [])
    report("criterion 7 (ledger completeness)", printed_ok and derived_ok,
           "printed paths ledgered nonempty where the oracle disagrees; "
           "derived path ledger empty on all 8 models")


# ---------------------------------------------------------------------------
# 8. oracle identity residuals
# ---------------------------------------------------------------------------

def test_criterion_8_oracle_residuals():
    worst = 0.0
    for entry in catalog():
        chart = assemble_chart(entry.spec)
        rng = np.random.default_rng(108)
        for _ in range(50):
            p = entry.random_point(rng)
            res = curvature_residuals(
                riemann_oracle(chart, list(p.flat(entry.spec))))
            worst = max(worst, max(res.values()))
    report("criterion 8 (oracle identity residuals)", worst <= 1e-9,
           f"max residual {worst:.2e} over 50 points x 8 models, tol 1e-9")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
