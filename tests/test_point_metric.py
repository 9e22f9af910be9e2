"""Point-invariant work done once: the per-point context and its metric,
the report's isotropy block built from its own planes, and the zero-case
skip in the reference multilinear Riemann expansion
(``reference_lifts.riemann_general``)."""

import json

import numpy as np
import pytest

from reference_lifts import (WarpedGeometry as ReferenceGeometry,
                             _riemann_struct, _split_struct, from_structural,
                             riemann_general, to_structural)
from warpcurv import (CoordinateChart, Interval, Point, PointContext,
                      TangentVector, WarpingFunction, assemble_chart, catalog,
                      euclidean_fiber, flatten, generic_warped_spec,
                      isotropy_scan, metric_eval, mgrw_spec, sample_plane,
                      sphere_fiber, split)
from warpcurv import hyperdual as hd
from warpcurv.cli import main as cli_main
from warpcurv.errors import ShapeError, ValidationError
from warpcurv.warped_formulas import WarpedGeometry

CATALOG = catalog()


def generic_spec():
    base = CoordinateChart(
        dim=2,
        metric_at=lambda c: [[-(1.0 + c[1] * c[1]), 0.0], [0.0, 1.0]],
        name="curved_line")
    return generic_warped_spec(
        base, [lambda c: hd.exp(0.5 * c[1]), lambda c: hd.cosh(c[0]) + c[1] * c[1]],
        [sphere_fiber(2, 1.5), euclidean_fiber(1, ("z",))], name="generic")


def generic_point(rng):
    return Point((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 ((rng.uniform(0.6, 2.5), rng.uniform(0, 6)),
                  (rng.uniform(-1, 1),)))


def cases():
    """(id, spec, point sampler) for the 8 catalog models and a generic base."""
    out = [(e.name, e.spec, e.random_point) for e in CATALOG]
    out.append(("generic", generic_spec(), generic_point))
    return out


CASES = cases()


def sparse_vector(spec, rng, keep=0.6):
    """Random vector with some components exactly zero, so the zero skips
    of the metric and the zero lift cases are exercised."""
    comps = rng.standard_normal(spec.dim)
    comps[rng.uniform(size=spec.dim) > keep] = 0.0
    return split(comps, spec)


# ---------------------------------------------------------------------------
# PointContext: the metric at the point
# ---------------------------------------------------------------------------

class TestPointMetric:
    @pytest.mark.parametrize("name,spec,draw", CASES, ids=[c[0] for c in CASES])
    def test_inner_matches_assembled_chart(self, name, spec, draw):
        rng = np.random.default_rng(3)
        chart = assemble_chart(spec)
        for _ in range(20):
            p = draw(rng)
            g = PointContext(spec, p)
            G = np.array([[float(e) for e in row]
                          for row in chart.metric_at(list(p.flat(spec)))])
            for _ in range(5):
                X, Y = sparse_vector(spec, rng), sparse_vector(spec, rng)
                x, y = np.array(flatten(X)), np.array(flatten(Y))
                scale = max(1.0, float(np.abs(x) @ np.abs(G) @ np.abs(y)))
                assert abs(g.inner(X, Y) - float(x @ G @ y)) <= 1e-14 * scale

    @pytest.mark.parametrize("name,spec,draw", CASES, ids=[c[0] for c in CASES])
    def test_metric_eval_is_build_then_inner(self, name, spec, draw):
        rng = np.random.default_rng(4)
        p = draw(rng)
        g = PointContext(spec, p)
        for _ in range(10):
            X, Y = sparse_vector(spec, rng), sparse_vector(spec, rng)
            assert metric_eval(spec, p, X, Y) == g.inner(X, Y)

    def test_plane_matches_build(self):
        entry = CATALOG[6]
        p = entry.default_point()
        plane = sample_plane(entry.spec, p, np.random.default_rng(2))
        g = PointContext(entry.spec, p)
        again = g.plane(plane.L, plane.S, plane.frame_U)
        assert again == plane
        assert plane.context.spec is entry.spec and again.context is g

    def test_validates_point_and_vectors(self):
        entry = CATALOG[0]
        g = PointContext(entry.spec, entry.default_point())
        bad = TangentVector(1.0, ((1.0, 0.0),))
        with pytest.raises(ShapeError):
            g.inner(bad, bad)
        with pytest.raises(ShapeError):
            PointContext(entry.spec, Point(0.0, ((0.0, 0.0),)))

    def test_of_rejects_another_spec(self):
        a, b = CATALOG[0], CATALOG[6]
        g = PointContext(a.spec, a.default_point())
        assert PointContext.of(a.spec, g) is g
        with pytest.raises(ValidationError):
            PointContext.of(b.spec, g)

    def test_fiber_metric_is_read_only(self):
        entry = CATALOG[4]
        ctx = PointContext(entry.spec, entry.default_point())
        G = WarpedGeometry(entry.spec).fibers[0].metric(ctx)
        assert G is ctx.fiber_metrics[0]
        with pytest.raises(ValueError):
            G[0, 0] = 2.0


# ---------------------------------------------------------------------------
# report's isotropy block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_report_isotropy_equals_isotropy_scan(entry, tmp_path):
    n, seed = 25, 11
    out = tmp_path / "report.json"
    assert cli_main(["report", entry.name, "--planes", str(n), "--seed",
                     str(seed), "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    expected = isotropy_scan(entry.spec, entry.default_point(), None, n, seed)
    assert doc["isotropy"] == expected


# ---------------------------------------------------------------------------
# the reference riemann_general against the expansion over every lift triple
# ---------------------------------------------------------------------------

def full_expansion(spec, p, X, Y, Z):
    """R(X, Y) Z summed over every lift triple, vanishing cases included."""
    geom, ctx = ReferenceGeometry(spec), PointContext(spec, p)
    pieces = [_split_struct(geom, to_structural(spec, v)) for v in (X, Y, Z)]
    base_acc, fiber_acc = geom.zero_vec()
    for Ax in pieces[0]:
        for By in pieces[1]:
            for Cz in pieces[2]:
                b_out, f_out = _riemann_struct(geom, ctx, Ax, By, Cz)
                base_acc = base_acc + b_out
                for i in range(geom.m):
                    fiber_acc[i] = fiber_acc[i] + f_out[i]
    return from_structural(spec, base_acc, fiber_acc)


def two_fiber_spec():
    return mgrw_spec(Interval(0.0, np.inf),
                     [WarpingFunction.from_form("power", {"c": 1.0, "q": 0.7}),
                      WarpingFunction.from_form("exp", {"c": 1.0, "k": 0.3})],
                     [euclidean_fiber(1, ("x",)), sphere_fiber(2, 1.2)])


def two_fiber_point(rng):
    return Point(rng.uniform(0.5, 2.0),
                 ((rng.uniform(-1, 1),), (rng.uniform(0.6, 2.5), rng.uniform(0, 6))))


EXPANSION_CASES = CASES + [("two_fiber", two_fiber_spec(), two_fiber_point)]


@pytest.mark.parametrize("name,spec,draw", EXPANSION_CASES,
                         ids=[c[0] for c in EXPANSION_CASES])
def test_riemann_general_equals_full_expansion(name, spec, draw):
    rng = np.random.default_rng(5)
    for _ in range(15):
        p = draw(rng)
        X, Y, Z = (sparse_vector(spec, rng, keep=0.8) for _ in range(3))
        got = np.array(flatten(riemann_general(spec, p, X, Y, Z)))
        want = np.array(flatten(full_expansion(spec, p, X, Y, Z)))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
