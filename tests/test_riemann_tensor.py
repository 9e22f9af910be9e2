"""The generic route's curvature tensor, g(R(d_a, d_b) d_c, d_d) assembled
once per point from the warped-product case formulas, against the case
expansion it replaces; the batched fills of a `compare` chunk against a
fill of one; and the chunk's batched oracle contraction against the
scalar one."""

import math

import numpy as np
import pytest

from reference_hyperdual import HyperDual
from reference_lifts import (WarpedGeometry, _riemann_struct, _split_struct,
                             from_structural, riemann_general, to_structural)
from reference_oracle import lowered_riemann, null_sectional_from_tensors
from warpcurv import (CoordinateChart, Interval, NullPlane, Point,
                      PointContext, PlaneError, ValidationError,
                      WarpingFunction, assemble_chart, catalog,
                      euclidean_fiber, flatten, generic_warped_spec,
                      grw_spec, isotropy_scan, metric_eval, mgrw_spec,
                      null_curvature_generic, ricci_matrix,
                      riemann_oracle_batch, sample_plane,
                      schwarzschild_spatial_fiber, sphere_fiber, split)
from warpcurv import core_types
from warpcurv.core_types import WarpData
from warpcurv import hyperdual as hd
from warpcurv.cli import CHUNK
from warpcurv.tensor_oracle import lowered_riemann_batch, null_sectional_batch
from warpcurv.warped_formulas import riemann_tensor

# each relative to the scale named beside it
TENSOR_TOL = 1e-14    # of max(1, max |R|): tensor vs the lowered case formulas
GENERIC_TOL = 1e-13   # of max(1, |numerator|): contraction vs lift expansion
SYMMETRY_TOL = 1e-14  # of max(1, max |R|): curvature symmetries and Bianchi
TRACE_TOL = 1e-13     # of max(1, max |R|): metric trace vs ricci_matrix

CATALOG = catalog()


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


def schwarzschild_coords(rng):
    return (rng.uniform(2.5, 6.0), rng.uniform(0.6, math.pi - 0.6),
            rng.uniform(0.0, 2.0 * math.pi))


def grw_schwarzschild_spec():
    return grw_spec(Interval(0.0, math.inf),
                    WarpingFunction.from_form("power", {"c": 1.0, "q": 0.8}),
                    schwarzschild_spatial_fiber(1.0), name="grw_schwarzschild")


def grw_schwarzschild_point(rng):
    return Point(rng.uniform(0.5, 2.0), (schwarzschild_coords(rng),))


def mgrw_schwarzschild_spec():
    return mgrw_spec(Interval(0.0, math.inf),
                     [WarpingFunction.from_form("exp", {"c": 1.0, "k": 0.3}),
                      WarpingFunction.from_form("power", {"c": 1.0, "q": 0.7})],
                     [schwarzschild_spatial_fiber(1.0), euclidean_fiber(1, ("z",))],
                     name="mgrw_schwarzschild")


def mgrw_schwarzschild_point(rng):
    return Point(rng.uniform(0.5, 2.0),
                 (schwarzschild_coords(rng), (rng.uniform(-1, 1),)))


def cases():
    """(spec, point sampler): the 8 catalog models, a generic base chart,
    and a GRW and an MGRW over a generic (Schwarzschild spatial) fiber."""
    out = [pytest.param(e.spec, e.random_point, id=e.name) for e in CATALOG]
    return out + [
        pytest.param(generic_spec(), generic_point, id="generic"),
        pytest.param(grw_schwarzschild_spec(), grw_schwarzschild_point,
                     id="grw_schwarzschild"),
        pytest.param(mgrw_schwarzschild_spec(), mgrw_schwarzschild_point,
                     id="mgrw_schwarzschild")]


CASES = cases()
LINE_BASE_CASES = [c for c in CASES if c.values[0].is_time_base]


def contexts(spec, draw, count, seed=3):
    rng = np.random.default_rng(seed)
    return [PointContext(spec, draw(rng)) for _ in range(count)]


def lowered_case_formulas(spec, ctx):
    """g(R(d_a, d_b) d_c, d_d) from one _riemann_struct call per triple of
    coordinate-basis lifts, lowered with the assembled metric."""
    geom, n = WarpedGeometry(spec), spec.dim
    basis = [split(np.eye(n)[a], spec) for a in range(n)]
    lifts = [_split_struct(geom, to_structural(spec, e))[0] for e in basis]
    out = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                r = from_structural(spec, *_riemann_struct(
                    geom, ctx, lifts[a], lifts[b], lifts[c]))
                out[a, b, c] = [metric_eval(spec, ctx, r, e) for e in basis]
    return out


def expansion_route(spec, plane):
    """The generic route before the tensor: R(L,S)S by the multilinear
    expansion over lifts, then lowered on L with the metric."""
    ctx = PointContext.of(spec, plane.context or plane.point)
    rss = riemann_general(spec, ctx, plane.L, plane.S, plane.S)
    return metric_eval(spec, ctx, rss, plane.L)


# ---------------------------------------------------------------------------
# the tensor against the case formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,draw", CASES)
def test_tensor_equals_lowered_case_formulas(spec, draw):
    for ctx in contexts(spec, draw, 3):
        got = ctx.riemann_tensor
        want = lowered_case_formulas(spec, ctx)
        assert got.shape == (spec.dim,) * 4
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= TENSOR_TOL * scale


@pytest.mark.parametrize("spec,draw", CASES)
def test_generic_route_equals_the_lift_expansion(spec, draw):
    rng = np.random.default_rng(17)
    for _ in range(25):
        plane = sample_plane(spec, PointContext(spec, draw(rng)), rng)
        res = null_curvature_generic(spec, plane)
        want = expansion_route(spec, plane)
        tol = GENERIC_TOL * max(1.0, abs(want))
        assert abs(res.numerator - want) <= tol
        assert abs(res.value - want / plane.g_SS) <= tol / plane.g_SS
        assert res.denominator == plane.g_SS
        assert res.breakdown == {"numerator": res.numerator,
                                 "denominator": res.denominator,
                                 "value": res.value}
        assert type(res.numerator) is float


@pytest.mark.parametrize("spec,draw", CASES)
def test_curvature_symmetries_and_first_bianchi(spec, draw):
    for ctx in contexts(spec, draw, 4):
        r = ctx.riemann_tensor
        tol = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(r))))
        assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) <= tol
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) <= tol
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) <= tol
        assert np.max(np.abs(r + r.transpose(1, 2, 0, 3)
                             + r.transpose(2, 0, 1, 3))) <= tol


@pytest.mark.parametrize("spec,draw", CASES)
def test_tensor_traces_to_the_ricci_matrix(spec, draw):
    """Ric_jk = g^il R_ijkl ties the two production curvature routes
    together with no oracle: the metric comes from PointContext.form."""
    basis = np.eye(spec.dim)
    for ctx in contexts(spec, draw, 20):
        r = ctx.riemann_tensor
        g = np.array([[ctx.form(a, b) for b in basis] for a in basis])
        trace = np.einsum("il,ijkl->jk", np.linalg.inv(g), r)
        tol = TRACE_TOL * max(1.0, float(np.max(np.abs(r))))
        assert np.max(np.abs(trace - ricci_matrix(spec, ctx))) <= tol


@pytest.mark.parametrize("spec,draw", CASES)
def test_tensor_never_reads_the_assembled_chart(spec, draw, monkeypatch):
    """Only the base's and the fibers' own charts reach the oracle, so the
    generic route stays independent of the oracle route."""
    dims = []
    real = core_types.riemann_oracle_batch

    def recording(chart, points):
        dims.append(chart.dim)
        return real(chart, points)

    monkeypatch.setattr(core_types, "riemann_oracle_batch", recording)
    PointContext.fill_riemann_tensors(contexts(spec, draw, 5))
    assert all(d < spec.dim for d in dims)


# ---------------------------------------------------------------------------
# the slots: one fill path, a batch equals a fill of one
# ---------------------------------------------------------------------------

def assert_same_array(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[(0,) * got.ndim] = 1.0


@pytest.mark.parametrize("spec,draw", CASES)
def test_batched_fill_equals_a_fill_of_one(spec, draw):
    chunk = contexts(spec, draw, CHUNK)
    PointContext.fill_riemann_tensors(chunk)
    for ctx in chunk:
        alone = PointContext(spec, ctx.point)
        assert_same_array(ctx.riemann_tensor, alone.riemann_tensor)
    # a filled slot is never replaced
    before = [ctx.riemann_tensor for ctx in chunk]
    PointContext.fill_riemann_tensors(chunk)
    assert all(ctx.riemann_tensor is r for ctx, r in zip(chunk, before))
    # nor is one filled earlier by a lone fill
    mixed = contexts(spec, draw, 5, seed=4)
    first = mixed[2].riemann_tensor
    PointContext.fill_riemann_tensors(mixed)
    assert mixed[2].riemann_tensor is first


def assert_same_bundle(got, want):
    for field in ("dcomps", "hess"):
        assert_same_array(getattr(got, field), getattr(want, field))
    for field in ("value", "lap", "grad_sq"):
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is float and a == b
        assert math.copysign(1, a) == math.copysign(1, b)


@pytest.mark.parametrize("spec,draw", CASES)
def test_batched_warp_bundles_equal_scalar_data(spec, draw):
    """One batched jet per warping gives each context of a chunk the bits
    of a lone fill of its own, on the base line and on a chart base."""
    chunk = contexts(spec, draw, CHUNK)
    PointContext.fill_warp_bundles(chunk)
    for ctx in chunk:
        alone = PointContext(spec, ctx.point).warp_bundle
        for got, want in zip(ctx.warp_bundle, alone, strict=True):
            assert_same_bundle(got, want)
    before = [ctx.warp_bundle for ctx in chunk]
    PointContext.fill_warp_bundles(chunk)
    assert all(ctx.warp_bundle is w for ctx, w in zip(chunk, before))


@pytest.mark.parametrize("spec,draw", LINE_BASE_CASES)
def test_line_warp_bundles_hold_the_hyperdual_bits(spec, draw):
    """On the base line a chunk's bundles hold the bits the reference
    hyper-dual gives at each t: b, b' and b'', with the line's signs
    lap = -b'' and |grad b|^2 = -(b')^2."""
    chunk = contexts(spec, draw, CHUNK)
    PointContext.fill_warp_bundles(chunk)
    for ctx in chunk:
        for got, w in zip(ctx.warp_bundle, spec.warpings, strict=True):
            y = w(HyperDual(ctx.base_point[0], 1.0, 1.0, 0.0))
            b, db, ddb = ((y.re, y.e1, y.e12) if isinstance(y, HyperDual)
                          else (float(y), 0.0, 0.0))
            assert_same_bundle(got, WarpData(
                value=b, dcomps=np.array([db]), hess=np.array([[ddb]]),
                lap=-ddb, grad_sq=-db * db))


@pytest.mark.parametrize("fill", [PointContext.fill_riemann_tensors,
                                  PointContext.fill_warp_bundles])
def test_fill_refuses_contexts_of_two_specs(fill):
    a, b = CATALOG[1], CATALOG[3]
    with pytest.raises(ValidationError, match="different specs"):
        fill([PointContext(a.spec, a.default_point()),
              PointContext(b.spec, b.default_point())])


def test_riemann_tensor_refuses_a_context_of_another_spec():
    a, b = CATALOG[0], CATALOG[4]
    with pytest.raises(ValidationError, match="another spec"):
        riemann_tensor(a.spec, [PointContext(b.spec, b.default_point())])
    assert riemann_tensor(a.spec, []).shape == (0, 4, 4, 4, 4)


@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_at_base_equals_a_fresh_context(entry):
    spec, p = entry.spec, entry.default_point()
    ctx = PointContext(spec, p)
    tensor = ctx.riemann_tensor
    t = 0.25 * entry.base_window[0] + 0.75 * entry.base_window[1]
    moved = ctx.at_base(t)
    fresh = PointContext(spec, moved.point)
    assert_same_array(moved.riemann_tensor, fresh.riemann_tensor)
    # a static model's tensor does not depend on t and is shared
    assert (moved.riemann_tensor is tensor) == (spec.kind == "SSST")


def test_plane_without_a_context():
    entry = CATALOG[4]
    ctx = PointContext(entry.spec, entry.default_point())
    plane = sample_plane(entry.spec, ctx, np.random.default_rng(2))
    bare = NullPlane(point=plane.point, L=plane.L, S=plane.S,
                     g_LL=plane.g_LL, g_LS=plane.g_LS, g_SS=plane.g_SS)
    assert null_curvature_generic(entry.spec, bare) \
        == null_curvature_generic(entry.spec, plane)


# ---------------------------------------------------------------------------
# planes on a chart base
# ---------------------------------------------------------------------------

def test_sample_plane_on_a_chart_base():
    spec = generic_spec()
    rng = np.random.default_rng(8)
    ctx = PointContext(spec, generic_point(rng))
    plane = sample_plane(spec, ctx, rng)
    assert isinstance(plane.L.base_part, tuple)
    assert len(plane.L.base_part) == spec.base_dim
    plane.validate(tol=1e-9)
    summary = isotropy_scan(spec, ctx, None, 5, seed=1)
    assert summary["n_planes"] == 5 and math.isfinite(summary["mean"])


# ---------------------------------------------------------------------------
# the oracle side of a compare chunk
# ---------------------------------------------------------------------------

def oracle_chunk(entry, count, seed=9):
    spec = entry.spec
    rng = np.random.default_rng(seed)
    planes = [sample_plane(spec, PointContext(spec, entry.random_point(rng)),
                           rng) for _ in range(count)]
    batch = riemann_oracle_batch(assemble_chart(spec),
                                 [p.context.point.flat(spec) for p in planes])
    return planes, batch


@pytest.mark.parametrize("count", [1, 7, CHUNK])
@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_batched_oracle_contraction_has_the_scalar_bits(entry, count):
    planes, batch = oracle_chunk(entry, count)
    ks = null_sectional_batch(batch, [flatten(p.L) for p in planes],
                              [flatten(p.S) for p in planes])
    peaks = np.abs(lowered_riemann_batch(batch)).max(axis=(1, 2, 3, 4))
    for plane, t, k, peak in zip(planes, batch, ks, peaks):
        want = null_sectional_from_tensors(t, flatten(plane.L),
                                           flatten(plane.S))
        assert float(k) == want
        assert float(peak) == float(np.max(np.abs(lowered_riemann(t))))


def test_batched_oracle_contraction_raises_for_the_first_bad_plane():
    entry = CATALOG[4]
    planes, batch = oracle_chunk(entry, 6)
    L = [flatten(p.L) for p in planes]
    S = [flatten(p.S) for p in planes]
    S[2], S[4] = L[2], (0.0,) * entry.spec.dim  # S null, then S zero
    with pytest.raises(PlaneError) as scalar:
        null_sectional_from_tensors(batch[2], L[2], S[2])
    with pytest.raises(PlaneError) as batched:
        null_sectional_batch(batch, L, S)
    assert str(batched.value) == str(scalar.value)
    assert null_sectional_batch([], [], []).shape == (0,)
