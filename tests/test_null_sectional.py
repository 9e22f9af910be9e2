"""Null congruences, degenerate planes, specialized evaluators vs the
reference expansion vs the chart oracle, and the closed-form identities
(exponential warping, static offsets, scaling laws)."""

import math
import re

import numpy as np
import pytest

from test_sampler_bits import tilted_frame
from warpcurv import (CoordinateChart, Interval, NullPlane, PlaneError,
                      Point, PointContext, ShapeError, TangentVector,
                      ValidationError, WarpingFunction,
                      assemble_chart, by_name, catalog, closed_form,
                      default_frame, euclidean_fiber, flatten, formula_paths,
                      generic_warped_spec, grw_spec, isotropy_scan,
                      kasner_spec, make_degenerate_plane, metric_eval,
                      mgrw_spec, normalize_null, null_curvature_generic,
                      null_sectional_oracle, sample_plane,
                      specialized_null_curvature, sphere_fiber, split)
from warpcurv.errors import ConstraintError, ConstructionError
from warpcurv.hyperdual import jet
from warpcurv.null_sectional import _FORMS, isotropy_summary


def minkowski():
    return by_name("minkowski").spec


# ---------------------------------------------------------------------------
# congruence normalization
# ---------------------------------------------------------------------------

class TestNormalizeNull:
    def test_minkowski(self):
        spec = minkowski()
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        U = default_frame(spec, p)
        L = normalize_null(spec, p, U, TangentVector(0.0, ((1.0, 0.0, 0.0),)))
        assert metric_eval(spec, p, L, L) == pytest.approx(0.0, abs=1e-12)
        assert metric_eval(spec, p, L, U) == pytest.approx(-1.0, abs=1e-12)

    def test_warped_norm_is_inverse_square(self):
        """Constant warping 2: the returned spatial part has g_F(V,V) = 1/4."""
        spec = grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(2.0),
                        sphere_fiber(3, 1.0))
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        U = default_frame(spec, p)
        L = normalize_null(spec, p, U, TangentVector(0.0, ((0.3, 0.1, -0.2),)))
        v = np.array(L.fiber_parts[0])
        g = spec.fibers[0].metric_matrix(p.fiber_coords[0])
        assert v @ g @ v == pytest.approx(0.25, rel=1e-12)

    def test_static_norm_is_unit(self):
        """Static models: the congruence forces g_F(V,V) = 1."""
        spec = by_name("anti_de_sitter_cover").spec
        p = Point(0.0, ((0.8, 1.1, 0.4),))
        U = default_frame(spec, p)
        L = normalize_null(spec, p, U, TangentVector(0.0, ((0.3, 0.1, -0.2),)))
        v = np.array(L.fiber_parts[0])
        g = spec.fibers[0].metric_matrix(p.fiber_coords[0])
        assert v @ g @ v == pytest.approx(1.0, rel=1e-12)
        assert abs(L.base_part) == pytest.approx(
            1.0 / spec.potential_value(p.fiber_coords[0]), rel=1e-12)

    def test_frame_normalization_tolerances(self):
        """|g(L,U) + 1| and |g(L,L)| both below 1e-12 for 50 random draws."""
        rng = np.random.default_rng(2)
        for entry in (by_name("grw_exponential"), by_name("schwarzschild_exterior")):
            spec = entry.spec
            for _ in range(25):
                p = entry.random_point(rng)
                U = default_frame(spec, p)
                d = TangentVector(0.0, tuple(tuple(rng.standard_normal(f.dim))
                                             for f in spec.fibers))
                L = normalize_null(spec, p, U, d)
                assert abs(metric_eval(spec, p, L, U) + 1.0) <= 1e-12
                assert abs(metric_eval(spec, p, L, L)) <= 1e-12

    def test_pure_time_direction_rejected(self):
        spec = minkowski()
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        U = default_frame(spec, p)
        with pytest.raises(ConstructionError):
            normalize_null(spec, p, U, TangentVector(3.0, ((0.0, 0.0, 0.0),)))

    def test_spacelike_frame_rejected(self):
        spec = minkowski()
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        with pytest.raises(ValidationError):
            normalize_null(spec, p, TangentVector(0.0, ((1.0, 0.0, 0.0),)),
                           TangentVector(0.0, ((0.0, 1.0, 0.0),)))


class TestMakeDegeneratePlane:
    def test_minkowski_orthogonal_candidate_unchanged(self):
        spec = minkowski()
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        plane = make_degenerate_plane(spec, p, L, S)
        assert flatten(plane.S) == flatten(S)
        assert plane.discriminant == pytest.approx(0.0, abs=1e-15)

    def test_time_base_compatibility_condition(self):
        """g(L,S) = 0 forces g_F(V,W) = -h / b^2 in the L = -d_t + V shape."""
        entry = by_name("grw_exponential")
        spec = entry.spec
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            b = spec.warpings[0](float(p.t))
            # reorient to base coefficient -1 (value-neutral for K)
            L = plane.L if plane.L.base_part < 0 else -plane.L
            v = np.array(L.fiber_parts[0])
            w = np.array(plane.S.fiber_parts[0])
            g = spec.fibers[0].metric_matrix(p.fiber_coords[0])
            h = plane.S.base_part
            assert v @ g @ w == pytest.approx(-h / (b * b), rel=1e-9, abs=1e-12)

    def test_static_compatibility_condition(self):
        """Static models: g(L,S) = 0 forces g_F(V,W) = -f h in the
        L = -f^-1 d_t + V shape."""
        entry = by_name("einstein_static")
        spec = entry.spec
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            f = spec.potential_value(p.fiber_coords[0])
            L = plane.L if plane.L.base_part < 0 else -plane.L
            v = np.array(L.fiber_parts[0])
            w = np.array(plane.S.fiber_parts[0])
            g = spec.fibers[0].metric_matrix(p.fiber_coords[0])
            h = plane.S.base_part
            assert v @ g @ w == pytest.approx(-f * h, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_random_candidates_give_valid_planes(self, entry):
        """200 random candidates per model construct validated planes."""
        spec = entry.spec
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            plane.validate(tol=1e-9)

    def test_candidate_parallel_to_l_rejected(self):
        spec = minkowski()
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        with pytest.raises(PlaneError):
            make_degenerate_plane(spec, p, L, 2.0 * L)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
def test_base_free_refuses_a_frame_with_a_fiber_part(entry):
    """A base-free S is g-orthogonal to L only where it is to the frame,
    so a frame with a fiber part is refused up front, naming the frame,
    before the generator draws; without base_free the frame is drawn
    from."""
    spec = entry.spec
    rng = np.random.default_rng(5)
    ctx = PointContext(spec, entry.random_point(rng))
    state = rng.bit_generator.state
    with pytest.raises(ValidationError,
                       match="base_free=True needs a frame_U along the base"):
        sample_plane(spec, ctx, rng, frame_U=tilted_frame(ctx),
                     base_free=True)
    assert rng.bit_generator.state == state
    plane = sample_plane(spec, ctx, rng, frame_U=tilted_frame(ctx))
    assert plane.frame_U == tilted_frame(ctx)


def test_fibers_of_total_dimension_one_are_refused():
    """A 3-D spacetime over a 2-D chart with one 1-D fiber has degenerate
    planes, but not ones whose spatial directions lie in the fibers, which
    is where the sampler draws them: refused before any draw."""
    base = CoordinateChart(dim=2, name="lorentz_2d",
                           metric_at=lambda x: [[-1.0, 0.0], [0.0, 1.0]])
    spec = generic_warped_spec(base, [lambda x: 1.0 + 0.0 * x[0]],
                               [sphere_fiber(1)])
    assert spec.dim == 3
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="the sampler draws the spatial "
                       "directions of L and S in the fibers"):
        sample_plane(spec, Point((0.0, 0.0), ((0.3,),)), rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFinite:
    """NaN passes every ``>`` and ``<=`` test, so non-finite inputs and
    g-values are rejected explicitly."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_normalize_null_rejects_a_non_finite_direction(self, bad):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        U = default_frame(spec, p)
        for direction in (TangentVector(0.0, ((bad, 0.2, 0.1),)),
                          TangentVector(bad, ((1.0, 0.0, 0.0),))):
            with pytest.raises(PlaneError, match="not finite"):
                normalize_null(spec, p, U, direction)

    def test_normalize_null_rejects_a_non_finite_frame(self):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        with pytest.raises(PlaneError, match="not finite"):
            normalize_null(spec, p, TangentVector(math.nan, ((0.0,) * 3,)),
                           TangentVector(0.0, ((1.0, 0.0, 0.0),)))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_make_degenerate_plane_rejects_a_non_finite_candidate(self, bad):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        for S in (TangentVector(0.0, ((0.0, bad, 0.0),)),
                  TangentVector(bad, ((0.0, 1.0, 0.0),))):
            with pytest.raises(PlaneError, match="not finite"):
                make_degenerate_plane(spec, p, L, S)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_make_degenerate_plane_rejects_a_non_finite_l(self, bad):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        L = TangentVector(-1.0, ((bad, 0.0, 0.0),))
        with pytest.raises(PlaneError, match="not finite"):
            make_degenerate_plane(spec, p, L,
                                  TangentVector(0.0, ((0.0, 1.0, 0.0),)))

    @pytest.mark.parametrize("field", ("g_LL", "g_LS", "g_SS", "g_LU"))
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_a_plane_with_a_non_finite_g_value_fails_validation(self, field,
                                                                 bad):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        good = sample_plane(spec, p, np.random.default_rng(0))
        fields = dict(point=good.point, L=good.L, S=good.S,
                      frame_U=good.frame_U, g_LL=good.g_LL, g_LS=good.g_LS,
                      g_SS=good.g_SS, g_LU=good.g_LU, context=good.context)
        plane = NullPlane(**dict(fields, **{field: bad}))
        with pytest.raises(PlaneError, match="non-finite"):
            plane.validate(tol=1e-9)
        with pytest.raises(PlaneError, match="non-finite"):
            null_curvature_generic(spec, plane)
        null_curvature_generic(spec, NullPlane(**fields))  # the finite one

    def test_null_curvature_generic_rejects_a_plane_built_with_nan(self):
        spec = minkowski()
        p = by_name("minkowski").default_point()
        plane = NullPlane.build(spec, p, TangentVector(-1.0, ((1.0, 0.0, 0.0),)),
                                TangentVector(0.0, ((0.0, math.nan, 0.0),)))
        with pytest.raises(PlaneError, match="non-finite"):
            null_curvature_generic(spec, plane)

    def test_finite_inputs_keep_their_bits(self):
        """The checks only raise: a finite plane equals one built from the
        same vectors by PointContext.plane, g-value for g-value."""
        spec = minkowski()
        p = by_name("minkowski").default_point()
        U = default_frame(spec, p)
        L = normalize_null(spec, p, U, TangentVector(0.0, ((0.3, -0.4, 0.1),)))
        plane = make_degenerate_plane(spec, p, L,
                                      TangentVector(0.2, ((0.1, 0.5, -0.3),)))
        again = NullPlane.build(spec, p, plane.L, plane.S, plane.frame_U)
        assert plane == again


# ---------------------------------------------------------------------------
# evaluator equivalences
# ---------------------------------------------------------------------------

class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_specialized_vs_generic_vs_oracle(self, entry):
        """Specialized == generic to 1e-10 relative, both == oracle to 1e-8,
        on 100 seeded planes per model."""
        spec = entry.spec
        chart = assemble_chart(spec)
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k_gen = null_curvature_generic(spec, plane).value
            k_spec = specialized_null_curvature(spec, plane, "derived").value
            k_oracle = null_sectional_oracle(chart, list(p.flat(spec)),
                                             flatten(plane.L), flatten(plane.S))
            scale = max(1.0, abs(k_oracle))
            assert abs(k_spec - k_gen) <= 1e-10 * scale
            assert abs(k_spec - k_oracle) <= 1e-8 * scale
            assert abs(k_gen - k_oracle) <= 1e-8 * scale

    def test_result_arithmetic_invariant(self):
        entry = by_name("grw_exponential")
        rng = np.random.default_rng(7)
        p = entry.random_point(rng)
        plane = sample_plane(entry.spec, p, rng)
        res = specialized_null_curvature(entry.spec, plane, "derived")
        assert res.value == pytest.approx(res.numerator / res.denominator,
                                          rel=1e-14)
        assert res.denominator > 0
        terms = sum(v for k, v in res.breakdown.items()
                    if k not in ("numerator", "denominator", "value"))
        assert terms == pytest.approx(res.numerator, rel=1e-12, abs=1e-14)


class TestGaugeAndScaling:
    @pytest.mark.parametrize("name", ["grw_exponential", "kasner_vacuum",
                                      "einstein_static",
                                      "generalized_reissner_nordstrom_demo"])
    def test_gauge_invariance(self, name):
        """S -> S + alpha L changes nothing, alpha in [-10, 10]."""
        entry = by_name(name)
        spec = entry.spec
        rng = np.random.default_rng(8)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k0 = null_curvature_generic(spec, plane).value
            for alpha in (-10.0, -1.7, 0.4, 10.0):
                shifted = NullPlane.build(spec, p, plane.L,
                                          plane.S + alpha * plane.L,
                                          frame_U=plane.frame_U)
                k = null_curvature_generic(spec, shifted).value
                assert abs(k - k0) <= 1e-9 * max(1.0, abs(k0))

    @pytest.mark.parametrize("name", ["grw_exponential", "kasner_vacuum",
                                      "einstein_static",
                                      "generalized_reissner_nordstrom_demo"])
    def test_quadratic_scaling(self, name):
        """L -> c L multiplies the value by c^2, to relative 1e-10."""
        entry = by_name(name)
        spec = entry.spec
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k0 = null_curvature_generic(spec, plane).value
            for c in (2.0, -3.0, 0.5):
                scaled = NullPlane.build(spec, p, c * plane.L, plane.S)
                k = null_curvature_generic(spec, scaled).value
                assert abs(k - c * c * k0) <= 1e-10 * max(1.0, abs(c * c * k0))


# ---------------------------------------------------------------------------
# single-fiber closed forms and the exponential characterization
# ---------------------------------------------------------------------------

class TestExponentialCharacterization:
    def test_exponential_grid(self):
        """|K - K_F/b^2| <= 1e-10 for b = c e^(k t) over a (c, k, t) grid."""
        fiber = sphere_fiber(3, 1.0)
        rng = np.random.default_rng(10)
        for c in np.linspace(0.5, 2.5, 5):
            for k in np.linspace(-1.0, 1.0, 5):
                spec = grw_spec(Interval(-math.inf, math.inf),
                                WarpingFunction.from_form("exp", {"c": c, "k": k}),
                                fiber)
                for t in np.linspace(-1.0, 1.0, 20):
                    p = Point(float(t), ((1.2, 1.0, 0.5),))
                    plane = sample_plane(spec, p, rng)
                    b = c * math.exp(k * t)
                    kv = closed_form(spec, plane, "GRW", "derived").value
                    assert abs(kv - 1.0 / (b * b)) <= 1e-10

    @pytest.mark.parametrize("q", [1.0, 2.0, -1.0])
    def test_power_warping_residual(self, q):
        """For b = t^q the difference K_F/b^2 - K equals b''/b - (b'/b)^2
        = -q/t^2; nonzero, so only exponential warpings have K = K_F/b^2."""
        spec = grw_spec(Interval(0.0, math.inf),
                        WarpingFunction.from_form("power", {"c": 1.0, "q": q}),
                        sphere_fiber(3, 1.0))
        rng = np.random.default_rng(11)
        for t in (0.5, 1.0, 2.0, 4.0):
            p = Point(t, ((1.2, 1.0, 0.5),))
            plane = sample_plane(spec, p, rng)
            b = t ** q
            kv = closed_form(spec, plane, "GRW", "derived").value
            residual = 1.0 / (b * b) - kv
            assert abs(residual - (-q / (t * t))) <= 1e-10 * max(1.0, abs(q / t / t))

    def test_linear_warping_residual_value(self):
        """b = t: the residual K_F/b^2 - K is exactly -1/t^2."""
        spec = grw_spec(Interval(0.0, math.inf),
                        WarpingFunction.from_form("power", {"c": 1.0, "q": 1.0}),
                        euclidean_fiber(3))
        rng = np.random.default_rng(12)
        t = 2.0
        p = Point(t, ((0.1, 0.2, 0.3),))
        plane = sample_plane(spec, p, rng)
        kv = closed_form(spec, plane, "GRW", "derived").value
        assert (0.0 - kv) == pytest.approx(-1.0 / (t * t), abs=1e-10)

    def test_remark_orientations(self):
        """Derived remark matches the oracle; the printed remark flips the
        correction sign and disagrees for non-exponential warpings."""
        spec = grw_spec(Interval(0.0, math.inf),
                        WarpingFunction.from_form("power", {"c": 1.0, "q": 1.0}),
                        sphere_fiber(3, 1.0))
        chart = assemble_chart(spec)
        rng = np.random.default_rng(13)
        t = 1.5
        p = Point(t, ((1.2, 1.0, 0.5),))
        plane = sample_plane(spec, p, rng, base_free=True)
        k_oracle = null_sectional_oracle(chart, list(p.flat(spec)),
                                         flatten(plane.L), flatten(plane.S))
        derived = closed_form(spec, plane, "GRW remark", "derived")
        printed = closed_form(spec, plane, "GRW remark", "printed")
        assert derived == pytest.approx(k_oracle, rel=1e-10)
        assert printed != pytest.approx(k_oracle, rel=1e-3)
        assert derived - printed == pytest.approx(2.0 / (t * t), rel=1e-10)


# ---------------------------------------------------------------------------
# Kasner evaluators
# ---------------------------------------------------------------------------

class TestKasner:
    def test_zero_exponents_are_flat(self):
        spec = kasner_spec(Interval(0.0, math.inf),
                           WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                           (0.0, 0.0, 0.0),
                           [euclidean_fiber(1, ("x",)), euclidean_fiber(1, ("y",)),
                            euclidean_fiber(1, ("z",))])
        rng = np.random.default_rng(14)
        p = Point(1.0, ((0.1,), (0.2,), (0.3,)))
        plane = sample_plane(spec, p, rng)
        assert closed_form(spec, plane, "Kasner").value == \
            pytest.approx(0.0, abs=1e-12)

    def test_derived_equals_generic(self):
        entry = by_name("kasner_vacuum")
        spec = entry.spec
        rng = np.random.default_rng(15)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k1 = closed_form(spec, plane, "Kasner").value
            k2 = null_curvature_generic(spec, plane).value
            assert k1 == pytest.approx(k2, rel=1e-10, abs=1e-12)

    def test_inverse_square_time_scaling(self):
        """Identical seeds at t and t/10 give values in ratio 100 +- 1%."""
        entry = by_name("kasner_vacuum")
        spec = entry.spec
        vals = {}
        for t in (0.1, 0.01):
            rng = np.random.default_rng(42)
            p = Point(t, ((0.1,), (0.2,), (0.3,)))
            plane = sample_plane(spec, p, rng)
            vals[t] = closed_form(spec, plane, "Kasner").value
        ratio = vals[0.01] / vals[0.1]
        assert abs(ratio - 100.0) <= 1.0

    def test_printed_path_disagrees_with_oracle(self):
        entry = by_name("kasner_vacuum")
        spec = entry.spec
        chart = assemble_chart(spec)
        rng = np.random.default_rng(16)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        k_oracle = null_sectional_oracle(chart, list(p.flat(spec)),
                                         flatten(plane.L), flatten(plane.S))
        printed = closed_form(spec, plane, "Kasner", "printed")
        assert abs(printed.value - k_oracle) > 1e-6


# ---------------------------------------------------------------------------
# four-dimensional special evaluators
# ---------------------------------------------------------------------------

class TestFourDimensionalTypes:
    def test_type1_reduces_to_base_free_form(self):
        """With no base part in S, the 3-fiber form equals the remark value."""
        entry = by_name("grw_exponential")
        spec = entry.spec
        rng = np.random.default_rng(17)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng, base_free=True)
        r1 = closed_form(spec, plane, "type1")
        assert r1.value == pytest.approx(closed_form(spec, plane, "GRW remark", "derived"),
                                         rel=1e-10)

    def test_type1_matches_grw_on_general_planes(self):
        entry = by_name("grw_exponential")
        spec = entry.spec
        rng = np.random.default_rng(18)
        for _ in range(20):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            r1 = closed_form(spec, plane, "type1").value
            rg = closed_form(spec, plane, "GRW", "derived").value
            assert r1 == pytest.approx(rg, rel=1e-12)

    def test_type2_merged_fiber_consistency(self):
        """Equal warpings on a (1, 2) split agree with the single-fiber
        evaluator on the merged 3-dimensional flat fiber."""
        b = WarpingFunction.from_form("power", {"c": 1.0, "q": 1.0})
        split_spec = mgrw_spec(Interval(0.0, math.inf), [b, b],
                               [euclidean_fiber(1, ("x",)), euclidean_fiber(2)])
        merged_spec = grw_spec(Interval(0.0, math.inf), b, euclidean_fiber(3))
        rng = np.random.default_rng(19)
        for _ in range(20):
            t = rng.uniform(0.5, 3.0)
            p2 = Point(t, ((0.1,), (0.2, 0.3)))
            p1 = Point(t, ((0.1, 0.2, 0.3),))
            plane = sample_plane(split_spec, p2, rng)
            k2 = closed_form(split_spec, plane, "type2").value
            flat_L = flatten(plane.L)
            flat_S = flatten(plane.S)
            merged_plane = NullPlane.build(
                merged_spec, p1,
                split(flat_L, merged_spec), split(flat_S, merged_spec))
            k1 = closed_form(merged_spec, merged_plane, "GRW", "derived").value
            assert k2 == pytest.approx(k1, rel=1e-11)

    def test_type3_flat_exponents_vanish(self):
        """Exponents (1, 0, 0) satisfy both constraints and give zero."""
        entry = by_name("kasner_flat")
        spec = entry.spec
        rng = np.random.default_rng(20)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k = closed_form(spec, plane, "type3").value
            assert abs(k) <= 1e-9

    def test_type3_matches_kasner_evaluator(self):
        entry = by_name("kasner_vacuum")
        spec = entry.spec
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k3 = closed_form(spec, plane, "type3").value
            kk = closed_form(spec, plane, "Kasner").value
            assert k3 == pytest.approx(kk, rel=1e-11)

    def test_type3_constraint_enforced(self):
        spec, plane = _unconstrained_kasner()
        with pytest.raises(ConstraintError):
            closed_form(spec, plane, "type3")

    def test_signature_mismatch_rejected(self):
        entry = by_name("grw_exponential")
        spec = entry.spec
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        plane = NullPlane.build(spec, p, L, S)
        with pytest.raises(ValidationError):
            closed_form(spec, plane, "type2")

    def test_shape_validation(self):
        entry = by_name("grw_exponential")
        spec = entry.spec
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        bad_L = TangentVector(-0.5, ((1.0, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        plane = NullPlane.build(spec, p, bad_L, S)
        with pytest.raises(ShapeError):
            closed_form(spec, plane, "type1")


# ---------------------------------------------------------------------------
# standard static evaluator
# ---------------------------------------------------------------------------

class TestStaticModels:
    def test_unit_potential_gives_fiber_curvature(self):
        """Einstein static universe: K = K_F = 1 on every plane."""
        entry = by_name("einstein_static")
        spec = entry.spec
        rng = np.random.default_rng(22)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k = closed_form(spec, plane, "SSST").value
            assert k == pytest.approx(1.0, rel=1e-10)

    def test_anti_de_sitter_constant_zero(self):
        """Constant-curvature spacetime: K vanishes on 20 random planes at
        random points (point-independence to 1e-8)."""
        entry = by_name("anti_de_sitter_cover")
        spec = entry.spec
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            assert abs(closed_form(spec, plane, "SSST").value) <= 1e-8

    def test_hessian_eigenvalue_offset(self):
        """Potential with H = k f g: the offset K_F - K equals -k over 50
        base-free planes (k = 1 for cosh on unit hyperbolic space)."""
        entry = by_name("anti_de_sitter_cover")
        spec = entry.spec
        k_f = spec.fibers[0].constant_curvature
        rng = np.random.default_rng(24)
        for _ in range(50):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng, base_free=True)
            k = closed_form(spec, plane, "SSST").value
            assert (k_f - k) == pytest.approx(-1.0, abs=1e-8)

    def test_remark_orientations(self):
        entry = by_name("anti_de_sitter_cover")
        spec = entry.spec
        rng = np.random.default_rng(25)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng, base_free=True)
        assert closed_form(spec, plane, "SSST remark", "derived") == pytest.approx(
            0.0, abs=1e-10)
        assert closed_form(spec, plane, "SSST remark", "printed") == pytest.approx(
            -2.0, abs=1e-10)

    def test_printed_unit_s_path_on_normalized_planes(self):
        """The unit-normalized printed display flips the H(W,W) term."""
        entry = by_name("schwarzschild_exterior")
        spec = entry.spec
        rng = np.random.default_rng(26)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        unit_S = (1.0 / math.sqrt(plane.g_SS)) * plane.S
        unit_plane = NullPlane.build(spec, p, plane.L, unit_S,
                                     frame_U=plane.frame_U)
        derived = closed_form(spec, unit_plane, "SSST", "derived")
        printed3 = closed_form(spec, unit_plane, "SSST", "printed_unit_s")
        diff = derived.breakdown["hess_WW"] - printed3.breakdown["hess_WW"]
        assert diff == pytest.approx(2.0 * derived.breakdown["hess_WW"], rel=1e-12)

    def test_wrong_frame_scaling_rejected(self):
        entry = by_name("anti_de_sitter_cover")
        spec = entry.spec
        p = Point(0.0, ((0.8, 1.1, 0.4),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))  # not scaled by 1/f
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        with pytest.raises((ShapeError, PlaneError)):
            plane = NullPlane.build(spec, p, L, S)
            closed_form(spec, plane, "SSST")


# ---------------------------------------------------------------------------
# the remark evaluators refuse the models they do not describe
# ---------------------------------------------------------------------------

def _base_free_plane(name):
    entry = by_name(name)
    rng = np.random.default_rng(27)
    p = entry.random_point(rng)
    return entry.spec, p, sample_plane(entry.spec, p, rng, base_free=True)


@pytest.mark.parametrize("name", ["grw_exponential", "kasner_vacuum",
                                  "generalized_reissner_nordstrom_demo"])
def test_ssst_remark_refuses_a_time_base_model(name):
    spec, p, plane = _base_free_plane(name)
    for path in ("derived", "printed"):
        with pytest.raises(ValidationError,
                           match="SSST remark requires kind='SSST'"):
            closed_form(spec, plane, "SSST remark", path)


@pytest.mark.parametrize("name", ["kasner_vacuum",
                                  "generalized_reissner_nordstrom_demo"])
def test_grw_remark_refuses_a_multi_fiber_model(name):
    """The remark reads fiber 0 alone, whose g_F area vanishes on a line
    fiber; a model with more than one fiber is refused by name."""
    spec, p, plane = _base_free_plane(name)
    for path in ("derived", "printed"):
        with pytest.raises(ValidationError,
                           match="GRW remark requires a single-fiber model"):
            closed_form(spec, plane, "GRW remark", path)


@pytest.mark.parametrize("display,name", [("GRW remark", "grw_exponential"),
                                          ("SSST remark", "anti_de_sitter_cover")])
def test_remark_refuses_an_unknown_path(display, name):
    spec, p, plane = _base_free_plane(name)
    with pytest.raises(ValidationError, match="unknown path 'bogus'"):
        closed_form(spec, plane, display, "bogus")


# ---------------------------------------------------------------------------
# every display's guards and the plane validation of the closed-form entry
# ---------------------------------------------------------------------------

def _sampled(name):
    """A catalog model and a plane drawn on it, whose S has a base part."""
    entry = by_name(name)
    rng = np.random.default_rng(29)
    return entry.spec, sample_plane(entry.spec, entry.random_point(rng), rng)


def _unconstrained_kasner():
    """Kasner exponents (0.5, 0.5, 0.5): sum p = 1.5, sum p^2 = 0.75."""
    spec = kasner_spec(Interval(0.0, math.inf),
                       WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                       (0.5, 0.5, 0.5),
                       [euclidean_fiber(1, ("x",)), euclidean_fiber(1, ("y",)),
                        euclidean_fiber(1, ("z",))])
    p = Point(1.0, ((0.1,), (0.2,), (0.3,)))
    L = TangentVector(-1.0, ((1.0,), (0.0,), (0.0,)))
    S = TangentVector(0.0, ((0.0,), (1.0,), (0.0,)))
    return spec, NullPlane.build(spec, p, L, S)


TIME_KINDS = "kind='MGRW' or kind='GRW' or kind='Kasner'"

# display -> (a model and plane it refuses, the error type, its message)
REFUSALS = {
    "MGRW": (lambda: _sampled("einstein_static"), ValidationError,
             f"MGRW requires {TIME_KINDS}, got kind='SSST'"),
    "GRW": (lambda: _sampled("generalized_reissner_nordstrom_demo"),
            ValidationError, "GRW requires a single-fiber model"),
    "Kasner": (lambda: _sampled("grw_exponential"), ValidationError,
               "Kasner requires kind='Kasner', got kind='GRW'"),
    "SSST": (lambda: _sampled("kasner_vacuum"), ValidationError,
             "SSST requires kind='SSST', got kind='Kasner'"),
    "GRW remark": (lambda: _sampled("grw_exponential"), ValidationError,
                   "GRW remark applies to planes with no base part"),
    "SSST remark": (lambda: _sampled("anti_de_sitter_cover"), ValidationError,
                    "SSST remark applies to planes with no base part"),
    "type1": (lambda: _sampled("einstein_static"), ValidationError,
              f"type1 requires {TIME_KINDS}, got kind='SSST'"),
    "type2": (lambda: _sampled("grw_exponential"), ValidationError,
              "type2 requires fiber signature (1, 2), got (3,)"),
    "type3": (_unconstrained_kasner, ConstraintError,
              "type3 requires the Kasner constraint sum p = sum p^2 = 1, "
              "got sum p = 1.5, sum p^2 = 0.75"),
}


@pytest.mark.parametrize("display", list(_FORMS))
def test_every_display_refuses_what_it_does_not_describe(display):
    make, error, message = REFUSALS[display]
    spec, plane = make()
    for path in _FORMS[display].paths:
        with pytest.raises(error, match=re.escape(message)):
            closed_form(spec, plane, display, path)


def _non_null_plane(display):
    """A model the display describes and a plane it would accept but for
    L, which has the display's base coefficient and is not null."""
    if display.startswith("SSST"):
        spec = by_name("anti_de_sitter_cover").spec
        p = Point(0.0, ((0.8, 1.1, 0.4),))
        f = spec.potential_value(p.fiber_coords[0])
        L = TangentVector(-1.0 / f, ((0.1, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
    elif display in ("Kasner", "type3"):
        spec = by_name("kasner_vacuum").spec
        p = Point(1.0, ((0.1,), (0.2,), (0.3,)))
        L = TangentVector(-1.0, ((3.0,), (0.0,), (0.0,)))
        S = TangentVector(0.0, ((0.0,), (1.0,), (0.0,)))
    elif display == "type2":
        spec = _type2_spec()
        p = Point(1.0, ((0.1,), (1.2, 0.5)))
        L = TangentVector(-1.0, ((3.0,), (0.0, 0.0)))
        S = TangentVector(0.0, ((0.0,), (1.0, 0.0)))
    else:
        spec = by_name("grw_exponential").spec
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        L = TangentVector(-1.0, ((3.0, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
    return spec, NullPlane.build(spec, p, L, S)


@pytest.mark.parametrize("display", list(_FORMS))
def test_every_display_refuses_a_non_null_plane(display):
    spec, plane = _non_null_plane(display)
    assert abs(plane.g_LL) > 0.5
    for path in _FORMS[display].paths:
        with pytest.raises(PlaneError, match="L not null"):
            closed_form(spec, plane, display, path)


def test_unknown_display_is_refused():
    spec, plane = _sampled("grw_exponential")
    with pytest.raises(ValidationError, match="unknown display 'bogus'"):
        closed_form(spec, plane, "bogus")


# ---------------------------------------------------------------------------
# isotropy diagnostics
# ---------------------------------------------------------------------------

class TestIsotropyScan:
    def test_minkowski(self):
        entry = by_name("minkowski")
        scan = isotropy_scan(entry.spec, entry.default_point(), None, 200, 1)
        assert scan["mean"] == pytest.approx(0.0, abs=1e-10)
        assert scan["max_deviation"] <= 1e-10

    def test_constant_curvature_fiber_is_isotropic(self):
        entry = by_name("grw_exponential")
        scan = isotropy_scan(entry.spec, entry.default_point(), None, 200, 1)
        assert scan["max_deviation"] <= 1e-8

    def test_kasner_vacuum_is_anisotropic(self):
        entry = by_name("kasner_vacuum")
        scan = isotropy_scan(entry.spec, entry.default_point(), None, 200, 1)
        assert scan["max_deviation"] > 0.1 * abs(scan["mean"])

    def test_deterministic_given_seed(self):
        entry = by_name("kasner_vacuum")
        a = isotropy_scan(entry.spec, entry.default_point(), None, 50, 9)
        b = isotropy_scan(entry.spec, entry.default_point(), None, 50, 9)
        assert a == b

    def test_no_planes_is_a_validation_error(self):
        entry = by_name("minkowski")
        with pytest.raises(ValidationError, match="at least one plane"):
            isotropy_summary([])
        with pytest.raises(ValidationError, match="at least one plane"):
            isotropy_scan(entry.spec, entry.default_point(), None, 0, 3)


# ---------------------------------------------------------------------------
# printed-path structure
# ---------------------------------------------------------------------------

class TestMgrwSingleFiber:
    def test_agrees_with_grw_evaluator(self):
        """The multiply-warped evaluator on one fiber collapses to the
        single-fiber form, to 1e-12."""
        entry = by_name("grw_exponential")
        spec = entry.spec
        rng = np.random.default_rng(33)
        for _ in range(25):
            p = entry.random_point(rng)
            plane = sample_plane(spec, p, rng)
            k_m = closed_form(spec, plane, "MGRW").value
            k_g = closed_form(spec, plane, "GRW", "derived").value
            assert abs(k_m - k_g) <= 1e-12 * max(1.0, abs(k_g))

    def test_constant_flat_numerator_vanishes(self):
        """Unit warpings and flat fibers: only fiber curvature terms
        survive, and they are zero.  S keeps its base part 0.3 and leans
        into L's spatial direction so that g(L,S) = 0."""
        spec = by_name("minkowski").spec
        p = Point(0.0, ((0.1, 0.2, 0.3),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        S = TangentVector(0.3, ((-0.3, 1.0, 0.0),))
        res = closed_form(spec, NullPlane.build(spec, p, L, S), "MGRW")
        assert res.numerator == 0.0
        assert res.breakdown["fiber_curvature"] == 0.0


class TestPrintedPaths:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_all_paths_evaluate(self, entry):
        spec = entry.spec
        rng = np.random.default_rng(27)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        for path in formula_paths(spec):
            res = specialized_null_curvature(spec, plane, path)
            assert set(res.breakdown) >= {"numerator", "denominator", "value"}

    def test_mgrw_printed_corollary_denominator_drops_base_norm(self):
        entry = by_name("generalized_reissner_nordstrom_demo")
        spec = entry.spec
        rng = np.random.default_rng(28)
        p = entry.random_point(rng)
        plane = sample_plane(spec, p, rng)
        derived = closed_form(spec, plane, "MGRW", "derived")
        cor = closed_form(spec, plane, "MGRW", "printed_corollary")
        h = plane.S.base_part
        assert cor.denominator - derived.denominator == pytest.approx(
            h * h, rel=1e-12)


# ---------------------------------------------------------------------------
# printed displays of the four-dimensional special cases
# ---------------------------------------------------------------------------

def _fiber_scalars(spec, plane, i):
    """(b, b', b'', g_F(V,V), g_F(V,W), g_F(W,W)) of fiber i, recomputed
    from the spec with L oriented to base coefficient -1."""
    L = plane.L if plane.L.base_part < 0 else -plane.L
    b, db, ddb = jet(lambda c: spec.warpings[i](c[0]), [plane.point.t])
    db, ddb = float(db[0]), float(ddb[0, 0])
    G = spec.fibers[i].metric_matrix(plane.point.fiber_coords[i])
    v = np.array(L.fiber_parts[i])
    w = np.array(plane.S.fiber_parts[i])
    return b, db, ddb, v @ G @ v, v @ G @ w, w @ G @ w


def _displays(display, spec, plane):
    """The derived and printed results of one display on a plane."""
    return [closed_form(spec, plane, display, path)
            for path in ("derived", "printed")]


def _mixed(res):
    """The mixed Hessian contribution, whether kept as one term or as a
    lead/trail pair."""
    return sum(v for k, v in res.breakdown.items() if k.startswith("hess_mixed"))


def _type2_spec():
    return mgrw_spec(
        Interval(0.0, math.inf),
        [WarpingFunction.from_form("power", {"c": 1.0, "q": 1.5}),
         WarpingFunction.from_form("exp", {"c": 1.0, "k": 0.4})],
        [euclidean_fiber(1, ("x",)), sphere_fiber(2, 1.3)])


def _planes(spec, points, seed, base_free=False):
    rng = np.random.default_rng(seed)
    return [sample_plane(spec, p, rng, base_free=base_free) for p in points]


CLOSE = dict(rel=1e-10, abs=1e-12)


class TestTypePrintedDisplays:
    """Each documented erratum of the type 1/2/3 printed displays, term by
    term against the derived display of the same plane."""

    def _type1_planes(self):
        entry = by_name("grw_exponential")
        rng = np.random.default_rng(40)
        return entry.spec, _planes(entry.spec,
                                   [entry.random_point(rng) for _ in range(12)], 41)

    def test_type1_hess_YY_sign_flip(self):
        spec, planes = self._type1_planes()
        for plane in planes:
            d, pr = _displays("type1", spec, plane)
            assert d.breakdown["hess_YY"] != 0.0
            assert pr.breakdown["hess_YY"] == pytest.approx(
                -d.breakdown["hess_YY"], **CLOSE)

    def test_type1_unchanged_terms(self):
        spec, planes = self._type1_planes()
        for plane in planes:
            d, pr = _displays("type1", spec, plane)
            for key in ("warp_acc_WW", "fiber_curvature", "denominator"):
                assert pr.breakdown[key] == d.breakdown[key]

    def test_type1_mixed_term_has_no_factor(self):
        """Printed b b'' g(V,W) where the expansion gives -2 h b b'' g(V,W)."""
        spec, planes = self._type1_planes()
        for plane in planes:
            h = plane.S.base_part
            d, pr = _displays("type1", spec, plane)
            assert abs(h) > 1e-3
            assert -2.0 * h * pr.breakdown["hess_mixed"] == pytest.approx(
                _mixed(d), **CLOSE)

    def test_type1_bracket_prints_gVW_for_gWW(self):
        spec, planes = self._type1_planes()
        for plane in planes:
            b, db, _, gvv, gvw, gww = _fiber_scalars(spec, plane, 0)
            d, pr = _displays("type1", spec, plane)
            assert pr.breakdown["warp_rate_bracket"] - \
                d.breakdown["warp_rate_bracket"] == pytest.approx(
                    b * b * db * db * gvv * (gvw - gww), **CLOSE)

    def _type2_planes(self):
        spec = _type2_spec()
        rng = np.random.default_rng(42)
        points = [Point(rng.uniform(0.5, 2.0),
                        ((rng.uniform(-1.0, 1.0),),
                         (rng.uniform(0.6, 2.5), rng.uniform(0.0, 6.0))))
                  for _ in range(12)]
        return spec, _planes(spec, points, 43)

    def test_type2_line_fiber_mixed_pair_and_bare_surface_mixed(self):
        """The line fiber's mixed pair enters with + h b1 b1'' f1 h1 twice,
        the surface fiber's mixed term without its -2 h factor."""
        spec, planes = self._type2_planes()
        for plane in planes:
            h = plane.S.base_part
            d, pr = _displays("type2", spec, plane)
            assert pr.breakdown["line_mixed_lead"] == pr.breakdown["line_mixed_trail"]
            assert pr.breakdown["line_mixed_lead"] != 0.0
            assert (-pr.breakdown["line_mixed_lead"] - pr.breakdown["line_mixed_trail"]
                    - 2.0 * h * pr.breakdown["hess_mixed"]) == pytest.approx(
                        _mixed(d), **CLOSE)

    def test_type2_hess_YY_drops_line_fiber_and_flips_sign(self):
        spec, planes = self._type2_planes()
        for plane in planes:
            h = plane.S.base_part
            b1, _, ddb1, f1f1, _, _ = _fiber_scalars(spec, plane, 0)
            d, pr = _displays("type2", spec, plane)
            assert d.breakdown["hess_YY"] + pr.breakdown["hess_YY"] == \
                pytest.approx(-h * h * b1 * ddb1 * f1f1, **CLOSE)

    def test_type2_drops_cross_fiber_terms(self):
        spec, planes = self._type2_planes()
        for plane in planes:
            d, pr = _displays("type2", spec, plane)
            assert d.breakdown["cross_fiber_VV_WW"] != 0.0
            assert not any(k.startswith("cross_fiber") for k in pr.breakdown)
            for key in ("warp_acc_WW", "fiber_curvature", "warp_rate_bracket",
                        "denominator"):
                assert pr.breakdown[key] == pytest.approx(d.breakdown[key], **CLOSE)

    def _type3_planes(self, base_free=False):
        entry = by_name("kasner_vacuum")
        rng = np.random.default_rng(44)
        return entry.spec, _planes(entry.spec,
                                   [entry.random_point(rng) for _ in range(12)],
                                   45, base_free=base_free)

    def test_type3_first_term_drops_curvature_factor(self):
        """lead_fh = -sum b_i f_i h_i: neither b_i'' nor the base
        coefficient of S survives; the derived mixed term carries both."""
        spec, planes = self._type3_planes()
        for plane in planes:
            h = plane.S.base_part
            d, pr = _displays("type3", spec, plane)
            lead = 0.0
            for i in range(3):
                b, _, _, _, gvw, _ = _fiber_scalars(spec, plane, i)
                lead -= b * gvw
            assert pr.breakdown["lead_fh"] == pytest.approx(lead, **CLOSE)
            assert -2.0 * pr.breakdown["hess_mixed"] == pytest.approx(
                _mixed(d), **CLOSE)
            assert pr.breakdown["hess_YY"] == pytest.approx(
                -d.breakdown["hess_YY"], **CLOSE)
            assert pr.breakdown["warp_acc_WW"] == pytest.approx(
                d.breakdown["warp_acc_WW"], **CLOSE)
            assert h != 0.0

    def test_type3_product_denominator(self):
        """The printed g(S,S) multiplies the base and fiber norms."""
        spec, planes = self._type3_planes()
        for plane in planes:
            h = plane.S.base_part
            d, pr = _displays("type3", spec, plane)
            assert pr.denominator == pytest.approx(
                -h * h * (d.denominator + h * h), **CLOSE)
            assert math.isfinite(pr.value)

    def test_type3_product_denominator_is_nan_on_base_free_planes(self):
        spec, planes = self._type3_planes(base_free=True)
        for plane in planes:
            d, pr = _displays("type3", spec, plane)
            assert math.isfinite(d.value)
            assert pr.denominator == 0.0
            assert math.isnan(pr.value)
