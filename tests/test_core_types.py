"""Manifold model: metric assembly, vectors, planes, JSON round trips."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from warpcurv import (DomainError, Interval, ManifoldSpec, NullPlane, Point,
                      PointContext, ShapeError, StaticPotential, TangentVector,
                      ValidationError, WarpingFunction, assemble_chart,
                      euclidean_fiber, flatten, grw_spec, hyperbolic_fiber,
                      kasner_spec, metric_eval, mgrw_spec, point_from_flat,
                      spec_from_json, spec_to_json, sphere_fiber, split,
                      ssst_spec)
from warpcurv import by_name
from warpcurv.hyperdual import jet


def make_grw(b_form, b_params, fiber=None, lo=-math.inf, hi=math.inf):
    return grw_spec(Interval(lo, hi), WarpingFunction.from_form(b_form, b_params),
                    fiber if fiber is not None else euclidean_fiber(3))


# ---------------------------------------------------------------------------
# intervals and warpings
# ---------------------------------------------------------------------------

class TestInterval:
    def test_order_enforced(self):
        with pytest.raises(ValidationError):
            Interval(2.0, 2.0)

    def test_infinite_endpoints(self):
        iv = Interval(-math.inf, math.inf)
        assert iv.contains(1e9)

    def test_strict_interiority_margin(self):
        iv = Interval(0.0, 1.0)
        assert not iv.contains(0.0)
        assert not iv.contains(1.0 - 1e-14)
        assert iv.contains(0.5)
        with pytest.raises(DomainError):
            iv.require(0.0)


class TestWarpingFunction:
    def test_positivity_check(self):
        w = WarpingFunction.from_form("poly", {"coeffs": [-1.0]})
        with pytest.raises(ValidationError):
            w.check_positive(Interval(0.0, 1.0))

    def test_derivatives_power(self):
        w = WarpingFunction.from_form("power", {"c": 2.0, "q": 3.0})
        b, db, ddb = jet(lambda c: w(c[0]), [1.5])
        assert b == pytest.approx(2 * 1.5 ** 3)
        assert db[0] == pytest.approx(6 * 1.5 ** 2)
        assert ddb[0, 0] == pytest.approx(12 * 1.5)

    def test_unknown_form(self):
        with pytest.raises(ValidationError):
            WarpingFunction.from_form("sinc", {})


# ---------------------------------------------------------------------------
# metric evaluation
# ---------------------------------------------------------------------------

class TestMetricEval:
    def test_time_base_term(self):
        """g(d_t, d_t) = -1 on any time-base model."""
        spec = make_grw("poly", {"coeffs": [1.0]})
        p = Point(0.0, ((0.1, 0.2, 0.3),))
        dt = TangentVector.base_direction(spec, 1.0)
        assert metric_eval(spec, p, dt, dt) == -1.0

    def test_static_time_term_is_minus_potential_squared(self):
        """Anti-de Sitter cover: g(d_t, d_t) = -cosh(rho)^2."""
        spec = ssst_spec(Interval(-math.inf, math.inf),
                         StaticPotential.from_form("cosh", {"c": 1.0, "k": 1.0}),
                         hyperbolic_fiber(3, 1.0))
        r = 0.8
        p = Point(0.0, ((r, 1.1, 0.4),))
        dt = TangentVector.base_direction(spec, 1.0)
        assert metric_eval(spec, p, dt, dt) == pytest.approx(-math.cosh(r) ** 2,
                                                             rel=1e-15)

    def test_warping_scales_fiber(self):
        """Constant warping 2 scales unit fiber vectors by b^2 = 4."""
        spec = make_grw("poly", {"coeffs": [2.0]}, fiber=sphere_fiber(3, 1.0))
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        v = TangentVector.fiber_direction(spec, 0, (1.0, 0.0, 0.0))
        assert metric_eval(spec, p, v, v) == pytest.approx(4.0, rel=1e-15)

    def test_symmetry_and_bilinearity(self):
        spec = mgrw_spec(Interval(0.0, math.inf),
                         [WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                          WarpingFunction.from_form("power", {"c": 1, "q": 2})],
                         [sphere_fiber(2, 1.0), euclidean_fiber(1, ("w",))])
        p = Point(1.3, ((1.1, 0.4), (0.2,)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = split(rng.standard_normal(4), spec)
            y = split(rng.standard_normal(4), spec)
            z = split(rng.standard_normal(4), spec)
            a, b = rng.standard_normal(2)
            assert metric_eval(spec, p, x, y) == pytest.approx(
                metric_eval(spec, p, y, x), rel=1e-12, abs=1e-12)
            lhs = metric_eval(spec, p, a * x + b * z, y)
            rhs = a * metric_eval(spec, p, x, y) + b * metric_eval(spec, p, z, y)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_shape_errors(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        bad = TangentVector(1.0, ((1.0, 2.0),))
        with pytest.raises(ShapeError):
            metric_eval(spec, p, bad, bad)

    def test_domain_error(self):
        spec = make_grw("power", {"c": 1, "q": 1}, lo=0.0, hi=math.inf)
        with pytest.raises(DomainError):
            Point(-1.0, ((0.0, 0.0, 0.0),)).validate(spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("model,flat_index,name", [
        ("minkowski", 0, "t"), ("kasner_flat", 1, "x"),
        ("einstein_static", 0, "t"), ("schwarzschild_exterior", 1, "r")])
    def test_non_finite_coordinate_refused(self, model, flat_index, name, bad):
        """An infinite interval endpoint accepts any t, and fibers have no
        finiteness check of their own: the point refuses it first."""
        entry = by_name(model)
        coords = list(entry.default_point().flat(entry.spec))
        coords[flat_index] = bad
        p = point_from_flat(entry.spec, coords)
        with pytest.raises(ValidationError,
                           match=f"point coordinate '{name}' is not finite"):
            p.validate(entry.spec)
        with pytest.raises(ValidationError):
            PointContext(entry.spec, p)
        if flat_index == 0:
            ctx = PointContext(entry.spec, entry.default_point())
            with pytest.raises(ValidationError, match="'t' is not finite"):
                ctx.at_base(bad)


# ---------------------------------------------------------------------------
# assembled charts
# ---------------------------------------------------------------------------

class TestAssembleChart:
    def test_minkowski_block(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        chart = assemble_chart(spec)
        g = np.array(chart.metric_at([0.3, 0.1, -0.2, 0.5]), dtype=float)
        assert_allclose(g, np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_kasner_blocks(self):
        """phi = t with exponents (2/3, 2/3, -1/3) gives diag(-1, t^{4/3},
        t^{4/3}, t^{-2/3})."""
        spec = kasner_spec(Interval(0.0, math.inf),
                           WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                           (2 / 3, 2 / 3, -1 / 3),
                           [euclidean_fiber(1, ("x",)), euclidean_fiber(1, ("y",)),
                            euclidean_fiber(1, ("z",))])
        t = 1.7
        chart = assemble_chart(spec)
        g = np.array(chart.metric_at([t, 0.0, 0.0, 0.0]), dtype=float)
        assert_allclose(g, np.diag([-1.0, t ** (4 / 3), t ** (4 / 3),
                                    t ** (-2 / 3)]), rtol=1e-14)

    def test_schwarzschild_chart(self):
        entry = by_name("schwarzschild_exterior")
        chart = assemble_chart(entry.spec)
        r, theta = 3.0, 1.2
        g = np.array(chart.metric_at([0.0, r, theta, 0.4]), dtype=float)
        f2 = 1.0 - 2.0 / r
        expected = np.diag([-f2, 1.0 / f2, r * r, r * r * math.sin(theta) ** 2])
        assert_allclose(g, expected, rtol=1e-15)

    def test_block_consistency_with_metric_eval(self):
        """Chart contraction agrees with metric_eval on flattened vectors."""
        for name in ("grw_exponential", "kasner_vacuum", "schwarzschild_exterior",
                     "generalized_reissner_nordstrom_demo"):
            entry = by_name(name)
            spec = entry.spec
            chart = assemble_chart(spec)
            rng = np.random.default_rng(5)
            for _ in range(10):
                p = entry.random_point(rng)
                g = np.array(chart.metric_at(list(p.flat(spec))), dtype=float)
                x = split(rng.standard_normal(spec.dim), spec)
                y = split(rng.standard_normal(spec.dim), spec)
                direct = metric_eval(spec, p, x, y)
                via_chart = np.array(flatten(x)) @ g @ np.array(flatten(y))
                assert direct == pytest.approx(via_chart, rel=1e-12, abs=1e-12)

    def test_lorentzian_signature(self):
        """Exactly one negative eigenvalue at sampled points of every model."""
        from warpcurv import catalog
        rng = np.random.default_rng(6)
        for entry in catalog():
            chart = assemble_chart(entry.spec)
            for _ in range(5):
                p = entry.random_point(rng)
                g = np.array(chart.metric_at(list(p.flat(entry.spec))), dtype=float)
                eigs = np.linalg.eigvalsh(g)
                assert int(np.sum(eigs < 0)) == 1, entry.name


# ---------------------------------------------------------------------------
# flatten / split
# ---------------------------------------------------------------------------

class TestFlattenSplit:
    def test_round_trip_random(self):
        spec = mgrw_spec(Interval(0.0, math.inf),
                         [WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                          WarpingFunction.from_form("power", {"c": 1, "q": 2})],
                         [sphere_fiber(2, 1.0), euclidean_fiber(1, ("w",))])
        rng = np.random.default_rng(7)
        for _ in range(100):
            comps = tuple(rng.standard_normal(4))
            assert flatten(split(comps, spec)) == comps

    def test_single_fiber_layout(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        v = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        assert flatten(v) == (-1.0, 1.0, 0.0, 0.0)

    def test_two_fiber_layout(self):
        spec = mgrw_spec(Interval(0.0, math.inf),
                         [WarpingFunction.constant(), WarpingFunction.constant()],
                         [euclidean_fiber(1, ("x",)), euclidean_fiber(2)])
        v = TangentVector(0.4, ((1.0,), (0.0, 2.0)))
        assert flatten(v) == (0.4, 1.0, 0.0, 2.0)
        assert split((0.4, 1.0, 0.0, 2.0), spec) == v

    def test_length_mismatch(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        with pytest.raises(ShapeError):
            split((1.0, 2.0), spec)

    def test_point_from_flat(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        p = point_from_flat(spec, (0.5, 1.0, 2.0, 3.0))
        assert p.t == 0.5 and p.fiber_coords == ((1.0, 2.0, 3.0),)


# ---------------------------------------------------------------------------
# null planes
# ---------------------------------------------------------------------------

class TestNullPlane:
    def test_minkowski_plane(self):
        spec = make_grw("poly", {"coeffs": [1.0]})
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        L = TangentVector(-1.0, ((1.0, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        plane = NullPlane.build(spec, p, L, S)
        plane.validate()
        assert plane.discriminant == pytest.approx(0.0, abs=1e-15)

    def test_invariants_rejected(self):
        from warpcurv import PlaneError
        spec = make_grw("poly", {"coeffs": [1.0]})
        p = Point(0.0, ((0.0, 0.0, 0.0),))
        timelike = TangentVector(-1.0, ((0.5, 0.0, 0.0),))
        S = TangentVector(0.0, ((0.0, 1.0, 0.0),))
        with pytest.raises(PlaneError):
            NullPlane.build(spec, p, timelike, S).validate()


# ---------------------------------------------------------------------------
# fiber validation
# ---------------------------------------------------------------------------

class TestFiberSpec:
    def test_spd_check(self):
        f = sphere_fiber(2, 1.0)
        f.check_spd((1.1, 0.3))

    def test_curvature_tags_verified_by_oracle(self):
        sphere_fiber(3, 2.0).check_curvature_tag([(1.2, 1.0, 0.5), (0.9, 1.3, 2.0)])
        hyperbolic_fiber(3, 1.0).check_curvature_tag([(0.8, 1.1, 0.4)])
        euclidean_fiber(3).check_curvature_tag([(0.1, 0.2, 0.3)])

    def test_wrong_tag_caught(self):
        """A sphere chart mislabeled with the wrong radius fails validation."""
        good = sphere_fiber(2, 2.0)
        bad = type(good)(dim=2, metric=good.metric, curvature_tag="sphere",
                         model="sphere", radius=1.0, coord_names=("theta", "phi"),
                         sample_coords=(1.1, 0.4))
        with pytest.raises(ValidationError):
            bad.check_curvature_tag([(1.1, 0.4)])

    def test_structure_validation(self):
        for name in ("minkowski", "kasner_vacuum", "einstein_static"):
            by_name(name).spec.validate_structure()

    @pytest.mark.parametrize("make", [sphere_fiber, hyperbolic_fiber])
    def test_negative_radius_refused(self, make):
        with pytest.raises(ValidationError, match="radius must not be negative"):
            make(2, -2.0)
        assert make(2, 2.0).constant_curvature == make(2, 2).constant_curvature

    def test_library_specs_validated_on_construction(self):
        """A spec built in code gets the checks a spec file gets."""
        with pytest.raises(ValidationError, match=(
                r"fiber metric not positive definite at \(1\.1, 0\.4\)")):
            grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(1.0),
                     sphere_fiber(2, 0.0))
        with pytest.raises(ValidationError, match="warping must be positive"):
            grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(-1.0),
                     euclidean_fiber(3))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_round_trip_all_models(self):
        from warpcurv import catalog
        for entry in catalog():
            text = spec_to_json(entry.spec)
            clone = spec_from_json(text)
            assert spec_to_json(clone) == text, entry.name

    def test_numeric_parameters_bit_identical(self):
        spec = kasner_spec(Interval(0.0, math.inf),
                           WarpingFunction.from_form("power", {"c": 1, "q": 1}),
                           (2 / 3, 2 / 3, -1 / 3),
                           [euclidean_fiber(1, ("x",)), euclidean_fiber(1, ("y",)),
                            euclidean_fiber(1, ("z",))])
        doc = json.loads(spec_to_json(spec))
        assert doc["kasner_exponents"] == [2 / 3, 2 / 3, -1 / 3]

    def test_custom_fiber_not_expressible(self):
        from warpcurv import FiberSpec
        custom = FiberSpec(dim=2, metric=lambda c: [[1.0, 0.0], [0.0, 1.0]])
        spec = grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(), custom)
        with pytest.raises(ValidationError):
            spec_to_json(spec)

    def test_kind_constraints(self):
        with pytest.raises(ValidationError):
            ManifoldSpec(kind="GRW", base=Interval(0, 1),
                         warpings=(WarpingFunction.constant(),) * 2,
                         fibers=(euclidean_fiber(1), euclidean_fiber(1)))
        with pytest.raises(ValidationError):
            ManifoldSpec(kind="Kasner", base=Interval(0, 1),
                         warpings=(WarpingFunction.constant(),),
                         fibers=(euclidean_fiber(1),))
