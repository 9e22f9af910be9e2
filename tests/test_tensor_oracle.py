"""Chart oracle: Christoffel symbols, curvature tensors, scalar calculus,
identity residuals, and the one sign-calibration test that pins the global
curvature convention."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from warpcurv import (CoordinateChart, DegenerateMetricError, Interval,
                      PlaneError, ShapeError, ValidationError,
                      WarpingFunction, assemble_chart, by_name, catalog,
                      curvature_residuals, euclidean_fiber, grw_spec,
                      null_sectional_oracle, riemann_apply, riemann_oracle,
                      riemann_oracle_batch, sectional_curvature_oracle)
from warpcurv import hyperdual as hd
from warpcurv.hyperdual import jet
from warpcurv.tensor_oracle import (chart_hessian, null_sectional_batch,
                                    null_sectional_from_tensors)

MINKOWSKI = CoordinateChart(
    dim=4, metric_at=lambda c: [[-1.0, 0, 0, 0], [0, 1.0, 0, 0],
                                [0, 0, 1.0, 0], [0, 0, 0, 1.0]],
    name="minkowski")

SPHERE2 = CoordinateChart(
    dim=2, metric_at=lambda c: [[1.0, 0.0], [0.0, hd.sin(c[0]) ** 2]],
    name="unit_sphere")


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_minkowski_vanishes(self):
        gamma = riemann_oracle(MINKOWSKI, [0.0, 1.0, 2.0, 3.0]).gamma
        assert_allclose(gamma, 0.0, atol=1e-15)

    @pytest.mark.parametrize("theta", [math.pi / 2, 0.7, 2.2])
    def test_sphere_closed_forms(self, theta):
        """Unit 2-sphere: Gamma^theta_phiphi = -sin cos, Gamma^phi_thetaphi = cot."""
        gamma = riemann_oracle(SPHERE2, [theta, 0.4]).gamma
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(theta) * math.cos(theta),
                                               abs=1e-13)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(theta), abs=1e-13)

    def test_equator_values_vanish(self):
        gamma = riemann_oracle(SPHERE2, [math.pi / 2, 0.4]).gamma
        assert gamma[0, 1, 1] == pytest.approx(0.0, abs=1e-15)
        assert gamma[1, 0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_grw_linear_warping(self):
        """diag(-1, t^2): Gamma^x_tx = b'/b = 1/t."""
        chart = CoordinateChart(
            dim=2, metric_at=lambda c: [[-1.0, 0.0], [0.0, c[0] * c[0]]])
        t = 1.7
        gamma = riemann_oracle(chart, [t, 0.3]).gamma
        assert gamma[1, 0, 1] == pytest.approx(1.0 / t, rel=1e-14)
        assert gamma[0, 1, 1] == pytest.approx(t, rel=1e-14)

    def test_singular_metric_raises(self):
        chart = CoordinateChart(dim=2, metric_at=lambda c: [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateMetricError):
            riemann_oracle(chart, [0.0, 0.0])

    def test_dimension_guard(self):
        with pytest.raises(ShapeError):
            CoordinateChart(dim=9, metric_at=lambda c: c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_named(self, bad):
        """A NaN or infinite coordinate is refused by name before the
        metric is evaluated, one point or a batch alike."""
        chart = assemble_chart(by_name("minkowski").spec)
        x = [0.0, 1.0, bad, 3.0]
        want = f"coordinate 2 is not finite: {bad}"
        with pytest.raises(ValidationError, match=want):
            riemann_oracle(chart, x)
        with pytest.raises(ValidationError, match=want):
            riemann_oracle_batch(chart, [[0.0, 1.0, 2.0, 3.0], x])


# ---------------------------------------------------------------------------
# Riemann / Ricci
# ---------------------------------------------------------------------------

class TestRiemann:
    def test_minkowski_vanishes(self):
        t = riemann_oracle(MINKOWSKI, [0.0, 1.0, 2.0, 3.0])
        assert_allclose(t.riemann, 0.0, atol=1e-15)
        assert_allclose(t.ricci, 0.0, atol=1e-15)

    def test_sphere_sectional_is_one(self):
        k = sectional_curvature_oracle(SPHERE2, [1.1, 0.4], [1.0, 0.0], [0.0, 1.0])
        assert k == pytest.approx(1.0, rel=1e-12)

    def test_kasner_vacuum_ricci(self):
        """Exact vacuum exponents: the oracle must see Ric = 0."""
        spec = by_name("kasner_vacuum").spec
        chart = assemble_chart(spec)
        for t in (0.5, 1.0, 2.0):
            tensors = riemann_oracle(chart, [t, 0.1, 0.2, 0.3])
            assert np.max(np.abs(tensors.ricci)) < 1e-8

    def test_static_unit_potential_time_components_vanish(self):
        """Constant potential: every curvature component with a time index
        vanishes (the metric is a pure product)."""
        spec = by_name("einstein_static").spec
        chart = assemble_chart(spec)
        tensors = riemann_oracle(chart, [0.3, 1.2, 1.0, 0.5])
        r = tensors.riemann
        assert np.max(np.abs(r[0])) < 1e-12
        assert np.max(np.abs(r[:, 0])) < 1e-12
        assert np.max(np.abs(r[:, :, 0])) < 1e-12
        assert np.max(np.abs(r[:, :, :, 0])) < 1e-12

    def test_sign_calibration_against_warped_closed_form(self):
        """R(V, d_t) d_t = -(b''/b) V pins the global curvature sign."""
        b = WarpingFunction.from_form("power", {"c": 1.0, "q": 2.0})
        spec = grw_spec(Interval(0.0, math.inf), b, euclidean_fiber(1, ("x",)))
        chart = assemble_chart(spec)
        t = 1.3
        tensors = riemann_oracle(chart, [t, 0.2])
        v = [0.0, 1.0]
        dt = [1.0, 0.0]
        got = riemann_apply(tensors, v, dt, dt)
        bb, _, ddb = jet(lambda c: b(c[0]), [t])
        ddb = ddb[0, 0]
        assert_allclose(got, [0.0, -ddb / bb], rtol=1e-12, atol=1e-12)


class TestIdentityResiduals:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_residuals_on_random_points(self, entry):
        """Antisymmetries, pair symmetry, first Bianchi, Ricci symmetry and
        metric compatibility, 50 random points per model."""
        chart = assemble_chart(entry.spec)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            p = entry.random_point(rng)
            res = curvature_residuals(riemann_oracle(chart, list(p.flat(entry.spec))))
            worst = max(worst, max(res.values()))
        assert worst <= 1e-9, (entry.name, worst)


# ---------------------------------------------------------------------------
# null sectional curvature through the oracle
# ---------------------------------------------------------------------------

class TestNullSectionalOracle:
    def test_minkowski_zero(self):
        k = null_sectional_oracle(MINKOWSKI, [0.0, 0.0, 0.0, 0.0],
                                  [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        assert k == pytest.approx(0.0, abs=1e-15)

    def test_exponential_warping_decay(self):
        """b = e^t over a unit 3-sphere: base-free planes give e^(-2t)."""
        spec = by_name("grw_exponential").spec
        chart = assemble_chart(spec)
        for t in (0.0, 0.5, 1.2):
            b = math.exp(t)
            chi = 1.2
            L = [-1.0, 1.0 / b, 0.0, 0.0]
            S = [0.0, 0.0, 1.0 / math.sin(chi), 0.0]
            k = null_sectional_oracle(chart, [t, chi, 1.0, 0.5], L, S)
            assert k == pytest.approx(math.exp(-2.0 * t), rel=1e-12)

    def test_einstein_static_unit_value(self):
        spec = by_name("einstein_static").spec
        chart = assemble_chart(spec)
        chi = 1.2
        k = null_sectional_oracle(chart, [0.0, chi, 1.0, 0.5],
                                  [-1.0, 1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0 / math.sin(chi), 0.0])
        assert k == pytest.approx(1.0, rel=1e-12)

    def test_invalid_planes_rejected(self):
        with pytest.raises(PlaneError):
            null_sectional_oracle(MINKOWSKI, [0.0] * 4,
                                  [-1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(PlaneError):
            null_sectional_oracle(MINKOWSKI, [0.0] * 4,
                                  [-1.0, 1.0, 0.0, 0.0], [-2.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_plane_rejected(self, bad):
        """NaN compares false against every plane tolerance; the check
        names the non-finite inner products instead of returning NaN."""
        x = [0.0, 0.0, 0.0, 0.0]
        L, S = [bad, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
        tensors = riemann_oracle(MINKOWSKI, x)
        good_L = [-1.0, 1.0, 0.0, 0.0]
        calls = [
            lambda: null_sectional_from_tensors(tensors, L, S),
            lambda: null_sectional_batch([tensors] * 2, [good_L, L], [S, S]),
            lambda: null_sectional_oracle(MINKOWSKI, x, L, S),
            lambda: null_sectional_oracle(MINKOWSKI, x, S, L),
        ]
        for call in calls:
            with pytest.raises(PlaneError, match="non-finite plane data: "
                               r"g\(L,L\) = .*g\(S,S\) = .*g\(L,S\) = "):
                call()

    def test_plane_checks_keep_their_order(self):
        """S spacelike is checked before L null, and L null before the
        plane's degeneracy; in a batch the first failing sample raises."""
        tensors = riemann_oracle(MINKOWSKI, [0.0] * 4)
        L, S = [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
        for bad_L, bad_S, want in [
                ([-1.0, 0.5, 0.0, 0.0], [-2.0, 0.0, 1.0, 0.0],
                 "S is not spacelike: g(S,S) = -3.000e+00"),
                ([-1.0, 0.5, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0],
                 "L is not null: g(L,L) = -7.500e-01"),
                (L, [0.0, 1.0, 1.0, 0.0],
                 "plane not degenerate: g(L,S) = 1.000e+00")]:
            with pytest.raises(PlaneError) as one:
                null_sectional_from_tensors(tensors, bad_L, bad_S)
            assert str(one.value) == want
            with pytest.raises(PlaneError) as batch:
                null_sectional_batch([tensors] * 4, [L, bad_L, L, L],
                                     [S, bad_S, [0.0, 0.0, 0.0, 1.0], S])
            assert str(batch.value) == want

    def test_gauge_freedom_in_spacelike_leg(self):
        """S -> S + alpha L leaves the oracle value unchanged."""
        spec = by_name("grw_exponential").spec
        chart = assemble_chart(spec)
        x = [0.4, 1.2, 1.0, 0.5]
        b = math.exp(0.4)
        L = np.array([-1.0, 1.0 / b, 0.0, 0.0])
        S = np.array([0.0, 0.0, 1.0 / math.sin(1.2), 0.0])
        k0 = null_sectional_oracle(chart, x, L, S)
        for alpha in (-3.0, 0.7, 10.0):
            k = null_sectional_oracle(chart, x, L, S + alpha * L)
            assert k == pytest.approx(k0, rel=1e-11, abs=1e-11)

    def test_quadratic_scaling_in_null_leg(self):
        spec = by_name("grw_exponential").spec
        chart = assemble_chart(spec)
        x = [0.4, 1.2, 1.0, 0.5]
        b = math.exp(0.4)
        L = np.array([-1.0, 1.0 / b, 0.0, 0.0])
        S = np.array([0.0, 0.0, 1.0 / math.sin(1.2), 0.0])
        k0 = null_sectional_oracle(chart, x, L, S)
        for c in (2.0, -1.5, 0.25):
            k = null_sectional_oracle(chart, x, c * L, S)
            assert k == pytest.approx(c * c * k0, rel=1e-10)


# ---------------------------------------------------------------------------
# scalar-field calculus
# ---------------------------------------------------------------------------

class TestScalarCalculus:
    """The covariant Hessian and its trace come from ``chart_hessian`` on
    the oracle's tensors and the scalar's jet, as the chart-base warp
    bundles do; the gradient raises the jet's partials with the oracle's
    inverse metric."""

    def test_constant_scalar(self):
        x, phi = [1.1, 0.4], lambda c: 2.5
        tensors = riemann_oracle(SPHERE2, x)
        _, dphi, ddphi = jet(phi, x)
        h, lap = chart_hessian(tensors, dphi, ddphi)
        assert_allclose(h, 0.0, atol=1e-15)
        assert_allclose(tensors.metric_inv @ dphi, 0.0, atol=1e-15)
        assert lap == 0.0

    def test_flat_line_second_derivative(self):
        line = CoordinateChart(dim=1, metric_at=lambda c: [[1.0]])
        x = [0.7]
        h, _ = chart_hessian(riemann_oracle(line, x),
                             *jet(lambda c: c[0] ** 2, x)[1:])
        assert h[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_lorentzian_line_trace(self):
        """On a (-dt^2) line the Laplacian of t^2 is -2 (index raise)."""
        line = CoordinateChart(dim=1, metric_at=lambda c: [[-1.0]])
        x = [0.7]
        _, lap = chart_hessian(riemann_oracle(line, x),
                               *jet(lambda c: c[0] ** 2, x)[1:])
        assert lap == pytest.approx(-2.0, rel=1e-14)

    def test_schwarzschild_potential_is_harmonic(self):
        """The exterior potential satisfies lap_F f = 0 (static vacuum)."""
        fiber = by_name("schwarzschild_exterior").spec.fibers[0]
        pot = by_name("schwarzschild_exterior").spec.potential
        chart = fiber.chart()
        for r in (2.5, 4.0, 7.0):
            x = [r, 1.2, 0.4]
            _, lap = chart_hessian(riemann_oracle(chart, x),
                                   *jet(pot.fn, x)[1:])
            assert abs(lap) < 1e-12, r

    def test_hyperbolic_cosh_hessian_identity(self):
        """On unit hyperbolic space, H(cosh rho) = cosh rho * g."""
        fiber = by_name("anti_de_sitter_cover").spec.fibers[0]
        chart = fiber.chart()
        x = [0.8, 1.1, 0.4]
        h, _ = chart_hessian(riemann_oracle(chart, x),
                             *jet(lambda c: hd.cosh(c[0]), x)[1:])
        g = fiber.metric_matrix(x)
        assert_allclose(h, math.cosh(0.8) * g, rtol=1e-11, atol=1e-12)

    def test_gradient_index_raise(self):
        x = [1.1, 0.4]
        grad = riemann_oracle(SPHERE2, x).metric_inv @ jet(lambda c: c[1], x)[1]
        assert grad[1] == pytest.approx(1.0 / math.sin(1.1) ** 2, rel=1e-13)
