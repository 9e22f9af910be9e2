"""Case formulas for Riemann and Ricci: examples with hand-checked values on
the factors' directions, dispatch totality, symmetry and linearity
properties, and full oracle equivalence on every catalog model."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference_lifts import classify_triple
from warpcurv import (Interval, Point, TangentVector, WarpingFunction,
                      assemble_chart, by_name, catalog, euclidean_fiber,
                      flatten, generic_warped_spec, grw_spec, metric_eval,
                      mgrw_spec, ricci_general, riemann_apply,
                      riemann_general, riemann_oracle, split, sphere_fiber)
from warpcurv import CoordinateChart
from warpcurv import hyperdual as hd


def two_fiber_spec(q1=1.0, q2=1.0):
    return mgrw_spec(Interval(0.0, math.inf),
                     [WarpingFunction.from_form("power", {"c": 1.0, "q": q1}),
                      WarpingFunction.from_form("power", {"c": 1.0, "q": q2})],
                     [euclidean_fiber(1, ("x",)), euclidean_fiber(2)])


def base_dir(spec):
    """d_t, the unit base direction."""
    return TangentVector.base_direction(spec, 1.0)


def fiber_dir(spec, i, components):
    """The vector with ``components`` on fiber i and zero elsewhere."""
    return TangentVector.fiber_direction(spec, i, components)


# ---------------------------------------------------------------------------
# Riemann case formulas
# ---------------------------------------------------------------------------

class TestRiemannCases:
    def test_pure_product_keeps_only_fiber_curvature(self):
        """All warpings constant: the in-fiber case degenerates to R_F."""
        spec = grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(),
                        sphere_fiber(3, 1.0))
        p = Point(0.0, ((1.2, 1.0, 0.5),))
        v = fiber_dir(spec, 0, (1.0, 0.0, 0.0))
        w = fiber_dir(spec, 0, (0.0, 1.0, 0.0))
        out = riemann_general(spec, p, v, w, w)
        fib = spec.fibers[0]
        g = fib.metric_matrix(p.fiber_coords[0])
        # constant curvature +1: R(V,W)W = g(W,W) V for orthogonal V, W
        assert_allclose(out.fiber_parts[0], (g[1, 1], 0.0, 0.0), rtol=1e-13)

    def test_fiber_base_base_closed_form(self):
        """b = t^2: R(V, d_t) d_t = -(b''/b) V = -(2/t^2) V."""
        spec = grw_spec(Interval(0.0, math.inf),
                        WarpingFunction.from_form("power", {"c": 1, "q": 2}),
                        euclidean_fiber(1, ("x",)))
        t = 1.4
        p = Point(t, ((0.2,),))
        out = riemann_general(spec, p, fiber_dir(spec, 0, (1.0,)),
                              base_dir(spec), base_dir(spec))
        assert out.fiber_parts[0][0] == pytest.approx(-2.0 / (t * t), rel=1e-13)

    def test_cross_fiber_gradient_sign(self):
        """Two linear warpings: R(U,V)V = +g(V,V)/t^2 U; the minus from the
        time-index raise on both gradients cancels the printed minus."""
        spec = two_fiber_spec(q1=1.0, q2=1.0)
        t = 1.3
        p = Point(t, ((0.1,), (0.2, 0.3)))
        u = fiber_dir(spec, 0, (1.0,))
        v = fiber_dir(spec, 1, (1.0, 0.0))
        out = riemann_general(spec, p, u, v, v)
        g_vv = t * t  # warped inner product of v with itself
        assert out.fiber_parts[0][0] == pytest.approx(g_vv / (t * t), rel=1e-13)
        chart = assemble_chart(spec)
        tensors = riemann_oracle(chart, list(p.flat(spec)))
        expected = riemann_apply(tensors, flatten(TangentVector(0, ((1.0,), (0, 0)))),
                                 flatten(TangentVector(0, ((0.0,), (1.0, 0)))),
                                 flatten(TangentVector(0, ((0.0,), (1.0, 0)))))
        assert_allclose(flatten(out), expected, atol=1e-12)

    def test_three_distinct_fibers_vanish(self):
        spec = by_name("kasner_vacuum").spec
        p = Point(1.0, ((0.1,), (0.2,), (0.3,)))
        out = riemann_general(spec, p, fiber_dir(spec, 0, (1.0,)),
                              fiber_dir(spec, 1, (1.0,)),
                              fiber_dir(spec, 2, (1.0,)))
        assert flatten(out) == (0.0, 0.0, 0.0, 0.0)


class TestDispatchTotality:
    def test_every_origin_triple_maps_to_one_case(self):
        """All 27 origin patterns for two fibers classify and evaluate."""
        spec = two_fiber_spec(q1=1.0, q2=2.0)
        p = Point(1.2, ((0.1,), (0.2, 0.3)))
        lifts = {"base": base_dir(spec),
                 0: fiber_dir(spec, 0, (1.0,)),
                 1: fiber_dir(spec, 1, (0.5, 1.0))}
        seen = set()
        for oa, ob, oc in itertools.product(lifts, repeat=3):
            label = classify_triple(oa, ob, oc)
            assert isinstance(label, str) and label
            seen.add(label)
            out = riemann_general(spec, p, lifts[oa], lifts[ob], lifts[oc])
            assert len(flatten(out)) == spec.dim
        assert {"base_curvature", "fiber_base_base", "base_fiber_fiber",
                "in_fiber", "cross_fiber_gradient"} <= seen

    def test_zero_cases_really_vanish(self):
        spec = two_fiber_spec()
        p = Point(1.2, ((0.1,), (0.2, 0.3)))
        x, u, v = (base_dir(spec), fiber_dir(spec, 0, (1.0,)),
                   fiber_dir(spec, 1, (1.0, 0.0)))
        zero_patterns = [(x, x, u), (u, v, x), (u, u, v), (x, u, v)]
        for a, b, c in zero_patterns:
            assert flatten(riemann_general(spec, p, a, b, c)) == (0.0,) * spec.dim


class TestCurvatureProperties:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_oracle_equivalence_random_lifts(self, entry):
        """riemann applied to 100 random tangent-vector triples per model
        matches the chart oracle to relative 1e-8."""
        spec = entry.spec
        chart = assemble_chart(spec)
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = entry.random_point(rng)
            tensors = riemann_oracle(chart, list(p.flat(spec)))
            scale = max(1.0, float(np.max(np.abs(tensors.riemann))))
            for _ in range(10):
                vecs = [split(rng.standard_normal(spec.dim), spec)
                        for _ in range(3)]
                got = np.array(flatten(riemann_general(spec, p, *vecs)))
                expected = riemann_apply(tensors, *(flatten(v) for v in vecs))
                assert np.max(np.abs(got - expected)) <= 1e-8 * scale

    def test_antisymmetry_in_first_pair(self):
        spec = by_name("generalized_reissner_nordstrom_demo").spec
        p = Point(1.1, ((1.0, 0.4), (0.2,)))
        rng = np.random.default_rng(29)
        for _ in range(20):
            x, y, z, w = (split(rng.standard_normal(spec.dim), spec)
                          for _ in range(4))
            lhs = metric_eval(spec, p, riemann_general(spec, p, x, y, z), w)
            rhs = metric_eval(spec, p, riemann_general(spec, p, y, x, z), w)
            assert lhs == pytest.approx(-rhs, rel=1e-10, abs=1e-10)

    def test_linearity_in_each_slot(self):
        spec = by_name("grw_exponential").spec
        p = Point(0.4, ((1.2, 1.0, 0.5),))
        rng = np.random.default_rng(31)
        x, y, z, u = (split(rng.standard_normal(spec.dim), spec)
                      for _ in range(4))
        for slot in range(3):
            args1 = [x, y, z]
            args2 = [x, y, z]
            args_sum = [x, y, z]
            args2[slot] = u
            args_sum[slot] = args1[slot] + 2.0 * u
            lhs = np.array(flatten(riemann_general(spec, p, *args_sum)))
            rhs = (np.array(flatten(riemann_general(spec, p, *args1)))
                   + 2.0 * np.array(flatten(riemann_general(spec, p, *args2))))
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Ricci case formulas
# ---------------------------------------------------------------------------

class TestRicci:
    def test_base_fiber_cross_term_vanishes(self):
        spec = two_fiber_spec(q1=1.0, q2=2.0)
        p = Point(1.2, ((0.1,), (0.2, 0.3)))
        x, u, v = (base_dir(spec), fiber_dir(spec, 0, (1.0,)),
                   fiber_dir(spec, 1, (1.0, 0.0)))
        assert ricci_general(spec, p, x, u) == 0.0
        assert ricci_general(spec, p, u, v) == 0.0

    def test_flat_product_vanishes(self):
        spec = grw_spec(Interval(-1.0, 1.0), WarpingFunction.constant(),
                        euclidean_fiber(3))
        p = Point(0.0, ((0.1, 0.2, 0.3),))
        for a in (base_dir(spec), fiber_dir(spec, 0, (1.0, 0.0, 0.0))):
            for b in (base_dir(spec), fiber_dir(spec, 0, (0.0, 1.0, 0.0))):
                assert ricci_general(spec, p, a, b) == pytest.approx(
                    0.0, abs=1e-15)

    def test_kasner_vacuum_all_lifted_pairs(self):
        spec = by_name("kasner_vacuum").spec
        p = Point(1.0, ((0.1,), (0.2,), (0.3,)))
        lifts = [base_dir(spec)] + [fiber_dir(spec, i, (1.0,))
                                    for i in range(3)]
        for a in lifts:
            for b in lifts:
                assert abs(ricci_general(spec, p, a, b)) < 1e-8

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_matches_oracle_ricci(self, entry):
        """100 random tangent-vector pairs per model against the oracle
        Ricci."""
        spec = entry.spec
        chart = assemble_chart(spec)
        rng = np.random.default_rng(37)
        for _ in range(10):
            p = entry.random_point(rng)
            tensors = riemann_oracle(chart, list(p.flat(spec)))
            scale = max(1.0, float(np.max(np.abs(tensors.ricci))))
            for _ in range(10):
                x = split(rng.standard_normal(spec.dim), spec)
                y = split(rng.standard_normal(spec.dim), spec)
                got = ricci_general(spec, p, x, y)
                expected = float(np.array(flatten(x)) @ tensors.ricci
                                 @ np.array(flatten(y)))
                assert got == pytest.approx(expected, rel=1e-8,
                                            abs=1e-8 * scale)


# ---------------------------------------------------------------------------
# generic base charts
# ---------------------------------------------------------------------------

class TestGenericBase:
    def test_two_dimensional_lorentzian_base(self):
        """Warped product over a 2-dimensional curved Lorentzian base,
        checked against the oracle on the assembled 3-dimensional chart."""
        base = CoordinateChart(
            dim=2,
            metric_at=lambda c: [[-(1.0 + c[1] * c[1]), 0.0], [0.0, 1.0]],
            name="curved_line")
        spec = generic_warped_spec(base, [lambda c: hd.exp(0.5 * c[1])],
                                   [euclidean_fiber(1, ("z",))])
        p = Point((0.2, 0.4), ((0.1,),))
        chart = assemble_chart(spec)
        tensors = riemann_oracle(chart, list(p.flat(spec)))
        rng = np.random.default_rng(41)
        for _ in range(25):
            vecs = [split(rng.standard_normal(3), spec) for _ in range(3)]
            got = np.array(flatten(riemann_general(spec, p, *vecs)))
            expected = riemann_apply(tensors, *(flatten(v) for v in vecs))
            assert_allclose(got, expected, atol=1e-11)
            x = split(rng.standard_normal(3), spec)
            y = split(rng.standard_normal(3), spec)
            assert ricci_general(spec, p, x, y) == pytest.approx(
                float(np.array(flatten(x)) @ tensors.ricci @ np.array(flatten(y))),
                rel=1e-9, abs=1e-9)
