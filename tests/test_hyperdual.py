"""Hyper-dual arithmetic: exact derivatives checked against central
finite differences (the independent oracle for the oracle's derivatives)
and against hand closed forms."""

import math

import numpy as np
import pytest

from warpcurv import hyperdual as hd
from warpcurv.errors import DomainError


def fd2(f, t, h=1e-5):
    """Central finite differences for f' and f''."""
    d1 = (f(t + h) - f(t - h)) / (2 * h)
    d2 = (f(t + h) - 2 * f(t) + f(t - h)) / (h * h)
    return d1, d2


CASES = [
    (lambda x: hd.sin(x) * hd.cos(2.0 * x), 0.7),
    (lambda x: hd.exp(-0.5 * x) + x ** 3, 1.3),
    (lambda x: hd.sqrt(1.0 + x * x), 0.4),
    (lambda x: hd.cosh(x) / (1.0 + hd.sinh(x) ** 2), 0.9),
    (lambda x: hd.log(2.0 + x) * x, 2.2),
    (lambda x: (1.0 + x) ** -1.5, 0.6),
    (lambda x: hd.tanh(x) + hd.tan(0.3 * x), 0.5),
    (lambda x: 2.0 ** x, 1.1),
]


class TestScalarDerivatives:
    @pytest.mark.parametrize("fn,t", CASES)
    def test_matches_finite_differences(self, fn, t):
        val, d1, d2 = hd.scalar_derivatives(fn, t)
        assert val == pytest.approx(hd.value(fn(t)))
        f1, f2 = fd2(lambda s: hd.value(fn(s)), t)
        assert d1 == pytest.approx(f1, rel=1e-8, abs=1e-8)
        assert d2 == pytest.approx(f2, rel=1e-4, abs=1e-4)

    def test_closed_form_exp(self):
        """d/dt of c e^(kt) is exact to roundoff, no step-size error."""
        val, d1, d2 = hd.scalar_derivatives(lambda t: 3.0 * hd.exp(2.0 * t), 0.25)
        e = 3.0 * math.exp(0.5)
        assert val == pytest.approx(e, rel=1e-15)
        assert d1 == pytest.approx(2.0 * e, rel=1e-15)
        assert d2 == pytest.approx(4.0 * e, rel=1e-15)

    def test_power_at_fractional_exponent(self):
        val, d1, d2 = hd.scalar_derivatives(lambda t: t ** (2.0 / 3.0), 2.0)
        assert d1 == pytest.approx((2.0 / 3.0) * 2.0 ** (-1.0 / 3.0), rel=1e-14)
        assert d2 == pytest.approx((2.0 / 3.0) * (-1.0 / 3.0) * 2.0 ** (-4.0 / 3.0),
                                   rel=1e-14)

    def test_constant_has_zero_derivatives(self):
        assert hd.scalar_derivatives(lambda t: 4.5, 1.0) == (4.5, 0.0, 0.0)


class TestMixedPartials:
    def test_mixed_partial(self):
        """f(x,y) = x^2 y^3: d2f/dxdy = 6 x y^2."""
        f = lambda c: c[0] ** 2 * c[1] ** 3
        val, dx, dy, dxy = hd.partials(f, (1.5, 0.8), 0, 1)
        assert dx == pytest.approx(2 * 1.5 * 0.8 ** 3, rel=1e-14)
        assert dy == pytest.approx(3 * 1.5 ** 2 * 0.8 ** 2, rel=1e-14)
        assert dxy == pytest.approx(6 * 1.5 * 0.8 ** 2, rel=1e-14)

    def test_repeated_index_gives_second_derivative(self):
        f = lambda c: hd.sin(c[0])
        _, _, _, dxx = hd.partials(f, (0.6,), 0, 0)
        assert dxx == pytest.approx(-math.sin(0.6), rel=1e-14)


class TestRingOps:
    def test_division_inverse(self):
        x = hd.HyperDual(2.0, 1.0, 1.0, 0.0)
        y = (x * x) / x
        assert (y.re, y.e1, y.e2, y.e12) == pytest.approx((2.0, 1.0, 1.0, 0.0))

    def test_rsub_rdiv(self):
        x = hd.HyperDual(4.0, 1.0, 1.0, 0.0)
        y = 1.0 / x          # f = 1/t, f' = -1/16, f'' = 2/64
        assert y.e1 == pytest.approx(-1.0 / 16.0)
        assert y.e12 == pytest.approx(2.0 / 64.0)
        z = 3.0 - x
        assert (z.re, z.e1) == (-1.0, -1.0)

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            1.0 / hd.HyperDual(0.0, 1.0, 1.0, 0.0)

    def test_no_silent_truncation(self):
        with pytest.raises(TypeError):
            float(hd.HyperDual(1.0))

    def test_comparisons_use_real_part(self):
        assert hd.HyperDual(1.0, 5.0, 5.0, 5.0) < 2.0
        assert hd.HyperDual(3.0) >= 3.0

    def test_float_passthrough(self):
        assert hd.sin(0.3) == math.sin(0.3)
        assert hd.power(2.0, 3.0) == 8.0
        assert hd.value(1.25) == 1.25


class TestChainRuleDepth:
    def test_composite_warping_power_of_scale(self):
        """(phi(t))**p with phi = t: derivatives carry the full chain rule."""
        p = -1.0 / 3.0
        fn = lambda t: hd.power(t, 1.0) ** p
        val, d1, d2 = hd.scalar_derivatives(fn, 2.0)
        assert d1 == pytest.approx(p * 2.0 ** (p - 1), rel=1e-13)
        assert d2 == pytest.approx(p * (p - 1) * 2.0 ** (p - 2), rel=1e-13)

    def test_random_rational_functions(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            a, b, c = rng.uniform(0.5, 2.0, size=3)
            fn = lambda t: (a * t * t + b) / (c + hd.exp(-t))
            t0 = rng.uniform(0.2, 1.5)
            _, d1, d2 = hd.scalar_derivatives(fn, t0)
            f1, f2 = fd2(lambda s: hd.value(fn(s)), t0)
            assert d1 == pytest.approx(f1, rel=1e-7, abs=1e-7)
            assert d2 == pytest.approx(f2, rel=1e-3, abs=1e-3)


class TestPowerDomain:
    """A negative base with a non-integer exponent has no real power: every
    path raises DomainError instead of returning a complex number."""

    @pytest.mark.parametrize("evaluate", [
        lambda f, t: f(t),
        lambda f, t: hd.scalar_derivatives(f, t),
        lambda f, t: hd.jet(lambda c: f(c[0]), [[1.0], [t]]),
    ], ids=["float", "hyperdual", "jet"])
    @pytest.mark.parametrize("f", [
        lambda x: hd.power(x, 0.5),
        lambda x: hd.power(x, -1.5),
    ])
    def test_negative_base_fractional_exponent(self, evaluate, f):
        with pytest.raises(DomainError, match="negative base"):
            evaluate(f, -1.0)

    def test_operator_pow_on_duals(self):
        with pytest.raises(DomainError):
            hd.HyperDual(-2.0, 1.0, 1.0) ** 0.5

    def test_integer_exponent_keeps_negative_base(self):
        assert hd.power(-2.0, 3.0) == -8.0
        val, d1, d2 = hd.scalar_derivatives(lambda x: hd.power(x, 2.0), -3.0)
        assert (val, d1, d2) == (9.0, -6.0, 2.0)
