"""Hyper-dual numbers, kept as a test-only reference.

``warpcurv.hyperdual`` has one derivative type, the batched ``Jet``.  This
module keeps the scalar hyper-dual number it replaced, verbatim but for
``_lift``: ``tests/reference_oracle.py`` seeds ``HyperDual`` coordinates
along each pair of directions as the independent oracle for the batched
jets, and the jet tests check each jet slot against the hyper-dual slot it
stands for.

The generic math helpers of ``warpcurv.hyperdual`` send any argument that
is not a float through its ``_lift(rule)`` method, so the catalog metrics
run on these numbers unchanged.
"""

from __future__ import annotations

import math

from warpcurv.errors import DomainError
from warpcurv.hyperdual import exp, log


class HyperDual:
    """Second-order dual scalar ``re + e1*eps1 + e2*eps2 + e12*eps1*eps2``."""

    __slots__ = ("re", "e1", "e2", "e12")

    def __init__(self, re, e1=0.0, e2=0.0, e12=0.0):
        self.re = float(re)
        self.e1 = float(e1)
        self.e2 = float(e2)
        self.e12 = float(e12)

    def __repr__(self):
        return f"HyperDual({self.re}, {self.e1}, {self.e2}, {self.e12})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.re + other.re, self.e1 + other.e1,
                             self.e2 + other.e2, self.e12 + other.e12)
        return HyperDual(self.re + other, self.e1, self.e2, self.e12)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.re, -self.e1, -self.e2, -self.e12)

    def __sub__(self, other):
        return self + (-other if isinstance(other, HyperDual) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.re * other.re,
                self.re * other.e1 + self.e1 * other.re,
                self.re * other.e2 + self.e2 * other.re,
                self.re * other.e12 + self.e12 * other.re
                + self.e1 * other.e2 + self.e2 * other.e1,
            )
        return HyperDual(self.re * other, self.e1 * other,
                         self.e2 * other, self.e12 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        if self.re == 0.0:
            raise ZeroDivisionError("hyper-dual division by zero real part")
        inv = 1.0 / self.re
        return _chain(self, inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, exponent):
        if isinstance(exponent, HyperDual):
            # x**y = exp(y*log(x)); rare path, used by generic warpings
            return exp(log(self) * exponent)
        q = float(exponent)
        if q == 0.0:
            return HyperDual(1.0)
        return _chain(self, *_power_rule(self.re, q))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    # -- comparisons act on the real part ----------------------------------

    def __lt__(self, other):
        return self.re < _real(other)

    def __le__(self, other):
        return self.re <= _real(other)

    def __gt__(self, other):
        return self.re > _real(other)

    def __ge__(self, other):
        return self.re >= _real(other)

    def __float__(self):
        raise TypeError("refusing to silently truncate a HyperDual; read .re")

    # -- chain rule --------------------------------------------------------

    def _lift(self, rule):
        """Apply a scalar rule a -> (f, f', f''), the interface the generic
        math helpers of ``warpcurv.hyperdual`` dispatch on."""
        return _chain(self, *rule(self.re))


def _real(x):
    return x.re if isinstance(x, HyperDual) else float(x)


def _chain(x: HyperDual, f, df, d2f) -> HyperDual:
    """Lift f through x given f(a), f'(a), f''(a) at a = x.re."""
    return HyperDual(
        f,
        df * x.e1,
        df * x.e2,
        df * x.e12 + d2f * x.e1 * x.e2,
    )


def _power_rule(a, q):
    """a**q and its first two derivatives at a, with the domain checks of
    the power in ``warpcurv.hyperdual``."""
    if a == 0.0 and q < 2.0:
        raise ZeroDivisionError("power at zero base")
    if a < 0.0 and not float(q).is_integer():
        raise DomainError(
            f"power of negative base {a!r} to non-integer exponent {q!r}")
    return a ** q, q * a ** (q - 1.0), q * (q - 1.0) * a ** (q - 2.0)
