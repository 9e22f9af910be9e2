"""Hyper-dual numbers: exact first and second derivatives in one evaluation.

A hyper-dual number ``a + b e1 + c e2 + d e1e2`` carries two nilpotent
units (``e1**2 == e2**2 == 0``) whose product survives.  Evaluating
``f(x + e1 + e2)`` yields ``f(x)``, ``f'(x)`` twice, and ``f''(x)`` in the
``e1e2`` slot; seeding ``e1``/``e2`` along different coordinates of a
multivariate function yields the mixed partial instead.  There is no step
size and hence no truncation error: derivatives are exact to roundoff.

A :class:`Jet` carries the same data for many points and all coordinate
directions at once: value ``(N,)``, gradient ``(N, n)`` and Hessian
``(N, n, n)``, the multi-directional second-order forward mode of
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13.  One
evaluation of ``f`` on the coordinate jets of :func:`seed` replaces the
n(n+1)/2 hyper-dual evaluations per point; :func:`jet` is the one seeding
helper for scalar functions.

Metric evaluators in this package are written against the generic math
helpers at the bottom of this module (``sin``, ``cosh``, ...) so the same
code runs on floats, :class:`HyperDual` and :class:`Jet` coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "HyperDual",
    "Jet",
    "seed",
    "jet",
    "mirror_upper",
    "value",
    "scalar_derivatives",
    "partials",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "tanh",
    "power",
]


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
        raise TypeError("refusing to silently truncate a HyperDual; "
                        "use hyperdual.value()")


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


def value(x):
    """Real part of a float or HyperDual."""
    return _real(x)


def scalar_derivatives(f, t):
    """Return (f(t), f'(t), f''(t)) for a scalar function of one variable."""
    y = f(HyperDual(t, 1.0, 1.0, 0.0))
    if isinstance(y, HyperDual):
        return y.re, y.e1, y.e12
    return float(y), 0.0, 0.0


def partials(f, x, i, j):
    """Return (f, d_i f, d_j f, d_i d_j f) for f of a coordinate sequence."""
    val, grad, hess = jet(f, x)
    return val, float(grad[i]), float(grad[j]), float(hess[i, j])


# -- batched jets -------------------------------------------------------------

class Jet:
    """Second-order jets of one scalar at N points in n coordinates.

    ``val`` is ``(N,)``, ``grad`` ``(N, n)`` and ``hess`` ``(N, n, n)``.
    Each operation applies, slot by slot, the formula :class:`HyperDual`
    applies: ``grad[:, k]`` evolves like ``e1`` seeded along k and
    ``hess[:, k, l]`` like ``e12`` seeded along (k, l).  Elementary
    functions run their scalar rule point by point through :mod:`math`,
    so values, derivatives and exceptions match the scalar path exactly.
    Operations never write into their operands, which may share arrays.
    """

    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad,
                       self.hess + other.hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self.val[:, None], other.val[:, None]
            ga, gb = self.grad, other.grad
            return Jet(
                self.val * other.val,
                a * gb + ga * b,
                a[:, :, None] * other.hess + self.hess * b[:, :, None]
                + ga[:, :, None] * gb[:, None, :]
                + gb[:, :, None] * ga[:, None, :],
            )
        return Jet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        if np.any(self.val == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        inv = 1.0 / self.val
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            return exp(log(self) * exponent)
        q = float(exponent)
        if q == 0.0:
            return Jet(np.ones_like(self.val), np.zeros_like(self.grad),
                       np.zeros_like(self.hess))
        return self._lift(lambda a: _power_rule(a, q))

    def __rpow__(self, base):
        return exp(self * math.log(base))

    def __float__(self):
        raise TypeError("refusing to silently truncate a Jet; read .val")

    # -- chain rule --------------------------------------------------------

    def _chain(self, f, df, d2f):
        """Lift through a function with values f, f', f'' at each point."""
        curv = d2f[:, None] * self.grad
        return Jet(f, df[:, None] * self.grad,
                   df[:, None, None] * self.hess
                   + curv[:, :, None] * self.grad[:, None, :])

    def _lift(self, rule):
        """Apply a scalar rule a -> (f, f', f'') at every point."""
        table = np.array([rule(a) for a in self.val.tolist()],
                         dtype=float).reshape(-1, 3)
        return self._chain(table[:, 0], table[:, 1], table[:, 2])


def seed(points) -> list[Jet]:
    """The n coordinate jets of a batch of points ``(N, n)``: the k-th has
    value x_k, unit gradient along k and zero Hessian."""
    x = np.asarray(points, dtype=float)
    count, n = x.shape
    eye = np.eye(n)
    zero = np.zeros((count, n, n))
    return [Jet(x[:, k].copy(), np.broadcast_to(eye[k], (count, n)), zero)
            for k in range(n)]


def jet(fn, x):
    """Return (f, grad f, Hessian f) of a scalar function of n coordinates.

    ``fn`` takes a sequence of n coordinates; ``x`` is one point ``(n,)``,
    giving a float, ``(n,)`` and ``(n, n)``, or a batch ``(N, n)``, giving
    ``(N,)``, ``(N, n)`` and ``(N, n, n)``.  The Hessian's upper triangle
    is mirrored into the lower one, so it is exactly symmetric.
    """
    pts = np.asarray(x, dtype=float)
    batch = pts.reshape(-1, pts.shape[-1])
    count, n = batch.shape
    y = fn(seed(batch))
    if isinstance(y, Jet):
        val = np.array(y.val)
        grad = np.array(np.broadcast_to(y.grad, (count, n)))
        hess = np.array(np.broadcast_to(y.hess, (count, n, n)))
        mirror_upper(hess)
    else:
        val = np.full(count, float(y))
        grad = np.zeros((count, n))
        hess = np.zeros((count, n, n))
    if pts.ndim == 1:
        return float(val[0]), grad[0], hess[0]
    return val, grad, hess


def mirror_upper(a) -> None:
    """Copy the upper triangle of the last two axes of ``a`` onto the lower."""
    i, j = np.triu_indices(a.shape[-1], 1)
    a[..., j, i] = a[..., i, j]


# -- generic math helpers (float, HyperDual or Jet argument) -----------------
#
# Each rule maps a float a to (f(a), f'(a), f''(a)); HyperDual and Jet both
# lift through the same rule, so the two paths agree bit for bit and raise
# the same exceptions.

def _apply(x, rule, plain):
    if isinstance(x, HyperDual):
        return _chain(x, *rule(x.re))
    if isinstance(x, Jet):
        return x._lift(rule)
    return plain(x)


def _sin_rule(a):
    s, c = math.sin(a), math.cos(a)
    return s, c, -s


def _cos_rule(a):
    s, c = math.sin(a), math.cos(a)
    return c, -s, -c


def _exp_rule(a):
    e = math.exp(a)
    return e, e, e


def _log_rule(a):
    return math.log(a), 1.0 / a, -1.0 / (a * a)


def _sqrt_rule(a):
    r = math.sqrt(a)
    return r, 0.5 / r, -0.25 / (r * a)


def _sinh_rule(a):
    s, c = math.sinh(a), math.cosh(a)
    return s, c, s


def _cosh_rule(a):
    s, c = math.sinh(a), math.cosh(a)
    return c, s, c


def _real_power_domain(a, q) -> None:
    """a**q is complex for a negative base and a non-integer exponent."""
    if a < 0.0 and not float(q).is_integer():
        raise DomainError(
            f"power of negative base {a!r} to non-integer exponent {q!r}")


def _power_rule(a, q):
    if a == 0.0 and q < 2.0:
        raise ZeroDivisionError("power at zero base")
    _real_power_domain(a, q)
    return a ** q, q * a ** (q - 1.0), q * (q - 1.0) * a ** (q - 2.0)


def sin(x):
    return _apply(x, _sin_rule, math.sin)


def cos(x):
    return _apply(x, _cos_rule, math.cos)


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    return _apply(x, _exp_rule, math.exp)


def log(x):
    return _apply(x, _log_rule, math.log)


def sqrt(x):
    return _apply(x, _sqrt_rule, math.sqrt)


def sinh(x):
    return _apply(x, _sinh_rule, math.sinh)


def cosh(x):
    return _apply(x, _cosh_rule, math.cosh)


def tanh(x):
    return sinh(x) / cosh(x)


def power(x, q):
    """x**q for float, HyperDual or Jet x and real exponent q."""
    if isinstance(x, (HyperDual, Jet)):
        return x ** q
    a = float(x)
    _real_power_domain(a, q)
    return a ** q
