"""Closed-form multiply-warped-product geometry on decomposed vectors.

Covariant derivative, gradient, Laplacian, Riemann and Ricci curvature of
``B x_{b_1} F_1 x ... x_{b_m} F_m`` evaluated case-by-case on lifted
fields, without ever assembling the product chart.  The case formulas:

* ``nab_X Y = nab^B_X Y``
* ``nab_X V = nab_V X = (X(b_i)/b_i) V``
* ``nab_V W = 0`` for distinct fibers, else
  ``nab^F_V W - (g(V,W)/b_i) grad_B b_i``
* nine Riemann patterns (two base-ish, the mixed zeros, the cross-fiber
  gradient products, and the in-fiber case carrying ``R_F`` plus a
  ``|grad b|^2 / b^2`` correction), summed by multilinearity for general
  vectors
* four Ricci patterns

Structural orientation: for time-base kinds (MGRW / GRW / Kasner) the
warped-product base is the interval with metric -dt^2 and the fibers are
the spatial factors.  For a standard static spacetime the roles invert:
the base is the *spatial* Riemannian factor carrying the potential f, and
the single warped fiber is the time axis with metric -dt^2.  Lifted-field
origins in this module always refer to that structural decomposition;
:func:`to_structural` / :func:`from_structural` translate user-facing
:class:`~warpcurv.core_types.TangentVector` data.

On a one-dimensional base with metric ``s * dt^2`` (s = -1 for spacetimes)
every base-level object reduces to closed form in one place
(:class:`LineBase`): ``grad_B b = s b' d_t``, ``|grad_B b|^2 = s (b')^2``,
``H_B^b(d_t, d_t) = b''``, ``lap_B b = s b''``.  Getting these four signs
wrong flips every spacetime formula downstream, so they are decided here
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core_types import ManifoldSpec, Point, TangentVector
from .errors import CapabilityError, ShapeError, ValidationError
from .hyperdual import jet, scalar_derivatives, value
from .tensor_oracle import (CoordinateChart, riemann_apply, riemann_oracle)

__all__ = [
    "LiftedField",
    "base_lift",
    "fiber_lift",
    "WarpedGeometry",
    "geometry",
    "to_structural",
    "from_structural",
    "covariant_derivative",
    "gradient_lift",
    "laplacian_lift",
    "riemann_mwp",
    "ricci_mwp",
    "riemann_general",
    "ricci_general",
    "ricci_matrix",
    "classify_triple",
]


# ---------------------------------------------------------------------------
# lifted fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftedField:
    """A lift of a vector field living on exactly one product factor.

    ``origin`` is ``"base"`` or a fiber index.  ``components`` are the
    field's components at the evaluation point; ``component_fns`` (one
    callable per component, of the factor's coordinates) is needed only
    by :func:`covariant_derivative` when the differentiated field is not
    coordinate-constant.
    """

    origin: str | int
    components: tuple[float, ...]
    component_fns: tuple[Callable, ...] | None = None


def base_lift(*components: float, fns=None) -> LiftedField:
    return LiftedField("base", tuple(float(c) for c in components),
                       None if fns is None else tuple(fns))


def fiber_lift(i: int, components: Sequence[float], fns=None) -> LiftedField:
    return LiftedField(int(i), tuple(float(c) for c in components),
                       None if fns is None else tuple(fns))


# ---------------------------------------------------------------------------
# base operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpData:
    """One warping function's derivative bundle at a base point."""

    value: float
    dcomps: np.ndarray    # partial derivatives d_m b
    grad: np.ndarray      # contravariant gradient components
    hess: np.ndarray      # covariant Hessian H_B^b
    lap: float            # metric trace of the Hessian
    grad_sq: float        # g_B(grad b, grad b)


class LineBase:
    """One-dimensional base with metric s * dt^2 (s = -1 for spacetimes)."""

    dim = 1

    def __init__(self, sign: float = -1.0):
        self.sign = float(sign)

    def inner(self, x, y) -> float:
        return self.sign * x[0] * y[0]

    def warp_data(self, fn, base_point) -> WarpData:
        b, db, ddb = scalar_derivatives(fn, base_point[0])
        return WarpData(value=b,
                        dcomps=np.array([db]),
                        grad=np.array([self.sign * db]),
                        hess=np.array([[ddb]]),
                        lap=self.sign * ddb,
                        grad_sq=self.sign * db * db)

    def metric_inv(self, base_point) -> np.ndarray:
        return np.array([[self.sign]])

    def riemann(self, base_point, x, y, z) -> np.ndarray:
        return np.zeros(1)

    def ricci(self, base_point, x, y) -> float:
        return 0.0

    def ricci_matrix(self, base_point) -> np.ndarray:
        return np.zeros((1, 1))

    def connection(self, base_point, x, y_comps, y_fns) -> np.ndarray:
        if y_fns is None:
            return np.zeros(1)
        _, dy, _ = scalar_derivatives(y_fns[0], base_point[0])
        return np.array([x[0] * dy])

    def scalar_data(self, fn, base_point) -> WarpData:
        return self.warp_data(fn, base_point)


class ChartBase:
    """General pseudo-Riemannian base backed by the chart oracle."""

    def __init__(self, chart: CoordinateChart):
        self.chart = chart
        self.dim = chart.dim
        self._cache: dict = {}

    def _tensors(self, base_point):
        key = tuple(base_point)
        if key not in self._cache:
            if len(self._cache) > 128:
                self._cache.clear()
            self._cache[key] = riemann_oracle(self.chart, list(base_point))
        return self._cache[key]

    def inner(self, x, y) -> float:
        raise NotImplementedError  # callers use inner_at (needs the point)

    def inner_at(self, base_point, x, y) -> float:
        g = self._tensors(base_point).metric
        return float(np.asarray(x) @ g @ np.asarray(y))

    def metric_inv(self, base_point) -> np.ndarray:
        return self._tensors(base_point).metric_inv

    def warp_data(self, fn, base_point) -> WarpData:
        t = self._tensors(base_point)
        val, dphi, ddphi = jet(fn, base_point)
        hess = ddphi - np.einsum("kij,k->ij", t.gamma, dphi)
        grad = t.metric_inv @ dphi
        return WarpData(value=val, dcomps=dphi, grad=grad, hess=hess,
                        lap=float(np.einsum("ij,ij->", t.metric_inv, hess)),
                        grad_sq=float(dphi @ t.metric_inv @ dphi))

    scalar_data = warp_data

    def riemann(self, base_point, x, y, z) -> np.ndarray:
        return riemann_apply(self._tensors(base_point), x, y, z)

    def ricci(self, base_point, x, y) -> float:
        r = self._tensors(base_point).ricci
        return float(np.asarray(x) @ r @ np.asarray(y))

    def ricci_matrix(self, base_point) -> np.ndarray:
        return self._tensors(base_point).ricci

    def connection(self, base_point, x, y_comps, y_fns) -> np.ndarray:
        t = self._tensors(base_point)
        out = np.einsum("kmn,m,n->k", t.gamma, np.asarray(x), np.asarray(y_comps))
        if y_fns is not None:
            jac = np.array([jet(f, base_point)[1] for f in y_fns])
            out = out + jac @ np.asarray(x)
        return out


# ---------------------------------------------------------------------------
# structural fibers
# ---------------------------------------------------------------------------

class _StructFiber:
    """Fiber-level metric/curvature access; constant-curvature closed forms
    where tagged, chart oracle otherwise."""

    def __init__(self, dim, metric_fn, constant_curvature=None, chart=None,
                 lorentz_time=False):
        self.dim = dim
        self.metric_fn = metric_fn
        self.k = constant_curvature
        self.chart = chart
        self.lorentz_time = lorentz_time
        self._cache: dict = {}

    @classmethod
    def from_fiber(cls, fiber) -> "_StructFiber":
        return cls(fiber.dim, fiber.metric, fiber.constant_curvature,
                   fiber.chart())

    @classmethod
    def time_axis(cls) -> "_StructFiber":
        return cls(1, lambda c: [[-1.0]], constant_curvature=0.0,
                   lorentz_time=True)

    def _entry(self, x) -> dict:
        """Per-point store: the metric matrix and, once asked for, the
        oracle tensors at fiber point x."""
        key = tuple(x)
        entry = self._cache.get(key)
        if entry is None:
            if len(self._cache) > 128:
                self._cache.clear()
            entry = self._cache[key] = {}
        return entry

    def _tensors(self, x):
        entry = self._entry(x)
        if "tensors" not in entry:
            entry["tensors"] = riemann_oracle(self.chart, list(x))
        return entry["tensors"]

    def metric(self, x) -> np.ndarray:
        """Fiber metric matrix at x (read-only; shared by later calls)."""
        entry = self._entry(x)
        g = entry.get("metric")
        if g is None:
            rows = self.metric_fn(list(x))
            g = np.array([[value(rows[i][j]) for j in range(self.dim)]
                          for i in range(self.dim)], dtype=float)
            g.flags.writeable = False
            entry["metric"] = g
        return g

    def inner(self, x, v, w) -> float:
        return float(np.asarray(v) @ self.metric(x) @ np.asarray(w))

    def riemann(self, x, v, w, u) -> np.ndarray:
        """Components of R_F(V, W) U."""
        if self.dim == 1:
            return np.zeros(1)
        if self.k is not None:
            g = self.metric(x)
            v, w, u = np.asarray(v), np.asarray(w), np.asarray(u)
            return self.k * (float(w @ g @ u) * v - float(v @ g @ u) * w)
        return riemann_apply(self._tensors(x), v, w, u)

    def ricci(self, x, v, w) -> float:
        if self.dim == 1:
            return 0.0
        if self.k is not None:
            return self.k * (self.dim - 1) * self.inner(x, v, w)
        r = self._tensors(x).ricci
        return float(np.asarray(v) @ r @ np.asarray(w))

    def ricci_matrix(self, x) -> np.ndarray:
        """Ric_F in fiber coordinates, entry for entry as :meth:`ricci`."""
        if self.dim == 1:
            return np.zeros((1, 1))
        if self.k is not None:
            return self.k * (self.dim - 1) * self.metric(x)
        return self._tensors(x).ricci

    def connection(self, x, v, w_comps, w_fns) -> np.ndarray:
        if self.lorentz_time:
            return np.zeros(1)
        if self.chart is None:
            raise CapabilityError("fiber connection requires a coordinate chart")
        t = self._tensors(x)
        out = np.einsum("kab,a,b->k", t.gamma, np.asarray(v), np.asarray(w_comps))
        if w_fns is not None:
            jac = np.array([jet(f, x)[1] for f in w_fns])
            out = out + jac @ np.asarray(v)
        return out

    def gradient(self, x, dpsi) -> np.ndarray:
        if self.lorentz_time:
            return -np.asarray(dpsi)
        return np.linalg.inv(self.metric(x)) @ np.asarray(dpsi)


# ---------------------------------------------------------------------------
# the geometry object
# ---------------------------------------------------------------------------

class WarpedGeometry:
    """Structural view of a :class:`ManifoldSpec` as base + warped fibers."""

    def __init__(self, spec: ManifoldSpec):
        self.spec = spec
        if spec.kind == "SSST":
            self.base = ChartBase(spec.fibers[0].chart())
            self.warp_fns = (spec.potential.fn,)
            self.fibers = [_StructFiber.time_axis()]
        elif spec.base_chart is not None:
            self.base = ChartBase(spec.base_chart)
            self.warp_fns = tuple(
                (w.fn if hasattr(w, "fn") else w) for w in spec.warpings)
            self.fibers = [_StructFiber.from_fiber(f) for f in spec.fibers]
        else:
            self.base = LineBase(-1.0)
            self.warp_fns = tuple(
                (lambda t, _f=w.fn: _f(t)) for w in spec.warpings)
            self.fibers = [_StructFiber.from_fiber(f) for f in spec.fibers]
        self.m = len(self.fibers)
        self._warp_cache: dict = {}

    # -- structural coordinates/vectors ------------------------------------

    def struct_point(self, p: Point):
        spec = self.spec
        if spec.kind == "SSST":
            return tuple(map(float, p.fiber_coords[0])), ((float(p.t),),)
        if spec.base_chart is not None:
            return tuple(map(float, p.t)), tuple(tuple(map(float, x))
                                                 for x in p.fiber_coords)
        return (float(p.t),), tuple(tuple(map(float, x)) for x in p.fiber_coords)

    def warp_bundle(self, base_point) -> list[WarpData]:
        key = tuple(base_point)
        if key not in self._warp_cache:
            if len(self._warp_cache) > 128:
                self._warp_cache.clear()
            self._warp_cache[key] = [self.base.warp_data(f, base_point)
                                     for f in self.warp_fns]
        return self._warp_cache[key]

    def base_inner(self, base_point, x, y) -> float:
        if isinstance(self.base, LineBase):
            return self.base.inner(x, y)
        return self.base.inner_at(base_point, x, y)

    def inner_grads(self, base_point, i, k) -> float:
        """g_B(grad b_i, grad b_k)."""
        wds = self.warp_bundle(base_point)
        if isinstance(self.base, LineBase):
            return self.base.sign * wds[i].dcomps[0] * wds[k].dcomps[0]
        ginv = self.base.metric_inv(base_point)
        return float(wds[i].dcomps @ ginv @ wds[k].dcomps)

    def nabla_grad(self, base_point, i, x) -> np.ndarray:
        """Components of nab^B_X (grad_B b_i), i.e. the (1,1) Hessian on X."""
        wd = self.warp_bundle(base_point)[i]
        ginv = self.base.metric_inv(base_point)
        return ginv @ wd.hess @ np.asarray(x)

    def full_inner(self, base_point, fiber_points, u, v) -> float:
        """g(U, V) for structural vectors (base_comps, [fiber comps])."""
        ub, uf = u
        vb, vf = v
        acc = self.base_inner(base_point, ub, vb)
        wds = self.warp_bundle(base_point)
        for i, fib in enumerate(self.fibers):
            b = wds[i].value
            acc += b * b * fib.inner(fiber_points[i], uf[i], vf[i])
        return acc

    def zero_vec(self):
        return (np.zeros(self.base.dim), [np.zeros(f.dim) for f in self.fibers])


_GEOM_CACHE: dict[int, tuple] = {}


def geometry(spec: ManifoldSpec) -> WarpedGeometry:
    """WarpedGeometry for a spec, cached per spec object to reuse oracle data."""
    hit = _GEOM_CACHE.get(id(spec))
    if hit is not None and hit[0] is spec:
        return hit[1]
    if len(_GEOM_CACHE) > 64:
        _GEOM_CACHE.clear()
    geom = WarpedGeometry(spec)
    _GEOM_CACHE[id(spec)] = (spec, geom)
    return geom


def to_structural(spec: ManifoldSpec, v: TangentVector):
    """User-facing tangent vector -> structural (base_comps, fiber_comps)."""
    if spec.kind == "SSST":
        return (np.asarray(v.fiber_parts[0], float),
                [np.array([float(v.base_part)])])
    if spec.base_chart is not None:
        return (np.asarray(v.base_part, float),
                [np.asarray(part, float) for part in v.fiber_parts])
    return (np.array([float(v.base_part)]),
            [np.asarray(part, float) for part in v.fiber_parts])


def from_structural(spec: ManifoldSpec, base_comps, fiber_comps) -> TangentVector:
    if spec.kind == "SSST":
        return TangentVector(float(fiber_comps[0][0]),
                             (tuple(float(c) for c in base_comps),))
    if spec.base_chart is not None:
        return TangentVector(tuple(float(c) for c in base_comps),
                             tuple(tuple(float(c) for c in part)
                                   for part in fiber_comps))
    return TangentVector(float(base_comps[0]),
                         tuple(tuple(float(c) for c in part)
                               for part in fiber_comps))


def _lift_struct(geom: WarpedGeometry, a: LiftedField):
    """LiftedField -> structural vector with a single populated factor."""
    base, fibers = geom.zero_vec()
    if a.origin == "base":
        if len(a.components) != geom.base.dim:
            raise ShapeError("base lift has wrong component count")
        base = np.asarray(a.components, float)
    else:
        i = int(a.origin)
        if not 0 <= i < geom.m:
            raise ValidationError(f"no fiber {i}")
        if len(a.components) != geom.fibers[i].dim:
            raise ShapeError("fiber lift has wrong component count")
        fibers[i] = np.asarray(a.components, float)
    return base, fibers


# ---------------------------------------------------------------------------
# covariant derivative (three cases)
# ---------------------------------------------------------------------------

def covariant_derivative(spec: ManifoldSpec, p: Point, A: LiftedField,
                         B: LiftedField) -> TangentVector:
    """nab_A B on lifted fields, by the warped-product case formulas."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    wds = geom.warp_bundle(bp)
    base_out, fiber_out = geom.zero_vec()

    if A.origin == "base" and B.origin == "base":
        base_out = geom.base.connection(bp, np.asarray(A.components),
                                        np.asarray(B.components),
                                        B.component_fns)
    elif A.origin == "base" or B.origin == "base":
        x, v = (A, B) if A.origin == "base" else (B, A)
        i = int(v.origin)
        rate = float(np.asarray(x.components) @ wds[i].dcomps) / wds[i].value
        fiber_out[i] = rate * np.asarray(v.components)
    else:
        i, j = int(A.origin), int(B.origin)
        if i != j:
            pass  # distinct fibers: identically zero
        else:
            fib = geom.fibers[i]
            fiber_out[i] = fib.connection(fps[i], np.asarray(A.components),
                                          np.asarray(B.components),
                                          B.component_fns)
            b = wds[i].value
            gvw = b * b * fib.inner(fps[i], A.components, B.components)
            ginv = geom.base.metric_inv(bp)
            base_out = base_out - (gvw / b) * (ginv @ wds[i].dcomps)
    return from_structural(spec, base_out, fiber_out)


# ---------------------------------------------------------------------------
# gradient and Laplacian lifts
# ---------------------------------------------------------------------------

def gradient_lift(spec: ManifoldSpec, p: Point, fn,
                  origin: str | int = "base") -> TangentVector:
    """grad of a scalar lifted from the base or from fiber ``origin``."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    base_out, fiber_out = geom.zero_vec()
    if origin == "base":
        sd = geom.base.scalar_data(fn, bp)
        base_out = sd.grad
    else:
        i = int(origin)
        fib = geom.fibers[i]
        b = geom.warp_bundle(bp)[i].value
        _, dpsi, _ = jet(fn, fps[i])
        fiber_out[i] = fib.gradient(fps[i], dpsi) / (b * b)
    return from_structural(spec, base_out, fiber_out)


def laplacian_lift(spec: ManifoldSpec, p: Point, fn,
                   origin: str | int = "base") -> float:
    """Laplace-Beltrami of a lifted scalar: base scalars pick up the
    warped-volume drift term, fiber scalars just rescale by 1/b^2."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    wds = geom.warp_bundle(bp)
    if origin == "base":
        sd = geom.base.scalar_data(fn, bp)
        acc = sd.lap
        ginv = geom.base.metric_inv(bp)
        for i, fib in enumerate(geom.fibers):
            cross = float(sd.dcomps @ ginv @ wds[i].dcomps)
            acc += fib.dim * cross / wds[i].value
        return float(acc)
    i = int(origin)
    fib = geom.fibers[i]
    if fib.lorentz_time:
        _, _, dd = scalar_derivatives(lambda t: fn([t]), fps[i][0])
        lap_f = -dd
    else:
        from .tensor_oracle import laplacian_oracle
        lap_f = laplacian_oracle(fib.chart, list(fps[i]), fn)
    b = wds[i].value
    return float(lap_f / (b * b))


# ---------------------------------------------------------------------------
# Riemann curvature (nine cases)
# ---------------------------------------------------------------------------

def classify_triple(oa, ob, oc) -> str:
    """Name the curvature case a lifted-field origin triple dispatches to."""
    if oa == "base" and ob == "base":
        return "base_curvature" if oc == "base" else "zero_base_pair_on_fiber"
    if oa == "base" or ob == "base":
        if oc == "base":
            return "fiber_base_base"
        other = ob if oa == "base" else oa
        return "base_fiber_fiber" if other == oc else "zero_mixed_fibers"
    # two fiber arguments
    if oc == "base":
        return "zero_fibers_on_base"
    if oa == ob:
        return "in_fiber" if oc == oa else "zero_same_pair_other_fiber"
    if oc == oa or oc == ob:
        return "cross_fiber_gradient"
    return "zero_three_distinct_fibers"


def riemann_mwp(spec: ManifoldSpec, p: Point, A: LiftedField, B: LiftedField,
                C: LiftedField) -> TangentVector:
    """R(A, B) C for lifted fields, dispatching to exactly one case."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    base_out, fiber_out = _riemann_struct(
        geom, bp, fps,
        (A.origin, np.asarray(A.components, float)),
        (B.origin, np.asarray(B.components, float)),
        (C.origin, np.asarray(C.components, float)))
    return from_structural(spec, base_out, fiber_out)


def _riemann_struct(geom: WarpedGeometry, bp, fps, A, B, C):
    oa, a = A
    ob, b = B
    oc, c = C
    wds = geom.warp_bundle(bp)
    base_out, fiber_out = geom.zero_vec()

    case = classify_triple(oa, ob, oc)
    if case.startswith("zero"):
        return base_out, fiber_out

    if case == "base_curvature":
        base_out = geom.base.riemann(bp, a, b, c)
        return base_out, fiber_out

    if case == "fiber_base_base":
        # R(V, X) Y = -(H_B^b(X,Y)/b) V, antisymmetric when V sits second
        if oa == "base":
            i, v, x, y, sgn = int(ob), b, a, c, -1.0
        else:
            i, v, x, y, sgn = int(oa), a, b, c, 1.0
        h = float(np.asarray(x) @ wds[i].hess @ np.asarray(y))
        fiber_out[i] = sgn * (-h / wds[i].value) * v
        return base_out, fiber_out

    if case == "base_fiber_fiber":
        # R(X, V) W = -(g(V,W)/b) nab^B_X grad_B b, same fiber only
        if oa == "base":
            x, v, sgn = a, b, 1.0
        else:
            x, v, sgn = b, a, -1.0
        i = int(oc)
        bi = wds[i].value
        gvw = bi * bi * geom.fibers[i].inner(fps[i], v, c)
        base_out = sgn * (-gvw / bi) * geom.nabla_grad(bp, i, x)
        return base_out, fiber_out

    if case == "cross_fiber_gradient":
        # R(U, V) W = -g(V,W) g_B(grad b_i, grad b_k)/(b_i b_k) U
        # for V, W in fiber i and U in fiber k != i
        if oc == ob:
            k, u, i, sgn = int(oa), a, int(ob), 1.0
            v, w = b, c
        else:
            k, u, i, sgn = int(ob), b, int(oa), -1.0
            v, w = a, c
        bi, bk = wds[i].value, wds[k].value
        gvw = bi * bi * geom.fibers[i].inner(fps[i], v, w)
        coeff = -gvw * geom.inner_grads(bp, i, k) / (bi * bk)
        fiber_out[k] = sgn * coeff * u
        return base_out, fiber_out

    if case == "in_fiber":
        i = int(oa)
        fib = geom.fibers[i]
        bi = wds[i].value
        rf = fib.riemann(fps[i], a, b, c)
        gac = bi * bi * fib.inner(fps[i], a, c)
        gbc = bi * bi * fib.inner(fps[i], b, c)
        ratio = wds[i].grad_sq / (bi * bi)
        fiber_out[i] = rf + ratio * (gac * b - gbc * a)
        return base_out, fiber_out

    raise ValidationError(f"unhandled case {case}")  # pragma: no cover


def riemann_general(spec: ManifoldSpec, p: Point, X: TangentVector,
                    Y: TangentVector, Z: TangentVector) -> TangentVector:
    """R(X, Y) Z for arbitrary vectors via multilinear expansion over lifts."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    pieces_x = _split_struct(geom, to_structural(spec, X))
    pieces_y = _split_struct(geom, to_structural(spec, Y))
    pieces_z = _split_struct(geom, to_structural(spec, Z))
    base_acc, fiber_acc = geom.zero_vec()
    for Ax in pieces_x:
        for By in pieces_y:
            for Cz in pieces_z:
                # a vanishing case adds +0.0 to accumulators that start at
                # +0.0 and only ever add, so skipping it changes no bit
                if classify_triple(Ax[0], By[0], Cz[0]).startswith("zero"):
                    continue
                b_out, f_out = _riemann_struct(geom, bp, fps, Ax, By, Cz)
                base_acc = base_acc + b_out
                for i in range(geom.m):
                    fiber_acc[i] = fiber_acc[i] + f_out[i]
    return from_structural(spec, base_acc, fiber_acc)


def _split_struct(geom: WarpedGeometry, sv):
    base, fibers = sv
    pieces = []
    if np.any(base != 0.0):
        pieces.append(("base", np.asarray(base, float)))
    for i, comp in enumerate(fibers):
        comp = np.asarray(comp, float)
        if np.any(comp != 0.0):
            pieces.append((i, comp))
    return pieces


# ---------------------------------------------------------------------------
# Ricci curvature (four cases)
# ---------------------------------------------------------------------------

def ricci_mwp(spec: ManifoldSpec, p: Point, A: LiftedField,
              B: LiftedField) -> float:
    """Ric(A, B) on lifted fields."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    return _ricci_struct(geom, bp, fps,
                         (A.origin, np.asarray(A.components, float)),
                         (B.origin, np.asarray(B.components, float)))


def _ricci_struct(geom: WarpedGeometry, bp, fps, A, B) -> float:
    oa, a = A
    ob, b = B
    wds = geom.warp_bundle(bp)
    if oa == "base" and ob == "base":
        acc = geom.base.ricci(bp, a, b)
        for i, fib in enumerate(geom.fibers):
            h = float(np.asarray(a) @ wds[i].hess @ np.asarray(b))
            acc -= fib.dim * h / wds[i].value
        return float(acc)
    if oa == "base" or ob == "base":
        return 0.0
    i, j = int(oa), int(ob)
    if i != j:
        return 0.0
    fib = geom.fibers[i]
    bi = wds[i].value
    gvw = bi * bi * fib.inner(fps[i], a, b)
    return float(fib.ricci(fps[i], a, b) - _fiber_bracket(geom, bp, i) * gvw)


def _fiber_bracket(geom: WarpedGeometry, bp, i: int) -> float:
    """The factor of g(V, W) in Ric(V, W) for V, W in fiber i."""
    wds = geom.warp_bundle(bp)
    bi = wds[i].value
    bracket = wds[i].lap / bi + (geom.fibers[i].dim - 1) * wds[i].grad_sq / (bi * bi)
    for k in range(geom.m):
        if k != i:
            bracket += geom.fibers[k].dim * geom.inner_grads(bp, i, k) / (
                bi * wds[k].value)
    return bracket


def ricci_general(spec: ManifoldSpec, p: Point, X: TangentVector,
                  Y: TangentVector) -> float:
    """Ric(X, Y) for arbitrary vectors via bilinear expansion over lifts."""
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    acc = 0.0
    for Ax in _split_struct(geom, to_structural(spec, X)):
        for By in _split_struct(geom, to_structural(spec, Y)):
            acc += _ricci_struct(geom, bp, fps, Ax, By)
    return acc


def ricci_matrix(spec: ManifoldSpec, p: Point) -> np.ndarray:
    """Ric(d_a, d_b) in chart coordinates, assembled block by block.

    The base block is ``Ric_B - sum_i dim_i H^{b_i} / b_i``, fiber block i
    is ``Ric_{F_i} - bracket_i b_i^2 g_{F_i}`` and mixed blocks vanish; for
    a static model the structural blocks are permuted back to chart order
    (time first).  Every entry equals :func:`ricci_general` on the
    coordinate basis exactly.
    """
    p.validate(spec)
    geom = geometry(spec)
    bp, fps = geom.struct_point(p)
    wds = geom.warp_bundle(bp)
    base = geom.base.ricci_matrix(bp)
    for i, fib in enumerate(geom.fibers):
        base = base - fib.dim * wds[i].hess / wds[i].value
    blocks = [base]
    for i, fib in enumerate(geom.fibers):
        bi = wds[i].value
        gvw = bi * bi * fib.metric(fps[i])
        blocks.append(fib.ricci_matrix(fps[i]) - _fiber_bracket(geom, bp, i) * gvw)
    sizes = [blk.shape[0] for blk in blocks]
    n = sum(sizes)
    ric = np.zeros((n, n))
    ofs = 0
    for blk, size in zip(blocks, sizes):
        ric[ofs:ofs + size, ofs:ofs + size] = blk
        ofs += size
    if spec.kind == "SSST":
        order = np.roll(np.arange(n), 1)  # chart (t, x...) <- structural (x..., t)
        ric = ric[np.ix_(order, order)]
    # + 0.0 turns -0.0 into 0.0, as ricci_general's accumulator does
    return ric + 0.0
