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
  ``|grad b|^2 / b^2`` correction), stated once as the blocks of
  :func:`riemann_tensor`
* four Ricci patterns, stated once as the blocks of :func:`ricci_matrix`

:func:`riemann_general` and :func:`ricci_general` contract those two
tensors on general tangent vectors, and :func:`riemann_mwp` and
:func:`ricci_mwp` on lifted fields.  The lift-by-lift expansion they
replaced is kept verbatim in ``tests/reference_lifts.py``, as an
independent reference for the tensors.

Structural orientation: for time-base kinds (MGRW / GRW / Kasner) the
warped-product base is the interval with metric -dt^2 and the fibers are
the spatial factors.  For a standard static spacetime the roles invert:
the base is the *spatial* Riemannian factor carrying the potential f, and
the single warped fiber is the time axis with metric -dt^2.  Lifted-field
origins in this module always refer to that structural decomposition;
:func:`from_structural` translates them to user-facing
:class:`~warpcurv.core_types.TangentVector` data.

On the one-dimensional base -dt^2 every base-level object reduces to
closed form in one place
(:meth:`~warpcurv.core_types.PointContext.scalar_data`):
``grad_B b = -b' d_t``, ``|grad_B b|^2 = -(b')^2``,
``H_B^b(d_t, d_t) = b''``, ``lap_B b = -b''``.  Getting these four signs
wrong flips every spacetime formula downstream, so they are decided there
exactly once.

Every evaluator taking a point also takes its
:class:`~warpcurv.core_types.PointContext`, which holds all per-point
data; the structural views here (:class:`WarpedGeometry`, the base and
fiber views) are stateless.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ._frozen import Frozen, set_field
from .core_types import (ManifoldSpec, Point, PointContext, TangentVector,
                         flatten, split)
from .hyperdual import jet, scalar_derivatives
from .tensor_oracle import chart_hessian, lowered_riemann_batch, riemann_apply

__all__ = [
    "LiftedField",
    "base_lift",
    "fiber_lift",
    "WarpedGeometry",
    "from_structural",
    "covariant_derivative",
    "gradient_lift",
    "laplacian_lift",
    "riemann_mwp",
    "ricci_mwp",
    "riemann_general",
    "ricci_general",
    "ricci_matrix",
    "riemann_tensor",
]


# ---------------------------------------------------------------------------
# lifted fields
# ---------------------------------------------------------------------------

class LiftedField(Frozen):
    """A lift of a vector field living on exactly one product factor.

    ``origin`` is ``"base"`` or a fiber index.  ``components`` are the
    field's components at the evaluation point; ``component_fns`` (one
    callable per component, of the factor's coordinates) is needed only
    by :func:`covariant_derivative` when the differentiated field is not
    coordinate-constant.
    """

    __slots__ = ("origin", "components", "component_fns")

    def __init__(self, origin: str | int, components: tuple[float, ...],
                 component_fns: tuple[Callable, ...] | None = None):
        set_field(self, "origin", origin)
        set_field(self, "components", components)
        set_field(self, "component_fns", component_fns)


def base_lift(*components: float, fns=None) -> LiftedField:
    return LiftedField("base", tuple(float(c) for c in components),
                       None if fns is None else tuple(fns))


def fiber_lift(i: int, components: Sequence[float], fns=None) -> LiftedField:
    return LiftedField(int(i), tuple(float(c) for c in components),
                       None if fns is None else tuple(fns))


# ---------------------------------------------------------------------------
# stateless structural views; the point data is read from a PointContext
# ---------------------------------------------------------------------------

class LineBase:
    """One-dimensional base with metric -dt^2; the warpings' closed-form
    base data comes from :meth:`PointContext.scalar_data`."""

    dim = 1
    sign = -1.0

    def metric_inv(self, ctx) -> np.ndarray:
        return np.array([[self.sign]])

    def cometric(self, ctx, a, b) -> float:
        """g_B^{-1}(a, b) for covectors a, b."""
        return self.sign * a[0] * b[0]

    def ricci_matrix(self, ctx) -> np.ndarray:
        return np.zeros((1, 1))

    def connection(self, ctx, x, y_comps, y_fns) -> np.ndarray:
        if y_fns is None:
            return np.zeros(1)
        _, dy, _ = scalar_derivatives(y_fns[0], ctx.base_point[0])
        return np.array([x[0] * dy])


class ChartBase:
    """General pseudo-Riemannian base, read from the context's chart-oracle
    tensors of the base."""

    def __init__(self, dim: int):
        self.dim = dim

    def metric_inv(self, ctx) -> np.ndarray:
        return ctx.base_tensors.metric_inv

    def cometric(self, ctx, a, b) -> float:
        return float(a @ ctx.base_tensors.metric_inv @ b)

    def ricci_matrix(self, ctx) -> np.ndarray:
        return ctx.base_tensors.ricci

    def connection(self, ctx, x, y_comps, y_fns) -> np.ndarray:
        return _chart_connection(ctx.base_tensors, ctx.base_point, x,
                                 y_comps, y_fns)


def _chart_connection(tensors, point, x, y_comps, y_fns) -> np.ndarray:
    """nabla_X Y on a chart: Gamma(X, Y), plus X applied to Y's component
    functions ``y_fns`` (None for constant components)."""
    out = np.einsum("kmn,m,n->k", tensors.gamma, np.asarray(x), np.asarray(y_comps))
    if y_fns is not None:
        jac = np.array([jet(f, point)[1] for f in y_fns])
        out = out + jac @ np.asarray(x)
    return out


_TIME_METRIC = np.array([[-1.0]])
_TIME_METRIC.flags.writeable = False


class _StructFiber:
    """Structural fiber ``index``: constant-curvature closed forms where
    tagged, the context's chart-oracle tensors otherwise.  A static
    model's one structural fiber is the time line (``lorentz_time``)."""

    def __init__(self, index, dim, constant_curvature=None, lorentz_time=False):
        self.index = index
        self.dim = dim
        self.k = constant_curvature
        self.lorentz_time = lorentz_time

    def metric(self, ctx) -> np.ndarray:
        """Fiber metric matrix at the context's point (read-only)."""
        if self.lorentz_time:
            return _TIME_METRIC
        return ctx.fiber_metrics[self.index]

    def inner(self, ctx, v, w) -> float:
        return float(np.asarray(v) @ self.metric(ctx) @ np.asarray(w))

    def riemann(self, ctx, v, w, u) -> np.ndarray:
        """Components of R_F(V, W) U."""
        if self.dim == 1:
            return np.zeros(1)
        if self.k is not None:
            g = self.metric(ctx)
            v, w, u = np.asarray(v), np.asarray(w), np.asarray(u)
            return self.k * (float(w @ g @ u) * v - float(v @ g @ u) * w)
        return riemann_apply(ctx.fiber_tensors(self.index), v, w, u)

    def ricci_matrix(self, ctx) -> np.ndarray:
        """Ric_F in fiber coordinates."""
        if self.dim == 1:
            return np.zeros((1, 1))
        if self.k is not None:
            return self.k * (self.dim - 1) * self.metric(ctx)
        return ctx.fiber_tensors(self.index).ricci

    def connection(self, ctx, v, w_comps, w_fns) -> np.ndarray:
        if self.lorentz_time:
            return np.zeros(1)
        return _chart_connection(ctx.fiber_tensors(self.index),
                                 ctx.fiber_points[self.index], v, w_comps, w_fns)

    def gradient(self, ctx, dpsi) -> np.ndarray:
        if self.lorentz_time:
            return -np.asarray(dpsi)
        return np.linalg.inv(self.metric(ctx)) @ np.asarray(dpsi)


class WarpedGeometry:
    """Structural view of a :class:`ManifoldSpec` as base + warped fibers.

    Stateless: it holds no point data, which every method reads from the
    :class:`~warpcurv.core_types.PointContext` it is given.
    """

    def __init__(self, spec: ManifoldSpec):
        if spec.kind == "SSST":
            self.base = ChartBase(spec.fibers[0].dim)
            self.fibers = [_StructFiber(0, 1, 0.0, lorentz_time=True)]
        else:
            self.base = (LineBase() if spec.base_chart is None
                         else ChartBase(spec.base_chart.dim))
            self.fibers = [_StructFiber(i, f.dim, f.constant_curvature)
                           for i, f in enumerate(spec.fibers)]
        self.m = len(self.fibers)

    def inner_grads(self, ctx, i, k) -> float:
        """g_B(grad b_i, grad b_k)."""
        wds = ctx.warp_bundle
        return self.base.cometric(ctx, wds[i].dcomps, wds[k].dcomps)

    def zero_vec(self):
        return (np.zeros(self.base.dim), [np.zeros(f.dim) for f in self.fibers])


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


# ---------------------------------------------------------------------------
# covariant derivative (three cases)
# ---------------------------------------------------------------------------

def covariant_derivative(spec: ManifoldSpec, p: Point | PointContext,
                         A: LiftedField, B: LiftedField) -> TangentVector:
    """nab_A B on lifted fields, by the warped-product case formulas."""
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
    wds = ctx.warp_bundle
    base_out, fiber_out = geom.zero_vec()

    if A.origin == "base" and B.origin == "base":
        base_out = geom.base.connection(ctx, np.asarray(A.components),
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
            fiber_out[i] = fib.connection(ctx, np.asarray(A.components),
                                          np.asarray(B.components),
                                          B.component_fns)
            b = wds[i].value
            gvw = b * b * fib.inner(ctx, A.components, B.components)
            ginv = geom.base.metric_inv(ctx)
            base_out = base_out - (gvw / b) * (ginv @ wds[i].dcomps)
    return from_structural(spec, base_out, fiber_out)


# ---------------------------------------------------------------------------
# gradient and Laplacian lifts
# ---------------------------------------------------------------------------

def gradient_lift(spec: ManifoldSpec, p: Point | PointContext, fn,
                  origin: str | int = "base") -> TangentVector:
    """grad of a scalar lifted from the base or from fiber ``origin``."""
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
    base_out, fiber_out = geom.zero_vec()
    if origin == "base":
        base_out = ctx.scalar_data(fn).grad
    else:
        i = int(origin)
        b = ctx.warp_bundle[i].value
        _, dpsi, _ = jet(fn, ctx.fiber_points[i])
        fiber_out[i] = geom.fibers[i].gradient(ctx, dpsi) / (b * b)
    return from_structural(spec, base_out, fiber_out)


def laplacian_lift(spec: ManifoldSpec, p: Point | PointContext, fn,
                   origin: str | int = "base") -> float:
    """Laplace-Beltrami of a lifted scalar: base scalars pick up the
    warped-volume drift term, fiber scalars just rescale by 1/b^2."""
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
    wds = ctx.warp_bundle
    if origin == "base":
        sd = ctx.scalar_data(fn)
        acc = sd.lap
        ginv = geom.base.metric_inv(ctx)
        for i, fib in enumerate(geom.fibers):
            cross = float(sd.dcomps @ ginv @ wds[i].dcomps)
            acc += fib.dim * cross / wds[i].value
        return float(acc)
    i = int(origin)
    x = ctx.fiber_points[i]
    if geom.fibers[i].lorentz_time:
        _, _, dd = scalar_derivatives(lambda t: fn([t]), x[0])
        lap_f = -dd
    else:
        _, lap_f = chart_hessian(ctx.fiber_tensors(i), *jet(fn, x)[1:])
    b = wds[i].value
    return float(lap_f / (b * b))


# ---------------------------------------------------------------------------
# Riemann curvature (nine cases)
# ---------------------------------------------------------------------------

def riemann_tensor(spec: ManifoldSpec,
                   contexts: Sequence[PointContext]) -> np.ndarray:
    """g(R(d_a, d_b) d_c, d_d) at each context's point, ``(N, n, n, n, n)``
    in chart order, assembled block by block from the case formulas.

    With X, Y base indices, V, W fiber-i indices, U, Z fiber-k indices
    (k != i) and g_i, g_k the unwarped fiber metrics, the nonzero blocks
    are, up to the curvature symmetries:

    * ``R(X,Y,Y',X') = R_B``, the base's lowered oracle curvature;
    * ``R(V,X,Y,W) = -b_i H^{b_i}(X,Y) g_i(V,W)``, and ``R(X,V,W,Y)``
      likewise with the Hessian on (X, Y);
    * ``R(U,V,W,Z) = -b_i b_k g_B(grad b_i, grad b_k) g_i(V,W) g_k(U,Z)``;
    * ``R(V,W,W',V') = b_i^2 (R_{F_i} - |grad b_i|^2 Q_i)`` on fibers of
      dimension 2 or more, with ``Q_i(a,b,c,d) = g_bc g_ad - g_ac g_bd``
      and ``R_{F_i} = k Q_i`` on a fiber of constant curvature k.

    Every other block is zero; a static model's structural blocks are
    permuted back to chart order (time first), as in
    :func:`ricci_matrix`.  The inputs are those the lift-by-lift expansion
    in ``tests/reference_lifts.py`` reads: the warp bundles, the fiber
    metrics and curvatures and the base tensors, never the assembled
    chart's oracle.  Every product runs
    elementwise on arrays stacked over the points, in a fixed order, so
    each point's bits do not depend on the other points in the batch.
    """
    contexts = [PointContext.of(spec, c) for c in contexts]
    geom = WarpedGeometry(spec)
    count, n, nb = len(contexts), spec.dim, geom.base.dim
    out = np.zeros((count, n, n, n, n))
    if not contexts:
        return out
    PointContext.fill_warp_bundles(contexts)
    wds = [c.warp_bundle for c in contexts]
    if isinstance(geom.base, LineBase):
        ginv = np.full((count, 1, 1), LineBase.sign)
    else:
        base = [c.base_tensors for c in contexts]
        ginv = np.array([t.metric_inv for t in base])
        out[:, :nb, :nb, :nb, :nb] = lowered_riemann_batch(base)
    b = [np.array([w[i].value for w in wds]) for i in range(geom.m)]
    dcomps = [np.array([w[i].dcomps for w in wds]) for i in range(geom.m)]
    metrics = [np.array([fib.metric(c) for c in contexts])
               for fib in geom.fibers]
    ofs = np.cumsum([nb] + [fib.dim for fib in geom.fibers])
    X = slice(0, nb)
    for i, fib in enumerate(geom.fibers):
        V, G = slice(ofs[i], ofs[i + 1]), metrics[i]
        hess = np.array([w[i].hess for w in wds])
        # p[v, x, y, w] = b H(x, y) g(v, w)
        p = (_col(b[i], 4) * hess[:, None, :, :, None]) * G[:, :, None, None, :]
        out[:, V, X, X, V] = -p
        out[:, X, V, X, V] = p.transpose(0, 2, 1, 3, 4)
        out[:, X, V, V, X] = -p.transpose(0, 2, 1, 4, 3)
        out[:, V, X, V, X] = p.transpose(0, 1, 2, 4, 3)
        if fib.dim > 1:
            q = (G[:, None, :, :, None] * G[:, :, None, None, :]
                 - G[:, :, None, :, None] * G[:, None, :, None, :])
            grad_sq = _col(np.array([w[i].grad_sq for w in wds]), 4)
            if fib.k is not None:
                inner = (fib.k - grad_sq) * q
            else:
                # one batched oracle call for the fiber at every point
                PointContext.fill_fiber_tensors(contexts, i)
                inner = lowered_riemann_batch(
                    [c.fiber_tensors(i) for c in contexts]) - grad_sq * q
            out[:, V, V, V, V] = _col(b[i] * b[i], 4) * inner
        for k in range(geom.m):
            if k == i:
                continue
            U = slice(ofs[k], ofs[k + 1])
            cross = b[i] * b[k] * _pairing(dcomps[i], ginv, dcomps[k])
            # c[u, v, w, z] = b_i b_k g_B(grad b_i, grad b_k) g_i(v,w) g_k(u,z)
            c = ((_col(cross, 4) * G[:, None, :, :, None])
                 * metrics[k][:, :, None, None, :])
            out[:, U, V, V, U] = -c
            out[:, V, U, V, U] = c.transpose(0, 2, 1, 3, 4)
    if spec.kind == "SSST":
        order = np.roll(np.arange(n), 1)  # chart (t, x...) <- structural (x..., t)
        for axis in range(1, 5):
            out = out.take(order, axis=axis)
    return out


def riemann_general(spec: ManifoldSpec, p: Point | PointContext,
                    X: TangentVector, Y: TangentVector,
                    Z: TangentVector) -> TangentVector:
    """R(X, Y) Z: the point's
    :attr:`~warpcurv.core_types.PointContext.riemann_tensor` contracted on
    X, Y and Z, its last index raised with the metric at the point."""
    ctx = PointContext.of(spec, p)
    x, y, z = (_flat(spec, v) for v in (X, Y, Z))
    lowered = np.einsum("abcd,a,b,c->d", ctx.riemann_tensor, x, y, z)
    basis = np.eye(spec.dim)
    g = np.array([[ctx.form(a, b) for b in basis] for a in basis])
    return split(np.linalg.solve(g, lowered), spec)


def riemann_mwp(spec: ManifoldSpec, p: Point | PointContext, A: LiftedField,
                B: LiftedField, C: LiftedField) -> TangentVector:
    """R(A, B) C for lifted fields."""
    return riemann_general(spec, p, *(_lifted(spec, F) for F in (A, B, C)))


def _flat(spec: ManifoldSpec, v: TangentVector) -> np.ndarray:
    """v's flat chart components, once v is validated against spec."""
    v.validate(spec)
    return np.array(flatten(v))


def _lifted(spec: ManifoldSpec, F: LiftedField) -> TangentVector:
    """The tangent vector of a lift: F's components on its factor, zero
    elsewhere."""
    base, fibers = WarpedGeometry(spec).zero_vec()
    if F.origin == "base":
        base = np.asarray(F.components, float)
    else:
        fibers[int(F.origin)] = np.asarray(F.components, float)
    return from_structural(spec, base, fibers)


def _col(a: np.ndarray, extra: int) -> np.ndarray:
    """``a`` of shape (N,) with ``extra`` trailing unit axes."""
    return a.reshape(a.shape + (1,) * extra)


def _pairing(u: np.ndarray, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^T m v at each point, summed term by term in a fixed order."""
    acc = np.zeros(len(u))
    for p in range(m.shape[1]):
        for q in range(m.shape[2]):
            acc = acc + u[:, p] * m[:, p, q] * v[:, q]
    return acc


# ---------------------------------------------------------------------------
# Ricci curvature (four cases)
# ---------------------------------------------------------------------------

def _fiber_bracket(geom: WarpedGeometry, ctx: PointContext, i: int) -> float:
    """The factor of g(V, W) in Ric(V, W) for V, W in fiber i."""
    wds = ctx.warp_bundle
    bi = wds[i].value
    bracket = wds[i].lap / bi + (geom.fibers[i].dim - 1) * wds[i].grad_sq / (bi * bi)
    for k in range(geom.m):
        if k != i:
            bracket += geom.fibers[k].dim * geom.inner_grads(ctx, i, k) / (
                bi * wds[k].value)
    return bracket


def ricci_general(spec: ManifoldSpec, p: Point | PointContext,
                  X: TangentVector, Y: TangentVector) -> float:
    """Ric(X, Y): :func:`ricci_matrix` at the point contracted on X and Y."""
    x, y = _flat(spec, X), _flat(spec, Y)
    return float(x @ ricci_matrix(spec, p) @ y)


def ricci_mwp(spec: ManifoldSpec, p: Point | PointContext, A: LiftedField,
              B: LiftedField) -> float:
    """Ric(A, B) on lifted fields."""
    return ricci_general(spec, p, _lifted(spec, A), _lifted(spec, B))


def ricci_matrix(spec: ManifoldSpec, p: Point | PointContext) -> np.ndarray:
    """Ric(d_a, d_b) in chart coordinates, assembled block by block.

    The base block is ``Ric_B - sum_i dim_i H^{b_i} / b_i``, fiber block i
    is ``Ric_{F_i} - bracket_i b_i^2 g_{F_i}`` and mixed blocks vanish; for
    a static model the structural blocks are permuted back to chart order
    (time first).  Every entry equals the lift-by-lift expansion's
    ``ricci_general`` (``tests/reference_lifts.py``) on the coordinate
    basis exactly.
    """
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
    wds = ctx.warp_bundle
    base = geom.base.ricci_matrix(ctx)
    for i, fib in enumerate(geom.fibers):
        base = base - fib.dim * wds[i].hess / wds[i].value
    blocks = [base]
    for i, fib in enumerate(geom.fibers):
        bi = wds[i].value
        gvw = bi * bi * fib.metric(ctx)
        blocks.append(fib.ricci_matrix(ctx) - _fiber_bracket(geom, ctx, i) * gvw)
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
    # + 0.0 turns -0.0 into 0.0, as the lift expansion's accumulator does
    return ric + 0.0
