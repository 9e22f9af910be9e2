"""Closed-form multiply-warped-product curvature.

Riemann and Ricci curvature of ``B x_{b_1} F_1 x ... x_{b_m} F_m``, stated
case by case from the base, the warpings and the fibers, without ever
assembling the product chart.  The case formulas:

* nine Riemann patterns (two base-ish, the mixed zeros, the cross-fiber
  gradient products, and the in-fiber case carrying ``R_F`` plus a
  ``|grad b|^2 / b^2`` correction), stated once as the blocks of
  :func:`riemann_tensor`
* four Ricci patterns, stated once as the blocks of :func:`ricci_matrix`

:func:`riemann_general` and :func:`ricci_general` contract those two
tensors on general tangent vectors.  The lift-by-lift expansion they
replaced is kept verbatim in ``tests/reference_lifts.py``, as an
independent reference for the tensors.

Structural orientation: for time-base kinds (MGRW / GRW / Kasner) the
warped-product base is the interval with metric -dt^2 and the fibers are
the spatial factors.  For a standard static spacetime the roles invert:
the base is the *spatial* Riemannian factor carrying the potential f, and
the single warped fiber is the time axis with metric -dt^2.  The
structural views in this module always refer to that decomposition; the
static model's blocks are permuted back to chart order (time first).

On the one-dimensional base -dt^2 every base-level object reduces to
closed form in one place, where the warp bundles are filled
(:meth:`~warpcurv.core_types.PointContext.fill_warp_bundles`):
``|grad_B b|^2 = -(b')^2``, ``H_B^b(d_t, d_t) = b''``,
``lap_B b = -b''``.  Getting these signs wrong flips every spacetime
formula downstream, so they are decided there exactly once.

Every evaluator taking a point also takes its
:class:`~warpcurv.core_types.PointContext`, which holds all per-point
data; the structural views here (:class:`WarpedGeometry`, the base and
fiber views) are stateless.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core_types import (ManifoldSpec, Point, PointContext, TangentVector,
                         _lanes, _Metric, flatten, split)
from .tensor_oracle import lowered_riemann_batch, riemann_apply

__all__ = [
    "WarpedGeometry",
    "riemann_general",
    "ricci_general",
    "ricci_matrix",
    "riemann_tensor",
]


# ---------------------------------------------------------------------------
# stateless structural views; the point data is read from a PointContext
# ---------------------------------------------------------------------------

class LineBase:
    """One-dimensional base with metric -dt^2; the warpings' closed-form
    base data comes from :attr:`PointContext.warp_bundle`."""

    dim = 1
    sign = -1.0

    def cometric(self, ctx, a, b) -> float:
        """g_B^{-1}(a, b) for covectors a, b."""
        return self.sign * a[0] * b[0]

    def ricci_matrix(self, ctx) -> np.ndarray:
        return np.zeros((1, 1))


class ChartBase:
    """General pseudo-Riemannian base, read from the context's chart-oracle
    tensors of the base."""

    def __init__(self, dim: int):
        self.dim = dim

    def cometric(self, ctx, a, b) -> float:
        return float(a @ ctx.base_tensors.metric_inv @ b)

    def ricci_matrix(self, ctx) -> np.ndarray:
        return ctx.base_tensors.ricci


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
    # g(d_a, d_b) in one evaluation of the metric over the n^2 pairs
    n = spec.dim
    pairs = np.arange(n * n)
    basis = np.eye(n)
    g = _Metric(spec, [ctx], 0 * pairs)(
        _lanes(np.repeat(basis, n, axis=0), pairs),
        _lanes(np.tile(basis, (n, 1)), pairs))
    return split(np.linalg.solve(g.reshape(n, n), lowered), spec)


def _flat(spec: ManifoldSpec, v: TangentVector) -> np.ndarray:
    """v's flat chart components, once v is validated against spec."""
    v.validate(spec)
    return np.array(flatten(v))


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
