"""The lift-by-lift curvature expansion, kept as a test-only reference.

``warpcurv.warped_formulas`` states the warped-product curvature cases once,
as the block-form tensors ``riemann_tensor`` and ``ricci_matrix``; its
``riemann_general`` and ``ricci_general`` contract them.  This module keeps
the expansion those tensors replaced, verbatim: ``classify_triple`` names
the case an origin triple of lifted fields dispatches to,
``_riemann_struct`` and ``_ricci_struct`` evaluate one case, and
``riemann_general`` and ``ricci_general`` below sum the cases over the
lifts of general vectors by multilinearity.  Tests use it as an
independent reference for the tensor route, as
``tests/test_sampler_bits.py`` keeps the old sampler.

The structural views here are those of ``warped_formulas`` with the
methods only this expansion reads put back (``riemann``, ``ricci``,
``metric_inv`` and ``zero_vec``), and ``from_structural`` assembles its
results as tangent vectors.
"""

from __future__ import annotations

import numpy as np

from warpcurv.core_types import ManifoldSpec, Point, PointContext, TangentVector
from warpcurv.errors import ValidationError
from warpcurv.tensor_oracle import riemann_apply
from warpcurv import warped_formulas as wf
from warpcurv.warped_formulas import _fiber_bracket


# ---------------------------------------------------------------------------
# the structural views with their curvature methods
# ---------------------------------------------------------------------------

class LineBase(wf.LineBase):
    def metric_inv(self, ctx) -> np.ndarray:
        return np.array([[self.sign]])

    def riemann(self, ctx, x, y, z) -> np.ndarray:
        return np.zeros(1)

    def ricci(self, ctx, x, y) -> float:
        return 0.0


class ChartBase(wf.ChartBase):
    def metric_inv(self, ctx) -> np.ndarray:
        return ctx.base_tensors.metric_inv

    def riemann(self, ctx, x, y, z) -> np.ndarray:
        return riemann_apply(ctx.base_tensors, x, y, z)

    def ricci(self, ctx, x, y) -> float:
        return float(np.asarray(x) @ ctx.base_tensors.ricci @ np.asarray(y))


class _StructFiber(wf._StructFiber):
    def ricci(self, ctx, v, w) -> float:
        if self.dim == 1:
            return 0.0
        if self.k is not None:
            return self.k * (self.dim - 1) * self.inner(ctx, v, w)
        r = ctx.fiber_tensors(self.index).ricci
        return float(np.asarray(v) @ r @ np.asarray(w))


class WarpedGeometry(wf.WarpedGeometry):
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

    def zero_vec(self):
        return (np.zeros(self.base.dim), [np.zeros(f.dim) for f in self.fibers])


def from_structural(spec: ManifoldSpec, base_comps, fiber_comps) -> TangentVector:
    """Structural (base_comps, fiber_comps) -> user-facing tangent vector."""
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


def _riemann_struct(geom: WarpedGeometry, ctx: PointContext, A, B, C):
    oa, a = A
    ob, b = B
    oc, c = C
    wds = ctx.warp_bundle
    base_out, fiber_out = geom.zero_vec()

    case = classify_triple(oa, ob, oc)
    if case.startswith("zero"):
        return base_out, fiber_out

    if case == "base_curvature":
        base_out = geom.base.riemann(ctx, a, b, c)
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
        gvw = bi * bi * geom.fibers[i].inner(ctx, v, c)
        # nab^B_X grad_B b_i: the (1,1) Hessian on X
        nab = geom.base.metric_inv(ctx) @ wds[i].hess @ np.asarray(x)
        base_out = sgn * (-gvw / bi) * nab
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
        gvw = bi * bi * geom.fibers[i].inner(ctx, v, w)
        coeff = -gvw * geom.inner_grads(ctx, i, k) / (bi * bk)
        fiber_out[k] = sgn * coeff * u
        return base_out, fiber_out

    if case == "in_fiber":
        i = int(oa)
        fib = geom.fibers[i]
        bi = wds[i].value
        rf = fib.riemann(ctx, a, b, c)
        gac = bi * bi * fib.inner(ctx, a, c)
        gbc = bi * bi * fib.inner(ctx, b, c)
        ratio = wds[i].grad_sq / (bi * bi)
        fiber_out[i] = rf + ratio * (gac * b - gbc * a)
        return base_out, fiber_out

    raise ValidationError(f"unhandled case {case}")  # pragma: no cover


def riemann_general(spec: ManifoldSpec, p: Point | PointContext,
                    X: TangentVector, Y: TangentVector,
                    Z: TangentVector) -> TangentVector:
    """R(X, Y) Z for arbitrary vectors via multilinear expansion over lifts."""
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
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
                b_out, f_out = _riemann_struct(geom, ctx, Ax, By, Cz)
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

def _ricci_struct(geom: WarpedGeometry, ctx: PointContext, A, B) -> float:
    oa, a = A
    ob, b = B
    wds = ctx.warp_bundle
    if oa == "base" and ob == "base":
        acc = geom.base.ricci(ctx, a, b)
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
    gvw = bi * bi * fib.inner(ctx, a, b)
    return float(fib.ricci(ctx, a, b) - _fiber_bracket(geom, ctx, i) * gvw)


def ricci_general(spec: ManifoldSpec, p: Point | PointContext,
                  X: TangentVector, Y: TangentVector) -> float:
    """Ric(X, Y) for arbitrary vectors via bilinear expansion over lifts."""
    ctx, geom = PointContext.of(spec, p), WarpedGeometry(spec)
    acc = 0.0
    for Ax in _split_struct(geom, to_structural(spec, X)):
        for By in _split_struct(geom, to_structural(spec, Y)):
            acc += _ricci_struct(geom, ctx, Ax, By)
    return acc
