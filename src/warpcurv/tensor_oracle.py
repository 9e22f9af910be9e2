"""Coordinate-chart curvature oracle.

Ground truth for every specialized warped-product formula in this package:
Christoffel symbols, Riemann and Ricci tensors, scalar-field gradients,
Hessians and Laplacians, and null sectional curvature, all computed
directly from an arbitrary coordinate metric with no product-structure
shortcuts.  Metric partials come from one evaluation of the metric on the
second-order jets of :func:`~warpcurv.hyperdual.seed`, so the only error
budget is floating-point conditioning.

The oracle is computed one way: :func:`riemann_oracle_batch` and
:func:`null_sectional_batch` work on a batch of points, and each per-point
function is that path at a batch of one.

Index conventions, fixed once for the whole package:

* ``gamma[k, i, j]``   is Gamma^k_ij
* ``riemann[l, i, j, k]`` is R^l_ijk  with  R(d_i, d_j) d_k = R^l_ijk d_l
  and the curvature sign  R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
  - nab_[X,Y] Z  (so the unit 2-sphere has sectional curvature +1)
* ``ricci[j, k]`` is R^i_ijk
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ._frozen import Frozen, set_field
from .errors import (DegenerateMetricError, DomainError, PlaneError,
                     ShapeError, ValidationError)
from .hyperdual import Jet, jet, mirror_upper, seed

__all__ = [
    "CoordinateChart",
    "CurvatureTensors",
    "metric_partials",
    "christoffel",
    "riemann_oracle",
    "riemann_oracle_batch",
    "riemann_apply",
    "null_sectional_from_tensors",
    "null_sectional_batch",
    "null_sectional_oracle",
    "sectional_curvature_oracle",
    "gradient_oracle",
    "hessian_oracle",
    "laplacian_oracle",
    "lowered_riemann",
    "lowered_riemann_batch",
    "curvature_residuals",
]

_DET_TOL = 1e-12
MAX_CHART_DIM = 8  # largest chart, and largest spec-file fiber, supported


class CoordinateChart(Frozen):
    """A coordinate metric ``x -> g_ij(x)`` evaluable on jet coordinates.

    ``metric_at`` must accept a sequence of ``dim`` scalars (floats or
    :class:`~warpcurv.hyperdual.Jet`) and return a ``dim x dim`` nested
    sequence of scalars.  ``domain`` optionally rejects points
    outside the chart.
    """

    __slots__ = ("dim", "metric_at", "name", "domain")

    def __init__(self, dim: int, metric_at: Callable[[Sequence], Sequence],
                 name: str = "chart",
                 domain: Callable[[Sequence[float]], bool] | None = None):
        set_field(self, "dim", dim)
        set_field(self, "metric_at", metric_at)
        set_field(self, "name", name)
        set_field(self, "domain", domain)
        if not 1 <= dim <= MAX_CHART_DIM:
            raise ShapeError(
                f"charts are supported up to dimension {MAX_CHART_DIM}")

    def check_point(self, x: Sequence[float]) -> None:
        if len(x) != self.dim:
            raise ShapeError(
                f"{self.name}: expected {self.dim} coordinates, got {len(x)}")
        for i, c in enumerate(x):
            if not math.isfinite(c):
                raise ValidationError(
                    f"{self.name}: coordinate {i} is not finite: {c}")
        if self.domain is not None and not self.domain(list(map(float, x))):
            raise DomainError(f"{self.name}: point {tuple(x)} outside chart domain")


class CurvatureTensors(Frozen):
    """Christoffel, Riemann and Ricci data of a chart at one point:
    ``gamma`` (n, n, n), ``riemann`` R^l_ijk (n, n, n, n), ``ricci``
    (n, n) and ``dmetric`` d_k g_ij (n, n, n)."""

    __slots__ = ("point", "metric", "metric_inv", "gamma", "riemann",
                 "ricci", "dmetric")

    def __init__(self, point: tuple, metric: np.ndarray,
                 metric_inv: np.ndarray, gamma: np.ndarray,
                 riemann: np.ndarray, ricci: np.ndarray,
                 dmetric: np.ndarray | None = None):
        set_field(self, "point", point)
        set_field(self, "metric", metric)
        set_field(self, "metric_inv", metric_inv)
        set_field(self, "gamma", gamma)
        set_field(self, "riemann", riemann)
        set_field(self, "ricci", ricci)
        set_field(self, "dmetric", dmetric)


def metric_partials(chart: CoordinateChart, x: Sequence[float]):
    """Return (g, dg, d2g) with dg[k,i,j] = d_k g_ij, d2g[k,l,i,j] = d_k d_l g_ij."""
    chart.check_point(x)
    g, dg, d2g = _metric_partials_batch(chart, np.array([x], dtype=float))
    return g[0], dg[0], d2g[0]


def christoffel(chart: CoordinateChart, x: Sequence[float]) -> np.ndarray:
    """Levi-Civita coefficients Gamma^k_ij at x."""
    return riemann_oracle(chart, x).gamma


def riemann_oracle(chart: CoordinateChart, x: Sequence[float]) -> CurvatureTensors:
    """Full curvature data at x: :func:`riemann_oracle_batch` at a batch
    of one."""
    return riemann_oracle_batch(chart, [x])[0]


def _metric_partials_batch(chart: CoordinateChart, X: np.ndarray):
    """Batched (g, dg, d2g), axes as in :func:`metric_partials` after a
    leading point axis, from one jet evaluation of the metric."""
    count, n = X.shape
    rows = chart.metric_at(seed(X))
    g = np.zeros((count, n, n))
    dg = np.zeros((count, n, n, n))
    d2g = np.zeros((count, n, n, n, n))
    for i in range(n):
        for j in range(n):
            entry = rows[i][j]
            if isinstance(entry, Jet):
                g[:, i, j] = entry.val
                dg[:, :, i, j] = entry.grad
                d2g[:, :, :, i, j] = entry.hess
            else:
                g[:, i, j] = float(entry)
    # d_k d_l g_ij and d_l d_k g_ij can round differently; keep k <= l
    mirror_upper(np.moveaxis(d2g, (1, 2), (3, 4)))
    return g, dg, d2g


def riemann_oracle_batch(chart: CoordinateChart,
                         X: Sequence[Sequence[float]]) -> list[CurvatureTensors]:
    """Full curvature data at each point of X, from one metric evaluation.

    Every point passes ``check_point`` before the metric is evaluated; a
    singular metric raises DegenerateMetricError for the first such point.
    """
    points = [[float(c) for c in x] for x in X]
    for x in points:
        chart.check_point(x)
    if not points:
        return []
    g, dg, d2g = _metric_partials_batch(chart, np.array(points))
    dets = np.abs(np.linalg.det(g))
    singular = np.flatnonzero(dets <= _DET_TOL)
    if singular.size:
        raise DegenerateMetricError(
            f"{chart.name}: metric singular, |det| = {dets[singular[0]]:.3e}")
    ginv = np.linalg.inv(g)

    # Gamma^k_ij = (1/2) g^kl S_ijl, S_ijl = d_i g_jl + d_j g_il - d_l g_ij,
    # and d_m Gamma^k_ij by the product rule; in-place updates keep the
    # batch's peak memory down
    s = dg + dg.transpose(0, 2, 1, 3)
    s -= dg.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("nkl,nijl->nkij", ginv, s)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    ds = d2g + d2g.transpose(0, 1, 3, 2, 4)
    ds -= d2g.transpose(0, 1, 3, 4, 2)
    del d2g
    dgamma = np.einsum("nmkl,nijl->nmkij", dginv, s)
    dgamma += np.einsum("nkl,nmijl->nmkij", ginv, ds)
    dgamma *= 0.5
    del ds
    # R^l_ijk = A^l_ijk - A^l_jik with A^l_ijk = d_i Gamma^l_jk
    #                                           + Gamma^l_im Gamma^m_jk
    half = np.einsum("nlim,nmjk->nlijk", gamma, gamma)
    half += dgamma.transpose(0, 2, 1, 3, 4)
    del dgamma
    riemann = half - half.transpose(0, 1, 3, 2, 4)
    del half
    ricci = np.einsum("niijk->njk", riemann)
    return [CurvatureTensors(point=tuple(x), metric=g[k], metric_inv=ginv[k],
                             gamma=gamma[k], riemann=riemann[k],
                             ricci=ricci[k], dmetric=dg[k])
            for k, x in enumerate(points)]


def riemann_apply(tensors: CurvatureTensors, a, b, c) -> np.ndarray:
    """Components of R(A, B) C for component vectors a, b, c."""
    return np.einsum("lijk,i,j,k->l", tensors.riemann,
                     np.asarray(a, float), np.asarray(b, float), np.asarray(c, float))


def null_sectional_from_tensors(tensors: CurvatureTensors, L, S,
                                tol: float = 1e-9) -> float:
    """Null sectional curvature from precomputed chart tensors:
    :func:`null_sectional_batch` at a batch of one."""
    return float(null_sectional_batch([tensors], [L], [S], tol)[0])


def null_sectional_batch(batch: Sequence[CurvatureTensors], L, S,
                         tol: float = 1e-9) -> np.ndarray:
    """g(R(L,S)S, L) / g(S,S) at each point of a batch, with the planes'
    components stacked as ``(N, n)`` arrays.

    Each contraction runs in the order ``(a @ g) @ b`` at its own point, so
    a value's bits do not depend on the batch.  The plane checks run over
    the whole batch first, and the first sample that fails one raises its
    PlaneError: non-finite g(L,L), g(S,S) or g(L,S), then S not spacelike,
    then L not null, then the plane not degenerate, each within ``tol``
    relative to max(1, |g(S,S)|).
    """
    if not len(batch):
        return np.zeros(0)
    g = np.stack([t.metric for t in batch])
    L, S = np.asarray(L, float), np.asarray(S, float)

    def inner(a, b):
        return ((a[:, None] @ g) @ b[:, :, None])[:, 0, 0]

    with np.errstate(invalid="ignore"):  # named by the first check below
        gLL, gSS, gLS = inner(L, L), inner(S, S), inner(L, S)
    scale = np.maximum(1.0, np.abs(gSS))
    checks = [
        (~(np.isfinite(gLL) & np.isfinite(gSS) & np.isfinite(gLS)),
         lambda k: (f"non-finite plane data: g(L,L) = {float(gLL[k])}, "
                    f"g(S,S) = {float(gSS[k])}, g(L,S) = {float(gLS[k])}")),
        (gSS <= tol * scale,
         lambda k: f"S is not spacelike: g(S,S) = {gSS[k]:.3e}"),
        (np.abs(gLL) > tol * scale,
         lambda k: f"L is not null: g(L,L) = {gLL[k]:.3e}"),
        (np.abs(gLS) > tol * scale,
         lambda k: f"plane not degenerate: g(L,S) = {gLS[k]:.3e}"),
    ]
    bad = np.logical_or.reduce([fails for fails, _ in checks])
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise PlaneError(next(msg(k) for fails, msg in checks if fails[k]))
    rss = np.einsum("nlijk,ni,nj,nk->nl",
                    np.stack([t.riemann for t in batch]), L, S, S)
    return inner(rss, L) / gSS


def null_sectional_oracle(chart: CoordinateChart, x: Sequence[float],
                          L, S, tol: float = 1e-9) -> float:
    """g(R(L,S)S, L) / g(S,S) straight from the chart curvature at x.

    L must be null and S spacelike with g(L,S) = 0, all within ``tol``
    relative to the plane's own scale.
    """
    return null_sectional_from_tensors(riemann_oracle(chart, x), L, S, tol=tol)


def sectional_curvature_oracle(chart: CoordinateChart, x: Sequence[float],
                               v, w) -> float:
    """Sectional curvature of the nondegenerate plane span(v, w) at x."""
    tensors = riemann_oracle(chart, x)
    g = tensors.metric
    v, w = np.asarray(v, float), np.asarray(w, float)
    vg = v @ g  # each contraction in the order (a @ g) @ b
    q = float(vg @ v) * float((w @ g) @ w) - float(vg @ w) ** 2
    if abs(q) <= 1e-14:
        raise PlaneError("plane is degenerate; sectional curvature undefined")
    return float((riemann_apply(tensors, v, w, w) @ g) @ v) / q


# -- scalar-field calculus ---------------------------------------------------

def chart_hessian(tensors: CurvatureTensors, dphi: np.ndarray,
                  ddphi: np.ndarray) -> tuple[np.ndarray, float]:
    """The covariant Hessian H_ij = d_i d_j phi - Gamma^k_ij d_k phi of a
    scalar with partials dphi and ddphi at the tensors' point, and its
    metric trace (the geometer's Laplacian, tr H)."""
    hess = ddphi - np.einsum("kij,k->ij", tensors.gamma, dphi)
    return hess, float(np.einsum("ij,ij->", tensors.metric_inv, hess))


def gradient_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> np.ndarray:
    """Contravariant components of grad phi at x."""
    _, dphi, _ = jet(phi, x)
    return riemann_oracle(chart, x).metric_inv @ dphi


def hessian_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> np.ndarray:
    """Covariant Hessian H(phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi."""
    return chart_hessian(riemann_oracle(chart, x), *jet(phi, x)[1:])[0]


def laplacian_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> float:
    """Metric trace of the Hessian (the geometer's Laplacian, tr H)."""
    return chart_hessian(riemann_oracle(chart, x), *jet(phi, x)[1:])[1]


# -- identity residuals (used by the verification suite) ---------------------

def lowered_riemann(tensors: CurvatureTensors) -> np.ndarray:
    """R4[i,j,k,l] = g(R(d_i, d_j) d_k, d_l): :func:`lowered_riemann_batch`
    at a batch of one."""
    return lowered_riemann_batch([tensors])[0]


def lowered_riemann_batch(batch: Sequence[CurvatureTensors]) -> np.ndarray:
    """R4 at each point of a batch, ``(N, n, n, n, n)``:
    ``[N, i, j, k, l] = sum_m g[N, l, m] R[N, m, i, j, k]``, summed in order
    of m, so each point's bits do not depend on the batch."""
    g = np.stack([t.metric for t in batch])
    r = np.stack([t.riemann for t in batch])
    acc = r[:, 0, :, :, :, None] * g[:, None, None, None, :, 0]
    for m in range(1, g.shape[-1]):
        acc = acc + r[:, m, :, :, :, None] * g[:, None, None, None, :, m]
    return acc


def curvature_residuals(tensors: CurvatureTensors) -> dict:
    """Max-abs residuals of the standard curvature identities, scale-normalized."""
    r4 = lowered_riemann(tensors)
    scale = max(1.0, float(np.max(np.abs(r4))))
    gamma = tensors.gamma
    nabla_g = (tensors.dmetric
               - np.einsum("mki,mj->kij", gamma, tensors.metric)
               - np.einsum("mkj,im->kij", gamma, tensors.metric))
    return {
        "gamma_symmetry": float(np.max(np.abs(gamma - gamma.transpose(0, 2, 1)))) / scale,
        "antisym_first_pair": float(np.max(np.abs(r4 + r4.transpose(1, 0, 2, 3)))) / scale,
        "antisym_second_pair": float(np.max(np.abs(r4 + r4.transpose(0, 1, 3, 2)))) / scale,
        "pair_symmetry": float(np.max(np.abs(r4 - r4.transpose(2, 3, 0, 1)))) / scale,
        "first_bianchi": float(np.max(np.abs(
            r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)))) / scale,
        "ricci_symmetry": float(np.max(np.abs(tensors.ricci - tensors.ricci.T))) / scale,
        "metric_compatibility": float(np.max(np.abs(nabla_g))) / scale,
    }
