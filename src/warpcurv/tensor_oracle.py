"""Coordinate-chart curvature oracle.

Ground truth for every specialized warped-product formula in this package:
Christoffel symbols, Riemann and Ricci tensors, scalar-field gradients,
Hessians and Laplacians, and null sectional curvature, all computed
directly from an arbitrary coordinate metric with no product-structure
shortcuts.  Metric partials come from hyper-dual evaluation, so the only
error budget is floating-point conditioning.

Index conventions, fixed once for the whole package:

* ``gamma[k, i, j]``   is Gamma^k_ij
* ``riemann[l, i, j, k]`` is R^l_ijk  with  R(d_i, d_j) d_k = R^l_ijk d_l
  and the curvature sign  R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
  - nab_[X,Y] Z  (so the unit 2-sphere has sectional curvature +1)
* ``ricci[j, k]`` is R^i_ijk
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, DomainError, PlaneError, ShapeError
from .hyperdual import HyperDual, Jet, jet, mirror_upper, seed

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


@dataclass(frozen=True)
class CoordinateChart:
    """A coordinate metric ``x -> g_ij(x)`` evaluable on hyper-dual coordinates.

    ``metric_at`` must accept a sequence of ``dim`` scalars (floats,
    :class:`~warpcurv.hyperdual.HyperDual` or
    :class:`~warpcurv.hyperdual.Jet`) and return a ``dim x dim`` nested
    sequence of scalars.  ``domain`` optionally rejects points
    outside the chart.
    """

    dim: int
    metric_at: Callable[[Sequence], Sequence]
    name: str = "chart"
    domain: Callable[[Sequence[float]], bool] | None = None

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_CHART_DIM:
            raise ShapeError(
                f"charts are supported up to dimension {MAX_CHART_DIM}")

    def check_point(self, x: Sequence[float]) -> None:
        if len(x) != self.dim:
            raise ShapeError(
                f"{self.name}: expected {self.dim} coordinates, got {len(x)}")
        if self.domain is not None and not self.domain(list(map(float, x))):
            raise DomainError(f"{self.name}: point {tuple(x)} outside chart domain")


@dataclass(frozen=True)
class CurvatureTensors:
    """Christoffel, Riemann and Ricci data of a chart at one point."""

    point: tuple
    metric: np.ndarray
    metric_inv: np.ndarray
    gamma: np.ndarray      # (n, n, n)
    riemann: np.ndarray    # (n, n, n, n), R^l_ijk
    ricci: np.ndarray      # (n, n)
    dmetric: np.ndarray = field(repr=False, default=None)  # (n, n, n), d_k g_ij


def _entry_components(entry):
    if isinstance(entry, HyperDual):
        return entry.re, entry.e1, entry.e2, entry.e12
    v = float(entry)
    return v, 0.0, 0.0, 0.0


def metric_partials(chart: CoordinateChart, x: Sequence[float]):
    """Return (g, dg, d2g) with dg[k,i,j] = d_k g_ij, d2g[k,l,i,j] = d_k d_l g_ij."""
    chart.check_point(x)
    n = chart.dim
    g = np.zeros((n, n))
    dg = np.zeros((n, n, n))
    d2g = np.zeros((n, n, n, n))
    for k in range(n):
        for l in range(k, n):
            coords = [
                HyperDual(x[m], 1.0 if m == k else 0.0, 1.0 if m == l else 0.0)
                for m in range(n)
            ]
            rows = chart.metric_at(coords)
            for i in range(n):
                for j in range(n):
                    re, e1, e2, e12 = _entry_components(rows[i][j])
                    if k == 0 and l == 0:
                        g[i, j] = re
                    dg[k, i, j] = e1
                    dg[l, i, j] = e2
                    d2g[k, l, i, j] = e12
                    d2g[l, k, i, j] = e12
    return g, dg, d2g


def _inverse(g: np.ndarray, name: str) -> np.ndarray:
    det = np.linalg.det(g)
    if abs(det) <= _DET_TOL:
        raise DegenerateMetricError(f"{name}: metric singular, |det| = {abs(det):.3e}")
    return np.linalg.inv(g)


def christoffel(chart: CoordinateChart, x: Sequence[float]) -> np.ndarray:
    """Levi-Civita coefficients Gamma^k_ij at x."""
    g, dg, _ = metric_partials(chart, x)
    ginv = _inverse(g, chart.name)
    return _christoffel_from_partials(ginv, dg)


def _christoffel_from_partials(ginv, dg):
    # S[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij
    s = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", ginv, s)


def riemann_oracle(chart: CoordinateChart, x: Sequence[float]) -> CurvatureTensors:
    """Full curvature data at x, assembled from exact metric partials."""
    g, dg, d2g = metric_partials(chart, x)
    ginv = _inverse(g, chart.name)
    gamma = _christoffel_from_partials(ginv, dg)

    # d_m Gamma^k_ij, via product rule on (1/2) g^{kl} S_ijl
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    s = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    ds = (d2g + np.transpose(d2g, (0, 2, 1, 3))
          - np.transpose(d2g, (0, 2, 3, 1)))  # ds[m,i,j,l] = d_m S_ijl
    dgamma = 0.5 * (np.einsum("mkl,ijl->mkij", dginv, s)
                    + np.einsum("kl,mijl->mkij", ginv, ds))

    riemann = (np.einsum("iljk->lijk", dgamma)
               - np.einsum("jlik->lijk", dgamma)
               + np.einsum("lim,mjk->lijk", gamma, gamma)
               - np.einsum("ljm,mik->lijk", gamma, gamma))
    ricci = np.einsum("iijk->jk", riemann)
    return CurvatureTensors(
        point=tuple(float(c) for c in x),
        metric=g, metric_inv=ginv, gamma=gamma,
        riemann=riemann, ricci=ricci, dmetric=dg,
    )


def _metric_partials_batch(chart: CoordinateChart, X: np.ndarray):
    """Batched (g, dg, d2g), axes as in metric_partials after a leading
    point axis, from one jet evaluation of the metric."""
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
    # metric_partials evaluates d_k d_l g_ij for k <= l and mirrors it
    mirror_upper(np.moveaxis(d2g, (1, 2), (3, 4)))
    return g, dg, d2g


def riemann_oracle_batch(chart: CoordinateChart,
                         X: Sequence[Sequence[float]]) -> list[CurvatureTensors]:
    """:func:`riemann_oracle` at each point of X, from one metric evaluation.

    Every point passes ``check_point`` before the metric is evaluated; a
    singular metric raises for the first such point, with the scalar
    oracle's error and message.  Results agree with the scalar oracle to
    roundoff (the batched contractions sum in another order).
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

    # the scalar oracle's formulas with a leading point axis; in-place
    # updates keep the batch's peak memory down
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


def _inner(g, a, b):
    return float(np.asarray(a, float) @ g @ np.asarray(b, float))


def null_sectional_from_tensors(tensors: CurvatureTensors, L, S,
                                tol: float = 1e-9) -> float:
    """Null sectional curvature from precomputed chart tensors."""
    g = tensors.metric
    gLL = _inner(g, L, L)
    gSS = _inner(g, S, S)
    gLS = _inner(g, L, S)
    scale = max(1.0, abs(gSS))
    if gSS <= tol * scale:
        raise PlaneError(f"S is not spacelike: g(S,S) = {gSS:.3e}")
    if abs(gLL) > tol * scale:
        raise PlaneError(f"L is not null: g(L,L) = {gLL:.3e}")
    if abs(gLS) > tol * scale:
        raise PlaneError(f"plane not degenerate: g(L,S) = {gLS:.3e}")
    rss = riemann_apply(tensors, L, S, S)
    return _inner(g, rss, L) / gSS


def null_sectional_batch(batch: Sequence[CurvatureTensors], L, S,
                         tol: float = 1e-9) -> np.ndarray:
    """:func:`null_sectional_from_tensors` at each point of a batch, with
    the planes' components stacked as ``(N, n)`` arrays.

    Each contraction runs in the scalar function's order, ``(a @ g) @ b``,
    so every value has its bits.  The plane checks run over the whole
    batch first; the first sample that fails one raises the scalar
    function's PlaneError.
    """
    if not len(batch):
        return np.zeros(0)
    g = np.stack([t.metric for t in batch])
    L, S = np.asarray(L, float), np.asarray(S, float)

    def inner(a, b):
        return ((a[:, None] @ g) @ b[:, :, None])[:, 0, 0]

    gLL, gSS, gLS = inner(L, L), inner(S, S), inner(L, S)
    scale = np.maximum(1.0, np.abs(gSS))
    bad = ((gSS <= tol * scale) | (np.abs(gLL) > tol * scale)
           | (np.abs(gLS) > tol * scale))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        null_sectional_from_tensors(batch[k], L[k], S[k], tol)  # raises
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
    q = _inner(g, v, v) * _inner(g, w, w) - _inner(g, v, w) ** 2
    if abs(q) <= 1e-14:
        raise PlaneError("plane is degenerate; sectional curvature undefined")
    rww = riemann_apply(tensors, v, w, w)
    return _inner(g, rww, v) / q


# -- scalar-field calculus ---------------------------------------------------

def gradient_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> np.ndarray:
    """Contravariant components of grad phi at x."""
    chart.check_point(x)
    g, _, _ = metric_partials(chart, x)
    ginv = _inverse(g, chart.name)
    _, dphi, _ = jet(phi, x)
    return ginv @ dphi


def hessian_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> np.ndarray:
    """Covariant Hessian H(phi)_ij = d_i d_j phi - Gamma^k_ij d_k phi."""
    gamma = christoffel(chart, x)
    _, dphi, ddphi = jet(phi, x)
    return ddphi - np.einsum("kij,k->ij", gamma, dphi)


def laplacian_oracle(chart: CoordinateChart, x: Sequence[float], phi) -> float:
    """Metric trace of the Hessian (the geometer's Laplacian, tr H)."""
    g, dg, d2g = metric_partials(chart, x)
    ginv = _inverse(g, chart.name)
    gamma = _christoffel_from_partials(ginv, dg)
    _, dphi, ddphi = jet(phi, x)
    hess = ddphi - np.einsum("kij,k->ij", gamma, dphi)
    return float(np.einsum("ij,ij->", ginv, hess))


# -- identity residuals (used by the verification suite) ---------------------

def lowered_riemann(tensors: CurvatureTensors) -> np.ndarray:
    """R4[i,j,k,l] = g(R(d_i, d_j) d_k, d_l)."""
    return np.einsum("lm,mijk->ijkl", tensors.metric, tensors.riemann)


def lowered_riemann_batch(batch: Sequence[CurvatureTensors]) -> np.ndarray:
    """:func:`lowered_riemann` at each point of a batch, ``(N, n, n, n, n)``."""
    return np.einsum("nlm,nmijk->nijkl", np.stack([t.metric for t in batch]),
                     np.stack([t.riemann for t in batch]))


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
