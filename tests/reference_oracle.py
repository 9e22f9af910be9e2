"""The per-point chart oracle, kept as a test-only reference.

``warpcurv.tensor_oracle`` computes the chart curvature one way: the
batched jet path of ``riemann_oracle_batch`` and ``null_sectional_batch``,
whose per-point functions are a batch of one.  This module keeps the
per-point path that batch replaced, verbatim: ``metric_partials`` seeds
``HyperDual`` coordinates (``tests/reference_hyperdual.py``) along each
pair (k, l) of directions, n(n+1)/2 metric evaluations per point, and
``riemann_oracle`` contracts the partials with its own einsum chain;
``null_sectional_from_tensors`` and ``lowered_riemann`` are the scalar
contractions.  Tests use it as an
independent reference for the batch, as ``tests/reference_lifts.py`` keeps
the lift-by-lift curvature expansion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from reference_hyperdual import HyperDual
from warpcurv.errors import DegenerateMetricError, PlaneError
from warpcurv.tensor_oracle import (CoordinateChart, CurvatureTensors,
                                    riemann_apply)

_DET_TOL = 1e-12


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


def lowered_riemann(tensors: CurvatureTensors) -> np.ndarray:
    """R4[i,j,k,l] = g(R(d_i, d_j) d_k, d_l)."""
    return np.einsum("lm,mijk->ijkl", tensors.metric, tensors.riemann)

