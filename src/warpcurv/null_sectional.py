"""Null congruences, degenerate planes, and null sectional curvature.

The null sectional curvature of a degenerate plane spanned by a null L and
a spacelike S with g(L,S) = 0 is ``K = g(R(L,S)S, L) / g(S,S)``; it is
independent of the choice of S inside the plane and quadratic in L.  The
U-normalized value fixes L by ``g(L,L) = 0, g(L,U) = -1`` against a
timelike frame U.

Every specialized evaluator here carries two formula paths:

* ``derived``: the closed form re-derived from the warped-product
  curvature cases (see :mod:`warpcurv.warped_formulas`), term-verified
  against the coordinate-chart oracle.
* ``printed``: the corresponding closed form as printed in the
  warped-product literature, transcribed literally, typos included.
  Several printed terms disagree with the oracle (sign slips on the
  Hessian terms, a dropped cross-fiber product, a spurious second
  derivative factor, and a cancelling Hessian pair that should not
  cancel); the compare machinery in :mod:`warpcurv.cli` records every
  such disagreement in a machine-readable ledger.

Breakdown keys are shared between paths so mismatches line up term by
term.  All sampling is deterministic given a 64-bit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_types import (ManifoldSpec, NullPlane, Point, PointMetric,
                         TangentVector, metric_eval)
from .errors import (ConstraintError, ConstructionError, PlaneError,
                     ShapeError, ValidationError)
from .hyperdual import scalar_derivatives
from .warped_formulas import geometry, riemann_general

__all__ = [
    "NullCurvatureResult",
    "default_frame",
    "normalize_null",
    "make_degenerate_plane",
    "sample_plane",
    "null_curvature_generic",
    "mgrw_null_curvature",
    "grw_null_curvature",
    "grw_remark_value",
    "kasner_null_curvature",
    "type1_null_curvature",
    "type2_null_curvature",
    "type3_null_curvature",
    "ssst_null_curvature",
    "specialized_null_curvature",
    "formula_paths",
    "isotropy_summary",
    "isotropy_scan",
]

_SHAPE_TOL = 1e-9

@dataclass(frozen=True)
class NullCurvatureResult:
    """Numerator g(R(L,S)S,L), denominator g(S,S), their quotient, and a
    per-term breakdown of the numerator (plus the denominator entries)."""

    numerator: float
    denominator: float
    value: float
    breakdown: dict = field(default_factory=dict)

    @classmethod
    def from_terms(cls, terms: dict, denominator: float,
                   extra: dict | None = None) -> "NullCurvatureResult":
        numerator = float(sum(terms.values()))
        if denominator <= 0.0:
            raise PlaneError(f"denominator g(S,S) = {denominator} is not positive")
        breakdown = dict(terms)
        breakdown["numerator"] = numerator
        breakdown["denominator"] = float(denominator)
        breakdown["value"] = numerator / denominator
        if extra:
            breakdown.update(extra)
        return cls(numerator=numerator, denominator=float(denominator),
                   value=numerator / denominator, breakdown=breakdown)

# ---------------------------------------------------------------------------
# congruence and plane construction
# ---------------------------------------------------------------------------

def default_frame(spec: ManifoldSpec, p: Point) -> TangentVector:
    """The model's unit timelike reference frame at p."""
    if spec.kind == "SSST":
        f = spec.potential_value(p.fiber_coords[0])
        return TangentVector.base_direction(spec, 1.0 / f)
    return TangentVector.base_direction(spec, 1.0)

def normalize_null(spec: ManifoldSpec, p: Point | PointMetric,
                   U: TangentVector, direction: TangentVector) -> TangentVector:
    """The element of the null congruence of U pointing along ``direction``.

    Solves for L with g(L,L) = 0 and g(L,U) = -1: the U-orthogonal part of
    ``direction`` fixes the spatial direction, the normalization fixes both
    scale factors uniquely.  ``p`` may be the point's :class:`PointMetric`.
    """
    g = PointMetric.of(spec, p)
    g_UU = g.inner(U, U)
    if g_UU >= 0.0:
        raise ValidationError(f"frame must be timelike, g(U,U) = {g_UU}")
    g_DU = g.inner(direction, U)
    d_perp = direction - (g_DU / g_UU) * U
    n2 = g.inner(d_perp, d_perp)
    if n2 <= 1e-24:
        raise ConstructionError(
            "direction has no spacelike part; cannot complete to a null vector")
    beta = -1.0 / g_UU
    gamma = math.sqrt(-1.0 / (g_UU * n2))
    return beta * U + gamma * d_perp

def make_degenerate_plane(spec: ManifoldSpec, p: Point | PointMetric,
                          L: TangentVector, S_candidate: TangentVector,
                          frame_U: TangentVector | None = None) -> NullPlane:
    """Project S_candidate onto the degenerate configuration g(L,S) = 0.

    The unique frame-direction correction is removed from S_candidate; the
    result must come out spacelike and independent of L.  L may carry
    either time orientation (the curvature of the plane is quadratic in
    L); the frame is attached to the plane only when L actually satisfies
    the congruence normalization g(L,U) = -1.  ``p`` may be the point's
    :class:`PointMetric`.
    """
    g = PointMetric.of(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, g.point)
    g_LL = g.inner(L, L)
    g_LU = g.inner(L, U)
    scale = max(1.0, abs(g.inner(U, U)))
    if abs(g_LL) > 1e-9 * scale:
        raise PlaneError(f"L is not null: g(L,L) = {g_LL:.3e}")
    if abs(g_LU) < 1e-12:
        raise PlaneError("frame is orthogonal to L; cannot project")
    g_LS = g.inner(L, S_candidate)
    S = S_candidate - (g_LS / g_LU) * U
    g_SS = g.inner(S, S)
    if g_SS <= 1e-12 * scale:
        raise PlaneError(
            f"projected S is not spacelike (g(S,S) = {g_SS:.3e}); "
            "candidate was parallel to L or timelike")
    normalized = abs(g_LU + 1.0) <= 1e-9
    plane = g.plane(L, S, frame_U=U if normalized else None)
    plane.validate(tol=1e-9)
    return plane

def _orthonormal_fiber_draw(g: PointMetric, chol_t, rng) -> TangentVector:
    """Spatial direction drawn isotropically in the warped metric at g's point.

    Per fiber, components are drawn on the unit sphere of the *warped*
    fiber block, so draw coefficients are invariant under rescaling the
    warpings; this keeps seeded scans comparable across base points.
    ``chol_t`` holds C^T for the Cholesky factor C of each fiber metric.
    """
    parts = []
    for i, c_t in enumerate(chol_t):
        x = np.linalg.solve(c_t, rng.standard_normal(c_t.shape[0]))
        if g.spec.kind != "SSST":  # SSST's one fiber is unwarped
            x = x / g.warps[i]
        parts.append(tuple(x))
    return TangentVector(0.0, tuple(parts))

def sample_plane(spec: ManifoldSpec, p: Point, rng,
                 frame_U: TangentVector | None = None,
                 base_free: bool = False) -> NullPlane:
    """One random degenerate plane in the congruence of the frame at p.

    With ``base_free=True`` the spacelike leg S is kept purely spatial
    (the degeneracy condition is then solved inside the fiber block), the
    configuration the published base-free special cases assume.
    """
    g = PointMetric(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, p)
    chol_t = [np.linalg.cholesky(np.array(rows)).T for rows in g.fiber_rows]
    for _ in range(32):
        direction = _orthonormal_fiber_draw(g, chol_t, rng)
        try:
            L = normalize_null(spec, g, U, direction)
        except ConstructionError:
            continue
        W = _orthonormal_fiber_draw(g, chol_t, rng)
        if base_free:
            v_spatial = L - (g.inner(L, U) / g.inner(U, U)) * U
            g_vv = g.inner(v_spatial, v_spatial)
            g_vw = g.inner(v_spatial, W)
            S_cand = W - (g_vw / g_vv) * v_spatial
            g_ss = g.inner(S_cand, S_cand)
            if g_ss <= 1e-12:
                continue
            plane = g.plane(L, S_cand, frame_U=U)
            try:
                plane.validate(tol=1e-9)
            except PlaneError:
                continue
            return plane
        w_norm = math.sqrt(max(g.inner(W, W), 0.0))
        h = 0.9 * rng.uniform(-1.0, 1.0) * w_norm
        S_cand = h * U + W
        try:
            return make_degenerate_plane(spec, g, L, S_cand, frame_U=U)
        except PlaneError:
            continue
    raise PlaneError("could not sample a valid degenerate plane in 32 tries")

# ---------------------------------------------------------------------------
# reference evaluator (multilinear expansion through the case formulas)
# ---------------------------------------------------------------------------

def null_curvature_generic(spec: ManifoldSpec, plane: NullPlane) -> NullCurvatureResult:
    """K from the curvature case formulas by full multilinear expansion.

    This is the reference path every specialized evaluator is tested
    against; it works for every spec kind, including generic base charts.
    """
    plane.validate(tol=1e-9)
    p, L, S = plane.point, plane.L, plane.S
    rss = riemann_general(spec, p, L, S, S)
    numerator = metric_eval(spec, p, rss, L)
    denominator = plane.g_SS
    return NullCurvatureResult(
        numerator=numerator, denominator=denominator,
        value=numerator / denominator,
        breakdown={"numerator": numerator, "denominator": denominator,
                   "value": numerator / denominator})

# ---------------------------------------------------------------------------
# shared decomposition helpers
# ---------------------------------------------------------------------------

def _oriented_time_L(spec: ManifoldSpec, p: Point, L: TangentVector,
                     unit: float) -> TangentVector:
    """Validate that L has base coefficient +-unit and return the -unit
    representative (K is quadratic in L, so the flip is value-neutral)."""
    a = float(L.base_part)
    if abs(abs(a) - unit) > _SHAPE_TOL * max(1.0, unit):
        raise ShapeError(
            f"L must have base coefficient +-{unit:.6g}, got {a:.6g}")
    return L if a < 0 else -L

@dataclass(frozen=True)
class _TimeData:
    """Per-fiber scalars entering the time-base closed forms."""

    b: tuple
    db: tuple
    ddb: tuple
    gVV: tuple
    gVW: tuple
    gWW: tuple
    rF: tuple      # g_F(R_F(V,W)W, V) per fiber
    h: float       # base coefficient of S

def _time_data(spec: ManifoldSpec, p: Point, L: TangentVector,
               S: TangentVector) -> _TimeData:
    if not spec.is_time_base:
        raise ValidationError(f"{spec.kind} is not a time-base kind")
    p.validate(spec)
    L.validate(spec)
    S.validate(spec)
    L = _oriented_time_L(spec, p, L, 1.0)
    geom = geometry(spec)
    _, fps = geom.struct_point(p)
    t = float(p.t)
    b, db, ddb, gvv, gvw, gww, rf = [], [], [], [], [], [], []
    for i, fib in enumerate(geom.fibers):
        bi, dbi, ddbi = spec.warping_derivatives(i, t)
        v = np.asarray(L.fiber_parts[i], float)
        w = np.asarray(S.fiber_parts[i], float)
        b.append(bi)
        db.append(dbi)
        ddb.append(ddbi)
        gvv.append(fib.inner(fps[i], v, v))
        gvw.append(fib.inner(fps[i], v, w))
        gww.append(fib.inner(fps[i], w, w))
        rcomp = fib.riemann(fps[i], v, w, w)
        rf.append(float(np.asarray(rcomp) @ fib.metric(fps[i]) @ v))
    return _TimeData(tuple(b), tuple(db), tuple(ddb), tuple(gvv), tuple(gvw),
                     tuple(gww), tuple(rf), float(S.base_part))

# ---------------------------------------------------------------------------
# multiply warped (MGRW) evaluator
# ---------------------------------------------------------------------------

def mgrw_null_curvature(spec: ManifoldSpec, p: Point, L: TangentVector,
                        S: TangentVector, path: str = "derived") -> NullCurvatureResult:
    """Closed-form K for L = -d_t + sum V_i, S = h d_t + sum W_j.

    ``path='derived'`` evaluates the oracle-verified term sum;
    ``path='printed'`` the published theorem display; ``path='printed_corollary'``
    the published h d_t specialization (whose denominator prints a second
    derivative of h where the bilinear expansion forces -h^2, and whose
    bracket term carries an extra (b')^2 b'' factor).
    """
    d = _time_data(spec, p, L, S)
    m = len(d.b)
    idx = range(m)
    h = d.h

    if path == "derived":
        terms = {
            "hess_mixed_lead": -sum(d.b[i] * d.ddb[i] * h * d.gVW[i] for i in idx),
            "hess_YY": -sum(d.b[i] * d.ddb[i] * h * h * d.gVV[i] for i in idx),
            "warp_acc_WW": -sum(d.b[j] * d.ddb[j] * d.gWW[j] for j in idx),
            "hess_mixed_trail": -sum(d.b[i] * d.ddb[i] * h * d.gVW[i] for i in idx),
            "cross_fiber_VV_WW": sum(
                d.b[i] * d.db[i] * d.b[j] * d.db[j] * d.gVV[i] * d.gWW[j]
                for i in idx for j in idx if i != j),
            "cross_fiber_VW_VW": -sum(
                d.b[i] * d.db[i] * d.b[j] * d.db[j] * d.gVW[i] * d.gVW[j]
                for i in idx for j in idx if i != j),
            "fiber_curvature": sum(d.b[i] ** 2 * d.rF[i] for i in idx),
            "warp_rate_bracket": sum(
                d.b[i] ** 2 * d.db[i] ** 2 * (d.gVV[i] * d.gWW[i] - d.gVW[i] ** 2)
                for i in idx),
        }
        denominator = -h * h + sum(d.b[j] ** 2 * d.gWW[j] for j in idx)
        return NullCurvatureResult.from_terms(terms, denominator)

    if path == "printed":
        terms = {
            "hess_mixed_lead": sum(d.b[k] * d.gVW[k] * h * d.ddb[k] for k in idx),
            "hess_YY": sum(d.b[k] * d.gVV[k] * h * h * d.ddb[k] for k in idx),
            "warp_acc_WW": -sum(d.b[j] * d.ddb[j] * d.gWW[j] for j in idx),
            "hess_mixed_trail": sum(d.b[i] * d.gVW[i] * h * d.ddb[i] for i in idx),
            "cross_fiber_VV_WW": -sum(
                d.b[k] * d.db[j] ** 2 * d.gVV[k] * d.gWW[j]
                for j in idx for k in idx if j != k),
            "cross_fiber_VW_VW": 0.0,
            "fiber_curvature": sum(d.b[i] ** 2 * d.rF[i] for i in idx),
            "warp_rate_bracket": -sum(
                d.b[i] ** 2 * d.db[i] ** 2 * d.ddb[i]
                * (d.gVW[i] ** 2 - d.gVV[i] * d.gWW[i]) for i in idx),
        }
        denominator = -h * h + sum(d.b[j] ** 2 * d.gWW[j] for j in idx)
        # the companion derivation sketch prints the denominator as a
        # product of the base and fiber norms; recorded for the ledger
        alt = sum(d.b[j] ** 2 * (-h * h) * d.gWW[j] for j in idx)
        return NullCurvatureResult.from_terms(
            terms, denominator, extra={"denominator_alt_product": alt})

    if path == "printed_corollary":
        terms = {
            "hess_mixed_lead": sum(h * d.b[k] * d.ddb[k] * d.gVW[k] for k in idx),
            "hess_YY": sum(h * h * d.b[k] * d.ddb[k] * d.gVV[k] for k in idx),
            "warp_acc_WW": -sum(d.b[j] * d.ddb[j] * d.gWW[j] for j in idx),
            "hess_mixed_trail": sum(h * d.b[i] * d.ddb[i] * d.gVW[i] for i in idx),
            "cross_fiber_VV_WW": -sum(
                d.b[k] * d.db[j] ** 2 * d.gVV[k] * d.gWW[j]
                for j in idx for k in idx if j != k),
            "cross_fiber_VW_VW": 0.0,
            "fiber_curvature": sum(d.b[i] ** 2 * d.rF[i] for i in idx),
            "warp_rate_bracket": -sum(
                d.b[i] * d.db[i] ** 4 * d.ddb[i]
                * (d.gVW[i] ** 2 - d.gVV[i] * d.gWW[i]) for i in idx),
        }
        # printed as  -h'' + sum b^2 g_F(W,W);  h is a pointwise scalar here,
        # so the literal second derivative contributes nothing
        denominator = 0.0 + sum(d.b[j] ** 2 * d.gWW[j] for j in idx)
        return NullCurvatureResult.from_terms(terms, denominator)

    raise ValidationError(f"unknown path {path!r}")

# ---------------------------------------------------------------------------
# GRW evaluator and the exponential-warping remark
# ---------------------------------------------------------------------------

def grw_null_curvature(spec: ManifoldSpec, p: Point, plane: NullPlane,
                       path: str = "derived") -> NullCurvatureResult:
    """Single-fiber closed form on a validated plane.

    The printed corollary drops the mixed Hessian term, flips the sign of
    the H(Y,Y) term, and evaluates the warp-rate bracket with
    ``g(V,W)^2 - g_F(W,W)/b^2`` under a plus sign; all three mismatches
    are oracle-adjudicated in favor of the derived form.
    """
    if spec.kind not in ("GRW", "MGRW", "Kasner") or spec.m != 1:
        raise ValidationError("grw_null_curvature requires a single-fiber model")
    plane.validate(tol=1e-9)
    d = _time_data(spec, p, plane.L, plane.S)
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    gvv, gvw, gww, r = d.gVV[0], d.gVW[0], d.gWW[0], d.rF[0]
    h = d.h
    denominator = -h * h + b * b * gww

    if path == "derived":
        terms = {
            "warp_acc_WW": -b * ddb * gww,
            "fiber_curvature": b * b * r,
            "hess_YY": -b * ddb * h * h * gvv,
            "hess_mixed": -2.0 * b * ddb * h * gvw,
            "warp_rate_bracket": b * b * db * db * (gvv * gww - gvw * gvw),
        }
        return NullCurvatureResult.from_terms(terms, denominator)

    if path == "printed":
        terms = {
            "warp_acc_WW": -b * ddb * gww,
            "fiber_curvature": b * b * r,
            "hess_YY": b * gvv * h * h * ddb,
            "hess_mixed": 0.0,
            "warp_rate_bracket": b * b * db * db * (gvw * gvw - gww / (b * b)),
        }
        return NullCurvatureResult.from_terms(terms, denominator)

    raise ValidationError(f"unknown path {path!r}")

def grw_remark_value(spec: ManifoldSpec, p: Point, plane: NullPlane,
                     path: str = "derived") -> float:
    """The base-free (Y = 0) value K_F/b^2 +- (b''/b - (b'/b)^2).

    The published remark attaches the correction with a plus sign; the
    oracle fixes it to minus.  Both orientations vanish exactly when the
    warping is c * e^(k t), which is the remark's characterization.
    """
    d = _time_data(spec, p, plane.L, plane.S)
    if abs(d.h) > _SHAPE_TOL:
        raise ValidationError("remark form applies to planes with no base part")
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    qf = d.gVV[0] * d.gWW[0] - d.gVW[0] ** 2
    kf = d.rF[0] / qf
    correction = ddb / b - (db / b) ** 2
    if path == "derived":
        return kf / (b * b) - correction
    if path == "printed":
        return kf / (b * b) + correction
    raise ValidationError(f"unknown path {path!r}")

# ---------------------------------------------------------------------------
# generalized Kasner evaluator
# ---------------------------------------------------------------------------

def kasner_null_curvature(spec: ManifoldSpec, p: Point, L: TangentVector,
                          S: TangentVector, path: str = "derived") -> NullCurvatureResult:
    """Kasner closed form with warpings phi**p_i.

    The derived path carries the full chain rule (phi' and phi'' enter
    every differentiated warping).  The printed corollary reads as if
    phi' = 1 and phi'' = 0 in its explicit terms, keeps symbolic Hessians
    in the mixed terms, and its bracket term accretes an extra
    p_i (p_i - 1) phi**(p_i - 2) factor; transcribed literally.
    """
    if spec.kind != "Kasner":
        raise ValidationError("kasner_null_curvature requires kind='Kasner'")
    if path == "derived":
        return mgrw_null_curvature(spec, p, L, S, path="derived")
    if path != "printed":
        raise ValidationError(f"unknown path {path!r}")

    d = _time_data(spec, p, L, S)

    phi, dphi, ddphi = scalar_derivatives(spec.phi.fn, float(p.t))
    ps = spec.kasner_exponents
    m = len(ps)
    idx = range(m)
    h = d.h

    terms = {
        "hess_mixed_lead": sum(
            phi ** ps[k] * d.gVW[k] * h * d.ddb[k] for k in idx),
        "hess_YY": sum(
            phi ** ps[k] * d.gVV[k] * h * h * d.ddb[k] for k in idx),
        "warp_acc_WW": -sum(
            phi ** ps[j] * ps[j] * (ps[j] - 1.0) * phi ** (ps[j] - 2.0)
            * d.gWW[j] for j in idx),
        "hess_mixed_trail": sum(
            phi ** ps[i] * d.gVW[i] * h * d.ddb[i] for i in idx),
        "cross_fiber_VV_WW": -sum(
            phi ** ps[k] * ps[j] ** 2 * phi ** (2.0 * (ps[j] - 1.0))
            * d.gVV[k] * d.gWW[j]
            for j in idx for k in idx if j != k),
        "cross_fiber_VW_VW": 0.0,
        "fiber_curvature": sum(phi ** (2.0 * ps[i]) * d.rF[i] for i in idx),
        "warp_rate_bracket": -sum(
            phi ** (2.0 * ps[i]) * ps[i] ** 2 * phi ** (2.0 * (ps[i] - 1.0))
            * ps[i] * (ps[i] - 1.0) * phi ** (ps[i] - 2.0)
            * (d.gVW[i] ** 2 - d.gVV[i] * d.gWW[i]) for i in idx),
    }
    # printed with the sum distributed over both addends
    g_yy = -h * h
    denominator = sum(phi ** (2.0 * ps[j]) * g_yy + d.gWW[j] for j in idx)
    numerator = float(sum(terms.values()))
    breakdown = dict(terms)
    breakdown["numerator"] = numerator
    breakdown["denominator"] = denominator
    breakdown["value"] = numerator / denominator if denominator != 0.0 else math.nan
    return NullCurvatureResult(numerator=numerator, denominator=denominator,
                               value=breakdown["value"], breakdown=breakdown)

# ---------------------------------------------------------------------------
# four-dimensional special cases
# ---------------------------------------------------------------------------

def _require_signature(spec: ManifoldSpec, dims: tuple[int, ...], who: str) -> None:
    got = tuple(f.dim for f in spec.fibers)
    if got != dims:
        raise ValidationError(f"{who} requires fiber signature {dims}, got {got}")

def type1_null_curvature(spec: ManifoldSpec, p: Point, L: TangentVector,
                         S: TangentVector, path: str = "derived") -> NullCurvatureResult:
    """Single 3-dimensional fiber.  Printed form: no factor on the mixed
    term, an h^2 sign flip, and a bracket whose last factor prints
    g(V,W) where the expansion forces g(W,W)."""
    _require_signature(spec, (3,), "type1_null_curvature")
    d = _time_data(spec, p, L, S)
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    gvv, gvw, gww, r = d.gVV[0], d.gVW[0], d.gWW[0], d.rF[0]
    h = d.h
    denominator = -h * h + b * b * gww
    if path == "derived":
        terms = {
            "hess_YY": -h * h * b * ddb * gvv,
            "warp_acc_WW": -b * ddb * gww,
            "hess_mixed": -2.0 * h * b * ddb * gvw,
            "fiber_curvature": b * b * r,
            "warp_rate_bracket": b * b * db * db * (gvv * gww - gvw * gvw),
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    if path == "printed":
        terms = {
            "hess_YY": h * h * b * ddb * gvv,
            "warp_acc_WW": -b * ddb * gww,
            "hess_mixed": b * ddb * gvw,
            "fiber_curvature": b * b * r,
            "warp_rate_bracket": -b * b * db * db * (gvw * gvw - gvv * gvw),
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    raise ValidationError(f"unknown path {path!r}")

def type2_null_curvature(spec: ManifoldSpec, p: Point, L: TangentVector,
                         S: TangentVector, path: str = "derived") -> NullCurvatureResult:
    """Fiber signature (1, 2): a line fiber V_1 = f_1 d_x, W_1 = h_1 d_x
    plus a surface fiber."""
    _require_signature(spec, (1, 2), "type2_null_curvature")
    d = _time_data(spec, p, L, S)
    b1, db1, ddb1 = d.b[0], d.db[0], d.ddb[0]
    b2, db2, ddb2 = d.b[1], d.db[1], d.ddb[1]
    f1h1, f1f1, h1h1 = d.gVW[0], d.gVV[0], d.gWW[0]
    gvv, gvw, gww, r = d.gVV[1], d.gVW[1], d.gWW[1], d.rF[1]
    h = d.h
    denominator = -h * h + b1 * b1 * h1h1 + b2 * b2 * gww
    if path == "derived":
        terms = {
            "hess_mixed": -2.0 * h * (b1 * ddb1 * f1h1 + b2 * ddb2 * gvw),
            "hess_YY": -h * h * (b1 * ddb1 * f1f1 + b2 * ddb2 * gvv),
            "warp_acc_WW": -(b1 * ddb1 * h1h1 + b2 * ddb2 * gww),
            "cross_fiber_VV_WW": b1 * db1 * b2 * db2 * (f1f1 * gww + h1h1 * gvv),
            "cross_fiber_VW_VW": -2.0 * b1 * db1 * b2 * db2 * f1h1 * gvw,
            "fiber_curvature": b2 * b2 * r,
            "warp_rate_bracket": b2 * b2 * db2 * db2 * (gvv * gww - gvw * gvw),
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    if path == "printed":
        terms = {
            "line_mixed_lead": b1 * f1h1 * h * ddb1,
            "hess_YY": b2 * h * h * ddb2 * gvv,
            "warp_acc_WW": -(b1 * ddb1 * h1h1 + b2 * ddb2 * gww),
            "line_mixed_trail": b1 * f1h1 * h * ddb1,
            "hess_mixed": b2 * ddb2 * gvw,
            "fiber_curvature": b2 * b2 * r,
            "warp_rate_bracket": -b2 * b2 * db2 * db2 * (gvw * gvw - gvv * gww),
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    raise ValidationError(f"unknown path {path!r}")

def type3_null_curvature(spec: ManifoldSpec, p: Point, L: TangentVector,
                         S: TangentVector, path: str = "derived") -> NullCurvatureResult:
    """Three line fibers with Kasner warpings; exponents must satisfy
    sum p_i = sum p_i^2 = 1 (checked to 1e-12).  The printed display's
    first term drops its curvature factor entirely and its displayed
    g(S,S) is missing the plus between the base and fiber norms."""
    _require_signature(spec, (1, 1, 1), "type3_null_curvature")
    ps = spec.kasner_exponents
    if ps is None:
        raise ConstraintError("type3 requires Kasner exponents")
    if abs(sum(ps) - 1.0) > 1e-12 or abs(sum(q * q for q in ps) - 1.0) > 1e-12:
        raise ConstraintError(
            f"Kasner constraint violated: sum p = {sum(ps)}, "
            f"sum p^2 = {sum(q * q for q in ps)}")
    d = _time_data(spec, p, L, S)
    idx = range(3)
    f = d.h
    # line fibers: V_i = f_i d_x, W_i = h_i d_x; signed coefficients
    comps_v = [float(vpart[0]) for vpart in _oriented_components(spec, p, L)]
    comps_w = [float(wpart[0]) for wpart in S.fiber_parts]

    if path == "derived":
        terms = {
            "hess_mixed": -2.0 * f * sum(
                d.b[i] * d.ddb[i] * comps_v[i] * comps_w[i] for i in idx),
            "hess_YY": -f * f * sum(
                d.b[i] * d.ddb[i] * comps_v[i] ** 2 for i in idx),
            "warp_acc_WW": -sum(d.b[j] * d.ddb[j] * comps_w[j] ** 2 for j in idx),
            "cross_fiber_VV_WW": sum(
                d.b[i] * d.db[i] * d.b[j] * d.db[j]
                * comps_v[i] ** 2 * comps_w[j] ** 2
                for i in idx for j in idx if i != j),
            "cross_fiber_VW_VW": -sum(
                d.b[i] * d.db[i] * d.b[j] * d.db[j]
                * comps_v[i] * comps_w[i] * comps_v[j] * comps_w[j]
                for i in idx for j in idx if i != j),
        }
        denominator = -f * f + sum(d.b[j] ** 2 * comps_w[j] ** 2 for j in idx)
        return NullCurvatureResult.from_terms(terms, denominator)

    if path == "printed":
        phi, _, _ = scalar_derivatives(spec.phi.fn, float(p.t))
        terms = {
            "lead_fh": -sum(phi ** ps[i] * comps_v[i] * comps_w[i] for i in idx),
            "hess_YY": sum(
                phi ** ps[k] * comps_v[k] ** 2 * f * f
                * ps[k] * (ps[k] - 1.0) * phi ** (ps[k] - 2.0) for k in idx),
            "warp_acc_WW": -sum(
                ps[j] * (ps[j] - 1.0) * phi ** (ps[j] - 2.0)
                * phi ** ps[j] * comps_w[j] ** 2 for j in idx),
            "hess_mixed": sum(
                phi ** ps[i] * comps_v[i] * comps_w[i] * f
                * ps[i] * (ps[i] - 1.0) * phi ** (ps[i] - 2.0) for i in idx),
            "cross_fiber_VV_WW": -sum(
                phi ** ps[k] * comps_v[k] ** 2 * ps[j] ** 2
                * phi ** (2.0 * ps[j] - 2.0) * comps_w[j] ** 2
                for j in idx for k in idx if j != k),
        }
        denominator = -f * f * sum(
            phi ** (2.0 * ps[j]) * comps_w[j] ** 2 for j in idx)
        numerator = float(sum(terms.values()))
        breakdown = dict(terms)
        breakdown["numerator"] = numerator
        breakdown["denominator"] = denominator
        breakdown["value"] = (numerator / denominator
                              if abs(denominator) > 1e-300 else math.nan)
        return NullCurvatureResult(numerator=numerator, denominator=denominator,
                                   value=breakdown["value"], breakdown=breakdown)
    raise ValidationError(f"unknown path {path!r}")

def _oriented_components(spec: ManifoldSpec, p: Point, L: TangentVector):
    return _oriented_time_L(spec, p, L, 1.0).fiber_parts

# ---------------------------------------------------------------------------
# standard static evaluator
# ---------------------------------------------------------------------------

def ssst_null_curvature(spec: ManifoldSpec, p: Point, plane: NullPlane,
                        path: str = "derived") -> NullCurvatureResult:
    """Standard static closed form on a plane normalized with U = f^-1 d_t.

    Derived numerator:
        f h^2 H(V,V) + 2 h H(V,W) + H(W,W)/f + g_F(R_F(V,W)W, V)
    with H the potential's fiber Hessian.  The printed corollary keeps a
    gradient-squared term that vanishes identically for time-directed Y,
    drops the mixed Hessian pair as if it cancelled, and orders the fiber
    curvature slots so its curvature term enters with the opposite sign;
    its unit-normalized display additionally flips the H(W,W) sign
    (``path='printed_unit_s'``, meaningful on planes with g(S,S) = 1).
    """
    if spec.kind != "SSST":
        raise ValidationError("ssst_null_curvature requires kind='SSST'")
    plane.validate(tol=1e-9)
    p.validate(spec)
    f = spec.potential_value(p.fiber_coords[0])
    L = plane.L
    a = float(L.base_part)
    if abs(abs(a) - 1.0 / f) > _SHAPE_TOL:
        raise ShapeError(
            f"L must have base coefficient +-1/f = {1.0 / f:.6g}, got {a:.6g}")
    if a > 0:
        L = -L
    S = plane.S
    h = float(S.base_part)

    geom = geometry(spec)
    bp, _ = geom.struct_point(p)
    wd = geom.warp_bundle(bp)[0]
    fib = geom.spec.fibers[0]
    v = np.asarray(L.fiber_parts[0], float)
    w = np.asarray(S.fiber_parts[0], float)
    G = fib.metric_matrix(p.fiber_coords[0])
    hvv = float(v @ wd.hess @ v)
    hvw = float(v @ wd.hess @ w)
    hww = float(w @ wd.hess @ w)
    gww = float(w @ G @ w)
    rf = _spatial_curvature_quadratic(spec, p, v, w, G)
    denominator = -f * f * h * h + gww
    # the gradient-squared prefactor multiplies
    # (g_I(Y, d_t)^2 + g_I(Y, Y)) = h^2 - h^2, identically zero for a
    # time-directed base part
    grad_bracket = 0.0

    if path == "derived":
        terms = {
            "grad_sq": grad_bracket,
            "hess_VV": f * h * h * hvv,
            "hess_VW": 2.0 * h * hvw,
            "hess_WW": hww / f,
            "fiber_curvature": rf,
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    if path == "printed":
        terms = {
            "grad_sq": -wd.grad_sq * grad_bracket,
            "hess_VV": f * h * h * hvv,
            "hess_VW": 0.0,
            "hess_WW": hww / f,
            "fiber_curvature": -rf,
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    if path == "printed_unit_s":
        terms = {
            "grad_sq": -wd.grad_sq * grad_bracket,
            "hess_VV": f * h * h * hvv,
            "hess_VW": 0.0,
            "hess_WW": -hww / f,
            "fiber_curvature": -rf,
        }
        return NullCurvatureResult.from_terms(terms, denominator)
    raise ValidationError(f"unknown path {path!r}")

def _spatial_curvature_quadratic(spec: ManifoldSpec, p: Point, v, w, G) -> float:
    """g_F(R_F(V,W)W, V) on the static model's spatial factor."""
    fib = spec.fibers[0]
    k = fib.constant_curvature
    if k is not None:
        gvv = float(v @ G @ v)
        gvw = float(v @ G @ w)
        gww = float(w @ G @ w)
        return k * (gvv * gww - gvw * gvw)
    # the spatial factor is the structural base, whose chart tensors are
    # cached per point
    geom = geometry(spec)
    bp, _ = geom.struct_point(p)
    rww = geom.base.riemann(bp, v, w, w)
    return float(rww @ G @ v)

def ssst_remark_value(spec: ManifoldSpec, p: Point, plane: NullPlane,
                      path: str = "derived") -> float:
    """Base-free (Y = 0) static value: K_F(V,W) +- H(W,W)/(f g_F(W,W)).

    The published remark subtracts the Hessian ratio; the oracle fixes the
    sign to plus.  Under H = k f g_F the derived value is K_F + k."""
    if abs(float(plane.S.base_part)) > _SHAPE_TOL:
        raise ValidationError("remark form applies to planes with no base part")
    f = spec.potential_value(p.fiber_coords[0])
    geom = geometry(spec)
    bp, _ = geom.struct_point(p)
    wd = geom.warp_bundle(bp)[0]
    fib = spec.fibers[0]
    G = fib.metric_matrix(p.fiber_coords[0])
    v = np.asarray(plane.L.fiber_parts[0], float)
    w = np.asarray(plane.S.fiber_parts[0], float)
    gvv = float(v @ G @ v)
    gvw = float(v @ G @ w)
    gww = float(w @ G @ w)
    hww = float(w @ wd.hess @ w)
    qf = gvv * gww - gvw * gvw
    kf = _spatial_curvature_quadratic(spec, p, v, w, G) / qf
    ratio = hww / (f * gww)
    return kf + ratio if path == "derived" else kf - ratio

# ---------------------------------------------------------------------------
# dispatch, paths, and the isotropy diagnostic
# ---------------------------------------------------------------------------

def formula_paths(spec: ManifoldSpec) -> tuple[str, ...]:
    """Formula paths available for this spec's specialized evaluator."""
    if spec.kind == "SSST":
        return ("derived", "printed", "printed_unit_s")
    if spec.kind == "Kasner":
        return ("derived", "printed")
    if spec.kind == "GRW":
        return ("derived", "printed")
    if spec.kind == "MGRW":
        return ("derived", "printed", "printed_corollary")
    return ("derived",)

def specialized_null_curvature(spec: ManifoldSpec, plane: NullPlane,
                               path: str = "derived") -> NullCurvatureResult:
    """Route a plane to the model's specialized closed-form evaluator."""
    p = plane.point
    if spec.kind == "SSST":
        return ssst_null_curvature(spec, p, plane, path=path)
    if spec.kind == "GRW":
        return grw_null_curvature(spec, p, plane, path=path)
    if spec.kind == "Kasner":
        return kasner_null_curvature(spec, p, plane.L, plane.S, path=path)
    if spec.kind == "MGRW":
        return mgrw_null_curvature(spec, p, plane.L, plane.S, path=path)
    if path != "derived":
        raise ValidationError(f"{spec.kind} has no printed closed form")
    return null_curvature_generic(spec, plane)

def isotropy_summary(values) -> dict:
    """Mean K over a set of planes at one point and the largest deviation
    from it: the frame-isotropy diagnostic of :func:`isotropy_scan`."""
    arr = np.asarray(values)
    mean = float(arr.mean())
    return {"mean": mean,
            "max_deviation": float(np.max(np.abs(arr - mean))),
            "n_planes": len(values)}

def isotropy_scan(spec: ManifoldSpec, p: Point, U: TangentVector | None,
                  n_planes: int, seed: int) -> dict:
    """Sample n_planes degenerate planes in the congruence of U and report
    the mean K and the largest deviation from it.  A diagnostic for the
    frame-isotropy property of Robertson-Walker-like models."""
    rng = np.random.default_rng(np.uint64(seed))
    frame = U if U is not None else default_frame(spec, p)
    values = []
    for _ in range(int(n_planes)):
        plane = sample_plane(spec, p, rng, frame_U=frame)
        values.append(null_curvature_generic(spec, plane).value)
    return isotropy_summary(values)
