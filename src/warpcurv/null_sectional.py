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

The closed forms live in one table: each display has its paths (path ->
term function) and its guards as data (the model kinds it describes, a
single fiber, a fiber signature, the Kasner constraint, a base-free
plane).  The multi-fiber derived sum is written once and serves MGRW,
Kasner and the type 2/3 displays; the single-fiber sum serves GRW and
type 1.  :func:`closed_form` evaluates any display on a plane;
``formula_paths`` and ``specialized_null_curvature`` read the displays
named after the model kinds.

Breakdown keys are shared between paths so mismatches line up term by
term.  All sampling is deterministic given a 64-bit seed.  Every function
taking a point also takes its :class:`~warpcurv.core_types.PointContext`,
and a plane from :func:`sample_plane` carries the context it was drawn
at, which the evaluators reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._frozen import Frozen, set_field
from .core_types import (_TIME_BASE_KINDS, ManifoldSpec, NullPlane, Point,
                         PointContext, TangentVector, _lanes, _Metric,
                         all_finite, components, flatten, split, tangent)
from .errors import (ConstraintError, ConstructionError, PlaneError,
                     ShapeError, ValidationError)
from .tensor_oracle import riemann_apply

__all__ = [
    "NullCurvatureResult",
    "default_frame",
    "normalize_null",
    "make_degenerate_plane",
    "sample_plane",
    "sample_planes",
    "null_curvature_generic",
    "closed_form",
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
        if denominator <= 0.0:
            raise PlaneError(f"denominator g(S,S) = {denominator} is not positive")
        res = cls.unchecked(terms, float(denominator), 0.0)
        res.breakdown.update(extra or {})
        return res

    @classmethod
    def unchecked(cls, terms: dict, denominator: float,
                  tiny: float) -> "NullCurvatureResult":
        """As :meth:`from_terms` for a printed display whose denominator may
        vanish or turn negative: the value is NaN where |denominator| <= tiny."""
        numerator = float(sum(terms.values()))
        value = numerator / denominator if abs(denominator) > tiny else math.nan
        breakdown = dict(terms, numerator=numerator, denominator=denominator,
                         value=value)
        return cls(numerator=numerator, denominator=denominator, value=value,
                   breakdown=breakdown)

# ---------------------------------------------------------------------------
# congruence and plane construction
# ---------------------------------------------------------------------------

def default_frame(spec: ManifoldSpec, p: Point | PointContext) -> TangentVector:
    """The model's unit timelike reference frame at p."""
    if spec.kind == "SSST":
        f = PointContext.of(spec, p).warps[0]
        return TangentVector.base_direction(spec, 1.0 / f)
    return TangentVector.base_direction(spec, 1.0)

def normalize_null(spec: ManifoldSpec, p: Point | PointContext,
                   U: TangentVector, direction: TangentVector) -> TangentVector:
    """The element of the null congruence of U pointing along ``direction``.

    Solves for L with g(L,L) = 0 and g(L,U) = -1: the U-orthogonal part of
    ``direction`` fixes the spatial direction, the normalization fixes both
    scale factors uniquely (:func:`_complete_null` at a batch of one).  A
    non-finite direction or frame raises PlaneError.  L's components are
    Python floats.
    """
    g = PointContext.of(spec, p)
    U.validate(spec)
    direction.validate(spec)
    form, (u, d) = _one_plane(g, U, direction)
    g_UU = _frame_norm(form, u)
    with np.errstate(over="ignore", invalid="ignore"):
        l, g_DU, n2, finite, spacelike = _complete_null(form, u, g_UU, d)
    if not finite[0]:
        raise _direction_not_finite(g_DU[0], n2[0])
    if not spacelike[0]:
        raise ConstructionError(
            "direction has no spacelike part; cannot complete to a null vector")
    return _vector(spec, l)

def make_degenerate_plane(spec: ManifoldSpec, p: Point | PointContext,
                          L: TangentVector, S_candidate: TangentVector,
                          frame_U: TangentVector | None = None) -> NullPlane:
    """Project S_candidate onto the degenerate configuration g(L,S) = 0.

    The unique frame-direction correction is removed from S_candidate
    (:func:`_project` at a batch of one); the result must come out
    spacelike and independent of L.  L may carry either time orientation
    (the curvature of the plane is quadratic in L); the frame is attached
    to the plane only when L actually satisfies the congruence
    normalization g(L,U) = -1.  A frame that is not timelike raises
    ValidationError (as in :func:`normalize_null`); non-finite inputs
    raise PlaneError.  The plane's vectors and g-values are Python floats.
    """
    g = PointContext.of(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, g)
    for v in (L, S_candidate, U):
        v.validate(spec)
    form, (l, s_cand, u) = _one_plane(g, L, S_candidate, U)
    g_UU = _frame_norm(form, u)
    with np.errstate(over="ignore", invalid="ignore"):
        s, g_LL, g_LU, g_LS, g_SS, refused, normalized = _project(
            form, l, u, g_UU, s_cand, True)
        values = np.concatenate([g_LL, g_LU, g_UU, g_LS, g_SS]).tolist()
        if refused[0]:
            raise PlaneError(_REFUSALS[refused[0] - 1].format(*values))
        return _plane(g, _vector(spec, l), _vector(spec, s),
                      _vector(spec, u) if normalized[0] else None, values[0],
                      form(l, s).tolist()[0], values[4], values[1])

# The plane arithmetic runs on lanes, one float64 array per scalar
# (core_types): the batched try runs it on a batch of planes,
# normalize_null and make_degenerate_plane on one.

def _one_plane(g: PointContext, *vectors: TangentVector):
    """The metric at g and each vector's flat components as lanes, for a
    batch of one plane."""
    one = np.zeros(1, dtype=np.intp)
    return _Metric(g.spec, [g], one), [_lanes([components(v)], one)
                                       for v in vectors]

def _vector(spec: ManifoldSpec, lanes: list) -> TangentVector:
    """The tangent vector of a batch of one plane's lanes, its components
    Python floats."""
    return tangent(spec, tuple(np.concatenate(lanes).tolist()))

def _frame_norm(form: _Metric, u: list) -> np.ndarray:
    """g(U, U) per plane; the first frame U that is not timelike, or not
    finite, raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        g_UU = form(u, u)
    bad = ~(np.isfinite(g_UU) & (g_UU < 0.0))
    if bad.any():
        g_UU = g_UU.tolist()[int(bad.argmax())]
        if not all_finite(g_UU):
            raise PlaneError(f"frame is not finite: g(U,U) = {g_UU}")
        raise ValidationError(f"frame must be timelike, g(U,U) = {g_UU}")
    return g_UU

def _direction_not_finite(g_DU: float, n2: float) -> PlaneError:
    return PlaneError(f"direction is not finite: g(D,U) = {g_DU}, "
                      f"g(D_perp,D_perp) = {n2}")

def _complete_null(form: _Metric, u: list, g_UU: np.ndarray, d: list):
    """The null L = beta U + gamma D_perp with g(L,U) = -1, D_perp the
    U-orthogonal part of the direction d: (L, g(D,U), g(D_perp,D_perp),
    where those two are finite, where D_perp is spacelike).  A plane whose
    direction is not finite goes on from a zero D_perp, and one whose
    D_perp is not spacelike from a spared g(D_perp,D_perp)."""
    with np.errstate(invalid="ignore"):
        g_DU = form(d, u)
        c = g_DU / g_UU
        d_perp = [a - c * b for a, b in zip(d, u)]
        n2 = form(d_perp, d_perp)
    finite = np.isfinite(g_DU) & np.isfinite(n2)
    if not finite.all():
        d_perp = [np.where(finite, a, 0.0) for a in d_perp]
    spacelike = finite & ~(n2 <= 1e-24)
    beta = -1.0 / g_UU
    gamma = np.sqrt(-1.0 / (g_UU * np.where(spacelike, n2, 1.0)))
    l = [beta * a + gamma * b for a, b in zip(u, d_perp)]
    return l, g_DU, n2, finite, spacelike

# what _project refuses, in the order it checks, with the values it reads:
# g(L,L), g(L,U), g(U,U), g(L,S_candidate), g(S,S)
_REFUSALS = (
    "L or the frame is not finite: g(L,L) = {0}, g(L,U) = {1}, g(U,U) = {2}",
    "L is not null: g(L,L) = {0:.3e}",
    "frame is orthogonal to L; cannot project",
    "S is not finite: g(L,S) = {3}, g(S,S) = {4}",
    "projected S is not spacelike (g(S,S) = {4:.3e}); "
    "candidate was parallel to L or timelike")

def _project(form: _Metric, l: list, u: list, g_UU: np.ndarray,
             s_cand: list, live):
    """S = S_candidate - (g(L,S_candidate) / g(L,U)) U, so g(L,S) = 0:
    (S, g(L,L), g(L,U), g(L,S_candidate), g(S,S), per plane the number of
    the first check of :data:`_REFUSALS` it fails or 0, and where
    g(L,U) = -1).  The divisor of a plane not ``live``, or refused before
    the division, is spared."""
    g_LL = form(l, l)
    g_LU = form(l, u)
    scale = np.where(np.abs(g_UU) > 1.0, np.abs(g_UU), 1.0)
    checks = [np.isfinite(g_LL) & np.isfinite(g_LU) & np.isfinite(g_UU),
              ~(np.abs(g_LL) > 1e-9 * scale), ~(np.abs(g_LU) < 1e-12)]
    g_LS = form(l, s_cand)
    c = g_LS / np.where(live & np.logical_and.reduce(checks), g_LU, 1.0)
    s = [a - c * b for a, b in zip(s_cand, u)]
    g_SS = form(s, s)
    checks += [np.isfinite(g_LS) & np.isfinite(g_SS),
               ~(g_SS <= 1e-12 * scale)]
    checks = np.array(checks)
    refused = np.where(checks.all(axis=0), 0, checks.argmin(axis=0) + 1)
    return (s, g_LL, g_LU, g_LS, g_SS, refused,
            np.abs(g_LU + 1.0) <= 1e-9)

def _plane(g: PointContext, L: TangentVector, S: TangentVector,
           U: TangentVector | None, g_LL: float, g_LS: float, g_SS: float,
           g_LU: float) -> NullPlane:
    """The validated plane span(L, S) at g with the g-values
    :meth:`PointContext.plane` computes; g(L,U) is kept only with a frame."""
    plane = NullPlane(point=g.point, L=L, S=S, frame_U=U, g_LL=g_LL,
                      g_LS=g_LS, g_SS=g_SS,
                      g_LU=g_LU if U is not None else -1.0, context=g)
    plane.validate(tol=1e-9)
    return plane

def sample_plane(spec: ManifoldSpec, p: Point | PointContext, rng,
                 frame_U: TangentVector | None = None,
                 base_free: bool = False) -> NullPlane:
    """One random degenerate plane in the congruence of the frame at p:
    :func:`sample_planes` at a batch of one."""
    return sample_planes(spec, [p], [rng], frame_U, base_free)[0]

def sample_planes(spec: ManifoldSpec, contexts, rngs,
                  frame_U: TangentVector | None = None,
                  base_free: bool = False) -> list[NullPlane]:
    """A random degenerate plane at each of ``contexts`` (contexts or
    points), drawn from the generator at the same position of ``rngs``.

    A plane lies in the congruence of ``frame_U``, else of the default
    frame at its point.  Each of at most 32 tries draws a spatial direction
    isotropically in the warped fiber metric and completes it to a null L
    (as :func:`normalize_null` does), then draws a second spatial vector W
    and builds S from it.  With ``base_free=True`` the spacelike leg S is
    W made g-orthogonal to the spatial part of L, so it stays purely
    spatial (the degeneracy condition is then solved inside the fiber
    block), the configuration the published base-free special cases
    assume; otherwise S is W plus a random multiple of the frame,
    projected as in :func:`make_degenerate_plane`.  Refused before any
    draw: with ``base_free=True``, a ``frame_U`` with a fiber (spatial)
    part, since a base-free S is g-orthogonal to L only where it is to the
    frame; a spacetime of dimension 2, which has no degenerate plane, and
    fibers of dimension 1 in all, since L and S are drawn in the fibers;
    a frame that is not timelike, or not finite (:class:`PlaneError`).
    A plane carries its point's context; every component of its L, S and
    frame and every g-value is a Python float.

    The planes are those of one plane drawn at a time, in order, bit for
    bit, and each generator ends where it would: a generator may feed
    several planes, and then draws for them in order.  They are drawn in
    rounds, each one try of every pending plane (:func:`_tries`).  After a
    rejected try, its generator is set back to its state before the round
    and draws again what its planes drew that round up to that try; its
    later planes wait for the next round.  An overflow raises
    ``FloatingPointError``.
    """
    label = repr(spec.name) if spec.name else f"this {spec.kind} spacetime"
    if spec.dim < 3:
        raise ValidationError(
            f"a degenerate plane needs a spacetime of dimension at least 3, "
            f"but {label} has dimension {spec.dim}")
    total = spec.dim - spec.base_dim
    if total < 2:
        raise ValidationError(
            f"the sampler draws the spatial directions of L and S in the "
            f"fibers, which need dimension at least 2 in all, but the fibers "
            f"of {label} have dimension {total}")
    gs = [PointContext.of(spec, p) for p in contexts]
    rngs = list(rngs)
    if len(rngs) != len(gs):
        raise ValidationError(f"{len(gs)} points but {len(rngs)} generators")
    if frame_U is not None:
        frame_U.validate(spec)
        if base_free and any(c != 0.0 for part in frame_U.fiber_parts
                             for c in part):
            raise ValidationError(
                "base_free=True needs a frame_U along the base, but frame_U "
                f"has the fiber part {frame_U.fiber_parts}: no base-free S "
                "is then orthogonal to L")
        frame_U = split(flatten(frame_U), spec)  # Python float components
    if not gs:
        return []
    if frame_U is None and spec.kind == "SSST":
        # the static frame, 1/f along t, is the one that depends on the point
        frame_at = {key: default_frame(spec, g)
                    for key, g in {id(g): g for g in gs}.items()}
        frames = [frame_at[id(g)] for g in gs]
    else:
        U = frame_U if frame_U is not None else default_frame(spec, gs[0])
        frames = [U] * len(gs)
    planes = [None] * len(gs)
    tries = [0] * len(gs)
    failed = len(gs), None  # the first plane that raises, and its error
    pending = range(len(gs))
    while pending:
        batch = {id(rngs[k]): rngs[k] for k in pending}
        saved = {key: rng.bit_generator.state for key, rng in batch.items()}
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            outcomes, spacelike = _tries(
                spec, [gs[k] for k in pending], [frames[k] for k in pending],
                [rngs[k] for k in pending], base_free)
        kept: dict = {}  # per generator, its planes accepted this round
        for k, out, drew_w in zip(pending, outcomes, spacelike):
            rng = rngs[k]
            n_kept = kept.setdefault(id(rng), 0)
            if n_kept is None:  # rewound: drawn again in the next round
                continue
            if isinstance(out, NullPlane):
                planes[k] = out
                kept[id(rng)] = n_kept + 1
                continue
            rng.bit_generator.state = saved[id(rng)]
            for _ in range(n_kept):
                _try_draws(rng, total, base_free)
            _try_draws(rng, total, base_free, drew_w)
            kept[id(rng)] = None
            tries[k] += 1
            if out is None and tries[k] == 32:
                out = PlaneError(
                    "could not sample a valid degenerate plane in 32 tries")
            if out is not None and k < failed[0]:
                failed = k, out
        pending = [k for k in pending if planes[k] is None and k < failed[0]]
    if failed[1] is not None:
        raise failed[1]
    return planes

def _try_draws(rng, total: int, base_free: bool, spacelike: bool = True):
    """What one try of a plane draws, in order: the ``total`` fiber normals
    of its direction, then W's, then the uniform (NaN if ``base_free``).
    A try whose direction has no spacelike part draws the direction's
    alone."""
    if not spacelike:
        return rng.standard_normal(total), math.nan
    normals = rng.standard_normal(2 * total)
    return normals, math.nan if base_free else rng.uniform(-1.0, 1.0)

def _tries(spec: ManifoldSpec, gs: list, frames: list, rngs: list,
           base_free: bool) -> tuple[list, list]:
    """One try of every plane at once.  Per plane: the plane where it is
    accepted, the :class:`PlaneError` it raises where its direction is not
    finite, else None; and whether its direction had a spacelike part.

    The first bad frame raises :func:`_frame_norm`'s error before any
    draw.  Then each generator draws a whole try per plane it feeds, in
    order; the solves with the Cholesky factors are one stacked ``solve``
    per fiber dimension.  L is :func:`_complete_null`'s, and S
    :func:`_project`'s unless ``base_free``.  Every component of L and S
    and every g-value of a plane is a Python float."""
    n = len(gs)
    index: dict = {}
    inv = np.array([index.setdefault(id(g), len(index)) for g in gs])
    uniq, uframes = zip(*{id(g): (g, U) for g, U in zip(gs, frames)}
                        .values())
    form = _Metric(spec, uniq, inv)
    u = _lanes([components(U) for U in uframes], inv)
    g_UU = _frame_norm(form, u)

    PointContext.fill_chol_t(uniq)
    dims = [f.dim for f in spec.fibers]
    total = sum(dims)
    normals = np.empty((n, 2 * total))
    uniform = np.empty(n)
    for k, rng in enumerate(rngs):
        normals[k], uniform[k] = _try_draws(rng, total, base_free)

    # parts[h][i]: fiber i's components of the direction (h = 0) or of W
    parts = [[None] * spec.m, [None] * spec.m]
    starts = np.cumsum([0] + dims)
    for dim in sorted(set(dims)):
        fibers = [i for i in range(spec.m) if dims[i] == dim]
        chol = [np.array([g.chol_t[i] for g in uniq])[inv] for i in fibers]
        b = [normals[:, h * total + starts[i]:h * total + starts[i] + dim]
             for h in (0, 1) for i in fibers]
        x = np.linalg.solve(np.concatenate(chol * 2),
                            np.concatenate(b)[..., None])[..., 0]
        for q, (h, i) in enumerate((h, i) for h in (0, 1) for i in fibers):
            parts[h][i] = x[q * n:(q + 1) * n]
    if spec.kind != "SSST":  # SSST's one fiber is unwarped
        parts = [[p / form.warps[:, i:i + 1] for i, p in enumerate(ps)]
                 for ps in parts]
    zero = np.zeros(n)
    d, w = ([zero] * spec.base_dim
            + [p[:, j] for p in ps for j in range(p.shape[1])]
            for ps in parts)

    l, g_DU, n2, finite, spacelike = _complete_null(form, u, g_UU, d)
    if base_free:
        g_LL = form(l, l)
        g_LU = form(l, u)
        c = g_LU / g_UU
        v = [a - c * b for a, b in zip(l, u)]
        c = form(v, w) / np.where(spacelike, form(v, v), 1.0)
        s = [a - c * b for a, b in zip(w, v)]
        g_SS = form(s, s)
        ok = spacelike & ~(g_SS <= 1e-12)
        normalized = np.ones(n, dtype=bool)
    else:
        g_ww = form(w, w)
        w_norm = np.sqrt(np.where(0.0 > g_ww, 0.0, g_ww))
        h = 0.9 * uniform * w_norm
        s_cand = [h * a + b for a, b in zip(u, w)]
        s, g_LL, g_LU, _, g_SS, refused, normalized = _project(
            form, l, u, g_UU, s_cand, spacelike)
        ok = spacelike & (refused == 0)
    g_LS = form(l, s)

    ls = list(zip(*(a.tolist() for a in l)))
    ss = list(zip(*(a.tolist() for a in s)))
    g_values = zip(g_LL.tolist(), g_LS.tolist(), g_SS.tolist(), g_LU.tolist())
    planes = []
    for k, (g, U, values) in enumerate(zip(gs, frames, g_values)):
        plane = None
        if not finite[k]:
            plane = _direction_not_finite(g_DU[k], n2[k])
        elif ok[k]:
            try:
                plane = _plane(g, tangent(spec, ls[k]), tangent(spec, ss[k]),
                               U if normalized[k] else None, *values)
            except PlaneError:
                pass
        planes.append(plane)
    return planes, spacelike.tolist()

# ---------------------------------------------------------------------------
# reference evaluator (the case formulas' curvature tensor, contracted)
# ---------------------------------------------------------------------------

def null_curvature_generic(spec: ManifoldSpec, plane: NullPlane) -> NullCurvatureResult:
    """K = R(L,S,S,L) / g(S,S) from the curvature case formulas.

    The plane's context holds g(R(d_a, d_b) d_c, d_d), assembled once per
    point from the case formulas
    (:func:`~warpcurv.warped_formulas.riemann_tensor`), so each plane is
    one contraction.  This is the reference path every specialized
    evaluator is tested against; it works for every spec kind, including
    generic base charts.
    """
    plane.validate(tol=1e-9)
    # the context the plane was built at, else a new one at its point
    ctx = PointContext.of(spec, plane.context or plane.point)
    plane.L.validate(spec)
    plane.S.validate(spec)
    l, s = np.array(flatten(plane.L)), np.array(flatten(plane.S))
    numerator = float(l @ (ctx.riemann_tensor @ l @ s @ s))
    denominator = plane.g_SS
    return NullCurvatureResult(
        numerator=numerator, denominator=denominator,
        value=numerator / denominator,
        breakdown={"numerator": numerator, "denominator": denominator,
                   "value": numerator / denominator})

# ---------------------------------------------------------------------------
# the closed forms: one table of displays
# ---------------------------------------------------------------------------

def _oriented_time_L(L: TangentVector, unit: float) -> TangentVector:
    """Validate that L has base coefficient +-unit and return the -unit
    representative (K is quadratic in L, so the flip is value-neutral)."""
    a = float(L.base_part)
    if abs(abs(a) - unit) > _SHAPE_TOL * max(1.0, unit):
        raise ShapeError(
            f"L must have base coefficient +-{unit:.6g}, got {a:.6g}")
    return L if a < 0 else -L

class _TimeData(Frozen):
    """Per-fiber scalars entering the time-base closed forms, on a plane
    with L = -d_t + sum V_i and S = h d_t + sum W_j."""

    __slots__ = ("b", "db", "ddb", "gVV", "gVW", "gWW", "rF", "h", "v", "w",
                 "ps", "phi")

    def __init__(self, b: tuple, db: tuple, ddb: tuple, gVV: tuple,
                 gVW: tuple, gWW: tuple,
                 rF: tuple,           # g_F(R_F(V,W)W, V) per fiber
                 h: float,            # base coefficient of S
                 v: tuple,            # fiber parts of L (base coefficient -1)
                 w: tuple,            # fiber parts of S, as tuples
                 ps: tuple | None,    # Kasner exponents
                 phi: float | None):  # Kasner scale phi(t)
        set_field(self, "b", b)
        set_field(self, "db", db)
        set_field(self, "ddb", ddb)
        set_field(self, "gVV", gVV)
        set_field(self, "gVW", gVW)
        set_field(self, "gWW", gWW)
        set_field(self, "rF", rF)
        set_field(self, "h", h)
        set_field(self, "v", v)
        set_field(self, "w", w)
        set_field(self, "ps", ps)
        set_field(self, "phi", phi)

    @property
    def g_SS(self) -> float:
        return -self.h * self.h + sum(
            self.b[j] ** 2 * self.gWW[j] for j in range(len(self.b)))

def _time_data(ctx: PointContext, plane: NullPlane) -> _TimeData:
    """The time-base closed forms' inputs; the plane is validated after
    L's shape is checked."""
    spec = ctx.spec
    L, S = plane.L, plane.S
    L.validate(spec)
    S.validate(spec)
    L = _oriented_time_L(L, 1.0)
    plane.validate(tol=1e-9)
    b, db, ddb, gvv, gvw, gww, rf, vs, ws = [], [], [], [], [], [], [], [], []
    for i, (fiber, wd) in enumerate(zip(spec.fibers, ctx.warp_bundle)):
        G = ctx.fiber_metrics[i]
        v = np.asarray(L.fiber_parts[i], float)
        w = np.asarray(S.fiber_parts[i], float)
        b.append(wd.value)
        db.append(float(wd.dcomps[0]))
        ddb.append(float(wd.hess[0, 0]))
        gvv.append(float(v @ G @ v))
        gvw.append(float(v @ G @ w))
        gww.append(float(w @ G @ w))
        # R_F(V, W) W
        if fiber.dim == 1:
            rcomp = np.zeros(1)
        elif fiber.constant_curvature is not None:
            rcomp = fiber.constant_curvature * (gww[-1] * v - gvw[-1] * w)
        else:
            rcomp = riemann_apply(ctx.fiber_tensors(i), v, w, w)
        rf.append(float(rcomp @ G @ v))
        vs.append(L.fiber_parts[i])
        ws.append(S.fiber_parts[i])
    phi = None if spec.phi is None else float(spec.phi.fn(ctx.base_point[0]))
    return _TimeData(tuple(b), tuple(db), tuple(ddb), tuple(gvv), tuple(gvw),
                     tuple(gww), tuple(rf), float(S.base_part), tuple(vs),
                     tuple(ws), spec.kasner_exponents, phi)

def _multi_derived(d: _TimeData) -> NullCurvatureResult:
    """The oracle-verified multi-fiber sum (MGRW, Kasner, types 2 and 3).
    On Kasner it carries the full chain rule: phi' and phi'' enter every
    differentiated warping phi**p_i through b' and b''."""
    idx = range(len(d.b))
    h = d.h
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
    return NullCurvatureResult.from_terms(terms, d.g_SS)

def _single_derived(d: _TimeData) -> NullCurvatureResult:
    """The oracle-verified single-fiber sum (GRW and type 1); it keeps the
    mixed Hessian pair as one ``hess_mixed`` term."""
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    gvv, gvw, gww, r = d.gVV[0], d.gVW[0], d.gWW[0], d.rF[0]
    h = d.h
    terms = {
        "warp_acc_WW": -b * ddb * gww,
        "fiber_curvature": b * b * r,
        "hess_YY": -b * ddb * h * h * gvv,
        "hess_mixed": -2.0 * b * ddb * h * gvw,
        "warp_rate_bracket": b * b * db * db * (gvv * gww - gvw * gvw),
    }
    return NullCurvatureResult.from_terms(terms, -h * h + b * b * gww)

# the printed displays, transcribed literally, typos included

def _mgrw_printed(d: _TimeData) -> NullCurvatureResult:
    """The published MGRW theorem display."""
    idx = range(len(d.b))
    h = d.h
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
    # the companion derivation sketch prints the denominator as a
    # product of the base and fiber norms; recorded for the ledger
    alt = sum(d.b[j] ** 2 * (-h * h) * d.gWW[j] for j in idx)
    return NullCurvatureResult.from_terms(
        terms, d.g_SS, extra={"denominator_alt_product": alt})

def _mgrw_corollary(d: _TimeData) -> NullCurvatureResult:
    """The published h d_t specialization: its denominator prints a second
    derivative of h where the bilinear expansion forces -h^2, and its
    bracket term carries an extra (b')^2 b'' factor."""
    idx = range(len(d.b))
    h = d.h
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

def _grw_printed(d: _TimeData) -> NullCurvatureResult:
    """The printed single-fiber corollary drops the mixed Hessian term,
    flips the sign of the H(Y,Y) term, and evaluates the warp-rate
    bracket with ``g(V,W)^2 - g_F(W,W)/b^2`` under a plus sign; all three
    mismatches are oracle-adjudicated in favor of the derived form."""
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    gvv, gvw, gww, r = d.gVV[0], d.gVW[0], d.gWW[0], d.rF[0]
    h = d.h
    terms = {
        "warp_acc_WW": -b * ddb * gww,
        "fiber_curvature": b * b * r,
        "hess_YY": b * gvv * h * h * ddb,
        "hess_mixed": 0.0,
        "warp_rate_bracket": b * b * db * db * (gvw * gvw - gww / (b * b)),
    }
    return NullCurvatureResult.from_terms(terms, -h * h + b * b * gww)

def _grw_remark(sign: float):
    """The base-free (Y = 0) value K_F/b^2 + sign (b''/b - (b'/b)^2).

    The published remark attaches the correction with a plus sign; the
    oracle fixes it to minus.  Both orientations vanish exactly when the
    warping is c * e^(k t), which is the remark's characterization."""
    def form(d: _TimeData) -> float:
        b, db, ddb = d.b[0], d.db[0], d.ddb[0]
        qf = d.gVV[0] * d.gWW[0] - d.gVW[0] ** 2
        kf = d.rF[0] / qf
        correction = ddb / b - (db / b) ** 2
        return kf / (b * b) + sign * correction
    return form

def _kasner_printed(d: _TimeData) -> NullCurvatureResult:
    """The printed Kasner corollary with warpings phi**p_i reads as if
    phi' = 1 and phi'' = 0 in its explicit terms, keeps symbolic Hessians
    in the mixed terms, and its bracket term accretes an extra
    p_i (p_i - 1) phi**(p_i - 2) factor."""
    phi, ps = d.phi, d.ps
    idx = range(len(ps))
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
    return NullCurvatureResult.unchecked(terms, denominator, 0.0)

def _type1_printed(d: _TimeData) -> NullCurvatureResult:
    """Type 1: no factor on the mixed term, an h^2 sign flip, and a bracket
    whose last factor prints g(V,W) where the expansion forces g(W,W)."""
    b, db, ddb = d.b[0], d.db[0], d.ddb[0]
    gvv, gvw, gww, r = d.gVV[0], d.gVW[0], d.gWW[0], d.rF[0]
    h = d.h
    terms = {
        "hess_YY": h * h * b * ddb * gvv,
        "warp_acc_WW": -b * ddb * gww,
        "hess_mixed": b * ddb * gvw,
        "fiber_curvature": b * b * r,
        "warp_rate_bracket": -b * b * db * db * (gvw * gvw - gvv * gvw),
    }
    return NullCurvatureResult.from_terms(terms, -h * h + b * b * gww)

def _type2_printed(d: _TimeData) -> NullCurvatureResult:
    """Type 2 (V_1 = f_1 d_x, W_1 = h_1 d_x on the line fiber): the line
    fiber's mixed pair enters with a plus sign, the surface fiber's mixed
    term without its -2h factor, H(Y,Y) flipped and without the line
    fiber, and both cross-fiber terms dropped."""
    b1, db1, ddb1 = d.b[0], d.db[0], d.ddb[0]
    b2, db2, ddb2 = d.b[1], d.db[1], d.ddb[1]
    f1h1, h1h1 = d.gVW[0], d.gWW[0]
    gvv, gvw, gww, r = d.gVV[1], d.gVW[1], d.gWW[1], d.rF[1]
    h = d.h
    terms = {
        "line_mixed_lead": b1 * f1h1 * h * ddb1,
        "hess_YY": b2 * h * h * ddb2 * gvv,
        "warp_acc_WW": -(b1 * ddb1 * h1h1 + b2 * ddb2 * gww),
        "line_mixed_trail": b1 * f1h1 * h * ddb1,
        "hess_mixed": b2 * ddb2 * gvw,
        "fiber_curvature": b2 * b2 * r,
        "warp_rate_bracket": -b2 * b2 * db2 * db2 * (gvw * gvw - gvv * gww),
    }
    denominator = -h * h + b1 * b1 * h1h1 + b2 * b2 * gww
    return NullCurvatureResult.from_terms(terms, denominator)

def _type3_printed(d: _TimeData) -> NullCurvatureResult:
    """Type 3 (line fibers, V_i = f_i d_x, W_i = h_i d_x): the first term
    drops its curvature factor entirely, and g(S,S) is missing the plus
    between the base and fiber norms, so it vanishes on base-free planes."""
    phi, ps = d.phi, d.ps
    idx = range(3)
    f = d.h
    comps_v = [float(v[0]) for v in d.v]
    comps_w = [float(w[0]) for w in d.w]
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
    return NullCurvatureResult.unchecked(terms, denominator, 1e-300)

class _StaticData(Frozen):
    """The scalars entering the static closed forms, on a plane with
    L = -f^-1 d_t + V and S = h d_t + W."""

    __slots__ = ("f", "h", "gVV", "gVW", "gWW", "hVV", "hVW", "hWW", "rF",
                 "grad_sq")

    def __init__(self,
                 f: float,        # the potential
                 h: float,        # base coefficient of S
                 gVV: float,      # g_F(V,V), g_F(V,W), g_F(W,W)
                 gVW: float,
                 gWW: float,
                 hVV: float,      # H(V,V), H(V,W), H(W,W): the potential's
                 hVW: float,      # fiber Hessian
                 hWW: float,
                 rF: float,       # g_F(R_F(V,W)W, V)
                 grad_sq: float):  # g_F(grad f, grad f)
        set_field(self, "f", f)
        set_field(self, "h", h)
        set_field(self, "gVV", gVV)
        set_field(self, "gVW", gVW)
        set_field(self, "gWW", gWW)
        set_field(self, "hVV", hVV)
        set_field(self, "hVW", hVW)
        set_field(self, "hWW", hWW)
        set_field(self, "rF", rF)
        set_field(self, "grad_sq", grad_sq)

    @property
    def g_SS(self) -> float:
        return -self.f * self.f * self.h * self.h + self.gWW

def _static_data(ctx: PointContext, plane: NullPlane) -> _StaticData:
    """The static closed forms' inputs on a plane with L = +-f^-1 d_t + V;
    the plane is validated after L's shape is checked."""
    f = ctx.warps[0]
    L = plane.L
    a = float(L.base_part)
    if abs(abs(a) - 1.0 / f) > _SHAPE_TOL:
        raise ShapeError(
            f"L must have base coefficient +-1/f = {1.0 / f:.6g}, got {a:.6g}")
    plane.validate(tol=1e-9)
    if a > 0:
        L = -L
    h = float(plane.S.base_part)
    wd = ctx.warp_bundle[0]
    v = np.asarray(L.fiber_parts[0], float)
    w = np.asarray(plane.S.fiber_parts[0], float)
    G = ctx.fiber_metrics[0]
    gvv = float(v @ G @ v)
    gvw = float(v @ G @ w)
    gww = float(w @ G @ w)
    k = ctx.spec.fibers[0].constant_curvature
    if k is not None:
        rf = k * (gvv * gww - gvw * gvw)
    else:  # the spatial factor is the structural base
        rf = float(riemann_apply(ctx.base_tensors, v, w, w) @ G @ v)
    return _StaticData(f, h, gvv, gvw, gww, float(v @ wd.hess @ v),
                       float(v @ wd.hess @ w), float(w @ wd.hess @ w), rf,
                       wd.grad_sq)

# the gradient-squared prefactor multiplies (g_I(Y, d_t)^2 + g_I(Y, Y))
# = h^2 - h^2, identically zero for a time-directed base part
_GRAD_BRACKET = 0.0

def _ssst_derived(d: _StaticData) -> NullCurvatureResult:
    """The oracle-verified static numerator
    f h^2 H(V,V) + 2 h H(V,W) + H(W,W)/f + g_F(R_F(V,W)W, V),
    H the potential's fiber Hessian."""
    f, h = d.f, d.h
    terms = {"grad_sq": _GRAD_BRACKET, "hess_VV": f * h * h * d.hVV,
             "hess_VW": 2.0 * h * d.hVW, "hess_WW": d.hWW / f,
             "fiber_curvature": d.rF}
    return NullCurvatureResult.from_terms(terms, d.g_SS)

def _ssst_printed(flip: float):
    """The printed static corollary keeps a gradient-squared term that
    vanishes identically for time-directed Y, drops the mixed Hessian pair
    as if it cancelled, and orders the fiber curvature slots so its
    curvature term enters with the opposite sign.  ``flip`` is the
    display's H(W,W) sign: the unit-normalized display flips it
    (``printed_unit_s``, meaningful on planes with g(S,S) = 1)."""
    def form(d: _StaticData) -> NullCurvatureResult:
        f, h = d.f, d.h
        terms = {"grad_sq": -d.grad_sq * _GRAD_BRACKET,
                 "hess_VV": f * h * h * d.hVV, "hess_VW": 0.0,
                 "hess_WW": flip * d.hWW / f, "fiber_curvature": -d.rF}
        return NullCurvatureResult.from_terms(terms, d.g_SS)
    return form

def _ssst_remark(sign: float):
    """The base-free (Y = 0) static value K_F(V,W) + sign H(W,W)/(f g_F(W,W)).

    The published remark subtracts the Hessian ratio; the oracle fixes the
    sign to plus.  Under H = k f g_F the derived value is K_F + k."""
    def form(d: _StaticData) -> float:
        kf = d.rF / (d.gVV * d.gWW - d.gVW * d.gVW)
        return kf + sign * (d.hWW / (d.f * d.gWW))
    return form

class _Display(Frozen):
    """One display of the closed-form table: its paths and the guards
    :func:`closed_form` checks before it evaluates one of them."""

    __slots__ = ("paths", "kinds", "single_fiber", "signature", "kasner",
                 "base_free")

    def __init__(self,
                 paths: dict,                      # path -> term function
                 kinds: tuple = _TIME_BASE_KINDS,  # the model kinds it describes
                 single_fiber: bool = False,       # one fiber, of any dimension
                 signature: tuple | None = None,   # the fibers' dimensions
                 kasner: bool = False,             # sum p = sum p^2 = 1, to 1e-12
                 base_free: bool = False):         # an S with no base part
        set_field(self, "paths", paths)
        set_field(self, "kinds", kinds)
        set_field(self, "single_fiber", single_fiber)
        set_field(self, "signature", signature)
        set_field(self, "kasner", kasner)
        set_field(self, "base_free", base_free)

    def check(self, display: str, spec: ManifoldSpec,
              plane: NullPlane) -> None:
        """Raise unless ``display`` describes ``spec`` and ``plane``."""
        if spec.kind not in self.kinds:
            wanted = " or ".join(f"kind={k!r}" for k in self.kinds)
            raise ValidationError(
                f"{display} requires {wanted}, got kind={spec.kind!r}")
        if self.single_fiber and spec.m != 1:
            raise ValidationError(f"{display} requires a single-fiber model")
        if self.signature is not None:
            dims = tuple(f.dim for f in spec.fibers)
            if dims != self.signature:
                raise ValidationError(f"{display} requires fiber signature "
                                      f"{self.signature}, got {dims}")
        if self.kasner:
            ps = spec.kasner_exponents
            s1, s2 = sum(ps), sum(q * q for q in ps)
            if abs(s1 - 1.0) > 1e-12 or abs(s2 - 1.0) > 1e-12:
                raise ConstraintError(
                    f"{display} requires the Kasner constraint sum p = "
                    f"sum p^2 = 1, got sum p = {s1}, sum p^2 = {s2}")
        if self.base_free and abs(float(plane.S.base_part)) > _SHAPE_TOL:
            raise ValidationError(
                f"{display} applies to planes with no base part")

# display -> its paths and guards.  The displays named after a model kind
# are that kind's formula paths (``formula_paths``, ``compare``); the type
# 1/2/3 displays and the two remarks are library-only.  The time-base term
# functions take a _TimeData, the static ones a _StaticData.
_FORMS = {
    "MGRW": _Display({"derived": _multi_derived, "printed": _mgrw_printed,
                      "printed_corollary": _mgrw_corollary}),
    "GRW": _Display({"derived": _single_derived, "printed": _grw_printed},
                    single_fiber=True),
    "Kasner": _Display({"derived": _multi_derived, "printed": _kasner_printed},
                       kinds=("Kasner",)),
    "SSST": _Display({"derived": _ssst_derived, "printed": _ssst_printed(1.0),
                      "printed_unit_s": _ssst_printed(-1.0)},
                     kinds=("SSST",)),
    "GRW remark": _Display({"derived": _grw_remark(-1.0),
                            "printed": _grw_remark(1.0)},
                           single_fiber=True, base_free=True),
    "SSST remark": _Display({"derived": _ssst_remark(1.0),
                             "printed": _ssst_remark(-1.0)},
                            kinds=("SSST",), base_free=True),
    # one 3-dimensional fiber; derived by the GRW sum
    "type1": _Display({"derived": _single_derived, "printed": _type1_printed},
                      signature=(3,)),
    # a line fiber and a surface fiber; derived by the MGRW sum
    "type2": _Display({"derived": _multi_derived, "printed": _type2_printed},
                      signature=(1, 2)),
    # three line fibers with Kasner warpings; derived by the MGRW sum
    "type3": _Display({"derived": _multi_derived, "printed": _type3_printed},
                      kinds=("Kasner",), signature=(1, 1, 1), kasner=True),
}

def closed_form(spec: ManifoldSpec, plane: NullPlane, display: str,
                path: str = "derived"):
    """One path of one display of the closed-form table, on a plane.

    The display's guards come first: the model kinds it describes and,
    where the display has them, a single fiber, a fiber signature, the
    Kasner constraint and an S with no base part.  Its inputs (a
    _TimeData, or a _StaticData on the static model) are built from the
    plane's context on first use: L's shape is checked, the plane is
    validated, and the inputs are kept in the plane's ``form_inputs``
    slot, so every path and display of one plane shares them.  A display
    gives a :class:`NullCurvatureResult`, a remark its value alone.
    """
    try:
        row = _FORMS[display]
    except KeyError:
        raise ValidationError(f"unknown display {display!r}") from None
    try:
        form = row.paths[path]
    except KeyError:
        raise ValidationError(f"unknown path {path!r}") from None
    row.check(display, spec, plane)
    p = PointContext.of(spec, plane.context or plane.point)
    data = plane.form_inputs
    if data is None:
        data = (_static_data if spec.kind == "SSST" else _time_data)(p, plane)
        if p is plane.context:  # the inputs belong to the plane's own context
            object.__setattr__(plane, "form_inputs", data)
    return form(data)

# ---------------------------------------------------------------------------
# dispatch, paths, and the isotropy diagnostic
# ---------------------------------------------------------------------------

def formula_paths(spec: ManifoldSpec) -> tuple[str, ...]:
    """Formula paths available for this spec's specialized evaluator: its
    kind's display in the closed-form table, else the generic expansion."""
    return tuple(_FORMS[spec.kind].paths) if spec.kind in _FORMS else ("derived",)

def specialized_null_curvature(spec: ManifoldSpec, plane: NullPlane,
                               path: str = "derived") -> NullCurvatureResult:
    """The closed form of the plane's model kind: :func:`closed_form` at
    the display named after ``spec.kind``, else the generic expansion,
    which has the derived path alone."""
    if spec.kind in _FORMS:
        return closed_form(spec, plane, spec.kind, path)
    if path != "derived":
        raise ValidationError(f"{spec.kind} has no printed closed form")
    return null_curvature_generic(spec, plane)

def isotropy_summary(values) -> dict:
    """Mean K over a set of planes at one point and the largest deviation
    from it: the frame-isotropy diagnostic of :func:`isotropy_scan`."""
    if len(values) == 0:
        raise ValidationError("isotropy needs at least one plane")
    arr = np.asarray(values)
    mean = float(arr.mean())
    return {"mean": mean,
            "max_deviation": float(np.max(np.abs(arr - mean))),
            "n_planes": len(values)}

def isotropy_scan(spec: ManifoldSpec, p: Point | PointContext,
                  U: TangentVector | None, n_planes: int, seed: int) -> dict:
    """Sample n_planes degenerate planes in the congruence of U and report
    the mean K and the largest deviation from it.  A diagnostic for the
    frame-isotropy property of Robertson-Walker-like models."""
    rng = np.random.default_rng(np.uint64(seed))
    ctx = PointContext.of(spec, p)
    frame = U if U is not None else default_frame(spec, ctx)
    n = int(n_planes)
    return isotropy_summary(
        [null_curvature_generic(spec, plane).value
         for plane in sample_planes(spec, [ctx] * n, [rng] * n, frame)])
