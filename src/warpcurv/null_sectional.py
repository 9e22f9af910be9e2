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

The closed forms live in one table, display -> path -> term function.
The multi-fiber derived sum is written once and serves MGRW, Kasner and
the type 2/3 displays; the single-fiber sum serves GRW and type 1.  The
public evaluators are thin wrappers that keep their own guards (fiber
signature, Kasner constraints, plane validation) and read the table;
``formula_paths`` and ``specialized_null_curvature`` read the entries
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
from .core_types import (ManifoldSpec, NullPlane, Point, PointContext,
                         TangentVector, all_finite, components, flatten,
                         tangent)
from .errors import (ConstraintError, ConstructionError, PlaneError,
                     ShapeError, ValidationError)
from .hyperdual import value
from .tensor_oracle import riemann_apply
from .warped_formulas import WarpedGeometry

__all__ = [
    "NullCurvatureResult",
    "default_frame",
    "normalize_null",
    "make_degenerate_plane",
    "sample_plane",
    "sample_planes",
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
    scale factors uniquely.  A non-finite direction or frame raises
    PlaneError.
    """
    g = PointContext.of(spec, p)
    U.validate(spec)
    direction.validate(spec)
    u = components(U)
    return tangent(spec, _null(g, u, _frame_norm(g, u), components(direction)))

def make_degenerate_plane(spec: ManifoldSpec, p: Point | PointContext,
                          L: TangentVector, S_candidate: TangentVector,
                          frame_U: TangentVector | None = None) -> NullPlane:
    """Project S_candidate onto the degenerate configuration g(L,S) = 0.

    The unique frame-direction correction is removed from S_candidate; the
    result must come out spacelike and independent of L.  L may carry
    either time orientation (the curvature of the plane is quadratic in
    L); the frame is attached to the plane only when L actually satisfies
    the congruence normalization g(L,U) = -1.  Non-finite inputs raise
    PlaneError.
    """
    g = PointContext.of(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, g)
    for v in (L, S_candidate, U):
        v.validate(spec)
    u = components(U)
    return _degenerate_plane(g, L, components(L), components(S_candidate),
                             U, u, g.form(u, u))

# The plane helpers work on flat chart components (core_types.components),
# so the sampler's loop builds no tangent vector but the plane's own.  A
# coefficient that scales a vector enters as a Python float, as it did
# when it scaled a TangentVector (a numpy scalar times an object defers
# to float multiplication), so every component keeps its type and bits.

def _frame_norm(g: PointContext, u) -> float:
    """g(U, U) for a timelike frame U."""
    g_UU = g.form(u, u)
    if not all_finite(g_UU):
        raise PlaneError(f"frame is not finite: g(U,U) = {g_UU}")
    if g_UU >= 0.0:
        raise ValidationError(f"frame must be timelike, g(U,U) = {g_UU}")
    return g_UU

def _null(g: PointContext, u, g_UU: float, d) -> tuple:
    """:func:`normalize_null` on flat components, with g_UU = g(u, u)."""
    g_DU = g.form(d, u)
    c = float(g_DU / g_UU)
    d_perp = tuple(a - c * b for a, b in zip(d, u))
    n2 = g.form(d_perp, d_perp)
    if not all_finite(g_DU, n2):
        raise PlaneError(f"direction is not finite: g(D,U) = {g_DU}, "
                         f"g(D_perp,D_perp) = {n2}")
    if n2 <= 1e-24:
        raise ConstructionError(
            "direction has no spacelike part; cannot complete to a null vector")
    beta = float(-1.0 / g_UU)
    gamma = math.sqrt(-1.0 / (g_UU * n2))
    return tuple(beta * a + gamma * b for a, b in zip(u, d_perp))

def _degenerate_plane(g: PointContext, L: TangentVector, l, s_cand,
                      U: TangentVector, u, g_UU: float) -> NullPlane:
    """:func:`make_degenerate_plane` on flat components; ``l`` holds L's."""
    g_LL = g.form(l, l)
    g_LU = g.form(l, u)
    if not all_finite(g_LL, g_LU, g_UU):
        raise PlaneError(f"L or the frame is not finite: g(L,L) = {g_LL}, "
                         f"g(L,U) = {g_LU}, g(U,U) = {g_UU}")
    scale = max(1.0, abs(g_UU))
    if abs(g_LL) > 1e-9 * scale:
        raise PlaneError(f"L is not null: g(L,L) = {g_LL:.3e}")
    if abs(g_LU) < 1e-12:
        raise PlaneError("frame is orthogonal to L; cannot project")
    g_LS = g.form(l, s_cand)
    c = float(g_LS / g_LU)
    s = tuple(a - c * b for a, b in zip(s_cand, u))
    g_SS = g.form(s, s)
    if not all_finite(g_LS, g_SS):
        raise PlaneError(f"S is not finite: g(L,S) = {g_LS}, g(S,S) = {g_SS}")
    if g_SS <= 1e-12 * scale:
        raise PlaneError(
            f"projected S is not spacelike (g(S,S) = {g_SS:.3e}); "
            "candidate was parallel to L or timelike")
    normalized = abs(g_LU + 1.0) <= 1e-9
    return _plane(g, L, tangent(g.spec, s), U if normalized else None,
                  g_LL, g.form(l, s), g_SS, g_LU)

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

def _fiber_draw(g: PointContext, rng) -> tuple:
    """Spatial direction drawn isotropically in the warped metric at g's
    point, as one component tuple per fiber.

    Per fiber, components are drawn on the unit sphere of the *warped*
    fiber block, so draw coefficients are invariant under rescaling the
    warpings; this keeps seeded scans comparable across base points.
    """
    parts = []
    warped = g.spec.kind != "SSST"  # SSST's one fiber is unwarped
    for i, c_t in enumerate(g.chol_t):
        x = np.linalg.solve(c_t, rng.standard_normal(c_t.shape[0]))
        if warped:
            x = x / g.warps[i]
        parts.append(tuple(x))
    return tuple(parts)

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
    and completes it to a null L (as :func:`normalize_null` does), then
    draws a second spatial vector W and builds S from it.  With
    ``base_free=True`` the spacelike leg S is W made g-orthogonal to the
    spatial part of L, so it stays purely spatial (the degeneracy
    condition is then solved inside the fiber block), the configuration
    the published base-free special cases assume; otherwise S is W plus a
    random multiple of the frame, projected as in
    :func:`make_degenerate_plane`.  A base-free S is g-orthogonal to L only
    where it is to the frame, so with ``base_free=True`` a ``frame_U``
    that has a fiber (spatial) part is refused with a
    :class:`ValidationError`, before any draw; so is a spacetime of
    dimension 2, which has no degenerate plane, and one whose fibers have
    dimension 1 in all (a chart base with one 1-D fiber), since the
    spatial directions of L and S are drawn in the fibers.  The draws use
    the Cholesky factors of the fiber metrics (:attr:`PointContext.chol_t`).
    A plane carries its point's context.

    The planes are those of one plane drawn at a time, in order, bit for
    bit, and each generator ends where it would: a generator may feed
    several planes (one generator for a chunk of planes at one point),
    and then draws for them in order.  The first try of every plane runs
    over the whole batch as arrays (:func:`_first_tries`); a plane whose
    first try is rejected, or could not be run that way, is drawn again by
    the scalar loop (:func:`_sample_loop`) from its generator's state
    before the batch, together with every other plane that generator
    feeds.
    """
    label = repr(spec.name) if spec.name else f"this {spec.kind} spacetime"
    if spec.dim < 3:
        raise ValidationError(
            f"a degenerate plane needs a spacetime of dimension at least 3, "
            f"but {label} has dimension {spec.dim}")
    if spec.dim - spec.base_dim < 2:
        raise ValidationError(
            f"the sampler draws the spatial directions of L and S in the "
            f"fibers, which need dimension at least 2 in all, but the fibers "
            f"of {label} have dimension {spec.dim - spec.base_dim}")
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
    saved = {id(rng): (rng, rng.bit_generator.state) for rng in rngs}
    planes = [None] * len(gs)
    # a default frame's components are Python floats, as the batch needs
    if frame_U is None or all(type(c) is float for c in components(frame_U)):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                planes = _first_tries(spec, gs, frames, rngs, base_free)
        except FloatingPointError:  # the scalar loop meets it as it would
            pass
    redo = {id(rng) for rng, plane in zip(rngs, planes) if plane is None}
    for key in redo:
        rng, state = saved[key]
        rng.bit_generator.state = state
    for k, (g, U, rng) in enumerate(zip(gs, frames, rngs)):
        if id(rng) in redo:
            planes[k] = _sample_loop(g, U, rng, base_free)
    return planes

def _sample_loop(g: PointContext, U: TangentVector, rng,
                 base_free: bool) -> NullPlane:
    """One plane drawn try by try on flat chart components: the rejection
    fallback of :func:`sample_planes`, whose arguments it takes checked."""
    spec = g.spec
    u = components(U)
    g_UU = g.form(u, u)
    zeros = components(TangentVector.zero(spec))[:spec.base_dim]
    for _ in range(32):
        try:
            l = _null(g, u, _frame_norm(g, u), sum(_fiber_draw(g, rng), zeros))
        except ConstructionError:
            continue
        L = tangent(spec, l)
        w = sum(_fiber_draw(g, rng), zeros)
        if base_free:
            g_LU = g.form(l, u)
            c = float(g_LU / g_UU)
            v = tuple(a - c * b for a, b in zip(l, u))
            c = float(g.form(v, w) / g.form(v, v))
            s = tuple(a - c * b for a, b in zip(w, v))
            g_SS = g.form(s, s)
            if g_SS <= 1e-12:
                continue
            try:
                return _plane(g, L, tangent(spec, s), U, g.form(l, l),
                              g.form(l, s), g_SS, g_LU)
            except PlaneError:
                continue
        w_norm = math.sqrt(max(g.form(w, w), 0.0))
        h = 0.9 * rng.uniform(-1.0, 1.0) * w_norm
        s_cand = tuple(h * a + b for a, b in zip(u, w))
        try:
            return _degenerate_plane(g, L, l, s_cand, U, u, g_UU)
        except PlaneError:
            continue
    raise PlaneError("could not sample a valid degenerate plane in 32 tries")

# The batched first try.  Each scalar of the scalar loop becomes a _Lanes:
# its float64 value in every plane of the batch, and whether the scalar
# loop would hold it as a numpy float64 or as a Python float.  Every
# operation is the scalar loop's, elementwise and in the same order, so
# each value has the same bits; a rejection or an error becomes a plane
# left to the scalar loop, which then meets it as it always did.

class _Lanes:
    """One scalar of :func:`_sample_loop` across a batch of planes: its
    values ``v`` (float64, one per plane) and ``np``, a bool or a bool per
    plane: whether the scalar loop holds it as a numpy float64 rather than
    a Python float.  An operation with a numpy operand gives a numpy
    result, as in Python."""

    __slots__ = ("v", "np", "_zero")

    def __init__(self, v, isnp=False):
        self.v, self.np, self._zero = v, isnp, None

    def _op(self, other, fn):
        if isinstance(other, _Lanes):
            return _Lanes(fn(self.v, other.v), self.np | other.np)
        return _Lanes(fn(self.v, other), self.np)

    def __add__(self, other):
        return self._op(other, np.add)

    def __sub__(self, other):
        return self._op(other, np.subtract)

    def __mul__(self, other):
        return self._op(other, np.multiply)

    def __truediv__(self, other):
        return self._op(other, np.true_divide)

    def __rmul__(self, other):
        return _Lanes(other * self.v, self.np)

    def __rtruediv__(self, other):
        return _Lanes(other / self.v, self.np)

    def __neg__(self):
        return _Lanes(-self.v, self.np)

    def py(self) -> "_Lanes":
        """``float(x)``."""
        return _Lanes(self.v)

    def sqrt(self) -> "_Lanes":
        """``math.sqrt(x)``."""
        return _Lanes(np.sqrt(self.v))

    def zero(self):
        """Where the value is 0.0: True in every plane, False in none,
        else a bool per plane."""
        if self._zero is None:
            z = self.v == 0.0
            self._zero = bool(z.all()) or (z if z.any() else False)
        return self._zero

    def items(self) -> list:
        """The value in each plane, typed as the scalar loop types it."""
        if self.np is True:
            return list(self.v)
        if self.np is False:
            return self.v.tolist()
        return [np.float64(x) if t else x
                for x, t in zip(self.v.tolist(), self.np.tolist())]

class _Metric:
    """:meth:`PointContext.form` at each plane's point of a batch, on
    :class:`_Lanes`: the same operations in the same order, the same zero
    skipping (``x + 0.0`` would turn -0.0 into +0.0, and ``inf * 0.0`` is
    NaN), and the same types.  ``warps`` holds each plane's warping
    values, one column per fiber."""

    def __init__(self, spec: ManifoldSpec, uniq: list, inv: np.ndarray):
        self.ssst = spec.kind == "SSST"
        self.base_rows = ([uniq[i].base_rows for i in inv]
                          if spec.base_chart is not None else None)
        self.warps = warps = np.array([g.warps for g in uniq])[inv]
        self.b2 = [_Lanes(warps[:, i] * warps[:, i]) for i in range(spec.m)]
        if self.ssst:
            self.neg_f2 = _Lanes(np.array([-(g.warps[0] ** 2)
                                           for g in uniq])[inv])
        self.rows = [np.array([g.fiber_rows[i] for g in uniq])[inv]
                     for i in range(spec.m)]

    def __call__(self, x: list, y: list) -> _Lanes:
        if self.ssst:
            acc = self.neg_f2 * x[0] * y[0]
            return acc + self._fiber(self.rows[0], x, y, 1)
        if self.base_rows is not None:
            nb = len(self.base_rows[0])
            acc = _Lanes(np.array([
                float(np.asarray([a.v[k] for a in x[:nb]]) @ rows
                      @ np.asarray([b.v[k] for b in y[:nb]]))
                for k, rows in enumerate(self.base_rows)]))
        else:
            nb = 1
            acc = -x[0] * y[0]
        for b2, rows in zip(self.b2, self.rows):
            acc = acc + b2 * self._fiber(rows, x, y, nb)
            nb += rows.shape[1]
        return acc

    @staticmethod
    def _fiber(rows: np.ndarray, x: list, y: list, ofs: int) -> _Lanes:
        """``_fiber_inner`` over the batch; ``rows`` is (planes, k, k)."""
        acc = _Lanes(np.zeros(len(rows)))
        k = rows.shape[1]
        for i in range(k):
            zi = x[ofs + i].zero()
            if zi is True:
                continue
            for j in range(k):
                zj = y[ofs + j].zero()
                if zj is True:
                    continue
                term = acc + x[ofs + i] * _Lanes(rows[:, i, j]) * y[ofs + j]
                skip = zi | zj
                if skip is not False:
                    term = _Lanes(np.where(skip, acc.v, term.v),
                                  np.where(skip, acc.np, term.np))
                acc = term
        return acc

def _first_tries(spec: ManifoldSpec, gs: list, frames: list, rngs: list,
                 base_free: bool) -> list:
    """The first try of :func:`_sample_loop` for every plane at once: the
    plane where it is accepted, else None.

    Each generator draws what the first try draws, in the same order: one
    ``standard_normal`` call for the direction's and W's components of
    every fiber (the same numbers as one call per fiber), then the
    uniform.  The fibers' Cholesky factors come from one stacked fill, and
    the triangular solves from one stacked ``solve`` per fiber dimension.
    Every frame component must be a Python float, as every warping value
    and fiber metric entry of a context is (``hyperdual.value``)."""
    n = len(gs)
    index: dict = {}
    inv = np.array([index.setdefault(id(g), len(index)) for g in gs])
    uniq, uframes = zip(*{id(g): (g, U) for g, U in zip(gs, frames)}
                        .values())
    PointContext.fill_chol_t(uniq)
    form = _Metric(spec, uniq, inv)
    dims = [f.dim for f in spec.fibers]
    total = sum(dims)
    normals = np.empty((n, 2 * total))
    uniform = np.empty(n)
    for k, rng in enumerate(rngs):
        normals[k] = rng.standard_normal(2 * total)
        if not base_free:
            uniform[k] = rng.uniform(-1.0, 1.0)

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
    zero = _Lanes(np.zeros(n))
    d, w = ([zero] * spec.base_dim
            + [_Lanes(p[:, j], True) for p in ps for j in range(p.shape[1])]
            for ps in parts)
    u = [_Lanes(c) for c in np.array([components(U)
                                      for U in uframes])[inv].T]

    # _frame_norm, then _null
    g_UU = form(u, u)
    ok = np.isfinite(g_UU.v) & (g_UU.v < 0.0)
    g_DU = form(d, u)
    c = (g_DU / g_UU).py()
    d_perp = [a - c * b for a, b in zip(d, u)]
    n2 = form(d_perp, d_perp)
    ok &= np.isfinite(g_DU.v) & np.isfinite(n2.v) & ~(n2.v <= 1e-24)
    n2 = _Lanes(np.where(ok, n2.v, 1.0), n2.np)  # spare the rejected lanes
    beta = (-1.0 / g_UU).py()
    gamma = (-1.0 / (g_UU * n2)).sqrt()
    l = [beta * a + gamma * b for a, b in zip(u, d_perp)]
    g_LL = form(l, l)
    if base_free:
        g_LU = form(l, u)
        c = (g_LU / g_UU).py()
        v = [a - c * b for a, b in zip(l, u)]
        c = (form(v, w) / form(v, v)).py()
        s = [a - c * b for a, b in zip(w, v)]
        g_SS = form(s, s)
        ok &= ~(g_SS.v <= 1e-12)
        normalized = np.ones(n, dtype=bool)
    else:
        g_ww = form(w, w)
        w_norm = _Lanes(np.where(0.0 > g_ww.v, 0.0, g_ww.v)).sqrt()
        h = 0.9 * _Lanes(uniform) * w_norm
        s_cand = [h * a + b for a, b in zip(u, w)]
        # _degenerate_plane
        g_LU = form(l, u)
        ok &= np.isfinite(g_LL.v) & np.isfinite(g_LU.v)
        scale = np.where(np.abs(g_UU.v) > 1.0, np.abs(g_UU.v), 1.0)
        ok &= ~(np.abs(g_LL.v) > 1e-9 * scale) & ~(np.abs(g_LU.v) < 1e-12)
        g_LS = form(l, s_cand)
        c = (g_LS / _Lanes(np.where(ok, g_LU.v, 1.0), g_LU.np)).py()
        s = [a - c * b for a, b in zip(s_cand, u)]
        g_SS = form(s, s)
        ok &= np.isfinite(g_LS.v) & np.isfinite(g_SS.v) \
            & ~(g_SS.v <= 1e-12 * scale)
        normalized = np.abs(g_LU.v + 1.0) <= 1e-9
    g_LS = form(l, s)

    ls = list(zip(*(a.items() for a in l)))
    ss = list(zip(*(a.items() for a in s)))
    g_values = zip(g_LL.items(), g_LS.items(), g_SS.items(), g_LU.items())
    planes = []
    for k, (g, U, values) in enumerate(zip(gs, frames, g_values)):
        plane = None
        if ok[k]:
            try:
                plane = _plane(g, tangent(spec, ls[k]), tangent(spec, ss[k]),
                               U if normalized[k] else None, *values)
            except PlaneError:
                pass
        planes.append(plane)
    return planes

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
    """Per-fiber scalars entering the time-base closed forms."""

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

def _time_data(spec: ManifoldSpec, p: Point | PointContext, L: TangentVector,
               S: TangentVector) -> _TimeData:
    if not spec.is_time_base:
        raise ValidationError(f"{spec.kind} is not a time-base kind")
    ctx = PointContext.of(spec, p)
    L.validate(spec)
    S.validate(spec)
    L = _oriented_time_L(L, 1.0)
    b, db, ddb, gvv, gvw, gww, rf, vs, ws = [], [], [], [], [], [], [], [], []
    # b, b', b'' from the warp bundle: spec.warping_derivatives' call, once
    for i, (fib, wd) in enumerate(zip(WarpedGeometry(spec).fibers,
                                      ctx.warp_bundle)):
        v = np.asarray(L.fiber_parts[i], float)
        w = np.asarray(S.fiber_parts[i], float)
        b.append(wd.value)
        db.append(float(wd.dcomps[0]))
        ddb.append(float(wd.hess[0, 0]))
        gvv.append(fib.inner(ctx, v, v))
        gvw.append(fib.inner(ctx, v, w))
        gww.append(fib.inner(ctx, w, w))
        rcomp = fib.riemann(ctx, v, w, w)
        rf.append(float(np.asarray(rcomp) @ fib.metric(ctx) @ v))
        vs.append(L.fiber_parts[i])
        ws.append(S.fiber_parts[i])
    phi = None if spec.phi is None else value(spec.phi.fn(ctx.base_point[0]))
    return _TimeData(tuple(b), tuple(db), tuple(ddb), tuple(gvv), tuple(gvw),
                     tuple(gww), tuple(rf), float(S.base_part), tuple(vs),
                     tuple(ws), spec.kasner_exponents, phi)

def _multi_derived(d: _TimeData) -> NullCurvatureResult:
    """The oracle-verified multi-fiber sum (MGRW, Kasner, types 2 and 3)."""
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
    """The base-free value K_F/b^2 + sign (b''/b - (b'/b)^2)."""
    def form(d: _TimeData) -> float:
        if abs(d.h) > _SHAPE_TOL:
            raise ValidationError("remark form applies to planes with no base part")
        b, db, ddb = d.b[0], d.db[0], d.ddb[0]
        qf = d.gVV[0] * d.gWW[0] - d.gVW[0] ** 2
        kf = d.rF[0] / qf
        correction = ddb / b - (db / b) ** 2
        return kf / (b * b) + sign * correction
    return form

def _kasner_printed(d: _TimeData) -> NullCurvatureResult:
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
    """The scalars entering the static closed forms (see
    :func:`ssst_null_curvature`)."""

    __slots__ = ("f", "h", "hVV", "hVW", "hWW", "rF", "grad_sq", "g_SS")

    def __init__(self,
                 f: float,        # the potential
                 h: float,        # base coefficient of S
                 hVV: float,      # H(V,V), H(V,W), H(W,W): the potential's
                 hVW: float,      # fiber Hessian
                 hWW: float,
                 rF: float,       # g_F(R_F(V,W)W, V)
                 grad_sq: float,  # g_F(grad f, grad f)
                 g_SS: float):
        set_field(self, "f", f)
        set_field(self, "h", h)
        set_field(self, "hVV", hVV)
        set_field(self, "hVW", hVW)
        set_field(self, "hWW", hWW)
        set_field(self, "rF", rF)
        set_field(self, "grad_sq", grad_sq)
        set_field(self, "g_SS", g_SS)

def _static_data(ctx: PointContext, plane: NullPlane) -> _StaticData:
    """The static closed forms' inputs on a plane with L = +-f^-1 d_t + V."""
    f = ctx.warps[0]
    L = plane.L
    a = float(L.base_part)
    if abs(abs(a) - 1.0 / f) > _SHAPE_TOL:
        raise ShapeError(
            f"L must have base coefficient +-1/f = {1.0 / f:.6g}, got {a:.6g}")
    if a > 0:
        L = -L
    h = float(plane.S.base_part)
    wd = ctx.warp_bundle[0]
    v = np.asarray(L.fiber_parts[0], float)
    w = np.asarray(plane.S.fiber_parts[0], float)
    G = ctx.fiber_metrics[0]
    return _StaticData(f, h, float(v @ wd.hess @ v), float(v @ wd.hess @ w),
                       float(w @ wd.hess @ w),
                       _spatial_curvature_quadratic(ctx, v, w, G), wd.grad_sq,
                       -f * f * h * h + float(w @ G @ w))

# the gradient-squared prefactor multiplies (g_I(Y, d_t)^2 + g_I(Y, Y))
# = h^2 - h^2, identically zero for a time-directed base part
_GRAD_BRACKET = 0.0

def _ssst_derived(d: _StaticData) -> NullCurvatureResult:
    f, h = d.f, d.h
    terms = {"grad_sq": _GRAD_BRACKET, "hess_VV": f * h * h * d.hVV,
             "hess_VW": 2.0 * h * d.hVW, "hess_WW": d.hWW / f,
             "fiber_curvature": d.rF}
    return NullCurvatureResult.from_terms(terms, d.g_SS)

def _ssst_printed(flip: float):
    """``flip`` is the display's H(W,W) sign."""
    def form(d: _StaticData) -> NullCurvatureResult:
        f, h = d.f, d.h
        terms = {"grad_sq": -d.grad_sq * _GRAD_BRACKET,
                 "hess_VV": f * h * h * d.hVV, "hess_VW": 0.0,
                 "hess_WW": flip * d.hWW / f, "fiber_curvature": -d.rF}
        return NullCurvatureResult.from_terms(terms, d.g_SS)
    return form

# display -> path -> term function.  The displays named after a model kind
# are that kind's formula paths (``formula_paths``, ``compare``); the type
# 1/2/3 displays and the remark are library-only.  The time-base term
# functions take a _TimeData, the static ones a _StaticData.
_FORMS = {
    "MGRW": {"derived": _multi_derived, "printed": _mgrw_printed,
             "printed_corollary": _mgrw_corollary},
    "GRW": {"derived": _single_derived, "printed": _grw_printed},
    "Kasner": {"derived": _multi_derived, "printed": _kasner_printed},
    "SSST": {"derived": _ssst_derived, "printed": _ssst_printed(1.0),
             "printed_unit_s": _ssst_printed(-1.0)},
    "GRW remark": {"derived": _grw_remark(-1.0), "printed": _grw_remark(1.0)},
    "type1": {"derived": _single_derived, "printed": _type1_printed},
    "type2": {"derived": _multi_derived, "printed": _type2_printed},
    "type3": {"derived": _multi_derived, "printed": _type3_printed},
}

def _form(display: str, path: str):
    try:
        return _FORMS[display][path]
    except KeyError:
        raise ValidationError(f"unknown path {path!r}") from None

def _time_form(spec: ManifoldSpec, p: Point | PointContext, L: TangentVector,
               S: TangentVector, display: str, path: str):
    """One time-base display's path, evaluated on the plane (L, S) at p."""
    form = _form(display, path)
    return form(_time_data(spec, p, L, S))

def mgrw_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                        L: TangentVector, S: TangentVector,
                        path: str = "derived") -> NullCurvatureResult:
    """Closed-form K for L = -d_t + sum V_i, S = h d_t + sum W_j.

    ``path='derived'`` evaluates the oracle-verified term sum;
    ``path='printed'`` the published theorem display; ``path='printed_corollary'``
    the published h d_t specialization (whose denominator prints a second
    derivative of h where the bilinear expansion forces -h^2, and whose
    bracket term carries an extra (b')^2 b'' factor).
    """
    return _time_form(spec, p, L, S, "MGRW", path)

def grw_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                       plane: NullPlane,
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
    return _time_form(spec, p, plane.L, plane.S, "GRW", path)

def grw_remark_value(spec: ManifoldSpec, p: Point | PointContext,
                     plane: NullPlane,
                     path: str = "derived") -> float:
    """The base-free (Y = 0) value K_F/b^2 +- (b''/b - (b'/b)^2).

    The published remark attaches the correction with a plus sign; the
    oracle fixes it to minus.  Both orientations vanish exactly when the
    warping is c * e^(k t), which is the remark's characterization.
    """
    return _time_form(spec, p, plane.L, plane.S, "GRW remark", path)

def kasner_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                          L: TangentVector, S: TangentVector,
                          path: str = "derived") -> NullCurvatureResult:
    """Kasner closed form with warpings phi**p_i.

    The derived path carries the full chain rule (phi' and phi'' enter
    every differentiated warping).  The printed corollary reads as if
    phi' = 1 and phi'' = 0 in its explicit terms, keeps symbolic Hessians
    in the mixed terms, and its bracket term accretes an extra
    p_i (p_i - 1) phi**(p_i - 2) factor; transcribed literally.
    """
    if spec.kind != "Kasner":
        raise ValidationError("kasner_null_curvature requires kind='Kasner'")
    return _time_form(spec, p, L, S, "Kasner", path)

def _require_signature(spec: ManifoldSpec, dims: tuple[int, ...], who: str) -> None:
    got = tuple(f.dim for f in spec.fibers)
    if got != dims:
        raise ValidationError(f"{who} requires fiber signature {dims}, got {got}")

def type1_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                         L: TangentVector, S: TangentVector,
                         path: str = "derived") -> NullCurvatureResult:
    """Single 3-dimensional fiber; the derived path is the GRW sum."""
    _require_signature(spec, (3,), "type1_null_curvature")
    return _time_form(spec, p, L, S, "type1", path)

def type2_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                         L: TangentVector, S: TangentVector,
                         path: str = "derived") -> NullCurvatureResult:
    """Fiber signature (1, 2): a line fiber plus a surface fiber; the
    derived path is the MGRW sum."""
    _require_signature(spec, (1, 2), "type2_null_curvature")
    return _time_form(spec, p, L, S, "type2", path)

def type3_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                         L: TangentVector, S: TangentVector,
                         path: str = "derived") -> NullCurvatureResult:
    """Three line fibers with Kasner warpings; exponents must satisfy
    sum p_i = sum p_i^2 = 1 (checked to 1e-12).  The derived path is the
    MGRW sum."""
    _require_signature(spec, (1, 1, 1), "type3_null_curvature")
    ps = spec.kasner_exponents
    if ps is None:
        raise ConstraintError("type3 requires Kasner exponents")
    if abs(sum(ps) - 1.0) > 1e-12 or abs(sum(q * q for q in ps) - 1.0) > 1e-12:
        raise ConstraintError(
            f"Kasner constraint violated: sum p = {sum(ps)}, "
            f"sum p^2 = {sum(q * q for q in ps)}")
    return _time_form(spec, p, L, S, "type3", path)

def ssst_null_curvature(spec: ManifoldSpec, p: Point | PointContext,
                        plane: NullPlane,
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
    form = _form("SSST", path)
    return form(_static_data(PointContext.of(spec, p), plane))

def _spatial_curvature_quadratic(ctx: PointContext, v, w, G) -> float:
    """g_F(R_F(V,W)W, V) on the static model's spatial factor."""
    k = ctx.spec.fibers[0].constant_curvature
    if k is not None:
        gvv = float(v @ G @ v)
        gvw = float(v @ G @ w)
        gww = float(w @ G @ w)
        return k * (gvv * gww - gvw * gvw)
    # the spatial factor is the structural base
    rww = riemann_apply(ctx.base_tensors, v, w, w)
    return float(rww @ G @ v)

def ssst_remark_value(spec: ManifoldSpec, p: Point | PointContext,
                      plane: NullPlane,
                      path: str = "derived") -> float:
    """Base-free (Y = 0) static value: K_F(V,W) +- H(W,W)/(f g_F(W,W)).

    The published remark subtracts the Hessian ratio; the oracle fixes the
    sign to plus.  Under H = k f g_F the derived value is K_F + k."""
    if abs(float(plane.S.base_part)) > _SHAPE_TOL:
        raise ValidationError("remark form applies to planes with no base part")
    ctx = PointContext.of(spec, p)
    f = ctx.warps[0]
    wd = ctx.warp_bundle[0]
    G = ctx.fiber_metrics[0]
    v = np.asarray(plane.L.fiber_parts[0], float)
    w = np.asarray(plane.S.fiber_parts[0], float)
    gvv = float(v @ G @ v)
    gvw = float(v @ G @ w)
    gww = float(w @ G @ w)
    hww = float(w @ wd.hess @ w)
    qf = gvv * gww - gvw * gvw
    kf = _spatial_curvature_quadratic(ctx, v, w, G) / qf
    ratio = hww / (f * gww)
    return kf + ratio if path == "derived" else kf - ratio

# ---------------------------------------------------------------------------
# dispatch, paths, and the isotropy diagnostic
# ---------------------------------------------------------------------------

def formula_paths(spec: ManifoldSpec) -> tuple[str, ...]:
    """Formula paths available for this spec's specialized evaluator: its
    kind's display in the closed-form table, else the generic expansion."""
    return tuple(_FORMS[spec.kind]) if spec.kind in _FORMS else ("derived",)

def specialized_null_curvature(spec: ManifoldSpec, plane: NullPlane,
                               path: str = "derived") -> NullCurvatureResult:
    """Route a plane to its model kind's display in the closed-form table.

    The display's inputs (a _TimeData, or the static scalars) are built
    from the plane's context on first use and kept in the plane's
    ``form_inputs`` slot, so every path of one plane shares them."""
    p = PointContext.of(spec, plane.context or plane.point)
    if spec.kind not in _FORMS:
        if path != "derived":
            raise ValidationError(f"{spec.kind} has no printed closed form")
        return null_curvature_generic(spec, plane)
    form = _form(spec.kind, path)
    data = plane.form_inputs
    if data is None:
        if spec.kind in ("SSST", "GRW"):  # as their public evaluators do
            plane.validate(tol=1e-9)
        data = (_static_data(p, plane) if spec.kind == "SSST"
                else _time_data(spec, p, plane.L, plane.S))
        if p is plane.context:  # the inputs belong to the plane's own context
            object.__setattr__(plane, "form_inputs", data)
    return form(data)

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
