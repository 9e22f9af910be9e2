"""The flat-component sampler draws the planes of the tangent-vector
sampler it replaced, bit for bit.

``reference_sample_plane`` below is that sampler (with its
``normalize_null``, ``make_degenerate_plane`` and metric), kept verbatim
as a test-only reference: it runs on tuple ``TangentVector`` arithmetic
and validates through ``inner`` on every product.  The cases cover the 8
catalog models at 50 seeds, ``base_free=True``, an explicit frame that is
not the default one and a generic base chart.  Every component of L and
S, every g-value, the frame and the generator's next draw must match.

The batched sampler, ``sample_planes``, must draw the planes of the
reference drawing one plane at a time: in batches of 1, 7 and 64 as
``report`` (one context and one generator), ``compare`` (a context and a
generator per sample) and ``scan`` (a context per step, each with a
generator seeded afresh) pass them, and when a first try is rejected in
the middle of a batch.  It refuses a plane after 32 rejected tries as the
reference does, a bad frame before any draw, and a direction that is not
finite with its own error, in the order of the planes.

Every number the plane functions hand back is a Python float, whatever
numeric types the components of their inputs have.
"""

import math
import struct

import numpy as np
import pytest

from test_compare import generic_point, generic_spec
from warpcurv import (GeometryError, NullPlane, PointContext, TangentVector,
                      catalog, default_frame, formula_paths,
                      make_degenerate_plane, normalize_null, sample_plane,
                      sample_planes, specialized_null_curvature)
from warpcurv.core_types import components, tangent
from warpcurv.errors import ConstructionError, PlaneError, ValidationError

CATALOG = catalog()
SEEDS = range(50)


# ---------------------------------------------------------------------------
# the reference: the tangent-vector sampler, verbatim
# ---------------------------------------------------------------------------

def _ref_fiber_inner(rows, v, w) -> float:
    acc = 0.0
    for i in range(len(rows)):
        if v[i] == 0.0:
            continue
        for j in range(len(rows)):
            if w[j] == 0.0:
                continue
            acc += v[i] * rows[i][j] * w[j]
    return acc


def ref_inner(g, X, Y):
    spec = g.spec
    X.validate(spec)
    Y.validate(spec)
    if spec.kind == "SSST":
        acc = -(g.warps[0] ** 2) * X.base_part * Y.base_part
        acc += _ref_fiber_inner(g.fiber_rows[0], X.fiber_parts[0],
                                Y.fiber_parts[0])
        return acc
    if g.base_rows is not None:
        acc = float(np.asarray(X.base_part) @ g.base_rows
                    @ np.asarray(Y.base_part))
    else:
        acc = -X.base_part * Y.base_part
    for b, rows, v, w in zip(g.warps, g.fiber_rows, X.fiber_parts,
                             Y.fiber_parts):
        acc += b * b * _ref_fiber_inner(rows, v, w)
    return acc


def ref_plane(g, L, S, frame_U=None):
    return NullPlane(point=g.point, L=L, S=S, frame_U=frame_U,
                     g_LL=ref_inner(g, L, L), g_LS=ref_inner(g, L, S),
                     g_SS=ref_inner(g, S, S),
                     g_LU=ref_inner(g, L, frame_U) if frame_U is not None
                     else -1.0, context=g)


def ref_normalize_null(spec, p, U, direction):
    g = PointContext.of(spec, p)
    g_UU = ref_inner(g, U, U)
    if g_UU >= 0.0:
        raise ValidationError(f"frame must be timelike, g(U,U) = {g_UU}")
    g_DU = ref_inner(g, direction, U)
    d_perp = direction - (g_DU / g_UU) * U
    n2 = ref_inner(g, d_perp, d_perp)
    if n2 <= 1e-24:
        raise ConstructionError(
            "direction has no spacelike part; cannot complete to a null vector")
    beta = -1.0 / g_UU
    gamma = math.sqrt(-1.0 / (g_UU * n2))
    return beta * U + gamma * d_perp


def ref_make_degenerate_plane(spec, p, L, S_candidate, frame_U=None):
    g = PointContext.of(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, g)
    g_UU = ref_inner(g, U, U)
    if g_UU >= 0.0:
        raise ValidationError(f"frame must be timelike, g(U,U) = {g_UU}")
    g_LL = ref_inner(g, L, L)
    g_LU = ref_inner(g, L, U)
    scale = max(1.0, abs(g_UU))
    if abs(g_LL) > 1e-9 * scale:
        raise PlaneError(f"L is not null: g(L,L) = {g_LL:.3e}")
    if abs(g_LU) < 1e-12:
        raise PlaneError("frame is orthogonal to L; cannot project")
    g_LS = ref_inner(g, L, S_candidate)
    S = S_candidate - (g_LS / g_LU) * U
    g_SS = ref_inner(g, S, S)
    if g_SS <= 1e-12 * scale:
        raise PlaneError(
            f"projected S is not spacelike (g(S,S) = {g_SS:.3e}); "
            "candidate was parallel to L or timelike")
    normalized = abs(g_LU + 1.0) <= 1e-9
    plane = ref_plane(g, L, S, frame_U=U if normalized else None)
    plane.validate(tol=1e-9)
    return plane


def _ref_orthonormal_fiber_draw(g, chol_t, rng, base_zero):
    parts = []
    for i, c_t in enumerate(chol_t):
        x = np.linalg.solve(c_t, rng.standard_normal(c_t.shape[0]))
        if g.spec.kind != "SSST":  # SSST's one fiber is unwarped
            x = x / g.warps[i]
        parts.append(tuple(x))
    return TangentVector(base_zero, tuple(parts))


def reference_sample_plane(spec, p, rng, frame_U=None, base_free=False):
    g = PointContext.of(spec, p)
    U = frame_U if frame_U is not None else default_frame(spec, g)
    chol_t = [np.linalg.cholesky(G).T for G in g.fiber_metrics]
    base_zero = TangentVector.zero(spec).base_part
    for _ in range(32):
        direction = _ref_orthonormal_fiber_draw(g, chol_t, rng, base_zero)
        try:
            L = ref_normalize_null(spec, g, U, direction)
        except ConstructionError:
            continue
        W = _ref_orthonormal_fiber_draw(g, chol_t, rng, base_zero)
        if base_free:
            v_spatial = L - (ref_inner(g, L, U) / ref_inner(g, U, U)) * U
            g_vv = ref_inner(g, v_spatial, v_spatial)
            g_vw = ref_inner(g, v_spatial, W)
            S_cand = W - (g_vw / g_vv) * v_spatial
            g_ss = ref_inner(g, S_cand, S_cand)
            if g_ss <= 1e-12:
                continue
            plane = ref_plane(g, L, S_cand, frame_U=U)
            try:
                plane.validate(tol=1e-9)
            except PlaneError:
                continue
            return plane
        w_norm = math.sqrt(max(ref_inner(g, W, W), 0.0))
        h = 0.9 * rng.uniform(-1.0, 1.0) * w_norm
        S_cand = h * U + W
        try:
            return ref_make_degenerate_plane(spec, g, L, S_cand, frame_U=U)
        except PlaneError:
            continue
    raise PlaneError("could not sample a valid degenerate plane in 32 tries")


# ---------------------------------------------------------------------------
# bit-for-bit comparison
# ---------------------------------------------------------------------------

def bits(x):
    """A float's 64 bits (the sign of a zero included); its type is pinned
    by ``test_every_number_handed_back_is_a_python_float``."""
    return struct.pack("<d", x)


def vector_bits(v):
    return None if v is None else [bits(c) for c in components(v)]


def plane_bits(plane):
    return {"L": vector_bits(plane.L), "S": vector_bits(plane.S),
            "frame_U": vector_bits(plane.frame_U),
            **{k: bits(getattr(plane, k))
               for k in ("g_LL", "g_LS", "g_SS", "g_LU")}}


def assert_same_draw(spec, point, seed, **kwargs):
    """The sampler and the reference, each at a fresh context and a
    generator at ``seed`` that has drawn ``point``, give the same plane
    and leave their generators in the same state."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    p_a, p_b = point(rng_a), point(rng_b)
    ctx_a, ctx_b = PointContext(spec, p_a), PointContext(spec, p_b)
    frame = kwargs.pop("frame", None)
    got = sample_plane(spec, ctx_a, rng_a,
                       frame_U=frame and frame(ctx_a), **kwargs)
    want = reference_sample_plane(spec, ctx_b, rng_b,
                                  frame_U=frame and frame(ctx_b), **kwargs)
    assert plane_bits(got) == plane_bits(want)
    assert got == want and got.context is ctx_a
    assert bits(rng_a.random()) == bits(rng_b.random())


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_default_frame(entry):
    for seed in SEEDS:
        assert_same_draw(entry.spec, entry.random_point, seed)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_base_free(entry):
    for seed in SEEDS:
        assert_same_draw(entry.spec, entry.random_point, seed, base_free=True)


def scaled_frame(ctx):
    """The default frame scaled by 1.25: not normalized, still along the
    base, as a base-free plane needs."""
    return 1.25 * default_frame(ctx.spec, ctx)


def tilted_frame(ctx):
    """The scaled frame plus a small spatial part in every fiber."""
    spec = ctx.spec
    U = scaled_frame(ctx)
    for i, f in enumerate(spec.fibers):
        # each coefficient has g_F-length at most 0.1 in the warped metric
        warp = ctx.warps[i] if spec.kind != "SSST" else 1.0
        comps = [0.1 * (k + 1) / (f.dim * warp
                                  * math.sqrt(ctx.fiber_metrics[i][k, k]))
                 for k in range(f.dim)]
        U = U + TangentVector.fiber_direction(spec, i, comps)
    return U


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_explicit_frame(entry):
    for seed in SEEDS:
        assert_same_draw(entry.spec, entry.random_point, seed,
                         frame=tilted_frame)
        assert_same_draw(entry.spec, entry.random_point, seed,
                         frame=scaled_frame, base_free=True)


def test_generic_base_chart():
    spec = generic_spec()
    for seed in SEEDS:
        assert_same_draw(spec, generic_point, seed)
        assert_same_draw(spec, generic_point, seed, base_free=True)


# ---------------------------------------------------------------------------
# the plane's closed-form inputs, shared by its paths
# ---------------------------------------------------------------------------

def result_bits(res):
    return ([bits(res.value), bits(res.numerator), bits(res.denominator)]
            + [(k, bits(v)) for k, v in res.breakdown.items()])


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_paths_share_the_plane_inputs(entry):
    """Each path on a plane whose inputs another path built has the bits
    of that path on a fresh plane."""
    spec = entry.spec
    paths = formula_paths(spec)

    def draw(seed):
        rng = np.random.default_rng(seed)
        return sample_plane(spec, PointContext(spec, entry.random_point(rng)),
                            rng)

    for seed in range(5):
        fresh = {path: result_bits(specialized_null_curvature(
            spec, draw(seed), path)) for path in paths}
        for first in paths:
            plane = draw(seed)
            specialized_null_curvature(spec, plane, first)
            filled = plane.form_inputs
            assert (filled is None) == (spec.kind not in
                                        ("MGRW", "GRW", "Kasner", "SSST"))
            for path in paths:
                got = specialized_null_curvature(spec, plane, path)
                assert result_bits(got) == fresh[path]
                assert plane.form_inputs is filled


# ---------------------------------------------------------------------------
# batches: the planes of one plane drawn at a time
# ---------------------------------------------------------------------------

CHUNKS = [1, 7, 64]


def first_seen(items):
    """The distinct objects of ``items`` in the order they first appear."""
    return list({id(x): x for x in items}.values())


def as_report(entry, n, rng_at):
    """One context at the default point and one generator for the batch."""
    rng = rng_at(0)
    return [PointContext(entry.spec, entry.default_point())] * n, [rng] * n


def as_compare(entry, n, rng_at):
    """A generator per sample, which draws the sample's point first."""
    rngs = [rng_at(k) for k in range(n)]
    return [PointContext(entry.spec, entry.random_point(rng))
            for rng in rngs], rngs


def as_scan(entry, n, rng_at):
    """A context per step along the base window, each sharing with the
    step before what does not depend on t, and a generator per step, all
    seeded alike."""
    lo, hi = entry.base_window
    ctx = PointContext(entry.spec, entry.default_point())
    contexts = [ctx.at_base(float(t)) for t in np.linspace(lo, hi, n)]
    return contexts, [rng_at(0) for _ in contexts]


def assert_same_batch(spec, side, rng_at, n, **kwargs):
    """``sample_planes`` on one copy of a batch and the reference, a plane
    at a time, on another give the same planes, and every generator's
    next draw is the same."""
    contexts_a, rngs_a = side(n, rng_at)
    contexts_b, rngs_b = side(n, rng_at)
    got = sample_planes(spec, contexts_a, rngs_a, **kwargs)
    want = [reference_sample_plane(spec, g, rng, **kwargs)
            for g, rng in zip(contexts_b, rngs_b)]
    assert [plane_bits(p) for p in got] == [plane_bits(p) for p in want]
    assert got == want
    assert all(p.context is g for p, g in zip(got, contexts_a))
    for a, b in zip(first_seen(rngs_a), first_seen(rngs_b)):
        assert bits(a.random()) == bits(b.random())
    return rngs_a, rngs_b


SIDES = {"report": as_report, "compare": as_compare, "scan": as_scan}


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("base_free", [False, True])
def test_batches(entry, side, base_free):
    for n in CHUNKS:
        assert_same_batch(
            entry.spec, lambda n, rng_at: SIDES[side](entry, n, rng_at),
            lambda k: np.random.default_rng(1000 * n + k), n,
            base_free=base_free)


def test_batch_with_a_numpy_frame():
    """A frame with a numpy float component draws the reference's planes,
    bit for bit."""
    entry = CATALOG[0]

    def frame(ctx):
        U = scaled_frame(ctx)
        return TangentVector(np.float64(U.base_part), U.fiber_parts)

    for n in CHUNKS:
        contexts, _ = as_report(entry, n, np.random.default_rng)
        U = frame(contexts[0])
        assert_same_batch(entry.spec,
                          lambda n, rng_at: as_report(entry, n, rng_at),
                          np.random.default_rng, n, frame_U=U)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_float32_frame_is_computed_in_float64(entry):
    """A frame whose base component is a np.float32 draws the planes of
    the same frame with a np.float64 component; each plane keeps its own
    frame."""
    def frame(ctx, dtype):
        U = scaled_frame(ctx)
        if isinstance(U.base_part, tuple):
            base = (dtype(np.float32(U.base_part[0])),) + U.base_part[1:]
        else:
            base = dtype(np.float32(U.base_part))
        return TangentVector(base, U.fiber_parts)

    planes = []
    for dtype in (np.float32, np.float64):
        contexts, rngs = as_report(entry, 7, np.random.default_rng)
        planes.append(sample_planes(entry.spec, contexts, rngs,
                                    frame_U=frame(contexts[0], dtype)))
    got, want = ([dict(plane_bits(p), frame_U=None) for p in ps]
                 for ps in planes)
    assert got == want


class ShrunkDraws:
    """A generator whose normals numbered ``start`` to ``start + count - 1``
    (counted over all its ``standard_normal`` calls) come out multiplied
    by ``factor``.  With the default 1e-13, or with 0.0, a direction
    drawn from them has no spacelike part the sampler accepts, so that try
    is rejected.
    The count is part of its ``bit_generator.state``, so a sampler that
    restores the state draws the same numbers again."""

    def __init__(self, seed, start, count, factor=1e-13):
        self._gen = np.random.default_rng(seed)
        self._shrunk = range(start, start + count)
        self._factor = factor
        self.drawn = 0
        self.bit_generator = self

    @property
    def state(self):
        return self._gen.bit_generator.state, self.drawn

    @state.setter
    def state(self, value):
        self._gen.bit_generator.state, self.drawn = value

    def standard_normal(self, size):
        z = self._gen.standard_normal(size)
        first, self.drawn = self.drawn, self.drawn + size
        return np.array([x * self._factor if first + i in self._shrunk
                         else x for i, x in enumerate(z)])

    def uniform(self, low, high):
        return self._gen.uniform(low, high)

    def random(self):
        return self._gen.random()


REJECTED = 3  # the plane whose first try is rejected, mid-batch
# (base_free, factor): shrunk draws, and draws that are exactly zero
SHRUNK = [pytest.param(base_free, factor, id=f"{base_free}{suffix}")
          for factor, suffix in ((1e-13, ""), (0.0, "-zeros"))
          for base_free in (False, True)]


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("base_free, factor", SHRUNK)
def test_rejection_restarts_the_shared_generator(entry, base_free, factor):
    """``report``: one generator feeds the batch, so a rejected first try
    of plane 3 restarts the whole batch from the generator's state before
    it; plane 3 then takes a second try and every later plane draws
    later numbers.  The rejected try drew its direction and no W."""
    dims = sum(f.dim for f in entry.spec.fibers)
    start = REJECTED * 2 * dims  # plane 3's first direction
    n = 7
    rngs_a, rngs_b = assert_same_batch(
        entry.spec, lambda n, rng_at: as_report(entry, n, rng_at),
        lambda k: ShrunkDraws(5, start, dims, factor), n,
        base_free=base_free)
    assert rngs_a[0].drawn == rngs_b[0].drawn == (2 * n + 1) * dims


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("base_free, factor", SHRUNK)
def test_rejection_restarts_its_sample(entry, base_free, factor):
    """``compare``: sample 3's generator rejects its first try, so sample
    3 alone is drawn again from its generator's state before the batch."""
    dims = sum(f.dim for f in entry.spec.fibers)
    n = 7

    def rng_at(k):
        return ShrunkDraws(100 + k, 0, dims if k == REJECTED else 0, factor)

    rngs_a, rngs_b = assert_same_batch(
        entry.spec, lambda n, rng_at: as_compare(entry, n, rng_at), rng_at,
        n, base_free=base_free)
    for k, (a, b) in enumerate(zip(rngs_a, rngs_b)):
        assert a.drawn == b.drawn == (3 if k == REJECTED else 2) * dims


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("base_free", [False, True])
def test_exact_zero_in_one_plane(entry, base_free):
    """Sample 3 draws 0.0 as the last normal of its direction; the
    triangular solve keeps that component exactly zero, and so do the
    null L and its spatial part.  The batch skips the zero in plane 3
    alone, as the scalar form does, and accepts every first try."""
    dims = sum(f.dim for f in entry.spec.fibers)

    def rng_at(k):
        return ShrunkDraws(200 + k, dims - 1, 1 if k == REJECTED else 0, 0.0)

    rngs_a, _ = assert_same_batch(
        entry.spec, lambda n, rng_at: as_compare(entry, n, rng_at), rng_at,
        7, base_free=base_free)
    assert [a.drawn for a in rngs_a] == [2 * dims] * 7


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("base_free", [False, True])
def test_thirty_two_rejected_tries_raise(entry, base_free):
    """Every direction has no spacelike part: the plane is refused after
    32 tries, and the generator has drawn 32 directions and no W, as the
    reference's has."""
    spec = entry.spec
    dims = sum(f.dim for f in spec.fibers)
    ctx = PointContext(spec, entry.default_point())
    for draw in (sample_plane, reference_sample_plane):
        rng = ShrunkDraws(9, 0, 10**6)
        with pytest.raises(PlaneError, match="in 32 tries"):
            draw(spec, ctx, rng, base_free=base_free)
        assert rng.drawn == 32 * dims


def spacelike_frame(spec):
    dim = spec.fibers[0].dim
    return TangentVector.fiber_direction(spec, 0, [1.0] + [0.0] * (dim - 1))


# a frame that is not timelike or not finite: its error type and message
BAD_FRAMES = pytest.mark.parametrize("frame, error, message", [
    (spacelike_frame, ValidationError, "^frame must be timelike"),
    (lambda spec: TangentVector.base_direction(spec, math.nan), PlaneError,
     "^frame is not finite")], ids=["spacelike", "nan"])


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@BAD_FRAMES
def test_bad_frame_raises_before_any_draw(entry, frame, error, message):
    """A batch of 3 planes fed by one generator, in the congruence of a
    frame that is not timelike or not finite: the frame's error, and the
    generator has drawn nothing."""
    spec = entry.spec
    ctx = PointContext(spec, entry.default_point())
    rng = np.random.default_rng(11)
    with pytest.raises(error, match=message) as raised:
        sample_planes(spec, [ctx] * 3, [rng] * 3, frame_U=frame(spec))
    assert type(raised.value) is error
    assert bits(rng.random()) == bits(np.random.default_rng(11).random())


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize("base_free", [False, True])
def test_direction_not_finite_raises_in_order(entry, base_free):
    """Sample 3 draws an infinite normal in its direction: the batch
    raises the PlaneError of normalize_null, not an arithmetic error.  If
    sample 1 can draw no plane, its error comes first, as it does when
    the planes are drawn one at a time."""
    def draw(never):
        def rng_at(k):
            if k == REJECTED:
                return ShrunkDraws(300 + k, 0, 1, math.inf)
            return ShrunkDraws(300 + k, 0, 10**6 if k == never else 0)
        contexts, rngs = as_compare(entry, 7, rng_at)
        sample_planes(entry.spec, contexts, rngs, base_free=base_free)

    with pytest.raises(PlaneError, match="direction is not finite"):
        draw(never=None)
    with pytest.raises(PlaneError, match="in 32 tries"):
        draw(never=1)


# ---------------------------------------------------------------------------
# the library's plane functions at one plane: the reference, bit for bit
# ---------------------------------------------------------------------------

def mixed(rng, n):
    """n components: Python floats and np.float64s, with exact and signed
    zeros among them."""
    out = []
    for x, kind, typed in zip(rng.standard_normal(n).tolist(),
                              rng.integers(5, size=n), rng.integers(2, size=n)):
        x = {3: 0.0, 4: -0.0}.get(int(kind), x)
        out.append(np.float64(x) if typed else x)
    return tuple(out)


def mixed_vector(spec, rng):
    return tangent(spec, mixed(rng, spec.dim))


def numpy_frame(ctx):
    """The tilted frame with every component a np.float64."""
    U = tilted_frame(ctx)
    return tangent(ctx.spec, tuple(map(np.float64, components(U))))


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, by bits, or the type and message it raises."""
    try:
        got = fn(*args, **kwargs)
    except GeometryError as exc:
        return type(exc), str(exc)
    if isinstance(got, NullPlane):
        return plane_bits(got)
    if isinstance(got, TangentVector):
        return vector_bits(got)
    return bits(got)


FRAMES = [lambda ctx: default_frame(ctx.spec, ctx), tilted_frame, numpy_frame]


def assert_one_plane(spec, point, seed):
    """normalize_null, make_degenerate_plane and PointContext.inner, and
    the reference's, at one point drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    g = PointContext(spec, point(rng))
    X, Y = mixed_vector(spec, rng), mixed_vector(spec, rng)
    for a, b in ((X, Y), (Y, X), (X, X)):
        assert outcome(g.inner, a, b) == outcome(ref_inner, g, a, b)
    U = FRAMES[seed % len(FRAMES)](g)
    L = None
    while L is None:  # until a direction has a spacelike part
        D = mixed_vector(spec, rng)
        for direction in (D, U):  # the frame itself has none
            assert (outcome(normalize_null, spec, g, U, direction)
                    == outcome(ref_normalize_null, spec, g, U, direction))
        try:
            L = normalize_null(spec, g, U, D)
        except ConstructionError:
            pass
    S = mixed_vector(spec, rng)
    for args in ((L, S, U), (-L, S, U), (L, S, None), (L, L, U), (D, S, U),
                 (L, S, L)):
        assert (outcome(make_degenerate_plane, spec, g, *args)
                == outcome(ref_make_degenerate_plane, spec, g, *args))


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_plane_functions_at_one_plane(entry):
    for seed in SEEDS:
        assert_one_plane(entry.spec, entry.random_point, seed)


def test_plane_functions_at_one_plane_on_a_chart_base():
    spec = generic_spec()
    for seed in SEEDS:
        assert_one_plane(spec, generic_point, seed)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
@BAD_FRAMES
def test_make_degenerate_plane_refuses_a_bad_frame(entry, frame, error,
                                                   message):
    """make_degenerate_plane reads g(U,U) as normalize_null and the
    sampler do: a frame that is not timelike or not finite raises that
    frame's error, before L is checked."""
    spec = entry.spec
    g = PointContext(spec, entry.default_point())
    L = normalize_null(spec, g, default_frame(spec, g), spacelike_frame(spec))
    with pytest.raises(error, match=message) as raised:
        make_degenerate_plane(spec, g, L, spacelike_frame(spec), frame(spec))
    assert type(raised.value) is error


# ---------------------------------------------------------------------------
# every number handed back is a Python float
# ---------------------------------------------------------------------------

TYPES = (float, np.float64, np.float32, int)


def retyped(spec, v, shift, exact=False):
    """v with component k cast to ``TYPES[(k + shift) % 4]``; a component
    that the cast would change is cast to float instead where it is not a
    whole number (to int), or where ``exact`` (to np.float32)."""
    comps = []
    for k, c in enumerate(components(v)):
        cast = TYPES[(k + shift) % len(TYPES)]
        if (cast is int or exact) and float(cast(c)) != c:
            cast = float
        comps.append(cast(c))
    return tangent(spec, tuple(comps))


def assert_floats(got):
    """Every number of ``got`` is a Python float: a plane's components of
    L, S and frame_U and its g-values, a vector's components, a scalar."""
    if isinstance(got, NullPlane):
        for v in (got.L, got.S, got.frame_U):
            if v is not None:
                assert_floats(v)
        for k in ("g_LL", "g_LS", "g_SS", "g_LU"):
            assert type(getattr(got, k)) is float, k
    elif isinstance(got, TangentVector):
        assert {type(c) for c in components(got)} == {float}
    else:
        assert type(got) is float


def assert_float_contract(spec, point, seed):
    """The plane functions, on inputs whose components are Python floats,
    np.float64s, np.float32s and ints, hand back Python floats."""
    rng = np.random.default_rng(seed)
    g = PointContext(spec, point(rng))
    seen = set()
    for shift in range(len(TYPES)):
        U = retyped(spec, tilted_frame(g), shift)
        F = retyped(spec, default_frame(spec, g), shift)  # along the base
        X = retyped(spec, mixed_vector(spec, rng), shift)
        Y = retyped(spec, tangent(spec, tuple(rng.standard_normal(spec.dim))),
                    shift)
        seen.update(type(c) for v in (U, F, X, Y) for c in components(v))
        assert_floats(g.inner(X, Y))
        assert_floats(g.form(components(X), components(Y)))
        L = normalize_null(spec, g, U, X)
        assert_floats(L)
        L = retyped(spec, L, shift, exact=True)
        for frame in (U, None):
            assert_floats(make_degenerate_plane(spec, g, L, Y, frame))
            assert_floats(NullPlane.build(spec, g.point, L, Y, frame))
        for frame in (U, None):
            for plane in sample_planes(spec, [g] * 3,
                                       [np.random.default_rng(seed)] * 3,
                                       frame_U=frame):
                assert_floats(plane)
        assert_floats(sample_plane(spec, g, np.random.default_rng(seed),
                                   frame_U=F, base_free=True))
    assert seen == set(TYPES)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_every_number_handed_back_is_a_python_float(entry):
    for seed in range(3):
        assert_float_contract(entry.spec, entry.random_point, seed)


def test_every_number_handed_back_is_a_python_float_on_a_chart_base():
    spec = generic_spec()
    for seed in range(3):
        assert_float_contract(spec, generic_point, seed)
