"""Evaluation from concurrent threads gives the single-threaded bits.

Per-point data lives only in the PointContext the caller builds and in
the planes drawn at it, so no evaluator shares mutable state with another
call.  The threaded runs also share each context between several tasks
while its lazy slots are still empty, and one run draws its planes inside
the pool (filling each context's Cholesky factors concurrently) and
evaluates every plane from two tasks at once (filling its closed-form
inputs concurrently), so that filling the slots concurrently is exercised
too.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from warpcurv import (PointContext, ValidationError, catalog, formula_paths,
                      null_curvature_generic, ricci_matrix, sample_plane,
                      specialized_null_curvature)
from warpcurv.core_types import components

CATALOG = catalog()
PLANES_PER_POINT = 3


def draw(entry, seed):
    """A context at a seeded random point and planes drawn at it."""
    rng = np.random.default_rng(seed)
    ctx = PointContext(entry.spec, entry.random_point(rng))
    return ctx, [sample_plane(entry.spec, ctx, rng)
                 for _ in range(PLANES_PER_POINT)]


def evaluate(spec, ctx, plane):
    """Every route at one plane: each formula path, the generic expansion
    and the Ricci matrix, as one flat array."""
    values = []
    for path in formula_paths(spec):
        res = specialized_null_curvature(spec, plane, path)
        values += [res.value, res.numerator, res.denominator]
        values += [float(v) for v in res.breakdown.values()]
    values.append(null_curvature_generic(spec, plane).value)
    values += ricci_matrix(spec, [ctx])[0].ravel().tolist()
    return np.array(values)


def tasks():
    """(spec, ctx, plane) per plane, several planes per fresh context."""
    out = []
    for k, entry in enumerate(CATALOG):
        for seed in (100 * k, 100 * k + 1):
            ctx, planes = draw(entry, seed)
            out += [(entry.spec, ctx, plane) for plane in planes]
    return out


def test_threads_match_single_thread():
    serial = [evaluate(*task) for task in tasks()]
    fresh = tasks()
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda task: evaluate(*task), fresh))
    assert len(threaded) == len(serial) == 2 * len(CATALOG) * PLANES_PER_POINT
    for got, want in zip(threaded, serial):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def draw_one(spec, ctx, seed):
    """One plane drawn at ctx from its own generator, as a flat array of
    L's and S's components and the plane's g-values next to the plane."""
    plane = sample_plane(spec, ctx, np.random.default_rng(seed))
    flat = (components(plane.L) + components(plane.S)
            + (plane.g_LL, plane.g_LS, plane.g_SS, plane.g_LU))
    return plane, np.array(flat, dtype=float)


def draw_tasks():
    """(spec, ctx, seed) per plane; each fresh context is shared by the
    draws of several planes."""
    out = []
    for k, entry in enumerate(CATALOG):
        for seed in (100 * k, 100 * k + 1):
            ctx = PointContext(entry.spec,
                               entry.random_point(np.random.default_rng(seed)))
            out += [(entry.spec, ctx, (seed, j))
                    for j in range(PLANES_PER_POINT)]
    return out


def test_threaded_draws_match_single_thread():
    serial = []
    for spec, ctx, seed in draw_tasks():
        plane, flat = draw_one(spec, ctx, seed)
        serial.append((flat, evaluate(spec, ctx, plane)))
    fresh = draw_tasks()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            drawn = list(pool.map(lambda task: draw_one(*task), fresh,
                                  timeout=120))
            # every plane twice, so two tasks fill its inputs at once
            jobs = [(spec, ctx, plane) for (spec, ctx, _), (plane, _)
                    in zip(fresh, drawn) for _ in range(2)]
            values = list(pool.map(lambda job: evaluate(*job), jobs,
                                   timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == len(serial) == 2 * len(CATALOG) * PLANES_PER_POINT
    for k, (want_flat, want) in enumerate(serial):
        got_flat = drawn[k][1]
        assert np.array_equal(got_flat, want_flat)
        assert np.array_equal(np.signbit(got_flat), np.signbit(want_flat))
        for got in values[2 * k:2 * k + 2]:
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_context_of_rejects_another_spec():
    a, b = CATALOG[0], CATALOG[6]
    ctx = PointContext(a.spec, a.default_point())
    assert PointContext.of(a.spec, ctx) is ctx
    with pytest.raises(ValidationError, match="another spec"):
        PointContext.of(b.spec, ctx)
    plane = sample_plane(a.spec, ctx, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="another spec"):
        specialized_null_curvature(b.spec, plane)


@pytest.mark.parametrize("entry", CATALOG, ids=[e.name for e in CATALOG])
def test_at_base_equals_a_fresh_context(entry):
    """A context moved along t gives the bits of one built at the point."""
    spec, p = entry.spec, entry.default_point()
    ctx = PointContext(spec, p)
    ricci_matrix(spec, [ctx])[0]  # fill the slots at_base may share
    t = 0.25 * entry.base_window[0] + 0.75 * entry.base_window[1]
    moved = ctx.at_base(t)
    fresh = PointContext(spec, moved.point)
    assert moved.point == fresh.point and moved.warps == fresh.warps
    assert np.array_equal(ricci_matrix(spec, [moved])[0],
                          ricci_matrix(spec, [fresh])[0])
    rng = np.random.default_rng(5)
    plane = sample_plane(spec, moved, rng)
    again = sample_plane(spec, fresh, np.random.default_rng(5))
    assert plane == again
    assert np.array_equal(evaluate(spec, moved, plane),
                          evaluate(spec, fresh, again), equal_nan=True)
