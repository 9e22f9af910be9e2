"""The derived closed forms agree with the chart oracle on generated
in-domain specs, not only on the catalog models.

Spec files of the four kinds a file can hold (GRW, MGRW, Kasner, SSST),
with euclidean, sphere, hyperbolic and Schwarzschild-spatial fibers and
power, exp, poly and cosh warpings, every parameter inside its domain, go
through ``compare --path as-derived``: it must exit 0, or 3 for a
degenerate metric, and a 2-D spacetime exits 2 with the dimension
message.  Spec files cannot hold a generic base chart, so generated
``generic_warped_spec`` specs go through the plane evaluator in process,
the generic route against K_oracle at the CLI's tolerance."""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from warpcurv import (CoordinateChart, Point, PointContext, assemble_chart,
                      euclidean_fiber, generic_warped_spec, hyperbolic_fiber,
                      sample_planes, sphere_fiber)
from warpcurv import cli
from warpcurv import hyperdual as hd
from warpcurv.tensor_oracle import riemann_oracle_batch

GENERATED = settings(max_examples=30, deadline=None, derandomize=True,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.filter_too_much])
SAMPLES = 16
DIMENSION_MESSAGE = "a degenerate plane needs a spacetime of dimension at least 3"

positive = st.floats(0.5, 2.0)
rate = st.floats(-1.0, 1.0)


def _form(name, params):
    return {"form": name, "params": params}


# a scalar form positive wherever its argument lies in [-1.5, 5]
anywhere = st.one_of(
    st.builds(lambda c, k: _form("exp", {"c": c, "k": k}), positive, rate),
    st.builds(lambda c, k: _form("cosh", {"c": c, "k": k}), positive, rate),
    st.builds(lambda a, b, c: _form("poly", {"coeffs": [a, b, c]}),
              st.floats(1.0, 2.0), st.floats(0.0, 0.3), st.floats(0.0, 0.1)))
# and one that also needs a positive argument
on_positives = st.one_of(
    anywhere,
    st.builds(lambda c, q: _form("power", {"c": c, "q": q}), positive,
              st.floats(-2.0, 2.0)))

# not a 1-D fiber first, so that fewer spacetimes are 2-D
dims = st.sampled_from([2, 1, 3])
fibers = st.one_of(
    st.builds(lambda d: {"model": "euclidean", "dim": d}, dims),
    st.builds(lambda d, r: {"model": "sphere", "dim": d, "radius": r},
              dims, positive),
    st.builds(lambda d, r: {"model": "hyperbolic", "dim": d, "radius": r},
              st.integers(2, 3), positive),
    st.builds(lambda m: {"model": "schwarzschild_spatial", "mass": m},
              positive))


def _dim(fiber) -> int:
    return fiber.get("dim", 3)


@st.composite
def in_domain_spec(draw):
    """A spec dict whose warpings are positive on its base interval and
    whose sampling windows (``cli._fallback_entry``) lie in every chart."""
    kind = draw(st.sampled_from(["GRW", "MGRW", "Kasner", "SSST"]))
    t1 = draw(st.floats(0.5, 2.0))
    d = {"kind": kind, "base": {"t1": t1, "t2": t1 + draw(st.floats(0.5, 3.0))}}
    if kind in ("GRW", "SSST"):
        d["fibers"] = [draw(fibers)]
    else:
        d["fibers"] = draw(st.lists(fibers, min_size=1, max_size=3).filter(
            lambda fs: sum(map(_dim, fs)) <= 7))
    if kind == "SSST":
        # the potential is a function of the first fiber coordinate, whose
        # window reaches below 0 only on a euclidean fiber
        euclidean = d["fibers"][0]["model"] == "euclidean"
        d["warpings"] = [draw(anywhere if euclidean else on_positives)]
    elif kind == "Kasner":
        d["warpings"] = [draw(on_positives)]
        d["kasner_exponents"] = draw(st.lists(
            st.floats(-1.0, 1.0), min_size=len(d["fibers"]),
            max_size=len(d["fibers"])))
    else:
        d["warpings"] = draw(st.lists(on_positives, min_size=len(d["fibers"]),
                                      max_size=len(d["fibers"])))
    return d


@GENERATED
@given(in_domain_spec(), st.integers(0, 2 ** 32))
@example({"kind": "GRW", "base": {"t1": 1.0, "t2": 2.0},
          "fibers": [{"model": "sphere", "dim": 1, "radius": 1.0}],
          "warpings": [_form("exp", {"c": 1.0, "k": 0.5})]}, 0)
def test_derived_forms_agree_on_generated_specs(tmp_path_factory, d, seed):
    tmp = tmp_path_factory.mktemp("spec")
    spec_file, ledger = tmp / "spec.json", tmp / "ledger.json"
    spec_file.write_text(json.dumps(d))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["compare", str(spec_file), "--samples", str(SAMPLES),
                         "--seed", str(seed), "--path", "as-derived",
                         "--ledger", str(ledger)])
    if 1 + sum(map(_dim, d["fibers"])) == 2:
        assert code == 2 and DIMENSION_MESSAGE in err.getvalue(), (
            d, err.getvalue())
        return
    if code == 1:
        rows = json.loads(ledger.read_text())
        raise AssertionError(f"the derived form disagrees with the oracle on "
                             f"{json.dumps(d)} at seed {seed}; first ledger "
                             f"row: {rows[0]}")
    assert code == 0 or (code == 3 and "metric singular" in err.getvalue()), (
        d, seed, code, err.getvalue())


@st.composite
def generic_spec(draw):
    """A multiply warped product over a drawn 2-D Lorentzian base chart,
    and a function drawing a point in its sampling windows.  The sampler
    draws the spatial directions of L and S in the fibers only, so the
    fibers have two dimensions at least."""
    a, e = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    c, k, q = draw(positive), draw(rate), draw(st.floats(0.0, 1.0))
    base = CoordinateChart(
        dim=2, name="drawn_base",
        metric_at=lambda x: [[-(1.0 + a * x[1] * x[1]), 0.0],
                             [0.0, 1.0 + e * x[0] * x[0]]])
    warps = [lambda x: c * hd.exp(k * x[1]),
             lambda x: hd.cosh(k * x[0]) + q * x[1] * x[1]]
    made = draw(st.lists(st.one_of(
        st.builds(sphere_fiber, dims, positive),
        st.builds(hyperbolic_fiber, st.integers(2, 3), positive),
        st.builds(euclidean_fiber, dims)),
        min_size=1, max_size=2).filter(lambda fs: sum(f.dim for f in fs) > 1))
    spec = generic_warped_spec(base, warps[:len(made)], made, name="drawn")

    def point(rng):
        return Point(tuple(rng.uniform(-1.0, 1.0, 2)),
                     tuple(tuple(rng.uniform(x - 0.2, x + 0.2)
                                 for x in f.sample_coords) for f in made))
    return spec, point


@GENERATED
@given(generic_spec(), st.integers(0, 2 ** 32))
def test_generic_route_agrees_on_generated_chart_bases(drawn, seed):
    spec, point = drawn
    rng = np.random.default_rng(seed)
    contexts = [PointContext(spec, point(rng)) for _ in range(SAMPLES)]
    planes = sample_planes(spec, contexts, [rng] * SAMPLES)
    batch = riemann_oracle_batch(assemble_chart(spec),
                                 [c.point.flat(spec) for c in contexts])
    evaluations = cli._evaluate_planes(spec, planes, batch, ("derived",),
                                       generic=True)
    for plane, k_oracle, tol, forms, gen in evaluations:
        assert math.isfinite(k_oracle) and tol >= cli.COMPARE_ABS_TOL
        for label, res in (("derived", forms["derived"]), ("generic", gen)):
            assert not cli._disagree(res.value, k_oracle, tol), (
                label, plane.point, res.value, k_oracle, tol)
