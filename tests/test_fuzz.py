"""Property-based fuzzing of the two input surfaces: spec dicts and CLI
argument vectors.  Every input either works or ends in a documented
error: a ``GeometryError`` from ``spec_from_dict``, and from ``cli.main``
exit 0, 2 or 3 (exit 1 only from ``compare``, never exit 4)."""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpcurv import GeometryError, ManifoldSpec, catalog
from warpcurv import cli
from warpcurv.core_types import spec_from_dict

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

def mostly(strategy, other):
    """``strategy`` nine times in ten, else ``other``."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else strategy)


numbers = mostly(st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3)),
                 st.floats(allow_nan=True, allow_infinity=True))
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(-3, 3), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def maybe(strategy):
    """Mostly the strategy, sometimes a value of the wrong type."""
    return mostly(strategy, junk)


def fields(required, optional):
    """A dict with the required keys (now and then some left out) and
    some of the optional ones."""
    return mostly(st.fixed_dictionaries(required, optional=optional),
                  st.fixed_dictionaries({}, optional={**required, **optional}))


params = fields({}, {key: maybe(numbers) for key in ("c", "q", "k", "m")}
                | {"coeffs": maybe(st.lists(numbers, max_size=3))})
scalar_form = fields({
    "form": maybe(st.sampled_from(["power", "exp", "poly", "cosh",
                                   "schwarzschild", "cubic"])),
    "params": maybe(params)}, {})
fiber = fields(
    {"model": maybe(st.sampled_from(["euclidean", "sphere", "hyperbolic",
                                     "schwarzschild_spatial", "torus"])),
     "dim": maybe(st.one_of(st.integers(1, 3), st.integers(-1, 10),
                            st.sampled_from([3000, 1e308, 2.5])))},
    {"radius": maybe(numbers), "mass": maybe(numbers)})
spec_dict = fields({
    "kind": maybe(st.sampled_from(["GRW", "MGRW", "Kasner", "SSST",
                                   "MultiplyWarped-generic"])),
    "base": maybe(fields({"t1": maybe(numbers), "t2": maybe(numbers)}, {})),
    "fibers": maybe(st.lists(fiber, min_size=1, max_size=3)),
    "warpings": maybe(st.lists(scalar_form, min_size=1, max_size=3)),
}, {"kasner_exponents": maybe(st.lists(numbers, max_size=3)),
    "name": maybe(st.text(max_size=4))})


@st.composite
def well_formed_spec(draw):
    """A spec dict with every field present and of the right type, so the
    draws reach the structure checks and the evaluators."""
    kind = draw(st.sampled_from(["GRW", "MGRW", "Kasner", "SSST"]))
    t1 = draw(numbers)
    t2 = draw(mostly(st.floats(0.1, 5.0).map(lambda w: t1 + w), numbers))
    n = 1 if kind in ("GRW", "SSST") else draw(st.integers(1, 3))
    fiber = st.one_of(
        st.builds(lambda d: {"model": "euclidean", "dim": d}, st.integers(1, 3)),
        st.builds(lambda d, r: {"model": "sphere", "dim": d, "radius": r},
                  st.integers(1, 3), numbers),
        st.builds(lambda d, r: {"model": "hyperbolic", "dim": d, "radius": r},
                  st.integers(2, 3), numbers),
        st.builds(lambda m: {"model": "schwarzschild_spatial", "mass": m},
                  numbers))
    form = st.one_of(
        st.builds(lambda c, q: {"form": "power", "params": {"c": c, "q": q}},
                  numbers, numbers),
        st.builds(lambda c, k: {"form": "exp", "params": {"c": c, "k": k}},
                  numbers, numbers),
        st.builds(lambda c, k: {"form": "cosh", "params": {"c": c, "k": k}},
                  numbers, numbers),
        st.builds(lambda a: {"form": "poly", "params": {"coeffs": a}},
                  st.lists(numbers, min_size=1, max_size=3)),
        st.builds(lambda m: {"form": "schwarzschild", "params": {"m": m}},
                  numbers))
    d = {"kind": kind, "base": {"t1": t1, "t2": t2},
         "fibers": draw(st.lists(fiber, min_size=n, max_size=n)),
         "warpings": draw(st.lists(form, min_size=1 if kind == "Kasner" else n,
                                   max_size=1 if kind == "Kasner" else n))}
    if kind == "Kasner":
        d["kasner_exponents"] = draw(st.lists(numbers, min_size=n, max_size=n))
    return d


@FUZZ
@given(st.one_of(spec_dict, well_formed_spec()))
def test_spec_from_dict_returns_a_spec_or_a_geometry_error(d):
    try:
        spec = spec_from_dict(d)
    except GeometryError:
        return
    assert isinstance(spec, ManifoldSpec)


models = st.sampled_from([e.name for e in catalog()] + ["no_such_model"])
counts = st.one_of(st.integers(-1, 5).map(str), st.text(max_size=2))
seeds = st.integers(-2 ** 70, 2 ** 70).map(str)
floats = st.one_of(st.floats(-5.0, 5.0),
                   st.floats(allow_nan=True, allow_infinity=True)).map(repr)
points = st.one_of(
    st.text(max_size=10),
    st.lists(st.tuples(st.sampled_from(["t", "x", "y", "z", "r", "q"]), floats),
             min_size=1, max_size=4).map(
        lambda kv: ",".join(f"{k}={v}" for k, v in kv)),
    st.lists(floats, min_size=1, max_size=5).map(",".join))


def _option(name, values):
    """``--name=value`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


report_argv = st.tuples(
    st.just(["report"]), models.map(lambda m: [m]),
    _option("planes", counts), _option("seed", seeds), _option("point", points),
    _option("path", st.sampled_from(["derived", "all", "printed",
                                     "printed_corollary", "printed_unit_s",
                                     "bogus"])),
    _option("format", st.sampled_from(["json", "csv", "text"])))
compare_argv = st.tuples(
    st.just(["compare"]), models.map(lambda m: [m]),
    _option("samples", counts), _option("seed", seeds),
    _option("path", st.sampled_from(["as-derived", "as-printed"])))
scan_argv = st.tuples(
    st.just(["scan"]), models.map(lambda m: [m]),
    floats.map(lambda v: [f"--from={v}"]), floats.map(lambda v: [f"--to={v}"]),
    _option("steps", counts), _option("seed", seeds),
    _option("quantity", st.sampled_from(["KU", "ricci", "numerator"])),
    _option("var", st.sampled_from(["t", "x"])))


def _run(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the vector
        return exc.code


def _check_exit(parts, spec=None):
    """Run one generated vector, its output in a fresh directory (and its
    model the generated spec, written to a file there, if given)."""
    argv = [a for part in parts for a in part]
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            argv[1] = os.path.join(tmp, "spec.json")
            with open(argv[1], "w") as fh:
                json.dump(spec, fh)
        out = os.path.join(tmp, "out")
        code = _run(argv + ["--ledger" if argv[0] == "compare" else "--out", out])
    allowed = {0, 1, 2, 3} if argv[0] == "compare" else {0, 2, 3}
    assert code in allowed, (spec, argv, code)


commands = st.one_of(report_argv, compare_argv, scan_argv)


@FUZZ
@given(commands)
def test_cli_exits_with_a_documented_code(parts):
    _check_exit(parts)


@FUZZ
@given(well_formed_spec(), commands)
def test_cli_on_spec_files_exits_with_a_documented_code(spec, parts):
    _check_exit(parts, spec)


def test_plain_vectors_run():
    """A plain vector of each command, in the form the strategies write
    their options, runs to exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        assert _run(["report", "minkowski", "--planes=1", "--out", out]) == 0
        assert _run(["compare", "minkowski", "--samples=1",
                     "--ledger", out]) == 0
        assert _run(["scan", "minkowski", f"--from={-1.0!r}",
                     f"--to={math.pi!r}", "--steps=2", "--out", out]) == 0
