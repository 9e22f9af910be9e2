"""Batched jets, the batched chart oracle and the block-form Ricci matrix,
each checked against the scalar path it stands in for: the hyper-dual
arithmetic of ``tests/reference_hyperdual.py`` and the per-point oracle of
``tests/reference_oracle.py`` are the references."""

import math
import subprocess
import sys

import numpy as np
import pytest

from reference_hyperdual import HyperDual
from reference_lifts import ricci_general
from reference_oracle import metric_partials, riemann_oracle
from warpcurv import (CoordinateChart, DegenerateMetricError, DomainError,
                      Interval, Point, PointContext, WarpingFunction,
                      assemble_chart, catalog, euclidean_fiber,
                      generic_warped_spec, grw_spec, hyperbolic_fiber,
                      ricci_matrix, riemann_oracle_batch,
                      schwarzschild_spatial_fiber, sphere_fiber, split)
from warpcurv import cli
from warpcurv import hyperdual as hd
from warpcurv.cli import CHUNK
from warpcurv.cli import main as cli_main
from warpcurv.tensor_oracle import _metric_partials_batch

BATCH_TOL = 1e-13


def generic_spec():
    base = CoordinateChart(
        dim=2,
        metric_at=lambda c: [[-(1.0 + c[1] * c[1]), 0.0], [0.0, 1.0]],
        name="curved_line")
    return generic_warped_spec(
        base, [lambda c: hd.exp(0.5 * c[1]), lambda c: hd.cosh(c[0]) + c[1] * c[1]],
        [sphere_fiber(2, 1.5), euclidean_fiber(1, ("z",))], name="generic")


def generic_points(rng, count):
    return [Point((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  ((rng.uniform(0.6, 2.5), rng.uniform(0, 6)),
                   (rng.uniform(-1, 1),)))
            for _ in range(count)]


def catalog_cases():
    cases = []
    for entry in catalog():
        rng = np.random.default_rng(5)
        pts = [list(entry.random_point(rng).flat(entry.spec)) for _ in range(12)]
        cases.append((entry.name, assemble_chart(entry.spec), pts))
    rng = np.random.default_rng(6)
    for fib, lows, highs in [
            (sphere_fiber(2, 1.3), (0.6, 0.0), (2.5, 6.0)),
            (sphere_fiber(3, 0.8), (0.6, 0.6, 0.0), (2.5, 2.5, 6.0)),
            (hyperbolic_fiber(2, 2.0), (0.3, 0.0), (2.0, 6.0)),
            (hyperbolic_fiber(3, 1.0), (0.3, 0.6, 0.0), (2.0, 2.5, 6.0)),
            (schwarzschild_spatial_fiber(1.0), (2.5, 0.6, 0.0), (8.0, 2.5, 6.0))]:
        pts = [list(rng.uniform(lows, highs)) for _ in range(12)]
        cases.append((fib.chart().name + str(fib.dim), fib.chart(), pts))
    spec = generic_spec()
    pts = [list(p.flat(spec)) for p in generic_points(rng, 12)]
    cases.append(("generic", assemble_chart(spec), pts))
    return cases


CASES = catalog_cases()


def rel_err(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# jets against hyper-duals
# ---------------------------------------------------------------------------

FUNCS = [
    lambda c: hd.sin(c[0]) * hd.exp(c[1]) / (1.0 + c[0] ** 2),
    lambda c: hd.power(c[1], 1.5) * hd.cosh(c[0]) - hd.log(c[1]) * hd.sqrt(c[0]),
    lambda c: 2.0 ** c[0] + np.float64(3.0) * c[1] - hd.tanh(c[0] * c[1]),
    lambda c: hd.sinh(c[0]) ** c[1] + 1.0 / (c[1] - hd.cos(c[0])),
    lambda c: c[0] ** 0 + 4.5,
    lambda c: 2.5,
]


class TestJet:
    @pytest.mark.parametrize("fn", FUNCS)
    def test_bitwise_equal_to_hyperdual_seeding(self, fn):
        """Each jet slot follows the HyperDual formulas, so the value,
        gradient and upper Hessian triangle are the seeding loop's bits."""
        x = [0.7, 1.3]
        val, grad, hess = hd.jet(fn, x)
        for i in range(2):
            for j in range(i, 2):
                y = fn([HyperDual(x[m], float(m == i), float(m == j))
                        for m in range(2)])
                if not isinstance(y, HyperDual):
                    y = HyperDual(y)
                assert (val, grad[i], grad[j], hess[i, j], hess[j, i]) == \
                    (y.re, y.e1, y.e2, y.e12, y.e12)

    @pytest.mark.parametrize("fn", FUNCS)
    def test_hessian_exactly_symmetric(self, fn):
        """Slots (k, l) and (l, k) can round differently; jet mirrors the
        upper triangle as the scalar seeding loops did."""
        X = np.random.default_rng(3).uniform(0.2, 2.0, (500, 2))
        _, _, hess = hd.jet(fn, X)
        assert np.array_equal(hess, hess.transpose(0, 2, 1))

    @pytest.mark.parametrize("fn", FUNCS)
    def test_batch_equals_single_points(self, fn):
        X = np.array([[0.7, 1.3], [1.1, 0.4], [0.2, 2.5]])
        val, grad, hess = hd.jet(fn, X)
        assert val.shape == (3,) and grad.shape == (3, 2) and hess.shape == (3, 2, 2)
        for k, x in enumerate(X):
            v1, g1, h1 = hd.jet(fn, x)
            assert val[k] == v1
            assert np.array_equal(grad[k], g1) and np.array_equal(hess[k], h1)

    def test_power_dispatches_on_jets(self):
        val, grad, hess = hd.jet(lambda c: hd.power(c[0], 2.0 / 3.0), [2.0])
        assert grad[0] == pytest.approx((2.0 / 3.0) * 2.0 ** (-1.0 / 3.0), rel=1e-15)
        assert hess[0, 0] == pytest.approx(
            (2.0 / 3.0) * (-1.0 / 3.0) * 2.0 ** (-4.0 / 3.0), rel=1e-15)


def _raised(fn, arg):
    try:
        fn(arg)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return None


class TestJetErrors:
    """Where the scalar hyper-dual path raises, the batch raises the same
    class; it never returns a non-finite value with a numpy warning
    instead."""

    @pytest.mark.parametrize("fn,bad", [
        (lambda x: hd.power(x, 0.5), 0.0),
        (lambda x: hd.power(x, -1.0), 0.0),
        (lambda x: x ** 1.5, -2.0),
        (lambda x: hd.log(x), 0.0),
        (lambda x: hd.log(x), -1.0),
        (lambda x: hd.sqrt(x), -1.0),
        (lambda x: hd.sqrt(x), 0.0),
        (lambda x: 1.0 / x, 0.0),
        (lambda x: hd.exp(x), 1000.0),
        (lambda x: hd.cosh(x), 1000.0),
    ])
    def test_same_exception_class(self, fn, bad):
        scalar = _raised(lambda t: fn(HyperDual(t, 1.0, 1.0, 0.0)), bad)
        batch = _raised(lambda t: hd.jet(lambda c: fn(c[0]), [[1.0], [t]]), bad)
        assert scalar is not None
        assert batch is not None and batch[0] is scalar[0]

    def test_power_zero_base_message(self):
        scalar = _raised(lambda t: HyperDual(t, 1.0, 1.0, 0.0) ** 0.5, 0.0)
        batch = _raised(lambda t: hd.jet(lambda c: c[0] ** 0.5, [[t]]), 0.0)
        assert scalar == batch == (ZeroDivisionError, "power at zero base")


# ---------------------------------------------------------------------------
# batched oracle against the scalar oracle
# ---------------------------------------------------------------------------

class TestBatchOracle:
    @pytest.mark.parametrize("name,chart,pts", CASES, ids=[c[0] for c in CASES])
    def test_metric_partials_match_scalar(self, name, chart, pts):
        g, dg, d2g = _metric_partials_batch(chart, np.array(pts))
        for k, x in enumerate(pts):
            rg, rdg, rd2g = metric_partials(chart, x)
            assert rel_err(g[k], rg) <= BATCH_TOL
            assert rel_err(dg[k], rdg) <= BATCH_TOL
            assert rel_err(d2g[k], rd2g) <= BATCH_TOL
        assert np.array_equal(d2g, d2g.transpose(0, 2, 1, 3, 4))

    @pytest.mark.parametrize("name,chart,pts", CASES, ids=[c[0] for c in CASES])
    def test_tensors_match_scalar(self, name, chart, pts):
        batch = riemann_oracle_batch(chart, pts)
        assert len(batch) == len(pts)
        for got, x in zip(batch, pts):
            ref = riemann_oracle(chart, x)
            assert got.point == ref.point
            for field in ("metric", "metric_inv", "gamma", "riemann", "ricci",
                          "dmetric"):
                assert rel_err(getattr(got, field), getattr(ref, field)) <= BATCH_TOL, field

    def test_second_partials_exactly_symmetric(self):
        """d_k d_l g and d_l d_k g can round differently in the jet; the
        batch mirrors k <= l as metric_partials does."""
        def metric(c):
            a = hd.sinh(c[0] * c[1]) ** c[2] + 1.0 / (c[2] - hd.cos(c[0]))
            b = c[0] * c[1] * c[2] + hd.exp(c[1] - c[2])
            return [[3.0 + a, 0.1 * b, 0.0], [0.1 * b, 2.0 + b * b, 0.0],
                    [0.0, 0.0, 1.0 + c[0] ** 2]]
        chart = CoordinateChart(dim=3, metric_at=metric, name="mixed")
        X = np.random.default_rng(3).uniform(0.5, 1.5, (300, 3))
        _, _, d2g = _metric_partials_batch(chart, X)
        assert np.array_equal(d2g, d2g.transpose(0, 2, 1, 3, 4))
        for k in (0, 7, 299):
            assert rel_err(d2g[k], metric_partials(chart, X[k])[2]) <= BATCH_TOL

    def test_empty_batch(self):
        assert riemann_oracle_batch(CASES[0][1], []) == []

    def _parity(self, chart, pts):
        scalar = None
        for x in pts:
            scalar = _raised(lambda y: riemann_oracle(chart, y), x)
            if scalar is not None:
                break
        batch = _raised(lambda xs: riemann_oracle_batch(chart, xs), pts)
        assert scalar is not None
        assert batch == scalar

    def test_out_of_domain_point(self):
        entry = next(e for e in catalog() if e.name == "schwarzschild_exterior")
        chart = assemble_chart(entry.spec)
        self._parity(chart, [[0.0, 3.0, 1.2, 0.4], [0.0, 1.5, 1.2, 0.4]])
        with pytest.raises(DomainError):
            riemann_oracle_batch(chart, [[0.0, 1.5, 1.2, 0.4]])

    def test_singular_metric(self):
        chart = CoordinateChart(
            dim=2, metric_at=lambda c: [[c[0] * c[0], 0.0], [0.0, 1.0]],
            name="pinched")
        self._parity(chart, [[1.0, 0.0], [0.0, 0.5], [2.0, 0.0]])
        with pytest.raises(DegenerateMetricError):
            riemann_oracle_batch(chart, [[1.0, 0.0], [0.0, 0.5]])

    def test_power_zero_base(self):
        chart = CoordinateChart(
            dim=2, metric_at=lambda c: [[1.0 + hd.power(c[0], 0.5), 0.0],
                                        [0.0, 1.0]],
            name="cusp")
        self._parity(chart, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroDivisionError):
            riemann_oracle_batch(chart, [[1.0, 0.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# block-form Ricci matrix against the bilinear expansion
# ---------------------------------------------------------------------------

def assert_same_bits(spec, p):
    """ricci_matrix against ricci_general on the coordinate basis: equal
    entries and equal signs of zero, since reports print -0.0 as such."""
    basis = [split(row, spec) for row in np.eye(spec.dim)]
    ref = np.array([[ricci_general(spec, p, a, b) for b in basis] for a in basis])
    got = ricci_matrix(spec, [p])[0]
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestRicciMatrix:
    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_equals_ricci_general_exactly(self, entry):
        rng = np.random.default_rng(11)
        for _ in range(6):
            assert_same_bits(entry.spec, entry.random_point(rng))

    def test_generic_spec_exactly(self):
        spec = generic_spec()
        for p in generic_points(np.random.default_rng(12), 6):
            assert_same_bits(spec, p)

    def test_hyperbolic_fiber_zero_signs(self):
        """A tagged hyperbolic fiber under a slow warping gives -0.0
        off-diagonal terms before the accumulator's +0.0."""
        spec = grw_spec(Interval(0.0, math.inf),
                        WarpingFunction.from_form("power", {"c": 1.0, "q": 0.25}),
                        hyperbolic_fiber(3, 1.0))
        for t in (0.5, 1.0, 2.0):
            assert_same_bits(spec, Point(t, ((0.8, 1.1, 0.4),)))

    @pytest.mark.parametrize(
        "spec,draw",
        [(e.spec, e.random_point) for e in catalog()]
        + [(generic_spec(), lambda rng: generic_points(rng, 1)[0])],
        ids=[e.name for e in catalog()] + ["generic"])
    def test_chunk_equals_each_point_alone(self, spec, draw):
        """One build over distinct points gives each point the bits, signs
        of zero included, of a build at that point alone."""
        rng = np.random.default_rng(13)
        points = [draw(rng) for _ in range(7)]
        assert len({p.flat(spec) for p in points}) == len(points)
        contexts = [PointContext(spec, p) for p in points]
        PointContext.fill_warp_bundles(contexts)
        chunk = ricci_matrix(spec, contexts)
        assert chunk.shape == (len(points), spec.dim, spec.dim)
        for p, got in zip(points, chunk):
            alone = ricci_matrix(spec, [p])[0]
            assert np.array_equal(got, alone)
            assert np.array_equal(np.signbit(got), np.signbit(alone))

    def test_no_points_no_matrices(self):
        spec = generic_spec()
        assert ricci_matrix(spec, []).shape == (0, spec.dim, spec.dim)

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.name)
    def test_matches_oracle(self, entry):
        p = entry.default_point()
        ref = riemann_oracle(assemble_chart(entry.spec), list(p.flat(entry.spec)))
        assert rel_err(ricci_matrix(entry.spec, [p])[0], ref.ricci) <= 1e-10


# ---------------------------------------------------------------------------
# scan over chunks
# ---------------------------------------------------------------------------

def run_scan(*args):
    return subprocess.run([sys.executable, "-m", "warpcurv.cli", "scan", *args],
                          capture_output=True, text=True)


class TestChunkedScan:
    HEADER = "coordinate,quantity,value,oracle_value,abs_diff"

    def test_zero_steps_is_header_only(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_scan("kasner_vacuum", "--from", "0.5", "--to", "2",
                       "--steps", "0", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().splitlines() == [self.HEADER]

    def test_one_step(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_scan("kasner_vacuum", "--from", "0.5", "--to", "2",
                       "--steps", "1", "--quantity", "ricci", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.5,ricci,")

    @pytest.mark.parametrize("quantity", ["ricci", "KU"])
    def test_crosses_a_chunk_boundary(self, tmp_path, quantity):
        steps = CHUNK + 1
        out = tmp_path / "scan.csv"
        res = run_scan("schwarzschild_exterior", "--from", "-1", "--to", "1",
                       "--steps", str(steps), "--quantity", quantity,
                       "--out", str(out))
        assert res.returncode == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == steps
        ts = np.linspace(-1.0, 1.0, steps)
        for t, row in zip(ts, rows):
            assert float(row[0]) == pytest.approx(t, abs=1e-11)
            assert float(row[4]) <= 1e-9

    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_scan("generalized_reissner_nordstrom_demo", "--from", "0.5",
                     "--to", "3", "--steps", "70", "--quantity", "ricci",
                     "--out", str(path))
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 71

    def test_fills_each_chunk_at_once(self, tmp_path, monkeypatch):
        """The warp bundles of a chunk's steps are filled by one call, not
        one lone context at a time through ``ricci_matrix``."""
        sizes = []
        fill = PointContext.fill_warp_bundles

        def counted(contexts):
            sizes.append(len(contexts))
            fill(contexts)

        monkeypatch.setattr(PointContext, "fill_warp_bundles",
                            staticmethod(counted))
        steps = 2 * CHUNK + 2
        assert cli_main(["scan", "kasner_vacuum", "--from", "0.5", "--to", "2",
                         "--steps", str(steps), "--quantity", "ricci",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        assert sizes == [CHUNK, CHUNK, 2]

    def test_builds_each_chunk_at_once(self, tmp_path, monkeypatch):
        """A chunk's Ricci matrices come from one ``ricci_matrix`` call."""
        sizes = []
        build = cli.ricci_matrix

        def counted(spec, contexts):
            sizes.append(len(contexts))
            return build(spec, contexts)

        monkeypatch.setattr(cli, "ricci_matrix", counted)
        steps = 2 * CHUNK + 2
        assert cli_main(["scan", "kasner_vacuum", "--from", "0.5", "--to", "2",
                         "--steps", str(steps), "--quantity", "ricci",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        assert sizes == [CHUNK, CHUNK, 2]

    def test_domain_error_writes_no_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_scan("kasner_vacuum", "--from", "1", "--to", "-1",
                       "--steps", "5", "--out", str(out))
        assert res.returncode == 3
        assert not out.exists()
