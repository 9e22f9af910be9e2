"""The plane evaluator's verdicts: a derived value that is NaN or infinite
disagrees with the oracle, so ``compare`` writes a ledger row for it and
exits 1, and ``report`` raises a flag for it."""

import contextlib
import dataclasses
import io
import json
import math

import pytest

from warpcurv import cli

BAD = [math.nan, math.inf, -math.inf]


@pytest.fixture
def broken_derived(monkeypatch, request):
    """Every derived closed form evaluates to ``request.param``."""
    real = cli.specialized_null_curvature

    def derived_is_bad(spec, plane, path="derived"):
        res = real(spec, plane, path)
        if path != "derived":
            return res
        return dataclasses.replace(res, value=request.param)

    monkeypatch.setattr(cli, "specialized_null_curvature", derived_is_bad)
    return request.param


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("broken_derived", BAD, indirect=True)
@pytest.mark.parametrize("path", ["as-derived", "as-printed"])
def test_compare_counts_a_bad_value_as_a_disagreement(broken_derived, path,
                                                      tmp_path):
    ledger = tmp_path / "ledger.json"
    code, out = _main("compare", "minkowski", "--samples", "5", "--seed", "3",
                      "--path", path, "--ledger", str(ledger))
    assert code == 1
    assert out.endswith("derived-vs-oracle DISAGREES\n")
    rows = [r for r in json.loads(ledger.read_text())
            if (r["term"], r["path_a"], r["path_b"])
            == ("value", "as-derived", "oracle")]
    assert len(rows) == 5
    for row in rows:
        assert _same(row["value_a"], broken_derived)
        assert math.isfinite(row["value_b"])


@pytest.mark.parametrize("broken_derived", BAD, indirect=True)
def test_report_flags_a_bad_value(broken_derived):
    code, out = _main("report", "minkowski", "--planes", "3", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert [_same(row["K_derived"], broken_derived)
            for row in doc["planes"]] == [True] * 3
    assert doc["discrepancy_flags"] == [
        f"plane {i}: derived K deviates from oracle" for i in range(3)]
    code, out = _main("report", "minkowski", "--planes", "3", "--seed", "3",
                      "--format", "text")
    assert code == 0
    assert out.endswith("flags:\n" + "".join(
        f"  plane {i}: derived K deviates from oracle\n" for i in range(3)))


@pytest.mark.parametrize("a,b,tol,off", [
    (1.0, 1.0 + 1e-11, 1e-10, False),
    (1.0, 1.0 + 1e-9, 1e-10, True),
    (0.0, 1e-10, 1e-10, False),
    (math.nan, 0.0, 1e-10, True),
    (0.0, math.nan, 1e-10, True),
    (math.inf, math.inf, 1e-10, True),
    (math.inf, 0.0, 1e-10, True),
    (-math.inf, 0.0, 1.0, True),
])
def test_disagree(a, b, tol, off):
    assert cli._disagree(a, b, tol) is off
