"""Command-line interface: output formats, determinism, ledger schema,
exit codes, environment seeding."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "warpcurv.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          env=env, cwd=cwd)


class TestReport:
    def test_minkowski_all_zero(self):
        out = run_cli("report", "minkowski", "--point", "t=0,x=0,y=0,z=0",
                      "--planes", "10")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["model"] == "minkowski"
        for row in doc["planes"]:
            assert row["K_derived"] == 0.0
            assert row["K_oracle"] == 0.0
        assert doc["ricci"]["max_abs_diff"] == 0.0
        assert doc["discrepancy_flags"] == []

    def test_exponential_identity_in_report(self):
        """At t = 1 every sampled plane has K = K_F / b^2 to 1e-10."""
        out = run_cli("report", "grw_exponential", "--point", "t=1",
                      "--planes", "50", "--seed", "5")
        doc = json.loads(out.stdout)
        b2 = math.exp(2.0)
        for row in doc["planes"]:
            assert abs(row["K_derived"] - 1.0 / b2) <= 1e-10

    def test_kasner_report_facts(self):
        out = run_cli("report", "kasner_vacuum", "--point", "t=1,x=0,y=0,z=0",
                      "--planes", "30", "--seed", "2")
        doc = json.loads(out.stdout)
        assert doc["ricci"]["max_abs_diff"] <= 1e-10
        assert max(abs(v) for row in doc["ricci"]["oracle"] for v in row) <= 1e-8
        assert doc["isotropy"]["max_deviation"] > 0.0

    def test_byte_identical_for_same_seed(self):
        a = run_cli("report", "kasner_vacuum", "--seed", "7", "--planes", "5")
        b = run_cli("report", "kasner_vacuum", "--seed", "7", "--planes", "5")
        assert a.stdout == b.stdout
        c = run_cli("report", "kasner_vacuum", "--seed", "8", "--planes", "5")
        assert c.stdout != a.stdout

    def test_env_seed_default(self):
        a = run_cli("report", "kasner_vacuum", "--planes", "5",
                    env_extra={"WARPCURV_SEED": "7"})
        b = run_cli("report", "kasner_vacuum", "--seed", "7", "--planes", "5")
        assert a.stdout == b.stdout

    def test_text_and_csv_formats(self):
        txt = run_cli("report", "minkowski", "--planes", "3", "--format", "text")
        assert txt.returncode == 0 and "flags: none" in txt.stdout
        csv = run_cli("report", "minkowski", "--planes", "3", "--format", "csv")
        assert csv.stdout.splitlines()[0] == "quantity,path,value"

    def test_spec_file_input(self, tmp_path):
        from warpcurv import by_name, spec_to_json
        path = tmp_path / "model.json"
        path.write_text(spec_to_json(by_name("grw_exponential").spec))
        out = run_cli("report", str(path), "--planes", "3")
        assert out.returncode == 0
        assert json.loads(out.stdout)["model"] == "grw_exponential"


class TestCompare:
    def test_minkowski_empty_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        out = run_cli("compare", "minkowski", "--samples", "100",
                      "--ledger", str(ledger))
        assert out.returncode == 0
        assert json.loads(ledger.read_text()) == []

    def test_einstein_static_derived_clean(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        out = run_cli("compare", "einstein_static", "--samples", "100",
                      "--ledger", str(ledger))
        assert out.returncode == 0
        assert json.loads(ledger.read_text()) == []

    def test_printed_path_fills_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        out = run_cli("compare", "grw_exponential", "--samples", "25",
                      "--path", "as-printed", "--ledger", str(ledger))
        assert out.returncode == 0  # derived still matches the oracle
        rows = json.loads(ledger.read_text())
        assert rows
        for row in rows:
            assert {"model", "point", "plane_seed", "term", "path_a",
                    "path_b", "value_a", "value_b", "abs_diff"} <= set(row)
        assert any(r["term"] == "value" and r["path_b"] == "oracle"
                   for r in rows)
        assert any(r["path_a"].startswith("as-printed") for r in rows)

    def test_kasner_printed_terms_in_ledger(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        run_cli("compare", "kasner_vacuum", "--samples", "10",
                "--path", "as-printed", "--ledger", str(ledger))
        terms = {r["term"] for r in json.loads(ledger.read_text())}
        assert "warp_acc_WW" in terms or "hess_mixed_lead" in terms
        assert "denominator" in terms

    def test_deterministic_ledger(self, tmp_path):
        l1, l2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("compare", "kasner_vacuum", "--samples", "10", "--seed", "3",
                "--path", "as-printed", "--ledger", str(l1))
        run_cli("compare", "kasner_vacuum", "--samples", "10", "--seed", "3",
                "--path", "as-printed", "--ledger", str(l2))
        assert l1.read_text() == l2.read_text()


class TestScan:
    def test_csv_schema(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        out = run_cli("scan", "grw_exponential", "--var", "t", "--from", "0",
                      "--to", "2", "--steps", "9", "--out", str(out_path))
        assert out.returncode == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "coordinate,quantity,value,oracle_value,abs_diff"
        assert len(lines) == 10

    def test_exponential_decay_column(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        run_cli("scan", "grw_exponential", "--from", "0", "--to", "2",
                "--steps", "5", "--out", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            t, _, val, oval, diff = line.split(",")
            assert abs(float(val) - math.exp(-2.0 * float(t))) <= 1e-9
            assert float(diff) <= 1e-9

    def test_kasner_log_log_slope(self, tmp_path):
        """K scales as t^-2 toward t -> 0+: slope -2 +- 0.01 in log-log."""
        out_path = tmp_path / "scan.csv"
        run_cli("scan", "kasner_vacuum", "--from", "0.01", "--to", "0.1",
                "--steps", "7", "--quantity", "numerator",
                "--out", str(out_path))
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        ts = [float(r[0]) for r in rows]
        ks = [abs(float(r[2])) for r in rows]
        slope = (math.log(ks[-1]) - math.log(ks[0])) / (
            math.log(ts[-1]) - math.log(ts[0]))
        assert slope == pytest.approx(-2.0, abs=0.01)

    def test_minkowski_all_zero(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        run_cli("scan", "minkowski", "--from", "-1", "--to", "1",
                "--steps", "5", "--out", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_ricci_quantity(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        run_cli("scan", "kasner_vacuum", "--from", "0.5", "--to", "2",
                "--steps", "4", "--quantity", "ricci", "--out", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            assert float(line.split(",")[2]) <= 1e-8


class TestExitCodes:
    def test_validation_error_is_2(self):
        out = run_cli("report", "minkowski", "--point", "t=0,x=0,y=0,q=0")
        assert out.returncode == 2
        assert "error" in out.stderr

    def test_unknown_model_is_2(self):
        out = run_cli("report", "no_such_model")
        assert out.returncode == 2

    def test_domain_error_is_3(self):
        out = run_cli("report", "schwarzschild_exterior", "--point",
                      "t=0,r=1.5,theta=1.2,phi=0.4")
        assert out.returncode == 3

    def test_scan_outside_domain_is_3(self):
        out = run_cli("scan", "kasner_vacuum", "--from", "-1", "--to", "1",
                      "--steps", "3")
        assert out.returncode == 3

    def test_scan_inside_the_margin_is_3(self):
        """t = 1e-300 is inside (0, inf) but within the interior margin."""
        out = run_cli("scan", "kasner_vacuum", "--from=1e-300", "--to=1",
                      "--steps", "100")
        assert out.returncode == 3
        assert out.stderr.splitlines() == [
            "error: t = 1e-300 is not at least 1e-12 inside (0.0, inf)"]


class TestInputErrors:
    """Bad input ends in exit 2 (validation) or 3 (domain) with a one-line
    message, never in a traceback with exit 1."""

    @pytest.mark.parametrize("args", [
        ("report", "minkowski", "--planes", "0"),
        ("report", "minkowski", "--planes", "-1"),
        ("compare", "minkowski", "--samples", "-3"),
        ("scan", "minkowski", "--from", "0", "--to", "1", "--steps", "-1"),
        ("report", "minkowski", "--planes", "two"),
    ], ids=["planes-0", "planes-neg", "samples-neg", "steps-neg", "planes-text"])
    def test_bad_count_is_2(self, args):
        out = run_cli(*args)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "must be at least" in out.stderr or "not an integer" in out.stderr

    def test_zero_samples_allowed(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        out = run_cli("compare", "minkowski", "--samples", "0",
                      "--ledger", str(ledger))
        assert out.returncode == 0
        assert json.loads(ledger.read_text()) == []

    @pytest.mark.parametrize("point,message", [
        ("t=abc", "--point: coordinate 't' is not a number: 'abc'"),
        ("abc,1,2,3", "--point: coordinate 't' is not a number: 'abc'"),
        ("t=1,t=2", "--point: coordinate 't' given twice"),
    ], ids=["t=abc", "abc,1,2,3", "t=1,t=2"])
    def test_unparsable_point_is_2(self, point, message):
        out = run_cli("report", "minkowski", "--point", point)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("model,coord", [("kasner_flat", "x"),
                                             ("einstein_static", "t")])
    def test_non_finite_point_is_2(self, model, coord, bad):
        out = run_cli("report", model, "--point", f"{coord}={bad}")
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            f"error: point coordinate {coord!r} is not finite: {float(bad)}"]

    @pytest.mark.parametrize("text", ["abc", "1.5", ""])
    def test_bad_seed_variable_is_2(self, monkeypatch, capsys, text):
        from warpcurv import cli
        monkeypatch.setenv("WARPCURV_SEED", text)
        assert cli.main(["report", "minkowski", "--planes", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: WARPCURV_SEED must be an integer, got {text!r}"]

    def test_negative_power_base_is_3(self, tmp_path):
        spec = {"kind": "GRW", "base": {"t1": -5.0, "t2": 5.0},
                "fibers": [{"dim": 1, "model": "euclidean"}],
                "warpings": [{"form": "power", "params": {"c": 1.0, "q": 0.5}}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = run_cli("report", str(path), "--point", "t=-1,x=0")
        assert out.returncode == 3
        assert len(out.stderr.splitlines()) == 1
        assert "negative base" in out.stderr

    @pytest.mark.parametrize("command", [
        ("report",), ("compare", "--samples", "1"),
        ("scan", "--from", "0", "--to", "1"),
    ], ids=["report", "compare", "scan"])
    def test_directory_as_model_is_2(self, tmp_path, command):
        ledger = tmp_path / "ledger.json"
        extra = ("--ledger", str(ledger)) if command[0] == "compare" else ()
        out = run_cli(command[0], str(tmp_path), *command[1:], *extra)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            f"error: spec file {str(tmp_path)!r} is not a regular file"]
        assert not ledger.exists()

    GRW = {"kind": "GRW", "base": {"t1": -5.0, "t2": 5.0},
           "fibers": [{"dim": 1, "model": "euclidean"}],
           "warpings": [{"form": "exp", "params": {"c": 1.0, "k": 1.0}}]}

    @pytest.mark.parametrize("text,message", [
        ('{"kind": "GRW", ', "spec is not valid JSON"),
        ('[1, 2]', "spec must be an object"),
        (json.dumps({k: v for k, v in GRW.items() if k != "fibers"}),
         "missing field 'fibers'"),
        (json.dumps({**GRW, "fibers": {"dim": 1}}),
         "field 'fibers' must be a non-empty list"),
        (json.dumps({**GRW, "base": {"t1": "early", "t2": 5.0}}),
         "field 'base.t1' must be a number"),
        (json.dumps({**GRW, "fibers": [{"dim": 1}]}),
         "missing field 'fibers[0].model'"),
        (json.dumps({**GRW, "warpings": [{"form": "exp",
                                          "params": {"c": "one", "k": 1.0}}]}),
         "warpings[0]: parameter 'c' must be a number"),
        (json.dumps({**GRW, "warpings": [{"form": "exp", "params": {"c": 1.0}}]}),
         "warpings[0]: exp form needs parameter 'k'"),
        (json.dumps({**GRW, "fibers": [{"dim": 2, "model": "sphere",
                                        "radius": 0.0}]}),
         "not positive definite"),
        (json.dumps({**GRW, "warpings": [{"form": "schwarzschild",
                                          "params": {"m": 1.0}}]}),
         "warping cannot be evaluated at t = 0.0"),
    ], ids=["not-json", "not-object", "no-fibers", "fibers-type", "t1-type",
            "fiber-model", "param-type", "param-missing", "radius-0",
            "warping-domain"])
    def test_bad_spec_file_is_2(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        out = run_cli("report", str(path), "--point", "t=1.0")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1
        assert message in out.stderr

    EXTRA_FIBER = {"dim": 1, "model": "euclidean"}
    EXTRA_WARPING = {"form": "exp", "params": {"c": 1.0, "k": 0.3}}

    @pytest.mark.parametrize("kind,key", [
        ("GRW", "fibers"), ("GRW", "warpings"), ("SSST", "fibers"),
        ("SSST", "warpings"), ("Kasner", "warpings")])
    def test_extra_entry_is_refused(self, kind, key):
        """A GRW or static model has one fiber and one warping, and a
        Kasner model one scale function: a second entry is refused, not
        dropped."""
        from warpcurv import spec_from_dict
        from warpcurv.errors import ValidationError

        d = {**self.GRW, "kind": kind, "fibers": [
            {"dim": 2, "model": "euclidean"}]}
        if kind == "Kasner":
            d["kasner_exponents"] = [1.0]
        spec_from_dict(d)
        extra = self.EXTRA_FIBER if key == "fibers" else self.EXTRA_WARPING
        d[key] = d[key] + [extra]
        with pytest.raises(ValidationError) as err:
            spec_from_dict(d)
        assert str(err.value) == (f"spec: field {key!r} must hold one entry "
                                  f"for kind {kind!r}, got 2")

    def test_grw_file_with_two_fibers_is_2(self, tmp_path):
        """Before, this file ran as the 4-D model of its first fiber and
        warping, exit 0, with the hash of that truncated spec."""
        spec = {**self.GRW, "fibers": [{"dim": 3, "model": "euclidean"},
                                       self.EXTRA_FIBER],
                "warpings": self.GRW["warpings"] + [self.EXTRA_WARPING]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = run_cli("report", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "error: spec: field 'fibers' must hold one entry for kind 'GRW', "
            "got 2"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("model", ["sphere", "hyperbolic"])
    def test_negative_radius_is_2(self, tmp_path, model):
        """A negative radius describes no fiber; it is not read as |r|."""
        spec = {**self.GRW, "fibers": [{"dim": 2, "model": model,
                                        "radius": -2.0}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = run_cli("report", str(path))
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "error: spec: field 'fibers[0].radius' must not be negative, "
            "got -2.0"]

    @pytest.mark.parametrize("dim", [0, 9, 3000, 1e308])
    def test_fiber_dim_out_of_range_is_2(self, tmp_path, dim):
        """The bound is checked before any fiber is built."""
        spec = {**self.GRW, "fibers": [{"dim": dim, "model": "euclidean"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = run_cli("report", str(path))
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            f"error: spec: field 'fibers[0].dim' must be an integer from 1 "
            f"to 8, got {float(dim)!r}"]

    @pytest.mark.parametrize("window", [("-inf", "0"), ("nan", "1"),
                                        ("-1e308", "1e308")])
    def test_non_finite_scan_window_is_2(self, window):
        out = run_cli("scan", "minkowski", f"--from={window[0]}",
                      f"--to={window[1]}")
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "error: --from and --to must be finite numbers with a finite span"]

    @pytest.mark.parametrize("model,window,message", [
        ("grw_exponential", ("5e16", "5e16"), "math range error"),
        ("kasner_vacuum", ("1.1", "3e218"), "overflow encountered in det"),
    ], ids=["python-overflow", "numpy-overflow"])
    def test_overflow_is_3(self, model, window, message):
        """A model that overflows at the point exits 3, whether Python or
        numpy overflows; numpy's would otherwise be a warning and a row."""
        out = run_cli("scan", model, f"--from={window[0]}",
                      f"--to={window[1]}", "--steps=3", "--quantity=ricci")
        assert out.returncode == 3
        assert out.stderr.splitlines() == [
            f"error: the model cannot be evaluated here: {message}"]

    def test_ledger_directory_is_2(self, tmp_path):
        out = run_cli("compare", "minkowski", "--samples", "1",
                      "--ledger", str(tmp_path))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1


def _two_dimensional(kind: str) -> dict:
    """A spec of ``kind`` with one 1-D euclidean fiber."""
    d = {"kind": kind, "base": {"t1": 0.5, "t2": 2.0},
         "fibers": [{"dim": 1, "model": "euclidean"}],
         "warpings": [{"form": "exp", "params": {"c": 1.0, "k": 0.5}}]}
    if kind == "Kasner":
        d["kasner_exponents"] = [1.0]
    return d


class TestTwoDimensionalSpacetime:
    """A base line and one 1-D fiber make a 2-D spacetime, which has no
    degenerate plane: the sampler refuses it before any draw, with a
    message naming the dimension, and the CLI exits 2."""

    SPECS = {kind: _two_dimensional(kind)
             for kind in ("GRW", "MGRW", "Kasner", "SSST")}
    MESSAGE = ("a degenerate plane needs a spacetime of dimension at least "
               "3, but this {} spacetime has dimension 2")

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_sampler_refuses(self, kind):
        import numpy as np

        from warpcurv import PointContext, spec_from_dict
        from warpcurv.cli import _fallback_entry
        from warpcurv.errors import ValidationError
        from warpcurv.null_sectional import sample_plane, sample_planes

        spec = spec_from_dict(self.SPECS[kind])
        assert spec.dim == 2
        ctx = PointContext(spec, _fallback_entry(kind, spec).default_point())
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for draw in (lambda: sample_plane(spec, ctx, rng),
                     lambda: sample_planes(spec, [ctx] * 3, [rng] * 3)):
            with pytest.raises(ValidationError) as err:
                draw()
            assert str(err.value) == self.MESSAGE.format(kind)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", sorted(SPECS))
    @pytest.mark.parametrize("command", [
        ("report",), ("compare", "--samples", "3"),
        ("scan", "--from", "0.6", "--to", "1.5", "--steps", "3"),
    ], ids=["report", "compare", "scan"])
    def test_cli_exits_2(self, tmp_path, capsys, kind, command):
        from warpcurv import cli

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPECS[kind]))
        out = tmp_path / "out"
        flag = "--ledger" if command[0] == "compare" else "--out"
        assert cli.main([command[0], str(path), *command[1:],
                         flag, str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: " + self.MESSAGE.format(kind)]
        assert not out.exists()


class TestReportWriter:
    """``report --format json`` writes its document as
    ``json.dump(doc, indent=2)`` and a newline do."""

    MODELS = ("minkowski", "einstein_static", "anti_de_sitter_cover",
              "schwarzschild_exterior", "kasner_vacuum", "kasner_flat",
              "grw_exponential", "generalized_reissner_nordstrom_demo")

    @staticmethod
    def reference(doc) -> str:
        return json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("path", ["derived", "all"])
    def test_catalog_reports(self, tmp_path, monkeypatch, model, path):
        from warpcurv import cli

        docs = []
        emit = cli._emit_report

        def recorded(doc, args):
            docs.append(doc)
            return emit(doc, args)
        monkeypatch.setattr(cli, "_emit_report", recorded)
        out = tmp_path / "report.json"
        assert cli.main(["report", model, "--planes", "70", "--path", path,
                         "--seed", "3", "--out", str(out)]) == 0
        assert len(docs) == 1
        assert out.read_text() == self.reference(docs[0])

    def test_special_values_and_flags(self, tmp_path):
        """NaN and the infinities, strings that need escapes, an empty
        breakdown and flags, and empty lists."""
        from warpcurv import cli

        def written(doc) -> str:
            out = tmp_path / "report.json"
            cli._emit_report(doc, argparse.Namespace(format="json",
                                                     out=str(out)))
            return out.read_text()

        doc = {
            "tool": "warpcurv", "version": "0.1.0", "model": 'a "b" \u00e9',
            "spec_sha256": "0" * 64, "seed": 2 ** 64 - 1,
            "point": {"names": ["t", "x"], "coords": [-0.0, 1e-320]},
            "ricci": {"specialized": [[math.nan, 1.0], [math.inf, -2.5]],
                      "oracle": [[0.0, 1.0], [-math.inf, -2.5]],
                      "max_abs_diff": math.nan},
            "isotropy": {"mean": math.inf, "max_deviation": 0.1,
                         "n_planes": 2},
            "planes": [
                {"index": 0, "K_oracle": 1.5, "K_derived": math.nan,
                 "breakdown": {"numerator": math.nan, "denominator": -math.inf,
                               "value": math.inf, "tab\tkey": 3.0},
                 "K_printed": 2.0},
                {"index": 1, "K_oracle": -1.0, "K_derived": -1.0,
                 "breakdown": {}},
            ],
            "discrepancy_flags": ["plane 0: derived K deviates from oracle",
                                  "plane 0: printed K deviates from oracle",
                                  "quote \" and \u2603"],
        }
        assert written(doc) == self.reference(doc)
        empty = {**doc, "point": {"names": [], "coords": []},
                 "ricci": {**doc["ricci"], "specialized": [], "oracle": [[]]},
                 "planes": [], "discrepancy_flags": []}
        assert written(empty) == self.reference(empty)


class TestInternalError:
    def test_unexpected_exception_is_4(self, monkeypatch, capsys):
        """Exit 1 stays compare's finding; a crash prints its traceback
        and exits 4."""
        from warpcurv import cli

        def crash(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_report", crash)
        assert cli.main(["report", "minkowski"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.rstrip().endswith("RuntimeError: boom")


class TestOutputPathUpFront:
    """An output path in a missing directory, or one that is a directory,
    exits 2 with one line naming it before any plane or oracle work, and
    nothing is created."""

    COMMANDS = {
        "report": ["report", "kasner_vacuum", "--planes", "200", "--out"],
        "compare": ["compare", "kasner_vacuum", "--samples", "300",
                    "--ledger"],
        "scan": ["scan", "kasner_vacuum", "--from", "0.5", "--to", "2.5",
                 "--steps", "200", "--out"],
    }

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_refused_before_the_work(self, monkeypatch, tmp_path, command,
                                     where):
        from warpcurv import cli, tensor_oracle

        calls = {"sample_planes": 0, "riemann_oracle_batch": 0}
        # report's riemann_oracle reaches the batch through tensor_oracle
        for module, name in [(cli, "sample_planes"),
                             (cli, "riemann_oracle_batch"),
                             (tensor_oracle, "riemann_oracle_batch")]:
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        path = (tmp_path / "missing" / "out.json" if where != "directory"
                else tmp_path)
        before = sorted(tmp_path.rglob("*"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.COMMANDS[command] + [str(path)])
        assert code == 2
        assert calls == {"sample_planes": 0, "riemann_oracle_batch": 0}
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and repr(str(path)) in lines[0]
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("quantity", ["ricci", "KU"])
@pytest.mark.parametrize("model", ["schwarzschild_exterior", "einstein_static",
                                   "anti_de_sitter_cover"])
def test_static_scan_fills_its_spatial_point_once(monkeypatch, model,
                                                  quantity):
    """A scan moves t only, and on a static model t moves nothing: the
    spatial factor's tensors are filled at one point for the whole
    sweep, over several chunks."""
    from warpcurv import cli, core_types

    points = []
    real = core_types._oracle

    def counted(chart, batch):
        points.extend(batch)
        return real(chart, batch)
    monkeypatch.setattr(core_types, "_oracle", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scan", model, "--quantity", quantity, "--from",
                         "-2", "--to", "2", "--steps", "130"]) == 0
    assert len(points) == 1
