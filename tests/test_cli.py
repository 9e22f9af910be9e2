"""Command-line interface: output formats, determinism, ledger schema,
exit codes, environment seeding."""

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

    @pytest.mark.parametrize("point", ["t=abc", "abc,1,2,3"])
    def test_unparsable_point_is_2(self, point):
        out = run_cli("report", "minkowski", "--point", point)
        assert out.returncode == 2
        assert out.stderr.splitlines() == [
            "error: --point: coordinate 't' is not a number: 'abc'"]

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
