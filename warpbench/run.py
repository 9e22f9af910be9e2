"""warpcurv benchmark: drive the CLI on every catalog model, one process at a time.

Usage (from the root of a checkout):

    python3 warpbench/run.py --workload compare_printed --seed 0 --seconds 40 --trace 0

Workloads (each runs the 8 catalog models in turn, closed loop, 1 client):

* ``compare_printed``: ``compare <model> --path as-printed``; a fresh random
  point per sample, every layer works, several MB of ledger per pass.
* ``report_warm``: ``report <model> --path all`` at the default point; one
  oracle call per process, the per-point caches hit on every plane.
* ``scan_ricci``: ``scan <model> --quantity ricci`` across the model's base
  window; a cold point per step, no plane sampling and no ledger.

``--trace 0`` measures the end-to-end metrics with the plain CLI.
``--trace 1`` alternates plain and traced passes over the same inputs and
reports per-layer metrics from the traced ones (see ``traced_cli.py``).
Every invocation's output is checked; a failed check counts in ``failed``
and makes the exit code 1.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

MODELS = ("minkowski", "einstein_static", "anti_de_sitter_cover",
          "schwarzschild_exterior", "kasner_vacuum", "kasner_flat",
          "grw_exponential", "generalized_reissner_nordstrom_demo")

# Units of work per model and CLI invocation: samples, planes or steps.
# Chosen so that one pass of 8 processes takes 2-4 s on a 2-core box and a
# 40 s run holds about ten passes to take medians over.
WORKLOADS = {"compare_printed": 500, "report_warm": 500, "scan_ricci": 500}

END_TO_END_UNITS = {"items_per_s": "1/s", "slowest_run_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "output_mb": "MB"}

# span name -> which statistics the traced run reports for it
LAYERS = {
    "tensor_oracle.riemann_oracle": ("self_s", "p50_us", "p90_us"),
    "tensor_oracle.metric_partials": ("calls", "self_s", "p50_us"),
    "tensor_oracle.null_sectional_from_tensors": ("calls", "self_s"),
    "tensor_oracle.lowered_riemann": ("calls", "self_s"),
    "null_sectional.sample_plane": ("calls", "self_s", "p50_us", "p90_us"),
    "null_sectional.specialized.derived": ("calls", "self_s", "p50_us"),
    "null_sectional.specialized.printed": ("calls", "self_s", "p50_us"),
    "null_sectional.specialized.printed_corollary":
        ("calls", "self_s", "p50_us"),
    "null_sectional.specialized.printed_unit_s":
        ("calls", "self_s", "p50_us"),
    "null_sectional.null_curvature_generic": ("calls", "self_s", "p50_us"),
    "warped_formulas.riemann_general": ("calls", "self_s"),
    "null_sectional.isotropy_scan": ("calls", "self_s"),
    "warped_formulas.ricci_general": ("calls", "self_s", "p50_us"),
    "core_types.metric_eval": ("calls", "self_s"),
    "core_types.assemble_chart": ("calls", "self_s"),
    "cli.output": ("calls", "self_s"),
    "cli.command": ("calls", "self_s"),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p90_us": "us"}
COUNTER_UNITS = {
    "tensor_oracle.riemann_oracle.calls_cli": "count",
    "tensor_oracle.riemann_oracle.calls_closed_form": "count",
    "tensor_oracle.metric_evals": "count",
    "null_sectional.sample_plane.accept_ratio": "ratio",
    "cli.output.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYERS.items() for stat in stats}
    units.update(COUNTER_UNITS)
    return units


class BenchError(Exception):
    """The checkout cannot be benchmarked (no program, broken interpreter)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

class Launcher:
    """A small helper process that starts each CLI process (see launcher.py)."""

    def __init__(self, env, tmp_dir):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launcher.py"),
             tmp_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, argv, timeout=90.0) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv,
                                          "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("launcher exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


PROBE = """
import json, sys, numpy, warpcurv
from warpcurv import cli, models
print(json.dumps({
    "python": sys.version.split()[0], "numpy": numpy.__version__,
    "warpcurv": warpcurv.__version__, "package_file": warpcurv.__file__,
    "abs_tol": cli.COMPARE_ABS_TOL, "rel_tol": cli.COMPARE_REL_TOL,
    "windows": {e.name: list(e.base_window) for e in models.catalog()}}))
"""


def probe(launcher, src) -> dict:
    """Import the checkout's package in a fresh process; fail unless it is
    the checkout's own code and every benchmarked model exists."""
    res = launcher.run([sys.executable, "-c", PROBE], timeout=60)
    if res["rc"] != 0:
        raise BenchError(f"cannot import warpcurv from {src}:\n"
                         f"{res['stderr']}")
    info = json.loads(res["stdout"].strip().splitlines()[-1])
    if not os.path.realpath(info["package_file"]).startswith(
            os.path.realpath(src) + os.sep):
        raise BenchError(f"warpcurv imported from {info['package_file']}, "
                         f"not from {src}")
    missing = [m for m in MODELS if m not in info["windows"]]
    if missing:
        raise BenchError(f"catalog lacks {missing}")
    return info


# ---------------------------------------------------------------------------
# inputs and output checks
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, windows: dict) -> list[dict]:
    """Per-model CLI seed (and scan window) drawn from the benchmark seed."""
    rnd = random.Random(f"{workload}:{seed}")
    inputs = []
    for model in MODELS:
        lo, hi = windows[model]
        width = hi - lo
        inputs.append({"model": model, "seed": rnd.randrange(2 ** 32),
                       "from": lo + 0.02 * width * rnd.random(),
                       "to": hi - 0.02 * width * rnd.random()})
    return inputs


def cli_args(workload: str, inp: dict, units: int, out: str) -> list[str]:
    m, seed = inp["model"], str(inp["seed"])
    if workload == "compare_printed":
        return ["compare", m, "--path", "as-printed", "--samples", str(units),
                "--seed", seed, "--ledger", out]
    if workload == "report_warm":
        return ["report", m, "--path", "all", "--planes", str(units),
                "--seed", seed, "--out", out]
    return ["scan", m, "--quantity", "ricci", f"--from={inp['from']!r}",
            f"--to={inp['to']!r}", "--steps", str(units), "--seed", seed,
            "--out", out]


def check_output(workload: str, model: str, units: int, res: dict,
                 out: str, ctx: dict) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if res["rc"] != 0:
        said = (res["stderr"] or res["stdout"]).strip()[-300:]
        return [f"exit code {res['rc']}: {said}"]
    try:
        if workload == "compare_printed":
            return check_ledger(model, res["stdout"], out, ctx)
        if workload == "report_warm":
            return check_report(units, out)
        return check_scan(units, out, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output {out}: {exc!r}"]


def check_ledger(model: str, stdout: str, path: str, ctx: dict) -> list[str]:
    problems = []
    if "derived-vs-oracle OK" not in stdout:
        problems.append(f"no 'derived-vs-oracle OK' in {stdout.strip()!r}")
    with open(path) as fh:
        rows = json.load(fh)
    bad = sum(1 for r in rows if r["path_a"] in ("as-derived", "generic"))
    if bad:
        problems.append(f"{bad} as-derived/generic rows in the ledger")
    pairs = {(r["path_a"], r["term"]) for r in rows}
    expected = {tuple(p) for p in ctx["expected_pairs"][model]}
    if pairs != expected:
        problems.append(f"(path_a, term) pairs differ from expected: "
                        f"extra {sorted(pairs - expected)}, "
                        f"missing {sorted(expected - pairs)}")
    return problems


def check_report(planes: int, path: str) -> list[str]:
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    if len(doc["planes"]) != planes:
        problems.append(f"{len(doc['planes'])} planes, expected {planes}")
    derived = [f for f in doc["discrepancy_flags"] if ": derived " in f]
    if derived:
        problems.append(f"derived discrepancy flags: {derived[:3]}")
    return problems


def check_scan(steps: int, path: str, ctx: dict) -> list[str]:
    with open(path, newline="") as fh:
        lines = fh.read().split("\r\n")
    if lines and lines[-1] == "":
        lines.pop()
    problems = []
    if len(lines) != steps + 1:
        problems.append(f"{len(lines) - 1} rows, expected {steps}")
    for line in lines[1:]:
        _, quantity, _, oracle, diff = line.split(",")
        scale = max(1.0, abs(float(oracle)))
        tol = max(ctx["abs_tol"], ctx["rel_tol"] * scale)
        if quantity != "ricci" or not float(diff) <= tol:
            problems.append(f"bad row (abs_diff tolerance {tol:g}): {line}")
            break
    return problems


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run: its inputs, output directory and failure count."""

    def __init__(self, workload, inputs, units, launcher, ctx, run_dir):
        self.workload, self.inputs, self.units = workload, inputs, units
        self.launcher, self.ctx, self.run_dir = launcher, ctx, run_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.seq = 0

    def invoke(self, inp, units, traced=False) -> dict:
        """Run one CLI process on a fresh output path; check, then delete
        the output (outside the timed interval, which the launcher takes
        around the process alone)."""
        self.seq += 1
        ext = ".csv" if self.workload == "scan_ricci" else ".json"
        out = os.path.join(self.run_dir, f"{self.seq:05d}-{inp['model']}{ext}")
        args = cli_args(self.workload, inp, units, out)
        if traced:
            spans = os.path.join(self.run_dir, f"{self.seq:05d}.spans.json")
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                    spans, str(self.seq), "--"] + args
        else:
            spans = None
            argv = [sys.executable, "-m", "warpcurv.cli"] + args
        res = self.launcher.run(argv)
        self.attempted += 1
        problems = check_output(self.workload, inp["model"], units, res, out,
                                self.ctx)
        if problems:
            self.failures.append(f"{inp['model']}: {'; '.join(problems)}")
        res["bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
        if os.path.exists(out):
            os.remove(out)
        res["spans"] = spans
        return res

    def setup_cycle(self) -> list[float]:
        """Wall times of the workload's command with one unit of work, once
        per model: interpreter start, imports, model resolution, chart
        assembly and first-call work."""
        return [self.invoke(inp, 1)["wall_s"] for inp in self.inputs]

    def run_pass(self, traced=False) -> list[dict]:
        return [self.invoke(inp, self.units, traced) for inp in self.inputs]


def pass_metrics(results: list[dict], units: int) -> dict:
    wall = sum(r["wall_s"] for r in results)
    return {"items_per_s": units * len(results) / wall,
            "peak_rss_mb": max(r["maxrss_bytes"] for r in results) / 1e6,
            "output_mb": sum(r["bytes"] for r in results) / 1e6,
            "wall_s": wall,
            "model_wall_s": [r["wall_s"] for r in results],
            "model_cpu_s": [r["cpu_s"] for r in results]}


def summarize(passes: list[dict], setup: list[float]) -> dict:
    """Medians over passes.  slowest_run_s is the largest per-model median,
    so one disturbed process does not set it."""
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in ("items_per_s", "peak_rss_mb", "output_mb")}
    per_model = zip(*(p["model_wall_s"] for p in passes))
    metrics["slowest_run_s"] = max(statistics.median(w) for w in per_model)
    metrics["setup_s"] = statistics.median(setup)
    return metrics


def timed_loop(seconds: float, step) -> list:
    """Call step() until the next call would likely end past ``seconds``;
    at least once."""
    out = []
    t0 = time.perf_counter()
    while True:
        s0 = time.perf_counter()
        out.append(step())
        last = time.perf_counter() - s0
        if time.perf_counter() - t0 + last > seconds:
            return out


# ---------------------------------------------------------------------------
# traced passes -> per-layer metrics
# ---------------------------------------------------------------------------

def _pct(sorted_vals, q) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def layer_metrics(results: list[dict]) -> dict:
    """Aggregate the span files of one traced pass."""
    calls: dict = {}
    self_s: dict = {}
    durs: dict = {}
    counters: dict = {}
    for res in results:
        if not res["spans"] or not os.path.exists(res["spans"]):
            continue
        with open(res["spans"]) as fh:
            doc = json.load(fh)
        os.remove(res["spans"])
        spans = doc["spans"]
        for k, c in doc["counters"].items():
            counters[k] = counters.get(k, 0) + c
        # a span's parent is its index in the same list; self time is the
        # duration minus the time covered by direct children
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            d = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + d - child[i]
            durs.setdefault(name, []).append(d)

    metrics = {}
    for name, stats in LAYERS.items():
        ds = sorted(durs.get(name, ()))
        values = {"calls": calls.get(name, 0), "self_s": self_s.get(name, 0.0),
                  "p50_us": _pct(ds, 0.5) * 1e6, "p90_us": _pct(ds, 0.9) * 1e6}
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
    attempts = counters.get("normalize_null.attempts", 0)
    metrics.update({
        "tensor_oracle.riemann_oracle.calls_cli":
            counters.get("riemann_oracle.calls_cli", 0),
        "tensor_oracle.riemann_oracle.calls_closed_form":
            counters.get("riemann_oracle.calls_closed_form", 0),
        "tensor_oracle.metric_evals": counters.get("metric_evals", 0),
        "null_sectional.sample_plane.accept_ratio":
            counters.get("sample_plane.returned", 0) / attempts
            if attempts else 0.0,
        "cli.output.bytes": sum(r["bytes"] for r in results),
    })
    return metrics



# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def git_sha(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "warpcurv", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def mount_options(path: str) -> str:
    """Options of the mount that holds ``path``, from /proc/mounts."""
    real = os.path.realpath(path)
    best, opts = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 4:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = real == mnt or real.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, opts = mnt, f"{parts[2]} {parts[3]}"
    except OSError:
        pass
    return opts


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, src, info, seed) -> dict:
    return {"git_sha": git_sha(root), "source_sha256": source_sha256(src),
            "python": info["python"], "numpy": info["numpy"],
            "warpcurv": info["warpcurv"], "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "seed": seed,
            "output_dir_mount": mount_options(OUT_DIR)}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def bench_workload(workload, seed, seconds, trace, units, launcher, ctx,
                   run_dir) -> tuple[dict, Run, dict]:
    inputs = make_inputs(workload, seed, ctx["windows"])
    run = Run(workload, inputs, units, launcher, ctx, run_dir)
    run.setup_cycle()  # warm-up: writes bytecode, fills the file cache
    if not trace:
        # setup cycles run between passes, so that setup_s samples the same
        # machine conditions as the passes do
        setup = []

        def step():
            metrics = pass_metrics(run.run_pass(), units)
            setup.extend(run.setup_cycle())
            return metrics
        passes = timed_loop(seconds, step)
        return (summarize(passes, setup), run,
                {"models": MODELS, "passes": passes, "setup_walls_s": setup})

    def pair():
        plain = run.run_pass()
        traced = run.run_pass(traced=True)
        layers = layer_metrics(traced)
        layers["trace.overhead_ratio"] = (sum(r["wall_s"] for r in traced)
                                          / sum(r["wall_s"] for r in plain))
        return layers
    pairs = timed_loop(seconds, pair)
    # median_low keeps counts whole: every pair runs the same inputs
    metrics = {k: statistics.median_low(p[k] for p in pairs)
               for k in pairs[0]}
    return metrics, run, {"traced_passes": len(pairs)}


def result_line(metrics, units_of, run_ok, attempted, failed) -> str:
    return json.dumps({
        "correct": run_ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]}
                    for k, v in metrics.items()}})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--units", type=int, default=None,
                    help="units of work per CLI invocation (default: the "
                         "workload's size); the smoke test uses 1")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "warpcurv", "cli.py")):
        print(f"error: no warpcurv sources under {src}; run from the root "
              "of a warpcurv checkout", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "expected_pairs.json")) as fh:
        expected_pairs = json.load(fh)

    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, PYTHONPATH=src)
    # CLI processes keep their bytecode, as an installed package does, so
    # setup_s does not depend on whether the caller disabled that
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launcher = Launcher(env, run_dir)
    try:
        info = probe(launcher, src)
        ctx = {"windows": info["windows"], "abs_tol": info["abs_tol"],
               "rel_tol": info["rel_tol"], "expected_pairs": expected_pairs}
        stamp = environment(root, src, info, args.seed)
        print("env " + json.dumps(stamp), flush=True)

        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        units_of = per_layer_units() if args.trace else END_TO_END_UNITS
        all_metrics, attempted, failures = {}, 0, []
        for wl in names:
            units = args.units or WORKLOADS[wl]
            metrics, run, detail = bench_workload(
                wl, args.seed, args.seconds, args.trace, units, launcher,
                ctx, run_dir)
            attempted += run.attempted
            failures += run.failures
            print_table(wl, metrics, units_of, run)
            save_result(wl, args, stamp, metrics, run, detail)
            if args.workload == "all":
                metrics = {f"{wl}.{k}": v for k, v in metrics.items()}
            all_metrics.update(metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.workload == "all":
        units_of = {f"{wl}.{k}": u for wl in WORKLOADS
                    for k, u in units_of.items()}
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(result_line(all_metrics, units_of, not failures, attempted,
                      len(failures)))
    return 1 if failures else 0


def print_table(workload, metrics, units_of, run) -> None:
    print(f"{workload}:")
    for k, v in metrics.items():
        print(f"  {k:52s} {v:14.6g} {units_of[k]}")
    ratio = len(run.failures) / run.attempted
    print(f"  {'failure_ratio':52s} {ratio:14.6g} "
          f"({len(run.failures)} failed / {run.attempted} attempted)",
          flush=True)


def save_result(workload, args, stamp, metrics, run, detail) -> None:
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "env": stamp, "metrics": metrics,
                   "attempted": run.attempted, "failures": run.failures,
                   **detail}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
