"""Run the warpcurv CLI with spans recorded around each layer's public functions.

Usage: python3 traced_cli.py SPANS_OUT INVOCATION_ID -- <warpcurv arguments>

The program itself is not changed: before ``warpcurv.cli.main`` runs, every
binding of a traced function in the ``warpcurv`` modules is replaced by a
wrapper that records a span ``(name, start, end, parent, invocation)``.
Spans stay in memory and are written to SPANS_OUT as JSON when the command
ends, together with the counters below.  The exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

_clock = time.perf_counter

# (module, function) -> span name.  Chosen so that each layer of the
# pipeline (oracle, sampler, closed forms, generic expansion, output) has a
# boundary of its own; see BENCHMARK.json's per_layer list.
TRACED = {
    ("tensor_oracle", "riemann_oracle"): "tensor_oracle.riemann_oracle",
    ("tensor_oracle", "metric_partials"): "tensor_oracle.metric_partials",
    ("tensor_oracle", "null_sectional_from_tensors"):
        "tensor_oracle.null_sectional_from_tensors",
    ("tensor_oracle", "lowered_riemann"): "tensor_oracle.lowered_riemann",
    ("null_sectional", "sample_plane"): "null_sectional.sample_plane",
    ("null_sectional", "null_curvature_generic"):
        "null_sectional.null_curvature_generic",
    ("null_sectional", "isotropy_scan"): "null_sectional.isotropy_scan",
    ("warped_formulas", "riemann_general"): "warped_formulas.riemann_general",
    ("warped_formulas", "ricci_general"): "warped_formulas.ricci_general",
    ("core_types", "metric_eval"): "core_types.metric_eval",
    ("core_types", "assemble_chart"): "core_types.assemble_chart",
}
MODULES = ("hyperdual", "core_types", "tensor_oracle", "warped_formulas",
           "null_sectional", "models", "cli")


class Tracer:
    """In-memory span store for one CLI process."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list = []
        self.stack = [-1]
        self.counters = {"riemann_oracle.calls_cli": 0,
                         "riemann_oracle.calls_closed_form": 0,
                         "metric_evals": 0,
                         "normalize_null.attempts": 0,
                         "sample_plane.returned": 0}

    def wrap(self, name: str, fn):
        # the bookkeeping of _Span, inlined: some wrapped functions run
        # ~10^5 times per process
        spans, stack, inv = self.spans, self.stack, self.invocation

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, inv)
        traced.__wrapped__ = fn
        return traced

    def span(self, name: str):
        return _Span(self, name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"invocation": self.invocation,
                       "counters": self.counters,
                       "spans": self.spans}, fh)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        tr.spans.append(None)
        self.parent = tr.stack[-1]
        tr.stack.append(self.idx)
        self.t0 = _clock()

    def __exit__(self, *exc):
        t1 = _clock()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.idx] = (self.name, self.t0, t1, self.parent,
                              tr.invocation)
        return False


class _CountingChart:
    """Stands in for a CoordinateChart inside ``metric_partials`` and counts
    hyper-dual metric evaluations."""

    def __init__(self, chart, counters):
        self._chart, self._counters = chart, counters

    def metric_at(self, coords):
        self._counters["metric_evals"] += 1
        return self._chart.metric_at(coords)

    def __getattr__(self, name):
        return getattr(self._chart, name)


class _TracedFile:
    """File returned to the CLI by ``open``: writes and the final flush are
    ``cli.output`` spans.  ``json.dump`` gets the raw file (see below)."""

    def __init__(self, fh, tracer: Tracer):
        self._fh, self._tracer = fh, tracer

    def write(self, text):
        with self._tracer.span("cli.output"):
            return self._fh.write(text)

    def close(self):
        with self._tracer.span("cli.output"):
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _rebind(mods, original, replacement) -> None:
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Patch the warpcurv modules in place; return the cli module."""
    mods = [importlib.import_module(f"warpcurv.{m}") for m in MODULES]
    mods.append(importlib.import_module("warpcurv"))
    byname = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    counters = tracer.counters

    for (modname, fn_name), span_name in TRACED.items():
        original = getattr(byname[modname], fn_name)
        if fn_name == "riemann_oracle":
            inner = tracer.wrap(span_name, original)

            def replacement(chart, x, _inner=inner):
                caller = sys._getframe(1).f_globals.get("__name__")
                key = ("riemann_oracle.calls_cli" if caller == "warpcurv.cli"
                       else "riemann_oracle.calls_closed_form")
                counters[key] += 1
                return _inner(chart, x)
        elif fn_name == "metric_partials":
            inner = tracer.wrap(span_name, original)

            def replacement(chart, x, _inner=inner):
                return _inner(_CountingChart(chart, counters), x)
        elif fn_name == "sample_plane":
            inner = tracer.wrap(span_name, original)

            def replacement(*args, _inner=inner, **kwargs):
                plane = _inner(*args, **kwargs)
                counters["sample_plane.returned"] += 1
                return plane
        else:
            replacement = tracer.wrap(span_name, original)
        _rebind(mods, original, replacement)

    ns = byname["null_sectional"]
    normalize_null = ns.normalize_null

    def counted_normalize_null(*args, **kwargs):
        counters["normalize_null.attempts"] += 1
        return normalize_null(*args, **kwargs)
    _rebind(mods, normalize_null, counted_normalize_null)

    specialized = ns.specialized_null_curvature
    by_path: dict = {}

    def traced_specialized(spec, plane, path="derived"):
        fn = by_path.get(path)
        if fn is None:
            fn = by_path[path] = tracer.wrap(
                f"null_sectional.specialized.{path}", specialized)
        return fn(spec, plane, path)
    _rebind(mods, specialized, traced_specialized)

    cli = byname["cli"]
    for cmd in ("cmd_report", "cmd_compare", "cmd_scan"):
        setattr(cli, cmd, tracer.wrap("cli.command", getattr(cli, cmd)))

    json_dump = cli.json.dump

    class _Json:
        """The ``json`` module as the CLI sees it, with ``dump`` traced."""

        def __getattr__(self, name):
            return getattr(json, name)

        @staticmethod
        def dump(obj, fp, **kwargs):
            raw = fp._fh if isinstance(fp, _TracedFile) else fp
            with tracer.span("cli.output"):
                return json_dump(obj, raw, **kwargs)

    cli.json = _Json()

    def traced_open(*args, **kwargs):
        with tracer.span("cli.output"):
            return _TracedFile(open(*args, **kwargs), tracer)
    cli.open = traced_open
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_out, invocation = argv[0], argv[1]
    tracer = Tracer(invocation)
    cli = install(tracer)
    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
