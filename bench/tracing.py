"""Spans and work counts at heatgauge's public function boundaries.

``Tracer.install()`` replaces each traced function by a wrapper in every
heatgauge module that holds a reference to it (``heatgauge.lift.lift_curve``,
``heatgauge.entropy.lift_curve``, ``heatgauge.cli.lift_curve``, ...), so
calls are seen whichever import path they take; ``uninstall()`` puts the
originals back. Nothing under src/ is edited.

A span is ``[name, start, end, parent, op]``. Spans stay in memory and
are written out once, at the end of the run. A function that re-enters
itself (the recursive ``expr.differentiate``) gets one span for the
outermost call. Self time is a span's duration minus the time its child
spans cover.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs that get a span, in layer order.
TRACED = (
    ("expr", "parse"), ("expr", "differentiate"), ("expr", "compile_expression"),
    ("geometry", "exterior_derivative"), ("geometry", "wedge"),
    ("bundle", "apply_gauge"),
    ("connection", "curvature_matrix"), ("connection", "frobenius_defect"),
    ("connection", "flatness"),
    ("lift", "lift_curve"), ("lift", "work_integral"),
    ("entropy", "reconstruct"),
    ("harness", "equivalence_test"), ("harness", "jauch_test"), ("harness", "phase_demo"),
    ("systemio", "parse_system_file"), ("systemio", "parse_curve_file"),
    ("systemio", "write_csv"),
    ("cli", "main"),
)
OP_SPAN = "bench.op"

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {}
for _module, _function in TRACED:
    LAYER_METRICS[f"{_module}.{_function}.calls"] = "count"
    LAYER_METRICS[f"{_module}.{_function}.self_s"] = "s"
LAYER_METRICS.update({
    "expr.compile_expression.hit_ratio": "ratio",
    "expr.coeff_evals": "count",
    "connection.flatness.nodes": "count",
    "connection.flatness.nodes_per_s": "1/s",
    "lift.lift_curve.segments": "count",
    "lift.lift_curve.kept_steps": "count",
    "lift.lift_curve.samples": "count",
    "lift.lift_curve.steps_per_s": "1/s",
    "lift.lift_curve.coeff_evals_per_kept_step": "ratio",
    "lift.lift_curve.errors": "count",
    "entropy.reconstruct.nodes": "count",
    "entropy.reconstruct.lifts_per_node": "ratio",
    "systemio.write_csv.bytes": "bytes",
    "bench.op.self_s": "s",
    "bench.ops.seen_system_share": "ratio",
    "bench.oracle.checks": "count",
    "bench.output.hashes": "count",
    "bench.trace.untraced_s": "s",
    "bench.trace.traced_s": "s",
    "bench.trace.overhead": "ratio",
    "bench.trace.self_time_gap": "ratio",
    "bench.speed_probe_s": "s",
    "bench.wall.ops_per_s": "1/s",
    "bench.wall.op_p50_ms": "ms",
    "bench.wall.op_p90_ms": "ms",
})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.coeff_evals = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        return span[2] - span[1]

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            state = before() if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                self.counts[name + ".raised"] += 1
                raise
            elapsed = self.end(idx)
            if after:
                after(state, elapsed, args, kwargs, result)
            return result

        return wrapper

    # -- counts read at the boundaries ---------------------------------------

    def _after_lift(self, before, elapsed, args, kwargs, result):
        c = self.counts
        kept = sum(result.steps_per_segment)
        c["lift.lift_curve.segments"] += len(result.steps_per_segment)
        c["lift.lift_curve.kept_steps"] += kept
        c["lift.lift_curve.samples"] += len(result.times)
        c["lift.lift_curve.evals"] += self.coeff_evals[0] - before
        c["lift.lift_curve.total_s"] += elapsed
        c["lift.lift_curve.returned"] += 1

    def _after_flatness(self, before, elapsed, args, kwargs, result):
        self.counts["connection.flatness.nodes"] += result.grid ** len(result.region)
        self.counts["connection.flatness.total_s"] += elapsed

    def _after_reconstruct(self, before, elapsed, args, kwargs, result):
        self.counts["entropy.reconstruct.nodes"] += len(result.nodes)
        self.counts["entropy.reconstruct.lifts"] += self.counts["lift.lift_curve.returned"] - before

    def _after_write_csv(self, before, elapsed, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["systemio.write_csv.bytes"] += os.path.getsize(path)

    def _lift_compile(self, compile_expression):
        cell = self.coeff_evals

        @functools.wraps(compile_expression)
        def counting(e, coords):
            fn = compile_expression(e, coords)

            def counted(*xs):
                cell[0] += 1
                return fn(*xs)

            return counted

        return counting

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "heatgauge" or n.startswith("heatgauge."))]
        counts = self.counts
        hooks = {
            "lift.lift_curve": (lambda: self.coeff_evals[0], self._after_lift),
            "connection.flatness": (None, self._after_flatness),
            "entropy.reconstruct": (lambda: counts["lift.lift_curve.returned"],
                                    self._after_reconstruct),
            "systemio.write_csv": (None, self._after_write_csv),
        }
        for module_name, function in TRACED:
            name = f"{module_name}.{function}"
            original = getattr(sys.modules[f"heatgauge.{module_name}"], function)
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        # compiled coefficients handed to the lift are counted, not spanned
        lift_module = sys.modules["heatgauge.lift"]
        original = sys.modules["heatgauge.expr"].compile_expression
        self._patches.append((lift_module, "compile_expression",
                              lift_module.compile_expression))
        lift_module.compile_expression = self.wrap(
            "expr.compile_expression", self._lift_compile(original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(spans, covered)]

    def layer_metrics(self, cache_info) -> dict[str, float]:
        selfs = self.self_times()
        metrics = {name: 0.0 for name in LAYER_METRICS}
        for span, self_s in zip(self.spans, selfs):
            name = span[0]
            metrics[name + ".calls"] = metrics.get(name + ".calls", 0.0) + 1
            metrics[name + ".self_s"] = metrics.get(name + ".self_s", 0.0) + self_s
        c = self.counts
        for key in ("lift.lift_curve.segments", "lift.lift_curve.kept_steps",
                    "lift.lift_curve.samples", "connection.flatness.nodes",
                    "entropy.reconstruct.nodes", "systemio.write_csv.bytes"):
            metrics[key] = c[key]
        metrics["lift.lift_curve.errors"] = c["lift.lift_curve.raised"]
        metrics["expr.coeff_evals"] = self.coeff_evals[0]
        kept = c["lift.lift_curve.kept_steps"]
        metrics["lift.lift_curve.coeff_evals_per_kept_step"] = (
            c["lift.lift_curve.evals"] / kept if kept else 0.0)
        metrics["lift.lift_curve.steps_per_s"] = (
            kept / c["lift.lift_curve.total_s"] if c["lift.lift_curve.total_s"] else 0.0)
        metrics["connection.flatness.nodes_per_s"] = (
            c["connection.flatness.nodes"] / c["connection.flatness.total_s"]
            if c["connection.flatness.total_s"] else 0.0)
        nodes = c["entropy.reconstruct.nodes"]
        metrics["entropy.reconstruct.lifts_per_node"] = (
            c["entropy.reconstruct.lifts"] / nodes if nodes else 0.0)
        lookups = cache_info.hits + cache_info.misses
        metrics["expr.compile_expression.hit_ratio"] = (
            cache_info.hits / lookups if lookups else 0.0)
        metrics["bench.trace.self_time_gap"] = self.self_time_gap(selfs)
        return metrics

    def self_time_gap(self, selfs: list[float]) -> float:
        """Largest relative gap, over ops, between the summed self times of
        the traced heatgauge functions an op ran (the op's own span left
        out) and the op's traced duration: the share of an op that no
        traced function accounts for."""
        total = defaultdict(float)
        for span, self_s in zip(self.spans, selfs):
            if span[0] != OP_SPAN:
                total[span[4]] += self_s
        worst = 0.0
        for span in self.spans:
            if span[0] == OP_SPAN:
                duration = span[2] - span[1]
                if duration > 0:
                    worst = max(worst, abs(total[span[4]] - duration) / duration)
        return worst

    def spans_nest(self) -> bool:
        """Every span is closed, lies inside its parent and has its op id."""
        spans = self.spans
        for name, start, end, parent, op in spans:
            if end < start:
                return False
            if parent >= 0:
                p = spans[parent]
                if start < p[1] or end > p[2] or op != p[4]:
                    return False
        return True

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},{op}\n")
