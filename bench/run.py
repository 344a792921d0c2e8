"""heatgauge benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload equivalence --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; heatgauge is imported from its
src/ directory. The run builds the workload's inputs from the seed under
.bench_work/, calls heatgauge for --seconds seconds of op time (the next
op starts when the previous one returns), checks every result against
an independent reference and hashes every output (CSV file or report),
then prints a summary and, as the last line, one JSON object. With
--trace 0 the JSON holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run. See bench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import oracles
import speed
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("equivalence", "transport", "symbolic")
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import heatgauge.cli"
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
MAX_SELF_TIME_GAP = 0.05
SHOWN_FAILURES = 5
# Wall seconds after which an op is stopped and counted as failed. The
# slowest op takes about 3 s at the reference speed, so a hung lift (see
# the ideal-gas sweep in workloads.py) costs one failed op, not the run.
OP_DEADLINE_S = 20.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure (the traced run splits it between "
                             "an untraced and a traced pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_heatgauge():
    """Import heatgauge from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "heatgauge", "__init__.py")):
        raise SystemExit(f"error: no heatgauge sources under {SRC}")
    sys.path.insert(0, SRC)
    import heatgauge
    from heatgauge import cli, expr  # noqa: F401 - loads every module before timing
    if not os.path.abspath(heatgauge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: heatgauge imported from {heatgauge.__file__}, not {SRC}")
    return heatgauge


@dataclass
class Tally:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # op start, end
    kinds: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    failed: int = 0
    checks: int = 0
    hashes: int = 0             # outputs (CSV files, reports) hashed
    hash_compares: int = 0
    seen_ops: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.messages) < SHOWN_FAILURES:
            self.messages.append(f"{label}: {message}")


class Runner:
    """Closed loop over a workload's op cycle, with result checks and output hashing."""

    def __init__(self, workload, probe: speed.SpeedProbe):
        self.cycle = workload.cycle
        self.probe = probe
        self.digests: dict[str, str] = {}
        self.seen_systems: set[str] = set()
        self.next = 0

    def run(self, tally: Tally, seconds: float | None = None, count: int | None = None,
            tracer=None) -> float:
        """Run ops until their summed time reaches seconds, or count ops.
        Returns the op time spent."""
        spent = 0.0
        done = 0
        while (count is None or done < count) and (seconds is None or spent < seconds):
            op = self.cycle[self.next % len(self.cycle)]
            self.next += 1
            done += 1
            if op.system in self.seen_systems:
                tally.seen_ops += 1
            self.seen_systems.add(op.system)
            if tracer is not None:
                tracer.op = self.next
                root = tracer.begin(tracing.OP_SPAN)
            error = None
            self.probe.deadline = perf_counter() + OP_DEADLINE_S
            t0 = perf_counter()
            try:
                try:
                    result = op.call()
                finally:
                    self.probe.deadline = None
            except speed.OpTimeout:
                error = f"no result within {OP_DEADLINE_S:g} s"
            except Exception:
                error = traceback.format_exc(limit=3)
            t1 = perf_counter()
            if tracer is not None:
                tracer.end(root)
            spent += t1 - t0
            tally.intervals.append((t0, t1))
            tally.kinds.append(op.kind)
            tally.labels.append(op.label)
            if error is not None:
                tally.fail(op.label, error)
                continue
            self.verify(op, result, tally)
        return spent

    def verify(self, op, result, tally: Tally) -> None:
        try:
            tally.checks += op.check(result)
        except oracles.CheckFailure as exc:
            tally.fail(op.label, str(exc))
            return
        if op.output is None:
            return
        digest = hashlib.sha256(op.output(result)).hexdigest()
        tally.hashes += 1
        previous = self.digests.get(op.label)
        if previous is None:
            self.digests[op.label] = digest
            return
        tally.hash_compares += 1
        if previous != digest:
            tally.fail(op.label, "output bytes changed between repeats of the op")


def mix_weights(kinds: list[str], labels: list[str], mix: dict[str, int]) -> list[float]:
    """Weight of each op: its kind's share of a round, split evenly over the
    instances of the kind that the run reached and over the repeats of each
    instance. So neither the cut-off at --seconds, which ends the last
    round part-way, nor the instances that happened to run twice tilt the
    mix. The weights sum to 1."""
    repeats = Counter(labels)
    instances = Counter(k for k, _ in set(zip(kinds, labels)))
    total = sum(mix[k] for k in instances)
    return [mix[k] / total / instances[k] / repeats[label]
            for k, label in zip(kinds, labels)]


def weighted_percentile(values: list[float], weights: list[float], q: float) -> float:
    """Percentile q (0..1) of weighted values: each value sits at the middle
    of its weight on the cumulative scale, linear in between."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    points, cum = [], 0.0
    for value, weight in pairs:
        points.append(((cum + 0.5 * weight) / total, value))
        cum += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def end_to_end(setup_s: float, latencies: list[float], kinds: list[str], labels: list[str],
               mix: dict[str, int], rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of the workload's fixed mix of ops. Throughput is
    ops completed per second of op time: 1 / the mean op latency, with each
    op weighted as in mix_weights."""
    weights = mix_weights(kinds, labels, mix)
    return {
        "setup_s": setup_s,
        "ops_per_s": 1.0 / sum(w * t for w, t in zip(weights, latencies)),
        "op_p50_ms": 1e3 * weighted_percentile(latencies, weights, 0.5),
        "op_p90_ms": 1e3 * weighted_percentile(latencies, weights, 0.9),
        "peak_rss_mb": rss_mb,
    }


def fresh_import() -> None:
    """Start a new interpreter that imports heatgauge, as a CLI call would."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True, timeout=60)


def build_inputs(workloads, name: str, seed: int, workdir: str, tracer=None):
    if tracer is not None:
        tracer.op = -1
        root = tracer.begin("bench.setup")
    workload = workloads.build(name, seed, workdir)
    if tracer is not None:
        tracer.end(root)
    return workload


def set_up(workloads, name: str, seed: int, workdir: str):
    """Set up SETUP_REPEATS times: a fresh interpreter importing heatgauge,
    then a build of the inputs. Returns the last workload and the wall
    interval of every set-up."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        fresh_import()
        workload = build_inputs(workloads, name, seed, workdir)
        intervals.append((t0, perf_counter()))
    return workload, intervals


def report(workload_name: str, args, tally: Tally, probe: speed.SpeedProbe,
           metrics: dict[str, float], units: dict[str, str], correct: bool,
           note: str = "") -> None:
    attempted = len(tally.intervals)
    print(f"heatgauge benchmark: workload={workload_name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  ops attempted {attempted}, failed {tally.failed} "
          f"(fail_frac {tally.failed / attempted if attempted else 0.0:g}), "
          f"oracle checks {tally.checks}, outputs hashed {tally.hashes} "
          f"({tally.hash_compares} compared with an earlier repeat), "
          f"seen-system share {tally.seen_ops / attempted if attempted else 0.0:.3f}")
    print(f"  speed probe: {len(probe.passes)} passes, median {1e3 * probe.median_pass():.4g} ms, "
          f"min {1e3 * min(probe.passes):.4g} ms, max {1e3 * max(probe.passes):.4g} ms "
          f"(reference {1e3 * speed.REFERENCE_S:g} ms); timings below are at the "
          f"reference speed")
    if note:
        print(f"  {note}")
    for message in tally.messages:
        print(f"  FAILED {message.strip()}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    heatgauge = import_heatgauge()
    import workloads

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally()
    compile_cache = heatgauge.expr.compile_expression
    try:
        if not args.trace:
            with speed.SpeedProbe() as probe:
                workload, setups = set_up(workloads, args.workload, args.seed, workdir)
                runner = Runner(workload, probe)
                compile_cache.cache_clear()
                runner.run(tally, seconds=args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall = end_to_end(statistics.median(b - a for a, b in setups),
                              [b - a for a, b in tally.intervals], tally.kinds, tally.labels,
                              workload.mix, rss_mb)
            metrics = end_to_end(statistics.median(probe.reference(*i) for i in setups),
                                 [probe.reference(*i) for i in tally.intervals],
                                 tally.kinds, tally.labels, workload.mix, rss_mb)
            report(args.workload, args, tally, probe, metrics, END_TO_END, tally.failed == 0,
                   "wall-clock values: " + ", ".join(
                       f"{name} {value:.6g} {END_TO_END[name]}" for name, value in wall.items()))
            return 0

        # Traced run: one traced build of the inputs, an untraced pass over
        # half the time, then the same ops again with tracing on.
        tracer = tracing.Tracer()
        with speed.SpeedProbe() as probe:
            tracer.install()
            try:
                workload = build_inputs(workloads, args.workload, args.seed, workdir, tracer)
            finally:
                tracer.uninstall()
            runner = Runner(workload, probe)
            compile_cache.cache_clear()
            runner.run(tally, seconds=args.seconds / 2.0)
            done = len(tally.intervals)
            runner.next = 0
            runner.seen_systems.clear()
            seen_untraced = tally.seen_ops
            compile_cache.cache_clear()
            tracer.install()
            try:
                runner.run(tally, count=done, tracer=tracer)
            finally:
                tracer.uninstall()
        untraced_s = sum(probe.reference(*i) for i in tally.intervals[:done])
        traced_s = sum(probe.reference(*i) for i in tally.intervals[done:])
        wall = end_to_end(0.0, [b - a for a, b in tally.intervals[:done]],
                          tally.kinds[:done], tally.labels[:done], workload.mix, 0.0)
        metrics = tracer.layer_metrics(compile_cache.cache_info())
        metrics.update({f"bench.wall.{name}": wall[name]
                        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")})
        metrics.update({
            "bench.ops.seen_system_share": (tally.seen_ops - seen_untraced) / done,
            "bench.oracle.checks": tally.checks,
            "bench.output.hashes": tally.hashes,
            "bench.trace.untraced_s": untraced_s,
            "bench.trace.traced_s": traced_s,
            "bench.trace.overhead": traced_s / untraced_s - 1.0,
            "bench.speed_probe_s": probe.median_pass(),
        })
        metrics = {name: float(metrics[name]) for name in tracing.LAYER_METRICS}
        tracer.write(os.path.join(ROOT, ".bench_work", "traces",
                                  f"{args.workload}-{args.seed}.csv"))
        spans_ok = tracer.spans_nest()
        gap_ok = metrics["bench.trace.self_time_gap"] <= MAX_SELF_TIME_GAP
        report(args.workload, args, tally, probe, metrics, tracing.LAYER_METRICS,
               tally.failed == 0 and spans_ok and gap_ok,
               f"spans nest: {spans_ok}; largest share of an op outside traced "
               f"functions: {metrics['bench.trace.self_time_gap']:.3g} "
               f"(at most {MAX_SELF_TIME_GAP:g})")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
