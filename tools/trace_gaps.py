"""Where a traced bench run's ops spend time outside every traced function.

    python3 tools/trace_gaps.py .bench_work/traces/transport-4001.csv [--share 0.05]

Reads the span file that `bench/run.py --trace 1` leaves at
.bench_work/traces/<workload>-<seed>.csv (columns name, start, end,
parent, op). An op's share is the part of its `bench.op` span that the
self times of the traced functions it ran do not cover, as in the run's
`bench.trace.self_time_gap`. For each op whose share is over --share it
prints the op's duration, its share, the untraced time before its first
child span starts and after its last child span ends, the child's name,
and the child of the op before it. The last line counts the ops and
names the largest share.

Uses the standard library only and imports nothing from bench/.
"""
from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict

OP_SPAN = "bench.op"


def read_spans(path: str) -> list[tuple[str, float, float, int, int]]:
    with open(path, newline="") as handle:
        return [(row["name"], float(row["start"]), float(row["end"]), int(row["parent"]),
                 int(row["op"])) for row in csv.DictReader(handle)]


def op_gaps(spans: list[tuple[str, float, float, int, int]]) -> list[dict]:
    """One record per op span, in trace order: op id, duration, share,
    untraced time before and after its children, and their names."""
    covered = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            children[parent].append(index)
    traced_self: dict[int, float] = defaultdict(float)
    for (name, start, end, _, op), cover in zip(spans, covered):
        if name != OP_SPAN:
            traced_self[op] += end - start - cover
    records = []
    for index, (name, start, end, _, op) in enumerate(spans):
        if name != OP_SPAN:
            continue
        duration = end - start
        kids = [spans[k] for k in children[index]]
        records.append({
            "op": op,
            "duration": duration,
            "share": abs(traced_self[op] - duration) / duration if duration > 0 else 0.0,
            "before": (kids[0][1] if kids else end) - start,
            "after": end - kids[-1][2] if kids else 0.0,
            "child": "+".join(kid[0] for kid in kids) or "-",
        })
    return records


def report(records: list[dict], share: float) -> list[str]:
    lines = []
    previous = "-"
    for record in records:
        if record["share"] > share:
            lines.append(
                f"op {record['op']}: {record['duration'] * 1e3:.3f} ms, share "
                f"{record['share']:.3f}, untraced {record['before'] * 1e3:.3f} ms before and "
                f"{record['after'] * 1e3:.3f} ms after {record['child']}; "
                f"previous op ran {previous}")
        previous = record["child"]
    worst = max(records, key=lambda r: r["share"], default=None)
    over = sum(r["share"] > share for r in records)
    lines.append(f"{len(records)} ops, {over} over {share:g}"
                 + (f", largest share {worst['share']:.3f} (op {worst['op']})" if worst else ""))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("trace", help="span file of a traced bench run")
    parser.add_argument("--share", type=float, default=0.05,
                        help="print the ops whose untraced share exceeds this")
    args = parser.parse_args(argv)
    print("\n".join(report(op_gaps(read_spans(args.trace)), args.share)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
