"""tools/trace_gaps.py on a small synthetic span file."""
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name, start, end, parent, op: a setup span, an equivalence op whose
# child covers all but 0.2 ms, a CLI op with 0.6 ms outside cli.main and an
# op that ran no traced function
SPANS = [
    ("bench.setup", 0.0, 0.5, -1, -1),
    ("bench.op", 1.0, 1.010, -1, 1),
    ("harness.equivalence_test", 1.0001, 1.0099, 1, 1),
    ("harness.jauch_test", 1.002, 1.005, 2, 1),
    ("bench.op", 2.0, 2.004, -1, 2),
    ("cli.main", 2.0004, 2.0038, 4, 2),
    ("bench.op", 3.0, 3.001, -1, 3),
]


@pytest.fixture()
def trace_gaps(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("trace_gaps")


@pytest.fixture()
def trace_file(tmp_path):
    path = tmp_path / "transport-1.csv"
    path.write_text("name,start,end,parent,op\n" + "".join(
        f"{name},{start!r},{end!r},{parent},{op}\n" for name, start, end, parent, op in SPANS))
    return str(path)


def test_op_records(trace_gaps, trace_file):
    records = trace_gaps.op_gaps(trace_gaps.read_spans(trace_file))
    assert [r["op"] for r in records] == [1, 2, 3]
    assert [r["child"] for r in records] == ["harness.equivalence_test", "cli.main", "-"]
    expected = [(10e-3, 0.02, 0.1e-3, 0.1e-3), (4e-3, 0.15, 0.4e-3, 0.2e-3),
                (1e-3, 1.0, 1e-3, 0.0)]
    for record, (duration, share, before, after) in zip(records, expected):
        assert record["duration"] == pytest.approx(duration, abs=1e-9)
        assert record["share"] == pytest.approx(share, abs=1e-6)
        assert record["before"] == pytest.approx(before, abs=1e-9)
        assert record["after"] == pytest.approx(after, abs=1e-9)


def test_largest_share_is_the_tracers_gap(trace_gaps, trace_file, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.spans = [list(span) for span in SPANS]
    records = trace_gaps.op_gaps(trace_gaps.read_spans(trace_file))
    assert max(r["share"] for r in records) == pytest.approx(
        tracer.self_time_gap(tracer.self_times()), rel=1e-12)


def test_prints_only_ops_over_the_share(trace_gaps, trace_file, capsys):
    assert trace_gaps.main([trace_file, "--share", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "op 2: 4.000 ms, share 0.150, untraced 0.400 ms before and 0.200 ms after "
        "cli.main; previous op ran harness.equivalence_test",
        "op 3: 1.000 ms, share 1.000, untraced 1.000 ms before and 0.000 ms after -; "
        "previous op ran cli.main",
        "3 ops, 2 over 0.1, largest share 1.000 (op 3)",
    ]
    assert trace_gaps.main([trace_file]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3 ops, 2 over 0.05, largest share 1.000 (op 3)"
