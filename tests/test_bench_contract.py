"""The names the benchmark reaches into heatgauge by.

bench/tracing.py wraps the functions it lists in TRACED and counts
coefficient evaluations through heatgauge.lift.compile_expression;
bench/run.py clears and reads the compile cache. A rename or a lost
cache API would crash every bench run, so these names must resolve, and
clearing the cache must clear every compiled function. The tracer's hooks
read fields of the returned reports, and traced calls must return what
untraced ones do.
bench/ is only read here.
"""
import importlib
import os

import pytest

from heatgauge import cli, expr, harness, lift
from heatgauge.bundle import contact3, flat3
from heatgauge.connection import flatness

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture()
def traced(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("tracing").TRACED


def test_every_traced_function_resolves(traced):
    assert traced
    for module, function in traced:
        assert callable(getattr(importlib.import_module(f"heatgauge.{module}"), function)), (
            module, function)


def test_lift_compiles_through_its_own_name():
    assert lift.compile_expression is expr.compile_expression


def test_compile_cache_api():
    expr.compile_expression.cache_clear()
    assert expr.compile_expression.cache_info().currsize == 0
    expr.compile_expression(expr.parse("x + 1"), ("x",))
    expr.compile_expression(expr.parse("x + 1"), ("x",))
    info = expr.compile_expression.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_cache_clear_covers_flatness():
    # bench/run.py clears the cache so that every timed pass starts cold;
    # the functions flatness compiles must be in that one cache
    expr.compile_expression.cache_clear()
    flatness(contact3(), {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}, grid=2)
    assert expr.compile_expression.cache_info().currsize == 1
    expr.compile_expression.cache_clear()
    assert expr.compile_expression.cache_info().currsize == 0


def test_traced_calls_match_untraced(monkeypatch, tmp_path, capsys):
    # bench/run.py runs every op untraced, clears the compile cache, installs
    # the tracer and runs the ops again; the tracer's after-hooks read the
    # returned objects, so a renamed field or a traced function that raises
    # would fail every traced run
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracing")
    region = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
    square = tmp_path / "square.csv"
    square.write_text("V1,V2\n0,0\n0.5,0\n0.5,0.5\n0,0.5\n0,0\n")
    out = tmp_path / "out.csv"

    def ops():
        loops = [lift.square_loop(contact3().chart, (0.0, 0.0), 0.5)]
        results = [repr(harness.equivalence_test(flat3(), region, grid=2, loops=loops)),
                   repr(harness.jauch_test(contact3(), loops, 0.0))]
        for argv in (["lift", "--system", "contact3", "--curve", str(square), "--out", str(out)],
                     ["check", "--system", "contact3", "--csv", str(out)],
                     ["entropy", "--system", "ideal_gas", "--csv", str(out)]):
            code = cli.main(argv)
            results.append((code, capsys.readouterr(), out.read_bytes()))
        return results

    untraced = ops()
    expr.compile_expression.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = ops()
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.layer_metrics(expr.compile_expression.cache_info())
    assert set(metrics) >= set(tracing.LAYER_METRICS)
    assert {k: v for k, v in tracer.counts.items() if k.endswith(".raised") and v} == {}
    assert tracer.spans_nest()
    # equivalence_test takes its holonomy verdict from jauch_test at both
    # ends of the U range
    assert metrics["harness.jauch_test.calls"] == 3
    for name in ("lift.lift_curve.kept_steps", "connection.flatness.nodes",
                 "entropy.reconstruct.nodes", "systemio.write_csv.bytes"):
        assert metrics[name] > 0, name
