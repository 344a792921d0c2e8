"""The names the benchmark reaches into heatgauge by.

bench/tracing.py wraps the functions it lists in TRACED and counts
coefficient evaluations through heatgauge.lift.compile_expression;
bench/run.py clears and reads the compile cache. A rename or a lost
cache API would crash every bench run, so these names must resolve, and
clearing the cache must clear every compiled function.
bench/ is only read here.
"""
import importlib
import os

import pytest

from heatgauge import expr, lift
from heatgauge.bundle import contact3
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
