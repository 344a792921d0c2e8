"""The generated segment kernel against the closure-based lift.

lift_endpoint (which entropy.reconstruct uses) and lift_curve run the
same RK4 arithmetic through two implementations. Every endpoint and step
count here must agree bit for bit, and every failure must carry the same
text.
"""
import random

import pytest

from heatgauge import expr
from heatgauge.bundle import WorkSystem, contact3, flat3, ideal_gas
from heatgauge.connection import grid_points
from heatgauge.entropy import EntropyError, reconstruct
from heatgauge.harness import random_curved_system, random_flat_system
from heatgauge.lift import BaseCurve, LiftError, lift_curve, lift_endpoint

SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}
REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}


def _criterion_3_first_systems():
    rng = random.Random(103)
    flat = random_flat_system(rng)
    for _ in range(9):
        random_flat_system(rng)
    return flat, random_curved_system(rng, SMALL3)


FLAT, CURVED = _criterion_3_first_systems()

# (system, start height, polylines: general, axis-aligned, zero-length, staircase)
CASES = {
    "flat_103": (FLAT, 0.3, [[(0.4, -0.5), (0.0, 0.0)], [(-0.6, 0.2), (0.0, 0.2)],
                             [(0.1, 0.1), (0.1, 0.1)],
                             [(-0.6, 0.6), (0.0, 0.6), (0.0, 0.0)]]),
    "curved_103": (CURVED, -0.2, [[(0.5, 0.45), (0.0, 0.0)], [(0.3, -0.6), (0.3, 0.0)],
                                  [(-0.2, 0.4), (-0.2, 0.4)],
                                  [(0.6, -0.6), (0.6, 0.0), (0.0, 0.0)]]),
    "flat3": (flat3(), 0.7, [[(1.0, -1.0), (0.0, 0.0)], [(0.0, -1.0), (0.0, 0.0)],
                             [(0.5, 0.5), (0.5, 0.5)],
                             [(-1.0, 1.0), (-1.0, 0.0), (0.0, 0.0)]]),
    "contact3": (contact3(), 0.0, [[(0.3, -0.8), (0.0, 0.0)], [(-1.0, 0.4), (0.0, 0.4)],
                                   [(0.0, 0.0), (0.0, 0.0)],
                                   [(1.0, 1.0), (1.0, 0.0), (0.0, 0.0)]]),
    "ideal_gas": (ideal_gas(), 1.5, [[(2.0,), (1.0,)], [(1.0,), (1.7,)],
                                     [(1.5,), (1.5,)], [(1.0,), (1.5,), (2.0,)]]),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("fixed_steps", [None, 2, 5, 6, 7, 8])
def test_endpoint_matches_lift_curve_bit_for_bit(name, fixed_steps):
    system, u0, polylines = CASES[name]
    for points in polylines:
        curve = BaseCurve.polyline(system.chart, points)
        full = lift_curve(system, curve, u0, step_tol=1e-12, fixed_steps=fixed_steps)
        u_end, steps = lift_endpoint(system, points, u0, step_tol=1e-12,
                                     fixed_steps=fixed_steps)
        assert type(u_end) is float
        assert u_end.hex() == float(full.energies[-1]).hex(), points
        assert steps == full.steps_per_segment, points


DOMAIN_ERRORS = {
    "log": {"V1": "log(V1 + 0.3)*U", "V2": "1"},
    "div": {"V1": "1/V1 + U", "V2": "V2"},
    "pow": {"V1": "V1^0.5", "V2": "U"},
}


@pytest.mark.parametrize("name", sorted(DOMAIN_ERRORS))
def test_domain_errors_carry_the_lift_curve_text(name):
    system = WorkSystem.build(name, contact3().chart, DOMAIN_ERRORS[name])
    ref = (0.0, 0.0)
    u, *base = next(grid_points(REGION3, system.chart.coords, 3))
    with pytest.raises(LiftError) as expected:
        lift_curve(system, BaseCurve.polyline(system.chart, [tuple(base), ref]), u,
                   step_tol=1e-12)
    with pytest.raises(LiftError) as got:
        lift_endpoint(system, [tuple(base), ref], u, step_tol=1e-12)
    assert str(got.value) == str(expected.value)
    with pytest.raises(EntropyError) as failure:
        reconstruct(system, {"V1": 0.0, "V2": 0.0}, REGION3, grid=3)
    assert str(failure.value) == f"lift failure during reconstruction: {expected.value}"


def test_kernels_keep_signed_zero_constants_apart():
    chart = contact3().chart
    plus = (expr.BinOp("+", expr.Var("U"), expr.Const(0.0)), expr.Const(1.0))
    minus = (expr.BinOp("+", expr.Var("U"), expr.Const(-0.0)), expr.Const(1.0))
    assert plus == minus  # dataclass equality cannot tell them apart
    mask = (True, True)
    assert expr.segment_kernel(plus, chart.coords, mask) is not expr.segment_kernel(
        minus, chart.coords, mask)
    assert expr.segment_kernel(plus, chart.coords, mask) is expr.segment_kernel(
        plus, chart.coords, mask)
