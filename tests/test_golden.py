"""Exact values of the lift and the verdicts built on it.

Every value here is pinned to the last bit (float.hex or repr), so a
change to the integrator's arithmetic, its step meshes or the order of
its floating-point operations fails this file even when every tolerance
elsewhere still passes. A deliberate change of the numbers must update
these values in the open.
"""
import math
import random

from heatgauge.bundle import contact3, flat3, ideal_gas, wankel
from heatgauge.entropy import reconstruct
from heatgauge.harness import (default_loop_family, equivalence_test,
                               random_curved_system, random_flat_system)
from heatgauge.lift import BaseCurve, lift_curve, square_loop

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}


def test_ideal_gas_stiff_lift():
    system = ideal_gas()
    result = lift_curve(system, BaseCurve.polyline(system.chart, [(1.0,), (2.0,)]), 1e5)
    assert result.steps_per_segment == [4096]
    assert float(result.energies[-1]).hex() == "0x1.ec281ae0974fap+15"
    assert result.delta_u.hex() == "-0x1.2117e51f68b06p+15"


def test_contact3_square_holonomy():
    chart = contact3().chart
    centred = lift_curve(contact3(), square_loop(chart, (0.0, 0.0), 0.5), 0.0)
    assert centred.steps_per_segment == [16, 16, 16, 16]
    assert centred.delta_u.hex() == "0x1.0000000000000p-2"
    shifted = lift_curve(contact3(), square_loop(chart, (0.13, -0.07), 0.3), 0.4)
    assert shifted.delta_u.hex() == "0x1.70a3d70a3d700p-4"


def test_curved_polyline_and_its_reverse():
    system = random_curved_system(random.Random(12), SMALL3)
    curve = BaseCurve.polyline(system.chart, [(0.1, -0.2), (0.3, 0.25), (-0.1, 0.05)])
    forward = lift_curve(system, curve, 0.2)
    assert forward.steps_per_segment == [32, 16]
    assert forward.delta_u.hex() == "0x1.4e848966b9830p-4"
    backward = lift_curve(system, curve.reversed(), 0.2)
    assert backward.steps_per_segment == [16, 32]
    assert backward.delta_u.hex() == "-0x1.49e3550b4e3acp-4"


def test_parametric_circle():
    w = wankel("1 + 0.5*cos(theta)")
    circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
    result = lift_curve(w, circle, 0.0)
    assert result.steps_per_segment == [16]
    assert result.delta_u.hex() == "0x1.921fb54442d18p+2"
    assert float(result.energies[7]).hex() == "0x1.7859ae93116c1p+1"


def test_flat3_reconstruction_nodes():
    chart = reconstruct(flat3(), {"V1": 0.0, "V2": 0.0}, REGION3, grid=3)
    expected = {
        0: ("0x0.0p+0", "0x1.fffffffffdcd0p-1", "0x1.142c000000000p-38"),
        5: ("-0x1.0000000000000p+0", "0x1.fffffffffdcd0p-1", "0x1.86a2000000000p-38"),
        13: ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
        26: ("0x1.0000000000000p+1", "0x1.fffffffff1980p-1", "0x1.86a0800000000p-36"),
    }
    for k, (s, t, residual) in expected.items():
        got = (float(chart.entropy[k]).hex(), float(chart.temperature[k]).hex(),
               float(chart.residuals[k]).hex())
        assert got == (s, t, residual), k
    assert chart.path_dependence == 0.0


def test_criterion_3_first_flat_system_report():
    system = random_flat_system(random.Random(103))
    loops = default_loop_family(system.chart, SMALL3, seed=0, square_centers=2,
                                square_sizes=(0.15, 0.3), random_loops=2)
    report = equivalence_test(system, SMALL3, grid=3, loops=loops)
    assert repr(report) == (
        "EquivalenceReport(residual_pass=True, flatness_pass=True, holonomy_pass=True, "
        "residual_summary=ResidualSummary(max_residual=1.1055473203569477e-10, "
        "mean_residual=3.331261228160093e-11, tolerance=1e-06, "
        "path_dependence=np.float64(6.605826996519681e-14), path_dependent=np.False_, "
        "passed=True), max_holonomy=2.262273701703066e-12, holonomy_tol=1e-07)")
