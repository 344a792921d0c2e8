"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its measured figure of merit.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print; without -s they appear in the captured output of failing tests.
"""
import math
import random

from heatgauge import expr
from heatgauge.bundle import (GaugeTransform, apply_gauge, catalog, contact3,
                              flat3, ideal_gas, wankel)
from heatgauge.connection import (curvature_matrix, flatness, frobenius_defect,
                                  grid_points, horizontal_lift_vector,
                                  vertical_component)
from heatgauge.entropy import reconstruct
from heatgauge.geometry import (Chart, DifferentialForm, coordinate_field,
                                exterior_derivative, lie_bracket, pair,
                                scalar_field, wedge)
from heatgauge.harness import (default_loop_family, equivalence_test,
                               jauch_test, phase_demo, random_curved_system,
                               random_flat_system)
from heatgauge.lift import (BaseCurve, commutator_probe, lift_curve,
                            square_loop, work_integral)
from heatgauge.systemio import default_region

from conftest import random_expression

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}


def _verdict(number: int, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _safe_point(system, rng):
    region = default_region(system)
    return {c: rng.uniform(*region[c]) for c in system.chart.coords}


def test_criterion_1_connection_pairings():
    # xi pairs to 1 with the vertical field and to 0 with every
    # horizontal lift, everywhere, on cataloged and randomized systems
    rng = random.Random(101)
    systems = list(catalog().values())
    for k in range(10):
        systems.append(random_flat_system(rng))
        systems.append(random_curved_system(rng, SMALL3))
    worst = 0.0
    for system in systems:
        xi = system.heat_form
        vertical = pair(xi, coordinate_field(system.chart, system.chart.vertical))
        horizontals = [pair(xi, horizontal_lift_vector(system, i))
                       for i in range(1, len(system.chart.base) + 1)]
        for _ in range(100):
            p = _safe_point(system, rng)
            worst = max(worst, abs(expr.evaluate(vertical, p) - 1.0))
            for h in horizontals:
                worst = max(worst, abs(expr.evaluate(h, p)))
    ok = worst <= 1e-12
    assert _verdict(1, "unit vertical / zero horizontal pairings", ok,
                    f"max deviation {worst:.3e} over {len(systems)} systems x 100 points")


def test_criterion_2_bracket_and_defect_consistency():
    rng = random.Random(102)
    systems = [contact3(), flat3()] + [random_flat_system(rng) for _ in range(3)] \
        + [random_curved_system(rng, SMALL3) for _ in range(3)]
    worst_bracket = 0.0
    agreement = True
    for system in systems:
        matrix = curvature_matrix(system)
        x1 = horizontal_lift_vector(system, 1)
        x2 = horizontal_lift_vector(system, 2)
        vert = vertical_component(system, lie_bracket(x1, x2))
        f12 = matrix.entry(1, 2)
        for _ in range(50):
            p = {c: rng.uniform(-0.6, 0.6) for c in system.chart.coords}
            worst_bracket = max(worst_bracket, abs(
                expr.evaluate(vert, p) - expr.evaluate(f12, p)))
        defect = frobenius_defect(system)
        max_f = 0.0
        max_d = 0.0
        for node in grid_points(SMALL3, system.chart.coords, 5):
            p = dict(zip(system.chart.coords, node))
            max_f = max(max_f, abs(expr.evaluate(f12, p)))
            comp = defect.component(tuple(system.chart.coords))
            max_d = max(max_d, abs(expr.evaluate(comp, p)))
        agreement = agreement and ((max_f < 1e-9) == (max_d < 1e-9))
    ok = worst_bracket <= 1e-9 and agreement
    assert _verdict(2, "bracket curvature and Frobenius defect consistency", ok,
                    f"max |bracket - F| {worst_bracket:.3e}, co-vanishing "
                    f"{'agrees' if agreement else 'DISAGREES'}")


def test_criterion_3_equivalence_of_verdicts():
    rng = random.Random(103)
    cases = [
        (flat3(), REGION3, True),
        (contact3(), REGION3, False),
        (ideal_gas(), {"U": (1, 2), "V": (1, 2)}, True),
    ]
    for _ in range(10):
        cases.append((random_flat_system(rng), SMALL3, True))
    for _ in range(10):
        cases.append((random_curved_system(rng, SMALL3), SMALL3, False))
    disagreements = 0
    wrong_verdicts = 0
    for system, region, expect_flat in cases:
        loops = default_loop_family(system.chart, region, seed=0,
                                    square_centers=2, square_sizes=(0.15, 0.3),
                                    random_loops=2)
        report = equivalence_test(system, region, grid=4, loops=loops)
        if not report.agree:
            disagreements += 1
        if report.flatness_pass != expect_flat:
            wrong_verdicts += 1
    ok = disagreements == 0 and wrong_verdicts == 0
    assert _verdict(3, "entropy/flatness/holonomy verdicts agree", ok,
                    f"{len(cases)} systems, {disagreements} disagreements, "
                    f"{wrong_verdicts} wrong verdicts")


def test_criterion_4_curvature_holonomy_link():
    system = contact3()
    point = {"U": 0.0, "V1": 0.1, "V2": -0.2}
    v1 = abs(commutator_probe(system, point, 1, 2, 0.1))
    v2 = abs(commutator_probe(system, point, 1, 2, 0.05))
    v3 = abs(commutator_probe(system, point, 1, 2, 0.025))
    e1, e2, e3 = abs(v1 - 1.0), abs(v2 - 1.0), abs(v3 - 1.0)
    within = e1 <= 0.02 and e3 <= 0.005
    # treat errors at rounding level as converged: the probe can be exact
    floor = 1e-12
    converged = all(b <= floor or a <= floor or b <= a / 1.8
                    for a, b in ((e1, e2), (e2, e3)))
    ok = within and converged
    assert _verdict(4, "square-loop holonomy recovers F12 = 1", ok,
                    f"|dU/t^2| = {v1:.6f}, {v2:.6f}, {v3:.6f} at t = 0.1, 0.05, 0.025")


def test_criterion_5_energy_budget_and_conservation():
    rng = random.Random(105)
    worst_ratio = 0.0
    lifts = 0
    for system in catalog().values():
        region = default_region(system)
        loops = default_loop_family(system.chart, region, seed=5,
                                    square_centers=2, square_sizes=(0.1, 0.3),
                                    random_loops=3)
        u_mid = 0.5 * sum(region[system.chart.vertical])
        for loop in loops:
            result = lift_curve(system, loop, u_mid)
            gap = abs(work_integral(system, result) + result.delta_u)
            worst_ratio = max(worst_ratio, gap / (2.0 * result.error))
            lifts += 1
    budget_ok = worst_ratio <= 1.0
    verdicts_match = True
    for system, region in ((flat3(), REGION3), (contact3(), REGION3),
                           (random_flat_system(rng), SMALL3),
                           (random_curved_system(rng, SMALL3), SMALL3)):
        loops = default_loop_family(system.chart, region, seed=1,
                                    square_centers=2, square_sizes=(0.15, 0.3),
                                    random_loops=2)
        u_mid = 0.5 * sum(region[system.chart.vertical])
        jauch = jauch_test(system, loops, u_mid)
        max_holonomy = max(abs(lift_curve(system, loop, u_mid).delta_u)
                           for loop in loops)
        closure = max_holonomy <= jauch.tolerance
        verdicts_match = verdicts_match and (jauch.holds == closure)
    ok = budget_ok and verdicts_match
    assert _verdict(5, "work integral matches -dU; conservation = closure", ok,
                    f"{lifts} lifts, worst gap {worst_ratio:.3f} of the 2x error "
                    f"budget; verdicts {'match' if verdicts_match else 'DIFFER'}")


def test_criterion_6_geometric_phase():
    steady = phase_demo(wankel("1"), 3)
    per_rev = [steady.cumulative[0]]
    for a, b in zip(steady.cumulative, steady.cumulative[1:]):
        per_rev.append(b - a)
    steady_err = max(abs(v - 2.0 * math.pi) for v in per_rev)
    balanced = phase_demo(wankel("cos(theta)"), 2)
    balanced_err = max(abs(v) for v in balanced.cumulative)
    ok = (steady_err <= 1e-8 and steady.flat and not steady.globally_closed
          and balanced_err <= 1e-8 and balanced.globally_closed)
    assert _verdict(6, "flat but globally open circular base", ok,
                    f"per-revolution dU - 2pi <= {steady_err:.3e} (flat verdict "
                    f"{steady.flat}), zero-mean torque residual {balanced_err:.3e}")


def test_criterion_7_entropy_reconstruction():
    flat_chart = reconstruct(flat3(), {"V1": 0.0, "V2": 0.0}, REGION3, grid=5)
    s_err = max(abs(s - (node[0] + node[1] * node[2]))
                for node, s in zip(flat_chart.nodes, flat_chart.entropy))
    flat_ok = flat_chart.max_residual < 1e-8 and s_err < 1e-8

    gas_chart = reconstruct(ideal_gas(), {"V": 1.0},
                            {"U": (1.0, 2.0), "V": (1.0, 2.0)}, grid=7)
    # S is the arrival height at V = 1, i.e. the leaf invariant itself
    leaf_err = max(abs(s - node[0] * node[1] ** (2.0 / 3.0))
                   for node, s in zip(gas_chart.nodes, gas_chart.entropy))
    gas_ok = gas_chart.max_residual < 1e-7 and leaf_err < 1e-7

    curved = reconstruct(contact3(), {"V1": 0.0, "V2": 0.0}, REGION3, grid=3)
    curved_ok = (curved.path_dependent
                 and curved.path_dependence >= 10.0 * curved.residual_tol)
    ok = flat_ok and gas_ok and curved_ok
    assert _verdict(7, "entropy reconstruction and its failure mode", ok,
                    f"flat residual {flat_chart.max_residual:.2e} / S error {s_err:.2e}, "
                    f"gas residual {gas_chart.max_residual:.2e} / leaf error {leaf_err:.2e}, "
                    f"path signal {curved.path_dependence:.2e}")


def test_criterion_8_gauge_covariance():
    rng = random.Random(108)
    a_val = 2.0
    gauge = GaugeTransform.build(a_val, 0.0)
    worst_rel = 0.0
    for system in (contact3(), random_curved_system(rng, SMALL3)):
        gauged = apply_gauge(system, gauge)
        d_old = frobenius_defect(system)
        d_new = frobenius_defect(gauged)
        idx = tuple(system.chart.coords)
        for _ in range(50):
            p = {c: rng.uniform(-0.6, 0.6) for c in system.chart.coords}
            image = dict(p)
            image[system.chart.vertical] = a_val * p[system.chart.vertical]
            # as forms on matched frames the defect scales by a^2; the chart
            # component reported at the image point carries one Jacobian
            # factor a from dU' = a dU, leaving one factor to multiply in
            lhs = a_val * expr.evaluate(d_new.component(idx), image)
            rhs = a_val ** 2 * expr.evaluate(d_old.component(idx), p)
            scale = max(abs(rhs), 1e-12)
            worst_rel = max(worst_rel, abs(lhs - rhs) / scale)
    scaling_ok = worst_rel <= 1e-9

    verdicts_ok = True
    for system, expect_flat in ((flat3(), True), (contact3(), False)):
        gauged = apply_gauge(system, gauge)
        verdicts_ok = verdicts_ok and (
            flatness(gauged, REGION3, grid=5).flat
            == flatness(system, REGION3, grid=5).flat
            == expect_flat)
    loop = square_loop(contact3().chart, (0.1, -0.1), 0.4)
    du = lift_curve(contact3(), loop, 0.5).delta_u
    du_gauged = lift_curve(apply_gauge(contact3(), gauge), loop, a_val * 0.5).delta_u
    holonomy_ok = abs(du_gauged - a_val * du) <= 1e-9 * max(1.0, abs(du))
    ok = scaling_ok and verdicts_ok and holonomy_ok
    assert _verdict(8, "gauge covariance of defect, verdicts, holonomy", ok,
                    f"defect scaling rel err {worst_rel:.3e}, verdicts invariant "
                    f"{verdicts_ok}, holonomy ratio {du_gauged / du:.9f}")


def test_criterion_9_numerics_substrate():
    rng = random.Random(109)
    variables = ["U", "V1", "V2"]
    worst_rel = 0.0
    checked = 0
    while checked < 500:
        e = random_expression(rng, variables)
        v = rng.choice(variables)
        de = expr.differentiate(e, v)
        p = {c: rng.uniform(-1.0, 1.0) for c in variables}
        h = 1e-6
        up = dict(p)
        dn = dict(p)
        up[v] += h
        dn[v] -= h
        try:
            fd = (expr.evaluate(e, up) - expr.evaluate(e, dn)) / (2.0 * h)
            sym = expr.evaluate(de, p)
        except expr.EvalError:
            continue
        scale = max(abs(sym), abs(fd), 1.0)
        worst_rel = max(worst_rel, abs(sym - fd) / scale)
        checked += 1
    deriv_ok = worst_rel <= 1e-6

    chart = Chart(("U", "V1", "V2"))
    worst_identity = 0.0
    for _ in range(20):
        f = scalar_field(chart, random_expression(rng, variables, depth=2))
        alpha = DifferentialForm.build(chart, 1, {
            (c,): random_expression(rng, variables, depth=2)
            for c in chart.coords})
        ddf = exterior_derivative(exterior_derivative(f))
        left = exterior_derivative(alpha.scale(f.component(())))
        right = wedge(exterior_derivative(f), alpha) \
            + exterior_derivative(alpha).scale(f.component(()))
        for _ in range(5):
            p = {c: rng.uniform(-1.0, 1.0) for c in variables}
            try:
                dd_vals = ddf.evaluate(p)
                lv = left.evaluate(p)
                rv = right.evaluate(p)
            except expr.EvalError:
                continue
            for value in dd_vals.values():
                worst_identity = max(worst_identity, abs(value))
            for idx in set(lv) | set(rv):
                worst_identity = max(worst_identity,
                                     abs(lv.get(idx, 0.0) - rv.get(idx, 0.0)))
    identity_ok = worst_identity <= 1e-9
    ok = deriv_ok and identity_ok
    assert _verdict(9, "symbolic derivatives and exterior calculus identities", ok,
                    f"500 expressions, worst FD rel err {worst_rel:.3e}; "
                    f"dd = 0 / Leibniz worst {worst_identity:.3e}")
