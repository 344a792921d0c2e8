import math
import random
import time

import pytest

from heatgauge.bundle import (WorkSystem, contact3, flat3, ideal_gas, wankel,
                              zero_work)
from heatgauge.lift import (MAX_HALVINGS, BaseCurve, CurveError, LiftError,
                            commutator_probe, lift_curve, lift_endpoint,
                            loop_holonomy, square_loop, work_integral)

CHART3 = contact3().chart


class TestBaseCurve:
    def test_polyline_closure(self):
        loop = BaseCurve.polyline(CHART3, [(0, 0), (1, 0), (1, 1), (0, 0)])
        assert loop.is_closed()
        path = BaseCurve.polyline(CHART3, [(0, 0), (1, 0)])
        assert not path.is_closed()

    def test_periodic_closure(self):
        w = wankel()
        circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
        assert circle.is_closed()

    def test_parametric_validation(self):
        with pytest.raises(CurveError):
            BaseCurve.parametric(CHART3, {"V1": "t"}, 0, 1)
        with pytest.raises(CurveError):
            BaseCurve.parametric(CHART3, {"V1": "t", "V2": "s"}, 0, 1)

    def test_polyline_validation(self):
        with pytest.raises(CurveError):
            BaseCurve.polyline(CHART3, [(0, 0)])
        with pytest.raises(CurveError):
            BaseCurve.polyline(CHART3, [(0, 0, 0), (1, 1, 1)])

    def test_reversed_endpoints(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (1, 0), (1, 2)])
        rev = curve.reversed()
        assert rev.start() == curve.end()
        assert rev.end() == curve.start()

    def test_points_only_on_polylines(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (1, 0), (1, 2)])
        assert curve.points == [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)]
        assert curve.reversed().points is None
        circle = BaseCurve.parametric(wankel().chart, {"theta": "t"}, 0.0, 1.0)
        assert circle.points is None

    def test_polyline_samples_are_plain_floats(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (1, 0.5)])
        seg = curve.segments[0]
        assert all(type(x) is float for x in seg.position(0.25) + seg.velocity(0.25))


class TestLiftCurve:
    def test_zero_work_keeps_energy(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (0.7, -0.3), (1, 1)])
        result = lift_curve(zero_work(), curve, 2.5)
        assert result.delta_u == 0.0
        assert all(u == 2.5 for u in result.energies)

    def test_wankel_constant_torque(self):
        w = wankel("1")
        circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
        result = lift_curve(w, circle, 0.0)
        assert result.delta_u == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_contact3_small_square(self):
        loop = square_loop(CHART3, (0.05, 0.05), 0.1)
        result = lift_curve(contact3(), loop, 0.0)
        assert abs(result.delta_u) == pytest.approx(0.01, rel=0.02)

    def test_ideal_gas_invariant(self):
        # adiabats of the ideal gas preserve U * V^(2/3)
        system = ideal_gas()
        curve = BaseCurve.polyline(system.chart, [(1.0,), (2.0,)])
        result = lift_curve(system, curve, 1.0)
        u_end = result.energies[-1]
        assert u_end * 2.0 ** (2 / 3) == pytest.approx(1.0, abs=1e-10)

    def test_definitional_identity(self):
        loop = square_loop(CHART3, (0, 0), 0.5)
        result = lift_curve(contact3(), loop, 0.0)
        assert abs(result.heat - (result.delta_u + result.work)) < 1e-12
        assert abs(result.heat) <= result.error

    def test_reversal(self):
        system = contact3()
        curve = BaseCurve.polyline(system.chart, [(0, 0), (0.8, 0.1), (0.5, 0.9)])
        fwd = lift_curve(system, curve, 0.2)
        back = lift_curve(system, curve.reversed(), fwd.energies[-1])
        assert back.delta_u == pytest.approx(-fwd.delta_u, abs=2 * (fwd.error + back.error))
        assert back.energies[-1] == pytest.approx(0.2, abs=2 * (fwd.error + back.error))

    def test_concatenation(self):
        system = flat3()
        a, b, c = (0, 0), (0.5, 0.5), (-0.3, 0.8)
        whole = lift_curve(system, BaseCurve.polyline(system.chart, [a, b, c]), 0.0)
        first = lift_curve(system, BaseCurve.polyline(system.chart, [a, b]), 0.0)
        second = lift_curve(system, BaseCurve.polyline(system.chart, [b, c]), first.energies[-1])
        assert whole.delta_u == pytest.approx(
            first.delta_u + second.delta_u,
            abs=whole.error + first.error + second.error)

    def test_domain_error_reported(self):
        system = ideal_gas()
        curve = BaseCurve.polyline(system.chart, [(1.0,), (-1.0,)])
        with pytest.raises(LiftError, match="domain error"):
            lift_curve(system, curve, 1.0)

    def test_step_budget_bounds_a_stiff_lift(self):
        # the absolute step tolerance is below one ulp of U here, so the
        # halvings never converge; the cap must end the lift quickly
        system = ideal_gas()
        curve = BaseCurve.polyline(system.chart, [(1.0,), (2.0,)])
        start = time.perf_counter()
        with pytest.raises(LiftError,
                           match=f"no convergence after {MAX_HALVINGS} halvings on segment 0"):
            lift_curve(system, curve, 1e8)
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize("fixed_steps", [None, 4])
    def test_nan_height_ends_the_lift(self, fixed_steps):
        # P_V1 = inf*V2 is nan on V2 = 0; the second segment goes nan
        system = WorkSystem.build("nan", CHART3, {"V1": "1e999*V2", "V2": "0"})
        points = [(0.0, 1.0), (0.0, 0.0), (0.5, 0.0)]
        start = time.perf_counter()
        with pytest.raises(LiftError, match="^lift height is nan on segment 1$"):
            lift_curve(system, BaseCurve.polyline(CHART3, points), 0.0, fixed_steps=fixed_steps)
        with pytest.raises(LiftError, match="^lift height is nan on segment 1$"):
            lift_endpoint(system, points, 0.0, fixed_steps=fixed_steps)
        assert time.perf_counter() - start < 1.0

    def test_coefficient_skipped_where_its_velocity_is_zero(self):
        # P_V1 = sqrt(V2) is undefined at V2 < 0, but this path never moves V1
        system = WorkSystem.build("skip", CHART3, {"V1": "sqrt(V2)", "V2": "1"})
        curve = BaseCurve.polyline(CHART3, [(0.0, -1.0), (0.0, -0.5)])
        assert lift_curve(system, curve, 0.0).delta_u == 0.5

    def test_chart_mismatch(self):
        curve = BaseCurve.polyline(ideal_gas().chart, [(1.0,), (2.0,)])
        with pytest.raises(LiftError):
            lift_curve(contact3(), curve, 0.0)

    def test_csv_rows_shape(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (1, 1)])
        result = lift_curve(flat3(), curve, 0.0)
        rows = list(result.csv_rows())
        assert len(rows) == len(result.times)
        assert len(rows[0]) == len(result.csv_columns) == 6


class TestLoopHolonomy:
    def test_flat3_contractible_loops_close(self):
        system = flat3()
        rng = random.Random(3)
        for _ in range(5):
            pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            pts.append(pts[0])
            du = loop_holonomy(system, BaseCurve.polyline(system.chart, pts), 0.0)
            assert abs(du) < 1e-8

    def test_contact3_square_area_law(self):
        du = loop_holonomy(contact3(), square_loop(CHART3, (0, 0), 0.5), 0.0)
        assert abs(du) == pytest.approx(0.25, rel=0.02)

    def test_wankel_mean_torque(self):
        w = wankel("1 + 0.5*cos(theta)")
        circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
        du = loop_holonomy(w, circle, 0.0)
        assert du == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_open_curve_rejected(self):
        with pytest.raises(LiftError, match="not closed"):
            loop_holonomy(contact3(), BaseCurve.polyline(CHART3, [(0, 0), (1, 1)]), 0.0)


class TestCommutatorProbe:
    def test_contact3_converges_to_curvature(self):
        system = contact3()
        p = {"U": 0.0, "V1": 0.0, "V2": 0.0}
        for t in (0.1, 0.05, 0.025):
            value = commutator_probe(system, p, 1, 2, t)
            assert abs(value) == pytest.approx(1.0, rel=0.02)

    def test_convergence_order(self):
        # probe errors that are already at rounding level count as converged
        system = contact3()
        p = {"U": 0.0, "V1": 0.2, "V2": -0.1}
        errors = [abs(abs(commutator_probe(system, p, 1, 2, t)) - 1.0)
                  for t in (0.1, 0.05)]
        assert errors[1] <= errors[0] / 1.8 or errors[0] < 1e-12

    def test_flat3_zero(self):
        value = commutator_probe(flat3(), {"U": 0.4, "V1": -0.3, "V2": 0.2}, 1, 2, 0.05)
        assert abs(value) < 1e-6

    def test_single_base_coordinate_rejected(self):
        with pytest.raises(LiftError):
            commutator_probe(ideal_gas(), {"U": 1.0, "V": 1.0}, 1, 2, 0.1)


class TestWorkIntegral:
    def test_matches_negative_delta_u(self):
        system = contact3()
        curve = BaseCurve.polyline(system.chart, [(0, 0), (0.6, 0.2), (0.1, 0.9)])
        result = lift_curve(system, curve, 0.0)
        w = work_integral(system, result)
        assert w == pytest.approx(-result.delta_u, abs=max(2 * result.error, 1e-10))

    def test_zero_work_system(self):
        curve = BaseCurve.polyline(CHART3, [(0, 0), (1, 1)])
        result = lift_curve(zero_work(), curve, 1.0)
        assert work_integral(zero_work(), result) == 0.0

    @pytest.mark.parametrize("steps", [5, 6])
    def test_fixed_step_counts_odd_and_even(self, steps):
        # the work integrand is quadratic in t on each segment and does not
        # depend on U, so RK4, Simpson and the 3/8 rule are all exact
        system = WorkSystem.build("cubic", CHART3, {"V1": "V1^2 - V2", "V2": "V1*V2"})
        curve = BaseCurve.polyline(system.chart, [(0, 0), (0.6, 0.2), (0.1, 0.9)])
        result = lift_curve(system, curve, 0.0, fixed_steps=steps)
        assert result.steps_per_segment == [steps, steps]
        assert work_integral(system, result) == pytest.approx(-result.delta_u, abs=1e-12)

    def test_quadrature_skips_a_coefficient_whose_velocity_is_zero(self):
        # P_V1 = log(V2) is undefined at V2 < 0, but this path never moves V1
        system = WorkSystem.build("skip", CHART3, {"V1": "log(V2)", "V2": "0"})
        curve = BaseCurve.polyline(CHART3, [(0.0, -0.5), (0.0, -0.2)])
        assert work_integral(system, lift_curve(system, curve, 0.0)) == 0.0

    def test_domain_error_names_the_sample(self):
        # the same coefficient with V1 moving: the quadrature of contact3's
        # lift evaluates log(V2) at its first sample
        system = WorkSystem.build("log", CHART3, {"V1": "log(V2)", "V2": "0"})
        result = lift_curve(contact3(), BaseCurve.polyline(CHART3, [(0.0, -0.5), (0.3, -0.2)]), 0.0)
        with pytest.raises(LiftError) as info:
            work_integral(system, result)
        assert str(info.value) == ("domain error in the work quadrature at t = 0.0, "
                                   "base point {'V1': 0.0, 'V2': -0.5}: log of non-positive value")

    def test_wankel_full_circle(self):
        w = wankel("2")
        circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
        result = lift_curve(w, circle, 0.0)
        assert work_integral(w, result) == pytest.approx(-4.0 * math.pi, abs=1e-8)
