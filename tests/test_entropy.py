import math
import random

import numpy as np
import pytest

from heatgauge import entropy, expr
from heatgauge.bundle import (GaugeTransform, WorkSystem, apply_gauge, catalog,
                              contact3, flat3, ideal_gas, zero_work)
from heatgauge.entropy import (FD_STEP, LIFT_TOL, EntropyError, PathLiftError,
                               affine_slopes, reconstruct, residual_report,
                               transport_maps)
from heatgauge.geometry import Chart
from heatgauge.harness import random_curved_system, random_flat_system
from heatgauge.lift import LiftError, lift_curve, lift_endpoint, square_loop

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
REF3 = {"V1": 0.0, "V2": 0.0}


@pytest.fixture(scope="module")
def flat3_chart():
    return reconstruct(flat3(), REF3, REGION3, grid=5)


@pytest.fixture(scope="module")
def gas_chart():
    return reconstruct(ideal_gas(), {"V": 1.0},
                       {"U": (1.0, 2.0), "V": (1.0, 2.0)}, grid=7)


class TestFlatSystem:
    def test_entropy_matches_closed_form(self, flat3_chart):
        # for flat3 the exact entropy through ref (0, 0) is U + V1*V2
        for node, s in zip(flat3_chart.nodes, flat3_chart.entropy):
            u, v1, v2 = node
            assert s == pytest.approx(u + v1 * v2, abs=1e-8)

    def test_residuals_small(self, flat3_chart):
        assert flat3_chart.max_residual < 1e-8

    def test_temperature_is_one(self, flat3_chart):
        assert np.max(np.abs(flat3_chart.temperature - 1.0)) < 1e-6

    def test_not_path_dependent(self, flat3_chart):
        assert not flat3_chart.path_dependent
        assert flat3_chart.path_dependence < 1e-9

    def test_report_passes(self, flat3_chart):
        report = residual_report(flat3_chart)
        assert report.passed
        assert "pass" in report.summary()

    def test_entropy_increasing_in_u(self, flat3_chart):
        u_col = flat3_chart.nodes[:, 0]
        base = flat3_chart.nodes[:, 1:]
        for row in np.unique(base, axis=0):
            mask = np.all(base == row, axis=1)
            s_along_fibre = flat3_chart.entropy[mask][np.argsort(u_col[mask])]
            assert np.all(np.diff(s_along_fibre) > 0)


class TestIdealGas:
    def test_residuals_small(self, gas_chart):
        assert gas_chart.max_residual < 1e-7

    def test_leaves_are_adiabats(self, gas_chart):
        # S is constant exactly on leaves of U * V^(2/3)
        invariant = gas_chart.nodes[:, 0] * gas_chart.nodes[:, 1] ** (2.0 / 3.0)
        order = np.argsort(invariant)
        assert np.all(np.diff(gas_chart.entropy[order]) > -1e-9)

    def test_integrating_factor(self, gas_chart):
        # with S the adiabatic invariant U * V^(2/3), the factor pairing
        # xi = T dS is T = V^(-2/3)
        for node, s, t in zip(gas_chart.nodes, gas_chart.entropy,
                              gas_chart.temperature):
            u, v = node
            assert s == pytest.approx(u * v ** (2.0 / 3.0), rel=1e-8)
            assert t == pytest.approx(v ** (-2.0 / 3.0), rel=1e-5)


class TestCurvedSystem:
    def test_contact3_path_dependent(self):
        chart = reconstruct(contact3(), REF3, REGION3, grid=3)
        assert chart.path_dependent
        assert chart.path_dependence >= 10 * chart.residual_tol
        assert chart.path_dependence == pytest.approx(1.0, rel=1e-6)

    def test_contact3_report_fails(self):
        chart = reconstruct(contact3(), REF3, REGION3, grid=3)
        report = residual_report(chart)
        assert not report.passed
        assert "PATH DEPENDENT" in report.summary()

    @pytest.mark.parametrize("system", [contact3, flat3])
    def test_path_dependence_is_a_plain_float(self, system):
        # numpy scalars would print as np.float64(...) and np.False_
        chart = reconstruct(system(), REF3, REGION3, grid=3)
        assert type(chart.path_dependence) is float
        assert type(chart.path_dependent) is bool


class TestZeroWork:
    def test_entropy_is_u(self):
        chart = reconstruct(zero_work(), REF3, REGION3, grid=3)
        for node, s, t in zip(chart.nodes, chart.entropy, chart.temperature):
            assert s == pytest.approx(node[0], abs=1e-10)
            assert t == pytest.approx(1.0, abs=1e-8)


class TestGaugeBehavior:
    def test_constant_gauge_rescales_entropy(self):
        # U' = 2U doubles the arrival height, so S doubles while T stays 1:
        # the fibre-height convention absorbs the rescaling into S
        gauged = apply_gauge(flat3(), GaugeTransform.build(2.0, 0.0))
        chart = reconstruct(gauged, REF3, REGION3, grid=3)
        for node, s in zip(chart.nodes, chart.entropy):
            u, v1, v2 = node
            assert s == pytest.approx(u + 2.0 * v1 * v2, abs=1e-8)
        assert np.max(np.abs(chart.temperature - 1.0)) < 1e-6
        assert chart.max_residual < 1e-6

    def test_relabeled_entropy_same_adiabats(self):
        # a flat system whose entropy is a monotone relabeling g(S) still
        # passes: the leaves agree even though S and T values differ
        base = flat3()
        chart_a = reconstruct(base, REF3, REGION3, grid=3)
        relabeled = WorkSystem.build("flat3b", base.chart, {
            "V1": "-V2/3", "V2": "-V1/3"})
        chart_b = reconstruct(relabeled, REF3,
                              {"U": (-0.3, 0.3), "V1": (-1, 1), "V2": (-1, 1)},
                              grid=3)
        assert chart_a.max_residual < 1e-6
        assert chart_b.max_residual < 1e-6


class TestValidation:
    def test_region_must_cover_chart(self):
        with pytest.raises(EntropyError, match="region"):
            reconstruct(flat3(), REF3, {"U": (-1, 1), "V1": (-1, 1)}, grid=3)

    def test_reference_must_bind_base(self):
        with pytest.raises(EntropyError, match="reference"):
            reconstruct(flat3(), {"V1": 0.0}, REGION3, grid=3)
        with pytest.raises(EntropyError, match="reference"):
            reconstruct(flat3(), {"V1": 0.0, "V2": 0.0, "Q": 1.0}, REGION3, grid=3)

    def test_lift_failure_wrapped(self):
        with pytest.raises(EntropyError, match="lift"):
            reconstruct(ideal_gas(), {"V": 1.0},
                        {"U": (1, 2), "V": (-1.0, 1.0)}, grid=3)

    def test_csv_shape(self, flat3_chart):
        rows = list(flat3_chart.csv_rows())
        assert len(rows) == len(flat3_chart.nodes)
        assert len(rows[0]) == len(flat3_chart.csv_columns) == 6
        assert flat3_chart.csv_rows().shape == (len(flat3_chart.nodes), 6)


# ---------------------------------------------------------------------------
# Transport maps of systems affine in U, against oracles that share no code
# with the quadrature: closed forms, lift_curve, lift_endpoint and scipy

SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}


def _criterion_3_systems():
    rng = random.Random(103)
    flats = [random_flat_system(rng) for _ in range(10)]
    return flats + [random_curved_system(rng, SMALL3) for _ in range(10)]


CRITERION_3 = _criterion_3_systems()
U_V2 = WorkSystem.build("u_v2", contact3().chart, {"V1": "U*V2", "V2": "0"})


def _maps(system, paths, u_range=(-1.0, 1.0)):
    return transport_maps(system, affine_slopes(system), paths, u_range)


class TestTransportMaps:
    def test_square_holonomy_is_a_pure_rescaling(self):
        # around the counterclockwise square of side 0.4, int alpha = -0.4^2
        loop = square_loop(U_V2.chart, (0.0, 0.0), 0.4)
        (a,), (b,) = _maps(U_V2, [loop.points])
        assert abs(a - math.exp(-0.16)) <= 1e-13
        assert abs(b) <= 1e-13
        for u0 in (0.0, 0.3, 1.0):
            delta_u = lift_curve(U_V2, loop, u0, step_tol=1e-12).delta_u
            assert (a - 1.0) * u0 + b == pytest.approx(delta_u, abs=1e-12)

    def test_entropy_agrees_with_endpoint_lifts(self):
        # S per node against the RK4 lift itself, and T against the central
        # difference of RK4 lifts at u +- FD_STEP, the parent's T
        h = FD_STEP
        worst_s = worst_t = 0.0
        for system in CRITERION_3:
            chart = reconstruct(system, {"V1": 0.0, "V2": 0.0}, SMALL3, grid=3)
            for node, s, t in zip(chart.nodes, chart.entropy, chart.temperature):
                u, base = float(node[0]), [float(x) for x in node[1:]]
                path = [base, (0.0, 0.0)]
                lifted, steps = lift_endpoint(system, path, u, LIFT_TOL)
                up, _ = lift_endpoint(system, path, u + h, LIFT_TOL, steps[0])
                down, _ = lift_endpoint(system, path, u - h, LIFT_TOL, steps[0])
                worst_s = max(worst_s, abs(s - lifted))
                worst_t = max(worst_t, abs(t * (up - down) / (2.0 * h) - 1.0))
        assert worst_s <= 1e-12
        assert worst_t <= 1e-9

    def test_maps_agree_with_a_second_integrator(self):
        integrate = pytest.importorskip("scipy.integrate")
        for system in CRITERION_3[::5]:
            fns = [expr.compile_expression(p, system.chart.coords) for p in system.coefficients]
            paths = [[(0.6, -0.6), (0.0, 0.0)], [(-0.5, 0.2), (0.4, 0.4)],
                     [(0.6, 0.6), (0.6, 0.0), (0.0, 0.0)]]
            a, b = _maps(system, paths, SMALL3["U"])
            for path, ak, bk in zip(paths, a, b):
                for u0 in (-0.6, 0.6):
                    u = u0
                    for start, end in zip(path, path[1:]):
                        d = np.subtract(end, start)

                        def rhs(t, y, start=start, d=d):
                            v = np.add(start, t * d)
                            return [sum(fn(y[0], *v) * di for fn, di in zip(fns, d))]

                        u = integrate.solve_ivp(rhs, (0.0, 1.0), [u], method="DOP853",
                                                rtol=1e-12, atol=1e-14).y[0, -1]
                    assert ak * u0 + bk == pytest.approx(u, abs=1e-11)

    def test_a_coefficient_is_skipped_where_its_velocity_is_zero(self):
        # log(V1) is undefined on V1 = -1, but a path along V2 never reads it
        system = WorkSystem.build("skip", contact3().chart, {"V1": "log(V1)", "V2": "1 + U"})
        path = [(-1.0, 0.0), (-1.0, 0.5)]
        (a,), (b,) = _maps(system, [path])
        assert a == pytest.approx(math.exp(0.5), rel=1e-14)
        assert b == pytest.approx(math.exp(0.5) - 1.0, rel=1e-14)
        assert a * 0.2 + b == pytest.approx(lift_endpoint(system, path, 0.2, 1e-12)[0],
                                            abs=1e-12)

    def test_first_failing_path_carries_the_lift_text(self):
        system = WorkSystem.build("fail", contact3().chart, {"V1": "log(V1)", "V2": "sqrt(V1)"})
        paths = [[(0.5, 0.0), (1.0, 0.0)], [(0.5, 0.0), (-0.5, 0.0)],
                 [(-0.5, -0.5), (-0.5, 0.5)]]
        with pytest.raises(PathLiftError) as failure:
            _maps(system, paths)
        assert failure.value.path == 1
        with pytest.raises(LiftError) as lifted:
            lift_endpoint(system, paths[1], 0.0, 1e-12)
        assert str(failure.value) == str(lifted.value)

    def test_nan_map_names_its_segment(self):
        system = WorkSystem.build("nan", contact3().chart, {"V1": "1e999*V2", "V2": "1"})
        # the second segment crosses V2 = 0, where 1e999*V2 is nan
        path = [(0.0, -1.0), (0.0, -0.5), (0.5, 0.5)]
        with pytest.raises(PathLiftError, match="^lift height is nan on segment 1$"):
            _maps(system, [path])
        with pytest.raises(LiftError, match="^lift height is nan on segment 1$"):
            lift_endpoint(system, path, 0.0, 1e-12)

    @pytest.mark.parametrize("slope, u_range", [
        (1000, (-1.0, 1.0)),  # a = exp(1000) overflows, and b = 0*inf is nan
        (705, (-1e5, 1e5)),  # a = exp(705) is finite, a*1e5 is not
    ])
    def test_overflowing_map_is_infinite(self, slope, u_range):
        system = WorkSystem.build("steep", contact3().chart, {"V1": f"{slope}*U", "V2": "0"})
        path = [(0.0, 0.0), (1.0, 0.0)]
        infinite = "^lift height is infinite on segment 0$"
        with pytest.raises(PathLiftError, match=infinite) as failure:
            _maps(system, [[(0.0, 0.0), (0.5, 0.0)], path], u_range)
        assert failure.value.path == 1
        with pytest.raises(LiftError, match=infinite):
            lift_endpoint(system, path, u_range[1], 1e-12)

    def test_no_convergence_at_the_doubling_cap(self):
        # 1/V1 is infinite at t = 1/3, which no panel edge or node meets
        system = WorkSystem.build("pole", contact3().chart, {"V1": "1/V1", "V2": "0"})
        with pytest.raises(PathLiftError, match="^no convergence after 8 halvings on segment 0$"):
            _maps(system, [[(-1.0, 0.0), (2.0, 0.0)]])


class TestPathDependenceOverTheURange:
    def test_difference_vanishing_at_mid_height(self):
        # P_1 = (U - 0.3)*V2 rescales U - 0.3: the staircases from corner
        # (v1, v2) to 0 give a = exp(-v1*v2) and a = 1, so they differ by
        # (exp(-v1*v2) - 1)*(u - 0.3), which is zero at mid height 0.3
        system = WorkSystem.build("shifted", contact3().chart, {"V1": "(U - 0.3)*V2", "V2": "0"})
        region = {"U": (-0.2, 0.8), "V1": (-0.5, 0.5), "V2": (-0.5, 0.5)}
        chart = reconstruct(system, REF3, region, grid=3)
        assert chart.path_dependence == pytest.approx(0.5 * (math.exp(0.25) - 1.0), rel=1e-12)
        assert chart.path_dependent
        staircases = [[(-0.5, -0.5), (0.0, -0.5), (0.0, 0.0)],
                      [(-0.5, -0.5), (-0.5, 0.0), (0.0, 0.0)]]
        at_mid = [lift_endpoint(system, path, 0.3, 1e-12)[0] for path in staircases]
        assert abs(at_mid[0] - at_mid[1]) < 1e-12


class TestAffinity:
    def test_every_builtin_and_criterion_3_system_is_affine(self):
        systems = [*catalog().values(), *CRITERION_3]
        assert all(affine_slopes(system) is not None for system in systems)

    def test_non_affine_flat_system_takes_the_lift_loop(self, monkeypatch):
        # g = U + U^3/3 + V1*V2 has dg = (1 + U^2) xi, so the leaves are its
        # level sets: the reconstructed S is the height s over the reference
        # point with s + s^3/3 = g, and xi = T dS gives T = (1 + s^2)/(1 + U^2)
        system = WorkSystem.build("cubic", contact3().chart,
                                  {"V1": "-V2/(1 + U^2)", "V2": "-V1/(1 + U^2)"})
        assert affine_slopes(system) is None
        calls = []

        def counted(*args):
            calls.append(args)
            return lift_endpoint(*args)

        monkeypatch.setattr(entropy, "lift_endpoint", counted)
        chart = reconstruct(system, REF3, REGION3, grid=3)
        assert len(calls) == 27 * 7 + 8
        assert residual_report(chart).passed
        for (u, v1, v2), s, t in zip(chart.nodes, chart.entropy, chart.temperature):
            assert s + s ** 3 / 3.0 == pytest.approx(u + u ** 3 / 3.0 + v1 * v2, abs=1e-9)
            assert t == pytest.approx((1.0 + s * s) / (1.0 + u * u), rel=1e-8)

    def test_non_affine_lift_failure_names_the_node(self):
        system = WorkSystem.build("cubic_log", contact3().chart,
                                  {"V1": "log(V1 + 0.5)*U^2", "V2": "1"})
        with pytest.raises(EntropyError) as failure:
            reconstruct(system, REF3, REGION3, grid=3)
        with pytest.raises(LiftError) as lifted:
            lift_endpoint(system, [(-1.0, -1.0), (0.0, 0.0)], -1.0, LIFT_TOL)
        assert str(failure.value) == ("lift failure during reconstruction at "
                                      f"{{'U': -1.0, 'V1': -1.0, 'V2': -1.0}}: {lifted.value}")

    def test_intercept_is_taken_inside_the_region(self):
        # 0*log(U) is affine in U, and undefined at U = 0
        system = WorkSystem.build("log0", contact3().chart, {"V1": "0*log(U) - V2", "V2": "-V1"})
        assert affine_slopes(system) is not None
        chart = reconstruct(system, REF3, {"U": (0.5, 1.5), "V1": (-1, 1), "V2": (-1, 1)},
                            grid=3)
        assert residual_report(chart).passed
        for (u, v1, v2), s in zip(chart.nodes, chart.entropy):
            assert s == pytest.approx(u + v1 * v2, abs=1e-14)

    def test_work_does_not_grow_with_the_grid(self, monkeypatch):
        lifts = []
        evaluations = []

        def counting_compile(expressions, coords):
            fn = expr.compile_array(expressions, coords)

            def counted(*args):
                evaluations.append(len(args))
                return fn(*args)

            return counted

        monkeypatch.setattr(entropy, "lift_endpoint", lambda *args: lifts.append(args))
        monkeypatch.setattr(entropy, "compile_array", counting_compile)
        counts = []
        for grid in (3, 5):
            evaluations.clear()
            reconstruct(CRITERION_3[0], {"V1": 0.0, "V2": 0.0}, SMALL3, grid=grid)
            counts.append(len(evaluations))
        assert lifts == []
        assert counts[0] == counts[1] == 2
