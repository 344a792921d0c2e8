import itertools
import random

import numpy as np
import pytest

from heatgauge import connection, expr
from heatgauge.bundle import (GaugeTransform, WorkSystem, apply_gauge, contact3, flat3, ideal_gas,
                              wankel, zero_work)
from heatgauge.connection import (ConnectionError_, curvature_matrix, flatness,
                                  frobenius_defect, grid_points, horizontal_lift_vector,
                                  vertical_component)
from heatgauge.geometry import Chart, coordinate_field, lie_bracket, pair
from heatgauge.harness import random_curved_system, random_flat_system

from conftest import random_expression, random_point

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}


class TestHorizontalLift:
    def test_contact3_first_direction(self):
        x1 = horizontal_lift_vector(contact3(), 1)
        p = {"U": 0.0, "V1": 0.0, "V2": 0.6}
        assert x1.evaluate(p) == (-0.6, 1.0, 0.0)

    def test_contact3_second_direction(self):
        x2 = horizontal_lift_vector(contact3(), 2)
        assert x2.evaluate({"U": 1, "V1": 2, "V2": 3}) == (0.0, 0.0, 1.0)

    def test_zero_work(self):
        for i in (1, 2):
            x = horizontal_lift_vector(zero_work(), i)
            values = x.evaluate({"U": 1, "V1": 2, "V2": 3})
            assert values[0] == 0.0 and values[i] == 1.0

    def test_index_out_of_range(self):
        with pytest.raises(ConnectionError_):
            horizontal_lift_vector(contact3(), 3)

    def test_heat_form_annihilates_lifts(self, rng):
        for system in (contact3(), flat3(), ideal_gas(), random_flat_system(rng)):
            xi = system.heat_form
            for i in range(1, len(system.chart.base) + 1):
                pairing = pair(xi, horizontal_lift_vector(system, i))
                for _ in range(30):
                    p = random_point(rng, list(system.chart.coords), 0.5, 1.5)
                    assert expr.evaluate(pairing, p) == pytest.approx(0.0, abs=1e-12)


class TestCurvature:
    def test_contact3_constant(self):
        m = curvature_matrix(contact3())
        assert expr.evaluate(m.entry(1, 2), {"U": 5, "V1": -3, "V2": 7}) == 1.0
        assert expr.evaluate(m.entry(2, 1), {"U": 5, "V1": -3, "V2": 7}) == -1.0

    def test_flat3_vanishes(self, rng):
        m = curvature_matrix(flat3())
        for _ in range(20):
            p = random_point(rng, ["U", "V1", "V2"])
            assert expr.evaluate(m.entry(1, 2), p) == 0.0

    def test_single_base_coordinate_empty(self):
        for system in (ideal_gas(), wankel()):
            assert curvature_matrix(system).is_empty()

    def test_diagonal_zero(self):
        m = curvature_matrix(contact3())
        assert expr.evaluate(m.entry(1, 1), {}) == 0.0

    def test_matches_bracket_vertical_part(self, rng):
        for system in (contact3(), flat3(), random_flat_system(rng),
                       random_curved_system(rng)):
            m = curvature_matrix(system)
            x1 = horizontal_lift_vector(system, 1)
            x2 = horizontal_lift_vector(system, 2)
            vert = vertical_component(system, lie_bracket(x1, x2))
            f12 = m.entry(1, 2)
            for _ in range(20):
                p = random_point(rng, list(system.chart.coords))
                assert expr.evaluate(vert, p) == pytest.approx(
                    expr.evaluate(f12, p), abs=1e-9)


class TestFrobeniusDefect:
    def test_two_coordinate_chart_is_zero(self):
        assert frobenius_defect(ideal_gas()).is_structurally_zero()

    def test_contact3(self):
        d = frobenius_defect(contact3())
        assert expr.evaluate(d.component(("U", "V1", "V2")), {}) == -1.0

    def test_flat3(self, rng):
        d = frobenius_defect(flat3())
        for _ in range(10):
            p = random_point(rng, ["U", "V1", "V2"])
            assert abs(expr.evaluate(d.component(("U", "V1", "V2")), p)) < 1e-12

    def test_defect_and_curvature_vanish_together(self, rng):
        for _ in range(5):
            for system in (random_flat_system(rng), random_curved_system(rng)):
                report = flatness(system, REGION3, grid=5)
                coords = system.chart.coords
                defect = expr.compile_tuple(
                    [e for _, e in frobenius_defect(system).components], coords)
                max_defect = max(abs(v) for node in grid_points(REGION3, coords, 5)
                                 for v in defect(*node))
                assert (report.max_curvature < 1e-9) == (max_defect < 1e-9)


def _random_system(rng, m, flat):
    """m base coordinates V1..Vm. A flat system comes from a potential
    S = U*f(V) + g(V), P_i = -(U df/dV_i + dg/dV_i)/f; a curved one takes
    each P_i as a random expression in U and the V_i."""
    base = [f"V{i}" for i in range(1, m + 1)]
    chart = Chart(("U", *base))
    if not flat:
        return WorkSystem("curved", chart, tuple(random_expression(rng, list(chart.coords))
                                                 for _ in base))
    f = expr.add(expr.const(1.0),
                 expr.mul(expr.const(0.2), expr.call("sin", random_expression(rng, base))))
    g = random_expression(rng, base)
    u = expr.var("U")
    return WorkSystem("flat", chart, tuple(
        expr.neg(expr.div(expr.add(expr.mul(u, expr.differentiate(f, c)),
                                   expr.differentiate(g, c)), f)) for c in base))


class TestDefectOracle:
    """frobenius_defect shares no code with curvature_matrix but
    differentiate, and its components are fixed combinations of F and P:
    defect[U,Vi,Vj] = -F_ij, defect[Vi,Vj,Vk] = P_i F_jk - P_j F_ik + P_k F_ij."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_defect_is_a_combination_of_f_and_p(self, rng, m):
        def close(got, want):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)

        largest_f = {True: 0.0, False: 0.0}
        for flat in (True, False) * 3:
            system = _random_system(rng, m, flat)
            base = system.chart.base
            matrix = curvature_matrix(system)
            defect = frobenius_defect(system)
            for _ in range(5):
                point = random_point(rng, list(system.chart.coords), -1.0, 1.0)
                p = [expr.evaluate(c, point) for c in system.coefficients]

                def f(i, j):
                    return expr.evaluate(matrix.entry(i, j), point)

                for i, j in itertools.combinations(range(1, m + 1), 2):
                    largest_f[flat] = max(largest_f[flat], abs(f(i, j)))
                    got = expr.evaluate(defect.component(("U", base[i - 1], base[j - 1])), point)
                    close(got, -f(i, j))
                for i, j, k in itertools.combinations(range(1, m + 1), 3):
                    got = expr.evaluate(
                        defect.component((base[i - 1], base[j - 1], base[k - 1])), point)
                    close(got, p[i - 1] * f(j, k) - p[j - 1] * f(i, k) + p[k - 1] * f(i, j))
        assert largest_f[True] < 1e-9 and largest_f[False] > 1e-3


class TestWorkCount:
    @pytest.fixture
    def differentiate_calls(self, monkeypatch):
        calls = []
        differentiate = expr.differentiate

        def counted(e, coord):
            calls.append(coord)
            return differentiate(e, coord)

        monkeypatch.setattr(expr, "differentiate", counted)
        return calls

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_curvature_matrix_differentiates_each_coefficient_once_per_coordinate(
            self, rng, differentiate_calls, m):
        # P_i by U and by every V_j with j != i: m^2 derivatives
        curvature_matrix(_random_system(rng, m, flat=False))
        assert len(differentiate_calls) == m * m

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_flatness_builds_the_curvature_alone(self, rng, monkeypatch,
                                                 differentiate_calls, m):
        system = _random_system(rng, m, flat=False)
        monkeypatch.setattr(connection, "frobenius_defect",
                            lambda system: pytest.fail("flatness built the Frobenius defect"))
        region = {c: (-1.0, 1.0) for c in system.chart.coords}
        report = flatness(system, region, grid=2)
        assert len(differentiate_calls) == m * m
        assert report.sample_columns[m + 1:] == tuple(
            f"F_{i}{j}" for i, j in itertools.combinations(range(1, m + 1), 2))


class TestFlatness:
    def test_contact3_curved(self):
        report = flatness(contact3(), REGION3, grid=11, tol=1e-9)
        assert not report.flat
        assert report.max_curvature == pytest.approx(1.0)

    def test_flat3_flat(self):
        report = flatness(flat3(), REGION3, grid=11, tol=1e-9)
        assert report.flat
        assert report.max_curvature <= 1e-12

    def test_ideal_gas_trivially_flat(self):
        report = flatness(ideal_gas(), {"U": (1, 2), "V": (1, 2)}, grid=5)
        assert report.flat and report.max_curvature == 0.0

    def test_horizontality_on_grid(self):
        system = contact3()
        xi = system.heat_form
        from heatgauge.connection import grid_points
        for i in (1, 2):
            pairing = pair(xi, horizontal_lift_vector(system, i))
            for node in grid_points(REGION3, system.chart.coords, 5):
                p = dict(zip(system.chart.coords, node))
                assert abs(expr.evaluate(pairing, p)) < 1e-12

    def test_verdict_gauge_invariant(self):
        from heatgauge.bundle import GaugeTransform, apply_gauge
        for gauge in (GaugeTransform.build(2, 0), GaugeTransform.build("1 + V1^2/10", 0)):
            assert not flatness(apply_gauge(contact3(), gauge), REGION3, grid=5).flat
            assert flatness(apply_gauge(flat3(), gauge), REGION3, grid=5).flat

    def test_missing_region_coordinate(self):
        with pytest.raises(ConnectionError_):
            flatness(contact3(), {"U": (-1, 1)}, grid=3)

    def test_domain_error_reports_point(self):
        from heatgauge.bundle import WorkSystem
        from heatgauge.geometry import Chart
        system = WorkSystem.build("singular", Chart(("U", "V1", "V2")),
                                  {"V1": "1/V2", "V2": "0"})
        with pytest.raises(ConnectionError_, match="grid point"):
            flatness(system, REGION3, grid=3)

    def test_nan_curvature_reports_point(self):
        # max() would skip the nan and call this system flat
        from heatgauge.bundle import WorkSystem
        system = WorkSystem.build("nan", contact3().chart,
                                  {"V1": "(1e200*1e200 - 1e200*1e200)*V2", "V2": "0"})
        with pytest.raises(ConnectionError_) as info:
            flatness(system, REGION3, grid=3)
        assert str(info.value) == ("evaluation failed at grid point "
                                   "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: F_12 is nan")

    def test_samples_and_summary(self):
        report = flatness(contact3(), REGION3, grid=3)
        assert len(report.samples) == 27
        assert "curved" in report.summary()
        assert "F[1,2]" in report.summary()


def _per_node_samples(system, region, grid):
    """Each grid node's coordinates and compile_tuple's values there, as
    float.hex: the samples as a scalar call per node gives them."""
    matrix = curvature_matrix(system)
    values_at = expr.compile_tuple([e for _, e in matrix.pairs()], system.chart.coords)
    return [[v.hex() for v in node + values_at(*node)]
            for node in grid_points(region, system.chart.coords, grid)]


class TestGridArrays:
    """flatness calls its compile_tuple function once, on the grid's
    coordinate columns; every sample keeps the bits of a scalar call at
    its node, and a failure names the first failing node."""

    @staticmethod
    def _potential_systems(rng):
        for m in (2, 3, 4):
            base = [f"V{i}" for i in range(1, m + 1)]
            for flat in (True, False):
                system = _random_system(rng, m, flat)
                gauge = GaugeTransform(
                    expr.add(expr.const(1.5), expr.mul(expr.const(0.5), expr.call(
                        "sin", random_expression(rng, base)))),
                    random_expression(rng, base))
                yield system
                yield apply_gauge(system, gauge)
        # F_12 = -(U*V1): -0.0 where U > 0 and V1 = 0
        yield WorkSystem.build("signed_zero", contact3().chart, {"V1": "U*V1*V2", "V2": "0"})

    def test_samples_equal_per_node_calls_bit_for_bit(self, rng):
        negative_zeros = 0
        for system in self._potential_systems(rng):
            coords = system.chart.coords
            region = {c: (-0.6, 0.6) for c in coords}
            for grid in (1, 3, 4):
                report = flatness(system, region, grid=grid)
                want = _per_node_samples(system, region, grid)
                assert [[v.hex() for v in row] for row in report.samples.tolist()] == want
                assert report.max_curvature == max(
                    [0.0] + [abs(float.fromhex(v)) for row in want for v in row[len(coords):]])
                negative_zeros += sum(v == "-0x0.0p+0" for row in want for v in row[len(coords):])
        assert negative_zeros > 0

    def test_midpoint_grid(self):
        report = flatness(contact3(), {"U": (0.0, 1.0), "V1": (-1.0, 0.5), "V2": (2.0, 3.0)},
                          grid=1)
        assert report.samples.tolist() == [[0.5, -0.25, 2.5, 1.0]]

    def test_one_base_coordinate_has_no_components(self):
        region = {"U": (1.0, 2.0), "V": (1.0, 2.0)}
        report = flatness(ideal_gas(), region, grid=3)
        assert report.sample_columns == ("U", "V")
        assert report.samples.tolist() == [list(node) for node in
                                           grid_points(region, ("U", "V"), 3)]
        assert report.max_curvature == 0.0 and report.flat

    def test_nan_at_an_earlier_node_beats_an_error_at_a_later_one(self):
        # F_12 = -g(V1): nan at V1 = -1, sqrt of a negative value at V1 = 1
        system = WorkSystem.build("nan_then_error", contact3().chart,
                                  {"V1": "V2*((V1 + 1)*(1e200*1e200) + sqrt(-V1))", "V2": "0"})
        with pytest.raises(ConnectionError_) as info:
            flatness(system, REGION3, grid=3)
        assert str(info.value) == ("evaluation failed at grid point "
                                   "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: F_12 is nan")
        with pytest.raises(ConnectionError_, match="sqrt of negative value$"):
            flatness(system, {"U": (-1, 1), "V1": (0.5, 1), "V2": (-1, 1)}, grid=3)

    def test_the_first_node_s_error_wins(self):
        # log(-V1) fails at V1 >= 0 and is computed first; sqrt(V1) fails at V1 = -1
        system = WorkSystem.build("two_errors", contact3().chart,
                                  {"V1": "V2*(log(-V1) + sqrt(V1))", "V2": "0"})
        with pytest.raises(ConnectionError_) as info:
            flatness(system, REGION3, grid=3)
        assert str(info.value) == ("evaluation failed at grid point "
                                   "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: sqrt of negative value")

    @pytest.mark.parametrize("source, column, message", [
        ("x^400", [1.0, 10.0, 2.0], "overflow in power"),
        ("2^x", [1.0, 2000.0, 2.0], "overflow in power"),
        ("sin(x)", [0.0, float("inf"), 1.0], "trigonometric function of an infinite value"),
    ])
    def test_whole_columns_raise_the_scalar_texts(self, source, column, message):
        values_at = expr.compile_tuple([expr.parse(source)], ("x",))
        with pytest.raises(expr.EvalError, match=f"^{message}$"):
            values_at(np.array(column))
        with pytest.raises(expr.EvalError, match=f"^{message}$"):
            values_at(column[1])
