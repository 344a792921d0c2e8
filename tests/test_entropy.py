import math

import numpy as np
import pytest

from heatgauge import expr
from heatgauge.bundle import (GaugeTransform, WorkSystem, apply_gauge,
                              contact3, flat3, ideal_gas, zero_work)
from heatgauge.entropy import (EntropyError, reconstruct, residual_report)
from heatgauge.geometry import Chart

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
