import math
import random

import pytest

from heatgauge.bundle import WorkSystem, contact3, flat3, ideal_gas, wankel, zero_work
from heatgauge.harness import (HarnessError, default_loop_family,
                               equivalence_test, jauch_test, out_and_back,
                               phase_demo, random_curved_system,
                               random_flat_system, random_polyline_loop)
from heatgauge.lift import BaseCurve, square_loop

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}


class TestLoopFamilies:
    def test_default_family_closed(self):
        loops = default_loop_family(flat3().chart, REGION3, seed=1)
        assert len(loops) == 25
        assert all(loop.is_closed() for loop in loops)

    def test_single_base_coordinate_degenerates(self):
        loops = default_loop_family(ideal_gas().chart, {"U": (1, 2), "V": (1, 2)})
        assert all(loop.is_closed() for loop in loops)
        assert all(len(loop.points) == 3 for loop in loops)

    def test_random_loop_stays_in_region(self):
        rng = random.Random(4)
        loop = random_polyline_loop(flat3().chart, [(-1, 1), (-1, 1)], rng)
        for pt in loop.points:
            assert all(-1 <= x <= 1 for x in pt)

    def test_out_and_back_closed(self):
        rng = random.Random(4)
        assert out_and_back(ideal_gas().chart, [(1, 2)], rng).is_closed()


class TestJauch:
    def test_flat3_holds(self):
        loops = default_loop_family(flat3().chart, REGION3)
        report = jauch_test(flat3(), loops, 0.0)
        assert report.holds
        assert report.max_delta_u < 1e-7
        assert "holds" in report.summary()

    def test_contact3_violated(self):
        loop = square_loop(contact3().chart, (0.0, 0.0), 0.5)
        report = jauch_test(contact3(), [loop], 0.0)
        assert not report.holds
        assert report.max_delta_u == pytest.approx(0.25, rel=0.02)
        assert "violated" in report.summary()

    def test_wankel_violated_by_winding(self):
        w = wankel("1")
        circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
        report = jauch_test(w, [circle], 0.0)
        assert not report.holds
        assert report.max_delta_u == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_zero_net_work_iff_closed_energy(self):
        # conservation and zero net work are the same statement per loop
        loops = default_loop_family(contact3().chart, REGION3)
        report = jauch_test(contact3(), loops, 0.0)
        for record in report.records:
            assert record.work == -record.delta_u
            assert record.holds == (abs(record.delta_u) <= report.tolerance)

    def test_rejects_open_curves(self):
        path = BaseCurve.polyline(flat3().chart, [(0, 0), (1, 1)])
        with pytest.raises(HarnessError):
            jauch_test(flat3(), [path], 0.0)


class TestEquivalence:
    def test_flat3_all_pass(self):
        report = equivalence_test(flat3(), REGION3, grid=5)
        assert report.agree
        assert report.residual_pass and report.flatness_pass and report.holonomy_pass
        assert "agree" in report.summary()

    def test_contact3_all_fail(self):
        report = equivalence_test(contact3(), REGION3, grid=5)
        assert report.agree
        assert not (report.residual_pass or report.flatness_pass or report.holonomy_pass)

    def test_ideal_gas_all_pass(self):
        report = equivalence_test(ideal_gas(), {"U": (1, 2), "V": (1, 2)}, grid=5)
        assert report.agree and report.flatness_pass

    def test_zero_work_all_pass(self):
        report = equivalence_test(zero_work(), REGION3, grid=3)
        assert report.agree and report.holonomy_pass

    def test_random_flat_agrees(self):
        rng = random.Random(11)
        report = equivalence_test(random_flat_system(rng), SMALL3, grid=4)
        assert report.agree and report.flatness_pass

    def test_random_curved_agrees(self):
        rng = random.Random(12)
        report = equivalence_test(random_curved_system(rng, SMALL3), SMALL3, grid=4)
        assert report.agree and not report.flatness_pass

    @pytest.mark.parametrize("p1, p2, region", [
        ("U*V2", "0", REGION3),
        ("(U - 0.3)*V2", "0", {"U": (-0.4, 1.0), "V1": (-1, 1), "V2": (-1, 1)}),
        ("0", "V1*V2*U", SMALL3),
    ], ids=["U*V2", "(U-0.3)*V2", "V1*V2*U"])
    def test_curvature_zero_at_mid_u_still_breaks_closure(self, p1, p2, region):
        # F = -U, 0.3 - U and V2*U vanish at the middle of the U range, where
        # every loop closes; lifts from both ends of the range do not
        system = WorkSystem.build("mid_u_flat", contact3().chart, {"V1": p1, "V2": p2})
        loops = default_loop_family(system.chart, region, seed=0, square_centers=2,
                                    square_sizes=(0.15, 0.3), random_loops=2)
        report = equivalence_test(system, region, grid=4, loops=loops)
        assert report.agree
        assert not (report.residual_pass or report.flatness_pass or report.holonomy_pass)
        assert report.max_holonomy > 1e-3


    def test_rejects_open_loops(self):
        # out to (0.5, 0.5) and back short of the start: its dU is not a holonomy
        path = BaseCurve.polyline(flat3().chart, [(0.0, 0.0), (0.5, 0.5), (0.1, 0.0)])
        with pytest.raises(HarnessError, match="non-closed"):
            equivalence_test(flat3(), REGION3, grid=2, loops=[path])

class TestRandomSystems:
    def test_flat_systems_are_flat(self):
        from heatgauge.connection import flatness
        rng = random.Random(5)
        for _ in range(5):
            system = random_flat_system(rng)
            assert flatness(system, REGION3, grid=4).flat

    def test_curved_systems_are_curved(self):
        from heatgauge.connection import flatness
        rng = random.Random(6)
        for _ in range(5):
            system = random_curved_system(rng, SMALL3)
            report = flatness(system, SMALL3, grid=4)
            assert report.max_curvature > 1e-4


class TestPhaseDemo:
    def test_constant_torque_accumulates_linearly(self):
        report = phase_demo(wankel("1"), 3)
        expected = [2 * math.pi, 4 * math.pi, 6 * math.pi]
        for got, want in zip(report.cumulative, expected):
            assert got == pytest.approx(want, abs=1e-8)
        assert report.flat
        assert not report.globally_closed

    def test_zero_mean_torque_closes(self):
        report = phase_demo(wankel("cos(theta)"), 2)
        assert all(abs(v) < 1e-8 for v in report.cumulative)
        assert report.globally_closed
        assert "holds" in report.summary()

    def test_additivity_across_revolutions(self):
        report = phase_demo(wankel("1 + 0.5*cos(theta)"), 3)
        per_rev = [report.cumulative[0]]
        per_rev.append(report.cumulative[1] - report.cumulative[0])
        per_rev.append(report.cumulative[2] - report.cumulative[1])
        for v in per_rev:
            assert v == pytest.approx(2 * math.pi, abs=1e-7)

    def test_needs_circular_base(self):
        with pytest.raises(HarnessError):
            phase_demo(ideal_gas(), 1)
        with pytest.raises(HarnessError):
            phase_demo(flat3(), 1)

    def test_needs_positive_revolutions(self):
        with pytest.raises(HarnessError):
            phase_demo(wankel(), 0)
