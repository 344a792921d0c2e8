"""Runnable experiments: the conservation test for closed adiabats, the
four-way equivalence between entropy existence, flatness, and holonomy
closure, and the geometric-phase demonstration on circular bases.

Also houses the loop-family and randomized-system generators used by the
equivalence sweeps.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import expr
from .bundle import WorkSystem
from .connection import flatness
from .entropy import ResidualSummary, reconstruct, residual_report
from .geometry import Chart
from .lift import BaseCurve, lift_curve, square_loop
from .tolerances import HOLONOMY_TOL, PHASE_CLOSURE_TOL

Region = Mapping[str, tuple[float, float]]


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Loop families

def random_polyline_loop(chart: Chart, base_region: Sequence[tuple[float, float]],
                         rng: random.Random) -> BaseCurve:
    """A closed polyline through six random vertices inside base_region."""
    pts = [tuple(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
                 for lo, hi in base_region)
           for _ in range(6)]
    pts.append(pts[0])
    return BaseCurve.polyline(chart, pts)


def out_and_back(chart: Chart, base_region: Sequence[tuple[float, float]],
                 rng: random.Random) -> BaseCurve:
    a = tuple(rng.uniform(lo, hi) for lo, hi in base_region)
    b = tuple(rng.uniform(lo, hi) for lo, hi in base_region)
    return BaseCurve.polyline(chart, [a, b, a])


def default_loop_family(chart: Chart, region: Region, seed: int = 0,
                        square_centers: int = 5,
                        square_sizes: Sequence[float] = (0.1, 0.2, 0.4),
                        random_loops: int = 10) -> list[BaseCurve]:
    """Axis-aligned squares at random centers plus random polyline loops,
    all contained in the base part of the region.

    With a single base coordinate every loop degenerates to an
    out-and-back path, the only closed curves available there.
    """
    rng = random.Random(seed)
    base_region = [region[c] for c in chart.base]
    loops: list[BaseCurve] = []
    if len(chart.base) < 2:
        for _ in range(square_centers + random_loops):
            loops.append(out_and_back(chart, base_region, rng))
        return loops
    max_size = max(square_sizes)
    for _ in range(square_centers):
        center = tuple(rng.uniform(lo + max_size / 2, hi - max_size / 2)
                       for lo, hi in base_region)
        for size in square_sizes:
            loops.append(square_loop(chart, center, size))
    for _ in range(random_loops):
        loops.append(random_polyline_loop(chart, base_region, rng))
    return loops


# ---------------------------------------------------------------------------
# Randomized systems for equivalence sweeps

def random_flat_system(rng: random.Random, name: str = "random_flat") -> WorkSystem:
    """Flat by construction: coefficients of an exact heat form.

    Starts from S = U*f(V) + g(V) with f bounded away from zero and
    normalizes so the heat form has unit vertical pairing, giving
    P_i = -(U df/dV_i + dg/dV_i) / f.
    """
    chart = Chart(("U", "V1", "V2"))
    a1, a2 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    phase = rng.uniform(0, 2 * math.pi)
    amp = rng.uniform(0.1, 0.35)
    linear = expr.parse(f"{a1!r}*V1 + {a2!r}*V2 + {phase!r}")
    f = expr.add(expr.const(rng.uniform(0.8, 1.2)),
                 expr.mul(expr.const(amp), expr.call("sin", linear)))
    c1, c2 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    g = expr.parse(f"{c1!r}*V1*V2 + {c2!r}*cos(V1 - V2)")
    u = expr.var("U")
    coeffs = []
    for coord in chart.base:
        numerator = expr.add(expr.mul(u, expr.differentiate(f, coord)),
                             expr.differentiate(g, coord))
        coeffs.append(expr.neg(expr.div(numerator, f)))
    return WorkSystem(name, chart, tuple(coeffs))


def random_curved_system(rng: random.Random, region: Region | None = None,
                         name: str = "random_curved") -> WorkSystem:
    """A flat system perturbed until its curvature is clearly nonzero."""
    region = dict(region) if region else {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
    for _ in range(50):
        base = random_flat_system(rng, name)
        c = rng.uniform(0.3, 0.8) * rng.choice((-1.0, 1.0))
        k = rng.uniform(0.5, 2.0)
        bump = expr.mul(expr.const(c), expr.call("sin", expr.mul(expr.const(k), expr.var("V2"))))
        coeffs = (expr.add(base.coefficients[0], bump),) + base.coefficients[1:]
        system = WorkSystem(name, base.chart, coeffs)
        if flatness(system, region, grid=5).max_curvature > 1e-4:
            return system
    raise HarnessError("failed to generate a clearly curved system")


# ---------------------------------------------------------------------------
# Conservation test for closed adiabats

@dataclass(frozen=True)
class LoopRecord:
    delta_u: float
    work: float
    error: float
    holds: bool


@dataclass(frozen=True)
class JauchReport:
    """Per-loop conservation results: a closed adiabat should return to its
    starting energy, equivalently perform zero net work."""

    records: tuple[LoopRecord, ...]
    tolerance: float
    holds: bool

    @property
    def max_delta_u(self) -> float:
        return max((abs(r.delta_u) for r in self.records), default=0.0)

    def summary(self) -> str:
        verdict = "holds" if self.holds else "violated"
        return (f"conservation {verdict} on {len(self.records)} loops "
                f"(max |dU| = {self.max_delta_u!r}, tolerance = {self.tolerance!r})")


def jauch_test(system: WorkSystem, loops: Sequence[BaseCurve], u0: float,
               tol: float = HOLONOMY_TOL) -> JauchReport:
    records = []
    for loop in loops:
        if not loop.is_closed():
            raise HarnessError("loop family contains a non-closed base curve")
        result = lift_curve(system, loop, u0)
        records.append(LoopRecord(
            delta_u=result.delta_u,
            work=result.work,
            error=result.error,
            holds=abs(result.delta_u) <= tol,
        ))
    return JauchReport(tuple(records), tol, all(r.holds for r in records))


# ---------------------------------------------------------------------------
# Equivalence of entropy existence, flatness, and holonomy closure

@dataclass(frozen=True)
class EquivalenceReport:
    residual_pass: bool
    flatness_pass: bool
    holonomy_pass: bool
    residual_summary: ResidualSummary
    max_holonomy: float = 0.0
    holonomy_tol: float = HOLONOMY_TOL

    @property
    def agree(self) -> bool:
        return self.residual_pass == self.flatness_pass == self.holonomy_pass

    def summary(self) -> str:
        def pf(x):
            return "pass" if x else "fail"
        return (f"entropy residual: {pf(self.residual_pass)}, "
                f"flatness: {pf(self.flatness_pass)}, "
                f"holonomy closure: {pf(self.holonomy_pass)}, "
                f"{'agree' if self.agree else 'DISAGREE'}")


def equivalence_test(system: WorkSystem, region: Region, grid: int = 7,
                     loops: Sequence[BaseCurve] | None = None) -> EquivalenceReport:
    """Run the three verdicts on one region and assert nothing: callers
    check the agree flag.

    Flatness samples a grid of grid nodes per axis; the entropy chart is
    reconstructed on at most 5 per axis from the middle of the base box;
    holonomy closure holds if jauch_test holds on the loops (by default
    default_loop_family with seed 0) lifted from both ends of the U range,
    and max_holonomy is the larger of the two max |dU|. For a system
    affine in U a loop maps u to a*u + b, so dU = (a - 1)*u + b is affine
    in u and the two ends bound it at every level between. Each verdict
    uses the library's default tolerance. A loop that is not closed
    raises HarnessError.
    """
    chart = system.chart
    if loops is None:
        loops = default_loop_family(chart, region)
    ref_base = {c: 0.5 * (region[c][0] + region[c][1]) for c in chart.base}
    flat_report = flatness(system, region, grid=grid)
    entropy_chart = reconstruct(system, ref_base, region, grid=min(grid, 5))
    residual = residual_report(entropy_chart)
    u_lo, u_hi = region[chart.vertical]
    closures = [jauch_test(system, loops, u0) for u0 in (u_lo, u_hi)]
    return EquivalenceReport(
        residual_pass=residual.passed,
        flatness_pass=flat_report.flat,
        holonomy_pass=all(c.holds for c in closures),
        residual_summary=residual,
        max_holonomy=max(c.max_delta_u for c in closures),
        holonomy_tol=closures[0].tolerance,
    )


# ---------------------------------------------------------------------------
# Geometric phase on a circular base

@dataclass(frozen=True)
class PhaseReport:
    cumulative: tuple[float, ...]
    flat: bool
    globally_closed: bool
    tolerance: float

    def summary(self) -> str:
        values = ", ".join(repr(v) for v in self.cumulative)
        return (f"cumulative dU per revolution: [{values}]; "
                f"locally {'flat' if self.flat else 'curved'}, "
                f"global closure {'holds' if self.globally_closed else 'fails'}")


def phase_demo(system: WorkSystem, revolutions: int, u0: float = 0.0,
               tol: float = PHASE_CLOSURE_TOL) -> PhaseReport:
    """Lift full revolutions of a circular base and track the energy gained.

    Requires exactly one base coordinate, marked periodic. Reports local
    flatness (automatic with a one-dimensional base) next to whether one
    revolution closes, separating local from global equilibrium.
    """
    chart = system.chart
    if len(chart.base) != 1:
        raise HarnessError("phase demo needs exactly one base coordinate")
    coord = chart.base[0]
    period = chart.period_of(coord)
    if period is None:
        raise HarnessError(f"base coordinate {coord!r} is not periodic")
    if revolutions < 1:
        raise HarnessError("need at least one revolution")
    circle = BaseCurve.parametric(chart, {coord: "t"}, 0.0, period)
    u = float(u0)
    cumulative = []
    for _ in range(revolutions):
        result = lift_curve(system, circle, u)
        u = float(result.energies[-1])
        cumulative.append(u - float(u0))
    span = max(1.0, max(abs(v) for v in cumulative))
    region = {chart.vertical: (u0 - span, u0 + span), coord: (0.0, period)}
    flat_report = flatness(system, region, grid=7)
    return PhaseReport(
        cumulative=tuple(cumulative),
        flat=flat_report.flat,
        globally_closed=abs(cumulative[0]) <= tol,
        tolerance=tol,
    )
