"""The adiabatic connection ker(xi): horizontal lifts of coordinate
directions, the curvature matrix in closed component form, the Frobenius
defect xi ^ d(xi), and grid-sampled flatness verdicts.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from . import expr
from .expr import Expression, compile_expression
from .geometry import (DifferentialForm, VectorField, exterior_derivative,
                       wedge)
from .bundle import WorkSystem
from .tolerances import FLATNESS_TOL


class ConnectionError_(Exception):
    pass


Region = Mapping[str, tuple[float, float]]


def horizontal_lift_vector(system: WorkSystem, i: int) -> VectorField:
    """X_i = d/dV_i + P_i d/dU for base index i (1-based); xi(X_i) = 0."""
    base = system.chart.base
    if not 1 <= i <= len(base):
        raise ConnectionError_(f"base index {i} out of range 1..{len(base)}")
    coord = base[i - 1]
    return VectorField.build(system.chart, {
        coord: 1.0,
        system.chart.vertical: system.coefficients[i - 1],
    })


def vertical_component(system: WorkSystem, z: VectorField) -> Expression:
    """Coefficient of d/dU in the vertical projection of z.

    The projection subtracts the horizontal part sum_i z^i X_i, leaving
    (z^U - sum_i z^i P_i) d/dU.
    """
    chart = system.chart
    acc = z.component(chart.vertical)
    for coord, p_i in zip(chart.base, system.coefficients):
        acc = expr.sub(acc, expr.mul(z.component(coord), p_i))
    return acc


@dataclass(frozen=True)
class CurvatureMatrix:
    """Antisymmetric matrix of curvature components; entries stored for i < j."""

    system: WorkSystem
    entries: tuple[tuple[tuple[int, int], Expression], ...]

    @property
    def size(self) -> int:
        return len(self.system.chart.base)

    def entry(self, i: int, j: int) -> Expression:
        if i == j:
            return expr.const(0.0)
        flip = i > j
        key = (j, i) if flip else (i, j)
        for k, e in self.entries:
            if k == key:
                return expr.neg(e) if flip else e
        raise ConnectionError_(f"indices ({i}, {j}) out of range 1..{self.size}")

    def pairs(self) -> Iterator[tuple[tuple[int, int], Expression]]:
        return iter(self.entries)

    def is_empty(self) -> bool:
        return not self.entries


def curvature_matrix(system: WorkSystem) -> CurvatureMatrix:
    """Closed-form curvature components of the adiabatic connection.

    F_ij = dP_j/dV_i - dP_i/dV_j + P_i dP_j/dU - P_j dP_i/dU, the vertical
    part of [X_i, X_j] for the horizontal coordinate lifts.
    """
    chart = system.chart
    u = chart.vertical
    entries = []
    for i, j in itertools.combinations(range(1, len(chart.base) + 1), 2):
        vi, vj = chart.base[i - 1], chart.base[j - 1]
        p_i, p_j = system.coefficients[i - 1], system.coefficients[j - 1]
        f = expr.sub(expr.differentiate(p_j, vi), expr.differentiate(p_i, vj))
        f = expr.add(f, expr.mul(p_i, expr.differentiate(p_j, u)))
        f = expr.sub(f, expr.mul(p_j, expr.differentiate(p_i, u)))
        entries.append(((i, j), f))
    return CurvatureMatrix(system, tuple(entries))


def frobenius_defect(system: WorkSystem) -> DifferentialForm:
    """The 3-form xi ^ d(xi); identically zero exactly on integrable systems."""
    xi = system.heat_form
    return wedge(xi, exterior_derivative(xi))


@dataclass(frozen=True)
class FlatnessReport:
    system_name: str
    region: dict[str, tuple[float, float]]
    grid: int
    tolerance: float
    max_curvature: float
    max_defect: float
    flat: bool
    curvature_symbolic: dict[tuple[int, int], Expression]
    defect_symbolic: dict[tuple[str, ...], Expression]
    samples: list[tuple] = field(repr=False, default_factory=list)
    sample_columns: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [f"system: {self.system_name}",
                 f"verdict: {'flat' if self.flat else 'curved'}",
                 f"max |F| = {self.max_curvature!r}",
                 f"max |defect| = {self.max_defect!r}",
                 f"tolerance = {self.tolerance!r}"]
        for (i, j), e in sorted(self.curvature_symbolic.items()):
            lines.append(f"F[{i},{j}] = {expr.unparse(e)}")
        for idx, e in sorted(self.defect_symbolic.items()):
            lines.append(f"defect[{','.join(idx)}] = {expr.unparse(e)}")
        return "\n".join(lines)


def grid_points(region: Region, coords: tuple[str, ...], grid: int) -> Iterator[tuple[float, ...]]:
    """Uniform grid nodes over an axis-aligned region, in row-major order."""
    axes = []
    for c in coords:
        lo, hi = region[c]
        if grid == 1:
            axes.append([0.5 * (lo + hi)])
        else:
            step = (hi - lo) / (grid - 1)
            axes.append([lo + k * step for k in range(grid)])
    return itertools.product(*axes)


def flatness(system: WorkSystem, region: Region, grid: int = 11,
             tol: float = FLATNESS_TOL, collect_samples: bool = True) -> FlatnessReport:
    """Sample |F_ij| and the defect components over a grid and give a verdict.

    The verdict is flat iff the grid maximum of |F_ij| is below tol; the
    defect maximum is reported alongside as the integrability cross-check.
    """
    chart = system.chart
    missing = set(chart.coords) - set(region)
    if missing:
        raise ConnectionError_(f"region missing coordinates {sorted(missing)}")
    matrix = curvature_matrix(system)
    defect = frobenius_defect(system)
    f_compiled = [(key, compile_expression(e, chart.coords)) for key, e in matrix.pairs()]
    d_compiled = [(idx, compile_expression(e, chart.coords)) for idx, e in defect.components]
    max_f = 0.0
    max_d = 0.0
    samples = []
    columns = chart.coords + tuple(f"F_{i}{j}" for (i, j), _ in f_compiled) \
        + tuple("defect_" + "_".join(idx) for idx, _ in d_compiled)
    for node in grid_points(region, chart.coords, grid):
        try:
            f_vals = [fn(*node) for _, fn in f_compiled]
            d_vals = [fn(*node) for _, fn in d_compiled]
        except expr.EvalError as exc:
            point = dict(zip(chart.coords, node))
            raise ConnectionError_(f"evaluation failed at grid point {point}: {exc}") from exc
        for v in f_vals:
            max_f = max(max_f, abs(v))
        for v in d_vals:
            max_d = max(max_d, abs(v))
        if collect_samples:
            samples.append(node + tuple(f_vals) + tuple(d_vals))
    return FlatnessReport(
        system_name=system.name,
        region={c: tuple(region[c]) for c in chart.coords},
        grid=grid,
        tolerance=tol,
        max_curvature=max_f,
        max_defect=max_d,
        flat=max_f < tol,
        curvature_symbolic={key: e for key, e in matrix.pairs()},
        defect_symbolic=dict(defect.components),
        samples=samples,
        sample_columns=columns,
    )
