"""The adiabatic connection ker(xi): horizontal lifts of coordinate
directions, the curvature matrix in closed component form, and
grid-sampled flatness verdicts, which read the curvature alone. The
Frobenius defect xi ^ d(xi) is a test oracle: a fixed function of F and
P that shares only differentiate with curvature_matrix.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import expr
from .expr import Expression
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
    part of [X_i, X_j] for the horizontal coordinate lifts. Each P_i is
    differentiated once by U and once by every other base coordinate.
    """
    chart = system.chart
    u = chart.vertical
    d = {(i, c): expr.differentiate(p_i, c)
         for i, (v_i, p_i) in enumerate(zip(chart.base, system.coefficients), 1)
         for c in chart.coords if c != v_i}
    entries = []
    for i, j in itertools.combinations(range(1, len(chart.base) + 1), 2):
        vi, vj = chart.base[i - 1], chart.base[j - 1]
        p_i, p_j = system.coefficients[i - 1], system.coefficients[j - 1]
        f = expr.sub(d[j, vi], d[i, vj])
        f = expr.add(f, expr.mul(p_i, d[j, u]))
        f = expr.sub(f, expr.mul(p_j, d[i, u]))
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
    flat: bool
    curvature_symbolic: dict[tuple[int, int], Expression]
    # 2-D float array, one row per grid node in row-major order, columns as in
    # sample_columns; each row has the bits of a per-node compile_tuple call
    samples: np.ndarray = field(repr=False, compare=False, default=None)
    sample_columns: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [f"system: {self.system_name}",
                 f"verdict: {'flat' if self.flat else 'curved'}",
                 f"max |F| = {self.max_curvature!r}",
                 f"tolerance = {self.tolerance!r}"]
        for (i, j), e in sorted(self.curvature_symbolic.items()):
            lines.append(f"F[{i},{j}] = {expr.unparse(e)}")
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
             tol: float = FLATNESS_TOL) -> FlatnessReport:
    """Sample the curvature components F_ij over a grid and give a verdict.

    The verdict is flat iff the grid maximum of |F_ij| is below tol. The
    components are compiled into one function (expr.compile_tuple), called
    once with the grid's coordinate columns as arrays: its arithmetic runs
    vectorised and its checked functions run the scalar code on each
    element, so every sample has the bits of a call at its node. A
    component that fails to evaluate, or is nan or infinite, at a grid
    point raises ConnectionError_ naming the first such point in
    row-major order.
    """
    chart = system.chart
    missing = set(chart.coords) - set(region)
    if missing:
        raise ConnectionError_(f"region missing coordinates {sorted(missing)}")
    matrix = curvature_matrix(system)
    values_at = expr.compile_tuple([e for _, e in matrix.pairs()], chart.coords)
    columns = chart.coords + tuple(f"F_{i}{j}" for (i, j), _ in matrix.pairs())
    k = len(chart.coords)
    samples = np.empty((grid ** k, len(columns)))
    samples[:, :k] = np.fromiter(itertools.chain.from_iterable(
        grid_points(region, chart.coords, grid)), float).reshape(-1, k)
    try:
        with np.errstate(all="ignore"):
            for j, value in enumerate(values_at(*samples[:, :k].T), k):
                samples[:, j] = value
        max_f = float(np.abs(samples[:, k:]).max(initial=0.0))  # nan if any F is nan
    except expr.EvalError:
        max_f = float("nan")
    if not math.isfinite(max_f):
        for node in samples[:, :k].tolist():  # name the first failing node
            point = dict(zip(chart.coords, node))
            try:
                values = values_at(*node)
            except expr.EvalError as exc:
                raise ConnectionError_(f"evaluation failed at grid point {point}: {exc}") from exc
            for name, v in zip(columns[k:], values):
                if not math.isfinite(v):
                    raise ConnectionError_(f"evaluation failed at grid point {point}: {name} is "
                                           f"{'nan' if v != v else 'infinite'}")
    return FlatnessReport(
        system_name=system.name,
        region={c: tuple(region[c]) for c in chart.coords},
        grid=grid,
        tolerance=tol,
        max_curvature=max_f,
        flat=max_f < tol,
        curvature_symbolic=dict(matrix.pairs()),
        samples=samples,
        sample_columns=columns,
    )
