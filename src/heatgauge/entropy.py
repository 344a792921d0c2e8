"""Local entropy and temperature reconstruction by adiabatic transport.

The entropy value at a point is the fibre height reached by lifting the
straight base path from the point's configuration to a reference
configuration: the crossing height of the point's adiabatic leaf over the
reference fibre. Temperature is the reciprocal vertical derivative of
that height, obtained by central finite differences across the fibre.
When the system is curved the construction is path dependent, and that
path dependence is measured and reported as the failure signal.

Every transport here is a straight-segment (or staircase) lift whose end
height alone is needed, so it runs through lift.lift_endpoint: one
generated RK4 kernel per system and zero-velocity mask
(expr.segment_kernel), with no curve object, samples or LiftResult per
lift. The kernel repeats the IEEE operations of lift_curve in the same
order, so the values are those lift_curve gives, bit for bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import expr
from .expr import compile_expression
from .bundle import WorkSystem
from .connection import grid_points
from .lift import LiftError, lift_endpoint
from .tolerances import RESIDUAL_TOL

Region = Mapping[str, tuple[float, float]]

DEFAULT_FD_STEP = 1e-5
DEFAULT_LIFT_TOL = 1e-12
PATH_DEPENDENCE_FACTOR = 10.0


class EntropyError(Exception):
    pass


@dataclass
class EntropyChart:
    """Grid of reconstructed entropy, temperature, and residual values."""

    system: WorkSystem
    ref_base: dict[str, float]
    region: dict[str, tuple[float, float]]
    grid: int
    fd_step: float
    residual_tol: float
    nodes: np.ndarray  # (n, dim) in chart coordinate order
    entropy: np.ndarray
    temperature: np.ndarray
    # gradient of the reconstructed entropy, columns in chart coordinate order
    entropy_gradient: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    path_dependence: float = 0.0
    path_dependent: bool = False

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def mean_residual(self) -> float:
        return float(np.mean(self.residuals))

    def csv_rows(self):
        chart = self.system.chart
        base_idx = [chart.index(c) for c in chart.base]
        u_idx = chart.index(chart.vertical)
        for k in range(len(self.nodes)):
            yield (*(self.nodes[k][i] for i in base_idx), self.nodes[k][u_idx],
                   self.entropy[k], self.temperature[k], self.residuals[k])

    @property
    def csv_columns(self) -> tuple[str, ...]:
        chart = self.system.chart
        return (*chart.base, chart.vertical, "S", "T", "residual")


@dataclass(frozen=True)
class ResidualSummary:
    max_residual: float
    mean_residual: float
    tolerance: float
    path_dependence: float
    path_dependent: bool
    passed: bool

    def summary(self) -> str:
        return (f"residual max = {self.max_residual!r}, mean = {self.mean_residual!r}, "
                f"tolerance = {self.tolerance!r}, "
                f"path dependence = {self.path_dependence!r}"
                f"{' (PATH DEPENDENT)' if self.path_dependent else ''}, "
                f"verdict = {'pass' if self.passed else 'fail'}")


def _transport(system: WorkSystem, u: float, base: Sequence[float],
               ref: Sequence[float], lift_tol: float,
               fixed_steps: int | None = None) -> tuple[float, int]:
    """Lift the straight base segment base -> ref from height u.

    Returns the arrival height, as np.float64, and the step count used.
    """
    u_end, steps = lift_endpoint(system, [base, ref], u, step_tol=lift_tol,
                                 fixed_steps=fixed_steps)
    return np.float64(u_end), steps[0]


def _staircase(base: Sequence[float], ref: Sequence[float], order: Sequence[int]):
    """Axis-aligned path from base to ref changing one coordinate at a time."""
    current = list(base)
    pts = [tuple(current)]
    for i in order:
        if current[i] != ref[i]:
            current[i] = ref[i]
            pts.append(tuple(current))
    if len(pts) == 1:
        pts.append(tuple(current))
    return pts


def reconstruct(system: WorkSystem, ref_base: Mapping[str, float],
                region: Region, grid: int = 9,
                fd_step: float = DEFAULT_FD_STEP,
                lift_tol: float = DEFAULT_LIFT_TOL,
                residual_tol: float = RESIDUAL_TOL) -> EntropyChart:
    """Reconstruct S, T, and the residual |xi - T dS| on a coordinate grid.

    S at a node is the end height of the straight lift from the node to
    the reference point, computed by the generated endpoint kernel (see
    the module docstring). The auxiliary lifts behind each finite
    difference reuse the step count of the node's central lift so that
    integration error largely cancels in the differences.
    """
    chart = system.chart
    missing = set(chart.coords) - set(region)
    if missing:
        raise EntropyError(f"region missing coordinates {sorted(missing)}")
    extra = set(ref_base) - set(chart.base)
    if extra:
        raise EntropyError(f"reference point has unknown coordinates {sorted(extra)}")
    if set(chart.base) - set(ref_base):
        raise EntropyError("reference point must bind every base coordinate")
    ref = [float(ref_base[c]) for c in chart.base]
    p_fns = [compile_expression(p, chart.coords) for p in system.coefficients]

    nodes = []
    s_vals = []
    t_vals = []
    grads = []
    residuals = []
    h = fd_step
    u_pos = chart.index(chart.vertical)
    base_pos = [chart.index(c) for c in chart.base]
    try:
        for node in grid_points(region, chart.coords, grid):
            u = node[u_pos]
            base = [node[i] for i in base_pos]
            s, steps = _transport(system, u, base, ref, lift_tol)
            s_up, _ = _transport(system, u + h, base, ref, lift_tol, fixed_steps=steps)
            s_dn, _ = _transport(system, u - h, base, ref, lift_tol, fixed_steps=steps)
            ds_du = (s_up - s_dn) / (2.0 * h)
            if abs(ds_du) < 1e-12:
                raise EntropyError(
                    f"degenerate vertical derivative of S at {dict(zip(chart.coords, node))}")
            temperature = 1.0 / ds_du
            grad = [0.0] * chart.dim
            grad[u_pos] = ds_du
            residual = abs(1.0 - temperature * ds_du)
            for k, i in enumerate(base_pos):
                shifted_up = list(base)
                shifted_up[k] += h
                shifted_dn = list(base)
                shifted_dn[k] -= h
                s_vp, _ = _transport(system, u, shifted_up, ref, lift_tol, fixed_steps=steps)
                s_vm, _ = _transport(system, u, shifted_dn, ref, lift_tol, fixed_steps=steps)
                ds_dv = (s_vp - s_vm) / (2.0 * h)
                grad[i] = ds_dv
                # heat form component along this base coordinate is -P_i
                xi_component = -p_fns[k](*node)
                residual = max(residual, abs(xi_component - temperature * ds_dv))
            nodes.append(node)
            s_vals.append(s)
            t_vals.append(temperature)
            grads.append(grad)
            residuals.append(residual)
    except LiftError as exc:
        raise EntropyError(f"lift failure during reconstruction: {exc}") from exc

    path_dep = _path_dependence(system, region, ref, lift_tol)
    chart_result = EntropyChart(
        system=system,
        ref_base={c: v for c, v in zip(chart.base, ref)},
        region={c: tuple(region[c]) for c in chart.coords},
        grid=grid,
        fd_step=fd_step,
        residual_tol=residual_tol,
        nodes=np.asarray(nodes),
        entropy=np.asarray(s_vals),
        temperature=np.asarray(t_vals),
        entropy_gradient=np.asarray(grads),
        residuals=np.asarray(residuals),
        path_dependence=path_dep,
        path_dependent=path_dep > PATH_DEPENDENCE_FACTOR * residual_tol,
    )
    return chart_result


def _path_dependence(system: WorkSystem, region: Region, ref: Sequence[float],
                     lift_tol: float) -> float:
    """Largest disagreement between two staircase transports to the reference.

    Probes the corners of the base box at mid fibre height; with a single
    base coordinate there is only one axis-aligned route, so the measure
    is zero.
    """
    chart = system.chart
    m = len(chart.base)
    if m < 2:
        return 0.0
    lo_hi = [region[c] for c in chart.base]
    u_lo, u_hi = region[chart.vertical]
    u_mid = 0.5 * (u_lo + u_hi)
    worst = 0.0
    corners = itertools.islice(itertools.product(*lo_hi), 8)
    forward = list(range(m))
    backward = list(reversed(forward))
    for corner in corners:
        ua, _ = lift_endpoint(system, _staircase(corner, ref, forward), u_mid,
                              step_tol=lift_tol)
        ub, _ = lift_endpoint(system, _staircase(corner, ref, backward), u_mid,
                              step_tol=lift_tol)
        # np.float64 keeps the type and repr of the reported path dependence
        worst = max(worst, abs(np.float64(ua) - np.float64(ub)))
    return worst


def residual_report(chart: EntropyChart) -> ResidualSummary:
    """Pass iff the worst residual is within tolerance and transport is
    path independent."""
    passed = chart.max_residual < chart.residual_tol and not chart.path_dependent
    return ResidualSummary(
        max_residual=chart.max_residual,
        mean_residual=chart.mean_residual,
        tolerance=chart.residual_tol,
        path_dependence=chart.path_dependence,
        path_dependent=chart.path_dependent,
        passed=passed,
    )
