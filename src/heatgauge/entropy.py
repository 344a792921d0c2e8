"""Local entropy and temperature reconstruction by adiabatic transport.

The entropy value at a point is the fibre height reached by lifting the
straight base path from the point's configuration to a reference
configuration: the crossing height of the point's adiabatic leaf over the
reference fibre. Temperature is the reciprocal vertical derivative of
that height. When the system is curved the construction is path
dependent, and that path dependence is measured and reported as the
failure signal.

Every system whose coefficients are affine in U, P_i = U*A_i + B_i with
A_i = dP_i/dU free of U (affine_slopes decides this exactly), transports
the fibre along a straight segment with direction d by an affine map
u -> a*u + b, the gauge group's own action (bundle.apply_gauge): with
alpha = sum_i A_i d_i and beta = sum_i B_i d_i along the segment,
a = exp(int alpha) and b = int beta(t) exp(int_t^1 alpha) dt (variation of
constants). A path's map composes its segments' maps. transport_maps
computes one map per base path: it evaluates every P_i and A_i at every
quadrature node of every path in one array call (expr.compile_array) and
integrates on Chebyshev-Lobatto panels, doubling the panels until the
heights at the ends of the U range settle. reconstruct then reads, per
grid node, S = a*u + b at each U level of the node's base point and
T = 1/a exactly; dS/dV_k comes from the maps of the base point shifted by
+-FD_STEP, and path dependence from the maps of two staircase paths per
box corner, over the whole U range.

Any other system is lifted node by node with lift.lift_endpoint (the
generated RK4 kernel, bit for bit lift_curve): three lifts at u and
u +- FD_STEP for T and two per base coordinate for dS/dV_k, and path
dependence from staircase lifts at mid height.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import (EvalError, Expression, compile_array, compile_expression, differentiate,
                   variables)
from .bundle import WorkSystem
from .connection import grid_points
from .lift import LiftError, lift_endpoint
from .tolerances import RESIDUAL_TOL

Region = Mapping[str, tuple[float, float]]

FD_STEP = 1e-5  # half-width of every central difference
LIFT_TOL = 1e-12  # step_tol of every lift; relative settling tolerance of every map
PATH_DEPENDENCE_FACTOR = 10.0
PANEL_ORDER = 11  # each quadrature panel has PANEL_ORDER + 1 Chebyshev-Lobatto nodes
MAX_DOUBLINGS = 8  # transport_maps doubles the panels from 1 to at most 2**MAX_DOUBLINGS


class EntropyError(Exception):
    pass


class PathLiftError(LiftError):
    """A LiftError on one path of transport_maps; path is its index."""

    def __init__(self, message: str, path: int):
        super().__init__(message)
        self.path = path


@dataclass
class EntropyChart:
    """Grid of reconstructed entropy, temperature, and residual values."""

    system: WorkSystem
    ref_base: dict[str, float]
    region: dict[str, tuple[float, float]]
    grid: int
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

    def csv_rows(self) -> np.ndarray:
        """One 2-D float array, a row per node: V_1..V_m, U, S, T, residual."""
        chart = self.system.chart
        order = [chart.index(c) for c in (*chart.base, chart.vertical)]
        return np.column_stack((self.nodes[:, order], self.entropy, self.temperature,
                                self.residuals))

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


def _staircases(region: Region, chart, ref: Sequence[float]):
    """Forward and backward staircase from each of at most 8 corners of the
    base box, in that order; none with a single base coordinate, where
    there is only one axis-aligned route."""
    m = len(chart.base)
    if m < 2:
        return []
    forward = list(range(m))
    backward = list(reversed(forward))
    corners = itertools.islice(itertools.product(*(region[c] for c in chart.base)), 8)
    return [_staircase(corner, ref, order) for corner in corners
            for order in (forward, backward)]


def reconstruct(system: WorkSystem, ref_base: Mapping[str, float],
                region: Region, grid: int = 9,
                residual_tol: float = RESIDUAL_TOL) -> EntropyChart:
    """Reconstruct S, T, and the residual |xi - T dS| on a coordinate grid.

    S at a node is the end height of the straight transport from the node
    to the reference point, and T = 1/(dS/dU); for a system affine in U
    both come from one map per base point (T = 1/a exactly), otherwise
    from lift_endpoint lifts with step_tol LIFT_TOL and central
    differences of half-width FD_STEP (see the module docstring). dS/dV_k
    is a central difference of half-width FD_STEP either way, and the
    residual is the worst base component |-P_i - T dS/dV_i|: the U
    component of xi - T dS vanishes by the definition of T. A failing
    transport raises EntropyError naming the grid node. The chart passes
    (residual_report) when the worst residual is below residual_tol and
    transport is path independent.
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
    nodes = list(grid_points(region, chart.coords, grid))
    slopes = affine_slopes(system)
    if slopes is None:
        derivatives = _lifted_derivatives(system, nodes, ref)
    else:
        derivatives, path_dep = _mapped_derivatives(system, slopes, nodes, ref, region)

    s_vals = []
    t_vals = []
    grads = []
    residuals = []
    u_pos = chart.index(chart.vertical)
    base_pos = [chart.index(c) for c in chart.base]
    for node, (s, ds_du, ds_dv) in zip(nodes, derivatives):
        if abs(ds_du) < 1e-12:
            raise EntropyError(
                f"degenerate vertical derivative of S at {dict(zip(chart.coords, node))}")
        temperature = 1.0 / ds_du
        grad = [0.0] * chart.dim
        grad[u_pos] = ds_du
        residual = 0.0
        for k, i in enumerate(base_pos):
            grad[i] = ds_dv[k]
            # heat form component along this base coordinate is -P_i
            xi_component = -p_fns[k](*node)
            residual = max(residual, abs(xi_component - temperature * ds_dv[k]))
        s_vals.append(s)
        t_vals.append(temperature)
        grads.append(grad)
        residuals.append(residual)

    if slopes is None:
        path_dep = _lifted_path_dependence(system, region, ref)
    return EntropyChart(
        system=system,
        ref_base={c: v for c, v in zip(chart.base, ref)},
        region={c: tuple(region[c]) for c in chart.coords},
        grid=grid,
        residual_tol=residual_tol,
        nodes=np.asarray(nodes),
        entropy=np.asarray(s_vals),
        temperature=np.asarray(t_vals),
        entropy_gradient=np.asarray(grads),
        residuals=np.asarray(residuals),
        path_dependence=path_dep,
        path_dependent=path_dep > PATH_DEPENDENCE_FACTOR * residual_tol,
    )


def _lift_failure(chart, node: Sequence[float], exc: LiftError) -> EntropyError:
    return EntropyError(
        f"lift failure during reconstruction at {dict(zip(chart.coords, node))}: {exc}")


# ---------------------------------------------------------------------------
# Systems affine in U: one map per base path

def affine_slopes(system: WorkSystem) -> tuple[Expression, ...] | None:
    """A_i = dP_i/dU for every coefficient when none depends on U (the
    system is affine in U), else None."""
    vertical = system.chart.vertical
    slopes = tuple(differentiate(p, vertical) for p in system.coefficients)
    if any(vertical in variables(a) for a in slopes):
        return None
    return slopes


def _mapped_derivatives(system: WorkSystem, slopes: tuple[Expression, ...],
                        nodes: Sequence[tuple[float, ...]], ref: Sequence[float],
                        region: Region):
    """(S, dS/dU, [dS/dV_k]) per node, and the path dependence, from one
    transport_maps call over every base point's path, its +-FD_STEP
    shifts along each base axis, and the staircases."""
    chart = system.chart
    m = len(chart.base)
    h = FD_STEP
    u_pos = chart.index(chart.vertical)
    base_pos = [chart.index(c) for c in chart.base]
    first_node: dict[tuple[float, ...], tuple[float, ...]] = {}
    for node in nodes:
        first_node.setdefault(tuple(node[i] for i in base_pos), node)
    paths = []
    for base in first_node:
        paths.append([base, ref])
        for k in range(m):
            for step in (h, -h):
                shifted = list(base)
                shifted[k] += step
                paths.append([shifted, ref])
    per_base = 1 + 2 * m
    node_paths = len(paths)
    paths += _staircases(region, chart, ref)
    u_range = region[chart.vertical]
    try:
        a, b = transport_maps(system, slopes, paths, u_range)
    except PathLiftError as exc:
        if exc.path < node_paths:
            node = list(first_node.values())[exc.path // per_base]
            raise _lift_failure(chart, node, exc) from exc
        raise

    # index[n, 0] is node n's own path, index[n, 1 + 2k] and index[n, 2 + 2k]
    # its shifts by +h and -h along base axis k
    base_index = {base: j for j, base in enumerate(first_node)}
    index = np.array([base_index[tuple(node[i] for i in base_pos)] for node in nodes])
    index = index[:, None] * per_base + np.arange(per_base)
    u = np.array([node[u_pos] for node in nodes])[:, None]
    heights = a[index] * u + b[index]
    ds_dv = (heights[:, 1::2] - heights[:, 2::2]) / (2.0 * h)
    derivatives = zip(heights[:, 0].tolist(), a[index[:, 0]].tolist(), ds_dv.tolist())

    # the staircases' maps differ by (da)*u + db, largest at an end of the U range
    path_dep = 0.0
    if m >= 2:
        da = a[node_paths::2] - a[node_paths + 1::2]
        db = b[node_paths::2] - b[node_paths + 1::2]
        path_dep = float(max(np.max(np.abs(da * u_end + db)) for u_end in u_range))
    return derivatives, path_dep


@functools.lru_cache(maxsize=None)
def _panel() -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes of [0, 1] in increasing order, and the
    matrix taking values at them to the integral of their interpolant
    from 0 to each node.

    On [-1, 1] the nodes are x_j = cos(phi_j), and values map to Chebyshev
    coefficients by the discrete cosine sum with halved end terms; the
    integral of T_k from -1 is x + 1 for k = 0, (x^2 - 1)/2 for k = 1, and
    (T_{k+1} - (-1)^{k+1})/(2(k+1)) - (T_{k-1} - (-1)^{k-1})/(2(k-1)) above.
    Built from closed forms with einsum, so no linear-algebra or BLAS call
    is made.
    """
    n = PANEL_ORDER
    phi = np.pi * np.arange(n, -1, -1) / n
    x = np.cos(phi)
    k = np.arange(n + 2)
    chebyshev = np.cos(np.outer(phi, k))  # T_k(x_j), k up to n + 1
    halved = np.ones(n + 1)
    halved[[0, n]] = 0.5
    to_coefficients = (2.0 / n) * halved[:, None] * chebyshev[:, :n + 1].T * halved
    sign = (-1.0) ** k
    integral = np.empty((n + 1, n + 1))
    integral[:, 0] = x + 1.0
    integral[:, 1] = 0.5 * (x * x - 1.0)
    for j in range(2, n + 1):
        integral[:, j] = ((chebyshev[:, j + 1] - sign[j + 1]) / (2.0 * (j + 1))
                          - (chebyshev[:, j - 1] - sign[j - 1]) / (2.0 * (j - 1)))
    cumulative = 0.5 * np.einsum("jk,ki->ji", integral, to_coefficients)
    cumulative[0] = 0.0
    return 0.5 * (x + 1.0), cumulative


@np.errstate(all="ignore")  # overflow and nan are read from the maps, not warned
def transport_maps(system: WorkSystem, slopes: tuple[Expression, ...],
                   paths: Sequence[Sequence[Sequence[float]]],
                   u_range: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """The map u -> a*u + b of transport over each base polyline, as
    arrays a and b with one entry per path, for a system affine in U with
    slopes = affine_slopes(system).

    B_i = P_i - U*A_i is evaluated at the middle of u_range. Every P_i and
    A_i is evaluated at every node of every segment in one array call per
    panel count; a coefficient whose velocity component is 0.0 on a
    segment is skipped there, as the lift skips it. Panels double from 1
    until every partial map's heights at both ends of u_range move by at
    most LIFT_TOL * max(1, |height|). Raises PathLiftError, with the text
    of the lift's LiftError, for the first failing path: a domain error,
    a map whose heights at the ends of u_range are not finite, or no
    settling after MAX_DOUBLINGS doublings. Such a map is nan when a is
    nan, or a is finite and b nan, and infinite otherwise (it overflowed).
    """
    chart = system.chart
    starts, directions, owners, segments = [], [], [], []
    for index, path in enumerate(paths):
        rows = [tuple(float(x) for x in p) for p in path]
        for k in range(len(rows) - 1):
            starts.append(rows[k])
            directions.append([q - p for p, q in zip(rows[k], rows[k + 1])])
            owners.append(index)
            segments.append(k)
    start = np.array(starts)
    direction = np.array(directions)
    segment = np.array(segments)
    last = np.flatnonzero(np.append(np.diff(owners), 1))  # each path's final segment
    u_level = 0.5 * (u_range[0] + u_range[1])
    heights = np.array(u_range, dtype=float)

    previous = None
    for doubling in range(MAX_DOUBLINGS + 1):
        panels = 2 ** doubling
        values, errors = _coefficient_values(system, slopes, start, direction, panels, u_level)
        a, b = _compose(*_segment_maps(values, direction, panels, u_level), segment)
        levels = a[:, None] * heights + b[:, None]
        bad = ~np.isfinite(levels).all(axis=1)
        bad[list(errors)] = True
        if bad.any():
            row = int(np.argmax(bad))
            if row in errors:
                raise PathLiftError(f"domain error during lift on segment {segments[row]}: "
                                    f"{errors[row]}", owners[row]) from errors[row]
            # b is nan next to an infinite a when the overflow met a zero (0*inf)
            nan = np.isnan(a[row]) or (np.isfinite(a[row]) and np.isnan(b[row]))
            raise PathLiftError(f"lift height is {'nan' if nan else 'infinite'} on segment "
                                f"{segments[row]}", owners[row])
        if previous is not None:
            moved = ~(np.abs(levels - previous) <= LIFT_TOL * np.maximum(1.0, np.abs(levels)))
            if not moved.any():
                return a[last], b[last]
        previous = levels
    row = int(np.argmax(moved.any(axis=1)))
    raise PathLiftError(f"no convergence after {MAX_DOUBLINGS} halvings on segment "
                        f"{segments[row]}", owners[row])


def _coefficient_values(system: WorkSystem, slopes: tuple[Expression, ...],
                        start: np.ndarray, direction: np.ndarray, panels: int,
                        u_level: float):
    """P_1..P_m then A_1..A_m at U = u_level and at each panel node of each
    segment, as arrays (segments, nodes), and the EvalError of each
    segment that has one.

    One array call covers every segment. Should it raise, each segment
    is evaluated alone with only the coefficients it does not skip, and a
    segment that raises is searched node by node, in order, for its first
    error; its values are left at zero.
    """
    chart = system.chart
    nodes, _ = _panel()
    t = ((np.arange(panels)[:, None] + nodes) / panels).ravel()
    base = start[:, None, :] + t[:, None] * direction[:, None, :]
    u_pos = chart.index(chart.vertical)
    axes = [chart.base.index(c) if i != u_pos else None for i, c in enumerate(chart.coords)]

    def coords(points):
        return [u_level if axis is None else points[..., axis] for axis in axes]

    coefficients = (*system.coefficients, *slopes)
    shape = base.shape[:2]
    try:
        values = compile_array(coefficients, chart.coords)(*coords(base))
        return [np.broadcast_to(v, shape) for v in values], {}
    except EvalError:
        pass
    m = len(slopes)
    values = [np.zeros(shape) for _ in coefficients]
    errors: dict[int, EvalError] = {}
    for row, d in enumerate(direction):
        live = [i for i in range(m) if d[i] != 0.0]
        evaluate = compile_array([coefficients[i + j] for j in (0, m) for i in live],
                                 chart.coords)
        try:
            row_values = evaluate(*coords(base[row]))
        except EvalError:
            for point in base[row]:
                try:
                    evaluate(*coords(point))
                except EvalError as exc:
                    errors[row] = exc
                    break
            continue
        for k, v in enumerate(row_values):
            values[live[k % len(live)] + m * (k // len(live))][row] = v
    return values, errors


def _segment_maps(values, direction: np.ndarray, panels: int, u_level: float):
    """a and b of each segment's map from the coefficient values."""
    m = direction.shape[1]
    alpha = np.zeros(values[0].shape)
    beta = np.zeros(values[0].shape)
    for i in range(m):
        live = (direction[:, i] != 0.0)[:, None]
        p, slope = values[i], values[m + i]
        alpha += np.where(live, slope * direction[:, i:i + 1], 0.0)
        beta += np.where(live, (p - u_level * slope) * direction[:, i:i + 1], 0.0)
    _, cumulative = _panel()
    rows = alpha.shape[0]
    alpha = alpha.reshape(rows, panels, -1)
    local = np.einsum("rpj,kj->rpk", alpha, cumulative / panels)
    totals = local[:, :, -1]
    # integral of alpha from 0 to each node, and from 0 to 1
    running = local + (np.cumsum(totals, axis=1) - totals)[:, :, None]
    total = running[:, -1, -1]
    factor = np.exp(total[:, None, None] - running)
    b = np.einsum("rpj,rpj,j->r", beta.reshape(rows, panels, -1), factor,
                  cumulative[-1] / panels)
    return np.exp(total), b


def _compose(a: np.ndarray, b: np.ndarray, segment: np.ndarray):
    """Partial maps: row k of a path maps the path's start height to the
    height after its segment k."""
    a, b = a.copy(), b.copy()
    for k in range(1, int(segment.max(initial=0)) + 1):
        rows = np.flatnonzero(segment == k)
        a[rows], b[rows] = a[rows] * a[rows - 1], a[rows] * b[rows - 1] + b[rows]
    return a, b


# ---------------------------------------------------------------------------
# Any other system: lifts node by node

def _lifted_derivatives(system: WorkSystem, nodes: Sequence[tuple[float, ...]],
                        ref: Sequence[float]):
    """(S, dS/dU, [dS/dV_k]) per node, from lift_endpoint lifts. The lifts
    behind each finite difference reuse the step count of the node's
    central lift so that integration error largely cancels in the
    differences."""
    chart = system.chart
    h = FD_STEP
    u_pos = chart.index(chart.vertical)
    base_pos = [chart.index(c) for c in chart.base]
    for node in nodes:
        u = node[u_pos]
        base = [node[i] for i in base_pos]
        try:
            s, steps = lift_endpoint(system, [base, ref], u, LIFT_TOL)
            s_up, _ = lift_endpoint(system, [base, ref], u + h, LIFT_TOL, steps[0])
            s_dn, _ = lift_endpoint(system, [base, ref], u - h, LIFT_TOL, steps[0])
            ds_dv = []
            for k in range(len(base_pos)):
                shifted_up = list(base)
                shifted_up[k] += h
                shifted_dn = list(base)
                shifted_dn[k] -= h
                s_vp, _ = lift_endpoint(system, [shifted_up, ref], u, LIFT_TOL, steps[0])
                s_vm, _ = lift_endpoint(system, [shifted_dn, ref], u, LIFT_TOL, steps[0])
                ds_dv.append((s_vp - s_vm) / (2.0 * h))
        except LiftError as exc:
            raise _lift_failure(chart, node, exc) from exc
        yield s, (s_up - s_dn) / (2.0 * h), ds_dv


def _lifted_path_dependence(system: WorkSystem, region: Region,
                            ref: Sequence[float]) -> float:
    """Largest disagreement between the two staircase lifts from each
    corner of the base box, at mid fibre height."""
    u_lo, u_hi = region[system.chart.vertical]
    u_mid = 0.5 * (u_lo + u_hi)
    staircases = _staircases(region, system.chart, ref)
    worst = 0.0
    for forward, backward in zip(staircases[::2], staircases[1::2]):
        ua, _ = lift_endpoint(system, forward, u_mid, LIFT_TOL)
        ub, _ = lift_endpoint(system, backward, u_mid, LIFT_TOL)
        worst = max(worst, abs(ua - ub))
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
