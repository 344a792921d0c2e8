"""Numerical horizontal lifting of base curves.

An adiabatic lift solves dU/dt = sum_i P_i(U, V(t)) dV_i/dt with a
classical 4-stage Runge-Kutta scheme under step-halving error control.
The work integral is accumulated from the same increments (so the
heat = dU + work identity is exact by construction) and can be
cross-checked independently with composite Simpson quadrature over the
stored samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import expr
from .expr import Expression, compile_expression
from .bundle import WorkSystem
from .geometry import Chart

CLOSURE_TOL = 1e-12
DEFAULT_STEP_TOL = 1e-10
MAX_HALVINGS = 13  # at most 8 * 2**13 = 65536 steps per segment
_ERROR_FLOOR = 1e-13


class LiftError(Exception):
    pass


class CurveError(Exception):
    pass


@dataclass(frozen=True)
class _Segment:
    t0: float
    t1: float
    position: Callable[[float], tuple[float, ...]]
    velocity: Callable[[float], tuple[float, ...]]


class BaseCurve:
    """A curve in the base coordinates: parametric expressions in t, or a polyline.

    Polyline segments are parameterized over unit intervals indexed by
    segment number. points holds a polyline's vertices and is None for
    parametric and reversed curves.
    """

    def __init__(self, chart: Chart, segments: Sequence[_Segment], kind: str,
                 description: str = "",
                 points: Sequence[tuple[float, ...]] | None = None):
        self.chart = chart
        self.segments = list(segments)
        self.kind = kind
        self.description = description
        self.points = None if points is None else list(points)

    @classmethod
    def parametric(cls, chart: Chart, exprs: Mapping[str, "Expression | str | float"],
                   t0: float, t1: float) -> "BaseCurve":
        missing = set(chart.base) - set(exprs)
        if missing:
            raise CurveError(f"missing curve expressions for {sorted(missing)}")
        extra = set(exprs) - set(chart.base)
        if extra:
            raise CurveError(f"curve expressions for unknown coordinates {sorted(extra)}")
        parsed = {c: expr.as_expression(exprs[c]) for c in chart.base}
        for c, e in parsed.items():
            bad = expr.variables(e) - {"t"}
            if bad:
                raise CurveError(f"curve expression for {c!r} uses variables {sorted(bad)}")
        pos_fns = [compile_expression(parsed[c], ("t",)) for c in chart.base]
        vel_fns = [compile_expression(expr.differentiate(parsed[c], "t"), ("t",))
                   for c in chart.base]

        def position(t: float) -> tuple[float, ...]:
            return tuple(fn(t) for fn in pos_fns)

        def velocity(t: float) -> tuple[float, ...]:
            return tuple(fn(t) for fn in vel_fns)

        desc = ", ".join(f"{c}(t) = {expr.unparse(parsed[c])}" for c in chart.base)
        return cls(chart, [_Segment(float(t0), float(t1), position, velocity)],
                   "parametric", desc)

    @classmethod
    def polyline(cls, chart: Chart,
                 points: Sequence[Sequence[float] | Mapping[str, float]]) -> "BaseCurve":
        if len(points) < 2:
            raise CurveError("polyline needs at least two points")
        rows: list[tuple[float, ...]] = []
        for p in points:
            if isinstance(p, Mapping):
                missing = set(chart.base) - set(p)
                if missing:
                    raise CurveError(f"polyline point missing coordinates {sorted(missing)}")
                rows.append(tuple(float(p[c]) for c in chart.base))
            else:
                if len(p) != len(chart.base):
                    raise CurveError("polyline point has wrong dimension")
                rows.append(tuple(float(x) for x in p))
        segments = []
        for k in range(len(rows) - 1):
            a = rows[k]
            d = tuple(bi - ai for ai, bi in zip(a, rows[k + 1]))

            def position(t: float, k=k, a=a, d=d) -> tuple[float, ...]:
                s = t - k
                return tuple([ai + s * di for ai, di in zip(a, d)])

            def velocity(t: float, d=d) -> tuple[float, ...]:
                return d

            segments.append(_Segment(float(k), float(k + 1), position, velocity))
        return cls(chart, segments, "polyline", f"{len(rows)} vertices", rows)

    def start(self) -> tuple[float, ...]:
        seg = self.segments[0]
        return seg.position(seg.t0)

    def end(self) -> tuple[float, ...]:
        seg = self.segments[-1]
        return seg.position(seg.t1)

    def is_closed(self, tol: float = CLOSURE_TOL) -> bool:
        return all(
            abs(self.chart.reduce(c, a - b)) <= tol
            for c, a, b in zip(self.chart.base, self.start(), self.end()))

    def reversed(self) -> "BaseCurve":
        segments = []
        offset = 0.0
        for seg in reversed(self.segments):
            length = seg.t1 - seg.t0

            def position(t: float, seg=seg, offset=offset) -> tuple[float, ...]:
                return seg.position(seg.t1 - (t - offset))

            def velocity(t: float, seg=seg, offset=offset) -> tuple[float, ...]:
                return tuple(-v for v in seg.velocity(seg.t1 - (t - offset)))

            segments.append(_Segment(offset, offset + length, position, velocity))
            offset += length
        return BaseCurve(self.chart, segments, self.kind, f"reverse of {self.description}")


@dataclass
class LiftResult:
    """An integrated adiabat over a base curve."""

    system: WorkSystem
    curve: BaseCurve
    u0: float
    times: np.ndarray
    base_samples: np.ndarray  # shape (n_nodes, m)
    energies: np.ndarray
    velocities: np.ndarray = field(repr=False)
    segment_slices: list[tuple[int, int]] = field(repr=False)
    steps_per_segment: list[int] = field(repr=False)
    delta_u: float
    work: float
    heat: float
    error: float

    @property
    def cumulative_work(self) -> np.ndarray:
        return -(self.energies - self.u0)

    @property
    def cumulative_heat(self) -> np.ndarray:
        return (self.energies - self.u0) + self.cumulative_work

    def csv_rows(self) -> np.ndarray:
        """One 2-D float array, a row per sample: t, V_1..V_m, U, cumulative
        work, cumulative heat."""
        return np.column_stack((self.times, self.base_samples, self.energies,
                                self.cumulative_work, self.cumulative_heat))

    @property
    def csv_columns(self) -> tuple[str, ...]:
        return ("t", *self.system.chart.base, self.system.chart.vertical,
                "work_integral", "heat_integral")


def _rhs(fns: Sequence[Callable[..., float]]) -> Callable[..., float]:
    """dU/dt at base point v with velocity dv and fibre height u."""

    def f(v: tuple[float, ...], dv: tuple[float, ...], u: float) -> float:
        total = 0.0
        for fn, dvi in zip(fns, dv):
            if dvi != 0.0:
                total += fn(u, *v) * dvi
        return total

    return f


# _rk4 gives the same bits as the textbook loop that evaluates
# f(t, u) = P(u, position(t)) . velocity(t) afresh for every stage:
# - position and velocity are pure, so k2 and k3 share one evaluation of
#   them at t + h/2;
# - t + h is computed from t in every step and not shared with the next
#   step's t0 + (k+1)*h: the two round differently;
# - the dvi != 0.0 skip in _rhs means a coefficient is never evaluated
#   where its velocity component is zero (axis-aligned segments), so it
#   can neither raise an EvalError nor turn the sum into nan there;
# - the sum starts from 0.0 and adds terms in coefficient order;
# - k1 is evaluated before the midpoint position, so where both would
#   fail on a parametric curve the same EvalError comes first.
# f calls coefficients built by compile_expression; the kernel behind
# lift_endpoint (expr.segment_kernel) is written by the same emitter
# (expr._emit), so both compute each coefficient by the same operations.
# The kernel keeps every invariant above on straight segments, with a
# zero-velocity mask in place of the dvi != 0.0 skip, so the two paths
# agree bit for bit.
def _rk4(f: Callable[..., float], seg: _Segment, u0: float, n: int,
         record: bool = False):
    position, velocity = seg.position, seg.velocity
    t0 = seg.t0
    h = (seg.t1 - t0) / n
    half = 0.5 * h
    sixth = h / 6.0
    u = u0
    ts = [t0] if record else None
    us = [u0] if record else None
    for k in range(n):
        t = t0 + k * h
        k1 = f(position(t), velocity(t), u)
        mid = t + half
        v_mid = position(mid)
        dv_mid = velocity(mid)
        k2 = f(v_mid, dv_mid, u + half * k1)
        k3 = f(v_mid, dv_mid, u + half * k2)
        end = t + h
        k4 = f(position(end), velocity(end), u + h * k3)
        u = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if record:
            ts.append(t0 + (k + 1) * h)
            us.append(u)
    return u, ts, us


def _integrate_segment(run: Callable[[int, bool], tuple], span: float, step_tol: float,
                       fixed_steps: int | None, index: int) -> tuple[tuple, int, float]:
    """Integrate one segment by step doubling.

    run(n, record) integrates the segment with n steps and returns a
    tuple whose first item is the end height; record asks for the samples
    of a result that may be kept. n starts at 8 and doubles, at most
    MAX_HALVINGS times, until the n- and 2n-step heights agree to
    step_tol per unit parameter; fixed_steps skips the adaptivity.
    Returns the kept run, its step count and its error estimate. A nan
    or infinite height ends the segment at once: no step count would
    converge.
    """
    try:
        if fixed_steps is not None:
            n = max(2, fixed_steps)
            return _finite(run(n, True), index), n, 0.0
        n = 8
        coarse = _finite(run(n, False), index)[0]
        for _ in range(MAX_HALVINGS):
            fine = _finite(run(2 * n, True), index)
            diff = abs(fine[0] - coarse)
            if diff <= step_tol * max(abs(span), 1e-300):
                return fine, 2 * n, diff
            coarse = fine[0]
            n *= 2
    except expr.EvalError as exc:
        raise LiftError(f"domain error during lift on segment {index}: {exc}") from exc
    raise LiftError(f"no convergence after {MAX_HALVINGS} halvings on segment {index}")


def _finite(result: tuple, index: int) -> tuple:
    """result, unless its end height is nan or infinite."""
    u = result[0]
    if u != u:
        raise LiftError(f"lift height is nan on segment {index}")
    if math.isinf(u):
        raise LiftError(f"lift height is infinite on segment {index}")
    return result


def lift_curve(system: WorkSystem, curve: BaseCurve, u0: float,
               step_tol: float = DEFAULT_STEP_TOL,
               fixed_steps: int | None = None) -> LiftResult:
    """Horizontal lift from fibre height u0 over the start of the curve.

    Each segment is integrated with n and 2n steps; n doubles, at most
    MAX_HALVINGS times, until the two answers agree to step_tol per unit
    parameter, and the finer answer is kept. fixed_steps takes that many
    steps per segment (at least 2) with no adaptivity; the tests use it as
    the reference for lift_endpoint's fixed-step runs, which entropy's
    finite differences make.
    """
    if system.chart != curve.chart:
        raise LiftError("curve and system live on different charts")
    f = _rhs([compile_expression(p, system.chart.coords) for p in system.coefficients])
    times: list[float] = []
    bases: list[tuple[float, ...]] = []
    energies: list[float] = []
    velocities: list[tuple[float, ...]] = []
    slices: list[tuple[int, int]] = []
    steps_used: list[int] = []
    u = float(u0)
    total_error = 0.0
    for seg_index, seg in enumerate(curve.segments):
        (u, ts, us), n, seg_error = _integrate_segment(
            lambda n, record: _rk4(f, seg, u, n, record=record),
            seg.t1 - seg.t0, step_tol, fixed_steps, seg_index)
        total_error += seg_error
        start_idx = len(times)
        times.extend(ts)
        energies.extend(us)
        bases.extend(seg.position(t) for t in ts)
        velocities.extend(seg.velocity(t) for t in ts)
        slices.append((start_idx, len(times)))
        steps_used.append(n)
    delta_u = u - float(u0)
    # work is accumulated from the identical RK4 increments with opposite
    # sign, so the heat integral vanishes identically for adiabats
    work = -delta_u
    heat = delta_u + work
    return LiftResult(
        system=system,
        curve=curve,
        u0=float(u0),
        times=np.asarray(times),
        base_samples=np.asarray(bases),
        energies=np.asarray(energies),
        velocities=np.asarray(velocities),
        segment_slices=slices,
        steps_per_segment=steps_used,
        delta_u=float(delta_u),
        work=float(work),
        heat=float(heat),
        error=float(total_error + _ERROR_FLOOR * (1.0 + abs(delta_u))),
    )


def lift_endpoint(system: WorkSystem, points: Sequence[Sequence[float]], u0: float,
                  step_tol: float = DEFAULT_STEP_TOL,
                  fixed_steps: int | None = None) -> tuple[float, list[int]]:
    """End height and step counts of the lift over a polyline.

    points are two or more base-coordinate tuples. The result equals, bit
    for bit, energies[-1] and steps_per_segment of lift_curve over
    BaseCurve.polyline(system.chart, points) with the same arguments, and
    a failing lift raises the same LiftError; each segment runs in one
    generated kernel (expr.segment_kernel) and no samples are recorded.
    """
    rows = [tuple(float(x) for x in p) for p in points]
    coords = system.chart.coords
    u = float(u0)
    steps = []
    for k in range(len(rows) - 1):
        a = rows[k]
        d = tuple(bi - ai for ai, bi in zip(a, rows[k + 1]))
        kernel = expr.segment_kernel(system.coefficients, coords,
                                     tuple(di != 0.0 for di in d))
        (u,), n, _ = _integrate_segment(
            lambda n, record: (kernel(a, d, k, u, n),),
            float(k + 1) - float(k), step_tol, fixed_steps, k)
        steps.append(n)
    return u, steps


def loop_holonomy(system: WorkSystem, curve: BaseCurve, u0: float) -> float:
    """Fibre displacement of the lift of a closed base loop."""
    if not curve.is_closed():
        raise LiftError("base curve is not closed")
    return lift_curve(system, curve, u0).delta_u


def square_loop(chart: Chart, center: Sequence[float], size: float,
                axes: tuple[int, int] = (0, 1)) -> BaseCurve:
    """Axis-aligned square loop of the given side length in two base axes."""
    m = len(chart.base)
    if m < 2:
        raise CurveError("square loop needs at least two base coordinates")
    i, j = axes
    c = list(float(x) for x in center)
    h = size / 2.0

    def corner(si: float, sj: float) -> tuple[float, ...]:
        p = list(c)
        p[i] = c[i] + si * h
        p[j] = c[j] + sj * h
        return tuple(p)

    pts = [corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1), corner(-1, -1)]
    return BaseCurve.polyline(chart, pts)


def commutator_probe(system: WorkSystem, point: Mapping[str, float],
                     i: int, j: int, t: float) -> float:
    """Lift the coordinate-flow rectangle of side t in base axes i, j.

    Returns delta U / t^2, which converges to the curvature component
    F_ij at the point as t -> 0.
    """
    chart = system.chart
    m = len(chart.base)
    if m < 2:
        raise LiftError("commutator probe needs at least two base coordinates")
    if not (1 <= i <= m and 1 <= j <= m and i != j):
        raise LiftError(f"invalid base index pair ({i}, {j})")
    if t <= 0:
        raise LiftError("probe side must be positive")
    base0 = [float(point[c]) for c in chart.base]
    ei, ej = i - 1, j - 1

    def shifted(si: float, sj: float) -> tuple[float, ...]:
        p = list(base0)
        p[ei] += si * t
        p[ej] += sj * t
        return tuple(p)

    pts = [shifted(0, 0), shifted(1, 0), shifted(1, 1), shifted(0, 1), shifted(0, 0)]
    curve = BaseCurve.polyline(chart, pts)
    result = lift_curve(system, curve, float(point[chart.vertical]))
    return result.delta_u / (t * t)


def _simpson(values: Sequence[float], h: float) -> float:
    """Composite Simpson over at least two intervals; an odd count ends
    with Simpson's 3/8 rule on the last three."""
    n = len(values) - 1
    if n % 2 != 0:
        tail = 3.0 * h / 8.0 * (values[-4] + 3.0 * (values[-3] + values[-2]) + values[-1])
        return tail + (_simpson(values[:-3], h) if n > 3 else 0.0)
    total = values[0] + values[-1]
    total += 4.0 * sum(values[1:-1:2])
    total += 2.0 * sum(values[2:-1:2])
    return total * h / 3.0


def work_integral(system: WorkSystem, lifted: LiftResult) -> float:
    """Quadrature of the work form along the lifted curve.

    Composite Simpson over the stored sample nodes, sharpened by one
    Richardson extrapolation against the half-resolution grid when the
    node count allows it; independent of the Runge-Kutta bookkeeping
    that produced delta U. The samples are read as Python floats, the
    scalar type the lift evaluates on, so each coefficient is computed as
    in the lift: an overflowing ^, for one, raises here as it does there.
    As in the lift, a coefficient is not evaluated where its velocity
    component is zero. A coefficient that fails to evaluate at a sample
    raises LiftError naming the sample.
    """
    chart = system.chart
    fns = [compile_expression(p, chart.coords) for p in system.coefficients]
    total = 0.0
    for start, stop in lifted.segment_slices:
        if stop - start < 3:
            continue
        times = lifted.times[start:stop].tolist()
        energies = lifted.energies[start:stop].tolist()
        # columns zipped into one tuple per sample: fewer objects held than in rows
        bases = zip(*lifted.base_samples[start:stop].T.tolist())
        velocities = zip(*lifted.velocities[start:stop].T.tolist())
        h = times[1] - times[0]
        integrand = []
        for t, u, v, dv in zip(times, energies, bases, velocities):
            try:
                integrand.append(-sum((fn(u, *v) * dvi for fn, dvi in zip(fns, dv)
                                       if dvi != 0.0), 0.0))
            except expr.EvalError as exc:
                point = dict(zip(chart.base, v))
                raise LiftError(f"domain error in the work quadrature at t = "
                                f"{t!r}, base point {point}: {exc}") from exc
        fine = _simpson(integrand, h)
        if (len(integrand) - 1) % 4 == 0:
            coarse = _simpson(integrand[::2], 2.0 * h)
            fine += (fine - coarse) / 15.0
        total += fine
    return float(total)
