"""Work systems on a line bundle over configuration space.

A WorkSystem is a chart with a distinguished vertical energy coordinate U
and one work coefficient P_i per base coordinate. The work form is
omega = -sum_i P_i dV_i (so it annihilates the vertical direction by
construction) and the heat form is xi = dU + omega. Gauge transforms act
fibre-wise affinely on U, rescaling xi by the gauge factor.

Also provides the built-in catalog of example systems used throughout the
tests and the CLI.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping

from . import expr
from .expr import Expression
from .geometry import (Chart, DifferentialForm, VectorField, coordinate_field,
                       d_coord, pair)


class BundleError(Exception):
    pass


class GaugeError(BundleError):
    pass


Region = Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class WorkSystem:
    """A chart plus work coefficients P_i, one per base coordinate."""

    name: str
    chart: Chart
    coefficients: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.chart.base):
            raise BundleError(
                f"{len(self.chart.base)} base coordinates but {len(self.coefficients)} coefficients")
        known = set(self.chart.coords)
        for coord, e in zip(self.chart.base, self.coefficients):
            extra = expr.variables(e) - known
            if extra:
                raise BundleError(
                    f"coefficient for {coord!r} uses undeclared variables {sorted(extra)}")

    @classmethod
    def build(cls, name: str, chart: Chart,
              coefficients: Mapping[str, "Expression | str | float"]) -> "WorkSystem":
        missing = set(chart.base) - set(coefficients)
        if missing:
            raise BundleError(f"missing coefficients for {sorted(missing)}")
        return cls(name, chart, tuple(
            expr.as_expression(coefficients[c]) for c in chart.base))

    def coefficient(self, base_coord: str) -> Expression:
        return self.coefficients[self.chart.base.index(base_coord)]

    @property
    def work_form(self) -> DifferentialForm:
        return DifferentialForm.build(self.chart, 1, {
            (c,): expr.neg(p) for c, p in zip(self.chart.base, self.coefficients)})

    @property
    def heat_form(self) -> DifferentialForm:
        return d_coord(self.chart, self.chart.vertical) + self.work_form


def heat_form(system: WorkSystem) -> DifferentialForm:
    """xi = dU + omega = dU - sum_i P_i dV_i."""
    return system.heat_form


def work_form(system: WorkSystem) -> DifferentialForm:
    return system.work_form


@dataclass(frozen=True)
class KernelVerdict:
    ok: bool
    structural_ok: bool
    max_abs: float
    violation_point: dict | None


def _sample_point(chart: Chart, region: Region, rng: random.Random) -> dict[str, float]:
    return {c: rng.uniform(*region[c]) for c in chart.coords}


def _default_region(chart: Chart) -> dict[str, tuple[float, float]]:
    region = {}
    for c in chart.coords:
        period = chart.period_of(c)
        region[c] = (0.0, period) if period else (0.5, 1.5)
    return region


def verify_kernel_condition(omega: DifferentialForm, region: Region | None = None,
                            samples: int = 100, seed: int = 0) -> KernelVerdict:
    """Check that a candidate work form annihilates the vertical direction.

    The structural check inspects the dU component symbolically; the
    numeric check evaluates the pairing with the vertical field at random
    points of the region, reporting the first violating point.
    """
    chart = omega.chart
    if omega.degree != 1:
        raise BundleError("work form must have degree 1")
    region = dict(region) if region else _default_region(chart)
    vertical_pairing = pair(omega, coordinate_field(chart, chart.vertical))
    structural_ok = isinstance(vertical_pairing, expr.Const) and vertical_pairing.value == 0.0
    rng = random.Random(seed)
    max_abs = 0.0
    violation = None
    for _ in range(samples):
        for _attempt in range(50):
            p = _sample_point(chart, region, rng)
            try:
                value = expr.evaluate(vertical_pairing, p)
            except expr.EvalError:
                continue
            break
        else:
            raise BundleError("could not sample the region without domain errors")
        if abs(value) > max_abs:
            max_abs = abs(value)
        if abs(value) > 1e-12 and violation is None:
            violation = p
    return KernelVerdict(violation is None, structural_ok, max_abs, violation)


def system_from_work_form(name: str, omega: DifferentialForm) -> WorkSystem:
    """Build a WorkSystem from a raw one-form, which must pass the kernel check."""
    verdict = verify_kernel_condition(omega)
    if not verdict.structural_ok:
        raise BundleError(
            f"work form has a d{omega.chart.vertical} component; "
            f"kernel condition fails (max |pairing| = {verdict.max_abs:g} "
            f"at {verdict.violation_point})")
    chart = omega.chart
    return WorkSystem(name, chart, tuple(
        expr.neg(omega.component((c,))) for c in chart.base))


# ---------------------------------------------------------------------------
# Gauge transformations U -> a*U + b with a, b functions of the base only

@dataclass(frozen=True)
class GaugeTransform:
    a: Expression
    b: Expression

    @classmethod
    def build(cls, a: "Expression | str | float", b: "Expression | str | float") -> "GaugeTransform":
        return cls(expr.as_expression(a), expr.as_expression(b))

    def validate(self, chart: Chart) -> None:
        for label, e in (("a", self.a), ("b", self.b)):
            used = expr.variables(e)
            if chart.vertical in used:
                raise GaugeError(f"gauge {label} must not depend on the vertical coordinate")
            extra = used - set(chart.base)
            if extra:
                raise GaugeError(f"gauge {label} uses undeclared variables {sorted(extra)}")

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(
            expr.div(expr.const(1.0), self.a),
            expr.neg(expr.div(self.b, self.a)))


def apply_gauge(system: WorkSystem, gauge: GaugeTransform,
                region: Region | None = None, seed: int = 0) -> WorkSystem:
    """Rewrite the system in the frame U' = a*U + b.

    The heat form transforms as xi' = a * xi, which keeps the unit pairing
    with the new vertical field; the coefficients become
    P'_i = a * P_i|_{U -> (U'-b)/a} + ((U'-b)/a) * da/dV_i + db/dV_i.
    """
    gauge.validate(system.chart)
    if region is not None:
        rng = random.Random(seed)
        values = []
        for _ in range(200):
            p = _sample_point(system.chart, region, rng)
            try:
                values.append(expr.evaluate(gauge.a, p))
            except expr.EvalError:
                continue
        if values:
            # a sign change implies a zero somewhere in the region
            if min(abs(v) for v in values) < 1e-6 or (min(values) < 0.0 < max(values)):
                raise GaugeError("gauge factor a is not bounded away from zero on the region")
    u = expr.var(system.chart.vertical)
    u_old = expr.div(expr.sub(u, gauge.b), gauge.a)
    new_coeffs = []
    for coord, p_i in zip(system.chart.base, system.coefficients):
        term = expr.mul(gauge.a, expr.substitute(p_i, {system.chart.vertical: u_old}))
        term = expr.add(term, expr.mul(u_old, expr.differentiate(gauge.a, coord)))
        term = expr.add(term, expr.differentiate(gauge.b, coord))
        new_coeffs.append(term)
    return WorkSystem(f"{system.name}:gauged", system.chart, tuple(new_coeffs))


# ---------------------------------------------------------------------------
# Built-in systems

def ideal_gas() -> WorkSystem:
    """Monatomic ideal gas on chart (U, V): physical pressure 2U/(3V).

    With U = (3/2) nR T the coefficient does not depend on the amount of
    gas, which only fixes the temperature scale.
    """
    chart = Chart(("U", "V"))
    return WorkSystem.build("ideal_gas", chart, {"V": "-(2*U)/(3*V)"})


def contact3() -> WorkSystem:
    """Canonical non-integrable system: xi = dU + V2 dV1, constant curvature."""
    chart = Chart(("U", "V1", "V2"))
    return WorkSystem.build("contact3", chart, {"V1": "-V2", "V2": "0"})


def flat3() -> WorkSystem:
    """Integrable three-coordinate system: xi = d(U + V1*V2)."""
    chart = Chart(("U", "V1", "V2"))
    return WorkSystem.build("flat3", chart, {"V1": "-V2", "V2": "-V1"})


def wankel(tau: "Expression | str | float" = 1.0) -> WorkSystem:
    """Rotary system on a circular base: omega = -tau dtheta."""
    chart = Chart(("U", "theta"), periods=(("theta", 2.0 * math.pi),))
    tau = expr.as_expression(tau)
    extra = expr.variables(tau) - {"theta", "U"}
    if extra:
        raise BundleError(f"tau uses undeclared variables {sorted(extra)}")
    return WorkSystem("wankel", chart, (tau,))


def zero_work(n_base: int = 2) -> WorkSystem:
    """System with omega = 0: lifts keep U constant."""
    chart = Chart(("U",) + tuple(f"V{i}" for i in range(1, n_base + 1)))
    return WorkSystem.build("zero_work", chart, {c: 0.0 for c in chart.base})


def catalog() -> dict[str, WorkSystem]:
    """Default instances of every built-in system."""
    return {
        "ideal_gas": ideal_gas(),
        "contact3": contact3(),
        "flat3": flat3(),
        "wankel": wankel(),
        "zero_work": zero_work(),
    }
