"""Exterior calculus on a single coordinate chart.

Charts carry an ordered coordinate list whose first entry is the vertical
(energy) coordinate; the remaining coordinates span the base. Differential
forms of degree 0..3 store components on strictly increasing coordinate
tuples, vector fields store one component per coordinate, and all
operations (exterior derivative, wedge, pairing, Lie bracket) are exact
symbolic manipulations built on the expr module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from . import expr
from .expr import Expression, const

MAX_DEGREE = 3


class GeometryError(Exception):
    pass


class ChartMismatchError(GeometryError):
    pass


class DegreeError(GeometryError):
    pass


@dataclass(frozen=True)
class Chart:
    """Ordered coordinates; coords[0] is the vertical energy coordinate.

    periods lists (name, period) pairs for angle-like coordinates.
    """

    coords: tuple[str, ...]
    periods: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if len(self.coords) < 2:
            raise GeometryError("chart needs a vertical coordinate and at least one base coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise GeometryError("coordinate names must be unique")
        for name, period in self.periods:
            if name not in self.coords:
                raise GeometryError(f"periodic coordinate {name!r} not in chart")
            if period <= 0:
                raise GeometryError(f"period of {name!r} must be positive")

    @property
    def vertical(self) -> str:
        return self.coords[0]

    @property
    def base(self) -> tuple[str, ...]:
        return self.coords[1:]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise GeometryError(f"unknown coordinate {name!r}") from None

    def period_of(self, name: str) -> float | None:
        for coord, period in self.periods:
            if coord == name:
                return period
        return None

    def reduce(self, name: str, delta: float) -> float:
        """Reduce a coordinate difference modulo the coordinate's period."""
        period = self.period_of(name)
        if period is None:
            return delta
        return delta - period * round(delta / period)


def _canonical(chart: Chart, idx: tuple[str, ...]) -> tuple[tuple[str, ...] | None, int]:
    """Sort an index tuple into chart order, returning (tuple, sign).

    Returns (None, 0) when a coordinate repeats.
    """
    order = [chart.index(name) for name in idx]
    if len(set(order)) != len(order):
        return None, 0
    sign = 1
    pairs = sorted(zip(order, idx))
    # parity by counting inversions of the original order list
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return tuple(name for _, name in pairs), sign


@dataclass(frozen=True)
class DifferentialForm:
    """Degree-k antisymmetric form; components on increasing index tuples."""

    chart: Chart
    degree: int
    components: tuple[tuple[tuple[str, ...], Expression], ...] = ()

    def __post_init__(self):
        if not 0 <= self.degree <= MAX_DEGREE:
            raise DegreeError(f"degree {self.degree} outside 0..{MAX_DEGREE}")

    @classmethod
    def build(cls, chart: Chart, degree: int,
              comps: Mapping[tuple[str, ...], "Expression | str | float"]) -> "DifferentialForm":
        acc: dict[tuple[str, ...], Expression] = {}
        for idx, e in comps.items():
            e = expr.as_expression(e)
            canon, sign = _canonical(chart, tuple(idx))
            if canon is None:
                continue
            if len(canon) != degree:
                raise DegreeError(f"index tuple {idx} has wrong length for degree {degree}")
            term = e if sign > 0 else expr.neg(e)
            acc[canon] = expr.add(acc[canon], term) if canon in acc else term
        items = tuple(sorted(((k, v) for k, v in acc.items() if not _is_zero(v)),
                             key=lambda kv: tuple(chart.index(n) for n in kv[0])))
        return cls(chart, degree, items)

    def component(self, idx: Iterable[str]) -> Expression:
        canon, sign = _canonical(self.chart, tuple(idx))
        if canon is None:
            return const(0.0)
        for key, e in self.components:
            if key == canon:
                return e if sign > 0 else expr.neg(e)
        return const(0.0)

    def as_dict(self) -> dict[tuple[str, ...], Expression]:
        return dict(self.components)

    def is_structurally_zero(self) -> bool:
        return not self.components

    def evaluate(self, point: Mapping[str, float]) -> dict[tuple[str, ...], float]:
        return {idx: expr.evaluate(e, point) for idx, e in self.components}

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        comps: dict[tuple[str, ...], Expression] = dict(self.components)
        for idx, e in other.components:
            comps[idx] = expr.add(comps[idx], e) if idx in comps else e
        return DifferentialForm.build(self.chart, self.degree, comps)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm.build(
            self.chart, self.degree, {idx: expr.neg(e) for idx, e in self.components})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def scale(self, f: "Expression | str | float") -> "DifferentialForm":
        f = expr.as_expression(f)
        return DifferentialForm.build(
            self.chart, self.degree, {idx: expr.mul(f, e) for idx, e in self.components})


def _is_zero(e: Expression) -> bool:
    return isinstance(e, expr.Const) and e.value == 0.0


def _same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError("objects live on different charts")


def scalar_field(chart: Chart, e: "Expression | str | float") -> DifferentialForm:
    return DifferentialForm.build(chart, 0, {(): expr.as_expression(e)})


def d_coord(chart: Chart, name: str) -> DifferentialForm:
    """The coordinate one-form d(name)."""
    chart.index(name)
    return DifferentialForm.build(chart, 1, {(name,): const(1.0)})


def exterior_derivative(f: DifferentialForm) -> DifferentialForm:
    """d on forms of degree <= 2, by symbolic differentiation of components."""
    if f.degree >= MAX_DEGREE:
        raise DegreeError(f"cannot take d of a degree-{f.degree} form")
    terms: dict[tuple[str, ...], Expression] = {}
    for idx, e in f.components:
        for c in f.chart.coords:
            de = expr.differentiate(e, c)
            if _is_zero(de):
                continue
            canon, sign = _canonical(f.chart, (c,) + idx)
            if canon is None:
                continue
            term = de if sign > 0 else expr.neg(de)
            terms[canon] = expr.add(terms[canon], term) if canon in terms else term
    return DifferentialForm.build(f.chart, f.degree + 1, terms)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded antisymmetric product; total degree must stay <= 3."""
    _same_chart(a, b)
    degree = a.degree + b.degree
    if degree > MAX_DEGREE:
        raise DegreeError(f"wedge degree {degree} exceeds {MAX_DEGREE}")
    terms: dict[tuple[str, ...], Expression] = {}
    for ia, ea in a.components:
        for ib, eb in b.components:
            canon, sign = _canonical(a.chart, ia + ib)
            if canon is None:
                continue
            term = expr.mul(ea, eb)
            if sign < 0:
                term = expr.neg(term)
            terms[canon] = expr.add(terms[canon], term) if canon in terms else term
    return DifferentialForm.build(a.chart, degree, terms)


@dataclass(frozen=True)
class VectorField:
    """Components aligned with chart.coords."""

    chart: Chart
    components: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise GeometryError("component count must equal chart dimension")

    @classmethod
    def build(cls, chart: Chart, comps: Mapping[str, "Expression | str | float"]) -> "VectorField":
        for name in comps:
            chart.index(name)
        return cls(chart, tuple(
            expr.as_expression(comps.get(c, 0.0)) for c in chart.coords))

    def component(self, name: str) -> Expression:
        return self.components[self.chart.index(name)]

    def evaluate(self, point: Mapping[str, float]) -> tuple[float, ...]:
        return tuple(expr.evaluate(e, point) for e in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(
            expr.add(a, b) for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(expr.neg(e) for e in self.components))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def scale(self, f: "Expression | str | float") -> "VectorField":
        f = expr.as_expression(f)
        return VectorField(self.chart, tuple(expr.mul(f, e) for e in self.components))


def coordinate_field(chart: Chart, name: str) -> VectorField:
    """The coordinate vector field along one coordinate axis."""
    return VectorField.build(chart, {name: 1.0})


def pair(alpha: DifferentialForm, x: VectorField) -> Expression:
    """Contract a one-form with a vector field, as an Expression."""
    _same_chart(alpha, x)
    if alpha.degree != 1:
        raise DegreeError("pairing needs a degree-1 form")
    total: Expression = const(0.0)
    for (name,), e in alpha.components:
        total = expr.add(total, expr.mul(e, x.component(name)))
    return total


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y]_k = sum_j (X_j d_j Y_k - Y_j d_j X_k), symbolically."""
    _same_chart(x, y)
    chart = x.chart
    comps = []
    for k, _ in enumerate(chart.coords):
        acc: Expression = const(0.0)
        for j, cj in enumerate(chart.coords):
            acc = expr.add(acc, expr.mul(x.components[j], expr.differentiate(y.components[k], cj)))
            acc = expr.sub(acc, expr.mul(y.components[j], expr.differentiate(x.components[k], cj)))
        comps.append(acc)
    return VectorField(chart, tuple(comps))
