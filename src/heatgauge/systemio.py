"""Definition-file formats for systems and curves.

System files are INI-style text with sections [system], [region], [grid],
and [tolerances]; curve files are either CSV polylines (one column per
base coordinate, optional leading t column) or INI files with a [curve]
section of per-coordinate expressions in t.
"""
from __future__ import annotations

import configparser
import csv
from dataclasses import dataclass, field

import numpy as np

from . import bundle, expr
from .bundle import WorkSystem
from .geometry import Chart
from .lift import BaseCurve
from .tolerances import FLATNESS_TOL, HOLONOMY_TOL, RESIDUAL_TOL

DEFAULT_GRID = 11
DEFAULT_TOLERANCES = {
    "flatness": FLATNESS_TOL,
    "residual": RESIDUAL_TOL,
    "holonomy": HOLONOMY_TOL,
}


class InputError(Exception):
    """Invalid system or curve definition; message carries the diagnostic."""


@dataclass
class SystemSetup:
    system: WorkSystem
    region: dict[str, tuple[float, float]]
    grid: int = DEFAULT_GRID
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))


def _split_list(text: str) -> list[str]:
    parts = [p.strip() for chunk in text.split(";") for p in chunk.split("\n")]
    return [p for p in parts if p]


def _read_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle, source=path)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"{path}: {exc}") from exc
    return parser


def parse_system_file(path: str) -> SystemSetup:
    parser = _read_config(path)
    if "system" not in parser:
        raise InputError(f"{path}: missing [system] section")
    section = parser["system"]
    name = section.get("name", "unnamed")
    energy = section.get("energy", "U").strip()
    base_raw = section.get("base_coords")
    if not base_raw:
        raise InputError(f"{path}: [system] needs base_coords")
    base = [c.strip() for c in base_raw.split(",") if c.strip()]
    periods = []
    if section.get("periodic"):
        for item in _split_list(section["periodic"]):
            if ":" not in item:
                raise InputError(f"{path}: periodic entry {item!r} must be name: period")
            cname, ptext = item.split(":", 1)
            try:
                periods.append((cname.strip(), float(ptext)))
            except ValueError:
                raise InputError(f"{path}: bad period {ptext!r} for {cname.strip()!r}") from None
    p_raw = section.get("p") or section.get("P")
    if not p_raw:
        raise InputError(f"{path}: [system] needs P (one expression per base coordinate)")
    p_texts = _split_list(p_raw)
    if len(p_texts) != len(base):
        raise InputError(
            f"{path}: {len(base)} base coordinates but {len(p_texts)} P expressions")
    try:
        chart = Chart((energy, *base), periods=tuple(periods))
    except Exception as exc:
        raise InputError(f"{path}: {exc}") from exc
    coefficients = {}
    for coord, text in zip(base, p_texts):
        try:
            coefficients[coord] = expr.parse(text)
        except expr.ExpressionError as exc:
            raise InputError(f"{path}: P for {coord!r}: {exc}") from exc
    try:
        system = WorkSystem.build(name, chart, coefficients)
    except bundle.BundleError as exc:
        raise InputError(f"{path}: {exc}") from exc

    region = default_region(system)
    if "region" in parser:
        for coord, text in parser["region"].items():
            cname = _match_coord(chart, coord, path)
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 2:
                raise InputError(f"{path}: region for {cname!r} must be min, max")
            try:
                lo, hi = float(parts[0]), float(parts[1])
            except ValueError:
                raise InputError(f"{path}: bad region bounds for {cname!r}: {text!r}") from None
            if not lo < hi:
                raise InputError(f"{path}: region for {cname!r} must have min < max")
            region[cname] = (lo, hi)

    grid = DEFAULT_GRID
    if "grid" in parser and parser["grid"].get("nodes"):
        try:
            grid = int(parser["grid"]["nodes"])
        except ValueError:
            raise InputError(f"{path}: grid nodes must be an integer") from None
        if grid < 2:
            raise InputError(f"{path}: grid nodes must be at least 2")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in parser:
        for key, text in parser["tolerances"].items():
            if key not in tolerances:
                raise InputError(f"{path}: unknown tolerance {key!r}")
            try:
                tolerances[key] = float(text)
            except ValueError:
                raise InputError(f"{path}: bad tolerance {key!r}: {text!r}") from None
    return SystemSetup(system=system, region=region, grid=grid, tolerances=tolerances)


def _match_coord(chart: Chart, name: str, path: str) -> str:
    # configparser lowercases keys; match chart names case-insensitively
    for c in chart.coords:
        if c.lower() == name.lower():
            return c
    raise InputError(f"{path}: unknown coordinate {name!r}")


def default_region(system: WorkSystem) -> dict[str, tuple[float, float]]:
    """Per-system sampling box used when no [region] is given."""
    defaults = {
        "ideal_gas": {"U": (1.0, 2.0), "V": (1.0, 2.0)},
    }
    if system.name in defaults:
        return dict(defaults[system.name])
    region = {}
    for c in system.chart.coords:
        period = system.chart.period_of(c)
        region[c] = (0.0, period) if period else (-1.0, 1.0)
    if system.name == "wankel":
        region[system.chart.vertical] = (-10.0, 10.0)
    return region


def builtin_setup(name: str, tau: str = "1") -> SystemSetup:
    factories = {
        "ideal_gas": bundle.ideal_gas,
        "contact3": bundle.contact3,
        "flat3": bundle.flat3,
        "wankel": lambda: bundle.wankel(tau),
        "zero_work": bundle.zero_work,
    }
    if name not in factories:
        raise InputError(
            f"unknown built-in system {name!r}; choose from {sorted(factories)}")
    try:
        system = factories[name]()
    except (bundle.BundleError, expr.ExpressionError) as exc:
        raise InputError(str(exc)) from exc
    return SystemSetup(system=system, region=default_region(system))


def parse_curve_file(path: str, chart: Chart) -> BaseCurve:
    try:
        with open(path) as handle:
            head = handle.read(4096)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    first = next((line.strip() for line in head.splitlines()
                  if line.strip() and not line.strip().startswith("#")), "")
    if first.startswith("["):
        return _parse_curve_ini(path, chart)
    return _parse_curve_csv(path, chart)


def _parse_curve_ini(path: str, chart: Chart) -> BaseCurve:
    parser = _read_config(path)
    if "curve" not in parser:
        raise InputError(f"{path}: missing [curve] section")
    section = parser["curve"]
    t_range = section.get("t_range")
    if not t_range:
        raise InputError(f"{path}: [curve] needs t_range = start, end")
    parts = [p.strip() for p in t_range.split(",")]
    if len(parts) != 2:
        raise InputError(f"{path}: t_range must be start, end")
    try:
        t0, t1 = float(parts[0]), float(parts[1])
    except ValueError:
        raise InputError(f"{path}: bad t_range {t_range!r}") from None
    exprs = {}
    for key, text in section.items():
        if key == "t_range":
            continue
        cname = _match_coord(chart, key, path)
        if cname == chart.vertical:
            raise InputError(f"{path}: curve must not set the energy coordinate")
        try:
            exprs[cname] = expr.parse(text)
        except expr.ExpressionError as exc:
            raise InputError(f"{path}: curve expression for {cname!r}: {exc}") from exc
    try:
        return BaseCurve.parametric(chart, exprs, t0, t1)
    except Exception as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse_curve_csv(path: str, chart: Chart) -> BaseCurve:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty curve file") from None
        header = [h.strip() for h in header]
        columns = {}
        for i, h in enumerate(header):
            if h == "t":
                continue
            if h not in chart.base:
                raise InputError(f"{path}: unknown curve column {h!r}")
            columns[h] = i
        missing = set(chart.base) - set(columns)
        if missing:
            raise InputError(f"{path}: curve file missing columns {sorted(missing)}")
        points = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                points.append(tuple(float(row[columns[c]]) for c in chart.base))
            except (ValueError, IndexError):
                raise InputError(f"{path}:{line_no}: bad curve row {row!r}") from None
    if len(points) < 2:
        raise InputError(f"{path}: curve needs at least two points")
    return BaseCurve.polyline(chart, points)


def write_csv(path, columns, rows) -> None:
    """Deterministic CSV: the header, then one line per row of cells joined
    by commas, each cell its shortest round-trip repr, all lines ending in
    CRLF. rows is a 2-D float array, read one row at a time through
    tolist() so that no second copy of the table is held, or rows of
    Python floats and ints."""
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(columns)
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
