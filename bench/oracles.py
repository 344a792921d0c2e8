"""Reference answers that share no code with heatgauge.

Every check compares a number the program wrote (to a CSV file or to
stdout) with a closed form evaluated here with the math module only.
Each check raises CheckFailure on a mismatch and returns how many values
it compared, so the benchmark can report how many checks it ran.
"""
from __future__ import annotations

import csv
import math

# Relative tolerance of every closed-form check: |got - want| <= REL_TOL * max(1, |want|).
# All of them hold to about 1e-12 on the unmodified program.
REL_TOL = 1e-11
# Holonomy of a flat system around a loop of 40 segments is zero up to the
# lift's accumulated step error (about 2e-11 at seed), so zero is checked
# with this absolute tolerance.
ZERO_TOL = 1e-9


class CheckFailure(Exception):
    pass


def _number(cell: str) -> float:
    # The program writes some numpy scalars as "np.float64(x)"; the value is
    # what the oracle checks, so both spellings are read.
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise CheckFailure(f"{path}: empty CSV")
    try:
        values = [[_number(cell) for cell in row] for row in rows[1:]]
    except ValueError as exc:
        raise CheckFailure(f"{path}: unreadable cell: {exc}") from None
    return rows[0], values


def count_rows(path: str) -> int:
    """Data rows of a CSV file, without parsing them."""
    with open(path, newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def close(label: str, got: float, want: float, tol: float = REL_TOL) -> int:
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailure(f"{label}: got {got!r}, want {want!r} (rel tol {tol!r})")
    return 1


def expect(label: str, got, want) -> int:
    if got != want:
        raise CheckFailure(f"{label}: got {got!r}, want {want!r}")
    return 1


def _columns(header: list[str], names: tuple[str, ...], path: str) -> list[int]:
    try:
        return [header.index(n) for n in names]
    except ValueError:
        raise CheckFailure(f"{path}: header {header} lacks one of {names}") from None


def flat3_entropy(path: str) -> int:
    """flat3 reconstructed from the reference point V = 0: S = U + V1*V2."""
    header, rows = read_csv(path)
    v1, v2, u, s = _columns(header, ("V1", "V2", "U", "S"), path)
    return sum(close(f"flat3 S at row {k}", r[s], r[u] + r[v1] * r[v2])
               for k, r in enumerate(rows))


def ideal_gas_entropy(path: str, v_ref: float) -> int:
    """Monatomic ideal gas: S = U * (V / V_ref)^(2/3)."""
    header, rows = read_csv(path)
    v, u, s = _columns(header, ("V", "U", "S"), path)
    return sum(close(f"ideal_gas S at row {k}", r[s], r[u] * (r[v] / v_ref) ** (2.0 / 3.0))
               for k, r in enumerate(rows))


def lift_delta_u(path: str, energy: str = "U") -> tuple[float, float, list[float]]:
    """Start height, end height and end base point of a lift CSV."""
    header, rows = read_csv(path)
    (u,) = _columns(header, (energy,), path)
    base = [k for k, name in enumerate(header) if name not in ("t", energy,
                                                                "work_integral",
                                                                "heat_integral")]
    if len(rows) < 2:
        raise CheckFailure(f"{path}: lift CSV has {len(rows)} rows")
    return rows[0][u], rows[-1][u], [rows[-1][k] for k in base]


def ideal_gas_lift(path: str, u0: float, v0: float, v1: float) -> int:
    """Adiabat U * V^(2/3) = const, so the endpoint is U0 * (V0/V1)^(2/3)."""
    start, end, _ = lift_delta_u(path)
    return (close("ideal_gas lift start", start, u0)
            + close("ideal_gas lift end", end, u0 * (v0 / v1) ** (2.0 / 3.0)))


def flat3_lift(path: str, u0: float, start_base: tuple[float, float]) -> int:
    """U + V1*V2 is constant along every adiabat of flat3."""
    start, end, base = lift_delta_u(path)
    return close("flat3 lift invariant", end + base[0] * base[1],
                 u0 + start_base[0] * start_base[1])


def holonomy(path: str, want: float, tol: float = REL_TOL) -> int:
    start, end, _ = lift_delta_u(path)
    return close("holonomy dU", end - start, want, tol)


def square_area(side: float) -> float:
    """contact3 (xi = dU + V2 dV1) gains the enclosed area on a counterclockwise loop."""
    return side * side


def circle_area(radius: float) -> float:
    return math.pi * radius * radius


def wankel_phase(path: str, tau_mean: float) -> int:
    """Per-revolution gain is the loop integral of tau: 2*pi times its mean."""
    header, rows = read_csv(path)
    rev, cum = _columns(header, ("revolution", "cumulative_delta_u"), path)
    gain = 2.0 * math.pi * tau_mean
    return sum(close(f"wankel cumulative gain after {int(r[rev])} revolutions",
                     r[cum], r[rev] * gain)
               for r in rows)
