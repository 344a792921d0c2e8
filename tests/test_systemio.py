import csv
import math

import numpy as np
import pytest

from heatgauge.systemio import write_csv

COLUMNS = ("t", "V1", "U", "work_integral")
CELLS = [
    (math.nan, math.inf, -math.inf, -0.0),
    (5e-324, 1e16, 0.1, 1.0 / 3.0),
    (0.0, -1.5e-300, 2.5, 1e22),
]
MIXED = [(0, 0.1, -0.0, 1), (17, math.nan, 1e16, 0)]


def _reference_csv(path, columns, rows):
    """The formatter write_csv replaced: csv.writer, with each float cell
    (numpy scalars included) as repr(float(x)) and anything else as str(x)."""

    def fmt(x):
        if isinstance(x, float) or hasattr(x, "item"):
            return repr(float(x))
        return str(x)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


@pytest.mark.parametrize("rows", [
    pytest.param(np.array(CELLS), id="float array"),
    pytest.param(CELLS, id="float tuples"),
    pytest.param(MIXED, id="int and float tuples"),
    pytest.param(np.empty((0, 4)), id="no rows"),
])
def test_write_csv_matches_the_reference_formatter(tmp_path, rows):
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    write_csv(ours, COLUMNS, rows)
    _reference_csv(reference, COLUMNS, rows)
    assert ours.read_bytes() == reference.read_bytes()


def test_write_csv_format(tmp_path):
    out = tmp_path / "out.csv"
    write_csv(out, COLUMNS, np.array(CELLS[:2]))
    assert out.read_bytes() == (b"t,V1,U,work_integral\r\n"
                                b"nan,inf,-inf,-0.0\r\n"
                                b"5e-324,1e+16,0.1,0.3333333333333333\r\n")


def test_float_array_cells_round_trip(tmp_path):
    out = tmp_path / "out.csv"
    rows = np.array(CELLS)
    write_csv(out, COLUMNS, rows)
    with open(out, newline="") as handle:
        header, *cells = list(csv.reader(handle))
    assert tuple(header) == COLUMNS
    back = np.array([[float(c) for c in row] for row in cells])
    assert np.array_equal(back, rows, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(rows))
