import csv
import math

import pytest

from heatgauge.cli import main
from heatgauge.systemio import (InputError, builtin_setup, parse_curve_file,
                                parse_system_file)

SYSTEM_INI = """\
[system]
name = demo
energy = U
base_coords = V1, V2
P = -V2; 0

[region]
U = -1, 1
V1 = -1, 1
V2 = -1, 1

[grid]
nodes = 5

[tolerances]
flatness = 1e-9
"""

CURVE_CSV = """\
V1,V2
0.0,0.0
0.5,0.0
0.5,0.5
0.0,0.5
0.0,0.0
"""

CURVE_INI = """\
[curve]
t_range = 0, 6.283185307179586
theta = t
"""


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "demo.ini"
    path.write_text(SYSTEM_INI)
    return str(path)


@pytest.fixture()
def square_curve(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(CURVE_CSV)
    return str(path)


class TestExitCodes:
    def test_check_curved_fails(self, capsys):
        assert main(["check", "--system", "contact3"]) == 2
        out = capsys.readouterr().out
        assert "max |F" in out and "1.0" in out

    def test_check_flat_passes(self):
        assert main(["check", "--system", "flat3"]) == 0
        assert main(["check", "--system", "ideal_gas"]) == 0

    def test_unknown_system_is_input_error(self, capsys):
        assert main(["check", "--system", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_input_error(self):
        assert main(["check", "--file", "/no/such/file.ini"]) == 1

    def test_system_file_roundtrip(self, system_file):
        # the file describes the curved demo system, so check fails
        assert main(["check", "--file", system_file]) == 2


class TestLiftCommand:
    def test_lift_prints_budget(self, system_file, square_curve, capsys):
        assert main(["lift", "--file", system_file, "--curve", square_curve,
                     "--u0", "0"]) == 0
        out = capsys.readouterr().out
        assert "dU = " in out
        assert "work integral" in out
        assert "heat integral = 0.0" in out

    def test_holonomy_open_verdict(self, system_file, square_curve):
        assert main(["holonomy", "--file", system_file,
                     "--curve", square_curve]) == 2

    def test_holonomy_closed_verdict(self, tmp_path, square_curve):
        flat = tmp_path / "flat.ini"
        flat.write_text(SYSTEM_INI.replace("P = -V2; 0", "P = -V2; -V1"))
        assert main(["holonomy", "--file", str(flat),
                     "--curve", square_curve]) == 0

    def test_non_closed_curve_rejected(self, system_file, tmp_path, capsys):
        path = tmp_path / "open.csv"
        path.write_text("V1,V2\n0,0\n1,1\n")
        assert main(["holonomy", "--file", system_file, "--curve", str(path)]) == 1
        assert "not closed" in capsys.readouterr().err

    def test_unknown_curve_column(self, system_file, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("V1,Q\n0,0\n1,1\n")
        assert main(["lift", "--file", system_file, "--curve", str(path)]) == 1

    def test_unconverged_lift_names_segment(self, tmp_path, capsys):
        path = tmp_path / "gas.csv"
        path.write_text("V\n1\n2\n")
        assert main(["lift", "--system", "ideal_gas", "--curve", str(path),
                     "--u0", "1e8"]) == 1
        assert "no convergence after 13 halvings on segment 0" in capsys.readouterr().err

    @pytest.mark.parametrize("end, code, stdout, stderr", [
        # V1 never moves, so neither the lift nor the quadrature reads log(V2)
        ("0,-0.2", 0, "dU = 0.0\nwork integral = -0.0 (quadrature check 0.0)\n"
                      "heat integral = 0.0\nintegration error estimate = 1e-13\n", ""),
        # V1 moves: the lift reads log(V2) first and names the segment
        ("0.3,-0.2", 1, "", "error: domain error during lift on segment 0: "
                            "log of non-positive value\n"),
    ])
    def test_coefficient_read_only_where_its_velocity_is_nonzero(self, tmp_path, capsys,
                                                                 end, code, stdout, stderr):
        system = tmp_path / "log.ini"
        system.write_text(SYSTEM_INI.replace("P = -V2; 0", "P = log(V2); 0"))
        curve = tmp_path / "path.csv"
        curve.write_text(f"V1,V2\n0,-0.5\n{end}\n")
        assert main(["lift", "--file", str(system), "--curve", str(curve)]) == code
        assert capsys.readouterr() == (stdout, stderr)

    def test_parametric_curve(self, tmp_path, capsys):
        path = tmp_path / "circle.ini"
        path.write_text(CURVE_INI)
        assert main(["lift", "--system", "wankel", "--tau", "1",
                     "--curve", str(path)]) == 0
        out = capsys.readouterr().out
        assert repr(2 * math.pi)[:12] in out


class TestJauchCommand:
    def test_flat3_holds(self, capsys):
        assert main(["jauch", "--system", "flat3"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_contact3_violated(self, capsys):
        assert main(["jauch", "--system", "contact3"]) == 2
        assert "violated" in capsys.readouterr().out


class TestEntropyCommand:
    def test_flat3_passes(self, tmp_path, capsys):
        csv_path = tmp_path / "entropy.csv"
        assert main(["entropy", "--system", "flat3", "--csv", str(csv_path)]) == 0
        assert "verdict = pass" in capsys.readouterr().out
        header = csv_path.read_text().splitlines()[0]
        assert header == "V1,V2,U,S,T,residual"

    def test_contact3_fails(self, capsys):
        assert main(["entropy", "--system", "contact3"]) == 2
        assert "PATH DEPENDENT" in capsys.readouterr().out

    def test_custom_reference(self):
        assert main(["entropy", "--system", "ideal_gas", "--ref", "V=1.5"]) == 0

    def test_bad_reference(self, capsys):
        assert main(["entropy", "--system", "flat3", "--ref", "V1:0"]) == 1
        assert "name=value" in capsys.readouterr().err


class TestPhaseCommand:
    def test_wankel_constant(self, capsys):
        assert main(["phase", "--system", "wankel", "--tau", "1", "--revs", "2"]) == 0
        out = capsys.readouterr().out
        assert "closure fails" in out

    def test_wankel_zero_mean(self, capsys):
        assert main(["phase", "--system", "wankel", "--tau", "cos(theta)"]) == 0
        assert "closure holds" in capsys.readouterr().out

    def test_wrong_base_shape(self):
        assert main(["phase", "--system", "flat3"]) == 1


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["jauch", "--system", "contact3",
                         "--csv", str(target)]) == 2
        assert a.read_bytes() == b.read_bytes()

    def test_lift_output_byte_identical(self, system_file, square_curve, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["lift", "--file", system_file, "--curve", square_curve,
                         "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _read_plain_csv(path):
    text = path.read_text()
    assert "np." not in text
    header, *rows = list(csv.reader(text.splitlines()))
    assert rows
    return [[float(cell) for cell in row] for row in rows]


class TestCsvCells:
    def test_entropy_csv_cells_are_floats(self, tmp_path):
        system = tmp_path / "flat.ini"
        system.write_text(SYSTEM_INI.replace("P = -V2; 0", "P = -V2; -V1")
                          .replace("nodes = 5", "nodes = 3"))
        out = tmp_path / "entropy.csv"
        assert main(["entropy", "--file", str(system), "--csv", str(out)]) == 0
        rows = _read_plain_csv(out)
        assert len(rows) == 27 and all(len(row) == 6 for row in rows)

    def test_lift_csv_cells_are_floats(self, system_file, square_curve, tmp_path):
        out = tmp_path / "lift.csv"
        assert main(["lift", "--file", system_file, "--curve", square_curve,
                     "--out", str(out)]) == 0
        rows = _read_plain_csv(out)
        assert all(len(row) == 6 for row in rows)

    def test_holonomy_csv_cells_are_floats(self, system_file, square_curve, tmp_path):
        out = tmp_path / "holonomy.csv"
        assert main(["holonomy", "--file", system_file, "--curve", square_curve,
                     "--out", str(out)]) == 2
        rows = _read_plain_csv(out)
        assert all(len(row) == 6 for row in rows)

    def test_check_csv_cells_are_floats(self, system_file, tmp_path):
        out = tmp_path / "check.csv"
        assert main(["check", "--file", system_file, "--csv", str(out)]) == 2
        rows = _read_plain_csv(out)
        assert len(rows) == 5 ** 3 and all(len(row) == 4 for row in rows)

    def test_jauch_csv_cells_are_numbers(self, tmp_path):
        out = tmp_path / "jauch.csv"
        assert main(["jauch", "--system", "flat3", "--csv", str(out)]) == 0
        rows = _read_plain_csv(out)
        assert rows and all(len(row) == 5 and row[4] == 1.0 for row in rows)
        assert all(line.split(",")[4] == "1" for line in out.read_text().splitlines()[1:])

    def test_phase_csv_cells_are_numbers(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert main(["phase", "--system", "wankel", "--revs", "2", "--csv", str(out)]) == 0
        assert _read_plain_csv(out) == [[1.0, pytest.approx(2 * math.pi)],
                                        [2.0, pytest.approx(4 * math.pi)]]


class TestNonFiniteInput:
    def _system(self, tmp_path, p):
        path = tmp_path / "system.ini"
        path.write_text(SYSTEM_INI.replace("P = -V2; 0", f"P = {p}; 0")
                        .replace("nodes = 5", "nodes = 3"))
        return str(path)

    def test_nan_curvature_is_an_input_error(self, tmp_path, capsys):
        system = self._system(tmp_path, "(1e200*1e200 - 1e200*1e200)*V2")
        assert main(["check", "--file", system]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: evaluation failed at grid point "
                       "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: F_12 is nan\n")

    @pytest.mark.parametrize("command", ["check", "entropy"])
    def test_infinite_constant_is_an_input_error(self, tmp_path, capsys, command):
        assert main([command, "--file", self._system(tmp_path, "1e999*V2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_nan_lift_is_named(self, tmp_path, capsys):
        assert main(["entropy", "--file", self._system(tmp_path, "1e999*V2")]) == 1
        assert capsys.readouterr().err == (
            "error: lift failure during reconstruction at {'U': -1.0, 'V1': -1.0, 'V2': -1.0}: "
            "lift height is nan on segment 0\n")


    @pytest.mark.parametrize("p, message", [
        ("sin(1e999 + V2)", "trigonometric function of an infinite value"),
        ("(-1)^(1e999*V2)", "negative base with non-integer exponent"),
        ("(-2)^(1e999*V2 - 1e999*V2)", "negative base with non-integer exponent"),
    ])
    def test_non_finite_argument_is_an_input_error(self, tmp_path, capsys, p, message):
        system = self._system(tmp_path, p)
        assert main(["check", "--file", system]) == 1
        assert capsys.readouterr().err == ("error: evaluation failed at grid point "
                                           f"{{'U': -1.0, 'V1': -1.0, 'V2': -1.0}}: {message}\n")
        assert main(["entropy", "--file", system]) == 1
        assert capsys.readouterr().err == ("error: lift failure during reconstruction at "
                                           "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: "
                                           f"domain error during lift on segment 0: {message}\n")


    def test_infinite_height_is_named(self, tmp_path, capsys):
        # dU/dV1 = 1000*U: every lift off U = 0 overflows before V1 moves by 1
        system = self._system(tmp_path, "1000*U")
        curve = tmp_path / "path.csv"
        curve.write_text("V1,V2\n0,0\n1,0\n")
        assert main(["lift", "--file", system, "--curve", str(curve), "--u0", "1"]) == 1
        assert capsys.readouterr() == ("", "error: lift height is infinite on segment 0\n")
        assert main(["entropy", "--file", system]) == 1
        assert capsys.readouterr() == ("", "error: lift failure during reconstruction at "
                                           "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: "
                                           "lift height is infinite on segment 0\n")


class TestSystemIO:
    def test_parse_system_file(self, system_file):
        setup = parse_system_file(system_file)
        assert setup.system.chart.coords == ("U", "V1", "V2")
        assert setup.grid == 5
        assert setup.tolerances["flatness"] == 1e-9
        assert setup.region["V2"] == (-1.0, 1.0)

    def test_case_insensitive_region_keys(self, tmp_path):
        # configparser lowercases option names; coordinates still match
        path = tmp_path / "s.ini"
        path.write_text(SYSTEM_INI)
        setup = parse_system_file(str(path))
        assert "V1" in setup.region

    def test_mismatched_p_count(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[system]\nbase_coords = V1, V2\nP = -V2\n")
        with pytest.raises(InputError, match="P expressions"):
            parse_system_file(str(path))

    def test_periodic_coordinate(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[system]\nbase_coords = theta\nP = 1\n"
                        "periodic = theta: 6.283185307179586\n")
        setup = parse_system_file(str(path))
        assert setup.system.chart.period_of("theta") == pytest.approx(2 * math.pi)

    def test_builtin_setup_regions(self):
        assert builtin_setup("ideal_gas").region["V"] == (1.0, 2.0)
        assert builtin_setup("wankel").region["U"] == (-10.0, 10.0)

    def test_curve_file_sniffing(self, tmp_path):
        chart = builtin_setup("wankel").system.chart
        ini = tmp_path / "c.ini"
        ini.write_text(CURVE_INI)
        curve = parse_curve_file(str(ini), chart)
        assert curve.is_closed()
