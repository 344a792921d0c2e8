"""Exact values of the lift and the verdicts built on it, the exact text
and grid that `heatgauge check` writes, and the stdout, CSV bytes and exit
code of the other subcommands and of an input error.

Every value here is pinned to the last bit (float.hex or repr), so a
change to the integrator's arithmetic, its step meshes or the order of
its floating-point operations fails this file even when every tolerance
elsewhere still passes. A deliberate change of the numbers must update
these values in the open.
"""
import hashlib
import math
import random

import pytest

from heatgauge import expr
from heatgauge.bundle import contact3, flat3, ideal_gas, wankel
from heatgauge.cli import main
from heatgauge.entropy import reconstruct
from heatgauge.harness import (default_loop_family, equivalence_test,
                               random_curved_system, random_flat_system)
from heatgauge.lift import BaseCurve, lift_curve, square_loop

REGION3 = {"U": (-1, 1), "V1": (-1, 1), "V2": (-1, 1)}
SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}


def test_ideal_gas_stiff_lift():
    system = ideal_gas()
    result = lift_curve(system, BaseCurve.polyline(system.chart, [(1.0,), (2.0,)]), 1e5)
    assert result.steps_per_segment == [4096]
    assert float(result.energies[-1]).hex() == "0x1.ec281ae0974fap+15"
    assert result.delta_u.hex() == "-0x1.2117e51f68b06p+15"


def test_contact3_square_holonomy():
    chart = contact3().chart
    centred = lift_curve(contact3(), square_loop(chart, (0.0, 0.0), 0.5), 0.0)
    assert centred.steps_per_segment == [16, 16, 16, 16]
    assert centred.delta_u.hex() == "0x1.0000000000000p-2"
    shifted = lift_curve(contact3(), square_loop(chart, (0.13, -0.07), 0.3), 0.4)
    assert shifted.delta_u.hex() == "0x1.70a3d70a3d700p-4"


def test_curved_polyline_and_its_reverse():
    system = random_curved_system(random.Random(12), SMALL3)
    curve = BaseCurve.polyline(system.chart, [(0.1, -0.2), (0.3, 0.25), (-0.1, 0.05)])
    forward = lift_curve(system, curve, 0.2)
    assert forward.steps_per_segment == [32, 16]
    assert forward.delta_u.hex() == "0x1.4e848966b9830p-4"
    backward = lift_curve(system, curve.reversed(), 0.2)
    assert backward.steps_per_segment == [16, 32]
    assert backward.delta_u.hex() == "-0x1.49e3550b4e3acp-4"


def test_parametric_circle():
    w = wankel("1 + 0.5*cos(theta)")
    circle = BaseCurve.parametric(w.chart, {"theta": "t"}, 0.0, 2.0 * math.pi)
    result = lift_curve(w, circle, 0.0)
    assert result.steps_per_segment == [16]
    assert result.delta_u.hex() == "0x1.921fb54442d18p+2"
    assert float(result.energies[7]).hex() == "0x1.7859ae93116c1p+1"


def test_flat3_reconstruction_nodes():
    chart = reconstruct(flat3(), {"V1": 0.0, "V2": 0.0}, REGION3, grid=3)
    expected = {
        0: ("0x0.0p+0", "0x1.0000000000000p+0", "0x1.1980000000000p-40"),
        5: ("-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1980000000000p-40"),
        13: ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
        26: ("0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x1.cd00000000000p-38"),
    }
    for k, (s, t, residual) in expected.items():
        got = (float(chart.entropy[k]).hex(), float(chart.temperature[k]).hex(),
               float(chart.residuals[k]).hex())
        assert got == (s, t, residual), k
    assert chart.path_dependence == 0.0


def test_criterion_3_first_flat_system_report():
    system = random_flat_system(random.Random(103))
    loops = default_loop_family(system.chart, SMALL3, seed=0, square_centers=2,
                                square_sizes=(0.15, 0.3), random_loops=2)
    report = equivalence_test(system, SMALL3, grid=3, loops=loops)
    assert repr(report) == (
        "EquivalenceReport(residual_pass=True, flatness_pass=True, holonomy_pass=True, "
        "residual_summary=ResidualSummary(max_residual=2.063504922489301e-11, "
        "mean_residual=7.183772352707438e-12, tolerance=1e-06, "
        "path_dependence=1.887379141862766e-16, path_dependent=False, "
        "passed=True), max_holonomy=6.938449814697378e-12, holonomy_tol=1e-07)")


def test_ideal_gas_reconstruction_nodes():
    chart = reconstruct(ideal_gas(), {"V": 1.0}, {"U": (1, 2), "V": (1, 2)}, grid=3)
    expected = {
        0: ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.3356000000000p-38"),
        4: ("0x1.f72eae568cecfp+0", "0x1.86baa8240ae9dp-1", "0x1.80ca000000000p-37"),
        8: ("0x1.965fea53d6e3dp+1", "0x1.428a2f98d728ap-1", "0x1.e528000000000p-40"),
    }
    for k, (s, t, residual) in expected.items():
        got = (float(chart.entropy[k]).hex(), float(chart.temperature[k]).hex(),
               float(chart.residuals[k]).hex())
        assert got == (s, t, residual), k
    assert chart.path_dependence == 0.0


def test_criterion_3_first_curved_system_report():
    rng = random.Random(103)
    for _ in range(10):
        random_flat_system(rng)
    system = random_curved_system(rng, SMALL3)
    loops = default_loop_family(system.chart, SMALL3, seed=0, square_centers=2,
                                square_sizes=(0.15, 0.3), random_loops=2)
    report = equivalence_test(system, SMALL3, grid=3, loops=loops)
    assert repr(report) == (
        "EquivalenceReport(residual_pass=False, flatness_pass=False, holonomy_pass=False, "
        "residual_summary=ResidualSummary(max_residual=0.10663708296158406, "
        "mean_residual=0.08809905622284758, tolerance=1e-06, "
        "path_dependence=0.13507004239563952, path_dependent=True, "
        "passed=False), max_holonomy=0.04965150770976179, holonomy_tol=1e-07)")


def test_contact3_entropy_cli_bytes(tmp_path, capsys):
    csv_path = tmp_path / "entropy.csv"
    assert main(["entropy", "--system", "contact3", "--csv", str(csv_path)]) == 2
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "f843f9983faecc69f97e1aa04cd6b0861b374bd86b2146341e6a9d85dfbefd09")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "a68d0add9af8ada15a25c93b22dd0b4ac16ef12d0f1c8c4d5891b300057c0fa8")


# ---------------------------------------------------------------------------
# heatgauge check: the summary text, the sampled grid and the first error

def _potential_ini(path, m, f_inner, g, bump=None, nodes=3):
    """A check input like the benchmark's symbolic systems: xi proportional
    to dS for S = U*f(V) + g(V), with f = 1 + 0.2*sin(f_inner), so the
    system is flat unless a bump is added to P_1."""
    base = [f"V{i}" for i in range(1, m + 1)]
    f = expr.add(expr.const(1.0), expr.mul(expr.const(0.2), expr.call("sin", expr.parse(f_inner))))
    g = expr.parse(g)
    u = expr.var("U")
    coeffs = [expr.neg(expr.div(expr.add(expr.mul(u, expr.differentiate(f, c)),
                                         expr.differentiate(g, c)), f)) for c in base]
    if bump:
        coeffs[0] = expr.add(coeffs[0], expr.parse(bump))
    lines = ["[system]", "name = potential", "energy = U", f"base_coords = {', '.join(base)}",
             "P = " + "; ".join(expr.unparse(p) for p in coeffs),
             "", "[region]", "U = -1.0, 1.0", *(f"{c} = -0.6, 0.6" for c in base),
             "", "[grid]", f"nodes = {nodes}"]
    path.write_text("\n".join(lines) + "\n")
    return path


def _check_hashes(tmp_path, capsys, ini):
    csv_path = tmp_path / "check.csv"
    code = main(["check", "--file", str(ini), "--csv", str(csv_path)])
    stdout = capsys.readouterr().out
    return (code, hashlib.sha256(stdout.encode()).hexdigest(),
            hashlib.sha256(csv_path.read_bytes()).hexdigest())


def test_check_flat_two_base_potential(tmp_path, capsys):
    ini = _potential_ini(tmp_path / "flat2.ini", 2,
                         "log(3 + sin((0.4 + 1.2*V1 - 0.8*V2)/(2.5 + sin(V2))))",
                         "sqrt(3 + sin(sin(-0.3 + 0.9*V2 + 1.7*V1)))", nodes=5)
    assert _check_hashes(tmp_path, capsys, ini) == (
        0, "9793462f313b743dc698fd83230da5e5f03cf3a2f0ac275ae98c4c9d89d4d668",
        "04f47050ea0024d3d3dbaab8f60574e21f3192aa6e20a7afdd4a461562664ad1")


def test_check_curved_four_base_potential(tmp_path, capsys):
    ini = _potential_ini(tmp_path / "curved4.ini", 4,
                         "sin(sqrt(3 + sin(0.1 - 1.5*V3 + 0.6*V1)))",
                         "(0.2 + 0.5*V4 - 1.1*V2)/(2.5 + sin(V1))",
                         bump="0.6*sin(1.3*V2)", nodes=2)
    assert _check_hashes(tmp_path, capsys, ini) == (
        2, "07f8774626aef646dd64537c307456c51095d72b92cf5e2442d923c94787c118",
        "f5b2ec9e6ae28a1f583c5d7ff5b36f8d020150385564b7936a6406bc810649c4")


def test_check_one_base_has_no_components(tmp_path, capsys):
    ini = tmp_path / "gas.ini"
    ini.write_text("[system]\nname = gas\nbase_coords = V\nP = -2*U/(3*V)\n"
                   "[region]\nU = 1, 2\nV = 1, 2\n[grid]\nnodes = 4\n")
    assert _check_hashes(tmp_path, capsys, ini) == (
        0, "ab1184e2b218c4098f60a0aa344ee19935406a1166031454c015ef6706ba8533",
        "89aab8228a5c865c7bb7f008071304400e8ef7a8019f4d5e4f3e1934b25bb893")


@pytest.mark.parametrize("coefficients, message", [
    # F_12 fails only from node 6 on; F_13 fails at node 0, so node 0's error wins
    ("U*V2; 1/(V2 + U); V1^0.5",
     "{'U': -1.0, 'V1': -1.0, 'V2': -1.0, 'V3': -1.0}: negative base with non-integer exponent"),
    # at node 0, F_12 and the defect fail with different errors; F_12 comes first
    ("sqrt(V2 + U); U^0.5*V1",
     "{'U': -1.0, 'V1': -1.0, 'V2': -1.0}: negative base with non-integer exponent"),
])
def test_check_first_error(tmp_path, capsys, coefficients, message):
    base = [f"V{i}" for i in range(1, coefficients.count(";") + 2)]
    ini = tmp_path / "bad.ini"
    ini.write_text("[system]\nname = bad\nbase_coords = " + ", ".join(base)
                   + f"\nP = {coefficients}\n[region]\n"
                   + "".join(f"{c} = -1, 1\n" for c in ["U", *base]) + "[grid]\nnodes = 3\n")
    assert main(["check", "--file", str(ini)]) == 1
    assert capsys.readouterr().err == f"error: evaluation failed at grid point {message}\n"


def test_check_ignores_a_coefficient_no_curvature_component_reads(tmp_path, capsys):
    # P_1 = log(V1) is undefined at V1 = -1, but no F_ij reads it
    # (dP_1/dV_j = 0 for j != 1 and no P depends on U), so check gives a
    # verdict; the Frobenius defect, which check does not build, reads it
    # through P_1*F_23
    ini = tmp_path / "unread.ini"
    ini.write_text("[system]\nname = unread\nbase_coords = V1, V2, V3\nP = log(V1); V3; 0\n"
                   "[region]\nU = -1, 1\nV1 = -1, 1\nV2 = -1, 1\nV3 = -1, 1\n"
                   "[grid]\nnodes = 2\n")
    assert main(["check", "--file", str(ini)]) == 2
    assert capsys.readouterr().out == (
        "system: unread\nverdict: curved\nmax |F| = 1.0\ntolerance = 1e-09\n"
        "F[1,2] = 0.0\nF[1,3] = 0.0\nF[2,3] = (-1.0)\n")


# ---------------------------------------------------------------------------
# The other subcommands: stdout, exit code and the SHA-256 of the CSV written

SQUARE_CSV = "V1,V2\n0.0,0.0\n0.5,0.0\n0.5,0.5\n0.0,0.5\n0.0,0.0\n"


def _cli_run(tmp_path, capsys, argv):
    """Exit code, stdout, stderr and the SHA-256 of out.csv (None if not written)."""
    (tmp_path / "square.csv").write_text(SQUARE_CSV)
    out = tmp_path / "out.csv"
    argv = [str(tmp_path / a) if a in ("square.csv", "out.csv") else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    return code, captured.out, captured.err, sha


@pytest.mark.parametrize("argv, code, stdout, sha", [
    (["lift", "--system", "contact3", "--curve", "square.csv", "--u0", "0.25",
      "--out", "out.csv"], 0,
     "dU = 0.25\nwork integral = -0.25 (quadrature check -0.25)\nheat integral = 0.0\n"
     "integration error estimate = 1.25e-13\n",
     "cdd83e5fdd90c321fa8fa025b9ed33a8fcfc98b6747cbd71eab2d36fc408eea0"),
    (["holonomy", "--system", "flat3", "--curve", "square.csv", "--u0", "0.3",
      "--out", "out.csv"], 0,
     "holonomy dU = 0.0 (tolerance 1e-07): closed\n",
     "bcab9fed83e80ab8b3117419f45c66cfd8c33ad6d103eed3184f34a321e6ebad"),
    (["holonomy", "--system", "contact3", "--curve", "square.csv", "--out", "out.csv"], 2,
     "holonomy dU = 0.25 (tolerance 1e-07): open\n",
     "a6773dd1688811ff22d0c6f065f3190bfe6c1a93f93edbe032834aa66628c932"),
    (["jauch", "--system", "contact3", "--seed", "4", "--csv", "out.csv"], 2,
     "conservation violated on 25 loops (max |dU| = 1.204368500604343, tolerance = 1e-07)\n",
     "558ec98b4454ba18440d6976a098af79e52a5a76a2ce233cd15e794e1c2bab2d"),
    (["phase", "--system", "wankel", "--tau", "1 + 0.5*cos(theta)", "--revs", "3",
      "--u0", "0.5", "--csv", "out.csv"], 0,
     "cumulative dU per revolution: [6.283185307179586, 12.566370614359172, "
     "18.849555921538762]; locally flat, global closure fails\n",
     "c674f834097c8632eeacbabf88fd2d633f0a46afe4c696822ae88f27fe0ef48f"),
    (["entropy", "--system", "ideal_gas", "--ref", "V=1.25", "--csv", "out.csv"], 0,
     "residual max = 2.82016632269233e-11, mean = 1.0714465665861297e-11, "
     "tolerance = 1e-06, path dependence = 0.0, verdict = pass\n",
     "d48765b36a5760fdd95a8ae7d1c57f6a8e6d2ce76de6951ef0e8f1593c319aae"),
], ids=["lift", "holonomy-closed", "holonomy-open", "jauch", "phase", "entropy-ref"])
def test_cli_subcommand_bytes(tmp_path, capsys, argv, code, stdout, sha):
    assert _cli_run(tmp_path, capsys, argv) == (code, stdout, "", sha)


def test_cli_input_error_bytes(tmp_path, capsys):
    argv = ["entropy", "--system", "flat3", "--ref", "V1=0", "--csv", "out.csv"]
    assert _cli_run(tmp_path, capsys, argv) == (
        1, "", "error: reference point must bind every base coordinate\n", None)
