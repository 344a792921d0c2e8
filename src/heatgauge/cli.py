"""Command-line front end.

Subcommands: check, lift, holonomy, jauch, entropy, phase. Exit codes:
0 for pass/hold, 2 for fail/violate, 1 for input errors. All numeric CSV
output uses shortest round-trip float formatting, and any randomized loop
families are seeded (default 0), so identical inputs give byte-identical
files.
"""
from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable, Sequence

from . import expr, systemio
from .bundle import BundleError
from .connection import ConnectionError_, flatness
from .entropy import EntropyError, reconstruct, residual_report
from .harness import HarnessError, default_loop_family, jauch_test, phase_demo
from .lift import CurveError, LiftError, lift_curve, work_integral
from .systemio import InputError, SystemSetup, write_csv

EXIT_PASS = 0
EXIT_INPUT_ERROR = 1
EXIT_FAIL = 2

# What a subcommand returns: summary text, verdict, CSV columns and rows.
# main alone prints the text, writes the CSV and maps the verdict to an exit code.
Outcome = tuple[str, bool, Sequence[str], Iterable[Sequence]]


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", help="built-in system name")
    group.add_argument("--file", help="system definition file")
    parser.add_argument("--tau", default="1",
                        help="torque expression in theta for the built-in wankel")


def _load_setup(args: argparse.Namespace) -> SystemSetup:
    if args.file:
        return systemio.parse_system_file(args.file)
    return systemio.builtin_setup(args.system, tau=args.tau)


def _cmd_check(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    report = flatness(setup.system, setup.region, grid=setup.grid,
                      tol=setup.tolerances["flatness"])
    return report.summary(), report.flat, report.sample_columns, report.samples


def _cmd_lift(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    curve = systemio.parse_curve_file(args.curve, setup.system.chart)
    result = lift_curve(setup.system, curve, args.u0)
    independent_work = work_integral(setup.system, result)
    text = (f"dU = {result.delta_u!r}\n"
            f"work integral = {result.work!r} (quadrature check {independent_work!r})\n"
            f"heat integral = {result.heat!r}\n"
            f"integration error estimate = {result.error!r}")
    return text, True, result.csv_columns, result.csv_rows()


def _cmd_holonomy(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    curve = systemio.parse_curve_file(args.curve, setup.system.chart)
    if not curve.is_closed():
        raise InputError("curve is not closed in the base (after period reduction)")
    result = lift_curve(setup.system, curve, args.u0)
    tol = setup.tolerances["holonomy"]
    closed = abs(result.delta_u) <= tol
    text = (f"holonomy dU = {result.delta_u!r} (tolerance {tol!r}): "
            f"{'closed' if closed else 'open'}")
    return text, closed, result.csv_columns, result.csv_rows()


def _cmd_jauch(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    loops = default_loop_family(setup.system.chart, setup.region, seed=args.seed)
    report = jauch_test(setup.system, loops, args.u0, tol=setup.tolerances["holonomy"])
    rows = [(k, r.delta_u, r.work, r.error, int(r.holds))
            for k, r in enumerate(report.records)]
    return (report.summary(), report.holds,
            ("loop", "delta_u", "work", "error", "holds"), rows)


def _parse_point(text: str) -> dict[str, float]:
    point = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"bad point component {item!r}; expected name=value")
        name, value = item.split("=", 1)
        try:
            point[name.strip()] = float(value)
        except ValueError:
            raise InputError(f"bad value in point component {item!r}") from None
    if not point:
        raise InputError("empty reference point")
    return point


def _cmd_entropy(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    chart = setup.system.chart
    if args.ref:
        ref = _parse_point(args.ref)
    else:
        ref = {c: 0.5 * (setup.region[c][0] + setup.region[c][1]) for c in chart.base}
    entropy_chart = reconstruct(setup.system, ref, setup.region,
                                grid=min(setup.grid, 9),
                                residual_tol=setup.tolerances["residual"])
    summary = residual_report(entropy_chart)
    return (summary.summary(), summary.passed,
            entropy_chart.csv_columns, entropy_chart.csv_rows())


def _cmd_phase(args: argparse.Namespace, setup: SystemSetup) -> Outcome:
    report = phase_demo(setup.system, args.revs, u0=args.u0)
    rows = [(k + 1, v) for k, v in enumerate(report.cumulative)]
    return report.summary(), True, ("revolution", "cumulative_delta_u"), rows


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parse_args leaves it as it was)."""
    parser = argparse.ArgumentParser(
        prog="heatgauge",
        description="Adiabatic connections on work line bundles: flatness, "
                    "holonomy, entropy reconstruction, and geometric phase.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="curvature and integrability verdict")
    _add_system_options(p)
    p.add_argument("--csv", help="write grid samples to this CSV file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("lift", help="adiabatic lift of a base curve")
    _add_system_options(p)
    p.add_argument("--curve", required=True, help="curve definition file")
    p.add_argument("--u0", type=float, default=0.0, help="initial energy")
    p.add_argument("--out", dest="csv", metavar="OUT",
                   help="write the lifted samples to this CSV file")
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("holonomy", help="fibre displacement over a closed loop")
    _add_system_options(p)
    p.add_argument("--curve", required=True, help="closed curve definition file")
    p.add_argument("--u0", type=float, default=0.0)
    p.add_argument("--out", dest="csv", metavar="OUT",
                   help="write the lifted samples to this CSV file")
    p.set_defaults(handler=_cmd_holonomy)

    p = sub.add_parser("jauch", help="conservation test over a loop family")
    _add_system_options(p)
    p.add_argument("--u0", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0, help="loop family seed")
    p.add_argument("--csv", help="write per-loop results to this CSV file")
    p.set_defaults(handler=_cmd_jauch)

    p = sub.add_parser("entropy", help="entropy/temperature reconstruction")
    _add_system_options(p)
    p.add_argument("--ref", help="reference base point, e.g. 'V1=0, V2=0'")
    p.add_argument("--csv", help="write the reconstructed grid to this CSV file")
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("phase", help="energy gained per revolution on a circular base")
    _add_system_options(p)
    p.add_argument("--revs", type=int, default=1, help="number of revolutions")
    p.add_argument("--u0", type=float, default=0.0)
    p.add_argument("--csv", help="write per-revolution results to this CSV file")
    p.set_defaults(handler=_cmd_phase)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, passed, columns, rows = args.handler(args, _load_setup(args))
        print(text)
        if args.csv:
            write_csv(args.csv, columns, rows)
    except (InputError, BundleError, CurveError, EntropyError, HarnessError, LiftError,
            ConnectionError_, expr.ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
