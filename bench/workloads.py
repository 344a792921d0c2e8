"""The three benchmark workloads: their seeded inputs and their ops.

A workload is built by ``build(name, seed, workdir)``. Building writes
every input file (INI systems, CSV and INI curves) under ``workdir`` and
returns a ``Workload``: a fixed cycle of ops that the runner repeats
until its time is up. Each op is one closed-loop call into heatgauge
plus a check of its result against a reference that shares no code with
the call (see oracles.py).

Every kind of op appears a fixed number of times per round of the cycle,
and the seed chooses only the instances (systems, curves, heights; on
``equivalence``, the loop families), so the mix of work is the same for
every seed.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from heatgauge import bundle, cli, expr, harness
from heatgauge.geometry import Chart

import oracles

SMALL3 = {"U": (-0.6, 0.6), "V1": (-0.6, 0.6), "V2": (-0.6, 0.6)}
REGION3 = {"U": (-1.0, 1.0), "V1": (-1.0, 1.0), "V2": (-1.0, 1.0)}
IDEAL_GAS_REGION = {"U": (1.0, 2.0), "V": (1.0, 2.0)}
EXIT_PASS, EXIT_FAIL = 0, 2


@dataclass
class Op:
    label: str                 # unique within the workload
    system: str                # which system the op loads, for the seen-system share
    call: Callable[[], Any]    # the timed call into heatgauge
    check: Callable[[Any], int]  # raises oracles.CheckFailure; returns checks made
    # The bytes of the op's output (the CSV it writes, or its report),
    # hashed after every run of the op: they must not change between repeats.
    output: Callable[[Any], bytes] | None = None
    kind: str = ""             # the group of like ops it belongs to


@dataclass
class Workload:
    cycle: list[Op]
    mix: dict[str, int]        # ops of each kind in one round of the cycle


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    builders = {"equivalence": _equivalence, "transport": _transport,
                "symbolic": _symbolic}
    return builders[name](random.Random(seed), workdir)


def _workload(groups: dict[str, list[Op]], mix: dict[str, int]) -> Workload:
    """Rounds of ops, enough for every instance to appear: each round holds
    mix[kind] ops of each kind, taken round-robin from its instances and
    spread evenly over the round."""
    for kind, ops in groups.items():
        for op in ops:
            op.kind = kind
    rounds = max(-(-len(groups[k]) // n) for k, n in mix.items())
    slots = sorted(((j + 0.5) / n, k) for k, n in mix.items() for j in range(n))
    cursors = dict.fromkeys(mix, 0)
    cycle = []
    for _ in range(rounds):
        for _, kind in slots:
            ops = groups[kind]
            cycle.append(ops[cursors[kind] % len(ops)])
            cursors[kind] += 1
    return Workload(cycle, dict(mix))


# ---------------------------------------------------------------------------
# Calling the CLI in-process

def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(label: str, system: str, argv: list[str], want_code: int,
            check: Callable[[], int] = lambda: 0, csv: str | None = None) -> Op:
    def verify(result) -> int:
        code, text = result
        if code != want_code:
            raise oracles.CheckFailure(
                f"{label}: exit code {code}, want {want_code}: {text.strip()[-300:]}")
        return 1 + check()

    return Op(label, system, lambda: run_cli(argv), verify,
              None if csv is None else lambda result: _read_bytes(csv))


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _system_ini(path: str, system, region, nodes: int | None = None) -> str:
    chart = system.chart
    lines = ["[system]", f"name = {system.name}", f"energy = {chart.vertical}",
             f"base_coords = {', '.join(chart.base)}",
             "P = " + "; ".join(expr.unparse(p) for p in system.coefficients),
             "", "[region]"]
    lines += [f"{c} = {region[c][0]!r}, {region[c][1]!r}" for c in chart.coords]
    if nodes is not None:
        lines += ["", "[grid]", f"nodes = {nodes}"]
    return _write(path, "\n".join(lines) + "\n")


def _polyline_csv(path: str, names: tuple[str, ...], points) -> str:
    rows = [",".join(names)] + [",".join(repr(float(x)) for x in p) for p in points]
    return _write(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# equivalence: criterion 3 traffic, many short scalar lifts in reconstruct

# Acceptance criterion 3 runs equivalence_test on 20 random systems (10
# random_flat_system then 10 random_curved_system draws from
# random.Random(103)) and the three built-ins, at grid 4, each with a loop
# family of 2 square centres x 2 sizes plus 2 random loops. The workload
# runs the first EQ_RANDOM_PAIRS flat and curved systems of that same draw
# and the built-ins, with the same loop family, at grid 3. A random system
# takes 3-6 s at grid 4 and 1.4-2.4 s at grid 3, so a 30 s run holds about
# six grid-4 ops, or a dozen at grid 3. The systems are criterion 3's own
# rather than drawn from the run's seed: their cost varies by about 20%
# from one system to the next, and with a dozen ops in a run, systems
# drawn per seed made op_p50_ms vary by 20-26% (IQR / median) from seed to
# seed. The seed draws the loop families.
CRITERION3_SEED = 103
CRITERION3_DRAWS = 10   # flat systems drawn before the curved ones
EQ_RANDOM_PAIRS = 4
EQ_GRID = 3
EQ_LOOPS = {"square_centers": 2, "square_sizes": (0.15, 0.3), "random_loops": 2}
EQ_BUILTINS = ("flat3", "contact3", "ideal_gas")
# Ops of each kind in one round: every random system once, each built-in
# once, and one entropy CLI call, which takes the built-ins in turn. About
# 85% of a round's time goes to the random systems, 13% to the entropy CLI
# and 2% to the built-ins.
EQ_ROUND = {"random": 2 * EQ_RANDOM_PAIRS, **dict.fromkeys(EQ_BUILTINS, 1), "entropy": 1}


def _equivalence_op(label: str, system, region, expect_flat: bool, loop_seed: int) -> Op:
    loops = harness.default_loop_family(system.chart, region, seed=loop_seed, **EQ_LOOPS)

    def call():
        return harness.equivalence_test(system, region, grid=EQ_GRID, loops=loops)

    def verify(report) -> int:
        verdicts = (report.residual_pass, report.flatness_pass, report.holonomy_pass)
        return (oracles.expect(f"{label}: three verdicts agree", report.agree, True)
                + oracles.expect(f"{label}: verdicts match construction",
                                 verdicts, (expect_flat,) * 3))

    # the report's repr holds every number it carries, in full
    return Op(label, system.name, call, verify, output=lambda report: repr(report).encode())


def _equivalence(rng: random.Random, workdir: str) -> Workload:
    groups: dict[str, list[Op]] = {kind: [] for kind in EQ_ROUND}
    draw = random.Random(CRITERION3_SEED)
    flats = [harness.random_flat_system(draw, name=f"random_flat_{k}")
             for k in range(CRITERION3_DRAWS)]
    for k in range(EQ_RANDOM_PAIRS):
        curved = harness.random_curved_system(draw, SMALL3, name=f"random_curved_{k}")
        for system, expect_flat in ((flats[k], True), (curved, False)):
            groups["random"].append(_equivalence_op(system.name, system, SMALL3, expect_flat,
                                                    rng.randrange(1 << 30)))
    v_ref = 0.5 * sum(IDEAL_GAS_REGION["V"])
    for name, system, region, expect_flat, want, check in (
            ("flat3", bundle.flat3(), REGION3, True, EXIT_PASS, oracles.flat3_entropy),
            ("contact3", bundle.contact3(), REGION3, False, EXIT_FAIL, lambda p: 0),
            ("ideal_gas", bundle.ideal_gas(), IDEAL_GAS_REGION, True, EXIT_PASS,
             lambda p: oracles.ideal_gas_entropy(p, v_ref))):
        groups[name].append(_equivalence_op(name, system, region, expect_flat,
                                            rng.randrange(1 << 30)))
        out = os.path.join(workdir, f"entropy_{name}.csv")
        groups["entropy"].append(_cli_op(f"cli entropy {name}", f"cli:{name}",
                                         ["entropy", "--system", name, "--csv", out], want,
                                         lambda p=out, c=check: c(p), csv=out))
    return _workload(groups, EQ_ROUND)


# ---------------------------------------------------------------------------
# transport: few, long, single lifts through the CLI

TR_INSTANCES = 8        # seeded instances of each op kind
TR_LOOP_VERTICES = 40   # many-vertex polyline loops ...
TR_LONG_LOOP_VERTICES = 200  # ... and longer ones
TR_IDEAL_GAS_U0 = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
# The ideal-gas sweep runs over V: 1 -> 2 for every seed. At u0 = 1e5 the
# absolute step tolerance is within a few ulps of U, and whether the lift
# returns depends on round-off along the path; on this path it returns
# after 4096 steps. Compressions, or other paths, from u0 = 1e5 may not.
TR_IDEAL_GAS_PATH = (1.0, 2.0)
TR_REVOLUTIONS = 6
# Ops of each kind in one round of the cycle. The counts put the median
# inside the 40-vertex loop ops (~45 ms) and the 90th percentile inside the
# slow tail (200-vertex loops, the u0 = 1e5 lift, jauch), not on the edge
# of either group.
TR_ROUND = {
    "holonomy contact3 loop": 3, "lift flat3 loop": 3, "holonomy flat_ini loop": 2,
    "holonomy contact3 square": 1, "holonomy contact3 circle": 1,
    "holonomy flat3 circle": 1, "phase wankel": 1,
    **{f"lift ideal_gas u0={u0:g}": 1 for u0 in TR_IDEAL_GAS_U0},
    "holonomy contact3 long_loop": 2, "lift flat3 long_loop": 2, "jauch flat_ini": 1,
}


def _star_loop(rng: random.Random, center, radius: float, vertices: int):
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(vertices))
    pts = [(center[0] + radius * rng.uniform(0.4, 1.0) * math.cos(a),
            center[1] + radius * rng.uniform(0.4, 1.0) * math.sin(a)) for a in angles]
    return pts + [pts[0]]


def _shoelace(points) -> float:
    """Loop integral of -V2 dV1 over a polyline, exact for straight segments."""
    return sum(-(y0 + y1) / 2.0 * (x1 - x0)
               for (x0, y0), (x1, y1) in zip(points, points[1:]))


def _transport(rng: random.Random, workdir: str) -> Workload:
    def path(name):
        return os.path.join(workdir, name)

    groups: dict[str, list[Op]] = {kind: [] for kind in TR_ROUND}

    def loop_ops(shape: str, k: int, loop: list) -> None:
        tag = f"{shape}_{k}"
        loop_csv = _polyline_csv(path(f"{tag}.csv"), ("V1", "V2"), loop)
        out = path(f"holonomy_contact3_{tag}.csv")
        groups[f"holonomy contact3 {shape}"].append(_cli_op(
            f"holonomy contact3 {tag}", "contact3",
            ["holonomy", "--system", "contact3", "--curve", loop_csv, "--out", out],
            EXIT_FAIL, lambda o=out, a=_shoelace(loop): oracles.holonomy(o, a), csv=out))
        u0 = round(rng.uniform(-1.0, 1.0), 6)
        out = path(f"lift_flat3_{tag}.csv")
        groups[f"lift flat3 {shape}"].append(_cli_op(
            f"lift flat3 {tag}", "flat3",
            ["lift", "--system", "flat3", "--curve", loop_csv, "--u0", repr(u0),
             "--out", out], EXIT_PASS,
            lambda o=out, u=u0, p=loop[0]: oracles.flat3_lift(o, u, p), csv=out))

    for k in range(TR_INSTANCES):
        loop = _star_loop(rng, (0.0, 0.0), 0.55, TR_LOOP_VERTICES)
        loop_ops("loop", k, loop)
        loop_ops("long_loop", k, _star_loop(rng, (0.0, 0.0), 0.55, TR_LONG_LOOP_VERTICES))

        system = harness.random_flat_system(rng, name=f"flat_ini_{k}")
        ini = _system_ini(path(f"flat_ini_{k}.ini"), system, SMALL3)
        out = path(f"holonomy_flat_ini_{k}.csv")
        groups["holonomy flat_ini loop"].append(_cli_op(
            f"holonomy {system.name} loop_{k}", ini,
            ["holonomy", "--file", ini, "--curve", path(f"loop_{k}.csv"), "--out", out],
            EXIT_PASS, lambda o=out: oracles.holonomy(o, 0.0, oracles.ZERO_TOL), csv=out))
        out = path(f"jauch_{k}.csv")
        groups["jauch flat_ini"].append(_cli_op(
            f"jauch {system.name}", ini,
            ["jauch", "--file", ini, "--seed", str(rng.randrange(1000)), "--csv", out],
            EXIT_PASS, lambda o=out: _jauch_holds(o), csv=out))

        side = round(rng.uniform(0.1, 0.8), 3)
        cx, cy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        h = side / 2.0
        square = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h),
                  (cx - h, cy - h)]
        square_csv = _polyline_csv(path(f"square_{k}.csv"), ("V1", "V2"), square)
        out = path(f"holonomy_square_{k}.csv")
        groups["holonomy contact3 square"].append(_cli_op(
            f"holonomy contact3 square_{k}", "contact3",
            ["holonomy", "--system", "contact3", "--curve", square_csv, "--out", out],
            EXIT_FAIL, lambda o=out, s=side: oracles.holonomy(o, oracles.square_area(s)),
            csv=out))

        radius = round(rng.uniform(0.1, 0.6), 3)
        cx, cy = rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)
        circle = _write(path(f"circle_{k}.ini"),
                        f"[curve]\nV1 = {cx!r} + {radius!r}*cos(t)\n"
                        f"V2 = {cy!r} + {radius!r}*sin(t)\n"
                        f"t_range = 0, {2.0 * math.pi!r}\n")
        for name, want, area, tol in (
                ("contact3", EXIT_FAIL, oracles.circle_area(radius), oracles.REL_TOL),
                ("flat3", EXIT_PASS, 0.0, oracles.ZERO_TOL)):
            out = path(f"holonomy_{name}_circle_{k}.csv")
            groups[f"holonomy {name} circle"].append(_cli_op(
                f"holonomy {name} circle_{k}", name,
                ["holonomy", "--system", name, "--curve", circle, "--out", out], want,
                lambda o=out, a=area, t=tol: oracles.holonomy(o, a, t), csv=out))

        mean = round(rng.uniform(0.5, 1.5), 3)
        terms = [f"{mean!r}"]
        for harmonic in (1, 2, 3):
            terms.append(f"{round(rng.uniform(-0.4, 0.4), 3)!r}*cos({harmonic}*theta)")
            terms.append(f"{round(rng.uniform(-0.4, 0.4), 3)!r}*sin({harmonic}*theta)")
        tau = " + ".join(terms)
        out = path(f"phase_{k}.csv")
        groups["phase wankel"].append(_cli_op(
            f"phase wankel tau_{k}", f"wankel:{tau}",
            ["phase", "--system", "wankel", "--tau", tau, "--revs", str(TR_REVOLUTIONS),
             "--csv", out], EXIT_PASS,
            lambda o=out, m=mean: oracles.wankel_phase(o, m), csv=out))

    v0, v1 = TR_IDEAL_GAS_PATH
    vpath = _polyline_csv(path("vpath.csv"), ("V",), [(v0,), (v1,)])
    for u0 in TR_IDEAL_GAS_U0:
        out = path(f"lift_ideal_gas_{u0:g}.csv")
        groups[f"lift ideal_gas u0={u0:g}"].append(_cli_op(
            f"lift ideal_gas u0={u0!r}", "ideal_gas",
            ["lift", "--system", "ideal_gas", "--curve", vpath, "--u0", repr(u0),
             "--out", out], EXIT_PASS,
            lambda o=out, u=u0: oracles.ideal_gas_lift(o, u, v0, v1), csv=out))
    return _workload(groups, TR_ROUND)


def _jauch_holds(path: str) -> int:
    header, rows = oracles.read_csv(path)
    holds = header.index("holds")
    return sum(oracles.expect(f"jauch loop {k} holds", int(r[holds]), 1)
               for k, r in enumerate(rows))


# ---------------------------------------------------------------------------
# symbolic: parse -> differentiate -> geometry -> compile -> grid, no lift

SY_SYSTEMS = 72             # originals per seed; each also gets a gauge twin
SY_DEPTH = 2                # nested functions in each random S-potential part
SY_NODES = {2: 8, 3: 4, 4: 3}  # grid nodes per axis by number of base coordinates
SY_REGION_HALF_WIDTH = 0.6


SY_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "square", "quotient")


def function_deck(rng: random.Random, draws: int) -> Iterator[str]:
    """The nested functions of a whole workload, dealt from a shuffled deck
    that holds every function equally often: each system still gets random
    functions, but every seed gets the same amount of each, so the seed
    changes the total work less."""
    deck = list(SY_FUNCTIONS) * -(-draws // len(SY_FUNCTIONS))
    rng.shuffle(deck)
    return iter(deck)


def random_expression(rng: random.Random, names: list[str], depth: int,
                      functions: Iterator[str]) -> expr.Expression:
    """A random linear form in two of the names, under `depth` random
    nested functions. Every seed draws expressions of the same depth and
    nearly the same size, and they stay finite on the sampling box in the
    same way as the test suite's random expressions: log and sqrt take
    3 + sin(...), exp takes sin(...), quotients have 2.5 + sin(V) below."""
    e = expr.Const(round(rng.uniform(-1.0, 1.0), 3))
    for name in rng.sample(names, 2):
        e = expr.BinOp("+", e, expr.BinOp("*", expr.Const(round(rng.uniform(-2.0, 2.0), 3)),
                                          expr.Var(name)))
    for _ in range(depth):
        kind = next(functions)
        if kind == "square":
            e = expr.BinOp("^", e, expr.Const(2.0))
        elif kind == "quotient":
            e = expr.BinOp("/", e, expr.BinOp("+", expr.Const(2.5),
                                              expr.Call("sin", expr.Var(rng.choice(names)))))
        elif kind in ("log", "sqrt"):
            e = expr.Call(kind, expr.BinOp("+", expr.Const(3.0), expr.Call("sin", e)))
        elif kind == "exp":
            e = expr.Call("exp", expr.Call("sin", e))
        else:
            e = expr.Call(kind, e)
    return e


def potential_system(rng: random.Random, m: int, curved: bool, name: str,
                     functions: Iterator[str]):
    """Coefficients of dS/dU-normalized xi for S = U*f(V) + g(V), so the
    system is flat by construction; a bump c*sin(k*V2) added to P_1 bends it."""
    base = [f"V{i}" for i in range(1, m + 1)]
    chart = Chart(("U", *base))
    f = expr.add(expr.const(1.0), expr.mul(expr.const(round(rng.uniform(0.1, 0.3), 3)),
                                           expr.call("sin", random_expression(
                                               rng, base, SY_DEPTH, functions))))
    g = random_expression(rng, base, SY_DEPTH, functions)
    u = expr.var("U")
    coeffs = [expr.neg(expr.div(expr.add(expr.mul(u, expr.differentiate(f, c)),
                                         expr.differentiate(g, c)), f)) for c in base]
    if curved:
        c = round(rng.uniform(0.3, 0.8), 3) * rng.choice((-1.0, 1.0))
        k = round(rng.uniform(0.5, 2.0), 3)
        coeffs[0] = expr.add(coeffs[0], expr.mul(expr.const(c), expr.call(
            "sin", expr.mul(expr.const(k), expr.var("V2")))))
    return bundle.WorkSystem(name, chart, tuple(coeffs))


def _symbolic(rng: random.Random, workdir: str) -> Workload:
    groups: dict[str, list[Op]] = {}
    verdicts: dict[int, int] = {}
    # four random expressions per system (f, g and the gauge's a and b)
    functions = function_deck(rng, 4 * SY_DEPTH * SY_SYSTEMS)
    for k in range(SY_SYSTEMS):
        m = 2 + k % 3
        curved = (k // 3) % 2 == 1
        system = potential_system(rng, m, curved, f"potential_{k}", functions)
        region = {"U": (-1.0, 1.0)}
        region.update({c: (-SY_REGION_HALF_WIDTH, SY_REGION_HALF_WIDTH)
                       for c in system.chart.base})
        base = list(system.chart.base)
        gauge = bundle.GaugeTransform(
            expr.add(expr.const(1.5), expr.mul(expr.const(0.5), expr.call(
                "sin", random_expression(rng, base, SY_DEPTH, functions)))),
            random_expression(rng, base, SY_DEPTH, functions))
        twin = bundle.apply_gauge(system, gauge, region=region, seed=k)
        want = EXIT_FAIL if curved else EXIT_PASS
        nodes = SY_NODES[m]
        for role, sys_ in (("original", system), ("twin", twin)):
            ini = _system_ini(os.path.join(workdir, f"{role}_{k}.ini"), sys_, region, nodes)
            out = os.path.join(workdir, f"check_{role}_{k}.csv")
            groups.setdefault(f"{role} m={m}", []).append(
                _check_op(f"check {role} {k}", ini, out, want, nodes ** (m + 1), k, verdicts))
    return _workload(groups, dict.fromkeys(groups, 1))


def _check_op(label: str, ini: str, out: str, want: int, rows: int, pair: int,
              verdicts: dict[int, int]) -> Op:
    def verify(result) -> int:
        code, text = result
        checks = oracles.expect(f"{label}: verdict matches construction", code, want)
        other = verdicts.get(pair)
        if other is not None:
            checks += oracles.expect(f"{label}: verdict matches its gauge partner", code, other)
        verdicts[pair] = code
        return checks + oracles.expect(f"{label}: grid rows", oracles.count_rows(out), rows)

    return Op(label, ini, lambda: run_cli(["check", "--file", ini, "--csv", out]),
              verify, lambda result: _read_bytes(out))
