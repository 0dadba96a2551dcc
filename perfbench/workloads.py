"""The benchmark's workloads: which CLI commands each runs, and how each
command's output is checked.

A unit is the group of commands whose wall time is one sample of
``op_wall_*``. Every command runs in-process through ``semiq.cli.main``
and builds its own geometry, as one CLI call does. A verifier returns
the accuracy headrooms ``log10(tol / residual)`` of the command's
checks that are expected to pass (exact zeros give none) and raises
``Mismatch`` when the output is wrong.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# the expression-defined geometry of the README: exp(2*x1) metric, Levi-Civita
CONFIG = str(HERE / "exp_plane.json")

CHECK_POINTS = {"cpn2-check": 2, "small-charts-check": 5}

# expected failing checks; every other check of every geometry must pass
EXPECTED_FAILURES = {"flat-torsion": {"classical-compat:poisson-compat", "qlc:qlc-residual"}}

DEFAULT_SUITES = {
    "cpn": ["classical-compat", "dga", "metric", "qlc", "cpn-catalogue"],
    "flat": ["classical-compat", "dga", "metric", "evolution"],
    CONFIG: ["classical-compat", "dga", "metric", "evolution"],
    "flat-torsion": ["classical-compat", "qlc"],
}

EVAL_TOL = 1e-9     # the built-in geometries' check tolerance
EVAL_GEOMETRIES = (("cpn", 1), ("cpn", 2), ("flat", 1))
EVAL_OPS = ("star", "commutator", "wedge", "nablaQ", "evolve")
EVAL_PER_KIND = 20  # commands per (op, geometry) pair in one cycle
BOX = {"cpn": 0.75, "flat": 1.5}


class Mismatch(Exception):
    """A command's output disagrees with what it must be."""


@dataclass(frozen=True)
class Command:
    argv: tuple
    verify: Callable[[int, str], list]


@dataclass(frozen=True)
class Workload:
    units: list             # list of tuples of Commands, run in a cycle
    whole_cycles: bool      # end a run only after a whole cycle of units
    min_units: int
    tail_pct: int           # percentile of unit wall time reported as the tail


def _headroom(tol: float, residual: float) -> list:
    if not math.isfinite(residual):
        raise Mismatch(f"non-finite residual {residual}")
    return [math.log10(tol / residual)] if residual > 0 else []


# -- check workloads ----------------------------------------------------------

def _verify_check(geometry: str):
    expected_failures = EXPECTED_FAILURES.get(geometry, set())
    suites = DEFAULT_SUITES[geometry]

    def verify(code: int, out: str) -> list:
        report = json.loads(out)
        if [r["suite"] for r in report] != suites or not all(r["checks"] for r in report):
            raise Mismatch(f"{geometry}: suites {[r['suite'] for r in report]} ran")
        failing = {f"{r['suite']}:{c['check']}" for r in report
                   for c in r["checks"] if not c["passed"]}
        if failing != expected_failures:
            raise Mismatch(f"{geometry}: failing checks {sorted(failing)}")
        if code != (1 if expected_failures else 0):
            raise Mismatch(f"{geometry}: exit code {code}")
        rooms = []
        for r in report:
            for c in r["checks"]:
                if c["passed"]:
                    rooms += _headroom(c["tol"], max(c["max_abs_classical"],
                                                     c["max_abs_lambda"]))
        return rooms

    return verify


def _check(geometry: str, n: int, points: int, seed: int) -> Command:
    argv = ["check", geometry, "--points", str(points), "--seed", str(seed)]
    if geometry in ("cpn", "flat"):
        argv[2:2] = ["--n", str(n)]
    return Command(tuple(argv), _verify_check(geometry))


def _check_seeds(seed: int, count: int) -> list:
    """The workload seed itself first, so seed 1 includes the baseline run."""
    return [seed] + [seed * 1000 + k for k in range(1, count)]


def cpn2_check(seed: int) -> Workload:
    pts = CHECK_POINTS["cpn2-check"]
    units = [(_check("cpn", 2, pts, s),) for s in _check_seeds(seed, 8)]
    return Workload(units, False, len(units), 75)


def small_charts_check(seed: int) -> Workload:
    pts = CHECK_POINTS["small-charts-check"]
    units = [(_check("cpn", 1, pts, s), _check("flat", 1, pts, s),
              _check(CONFIG, 0, pts, s), _check("flat-torsion", 0, pts, s))
             for s in _check_seeds(seed, 8)]
    return Workload(units, False, len(units), 75)


# -- interactive eval ----------------------------------------------------------

class Poly:
    """Real-coefficient polynomial in chart coordinates, as text and in closed form."""

    def __init__(self, rng: random.Random, dim: int):
        # two quadratic terms and a linear one, so every command costs alike
        self.terms = [(round(rng.uniform(-2, 2), 2),
                       tuple(rng.randrange(dim) for _ in range(deg)))
                      for deg in (2, 2, 1)]
        self.dim = dim

    def text(self) -> str:
        out = "".join(f"{c:+.2f}*" + "*".join(f"x{i + 1}" for i in idx)
                      for c, idx in self.terms)
        return out.lstrip("+")

    def value(self, pt) -> float:
        return sum(c * math.prod(pt[i] for i in idx) for c, idx in self.terms)

    def grad(self, pt) -> list:
        g = [0.0] * self.dim
        for c, idx in self.terms:
            for k in range(len(idx)):
                rest = idx[:k] + idx[k + 1:]
                g[idx[k]] += c * math.prod(pt[i] for i in rest)
        return g


def _pair(out: str) -> tuple:
    m = re.search(r"classical (\S+)  lambda-coefficient (\S+)", out)
    if m is None:
        raise Mismatch(f"unparsed eval output {out!r}")
    c, l = complex(m.group(1)), complex(m.group(2))
    if not (cmath.isfinite(c) and cmath.isfinite(l)):
        raise Mismatch(f"non-finite eval output {out!r}")
    return c, l


def _finite_text(out: str) -> None:
    if re.search(r"nan|inf", out, re.IGNORECASE):
        raise Mismatch(f"non-finite output {out!r}")


def _flat_omega(n: int, i: int, j: int) -> float:
    """Canonical Poisson bivector om^{ij} of the flat chart (q's then p's)."""
    return 1.0 if j == i + n else -1.0 if i == j + n else 0.0


def _verify_eval(op: str, geo: str, n: int, pt, a: Poly, b: Poly, zz):
    dim = 2 * n

    def flat_bracket() -> complex:
        ga, gb = a.grad(pt), b.grad(pt)
        return sum(_flat_omega(n, i, j) * ga[i] * gb[j]
                   for i in range(dim) for j in range(dim))

    def near(residual: float, what: str) -> list:
        if residual > EVAL_TOL:
            raise Mismatch(f"eval {op} on {geo}: {what} off by {residual}")
        return _headroom(EVAL_TOL, residual)

    def verify(code: int, out: str) -> list:
        if code != 0:
            raise Mismatch(f"eval {op} exited {code}")
        if op == "star":
            c, l = _pair(out)
            rooms = near(abs(c - a.value(pt) * b.value(pt)), "classical slot")
            if geo == "flat":
                rooms += near(abs(l - 0.5 * flat_bracket()), "lambda slot")
            return rooms
        if op == "commutator":
            c, l = _pair(out)
            expected = flat_bracket() if geo == "flat" else zz
            return near(abs(c), "classical slot") + near(abs(l - expected), "lambda slot")
        _finite_text(out)
        if op == "evolve":
            m = re.search(r"two-route residual = (\S+)", out)
            if m is None:
                raise Mismatch(f"unparsed evolve output {out!r}")
            return near(float(m.group(1)), "two-route residual")
        return []

    return verify


def _eval_command(rng: random.Random, op: str, geo: str, n: int, expected) -> Command:
    dim = 2 * n
    half = 0.9 * BOX[geo]
    at = ",".join(f"{rng.uniform(-half, half):.4f}" for _ in range(dim))
    pt = [float(x) for x in at.split(",")]
    a, b = Poly(rng, dim), Poly(rng, dim)
    zz = None
    geom = ["--geometry", geo, "--n", str(n)]
    # --opt=value, since values may start with a minus sign
    if op == "evolve":
        argv = ["evolve", *geom, f"--H={b.text()}", f"--a={a.text()}", f"--at={at}"]
    elif op == "commutator" and geo == "cpn":
        i, j = rng.randrange(n), rng.randrange(n)
        argv = ["eval", op, *geom, f"--a=z{i + 1}", f"--b=conj(z{j + 1})", f"--at={at}"]
        zz = complex(expected[n](pt)[1][i, j])
    else:
        argv = ["eval", op, *geom, f"--a={a.text()}", f"--b={b.text()}", f"--at={at}"]
    return Command(tuple(argv), _verify_eval(op, geo, n, pt, a, b, zz))


def interactive_eval(seed: int) -> Workload:
    """Every (op, geometry) pair the same number of times, in seeded order,
    so that a run's mix, and with it the median, does not depend on the seed."""
    from semiq.geometries import cpn_expected, make_cpn

    def expected_for(n):
        G = make_cpn(n)
        return lambda pt: cpn_expected(G, "z-zbar-comm", pt)

    expected = {n: expected_for(n) for geo, n in EVAL_GEOMETRIES if geo == "cpn"}
    rng = random.Random(seed)
    units = [(_eval_command(rng, op, geo, n, expected),)
             for op in EVAL_OPS for geo, n in EVAL_GEOMETRIES
             for _ in range(EVAL_PER_KIND)]
    rng.shuffle(units)
    return Workload(units, True, 1000, 99)


# (geometry, n) pairs each workload builds; set-up time is their construction
GEOMETRIES = {
    "cpn2-check": (("cpn", 2),),
    "small-charts-check": (("cpn", 1), ("flat", 1), (CONFIG, 1), ("flat-torsion", 1)),
    "interactive-eval": EVAL_GEOMETRIES,
}

WORKLOADS = {
    "cpn2-check": cpn2_check,
    "small-charts-check": small_charts_check,
    "interactive-eval": interactive_eval,
}
