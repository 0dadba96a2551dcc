"""Command-line driver: verification suites, pointwise evaluation, evolution."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .errors import ConfigError, SemiqError
from .geometry import Field, GeometryData, check_jet_bytes, geometry_from_config
from .geometries import make_cpn, make_flat, make_flat_torsion
from .suites import SUITES, emit_report, run_suite
from . import semiquant as sq


def build_geometry(name: str, n: int | None = None) -> GeometryData:
    """The named geometry. flat and cpn have chart dimension 2n (n = 1 when
    unset); a fixed chart takes n only when 2n is its dimension. An n whose
    jets would not fit in MAX_JET_BYTES is refused before anything is built."""
    if n is not None:
        check_jet_bytes(2 * n, f"--n {n}")
    if name == "flat":
        return make_flat(1 if n is None else n)
    if name == "cpn":
        return make_cpn(1 if n is None else n)
    if name == "flat-torsion":
        G = make_flat_torsion()
    elif name.endswith(".json") or name.startswith("config:"):
        path = name[7:] if name.startswith("config:") else name
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read geometry config {path!r}: {exc}")
        G = geometry_from_config(cfg)
    else:
        raise ConfigError(
            f"unknown geometry {name!r}; use flat, cpn, flat-torsion or a JSON config path")
    if n is not None and 2 * n != G.dim:
        raise ConfigError(f"--n {n} asks for chart dimension {2 * n}, "
                          f"but {name} has dimension {G.dim}")
    return G


def _report_path(path: str) -> str:
    base = os.environ.get("SEMIQ_REPORT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def cmd_check(args) -> int:
    G = build_geometry(args.geometry, args.n)
    suites = args.suite or G.suites
    seed = G.default_seed if args.seed is None else args.seed
    results = []
    for s in suites:
        results.append(run_suite(s, G, points=args.points, seed=seed,
                                 tol=args.tol, timing=args.timing))
    doc = emit_report(results, args.format)
    if args.report:
        path = _report_path(args.report)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(doc)
        os.replace(tmp, path)
        print(f"report written to {path}")
    else:
        sys.stdout.write(doc)
    ok = all(r.all_passed for r in results)
    if not ok:
        failing = [f"{r.suite}:{c.check}" for r in results
                   for c in r.checks if not c.passed]
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
    return 0 if ok else 1


def _parse_point(text: str, dim: int):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"point {text!r} has a non-numeric coordinate")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"point {text!r} has a non-finite coordinate")
    if len(vals) != dim:
        raise ConfigError(f"point has {len(vals)} coordinates, chart has {dim}")
    return tuple(vals)


# the highest derivative order each command reads, as (frame order, field
# order): the geometry's jets are built to the first, the parsed fields to the second
EVAL_ORDERS = {
    "star": (0, 1),     # om's value and the fields' gradients
    "commutator": (0, 1),
    "wedge": (1, 2),
    "nablaQ": (1, 3),   # nabla_Q(da) reads third derivatives of a, first of Gam
    "evolve": (1, 2),
}


def _fmt_pair(c, l) -> str:
    return f"classical {c}  lambda-coefficient {l}"


def cmd_eval(args) -> int:
    frame_order, field_order = EVAL_ORDERS[args.op]
    G = build_geometry(args.geometry, args.n).at_order(frame_order)
    pt = _parse_point(args.at, G.dim)
    a = Field.from_expr(G.dim, args.a, field_order)
    b = Field.from_expr(G.dim, args.b, field_order)    # parsed for every op; nablaQ reads none
    if args.op == "star":
        v = sq.star_product(a, b, G).at(pt)
        c, l = v.values()
        print(_fmt_pair(complex(c), complex(l)))
        return 0
    if args.op == "commutator":
        v = sq.star_product(a, b, G).at(pt) - sq.star_product(b, a, G).at(pt)
        c, l = v.values()
        print(_fmt_pair(complex(c), complex(l)))
        return 0
    if args.op == "wedge":
        v = sq.wedge1(sq.QTensor.differential(G, a), sq.QTensor.differential(G, b)).at(pt)
        c, l = v.values()
        print("da wedge1 db components:")
        print(_fmt_pair(np.array_str(c, precision=12), np.array_str(l, precision=12)))
        return 0
    if args.op == "nablaQ":
        v = sq.nabla_Q(sq.QTensor.differential(G, a)).at(pt)
        c, l = v.values()
        print("nabla_Q(da) coefficients (direction slot first):")
        print(_fmt_pair(np.array_str(c, precision=12), np.array_str(l, precision=12)))
        return 0
    raise ConfigError(f"unknown eval op {args.op!r}")


def cmd_evolve(args) -> int:
    from . import evolution as ev
    frame_order, field_order = EVAL_ORDERS["evolve"]
    G = build_geometry(args.geometry, args.n).at_order(frame_order)
    points = [_parse_point(chunk, G.dim)
              for chunk in args.at.split(";") if chunk.strip()]
    if not points:
        raise ConfigError(f"--at names no point: {args.at!r}")
    a = Field.from_expr(G.dim, args.a, field_order)
    H = Field.from_expr(G.dim, args.hamiltonian, field_order)
    adot = ev.evolve_scalar(a, H, G)
    defect = ev.evolution_defect(a, H, G)
    # every point is evaluated before anything is printed
    lines = []
    for pt in points:
        lines += [f"at {pt}:",
                  f"  adot = {complex(adot.at(pt).c.value)}",
                  f"  (da)dot - d(adot) components = "
                  f"{np.array_str(defect.at(pt).c.val, precision=12)}",
                  f"  two-route residual = {ev.defect_two_route_residual(a, H, G, pt):.3e}"]
    print("\n".join(lines))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiq",
        description="First-order quantisation engine with numeric verification suites.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_geometry_args(sp):
        sp.add_argument("--n", type=int, default=None,
                        help="flat and cpn: chart dimension 2n (default 1); "
                             "a fixed chart accepts only its own")

    pc = sub.add_parser("check", help="run verification suites")
    pc.add_argument("geometry", help="flat | cpn | flat-torsion | path to JSON config")
    add_geometry_args(pc)
    pc.add_argument("--points", type=int, default=50)
    pc.add_argument("--seed", type=int, default=None,
                    help="sampling seed, an integer >= 0 (default: the geometry's, else 0)")
    pc.add_argument("--tol", type=float, default=None,
                    help="check tolerance, finite and >= 0 (default: the geometry's)")
    pc.add_argument("--suite", action="append", choices=SUITES,
                    help="suite to run (repeatable; default depends on geometry)")
    pc.add_argument("--report", default=None, help="write the report to this path")
    pc.add_argument("--format", choices=("json", "text"), default="json")
    pc.add_argument("--timing", action="store_true",
                    help="include wall time in the report (breaks byte determinism)")
    pc.set_defaults(fn=cmd_check)

    pe = sub.add_parser("eval", help="evaluate a deformed operation at a point")
    pe.add_argument("op", choices=("star", "wedge", "nablaQ", "commutator"))
    pe.add_argument("--geometry", required=True)
    add_geometry_args(pe)
    pe.add_argument("--a", required=True, help="scalar expression")
    pe.add_argument("--b", default="0", help="scalar expression")
    pe.add_argument("--at", required=True,
                    help="comma-separated chart point; it may start with a minus sign")
    pe.set_defaults(fn=cmd_eval)

    pv = sub.add_parser("evolve", help="instantaneous evolution data at a point")
    pv.add_argument("--geometry", required=True)
    add_geometry_args(pv)
    pv.add_argument("--H", dest="hamiltonian", required=True)
    pv.add_argument("--a", required=True)
    pv.add_argument("--at", required=True,
                    help="chart point, or several separated by semicolons; "
                         "it may start with a minus sign")
    pv.set_defaults(fn=cmd_evolve)
    return p


def _attach_points(argv) -> list:
    """``--at -1,0`` as ``--at=-1,0``: argparse takes a value that starts
    with a minus sign for an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--at" and re.match(r"-[\d.]", tok):
            out[-1] = "--at=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = make_parser().parse_args(_attach_points(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except SemiqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
