"""Command-line driver: verification suites, pointwise evaluation, evolution."""

from __future__ import annotations

import argparse
import contextlib
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
    """The file a report goes to; a path naming a directory is refused."""
    base = os.environ.get("SEMIQ_REPORT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"--report {path!r} names a directory, not a file")
    return path


def _write_report(path: str, doc: str) -> None:
    """Write through a temporary file, removed again if writing fails."""
    tmp = path + ".tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "w") as fh:
            fh.write(doc)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write the report to {path!r}: {exc}")


def cmd_check(args) -> int:
    path = _report_path(args.report) if args.report else None
    G = build_geometry(args.geometry, args.n)
    suites = args.suite or G.suites
    seed = G.default_seed if args.seed is None else args.seed
    results = []
    for s in suites:
        results.append(run_suite(s, G, points=args.points, seed=seed,
                                 tol=args.tol, timing=args.timing))
    doc = emit_report(results, args.format)
    if path:
        _write_report(path, doc)
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


# each eval op: the highest derivative orders it reads, as (frame order, field
# order), which the geometry's jets and the parsed fields are built to; the
# heading above an array value (None: a scalar); and its value at a point, which
# looks each kernel function up when called, as perfbench/tracer.py rebinds them.
EVAL_OPS = {
    "star": (0, 1, None,        # om's value and the fields' gradients
             lambda G, a, b, pt: sq.star_product(a, b, G).at(pt)),
    "wedge": (1, 2, "da wedge1 db components:",
              lambda G, a, b, pt: sq.wedge1(sq.QTensor.differential(G, a),
                                            sq.QTensor.differential(G, b)).at(pt)),
    # nabla_Q(da) reads third derivatives of a, first of Gam
    "nablaQ": (1, 3, "nabla_Q(da) coefficients (direction slot first):",
               lambda G, a, b, pt: sq.nabla_Q(sq.QTensor.differential(G, a)).at(pt)),
    "commutator": (0, 1, None,
                   lambda G, a, b, pt: (sq.star_product(a, b, G).at(pt)
                                        - sq.star_product(b, a, G).at(pt))),
}

EVOLVE_ORDERS = (1, 2)      # (frame order, field order) of evolve


def cmd_eval(args) -> int:
    frame_order, field_order, heading, value = EVAL_OPS[args.op]
    G = build_geometry(args.geometry, args.n).at_order(frame_order)
    pt = _parse_point(args.at, G.dim)
    a = Field.from_expr(G.dim, args.a, field_order)
    b = Field.from_expr(G.dim, args.b, field_order)    # parsed for every op; nablaQ reads none
    c, l = value(G, a, b, pt).values()
    if heading is None:
        c, l = complex(c), complex(l)
    else:
        print(heading)
        c, l = np.array_str(c, precision=12), np.array_str(l, precision=12)
    print(f"classical {c}  lambda-coefficient {l}")
    return 0


def cmd_evolve(args) -> int:
    from . import evolution as ev
    frame_order, field_order = EVOLVE_ORDERS
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
    pe.add_argument("op", choices=tuple(EVAL_OPS))
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
