"""Verification suites with deterministic sampling and reports.

Each suite evaluates a set of named checks at seeded random points of a
geometry and records the max-abs residual of the classical and
first-order slots separately. Residuals are always read off the graded
arithmetic exactly; no numerical limit in the deformation parameter is
ever taken. A suite evaluates each check once over a batch of its points;
a sample too large for one batch's jets is split into consecutive
batches, and the maxima fold across them. The random polynomial fields of
``dga`` and ``evolution`` are drawn point by point, in the order a loop
over the points would draw them, and all of a batch's are evaluated in
one jet pass that gives each member the bits of its polynomial alone.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, EvalError
from .geometry import MAX_JET_BYTES, Field, GeometryData, compat_residuals
from .lambda_core import Jet, LJet, jet_einsum
from . import semiquant as sq
from . import geometries as geos


@dataclass
class CheckRecord:
    check: str
    max_abs_classical: float
    max_abs_lambda: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_classical <= self.tol and self.max_abs_lambda <= self.tol


@dataclass
class SuiteResult:
    suite: str
    geometry: str
    points: int
    seed: int
    checks: list
    elapsed_ms: Optional[float] = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def draw_poly(d: int, rng) -> tuple:
    """A random complex polynomial in the coordinates of a d-dimensional
    chart: four monomials (coefficient, factor indices), each of degree at
    most 2. Its k factor indices are k scalar draws: the stream of one
    ``rng.integers(0, d, size=k)``, which fills its array draw by draw."""
    monos = []
    for _ in range(4):
        k = int(rng.integers(0, 3))
        idxs = tuple(int(rng.integers(0, d)) for _ in range(k))
        coef = complex(rng.normal(), rng.normal())
        monos.append((coef, idxs))
    return tuple(monos)


def poly_jets(d: int, polys, pts, order: int) -> Jet:
    """Jets of drawn polynomials over a batch, shape (F,): member k,
    component f is ``polys[k][f]``, a ``draw_poly``, at the point ``pts[k]``.

    Every monomial of every member lies on one batch axis, so the batch
    takes two jet products: the coefficient times its first coordinate,
    then times its second. A monomial of fewer factors keeps its shorter
    product, and the four are summed as (((0 + m0) + m1) + m2) + m3; so each
    member holds the bits of its polynomial evaluated at its point alone.
    """
    monos = [m for row in polys for poly in row for m in poly]
    lead = (len(pts), len(polys[0]), 4)          # member, component, monomial
    x = np.asarray(pts, dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    nfac = np.array([len(ix) for _, ix in monos]).reshape(lead)

    def factor(j):      # each monomial's j-th coordinate, x_1 where it has none
        i = np.array([ix[j] if j < len(ix) else 0 for _, ix in monos]).reshape(lead)
        return Jet.affine(d, x[np.arange(lead[0])[:, None, None], i], eye[i], order, 3)

    t0 = Jet.const(d, np.array([c for c, _ in monos]).reshape(lead), order, 3)
    t1 = t0 * factor(0)
    t2 = t1 * factor(1)
    levels = []
    for k in range(order + 1):
        n = nfac.reshape(lead + (1,) * k)
        term = np.where(n == 0, t0.levels[k], np.where(n == 1, t1.levels[k], t2.levels[k]))
        levels.append(sum(term[:, :, m] for m in range(4)))     # 0 + m0 first
    return Jet(d, levels, 1)


def _drawn(d: int, rng, per_point: int, pts, order: int) -> Jet:
    """``per_point`` polynomials drawn at each point of the batch in turn, as
    a loop over the points would draw them, evaluated by ``poly_jets``."""
    return poly_jets(d, [[draw_poly(d, rng) for _ in range(per_point)] for _ in pts],
                     pts, order)


def finite(what: str, *values) -> tuple:
    """``values``, or an EvalError naming ``what`` if any entry is not finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise EvalError(f"{what} is out of floating-point range")
    return values


def _acc(worst: dict, name: str, c, l) -> None:
    """Fold the classical and first-order residuals c, l, each over a batch
    of points or one point, into check ``name``: float max is exact, so the
    maximum does not depend on how the points were batched."""
    rec = worst.setdefault(name, [0.0, 0.0])
    c, l = float(np.abs(c).max()), float(np.abs(l).max())
    if not (math.isfinite(c) and math.isfinite(l)):
        raise EvalError(f"the residual of check {name!r} is out of floating-point range")
    rec[0], rec[1] = max(rec[0], c), max(rec[1], l)


# -- individual suites -----------------------------------------------------------

# each suite takes a batch of points, a tuple of point tuples

def _suite_classical(G: GeometryData, pts, rng) -> dict:
    worst = {}
    t1, t2, mg = compat_residuals(G)
    f = G.frame(pts)
    ident = jet_einsum("am,mb->ab", f.g, f.ginv).val - np.eye(G.dim)
    _acc(worst, "metric-inverse", ident, 0.0)
    _acc(worst, "poisson-compat", *t1.at(pts).values())
    _acc(worst, "poisson-jacobi", *t2.at(pts).values())
    _acc(worst, "metric-parallel", *mg.at(pts).values())
    return worst


def _suite_dga(G: GeometryData, pts, rng) -> dict:
    worst = {}
    # every point draws its own a, b, c and the components of xi and eta,
    # in that order, as a loop over the points would
    n = G.dim
    drawn = _drawn(n, rng, 3 + 2 * n, pts, G.order)    # read at pts only
    a, b, c = (Field(lambda p, k=k: LJet(drawn.take_index(k))) for k in range(3))
    xi, eta = (sq.QTensor.from_oneform(G, lambda p, s=s: LJet(
        Jet(n, [l[:, s: s + n] for l in drawn.levels], 1))) for s in (3, 3 + n))

    # a . b and a . xi, each built once for the two checks that read them
    ab, a_xi = sq.star_product(a, b, G), sq.module_action(a, xi)
    ab_c = sq.star_product(ab, c, G)
    a_bc = sq.star_product(a, sq.star_product(b, c, G), G)
    _acc(worst, "star-associator", *(ab_c.at(pts) - a_bc.at(pts)).values())

    a_xi_b = sq.module_action(a, sq.module_action(xi, b))
    axi_b = sq.module_action(a_xi, b)
    _acc(worst, "bimodule-assoc", *(a_xi_b.at(pts) - axi_b.at(pts)).values())

    d_ab = sq.QTensor.differential(G, ab)
    da, db = sq.QTensor.differential(G, a), sq.QTensor.differential(G, b)
    rhs = sq.module_action(da, b) + sq.module_action(a, db)
    _acc(worst, "quantum-leibniz", *(d_ab.at(pts) - rhs.at(pts)).values())

    w_xe = sq.wedge1(xi, eta).at(pts)
    w_ex = sq.wedge1(eta, xi).at(pts)
    _acc(worst, "wedge1-graded-antisym", w_xe.c.val + w_ex.c.val, 0.0)

    lhs = sq.nabla_Q(a_xi).at(pts)
    t1 = sq.module_action(a, sq.nabla_Q(xi)).at(pts)
    t2 = sq.otimes1(da, xi).at(pts)
    _acc(worst, "nablaq-left-leibniz", *(lhs - (t1 + t2)).values())

    # the braiding evaluated on xi (x) da reduces classically to the
    # flip da (x) xi, direction slot first
    sig = sq.sigma_Q(a, xi).at(pts)
    av = a.at(pts)
    xv = sq._model(xi, pts)
    flip = jet_einsum("m,n->mn", av.c.grad(), xv.c)
    _acc(worst, "sigma-classical-flip", sig.c.val - flip.val, 0.0)
    return worst


def _suite_metric(G: GeometryData, pts, rng) -> dict:
    worst = {}
    gq = sq.g_q_build(G)
    g1 = sq.g1_build(G)
    ngq = sq.nabla_Q(gq)
    qinv_g = sq.q_map(sq.classical_metric(G), G)
    f = G.frame(pts)
    _acc(worst, "ricci-two-routes", 0.0, (f.ricci2 - f.ricci2_direct).val)
    _acc(worst, "gq-vs-q-inverse", *(gq.at(pts) - qinv_g.at(pts)).values())
    wq = sq.wedge1_map(gq).at(pts)
    # the deformed wedge of the quantum metric is minus the generalized
    # Ricci two-form; see docs/criterion5.md for the orientation
    _acc(worst, "wedge-gq-ricci-pairing", wq.c.val, wq.lam().val + f.ricci2.val)
    w1 = sq.wedge1_map(g1).at(pts)
    _acc(worst, "wedge-g1-zero", *w1.values())
    _acc(worst, "nablaq-gq-zero", *ngq.at(pts).values())
    # per point, in the order a loop over the points would draw them
    arrs = [[rng.normal(size=(G.dim, G.dim)) + 1j * rng.normal(size=(G.dim, G.dim))
             for _ in range(2)] for _ in pts]
    arr0, arr1 = (np.stack([a[k] for a in arrs]) for k in range(2))
    X = sq.QTensor(G, 2, lambda p: LJet(Jet.const(G.dim, arr0, G.order, 1),
                                        Jet.const(G.dim, arr1, G.order, 1)))
    rt = sq.q_map(sq.q_map(X), G).at(pts)
    _acc(worst, "q-roundtrip", rt.c.val - arr0, rt.lam().val - arr1)
    return worst


def _suite_qlc(G: GeometryData, pts, rng) -> dict:
    worst = {}
    _acc(worst, "qlc-residual", *sq.qlc_residual(G).at(pts).values())
    return worst


def _suite_catalogue(G: GeometryData, pts, rng) -> dict:
    worst = {}
    for name in sorted(geos.CATALOGUE):
        _acc(worst, name, *geos.cpn_catalogue_residual(G, name, pts))
    return worst


def _suite_evolution(G: GeometryData, pts, rng) -> dict:
    from . import evolution as ev
    worst = {}
    # every point draws its own a, b and H, in that order, as in _suite_dga
    drawn = _drawn(G.dim, rng, 3, pts, G.order)        # read at pts only
    a, b, H = (Field(lambda p, k=k: LJet(drawn.take_index(k))) for k in range(3))
    adot = ev.evolve_scalar(a, H, G)
    _acc(worst, "defect-two-routes",
         ev.defect_two_route_residual(a, H, G, adot, ev.evolution_defect(a, H, G), pts), 0.0)
    # hamiltonian field acts as a derivation on products
    prod = Field(lambda p: LJet(a.at(p).c * b.at(p).c))
    bdot = ev.evolve_scalar(b, H, G)
    v = ev.evolve_scalar(prod, H, G).at(pts)
    rhs_c = a.at(pts).c * bdot.at(pts).c + b.at(pts).c * adot.at(pts).c
    _acc(worst, "hamvf-derivation", (v.c - rhs_c).val, 0.0)
    if G.parallel_cobasis:
        for k in range(G.dim):
            basis = Field(lambda p, k=k: LJet(Jet.const(G.dim, np.eye(G.dim)[k], G.order)))
            _acc(worst, "cobasis-invariance", *ev.evolve_oneform(basis, H, G).at(pts).values())
    return worst


_SUITE_FNS: dict = {
    "classical-compat": _suite_classical,
    "dga": _suite_dga,
    "metric": _suite_metric,
    "qlc": _suite_qlc,
    "cpn-catalogue": _suite_catalogue,
    "evolution": _suite_evolution,
}
SUITES = tuple(_SUITE_FNS)

# the jet order of every suite: no identity a suite checks reads a third derivative
CHECK_ORDER = 2


# Working set of one batch. Beyond what one point per batch holds (the
# tracemalloc measure of the budget test), a suite keeps per point at most
# about 17 arrays the size of its largest jet array, 16 * dim**(5 + order)
# bytes (see ``check_jet_bytes``). With levels computed only where read,
# metric reads 16.5 on CP^1 and 15.0 on exp_plane.json, dga 11.7 on CP^1
# and 8.9 on flat n=1 (64-point batches); at dim 4 (CP^2, 12 and 36
# points) metric reads 2.3-2.7 and dga 0.8-0.9. Dim 2 binds, and
# LIVE_ARRAYS rounds it up, which overcharges dim 4 and above: CP^2 runs
# in batches of 12 points and CP^3 in batches of 1. A larger batch would
# be faster there, as Python dispatch is paid once per check and batch:
# ``check cpn --n 2 --points 50`` took 109-119 ms and 75 MB peak RSS in
# one batch against 160-161 ms and 47 MB in batches of 12, with the same
# report bytes (in-process medians).
BATCH_BYTES = 2 ** 26
LIVE_ARRAYS = 20


def batch_size(G: GeometryData) -> int:
    """Points per batch: the most whose working set fits in BATCH_BYTES, and
    at least one."""
    return max(1, BATCH_BYTES // (LIVE_ARRAYS * 16 * G.dim ** (5 + G.order)))


def run_suites(suites, G: GeometryData, points: int = 50, seed: int = 0,
               tol: Optional[float] = None, timing: bool = False) -> list:
    """Run the named suites at seeded random chart points, batch by batch:
    every suite takes a batch before the next one, so a batch's frame serves
    all the suites and dies with it. Each suite draws from its own rng seeded
    with ``seed`` and folds its own maxima, as if it ran alone."""
    for suite in suites:
        if suite not in _SUITE_FNS:
            raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if points < 1:
        raise ConfigError(f"a suite needs at least one sample point, got {points}")
    if 8 * points * G.dim > MAX_JET_BYTES:     # the (points, dim) float64 sample
        raise ConfigError(f"{points} sample points take {8 * points * G.dim} bytes "
                          f"of coordinates, over {MAX_JET_BYTES}")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"the sampling seed must be an integer >= 0, got {seed!r}")
    tol = G.tol if tol is None else float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"the tolerance must be a finite number >= 0, got {tol!r}")
    pts = tuple(map(tuple, G.sample_points(points, seed).tolist()))     # Python floats
    G = G.at_order(CHECK_ORDER)
    rngs = [np.random.default_rng(seed) for _ in suites]
    worst = [{} for _ in suites]
    elapsed = [0.0 for _ in suites]
    size = batch_size(G)
    for k in range(0, len(pts), size):
        for i, suite in enumerate(suites):
            start = time.perf_counter()
            # plain max: the suite's own _acc has refused a non-finite residual
            for name, (c, l) in _SUITE_FNS[suite](G, pts[k: k + size], rngs[i]).items():
                rec = worst[i].setdefault(name, [0.0, 0.0])
                rec[0], rec[1] = max(rec[0], c), max(rec[1], l)
            elapsed[i] += (time.perf_counter() - start) * 1000.0
    return [SuiteResult(suite=suite, geometry=G.name, points=points, seed=seed,
                        checks=[CheckRecord(name, c, l, tol) for name, (c, l) in sorted(w.items())],
                        elapsed_ms=ms if timing else None)
            for suite, w, ms in zip(suites, worst, elapsed)]


# -- reports ----------------------------------------------------------------------

def emit_report(results, fmt: str = "json") -> str:
    """Serialize one SuiteResult or a list of them."""
    if isinstance(results, SuiteResult):
        results = [results]
    if fmt == "json":
        payload = []
        for r in results:
            payload.append({
                "suite": r.suite,
                "geometry": r.geometry,
                "seed": r.seed,
                "points": r.points,
                "checks": [{
                    "check": c.check,
                    "max_abs_classical": c.max_abs_classical,
                    "max_abs_lambda": c.max_abs_lambda,
                    "tol": c.tol,
                    "passed": c.passed,
                } for c in r.checks],
                "elapsed_ms": r.elapsed_ms,
                "all_passed": r.all_passed,
            })
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        lines = []
        for r in results:
            head = f"suite {r.suite} on {r.geometry} ({r.points} points, seed {r.seed})"
            if r.elapsed_ms is not None:
                head += f" [{r.elapsed_ms:.1f} ms]"
            lines.append(head)
            lines.append("-" * len(head))
            width = max(len(c.check) for c in r.checks)
            for c in r.checks:
                status = "pass" if c.passed else "FAIL"
                lines.append(f"  {c.check:<{width}}  classical {c.max_abs_classical:9.2e}"
                             f"  lambda {c.max_abs_lambda:9.2e}  tol {c.tol:.0e}  {status}")
            lines.append("")
        return "\n".join(lines)
    raise ConfigError(f"unknown report format {fmt!r}")
