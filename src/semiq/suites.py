"""Verification suites with deterministic sampling and reports.

Each suite evaluates a set of named checks at seeded random points of a
geometry and records the max-abs residual of the classical and
first-order slots separately. Residuals are always read off the graded
arithmetic exactly; no numerical limit in the deformation parameter is
ever taken.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .geometry import Field, GeometryData, compat_residuals
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


def random_poly_field(d: int, rng, order: int = 3) -> Field:
    """Random complex polynomial of four monomials, each of degree at most 2,
    in the coordinates of a d-dimensional chart, as jets of ``order``."""
    monos = []
    for _ in range(4):
        k = int(rng.integers(0, 3))
        idxs = tuple(int(i) for i in rng.integers(0, d, size=k))
        coef = complex(rng.normal(), rng.normal())
        monos.append((coef, idxs))

    def fn(pt):
        total = Jet.zeros(d, (), order)
        for coef, idxs in monos:
            term = Jet.const(d, coef, order)
            for i in idxs:
                term = term * Jet.coordinate(d, pt, i, order)
            total = total + term
        return LJet(total)

    return Field(fn)


def random_oneform(G: GeometryData, rng) -> sq.QTensor:
    comps = [random_poly_field(G.dim, rng, order=G.order) for _ in range(G.dim)]

    def fn(pt):
        jets = [c.at(pt).c for c in comps]
        levels = [np.stack([j.levels[k] for j in jets]) for k in range(G.order + 1)]
        return LJet(Jet(G.dim, levels))

    return sq.QTensor.from_oneform(G, fn)


def _acc(worst: dict, name: str, c, l) -> None:
    """Fold the classical and first-order residuals c, l into check ``name``."""
    rec = worst.setdefault(name, [0.0, 0.0])
    rec[0] = max(rec[0], float(np.max(np.abs(c))))
    rec[1] = max(rec[1], float(np.max(np.abs(l))))


# -- individual suites -----------------------------------------------------------

def _suite_classical(G: GeometryData, pts, rng) -> dict:
    worst = {}
    t1, t2, mg = compat_residuals(G)
    for pt in pts:
        f = G.frame(pt)
        ident = jet_einsum("am,mb->ab", f.g, f.ginv).val - np.eye(G.dim)
        _acc(worst, "metric-inverse", ident, 0.0)
        _acc(worst, "poisson-compat", *t1.at(pt).values())
        _acc(worst, "poisson-jacobi", *t2.at(pt).values())
        _acc(worst, "metric-parallel", *mg.at(pt).values())
    return worst


def _suite_dga(G: GeometryData, pts, rng) -> dict:
    worst = {}
    for pt in pts:
        a, b, c = (random_poly_field(G.dim, rng, order=G.order) for _ in range(3))
        ab_c = sq.star_product(sq.star_product(a, b, G), c, G)
        a_bc = sq.star_product(a, sq.star_product(b, c, G), G)
        _acc(worst, "star-associator", *(ab_c.at(pt) - a_bc.at(pt)).values())

        xi = random_oneform(G, rng)
        a_xi_b = sq.module_action(a, sq.module_action(xi, b))
        axi_b = sq.module_action(sq.module_action(a, xi), b)
        _acc(worst, "bimodule-assoc", *(a_xi_b.at(pt) - axi_b.at(pt)).values())

        d_ab = sq.QTensor.differential(G, sq.star_product(a, b, G))
        da, db = sq.QTensor.differential(G, a), sq.QTensor.differential(G, b)
        rhs = sq.module_action(da, b) + sq.module_action(a, db)
        _acc(worst, "quantum-leibniz", *(d_ab.at(pt) - rhs.at(pt)).values())

        eta = random_oneform(G, rng)
        w_xe = sq.wedge1(xi, eta).at(pt)
        w_ex = sq.wedge1(eta, xi).at(pt)
        _acc(worst, "wedge1-graded-antisym", w_xe.c.val + w_ex.c.val, 0.0)

        lhs = sq.nabla_Q(sq.module_action(a, xi)).at(pt)
        t1 = sq.module_action(a, sq.nabla_Q(xi)).at(pt)
        t2 = sq.otimes1(da, xi).at(pt)
        _acc(worst, "nablaq-left-leibniz", *(lhs - (t1 + t2)).values())

        # the braiding evaluated on xi (x) da reduces classically to the
        # flip da (x) xi, direction slot first
        sig = sq.sigma_Q(a, xi).at(pt)
        av = a.at(pt)
        xv = sq._model(xi, pt)
        flip = jet_einsum("m,n->mn", av.c.grad(), xv.c)
        _acc(worst, "sigma-classical-flip", sig.c.val - flip.val, 0.0)
    return worst


def _suite_metric(G: GeometryData, pts, rng) -> dict:
    worst = {}
    gq = sq.g_q_build(G)
    g1 = sq.g1_build(G)
    ngq = sq.nabla_Q(gq)
    qinv_g = sq.q_map(sq.classical_metric(G), G)
    for pt in pts:
        f = G.frame(pt)
        _acc(worst, "ricci-two-routes", 0.0, (f.ricci2 - f.ricci2_direct).val)
        _acc(worst, "gq-vs-q-inverse", *(gq.at(pt) - qinv_g.at(pt)).values())
        wq = sq.wedge1_map(gq).at(pt)
        # the deformed wedge of the quantum metric is minus the generalized
        # Ricci two-form; see docs/criterion5.md for the orientation
        _acc(worst, "wedge-gq-ricci-pairing", wq.c.val, wq.lam().val + f.ricci2.val)
        w1 = sq.wedge1_map(g1).at(pt)
        _acc(worst, "wedge-g1-zero", *w1.values())
        _acc(worst, "nablaq-gq-zero", *ngq.at(pt).values())
        arr0 = rng.normal(size=(G.dim, G.dim)) + 1j * rng.normal(size=(G.dim, G.dim))
        arr1 = rng.normal(size=(G.dim, G.dim)) + 1j * rng.normal(size=(G.dim, G.dim))
        X = sq.QTensor(G, 2, lambda p, a0=arr0, a1=arr1:
                       LJet(Jet.const(G.dim, a0, G.order), Jet.const(G.dim, a1, G.order)))
        rt = sq.q_map(sq.q_map(X), G).at(pt)
        _acc(worst, "q-roundtrip", rt.c.val - arr0, rt.lam().val - arr1)
    return worst


def _suite_qlc(G: GeometryData, pts, rng) -> dict:
    worst = {}
    res = sq.qlc_residual(G)
    for pt in pts:
        _acc(worst, "qlc-residual", *res.at(pt).values())
    return worst


def _suite_catalogue(G: GeometryData, pts, rng) -> dict:
    worst = {}
    for name in sorted(geos.CATALOGUE):
        for pt in pts:
            rc, rl = geos.cpn_catalogue_residual(G, name, pt)
            _acc(worst, name, rc, rl)
    return worst


def _suite_evolution(G: GeometryData, pts, rng) -> dict:
    from . import evolution as ev
    worst = {}
    for pt in pts:
        a, b, H = (random_poly_field(G.dim, rng, order=G.order) for _ in range(3))
        _acc(worst, "defect-two-routes", ev.defect_two_route_residual(a, H, G, pt), 0.0)
        # hamiltonian field acts as a derivation on products
        prod = Field(lambda p: LJet(a.at(p).c * b.at(p).c))
        adot = ev.evolve_scalar(a, H, G)
        bdot = ev.evolve_scalar(b, H, G)
        v = ev.evolve_scalar(prod, H, G).at(pt)
        rhs_c = a.at(pt).c * bdot.at(pt).c + b.at(pt).c * adot.at(pt).c
        _acc(worst, "hamvf-derivation", (v.c - rhs_c).val, 0.0)
        if G.parallel_cobasis:
            for k in range(G.dim):
                basis = Field(lambda p, k=k: LJet(Jet.const(G.dim, np.eye(G.dim)[k], G.order)))
                _acc(worst, "cobasis-invariance", *ev.evolve_oneform(basis, H, G).at(pt).values())
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

# the highest derivative order each suite reads; its jets are built to it
SUITE_ORDERS: dict = {
    "classical-compat": 1,      # g_{mn;k}, om^{ij}_{;k}
    "dga": 2,                   # nabla_Q of a one-form: second derivatives of it
    "metric": 2,                # nabla_Q g_Q, and H reads dGamma
    "qlc": 2,                   # nabla of the Ricci two-form, which reads dGamma
    "cpn-catalogue": 2,         # nabla_Q of the frame one-forms
    "evolution": 2,             # nabla dH: second derivatives of H
}


def run_suite(suite: str, G: GeometryData, points: int = 50, seed: int = 0,
              tol: Optional[float] = None, timing: bool = False) -> SuiteResult:
    """Run one named suite at seeded random chart points."""
    if suite not in _SUITE_FNS:
        raise ConfigError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if points < 1:
        raise ConfigError(f"a suite needs at least one sample point, got {points}")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"the sampling seed must be an integer >= 0, got {seed!r}")
    tol = G.tol if tol is None else float(tol)
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"the tolerance must be a finite number >= 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    pts = [tuple(p) for p in G.sample_points(points, seed)]
    start = time.perf_counter()
    worst = _SUITE_FNS[suite](G.at_order(SUITE_ORDERS[suite]), pts, rng)
    elapsed = (time.perf_counter() - start) * 1000.0
    checks = [CheckRecord(name, vals[0], vals[1], tol)
              for name, vals in sorted(worst.items())]
    return SuiteResult(suite=suite, geometry=G.name, points=points, seed=seed,
                       checks=checks, elapsed_ms=elapsed if timing else None)


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
