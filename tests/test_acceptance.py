"""Acceptance criteria, one test per criterion, one printed line each.

Every tolerance is pinned here. Residuals are exact first-order slots of
the graded arithmetic; nothing is extrapolated numerically in the
deformation parameter.

Criterion 5 carries a known, documented defect: with the generalized
Ricci two-form pinned by criterion 4 (and by the closed-form family of
wedge-correction two-forms) and the deformed wedge pinned by the
commutation-relation catalogue of criterion 7 together with the graded
Leibniz rule, the deformed wedge of the functorial quantum metric equals
MINUS the first-order Ricci term. The three requirements cannot hold
with a common sign; the engine keeps the graded-Leibniz-coherent wedge
and the closed-form-anchored Ricci form, satisfies the other two clauses
of criterion 5 exactly, and reports the first clause honestly as failed.
See docs/criterion5.md for the derivation, checked by the symbolic oracle
in tests/test_criterion5_oracle.py.
"""

import numpy as np
import pytest

from conftest import maxabs, run_cli, sample
from conftest import canonical_hamiltonian
from oracles import cpn_omega_lower, cpn_riemann, gen_ricci, random_poly_field
from semiq.geometry import Field, christoffel_jet, compat_residuals, curvature_jet
from semiq.geometries import (CATALOGUE, _cpn_gamma, cpn_at, cpn_catalogue_residual,
                              make_cpn, make_flat, make_flat_torsion)
from semiq.lambda_core import Jet, LJet
from semiq.semiquant import (QTensor, g1_build, g_q_build, module_action, nabla_Q,
                             nq_basis, qlc_residual, star_product, wedge1_map)
from semiq.suites import CHECK_ORDER
from semiq import evolution as ev


def report(num: int, desc: str, worst: float, tol: float, passed: bool = None):
    ok = (worst <= tol) if passed is None else passed
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} "
          f"(max residual {worst:.2e}, tolerance {tol:.0e})")
    return ok


def test_criterion_01_flat_exactness():
    hbar = 0.7
    G = make_flat(2)
    pts = sample(G, 10, 1)
    worst = 0.0
    for pt in pts:
        for i in range(2):
            for j in range(2):
                qi = Field.from_expr(G.dim, f"x{i + 1}")
                pj = Field.from_expr(G.dim, f"x{j + 3}")
                v = star_product(qi, pj, G).at(pt) - star_product(pj, qi, G).at(pt)
                # lam = i hbar, materialised only here: the engine keeps it graded
                got = complex(v.c.value) + 1j * hbar * complex(v.lam().value)
                want = 1j * hbar * (1.0 if i == j else 0.0)
                worst = max(worst, abs(got - want))
        f = G.frame(pt)
        worst = max(worst, maxabs(f.h_fam.val), maxabs(f.ricci2.val))
        worst = max(worst, maxabs(g_q_build(G).at(pt).lam().val))
        worst = max(worst, maxabs(nq_basis(f).lam().val))
    assert report(1, "flat phase space exactness", worst, 1e-14)


def test_criterion_02_cpn_classical_concordance():
    worst = 0.0
    for n in (1, 2, 3):
        G = make_cpn(n).at_order(2)
        for pt in sample(G, 100, 2):
            f = G.frame(pt)
            gam = christoffel_jet(f.g, f.ginv)
            worst = max(worst, maxabs(gam.val - _cpn_gamma(cpn_at(G, pt)).val))
            worst = max(worst, maxabs(curvature_jet(gam).val - cpn_riemann(n, pt, 0).val))
    assert report(2, "derived connection and curvature match closed forms (n=1,2,3)",
                  worst, 1e-9)


def test_criterion_03_classical_compatibility():
    worst = 0.0
    for n in (1, 2, 3):
        G = make_cpn(n).at_order(2)
        t1, t2, mg = compat_residuals(G)
        for pt in sample(G, 100, 3):
            worst = max(worst, maxabs(t1.at(pt).c.val), maxabs(t2.at(pt).c.val),
                        maxabs(mg.at(pt).c.val))
    assert report(3, "Poisson compatibility, Jacobi and metric parallelism (n=1,2,3)",
                  worst, 1e-9)


def test_criterion_04_generalized_ricci():
    worst_routes, worst_value = 0.0, 0.0
    for n in (1, 2, 3):
        G = make_cpn(n).at_order(2)
        for pt in sample(G, 25, 4):
            f = G.frame(pt)
            worst_routes = max(worst_routes, maxabs(f.ricci2.val - f.ricci2_direct.val))
            var = -2.0 * cpn_omega_lower(n, pt, 1).val
            worst_value = max(worst_value, maxabs(f.ricci2.val + 0.5 * (n + 1) * var))
    ok = report(4, "generalized Ricci two routes and closed-form value",
                max(worst_routes, worst_value), 1e-8,
                passed=(worst_routes <= 1e-10 and worst_value <= 1e-8))
    assert ok


def test_criterion_05_quantum_metric():
    worst_wedge_gq, worst_wedge_g1, worst_nabla = 0.0, 0.0, 0.0
    for n in (1, 2):
        G = make_cpn(n)
        gq, g1 = g_q_build(G), g1_build(G)
        ngq = nabla_Q(gq)
        ricci = gen_ricci(G)
        for pt in sample(G, 50, 5):
            wq = wedge1_map(gq).at(pt).lam().val
            worst_wedge_gq = max(worst_wedge_gq, maxabs(wq - ricci.at(pt).c.val))
            worst_wedge_g1 = max(worst_wedge_g1, maxabs(wedge1_map(g1).at(pt).lam().val))
            worst_nabla = max(worst_nabla, maxabs(ngq.at(pt).lam().val))
    ok = (worst_wedge_gq <= 1e-9 and worst_wedge_g1 <= 1e-9 and worst_nabla <= 1e-8)
    report(5, "quantum metric: wedge of g_Q vs lam*Ricci; wedge of g1; "
              "quantum metric compatibility", max(worst_wedge_gq, worst_wedge_g1,
                                                  worst_nabla), 1e-8, passed=ok)
    print(f"    clause [wedge1(g_Q) = lam*Ricci]   residual {worst_wedge_gq:.2e} "
          f"(engine identity: wedge1(g_Q) = -lam*Ricci, see docs/criterion5.md)")
    print(f"    clause [wedge1(g1) = 0]            residual {worst_wedge_g1:.2e}")
    print(f"    clause [nabla_Q g_Q = 0]           residual {worst_nabla:.2e}")
    assert worst_wedge_g1 <= 1e-9
    assert worst_nabla <= 1e-8
    assert worst_wedge_gq <= 1e-9, (
        "wedge1(g_Q) equals minus lam times the reported generalized Ricci "
        "two-form; the stated sign cannot hold jointly with criteria 4 and 7")


def test_criterion_06_quantum_levi_civita():
    worst = 0.0
    for n in (1, 2):
        G = make_cpn(n)
        res = qlc_residual(G)
        for pt in sample(G, 100, 6):
            worst = max(worst, maxabs(res.at(pt).c.val))
    Gt = make_flat_torsion()
    res_t = qlc_residual(Gt)
    counter = max(maxabs(res_t.at(pt).c.val) for pt in sample(Gt, 50, 7))
    ok = worst <= 1e-8 and counter > 1e-3
    report(6, "quantum-Levi-Civita residual: vanishes on the projective space, "
              f"detects the torsion counterexample ({counter:.2e} > 1e-03)",
           worst, 1e-8, passed=ok)
    assert ok


def test_criterion_07_catalogue():
    worst = 0.0
    for n in (1, 2):
        G = make_cpn(n).at_order(CHECK_ORDER)
        for name in sorted(CATALOGUE):
            for pt in sample(G, 50, 8):
                rc, rl = cpn_catalogue_residual(G, name, pt)
                worst = max(worst, rc, rl)
    assert report(7, "closed-form catalogue (19 checks, n=1 and n=2)", worst, 1e-8)


def test_criterion_08_dga_properties():
    rng = np.random.default_rng(9)
    worst = 0.0
    for G in (make_flat(1), make_cpn(1)):
        for _ in range(100):
            a, b, c = (random_poly_field(G.dim, rng) for _ in range(3))
            pt = tuple(rng.uniform(-0.6, 0.6, size=G.dim))
            lhs = star_product(star_product(a, b, G), c, G).at(pt)
            rhs = star_product(a, star_product(b, c, G), G).at(pt)
            r = lhs - rhs
            worst = max(worst, abs(complex(r.c.value)), abs(complex(r.lam().value)))
            ab = star_product(a, b, G)
            d_ab = QTensor.from_oneform(G, lambda p, s=ab: LJet(s.at(p).c.grad(),
                                                                s.at(p).lam().grad()))
            da = QTensor.from_oneform(G, lambda p, s=a: LJet(s.at(p).c.grad()))
            db = QTensor.from_oneform(G, lambda p, s=b: LJet(s.at(p).c.grad()))
            rhs2 = module_action(da, b) + module_action(a, db)
            rr = d_ab.at(pt) - rhs2.at(pt)
            worst = max(worst, maxabs(rr.c.val), maxabs(rr.lam().val))
    assert report(8, "associator and deformed Leibniz rule over 100 random triples",
                  worst, 1e-10)


def test_criterion_09_evolution_identities():
    worst = 0.0
    rng = np.random.default_rng(10)
    potentials = ["0.5*1.7*0.9^2*x1^2+x2^2", "x1^3-2*x2^3+x1*x2", "x1^2*x2^2+0.3*x1^4"]
    for pot in potentials:
        G, H = canonical_hamiltonian(2, mass=1.7, potential=pot)
        V = Field.from_expr(G.dim, pot)
        for _ in range(5):
            a = random_poly_field(G.dim, rng)
            pt = tuple(rng.uniform(-0.8, 0.8, size=4))
            got = ev.evolution_defect(a, H, G).at(pt).c.val
            da = a.at(pt).c.grad().val
            hv = V.at(pt).c.levels[2]
            want = np.zeros(4, dtype=complex)
            for i in range(2):
                want[i + 2] = -da[i] / 1.7                       # -(1/m) da/dq^i dp^i
                want[i] = sum(hv[i, j] * da[j + 2] for j in range(2))
            worst = max(worst, maxabs(got - want))
            worst = max(worst, ev.defect_two_route_residual(
                a, H, G, ev.evolve_scalar(a, H, G), ev.evolution_defect(a, H, G), pt))
    exact = 0.0
    Gf, Hf = canonical_hamiltonian(1, mass=2.0, potential="x1^4")
    for k in range(2):
        xi = Field(lambda p, k=k: LJet(Jet.const(2, np.eye(2)[k], 3)))
        exact = max(exact, maxabs(ev.evolve_oneform(xi, Hf, Gf).at((0.3, 0.4)).c.val))
    ok = worst <= 1e-12 and exact == 0.0
    assert report(9, "time-evolution defect display and exact cobasis invariance",
                  worst, 1e-12, passed=ok)


def test_criterion_10_parser_fidelity():
    from test_fieldexpr import _direct_eval, _random_rational
    from test_lambda_core import fd4
    from semiq.fieldexpr import eval_jet, parse
    rng = np.random.default_rng(11)
    worst_val, worst_fd = 0.0, 0.0
    for _ in range(100):
        text = _random_rational(rng)
        tree = parse(text, 2)
        pt = rng.uniform(-1.1, 1.1, size=2)
        j = eval_jet(tree, pt)
        want = _direct_eval(tree, pt)
        worst_val = max(worst_val, abs(complex(j.value) - want) / max(1.0, abs(want)))
        for k in range(2):
            ref = fd4(lambda q: complex(eval_jet(tree, q).value), pt, k)
            worst_fd = max(worst_fd, abs(j.d1[k] - ref) / max(1.0, abs(ref)))
    ok = worst_val <= 1e-12 and worst_fd <= 1e-7
    assert report(10, "parsed expressions vs direct evaluation and finite differences",
                  max(worst_val, worst_fd), 1e-7, passed=ok)


def test_criterion_11_determinism(tmp_path):
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        r = run_cli(["check", "cpn", "--n", "1", "--points", "5", "--seed", "12",
                     "--suite", "metric", "--suite", "qlc", "--report", str(path)],
                    cwd=tmp_path)
        assert r.returncode == 0, r.stderr.decode()
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    assert report(11, "byte-identical reports for identical seeds", 0.0, 1.0, passed=ok)
