import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import maxabs, sample
from oracles import cpn_riemann, run_suite
from semiq.errors import DegenerateMetricError
from semiq import suites
from semiq.evolution import evolve_scalar
from semiq.geometry import (Field, GeometryData, PointFrame, christoffel_jet,
                            compat_residuals, component_jets, cov_deriv_jet,
                            geometry_from_config, torsion_jet)
from semiq.geometries import _cpn_gamma, cpn_at, make_cpn, make_flat
from semiq.lambda_core import Jet, LJet, jet_einsum
from semiq.semiquant import QTensor

EXP_PLANE = Path(__file__).resolve().parent.parent / "perfbench" / "exp_plane.json"


def synthetic_torsion_geometry(entries):
    """Flat 2d chart with prescribed connection entries (i, j, k, coord)."""
    eye = np.eye(2)
    om0 = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def gamma_fn(f):
        pt, order = f.point, f.order
        total = Jet.const(2, np.zeros((2, 2, 2)), order)
        for (i, j, k, axis) in entries:
            basis = np.zeros((2, 2, 2))
            basis[i, j, k] = 1.0
            coef = Jet.coordinate(2, pt, axis, order)
            total = total + jet_einsum(",ijk->ijk", coef, basis)
        return total

    return GeometryData(2, lambda f: Jet.const(2, eye, f.order),
                        lambda f: Jet.const(2, eye, f.order),
                        lambda f: Jet.const(2, om0, f.order),
                        gamma_fn=gamma_fn, levi_civita=False, name="synthetic", box=1.5)


def point_carrier(pt):
    """A frame used only to hand `pt` and order 3 to `component_jets` providers."""
    return PointFrame(make_flat(1), pt)


class TestChristoffel:
    def test_euclidean_vanishes(self, flat2):
        f = flat2.frame((0.3, -0.2, 0.1, 0.9))
        assert maxabs(christoffel_jet(f.g, f.ginv).val) == 0.0

    def test_conformal_metric_hand_values(self):
        # g = exp(2 x1) * identity in two dimensions, evaluated at x1 = 0
        g = component_jets(2, 2, [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
        ginv = component_jets(2, 2, [["exp(-2*x1)", "0"], ["0", "exp(-2*x1)"]])
        f = point_carrier((0.0, 0.7))
        gam = christoffel_jet(g(f), ginv(f)).val
        assert gam[0, 0, 0] == pytest.approx(1.0)
        assert gam[0, 1, 1] == pytest.approx(-1.0)
        assert gam[1, 0, 1] == pytest.approx(1.0)
        assert gam[1, 1, 0] == pytest.approx(1.0)

    def test_cpn_matches_closed_form(self, cpn1):
        for pt in [(0.3, 0.1)] + sample(cpn1, 10, 2):
            f = cpn1.frame(pt)
            got = christoffel_jet(f.g, f.ginv).val
            want = _cpn_gamma(cpn_at(cpn1, pt)).val
            assert maxabs(got - want) < 1e-10

    def test_symmetric_lower_indices(self, cpn2):
        for pt in sample(cpn2, 5, 3):
            f = cpn2.frame(pt)
            v = christoffel_jet(f.g, f.ginv).val
            assert maxabs(v - np.transpose(v, (0, 2, 1))) < 1e-14

    def test_degenerate_metric_error(self):
        g = component_jets(2, 2, [["x1", "0"], ["0", "1"]])
        with pytest.raises(DegenerateMetricError):
            g(point_carrier((0.0, 0.5))).matinv()


class TestCurvature:
    def test_flat_vanishes(self, flat1):
        assert maxabs(flat1.frame((0.1, 0.2)).riemann.val) == 0.0

    def test_cpn_matches_closed_form(self, cpn1, cpn2):
        for G, n in ((cpn1, 1), (cpn2, 2)):
            for pt in sample(G, 8, 4):
                assert maxabs(G.frame(pt).riemann.val - cpn_riemann(n, pt).val) < 1e-9

    def test_antisymmetry_in_direction_pair(self, cpn2):
        for pt in sample(cpn2, 5, 5):
            v = cpn2.frame(pt).riemann.val
            assert maxabs(v + np.transpose(v, (0, 1, 3, 2))) < 1e-12

    def test_first_bianchi(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 8, 6):
                v = G.frame(pt).riemann.val
                cyc = v + np.transpose(v, (0, 2, 3, 1)) + np.transpose(v, (0, 3, 1, 2))
                assert maxabs(cyc) < 1e-9

    def test_cp1_sectional_curvature_constant(self, cpn1):
        # constancy over the chart; the measured constant is frozen at 2
        for pt in sample(cpn1, 50, 7):
            f = cpn1.frame(pt)
            g, r = f.g.val.real, f.riemann.val.real
            rl = np.einsum("ce,edab->cdab", g, r)
            k = rl[0, 1, 0, 1] / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
            assert k == pytest.approx(2.0, abs=1e-10)


class TestTorsionContorsion:
    def test_levi_civita_gives_zero(self, cpn1):
        for pt in sample(cpn1, 5, 8):
            f = cpn1.frame(pt)
            assert maxabs(f.torsion.val) < 1e-14
            assert maxabs(f.contorsion.val) < 1e-13

    def test_synthetic_constant_torsion(self):
        c = 0.7
        gam_arr = np.zeros((2, 2, 2))
        gam_arr[0, 0, 1] = c
        tv = torsion_jet(Jet.const(2, gam_arr, 3)).val
        assert tv[0, 0, 1] == pytest.approx(c)
        assert tv[0, 1, 0] == pytest.approx(-c)

    def test_contorsion_vs_index_loop_oracle(self):
        G = synthetic_torsion_geometry([(0, 0, 1, 1)])
        for pt in sample(G, 6, 9):
            f = G.frame(pt)
            g = f.g.val
            ginv = np.linalg.inv(g)
            T = f.torsion.val
            d = 2
            # brute force: S^i_{jk} = (1/2) g^{im} (T_mjk - T_jkm - T_kjm)
            tl = np.zeros((d, d, d), dtype=complex)
            for m in range(d):
                for j in range(d):
                    for k in range(d):
                        tl[m, j, k] = sum(g[m, r] * T[r, j, k] for r in range(d))
            want = np.zeros((d, d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        want[i, j, k] = 0.5 * sum(
                            ginv[i, m] * (tl[m, j, k] - tl[j, k, m] - tl[k, j, m])
                            for m in range(d))
            assert maxabs(f.contorsion.val - want) < 1e-13


class TestCovDeriv:
    def test_metricity(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 25, 10):
                f = G.frame(pt)
                assert maxabs(cov_deriv_jet(f.g, f.gam, 0, 2).val) < 1e-10

    def test_constant_scalar_gradient(self, cpn1):
        d = cov_deriv_jet(Jet.const(2, 3.5, 3), cpn1.frame((0.2, 0.4)).gam, 0, 0)
        assert maxabs(d.val) == 0.0

    def test_kahler_form_parallel(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 10, 11):
                f = G.frame(pt)
                assert maxabs(cov_deriv_jet(f.om, f.gam, 2, 0).val) < 1e-12


class TestPoissonBracket:
    def test_canonical_pair(self, flat2):
        q1 = Field.from_expr(flat2.dim, "x1")
        p1 = Field.from_expr(flat2.dim, "x3")
        br = evolve_scalar(q1, p1, flat2)
        assert br.at((0.1, 0.2, 0.3, 0.4)).c.value == pytest.approx(1.0)

    def test_antisymmetry(self, cpn1):
        a = Field.from_expr(cpn1.dim, "x1^2*x2")
        br = evolve_scalar(a, a, cpn1)
        assert abs(br.at((0.4, -0.3)).c.value) < 1e-15

    def test_cp1_z_zbar_bracket(self, cpn1):
        # {z, zbar} = i t^-2 (1+|z|^2) = i (1+|z|^2)^2, read off the closed
        # form of the deformed commutator divided by the deformation unit
        z = Field.from_expr(cpn1.dim, "z1")
        zb = Field.from_expr(cpn1.dim, "conj(z1)")
        pt = (0.3, 0.1)
        br = evolve_scalar(z, zb, cpn1).at(pt).c.value
        zz = 0.3 ** 2 + 0.1 ** 2
        assert br == pytest.approx(1j * (1 + zz) ** 2)

    def test_leibniz(self, cpn1):
        rng = np.random.default_rng(13)
        from oracles import random_poly_field
        for _ in range(10):
            a = random_poly_field(cpn1.dim, rng)
            b = random_poly_field(cpn1.dim, rng)
            c = random_poly_field(cpn1.dim, rng)
            bc = Field(lambda p: LJet(b.at(p).c * c.at(p).c))
            pt = tuple(rng.uniform(-0.7, 0.7, size=2))
            lhs = evolve_scalar(a, bc, cpn1).at(pt).c.value
            rhs = (complex(b.at(pt).c.value)
                   * evolve_scalar(a, c, cpn1).at(pt).c.value
                   + complex(c.at(pt).c.value)
                   * evolve_scalar(a, b, cpn1).at(pt).c.value)
            assert abs(lhs - rhs) < 1e-10


class TestCompatResiduals:
    def test_cpn_all_vanish(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            t1, t2, mg = compat_residuals(G)
            for pt in sample(G, 30, 14):
                assert maxabs(t1.at(pt).c.val) < 1e-9
                assert maxabs(t2.at(pt).c.val) < 1e-9
                assert maxabs(mg.at(pt).c.val) < 1e-9

    def test_flat_exact_zero(self, flat2):
        t1, t2, mg = compat_residuals(flat2)
        pt = (0.5, -0.5, 0.25, 1.0)
        assert maxabs(t1.at(pt).c.val) == 0.0
        assert maxabs(t2.at(pt).c.val) == 0.0
        assert maxabs(mg.at(pt).c.val) == 0.0

    def test_synthetic_torsion_vs_index_loop_oracle(self):
        G = synthetic_torsion_geometry([(0, 0, 1, 1)])
        t1, _, _ = compat_residuals(G)
        for pt in sample(G, 6, 15):
            f = G.frame(pt)
            om = f.om.val
            T = f.torsion.val
            gam = f.gam.val
            dom = f.om.grad().val
            d = 2
            want = np.zeros((d, d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    for m in range(d):
                        acc = dom[i, j, m]
                        for k in range(d):
                            acc += gam[i, m, k] * om[k, j] + gam[j, m, k] * om[i, k]
                            acc += om[i, k] * T[j, k, m] - om[j, k] * T[i, k, m]
                        want[i, j, m] = acc
            got = t1.at(pt).c.val
            assert maxabs(got - want) < 1e-13
            assert maxabs(got) > 0.05   # residual genuinely nonzero


class TestFieldCache:
    """Field.at calls its provider once per point and keeps the jets of the last."""

    def test_drawn_polynomials_are_evaluated_once_per_batch(self, monkeypatch):
        draws, evals = [], []
        draw, evaluate = suites.draw_poly, suites.poly_jets

        def drawn(*args):
            draws.append(draw(*args))
            return draws[-1]

        def evaluated(d, polys, pts, order):
            evals.append([list(row) for row in polys])
            return evaluate(d, polys, pts, order)

        monkeypatch.setattr(suites, "draw_poly", drawn)
        monkeypatch.setattr(suites, "poly_jets", evaluated)
        run_suite("dga", make_cpn(1), points=2)
        # three scalars and two one-forms of two components per point, all
        # in the one batch's one evaluation, point by point in draw order
        assert len(draws) == 14
        assert evals == [[draws[:7], draws[7:]]]

    def test_cache_is_bounded(self):
        # the jets of the last point only: a point read twice in a row calls
        # the provider once, and a point read again after another twice
        calls = []
        f = Field(lambda pt: calls.append(pt) or LJet(Jet.const(1, pt[0], 0)))
        for k in range(100):
            for _ in range(2):
                assert f.at((float(k),)).c.value == k
        assert len(calls) == 100 and len(f._jets) == 1
        f.at((0.0,))
        assert len(calls) == 101

    def test_sum_reads_the_operands_cached_jets(self, cpn1):
        calls = []

        def provider(name, value):
            def fn(pt):
                calls.append(name)
                return LJet(Jet.const(2, np.full(2, value), 1))
            return fn

        X, Y = QTensor(cpn1, 1, provider("X", 1.0)), QTensor(cpn1, 1, provider("Y", 2.0))
        pt = (0.1, -0.2)
        X.at(pt)
        assert calls == ["X"]
        assert maxabs((X + Y).at(pt).c.val - 3.0) == 0.0
        assert maxabs((X - Y).at(pt).c.val + 1.0) == 0.0
        assert calls == ["X", "Y"]


class TestProviders:
    """A frame reads each provider once, and every other frame that needs
    the same quantity reads it from that frame."""

    def test_config_metric_asked_once_per_point_and_order(self):
        G = geometry_from_config(json.loads(EXP_PLANE.read_text()))
        asked, g_fn = Counter(), G.g_fn

        def counted(f):
            asked[f.point, f.order] += 1
            return g_fn(f)

        G.g_fn = counted
        run_suite("classical-compat", G, points=3, seed=1)
        run_suite("metric", G, points=3, seed=1)
        # both suites read one order-2 frame of the three points, whose
        # Levi-Civita Gamma reads g from the order-3 frame
        assert all(len(pt) == 3 for pt, k in asked)
        assert set(asked.values()) == {1}
        assert sum(n for (pt, k), n in asked.items() if k == 2) == 1

    def test_frame_found_by_value_and_by_identity_only_when_frozen(self):
        cpn1 = make_cpn(1)
        pt = (0.3, -0.2)
        f = cpn1.frame(pt)
        assert cpn1.frame(pt) is f and f.served is pt
        # an equal but distinct tuple still finds the frame
        same = tuple([0.3, -0.2])
        assert same is not pt and cpn1.frame(same) is f and f.served is same
        # a list point changed in place between calls gets the right frame
        p = [0.3, -0.2]
        assert cpn1.frame(p) is f and f.served is None
        p[0] = 0.5
        g = cpn1.frame(p)
        assert g is not f and g.point == (0.5, -0.2)
        assert g.g.val.tobytes() == make_cpn(1).frame((0.5, -0.2)).g.val.tobytes()
        # so does a batch whose rows are lists
        rows = ([0.1, 0.2], [0.3, 0.4])
        b = cpn1.frame(rows)
        rows[1][1] = -0.4
        assert cpn1.frame(rows) is not b and cpn1.frame(rows).point == ((0.1, 0.2), (0.3, -0.4))
