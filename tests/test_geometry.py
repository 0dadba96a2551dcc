import numpy as np
import pytest

from conftest import maxabs, sample
from oracles import cpn_riemann
from semiq.errors import DegenerateMetricError
from semiq import suites
from semiq.geometry import (CACHE_ENTRIES, Field, GeometryData, christoffel_jet,
                            compat_residuals, component_jets, cov_deriv_jet, poisson_bracket,
                            torsion_jet)
from semiq.geometries import _cpn_base, _cpn_gamma, make_cpn
from semiq.lambda_core import Jet, LJet, jet_einsum
from semiq.semiquant import QTensor


def synthetic_torsion_geometry(entries):
    """Flat 2d chart with prescribed connection entries (i, j, k, coord)."""
    eye = np.eye(2)
    om0 = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def gamma_fn(pt, order):
        total = Jet.zeros(2, (2, 2, 2), order)
        for (i, j, k, axis) in entries:
            basis = np.zeros((2, 2, 2))
            basis[i, j, k] = 1.0
            coef = Jet.coordinate(2, pt, axis, order)
            total = total + jet_einsum(",ijk->ijk", coef, basis)
        return total

    return GeometryData(2, lambda p, k: Jet.const(2, eye, k),
                        lambda p, k: Jet.const(2, eye, k),
                        lambda p, k: Jet.const(2, om0, k),
                        gamma_fn=gamma_fn, levi_civita=False, name="synthetic", box=1.5)


class TestChristoffel:
    def test_euclidean_vanishes(self, flat2):
        f = flat2.frame((0.3, -0.2, 0.1, 0.9))
        assert maxabs(christoffel_jet(f.g, f.ginv).val) == 0.0

    def test_conformal_metric_hand_values(self):
        # g = exp(2 x1) * identity in two dimensions, evaluated at x1 = 0
        g = component_jets(2, 2, [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
        ginv = component_jets(2, 2, [["exp(-2*x1)", "0"], ["0", "exp(-2*x1)"]])
        pt = (0.0, 0.7)
        gam = christoffel_jet(g(pt, 3), ginv(pt, 3)).val
        assert gam[0, 0, 0] == pytest.approx(1.0)
        assert gam[0, 1, 1] == pytest.approx(-1.0)
        assert gam[1, 0, 1] == pytest.approx(1.0)
        assert gam[1, 1, 0] == pytest.approx(1.0)

    def test_cpn_matches_closed_form(self, cpn1):
        for pt in [(0.3, 0.1)] + sample(cpn1, 10, 2):
            f = cpn1.frame(pt)
            got = christoffel_jet(f.g, f.ginv).val
            want = _cpn_gamma(*_cpn_base(1, pt)).val
            assert maxabs(got - want) < 1e-10

    def test_symmetric_lower_indices(self, cpn2):
        for pt in sample(cpn2, 5, 3):
            f = cpn2.frame(pt)
            v = christoffel_jet(f.g, f.ginv).val
            assert maxabs(v - np.transpose(v, (0, 2, 1))) < 1e-14

    def test_degenerate_metric_error(self):
        g = component_jets(2, 2, [["x1", "0"], ["0", "1"]])
        with pytest.raises(DegenerateMetricError):
            g((0.0, 0.5), 3).matinv()


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
        br = poisson_bracket(q1, p1, flat2)
        assert br.at((0.1, 0.2, 0.3, 0.4)).c.value == pytest.approx(1.0)

    def test_antisymmetry(self, cpn1):
        a = Field.from_expr(cpn1.dim, "x1^2*x2")
        br = poisson_bracket(a, a, cpn1)
        assert abs(br.at((0.4, -0.3)).c.value) < 1e-15

    def test_cp1_z_zbar_bracket(self, cpn1):
        # {z, zbar} = i t^-2 (1+|z|^2) = i (1+|z|^2)^2, read off the closed
        # form of the deformed commutator divided by the deformation unit
        z = Field.from_expr(cpn1.dim, "z1")
        zb = Field.from_expr(cpn1.dim, "conj(z1)")
        pt = (0.3, 0.1)
        br = poisson_bracket(z, zb, cpn1).at(pt).c.value
        zz = 0.3 ** 2 + 0.1 ** 2
        assert br == pytest.approx(1j * (1 + zz) ** 2)

    def test_leibniz(self, cpn1):
        rng = np.random.default_rng(13)
        from semiq.suites import random_poly_field
        for _ in range(10):
            a = random_poly_field(cpn1.dim, rng)
            b = random_poly_field(cpn1.dim, rng)
            c = random_poly_field(cpn1.dim, rng)
            bc = Field(lambda p: LJet(b.at(p).c * c.at(p).c))
            pt = tuple(rng.uniform(-0.7, 0.7, size=2))
            lhs = poisson_bracket(a, bc, cpn1).at(pt).c.value
            rhs = (complex(b.at(pt).c.value)
                   * poisson_bracket(a, c, cpn1).at(pt).c.value
                   + complex(c.at(pt).c.value)
                   * poisson_bracket(a, b, cpn1).at(pt).c.value)
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
    """Field.at calls its provider once per point and keeps the jets."""

    def test_random_field_providers_run_once_per_point(self, monkeypatch):
        calls, made = {}, []
        make = suites.random_poly_field

        def counted(*args, **kwargs):
            f, key = make(*args, **kwargs), len(made)
            fn = f.fn

            def provider(pt):
                calls[key, pt] = calls.get((key, pt), 0) + 1
                return fn(pt)

            f.fn = provider
            made.append(f)
            return f

        monkeypatch.setattr(suites, "random_poly_field", counted)
        suites.run_suite("dga", make_cpn(1), points=2)
        # three scalars and two one-forms of two components per point
        assert len(made) == 14
        assert sorted(k for k, _ in calls) == list(range(14))
        assert set(calls.values()) == {1}

    def test_cache_is_bounded(self):
        f = Field(lambda pt: LJet(Jet.const(1, pt[0], 0)))
        for k in range(CACHE_ENTRIES + 100):
            assert f.at((float(k),)).c.value == k
        assert len(f._jets) <= CACHE_ENTRIES + 1

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
