import numpy as np
import pytest

from conftest import maxabs, sample
from oracles import k0, kappa, varpi
from semiq import geometries
from semiq.cli import main
from semiq.errors import ConfigError, UnknownCheckError
from semiq.geometries import (CATALOGUE, CPnPoint, cpn_at, cpn_catalogue_residual,
                              cpn_expected, fold_index, make_cpn, make_flat,
                              make_flat_torsion, _shift_matrix)
from semiq.geometry import cov_deriv_jet
from semiq.lambda_core import jet_einsum
from semiq.suites import run_suite


class TestIndexFolding:
    def test_fold_rule(self):
        # x^b = -x^{b+2n}: folding beyond the chart range flips the sign
        assert fold_index(0, 4) == (1, 0)
        assert fold_index(5, 4) == (-1, 1)
        assert fold_index(9, 4) == (1, 1)
        assert fold_index(-1, 4) == (-1, 3)

    def test_kappa_three_cases(self):
        two_n = 4
        assert kappa(1, 1, two_n) == 1
        assert kappa(1, 5, two_n) == -1
        assert kappa(1, 9, two_n) == 1
        assert kappa(1, 2, two_n) == 0
        for a in range(two_n):
            assert kappa(a, a, two_n) == 1

    def test_shift_matrix_is_shifted_kappa(self):
        for n in range(1, 5):
            KP = [[kappa(a + n, c, 2 * n) for c in range(2 * n)] for a in range(2 * n)]
            assert np.array_equal(_shift_matrix(n), np.array(KP, dtype=float))
            # the flat chart's Poisson bivector is the same matrix
            pt = (0.1,) * (2 * n)
            assert np.array_equal(make_flat(n).frame(pt).om.val, _shift_matrix(n))


class TestFlat:
    def test_canonical_structure(self, flat2):
        f = flat2.frame((0.1, 0.2, 0.3, 0.4))
        assert maxabs(f.g.val - np.eye(4)) == 0.0
        assert maxabs(f.gam.val) == 0.0
        om = f.om.val.real
        assert om[0, 2] == 1.0 and om[2, 0] == -1.0 and om[1, 3] == 1.0


class TestCpnData:
    def test_inverse_pair(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 50, 21):
                f = G.frame(pt)
                ident = jet_einsum("am,mb->ab", f.g, f.ginv).val
                assert maxabs(ident - np.eye(G.dim)) < 1e-10

    def test_complex_structure_squares_to_minus_one(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 20, 22):
                f = G.frame(pt)
                J = np.einsum("ab,bc->ac", f.om.val, f.g.val)
                assert maxabs(J @ J + np.eye(G.dim)) < 1e-9

    def test_einstein_constant(self, cpn1, cpn2):
        # Ricci tensor proportional to the metric; measured constant n+1
        for G, n in ((cpn1, 1), (cpn2, 2)):
            for pt in sample(G, 25, 23):
                f = G.frame(pt)
                ric = np.einsum("adab->db", f.riemann.val)
                assert maxabs(ric - (n + 1) * f.g.val) < 1e-9

    def test_w_constraint(self, cpn2):
        for pt in sample(cpn2, 20, 24):
            c = cpn_at(cpn2, pt)
            w = c.w.val
            t2 = c.t2.value
            assert abs(t2 - (1 - np.sum(np.abs(w) ** 2))) < 1e-12


class TestCpnFrame:
    def test_tau_plus_taubar(self, cpn1, cpn2):
        # tau + taubar = d ln(1+|z|^2)
        for G in (cpn1, cpn2):
            for pt in sample(G, 10, 25):
                c = cpn_at(G, pt)
                tau = c.tau
                assert maxabs((tau + tau.conj()).val - k0(c).grad().val) < 1e-12

    def test_varpi_three_ways(self, cpn1, cpn2):
        # varpi = 2i g_{i jbar} dz^i ^ dzbar^j = -2i d tau = i wedge(gammabar - gamma)
        for G in (cpn1, cpn2):
            n = G.dim // 2
            for pt in sample(G, 8, 26):
                c = cpn_at(G, pt)
                var = varpi(c).val
                gh = c.g_hermitian.val
                route1 = np.zeros_like(var)
                for i in range(n):
                    for j in range(n):
                        ci, cbj = c.cm[i], np.conjugate(c.cm[j])
                        route1 += 2j * gh[i, j] * (np.einsum("a,b->ab", ci, cbj)
                                                   - np.einsum("a,b->ab", cbj, ci))
                assert maxabs(var - route1) < 1e-10
                dtau = c.tau.grad().val                # [a, k]
                route2 = -2j * (dtau.T - dtau)
                assert maxabs(var - route2) < 1e-10
                gam_ = c.gamma.val
                gamb = c.gamma.conj().val
                route3 = 1j * ((gamb - gam_) - (gamb - gam_).T)
                assert maxabs(var - route3) < 1e-10

    def test_metric_splits(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 8, 27):
                f = G.frame(pt)
                gam_ = cpn_at(G, pt).gamma.val
                gamb = cpn_at(G, pt).gamma.conj().val
                assert maxabs(f.g.val - (gam_ + gamb)) < 1e-12

    def test_kahler_potential_hessian(self, cpn1, cpn2):
        # g_{i jbar} equals the mixed complex second derivatives of K0
        for G in (cpn1, cpn2):
            n = G.dim // 2
            for pt in sample(G, 8, 28):
                c = cpn_at(G, pt)
                h = k0(c).levels[2]
                gh = c.g_hermitian.val
                for i in range(n):
                    for j in range(n):
                        dd = 0.25 * (h[i, j] + 1j * h[i, j + n]
                                     - 1j * h[i + n, j] + h[i + n, j + n])
                        assert abs(dd - gh[i, j]) < 1e-12

    def test_levi_civita_on_complex_frame(self, cpn1, cpn2):
        # nabla dz^i_pm = tau_pm (x) dz^i_pm + dz^i_pm (x) tau_pm
        for G in (cpn1, cpn2):
            n = G.dim // 2
            for pt in sample(G, 8, 29):
                f = G.frame(pt)
                c = cpn_at(G, pt)
                tau = c.tau.val
                for sgn in (+1, -1):
                    tv = tau if sgn > 0 else np.conjugate(tau)
                    for i in range(n):
                        cv = c.cm[i] if sgn > 0 else np.conjugate(c.cm[i])
                        lhs = -np.einsum("rmn,r->mn", f.gam.val, cv)
                        rhs = np.einsum("m,n->mn", tv, cv) + np.einsum("m,n->mn", cv, tv)
                        assert maxabs(lhs - rhs) < 1e-9

    def test_curvature_map_on_complex_frame(self, cpn1, cpn2):
        # R(dz_pm) = pm (i/2) varpi (x) dz^i_pm - dz^i_pm ^ gamma_pm
        for G in (cpn1, cpn2):
            n = G.dim // 2
            for pt in sample(G, 6, 30):
                f = G.frame(pt)
                c = cpn_at(G, pt)
                var = varpi(c).val
                for sgn in (+1, -1):
                    gma = (c.gamma.conj() if sgn < 0 else c.gamma).val
                    for i in range(n):
                        cv = c.cm[i] if sgn > 0 else np.conjugate(c.cm[i])
                        lhs = -np.einsum("c,cdab->abd", cv, f.riemann.val)
                        rhs = sgn * 0.5j * np.einsum("ab,d->abd", var, cv) \
                            - (np.einsum("a,bd->abd", cv, gma)
                               - np.einsum("b,ad->abd", cv, gma))
                        assert maxabs(lhs - rhs) < 1e-8


class TestCatalogue:
    def test_unknown_check_rejected(self, cpn1):
        with pytest.raises(UnknownCheckError):
            cpn_expected(cpn1, "no-such-check", (0.1, 0.1))

    def test_former_aliases_rejected(self, cpn1):
        assert len(CATALOGUE) == 19
        for name in ("z-comm", "w-comm"):
            assert name not in CATALOGUE
            with pytest.raises(UnknownCheckError):
                cpn_catalogue_residual(cpn1, name, (0.1, 0.1))

    def test_w_commutator_canonical_everywhere(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 5, 31):
                c, l = cpn_expected(G, "w-wbar-comm", pt)
                n = G.dim // 2
                assert maxabs(l - 1j * np.eye(n)) == 0.0

    def test_z_commutator_at_origin(self, cpn1):
        c, l = cpn_expected(cpn1, "z-zbar-comm", (0.0, 0.0))
        assert maxabs(l - 1j * np.eye(1)) == 0.0

    @pytest.mark.parametrize("make", [lambda: make_flat(1), make_flat_torsion],
                             ids=["flat", "flat-torsion"])
    def test_other_geometries_rejected(self, make):
        # the closed forms hold on the projective space alone
        G = make()
        with pytest.raises(ConfigError):
            cpn_expected(G, "z-zbar-comm", (0.1, 0.2))
        with pytest.raises(ConfigError):
            cpn_catalogue_residual(G, "z-zbar-comm", (0.1, 0.2))

    def test_complex_frame_built_once_per_frame(self, cpn2, monkeypatch):
        pt = (0.1, 0.2, -0.3, 0.05)
        assert cpn_at(cpn2, pt) is cpn_at(cpn2, pt)
        built, init = [], CPnPoint.__init__

        def counted(self, f):
            built.append(f.point)
            init(self, f)

        monkeypatch.setattr(CPnPoint, "__init__", counted)
        run_suite("cpn-catalogue", make_cpn(2), points=2)
        assert len(built) == len(set(built)) == 2

    def test_base_jets_built_once_per_frame(self, monkeypatch, capsys):
        calls, base = [], geometries._cpn_base

        def counted(n, pt, order=3):
            calls.append((pt, order))
            return base(n, pt, order)

        monkeypatch.setattr(geometries, "_cpn_base", counted)
        for seed in range(1, 5):
            assert main(["check", "cpn", "--n", "2", "--points", "2",
                         "--seed", str(seed)]) == 0
        capsys.readouterr()
        # two points at order 1 (classical-compat) and two at order 2, per seed
        assert len(calls) == len(set(calls)) <= 16

    def test_every_check_small_on_samples(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for name in sorted(CATALOGUE):
                for pt in sample(G, 3, 32):
                    rc, rl = cpn_catalogue_residual(G, name, pt)
                    assert max(rc, rl) < 1e-8, (name, pt)
