import numpy as np
import pytest

from conftest import maxabs, sample
from oracles import (cpn_omega_lower, gen_ricci, quantum_torsion, random_oneform,
                     random_poly_field, run_suite, to_classical)
from test_geometry import synthetic_torsion_geometry
from semiq.geometry import Field
from semiq.geometries import cpn_at, make_cpn, make_flat
from semiq.lambda_core import Jet, LJet, jet_einsum
from semiq.semiquant import (QTensor, classical_metric, g1_build, g_q_build,
                             module_action, nabla_Q, otimes1,
                             q_map, qlc_residual, sigma_Q,
                             sigma_basis, star_product, wedge1, wedge1_map)
from semiq import semiquant


def loop_torsion_cov(f):
    """Index-loop oracle for T^j_{nm;s} from connection jets."""
    d = f.dim
    T = f.torsion.val
    dT = f.torsion.grad().val
    gam = f.gam.val
    out = np.zeros((d, d, d, d), dtype=complex)
    for j in range(d):
        for n_ in range(d):
            for m in range(d):
                for s in range(d):
                    acc = dT[j, n_, m, s]
                    for r in range(d):
                        acc += gam[j, s, r] * T[r, n_, m]
                        acc -= gam[r, s, n_] * T[j, r, m]
                        acc -= gam[r, s, m] * T[j, n_, r]
                    out[j, n_, m, s] = acc
    return out


def loop_h_family(f):
    """Index-loop oracle for the wedge-correction two-forms.

    Assembles the components of (1/4) om^{is}(T^j_{nm;s} - 2 R^j_{nms})
    dx^m ^ dx^n with the curvature in the deformation sign convention.
    """
    d = f.dim
    om = f.om.val
    tc = loop_torsion_cov(f)
    rq = -f.riemann.val
    out = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(d):
                for b in range(d):
                    acc = 0.0
                    for s in range(d):
                        x_ab = 0.25 * om[i, s] * (tc[j, b, a, s] - 2 * rq[j, b, a, s])
                        x_ba = 0.25 * om[i, s] * (tc[j, a, b, s] - 2 * rq[j, a, b, s])
                        acc += x_ab - x_ba
                    out[i, j, a, b] = acc
    return out


class TestStarProduct:
    def test_unit(self, cpn1):
        a = Field.from_expr(cpn1.dim, "x1^2*x2+sin(x2)")
        one = Field.from_expr(cpn1.dim, "1")
        pt = (0.4, -0.2)
        v = star_product(a, one, cpn1).at(pt)
        w = a.at(pt)
        assert abs(complex(v.c.value) - complex(w.c.value)) == 0.0
        assert abs(complex(v.lam().value)) == 0.0

    def test_flat_canonical_commutator(self, flat2):
        pt = (0.1, 0.2, 0.3, 0.4)
        for i in range(2):
            for j in range(2):
                qi = Field.from_expr(flat2.dim, f"x{i+1}")
                pj = Field.from_expr(flat2.dim, f"x{j+3}")
                v = star_product(qi, pj, flat2).at(pt) - star_product(pj, qi, flat2).at(pt)
                assert complex(v.c.value) == 0
                assert complex(v.lam().value) == (1.0 if i == j else 0.0)

    def test_cp1_z_zbar_star_commutator(self, cpn1):
        z = Field.from_expr(cpn1.dim, "z1")
        zb = Field.from_expr(cpn1.dim, "conj(z1)")
        pt = (0.3, 0.1)
        v = star_product(z, zb, cpn1).at(pt) - star_product(zb, z, cpn1).at(pt)
        assert abs(complex(v.lam().value) - 1.21j) < 1e-14

    def test_associator_vanishes(self, cpn1, flat1):
        rng = np.random.default_rng(41)
        for G in (cpn1, flat1):
            for _ in range(20):
                a, b, c = (random_poly_field(G.dim, rng) for _ in range(3))
                pt = tuple(rng.uniform(-0.6, 0.6, size=G.dim))
                lhs = star_product(star_product(a, b, G), c, G).at(pt)
                rhs = star_product(a, star_product(b, c, G), G).at(pt)
                r = lhs - rhs
                assert abs(complex(r.c.value)) < 1e-12
                assert abs(complex(r.lam().value)) < 1e-10


class TestModuleAction:
    def test_constant_function_central(self, cpn1):
        xi = QTensor.constant_oneform(cpn1, [1.0, 2.0])
        a = Field.from_expr(cpn1.dim, "2.5+1i")
        pt = (0.2, 0.3)
        v = module_action(a, xi).at(pt) - \
            module_action(xi, a).at(pt)
        assert maxabs(v.c.val) == 0.0 and maxabs(v.lam().val) == 0.0

    def test_collection_roundtrip(self, cpn1):
        rng = np.random.default_rng(43)
        w = rng.normal(size=(2, 2))
        comp_fn = lambda p: LJet(jet_einsum("ab,b->a", w, Jet.coords(2, p)))
        xi = QTensor.from_oneform(cpn1, comp_fn)
        pt = (0.35, -0.15)
        back = to_classical(xi).at(pt)
        orig = comp_fn(pt)
        assert maxabs(back.c.val - orig.c.val) == 0.0
        assert maxabs(back.lam().val) < 1e-15

    def test_bimodule_associativity(self, cpn1):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = random_poly_field(cpn1.dim, rng)
            b = random_poly_field(cpn1.dim, rng)
            xi = QTensor.constant_oneform(cpn1, rng.normal(size=2))
            pt = tuple(rng.uniform(-0.6, 0.6, size=2))
            lhs = module_action(a, module_action(xi, b))
            rhs = module_action(module_action(a, xi), b)
            r = lhs.at(pt) - rhs.at(pt)
            assert maxabs(r.c.val) < 1e-12 and maxabs(r.lam().val) < 1e-10

    def test_one_function_and_one_tensor(self, cpn1):
        # the side of the action is the side of the function operand
        xi = QTensor.constant_oneform(cpn1, [1.0, 2.0])
        a = Field.from_expr(cpn1.dim, "x1")
        for x, y in ((xi, xi), (a, a)):
            with pytest.raises(ValueError, match="one function and one quantum tensor"):
                module_action(x, y)


class TestHFamily:
    def test_flat_vanishes(self, flat2):
        assert maxabs(flat2.frame((0.3, 0.1, -0.2, 0.5)).h_fam.val) == 0.0

    def test_antisymmetric_two_forms(self, cpn2):
        for pt in sample(cpn2, 5, 44):
            v = cpn2.frame(pt).h_fam.val
            assert maxabs(v + np.transpose(v, (0, 1, 3, 2))) < 1e-13

    def test_synthetic_torsion_vs_index_loop_oracle(self):
        G = synthetic_torsion_geometry([(0, 0, 1, 1)])
        for pt in sample(G, 5, 45):
            f = G.frame(pt)
            assert maxabs(f.h_fam.val - loop_h_family(f)) < 1e-12


class TestWedge1:
    def test_flat_undeformed(self, flat2):
        rng = np.random.default_rng(46)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        a = QTensor.constant_oneform(flat2, u)
        b = QTensor.constant_oneform(flat2, v)
        w = wedge1(a, b).at((0.1, 0.2, 0.3, 0.4))
        classical = np.einsum("a,b->ab", u, v) - np.einsum("a,b->ab", v, u)
        assert maxabs(w.c.val - classical) == 0.0
        assert maxabs(w.lam().val) == 0.0

    def test_degree_overflow_is_zero(self, cpn1):
        # a form of degree above the chart dimension vanishes
        a = QTensor.constant_oneform(cpn1, [1.0, 0.0])
        two = wedge1(a, QTensor.constant_oneform(cpn1, [0.0, 1.0]))
        v = wedge1(two, two).at((0.3, -0.2))
        assert v.c.shape == (2,) * 4
        assert maxabs(v.c.val) == 0.0 and maxabs(v.lam().val) < 1e-15

    def test_degree_zero_operand_rejected(self, cpn1):
        # a function acts on a form through module_action, not through wedge1
        s = QTensor(cpn1, 0, lambda p: LJet(Jet.const(2, 1.0)), form=True)
        a = QTensor.constant_oneform(cpn1, [1.0, 0.0])
        for x, y in ((s, a), (a, s)):
            with pytest.raises(ValueError, match="module_action"):
                wedge1(x, y)

    def test_graded_antisymmetry_classical_slot(self, cpn2):
        rng = np.random.default_rng(47)
        a = QTensor.constant_oneform(cpn2, rng.normal(size=4))
        b = QTensor.constant_oneform(cpn2, rng.normal(size=4))
        c = QTensor.constant_oneform(cpn2, rng.normal(size=4))
        pt = (0.2, -0.1, 0.3, 0.05)
        ab = wedge1(a, b)
        # (1,1): anticommute; (2,1): commute at the classical slot
        r11 = wedge1(a, b).at(pt).c.val + wedge1(b, a).at(pt).c.val
        assert maxabs(r11) < 1e-12
        r21 = wedge1(ab, c).at(pt).c.val - wedge1(c, ab).at(pt).c.val
        assert maxabs(r21) < 1e-12

    @pytest.mark.parametrize("geom", [make_cpn, make_flat])
    def test_first_order_associativity(self, geom):
        # the deformed wedge is nonassociative only at second order, so at
        # first order every bracketing of one-forms agrees in both slots;
        # this reads the lam slot of wedges of degree (2,1), (1,2), (2,2), (1,3)
        G = geom(2).at_order(2)
        rng = np.random.default_rng(61)
        for pt in sample(G, 2, 62):
            a, b, c, d = (random_oneform(G, rng) for _ in range(4))
            ab = wedge1(a, b)
            left = wedge1(ab, c).at(pt)
            right = wedge1(a, wedge1(b, c)).at(pt)
            assert maxabs(left.c.val - right.c.val) < 1e-12
            assert maxabs(left.lam().val - right.lam().val) < 1e-12
            four = [wedge1(wedge1(ab, c), d).at(pt),
                    wedge1(ab, wedge1(c, d)).at(pt),
                    wedge1(a, wedge1(b, wedge1(c, d))).at(pt)]
            for v in four[1:]:
                for x, y in ((four[0].c, v.c), (four[0].lam(), v.lam())):
                    assert maxabs(x.val - y.val) < 1e-14 * (1 + maxabs(y.val))

    @pytest.mark.parametrize("geom", ["cpn1", "cpn2", "flat1"])
    def test_oneform_leibniz(self, geom, request):
        # d(a . xi) = da ^1 xi + a . d xi on closed xi (d xi = 0): the cobasis
        # dx^k and exact forms db. This pins the sign of the H-family term in
        # the deformed wedge; d acts on classical components per lam grade.
        G = request.getfixturevalue(geom)
        rng = np.random.default_rng(57)

        def d_oneform(v):
            def d(j):
                g = j.grad()                     # g[b, a] = A_b,a
                return g.reorder("ba->ab") - g
            return LJet(d(v.c), d(v.lam()))

        def exact(s):
            return QTensor.from_oneform(G, lambda p: LJet(s.at(p).c.grad()))

        worst_c, worst_l = 0.0, 0.0
        for _ in range(4):
            a = random_poly_field(G.dim, rng)
            b = random_poly_field(G.dim, rng)
            xis = [QTensor.constant_oneform(G, np.eye(G.dim)[k]) for k in range(G.dim)]
            xis.append(exact(b))
            pt = tuple(rng.uniform(-0.6, 0.6, size=G.dim))
            for xi in xis:
                lhs = d_oneform(to_classical(module_action(a, xi)).at(pt))
                rhs = wedge1(exact(a), xi).at(pt)
                r = lhs - rhs
                worst_c = max(worst_c, maxabs(r.c.val))
                worst_l = max(worst_l, maxabs(r.lam().val))
        assert worst_c < 1e-12 and worst_l < 1e-10


class TestNablaQ:
    def test_flat_cobasis_parallel(self, flat2):
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            v = nabla_Q(QTensor.constant_oneform(flat2, e)).at((0.1, 0.4, -0.2, 0.3))
            assert maxabs(v.c.val) == 0.0 and maxabs(v.lam().val) == 0.0

    def test_classical_limit_is_connection(self, cpn1):
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1.0
            for pt in sample(cpn1, 4, 48):
                f = cpn1.frame(pt)
                v = nabla_Q(QTensor.constant_oneform(cpn1, e)).at(pt)
                assert maxabs(v.c.val + f.gam.val[k]) < 1e-14

    def test_left_leibniz(self, cpn1):
        rng = np.random.default_rng(49)
        for _ in range(6):
            a = random_poly_field(cpn1.dim, rng)
            xi = QTensor.constant_oneform(cpn1, rng.normal(size=2))
            pt = tuple(rng.uniform(-0.6, 0.6, size=2))
            lhs = nabla_Q(module_action(a, xi)).at(pt)
            da = QTensor.from_oneform(
                cpn1, lambda p, s=a: LJet(s.at(p).c.grad()))
            rhs = (module_action(a, nabla_Q(xi)).at(pt)
                   + otimes1(da, xi).at(pt))
            r = lhs - rhs
            assert maxabs(r.c.val) < 1e-12 and maxabs(r.lam().val) < 1e-9

    def test_rejects_forms_and_classical_tensors(self, cpn1):
        # a quantum form stores model components, not the normal form that
        # nabla_Q reads; a q0 tensor lies on the classical side of q_map
        xi = QTensor.constant_oneform(cpn1, [1.0, 2.0])
        form = QTensor(cpn1, 1, xi.fn, form=True)
        classical = q_map(g_q_build(cpn1))
        for bad in (form, classical):
            with pytest.raises(ValueError, match="tensor-basis"):
                nabla_Q(bad)


class TestSigmaQ:
    def test_classical_slot_is_flip(self, cpn1):
        rng = np.random.default_rng(50)
        a = random_poly_field(cpn1.dim, rng)
        xi = QTensor.constant_oneform(cpn1, rng.normal(size=2))
        pt = (0.3, -0.4)
        sig = sigma_Q(a, xi).at(pt)
        da = a.at(pt).c.grad().val
        flip = np.einsum("m,n->mn", da, xi.at(pt).c.val)
        assert maxabs(sig.c.val - flip) < 1e-13

    def test_flat_flip_exact_at_both_slots(self, flat1):
        a = Field.from_expr(flat1.dim, "x1^2*x2")
        xi = QTensor.constant_oneform(flat1, [0.5, -1.5])
        pt = (0.7, 0.2)
        sig = sigma_Q(a, xi).at(pt)
        da = a.at(pt).c.grad().val
        assert maxabs(sig.c.val - np.einsum("m,n->mn", da, xi.at(pt).c.val)) == 0.0
        assert maxabs(sig.lam().val) == 0.0

    def test_two_code_paths_agree(self, cpn1):
        # the defining-difference operator against the bimodule-map
        # expansion through the braiding of cobasis monomials
        pt = (0.25, 0.45)
        x = cpn_at(cpn1, pt)
        a = Field(lambda p: LJet(cpn_at(cpn1, p).z.take_index(0)))      # z^1
        xi = QTensor.constant_oneform(cpn1, np.conjugate(x.cm[0]))
        f = cpn1.frame(pt)
        sig = sigma_Q(a, xi).at(pt)
        # independent route: expand xi (x)1 da in the monomial basis and
        # contract with the braiding structure constants (indexed by the
        # differential slot first)
        X = otimes1(xi, QTensor.from_oneform(cpn1, lambda p, s=a: LJet(s.at(p).c.grad()))
                    ).at(pt)
        s1 = sigma_basis(f)
        flip_c = X.c.val.T
        lam = X.lam().val.T + np.einsum("rs,sruv->uv", X.c.val, s1)
        assert maxabs(sig.c.val - flip_c) < 1e-13
        assert maxabs(sig.lam().val - lam) < 1e-12


class TestQuantumTorsion:
    def test_torsion_free_connection_gives_zero(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            xi = QTensor.constant_oneform(G, np.arange(1.0, G.dim + 1))
            for pt in sample(G, 4, 51):
                v = quantum_torsion(xi).at(pt)
                assert maxabs(v.c.val) < 1e-13 and maxabs(v.lam().val) < 1e-13

    def test_rejects_higher_rank(self, cpn1):
        with pytest.raises(ValueError, match="one-forms"):
            quantum_torsion(g_q_build(cpn1))

    def test_zero_input(self, cpn1):
        v = quantum_torsion(QTensor.constant_oneform(cpn1, [0.0, 0.0])).at((0.1, 0.1))
        assert maxabs(v.c.val) == 0.0 and maxabs(v.lam().val) == 0.0

    def test_constant_torsion_classical_slot(self):
        # constant-coefficient torsionful connection on the flat chart:
        # the classical slot of the quantum torsion of dx^i is the
        # classical torsion two-form, -xi_i T^i_{ab}
        from semiq.geometry import GeometryData
        c = 0.8
        gam_arr = np.zeros((2, 2, 2))
        gam_arr[0, 0, 1] = c
        G = GeometryData(2, lambda f: Jet.const(2, np.eye(2), f.order),
                         lambda f: Jet.const(2, np.eye(2), f.order),
                         lambda f: Jet.const(2, np.array([[0., 1.], [-1., 0.]]), f.order),
                         gamma_fn=lambda f: Jet.const(2, gam_arr, f.order),
                         levi_civita=False, name="const-torsion", box=1.0)
        xi = QTensor.constant_oneform(G, [1.0, 0.0])
        pt = (0.3, 0.2)
        v = quantum_torsion(xi).at(pt)
        f = G.frame(pt)
        want = -np.einsum("i,iab->ab", np.array([1.0, 0.0]), f.torsion.val)
        assert maxabs(v.c.val - want) < 1e-14
        # first-order slot against the index-loop oracle for the display
        d = 2
        om, tcov, gam = f.om.val, loop_torsion_cov(f), f.gam.val
        xiv = np.array([1.0, 0.0])
        dxi = np.zeros((d, d), dtype=complex)     # (nabla_i xi)_j, constant coeffs
        for i in range(d):
            for j in range(d):
                dxi[i, j] = -sum(gam[r, i, j] * xiv[r] for r in range(d))
        X = np.zeros((d, d), dtype=complex)
        for m in range(d):
            for n_ in range(d):
                acc = 0.0
                for i in range(d):
                    for s in range(d):
                        for j in range(d):
                            acc += 0.25 * dxi[i, j] * om[i, s] * tcov[j, n_, m, s]
                X[m, n_] = acc
        want_l = (X - X.T)  # remaining wedge-basis corrections vanish: H and
        # the connection corrections are second order in the constant c at
        # the classical slot of xi which is constant, checked numerically
        U1 = np.einsum("ij,mia->mja", om, gam)
        U2 = np.einsum("mja,njb->mnab", U1, gam)
        Xc = 0.5 * np.einsum("i,inm->mn", xiv, f.torsion.val)
        t = np.einsum("mnab,mn->ab", U2, Xc)
        want_l = want_l + 0.5 * (t - np.transpose(t, (1, 0)))
        want_l = want_l - np.einsum("mn,mnab->ab", Xc, f.h_fam.val)
        assert maxabs(v.lam().val - want_l) < 1e-13


class TestQuantumMetric:
    def test_flat_metric_undeformed(self, flat2):
        v = g_q_build(flat2).at((0.1, 0.2, 0.3, 0.4))
        assert maxabs(v.c.val - np.eye(4)) == 0.0
        assert maxabs(v.lam().val) == 0.0

    def test_correction_vanishes_at_chart_center(self, cpn1):
        v = g_q_build(cpn1).at((0.0, 0.0))
        assert maxabs(v.lam().val) == 0.0

    def test_quantum_metric_parallel(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            ngq = nabla_Q(g_q_build(G))
            for pt in sample(G, 10, 52):
                v = ngq.at(pt)
                assert maxabs(v.c.val) < 1e-12
                assert maxabs(v.lam().val) < 1e-8

    def test_wedge_of_quantum_metrics(self, cpn1, cpn2):
        # the deformed wedge sends g_Q to minus the generalized Ricci
        # two-form (in the reported orientation) and annihilates g1
        for G in (cpn1, cpn2):
            gq, g1 = g_q_build(G), g1_build(G)
            for pt in sample(G, 10, 53):
                f = G.frame(pt)
                wq = wedge1_map(gq).at(pt)
                assert maxabs(wq.c.val) < 1e-13
                assert maxabs(wq.lam().val + f.ricci2.val) < 1e-9
                w1 = wedge1_map(g1).at(pt)
                assert maxabs(w1.c.val) < 1e-13
                assert maxabs(w1.lam().val) < 1e-9


    def test_coefficients_built_once_per_frame(self, monkeypatch):
        # the metric suite's g_Q and the one inside its g1, and the
        # catalogue's g1 at the same points, share one build per frame
        built, einsum = [], semiquant.jet_einsum

        def counted(spec, a, b):
            if spec == "pm,piq->miq":       # the first contraction of _gq_coeff
                built.append(spec)
            return einsum(spec, a, b)

        monkeypatch.setattr(semiquant, "jet_einsum", counted)
        G = make_cpn(2)
        # one frame holds each suite's batch of the three points
        run_suite("metric", G, points=3, seed=1)
        assert len(built) == 1
        run_suite("cpn-catalogue", G, points=3, seed=1)
        assert len(built) == 1


class TestGenRicci:
    def test_flat_zero(self, flat2):
        v = gen_ricci(flat2).at((0.5, 0.1, -0.3, 0.2))
        assert maxabs(v.c.val) == 0.0

    def test_two_routes_agree(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            for pt in sample(G, 20, 54):
                f = G.frame(pt)
                assert maxabs(f.ricci2.val - f.ricci2_direct.val) < 1e-10

    def test_cpn_proportional_to_symplectic_form(self, cpn1, cpn2):
        for G, n in ((cpn1, 1), (cpn2, 2)):
            r = gen_ricci(G)
            for pt in sample(G, 10, 55):
                var = -2.0 * cpn_omega_lower(n, pt).val
                assert maxabs(r.at(pt).c.val + 0.5 * (n + 1) * var) < 1e-8

    def test_torsion_free_reduction_vs_index_loop(self, cpn1):
        # with vanishing torsion both routes reduce to a pure curvature
        # contraction; assemble it with explicit loops
        for pt in sample(cpn1, 3, 56):
            f = cpn1.frame(pt)
            d = 2
            g, om, rq = f.g.val, f.om.val, -f.riemann.val
            want = np.zeros((d, d), dtype=complex)
            for a in range(d):
                for b in range(d):
                    acc = 0.0
                    for i in range(d):
                        for j in range(d):
                            for s in range(d):
                                acc += 0.5 * g[i, j] * om[i, s] * (-rq[j, b, a, s] + rq[j, a, b, s])
                    want[a, b] = acc
            assert maxabs(f.ricci2.val - want) < 1e-12


class TestQMap:
    def test_flat_identity(self, flat2):
        rng = np.random.default_rng(57)
        arr = rng.normal(size=(4, 4))
        X = QTensor(flat2, 2, lambda p: LJet(Jet.const(4, arr, 3)))
        v = q_map(X).at((0.1, 0.2, 0.3, 0.4))
        assert maxabs(v.c.val - arr) == 0.0 and maxabs(v.lam().val) == 0.0

    def test_roundtrip(self, cpn2):
        rng = np.random.default_rng(58)
        arr0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        arr1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        X = QTensor(cpn2, 2, lambda p: LJet(Jet.const(4, arr0, 3), Jet.const(4, arr1, 3)))
        for pt in sample(cpn2, 4, 59):
            rt = q_map(q_map(X), cpn2).at(pt)
            assert maxabs(rt.c.val - arr0) < 1e-13
            assert maxabs(rt.lam().val - arr1) < 1e-12

    def test_direction_follows_the_operand(self, cpn1):
        # a quantum tensor maps forward alone; a classical Field needs the
        # geometry of its chart to map back; a form has no normal form to map
        gq = g_q_build(cpn1)
        form = QTensor(cpn1, 2, gq.fn, form=True)
        for args in ((q_map(gq),), (gq, cpn1), (form,)):
            with pytest.raises(ValueError):
                q_map(*args)

    def test_inverse_of_metric_is_quantum_metric(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            gq = g_q_build(G)
            qinv = q_map(classical_metric(G), G)
            for pt in sample(G, 10, 60):
                r = gq.at(pt) - qinv.at(pt)
                assert maxabs(r.c.val) < 1e-13
                assert maxabs(r.lam().val) < 1e-10


def loop_qlc(f):
    """Index-loop oracle for the quantum-Levi-Civita obstruction residual."""
    d = f.dim
    g, om = f.g.val, f.om.val
    S = f.contorsion.val
    rq = -f.riemann.val
    ricci = f.ricci2.val
    dricci = f.ricci2.grad().val
    gam_lc = f.gam_lc.val
    gam = f.gam.val
    dS = f.contorsion.grad().val
    # S^r_{km;i} with explicit loops
    scov = np.zeros((d, d, d, d), dtype=complex)
    for r in range(d):
        for k in range(d):
            for m in range(d):
                for i in range(d):
                    acc = dS[r, k, m, i]
                    for u in range(d):
                        acc += gam[r, i, u] * S[u, k, m]
                        acc -= gam[u, i, k] * S[r, u, m]
                        acc -= gam[u, i, m] * S[r, k, u]
                    scov[r, k, m, i] = acc
    out = np.zeros((d, d, d), dtype=complex)
    for m in range(d):
        for n_ in range(d):
            for k in range(d):
                acc = dricci[m, n_, k]
                for r in range(d):
                    acc -= gam_lc[r, k, m] * ricci[r, n_]
                    acc -= gam_lc[r, k, n_] * ricci[m, r]
                for i in range(d):
                    for j in range(d):
                        for r in range(d):
                            for s in range(d):
                                w_mn = rq[r, m, k, i] + scov[r, k, m, i]
                                w_nm = rq[r, n_, k, i] + scov[r, k, n_, i]
                                acc -= om[i, j] * g[r, s] * S[s, j, n_] * w_mn
                                acc += om[i, j] * g[r, s] * S[s, j, m] * w_nm
                out[m, n_, k] = acc
    return out


class TestQlcResidual:
    def test_flat_exact_zero(self, flat2):
        v = qlc_residual(flat2).at((0.3, -0.3, 0.2, 0.1))
        assert maxabs(v.c.val) == 0.0

    def test_cpn_vanishes(self, cpn1, cpn2):
        for G in (cpn1, cpn2):
            res = qlc_residual(G)
            for pt in sample(G, 20, 61):
                assert maxabs(res.at(pt).c.val) < 1e-8

    def test_levi_civita_geometry_builds_no_contorsion(self):
        G = make_cpn(1).at_order(2)
        pt = (0.3, -0.2)
        qlc_residual(G).at(pt)
        assert "contorsion" not in vars(G.frame(pt))

    def test_torsion_counterexample_vs_index_loop(self, torsion2):
        res = qlc_residual(torsion2)
        worst = 0.0
        for pt in sample(torsion2, 10, 62):
            f = torsion2.frame(pt)
            got = res.at(pt).c.val
            assert maxabs(got - loop_qlc(f)) < 1e-12
            worst = max(worst, maxabs(got))
        assert worst > 1e-3
