import numpy as np
import pytest

from conftest import canonical_hamiltonian, maxabs, sample
from semiq.evolution import (defect_two_route_residual, evolution_defect, evolve_oneform,
                             evolve_scalar, ham_vf)
from semiq.geometry import Field, poisson_bracket
from semiq.lambda_core import Jet, LJet, jet_einsum
from semiq.suites import random_poly_field


class TestHamVf:
    def test_free_particle(self):
        G, H = canonical_hamiltonian(2, mass=1.5)
        pt = (0.1, 0.2, 0.9, -0.6)
        v = ham_vf(H, G).at(pt).c.val
        assert np.allclose(v[:2], [0.9 / 1.5, -0.6 / 1.5])
        assert np.allclose(v[2:], 0)

    def test_forced_particle(self):
        G, H = canonical_hamiltonian(1, mass=2.0, potential="x1^3")
        pt = (0.5, 0.1)
        v = ham_vf(H, G).at(pt).c.val
        assert v[1] == pytest.approx(-3 * 0.5 ** 2)

    def test_agrees_with_bracket(self, cpn1):
        rng = np.random.default_rng(70)
        H = Field.from_expr(cpn1.dim, "z1*conj(z1)")
        vf = ham_vf(H, cpn1)
        for _ in range(10):
            a = random_poly_field(cpn1.dim, rng)
            pt = tuple(rng.uniform(-0.7, 0.7, size=2))
            adot = poisson_bracket(a, H, cpn1).at(pt).c.value
            v = vf.at(pt).c.val
            da = a.at(pt).c.grad().val
            assert abs(adot - np.dot(v, da)) < 1e-10


class TestEvolveOneform:
    def test_flat_cobasis_invariant(self, flat2):
        H = Field.from_expr(flat2.dim, "(x3^2+x4^2)/2+x1^2*x2")
        for k in range(4):
            xi = Field(lambda p, k=k: LJet(Jet.const(4, np.eye(4)[k], 3)))
            v = evolve_oneform(xi, H, flat2).at((0.4, 0.1, -0.2, 0.3))
            assert maxabs(v.c.val) == 0.0

    def test_curved_vs_index_loop_oracle(self, cpn1):
        rng = np.random.default_rng(71)
        H = Field.from_expr(cpn1.dim, "x1^2+0.4*x2")
        w = rng.normal(size=(2, 2))
        xi = Field(lambda p: LJet(jet_einsum("ab,b->a", w, Jet.coords(2, p))))
        out = evolve_oneform(xi, H, cpn1)
        for pt in sample(cpn1, 6, 72):
            f = cpn1.frame(pt)
            vk = ham_vf(H, cpn1).at(pt).c.val
            xj = xi.at(pt).c
            dxi = xj.grad().val
            gam = f.gam.val
            want = np.zeros(2, dtype=complex)
            for i in range(2):
                for k in range(2):
                    want[i] += vk[k] * (dxi[i, k]
                                        - sum(gam[j, k, i] * xj.val[j] for j in range(2)))
            assert maxabs(out.at(pt).c.val - want) < 1e-12


class TestEvolutionDefect:
    def test_free_hamiltonian_display(self):
        G, H = canonical_hamiltonian(1, mass=2.0)
        a = Field.from_expr(G.dim, "x1")
        v = evolution_defect(a, H, G).at((0.4, -0.3)).c.val
        assert np.allclose(v, [0.0, -1.0 / 2.0])

    def test_constant_observable(self):
        G, H = canonical_hamiltonian(1, mass=1.0, potential="x1^2")
        a = Field.from_expr(G.dim, "4.2")
        v = evolution_defect(a, H, G).at((0.4, -0.3)).c.val
        assert maxabs(v) == 0.0

    def test_harmonic_two_routes(self):
        m, omega = 1.7, 0.9
        G, H = canonical_hamiltonian(1, mass=m, potential=f"0.5*{m}*{omega}^2*x1^2")
        a = Field.from_expr(G.dim, "x2")    # p observable
        for pt in [(0.3, 0.2), (-0.5, 0.8)]:
            assert defect_two_route_residual(a, H, G, pt) < 1e-12
            # display: V_,11 da/dp dq^1 with da/dp = 1
            v = evolution_defect(a, H, G).at(pt).c.val
            assert v[0] == pytest.approx(m * omega ** 2)
            assert v[1] == pytest.approx(0.0)

    def test_identity_for_compatible_geometries(self, flat2, cpn1):
        rng = np.random.default_rng(73)
        for G in (flat2, cpn1):
            for _ in range(5):
                a = random_poly_field(G.dim, rng)
                H = random_poly_field(G.dim, rng)
                pt = tuple(rng.uniform(-0.6, 0.6, size=G.dim))
                assert defect_two_route_residual(a, H, G, pt) < 1e-9
