"""Independent symbolic oracle for the sign in acceptance criterion 5.

The oracle rebuilds, with sympy and from the defining formulas alone, the
first-order calculus of a two-dimensional chart: the star product, the
bimodule actions on forms, the deformed wedge of one-forms (from the
graded Leibniz rule), the quantisation map q and the quantum metric
g_Q = q^{-1}(g), the wedge-correction two-forms H and the deformed wedge
of g_Q. It shares no code with the engine. It then compares its results
with the engine on the quantities of acceptance criteria 4, 5 and 7, on
CP^1 and on the flat plane (canonical and conformal charts).

Its finding, derived in docs/criterion5.md: the definitions force
wedge1(g_Q) = lam g_ij H^ij, and on CP^n this is -(n+1) lam g.om.g, minus
lam times the generalized Ricci two-form of criterion 4. The engine
reproduces every oracle quantity, so criteria 4 and 5 (first clause)
cannot both hold as stated; which one misstates the paper is a question
for the paper's text, not for the engine.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from conftest import sample
from oracles import cpn_omega_lower
from semiq.geometries import cpn_expected, make_cpn, make_flat
from semiq.geometry import geometry_from_config
from semiq.semiquant import (QTensor, g1_build, g_q_build, wedge1, wedge1_map)

X = sp.symbols("x1 x2", real=True)
D = 2
HALF = sp.Rational(1, 2)


def e(i):
    """The cobasis one-form dx^i as a component column."""
    return sp.Matrix([1 if k == i else 0 for k in range(D)])


def ext_d(A):
    """Exterior derivative of a one-form: (dA)_{ab} = A_b,a - A_a,b."""
    return sp.Matrix(D, D, lambda a, b: sp.diff(A[b], X[a]) - sp.diff(A[a], X[b]))


def wedge(u, v):
    """Classical wedge of one-forms, (u ^ v)_{ab} = u_a v_b - u_b v_a."""
    return u * v.T - v * u.T


def simplified(M):
    return M.applyfunc(lambda t: sp.simplify(sp.cancel(t)))


def is_zero(M):
    return all(sp.simplify(sp.cancel(t)) == 0 for t in M)


class Oracle:
    """First-order calculus of a 2d chart with metric g, Poisson bivector om
    and the Levi-Civita connection, built from the definitions of
    docs/criterion5.md. Graded quantities are pairs (classical, lam-slot)."""

    def __init__(self, g, om):
        self.g, self.om = g, om
        ginv = simplified(g.inv())
        # nabla_j dx^i = -Gam[i][j][k] dx^k
        self.gam = [[[sp.cancel(HALF * sum(
            ginv[i, m] * (sp.diff(g[m, k], X[j]) + sp.diff(g[m, j], X[k])
                          - sp.diff(g[j, k], X[m])) for m in range(D)))
            for k in range(D)] for j in range(D)] for i in range(D)]

    def cov(self, F, j):
        """nabla_j of a covariant tensor: a one-form column or a (0,2) matrix."""
        G = self.gam
        if F.shape == (D, 1):
            return sp.Matrix([sp.diff(F[b], X[j]) - sum(G[c][j][b] * F[c] for c in range(D))
                              for b in range(D)])
        return sp.Matrix(D, D, lambda a, b: sp.diff(F[a, b], X[j])
                         - sum(G[c][j][a] * F[c, b] + G[c][j][b] * F[a, c] for c in range(D)))

    def cov_bivector(self, P, j):
        """nabla_j of a (2,0) tensor."""
        G = self.gam
        return sp.Matrix(D, D, lambda a, b: sp.diff(P[a, b], X[j])
                         + sum(G[a][j][c] * P[c, b] + G[b][j][c] * P[a, c] for c in range(D)))

    def poisson_cov(self, a, F):
        """om^{ij} a_,i nabla_j F."""
        return sum((self.om[i, j] * sp.diff(a, X[i]) * self.cov(F, j)
                    for i in range(D) for j in range(D)), sp.zeros(*F.shape))

    # D1, D2: a.b = ab + (lam/2){a,b};  a.F = aF + (lam/2) om^{ij} a_,i nabla_j F,
    # F.a = aF - (lam/2) om^{ij} a_,i nabla_j F, on forms of every degree
    def bracket(self, a, b):
        return sum(self.om[i, j] * sp.diff(a, X[i]) * sp.diff(b, X[j])
                   for i in range(D) for j in range(D))

    def left(self, a, F):
        """Graded a . F for graded a = (a0, a1) and graded F = (F0, F1)."""
        (a0, a1), (F0, F1) = a, F
        return a0 * F0, a0 * F1 + a1 * F0 + HALF * self.poisson_cov(a0, F0)

    def right(self, F, a):
        (F0, F1), (a0, a1) = F, a
        return a0 * F0, a0 * F1 + a1 * F0 - HALF * self.poisson_cov(a0, F0)

    # D3 + graded Leibniz: dx^i ^1 dx^j = d(x^i . dx^j)
    def cobasis_wedge(self, i, j):
        c, l = self.left((X[i], 0), (e(j), sp.zeros(D, 1)))
        return ext_d(c), simplified(ext_d(l))

    def cobasis_wedge_from_right(self, i, j):
        """The same product read from d(dx^i . x^j) = -dx^i ^1 dx^j."""
        c, l = self.right((e(i), sp.zeros(D, 1)), (X[j], 0))
        return -ext_d(c), simplified(-ext_d(l))

    def wedge_normal(self, C):
        """wedge1 of sum_ij C_ij . (dx^i (x)_1 dx^j), C = (C0, C1) graded."""
        C0, C1 = C
        c, l = sp.zeros(D, D), sp.zeros(D, D)
        for i in range(D):
            for j in range(D):
                wc, wl = self.cobasis_wedge(i, j)
                tc, tl = self.left((C0[i, j], C1[i, j]), (wc, wl))
                c, l = c + tc, l + tl
        return simplified(c), simplified(l)

    # D4: q(xi (x)_1 eta) = xi (x) eta + (lam/2) om^{ab} nabla_a xi (x) nabla_b eta
    def q(self, xi, eta, sign=1):
        (x0, x1), (y0, y1) = xi, eta
        corr = sum((self.om[a, b] * self.cov(x0, a) * self.cov(y0, b).T
                    for a in range(D) for b in range(D)), sp.zeros(D, D))
        return x0 * y0.T, x1 * y0.T + x0 * y1.T + sign * HALF * corr

    def q_normal(self, C):
        """q of sum_j (sum_i C_ij . dx^i) (x)_1 dx^j."""
        C0, C1 = C
        c, l = sp.zeros(D, D), sp.zeros(D, D)
        for j in range(D):
            xi = (sp.zeros(D, 1), sp.zeros(D, 1))
            for i in range(D):
                t = self.left((C0[i, j], C1[i, j]), (e(i), sp.zeros(D, 1)))
                xi = (xi[0] + t[0], xi[1] + t[1])
            tc, tl = self.q(xi, (e(j), sp.zeros(D, 1)))
            c, l = c + tc, l + tl
        return simplified(c), simplified(l)

    # D5: g_Q = q^{-1}(g); q is the identity at the classical slot
    def g_q(self):
        return self.g, -self.q_normal((self.g, sp.zeros(D, D)))[1]

    # D6: x ^1 y = x ^ y + (lam/2) om^{ab} nabla_a x ^ nabla_b y + lam H(x, y)
    def h(self, i, j):
        corr = sum((self.om[a, b] * wedge(self.cov(e(i), a), self.cov(e(j), b))
                    for a in range(D) for b in range(D)), sp.zeros(D, D))
        return simplified(self.cobasis_wedge(i, j)[1] - HALF * corr)

    def riemann(self):
        """R[c][d][a][b] with [nabla_a, nabla_b] dx^c = -R^c_{dab} dx^d."""
        R = [[[[0] * D for _ in range(D)] for _ in range(D)] for _ in range(D)]
        for c in range(D):
            for a in range(D):
                for b in range(D):
                    comm = (self.cov(self.cov(e(c), b), a)
                            - self.cov(self.cov(e(c), a), b))
                    for d in range(D):
                        R[c][d][a][b] = sp.cancel(-comm[d])
        return R

    def h_curvature(self, i, j, R):
        """(1/4) om^{is}(T^j_{nm;s} - 2 R^j_{nms}) dx^m ^ dx^n at T = 0."""
        return simplified(sp.Matrix(D, D, lambda a, b: -HALF * sum(
            self.om[i, s] * (R[j][b][a][s] - R[j][a][b][s]) for s in range(D))))

    def metric_contraction(self):
        """g_ij H^ij."""
        return simplified(sum((self.g[i, j] * self.h(i, j)
                               for i in range(D) for j in range(D)), sp.zeros(D, D)))


def numeric(expr, pt):
    f = sp.lambdify(X, expr, modules="numpy")
    return np.asarray(f(*pt), dtype=complex)


def cobasis_wedge_residual(O, G, pts):
    """Largest gap between the engine's dx^i wedge1 dx^j and the oracle's."""
    W = [[O.cobasis_wedge(i, j)[1] for j in range(D)] for i in range(D)]
    worst = 0.0
    for pt in pts:
        for i in range(D):
            for j in range(D):
                w = wedge1(QTensor.constant_oneform(G, np.eye(D)[i]),
                           QTensor.constant_oneform(G, np.eye(D)[j])).at(pt)
                worst = max(worst, np.max(np.abs(w.lam().val - numeric(W[i][j], pt))))
    return worst


R2 = X[0] ** 2 + X[1] ** 2
J = sp.Matrix([[0, 1], [-1, 0]])


@pytest.fixture(scope="module")
def cp1():
    # Fubini-Study data on the affine chart z = x1 + i x2 of CP^1
    g = 2 / (1 + R2) ** 2 * sp.eye(2)
    om = -(1 + R2) ** 2 / 2 * J
    return Oracle(g, om)


@pytest.fixture(scope="module")
def cp1_engine():
    return make_cpn(1)


def test_oracle_inputs_cp1(cp1, cp1_engine):
    O = cp1
    # the connection preserves g and om (Poisson compatibility)
    for j in range(D):
        assert is_zero(O.cov(O.g, j))
        assert is_zero(O.cov_bivector(O.om, j))
    # the paper's relation [w, wbar] = i lam for w = z / sqrt(1 + |z|^2)
    z = X[0] + sp.I * X[1]
    w = z / sp.sqrt(1 + R2)
    assert sp.simplify(O.bracket(w, sp.conjugate(w)) - sp.I) == 0
    for pt in sample(cp1_engine, 3, 70):
        f = cp1_engine.frame(pt)
        assert np.max(np.abs(numeric(O.g, pt) - f.g.val)) < 1e-14
        assert np.max(np.abs(numeric(O.om, pt) - f.om.val)) < 1e-14


def test_leibniz_pins_the_wedge(cp1):
    O = cp1
    for i in range(D):
        for j in range(D):
            c, l = O.cobasis_wedge(i, j)
            assert c == wedge(e(i), e(j))
            rc, rl = O.cobasis_wedge_from_right(i, j)
            assert rc == c and is_zero(rl - l)
    # H defined by the BegMa5 form of the wedge is the curvature formula with
    # R in the commutator convention; the opposite curvature sign fails
    R = O.riemann()
    h00 = O.h(0, 0)
    assert not is_zero(h00)
    for i in range(D):
        for j in range(D):
            assert is_zero(O.h(i, j) - O.h_curvature(i, j, R))
    assert not is_zero(h00 + O.h_curvature(0, 0, R))


def test_q_is_balanced(cp1):
    # q((dx^i . a) (x)_1 dx^j) = q(dx^i (x)_1 (a . dx^j)) fixes the sign of q
    O = cp1
    zero = sp.zeros(D, 1)
    a = (X[0] * X[1] + X[0], 0)

    def imbalance(sign):
        return [O.q(O.right((e(i), zero), a), (e(j), zero), sign)[1]
                - O.q((e(i), zero), O.left(a, (e(j), zero)), sign)[1]
                for i in range(D) for j in range(D)]

    assert all(is_zero(m) for m in imbalance(1))
    assert not all(is_zero(m) for m in imbalance(-1))


def test_criterion5_sign_cp1(cp1, cp1_engine):
    O = cp1
    n = 1
    gq = O.g_q()
    qc, ql = O.q_normal(gq)
    assert is_zero(qc - O.g) and is_zero(ql)
    wc, wl = O.wedge_normal(gq)
    assert is_zero(wc)
    contraction = O.metric_contraction()
    ricci4 = (n + 1) * O.g * O.om * O.g       # criterion 4's closed form
    # wedge1(g_Q) = lam g_ij H^ij identically ...
    assert is_zero(wl - contraction)
    # ... which on CP^1 is minus lam times criterion 4's Ricci two-form
    assert is_zero(wl + ricci4)
    assert not is_zero(ricci4)
    # ... and plus lam times the classical Ricci form rho = Ric(J., .), with
    # Ric_db = R^a_dab = 2 g_db and J d_1 = d_2 (z = x1 + i x2 holomorphic)
    R = O.riemann()
    ric = sp.Matrix(D, D, lambda d, b: sum(R[a][d][a][b] for a in range(D)))
    assert is_zero(ric - 2 * O.g)
    rho = sp.Matrix(D, D, lambda a, b: sum(ric[c, b] * J[a, c] for c in range(D)))
    assert is_zero(wl - rho)
    # wedge1(g_Q + (lam/2) Ricci) = 0: the g1 of criterion 5, clause 2
    assert is_zero(O.wedge_normal((O.g, gq[1] + HALF * ricci4))[1])
    print(f"\n[ORACLE] CP^1: wedge1(g_Q) = lam * ({sp.factor(wl[0, 1])}) dx1^dx2 "
          f"= -lam * Ricci with Ricci = (n+1) g.om.g of criterion 4 "
          f"(= +lam * g_ij H^ij, H pinned by the graded Leibniz rule)")

    G = cp1_engine
    gq_e, g1_e = g_q_build(G), g1_build(G)
    pts = sample(G, 5, 71)
    assert cobasis_wedge_residual(O, G, pts) < 1e-13
    for pt in pts:
        f = G.frame(pt)
        # criterion 4: the engine's Ricci is -g_ij H^ij and the closed form
        assert np.max(np.abs(f.ricci2.val + numeric(contraction, pt))) < 1e-13
        assert np.max(np.abs(numeric(ricci4, pt)
                             - (n + 1) * cpn_omega_lower(n, pt).val)) < 1e-13
        # criterion 5: the quantum metric, its wedge, and g1
        v = gq_e.at(pt)
        assert np.max(np.abs(v.c.val - numeric(gq[0], pt))) < 1e-14
        assert np.max(np.abs(v.lam().val - numeric(gq[1], pt))) < 1e-13
        assert np.max(np.abs(wedge1_map(gq_e).at(pt).lam().val - numeric(wl, pt))) < 1e-13
        assert np.max(np.abs(g1_e.at(pt).lam().val
                             - numeric(gq[1] + HALF * ricci4, pt))) < 1e-13


def test_criterion7_displays_cp1(cp1, cp1_engine):
    # the oracle's conventions reproduce the paper's closed forms
    O = cp1
    z = X[0] + sp.I * X[1]
    zb = X[0] - sp.I * X[1]
    dz, dzb = sp.Matrix([1, sp.I]), sp.Matrix([1, -sp.I])
    W = [[O.cobasis_wedge(i, j)[1] for j in range(D)] for i in range(D)]

    def wedge_lam(u, v):
        return sum((u[i] * v[j] * W[i][j] for i in range(D) for j in range(D)),
                   sp.zeros(D, D))

    mine = {
        "z-zbar-comm": O.bracket(z, zb),
        "z-dzbar-comm": O.poisson_cov(z, dzb),
        "zbar-dz-comm": O.poisson_cov(zb, dz),
        "dz-dz-wedge": wedge_lam(dz, dz),
        "dz-dzbar-anticomm": wedge_lam(dz, dzb) + wedge_lam(dzb, dz),
    }
    for pt in sample(cp1_engine, 5, 72):
        for name, expr in mine.items():
            want = np.asarray(cpn_expected(cp1_engine, name, pt)[1])[0, 0]
            got = numeric(expr, pt).reshape(np.shape(want))
            assert np.max(np.abs(got - want)) < 1e-13, name


FLAT_CHARTS = [
    ("canonical", sp.eye(2), J, lambda: make_flat(1)),
    ("conformal", sp.exp(2 * X[0]) * sp.eye(2), sp.exp(-2 * X[0]) * J,
     lambda: geometry_from_config({
         "dim": 2, "metric": [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]],
         "poisson": [["0", "exp(-2*x1)"], ["-exp(-2*x1)", "0"]],
         "connection": "levi-civita", "box": 0.8})),
]


@pytest.mark.parametrize("name,g,om,build", FLAT_CHARTS, ids=[c[0] for c in FLAT_CHARTS])
def test_flat_plane(name, g, om, build):
    O = Oracle(g, om)
    R = O.riemann()
    assert all(is_zero(sp.Matrix(R[c][d])) for c in range(D) for d in range(D))
    gq = O.g_q()
    assert is_zero(O.wedge_normal(gq)[1]) and is_zero(O.metric_contraction())
    G = build()
    gq_e = g_q_build(G)
    pts = sample(G, 3, 73)
    assert cobasis_wedge_residual(O, G, pts) < 1e-12
    for pt in pts:
        assert np.max(np.abs(G.frame(pt).ricci2.val)) < 1e-12
        assert np.max(np.abs(gq_e.at(pt).lam().val - numeric(gq[1], pt))) < 1e-12
        assert np.max(np.abs(wedge1_map(gq_e).at(pt).lam().val)) < 1e-12
