"""Closed forms and quantities that only the tests read.

Each is a second route to something the engine builds or checks: the
index-folding symbol, the projective-space curvature and symplectic form,
the Kaehler potential, the classical components of a quantum one-form,
the generalized Ricci two-form held to both of its construction routes,
and the torsion of the quantised connection.
"""

import numpy as np

from semiq.geometries import CPnPoint, _cpn_base, _cpn_g, _shift_matrix, fold_index
from semiq.geometry import Field, GeometryData, cov_deriv_jet
from semiq.lambda_core import Jet, LJet, jet_apply, jet_einsum
from semiq.semiquant import QTensor, _model, wedge1_map


# -- the projective space ------------------------------------------------------

def kappa(a: int, c: int, two_n: int) -> int:
    """The folding symbol: the relative sign of two indices that fold to
    the same chart index, else 0."""
    sa, ia = fold_index(a, two_n)
    sc, ic = fold_index(c, two_n)
    return sa * sc if ia == ic else 0


def cpn_omega_lower(n: int, pt, order: int = 3) -> Jet:
    """om_{ab}, the symplectic form of CP^n with lower indices."""
    x, xs, t2 = _cpn_base(n, pt, order)
    KP = _shift_matrix(n)
    anti = jet_einsum("a,b->ab", x, xs) - jet_einsum("a,b->ab", xs, x)
    return jet_einsum(",ab->ab", 2.0 * t2, KP.T) - jet_einsum(",ab->ab", 2.0 * (t2 * t2), anti)


def cpn_riemann(n: int, pt, order: int = 3) -> Jet:
    """Closed form R[p,c,q,b] for comparison against the derived curvature."""
    g = _cpn_g(*_cpn_base(n, pt, order))
    oml = cpn_omega_lower(n, pt, order)
    KP = _shift_matrix(n)
    eye = np.eye(2 * n)
    r = 0.5 * jet_einsum("cb,pq->pcqb", g, eye)
    r = r - 0.5 * jet_einsum("cq,pb->pcqb", g, eye)
    r = r + 0.5 * jet_einsum("bc,pq->pcqb", oml, KP)
    r = r - 0.5 * jet_einsum("qc,pb->pcqb", oml, KP)
    r = r + jet_einsum("bq,pc->pcqb", oml, KP)
    return r


def varpi(c: CPnPoint) -> Jet:
    """varpi = om_{ab} dx^b wedge dx^a at the complex frame's point."""
    return -2.0 * cpn_omega_lower(c.n, c.pt, c.order)


def k0(c: CPnPoint) -> Jet:
    """The Kaehler potential K0 = ln(1 + |z|^2) = -ln t^2."""
    return -jet_apply("ln", c.t2)


# -- the quantisation kernel ---------------------------------------------------

def to_classical(xi: QTensor) -> Field:
    """Rank-1 normal form back to classical components."""
    if xi.rank != 1 or xi.form:
        raise ValueError("to_classical applies to rank-1 tensor-basis elements")
    return Field(lambda pt: _model(xi, pt))


def gen_ricci(G: GeometryData, tol: float = 1e-8) -> Field:
    """Generalized Ricci two-form (components of the obstruction to the
    deformed wedge annihilating the quantum metric), built by contracting
    the wedge-correction family with the metric and held to the direct
    index formula within ``tol``."""

    def fn(pt):
        f = G.frame(pt)
        r1, r2 = f.ricci2, f.ricci2_direct
        if np.max(np.abs(r1.val - r2.val)) > tol:
            raise AssertionError(
                "generalized Ricci construction routes disagree at "
                f"{pt}: {np.max(np.abs(r1.val - r2.val)):.3e}")
        return LJet(r1)

    return Field(fn)


def quantum_torsion(xi: QTensor) -> QTensor:
    """Torsion of the quantised connection applied to a quantum one-form:
    the deformed wedge of the rank-2 element X_{mn} dx^m (x)_1 dx^n below."""
    if xi.rank != 1:
        raise ValueError("quantum_torsion applies to one-forms")
    G = xi.G

    def coeff(pt):
        f = G.frame(pt)
        v = _model(xi, pt)
        # X_{mn} = (1/2)(xi_i T^i_{nm} + (lam/2)(nabla_i xi)_j om^{is} T^j_{nm;s})
        xc = 0.5 * jet_einsum("i,inm->mn", v.c, f.torsion)
        dxi = cov_deriv_jet(v.c, f.gam, 0, 1)          # [j, i]
        half = jet_einsum("ji,is->js", dxi, f.om)
        xl = 0.5 * jet_einsum("i,inm->mn", v.lam(), f.torsion) \
            + 0.25 * jet_einsum("js,jnms->mn", half, f.torsion_cov)
        return LJet(xc, xl)

    return wedge1_map(QTensor(G, 2, coeff))
