"""Closed forms and quantities that only the tests read.

Each is a second route to something the engine builds or checks: the
index-folding rule and symbol, the projective-space curvature and
symplectic form, the Kaehler potential, the classical components of a
quantum one-form, the generalized Ricci two-form held to both of its
construction routes, and the torsion of the quantised connection; random
polynomials and a random quantum one-form at a lone point, which only the
tests draw, and the route that drew polynomials before ``draw_poly``; one
suite run alone; and the jet operations that defer their levels, with
``compose`` and ``matinv``, each computed eagerly, every level at once, by
the formulas that permuted derivative axes with ``np.moveaxis``.
"""

import numpy as np

from semiq.geometries import CPnPoint, _cpn_g, _shift_matrix, cpn_at, make_cpn
from semiq.geometry import Field, GeometryData, cov_deriv_jet
from semiq.lambda_core import Jet, LJet, jet_apply, jet_einsum
from semiq.semiquant import QTensor, _model, wedge1_map
from semiq.suites import SuiteResult, draw_poly, poly_jets, run_suites


# -- the projective space ------------------------------------------------------

def fold_index(a: int, two_n: int) -> tuple[int, int]:
    """Reduce an index to 0..2n-1 with the sign of the folding rule
    x^b = -x^{b+2n}."""
    sign = 1
    while a >= two_n:
        a -= two_n
        sign = -sign
    while a < 0:
        a += two_n
        sign = -sign
    return sign, a


def kappa(a: int, c: int, two_n: int) -> int:
    """The folding symbol: the relative sign of two indices that fold to
    the same chart index, else 0."""
    sa, ia = fold_index(a, two_n)
    sc, ic = fold_index(c, two_n)
    return sa * sc if ia == ic else 0


def cpn_omega_lower(n: int, pt, order: int = 3) -> Jet:
    """om_{ab}, the symplectic form of CP^n with lower indices."""
    c = cpn_at(make_cpn(n).at_order(order), pt)
    KP = _shift_matrix(n)
    anti = jet_einsum("a,b->ab", c.x, c.xs) - jet_einsum("a,b->ab", c.xs, c.x)
    return jet_einsum(",ab->ab", 2.0 * c.t2, KP.T) - jet_einsum(",ab->ab", 2.0 * c.t4, anti)


def cpn_riemann(n: int, pt, order: int = 3) -> Jet:
    """Closed form R[p,c,q,b] for comparison against the derived curvature."""
    g = _cpn_g(cpn_at(make_cpn(n).at_order(order), pt))
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


def draw_poly_sized(d: int, rng) -> tuple:
    """``draw_poly`` as it was drawn before: a monomial's k factor indices
    in one ``rng.integers(0, d, size=k)``."""
    monos = []
    for _ in range(4):
        k = int(rng.integers(0, 3))
        idxs = tuple(int(i) for i in rng.integers(0, d, size=k))
        coef = complex(rng.normal(), rng.normal())
        monos.append((coef, idxs))
    return tuple(monos)


def random_poly_field(d: int, rng, order: int = 3) -> Field:
    """A random polynomial of four monomials, each of degree at most 2, in
    the coordinates of a d-dimensional chart, at a lone point."""
    poly = draw_poly(d, rng)
    return Field(lambda pt: LJet(Jet(d, [l[0, 0] for l in
                                         poly_jets(d, [[poly]], (pt,), order).levels])))


def random_covector(G: GeometryData, rng) -> Field:
    """Classical components of a random one-form at a lone point, a random
    polynomial each."""
    polys = [draw_poly(G.dim, rng) for _ in range(G.dim)]
    return Field(lambda pt: LJet(Jet(G.dim, [l[0] for l in
                                             poly_jets(G.dim, [polys], (pt,), G.order).levels])))


def random_oneform(G: GeometryData, rng) -> QTensor:
    """A quantum one-form with random polynomial classical components."""
    return QTensor.from_oneform(G, random_covector(G, rng).at)


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


# -- the suites ----------------------------------------------------------------

def run_suite(suite: str, G: GeometryData, **kwargs) -> SuiteResult:
    """One named suite, run as ``check`` runs it beside others."""
    return run_suites([suite], G, **kwargs)[0]


# -- eager jet arithmetic --------------------------------------------------------
# Each takes its operands' level arrays and returns every level of the result
# at once, by the same numpy calls the engine's deferred levels make.

def eager_einsum(spec: str, a: list, b: list) -> list:
    """The levels of ``jet_einsum(spec, a, b)``: the Leibniz rule."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    sa, sb, out = "..." + sa, "..." + sb, "..." + out
    order = min(len(a), len(b)) - 1
    T, U, V = "TUV"
    a0, b0 = a[0], b[0]
    levels = [np.einsum(f"{sa},{sb}->{out}", a0, b0)]
    if order >= 1:
        levels.append(
            np.einsum(f"{sa}{T},{sb}->{out}{T}", a[1], b0)
            + np.einsum(f"{sa},{sb}{T}->{out}{T}", a0, b[1]))
    if order >= 2:
        l2 = (np.einsum(f"{sa}{T}{U},{sb}->{out}{T}{U}", a[2], b0)
              + np.einsum(f"{sa},{sb}{T}{U}->{out}{T}{U}", a0, b[2]))
        cross = np.einsum(f"{sa}{T},{sb}{U}->{out}{T}{U}", a[1], b[1])
        levels.append(l2 + cross + np.swapaxes(cross, -1, -2))
    if order >= 3:
        l3 = (np.einsum(f"{sa}{T}{U}{V},{sb}->{out}{T}{U}{V}", a[3], b0)
              + np.einsum(f"{sa},{sb}{T}{U}{V}->{out}{T}{U}{V}", a0, b[3]))
        c21 = np.einsum(f"{sa}{T}{U},{sb}{V}->{out}{T}{U}{V}", a[2], b[1])
        l3 += c21 + np.moveaxis(c21, -1, -2) + np.moveaxis(c21, -1, -3)
        c12 = np.einsum(f"{sa}{T},{sb}{U}{V}->{out}{T}{U}{V}", a[1], b[2])
        l3 += c12 + np.moveaxis(c12, -3, -2) + np.moveaxis(c12, -3, -1)
        levels.append(l3)
    return levels


def eager_add(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def eager_neg(a: list) -> list:
    return [-l for l in a]


def eager_scale(a: list, c, batch: int) -> list:
    """By a number, or member by member by an array of the batch shape."""
    if isinstance(c, np.ndarray) and c.ndim:
        return [c.reshape(c.shape + (1,) * (l.ndim - batch)) * l for l in a]
    return [c * l for l in a]


def eager_conj(a: list) -> list:
    return [np.conjugate(l) for l in a]


def eager_reorder(a: list, spec: str, batch: int) -> list:
    src, dst = spec.split("->")
    head = list(range(batch)) + [batch + src.index(c) for c in dst]
    return [l.transpose(head + list(range(len(head), l.ndim))) for l in a]


def eager_take_index(a: list, idx: int, axis: int, batch: int) -> list:
    return [np.take(l, idx, axis=axis + batch) for l in a]


def eager_compose(a: list, fns, batch: int) -> list:
    """The levels of ``Jet.compose(fns)`` on a scalar jet: the chain rule."""
    u0, order = a[0], len(a) - 1
    rows = [[fn(v) for fn in fns[: order + 1]] for v in u0.reshape(-1).tolist()]
    f = [np.array(col, dtype=np.complex128).reshape(u0.shape) for col in zip(*rows)]

    def times(k, l):
        return f[k].reshape(f[k].shape + (1,) * (l.ndim - batch)) * l

    out = [f[0]]
    if order >= 1:
        u1 = a[1]
        out.append(times(1, u1))
    if order >= 2:
        u2 = a[2]
        out.append(times(2, np.einsum("...i,...j->...ij", u1, u1)) + times(1, u2))
    if order >= 3:
        u3 = a[3]
        cross = np.einsum("...ij,...k->...ijk", u2, u1)
        sym = cross + np.moveaxis(cross, -1, -2) + np.moveaxis(cross, -1, -3)
        out.append(times(3, np.einsum("...i,...j,...k->...ijk", u1, u1, u1))
                   + times(2, sym) + times(1, u3))
    return out


def eager_matinv(a: list) -> list:
    """The levels of ``Jet.matinv()``, solved level by level."""
    order = len(a) - 1
    b0 = np.linalg.inv(a[0])
    out = [b0]
    if order >= 1:
        b1 = -np.einsum("...im,...mnK,...nj->...ijK", b0, a[1], b0)
        out.append(b1)
    if order >= 2:
        t = np.einsum("...mnKL,...nj->...mjKL", a[2], b0)
        t += np.einsum("...mnK,...njL->...mjKL", a[1], b1)
        t += np.einsum("...mnL,...njK->...mjKL", a[1], b1)
        out.append(-np.einsum("...im,...mjKL->...ijKL", b0, t))
    if order >= 3:
        b2 = out[2]
        t = np.einsum("...mnKLM,...nj->...mjKLM", a[3], b0)
        c21 = np.einsum("...mnKL,...njM->...mjKLM", a[2], b1)
        t += c21 + np.moveaxis(c21, -1, -2) + np.moveaxis(c21, -1, -3)
        c12 = np.einsum("...mnK,...njLM->...mjKLM", a[1], b2)
        t += c12 + np.moveaxis(c12, -3, -2) + np.moveaxis(c12, -3, -1)
        out.append(-np.einsum("...im,...mjKLM->...ijKLM", b0, t))
    return out
