"""First-order quantisation kernel.

Deformed products, bimodule actions, the deformed wedge, the quantum
connection with its generalized braiding, quantum metrics and the
quantum-Levi-Civita obstruction.

Representation
--------------
A rank-k ``QTensor`` over the tensor basis stores lam-graded coefficient
arrays ``c[m1..mk]`` in left-collected normal form: the element is
``c . (dx^{m1} (x) ... (x) dx^{mk})`` with the coefficient acting through
the deformed left module action. All operations are structure constants
derived from the bimodule relations

    a . xi = a xi + (lam/2) om^{ij} a_,i nabla_j xi
    xi . a = a xi - (lam/2) om^{ij} a_,i nabla_j xi
    (xi . a) (x) eta = xi (x) (a . eta)

so that moving a function across a tensor slot costs one connection
contraction at first order. A function is the rank-0 case, so one
product ``_otimes`` gives a . b, a . xi, xi . a and xi (x)_1 eta. Quantum
forms (``form=True``) store classical antisymmetric components per lam
grade; the deformed wedge acts on those components directly. The classical
side of the quantisation isomorphism is a plain ``Field`` (``q_map``).

Families
--------
Axes of a tensor's jets before its ``rank`` slots form a family, carried
member by member through products, the wedge and rank-1 ``nabla_Q``; a
product of two families has the left operand's family axes first. A lone
tensor is a family of no axes.

Batches
-------
A field evaluated at a batch of points, a tuple of point tuples, gives
jets whose leading ``batch`` axes index the points (see ``Jet``). The
axes of a level are then, in order: batch axes, family axes, tensor slots
and derivative axes. Einsum specs here name family axes, slots and
derivatives only; ``jet_einsum`` and ``Jet.reorder`` carry the batch in
front, so each member's bits are those of its point evaluated alone, and
a result that does not depend on the point may keep no batch axis.

First order on first read
-------------------------
``_fstar``, ``_otimes``, ``_nabla_normal``, ``wedge1``, ``_model`` and
``QTensor.from_oneform`` compute the classical part of their result at once
and hand ``LJet`` the first-order part as a function, run on the first read
of ``l``: a check that reads only the classical slot never builds it, and
one read has the bits of the eager formula. Refusals stay eager: every
``grad`` of a classical part that a first-order formula reads is taken
when the result is built, so a jet too shallow for it is refused there,
never on a later read of ``l``.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Callable, Optional

import numpy as np

from .geometry import (Field, GeometryData, PointFrame, cov_deriv_jet, gamma_slot_terms,
                       per_frame)
from .lambda_core import Jet, LJet, jet_einsum

_L = "abcdefghmnopqrs"
_FAM = "IJKLMN"        # einsum letters of family axes


def _fams(a: Jet, p: int, b: Jet, q: int) -> tuple[str, str]:
    """Letters of the family axes of a and of b: their axes before p and q slots."""
    na = len(a.shape) - p
    return _FAM[:na], _FAM[na: na + len(b.shape) - q]


# -- graded star-einsum ----------------------------------------------------------

def _pick_free(spec: str, count: int) -> str:
    return "".join(c for c in "zyxwvut" if c not in spec)[:count]


def _fstar(spec: str, A: LJet, B: LJet, om: Jet) -> LJet:
    """Contraction of lam-graded jets with the (lam/2) om^{ij} d_i d_j correction.

    Computes the deformed product of coefficient fields under an einsum
    contraction: classical part ``einsum(spec, A, B)``, first-order part
    bilinear in the grades plus half the Poisson contraction of the
    classical gradients.
    """
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    c = jet_einsum(spec, A.c, B.c)
    da, db = A.c.grad(), B.c.grad()

    def lam():
        terms = []
        if A.graded:
            terms.append(jet_einsum(spec, A.l, B.c))
        if B.graded:
            terms.append(jet_einsum(spec, A.c, B.l))
        x, y = _pick_free(spec, 2)
        cross = jet_einsum(f"{sa}{x},{sb}{y}->{out}{x}{y}", da, db)
        terms.append(0.5 * jet_einsum(f"{out}{x}{y},{x}{y}->{out}", cross, om))
        l = terms[0]
        for t in terms[1:]:
            l = l + t
        return l
    return LJet(c, lam)


def _collect_correction(dc0: Jet, f: PointFrame) -> Jet:
    """(1/2) om^{st} Gam^u_{ta} d_s c0[u] of one-form coefficients c0[a],
    from their gradient dc0 = c0.grad().

    The first-order cost of collecting classical coefficients to the left
    of the cobasis.
    """
    F = _FAM[: len(dc0.shape) - 2]
    half = jet_einsum(f"{F}uz,zt->{F}ut", dc0, f.om)
    return 0.5 * jet_einsum(f"uta,{F}ut->{F}a", f.gam, half)


# -- QTensor ---------------------------------------------------------------------

class QTensor(Field):
    """Rank-k element of the deformed cotangent tensor or exterior power
    over the geometry G."""

    def __init__(self, G: GeometryData, rank: int, fn: Callable[[tuple], LJet],
                 form: bool = False):
        super().__init__(fn)
        self.G = G
        self.rank = rank
        self.form = form

    def _zip(self, other: "QTensor", op) -> "QTensor":
        if (self.rank, self.form) != (other.rank, other.form):
            raise ValueError("mismatched quantum tensors")
        return QTensor(self.G, self.rank, lambda pt: op(self.at(pt), other.at(pt)), self.form)

    def __add__(self, other: "QTensor") -> "QTensor":
        return self._zip(other, LJet.__add__)

    def __sub__(self, other: "QTensor") -> "QTensor":
        return self._zip(other, LJet.__sub__)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_oneform(cls, G: GeometryData, comp_fn: Callable[[tuple], LJet]) -> "QTensor":
        """Classical one-form components -> left-collected normal form."""

        def fn(pt):
            v = comp_fn(tuple(pt))
            f, dv = G.frame(pt), v.c.grad()

            def lam():
                corr = _collect_correction(dv, f)
                return v.l + corr if v.graded else corr
            return LJet(v.c, lam)

        return cls(G, 1, fn)

    @classmethod
    def differential(cls, G: GeometryData, a: Field) -> "QTensor":
        """The exact one-form da of a lam-graded scalar field."""

        def comps(pt):
            v = a.at(pt)
            return LJet(v.c.grad(), v.l.grad() if v.graded else None)

        return cls.from_oneform(G, comps)

    @classmethod
    def constant_oneform(cls, G: GeometryData, coeffs) -> "QTensor":
        """One-form with constant coefficients; collection is free."""
        arr = np.asarray(coeffs, dtype=np.complex128)
        return cls(G, 1, lambda pt: LJet(Jet.const(G.dim, arr, G.order)))


def _normal(xi, who: str) -> QTensor:
    """xi, if it is a quantum tensor in left-collected normal form."""
    if not isinstance(xi, QTensor) or xi.form:
        raise ValueError(f"{who} expects a tensor-basis quantum tensor")
    return xi


def _model(xi: QTensor, pt) -> LJet:
    """Classical (model) components of a quantum form or one-form."""
    v = xi.at(pt)
    if xi.form:
        return v
    if xi.rank != 1:
        raise ValueError("expected a quantum form or a one-form")
    f, dv = xi.G.frame(pt), v.c.grad()
    return LJet(v.c, lambda: v.lam() - _collect_correction(dv, f))


# -- deformed products and actions ----------------------------------------------

def _otimes(A: LJet, B: LJet, f: PointFrame, ia: str, ib: str) -> LJet:
    """A (x)_1 B for normal-form coefficients A[ia], B[ib], with B's
    coefficients collected to the left across A's slots. A function is the
    rank-0 case, so this is also a . b, a . xi and xi . a."""
    fa, fb = _fams(A.c, len(ia), B.c, len(ib))
    base = _fstar(f"{fa}{ia},{fb}{ib}->{fa}{fb}{ia}{ib}", A, B, f.om)
    if not ia:
        return base
    db = B.c.grad()

    def lam():
        terms = gamma_slot_terms(A.c, f.gam, range(len(fa), len(fa) + len(ia)))
        slot = sum(terms[1:], terms[0])             # Gam^u_{t m_j} A[.. u at j ..]
        mov = jet_einsum(f"{fb}{ib}i,it->{fb}{ib}t", db, f.om)
        corr = jet_einsum(f"{fa}{ia}t,{fb}{ib}t->{fa}{fb}{ia}{ib}", slot, mov)
        return base.lam() + corr
    return LJet(base.c, lam)


def star_product(a: Field, b: Field, G: GeometryData) -> Field:
    """a . b = ab + (lam/2) om^{ij} a_,i b_,j, graded over lam."""
    return Field(lambda pt: _otimes(a.at(pt), b.at(pt), G.frame(pt), "", ""))


def module_action(x: Field, y: Field) -> QTensor:
    """The action of a function on a normal-form quantum tensor:
    ``module_action(a, xi)`` is a . xi and ``module_action(xi, a)`` is xi . a."""
    if isinstance(x, QTensor) == isinstance(y, QTensor):
        raise ValueError("module_action takes one function and one quantum tensor")
    xi = _normal(x if isinstance(x, QTensor) else y, "module_action")
    idx = _L[: xi.rank]
    ia, ib = (idx, "") if xi is x else ("", idx)
    return QTensor(xi.G, xi.rank,
                   lambda pt: _otimes(x.at(pt), y.at(pt), xi.G.frame(pt), ia, ib))


def otimes1(X: QTensor, Y: QTensor) -> QTensor:
    """Deformed tensor product over the quantised function algebra."""
    p, q = _normal(X, "otimes1").rank, _normal(Y, "otimes1").rank
    ia, ib = _L[:p], _L[p: p + q]
    return QTensor(X.G, p + q, lambda pt: _otimes(X.at(pt), Y.at(pt), X.G.frame(pt), ia, ib))


# -- wedge machinery --------------------------------------------------------------

def _antisym(t: Jet, *degrees: int) -> Jet:
    """Wedge components of a product whose axes fall into antisymmetric
    blocks of the given degrees, after its family axes: the signed sum of t
    over every permutation of those form axes, divided by the blocks'
    factorials. A product with at most one nonempty block is already
    antisymmetric."""
    if sum(k > 0 for k in degrees) < 2:
        return t
    idx = _L[: sum(degrees)]
    F = _FAM[: len(t.shape) - len(idx)]
    total = None
    for perm in permutations(range(len(idx))):
        dst = "".join(idx[k] for k in perm)
        term = t if dst == idx else t.reorder(f"{F}{idx}->{F}{dst}")
        if sum(x > y for x, y in combinations(perm, 2)) % 2:   # odd inversion count
            term = -term
        total = term if total is None else total + term
    norm = math.prod(math.factorial(k) for k in degrees)
    return total if norm == 1 else (1.0 / norm) * total


def _wedge_arrays(A: Jet, B: Jet, p: int, q: int) -> Jet:
    """Components of the classical wedge of antisymmetric components."""
    fa, fb = _fams(A, p, B, q)
    ia, ib = _L[:p], _L[p: p + q]
    return _antisym(jet_einsum(f"{fa}{ia},{fb}{ib}->{fa}{fb}{ia}{ib}", A, B), p, q)


def wedge1(xi: QTensor, eta: QTensor) -> QTensor:
    """Deformed wedge of quantum forms of degrees p and q."""
    G, p, q = xi.G, xi.rank, eta.rank
    if p == 0 or q == 0:
        raise ValueError("wedge1 takes forms of degree >= 1; "
                         "a function acts on a form through module_action")
    ia, ib = _L[:p], _L[p: p + q]
    # the form slots of A and B left over once H's (i, j) contract their first
    ra, rb = _L[2: p + 1], _L[p + 1: p + q]

    def fn(pt):
        f = G.frame(pt)
        A, B = _model(xi, pt), _model(eta, pt)
        fa, fb = _fams(A.c, p, B.c, q)
        c = _wedge_arrays(A.c, B.c, p, q)
        # functorial correction: (1/2) om^{ij} nabla_i A ^ nabla_j B
        dA = cov_deriv_jet(A.c, f.gam, 0, p)
        dB = cov_deriv_jet(B.c, f.gam, 0, q)

        def lam():
            l = _wedge_arrays(A.c, B.lam(), p, q) + _wedge_arrays(A.lam(), B.c, p, q)
            half = jet_einsum(f"{fa}{ia}i,ij->{fa}{ia}j", dA, f.om)
            t = jet_einsum(f"{fa}{ia}j,{fb}{ib}j->{fa}{fb}{ia}{ib}", half, dB)
            l = l + 0.5 * _antisym(t, p, q)
            # quantum correction through the H family, H^{ij} ^ A_i ^ B_j: the sign
            # pairing with the reported H is pinned by the graded Leibniz rule of d
            # (and by the closed-form wedge anticommutator on the projective space)
            sign = -1.0 if (p % 2 == 1) else 1.0
            ab = jet_einsum(f"{fa}i{ra},{fb}j{rb}->{fa}{fb}ij{ra}{rb}", A.c, B.c)
            hterm = jet_einsum(f"{fa}{fb}ij{ra}{rb},ijab->{fa}{fb}ab{ra}{rb}", ab, f.h_fam)
            return l + sign * _antisym(hterm, 2, p - 1, q - 1)
        return LJet(c, lam)

    return QTensor(G, p + q, fn, form=True)


def wedge1_map(X: QTensor) -> QTensor:
    """The deformed wedge applied to a rank-2 tensor-basis element: the
    quantum two-form X_{mn} . (dx^m wedge1 dx^n).

    Expands the deformed wedge of cobasis elements and the left action of
    the coefficients, returning classical antisymmetric components per
    grade.
    """
    if _normal(X, "wedge1_map").rank != 2:
        raise ValueError("wedge1_map expects a rank-2 tensor-basis element")
    G = X.G

    def fn(pt):
        f = G.frame(pt)
        Xv = X.at(pt)
        Xc = Xv.c
        c = Xc - Xc.reorder("ba->ab")
        lam = Xv.lam() - Xv.lam().reorder("ba->ab")
        # left-action cost: (1/2) om^{ij} d_i X_{mn} nabla_j (dx^m ^ dx^n)
        dX = Xc.grad()
        t1 = -jet_einsum("mia,mbi->ab", f.om_gam, dX)
        t3 = -jet_einsum("nib,ani->ab", f.om_gam, dX)
        lam = lam + 0.5 * (t1 - t1.reorder("ba->ab") + t3 - t3.reorder("ba->ab"))
        # deformed wedge of the cobasis: (1/2) om^{ij} Gam^m_{ia} Gam^n_{jb} + H^{mn}
        t = jet_einsum("mnab,mn->ab", f.om_gam_gam, Xc)
        lam = lam + 0.5 * (t - t.reorder("ba->ab"))
        lam = lam - jet_einsum("mn,mnab->ab", Xc, f.h_fam)
        return LJet(c, lam)

    return QTensor(G, 2, fn, form=True)


# -- quantum connection ------------------------------------------------------------

@per_frame
def nq_basis(f: PointFrame) -> LJet:
    """Normal-form coefficients N[i,m,n] of the quantised connection on dx^i.

    The quantised connection on the cobasis is

        nabla_Q dx^i = -(Gam^i_{mn}
            + (lam/2) om^{sj} (Gam^i_{mk,s} Gam^k_{jn}
                               - Gam^i_{kt} Gam^k_{sm} Gam^t_{jn}
                               - Gam^i_{jk} R^k_{nms})) dx^m (x) dx^n

    where the classical coefficient multiplies the first slot as a
    classical one-form (collecting it to the left costs a further
    correction) and R carries the commutator sign convention of
    ``PointFrame.riemann``. Both readings are pinned by the closed-form
    quantised connection on the projective space, which is sensitive to
    each of them separately.
    """
    om, gam, dgam = f.om, f.gam, f.gam.grad()
    r = f.riemann
    # A = om^{sj} Gam^i_{mk,s} Gam^k_{jn}
    A = jet_einsum("imkj,kjn->imn", jet_einsum("sj,imks->imkj", om, dgam), gam)
    X1 = jet_einsum("ikt,ksm->itsm", gam, gam)
    # f.om_gam as [s,t,n]: read through f.om_gam, B's (s,t) sum reorders and changes bits
    Y = jet_einsum("sj,tjn->stn", om, gam)
    B = jet_einsum("itsm,stn->imn", X1, Y)
    C = jet_einsum("isk,knms->imn", f.om_gam, r)
    n1 = -0.5 * (A - B - C)
    n0 = -gam
    # left-collection of the first-slot classical coefficient
    extra = jet_einsum("usm,iuns->imn", f.om_gam, dgam)
    n1 = n1 - 0.5 * extra
    return LJet(n0, n1)


@per_frame
def sigma_basis(f: PointFrame) -> np.ndarray:
    """First-order part s1[j,i,u,v] of the braiding on dx^j (x) dx^i.

    The classical part is the flip; the first-order part is evaluated from
    the defining difference of the two Leibniz rules.
    """
    N, P = nq_basis(f), f.om_gam
    x = Jet.coords(f.dim, f.point, f.order)
    # dx^i . x^j in normal form, a family over j and i
    c = jet_einsum("j,ir->jir", x, np.eye(f.dim))
    A = _nabla_normal(LJet(c, P.reorder("ijr->jir")), N, f, "r", "mn", "jo")
    # (nabla_Q dx^i) . x^j, a family over j and i
    base = _fstar("imn,j->jimn", N, LJet(x), f.om)
    corr = jet_einsum("ujm,iun->jimn", P, N.c) + jet_einsum("ujn,imu->jimn", P, N.c)
    return A.lam().val - (base.lam() + corr).val


def _nabla_normal(cf: LJet, conn: LJet, f: PointFrame, coeff: str, out: str,
                  fam: str = "") -> LJet:
    """Quantised connection on normal-form coefficients cf[fam, coeff] of
    the cobasis monomials whose own connection is conn[coeff, out]; the
    output is [fam, out], direction slot first.

    The basis connection is contracted through the deformed product, and
    the differential of the coefficients is collected to the left of the
    monomial.
    """
    base = _fstar(f"{fam}{coeff},{coeff}{out}->{fam}{out}", cf, conn, f.om)
    dc = cf.c.grad()                                    # [fam, coeff, k]
    ddc = dc.grad()                                     # at build: an order-1 cf is refused here
    flip = f"{fam}{coeff}k->{fam}k{coeff}"

    def lam():
        corr = 0.5 * jet_einsum(f"usk,{fam}{coeff}us->{fam}{coeff}k", f.om_gam, ddc)
        dl = cf.lam().grad() + corr if cf.graded else corr
        return base.lam() + dl.reorder(flip)
    return LJet(base.c + dc.reorder(flip), lam)


@per_frame
def nq2_basis(f: PointFrame) -> LJet:
    """Coefficients NQ2[m,n,r,s,t] of the quantised connection on the
    rank-2 cobasis monomials, braiding included."""
    d = f.dim
    eye = np.eye(d)
    N = nq_basis(f)
    # term (i): (nabla_Q dx^m) (x) dx^n
    p1c = jet_einsum("mrs,nt->mnrst", N.c, eye)
    p1l = jet_einsum("mrs,nt->mnrst", N.lam(), eye)
    # term (ii): dx^m (x) (nabla_Q dx^n), collected
    zc = jet_einsum("nst,mr->mnrst", N.c, eye)
    dN = N.c.grad()                          # [n,s,t,i]
    zl = jet_einsum("nst,mr->mnrst", N.lam(), eye) \
        + jet_einsum("mir,nsti->mnrst", f.om_gam, dN)
    # braid the first two output slots; the braiding array is indexed by
    # (differential slot, form slot), the extension feeds (element, direction)
    s1 = sigma_basis(f)
    s1 = Jet.const(d, s1, N.c.order, s1.ndim - 4)   # its batch axes, if any, lead
    bc = zc.reorder("mnvut->mnuvt")
    bl = zl.reorder("mnvut->mnuvt") + jet_einsum("nst,smuv->mnuvt", N.c, s1)
    return LJet(p1c + bc, p1l + bl)


def nabla_Q(xi: QTensor) -> QTensor:
    """Quantised covariant derivative; the direction slot comes first.

    Rank-1 input must be in left-collected normal form (use
    ``QTensor.from_oneform`` for classical components). Extension to
    rank 2 uses the left Leibniz rule and the generalized braiding.
    """
    G = _normal(xi, "nabla_Q").G
    if xi.rank == 1:
        def fn(pt):
            f = G.frame(pt)
            v = xi.at(pt)
            return _nabla_normal(v, nq_basis(f), f, "r", "mn", _FAM[: len(v.c.shape) - 1])
        return QTensor(G, 2, fn)
    if xi.rank == 2:
        def fn2(pt):
            f = G.frame(pt)
            return _nabla_normal(xi.at(pt), nq2_basis(f), f, "mn", "rst")
        return QTensor(G, 3, fn2)
    raise ValueError("nabla_Q implemented for ranks 1 and 2")


def sigma_Q(a: Field, xi: QTensor) -> QTensor:
    """Generalized braiding applied to da (x) xi, by its defining difference
    nabla_Q(xi . a) - (nabla_Q xi) . a."""
    return nabla_Q(module_action(xi, a)) - module_action(nabla_Q(xi), a)


# -- quantum metrics ---------------------------------------------------------------

@per_frame
def _gq_coeff(f: PointFrame) -> LJet:
    """Normal-form coefficients of the functorial quantum metric.

    g_Q = (g_{im} dx^i) (x) dx^m
          + (lam/2) om^{ij} g_{pm} Gam^p_{iq} Gam^q_{jn} dx^m (x) dx^n

    with the first term a deformed tensor product of classical one-forms;
    collecting its coefficients to the left contributes the second
    correction below. Cross-checked against the inverse of the
    quantisation isomorphism applied to the classical metric.
    """
    U = jet_einsum("pm,piq->miq", f.g, f.gam)
    V = jet_einsum("miq,qjn->mijn", U, f.gam)
    K = 0.5 * jet_einsum("mijn,ij->mn", V, f.om)
    dg = f.g.grad()                        # g_{un},s
    K = K + 0.5 * jet_einsum("usm,uns->mn", f.om_gam, dg)
    return LJet(f.g, K)


def g_q_build(G: GeometryData) -> QTensor:
    """Functorial quantum metric in left-collected normal form."""
    return QTensor(G, 2, lambda pt: _gq_coeff(G.frame(pt)))


def g1_build(G: GeometryData) -> QTensor:
    """Quantum metric corrected so the deformed wedge annihilates it.

    The correction is half the generalized Ricci two-form, with the sign
    that makes the deformed wedge of the result vanish identically.
    """
    gq = g_q_build(G)

    def fn(pt):
        f = G.frame(pt)
        v = gq.at(pt)
        return LJet(v.c, v.lam() + 0.5 * f.ricci2)

    return QTensor(G, 2, fn)


def q_map(X: Field, G: Optional[GeometryData] = None) -> Field:
    """Quantisation isomorphism q: ``q_map(X)`` sends a rank-2 normal-form
    tensor to the classical tensor with lam-graded coefficients, and
    ``q_map(F, G)`` sends a classical tensor F on G's chart back to normal
    form, to first order."""
    inverse = not isinstance(X, QTensor)
    if inverse == (G is None):
        raise ValueError("q_map takes a quantum tensor alone, "
                         "or a classical tensor with its geometry")
    if not inverse:
        if X.rank != 2 or X.form:
            raise ValueError("q_map applies to rank-2 tensor-basis elements")
        G = X.G

    def corr(c0: Jet, f: PointFrame) -> Jet:
        p1 = jet_einsum("mnrs,mn->rs", f.om_gam_gam, c0)
        dc = c0.grad()
        # f.om_gam as [i,m,r]: read through f.om_gam, the (m,i) sums reorder and change bits
        B1 = jet_einsum("ij,mjr->imr", f.om, f.gam)
        p2 = jet_einsum("imr,msi->rs", B1, dc)
        p3 = jet_einsum("ins,rni->rs", B1, dc)
        return 0.5 * (p1 - p2 - p3)

    def fn(pt):
        v = X.at(pt)
        k = corr(v.c, G.frame(pt))
        return LJet(v.c, v.lam() - k if inverse else v.lam() + k)

    return QTensor(G, 2, fn) if inverse else Field(fn)


def classical_metric(G: GeometryData) -> Field:
    """The classical metric, on the classical side of the q map."""
    return Field(lambda pt: LJet(G.frame(pt).g))


def qlc_residual(G: GeometryData) -> Field:
    """Obstruction to full metric compatibility of the quantum connection.

    res[m,n,k] combines the Levi-Civita derivative of the generalized
    Ricci two-form with the contorsion terms; it vanishes identically iff
    the unique torsion-free quantum connection preserves the corrected
    quantum metric entirely.
    """

    def fn(pt):
        f = G.frame(pt)
        drc = cov_deriv_jet(f.ricci2, f.gam_lc, 0, 2)      # [m,n,k]
        if G.levi_civita:                                  # no contorsion
            return LJet(drc)
        S = f.contorsion
        W = f.riemann_q + f.contorsion_cov.reorder("rkmi->rmki")
        SL = jet_einsum("rs,sjn->rjn", f.g, S)
        M = jet_einsum("ij,rjn->irn", f.om, SL)
        term = jet_einsum("irn,rmki->mnk", M, W)
        res = drc - term + term.reorder("nmk->mnk")
        return LJet(res)

    return Field(fn)
