"""Built-in geometries with exact closed-form jet providers.

``make_flat``: canonical phase space R^{2n} with coordinates x1..xn
(positions) and x(n+1)..x2n (momenta), Euclidean metric, canonical
Poisson bivector and the trivial connection.

``make_cpn``: the complex projective space CP^n on its standard affine
chart, in real coordinates x^a with z^k = x^k + i x^{k+n}. The shift
x^{a+n} folds back with a sign beyond the chart range (x^b = -x^{b+2n}),
so it is the matrix [[0, I], [-I, 0]]. The metric, its inverse, the
Poisson bivector and the Levi-Civita coefficients have rational closed
forms evaluated through jets, hence exact.

``make_flat_torsion``: a flat 2d chart with one coordinate-dependent
connection coefficient, used as the registered counterexample that
violates the compatibility conditions.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConfigError, EvalError, UnknownCheckError
from .geometry import Field, GeometryData, PointFrame, per_frame
from .lambda_core import Jet, LJet, jet_einsum
from .semiquant import (QTensor, g1_build, module_action, nabla_Q, otimes1, star_product,
                        wedge1)

CPN_SUITES = ("classical-compat", "dga", "metric", "qlc", "cpn-catalogue")


# -- the shift x^a -> x^{a+n} -------------------------------------------------------

@lru_cache(maxsize=None)
def _shift_matrix(n: int) -> np.ndarray:
    """P with (P x)_a = x^{a+n} under the folding rule: [[0, I], [-I, 0]],
    2n x 2n, every other entry +0.0."""
    i = np.arange(n)
    P = np.zeros((2 * n, 2 * n))
    P[i, i + n], P[i + n, i] = 1.0, -1.0
    return P


# -- flat phase space ------------------------------------------------------------

def make_flat(n: int) -> GeometryData:
    """Flat R^{2n} with canonical coordinates and trivial connection."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    d = 2 * n
    eye, zero = np.eye(d), np.zeros((d, d, d))
    om0 = _shift_matrix(n)              # the canonical Poisson bivector
    return GeometryData(
        d,
        g_fn=lambda f: Jet.const(d, eye, f.order),
        ginv_fn=lambda f: Jet.const(d, eye, f.order),
        omega_fn=lambda f: Jet.const(d, om0, f.order),
        gamma_fn=lambda f: Jet.const(d, zero, f.order),
        levi_civita=True,
        name=f"flat(n={n})",
        parallel_cobasis=True,
    )


def make_flat_torsion() -> GeometryData:
    """Flat 2d metric with a torsionful, metric-compatible connection.

    Gam^1_{12} = x^2 and Gam^2_{11} = -x^2: the antisymmetry in the last
    two slots (indices lowered with the flat metric) keeps the metric
    parallel while the torsion breaks Poisson compatibility and produces
    an order-one obstruction residual for the quantum connection. This is
    the registered counterexample geometry.
    """
    eye, om0, basis = np.eye(2), _shift_matrix(1), np.zeros((2, 2, 2))
    basis[0, 0, 1], basis[1, 0, 0] = 1.0, -1.0

    def gamma_fn(f):
        return jet_einsum(",ijk->ijk", Jet.coordinate(2, f.point, 1, f.order), basis)

    return GeometryData(
        2,
        g_fn=lambda f: Jet.const(2, eye, f.order),
        ginv_fn=lambda f: Jet.const(2, eye, f.order),
        omega_fn=lambda f: Jet.const(2, om0, f.order),
        gamma_fn=gamma_fn,
        levi_civita=False,
        name="flat-torsion",
        suites=("classical-compat", "qlc"),
    )


# -- CP^n and its complex frame ----------------------------------------------------

@lru_cache(maxsize=None)
def _cobasis(n: int) -> np.ndarray:
    """Row i: the coefficients of dz^i = dx^i + i dx^{i+n} in the real frame,
    [I, iI]."""
    i = np.arange(n)
    cm = np.zeros((n, 2 * n), dtype=np.complex128)
    cm[i, i], cm[i, i + n] = 1.0, 1j
    cm.setflags(write=False)
    return cm


class CPnPoint:
    """The chart data and complex frame of CP^n at one chart point, or over a
    frame's batch of points, as jets of the frame's order (Beggs-Majid,
    arXiv:1410.8191). x, the shifted coordinates x_shift and t^2 are built
    with the frame; every other jet by one formula on first use, so the
    closed forms and the catalogue share each one. One-form and tensor
    components are in the real frame.

        z^i = x^i + i x^{i+n},   t^2 = 1/(1 + |z|^2),   w^i = t z^i,
        tau = t^2 zbar^i dz^i,   gamma = t^2 dzbar^i (x) dz^i - taubar (x) tau,
        g_{i jbar} = t^2 delta_ij - t^4 zbar^i z^j.

    gammabar is ``gamma.conj()``.
    """

    def __init__(self, f: PointFrame):
        self.G, self.pt, self.order = f.G, f.point, f.order
        self.n, self.d = f.dim // 2, f.dim
        self.cm = _cobasis(self.n)
        self.x = Jet.coords(self.d, self.pt, self.order)
        self.xs = jet_einsum("ab,b->a", _shift_matrix(self.n), self.x)      # x^{a+n}
        self.t2 = (1.0 + jet_einsum("a,a->", self.x, self.x)).reciprocal()
        for at, v in zip(self.pt if self.t2.batch else [self.pt], self.t2.member_values()):
            if v == 0:                                                  # |x|^2 overflowed
                raise EvalError(f"CP^{self.n} at {at} is out of floating-point range")

    @cached_property
    def outer(self) -> Jet:
        """x (x) x + x_shift (x) x_shift."""
        return jet_einsum("a,b->ab", self.x, self.x) + jet_einsum("a,b->ab", self.xs, self.xs)

    @cached_property
    def inv_t2(self) -> Jet:
        return self.t2.reciprocal()

    @cached_property
    def t4(self) -> Jet:
        return self.t2 * self.t2

    @cached_property
    def z(self) -> Jet:
        return jet_einsum("ia,a->i", self.cm, self.x)

    @cached_property
    def w(self) -> Jet:
        return jet_einsum(",i->i", self.t2 ** 0.5, self.z)

    @cached_property
    def tau(self) -> Jet:
        return jet_einsum(",a->a", self.t2, jet_einsum("i,ia->a", self.z.conj(), self.cm))

    @cached_property
    def gamma(self) -> Jet:
        dzb_dz = np.einsum("ia,ib->ab", np.conjugate(self.cm), self.cm)
        return (jet_einsum(",ab->ab", self.t2, dzb_dz)
                - jet_einsum("a,b->ab", self.tau.conj(), self.tau))

    @cached_property
    def g_hermitian(self) -> Jet:
        """g_{i jbar}, shape (n, n)."""
        zbz = jet_einsum("i,j->ij", self.z.conj(), self.z)
        return (jet_einsum(",ij->ij", self.t2, np.eye(self.n))
                - jet_einsum(",ij->ij", self.t4, zbz))


@per_frame
def _cpn_point(f: PointFrame) -> CPnPoint:
    return CPnPoint(f)


# the closed forms below read the complex frame of the calling frame

def _cpn_g(c: CPnPoint) -> Jet:
    return jet_einsum(",ab->ab", 2.0 * c.t2, np.eye(c.d)) - jet_einsum(",ab->ab", 2.0 * c.t4, c.outer)


def _cpn_ginv(c: CPnPoint) -> Jet:
    half_inv_t2 = 0.5 * c.inv_t2
    return jet_einsum(",ab->ab", half_inv_t2, np.eye(c.d)) + jet_einsum(",ab->ab", half_inv_t2, c.outer)


def _cpn_omega_upper(c: CPnPoint) -> Jet:
    anti = jet_einsum("a,b->ab", c.x, c.xs) - jet_einsum("a,b->ab", c.xs, c.x)
    half_inv_t2 = 0.5 * c.inv_t2
    return (jet_einsum(",ab->ab", half_inv_t2, _shift_matrix(c.n).T)
            + jet_einsum(",ab->ab", half_inv_t2, anti))


def _cpn_gamma(c: CPnPoint) -> Jet:
    KP, eye = _shift_matrix(c.n), np.eye(c.d)
    term = (jet_einsum("c,ab->abc", c.x, eye)
            + jet_einsum("b,ac->abc", c.x, eye)
            + jet_einsum("b,ac->abc", c.xs, KP)
            + jet_einsum("c,ab->abc", c.xs, KP))
    return jet_einsum(",abc->abc", -1.0 * c.t2, term)


def make_cpn(n: int) -> GeometryData:
    """CP^n with the Fubini-Study data on the standard affine chart."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return GeometryData(
        2 * n,
        g_fn=lambda f: _cpn_g(_cpn_point(f)),
        ginv_fn=lambda f: _cpn_ginv(_cpn_point(f)),
        omega_fn=lambda f: _cpn_omega_upper(_cpn_point(f)),
        gamma_fn=lambda f: _cpn_gamma(_cpn_point(f)),
        levi_civita=True,
        name=f"cpn(n={n})",
        box=0.75,
        suites=CPN_SUITES,
    )


def cpn_at(G: GeometryData, pt) -> CPnPoint:
    """The complex frame of a geometry built by make_cpn at a chart point or
    a batch of points, built once per frame."""
    if "cpn-catalogue" not in G.suites:
        raise ConfigError("the catalogue suite runs only on geometries that list it: "
                          "the projective space built by make_cpn")
    return _cpn_point(G.frame(pt))


# -- expected-value catalogue for the projective space -----------------------------
#
# Each check pairs an engine and an expected callable. Both take the complex
# frame at the point or batch and return (classical, first-order) value
# arrays that broadcast against each other, batch axes first, so suites can
# report both residual slots per check. Most checks are an n x n grid
# [i, j, ...] indexed by the complex frame; both sides evaluate the whole
# grid at once, the engine over field families.

def _lam(l):
    """An expected value whose classical slot vanishes."""
    return np.zeros_like(l), l


def _zero(rank: int):
    return lambda x: _lam(np.zeros((x.n, x.n) + (x.d,) * rank, dtype=np.complex128))


def _per(x: CPnPoint, fn, rank: int) -> np.ndarray:
    """fn(t^2) in Python complex arithmetic at each point, an array of the
    batch shape with ``rank`` unit axes, to scale a grid of that rank member
    by member."""
    return np.array([fn(t) for t in x.t2.member_values()]).reshape(
        x.t2.val.shape + (1,) * rank)


# families of functions and one-forms indexed by the complex frame: one field
# each, its leading axis i the frame index

def _read(x: CPnPoint, jet, conj: bool = False):
    """Provider p -> jet(complex frame at p), conjugated if asked."""
    def fn(p):
        j = jet(cpn_at(x.G, p))
        return LJet(j.conj() if conj else j)
    return fn


def _zs(x: CPnPoint, conj: bool = False) -> Field:
    return Field(_read(x, lambda c: c.z, conj))


def _ws(x: CPnPoint, conj: bool = False) -> Field:
    return Field(_read(x, lambda c: c.w, conj))


def _dzs(x: CPnPoint, conj: bool = False) -> QTensor:
    return QTensor.constant_oneform(x.G, np.conjugate(x.cm) if conj else x.cm)


def _dws(x: CPnPoint, conj: bool = False) -> QTensor:
    return QTensor.from_oneform(x.G, _read(x, lambda c: c.w.grad(), conj))


_zbars, _wbars, _dzbars, _dwbars = (partial(f, conj=True) for f in (_zs, _ws, _dzs, _dws))


def _q_factor(x: CPnPoint, inverse: bool = False) -> Field:
    """q = 1 + i lam t^-2 (or its inverse) as a graded scalar field."""
    sgn = -1.0 if inverse else 1.0
    return Field(lambda p: LJet(Jet.const(x.d, 1.0, x.order),
                                cpn_at(x.G, p).inv_t2.scale(sgn * 1j)))


# engines

def _swapped(v: LJet) -> LJet:
    """A family product b_j . a_i, computed as [j, i, ...], as [i, j, ...]."""
    return LJet(v.c.reorder("ji->ij"), v.lam().reorder("ji->ij"))


def _comm(left, right, q=None):
    """a_i . b_j - b_j . a_i, or q . (a_i . b_j) - b_j . a_i, for a family
    a of functions and a family b of functions or one-forms."""
    def eng(x):
        A, B = left(x), right(x)

        def prod(u, v):
            return module_action(u, v) if isinstance(B, QTensor) else star_product(u, v, x.G)

        lhs = prod(A, B)
        # a self-commutator's b_j . a_i is a_i . b_j, made on the same jets
        ba = lhs if left is right and not q else prod(B, A)
        if q:
            lhs = prod(q(x), lhs)
        return (lhs.at(x.pt) - _swapped(ba.at(x.pt))).values()
    return eng


def _eng_dz_dz_wedge(x):
    dz, cm = _dzs(x), x.cm
    v = wedge1(dz, dz).at(x.pt)
    classical = np.einsum("ia,jb->ijab", cm, cm) - np.einsum("ja,ib->ijab", cm, cm)
    return v.c.val - classical, v.lam().val


@per_frame
def _dz_dzbar_wedges(f: PointFrame) -> tuple:
    """dz^i ^ dzbar^j and dzbar^j ^ dz^i, each as [i, j, a, b]: built once
    per frame for both wedge anticommutators."""
    x = _cpn_point(f)
    dz, dzb = _dzs(x), _dzbars(x)
    return wedge1(dz, dzb).at(x.pt), _swapped(wedge1(dzb, dz).at(x.pt))


def _anticomm(qinv: bool):
    """dz^i ^ dzbar^j + dzbar^j ^ dz^i, the first term times q^-1 if qinv."""
    def eng(x):
        w1, w2 = _dz_dzbar_wedges(x.G.frame(x.pt))
        if qinv:    # (1 - i lam t^-2) . (dz w1 dzbar): scalar prefactor on a form
            w1 = LJet(w1.c, w1.lam() - w1.c.scale(_per(x, lambda t: 1j / t, 0)))
        return (w1 + w2).values()
    return eng


def _nablaq_dz(sgn: int):
    return lambda x: nabla_Q(_dzs(x, conj=sgn < 0)).at(x.pt).values()


# expected values, from the complex frame's values at the point or batch;
# each grid keeps the operations of one [i, j] cell in their order, so its
# bits are those of the cell computed alone. Arrays index batch axes first:
# a frame value v[..., a] enters cell [..., i, j, a] as v[..., None, None, :].

def _wedge_of(u, v):
    return np.einsum("...a,...b->...ab", u, v) - np.einsum("...a,...b->...ab", v, u)


def _coef(z, zb):
    """delta_ij + z_i zb_j."""
    return np.eye(z.shape[-1]) + np.einsum("...i,...j->...ij", z, zb)


def _anticomm_bracket(x: CPnPoint):
    """The shared two-form bracket in the wedge anticommutator displays."""
    z, tau, cm = x.z.val, x.tau.val, x.cm
    zb, cmb = np.conjugate(z), np.conjugate(cm)
    dzk = _wedge_of(cm, cmb).sum(axis=0)         # sum_k dz^k ^ dzbar^k
    return ((_coef(z, zb) * _per(x, lambda t: t, 2))[..., None, None] * dzk
            + _wedge_of(tau[..., None, None, :], z[..., :, None, None] * cmb)
            + _wedge_of(zb[..., None, :, None] * cm[:, None, :],
                        np.conjugate(tau)[..., None, None, :]))


def _exp_z_zbar(x):
    return _lam(_per(x, lambda t: 1j / t, 2) * _coef(x.z.val, np.conjugate(x.z.val)))


def _exp_w_wbar(x):
    return _lam(1j * np.eye(x.n, dtype=np.complex128))


def _exp_q_comm_scalar(x):
    # (lam t^-2 / i) delta_ij
    return _lam(_per(x, lambda t: -1j / t, 2) * np.eye(x.n))


def _z_side(x: CPnPoint, sgn: int) -> tuple:
    """(z, taubar, dzbar, i), or for sgn < 0 the conjugates (zbar, tau, dz, -i)."""
    if sgn < 0:
        return np.conjugate(x.z.val), x.tau.val, x.cm, -1j
    return x.z.val, np.conjugate(x.tau.val), np.conjugate(x.cm), 1j


def _exp_z_dzbar(sgn: int):
    """[z^i, dzbar^j], or [zbar^i, dz^j] for sgn < 0."""
    def exp(x):
        z, taub, cmb, i = _z_side(x, sgn)
        return _lam(_per(x, lambda t: i / t, 3)
                    * (_coef(z, np.conjugate(z))[..., None] * taub[..., None, None, :]
                       + z[..., :, None, None] * cmb))
    return exp


def _exp_dz_dzbar_anticomm(x):
    return _lam(_per(x, lambda t: 1j / t, 4)
                * (_anticomm_bracket(x) + _wedge_of(x.cm[:, None, :], np.conjugate(x.cm))))


def _exp_qinv_comm_form(sgn: int):
    """q^-1 . (z^i dzbar^j) - dzbar^j . z^i, or its conjugate for sgn < 0."""
    def exp(x):
        z, taub, _, i = _z_side(x, sgn)
        return _lam((_per(x, lambda t: i / t, 2) * _coef(z, np.conjugate(z)))[..., None]
                    * taub[..., None, None, :])
    return exp


def _exp_qinv_wedge_anticomm(x):
    return _lam(_per(x, lambda t: 1j / t, 4) * _anticomm_bracket(x))


def _exp_w_dwbar(x):
    w, dw, tau = x.w.val, x.w.d1, x.tau.val
    wb, dwb = np.conjugate(w), np.conjugate(dw)
    c = 2 * np.eye(x.n) + (np.einsum("...i,...j->...ij", w, wb)
                           * _per(x, lambda t: 1.0 / t - 2.0, 2))
    return _lam(0.5j * (c[..., None] * (np.conjugate(tau) - tau)[..., None, None, :] / 2.0
                        + w[..., :, None, None] * dwb[..., None, :, :]
                        - wb[..., None, :, None] * dw[..., :, None, :]))


def _exp_w_dw(x):
    w, dw, tau = x.w.val, x.w.d1, x.tau.val
    taub = np.conjugate(tau)
    return _lam(-0.5j * (np.einsum("...i,...j->...ij", w, w)[..., None]
                         * (2 * taub + (taub - tau) / _per(x, lambda t: 2 * t, 1))[..., None, None, :]
                         + w[..., :, None, None] * dw[..., None, :, :]
                         + w[..., None, :, None] * dw[..., :, None, :]))


def _exp_g1(x):
    """The corrected complex-frame display of the wedge-killing quantum metric:
    g_{i jbar} dz^i (x)_1 dzbar^j + g_{i jbar} dzbar^j (x)_1 dz^i, the first
    as n columns of g_{i jbar} and the second as n rows.

    The correction term is -(lam/2)(n+1) i (gammabar - gamma) in deformed
    tensor-product form; the sign is the one that annihilates the deformed
    wedge, consistent with the commutation-relation closed forms.
    """
    cmb = np.conjugate(x.cm)

    def column(j):          # g_{i jbar} dz^i
        return QTensor.from_oneform(x.G, _read(
            x, lambda c: jet_einsum("i,ia->a", c.g_hermitian.take_index(j, axis=1), c.cm)))

    def row(i):             # g_{i jbar} dzbar^j
        return QTensor.from_oneform(x.G, _read(
            x, lambda c: jet_einsum("j,ja->a", c.g_hermitian.take_index(i), cmb)))

    terms = ([otimes1(column(j), QTensor.constant_oneform(x.G, cmb[j])) for j in range(x.n)]
             + [otimes1(row(i), QTensor.constant_oneform(x.G, x.cm[i])) for i in range(x.n)])
    v = sum(terms[1:], terms[0]).at(x.pt)
    gam = x.gamma.val
    return v.c.val, v.lam().val + 0.5 * (x.n + 1) * 1j * (gam - np.conjugate(gam))


def _exp_nablaq_dz(sgn: int):
    def exp(x):
        tau = QTensor.from_oneform(x.G, _read(x, lambda c: c.tau, conj=sgn < 0))
        dz = _dzs(x, conj=sgn < 0)
        v = (otimes1(tau, dz) + otimes1(dz, tau)).at(x.pt)
        # the factor (1 + sgn i lam), as lam-slot arithmetic on the pair
        return v.c.val, v.lam().val + sgn * 1j * v.c.val
    return exp


# closed-form checks on the projective-space chart: name -> (engine, expected)
CATALOGUE = {
    "z-z-comm": (_comm(_zs, _zs), _zero(0)),
    "z-zbar-comm": (_comm(_zs, _zbars), _exp_z_zbar),
    "z-dz-comm": (_comm(_zs, _dzs), _zero(1)),
    "zbar-dzbar-comm": (_comm(_zbars, _dzbars), _zero(1)),
    "z-dzbar-comm": (_comm(_zs, _dzbars), _exp_z_dzbar(+1)),
    "zbar-dz-comm": (_comm(_zbars, _dzs), _exp_z_dzbar(-1)),
    "dz-dz-wedge": (_eng_dz_dz_wedge, _zero(2)),
    "dz-dzbar-anticomm": (_anticomm(False), _exp_dz_dzbar_anticomm),
    "q-comm-scalar": (_comm(_zbars, _zs, _q_factor), _exp_q_comm_scalar),
    "q-comm-form": (_comm(_zbars, _dzs, _q_factor), _exp_qinv_comm_form(-1)),
    "qinv-comm-form": (_comm(_zs, _dzbars, partial(_q_factor, inverse=True)),
                       _exp_qinv_comm_form(+1)),
    "qinv-wedge-anticomm": (_anticomm(True), _exp_qinv_wedge_anticomm),
    "w-w-comm": (_comm(_ws, _ws), _zero(0)),
    "w-wbar-comm": (_comm(_ws, _wbars), _exp_w_wbar),
    "w-dwbar-comm": (_comm(_ws, _dwbars), _exp_w_dwbar),
    "w-dw-comm": (_comm(_ws, _dws), _exp_w_dw),
    "g1": (lambda x: g1_build(x.G).at(x.pt).values(), _exp_g1),
    "nablaQ-dz+": (_nablaq_dz(+1), _exp_nablaq_dz(+1)),
    "nablaQ-dz-": (_nablaq_dz(-1), _exp_nablaq_dz(-1)),
}


def _entry(check_id: str) -> tuple:
    if check_id not in CATALOGUE:
        raise UnknownCheckError(f"unknown catalogue check {check_id!r}")
    return CATALOGUE[check_id]


def cpn_expected(G: GeometryData, check_id: str, point):
    """Closed-form expected value (classical, first-order arrays) for a
    registered catalogue check at a point or over a batch of points."""
    return _entry(check_id)[1](cpn_at(G, point))


def cpn_catalogue_residual(G: GeometryData, check_id: str, point) -> tuple:
    """(classical, first-order) max-abs residual of a catalogue check at a
    point, or its max over a batch of points."""
    eng, exp = _entry(check_id)
    x = cpn_at(G, point)
    ec, el = eng(x)
    xc, xl = exp(x)
    return (float(np.max(np.abs(ec - xc))), float(np.max(np.abs(el - xl))))
