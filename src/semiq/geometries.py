"""Built-in geometries with exact closed-form jet providers.

``make_flat``: canonical phase space R^{2n} with coordinates x1..xn
(positions) and x(n+1)..x2n (momenta), Euclidean metric, canonical
Poisson bivector and the trivial connection.

``make_cpn``: the complex projective space CP^n on its standard affine
chart, in real coordinates x^a with z^k = x^k + i x^{k+n}. Index
expressions such as x^{a+n} beyond the chart range fold back with a sign
(x^b = -x^{b+2n}). The metric, its inverse, the Poisson bivector and the
Levi-Civita coefficients have rational closed forms evaluated through
jets, hence exact.

``make_flat_torsion``: a flat 2d chart with one coordinate-dependent
connection coefficient, used as the registered counterexample that
violates the compatibility conditions.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConfigError, UnknownCheckError
from .geometry import Field, GeometryData, PointFrame, per_frame
from .lambda_core import Jet, LJet, jet_einsum
from .semiquant import (QTensor, g1_build, module_action, nabla_Q, otimes1, star_product,
                        wedge1)

CPN_SUITES = ("classical-compat", "dga", "metric", "qlc", "cpn-catalogue")


# -- index folding for CP^n -----------------------------------------------------

def fold_index(a: int, two_n: int) -> tuple[int, int]:
    """Reduce an index to 0..2n-1 with the sign of the folding rule."""
    sign = 1
    while a >= two_n:
        a -= two_n
        sign = -sign
    while a < 0:
        a += two_n
        sign = -sign
    return sign, a


@lru_cache(maxsize=None)
def _shift_matrix(n: int) -> np.ndarray:
    """P with (P x)_a = x^{a+n} under the folding rule; 2n x 2n."""
    two_n = 2 * n
    P = np.zeros((two_n, two_n))
    for a in range(two_n):
        s, i = fold_index(a + n, two_n)
        P[a, i] = s
    return P


# -- flat phase space ------------------------------------------------------------

def make_flat(n: int) -> GeometryData:
    """Flat R^{2n} with canonical coordinates and trivial connection."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    d = 2 * n
    eye = np.eye(d)
    om0 = _shift_matrix(n)              # the canonical Poisson bivector
    return GeometryData(
        d,
        g_fn=lambda p, k: Jet.const(d, eye, k),
        ginv_fn=lambda p, k: Jet.const(d, eye, k),
        omega_fn=lambda p, k: Jet.const(d, om0, k),
        gamma_fn=lambda p, k: Jet.zeros(d, (d, d, d), k),
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
    eye, om0 = np.eye(2), _shift_matrix(1)

    def gamma_fn(pt, order):
        x2 = Jet.coordinate(2, pt, 1, order)
        basis = np.zeros((2, 2, 2))
        basis[0, 0, 1] = 1.0
        basis2 = np.zeros((2, 2, 2))
        basis2[1, 0, 0] = -1.0
        return jet_einsum(",ijk->ijk", x2, basis + basis2)

    return GeometryData(
        2,
        g_fn=lambda p, k: Jet.const(2, eye, k),
        ginv_fn=lambda p, k: Jet.const(2, eye, k),
        omega_fn=lambda p, k: Jet.const(2, om0, k),
        gamma_fn=gamma_fn,
        levi_civita=False,
        name="flat-torsion",
        suites=("classical-compat", "qlc"),
    )


# -- CP^n -------------------------------------------------------------------------

def _cpn_base(n: int, pt: tuple, order: int = 3):
    """Common jets at a point: x, x_shift, t^2 and friends."""
    d = 2 * n
    x = Jet.coords(d, pt, order)
    xs = jet_einsum("ab,b->a", _shift_matrix(n), x)          # x^{a+n}
    s = jet_einsum("a,a->", x, x)
    t2 = (Jet.const(d, 1.0, order) + s).reciprocal()
    return x, xs, t2


# the closed forms below take the base (x, x_shift, t^2) of _cpn_base

def _cpn_g(x, xs, t2):
    outer = jet_einsum("a,b->ab", x, x) + jet_einsum("a,b->ab", xs, xs)
    return jet_einsum(",ab->ab", 2.0 * t2, np.eye(x.dim)) - jet_einsum(",ab->ab", 2.0 * (t2 * t2), outer)


def _cpn_ginv(x, xs, t2):
    outer = jet_einsum("a,b->ab", x, x) + jet_einsum("a,b->ab", xs, xs)
    half_inv_t2 = 0.5 * t2.reciprocal()
    return jet_einsum(",ab->ab", half_inv_t2, np.eye(x.dim)) + jet_einsum(",ab->ab", half_inv_t2, outer)


def _cpn_omega_upper(x, xs, t2):
    KP = _shift_matrix(x.dim // 2)
    anti = jet_einsum("a,b->ab", x, xs) - jet_einsum("a,b->ab", xs, x)
    half_inv_t2 = 0.5 * t2.reciprocal()
    return jet_einsum(",ab->ab", half_inv_t2, KP.T) + jet_einsum(",ab->ab", half_inv_t2, anti)


def _cpn_gamma(x, xs, t2):
    KP = _shift_matrix(x.dim // 2)
    eye = np.eye(x.dim)
    term = (jet_einsum("c,ab->abc", x, eye)
            + jet_einsum("b,ac->abc", x, eye)
            + jet_einsum("b,ac->abc", xs, KP)
            + jet_einsum("c,ab->abc", xs, KP))
    return jet_einsum(",abc->abc", -1.0 * t2, term)


def make_cpn(n: int) -> GeometryData:
    """CP^n with the Fubini-Study data on the standard affine chart."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    d = 2 * n

    def provider(formula):
        # the complex frame at (point, order) holds the one base its providers share
        return lambda p, k: formula(*_cpn_point(G.at_order(k).frame(p)).base)

    G = GeometryData(
        d,
        g_fn=provider(_cpn_g),
        ginv_fn=provider(_cpn_ginv),
        omega_fn=provider(_cpn_omega_upper),
        gamma_fn=provider(_cpn_gamma),
        levi_civita=True,
        name=f"cpn(n={n})",
        box=0.75,
        suites=CPN_SUITES,
    )
    return G


# -- complex frame on CP^n --------------------------------------------------------

@lru_cache(maxsize=None)
def _cobasis(n: int) -> np.ndarray:
    """Row i: the coefficients of dz^i = dx^i + i dx^{i+n} in the real frame."""
    cm = np.zeros((n, 2 * n), dtype=np.complex128)
    for i in range(n):
        cm[i, i], cm[i, i + n] = 1.0, 1j
    cm.setflags(write=False)
    return cm


class CPnPoint:
    """The complex frame of CP^n at one chart point, as jets of the frame's
    order, each built by one formula on first use (Beggs-Majid,
    arXiv:1410.8191). One-form and tensor components are in the real frame.

        z^i = x^i + i x^{i+n},   t^2 = 1/(1 + |z|^2),   w^i = t z^i,
        tau = t^2 zbar^i dz^i,   gamma = t^2 dzbar^i (x) dz^i - taubar (x) tau,
        g_{i jbar} = t^2 delta_ij - t^4 zbar^i z^j.

    gammabar is ``gamma.conj()``.
    """

    def __init__(self, f: PointFrame):
        self.G, self.pt, self.order = f.G, f.point, f.order
        self.n, self.d = f.dim // 2, f.dim
        self.cm = _cobasis(self.n)
        self.base = _cpn_base(self.n, self.pt, self.order)     # (x, x_shift, t^2)

    @cached_property
    def z(self) -> Jet:
        return jet_einsum("ia,a->i", self.cm, self.base[0])

    @cached_property
    def t2(self) -> Jet:
        return self.base[2]

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
                - jet_einsum(",ij->ij", self.t2 * self.t2, zbz))


@per_frame
def _cpn_point(f: PointFrame) -> CPnPoint:
    return CPnPoint(f)


def cpn_at(G: GeometryData, pt) -> CPnPoint:
    """The complex frame of a geometry built by make_cpn at a chart point,
    built once per frame."""
    if "cpn-catalogue" not in G.suites:
        raise ConfigError("the catalogue suite runs only on geometries that list it: "
                          "the projective space built by make_cpn")
    return _cpn_point(G.frame(pt))


# -- expected-value catalogue for the projective space -----------------------------
#
# Each check pairs an engine and an expected callable. Both take the complex
# frame at the point and return (classical, first-order) value arrays of
# identical shape, so suites can report both residual slots per check.
# Most checks are an n x n grid of cells indexed by the complex frame.

def _grid(x: CPnPoint, rank: int, cell, dims: int = 2):
    """Stack cell(i, j) = (classical, first-order) over the n x n grid, or
    cell(i) over i alone when dims=1; each cell has shape (dim,)*rank."""
    shape = (x.n,) * dims + (x.d,) * rank
    c = np.zeros(shape, dtype=np.complex128)
    l = np.zeros(shape, dtype=np.complex128)
    for idx in np.ndindex((x.n,) * dims):
        c[idx], l[idx] = cell(*idx)
    return c, l


def _lam_cells(rank: int, cell):
    """Expected grid with a vanishing classical slot; cell(x, i, j) gives
    the first-order slot."""
    return lambda x: _grid(x, rank, lambda i, j: (0, cell(x, i, j)))


def _zero(rank: int):
    return _lam_cells(rank, lambda x, i, j: 0)


# families of functions and one-forms indexed by the complex frame

def _read(x: CPnPoint, jet, conj: bool = False):
    """Provider p -> jet(complex frame at p), conjugated if asked."""
    def fn(p):
        j = jet(cpn_at(x.G, p))
        return LJet(j.conj() if conj else j)
    return fn


def _zs(x: CPnPoint, conj: bool = False) -> list:
    return [Field(_read(x, lambda c, i=i: c.z.take_index(i), conj)) for i in range(x.n)]


def _ws(x: CPnPoint, conj: bool = False) -> list:
    return [Field(_read(x, lambda c, i=i: c.w.take_index(i), conj)) for i in range(x.n)]


def _dzs(x: CPnPoint, conj: bool = False) -> list:
    return [QTensor.constant_oneform(x.G, np.conjugate(v) if conj else v) for v in x.cm]


def _dws(x: CPnPoint, conj: bool = False) -> list:
    return [QTensor.from_oneform(x.G, _read(x, lambda c, i=i: c.w.grad().take_index(i), conj))
            for i in range(x.n)]


_zbars, _wbars, _dzbars, _dwbars = (partial(f, conj=True) for f in (_zs, _ws, _dzs, _dws))


def _q_factor(x: CPnPoint, inverse: bool = False) -> Field:
    """q = 1 + i lam t^-2 (or its inverse) as a graded scalar field."""
    sgn = -1.0 if inverse else 1.0
    return Field(lambda p: LJet(Jet.const(x.d, 1.0, x.order),
                                cpn_at(x.G, p).t2.reciprocal().scale(sgn * 1j)))


# engines

def _comm(left, right, q=None):
    """a_i . b_j - b_j . a_i, or q . (a_i . b_j) - b_j . a_i, for functions
    a_i and functions or one-forms b_j."""
    def eng(x):
        A, B, qf = left(x), right(x), q(x) if q else None
        form = isinstance(B[0], QTensor)

        def prod(u, v):
            return module_action(u, v) if form else star_product(u, v, x.G)

        def cell(i, j):
            lhs = prod(A[i], B[j])
            if qf:
                lhs = prod(qf, lhs)
            return (lhs.at(x.pt) - prod(B[j], A[i]).at(x.pt)).values()
        return _grid(x, int(form), cell)
    return eng


def _eng_dz_dz_wedge(x):
    dz = _dzs(x)

    def cell(i, j):
        v = wedge1(dz[i], dz[j]).at(x.pt)
        return v.c.val - _wedge_of(x.cm[i], x.cm[j]), v.lam().val
    return _grid(x, 2, cell)


def _anticomm(qinv: bool):
    """dz^i ^ dzbar^j + dzbar^j ^ dz^i, the first term times q^-1 if qinv."""
    def eng(x):
        dz, dzb = _dzs(x), _dzbars(x)

        def cell(i, j):
            w1 = wedge1(dz[i], dzb[j]).at(x.pt)
            w2 = wedge1(dzb[j], dz[i]).at(x.pt)
            if qinv:    # (1 - i lam t^-2) . (dz w1 dzbar): scalar prefactor on a form
                w1 = LJet(w1.c, w1.lam() - w1.c.scale(1j / x.t2.value))
            return (w1 + w2).values()
        return _grid(x, 2, cell)
    return eng


def _nablaq_dz(sgn: int):
    def eng(x):
        dz = _dzs(x, conj=sgn < 0)
        return _grid(x, 2, lambda i: nabla_Q(dz[i]).at(x.pt).values(), dims=1)
    return eng


# expected values, from the complex frame's values at the point

def _wedge_of(u, v):
    return np.einsum("a,b->ab", u, v) - np.einsum("a,b->ab", v, u)


def _anticomm_bracket(x: CPnPoint, i: int, j: int):
    """The shared two-form bracket in the wedge anticommutator displays."""
    z, tau = x.z.val, x.tau.val
    dzk = np.zeros((x.d, x.d), dtype=np.complex128)
    for k in range(x.n):
        dzk += _wedge_of(x.cm[k], np.conjugate(x.cm[k]))
    ci, cbj = x.cm[i], np.conjugate(x.cm[j])
    return ((float(i == j) + z[i] * np.conjugate(z[j])) * x.t2.value * dzk
            + _wedge_of(tau, z[i] * cbj) + _wedge_of(np.conjugate(z[j]) * ci, np.conjugate(tau)))


def _exp_z_zbar(x):
    n, z = x.n, x.z.val
    return (np.zeros((n, n), dtype=np.complex128),
            1j / x.t2.value * (np.eye(n) + np.einsum("i,j->ij", z, np.conjugate(z))))


def _exp_w_wbar(x):
    return np.zeros((x.n, x.n), dtype=np.complex128), 1j * np.eye(x.n, dtype=np.complex128)


def _exp_q_comm_scalar(x):
    # (lam t^-2 / i) delta_ij
    return np.zeros((x.n, x.n), dtype=np.complex128), -1j / x.t2.value * np.eye(x.n)


def _exp_z_dzbar(x, i, j):
    z = x.z.val
    return 1j / x.t2.value * ((float(i == j) + z[i] * np.conjugate(z[j])) * np.conjugate(x.tau.val)
                              + z[i] * np.conjugate(x.cm[j]))


def _exp_zbar_dz(x, i, j):
    z = x.z.val
    return -1j / x.t2.value * ((float(i == j) + np.conjugate(z[i]) * z[j]) * x.tau.val
                               + np.conjugate(z[i]) * x.cm[j])


def _exp_dz_dzbar_anticomm(x, i, j):
    return 1j / x.t2.value * (_anticomm_bracket(x, i, j)
                              + _wedge_of(x.cm[i], np.conjugate(x.cm[j])))


def _exp_q_comm_form(x, i, j):
    z = x.z.val
    return -1j / x.t2.value * (float(i == j) + np.conjugate(z[i]) * z[j]) * x.tau.val


def _exp_qinv_comm_form(x, i, j):
    z = x.z.val
    return 1j / x.t2.value * (float(i == j) + z[i] * np.conjugate(z[j])) * np.conjugate(x.tau.val)


def _exp_qinv_wedge_anticomm(x, i, j):
    return 1j / x.t2.value * _anticomm_bracket(x, i, j)


def _exp_w_dwbar(x, i, j):
    w, dw, tau = x.w.val, x.w.d1, x.tau.val
    wb, dwb = np.conjugate(w), np.conjugate(dw)
    return 0.5j * ((2 * float(i == j) + w[i] * wb[j] * (1.0 / x.t2.value - 2.0))
                   * (np.conjugate(tau) - tau) / 2.0
                   + w[i] * dwb[j] - wb[j] * dw[i])


def _exp_w_dw(x, i, j):
    w, dw, tau = x.w.val, x.w.d1, x.tau.val
    taub = np.conjugate(tau)
    return -0.5j * (w[i] * w[j] * (2 * taub + (taub - tau) / (2 * x.t2.value))
                    + w[i] * dw[j] + w[j] * dw[i])


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

    dz, dzb = _dzs(x), _dzbars(x)
    terms = ([otimes1(column(j), dzb[j]) for j in range(x.n)]
             + [otimes1(row(i), dz[i]) for i in range(x.n)])
    v = sum(terms[1:], terms[0]).at(x.pt)
    gam = x.gamma.val
    return v.c.val, v.lam().val + 0.5 * (x.n + 1) * 1j * (gam - np.conjugate(gam))


def _exp_nablaq_dz(sgn: int):
    def exp(x):
        tau = QTensor.from_oneform(x.G, _read(x, lambda c: c.tau, conj=sgn < 0))
        dz = _dzs(x, conj=sgn < 0)
        def cell(i):
            # the factor (1 + sgn i lam), as lam-slot arithmetic on the pair
            v = (otimes1(tau, dz[i]) + otimes1(dz[i], tau)).at(x.pt)
            return v.c.val, v.lam().val + sgn * 1j * v.c.val
        return _grid(x, 2, cell, dims=1)
    return exp


# closed-form checks on the projective-space chart: name -> (engine, expected)
CATALOGUE = {
    "z-z-comm": (_comm(_zs, _zs), _zero(0)),
    "z-zbar-comm": (_comm(_zs, _zbars), _exp_z_zbar),
    "z-dz-comm": (_comm(_zs, _dzs), _zero(1)),
    "zbar-dzbar-comm": (_comm(_zbars, _dzbars), _zero(1)),
    "z-dzbar-comm": (_comm(_zs, _dzbars), _lam_cells(1, _exp_z_dzbar)),
    "zbar-dz-comm": (_comm(_zbars, _dzs), _lam_cells(1, _exp_zbar_dz)),
    "dz-dz-wedge": (_eng_dz_dz_wedge, _zero(2)),
    "dz-dzbar-anticomm": (_anticomm(False), _lam_cells(2, _exp_dz_dzbar_anticomm)),
    "q-comm-scalar": (_comm(_zbars, _zs, _q_factor), _exp_q_comm_scalar),
    "q-comm-form": (_comm(_zbars, _dzs, _q_factor), _lam_cells(1, _exp_q_comm_form)),
    "qinv-comm-form": (_comm(_zs, _dzbars, partial(_q_factor, inverse=True)),
                       _lam_cells(1, _exp_qinv_comm_form)),
    "qinv-wedge-anticomm": (_anticomm(True), _lam_cells(2, _exp_qinv_wedge_anticomm)),
    "w-w-comm": (_comm(_ws, _ws), _zero(0)),
    "w-wbar-comm": (_comm(_ws, _wbars), _exp_w_wbar),
    "w-dwbar-comm": (_comm(_ws, _dwbars), _lam_cells(1, _exp_w_dwbar)),
    "w-dw-comm": (_comm(_ws, _dws), _lam_cells(1, _exp_w_dw)),
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
    registered catalogue check at a point."""
    return _entry(check_id)[1](cpn_at(G, point))


def cpn_catalogue_residual(G: GeometryData, check_id: str, point) -> tuple:
    """(classical, first-order) max-abs residual of a catalogue check."""
    eng, exp = _entry(check_id)
    x = cpn_at(G, point)
    ec, el = eng(x)
    xc, xl = exp(x)
    return (float(np.max(np.abs(ec - xc))), float(np.max(np.abs(el - xl))))
