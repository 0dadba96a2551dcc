"""Classical tensor calculus on a coordinate chart.

Everything is evaluated pointwise through jets, so derivatives of closed
form fields are exact to machine rounding. Component array conventions:

    Gam[i, j, k]    connection coefficients, nabla_j dx^i = -Gam[i,j,k] dx^k
                    (first lower index is the direction of differentiation)
    T[i, j, k]      torsion Gam[i,j,k] - Gam[i,k,j]
    S[i, j, k]      contorsion, nabla + S = Levi-Civita connection
    R[c, d, a, b]   curvature, [nabla_a, nabla_b] dx^c = -R[c,d,a,b] dx^d
    om[i, j]        Poisson bivector (upper indices)

Covariant derivatives append the derivative slot last. Differential
p-forms are stored as fully antisymmetric (0,p) component arrays, i.e.
F(e_a, e_b, ...) = F[a, b, ...].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from . import fieldexpr
from .lambda_core import Jet, LJet, jet_einsum

_LETTERS = "abcdefghijklmnopqrs"

# the suites that apply to any chart; built-in geometries may name others
GENERIC_SUITES = ("classical-compat", "dga", "metric", "evolution")


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart with optional complex pairing z^k = x^k + i x^{k+n}."""

    dim: int
    names: tuple = ()
    pairing: bool = False
    box: float = 1.5

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("chart dimension must be >= 1")
        if self.pairing and self.dim % 2:
            raise ConfigError("complex pairing needs an even chart dimension")
        if not self.names:
            object.__setattr__(self, "names",
                               tuple(f"x{k+1}" for k in range(self.dim)))


class ScalarField:
    """Chart-wide scalar with a lam-graded jet provider."""

    def __init__(self, chart: Chart, fn: Callable[[tuple], LJet]):
        self.chart = chart
        self.fn = fn

    def at(self, point) -> LJet:
        return self.fn(tuple(point))

    @classmethod
    def from_expr(cls, chart: Chart, text: str, order: int = 3) -> "ScalarField":
        tree = fieldexpr.parse(text, chart.dim)
        return cls(chart, lambda p: LJet(fieldexpr.eval_jet(tree, p, chart.dim, order)))

    @classmethod
    def constant(cls, chart: Chart, value: complex, order: int = 3) -> "ScalarField":
        return cls(chart, lambda p: LJet(Jet.const(chart.dim, value, order)))

    @classmethod
    def coordinate(cls, chart: Chart, k: int, order: int = 3) -> "ScalarField":
        return cls(chart, lambda p: LJet(Jet.coordinate(chart.dim, p, k, order)))


class TensorField:
    """Tensor field with p contravariant and q covariant slots.

    Component arrays index contravariant slots first. ``form`` marks a
    fully antisymmetric covariant tensor (a differential form).
    """

    def __init__(self, chart: Chart, p: int, q: int,
                 fn: Callable[[tuple], LJet], form: bool = False):
        self.chart = chart
        self.p = p
        self.q = q
        self.fn = fn
        self.form = form

    def at(self, point) -> LJet:
        return self.fn(tuple(point))

    @classmethod
    def from_component_exprs(cls, chart: Chart, p: int, q: int, comps,
                             order: int = 3, form: bool = False) -> "TensorField":
        arr = np.asarray(comps, dtype=object)
        if arr.shape != (chart.dim,) * (p + q):
            raise ConfigError(
                f"component array has shape {arr.shape}, expected {(chart.dim,)*(p+q)}")
        trees = np.empty(arr.shape, dtype=object)
        for idx in np.ndindex(arr.shape):
            trees[idx] = fieldexpr.parse(str(arr[idx]), chart.dim)

        def fn(pt):
            out = np.empty(arr.shape, dtype=object)
            for idx in np.ndindex(arr.shape):
                out[idx] = fieldexpr.eval_jet(trees[idx], pt, chart.dim, order)
            levels = [np.stack([out[idx].levels[k] for idx in np.ndindex(arr.shape)])
                      .reshape(arr.shape + (chart.dim,) * k) for k in range(order + 1)]
            return LJet(Jet(chart.dim, levels, order))

        return cls(chart, p, q, fn, form=form)


# -- jet-level formulas --------------------------------------------------------

def christoffel_jet(g: Jet, ginv: Jet) -> Jet:
    """Levi-Civita coefficients from metric jets; costs one jet order."""
    dg = g.grad()                                   # dg[m,j,k] = g_{mj,k}
    b = dg + dg.reorder("mkj->mjk") - dg.reorder("jkm->mjk")
    return 0.5 * jet_einsum("im,mjk->ijk", ginv, b)


def curvature_jet(gam: Jet) -> Jet:
    """R[c,d,a,b] from connection jets; costs one jet order."""
    dg = gam.grad()                                 # dg[i,j,k,s] = Gam[i,j,k],s
    t1 = dg.reorder("cbda->cdab")                   # Gam[c,b,d],a
    t2 = dg.reorder("cadb->cdab")                   # Gam[c,a,d],b
    q1 = jet_einsum("cae,ebd->cdab", gam, gam)
    q2 = jet_einsum("cbe,ead->cdab", gam, gam)
    return t1 - t2 + q1 - q2


def torsion_jet(gam: Jet) -> Jet:
    return gam - gam.reorder("ikj->ijk")


def contorsion_jet(torsion: Jet, g: Jet, ginv: Jet) -> Jet:
    """S[i,j,k] = (1/2) g^{im} (T_mjk - T_jkm - T_kjm), with T_mjk = g_mr T^r_jk."""
    tl = jet_einsum("mr,rjk->mjk", g, torsion)
    comb = tl - tl.reorder("jkm->mjk") - tl.reorder("kjm->mjk")
    return 0.5 * jet_einsum("im,mjk->ijk", ginv, comb)


def cov_deriv_jet(x: Jet, gam: Jet, p: int, q: int) -> Jet:
    """Covariant derivative, derivative slot appended last; costs one order."""
    idx = _LETTERS[: p + q]
    out = idx + "t"
    res = x.grad()
    for m in range(p):
        src = idx[:m] + "r" + idx[m + 1:]
        res = res + jet_einsum(f"{idx[m]}tr,{src}->{out}", gam, x)
    for m in range(p, p + q):
        src = idx[:m] + "r" + idx[m + 1:]
        res = res - jet_einsum(f"rt{idx[m]},{src}->{out}", gam, x)
    return res


# -- geometry bundle and per-point frame ---------------------------------------

@dataclass
class GeometryData:
    """A chart with metric, Poisson bivector, connection and jet providers."""

    chart: Chart
    g_fn: Callable[[tuple], Jet]
    ginv_fn: Optional[Callable[[tuple], Jet]]
    omega_fn: Callable[[tuple], Jet]
    gamma_fn: Optional[Callable[[tuple], Jet]] = None   # None: Levi-Civita of g
    levi_civita: bool = True
    lam: complex = 1j
    name: str = "geometry"          # a label for reports; nothing dispatches on it
    tol: float = 1e-9               # default check tolerance
    default_seed: int = 0
    suites: tuple = GENERIC_SUITES  # default suites; cpn-catalogue runs only where listed
    parallel_cobasis: bool = False  # coordinate one-forms are parallel (flat chart)
    _frames: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.chart.dim

    def frame(self, point) -> "PointFrame":
        key = tuple(float(c) for c in point)
        fr = self._frames.get(key)
        if fr is None:
            fr = PointFrame(self, key)
            if len(self._frames) > 4096:
                self._frames.clear()
            self._frames[key] = fr
        return fr

    def sample_points(self, count: int, seed: int, box: Optional[float] = None) -> np.ndarray:
        rng = np.random.default_rng(seed)
        half = self.chart.box if box is None else box
        return rng.uniform(-half, half, size=(count, self.dim))


class PointFrame:
    """All geometric data of one geometry at one chart point, cached lazily."""

    def __init__(self, geom: GeometryData, point: tuple):
        self.G = geom
        self.point = point
        self.dim = geom.dim

    @cached_property
    def g(self) -> Jet:
        return self.G.g_fn(self.point)

    @cached_property
    def ginv(self) -> Jet:
        if self.G.ginv_fn is not None:
            return self.G.ginv_fn(self.point)
        return self.g.matinv()

    @cached_property
    def om(self) -> Jet:
        return self.G.omega_fn(self.point)

    @cached_property
    def gam(self) -> Jet:
        if self.G.gamma_fn is not None:
            return self.G.gamma_fn(self.point)
        return christoffel_jet(self.g, self.ginv)

    @cached_property
    def gam_lc(self) -> Jet:
        """Levi-Civita coefficients of g (equals gam when torsion-free by build)."""
        if self.G.levi_civita:
            return self.gam
        return christoffel_jet(self.g, self.ginv)

    @cached_property
    def torsion(self) -> Jet:
        return torsion_jet(self.gam)

    @cached_property
    def contorsion(self) -> Jet:
        return contorsion_jet(self.torsion, self.g, self.ginv)

    @cached_property
    def riemann(self) -> Jet:
        return curvature_jet(self.gam)

    @cached_property
    def torsion_cov(self) -> Jet:
        """T[i,j,k;s] with the derivative slot last."""
        return cov_deriv_jet(self.torsion, self.gam, 1, 2)

    @cached_property
    def contorsion_cov(self) -> Jet:
        return cov_deriv_jet(self.contorsion, self.gam, 1, 2)

    @cached_property
    def riemann_q(self) -> Jet:
        """Curvature in the sign convention of the deformation formulas.

        The opposite overall sign to the commutator convention of
        ``riemann``. With it, ``h_fam`` is minus the correction H in the
        deformed wedge (which therefore subtracts ``h_fam``), and ``ricci2``
        takes the closed-form value on the projective space asserted by
        acceptance criterion 4. See docs/criterion5.md.
        """
        return -self.riemann

    @cached_property
    def h_fam(self) -> Jet:
        """H[i,j,a,b]: two-form components of the wedge-correction family."""
        om, tc, r = self.om, self.torsion_cov, self.riemann_q
        return 0.5 * (jet_einsum("is,jbas->ijab", om, tc)
                      - jet_einsum("is,jbas->ijab", om, r)
                      + jet_einsum("is,jabs->ijab", om, r))

    @cached_property
    def ricci2(self) -> Jet:
        """Generalized Ricci two-form components, via the H family."""
        return jet_einsum("ij,ijab->ab", self.g, self.h_fam)

    @cached_property
    def ricci2_direct(self) -> Jet:
        """Same two-form assembled from the direct index formula."""
        gom = jet_einsum("ij,is->js", self.g, self.om)
        return 0.5 * (jet_einsum("js,jbas->ab", gom, self.torsion_cov)
                      - jet_einsum("js,jbas->ab", gom, self.riemann_q)
                      + jet_einsum("js,jabs->ab", gom, self.riemann_q))


def poisson_bracket(a: ScalarField, b: ScalarField, G: GeometryData) -> ScalarField:
    """{a, b} = om^{ij} a_,i b_,j, extended bilinearly over the lam grading."""

    def fn(pt):
        av, bv = a.at(pt), b.at(pt)
        om = G.frame(pt).om

        def br(x: Jet, y: Jet) -> Jet:
            return jet_einsum("i,i->", jet_einsum("ij,j->i", om, y.grad()), x.grad())

        c = br(av.c, bv.c)
        l = None
        if av.l is not None or bv.l is not None:
            l = br(av.c, bv.lam()) + br(av.lam(), bv.c)
        return LJet(c, l)

    return ScalarField(a.chart, fn)


def compat_residuals(G: GeometryData) -> tuple[TensorField, TensorField, TensorField]:
    """Left-hand sides of the three classical compatibility conditions.

    t1[i,j,m] = om^{ij}_{;m} + om^{ik} T^j_{km} - om^{jk} T^i_{km}
    t2[i,j,k] = cyclic sum of om^{im} om^{jn} T^k_{mn}
    mg[m,n,k] = g_{mn;k}

    All three vanish exactly when the connection is Poisson compatible,
    om is Poisson, and the metric is parallel.
    """
    chart = G.chart

    def t1_fn(pt):
        f = G.frame(pt)
        res = cov_deriv_jet(f.om, f.gam, 2, 0)
        res = res + jet_einsum("ik,jkm->ijm", f.om, f.torsion)
        res = res - jet_einsum("jk,ikm->ijm", f.om, f.torsion)
        return LJet(res)

    def t2_fn(pt):
        f = G.frame(pt)
        oo = jet_einsum("im,jn->ijmn", f.om, f.om)
        base = jet_einsum("ijmn,kmn->ijk", oo, f.torsion)
        return LJet(base + base.reorder("jki->ijk") + base.reorder("kij->ijk"))

    def mg_fn(pt):
        f = G.frame(pt)
        return LJet(cov_deriv_jet(f.g, f.gam, 0, 2))

    return (TensorField(chart, 2, 1, t1_fn),
            TensorField(chart, 3, 0, t2_fn),
            TensorField(chart, 0, 3, mg_fn))


# -- geometry configuration files ----------------------------------------------

def geometry_from_config(cfg: dict) -> GeometryData:
    """Build a geometry from a parsed JSON configuration.

    Schema: {"dim": int, "metric": [[expr]], "poisson": [[expr]],
             "connection": "levi-civita" | [[[expr]]],
             "box": float, "seed": int, "lambda_im": float,
             "pairing": bool}
    """
    try:
        dim = int(cfg["dim"])
    except KeyError:
        raise ConfigError("config needs a 'dim' entry")
    chart = Chart(dim, pairing=bool(cfg.get("pairing", dim % 2 == 0)),
                  box=float(cfg.get("box", 1.5)))
    try:
        g = TensorField.from_component_exprs(chart, 0, 2, cfg["metric"])
        om = TensorField.from_component_exprs(chart, 2, 0, cfg["poisson"])
    except KeyError as exc:
        raise ConfigError(f"config needs a {exc.args[0]!r} entry")
    conn = cfg.get("connection", "levi-civita")
    gamma_fn = None
    levi_civita = True
    if conn != "levi-civita":
        gam = TensorField.from_component_exprs(chart, 1, 2, conn)
        gamma_fn = lambda p: gam.at(p).c
        levi_civita = False
    lam = complex(0.0, float(cfg.get("lambda_im", 1.0)))
    return GeometryData(chart, lambda p: g.at(p).c, None, lambda p: om.at(p).c,
                        gamma_fn=gamma_fn, levi_civita=levi_civita, lam=lam,
                        name=str(cfg.get("name", "config")), tol=1e-6,
                        default_seed=int(cfg.get("seed", 0)))
