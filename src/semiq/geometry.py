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

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, wraps
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from . import fieldexpr
from .lambda_core import MAX_ORDER, Jet, LJet, jet_einsum

_LETTERS = "abcdefghijklmnopqrs"

# the suites that apply to any chart; built-in geometries may name others
GENERIC_SUITES = ("classical-compat", "dga", "metric", "evolution")

# a per-point cache is cleared once it holds more entries than this
CACHE_ENTRIES = 4096

# the most bytes one jet array may take; a chart that needs more is refused
MAX_JET_BYTES = 2 ** 30


def check_jet_bytes(dim: int, what: str) -> None:
    """ConfigError naming ``what`` unless the largest jet array on a
    dim-dimensional chart fits in MAX_JET_BYTES: the rank-5 complex
    coefficients of ``nq2_basis`` with MAX_ORDER derivative slots."""
    need = 16 * dim ** (5 + MAX_ORDER)
    if need > MAX_JET_BYTES:
        raise ConfigError(f"{what} asks for jets of {need} bytes, over {MAX_JET_BYTES}")


class Field:
    """A field on the chart with a lam-graded jet provider: a scalar, or the
    component array of a tensor (contravariant slots first).

    ``at`` calls the provider once per point and keeps its jets, so a field
    read by several nodes of an expression tree is evaluated once.
    """

    def __init__(self, fn: Callable[[tuple], LJet]):
        self.fn = fn
        self._jets: dict = {}

    def at(self, point) -> LJet:
        pt = tuple(point)
        v = self._jets.get(pt)
        if v is None:
            v = self.fn(pt)
            if len(self._jets) > CACHE_ENTRIES:
                self._jets.clear()
            self._jets[pt] = v
        return v

    @classmethod
    def from_expr(cls, dim: int, text: str, order: int = 3) -> "Field":
        tree = fieldexpr.parse(text, dim)
        return cls(lambda p: LJet(fieldexpr.eval_jet(tree, p, dim, order)))


def component_jets(dim: int, rank: int, comps) -> Callable[[tuple, int], Jet]:
    """Jet provider (point, order) of a tensor given by component expressions."""
    arr = np.asarray(comps, dtype=object)
    shape = (dim,) * rank
    if arr.shape != shape:
        raise ConfigError(f"component array has shape {arr.shape}, expected {shape}")
    trees = [fieldexpr.parse(str(arr[idx]), dim) for idx in np.ndindex(shape)]

    def fn(pt, order):
        out = [fieldexpr.eval_jet(t, pt, dim, order) for t in trees]
        levels = [np.stack([j.levels[k] for j in out]).reshape(shape + (dim,) * k)
                  for k in range(order + 1)]
        return Jet(dim, levels)

    return fn


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
    for term in gamma_slot_terms(x, gam, range(p, p + q)):
        res = res - term
    return res


def gamma_slot_terms(x: Jet, gam: Jet, slots) -> list[Jet]:
    """Gam^r_{t a} x[.. r at slot ..] for each of ``slots``, derivative slot t last."""
    idx = _LETTERS[: len(x.shape)]
    return [jet_einsum(f"rt{idx[m]},{idx[:m]}r{idx[m + 1:]}->{idx}t", gam, x)
            for m in slots]


# -- geometry bundle and per-point frame ---------------------------------------

@dataclass
class GeometryData:
    """A chart x1..x{dim} with metric, Poisson bivector, connection and jet
    providers, sampled in the box [-box, box]^dim.

    Providers take (point, order) and return jets of that order. ``order``
    is the depth of every frame built through this geometry: the highest
    derivative its caller reads. ``at_order`` gives a view at another depth
    that shares the frame cache, keyed by (point, order).
    """

    dim: int
    g_fn: Callable[[tuple, int], Jet]
    ginv_fn: Optional[Callable[[tuple, int], Jet]]
    omega_fn: Callable[[tuple, int], Jet]
    gamma_fn: Optional[Callable[[tuple, int], Jet]] = None   # None: Levi-Civita of g
    levi_civita: bool = True
    name: str = "geometry"          # a label for reports; nothing dispatches on it
    box: float = 1.5                # half-width of the sampling box
    tol: float = 1e-9               # default check tolerance
    default_seed: int = 0
    suites: tuple = GENERIC_SUITES  # default suites; cpn-catalogue runs only where listed
    parallel_cobasis: bool = False  # coordinate one-forms are parallel (flat chart)
    order: int = 3                  # jet depth of frames and provider calls
    _frames: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("chart dimension must be >= 1")

    def at_order(self, order: int) -> "GeometryData":
        """This geometry with jets built to ``order``; it shares the frame cache."""
        return replace(self, order=order)

    def frame(self, point) -> "PointFrame":
        pt = tuple(float(c) for c in point)
        fr = self._frames.get((pt, self.order))
        if fr is None:
            fr = PointFrame(self, pt)
            if len(self._frames) > CACHE_ENTRIES:
                self._frames.clear()
            self._frames[(pt, self.order)] = fr
        return fr

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.uniform(-self.box, self.box, size=(count, self.dim))


class PointFrame:
    """All geometric data of one geometry at one chart point, cached lazily."""

    def __init__(self, geom: GeometryData, point: tuple):
        self.G = geom
        self.point = point
        self.dim = geom.dim
        self.order = geom.order
        self.built: dict = {}       # @per_frame results, keyed by builder

    def _christoffel(self) -> Jet:
        """Levi-Civita coefficients of g at the frame's order: the derivative
        costs one order, so g and its inverse are asked one order deeper."""
        k = min(self.order + 1, MAX_ORDER)
        g = self.G.g_fn(self.point, k)
        ginv = self.G.ginv_fn(self.point, k) if self.G.ginv_fn is not None else g.matinv()
        return christoffel_jet(g, ginv)

    @cached_property
    def g(self) -> Jet:
        return self.G.g_fn(self.point, self.order)

    @cached_property
    def ginv(self) -> Jet:
        if self.G.ginv_fn is not None:
            return self.G.ginv_fn(self.point, self.order)
        return self.g.matinv()

    @cached_property
    def om(self) -> Jet:
        return self.G.omega_fn(self.point, self.order)

    @cached_property
    def gam(self) -> Jet:
        if self.G.gamma_fn is not None:
            return self.G.gamma_fn(self.point, self.order)
        return self._christoffel()

    @cached_property
    def om_gam(self) -> Jet:
        """P[u,s,m] = om^{st} Gam^u_{tm}, the cost of moving a function across one slot."""
        return jet_einsum("st,utm->usm", self.om, self.gam)

    @cached_property
    def om_gam_gam(self) -> Jet:
        """Q[m,n,a,b] = om^{ij} Gam^m_{ia} Gam^n_{jb}, the cost across two slots."""
        u = jet_einsum("ij,mia->mja", self.om, self.gam)
        return jet_einsum("mja,njb->mnab", u, self.gam)

    @cached_property
    def gam_lc(self) -> Jet:
        """Levi-Civita coefficients of g (equals gam when torsion-free by build)."""
        if self.G.levi_civita:
            return self.gam
        return self._christoffel()

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


def per_frame(build: Callable[[PointFrame], object]) -> Callable[[PointFrame], object]:
    """``build(frame)``, computed once per frame and kept in ``frame.built``:
    the one cache of per-point quantities built outside ``PointFrame``."""

    @wraps(build)
    def cached(f: PointFrame):
        if build not in f.built:
            f.built[build] = build(f)
        return f.built[build]

    return cached


def poisson_bracket(a: Field, b: Field, G: GeometryData) -> Field:
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

    return Field(fn)


def compat_residuals(G: GeometryData) -> tuple[Field, Field, Field]:
    """Left-hand sides of the three classical compatibility conditions.

    t1[i,j,m] = om^{ij}_{;m} + om^{ik} T^j_{km} - om^{jk} T^i_{km}
    t2[i,j,k] = cyclic sum of om^{im} om^{jn} T^k_{mn}
    mg[m,n,k] = g_{mn;k}

    All three vanish exactly when the connection is Poisson compatible,
    om is Poisson, and the metric is parallel.
    """
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

    return Field(t1_fn), Field(t2_fn), Field(mg_fn)


# -- geometry configuration files ----------------------------------------------

def _config_number(cfg: dict, key: str, default, valid, what: str):
    v = cfg.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not valid(v):
        raise ConfigError(f"config entry {key!r} must be {what}, got {v!r}")
    return v


CONFIG_KEYS = ("dim", "metric", "poisson", "connection", "box", "seed", "name")


def geometry_from_config(cfg: dict) -> GeometryData:
    """Build a geometry from a parsed JSON configuration.

    Schema: {"dim": int >= 1, "metric": [[expr]], "poisson": [[expr]],
             "connection": "levi-civita" | [[[expr]]],
             "box": finite float > 0, "seed": int >= 0, "name": str}
    Any other key is an error, so a misspelt one cannot silently fall
    back to a default.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("a geometry config must be a JSON object")
    for key in cfg:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config entry {key!r}; "
                              f"the entries are {', '.join(CONFIG_KEYS)}")
    if "dim" not in cfg:
        raise ConfigError("config needs a 'dim' entry")
    dim = _config_number(cfg, "dim", None, lambda v: isinstance(v, int) and v >= 1,
                         "an integer >= 1")
    check_jet_bytes(dim, f"config entry 'dim' = {dim}")
    box = _config_number(cfg, "box", 1.5, lambda v: math.isfinite(v) and v > 0,
                         "a finite number > 0")
    seed = _config_number(cfg, "seed", 0, lambda v: isinstance(v, int) and v >= 0,
                          "an integer >= 0")
    name = cfg.get("name", "config")
    if not isinstance(name, str):
        raise ConfigError(f"config entry 'name' must be a string, got {name!r}")
    try:
        g = component_jets(dim, 2, cfg["metric"])
        om = component_jets(dim, 2, cfg["poisson"])
    except KeyError as exc:
        raise ConfigError(f"config needs a {exc.args[0]!r} entry")
    conn = cfg.get("connection", "levi-civita")
    levi_civita = conn == "levi-civita"
    gamma_fn = None if levi_civita else component_jets(dim, 3, conn)
    # a metric must be symmetric and a bivector antisymmetric; compared by
    # value at three points of the box, so entries written differently agree
    probes = box * np.sin(np.outer(np.arange(1.0, 4.0), np.arange(1.0, dim + 1.0)))
    for key, fn, sign, what in (("metric", g, 1, "symmetric"),
                                ("poisson", om, -1, "antisymmetric")):
        for pt in probes:
            m = fn(tuple(pt), 0).val
            gap = float(np.max(np.abs(m - sign * m.T)))
            if not gap <= 1e-9 * max(1.0, float(np.max(np.abs(m)))):
                at = ", ".join(f"{c:.6g}" for c in pt)
                raise ConfigError(f"config entry {key!r} must be {what}: its "
                                  f"transpose differs by {gap:.3g} at ({at})")
    return GeometryData(dim, g, None, om, gamma_fn=gamma_fn, levi_civita=levi_civita,
                        name=name, box=float(box), tol=1e-6, default_seed=seed)
