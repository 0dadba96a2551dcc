"""Outside-in tracing of the semiq layers.

Every span is recorded by wrapping a public function of a ``semiq.*``
module from here; nothing inside the package is edited. ``install``
rebinds each wrapped function under every name that refers to it in a
loaded ``semiq`` module (``from .lambda_core import jet_einsum`` copies
the binding into five modules), and ``uninstall`` puts every original
back, so untraced and traced passes can share one process.

Spans nest. A span's self time is its duration minus the time covered
by the spans it directly encloses, which matters for the lazy
``PointFrame`` attributes and the ``.at`` of fields built from fields.
The jet arithmetic of ``lambda_core`` (``jet_einsum``, ``matinv``,
``compose``) is counted and timed on its own but encloses nothing and
is not subtracted: every layer computes through it, so a layer's self
time is the work its own code does, arithmetic included. Spans are
aggregated as they close: per name, the call count, the inclusive time
and the self time. Counters (output bytes, frame misses) are kept
beside them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import cached_property, wraps
from time import perf_counter

# PointFrame attributes built lazily per point, in dependency order.
FRAME_ATTRS = ("g", "ginv", "om", "gam", "gam_lc", "torsion", "contorsion",
               "riemann", "torsion_cov", "contorsion_cov", "riemann_q",
               "h_fam", "ricci2", "ricci2_direct")

KERNELS = ("nq_basis", "sigma_basis", "nq2_basis")

# constructors that return lazy fields; their cost falls on the field's .at
CONSTRUCTORS = ("star_product", "module_action", "wedge1", "wedge1_map",
                "nabla_Q", "sigma_Q", "q_map", "g_q_build", "qlc_residual")

PROVIDERS = ("g_fn", "ginv_fn", "omega_fn", "gamma_fn")


def metric_safe(check: str) -> str:
    """Catalogue check id as a metric name: nablaQ-dz+ -> nablaQ-dz_plus."""
    if check[-1:] in "+-":
        return check[:-1] + ("_plus" if check[-1] == "+" else "_minus")
    return check


class Tracer:
    """Span aggregation plus the patches that feed it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []          # one [child seconds] cell per open span
        self._undo = []           # callables that each put one original back

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        for d in (self.calls, self.incl, self.self_s, self.counts):
            d.clear()

    def _open(self) -> list:
        cell = [0.0]
        self._stack.append(cell)
        return cell

    def _close(self, name: str, cell: list, dt: float) -> None:
        self._stack.pop()
        self.calls[name] += 1
        self.incl[name] += dt
        self.self_s[name] += dt - cell[0]
        if self._stack:
            self._stack[-1][0] += dt

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call is a span called ``name``."""
        @wraps(fn)
        def traced(*args, **kwargs):
            cell = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, cell, perf_counter() - t0)
        return traced

    def exact_counts(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        orig = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, orig))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapped) -> None:
        """Replace ``orig`` under every name bound to it in a semiq module."""
        for mod in [m for k, m in sys.modules.items()
                    if (k == "semiq" or k.startswith("semiq.")) and m is not None]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self) -> None:
        import semiq.cli as cli
        import semiq.evolution as ev
        import semiq.fieldexpr as fx
        import semiq.geometries as geos
        import semiq.geometry as geo
        import semiq.lambda_core as lc
        import semiq.semiquant as sq
        import semiq.suites as suites

        self._patch_jet_einsum(lc.jet_einsum)
        for meth in ("matinv", "compose"):
            self._set(lc.Jet, meth, self._leaf(f"lambda_core.{meth}", getattr(lc.Jet, meth)))
        for fn in ("parse", "eval_jet"):
            self._rebind(getattr(fx, fn), self.span(f"fieldexpr.{fn}", getattr(fx, fn)))
        self._patch_frames(geo)
        for maker in ("make_flat", "make_cpn", "make_flat_torsion"):
            orig = getattr(geos, maker)
            self._rebind(orig, self._with_traced_providers(orig))
        self._patch_catalogue(geos)
        for fn in KERNELS:
            self._rebind(getattr(sq, fn), self.span(f"semiquant.{fn}", getattr(sq, fn)))
        for fn in CONSTRUCTORS:
            orig = getattr(sq, fn)
            self._rebind(orig, self._lazy(f"semiquant.{fn}.at", orig))
        self._rebind(ev.defect_two_route_residual,
                     self.span("evolution.defect_two_route_residual",
                               ev.defect_two_route_residual))
        for fn in ("evolve_scalar", "evolve_oneform"):
            orig = getattr(ev, fn)
            self._rebind(orig, self._lazy(f"evolution.{fn}.at", orig))
        self._patch_suites(suites)
        for fn in ("build_geometry", "emit_report"):
            self._set(cli, fn, self.span(f"cli.{fn}", getattr(cli, fn)))

    def _leaf(self, name: str, fn):
        """``fn`` counted and timed, its time left in the enclosing span's self time."""
        calls, incl = self.calls, self.incl

        @wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls[name] += 1
                incl[name] += perf_counter() - t0
        return timed

    def _patch_jet_einsum(self, orig) -> None:
        """jet_einsum, bucketed by the derivative order of its output."""
        calls, incl, counts = self.calls, self.incl, self.counts

        @wraps(orig)
        def timed(spec, a, b):
            t0 = perf_counter()
            out = orig(spec, a, b)
            dt = perf_counter() - t0
            bucket = f"lambda_core.jet_einsum.order{out.order}"
            for name in ("lambda_core.jet_einsum", bucket):
                calls[name] += 1
                incl[name] += dt
            counts[bucket + ".out_bytes"] += sum(l.nbytes for l in out.levels)
            return out

        self._rebind(orig, timed)

    def _patch_frames(self, geo) -> None:
        counts = self.counts
        init = geo.PointFrame.__init__

        @wraps(init)
        def counted_init(frame, *args, **kwargs):
            counts["geometry.frame.misses"] += 1
            init(frame, *args, **kwargs)

        self._set(geo.PointFrame, "__init__", counted_init)
        self._set(geo.GeometryData, "frame",
                  self.span("geometry.frame", geo.GeometryData.frame))
        for attr in FRAME_ATTRS:
            prop = geo.PointFrame.__dict__[attr]
            traced = cached_property(self.span(f"geometry.frame.{attr}", prop.func))
            traced.__set_name__(geo.PointFrame, attr)
            self._set(geo.PointFrame, attr, traced)

    def _with_traced_providers(self, maker):
        @wraps(maker)
        def traced_maker(*args, **kwargs):
            G = maker(*args, **kwargs)
            for attr in PROVIDERS:
                fn = getattr(G, attr)
                if fn is not None:
                    setattr(G, attr, self.span("geometries.provider", fn))
            return G
        return traced_maker

    def _patch_catalogue(self, geos) -> None:
        orig = geos.cpn_catalogue_residual
        incl = self.incl

        @wraps(orig)
        def traced(G, check_id, point):
            cell = self._open()
            t0 = perf_counter()
            try:
                return orig(G, check_id, point)
            finally:
                dt = perf_counter() - t0
                self._close(f"geometries.catalogue.{metric_safe(check_id)}", cell, dt)
                incl["geometries.catalogue"] += dt

        self._rebind(orig, traced)

    def _lazy(self, name: str, ctor):
        """Constructor whose returned field's evaluations are spans ``name``."""
        @wraps(ctor)
        def traced_ctor(*args, **kwargs):
            field = ctor(*args, **kwargs)
            field.fn = self.span(name, field.fn)
            return field
        return traced_ctor

    def _patch_suites(self, suites) -> None:
        counts = self.counts
        for suite, fn in list(suites._SUITE_FNS.items()):
            span = self.span(f"suites.{suite}", fn)

            def traced(G, pts, rng, _span=span, _suite=suite):
                before = counts["geometry.frame.misses"]
                try:
                    return _span(G, pts, rng)
                finally:
                    counts[f"suites.{_suite}.frame_misses"] += (
                        counts["geometry.frame.misses"] - before)

            self._undo.append(lambda s=suite, f=fn: suites._SUITE_FNS.__setitem__(s, f))
            suites._SUITE_FNS[suite] = traced

    # -- per-layer metrics -------------------------------------------------

    def metric(self, name: str) -> float:
        """Value of a per-layer metric named as in BENCHMARK.json."""
        if name in self.counts:
            return float(self.counts[name])
        if name == "geometry.frame.hit_ratio":
            calls = self.calls["geometry.frame"]
            return (calls - self.counts["geometry.frame.misses"]) / calls if calls else 0.0
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            return float(self.calls.get(base, 0))
        if stat == "s":
            return self.incl.get(base, 0.0)
        if stat == "self_s":
            return self.self_s.get(base, 0.0)
        if stat == "us_per_call":
            calls = self.calls.get(base, 0)
            return 1e6 * self.incl[base] / calls if calls else 0.0
        if stat in ("out_bytes", "misses", "frame_misses"):
            return 0.0
        raise KeyError(f"no per-layer metric {name!r}")
