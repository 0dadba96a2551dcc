"""Batches of sample points through the jet arithmetic and the kernel.

A jet may hold a batch: leading axes with one member per chart point. Every
jet operation and every kernel route evaluated over a batch must equal,
byte for byte, the same route evaluated at each point alone and stacked; a
batch is never contracted across members. A result that does not depend on
the point (a constant metric, say) may keep no batch axis and is compared
broadcast. Field expressions and the evolution routes are held to the same
rule; an expression that fails at one point of a batch fails with the error
that point gives alone. The suites then evaluate each check once per batch,
`check` builds only batch frames, and a sample too large for one batch is
split without changing a report byte or holding more than the batch budget
beyond one point at a time; every suite takes a batch before the next one,
and a batch's frames die with it.
"""

import gc
import json
import sys
import tracemalloc
import weakref
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import run_suite
from semiq import cli
from semiq import evolution as ev
from semiq import fieldexpr
from semiq import geometry as geo
from semiq import semiquant as sq
from semiq import suites
from semiq.cli import build_geometry, main
from semiq.errors import ConfigError, EvalError, SemiqError
from semiq.geometries import make_cpn, make_flat, make_flat_torsion
from semiq.geometry import Field, geometry_from_config
from semiq.lambda_core import UNARY_FUNCS, Jet, LJet, is_batch, jet_einsum

ROOT = Path(__file__).resolve().parent.parent

BATCHES = (1, 2, 5)


def member(j: Jet, k: int) -> Jet:
    """Member k of a batched jet, as a lone jet."""
    return Jet(j.dim, [l[k] for l in j.levels])


def assert_stacked(whole, parts) -> None:
    """``whole``, over a batch, equals ``parts``, one per point, stacked;
    a part-independent whole without a batch axis is compared broadcast."""
    if isinstance(whole, LJet):
        assert_stacked(whole.c, [p.c for p in parts])
        assert_stacked(whole.lam(), [p.lam() for p in parts])
    elif isinstance(whole, Jet):
        assert len(whole.levels) == len(parts[0].levels)
        assert whole.shape == parts[0].shape and whole.batch in (0, 1)
        for k, level in enumerate(whole.levels):
            assert_stacked(level, [p.levels[k] for p in parts])
    else:
        stacked = np.stack(parts)
        got = np.broadcast_to(whole, stacked.shape) if whole.ndim < stacked.ndim else whole
        assert got.shape == stacked.shape and got.dtype == stacked.dtype
        assert got.tobytes() == stacked.tobytes()


# -- jet operations -----------------------------------------------------------------

def random_jet(rng, dim: int, shape: tuple, order: int, n: int) -> Jet:
    """A batch of n random complex jets; n = 0 gives a lone jet."""
    lead = (n,) if n else ()
    return Jet(dim, [rng.normal(size=lead + shape + (dim,) * k)
                     + 1j * rng.normal(size=lead + shape + (dim,) * k)
                     for k in range(order + 1)], 1 if n else 0)


FAMILY = 3      # the size of a family axis, upper-case letters in a spec

# einsum specs of the engine: frames, kernel and families
SPECS = (",ab->ab", "a,a->", "a,b->ab", "am,mb->ab", "st,utm->usm", "imkj,kjn->imn",
         "sj,imks->imkj", "mnab,mn->ab", "Iuz,zt->Iut", "Ia,Jb->IJab", "Iab,Jbc->IJac")


def _shape(sub: str, dim: int) -> tuple:
    return tuple(FAMILY if c.isupper() else dim for c in sub)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from(BATCHES), dim=st.sampled_from((2, 4)), order=st.integers(0, 3),
       spec=st.sampled_from(SPECS), lone=st.sampled_from((None, 0, 1)),
       seed=st.integers(0, 2 ** 16))
def test_jet_einsum_batch_is_stacked(n, dim, order, spec, lone, seed):
    # lone names the operand, if any, that holds no batch and is shared
    rng = np.random.default_rng(seed)
    sa, sb = spec.split("->")[0].split(",")
    a = random_jet(rng, dim, _shape(sa, dim), order, 0 if lone == 0 else n)
    b = random_jet(rng, dim, _shape(sb, dim), order, 0 if lone == 1 else n)

    def pick(j, k):
        return member(j, k) if j.batch else j

    assert_stacked(jet_einsum(spec, a, b),
                   [jet_einsum(spec, pick(a, k), pick(b, k)) for k in range(n)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.sampled_from(BATCHES), dim=st.sampled_from((2, 4)), order=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16))
def test_jet_operations_batch_is_stacked(n, dim, order, seed):
    rng = np.random.default_rng(seed)
    u, v = (random_jet(rng, dim, (), order, n) for _ in range(2))
    t, w = (random_jet(rng, dim, (dim, dim, dim), order, n) for _ in range(2))
    m = random_jet(rng, dim, (dim, dim), order, n)
    m = Jet(dim, [np.eye(dim) + 0.1 * m.levels[0]] + list(m.levels[1:]), 1)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)

    def check(op, *jets):
        assert_stacked(op(*jets), [op(*(member(j, k) for j in jets)) for k in range(n)])

    check(lambda x, y: x + y, t, w)
    check(lambda x, y: x - y, t, w)
    check(lambda x: x.scale(0.5 - 2j), t)
    check(lambda x: 0.5 * x, t)
    assert_stacked(t.scale(c), [member(t, k).scale(complex(c[k])) for k in range(n)])
    for name, table in UNARY_FUNCS.items():
        check(lambda x: x.compose(table), u)
    check(lambda x: x.reciprocal(), u)
    for p in (2, 3, 0, -1, 0.5, 2.5, -1.5):
        check(lambda x: x ** p, u)
    check(lambda x, y: x * y, u, v)
    check(lambda x: x.matinv(), m)
    check(lambda x: x.reorder("abc->cab"), t)
    check(lambda x: x.reorder("ba->ab"), t)
    check(lambda x: x.take_index(1, axis=1), t)
    check(lambda x: x.conj(), t)
    if order:
        check(lambda x: x.grad(), t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lead=st.sampled_from(((), (3,), (2, 3))), dim=st.integers(1, 4),
       order=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
def test_coordinate_jets_are_their_members_alone(lead, dim, order, seed):
    # a point's leading axes are the batch; each member holds the bits of the
    # jet built at its point alone, and that jet is the affine one: the
    # coordinates, the unit gradients, then zeros
    pts = np.random.default_rng(seed).normal(size=lead + (dim,))
    eye = np.eye(dim, dtype=np.complex128)
    routes = [(lambda p: Jet.coords(dim, p, order), lambda p: (p, eye))]
    routes += [(lambda p, k=k: Jet.coordinate(dim, p, k, order), lambda p, k=k: (p[k], eye[k]))
               for k in range(dim)]
    for build, affine in routes:
        j = build(pts)
        assert j.batch == len(lead) and len(j.levels) == order + 1
        for m in np.ndindex(lead):
            alone = build(tuple(float(v) for v in pts[m]))
            value, d1 = affine(np.asarray(pts[m], dtype=np.complex128))
            direct = [value, d1] + [np.zeros(np.shape(value) + (dim,) * l, dtype=np.complex128)
                                    for l in (2, 3)]
            assert alone.batch == 0 and len(alone.levels) == order + 1
            for got, one, want in zip(j.levels, alone.levels, direct):
                assert got[m].shape == one.shape == np.shape(want)
                assert got[m].tobytes() == one.tobytes() == want.tobytes()


# -- field expressions ---------------------------------------------------------------

def _expr(dim: int):
    """Expressions of the grammar over an x1..x{dim} chart: coordinates, z
    aliases, constants, every function, powers with constant exponents and
    the four operators; some are undefined or overflow at some points."""
    names = [f"x{k}" for k in range(1, dim + 1)] + [f"z{k}" for k in range(1, dim // 2 + 1)]
    consts = st.sampled_from(["0", "2", "0.5", "3i", "i", "1e200", "(1+i)"])
    atoms = st.one_of(st.sampled_from(names), consts) if names else consts
    exponents = st.sampled_from(["2", "3", "0", "-1", "-2", "0.5", "-1.5", "2.5", "(1-i)"])

    def grow(e):
        return st.one_of(
            st.tuples(st.sampled_from(fieldexpr.FUNCTIONS), e).map(lambda t: f"{t[0]}({t[1]})"),
            e.map(lambda x: f"-({x})"),
            st.tuples(e, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(e, st.sampled_from("+-*/"), e).map(lambda t: f"({t[0]}){t[1]}({t[2]})"))

    return st.recursive(atoms, grow, max_leaves=5)


@st.composite
def _expr_batches(draw):
    dim = draw(st.sampled_from((1, 2, 4)))
    text = draw(st.one_of(_expr(dim), _expr(0)))     # the second: constants only
    n = draw(st.sampled_from(BATCHES))
    values = st.sampled_from([-1.5, -0.3, 0.0, 0.2, 0.7, 1.0, 2.0, 400.0])
    pts = tuple(tuple(draw(values) for _ in range(dim)) for _ in range(n))
    return text, dim, draw(st.integers(0, 3)), pts


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_expr_batches())
@example(case=("ln(x1)+z1", 2, 2, ((0.7, 0.2), (-0.3, 1.0), (2.0, 0.0))))
@example(case=("sqrt(z1)*x2^-1", 2, 3, ((1.0, 2.0), (0.0, 0.0))))
@example(case=("exp(x1*400)", 1, 1, ((1.0,), (2.0,), (0.5,))))
@example(case=("x1*x1+z1", 2, 1, ((1.0, 0.5), (1e200, 0.0), (2.0, -1.5))))
@example(case=("sin(1e200*1e200)", 1, 2, ((0.0,), (2.0,))))
@example(case=("(1e200)*(1e200)+2", 2, 0, ((1.0, 1.0), (2.0, 2.0))))
def test_eval_jet_batch_is_stacked(case):
    # a batch equals its points evaluated alone; where points fail alone,
    # the batch raises one of their errors, and the one error if one fails
    text, dim, order, pts = case
    tree = fieldexpr.parse(text, dim)
    alone, errors = [], []
    with np.errstate(all="ignore"):
        for p in pts:
            try:
                alone.append(fieldexpr.eval_jet(tree, p, dim, order))
            except SemiqError as exc:
                errors.append((type(exc), str(exc)))
        if not errors:
            assert_stacked(fieldexpr.eval_jet(tree, pts, dim, order), alone)
            return
        with pytest.raises(SemiqError) as info:
            fieldexpr.eval_jet(tree, pts, dim, order)
    got = (type(info.value), str(info.value))
    assert got in errors if len(errors) > 1 else got == errors[0], (text, pts, got, errors)


# -- drawn polynomials ---------------------------------------------------------------

def lone_chain(d: int, poly, pt, order: int) -> Jet:
    """A drawn polynomial at one point as a chain of lone jets: each
    monomial's coefficient times its factors left to right, summed from 0."""
    total = Jet.const(d, 0.0, order)
    for coef, idxs in poly:
        term = Jet.const(d, coef, order)
        for i in idxs:
            term = term * Jet.coordinate(d, pt, i, order)
        total = total + term
    return total


@st.composite
def _poly_shapes(draw):
    """A chart dimension and, per point and component, the factor indices
    of four monomials: 0, 1 or 2 factors, repeats allowed."""
    d = draw(st.sampled_from((1, 2, 4, 6)))
    poly = st.lists(st.lists(st.integers(0, d - 1), max_size=2).map(tuple),
                    min_size=4, max_size=4)
    fields = draw(st.integers(1, 3))
    return d, draw(st.lists(st.lists(poly, min_size=fields, max_size=fields),
                            min_size=1, max_size=7))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_poly_shapes(), order=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(case=(2, [[[(), (0,), (1, 1), (0, 1)]], [[(1,), (0, 0), (), (1, 0)]]]),
         order=2, seed=0)
def test_drawn_polynomials_hold_the_lone_chains_bits(case, order, seed):
    d, shapes = case
    rng = np.random.default_rng(seed)
    polys = [[tuple((complex(rng.normal(), rng.normal()), tuple(ix)) for ix in poly)
              for poly in row] for row in shapes]
    pts = tuple(tuple(p) for p in rng.uniform(-1.5, 1.5, size=(len(shapes), d)))
    whole = suites.poly_jets(d, polys, pts, order)
    assert whole.batch == 1 and whole.shape == (len(shapes[0]),)
    assert_stacked(whole, [Jet(d, [np.stack(ls) for ls in zip(
        *(lone_chain(d, poly, pt, order).levels for poly in row))]) for row, pt in zip(polys, pts)])


# -- kernel routes -------------------------------------------------------------------

@lru_cache(maxsize=None)
def _geometry(name: str):
    if name == "exp-plane":
        return geometry_from_config(json.loads((ROOT / "perfbench" / "exp_plane.json").read_text()))
    return {"flat1": lambda: make_flat(1), "cpn1": lambda: make_cpn(1),
            "cpn2": lambda: make_cpn(2), "flat-torsion": make_flat_torsion}[name]()


def _poly(G, rng, shape):
    """Provider of a lam-graded polynomial of the given tensor shape: quadratic
    in the coordinates, with a linear lam slot. It works on a batch alike."""
    d = G.dim
    lin, quad = rng.normal(size=shape + (d,)), rng.normal(size=shape + (d, d))
    free = "abc"[: len(shape)]

    def fn(pt):
        x = Jet.coords(d, pt, G.order)
        xx = jet_einsum("u,v->uv", x, x)
        c = jet_einsum(f"{free}u,u->{free}", lin, x) + jet_einsum(f"{free}uv,uv->{free}", quad, xx)
        return LJet(c, jet_einsum(f"{free}u,u->{free}", 1j * lin, x))

    return fn


def _routes(G, rng):
    """Each kernel route as a function of a point or a batch of points."""
    d = G.dim
    a, b = Field(_poly(G, rng, ())), Field(_poly(G, rng, ()))
    xi = sq.QTensor.from_oneform(G, _poly(G, rng, (d,)))
    X = sq.QTensor(G, 2, _poly(G, rng, (d, d)))
    gq = sq.g_q_build(G)
    return {
        "nq_basis": lambda p: sq.nq_basis(G.frame(p)),
        "sigma_basis": lambda p: sq.sigma_basis(G.frame(p)),
        "nq2_basis": lambda p: sq.nq2_basis(G.frame(p)),
        "_gq_coeff": lambda p: sq._gq_coeff(G.frame(p)),
        "star_product": lambda p: sq.star_product(a, b, G).at(p),
        "module_action": lambda p: sq.module_action(a, xi).at(p),
        "wedge1": lambda p: sq.wedge1(xi, sq.QTensor.differential(G, b)).at(p),
        "wedge1_map": lambda p: sq.wedge1_map(X).at(p),
        "nabla_Q-1": lambda p: sq.nabla_Q(xi).at(p),
        "nabla_Q-2": lambda p: sq.nabla_Q(X).at(p),
        "q_map": lambda p: sq.q_map(gq).at(p),
        "q_map-inverse": lambda p: sq.q_map(Field(X.fn), G).at(p),
        "qlc_residual": lambda p: sq.qlc_residual(G).at(p),
    }


@pytest.mark.parametrize("geometry", ["flat1", "cpn1", "cpn2", "flat-torsion", "exp-plane"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(n=st.sampled_from(BATCHES), order=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_kernel_routes_batch_is_stacked(geometry, n, order, seed):
    G = _geometry(geometry).at_order(order)
    pts = tuple(tuple(p) for p in G.sample_points(n, seed))
    for name, route in _routes(G, np.random.default_rng(seed)).items():
        try:
            whole = route(pts)
        except SemiqError as exc:      # too shallow a jet order for this route
            for p in pts:
                with pytest.raises(type(exc)):
                    route(p)
            continue
        assert_stacked(whole, [route(p) for p in pts])


def _evolution_routes(G, rng):
    """Each evolution route as a function of a point or a batch of points."""
    a, H = Field(_poly(G, rng, ())), Field(_poly(G, rng, ()))
    xi = Field(_poly(G, rng, (G.dim,)))
    return {
        "evolve_scalar": lambda p: ev.evolve_scalar(a, H, G).at(p),
        "evolve_oneform": lambda p: ev.evolve_oneform(xi, H, G).at(p),
        "evolution_defect": lambda p: ev.evolution_defect(a, H, G).at(p),
    }, lambda p: ev.defect_two_route_residual(a, H, G, ev.evolve_scalar(a, H, G),
                                              ev.evolution_defect(a, H, G), p)


@pytest.mark.parametrize("geometry", ["flat1", "cpn1", "cpn2", "flat-torsion", "exp-plane"])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(n=st.sampled_from(BATCHES), order=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_evolution_routes_batch_is_stacked(geometry, n, order, seed):
    G = _geometry(geometry).at_order(order)
    pts = tuple(tuple(p) for p in G.sample_points(n, seed))
    routes, residual = _evolution_routes(G, np.random.default_rng(seed))
    for name, route in routes.items():
        try:
            whole = route(pts)
        except SemiqError as exc:      # too shallow a jet order for this route
            for p in pts:
                with pytest.raises(type(exc)):
                    route(p)
            continue
        assert_stacked(whole, [route(p) for p in pts])
    try:
        whole = residual(pts)
    except SemiqError:
        return
    assert whole == max(residual(p) for p in pts)


# -- the suites batch ------------------------------------------------------------------

def _count_jet_einsum(monkeypatch) -> list:
    """Rebind jet_einsum in every semiq module, as perfbench/tracer.py does;
    the returned list grows by one entry per call."""
    calls, orig = [], jet_einsum

    def counted(spec, a, b):
        calls.append(spec)
        return orig(spec, a, b)

    for name, mod in list(sys.modules.items()):
        if (name == "semiq" or name.startswith("semiq.")) and mod is not None:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("geometry, suite", [
    ("flat", "classical-compat"), ("flat", "metric"), ("flat", "dga"),
    ("cpn", "classical-compat"), ("cpn", "metric"), ("cpn", "qlc"),
    ("cpn", "cpn-catalogue"), ("cpn", "dga")])
def test_checks_are_evaluated_once_per_batch(geometry, suite, monkeypatch, capsys):
    # a fall-back to a loop over the points would multiply these counts
    calls = _count_jet_einsum(monkeypatch)

    def count(points):
        del calls[:]
        assert main(["check", geometry, "--n", "1", "--points", str(points),
                     "--suite", suite]) == 0
        return len(calls)

    one, five = count(1), count(5)
    capsys.readouterr()
    assert one > 0 and five == one, (one, five)


def test_sample_split_to_the_memory_budget(monkeypatch, capsys):
    argv = ["check", "cpn", "--n", "1", "--points", "5", "--seed", "3"]
    assert main(argv) == 0
    whole = capsys.readouterr().out
    # a budget below one point's working set: one point per batch
    monkeypatch.setattr(suites, "BATCH_BYTES", 1)
    assert suites.batch_size(make_cpn(1).at_order(suites.CHECK_ORDER)) == 1
    batches = []
    for name, fn in list(suites._SUITE_FNS.items()):
        monkeypatch.setitem(suites._SUITE_FNS, name,
                            lambda G, pts, rng, fn=fn: batches.append(len(pts)) or fn(G, pts, rng))
    assert main(argv) == 0
    assert capsys.readouterr().out == whole
    assert batches == [1] * 5 * len(make_cpn(1).suites)


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf),
                                 complex(np.nan, 1.0)])
@pytest.mark.parametrize("as_array", [True, False])
def test_fold_refuses_a_residual_out_of_range(slot, bad, as_array):
    residuals = [np.zeros((3, 2)), 0.0]
    residuals[slot] = np.array([[0.5, 1.0], [bad, 2.0]]) if as_array else bad
    worst = {"star-associator": [0.25, 0.5]}
    with pytest.raises(EvalError) as exc:
        suites._acc(worst, "star-associator", *residuals)
    assert str(exc.value) == \
        "the residual of check 'star-associator' is out of floating-point range"
    assert worst == {"star-associator": [0.25, 0.5]}


def test_fold_of_two_batches_is_the_fold_of_one():
    rng = np.random.default_rng(5)
    c = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    l = -np.abs(rng.normal(size=(6, 2)))
    one = {}
    suites._acc(one, "x", c, l)
    suites._acc(one, "zero", c, 0.0)
    assert one == {"x": [float(np.abs(c).max()), float(np.abs(l).max())],
                   "zero": [float(np.abs(c).max()), 0.0]}
    for k in range(1, 6):
        two = {}
        for part in (slice(None, k), slice(k, None)):
            suites._acc(two, "x", c[part], l[part])
            suites._acc(two, "zero", c[part], 0.0)
        assert two == one, k
        assert all(type(v) is float for rec in two.values() for v in rec)


@pytest.mark.parametrize("geometry, n, suite, per_batch, points", [
    ("cpn", 2, "metric", 3, 12),     # the most live arrays per point at dim 4
    ("cpn", 1, "metric", 16, 64),    # the most at dim 2
    ("flat", 1, "dga", 16, 64),      # drawn fields and their jets per point
])
def test_batch_working_set_within_budget(geometry, n, suite, per_batch, points,
                                         monkeypatch):
    # a budget of ``per_batch`` points' working sets
    G0 = build_geometry(geometry, n).at_order(suites.CHECK_ORDER)
    budget = per_batch * suites.LIVE_ARRAYS * 16 * G0.dim ** (5 + G0.order)

    def peak(batch_bytes):
        monkeypatch.setattr(suites, "BATCH_BYTES", batch_bytes)
        G = build_geometry(geometry, n)
        tracemalloc.start()
        try:
            run_suite(suite, G, points=points, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(1)           # one point per batch
    monkeypatch.setattr(suites, "BATCH_BYTES", budget)
    assert suites.batch_size(G0) == per_batch
    assert peak(budget) <= one + budget


@pytest.mark.parametrize("geometry, suite", [
    ("flat", "dga"), ("flat", "evolution"), ("cpn", "dga"), ("cpn", "evolution")])
def test_drawn_field_checks_are_evaluated_once_per_batch(geometry, suite, monkeypatch,
                                                         capsys):
    # the fields each point draws are evaluated with the checks, once per
    # batch, so every call counts: as many at five points as at one
    calls = _count_jet_einsum(monkeypatch)

    def count(points):
        del calls[:]
        assert main(["check", geometry, "--n", "1", "--points", str(points),
                     "--suite", suite]) == 0
        return len(calls)

    one, five = count(1), count(5)
    capsys.readouterr()
    assert one > 0 and five == one, (one, five)


def _frames_built(monkeypatch) -> list:
    """(whether a batch, order) of each PointFrame built from now on."""
    built, init = [], geo.PointFrame.__init__

    def counted(self, G, point):
        built.append((is_batch(point), G.order))
        init(self, G, point)

    monkeypatch.setattr(geo.PointFrame, "__init__", counted)
    return built


def test_frames_die_with_their_batch(monkeypatch, capsys):
    # one point per batch; the geometry is kept, so only its cache can keep
    # a frame alive once the run ends
    monkeypatch.setattr(suites, "BATCH_BYTES", 1)
    kept, build = [], build_geometry
    monkeypatch.setattr(cli, "build_geometry", lambda *a: kept.append(build(*a)) or kept[-1])
    frames, init = [], geo.PointFrame.__init__

    def counted(self, G, point):
        frames.append(weakref.ref(self))
        init(self, G, point)

    monkeypatch.setattr(geo.PointFrame, "__init__", counted)
    calls = []          # (the batch's first point, suite) per suite call
    for name, fn in list(suites._SUITE_FNS.items()):
        monkeypatch.setitem(suites._SUITE_FNS, name, lambda G, pts, rng, name=name, fn=fn:
                            calls.append((pts[0], name)) or fn(G, pts, rng))
    assert main(["check", "cpn", "--n", "1", "--points", "5"]) == 0
    capsys.readouterr()
    gc.collect()
    alive = Counter(ref().order for ref in frames if ref() is not None)
    assert len(frames) == 5 and alive == {2: 1}, (len(frames), alive)
    # every suite takes a batch before the next batch
    firsts = list(dict.fromkeys(p for p, _ in calls))
    assert len(firsts) == 5
    assert calls == [(p, s) for p in firsts for s in kept[0].suites], calls


@pytest.mark.parametrize("argv, orders", [
    (["flat", "--n", "1"], [2]),
    (["cpn", "--n", "1"], [2]),
    (["cpn", "--n", "2"], [2]),
    # the config's probe frame (order 0), then the suites' frame; a
    # Levi-Civita connection reads g one order deeper, so order 3 as well
    ([str(ROOT / "perfbench" / "exp_plane.json")], [0, 2, 3]),
])
def test_check_builds_only_batch_frames(argv, orders, monkeypatch, capsys):
    built = _frames_built(monkeypatch)
    main(["check", *argv, "--points", "5"])
    capsys.readouterr()
    assert built == [(True, k) for k in orders], built


def test_config_probes_name_the_first_failing_probe(monkeypatch):
    # the probes are (1.26221, 1.36395), (1.36395, -1.1352), (0.21168, -0.419123)
    cfg = {"dim": 2, "metric": [["1", "x1-x2"], ["x2-x1", "1"]],
           "poisson": [["0", "1"], ["-1", "0"]]}
    built = _frames_built(monkeypatch)
    with pytest.raises(ConfigError, match=r"'metric' must be symmetric: .* at \(1\.26221, 1\.36395\)"):
        geometry_from_config(cfg)
    assert built == [(True, 0)]         # one frame holds the three probes
    # symmetric where x2 > 0, at the first probe only
    cfg["metric"] = [["1", "sqrt(x2^2)"], ["x2", "1"]]
    with pytest.raises(ConfigError, match=r"'metric' must be symmetric: .* at \(1\.36395, -1\.1352\)"):
        geometry_from_config(cfg)


def test_config_probe_errors_print_python_floats():
    # the first probe, where x1*1e200*1e200 overflows, as the sample points print
    cfg = {"dim": 2, "metric": [["x1*1e200*1e200", "0"], ["0", "1"]],
           "poisson": [["0", "1"], ["-1", "0"]]}
    with pytest.raises(SemiqError) as info:
        geometry_from_config(cfg)
    msg = str(info.value)
    assert "not finite at (1.2622064772118446, 1.3639461" in msg and "np." not in msg, msg
