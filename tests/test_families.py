"""Families through the quantisation kernel.

Axes of a tensor's jets before its rank slots form a family, carried member
by member. For every product, the wedge and rank-1 nabla_Q, each member of
a family result must equal, byte for byte, the same operation on that
member alone: a family is a batch of separate evaluations, never a
contraction across members.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from semiq.errors import SemiqError
from semiq.geometries import _q_factor, cpn_at, make_cpn
from semiq.geometry import Field
from semiq.lambda_core import Jet, LJet, jet_einsum
from semiq.semiquant import QTensor, module_action, nabla_Q, otimes1, star_product, wedge1


@lru_cache(maxsize=None)
def _geometry(n: int, order: int):
    # cached, so the frames of its few sample points are built once
    return make_cpn(n).at_order(order)


def _poly_family(G, rng, shape):
    """Provider of a lam-graded family of polynomial components of ``shape``:
    quadratic in the chart coordinates, and cubic in the lam slot."""
    d = G.dim
    lin, quad = rng.normal(size=shape + (d,)), rng.normal(size=shape + (d, d))
    cub = rng.normal(size=shape + (d, d, d))
    free = "IJ"[: len(shape)]            # the family axis, then a form slot

    def fn(pt):
        x = Jet.coords(d, pt, G.order)
        xx = jet_einsum("u,v->uv", x, x)
        c = (jet_einsum(f"{free}u,u->{free}", lin, x)
             + jet_einsum(f"{free}uv,uv->{free}", quad, xx))
        l = jet_einsum(f"{free}uvw,uvw->{free}", cub, jet_einsum("uv,w->uvw", xx, x))
        return LJet(c, l)

    return fn


def _member(fn, k: int):
    """The provider of member k of the family that ``fn`` provides."""
    def one(pt):
        v = fn(pt)
        return LJet(v.c.take_index(k), v.l.take_index(k) if v.graded else None)
    return one


class _Family:
    """A family of k functions (rank 0) or one-forms (rank 1, collected to
    normal form), and each of its members built the same way."""

    def __init__(self, G, rng, k: int, rank: int):
        self.k = k
        comps = _poly_family(G, rng, (k,) + (G.dim,) * rank)
        make = Field if rank == 0 else (lambda fn: QTensor.from_oneform(G, fn))
        self.whole = make(comps)
        self.members = [make(_member(comps, i)) for i in range(k)]


def _outcome(thunk):
    try:
        return thunk()
    except SemiqError as exc:
        return type(exc)


def _assert_members(family, index_of, member):
    """Each member of ``family()`` equals ``member(*cell)`` at its index."""
    whole = _outcome(family)
    for cell, idx in index_of:
        one = _outcome(lambda: member(*cell))
        if isinstance(whole, type) or isinstance(one, type):
            assert whole == one, (cell, whole, one)
            continue
        for a, b in ((whole.c, one.c), (whole.lam(), one.lam())):
            assert len(a.levels) == len(b.levels)
            for la, lb in zip(a.levels, b.levels):
                part = la[idx]
                assert part.shape == lb.shape and part.tobytes() == lb.tobytes(), cell


def _pairs(k1: int, k2: int, swap: bool = False):
    """(member cell, family index) of a two-family product, the index
    [j, i] when the second family's axis comes first."""
    return [((i, j), (j, i) if swap else (i, j)) for i in range(k1) for j in range(k2)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), order=st.integers(1, 3), k1=st.integers(1, 3),
       k2=st.integers(1, 3), which=st.integers(0, 2), seed=st.integers(0, 2 ** 16))
def test_family_members_equal_lone_members(n, order, k1, k2, which, seed):
    G = _geometry(n, order)
    pt = tuple(G.sample_points(3, 5)[which])
    rng = np.random.default_rng(seed)
    a, b = _Family(G, rng, k1, 0), _Family(G, rng, k2, 0)
    xi, eta = _Family(G, rng, k1, 1), _Family(G, rng, k2, 1)
    lone = _Family(G, rng, 1, 1).members[0]
    q = _q_factor(cpn_at(G, pt))

    def star(u, v):
        return star_product(u, v, G)

    # fn . fn, fn . form, form . fn, form (x)1 form and the wedge of two families
    for op, u, v in ((star, a, b), (module_action, a, eta), (module_action, xi, b),
                     (otimes1, xi, eta), (wedge1, xi, eta)):
        _assert_members(lambda: op(u.whole, v.whole).at(pt), _pairs(u.k, v.k),
                        lambda i, j: op(u.members[i], v.members[j]).at(pt))
    # b_j . a_i comes out [j, i]; q . (a_i . b_j) keeps [i, j]
    _assert_members(lambda: module_action(eta.whole, a.whole).at(pt), _pairs(a.k, eta.k, True),
                    lambda i, j: module_action(eta.members[j], a.members[i]).at(pt))
    _assert_members(lambda: star(q, star(a.whole, b.whole)).at(pt), _pairs(a.k, b.k),
                    lambda i, j: star(q, star(a.members[i], b.members[j])).at(pt))
    _assert_members(lambda: module_action(q, module_action(a.whole, eta.whole)).at(pt),
                    _pairs(a.k, eta.k),
                    lambda i, j: module_action(q, module_action(a.members[i],
                                                                eta.members[j])).at(pt))
    # a family against a single form, on either side, and rank-1 nabla_Q
    singles = [(i,) for i in range(xi.k)]
    _assert_members(lambda: wedge1(xi.whole, lone).at(pt), [(c, c) for c in singles],
                    lambda i: wedge1(xi.members[i], lone).at(pt))
    _assert_members(lambda: wedge1(lone, xi.whole).at(pt), [(c, c) for c in singles],
                    lambda i: wedge1(lone, xi.members[i]).at(pt))
    _assert_members(lambda: nabla_Q(xi.whole).at(pt), [(c, c) for c in singles],
                    lambda i: nabla_Q(xi.members[i]).at(pt))
