"""The first-order slot of a kernel product is computed on its first read.

A classical read leaves it unbuilt, a second read computes nothing, and a
slot read late has the bytes of one read at once. Refusals come when the
product is built, and an unread slot keeps no reference cycle. Work is
counted in jet_einsum calls, rebound in every semiq module.
"""

import gc
import json

import numpy as np
import pytest

from oracles import random_oneform
from test_batch import _count_jet_einsum
from test_kernel_digest import EXP_PLANE, _kernel_values
from semiq.errors import JetDomainError
from semiq.geometries import make_cpn, make_flat, make_flat_torsion
from semiq.geometry import Field, geometry_from_config
from semiq.lambda_core import LJet
from semiq import semiquant as sq

POINTS = ((0.3, -0.2), (-0.7, 0.45), (1.1, 0.05))


def _fields(G):
    """A function a and the exact one-forms xi = da and eta = db on G's
    chart, each evaluated wherever it is read, at a point or over a batch."""
    a = Field.from_expr(G.dim, "x1^2*x2 + 3*x1 - x2^3")
    b = Field.from_expr(G.dim, "x1*x2^2 - 2*x2 + x1^3")
    return a, sq.QTensor.differential(G, a), sq.QTensor.differential(G, b)


# each reads its result's classical slot alone in the dga suite
ROUTES = {
    "wedge1": lambda a, xi, eta: sq.wedge1(xi, eta),
    "sigma_Q": lambda a, xi, eta: sq.sigma_Q(a, xi),
}


def _levels(v: LJet) -> list:
    return [(l.shape, l.tobytes()) for j in (v.c, v.l) for l in j.levels]


@pytest.mark.parametrize("route", ROUTES)
def test_classical_read_builds_no_lam(route, monkeypatch):
    calls = _count_jet_einsum(monkeypatch)
    v = ROUTES[route](*_fields(make_cpn(1))).at(POINTS[0])
    v.c.val
    built = len(calls)
    assert v.graded and len(calls) == built
    l = v.l
    read = len(calls)
    assert read > built, (built, read)
    assert v.l is l and len(calls) == read        # a second read computes nothing


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("route", ROUTES)
def test_deferred_lam_has_the_bytes_of_one_read_at_once(route, batched):
    pt = POINTS[:2] if batched else POINTS[0]
    elsewhere = POINTS[1:] if batched else POINTS[2]
    now = ROUTES[route](*_fields(make_cpn(1))).at(pt)
    now.l
    T = ROUTES[route](*_fields(make_cpn(1)))
    late = T.at(pt)
    list(late.c.levels)
    T.at(elsewhere).l       # the frame cache and every field memo move on
    assert _levels(late) == _levels(now)


def test_order_one_nabla_Q_refuses_when_built():
    G = make_cpn(1).at_order(1)
    xi = random_oneform(G, np.random.default_rng(3))
    with pytest.raises(JetDomainError):
        sq.nabla_Q(xi).at(POINTS[0])


def test_no_kernel_route_refuses_on_a_later_lam_read():
    with open(EXP_PLANE) as fh:
        plane = geometry_from_config(json.load(fh))
    refused = read = 0
    for base in (make_cpn(1), make_cpn(2), make_flat(1), make_flat_torsion(), plane):
        for order in (1, 2, 3):
            G = base.at_order(order)
            for pt in G.sample_points(2, 7):
                for thunk in _kernel_values(G, tuple(pt)):
                    try:
                        v = thunk()
                    except JetDomainError:
                        refused += 1
                        continue
                    if isinstance(v, LJet):
                        v.l
                        read += 1
    assert refused and read, (refused, read)


@pytest.mark.parametrize("read", [False, True])
def test_deferred_lam_is_freed_by_reference_counting(read):
    # no first-order slot refers to the LJet that holds it, read or not:
    # with the cycle collector off, every result is freed with its last
    # reference; the geometry, whose frames refer back to it, is kept
    G = make_cpn(1)
    gc.collect()
    gc.disable()
    try:
        a, xi, eta = _fields(G)
        b = Field.from_expr(G.dim, "x1 - x2^2")
        pt = POINTS[0]
        x, y = xi.at(pt), eta.at(pt)
        out = [x + y, x - y, x.scale(2j), sq.star_product(a, b, G).at(pt),
               sq.module_action(a, xi).at(pt), sq.wedge1(xi, eta).at(pt),
               sq.nabla_Q(xi).at(pt)]
        assert all(v.graded for v in out)
        if read:
            for v in out:
                v.l
        del a, b, xi, eta, x, y, out
        assert gc.collect() == 0
    finally:
        gc.enable()
