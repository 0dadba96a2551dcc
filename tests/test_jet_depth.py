"""Jet depth: truncation is exact, and each entry point's order is the least
that reproduces its full-depth output.

Level k of every jet operation reads only levels <= k of its operands, so
an operation on jets truncated to order k equals the full-order result
truncated to k, bit for bit. The suites and commands build their jets to
the order they read (``suites.SUITE_ORDERS``, ``cli.EVAL_ORDERS``); the
order-table tests pin those numbers from both sides.
"""

import json
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiq import cli, suites
from semiq.cli import build_geometry, main, make_parser
from semiq.errors import JetDomainError
from semiq.geometries import make_cpn, make_flat, make_flat_torsion
from semiq.lambda_core import Jet, jet_apply, jet_einsum

ROOT = Path(__file__).resolve().parent.parent


# -- truncation property ------------------------------------------------------

def random_jet(rng, dim, shape, order=3, value=None):
    """Jet with random complex levels, symmetric in the derivative axes."""
    levels = []
    for k in range(order + 1):
        a = rng.normal(size=shape + (dim,) * k) + 1j * rng.normal(size=shape + (dim,) * k)
        if k > 1:
            n = len(shape)
            a = sum(np.transpose(a, tuple(range(n)) + tuple(n + p for p in perm))
                    for perm in permutations(range(k))) / len(list(permutations(range(k))))
        levels.append(a)
    if value is not None:
        levels[0] = np.asarray(value, dtype=np.complex128)
    return Jet(dim, levels)


def trunc(j: Jet, k: int) -> Jet:
    return Jet(j.dim, j.levels[: k + 1])


def same_bits(x: Jet, y: Jet) -> bool:
    return (x.order == y.order and len(x.levels) == len(y.levels)
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(x.levels, y.levels)))


def assert_truncates(op, operands, cost=0):
    """op on operands truncated to k equals op at order 3 truncated to k - cost."""
    full = op(*operands)
    for k in range(cost, 4):
        low = op(*(trunc(o, k) if isinstance(o, Jet) else o for o in operands))
        assert low.order == k - cost
        assert same_bits(low, trunc(full, k - cost)), k


EINSUM_SPECS = (",->", "i,i->", "i,j->ij", "ij,jk->ik", "ijk,k->ij", ",ab->ab", "ab,->ab")

case = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(1, 4)


def operand_shapes(spec, d):
    ins = spec.split("->")[0].split(",")
    return [(d,) * len(s) for s in ins]


@case
@given(seed=seeds, dim=dims, spec=st.sampled_from(EINSUM_SPECS))
def test_jet_einsum_truncates(seed, dim, spec):
    rng = np.random.default_rng(seed)
    sa, sb = operand_shapes(spec, dim)
    a, b = random_jet(rng, dim, sa), random_jet(rng, dim, sb)
    op = lambda x, y: jet_einsum(spec, x, y)
    assert_truncates(op, (a, b))
    const = rng.normal(size=sb) + 1j * rng.normal(size=sb)
    assert_truncates(op, (a, const))
    assert_truncates(op, (rng.normal(size=sa) + 0j, b))
    # a jet's order is its level count, from every constructor
    pt = rng.normal(size=dim)
    for k in range(4):
        for j in (Jet.zeros(dim, sa, k), Jet.const(dim, const, k), Jet.coords(dim, pt, k),
                  Jet.coordinate(dim, pt, dim - 1, k), op(trunc(a, k), const)):
            assert len(j.levels) == j.order + 1 == k + 1


@case
@given(seed=seeds, dim=dims, rank=st.integers(0, 2))
def test_linear_and_structural_ops_truncate(seed, dim, rank):
    rng = np.random.default_rng(seed)
    shape = (dim,) * rank
    a, b = random_jet(rng, dim, shape), random_jet(rng, dim, shape)
    c = complex(rng.normal(), rng.normal())
    assert_truncates(lambda x, y: x + y, (a, b))
    assert_truncates(lambda x, y: x - y, (a, b))
    assert_truncates(lambda x: x.scale(c), (a,))
    assert_truncates(lambda x: x.conj(), (a,))
    assert_truncates(lambda x: x.grad(), (a,), cost=1)
    if rank:
        spec = "ab->ba" if rank == 2 else "a->a"
        assert_truncates(lambda x: x.reorder(spec), (a,))
        i = int(rng.integers(dim))
        assert_truncates(lambda x: x.take_index(i, axis=rank - 1), (a,))


@case
@given(seed=seeds, dim=dims, name=st.sampled_from(("exp", "ln", "sqrt", "sin", "cos")))
def test_univariate_functions_truncate(seed, dim, name):
    rng = np.random.default_rng(seed)
    u = random_jet(rng, dim, (), value=1.5 + 0.5 * complex(rng.normal(), rng.normal()))
    assert_truncates(lambda x: jet_apply(name, x), (u,))


@case
@given(seed=seeds, dim=dims, power=st.sampled_from((2, 3, -1, -2, 0.5, 1.5, -0.5)))
def test_reciprocal_and_powers_truncate(seed, dim, power):
    rng = np.random.default_rng(seed)
    u = random_jet(rng, dim, (), value=1.5 + 0.5 * complex(rng.normal(), rng.normal()))
    assert_truncates(lambda x: x.reciprocal(), (u,))
    assert_truncates(lambda x: x ** power, (u,))


@case
@given(seed=seeds, dim=dims)
def test_matinv_truncates(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_jet(rng, dim, (dim, dim))
    m = Jet(dim, [np.eye(dim) + 0.1 * m.levels[0]] + list(m.levels[1:]))
    assert_truncates(lambda x: x.matinv(), (m,))


def test_grad_at_order_zero_raises():
    j = Jet.const(2, np.ones(2), 0)
    with pytest.raises(JetDomainError):
        j.grad()


# -- the order tables ------------------------------------------------------------

GEOMETRIES = {
    "cpn1": lambda: make_cpn(1),
    "cpn2": lambda: make_cpn(2),
    "flat1": lambda: make_flat(1),
    "flat-torsion": make_flat_torsion,
    "exp-plane": lambda: build_geometry(str(ROOT / "perfbench" / "exp_plane.json")),
}


def suite_report(suite, G, order, monkeypatch):
    monkeypatch.setitem(suites.SUITE_ORDERS, suite, order)
    return suites.emit_report(suites.run_suite(suite, G, points=2, seed=1))


@pytest.mark.parametrize("suite", suites.SUITES)
def test_suite_order_is_sufficient_and_tight(suite, monkeypatch):
    stated = suites.SUITE_ORDERS[suite]
    ran, starved = 0, 0
    for make in GEOMETRIES.values():
        G = make()
        if suite == "cpn-catalogue" and suite not in G.suites:
            continue
        full = suite_report(suite, G, 3, monkeypatch)
        assert suite_report(suite, G, stated, monkeypatch) == full
        ran += 1
        try:
            suite_report(suite, G, stated - 1, monkeypatch)
        except JetDomainError:
            starved += 1
    assert ran and starved, (ran, starved)


EVAL_ARGS = {
    "star": ["--a", "x1^2*x2", "--b", "exp(x2)*x1"],
    "commutator": ["--a", "x1^2*x2", "--b", "exp(x2)*x1"],
    "wedge": ["--a", "x1^2*x2", "--b", "x2^3+x1"],
    "nablaQ": ["--a", "x1^2*x2^2+x1^3"],
}


def command(op, geometry):
    geo = ["--geometry", geometry, "--n", "1", "--at", "0.3,-0.2"]
    if op == "evolve":
        return ["evolve", *geo, "--H", "x2^2/2+x1^2*x2", "--a", "x1^2+x2"]
    return ["eval", op, *geo, *EVAL_ARGS[op]]


@pytest.mark.parametrize("op", sorted(cli.EVAL_ORDERS))
def test_command_order_is_sufficient_and_tight(op, monkeypatch, capsys):
    # (frame order, field order): each is checked on its own with the other
    # at full depth, then both together
    frame, field = cli.EVAL_ORDERS[op]
    for geometry in ("cpn", "flat"):
        argv = command(op, geometry)

        def output(orders):
            monkeypatch.setitem(cli.EVAL_ORDERS, op, orders)
            assert main(argv) == 0
            return capsys.readouterr().out

        def starves(orders):
            monkeypatch.setitem(cli.EVAL_ORDERS, op, orders)
            args = make_parser().parse_args(argv)
            with pytest.raises(JetDomainError):
                args.fn(args)
            capsys.readouterr()

        full = output((3, 3))
        assert full and output((frame, field)) == full
        assert output((frame, 3)) == full and output((3, field)) == full
        starves((3, field - 1))
        if frame:           # a frame of order 0 cannot be built shallower
            starves((frame - 1, 3))
        starves((max(frame - 1, 0), field - 1))


def test_check_builds_no_third_order_jets(monkeypatch, capsys):
    # every check suite reads at most second derivatives; a jet built to
    # third order anywhere on the check path shows up in this bucket
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    t = tracer.Tracer()
    try:
        t.install()
        assert main(["check", "cpn", "--n", "2", "--points", "1"]) == 0
    finally:
        t.uninstall()
    assert json.loads(capsys.readouterr().out)
    assert t.calls["lambda_core.jet_einsum.order2"] > 0
    assert t.calls["lambda_core.jet_einsum.order3"] == 0
