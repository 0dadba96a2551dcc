import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from semiq import lambda_core
from semiq.errors import JetDomainError, SingularScalarError
from semiq.lambda_core import Jet, jet_apply, jet_einsum


def fd4(fn, pt, k, h=1e-3):
    """Fourth-order central finite difference of fn along coordinate k."""
    pt = np.asarray(pt, dtype=float)
    def at(s):
        q = pt.copy()
        q[k] += s
        return fn(q)
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


class TestJet:
    def test_square_polynomial(self):
        j = Jet.coordinate(1, [3.0], 0) ** 2
        assert j.value == 9
        assert j.d1[0] == 6
        assert j.levels[2][0, 0] == 2
        assert j.levels[3][0, 0, 0] == 0

    def test_sin_third_derivative_at_zero(self):
        j = jet_apply("sin", Jet.coordinate(1, [0.0], 0))
        assert j.levels[3][0, 0, 0] == pytest.approx(-1.0)

    def test_product_rule_vs_finite_differences(self):
        # jet of the product expression vs the product rule on separate
        # jets: identical to machine precision, both certified against
        # numeric differentiation of the pointwise product
        pt = (1.0, 2.0)
        x = Jet.coordinate(2, pt, 0)
        y = Jet.coordinate(2, pt, 1)
        j = x * y
        from semiq.fieldexpr import eval_jet, parse
        j2 = eval_jet(parse("x1*x2", 2), pt)
        for a, b in zip(j.levels, j2.levels):
            assert np.max(np.abs(a - b)) < 1e-14

        def val(q):
            return q[0] * q[1]

        for k in range(2):
            assert abs(j.d1[k] - fd4(val, pt, k)) < 1e-8

    def test_random_polynomial_jets_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        d = 2
        for _ in range(20):
            coef = rng.normal(size=(3, 3))

            def jet_at(q):
                x = Jet.coordinate(d, q, 0)
                y = Jet.coordinate(d, q, 1)
                total = Jet.const(d, 0.0)
                for i in range(3):
                    for j in range(3):
                        total = total + (x ** i) * (y ** j) * coef[i, j]
                return total

            pt = rng.uniform(-1, 1, size=2)
            j = jet_at(pt)
            for k in range(d):
                # each stored derivative level against differences of the one below
                ref1 = fd4(lambda q: complex(jet_at(q).value), pt, k)
                assert abs(j.d1[k] - ref1) <= 1e-8 * max(1.0, abs(ref1))
                for m in range(d):
                    ref2 = fd4(lambda q: jet_at(q).d1[m], pt, k)
                    assert abs(j.levels[2][m, k] - ref2) <= 1e-8 * max(1.0, abs(ref2))
                    for n in range(d):
                        ref3 = fd4(lambda q: jet_at(q).levels[2][m, n], pt, k)
                        assert abs(j.levels[3][m, n, k] - ref3) <= 1e-7 * max(1.0, abs(ref3))

    def test_derivative_symmetry_after_arithmetic(self):
        rng = np.random.default_rng(3)
        pt = rng.uniform(-1, 1, size=3)
        x, y, z = (Jet.coordinate(3, pt, k) for k in range(3))
        j = jet_apply("exp", x * y) * (z ** 3 + x) / (2 + y * y)
        for perm in ((1, 0), ):
            assert np.allclose(j.levels[2], np.transpose(j.levels[2], perm), atol=1e-14)
        d3 = j.levels[3]
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.allclose(d3, np.transpose(d3, perm), atol=1e-13)

    def test_commutative(self):
        rng = np.random.default_rng(5)
        pt = rng.uniform(-1, 1, size=2)
        a = jet_apply("cos", Jet.coordinate(2, pt, 0)) + Jet.coordinate(2, pt, 1)
        b = Jet.coordinate(2, pt, 0) * Jet.coordinate(2, pt, 1)
        ab, ba = a * b, b * a
        for la, lb in zip(ab.levels, ba.levels):
            assert np.allclose(la, lb, rtol=1e-14, atol=1e-15)

    def test_compose_univariate_chain(self):
        pt = (0.4,)
        u = Jet.coordinate(1, pt, 0)
        j = jet_apply("exp", u * u)
        v = 0.4 ** 2
        assert j.value == pytest.approx(np.exp(v))
        assert j.d1[0] == pytest.approx(2 * 0.4 * np.exp(v))
        assert j.levels[2][0, 0] == pytest.approx((2 + 4 * v) * np.exp(v))

    def test_ln_domain_error(self):
        with pytest.raises(JetDomainError):
            jet_apply("ln", Jet.coordinate(1, [-1.0], 0))
        with pytest.raises(JetDomainError):
            jet_apply("sqrt", Jet.coordinate(1, [0.0], 0))

    def test_division_by_zero_jet(self):
        with pytest.raises(SingularScalarError):
            Jet.const(1, 1.0) / Jet.coordinate(1, [0.0], 0)

    def test_matrix_inverse_jets(self):
        rng = np.random.default_rng(11)
        pt = rng.uniform(-0.5, 0.5, size=2)
        x = Jet.coordinate(2, pt, 0)
        y = Jet.coordinate(2, pt, 1)
        one = Jet.const(2, 1.0)
        base = np.zeros((2, 2)); base[0, 0] = 1.0
        off = np.zeros((2, 2)); off[0, 1] = off[1, 0] = 1.0
        low = np.zeros((2, 2)); low[1, 1] = 1.0
        A = jet_einsum(",ab->ab", one + x * x, base) + \
            jet_einsum(",ab->ab", x * y, off) + \
            jet_einsum(",ab->ab", Jet.const(2, 2.0) + y, low)
        ident = jet_einsum("am,mb->ab", A, A.matinv())
        assert np.max(np.abs(ident.levels[0] - np.eye(2))) < 1e-14
        for lvl in ident.levels[1:]:
            assert np.max(np.abs(lvl)) < 1e-13

    def test_grad_costs_one_order(self):
        j = Jet.coordinate(2, (0.1, 0.2), 0)
        assert j.grad().order == 2
        with pytest.raises(JetDomainError):
            j.grad().grad().grad().grad()


class TestIntegerPower:
    def test_small_powers_are_the_left_to_right_product(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pt = rng.uniform(-1, 1, size=2)
            for order in range(4):
                x, y = Jet.coordinate(2, pt, 0, order), Jet.coordinate(2, pt, 1, order)
                j = jet_apply("cos", x * y) + complex(*rng.normal(size=2)) * y
                for k, want in ((1, j), (2, j * j), (3, (j * j) * j)):
                    got = j ** k
                    assert got.order == want.order
                    assert all(a.tobytes() == b.tobytes()
                               for a, b in zip(got.levels, want.levels))

    def test_large_power_by_squaring(self, monkeypatch):
        import semiq.lambda_core as lc
        calls = []

        def counted(spec, a, b):
            calls.append(spec)
            return orig(spec, a, b)

        orig = lc.jet_einsum
        monkeypatch.setattr(lc, "jet_einsum", counted)
        v, k = 1 - 1e-6, 10 ** 6
        j = Jet.coordinate(1, [v], 0) ** k
        assert len(calls) <= 40
        assert j.value == pytest.approx(v ** k, rel=1e-9)
        assert j.d1[0] == pytest.approx(k * v ** (k - 1), rel=1e-9)
        assert j.levels[2][0, 0] == pytest.approx(k * (k - 1) * v ** (k - 2), rel=1e-9)


class TestFloatingPointRange:
    @pytest.mark.parametrize("fn, v", [("exp", 1000.0), ("sin", 1000j), ("sqrt", 1e-320),
                                       ("ln", 1e-200)])
    def test_overflow_is_a_domain_error(self, fn, v):
        # the error comes on the read of the first level whose derivative of
        # f overflows, f'' for sqrt and ln here; the levels below it read fine
        bad = {"sqrt": 2, "ln": 2}.get(fn, 0)

        def read():
            j = jet_apply(fn, Jet.const(1, v))
            for k in range(bad):
                assert np.isfinite(j.levels[k]).all(), k
            return j.levels[bad]
        with pytest.raises(JetDomainError, match="floating-point range"):
            read()

    def test_reciprocal_and_power(self):
        r = Jet.coordinate(1, [1e-200], 0).reciprocal()
        assert r.value == 1e200
        with pytest.raises(JetDomainError, match="floating-point range"):
            r.levels[1]
        with pytest.raises(JetDomainError, match="floating-point range"):
            Jet.coordinate(1, [1e300], 0) ** 2.5


# -- lazy levels --------------------------------------------------------------

LAZY_SPECS = (",->", "i,i->", "i,j->ij", "ij,jk->ik", "ijk,k->ij", ",ab->ab")
LEADS = st.sampled_from(((), (3,)))
EINSUMS_PER_LEVEL = {1: 2, 2: 3, 3: 4}      # the Leibniz terms of each level


def batched_jet(rng, dim, lead, shape, order):
    """A jet of random complex level arrays with batch axes ``lead``."""
    return Jet(dim, [rng.normal(size=lead + shape + (dim,) * k)
                     + 1j * rng.normal(size=lead + shape + (dim,) * k)
                     for k in range(order + 1)], len(lead))


def lazy_cases(seed, dim, orders, leads, spec):
    """(name, lazy result, eager levels) for every operation that defers its
    levels; each lazy result is built on fresh operands, never read before."""
    sa, sb = ((dim,) * len(s) for s in spec.split("->")[0].split(","))

    def operands():
        rng = np.random.default_rng(seed)
        a = batched_jet(rng, dim, leads[0], sa, orders[0])
        b = batched_jet(rng, dim, leads[1], sb, orders[1])
        a2 = batched_jet(rng, dim, leads[1], sa, orders[1])
        c = complex(rng.normal(), rng.normal())
        m = rng.normal(size=3) + 1j * rng.normal(size=3)
        return a, b, a2, c, m

    def levels(*jets):
        return [list(j.levels) for j in jets]

    r, ba = len(sa), len(leads[0])
    src = "abc"[:r]
    cases = [
        ("einsum", lambda a, b, a2, c, m: jet_einsum(spec, a, b),
         lambda a, b, a2, c, m: oracles.eager_einsum(spec, *levels(a, b))),
        ("add", lambda a, b, a2, c, m: a + a2,
         lambda a, b, a2, c, m: oracles.eager_add(*levels(a, a2))),
        ("sub", lambda a, b, a2, c, m: a - a2,
         lambda a, b, a2, c, m: oracles.eager_add(*levels(a), oracles.eager_neg(*levels(a2)))),
        ("neg", lambda a, b, a2, c, m: -a, lambda a, b, a2, c, m: oracles.eager_neg(*levels(a))),
        ("scale", lambda a, b, a2, c, m: a.scale(c),
         lambda a, b, a2, c, m: oracles.eager_scale(*levels(a), c, ba)),
        ("scale-members", lambda a, b, a2, c, m: a.scale(m),
         lambda a, b, a2, c, m: oracles.eager_scale(*levels(a), m, ba)),
        ("conj", lambda a, b, a2, c, m: a.conj(),
         lambda a, b, a2, c, m: oracles.eager_conj(*levels(a))),
    ]
    if r:
        cases += [
            ("reorder", lambda a, b, a2, c, m: a.reorder(f"{src}->{src[::-1]}"),
             lambda a, b, a2, c, m: oracles.eager_reorder(*levels(a), f"{src}->{src[::-1]}", ba)),
            ("take_index", lambda a, b, a2, c, m: a.take_index(dim - 1, r - 1),
             lambda a, b, a2, c, m: oracles.eager_take_index(*levels(a), dim - 1, r - 1, ba)),
        ]
    for name, lazy, eager in cases:
        yield name, lazy(*operands()), eager(*operands())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4),
       orders=st.tuples(st.integers(0, 3), st.integers(0, 3)), leads=st.tuples(LEADS, LEADS),
       spec=st.sampled_from(LAZY_SPECS))
def test_lazy_levels_equal_eager(seed, dim, orders, leads, spec):
    with mock.patch.object(lambda_core, "einsum", wraps=lambda_core.einsum) as einsum, \
            mock.patch.object(lambda_core, "evaluate_level",
                              wraps=lambda_core.evaluate_level) as evaluate:
        for name, j, want in lazy_cases(seed, dim, orders, leads, spec):
            assert len(j.levels) == j.order + 1 == len(want), name
            for k, w in enumerate(want):
                e0, v0 = einsum.call_count, evaluate.call_count
                got = j.levels[k]
                e1, v1 = einsum.call_count, evaluate.call_count
                # level 0 was computed with the jet; a higher one on its first read
                assert v1 - v0 == (k > 0), (name, k)
                if name == "einsum":
                    assert e1 - e0 == EINSUMS_PER_LEVEL.get(k, 0), k
                assert j.levels[k] is got
                assert (einsum.call_count, evaluate.call_count) == (e1, v1), (name, k)
                assert got.shape == w.shape and got.tobytes() == w.tobytes(), (name, k)
            assert all(x is y for x, y in zip(j.levels, [j.levels[k] for k in range(len(want))]))
        # a level read through grad() is the parent's: a first read runs at
        # most the grad's level function and the parent's, a second none
        for name, j, want in lazy_cases(seed, dim, orders, leads, spec):
            if j.order:
                g = j.grad()
                assert g.order == j.order - 1 and len(g.levels) == len(want) - 1
                for k in range(1, j.order + 1):
                    v0 = evaluate.call_count
                    assert g.levels[k - 1] is j.levels[k], (name, k)
                    assert evaluate.call_count - v0 <= 2, (name, k)
                    v1 = evaluate.call_count
                    assert g.levels[k - 1] is j.levels[k] and evaluate.call_count == v1, (name, k)
                    assert j.levels[k].tobytes() == want[k].tobytes()


@pytest.mark.parametrize("orders", [(0, 2), (2, 3)])
@pytest.mark.parametrize("leads", [((), ()), ((3,), ()), ((3,), (3,))])
@pytest.mark.parametrize("spec", LAZY_SPECS)
def test_operations_build_their_result_with_its_value(spec, leads, orders):
    # every jet holds its level 0 from the start: a complex128 array, also
    # where numpy returns a 0-d scalar (lone scalar results); building one
    # runs no level function, and an operation's runs only when a level
    # above 0 is read. The constructors' levels are all eager.
    ba, order = len(leads[0]), orders[1]
    u = batched_jet(np.random.default_rng(5), 2, leads[0], (), order)
    m = batched_jet(np.random.default_rng(6), 2, leads[0], (2, 2), order)
    m = Jet(2, [m.val + 3 * np.eye(2)] + list(m.levels[1:]), ba)
    point = np.full(leads[0] + (2,), 0.25)
    eager = ("Jet", "const", "affine", "coords", "coordinate")
    with mock.patch.object(lambda_core, "evaluate_level",
                           wraps=lambda_core.evaluate_level) as evaluate:
        cases = list(lazy_cases(5, 2, orders, leads, spec))
        cases += [("compose", u.compose(lambda_core.UNARY_FUNCS["exp"]), None),
                  ("matinv", m.matinv(), None),
                  ("Jet", batched_jet(np.random.default_rng(7), 2, leads[0], (), order), None),
                  ("const", Jet.const(2, u.levels[0], order, ba), None),
                  ("affine", Jet.affine(2, u.levels[0], u.levels[1], order, ba), None),
                  ("coords", Jet.coords(2, point, order), None),
                  ("coordinate", Jet.coordinate(2, point, 1, order), None),
                  ("grad", u.grad(), None)]
        assert cases[-1][1].val is u.levels[1]
        for name, j, want in cases:
            v = j.val
            assert v.__class__ is np.ndarray and v.dtype == np.complex128, name
            assert j.levels[0] is v and evaluate.call_count == 0, name
            if want is not None:
                assert v.tobytes() == want[0].tobytes(), name
            if j.order:
                assert j.levels[1] is j.levels[1], name
                assert evaluate.call_count == (name not in eager), name
            evaluate.reset_mock()
    assert any(j.val.ndim == 0 for _, j, _ in cases) == (not leads[0])    # compose's, at least


# signed zeros, subnormals, normals and infinities
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-310, 1.5, -3.0, np.inf, -np.inf)


def special_jet(pairs, side, lead, rotate, order=3, dim=2):
    """A jet of tensor shape (len(pairs),) whose entry p, at every level
    and every member, is pairs[p][side] + i pairs[p + rotate][side]."""
    p = np.array(pairs)[:, side]
    z = np.empty(p.shape, dtype=np.complex128)
    z.real, z.imag = p, np.roll(p, -rotate)
    levels = [np.broadcast_to(z.reshape(z.shape + (1,) * k), lead + z.shape + (dim,) * k).copy()
              for k in range(order + 1)]
    return Jet(dim, levels, len(lead))


@pytest.mark.parametrize("leads", [((), (2,)), ((2,), ()), ((2,), (2,)), ((), ())])
def test_sub_equals_add_of_negation_on_special_values(leads):
    # every pair of SPECIAL but inf - inf of one sign, which is a NaN;
    # real and imaginary parts each run through all of them
    pairs = [(x, y) for x in SPECIAL for y in SPECIAL
             if not (np.isinf(x) and x == y)]
    for rotate in (0, 7):
        a = special_jet(pairs, 0, leads[0], rotate)
        b = special_jet(pairs, 1, leads[1], rotate)
        want = oracles.eager_add(list(a.levels), oracles.eager_neg(list(b.levels)))
        got = a - b
        assert got.batch == max(len(l) for l in leads) and len(got.levels) == len(want)
        for k, w in enumerate(want):
            l = got.levels[k]
            assert not np.isnan(w).any()
            assert l.shape == w.shape and l.tobytes() == w.tobytes(), k


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4), order=st.integers(0, 3),
       lead=LEADS, fn=st.sampled_from((*lambda_core.UNARY_FUNCS, "reciprocal")))
def test_compose_and_matinv_equal_eager(seed, dim, order, lead, fn):
    rng = np.random.default_rng(seed)
    u = batched_jet(rng, dim, lead, (), order)
    members = int(np.prod(lead))
    table, calls = [], [0] * 4      # the function table compose is given; calls into each f^(k)
    compose = Jet.compose

    def counted(jet, fns):
        table[:] = fns

        def count(k, f):
            def fk(v):
                calls[k] += 1
                return f(v)
            return fk
        return compose(jet, [count(k, f) for k, f in enumerate(fns)])

    def make_compose():
        calls[:] = [0] * 4
        with mock.patch.object(Jet, "compose", autospec=True, side_effect=counted):
            return u.reciprocal() if fn == "reciprocal" else jet_apply(fn, u)

    m = batched_jet(rng, dim, lead, (dim, dim), order)
    m = Jet(dim, [m.val + 3 * np.eye(dim)] + list(m.levels[1:]), len(lead))
    make_compose()
    want = {"compose": oracles.eager_compose(list(u.levels), table, len(lead)),
            "matinv": oracles.eager_matinv(list(m.levels))}
    for top in range(order + 1):
        # level `top` read first, through grad(), then every level highest first
        for name, j in (("compose", make_compose()), ("matinv", m.matinv())):
            w = want[name]
            assert len(j.levels) == len(w) == order + 1, name
            g = j
            for _ in range(top):
                g = g.grad()
            assert g.val.tobytes() == w[top].tobytes(), (name, top)
            if name == "compose":
                # each f^(k) once per member up to the level read, none above it
                assert calls == [members] * (top + 1) + [0] * (3 - top), (top, calls)
            for k in reversed(range(order + 1)):
                l = j.levels[k]
                assert l.shape == w[k].shape and l.tobytes() == w[k].tobytes(), (name, k)
            if name == "compose":
                assert calls == [members] * (order + 1) + [0] * (3 - order), calls


@pytest.mark.parametrize("shape", [(2, 3, 4), (5, 2, 3, 4), (3, 1, 2, 2, 2)])
def test_last_three_axes_views_match_moveaxis(shape):
    x = np.arange(np.prod(shape), dtype=np.complex128).reshape(shape)
    for view, want in ((lambda_core._last3(x, (2, 0, 1)), np.moveaxis(x, -1, -3)),
                       (lambda_core._last3(x, (1, 2, 0)), np.moveaxis(x, -3, -1)),
                       (x.swapaxes(-1, -2), np.moveaxis(x, -1, -2)),
                       (x.swapaxes(-3, -2), np.moveaxis(x, -3, -2))):
        # the same memory, read with the same shape and strides
        assert (view.ctypes.data, view.shape, view.strides) == \
            (want.ctypes.data, want.shape, want.strides)
        assert np.shares_memory(view, x) and view.tobytes() == want.tobytes()


def test_grad_levels_are_the_parents_arrays():
    x = Jet.coordinate(2, (0.3, 0.7), 0)
    j = x * x
    with mock.patch.object(lambda_core, "evaluate_level",
                           wraps=lambda_core.evaluate_level) as evaluate:
        g = j.grad()
        assert g.val is j.levels[1] and g.shape == (2,) and evaluate.call_count == 1
        for k in range(g.order + 1):
            assert g.levels[k] is j.levels[k + 1], k
        assert g.grad().val is j.levels[2]
        # each level function ran once: j's three and g's two
        assert evaluate.call_count == 5
        for k in range(g.order + 1):
            assert g.levels[k] is j.levels[k + 1], k
        assert g.grad().val is j.levels[2] and evaluate.call_count == 5


@pytest.mark.parametrize("k", [np.int64(1), np.intp(0), -1, -4, 4, 1.0, True, None])
def test_levels_index_is_a_plain_int_in_range_or_a_slice(k):
    j = Jet.coordinate(2, (0.3, 0.7), 0) ** 2
    with pytest.raises(IndexError):
        j.levels[k]


def test_levels_slice_is_a_list_of_the_same_arrays():
    j = Jet.coordinate(2, (0.3, 0.7), 0) ** 2
    tail = j.levels[1:]
    assert tail.__class__ is list and len(tail) == 3
    assert all(l is j.levels[k] for k, l in enumerate(tail, 1))
    assert [id(l) for l in j.levels[::-1]] == [id(j.levels[k]) for k in (3, 2, 1, 0)]
    assert j.levels[5:] == []


@pytest.mark.parametrize("read", [False, True])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_jet_results_are_freed_by_reference_counting(lead, read):
    # no result refers to itself, read or not: with the cycle collector off,
    # every jet built here is freed when its last reference goes
    gc.collect()
    gc.disable()
    try:
        u = batched_jet(np.random.default_rng(8), 2, lead, (), 3)
        m = batched_jet(np.random.default_rng(9), 2, lead, (2, 2), 3)
        m = Jet(2, [m.val + 3 * np.eye(2)] + list(m.levels[1:]), len(lead))
        jets = [j for spec in LAZY_SPECS
                for _, j, _ in lazy_cases(8, 2, (3, 3), (lead, lead), spec)]
        jets += [u.compose(lambda_core.UNARY_FUNCS["sin"]), m.matinv()]
        jets += [g for j in jets for g in (j.grad(), j.grad().grad())]
        if read:
            for j in jets:
                list(j.levels)
        del u, m, jets
        assert gc.collect() == 0
    finally:
        gc.enable()
