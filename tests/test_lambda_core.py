import numpy as np
import pytest

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
                total = Jet.zeros(d)
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
    @pytest.mark.parametrize("fn, v", [("exp", 1000.0), ("sin", 1000j), ("sqrt", 1e308),
                                       ("ln", 1e-200)])
    def test_overflow_is_a_domain_error(self, fn, v):
        with pytest.raises(JetDomainError, match="floating-point range"):
            jet_apply(fn, Jet.const(1, v))

    def test_reciprocal_and_power(self):
        with pytest.raises(JetDomainError, match="floating-point range"):
            Jet.coordinate(1, [1e-200], 0).reciprocal()
        with pytest.raises(JetDomainError, match="floating-point range"):
            Jet.coordinate(1, [1e300], 0) ** 2.5
