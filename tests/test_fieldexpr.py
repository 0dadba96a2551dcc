import numpy as np
import pytest

from conftest import run_cli
from semiq.errors import EvalError, ParseError, UnknownSymbolError
from semiq.fieldexpr import Bin, Num, Un, Var, eval_jet, parse


# -- printer for the round-trip test ------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_num(v: complex) -> str:
    if v.imag == 0:
        return _fmt_real(v.real)
    if v.real == 0:
        if v.imag == 1:
            return "i"
        return _fmt_real(v.imag) + "i"
    # mixed literals never come out of the parser, print a safe compound
    return f"({_fmt_real(v.real)}+{_fmt_real(v.imag)}i)"


def to_text(e, parent_prec: int = 0) -> str:
    """Expression text that parses back to the same tree."""
    if isinstance(e, Num):
        return _fmt_num(e.val)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Un):
        if e.op == "neg":
            inner = to_text(e.arg, _PREC["neg"])
            s = "-" + inner
            return f"({s})" if parent_prec > _PREC["neg"] else s
        return f"{e.op}({to_text(e.arg)})"
    prec = _PREC[e.op]
    # left associative operators need a paren on an equal-precedence right child
    left = to_text(e.left, prec)
    right = to_text(e.right, prec + 1)
    s = f"{left}{e.op}{right}"
    return f"({s})" if parent_prec > prec else s


class TestParse:
    def test_direct_grammar(self):
        t = parse("z1*conj(z1)", 2)
        assert t == Bin("*", Var("z1"), Un("conj", Var("z1")))

    def test_precedence(self):
        t = parse("x1+x2*x1", 2)
        assert t == Bin("+", Var("x1"), Bin("*", Var("x2"), Var("x1")))

    def test_power_over_unary_minus(self):
        assert parse("-x1^2", 1) == Un("neg", Bin("^", Var("x1"), Num(2)))

    def test_left_associativity(self):
        t = parse("x1-x2-x1", 2)
        assert t == Bin("-", Bin("-", Var("x1"), Var("x2")), Var("x1"))
        t = parse("x1^2^3", 1)
        assert t == Bin("^", Bin("^", Var("x1"), Num(2)), Num(3))

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as err:
            parse("(1+", 1)
        assert err.value.pos == 3

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse("foo+1", 2)
        with pytest.raises(UnknownSymbolError):
            parse("x3", 2)
        with pytest.raises(UnknownSymbolError):
            parse("z2", 2)   # only z1 on a two-dimensional chart

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("   ", 1)

    def test_imaginary_literals(self):
        assert parse("3i", 1) == Num(3j)
        assert parse("i", 1) == Num(1j)
        assert parse("2+3i", 1) == Bin("+", Num(2), Num(3j))

    def test_roundtrip_is_structural_identity(self):
        cases = [
            "z1*conj(z1)", "x1+x2*x1", "-x1^2", "x1^-2*x2", "1/(1+x1^2+x2^2)",
            "exp(x1)-sin(x2)/cos(x1)", "sqrt(1+x1^2)", "(x1+x2)^3", "2.5e-3*x1+3i",
            "x1-x2-x1", "x1/(x2/x1)",
        ]
        for s in cases:
            t = parse(s, 2)
            assert parse(to_text(t), 2) == t

    def test_fuzz_total(self):
        rng = np.random.default_rng(42)
        alphabet = list("x12z()+-*/^. ieconjsqrtlp\\#@[]{};,\"'\n\t~%&=")
        for size in (10, 100, 1000, 65536):
            for _ in range(6):
                s = "".join(rng.choice(alphabet) for _ in range(size))
                try:
                    parse(s, 2)
                except ParseError:
                    pass

    def test_deep_nesting_rejected_with_position(self):
        s = "(" * 5000 + "x1" + ")" * 5000
        with pytest.raises(ParseError):
            parse(s, 1)

    @pytest.mark.parametrize("nest, deepest, offset", [
        (lambda k: "-" * k + "x1", 199, 199),
        (lambda k: "x1^" + "-" * k + "2", 199, 202),
        (lambda k: "(" * k + "x1" + ")" * k, 99, 100),
        (lambda k: "sin(" * k + "x1" + ")" * k, 99, 400),
    ], ids=["minus", "exponent-minus", "parens", "sin"])
    def test_depth_guard_boundary(self, nest, deepest, offset):
        # the deepest nesting that parses, and the refusal one level deeper
        parse(nest(deepest), 1)
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse(nest(deepest + 1), 1)
        assert err.value.pos == offset


def _direct_eval(e, point):
    """Independent plain-complex evaluator used as the oracle."""
    if isinstance(e, Num):
        return e.val
    if isinstance(e, Var):
        k = int(e.name[1:]) - 1
        if e.name[0] == "x":
            return complex(point[k])
        n = len(point) // 2
        return complex(point[k]) + 1j * complex(point[k + n])
    if isinstance(e, Un):
        v = _direct_eval(e.arg, point)
        return {
            "neg": lambda x: -x,
            "exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos,
            "sqrt": np.sqrt, "conj": np.conjugate,
        }[e.op](v)
    a = _direct_eval(e.left, point)
    b = _direct_eval(e.right, point)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    return a ** b


def _random_rational(rng, depth=0):
    """Random rational expression over x1, x2 that is pole-free on the box."""
    r = rng.random()
    if depth >= 3 or r < 0.25:
        choice = rng.integers(0, 4)
        if choice == 0:
            return f"x{rng.integers(1, 3)}"
        if choice == 1:
            return f"{rng.integers(1, 5)}"
        if choice == 2:
            return f"{rng.uniform(0.2, 2.0):.3f}"
        return f"{rng.integers(1, 4)}i"
    op = rng.choice(["+", "-", "*", "/", "^"])
    left = _random_rational(rng, depth + 1)
    if op == "^":
        return f"({left})^{rng.integers(2, 4)}"
    if op == "/":
        inner = _random_rational(rng, depth + 1)
        return f"({left})/(2+({inner})^2)"
    return f"({left}){op}({_random_rational(rng, depth + 1)})"


class TestEvalJet:
    def test_polynomial(self):
        j = eval_jet(parse("x1^2", 1), [3.0])
        assert j.value == 9 and j.d1[0] == 6

    def test_rational_taylor(self):
        j = eval_jet(parse("1/(1+x1^2+x2^2)", 2), [0.0, 0.0])
        assert j.value == 1
        assert np.allclose(j.d1, 0)
        assert j.levels[2][0, 0] == pytest.approx(-2.0)
        assert j.levels[2][1, 1] == pytest.approx(-2.0)
        assert j.levels[2][0, 1] == pytest.approx(0.0)

    def test_exponential(self):
        j = eval_jet(parse("exp(x1)", 1), [0.0])
        assert j.value == 1 and j.d1[0] == 1 and j.levels[2][0, 0] == 1 and j.levels[3][0, 0, 0] == 1

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(EvalError):
            eval_jet(parse("x1^x2", 2), [1.0, 2.0])

    def test_values_match_direct_evaluation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            text = _random_rational(rng)
            tree = parse(text, 2)
            pt = rng.uniform(-1.2, 1.2, size=2)
            got = complex(eval_jet(tree, pt).value)
            want = _direct_eval(tree, pt)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), text

    def test_derivatives_match_finite_differences(self):
        from test_lambda_core import fd4
        rng = np.random.default_rng(10)
        for _ in range(100):
            text = _random_rational(rng)
            tree = parse(text, 2)
            pt = rng.uniform(-1.0, 1.0, size=2)
            j = eval_jet(tree, pt)
            for k in range(2):
                ref = fd4(lambda q: complex(eval_jet(tree, q).value), pt, k)
                assert abs(j.d1[k] - ref) <= 1e-7 * max(1.0, abs(ref)), text

    def test_conj_with_pairing(self):
        j = eval_jet(parse("z1*conj(z1)", 2), [0.3, 0.1])
        assert j.value == pytest.approx(0.3 ** 2 + 0.1 ** 2)
        assert np.max(np.abs(j.value.imag)) < 1e-15

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_long_expression_reads_its_levels_without_deep_recursion(self, op):
        # 600 terms parse into a tree 600 deep, which evaluation walks
        # recursively; its levels must not add a chain as deep for one read
        # to recurse through
        j = eval_jet(parse(op.join(["x1"] * 600), 1), [1.0])
        want = [600.0, 600.0, 0.0, 0.0] if op == "+" else [1.0, 600.0, 599.0 * 600, 598.0 * 599 * 600]
        assert [complex(l.reshape(-1)[0]) for l in j.levels] == pytest.approx(want)

    def test_long_sum_is_the_left_fold_of_its_terms(self):
        terms = ["x1*x2", "2*x1^2", "sin(x2)", "x1/x2", "-x2^3"] * 1000
        pt = (0.3, 0.7)
        jets = {t: eval_jet(parse(t, 2), pt) for t in set(terms)}
        want = jets[terms[0]]
        for t in terms[1:]:
            want = want + jets[t]
            list(want.levels)       # as eval_jet reads each operand's levels
        got = eval_jet(parse("+".join(terms), 2), pt)
        assert [l.tobytes() for l in got.levels] == [l.tobytes() for l in want.levels]

    def test_long_constant_exponent_is_folded_without_recursion_error(self):
        e = parse("x1^((" + "+".join(["1"] * 5000) + ")/2500)", 1)
        got, want = eval_jet(e, [3.0]), eval_jet(parse("x1^2", 1), [3.0])
        assert [l.tobytes() for l in got.levels] == [l.tobytes() for l in want.levels]

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_five_thousand_terms_evaluate_without_recursion_error(self, op, tmp_path):
        a = op.join(["x1*x2" if op == "+" else "x1"] * 5000)
        proc = run_cli(["eval", "wedge", "--geometry", "flat", "--n", "1", "--a", a,
                        "--b", "x2^2", "--at", "0.1,0.2"], tmp_path)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.startswith(b"da wedge1 db components:")
