"""Parser and jet evaluator for scalar field expressions.

Grammar (highest precedence first):

    ^  (left associative, exponent may carry a leading minus)
    unary minus
    *  /
    +  -

Operands are coordinate symbols ``x1..xd`` (plus complex aliases
``z1..zn`` on even-dimensional charts, with z^k = x^k + i x^{k+n}),
numeric literals (``2``, ``0.5``, ``1e-3``, imaginary suffix ``3i``, the
unit ``i``), parenthesized expressions and the unary functions
exp, ln, sin, cos, sqrt, conj. Every input either parses or raises a
positioned ParseError; unknown identifiers are rejected at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import EvalError, ParseError, UnknownSymbolError
from .lambda_core import Jet, jet_apply

FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "conj")

_MAX_DEPTH = 200


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    val: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Un:
    op: str            # "neg" or a function name
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str            # one of + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Un, Bin]


# -- lexer --------------------------------------------------------------------

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Tok:
    kind: str          # "num", "ident", "op", "end"
    text: str
    pos: int
    val: complex = 0j


def _lex(text: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(_Tok("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and j + 1 < n and \
                    (text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())):
                j += 1
                if text[j] in "+-":
                    j += 1
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            try:
                value = complex(float(lit))
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", i)
            if j < n and text[j] == "i" and not (j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_")):
                value *= 1j
                j += 1
            toks.append(_Tok("num", text[i:j], i, value))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


# -- parser -------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[_Tok], dim: int):
        self.toks = toks
        self.k = 0
        self.dim = dim
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def take(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect_op(self, op: str) -> None:
        t = self.take()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}, found {t.text or 'end of input'!r}", t.pos)

    def _enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", pos)

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        self._enter(self.peek().pos)
        try:
            node = self.term()
            while self.peek().kind == "op" and self.peek().text in "+-":
                op = self.take().text
                node = Bin(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = Bin(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            pos = self.take().pos
            self._enter(pos)
            try:
                return Un("neg", self.unary())
            finally:
                self.depth -= 1
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            node = Bin("^", node, self.pow_operand())
        return node

    def pow_operand(self) -> Expr:
        # exponent may carry a leading minus, which binds to the exponent only
        if self.peek().kind == "op" and self.peek().text == "-":
            pos = self.take().pos
            self._enter(pos)
            try:
                return Un("neg", self.pow_operand())
            finally:
                self.depth -= 1
        return self.atom()

    def atom(self) -> Expr:
        t = self.take()
        if t.kind == "num":
            return Num(t.val)
        if t.kind == "ident":
            name = t.text
            if name in FUNCTIONS:
                self._enter(t.pos)
                try:
                    self.expect_op("(")
                    arg = self.expr()
                    self.expect_op(")")
                finally:
                    self.depth -= 1
                return Un(name, arg)
            return self.resolve(name, t.pos)
        if t.kind == "op" and t.text == "(":
            self._enter(t.pos)
            try:
                e = self.expr()
                self.expect_op(")")
            finally:
                self.depth -= 1
            return e
        raise ParseError(f"expected an operand, found {t.text or 'end of input'!r}", t.pos)

    def resolve(self, name: str, pos: int) -> Expr:
        if name == "i":
            return Num(1j)
        if len(name) >= 2 and name[0] in "xz" and name[1:].isdigit():
            k = int(name[1:])
            if name[0] == "x":
                if 1 <= k <= self.dim:
                    return Var(name)
                raise UnknownSymbolError(
                    f"coordinate {name!r} out of range for chart dimension {self.dim}", pos)
            if self.dim % 2 == 0 and 1 <= k <= self.dim // 2:
                return Var(name)
            raise UnknownSymbolError(
                f"complex alias {name!r} needs an even chart with {2 * k} coordinates", pos)
        raise UnknownSymbolError(f"unknown identifier {name!r}", pos)


def parse(text: str, dim: int) -> Expr:
    """Parse an expression over an x1..x<dim> chart; raises ParseError."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_lex(text), dim).parse()


# -- evaluation ---------------------------------------------------------------

def eval_jet(e: Expr, point, dim: Optional[int] = None, order: int = 3) -> Jet:
    """Jet of the expression at a real chart point."""
    point = list(point)
    d = dim if dim is not None else len(point)
    if len(point) != d:
        raise EvalError(f"point has {len(point)} coordinates, chart has {d}")
    out = _eval(e, point, d, order)
    if not all(np.isfinite(l).all() for l in out.levels):
        raise EvalError(f"expression or its derivatives not finite at {tuple(point)}")
    return out


def _eval(e: Expr, point, d: int, order: int) -> Jet:
    if isinstance(e, Num):
        return Jet.const(d, e.val, order)
    if isinstance(e, Var):
        k = int(e.name[1:]) - 1
        if e.name[0] == "x":
            return Jet.coordinate(d, point, k, order)
        n = d // 2
        return Jet.coordinate(d, point, k, order) + \
            Jet.coordinate(d, point, k + n, order).scale(1j)
    if isinstance(e, Un):
        u = _eval(e.arg, point, d, order)
        if e.op == "neg":
            return -u
        return jet_apply(e.op, u)
    a = _eval(e.left, point, d, order)
    if e.op == "^":
        try:
            p = _const_value(e.right)
        except ArithmeticError as exc:
            raise EvalError(f"exponent out of floating-point range: {exc}")
        if p is None:
            raise EvalError("exponent must be a constant")
        if p.imag == 0:
            p = p.real
        return a ** p
    b = _eval(e.right, point, d, order)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    if e.op == "/":
        return a / b
    raise EvalError(f"unknown operator {e.op!r}")


def _const_value(e: Expr) -> Optional[complex]:
    if isinstance(e, Num):
        return e.val
    if isinstance(e, Un) and e.op == "neg":
        v = _const_value(e.arg)
        return None if v is None else -v
    if isinstance(e, Bin):
        a, b = _const_value(e.left), _const_value(e.right)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        if e.op == "^":
            return a ** b
    return None
