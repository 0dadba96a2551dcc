"""Jet arithmetic for the first-order deformation engine.

The deformation parameter lam lives only in the truncated ring
C[lam]/(lam^2), carried by ``LJet``: a classical jet plus a first-order
jet, with lam^2 dropped in every product. First-order residuals are always
read off the lam slot exactly, never by a numerical lam -> 0 limit.

Jets carry the value of a field together with its partial derivatives up
to third order at a chart point. All geometry providers evaluate through
jets, so derivatives of rational closed forms are exact to machine
rounding. Jets may be tensor-shaped: ``levels[k]`` has shape
``shape + (dim,)*k`` and is symmetric in the trailing derivative axes.
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateMetricError, JetDomainError, SingularScalarError

# einsum letters reserved for derivative axes; formulas use lowercase
_DLETTERS = "TUVW"

MAX_ORDER = 3      # deepest derivative level the jet arithmetic propagates


class Jet:
    """Truncated Taylor data of a (possibly tensor-shaped) field at a point.

    ``order`` is the deepest stored derivative level, ``len(levels) - 1``;
    arithmetic results carry the minimum order of their operands, and
    ``grad`` consumes one level. Level arrays are complex and symmetric in
    derivative axes.
    """

    __slots__ = ("dim", "order", "levels")

    def __init__(self, dim: int, levels: Sequence[np.ndarray]):
        self.dim = dim
        self.levels = tuple(np.asarray(l, dtype=np.complex128) for l in levels)
        self.order = len(self.levels) - 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, shape: tuple = (), order: int = 3) -> "Jet":
        return cls(dim, [np.zeros(shape + (dim,) * k, dtype=np.complex128)
                         for k in range(order + 1)])

    @classmethod
    def const(cls, dim: int, value, order: int = 3) -> "Jet":
        v = np.asarray(value, dtype=np.complex128)
        levels = [v] + [np.zeros(v.shape + (dim,) * k, dtype=np.complex128)
                        for k in range(1, order + 1)]
        return cls(dim, levels)

    @classmethod
    def coords(cls, dim: int, point, order: int = 3) -> "Jet":
        """Jet of the identity chart map; shape (dim,)."""
        p = np.asarray(point, dtype=np.complex128)
        levels = [p, np.eye(dim, dtype=np.complex128)]
        for k in range(2, order + 1):
            levels.append(np.zeros((dim,) * (k + 1), dtype=np.complex128))
        return cls(dim, levels[: order + 1])

    @classmethod
    def coordinate(cls, dim: int, point, k: int, order: int = 3) -> "Jet":
        levels = [np.asarray(complex(point[k]))]
        d1 = np.zeros(dim, dtype=np.complex128)
        d1[k] = 1.0
        levels.append(d1)
        for m in range(2, order + 1):
            levels.append(np.zeros((dim,) * m, dtype=np.complex128))
        return cls(dim, levels[: order + 1])

    # -- basic access ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.levels[0].shape

    @property
    def val(self) -> np.ndarray:
        return self.levels[0]

    @property
    def value(self) -> complex:
        return complex(self.levels[0])

    @property
    def d1(self) -> Optional[np.ndarray]:
        return self.levels[1] if self.order >= 1 else None

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.const(self.dim, other, self.order)

    # -- linear operations -------------------------------------------------

    def __add__(self, other) -> "Jet":
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet(self.dim, [self.levels[k] + o.levels[k] for k in range(n + 1)])

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __neg__(self) -> "Jet":
        return Jet(self.dim, [-l for l in self.levels])

    def scale(self, c: complex) -> "Jet":
        return Jet(self.dim, [c * l for l in self.levels])

    # -- products ----------------------------------------------------------

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return self.scale(complex(other))
        if self.shape and other.shape:
            raise ValueError("ambiguous jet product for two tensor-shaped jets")
        sa, sb = _subscript(self.shape), _subscript(other.shape)
        return jet_einsum(f"{sa},{sb}->{sa or sb}", self, other)

    def __rmul__(self, other) -> "Jet":
        return self.scale(complex(other))

    def reciprocal(self) -> "Jet":
        if self.value == 0:
            raise SingularScalarError("reciprocal of a jet with zero value")
        return self.compose(lambda v: (1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3, -6.0 / v ** 4))

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self.scale(1.0 / complex(other))

    def __rtruediv__(self, other) -> "Jet":
        return self.reciprocal().scale(complex(other))

    def __pow__(self, p) -> "Jet":
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            k = int(p)
            if k < 0:
                return self.reciprocal() ** (-k)
            if k == 0:
                return Jet.const(self.dim, np.ones(self.shape), self.order)
            # by squaring, each new factor on the left: up to k = 3 this is
            # the left-to-right product, bit for bit
            out, base = None, self
            while True:
                if k & 1:
                    out = base if out is None else base * out
                k >>= 1
                if not k:
                    return out
                base = base * base
        v = self.value
        if v == 0:
            raise JetDomainError("non-integer power of a zero-valued jet")
        if v.imag == 0 and v.real < 0:
            raise JetDomainError("non-integer power of a negative real jet value")
        return self.compose(lambda v: (v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2),
                                       p * (p - 1) * (p - 2) * v ** (p - 3)))

    def compose(self, fn: Callable[[complex], Sequence[complex]]) -> "Jet":
        """Chain rule with a univariate function given by value and derivatives.

        ``fn(u)`` returns ``(f(u), f'(u), f''(u), f'''(u))`` at this jet's
        value u; a result out of floating-point range is a JetDomainError.
        Scalar-shaped jets only.
        """
        if self.shape != ():
            raise ValueError("compose applies to scalar-shaped jets")
        u = self.value
        try:
            derivs = fn(u)
        except ArithmeticError as exc:
            raise JetDomainError(f"function out of floating-point range at {u}: {exc}")
        f = [np.asarray(d, dtype=np.complex128) for d in derivs]
        out = [f[0]]
        if self.order >= 1:
            u1 = self.levels[1]
            out.append(f[1] * u1)
        if self.order >= 2:
            u2 = self.levels[2]
            out.append(f[2] * np.einsum("i,j->ij", u1, u1) + f[1] * u2)
        if self.order >= 3:
            u3 = self.levels[3]
            cross = np.einsum("ij,k->ijk", u2, u1)
            sym = cross + np.moveaxis(cross, -1, -2) + np.moveaxis(cross, -1, -3)
            out.append(f[3] * np.einsum("i,j,k->ijk", u1, u1, u1) + f[2] * sym + f[1] * u3)
        return Jet(self.dim, out)

    # -- structure ---------------------------------------------------------

    def grad(self) -> "Jet":
        """Partial derivatives as one extra trailing tensor axis; order drops."""
        if self.order < 1:
            raise JetDomainError("jet order exhausted, cannot differentiate")
        return Jet(self.dim, self.levels[1:])

    def conj(self) -> "Jet":
        # valid because chart coordinates are real
        return Jet(self.dim, [np.conjugate(l) for l in self.levels])

    def reorder(self, spec: str) -> "Jet":
        """Relabel tensor axes with an einsum-style spec, e.g. 'ijk->kij'."""
        src, dst = spec.split("->")
        return Jet(self.dim, [np.einsum(f"{src}...->{dst}...", l) for l in self.levels])

    def take_index(self, idx: int, axis: int = 0) -> "Jet":
        """Slice one tensor axis at a fixed index."""
        return Jet(self.dim, [np.take(l, idx, axis=axis) for l in self.levels])

    def matinv(self) -> "Jet":
        """Inverse of a square-matrix jet, solved level by level."""
        a = self.levels
        d0 = a[0]
        if d0.ndim != 2 or d0.shape[0] != d0.shape[1]:
            raise ValueError("matinv needs a square matrix jet")
        try:
            b0 = np.linalg.inv(d0)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"singular matrix at evaluation point: {exc}")
        if not np.all(np.isfinite(b0)) or \
                np.max(np.abs(d0 @ b0 - np.eye(d0.shape[0]))) > 1e-6:
            raise DegenerateMetricError("matrix numerically singular at evaluation point")
        out = [b0]
        if self.order >= 1:
            b1 = -np.einsum("im,mnK,nj->ijK", b0, a[1], b0)
            out.append(b1)
        if self.order >= 2:
            t = np.einsum("mnKL,nj->mjKL", a[2], b0)
            t += np.einsum("mnK,njL->mjKL", a[1], b1)
            t += np.einsum("mnL,njK->mjKL", a[1], b1)
            out.append(-np.einsum("im,mjKL->ijKL", b0, t))
        if self.order >= 3:
            b2 = out[2]
            t = np.einsum("mnKLM,nj->mjKLM", a[3], b0)
            c21 = np.einsum("mnKL,njM->mjKLM", a[2], b1)
            t += c21 + np.moveaxis(c21, -1, -2) + np.moveaxis(c21, -1, -3)
            c12 = np.einsum("mnK,njLM->mjKLM", a[1], b2)
            t += c12 + np.moveaxis(c12, -3, -2) + np.moveaxis(c12, -3, -1)
            out.append(-np.einsum("im,mjKLM->ijKLM", b0, t))
        return Jet(self.dim, out)


def _subscript(shape: tuple) -> str:
    return "abcdefghijklmnopqrs"[: len(shape)]


def jet_einsum(spec: str, a, b) -> "Jet":
    """Einsum of two jets with the Leibniz rule across derivative levels.

    ``spec`` refers to tensor axes only; derivative axes are appended and
    handled automatically. Plain arrays and numbers coerce to constants.
    """
    if not isinstance(a, Jet) and not isinstance(b, Jet):
        raise TypeError("jet_einsum needs at least one Jet operand")
    ref = a if isinstance(a, Jet) else b
    if not isinstance(a, Jet):
        a = Jet.const(ref.dim, a, ref.order)
    if not isinstance(b, Jet):
        b = Jet.const(ref.dim, b, ref.order)
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    order = min(a.order, b.order)
    T, U, V = _DLETTERS[0], _DLETTERS[1], _DLETTERS[2]
    a0, b0 = a.levels[0], b.levels[0]
    levels = [np.einsum(f"{sa},{sb}->{out}", a0, b0)]
    if order >= 1:
        levels.append(
            np.einsum(f"{sa}{T},{sb}->{out}{T}", a.levels[1], b0)
            + np.einsum(f"{sa},{sb}{T}->{out}{T}", a0, b.levels[1]))
    if order >= 2:
        l2 = (np.einsum(f"{sa}{T}{U},{sb}->{out}{T}{U}", a.levels[2], b0)
              + np.einsum(f"{sa},{sb}{T}{U}->{out}{T}{U}", a0, b.levels[2]))
        cross = np.einsum(f"{sa}{T},{sb}{U}->{out}{T}{U}", a.levels[1], b.levels[1])
        levels.append(l2 + cross + np.swapaxes(cross, -1, -2))
    if order >= 3:
        l3 = (np.einsum(f"{sa}{T}{U}{V},{sb}->{out}{T}{U}{V}", a.levels[3], b0)
              + np.einsum(f"{sa},{sb}{T}{U}{V}->{out}{T}{U}{V}", a0, b.levels[3]))
        c21 = np.einsum(f"{sa}{T}{U},{sb}{V}->{out}{T}{U}{V}", a.levels[2], b.levels[1])
        l3 += c21 + np.moveaxis(c21, -1, -2) + np.moveaxis(c21, -1, -3)
        c12 = np.einsum(f"{sa}{T},{sb}{U}{V}->{out}{T}{U}{V}", a.levels[1], b.levels[2])
        l3 += c12 + np.moveaxis(c12, -3, -2) + np.moveaxis(c12, -3, -1)
        levels.append(l3)
    return Jet(ref.dim, levels)


# -- univariate function table ----------------------------------------------

def _domain_positive(v: complex, name: str) -> None:
    if v == 0 or (v.imag == 0 and v.real <= 0):
        raise JetDomainError(f"{name} of a jet with non-positive real value {v}")


def _f_exp(v):
    e = cmath.exp(v)
    return (e, e, e, e)


def _f_ln(v):
    _domain_positive(v, "ln")
    return (cmath.log(v), 1 / v, -1 / v ** 2, 2 / v ** 3)


def _f_sqrt(v):
    _domain_positive(v, "sqrt")
    w = cmath.sqrt(v)
    return (w, 0.5 / w, -0.25 / w ** 3, 0.375 / w ** 5)


def _f_sin(v):
    return (cmath.sin(v), cmath.cos(v), -cmath.sin(v), -cmath.cos(v))


def _f_cos(v):
    return (cmath.cos(v), -cmath.sin(v), -cmath.cos(v), cmath.sin(v))


UNARY_FUNCS: dict[str, Callable[[complex], tuple]] = {
    "exp": _f_exp,
    "ln": _f_ln,
    "sqrt": _f_sqrt,
    "sin": _f_sin,
    "cos": _f_cos,
}


def jet_apply(name: str, u: Jet) -> Jet:
    """Apply a named smooth univariate function (or conj) to a scalar jet."""
    if name == "conj":
        return u.conj()
    try:
        table = UNARY_FUNCS[name]
    except KeyError:
        raise JetDomainError(f"unknown unary function {name!r}")
    return u.compose(table)


class LJet(NamedTuple):
    """A lam-graded jet: classical part plus optional first-order part."""

    c: Jet
    l: Optional[Jet] = None

    def lam(self) -> Jet:
        return self.l if self.l is not None else Jet.zeros(self.c.dim, self.c.shape,
                                                           max(self.c.order - 1, 0))

    def __add__(self, other: "LJet") -> "LJet":
        if self.l is None and other.l is None:
            return LJet(self.c + other.c, None)
        return LJet(self.c + other.c, self.lam() + other.lam())

    def __sub__(self, other: "LJet") -> "LJet":
        return self + other.scale(-1.0)

    def scale(self, z: complex) -> "LJet":
        """Multiply by a constant complex number."""
        return LJet(self.c.scale(complex(z)),
                    None if self.l is None else self.l.scale(complex(z)))

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        zero = np.zeros(self.c.shape, dtype=np.complex128)
        return (self.c.val, self.l.val if self.l is not None else zero)
