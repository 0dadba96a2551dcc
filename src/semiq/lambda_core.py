"""Jet arithmetic for the first-order deformation engine.

The deformation parameter lam lives only in the truncated ring
C[lam]/(lam^2), carried by ``LJet``: a classical jet plus a first-order
jet, which may be computed on its first read, with lam^2 dropped in every
product. First-order residuals are always
read off the lam slot exactly, never by a numerical lam -> 0 limit.

Jets carry the value of a field together with its partial derivatives up
to third order at a chart point. All geometry providers evaluate through
jets, so derivatives of rational closed forms are exact to machine
rounding. Jets may be tensor-shaped: ``levels[k]`` has shape
``shape + (dim,)*k`` and is symmetric in the trailing derivative axes.

A jet may also hold a batch: ``batch`` leading axes of every level, one
member per chart point, which ``shape`` excludes. A lone jet is a batch of
no axes, never a batch of one, and takes the same code: einsum always
carries a leading ``...``, and functions of a value are evaluated member
by member in Python complex arithmetic. Every operation acts on each
member as it would on that member alone.

Every jet operation computes level 0 itself and hands it to ``deferred_jet``,
the one constructor of its result, with a function that computes each higher
level on its first read by the numpy calls of the eager formula, in the same
order: a level read has the same bits, and one never read is never computed;
a difference subtracts once per level, which has the bits of adding the
negation but for a NaN's sign. Only the constructors are eager. A level
function reads the operands' ``Levels``, never a jet, so no result refers to
itself. Every jet's ``val`` is set when it is built; the level formulas
permute derivative axes by the views ``np.moveaxis`` would build.
"""

from __future__ import annotations

import cmath
from typing import Callable, Optional, Sequence

import numpy as np
# numpy's C einsum: np.einsum with its default optimize=False returns this
# call unchanged, after an array-function dispatcher and a Python frame
from numpy._core.multiarray import c_einsum as einsum

from .errors import DegenerateMetricError, JetDomainError, SingularScalarError

# einsum letters reserved for derivative axes; formulas use lowercase
_DLETTERS = "TUVW"

MAX_ORDER = 3      # deepest derivative level the jet arithmetic propagates

_C128 = np.dtype(np.complex128)
_new = object.__new__       # an instance with its slots still unset


class Jet:
    """Truncated Taylor data of a (possibly tensor-shaped) field at a point,
    or at each point of a batch.

    ``order`` is the deepest stored derivative level, ``len(levels) - 1``;
    arithmetic results carry the minimum order of their operands, and
    ``grad`` consumes one level. Level arrays are complex and symmetric in
    derivative axes. ``batch`` counts the leading batch axes of every level.
    """

    __slots__ = ("dim", "order", "levels", "batch", "val")

    def __init__(self, dim: int, levels: Sequence[np.ndarray], batch: int = 0):
        cells = [np.asarray(l, dtype=np.complex128) for l in levels]
        self.dim, self.order, self.levels, self.batch = dim, len(cells) - 1, Levels(cells), batch
        self.val = cells[0]

    # -- constructors ------------------------------------------------------
    # the first ``batch`` axes of ``value`` are batch axes, and a point's
    # leading axes are its batch, as a jet's are

    @classmethod
    def const(cls, dim: int, value, order: int = MAX_ORDER, batch: int = 0) -> "Jet":
        v = np.asarray(value, dtype=np.complex128)
        levels = [v] + [np.zeros(v.shape + (dim,) * k, dtype=np.complex128)
                        for k in range(1, order + 1)]
        return cls(dim, levels, batch)

    @classmethod
    def affine(cls, dim: int, value, d1, order: int = MAX_ORDER, batch: int = 0) -> "Jet":
        """Jet of a field affine in the chart coordinates: ``value`` with the
        constant first derivatives ``d1``, every higher level zero."""
        levels = [value, d1][: order + 1]
        for k in range(2, order + 1):
            levels.append(np.zeros(value.shape + (dim,) * k, dtype=np.complex128))
        return cls(dim, levels, batch)

    @classmethod
    def coords(cls, dim: int, point, order: int = MAX_ORDER) -> "Jet":
        """Jet of the identity chart map; shape (dim,)."""
        p, i = np.asarray(point, dtype=np.complex128), np.arange(dim)
        eye = np.zeros(p.shape + (dim,), dtype=np.complex128)
        eye[..., i, i] = 1.0
        return cls.affine(dim, p, eye, order, p.ndim - 1)

    @classmethod
    def coordinate(cls, dim: int, point, k: int, order: int = MAX_ORDER) -> "Jet":
        """Jet of the chart coordinate x^k; a scalar."""
        p = np.asarray(point, dtype=np.complex128)
        d1 = np.zeros(p.shape, dtype=np.complex128)
        d1[..., k] = 1.0
        return cls.affine(dim, p[..., k].copy(), d1, order, p.ndim - 1)

    # -- basic access ------------------------------------------------------

    @property
    def shape(self) -> tuple:
        """The tensor shape, without the batch axes."""
        return self.val.shape[self.batch:]

    @property
    def value(self) -> complex:
        return complex(self.val)

    def member_values(self) -> list:
        """The value of a scalar jet as Python complex numbers, one per batch
        member in C order; a lone jet has one."""
        return self.val.reshape(-1).tolist()

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
        al, bl = self.levels, o.levels
        return deferred_jet(self.dim, self.val + o.val, lambda k: al[k] + bl[k],
                            self.order if self.order < o.order else o.order,
                            self.batch if self.batch > o.batch else o.batch)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        # one subtract per level: IEEE 754 defines x - y as x + (-y), so
        # every level but a NaN's sign bit is that of self + (-other)
        o = self._coerce(other)
        al, bl = self.levels, o.levels
        return deferred_jet(self.dim, self.val - o.val, lambda k: al[k] - bl[k],
                            self.order if self.order < o.order else o.order,
                            self.batch if self.batch > o.batch else o.batch)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __neg__(self) -> "Jet":
        al = self.levels
        return deferred_jet(self.dim, -self.val, lambda k: -al[k], self.order, self.batch)

    def scale(self, c) -> "Jet":
        """Multiply by a number, or member by member by an array of the batch
        shape; a lone jet so scaled takes on the batch."""
        al, v, b = self.levels, self.val, self.batch
        if isinstance(c, np.ndarray) and c.ndim:
            return deferred_jet(self.dim, _over_members(c, v, b) * v,
                                lambda k: _over_members(c, al[k], b) * al[k], self.order, c.ndim)
        return deferred_jet(self.dim, c * v, lambda k: c * al[k], self.order, b)

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
        if 0 in self.member_values():
            raise SingularScalarError("reciprocal of a jet with zero value")
        return self.compose((lambda v: 1.0 / v, lambda v: _over_pow(-1.0, v, 2),
                             lambda v: _over_pow(2.0, v, 3), lambda v: _over_pow(-6.0, v, 4)))

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
                return Jet.const(self.dim, np.ones(self.val.shape), self.order, self.batch)
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
        for v in self.member_values():
            if v == 0:
                raise JetDomainError("non-integer power of a zero-valued jet")
            if v.imag == 0 and v.real < 0:
                raise JetDomainError("non-integer power of a negative real jet value")
        return self.compose((lambda v: v ** p, lambda v: p * v ** (p - 1),
                             lambda v: p * (p - 1) * v ** (p - 2),
                             lambda v: p * (p - 1) * (p - 2) * v ** (p - 3)))

    def compose(self, fns: Sequence[Callable[[complex], complex]]) -> "Jet":
        """Chain rule with a univariate function given by value and derivatives.

        ``fns`` is the table ``(f, f', f'', f''')`` of one-argument functions,
        called at each member's value u. Level k, on its first read, calls
        each f^(j), j <= k, not called yet, once per member, so a derivative
        that no read level needs is never computed; a called one out of
        floating-point range is a JetDomainError. Scalar-shaped jets only.
        """
        if self.shape != ():
            raise ValueError("compose applies to scalar-shaped jets")
        us, shape, a, batch = self.member_values(), self.val.shape, self.levels, self.batch
        f = []          # f^(j) at each member's value, for each j called so far

        def times(k, l):        # f^(k) times l, member by member; f^(k) alone if l is None
            for fn in fns[len(f): k + 1]:
                col = []
                try:
                    for u in us:
                        col.append(fn(u))
                except JetDomainError:      # outside f's domain (_positive): not a range error
                    raise
                except (ArithmeticError, ValueError) as exc:    # cmath.sin(inf): ValueError
                    raise JetDomainError(f"function out of floating-point range at {u}: {exc}")
                f.append(np.array(col, dtype=np.complex128).reshape(shape))
            return f[k] if l is None else _over_members(f[k], l, batch) * l

        def level(k):
            u1 = a[1]
            if k == 1:
                return times(1, u1)
            u2 = a[2]
            if k == 2:
                return times(2, einsum("...i,...j->...ij", u1, u1)) + times(1, u2)
            cross = einsum("...ij,...k->...ijk", u2, u1)
            sym = cross + cross.swapaxes(-1, -2) + _last3(cross, (2, 0, 1))
            return (times(3, einsum("...i,...j,...k->...ijk", u1, u1, u1))
                    + times(2, sym) + times(1, a[3]))
        return deferred_jet(self.dim, times(0, None), level, self.order, batch)

    # -- structure ---------------------------------------------------------

    def grad(self) -> "Jet":
        """Partial derivatives as one extra trailing tensor axis; order drops:
        level k is the parent's level k + 1, the same array."""
        if self.order < 1:
            raise JetDomainError("jet order exhausted, cannot differentiate")
        al = self.levels
        return deferred_jet(self.dim, al[1], lambda k: al[k + 1], self.order - 1, self.batch)

    def conj(self) -> "Jet":
        # valid because chart coordinates are real
        al = self.levels
        return deferred_jet(self.dim, np.conjugate(self.val), lambda k: np.conjugate(al[k]),
                            self.order, self.batch)

    def reorder(self, spec: str) -> "Jet":
        """Relabel the leading tensor axes with an einsum-style spec, e.g.
        'ijk->kij'; batch axes and the axes after the named ones, derivative
        axes included, keep their places. The result is a view."""
        src, dst = spec.split("->")
        al, v, b = self.levels, self.val, self.batch
        head = list(range(b)) + [b + src.index(c) for c in dst]
        m, n = len(head), v.ndim         # level k has n + k axes
        return deferred_jet(self.dim, v.transpose(head + list(range(m, n))),
                            lambda k: al[k].transpose(head + list(range(m, n + k))), self.order, b)

    def take_index(self, idx: int, axis: int = 0) -> "Jet":
        """Slice one tensor axis at a fixed index."""
        al, ax = self.levels, axis + self.batch
        return deferred_jet(self.dim, np.take(self.val, idx, axis=ax),
                            lambda k: np.take(al[k], idx, axis=ax), self.order, self.batch)

    def matinv(self) -> "Jet":
        """Inverse of a square-matrix jet, each level solved from the ones below it."""
        a, d0 = self.levels, self.val
        if len(self.shape) != 2 or d0.shape[-1] != d0.shape[-2]:
            raise ValueError("matinv needs a square matrix jet")
        try:
            b0 = np.linalg.inv(d0)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"singular matrix at evaluation point: {exc}")
        eye = np.eye(d0.shape[-1])
        if not np.all(np.isfinite(b0)) or \
                any(np.max(np.abs(d0[m] @ b0[m] - eye)) > 1e-6
                    for m in np.ndindex(d0.shape[: self.batch])):
            raise DegenerateMetricError("matrix numerically singular at evaluation point")
        b = [b0]        # the levels solved so far, kept here, not read off the result

        def level(k):
            for n in range(len(b), k + 1):
                if n == 1:
                    b.append(-einsum("...im,...mnK,...nj->...ijK", b0, a[1], b0))
                elif n == 2:
                    t = einsum("...mnKL,...nj->...mjKL", a[2], b0)
                    t += einsum("...mnK,...njL->...mjKL", a[1], b[1])
                    t += einsum("...mnL,...njK->...mjKL", a[1], b[1])
                    b.append(-einsum("...im,...mjKL->...ijKL", b0, t))
                else:
                    t = einsum("...mnKLM,...nj->...mjKLM", a[3], b0)
                    c21 = einsum("...mnKL,...njM->...mjKLM", a[2], b[1])
                    t += c21 + c21.swapaxes(-1, -2) + _last3(c21, (2, 0, 1))
                    c12 = einsum("...mnK,...njLM->...mjKLM", a[1], b[2])
                    t += c12 + c12.swapaxes(-3, -2) + _last3(c12, (1, 2, 0))
                    b.append(-einsum("...im,...mjKLM->...ijKLM", b0, t))
            return b[k]
        return deferred_jet(self.dim, b0, level, self.order, self.batch)


class Levels:
    """A jet's derivative levels, a read-only sequence of arrays.

    A cell holds either its level's array or the function ``level`` of a
    deferred level k, which ``evaluate_level`` runs on the first read; the
    array it returns then replaces it. An index is a plain ``int`` in range,
    or a slice, which gives a list of the same arrays.
    """

    __slots__ = ("_cells",)

    def __init__(self, cells: list):
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, k):
        cells = self._cells
        if k.__class__ is int and 0 <= k < len(cells):
            cell = cells[k]
            if callable(cell):
                cell = cells[k] = evaluate_level(k, cell)
            return cell
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(cells)))]
        raise IndexError(f"jet level {k!r} of {len(cells)}")

    def __iter__(self):
        return (self[k] for k in range(len(self._cells)))


def evaluate_level(k: int, level: Callable[[int], np.ndarray]) -> np.ndarray:
    """Level ``k`` of the jet that deferred it; every deferred level is
    computed here, once."""
    return level(k)


def deferred_jet(dim: int, val, level: Callable[[int], np.ndarray], order: int,
                 batch: int) -> Jet:
    """The result of every jet operation: level 0 is ``val``, which the
    operation computed, and level k >= 1 is ``level(k)`` on its first read."""
    if val.__class__ is not np.ndarray or val.dtype is not _C128:     # e.g. a 0-d numpy scalar
        val = np.asarray(val, dtype=np.complex128)
    levels = _new(Levels)
    levels._cells = [val] + [level] * order
    j = _new(Jet)
    j.dim, j.order, j.levels, j.batch, j.val = dim, order, levels, batch, val
    return j


def _last3(x: np.ndarray, perm: tuple) -> np.ndarray:
    """The view of x with its last three axes in the order perm, e.g. (2, 0, 1)."""
    n = x.ndim - 3
    return x.transpose((*range(n), n + perm[0], n + perm[1], n + perm[2]))


def _subscript(shape: tuple) -> str:
    return "abcdefghijklmnopqrs"[: len(shape)]


def is_batch(point) -> bool:
    """Whether ``point`` is a batch of chart points rather than one point."""
    return isinstance(point[0], (tuple, list, np.ndarray))


def _over_members(c: np.ndarray, l: np.ndarray, batch: int) -> np.ndarray:
    """c, an array of the batch shape, with a unit axis for each axis of l
    after its ``batch`` batch axes, so that c * l multiplies member by member."""
    return c.reshape(c.shape + (1,) * (l.ndim - batch))


def jet_einsum(spec: str, a, b) -> "Jet":
    """Einsum of two jets with the Leibniz rule across derivative levels.

    ``spec`` refers to tensor axes only; derivative axes are appended and
    handled automatically. A leading ``...`` on both operands and the
    output carries their batch axes, if any. Plain arrays and numbers
    coerce to constants without a batch.
    """
    if a.__class__ is not Jet or b.__class__ is not Jet:
        ref = a if isinstance(a, Jet) else b
        if not isinstance(ref, Jet):
            raise TypeError("jet_einsum needs at least one Jet operand")
        a, b = ref._coerce(a), ref._coerce(b)
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    sa, sb, out = "..." + sa, "..." + sb, "..." + out
    T, U, V = _DLETTERS[0], _DLETTERS[1], _DLETTERS[2]
    al, bl, a0, b0 = a.levels, b.levels, a.val, b.val

    def level(k):
        if k == 1:
            return (einsum(f"{sa}{T},{sb}->{out}{T}", al[1], b0)
                    + einsum(f"{sa},{sb}{T}->{out}{T}", a0, bl[1]))
        if k == 2:
            l2 = (einsum(f"{sa}{T}{U},{sb}->{out}{T}{U}", al[2], b0)
                  + einsum(f"{sa},{sb}{T}{U}->{out}{T}{U}", a0, bl[2]))
            cross = einsum(f"{sa}{T},{sb}{U}->{out}{T}{U}", al[1], bl[1])
            return l2 + cross + cross.swapaxes(-1, -2)
        l3 = (einsum(f"{sa}{T}{U}{V},{sb}->{out}{T}{U}{V}", al[3], b0)
              + einsum(f"{sa},{sb}{T}{U}{V}->{out}{T}{U}{V}", a0, bl[3]))
        c21 = einsum(f"{sa}{T}{U},{sb}{V}->{out}{T}{U}{V}", al[2], bl[1])
        l3 += c21 + c21.swapaxes(-1, -2) + _last3(c21, (2, 0, 1))
        c12 = einsum(f"{sa}{T},{sb}{U}{V}->{out}{T}{U}{V}", al[1], bl[2])
        l3 += c12 + c12.swapaxes(-3, -2) + _last3(c12, (1, 2, 0))
        return l3
    return deferred_jet(a.dim, einsum(f"{sa},{sb}->{out}", a0, b0), level,
                        a.order if a.order < b.order else b.order,
                        a.batch if a.batch > b.batch else b.batch)


# -- univariate function table ----------------------------------------------

def _positive(v: complex, name: str) -> complex:
    if v == 0 or (v.imag == 0 and v.real <= 0):
        raise JetDomainError(f"{name} of a jet with non-positive real value {v}")
    return v


def _over_pow(c, v: complex, k: int) -> complex:
    """c / v**k for k >= 2, or c * (1/v)**k where v**k overflows (complex ``**``
    raises, or for k >= 4 may return nan), so a quotient that only underflows
    toward 0 is not refused. 1/v through ``**`` can flip a zero's sign."""
    try:
        p = v ** k
    except OverflowError:
        p = cmath.inf
    return c / p if cmath.isfinite(p) else c * (1 / v) ** k


# name -> (f, f', f'', f'''), each a function of the jet's value
UNARY_FUNCS: dict[str, tuple] = {
    "exp": (cmath.exp,) * 4,
    "ln": (lambda v: cmath.log(_positive(v, "ln")), lambda v: 1 / v,
           lambda v: _over_pow(-1, v, 2), lambda v: _over_pow(2, v, 3)),
    "sqrt": (lambda v: cmath.sqrt(_positive(v, "sqrt")), lambda v: 0.5 / cmath.sqrt(v),
             lambda v: _over_pow(-0.25, cmath.sqrt(v), 3),
             lambda v: _over_pow(0.375, cmath.sqrt(v), 5)),
    "sin": (cmath.sin, cmath.cos, lambda v: -cmath.sin(v), lambda v: -cmath.cos(v)),
    "cos": (cmath.cos, lambda v: -cmath.sin(v), lambda v: -cmath.cos(v), cmath.sin),
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


class LJet:
    """A lam-graded jet: classical part ``c`` plus optional first-order part ``l``.

    ``l`` may be given as a zero-argument function, run on the first read of
    ``l`` and then kept, so a first-order part no caller reads is never
    computed; ``graded`` says whether there is one without computing it. A
    deferred ``l`` makes the numpy calls of the eager formula in the same
    order, so it has the same bits. Its builder takes at once every ``grad``
    of a classical part that the formula reads, so a refusal comes when the
    LJet is built, and the function refers to no LJet it builds, so
    reference counting frees it. ``l`` has at least the order of ``c`` less
    one, as ``lam``'s zero does, so the grad of a deferred ``l`` is refused
    only where that of ``c``'s gradient, taken at build, is.
    """

    __slots__ = ("c", "_l")

    def __init__(self, c: Jet, l: Optional[Jet | Callable[[], Jet]] = None):
        self.c, self._l = c, l

    @property
    def graded(self) -> bool:
        return self._l is not None

    @property
    def l(self) -> Optional[Jet]:
        l = self._l
        if callable(l):
            l = self._l = l()
        return l

    def lam(self) -> Jet:
        l = self.l
        if l is not None:
            return l
        c = self.c
        return Jet.const(c.dim, np.zeros(c.val.shape, dtype=np.complex128),
                         max(c.order - 1, 0), c.batch)

    def __add__(self, other: "LJet") -> "LJet":
        if self._l is None and other._l is None:
            return LJet(self.c + other.c)
        return LJet(self.c + other.c, lambda: self.lam() + other.lam())

    def __sub__(self, other: "LJet") -> "LJet":
        return self + other.scale(-1.0)

    def scale(self, z: complex) -> "LJet":
        """Multiply by a constant complex number."""
        z = complex(z)
        return LJet(self.c.scale(z), None if self._l is None else lambda: self.l.scale(z))

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        if self._l is None:
            return self.c.val, np.zeros(self.c.val.shape, dtype=np.complex128)
        return self.c.val, self.l.val
