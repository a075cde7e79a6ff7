"""Chart partials up to third order, and the float elementary functions.

A Jet holds the value and the partial derivatives of a scalar field at a
chart point, up to ``order`` (at most 3) in ``n`` chart variables (at most
3).  The partials come from derivative trees (``expr._partials``) that one
program evaluates on plain floats, so no production code path touches a
finite difference.  A Jet is a read-only view; nothing mutates it.

Layout: ``Jet.c`` is one flat vector, c[a] = d^a f for each monomial x^a
of degree <= ``order`` (4, 10 or 20 entries for n = 3).  Monomials are
listed by degree, then by sorted variable-index tuple (1, x0, x1, x2,
x0^2, x0 x1, ...), so c[0] is the value and c[1:n+1] the gradient.  The
order-k layout is a prefix of the order-(k+1) one.  ``grad``, ``hess`` and
``third`` gather their entries from ``c``, one slot for every permutation
of a multi-index, so they are exactly symmetric.

Point axis: ``c`` may be a stack (P, D) instead, one row per point, from one
run of the same program on float arrays.  Each row equals the jet at its
point alone bit for bit: numpy's float arithmetic rounds as Python's, and
the elementary functions map ``math`` over the entries of an array, as
numpy's ufuncs promise no match with ``math``.

The elementary functions take a plain float, or a 1-D float array whose
entries they map the same calls over.  A float argument needs only to lie
in the function's domain: a derivative that divides by zero (sqrt at 0)
fails at its own division.

The independent test oracle, ``finite_difference_jet``, lives with the
tests (``tests/fd_oracle.py``): it estimates the derivative slots from
central differences of plain evaluations.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from collections.abc import Callable

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "derivative_tensor",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "atan",
]


def _frozen_zeros(shape: tuple[int, ...]) -> np.ndarray:
    z = np.zeros(shape)
    z.flags.writeable = False
    return z


# _ZEROS[n] = read-only zero (grad, hess, third) for arity n; every derivative
# slot above a jet's order is one of these
_ZEROS = {n: tuple(_frozen_zeros((n,) * rank) for rank in (1, 2, 3)) for n in (1, 2, 3)}


class JetDomainError(ValueError):
    """An elementary function was evaluated where it is not differentiable."""

    def __init__(self, tag: str, value: float):
        super().__init__(f"{tag} is undefined or not differentiable at {value!r}")
        self.tag = tag
        self.value = value


# -- partial layout ------------------------------------------------------------------


@functools.cache
def _monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the monomials of degree <= 3, in layout order."""
    return tuple(
        tuple(axes.count(i) for i in range(n))
        for degree in range(4)
        for axes in itertools.combinations_with_replacement(range(n), degree)
    )


@functools.cache
def _slot_gather(n: int, rank: int) -> np.ndarray:
    """Positions of the rank-th derivative tensor's entries in ``c``."""
    position = {a: i for i, a in enumerate(_monomials(n))}
    idx = np.empty((n,) * rank, dtype=np.intp)
    for axes in itertools.product(range(n), repeat=rank):
        idx[axes] = position[tuple(axes.count(i) for i in range(n))]
    return idx


def derivative_tensor(coeffs: np.ndarray, n: int, rank: int) -> np.ndarray:
    """Rank-``rank`` derivative tensors from partials: the last axis of
    ``coeffs`` (one ``Jet.c``, or a stack of them) holds arity-``n`` jets of
    order >= ``rank`` and becomes ``rank`` axes of length ``n``."""
    return coeffs.take(_slot_gather(n, rank), axis=-1)


class Jet:
    """Value and partials of a scalar field at a chart point, read-only.

    ``c`` holds the partials in the layout of the module docstring.  The
    derivative tensors ``grad``, ``hess`` and ``third`` (symmetric under
    every index permutation) are fresh arrays gathered from ``c`` up to
    ``order`` and shared read-only zeros above it; the constructor takes
    them, symmetric, in the same form.  For a stack, ``value`` and every
    tensor gain a leading axis of one entry per row.
    """

    __slots__ = ("c", "n", "order")

    def __init__(
        self,
        n: int,
        order: int,
        value: float,
        grad: np.ndarray | None = None,
        hess: np.ndarray | None = None,
        third: np.ndarray | None = None,
    ):
        if n not in (1, 2, 3):
            raise ValueError(f"jet arity must be 1, 2 or 3, got {n}")
        if order not in (0, 1, 2, 3):
            raise ValueError(f"jet order must be between 0 and 3, got {order}")
        c = np.zeros(math.comb(n + order, n))
        c[0] = float(value)
        for rank, tensor in enumerate((grad, hess, third)[:order], start=1):
            if tensor is not None:
                c[_slot_gather(n, rank)] = np.asarray(tensor, dtype=float)
        c.flags.writeable = False
        self.c, self.n, self.order = c, n, order

    @classmethod
    def _view(cls, n: int, order: int, c: np.ndarray) -> "Jet":
        """The jet over the read-only partials ``c``, one row or a stack."""
        out = object.__new__(cls)
        out.c, out.n, out.order = c, n, order
        return out

    value = property(lambda self: float(c[0]) if (c := self.c).ndim == 1 else c[:, 0])
    grad = property(lambda self: self._slot(1))
    hess = property(lambda self: self._slot(2))
    third = property(lambda self: self._slot(3))

    def _slot(self, rank: int) -> np.ndarray:
        if rank > self.order:
            zero = _ZEROS[self.n][rank - 1]
            return zero if self.c.ndim == 1 else np.broadcast_to(zero, (len(self.c),) + zero.shape)
        return derivative_tensor(self.c, self.n, rank)

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


# -- float elementary functions --------------------------------------------------------


def _guard(tag: str, v, bad) -> None:
    """Raise JetDomainError if ``bad`` holds: ``v`` and ``bad`` are a float
    and a bool, or a 1-D array and a mask, whose first bad entry is named."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise JetDomainError(tag, float(v[bad.argmax()]))
    elif bad:
        raise JetDomainError(tag, v)


def _rows(f: Callable) -> Callable:
    """``f`` applied to each entry of a 1-D array, as a float."""
    return lambda v, *args: np.array([f(x, *args) for x in v.tolist()])


# math's functions and ``**``: for a float, and mapped over the entries of an array
_ONE = types.SimpleNamespace(
    **{f: getattr(math, f) for f in ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")},
    pow=operator.pow,
)
_ROWS = types.SimpleNamespace(**{name: _rows(f) for name, f in vars(_ONE).items()})


def _plain(x):
    """The functions for a plain float, ``_ONE``, or mapped over the entries
    of a 1-D float array, ``_ROWS``."""
    return _ROWS if isinstance(x, np.ndarray) else _ONE


def _int_pow(x, p: int):
    """x^p for a float or a float array, by one rule: square-and-multiply
    keeps the operation count small and deterministic, and a negative power
    is the reciprocal of the positive one."""
    if p == 0:
        return 1.0
    if p < 0:
        return 1.0 / _int_pow(x, -p)
    result = None
    base = x
    k = p
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _sign(x):
    """d|x|/dx, the constant -1 or 1, for a float or a 1-D float array; it
    refuses 0, where |x| has no derivative."""
    _guard("abs", x, x == 0.0)
    s = np.sign(x)  # a NaN stays NaN
    return s if isinstance(s, np.ndarray) else float(s)


def sin(x):
    return _plain(x).sin(x)


def cos(x):
    return _plain(x).cos(x)


def tan(x):
    return _plain(x).tan(x)


def exp(x):
    return _plain(x).exp(x)


def log(x):
    _guard("log", x, x <= 0.0)
    return _plain(x).log(x)


def sqrt(x):
    _guard("sqrt", x, x < 0.0)
    return _plain(x).sqrt(x)


def atan(x):
    return _plain(x).atan(x)
