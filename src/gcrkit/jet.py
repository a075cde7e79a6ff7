"""Chart partials up to third order: their layout, and the read-only Jet view.

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
the expression language's elementary functions (``gcrkit.expr``) map
``math`` over the entries of an array, as numpy's ufuncs promise no match
with ``math``.

The independent test oracle, ``finite_difference_jet``, lives with the
tests (``tests/fd_oracle.py``): it estimates the derivative slots from
central differences of plain evaluations.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = ["Jet", "derivative_tensor"]


def _frozen_zeros(shape: tuple[int, ...]) -> np.ndarray:
    z = np.zeros(shape)
    z.flags.writeable = False
    return z


# _ZEROS[n] = read-only zero (grad, hess, third) for arity n; every derivative
# slot above a jet's order is one of these
_ZEROS = {n: tuple(_frozen_zeros((n,) * rank) for rank in (1, 2, 3)) for n in (1, 2, 3)}


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
