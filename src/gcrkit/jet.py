"""Chart partials up to third order: their layout.

The partials of a scalar field at a chart point, up to ``order`` (at most 3)
in ``n`` chart variables (at most 3), come from derivative trees
(``expr._partials``) that one program evaluates on plain floats, so no
production code path touches a finite difference.

Layout: the partials are one flat row c, c[a] = d^a f for each monomial x^a
of degree <= ``order`` (4, 10 or 20 entries for n = 3).  Monomials are
listed by degree, then by sorted variable-index tuple (1, x0, x1, x2,
x0^2, x0 x1, ...), so c[0] is the value and c[1:n+1] the gradient.  The
order-k layout is a prefix of the order-(k+1) one.  ``derivative_tensor``
gathers the rank-k tensor from c, one slot for every permutation of a
multi-index, so it is exactly symmetric.

Point axis: c may be a stack (P, D) instead, one row per point, from one
run of the same program on float arrays.  Each row equals the partials at
its point alone bit for bit: numpy's float arithmetic rounds as Python's,
and the expression language's elementary functions (``gcrkit.expr``) map
``math`` over the entries of an array, as numpy's ufuncs promise no match
with ``math``.

The independent test oracle, ``finite_difference_jet``, lives with the
tests (``tests/fd_oracle.py``): it estimates the derivative tensors from
central differences of plain evaluations.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["derivative_tensor"]


@functools.cache
def _monomials(n: int, order: int = 3) -> tuple[tuple[int, ...], ...]:
    """The monomials of degree <= ``order`` in ``n`` variables, each as its
    sorted variable-index tuple, in layout order."""
    return tuple(
        axes
        for degree in range(order + 1)
        for axes in itertools.combinations_with_replacement(range(n), degree)
    )


@functools.cache
def _slot_gather(n: int, rank: int) -> np.ndarray:
    """Positions of the rank-th derivative tensor's entries in c."""
    position = {a: i for i, a in enumerate(_monomials(n))}
    idx = np.empty((n,) * rank, dtype=np.intp)
    for axes in itertools.product(range(n), repeat=rank):
        idx[axes] = position[tuple(sorted(axes))]
    return idx


def derivative_tensor(coeffs: np.ndarray, n: int, rank: int) -> np.ndarray:
    """Rank-``rank`` derivative tensors from partials: the last axis of
    ``coeffs`` (one row c, or a stack of them) holds arity-``n`` partials of
    order >= ``rank`` and becomes ``rank`` axes of length ``n``."""
    return coeffs.take(_slot_gather(n, rank), axis=-1)
