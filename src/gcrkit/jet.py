"""Forward-mode jet arithmetic: truncated Taylor data up to third order.

A Jet carries the Taylor coefficients of a scalar field at a chart point, up
to ``order`` (at most 3) in ``n`` chart variables (at most 3).  Arithmetic
propagates them exactly, so no production code path touches a finite
difference.  Jets are immutable values; no operation mutates its operands.

Layout: ``Jet.c`` is one flat vector, c[a] = d^a f / a! for each monomial
x^a of degree <= ``order`` (4, 10 or 20 entries for n = 3).  Monomials
are listed by degree, then by sorted variable-index tuple (1, x0, x1, x2,
x0^2, x0 x1, ...), so c[0] is the value and c[1:n+1] the gradient.

Point axis: ``c`` may be a stack (P, D) instead, one row per point, seeded
by ``jet_variable`` from an array of values; arithmetic and the domain checks
then run row by row, and a failed check names the first bad row's value.  A
single jet's elementary functions and real powers call ``math`` and ``**`` on
its value, as plain floats do; a stack maps the same calls over its value
column, so each row equals the single jet at its point bit for bit (numpy's
ufuncs promise no match with ``math``) and an overflow raises math's error.
The elementary functions also take a plain float, and a 1-D float array,
whose entries they map the same calls over: the order-0 case, with no
derivatives to carry.
Where a single jet adds, subtracts or multiplies by a number, a stack takes
a 1-D array instead, one number per row: on either side of + and *, on the
right of -.  numpy defers to the jet, so ``arr * stack`` is ``stack * arr``
bit for bit, and an array operand a jet does not take (``arr - stack``,
``arr / stack``, ``stack / arr``) raises TypeError.

Tables, built once per (n, order) on first use, drive all arithmetic: the
product (f g)[k] sums f[i] g[j] over the pairs whose monomials multiply to
monomial k, in one ``np.bincount``; a composition f(g) is a polynomial in the
nilpotent part g - g(p), in Horner form over the same product, save that a
function of a chart variable's seed (``jet_variable``, recognized by its
type) has its coefficients placed on that variable's pure powers, with the
bits Horner gives them.  ``grad``,
``hess`` and ``third`` are derivative tensors gathered from ``c`` and scaled
by a!, so they are exactly symmetric.  The product also multiplies
stacks of coefficient rows (..., D) row by row, over any leading axes that
broadcast, in one ``bincount`` over row-offset targets; each row sums the
same terms in the same order as a single product, so it equals it bit for
bit.  An operand of more than ``_ROW_CHUNK`` rows is multiplied that many
rows at a time, with the same bits.  Two 1-D vectors take the plain
single-jet call.

Prefix rule: the order-k layout and tables are prefixes of the order-(k+1)
ones, with pairs in row-major order, so every coefficient sums the same
terms in the same sequence at every order.  The slots an order-3 jet shares
with an order-2 jet are bit-identical to it, and a jet's value follows the
float operations of a plain evaluation exactly.

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
    "jet_variable",
    "jet_constant",
    "derivative_tensor",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "atan",
]

_SCALARS = (int, float, np.floating, np.integer)
_NUMBERS = _SCALARS + (np.ndarray,)  # a stack's +, - and * take one number per row


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


# -- coefficient layout and tables -------------------------------------------------


@functools.cache
def _monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the monomials of degree <= 3, in layout order."""
    return tuple(
        tuple(axes.count(i) for i in range(n))
        for degree in range(4)
        for axes in itertools.combinations_with_replacement(range(n), degree)
    )


@functools.cache
def _slot_gather(n: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions and a! of the rank-th derivative tensor's entries in ``c``."""
    position = {a: i for i, a in enumerate(_monomials(n))}
    idx = np.empty((n,) * rank, dtype=np.intp)
    fac = np.empty((n,) * rank)
    for axes in itertools.product(range(n), repeat=rank):
        a = tuple(axes.count(i) for i in range(n))
        idx[axes] = position[a]
        fac[axes] = math.prod(map(math.factorial, a))
    return idx, fac


def derivative_tensor(coeffs: np.ndarray, n: int, rank: int) -> np.ndarray:
    """Rank-``rank`` derivative tensors from Taylor coefficients: the last
    axis of ``coeffs`` (one ``Jet.c``, or a stack of them) holds arity-``n``
    jets of order >= ``rank`` and becomes ``rank`` axes of length ``n``."""
    idx, fac = _slot_gather(n, rank)
    return coeffs.take(idx, axis=-1) * fac


class _Table:
    """Product and partial-derivative tables for jets of one (n, order)."""

    def __init__(self, n: int, order: int):
        self.n, self.order = n, order
        self.size = math.comb(n + order, n)
        monos = _monomials(n)[: self.size]
        position = {a: i for i, a in enumerate(monos)}
        pairs = [
            (position[tuple(map(sum, zip(a, b)))], i, j)
            for i, a in enumerate(monos)
            for j, b in enumerate(monos)
            if sum(a) + sum(b) <= order
        ]
        self.target, self.left, self.right = map(np.array, zip(*pairs))
        # coefficient a of the partial along axis k is (a_k + 1) c[a + e_k]:
        # c[..., partial_src] * partial_fac stacks all n partials on one axis
        lower = monos[: math.comb(n + order - 1, n)] if order else ()
        self.partial_src = np.array(
            [[position[a[:k] + (a[k] + 1,) + a[k + 1 :]] for a in lower] for k in range(n)],
            dtype=np.intp,
        )
        self.partial_fac = np.array([[a[k] + 1.0 for a in lower] for k in range(n)])
        # powers[i][d - 1] is the slot of x_i^d, where a function of variable
        # i's seed keeps its Taylor coefficients
        self.powers = tuple(
            tuple(position[tuple(d * (j == i) for j in range(n))] for d in range(1, order + 1))
            for i in range(n)
        )
        self._row_targets: dict[int, np.ndarray] = {}

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of the product of two jets ``(D,)``, or row by row of
        two stacks ``(..., D)`` over any leading axes, broadcast against each
        other (so one side may be a single jet)."""
        if a.ndim == 1 and b.ndim == 1:
            return np.bincount(self.target, a[self.left] * b[self.right], self.size)
        if max(a.size // a.shape[-1], b.size // b.shape[-1]) > _ROW_CHUNK:
            # the terms take len(self.target) floats a row: multiply a tall
            # stack a chunk of rows at a time
            lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
            rows = math.prod(lead)
            a, b = (np.broadcast_to(x, (*lead, x.shape[-1])).reshape(rows, -1) for x in (a, b))
            out = np.empty((rows, self.size))
            for i in range(0, rows, _ROW_CHUNK):
                chunk = slice(i, i + _ROW_CHUNK)
                out[chunk] = self.product(a[chunk], b[chunk])
            return out.reshape(*lead, self.size)
        terms = a[..., self.left] * b[..., self.right]
        *lead, _ = terms.shape
        rows = math.prod(lead)
        target = self._row_targets.get(rows)
        if target is None:
            target = (self.size * np.arange(rows)[:, None] + self.target).ravel()
            self._row_targets[rows] = target
        return np.bincount(target, terms.ravel(), rows * self.size).reshape(*lead, self.size)


_table = functools.cache(_Table)


# Operands of more rows are multiplied this many rows at a time, which bounds
# the product's transient terms and the row targets a table keeps.
_ROW_CHUNK = 256

_COLUMN0 = (slice(None), 0)  # a stack's value column


def _make(t: _Table, c: np.ndarray) -> "Jet":
    out = object.__new__(Jet)
    out.c, out._t = c, t
    return out


class Jet:
    """Truncated Taylor expansion of a scalar field at a chart point.

    ``c`` holds the Taylor coefficients in the layout of the module
    docstring.  The derivative tensors ``grad``, ``hess`` and ``third``
    (symmetric under every index permutation) are fresh arrays derived from
    ``c`` up to ``order`` and shared read-only zeros above it; the
    constructor takes them, symmetric, in the same form.  For a stack,
    ``value`` and every tensor gain a leading axis of one entry per row.
    """

    __slots__ = ("c", "_t")
    __array_ufunc__ = None  # an array operand defers to the jet's own operators

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
        self._t = _table(n, order)
        self.c = np.zeros(self._t.size)
        self.c[0] = float(value)
        for rank, tensor in enumerate((grad, hess, third)[:order], start=1):
            if tensor is not None:
                idx, fac = _slot_gather(n, rank)
                self.c[idx] = np.asarray(tensor, dtype=float) / fac

    # -- derived views --------------------------------------------------------

    n = property(lambda self: self._t.n)
    order = property(lambda self: self._t.order)
    value = property(lambda self: float(c[0]) if (c := self.c).ndim == 1 else c[:, 0])
    grad = property(lambda self: self._slot(1))
    hess = property(lambda self: self._slot(2))
    third = property(lambda self: self._slot(3))

    def _slot(self, rank: int) -> np.ndarray:
        if rank > self._t.order:
            zero = _ZEROS[self._t.n][rank - 1]
            return zero if self.c.ndim == 1 else np.broadcast_to(zero, (len(self.c),) + zero.shape)
        return derivative_tensor(self.c, self._t.n, rank)

    # -- arithmetic ------------------------------------------------------------

    def _same(self, other: "Jet") -> "Jet":
        t, o = self._t, other._t
        if o.n != t.n:
            raise ValueError(f"jet arity mismatch: {t.n} versus {o.n}")
        if o.order != t.order:
            raise ValueError(f"jet order mismatch: {t.order} versus {o.order}")
        return other

    def _shifted(self, c: np.ndarray, value: float) -> "Jet":
        c[_COLUMN0 if c.ndim == 2 else 0] += value  # the value slot only
        return _make(self._t, c)

    def __add__(self, other):
        if isinstance(other, Jet):
            return _make(self._t, self.c + self._same(other).c)
        if isinstance(other, _NUMBERS):
            return self._shifted(self.c.copy(), other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return _make(self._t, self.c - self._same(other).c)
        if isinstance(other, _NUMBERS):
            return self._shifted(self.c.copy(), -other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return self._shifted(-self.c, other)  # -v + s is s - v exactly
        return NotImplemented

    def __neg__(self):
        return _make(self._t, -self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return _make(self._t, self._t.product(self.c, self._same(other).c))
        if isinstance(other, _SCALARS):
            return _make(self._t, self.c * other)
        if isinstance(other, np.ndarray):  # one number per row of a stack
            return _make(self._t, self.c * other[:, None])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * self._same(other)._reciprocal()
        if isinstance(other, _SCALARS):
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self) -> "Jet":
        v, m = _arg(self)
        _guard("reciprocal", v, v == 0.0)
        iv = 1.0 / v
        return _compose(self, iv, -iv * iv, 2.0 * m.pow(iv, 3), -6.0 * m.pow(iv, 4))

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            return _int_pow(self, int(p))
        if isinstance(p, (float, np.floating)):
            if float(p).is_integer():
                return _int_pow(self, int(p))
            return _real_pow(self, float(p))
        return NotImplemented

    def __abs__(self):
        v = self.value
        _guard("abs", v, v == 0.0)
        if self.c.ndim == 2:
            return _make(self._t, np.where((v > 0)[:, None], self.c, -self.c))
        return self if v > 0 else -self

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


class _Seed(Jet):
    """The seed jet of chart variable ``index``: the unit vector of that
    variable's slot, below a value.  Arithmetic on it gives plain jets
    (``_make``); ``_compose`` reads the mark."""

    __slots__ = ("index",)


def jet_variable(index: int, value, n: int, order: int) -> Jet:
    """Seed jet for chart variable ``index`` at ``value``.

    The gradient is the ``index``-th unit vector; all higher slots are zero.
    A 1-D array of values seeds a stack with one row per value.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"jet arity must be 1, 2 or 3, got {n}")
    if order not in (1, 2, 3):
        raise ValueError(f"variable jets need order 1, 2 or 3, got {order}")
    if not 0 <= index < n:
        raise ValueError(f"variable index {index} out of range for arity {n}")
    t = _table(n, order)
    out = object.__new__(_Seed)
    out.c, out._t, out.index = _seeded(value, t), t, index
    out.c[..., 1 + index] = 1.0
    return out


def jet_constant(value, n: int, order: int) -> Jet:
    """Constant jet: value with all derivative slots zero; a 1-D array of
    values gives a stack with one row per value."""
    t = Jet(n, order, 0.0)._t  # validates n and order
    return _make(t, _seeded(value, t))


def _seeded(value, t: _Table) -> np.ndarray:
    """Zero coefficients with ``value`` in the value slot: one vector for a
    number, one row per entry of a 1-D array."""
    if isinstance(value, _SCALARS):
        c = np.zeros(t.size)
        c[0] = value
        return c
    value = np.asarray(value, dtype=float)
    if value.ndim > 1:
        raise ValueError(f"jet values must be a number or a 1-D array, got {value!r}")
    c = np.zeros(value.shape + (t.size,))
    c[..., 0] = value
    return c


def _guard(tag: str, v, bad) -> None:
    """Raise JetDomainError if ``bad`` holds: ``v`` and ``bad`` are a float
    and a bool for one jet, the value column and a row mask for a stack, whose
    first bad row is named."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise JetDomainError(tag, float(v[bad.argmax()]))
    elif bad:
        raise JetDomainError(tag, v)


def _rows(f: Callable) -> Callable:
    """``f`` applied to each entry of a stack's value column, as a float."""
    return lambda v, *args: np.array([f(x, *args) for x in v.tolist()])


# math's functions and ``**``: for one jet's value, and mapped over the value
# column of a stack
_ONE = types.SimpleNamespace(
    **{f: getattr(math, f) for f in ("sin", "cos", "tan", "exp", "log", "sqrt", "atan")},
    pow=operator.pow,
)
_ROWS = types.SimpleNamespace(**{name: _rows(f) for name, f in vars(_ONE).items()})


def _plain(x):
    """The functions for a plain float, ``_ONE``, or mapped over the entries
    of a 1-D float array, ``_ROWS``."""
    return _ROWS if isinstance(x, np.ndarray) else _ONE


def _arg(x: Jet):
    """A jet's value and the functions that act on it: one jet's float with
    ``_ONE``, or a stack's value column with ``_ROWS``."""
    c = x.c
    return (float(c[0]), _ONE) if c.ndim == 1 else (c[:, 0], _ROWS)


def _compose(g: Jet, f0: float, f1: float, f2: float, f3: float) -> Jet:
    """Univariate chain rule: jet of f(g) from the derivatives f0..f3 of f at
    g.value.  With the nilpotent part h = g - g.value and a_k = f_k / k!,
    f(g) = a_0 + h (a_1 + h (a_2 + ...)) in Horner form; h^k has no terms
    below degree k, so the series stops at the jet order.

    Of a seed of variable i, h is x_i, so a_k belongs on the slot of x_i^k
    and every other slot is 0.  From order 2 on, Horner reaches every slot
    through products whose bincount sums start from +0.0, so placing
    a_k + 0.0 there and +0.0 elsewhere gives its bits (a -0.0 coefficient
    comes out +0.0 both ways).  At order 1 Horner runs no product and its
    zero slots keep a_1's sign, so a seed takes Horner's route there; so
    does a non-finite a_k, which the products spread into NaNs (with
    numpy's warnings)."""
    t = g._t
    stack = g.c.ndim == 2  # f0..f3 are then arrays with one entry per row
    if t.order == 0:
        return _make(t, f0[:, None].copy() if stack else np.array([f0]))
    a = (f0, f1, 0.5 * f2, f3 / 6.0)
    if type(g) is _Seed and t.order >= 2 and _finite(a[1 : t.order + 1], stack):
        out = np.zeros(g.c.shape)
        column = out.T  # column[k] is slot k, of one jet or of every row
        column[0] = f0
        for ak, slot in zip(a[1:], t.powers[g.index]):
            column[slot] = ak + 0.0
        return _make(t, out)
    v0 = _COLUMN0 if stack else 0
    h = g.c.copy()
    h[v0] = 0.0
    out = h * (a[t.order][:, None] if stack else a[t.order])
    out[v0] = a[t.order - 1]
    for k in range(t.order - 2, -1, -1):
        out = t.product(out, h)
        out[v0] = a[k]
    return _make(t, out)


def _finite(values: tuple, stack: bool) -> bool:
    """Whether every float, or every entry of every array of a stack, is finite."""
    if stack:
        return all(np.isfinite(v).all() for v in values)
    return all(map(math.isfinite, values))


def _int_pow(x: float | Jet, p: int) -> float | Jet:
    """x^p for a jet or a plain float, by one rule: square-and-multiply
    keeps the operation count small and deterministic, and a negative power
    is the reciprocal of the positive one."""
    if p == 0:
        return jet_constant(np.ones(x.c.shape[:-1]), x.n, x.order) if isinstance(x, Jet) else 1.0
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


def _real_pow(x: Jet, p: float) -> Jet:
    v, m = _arg(x)
    _guard("power", v, v <= 0.0)
    return _compose(
        x,
        m.pow(v, p),
        p * m.pow(v, p - 1.0),
        p * (p - 1.0) * m.pow(v, p - 2.0),
        p * (p - 1.0) * (p - 2.0) * m.pow(v, p - 3.0),
    )


def _sign(x: float | Jet) -> float | Jet:
    """d|x|/dx, the constant -1 or 1, for a float, a 1-D float array, a jet or
    a stack; like a jet's abs, it refuses 0 on every route."""
    v = x.value if isinstance(x, Jet) else x
    _guard("abs", v, v == 0.0)
    s = np.sign(v)  # a NaN stays NaN
    if isinstance(x, Jet):
        return jet_constant(s, x.n, x.order)
    return s if isinstance(s, np.ndarray) else float(s)


# -- elementary functions ------------------------------------------------------
#
# sin, cos, tan, exp, log, sqrt and atan also take a plain float, the order-0
# case: it gets the float value alone, with no derivatives to carry, and a 1-D
# float array gets each entry's float value.  A float argument needs only to
# lie in the function's domain; a jet must be differentiable there too, which
# excludes sqrt at 0.


def sin(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        return _plain(x).sin(x)
    v, m = _arg(x)
    s, c = m.sin(v), m.cos(v)
    return _compose(x, s, c, -s, -c)


def cos(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        return _plain(x).cos(x)
    v, m = _arg(x)
    s, c = m.sin(v), m.cos(v)
    return _compose(x, c, -s, -c, s)


def tan(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        return _plain(x).tan(x)
    v, m = _arg(x)
    t = m.tan(v)
    d = 1.0 + t * t
    return _compose(x, t, d, 2.0 * t * d, d * (2.0 + 6.0 * t * t))


def exp(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        return _plain(x).exp(x)
    v, m = _arg(x)
    e = m.exp(v)
    return _compose(x, e, e, e, e)


def log(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        _guard("log", x, x <= 0.0)
        return _plain(x).log(x)
    v, m = _arg(x)
    _guard("log", v, v <= 0.0)
    return _compose(x, m.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / m.pow(v, 3))


def sqrt(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        _guard("sqrt", x, x < 0.0)
        return _plain(x).sqrt(x)
    v, m = _arg(x)
    _guard("sqrt", v, v <= 0.0)
    r = m.sqrt(v)
    return _compose(x, r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))


def atan(x: float | Jet) -> float | Jet:
    if not isinstance(x, Jet):
        return _plain(x).atan(x)
    v, m = _arg(x)
    d = 1.0 + v * v
    return _compose(
        x,
        m.atan(v),
        1.0 / d,
        -2.0 * v / (d * d),
        (6.0 * v * v - 2.0) / m.pow(d, 3),
    )
