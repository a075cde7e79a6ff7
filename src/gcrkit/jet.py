"""Forward-mode jet arithmetic: truncated Taylor data up to fourth order.

A Jet carries a scalar value together with its partial derivatives up to
``order`` (at most 4) with respect to ``n`` chart variables (at most 3).
Arithmetic propagates derivatives exactly via the Leibniz and chain rules,
so no production code path touches a finite difference.  Jets are treated
as immutable values; no operation mutates its operands.

``finite_difference_jet`` is the independent test oracle.  It estimates the
same derivative slots from central differences of plain evaluations and must
never be used in a production code path.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "FiniteDifferenceError",
    "jet_variable",
    "jet_constant",
    "finite_difference_jet",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "atan",
]

_EPS = float(np.finfo(float).eps)


def _frozen_zeros(shape: tuple[int, ...]) -> np.ndarray:
    z = np.zeros(shape)
    z.flags.writeable = False
    return z


# _ZEROS[n] = read-only zero (grad, hess, third, fourth) for arity n; every
# slot above a jet's order is one of these, and no arithmetic touches it
_ZEROS = {
    n: tuple(_frozen_zeros((n,) * rank) for rank in (1, 2, 3, 4)) for n in (1, 2, 3)
}


class JetDomainError(ValueError):
    """An elementary function was evaluated where it is not differentiable."""

    def __init__(self, tag: str, value: float):
        super().__init__(f"{tag} is undefined or not differentiable at {value!r}")
        self.tag = tag
        self.value = value


class FiniteDifferenceError(RuntimeError):
    """The finite-difference stencil could not be evaluated."""


def _sym3(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    # symmetrized grad (x) hess contribution: g_i h_jk + g_j h_ik + g_k h_ij
    t = np.einsum("i,jk->ijk", grad, hess)
    return t + t.transpose(1, 0, 2) + t.transpose(2, 1, 0)


def _sym4(t: np.ndarray) -> np.ndarray:
    # t_ijkl + t_jikl + t_kijl + t_lijk for t symmetric in its last three
    # indices: the four placements of a grad index against a third slot
    return t + t.transpose(1, 0, 2, 3) + t.transpose(1, 2, 0, 3) + t.transpose(1, 2, 3, 0)


def _pairings(w: np.ndarray) -> np.ndarray:
    # w_ijkl + w_ikjl + w_iljk: the three splits of four indices into pairs
    return w + w.transpose(0, 2, 1, 3) + w.transpose(0, 2, 3, 1)


class Jet:
    """Truncated Taylor expansion of a scalar field at a chart point.

    Derivative slots above ``order`` are shared read-only zero arrays.
    ``hess`` is symmetric and ``third`` and ``fourth`` are symmetric under
    every index permutation; all operations preserve these properties.
    """

    __slots__ = ("n", "order", "value", "grad", "hess", "third", "fourth")

    def __init__(
        self,
        n: int,
        order: int,
        value: float,
        grad: np.ndarray | None = None,
        hess: np.ndarray | None = None,
        third: np.ndarray | None = None,
        fourth: np.ndarray | None = None,
    ):
        if n not in (1, 2, 3):
            raise ValueError(f"jet arity must be 1, 2 or 3, got {n}")
        if order not in (0, 1, 2, 3, 4):
            raise ValueError(f"jet order must be between 0 and 4, got {order}")
        self.n = n
        self.order = order
        self.value = float(value)
        zeros, given = _ZEROS[n], (grad, hess, third, fourth)
        self.grad, self.hess, self.third, self.fourth = (
            zeros[r] if r >= order or given[r] is None else np.asarray(given[r], dtype=float)
            for r in range(4)
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(
        cls, n: int, order: int, value: float, grad, hess, third, fourth
    ) -> "Jet":
        out = object.__new__(cls)
        out.n = n
        out.order = order
        out.value = value
        out.grad = grad
        out.hess = hess
        out.third = third
        out.fourth = fourth
        return out

    def _zero_like(self, value: float = 0.0) -> "Jet":
        return Jet._raw(self.n, self.order, value, *_ZEROS[self.n])

    def _coerce(self, other) -> "Jet | None":
        if isinstance(other, Jet):
            if other.n != self.n:
                raise ValueError(
                    f"jet arity mismatch: {self.n} versus {other.n}"
                )
            if other.order != self.order:
                raise ValueError(
                    f"jet order mismatch: {self.order} versus {other.order}"
                )
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._zero_like(float(other))
        return None

    # -- derived views --------------------------------------------------------

    def partial(self, axis: int) -> "Jet":
        """Jet of the partial derivative along ``axis``, one order lower."""
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} out of range for arity {self.n}")
        if self.order < 1:
            raise ValueError("cannot take a partial of an order-0 jet")
        n, order = self.n, self.order - 1
        z = _ZEROS[n]
        return Jet._raw(
            n,
            order,
            float(self.grad[axis]),
            self.hess[axis].copy() if order >= 1 else z[0],
            self.third[axis].copy() if order >= 2 else z[1],
            self.fourth[axis].copy() if order >= 3 else z[2],
            z[3],
        )

    def truncated(self, order: int) -> "Jet":
        """Copy of this jet with derivative data above ``order`` dropped."""
        if order > self.order:
            raise ValueError(f"cannot extend a jet of order {self.order} to {order}")
        z = _ZEROS[self.n]
        return Jet._raw(
            self.n,
            order,
            self.value,
            self.grad.copy() if order >= 1 else z[0],
            self.hess.copy() if order >= 2 else z[1],
            self.third.copy() if order >= 3 else z[2],
            self.fourth.copy() if order >= 4 else z[3],
        )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = self.order
        return Jet._raw(
            self.n,
            order,
            self.value + o.value,
            self.grad + o.grad if order >= 1 else self.grad,
            self.hess + o.hess if order >= 2 else self.hess,
            self.third + o.third if order >= 3 else self.third,
            self.fourth + o.fourth if order >= 4 else self.fourth,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = self.order
        return Jet._raw(
            self.n,
            order,
            self.value - o.value,
            self.grad - o.grad if order >= 1 else self.grad,
            self.hess - o.hess if order >= 2 else self.hess,
            self.third - o.third if order >= 3 else self.third,
            self.fourth - o.fourth if order >= 4 else self.fourth,
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        order = self.order
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = float(other)
            return Jet._raw(
                self.n,
                order,
                self.value * c,
                self.grad * c if order >= 1 else self.grad,
                self.hess * c if order >= 2 else self.hess,
                self.third * c if order >= 3 else self.third,
                self.fourth * c if order >= 4 else self.fourth,
            )
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        grad, hess, third, fourth = _ZEROS[self.n]
        if order >= 1:
            grad = a.value * b.grad + b.value * a.grad
        if order >= 2:
            cross = np.outer(a.grad, b.grad)
            hess = a.value * b.hess + b.value * a.hess + cross + cross.T
        if order >= 3:
            third = (
                a.value * b.third
                + b.value * a.third
                + _sym3(a.grad, b.hess)
                + _sym3(b.grad, a.hess)
            )
        if order >= 4:
            outer = np.multiply.outer
            fourth = (
                a.value * b.fourth
                + b.value * a.fourth
                + _sym4(outer(a.grad, b.third) + outer(b.grad, a.third))
                + _pairings(outer(a.hess, b.hess) + outer(b.hess, a.hess))
            )
        return Jet._raw(self.n, order, a.value * b.value, grad, hess, third, fourth)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self * (1.0 / float(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._reciprocal()

    def _reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise JetDomainError("reciprocal", v)
        iv = 1.0 / v
        return _compose(self, iv, -iv * iv, 2.0 * iv**3, -6.0 * iv**4, 24.0 * iv**5)

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
        if v == 0.0:
            raise JetDomainError("abs", v)
        return self if v > 0 else -self

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, value={self.value!r})"


def jet_variable(index: int, value: float, n: int, order: int) -> Jet:
    """Seed jet for chart variable ``index`` at ``value``.

    The gradient is the ``index``-th unit vector; all higher slots are zero.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"jet arity must be 1, 2 or 3, got {n}")
    if order not in (1, 2, 3, 4):
        raise ValueError(f"variable jets need order 1, 2, 3 or 4, got {order}")
    if not 0 <= index < n:
        raise ValueError(f"variable index {index} out of range for arity {n}")
    grad = np.zeros(n)
    grad[index] = 1.0
    _, hess, third, fourth = _ZEROS[n]
    return Jet._raw(n, order, float(value), grad, hess, third, fourth)


def jet_constant(value: float, n: int, order: int) -> Jet:
    """Constant jet: value with all derivative slots zero."""
    return Jet(n, order, float(value))


def _compose(g: Jet, f0: float, f1: float, f2: float, f3: float, f4: float) -> Jet:
    """Univariate chain rule (Faa di Bruno): jet of f(g) from the derivatives
    f0..f4 of f at g.value."""
    n, order = g.n, g.order
    grad, hess, third, fourth = _ZEROS[n]
    if order >= 1:
        grad = f1 * g.grad
    if order >= 2:
        hess = f1 * g.hess + f2 * np.outer(g.grad, g.grad)
    if order >= 3:
        third = (
            f1 * g.third
            + f2 * _sym3(g.grad, g.hess)
            + f3 * np.einsum("i,j,k->ijk", g.grad, g.grad, g.grad)
        )
    if order >= 4:
        outer = np.multiply.outer
        gg = np.outer(g.grad, g.grad)
        fourth = (
            f1 * g.fourth
            + f2 * (_sym4(outer(g.grad, g.third)) + _pairings(outer(g.hess, g.hess)))
            + f3 * _pairings(outer(gg, g.hess) + outer(g.hess, gg))
            + f4 * outer(gg, gg)
        )
    return Jet._raw(n, order, f0, grad, hess, third, fourth)


def _int_pow(x: Jet, p: int) -> Jet:
    if p == 0:
        return x._zero_like(1.0)
    if p < 0:
        return _int_pow(x, -p)._reciprocal()
    # square-and-multiply keeps the operation count small and deterministic
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
    v = x.value
    if v <= 0.0:
        raise JetDomainError("power", v)
    return _compose(
        x,
        v**p,
        p * v ** (p - 1.0),
        p * (p - 1.0) * v ** (p - 2.0),
        p * (p - 1.0) * (p - 2.0) * v ** (p - 3.0),
        p * (p - 1.0) * (p - 2.0) * (p - 3.0) * v ** (p - 4.0),
    )


# -- elementary functions ------------------------------------------------------


def sin(x: Jet | float):
    if not isinstance(x, Jet):
        return math.sin(x)
    s, c = math.sin(x.value), math.cos(x.value)
    return _compose(x, s, c, -s, -c, s)


def cos(x: Jet | float):
    if not isinstance(x, Jet):
        return math.cos(x)
    s, c = math.sin(x.value), math.cos(x.value)
    return _compose(x, c, -s, -c, s, c)


def tan(x: Jet | float):
    if not isinstance(x, Jet):
        return math.tan(x)
    t = math.tan(x.value)
    d = 1.0 + t * t
    return _compose(
        x, t, d, 2.0 * t * d, d * (2.0 + 6.0 * t * t), 8.0 * t * d * (2.0 + 3.0 * t * t)
    )


def exp(x: Jet | float):
    if not isinstance(x, Jet):
        return math.exp(x)
    e = math.exp(x.value)
    return _compose(x, e, e, e, e, e)


def log(x: Jet | float):
    if not isinstance(x, Jet):
        return math.log(x)
    v = x.value
    if v <= 0.0:
        raise JetDomainError("log", v)
    return _compose(x, math.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / v**3, -6.0 / v**4)


def sqrt(x: Jet | float):
    if not isinstance(x, Jet):
        return math.sqrt(x)
    v = x.value
    if v <= 0.0:
        raise JetDomainError("sqrt", v)
    r = math.sqrt(v)
    return _compose(
        x, r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r), -0.9375 / (v**3 * r)
    )


def atan(x: Jet | float):
    if not isinstance(x, Jet):
        return math.atan(x)
    v = x.value
    d = 1.0 + v * v
    return _compose(
        x,
        math.atan(v),
        1.0 / d,
        -2.0 * v / (d * d),
        (6.0 * v * v - 2.0) / d**3,
        24.0 * v * (1.0 - v * v) / d**4,
    )


# -- finite-difference oracle ----------------------------------------------------


def _fd_steps(p: np.ndarray, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scale = np.maximum(1.0, np.abs(p))
    if h is not None:
        base = np.broadcast_to(np.asarray(h, dtype=float), p.shape).copy()
        return base, base, base
    # Truncation/round-off balance differs per derivative order: the classic
    # cbrt(eps) step is right for first derivatives, but second and third
    # derivatives divide by h^2 and h^3, so they need wider stencils.
    return (
        _EPS ** (1.0 / 3.0) * scale,
        _EPS ** (1.0 / 4.0) * scale,
        _EPS ** (1.0 / 5.0) * scale,
    )


def finite_difference_jet(
    f: Callable[[np.ndarray], float],
    p: Sequence[float],
    h: float | Sequence[float] | None = None,
    order: int = 3,
) -> Jet:
    """Estimate a jet of ``f`` at ``p`` from central differences.

    Test oracle only: O(h^2) truncation error per slot, far too slow and too
    noisy for production use.  ``f`` must be evaluable on the full stencil
    (radius two steps along every axis).
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    if order not in (1, 2, 3):
        raise ValueError(f"finite-difference order must be 1, 2 or 3, got {order}")
    h1, h2, h3 = _fd_steps(p, h)

    def ev(*shifts: tuple[int, float]) -> float:
        q = p.copy()
        for axis, delta in shifts:
            q[axis] += delta
        try:
            return float(f(q))
        except Exception as exc:  # noqa: BLE001 - oracle boundary
            raise FiniteDifferenceError(
                f"stencil evaluation failed at {q.tolist()}"
            ) from exc

    f0 = ev()
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    third = np.zeros((n, n, n))

    for i in range(n):
        grad[i] = (ev((i, h1[i])) - ev((i, -h1[i]))) / (2.0 * h1[i])

    if order >= 2:
        for i in range(n):
            hess[i, i] = (ev((i, h2[i])) - 2.0 * f0 + ev((i, -h2[i]))) / h2[i] ** 2
            for j in range(i + 1, n):
                val = (
                    ev((i, h2[i]), (j, h2[j]))
                    - ev((i, h2[i]), (j, -h2[j]))
                    - ev((i, -h2[i]), (j, h2[j]))
                    + ev((i, -h2[i]), (j, -h2[j]))
                ) / (4.0 * h2[i] * h2[j])
                hess[i, j] = hess[j, i] = val

    if order >= 3:
        for i in range(n):
            third[i, i, i] = (
                ev((i, 2.0 * h3[i]))
                - 2.0 * ev((i, h3[i]))
                + 2.0 * ev((i, -h3[i]))
                - ev((i, -2.0 * h3[i]))
            ) / (2.0 * h3[i] ** 3)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # d^2/di^2 d/dj stencil for the iij slot
                val = (
                    ev((i, h3[i]), (j, h3[j]))
                    - 2.0 * ev((j, h3[j]))
                    + ev((i, -h3[i]), (j, h3[j]))
                    - ev((i, h3[i]), (j, -h3[j]))
                    + 2.0 * ev((j, -h3[j]))
                    - ev((i, -h3[i]), (j, -h3[j]))
                ) / (2.0 * h3[i] ** 2 * h3[j])
                third[i, i, j] = third[i, j, i] = third[j, i, i] = val
        if n == 3:
            val = 0.0
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    for sk in (1.0, -1.0):
                        val += si * sj * sk * ev(
                            (0, si * h3[0]), (1, sj * h3[1]), (2, sk * h3[2])
                        )
            third[0, 1, 2] = third[0, 2, 1] = third[1, 0, 2] = third[1, 2, 0] = third[
                2, 0, 1
            ] = third[2, 1, 0] = val / (8.0 * h3[0] * h3[1] * h3[2])

    return Jet(n, order, f0, grad, hess, third)
