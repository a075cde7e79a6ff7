"""Tensor-slot jets: an independent oracle for the coefficient-vector jets.

``gcrkit.jet`` propagates flat Taylor-coefficient vectors through one
table-driven product rule.  This module keeps the earlier representation,
one derivative tensor per order (value, grad, hess, third, fourth), with the
Leibniz rule written out term by term for products and Faa di Bruno's
formula for univariate compositions, so the two routes share no arithmetic
code.  Test use only.
"""

import math

import numpy as np


def _sym3(grad, hess):
    # g_i h_jk + g_j h_ik + g_k h_ij
    t = np.einsum("i,jk->ijk", grad, hess)
    return t + t.transpose(1, 0, 2) + t.transpose(2, 1, 0)


def _sym4(t):
    # t_ijkl + t_jikl + t_kijl + t_lijk for t symmetric in its last three
    # indices: the four placements of a grad index against a third slot
    return t + t.transpose(1, 0, 2, 3) + t.transpose(1, 2, 0, 3) + t.transpose(1, 2, 3, 0)


def _pairings(w):
    # w_ijkl + w_ikjl + w_iljk: the three splits of four indices into pairs
    return w + w.transpose(0, 2, 1, 3) + w.transpose(0, 2, 3, 1)


class TensorJet:
    """Value and derivative tensors up to ``order`` (at most 4); slots
    above the order stay zero."""

    def __init__(self, n, order, value, grad=None, hess=None, third=None, fourth=None):
        self.n = n
        self.order = order
        self.value = float(value)
        given = (grad, hess, third, fourth)
        self.grad, self.hess, self.third, self.fourth = (
            np.zeros((n,) * (r + 1)) if r >= order or given[r] is None
            else np.asarray(given[r], dtype=float)
            for r in range(4)
        )

    @classmethod
    def variable(cls, index, value, n, order):
        grad = np.zeros(n)
        grad[index] = 1.0
        return cls(n, order, value, grad)

    def _lift(self, other):
        if isinstance(other, TensorJet):
            assert (other.n, other.order) == (self.n, self.order)
            return other
        return TensorJet(self.n, self.order, float(other))

    def _new(self, value, grad, hess, third, fourth):
        return TensorJet(self.n, self.order, value, grad, hess, third, fourth)

    def __add__(self, other):
        o = self._lift(other)
        return self._new(self.value + o.value, self.grad + o.grad, self.hess + o.hess,
                         self.third + o.third, self.fourth + o.fourth)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.value, -self.grad, -self.hess, -self.third, -self.fourth)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        a, b = self, self._lift(other)
        cross = np.outer(a.grad, b.grad)
        outer = np.multiply.outer
        return self._new(
            a.value * b.value,
            a.value * b.grad + b.value * a.grad,
            a.value * b.hess + b.value * a.hess + cross + cross.T,
            a.value * b.third + b.value * a.third
            + _sym3(a.grad, b.hess) + _sym3(b.grad, a.hess),
            a.value * b.fourth + b.value * a.fourth
            + _sym4(outer(a.grad, b.third) + outer(b.grad, a.third))
            + _pairings(outer(a.hess, b.hess) + outer(b.hess, a.hess)),
        )

    __rmul__ = __mul__

    def reciprocal(self):
        iv = 1.0 / self.value
        return compose(self, iv, -iv * iv, 2.0 * iv**3, -6.0 * iv**4, 24.0 * iv**5)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def __pow__(self, p):
        if float(p).is_integer():
            k = int(p)
            if k < 0:
                return (self ** -k).reciprocal()
            out = TensorJet(self.n, self.order, 1.0)
            for _ in range(k):
                out = out * self
            return out
        v = self.value
        return compose(
            self, v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2),
            p * (p - 1) * (p - 2) * v ** (p - 3),
            p * (p - 1) * (p - 2) * (p - 3) * v ** (p - 4),
        )


def compose(g, f0, f1, f2, f3, f4):
    """Faa di Bruno: the jet of f(g) from the derivatives f0..f4 of f at
    g.value, written out slot by slot."""
    outer = np.multiply.outer
    gg = np.outer(g.grad, g.grad)
    return g._new(
        f0,
        f1 * g.grad,
        f1 * g.hess + f2 * gg,
        f1 * g.third + f2 * _sym3(g.grad, g.hess)
        + f3 * np.einsum("i,j,k->ijk", g.grad, g.grad, g.grad),
        f1 * g.fourth
        + f2 * (_sym4(outer(g.grad, g.third)) + _pairings(outer(g.hess, g.hess)))
        + f3 * _pairings(outer(gg, g.hess) + outer(g.hess, gg))
        + f4 * outer(gg, gg),
    )


def sin(x):
    s, c = math.sin(x.value), math.cos(x.value)
    return compose(x, s, c, -s, -c, s)


def cos(x):
    s, c = math.sin(x.value), math.cos(x.value)
    return compose(x, c, -s, -c, s, c)


def tan(x):
    t = math.tan(x.value)
    d = 1.0 + t * t
    return compose(x, t, d, 2.0 * t * d, d * (2.0 + 6.0 * t * t),
                   8.0 * t * d * (2.0 + 3.0 * t * t))


def exp(x):
    e = math.exp(x.value)
    return compose(x, e, e, e, e, e)


def log(x):
    v = x.value
    return compose(x, math.log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)


def sqrt(x):
    v = x.value
    r = math.sqrt(v)
    return compose(x, r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r),
                   -0.9375 / (v**3 * r))


def atan(x):
    v = x.value
    d = 1.0 + v * v
    return compose(x, math.atan(v), 1.0 / d, -2.0 * v / d**2, (6.0 * v * v - 2.0) / d**3,
                   24.0 * v * (1.0 - v * v) / d**4)
