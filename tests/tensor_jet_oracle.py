"""Tensor-slot jets: an independent oracle for the chart partials.

``gcrkit`` takes a chart's partials from derivative trees (``expr._partials``)
that one program evaluates on floats.  This module keeps forward-mode
propagation instead, one derivative tensor per order (value, grad, hess,
third, fourth), with the Leibniz rule written out term by term for products
and Faa di Bruno's formula for univariate compositions, so the two routes
share no differentiation code.  ``evaluate`` runs an expression tree of
``gcrkit.expr`` over them, and ``partial_rows`` lays a jet's tensors out as
one row of ``gcrkit.geometry.evaluate_jets`` (the layout of ``gcrkit.jet``).
Test use only.
"""

import functools
import itertools
import math
import operator

import numpy as np

from gcrkit.expr import BinOp, Call, Const, Neg, Var


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


def partial_rows(x, order):
    """The partials of ``x`` up to ``order`` in the layout of ``gcrkit.jet``: by
    degree, then by sorted variable-index tuple."""
    tensors = (x.grad, x.hess, x.third, x.fourth)
    return np.array([x.value] + [
        tensors[degree - 1][axes] for degree in range(1, order + 1)
        for axes in itertools.combinations_with_replacement(range(x.n), degree)])


# -- expression trees ---------------------------------------------------------------


@functools.cache
def _factorials(n, rank):
    # a! for the monomial of each entry of a rank-``rank`` tensor in n variables
    return np.array([math.prod(math.factorial(axes.count(i)) for i in range(n))
                     for axes in itertools.product(range(n), repeat=rank)]).reshape((n,) * rank)


def _largest_coefficient(x):
    """The largest Taylor coefficient |d^a f / a!| of a tensor jet."""
    tensors = (x.grad, x.hess, x.third, x.fourth)
    return max([abs(x.value)] + [float(np.max(np.abs(t) / _factorials(x.n, r)))
                                 for r, t in enumerate(tensors, start=1)])


def _int_pow(x, p):
    # x^p by square-and-multiply, as the production power rule takes it
    if p < 0:
        return 1.0 / _int_pow(x, -p)
    out, base = 1.0, x
    while p:
        if p & 1:
            out = base * out
        p >>= 1
        if p:
            base = base * base
    return out


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_FUNCTIONS = {f.__name__: f for f in (sin, cos, tan, exp, log, sqrt, atan)}


def evaluate(tree, env, steps=None):
    """A ``gcrkit.expr`` tree over tensor jets and floats, with the
    production rules for division (a reciprocal-multiply) and powers; a
    subtree free of jets stays a float, and a constant tree gives a constant
    jet of the environment's arity and order.  Domain and range failures
    raise math's ValueError and ArithmeticError.  The largest Taylor
    coefficient of each jet step is appended to ``steps``, if given."""

    def rec(node):
        match node:
            case Const(value):
                out = value
            case Var(name):
                out = env[name]
            case Neg(a):
                out = -rec(a)
            case BinOp("/", a, b):
                out = rec(a) * (1.0 / rec(b))
            case BinOp("^", a, b):
                base, e = rec(a), rec(b)
                if isinstance(e, TensorJet) and not any(
                        t.any() for t in (e.grad, e.hess, e.third, e.fourth)):
                    e = e.value  # a jet exponent that is constant after all
                if isinstance(e, TensorJet):
                    # exp(b log a), every derivative of exp at the value a^b,
                    # taken with ** as a plain evaluation takes it: exp of the
                    # rounded b log a can be off in the last places, which a
                    # steep outer function such as tan amplifies
                    g = e * (log(base) if isinstance(base, TensorJet) else math.log(base))
                    p = (base.value if isinstance(base, TensorJet) else base) ** e.value
                    out = compose(g, p, p, p, p, p)
                elif float(e).is_integer():
                    out = _int_pow(base, int(e))
                else:
                    out = base**e
            case BinOp(op, a, b):
                out = _ARITHMETIC[op](rec(a), rec(b))
            case Call("abs", a):
                x = rec(a)
                out = (-x if x.value < 0.0 else x) if isinstance(x, TensorJet) else abs(x)
            case Call(fn, a):
                x = rec(a)
                out = _FUNCTIONS[fn](x) if isinstance(x, TensorJet) else getattr(math, fn)(x)
        if steps is not None and isinstance(out, TensorJet):
            steps.append(_largest_coefficient(out))
        return out

    out = rec(tree)
    if isinstance(out, TensorJet):
        return out
    probe = next(iter(env.values()))
    return TensorJet(probe.n, probe.order, out)
