"""The recursive tree walker that evaluated expressions before they were
compiled, kept as the reference for ``gcrkit.expr.Program``.

``_walk`` is the walker as it was: one recursive ``match`` over the tree
that evaluates every occurrence of a subtree again, and reads an
interpolant node (``_CurveAt``) once per occurrence too.
``eval_components`` evaluates a chart's components, or their partial trees,
one tree after another, on floats or on 1-D float arrays.
``test_expr_oracle.py`` requires the compiled program to agree with it bit
for bit, and to fail with the same error type and text.  The power rule and
the function table are the production ones, which the program shares with
the walker.
"""

from collections.abc import Mapping, Sequence

import numpy as np

from gcrkit.expr import (
    _FUNCTIONS,
    BinOp,
    Call,
    Const,
    Expr,
    ExprEvalError,
    Neg,
    Var,
    _CurveAt,
    _power,
)


def _walk(expr: Expr, env: Mapping):
    """Evaluate over floats or 1-D float arrays.  Domain and range failures
    (math's ValueError and ArithmeticError, and JetDomainError) leave as
    ExprEvalError."""

    def rec(node: Expr):
        match node:
            case Const(value):
                return value
            case Var(name):
                try:
                    return env[name]
                except KeyError:
                    raise ExprEvalError(f"unbound variable {name!r}") from None
            case Neg(operand):
                return -rec(operand)
            case BinOp("^", left, right):
                return _power(rec(left), rec(right))
            case BinOp(op, left, right):
                a, b = rec(left), rec(right)
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                return a * (1.0 / b)  # reciprocal-multiply on both routes
            case Call(fn, arg):
                return _FUNCTIONS[fn](rec(arg))
            case _CurveAt(curve, name, index, k):
                return curve.evaluate(rec(Var(name)), k)[index]
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return rec(expr)
    except (ValueError, ArithmeticError) as exc:
        raise ExprEvalError(str(exc)) from exc


def eval_components(exprs: Sequence[Expr], env: Mapping) -> list:
    """The trees one after another, as evaluate_jets walked a chart's
    components: floats over floats, and over 1-D arrays one array per
    tree, a constant broadcast to their shape."""
    probe = next(iter(env.values()), None)
    out = [_walk(e, env) for e in exprs]
    if isinstance(probe, np.ndarray):
        out = [v if isinstance(v, np.ndarray) else np.full(probe.shape, v) for v in out]
    return out
