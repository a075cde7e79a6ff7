"""The recursive tree walker that evaluated expressions before they were
compiled, kept as the reference for ``gcrkit.expr.Program``.

``_walk`` is the walker as it was: one recursive ``match`` over the tree
that evaluates every occurrence of a subtree again, and reads an
interpolant node (``_CurveAt``) once per occurrence too.
``eval_components`` evaluates a chart's components, or their partial trees,
one tree after another, on floats or on 1-D float arrays.
``test_expr_oracle.py`` requires the compiled program to agree with it bit
for bit, and to fail with the same error type and text; a division by zero
names its divisor's node.  The power rule and
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
                a, b = rec(left), rec(right)
                try:
                    return _power(a, b)
                except ZeroDivisionError as exc:  # a negative power of 0
                    raise _zero_divisor(exc, left) from exc
            case BinOp(op, left, right):
                a, b = rec(left), rec(right)
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                try:
                    return a * (1.0 / b)  # reciprocal-multiply on both routes
                except ZeroDivisionError as exc:
                    raise _zero_divisor(exc, right) from exc
            case Call(fn, arg):
                return _FUNCTIONS[fn](rec(arg))
            case _CurveAt(curve, name, index, k):
                return curve.evaluate(rec(Var(name)), k)[index]
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return rec(expr)
    except (ValueError, ArithmeticError) as exc:
        raise ExprEvalError(str(exc)) from exc


def _zero_divisor(exc: ZeroDivisionError, divisor: Expr) -> ExprEvalError:
    """The error of a division by the zero value of the node ``divisor``,
    named by the node's kind."""
    match divisor:
        case Var(name):
            source = f"the variable {name}"
        case Const(value):
            source = f"the constant {value!r}"
        case Neg():
            source = "a result of '-'"
        case BinOp(op):
            source = f"a result of {op!r}"
        case Call(fn):
            source = f"a result of {fn}"
        case _:
            source = "a result of an interpolant"
    return ExprEvalError(f"{exc} (the divisor is {source})")


def eval_components(exprs: Sequence[Expr], env: Mapping) -> list:
    """The trees one after another, as evaluate_jets walked a chart's
    components: floats over floats, and over 1-D arrays one array per
    tree, a constant broadcast to their shape."""
    probe = next(iter(env.values()), None)
    out = [_walk(e, env) for e in exprs]
    if isinstance(probe, np.ndarray):
        out = [v if isinstance(v, np.ndarray) else np.full(probe.shape, v) for v in out]
    return out
