"""The recursive tree walker that evaluated expressions before they were
compiled, kept as the reference for ``gcrkit.expr.Program``.

``_walk`` is the walker as it was: one recursive ``match`` over the tree
that evaluates every occurrence of a subtree again, and reads an
interpolant node (``_CurveAt``) once per occurrence too.  ``eval_expr`` and
``eval_real`` are its two routes, and ``eval_components`` evaluates a chart's
components one tree after another.  ``test_expr_oracle.py`` requires the
compiled program to agree with them bit for bit, and to fail with the same
error type and text.  The power rule and the function table are the
production ones, which the program shares with the walker.
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
from gcrkit.jet import Jet, jet_constant


def _walk(expr: Expr, env: Mapping[str, float | Jet]) -> float | Jet:
    """Evaluate over floats and jets; subtrees free of jets stay plain floats.
    Domain and range failures (math's ValueError and ArithmeticError, and
    JetDomainError) leave as ExprEvalError."""

    def rec(node: Expr) -> float | Jet:
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
            case _CurveAt(curve, name, index):
                return curve.evaluate(rec(Var(name)))[index]
        raise TypeError(f"not an expression node: {node!r}")

    try:
        return rec(expr)
    except (ValueError, ArithmeticError) as exc:
        raise ExprEvalError(str(exc)) from exc


def eval_expr(expr: Expr, env: Mapping[str, Jet]) -> Jet:
    """Evaluate over jets.  ``env`` must bind every variable of the chart,
    all to single jets or all to stacks of one row count; a constant result
    is broadcast to that shape."""
    if not env:
        raise ExprEvalError("empty environment: jet arity and order are unknown")
    out = _walk(expr, env)
    if isinstance(out, Jet):
        return out
    probe = next(iter(env.values()))
    value = out if probe.c.ndim == 1 else np.full(len(probe.c), out)
    return jet_constant(value, probe.n, probe.order)


def eval_real(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate over plain floats: the value eval_expr gives at order 0."""
    return _walk(expr, {name: float(v) for name, v in env.items()})


def eval_components(exprs: Sequence[Expr], env: Mapping) -> list:
    """The trees one after another, as evaluate_jets walked a chart's
    components: jets over jets, floats over floats."""
    if env and isinstance(next(iter(env.values())), Jet):
        return [eval_expr(e, env) for e in exprs]
    return [eval_real(e, env) for e in exprs]
