"""Minimal expression language for surface components and profile functions.

Grammar (EBNF, whitespace insignificant):

    expression = term { ("+" | "-") term } ;
    term       = unary { ("*" | "/") unary } ;
    unary      = "-" unary | power ;
    power      = atom [ "^" unary ] ;            (* right associative *)
    atom       = NUMBER | IDENT | IDENT "(" expression ")" | "(" expression ")" ;
    NUMBER     = DIGIT+ ["." DIGIT*] [EXPONENT] | "." DIGIT+ [EXPONENT] ;
    EXPONENT   = ("e" | "E") ["+" | "-"] DIGIT+ ;

"^" binds tighter than unary minus, which binds tighter than "*" and "/",
so ``-s^2`` parses as ``-(s^2)``.  There is no implicit multiplication.
Identifiers must either be declared chart variables or one of the built-in
unary functions: sin, cos, tan, exp, log, sqrt, abs, atan.  Text nesting
deeper than _MAX_DEPTH levels is a syntax error.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

from .jet import Jet, jet_constant
from . import jet as _jet

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "FUNCTIONS",
    "parse_expr",
    "Program",
    "eval_expr",
    "eval_real",
    "to_text",
    "variables_of",
]

_FUNCTIONS = {
    "sin": _jet.sin,
    "cos": _jet.cos,
    "tan": _jet.tan,
    "exp": _jet.exp,
    "log": _jet.log,
    "sqrt": _jet.sqrt,
    "abs": abs,
    "atan": _jet.atan,
}
FUNCTIONS = tuple(_FUNCTIONS)


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation failed (domain error or missing variable binding)."""


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Const | Var | Neg | BinOp | Call


# -- tokenizer -------------------------------------------------------------------

_OPERATOR_CHARS = "+-*/^(),"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < size and text[i + 1].isdigit()):
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i < size and text[i] == ".":
                i += 1
                while i < size and text[i].isdigit():
                    i += 1
            if i < size and text[i] in "eE":
                j = i + 1
                if j < size and text[j] in "+-":
                    j += 1
                if j < size and text[j].isdigit():
                    i = j
                    while i < size and text[i].isdigit():
                        i += 1
            tokens.append(("number", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", size))
    return tokens


# -- parser ----------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 4  # unary minus binds between "*" and "^"

_BINARY_PREC = {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL,
                "^": _PREC_POW}

_MAX_DEPTH = 200  # nesting levels a parsed tree may have


class _Parser:
    """Returns each subtree with its depth: a node and a pair of parentheses
    count one level each."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        seen = set()
        for name in self.variables:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"variable name {name!r} shadows a function")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        node, _ = self.parse_expression(0, 0)
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return node

    def nest(self, level: int, offset: int) -> None:
        if level > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nests deeper than {_MAX_DEPTH} levels", offset)

    def parse_expression(self, min_prec: int, level: int) -> tuple[Expr, int]:
        self.nest(level, self.peek()[2])  # ``level`` levels below the root
        node, depth = self.parse_atom(level)
        while True:
            kind, text, offset = self.peek()
            if kind != "op" or text not in _BINARY_PREC:
                break
            prec = _BINARY_PREC[text]
            if prec < min_prec:
                break
            self.advance()
            # "^" is right associative
            right, right_depth = self.parse_expression(
                _PREC_POW if text == "^" else prec + 1, level + 1
            )
            node, depth = BinOp(text, node, right), 1 + max(depth, right_depth)
            self.nest(level + depth, offset)
        return node, depth

    def parse_atom(self, level: int) -> tuple[Expr, int]:
        kind, text, offset = self.advance()
        if kind == "number":
            return Const(float(text)), 0
        if kind == "op" and text == "-":
            # unary minus: tighter than * and /, looser than ^
            node, depth = self.parse_expression(_PREC_POW, level + 1)
            return Neg(node), depth + 1
        if kind == "op" and text == "(":
            node, depth = self.parse_expression(0, level + 1)
            self.expect_op(")")
            return node, depth + 1
        if kind == "ident":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                self.advance()
                args = [self.parse_expression(0, level + 1)]
                while True:
                    kind2, text2, offset2 = self.peek()
                    if kind2 == "op" and text2 == ",":
                        self.advance()
                        args.append(self.parse_expression(0, level + 1))
                        continue
                    break
                self.expect_op(")")
                if len(args) != 1:
                    raise ExprSyntaxError(
                        f"function {text!r} expects 1 argument, got {len(args)}",
                        offset,
                    )
                node, depth = args[0]
                return Call(text, node), depth + 1
            if text not in self.variables:
                raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
            return Var(text), 0
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", offset)
        raise ExprSyntaxError(f"unexpected token {text!r}", offset)


def parse_expr(text: str, variables: Sequence[str]) -> Expr:
    """Parse ``text`` into an expression tree over the declared variables.
    Trees nest at most _MAX_DEPTH levels, so the recursive printer, the
    dataclass repr, equality and hash stay well inside Python's stack."""
    return _Parser(text, variables).parse()


def variables_of(expr: Expr) -> frozenset[str]:
    """Names of the variables that actually occur in ``expr``."""
    match expr:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Neg(operand):
            return variables_of(operand)
        case BinOp(_, left, right):
            return variables_of(left) | variables_of(right)
        case Call(_, arg):
            return variables_of(arg)
    raise TypeError(f"not an expression node: {expr!r}")


# -- evaluation -------------------------------------------------------------------
#
# One Program serves both routes: a plain float is the order-0 case of a jet,
# so floats and jets meet the same power, division and error rules, and the
# jet route's value follows the float route's operations bit for bit.  A 1-D
# float array takes the float route entry by entry, each entry's bits those
# of its float; a division by zero follows numpy's error state there.


def _power(b: float | Jet, e: float | Jet) -> float | Jet:
    if isinstance(e, np.ndarray):  # a float array exponent: entry by entry
        pairs = zip(*(v.tolist() for v in np.broadcast_arrays(b, e)))
        return np.array([_power(x, y) for x, y in pairs])
    if isinstance(e, Jet) and not e.c[..., 1:].any():
        e = e.value  # a jet exponent that is constant after all
        if isinstance(e, np.ndarray):  # a stack: one exponent for every row
            if (e != e[0]).any():
                raise ExprEvalError("'^' with a constant exponent that differs between rows")
            e = float(e[0])
    if not isinstance(e, Jet) and float(e).is_integer():
        return _jet._int_pow(b, int(e))
    base = b.value if isinstance(b, Jet) else b
    if isinstance(base, np.ndarray):  # a stack: the first row at fault, if any
        base = float(base[(base <= 0.0).argmax()])
    if base <= 0.0:
        kind = "non-constant" if isinstance(e, Jet) else "non-integer"
        raise ExprEvalError(f"'^' with {kind} exponent needs a positive base, got {base!r}")
    return _jet.exp(e * _jet.log(b)) if isinstance(e, Jet) else _jet._plain(b).pow(b, e)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": _power}


def _load(env: Mapping[str, float | Jet], name: str) -> float | Jet:
    try:
        return env[name]
    except KeyError:
        raise ExprEvalError(f"unbound variable {name!r}") from None


class Program:
    """The trees ``roots`` as one straight-line program.  Its steps, each a
    function and the slots of its operands, are those of a walk of the trees,
    left operand first, except that a repeated subtree runs once (constants
    match by float bits); so the first step to fail is the walk's.  Called
    with an environment of floats, 1-D float arrays, single jets or stacks,
    it returns one value per root, a constant broadcast to the first bound
    array's or jet's shape.  Domain and range failures (math's
    ValueError and ArithmeticError, and JetDomainError) leave as
    ExprEvalError."""

    def __init__(self, roots: Sequence[Expr]):
        index: dict = {}  # float bits, a name or a step (fn, i, j) -> its slot
        self._slots: list = [None]  # slot 0 holds the environment
        self._code: list[tuple] = []  # (slot, fn, operand, operand or None)

        def slot(key, value=None) -> int:
            if key not in index:
                index[key] = len(self._slots)
                self._slots.append(value)
                if isinstance(key, tuple):
                    self._code.append((index[key], *key))
            return index[key]

        def emit(node: Expr) -> int:  # as deep as the tree, which the parser caps
            match node:
                case Const(value):
                    return slot(struct.pack("<d", value), value)
                case Var(name):
                    return slot((_load, 0, slot(name, name)))
                case Neg(arg):
                    return slot((operator.neg, emit(arg), None))
                case BinOp("/", left, right):  # reciprocal-multiply on both routes
                    a, one = emit(left), slot(struct.pack("<d", 1.0), 1.0)
                    return slot((operator.mul, a, slot((operator.truediv, one, emit(right)))))
                case BinOp(op, left, right):
                    return slot((_BINARY[op], emit(left), emit(right)))
                case Call(fn, arg):
                    return slot((_FUNCTIONS[fn], emit(arg), None))
            raise TypeError(f"not an expression node: {node!r}")

        self._outputs = [emit(root) for root in roots]

    def __call__(self, env: Mapping[str, float | Jet]) -> list[float | Jet]:
        slots = self._slots.copy()
        slots[0] = env
        try:
            for k, fn, i, j in self._code:
                slots[k] = fn(slots[i]) if j is None else fn(slots[i], slots[j])
        except (ValueError, ArithmeticError) as exc:
            raise ExprEvalError(str(exc)) from exc
        out = [slots[k] for k in self._outputs]
        probe = next(iter(env.values()), None)
        if isinstance(probe, Jet):
            rows = probe.c.shape[:-1]
            out = [v if isinstance(v, Jet) else
                   jet_constant(np.full(rows, v) if rows else v, probe.n, probe.order)
                   for v in out]
        elif isinstance(probe, np.ndarray):
            out = [v if isinstance(v, np.ndarray) else np.full(probe.shape, v) for v in out]
        return out


def eval_expr(expr: Expr, env: Mapping[str, Jet]) -> Jet:
    """Evaluate over jets.  ``env`` must bind every variable of the chart,
    all to single jets or all to stacks of one row count; a constant result
    is broadcast to that shape."""
    if not env:
        raise ExprEvalError("empty environment: jet arity and order are unknown")
    return Program((expr,))(env)[0]


def eval_real(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate over plain floats: the value eval_expr gives at order 0."""
    values = {name: float(v) for name, v in env.items()}
    return Program((expr,))(values)[0]


# -- pretty printer ----------------------------------------------------------------


def to_text(expr: Expr) -> str:
    """Render an expression; parse_expr(to_text(e)) reproduces ``e``.  The
    printer adds only the parentheses that precedence needs, which any text
    that parses to ``e`` has too, so printing never deepens the nesting."""

    def rec(node: Expr, parent_prec: int) -> str:
        match node:
            case Const(value):
                return repr(value)
            case Var(name):
                return name
            case Neg(operand):  # parses as an operand anywhere but left of "^": "--s", "s^-t"
                body = f"-{rec(operand, _PREC_POW)}"
                return f"({body})" if parent_prec > _PREC_POW else body
            case BinOp(op, left, right):
                prec = _BINARY_PREC[op]
                if op == "^":
                    body = f"{rec(left, prec + 1)}^{rec(right, prec)}"
                else:
                    body = f"{rec(left, prec)}{op}{rec(right, prec + 1)}"
                return f"({body})" if parent_prec > prec else body
            case Call(fn, arg):
                return f"{fn}({rec(arg, 0)})"
        raise TypeError(f"not an expression node: {node!r}")

    return rec(expr, 0)
