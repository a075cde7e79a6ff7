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
deeper than _MAX_DEPTH levels is a syntax error.  This module owns those
functions: ``_FUNCTIONS`` maps each name to ``math``'s function on a float,
mapped over the entries of a float array, and refused outside its domain
(log at x <= 0, sqrt at x < 0) with a ValueError.

A Program runs trees on floats or on 1-D float arrays.  ``_derivative``
builds the tree of a partial derivative, and ``_partials`` the trees of
every partial of a chart up to an order, which one Program evaluates: the
one derivative mechanism of the package.  Deriving and compiling walk on
explicit stacks, so derivative trees may nest far deeper than parsed ones.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

import numpy as np

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
    "to_text",
    "variables_of",
]


# -- elementary functions ----------------------------------------------------------
#
# Each takes a plain float, or a 1-D float array whose entries it maps the
# same ``math`` call over, so that each entry keeps its float's bits.  An
# argument needs only to lie in the function's domain: a derivative that
# divides by zero (sqrt at 0) fails at its own division.


def _guard(tag: str, v, bad) -> None:
    """Raise ValueError if ``bad`` holds: ``v`` and ``bad`` are a float and a
    bool, or a 1-D array and a mask, whose first bad entry is named."""
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        v = float(v[bad.argmax()])
    elif not bad:
        return
    raise ValueError(f"{tag} is undefined or not differentiable at {v!r}")


def _elementary(f, bad=None):
    """``math``'s one-argument ``f`` for a float or a 1-D float array,
    refused where ``bad`` of its argument holds."""
    tag = f.__name__

    def apply(x):
        if bad is not None:
            _guard(tag, x, bad(x))
        if isinstance(x, np.ndarray):
            return np.array([f(v) for v in x.tolist()])
        return f(x)

    return apply


def _sign(x):
    """d|x|/dx, the constant -1 or 1, for a float or a 1-D float array; it
    refuses 0, where |x| has no derivative."""
    _guard("abs", x, x == 0.0)
    s = np.sign(x)  # a NaN stays NaN
    return s if isinstance(s, np.ndarray) else float(s)


def _int_pow(x, p: int):
    """x^p for a float or a float array, by one rule: square-and-multiply
    keeps the operation count small and deterministic, and a negative power
    is the reciprocal of the positive one."""
    if p == 0:
        return 1.0
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


_FUNCTIONS = {
    "sin": _elementary(math.sin),
    "cos": _elementary(math.cos),
    "tan": _elementary(math.tan),
    "exp": _elementary(math.exp),
    "log": _elementary(math.log, lambda x: x <= 0.0),
    "sqrt": _elementary(math.sqrt, lambda x: x < 0.0),
    "abs": abs,
    "atan": _elementary(math.atan),
}
FUNCTIONS = tuple(_FUNCTIONS)
_FUNCTIONS["sign"] = _sign  # d|a|/da in derivative trees, not in the grammar


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


@dataclass(frozen=True)
class _CurveAt:
    """Component ``index`` of the ``k``-th derivative of ``curve`` (a
    catalog HermiteCurve, through ``curve.evaluate(x, k)``) at ``var``: not
    in the spec grammar.  A Program evaluates each curve once per variable
    and derivative order."""

    curve: object
    var: str
    index: int
    k: int = 0


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
# One Program serves both routes: plain floats, and 1-D float arrays, whose
# entries take the float route's operations, each entry's bits those of its
# float.  A division by zero raises on floats and follows numpy's error state
# on an array.


def _power(b, e):
    if isinstance(e, np.ndarray):  # a float array exponent: entry by entry
        pairs = zip(*(v.tolist() for v in np.broadcast_arrays(b, e)))
        return np.array([_power(x, y) for x, y in pairs])
    if float(e).is_integer():
        return _int_pow(b, int(e))
    base = b
    if isinstance(base, np.ndarray):  # the first entry at fault, if any
        base = float(base[(base <= 0.0).argmax()])
    if base <= 0.0:
        raise ExprEvalError(f"'^' with non-integer exponent needs a positive base, got {base!r}")
    return np.array([x**e for x in b.tolist()]) if isinstance(b, np.ndarray) else b**e


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "^": _power}


def _load(env: Mapping[str, float | np.ndarray], name: str) -> float | np.ndarray:
    try:
        return env[name]
    except KeyError:
        raise ExprEvalError(f"unbound variable {name!r}") from None


def _children(node: Expr) -> tuple:
    match node:
        case Neg(a) | Call(_, a):
            return (a,)
        case BinOp(_, a, b):
            return (a, b)
    return ()


def _walk(roots: Sequence[Expr], done: dict, visit) -> None:
    """Call ``visit`` on every node of ``roots`` not yet in ``done`` (keyed by
    id), operands first and the left one first, each once, on an explicit
    stack: derivative trees nest far deeper than Python's stack allows.
    ``visit`` records the node in ``done``."""
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in done:
                continue
            if ready:
                visit(node)
            else:
                stack.append((node, True))
                stack.extend((c, False) for c in reversed(_children(node)))


class Program:
    """The trees ``roots`` as one straight-line program.  Its steps, each a
    function and the slots of its operands, are those of a walk of the trees,
    left operand first, except that a repeated subtree runs once (constants
    match by float bits); so the first step to fail is the walk's.  Called
    with an environment of floats or of 1-D float arrays, it returns one
    value per root, a constant broadcast to the first bound array's shape.
    Domain and range failures (the ValueError of math or of an elementary
    function's guard, and ArithmeticError) leave as ExprEvalError."""

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

        done: dict[int, int] = {}  # id of a node of the roots -> its slot

        def emit(node: Expr) -> None:
            arg = [done[id(c)] for c in _children(node)]
            match node:
                case Const(value):
                    k = slot(struct.pack("<d", value), value)
                case Var(name):
                    k = slot((_load, 0, slot(name, name)))
                case Neg():
                    k = slot((operator.neg, arg[0], None))
                case BinOp("/"):  # reciprocal-multiply on both routes
                    one = slot(struct.pack("<d", 1.0), 1.0)
                    k = slot((operator.mul, arg[0], slot((operator.truediv, one, arg[1]))))
                case BinOp(op):
                    k = slot((_BINARY[op], *arg))
                case Call(fn):
                    k = slot((_FUNCTIONS[fn], arg[0], None))
                case _CurveAt(curve, name, index, order):
                    at = slot((curve.evaluate, slot((_load, 0, slot(name, name))), slot(order, order)))
                    k = slot((operator.getitem, at, slot(index, index)))
                case _:
                    raise TypeError(f"not an expression node: {node!r}")
            done[id(node)] = k

        _walk(roots, done, emit)
        self._outputs = [done[id(root)] for root in roots]

    def __call__(self, env: Mapping[str, float | np.ndarray]) -> list:
        slots = self._slots.copy()
        slots[0] = env
        try:
            for k, fn, i, j in self._code:
                slots[k] = fn(slots[i]) if j is None else fn(slots[i], slots[j])
        except (ValueError, ArithmeticError) as exc:
            text = str(exc)
            # a reciprocal's divisor, or a negative power's base, was zero
            if isinstance(exc, ZeroDivisionError) and fn in (operator.truediv, _power):
                text += f" (the divisor is {self._source(j if fn is operator.truediv else i)})"
            raise ExprEvalError(text) from exc
        out = [slots[k] for k in self._outputs]
        probe = next(iter(env.values()), None)
        if isinstance(probe, np.ndarray):
            out = [v if isinstance(v, np.ndarray) else np.full(probe.shape, v) for v in out]
        return out

    def _source(self, k: int) -> str:
        """What produced slot ``k``: a variable, a constant, or the step of a
        function, an operator or an interpolant."""
        steps = {slot: (fn, j) for slot, fn, _, j in self._code}
        if k not in steps:
            return f"the constant {self._slots[k]!r}"
        fn, j = steps[k]
        if fn is _load:
            return f"the variable {self._slots[j]}"
        if fn is operator.mul and steps.get(j, (None,))[0] is operator.truediv:
            fn = operator.truediv  # a quotient a/b runs as a * (1/b)
        return f"a result of {_STEP_NAMES.get(fn, 'an interpolant')}"


# what a step's function computes, by its name in the grammar
_STEP_NAMES = {fn: name for name, fn in _FUNCTIONS.items()}
_STEP_NAMES.update({fn: repr(op) for op, fn in _BINARY.items()})
_STEP_NAMES.update({operator.neg: "'-'", operator.truediv: "'/'"})


# -- symbolic derivative -----------------------------------------------------------------

_ZERO, _ONE = Const(0.0), Const(1.0)


def _fold(op: str, a: Expr, b: Expr) -> Expr:
    """a + b or a * b, with the terms 0 and the factors 0 and 1 folded away,
    a negation moved out of a product and a negated term made a difference.
    Rounding is symmetric in sign, so (-a) b = -(a b) and a + (-b) = a - b
    bit for bit (but for the sign of a NaN), in fewer steps."""
    if op == "*" and _ZERO in (a, b):
        return _ZERO
    unit = _ZERO if op == "+" else _ONE
    if a == unit or b == unit:
        return b if a == unit else a
    match op, a, b:
        case "+", _, Neg(y):
            return BinOp("-", a, y)
        case "+", Neg(x), _:
            return BinOp("-", b, x)
        case "*", Neg(x), _:
            return _neg(_fold("*", x, b))
        case "*", _, Neg(y):
            return _neg(_fold("*", a, y))
    return BinOp(op, a, b)


def _neg(a: Expr) -> Expr:
    return _ZERO if a == _ZERO else a.operand if isinstance(a, Neg) else Neg(a)


def _lowered(a: Expr, b: Expr) -> Expr:
    """a^(b-1), a constant b folded into the exponent, a^1 into a and a^0
    into 1: an exponent that reaches 0 must not leave a 0*a^-1 behind,
    which divides by zero at a = 0."""
    if not isinstance(b, Const):
        return BinOp("^", a, BinOp("-", b, _ONE))
    p = b.value - 1.0
    return a if p == 1.0 else _ONE if p == 0.0 else BinOp("^", a, Const(p))


_CHAIN = {  # f'(a) for each function f
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "tan": lambda a: BinOp("+", _ONE, BinOp("*", Call("tan", a), Call("tan", a))),
    "exp": lambda a: Call("exp", a),
    "log": lambda a: BinOp("/", _ONE, a),
    "sqrt": lambda a: BinOp("/", Const(0.5), Call("sqrt", a)),
    "abs": lambda a: Call("sign", a),
    "sign": lambda a: _ZERO,
    "atan": lambda a: BinOp("/", _ONE, BinOp("+", _ONE, BinOp("*", a, a))),
}


def _rule(node: Expr, var: str, d) -> Expr:
    """d(node)/d(var), with ``d`` giving the derivatives of its operands."""
    match node:
        case Const() | Var():
            return _ONE if node == Var(var) else _ZERO
        case _CurveAt(curve, name, index, k):
            return _CurveAt(curve, name, index, k + 1) if name == var else _ZERO
        case Neg(a):
            return _neg(d(a))
        case BinOp("+", a, b):
            return _fold("+", d(a), d(b))
        case BinOp("-", a, b):
            return _fold("+", d(a), _neg(d(b)))
        case BinOp("*", a, b):
            return _fold("+", _fold("*", d(a), b), _fold("*", a, d(b)))
        case BinOp("/", a, b):  # (a' - (a/b) b') (1/b)
            return _fold("*", _fold("+", d(a), _fold("*", Neg(node), d(b))), BinOp("/", _ONE, b))
        case BinOp("^", a, b):
            if d(b) == _ZERO:  # b a^(b-1) a'
                return _fold("*", _fold("*", b, _lowered(a, b)), d(a))
            # a^b (b' log a + b a' (1/a))
            rate = _fold("*", _fold("*", b, d(a)), BinOp("/", _ONE, a))
            return _fold("*", node, _fold("+", _fold("*", d(b), Call("log", a)), rate))
        case Call(fn, a):
            return _fold("*", _CHAIN[fn](a), d(a))
    raise TypeError(f"not an expression node: {node!r}")


def _derivative(node: Expr, var: str, memo: dict | None = None) -> Expr:
    """The tree of d(node)/d(var): one rule per operator and per function,
    folding 0 and 1, so that a factor free of ``var`` adds no terms.  The
    ``memo`` of a run maps each variable to id of a node -> (the node, its
    derivative), so that a subtree that trees share has one derivative,
    found once; it holds the node, so that no other node takes its id."""
    done = ({} if memo is None else memo).setdefault(var, {})

    def visit(x: Expr) -> None:
        done[id(x)] = x, _rule(x, var, lambda y: done[id(y)][1])

    _walk((node,), done, visit)
    return done[id(node)][1]


def _partials(roots: Sequence[Expr], names: Sequence[str], order: int,
              memo: dict | None = None) -> list[Expr]:
    """The trees of d^a x for each root x and each monomial of degree <=
    ``order`` in the variables ``names``, in the layout of ``jet.Jet.c``:
    each is the derivative of the one a degree lower along the last variable
    of its sorted multi-index.  ``memo`` is _derivative's, shared by them."""
    memo = {} if memo is None else memo
    n = len(names)
    rows = []
    for root in roots:
        tree = {(): root}
        for axes in itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(n), k) for k in range(1, order + 1)):
            tree[axes] = _derivative(tree[axes[:-1]], names[axes[-1]], memo)
        rows += tree.values()
    return rows


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
