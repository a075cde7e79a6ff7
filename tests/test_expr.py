"""Parser, printer, and the two evaluation routes of the expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrkit.expr import (
    BinOp,
    Call,
    Const,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Var,
    eval_expr,
    eval_real,
    parse_expr,
    to_text,
    variables_of,
)
from fd_oracle import finite_difference_jet
from gcrkit.jet import jet_constant, jet_variable


def ev(text, **env):
    return eval_real(parse_expr(text, tuple(env)), env)


# -- precedence and associativity ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2+3*4", 14.0),
        ("(2+3)*4", 20.0),
        ("2-3-4", -5.0),
        ("16/4/2", 2.0),
        ("2^3^2", 512.0),      # right-associative
        ("-2^2", -4.0),        # unary minus binds looser than the power
        ("2^-1", 0.5),         # ... but a power may take a negated exponent
        ("--2", 2.0),
        ("3*-2", -6.0),
        ("2*3^2", 18.0),
        ("1+2^2*3", 13.0),
        ("0.5e1 + 1e-1", 5.1),
    ],
)
def test_precedence(text, expected):
    assert ev(text) == expected


def test_unary_minus_in_context():
    assert ev("-s^2", s=3.0) == -9.0
    assert ev("(-s)^2", s=3.0) == 9.0
    assert ev("s^2", s=-3.0) == 9.0


def test_functions():
    assert math.isclose(ev("sin(s)+cos(s)", s=0.3), math.sin(0.3) + math.cos(0.3))
    assert math.isclose(ev("sqrt(abs(s))", s=-4.0), 2.0)
    assert math.isclose(ev("exp(log(s))", s=2.7), 2.7, rel_tol=1e-15)
    assert math.isclose(ev("tan(s)", s=0.5), math.tan(0.5))


# -- rejected inputs, with byte offsets ----------------------------------------------------


@pytest.mark.parametrize(
    "text,offset",
    [
        ("cos(s", 5),        # unclosed call
        ("x + s", 0),        # undeclared identifier
        ("s + ", 4),         # dangling operator
        ("", 0),             # empty input
        ("(s", 2),           # unclosed paren
        ("s t", 2),          # no implicit multiplication
        ("foo(s)", 0),       # unknown function
        ("s + * 2", 4),      # operator where a value should be
        ("sin s", 0),        # a bare function name is just an unknown identifier
    ],
)
def test_syntax_errors_carry_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, ("s",))
    assert err.value.offset == offset


_DEEP = {  # nesting depth k -> text; parentheses and calls count one level each
    "parentheses": lambda k: "(" * k + "s" + ")" * k,
    "unary minus": lambda k: "-" * k + "s",
    "sum": lambda k: "+".join(["s"] * (k + 1)),
    "power tower": lambda k: "^".join(["s"] * (k + 1)),
    "calls": lambda k: "sin(" * k + "s" + ")" * k,
    "mixed": lambda k: "-(" * (k // 2) + "-" * (k % 2) + "s" + ")" * (k // 2),
}


@pytest.mark.parametrize("shape", sorted(_DEEP))
def test_nesting_depth_is_capped(shape):
    # at the limit, the tree still goes through every recursive routine
    e = parse_expr(_DEEP[shape](200), ("s",))
    assert to_text(e) and variables_of(e) == frozenset({"s"})
    assert hash(e) == hash(parse_expr(_DEEP[shape](200), ("s",))) and repr(e)
    assert ev(_DEEP[shape](200), s=0.5) == eval_expr(e, {"s": jet_variable(0, 0.5, 1, 2)}).value
    for k in (201, 3000):
        with pytest.raises(ExprSyntaxError, match="nests deeper than 200 levels"):
            parse_expr(_DEEP[shape](k), ("s",))
    # the printed text nests no deeper than the tree: "--s", not "-(-s)"
    assert parse_expr(to_text(e), ("s",)) == e


def test_undeclared_variable_rejected_at_parse_time():
    parse_expr("s*t", ("s", "t"))
    with pytest.raises(ExprSyntaxError):
        parse_expr("s*t", ("s",))
    # a declared but unused variable is fine
    e = parse_expr("s+1", ("s", "t"))
    assert variables_of(e) == frozenset({"s"})


def test_function_arity_is_one():
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(s, t)", ("s", "t"))


def test_ast_shapes():
    e = parse_expr("-(s+2)*cos(t)", ("s", "t"))
    assert isinstance(e, BinOp) and e.op == "*"
    assert isinstance(e.left, Neg)
    assert isinstance(e.right, Call) and e.right.fn == "cos"
    assert isinstance(e.right.arg, Var)
    inner = e.left.operand
    assert isinstance(inner, BinOp) and isinstance(inner.right, Const)


# -- the two evaluation routes agree bit for bit at order zero ----------------------------


@pytest.mark.parametrize(
    "text",
    [
        "(2+cos(s))*cos(t)",
        "sin(s)*exp(t)/(s+3)",
        "sqrt(s^2+t^2+1)",
        "s^3 - 2*s*t + t^5",
        "1/(1+s^2) - t/(2+cos(s))",
        "abs(s-t)^3",
    ],
)
def test_jet_and_real_routes_bit_identical(text):
    e = parse_expr(text, ("s", "t"))
    rng = np.random.default_rng(5)
    for _ in range(25):
        s, t = rng.uniform(-1.5, 1.5, 2)
        if abs(s - t) < 1e-3:
            continue
        env_j = {"s": jet_variable(0, s, 2, 2), "t": jet_variable(1, t, 2, 2)}
        assert eval_expr(e, env_j).value == eval_real(e, {"s": s, "t": t})


def test_jet_route_derivatives_vs_fd():
    e = parse_expr("(2+cos(s))*sin(t) + s^2/(t+3)", ("s", "t"))
    p = (0.8, 1.1)
    env = {"s": jet_variable(0, p[0], 2, 3), "t": jet_variable(1, p[1], 2, 3)}
    out = eval_expr(e, env)
    fd = finite_difference_jet(lambda q: eval_real(e, {"s": q[0], "t": q[1]}), p)
    assert np.allclose(out.grad, fd.grad, atol=1e-9)
    assert np.allclose(out.hess, fd.hess, atol=1e-6)
    assert np.allclose(out.third, fd.third, atol=2e-5)


def test_eval_errors():
    e = parse_expr("1/s", ("s",))
    with pytest.raises(ExprEvalError):
        eval_real(e, {"s": 0.0})
    e2 = parse_expr("log(s)", ("s",))
    with pytest.raises(ExprEvalError):
        eval_real(e2, {"s": -1.0})
    with pytest.raises(ExprEvalError):
        eval_expr(e2, {"s": jet_variable(0, -1.0, 1, 2)})


@pytest.mark.parametrize(
    "text,s",
    [("exp(exp(exp(s)))", 4.0), ("1/s", 0.0), ("s^-1", 0.0), ("log(s)", -1.0)],
)
def test_both_routes_raise_one_error_type(text, s):
    e = parse_expr(text, ("s",))
    with pytest.raises(ExprEvalError):
        eval_real(e, {"s": s})
    with pytest.raises(ExprEvalError):
        eval_expr(e, {"s": jet_variable(0, s, 1, 2)})


def test_stacked_env_evaluates_row_by_row():
    ws = np.array([0.3, 1.1, 2.0])
    stack = {"w": jet_variable(0, ws, 1, 3)}
    for text in ("sin(w)*w^2 - 1/(1+w)", "3", "w^0", "(w+1)^1.5 - w^(2+0*w)"):
        e = parse_expr(text, ("w",))
        out = eval_expr(e, stack)
        assert out.c.shape == (3, 4)  # a constant is broadcast to the rows
        for r, w in enumerate(ws):
            assert np.array_equal(out.c[r], eval_expr(e, {"w": jet_variable(0, w, 1, 3)}).c)
    # a non-integer power names the first row with a base <= 0, as one jet would
    with pytest.raises(ExprEvalError, match="got -0.5"):
        eval_expr(parse_expr("(w-0.8)^0.5", ("w",)), stack)
    # an exponent jet that is constant in each row but differs between rows
    e = parse_expr("w^k", ("w", "k"))
    env = {"w": jet_variable(0, ws, 2, 2), "k": jet_constant(np.array([2.0, 2.0, 3.0]), 2, 2)}
    with pytest.raises(ExprEvalError, match="differs between rows"):
        eval_expr(e, env)
    env["k"] = jet_constant(np.full(3, 2.0), 2, 2)
    assert np.array_equal(eval_expr(e, env).value, ws * ws)


def test_missing_variable_in_env():
    e = parse_expr("s+t", ("s", "t"))
    with pytest.raises(ExprEvalError):
        eval_real(e, {"s": 1.0})


def test_integer_exponent_paths_match():
    e = parse_expr("s^4", ("s",))
    s = 1.37
    j = eval_expr(e, {"s": jet_variable(0, s, 1, 2)})
    assert j.value == eval_real(e, {"s": s})
    # negative bases are fine for integer exponents
    assert ev("s^3", s=-2.0) == -8.0
    # fractional powers of negative bases are not
    with pytest.raises(ExprEvalError):
        ev("s^0.5", s=-2.0)


def test_to_text_round_trip_preserves_semantics():
    texts = [
        "-s^2 + 3*(t-1)",
        "sin(s)*cos(t)/(2+s^2)",
        "s-(t-1)",
        "(s/t)/2",
        "2^(s+t)",
        "-(s*t)",
    ]
    rng = np.random.default_rng(9)
    for text in texts:
        e = parse_expr(text, ("s", "t"))
        back = parse_expr(to_text(e), ("s", "t"))
        for _ in range(10):
            s, t = rng.uniform(0.3, 1.8, 2)
            assert eval_real(e, {"s": s, "t": t}) == eval_real(back, {"s": s, "t": t})


# -- property test: random ASTs survive printing and reparsing -----------------------------


def _leaf():
    return st.one_of(
        st.builds(Const, st.floats(0.0, 4.0).map(lambda v: round(v, 3))),
        st.sampled_from([Var("s"), Var("t")]),
    )


def _expr_tree(depth):
    if depth == 0:
        return _leaf()
    sub = _expr_tree(depth - 1)
    return st.one_of(
        _leaf(),
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), sub, sub),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp"]), sub),
    )


@settings(max_examples=80, deadline=None)
@given(e=_expr_tree(4), s=st.floats(0.1, 2.0), t=st.floats(0.1, 2.0))
def test_print_parse_fixpoint(e, s, t):
    text = to_text(e)
    back = parse_expr(text, ("s", "t"))
    assert to_text(back) == text
    try:
        v1 = eval_real(e, {"s": s, "t": t})
    except ExprEvalError:  # nested exp of a constant up to 4 can leave the float range
        with pytest.raises(ExprEvalError):
            eval_real(back, {"s": s, "t": t})
        return
    v2 = eval_real(back, {"s": s, "t": t})
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))
