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
    Program,
    _derivative,
    parse_expr,
    to_text,
    variables_of,
)
from fd_oracle import finite_difference_jet
from gcrkit import expr, jet
from gcrkit.jet import jet_constant, jet_variable


def ev(text, **env):
    return Program((parse_expr(text, tuple(env)),))(env)[0]


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
    assert ev("atan(s)", s=0.5) == math.atan(0.5)


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
    at_jet = Program((e,))({"s": jet_variable(0, 0.5, 1, 2)})[0]
    assert ev(_DEEP[shape](200), s=0.5) == at_jet.value
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
        assert Program((e,))(env_j)[0].value == Program((e,))({"s": s, "t": t})[0]


def test_jet_route_derivatives_vs_fd():
    e = parse_expr("(2+cos(s))*sin(t) + s^2/(t+3)", ("s", "t"))
    p = (0.8, 1.1)
    env = {"s": jet_variable(0, p[0], 2, 3), "t": jet_variable(1, p[1], 2, 3)}
    out = Program((e,))(env)[0]
    fd = finite_difference_jet(lambda q: Program((e,))({"s": q[0], "t": q[1]})[0], p)
    assert np.allclose(out.grad, fd.grad, atol=1e-9)
    assert np.allclose(out.hess, fd.hess, atol=1e-6)
    assert np.allclose(out.third, fd.third, atol=2e-5)


def test_eval_errors():
    e = parse_expr("1/s", ("s",))
    with pytest.raises(ExprEvalError):
        Program((e,))({"s": 0.0})[0]
    e2 = parse_expr("log(s)", ("s",))
    with pytest.raises(ExprEvalError):
        Program((e2,))({"s": -1.0})[0]
    with pytest.raises(ExprEvalError):
        Program((e2,))({"s": jet_variable(0, -1.0, 1, 2)})[0]


@pytest.mark.parametrize(
    "text,s",
    [("exp(exp(exp(s)))", 4.0), ("1/s", 0.0), ("s^-1", 0.0), ("log(s)", -1.0)],
)
def test_both_routes_raise_one_error_type(text, s):
    e = parse_expr(text, ("s",))
    with pytest.raises(ExprEvalError):
        Program((e,))({"s": s})[0]
    with pytest.raises(ExprEvalError):
        Program((e,))({"s": jet_variable(0, s, 1, 2)})[0]


def test_stacked_env_evaluates_row_by_row():
    ws = np.array([0.3, 1.1, 2.0])
    stack = {"w": jet_variable(0, ws, 1, 3)}
    for text in ("sin(w)*w^2 - 1/(1+w)", "3", "w^0", "(w+1)^1.5 - w^(2+0*w)"):
        e = parse_expr(text, ("w",))
        out = Program((e,))(stack)[0]
        assert out.c.shape == (3, 4)  # a constant is broadcast to the rows
        for r, w in enumerate(ws):
            assert np.array_equal(out.c[r], Program((e,))({"w": jet_variable(0, w, 1, 3)})[0].c)
    # a non-integer power names the first row with a base <= 0, as one jet would
    with pytest.raises(ExprEvalError, match="got -0.5"):
        Program((parse_expr("(w-0.8)^0.5", ("w",)),))(stack)[0]
    # an exponent jet that is constant in each row but differs between rows
    e = parse_expr("w^k", ("w", "k"))
    env = {"w": jet_variable(0, ws, 2, 2), "k": jet_constant(np.array([2.0, 2.0, 3.0]), 2, 2)}
    with pytest.raises(ExprEvalError, match="differs between rows"):
        Program((e,))(env)[0]
    env["k"] = jet_constant(np.full(3, 2.0), 2, 2)
    assert np.array_equal(Program((e,))(env)[0].value, ws * ws)


def test_atan_on_every_route():
    # printed and parsed back unchanged; the float route gives the jet
    # route's value bit for bit, and each stacked row is the single jet
    e = parse_expr("atan(s/t)-2*atan(-s^2)", ("s", "t"))
    assert e.left == Call("atan", BinOp("/", Var("s"), Var("t")))
    assert to_text(e) == "atan(s/t)-2.0*atan(-s^2.0)"
    assert parse_expr(to_text(e), ("s", "t")) == e
    rows = np.random.default_rng(11).uniform(0.2, 2.0, (7, 2)) * [[-1.0, 1.0]]
    stack = {"s": jet_variable(0, rows[:, 0], 2, 3), "t": jet_variable(1, rows[:, 1], 2, 3)}
    stacked = Program((e,))(stack)[0]
    for i, (s, t) in enumerate(rows.tolist()):
        one = Program((e,))({"s": jet_variable(0, s, 2, 3), "t": jet_variable(1, t, 2, 3)})[0]
        assert one.c.tobytes() == stacked.c[i].tobytes()
        assert np.float64(Program((e,))({"s": s, "t": t})[0]).tobytes() == one.c[0].tobytes()


def test_function_names_are_not_variable_names():
    for name in ("atan", "sin", "abs"):
        with pytest.raises(ValueError, match="shadows a function"):
            parse_expr("s", ("s", name))


def test_missing_variable_in_env():
    e = parse_expr("s+t", ("s", "t"))
    with pytest.raises(ExprEvalError):
        Program((e,))({"s": 1.0})[0]


def test_integer_exponent_paths_match():
    e = parse_expr("s^4", ("s",))
    s = 1.37
    j = Program((e,))({"s": jet_variable(0, s, 1, 2)})[0]
    assert j.value == Program((e,))({"s": s})[0]
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
            assert Program((e,))({"s": s, "t": t})[0] == Program((back,))({"s": s, "t": t})[0]


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
        v1 = Program((e,))({"s": s, "t": t})[0]
    except ExprEvalError:  # nested exp of a constant up to 4 can leave the float range
        with pytest.raises(ExprEvalError):
            Program((back,))({"s": s, "t": t})[0]
        return
    v2 = Program((back,))({"s": s, "t": t})[0]
    assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


# -- symbolic derivative ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,want",
    [
        # one rule per node and operator; 0 and 1 fold away
        ("2.5", "0.0"),
        ("v", "1.0"),
        ("w", "0.0"),
        ("-v", "-1.0"),
        ("v+w", "1.0"),
        ("w-v", "-1.0"),
        ("v*w", "w"),
        ("v*v", "v+v"),
        ("w/v", "-(w/v)*(1.0/v)"),
        ("v/w", "1.0/w"),
        ("v^3", "3.0*v^(3.0-1.0)"),
        ("v^w", "w*v^(w-1.0)"),
        ("w^v", "w^v*log(w)"),
        ("v^v", "v^v*(log(v)+v*(1.0/v))"),
        # one rule per function, times the inner derivative unless it is 1
        ("sin(v)", "cos(v)"),
        ("cos(v)", "-sin(v)"),
        ("tan(v)", "1.0+tan(v)*tan(v)"),
        ("exp(v)", "exp(v)"),
        ("log(v)", "1.0/v"),
        ("sqrt(v)", "0.5/sqrt(v)"),
        ("abs(v)", "sign(v)"),
        ("atan(v)", "1.0/(1.0+v*v)"),
        ("sin(v*w)", "cos(v*w)*w"),
        ("exp(2*w)*v", "exp(2.0*w)"),
    ],
)
def test_derivative_rules(text, want):
    tree = parse_expr(text, ("v", "w"))
    d = _derivative(tree, "v")
    assert to_text(d) == want
    # its value is the v-slot of the tree's order-1 jet, within rounding
    env = {"v": jet_variable(0, 0.7, 2, 1), "w": jet_variable(1, 1.3, 2, 1)}
    slope = Program((tree,))(env)[0].grad[0]
    value = Program((d,))({"v": 0.7, "w": 1.3})[0]
    assert math.isclose(value, slope, rel_tol=1e-15, abs_tol=1e-15)


@pytest.mark.parametrize("t", [1e-8, -1e-8, 0.3, -0.3])
def test_abs_derivative_is_the_exact_sign(t):
    # d|t|/dt is the constant jet sign(t), with no terms of 1/|t|, on every route
    tree = parse_expr("abs(t)", ("t",))
    program = Program((_derivative(tree, "t"),))
    sign = math.copysign(1.0, t)
    for order in (1, 2, 3):
        for seed in (t, np.array([t, -t, 2 * t])):
            got = program({"t": jet_variable(0, seed, 1, order)})[0]
            want = jet_constant(np.sign(seed), 1, order)
            assert got.c.tobytes() == want.c.tobytes()
    assert program({"t": t})[0] == sign
    assert np.array_equal(program({"t": np.array([t, -t])})[0], [sign, -sign])
    # the inner derivative multiplies the sign of the argument
    d = _derivative(parse_expr("abs(sin(t))", ("t",)), "t")
    assert to_text(d) == "sign(sin(t))*cos(t)"
    got = Program((d,))({"t": jet_variable(0, t, 1, 3)})[0]
    want = jet.cos(jet_variable(0, t, 1, 3)) * sign
    assert got.c.tobytes() == want.c.tobytes()
    # like abs of a jet, the sign refuses 0; and it is not in the grammar
    with pytest.raises(ExprEvalError, match="abs is undefined"):
        program({"t": 0.0})
    with pytest.raises(ExprSyntaxError, match="unknown function 'sign'"):
        parse_expr("sign(t)", ("t",))


def test_derivative_visits_each_node_once(monkeypatch):
    # a right-nested power chain, whose rule reads the exponent's derivative
    # twice, still differentiates each node once
    calls = []
    rule = expr._derivative
    monkeypatch.setattr(expr, "_derivative", lambda node, var: calls.append(node) or rule(node, var))
    tree = parse_expr("^".join(["(1+v)"] * 20), ("v",))
    expr._derivative(tree, "v")
    assert len(calls) == 3 * 20 + 19  # each 1+v is three nodes, and 19 powers join them
