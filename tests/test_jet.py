"""Chart partials from derivative trees against hand derivatives, central
differences and the tensor-slot oracle, and the rows that carry them."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_jet_oracle
from fd_oracle import FiniteDifferenceError, finite_difference_jet
from gcrkit.expr import (
    _FUNCTIONS, BinOp, Const, ExprEvalError, Program, Var, _partials, parse_expr,
)
from gcrkit.geometry import Immersion, evaluate_jets
from gcrkit.jet import derivative_tensor

_VARS = ("x", "y", "z")


def rows_at(tree, point, order):
    """The partial rows of ``tree`` (text or a tree in x, y, z) at ``point``,
    one float per variable of its arity: (D,), or (P, D) for a stack, one
    1-D array per variable."""
    names = _VARS[: len(point)]
    if isinstance(tree, str):
        tree = parse_expr(tree, names)
    c = np.array(Program(_partials((tree,), names, order))(dict(zip(names, point))))
    return c.T.copy() if c.ndim == 2 else c


def jet_at(tree, point, order):
    """[value, grad, ...]: the value and the derivative tensors up to
    ``order`` of ``tree`` at ``point``, read from its partial rows; a stack
    gives each a leading point axis."""
    c = rows_at(tree, point, order)
    return [c.T[0]] + [derivative_tensor(c, len(point), rank) for rank in range(1, order + 1)]


def test_variable_seed_structure():
    value, grad, hess = jet_at("y", (0.0, 2.5, 0.0), 2)
    assert value == 2.5
    assert np.array_equal(grad, [0.0, 1.0, 0.0])
    assert not hess.any()
    _, grad, hess, third = jet_at("x", (-1.0,), 3)
    assert grad[0] == 1.0 and not hess.any() and not third.any()


def test_variable_seed_validation():
    m = Immersion.from_exprs("plane", ("x", "y", "0"), ("x", "y"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        evaluate_jets(m, (0.5, 0.5), order=0)
    with pytest.raises(ValueError):
        evaluate_jets(m, (0.5, 0.5, 0.5), order=2)


def test_jets_stop_at_order_3():
    m = Immersion.from_exprs("plane", ("x", "y", "0"), ("x", "y"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        evaluate_jets(m, (0.5, 0.5), order=4)


def test_constant_has_no_derivatives():
    value, *tensors = jet_at("4.2", (0.3, 0.7), 3)
    assert value == 4.2
    assert not any(t.any() for t in tensors)


# -- oracle first: the finite-difference estimator itself, on hand-computable cases ------


def test_fd_oracle_on_monomial():
    # f(x, y) = x^3 + 2 x^2 y at (1.5, -0.5): all derivatives by hand
    f = lambda q: q[0] ** 3 + 2.0 * q[0] ** 2 * q[1]
    value, grad, hess, third = finite_difference_jet(f, (1.5, -0.5), order=3)
    x, y = 1.5, -0.5
    assert value == f((x, y))
    assert np.allclose(grad, [3 * x**2 + 4 * x * y, 2 * x**2], rtol=1e-9)
    assert np.allclose(
        hess, [[6 * x + 4 * y, 4 * x], [4 * x, 0.0]], rtol=1e-7, atol=1e-7
    )
    expect3 = np.zeros((2, 2, 2))
    expect3[0, 0, 0] = 6.0
    expect3[0, 0, 1] = expect3[0, 1, 0] = expect3[1, 0, 0] = 4.0
    assert np.allclose(third, expect3, atol=5e-6)


def test_fd_raises_when_function_fails():
    def f(q):
        if q[0] > 1.0:
            raise ValueError("outside")
        return q[0]

    with pytest.raises(FiniteDifferenceError):
        finite_difference_jet(f, (1.0,), order=1)


# -- partials against the oracle ------------------------------------------------------------


def _check_against_fd(text, f, p, rtol=2e-5):
    value, *out = jet_at(text, p, 3)
    fd_value, *fd = finite_difference_jet(f, p, order=3)
    assert math.isclose(value, fd_value, rel_tol=1e-12, abs_tol=1e-12)
    for exact, est, tol in zip(out, fd, (1e-9, 1e-6, rtol)):
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(np.asarray(exact) - est)) <= tol * scale


def test_product_quotient_chain_vs_fd():
    _check_against_fd(
        "sin(x)*exp(y)/(x+2)",
        lambda q: math.sin(q[0]) * math.exp(q[1]) / (q[0] + 2.0),
        (0.7, -0.3),
    )


def test_deep_composition_vs_fd():
    _check_against_fd(
        "exp(sin(x)*y*y+log(z))",
        lambda q: math.exp(math.sin(q[0]) * q[1] ** 2 + math.log(q[2])),
        (0.4, 1.2, 1.7),
    )


def test_sqrt_tan_atan_vs_fd():
    _check_against_fd(
        "sqrt(x*x+1)+tan(y)*atan(x)",
        lambda q: math.sqrt(q[0] ** 2 + 1.0) + math.tan(q[1]) * math.atan(q[0]),
        (0.8, 0.6),
    )


# -- elementary rules at a frozen point -----------------------------------------------------


def test_elementary_derivative_tables():
    x0 = 0.6
    cases = {
        "sin": (math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)),
        "cos": (math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0)),
        "exp": (math.exp(x0),) * 4,
        "log": (math.log(x0), 1 / x0, -1 / x0**2, 2 / x0**3),
        "sqrt": (
            math.sqrt(x0),
            0.5 * x0**-0.5,
            -0.25 * x0**-1.5,
            0.375 * x0**-2.5,
        ),
    }
    for fn, (v, d1, d2, d3) in cases.items():
        value, grad, hess, third = jet_at(f"{fn}(x)", (x0,), 3)
        assert math.isclose(value, v, rel_tol=1e-15)
        assert math.isclose(grad[0], d1, rel_tol=1e-14)
        assert math.isclose(hess[0, 0], d2, rel_tol=1e-14)
        assert math.isclose(third[0, 0, 0], d3, rel_tol=1e-13)


def test_tan_table():
    x0 = 0.4
    t = math.tan(x0)
    _, grad, hess, third = jet_at("tan(x)", (x0,), 3)
    sec2 = 1 + t * t
    assert math.isclose(grad[0], sec2, rel_tol=1e-14)
    assert math.isclose(hess[0, 0], 2 * t * sec2, rel_tol=1e-13)
    assert math.isclose(third[0, 0, 0], 2 * sec2 * (sec2 + 2 * t * t), rel_tol=1e-13)


def test_abs_branches():
    value, grad, _ = jet_at("abs(x*x*x)", (-1.7,), 2)  # |x^3| has derivative -3x^2 at negative x
    assert math.isclose(value, 1.7**3, rel_tol=1e-15)
    assert math.isclose(grad[0], -3 * 1.7**2, rel_tol=1e-14)
    with pytest.raises(ExprEvalError, match="abs is undefined or not differentiable at 0.0"):
        jet_at("abs(x)", (0.0,), 1)
    assert jet_at("abs(x)", (0.0,), 0) == [0.0]  # the value alone is defined


def test_domain_errors():
    for name in ("log", "sqrt"):
        with pytest.raises(ValueError) as err:
            _FUNCTIONS[name](-0.5)
        assert str(err.value) == f"{name} is undefined or not differentiable at -0.5"
        with pytest.raises(ExprEvalError, match=f"{name} is undefined"):
            jet_at(f"{name}(x)", (-0.5,), 2)
    with pytest.raises(ExprEvalError, match="non-integer exponent needs a positive base"):
        jet_at("x^1.5", (-2.0,), 3)
    # sqrt is defined at 0, its derivative divides by zero
    assert _FUNCTIONS["sqrt"](0.0) == 0.0
    # a division by zero names what produced its zero divisor
    for text, at, source in [
        ("sqrt(x)", 0.0, "a result of sqrt"), ("1/x", 0.0, "the variable x"),
        ("1/(x-0.5)", 0.5, "a result of '-'"), ("1/(0/x)", 1.0, "a result of '/'"),
        ("x^-2", 0.0, "the variable x"), ("x/0", 1.0, "the constant 0.0"),
    ]:
        with pytest.raises(ExprEvalError) as err:
            jet_at(text, (at,), 1)
        assert str(err.value) == f"float division by zero (the divisor is {source})"


def test_leibniz_third_order():
    # (fg)''' = f''' g + 3 f'' g' + 3 f' g'' + f g''' for univariate partials
    x0 = (0.9,)
    f, g = (rows_at(text, x0, 3) for text in ("sin(x)", "exp(x)"))  # f[k] = f^(k)
    prod = rows_at("sin(x)*exp(x)", x0, 3)
    expect = f[3] * g[0] + 3 * f[2] * g[1] + 3 * f[1] * g[2] + f[0] * g[3]
    assert math.isclose(prod[3], expect, rel_tol=1e-14)


def test_division_mirrors_reciprocal_multiply():
    q1 = rows_at("sin(x)/(exp(x)+1.5)", (0.8,), 3)
    q2 = rows_at("sin(x)*(1/(exp(x)+1.5))", (0.8,), 3)
    # one program step computes both values; the quotient rule and the
    # product rule differentiate them along different trees
    assert q1[0] == q2[0]
    assert np.allclose(q1, q2, rtol=1e-14, atol=0.0)


def test_integer_power_square_and_multiply():
    p5 = rows_at("(x+0.2)^5", (1.3,), 3)
    manual = rows_at("((x+0.2)*(x+0.2))*((x+0.2)*(x+0.2))*(x+0.2)", (1.3,), 3)
    assert p5[0] == manual[0]  # the power's value is these products
    assert np.allclose(p5[1:], manual[1:], rtol=1e-14, atol=0.0)
    inv = rows_at("(x+0.2)^-2", (1.3,), 3)
    assert math.isclose(inv[0], 1.5**-2, rel_tol=1e-15)
    assert math.isclose(inv[3], -24 * 1.5**-5, rel_tol=1e-14)
    one = rows_at("(x+0.2)^0", (1.3,), 3)
    assert one[0] == 1.0 and not one[1:].any()


def test_real_power_vs_fd():
    _check_against_fd("x^2.5", lambda q: q[0] ** 2.5, (1.4,))
    with pytest.raises(ExprEvalError, match="positive base"):
        jet_at("x^0.5", (-1.0,), 1)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    x0=st.floats(-2, 2),
)
def test_polynomial_jets_match_analytic_derivatives(coeffs, x0):
    # numpy polynomial derivatives are an independent oracle for the partials
    tree = Const(0.0)
    for c in coeffs:
        tree = BinOp("+", BinOp("*", tree, Var("x")), Const(c))
    acc = rows_at(tree, (x0,), 3)  # one variable: acc[k] is the k-th derivative
    poly = np.polynomial.Polynomial(coeffs[::-1])
    for k in range(4):
        assert math.isclose(acc[k], poly.deriv(k)(x0), rel_tol=1e-10, abs_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 2.0), b=st.floats(0.2, 2.0),
    x0=st.floats(-1.2, 1.2), y0=st.floats(-1.2, 1.2),
)
def test_schwarz_symmetry(a, b, x0, y0):
    # mixed partials commute: the stored tensors must be exactly symmetric,
    # and each mixed partial is the oracle's, whichever order it was taken in
    tree = parse_expr(f"exp({a!r}*x)*sin({b!r}*y)+x*x*y", _VARS[:2])
    _, _, hess, third = jet_at(tree, (x0, y0), 3)
    assert np.array_equal(hess, hess.T)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.array_equal(third, np.transpose(third, perm))
    seeds = {n: tensor_jet_oracle.TensorJet.variable(i, v, 2, 3)
             for i, (n, v) in enumerate((("x", x0), ("y", y0)))}
    ref = tensor_jet_oracle.evaluate(tree, seeds)
    assert np.allclose(third, ref.third, rtol=1e-13, atol=1e-13)


def test_evaluation_returns_the_programs_rows_read_only():
    # at a point, the program's output as (n+1, D) rows; on a stack, (P, n+1, D)
    # with row i the one-point call at point i; both C-contiguous and read-only
    for names, comps in ((_VARS[:2], ("x", "y", "x*exp(y)")),
                         (_VARS, ("x", "y", "z", "sin(x*y)*exp(z)/(1+x*x)"))):
        m = Immersion.from_exprs("chart", comps, names, ((0, 1),) * len(names))
        n = m.n
        points = np.random.default_rng(7).uniform(0.0, 1.0, (5, n))
        for order in (1, 2, 3):
            program = m._program(order)
            stack = evaluate_jets(m, points, order)
            want = np.array(program(dict(zip(names, points.T.copy())))).T
            assert stack.shape == (5, n + 1, math.comb(n + order, n))
            assert stack.tobytes() == np.ascontiguousarray(want).tobytes()
            for i, p in enumerate(points.tolist()):
                one = evaluate_jets(m, p, order)
                assert one.shape == (n + 1, math.comb(n + order, n))
                assert one.tobytes() == np.array(program(dict(zip(names, p)))).tobytes()
                assert stack[i].tobytes() == one.tobytes()
            for rows in (stack, one):
                assert rows.flags.c_contiguous and not rows.flags.writeable


def test_tables_built_twice_are_interchangeable():
    # two programs of one chart's partials, one built after the other's
    # derivative trees and one from scratch, give the same bits; the order-2
    # rows are a prefix of the order-3 ones
    comps = ("x", "y", "z", "sin(x*y)*exp(z)/(1+x*x)")
    box = ((0, 1),) * 3
    warm = Immersion.from_exprs("warm", comps, _VARS, box)
    cold = Immersion.from_exprs("cold", comps, _VARS, box)
    p = (0.7, 0.4, 0.2)
    low = evaluate_jets(warm, p, 2)
    high = evaluate_jets(warm, p, 3)
    assert high.tobytes() == evaluate_jets(cold, p, 3).tobytes()
    assert high[:, : low.shape[1]].tobytes() == low.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 3),
    order=st.integers(0, 3),
    rows=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_product_is_the_scalar_product_row_by_row(n, order, rows, seed):
    # the partials of a product of two random affine forms: each row of an
    # array run is the float run at its point, bit for bit
    rng = np.random.default_rng(seed)
    a, b = (" + ".join(f"{c!r}*{v}" for c, v in zip(rng.standard_normal(n).tolist(), _VARS))
            for _ in "ab")
    tree = parse_expr(f"({a} + 0.5)*({b} - 0.25)", _VARS[:n])
    points = rng.standard_normal((rows, n))
    out = rows_at(tree, tuple(points.T), order)
    assert out.shape == (rows, math.comb(n + order, n))
    for r in range(rows):
        assert out[r].tobytes() == rows_at(tree, tuple(points[r].tolist()), order).tobytes()


# -- partials against the tensor-slot oracle -------------------------------------------------

# unary nodes, each kept inside its domain and away from overflow so that
# both routes see moderate magnitudes
_UNARY = {
    "neg": "-({})",
    "sin": "sin({})",
    "cos": "cos({})",
    "atan": "atan({})",
    "exp": "exp(sin({}))",
    "tan": "tan(sin({}))",
    "log": "log(1+({0})*({0}))",
    "sqrt": "sqrt(1+({0})*({0}))",
    "recip": "1/(2+sin({}))",
    "cube": "({})^3",
    "inv-square": "(1+({0})*({0}))^-2",
    "real-pow": "(1+({0})*({0}))^-0.7",
}
_BINARY = {
    "add": "({})+({})",
    "sub": "({})-({})",
    "mul": "({})*({})",
    "div": "({0})/(1.5+({1})*({1}))",
    "scale": "0.75*({})-({})*1.25",
}

_trees = st.recursive(
    st.one_of(
        st.tuples(st.just("var"), st.integers(0, 2)),
        st.tuples(st.just("const"), st.floats(-2.0, 2.0)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(_UNARY)), inner),
        st.tuples(st.sampled_from(sorted(_BINARY)), inner, inner),
    ),
    max_leaves=6,
)


def _text(tree, n):
    kind = tree[0]
    if kind == "var":
        return _VARS[tree[1] % n]
    if kind == "const":
        return repr(tree[1])
    if kind in _UNARY:
        return _UNARY[kind].format(_text(tree[1], n))
    return _BINARY[kind].format(_text(tree[1], n), _text(tree[2], n))


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees,
    n=st.integers(1, 3),
    order=st.integers(1, 3),
    point=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_coefficient_jets_match_tensor_oracle(tree, n, order, point):
    expr_tree = parse_expr(_text(tree, n), _VARS[:n])
    out = jet_at(expr_tree, point[:n], order)
    seeds = {name: tensor_jet_oracle.TensorJet.variable(i, point[i], n, order)
             for i, name in enumerate(_VARS[:n])}
    ref = tensor_jet_oracle.evaluate(expr_tree, seeds)
    for rank, (got, want) in enumerate(zip(out, (ref.value, ref.grad, ref.hess, ref.third))):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, rank
        for perm in itertools.permutations(range(rank)):
            assert np.array_equal(got, got.transpose(perm)), rank
    # the order-(k-1) partials are a prefix of the order-k ones, bit for bit
    low, high = (rows_at(expr_tree, point[:n], k) for k in (order - 1, order))
    assert low.tobytes() == high[: low.size].tobytes()


# -- stacks: one row of partials per point ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees,
    n=st.integers(1, 3),
    order=st.integers(1, 3),
    rows=st.one_of(st.integers(1, 30), st.just(515)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_rows_match_single_jets(tree, n, order, rows, seed):
    expr_tree = parse_expr(_text(tree, n), _VARS[:n])
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, n))
    stack = rows_at(expr_tree, tuple(points.T), order)
    assert stack.shape == (rows, math.comb(n + order, n))
    # bit for bit, elementary functions included: an array's entries go through math as well
    for r, p in enumerate(points.tolist()):
        assert stack[r].tobytes() == rows_at(expr_tree, p, order).tobytes()


# zeros of both signs, subnormals, and values at the edges of a domain or of
# the float range: log and sqrt near 0, tan near pi/2, exp near overflow
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-160,
          1.5707963267948966, -1.5707963267948966, 709.782712893384, 709.7827128933841,
          -745.1332191019411, 1e154, 1e308, -1e308)
_SEED_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(-4.0, 4.0))


def _outcome(program, env):
    """The bits of the partial rows, every NaN as numpy's, or the type and
    text of what it raised.  The sign of a NaN that inf - inf or 0 * inf
    makes differs between Python's and numpy's arithmetic; a NaN fails
    every finiteness check alike."""
    try:
        out = np.array(program(env))
    except Exception as exc:  # any error: both routes must raise the same one
        return type(exc), str(exc)
    return np.where(np.isnan(out), np.nan, out).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3),
    order=st.integers(1, 3),
    index=st.integers(0, 2),
    values=st.lists(_SEED_VALUES, min_size=1, max_size=6),
    p=st.one_of(st.sampled_from([0.5, -0.5, 1.5, -2.5, 1e-3, 3.0000001]), st.floats(-5.0, 5.0)),
)
def test_functions_of_a_seed_match_horner(n, order, index, values, p):
    # a function of one chart variable at edge values, on an array and on
    # each of its entries as a float: each row that the float run completes
    # has its bits in the array run, up to the sign of a NaN; a row whose float run fails other than
    # by a division by zero (which an array run carries on as inf) fails the
    # array run, with the error of one such row
    names = _VARS[:n]
    var = names[index % n]
    texts = [f"{fn}({var})" for fn in ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "atan")]
    for text in texts + [f"{var}^{p!r}", f"1/{var}"]:
        program = Program(_partials((parse_expr(text, names),), names, order))
        env = {name: np.zeros(len(values)) for name in names}
        env[var] = np.array(values)
        rows = [_outcome(program, {name: float(x[r]) for name, x in env.items()})
                for r in range(len(values))]
        with np.errstate(all="ignore"):
            stacked = _outcome(program, env)
        failed = [r for r in rows if isinstance(r, tuple) and not r[1].startswith("float division by zero (")]
        if failed:
            assert stacked in failed, text
            continue
        assert isinstance(stacked, bytes), text
        table = np.frombuffer(stacked, float).reshape(-1, len(values)).T
        for r, row in enumerate(rows):
            if isinstance(row, bytes):
                assert table[r].tobytes() == row, text


def test_stack_constant_shift_and_domain_errors():
    x = np.array([0.5, -2.0, 3.0])
    for text, want in (("y+1.25", x + 1.25), ("1.25+y", 1.25 + x), ("y-1.25", x - 1.25),
                       ("1.25-y", 1.25 - x)):
        value, grad, *_ = jet_at(text, (np.zeros(3), x), 3)
        assert value.tobytes() == want.tobytes()
        assert np.array_equal(grad, [[0.0, -1.0 if text == "1.25-y" else 1.0]] * 3)
    # the first out-of-domain row is named, as the float route names that point
    cases = ("log(y)", "sqrt(y)", "abs(y-0.5)", "(y-3)^0.5")
    for text in cases:
        with pytest.raises(ExprEvalError) as err:
            jet_at(text, (np.zeros(3), x), 3)
        for value in x.tolist():
            try:
                jet_at(text, (0.0, value), 3)
            except ExprEvalError as first:
                assert str(err.value) == str(first)
                break
        else:
            pytest.fail("no single row fails")
    # the elementary functions themselves name the first bad entry
    with pytest.raises(ValueError) as err:
        _FUNCTIONS["log"](x - 1.0)
    assert str(err.value) == "log is undefined or not differentiable at -0.5"
    # a stack keeps a row per point in every derived tensor
    assert [t.shape for t in jet_at("y", (np.zeros(3), x), 2)] == [(3,), (3, 2), (3, 2, 2)]
    assert rows_at("2", (np.zeros(2), np.ones(2)), 3).shape == (2, 10)
