"""Forward-mode jet arithmetic against hand derivatives and central differences."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensor_jet_oracle
from fd_oracle import FiniteDifferenceError, finite_difference_jet
from gcrkit import jet
from gcrkit.expr import _FUNCTIONS
from gcrkit.jet import Jet, JetDomainError, jet_constant, jet_variable


def test_variable_seed_structure():
    x = jet_variable(1, 2.5, 3, 2)
    assert x.value == 2.5
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])
    assert not x.hess.any()
    x1 = jet_variable(0, -1.0, 1, 3)
    assert x1.grad[0] == 1.0 and not x1.third.any()


def test_variable_seed_validation():
    with pytest.raises(ValueError):
        jet_variable(0, 1.0, 4, 2)
    with pytest.raises(ValueError):
        jet_variable(0, 1.0, 2, 0)
    with pytest.raises(ValueError):
        jet_variable(2, 1.0, 2, 2)


def test_jets_stop_at_order_3():
    with pytest.raises(ValueError):
        jet_variable(0, 0.5, 1, 4)
    with pytest.raises(ValueError):
        Jet(1, 4, 0.0)


def test_constant_has_no_derivatives():
    c = jet_constant(4.2, 2, 3)
    assert c.value == 4.2
    assert not c.grad.any() and not c.hess.any() and not c.third.any()


# -- oracle first: the finite-difference estimator itself, on hand-computable cases ------


def test_fd_oracle_on_monomial():
    # f(x, y) = x^3 + 2 x^2 y at (1.5, -0.5): all derivatives by hand
    f = lambda q: q[0] ** 3 + 2.0 * q[0] ** 2 * q[1]
    fd = finite_difference_jet(f, (1.5, -0.5), order=3)
    x, y = 1.5, -0.5
    assert fd.value == f((x, y))
    assert np.allclose(fd.grad, [3 * x**2 + 4 * x * y, 2 * x**2], rtol=1e-9)
    assert np.allclose(
        fd.hess, [[6 * x + 4 * y, 4 * x], [4 * x, 0.0]], rtol=1e-7, atol=1e-7
    )
    expect3 = np.zeros((2, 2, 2))
    expect3[0, 0, 0] = 6.0
    expect3[0, 0, 1] = expect3[0, 1, 0] = expect3[1, 0, 0] = 4.0
    assert np.allclose(fd.third, expect3, atol=5e-6)


def test_fd_raises_when_function_fails():
    def f(q):
        if q[0] > 1.0:
            raise ValueError("outside")
        return q[0]

    with pytest.raises(FiniteDifferenceError):
        finite_difference_jet(f, (1.0,), order=1)


# -- jets against the oracle --------------------------------------------------------------


def _check_against_fd(expr_jet, f, p, rtol=2e-5):
    n = len(p)
    vals = [jet_variable(i, p[i], n, 3) for i in range(n)]
    out = expr_jet(vals)
    fd = finite_difference_jet(f, p, order=3)
    assert math.isclose(out.value, fd.value, rel_tol=1e-12, abs_tol=1e-12)
    for exact, est, tol in ((out.grad, fd.grad, 1e-9), (out.hess, fd.hess, 1e-6),
                            (out.third, fd.third, rtol)):
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert np.max(np.abs(np.asarray(exact) - est)) <= tol * scale


def test_product_quotient_chain_vs_fd():
    _check_against_fd(
        lambda v: jet.sin(v[0]) * jet.exp(v[1]) / (v[0] + 2.0),
        lambda q: math.sin(q[0]) * math.exp(q[1]) / (q[0] + 2.0),
        (0.7, -0.3),
    )


def test_deep_composition_vs_fd():
    _check_against_fd(
        lambda v: jet.exp(jet.sin(v[0]) * v[1] * v[1] + jet.log(v[2])),
        lambda q: math.exp(math.sin(q[0]) * q[1] ** 2 + math.log(q[2])),
        (0.4, 1.2, 1.7),
    )


def test_sqrt_tan_atan_vs_fd():
    _check_against_fd(
        lambda v: jet.sqrt(v[0] * v[0] + 1.0) + jet.tan(v[1]) * jet.atan(v[0]),
        lambda q: math.sqrt(q[0] ** 2 + 1.0) + math.tan(q[1]) * math.atan(q[0]),
        (0.8, 0.6),
    )


# -- elementary tables at a frozen point --------------------------------------------------


def test_elementary_derivative_tables():
    x0 = 0.6
    x = jet_variable(0, x0, 1, 3)
    cases = {
        jet.sin: (math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0)),
        jet.cos: (math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0)),
        jet.exp: (math.exp(x0),) * 4,
        jet.log: (math.log(x0), 1 / x0, -1 / x0**2, 2 / x0**3),
        jet.sqrt: (
            math.sqrt(x0),
            0.5 * x0**-0.5,
            -0.25 * x0**-1.5,
            0.375 * x0**-2.5,
        ),
    }
    for fn, (v, d1, d2, d3) in cases.items():
        out = fn(x)
        assert math.isclose(out.value, v, rel_tol=1e-15)
        assert math.isclose(out.grad[0], d1, rel_tol=1e-14)
        assert math.isclose(out.hess[0, 0], d2, rel_tol=1e-14)
        assert math.isclose(out.third[0, 0, 0], d3, rel_tol=1e-13)


def test_tan_table():
    x0 = 0.4
    t = math.tan(x0)
    out = jet.tan(jet_variable(0, x0, 1, 3))
    sec2 = 1 + t * t
    assert math.isclose(out.grad[0], sec2, rel_tol=1e-14)
    assert math.isclose(out.hess[0, 0], 2 * t * sec2, rel_tol=1e-13)
    assert math.isclose(out.third[0, 0, 0], 2 * sec2 * (sec2 + 2 * t * t), rel_tol=1e-13)


def test_abs_branches():
    x = jet_variable(0, -1.7, 1, 2)
    out = abs(x * x * x)  # |x^3| has derivative -3x^2 at negative x
    assert math.isclose(out.value, 1.7**3, rel_tol=1e-15)
    assert math.isclose(out.grad[0], -3 * 1.7**2, rel_tol=1e-14)
    with pytest.raises(JetDomainError):
        abs(jet_variable(0, 0.0, 1, 1))


def test_domain_errors():
    bad = jet_variable(0, -0.5, 1, 2)
    for fn in (jet.log, jet.sqrt):
        with pytest.raises(JetDomainError):
            fn(bad)
    with pytest.raises(JetDomainError):
        jet_variable(0, -2.0, 1, 3) ** 1.5
    with pytest.raises(JetDomainError):
        (jet_variable(0, 0.0, 1, 1)).__rtruediv__(1.0)


def test_leibniz_third_order():
    # (fg)''' = f''' g + 3 f'' g' + 3 f' g'' + f g''' for univariate jets
    x0 = 0.9
    x = jet_variable(0, x0, 1, 3)
    f, g = jet.sin(x), jet.exp(x)
    prod = f * g
    expect = (
        f.third[0, 0, 0] * g.value
        + 3 * f.hess[0, 0] * g.grad[0]
        + 3 * f.grad[0] * g.hess[0, 0]
        + f.value * g.third[0, 0, 0]
    )
    assert math.isclose(prod.third[0, 0, 0], expect, rel_tol=1e-14)


def test_division_mirrors_reciprocal_multiply():
    a = jet.sin(jet_variable(0, 0.8, 1, 3))
    b = jet.exp(jet_variable(0, 0.8, 1, 3)) + 1.5
    q1 = a / b
    q2 = a * (1.0 / b)
    assert q1.value == q2.value
    assert np.array_equal(q1.grad, q2.grad)
    assert np.array_equal(q1.hess, q2.hess)
    assert np.array_equal(q1.third, q2.third)


def test_integer_power_square_and_multiply():
    x = jet_variable(0, 1.3, 1, 3) + 0.2
    p5 = x**5
    manual = ((x * x) * (x * x)) * x
    assert p5.value == manual.value
    assert np.array_equal(p5.grad, manual.grad)
    assert np.array_equal(p5.third, manual.third)
    inv = x**-2
    assert math.isclose(inv.value, 1.5**-2, rel_tol=1e-15)
    one = x**0
    assert one.value == 1.0 and not one.grad.any()


def test_real_power_vs_fd():
    _check_against_fd(
        lambda v: v[0] ** 2.5,
        lambda q: q[0] ** 2.5,
        (1.4,),
    )
    with pytest.raises(JetDomainError):
        (jet_variable(0, -1.0, 1, 1)) ** 0.5


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
    x0=st.floats(-2, 2),
)
def test_polynomial_jets_match_analytic_derivatives(coeffs, x0):
    # numpy polynomial derivatives are an independent oracle for jet slots
    x = jet_variable(0, x0, 1, 3)
    acc = jet_constant(0.0, 1, 3)
    for c in coeffs:
        acc = acc * x + c
    poly = np.polynomial.Polynomial(coeffs[::-1])
    assert math.isclose(acc.value, poly(x0), rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(acc.grad[0], poly.deriv(1)(x0), rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(acc.hess[0, 0], poly.deriv(2)(x0), rel_tol=1e-10, abs_tol=1e-10)
    assert math.isclose(
        acc.third[0, 0, 0], poly.deriv(3)(x0), rel_tol=1e-10, abs_tol=1e-10
    )


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(0.2, 2.0), b=st.floats(0.2, 2.0),
    x0=st.floats(-1.2, 1.2), y0=st.floats(-1.2, 1.2),
)
def test_schwarz_symmetry(a, b, x0, y0):
    # mixed partials commute: the stored tensors must be exactly symmetric
    x = jet_variable(0, x0, 2, 3)
    y = jet_variable(1, y0, 2, 3)
    out = jet.exp(a * x) * jet.sin(b * y) + x * x * y
    assert np.array_equal(out.hess, out.hess.T)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.array_equal(out.third, np.transpose(out.third, perm))


def test_slots_above_order_are_shared_read_only_zeros():
    x = jet_variable(0, 0.4, 2, 2)
    y = jet_variable(1, 1.1, 2, 2)
    out = jet.sin(x * y) + 2.0 * jet.sqrt(y) - x / y
    zero3 = jet_variable(0, 0.0, 2, 1).third
    assert out.third is zero3 and not zero3.flags.writeable and not zero3.any()
    assert jet_variable(1, 0.0, 2, 1).hess is jet_constant(2.0, 2, 0).hess
    # slots up to the order are fresh tensors derived from the coefficients:
    # all zero on a constant, and writing one leaves the jet as it was
    const = jet_constant(1.0, 2, 3)
    slot = const.third
    assert not slot.any()
    slot[0, 0, 0] = 5.0
    assert not const.third.any()


def test_tables_built_twice_are_interchangeable():
    # two threads missing the table cache at once each build a table
    x = jet_variable(0, 0.7, 2, 3)
    twin = jet._make(jet._Table(2, 3), jet_variable(1, 0.4, 2, 3).c)
    assert twin._t is not x._t
    out = x * twin + twin - x / twin
    assert math.isclose(out.value, 0.7 * 0.4 + 0.4 - 0.7 / 0.4, rel_tol=1e-15)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 3),
    order=st.integers(0, 3),
    rows=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    broadcast=st.booleans(),
)
def test_row_product_is_the_scalar_product_row_by_row(n, order, rows, seed, broadcast):
    t = jet._table(n, order)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, t.size))
    b = rng.standard_normal(t.size if broadcast else (rows, t.size))
    out = t.product(a, b)
    assert out.shape == (rows, t.size)
    for r in range(rows):
        assert np.array_equal(out[r], t.product(a[r], b if broadcast else b[r]))


def test_mixed_arity_rejected():
    x = jet_variable(0, 1.0, 2, 2)
    z = jet_variable(0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        x + z


# -- coefficient jets against the tensor-slot oracle ----------------------------------------

# unary nodes, each kept inside its domain and away from overflow so that
# both routes see moderate magnitudes
_UNARY = {
    "neg": lambda ns, x: -x,
    "sin": lambda ns, x: ns.sin(x),
    "cos": lambda ns, x: ns.cos(x),
    "atan": lambda ns, x: ns.atan(x),
    "exp": lambda ns, x: ns.exp(ns.sin(x)),
    "tan": lambda ns, x: ns.tan(ns.sin(x)),
    "log": lambda ns, x: ns.log(1.0 + x * x),
    "sqrt": lambda ns, x: ns.sqrt(1.0 + x * x),
    "recip": lambda ns, x: 1.0 / (2.0 + ns.sin(x)),
    "cube": lambda ns, x: x**3,
    "inv-square": lambda ns, x: (1.0 + x * x) ** -2,
    "real-pow": lambda ns, x: (1.0 + x * x) ** -0.7,
}
_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / (1.5 + b * b),
    "scale": lambda a, b: 0.75 * a - b * 1.25,
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


def _evaluate(tree, ns, seeds):
    kind = tree[0]
    if kind == "var":
        return seeds[tree[1] % len(seeds)]
    if kind == "const":
        return seeds[0] * 0.0 + tree[1]
    if kind in _UNARY:
        return _UNARY[kind](ns, _evaluate(tree[1], ns, seeds))
    return _BINARY[kind](_evaluate(tree[1], ns, seeds), _evaluate(tree[2], ns, seeds))


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees,
    n=st.integers(1, 3),
    order=st.integers(1, 3),
    point=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
)
def test_coefficient_jets_match_tensor_oracle(tree, n, order, point):
    out = _evaluate(tree, jet, [jet_variable(i, point[i], n, order) for i in range(n)])
    ref = _evaluate(
        tree, tensor_jet_oracle,
        [tensor_jet_oracle.TensorJet.variable(i, point[i], n, order) for i in range(n)],
    )
    assert out.n == n and out.order == order
    slots = ("value", "grad", "hess", "third")
    want = [np.asarray(getattr(ref, name)) for name in slots]
    _assert_slots_close(out, want)
    for rank, name in ((2, "hess"), (3, "third")):
        slot = getattr(out, name)
        for perm in itertools.permutations(range(rank)):
            assert np.array_equal(slot, slot.transpose(perm)), name
    # the partial tables read the oracle's slots one order up; the order-(k-1)
    # coefficients are a prefix of the order-k ones
    t, lower = out._t, jet._table(n, order - 1)
    for axis in range(n):
        part = jet._make(lower, out.c[t.partial_src[axis]] * t.partial_fac[axis])
        _assert_slots_close(part, [w[axis] for w in want[1:order + 1]] + [0.0] * (4 - order))
    low = jet._make(lower, out.c[: lower.size])
    for name in slots[:order]:
        assert np.array_equal(getattr(low, name), getattr(out, name))
    assert not np.asarray(getattr(low, slots[order])).any()


def _assert_slots_close(out, want):
    for name, w in zip(("value", "grad", "hess", "third"), want):
        got = np.asarray(getattr(out, name))
        scale = max(1.0, float(np.max(np.abs(w))))
        assert np.max(np.abs(got - w)) <= 1e-13 * scale, name


# -- stacks: one coefficient row per point ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees,
    n=st.integers(1, 3),
    order=st.integers(1, 3),
    # or more rows than the product multiplies at once, in chunks and a rest
    rows=st.one_of(st.integers(1, 30), st.just(2 * jet._ROW_CHUNK + 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_rows_match_single_jets(tree, n, order, rows, seed):
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, n))
    stack = _evaluate(tree, jet, [jet_variable(i, points[:, i], n, order) for i in range(n)])
    assert stack.c.shape == (rows, jet._table(n, order).size)
    # bit for bit, elementary functions included: a stack's values come from math as well
    for r, p in enumerate(points):
        single = _evaluate(tree, jet, [jet_variable(i, p[i], n, order) for i in range(n)])
        assert np.array_equal(stack.c[r], single.c)


# zeros of both signs, subnormals, and values at the edges of a domain or of
# the float range: log and sqrt near 0, tan near pi/2, exp near overflow
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e-160,
          1.5707963267948966, -1.5707963267948966, 709.782712893384, 709.7827128933841,
          -745.1332191019411, 1e154, 1e308, -1e308)
_SEED_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(-4.0, 4.0))


def _outcome(fn, x):
    """The coefficient bits of fn(x), or the type and text of what it raised."""
    try:
        out = fn(x)
    except Exception as exc:  # any error: the seed must raise the same one
        return type(exc), str(exc)
    return out.c.shape, out.c.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3),
    order=st.integers(1, 3),  # order 1 takes Horner's route, which has no products
    index=st.integers(0, 2),
    values=st.one_of(_SEED_VALUES, st.lists(_SEED_VALUES, min_size=1, max_size=6)),
    p=st.one_of(st.sampled_from([0.5, -0.5, 1.5, -2.5, 1e-3, 3.0000001]), st.floats(-5.0, 5.0)),
    state=st.sampled_from(["ignore", "warn", "raise"]),
)
def test_functions_of_a_seed_match_horner(n, order, index, values, p, state):
    # a function of a seed places its coefficients on the seed variable's
    # pure powers; a plain jet of the same coefficients runs Horner's
    # products: the two agree bit for bit, and raise the same error
    seed = jet_variable(index % n, np.array(values) if isinstance(values, list) else values,
                        n, order)
    plain = jet._make(seed._t, seed.c.copy())
    assert type(seed) is jet._Seed and type(plain) is Jet
    with np.errstate(all=state):
        for fn in (*_FUNCTIONS.values(), lambda x: x**p, lambda x: 1.0 / x):
            assert _outcome(fn, seed) == _outcome(fn, plain)


def test_stack_constant_shift_and_domain_errors():
    x = jet_variable(1, np.array([0.5, -2.0, 3.0]), 2, 3)
    for shifted in (x + 1.25, 1.25 + x, x - 1.25, 1.25 - x):
        sign = -1.0 if shifted.c[0, 2] < 0 else 1.0
        assert np.array_equal(shifted.c[:, 1:], sign * x.c[:, 1:])  # column 0 only
        assert np.array_equal(shifted.c[:, 0], shifted.value)
    assert np.array_equal((x + 1.25).value, [1.75, -0.75, 4.25])
    # the first out-of-domain row is named, as a single jet at that point names it
    cases = (jet.log, jet.sqrt, lambda j: 1.0 / (j - 3.0), lambda j: abs(j - 0.5),
             lambda j: (j - 3.0) ** 0.5)
    for fn in cases:
        with pytest.raises(JetDomainError) as err:
            fn(x)
        for value in x.value:
            try:
                fn(jet_variable(1, value, 2, 3))
            except JetDomainError as first:
                assert (err.value.tag, err.value.value) == (first.tag, first.value)
                assert str(err.value) == str(first)
                break
        else:
            pytest.fail("no single row fails")
    # a stack keeps a row per point in every derived view
    assert abs(x).c.shape == x.c.shape and np.array_equal(abs(x).value, [0.5, 2.0, 3.0])
    low = jet_variable(1, x.value, 2, 2)
    assert low.third.shape == (3, 2, 2, 2) and not low.third.any()
    assert jet_constant(np.array([1.0, 2.0]), 2, 3).c.shape == (2, 10)


def test_array_operand_on_either_side_of_a_stack():
    x = jet_variable(0, np.array([0.5, -2.0, 3.0]), 2, 3)
    per_row = np.array([2.0, 3.0, -0.25])
    # numpy defers to the jet: the left-hand forms are the right-hand ones, bit for bit
    for left, right in ((per_row * x, x * per_row), (per_row + x, x + per_row)):
        assert isinstance(left, Jet) and left.c.dtype == float
        assert np.array_equal(left.c, right.c)
    # what a jet does not define with an array raises, on either side
    for op in (lambda: per_row - x, lambda: per_row / x, lambda: x / per_row):
        with pytest.raises(TypeError):
            op()


def test_row_targets_stay_bounded():
    t = jet._Table(1, 3)
    big = np.ones((200_001, t.size))
    assert np.array_equal(t.product(big, big)[-1], t.product(big[0], big[0]))
    assert 200_001 not in t._row_targets  # about 16 MiB, built per call
    assert max(t._row_targets) <= jet._ROW_CHUNK  # tall stacks go a chunk at a time
