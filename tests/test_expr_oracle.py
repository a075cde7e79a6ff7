"""The compiled expression program against the tree walker it replaced.

``expr.Program`` runs a tuple of trees as one straight-line program with
shared subtrees.  ``expr_oracle`` walks each tree recursively, one after
another, evaluating every occurrence again.  On floats and on 1-D float
arrays, for the trees themselves and for their partial trees of every
order, the two must agree bit for bit, and where the walker fails the
program must fail with the same error type and text.  On a 1-D float
array, the program must give each entry its own float's bits.  The partial
trees' values must match the tensor-slot oracle's derivatives.
"""

import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_oracle
import tensor_jet_oracle
import gcrkit.catalog as catalog
import gcrkit.expr as expr
from gcrkit.cli import build_surface, load_spec
from gcrkit.expr import (FUNCTIONS, BinOp, Call, Const, Neg, Program, Var, _partials,
                         parse_expr, to_text)
from gcrkit.geometry import EvaluationError, Immersion, evaluate_jets

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "src" / "gcrkit" / "specs").glob("*.json")) + sorted(
    (ROOT / "bench" / "specs").glob("*.json")
)


def _bits(v):
    if isinstance(v, np.ndarray):
        return "array", v.shape, v.tobytes()
    return type(v), struct.pack("<d", v)


def _outcome(run):
    """The bits of every value, or the type and text of the error."""
    try:
        return [_bits(v) for v in run()]
    except Exception as exc:  # the program must fail as the walker does
        return type(exc), str(exc)


def _envs(names, rows, stacked):
    """Floats at the first row, or 1-D arrays of every row."""
    if stacked:
        return {name: np.array([row[k] for row in rows]) for k, name in enumerate(names)}
    return {name: float(rows[0][k]) for k, name in enumerate(names)}


def _assert_matches(roots, env, order=0):
    """The program of the partial trees of ``roots`` up to ``order`` (the
    trees themselves at 0) against the walk of those trees."""
    if order:
        roots = tuple(_partials(roots, tuple(env), order))
    want = _outcome(lambda: expr_oracle.eval_components(roots, env))
    got = _outcome(lambda: Program(roots)(env))
    assert got == want


# partial orders 0 (the trees) to 3, on floats and on float arrays
_ORDERS = [(order, stacked) for stacked in (False, True) for order in range(4)]

_CONSTS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.5, 1e-3, 0.25, 1e200])
_NAMES = ("s", "t")
_TREES = st.recursive(
    st.one_of(st.builds(Const, _CONSTS), st.sampled_from([Var(n) for n in _NAMES])),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(FUNCTIONS), sub),
    ),
    max_leaves=10,
)


@st.composite
def _charts(draw):
    """Up to four roots built from a small pool, so subtrees repeat."""
    pool = draw(st.lists(_TREES, min_size=1, max_size=3))
    member = st.sampled_from(pool)
    root = st.one_of(member, st.builds(BinOp, st.sampled_from("+*/"), member, member))
    return tuple(draw(st.lists(root, min_size=1, max_size=4)))


_ROW = st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
_ROWS = st.lists(_ROW, min_size=3, max_size=3)


@settings(max_examples=400, deadline=None)
@given(
    roots=_charts(),
    rows=_ROWS,
    order=st.sampled_from(_ORDERS),
    errors=st.sampled_from(["ignore", "raise"]),
)
def test_program_matches_walker_on_random_trees(roots, rows, order, errors):
    with np.errstate(all=errors):
        _assert_matches(roots, _envs(_NAMES, rows, order[1]), order[0])


@settings(max_examples=300, deadline=None)
@given(roots=_charts(), rows=st.lists(_ROW, min_size=1, max_size=8))
def test_program_on_float_arrays_matches_each_float(roots, rows):
    # a 1-D float array takes the float route entry by entry: each entry that
    # evaluates as a float gives that float's bits, signed zeros included
    program = Program(roots)
    fine, want = [], []
    for row in rows:
        try:
            want.append(program(dict(zip(_NAMES, row))))
        except expr.ExprEvalError:
            continue
        fine.append(row)
    if not fine:
        return
    with np.errstate(all="ignore"):  # floats overflow to inf quietly too
        got = program(dict(zip(_NAMES, np.array(fine).T)))
    assert len(got) == len(roots)
    for k, values in enumerate(got):
        assert type(values) is np.ndarray and values.shape == (len(fine),)
        assert values.tobytes() == np.array([w[k] for w in want]).tobytes()


def _oracle_rows(tree, row, order, steps=None):
    """The tree's partials at ``row`` up to ``order`` from the tensor-slot
    oracle, in the layout of the partial rows."""
    seeds = {n: tensor_jet_oracle.TensorJet.variable(i, row[i], 2, order)
             for i, n in enumerate(_NAMES)}
    return tensor_jet_oracle.partial_rows(tensor_jet_oracle.evaluate(tree, seeds, steps), order)


@settings(max_examples=400, deadline=None)
@given(tree=_TREES, row=_ROW, k=st.sampled_from([1, 2, 3]))
def test_derivative_trees_match_jet_partials(tree, row, k):
    # where the tree's partial rows up to order k and its order-k tensor jet
    # both evaluate to finite numbers, each row is the oracle's partial,
    # within 1e-13 of 1 plus the largest number that any step of either
    # route holds, the scale of the terms that the two routes round (near a
    # root of a divisor, such as t/t at t = 1e-40, those terms dwarf the
    # result)
    scale = [1.0]
    env = dict(zip(_NAMES, row))
    program = Program(_partials((tree,), _NAMES, k))
    with np.errstate(all="ignore"):
        try:
            got = program(env)
        except expr.ExprEvalError:
            return  # outside the domain of the tree or of a partial
        slots = program._slots.copy()
        slots[0] = env
        for slot, fn, i, j in program._code:  # its loop again, keeping every step
            slots[slot] = fn(slots[i]) if j is None else fn(slots[i], slots[j])
        scale.extend(abs(v) for v in slots if isinstance(v, float) and math.isfinite(v))
        try:
            want = _oracle_rows(tree, row, k, scale)
        except (ValueError, ArithmeticError):
            return  # a term of order k leaves the float range
    if np.isfinite(want).all() and np.isfinite(got).all():
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-13 * max(scale)), (to_text(tree), row)


@pytest.mark.parametrize("text", ["s^2", "s^3", "s^2*t", "s^3*t^2-2*s*t", "(s*t)^2", "s^4/(1+t)"])
def test_polynomial_partials_at_zero_are_exact(text):
    # every partial of a polynomial at s = 0, the ones that vanish included,
    # is the oracle's exactly: a power rule that left 0*s^-1 behind would
    # divide by zero there
    tree = parse_expr(text, _NAMES)
    for order in (1, 2, 3):
        got = Program(_partials((tree,), _NAMES, order))({"s": 0.0, "t": 0.7})
        want = _oracle_rows(tree, (0.0, 0.7), order)
        assert got == want.tolist() and np.isfinite(got).all(), order


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_program_matches_walker_on_bundled_specs(path):
    # every chart, the cone's derivative trees and the interpolant nodes of
    # the tube and of integrated profiles included
    m, _ = build_surface(load_spec(str(path)))
    roots, names = m.components, m.var_names
    rows = np.random.default_rng(7).uniform(-1.0, 3.0, (5, len(names)))
    for order, stacked in _ORDERS:
        _assert_matches(roots, _envs(names, rows, stacked), order)


def test_first_failing_component_wins():
    # components 2 and 4 both fail at t = 1, and share the subtree that fails
    comps = ("s", "u+log(t-2)", "u", "sqrt(t-3)+log(t-2)")
    m = Immersion.from_exprs("two faults", comps, ("s", "t", "u"), ((0, 1), (0, 2), (0, 1)))
    p = (0.5, 1.0, 0.5)
    rows = _partials(m.components, m.var_names, 2)
    with pytest.raises(expr.ExprEvalError) as want:
        expr_oracle.eval_components(rows, dict(zip(m.var_names, p)))
    assert "log" in str(want.value)
    with pytest.raises(EvaluationError) as got:
        evaluate_jets(m, p, order=2)
    assert str(got.value) == str(EvaluationError(p, want.value))
    assert type(got.value.__cause__) is type(want.value)


def test_unbound_variable_fails_where_the_walk_reaches_it():
    # the walk meets log(0-1) before the unbound x, and x before sqrt(0-1)
    roots = tuple(parse_expr(t, ("s", "x")) for t in ("s", "log(0-1)+x", "x+sqrt(0-1)"))
    _assert_matches(roots, {"s": 1.0})
    _assert_matches(roots[::2], {"s": 1.0})
    _assert_matches(roots, {})


def test_shared_subtrees_run_once_per_evaluation(monkeypatch):
    calls = []
    for name in ("sin", "cos"):
        fn = expr._FUNCTIONS[name]
        monkeypatch.setitem(expr._FUNCTIONS, name, lambda x, fn=fn: calls.append(fn) or fn(x))
    m = catalog.make_family("so2_x_so2")  # compiled with the counting functions
    p = (1.0, 0.5, 0.7)
    for order in (1, 2, 3):
        calls.clear()
        evaluate_jets(m, p, order=order)
        assert len(calls) == 6  # cos s, cos t, sin t, sin s, cos u, sin u
        calls.clear()
        expr_oracle.eval_components(m.components, dict(zip(m.var_names, p)))
        assert len(calls) == 8  # the walk evaluates cos s and sin s twice


def test_constants_with_different_bits_stay_apart():
    s = Var("s")
    roots = (
        BinOp("*", Const(0.0), s),
        BinOp("*", Const(-0.0), s),
        BinOp("+", Const(0.0), Const(-0.0)),
        BinOp("+", Const(-0.0), Const(-0.0)),
    )
    out = Program(roots)({"s": -1.0})
    assert [math.copysign(1.0, v) for v in out] == [-1.0, 1.0, 1.0, -1.0]
    _assert_matches(roots, {"s": -1.0})
    _assert_matches(roots, {"s": np.array([-1.0, 2.0])})
    _assert_matches(roots, {"s": -1.0}, 3)

