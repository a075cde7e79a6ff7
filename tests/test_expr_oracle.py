"""The compiled expression program against the tree walker it replaced.

``expr.Program`` runs a tuple of trees as one straight-line program with
shared subtrees.  ``expr_oracle`` walks each tree recursively, one after
another, evaluating every occurrence again.  On floats, single jets of every
order and stacks, the two must agree bit for bit, and where the walker fails
the program must fail with the same error type and text.  On a 1-D float
array, the program must give each entry its own float's bits.
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
from gcrkit.expr import FUNCTIONS, BinOp, Call, Const, Neg, Program, Var, parse_expr, to_text
from gcrkit.geometry import EvaluationError, Immersion, evaluate_jets
from gcrkit.jet import Jet, jet_variable

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "src" / "gcrkit" / "specs").glob("*.json")) + sorted(
    (ROOT / "bench" / "specs").glob("*.json")
)


def _bits(v):
    if isinstance(v, Jet):
        return "jet", v.n, v.order, v.c.shape, v.c.tobytes()
    return type(v), struct.pack("<d", v)


def _outcome(run):
    """The bits of every value, or the type and text of the error."""
    try:
        return [_bits(v) for v in run()]
    except Exception as exc:  # the program must fail as the walker does
        return type(exc), str(exc)


def _envs(names, rows, order):
    """Floats at the first row (order 0), single jets at it, or a stack."""
    if order == 0:
        return {name: float(rows[0][k]) for k, name in enumerate(names)}
    values = rows if order < 0 else rows[0]
    n, order = len(names), abs(order)
    return {name: jet_variable(k, np.asarray(values)[..., k], n, order)
            for k, name in enumerate(names)}


def _assert_matches(roots, env):
    want = _outcome(lambda: expr_oracle.eval_components(roots, env))
    got = _outcome(lambda: Program(roots)(env))
    assert got == want


# orders 0 (floats), 1-3 (single jets) and -1..-3 (stacks of the same order)
_ORDERS = [0, 1, 2, 3, -1, -2, -3]

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
        _assert_matches(roots, _envs(_NAMES, rows, order))


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


@settings(max_examples=400, deadline=None)
@given(tree=_TREES, row=_ROW, var=st.sampled_from(_NAMES), k=st.sampled_from([1, 2, 3]))
def test_derivative_trees_match_jet_partials(tree, row, var, k):
    # where the tree's order-(k+1) tensor jet and the derivative tree's
    # order-k jet both evaluate to finite numbers, the second is the
    # var-partial of the first: each coefficient within 1e-13 of 1 plus the
    # largest coefficient that any step of either route holds, the scale of
    # the terms that the two routes round (near a root of a divisor, such as
    # t/t at t = 1e-40, those terms dwarf the result)
    scale = [1.0]
    env = {n: jet_variable(i, row[i], 2, k) for i, n in enumerate(_NAMES)}
    with np.errstate(all="ignore"):
        try:
            Program((tree,))(env)  # the tree's own domain
            program = Program((expr._derivative(tree, var),))
            got = program(env)[0]
        except expr.ExprEvalError:
            return  # outside the domain
        slots = program._slots.copy()
        slots[0] = env
        for slot, fn, i, j in program._code:  # its loop again, keeping every step
            slots[slot] = fn(slots[i]) if j is None else fn(slots[i], slots[j])
        scale.extend(np.abs(v.c).max() for v in slots if isinstance(v, Jet))
        seeds = {n: tensor_jet_oracle.TensorJet.variable(i, row[i], 2, k + 1)
                 for i, n in enumerate(_NAMES)}
        try:
            whole = tensor_jet_oracle.evaluate(tree, seeds, scale)
        except (ValueError, ArithmeticError):
            return  # a term of order k + 1 leaves the float range
    axis = _NAMES.index(var)
    slots = (whole.grad, whole.hess, whole.third, whole.fourth)
    # the partial's tensors, converted through the flat jet's constructor
    want = Jet(2, k, float(slots[0][axis]), *(t[axis] for t in slots[1:]))
    if np.isfinite(want.c).all() and np.isfinite(got.c).all():
        assert np.all(np.abs(got.c - want.c) <= 1e-13 * max(scale)), (to_text(tree), row)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_program_matches_walker_on_bundled_specs(path):
    # every chart, the cone's derivative trees and the interpolant nodes of
    # the tube and of integrated profiles included
    m, _ = build_surface(load_spec(str(path)))
    roots, names = m.components, m.var_names
    rows = np.random.default_rng(7).uniform(-1.0, 3.0, (5, len(names)))
    for order in _ORDERS:
        _assert_matches(roots, _envs(names, rows, order))


def test_first_failing_component_wins():
    # components 2 and 4 both fail at t = 1, and share the subtree that fails
    comps = ("s", "u+log(t-2)", "u", "sqrt(t-3)+log(t-2)")
    m = Immersion.from_exprs("two faults", comps, ("s", "t", "u"), ((0, 1), (0, 2), (0, 1)))
    p = (0.5, 1.0, 0.5)
    env = {n: jet_variable(k, p[k], 3, 2) for k, n in enumerate(m.var_names)}
    with pytest.raises(expr.ExprEvalError) as want:
        expr_oracle.eval_components(m.components, env)
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
        env = {n: jet_variable(k, p[k], 3, order) for k, n in enumerate(m.var_names)}
        expr_oracle.eval_components(m.components, env)
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
    _assert_matches(roots, {"s": jet_variable(0, -1.0, 1, 2)})

