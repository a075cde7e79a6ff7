"""Step reuse inside one grid sweep: an expression chart's Program reruns only
the steps that read a variable whose jet changed since the previous successful
call of the same sweep, and the jets, records and errors stay those of a full
run."""

import contextlib
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrkit import catalog, cli, expr, gcr
from gcrkit.expr import ExprError, parse_expr
from gcrkit.gcr import EmptyReportError, GridSpec, classify_surface
from gcrkit.geometry import (
    EvaluationError, Immersion, derivative_bundle, evaluate_jets, point_geometry,
)
from gcrkit.jet import jet_variable

# every catalog builder whose default chart is compiled from expressions
EXPRESSION_FAMILIES = [
    catalog.circular_hypercylinder, catalog.conical_hypercylinder,
    catalog.hypercylinder_rotational, catalog.hyperplane, catalog.product_cylinder,
    catalog.rotational, catalog.so2_x_so2, catalog.special_sqrt2,
    catalog.spherical_hypercylinder, catalog.tangent_developable_cylinder,
]
# log(t) fails at t <= 0 after s*s has run; its steps read s or t alone
LOG_CHART = Immersion.from_exprs("log", ["s", "t", "log(t)+s*s"], ["s", "t"],
                                 [(0.5, 1.5), (-1.0, 1.0)])


def sweep_chart() -> Immersion:
    """A fresh seeded so2_x_so2 chart, whose program a test may instrument."""
    return catalog.so2_x_so2(f="2.0+cos(s)", g="1.5+0.3*sin(s)")


def same_jets(a, b) -> bool:
    return len(a) == len(b) and all(
        x.n == y.n and x.order == y.order and x.c.tobytes() == y.c.tobytes()
        for x, y in zip(a, b)
    )


def outcome(m, p, order):
    """The jets of ``m`` at ``p``, or the text of the error they raise."""
    try:
        return evaluate_jets(m, p, order=order, check_domain=False)
    except EvaluationError as exc:
        return str(exc)


def assert_same(warm, cold):
    if isinstance(cold, str):
        assert warm == cold
    else:
        assert same_jets(warm, cold)


def steps_run(program):
    """Wrap every step of ``program`` so that it logs its slot when it runs."""
    log = []

    def counted(k, fn):
        def step(*args):
            log.append(k)
            return fn(*args)
        return step

    program._code = [(k, counted(k, fn), i, j) for k, fn, i, j in program._code]
    return log


def reads(program) -> dict:
    """Per step slot, the variables its value depends on, from the operand
    graph."""
    out = {}
    for k, fn, i, j in program._code:
        out[k] = ({program._slots[j]} if fn is expr._load
                  else out.get(i, set()) | out.get(j, set()))
    return out


@pytest.mark.parametrize("family", EXPRESSION_FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_warm_jets_equal_cold_jets_bit_for_bit(family, order):
    m = family()
    lo, hi = np.array(m.domain).T
    base = lo + 0.37 * (hi - lo)
    moved = lo + 0.71 * (hi - lo)
    # the next point differs from the last in one, two or all coordinates,
    # and comes back to the base point in between
    walk = [base]
    for size in range(1, m.n + 1):
        for axes in itertools.combinations(range(m.n), size):
            q = base.copy()
            q[list(axes)] = moved[list(axes)]
            walk += [q, base]
    cold = [outcome(m, p, order) for p in walk]
    with m.program._sweep():
        warm = [outcome(m, p, order) for p in walk]
    for w, c in zip(warm, cold):
        assert_same(w, c)


def test_orders_and_arities_are_told_apart():
    # one program seen at orders 1-3, and at arity 3 and 2: the same values
    # with other tables share no step; (n=3, order 2) and (n=2, order 3) have
    # ten coefficients each
    program = expr.Program([parse_expr("s*s+sin(t)", ["s", "t", "u"])])
    envs = [
        {name: jet_variable(i, v, n, order) for i, (name, v) in
         enumerate(zip(["s", "t", "u"][:n], [0.4, 0.9, 0.1]))}
        for n, order in [(3, 2), (2, 3), (3, 1), (3, 2), (2, 3), (3, 3), (2, 1)]
    ]
    cold = [program(env) for env in envs]
    with program._sweep():
        warm = [program(env) for env in envs]
    for w, c in zip(warm, cold):
        assert same_jets(w, c)


def test_a_call_that_raised_partway_publishes_nothing():
    # (1.2, -0.5) fails at log(t) before s*s reruns for s = 1.2; the next
    # point differs from the last successful one in s alone, so it must
    # rerun s*s instead of keeping a slot of the failed call
    walk = [(1.0, 0.5), (1.2, -0.5), (1.2, 0.5), (1.2, 0.0), (1.0, 0.0), (1.0, 0.5)]
    cold = [outcome(LOG_CHART, p, 2) for p in walk]
    assert "log is undefined" in cold[1]
    with LOG_CHART.program._sweep():
        warm = [outcome(LOG_CHART, p, 2) for p in walk]
    for w, c in zip(warm, cold):
        assert_same(w, c)


@settings(max_examples=60, deadline=None)
@given(walk=st.lists(st.tuples(st.sampled_from([0.5, 0.75, 1.5]),
                               st.sampled_from([-1.0, 0.0, 0.25, 1.0])),
                     min_size=1, max_size=12),
       order=st.integers(1, 3))
def test_any_walk_with_failures_matches_cold_calls(walk, order):
    cold = [outcome(LOG_CHART, p, order) for p in walk]
    with LOG_CHART.program._sweep():
        warm = [outcome(LOG_CHART, p, order) for p in walk]
    for w, c in zip(warm, cold):
        assert_same(w, c)


def test_sweep_reruns_only_the_steps_of_changed_variables(monkeypatch):
    m = sweep_chart()
    program = m.program
    depends = reads(program)
    order = [k for k, *_ in program._code]
    log = steps_run(program)
    calls = []  # (point, slots of the steps it ran)

    def traced(m, p, *args, **kwargs):
        start = len(log)
        pg = point_geometry(m, p, *args, **kwargs)
        calls.append((tuple(p), log[start:]))
        return pg

    monkeypatch.setattr(gcr, "point_geometry", traced)
    report = classify_surface(m, GridSpec((8, 8, 8)))
    assert not report.skipped and len(calls) == 512
    assert calls[0][1] == order
    only_u = 0
    for (last, _), (p, ran) in zip(calls, calls[1:]):
        changed = {name for name, a, b in zip(m.var_names, last, p) if a != b}
        assert ran == [k for k in order if depends[k] & changed]
        if changed == {"u"}:
            only_u += 1
            assert len(ran) == sum("u" in depends[k] for k in order) < len(order)
    assert only_u == 8 * 8 * 7
    assert program._state is None


def test_state_is_dropped_and_each_sweep_starts_cold():
    m = sweep_chart()
    program = m.program
    first = classify_surface(m, GridSpec((3, 3, 3)))
    assert program._state is None
    log = steps_run(program)
    second = classify_surface(m, GridSpec((3, 3, 3)))
    assert program._state is None
    assert log[: len(program._code)] == [k for k, *_ in program._code]
    assert first.records == second.records


def test_a_sweep_that_raises_drops_its_state(monkeypatch):
    m = sweep_chart()

    def interrupted(pg, tols, include_structural=False):
        assert m.program._state[1] is not None  # the sweep has a state to drop
        raise KeyboardInterrupt

    monkeypatch.setattr(gcr, "_classify_rows", interrupted)
    with pytest.raises(KeyboardInterrupt):
        classify_surface(m, GridSpec((3, 3, 3)))
    assert m.program._state is None
    # so does one whose every point fails
    broken = Immersion.from_exprs("broken", ["s", "t", "log(-1-t*t)"], ["s", "t"],
                                  [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(EmptyReportError):
        classify_surface(broken, GridSpec((3, 3)))
    assert broken.program._state is None


def test_no_reuse_outside_a_sweep_or_for_stacks():
    m = sweep_chart()
    program = m.program
    log = steps_run(program)
    size = len(program._code)
    p = (1.0, 0.5, 0.5)

    def runs(call) -> int:
        start = len(log)
        call()
        return len(log) - start

    # outside a sweep every call runs every step
    assert runs(lambda: evaluate_jets(m, p, order=2)) == size
    assert runs(lambda: evaluate_jets(m, p, order=2)) == size
    assert runs(lambda: point_geometry(m, p)) == size
    assert runs(lambda: derivative_bundle(m, p)) == size
    assert program._state is None
    with program._sweep():
        assert runs(lambda: evaluate_jets(m, p, order=2)) == size
        assert runs(lambda: evaluate_jets(m, p, order=2)) == 0
        state = program._state
        # a stack neither reads nor keeps the state
        stack = np.array([p, p])
        assert runs(lambda: evaluate_jets(m, stack, order=2)) == size
        assert program._state is state
        # nor does a call from another thread
        counts = []
        thread = threading.Thread(target=lambda: counts.append(
            runs(lambda: evaluate_jets(m, p, order=2))))
        thread.start()
        thread.join()
        assert counts == [size] and program._state is state
        assert runs(lambda: evaluate_jets(m, p, order=2)) == 0
    assert program._state is None
    assert runs(lambda: evaluate_jets(m, p, order=2)) == size


def test_stacked_sweep_keeps_no_state():
    # --full assembles each block from one stacked evaluation: no state
    m = sweep_chart()
    seen = []
    real = m.program._keys

    def keys(env):
        seen.append(m.program._state)
        return real(env)

    m.program._keys = keys
    classify_surface(m, GridSpec((2, 2, 2)), include_structural=True)
    assert seen and all(s[1] is None for s in seen)
    assert m.program._state is None


def test_reuse_keeps_reports_identical(monkeypatch):
    # classification over a chart whose rows fail partway equals the one a
    # program that never reuses gives
    m = Immersion.from_exprs("log", LOG_CHART.components, LOG_CHART.var_names,
                             LOG_CHART.domain)
    for grid in (GridSpec((5, 5)), GridSpec((3, 3)), GridSpec((4, 7))):
        warm = classify_surface(m, grid)
        with monkeypatch.context() as patch:
            patch.setattr(m.program, "_sweep", contextlib.nullcontext)
            cold = classify_surface(m, grid)
        assert warm.skipped and warm.records
        assert warm.records == cold.records and warm.skipped == cold.skipped


def test_cli_eval_never_reuses(monkeypatch, capsys):
    def refuse(self, changed):
        raise AssertionError("a step was reused")

    monkeypatch.setattr(expr.Program, "_plan", refuse)
    for _ in range(2):
        assert cli.main(["eval", "special_sqrt2.json", "--point", "1,1,1"]) == 0
    assert capsys.readouterr().out


def test_errors_leave_as_expr_errors_in_a_sweep():
    program = LOG_CHART.program
    with program._sweep():
        env = {"s": jet_variable(0, 1.0, 2, 2), "t": jet_variable(1, 0.5, 2, 2)}
        program(env)
        env["t"] = jet_variable(1, -0.5, 2, 2)
        with pytest.raises(ExprError, match="log is undefined"):
            program(env)
