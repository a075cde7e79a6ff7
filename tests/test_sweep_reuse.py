"""Reuse within one grid sweep: each block's jets come from one stacked
evaluation, and each of the block's per-point point_geometry calls is given
its row of it (``_rows``) instead of evaluating the chart again.  A point
whose row is not finite, or whose block's stacked evaluation raised, is given
None and evaluates alone; every row, record, skip text and error stays that
of a point evaluated on its own."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcrkit import catalog, gcr, geometry
from gcrkit.expr import ExprError
from gcrkit.gcr import EmptyReportError, GridSpec, Tolerances, classify_surface
from gcrkit.geometry import (
    EvaluationError, GeometryError, Immersion, SingularPointError,
    derivative_bundle, evaluate_jets, point_geometry,
)

# every catalog builder whose default chart is compiled from closed-form expressions
EXPRESSION_FAMILIES = [
    catalog.circular_hypercylinder, catalog.conical_hypercylinder,
    catalog.hypercylinder_rotational, catalog.hyperplane, catalog.product_cylinder,
    catalog.rotational, catalog.so2_x_so2, catalog.special_sqrt2,
    catalog.spherical_hypercylinder, catalog.tangent_developable_cylinder,
]


def so2_x_so2_ode() -> Immersion:
    """so2_x_so2 with an integrated profile: a program over Hermite data."""
    return catalog.make_family(
        "so2_x_so2", kappa="0.4+0.1*s", init=(1.5, 0.4, 0.15),
        domain=((0.0, 1.6), (0.0, 2 * math.pi), (0.0, 2 * math.pi)))


# the charts whose programs read an interpolant (the tube and the integrated
# profile) or the derivative trees of their base (the cone)
DERIVED_CHARTS = [catalog.tangent_cone, catalog.curve_tube, so2_x_so2_ode]

# log(t) fails at t <= 0 after s*s has run
LOG_CHART = Immersion.from_exprs("log", ["s", "t", "log(t)+s*s"], ["s", "t"],
                                 [(0.5, 1.5), (-1.0, 1.0)])


def sweep_chart() -> Immersion:
    """A fresh seeded so2_x_so2 chart, whose program a test may instrument."""
    return catalog.so2_x_so2(f="2.0+cos(s)", g="1.5+0.3*sin(s)")


def bits(pg) -> list:
    """Every field of a PointGeometry, or a row of a block, as type and bytes."""
    return [(type(v), None if v is None else np.asarray(v).tobytes())
            for v in (getattr(pg, f.name) for f in dataclasses.fields(pg))]


def cold(m, p, order):
    """The geometry of ``m`` at ``p`` evaluated on its own, or the skip text
    a sweep gives it."""
    try:
        return point_geometry(m, p, check_domain=False, order=order)
    except SingularPointError as exc:
        return f"singular metric (det g = {exc.det_g:.3e})"
    except (GeometryError, ExprError, FloatingPointError) as exc:
        return f"evaluation failed: {exc}"


def assert_same(warm, want):
    if isinstance(want, str):
        assert warm == want
    else:
        assert bits(warm) == bits(want)


def counting_evaluations(monkeypatch) -> list:
    """(jet order, rows) of every evaluate_jets call."""
    calls = []
    original = geometry.evaluate_jets

    def counting(m, p, order=3, check_domain=True):
        calls.append((order, len(np.reshape(p, (-1, m.n)))))
        return original(m, p, order, check_domain)

    monkeypatch.setattr(geometry, "evaluate_jets", counting)
    return calls


def given_rows(patch) -> list:
    """The ``_rows`` of every point_geometry call of a sweep, on ``patch``
    (a MonkeyPatch), as (point, rows) copies."""
    given = []
    original = gcr.point_geometry

    def recording(m, p, *args, _rows=None, **kwargs):
        given.append((p.copy(), None if _rows is None else _rows.copy()))
        return original(m, p, *args, _rows=_rows, **kwargs)

    patch.setattr(gcr, "point_geometry", recording)
    return given


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


@pytest.mark.parametrize("family", EXPRESSION_FAMILIES + DERIVED_CHARTS,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_warm_jets_equal_cold_jets_bit_for_bit(monkeypatch, family, order):
    # a block's stacked rows are each point's own evaluation bit for bit, and
    # so is the geometry point_geometry assembles from them, given as _rows
    m = family()
    lo, hi = np.array(m.domain).T
    base = lo + 0.37 * (hi - lo)
    moved = lo + 0.71 * (hi - lo)
    # points that differ from the last in one, two or all coordinates
    block = [base]
    for axis in range(m.n):
        q = block[-1].copy()
        q[axis] = moved[axis]
        block += [q, base]
    block = np.array(block)
    rows = geometry.evaluate_jets(m, block, order, False)
    for p, row in zip(block, rows):
        assert row.tobytes() == geometry.evaluate_jets(m, p, order, False).tobytes()
    if order == 1:
        return  # geometry needs second partials
    want = [cold(m, p, order) for p in block]
    evaluated = counting_evaluations(monkeypatch)
    warm = [point_geometry(m, p, check_domain=False, order=order, _rows=row)
            for p, row in zip(block, rows)]
    assert evaluated == []
    for w, c in zip(warm, want):
        assert_same(w, c)


def test_a_call_that_raised_partway_publishes_nothing(monkeypatch):
    # the block's stacked evaluation fails at log(t) after s*s ran: every
    # point is given None and evaluated on its own, with its own text
    block = np.array([(1.0, 0.5), (1.2, -0.5), (1.2, 0.5), (1.2, 0.0), (1.0, 0.5)])
    with pytest.raises(EvaluationError, match="log is undefined"):
        evaluate_jets(LOG_CHART, block, order=2, check_domain=False)
    given = given_rows(monkeypatch)
    with np.errstate(all="raise", under="ignore"):
        pg, _, reasons = gcr._classify_block(LOG_CHART, block, 2, Tolerances(), False)
    assert [rows for _, rows in given] == [None] * 5
    assert reasons[1] == ("evaluation failed: component evaluation failed at [1.2, -0.5]: "
                          "log is undefined or not differentiable at -0.5")
    want = [cold(LOG_CHART, p, 2) for p in block]
    assert reasons == [w if isinstance(w, str) else None for w in want]
    kept = [w for w in want if not isinstance(w, str)]
    for i, w in enumerate(kept):
        assert bits(geometry._row(pg, i)) == bits(w)
    # a chart whose every point fails leaves no report
    given.clear()
    broken = Immersion.from_exprs("broken", ["s", "t", "log(-1-t*t)"], ["s", "t"],
                                  [(0.0, 1.0), (0.0, 1.0)])
    with pytest.raises(EmptyReportError, match=r"first failure at \[0\.0, 0\.0\] \(evaluation"):
        classify_surface(broken, GridSpec((3, 3)))
    assert [rows for _, rows in given] == [None] * 9


@settings(max_examples=60, deadline=None)
@given(walk=st.lists(st.tuples(st.sampled_from([0.5, 0.75, 1.5]),
                               st.sampled_from([-1.0, 0.0, 0.25, 1.0])),
                     min_size=1, max_size=12),
       order=st.integers(2, 3), full=st.booleans())
def test_any_walk_with_failures_matches_cold_calls(walk, order, full):
    block = np.array(walk)
    with pytest.MonkeyPatch.context() as patch:
        given = given_rows(patch)
        with np.errstate(all="raise", under="ignore"):
            pg, _, reasons = gcr._classify_block(LOG_CHART, block, order, Tolerances(), full)
    # log(t) at t <= 0 raises in the stack: every point is given None;
    # otherwise the plain path gives each its row and --full assembles at once
    if (block[:, 1] <= 0).any():
        assert [rows for _, rows in given] == [None] * len(block)
    elif full:
        assert given == []
    else:
        assert [rows.tobytes() for _, rows in given] == [
            geometry.evaluate_jets(LOG_CHART, p, order, False).tobytes() for p in block]
    want = [cold(LOG_CHART, p, order) for p in block]
    assert reasons == [w if isinstance(w, str) else None for w in want]
    kept = [w for w in want if not isinstance(w, str)]
    assert (pg is None) == (not kept)
    for i, w in enumerate(kept):
        assert bits(geometry._row(pg, i)) == bits(w)


def test_sweep_evaluates_each_block_once(monkeypatch):
    # the plain sweep runs every program step once per block, on the stack,
    # and calls point_geometry once per point, each given its row of the stack
    given = given_rows(monkeypatch)
    grid = GridSpec((8, 8, 8))
    for block_size in (gcr._BLOCK, 100):
        monkeypatch.setattr(gcr, "_BLOCK", block_size)
        m = sweep_chart()
        log = steps_run(m._program(2))
        evaluated = counting_evaluations(monkeypatch)
        given.clear()
        report = classify_surface(m, grid)
        assert not report.skipped and len(report.records) == 512
        assert evaluated == [(2, min(block_size, 512 - i)) for i in range(0, 512, block_size)]
        assert len(log) == len(evaluated) * len(m._program(2)._code)
        points = grid.points(m.domain)
        assert [p.tobytes() for p, _ in given] == [p.tobytes() for p in points]
        assert [rows.tobytes() for _, rows in given] == [
            geometry.evaluate_jets(m, p, 2, False).tobytes() for p in points]


def test_no_reuse_outside_a_sweep_or_for_stacks(monkeypatch):
    m = sweep_chart()
    p = (1.0, 0.5, 0.5)
    evaluated = counting_evaluations(monkeypatch)

    def runs(call) -> int:
        start = len(evaluated)
        call()
        return len(evaluated) - start

    # outside a sweep every call evaluates
    assert runs(lambda: geometry.evaluate_jets(m, p, order=2)) == 1
    assert runs(lambda: point_geometry(m, p)) == 1
    assert runs(lambda: point_geometry(m, p)) == 1
    assert runs(lambda: derivative_bundle(m, p)) == 1
    block = np.array([p, (1.2, 0.5, 0.5)])
    for order in (2, 3):
        rows = geometry.evaluate_jets(m, block, order, True)
        # only a call given its rows does not
        assert runs(lambda: point_geometry(m, p, order=order, _rows=rows[0])) == 0
        assert runs(lambda: point_geometry(m, p, order=order, _rows=None)) == 1
        assert runs(lambda: point_geometry(m, p, order=order)) == 1
        assert runs(lambda: derivative_bundle(m, p)) == 1


def test_stacked_sweep_keeps_no_state(monkeypatch):
    # --full assembles a block from its stacked evaluation and calls no
    # point_geometry; a block whose stacked assembly fails gives each point
    # its rows
    given = given_rows(monkeypatch)
    classify_surface(sweep_chart(), GridSpec((2, 2, 2)), include_structural=True)
    assert given == []
    # the cone (s cos t, s sin t, s) is singular along s = 0
    cone = Immersion.from_exprs("cone", ("s*cos(t)", "s*sin(t)", "s"), ("s", "t"),
                                ((-1.0, 1.0), (0.0, 1.0)))
    evaluated = counting_evaluations(monkeypatch)
    rep = classify_surface(cone, GridSpec((3, 3)), include_structural=True)
    assert evaluated == [(2, 9)] and len(rep.skipped) == 3
    points = GridSpec((3, 3)).points(cone.domain)
    assert [p.tobytes() for p, _ in given] == [p.tobytes() for p in points]
    assert [rows.tobytes() for _, rows in given] == [
        geometry.evaluate_jets(cone, p, 2, False).tobytes() for p in points]


def test_reuse_keeps_reports_identical(monkeypatch):
    # classification equals that of a sweep whose point_geometry calls each
    # evaluate alone, on charts whose stacks evaluate and on one whose rows
    # fail partway
    original = gcr.point_geometry

    def alone(*args, _rows=None, **kwargs):
        return original(*args, **kwargs)

    log = Immersion.from_exprs("log", LOG_CHART.components, LOG_CHART.var_names,
                               LOG_CHART.domain)
    cases = [(log, GridSpec((5, 5))), (log, GridSpec((4, 7))),
             (sweep_chart(), GridSpec((4, 3, 3))), (catalog.tangent_cone(), GridSpec((3,) * 3))]
    for (m, grid), full in itertools.product(cases, (False, True)):
        warm = classify_surface(m, grid, include_structural=full)
        with monkeypatch.context() as patch:
            patch.setattr(gcr, "point_geometry", alone)
            plain = classify_surface(m, grid, include_structural=full)
        assert warm.records
        assert [repr(r) for r in warm.records] == [repr(r) for r in plain.records]
        assert warm.skipped == plain.skipped
        assert bool(warm.skipped) == (m is log)


def test_errors_leave_as_expr_errors_in_a_sweep(monkeypatch):
    # a point given None evaluates on its own and fails as it would alone
    block = np.array([(1.0, 0.5), (1.2, -0.5)])
    raised = []
    original = gcr.point_geometry

    def recording(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except GeometryError as exc:
            raised.append((kwargs["_rows"], exc))
            raise

    monkeypatch.setattr(gcr, "point_geometry", recording)
    with np.errstate(all="raise", under="ignore"):
        _, _, reasons = gcr._classify_block(LOG_CHART, block, 2, Tolerances(), False)
    [(rows, err)] = raised
    assert rows is None and isinstance(err, EvaluationError)
    assert isinstance(err.__cause__, ExprError)
    assert reasons[1] == f"evaluation failed: {err}" == cold(LOG_CHART, (1.2, -0.5), 2)
