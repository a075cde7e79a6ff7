"""Block invariance over random charts.

Grid classification evaluates and classifies blocks of points at once, and a
block that fails reruns point by point.  Whatever the block size, each
classified point must carry the bits that the one-row public functions give
at that point, and each skipped point the text of the error they raise there,
in grid order.  Charts come from the expression grammar of
``test_expr_oracle.py``, so rows fail in every way a chart can make them fail:
log or sqrt of a non-positive value, overflow in the jets or only in the
position split, and a singular metric.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcrkit.gcr as gcr
from gcrkit.expr import BinOp, Call, ExprError, Neg, Var
from gcrkit.gcr import (
    DegeneratePointError,
    EmptyReportError,
    GridSpec,
    PointRecord,
    Tolerances,
    classify_surface,
    delta2_ideal_test,
    gcr_residual,
    position_angles,
    structural_residuals,
)
from gcrkit.geometry import (
    GeometryError,
    Immersion,
    SingularPointError,
    curvature_invariants,
    point_geometry,
    principal_data,
)
from test_expr_oracle import _TREES

_NAMES = ("s", "t", "u")


def _renamed(tree, names: dict):
    """``tree`` with its variables renamed by ``names``."""
    match tree:
        case Var(name):
            return Var(names.get(name, name))
        case Neg(operand):
            return Neg(_renamed(operand, names))
        case BinOp(op, left, right):
            return BinOp(op, _renamed(left, names), _renamed(right, names))
        case Call(fn, arg):
            return Call(fn, _renamed(arg, names))
    return tree


@st.composite
def _charts(draw):
    """(components, grid counts) of a graph chart over [-1, 1]^n, whose
    height is a random tree (on 3-D charts, one tree in (s, t) plus one in
    (t, u)); pinched, its first coordinate is s*s, so s = 0 is singular."""
    n = draw(st.sampled_from([2, 3]))
    height = draw(_TREES)
    if n == 3:
        height = BinOp("+", height, _renamed(draw(_TREES), {"s": "t", "t": "u"}))
    first = Var("s")
    if draw(st.booleans()):
        first = BinOp("*", first, first)
        height = BinOp("*", first, height)
    counts = tuple(draw(st.integers(3, 5 if n == 2 else 3)) for _ in range(n))
    return (first, *map(Var, _NAMES[1:n]), height), counts


def _one_row(m, p, tols: Tolerances, full: bool):
    """Point p's PointRecord from the one-row public functions, called in the
    order classify_surface's kernels run, or the skip text of their error."""
    pg = None
    with np.errstate(all="raise", under="ignore"):
        try:
            pg = point_geometry(m, p, tols.eps_reg, check_domain=False,
                                order=3 if full and m.n == 3 else 2)
            pd = principal_data(pg, tols.tol_gap)
            pa = position_angles(pg, tols.eps_tan_rel)
            k = pd.curvatures
            means = curvature_invariants(k).mean
            res = None if pa.degenerate else gcr_residual(pa, pg)
            delta2 = None
            if m.n >= 3:
                delta2 = delta2_ideal_test(k, tols.tol_const_rel * (1.0 + np.abs(k).max()))
            sr = note = None
            if full and res is None:
                note = "degenerate point: no tangential direction to adapt a frame to"
            elif full and res.primary < tols.tol_gcr:
                sr = structural_residuals(m, p, tols.tol_gap, tols.eps_reg)
            elif full:
                note = "not position-principal here: structural identities not expected"
        except SingularPointError as exc:
            return f"singular metric (det g = {exc.det_g:.3e})"
        except np.linalg.LinAlgError:
            return f"singular metric (det g = {pg.det_metric:.3e})"
        except (GeometryError, ExprError, FloatingPointError, DegeneratePointError) as exc:
            return f"evaluation failed: {exc}"
    return PointRecord(
        tuple(p), pa.mu, pa.theta, tuple(k.tolist()), tuple(means.tolist()),
        pd.distinct_count, pa.degenerate, None if res is None else res.primary,
        None if res is None else res.secondary, delta2, sr, note,
    )


def _outcome(m, grid, full):
    """The reprs of the records (every float to its last bit) and the skips,
    or the EmptyReportError text."""
    try:
        report = classify_surface(m, grid, include_structural=full)
    except EmptyReportError as exc:
        return str(exc)
    return [repr(r) for r in report.records], report.skipped


@settings(max_examples=30, deadline=None)
@given(chart=_charts())
@example(chart=(("s", "t", "s*t"), (3, 3)))  # degenerate at the origin
@example(chart=(("s", "t", "s*s+log(t)"), (3, 4)))  # log fails at t <= 0
@example(chart=(("s", "t", "u", "sqrt(s*s+t*t+u*u)"), (3, 3, 3)))  # a cone; sqrt fails at 0
@example(chart=(("s", "t", "1e200*s*t"), (3, 3)))  # the metric overflows
@example(chart=(("s", "t", "s*t+1e160"), (3, 3)))  # only the position split overflows
@example(chart=(("s", "t", "u", "t*u+1e160*s"), (3, 3, 3)))
@example(chart=(("s*s", "t", "s*s*t"), (3, 3)))  # singular along s = 0
# alone, s = -1 divides by zero; a stack carries that on as inf or NaN
@example(chart=(("s", "t", "log(1e200^s)"), (3, 3)))
@example(chart=(("s", "t", "u", "0.5"), (3, 3, 3)))  # a hyperplane: every structural check
def test_rows_do_not_depend_on_the_block_and_match_one_row_calls(chart):
    components, counts = chart
    n = len(counts)
    m = Immersion.from_exprs("random", components, _NAMES[:n], ((-1.0, 1.0),) * n)
    grid = GridSpec(counts)
    points = [tuple(p) for p in grid.points(m.domain).tolist()]
    for full in (False, True):
        found = [_one_row(m, p, Tolerances(), full) for p in points]
        records = [repr(r) for r in found if not isinstance(r, str)]
        skipped = [(p, r) for p, r in zip(points, found) if isinstance(r, str)]
        if records:
            want = records, skipped
        else:
            want = f"no regular grid point: first failure at {list(points[0])} ({found[0]})"
        for block in (1, 7, gcr._BLOCK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(gcr, "_BLOCK", block)
                assert _outcome(m, grid, full) == want, (block, full)
