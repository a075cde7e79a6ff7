"""Stacked set-up integrators against their per-sample references.

``build_normal_frame`` evaluates the spherical curve and its derivatives at
every abscissa in one program run on the array of abscissae and builds the transport's step matrices as array
expressions, and ``integrate_profile`` reads the curvature in one stacked run
and runs the RK4 stages as array expressions.  Both must reproduce the
per-sample loops of ``setup_oracle`` bit for bit, and fail with the same
error, text and abscissa.  The frame must also agree to rounding with the
stage-by-stage transport loop and be orthonormal at its knots.
"""

import math

import numpy as np
import pytest

import gcrkit.catalog as catalog
import gcrkit.expr as expr
import setup_oracle
from gcrkit.catalog import CatalogError, PartialCurveError, build_normal_frame, integrate_profile
from gcrkit.expr import ExprEvalError


def _bench_alpha(seed):
    """A (1,2) torus knot on the unit 3-sphere, drawn as the benchmark does."""
    d = 0.3 + 0.3 * np.random.default_rng(seed).random()
    cd, sd = math.cos(d), math.sin(d)
    return (f"{cd!r}*cos(w)", f"{cd!r}*sin(w)", f"{sd!r}*cos(2*w)", f"{sd!r}*sin(2*w)")


_PHASE = "2*w+0.3*tan(0.5*w)+log(2+w)+sqrt(1+w)-(1+w)^1.5"

_CURVES = {
    "great circle": (("cos(w)", "sin(w)", "0", "0"), (-0.4, 6.7), 801),
    "torus knot": (
        ("0.8*cos(w)", "0.8*sin(w)", "0.6*cos(2*w)", "0.6*sin(2*w)"), (-0.4, 6.7), 801
    ),
    "bench draw 1": (_bench_alpha(1), (-0.3, 6.6), 801),
    "bench draw 2": (_bench_alpha(2), (0.1, 3.0), 97),
    # every function of the language and a real power: a stack evaluates them with math too
    "reparametrized knot": (
        ("0.8*cos(exp(0.2*w))", "0.8*sin(exp(0.2*w))", f"0.6*cos({_PHASE})", f"0.6*sin({_PHASE})"),
        (-0.4, 2.5),
        801,
    ),
}


def _record_runs(monkeypatch) -> list:
    """(environment, values) of every run of a program that catalog code
    compiles from here on."""
    runs = []

    class Recorded(expr.Program):
        def __call__(self, env):
            out = super().__call__(env)
            runs.append((dict(env), out))
            return out

    monkeypatch.setattr(catalog, "Program", Recorded)
    return runs


@pytest.mark.parametrize("label", sorted(_CURVES))
def test_frame_matches_per_sample_oracle(label, monkeypatch):
    alpha, w_range, samples = _CURVES[label]
    want = setup_oracle.build_normal_frame(alpha, w_range, samples)
    runs = _record_runs(monkeypatch)
    got = build_normal_frame(alpha, w_range, samples)
    # one run of one program over all four components and their first three
    # derivatives, on the array of abscissae
    [(env, out)] = runs
    assert len(out) == 16 and all(a.shape == env["w"].shape and a.size > 1 for a in out)
    for name in ("knots", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got._derived, want._derived, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("label", sorted(_CURVES))
def test_frame_matches_stage_by_stage_transport(label):
    alpha, w_range, samples = _CURVES[label]
    want = setup_oracle.build_normal_frame_by_stages(alpha, w_range, samples)
    got = build_normal_frame(alpha, w_range, samples)
    assert np.max(np.abs(got.values - want.values)) <= 1e-13
    assert np.max(np.abs(got._derived[0] - want._derived[0])) <= 1e-13
    assert setup_oracle.frame_gram_error(alpha, got) <= 1e-14


@pytest.mark.parametrize("label", sorted(_CURVES))
def test_joint_frame_curve_is_the_two_pair_curves_side_by_side(label):
    # one eight-component interpolant holds A's and B's coefficients side by
    # side, and every derivative it gives, orders 0-3, has the bits of the
    # per-pair interpolants', at single points and on arrays, knots and ends
    # included
    alpha, w_range, samples = _CURVES[label]
    joint = build_normal_frame(alpha, w_range, samples)
    a_curve, b_curve = setup_oracle.pair_curves(alpha, w_range, samples)
    assert joint.values.shape[1] == 8
    for k, derived in enumerate(joint._derived):
        want = np.concatenate([a_curve._derived[k], b_curve._derived[k]], axis=-1)
        assert derived.tobytes() == want.tobytes()
    lo, hi = w_range
    at = np.r_[joint.knots[[0, 1, samples // 2, -1]], lo - 0.05, hi + 0.05,
               np.random.default_rng(18).uniform(lo, hi, 31)]
    for k in range(4):
        for w in [*at[:6].tolist(), at]:
            got = [np.asarray(x).tobytes() for x in joint.evaluate(w, k)]
            ref = [np.asarray(x).tobytes() for x in a_curve.evaluate(w, k) + b_curve.evaluate(w, k)]
            assert got == ref


_FAILING_CURVES = {
    # sqrt leaves its domain at w = 1.5, with the curve on the sphere before it
    "evaluation fails mid-range": (("cos(w)", "sin(w)", "0*sqrt(1.5-w)", "0"), (0.0, 3.0), 801),
    # |alpha|^2 = 1 + 1e-4 w^8 leaves the 1e-8 band near w = 0.32
    "leaves the sphere mid-range": (("cos(w)", "sin(w)", "0.01*w^4", "0"), (0.0, 2.0), 801),
    # the sphere check fires first, though a later row fails to evaluate
    "leaves the sphere, then fails": (
        ("cos(w)", "sin(w)", "0.01*w^4", "0*log(1.5-w)"), (0.0, 3.0), 801
    ),
    "fails at the left endpoint": (("cos(w)", "sin(w)", "0", "log(w)"), (-1.0, 1.0), 801),
    # alpha' = 3 w^2 (-sin(w^3), cos(w^3), 0, 0) vanishes at the node w = 0
    "not regular mid-range": (("cos(w^3)", "sin(w^3)", "0", "0"), (-1.0, 1.0), 801),
    # the regularity check fires first, though a later row fails to evaluate
    "not regular, then fails": (("cos(w^3)", "sin(w^3)", "0", "0*log(0.5-w)"), (-1.0, 1.0), 801),
}


@pytest.mark.parametrize("label", sorted(_FAILING_CURVES))
def test_frame_failures_match_per_sample_oracle(label):
    alpha, w_range, samples = _FAILING_CURVES[label]
    with pytest.raises((CatalogError, ExprEvalError)) as want:
        setup_oracle.build_normal_frame(alpha, w_range, samples)
    with pytest.raises((CatalogError, ExprEvalError)) as got:
        build_normal_frame(alpha, w_range, samples)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "kappa,s_range,init,step",
    [
        ("0.4+0.1*s", (-0.096, 1.696), (1.5, 0.4, 0.15), 1e-3),
        (1, (0.0, 2.0), (0.0, 0.0, 0.0), 1e-3),
        ("sin(s)+0.3*cos(2*s)", (-1.0, 4.0), (0.5, -0.2, 1.0), 3e-3),
        ("exp(0.2*s)", (0.0, 3.0), (1.0, 0.0, 0.0), 1e-2),
    ],
)
def test_profile_matches_stage_by_stage_oracle(kappa, s_range, init, step, monkeypatch):
    want = setup_oracle.integrate_profile(kappa, s_range, init, step)
    runs = _record_runs(monkeypatch)
    got = integrate_profile(kappa, s_range, init, step)
    # one stacked run, one row per distinct abscissa: at most 3 per step plus s_0
    [(env, _)] = runs
    rows = env["s"]
    assert 0 < rows.size == np.unique(rows).size <= 3 * (got.knots.size - 1) + 1
    for name in ("knots", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got._derived, want._derived, strict=True):
        assert np.array_equal(a, b)


_FAILING_PROFILES = {
    "at a node": ("log(s)", (-0.5, 1.0), 1e-3),
    "at a midpoint": ("1/(s-0.005)", (0.0, 1.0), 0.01),
    "at s_i + h": ("1/(1-s)", (0.0, 2.0), 0.01),
    # an infinite curvature fails in cos(angle), not in the curvature
    "non-finite curvature": ("1e200*1e200", (0.0, 1.0), 0.01),
    # inf * 0 is NaN at s = 0, quietly in float arithmetic
    "NaN curvature": ("1e200*1e200*s", (0.0, 1.0), 0.01),
}


@pytest.mark.parametrize("label", sorted(_FAILING_PROFILES))
@pytest.mark.parametrize("trap", [False, True])
def test_profile_failures_match_stage_by_stage_oracle(label, trap):
    kappa, s_range, step = _FAILING_PROFILES[label]
    with np.errstate(all="raise" if trap else "ignore", under="ignore"):
        with pytest.raises(PartialCurveError) as want:
            setup_oracle.integrate_profile(kappa, s_range, step=step)
        with pytest.raises(PartialCurveError) as got:
            integrate_profile(kappa, s_range, step=step)
    assert str(got.value) == str(want.value)
    assert got.value.last_s == want.value.last_s
    assert type(got.value.__cause__) is type(want.value.__cause__)


def test_profile_whose_rerun_succeeds_matches_stage_by_stage_oracle(monkeypatch):
    # 1e200*s*1e200 overflows in the stacked run, which runs under "raise",
    # but as a float it is inf quietly and 1/inf is 0: the stages rerun one at
    # a time, succeed, and give the per-stage loop's result bit for bit
    kappa = "0.5+1/(1e200*s*1e200*s)"
    reruns = []
    stages = catalog._rk4_stages
    monkeypatch.setattr(catalog, "_rk4_stages", lambda *a: reruns.append(a) or stages(*a))
    want = setup_oracle.integrate_profile(kappa, (1.0, 2.0))
    got = integrate_profile(kappa, (1.0, 2.0))
    assert len(reruns) == 1
    for name in ("knots", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(got._derived, want._derived, strict=True):
        assert np.array_equal(a, b)


def test_profile_through_a_float_only_root_matches_stage_by_stage_oracle():
    # sqrt(s) at s = 0 is a float but no jet: a jet's sqrt refuses 0 for its
    # derivative, so the curvature must be read as floats.  The result is the
    # per-stage loop's, bit for bit, however the stacked read is done.
    want = setup_oracle.integrate_profile("sqrt(s)", (0.0, 1.0))
    got = integrate_profile("sqrt(s)", (0.0, 1.0))
    for name in ("knots", "values"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got._derived[0].tobytes() == want._derived[0].tobytes()


def test_a_float_only_root_needs_no_stage_by_stage_rerun(monkeypatch):
    # the stacked read runs the program on the abscissae as floats, so sqrt(0)
    # is 0 there too and the stages never rerun one at a time
    reruns = []
    stages = catalog._rk4_stages
    monkeypatch.setattr(catalog, "_rk4_stages", lambda *a: reruns.append(a) or stages(*a))
    runs = _record_runs(monkeypatch)
    got = integrate_profile("sqrt(s)", (0.0, 1.0))
    assert reruns == []
    [(env, (k,))] = runs
    assert env["s"][0] == 0.0 and k.dtype == float and k[0] == 0.0
    assert got.knots[0] == 0.0 and all(np.isfinite(c).all() for c in got._derived)
