"""Stacked set-up integrators against their per-sample references.

``build_normal_frame`` evaluates the spherical curve at every abscissa in one
stacked jet evaluation, and ``integrate_profile`` reads the curvature once
per distinct abscissa and runs the RK4 stages as array expressions.  Both
must reproduce the per-sample loops of ``setup_oracle`` bit for bit, and fail
with the same error, text and abscissa.
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
    # one stacked run of one program over all four components
    [(env, out)] = runs
    assert len(out) == 4 and all(a.c.shape[0] == env["w"].c.shape[0] > 1 for a in out)
    for name in ("w", "a", "b"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("a_curve", "b_curve"):
        assert np.array_equal(getattr(got, name)._coeffs, getattr(want, name)._coeffs), name
    assert got.gram_error == want.gram_error


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
    calls = [env["s"] for env, _ in runs]
    if isinstance(kappa, str):  # once per distinct abscissa, at most 3 per step plus s_0
        assert 0 < len(calls) == len(set(calls)) <= 3 * (got.s.size - 1) + 1
    for name in ("s", "f", "g", "angle"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.curve._coeffs, want.curve._coeffs)
    assert got.kappa_text == want.kappa_text


_FAILING_PROFILES = {
    "at a node": ("log(s)", (-0.5, 1.0), 1e-3),
    "at a midpoint": ("1/(s-0.005)", (0.0, 1.0), 0.01),
    "at s_i + h": ("1/(1-s)", (0.0, 2.0), 0.01),
    # an infinite curvature fails in cos(angle), not in the curvature
    "non-finite curvature": ("1e200*1e200", (0.0, 1.0), 0.01),
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
