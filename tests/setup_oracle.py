"""Per-sample reference implementations of the set-up integrators.

``frame_knot_data`` below evaluates the spherical curve one abscissa at a
time and builds each transport step's matrix as it reaches it (and
``build_normal_frame`` interpolates its knot data), and
``integrate_profile`` steps its RK4 one stage at a time, calling the
curvature at every stage.  Production evaluates the curve in one stacked
jet evaluation and builds the step matrices as array expressions, and reads
the curvature in one stacked run with the RK4 stages as array expressions;
``test_setup_oracle.py`` requires the two to agree bit for bit, failures
included.

``build_normal_frame_by_stages`` is the transport loop as it was first
written: one RK4 stage at a time from the transport rule, with the
projection as a separate step.  It checks the step matrices' arithmetic to
rounding.

``pair_curves`` keeps A and B as two interpolants on the same knots, as the
frame did before one interpolant carried both; production's joint
interpolant must equal them side by side, bit for bit.
"""

import math

import numpy as np

from gcrkit import jet
from gcrkit.catalog import (
    _SEED_PAIRS,
    CatalogError,
    HermiteCurve,
    NormalFrame,
    PartialCurveError,
    ProfileCurve,
    _kappa_callable,
    _knot_data,
    _orthonormalize,
    _parse_curve_exprs,
    _seed_pair,
    _transport_steps,
)
from gcrkit.expr import ExprError, Program


def integrate_profile(kappa, s_range, init=(0.0, 0.0, 0.0), step=1e-3):
    """RK4 for angle' = kappa(s), f' = cos(angle), g' = sin(angle), stage by
    stage; input validation is left to production."""
    lo, hi = float(s_range[0]), float(s_range[1])
    kfun, _, ktext = _kappa_callable(kappa)
    nsteps = max(1, math.ceil((hi - lo) / step))
    h = (hi - lo) / nsteps

    s_arr = lo + h * np.arange(nsteps + 1)
    f_arr = np.empty(nsteps + 1)
    g_arr = np.empty(nsteps + 1)
    a_arr = np.empty(nsteps + 1)
    k_arr = np.empty(nsteps + 1)
    f_arr[0], g_arr[0], a_arr[0] = (float(v) for v in init)

    def rhs(s, phi):
        return np.array([math.cos(phi), math.sin(phi), kfun(s)])

    state = np.array([f_arr[0], g_arr[0], a_arr[0]])
    last_good = lo
    try:
        k_arr[0] = kfun(float(s_arr[0]))
        for i in range(nsteps):
            s0 = float(s_arr[i])
            k1 = rhs(s0, state[2])
            k2 = rhs(s0 + h / 2, state[2] + h / 2 * k1[2])
            k3 = rhs(s0 + h / 2, state[2] + h / 2 * k2[2])
            k4 = rhs(s0 + h, state[2] + h * k3[2])
            state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            f_arr[i + 1], g_arr[i + 1], a_arr[i + 1] = state
            k_arr[i + 1] = kfun(float(s_arr[i + 1]))
            last_good = float(s_arr[i + 1])
    except (ExprError, ArithmeticError, ValueError) as exc:
        raise PartialCurveError(
            f"curvature evaluation failed during integration: {exc}; "
            f"curve is valid on [{lo}, {last_good}]",
            last_s=last_good,
        ) from exc

    cos_a, sin_a = np.cos(a_arr), np.sin(a_arr)
    values = np.column_stack([f_arr, g_arr])
    d1 = np.column_stack([cos_a, sin_a])
    d2 = np.column_stack([-sin_a * k_arr, cos_a * k_arr])
    curve = HermiteCurve(s_arr, values, d1, d2)
    return ProfileCurve(s=s_arr, f=f_arr, g=g_arr, angle=a_arr, kappa_text=ktext, curve=curve)


def frame_knot_data(alpha, w_range, samples=801):
    """Knots, frame pairs (A, B), their first and second derivatives and the
    largest Gram error of a spherical curve's normal frame by RK4 transport,
    evaluating the curve's order-3 jet at each abscissa as the loop reaches
    it and building each step's matrix from those rows; input validation is
    left to production."""
    alpha_program = Program(_parse_curve_exprs(alpha, ("w",), 4, "spherical curve"))
    lo, hi = float(w_range[0]), float(w_range[1])

    def alpha_data(w):
        env = {"w": jet.jet_variable(0, w, 1, 3)}
        coeffs = np.stack([y.c for y in alpha_program(env)])
        d1, d2, d3 = (jet.derivative_tensor(coeffs, 1, r).reshape(4) for r in (1, 2, 3))
        return coeffs[:, 0], d1, d2, d3

    w_arr = np.linspace(lo, hi, samples)
    h = w_arr[1] - w_arr[0]

    node = alpha_data(lo)
    a0, d1_0, *_ = node
    # written so that a NaN fails them, as production's are
    if not abs(a0 @ a0 - 1.0) <= 1e-8:
        raise CatalogError("curve must lie on the unit 3-sphere")
    if not np.linalg.norm(d1_0) >= 1e-8:
        raise CatalogError("curve is not regular at the left endpoint")

    pairs = np.empty((samples, 2, 4))
    first = np.empty((samples, 2, 4))
    second = np.empty((samples, 2, 4))
    gram_error = 0.0
    pair = _seed_pair(a0, d1_0)
    for i, wv in enumerate(w_arr):
        pairs[i] = pair
        err, first[i], second[i] = _knot_data(node, pair)
        gram_error = max(gram_error, err)
        if i == samples - 1:
            break
        mid = alpha_data(wv + h / 2)
        nxt = alpha_data(wv + h)
        if not abs(nxt[0] @ nxt[0] - 1.0) <= 1e-8:
            raise CatalogError(f"curve leaves the unit 3-sphere near w = {wv + h:.6g}")
        if not nxt[1] @ nxt[1] >= 1e-16:
            raise CatalogError(f"curve is not regular near w = {wv + h:.6g}")
        pair = pair @ _transport_steps(node, mid, nxt, h)
        _orthonormalize(pair)
        node = nxt

    return w_arr, pairs, first, second, gram_error


def build_normal_frame(alpha, w_range, samples=801):
    """The frame of ``frame_knot_data``, with A and B read from one
    eight-component interpolant, A's four components first."""
    w_arr, pairs, first, second, gram_error = frame_knot_data(alpha, w_range, samples)
    curve = HermiteCurve(w_arr, *(x.reshape(samples, 8) for x in (pairs, first, second)))
    return NormalFrame(w=w_arr, a=pairs[:, 0], b=pairs[:, 1], curve=curve, gram_error=gram_error)


def pair_curves(alpha, w_range, samples=801):
    """A and B as two four-component interpolants on the same knots, the way
    the frame kept them before it kept one; the reference for the joint
    interpolant."""
    w_arr, pairs, first, second, _ = frame_knot_data(alpha, w_range, samples)
    return tuple(HermiteCurve(w_arr, pairs[:, k], first[:, k], second[:, k]) for k in (0, 1))


def build_normal_frame_by_stages(alpha, w_range, samples=801):
    """Normal frame of a spherical curve by RK4 transport, one stage at a
    time from the transport rule, then a projection onto the normal space
    and re-orthonormalization per sample; input validation is left to
    production."""
    alpha_program = Program(_parse_curve_exprs(alpha, ("w",), 4, "spherical curve"))
    lo, hi = float(w_range[0]), float(w_range[1])

    def alpha_data(w):
        env = {"w": jet.jet_variable(0, w, 1, 3)}
        coeffs = np.stack([y.c for y in alpha_program(env)])
        d1, d2, d3 = (jet.derivative_tensor(coeffs, 1, r).reshape(4) for r in (1, 2, 3))
        return coeffs[:, 0], d1, d2, d3

    w_arr = np.linspace(lo, hi, samples)
    h = w_arr[1] - w_arr[0]

    a0, d1_0, *_ = alpha_data(lo)
    if abs(a0 @ a0 - 1.0) > 1e-8:
        raise CatalogError("curve must lie on the unit 3-sphere")
    speed0 = np.linalg.norm(d1_0)
    if speed0 < 1e-8:
        raise CatalogError("curve is not regular at the left endpoint")

    t0 = d1_0 / speed0
    frame_a = frame_b = None
    for ia, ib in _SEED_PAIRS:
        cand = np.zeros(4)
        cand[ia] = 1.0
        cand = cand - (cand @ a0) * a0 - (cand @ t0) * t0
        na = np.linalg.norm(cand)
        if na < 0.1:
            continue
        cand_a = cand / na
        cand = np.zeros(4)
        cand[ib] = 1.0
        cand = cand - (cand @ a0) * a0 - (cand @ t0) * t0 - (cand @ cand_a) * cand_a
        nb = np.linalg.norm(cand)
        if nb < 0.1:
            continue
        frame_a, frame_b = cand_a, cand / nb
        break

    def transport_rhs(vecs, d1, d2):
        speed_sq = d1 @ d1
        lam = -(vecs @ d2) / speed_sq
        return lam[:, None] * d1[None, :]

    a_rows = np.empty((samples, 4))
    b_rows = np.empty((samples, 4))
    a_d1 = np.empty((samples, 4))
    b_d1 = np.empty((samples, 4))
    a_d2 = np.empty((samples, 4))
    b_d2 = np.empty((samples, 4))
    gram_error = 0.0

    node = alpha_data(lo)
    pair = np.stack([frame_a, frame_b])
    for i, wv in enumerate(w_arr):
        val, d1, d2, d3 = node
        speed_sq = d1 @ d1
        that = d1 / math.sqrt(speed_sq)
        pair = pair - np.outer(pair @ val, val) - np.outer(pair @ that, that)
        pair[0] /= np.linalg.norm(pair[0])
        pair[1] -= (pair[1] @ pair[0]) * pair[0]
        pair[1] /= np.linalg.norm(pair[1])

        basis = np.vstack([val, that, pair])
        gram_error = max(gram_error, float(np.max(np.abs(basis @ basis.T - np.eye(4)))))

        a_rows[i], b_rows[i] = pair
        deriv = transport_rhs(pair, d1, d2)
        a_d1[i], b_d1[i] = deriv
        lam = -(pair @ d2) / speed_sq
        dlam = (
            -(deriv @ d2) / speed_sq
            - (pair @ d3) / speed_sq
            + 2.0 * (pair @ d2) * (d1 @ d2) / speed_sq**2
        )
        second = dlam[:, None] * d1[None, :] + lam[:, None] * d2[None, :]
        a_d2[i], b_d2[i] = second

        if i == samples - 1:
            break
        mid = alpha_data(wv + h / 2)
        nxt = alpha_data(wv + h)
        k1 = transport_rhs(pair, d1, d2)
        k2 = transport_rhs(pair + (h / 2) * k1, mid[1], mid[2])
        k3 = transport_rhs(pair + (h / 2) * k2, mid[1], mid[2])
        k4 = transport_rhs(pair + h * k3, nxt[1], nxt[2])
        pair = pair + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        node = nxt
        if abs(nxt[0] @ nxt[0] - 1.0) > 1e-8:
            raise CatalogError(f"curve leaves the unit 3-sphere near w = {wv + h:.6g}")
        if nxt[1] @ nxt[1] < 1e-16:
            raise CatalogError(f"curve is not regular near w = {wv + h:.6g}")

    curve = HermiteCurve(w_arr, *(np.hstack(x) for x in (
        (a_rows, b_rows), (a_d1, b_d1), (a_d2, b_d2))))
    return NormalFrame(w=w_arr, a=a_rows, b=b_rows, curve=curve, gram_error=gram_error)
