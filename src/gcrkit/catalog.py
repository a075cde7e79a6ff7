"""Built-in hypersurface families and the curve machinery behind them.

Eight named families cover rotational cylinders, cones, doubly-rotational
surfaces, position-cone and curve-tube constructions, and generic products
with a line.  Profiles can be closed-form expressions or the output of a
unit-speed plane-curve integrator; frames with no closed form (the normal
frame of a spherical curve) are integrated once and then evaluated through
a C^2 piecewise-quintic Hermite interpolant, whose derivatives are exact.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real
from collections.abc import Callable, Sequence

import numpy as np

from .expr import (
    BinOp,
    Call,
    Const,
    Expr,
    ExprError,
    Neg,
    Program,
    Var,
    _CurveAt,
    _derivative,
    _partials,
    parse_expr,
    to_text,
    variables_of,
)
from .geometry import Immersion, _sum

__all__ = [
    "CatalogError",
    "PartialCurveError",
    "FAMILY_TAGS",
    "make_family",
    "family_catalog",
    "HermiteCurve",
    "ProfileCurve",
    "integrate_profile",
    "NormalFrame",
    "build_normal_frame",
    "hypercylinder_rotational",
    "conical_hypercylinder",
    "so2_x_so2",
    "rotational",
    "tangent_cone",
    "curve_tube",
    "special_sqrt2",
    "product_cylinder",
    "spherical_hypercylinder",
    "circular_hypercylinder",
    "hyperplane",
    "tangent_developable_cylinder",
]

_TWO_PI = 2.0 * math.pi

# Work caps for spec-supplied sizes.  Both integrators hold arrays of this
# length, and the frame transport still loops in Python once per sample, so
# a count far past what any accuracy needs would only exhaust memory or
# time; the defaults use 801 samples and a few thousand steps.
_MAX_FRAME_SAMPLES = 100_000
_MAX_PROFILE_STEPS = 1_000_000


class CatalogError(ValueError):
    """Invalid family tag, parameter, or sub-object."""


class PartialCurveError(CatalogError):
    """Profile integration aborted mid-range; carries the last good abscissa."""

    def __init__(self, message: str, last_s: float):
        super().__init__(message)
        self.last_s = last_s


def _parse_curve_exprs(
    exprs, var_names: tuple[str, ...], count: int, what: str
) -> tuple[Expr, ...]:
    """``count`` expressions, a list or tuple of strings (parsed here) or
    parsed trees, in the variables ``var_names`` only: every expression
    parameter of a family is read here."""
    if not isinstance(exprs, (list, tuple)):
        raise CatalogError(f"{what} needs a list of {count} component expressions, "
                           f"got {exprs!r}")
    if len(exprs) != count:
        raise CatalogError(
            f"{what} needs {count} component expressions, got {len(exprs)}"
        )
    allowed = set(var_names)
    out = []
    for e in exprs:
        if not isinstance(e, str | Expr):
            raise CatalogError(f"{what} expressions must be strings, got {e!r}")
        parsed = parse_expr(e, var_names) if isinstance(e, str) else e
        extra = variables_of(parsed) - allowed
        if extra:
            raise CatalogError(
                f"{what} must depend on {', '.join(var_names)} only, found {sorted(extra)}"
            )
        out.append(parsed)
    return tuple(out)


def _finite(value) -> bool:
    """Whether ``value`` is a real number (not a bool) inside the float
    range, compared as it is: an int beyond it is not, and float() of it
    would overflow."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _number(value, what: str) -> float:
    """A family parameter as a float: a finite int or float, not a bool or a
    numeric string."""
    if not _finite(value):
        raise CatalogError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _bounds(interval, what: str) -> tuple[float, float]:
    """A (lo, hi) pair of family numbers a finite width apart."""
    lo, hi = (_number(v, what) for v in interval)
    if not math.isfinite(hi - lo):
        raise CatalogError(f"{what}s {lo!r}, {hi!r} are not a finite width apart")
    return lo, hi


# -- piecewise-quintic Hermite interpolation -------------------------------------------

# Maps (p0, h*d0, h^2*q0, p1, h*d1, h^2*q1) to monomial coefficients in the
# normalized coordinate tau = (x - knot)/h; row k is the coefficient of tau^k.
_QUINTIC = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
        [-10.0, -6.0, -1.5, 10.0, -4.0, 0.5],
        [15.0, 8.0, 1.5, -15.0, 7.0, -1.0],
        [-6.0, -3.0, -0.5, 6.0, -3.0, 0.5],
    ]
)


class HermiteCurve:
    """C^2 quintic Hermite interpolant of a sampled R^d curve.

    Built from values plus exact first and second derivatives at the knots;
    inside an interval the interpolant is a polynomial, whose derivatives
    ``evaluate`` returns exactly (the third derivative jumps by O(h^3)
    across knots).
    """

    def __init__(
        self,
        knots: np.ndarray,
        values: np.ndarray,
        deriv1: np.ndarray,
        deriv2: np.ndarray,
    ):
        knots = np.asarray(knots, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float).T).T
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        deriv1 = np.asarray(deriv1, dtype=float).reshape(values.shape)
        deriv2 = np.asarray(deriv2, dtype=float).reshape(values.shape)
        if values.shape[0] != knots.size:
            raise ValueError("one sample row per knot required")
        self.knots = knots
        self.values = values
        h = np.diff(knots)[:, None]
        data = np.stack(
            [
                values[:-1],
                deriv1[:-1] * h,
                deriv2[:-1] * h * h,
                values[1:],
                deriv1[1:] * h,
                deriv2[1:] * h * h,
            ],
            axis=1,
        )
        # (intervals, power, dim)
        coeffs = np.einsum("pb,kbd->kpd", _QUINTIC, data)
        self._h = h[:, 0]
        # _derived[k]: the k-th derivative's coefficients in tau, scaled by h^-k
        self._derived = tuple(
            coeffs[:, k:] * (np.array([math.perm(j, k) for j in range(k, 6)])[:, None]
                             / (h**k)[:, :, None])
            for k in range(4)
        )

    def _locate(self, x):
        """Interval index of x, or of each entry of an array x, clamped to the ends."""
        i = np.searchsorted(self.knots, x, side="right") - 1
        if isinstance(x, np.ndarray):
            return np.clip(i, 0, self.knots.size - 2)
        return min(max(int(i), 0), self.knots.size - 2)

    def evaluate(self, x, k: int = 0) -> list:
        """Every component of the ``k``-th derivative (k <= 3) at x, a float,
        or row by row at a 1-D array of floats, from one Horner pass in the
        interval's coordinate tau: a float gets floats, and each row of an
        array its float's bits."""
        i = self._locate(x)
        tau = (x - self.knots[i]) * (1.0 / self._h[i])
        stack = isinstance(x, np.ndarray)
        if stack:
            tau = tau[:, None]
        # poly[..., j, c]: tau^j's coefficient in component c, per point of a stack
        poly = self._derived[k][i]
        acc = poly[..., -1, :]
        for j in range(poly.shape[-2] - 2, -1, -1):
            acc = acc * tau + poly[..., j, :]
        return list(acc.T) if stack else acc.tolist()


# -- unit-speed profile curves ---------------------------------------------------------


@dataclass
class ProfileCurve:
    """Planar unit-speed curve (f, g) integrated from its curvature.

    Stores the sample arrays and a Hermite interpolant whose knot data
    (f' = cos(angle), g' = sin(angle), second derivatives from the curvature)
    comes straight from the generating ODE.
    """

    s: np.ndarray
    f: np.ndarray
    g: np.ndarray
    angle: np.ndarray
    kappa_text: str
    curve: HermiteCurve = field(repr=False)

    def f_at(self, x):
        return self.curve.evaluate(x)[0]

    def g_at(self, x):
        return self.curve.evaluate(x)[1]


def _kappa_callable(kappa) -> tuple[Callable, Callable, str]:
    """kappa at one abscissa, at each entry of an array of abscissae (one
    program run on the array, whose entries take each float's bits), and as
    text.  Both raise ValueError at the first NaN abscissa: float arithmetic
    gives 0*inf = NaN quietly."""
    if isinstance(kappa, (int, float)):  # a bool too, which _finite refuses
        if not _finite(kappa):
            raise CatalogError(
                f"curvature must be a finite number or an expression in s, got {kappa!r}"
            )
        expr = Const(float(kappa))
    else:
        (expr,) = _parse_curve_exprs((kappa,), ("s",), 1, "curvature")
    program, text = Program((expr,)), to_text(expr)

    def no_nan(k, s: list):
        if (nan := np.isnan(k)).any():
            raise ValueError(f"curvature {text} is NaN at s = {s[int(np.argmax(nan))]!r}")
        return k

    def kfun(s: float) -> float:
        return no_nan(program({"s": float(s)})[0], [float(s)])

    def krows(s: np.ndarray) -> np.ndarray:
        return no_nan(program({"s": s})[0], s.tolist())

    return kfun, krows, text


def integrate_profile(
    kappa,
    s_range: Sequence[float],
    init: Sequence[float] = (0.0, 0.0, 0.0),
    step: float = 1e-3,
) -> ProfileCurve:
    """Integrate angle' = kappa(s), f' = cos(angle), g' = sin(angle) with RK4.

    ``kappa`` is a number, an expression string in s, or a parsed expression.
    The classical fixed-step scheme keeps the global error at O(step^4).
    kappa is read at every distinct abscissa the stages need in one stacked
    run, and the stages run as array expressions; any failure reruns them
    one stage at a time, which raises the per-step loop's PartialCurveError.
    """
    lo, hi = _bounds(s_range, "integration bound")
    if not hi > lo:
        raise CatalogError(f"empty integration range [{lo}, {hi}]")
    if not (_finite(step) and step > 0):
        raise CatalogError(f"integration step must be a finite number > 0, got {step!r}")
    if not (hi - lo) / step <= _MAX_PROFILE_STEPS:
        raise CatalogError(
            f"integration step {step!r} over [{lo}, {hi}] exceeds "
            f"{_MAX_PROFILE_STEPS} steps"
        )
    y0 = [float(v) for v in init if _finite(v)]
    if len(init) != 3 or len(y0) != 3:
        raise CatalogError(f"init must be three finite numbers (f0, g0, angle0), got {init!r}")
    kfun, krows, ktext = _kappa_callable(kappa)
    nsteps = max(1, math.ceil((hi - lo) / step))
    h = (hi - lo) / nsteps
    s_arr = lo + h * np.arange(nsteps + 1)
    # kappa depends on s alone, so it is read at each distinct abscissa, in
    # one stacked run: the RK4 stages of step i read it at s_i, s_i + h/2 and
    # s_i + h, and the profile at s_{i+1}.  The stages then run as array
    # expressions.
    s_step = np.column_stack([s_arr[:-1] + h / 2, s_arr[:-1] + h, s_arr[1:]])
    s_distinct, where = np.unique(np.r_[s_arr[0], s_step.ravel()], return_inverse=True)
    # the rerun too runs under "raise", so that a failure does not depend on
    # the caller's numpy error state
    with np.errstate(all="raise", under="ignore"):
        try:
            k = krows(s_distinct)[where]
            k_arr, k_mid, k_end = k[0::3], k[1::3], k[2::3]

            def integral(y, d1, d2, d3, d4):  # y plus the RK4 increments
                return np.add.accumulate(np.r_[y, (h / 6.0) * (d1 + 2 * d2 + 2 * d3 + d4)])

            a_arr = integral(y0[2], k_arr[:-1], k_mid, k_mid, k_end)
            a = a_arr[:-1]
            phases = np.array([a, a + h / 2 * k_arr[:-1], a + h / 2 * k_mid, a + h * k_mid])
            p = phases.tolist()  # math's cos and sin, as the stage loop calls them
            f_arr = integral(y0[0], *np.array([list(map(math.cos, q)) for q in p]))
            g_arr = integral(y0[1], *np.array([list(map(math.sin, q)) for q in p]))
        except (ExprError, ArithmeticError, ValueError):
            # rerun stage by stage: it meets the failure where a per-step loop
            # does and raises that loop's error
            f_arr, g_arr, a_arr, k_arr = _rk4_stages(kfun, lo, s_arr, h, y0)
        # the knot data too: an overflow raises, and an inf or NaN that came in
        # quietly fails the finiteness check
        try:
            cos_a, sin_a = np.cos(a_arr), np.sin(a_arr)
            curve = HermiteCurve(s_arr, np.column_stack([f_arr, g_arr]), np.column_stack(
                [cos_a, sin_a]), np.column_stack([-sin_a * k_arr, cos_a * k_arr]))
            finite = all(np.isfinite(c).all() for c in curve._derived)
        except FloatingPointError:
            finite = False
    if not finite:
        raise CatalogError(f"curvature {ktext} gives knot data outside the float range "
                           f"on [{lo}, {hi}]")
    return ProfileCurve(s=s_arr, f=f_arr, g=g_arr, angle=a_arr, kappa_text=ktext, curve=curve)


def _rk4_stages(kfun, lo: float, s_arr: np.ndarray, h: float, y0: Sequence[float]):
    """The profile RK4 one step and one stage at a time, calling kappa at
    every stage; raises PartialCurveError at the first failing stage."""
    n = s_arr.size
    f_arr, g_arr, a_arr, k_arr = (np.empty(n) for _ in range(4))
    f_arr[0], g_arr[0], a_arr[0] = y0

    def rhs(s: float, phi: float) -> np.ndarray:
        return np.array([math.cos(phi), math.sin(phi), kfun(s)])

    state = np.array(y0)
    last_good = lo
    try:
        k_arr[0] = kfun(float(s_arr[0]))
        for i in range(n - 1):
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
    return f_arr, g_arr, a_arr, k_arr


# -- orthonormal normal frames of spherical curves in E^4 ------------------------------


@dataclass
class NormalFrame:
    """Sampled orthonormal frame (A, B) of the normal space of a curve on the
    unit 3-sphere, and one Hermite interpolant of A then B for exact partials."""

    w: np.ndarray
    a: np.ndarray
    b: np.ndarray
    curve: HermiteCurve = field(repr=False)
    gram_error: float = 0.0


_SEED_PAIRS = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))

# The frame's step matrices and knot data are built this many samples at a
# time, so that no set-up temporary outgrows the stacked curve evaluation.
_FRAME_CHUNK = 256


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _transport_steps(node: tuple, mid: tuple, nxt: tuple, h: float) -> np.ndarray:
    """The 4x4 matrix M of one transport step, or a stack of them: a pair of
    rows y becomes ``y @ M`` by one RK4 step of y' = (y.u) alpha' with
    u = -alpha''/|alpha'|^2, then the projection onto the normal space
    {alpha, alpha'}^perp at the step's end.  Each RK4 stage has rank one, so
    the step is y + (h/6)[(y.u0) b0 + 2 (y.(c2 + c3)) bm + (y.c4) b1] with
    b = alpha' at the start, midpoint and end and the c's below.  ``node``,
    ``mid`` and ``nxt`` hold alpha and its first three derivatives there."""
    (_, b0, e0, _), (_, bm, em, _), (val1, b1, e1, _) = node, mid, nxt
    u0, um, u1 = (-e / _sum(b * b)[..., None] for b, e in ((b0, e0), (bm, em), (b1, e1)))
    c2 = um + ((h / 2) * _sum(b0 * um))[..., None] * u0
    c3 = um + ((h / 2) * _sum(bm * um))[..., None] * c2
    c4 = u1 + (h * _sum(bm * u1))[..., None] * c3
    step = np.eye(4) + (h / 6.0) * (_outer(u0, b0) + 2.0 * _outer(c2 + c3, bm) + _outer(c4, b1))
    return _project_out(step, val1, b1)


def _project_out(rows: np.ndarray, val: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """``rows`` minus their components along alpha and along the unit tangent
    (one set of rows per node, or rows at one node)."""
    for n in (val, d1 / np.sqrt(_sum(d1 * d1))[..., None]):
        rows = rows - _outer(_sum(rows * n[..., None, :]), n)
    return rows


def _knot_data(node: tuple, pair: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest Gram error of {alpha, T, A, B}, and the first and second
    derivatives of the pair from the transport rule, at one node or a stack
    of nodes (``node`` holds alpha and its first three derivatives there,
    ``pair`` the rows A and B)."""
    val, d1, d2, d3 = node
    speed_sq = _sum(d1 * d1)[..., None]
    basis = np.stack([val, d1 / np.sqrt(speed_sq), pair[..., 0, :], pair[..., 1, :]], axis=-2)
    gram = _sum(basis[..., :, None, :] * basis[..., None, :, :]) - np.eye(4)
    d1, d2, d3 = d1[..., None, :], d2[..., None, :], d3[..., None, :]
    along = _sum(pair * d2)
    lam = -along / speed_sq
    first = lam[..., None] * d1
    dlam = (
        -_sum(first * d2) / speed_sq
        - _sum(pair * d3) / speed_sq
        + 2.0 * along * _sum(d1 * d2) / speed_sq**2
    )
    second = dlam[..., None] * d1 + lam[..., None] * d2
    return float(np.max(np.abs(gram))), first, second


def _seed_pair(a0: np.ndarray, d1_0: np.ndarray) -> np.ndarray:
    """The first canonical pair that stays well clear of span{alpha, alpha'}
    at the left endpoint, projected off it and orthonormalized (twice)."""
    for ij in _SEED_PAIRS:
        a, b = pair = _project_out(np.eye(4)[list(ij)], a0, d1_0)
        if a @ a >= 0.01 and b @ b - (a @ b) ** 2 / (a @ a) >= 0.01:
            _orthonormalize(pair)
            # twice is enough: a second pass from an orthonormal pair leaves
            # rounding-level residues, as every transport step does
            pair = _project_out(pair, a0, d1_0)
            _orthonormalize(pair)
            return pair
    raise CatalogError("could not seed the normal frame")  # pragma: no cover - impossible in E^4


def _on_sphere(rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows`` (..., 4), whether it lies within 1e-8 of the unit
    3-sphere.  A row with an inf or NaN entry does not, and overflow in its
    square is no error."""
    with np.errstate(all="ignore"):
        return np.abs(_sum(rows * rows) - 1.0) <= 1e-8


def _orthonormalize(pair: np.ndarray) -> None:
    """Gram-Schmidt of the two rows of ``pair``, in place."""
    a, b = pair
    a /= math.sqrt(a @ a)
    b -= (b @ a) * a
    b /= math.sqrt(b @ b)


def build_normal_frame(
    alpha: Sequence, w_range: Sequence[float], samples: int = 801
) -> NormalFrame:
    """Orthonormal (A, B) spanning the normal space of a spherical curve.

    The pair is seeded at the left endpoint by Gram-Schmidt of canonical
    basis vectors against span{alpha, alpha'} and carried along Bishop's
    parallel transport A' = -(<A, alpha''>/|alpha'|^2) alpha' by RK4, each
    step followed by a projection onto span{alpha, alpha'}^perp and
    re-orthonormalization (the projection method), so the six
    orthogonality constraints hold to ~1e-15 at every sample.

    The curve and its first three derivatives, from derivative trees, are
    evaluated at every abscissa the transport reads in one program run on
    the array of abscissae.  The transport is linear with rank-one stages, so
    each step and its projection fold into one 4x4 matrix, built from those
    rows as array expressions; the sequential part is a matrix product and a
    Gram-Schmidt per sample.  The knot data of the frame's Hermite
    interpolant, A and B side by side, comes from the transport rule, also
    as array expressions.
    """
    alpha_exprs = _parse_curve_exprs(alpha, ("w",), 4, "spherical curve")
    lo, hi = _bounds(w_range, "frame bound")
    if not hi > lo:
        raise CatalogError(f"empty frame range [{lo}, {hi}]")
    if isinstance(samples, bool) or not (
        isinstance(samples, Integral) and 2 <= samples <= _MAX_FRAME_SAMPLES
    ):
        raise CatalogError(
            f"frame samples must be an integer from 2 to {_MAX_FRAME_SAMPLES}, "
            f"got {samples!r}"
        )

    curve = Program(_partials(alpha_exprs, ("w",), 3))

    def alpha_data(w) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """alpha and its first three derivatives at w, a float or an array
        of abscissae (then one row per abscissa)."""
        rows = np.array(curve({"w": w})).reshape(4, 4, *np.shape(w))
        return tuple(np.ascontiguousarray(np.moveaxis(rows, 0, -1)))

    # The checks are written so that a NaN fails them: every comparison with
    # NaN is false.  A speed whose square overflows counts as regular: the
    # transport refuses what overflows.
    def check_left(a0: np.ndarray, d1_0: np.ndarray) -> None:
        if not _on_sphere(a0):
            raise CatalogError("curve must lie on the unit 3-sphere")
        with np.errstate(all="ignore"):
            regular = np.linalg.norm(d1_0) >= 1e-8
        if not regular:
            raise CatalogError("curve is not regular at the left endpoint")

    def check_nodes(vals: np.ndarray, d1: np.ndarray, step: int) -> None:
        """Raise at the first node off the unit 3-sphere or not regular; the
        rows are the nodes that steps ``step``, ``step + 1``, ... reach."""
        off_sphere = ~_on_sphere(vals)
        with np.errstate(all="ignore"):
            regular = _sum(d1 * d1) >= 1e-16
        if (bad := off_sphere | ~regular).any():
            i = int(bad.argmax())
            what = "leaves the unit 3-sphere" if off_sphere[i] else "is not regular"
            raise CatalogError(f"curve {what} near w = {w_arr[step + i] + h:.6g}")

    w_arr = np.linspace(lo, hi, samples)
    h = w_arr[1] - w_arr[0]

    # alpha at every abscissa the transport reads, in its order: lo, then
    # w_i + h/2 and w_i + h per step.  The checks read these rows alone, in
    # the order a per-step loop meets them: at each step the midpoint and the
    # next node are evaluated, then the node is checked.
    w_all = np.r_[lo, np.column_stack([w_arr[:-1] + h / 2, w_arr[:-1] + h]).ravel()]
    # the row-by-row rerun too runs under "raise", so that a failure does not
    # depend on the caller's numpy error state
    with np.errstate(all="raise", under="ignore"):
        try:
            rows = alpha_data(w_all)
        except (ExprError, ArithmeticError):
            # a row failed: evaluate one by one, so that the error surfaces
            # after the checks that come before it
            by_row = []
            for j, wv in enumerate(w_all.tolist()):
                by_row.append(row := alpha_data(wv))
                if j == 0:
                    check_left(row[0], row[1])
                elif j % 2 == 0:
                    check_nodes(row[0][None], row[1][None], j // 2 - 1)
            rows = tuple(np.array(col) for col in zip(*by_row))
        else:
            check_left(rows[0][0], rows[1][0])
            check_nodes(rows[0][2::2], rows[1][2::2], 0)
    nodes = tuple(r[0::2] for r in rows)
    mids = tuple(r[1::2] for r in rows)

    def rows_at(data: tuple, start: int, stop: int) -> tuple:
        return tuple(x[start:stop] for x in data)

    pairs = np.empty((samples, 2, 4))
    first = np.empty((samples, 2, 4))
    second = np.empty((samples, 2, 4))
    gram_error = 0.0
    # the transport and the knot data run under "raise" too: an overflow
    # raises, and an inf or NaN that came in quietly fails the finiteness check
    try:
        with np.errstate(all="raise", under="ignore"):
            pairs[0] = _seed_pair(nodes[0][0], nodes[1][0])
            for start in range(0, samples, _FRAME_CHUNK):
                stop = min(start + _FRAME_CHUNK, samples)
                s0 = max(start, 1) - 1  # steps s0 .. stop-2 reach samples s0+1 .. stop-1
                steps = _transport_steps(
                    rows_at(nodes, s0, stop - 1), rows_at(mids, s0, stop - 1),
                    rows_at(nodes, s0 + 1, stop), h,
                )
                for i, step in enumerate(steps, s0 + 1):
                    np.matmul(pairs[i - 1], step, out=pairs[i])
                    _orthonormalize(pairs[i])
                err, first[start:stop], second[start:stop] = _knot_data(
                    rows_at(nodes, start, stop), pairs[start:stop]
                )
                gram_error = max(gram_error, err)
            curve = HermiteCurve(w_arr, *(x.reshape(samples, 8) for x in (pairs, first, second)))
            finite = all(np.isfinite(c).all() for c in curve._derived)
    except FloatingPointError:
        finite = False
    if not finite:
        raise CatalogError(f"spherical curve gives frame knot data outside the float range "
                           f"on [{lo}, {hi}]")
    return NormalFrame(
        w=w_arr, a=pairs[:, 0], b=pairs[:, 1], curve=curve, gram_error=gram_error
    )


# -- chart helpers ---------------------------------------------------------------------


def _times(f: Expr, fn: str, x: Expr) -> Expr:  # f*fn(x)
    return BinOp("*", f, Call(fn, x))


def _cylinder_chart(f, g, t, u):
    return [_times(f, "cos", t), _times(f, "sin", t), g, u]


def _so2_chart(f, g, t, u):
    return [_times(f, "cos", t), _times(f, "sin", t), _times(g, "cos", u), _times(g, "sin", u)]


def _profile_chart(name: str, chart: Callable, f, g, box, profile=None) -> Immersion:
    """The immersion (s, t, u) -> ``chart(f(s), g(s), t, u)``, over the trees
    of closed-form f and g or over the two components of an integrated
    ``profile``."""
    if profile is None:
        f, g = _parse_curve_exprs((f, g), ("s",), 2, "profile")
    else:
        f, g = (_CurveAt(profile.curve, "s", k) for k in (0, 1))
    return Immersion.from_exprs(name, chart(f, g, Var("t"), Var("u")), ("s", "t", "u"), box)


def _box(domain, defaults) -> tuple[tuple[float, float], ...]:
    if domain is None:
        return tuple(defaults)
    if len(domain) != len(defaults):
        raise CatalogError(f"domain needs {len(defaults)} intervals")
    return tuple(_bounds(interval, "domain bound") for interval in domain)


def _padded(interval: tuple[float, float], rel: float = 0.06) -> tuple[float, float]:
    lo, hi = interval
    pad = max(rel * (hi - lo), 1e-3)
    return lo - pad, hi + pad


# -- family builders -------------------------------------------------------------------


def hypercylinder_rotational(
    f="2+cos(s)", g="sin(s)", profile: ProfileCurve | None = None, domain=None
) -> Immersion:
    """(f(s) cos t, f(s) sin t, g(s), u): cylinder over a rotational surface."""
    box = _box(domain, ((0.0, _TWO_PI), (0.0, _TWO_PI), (-1.0, 1.0)))
    return _profile_chart("hypercylinder_rotational", _cylinder_chart, f, g, box, profile)


def conical_hypercylinder(c1=0.6, c2=0.8, domain=None) -> Immersion:
    """((c1 s + c2) cos t, (c1 s + c2) sin t, c2 s, u): cylinder over a cone."""
    c1, c2 = _number(c1, "c1"), _number(c2, "c2")
    if c1 == 0.0 and c2 == 0.0:
        raise CatalogError("c1 and c2 cannot both vanish")
    box = _box(domain, ((0.5, 2.5), (0.0, _TWO_PI), (-1.0, 1.0)))
    return _profile_chart("conical_hypercylinder", _cylinder_chart, f"{c1!r}*s+{c2!r}",
                          f"{c2!r}*s", box)


def so2_x_so2(
    f="2+cos(s)", g="sin(s)", profile: ProfileCurve | None = None, domain=None
) -> Immersion:
    """(f(s) cos t, f(s) sin t, g(s) cos u, g(s) sin u): doubly rotational."""
    box = _box(domain, ((0.3, 2.8), (0.0, _TWO_PI), (0.0, _TWO_PI)))
    return _profile_chart("so2_x_so2", _so2_chart, f, g, box, profile)


def rotational(
    f="sin(s)", g="cos(s)", profile: ProfileCurve | None = None, domain=None
) -> Immersion:
    """(f(s), g(s) cos t, g(s) sin t sin u, g(s) sin t cos u): rotational."""
    box = _box(domain, ((-0.7, 0.7), (0.35, 2.79), (0.0, _TWO_PI)))

    def chart(f, g, t, u):
        g_sin_t = _times(g, "sin", t)
        return [f, _times(g, "cos", t), _times(g_sin_t, "sin", u), _times(g_sin_t, "cos", u)]

    return _profile_chart("rotational", chart, f, g, box, profile)


_DEFAULT_CONE_BASE = (
    "cos(v)*cos(w)",
    "cos(v)*sin(w)",
    "sin(v)*cos(w)",
    "sin(v)*sin(w)",
)


def tangent_cone(c=0.25, y: Sequence | None = None, domain=None) -> Immersion:
    """s y(v,w) + c n(v,w): cone over a surface of the unit 3-sphere, offset
    along its spherical normal n (sign fixed so {y, y_v, y_w, n} is positive).
    """
    c = _number(c, "c")
    y_exprs = _parse_curve_exprs(
        y if y is not None else _DEFAULT_CONE_BASE, ("v", "w"), 4, "base surface"
    )
    box = _box(domain, ((0.75, 2.25), (0.0, _TWO_PI), (0.0, _TWO_PI)))
    base = Program(y_exprs)
    v, w = (x.ravel() for x in np.meshgrid(*(np.linspace(lo, hi, 7) for lo, hi in box[1:]),
                                           indexing="ij"))
    # under "raise", so that a failure does not depend on the caller's numpy error state
    with np.errstate(all="raise", under="ignore"):
        sampled = np.stack(base({"v": v, "w": w}), axis=-1)
    if not _on_sphere(sampled).all():
        raise CatalogError("base surface must lie on the unit 3-sphere")

    # n_a = det[y, y_v, y_w, e_a], so that {y, y_v, y_w, n} is positively
    # oriented: the 3x3 cofactors of (y, y_v, y_w), each expanded along y over
    # the 2x2 minors of (y_v, y_w), which the program runs once
    memo: dict = {}
    y_v, y_w = ([_derivative(e, x, memo) for e in y_exprs] for x in ("v", "w"))
    minor = {(i, j): BinOp("-", BinOp("*", y_v[i], y_w[j]), BinOp("*", y_v[j], y_w[i]))
             for i in range(4) for j in range(i + 1, 4)}
    normal = []
    for a in range(4):
        i, j, k = (r for r in range(4) if r != a)
        det = BinOp("+", BinOp("-", BinOp("*", y_exprs[i], minor[j, k]),
                               BinOp("*", y_exprs[j], minor[i, k])),
                    BinOp("*", y_exprs[k], minor[i, j]))
        normal.append(Neg(det) if a % 2 == 0 else det)
    norm_sq = BinOp("*", normal[0], normal[0])
    for x in normal[1:]:
        norm_sq = BinOp("+", norm_sq, BinOp("*", x, x))
    length = Call("sqrt", norm_sq)
    comps = [BinOp("+", BinOp("*", Var("s"), e), BinOp("*", Const(c), BinOp("/", x, length)))
             for e, x in zip(y_exprs, normal)]
    return Immersion.from_exprs("tangent_cone", comps, ("s", "v", "w"), box)


_DEFAULT_TUBE_CURVE = ("cos(w)", "sin(w)", "0", "0")


def curve_tube(
    c=0.5, alpha: Sequence | None = None, domain=None, samples: int = 801
) -> Immersion:
    """s a(w) + c (cos(v/c) A(w) + sin(v/c) B(w)) for a curve a on the unit
    3-sphere with normal frame (A, B); c must be positive."""
    c = _number(c, "c")
    if not c > 0:
        raise CatalogError("curve_tube requires c > 0")
    alpha_exprs = _parse_curve_exprs(
        alpha if alpha is not None else _DEFAULT_TUBE_CURVE, ("w",), 4, "spherical curve"
    )
    box = _box(domain, ((0.5, 2.0), (0.0, math.pi), (0.0, _TWO_PI)))
    frame = build_normal_frame(alpha_exprs, _padded(box[2]), samples=samples)
    ab = [_CurveAt(frame.curve, "w", k) for k in range(8)]  # A, then B
    phase = BinOp("*", Var("v"), Const(1.0 / c))
    cos_p, sin_p = Call("cos", phase), Call("sin", phase)
    comps = [BinOp("+", BinOp("*", Var("s"), alpha_exprs[k]), BinOp("*", Const(c), BinOp(
        "+", BinOp("*", cos_p, ab[k]), BinOp("*", sin_p, ab[k + 4])))) for k in range(4)]
    return Immersion.from_exprs("curve_tube", comps, ("s", "v", "w"), box)


def special_sqrt2(domain=None) -> Immersion:
    """(sqrt(2) s cos t, sqrt(2) s sin t, sqrt(2) s cos u, sqrt(2) s sin u)."""
    box = _box(domain, ((0.5, 2.5), (0.0, _TWO_PI), (0.0, _TWO_PI)))
    return _profile_chart("special_sqrt2", _so2_chart, "sqrt(2)*s", "sqrt(2)*s", box)


_DEFAULT_PRODUCT_BASE = (
    "(2+cos(s))*cos(t)",
    "(2+cos(s))*sin(t)",
    "sin(s)",
)


def product_cylinder(base: Sequence | None = None, domain=None) -> Immersion:
    """(b1(s,t), b2(s,t), b3(s,t), u): product of a surface in E^3 with a line."""
    base_exprs = _parse_curve_exprs(
        base if base is not None else _DEFAULT_PRODUCT_BASE, ("s", "t"), 3, "base surface"
    )
    box = _box(domain, ((0.0, _TWO_PI), (0.0, _TWO_PI), (-1.0, 1.0)))
    comps = base_exprs + (Var("u"),)
    return Immersion.from_exprs("product_cylinder", comps, ("s", "t", "u"), box)


# -- convenience constructors (not separate catalog tags) ------------------------------


def spherical_hypercylinder(r=1.0, domain=None) -> Immersion:
    """Sphere of radius r times a line, as a rotational-cylinder instance."""
    r = _number(r, "r")
    if not r > 0:
        raise CatalogError("radius must be positive")
    box = ((-1.1 * r, 1.1 * r), (0.0, _TWO_PI), (-1.0, 1.0)) if domain is None else domain
    return hypercylinder_rotational(
        f=f"{r!r}*cos(s/{r!r})", g=f"{r!r}*sin(s/{r!r})", domain=box
    )


def circular_hypercylinder(r=1.0, domain=None) -> Immersion:
    """Circle of radius r times a plane, as a rotational-cylinder instance."""
    r = _number(r, "r")
    if not r > 0:
        raise CatalogError("radius must be positive")
    box = ((-1.5, 1.5), (0.0, _TWO_PI), (-1.0, 1.0)) if domain is None else domain
    return hypercylinder_rotational(f=f"{r!r}", g="s", domain=box)


def hyperplane(offset=1.0, domain=None) -> Immersion:
    """Flat hyperplane (s, t, u, offset)."""
    box = _box(domain, ((0.5, 2.0), (0.5, 2.0), (0.5, 2.0)))
    return Immersion.from_exprs(
        "hyperplane", ("s", "t", "u", repr(_number(offset, "offset"))), ("s", "t", "u"), box
    )


def tangent_developable_cylinder(r=1.0, a=0.8, domain=None) -> Immersion:
    """Cylinder over the tangent developable of the curve rho(s) u(phi(s)),
    where u traces a circle of radius a at fixed height on the unit sphere,
    rho = sqrt(s^2 + r^2) and phi = arctan(s/r).

    The generating curve satisfies <curve, curve''> = 0, which makes the
    developable (and hence this product) position-principal at every regular
    point.
    """
    r, a = _number(r, "r"), _number(a, "a")
    if not r > 0 or not 0 < a < 1:
        raise CatalogError("need r > 0 and 0 < a < 1")
    box = _box(domain, ((-1.0, 1.0), (0.2, 1.2), (-1.0, 1.0)))
    # gamma = rho (a cos ang, a sin ang, height) and its s-derivative
    # gamma' = (s/rho) (a cos ang, a sin ang, height) + (r/rho) (-sin ang, cos ang, 0)
    rho = f"sqrt(s*s+{r!r}*{r!r})"
    ang, height = f"atan(s/{r!r})/{a!r}", f"sqrt(1-{a!r}*{a!r})"
    cos_a, sin_a = f"cos({ang})", f"sin({ang})"
    radial, swirl = f"s/{rho}", f"{r!r}/{rho}"
    comps = (
        f"{rho}*({cos_a}*{a!r})+t*({radial}*({cos_a}*{a!r})+{swirl}*(-{sin_a}))",
        f"{rho}*({sin_a}*{a!r})+t*({radial}*({sin_a}*{a!r})+{swirl}*{cos_a})",
        f"{rho}*{height}+t*({radial}*{height})",
        "u",
    )
    return Immersion.from_exprs("tangent_developable_cylinder", comps, ("s", "t", "u"), box)


# -- registry --------------------------------------------------------------------------


@dataclass(frozen=True)
class _FamilyInfo:
    builder: Callable[..., Immersion]
    description: str
    variables: tuple[str, ...]
    params_doc: dict


_PROFILE_DOC = {
    "kappa": "optional profile curvature; replaces f, g via ODE integration",
    "init": "profile initial data (f0, g0, angle0) when kappa is given",
    "step": "profile integration step when kappa is given",
}

_FAMILIES: dict[str, _FamilyInfo] = {
    "hypercylinder_rotational": _FamilyInfo(
        hypercylinder_rotational,
        "(f(s) cos t, f(s) sin t, g(s), u) - cylinder over a rotational surface",
        ("s", "t", "u"),
        {
            "f": "radius profile, expression in s (default '2+cos(s)')",
            "g": "height profile, expression in s (default 'sin(s)')",
            **_PROFILE_DOC,
        },
    ),
    "conical_hypercylinder": _FamilyInfo(
        conical_hypercylinder,
        "((c1 s + c2) cos t, (c1 s + c2) sin t, c2 s, u) - cylinder over a cone",
        ("s", "t", "u"),
        {"c1": "slope of the line profile (default 0.6)", "c2": "offset (default 0.8)"},
    ),
    "so2_x_so2": _FamilyInfo(
        so2_x_so2,
        "(f(s) cos t, f(s) sin t, g(s) cos u, g(s) sin u) - doubly rotational",
        ("s", "t", "u"),
        {
            "f": "first radius profile, expression in s (default '2+cos(s)')",
            "g": "second radius profile, expression in s (default 'sin(s)')",
            **_PROFILE_DOC,
        },
    ),
    "rotational": _FamilyInfo(
        rotational,
        "(f(s), g(s) cos t, g(s) sin t sin u, g(s) sin t cos u) - rotational",
        ("s", "t", "u"),
        {
            "f": "axis profile, expression in s (default 'sin(s)')",
            "g": "radius profile, expression in s (default 'cos(s)')",
            **_PROFILE_DOC,
        },
    ),
    "tangent_cone": _FamilyInfo(
        tangent_cone,
        "s y(v,w) + c n(v,w) - cone over a unit-sphere surface, normal offset c",
        ("s", "v", "w"),
        {
            "c": "normal offset (default 0.25; 0 gives the plain cone)",
            "y": "four expressions in v, w for the base surface (default torus patch)",
        },
    ),
    "curve_tube": _FamilyInfo(
        curve_tube,
        "s a(w) + c (cos(v/c) A(w) + sin(v/c) B(w)) - tube over a spherical curve",
        ("s", "v", "w"),
        {
            "c": "tube constant, must be > 0 (default 0.5)",
            "alpha": "four expressions in w for the curve (default great circle)",
            "samples": "frame integration samples (default 801)",
        },
    ),
    "special_sqrt2": _FamilyInfo(
        special_sqrt2,
        "(sqrt(2) s cos t, sqrt(2) s sin t, sqrt(2) s cos u, sqrt(2) s sin u)",
        ("s", "t", "u"),
        {},
    ),
    "product_cylinder": _FamilyInfo(
        product_cylinder,
        "(b1(s,t), b2(s,t), b3(s,t), u) - product of a surface in E^3 with a line",
        ("s", "t", "u"),
        {"base": "three expressions in s, t for the base surface (default torus)"},
    ),
}

FAMILY_TAGS: tuple[str, ...] = tuple(_FAMILIES)

_PROFILE_FAMILIES = {"hypercylinder_rotational", "so2_x_so2", "rotational"}


def make_family(tag, /, **params) -> Immersion:
    """Construct the catalog family ``tag`` from its parameters."""
    tag = str(tag)
    info = _FAMILIES.get(tag)
    if info is None:
        raise CatalogError(f"unknown family {tag!r}; valid tags: {', '.join(FAMILY_TAGS)}")
    try:  # a TypeError here is a parameter of the wrong type or name
        if tag in _PROFILE_FAMILIES and "kappa" in params:
            params = dict(params)
            if "f" in params or "g" in params:
                raise CatalogError("give either f/g expressions or kappa, not both")
            kappa = params.pop("kappa")
            init = params.pop("init", (0.0, 0.0, 0.0))
            step = params.pop("step", 1e-3)
            domain = params.get("domain")
            if domain is None:
                raise CatalogError("profile integration needs an explicit domain")
            s_range = _bounds(domain[0], "domain bound")
            params["profile"] = integrate_profile(kappa, _padded(s_range), init, step)
        return info.builder(**params)
    except TypeError as exc:
        raise CatalogError(f"bad parameters for family {tag!r}: {exc}") from None


def family_catalog() -> list[dict]:
    """Machine-readable listing of every family tag."""
    out = []
    for tag, info in _FAMILIES.items():
        out.append(
            {
                "tag": tag,
                "description": info.description,
                "variables": list(info.variables),
                "parameters": dict(info.params_doc),
            }
        )
    return out
