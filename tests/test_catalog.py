"""Surface families: interpolants, profile/frame integration, and constructors."""

import itertools
import math
import types
import warnings

import numpy as np
import pytest

import setup_oracle
import tensor_jet_oracle
from conftest import TWO_PI, sample_points
from gcrkit.catalog import (
    CatalogError,
    HermiteCurve,
    PartialCurveError,
    build_normal_frame,
    circular_hypercylinder,
    conical_hypercylinder,
    curve_tube,
    family_catalog,
    FAMILY_TAGS,
    hypercylinder_rotational,
    hyperplane,
    integrate_profile,
    make_family,
    product_cylinder,
    rotational,
    so2_x_so2,
    special_sqrt2,
    spherical_hypercylinder,
    tangent_cone,
    tangent_developable_cylinder,
)
from gcrkit import catalog
from gcrkit.expr import _FUNCTIONS, ExprError, Program, _partials, parse_expr, to_text
from gcrkit.geometry import evaluate_jets, point_geometry, principal_data
from gcrkit.gcr import gcr_residual, position_angles


# -- quintic Hermite interpolation ---------------------------------------------------------


def test_hermite_reproduces_quintics_exactly():
    # a degree-5 polynomial is in the span of the basis: errors at roundoff
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.0, 2.0, -0.5, 0.25])
    x = np.linspace(-1.0, 2.0, 7)
    curve = HermiteCurve(
        x, poly(x)[:, None], poly.deriv(1)(x)[:, None], poly.deriv(2)(x)[:, None]
    )
    for xv in np.linspace(-1.0, 2.0, 40).tolist():
        assert math.isclose(curve.evaluate(xv)[0], poly(xv), rel_tol=1e-13, abs_tol=1e-13)
        for k, tol in ((1, 1e-11), (2, 1e-10), (3, 1e-9)):
            assert math.isclose(curve.evaluate(xv, k)[0], poly.deriv(k)(xv), rel_tol=tol, abs_tol=tol)


def test_hermite_derivatives_are_the_interval_polynomials_derivatives():
    # the k-th derivative is np.polyder of the interval's quintic in tau,
    # scaled by h^-k; values and the first two derivatives are continuous at
    # the knots, where they take the knot data
    rng = np.random.default_rng(47)
    x = np.cumsum(rng.uniform(0.2, 1.0, 6))
    data = rng.standard_normal((3, 6, 2))
    curve = HermiteCurve(x, *data)
    h = np.diff(x)
    for i in range(5):
        for c in range(2):
            quintic = np.poly1d(curve._derived[0][i, ::-1, c])
            for k in range(4):
                d = np.polyder(quintic, k)
                for tau in (0.0, 0.3, 0.77):
                    got = curve.evaluate(x[i] + tau * h[i], k)[c]
                    want = d(tau) / h[i] ** k
                    assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-11 * h[i] ** -k)
                if 0 < i and k < 3:  # C^2: the left interval's end is the knot's data
                    left = np.polyder(np.poly1d(curve._derived[0][i - 1, ::-1, c]), k)(1.0)
                    at = curve.evaluate(float(x[i]), k)[c]
                    assert math.isclose(left / h[i - 1] ** k, at, rel_tol=1e-12, abs_tol=1e-12)
                    assert math.isclose(at, data[k, i, c], rel_tol=1e-12, abs_tol=1e-12)


def test_hermite_interpolation_error_scales():
    # for sin, halving the knot spacing should shrink the error ~2^6
    errs = []
    for samples in (11, 21):
        x = np.linspace(0.0, 3.0, samples)
        curve = HermiteCurve(x, np.sin(x)[:, None], np.cos(x)[:, None], -np.sin(x)[:, None])
        dense = np.linspace(0.0, 3.0, 400)
        errs.append(max(abs(curve.evaluate(v)[0] - math.sin(v)) for v in dense))
    assert errs[0] / errs[1] > 30.0
    assert errs[1] < 1e-8


def test_hermite_validation():
    with pytest.raises(ValueError):
        HermiteCurve(np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        HermiteCurve(
            np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))
        )
    with pytest.raises(ValueError, match="one sample row per knot required"):
        HermiteCurve(np.array([0.0, 1.0, 2.0]), *(np.zeros((2, 1)) for _ in range(3)))


def test_hermite_multidimensional_and_span():
    x = np.linspace(0.0, 1.0, 5)
    vals = np.column_stack([x**2, x**3])
    curve = HermiteCurve(x, vals, np.column_stack([2 * x, 3 * x**2]),
                         np.column_stack([2 * np.ones_like(x), 6 * x]))
    out = curve.evaluate(0.37)
    assert len(out) == curve.values.shape[1] == 2
    assert math.isclose(out[0], 0.37**2, abs_tol=1e-13)
    assert math.isclose(out[1], 0.37**3, abs_tol=1e-13)


def test_stacked_hermite_rows_match_scalar_calls():
    # each row of a stacked call is the scalar call at its abscissa, bit for
    # bit and sign of zero included: on knots, inside intervals, and below the
    # first or above the last knot, where the end polynomials extrapolate
    rng = np.random.default_rng(41)
    x = np.linspace(-1.0, 2.0, 7)
    data = rng.standard_normal((3, 7, 2))
    data[:, :3, 1] = 0.0  # zero polynomials, whose products carry signed zeros
    curve = HermiteCurve(x, *data)
    at = np.r_[x, -0.0, -1.5, -1.0 - 1e-12, 2.0 + 1e-12, 2.5, rng.uniform(-1.0, 2.0, 9)]
    for k in range(4):
        for c in range(curve.values.shape[1]):
            singles = [curve.evaluate(v, k)[c] for v in at.tolist()]
            assert all(type(v) is float for v in singles)
            assert curve.evaluate(at, k)[c].tobytes() == np.array(singles).tobytes()


# -- profile integration ---------------------------------------------------------------------


def test_zero_curvature_is_a_straight_line():
    prof = integrate_profile(0.0, (0.0, 2.0), init=(0.3, 0.4, 0.6), step=1e-2)
    for s in (0.1, 0.9, 1.7):
        f, g = prof.evaluate(s)
        assert math.isclose(f, 0.3 + s * math.cos(0.6), abs_tol=1e-12)
        assert math.isclose(g, 0.4 + s * math.sin(0.6), abs_tol=1e-12)


def test_interpolant_speed_error_shrinks_with_the_step():
    # the knots hold exact unit tangents, so the speed error of the quintic
    # interpolant shows between them: ||c'| - 1| at interval midpoints
    def midpoint_speed_error(step):
        prof = integrate_profile("sin(s)+0.3*cos(2*s)", (0.0, 3.0), step=step)
        mids = 0.5 * (prof.knots[:-1] + prof.knots[1:])
        f, g = prof.evaluate(mids, 1)
        return float(np.max(np.abs(np.hypot(f, g) - 1.0)))

    assert midpoint_speed_error(1e-3) <= 1e-10
    assert midpoint_speed_error(0.5) >= 1e-5


def test_unit_circle_profile():
    prof = integrate_profile(1.0, (0.0, 3.0), step=1e-3)
    for s in np.linspace(0.0, 3.0, 17):
        f, g = prof.evaluate(float(s))
        assert abs(f - math.sin(s)) < 1e-9
        assert abs(g - (1.0 - math.cos(s))) < 1e-9


def test_variable_curvature_against_quadrature():
    # kappa(s) = s: angle = s^2/2, so f = int cos(u^2/2) du (a Fresnel-type
    # integral); dense trapezoid quadrature is the independent oracle
    prof = integrate_profile("s", (0.0, 1.5), step=5e-4)
    u, du = np.linspace(0.0, 1.5, 3001, retstep=True)

    def trapezoid(y):  # composite rule on the uniform grid u
        return du * (y.sum() - (y[0] + y[-1]) / 2.0)

    f_ref = trapezoid(np.cos(u**2 / 2.0))
    g_ref = trapezoid(np.sin(u**2 / 2.0))
    f, g = prof.evaluate(1.5)
    assert abs(f - f_ref) < 1e-6
    assert abs(g - g_ref) < 1e-6


def test_partial_curve_error_reports_last_abscissa():
    with pytest.raises(PartialCurveError) as err:
        integrate_profile("1/(1-s)", (0.0, 2.0), step=1e-2)
    assert 0.9 <= err.value.last_s <= 1.0


def test_integrate_profile_validation():
    with pytest.raises(CatalogError):
        integrate_profile(1.0, (1.0, 0.0))
    with pytest.raises(CatalogError):
        integrate_profile(1.0, (0.0, 1.0), step=0.0)
    with pytest.raises(CatalogError):
        integrate_profile(1.0, (0.0, 1.0), init=(0.0, 0.0))
    # non-numbers, non-finite steps and steps implying more than a million
    # RK4 steps are refused before any array is allocated
    for step in ("1e-3", True, float("nan"), float("inf"), -1e-3, 5e-324, 1e-7):
        with pytest.raises(CatalogError, match="step"):
            integrate_profile(1.0, (0.0, 1.0), step=step)
    with pytest.raises(CatalogError, match="exceeds"):
        integrate_profile(1.0, (0.0, 2e6), step=1.0)
    # initial data must be a list or tuple of three finite numbers, and a
    # boolean is no curvature
    for init in ((math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), (True, 0.0, 0.0), 5, None,
                 (v for v in (0.0, 0.0, 0.0))):
        with pytest.raises(CatalogError, match="init"):
            integrate_profile(1.0, (0.0, 1.0), init=init)
    with pytest.raises(CatalogError, match="curvature"):
        integrate_profile(True, (0.0, 1.0))
    # string curvatures only know the arc-length variable
    from gcrkit.expr import ExprSyntaxError, parse_expr

    with pytest.raises(ExprSyntaxError):
        integrate_profile("s*t", (0.0, 1.0))
    with pytest.raises(CatalogError):
        integrate_profile(parse_expr("s*t", ("s", "t")), (0.0, 1.0))


# Interval bounds given to the API, as opposed to a spec file, are family
# numbers too: a bool or a numeric string is no bound, and the bounds must lie
# a finite width apart.
BAD_BOUNDS = [
    ((True, 2.0), "must be a finite number, got True"),
    (("0", 1.0), "must be a finite number, got '0'"),
    ((0.0, "1"), "must be a finite number, got '1'"),
    ((0.0, math.inf), "must be a finite number, got inf"),
    ((math.nan, 1.0), "must be a finite number, got nan"),
    ((-1e308, 1e308), r"-1e\+308, 1e\+308 are not a finite width apart"),
    ((0.0, 1.0, 2.0), r"must be a pair \(lo, hi\), got \(0.0, 1.0, 2.0\)"),
    (5, r"must be a pair \(lo, hi\), got 5$"),
]


@pytest.mark.parametrize("bounds, message", BAD_BOUNDS)
def test_integration_bounds_are_finite_numbers(bounds, message):
    with pytest.raises(CatalogError, match=f"^integration bounds? {message}"):
        integrate_profile(1.0, bounds)


@pytest.mark.parametrize("bounds, message", BAD_BOUNDS)
def test_frame_bounds_are_finite_numbers(bounds, message):
    with pytest.raises(CatalogError, match=f"^frame bounds? {message}"):
        build_normal_frame(GREAT_CIRCLE, bounds)


@pytest.mark.parametrize("bounds, message", BAD_BOUNDS)
def test_domain_bounds_are_finite_numbers(bounds, message):
    box = ((0.3, 2.8), (0.0, TWO_PI), (0.0, TWO_PI))
    for axis in range(3):
        domain = box[:axis] + (bounds,) + box[axis + 1:]
        with pytest.raises(CatalogError, match=f"^domain bounds? {message}"):
            so2_x_so2(domain=domain)
        with pytest.raises(CatalogError, match=f"^domain bounds? {message}"):
            make_family("so2_x_so2", domain=domain)
        # an integrated profile reads the first interval before the chart does
        with pytest.raises(CatalogError, match=f"^domain bounds? {message}"):
            make_family("so2_x_so2", kappa=1.0, domain=domain)
        # hyperplane is no catalog tag, but takes a domain like the families
        with pytest.raises(CatalogError, match=f"^domain bounds? {message}"):
            hyperplane(domain=domain)
    # integers and numpy numbers are numbers
    m = so2_x_so2(domain=((np.float64(0.5), 2), (0, 6), (np.int64(0), 6.0)))
    assert m.domain == ((0.5, 2.0), (0.0, 6.0), (0.0, 6.0))
    assert all(type(v) is float for interval in m.domain for v in interval)


# -- normal frames of spherical curves -------------------------------------------------------


GREAT_CIRCLE = ("cos(w)", "sin(w)", "0", "0")


def test_great_circle_frame_is_constant():
    frame = build_normal_frame(GREAT_CIRCLE, (0.0, TWO_PI), samples=201)
    assert setup_oracle.frame_gram_error(GREAT_CIRCLE, frame) < 1e-9
    for w in np.linspace(0.1, TWO_PI - 0.1, 9):
        a, b = np.array(frame.evaluate(float(w))).reshape(2, 4)
        assert np.allclose(a, [0, 0, 1, 0], atol=1e-9)
        assert np.allclose(b, [0, 0, 0, 1], atol=1e-9)


def test_torus_knot_frame_constraints():
    cd, sd = math.cos(0.5), math.sin(0.5)
    alpha = (f"{cd}*cos(w)", f"{cd}*sin(w)", f"{sd}*cos(2*w)", f"{sd}*sin(2*w)")
    frame = build_normal_frame(alpha, (0.0, TWO_PI), samples=801)
    assert setup_oracle.frame_gram_error(alpha, frame) < 1e-9
    program = Program(_partials(tuple(parse_expr(e, ("w",)) for e in alpha), ("w",), 1))
    for w in np.linspace(0.05, TWO_PI - 0.05, 11):
        rows = np.array(program({"w": float(w)}))
        av, dv = rows[0::2], rows[1::2]
        a, b = np.array(frame.evaluate(float(w))).reshape(2, 4)
        for vec in (a, b):
            assert abs(vec @ vec - 1.0) < 1e-8
            assert abs(vec @ av) < 1e-8
            assert abs(vec @ dv) < 1e-7
        assert abs(a @ b) < 1e-8


def test_frame_rejects_off_sphere_and_irregular_curves():
    with pytest.raises(CatalogError):
        build_normal_frame(("2*cos(w)", "2*sin(w)", "0", "0"), (0.0, 1.0))
    with pytest.raises(CatalogError):
        build_normal_frame(("1", "0", "0", "0"), (0.0, 1.0))
    # a squared norm that overflows is off the sphere, not a numpy error
    with np.errstate(all="raise"), pytest.raises(CatalogError, match="curve must lie on"):
        build_normal_frame(("1e200*cos(w)", "sin(w)", "0", "0"), (0.0, 1.0))
    with pytest.raises(CatalogError, match=r"^empty frame range \[1\.0, 1\.0\]$"):
        build_normal_frame(GREAT_CIRCLE, (1.0, 1.0))
    # sample counts must be integers within the cap, checked before allocation
    for samples in (1, True, 801.0, 1e9, 10**9, 100_001):
        with pytest.raises(CatalogError, match="samples"):
            build_normal_frame(GREAT_CIRCLE, (0.0, 1.0), samples=samples)


# -- family constructors ---------------------------------------------------------------------


def test_all_tags_build_and_are_regular_at_midpoint():
    for tag in FAMILY_TAGS:
        m = make_family(tag)
        mid = tuple((lo + hi) / 2.0 for lo, hi in m.domain)
        pg = point_geometry(m, mid)
        assert pg.det_metric > 1e-10
        assert m.n == 3 and m.ambient_dim == 4


def test_family_catalog_listing():
    catalog = family_catalog()
    assert [f["tag"] for f in catalog] == list(FAMILY_TAGS)
    assert len(catalog) == 8
    for entry in catalog:
        assert entry["description"]
        assert len(entry["variables"]) == 3
        assert isinstance(entry["parameters"], dict)


def test_make_family_errors():
    with pytest.raises(CatalogError):
        make_family("no_such_family")
    with pytest.raises(CatalogError):
        make_family("special_sqrt2", bogus=1.0)
    with pytest.raises(CatalogError):
        make_family("so2_x_so2", kappa=1.0)  # profile integration needs a domain
    with pytest.raises(CatalogError):
        make_family(
            "so2_x_so2", kappa=1.0, f="cos(s)",
            domain=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        )
    with pytest.raises(CatalogError):
        make_family("special_sqrt2", extra=2.0)
    with pytest.raises(CatalogError, match="^domain needs 3 intervals$"):
        so2_x_so2(domain=((0, 1), (0, 1)))


@pytest.mark.parametrize("domain", [5, "abc", [], iter([(0, 1)] * 3), {"s": (0, 1)}])
def test_a_domain_must_be_a_list_or_tuple_of_intervals(domain):
    # anything but a list or tuple of one interval per chart variable, through
    # a builder or the registry, with or without an integrated profile
    for build in (hypercylinder_rotational, hyperplane, curve_tube,
                  lambda domain: make_family("so2_x_so2", domain=domain),
                  lambda domain: make_family("so2_x_so2", kappa=1.0, domain=domain)):
        with pytest.raises(CatalogError, match="^domain needs 3 intervals$"):
            build(domain=domain)


def test_make_family_with_spec_and_kappa_profile():
    m = make_family(
        "so2_x_so2",
        kappa=0.4,
        init=(1.5, 0.4, 0.1),
        domain=((0.0, 1.5), (0.0, TWO_PI), (0.0, TWO_PI)),
    )
    pg = point_geometry(m, (0.7, 1.0, 2.0))
    pa = position_angles(pg)
    res = gcr_residual(pa, pg)
    assert res.primary < 1e-9


def test_so2_x_so2_positive_for_arbitrary_profiles():
    m = so2_x_so2(f="2+cos(s)+0.2*s", g="1.1+0.4*sin(s)")
    p = (1.5, 0.9, 2.3)
    pg = point_geometry(m, p)
    res = gcr_residual(position_angles(pg), pg)
    assert res.primary < 1e-12 and res.secondary < 1e-10


def test_special_family_spectrum():
    m = special_sqrt2()
    for s in (0.7, 1.6, 2.2):
        pd = principal_data(point_geometry(m, (s, 1.0, 2.0)))
        k = 1.0 / (2.0 * s)
        assert np.allclose(pd.curvatures, [-k, 0.0, k], atol=1e-12)


def test_curve_tube_spectrum_and_constraint():
    m = curve_tube(c=0.5)
    pd = principal_data(point_geometry(m, (0.8, 0.3, 1.1)))
    # one curvature is -1/c; the ruling direction is flat
    assert min(abs(pd.curvatures + 2.0)) < 1e-9
    assert min(abs(pd.curvatures)) < 1e-9
    with pytest.raises(CatalogError):
        curve_tube(c=0.0)
    with pytest.raises(CatalogError):
        curve_tube(alpha=("w", "0", "0", "0"))


def test_tangent_cone_has_flat_ruling():
    m = tangent_cone(c=0.3)
    pd = principal_data(point_geometry(m, (1.3, 0.8, 1.9)))
    assert min(abs(pd.curvatures)) < 1e-12
    with pytest.raises(CatalogError):
        tangent_cone(y=("v", "w", "0", "1"))  # not on the unit sphere


def test_on_sphere_fails_non_finite_rows_quietly():
    rows = np.array([[0.6, 0.8, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 1.0],
                     [math.inf, 0.0, 0.0, 0.0], [1.0 + 1e-8, 0.0, 0.0, 0.0]])
    with np.errstate(all="raise"):
        assert catalog._on_sphere(rows).tolist() == [True, False, False, False, False]
        assert catalog._on_sphere(rows[0]) and not catalog._on_sphere(rows[1])


@pytest.mark.parametrize("y", [
    ("1e200*cos(v)", "sin(v)", "0", "0"),  # the squared norm overflows
    ("cos(v)*cos(w)+0*(1e200*1e200)", "cos(v)*sin(w)", "sin(v)*cos(w)", "sin(v)*sin(w)"),  # NaN
])
@pytest.mark.parametrize("trap", [False, True])
def test_tangent_cone_refuses_a_non_finite_base(y, trap):
    with np.errstate(all="raise" if trap else "warn"):
        with pytest.raises(CatalogError, match="base surface must lie on the unit 3-sphere"):
            tangent_cone(y=y)


# set-up inputs that fail only in numpy's arithmetic, which carries on as inf
# or NaN unless its error state is "raise"
_SETUP_FAILURES = {
    "profile": lambda: integrate_profile("1e308", (0.0, 1.0)),
    # the integration succeeds, and the knot data h^2 kappa overflows
    "profile knots": lambda: integrate_profile("1e302", (0.0, 1e5), step=1e4),
    "curve": lambda: build_normal_frame(["cos(w)", "sin(w)", "w*1e200*1e200*0", "0"], (0.0, 1.0)),
    "cone base": lambda: tangent_cone(y=["cos(v)*cos(w)+v*1e200*1e200*0", "cos(v)*sin(w)",
                                         "sin(v)*cos(w)", "sin(v)*sin(w)"]),
}


@pytest.mark.parametrize("label", sorted(_SETUP_FAILURES))
def test_set_up_failures_do_not_depend_on_the_numpy_error_state(label):
    outcomes = []
    for state in ("ignore", "warn", "raise", "error"):
        with warnings.catch_warnings(record=True) as seen, \
                np.errstate(all="warn" if state == "error" else state):
            warnings.simplefilter("error" if state == "error" else "always", RuntimeWarning)
            with pytest.raises(Exception) as caught:
                _SETUP_FAILURES[label]()
        assert not seen, (state, [str(w.message) for w in seen])
        exc = caught.value
        outcomes.append((type(exc), str(exc), getattr(exc, "last_s", None)))
    assert isinstance(exc, (CatalogError, ExprError)), outcomes
    assert outcomes == [outcomes[0]] * 4


def test_tangent_cone_differentiates_a_base_at_the_depth_cap():
    # the parser caps a base at 200 levels; a power chain's derivative trees
    # nest about three times deeper, and the cone still compiles and runs
    chain = "^".join(["(1+0.1*cos(v))"] * 195)
    m = tangent_cone(y=[f"cos(v)*cos(w)+1e-30*{chain}", "cos(v)*sin(w)", "sin(v)*cos(w)",
                        "sin(v)*sin(w)"])
    assert np.isfinite(evaluate_jets(m, (1.0, 0.5, 0.5), 3)).all()


def test_cone_constructor_validation():
    with pytest.raises(CatalogError):
        conical_hypercylinder(0.0, 0.0)
    with pytest.raises(CatalogError, match="c1 must be a finite number, got True"):
        conical_hypercylinder(c1=True)


def test_spherical_and_circular_products():
    ms = spherical_hypercylinder(1.5)
    pg = point_geometry(ms, (0.4, 1.0, 0.5))
    assert math.isclose(np.linalg.norm(pg.position[:3]), 1.5, rel_tol=1e-12)
    pd = principal_data(pg)
    assert np.allclose(sorted(np.abs(pd.curvatures)), [0.0, 1 / 1.5, 1 / 1.5], atol=1e-10)

    mc = circular_hypercylinder(2.0)
    pd2 = principal_data(point_geometry(mc, (0.3, 2.0, 0.8)))
    assert np.allclose(sorted(np.abs(pd2.curvatures)), [0.0, 0.0, 0.5], atol=1e-10)
    with pytest.raises(CatalogError):
        spherical_hypercylinder(-1.0)
    with pytest.raises(CatalogError, match="^radius must be positive$"):
        circular_hypercylinder(r=0)


def test_tangent_developable_cylinder_is_position_principal():
    m = tangent_developable_cylinder(r=1.0, a=0.8)
    rng = np.random.default_rng(21)
    lo = np.array([d[0] for d in m.domain])
    hi = np.array([d[1] for d in m.domain])
    for _ in range(5):
        p = tuple(lo + (hi - lo) * (0.15 + 0.7 * rng.random(3)))
        pg = point_geometry(m, p)
        res = gcr_residual(position_angles(pg), pg)
        assert res.primary < 1e-8
    with pytest.raises(CatalogError):
        tangent_developable_cylinder(a=1.2)


_PROFILE_CHARTS = {
    "hypercylinder_rotational": (hypercylinder_rotational, ((0.0, TWO_PI), (-1.0, 1.0))),
    "so2_x_so2": (so2_x_so2, ((0.0, TWO_PI), (0.0, TWO_PI))),
    "rotational": (rotational, ((0.35, 2.79), (0.0, TWO_PI))),
}


@pytest.mark.parametrize("name", list(_PROFILE_CHARTS))
def test_profile_backed_families_match_expression_route(name):
    # same circle profile by ODE and in closed form: geometry should agree;
    # s stays clear of 0, where g = sin(s) makes the last two charts singular
    family, tu_box = _PROFILE_CHARTS[name]
    domain = ((0.3, 1.5), *tu_box)
    s0 = -0.2
    prof = integrate_profile(
        1.0, (s0, 1.8),
        init=(math.cos(s0), math.sin(s0), s0 + math.pi / 2),
        step=1e-3,
    )
    m_ode = family(profile=prof, domain=domain)
    m_expr = family(f="cos(s)", g="sin(s)", domain=domain)
    for p in [(0.5, 1.0, 0.2), (1.1, 2.0, 0.7)]:
        a = point_geometry(m_ode, p)
        b = point_geometry(m_expr, p)
        assert np.allclose(a.position, b.position, atol=1e-9)
        assert np.allclose(a.second_form, b.second_form, atol=1e-7)


def test_closed_form_profile_charts_are_pinned():
    # the expression trees the chart formulas build for closed-form f and g
    texts = {
        name: [to_text(c) for c in family().components]
        for name, (family, _) in _PROFILE_CHARTS.items()
    }
    assert texts == {
        "hypercylinder_rotational": [
            "(2.0+cos(s))*cos(t)", "(2.0+cos(s))*sin(t)", "sin(s)", "u",
        ],
        "so2_x_so2": [
            "(2.0+cos(s))*cos(t)", "(2.0+cos(s))*sin(t)", "sin(s)*cos(u)", "sin(s)*sin(u)",
        ],
        "rotational": [
            "sin(s)", "cos(s)*cos(t)", "cos(s)*sin(t)*sin(u)", "cos(s)*sin(t)*cos(u)",
        ],
    }
    assert [to_text(c) for c in rotational(f="1+s^2", g="exp(s)/2").components] == [
        "1.0+s^2.0", "exp(s)/2.0*cos(t)", "exp(s)/2.0*sin(t)*sin(u)", "exp(s)/2.0*sin(t)*cos(u)",
    ]


def test_conical_and_sqrt2_charts_are_their_component_strings():
    # the trees these charts parsed from component strings before they went
    # through the cylinder and so2 x so2 chart formulas; repr also tells
    # 0.0 from -0.0, which tree equality does not
    names = ("s", "t", "u")
    for c1, c2 in ((0.6, 0.8), (-1.5, 2e-7), (0.25, -0.0)):
        radius = f"({c1!r}*s+{c2!r})"
        want = (f"{radius}*cos(t)", f"{radius}*sin(t)", f"{c2!r}*s", "u")
        got = conical_hypercylinder(c1, c2).components
        assert repr(got) == repr(tuple(parse_expr(c, names) for c in want))
    want = [f"sqrt(2)*s*{fn}({v})" for v in "tu" for fn in ("cos", "sin")]
    assert repr(special_sqrt2().components) == repr(tuple(parse_expr(c, names) for c in want))


# The reference mappings below take a namespace of elementary functions:
# the expression language's (``_FLOATS``), which also map math over a 1-D
# array, or the tensor-slot oracle's, on its jets.  On floats they run the
# operations of a chart's components in the components' order, so every
# value agrees bit for bit; on tensor jets they differentiate by forward
# propagation, which shares no code with the derivative trees.

_FLOATS = types.SimpleNamespace(**_FUNCTIONS)


def _tensor_seeds(p, order):
    return [tensor_jet_oracle.TensorJet.variable(i, v, 3, order) for i, v in enumerate(p)]


def _assert_matches_reference(m, mapping, points, orders=(1, 2, 3), rtol=1e-13):
    """Each chart value is the mapping's on floats, bit for bit, at every
    point and on the stack of them; each partial is the mapping's on tensor
    jets, within ``rtol`` of max(1, |partial|)."""
    stack = evaluate_jets(m, points, 1)
    want = mapping(_FLOATS, [np.ascontiguousarray(x) for x in points.T])
    assert [x.tobytes() for x in stack[:, :, 0].T] == [np.asarray(w).tobytes() for w in want]
    for p in points.tolist():
        values = mapping(_FLOATS, p)
        for order in orders:
            got = evaluate_jets(m, p, order)
            assert got[:, 0].tolist() == values
            ref = mapping(tensor_jet_oracle, _tensor_seeds(p, order))
            for a, b in zip(got, ref, strict=True):
                b = tensor_jet_oracle.partial_rows(b, order)
                assert np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))), (p, order)


def _tangent_developable_mapping(r, a):
    """The jet mapping that built tangent_developable_cylinder before its
    components were expressions, kept as the reference for them."""
    height = math.sqrt(1.0 - a * a)

    def mapping(ns, seeds):
        s, t, u = seeds
        rho = ns.sqrt(s * s + r * r)
        inv_rho = 1.0 / rho
        ang = ns.atan(s * (1.0 / r)) * (1.0 / a)
        cos_a, sin_a = ns.cos(ang), ns.sin(ang)
        circle = (cos_a * a, sin_a * a)
        circle_d = (-sin_a, cos_a)
        radial = s * inv_rho
        swirl = r * inv_rho
        gamma = (rho * circle[0], rho * circle[1], rho * height)
        gamma_d = (
            radial * circle[0] + swirl * circle_d[0],
            radial * circle[1] + swirl * circle_d[1],
            radial * height,
        )
        return [
            gamma[0] + t * gamma_d[0],
            gamma[1] + t * gamma_d[1],
            gamma[2] + t * gamma_d[2],
            u,
        ]

    return mapping


def test_tangent_developable_cylinder_matches_its_jet_mapping():
    # the compiled components run the mapping's operations in its order, so
    # every value agrees bit for bit, at one point and on a stack, and every
    # partial agrees with the mapping's tensor jets
    rng = np.random.default_rng(36)
    for r, a in ((1.0, 0.8), (0.7, 0.35), (2.5, 0.95)):
        m = tangent_developable_cylinder(r=r, a=a)
        points = np.array(sample_points(m, rng, 20, margin=0.0))
        _assert_matches_reference(m, _tangent_developable_mapping(r, a), points)


def _hermite_component(curve, c, x, k=0):
    """HermiteCurve's Horner loop for one component of the k-th derivative,
    as it ran once per component before ``evaluate`` ran all of them in one
    pass; kept as the reference for it.  ``x`` is a float, a 1-D array or a
    tensor jet."""
    xv = x.value if isinstance(x, tensor_jet_oracle.TensorJet) else x
    i = curve._locate(xv)
    tau = (x - curve.knots[i]) * (1.0 / curve._h[i])
    poly = curve._derived[k][i, :, c].T
    acc = tau * poly[-1] + poly[-2]
    for j in range(len(poly) - 3, -1, -1):
        acc = acc * tau + poly[j]
    return acc


def _cross(columns):
    """The generalized cross product of the three columns of a 4x3 nested
    list, by its Leibniz terms: entry a sums sgn(s) prod_c M[s(c)][c] over
    the permutations s with s(3) = a."""
    out = [0.0] * 4
    for perm in itertools.permutations(range(4)):
        sign = (-1.0) ** sum(x > y for x, y in itertools.combinations(perm, 2))
        term = columns[perm[0]][0] * columns[perm[1]][1] * columns[perm[2]][2]
        out[perm[3]] = out[perm[3]] + term * sign
    return out


def _tangent_cone_mapping(c, y_exprs):
    """tangent_cone's mapping as it was written on twelve separate jets,
    kept as the reference for the stacked one.  y and its v- and w-partials
    come from order-(k+1) tensor jets at each point, or from order-1 ones
    for floats."""
    base = tuple(parse_expr(e, ("v", "w")) for e in y_exprs)

    def lifted(v, w, order):
        # [y, y_v, y_w] of each component, tensor jets of the given order
        seed = tensor_jet_oracle.TensorJet.variable
        env = {"v": seed(1, v, 3, order + 1), "w": seed(2, w, 3, order + 1)}
        out = []
        for e in base:
            y = tensor_jet_oracle.evaluate(e, env)
            slots = (y.value, y.grad, y.hess, y.third, y.fourth)
            out.append([tensor_jet_oracle.TensorJet(3, order, *slots[:4])] + [
                tensor_jet_oracle.TensorJet(3, order, *(t[axis] for t in slots[1:]))
                for axis in (1, 2)])
        return out

    def mapping(ns, seeds):
        s, v, w = seeds
        if ns is _FLOATS:  # the values of the order-1 jets
            if isinstance(s, np.ndarray):
                columns = np.array([[[x.value for x in row] for row in lifted(*vw, 1)]
                                    for vw in zip(v.tolist(), w.tolist())])
                columns = list(np.moveaxis(columns, 0, -1))
            else:
                columns = [[x.value for x in row] for row in lifted(v, w, 1)]
        else:
            columns = lifted(v.value, w.value, s.order)
        raw = _cross(columns)
        norm_sq = raw[0] * raw[0]
        for comp in raw[1:]:
            norm_sq = norm_sq + comp * comp
        inv_norm = 1.0 / ns.sqrt(norm_sq)
        return [s * columns[k][0] + c * (raw[k] * inv_norm) for k in range(4)]

    return mapping


def _curve_tube_mapping(c, alpha_exprs, frame):
    """curve_tube's mapping as it was written component by component."""
    alpha = tuple(parse_expr(e, ("w",)) for e in alpha_exprs)

    def mapping(ns, seeds):
        s, v, w = seeds
        if ns is _FLOATS:
            a_of_w = Program(alpha)({"w": w})
        else:
            a_of_w = [tensor_jet_oracle.evaluate(e, {"w": w}) for e in alpha]
        frame_a = [_hermite_component(frame, k, w) for k in range(4)]
        frame_b = [_hermite_component(frame, k, w) for k in range(4, 8)]
        phase = v * (1.0 / c)
        cos_p, sin_p = ns.cos(phase), ns.sin(phase)
        return [
            s * a_of_w[k] + c * (cos_p * frame_a[k] + sin_p * frame_b[k])
            for k in range(4)
        ]

    return mapping


# the cylinder and so2 x so2 chart formulas
_JET_CHARTS = {
    "hypercylinder_rotational": lambda ns, f, g, t, u: [f * ns.cos(t), f * ns.sin(t), g, u],
    "so2_x_so2": lambda ns, f, g, t, u: [f * ns.cos(t), f * ns.sin(t),
                                         g * ns.cos(u), g * ns.sin(u)],
}


def _profile_mapping(chart, profile):
    """An integrated profile's chart with f and g read one component at a time."""

    def mapping(ns, seeds):
        s, t, u = seeds
        f = _hermite_component(profile, 0, s)
        g = _hermite_component(profile, 1, s)
        return chart(ns, f, g, t, u)

    return mapping


def test_hermite_evaluate_matches_the_per_component_loop():
    # one pass over all components gives each component of each derivative
    # the bits of its own Horner loop: at floats and arrays of floats
    rng = np.random.default_rng(43)
    x = np.linspace(-1.0, 2.0, 7)
    data = rng.standard_normal((3, 7, 4))
    data[:, :3, 1] = 0.0  # signed zeros in the products
    curve = HermiteCurve(x, *data)
    at = np.r_[x, -0.0, -1.5, 2.5, rng.uniform(-1.0, 2.0, 9)]
    for k in range(4):
        for arg in [*at.tolist(), at]:
            got = curve.evaluate(arg, k)
            assert len(got) == curve.values.shape[1]
            for c, value in enumerate(got):
                want = _hermite_component(curve, c, arg, k)
                assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


# a cone base with radii cos(0.3) and sin(0.3) and a phase in w
_CONE_BASE_AB = ("cos(0.3)*cos(v)", "cos(0.3)*sin(v)", "sin(0.3)*cos(w+0.5)",
                 "sin(0.3)*sin(w+0.5)")


def _mapping_case(name):
    """A chart that was a jet mapping and its per-component reference mapping."""
    if name.startswith("tangent_cone"):
        c = -0.4 if name == "tangent_cone c<0" else 0.25
        base = _CONE_BASE_AB if name == "tangent_cone ab" else catalog._DEFAULT_CONE_BASE
        return tangent_cone(c=c, y=list(base)), _tangent_cone_mapping(c, base)
    if name.startswith("curve_tube"):
        cd, sd = math.cos(0.5), math.sin(0.5)
        alpha = (("cos(w)", "sin(w)", "0", "0") if name == "curve_tube" else
                 (f"{cd}*cos(w)", f"{cd}*sin(w)", f"{sd}*cos(2*w)", f"{sd}*sin(2*w)"))
        m = curve_tube(c=0.5, alpha=alpha, samples=201)
        frame = build_normal_frame(alpha, catalog._padded(m.domain[2]), samples=201)
        return m, _curve_tube_mapping(0.5, alpha, frame)
    tag = name.removesuffix(" ODE")
    tu_box = {"so2_x_so2": ((0.0, TWO_PI), (0.0, TWO_PI)),
              "hypercylinder_rotational": ((0.0, TWO_PI), (-1.0, 1.0))}[tag]
    domain = ((0.2, 1.4), *tu_box)
    kappa, init = "0.4+0.1*s", (1.5, 0.4, 0.15)
    m = make_family(tag, kappa=kappa, init=init, domain=domain)
    profile = integrate_profile(kappa, catalog._padded(domain[0]), init, 1e-3)
    return m, _profile_mapping(_JET_CHARTS[tag], profile)


@pytest.mark.parametrize("name", ["tangent_cone", "tangent_cone c<0", "tangent_cone ab",
                                  "curve_tube", "curve_tube knot", "so2_x_so2 ODE",
                                  "hypercylinder_rotational ODE"])
def test_stacked_mapping_charts_match_their_per_component_mappings(name):
    # the profile and tube programs keep every operation and operand order of
    # their mappings, so each value agrees bit for bit, at one point and on a
    # stack, and each partial agrees with the mapping's tensor jets
    m, reference = _mapping_case(name)
    points = np.array(sample_points(m, np.random.default_rng(44), 12, margin=0.0))
    if not name.startswith("tangent_cone"):
        _assert_matches_reference(m, reference, points)
        return
    # the cone's normal sums its cofactors over shared 2x2 minors, where the
    # mapping summed the Leibniz terms of a cross product: each partial
    # within 1e-13 of max(1, |partial|)
    for p in points.tolist():
        for order in (1, 2, 3):
            got = evaluate_jets(m, p, order)
            ref = reference(tensor_jet_oracle, _tensor_seeds(p, order))
            for a, b in zip(got, ref, strict=True):
                b = tensor_jet_oracle.partial_rows(b, order)
                assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(1.0, np.abs(b)))
        values = reference(_FLOATS, p)
        assert np.allclose(evaluate_jets(m, p, 1)[:, 0], values,
                           rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("name", ["curve_tube", "so2_x_so2 ODE"])
def test_interpolant_charts_read_their_curve_once_per_evaluation(monkeypatch, name):
    # the tube's A and B come from one eight-component interpolant, and a
    # profile's f and g from one two-component one, each read once per
    # evaluation and derivative order: at a single point, on a stack, and by
    # the components' own program on float arrays, whose entries are the
    # partials' values
    calls = []
    evaluate = HermiteCurve.evaluate

    def counted(curve, x, k=0):
        calls.append((curve.values.shape[1], k))
        return evaluate(curve, x, k)

    monkeypatch.setattr(HermiteCurve, "evaluate", counted)
    m = _mapping_case(name)[0]  # compiled with the counting evaluate
    dim = 8 if name == "curve_tube" else 2
    points = np.array(sample_points(m, np.random.default_rng(45), 6, margin=0.0))
    for order in (1, 2, 3):
        for p in [points[0], points]:
            calls.clear()
            assert evaluate_jets(m, p, order).shape[-2] == 4
            assert sorted(calls) == [(dim, k) for k in range(order + 1)]
    calls.clear()
    values = Program(m.components)(dict(zip(m.var_names, points.T)))
    assert calls == [(dim, 0)]
    assert np.array_equal(values, evaluate_jets(m, points, 1)[:, :, 0].T)


def test_product_cylinder_base_validation():
    from gcrkit.expr import ExprSyntaxError

    with pytest.raises(CatalogError):
        product_cylinder(base=("s", "t"))          # needs three components
    with pytest.raises(ExprSyntaxError):
        product_cylinder(base=("s", "t", "u"))     # u is not a base variable


def test_hyperplane_shape():
    m = hyperplane(2.0)
    pg = point_geometry(m, (1.0, 1.0, 1.0))
    assert np.max(np.abs(pg.second_form)) < 1e-14
    assert math.isclose(abs(pg.position[3]), 2.0)
