"""Surface families: interpolants, profile/frame integration, and constructors."""

import math

import numpy as np
import pytest

from conftest import TWO_PI
from gcrkit.catalog import (
    CatalogError,
    FamilySpec,
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
from gcrkit.geometry import point_geometry, principal_data
from gcrkit.gcr import gcr_residual, position_angles
from gcrkit.jet import jet_variable


# -- quintic Hermite interpolation ---------------------------------------------------------


def test_hermite_reproduces_quintics_exactly():
    # a degree-5 polynomial is in the span of the basis: errors at roundoff
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.0, 2.0, -0.5, 0.25])
    x = np.linspace(-1.0, 2.0, 7)
    curve = HermiteCurve(
        x, poly(x)[:, None], poly.deriv(1)(x)[:, None], poly.deriv(2)(x)[:, None]
    )
    for xv in np.linspace(-1.0, 2.0, 40):
        assert math.isclose(curve.component(0, xv), poly(xv), rel_tol=1e-13, abs_tol=1e-13)
        j = curve.component(0, jet_variable(0, float(xv), 1, 3))
        assert math.isclose(j.grad[0], poly.deriv(1)(xv), rel_tol=1e-11, abs_tol=1e-11)
        assert math.isclose(j.hess[0, 0], poly.deriv(2)(xv), rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose(j.third[0, 0, 0], poly.deriv(3)(xv), rel_tol=1e-9, abs_tol=1e-9)


def test_hermite_interpolation_error_scales():
    # for sin, halving the knot spacing should shrink the error ~2^6
    errs = []
    for samples in (11, 21):
        x = np.linspace(0.0, 3.0, samples)
        curve = HermiteCurve(x, np.sin(x)[:, None], np.cos(x)[:, None], -np.sin(x)[:, None])
        dense = np.linspace(0.0, 3.0, 400)
        errs.append(max(abs(curve.component(0, v) - math.sin(v)) for v in dense))
    assert errs[0] / errs[1] > 30.0
    assert errs[1] < 1e-8


def test_hermite_validation():
    with pytest.raises(ValueError):
        HermiteCurve(np.array([0.0]), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        HermiteCurve(
            np.array([0.0, 0.0, 1.0]), np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1))
        )


def test_hermite_multidimensional_and_span():
    x = np.linspace(0.0, 1.0, 5)
    vals = np.column_stack([x**2, x**3])
    curve = HermiteCurve(x, vals, np.column_stack([2 * x, 3 * x**2]),
                         np.column_stack([2 * np.ones_like(x), 6 * x]))
    assert curve.dim == 2
    assert curve.span == (0.0, 1.0)
    out = curve.evaluate(0.37)
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
    for n, order in ((1, 1), (1, 3), (3, 2), (3, 3)):
        stack = jet_variable(0, at, n, order)
        for c in range(curve.dim):
            rows = curve.component(c, stack).c
            for row, v in zip(rows, at.tolist()):
                assert row.tobytes() == curve.component(c, jet_variable(0, v, n, order)).c.tobytes()
            singles = [curve.component(c, v) for v in at.tolist()]
            assert curve.component(c, at).tobytes() == np.array(singles).tobytes()


# -- profile integration ---------------------------------------------------------------------


def test_zero_curvature_is_a_straight_line():
    prof = integrate_profile(0.0, (0.0, 2.0), init=(0.3, 0.4, 0.6), step=1e-2)
    for s in (0.1, 0.9, 1.7):
        assert math.isclose(prof.f_at(s), 0.3 + s * math.cos(0.6), abs_tol=1e-12)
        assert math.isclose(prof.g_at(s), 0.4 + s * math.sin(0.6), abs_tol=1e-12)
    assert prof.unit_speed_error() < 1e-14


def test_unit_circle_profile():
    prof = integrate_profile(1.0, (0.0, 3.0), step=1e-3)
    for s in np.linspace(0.0, 3.0, 17):
        assert abs(prof.f_at(float(s)) - math.sin(s)) < 1e-9
        assert abs(prof.g_at(float(s)) - (1.0 - math.cos(s))) < 1e-9


def test_variable_curvature_against_quadrature():
    # kappa(s) = s: angle = s^2/2, so f = int cos(u^2/2) du (a Fresnel-type
    # integral); dense trapezoid quadrature is the independent oracle
    prof = integrate_profile("s", (0.0, 1.5), step=5e-4)
    u = np.linspace(0.0, 1.5, 3001)
    f_ref = np.trapezoid(np.cos(u**2 / 2.0), u)
    g_ref = np.trapezoid(np.sin(u**2 / 2.0), u)
    assert abs(prof.f_at(1.5) - f_ref) < 1e-6
    assert abs(prof.g_at(1.5) - g_ref) < 1e-6


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
        integrate_profile(1.0, (0.0, math.inf), step=1.0)
    # initial data must be three finite numbers, and a boolean is no curvature
    for init in ((math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0), (True, 0.0, 0.0)):
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


# -- normal frames of spherical curves -------------------------------------------------------


GREAT_CIRCLE = ("cos(w)", "sin(w)", "0", "0")


def test_great_circle_frame_is_constant():
    frame = build_normal_frame(GREAT_CIRCLE, (0.0, TWO_PI), samples=201)
    assert frame.gram_error < 1e-9
    for w in np.linspace(0.1, TWO_PI - 0.1, 9):
        a = np.array(frame.a_curve.evaluate(float(w)))
        b = np.array(frame.b_curve.evaluate(float(w)))
        assert np.allclose(a, [0, 0, 1, 0], atol=1e-9)
        assert np.allclose(b, [0, 0, 0, 1], atol=1e-9)


def test_torus_knot_frame_constraints():
    cd, sd = math.cos(0.5), math.sin(0.5)
    alpha = (f"{cd}*cos(w)", f"{cd}*sin(w)", f"{sd}*cos(2*w)", f"{sd}*sin(2*w)")
    frame = build_normal_frame(alpha, (0.0, TWO_PI), samples=801)
    assert frame.gram_error < 1e-9
    for w in np.linspace(0.05, TWO_PI - 0.05, 11):
        env = {"w": jet_variable(0, float(w), 1, 1)}
        from gcrkit.expr import eval_expr, parse_expr

        js = [eval_expr(parse_expr(e, ("w",)), env) for e in alpha]
        av = np.array([j.value for j in js])
        dv = np.array([j.grad[0] for j in js])
        a = np.array(frame.a_curve.evaluate(float(w)))
        b = np.array(frame.b_curve.evaluate(float(w)))
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
        make_family(FamilySpec("special_sqrt2"), extra=2.0)


def test_make_family_with_spec_and_kappa_profile():
    spec = FamilySpec("so2_x_so2", {
        "kappa": 0.4,
        "init": (1.5, 0.4, 0.1),
        "domain": ((0.0, 1.5), (0.0, TWO_PI), (0.0, TWO_PI)),
    })
    m = make_family(spec)
    pg = point_geometry(m, (0.7, 1.0, 2.0))
    pd = principal_data(pg)
    pa = position_angles(pg)
    res = gcr_residual(pa, pd, pg)
    assert res.primary < 1e-9


def test_so2_x_so2_positive_for_arbitrary_profiles():
    m = so2_x_so2(f="2+cos(s)+0.2*s", g="1.1+0.4*sin(s)")
    p = (1.5, 0.9, 2.3)
    pg = point_geometry(m, p)
    res = gcr_residual(position_angles(pg), principal_data(pg), pg)
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


def test_cone_constructor_validation():
    with pytest.raises(CatalogError):
        conical_hypercylinder(0.0, 0.0)


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


def test_tangent_developable_cylinder_is_position_principal():
    m = tangent_developable_cylinder(r=1.0, a=0.8)
    rng = np.random.default_rng(21)
    lo = np.array([d[0] for d in m.domain])
    hi = np.array([d[1] for d in m.domain])
    for _ in range(5):
        p = tuple(lo + (hi - lo) * (0.15 + 0.7 * rng.random(3)))
        pg = point_geometry(m, p)
        res = gcr_residual(position_angles(pg), principal_data(pg), pg)
        assert res.primary < 1e-8
    with pytest.raises(CatalogError):
        tangent_developable_cylinder(a=1.2)


def test_profile_backed_families_match_expression_route():
    # same circle profile by ODE and in closed form: geometry should agree
    s0 = -0.2
    prof = integrate_profile(
        1.0, (s0, 1.8),
        init=(math.cos(s0), math.sin(s0), s0 + math.pi / 2),
        step=1e-3,
    )
    m_ode = hypercylinder_rotational(
        profile=prof, domain=((0.0, 1.5), (0.0, TWO_PI), (-1.0, 1.0))
    )
    m_expr = hypercylinder_rotational(
        f="cos(s)", g="sin(s)", domain=((0.0, 1.5), (0.0, TWO_PI), (-1.0, 1.0))
    )
    for p in [(0.3, 1.0, 0.2), (1.1, 4.0, -0.5)]:
        a = point_geometry(m_ode, p)
        b = point_geometry(m_expr, p)
        assert np.allclose(a.position, b.position, atol=1e-9)
        assert np.allclose(a.second_form, b.second_form, atol=1e-7)


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
