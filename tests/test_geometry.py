"""Metric/normal/shape pipeline against hand formulas and independent solvers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_family, sample_points
from fd_oracle import complete_third_order_fd, frame_connection_forms_fd
from gcrkit.catalog import (
    curve_tube,
    hyperplane,
    hypercylinder_rotational,
    rotational,
    so2_x_so2,
    special_sqrt2,
    tangent_cone,
    tangent_developable_cylinder,
)
from gcrkit.geometry import (
    Immersion,
    NearUmbilicError,
    OutOfDomainError,
    SingularPointError,
    codazzi_residual,
    codazzi_residual_from_bundle,
    cross_jets,
    curvature_invariants,
    derivative_bundle,
    evaluate_jets,
    frame_connection_forms,
    gauss_residual,
    normal_jets,
    point_geometry,
    principal_data,
)
from gcrkit.jet import finite_difference_jet, jet_constant, jet_variable


def unit_sphere():
    return Immersion.from_exprs(
        "sphere",
        ("cos(s)*cos(t)", "cos(s)*sin(t)", "sin(s)"),
        ("s", "t"),
        ((-1.2, 1.2), (0.0, 6.283185307179586)),
    )


# -- first fundamental form against hand formulas ------------------------------------------


def test_sphere_metric_and_normal():
    m = unit_sphere()
    s, t = 0.4, 1.0
    pg = point_geometry(m, (s, t))
    assert np.allclose(pg.metric, np.diag([1.0, math.cos(s) ** 2]), atol=1e-14)
    assert math.isclose(pg.det_metric, math.cos(s) ** 2, rel_tol=1e-13)
    # unit normal, orthogonal to the tangent plane, here radial
    assert math.isclose(pg.normal @ pg.normal, 1.0, abs_tol=1e-12)
    assert np.max(np.abs(pg.jac.T @ pg.normal)) < 1e-12
    assert np.allclose(np.abs(pg.normal), np.abs(pg.position), atol=1e-12)


def test_surface_of_revolution_metric_hand_form():
    m = hypercylinder_rotational()  # f = 2+cos s, g = sin s over (s,t,u)
    s = 0.9
    pg = point_geometry(m, (s, 1.3, 0.4))
    f = 2 + math.cos(s)
    fp, gp = -math.sin(s), math.cos(s)
    expect = np.diag([fp * fp + gp * gp, f * f, 1.0])
    assert np.allclose(pg.metric, expect, atol=1e-12)


def test_so2_x_so2_metric_hand_form():
    m = so2_x_so2(f="2+cos(s)", g="1.5+0.3*sin(s)")
    s = 1.1
    pg = point_geometry(m, (s, 0.7, 2.0))
    f, g = 2 + math.cos(s), 1.5 + 0.3 * math.sin(s)
    fp, gp = -math.sin(s), 0.3 * math.cos(s)
    expect = np.diag([fp * fp + gp * gp, f * f, g * g])
    assert np.allclose(pg.metric, expect, atol=1e-12)


def test_orientation_convention():
    # the stacked frame (columns of jac, then N) is positively oriented
    for m, p in [
        (unit_sphere(), (0.3, 2.0)),
        (so2_x_so2(), (1.2, 0.8, 2.4)),
        (special_sqrt2(), (1.4, 0.5, 3.0)),
    ]:
        pg = point_geometry(m, p)
        frame = np.column_stack([pg.jac, pg.normal])
        assert np.linalg.det(frame) > 0


def test_cross_jets_orientation_identity():
    # <cross(v_1..v_n), w> = det[v_1 ... v_n w] for jets reduced to floats
    rng = np.random.default_rng(2)
    for dim in (3, 4):
        cols = rng.standard_normal((dim, dim - 1))
        w = rng.standard_normal(dim)
        jcols = [
            [jet_constant(cols[r, c], 2, 1) for r in range(dim)]
            for c in range(dim - 1)
        ]
        crossed = cross_jets(jcols)
        lhs = sum(crossed[r].value * w[r] for r in range(dim))
        rhs = np.linalg.det(np.column_stack([cols, w]))
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_normal_jets_match_fd_of_normal():
    m = so2_x_so2()
    p = (1.0, 0.9, 1.7)
    jets = evaluate_jets(m, p, order=2)
    njets = normal_jets(jets)

    def normal_component(q, c):
        pg = point_geometry(m, tuple(q), check_domain=False)
        return pg.normal[c]

    for c in range(4):
        fd = finite_difference_jet(lambda q, c=c: normal_component(q, c), p, order=1)
        assert np.allclose(njets[c].grad, fd.grad, atol=1e-8)


# -- second fundamental form, shape operator, eigensolver ----------------------------------


def test_second_form_symmetric_and_self_adjoint():
    rng = np.random.default_rng(4)
    for tag in ("so2_x_so2", "rotational", "curve_tube", "tangent_cone"):
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 6):
            pg = point_geometry(m, p)
            assert np.max(np.abs(pg.second_form - pg.second_form.T)) < 1e-12
            gs = pg.metric @ pg.shape
            assert np.max(np.abs(gs - gs.T)) < 1e-10


def test_shape_reconstruction():
    rng = np.random.default_rng(6)
    m = random_family("so2_x_so2", rng)
    for p in sample_points(m, rng, 8):
        pg = point_geometry(m, p)
        assert np.max(np.abs(pg.metric @ pg.shape - pg.second_form)) < 1e-8


def test_eigenvalues_match_characteristic_polynomial():
    # independent oracle: roots of det(h - k g) via numpy's companion solver
    rng = np.random.default_rng(8)
    for tag in ("so2_x_so2", "rotational", "conical_hypercylinder", "curve_tube"):
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 6):
            pg = point_geometry(m, p)
            pd = principal_data(pg)
            g, h = pg.metric, pg.second_form
            # det(h - k g) expanded via the generalized eigvals of g^{-1} h
            roots = np.sort(np.linalg.eigvals(np.linalg.solve(g, h)).real)
            assert np.max(np.abs(np.sort(pd.curvatures) - roots)) < 1e-9


def test_principal_directions_g_orthonormal_and_eigen():
    rng = np.random.default_rng(10)
    m = random_family("rotational", rng)
    for p in sample_points(m, rng, 6):
        pg = point_geometry(m, p)
        pd = principal_data(pg)
        v = pd.directions
        assert np.allclose(v.T @ pg.metric @ v, np.eye(3), atol=1e-10)
        for i in range(3):
            res = pg.shape @ v[:, i] - pd.curvatures[i] * v[:, i]
            assert np.max(np.abs(res)) < 1e-9
        assert np.all(np.diff(pd.curvatures) >= -1e-14)  # ascending


def test_principal_direction_signs_deterministic():
    pg = point_geometry(so2_x_so2(), (1.2, 0.8, 2.4))
    pd = principal_data(pg)
    for i in range(3):
        lead = int(np.argmax(np.abs(pd.directions[:, i])))
        assert pd.directions[lead, i] > 0


def test_gap_and_distinct_count():
    pg = point_geometry(special_sqrt2(), (1.3, 0.8, 2.1))
    pd = principal_data(pg)
    k = 1.0 / (2.0 * 1.3)
    assert np.allclose(pd.curvatures, [-k, 0.0, k], atol=1e-12)
    assert pd.distinct_count == 3
    assert math.isclose(pd.gaps, k, rel_tol=1e-10)


def test_curvature_invariants_hand_values():
    ci = curvature_invariants(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(ci.sym, [6.0, 11.0, 6.0], atol=1e-14)
    assert np.allclose(ci.mean, [2.0, 11.0 / 3.0, 6.0], atol=1e-14)
    assert ci.gauss_kronecker == 6.0
    ci2 = curvature_invariants(np.array([2.0, -1.0]))
    assert np.allclose(ci2.sym, [1.0, -2.0], atol=1e-15)
    assert np.allclose(ci2.mean, [0.5, -2.0], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    k=st.lists(st.floats(-3, 3), min_size=2, max_size=3),
)
def test_invariants_match_vieta(k):
    # multiplying out prod(x + k_i) is an independent route to the sym funcs
    ci = curvature_invariants(np.array(k))
    poly = np.array([1.0])
    for ki in k:
        poly = np.convolve(poly, [1.0, ki])
    assert np.allclose(ci.sym, poly[1:], rtol=1e-12, atol=1e-12)


# -- curvature tensor: Gauss and Codazzi --------------------------------------------------


def test_identities_hold_on_random_families():
    rng = np.random.default_rng(12)
    for tag in ("so2_x_so2", "tangent_cone", "product_cylinder"):
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 5):
            assert codazzi_residual(m, p) < 1e-6
            assert gauss_residual(m, p) < 1e-6


def test_corrupted_second_form_breaks_codazzi():
    m = so2_x_so2()
    b = derivative_bundle(m, (1.1, 0.9, 2.2))
    clean = codazzi_residual_from_bundle(b)
    bad = b.pg.second_form.copy()
    bad[0, 0] += 0.1
    assert clean < 1e-10
    assert codazzi_residual_from_bundle(b, second_form=bad) > 1e-3


def test_sphere_sectional_curvature_sign_and_value():
    for r in (1.0, 2.0):
        m = rotational(
            f=f"{r}*sin(s/{r})", g=f"{r}*cos(s/{r})",
            domain=((-0.7 * r, 0.7 * r), (0.35, 2.79), (0.0, 6.283185307179586)),
        )
        b = derivative_bundle(m, (0.3 * r, 1.2, 2.0))
        rng = np.random.default_rng(14)
        for _ in range(4):
            u, v = rng.standard_normal((2, 3))
            assert math.isclose(b.sectional_curvature(u, v), 1.0 / r**2, rel_tol=1e-9)


def test_hyperplane_is_flat():
    b = derivative_bundle(hyperplane(0.5), (0.8, 1.1, 0.7))
    assert np.max(np.abs(b.riemann)) < 1e-12
    pd = principal_data(b.pg)
    assert np.max(np.abs(pd.curvatures)) < 1e-12


def test_riemann_symmetries():
    m = so2_x_so2()
    b = derivative_bundle(m, (1.3, 0.6, 1.9))
    r = b.riemann
    assert np.max(np.abs(r + np.einsum("jikl->ijkl", r))) < 1e-10
    assert np.max(np.abs(r + np.einsum("ijlk->ijkl", r))) < 1e-10
    assert np.max(np.abs(r - np.einsum("klij->ijkl", r))) < 1e-10


# -- exact third order on mapping-backed charts ---------------------------------------------


def test_order3_completion_close_to_fd():
    m = tangent_cone()  # re-seeds its base one order higher: order 3 is exact
    p = (1.2, 0.7, 1.0)
    jets = evaluate_jets(m, p, order=3)

    def comp(q, c):
        return evaluate_jets(m, tuple(q), order=1, check_domain=False)[c].value

    for c in range(4):
        fd = finite_difference_jet(lambda q, c=c: comp(q, c), p, order=3)
        assert np.max(np.abs(jets[c].third - fd.third)) < 1e-5


def test_tangent_cone_order3_jets_match_fd_oracle():
    rng = np.random.default_rng(33)
    for m in (tangent_cone(), random_family("tangent_cone", rng)):
        for p in sample_points(m, rng, 4):
            exact = evaluate_jets(m, p, order=3)
            oracle = complete_third_order_fd(m, p)
            for a, b in zip(exact, oracle):
                assert a.value == b.value
                assert np.array_equal(a.grad, b.grad)
                assert np.array_equal(a.hess, b.hess)
                scale = max(1.0, float(np.max(np.abs(b.third))))
                assert np.max(np.abs(a.third - b.third)) <= 1e-7 * scale


def test_order3_evaluation_calls_mapping_once_per_point():
    # no stencil: one order-3 request is one evaluation at the point itself
    rng = np.random.default_rng(34)
    for base in (tangent_cone(), curve_tube(), tangent_developable_cylinder()):
        seen = []

        def counting(seeds, base=base, seen=seen):
            seen.append((seeds[0].order, tuple(s.value for s in seeds)))
            return base.mapping(seeds)

        m = dataclasses.replace(base, mapping=counting)
        points = sample_points(m, rng, 3)
        for p in points:
            evaluate_jets(m, p, order=3)
            derivative_bundle(m, p)
        assert seen == [(3, p) for p in points for _ in range(2)]


# -- failure modes -------------------------------------------------------------------------


def test_singular_point_raises_with_diagnostics():
    m = Immersion.from_exprs(
        "collapsed", ("s", "s", "0"), ("s", "t"), ((0.0, 1.0), (0.0, 1.0))
    )
    with pytest.raises(SingularPointError) as err:
        point_geometry(m, (0.5, 0.5))
    assert err.value.det_g < 1e-12


def test_out_of_domain_check_and_escape():
    m = unit_sphere()
    with pytest.raises(OutOfDomainError):
        point_geometry(m, (9.0, 0.0))
    pg = point_geometry(m, (1.25, 0.0), check_domain=False)
    assert math.isclose(pg.metric[1, 1], math.cos(1.25) ** 2, rel_tol=1e-12)


def test_immersion_validation():
    with pytest.raises(ValueError):
        Immersion.from_exprs("bad", ("s", "t"), ("s", "t"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Immersion.from_exprs(
            "bad", ("s", "t", "0", "0", "0"), ("s", "t", "u"),
            ((0, 1), (0, 1), (0, 1)),
        )


# -- frame connection forms ----------------------------------------------------------------


def test_connection_forms_antisymmetric():
    m = special_sqrt2()
    p = (1.2, 0.7, 2.1)
    omega = frame_connection_forms(m, p)
    assert omega.shape == (3, 3, 3)
    assert np.max(np.abs(omega + np.transpose(omega, (1, 0, 2)))) < 1e-6


def test_connection_forms_match_fd_oracle():
    rng = np.random.default_rng(19)
    checked = 0
    for tag in ("so2_x_so2", "tangent_cone", "curve_tube", "special_sqrt2", "product_cylinder"):
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 3):
            if principal_data(point_geometry(m, p)).gaps < 1e-2:
                continue
            omega = frame_connection_forms(m, p)
            assert np.max(np.abs(omega - frame_connection_forms_fd(m, p))) < 1e-6, tag
            checked += 1
    assert checked >= 10


def test_connection_forms_near_umbilic_guard():
    m = rotational(
        f="sin(s)", g="cos(s)",
        domain=((-0.7, 0.7), (0.35, 2.79), (0.0, 6.283185307179586)),
    )
    with pytest.raises(NearUmbilicError):
        frame_connection_forms(m, (0.2, 1.1, 2.0))
    omega = frame_connection_forms(m, (0.2, 1.1, 2.0), check_gaps=False)
    assert omega.shape == (3, 3, 3)
