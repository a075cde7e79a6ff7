"""Metric/normal/shape pipeline against hand formulas and independent solvers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_family, sample_points
from fd_oracle import complete_third_order_fd, finite_difference_jet
from gcrkit import geometry
from gcrkit.catalog import (
    FAMILY_TAGS,
    curve_tube,
    hyperplane,
    hypercylinder_rotational,
    make_family,
    rotational,
    so2_x_so2,
    special_sqrt2,
    tangent_cone,
)
from gcrkit.geometry import (
    Immersion,
    OutOfDomainError,
    SingularPointError,
    codazzi_residual_from_bundle,
    curvature_invariants,
    derivative_bundle,
    evaluate_jets,
    gauss_residual_from_bundle,
    point_geometry,
    principal_data,
)
from gcrkit.jet import derivative_tensor


def unit_sphere():
    return Immersion.from_exprs(
        "sphere",
        ("cos(s)*cos(t)", "cos(s)*sin(t)", "sin(s)"),
        ("s", "t"),
        ((-1.2, 1.2), (0.0, 6.283185307179586)),
    )


# -- first fundamental form against hand formulas ------------------------------------------


@pytest.mark.parametrize(
    "components,var_names,domain,message",
    [
        (("s", "0"), ("s",), [(0, 1)], "chart dimension must be 2 or 3, got 1"),
        (("s", "t", "0"), ("s", "t"), [(0, 1)],
         "domain box must have one interval per chart variable"),
        (("s", "t", "0"), ("s", "t"), [(0, 1), (1, 1)], "empty domain interval [1.0, 1.0]"),
        (("s", "t", "s*t"), ("s", "t"), [(0, math.inf), (0, 1)],
         "domain interval [0.0, inf] needs finite bounds and width"),
        (("s", "t", "s*t"), ("s", "t"), [(0, 1), (-1e308, 1e308)],
         "domain interval [-1e+308, 1e+308] needs finite bounds and width"),
    ],
)
def test_immersion_refuses_a_malformed_chart(components, var_names, domain, message):
    with pytest.raises(ValueError) as err:
        Immersion.from_exprs("bad", components, var_names, domain)
    assert str(err.value) == message


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
    # <cross(v_1..v_n), w> = det[v_1 ... v_n w] at each of a stack of points
    # on the last axis, and each point's cross product is its own, bit for bit
    rng = np.random.default_rng(2)
    for dim in (3, 4):
        cols = rng.standard_normal((dim, dim - 1, 5))
        w = rng.standard_normal((dim, 5))
        crossed = geometry._cross_rows(cols)
        for i in range(5):
            lhs = crossed[:, i] @ w[:, i]
            rhs = np.linalg.det(np.column_stack([cols[..., i], w[:, i]]))
            assert math.isclose(lhs, rhs, rel_tol=1e-12)
            one = geometry._cross_rows(cols[..., i : i + 1].copy())
            assert one[:, 0].tobytes() == crossed[:, i].tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_order0_cross_product_is_the_determinant(k):
    # det[cols | w] = <cross, w>; a matrix axis in front of the points
    # crosses each matrix as if alone, bit for bit
    rng = np.random.default_rng(30 + k)
    for _ in range(20):
        cols = rng.standard_normal((k + 1, k))
        w = rng.standard_normal(k + 1)
        v = geometry._cross_rows(cols[:, :, None])[:, 0]
        assert math.isclose(v @ w, np.linalg.det(np.column_stack([cols, w])),
                            rel_tol=1e-12, abs_tol=1e-14)
        pair = np.stack([cols, 2.0 * cols], axis=2)[..., None]
        both = geometry._cross_rows(pair)
        assert both.shape == (k + 1, 2, 1)
        assert np.array_equal(both[:, 0, 0], v)


def test_normal_jets_match_fd_of_normal():
    # the self-test's dN, from second partials, against differences of N
    m = so2_x_so2()
    p = (1.0, 0.9, 1.7)
    grads = derivative_bundle(m, p).dnormal.T  # [c, i] -> d_i N_c

    def normal_component(q, c):
        pg = point_geometry(m, tuple(q), check_domain=False)
        return pg.normal[c]

    for c in range(4):
        _, fd_grad, _, _ = finite_difference_jet(
            lambda q, c=c: normal_component(q, c), p, order=1)
        assert np.allclose(grads[c], fd_grad, atol=1e-8)


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
            bundle = derivative_bundle(m, p)
            assert codazzi_residual_from_bundle(bundle) < 1e-6
            assert gauss_residual_from_bundle(bundle) < 1e-6


def test_corrupted_second_form_breaks_codazzi():
    m = so2_x_so2()
    b = derivative_bundle(m, (1.1, 0.9, 2.2))
    clean = codazzi_residual_from_bundle(b)
    bad = b.pg.second_form.copy()
    bad[0, 0] += 0.1
    corrupted = dataclasses.replace(b, pg=dataclasses.replace(b.pg, second_form=bad))
    assert clean < 1e-10
    assert codazzi_residual_from_bundle(corrupted) > 1e-3


def test_corrupted_normal_derivative_breaks_codazzi(monkeypatch):
    # Codazzi checks dN from second partials, independent of the shape
    # operator: one entry of dN off by 1% must show, so the self-test cannot
    # pass on a wrong normal derivative
    m, p = so2_x_so2(), (1.1, 0.9, 2.2)
    assert codazzi_residual_from_bundle(derivative_bundle(m, p)) < 1e-10
    exact = geometry._normal_derivative

    def corrupted(jac, sec, normal):
        dn = exact(jac, sec, normal).copy()
        dn[np.unravel_index(np.argmax(np.abs(dn)), dn.shape)] *= 1.01
        return dn

    monkeypatch.setattr(geometry, "_normal_derivative", corrupted)
    assert codazzi_residual_from_bundle(derivative_bundle(m, p)) > 1e-6


def test_corrupted_second_form_breaks_gauss():
    m = so2_x_so2()
    b = derivative_bundle(m, (1.1, 0.9, 2.2))
    assert gauss_residual_from_bundle(b) < 1e-10
    bad = b.pg.second_form.copy()
    bad[0, 0] += 0.1
    corrupted = dataclasses.replace(b, pg=dataclasses.replace(b.pg, second_form=bad))
    assert gauss_residual_from_bundle(corrupted) > 1e-3


def test_corrupted_metric_derivative_breaks_gauss(monkeypatch):
    # the Riemann tensor reads d_k g_ij through the Christoffel symbols and
    # their derivatives: its largest entry off by 1%, kept symmetric in i and
    # j, must show against h's side of Gauss's equation
    m, p = so2_x_so2(), (1.1, 0.9, 2.2)
    assert gauss_residual_from_bundle(derivative_bundle(m, p)) < 1e-10
    exact = geometry._dmetric

    def corrupted(jac, sec):
        dg = exact(jac, sec).copy()
        k, i, j = np.unravel_index(np.argmax(np.abs(dg)), dg.shape)
        dg[k, i, j] *= 1.01
        dg[k, j, i] = dg[k, i, j]
        return dg

    monkeypatch.setattr(geometry, "_dmetric", corrupted)
    assert gauss_residual_from_bundle(derivative_bundle(m, p)) > 1e-6


# charts whose geometry assembles at the point but whose self-test overflows:
# the metric of exp(700 s) near s = 0.5, and a bump of 1e160 on a saddle
_OVERFLOWING_SELF_TEST = {
    "steep_metric": (("s", "t", "u", "exp(700*s)"), ((0.3, 0.7), (0.0, 1.0), (0.0, 1.0)),
                     (0.49, 0.5, 0.5)),
    "marked_saddle": (("s*(1-t)/2", "t", "(s+1)^2*t/2+1e160*exp(-700*((s-1)^2+(t-1)^2))"),
                      ((-1.0, 1.0), (-1.0, 1.0)), (1.0, 1.0)),
}


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
@pytest.mark.parametrize("name", sorted(_OVERFLOWING_SELF_TEST))
def test_self_test_overflow_raises_in_any_error_state(name, state):
    # under the caller's "ignore", the Codazzi residual read 0.0 and the Gauss
    # one NaN, and max(0.0, nan) = 0.0 passed as a clean point
    components, domain, p = _OVERFLOWING_SELF_TEST[name]
    m = Immersion.from_exprs(name, components, ("s", "t", "u")[: len(p)], domain)
    with np.errstate(all=state), pytest.raises(FloatingPointError, match="overflow"):
        derivative_bundle(m, p)


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_identity_residual_overflow_raises_in_any_error_state(state):
    b = derivative_bundle(so2_x_so2(), (1.1, 0.9, 2.2))
    huge = np.full_like(b.pg.second_form, 1e308)
    b = dataclasses.replace(b, pg=dataclasses.replace(b.pg, second_form=huge))
    for residual in (codazzi_residual_from_bundle, gauss_residual_from_bundle):
        with np.errstate(all=state), pytest.raises(FloatingPointError, match="overflow"):
            residual(b)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_normal_derivative_matches_weingarten(tag):
    # the self-test's dN comes from second partials, Weingarten's
    # d_i N = -S^k_i x_k from the shape operator: two routes to one figure
    rng = np.random.default_rng(46)
    m = random_family(tag, rng)
    for p in sample_points(m, rng, 8):
        b = derivative_bundle(m, p)
        weingarten = -(b.pg.jac @ b.pg.shape).T
        assert b.dnormal.shape == weingarten.shape == (m.n, m.n + 1)
        assert np.max(np.abs(b.dnormal - weingarten)) <= 1e-10 * np.max(np.abs(weingarten))


def _repeat_normal_derivative(jac, sec, normal):
    """d_i N by the construction _normal_derivative used before it gathered
    its Leibniz factors at once, kept as the reference for it: n*n + 1 copies
    of the tangents, copy i*n + j with column j replaced by x_ji, crossed."""
    n = jac.shape[1]
    ij = np.arange(n * n)
    matrices = np.repeat(jac[:, :, None], n * n + 1, axis=2)
    matrices[:, ij % n, ij] = sec[:, ij % n, ij // n]
    crossed = geometry._cross_rows(matrices)
    v, dv = crossed[:, -1], crossed[:, :-1].reshape(n + 1, n, n).sum(axis=2).T
    return (dv - np.outer(dv @ normal, normal)) / math.sqrt(v @ v)


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_normal_derivative_matches_its_repeat_reference(tag):
    m = make_family(tag)
    for p in sample_points(m, np.random.default_rng(47), 6):
        pg = point_geometry(m, p, order=3)
        dn = geometry._normal_derivative(pg.jac, pg.second, pg.normal)
        ref = _repeat_normal_derivative(pg.jac, pg.second, pg.normal)
        assert dn.shape == ref.shape == (m.n, m.n + 1)
        assert np.max(np.abs(dn - ref)) <= 1e-13 * np.max(np.abs(ref))


def _einsum_tail(bundle):
    """Gamma^l_ij, d_i h_jk, d_k Gamma^l_ij, the Riemann tensor and both
    residuals of ``bundle`` by the einsums derivative_bundle ran before its
    tensor algebra became matmuls and transposes, kept as the reference for
    them."""
    pg = bundle.pg
    ginv, gamma = geometry._christoffel(pg)
    dg, jac, sec, thr, g, h = pg.dmetric, pg.jac, pg.second, pg.third, pg.metric, pg.second_form
    a = np.einsum("imj->mij", dg) + np.einsum("jmi->mij", dg) - dg
    d2g = (
        np.einsum("ckli,cj->klij", thr, jac)
        + np.einsum("cli,ckj->klij", sec, sec)
        + np.einsum("cki,clj->klij", sec, sec)
        + np.einsum("ci,cklj->klij", jac, thr)
    )
    da = np.einsum("kimj->kmij", d2g) + np.einsum("kjmi->kmij", d2g) - d2g
    dginv = -np.einsum("la,kab,bm->klm", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("klm,mij->klij", dginv, a) + np.einsum("lm,kmij->klij", ginv, da)
    )
    rup = (
        np.einsum("iljk->ijkl", dgamma)
        - np.einsum("jlik->ijkl", dgamma)
        + np.einsum("mjk,lim->ijkl", gamma, gamma)
        - np.einsum("mik,ljm->ijkl", gamma, gamma)
    )
    riemann = np.einsum("ijkm,ml->ijkl", rup, g)
    dh = np.einsum("cijk,c->ijk", thr, pg.normal) + np.einsum("cjk,ic->ijk", sec, bundle.dnormal)
    codazzi = (
        dh
        - np.einsum("jik->ijk", dh)
        - np.einsum("mik,jm->ijk", gamma, h)
        + np.einsum("mjk,im->ijk", gamma, h)
    )
    rhs = np.einsum("jk,il->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)
    return gamma, dh, dgamma, riemann, float(np.max(np.abs(codazzi))), float(
        np.max(np.abs(riemann - rhs)))


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_self_test_tail_matches_its_einsum_reference(tag):
    # the matmul tail sums in another order than einsum, so each figure
    # agrees to 1e-13 of the largest term that enters it: a flat chart's
    # Riemann tensor is rounding alone, and so is every residual
    def biggest(x):
        return float(np.max(np.abs(x)))

    m = make_family(tag)
    for p in sample_points(m, np.random.default_rng(45), 6):
        b = derivative_bundle(m, p)
        gamma, dh, dgamma, riemann, codazzi, gauss = _einsum_tail(b)
        assert b.christoffel.tobytes() == gamma.tobytes()
        h_size = biggest(b.pg.second_form)
        assert biggest(b.dsecond_form - dh) <= 1e-13 * (
            biggest(b.pg.third) + biggest(b.pg.second) * biggest(b.dnormal))
        assert biggest(b.dchristoffel - dgamma) <= 1e-13 * biggest(dgamma)
        r_size = (biggest(dgamma) + biggest(gamma) ** 2) * biggest(b.pg.metric)
        assert biggest(b.riemann - riemann) <= 1e-13 * r_size
        c_size = biggest(dh) + biggest(gamma) * h_size
        assert abs(codazzi_residual_from_bundle(b) - codazzi) <= 1e-13 * c_size
        assert abs(gauss_residual_from_bundle(b) - gauss) <= 1e-13 * (r_size + h_size**2)


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


@pytest.mark.parametrize("scale", [2.0, 0.0])
def test_sectional_curvature_refuses_vectors_that_span_no_plane(scale):
    b = derivative_bundle(so2_x_so2(), (1.0, 0.7, 0.6))
    u = np.array([0.4, -1.1, 0.7])
    with pytest.raises(ValueError, match="span no plane"):
        b.sectional_curvature(u, scale * u)


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


# -- exact third order on the cone and the tube ----------------------------------------------


def test_order3_completion_close_to_fd():
    m = tangent_cone()  # its normal is a tree of the base's derivatives: order 3 is exact
    p = (1.2, 0.7, 1.0)
    third = derivative_tensor(evaluate_jets(m, p, order=3), m.n, 3)

    def comp(q, c):
        return evaluate_jets(m, tuple(q), order=1, check_domain=False)[c, 0]

    for c in range(4):
        _, _, _, fd_third = finite_difference_jet(lambda q, c=c: comp(q, c), p, order=3)
        assert np.max(np.abs(third[c] - fd_third)) < 1e-5


def test_tangent_cone_order3_jets_match_fd_oracle():
    rng = np.random.default_rng(33)
    for m in (tangent_cone(), random_family("tangent_cone", rng)):
        for p in sample_points(m, rng, 4):
            exact = evaluate_jets(m, p, order=3)
            oracle = complete_third_order_fd(m, p)
            low = math.comb(m.n + 2, 2)  # the order-2 partials, exact in both
            assert exact[:, :low].tobytes() == oracle[:, :low].tobytes()
            for a, b in zip(exact[:, low:], oracle[:, low:]):
                scale = max(1.0, float(np.max(np.abs(b))))
                assert np.max(np.abs(a - b)) <= 1e-7 * scale


def test_order3_evaluation_runs_the_program_once_per_point():
    # no stencil: one order-3 request is one evaluation at the point itself
    rng = np.random.default_rng(34)
    for m in (tangent_cone(), curve_tube()):
        seen = []

        def counting(order, compiled=m._program, seen=seen):
            program = compiled(order)

            def run(env):
                seen.append((order, tuple(env.values())))
                return program(env)

            return run

        object.__setattr__(m, "_program", counting)
        points = sample_points(m, rng, 3)
        for p in points:
            evaluate_jets(m, p, order=3)
            derivative_bundle(m, p)
        assert seen == [(3, tuple(p)) for p in points for _ in range(2)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("tag", [*FAMILY_TAGS, "so2_x_so2 ODE profile"])
def test_stacked_jets_and_geometry_match_each_point(tag, order):
    # one evaluation at a stack of points gives every row the jets and the
    # assembled geometry of its point alone, bit for bit
    if tag in FAMILY_TAGS:
        m = make_family(tag)
    else:
        m = make_family("so2_x_so2", kappa="0.4+0.1*s", init=(1.5, 0.4, 0.15),
                        domain=((0.0, 1.6), (0.0, 2 * math.pi), (0.0, 2 * math.pi)))
    points = np.array(sample_points(m, np.random.default_rng(35), 9, margin=0.0))
    stacked = evaluate_jets(m, points, order=order)
    pg = geometry._assemble(points, stacked, geometry.EPS_REG)
    for i, p in enumerate(points):
        assert stacked[i].tobytes() == evaluate_jets(m, p, order=order).tobytes()
        alone = point_geometry(m, p, order=order)
        for f in dataclasses.fields(alone):
            got, want = getattr(pg, f.name), getattr(alone, f.name)
            if order == 2 and f.name in ("third", "dmetric"):
                assert got is None and want is None
            else:
                assert got[i].tobytes() == np.asarray(want).tobytes(), f.name


def test_stacked_evaluation_checks_each_row():
    m = so2_x_so2()
    inside, outside = (1.0, 0.5, 0.5), (9.0, 0.5, 0.5)
    with pytest.raises(OutOfDomainError, match=r"point \[9\.0, 0\.5, 0\.5\]"):
        evaluate_jets(m, np.array([inside, outside, inside]))
    with pytest.raises(ValueError, match="chart point"):
        evaluate_jets(m, np.zeros((2, 2)))
    # the cone (s cos t, s sin t, s) is singular at s = 0 only: the stack
    # names its first singular row
    cone = Immersion.from_exprs("cone", ("s*cos(t)", "s*sin(t)", "s"), ("s", "t"),
                                ((-1.0, 1.0), (0.0, 1.0)))
    rows = np.array([[0.5, 0.5], [0.0, 0.25], [0.0, 0.5], [0.7, 0.2]])
    with pytest.raises(SingularPointError) as err:
        geometry._assemble(rows, evaluate_jets(cone, rows, 2), geometry.EPS_REG)
    assert err.value.point == (0.0, 0.25) and err.value.det_g == 0.0


# -- failure modes -------------------------------------------------------------------------


def test_singular_point_raises_with_diagnostics():
    m = Immersion.from_exprs(
        "collapsed", ("s", "s", "0"), ("s", "t"), ((0.0, 1.0), (0.0, 1.0))
    )
    with pytest.raises(SingularPointError) as err:
        point_geometry(m, (0.5, 0.5))
    assert err.value.det_g < 1e-12


def test_a_metric_with_no_cholesky_factor_is_singular():
    # point_geometry never hands one over; principal_data names its det g
    pg = point_geometry(so2_x_so2(), [0.6, 0.4, 1.1])
    pg.metric, pg.det_metric = np.diag([1.0, -1.0, 1.0]), -1.0
    with pytest.raises(SingularPointError) as err:
        principal_data(pg)
    assert err.value.point == (0.6, 0.4, 1.1) and err.value.det_g == -1.0
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_only_order_3_refuses_a_metric_derivative_that_overflows():
    # at s = 0.5, g_ss = 5e306 is finite but d_s g_ss = 2 <x_ss, x_s> is not:
    # order-2 geometry reads no d_k g_ij, order-3 geometry and the bundle do
    m = Immersion.from_exprs("steep", ("s", "t", "u", "2^(s*1000)"), ("s", "t", "u"),
                             ((0.0, 1.0),) * 3)
    p = (0.5, 0.25, 0.75)
    pg = point_geometry(m, p)
    assert math.isfinite(pg.metric[0, 0]) and pg.metric[0, 0] > 1e306
    assert np.isfinite(pg.shape).all() and pg.third is None
    with np.errstate(all="ignore"):
        assert not np.isfinite(geometry._dmetric(pg.jac, pg.second)).all()
    text = "jets or geometry not finite at [0.5, 0.25, 0.75]"
    for call in (lambda: point_geometry(m, p, order=3), lambda: derivative_bundle(m, p)):
        with pytest.raises(geometry.GeometryError) as err:
            call()
        assert str(err.value) == text


@pytest.mark.parametrize("n", [2, 3])
def test_lapack_gufuncs_match_numpy_linalg(n):
    # the assembly calls the gufuncs behind np.linalg.det, solve and inv: the
    # same LAPACK calls, so the same bits and types, on a stack, a one-row
    # stack and a single matrix
    rng = np.random.default_rng(30)
    a = rng.standard_normal((64, n, n))
    g = a @ a.swapaxes(-1, -2) + 0.5 * np.eye(n)  # well-conditioned, like a metric
    h = rng.standard_normal((64, n, n))
    for gs, hs in ((g, h), (g[:1], h[:1]), (g[0], h[0]), (a + 3 * np.eye(n), h)):
        pairs = ((geometry._det(gs), np.linalg.det(gs)),
                 (geometry._solve(gs, hs), np.linalg.solve(gs, hs)),
                 (geometry._inv(gs), np.linalg.inv(gs)))
        for got, want in pairs:
            assert type(got) is type(want) and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "component, p",
    [
        # the jets of exp(700 s) at s = 0.6 are finite (x_s = 700 e^420), but
        # g_ss = 1 + 490000 e^840 overflows
        ("exp(700*s)", (0.6, 0.5, 0.5)),
        # the third partial x_sss = 6e308 overflows (its Taylor coefficient
        # 1e308 did not), and only order 3 reads it
        ("1e308*s^3", (1e-160, 0.5, 0.5)),
        # every partial is finite, and so is g_ss = 1 + 1.44e308, but
        # d_s g_ss = 2.88e308, which only order 3 reads, is not
        ("0.6e154*s^2", (1.0, 0.5, 0.5)),
    ],
)
def test_finite_jets_whose_geometry_overflows_are_not_finite(component, p):
    # the LAPACK gufuncs run under the assembly's errstate(all="ignore"), so
    # an overflowing metric ends at the finiteness check: a GeometryError, not
    # a LinAlgError, and no RuntimeWarning (an error in this suite) under any
    # caller's error state
    m = Immersion.from_exprs("steep", ("s", "t", "u", component), ("s", "t", "u"),
                             ((0.0, 1.0),) * 3)
    orders = (2, 3) if component.startswith("exp") else (3,)
    text = f"jets or geometry not finite at {list(p)}"
    for order in orders:
        with np.errstate(all="ignore"):
            rows = evaluate_jets(m, p, order)
        assert np.isfinite(rows).all() == (component != "1e308*s^3")
        if order == 3 and not component.startswith("exp"):
            with np.errstate(all="raise"):  # order 2 assembles the point
                assert np.isfinite(point_geometry(m, p).shape).all()

        def from_rows():  # as the block step calls it, inside its error state
            with np.errstate(all="ignore"):
                return point_geometry(m, p, order=order, _rows=rows)

        calls = [lambda: point_geometry(m, p, order=order), from_rows]
        calls += [lambda: derivative_bundle(m, p)] if order == 3 else []
        for state in ("warn", "raise"):
            for call in calls:
                with np.errstate(all=state), pytest.raises(geometry.GeometryError) as err:
                    call()
                assert str(err.value) == text


@pytest.mark.parametrize("order", [0, 1, 4])
def test_point_geometry_refuses_an_order_other_than_2_or_3(order):
    # refused before anything is evaluated
    m = unit_sphere()
    object.__setattr__(m, "_program", lambda order: pytest.fail("evaluated"))
    with pytest.raises(ValueError, match=f"^geometry order must be 2 or 3, got {order}$"):
        point_geometry(m, (0.4, 1.0), order=order)


def test_out_of_domain_check_and_escape():
    m = unit_sphere()
    with pytest.raises(OutOfDomainError):
        point_geometry(m, (9.0, 0.0))
    pg = point_geometry(m, (1.25, 0.0), check_domain=False)
    assert math.isclose(pg.metric[1, 1], math.cos(1.25) ** 2, rel_tol=1e-12)


@pytest.mark.parametrize("point", [[1.0], [1, 1, 1, 99], (), np.zeros(4)])
def test_contains_refuses_a_point_of_the_wrong_length(point):
    # a point with fewer or more coordinates than the chart is neither in
    # its box nor out of it
    m = special_sqrt2()
    with pytest.raises(ValueError, match=(f"^expected a chart point with 3 coordinates, "
                                          f"got {len(point)}$")):
        m.contains(point)
    # a point of the right length keeps the 1e-12 relative slack, and NaN is outside
    assert m.contains((2.5000000000001, 0.0, 0.0)) and not m.contains((3.0, 1.0, 1.0))
    assert not m.contains((math.nan, 1.0, 1.0))


def test_immersion_validation():
    with pytest.raises(ValueError):
        Immersion.from_exprs("bad", ("s", "t"), ("s", "t"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Immersion.from_exprs(
            "bad", ("s", "t", "0", "0", "0"), ("s", "t", "u"),
            ((0, 1), (0, 1), (0, 1)),
        )
