"""Position decomposition, the position-principal test, and grid classification."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TWO_PI, gcr_positive_surfaces, random_family, sample_points
from fd_oracle import finite_difference_jet, structural_residuals_fd
from gcrkit import cli, gcr, geometry
from gcrkit.catalog import (
    FAMILY_TAGS,
    hypercylinder_rotational,
    make_family,
    rotational,
    so2_x_so2,
    special_sqrt2,
    spherical_hypercylinder,
    tangent_cone,
)
from gcrkit.gcr import (
    DegeneratePointError,
    EmptyReportError,
    GridSpec,
    Tolerances,
    classify_surface,
    delta2_ideal_test,
    g_complement_basis,
    gcr_residual,
    position_angles,
    structural_residuals,
)
from gcrkit.geometry import (
    Immersion, OutOfDomainError, derivative_bundle, point_geometry, principal_data,
)


# -- position decomposition -----------------------------------------------------------------


def test_position_split_reconstructs_the_position():
    rng = np.random.default_rng(3)
    for tag in ("so2_x_so2", "conical_hypercylinder", "special_sqrt2"):
        m = random_family(tag, rng)
        lo = np.array([d[0] for d in m.domain])
        hi = np.array([d[1] for d in m.domain])
        for _ in range(6):
            p = tuple(lo + (hi - lo) * (0.15 + 0.7 * rng.random(3)))
            pg = point_geometry(m, p)
            pa = position_angles(pg)
            assert math.isclose(pa.mu, np.linalg.norm(pg.position), rel_tol=1e-13)
            # x = (tangential part) + mu cos(theta) N
            rebuilt = pg.jac @ pa.xT + pa.mu * pa.cos_theta * pg.normal
            assert np.max(np.abs(rebuilt - pg.position)) < 1e-10
            # |x^T|_g = mu sin(theta)
            assert math.isclose(
                pa.xT_norm, pa.mu * math.sin(pa.theta), rel_tol=1e-10, abs_tol=1e-12
            )


def test_angle_gradients_match_fd():
    rng = np.random.default_rng(32)
    # catalog charts follow curvature lines; the graph's shape operator is not symmetric
    graph = Immersion.from_exprs(
        "graph", ("s", "t", "u", "0.5 + s*t + 0.3*u^2 + 0.2*sin(s + u)"),
        ("s", "t", "u"), ((0.2, 1.2), (0.2, 1.2), (0.2, 1.2)),
    )
    cases = [(so2_x_so2(), [np.array([1.2, 0.8, 2.0])], 1e-8)]
    for m in [random_family(tag, rng) for tag in FAMILY_TAGS] + [graph]:
        cases.append((m, sample_points(m, rng, 2), 1e-6))
    for m, points, atol in cases:

        def angles(q):
            return position_angles(point_geometry(m, q, check_domain=False))

        for p in points:
            pa = angles(p)
            if pa.degenerate:
                continue
            _, fd_theta, _, _ = finite_difference_jet(lambda q: angles(q).theta, p, order=1)
            _, fd_mu, _, _ = finite_difference_jet(lambda q: angles(q).mu, p, order=1)
            assert np.max(np.abs(pa.theta_grad - fd_theta)) < atol, m.name
            assert np.max(np.abs(pa.mu_grad - fd_mu)) < atol, m.name


def test_position_angles_accept_order3_geometry():
    rng = np.random.default_rng(31)
    for tag in FAMILY_TAGS:
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 2):
            pa2 = position_angles(point_geometry(m, p))
            pa3 = position_angles(derivative_bundle(m, p).pg)
            assert pa3.degenerate == pa2.degenerate
            assert math.isclose(pa3.theta, pa2.theta, rel_tol=1e-12, abs_tol=1e-12)
            if not pa2.degenerate:
                assert np.allclose(pa3.theta_grad, pa2.theta_grad, rtol=1e-9, atol=1e-12)
                assert np.allclose(pa3.mu_grad, pa2.mu_grad, rtol=1e-9, atol=1e-12)


def test_self_similar_family_position_facts():
    # position has length 2s, sits entirely in the tangent space, along d/ds
    m = special_sqrt2()
    for s in (0.8, 1.7):
        p = (s, 1.1, 2.6)
        pg = point_geometry(m, p)
        pa = position_angles(pg)
        assert math.isclose(pa.mu, 2.0 * s, rel_tol=1e-13)
        assert abs(pa.cos_theta) < 1e-13
        assert math.isclose(pa.theta, math.pi / 2.0, abs_tol=1e-13)
        e1_chart = pa.e1 / np.linalg.norm(pa.e1)
        assert np.allclose(np.abs(e1_chart), [1.0, 0.0, 0.0], atol=1e-12)


def test_degenerate_at_origin_centered_sphere():
    m = rotational()  # unit sphere about the origin: x = N everywhere
    pg = point_geometry(m, (0.2, 1.2, 2.0))
    pa = position_angles(pg)
    assert pa.degenerate
    assert pa.e1 is None and pa.theta_grad is None
    with pytest.raises(DegeneratePointError):
        gcr_residual(pa, pg)
    with pytest.raises(DegeneratePointError):
        structural_residuals(m, (0.2, 1.2, 2.0))


def test_g_complement_basis_properties():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        g = a @ a.T + 3.0 * np.eye(3)
        v = rng.standard_normal(3)
        comp = g_complement_basis(g, v)
        assert comp.shape == (3, 2)
        assert np.allclose(comp.T @ g @ comp, np.eye(2), atol=1e-10)
        assert np.max(np.abs(comp.T @ g @ v)) < 1e-10 * max(1.0, np.linalg.norm(v))


# -- the residual pair -----------------------------------------------------------------------


def test_positive_and_negative_residuals():
    m_pos = so2_x_so2()
    p = (1.0, 0.7, 1.9)
    pg = point_geometry(m_pos, p)
    res = gcr_residual(position_angles(pg), pg)
    assert res.primary < 1e-12 and res.secondary < 1e-10

    m_neg = hypercylinder_rotational()  # torus cross line: not position-principal
    q = (1.0, 0.7, 0.6)
    pg = point_geometry(m_neg, q)
    res = gcr_residual(position_angles(pg), pg)
    assert res.primary > 1e-3 and res.secondary > 1e-3


def test_residual_scale_covariance():
    # scaling the surface by 2 halves the shape operator and both residuals,
    # while theta at corresponding points is unchanged
    comps = ("(2+cos(s))*cos(t)", "(2+cos(s))*sin(t)", "sin(s)", "u")
    doubled = tuple(f"2*({c})" for c in comps)
    dom = ((0.0, TWO_PI), (0.0, TWO_PI), (0.25, 1.0))
    m1 = Immersion.from_exprs("base", comps, ("s", "t", "u"), dom)
    m2 = Immersion.from_exprs("doubled", doubled, ("s", "t", "u"), dom)
    for p in [(0.9, 1.2, 0.7), (2.1, 4.0, 0.4)]:
        pg1, pg2 = point_geometry(m1, p), point_geometry(m2, p)
        pa1, pa2 = position_angles(pg1), position_angles(pg2)
        r1 = gcr_residual(pa1, pg1)
        r2 = gcr_residual(pa2, pg2)
        assert math.isclose(pa1.theta, pa2.theta, rel_tol=1e-12)
        assert math.isclose(pa2.mu, 2.0 * pa1.mu, rel_tol=1e-12)
        assert math.isclose(r2.primary, r1.primary / 2.0, rel_tol=1e-9)
        assert math.isclose(r2.secondary, r1.secondary / 2.0, rel_tol=1e-6)


# -- spectral split test ----------------------------------------------------------------------


def brute_force_split(k, tol):
    # independent oracle: try every assignment k_i = k_j + k_l
    hits = []
    for i, j, l in itertools.permutations(range(len(k)), 3):
        hits.append(abs(k[i] - k[j] - k[l]) <= tol)
    return any(hits)


@settings(max_examples=120, deadline=None)
@given(
    k=st.lists(st.floats(-4, 4), min_size=3, max_size=3),
    tol=st.floats(1e-12, 1e-3),
)
def test_delta2_matches_brute_force(k, tol):
    # stay off the knife edge, where the two algebraically equal routes can
    # round to opposite sides of the threshold
    closest = min(
        abs(k[i] - k[j] - k[l]) for i, j, l in itertools.permutations(range(3), 3)
    )
    assume(abs(closest - tol) > 1e-9 * max(1.0, max(abs(v) for v in k)))
    assert delta2_ideal_test(k, tol) == brute_force_split(k, tol)


def test_delta2_spot_values():
    assert delta2_ideal_test([1.0, 2.0, 3.0], 1e-9)          # 3 = 1 + 2
    assert not delta2_ideal_test([1.0, 2.0, 4.0], 1e-9)
    assert delta2_ideal_test([0.5, -0.5, 0.0], 1e-12)        # 0 = 0.5 - 0.5
    assert delta2_ideal_test([1.0, 2.0, 3.0 + 5e-7], 1e-6)
    with pytest.raises(ValueError):
        delta2_ideal_test([1.0, 2.0], 1e-9)


# -- structural identities --------------------------------------------------------------------


def test_structural_residuals_small_on_positive():
    s = structural_residuals(so2_x_so2(), (1.3, 0.8, 2.2))
    for value in (s.r_geodesic, s.r_k1, s.r_theta_flat, s.r_shape_coeff, s.r_omega):
        assert value < 1e-6
    assert s.r_codazzi_system < 1e-5
    assert set(s.details) >= {"k1-flat-2", "k1-flat-3", "k2-transport"}
    assert s.skipped == ()


STRUCTURAL_KEYS = (
    "r_geodesic", "r_k1", "r_theta_flat", "r_shape_coeff", "r_omega", "r_codazzi_system",
)


def _structural_samples(surfaces, seed):
    rng = np.random.default_rng(seed)
    for label, m, _ in surfaces:
        for p in sample_points(m, rng, 5):
            try:
                yield label, m, p, structural_residuals(m, p)
            except DegeneratePointError:
                continue


def test_structural_residuals_match_fd_oracle():
    surfaces = gcr_positive_surfaces() + [
        ("hypercylinder_rotational", hypercylinder_rotational(), False)
    ]
    checked = set()
    for label, m, p, exact in _structural_samples(surfaces, 41):
        oracle = structural_residuals_fd(m, p)
        assert exact.skipped == oracle.skipped, label
        assert set(exact.details) == set(oracle.details), label
        pairs = [(getattr(exact, k), getattr(oracle, k), k) for k in STRUCTURAL_KEYS]
        pairs += [(exact.details[k], oracle.details[k], k) for k in oracle.details]
        for value, reference, key in pairs:
            assert abs(value - reference) <= 1e-4 * max(1.0, abs(reference)), (label, key, p)
        checked.add(label)
    assert checked == {label for label, _, _ in surfaces}


def test_structural_residuals_vanish_on_gcr_surfaces():
    for label, _, p, sr in _structural_samples(gcr_positive_surfaces(), 42):
        values = [getattr(sr, k) for k in STRUCTURAL_KEYS] + list(sr.details.values())
        assert max(values) < 1e-8, (label, p, sr)


def test_structural_residuals_flag_violations_on_negative():
    s = structural_residuals(hypercylinder_rotational(), (0.9, 1.2, 0.7))
    assert max(s.r_geodesic, s.r_shape_coeff, s.r_theta_flat) > 1e-2


def test_structural_skips_on_coincident_complement_spectrum():
    m = spherical_hypercylinder(1.0, domain=((-1.1, 1.1), (0.0, TWO_PI), (0.25, 2.0)))
    s = structural_residuals(m, (0.4, 1.0, 1.2))
    assert len(s.skipped) == 5
    assert all("coincide" in reason for reason in s.skipped)
    # the gap-free identities are still verified
    assert max(s.r_geodesic, s.r_k1, s.r_theta_flat, s.r_shape_coeff, s.r_omega) < 1e-6


def test_structural_residuals_check_the_domain_box():
    # outside its box curve_tube would extrapolate its interpolated frame
    for m, p in [(so2_x_so2(), (5.0, 0.7, 2.1)), (make_family("curve_tube"), (2.5, 0.3, 0.1))]:
        with pytest.raises(OutOfDomainError):
            point_geometry(m, p)
        with pytest.raises(OutOfDomainError):
            structural_residuals(m, p)


def test_structural_two_variable_charts_skip_transport():
    m = Immersion.from_exprs(
        "plane", ("s", "t", "1"), ("s", "t"), ((0.2, 1.2), (0.3, 1.5))
    )
    s = structural_residuals(m, (0.7, 0.9))
    assert s.skipped and "3-dimensional" in s.skipped[0]
    assert s.r_geodesic < 1e-9 and s.r_omega == 0.0


# -- grids, tolerances, classification --------------------------------------------------------


def test_grid_spec_points():
    grid = GridSpec((3, 2))
    dom = ((0.0, 1.0), (10.0, 12.0))
    pts = grid.points(dom)
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [0.0, 10.0]) and np.allclose(pts[-1], [1.0, 12.0])
    # a single count collapses the axis to its midpoint
    mid = GridSpec((1, 2)).points(dom)
    assert np.allclose(sorted(set(mid[:, 0])), [0.5])
    with pytest.raises(ValueError):
        GridSpec((0, 2))
    with pytest.raises(ValueError):
        GridSpec((3,)).points(dom)
    # a list of counts is held as a tuple: equal to it and hashable
    assert GridSpec([2, 2, 2]) == GridSpec((2, 2, 2))
    assert hash(GridSpec([2, 2, 2])) == hash(GridSpec((2, 2, 2)))
    assert GridSpec([3, 2]).counts == (3, 2)


@pytest.mark.parametrize("counts", [(True, 2, 2), (2, False), (2.5, 2, 2), (2.0, 2),
                                    (2, "3"), (0, 2), (-1,), 3, None])
def test_grid_counts_must_be_integers_of_at_least_one(counts):
    # a bool is no count (True would sample one point), nor is a float
    with pytest.raises(ValueError) as err:
        GridSpec(counts)
    assert str(err.value) == f"grid counts must be integers of at least 1, got {counts!r}"
    grid = GridSpec((np.int64(2), 1))  # numpy integers are integers, held as ints
    assert grid.points(((0.0, 1.0), (0.0, 2.0))).tolist() == [[0.0, 1.0], [1.0, 1.0]]
    assert grid.counts == (2, 1) and [type(c) for c in grid.counts] == [int, int]


def test_tolerances_dict_round_trip():
    t = Tolerances(tol_gcr=1e-6)
    d = t.as_dict()
    assert d["tol_gcr"] == 1e-6
    assert Tolerances(**d) == t


@pytest.mark.parametrize("name, value", [
    ("tol_gcr", math.nan), ("tol_const_rel", math.inf), ("tol_gap", "1e-4"),
    ("eps_reg", True), ("eps_tan_rel", -1e-9), ("tol_gcr", None),
    ("tol_gcr", np.float32(1e-7)),  # numpy's float32 is no Python float
])
def test_tolerances_must_be_finite_numbers_of_at_least_zero(name, value):
    # the Python API refuses what the CLI refuses, with the CLI's message
    with pytest.raises(ValueError) as err:
        Tolerances(**{name: value})
    assert str(err.value) == f"tolerance {name!r} must be a finite number >= 0, got {value!r}"


def test_tolerances_name_the_first_bad_field_and_hold_floats():
    with pytest.raises(ValueError, match="^tolerance 'tol_const_rel' "):
        Tolerances(eps_tan_rel=-1.0, tol_gap=math.nan, tol_const_rel=math.inf)
    with pytest.raises(ValueError, match="^tolerance 'tol_gap' .* got 1000+$"):
        Tolerances(tol_gap=10**400)  # an int beyond float range
    t = Tolerances(tol_gcr=1, tol_gap=np.float64(0.5), eps_reg=0)
    assert t.as_dict() == {"tol_gcr": 1.0, "tol_const_rel": 1e-6, "tol_gap": 0.5,
                           "eps_reg": 0.0, "eps_tan_rel": 1e-8}
    assert all(type(v) is float for v in t.as_dict().values())


def test_classify_flags_on_self_similar_family():
    rep = classify_surface(special_sqrt2(), GridSpec((4, 4, 4)))
    assert rep.is_gcr and rep.is_cmc and rep.is_3_minimal and rep.is_delta2_ideal
    assert not rep.is_isoparametric       # curvatures vary along the ray
    assert rep.distinct_curvature_count == 3
    assert rep.max_gcr_primary < 1e-12
    assert rep.fraction_degenerate == 0.0
    assert len(rep.records) == 64 and not rep.skipped


def test_classify_negative_and_flags():
    rep = classify_surface(hypercylinder_rotational(), GridSpec((5, 5, 3)))
    assert not rep.is_gcr
    assert rep.max_gcr_primary > 1e-3
    assert rep.is_3_minimal  # one principal curvature vanishes identically


def test_classify_all_degenerate_surface():
    # origin-centered sphere: regular points, but no tangential direction
    rep = classify_surface(rotational(), GridSpec((3, 3, 3)))
    assert rep.fraction_degenerate == 1.0
    assert not rep.is_gcr
    assert rep.max_gcr_primary is None
    assert rep.is_isoparametric and rep.distinct_curvature_count == 1


def test_classify_empty_report():
    m = Immersion.from_exprs(
        "collapsed", ("s", "s", "0"), ("s", "t"), ((0.0, 1.0), (0.0, 1.0))
    )
    with pytest.raises(EmptyReportError):
        classify_surface(m, GridSpec((3, 3)))


def test_repeated_sweeps_agree():
    # the sweep is serial; repeated runs must agree exactly
    m = so2_x_so2()
    grid = GridSpec((3, 4, 3))
    first = classify_surface(m, grid, include_structural=True)
    second = classify_surface(m, grid, include_structural=True)
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert a.point == b.point
        assert a.curvatures == b.curvatures
        assert a.gcr_primary == b.gcr_primary
    assert first.structural_max == second.structural_max


def test_structural_sweep_evaluates_each_point_once_at_order3(monkeypatch):
    # rows evaluated, by jet order: either sweep evaluates each of the block's
    # 8 points once, --full at order 3 and the plain sweep at 2
    m = tangent_cone()
    evaluated = _counting_rows(monkeypatch)
    full = classify_surface(m, GridSpec((2, 2, 2)), include_structural=True)
    assert collections.Counter(order for order, _ in evaluated) == {3: 8}
    assert full.jet_order == 3
    assert all(r.structural is not None for r in full.records)
    evaluated.clear()
    assert classify_surface(m, GridSpec((2, 2, 2))).jet_order == 2
    assert collections.Counter(order for order, _ in evaluated) == {2: 8}


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_order3_sweep_reads_order2_figures(tag):
    # the lower slots of order-3 jets are the order-2 slots bit for bit, so
    # assembling the geometry from order 3 changes no pointwise figure
    m = make_family(tag)
    grid = GridSpec((2,) * m.n)
    full = classify_surface(m, grid, include_structural=True)
    plain = classify_surface(m, grid)
    assert full.jet_order == (3 if m.n == 3 else 2)
    fields = ("point", "mu", "theta", "curvatures", "gcr_primary", "gcr_secondary")
    for a, b in zip(full.records, plain.records, strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def test_classify_structural_notes():
    # structural residuals are only attempted where the primary test passes;
    # a 4-point s-axis hits generic slices of the torus profile
    rep = classify_surface(
        hypercylinder_rotational(), GridSpec((4, 3, 2)), include_structural=True
    )
    notes = {r.structural_note for r in rep.records if r.structural_note}
    assert any("not position-principal" in n for n in notes)


def test_classify_isoparametric_product():
    m = spherical_hypercylinder(1.0, domain=((-1.1, 1.1), (0.0, TWO_PI), (0.25, 2.0)))
    rep = classify_surface(m, GridSpec((4, 5, 3)))
    assert rep.is_gcr and rep.is_isoparametric and rep.is_cmc
    assert rep.distinct_curvature_count == 2


# -- block classification ---------------------------------------------------------------------


def _spec_surface(name):
    spec = cli.load_spec(name)
    m, _ = cli.build_surface(spec)
    return m, cli._grid_from_spec(spec, m, None)


def _marked_saddle():
    """A saddle on a 3 x 3 grid over [-1, 1]^2: degenerate at the origin,
    where it passes through 0, singular at (-1, 1), where x_s = 0, and lifted
    by a bump of height 1e160 at (1, 1), flat there and below 1e-140 at every
    other grid point, where the position split overflows only after
    point_geometry succeeded."""
    bump = "1e160*exp(-700*((s-1)^2+(t-1)^2))"
    comps = ("s*(1-t)/2", "t", f"(s+1)^2*t/2+{bump}")
    m = Immersion.from_exprs("marked saddle", comps, ("s", "t"), ((-1.0, 1.0),) * 2)
    return m, GridSpec((3, 3))


def _bits(report):
    # repr prints every float to its last bit
    return [repr(r) for r in report.records] + [repr(s) for s in report.skipped]


def _counting_point_geometry(monkeypatch):
    calls = []
    original = gcr.point_geometry
    monkeypatch.setattr(
        gcr, "point_geometry", lambda *a, **k: calls.append(a[1]) or original(*a, **k)
    )
    return calls


def _counting_rows(monkeypatch):
    """(jet order, point) for each row of every evaluate_jets call that returns."""
    rows = []
    original = geometry.evaluate_jets

    def counting(m, p, order=3, check_domain=True):
        jets = original(m, p, order, check_domain)
        rows.extend((order, tuple(q)) for q in np.reshape(p, (-1, m.n)))
        return jets

    monkeypatch.setattr(geometry, "evaluate_jets", counting)
    return rows


@pytest.mark.parametrize(
    "case,full",
    [("so2_x_so2", False), ("saddle_raw.json", False), ("saddle_raw.json", True),
     ("tangent_cone", True), ("marked saddle", False), ("marked saddle", True)],
)
def test_classify_calls_point_geometry_once_per_point(monkeypatch, case, full):
    if case == "saddle_raw.json":
        m, grid = _spec_surface(case)
    elif case == "marked saddle":
        m, grid = _marked_saddle()  # its --full block falls back to one row at a time
    else:
        m, grid = make_family(case), GridSpec((3,) * 3)
    calls = _counting_point_geometry(monkeypatch)
    evaluated = _counting_rows(monkeypatch)
    rep = classify_surface(m, grid, include_structural=full)
    points = [tuple(p) for p in grid.points(m.domain)]
    # one evaluated row per point at the sweep's order: the plain sweep calls
    # point_geometry per point, --full evaluates each block as one stack (the
    # marked saddle's stacked assembly fails on its singular row, so its block
    # is assembled point by point, each point from its row)
    assert evaluated == [(rep.jet_order, p) for p in points]
    if not full:
        assert [tuple(p) for p in calls] == points
    assert len(rep.records) + len(rep.skipped) == len(points)
    if full:
        assert rep.jet_order == (3 if m.n == 3 else 2)
        assert any(r.structural is not None for r in rep.records)


def test_christoffel_symbols_are_computed_only_where_read(monkeypatch):
    # the plain sweep never reads them; --full computes them once per block,
    # for the rows that passed the primary test, and the self-test once
    rows = []
    exact = geometry._christoffel

    def counting(pg):
        rows.append(len(pg.metric) if pg.metric.ndim == 3 else None)
        return exact(pg)

    monkeypatch.setattr(geometry, "_christoffel", counting)
    monkeypatch.setattr(gcr, "_BLOCK", 10)
    m, grid = make_family("so2_x_so2"), GridSpec((3, 3, 3))
    classify_surface(m, grid)
    assert rows == []
    rep = classify_surface(m, grid, include_structural=True)
    checked = [r.structural is not None for r in rep.records]
    assert rows == [sum(checked[i : i + 10]) for i in range(0, 27, 10)]
    assert sum(rows) == 27 - sum(r.degenerate for r in rep.records) > 0
    rows.clear()
    derivative_bundle(m, (1.0, 0.7, 0.6))
    assert rows == [None]


@pytest.mark.parametrize("name", ["so2_x_so2", "tangent_cone", "curve_tube"])
def test_block_metric_derivative_serves_its_rows_sliced(monkeypatch, name):
    # order-3 geometry carries d_k g_ij from its assembly, and the rows that
    # pass the primary test read it sliced: a slice has the bits of d_k g_ij
    # computed on that subset of rows alone, and a row those of its point
    m = make_family(name)
    points = GridSpec((3, 3, 3)).points(m.domain)
    with np.errstate(all="ignore"):
        pg = geometry._assemble(points, geometry.evaluate_jets(m, points, 3, False),
                                geometry.EPS_REG)
    rng = np.random.default_rng(31)
    for sel in (np.arange(27), np.array([0]), np.array([3, 4, 20]),
                np.sort(rng.choice(27, 11, replace=False))):
        sub = geometry._row(pg, sel)
        assert sub.dmetric.tobytes() == geometry._dmetric(sub.jac, sub.second).tobytes()
    for i in (0, 13, 26):
        alone = point_geometry(m, points[i], check_domain=False, order=3)
        assert pg.dmetric[i].tobytes() == alone.dmetric.tobytes()
    calls = _counting_dmetric(monkeypatch)
    monkeypatch.setattr(gcr, "_BLOCK", 10)
    classify_surface(m, GridSpec((3, 3, 3)), include_structural=True)
    assert calls == [10, 10, 7]


def _counting_dmetric(monkeypatch) -> list:
    """The rows of every d_k g_ij computation, None for one point alone."""
    calls = []
    exact = geometry._dmetric

    def counting(jac, sec):
        calls.append(len(jac) if jac.ndim == 3 else None)
        return exact(jac, sec)

    monkeypatch.setattr(geometry, "_dmetric", counting)
    return calls


def test_point_by_point_blocks_compute_the_metric_derivative_once_per_row(monkeypatch):
    # (s cos t, s sin t, s, u) is singular along s = 0, so a --full block with
    # such a row is assembled point by point: each regular point computes
    # d_k g_ij once, in its own assembly, and the Christoffel symbols read it
    m = Immersion.from_exprs("cone_x_line", ("s*cos(t)", "s*sin(t)", "s", "u"),
                             ("s", "t", "u"), ((-1.0, 1.0), (0.0, 1.0), (0.0, 1.0)))
    calls = _counting_dmetric(monkeypatch)
    monkeypatch.setattr(gcr, "_BLOCK", 10)
    grid = GridSpec((3, 3, 3))
    rep = classify_surface(m, grid, include_structural=True)
    # rows 9-17 are singular: blocks [0, 10) and [10, 20) go point by point
    assert [p for p, _ in rep.skipped] == [tuple(p) for p in grid.points(m.domain)[9:18].tolist()]
    assert calls == [None] * 9 + [None] * 2 + [7]


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize(
    "name", ["so2_x_so2", "tangent_cone", "curve_tube", "saddle_raw.json",
             "rotational_sphere.json", "torus_hypercylinder.json"]
)
def test_records_do_not_depend_on_the_block_size(monkeypatch, name, full):
    if name in FAMILY_TAGS:
        m, grid = make_family(name), GridSpec((5 if name == "so2_x_so2" else 3,) * 3)
    else:
        m, grid = _spec_surface(name)
    reports = []
    for block in (1, 7, gcr._BLOCK):
        monkeypatch.setattr(gcr, "_BLOCK", block)
        reports.append(classify_surface(m, grid, include_structural=full))
    assert _bits(reports[0]) == _bits(reports[1]) == _bits(reports[2])
    if full:
        # the structural residuals are the one-row call of their block kernel
        for r in reports[2].records:
            if r.structural is not None:
                assert repr(r.structural) == repr(structural_residuals(m, r.point))
    else:
        # the per-point functions are the one-row calls of the block kernels
        for r in reports[2].records[::7]:
            pg = point_geometry(m, r.point, check_domain=False)
            pd, pa = principal_data(pg), position_angles(pg)
            assert (pa.mu, pa.theta, pa.degenerate) == (r.mu, r.theta, r.degenerate)
            assert tuple(pd.curvatures.tolist()) == r.curvatures
            if not r.degenerate:
                res = gcr_residual(pa, pg)
                assert (res.primary, res.secondary) == (r.gcr_primary, r.gcr_secondary)


def test_block_fallback_keeps_each_points_skip_reason(monkeypatch):
    m, grid = _marked_saddle()
    default = gcr._BLOCK
    for full in (False, True):
        monkeypatch.setattr(gcr, "_BLOCK", default)
        rep = classify_surface(m, grid, include_structural=full)
        monkeypatch.setattr(gcr, "_BLOCK", 1)
        single = classify_surface(m, grid, include_structural=full)
        assert _bits(rep) == _bits(single)
        assert rep.skipped == [
            ((-1.0, 1.0), "singular metric (det g = 0.000e+00)"),
            ((1.0, 1.0), "evaluation failed: overflow encountered in matmul"),
        ]
        origin = [r for r in rep.records if r.point == (0.0, 0.0)]
        assert len(rep.records) == 7 and origin[0].degenerate and origin[0].gcr_primary is None


@pytest.mark.parametrize("state", ["ignore", "warn", "raise"])
def test_one_row_functions_fail_like_the_sweep_whatever_the_error_state(state):
    # at (1, 1) the marked saddle's position split overflows once its geometry
    # has assembled.  The one-row functions run under the sweep's error state,
    # so they fail with its FloatingPointError whatever the caller's state, and
    # never take an inf position as regular ("metric too degenerate for a
    # complement basis")
    m, grid = _marked_saddle()
    pg = point_geometry(m, (1.0, 1.0))
    with np.errstate(all="raise", under="ignore"):
        want = repr(principal_data(pg))
    with np.errstate(all="ignore"):  # the split that checks nothing
        pa = gcr._row(gcr._position_rows(geometry._stack([pg]), Tolerances.eps_tan_rel), 0)
    assert pa.mu == pa.xT_norm == math.inf and not pa.degenerate
    assert pa.e1.tolist() == [0.0, 0.0]
    with np.errstate(all=state):
        for call in (lambda: position_angles(pg), lambda: structural_residuals(m, (1.0, 1.0))):
            with pytest.raises(FloatingPointError, match="^overflow encountered in matmul$"):
                call()
        with pytest.raises(FloatingPointError, match="^invalid value encountered in divide$"):
            gcr_residual(pa, pg)
        assert repr(principal_data(pg)) == want
        skipped = dict(classify_surface(m, grid, include_structural=True).skipped)
    assert skipped[(1.0, 1.0)] == "evaluation failed: overflow encountered in matmul"


@pytest.mark.parametrize(
    "name", ["spherical_hypercylinder.json", "saddle_raw.json", "torus_hypercylinder.json"]
)
def test_report_columns_hold_numbers_and_records_decode_them(name):
    # the structural rows are one float column, NaN where a point was not
    # checked, and records decode them: transport checks skipped where the
    # complement curvatures coincide, the whole transport system on the 2-D
    # saddle, checked and unchecked rows mixed on the torus hypercylinder
    m, grid = _spec_surface(name)
    for full in (False, True):
        rep = classify_surface(m, grid, include_structural=full)
        assert all(c is None or c.dtype != object for c in rep.columns.values())
        checked = [r.structural for r in rep.records if r.structural is not None]
        assert bool(checked) == full
        want = {key: max(0.0, *(getattr(s, key) for s in checked))
                for key in STRUCTURAL_KEYS} if checked else {}
        assert repr(rep.structural_max) == repr(want)
    assert rep.columns["structural"].shape == (len(rep.records), 13)
    skipped = {why for s in checked for why in s.skipped}
    notes = {r.structural_note for r in rep.records if r.structural is None}
    if name == "spherical_hypercylinder.json":
        assert skipped and all(why.endswith("(complement curvatures coincide)") for why in skipped)
    elif name == "saddle_raw.json":
        assert skipped == {"curvature transport system (3-dimensional charts only)"}
        assert all(s.details == {} and s.r_omega == s.r_codazzi_system == 0.0 for s in checked)
    else:
        assert "not position-principal here: structural identities not expected" in notes
    assert None not in notes


def test_a_singular_row_reruns_the_stacked_block_point_by_point(monkeypatch):
    # the cone (s cos t, s sin t, s) is singular along s = 0: the stacked
    # assembly refuses the block, and each point then meets its own outcome
    m = Immersion.from_exprs(
        "cone", ("s*cos(t)", "s*sin(t)", "s"), ("s", "t"), ((-1.0, 1.0), (0.0, 1.0))
    )
    grid = GridSpec((3, 3))
    calls = _counting_point_geometry(monkeypatch)
    rep = classify_surface(m, grid, include_structural=True)
    assert [tuple(p) for p in calls] == [tuple(p) for p in grid.points(m.domain)]
    monkeypatch.setattr(gcr, "_BLOCK", 1)
    assert _bits(rep) == _bits(classify_surface(m, grid, include_structural=True))
    assert [p for p, _ in rep.skipped] == [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0)]
    assert {why for _, why in rep.skipped} == {"singular metric (det g = 0.000e+00)"}


def test_block_kernels_fall_back_row_by_row():
    # a metric with no Cholesky factor and one too thin for a complement basis,
    # which point_geometry never hands over, and an overflowing position
    pg = geometry._stack([point_geometry(so2_x_so2(), [0.6, 0.4, 1.1])] * 5)
    pg.metric[1], pg.det_metric[1] = np.diag([1.0, -1.0, 1.0]), -1.0
    pg.metric[2] = np.diag([1.0, 1e-24, 1e-24])
    pg.position[3] *= 1e160
    tols = Tolerances()
    with np.errstate(all="raise", under="ignore"):
        block, why = gcr._classify_rows(pg, tols)
        single = [gcr._classify_rows(geometry._row(pg, [i]), tols) for i in range(5)]
    assert why[1:4] == [w for _, (w,) in single[1:4]] == [
        "singular metric (det g = -1.000e+00)",
        "evaluation failed: metric too degenerate for a complement basis",
        "evaluation failed: overflow encountered in matmul",
    ]
    assert why[0] is why[4] is None and all(c is None for c, _ in single[1:4])

    def row(columns, i):  # repr prints every float to its last bit
        return repr({name: None if c is None else c[i].tolist() for name, c in columns.items()})

    # the block's columns hold the two rows that classify, rows 0 and 4
    assert len(block["mu"]) == 2
    assert row(block, 0) == row(block, 1) == row(single[0][0], 0)


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("name", ["so2_x_so2", "saddle_raw.json"])
def test_block_rows_are_the_per_point_geometry(name, order):
    # _row(block, i) is point_geometry at point i bit for bit, with no third
    # partials at order 2; an index array keeps the block's None fields
    if name in FAMILY_TAGS:
        m, grid = make_family(name), GridSpec((3,) * 3)
    else:
        m, grid = _spec_surface(name)
    points = grid.points(m.domain)[:9]
    block = geometry._assemble(points, geometry.evaluate_jets(m, points, order, False),
                               geometry.EPS_REG)
    for i, p in enumerate(points):
        row = geometry._row(block, i)
        alone = point_geometry(m, p, check_domain=False, order=order)
        assert (row.third is None) == (alone.third is None) == (order == 2)
        assert (row.dmetric is None) == (alone.dmetric is None) == (order == 2)
        for f in dataclasses.fields(alone):
            got, want = getattr(row, f.name), getattr(alone, f.name)
            assert type(got) is type(want), f.name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
    some = geometry._row(block, np.array([0, 4, 8]))
    assert (some.third is None) == (order == 2)
    assert some.metric.tobytes() == block.metric[[0, 4, 8]].tobytes()
    # stacking the rows again gives back the block
    again = geometry._stack([geometry._row(block, i) for i in range(len(points))])
    for f in dataclasses.fields(block):
        got, want = getattr(again, f.name), getattr(block, f.name)
        assert (got is None and want is None) or got.tobytes() == want.tobytes(), f.name
