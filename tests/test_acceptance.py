"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE <k>: PASS/FAIL`` line (even under failure)
so the suite doubles as a release checklist.  Tolerances here are the shipped
guarantees; do not loosen them to make a regression pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from gcrkit.catalog import (
    FAMILY_TAGS,
    circular_hypercylinder,
    hypercylinder_rotational,
    integrate_profile,
    make_family,
    rotational,
    so2_x_so2,
    special_sqrt2,
    spherical_hypercylinder,
)
from gcrkit.cli import EXIT_OK, main
from gcrkit.gcr import (
    DegeneratePointError,
    GridSpec,
    Tolerances,
    classify_surface,
    delta2_ideal_test,
    structural_residuals,
)
from gcrkit.geometry import (
    codazzi_residual_from_bundle,
    curvature_invariants,
    derivative_bundle,
    evaluate_jets,
    gauss_residual_from_bundle,
    point_geometry,
    principal_data,
)
from fd_oracle import finite_difference_jet

from conftest import TWO_PI, gcr_positive_surfaces, random_family, sample_points


@pytest.fixture
def announce(capsys):
    def _announce(index, ok, label):
        with capsys.disabled():
            print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} — {label}")
        return ok

    return _announce


def test_01_universal_identities_and_negative_control(announce):
    rng = np.random.default_rng(101)
    worst = 0.0
    worst_at = ""
    for tag in FAMILY_TAGS:
        m = random_family(tag, rng)
        for p in sample_points(m, rng, 100):
            bundle = derivative_bundle(m, p)
            r = max(
                codazzi_residual_from_bundle(bundle),
                gauss_residual_from_bundle(bundle),
            )
            if r > worst:
                worst, worst_at = r, f"{tag} at {tuple(round(v, 3) for v in p)}"
    # corrupting one second-form entry must blow the residual past the alarm line
    bundle = derivative_bundle(so2_x_so2(), (1.0, 0.7, 0.6))
    h_bad = bundle.pg.second_form.copy()
    h_bad[0, 0] += 0.1
    pg_bad = dataclasses.replace(bundle.pg, second_form=h_bad)
    alarm = codazzi_residual_from_bundle(dataclasses.replace(bundle, pg=pg_bad))
    ok = worst < 1e-6 and alarm > 1e-3
    announce(1, ok, "curvature integrability identities on randomized families "
                    f"(worst {worst:.2e}; corrupted-data alarm {alarm:.2e})")
    assert ok, f"worst residual {worst:.3e} ({worst_at}); alarm {alarm:.3e}"


def test_02_jets_match_central_finite_differences(announce):
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_at = ""
    for tag in FAMILY_TAGS:
        m = make_family(tag)
        cache = {}

        def values_at(q):
            key = tuple(float(v) for v in q)
            if key not in cache:
                cache[key] = [
                    j.value for j in evaluate_jets(m, key, order=1, check_domain=False)
                ]
            return cache[key]

        n_comp = len(values_at(sample_points(m, rng, 1)[0]))
        for p in sample_points(m, rng, 50):
            exact = evaluate_jets(m, p, order=3, check_domain=False)
            for c in range(n_comp):
                fd = finite_difference_jet(lambda q, c=c: values_at(q)[c], p, order=3)
                scale = max(
                    1.0,
                    abs(exact[c].value),
                    np.max(np.abs(exact[c].grad)),
                    np.max(np.abs(exact[c].hess)),
                    np.max(np.abs(exact[c].third)),
                )
                err = max(
                    np.max(np.abs(exact[c].grad - fd.grad)),
                    np.max(np.abs(exact[c].hess - fd.hess)),
                    np.max(np.abs(exact[c].third - fd.third)),
                ) / scale
                if err > worst:
                    worst, worst_at = err, f"{tag} component {c}"
    ok = worst < 1e-5
    announce(2, ok, f"jet derivatives vs central finite differences (worst {worst:.2e})")
    assert ok, f"worst relative deviation {worst:.3e} at {worst_at}"


GRID3 = GridSpec((4, 4, 4))
TOLS = Tolerances()


def test_03_position_principal_positives(announce):
    failures = []
    worst = 0.0
    for label, m, _ in gcr_positive_surfaces():
        rep = classify_surface(m, GRID3, TOLS)
        if rep.max_gcr_primary is None:
            failures.append(f"{label}: no nondegenerate points")
            continue
        worst = max(worst, rep.max_gcr_primary)
        for rec in rep.records:
            if rec.degenerate:
                continue
            if rec.gcr_primary >= 1e-7:
                failures.append(f"{label} at {rec.point}: primary {rec.gcr_primary:.3e}")
            if (rec.gcr_primary < TOLS.tol_gcr) != (rec.gcr_secondary < TOLS.tol_gcr):
                failures.append(f"{label} at {rec.point}: verdicts disagree")
        if not rep.is_gcr:
            failures.append(f"{label}: classify flag is_gcr false")
    ok = not failures
    announce(3, ok, "position-principal surfaces pass both residual gates at every "
                    f"nondegenerate grid point (worst primary {worst:.2e})")
    assert ok, "; ".join(failures[:8])


def test_04_generic_cylinder_rejected(announce):
    rep = classify_surface(hypercylinder_rotational(), GridSpec((5, 5, 5)), TOLS)
    ok = (not rep.is_gcr) and rep.max_gcr_primary > 1e-3
    announce(4, ok, "generic wavy-profile cylinder rejected "
                    f"(max residual {rep.max_gcr_primary:.2e})")
    assert ok, f"is_gcr={rep.is_gcr}, max primary {rep.max_gcr_primary}"


def test_05_structural_identities(announce):
    rng = np.random.default_rng(505)
    failures = []
    worst_plain = 0.0
    worst_relaxed = 0.0
    for label, m, interpolated in gcr_positive_surfaces():
        checked = 0
        for p in sample_points(m, rng, 5):
            try:
                sr = structural_residuals(m, p)
            except DegeneratePointError:
                continue
            checked += 1
            plain_tol = 1e-3 if interpolated else 1e-4
            named = {
                "geodesic": sr.r_geodesic,
                "rayleigh": sr.r_k1,
                "flat-angle": sr.r_theta_flat,
                "shape-coeff": sr.r_shape_coeff,
                "frame-forms": sr.r_omega,
            }
            for what, value in named.items():
                worst_plain = max(worst_plain, value if not interpolated else 0.0)
                worst_relaxed = max(worst_relaxed, value if interpolated else 0.0)
                if value >= plain_tol:
                    failures.append(f"{label} {what} {value:.3e}")
            for key, value in sr.details.items():
                if interpolated:
                    worst_relaxed = max(worst_relaxed, value)
                else:
                    worst_plain = max(worst_plain, value)
                if value >= plain_tol:
                    failures.append(f"{label} {key} {value:.3e}")
        if checked == 0:
            failures.append(f"{label}: no usable sample points")
    ok = not failures
    announce(5, ok, "first-order structural identities on position-principal surfaces "
                    f"(worst {worst_plain:.2e}; relaxed-path worst {worst_relaxed:.2e})")
    assert ok, "; ".join(failures[:8])


def test_06_balanced_spectrum_family(announce):
    rep = classify_surface(special_sqrt2(), GRID3, TOLS)
    failures = []
    for rec in rep.records:
        k = rec.curvatures
        means = rec.means
        if abs(k[1]) > 1e-9 or abs(k[0] + k[2]) > 1e-9:
            failures.append(f"spectrum not balanced at {rec.point}: {k}")
        if abs(means[0]) > 1e-9 or abs(means[2]) > 1e-9:
            failures.append(f"H1/H3 not zero at {rec.point}: {means}")
        if rec.delta2 is not True or not delta2_ideal_test(k, 1e-9):
            failures.append(f"spectral split fails at {rec.point}")
    for flag in ("is_gcr", "is_cmc", "is_3_minimal", "is_delta2_ideal"):
        if getattr(rep, flag) is not True:
            failures.append(f"flag {flag} not set")
    ok = not failures
    announce(6, ok, "balanced-spectrum family: zero odd mean curvatures, ideal "
                    "spectral split, all four classification flags")
    assert ok, "; ".join(failures[:8])


def test_07_round_profiles_reproduce_space_forms(announce):
    rng = np.random.default_rng(707)
    failures = []
    for r in (1.0, 2.0):
        m = rotational(
            f=f"{r!r}*sin(s)", g=f"{r!r}*cos(s)",
            domain=((0.1, 0.7), (0.35, 2.79), (0.0, TWO_PI)),
        )
        for p in sample_points(m, rng, 6):
            pg = point_geometry(m, p)
            pd = principal_data(pg)
            k = np.asarray(pd.curvatures)
            if np.max(np.abs(np.abs(k) - 1.0 / r)) > 1e-8:
                failures.append(f"r={r}: curvatures {k}")
            sign = 1.0 if k[0] > 0 else -1.0
            means = curvature_invariants(pd.curvatures).mean
            for j, h in enumerate(means, start=1):
                if abs(h - sign**j * r**-j) > 1e-7:
                    failures.append(f"r={r}: H_{j} = {h}")
            bundle = derivative_bundle(m, p)
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            sec = bundle.sectional_curvature(u, v)
            if abs(sec - 1.0 / r**2) > 1e-7:
                failures.append(f"r={r}: sectional {sec}")
    ok = not failures
    announce(7, ok, "round profiles reproduce space-form curvatures and sectional "
                    "curvature at radii 1 and 2")
    assert ok, "; ".join(failures[:8])


def test_08_product_cylinders_isoparametric(announce):
    surfaces = [
        spherical_hypercylinder(r, domain=((-0.9 * r, 0.9 * r), (0.0, TWO_PI), (0.25, 2.25)))
        for r in (1.0, 1.6)
    ] + [
        circular_hypercylinder(r, domain=((0.25, 2.25), (0.0, TWO_PI), (-1.0, 1.0)))
        for r in (1.0, 0.5)
    ]
    failures = []
    for m in surfaces:
        rep = classify_surface(m, GRID3, TOLS)
        if not (rep.is_isoparametric and rep.is_gcr and rep.distinct_curvature_count == 2):
            failures.append(
                f"{m.name}: iso={rep.is_isoparametric} gcr={rep.is_gcr} "
                f"distinct={rep.distinct_curvature_count}"
            )
    ok = not failures
    announce(8, ok, "sphere-times-line and circle-times-plane cylinders detected as "
                    "isoparametric with two distinct curvatures")
    assert ok, "; ".join(failures)


def test_09_profile_integrator_fourth_order(announce):
    def circle_error(step):
        prof = integrate_profile(1.0, (0.0, TWO_PI), init=(1.0, 0.0, math.pi / 2), step=step)
        ss = np.linspace(0.0, TWO_PI, 721)
        return max(
            max(abs(prof.f_at(s) - math.cos(s)) for s in ss),
            max(abs(prof.g_at(s) - math.sin(s)) for s in ss),
        )

    fine = circle_error(1e-3)
    coarse = [circle_error(h) for h in (0.04, 0.02, 0.01)]
    orders = [math.log2(a / b) for a, b in zip(coarse, coarse[1:])]
    ok = fine < 1e-9 and min(orders) >= 3.9
    announce(9, ok, f"unit-circle reconstruction {fine:.2e} at step 1e-3; "
                    f"observed convergence order {min(orders):.2f}")
    assert ok, f"fine error {fine:.3e}, orders {orders}"


def test_10_reports_are_byte_identical(announce, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["check", "torus_so2_x_so2.json", "--grid", "4", "--full"]
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    ok = rc1 == rc2 == EXIT_OK and out1.read_bytes() == out2.read_bytes()
    announce(10, ok, "repeat classification runs produce byte-identical reports")
    assert ok
