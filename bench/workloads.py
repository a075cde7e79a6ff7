"""Workload plans and correctness gates for the gcrkit benchmark.

A plan is plain JSON built from the workload seed alone: the spec documents
(or bundled spec names) to build, the grid of each report, the chart points
of the self-test, and what each output is expected to show.  The worker
process hands gcrkit only these specs and points.  Nothing here imports
gcrkit.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("catalog-check", "sweep", "structural", "selftest")

TWO_PI = 2.0 * math.pi

# Grid sizes per scale.  "full" is what the benchmark measures; its jobs are
# kept under a second so that the reference timed before each job (see
# worker.py) sees the same host contention as the job.  "tiny" keeps the
# smoke test short.  Below 4 points per axis the torus_hypercylinder grid
# only samples profile points where it is position-principal, so neither the
# catalog grid nor its structural grid goes lower.
SCALES = {
    "full": {"catalog_grid": 5, "sweep_grid": 8, "structural_grid": 2,
             "selftest_points": 30},
    "tiny": {"catalog_grid": 4, "sweep_grid": 3, "structural_grid": 2,
             "selftest_points": 2},
}

BUNDLED = (
    "circular_hypercylinder", "cone_hypercylinder", "curve_tube",
    "rotational_sphere", "saddle_raw", "special_sqrt2",
    "spherical_hypercylinder", "tangent_cone", "torus_hypercylinder",
    "torus_so2_x_so2",
)
ODE_SPEC = "bench/specs/so2_x_so2_ode.json"

# Seed verdicts of the plain check: these three are not position-principal,
# every other catalog surface is.
NOT_GCR = {"torus_hypercylinder": "rejected", "saddle_raw": "rejected",
           "rotational_sphere": "all_degenerate"}

STRUCTURAL_GCR = ("torus_so2_x_so2", "special_sqrt2", "tangent_cone",
                  "curve_tube", "cone_hypercylinder")
# Charts built on integrated, interpolated frames get the relaxed bound.
INTERPOLATED = {"curve_tube"}

# ACCEPTANCE 5 bounds on structural residuals, ACCEPTANCE 1 bound on the
# Gauss/Codazzi self-test, and the margin a rejected surface must clear.
STRUCTURAL_PLAIN = 1e-4
STRUCTURAL_RELAXED = 1e-3
SELFTEST_BOUND = 1e-6
REJECT_MARGIN = 1e-3

PLAIN_STRUCTURAL_KEYS = ("r_geodesic", "r_k1", "r_theta_flat", "r_shape_coeff", "r_omega")


def _report_job(name, source, grid, full, expect):
    return {"id": name, "source": source, "grid": grid, "full": full, "expect": expect}


def _catalog_check(rng, scale):
    grid = scale["catalog_grid"]
    jobs = [
        _report_job(name, {"file": f"{name}.json"}, grid, False,
                    {"verdict": NOT_GCR.get(name, "gcr")})
        for name in BUNDLED
    ]
    jobs.append(_report_job("so2_x_so2_ode", {"file": ODE_SPEC}, grid, False,
                            {"verdict": "gcr"}))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _sweep(rng, scale):
    a = 1.6 + 0.8 * rng.random()
    b = 1.2 + 0.6 * rng.random()
    c = 0.2 + 0.3 * rng.random()
    spec = {
        "name": "seeded doubly rotational sweep",
        "family": "so2_x_so2",
        "parameters": {"f": f"{a!r}+cos(s)", "g": f"{b!r}+{c!r}*sin(s)"},
        "domain": {"s": [0.1, 2.9], "t": [0.0, TWO_PI], "u": [0.0, TWO_PI]},
    }
    return [_report_job("so2_x_so2_sweep", {"inline": spec}, scale["sweep_grid"], False,
                        {"verdict": "gcr", "secondary_agrees": True})]


def _structural(rng, scale):
    grid = scale["structural_grid"]
    jobs = [
        _report_job(name, {"file": f"{name}.json"}, grid, True,
                    {"verdict": "gcr", "structural": "bounded",
                     "interpolated": name in INTERPOLATED})
        for name in STRUCTURAL_GCR
    ]
    jobs.append(_report_job("torus_hypercylinder", {"file": "torus_hypercylinder.json"}, 4,
                            True, {"verdict": "rejected", "structural": "skip_rule"}))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _family_spec(tag, rng):
    """A randomized family instance as a spec document, drawn like the test
    suite's randomized families, with its chart box spelled out."""
    if tag == "hypercylinder_rotational":
        a = 1.6 + 0.8 * rng.random()
        params = {"f": f"{a!r}+cos(s)", "g": "sin(s)"}
        box = {"s": [0.0, TWO_PI], "t": [0.0, TWO_PI], "u": [-1.0, 1.0]}
    elif tag == "conical_hypercylinder":
        params = {"c1": 0.3 + 0.6 * rng.random(), "c2": 0.5 + 0.6 * rng.random()}
        box = {"s": [0.5, 2.5], "t": [0.0, TWO_PI], "u": [-1.0, 1.0]}
    elif tag == "so2_x_so2":
        a = 1.6 + 0.8 * rng.random()
        b = 1.2 + 0.6 * rng.random()
        c = 0.2 + 0.3 * rng.random()
        params = {"f": f"{a!r}+cos(s)", "g": f"{b!r}+{c!r}*sin(s)"}
        box = {"s": [0.1, 2.9], "t": [0.0, TWO_PI], "u": [0.0, TWO_PI]}
    elif tag == "rotational":
        a = 0.8 + 0.4 * rng.random()
        b = 1.3 + 0.5 * rng.random()
        c = 0.2 + 0.2 * rng.random()
        params = {"f": f"{a!r}*sin(s)+0.2*s", "g": f"{b!r}+{c!r}*cos(s)"}
        box = {"s": [-0.7, 0.7], "t": [0.35, 2.79], "u": [0.0, TWO_PI]}
    elif tag == "tangent_cone":
        c = 0.1 + 0.3 * rng.random()
        phase = 1.0 + rng.random()
        a = 0.55 + 0.25 * rng.random()
        b = math.sqrt(1.0 - a * a)
        params = {"c": c, "y": [f"{a!r}*cos(v/{a!r})", f"{a!r}*sin(v/{a!r})",
                                f"{b!r}*cos(w/{b!r}+{phase!r})",
                                f"{b!r}*sin(w/{b!r}+{phase!r})"]}
        box = {"s": [0.75, 2.25], "v": [0.0, TWO_PI], "w": [0.0, TWO_PI]}
    elif tag == "curve_tube":
        c = 0.3 + 0.4 * rng.random()
        d = 0.3 + 0.3 * rng.random()
        cd, sd = math.cos(d), math.sin(d)
        params = {"c": c, "alpha": [f"{cd!r}*cos(w)", f"{cd!r}*sin(w)",
                                    f"{sd!r}*cos(2*w)", f"{sd!r}*sin(2*w)"]}
        box = {"s": [0.5, 2.0], "v": [0.0, math.pi], "w": [0.0, TWO_PI]}
    elif tag == "special_sqrt2":
        shift = 0.3 * rng.random()
        params = {}
        box = {"s": [0.5 + shift, 2.5 + shift], "t": [0.0, TWO_PI], "u": [0.0, TWO_PI]}
    elif tag == "product_cylinder":
        a = 1.6 + 0.8 * rng.random()
        params = {"base": [f"({a!r}+cos(s))*cos(t)", f"({a!r}+cos(s))*sin(t)", "sin(s)"]}
        box = {"s": [0.0, TWO_PI], "t": [0.0, TWO_PI], "u": [-1.0, 1.0]}
    else:
        raise ValueError(f"no randomizer for family {tag!r}")
    return {"name": f"random {tag}", "family": tag, "parameters": params, "domain": box}


SELFTEST_FAMILIES = (
    "hypercylinder_rotational", "conical_hypercylinder", "so2_x_so2", "rotational",
    "tangent_cone", "curve_tube", "special_sqrt2", "product_cylinder",
)


def _selftest(rng, scale):
    jobs = []
    for tag in SELFTEST_FAMILIES:
        spec = _family_spec(tag, rng)
        box = np.array(list(spec["domain"].values()))
        lo, span = box[:, 0], box[:, 1] - box[:, 0]
        margin = 0.12
        unit = margin + (1 - 2 * margin) * rng.random((scale["selftest_points"], len(box)))
        points = (lo + span * unit).tolist()
        jobs.append({"id": tag, "source": {"inline": spec}, "points": points,
                     "expect": {"bound": SELFTEST_BOUND}})
    return jobs


def make_plan(workload: str, seed: int, scale: str = "full") -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    build = {"catalog-check": _catalog_check, "sweep": _sweep,
             "structural": _structural, "selftest": _selftest}[workload]
    return {"workload": workload, "seed": seed, "scale": scale,
            "jobs": build(rng, SCALES[scale])}


def corrupt(plan: dict) -> dict:
    """Negative control: invert one expected verdict, so the gate must fail."""
    job = plan["jobs"][0]
    expect = job["expect"]
    if "bound" in expect:
        expect["bound"] = -1.0
    else:
        expect["verdict"] = "rejected" if expect["verdict"] == "gcr" else "gcr"
    return plan


# -- gates ----------------------------------------------------------------------------


def check_report(doc: dict, expect: dict) -> list[str]:
    """Problems with one report document against its expected verdicts."""
    problems = []
    summary = doc["summary"]
    tol = doc["tolerances"]["tol_gcr"]
    is_gcr = summary["flags"]["is_gcr"]
    primary = summary["max_gcr_primary"]
    verdict = expect["verdict"]
    if verdict == "gcr":
        if is_gcr is not True or primary is None or not primary < tol:
            problems.append(f"expected position-principal, got is_gcr={is_gcr} primary={primary}")
    elif verdict == "rejected":
        if is_gcr is not False or primary is None or not primary > REJECT_MARGIN:
            problems.append(f"expected rejection, got is_gcr={is_gcr} primary={primary}")
    elif verdict == "all_degenerate":
        if is_gcr is not False or primary is not None or (
            summary["points_degenerate"] != summary["points_regular"]
        ):
            problems.append("expected every point degenerate")
    if expect.get("secondary_agrees"):
        secondary = summary["max_gcr_secondary"]
        if secondary is None or not secondary < tol:
            problems.append(f"secondary residual {secondary} disagrees with the primary verdict")
    rule = expect.get("structural")
    if rule == "bounded":
        plain = STRUCTURAL_RELAXED if expect.get("interpolated") else STRUCTURAL_PLAIN
        for rec in doc["per_point"]:
            if rec["degenerate"]:
                continue
            st = rec["structural"]
            if st is None:
                problems.append(f"no structural residuals at {rec['point']}")
                continue
            for key in PLAIN_STRUCTURAL_KEYS:
                if not st[key] < plain:
                    problems.append(f"{key} {st[key]} at {rec['point']}")
            for key, value in st["details"].items():
                relaxed = expect.get("interpolated") or "nested" in key
                if not value < (STRUCTURAL_RELAXED if relaxed else STRUCTURAL_PLAIN):
                    problems.append(f"{key} {value} at {rec['point']}")
    elif rule == "skip_rule":
        for rec in doc["per_point"]:
            primary_here = rec["gcr_primary"]
            if primary_here is not None and primary_here >= tol and (
                rec["structural"] is not None or not rec["structural_note"]
            ):
                problems.append(f"structural check not skipped at {rec['point']}")
    return problems
