"""gcrkit benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gcrkit is imported from ./src, never
from an installed copy.  Each workload is a closed loop with one client: jobs
run back to back in one fresh worker process with GCRKIT_THREADS=1 and one
BLAS thread.  See bench/README.md for the workloads and metrics.

--trace 0 reports the end-to-end metrics of the named workload:

    setup_s       median over fresh interpreters, started between passes, of
                  the time to import gcrkit and load and build every surface
    points_per_s  classified grid points (self-test: checked sample points)
                  over the sum of each job's median time across passes
    peak_rss_mb   maximum resident set of the measuring worker
    ok_frac       operations that returned and passed their gate, over
                  operations attempted (reports, or self-test points)

Set-up and job times are corrected for host contention by a reference
computation timed next to them (see worker.py).

--trace 1 runs every workload once untraced and once traced, each in its own
worker, and reports the per-layer metrics of all of them, named
``<workload>.<layer metric>``; counts repeat exactly for a given seed.

The last stdout line is the result; the line before it records the
environment, the failure fraction with its base, and run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 170

# Per-layer metrics reported by the traced run, per workload, as
# (layer metric, unit).  Which end-to-end metric each should move is in
# bench/README.md.
_PLAIN_POINT_LAYERS = [
    ("expr.eval_expr.calls", "count"), ("expr.eval_expr.self_s", "s"),
    ("geometry.evaluate_jets.o2.calls", "count"),
    ("geometry.evaluate_jets.o2.us_per_call", "us"),
    ("geometry.point_geometry.calls", "count"),
    ("geometry.point_geometry.us_per_call", "us"),
    ("geometry.point_geometry.self_s", "s"),
    ("geometry.principal_data.us_per_call", "us"),
    ("gcr.position_angles.calls", "count"), ("gcr.position_angles.us_per_call", "us"),
    ("gcr.position_angles.self_s", "s"), ("gcr.gcr_residual.us_per_call", "us"),
]
_REPORT_LAYERS = [
    ("gcr.classify_surface.s", "s"), ("cli.report_to_dict.s", "s"),
    ("cli.canonical_json.s", "s"), ("cli.report_bytes", "bytes"),
    ("gcr.classified_points", "count"),
]
LAYER_METRICS = {
    "catalog-check": [
        ("catalog.integrate_profile.s", "s"), ("catalog.build_normal_frame.s", "s"),
        ("cli.build_surface.s", "s"), ("catalog.HermiteCurve.component.calls", "count"),
        *_PLAIN_POINT_LAYERS, ("gcr.point_geometry_per_point", "ratio"), *_REPORT_LAYERS,
    ],
    "sweep": [
        ("catalog.HermiteCurve.component.calls", "count"), *_PLAIN_POINT_LAYERS,
        ("gcr.point_geometry_per_point", "ratio"), *_REPORT_LAYERS,
    ],
    "structural": [
        ("geometry.evaluate_jets.o2.calls", "count"),
        ("geometry.evaluate_jets.o2.us_per_call", "us"),
        ("gcr.position_angles.calls", "count"), ("gcr.position_angles.us_per_call", "us"),
        ("gcr.position_angles.self_s", "s"), ("gcr.gcr_residual.us_per_call", "us"),
        ("gcr.structural_residuals.calls", "count"),
        ("gcr.structural_residuals.us_per_call", "us"),
        ("gcr.structural_residuals.self_s", "s"),
        ("gcr.point_geometry_per_point", "ratio"), ("gcr.structural_run_frac", "ratio"),
        ("gcr.regular_points", "count"), *_REPORT_LAYERS,
    ],
    "selftest": [
        ("geometry.evaluate_jets.o3.calls", "count"),
        ("geometry.evaluate_jets.o3.us_per_call", "us"),
        ("geometry.fd_completed_jets", "count"),
        ("geometry.derivative_bundle.calls", "count"),
        ("geometry.derivative_bundle.us_per_call", "us"),
        ("geometry.derivative_bundle.self_s", "s"),
        ("gcr.position_angles.calls", "count"),
    ],
}
for _metrics in LAYER_METRICS.values():
    _metrics.append(("trace.overhead_s", "s"))


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(mode: str, plan: dict, seconds: float = 0.0) -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")
    }
    env.update(GCRKIT_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, str(SRC), repr(seconds)],
            input=json.dumps(plan), capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        revision = "git unavailable"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_revision": revision,
        "source_sha256": digest.hexdigest(), "seed": seed, "workers": 1,
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_end_to_end(plan: dict, seconds: float):
    result = _worker("measure", plan, seconds)
    attempted, failed = result["attempted"], result["failed"]
    metrics = {
        "setup_s": _metric(result["setup_s"], "s"),
        "points_per_s": _metric(result["points_per_s"], "points/s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    details = {key: result[key] for key in (
        "setup_raw_samples_s", "passes", "measured_s", "points_per_pass",
        "points_per_s_raw", "reference_s", "problems")}
    return attempted, failed, metrics, details


def _layer_values(plan: dict, plain: dict, traced: dict) -> dict:
    workload = plan["workload"]
    layers, counts = traced["layers"], traced["counts"]
    calls = layers["calls"]

    def per_call_us(name):
        return layers["s"].get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

    points = traced["classified_points"]
    pg_calls = calls.get("geometry.point_geometry", 0)
    derived = {
        "cli.report_bytes": traced["report_bytes"],
        "gcr.classified_points": points,
        "gcr.regular_points": traced["regular_points"],
        "gcr.point_geometry_per_point": pg_calls / points if points else 0.0,
        "gcr.structural_run_frac": (
            calls.get("gcr.structural_residuals", 0) / traced["regular_points"]
            if traced["regular_points"] else 0.0
        ),
        "geometry.fd_completed_jets": counts.get("geometry.fd_completed_jets", 0),
        "trace.overhead_s": traced["pass_s"] - plain["pass_s"],
    }
    # Invariants that show a call path the tracer missed.
    checks = [
        ("gcr.classify_surface", traced["reports"]),
        ("cli.build_surface", len(plan["jobs"])),
        ("geometry.derivative_bundle", traced["selftest_points"]),
    ]
    if workload in ("catalog-check", "sweep"):
        checks.append(("geometry.point_geometry", points))
    for name, expected in checks:
        if calls.get(name, 0) != expected:
            raise BenchError(f"{workload}: traced {name} calls {calls.get(name, 0)} != {expected}")
    values = {}
    for name, _unit in LAYER_METRICS[workload]:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".us_per_call"):
            values[name] = per_call_us(name[: -len(".us_per_call")])
        elif name.endswith(".self_s"):
            values[name] = layers["self_s"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = layers["s"].get(name[: -len(".s")], 0.0)
        else:
            raise BenchError(f"no rule for layer metric {name}")
    return values


def run_traced(seed: int, scale: str):
    attempted = failed = 0
    metrics, details = {}, {}
    for workload in workloads.WORKLOADS:
        plan = workloads.make_plan(workload, seed, scale)
        plain = _worker("once", plan)
        traced = _worker("trace", plan)
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = _layer_values(plan, plain, traced)
        for name, unit in LAYER_METRICS[workload]:
            metrics[f"{workload}.{name}"] = _metric(values[name], unit)
        details[workload] = {
            "untraced_pass_s": plain["pass_s"], "traced_pass_s": traced["pass_s"],
            "spans": traced["spans"], "problems": traced["problems"],
        }
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="negative control: invert one expected verdict")
    args = parser.parse_args(argv)

    if not (SRC / "gcrkit" / "__init__.py").is_file():
        print(f"error: no gcrkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            attempted, failed, metrics, details = run_traced(args.seed, args.scale)
        else:
            plan = workloads.make_plan(args.workload, args.seed, args.scale)
            if args.corrupt_expected:
                workloads.corrupt(plan)
            attempted, failed, metrics, details = run_end_to_end(plan, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "scale": args.scale,
        "environment": _environment(args.seed),
        "fail_frac": failed / attempted, "fail_frac_base": f"{attempted} operations attempted",
        "details": details,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
