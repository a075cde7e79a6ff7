"""One workload in one fresh interpreter; started by run.py, not by hand.

Reads a plan (see workloads.py) as JSON on stdin and prints one JSON line:

    setup    import gcrkit, load and build every surface; report the time
    measure  set up, then run passes over the plan until SECONDS pass,
             timing each job and checking each output
    once     set up, then run and check one pass
    trace    install the tracer, then as ``once``, plus per-layer spans

Every job is preceded by a timing of the reference computation below.

Usage: python3 bench/worker.py MODE SRC_DIR SECONDS < plan.json
"""

import time

_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

MODE, SRC, SECONDS = sys.argv[1], os.path.abspath(sys.argv[2]), float(sys.argv[3])
PLAN = json.load(sys.stdin)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, SRC)

TRACER = None
if MODE == "trace":
    import tracer as tracing  # noqa: E402

    TRACER = tracing.Tracer()

import gcrkit  # noqa: E402,F401
from gcrkit import cli, gcr, geometry  # noqa: E402

if not os.path.abspath(gcrkit.__file__).startswith(SRC + os.sep):
    sys.exit(f"gcrkit imported from {gcrkit.__file__}, not from {SRC}")
if TRACER is not None:
    TRACER.install()

MIN_PASSES = 3
SETUP_SAMPLES = 7


def build(job):
    if TRACER is not None:
        TRACER.job = f"setup:{job['id']}"
    source = job["source"]
    spec = cli.load_spec(source["file"]) if "file" in source else source["inline"]
    return cli.build_surface(spec)


SURFACES = [build(job) for job in PLAN["jobs"]]
SETUP_S = time.perf_counter() - _T0

import math  # noqa: E402

import numpy as np  # noqa: E402

from workloads import check_report  # noqa: E402

# Other tenants of a shared host can slow every process on a core by up to
# 2x for minutes at a time, and CPU time rises with wall time, so neither
# clock is steady from run to run.  A fixed reference computation timed
# right before each job slows by about the same factor, so reported times
# are measured in units of it and rescaled to the speed at which it takes
# REFERENCE_S: its typical time on an idle core of a 2.1 GHz Xeon
# (Sapphire Rapids) under Python 3.11 and numpy 2.4.  The reference mimics
# gcrkit's per-point work (small-array jet arithmetic, then a 3x3 curvature
# solve), because work of another mix responds to contention differently:
# on 300 s of paired samples of the sweep job on a 2-vCPU guest of that
# type, it cut the interquartile spread of 20 s medians from 17% to 7%,
# where a loop of scalar arithmetic and solves only reached 14%.
REFERENCE_S = 0.004


class _Jet2:
    """Value, gradient and Hessian of a scalar in three variables."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def scaled(self, factor, offset):
        return _Jet2(self.v * factor + offset, self.g * factor, self.h * factor)

    def __mul__(self, other):
        outer = np.outer(self.g, other.g)
        return _Jet2(self.v * other.v, self.v * other.g + other.v * self.g,
                     self.v * other.h + other.v * self.h + outer + outer.T)

    def trig(self, sine: bool):
        s, c = math.sin(self.v), math.cos(self.v)
        value, d1, d2 = (s, c, -s) if sine else (c, -s, -c)
        return _Jet2(value, d1 * self.g, d1 * self.h + d2 * np.outer(self.g, self.g))


def reference_seconds() -> float:
    """Wall time of a fixed computation: second-order jets of a doubly
    rotational chart at 36 points, each followed by its shape operator's
    eigenvalues."""
    start = time.perf_counter()
    eye, zero = np.eye(3), np.zeros((3, 3))
    for i in range(36):
        s, t, u = (_Jet2(v, eye[k], zero) for k, v in
                   enumerate((0.3 + 0.01 * i, 1.0 + 0.02 * i, 2.0 - 0.01 * i)))
        f = s.trig(False).scaled(1.0, 2.0)
        g = s.trig(True).scaled(0.3, 1.5)
        x = [f * t.trig(False), f * t.trig(True), g * u.trig(False), g * u.trig(True)]
        jac = np.stack([c.g for c in x])
        normal = np.linalg.svd(jac)[0][:, -1]
        second = np.einsum("cij,c->ij", np.stack([c.h for c in x]), normal)
        np.linalg.eigh(np.linalg.solve(jac.T @ jac, second) + eye)
    return time.perf_counter() - start


def run_report(job, surface):
    """One `check` report: classify, then serialize.  Returns (seconds,
    points, text, document)."""
    m, echo = surface
    start = time.perf_counter()
    report = gcr.classify_surface(
        m, gcr.GridSpec((job["grid"],) * m.n), gcr.Tolerances(),
        include_structural=job["full"],
    )
    doc = cli.report_to_dict(report, echo, job["full"])
    text = cli.canonical_json(doc)
    elapsed = time.perf_counter() - start
    return elapsed, doc["summary"]["points_total"], text, doc


def run_selftest_point(m, point):
    start = time.perf_counter()
    bundle = geometry.derivative_bundle(m, point)
    residual = max(geometry.codazzi_residual_from_bundle(bundle),
                   geometry.gauss_residual_from_bundle(bundle))
    return time.perf_counter() - start, residual


class Pass:
    """Runs every job once, checks every output and tallies operations.

    ``first`` holds each operation's output from the first pass, so a later
    pass that gives different bytes (or residuals) counts as a failure."""

    def __init__(self):
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report_bytes = 0
        self.classified = 0
        self.regular = 0

    def _fail(self, key, why):
        self.failed += 1
        problem = f"{key}: {why}"
        if len(self.problems) < 20 and problem not in self.problems:
            self.problems.append(problem)

    def _repeatable(self, key, output):
        return self.first.setdefault(key, output) == output

    def run(self) -> dict:
        """One pass; returns {job id: (seconds, points, reference seconds)},
        or None for a job that raised.  The reference is the median of three
        timings right before the job."""
        times = {}
        for job, surface in zip(PLAN["jobs"], SURFACES):
            reference = statistics.median(reference_seconds() for _ in range(3))
            if TRACER is not None:
                TRACER.job = job["id"]
            if "points" in job:
                result = self._selftest(job, surface)
            else:
                result = self._report(job, surface)
            times[job["id"]] = None if result is None else (*result, reference)
        return times

    def _report(self, job, surface):
        self.attempted += 1
        try:
            elapsed, points, text, doc = run_report(job, surface)
        except Exception as exc:  # a raising report is a failed operation
            self._fail(job["id"], f"raised {type(exc).__name__}: {exc}")
            return None
        problems = check_report(doc, job["expect"])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if not self._repeatable(job["id"], digest):
            problems.append("report bytes differ from the first pass")
        if problems:
            self._fail(job["id"], "; ".join(problems[:3]))
        self.report_bytes += len(text.encode())
        self.classified += points
        self.regular += doc["summary"]["points_regular"]
        return elapsed, points

    def _selftest(self, job, surface):
        m, _ = surface
        bound = job["expect"]["bound"]
        total = 0.0
        for index, point in enumerate(job["points"]):
            key = f"{job['id']}#{index}"
            self.attempted += 1
            try:
                elapsed, residual = run_selftest_point(m, point)
            except Exception as exc:  # a raising point is a failed operation
                self._fail(key, f"raised {type(exc).__name__}: {exc}")
                continue
            total += elapsed
            if not residual < bound:
                self._fail(key, f"Gauss/Codazzi residual {residual:.3e} >= {bound:.1e}")
            elif not self._repeatable(key, residual):
                self._fail(key, "residual differs from the first pass")
        return total, len(job["points"])


def setup_sample() -> dict:
    """Set-up time of a fresh interpreter given the same plan."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", SRC, "0"],
        input=json.dumps(PLAN), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"setup sample failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure():
    runner = Pass()
    samples: dict = {job["id"]: [] for job in PLAN["jobs"]}
    setups: list[dict] = []
    busy = 0.0
    passes = 0
    while True:
        start = time.perf_counter()
        for job_id, result in runner.run().items():
            if result is not None:
                samples[job_id].append(result)
        busy += time.perf_counter() - start
        passes += 1
        # Set-up samples are spread over the run, between passes, so they
        # see the same host contention as the passes do.
        if len(setups) < SETUP_SAMPLES and busy >= len(setups) * SECONDS / SETUP_SAMPLES:
            setups.append(setup_sample())
        if passes >= MIN_PASSES and busy * (passes + 1) / passes > SECONDS:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    # A pass takes the sum over jobs of each job's median time across
    # passes: raw, and in units of the reference time measured just before
    # the job, which cancels most host contention.
    done = [runs for runs in samples.values() if runs]
    points = sum(runs[0][1] for runs in done)
    raw_s = sum(statistics.median(t for t, _, _ in runs) for runs in done)
    relative = sum(statistics.median(t / ref for t, _, ref in runs) for runs in done)
    return {
        "setup_s": statistics.median(sample["setup_s"] for sample in setups),
        "setup_raw_samples_s": [sample["setup_raw_s"] for sample in setups],
        "passes": passes,
        "measured_s": busy,
        "points_per_pass": points,
        "points_per_s": points / (relative * REFERENCE_S),
        "points_per_s_raw": points / raw_s,
        "reference_s": statistics.median(ref for runs in done for _, _, ref in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
    }


def once():
    """One pass.  Times are in reference-corrected seconds, like those of
    ``measure``: each job's by the reference timed before it, and set-up
    spans by the pass's median reference."""
    runner = Pass()
    results = {job_id: r for job_id, r in runner.run().items() if r}
    scale = {job_id: REFERENCE_S / ref for job_id, (_, _, ref) in results.items()}
    setup_scale = statistics.median(scale.values()) if scale else 1.0
    out = {"pass_s": sum(t * scale[job_id] for job_id, (t, _, _) in results.items()),
           "attempted": runner.attempted, "failed": runner.failed,
           "problems": runner.problems,
           "classified_points": runner.classified, "regular_points": runner.regular,
           "report_bytes": runner.report_bytes,
           "reports": sum(1 for job in PLAN["jobs"] if "points" not in job),
           "selftest_points": sum(len(job.get("points", ())) for job in PLAN["jobs"])}
    if TRACER is not None:
        out["layers"] = tracing.summarize(
            TRACER.spans, lambda job: scale.get(job, setup_scale))
        out["counts"] = dict(TRACER.counts)
        out["spans"] = len(TRACER.spans)
    return out


if __name__ == "__main__":
    if MODE == "setup":
        reference_seconds()  # first numpy solve pays one-off initialization
        speed = statistics.median(reference_seconds() for _ in range(5)) / REFERENCE_S
        result = {"setup_s": SETUP_S / speed, "setup_raw_s": SETUP_S}
    elif MODE == "measure":
        result = measure()
    elif MODE in ("once", "trace"):
        result = once()
    else:
        sys.exit(f"unknown mode {MODE!r}")
    print(json.dumps(result))
