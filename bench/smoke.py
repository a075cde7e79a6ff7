"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and as a
negative control with one expected verdict inverted; runs the traced mode
twice with one seed and requires its counts to repeat exactly; and requires
the benchmark to fail, printing no result, in a copy of BENCHMARK.json and
bench/ that has no gcrkit sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TIMEOUT_S = 300
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"unexpected result keys {sorted(out)}")
    return out


def units(out: dict) -> dict:
    return {name: metric["unit"] for name, metric in out["metrics"].items()}


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    tiny = ("--seed", "7", "--seconds", "1", "--scale", "tiny")

    for workload in (w["name"] for w in SPEC["workloads"]):
        out = result(bench("--workload", workload, "--trace", "0", *tiny))
        check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
              f"{workload}: every operation passes its gate ({out['attempted']} attempted)")
        check(units(out) == end_to_end, f"{workload}: end-to-end metrics and units")
        check(all(m["value"] > 0 for m in out["metrics"].values()),
              f"{workload}: end-to-end metrics are positive")

        bad = result(bench("--workload", workload, "--trace", "0", "--corrupt-expected", *tiny))
        check(not bad["correct"] and bad["failed"] > 0
              and bad["metrics"]["ok_frac"]["value"] < 1.0,
              f"{workload}: a corrupted expected verdict raises the failure fraction "
              f"({bad['failed']}/{bad['attempted']})")

    first = result(bench("--workload", "sweep", "--trace", "1", *tiny))
    second = result(bench("--workload", "sweep", "--trace", "1", *tiny))
    check(first["correct"] and units(first) == per_layer, "traced run: per-layer metrics and units")
    exact = [name for name, unit in per_layer.items() if unit in ("count", "bytes", "ratio")]
    differ = [name for name in exact
              if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    check(not differ, f"traced run: {len(exact)} counts repeat exactly {differ[:5]}")

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "sweep", "--trace", "0", *tiny, root=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without sources: exit {proc.returncode} and no result")
    finally:
        shutil.rmtree(bare)

    print(f"{len(FAILURES)} failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
