#!/usr/bin/env python3
"""Quick self-test of the benchmark.

Runs every workload at tiny sizes (``--scale small``), with tracing off and
on, and checks that each run reports no failed operation and emits exactly
the metrics BENCHMARK.json names, with their units.  It also checks that a
directory holding only BENCHMARK.json and perfbench/ makes the benchmark
exit nonzero without printing a result.  Takes about a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7919)  # the development seed and a held-out one


def run(root: Path, workload: str, trace: int, seed: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def result_problems(done: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"failed operations: {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted is {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    units = {name: m.get("unit") for name, m in metrics.items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        problems.append(f"metric names or units differ; missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} has value {m.get('value')!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for i, workload in enumerate(w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            seed = SEEDS[(i + trace) % len(SEEDS)]
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = result_problems(run(ROOT, workload, trace, seed), expected)
            failures += [f"{workload} --trace {trace} --seed {seed}: {p}" for p in problems]
            print(f"{workload} trace={trace} seed={seed}: {'ok' if not problems else 'FAILED'}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, spec["workloads"][0]["name"], 0, SEEDS[0])
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("a directory without the package sources did not fail cleanly")
    print(f"without sources: exit code {done.returncode}")

    for failure in failures:
        print(f"FAILED {failure}")
    print("self-test passed" if not failures else f"self-test failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
