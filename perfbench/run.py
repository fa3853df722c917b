#!/usr/bin/env python3
"""Benchmark of the sbcn package, one workload per run.

    python3 perfbench/run.py --workload pipeline-ff5000 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it makes a separate traced run for the per-layer metrics.
Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
metric names and units come from BENCHMARK.json at the repository root.
Full results, run metadata and the traced spans go to ``.perfbench_out/``.
See perfbench/README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# One BLAS thread per process: on a 2-core host, idle BLAS threads that
# spin beside the benchmark (and beside each sweep worker) add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from calibrate import Speedometer  # noqa: E402  (after the BLAS setting)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 7  # set-ups per run; setup_s is their median
MIN_OPS = 3  # timed operations per untraced run, at least
PROBE_CALLS = 15  # log_likelihood calls of the score-kernel probe


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(f"{name}\0{len(outputs[name])}\0".encode())
        h.update(outputs[name])
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Ledger:
    """Attempted and failed operations, their problems, and output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, list[str]] = {"inputs": [], "outputs": []}

    def record(self, label: str, kind: str, problems: list[str], sha: str | None) -> None:
        self.attempted += 1
        seen = self.digests[kind]
        if sha is not None:
            if seen and sha != seen[0]:
                problems = problems + [f"{kind} digest {sha[:16]} differs from the first {seen[0][:16]}"]
            seen.append(sha)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def run_setups(wl, ledger: Ledger, cold_import) -> tuple[list[float], list[float]]:
    """The set-ups' wall times and their times at the reference speed."""
    meter = Speedometer()
    times, normalised = [], []
    for i in range(SETUPS):
        start = time.perf_counter()
        cold_import(SRC)
        inputs = wl.setup()
        times.append(time.perf_counter() - start)
        normalised.append(meter.normalise(times[-1]))
        ledger.record(f"set-up {i}", "inputs", [], digest(inputs))
    return times, normalised


def run_op(wl, ledger: Ledger, threads: int, label: str, tracer=None) -> float:
    """One timed operation, then its output checks; returns its wall time."""
    start = time.perf_counter()
    try:
        if tracer is None:
            wl.run(threads, lambda name: nullcontext())
        else:
            tracer.run = label
            with tracer.installed(), tracer.span("op"):
                wl.run(threads, tracer.span)
        elapsed = time.perf_counter() - start
        outputs = wl.outputs()
        problems, sha = wl.check(outputs), digest(outputs)
    except Exception as exc:  # a failing operation is counted, not fatal
        elapsed = time.perf_counter() - start
        problems, sha = [f"{type(exc).__name__}: {exc}"], None
    ledger.record(label, "outputs", problems, sha)
    return elapsed


def measure_end_to_end(wl, ledger, seconds, cold_import) -> tuple[dict, dict]:
    setup, setup_norm = run_setups(wl, ledger, cold_import)
    run_op(wl, ledger, wl.threads, "warm-up op")  # checked, not timed
    meter = Speedometer()
    times: list[float] = []
    normalised: list[float] = []
    start = time.perf_counter()
    while True:
        times.append(run_op(wl, ledger, wl.threads, f"op {len(times)}"))
        normalised.append(meter.normalise(times[-1]))
        if len(times) >= MIN_OPS and time.perf_counter() - start + statistics.median(times) > seconds:
            break
    # Times at the reference speed (see calibrate.py), not plain wall
    # times: the host's slow and fast phases move the median wall time of
    # a run by 10-35% from run to run, the normalised median by a few %.
    wall = statistics.median(normalised)
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "norm_wall_s": wall,
        "norm_work_per_s": wl.work / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rate_name": f"{wl.work_unit}_per_s",
        "median_wall_s": statistics.median(times),
        "min_wall_s": min(times),
        "median_setup_wall_s": statistics.median(setup),
        "setup_times_s": setup,
        "setup_norm_times_s": setup_norm,
        "op_times_s": times,
        "op_norm_times_s": normalised,
        "kernel_times_s": meter.readings,
    }
    return metrics, detail


def measure_layers(wl, ledger, seconds, seed, cold_import) -> tuple[dict, dict]:
    from sbcn.learn import log_likelihood
    from spans import Tracer, layer_metrics

    run_setups(wl, ledger, cold_import)
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while True:  # alternate untraced and traced operations, both single-process
        plain.append(run_op(wl, ledger, 1, f"op {len(plain)}"))
        traced.append(run_op(wl, ledger, 1, f"traced op {len(traced)}", tracer))
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    per_op = [layer_metrics(tracer.spans, root) for root in tracer.spans if root.name == "op"]
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = min(traced) / min(plain)

    serial = parallel = efficiency = 0.0  # 0: the workload runs in one process
    if wl.threads > 1:
        parallel = min(run_op(wl, ledger, wl.threads, f"op {i} on {wl.threads} processes")
                       for i in range(MIN_OPS))
        serial = min(plain)
        efficiency = serial / (wl.threads * parallel)
    metrics["evaluation.serial_s"] = serial
    metrics["evaluation.parallel_s"] = parallel
    metrics["evaluation.parallel_efficiency"] = efficiency

    dataset, dag = tracer.first_learn or wl.probe_inputs()
    calls = []
    for _ in range(PROBE_CALLS):
        t = time.perf_counter()
        log_likelihood(dataset, dag)
        calls.append(time.perf_counter() - t)
    metrics["learn.log_likelihood.us_per_node"] = 1e6 * statistics.median(calls) / dag.n

    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.export(spans_path)
    detail = {"untraced_op_times_s": plain, "traced_op_times_s": traced,
              "probe_m": dataset.m, "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "sbcn" / "__init__.py").is_file():
        print(f"error: no sbcn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import sbcn

    if Path(sbcn.__file__).resolve().parent != (SRC / "sbcn").resolve():
        print(f"error: imported sbcn from {sbcn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, cold_import

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](workdir, args.seed, args.scale == "small")
    ledger = Ledger()
    try:
        if args.trace:
            measured, detail = measure_layers(wl, ledger, args.seconds, args.seed, cold_import)
        else:
            measured, detail = measure_end_to_end(wl, ledger, args.seconds, cold_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "threads": wl.threads, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
    }
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    failed_ratio = ledger.failed / ledger.attempted
    record = dict(result, meta=meta, failed_ratio=failed_ratio, problems=ledger.problems,
                  digests=ledger.digests, detail=detail)
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    print("# meta " + json.dumps(meta))
    for problem in ledger.problems:
        print(f"# FAILED {problem}")
    print(f"# output digest {ledger.digests['outputs'][0] if ledger.digests['outputs'] else 'none'}")
    print(f"failed_ratio = {failed_ratio} ({ledger.failed} of {ledger.attempted} operations)")
    if "rate_name" in detail:
        print(f"{detail['rate_name']} = {measured['norm_work_per_s']} 1/s (at the reference speed)")
        print(f"median_wall_s = {detail['median_wall_s']} s, min_wall_s = {detail['min_wall_s']} s "
              f"(plain wall times over {len(detail['op_times_s'])} operations)")
        print(f"median_setup_wall_s = {detail['median_setup_wall_s']} s (plain wall time)")
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
