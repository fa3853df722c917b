"""The benchmark workloads: inputs made from a seed, the timed operation,
and the checks on its outputs.

Each workload drives the package only through its public API or its CLI
entry point ``sbcn.cli.main``, called in-process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from sbcn.bootstrap import BootstrapReport
from sbcn.classifier import DecisionTree, risky_paths
from sbcn.cli import main as sbcn_main
from sbcn.datagen import ground_truth_dag, market_factor_spec, simulate_dataset
from sbcn.evaluation import RATE_FIELDS, SweepConfig, run_sweep
from sbcn.learn import fit_cpts
from sbcn.model import SbcnModel
from sbcn.seeds import derive_seed

THREADS = 2  # worker processes of the sweep; the benchmark targets a 2-core box


def cold_import(src: Path) -> None:
    """Start the package in a fresh interpreter, as every CLI user does."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "import sbcn.cli"], env=env, check=True, timeout=120)


def cli(argv: list[str]) -> None:
    """Run one CLI command in-process; a nonzero exit raises."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = sbcn_main(argv)
    if code != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"sbcn {argv[0]} exited {code}: {tail[0]}")


def clamp_problems(scenarios: bytes, tree_json: bytes, rows: int) -> list[str]:
    """Every stressed row must carry the values of the clamped risky path
    (the tree's first risky path, which the CLI clamps by default)."""
    tree = DecisionTree.from_json(tree_json.decode())
    paths = risky_paths(tree)
    if not paths:
        return ["the written tree has no risky path"]
    header, _, body = scenarios.partition(b"\n")
    names = header.decode().split(",")
    width = 2 * len(names)  # one digit and one separator per value
    cells = np.frombuffer(body, dtype=np.uint8)
    if cells.size != rows * width:
        return [f"scenario CSV holds {cells.size} bytes, expected {rows} rows of {len(names)} values"]
    grid = cells.reshape(rows, width)
    values = grid[:, 0::2].astype(np.int16) - ord("0")
    separators = np.full(len(names), ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    if not (np.isin(values, (0, 1)).all() and (grid[:, 1::2] == separators).all()):
        return ["scenario CSV is not a 0/1 matrix"]
    problems = []
    for feature, value in sorted(paths[0].items()):
        name = tree.feature_names[feature]
        wrong = int((values[:, names.index(name)] != value).sum())
        if wrong:
            problems.append(f"{wrong} stressed rows do not carry {name}={value}")
    return problems


class Workload:
    """One workload; subclasses set the sizes, set-up, operation and checks."""

    name = ""
    work_unit = ""
    threads = 1  # processes the untraced timed operation uses

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def read(self, *names: str) -> dict[str, bytes]:
        return {n: Path(self.path(n)).read_bytes() for n in names}

    def setup(self) -> dict[str, bytes]:
        """Write the inputs; return their bytes for the input digest."""
        raise NotImplementedError

    def run(self, threads: int, span) -> None:
        """The timed operation; ``span(name)`` brackets calls into a layer."""
        raise NotImplementedError

    def outputs(self) -> dict[str, bytes]:
        raise NotImplementedError

    def check(self, outputs: dict[str, bytes]) -> list[str]:
        raise NotImplementedError

    def probe_inputs(self):
        """(dataset, dag) for the score-kernel probe when the operation learns nothing."""
        return None


class Pipeline(Workload):
    """simulate (set-up), then infer with bootstrap and stress, single process,
    on each of several markets."""

    name = "pipeline-ff5000"
    work_unit = "learns"

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed)
        # Many markets with few replicates each: one market's learn cost
        # varies by ~15% with its random loadings, the mean over 8 by about 5%.
        self.markets = 1 if small else 8
        self.samples = 400 if small else 5000
        self.replicates = 2
        self.work = self.markets * (1 + self.replicates)

    def _seed(self, k: int) -> str:
        return str(derive_seed(self.seed, k))

    def setup(self):
        for k in range(self.markets):
            cli(["simulate", "--mode", "famafrench", "--samples", str(self.samples),
                 "--seed", self._seed(k), "--out-data", self.path(f"data{k}.csv")])
        return self.read(*(f"data{k}.csv" for k in range(self.markets)))

    def run(self, threads, span):
        for k in range(self.markets):
            with span("cli.infer"):
                cli(["infer", "--data", self.path(f"data{k}.csv"),
                     "--bootstrap", str(self.replicates), "--threads", str(threads),
                     "--seed", self._seed(k), "--out-model", self.path(f"model{k}.json"),
                     "--out-report", self.path(f"report{k}.json")])
            with span("cli.stress"):
                # At the default --risky-fraction 0.1, about 1 market in 80
                # yields a tree without a risky leaf, and stress then exits 1
                # as documented; at 0.2 none of 480 markets did.
                cli(["stress", "--model", self.path(f"model{k}.json"), "--seed", self._seed(k),
                     "--risky-fraction", "0.2", "--out-scenarios", self.path(f"scenarios{k}.csv"),
                     "--out-tree", self.path(f"tree{k}.json")])

    def outputs(self):
        return self.read(*(f"{stem}{k}.{ext}" for k in range(self.markets)
                           for stem, ext in (("model", "json"), ("report", "json"),
                                             ("scenarios", "csv"), ("tree", "json"))))

    def check(self, outputs):
        problems = []
        for k in range(self.markets):
            model = SbcnModel.from_json(outputs[f"model{k}.json"].decode())
            report = BootstrapReport.from_json(outputs[f"report{k}.json"].decode())
            if report.replicates != self.replicates:
                problems.append(f"report {k} has {report.replicates} replicates, "
                                f"expected {self.replicates}")
            confidences = list(report.confidence.values()) + list((model.confidence or {}).values())
            if not all(0.0 <= c <= 1.0 for c in confidences):
                problems.append(f"a bootstrap confidence of market {k} lies outside [0, 1]")
            rows = 100  # the stress command's default --count
            problems += clamp_problems(outputs[f"scenarios{k}.csv"], outputs[f"tree{k}.json"], rows)
        return problems


class Sweep(Workload):
    """A one-cell sparse-regime sweep with bootstrap, fanned out to workers."""

    name = "sweep-sparse250"
    work_unit = "learns"
    threads = THREADS

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed)
        # Many instances with few replicates each: one instance's learn cost
        # varies by ~15% with its random structure, the mean over 24 by about 3%.
        self.repetitions = 2 if small else 24
        self.replicates = 2 if small else 3
        self.config = {
            "generator": {"mode": "sparse"},
            "sample_sizes": [250],
            "criteria": ["bic"],
            "bootstrap": [True],
            "learners": ["sbcn"],
            "repetitions": self.repetitions,
            "seed": seed,
            "bootstrap_replicates": self.replicates,
            "max_iterations": 200 if small else 2000,
            "penalty": "parameters",
        }
        self.work = self.repetitions * (1 + self.replicates)
        self._csv = ""

    def setup(self):
        Path(self.path("sweep.json")).write_text(json.dumps(self.config, indent=2) + "\n")
        self._parsed = SweepConfig.from_json(Path(self.path("sweep.json")).read_text())
        return self.read("sweep.json")

    def run(self, threads, span):
        with span("evaluation.run_sweep"):
            self._csv = run_sweep(self._parsed, threads=threads).to_csv()

    def outputs(self):
        return {"sweep.csv": self._csv.encode()}

    def check(self, outputs):
        lines = outputs["sweep.csv"].decode().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        if len(rows) != 1:
            return [f"sweep CSV has {len(rows)} rows, expected 1"]
        problems = []
        for name in RATE_FIELDS:
            value = float(rows[0][header.index(name)])
            if not 0.0 <= value <= 1.0:
                problems.append(f"sweep rate {name}={value} lies outside [0, 1]")
        if int(rows[0][header.index("repetitions")]) != self.repetitions:
            problems.append("sweep CSV reports the wrong repetition count")
        return problems


class Stress(Workload):
    """Tree-guided stress sampling from a truth-fitted model; no learning."""

    name = "stress-2e5"
    work_unit = "scenarios"

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed)
        self.count = 2000 if small else 200000
        self.work = 2 * self.count  # scenarios for the tree plus stressed scenarios

    def setup(self):
        # positive loadings, as in the acceptance criteria on stress sampling
        spec = market_factor_spec(derive_seed(self.seed, 0), positive_loadings=True)
        self._data = simulate_dataset(spec, 5000, derive_seed(self.seed, 1))
        self._model = fit_cpts(self._data, ground_truth_dag(spec))
        Path(self.path("model.json")).write_text(self._model.to_json())
        return self.read("model.json")

    def run(self, threads, span):
        with span("cli.stress"):
            cli(["stress", "--model", self.path("model.json"), "--seed", str(self.seed),
                 "--samples-for-tree", str(self.count), "--count", str(self.count),
                 "--out-scenarios", self.path("scenarios.csv"), "--out-tree", self.path("tree.json")])

    def outputs(self):
        return self.read("scenarios.csv", "tree.json")

    def check(self, outputs):
        return clamp_problems(outputs["scenarios.csv"], outputs["tree.json"], self.count)

    def probe_inputs(self):
        return self._data, self._model.dag


WORKLOADS = {w.name: w for w in (Pipeline, Sweep, Stress)}
