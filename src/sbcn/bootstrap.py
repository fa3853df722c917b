"""Nonparametric bootstrap for arc confidence and confidence-based pruning.

Each replicate relearns the structure on rows resampled with replacement;
an arc's confidence is the fraction of replicates that retrieve it.  Arcs
below a confidence threshold are pruned from the model and the CPTs are
refit on the original data for the reduced structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .learn import LearnOptions, fit_cpts, learn_structure
from .model import BinaryDataset, Dag, SbcnModel, _by_arc, _dumps_indent2, _json_object
from .seeds import derive_seed


@dataclass(frozen=True)
class BootstrapReport:
    """Arc retrieval frequencies over ``replicates`` bootstrap reruns, and the ``threshold`` :func:`prune` applies."""

    replicates: int
    confidence: dict[tuple[int, int], float]
    threshold: float = 0.5

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:  # NaN fails this test too
            raise ValueError(f"threshold is {self.threshold}, outside [0, 1]")
        for edge, c in self.confidence.items():
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"confidence for arc {edge} is {c}, outside [0, 1]")

    def to_json(self) -> str:
        obj = {
            "replicates": self.replicates,
            "threshold": self.threshold,
            "confidence": sorted([u, v, float(c)] for (u, v), c in self.confidence.items()),
        }
        return _dumps_indent2(obj) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BootstrapReport":
        def build(replicates, threshold, confidence):
            return cls(replicates, _by_arc("confidence", confidence), threshold)
        return _json_object(text, "bootstrap report", _REPORT_KEYS, build=build)


#: The keys of a bootstrap report file, with their types (``model._json_value``).
_REPORT_KEYS = {"replicates": int, "threshold": float, "confidence": tuple[tuple[int, int, float], ...]}


def resample(dataset: BinaryDataset, seed: int) -> BinaryDataset:
    """Rows drawn i.i.d. uniformly with replacement; names and ranks kept."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, dataset.m, size=dataset.m)
    return BinaryDataset(dataset.values[idx], dataset.names, dataset.rank)


def _fan_out(fn, tasks: list, threads: int | None) -> list:
    """``[fn(t) for t in tasks]``, in task order, on at most ``threads`` worker processes
    (0 or None uses all cores) and one per task, since a pool forks all its workers at
    its first submit; serially when that is one.  Each worker takes one task at a time."""
    workers = min(threads or os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here so that serial runs do not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _replicate_edges(args) -> frozenset[tuple[int, int]]:
    dataset, options, learner, b = args
    rep_data = resample(dataset, derive_seed(options.seed, 1, b))
    rep_options = replace(options, seed=derive_seed(options.seed, 2, b))
    return learn_structure(rep_data, rep_options, learner).edges


def edge_confidence(
    dataset: BinaryDataset,
    options: LearnOptions,
    replicates: int = 100,
    model: SbcnModel | None = None,
    learner: str = "sbcn",
    threads: int | None = 1,
) -> BootstrapReport:
    """Arc retrieval frequency over ``replicates`` resampled relearns.

    The report covers every arc of the model learned on the original data
    (pass ``model`` to reuse one already learned with the same options)
    plus any arc retrieved in at least one replicate.  Replicate seeds are
    derived from ``options.seed``, and aggregation is a fixed-order
    reduction, so the report is reproducible and independent of ``threads``
    (worker processes; 0 or None uses all cores).  ``learner`` names the entry
    of ``sbcn.learn.LEARNERS`` that produced ``model`` ("sbcn" or the
    unconstrained baseline "bn").  Only arcs are counted, so every learn
    here is ``learn_structure``: no CPTs are fitted.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    learned = learn_structure(dataset, options, learner) if model is None else model.dag
    tasks = [(dataset, options, learner, b) for b in range(replicates)]
    edge_sets = _fan_out(_replicate_edges, tasks, threads)
    counts: dict[tuple[int, int], int] = {e: 0 for e in sorted(learned.edges)}
    for edges in edge_sets:
        for e in sorted(edges):
            counts[e] = counts.get(e, 0) + 1
    confidence = {e: c / replicates for e, c in counts.items()}
    return BootstrapReport(replicates, confidence)


def prune(
    model: SbcnModel, report: BootstrapReport, dataset: BinaryDataset, smoothing: float = 1.0
) -> SbcnModel:
    """Drop arcs with confidence below ``report.threshold`` and refit the CPTs.

    Arcs missing from the report count as confidence 0.  Keeping is
    inclusive: an arc exactly at the threshold survives.  CPTs are refit on
    the original data because removing a parent changes table dimensions.
    The surviving arcs' confidences are stored on the returned model.
    """
    kept = {e for e in model.dag.edges if report.confidence.get(e, 0.0) >= report.threshold}
    pruned = fit_cpts(dataset, Dag(model.n, kept), smoothing)
    confidence = {e: report.confidence.get(e, 0.0) for e in kept}
    return SbcnModel(pruned.dag, pruned.cpts, model.rank, confidence, model.names)
