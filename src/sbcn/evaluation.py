"""Arc-recovery scoring against ground truth and the benchmark sweep.

``arc_contingency`` compares an inferred structure with the generating one
arc by arc.  ``run_sweep`` crosses learners, scoring criteria, bootstrap
pruning, and sample sizes over repeated fresh simulations and reports the
averaged error rates with standard errors, as CSV and as a plain table.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .bootstrap import _fan_out, edge_confidence, prune
from .datagen import generate_instance, generator_params
from .learn import LearnOptions, _candidate_rule, learn_model
from .model import ContingencyStats, Dag, ModelSchemaError, _json_object
from .seeds import derive_seed

RATE_FIELDS = ("fp_rate_of_inferred", "fn_rate_of_true", "fpr", "tpr")


def arc_contingency(inferred: Dag, truth: Dag) -> ContingencyStats:
    """Arc-level confusion counts over all ordered pairs of distinct nodes."""
    if inferred.n != truth.n:
        raise ValueError(f"node counts differ: {inferred.n} vs {truth.n}")
    n = inferred.n
    tp = len(inferred.edges & truth.edges)
    fp = len(inferred.edges - truth.edges)
    fn = len(truth.edges - inferred.edges)
    tn = n * (n - 1) - tp - fp - fn
    return ContingencyStats(tp, fp, fn, tn)


@dataclass(frozen=True)
class SweepConfig:
    """Cross-product benchmark description; see ``from_json`` for the schema.

    ``search`` holds the search settings every cell shares; each cell sets
    its own criterion and seed on it.
    """

    generator: dict
    sample_sizes: tuple[int, ...]
    criteria: tuple[str, ...]
    bootstrap: tuple[bool, ...]
    learners: tuple[str, ...]
    repetitions: int
    seed: int
    bootstrap_replicates: int = 100
    confidence_threshold: float = 0.5
    search: LearnOptions = LearnOptions()

    #: Config keys that set the ``LearnOptions`` field of the same name: those that reach
    #: the search.  A sweep scores arcs only, so ``smoothing`` (fitted CPTs only) is not one.
    SEARCH = ("max_iterations", "restarts", "penalty")

    def __post_init__(self):
        if "mode" not in self.generator:
            raise ModelSchemaError("generator is missing keys: mode")
        try:
            generator_params(self.generator["mode"], self.generator_params)
            for learner in self.learners:
                _candidate_rule(learner)
            for crit in self.criteria:
                replace(self.search, criterion=crit)
        except ValueError as exc:
            raise ModelSchemaError(str(exc)) from None
        if any(size < 1 for size in self.sample_sizes):
            raise ModelSchemaError(f"sample_sizes entries must be >= 1, got {list(self.sample_sizes)}")
        # an empty list would run no cell, a repeated entry its cells again on the same seeds
        for key in ("sample_sizes", "criteria", "bootstrap", "learners"):
            entries = getattr(self, key)
            if not entries:
                raise ModelSchemaError(f"{key} must not be empty")
            for i, value in enumerate(entries):
                if value in entries[:i]:
                    raise ModelSchemaError(f"{key} entries must be distinct, got {value!r} twice")
        if self.repetitions < 1:
            raise ModelSchemaError("repetitions must be >= 1")
        if self.seed < 0:
            raise ModelSchemaError("seed must be >= 0")
        if self.bootstrap_replicates < 1:
            raise ModelSchemaError("bootstrap_replicates must be >= 1")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ModelSchemaError("confidence_threshold must lie in [0, 1]")

    @property
    def generator_params(self) -> dict:
        """The generator entry without its "mode"."""
        return {k: v for k, v in self.generator.items() if k != "mode"}

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Each key is read as the type of the field it sets, a ``SEARCH`` key
        as that of its ``LearnOptions`` field; fields without a default are required."""
        kinds = get_type_hints(cls) | {k: t for k, t in get_type_hints(LearnOptions).items() if k in cls.SEARCH}
        del kinds["search"]
        required = {f.name for f in fields(cls) if f.default is MISSING}

        def build(**values):
            search = LearnOptions(**{k: values.pop(k) for k in cls.SEARCH if k in values})
            return cls(search=search, **values)
        return _json_object(text, "config", kinds, kinds.keys() - required, build)


@dataclass(frozen=True)
class SweepRow:
    learner: str
    criterion: str
    bootstrap: bool
    sample_size: int
    means: dict[str, float]
    stderrs: dict[str, float]
    repetitions: int
    seed: int


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def to_csv(self) -> str:
        header = (
            ["learner", "criterion", "bootstrap", "sample_size"]
            + list(RATE_FIELDS)
            + [f"{f}_stderr" for f in RATE_FIELDS]
            + ["repetitions", "seed"]
        )
        lines = [",".join(header)]
        for r in self.rows:
            cells = [r.learner, r.criterion, "1" if r.bootstrap else "0", str(r.sample_size)]
            cells += [repr(float(r.means[f])) for f in RATE_FIELDS]
            cells += [repr(float(r.stderrs[f])) for f in RATE_FIELDS]
            cells += [str(r.repetitions), str(r.seed)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'learner':<6} {'crit':<5} {'boot':<4} {'N':>6}   {'FP%/inf':>8} {'FN%/true':>9} {'fpr':>6} {'tpr':>6}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.learner:<6} {r.criterion:<5} {'yes' if r.bootstrap else 'no':<4} "
                f"{r.sample_size:>6}   "
                f"{100 * r.means['fp_rate_of_inferred']:>8.1f} "
                f"{100 * r.means['fn_rate_of_true']:>9.1f} "
                f"{r.means['fpr']:>6.3f} {r.means['tpr']:>6.3f}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _SweepRep:
    """One repetition of one cell."""

    config: SweepConfig
    learner: str
    bootstrap: bool
    sample_size: int
    data_seed: int
    options: LearnOptions


def _sweep_rep(rep: _SweepRep) -> dict[str, float]:
    config, options = rep.config, rep.options
    _, truth, data = generate_instance(
        config.generator["mode"], config.generator_params, rep.sample_size, rep.data_seed
    )
    model = learn_model(data, options, rep.learner)
    if rep.bootstrap:
        report = edge_confidence(
            data, options, config.bootstrap_replicates, model=model, learner=rep.learner
        )
        model = prune(model, report, data, config.confidence_threshold, options.smoothing)
    stats = arc_contingency(model.dag, truth)
    return {f: getattr(stats, f) for f in RATE_FIELDS}


def run_sweep(config: SweepConfig, threads: int | None = None, log=None) -> SweepReport:
    """Evaluate every (learner, criterion, bootstrap, sample size) cell.

    Datasets are shared across cells at the same (sample size, repetition)
    so criteria and learners are compared on identical data and search
    seeds.  Repetitions fan out over worker processes; results are reduced
    in a fixed order, so the report does not depend on ``threads``.
    """
    cells = [
        (learner, criterion, boot, size)
        for learner in config.learners
        for criterion in config.criteria
        for boot in config.bootstrap
        for size in config.sample_sizes
    ]
    reps: list[_SweepRep] = []  # cell by cell, repetitions in order
    for learner, criterion, boot, size in cells:
        size_idx = config.sample_sizes.index(size)
        for rep in range(config.repetitions):
            options = replace(
                config.search, criterion=criterion, seed=derive_seed(config.seed, 1, size_idx, rep)
            )
            data_seed = derive_seed(config.seed, 0, size_idx, rep)
            reps.append(_SweepRep(config, learner, boot, size, data_seed, options))
    results = _fan_out(_sweep_rep, reps, threads)

    rows = []
    for cell_idx, (learner, criterion, boot, size) in enumerate(cells):
        cell_results = results[cell_idx * config.repetitions : (cell_idx + 1) * config.repetitions]
        samples = {f: np.array([r[f] for r in cell_results]) for f in RATE_FIELDS}
        means = {f: float(np.mean(samples[f])) for f in RATE_FIELDS}
        stderrs = {
            f: float(np.std(samples[f], ddof=1) / np.sqrt(config.repetitions))
            if config.repetitions > 1
            else 0.0
            for f in RATE_FIELDS
        }
        row = SweepRow(learner, criterion, boot, size, means, stderrs, config.repetitions, config.seed)
        rows.append(row)
        if log is not None:
            log(
                f"cell learner={learner} criterion={criterion} bootstrap={'on' if boot else 'off'} "
                f"N={size}: fp_of_inferred={means['fp_rate_of_inferred']:.3f} "
                f"fn_of_true={means['fn_rate_of_true']:.3f}"
            )
    return SweepReport(tuple(rows))
