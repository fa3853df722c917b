"""Causal network learning and stress-scenario generation for binary
financial factor data.

The pipeline: simulate or load binary up/down data, learn a causal network
whose arcs satisfy temporal priority and probability raising, optionally
sharpen it by bootstrap confidence pruning, then sample stress scenarios by
clamping the factor configurations a decision tree flags as risky.
"""

from types import ModuleType as _ModuleType

from .bootstrap import BootstrapReport, edge_confidence, prune, resample
from .classifier import (
    PROFITABLE,
    RISKY,
    DecisionTree,
    Leaf,
    Split,
    label_measure,
    label_scenarios,
    learn_tree,
    risky_paths,
    stress_tree,
    up_counts,
)
from .datagen import (
    GENERATOR_PARAMS,
    FactorModelSpec,
    RealSeries,
    binarize,
    estimate_spec,
    generate_instance,
    ground_truth_dag,
    lag_align,
    market_factor_spec,
    simulate,
    simulate_dataset,
    sparse_random_instance,
)
from .evaluation import (
    SweepConfig,
    SweepReport,
    arc_contingency,
    run_sweep,
)
from .learn import (
    LEARNERS,
    EdgeSet,
    LearnOptions,
    fit_cpts,
    hill_climb,
    learn_bn,
    learn_model,
    learn_sbcn,
    learn_structure,
    log_likelihood,
    prima_facie_edges,
    regularized_score,
)
from .model import (
    BinaryDataset,
    ContingencyStats,
    Cpt,
    CsvFormatError,
    Dag,
    ModelSchemaError,
    SbcnModel,
    dag_from_json,
    dag_to_json,
    has_cycle,
    scenarios_to_csv,
)
from .sampling import ancestral_sample, clamp, stress_sample, topological_order
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
