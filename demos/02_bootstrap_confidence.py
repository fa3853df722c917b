"""Score arc stability by bootstrap resampling and prune the flaky ones."""

from sbcn import (
    LearnOptions,
    arc_contingency,
    edge_confidence,
    ground_truth_dag,
    learn_sbcn,
    market_factor_spec,
    prune,
    simulate_dataset,
)

spec = market_factor_spec(seed=10)
truth = ground_truth_dag(spec)
data = simulate_dataset(spec, 250, seed=11)

options = LearnOptions(criterion="bic", max_iterations=2000, seed=12)
model = learn_sbcn(data, options)
before = arc_contingency(model.dag, truth)
print(f"learned {len(model.dag.edges)} arcs at N=250 "
      f"(fp/inferred={before.fp_rate_of_inferred:.2f})")

# relearn on 100 resampled datasets; an arc's confidence is how often it returns
report = edge_confidence(data, options, replicates=100, model=model)
true_conf = [report.confidence[e] for e in model.dag.edges if e in truth.edges]
false_conf = [report.confidence[e] for e in model.dag.edges if e not in truth.edges]
print(f"mean confidence: true arcs {sum(true_conf) / len(true_conf):.2f}, "
      f"spurious arcs {sum(false_conf) / len(false_conf):.2f}")

# drop the arcs below the report's threshold, 0.5 by default, and refit the CPTs
pruned = prune(model, report, data)
after = arc_contingency(pruned.dag, truth)
print(f"kept {len(pruned.dag.edges)} arcs at confidence >= {report.threshold} "
      f"(fp/inferred {before.fp_rate_of_inferred:.2f} -> {after.fp_rate_of_inferred:.2f}, "
      f"fn/true {before.fn_rate_of_true:.2f} -> {after.fn_rate_of_true:.2f})")
