"""From a fitted network to adversarial scenarios: label sampled outcomes by
portfolio risk, read the risky factor configurations off a decision tree,
and clamp them to concentrate sampling on stressed markets."""

import numpy as np

from sbcn import (
    ancestral_sample,
    fit_cpts,
    ground_truth_dag,
    market_factor_spec,
    simulate_dataset,
    stress_sample,
    stress_tree,
    up_counts,
)

spec = market_factor_spec(seed=20, positive_loadings=True)
data = simulate_dataset(spec, 5000, seed=21)
model = fit_cpts(data, ground_truth_dag(spec))

# 1000 ordinary draws; the bottom decile by portfolio up-count is "risky".
# The factors are the lowest-rank nodes, the portfolio every other node.
tree, n_risky, cut, paths = stress_tree(model, 1000, risky_fraction=0.10, seed=22)
print(f"labeled {n_risky} of 1000 scenarios risky (up-count cut {cut})")
print(tree.to_text())

# each path is a {node index: value} assignment, ready to clamp
print(f"{len(paths)} risky factor configuration(s); clamping the first\n")
free = ancestral_sample(model, 100, seed=23)
stressed = stress_sample(model, paths[0], 100, seed=23)

def histogram(draws, title):
    ups = up_counts(draws, range(spec.n_factors, spec.n))
    counts = np.bincount(ups, minlength=spec.n_stocks + 1)
    print(title)
    for k in range(spec.n_stocks + 1):
        print(f"  {k:2d} stocks up | {'#' * counts[k]}")

histogram(free, "unconstrained sampling:")
histogram(stressed, "risky configuration clamped:")
