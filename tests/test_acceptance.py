"""Acceptance suite: one test per exit criterion, one printed verdict line each.

Learner runs use max_iterations=2000 (consecutive-rejection stopping; the
coupon-collector bound for the largest candidate sets here is ~1100
proposals, so 2000 certifies local convergence) to keep wall time within
the stated budget.  Criterion 4 targets the sparse-regime error envelope,
which requires the parameter-count complexity measure: with the arc-count
form, maximum-likelihood gains from ever-finer CPT strata outrun the
constant per-arc price on small samples and the search accumulates dense
parent sets no later pruning fully undoes.
"""

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from oracles import (
    dfs_cycle_oracle,
    empirical_joint,
    exact_joint,
    exhaustive_best_score,
    make_dataset,
    prima_facie_oracle,
    random_cpt_model,
    tiny_linear_dataset,
)
from sbcn.bootstrap import edge_confidence, prune
from sbcn.classifier import label_scenarios, learn_tree, risky_paths
from sbcn.cli import main as cli_main
from sbcn.datagen import (
    ground_truth_dag,
    market_factor_spec,
    simulate_dataset,
    sparse_random_instance,
)
from sbcn.evaluation import SweepConfig, arc_contingency, run_sweep
from sbcn.learn import (
    EdgeSet,
    LearnOptions,
    fit_cpts,
    hill_climb,
    learn_sbcn,
    prima_facie_edges,
    regularized_score,
)
from sbcn.model import Dag, has_cycle
from sbcn.sampling import ancestral_sample, stress_sample
from sbcn.seeds import derive_seed

THREADS = 2
MAX_IT = 2000


def verdict(number, ok, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def sweep_config(**overrides):
    base = {
        "generator": {"mode": "famafrench"},
        "criteria": ["bic"],
        "bootstrap": [False],
        "learners": ["sbcn"],
        "repetitions": 30,
        "seed": 20260808,
        "max_iterations": MAX_IT,
    }
    base.update(overrides)
    return SweepConfig.from_json(json.dumps(base))


def test_criterion_1_sbcn_beats_bn_on_every_sample_size():
    started = time.time()
    config = sweep_config(sample_sizes=[250, 1000, 5000], learners=["sbcn", "bn"])
    report = run_sweep(config, threads=THREADS)
    sums = {
        (row.learner, row.sample_size): row.means["fp_rate_of_inferred"]
        + row.means["fn_rate_of_true"]
        for row in report.rows
    }
    elapsed = time.time() - started
    gaps = []
    ok = True
    for size in (250, 1000, 5000):
        sbcn, bn = sums[("sbcn", size)], sums[("bn", size)]
        gaps.append(f"N={size}: sbcn {sbcn:.3f} vs bn {bn:.3f}")
        ok = ok and sbcn < bn
    ok = ok and elapsed < 600
    assert verdict(
        1, ok, f"constrained learner beats baseline on fp+fn at every size "
        f"({'; '.join(gaps)}; {elapsed:.0f}s)"
    )


def test_criterion_2_bootstrap_reduces_false_positives():
    config = sweep_config(
        sample_sizes=[250, 1000],
        bootstrap=[False, True],
        bootstrap_replicates=100,
        confidence_threshold=0.5,
    )
    report = run_sweep(config, threads=THREADS)
    fp = {
        (row.bootstrap, row.sample_size): row.means["fp_rate_of_inferred"]
        for row in report.rows
    }
    reduction_250 = fp[(False, 250)] - fp[(True, 250)]
    reduction_1000 = fp[(False, 1000)] - fp[(True, 1000)]
    ok = reduction_250 >= 0.03 and reduction_1000 >= 0.0
    assert verdict(
        2, ok,
        f"bootstrap pruning cuts fp_rate_of_inferred by {100 * reduction_250:.1f}pts "
        f"at N=250 (need >= 3) and {100 * reduction_1000:.1f}pts at N=1000 (need >= 0)",
    )


def _criterion3_rep(rep):
    seed = derive_seed(333, rep)
    spec = market_factor_spec(derive_seed(seed, 0))
    data = simulate_dataset(spec, 5000, derive_seed(seed, 1))
    counts = {}
    for criterion in ("bic", "aic"):
        opts = LearnOptions(criterion=criterion, max_iterations=MAX_IT, seed=derive_seed(seed, 2))
        counts[criterion] = len(learn_sbcn(data, opts).dag.edges)
    return counts["bic"], counts["aic"]


def test_criterion_3_aic_accepts_at_least_as_many_arcs_as_bic():
    with ProcessPoolExecutor(max_workers=THREADS) as pool:
        pairs = list(pool.map(_criterion3_rep, range(30)))
    mean_bic = float(np.mean([p[0] for p in pairs]))
    mean_aic = float(np.mean([p[1] for p in pairs]))
    ok = mean_aic >= mean_bic
    assert verdict(
        3, ok,
        f"mean arcs at N=5000 on shared data/seeds: aic {mean_aic:.1f} >= bic {mean_bic:.1f}",
    )


def _criterion4_rep(rep):
    spec, truth, data = sparse_random_instance(T=250, seed=derive_seed(444, rep))
    opts = LearnOptions(
        criterion="bic", max_iterations=MAX_IT, seed=derive_seed(444, rep, 1),
        penalty="parameters",
    )
    model = learn_sbcn(data, opts)
    report = edge_confidence(data, opts, 100, model=model)
    pruned = prune(model, report, data)
    stats = arc_contingency(pruned.dag, truth)
    return stats.fp_rate_of_inferred, stats.fn_rate_of_true


def test_criterion_4_sparse_regime_error_rates():
    with ProcessPoolExecutor(max_workers=THREADS) as pool:
        rates = list(pool.map(_criterion4_rep, range(30)))
    fp = float(np.mean([r[0] for r in rates]))
    fn = float(np.mean([r[1] for r in rates]))
    ok = fp <= 0.30 and fn <= 0.55
    assert verdict(
        4, ok,
        f"sparse N=250 bic+boot(100, 0.5), parameter-count penalty: "
        f"fp_rate_of_inferred {fp:.3f} <= 0.30, fn_rate_of_true {fn:.3f} <= 0.55",
    )


def _truth_fitted_model(seed, T=5000):
    spec = market_factor_spec(derive_seed(seed, 0), positive_loadings=True)
    data = simulate_dataset(spec, T, derive_seed(seed, 1))
    return fit_cpts(data, ground_truth_dag(spec))


def test_criterion_5_clamped_sampling_concentrates_downward():
    passing = 0
    for seed in range(100):
        model = _truth_fitted_model(derive_seed(555, seed))
        draws = stress_sample(model, {j: 0 for j in range(5)}, 100, derive_seed(555, seed, 2))
        ups = draws[:, 5:].sum(axis=1)
        if int((ups > 5).sum()) == 0 and int((ups <= 1).sum()) >= 70:
            passing += 1
    ok = passing >= 90
    assert verdict(
        5, ok,
        f"all-factors-down clamp: {passing}/100 seeds with zero scenarios above "
        f"5 ups and >= 70 scenarios with <= 1 up (need >= 90)",
    )


def test_criterion_6_tree_recovers_factors_down_path():
    recovered = 0
    for seed in range(100):
        model = _truth_fitted_model(derive_seed(666, seed))
        scenarios = ancestral_sample(model, 1000, derive_seed(666, seed, 2))
        labels = label_scenarios(scenarios, range(5, 15), 0.10)
        tree = learn_tree(scenarios[:, :5], labels)
        paths = risky_paths(tree)
        if any(sum(1 for v in p.values() if v == 0) >= 4 for p in paths):
            recovered += 1
    ok = recovered >= 80
    assert verdict(
        6, ok,
        f"risky path fixing >= 4 of 5 factors to 0 found in {recovered}/100 seeds (need >= 80)",
    )


def test_criterion_7a_hill_climb_matches_exhaustive_search():
    rng = np.random.default_rng(777)
    matched = 0
    for trial in range(100):
        ds = tiny_linear_dataset(rng)
        n = ds.n
        allowed = EdgeSet(n, [(u, v) for u in range(n) for v in range(n) if u != v])
        opts = LearnOptions(max_iterations=300, restarts=40, seed=trial)
        found = hill_climb(ds, allowed, opts)
        if regularized_score(ds, found, "bic") >= exhaustive_best_score(ds, allowed) - 1e-9:
            matched += 1
    ok = matched >= 95
    assert verdict(7, ok, f"(a) climb attains exhaustive optimum on {matched}/100 instances (need >= 95)")


def test_criterion_7b_sampler_joint_matches_enumeration():
    rng = np.random.default_rng(778)
    worst = 0.0
    for trial in range(20):
        model = random_cpt_model(rng, int(rng.integers(2, 5)))
        draws = ancestral_sample(model, 100000, seed=trial)
        tv = 0.5 * float(np.abs(empirical_joint(draws) - exact_joint(model)).sum())
        worst = max(worst, tv)
    ok = worst <= 0.02
    assert verdict(7, ok, f"(b) worst joint total variation at 1e5 samples: {worst:.4f} (need <= 0.02)")


def test_criterion_7c_cycle_detection_matches_dfs_on_all_5_node_graphs():
    pairs = [(u, v) for u in range(5) for v in range(5) if u != v]
    acyclic = 0
    for bits in range(1 << 20):
        edges = [pairs[i] for i in range(20) if bits >> i & 1]
        fast = has_cycle(5, edges)
        if fast != dfs_cycle_oracle(5, edges):
            assert verdict(7, False, f"(c) disagreement on edge set {edges}")
        acyclic += not fast
    # labeled DAGs on 5 nodes; known closed-form count
    ok = acyclic == 29281
    assert verdict(
        7, ok, f"(c) cycle test agrees with DFS oracle on all 1,048,576 5-node graphs "
        f"({acyclic} acyclic)"
    )


def test_criterion_7d_candidate_filter_matches_brute_force():
    rng = np.random.default_rng(779)
    agreed = 0
    for trial in range(100):
        m = int(rng.integers(2, 60))
        n = int(rng.integers(2, 6))
        ds = make_dataset(rng.integers(0, 2, size=(m, n)), rank=list(rng.integers(0, 3, size=n)))
        if prima_facie_edges(ds).edges == frozenset(prima_facie_oracle(ds)):
            agreed += 1
    ok = agreed == 100
    assert verdict(7, ok, f"(d) candidate filter equals direct-count oracle on {agreed}/100 fuzz datasets")


def _run_cli_twice(tmp_path, name, args, outputs):
    first = {}
    for round_no in range(2):
        code = cli_main([str(a) for a in args])
        assert code == 0, f"{name} exited {code}"
        for out in outputs:
            text = (tmp_path / out).read_bytes()
            if round_no == 0:
                first[out] = text
            elif text != first[out]:
                return False
    return True


def test_criterion_8_cli_subcommands_are_byte_deterministic(tmp_path):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    model = tmp_path / "model.json"
    report = tmp_path / "report.json"
    scen = tmp_path / "scen.csv"
    tree = tmp_path / "tree.json"
    stats = tmp_path / "stats.csv"
    table = tmp_path / "table.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "generator": {"mode": "sparse", "n_factors": 3, "n_stocks": 4, "p": 0.5},
        "sample_sizes": [100],
        "criteria": ["bic"],
        "bootstrap": [False, True],
        "bootstrap_replicates": 3,
        "learners": ["sbcn"],
        "repetitions": 2,
        "seed": 5,
        "max_iterations": 200,
    }))

    checks = [
        ("simulate", ["simulate", "--mode", "famafrench", "--samples", 300,
                      "--seed", 7, "--out-data", data, "--out-truth", truth],
         ["data.csv", "truth.json"]),
        ("infer", ["infer", "--data", data, "--bootstrap", 3, "--seed", 8,
                   "--max-iterations", 300, "--out-model", model,
                   "--out-report", report],
         ["model.json", "report.json"]),
        ("stress", ["stress", "--model", model, "--samples-for-tree", 500,
                    "--count", 40, "--seed", 9, "--out-scenarios", scen,
                    "--out-tree", tree],
         ["scen.csv", "tree.json"]),
        ("evaluate", ["evaluate", "--model", model, "--truth", truth,
                      "--out", stats],
         ["stats.csv"]),
        ("sweep", ["sweep", "--config", config, "--out", table, "--threads", 2],
         ["table.csv"]),
    ]
    failures = []
    for name, args, outputs in checks:
        if not _run_cli_twice(tmp_path, name, args, outputs):
            failures.append(name)
    ok = not failures
    assert verdict(
        8, ok,
        "every CLI subcommand rerun is byte-identical"
        + ("" if ok else f" (failed: {', '.join(failures)})"),
    )
