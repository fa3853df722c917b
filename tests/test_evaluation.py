import json
from pathlib import Path

import numpy as np
import pytest

from sbcn.evaluation import (
    RATE_FIELDS,
    SweepConfig,
    SweepReport,
    SweepRow,
    arc_contingency,
    run_sweep,
)
from sbcn.bootstrap import prune
from sbcn.learn import LearnOptions, fit_cpts
from sbcn.model import Dag, ModelSchemaError


def tiny_config(**overrides):
    base = {
        "generator": {"mode": "famafrench", "n_stocks": 4},
        "sample_sizes": [120],
        "criteria": ["bic"],
        "bootstrap": [False],
        "learners": ["sbcn"],
        "repetitions": 2,
        "seed": 11,
        "max_iterations": 200,
    }
    base.update(overrides)
    return SweepConfig.from_json(json.dumps(base))


class TestArcContingency:
    def test_perfect_recovery(self):
        truth = Dag(4, [(0, 1), (1, 2)])
        stats = arc_contingency(truth, truth)
        assert (stats.tp, stats.fp, stats.fn) == (2, 0, 0)
        assert stats.tpr == 1.0 and stats.fpr == 0.0

    def test_empty_inferred(self):
        truth = Dag(3, [(0, 1), (0, 2)])
        stats = arc_contingency(Dag(3), truth)
        assert stats.tpr == 0.0
        assert stats.fn_rate_of_true == 1.0

    def test_one_extra_arc_over_54(self):
        edges = [(0, j) for j in range(1, 5)]
        edges += [(j, 5 + i) for j in range(5) for i in range(10)]
        truth = Dag(15, edges)
        inferred = Dag(15, edges + [(1, 2)])
        stats = arc_contingency(inferred, truth)
        assert stats.tp == 54 and stats.fp == 1
        assert stats.fp_rate_of_inferred == 1 / 55

    def test_universe_partition(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            def random_dag():
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                return Dag(n, [p for p in pairs if rng.random() < 0.5])
            a, b = random_dag(), random_dag()
            s = arc_contingency(a, b)
            assert s.tp + s.fp + s.fn + s.tn == n * (n - 1)

    def test_node_count_mismatch(self):
        with pytest.raises(ValueError):
            arc_contingency(Dag(3), Dag(4))


class TestRocPoint:
    def test_trivial_points(self):
        truth = Dag(3, [(0, 1)])
        perfect = arc_contingency(truth, truth)
        assert (perfect.fpr, perfect.tpr) == (0.0, 1.0)
        empty = arc_contingency(Dag(3), truth)
        assert (empty.fpr, empty.tpr) == (0.0, 0.0)
        full = Dag(3, [(0, 1), (0, 2), (1, 2)])
        universe_minus_truth_free = arc_contingency(full, full)
        assert universe_minus_truth_free.tpr == 1.0


class TestSweepConfig:
    def test_missing_keys_listed(self):
        with pytest.raises(ModelSchemaError, match="sample_sizes, criteria"):
            SweepConfig.from_json(json.dumps({"generator": {"mode": "sparse"},
                                              "bootstrap": [], "learners": [],
                                              "repetitions": 1, "seed": 0}))

    def test_unknown_learner(self):
        with pytest.raises(ModelSchemaError, match="learner"):
            tiny_config(learners=["pc"])

    def test_unknown_penalty(self):
        with pytest.raises(ModelSchemaError, match="unknown penalty 'edges'"):
            tiny_config(penalty="edges")

    def test_unknown_criterion(self):
        with pytest.raises(ModelSchemaError, match="unknown criterion 'mdl'"):
            tiny_config(criteria=["mdl"])

    def test_generator_without_mode(self):
        with pytest.raises(ModelSchemaError, match="^generator is missing keys: mode$"):
            tiny_config(generator={"n_stocks": 4})

    def test_unknown_generator_mode(self):
        with pytest.raises(ModelSchemaError, match="^unknown generator mode 'garch'; choose from famafrench, sparse$"):
            tiny_config(generator={"mode": "garch"})

    @pytest.mark.parametrize("generator, key", [
        ({"mode": "sparse", "n_factor": 4}, "n_factor"),
        ({"mode": "famafrench", "n_factors": 4}, "n_factors"),
        ({"mode": "famafrench", "signed_loadings": True}, "signed_loadings"),
    ])
    def test_unknown_generator_key(self, generator, key):
        with pytest.raises(ModelSchemaError, match=f"^unknown generator keys: {key}$"):
            tiny_config(generator=generator)

    @pytest.mark.parametrize("generator, key", [
        ({"mode": "famafrench", "positive_loadings": "false"}, "positive_loadings"),
        ({"mode": "sparse", "signed_loadings": 1}, "signed_loadings"),
    ])
    def test_generator_flags_must_be_json_booleans(self, generator, key):
        with pytest.raises(ModelSchemaError, match=f"^{key} must be true or false"):
            tiny_config(generator=generator)

    @pytest.mark.parametrize("entries", [["false"], [0], [True, None]])
    def test_bootstrap_entries_must_be_json_booleans(self, entries):
        with pytest.raises(ModelSchemaError, match="bootstrap entries must be true or false"):
            tiny_config(bootstrap=entries)

    @pytest.mark.parametrize("key, value, rule", [
        ("max_iterations", 0, ">= 1"),
        ("restarts", -1, ">= 0"),
        ("bootstrap_replicates", 0, ">= 1"),
        ("seed", -3, ">= 0"),
    ])
    def test_search_settings_checked_when_parsed(self, key, value, rule):
        with pytest.raises(ModelSchemaError, match=f"^{key} must be {rule}$"):
            tiny_config(**{key: value})

    @pytest.mark.parametrize("sizes", [[-5], [0], [100, 0]])
    def test_sample_sizes_checked_when_parsed(self, sizes):
        with pytest.raises(ModelSchemaError, match=r"^sample_sizes entries must be >= 1"):
            tiny_config(sample_sizes=sizes)

    @pytest.mark.parametrize("key, entries, message", [
        ("sample_sizes", [60, 80, 60], "sample_sizes entries must be distinct, got 60 twice"),
        ("criteria", ["bic", "bic"], "criteria entries must be distinct, got 'bic' twice"),
        ("bootstrap", [True, False, True], "bootstrap entries must be distinct, got True twice"),
        ("learners", ["bn", "bn"], "learners entries must be distinct, got 'bn' twice"),
    ], ids=["sample_sizes", "criteria", "bootstrap", "learners"])
    def test_repeated_entry_checked_when_parsed(self, key, entries, message):
        # a repeated entry would run its cells again, so it fails before any worker starts
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**{key: entries})
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["sample_sizes", "criteria", "bootstrap", "learners"])
    def test_empty_grid_list_checked_when_parsed(self, key):
        # an empty list would cross to no cell, and the sweep would write a bare header
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**{key: []})
        assert str(exc.value) == f"{key} must not be empty"

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", "many"),
        ("restarts", None),
        ("bootstrap_replicates", "x"),
        ("confidence_threshold", {}),
    ])
    def test_ill_typed_setting_is_a_schema_error(self, key, value):
        with pytest.raises(ModelSchemaError):
            tiny_config(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("sample_sizes", 20, "sample_sizes must be a list, got 20"),
        ("bootstrap", True, "bootstrap must be a list, got True"),
        ("criteria", "bic", "criteria must be a list, got 'bic'"),
        ("max_iterations", True, "max_iterations must be an integer, got True"),
        ("sample_sizes", [20.7], "sample_sizes entries must be an integer, got 20.7"),
        ("repetitions", 2.5, "repetitions must be an integer, got 2.5"),
        ("confidence_threshold", float("nan"), "confidence_threshold must be a finite number, got nan"),
    ])
    def test_ill_typed_value_names_the_key(self, key, value, message):
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**{key: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("key, value, message", [
        ("repetitions", 0, "repetitions must be >= 1"),
        ("confidence_threshold", 1.5, "confidence_threshold must lie in [0, 1]"),
    ])
    def test_out_of_range_value_names_the_key(self, key, value, message):
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**{key: value})
        assert str(exc.value) == message

    def test_generator_range_checked_when_parsed(self):
        # before run_sweep starts a worker, not inside one
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(generator={"mode": "sparse", "p": 2})
        assert str(exc.value) == "p must be in [0, 1], got 2.0"

    @pytest.mark.parametrize("overrides, keys", [
        ({"max_iteration": 5}, "max_iteration"),
        ({"search": {"max_iterations": 5}}, "search"),
        ({"search": {}, "max_iteration": 5}, "max_iteration, search"),
        # it shapes only fitted CPTs, and a sweep scores arcs
        ({"smoothing": 0.5}, "smoothing"),
    ])
    def test_unknown_keys_listed(self, overrides, keys):
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**overrides)
        assert str(exc.value) == f"unknown config keys: {keys}"

    def test_integral_numbers_read_as_ints(self):
        config = tiny_config(sample_sizes=[120.0], repetitions=2.0, max_iterations=200.0)
        assert config == tiny_config()
        assert type(config.repetitions) is int and type(config.sample_sizes[0]) is int

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Sweep config", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        config = SweepConfig.from_json(example)
        assert config.learners == ("sbcn", "bn") and config.bootstrap == (False, True)

    @pytest.mark.parametrize("overrides, message", [
        ({"criteria": ["bic", "mdl"]}, "unknown criterion 'mdl'; choose from bic, aic"),
        ({"penalty": "edges"}, "unknown penalty 'edges'; choose from arcs, parameters"),
        ({"learners": ["pc"]}, "unknown learner 'pc'; choose from sbcn, bn"),
    ])
    def test_unknown_choice_message(self, overrides, message):
        with pytest.raises(ModelSchemaError) as exc:
            tiny_config(**overrides)
        assert str(exc.value) == message

    def test_search_keys_build_learn_options(self):
        assert tiny_config().search == LearnOptions(max_iterations=200)
        settings = {"max_iterations": 7, "restarts": 2, "penalty": "parameters"}
        assert tiny_config(**settings).search == LearnOptions(**settings)

    def test_json_booleans_accepted(self):
        config = tiny_config(
            bootstrap=[False, True], generator={"mode": "sparse", "signed_loadings": False}
        )
        assert config.bootstrap == (False, True)

    def test_not_json(self):
        with pytest.raises(ModelSchemaError):
            SweepConfig.from_json("not json")


class TestRunSweep:
    def test_single_cell_shape(self):
        report = run_sweep(tiny_config(repetitions=1), threads=1)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.learner == "sbcn" and row.sample_size == 120
        assert 0.0 <= row.means["fp_rate_of_inferred"] <= 1.0
        assert row.stderrs["tpr"] == 0.0  # single repetition

    def test_deterministic_and_thread_invariant(self):
        a = run_sweep(tiny_config(), threads=1)
        b = run_sweep(tiny_config(), threads=1)
        c = run_sweep(tiny_config(), threads=2)
        assert a.to_csv() == b.to_csv() == c.to_csv()

    def test_bootstrap_cell_never_gains_arcs(self):
        config = tiny_config(
            bootstrap=[False, True],
            bootstrap_replicates=5,
            repetitions=2,
        )
        report = run_sweep(config, threads=1)
        by_boot = {row.bootstrap: row for row in report.rows}
        # pruning only removes arcs: tpr cannot rise, fp-of-universe cannot rise
        assert by_boot[True].means["tpr"] <= by_boot[False].means["tpr"] + 1e-12
        assert by_boot[True].means["fpr"] <= by_boot[False].means["fpr"] + 1e-12

    def test_csv_header(self):
        report = run_sweep(tiny_config(repetitions=1), threads=1)
        header = report.to_csv().splitlines()[0]
        assert header == (
            "learner,criterion,bootstrap,sample_size,"
            "fp_rate_of_inferred,fn_rate_of_true,fpr,tpr,"
            "fp_rate_of_inferred_stderr,fn_rate_of_true_stderr,fpr_stderr,tpr_stderr,"
            "repetitions,seed"
        )

    def test_text_table_renders(self):
        report = run_sweep(tiny_config(repetitions=1), threads=1)
        text = report.to_text()
        assert "learner" in text and "sbcn" in text

    def test_sparse_generator_cell(self):
        config = tiny_config(
            generator={"mode": "sparse", "n_factors": 3, "n_stocks": 4, "p": 0.5},
            sample_sizes=[100],
            repetitions=1,
        )
        report = run_sweep(config, threads=1)
        assert len(report.rows) == 1

    @pytest.mark.parametrize("settings", [
        {},
        {"max_iterations": 7},
        {"restarts": 1},
        {"penalty": "arcs"},
        {"penalty": "parameters"},
        {"max_iterations": 30, "restarts": 2, "penalty": "parameters"},
    ])
    def test_search_settings_reach_every_replicate(self, monkeypatch, settings):
        seen = []

        def recording(data, options, learner):
            seen.append(options)
            return fit_cpts(data, Dag(data.n), options.smoothing)

        monkeypatch.setattr("sbcn.evaluation.learn_model", recording)
        base = {"generator": {"mode": "sparse", "n_factors": 3, "n_stocks": 3},
                "sample_sizes": [60, 80], "criteria": ["bic", "aic"], "bootstrap": [False],
                "learners": ["sbcn"], "repetitions": 2, "seed": 4}
        run_sweep(SweepConfig.from_json(json.dumps({**base, **settings})), threads=1)
        assert len(seen) == 2 * 2 * 2
        assert [o.criterion for o in seen] == ["bic"] * 4 + ["aic"] * 4
        # the search seed follows the (sample size, repetition), not the cell
        assert len({o.seed for o in seen}) == 4
        assert [o.seed for o in seen[:4]] == [o.seed for o in seen[4:]]
        for options in seen:
            expected = LearnOptions(**settings, criterion=options.criterion, seed=options.seed)
            assert options == expected

    @pytest.mark.parametrize("settings, threshold", [
        ({}, 0.5), ({"confidence_threshold": 0.0}, 0.0), ({"confidence_threshold": 1.0}, 1.0)])
    def test_confidence_threshold_reaches_prune(self, monkeypatch, settings, threshold):
        seen = []

        def recording(model, report, data, smoothing):
            seen.append(report.threshold)
            return prune(model, report, data, smoothing)

        monkeypatch.setattr("sbcn.evaluation.prune", recording)
        run_sweep(tiny_config(bootstrap=[True], bootstrap_replicates=2, **settings), threads=1)
        assert seen == [threshold] * 2

    def test_log_line_per_cell(self):
        lines = []
        run_sweep(tiny_config(repetitions=1), threads=1, log=lines.append)
        assert len(lines) == 1
        assert "learner=sbcn" in lines[0]


class TestSweepReport:
    def test_numpy_means_are_written_as_plain_floats(self):
        values = {f: np.float64(0.25) for f in RATE_FIELDS}
        errors = {f: np.float32(0.5) for f in RATE_FIELDS}
        row = SweepRow("sbcn", "bic", False, 100, values, errors, 1, 0)
        cells = SweepReport((row,)).to_csv().splitlines()[1].split(",")
        assert cells[4:12] == ["0.25"] * 4 + ["0.5"] * 4
