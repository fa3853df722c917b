import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sbcn.bootstrap import BootstrapReport
from sbcn.classifier import (
    DecisionTree,
    label_measure,
    learn_tree,
    risky_paths,
    up_counts,
)
from sbcn.cli import main
from sbcn.datagen import (
    generate_instance,
    ground_truth_dag,
    market_factor_spec,
    simulate_dataset,
    sparse_random_instance,
)
from sbcn.learn import LearnOptions, fit_cpts
from sbcn.model import (
    BinaryDataset,
    Dag,
    SbcnModel,
    dag_from_json,
    dag_to_json,
    scenarios_to_csv,
)
from sbcn.sampling import _BLOCK_ROWS, ancestral_sample, stress_sample
from sbcn.seeds import derive_seed


def run(args):
    return main([str(a) for a in args])


def read(path):
    return path.read_text()


def run_module(*args):
    """``python -m sbcn.cli`` in a child process, so stderr is what a user sees."""
    src = Path(__file__).resolve().parents[1] / "src"
    command = [sys.executable, "-m", "sbcn.cli", *map(str, args)]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(command, env=env, capture_output=True, encoding="utf-8")


@pytest.fixture()
def model_file(tmp_path):
    spec = market_factor_spec(seed=3, positive_loadings=True)
    data = simulate_dataset(spec, 3000, seed=4)
    model = fit_cpts(data, ground_truth_dag(spec))
    path = tmp_path / "model.json"
    path.write_text(model.to_json())
    return path


class TestStartup:
    def test_import_leaves_out_the_process_pool(self):
        """Only a parallel fan-out loads concurrent.futures and, with it,
        multiprocessing; a serial command does not pay for them."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = "import sys, sbcn.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestSimulate:
    def test_writes_data_and_truth(self, tmp_path):
        out_data = tmp_path / "data.csv"
        out_truth = tmp_path / "truth.json"
        code = run(["simulate", "--mode", "famafrench", "--samples", 200,
                    "--seed", 5, "--out-data", out_data, "--out-truth", out_truth])
        assert code == 0
        data = BinaryDataset.from_csv(read(out_data))
        assert data.m == 200 and data.n == 15
        truth = dag_from_json(read(out_truth))
        assert truth.n == 15 and len(truth.edges) > 0

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--mode", "sparse", "--samples", 100, "--seed", 7,
                "--out-data", tmp_path / "a.csv", "--out-truth", tmp_path / "a.json"]
        assert run(args) == 0
        first = (read(tmp_path / "a.csv"), read(tmp_path / "a.json"))
        assert run(args) == 0
        assert (read(tmp_path / "a.csv"), read(tmp_path / "a.json")) == first

    def test_missing_out_data_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--samples", 100])
        assert exc.value.code == 2

    def test_spec_overrides(self, tmp_path):
        spec_file = tmp_path / "gen.json"
        spec_file.write_text(json.dumps({"n_stocks": 3}))
        out = tmp_path / "d.csv"
        assert run(["simulate", "--samples", 50, "--spec", spec_file,
                    "--out-data", out]) == 0
        assert BinaryDataset.from_csv(read(out)).n == 8

    def test_unknown_spec_key_fails(self, tmp_path):
        spec_file = tmp_path / "gen.json"
        spec_file.write_text(json.dumps({"volatility": 2}))
        assert run(["simulate", "--samples", 50, "--spec", spec_file,
                    "--out-data", tmp_path / "d.csv"]) == 1

    def test_zero_samples_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--samples", 0, "--out-data", out])
        assert exc.value.code == 2
        assert "argument --samples: 0 is not positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, params, message", [
        ("famafrench", {"positive_loadings": "false"},
         "error: positive_loadings must be true or false, got 'false'"),
        ("sparse", {"signed_loadings": 0},
         "error: signed_loadings must be true or false, got 0"),
        ("sparse", {"lag": 2}, "error: unknown generator keys: lag"),
        ("famafrench", {"n_stocks": -1}, "error: n_stocks must be >= 0, got -1"),
        ("sparse", {"p": 2}, "error: p must be in [0, 1], got 2.0"),
        ("sparse", [], "error: generator must be a JSON object"),
        ("sparse", '{"p": }', "error: generator is not valid JSON: Expecting value: line 1 column 7"),
    ])
    def test_bad_spec_names_the_key(self, tmp_path, capsys, mode, params, message):
        spec_file = tmp_path / "gen.json"
        spec_file.write_text(params if isinstance(params, str) else json.dumps(params))
        assert run(["simulate", "--mode", mode, "--samples", 50, "--spec", spec_file,
                    "--out-data", tmp_path / "d.csv"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_ill_typed_spec_is_one_error_line(self, tmp_path):
        spec_file = tmp_path / "gen.json"
        spec_file.write_text(json.dumps({"n_stocks": [3]}))
        done = run_module("simulate", "--samples", 50, "--spec", spec_file,
                          "--out-data", tmp_path / "d.csv")
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["error: n_stocks must be an integer, got [3]"]
        assert not (tmp_path / "d.csv").exists()

    def test_unallocatable_spec_is_one_error_line(self, tmp_path):
        # numpy refuses the 36 TiB array before allocating any of it
        spec_file = tmp_path / "gen.json"
        spec_file.write_text(json.dumps({"n_stocks": 1000000000000}))
        done = run_module("simulate", "--samples", 50, "--spec", spec_file,
                          "--out-data", tmp_path / "d.csv")
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: Unable to allocate ")
        assert not (tmp_path / "d.csv").exists()


class TestInfer:
    def test_learn_and_write_model(self, tmp_path):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 400, "--seed", 1, "--out-data", data_path])
        out_model = tmp_path / "model.json"
        code = run(["infer", "--data", data_path, "--learner", "sbcn",
                    "--criterion", "bic", "--seed", 2, "--max-iterations", 300,
                    "--out-model", out_model])
        assert code == 0
        model = SbcnModel.from_json(read(out_model))
        assert model.n == 15

    def test_bootstrap_prune_and_report(self, tmp_path):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 300, "--seed", 1, "--out-data", data_path])
        out_model = tmp_path / "model.json"
        out_report = tmp_path / "report.json"
        code = run(["infer", "--data", data_path, "--bootstrap", 5,
                    "--confidence", 0.5, "--seed", 2, "--max-iterations", 200,
                    "--out-model", out_model, "--out-report", out_report])
        assert code == 0
        model = SbcnModel.from_json(read(out_model))
        assert model.confidence is not None
        report = json.loads(read(out_report))
        assert report["replicates"] == 5

    def test_bn_learner(self, tmp_path):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 200, "--seed", 1, "--out-data", data_path])
        assert run(["infer", "--data", data_path, "--learner", "bn", "--seed", 0,
                    "--max-iterations", 200, "--out-model", tmp_path / "m.json"]) == 0

    def test_confidence_out_of_range_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", "x.csv", "--confidence", 1.5,
                 "--out-model", "m.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value, choices", [
        ("--learner", "pc", "'sbcn', 'bn'"),
        ("--criterion", "mdl", "'bic', 'aic'"),
        ("--penalty", "edges", "'arcs', 'parameters'"),
    ])
    def test_unknown_choice_usage_error(self, capsys, flag, value, choices):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", "x.csv", flag, value, "--out-model", "m.json"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice: '{value}' (choose from {choices})" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--threads", "-3", "argument --threads: -3 is negative"),
        ("--bootstrap", "-2", "argument --bootstrap: -2 is negative"),
        ("--bootstrap", "2.5", "argument --bootstrap: '2.5' is not an integer"),
        ("--confidence", "abc", "argument --confidence: 'abc' is not a number"),
    ])
    def test_bad_number_usage_error(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", "x.csv", f"{flag}={value}", "--out-model", "m.json"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-iterations", "0", "argument --max-iterations: max_iterations must be >= 1"),
        ("--restarts", "-1", "argument --restarts: restarts must be >= 0"),
        ("--smoothing", "-1", "argument --smoothing: smoothing must be >= 0"),
        ("--seed", "-1", "argument --seed: seed must be >= 0"),
    ])
    def test_search_bound_usage_error(self, tmp_path, capsys, flag, value, message):
        # the data file does not exist: the flag fails before it is read
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", tmp_path / "absent.csv", f"{flag}={value}", "--out-model", out])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_counts_keep_their_meaning(self, tmp_path, monkeypatch):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 200, "--seed", 1, "--out-data", data_path])
        args = ["infer", "--data", data_path, "--seed", 2, "--max-iterations", 100]
        # --bootstrap 0 turns the bootstrap off, as does leaving it out
        assert run(args + ["--bootstrap", 0, "--out-model", tmp_path / "a.json"]) == 0
        assert run(args + ["--out-model", tmp_path / "b.json"]) == 0
        assert read(tmp_path / "a.json") == read(tmp_path / "b.json")
        assert SbcnModel.from_json(read(tmp_path / "a.json")).confidence is None
        # --threads 0 means every core, here fewer than the replicates
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr("sbcn.bootstrap.os.cpu_count", lambda: 2)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert run(args + ["--bootstrap", 3, "--threads", 0, "--out-model", tmp_path / "c.json"]) == 0
        assert seen == [2]

    def test_nan_smoothing_fails_before_the_search(self, tmp_path, capsys, monkeypatch):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 200, "--seed", 1, "--out-data", data_path])
        capsys.readouterr()
        searched = []
        monkeypatch.setattr("sbcn.cli.learn_model", lambda *a: searched.append(a))
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", data_path, "--smoothing", "nan", "--out-model", tmp_path / "m.json"])
        assert exc.value.code == 2
        assert "argument --smoothing: smoothing must be >= 0" in capsys.readouterr().err
        assert searched == []
        assert not (tmp_path / "m.json").exists()

    def test_infinite_smoothing_fails_before_the_search(self, tmp_path, capsys, monkeypatch):
        # the data file does not exist: the flag fails before it is read
        searched = []
        monkeypatch.setattr("sbcn.cli.learn_model", lambda *a: searched.append(a))
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", tmp_path / "absent.csv", "--smoothing", "inf",
                 "--out-model", tmp_path / "m.json"])
        assert exc.value.code == 2
        assert "argument --smoothing: smoothing must be finite" in capsys.readouterr().err
        assert searched == []
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, value, kind", [
        ("--smoothing", "x", "float"), ("--seed", "1.5", "int"), ("--restarts", "x", "int"),
    ])
    def test_search_flag_of_the_wrong_type(self, tmp_path, capsys, flag, value, kind):
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", tmp_path / "absent.csv", flag, value, "--out-model", tmp_path / "m.json"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("bootstrap", [[], ["--bootstrap", 0]])
    def test_report_without_bootstrap_usage_error(self, tmp_path, capsys, bootstrap):
        # the data file does not exist: the flags fail before it is read
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            run(["infer", "--data", tmp_path / "absent.csv", *bootstrap, "--out-model", out,
                 "--out-report", tmp_path / "r.json"])
        assert exc.value.code == 2
        assert "error: --out-report requires --bootstrap > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, expected", [
        ([], LearnOptions()),
        (["--criterion", "aic", "--penalty", "parameters", "--seed", 3, "--max-iterations", 5,
          "--restarts", 1, "--smoothing", 0.5],
         LearnOptions(criterion="aic", penalty="parameters", seed=3, max_iterations=5,
                      restarts=1, smoothing=0.5)),
    ])
    def test_search_flags_build_learn_options(self, tmp_path, monkeypatch, flags, expected):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 50, "--seed", 1, "--out-data", data_path])
        seen = []

        def recording(data, options, learner):
            seen.append(options)
            return fit_cpts(data, Dag(data.n), options.smoothing)

        monkeypatch.setattr("sbcn.cli.learn_model", recording)
        assert run(["infer", "--data", data_path, *flags, "--out-model", tmp_path / "m.json"]) == 0
        assert seen == [expected]

    def test_report_records_the_pruning_threshold(self, tmp_path):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 300, "--seed", 1, "--out-data", data_path])
        out_model, out_report = tmp_path / "m.json", tmp_path / "r.json"
        assert run(["infer", "--data", data_path, "--bootstrap", 3, "--confidence", 0.9,
                    "--seed", 2, "--max-iterations", 200, "--out-model", out_model,
                    "--out-report", out_report]) == 0
        report = json.loads(read(out_report))
        assert report["threshold"] == 0.9
        confidence = SbcnModel.from_json(read(out_model)).confidence
        assert all(c >= 0.9 for c in confidence.values())

    def test_bad_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0,2\n")
        assert run(["infer", "--data", bad, "--out-model", tmp_path / "m.json"]) == 1

    def test_rerun_byte_identical(self, tmp_path):
        data_path = tmp_path / "data.csv"
        run(["simulate", "--samples", 300, "--seed", 1, "--out-data", data_path])
        args = ["infer", "--data", data_path, "--seed", 9, "--max-iterations", 200,
                "--bootstrap", 3, "--out-model", tmp_path / "m.json"]
        assert run(args) == 0
        first = read(tmp_path / "m.json")
        assert run(args) == 0
        assert read(tmp_path / "m.json") == first


class TestStress:
    def test_auto_tree_pipeline(self, tmp_path, model_file):
        out_scen = tmp_path / "scenarios.csv"
        out_tree = tmp_path / "tree.json"
        code = run(["stress", "--model", model_file, "--samples-for-tree", 800,
                    "--count", 64, "--seed", 12, "--out-scenarios", out_scen,
                    "--out-tree", out_tree])
        assert code == 0
        lines = read(out_scen).splitlines()
        assert len(lines) == 65  # header + scenarios
        tree = json.loads(read(out_tree))
        assert "root" in tree

    def test_clamp_values_hold(self, tmp_path, model_file):
        out_scen = tmp_path / "scenarios.csv"
        code = run(["stress", "--model", model_file,
                    "--clamp", "Km=0,SMB=0,HML=0,RMW=0,CMA=0",
                    "--count", 50, "--seed", 3, "--out-scenarios", out_scen])
        assert code == 0
        rows = read(out_scen).splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[:5] == ["0", "0", "0", "0", "0"]

    def test_unknown_clamp_name(self, tmp_path, model_file):
        assert run(["stress", "--model", model_file, "--clamp", "NOPE=0",
                    "--count", 5, "--out-scenarios", tmp_path / "s.csv"]) == 1

    def test_clamp_names_a_variable_twice(self, tmp_path, capsys, model_file):
        out = tmp_path / "s.csv"
        assert run(["stress", "--model", model_file, "--clamp", "SMB=0,SMB=1",
                    "--count", 5, "--out-scenarios", out]) == 1
        assert "error: variable 'SMB' named twice in --clamp" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("clamp, message", [
        ("Km=2", "clamp value for Km must be 0 or 1"),
        (",", "--clamp parsed to an empty assignment"),
    ], ids=["value", "empty"])
    def test_clamp_that_assigns_nothing_valid(self, tmp_path, capsys, model_file, clamp, message):
        out = tmp_path / "s.csv"
        assert run(["stress", "--model", model_file, "--clamp", clamp,
                    "--count", 5, "--out-scenarios", out]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_clamp_skips_an_empty_item(self, tmp_path, model_file):
        out = tmp_path / "s.csv"
        assert run(["stress", "--model", model_file, "--clamp", "Km=0,",
                    "--count", 5, "--out-scenarios", out]) == 0
        assert [row.split(",")[0] for row in read(out).splitlines()[1:]] == ["0"] * 5

    def test_zero_risky_fraction_fails(self, tmp_path, model_file):
        assert run(["stress", "--model", model_file, "--risky-fraction", 0,
                    "--count", 5, "--out-scenarios", tmp_path / "s.csv"]) == 1

    def test_model_without_nodes_names_the_problem(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(SbcnModel(Dag(0), [], []).to_json())
        assert run(["stress", "--model", path, "--count", 5,
                    "--out-scenarios", tmp_path / "s.csv"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: model has no later-ranked stock variables to build a portfolio on")

    def test_risky_root_leaf_logs_that_nothing_is_clamped(self, tmp_path, capsys, model_file):
        assert run(["stress", "--model", model_file, "--risky-fraction", 1.0,
                    "--count", 5, "--out-scenarios", tmp_path / "s.csv"]) == 0
        log = capsys.readouterr().err.splitlines()
        assert "the root leaf is risky, so no factor is clamped" in log
        assert not any(line.startswith("clamping risky path") for line in log)

    def test_path_index_out_of_range(self, tmp_path, model_file):
        assert run(["stress", "--model", model_file, "--path-index", 99,
                    "--count", 5, "--out-scenarios", tmp_path / "s.csv"]) == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("stress", "--count", "-5"),
        ("stress", "--samples-for-tree", "-5"),
        ("simulate", "--samples", "-3"),
        ("stress", "--seed", "-1"),
        ("simulate", "--seed", "-1"),
    ])
    def test_negative_count_usage_error(self, tmp_path, capsys, model_file, command, flag, value):
        out = tmp_path / "out.csv"
        required = {"stress": ["--model", model_file, "--out-scenarios", out],
                    "simulate": ["--samples", 10, "--out-data", out]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *required, f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: {value} is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples-for-tree", "0", "argument --samples-for-tree: 0 is not positive"),
        ("--path-index", "-1", "argument --path-index: -1 is negative"),
    ])
    def test_tree_flag_usage_error(self, tmp_path, capsys, flag, value, message):
        # the model file does not exist: the flag fails before it is read
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(["stress", "--model", tmp_path / "absent.json", f"{flag}={value}",
                 "--out-scenarios", out])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_tree_with_clamp_usage_error(self, tmp_path, capsys):
        # --clamp grows no tree; the rule fails before the model is read
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(["stress", "--model", tmp_path / "absent.json", "--clamp", "Km=0",
                 "--out-scenarios", out, "--out-tree", tmp_path / "t.json"])
        assert exc.value.code == 2
        assert "--out-tree requires the tree, which --clamp skips" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path, model_file):
        args = ["stress", "--model", model_file, "--count", 20, "--seed", 8,
                "--out-scenarios", tmp_path / "s.csv", "--out-tree", tmp_path / "t.json"]
        assert run(args) == 0
        first = (read(tmp_path / "s.csv"), read(tmp_path / "t.json"))
        assert run(args) == 0
        assert (read(tmp_path / "s.csv"), read(tmp_path / "t.json")) == first


B = _BLOCK_ROWS
COUNTS = [0, 1, B - 1, B, B + 1, 2 * B + 1]


def in_memory_stress(model, seed, samples_for_tree, count, risky_fraction=0.1, path_index=0):
    """The tree JSON and scenario CSV of `stress` at a path index, from whole
    sample matrices; the CSV is None when the tree has no risky path of that
    index."""
    lowest = min(model.rank)
    factors = [i for i, r in enumerate(model.rank) if r == lowest]
    stocks = [i for i, r in enumerate(model.rank) if r != lowest]
    scenarios = ancestral_sample(model, samples_for_tree, derive_seed(seed, 0))
    labels, _ = label_measure(up_counts(scenarios, stocks), risky_fraction)
    tree = learn_tree(scenarios[:, factors], labels)
    tree = DecisionTree(tree.root, tuple(model.names[i] for i in factors))
    paths = risky_paths(tree)
    if path_index >= len(paths):
        return tree.to_json(), None
    assignment = {factors[f]: v for f, v in paths[path_index].items()}
    stressed = stress_sample(model, assignment, count, derive_seed(seed, 1))
    return tree.to_json(), scenarios_to_csv(stressed, model.names)


class TestStressStream:
    """`stress` samples, labels and writes one row block at a time; its
    files equal those of the whole-matrix functions."""

    @pytest.mark.parametrize("count", COUNTS)
    def test_clamp_equals_in_memory(self, tmp_path, model_file, count):
        out = tmp_path / "s.csv"
        assert run(["stress", "--model", model_file, "--clamp", "Km=0,SMB=1",
                    "--count", count, "--seed", 7, "--out-scenarios", out]) == 0
        model = SbcnModel.from_json(read(model_file))
        index = model.name_to_index()
        stressed = stress_sample(model, {index["Km"]: 0, index["SMB"]: 1}, count, derive_seed(7, 1))
        assert out.read_bytes() == scenarios_to_csv(stressed, model.names).encode()

    @pytest.mark.parametrize("samples", [1, B + 1])
    @pytest.mark.parametrize("count", COUNTS)
    def test_tree_path_equals_in_memory(self, tmp_path, model_file, samples, count):
        out, tree = tmp_path / "s.csv", tmp_path / "t.json"
        assert run(["stress", "--model", model_file, "--samples-for-tree", samples,
                    "--count", count, "--seed", 5, "--out-scenarios", out, "--out-tree", tree]) == 0
        model = SbcnModel.from_json(read(model_file))
        expected_tree, expected_csv = in_memory_stress(model, 5, samples, count)
        assert read(tree) == expected_tree
        assert out.read_bytes() == expected_csv.encode()

    def test_tree_path_equals_in_memory_at_path_index(self, tmp_path):
        # the stocks come first, so factor f of the tree is node 10 + f: a
        # path clamped by feature index, not node index, clamps stocks
        spec = market_factor_spec(seed=3, positive_loadings=True)
        data = simulate_dataset(spec, 3000, seed=4)
        order = [*range(5, 15), *range(5)]
        where = {node: i for i, node in enumerate(order)}
        data = BinaryDataset(data.values[:, order], [data.names[i] for i in order],
                             [data.rank[i] for i in order])
        dag = Dag(15, [(where[u], where[v]) for u, v in ground_truth_dag(spec).edges])
        model = fit_cpts(data, dag)
        path, out, tree = tmp_path / "m.json", tmp_path / "s.csv", tmp_path / "t.json"
        path.write_text(model.to_json())
        assert run(["stress", "--model", path, "--samples-for-tree", B + 1, "--risky-fraction", 0.3,
                    "--path-index", 1, "--count", B + 1, "--seed", 5, "--out-scenarios", out,
                    "--out-tree", tree]) == 0
        expected_tree, expected_csv = in_memory_stress(model, 5, B + 1, B + 1, 0.3, path_index=1)
        assert read(tree) == expected_tree
        assert expected_csv is not None and out.read_bytes() == expected_csv.encode()
        # path 1 differs from path 0 on the factors it clamps
        assert in_memory_stress(model, 5, B + 1, B + 1, 0.3)[1] != expected_csv

    @pytest.mark.parametrize("n_factors, n_stocks, p", [
        (12, 20, 0.3),  # 12 factor bits + 5 up-count bits: 2^17 keys, past the dense table
        (60, 8, 0.05),  # 60 factor bits + 4 up-count bits: 64, the widest 8-byte integer key
    ])
    @pytest.mark.parametrize("samples", [B + 1, 4 * B + 1])
    def test_tree_path_equals_in_memory_many_factors(self, tmp_path, n_factors, n_stocks, p, samples):
        _, dag, data = sparse_random_instance(n_factors, n_stocks, p, T=2000, seed=n_factors)
        model = fit_cpts(data, dag)
        path, out, tree = tmp_path / "m.json", tmp_path / "s.csv", tmp_path / "t.json"
        path.write_text(model.to_json())
        assert run(["stress", "--model", path, "--samples-for-tree", samples, "--count", B + 1,
                    "--risky-fraction", 0.3, "--seed", 5, "--out-scenarios", out,
                    "--out-tree", tree]) == 0
        expected_tree, expected_csv = in_memory_stress(model, 5, samples, B + 1, 0.3)
        assert read(tree) == expected_tree
        assert out.read_bytes() == expected_csv.encode()

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_tree_path_equals_in_memory_at_extreme_fractions(self, tmp_path, capsys, model_file,
                                                              fraction):
        out, tree = tmp_path / "s.csv", tmp_path / "t.json"
        code = run(["stress", "--model", model_file, "--samples-for-tree", B + 1,
                    "--risky-fraction", fraction, "--count", B + 1, "--seed", 5,
                    "--out-scenarios", out, "--out-tree", tree])
        model = SbcnModel.from_json(read(model_file))
        expected_tree, expected_csv = in_memory_stress(model, 5, B + 1, B + 1, fraction)
        assert read(tree) == expected_tree
        # no row is risky at 0, so no leaf is; at 1 the root leaf is risky
        assert (expected_csv is None) == (fraction == 0.0)
        if expected_csv is None:
            assert code == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                "error: no risky leaf derivable from the classification tree; "
                "raise --risky-fraction or supply --clamp")
            assert not out.exists()
        else:
            assert code == 0
            assert out.read_bytes() == expected_csv.encode()

    def test_non_ascii_name_round_trips(self, tmp_path, model_file):
        model = SbcnModel.from_json(read(model_file))
        names = ("Kmé",) + model.names[1:]
        path = tmp_path / "m.json"
        path.write_text(SbcnModel(model.dag, model.cpts, model.rank, model.confidence,
                                  names).to_json(), encoding="utf-8")
        out = tmp_path / "s.csv"
        assert run(["stress", "--model", path, "--clamp", "Kmé=1", "--count", B + 1,
                    "--out-scenarios", out]) == 0
        data = BinaryDataset.from_csv(out.read_text(encoding="utf-8"))
        assert data.names == names and data.m == B + 1
        assert (data.values[:, 0] == 1).all()

    @pytest.mark.parametrize("picker", [["--clamp", "Km=0"], ["--samples-for-tree", B + 1]])
    def test_out_scenarios_in_missing_directory(self, tmp_path, capsys, model_file, picker):
        out = tmp_path / "absent" / "s.csv"
        assert run(["stress", "--model", model_file, *picker, "--count", 2 * B + 1,
                    "--out-scenarios", out]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "absent" in errors[0]
        assert not out.parent.exists()

    def test_memory_does_not_grow_with_count(self, tmp_path, model_file):
        def peak(count):
            tracemalloc.start()
            try:
                assert run(["stress", "--model", model_file, "--count", count,
                            "--samples-for-tree", 1000, "--out-scenarios", tmp_path / "s.csv"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(30000), peak(300000)
        assert large < 6 * 2**20
        assert abs(large - small) < 2**20

    def test_memory_does_not_grow_with_samples_for_tree(self, tmp_path, model_file):
        def peak(samples):
            tracemalloc.start()
            try:
                assert run(["stress", "--model", model_file, "--samples-for-tree", samples,
                            "--count", 1000, "--out-scenarios", tmp_path / "s.csv"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(30000), peak(300000)
        assert abs(large - small) < 2**20

    def test_tree_memory_at_60_factors(self, tmp_path):
        """The tree's split counts read each node's bool rows in place; an
        int64 copy of them and a copy of the risky rows would raise this
        run's traced peak from about 14 to about 30 MiB."""
        _, dag, data = sparse_random_instance(60, 8, 0.05, T=2000, seed=60)
        path = tmp_path / "m.json"
        path.write_text(fit_cpts(data, dag).to_json())
        tracemalloc.start()
        try:
            assert run(["stress", "--model", path, "--samples-for-tree", 50000, "--risky-fraction", 0.3,
                        "--seed", 5, "--count", 1000, "--out-scenarios", tmp_path / "s.csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestEvaluate:
    def test_stats_row(self, tmp_path):
        data = tmp_path / "d.csv"
        truth = tmp_path / "t.json"
        model = tmp_path / "m.json"
        out = tmp_path / "stats.csv"
        run(["simulate", "--samples", 300, "--seed", 1, "--out-data", data,
             "--out-truth", truth])
        run(["infer", "--data", data, "--seed", 2, "--max-iterations", 200,
             "--out-model", model])
        assert run(["evaluate", "--model", model, "--truth", truth, "--out", out]) == 0
        lines = read(out).splitlines()
        assert lines[0].startswith("tp,fp,fn,tn")
        assert len(lines) == 2

    def test_truth_in_another_variable_order_is_refused(self, tmp_path, capsys):
        data, truth, model = tmp_path / "d.csv", tmp_path / "t.json", tmp_path / "m.json"
        run(["simulate", "--samples", 500, "--seed", 3, "--out-data", data, "--out-truth", truth])
        run(["infer", "--data", data, "--out-model", model])
        assert run(["evaluate", "--model", model, "--truth", truth, "--out", tmp_path / "a.csv"]) == 0
        assert read(tmp_path / "a.csv").splitlines()[1].startswith("52,")
        # the same DAG written over the reversed variable order
        obj = json.loads(read(truth))
        last = obj["n"] - 1
        reversed_truth = tmp_path / "r.json"
        reversed_truth.write_text(json.dumps({
            "n": obj["n"], "names": obj["names"][::-1],
            "edges": sorted([last - u, last - v] for u, v in obj["edges"]),
        }))
        capsys.readouterr()
        out = tmp_path / "b.csv"
        assert run(["evaluate", "--model", model, "--truth", reversed_truth, "--out", out]) == 1
        first, last_name = obj["names"][0], obj["names"][-1]
        assert capsys.readouterr().err.splitlines() == [
            f"error: names[0] is {last_name!r}, expected {first!r} (variables in another order)"
        ]
        assert not out.exists()


class TestArtifactsReadBack:
    def test_every_written_file_reads_back_equal(self, tmp_path):
        """Each JSON file the CLI writes reads back to an object that writes
        the same bytes again, and the truth DAG to the generator's DAG."""
        data, truth = tmp_path / "d.csv", tmp_path / "t.json"
        model, report, tree = tmp_path / "m.json", tmp_path / "r.json", tmp_path / "tree.json"
        assert run(["simulate", "--samples", 400, "--seed", 6, "--out-data", data,
                    "--out-truth", truth]) == 0
        assert run(["infer", "--data", data, "--bootstrap", 2, "--threads", 1, "--seed", 6,
                    "--out-model", model, "--out-report", report]) == 0
        assert run(["stress", "--model", model, "--risky-fraction", 0.2, "--seed", 6,
                    "--out-scenarios", tmp_path / "s.csv", "--out-tree", tree]) == 0
        spec, dag, _ = generate_instance("famafrench", {}, 400, 6)
        assert dag_from_json(read(truth), spec.names) == dag
        assert dag_to_json(dag_from_json(read(truth)), spec.names) == read(truth)
        assert SbcnModel.from_json(read(model)).to_json() == read(model)
        assert BootstrapReport.from_json(read(report)).to_json() == read(report)
        assert DecisionTree.from_json(read(tree)).to_json() == read(tree)
        assert risky_paths(DecisionTree.from_json(read(tree)))


class TestSweep:
    def config(self, tmp_path, **overrides):
        cfg = {
            "generator": {"mode": "famafrench", "n_stocks": 4},
            "sample_sizes": [100],
            "criteria": ["bic"],
            "bootstrap": [False],
            "learners": ["sbcn"],
            "repetitions": 2,
            "seed": 3,
            "max_iterations": 200,
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_writes_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", self.config(tmp_path), "--out", out,
                    "--threads", 1]) == 0
        lines = read(out).splitlines()
        assert len(lines) == 2

    def test_malformed_config_lists_missing_keys(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"generator": {"mode": "sparse"}}))
        assert run(["sweep", "--config", path, "--out", tmp_path / "o.csv"]) == 1

    def test_ill_typed_key_is_one_error_line(self, tmp_path):
        done = run_module("sweep", "--config", self.config(tmp_path, sample_sizes=20),
                          "--out", tmp_path / "o.csv")
        assert done.returncode == 1
        assert done.stderr.splitlines() == ["error: sample_sizes must be a list, got 20"]
        assert not (tmp_path / "o.csv").exists()

    def test_negative_threads_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--config", self.config(tmp_path), "--out", tmp_path / "o.csv",
                 "--threads=-1"])
        assert exc.value.code == 2
        assert "argument --threads: -1 is negative" in capsys.readouterr().err

    def test_rerun_and_threads_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        out = tmp_path / "t.csv"
        assert run(["sweep", "--config", cfg, "--out", out, "--threads", 1]) == 0
        first = read(out)
        assert run(["sweep", "--config", cfg, "--out", out, "--threads", 2]) == 0
        assert read(out) == first


class TestEncoding:
    @pytest.mark.parametrize("marked", ["data", "model"])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, marked):
        """Excel's "CSV UTF-8" starts a file with a byte-order mark; it is no
        part of the first variable name, and a model file may carry one too."""
        files = {"data": tmp_path / "d.csv", "model": tmp_path / "m.json"}
        out = tmp_path / "s.csv"

        def mark(kind):
            if kind == marked:
                files[kind].write_bytes(b"\xef\xbb\xbf" + files[kind].read_bytes())
        assert run(["simulate", "--samples", 200, "--seed", 1, "--out-data", files["data"]]) == 0
        mark("data")
        assert run(["infer", "--data", files["data"], "--max-iterations", 200,
                    "--out-model", files["model"]]) == 0
        mark("model")
        assert run(["stress", "--model", files["model"], "--clamp", "Km=0", "--count", 3,
                    "--out-scenarios", out]) == 0
        assert read(out).startswith("Km,")

    def test_utf8_files_under_ascii_locale(self, tmp_path):
        """Files are UTF-8 whatever the locale's encoding is."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONPATH=str(src))
        data = tmp_path / "data.csv"
        data.write_bytes("é,b\n0,1\n1,0\n1,1\n0,0\n".encode("utf-8"))

        def cli(*args):
            command = [sys.executable, "-X", "utf8=0", "-m", "sbcn.cli", *map(str, args)]
            return subprocess.run(command, env=env, capture_output=True, encoding="utf-8")

        done = cli("infer", "--data", data, "--out-model", tmp_path / "m.json")
        assert done.returncode == 0, done.stderr
        assert SbcnModel.from_json(read(tmp_path / "m.json")).names == ("é", "b")
        done = cli("stress", "--model", tmp_path / "m.json", "--clamp", "b=1", "--count", 3,
                   "--out-scenarios", tmp_path / "s.csv")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "s.csv").read_bytes().startswith("é,b\n".encode("utf-8"))
