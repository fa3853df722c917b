import numpy as np
import pytest

from oracles import make_dataset as dataset
from sbcn.bootstrap import BootstrapReport, _fan_out, edge_confidence, prune, resample
from sbcn.learn import LearnOptions, fit_cpts, learn_bn, learn_sbcn
from sbcn.model import Dag, ModelSchemaError


def copy_edge_dataset(seed, m=1000, noise=0.05):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 2, size=m)
    u = np.where(rng.random(m) < 1 - noise, v, 1 - v)
    return dataset(np.column_stack([v, u]), rank=[0, 1])


class TestResample:
    def test_single_row_forced(self):
        ds = dataset([[1, 0]], rank=[0, 1])
        out = resample(ds, seed=5)
        assert np.array_equal(out.values, ds.values)

    def test_preserves_names_and_rank(self):
        ds = dataset([[0, 1], [1, 0]], rank=[0, 2], names=["f", "s"])
        out = resample(ds, seed=1)
        assert out.names == ("f", "s")
        assert out.rank == (0, 2)

    def test_reproducible(self):
        rng = np.random.default_rng(2)
        ds = dataset(rng.integers(0, 2, size=(50, 3)))
        assert np.array_equal(resample(ds, 9).values, resample(ds, 9).values)
        assert not np.array_equal(resample(ds, 9).values, resample(ds, 10).values)

    def test_distinct_row_fraction(self):
        # with-replacement draws keep ~1 - 1/e of the distinct originals
        m = 1000
        # every row unique via its bit pattern
        values = np.array([[(i >> b) & 1 for b in range(10)] for i in range(m)], dtype=np.uint8)
        ds = dataset(values)
        fractions = []
        for seed in range(100):
            out = resample(ds, seed)
            distinct = len({tuple(r) for r in out.values})
            fractions.append(distinct / m)
        assert abs(np.mean(fractions) - (1 - 1 / np.e)) < 0.05


class TestEdgeConfidence:
    def test_strong_edge_high_confidence(self):
        ds = copy_edge_dataset(0)
        opts = LearnOptions(max_iterations=200, seed=3)
        report = edge_confidence(ds, opts, replicates=20)
        assert report.confidence[(0, 1)] >= 0.95

    def test_independent_coins_low_confidence(self):
        rng = np.random.default_rng(4)
        low = 0
        for outer in range(10):
            ds = dataset(rng.integers(0, 2, size=(500, 3)), rank=[0, 1, 1])
            opts = LearnOptions(max_iterations=200, seed=outer)
            report = edge_confidence(ds, opts, replicates=20)
            if all(c <= 0.3 for c in report.confidence.values()):
                low += 1
        assert low >= 9

    def test_no_replicate(self):
        ds = copy_edge_dataset(1)
        with pytest.raises(ValueError, match=r"^replicates must be >= 1$"):
            edge_confidence(ds, LearnOptions(max_iterations=200, seed=0), replicates=0)

    def test_single_replicate_binary_confidence(self):
        ds = copy_edge_dataset(1)
        opts = LearnOptions(max_iterations=200, seed=0)
        report = edge_confidence(ds, opts, replicates=1)
        assert set(report.confidence.values()) <= {0.0, 1.0}

    def test_confidences_are_exact_fractions(self):
        ds = copy_edge_dataset(2, m=200, noise=0.3)
        opts = LearnOptions(max_iterations=200, seed=1)
        report = edge_confidence(ds, opts, replicates=8)
        for c in report.confidence.values():
            assert (c * 8) == int(c * 8)

    def test_deterministic(self):
        ds = copy_edge_dataset(3, m=300, noise=0.2)
        opts = LearnOptions(max_iterations=200, seed=7)
        a = edge_confidence(ds, opts, replicates=5)
        b = edge_confidence(ds, opts, replicates=5)
        assert a.confidence == b.confidence

    def test_covers_original_model_edges(self):
        ds = copy_edge_dataset(5)
        opts = LearnOptions(max_iterations=200, seed=2)
        model = learn_sbcn(ds, opts)
        report = edge_confidence(ds, opts, replicates=3, model=model)
        assert set(model.dag.edges) <= set(report.confidence)

    def test_learner_is_a_registry_name(self):
        ds = copy_edge_dataset(7)
        opts = LearnOptions(max_iterations=200, seed=3)
        model = learn_bn(ds, opts)
        assert edge_confidence(ds, opts, replicates=3, learner="bn") == edge_confidence(
            ds, opts, replicates=3, model=model, learner="bn"
        )

    @pytest.mark.parametrize("model", [None, "learned"])
    def test_unknown_learner(self, model):
        ds = copy_edge_dataset(8)
        opts = LearnOptions(max_iterations=50, seed=0)
        if model:
            model = learn_sbcn(ds, opts)
        with pytest.raises(ValueError, match=r"unknown learner 'pc'; choose from sbcn, bn"):
            edge_confidence(ds, opts, replicates=2, model=model, learner="pc")


class TestPrune:
    def test_full_confidence_keeps_structure(self):
        ds = copy_edge_dataset(6)
        opts = LearnOptions(max_iterations=200, seed=0)
        model = learn_sbcn(ds, opts)
        report = BootstrapReport(10, {e: 1.0 for e in model.dag.edges})
        pruned = prune(model, report, ds)
        assert pruned.dag.edges == model.dag.edges
        assert pruned.confidence == {e: 1.0 for e in model.dag.edges}

    def test_threshold_boundary_inclusive(self):
        ds = copy_edge_dataset(7)
        model = fit_cpts(ds, Dag(2, [(0, 1)]))
        report = BootstrapReport(100, {(0, 1): 0.50}, threshold=0.5)
        assert prune(model, report, ds).dag.edges == frozenset({(0, 1)})
        report = BootstrapReport(100, {(0, 1): 0.49}, threshold=0.5)
        assert prune(model, report, ds).dag.edges == frozenset()

    def test_zero_threshold_keeps_all(self):
        ds = copy_edge_dataset(8)
        model = fit_cpts(ds, Dag(2, [(0, 1)]))
        report = BootstrapReport(4, {}, threshold=0.0)
        assert prune(model, report, ds).dag.edges == model.dag.edges

    def test_pruned_edges_subset_and_cpts_refit(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 2, size=(300, 4))
        ds = dataset(values, rank=[0, 0, 1, 1])
        model = fit_cpts(ds, Dag(4, [(0, 2), (1, 2), (0, 3)]))
        report = BootstrapReport(10, {(0, 2): 0.9, (1, 2): 0.2, (0, 3): 0.6})
        pruned = prune(model, report, ds)
        assert pruned.dag.edges == frozenset({(0, 2), (0, 3)})
        assert pruned.cpt(2).parents == (0,)
        expected = fit_cpts(ds, Dag(4, [(0, 2), (0, 3)]))
        assert np.allclose(pruned.cpt(2).table, expected.cpt(2).table)

    def test_missing_report_entries_mean_zero(self):
        ds = copy_edge_dataset(11)
        model = fit_cpts(ds, Dag(2, [(0, 1)]))
        report = BootstrapReport(10, {}, threshold=0.5)
        assert prune(model, report, ds).dag.edges == frozenset()


class TestReportJson:
    def test_round_trip(self):
        report = BootstrapReport(20, {(0, 1): 0.55, (2, 0): 1 / 3}, threshold=0.4)
        back = BootstrapReport.from_json(report.to_json())
        assert back.replicates == 20
        assert back.threshold == 0.4
        assert back.confidence == report.confidence

    def test_malformed(self):
        with pytest.raises(ModelSchemaError):
            BootstrapReport.from_json("{}")

    def test_validation(self):
        with pytest.raises(ValueError):
            BootstrapReport(0, {})
        with pytest.raises(ValueError):
            BootstrapReport(5, {(0, 1): 1.2})

    @pytest.mark.parametrize("threshold", [5.0, -0.1, float("nan")])
    def test_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError, match=r"threshold is .*, outside \[0, 1\]"):
            BootstrapReport(1, {}, threshold=threshold)

    def test_nan_threshold_json_is_a_schema_error(self):
        text = '{"replicates": 1, "threshold": NaN, "confidence": []}'
        with pytest.raises(ModelSchemaError, match="threshold"):
            BootstrapReport.from_json(text)


class TestFanOut:
    @pytest.mark.parametrize("cores", [1, None])
    @pytest.mark.parametrize("threads", [None, 0])
    def test_all_cores_of_a_one_core_host_is_serial(self, monkeypatch, cores, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("sbcn.bootstrap.os.cpu_count", lambda: cores)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert _fan_out(str, [1, 2, 3], threads) == ["1", "2", "3"]

    @pytest.mark.parametrize("threads, tasks, workers", [
        (8, 2, 2), (0, 3, 3), (None, 3, 3), (4, 1, None),
    ])
    def test_no_more_workers_than_tasks(self, monkeypatch, threads, tasks, workers):
        # a pool forks all its workers at the first submit, needed or not
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr("sbcn.bootstrap.os.cpu_count", lambda: 64)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert _fan_out(str, list(range(tasks)), threads) == [str(t) for t in range(tasks)]
        assert started == ([] if workers is None else [workers])
