import numpy as np
import pytest

from sbcn.datagen import (
    FACTOR_NAMES_5,
    GENERATOR_MODES,
    GENERATOR_PARAMS,
    FactorModelSpec,
    RealSeries,
    SingularDesignError,
    binarize,
    estimate_spec,
    generate_instance,
    generator_params,
    ground_truth_dag,
    lag_align,
    market_factor_spec,
    series_from_csv,
    simulate,
    simulate_dataset,
    sparse_random_instance,
)
from sbcn.learn import prima_facie_edges
from sbcn.model import CsvFormatError, Dag, ModelSchemaError
from sbcn.seeds import derive_seed


def split_series(series, spec):
    """Factor columns and stock columns as separate series."""
    nf = spec.n_factors
    factors = RealSeries(series.values[:, :nf], series.names[:nf], n_factors=nf)
    stocks = RealSeries(series.values[:, nf:], series.names[nf:])
    return factors, stocks


class TestSpecValidation:
    def test_default_market_spec(self):
        spec = market_factor_spec(seed=0)
        assert spec.n_factors == 5 and spec.n_stocks == 10
        assert spec.factor_names == FACTOR_NAMES_5
        assert spec.factor_dag.edges == frozenset({(0, j) for j in range(1, 5)})

    def test_positive_loadings(self):
        spec = market_factor_spec(seed=1, positive_loadings=True)
        assert np.all(spec.stock_betas > 0)
        assert np.all(spec.factor_loadings[1:, 0] > 0)

    def test_loading_requires_arc(self):
        with pytest.raises(ValueError, match="without the corresponding arc"):
            FactorModelSpec(
                2, 1, Dag(2), np.array([[0.0, 0.0], [0.5, 0.0]]),
                np.ones(2), np.ones((1, 2)), np.ones(1),
            )

    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            FactorModelSpec(
                1, 1, Dag(1), np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)), np.ones(1)
            )

    @pytest.mark.parametrize("overrides, message", [
        ({"n_factors": 0, "factor_dag": Dag(0), "factor_loadings": np.zeros((0, 0)),
          "factor_sigma": np.ones(0), "stock_betas": np.ones((1, 0))},
         "need at least one factor and a nonnegative stock count"),
        ({"n_stocks": -1}, "need at least one factor and a nonnegative stock count"),
        ({"lag": -1}, "lag must be nonnegative"),
        ({"factor_dag": Dag(3)}, "factor_dag size does not match n_factors"),
        ({"factor_loadings": np.zeros((2, 3))}, "factor_loadings must be (n_factors, n_factors)"),
        ({"stock_betas": np.ones((2, 2))}, "stock_betas must be (n_stocks, n_factors)"),
        ({"factor_sigma": np.ones(3)}, "factor_sigma must be n_factors positive scales"),
        ({"stock_sigma": np.ones(2)}, "stock_sigma must be n_stocks positive scales"),
        ({"stock_sigma": np.array([0.0])}, "stock_sigma must be n_stocks positive scales"),
        ({"factor_names": ("a",)}, "name counts do not match factor/stock counts"),
        ({"stock_names": ("p", "q")}, "name counts do not match factor/stock counts"),
    ], ids=["no-factor", "negative-stocks", "lag", "dag-size", "loadings-shape", "betas-shape",
            "factor-sigma-shape", "stock-sigma-shape", "stock-sigma-zero", "factor-names",
            "stock-names"])
    def test_each_check_names_its_fault(self, overrides, message):
        fields = {"n_factors": 2, "n_stocks": 1, "factor_dag": Dag(2),
                  "factor_loadings": np.zeros((2, 2)), "factor_sigma": np.ones(2),
                  "stock_betas": np.ones((1, 2)), "stock_sigma": np.ones(1)}
        FactorModelSpec(**fields)
        with pytest.raises(ValueError) as exc:
            FactorModelSpec(**{**fields, **overrides})
        assert str(exc.value) == message


class TestSimulate:
    def test_row_count_exact(self):
        spec = market_factor_spec(seed=2)
        assert simulate(spec, 100, seed=3).T == 100

    def test_deterministic(self):
        spec = market_factor_spec(seed=4)
        a = simulate(spec, 50, seed=5)
        b = simulate(spec, 50, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_t_must_exceed_lag(self):
        spec = market_factor_spec(seed=6)
        with pytest.raises(ValueError):
            simulate(spec, 1, seed=0)

    def test_zero_betas_give_independent_columns(self):
        spec = FactorModelSpec(
            3, 3, Dag(3), np.zeros((3, 3)), np.ones(3), np.zeros((3, 3)), np.ones(3)
        )
        series = simulate(spec, 4000, seed=7)
        corr = np.corrcoef(series.values.T)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.all(np.abs(off_diag) < 3 / np.sqrt(4000) + 0.02)

    def test_unit_beta_tiny_noise_copies_lagged_factor(self):
        spec = FactorModelSpec(
            1, 1, Dag(1), np.zeros((1, 1)), np.ones(1),
            np.array([[1.0]]), np.array([1e-9]), lag=1,
        )
        series = simulate(spec, 200, seed=8)
        factor, stock = series.values[:, 0], series.values[:, 1]
        assert np.allclose(stock[1:], factor[:-1], atol=1e-6)

    def test_market_factor_drives_children_in_binarized_rows(self):
        # a child whose drawn loading lands near zero carries no signal at
        # any sample size, so recovery is counted per arc, not per seed
        found = 0
        for seed in range(20):
            spec = market_factor_spec(seed=seed)
            data = binarize(simulate(spec, 5000, seed=100 + seed))
            edges = prima_facie_edges(data).edges
            found += sum((0, j) in edges for j in range(1, 5))
        assert found >= 70  # of 80


class TestLagAlign:
    def test_zero_lag_identity(self):
        spec = market_factor_spec(seed=9, lag=0)
        series = simulate(spec, 30, seed=1)
        assert lag_align(series, 0) is series

    def test_alignment_pairs_causes_with_effects(self):
        spec = FactorModelSpec(
            1, 1, Dag(1), np.zeros((1, 1)), np.ones(1),
            np.array([[1.0]]), np.array([1e-9]), lag=1,
        )
        series = simulate(spec, 100, seed=2)
        aligned = lag_align(series, 1)
        assert aligned.T == 99
        assert np.allclose(aligned.values[:, 1], aligned.values[:, 0], atol=1e-6)

    @pytest.mark.parametrize("rows, lag, message", [
        (5, -1, "lag must be nonnegative"),
        (2, 2, "series of length 2 too short for lag 2"),
    ], ids=["negative-lag", "too-short"])
    def test_rejects_a_lag_it_cannot_apply(self, rows, lag, message):
        series = RealSeries(np.zeros((rows, 2)), ["f", "p"], n_factors=1)
        with pytest.raises(ValueError) as exc:
            lag_align(series, lag)
        assert str(exc.value) == message

    def test_simulate_dataset_row_count(self):
        spec = market_factor_spec(seed=10)
        assert simulate_dataset(spec, 250, seed=3).m == 250


class TestBinarize:
    def test_median_mode_balances_marginals(self):
        rng = np.random.default_rng(11)
        series = RealSeries(rng.normal(size=(501, 3)), ["a", "b", "c"])
        data = binarize(series)
        for j in range(3):
            assert abs(data.values[:, j].mean() - 0.5) <= 1 / 501 + 1e-9

    def test_constant_column_degenerate(self):
        # no value exceeds the median of a constant column
        series = RealSeries(np.full((3, 1), 2.0), ["x"])
        assert binarize(series).values[:, 0].tolist() == [0, 0, 0]

    def test_rank_assignment(self):
        series = RealSeries(np.zeros((3, 4)), list("abcd"), n_factors=2)
        data = binarize(series)
        assert data.rank == (0, 0, 1, 1)


class TestGroundTruth:
    def test_default_spec_arc_count(self):
        spec = market_factor_spec(seed=12)
        truth = ground_truth_dag(spec)
        nonzero = int(np.count_nonzero(spec.stock_betas))
        assert len(truth.edges) == 4 + nonzero
        # loadings are continuous draws, so in practice all 50 are nonzero
        assert nonzero == 50

    def test_zero_stock_betas(self):
        spec = FactorModelSpec(
            2, 2, Dag(2, [(0, 1)]), np.array([[0.0, 0.0], [0.5, 0.0]]),
            np.ones(2), np.zeros((2, 2)), np.ones(2),
        )
        assert ground_truth_dag(spec).edges == frozenset({(0, 1)})

    def test_sparse_edge_count_matches_binomial_mean(self):
        counts = [
            len(sparse_random_instance(T=50, seed=s)[1].edges) for s in range(50)
        ]
        assert abs(np.mean(counts) - 60) < 6
        assert all(abs(c - 60) < 25 for c in counts)


class TestSparseInstance:
    def test_p_zero_no_edges(self):
        spec, truth, data = sparse_random_instance(p=0.0, T=50, seed=0)
        assert truth.edges == frozenset()

    def test_p_one_complete_bipartite(self):
        spec, truth, data = sparse_random_instance(p=1.0, T=50, seed=1)
        assert len(truth.edges) == 10 * 20

    def test_dataset_shape_and_rank(self):
        spec, truth, data = sparse_random_instance(T=250, seed=2)
        assert data.m == 250 and data.n == 30
        assert data.rank == (0,) * 10 + (1,) * 20

    def test_signed_loadings_flag(self):
        spec, _, _ = sparse_random_instance(T=50, seed=3, signed_loadings=True)
        present = spec.stock_betas[spec.stock_betas != 0]
        assert (present < 0).any() and (present > 0).any()
        spec, _, _ = sparse_random_instance(T=50, seed=3)
        assert np.all(spec.stock_betas >= 0)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            sparse_random_instance(p=1.5, T=50, seed=0)


class TestEstimateSpec:
    def test_recovers_known_spec(self):
        true = market_factor_spec(seed=13)
        quiet = FactorModelSpec(
            5, 10, true.factor_dag, true.factor_loadings, true.factor_sigma,
            true.stock_betas, np.full(10, 1e-6), lag=1,
            factor_names=true.factor_names, stock_names=true.stock_names,
        )
        series = simulate(quiet, 2000, seed=14)
        factors, stocks = split_series(series, quiet)
        fitted = estimate_spec(stocks, factors, lag=1)
        assert np.allclose(fitted.stock_betas, quiet.stock_betas, atol=0.01)
        assert np.allclose(fitted.factor_loadings[1:, 0], quiet.factor_loadings[1:, 0], atol=0.05)

    def test_uncorrelated_factor_beta_near_zero(self):
        diffs = []
        for seed in range(20):
            spec = FactorModelSpec(
                2, 1, Dag(2), np.zeros((2, 2)), np.ones(2),
                np.array([[0.8, 0.0]]), np.ones(1), lag=1,
            )
            series = simulate(spec, 3000, seed=seed)
            factors, stocks = split_series(series, spec)
            fitted = estimate_spec(stocks, factors, lag=1)
            diffs.append(fitted.stock_betas[0, 1])
        assert abs(np.mean(diffs)) < 0.05

    def test_too_few_rows(self):
        factors = RealSeries(np.random.default_rng(0).normal(size=(5, 3)), ["a", "b", "c"])
        returns = RealSeries(np.random.default_rng(1).normal(size=(5, 1)), ["p"])
        with pytest.raises(ValueError, match="rows"):
            estimate_spec(returns, factors, lag=1)

    def test_singular_design_names_columns(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=(100, 1))
        factors = RealSeries(np.hstack([base, base]), ["a", "a_copy"])
        returns = RealSeries(rng.normal(size=(100, 1)), ["p"])
        with pytest.raises(SingularDesignError, match="a_copy"):
            estimate_spec(returns, factors, lag=0)

    def test_misaligned_series(self):
        factors = RealSeries(np.zeros((10, 2)), ["a", "b"])
        returns = RealSeries(np.zeros((9, 1)), ["p"])
        with pytest.raises(ValueError, match="aligned"):
            estimate_spec(returns, factors, lag=1)

    def test_negative_lag(self):
        factors = RealSeries(np.zeros((10, 2)), ["a", "b"])
        returns = RealSeries(np.zeros((10, 1)), ["p"])
        with pytest.raises(ValueError, match="^lag must be nonnegative$"):
            estimate_spec(returns, factors, lag=-1)


class TestSeriesCsv:
    def test_reads_headered_csv(self):
        series = series_from_csv("a,b\n1.5,2\n-1,0.25\n", n_factors=1)
        assert series.names == ("a", "b")
        assert series.values[1, 1] == 0.25

    def test_drops_date_column(self):
        series = series_from_csv("date,a\n2001-01-01,1.0\n2001-01-02,2.0\n")
        assert series.names == ("a",)
        assert series.values[:, 0].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("text, message", [
        ("date,a,b\n2001-01-01,1.0,2\n2001-01-02,x,2\n",
         "row 3, column 2: invalid cell 'x' (must be a number)"),
        ("a,b\n1,2\n3\n", "row 3: 1 cells, expected 2"),
        ("a,b\n1,2,3\n", "row 2: 3 cells, expected 2"),
        ("a,b\n", "CSV has a header but no data rows"),
        ("", "empty CSV"),
    ], ids=["non-numeric-cell", "short-row", "long-row", "header-only", "empty"])
    def test_malformed_csv_names_the_place(self, text, message):
        with pytest.raises(CsvFormatError) as exc:
            series_from_csv(text)
        assert str(exc.value) == message

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            RealSeries(np.array([[np.inf]]), ["x"])

    @pytest.mark.parametrize("values, names, n_factors, message", [
        (np.zeros(3), ["x"], 0, "expected a 2-D matrix, got shape (3,)"),
        (np.zeros((3, 2)), ["x"], 0, "2 columns but 1 names"),
        (np.zeros((3, 2)), ["x", "y"], 3, "n_factors out of range"),
        (np.zeros((3, 2)), ["x", "y"], -1, "n_factors out of range"),
    ], ids=["1-D", "name-count", "n_factors-high", "n_factors-negative"])
    def test_series_checks(self, values, names, n_factors, message):
        with pytest.raises(ValueError) as exc:
            RealSeries(values, names, n_factors)
        assert str(exc.value) == message


class TestGenerateInstance:
    def test_modes_are_the_parameter_table(self):
        assert GENERATOR_MODES == tuple(GENERATOR_PARAMS) == ("famafrench", "sparse")

    def test_famafrench_instance(self):
        spec, truth, data = generate_instance(
            "famafrench", {"n_stocks": 3, "positive_loadings": True}, 60, seed=4
        )
        expected = market_factor_spec(derive_seed(4, 0), n_stocks=3, positive_loadings=True)
        assert spec == expected
        assert truth == ground_truth_dag(expected)
        assert data == simulate_dataset(expected, 60, derive_seed(4, 1))

    def test_sparse_instance(self):
        got = generate_instance("sparse", {"n_factors": 3, "p": 0.5}, 40, seed=2)
        expected = sparse_random_instance(n_factors=3, p=0.5, T=40, seed=2)
        assert got == expected

    def test_defaults_and_types(self):
        assert generator_params("famafrench", {}) == GENERATOR_PARAMS["famafrench"]
        params = generator_params("sparse", {"n_stocks": 4.0, "p": 1})
        assert params["n_stocks"] == 4 and type(params["n_stocks"]) is int
        assert params["p"] == 1.0 and type(params["p"]) is float
        assert generator_params("sparse", '{"n_stocks": 4.0, "p": 1}') == params

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="^unknown generator mode 'garch'; choose from famafrench, sparse$"):
            generate_instance("garch", {}, 50, seed=0)

    def test_unknown_keys_listed(self):
        with pytest.raises(ModelSchemaError, match="^unknown generator keys: n_factor, vol$"):
            generator_params("sparse", {"vol": 1, "n_factor": 2, "p": 0.1})

    @pytest.mark.parametrize("text, message", [
        ('{"p": 0.1,}', "^generator is not valid JSON: "),
        ("[0.1]", "^generator must be a JSON object$"),
    ])
    def test_text_must_be_a_json_object(self, text, message):
        with pytest.raises(ModelSchemaError, match=message):
            generator_params("sparse", text)

    @pytest.mark.parametrize("value", ["true", 1, None])
    def test_flags_must_be_booleans(self, value):
        with pytest.raises(ModelSchemaError, match="^signed_loadings must be true or false"):
            generator_params("sparse", {"signed_loadings": value})

    @pytest.mark.parametrize("value", [3.6, True, [3]])
    def test_counts_must_be_integers(self, value):
        with pytest.raises(ModelSchemaError, match="^n_stocks must be an integer, got "):
            generator_params("famafrench", {"n_stocks": value})

    def test_n_stocks_range(self):
        with pytest.raises(ModelSchemaError) as exc:
            generator_params("famafrench", {"n_stocks": -1})
        assert str(exc.value) == "n_stocks must be >= 0, got -1"
        assert generator_params("sparse", {"n_stocks": 0})["n_stocks"] == 0

    def test_n_factors_range(self):
        with pytest.raises(ModelSchemaError) as exc:
            generator_params("sparse", {"n_factors": 0})
        assert str(exc.value) == "n_factors must be >= 1, got 0"
        assert generator_params("sparse", {"n_factors": 1})["n_factors"] == 1

    @pytest.mark.parametrize("value", [2, -0.5, 1.0000001])
    def test_p_range(self, value):
        with pytest.raises(ModelSchemaError) as exc:
            generator_params("sparse", {"p": value})
        assert str(exc.value) == f"p must be in [0, 1], got {float(value)!r}"
        assert generator_params("sparse", {"p": 0})["p"] == 0.0

    def test_lag_range(self):
        with pytest.raises(ModelSchemaError) as exc:
            generator_params("famafrench", {"lag": -1})
        assert str(exc.value) == "lag must be >= 0, got -1"
        assert generator_params("famafrench", {"lag": 0})["lag"] == 0
