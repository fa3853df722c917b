import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sbcn.learn
from oracles import (
    ScoreTableOracle,
    _reaches,
    all_dags,
    climb_once_oracle,
    direct_counts,
    exhaustive_best_score,
    famafrench,
    make_dataset as dataset,
    node_ll_oracle,
    prima_facie_oracle,
    prima_facie_pair_loop_oracle,
    tiny_linear_dataset,
)
from sbcn.datagen import generate_instance, sparse_random_instance
from sbcn.learn import (
    CRITERIA,
    LEARNERS,
    PENALTIES,
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
from sbcn.learn import (
    _PACKED_MAX_PARENTS,
    _PACKED_MAX_ROWS,
    _add_descendants,
    _climb_once,
    _config_codes,
    _descendants,
    _grouped_rows,
    _node_cost,
    _node_counts,
    _pairwise_sum,
    _score_weights,
    _ScoreTable,
)
from sbcn.model import BinaryDataset, Dag, has_cycle
from sbcn.seeds import derive_seed


class TestPrimaFacie:
    def test_noisy_copy_oriented_by_rank(self):
        rng = np.random.default_rng(0)
        v = rng.integers(0, 2, size=1000)
        u = np.where(rng.random(1000) < 0.9, v, 1 - v)
        ds = dataset(np.column_stack([v, u]), rank=[0, 1])
        edges = prima_facie_edges(ds).edges
        assert (0, 1) in edges
        assert (1, 0) not in edges
        assert edges == frozenset(prima_facie_oracle(ds))

    def test_constant_column_excluded(self):
        rng = np.random.default_rng(1)
        a = np.ones(50, dtype=np.uint8)
        b = rng.integers(0, 2, size=50)
        c = rng.integers(0, 2, size=50)
        ds = dataset(np.column_stack([a, b, c]))
        edges = prima_facie_edges(ds).edges
        assert all(0 not in e for e in edges)

    def test_rank_respected(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            values = rng.integers(0, 2, size=(30, 4))
            ranks = rng.integers(0, 3, size=4)
            ds = dataset(values, rank=list(ranks))
            for v, u in prima_facie_edges(ds).edges:
                assert ds.rank[v] <= ds.rank[u]

    def test_matches_brute_force_fuzz(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(2, 6))
            values = rng.integers(0, 2, size=(m, n))
            ranks = rng.integers(0, 3, size=n)
            ds = dataset(values, rank=list(ranks))
            assert prima_facie_edges(ds).edges == frozenset(prima_facie_oracle(ds))

    def test_equal_rank_keeps_single_direction(self):
        rng = np.random.default_rng(4)
        hit = 0
        for trial in range(30):
            values = rng.integers(0, 2, size=(25, 3))
            ds = dataset(values)
            edges = prima_facie_edges(ds).edges
            for v, u in edges:
                assert (u, v) not in edges
            hit += bool(edges)
        assert hit > 0  # noise produces some candidate arcs to exercise the rule

    def test_duplicating_rows_is_invariant(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            values = rng.integers(0, 2, size=(15, 4))
            ds = dataset(values, rank=[0, 0, 1, 1])
            doubled = dataset(np.vstack([values, values]), rank=[0, 0, 1, 1])
            assert prima_facie_edges(ds).edges == prima_facie_edges(doubled).edges

    def test_edgeset_rejects_self_loop(self):
        with pytest.raises(ValueError):
            EdgeSet(2, [(1, 1)])


class TestFitCpts:
    def test_reproduces_generating_table(self):
        rng = np.random.default_rng(7)
        m = 100000
        a = (rng.random(m) < 0.5).astype(np.uint8)
        p_b = np.where(a == 1, 0.6, 0.7)
        b = (rng.random(m) < p_b).astype(np.uint8)
        ds = dataset(np.column_stack([a, b]), rank=[0, 1])
        model = fit_cpts(ds, Dag(2, [(0, 1)]), smoothing=0)
        table = model.cpt(1).table
        assert abs(table[0] - 0.7) < 0.01
        assert abs(table[1] - 0.6) < 0.01

    def test_empty_parents_equals_marginal(self):
        ds = dataset([[1], [0], [1], [1]])
        model = fit_cpts(ds, Dag(1), smoothing=0)
        assert model.cpt(0).table[0] == ds.values[:, 0].mean()

    def test_unseen_config_gets_half(self):
        ds = dataset([[0, 1], [0, 0]])  # parent never 1
        for smoothing in (0.0, 1.0):
            model = fit_cpts(ds, Dag(2, [(0, 1)]), smoothing=smoothing)
            assert model.cpt(1).table[1] == 0.5

    def test_smoothing_formula(self):
        ds = dataset([[1], [1], [0]])
        model = fit_cpts(ds, Dag(1), smoothing=1)
        assert model.cpt(0).table[0] == (2 + 1) / (3 + 2)

    @pytest.mark.parametrize("smoothing", [-0.1, float("nan")])
    def test_bad_smoothing_names_the_cause(self, smoothing):
        with pytest.raises(ValueError, match=r"^smoothing must be >= 0$"):
            fit_cpts(dataset([[0, 1], [1, 1]]), Dag(2, [(0, 1)]), smoothing)

    def test_infinite_smoothing_names_the_cause(self):
        # not the table-range error an infinite pseudo-count would cause
        with pytest.raises(ValueError, match=r"^smoothing must be finite$"):
            fit_cpts(dataset([[0, 1], [1, 1]]), Dag(2, [(0, 1)]), math.inf)

    def test_model_carries_rank_and_names(self):
        ds = dataset([[0, 1]], rank=[0, 1], names=["f", "s"])
        model = fit_cpts(ds, Dag(2))
        assert model.rank == (0, 1)
        assert model.names == ("f", "s")


class TestLogLikelihood:
    def test_single_variable_hand_value(self):
        ds = dataset([[1], [1], [0], [0]])
        assert log_likelihood(ds, Dag(1)) == pytest.approx(4 * math.log(0.5), abs=1e-12)

    def test_copy_edge_beats_empty(self):
        rng = np.random.default_rng(8)
        v = rng.integers(0, 2, size=200)
        ds = dataset(np.column_stack([v, v]))
        assert log_likelihood(ds, Dag(2, [(0, 1)])) > log_likelihood(ds, Dag(2))

    def test_adding_edges_never_decreases_ll(self):
        rng = np.random.default_rng(9)
        for trial in range(15):
            values = rng.integers(0, 2, size=(30, 3))
            ds = dataset(values)
            for dag in all_dags(3):
                base = log_likelihood(ds, dag)
                for u in range(3):
                    for v in range(3):
                        if u != v and (u, v) not in dag.edges:
                            try:
                                bigger = Dag(3, dag.edges | {(u, v)})
                            except ValueError:
                                continue
                            assert log_likelihood(ds, bigger) >= base - 1e-9

    def test_deterministic_data_is_floored_not_infinite(self):
        ds = dataset([[1, 1], [0, 0]])
        assert np.isfinite(log_likelihood(ds, Dag(2, [(0, 1)])))

    @pytest.mark.parametrize("call, message", [
        (lambda ds: log_likelihood(ds, Dag(3)), "structure has 3 nodes, dataset has 2"),
        (lambda ds: fit_cpts(ds, Dag(3)), "structure has 3 nodes, dataset has 2"),
        (lambda ds: hill_climb(ds, EdgeSet(3), LearnOptions(seed=0)),
         "candidate set has 3 nodes, dataset has 2"),
    ], ids=["log_likelihood", "fit_cpts", "hill_climb"])
    def test_node_count_mismatch(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(dataset([[0, 1], [1, 0]]))
        assert str(exc.value) == message


class TestRegularizedScore:
    def test_empty_graph_is_twice_ll(self):
        ds = dataset([[1, 0], [0, 1], [1, 1]])
        assert regularized_score(ds, Dag(2), "bic") == pytest.approx(
            2 * log_likelihood(ds, Dag(2))
        )

    def test_bic_penalty_arithmetic(self):
        # three arcs at m = 5000: penalty = 3 ln 5000 off the 2*LL term
        rng = np.random.default_rng(10)
        values = rng.integers(0, 2, size=(5000, 4))
        ds = dataset(values)
        dag = Dag(4, [(0, 1), (0, 2), (0, 3)])
        expected = 2 * log_likelihood(ds, dag) - 3 * math.log(5000)
        assert regularized_score(ds, dag, "bic") == pytest.approx(expected, abs=1e-9)
        # frozen spot value: LL = -100, k = 3, N = 5000
        assert -200 - 3 * math.log(5000) == pytest.approx(-225.55157957424872, abs=1e-9)

    def test_aic_default_form(self):
        ds = dataset([[1, 0], [0, 1], [1, 1], [0, 0]])
        dag = Dag(2, [(0, 1)])
        assert regularized_score(ds, dag, "aic") == pytest.approx(
            log_likelihood(ds, dag) - 2
        )

    def test_parameter_penalty_charges_table_size(self):
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2, size=(100, 3))
        ds = dataset(values)
        dag = Dag(3, [(0, 2), (1, 2)])
        ll = log_likelihood(ds, dag)
        expected = 2 * ll - math.log(100) * (1 + 1 + 4)
        assert regularized_score(ds, dag, "bic", penalty="parameters") == pytest.approx(expected)

    def test_score_is_edge_decomposable(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 2, size=(60, 4))
        ds = dataset(values)
        dag = Dag(4, [(0, 1), (1, 2)])
        for edge in [(0, 2), (2, 3), (0, 3)]:
            grown = Dag(4, dag.edges | {edge})
            delta = regularized_score(ds, grown, "bic") - regularized_score(ds, dag, "bic")
            # only the target node's local term changes
            u, v = edge
            local = 2 * (
                log_likelihood(ds, grown) - log_likelihood(ds, dag)
            ) - math.log(60)
            assert delta == pytest.approx(local, abs=1e-9)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            regularized_score(dataset([[0]]), Dag(1), "mdl")


class TestHillClimb:
    def test_empty_allowed_returns_empty(self):
        ds = dataset([[0, 1], [1, 0]])
        dag = hill_climb(ds, EdgeSet(2), LearnOptions(seed=0))
        assert dag.edges == frozenset()

    def test_two_node_strong_dependency(self):
        rng = np.random.default_rng(13)
        m = 1000
        v = rng.integers(0, 2, size=m)
        u = np.where(rng.random(m) < 0.95, v, 1 - v)
        ds = dataset(np.column_stack([v, u]), rank=[0, 1])
        allowed = EdgeSet(2, [(0, 1)])
        for seed in range(30):
            dag = hill_climb(ds, allowed, LearnOptions(max_iterations=200, seed=seed))
            assert dag.edges == frozenset({(0, 1)})

    def test_four_node_chain_recovery(self):
        rng = np.random.default_rng(14)
        exact = 0
        for trial in range(25):
            m = 5000
            cols = [rng.integers(0, 2, size=m)]
            for _ in range(3):
                prev = cols[-1]
                cols.append(np.where(rng.random(m) < 0.9, prev, 1 - prev))
            ds = dataset(np.column_stack(cols), rank=[0, 1, 2, 3])
            allowed = EdgeSet(4, [(u, v) for u in range(4) for v in range(4) if ds.rank[u] <= ds.rank[v] and u != v])
            dag = hill_climb(ds, allowed, LearnOptions(max_iterations=500, seed=trial))
            truth = {(0, 1), (1, 2), (2, 3)}
            diff = len(dag.edges ^ truth)
            if diff == 0:
                exact += 1
            assert diff <= 2
        assert exact >= 20

    def test_matches_exhaustive_on_small_instances(self):
        # strict single-toggle improvement from the empty graph cannot cross
        # score plateaus, so instances come from the package's own generator
        # family (monotone dependencies, parents marginally visible)
        rng = np.random.default_rng(15)
        matched = 0
        for trial in range(30):
            ds = tiny_linear_dataset(rng)
            n = ds.n
            allowed = EdgeSet(n, [(u, v) for u in range(n) for v in range(n) if u != v])
            opts = LearnOptions(max_iterations=300, restarts=40, seed=trial)
            found = hill_climb(ds, allowed, opts)
            best = exhaustive_best_score(ds, allowed)
            if regularized_score(ds, found, "bic") >= best - 1e-9:
                matched += 1
        assert matched >= 28

    def test_fuzz_output_acyclic_and_allowed(self):
        rng = np.random.default_rng(16)
        for trial in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(5, 40))
            values = rng.integers(0, 2, size=(m, n))
            ds = dataset(values)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            take = rng.random(len(pairs)) < 0.6
            allowed = EdgeSet(n, [p for p, t in zip(pairs, take) if t])
            dag = hill_climb(ds, allowed, LearnOptions(max_iterations=60, seed=trial))
            assert dag.edges <= allowed.edges  # Dag construction enforces acyclicity

    def test_incremental_score_equals_recompute(self):
        rng = np.random.default_rng(20)
        for trial in range(25):
            n = int(rng.integers(2, 6))
            values = rng.integers(0, 2, size=(int(rng.integers(10, 80)), n))
            ds = dataset(values)
            allowed = EdgeSet(n, [(u, v) for u in range(n) for v in range(n) if u != v])
            options = LearnOptions(max_iterations=150, seed=trial)
            edges, running, _, _ = _climb_once(
                _ScoreTable(ds), sorted(allowed.edges), options, seed=trial
            )
            assert running == pytest.approx(
                regularized_score(ds, Dag(n, edges), "bic"), abs=1e-9
            )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 2, size=(50, 4))
        ds = dataset(values)
        allowed = EdgeSet(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        opts = LearnOptions(max_iterations=200, seed=99)
        assert hill_climb(ds, allowed, opts).edges == hill_climb(ds, allowed, opts).edges


class TestCountKernel:
    @pytest.mark.parametrize("m", [1, 250, 5000])
    def test_matches_direct_count(self, m):
        rng = np.random.default_rng(m)
        values = rng.integers(0, 2, size=(m, 15))
        values[:, 13] = 0  # constant columns: half the configurations
        values[:, 14] = 1  # of any parent set holding them go unobserved
        ds = dataset(values)
        x, counts = _grouped_rows(ds)
        for q in range(13):
            v = int(rng.integers(0, 15))
            others = [c for c in range(15) if c != v]
            parents = tuple(int(p) for p in rng.choice(others, size=q, replace=False))
            total, ones = _node_counts(x, v, parents, counts)
            want_total, want_ones = direct_counts(values, v, parents)
            assert total.dtype == ones.dtype == np.float64
            assert np.array_equal(total, want_total)
            assert np.array_equal(ones, want_ones)


def float_bits(x):
    return struct.pack("<d", x)


class TestConfigCodes:
    """The float32 codes equal integer arithmetic up to the largest parent
    count whose codes stay below 2^24, and one past it, where the product
    is taken in float64."""

    @pytest.mark.parametrize("q", [23, 24])
    def test_equal_integer_codes(self, q):
        rng = np.random.default_rng(q)
        values = rng.integers(0, 2, size=(300, q + 3))
        values[0] = 1  # the largest code, 2^(q+1) - 1
        values[1] = 1 - np.eye(q + 3, dtype=int)[0]  # every parent on, the child off
        ds = dataset(values)
        v = 0
        parents = tuple(sorted(rng.choice(np.arange(1, q + 3), size=q, replace=False).tolist()))
        rows = ds.distinct_rows[0].astype(np.int64)
        want = rows[:, v] + sum(rows[:, p] << (j + 1) for j, p in enumerate(parents))
        assert want.max() == 2 ** (q + 1) - 1
        x, _ = _grouped_rows(ds)
        assert x.dtype == np.float32
        assert np.array_equal(_config_codes(x, v, parents), want)


FINITE = st.floats(-1e300, 1e300)  # mixed sign and magnitude; no partial sum overflows


class TestPairwiseSum:
    """The packed kernel's sum gives the bits of numpy's float64 ``add.reduce``
    on each side of its 8-term and 128-term blocks."""

    @settings(max_examples=400, deadline=None)
    @given(terms=st.one_of(
        st.lists(FINITE, max_size=300),
        st.sampled_from([7, 8, 9, 128, 129, 136, 257]).flatmap(
            lambda n: st.lists(FINITE, min_size=n, max_size=n)),
        st.integers(0, 300).map(lambda n: [-0.0] * n),
    ))
    @example(terms=[1.0] + [2.0 ** -53] * 8)  # 1.0 left to right, 1 + 2^-50 pairwise
    def test_equals_numpy_add_reduce(self, terms):
        assert float_bits(_pairwise_sum(terms)) == float_bits(float(np.add.reduce(terms)))


def full_matrix(ds):
    """Every row of the data as column-major float64, the oracle's input."""
    return ds.values.astype(np.float64, order="F")


# Column marginals: the two ends give constant columns, whose complement
# leaves half of any configuration table unobserved.
MARGINALS = st.sampled_from([0.0, 0.03, 0.3, 0.5, 0.9, 1.0])


class TestPackedKernel:
    """Every score equals the bincount kernel's bit for bit, on either side of
    the row cap and of the parent-count crossover."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.sampled_from([1, 2, 63, 64, 65, 250, _PACKED_MAX_ROWS, _PACKED_MAX_ROWS + 1]),
        q=st.integers(0, _PACKED_MAX_PARENTS + 2),
        marginals=st.lists(MARGINALS, min_size=_PACKED_MAX_PARENTS + 4, max_size=_PACKED_MAX_PARENTS + 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_node_ll_bit_equal(self, m, q, marginals, seed, data):
        rng = np.random.default_rng(seed)
        values = (rng.random((m, len(marginals))) < marginals).astype(np.uint8)
        ds = dataset(values)
        v = data.draw(st.integers(0, ds.n - 1))
        others = [c for c in range(ds.n) if c != v]
        parents = tuple(data.draw(st.permutations(others))[:q])
        table = _ScoreTable(ds)
        want = node_ll_oracle(full_matrix(ds), v, parents)
        assert float_bits(table.node_ll(v, parents)) == float_bits(want)
        assert float_bits(table.node_ll(v, tuple(sorted(parents)))) == float_bits(
            node_ll_oracle(full_matrix(ds), v, tuple(sorted(parents)))
        )

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([1, 64, 250, _PACKED_MAX_ROWS, _PACKED_MAX_ROWS + 1]),
        marginals=st.lists(MARGINALS, min_size=2, max_size=9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_log_likelihood_bit_equal(self, m, marginals, seed):
        rng = np.random.default_rng(seed)
        ds = dataset((rng.random((m, len(marginals))) < marginals).astype(np.uint8))
        n = ds.n
        dag = Dag(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        x = full_matrix(ds)
        want = sum(node_ll_oracle(x, v, dag.parents(v)) for v in range(n))
        assert float_bits(log_likelihood(ds, dag)) == float_bits(want)

    def test_term_rows_grow_to_exact_terms(self, monkeypatch):
        monkeypatch.setattr(sbcn.learn, "_TERM_ROWS", [])
        for m in (1, 2, 5):  # grow from empty, by one row, then by several
            rows = sbcn.learn._term_rows(m)
            assert len(rows) == m + 1
        for t in range(1, 6):
            for c1 in range(t + 1):
                column = dataset([[1]] * c1 + [[0]] * (t - c1))
                want = node_ll_oracle(full_matrix(column), 0, ())
                assert float_bits(rows[t][c1]) == float_bits(want)

    def test_term_rows_stay_within_the_row_cap(self):
        for m in (5, _PACKED_MAX_ROWS, _PACKED_MAX_ROWS + 1):
            _ScoreTable(dataset(np.ones((m, 2), dtype=int))).node_ll(0, (1,))
        assert len(sbcn.learn._TERM_ROWS) == _PACKED_MAX_ROWS + 1


def configuration_bitsets(values, parents):
    """The rows of each nonempty configuration of ``parents`` as an int bitset
    (bit i is row i), in ascending configuration index (parent j is bit j)."""
    index = values[:, list(parents)].astype(np.int64) @ (1 << np.arange(len(parents), dtype=np.int64))
    rows = {}
    for i, c in enumerate(index.tolist()):
        rows[c] = rows.get(c, 0) | 1 << i
    return [rows[c] for c in sorted(rows)]


class PackedLog(_ScoreTable):
    """A score table that checks the prefix store's growth on every
    first-time packed score."""

    packed_scores = 0

    def _packed_ll(self, v, parents):
        keys = len(self._configs)
        ll = super()._packed_ll(v, parents)
        assert len(self._configs) - keys <= _PACKED_MAX_PARENTS - 1
        self.packed_scores += 1
        return ll


class TestPrefixConfigs:
    """The configuration bitsets kept per parent prefix change no score, and
    the store stays bounded by the first-time packed scores."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([8, 250, _PACKED_MAX_ROWS]),
        marginals=st.lists(MARGINALS, min_size=2, max_size=8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_walk_bit_equal(self, m, marginals, seed, data):
        # One-parent toggles at drawn children, each set scored on one table,
        # so cache hits and misses of every prefix come in every order.
        rng = np.random.default_rng(seed)
        ds = dataset((rng.random((m, len(marginals))) < marginals).astype(np.uint8))
        x = full_matrix(ds)
        table = _ScoreTable(ds)
        parents = [() for _ in range(ds.n)]
        steps = data.draw(st.lists(st.tuples(st.integers(0, ds.n - 1), st.integers(1, ds.n - 1),
                                             st.integers(0, _PACKED_MAX_PARENTS)), max_size=30))
        for v, shift, at in steps:
            u = (v + shift) % ds.n
            old = parents[v]
            if u in old:
                parents[v] = tuple(p for p in old if p != u)
            elif len(old) < _PACKED_MAX_PARENTS:
                parents[v] = old[:at] + (u,) + old[at:]  # any order, not only sorted
            # and with its prefix reversed: the same configurations in
            # another order, so a prefix kept by its set would sum wrongly
            for key in (parents[v], parents[v][-2::-1] + parents[v][-1:]):
                got = float_bits(table.node_ll(v, key))
                assert got == float_bits(node_ll_oracle(x, v, key))
                assert got == float_bits(_ScoreTable(ds).node_ll(v, key))
        for key, configs in table._configs.items():
            assert configs == configuration_bitsets(ds.values, key)

    @pytest.mark.parametrize("learner, m", [("sbcn", 250), ("bn", _PACKED_MAX_ROWS)])
    def test_store_stays_bounded(self, learner, m):
        # criterion 4's setting, and the all-pairs search on the most rows
        # the packed kernel takes
        _, _, ds = sparse_random_instance(T=m, seed=derive_seed(444, 0))
        options = LearnOptions(
            max_iterations=2000, seed=derive_seed(444, 0, 1), penalty="parameters"
        )
        table = PackedLog(ds)
        candidates = sorted(LEARNERS[learner](ds, options).edges)
        _climb_once(table, candidates, options, derive_seed(options.seed, 0))
        assert table.packed_scores > 0
        for key, configs in table._configs.items():
            assert len(key) < _PACKED_MAX_PARENTS
            assert len(configs) <= 2 ** len(key)


def grouping_data(seed, m, width, repeats):
    """m rows of at least ``width`` 0/1 columns, some of them constant.

    With ``repeats`` every row is one of a few patterns, so rows repeat many
    times over; without, a few columns spell out each row's number, so every
    row is distinct.
    """
    rng = np.random.default_rng(seed)
    if repeats:
        pool = rng.integers(0, 2, size=(int(rng.integers(1, 9)), width))
        values = pool[rng.integers(0, len(pool), size=m)]
        free = np.arange(width)
    else:
        bits = max(1, (m - 1).bit_length())
        width = max(width, bits + 1)
        values = rng.integers(0, 2, size=(m, width))
        order = rng.permutation(width)
        ids, free = order[:bits], order[bits:]
        number = rng.permutation(m)
        for b, column in enumerate(ids):
            values[:, column] = (number >> b) & 1
    constant = free[rng.random(len(free)) < 0.2]
    values[:, constant] = rng.integers(0, 2, size=len(constant))
    return dataset(values)


def random_dag(rng, n, max_parents=14):
    """Each node takes up to ``max_parents`` parents among the nodes before
    it in a random order."""
    order = rng.permutation(n)
    edges = []
    for i, v in enumerate(order):
        q = int(rng.integers(0, min(i, max_parents) + 1))
        edges += [(int(u), int(v)) for u in rng.choice(order[:i], size=q, replace=False)]
    return Dag(n, edges)


GROUPING_ROWS = st.sampled_from([1, 1023, _PACKED_MAX_ROWS, _PACKED_MAX_ROWS + 1, 2048, 5000])
# narrow rows, and rows on either side of the 64 bits an integer row key holds
GROUPING_WIDTHS = st.one_of(st.integers(1, 20), st.integers(60, 70))


class TestGroupedKernel:
    """Counts over the distinct rows, each weighted by how often it occurs,
    give every score and table of counting all rows, bit for bit: with many
    repeated rows or none, constant columns, 0 to 14 parents and codes wider
    than one int64."""

    @settings(max_examples=60, deadline=None)
    @given(m=GROUPING_ROWS, width=GROUPING_WIDTHS, repeats=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_node_ll_bit_equal(self, m, width, repeats, seed):
        ds = grouping_data(seed, m, width, repeats)
        rng = np.random.default_rng(seed)
        table = _ScoreTable(ds)
        x = full_matrix(ds)
        for q in range(min(15, ds.n)):
            v = int(rng.integers(0, ds.n))
            others = [c for c in range(ds.n) if c != v]
            parents = tuple(int(p) for p in rng.permutation(others)[:q])
            want = node_ll_oracle(x, v, parents)
            assert float_bits(table.node_ll(v, parents)) == float_bits(want)

    @settings(max_examples=40, deadline=None)
    @given(m=GROUPING_ROWS, width=GROUPING_WIDTHS, repeats=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_log_likelihood_bit_equal(self, m, width, repeats, seed):
        ds = grouping_data(seed, m, width, repeats)
        dag = random_dag(np.random.default_rng(seed), ds.n)
        x = full_matrix(ds)
        want = sum(node_ll_oracle(x, v, dag.parents(v)) for v in range(ds.n))
        assert float_bits(log_likelihood(ds, dag)) == float_bits(want)

    @settings(max_examples=40, deadline=None)
    @given(m=GROUPING_ROWS, width=GROUPING_WIDTHS, repeats=st.booleans(),
           smoothing=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_fit_cpts_tables_bit_equal(self, m, width, repeats, smoothing, seed):
        ds = grouping_data(seed, m, width, repeats)
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, ds.n)
        model = fit_cpts(ds, dag, smoothing)
        # direct counts are a row loop: check the largest parent set and a
        # few other nodes
        widest = max(range(ds.n), key=lambda v: len(dag.parents(v)))
        for v in {widest, *rng.choice(ds.n, size=min(3, ds.n), replace=False).tolist()}:
            parents = dag.parents(v)
            total, ones = direct_counts(ds.values, v, parents)
            denom = total + 2.0 * smoothing
            with np.errstate(divide="ignore", invalid="ignore"):
                want = (ones + smoothing) / denom
            want[denom == 0] = 0.5
            assert model.cpt(v).table.tobytes() == want.tobytes()

    def test_node_ll_bit_equal_around_a_learned_model(self):
        # The shape of a CLI market at 5000 rows: the learned parent sets hold
        # up to 14 parents, so most configurations are empty and a few hold
        # more than 1024 rows.  Score each of them and each one-arc neighbour.
        ds = famafrench(5000)
        dag = learn_structure(ds, LearnOptions())
        assert max(len(dag.parents(v)) for v in range(ds.n)) >= 12
        table = _ScoreTable(ds)
        x = full_matrix(ds)
        for v in range(ds.n):
            learned = dag.parents(v)
            neighbours = [tuple(sorted(set(learned) ^ {u})) for u in range(ds.n) if u != v]
            for parents in [learned, *neighbours]:
                want = node_ll_oracle(x, v, parents)
                assert float_bits(table.node_ll(v, parents)) == float_bits(want)


class TestClimbOracle:
    """The climb that skips repeats returns exactly what the climb that
    re-proposes them returns: same arcs, score bits, stop and proposal count."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.sampled_from([8, 40, 250]),
        n=st.integers(2, 7),
        arc_share=st.floats(0.1, 1.0),
        max_iterations=st.sampled_from([1, 5, 2000]),
        criterion=st.sampled_from(CRITERIA),
        penalty=st.sampled_from(PENALTIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_oracle(self, m, n, arc_share, max_iterations, criterion, penalty, seed):
        rng = np.random.default_rng(seed)
        # each column copies an earlier one with noise, so arcs pay off
        values = rng.integers(0, 2, size=(m, n))
        for j in range(1, n):
            src = values[:, rng.integers(0, j)]
            values[:, j] = np.where(rng.random(m) < 0.2, 1 - src, src)
        ds = dataset(values)
        # both directions of a pair may be candidates, so some picks close cycles
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        candidates = [e for e in pairs if rng.random() < arc_share]
        options = LearnOptions(
            criterion=criterion,
            penalty=penalty,
            max_iterations=max_iterations,
        )
        got = _climb_once(_ScoreTable(ds), candidates, options, seed)
        want = climb_once_oracle(ScoreTableOracle(ds), candidates, options, seed)
        assert got[0] == want[0]
        assert float_bits(got[1]) == float_bits(want[1])
        assert got[2:] == want[2:]


def chain_data(seed, m, n):
    """Each column after the first copies one earlier column, or the OR of
    two, with 20% noise.  Arcs pay off, and an arc added early for a
    dependence that runs through other nodes is often removed later."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=(m, n))
    for j in range(1, n):
        sources = rng.choice(j, size=min(j, int(rng.integers(1, 3))), replace=False)
        src = values[:, sources].max(axis=1)
        values[:, j] = np.where(rng.random(m) < 0.2, 1 - src, src)
    return dataset(values), rng


class TestDescendantBitsets:
    """The climb's descendant bitsets agree with the DFS reference,
    ``_reaches``, after any sequence of accepted additions and removals."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        chain=st.booleans(),
        toggles=st.lists(st.tuples(st.integers(0, 11), st.integers(1, 11)), max_size=80),
    )
    def test_equal_reaches(self, n, chain, toggles):
        children = [set() for _ in range(n)]
        parents = [() for _ in range(n)]
        desc = [0] * n
        # starting from the chain 0 -> 1 -> ... -> n-1, removals cut paths
        # of every length
        start = [(u, 1) for u in range(n - 1)] if chain else []
        for u, offset in start + toggles:
            u %= n
            v = (u + offset) % n
            if u == v:
                continue
            if v in children[u]:
                children[u].discard(v)
                parents[v] = tuple(p for p in parents[v] if p != u)
                desc = _descendants(parents, desc)
            else:
                closes = bool(desc[v] >> u & 1)
                assert closes == _reaches(children, v, u)
                if closes:
                    continue
                children[u].add(v)
                parents[v] = tuple(sorted(parents[v] + (u,)))
                _add_descendants(desc, u, v)
            for a in range(n):
                assert not desc[a] >> a & 1
                for b in range(n):
                    if a != b:
                        assert bool(desc[a] >> b & 1) == _reaches(children, a, b)


class TestClimbOracleLargeGraphs:
    """As TestClimbOracle, on up to 12 nodes with dense candidate sets that
    hold both directions of most pairs: removals are accepted, and cached
    rejections must survive, or expire on, many accepts."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.sampled_from([40, 250]),
        n=st.integers(6, 12),
        arc_share=st.floats(0.6, 1.0),
        max_iterations=st.sampled_from([1, 5, 2000]),
        criterion=st.sampled_from(CRITERIA),
        penalty=st.sampled_from(PENALTIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_oracle(self, m, n, arc_share, max_iterations, criterion, penalty, seed):
        ds, rng = chain_data(seed, m, n)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        candidates = [e for e in pairs if rng.random() < arc_share]
        options = LearnOptions(criterion=criterion, penalty=penalty, max_iterations=max_iterations)
        got = _climb_once(_ScoreTable(ds), candidates, options, seed)
        want = climb_once_oracle(ScoreTableOracle(ds), candidates, options, seed)
        assert got[0] == want[0]
        assert float_bits(got[1]) == float_bits(want[1])
        assert got[2:] == want[2:]


class TestClimbOracleSparseRegime:
    """As TestClimbOracle, in the setting the sweep benchmark and acceptance
    criterion 4 learn in: sparse 30-variable instances, 250 rows, prima
    facie candidates and the free-parameter penalty."""

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_oracle(self, seed):
        _, _, ds = generate_instance("sparse", {}, 250, seed)
        candidates = sorted(prima_facie_edges(ds).edges)
        options = LearnOptions(penalty="parameters", max_iterations=2000)
        got = _climb_once(_ScoreTable(ds), candidates, options, seed)
        want = climb_once_oracle(ScoreTableOracle(ds), candidates, options, seed)
        assert got[0] == want[0]
        assert float_bits(got[1]) == float_bits(want[1])
        assert got[2:] == want[2:]


class ScriptedRng:
    """Stands in for ``np.random.default_rng``: each buffer of picks is
    ``head`` followed by ``loop`` repeated, and the k-th single draw from
    [0, high), the climb's fallback pick, returns k % high."""

    def __init__(self, head, loop):
        self.head, self.loop = head, loop
        self.single_draws = 0

    def integers(self, low, high, size=None):
        if size is None:
            self.single_draws += 1
            return low + (self.single_draws - 1) % (high - low)
        picks = self.head + self.loop * size
        self.head = []
        return np.array(picks[:size])


class TestClimbFallback:
    """After 8 * n_cand cycle-closing draws in a row the climb picks among
    the valid toggles directly, and returns what its oracle returns there."""

    @pytest.mark.parametrize("max_iterations", [2, 10000])
    def test_equals_oracle(self, monkeypatch, max_iterations):
        rng = np.random.default_rng(22)
        x0 = rng.integers(0, 2, size=250)
        x1 = np.where(rng.random(250) < 0.1, 1 - x0, x0)
        x2 = np.where(rng.random(250) < 0.1, 1 - x1, x1)
        ds = dataset(np.column_stack([x0, x1, x2]))
        candidates = [(u, v) for u in range(3) for v in range(3) if u != v]
        options = LearnOptions(max_iterations=max_iterations)
        rngs = []

        def scripted(seed):
            # add 0 -> 1 and 1 -> 2, then draw only 1 -> 0, 2 -> 0 and 2 -> 1,
            # which close cycles
            rngs.append(ScriptedRng([0, 3], [2, 4, 5]))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", scripted)
        got = _climb_once(_ScoreTable(ds), candidates, options, 0)
        want = climb_once_oracle(ScoreTableOracle(ds), candidates, options, 0)
        assert rngs[0].single_draws == rngs[1].single_draws > 0
        assert {(0, 1), (1, 2)} <= got[0]
        assert got[0] == want[0]
        assert float_bits(got[1]) == float_bits(want[1])
        assert got[2:] == want[2:]


class LookupLog(_ScoreTable):
    """Records every score lookup with the score it returned."""

    def __init__(self, ds):
        super().__init__(ds)
        self.log = []

    def node_ll(self, v, parents):
        ll = super().node_ll(v, parents)
        self.log.append((v, parents, ll))
        return ll


class TestLookupsPerState:
    @staticmethod
    def replay(table, options):
        """The accepts a climb's lookups imply, checking that no (child,
        parent set) key is looked up twice between two accepts at that
        child.  After the first n lookups (the empty parent sets), each
        lookup scores one toggle at its child, accepted iff it raises the
        score.  Returns the final arcs and the number of accepted removals."""
        w, unit = _score_weights(options.criterion, table.m)
        n = table.n
        assert [(v, p) for v, p, _ in table.log[:n]] == [(v, ()) for v in range(n)]
        parents = [()] * n
        lls = [ll for *_, ll in table.log[:n]]
        seen = [set() for _ in range(n)]
        removals = 0
        for v, new, ll in table.log[n:]:
            assert new not in seen[v], f"node {v}, parents {new} scored twice in one state"
            seen[v].add(new)
            assert len(set(new) ^ set(parents[v])) == 1  # one arc toggled
            delta = w * (ll - lls[v]) - unit * (
                _node_cost(len(new), options.penalty) - _node_cost(len(parents[v]), options.penalty)
            )
            if delta > 0:
                removals += len(new) < len(parents[v])
                parents[v], lls[v] = new, ll
                seen[v].clear()
        return {(u, v) for v in range(n) for u in parents[v]}, removals

    @pytest.mark.parametrize("penalty", PENALTIES)
    def test_dense_candidates(self, penalty):
        removals = 0
        for seed in range(12):
            ds, _ = chain_data(seed, 250, 10)
            candidates = [(u, v) for u in range(10) for v in range(10) if u != v]
            options = LearnOptions(penalty=penalty, max_iterations=2000)
            table = LookupLog(ds)
            edges, *_ = _climb_once(table, candidates, options, seed)
            replayed, accepted = self.replay(table, options)
            assert replayed == edges
            removals += accepted
        assert removals > 0

    def test_sparse_regime_prima_facie(self):
        # the sweep's setting: sparse 30-variable instances, 250 rows,
        # prima facie candidates and the free-parameter penalty
        for seed in range(3):
            _, _, ds = generate_instance("sparse", {}, 250, seed)
            candidates = sorted(prima_facie_edges(ds).edges)
            options = LearnOptions(penalty="parameters", max_iterations=2000)
            table = LookupLog(ds)
            edges, *_ = _climb_once(table, candidates, options, seed)
            assert self.replay(table, options)[0] == edges


class TestStopReason:
    def test_famafrench_default_stops_at_certified_optimum(self):
        ds = famafrench(400)
        candidates = sorted(prima_facie_edges(ds).edges)
        options = LearnOptions()
        for seed in range(3):
            _, _, stop, proposals = _climb_once(_ScoreTable(ds), candidates, options, seed)
            assert stop == "optimum"
            assert proposals < options.max_iterations

    def test_tiny_max_iterations_stops_on_streak(self):
        ds = famafrench(400)
        candidates = sorted(prima_facie_edges(ds).edges)
        options = LearnOptions(max_iterations=1)
        _, _, stop, proposals = _climb_once(_ScoreTable(ds), candidates, options, seed=0)
        assert stop == "streak"
        assert proposals <= 100

    def test_cap_when_every_proposal_is_accepted(self):
        class EverBetter(_ScoreTable):
            """Each lookup scores higher than the last, so nothing is rejected."""

            calls = 0

            def node_ll(self, v, parents):
                self.calls += 1
                return float(self.calls)

        ds = dataset(np.eye(3, dtype=int))
        candidates = [(u, v) for u in range(3) for v in range(3) if u != v]
        options = LearnOptions(max_iterations=2)
        _, _, stop, proposals = _climb_once(EverBetter(ds), candidates, options, seed=0)
        assert (stop, proposals) == ("cap", 200)

    def test_certified_optimum_admits_no_improving_toggle(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            ds = dataset(rng.integers(0, 2, size=(int(rng.integers(10, 80)), n)))
            candidates = [(u, v) for u in range(n) for v in range(n) if u != v]
            edges, score, stop, _ = _climb_once(
                _ScoreTable(ds), candidates, LearnOptions(seed=trial), seed=trial
            )
            assert stop == "optimum"
            for e in candidates:
                toggled = edges ^ {e}
                if has_cycle(n, toggled):
                    continue
                assert regularized_score(ds, Dag(n, toggled)) <= score + 1e-9


class TestLearners:
    def test_single_variable_dataset(self):
        ds = dataset([[1], [0], [1]])
        model = learn_sbcn(ds, LearnOptions(seed=0, max_iterations=50))
        assert model.dag.edges == frozenset()
        assert model.cpt(0).parents == ()

    def test_independent_variables_stay_sparse(self):
        rng = np.random.default_rng(18)
        clean = 0
        for seed in range(20):
            values = rng.integers(0, 2, size=(2000, 6))
            ds = dataset(values, rank=[0, 0, 0, 1, 1, 1])
            model = learn_sbcn(ds, LearnOptions(max_iterations=500, seed=seed))
            if len(model.dag.edges) <= 2:
                clean += 1
        assert clean >= 18

    def test_bn_free_of_rank_constraint(self):
        rng = np.random.default_rng(19)
        m = 3000
        cause = rng.integers(0, 2, size=m)
        effect = np.where(rng.random(m) < 0.9, cause, 1 - cause)
        # ranks deliberately reversed: the true cause is ranked later
        ds = dataset(np.column_stack([cause, effect]), rank=[1, 0])
        opts = LearnOptions(max_iterations=300, seed=0)
        sbcn = learn_sbcn(ds, opts)
        bn = learn_bn(ds, opts)
        assert sbcn.dag.edges <= {(1, 0)}  # rank forces the reported direction
        assert len(bn.dag.edges) == 1  # baseline links them in some direction

    def test_learned_cpts_are_smoothed(self):
        ds = dataset([[1, 1], [1, 1], [0, 0], [0, 0]], rank=[0, 1])
        model = learn_sbcn(ds, LearnOptions(max_iterations=100, seed=1, smoothing=1))
        # perfect copy: raw MLE would hit 0/1; smoothing keeps entries interior
        for cpt in model.cpts:
            assert np.all(cpt.table > 0) and np.all(cpt.table < 1)

    def test_registry_names_in_order(self):
        assert list(LEARNERS) == ["sbcn", "bn"]

    @pytest.mark.parametrize("name, learner", [("sbcn", learn_sbcn), ("bn", learn_bn)])
    def test_structure_and_model_match_the_public_learner(self, name, learner):
        ds = famafrench(300)
        opts = LearnOptions(seed=4, max_iterations=300)
        model = learner(ds, opts)
        assert learn_structure(ds, opts, name) == model.dag
        assert learn_model(ds, opts, name) == model

    def test_candidate_rules(self):
        ds = famafrench(300)
        opts = LearnOptions()
        assert LEARNERS["sbcn"](ds, opts) == prima_facie_edges(ds)
        assert LEARNERS["bn"](ds, opts).edges == {
            (u, v) for u in range(ds.n) for v in range(ds.n) if u != v
        }

    @pytest.mark.parametrize("call", [learn_structure, learn_model])
    def test_unknown_learner_names_value_and_registry(self, call):
        with pytest.raises(ValueError, match=r"unknown learner 'pc'; choose from sbcn, bn"):
            call(dataset([[0, 1], [1, 0]]), LearnOptions(), "pc")

    def test_options_validation(self):
        with pytest.raises(ValueError):
            LearnOptions(criterion="mdl")
        with pytest.raises(ValueError):
            LearnOptions(max_iterations=0)
        with pytest.raises(ValueError):
            LearnOptions(restarts=-1)
        for smoothing in (-0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^smoothing must be >= 0$"):
                LearnOptions(smoothing=smoothing)
        with pytest.raises(ValueError, match=r"^smoothing must be finite$"):
            LearnOptions(smoothing=math.inf)
        with pytest.raises(ValueError, match=r"^smoothing must be >= 0$"):
            LearnOptions(smoothing=-math.inf)
        with pytest.raises(ValueError):
            LearnOptions(penalty="edges")
        with pytest.raises(ValueError, match=r"^seed must be >= 0$"):
            LearnOptions(seed=-1)



class TestUnknownChoice:
    """Every unknown criterion, penalty and learner gets one message
    form, naming the value and the choices."""

    @pytest.mark.parametrize("call, message", [
        (lambda ds: LearnOptions(criterion="mdl"), "unknown criterion 'mdl'; choose from bic, aic"),
        (lambda ds: LearnOptions(penalty="edges"), "unknown penalty 'edges'; choose from arcs, parameters"),
        (lambda ds: regularized_score(ds, Dag(2), "mdl"), "unknown criterion 'mdl'; choose from bic, aic"),
        (lambda ds: regularized_score(ds, Dag(2), penalty="edges"),
         "unknown penalty 'edges'; choose from arcs, parameters"),
        (lambda ds: learn_structure(ds, LearnOptions(), "pc"), "unknown learner 'pc'; choose from sbcn, bn"),
    ])
    def test_one_message_form(self, call, message):
        with pytest.raises(ValueError) as exc:
            call(dataset([[0, 1], [1, 0]]))
        assert str(exc.value) == message

@settings(max_examples=25, deadline=None)
@given(st.data())
def test_prima_facie_rank_property(data):
    m = data.draw(st.integers(2, 25))
    n = data.draw(st.integers(2, 5))
    values = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    rank = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ds = dataset(values, rank=rank)
    for v, u in prima_facie_edges(ds).edges:
        assert ds.rank[v] <= ds.rank[u]
    assert prima_facie_edges(ds).edges == frozenset(prima_facie_oracle(ds))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prima_facie_conflict_rule_matches_pair_loop(data):
    # few rows, so equal-rank pairs often raise each other by exactly equal margins
    m = data.draw(st.integers(2, 8))
    n = data.draw(st.integers(2, 6))
    values = data.draw(
        st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
    )
    rank = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ds = dataset(values, rank=rank)
    got = prima_facie_edges(ds)
    assert got == prima_facie_pair_loop_oracle(ds)
    assert all(type(u) is int and type(v) is int for u, v in got.edges)
