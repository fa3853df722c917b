import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ancestral_sample_oracle,
    empirical_joint,
    exact_joint,
    random_cpt_model,
    total_variation,
)
from sbcn.datagen import ground_truth_dag, market_factor_spec
from sbcn.model import Cpt, Dag, SbcnModel
from sbcn.sampling import _BLOCK_ROWS, ancestral_sample, clamp, stress_sample, topological_order


def chain_model(probs=(0.5, 0.8, 0.3)):
    """0 -> 1 -> 2 with P(child=1) = probs[i][parent] style tables."""
    dag = Dag(3, [(0, 1), (1, 2)])
    cpts = [
        Cpt(0, [], [0.6]),
        Cpt(1, [0], [0.2, 0.9]),
        Cpt(2, [1], [0.1, 0.7]),
    ]
    return SbcnModel(dag, cpts, [0, 1, 2])


class TestTopologicalOrder:
    def test_empty_graph_identity(self):
        assert topological_order(Dag(4)) == [0, 1, 2, 3]

    def test_chain(self):
        assert topological_order(Dag(3, [(0, 1), (1, 2)])) == [0, 1, 2]

    def test_parents_precede_children_with_index_ties(self):
        dag = Dag(4, [(2, 0), (3, 1)])
        order = topological_order(dag)
        assert order.index(2) < order.index(0)
        assert order.index(3) < order.index(1)
        # lowest ready index first: once 2 releases 0, 0 precedes 3
        assert order == [2, 0, 3, 1]

    def test_one_function_everywhere(self):
        import sbcn
        import sbcn.model

        assert topological_order is sbcn.topological_order is sbcn.model.topological_order

    def test_cycle_raises(self):
        class Cyclic:  # Dag refuses cycles, so hand the order a raw graph
            n, edges = 3, {(0, 1), (1, 2), (2, 1)}

        with pytest.raises(ValueError, match="graph contains a directed cycle"):
            topological_order(Cyclic())

    def test_market_truth_orders_factors_before_stocks(self):
        spec = market_factor_spec(seed=0)
        order = topological_order(ground_truth_dag(spec))
        assert order[0] == 0
        positions = {node: i for i, node in enumerate(order)}
        assert max(positions[f] for f in range(5)) < min(positions[s] for s in range(5, 15))


class TestAncestralSample:
    def test_single_node_bernoulli(self):
        model = SbcnModel(Dag(1), [Cpt(0, [], [0.7])], [0])
        draws = ancestral_sample(model, 10000, seed=0)
        assert abs(draws.mean() - 0.7) < 0.015

    def test_two_node_marginal_composition(self):
        # P(B=1) = P(A=0) * 0.7 + P(A=1) * 0.6 = 0.65 for a fair parent
        model = SbcnModel(
            Dag(2, [(0, 1)]),
            [Cpt(0, [], [0.5]), Cpt(1, [0], [0.7, 0.6])],
            [0, 1],
        )
        draws = ancestral_sample(model, 100000, seed=1)
        assert abs(draws[:, 1].mean() - 0.65) < 0.01

    def test_three_node_joint_matches_enumeration(self):
        model = chain_model()
        draws = ancestral_sample(model, 100000, seed=2)
        assert total_variation(empirical_joint(draws), exact_joint(model)) <= 0.02

    def test_random_small_models_converge(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            model = random_cpt_model(rng, int(rng.integers(2, 5)))
            draws = ancestral_sample(model, 100000, seed=trial)
            assert total_variation(empirical_joint(draws), exact_joint(model)) <= 0.02

    def test_zero_count(self):
        assert ancestral_sample(chain_model(), 0, seed=0).shape == (0, 3)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="^count must be nonnegative$"):
            ancestral_sample(chain_model(), -1, 0)

    def test_deterministic(self):
        model = chain_model()
        assert np.array_equal(
            ancestral_sample(model, 64, seed=9), ancestral_sample(model, 64, seed=9)
        )


class TestClamp:
    def test_clamp_all_nodes_forces_scenario(self):
        model = chain_model()
        forced = {0: 1, 1: 0, 2: 1}
        draws = stress_sample(model, forced, 50, seed=4)
        assert np.array_equal(draws, np.tile([1, 0, 1], (50, 1)))

    def test_empty_clamp_is_identity(self):
        model = chain_model()
        assert clamp(model, {}) is model

    def test_only_assigned_tables_change(self):
        model = chain_model()
        clamped = clamp(model, {1: 0})
        assert np.array_equal(clamped.cpt(1).table, [0.0, 0.0])
        assert np.array_equal(clamped.cpt(0).table, model.cpt(0).table)
        assert np.array_equal(clamped.cpt(2).table, model.cpt(2).table)
        assert clamped.dag.edges == model.dag.edges

    def test_descendants_respond_ancestors_do_not(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            model = random_cpt_model(rng, 4)
            node = int(rng.integers(0, 4))
            value = int(rng.integers(0, 2))
            joint = exact_joint(clamp(model, {node: value}))
            base = exact_joint(model)
            # clamped node holds its value everywhere
            mask = np.array([bool((bits >> node) & 1) == bool(value) for bits in range(16)])
            assert joint[~mask].sum() == pytest.approx(0.0)
            # non-descendants keep their marginals (intervention, not observation)
            descendants = set()
            stack = [node]
            while stack:
                cur = stack.pop()
                for parent, child in model.dag.edges:
                    if parent == cur and child not in descendants:
                        descendants.add(child)
                        stack.append(child)
            for other in range(4):
                if other == node or other in descendants:
                    continue
                marginal = lambda p, v: sum(
                    p[bits] for bits in range(16) if (bits >> v) & 1
                )
                assert marginal(joint, other) == pytest.approx(marginal(base, other), abs=1e-12)

    def test_clamp_validation(self):
        model = chain_model()
        with pytest.raises(ValueError):
            clamp(model, {7: 1})
        with pytest.raises(ValueError):
            clamp(model, {0: 2})


class TestStressSample:
    def test_clamped_values_hold_in_every_sample(self):
        model = chain_model()
        draws = stress_sample(model, {1: 0}, 500, seed=6)
        assert np.all(draws[:, 1] == 0)

    def test_count_zero(self):
        assert stress_sample(chain_model(), {0: 0}, 0, seed=0).shape == (0, 3)

    def test_downward_clamp_lowers_descendant_up_rate(self):
        model = chain_model()
        free = ancestral_sample(model, 4000, seed=7)
        stressed = stress_sample(model, {0: 0, 1: 0}, 4000, seed=7)
        assert stressed[:, 2].mean() < free[:, 2].mean()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_clamped_nodes_hold_in_every_sample(data):
    model_seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(model_seed)
    n = data.draw(st.integers(2, 5))
    model = random_cpt_model(rng, n)
    assignment = data.draw(
        st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), min_size=1, max_size=n)
    )
    draws = stress_sample(model, assignment, 64, seed=model_seed)
    for node, value in assignment.items():
        assert np.all(draws[:, node] == value)


B = _BLOCK_ROWS
@st.composite
def sampler_models(draw):
    """Models whose node labels are a random permutation of a random DAG's
    topological order, so the sampling order differs from index order; a
    node may take 10 or more parents; some table entries are exactly 0 or
    1, and some tables are clamped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    perm = rng.permutation(n)
    dag = Dag(n, [(perm[u], perm[v]) for v in range(n) for u in range(v) if rng.random() < density])
    cpts = []
    for v in range(n):
        parents = dag.parents(v)
        table = rng.random(2 ** len(parents))
        table[rng.random(table.shape) < 0.2] = rng.choice([0.0, 1.0, 1.0 - 2**-53])
        cpts.append(Cpt(v, parents, table))
    model = SbcnModel(dag, cpts, [0] * n)
    assignment = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 1), max_size=3))
    return clamp(model, assignment)


class TestBlockedSampler:
    """The row-block sampler against the whole-matrix sampler it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(sampler_models(), st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]) | st.integers(0, 50),
           st.integers(0, 2**32))
    def test_equals_whole_matrix_oracle(self, model, count, seed):
        got = ancestral_sample(model, count, seed)
        assert got.dtype == np.uint8 and got.shape == (count, model.n)
        assert np.array_equal(got, ancestral_sample_oracle(model, count, seed))

    @pytest.mark.parametrize("count", [B - 1, B + 1, 2 * B + 1])
    def test_wide_parent_sets(self, count):
        # a 12-parent child, two 10-parent children with different parent
        # sets, and a third child sharing one of those sets
        rng = np.random.default_rng(count)
        dag = Dag(16, [(u, 12) for u in range(12)] + [(u, 13) for u in range(2, 12)]
                  + [(u, 14) for u in range(10)] + [(u, 15) for u in range(2, 12)])
        cpts = [Cpt(v, dag.parents(v), rng.random(2 ** len(dag.parents(v)))) for v in range(16)]
        model = SbcnModel(dag, cpts, [0] * 16)
        for m in (model, clamp(model, {0: 1, 12: 0})):
            assert np.array_equal(ancestral_sample(m, count, 9), ancestral_sample_oracle(m, count, 9))

    def test_stress_sample_equals_oracle_on_clamped_model(self):
        model = random_cpt_model(np.random.default_rng(4), 9, edge_prob=0.7)
        got = stress_sample(model, {1: 0, 3: 1}, 2 * B + 1, 5)
        assert np.array_equal(got, ancestral_sample_oracle(clamp(model, {1: 0, 3: 1}), 2 * B + 1, 5))

    @pytest.mark.parametrize("count", [B - 1, B + 1, 2 * B + 1])
    def test_equal_entry_tables(self, count):
        # nodes with parents whose tables hold one value each (the strategy
        # above makes such tables only by clamping or at parentless nodes),
        # and a child that reads their bits through its configuration index
        dag = Dag(6, [(0, 2), (1, 2), (0, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5)])
        cpts = [
            Cpt(0, [], [0.5]),
            Cpt(1, [], [0.6]),
            Cpt(2, [0, 1], [0.3] * 4),
            Cpt(3, [0], [0.0] * 2),
            Cpt(4, [2, 3], [1.0 - 2**-53] * 4),
            Cpt(5, [2, 3, 4], np.random.default_rng(count).random(8)),
        ]
        model = SbcnModel(dag, cpts, [0] * 6)
        got = ancestral_sample(model, count, 11)
        assert np.array_equal(got, ancestral_sample_oracle(model, count, 11))
        assert 0 < got[:, 2].sum() < count and not got[:, 3].any() and got[:, 4].all()
