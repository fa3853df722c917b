import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import learn_tree_oracle

from sbcn.classifier import (
    PROFITABLE,
    RISKY,
    DecisionTree,
    Leaf,
    Split,
    label_measure,
    label_scenarios,
    learn_tree,
    risky_paths,
    tree_from_blocks,
    up_counts,
)
from sbcn import classifier
from sbcn.model import ModelSchemaError


def scenarios_with_factor_rule(rng, count=1000, n_factors=5, n_stocks=10):
    """Factor 0 low drags most stocks down; other factors are noise."""
    factors = rng.integers(0, 2, size=(count, n_factors))
    p_up = np.where(factors[:, [0]] == 1, 0.8, 0.15)
    stocks = (rng.random((count, n_stocks)) < p_up).astype(np.uint8)
    return np.hstack([factors, stocks]).astype(np.uint8)


class TestUpCount:
    def test_all_up_equals_total_weight(self):
        scenario = np.ones(15, dtype=np.uint8)
        assert up_counts(scenario[None], range(5, 15))[0] == 10

    def test_all_down_zero(self):
        assert up_counts(np.zeros((1, 15), dtype=np.uint8), range(5, 15))[0] == 0

    def test_scenario_must_cover_stocks(self):
        with pytest.raises(ValueError, match="^scenarios have 3 columns, too few for portfolio stock 4$"):
            up_counts(np.zeros((1, 3), dtype=np.uint8), [4])

    def test_scenarios_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="^up_counts takes a 2-D scenario matrix, got 1-D$"):
            up_counts(np.zeros(5, dtype=np.uint8), [4])

    def test_negative_index_rejected(self):
        # it would read a column from the end
        with pytest.raises(ValueError, match="^stock index -1 is negative$"):
            up_counts(np.zeros((1, 3), dtype=np.uint8), [-1, 0])

    def test_repeated_index_rejected(self):
        # it would count one up stock once per repeat
        with pytest.raises(ValueError, match="^stock index 1 is repeated$"):
            up_counts(np.array([[0, 1], [1, 0]], dtype=np.uint8), [1, 1])

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        scen = rng.integers(0, 2, size=(50, 8)).astype(np.uint8)
        batch = up_counts(scen, [1, 4, 6])
        assert batch.dtype == np.int64
        for i in range(50):
            expected = int(scen[i, 1]) + int(scen[i, 4]) + int(scen[i, 6])
            assert batch[i] == up_counts(scen[i][None], [1, 4, 6])[0] == expected


class TestLabelScenarios:
    def test_bottom_decile_of_thousand(self):
        rng = np.random.default_rng(1)
        scen = scenarios_with_factor_rule(rng)
        labels = label_scenarios(scen, range(5, 15), 0.10)
        assert labels.sum() >= 100

    def test_identical_scenarios_all_risky(self):
        scen = np.tile(np.array([1, 0, 1], dtype=np.uint8), (30, 1))
        labels = label_scenarios(scen, [1, 2], 0.10)
        assert labels.all()

    def test_zero_fraction_no_risky(self):
        rng = np.random.default_rng(2)
        scen = rng.integers(0, 2, size=(40, 4)).astype(np.uint8)
        labels = label_scenarios(scen, [2, 3], 0.0)
        assert not labels.any()

    def test_ties_at_cut_included(self):
        # up counts: [0, 0, 1, 2]; 25% quantile cut lands on 0, both zeros risky
        scen = np.array([[0, 0], [0, 0], [1, 0], [1, 1]], dtype=np.uint8)
        labels = label_scenarios(scen, [0, 1], 0.25)
        assert labels.tolist() == [True, True, False, False]

    def test_implied_cut(self):
        scen = np.array([[0, 0], [1, 0], [1, 1], [1, 1]], dtype=np.uint8)
        measure = up_counts(scen, [0, 1])
        assert label_measure(measure, 0.25)[1] == 0.0
        assert label_measure(measure, 0.0)[1] is None


class TestLearnTree:
    def test_perfectly_separable_single_split(self):
        rng = np.random.default_rng(3)
        features = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        labels = features[:, 2] == 0
        tree = learn_tree(features, labels)
        assert isinstance(tree.root, Split)
        assert tree.root.feature == 2
        assert isinstance(tree.root.left, Leaf) and tree.root.left.label == RISKY
        assert isinstance(tree.root.right, Leaf) and tree.root.right.label == PROFITABLE

    def test_random_labels_mostly_single_leaf(self):
        rng = np.random.default_rng(4)
        single = 0
        for trial in range(50):
            features = rng.integers(0, 2, size=(1000, 5)).astype(np.uint8)
            labels = rng.random(1000) < 0.1
            tree = learn_tree(features, labels)
            single += isinstance(tree.root, Leaf)
        assert single >= 45

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros(4), np.zeros(4), "features must be a matrix, one row per scenario"),
        (np.zeros((4, 2)), np.zeros(3), "one label per feature row required"),
    ], ids=["1-D-features", "label-count"])
    def test_validation(self, features, labels, message):
        with pytest.raises(ValueError) as exc:
            learn_tree(features, labels)
        assert str(exc.value) == message

    def test_single_class_single_leaf(self):
        features = np.zeros((20, 3), dtype=np.uint8)
        tree = learn_tree(features, np.zeros(20, dtype=bool))
        assert isinstance(tree.root, Leaf)
        assert tree.root.label == PROFITABLE

    def test_majority_tie_goes_profitable(self):
        features = np.zeros((4, 2), dtype=np.uint8)
        labels = np.array([True, True, False, False])
        tree = learn_tree(features, labels)
        assert tree.root.label == PROFITABLE

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(5)
        features = rng.integers(0, 2, size=(9, 3)).astype(np.uint8)
        labels = features[:, 0] == 0
        tree = learn_tree(features, labels)
        assert isinstance(tree.root, Leaf)  # no split can give both children MIN_LEAF = 5 rows

    def test_no_feature_repeats_on_path(self):
        rng = np.random.default_rng(6)
        features = rng.integers(0, 2, size=(3000, 4)).astype(np.uint8)
        score = features @ np.array([4, 3, 2, 1])
        labels = score <= 3
        tree = learn_tree(features, labels)

        def walk(node, seen):
            if isinstance(node, Leaf):
                return
            assert node.feature not in seen
            walk(node.left, seen | {node.feature})
            walk(node.right, seen | {node.feature})

        walk(tree.root, set())

    def test_row_order_invariant(self):
        rng = np.random.default_rng(7)
        scen = scenarios_with_factor_rule(rng, count=400)
        labels = label_scenarios(scen, range(5, 15), 0.10)
        features = scen[:, :5]
        tree_a = learn_tree(features, labels)
        perm = rng.permutation(400)
        tree_b = learn_tree(features[perm], labels[perm])
        assert tree_a.root == tree_b.root

    def test_resubstitution_consistency(self):
        rng = np.random.default_rng(8)
        scen = scenarios_with_factor_rule(rng, count=600)
        labels = label_scenarios(scen, range(5, 15), 0.10)
        features = scen[:, :5]
        tree = learn_tree(features, labels)

        def leaf_for(row):
            node = tree.root
            while isinstance(node, Split):
                node = node.right if row[node.feature] else node.left
            return node

        for i in range(0, 600, 7):
            leaf = leaf_for(features[i])
            n_prof, n_risky = leaf.counts
            expected = RISKY if n_risky > n_prof else PROFITABLE
            assert leaf.label == expected

    def test_impurity_gate(self):
        # Gini is the only impurity; the keyword that named it is gone
        for impurity in ("gini", "entropy"):
            with pytest.raises(TypeError, match="impurity"):
                learn_tree(np.zeros((5, 2), dtype=np.uint8), np.zeros(5, dtype=bool), impurity=impurity)



@st.composite
def tree_inputs(draw):
    """Feature matrices of 0 to 130 columns whose rows repeat a few patterns
    or are all drawn afresh, with 0/1, small-integer or float cells, and
    labels that follow feature 0 with some noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = draw(st.integers(0, 300))
    k = draw(st.sampled_from([0, 1, 2, 5, 8, 20, 62, 63, 64, 100, 130]))
    pool = draw(st.sampled_from([1, 3, 8, None]))
    if pool is None:
        features = rng.integers(0, 2, size=(rows, k))
    else:
        features = rng.integers(0, 2, size=(pool, k))[rng.integers(0, pool, size=rows)]
    cells = draw(st.sampled_from(["01", "ints", "floats"]))
    if cells == "ints":
        features = features * rng.integers(-2, 4, size=features.shape)
    elif cells == "floats":
        features = features * rng.choice([0.5, -1.0, 2.0, np.nan], size=features.shape)
    else:
        features = features.astype(draw(st.sampled_from([np.uint8, np.int64, bool])))
    noise = draw(st.sampled_from([0.0, 0.1, 0.5]))
    lead = (features[:, 0] != 0) if k else np.zeros(rows, dtype=bool)
    labels = lead ^ (rng.random(rows) < noise)
    return features, labels


class TestDistinctRowTree:
    """The tree grown on distinct rows against the row-by-row learner it
    replaced."""

    @settings(max_examples=200, deadline=None)
    @given(tree_inputs())
    def test_equals_row_oracle(self, data):
        features, labels = data
        got = learn_tree(features, labels)
        want = learn_tree_oracle(features, labels)
        assert got == want
        # the JSON carries plain ints, as the oracle's tree does
        assert got.to_json() == want.to_json()

    def test_many_duplicates_with_ties(self):
        # 200 000 rows of 5 factors, the stress command's shape: at most 64
        # distinct rows, and leaves whose counts tie
        rng = np.random.default_rng(3)
        features = rng.integers(0, 2, size=(200_000, 5), dtype=np.uint8)
        labels = (features[:, 0] == 0) & (rng.random(200_000) < 0.5)
        assert learn_tree(features, labels) == learn_tree_oracle(features, labels)


class TestLabelMeasure:
    def test_matches_label_scenarios_and_cut(self):
        rng = np.random.default_rng(11)
        scen = scenarios_with_factor_rule(rng, count=777)
        measure = up_counts(scen, range(5, 15))
        for fraction in (0.0, 0.05, 0.1, 0.5, 1.0):
            labels, cut = label_measure(measure, fraction)
            assert np.array_equal(labels, label_scenarios(scen, range(5, 15), fraction))
            k = math.ceil(fraction * len(measure))
            assert cut == (None if k == 0 else np.sort(measure)[k - 1])
            if cut is not None:
                assert cut == measure[labels].max()

    def test_validation(self):
        with pytest.raises(ValueError, match="risky_fraction"):
            label_measure(np.zeros(3), 1.5)
        with pytest.raises(ValueError, match="at least one scenario"):
            label_measure(np.zeros(0), 0.1)
        for measure in (np.zeros((3, 2)), np.zeros((4, 1)), np.float64(2.0)):
            with pytest.raises(ValueError, match="1-D measure, got shape"):
                label_measure(measure, 0.5)
        with pytest.raises(ValueError, match="measure of scenario 1 is NaN"):
            label_measure(np.array([1.0, np.nan, 2.0]), 0.5)


class TestTreeFromBlocks:
    """The tree grown from the streamed (factor pattern, up count) table is
    that of labeling and keeping every row, with the same risky count and
    cut."""

    @settings(max_examples=80, deadline=None)
    @given(
        # a row's key holds n_factors + max_up.bit_length() bits: up to 64 bits is an
        # 8-byte integer key, past that a byte string; 62 factors pass 64 at max_up 4,
        # and 60 factors reach 64 at max_up 8 and pass it at 16
        n_factors=st.sampled_from([1, 3, 5, 60, 62]),
        max_up=st.integers(1, 20),
        sizes=st.lists(st.integers(1, 300), min_size=1, max_size=6),
        pool=st.integers(1, 64),
        fraction=st.sampled_from([0.0, 0.1, 0.37, 1.0]),
        dense_cells=st.sampled_from([0, classifier._DENSE_CELLS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_labeling_every_row(self, n_factors, max_up, sizes, pool, fraction, dense_cells,
                                       seed):
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, 2, size=(pool, n_factors), dtype=np.uint8)
        blocks = [(patterns[rng.integers(0, pool, size=m)].T, rng.integers(0, max_up + 1, size=m) * 1.0)
                  for m in sizes]
        features = np.hstack([columns for columns, _ in blocks]).T
        labels, cut = label_measure(np.concatenate([up for _, up in blocks]), fraction)
        with mock.patch.object(classifier, "_DENSE_CELLS", dense_cells):
            got = tree_from_blocks(iter(blocks), n_factors, max_up, fraction, ("f",) * n_factors)
        want = DecisionTree(learn_tree(features, labels).root, ("f",) * n_factors)
        assert got == (want, int(labels.sum()), cut)
        assert isinstance(got[1], int)


class TestRiskyPaths:
    def test_profitable_leaf_gives_no_paths(self):
        assert risky_paths(DecisionTree(Leaf(PROFITABLE, (5, 0)))) == []

    def test_single_split(self):
        tree = DecisionTree(Split(0, Leaf(RISKY, (1, 9)), Leaf(PROFITABLE, (9, 1))))
        assert risky_paths(tree) == [{0: 0}]

    def test_two_paths_differing_in_last_factor(self):
        inner = Split(4, Leaf(RISKY, (1, 5)), Leaf(RISKY, (2, 4)))
        tree = DecisionTree(Split(0, inner, Leaf(PROFITABLE, (30, 0))))
        paths = risky_paths(tree)
        assert paths == [{0: 0, 4: 0}, {0: 0, 4: 1}]

    def test_paths_predict_risky(self):
        rng = np.random.default_rng(9)
        scen = scenarios_with_factor_rule(rng)
        labels = label_scenarios(scen, range(5, 15), 0.10)
        tree = learn_tree(scen[:, :5], labels)
        for path in risky_paths(tree):
            node = tree.root
            while isinstance(node, Split):
                node = node.right if path[node.feature] else node.left
            assert node.label == RISKY


class TestTreeSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(10)
        scen = scenarios_with_factor_rule(rng)
        labels = label_scenarios(scen, range(5, 15), 0.10)
        tree = learn_tree(scen[:, :5], labels)
        tree = DecisionTree(tree.root, ("Km", "SMB", "HML", "RMW", "CMA"))
        back = DecisionTree.from_json(tree.to_json())
        assert back == tree

    def test_malformed_json(self):
        with pytest.raises(ModelSchemaError):
            DecisionTree.from_json('{"root": {"label": "meh", "counts": [1, 2]}}')

    def test_text_rendering(self):
        tree = DecisionTree(
            Split(0, Leaf(RISKY, (1, 9)), Leaf(PROFITABLE, (9, 1))), feature_names=("S",)
        )
        text = tree.to_text()
        assert "S = 0:" in text
        assert "-> risky (profitable=1, risky=9)" in text
        assert "S = 1:" in text

    def test_text_rendering_without_names(self):
        tree = DecisionTree(Split(3, Leaf(RISKY, (1, 9)), Leaf(PROFITABLE, (9, 1))))
        assert tree.to_text() == ("x3 = 0:\n  -> risky (profitable=1, risky=9)\n"
                                  "x3 = 1:\n  -> profitable (profitable=9, risky=1)\n")
