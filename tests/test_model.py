import itertools
import json
from dataclasses import fields
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sbcn
from sbcn.datagen import FactorModelSpec, RealSeries, market_factor_spec
from sbcn.learn import EdgeSet
from sbcn.model import (
    BinaryDataset,
    ContingencyStats,
    Cpt,
    CsvFormatError,
    Dag,
    ModelSchemaError,
    SbcnModel,
    dag_from_json,
    dag_to_json,
    _row_keys,
    has_cycle,
    scenarios_to_csv,
)


def dfs_cycle_oracle(n, edges):
    """Independent recursive three-color DFS cycle detector."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            return True
        adj[u].append(v)
    color = [0] * n  # 0 unseen, 1 on stack, 2 done

    def visit(u):
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1:
                return True
            if color[v] == 0 and visit(v):
                return True
        color[u] = 2
        return False

    return any(color[u] == 0 and visit(u) for u in range(n))


def make_model(n, edges, tables=None, rank=None, names=None, confidence=None):
    dag = Dag(n, edges)
    cpts = []
    for v in range(n):
        parents = dag.parents(v)
        size = 2 ** len(parents)
        table = tables[v] if tables else [0.5] * size
        cpts.append(Cpt(v, parents, table))
    return SbcnModel(dag, cpts, rank or [0] * n, confidence, names)


class TestBinaryDataset:
    def test_valid_construction(self):
        ds = BinaryDataset([[0, 1], [1, 0]], ["a", "b"], [0, 1])
        assert ds.m == 2 and ds.n == 2
        assert ds.names == ("a", "b")
        assert ds.rank == (0, 1)

    def test_rejects_non_binary_cell(self):
        with pytest.raises(ValueError, match="row 1, column 0"):
            BinaryDataset([[0, 1], [2, 0]], ["a", "b"], [0, 0])

    @pytest.mark.parametrize("cells, row, column", [
        ([[0, 1], [2, 0]], 1, 0),
        ([[0, 0.5], [1, 1]], 0, 1),
        ([[1, 1], [0, -1]], 1, 1),
    ])
    def test_non_binary_cell_message(self, cells, row, column):
        bad = np.asarray(cells)[row, column]
        with pytest.raises(ValueError) as exc:
            BinaryDataset(cells, ["a", "b"], [0, 0])
        assert str(exc.value) == (
            f"cell at row {row}, column {column} is {bad!r}; dataset cells must be 0 or 1"
        )

    def test_bool_matrix_accepted(self):
        ds = BinaryDataset(np.array([[True, False], [False, True]]), ["a", "b"], [0, 0])
        assert ds.values.dtype == np.uint8 and ds.values.tolist() == [[1, 0], [0, 1]]

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            BinaryDataset([[0, 1]], ["a", "a"], [0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            BinaryDataset([[0, 1]], ["a"], [0, 0])
        with pytest.raises(ValueError):
            BinaryDataset([[0, 1]], ["a", "b"], [0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinaryDataset(np.zeros((0, 2)), ["a", "b"], [0, 0])

    @pytest.mark.parametrize("values, rank, message", [
        ([0, 1], [0, 0], "expected a 2-D matrix, got shape (2,)"),
        ([[0, 1]], [0, -1], "ranks must be nonnegative"),
    ], ids=["1-D", "negative-rank"])
    def test_rejects_a_vector_and_a_negative_rank(self, values, rank, message):
        with pytest.raises(ValueError) as exc:
            BinaryDataset(values, ["a", "b"], rank)
        assert str(exc.value) == message

    def test_values_immutable(self):
        ds = BinaryDataset([[0, 1]], ["a", "b"], [0, 0])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 300),
        n=st.sampled_from([0, 1, 2, 8, 9, 15, 16, 17, 24, 25, 32, 33, 56, 57, 62, 63, 64, 65, 70,
                           126, 127, 130]),
        patterns=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_distinct_rows_count_every_row(self, m, n, patterns, seed):
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2, size=(patterns, n))
        values = pool[rng.integers(0, patterns, size=m)]
        ds = BinaryDataset(values, [f"c{i}" for i in range(n)], [0] * n)
        rows, counts = ds.distinct_rows
        want: dict[tuple[int, ...], int] = {}
        for row in values.tolist():
            want[tuple(row)] = want.get(tuple(row), 0) + 1
        got = {tuple(int(c) for c in row): int(k) for row, k in zip(rows, counts)}
        assert len(got) == len(rows)  # no row listed twice
        assert got == want
        assert rows.dtype == bool and counts.dtype == np.int64
        assert ds.distinct_rows is ds.distinct_rows  # grouped once
        with pytest.raises(ValueError):
            rows[0, 0] = True

    @pytest.mark.parametrize("c", [0, 1, 8, 9, 16, 17])
    def test_row_keys_of_either_layout(self, c):
        # the same keys for a column-major, a row-major and a bool matrix
        columns = np.random.default_rng(c).integers(0, 2, size=(c, 8192 + 5), dtype=np.uint8)
        want = (columns.astype(np.int64) << np.arange(c)[:, None]).sum(axis=0)
        for rows in (columns.T, np.ascontiguousarray(columns.T), columns.T.astype(bool)):
            assert _row_keys(rows).tolist() == want.tolist()


class TestDatasetCsv:
    def test_round_trip(self):
        ds = BinaryDataset([[0, 1], [1, 1]], ["x", "y"], [0, 1])
        assert BinaryDataset.from_csv(ds.to_csv()) == ds

    def test_bad_cell_names_location(self):
        text = "a,b\n0,1\n0,2\n"
        with pytest.raises(CsvFormatError, match="row 3, column 2"):
            BinaryDataset.from_csv(text)

    def test_missing_rank_line_defaults_to_zero(self):
        ds = BinaryDataset.from_csv("a,b\n1,0\n")
        assert ds.rank == (0, 0)

    def test_rank_line_parsed(self):
        ds = BinaryDataset.from_csv("a,b\n#rank:0,3\n1,0\n")
        assert ds.rank == (0, 3)

    def test_rank_line_wrong_width(self):
        with pytest.raises(CsvFormatError, match="row 2"):
            BinaryDataset.from_csv("a,b\n#rank:0\n1,0\n")

    def test_row_with_wrong_cell_count(self):
        with pytest.raises(CsvFormatError, match="row 2"):
            BinaryDataset.from_csv("a,b\n0,1,1\n")

    def test_empty_input(self):
        with pytest.raises(CsvFormatError):
            BinaryDataset.from_csv("")

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, 8))
        values = data.draw(
            st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)
        )
        rank = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ds = BinaryDataset(values, [f"c{i}" for i in range(n)], rank)
        assert BinaryDataset.from_csv(ds.to_csv()) == ds


class TestDag:
    def test_rejects_two_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Dag(2, [(0, 1), (1, 0)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Dag(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Dag(2, [(0, 2)])

    def test_parents_sorted(self):
        dag = Dag(4, [(2, 3), (0, 3), (1, 3)])
        assert dag.parents(3) == (0, 1, 2)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_parents_of_a_node_out_of_range(self, v):
        # read from per-node tuples, -1 would otherwise give node 3's parents
        with pytest.raises(ValueError, match=rf"^node {v} out of range for n=4$"):
            Dag(4, [(0, 3)]).parents(v)

    def test_parent_tuples_are_not_a_field(self):
        dag = Dag(3, [(0, 2), (1, 2)])
        assert dag == Dag(3, [(1, 2), (0, 2)]) and hash(dag) == hash(Dag(3, [(1, 2), (0, 2)]))
        assert repr(dag).startswith("Dag(n=3, edges=frozenset(") and "_parents" not in repr(dag)

    def test_cycle_check_matches_dfs_oracle_exhaustive_n4(self):
        n = 4
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            assert has_cycle(n, edges) == dfs_cycle_oracle(n, edges)

    def test_dag_constructor_agrees_with_oracle_n3(self):
        n = 3
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                cyclic = dfs_cycle_oracle(n, edges)
                if cyclic:
                    with pytest.raises(ValueError):
                        Dag(n, edges)
                else:
                    assert Dag(n, edges).edges == frozenset(edges)


class TestCpt:
    def test_table_length_enforced(self):
        with pytest.raises(ValueError, match="entries"):
            Cpt(0, [1], [0.5])

    def test_probability_domain_enforced(self):
        for entry in [float("nan"), float("inf"), -float("inf"), -0.5, 1.5]:
            with pytest.raises(ValueError, match=r"^table entries must lie in \[0, 1\]$"):
                Cpt(1, [0], [0.5, entry])

    def test_parents_must_ascend(self):
        with pytest.raises(ValueError):
            Cpt(0, [2, 1], [0.1, 0.2, 0.3, 0.4])


class TestValidateModel:
    """The ``Dag``, ``Cpt`` and ``SbcnModel`` constructors are the one model check."""

    def test_valid_model(self):
        model = make_model(3, [(0, 1), (1, 2)])
        assert SbcnModel(model.dag, model.cpts, model.rank) == model

    def test_parent_mismatch_reported(self):
        dag = Dag(3, [(1, 2)])
        cpts = [
            Cpt(0, [], [0.5]),
            Cpt(1, [], [0.5]),
            Cpt(2, [0], [0.2, 0.8]),  # claims parent 0, structure says 1
        ]
        with pytest.raises(ValueError, match=r"^invalid model: node 2: CPT parents \[0\] != structure parents \[1\]$"):
            SbcnModel(dag, cpts, [0, 0, 0])

    @pytest.mark.parametrize("edges, cpts, confidence, problem", [
        ([], [Cpt(0, [], [0.5]), Cpt(0, [], [0.5])], None,
         r"CPT node set \[0, 0\] does not cover 0\.\.1 exactly once"),
        ([(0, 1)], [Cpt(0, [], [0.5]), Cpt(1, [0], [0.5, 0.5])], {(0, 1): 1.5},
         r"confidence for edge \(0, 1\) is 1\.5, outside \[0, 1\]"),
    ], ids=["node-set", "confidence-range"])
    def test_constructor_names_each_part_problem(self, edges, cpts, confidence, problem):
        with pytest.raises(ValueError, match=f"^invalid model: {problem}$"):
            SbcnModel(Dag(2, edges), cpts, [0, 0], confidence)

    def test_constructor_rejects_invalid(self):
        dag = Dag(2, [(0, 1)])
        with pytest.raises(ValueError, match="invalid model"):
            SbcnModel(dag, [Cpt(0, [], [0.5]), Cpt(1, [], [0.5])], [0, 0])

    def test_constructor_rejects_a_structure_that_is_not_a_dag(self):
        with pytest.raises(TypeError, match="^dag must be a Dag, got frozenset$"):
            SbcnModel(frozenset({(0, 1)}), [Cpt(0, [], [0.5]), Cpt(1, [0], [0.5, 0.5])], [0, 0])

    @pytest.mark.parametrize("rank, names, problem", [
        ([0], None, "rank has 1 entries, expected 2"),
        ([0, 0], ["a"], "names has 1 entries, expected 2"),
        ([-1, 0], None, "node 0: rank -1 is negative"),
    ])
    def test_constructor_checks_lengths_across_parts(self, rank, names, problem):
        cpts = [Cpt(0, [], [0.5]), Cpt(1, [0], [0.5, 0.5])]
        with pytest.raises(ValueError, match=f"^invalid model: {problem}$"):
            SbcnModel(Dag(2, [(0, 1)]), cpts, rank, names=names)

    def test_repeated_name_names_both_nodes(self):
        # a repeated name makes --clamp pick one node of the two, and the
        # scenario CSV written with it does not read back
        with pytest.raises(ValueError, match=r"^invalid model: duplicate name 'Km' at nodes 0 and 2$"):
            make_model(3, [(0, 1)], names=["Km", "SMB", "Km"])
        text = make_model(2, [], names=["Km", "SMB"]).to_json().replace('"SMB"', '"Km"')
        with pytest.raises(ModelSchemaError, match=r"^invalid model: duplicate name 'Km' at nodes 0 and 1$"):
            SbcnModel.from_json(text)

    def test_confidence_for_absent_edge_reported(self):
        dag = Dag(2, [(0, 1)])
        with pytest.raises(ValueError, match="absent edge"):
            SbcnModel(
                dag,
                [Cpt(0, [], [0.5]), Cpt(1, [0], [0.5, 0.5])],
                [0, 0],
                confidence={(1, 0): 0.9},
            )


class TestModelJson:
    def test_round_trip_single_edge(self):
        model = make_model(
            2,
            [(0, 1)],
            tables=[[1 / 3], [0.123456789012345, 2 / 3]],
            rank=[0, 1],
            names=["Km", "P0"],
            confidence={(0, 1): 0.75},
        )
        assert SbcnModel.from_json(model.to_json()) == model

    def test_equality_is_by_contents(self):
        a = make_model(2, [(0, 1)], tables=[[0.5], [0.25, 0.75]])
        b = make_model(2, [(0, 1)], tables=[[0.5], [0.25, 0.75]])
        c = make_model(2, [(0, 1)], tables=[[0.5], [0.25, 0.8]])
        assert a == b
        assert a != c
        assert a != "not a model"

    def test_full_precision_floats(self):
        model = make_model(1, [], tables=[[0.1 + 0.2]])
        back = SbcnModel.from_json(model.to_json())
        assert back.cpt(0).table[0] == 0.1 + 0.2

    def test_missing_keys_listed(self):
        with pytest.raises(ModelSchemaError, match="missing keys: cpts"):
            SbcnModel.from_json(json.dumps({"n": 1, "names": ["a"], "rank": [0], "edges": []}))

    def test_not_json(self):
        with pytest.raises(ModelSchemaError, match="not valid JSON"):
            SbcnModel.from_json("{nope")

    def test_dag_json_round_trip(self):
        dag = Dag(3, [(0, 2), (1, 2)])
        assert dag_from_json(dag_to_json(dag, ["a", "b", "c"])).edges == dag.edges


class TestContingencyStats:
    def test_rates(self):
        s = ContingencyStats(tp=3, fp=1, fn=2, tn=6)
        assert s.fp_rate_of_inferred == 1 / 4
        assert s.fn_rate_of_true == 2 / 5
        assert s.fpr == 1 / 7
        assert s.tpr == 3 / 5

    def test_degenerate_denominators(self):
        s = ContingencyStats(tp=0, fp=0, fn=0, tn=0)
        assert s.fp_rate_of_inferred == 0.0
        assert s.tpr == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ContingencyStats(tp=-1, fp=0, fn=0, tn=0)


class TestScenarioCsv:
    def test_rows_and_header(self):
        text = scenarios_to_csv(np.array([[0, 1], [1, 1]], dtype=np.uint8), ["a", "b"])
        assert text == "a,b\n0,1\n1,1\n"

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scenarios_to_csv(np.zeros((2, 2), dtype=np.uint8), ["a"])


ONE_CELL = object()  # stands for the field's array with one cell changed

#: Per value type: a factory of equal instances, and for every field a value
#: that differs from the factory's in that field alone.
VALUE_TYPES = {
    "BinaryDataset": (
        lambda: BinaryDataset([[0, 1], [1, 1]], ["a", "b"], [0, 1]),
        {"values": ONE_CELL, "names": ("a", "c"), "rank": (0, 2)},
    ),
    "Cpt": (
        lambda: Cpt(2, [0, 1], [0.1, 0.2, 0.3, 0.4]),
        {"node": 3, "parents": (0, 3), "table": ONE_CELL},
    ),
    "SbcnModel": (
        lambda: SbcnModel(
            Dag(2, [(0, 1)]),
            [Cpt(0, [], [0.5]), Cpt(1, [0], [0.2, 0.8])],
            [0, 1],
            {(0, 1): 0.9},
            ["a", "b"],
        ),
        {
            "dag": Dag(2),
            "cpts": (Cpt(0, [], [0.5]), Cpt(1, [0], [0.2, 0.7])),
            "rank": (0, 0),
            "confidence": {(0, 1): 0.8},
            "names": ("a", "c"),
        },
    ),
    "RealSeries": (
        lambda: RealSeries([[0.5, -1.0], [2.0, 0.25]], ["f", "p"], n_factors=1),
        {"values": ONE_CELL, "names": ("f", "q"), "n_factors": 2},
    ),
    "FactorModelSpec": (
        lambda: market_factor_spec(seed=1, n_stocks=2),
        {
            "n_factors": 6,
            "n_stocks": 3,
            "factor_dag": Dag(5),
            "factor_loadings": ONE_CELL,
            "factor_sigma": ONE_CELL,
            "stock_betas": ONE_CELL,
            "stock_sigma": ONE_CELL,
            "lag": 2,
            "factor_names": ("Km", "SMB", "HML", "RMW", "X"),
            "stock_names": ("P0", "Q1"),
        },
    ),
}


class TestValueEquality:
    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_equal_copies_compare_equal(self, name):
        make, _ = VALUE_TYPES[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_every_field_has_a_change(self, name):
        make, changes = VALUE_TYPES[name]
        assert set(changes) == {f.name for f in fields(make())}

    @pytest.mark.parametrize(
        "name, field", [(name, f) for name, (_, changes) in VALUE_TYPES.items() for f in changes]
    )
    def test_one_field_changed_is_unequal(self, name, field):
        make, changes = VALUE_TYPES[name]
        a, b = make(), make()
        value = changes[field]
        if value is ONE_CELL:
            value = getattr(b, field).copy()
            value.flat[-1] = 0 if value.flat[-1] else 1
        # set past the constructor, which would reject some of these alone
        object.__setattr__(b, field, value)
        assert a != b and b != a
        assert not a == b

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_other_type_is_unequal(self, name):
        make, _ = VALUE_TYPES[name]
        a = make()
        others = [other() for key, (other, _) in VALUE_TYPES.items() if key != name]
        assert all(a != b and b != a for b in others)
        assert a != "a value" and a.__eq__(object()) is NotImplemented

    @pytest.mark.parametrize("name", VALUE_TYPES)
    def test_unhashable(self, name):
        make, _ = VALUE_TYPES[name]
        with pytest.raises(TypeError):
            hash(make())


class TestArcCheck:
    @pytest.mark.parametrize("edges, message", [
        ([(1, 1)], "self-loop on node 1"),
        ([(0, 3)], "edge (0, 3) out of range for n=3"),
        ([(-1, 0)], "edge (-1, 0) out of range for n=3"),
    ])
    def test_dag_and_edge_set_reject_alike(self, edges, message):
        with pytest.raises(ValueError) as dag_error:
            Dag(3, edges)
        with pytest.raises(ValueError) as set_error:
            EdgeSet(3, edges)
        assert str(dag_error.value) == str(set_error.value) == message

    def test_negative_node_count_is_named_first(self):
        with pytest.raises(ValueError, match="^node count must be nonnegative$"):
            Dag(-1, [(0, 1)])


class TestPublicNames:
    def test_star_import_binds_every_name_and_no_module(self):
        namespace = {}
        exec("from sbcn import *", namespace)
        assert [k for k, v in namespace.items() if isinstance(v, ModuleType)] == []
        assert all(namespace[name] is getattr(sbcn, name) for name in sbcn.__all__)

    @pytest.mark.parametrize("owner, name", [
        (sbcn, "predict"), (sbcn.classifier, "predict"), (BinaryDataset, "column"),
    ], ids=["sbcn.predict", "sbcn.classifier.predict", "BinaryDataset.column"])
    def test_removed_names_are_gone(self, owner, name):
        # the tree is read through risky_paths only, and a column is values[:, i]
        assert not hasattr(owner, name)

    @pytest.mark.parametrize("name, keyword, value", [
        ("learn_tree", "max_depth", None), ("learn_tree", "min_leaf", 5), ("learn_tree", "min_gain", None),
        ("LearnOptions", "tp_mode", "rank"), ("prima_facie_edges", "tp_mode", "rank"),
        ("binarize", "threshold_mode", "median"), ("simulate_dataset", "threshold_mode", "median"),
        ("LearnOptions", "aic_conventional", False), ("regularized_score", "aic_conventional", False),
    ])
    def test_removed_settings_are_gone(self, name, keyword, value):
        # the rank is the one temporal-priority test and the median the one
        # binarization threshold; the tree's depth, leaf size and gain floor
        # are fixed; the "aic" score has one form, LL - 2k.  Each keyword,
        # even at its old default, is a TypeError.
        args = {"learn_tree": (np.zeros((5, 2)), np.zeros(5, dtype=bool)), "LearnOptions": (),
                "prima_facie_edges": (BinaryDataset([[0, 1], [1, 0]], ["a", "b"], [0, 0]),),
                "binarize": (RealSeries(np.zeros((2, 1)), ["x"]),),
                "simulate_dataset": (market_factor_spec(seed=0), 10, 0),
                "regularized_score": (BinaryDataset([[0, 1], [1, 0]], ["a", "b"], [0, 0]), Dag(2), "aic")}[name]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'$"):
            getattr(sbcn, name)(*args, **{keyword: value})
