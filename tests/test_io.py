"""Artifact IO against the per-cell reference implementations in ``oracles``.

The dataset CSV reader has a one-pass path for the canonical layout and a
per-row path for everything else; both must give the oracle's dataset, or
the oracle's error message.  The CSV writers and the indent-2 JSON writer
must give the oracle's bytes.  The JSON readers must reject every value
not of its declared type, naming its key.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dataset_csv_oracle, rows_csv_oracle
from sbcn.bootstrap import BootstrapReport
from sbcn.classifier import DecisionTree
from sbcn.evaluation import RATE_FIELDS, SweepReport, SweepRow
from sbcn.model import (
    BinaryDataset,
    CsvFormatError,
    Dag,
    ModelSchemaError,
    SbcnModel,
    _canonical_csv,
    _dumps_indent2,
    dag_from_json,
    scenarios_to_csv,
)

NAME = st.text(st.sampled_from("abcxyzAB_09é"), min_size=1, max_size=4)
PAD = st.sampled_from(["", " ", "\t", "  ", " \t"])


@st.composite
def datasets(draw):
    names = draw(st.lists(NAME, min_size=1, max_size=6, unique=True))
    n = len(names)
    m = draw(st.integers(1, 12))
    values = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=m, max_size=m))
    rank = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return BinaryDataset(np.array(values, dtype=np.uint8), names, rank)


@st.composite
def layouts(draw, ds):
    """CSV text of ``ds`` in a randomly lenient layout (possibly canonical)."""
    pad = lambda s: draw(PAD) + s + draw(PAD)  # noqa: E731
    lenient = draw(st.booleans())
    lines = [",".join(pad(s) if lenient else s for s in ds.names)]
    with_rank = draw(st.booleans())
    if with_rank:
        lines.append("#rank:" + ",".join(str(r) for r in ds.rank))
    for row in ds.values:
        lines.append(",".join(pad(str(c)) if lenient else str(c) for c in row))
    if lenient:
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t "])))
    eol = draw(st.sampled_from(["\n", "\r\n"])) if lenient else "\n"
    trailing = draw(st.booleans()) if lenient else True
    text = eol.join(lines) + (eol if trailing else "")
    return text, with_rank


def outcome(parse, text):
    try:
        return parse(text)
    except CsvFormatError as exc:
        return ("CsvFormatError", str(exc))


class TestReadDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_valid_layouts_match_oracle(self, data):
        ds = data.draw(datasets())
        text, with_rank = data.draw(layouts(ds))
        got = BinaryDataset.from_csv(text)
        assert got == dataset_csv_oracle(text)
        assert got.values.tolist() == ds.values.tolist() and got.names == ds.names
        assert got.rank == (ds.rank if with_rank else (0,) * ds.n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_malformed_text_gives_oracle_message(self, data):
        ds = data.draw(datasets())
        text, with_rank = data.draw(layouts(ds))
        lines = text.splitlines()
        body = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#rank:")][1:]
        fault = data.draw(st.sampled_from(["cell", "width", "rank", "no_rows", "empty"]))
        if fault == "cell":
            i = data.draw(st.sampled_from(body))
            cells = lines[i].split(",")
            j = data.draw(st.integers(0, len(cells) - 1))
            bad = ["2", "x", "01", "1 1", "-1", "1.0", "é"] + ([""] if len(cells) > 1 else [])
            cells[j] = data.draw(st.sampled_from(bad))
            lines[i] = ",".join(cells)
        elif fault == "width":
            i = data.draw(st.sampled_from(body))
            cells = lines[i].split(",")
            lines[i] = ",".join(cells + ["1"] if data.draw(st.booleans()) or len(cells) == 1
                                else cells[:-1])
        elif fault == "rank":
            entries = [str(r) for r in ds.rank]
            if data.draw(st.booleans()):
                entries[data.draw(st.integers(0, ds.n - 1))] = data.draw(
                    st.sampled_from(["x", "", "1.5", "0x1"]))
            else:
                entries = entries[:-1] if len(entries) > 1 else entries + ["0"]
            rank_line = "#rank:" + ",".join(entries)
            if with_rank:
                lines = [rank_line if ln.startswith("#rank:") else ln for ln in lines]
            else:
                lines.insert(next(i for i, ln in enumerate(lines) if ln.strip()) + 1, rank_line)
        elif fault == "no_rows":
            lines = [ln for i, ln in enumerate(lines) if i not in body]
        else:
            lines = data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(lines) + data.draw(st.sampled_from(["", eol]))
        expected = outcome(dataset_csv_oracle, text)
        assert isinstance(expected, tuple), f"fault {fault} left the text valid"
        assert outcome(BinaryDataset.from_csv, text) == expected

    @settings(max_examples=50, deadline=None)
    @given(datasets())
    def test_written_csv_takes_one_pass_parse(self, ds):
        lines, values = _canonical_csv(ds.to_csv())
        assert lines == ds.to_csv().splitlines()[:2]
        assert values.tolist() == ds.values.tolist()

    @pytest.mark.parametrize("text", [
        "a ,b\n0,1\n", "a,b\r\n0,1\n", "\na,b\n0,1\n", "a,b\n#rank:0,1\n\n0,1\n",
        "  \n0\n1\n", "a\rb,c\n0,1\n", "a,b\n#rank:0,\x0c1\n0,1\n", "a,b\n#rank:0,1\n",
    ])
    def test_canonical_body_with_noncanonical_head_uses_row_parse(self, text):
        assert outcome(BinaryDataset.from_csv, text) == outcome(dataset_csv_oracle, text)


class TestWriteDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(1, 5),
        st.sampled_from([np.uint8, np.bool_, np.int64, np.float64]),
        st.data(),
    )
    def test_scenarios_to_csv_matches_oracle(self, m, n, dtype, data):
        pool = {np.uint8: [0, 1], np.bool_: [False, True], np.int64: [0, 1, -3, 2**40],
                np.float64: [0.0, -0.0, 1.0, 0.5, -2.0, np.nan, np.inf]}[dtype]
        arr = np.array(data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=n,
                                                   max_size=n), min_size=m, max_size=m)),
                       dtype=dtype).reshape(m, n)
        names = data.draw(st.lists(NAME, min_size=n, max_size=n, unique=True))
        assert scenarios_to_csv(arr, names) == rows_csv_oracle([",".join(names)], arr)

    @settings(max_examples=100, deadline=None)
    @given(datasets())
    def test_dataset_to_csv_matches_oracle(self, ds):
        head = [",".join(ds.names), "#rank:" + ",".join(str(r) for r in ds.rank)]
        assert ds.to_csv() == rows_csv_oracle(head, ds.values)

    def test_zero_columns(self):
        arr = np.zeros((3, 0), dtype=np.uint8)
        assert scenarios_to_csv(arr, []) == rows_csv_oracle([""], arr)


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
JSON_KEYS = st.text(max_size=6) | st.integers(-5, 5) | st.floats(allow_nan=False) | st.booleans()
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.tuples(inner, inner)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=30,
)

# float64 tables as the model writer gets them: repeated values, signed
# zeros, NaN and infinities among them, and the empty table
FLOAT_ARRAYS = st.lists(
    st.sampled_from([0.0, -0.0, 0.1, 1.0, 1 / 3, float("nan"), float("inf"), float("-inf")])
    | st.floats(allow_nan=True, allow_infinity=True),
    max_size=40,
).map(lambda values: np.array(values, dtype=np.float64))


def as_lists(obj):
    """``obj`` with every array replaced by its ``.tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    return [as_lists(x) for x in obj]


class TestJsonWriter:
    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps_indent2(self, obj):
        assert _dumps_indent2(obj) == json.dumps(obj, indent=2)

    def test_examples(self):
        for obj in ({}, [], {"a": []}, [{}], [[1, 2], [3.5, None]], {"é": ["ü", True, 1e300]},
                    [np.float64(0.1), 2], {"t": np.arange(4, dtype=float).tolist()}):
            assert _dumps_indent2(obj) == json.dumps(obj, indent=2)

    def test_unencodable_key(self):
        with pytest.raises(TypeError):
            _dumps_indent2({(1, 2): 0})

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(FLOAT_ARRAYS, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6))
    def test_float_arrays_equal_json_dumps_of_tolist(self, obj):
        assert _dumps_indent2(obj) == json.dumps(as_lists(obj), indent=2)

    @pytest.mark.parametrize("obj", [
        [(1, 2.5), [None, True]],
        [[1], []],
        [[1, [2]], [3]],
        [["a\0b", ", ", "\0"], ["é", "☃ü", ""]],
        {"edges": [[0, 1], [2, 3]], "confidence": [[0, 1, 0.5], [2, 3, 1.0]]},
        [[np.float64(0.5)], [1]],
    ])
    def test_lists_of_scalar_lists(self, obj):
        assert _dumps_indent2(obj) == json.dumps(obj, indent=2)


class TestCsvNames:
    @pytest.mark.parametrize("names, column", [
        (["a,b", "c"], 1), ([" a", "b"], 1), (["a", "b "], 2), (["a", "b\nc"], 2),
        (["a", "\tb"], 2), (["a\rb", "c"], 1),
    ])
    def test_writer_rejects_names_that_do_not_read_back(self, names, column):
        ds = BinaryDataset([[0, 1]], names, [0, 0])
        with pytest.raises(ValueError, match=f"column {column}: name"):
            ds.to_csv()
        with pytest.raises(ValueError, match=f"column {column}: name"):
            scenarios_to_csv(np.zeros((1, 2), dtype=np.uint8), names)

    def test_writer_rejects_a_lone_empty_name(self):
        # its header line would be blank, and the reader skips blank lines
        ds = BinaryDataset([[0], [1]], [""], [2])
        with pytest.raises(ValueError, match="column 1: name ''"):
            ds.to_csv()
        with pytest.raises(ValueError, match="column 1: name ''"):
            scenarios_to_csv(np.zeros((1, 1), dtype=np.uint8), [""])

    def test_empty_name_beside_others_round_trips(self):
        ds = BinaryDataset([[0, 1]], ["", "b"], [0, 1])
        assert BinaryDataset.from_csv(ds.to_csv()) == ds

    def test_inner_space_round_trips(self):
        ds = BinaryDataset([[0, 1]], ["a b", "é"], [0, 1])
        assert BinaryDataset.from_csv(ds.to_csv()) == ds

    @pytest.mark.parametrize("text", ["a,b,a\n0,1,0\n", "a, b ,b\n0 ,1,0\n"])
    def test_duplicate_header_name(self, text):
        with pytest.raises(CsvFormatError, match=r"row 1, column 3: duplicate variable name"):
            BinaryDataset.from_csv(text)

    @pytest.mark.parametrize("text", ["a,b\n#rank:0,-1\n0,1\n", "a,b\r\n#rank:0,-1\r\n0,1\r\n"])
    def test_negative_rank(self, text):
        with pytest.raises(CsvFormatError, match=r"row 2, column 2: negative rank -1"):
            BinaryDataset.from_csv(text)

    def test_dataset_without_columns_is_not_written(self):
        ds = BinaryDataset(np.zeros((2, 0), dtype=np.uint8), [], [])
        with pytest.raises(ValueError, match="no columns"):
            ds.to_csv()

    @pytest.mark.parametrize("text", ["\n#rank:\n\n\n", "#rank:0,1\n0,1\n", "\n \n#rank:0\r\n1\r\n"])
    def test_rank_line_before_any_header(self, text):
        with pytest.raises(CsvFormatError, match=r"row 1: missing header row .*#rank: line"):
            BinaryDataset.from_csv(text)

    def test_writer_rejects_a_first_name_that_reads_as_a_rank_line(self):
        ds = BinaryDataset([[0, 1]], ["#rank:x", "b"], [0, 0])
        with pytest.raises(ValueError, match="column 1: name '#rank:x'"):
            ds.to_csv()
        with pytest.raises(ValueError, match="column 1: name '#rank:x'"):
            scenarios_to_csv(np.zeros((1, 2), dtype=np.uint8), ["#rank:x", "b"])
        later = BinaryDataset([[0, 1]], ["b", "#rank:x"], [0, 1])
        assert BinaryDataset.from_csv(later.to_csv()) == later

    def test_writer_rejects_a_first_name_that_starts_with_a_byte_order_mark(self):
        # the command line reads files as utf-8-sig, which drops it
        ds = BinaryDataset([[0, 1]], ["\ufeffKm", "b"], [0, 0])
        message = r"column 1: name '\\ufeffKm' starts with '\\ufeff', so the command line would drop it"
        with pytest.raises(ValueError, match=message):
            ds.to_csv()
        with pytest.raises(ValueError, match=message):
            scenarios_to_csv(np.zeros((1, 2), dtype=np.uint8), ["\ufeffKm", "b"])
        later = BinaryDataset([[0, 1]], ["b", "\ufeffKm"], [0, 1])
        assert BinaryDataset.from_csv(later.to_csv()) == later


class TestFloatRepr:
    """A sweep report writes each rate as the shortest text that reads back
    as ``float(value)``, for a Python or numpy number alike."""

    @pytest.mark.parametrize("value, text", [
        (np.float64(0.25), "0.25"),
        (np.float32(0.1), "0.10000000149011612"),
        (0.1, "0.1"),
        (3, "3.0"),
        (np.int64(-2), "-2.0"),
        (float("inf"), "inf"),
        (-np.inf, "-inf"),
        (float("nan"), "nan"),
        (np.float64("nan"), "nan"),
    ])
    def test_text_round_trips(self, value, text):
        row = SweepRow("sbcn", "bic", False, 100, dict.fromkeys(RATE_FIELDS, value),
                       dict.fromkeys(RATE_FIELDS, 0.0), 1, 0)
        assert SweepReport((row,)).to_csv().splitlines()[1].split(",")[4] == text
        if text != "nan":
            assert float(text) == float(value)


MODEL = {"n": 2, "names": ["a", "b"], "rank": [0, 1], "edges": [[0, 1]],
         "cpts": [{"node": 0, "parents": [], "table": [0.5]},
                  {"node": 1, "parents": [0], "table": [0.25, 0.75]}],
         "confidence": [[0, 1, 0.5]]}
REPORT = {"replicates": 3, "threshold": 0.5, "confidence": [[0, 1, 0.5]]}
LEAF = {"label": "risky", "counts": [1, 2]}
TREE = {"feature_names": ["x", "y"], "root": {"feature": 0, "left": LEAF, "right": LEAF}}


def edited(base, path, value):
    """A deep copy of ``base`` with the entry at ``path`` set to ``value``."""
    root = obj = json.loads(json.dumps(base))
    *head, last = path
    for key in head:
        obj = obj[key]
    obj[last] = value
    return root


# twelve nodes and no arcs; a tree two splits deep on its right
MODEL12 = {"n": 12, "names": [f"v{i}" for i in range(12)], "rank": [0] * 12, "edges": [],
           "cpts": [{"node": i, "parents": [], "table": [0.5]} for i in range(12)]}
DEEP_TREE = edited(TREE, ["root", "right"], {"feature": 1, "left": LEAF, "right": LEAF})


class TestJsonReaders:
    """Every reader reads its keys against one declaration, so an ill-typed
    value fails as a ``ModelSchemaError`` whose message names its key."""

    READERS = {"model": SbcnModel.from_json, "report": BootstrapReport.from_json,
               "tree": DecisionTree.from_json, "dag": dag_from_json}

    @pytest.mark.parametrize("reader, obj, key", [
        pytest.param("model", edited(MODEL, ["n"], "2"), "n", id="n-string"),
        pytest.param("model", edited(MODEL, ["n"], 2.7), "n", id="n-fraction"),
        pytest.param("model", edited(MODEL, ["names"], "ab"), "names", id="names-string"),
        pytest.param("model", edited(MODEL, ["rank"], [0.9, 1.2]), "rank", id="rank-fractions"),
        pytest.param("model", edited(MODEL, ["cpts", 1, "table", 0], "0.5"), "table",
                     id="table-entry-string"),
        pytest.param("model", edited(MODEL, ["confidence", 0, 2], "0.5"), "confidence",
                     id="confidence-string"),
        pytest.param("model", edited(MODEL, ["edges", 0], [0, 1, 9]), "edges", id="edge-triple"),
        pytest.param("model", edited(MODEL, ["comment"], "hi"), "comment", id="unknown-key"),
        pytest.param("report", edited(REPORT, ["replicates"], 2.5), "replicates",
                     id="replicates-fraction"),
        pytest.param("report", edited(REPORT, ["replicates"], True), "replicates",
                     id="replicates-bool"),
        pytest.param("report", edited(REPORT, ["replicates"], "3"), "replicates",
                     id="replicates-string"),
        pytest.param("tree", edited(TREE, ["root", "feature"], -1), "feature",
                     id="feature-negative"),
        pytest.param("tree", edited(TREE, ["root", "feature"], "0"), "feature", id="feature-string"),
        pytest.param("tree", edited(TREE, ["root", "left", "counts"], [1]), "counts",
                     id="counts-single"),
        pytest.param("tree", edited(TREE, ["root", "right"], TREE["root"]), "feature",
                     id="feature-repeated-on-a-path"),
        pytest.param("dag", {"n": 2, "names": ["a"], "edges": []}, "names", id="dag-names-short"),
    ])
    def test_ill_typed_value_names_the_key(self, reader, obj, key):
        with pytest.raises(ModelSchemaError) as exc:
            self.READERS[reader](json.dumps(obj))
        assert re.search(rf"\b{key}\b", str(exc.value)), str(exc.value)

    @pytest.mark.parametrize("reader, obj, message", [
        pytest.param("model", edited(MODEL12, ["cpts", 11, "table", 0], "0.5"),
                     "cpts[11]: table entries must be a finite number, got '0.5'",
                     id="12th-cpt-entry"),
        pytest.param("model", edited(MODEL12, ["cpts", 3, "comment"], "hi"),
                     "cpts[3]: unknown cpts entry keys: comment", id="4th-cpt-key"),
        pytest.param("model", edited(MODEL12, ["cpts", 5, "table"], [0.5, 0.5]),
                     "cpts[5]: table has 2 entries, expected 1", id="6th-cpt-size"),
        pytest.param("model", edited(MODEL, ["rank"], [-1, 0]),
                     "invalid model: node 0: rank -1 is negative", id="negative-rank"),
        pytest.param("tree", edited(DEEP_TREE, ["root", "right", "left", "label"], "meh"),
                     "root.right.left: label must be", id="deep-leaf-label"),
        pytest.param("tree", edited(DEEP_TREE, ["root", "right", "left", "counts"], [1]),
                     "root.right.left: counts must be a list of 2", id="deep-leaf-counts"),
        pytest.param("tree", edited(DEEP_TREE, ["root", "right", "left", "counts"], [-1, 2]),
                     "root.right.left: counts must be two nonnegative integers, got [-1, 2]",
                     id="deep-leaf-negative-count"),
        pytest.param("tree", edited(DEEP_TREE, ["root", "right", "feature"], -1),
                     "root.right: feature must be >= 0", id="deep-split-feature"),
        pytest.param("tree", edited(DEEP_TREE, ["root", "right", "feature"], 0),
                     "root.right: feature 0 repeats on a root-to-leaf path",
                     id="deep-split-repeat"),
    ])
    def test_nested_fault_names_its_place(self, reader, obj, message):
        with pytest.raises(ModelSchemaError) as exc:
            self.READERS[reader](json.dumps(obj))
        assert str(exc.value).startswith(message), str(exc.value)

    @pytest.mark.parametrize("reader, obj", [
        ("model", MODEL), ("report", REPORT), ("tree", TREE),
        ("dag", {"n": 2, "edges": [[0, 1]]}),
    ])
    def test_well_typed_file_reads(self, reader, obj):
        self.READERS[reader](json.dumps(obj))

    @pytest.mark.parametrize("reader, obj, key", [
        pytest.param("dag", {"n": 2, "edges": [[0, 1], [0, 1]]}, "edges", id="dag-edges"),
        pytest.param("model", edited(MODEL, ["edges"], [[0, 1], [0, 1]]), "edges", id="model-edges"),
        pytest.param("model", edited(MODEL, ["confidence"], [[0, 1, 0.5], [0, 1, 1.0]]),
                     "confidence", id="model-confidence"),
        pytest.param("report", edited(REPORT, ["confidence"], [[0, 1, 0.5], [0, 1, 1.0]]),
                     "confidence", id="report-confidence"),
    ])
    def test_repeated_arc_is_refused(self, reader, obj, key):
        # read into a set or a dict, the file would lose one of the two silently
        with pytest.raises(ModelSchemaError) as exc:
            self.READERS[reader](json.dumps(obj))
        assert str(exc.value) == f"{key} entries must be distinct, got [0, 1] twice"

    @pytest.mark.parametrize("entry", [True, None, [0.5], {}, 10 ** 400])
    def test_table_entry_of_another_type(self, entry):
        message = r"^cpts\[0\]: table entries must be a finite number"
        with pytest.raises(ModelSchemaError, match=message):
            SbcnModel.from_json(json.dumps(edited(MODEL, ["cpts", 0, "table", 0], entry)))

    def test_integral_table_entries_read_as_floats(self):
        model = SbcnModel.from_json(json.dumps(edited(MODEL, ["cpts", 0, "table"], [1])))
        assert model.cpt(0).table.tolist() == [1.0]

    def test_feature_past_the_names(self):
        with pytest.raises(ModelSchemaError, match="feature 2 has no name"):
            DecisionTree.from_json(json.dumps(edited(TREE, ["root", "feature"], 2)))

    def test_unknown_label(self):
        message = r"^root\.left: label must be 'risky' or 'profitable'"
        with pytest.raises(ModelSchemaError, match=message):
            DecisionTree.from_json(json.dumps(edited(TREE, ["root", "left", "label"], "meh")))

    def test_null_confidence_is_no_confidence(self):
        assert SbcnModel.from_json(json.dumps(edited(MODEL, ["confidence"], None))).confidence is None

    def test_dag_names_must_match_the_expected_order(self):
        text = json.dumps({"n": 2, "names": ["b", "a"], "edges": [[0, 1]]})
        assert dag_from_json(text, ["b", "a"]) == Dag(2, [(0, 1)])
        with pytest.raises(ModelSchemaError, match=r"^names\[0\] is 'b', expected 'a'"):
            dag_from_json(text, ["a", "b"])
