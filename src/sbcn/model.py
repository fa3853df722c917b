"""Core domain types: binary datasets, DAGs, CPTs, causal network models.

All types are immutable after construction and validate their invariants
eagerly, raising ``ValueError`` on malformed input.  Serialization helpers
round-trip exactly: CSV for datasets, JSON for models (floats are written
with full shortest-round-trip precision).
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass, fields
from functools import cached_property, partial
from itertools import islice

import numpy as np

Edge = tuple[int, int]

class CsvFormatError(ValueError):
    """Malformed dataset CSV; message carries the offending row/column."""


class ModelSchemaError(ValueError):
    """A JSON file does not match its declared keys and types, or holds a
    value the type it is read into rejects."""


_KIND_TEXT = {bool: "true or false", int: "an integer", float: "a finite number",
              str: "a string", dict: "a JSON object", tuple: "a list", np.ndarray: "a list"}


def _json_value(what: str, value, kind):
    """A value decoded from JSON, read as ``kind``: bool, int (an integral float too), finite
    float, str, dict, ``X | None``, a list as ``tuple[X, ...]`` or ``tuple[X, Y]``, or a list
    of numbers as ``np.ndarray``.  No bool is a number.  ``ValueError`` naming ``what`` otherwise."""
    origin, args = getattr(kind, "__origin__", kind), getattr(kind, "__args__", ())
    if type(None) in args:
        return None if value is None else _json_value(what, value, args[0])
    if origin is tuple and isinstance(value, list):
        kinds = args[:1] * len(value) if args[1:] == (...,) else args  # one kind per entry
        if tuple(map(type, value)) == kinds and (
                float not in kinds or all(abs(v) <= sys.float_info.max for v in value if type(v) is float)):
            return tuple(value)  # every entry already of its kind
        row = args[0].__args__ if args[1:] == (...,) and getattr(args[0], "__origin__", None) is tuple else ()
        if row and ... not in row and all(type(v) is list and len(v) == len(row) for v in value):
            # a list of fixed-length lists, such as edges: read column by column
            columns = (_json_value(what, list(c), tuple[k, ...]) for c, k in zip(zip(*value), row))
            return tuple(zip(*columns))
        if len(value) == len(kinds):
            return tuple(_json_value(f"{what} entries", v, k) for v, k in zip(value, kinds))
    if kind is np.ndarray and isinstance(value, list):  # a CPT table: its entry types in one pass
        floats = list(map(type, value)).count(float) == len(value)
        return np.fromiter(value if floats else _json_value(what, value, tuple[float, ...]), np.float64)
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is not float and type(value) is kind:
        return value
    text = f"a list of {len(args)}" if origin is tuple and args[1:] != (...,) else _KIND_TEXT[origin]
    raise ValueError(f"{what} must be {text}, got {value!r}")


class _FloatTexts(dict):
    """Each float text parsed once: a CPT table repeats few distinct values."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _json_object(source, what: str, kinds: dict, optional=(), build=dict, at=""):
    """``build(**values)`` for ``source``, JSON text or its decoded value, read as the object
    ``kinds`` declares: each key but the ``optional`` ones, no other, each value read as its
    kind by ``_json_value``.  Every fault, a ``ValueError`` of ``build`` too, is a
    ``ModelSchemaError``; ``what`` names the object, and ``at``, the place of a nested
    object such as ``cpts[11]``, starts each of its messages.
    A ``ModelSchemaError`` of ``build`` is passed on as it is: a nested read placed it."""
    def fault(message: str) -> ModelSchemaError:
        return ModelSchemaError(f"{at}: {message}" if at else message)
    if isinstance(source, str):
        try:
            source = json.loads(source, parse_float=_FloatTexts().__getitem__)
        except json.JSONDecodeError as exc:
            raise fault(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(source, dict):
        raise fault(f"{what} must be a JSON object")
    missing = [k for k in kinds if k not in source and k not in optional]
    if missing:
        raise fault(f"{what} is missing keys: {', '.join(missing)}")
    unknown = sorted(source.keys() - kinds.keys())
    if unknown:
        raise fault(f"unknown {what} keys: {', '.join(unknown)}")
    try:
        return build(**{k: _json_value(k, v, kinds[k]) for k, v in source.items()})
    except ModelSchemaError:
        raise
    except ValueError as exc:
        raise fault(str(exc)) from None


def _kahn_order(n: int, edges) -> list[int]:
    """Kahn's peeling, lowest-index ready node first: parents before
    children.  Nodes on or after a cycle (or self-loop) are left out."""
    indeg = [0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        children[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]  # ascending, so a heap
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    return order


def has_cycle(n: int, edges) -> bool:
    """Return True iff the directed graph on nodes 0..n-1 has a cycle
    (a self-loop counts)."""
    return len(_kahn_order(n, edges)) != n


def topological_order(dag) -> list[int]:
    """Parents-before-children order; ties broken by lowest node index."""
    order = _kahn_order(dag.n, dag.edges)
    if len(order) != dag.n:
        raise ValueError("graph contains a directed cycle")
    return order


class _Value:
    """Field-by-field equality for the package's frozen dataclasses, array
    fields compared by ``np.array_equal``.  Defining ``__eq__`` here leaves
    ``__hash__`` None, so the types stay unhashable."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values`` as a ``dtype`` array."""
    arr = np.asarray(values, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


def _arcs(n: int, edges) -> frozenset[Edge]:
    """``edges`` as a frozenset of int pairs; ``ValueError`` on a self-loop
    or an arc leaving nodes 0..n-1."""
    arcs = frozenset((int(u), int(v)) for u, v in edges)
    for u, v in arcs:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    return arcs


def _as_binary_matrix(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    binary = (arr == 0) | (arr == 1)
    if not binary.all():
        bad = np.argwhere(~binary)[0]
        raise ValueError(
            f"cell at row {bad[0]}, column {bad[1]} is {arr[bad[0], bad[1]]!r}; "
            "dataset cells must be 0 or 1"
        )
    return _frozen(arr, np.uint8)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of the 2-D 0/1 matrix ``rows``, the same in every call:
    its bits packed little-endian, column j at bit j, as an unsigned integer
    of 1, 2, 4 or 8 bytes up to 64 columns and a fixed-width byte string past."""
    m, c = rows.shape
    size = -(-c // 8)
    width = size if size > 8 else 1 << max(size - 1, 0).bit_length()
    keys = np.empty(m, dtype=f"S{width}" if size > 8 else f"<u{width}")
    # 8192 zero-padded rows at a time: numpy packs one flat run of bits far
    # faster than many short rows, and the buffer stays small
    bits = np.zeros((min(m, 8192), 8 * width), dtype=bool)
    for start in range(0, m, 8192):
        chunk = rows[start:start + 8192]
        bits[:len(chunk), :c] = chunk
        keys[start:start + len(chunk)] = np.packbits(bits[:len(chunk)], bitorder="little").view(keys.dtype)
    return keys


def _key_rows(keys: np.ndarray, c: int) -> np.ndarray:
    """The ``c``-column bool rows whose :func:`_row_keys` are ``keys``."""
    packed = keys.view(np.uint8).reshape(len(keys), keys.itemsize)
    return np.unpackbits(packed.T, axis=0, count=c, bitorder="little").view(bool).T


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-D 0/1 matrix ``rows``, as a bool matrix
    in increasing :func:`_row_keys` order, and the int64 count of each."""
    keys, counts = np.unique(_row_keys(rows), return_counts=True)
    return _key_rows(keys, rows.shape[1]), counts


@dataclass(frozen=True, eq=False)
class BinaryDataset(_Value):
    """m observations of n binary variables, with a temporal rank per variable.

    ``rank`` encodes temporal priority (lower rank = earlier); it is supplied
    with the data, never inferred.
    """

    values: np.ndarray
    names: tuple[str, ...]
    rank: tuple[int, ...]

    def __init__(self, values, names, rank):
        object.__setattr__(self, "values", _as_binary_matrix(values))
        object.__setattr__(self, "names", tuple(str(s) for s in names))
        object.__setattr__(self, "rank", tuple(int(r) for r in rank))
        m, n = self.values.shape
        if m < 1:
            raise ValueError("dataset needs at least one observation row")
        if len(self.names) != n or len(self.rank) != n:
            raise ValueError(
                f"{n} columns but {len(self.names)} names and {len(self.rank)} ranks"
            )
        if len(set(self.names)) != n:
            raise ValueError("variable names must be unique")
        if any(r < 0 for r in self.rank):
            raise ValueError("ranks must be nonnegative")

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows, as a read-only bool matrix, and the int64
        count of each.  Grouped on first use and kept, so every count over
        this dataset (a search, its CPT fit, a log-likelihood) groups the
        rows once."""
        rows, counts = _distinct_rows(self.values)
        rows.setflags(write=False)
        counts.setflags(write=False)
        return rows, counts

    def to_csv(self) -> str:
        if self.n == 0:
            raise ValueError(
                "a dataset with no columns cannot be written to CSV: its header "
                "line would be blank and would not read back"
            )
        rank = "#rank:" + ",".join(str(r) for r in self.rank)
        return _csv_head(self.names, rank) + _csv_body(self.values).decode("ascii")

    @classmethod
    def from_csv(cls, text: str) -> "BinaryDataset":
        canonical = _canonical_csv(text)
        if canonical is None:
            lines = [ln for ln in text.splitlines() if ln.strip() != ""]
        else:
            lines, values = canonical
        if not lines:
            raise CsvFormatError("empty CSV: expected a header row of variable names")
        if lines[0].startswith("#rank:"):
            raise CsvFormatError(
                "row 1: missing header row of variable names (found a #rank: line)"
            )
        names = [s.strip() for s in lines[0].split(",")]
        n = len(names)
        seen: dict[str, int] = {}
        for col_no, name in enumerate(names, start=1):
            if name in seen:
                raise CsvFormatError(
                    f"row 1, column {col_no}: duplicate variable name {name!r} "
                    f"(also column {seen[name]})"
                )
            seen[name] = col_no
        body_start = 1
        rank = [0] * n
        if len(lines) > 1 and lines[1].startswith("#rank:"):
            fields = lines[1][len("#rank:"):].split(",")
            if len(fields) != n:
                raise CsvFormatError(
                    f"row 2: #rank line has {len(fields)} entries, expected {n}"
                )
            try:
                rank = [int(f) for f in fields]
            except ValueError as exc:
                raise CsvFormatError(f"row 2: bad rank entry ({exc})") from None
            for col_no, r in enumerate(rank, start=1):
                if r < 0:
                    raise CsvFormatError(f"row 2, column {col_no}: negative rank {r}")
            body_start = 2
        if canonical is not None:
            return cls(values, names, rank)
        # ("0", "1").index reads a bit and raises ValueError on anything else
        rows = _csv_rows(lines[body_start:], body_start + 1, n, ("0", "1").index, "0 or 1")
        if not rows:
            raise CsvFormatError("CSV has a header but no observation rows")
        return cls(np.array(rows, dtype=np.uint8), names, rank)


def _csv_rows(lines, first_row: int, n: int, read, kind: str, skip: int = 0) -> list[list]:
    """The cells of comma-separated ``lines``, numbered from row
    ``first_row``, as read by ``read`` from column ``skip + 1`` on.

    A line of other than ``n`` cells raises a ``CsvFormatError`` naming
    its row, and a cell that ``read`` rejects with ``ValueError`` one
    naming its row and column (``kind`` says what a cell must be).
    """
    rows = []
    for row_no, line in enumerate(lines, start=first_row):
        cells = line.split(",")
        if len(cells) != n:
            raise CsvFormatError(f"row {row_no}: {len(cells)} cells, expected {n}")
        row = []
        for col_no, cell in enumerate(cells[skip:], start=skip + 1):
            cell = cell.strip()
            try:
                row.append(read(cell))
            except ValueError:
                raise CsvFormatError(
                    f"row {row_no}, column {col_no}: invalid cell {cell!r} (must be {kind})"
                ) from None
        rows.append(row)
    return rows


def _csv_head(names, *extra_head: str) -> str:
    """The header row and any ``extra_head`` lines, each LF ended.

    Names that would not read back as written (holding a comma or a line
    break, padded with whitespace, a first name starting with ``#rank:`` or
    with a byte-order mark, which the command line drops, or a lone empty
    name, whose header line is blank) are rejected.
    """
    for col_no, name in enumerate(names, start=1):
        if "," in name or name != name.strip() or len(name.splitlines()) > 1:
            raise ValueError(
                f"column {col_no}: name {name!r} has a comma, a line break or "
                "surrounding whitespace and would not read back from CSV"
            )
    for prefix, fault in (("#rank:", "the header line would read back as a rank line"),
                          ("\ufeff", "the command line would drop it as a byte-order mark")):
        if names and names[0].startswith(prefix):
            raise ValueError(f"column 1: name {names[0]!r} starts with {prefix!r}, so {fault}")
    if list(names) == [""]:
        raise ValueError(
            "column 1: name '' is the only name, so the header line would be "
            "blank and would not read back from CSV"
        )
    return "\n".join([",".join(names), *extra_head]) + "\n"


def _csv_body(values) -> bytes:
    """One LF-ended row of comma-separated ASCII cells per row of the 2-D
    matrix ``values``; a cell is written ``1`` iff it is nonzero."""
    rows, n = values.shape
    # Row layout: cell, comma, cell, ..., cell, LF.  A 0-column row is a
    # bare LF, hence the width of at least 1.
    grid = np.full((rows, max(2 * n, 1)), ord(","), dtype=np.uint8)
    cells = grid[:, : 2 * n : 2]
    cells[...] = values != 0
    cells += ord("0")
    grid[:, -1] = ord("\n")
    return grid.tobytes()


def _canonical_csv(text: str):
    """``(head lines, values)`` of a CSV in exactly the layout ``_csv_head``
    and ``_csv_body`` write, else None.

    The layout: a header line and an optional ``#rank:`` line, each ended
    by LF, then at least one row of n single ``0``/``1`` cells, comma
    separated and LF ended.  Text in this layout splits into the same
    lines, and so parses to the same dataset, as in the per-row parse of
    ``BinaryDataset.from_csv``; any other text goes to that parse.
    """
    head_end = text.find("\n")
    if head_end >= 0 and text.startswith("#rank:", head_end + 1):
        head_end = text.find("\n", head_end + 1)
    if head_end < 0:
        return None
    head = text[:head_end].split("\n")
    if any(ln.splitlines() != [ln] or not ln.strip() for ln in head):
        return None
    body = text[head_end + 1:]
    width = 2 * (head[0].count(",") + 1)
    if not body or len(body) % width or not body.isascii():
        return None
    grid = np.frombuffer(body.encode("ascii"), dtype=np.uint8).reshape(-1, width)
    seps = grid[:, 1::2]
    if not ((seps[:, :-1] == ord(",")).all() and (seps[:, -1] == ord("\n")).all()):
        return None
    values = grid[:, ::2] - np.uint8(ord("0"))
    if not (values <= 1).all():
        return None
    return head, values


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over nodes 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges=()):
        object.__setattr__(self, "n", int(n))
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        object.__setattr__(self, "edges", _arcs(self.n, edges))
        if has_cycle(self.n, self.edges):
            raise ValueError("graph contains a directed cycle")
        parents: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            parents[v].append(u)
        object.__setattr__(self, "_parents", tuple(map(tuple, parents)))  # not a field: eq, hash, repr keep (n, edges)

    def parents(self, v: int) -> tuple[int, ...]:
        """In-neighbors of v in canonical ascending order."""
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} out of range for n={self.n}")
        return self._parents[v]


@dataclass(frozen=True, eq=False)
class Cpt(_Value):
    """P(node = 1 | parent configuration) for each of the 2^|parents| configs.

    Parents are kept in ascending index order.  Configuration ``c`` indexes
    the table by reading the parent value vector as a binary number with the
    first (lowest-index) parent as the least significant bit.
    """

    node: int
    parents: tuple[int, ...]
    table: np.ndarray

    def __init__(self, node: int, parents, table):
        object.__setattr__(self, "node", int(node))
        object.__setattr__(self, "parents", tuple(int(p) for p in parents))
        object.__setattr__(self, "table", _frozen(table))
        if list(self.parents) != sorted(set(self.parents)):
            raise ValueError("parents must be strictly ascending and unique")
        if self.table.ndim != 1 or len(self.table) != 2 ** len(self.parents):
            raise ValueError(
                f"table has {self.table.size} entries, expected {2 ** len(self.parents)}"
            )
        if not ((self.table >= 0.0) & (self.table <= 1.0)).all():  # NaN fails too
            raise ValueError("table entries must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class SbcnModel(_Value):
    """A learned causal network: structure, CPTs, ranks, optional confidences."""

    dag: Dag
    cpts: tuple[Cpt, ...]
    rank: tuple[int, ...]
    confidence: dict[Edge, float] | None = None
    names: tuple[str, ...] = ()

    def __init__(self, dag, cpts, rank, confidence=None, names=None):
        if not isinstance(dag, Dag):
            raise TypeError(f"dag must be a Dag, got {type(dag).__name__}")
        object.__setattr__(self, "dag", dag)
        object.__setattr__(self, "cpts", tuple(sorted(cpts, key=lambda c: c.node)))
        object.__setattr__(self, "rank", tuple(int(r) for r in rank))
        conf = None
        if confidence is not None:
            conf = {(int(u), int(v)): float(c) for (u, v), c in dict(confidence).items()}
        object.__setattr__(self, "confidence", conf)
        if names is None:
            names = tuple(f"v{i}" for i in range(dag.n))
        object.__setattr__(self, "names", tuple(str(s) for s in names))
        problems = _part_problems(self)  # Dag and each Cpt checked themselves
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))

    @property
    def n(self) -> int:
        return self.dag.n

    def cpt(self, v: int) -> Cpt:
        return self.cpts[v]

    def name_to_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def to_json(self) -> str:
        obj = {
            "n": self.n,
            "names": list(self.names),
            "rank": list(self.rank),
            "edges": sorted([u, v] for u, v in self.dag.edges),
            "cpts": [
                {"node": c.node, "parents": list(c.parents), "table": c.table}
                for c in self.cpts
            ],
            "confidence": None
            if self.confidence is None
            else sorted([u, v, float(c)] for (u, v), c in self.confidence.items()),
        }
        return _dumps_indent2(obj) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SbcnModel":
        def build(n, names, edges, rank, cpts, confidence=None):
            cpts = [_json_object(c, "cpts entry", _CPT_KEYS, build=Cpt, at=f"cpts[{i}]")
                    for i, c in enumerate(cpts)]
            conf = None if confidence is None else _by_arc("confidence", confidence)
            return cls(_dag(n, edges, names), cpts, rank, conf, names)
        return _json_object(text, "model", _MODEL_KEYS, ("confidence",), build)


#: The keys of a DAG file, a model file and a model's CPT entries, with their
#: types (``_json_value``).  A DAG file may leave out "names"; a model file
#: holds a DAG file's keys and may leave out "confidence".
_DAG_KEYS = {"n": int, "names": tuple[str, ...], "edges": tuple[tuple[int, int], ...]}
_MODEL_KEYS = _DAG_KEYS | {"rank": tuple[int, ...], "cpts": tuple[dict, ...],
                           "confidence": tuple[tuple[int, int, float], ...] | None}
_CPT_KEYS = {"node": int, "parents": tuple[int, ...], "table": np.ndarray}


def _dag(n, edges, names=None, expect=None) -> Dag:
    """``Dag(n, edges)``, whose file's ``names``, if any, are one per node and equal ``expect`` if given."""
    if names is not None and len(names) != n:
        raise ValueError(f"names has {len(names)} entries, expected {n}")
    for i, (got, want) in enumerate(zip(names or (), expect or ())):
        if got != want:
            raise ValueError(f"names[{i}] is {got!r}, expected {want!r} (variables in another order)")
    return Dag(n, _by_arc("edges", edges))


def _by_arc(key: str, entries) -> dict:
    """``{(u, v): x}`` for a file's ``key`` list of ``[u, v, x]`` entries (x is None for ``[u, v]``);
    an arc listed twice is a ``ValueError``, where a dict or a set would silently keep one."""
    arcs = {}
    for u, v, *x in entries:
        if (u, v) in arcs:
            raise ValueError(f"{key} entries must be distinct, got {[u, v]} twice")
        arcs[u, v] = x[0] if x else None
    return arcs


def _part_problems(model: SbcnModel) -> list[str]:
    """The invariants across a model's parts: a CPT for each node, with the
    structure's parents, one nonnegative rank and one distinct name per
    node, and confidences in [0, 1] on arcs of the structure only."""
    problems: list[str] = []
    n = model.dag.n
    nodes = [c.node for c in model.cpts]
    if sorted(nodes) != list(range(n)):
        problems.append(f"CPT node set {sorted(nodes)} does not cover 0..{n - 1} exactly once")
    else:
        for cpt in model.cpts:
            if cpt.parents != model.dag.parents(cpt.node):
                problems.append(f"node {cpt.node}: CPT parents {list(cpt.parents)} != "
                                f"structure parents {list(model.dag.parents(cpt.node))}")
    if len(model.rank) != n:
        problems.append(f"rank has {len(model.rank)} entries, expected {n}")
    problems += [f"node {i}: rank {r} is negative" for i, r in enumerate(model.rank) if r < 0]
    if len(model.names) != n:
        problems.append(f"names has {len(model.names)} entries, expected {n}")
    first: dict[str, int] = {}
    for i, name in enumerate(model.names):
        if first.setdefault(name, i) != i:
            problems.append(f"duplicate name {name!r} at nodes {first[name]} and {i}")
    if model.confidence is not None:
        stray = set(model.confidence) - set(model.dag.edges)
        for u, v in sorted(stray):
            problems.append(f"confidence recorded for absent edge ({u}, {v})")
        for (u, v), c in sorted(model.confidence.items()):
            if not (0.0 <= c <= 1.0):
                problems.append(f"confidence for edge ({u}, {v}) is {c}, outside [0, 1]")
    return problems


@dataclass(frozen=True)
class ContingencyStats:
    """Arc-level confusion counts plus the derived error rates.

    Two rate conventions are exposed: rates normalized by the inferred /
    true arc sets (``fp_rate_of_inferred``, ``fn_rate_of_true``) and the
    ROC-space rates (``fpr``, ``tpr``) normalized over the full arc universe.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def fp_rate_of_inferred(self) -> float:
        return self.fp / max(1, self.tp + self.fp)

    @property
    def fn_rate_of_true(self) -> float:
        return self.fn / max(1, self.tp + self.fn)

    @property
    def fpr(self) -> float:
        return self.fp / max(1, self.fp + self.tn)

    @property
    def tpr(self) -> float:
        return self.tp / max(1, self.tp + self.fn)


def dag_to_json(dag: Dag, names=None) -> str:
    obj = {
        "n": dag.n,
        "names": list(names) if names is not None else [f"v{i}" for i in range(dag.n)],
        "edges": sorted([u, v] for u, v in dag.edges),
    }
    return _dumps_indent2(obj) + "\n"


def dag_from_json(text: str, names=None) -> Dag:
    """The DAG of ``dag_to_json``'s text; its "names" must equal ``names`` if both are given."""
    return _json_object(text, "DAG", _DAG_KEYS, ("names",), partial(_dag, expect=names))


def scenarios_to_csv(scenarios: np.ndarray, names) -> str:
    """One scenario per row, headed by the variable names."""
    arr = np.asarray(scenarios)
    names = list(names)
    if arr.ndim != 2 or arr.shape[1] != len(names):
        raise ValueError(
            f"scenario matrix shape {arr.shape} does not match {len(names)} names"
        )
    return _csv_head(names) + _csv_body(arr).decode("ascii")


_SCALARS = {str, int, float, bool, type(None)}
_SCALAR_ENCODER = json.JSONEncoder(separators=("\0", ": "))


def _scalar_texts(values) -> list[str]:
    """The JSON text of each plain scalar in the non-empty list or tuple ``values``,
    from one C-encoder call.  JSON escapes a NUL inside a string as
    ``\\u0000``, so a raw NUL in the encoding can only be a separator."""
    return _SCALAR_ENCODER.encode(values)[1:-1].split("\0")


def _scalar_list(texts, level: int) -> str:
    """The indent-2 JSON list of the encoded scalars ``texts`` at ``level``."""
    pad = "  " * level
    return "[\n" + pad + "  " + (",\n  " + pad).join(texts) + "\n" + pad + "]"


def _dumps_indent2(obj, level: int = 0) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, an array read as its
    ``.tolist()``, but faster on lists of scalars.

    ``json.dumps`` skips its C encoder whenever ``indent`` is set.  A list
    of plain scalars, or of non-empty lists of them, is instead encoded in
    one C-encoder call (``_scalar_texts``) and laid out around it.  A 1-D
    float64 array encodes each distinct value once, found by ``np.unique``
    on its ``uint64`` view: the bits keep ``-0.0``, ``0.0`` and NaN payloads
    apart, and a float's text depends on its bits alone.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim != 1 or not obj.size:
            return _dumps_indent2(obj.tolist(), level)
        bits, inverse = np.unique(obj.view(np.uint64), return_inverse=True)
        distinct = np.array(_scalar_texts(bits.view(np.float64).tolist()), dtype=object)
        return _scalar_list(distinct[inverse].tolist(), level)
    pad = "  " * level
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                if not isinstance(key, (int, float, type(None))):
                    raise TypeError(f"JSON keys must be scalars, not {type(key).__name__}")
                key = json.dumps(key)
            items.append(f"{inner}{json.dumps(key)}: {_dumps_indent2(value, level + 1)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= _SCALARS:
            return _scalar_list(_scalar_texts(obj), level)
        if all(isinstance(x, (list, tuple)) and x for x in obj):
            leaves = [v for x in obj for v in x]
            if set(map(type, leaves)) <= _SCALARS:
                texts = iter(_scalar_texts(leaves))
                items = ",\n".join(
                    inner + _scalar_list(islice(texts, len(x)), level + 1) for x in obj
                )
                return "[\n" + items + "\n" + pad + "]"
        items = ",\n".join(inner + _dumps_indent2(x, level + 1) for x in obj)
        return "[\n" + items + "\n" + pad + "]"
    return json.dumps(obj)
