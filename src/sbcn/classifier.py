"""Scenario risk labeling and decision-tree extraction of risky paths.

Scenarios are scored by how many of the portfolio's stocks move up; the
bottom quantile is labeled risky.  A binary classification tree over the
factor variables then turns the labels into explicit factor configurations
to clamp for stress sampling: ``risky_paths``, the root-to-leaf paths of
its risky leaves.  The tree labels no new scenario.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Union

import numpy as np

from .model import SbcnModel, _distinct_rows, _dumps_indent2, _json_object, _key_rows, _row_keys
from .sampling import _blocks, clamp
from .seeds import derive_seed

RISKY = "risky"
PROFITABLE = "profitable"


def up_counts(scenarios: np.ndarray, stocks) -> np.ndarray:
    """The number of ``stocks`` (column indices, each once) that are up,
    as int64, per row of a 2-D scenario matrix that covers them all."""
    scenarios = np.asarray(scenarios)
    if scenarios.ndim != 2:
        raise ValueError(f"up_counts takes a 2-D scenario matrix, got {scenarios.ndim}-D")
    stocks = [int(i) for i in stocks]
    seen = set()
    for i in stocks:
        if i < 0:
            raise ValueError(f"stock index {i} is negative")
        if i >= scenarios.shape[1]:
            raise ValueError(f"scenarios have {scenarios.shape[1]} columns, too few for portfolio stock {i}")
        if i in seen:
            raise ValueError(f"stock index {i} is repeated")
        seen.add(i)
    return scenarios[:, stocks].sum(axis=1, dtype=np.int64)


def label_measure(
    measure: np.ndarray, risky_fraction: float = 0.10
) -> tuple[np.ndarray, float | None]:
    """Risky labels and the cut for precomputed up measures.

    The ceil(risky_fraction * N) scenarios with the smallest up measure are
    risky, and so is every scenario tied with the cut value, the largest
    measure among the risky ones.  Returns ``(labels, cut)``; the cut is
    None when no scenario is risky.
    """
    _check_fraction(risky_fraction)
    measure = np.asarray(measure)
    if measure.ndim != 1:
        raise ValueError(f"label_measure takes a 1-D measure, got shape {measure.shape}")
    if np.isnan(measure).any():
        raise ValueError(f"the measure of scenario {np.flatnonzero(np.isnan(measure))[0]} is NaN")
    count = measure.shape[0]
    cut = _cut(risky_fraction, count, lambda k: np.partition(measure, k - 1)[k - 1])
    return (np.zeros(count, dtype=bool) if cut is None else measure <= cut), cut


def _check_fraction(risky_fraction: float) -> None:
    """Refuse a risky fraction outside [0, 1], NaN included, before any labeling."""
    if not 0.0 <= risky_fraction <= 1.0:
        raise ValueError("risky_fraction must lie in [0, 1]")


def _cut(risky_fraction: float, count: int, kth) -> float | None:
    """The risky cut of ``count`` up measures: the k-th smallest, read by
    ``kth(k)``, for k = ceil(risky_fraction * count); None when k is 0."""
    if count < 1:
        raise ValueError("need at least one scenario to label")
    k = math.ceil(risky_fraction * count)
    return None if k == 0 else float(kth(k))


def label_scenarios(scenarios: np.ndarray, stocks, risky_fraction: float = 0.10) -> np.ndarray:
    """Boolean labels, True = risky, for the bottom quantile by the up count
    of ``stocks`` (see :func:`up_counts` and :func:`label_measure`)."""
    return label_measure(up_counts(scenarios, stocks), risky_fraction)[0]


@dataclass(frozen=True)
class Leaf:
    label: str
    counts: tuple[int, int]  # (profitable, risky) training rows

    def __post_init__(self):
        if self.label not in (RISKY, PROFITABLE):
            raise ValueError(f"label must be {RISKY!r} or {PROFITABLE!r}, got {self.label!r}")
        if len(self.counts) != 2 or min(self.counts) < 0:
            raise ValueError(f"counts must be two nonnegative integers, got {list(self.counts)}")


@dataclass(frozen=True)
class Split:
    feature: int
    left: Union["Split", Leaf]  # feature value 0
    right: Union["Split", Leaf]  # feature value 1

    def __post_init__(self):
        if self.feature < 0:
            raise ValueError(f"feature must be >= 0, got {self.feature}")


@dataclass(frozen=True)
class DecisionTree:
    """Binary classification tree over factor columns.

    Feature indices refer to columns of the training feature matrix, and
    name ``feature_names`` entries when those are given; no feature repeats
    along any root-to-leaf path.
    """

    root: Union[Split, Leaf]
    feature_names: tuple[str, ...] = ()

    def __post_init__(self):
        for node, steps in _preorder(self.root):
            if isinstance(node, Split):
                path = "root" + "".join(".right" if value else ".left" for _, value in steps)
                if node.feature in dict(steps):
                    raise ValueError(
                        f"{path}: feature {node.feature} repeats on a root-to-leaf path")
                if self.feature_names and node.feature >= len(self.feature_names):
                    raise ValueError(f"{path}: feature {node.feature} has no name among "
                                     f"{len(self.feature_names)} feature_names")

    def to_json(self) -> str:
        # a node's fields, in order, are its JSON keys
        obj = {"feature_names": list(self.feature_names), "root": asdict(self.root)}
        return _dumps_indent2(obj) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DecisionTree":
        return _json_object(text, "tree", _TREE_KEYS, ("feature_names",),
                            lambda root, feature_names=(): cls(_node_from_obj(root), feature_names))

    def to_text(self) -> str:
        lines: list[str] = []
        for node, steps in _preorder(self.root):
            depth = len(steps)
            if steps:  # the branch of the split above that leads here
                feature, value = steps[-1]
                name = (self.feature_names[feature] if feature < len(self.feature_names)
                        else f"x{feature}")
                lines.append(f"{'  ' * (depth - 1)}{name} = {value}:")
            if isinstance(node, Leaf):
                lines.append(f"{'  ' * depth}-> {node.label} "
                             f"(profitable={node.counts[0]}, risky={node.counts[1]})")
        return "\n".join(lines) + "\n"


def _preorder(root: Union[Split, Leaf]):
    """Each node under ``root``, every split before its left subtree and
    that before its right one, with its steps from the root: one
    (feature, value) pair per split passed, value 0 going left."""
    stack = [(root, ())]
    while stack:
        node, steps = stack.pop()
        yield node, steps
        if isinstance(node, Split):
            stack.append((node.right, (*steps, (node.feature, 1))))
            stack.append((node.left, (*steps, (node.feature, 0))))


#: The keys of a tree file and of its two kinds of node, with their types
#: (``model._json_value``).  A tree file may leave out "feature_names".
_TREE_KEYS = {"feature_names": tuple[str, ...], "root": dict}
_LEAF_KEYS = {"label": str, "counts": tuple[int, int]}
_SPLIT_KEYS = {"feature": int, "left": dict, "right": dict}


def _node_from_obj(obj: dict, path: str = "root"):
    """The node at ``path``, its keys from the root (``root.left.right``),
    which starts the message of each fault in it."""
    def split(feature, left, right):
        return Split(feature, _node_from_obj(left, f"{path}.left"),
                     _node_from_obj(right, f"{path}.right"))
    if "label" in obj:
        return _json_object(obj, "leaf", _LEAF_KEYS, build=Leaf, at=path)
    return _json_object(obj, "split", _SPLIT_KEYS, build=split, at=path)


def _gini(n_profitable: float, n_risky: float) -> float:
    # total > 0: a priced node holds >= 2 * MIN_LEAF rows, each child >= MIN_LEAF
    p = n_risky / (n_profitable + n_risky)
    return 2.0 * p * (1.0 - p)


def _majority_leaf(n_prof: int, n_risky: int) -> Leaf:
    # ties go to the non-stress label
    return Leaf(RISKY if n_risky > n_prof else PROFITABLE, (n_prof, n_risky))


# On pure-noise labels the best empirical split still shows a small positive
# gain (weighted child impurity can only shrink); a sampling-noise floor of
# this many chi-square units keeps such splits out.
NOISE_FLOOR_CHI2 = 7.0
# Neither child of a split may hold fewer than this many training rows.
MIN_LEAF = 5


def learn_tree(features: np.ndarray, labels: np.ndarray) -> DecisionTree:
    """Greedy binary CART on 0/1 factor features (nonzero reads as 1).

    At each node the split with the largest Gini impurity decrease wins
    (ties to the lowest feature index); growth stops on purity, when the
    path has used every feature, when a child would hold fewer than
    MIN_LEAF rows, or when no split clears the gain floor.  The floor
    scales as NOISE_FLOOR_CHI2 * node impurity / node rows, the magnitude a
    best-of-noise split reaches by chance.  Leaves carry the majority label
    with ties resolved to profitable.

    The tree is grown on the distinct (feature pattern, label) rows, each
    weighted by how often it occurs.  Every row count the tree uses is the
    same integer as a count over the full rows, so the splits, the tie-breaks
    and the leaf counts are those of growing on every row.
    """
    features = np.asarray(features)
    labels = np.asarray(labels).astype(bool)
    if features.ndim != 2:
        raise ValueError("features must be a matrix, one row per scenario")
    if labels.shape != (features.shape[0],):
        raise ValueError("one label per feature row required")
    rows, counts = _distinct_rows(np.column_stack([labels, features.astype(bool)]))
    return DecisionTree(_grow(rows[:, 1:], counts * rows[:, 0], counts, frozenset(range(features.shape[1]))))


def _grow(
    features: np.ndarray, risky: np.ndarray, counts: np.ndarray, usable: frozenset[int]
) -> Union[Split, Leaf]:
    """The subtree of ``counts[i]`` rows of pattern ``features[i]``, ``risky[i]`` of them risky."""
    total = int(counts.sum())
    n_risky = int(risky.sum())
    if n_risky in (0, total) or not usable or total < 2 * MIN_LEAF:
        return _majority_leaf(total - n_risky, n_risky)

    parent_impurity = _gini(total - n_risky, n_risky)
    best_gain = NOISE_FLOOR_CHI2 * parent_impurity / total
    best_feature = -1
    # rows, and risky rows, with each feature at 1: int64 sums that read the bool rows in place
    rights = np.einsum("i,ij->j", counts, features)
    risky_rights = np.einsum("i,ij->j", risky, features)
    for f in sorted(usable):
        n_right = int(rights[f])
        n_left = total - n_right
        if n_left < MIN_LEAF or n_right < MIN_LEAF:
            continue
        risky_right = int(risky_rights[f])
        risky_left = n_risky - risky_right
        weighted = (
            n_left * _gini(n_left - risky_left, risky_left)
            + n_right * _gini(n_right - risky_right, risky_right)
        ) / total
        gain = parent_impurity - weighted
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_feature = f
    if best_feature < 0:
        return _majority_leaf(total - n_risky, n_risky)

    mask = features[:, best_feature]
    remaining = usable - {best_feature}
    return Split(
        best_feature,
        _grow(features[~mask], risky[~mask], counts[~mask], remaining),
        _grow(features[mask], risky[mask], counts[mask], remaining),
    )


def tree_from_blocks(blocks, n_factors: int, max_up: int, risky_fraction: float,
                     feature_names=()) -> tuple[DecisionTree, int, float | None]:
    """The tree of :func:`learn_tree` on streamed rows labeled by
    :func:`label_measure`, without keeping the rows.

    ``blocks`` yields, per row block, the (n_factors, rows) 0/1 factor
    columns and the rows' integer up counts, each in [0, max_up]; the up
    count is the label's measure.  Returns ``(tree, risky rows, cut)``,
    the tree's features named by ``feature_names``.
    """
    _check_fraction(risky_fraction)
    patterns, ups, counts = _pattern_up_counts(blocks, n_factors, max_up)
    histogram = np.cumsum(np.bincount(ups, counts))  # float64 sums of integers
    cut = _cut(risky_fraction, int(counts.sum()), lambda k: np.searchsorted(histogram, k))
    risky = np.zeros_like(counts) if cut is None else counts * (ups <= cut)
    root = _grow(patterns, risky, counts, frozenset(range(n_factors)))
    return DecisionTree(root, feature_names), int(risky.sum()), cut


def stress_tree(model: SbcnModel, samples: int, risky_fraction: float,
                seed: int) -> tuple[DecisionTree, int, float | None, list[dict[int, int]]]:
    """Stress testing's first step: the tree of :func:`tree_from_blocks` on
    ``samples`` draws of ``model`` (``seed``'s sub-stream 0) over its
    lowest-rank nodes, up counts over the rest.  Returns ``(tree, risky
    rows, cut, paths)``, each of :func:`risky_paths` as {node: value}."""
    lowest = min(model.rank, default=0)
    factors = [i for i, r in enumerate(model.rank) if r == lowest]
    stocks = [i for i, r in enumerate(model.rank) if r != lowest]
    if not stocks:
        raise ValueError("model has no later-ranked stock variables to build a portfolio on")
    blocks = _blocks(model, samples, derive_seed(seed, 0))
    tree, n_risky, cut = tree_from_blocks(
        ((block[factors], up_counts(block.T, stocks)) for block in blocks),
        len(factors), len(stocks), risky_fraction, tuple(model.names[i] for i in factors))
    paths = [{factors[f]: v for f, v in path.items()} for path in risky_paths(tree)]
    return tree, n_risky, cut, paths


def stress_blocks(model: SbcnModel, assignment: Mapping[int, int], count: int, seed: int):
    """Stress testing's second step: ``stress_sample(model, assignment, count,
    derive_seed(seed, 1))`` as (rows, n) blocks, each overwritten by the next."""
    return (block.T for block in _blocks(clamp(model, assignment), count, derive_seed(seed, 1)))


# The largest (factor pattern, up count) table counted in one dense array.
# The dense count is the gain of the streamed table: with every table
# grouped instead, stress-2e5 ran 10% slower, below the old per-row path
# (BENCH_stress_counts.json, dense_table_against_grouped_only).
_DENSE_CELLS = 1 << 16


def _pattern_up_counts(blocks, n_factors: int, max_up: int):
    """The distinct (factor pattern, up count) pairs of the rows that the
    ``blocks`` of :func:`tree_from_blocks` yield, and how many rows hold
    each.

    Returns ``(patterns, ups, counts)``: a (D, n_factors) bool matrix, the D up
    counts and their D int64 counts.  Each row is keyed by
    ``model._row_keys`` of its factor columns, then its up count's bits.
    While every key is below _DENSE_CELLS, each block is counted into one
    array indexed by key.  Past that, each block's distinct keys and their
    counts are kept, merged whenever the unmerged keys number as many as
    the merged ones: each row is regrouped O(log rows) times.  The keys
    are decoded once, at the end.
    """
    bits = max_up.bit_length()
    powers = 1 << np.arange(bits, dtype=np.min_scalar_type(max_up))  # narrowest type: a faster bit test
    dense = 1 << (n_factors + bits) <= _DENSE_CELLS
    table = np.zeros(1 << (n_factors + bits) if dense else 0, dtype=np.int64)
    held = []  # (distinct keys, counts): the merged ones first
    for columns, up in blocks:
        up_bits = up.astype(powers.dtype) & powers[:, None] != 0
        keys = _row_keys(np.concatenate([columns, up_bits], dtype=bool, casting="unsafe").T)
        if dense:
            table += np.bincount(keys, minlength=len(table))
            continue
        held.append(np.unique(keys, return_counts=True))
        if sum(len(counts) for _, counts in held[1:]) >= len(held[0][1]):
            held = [_merged(held)]
    keys, counts = (np.flatnonzero(table), table[table > 0]) if dense else _merged(held)
    rows = _key_rows(keys, n_factors + bits)
    return rows[:, :n_factors], rows[:, n_factors:] @ powers, counts


def _merged(held):
    """One (distinct keys, counts) pair of several; of none, an empty pair."""
    if not held:
        return np.empty(0, np.uint8), np.empty(0, np.int64)
    if len(held) == 1:
        return held[0]
    keys, inverse = np.unique(np.concatenate([keys for keys, _ in held]), return_inverse=True)
    counts = np.concatenate([counts for _, counts in held])  # float64 sums below 2**53 are exact
    return keys, np.bincount(inverse, counts, len(keys)).astype(np.int64)


def risky_paths(tree: DecisionTree) -> list[dict[int, int]]:
    """One partial factor assignment per risky leaf, in left-to-right order."""
    return [dict(steps) for node, steps in _preorder(tree.root)
            if isinstance(node, Leaf) and node.label == RISKY]
