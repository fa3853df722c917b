"""Independent brute-force oracles shared by the test modules.

Everything here recomputes expected results from first principles (direct
counting, exhaustive enumeration, recursive DFS) without reusing the
package's vectorized implementations.
"""

import itertools
import math

import numpy as np

from sbcn.classifier import NOISE_FLOOR_CHI2, PROFITABLE, RISKY, DecisionTree, Leaf, Split
from sbcn.datagen import FactorModelSpec, market_factor_spec, simulate_dataset
from sbcn.learn import (
    EdgeSet,
    LOG_EPS,
    _node_cost,
    _score_weights,
    regularized_score,
)
from sbcn.model import BinaryDataset, Cpt, CsvFormatError, Dag, SbcnModel
from sbcn.sampling import topological_order
from sbcn.seeds import derive_seed


def dfs_cycle_oracle(n, edges):
    """Recursive three-color DFS cycle detector."""
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


def _reaches(children: list[set[int]], src: int, dst: int) -> bool:
    """True iff dst is reachable from src along directed edges.  The climb
    reads descendant bitsets instead; this DFS is their reference."""
    if src == dst:
        return True
    stack = [src]
    seen = {src}
    while stack:
        node = stack.pop()
        for nxt in children[node]:
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def prima_facie_oracle(ds):
    """Direct-count reimplementation of the candidate-arc rule."""
    rows = [[int(c) for c in r] for r in ds.values]
    m, n = len(rows), ds.n

    def marginal(i):
        return sum(r[i] for r in rows) / m

    def margin(v, u):
        ones = [r[u] for r in rows if r[v] == 1]
        zeros = [r[u] for r in rows if r[v] == 0]
        return sum(ones) / len(ones) - sum(zeros) / len(zeros)

    passing = set()
    for v in range(n):
        for u in range(n):
            if v == u:
                continue
            if not (0 < marginal(v) < 1 and 0 < marginal(u) < 1):
                continue
            if ds.rank[v] > ds.rank[u]:
                continue
            if margin(v, u) > 0:
                passing.add((v, u))
    edges = set()
    for v, u in passing:
        if (u, v) in passing and ds.rank[v] == ds.rank[u]:
            mine, theirs = margin(v, u), margin(u, v)
            if mine < theirs or (mine == theirs and v > u):
                continue
        edges.add((v, u))
    return edges


def prima_facie_pair_loop_oracle(dataset):
    """``learn.prima_facie_edges`` as it resolved equal-rank conflicts before
    vectorising: one Python test per passing pair."""
    values = dataset.values.astype(np.float64)
    m, n = values.shape
    ones = values.sum(axis=0)
    nondeg = (ones > 0) & (ones < m)

    # joint counts: n11[v, u] = #rows with v=1 and u=1
    n11 = values.T @ values
    with np.errstate(divide="ignore", invalid="ignore"):
        p_given_1 = n11 / ones[:, None]
        p_given_0 = (ones[None, :] - n11) / (m - ones)[:, None]
    margin = p_given_1 - p_given_0  # margin[v, u]: how much v=1 raises u

    rank = np.asarray(dataset.rank)
    ok = (rank[:, None] <= rank[None, :]) & nondeg[:, None] & nondeg[None, :] & (margin > 0)
    np.fill_diagonal(ok, False)

    edges = set()
    for v, u in zip(*np.nonzero(ok)):
        v, u = int(v), int(u)
        if ok[u, v] and rank[v] == rank[u]:
            # bidirectional conflict: keep the stronger raising direction
            if margin[v, u] < margin[u, v]:
                continue
            if margin[v, u] == margin[u, v] and v > u:
                continue
        edges.add((v, u))
    return EdgeSet(n, edges)

def direct_counts(values, v, parents):
    """Per-configuration (total, ones) counts of column v by a row loop.

    Configuration index: parent j (by position in ``parents``) is bit j.
    """
    total = [0] * 2 ** len(parents)
    ones = [0] * 2 ** len(parents)
    for row in values:
        idx = sum(int(row[p]) << j for j, p in enumerate(parents))
        total[idx] += 1
        ones[idx] += int(row[v])
    return np.array(total, dtype=np.float64), np.array(ones, dtype=np.float64)


def node_counts_oracle(x, v, parents):
    """Per-configuration (total, ones) counts of node ``v``, each row of ``x``
    counted once: the bincount kernel's counting step as it stood before its
    tail was rewritten, kept here so that the score oracles below do not
    change with the kernel they check."""
    w = np.zeros(x.shape[1])
    w[v] = 1.0
    w[list(parents)] = 2.0 ** np.arange(1, len(parents) + 1)
    pairs = np.bincount(
        (x @ w).astype(np.intp), minlength=2 << len(parents)
    ).reshape(-1, 2)
    ones = pairs[:, 1]
    return (pairs[:, 0] + ones).astype(np.float64), ones.astype(np.float64)


def node_ll_oracle(x, v, parents):
    """The bincount-kernel node log-likelihood, a verbatim copy of the
    search's only scoring path before the packed-column kernel."""
    total, ones = node_counts_oracle(x, v, parents)
    mask = total > 0
    t = total[mask]
    c1 = ones[mask]
    p = c1 / t
    return float(
        np.sum(c1 * np.log(np.maximum(p, LOG_EPS)) + (t - c1) * np.log(np.maximum(1.0 - p, LOG_EPS)))
    )


class ScoreTableOracle:
    """A score cache that scores every parent set with ``node_ll_oracle``."""

    def __init__(self, dataset):
        self.x = dataset.values.astype(np.float64, order="F")
        self._cache = {}

    def node_ll(self, v, parents):
        key = (v, parents)
        hit = self._cache.get(key)
        if hit is None:
            hit = node_ll_oracle(self.x, v, parents)
            self._cache[key] = hit
        return hit


def climb_once_oracle(table, candidates, options, seed):
    """Verbatim copy of the hill climb before the repeat skip: every repeat of
    a rejected pick is proposed and scored again, every repeat of a
    cycle-closing pick is checked by DFS again."""
    m, n = table.x.shape
    w, unit = _score_weights(options.criterion, m)
    penalty = options.penalty

    parents = [() for _ in range(n)]
    node_ll = [table.node_ll(v, ()) for v in range(n)]
    children = [set() for _ in range(n)]
    current = set()
    score = w * sum(node_ll) - unit * n * _node_cost(0, penalty)
    if not candidates:
        return frozenset(), score, "optimum", 0

    rng = np.random.default_rng(seed)
    n_cand = len(candidates)
    buffer = rng.integers(0, n_cand, size=4096).tolist()
    buf_pos = 0

    settled = set()
    proposals = 0
    rejects_in_a_row = 0
    max_proposals = 100 * options.max_iterations
    while (
        len(settled) < n_cand
        and rejects_in_a_row < options.max_iterations
        and proposals < max_proposals
    ):
        for _ in range(8 * n_cand):
            if buf_pos == len(buffer):
                buffer = rng.integers(0, n_cand, size=4096).tolist()
                buf_pos = 0
            pick = buffer[buf_pos]
            buf_pos += 1
            u, v = candidates[pick]
            adding = (u, v) not in current
            if not adding or not _reaches(children, v, u):
                break
            settled.add(pick)
        else:
            valid = [
                i
                for i, (a, b) in enumerate(candidates)
                if (a, b) in current or not _reaches(children, b, a)
            ]
            pick = valid[rng.integers(0, len(valid))]
            u, v = candidates[pick]
            adding = (u, v) not in current

        proposals += 1
        if adding:
            new_parents = tuple(sorted(parents[v] + (u,)))
        else:
            new_parents = tuple(p for p in parents[v] if p != u)
        delta = w * (table.node_ll(v, new_parents) - node_ll[v]) - unit * (
            _node_cost(len(new_parents), penalty) - _node_cost(len(parents[v]), penalty)
        )
        if delta > 0:
            parents[v] = new_parents
            node_ll[v] = table.node_ll(v, new_parents)
            if adding:
                current.add((u, v))
                children[u].add(v)
            else:
                current.discard((u, v))
                children[u].discard(v)
            score += delta
            rejects_in_a_row = 0
            settled.clear()
        else:
            rejects_in_a_row += 1
            settled.add(pick)
    if len(settled) == n_cand:
        stop = "optimum"
    elif rejects_in_a_row >= options.max_iterations:
        stop = "streak"
    else:
        stop = "cap"
    return frozenset(current), score, stop, proposals


def rows_csv_oracle(header_lines, values):
    """The per-cell row writer: header lines, then one 0/1 row per matrix row."""
    lines = list(header_lines)
    for row in values:
        lines.append(",".join("1" if c else "0" for c in row))
    return "\n".join(lines) + "\n"


def dataset_csv_oracle(text):
    """The per-cell dataset CSV parser, error messages included."""
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty CSV: expected a header row of variable names")
    names = [s.strip() for s in lines[0].split(",")]
    n = len(names)
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
        body_start = 2
    rows = []
    for ln_no, line in enumerate(lines[body_start:], start=body_start + 1):
        cells = line.split(",")
        if len(cells) != n:
            raise CsvFormatError(
                f"row {ln_no}: {len(cells)} cells, expected {n}"
            )
        row = []
        for col_no, cell in enumerate(cells, start=1):
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise CsvFormatError(
                    f"row {ln_no}, column {col_no}: invalid cell {cell!r} "
                    "(must be 0 or 1)"
                )
            row.append(int(cell))
        rows.append(row)
    if not rows:
        raise CsvFormatError("CSV has a header but no observation rows")
    return BinaryDataset(np.array(rows, dtype=np.uint8), names, rank)


def ancestral_sample_oracle(model, count, seed):
    """Verbatim copy of the sampler before row blocks: one (count, n) uniform
    draw, then one int64 matmul per node over the whole matrix."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = model.n
    rng = np.random.default_rng(seed)
    uniforms = rng.random((count, n))
    out = np.zeros((count, n), dtype=np.uint8)
    for v in topological_order(model.dag):
        cpt = model.cpt(v)
        if cpt.parents:
            idx = out[:, list(cpt.parents)].astype(np.int64) @ (
                1 << np.arange(len(cpt.parents), dtype=np.int64)
            )
            p = cpt.table[idx]
        else:
            p = cpt.table[0]
        out[:, v] = uniforms[:, v] < p
    return out


def _gini_oracle(n_profitable, n_risky):
    total = n_profitable + n_risky
    if total == 0:
        return 0.0
    p = n_risky / total
    return 2.0 * p * (1.0 - p)


def _majority_leaf_oracle(labels):
    n_risky = int(labels.sum())
    n_prof = int(labels.shape[0] - n_risky)
    # ties go to the non-stress label
    return Leaf(RISKY if n_risky > n_prof else PROFITABLE, (n_prof, n_risky))


def learn_tree_oracle(features, labels):
    """Verbatim copy of the tree learner before it grew on distinct rows: every
    node masks and counts the full rows that reach it."""
    features = np.asarray(features)
    labels = np.asarray(labels).astype(bool)
    if features.ndim != 2:
        raise ValueError("features must be a matrix, one row per scenario")
    if labels.shape != (features.shape[0],):
        raise ValueError("one label per feature row required")
    root = _grow_oracle(features.astype(bool), labels, frozenset(range(features.shape[1])))
    return DecisionTree(root)


def _grow_oracle(features, labels, usable):
    min_leaf = 5  # rows on each side of a split, at least
    total = labels.shape[0]
    n_risky = int(labels.sum())
    if n_risky in (0, total) or not usable or total < 2 * min_leaf:
        return _majority_leaf_oracle(labels)

    parent_impurity = _gini_oracle(total - n_risky, n_risky)
    best_gain = NOISE_FLOOR_CHI2 * parent_impurity / total
    best_feature = -1
    for f in sorted(usable):
        right_mask = features[:, f]
        n_right = int(right_mask.sum())
        n_left = total - n_right
        if n_left < min_leaf or n_right < min_leaf:
            continue
        risky_right = int(labels[right_mask].sum())
        risky_left = n_risky - risky_right
        weighted = (
            n_left * _gini_oracle(n_left - risky_left, risky_left)
            + n_right * _gini_oracle(n_right - risky_right, risky_right)
        ) / total
        gain = parent_impurity - weighted
        if gain > best_gain + 1e-15:
            best_gain = gain
            best_feature = f
    if best_feature < 0:
        return _majority_leaf_oracle(labels)

    mask = features[:, best_feature]
    remaining = usable - {best_feature}
    return Split(
        best_feature,
        _grow_oracle(features[~mask], labels[~mask], remaining),
        _grow_oracle(features[mask], labels[mask], remaining),
    )


def all_dags(n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            if not dfs_cycle_oracle(n, edges):
                yield Dag(n, edges)


def exhaustive_best_score(ds, allowed, criterion="bic"):
    """Score of the best DAG over all subsets of the allowed arcs."""
    pairs = sorted(allowed.edges)
    best = -math.inf
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            if dfs_cycle_oracle(ds.n, edges):
                continue
            best = max(best, regularized_score(ds, Dag(ds.n, edges), criterion))
    return best


def tiny_linear_dataset(rng, m_lo=64, m_hi=257):
    """Small binarized linear factor instance (2 to 4 variables)."""
    nf = int(rng.integers(1, 3))
    ns = int(rng.integers(1, 4 - nf + 1))
    betas = rng.uniform(0.5, 1.5, size=(ns, nf)) * (rng.random((ns, nf)) < 0.7)
    spec = FactorModelSpec(
        nf, ns, Dag(nf), np.zeros((nf, nf)), np.ones(nf), betas, np.ones(ns), lag=1
    )
    m = int(rng.integers(m_lo, m_hi))
    return simulate_dataset(spec, m, int(rng.integers(0, 2**31)))


def famafrench(m, seed=11):
    """The data ``sbcn simulate --mode famafrench --seed <seed> --samples m`` writes."""
    spec = market_factor_spec(derive_seed(seed, 0))
    return simulate_dataset(spec, m, derive_seed(seed, 1))


def random_cpt_model(rng, n, edge_prob=0.4, names=None):
    """Random DAG (edges oriented low index to high) with uniform CPT entries."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ]
    dag = Dag(n, edges)
    cpts = []
    for v in range(n):
        parents = dag.parents(v)
        cpts.append(Cpt(v, parents, rng.uniform(0.1, 0.9, size=2 ** len(parents))))
    return SbcnModel(dag, cpts, [0] * n, names=names)


def exact_joint(model):
    """Probability of every assignment by explicit enumeration."""
    n = model.n
    probs = np.zeros(2**n)
    for bits in range(2**n):
        assignment = [(bits >> v) & 1 for v in range(n)]
        p = 1.0
        for v in range(n):
            cpt = model.cpt(v)
            idx = sum(assignment[q] << k for k, q in enumerate(cpt.parents))
            p1 = cpt.table[idx]
            p *= p1 if assignment[v] else 1.0 - p1
        probs[bits] = p
    return probs


def empirical_joint(scenarios):
    """Empirical distribution of sampled assignments as bitmask frequencies."""
    n = scenarios.shape[1]
    bits = scenarios.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    return np.bincount(bits, minlength=2**n) / scenarios.shape[0]


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def make_dataset(values, rank=None, names=None):
    values = np.asarray(values, dtype=np.uint8)
    n = values.shape[1]
    return BinaryDataset(
        values,
        names or [f"c{i}" for i in range(n)],
        rank if rank is not None else [0] * n,
    )
