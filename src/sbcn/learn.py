"""Structure learning for binary causal networks.

Pipeline: filter candidate arcs by temporal priority and probability
raising (a prima facie causality test), then search the filtered space by
randomized hill climbing on a regularized likelihood score, and finally fit
conditional probability tables.  A baseline learner with the candidate
filter disabled (every ordered pair allowed) is provided for comparison.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import BinaryDataset, Cpt, Dag, SbcnModel, _arcs
from .seeds import derive_seed

LOG_EPS = 1e-12  # floor for log(0) so scores stay finite
_POWERS_OF_TWO = 2.0 ** np.arange(1, 53)  # parent weights; float64 is exact to 2^53
# Codes of at most this many parents stay below 2^24, which float32 holds
# exactly (``_config_codes``).
_FLOAT32_MAX_PARENTS = 23
# The packed-column kernel scores a parent set when the data has at most
# _PACKED_MAX_ROWS rows and the set at most _PACKED_MAX_PARENTS parents;
# above either, the bincount kernel is as fast or faster (README, "Search
# notes").  _PACKED_MAX_ROWS also caps the term rows at about 4 MB.
_PACKED_MAX_ROWS = 1024
_PACKED_MAX_PARENTS = 5

CRITERIA = ("bic", "aic")
PENALTIES = ("arcs", "parameters")


def _check_choice(what: str, value, choices) -> None:
    """Reject a ``value`` not among ``choices``, naming both."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {', '.join(choices)}")


def _check_smoothing(smoothing: float) -> None:
    """Reject a negative, NaN or infinite CPT pseudo-count."""
    if not smoothing >= 0:  # NaN fails this test too
        raise ValueError("smoothing must be >= 0")
    if smoothing == np.inf:
        raise ValueError("smoothing must be finite")


@dataclass(frozen=True)
class LearnOptions:
    """Knobs for the structure search.

    ``criterion`` picks the regularization: "bic" penalizes complexity by
    ln(sample size), "aic" by a constant.  The "aic" score follows the
    convention of weighting the log-likelihood by 1 rather than 2.
    ``penalty`` measures complexity as the arc count ("arcs", the default)
    or as the number of free CPT parameters ("parameters", which charges
    an arc more the larger the child's table it doubles, and so resists
    runaway parent accumulation on small samples).
    ``smoothing`` is the pseudo-count used when fitting the exported CPTs
    (scoring always uses the unsmoothed maximum-likelihood fit).
    """

    criterion: str = "bic"
    max_iterations: int = 10000
    restarts: int = 0
    smoothing: float = 1.0
    seed: int = 0
    penalty: str = "arcs"

    def __post_init__(self):
        _check_choice("criterion", self.criterion, CRITERIA)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        _check_smoothing(self.smoothing)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_choice("penalty", self.penalty, PENALTIES)


@dataclass(frozen=True)
class EdgeSet:
    """Candidate arcs for the search: a superset, not necessarily acyclic."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges=()):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", _arcs(self.n, edges))


def prima_facie_edges(dataset: BinaryDataset) -> EdgeSet:
    """Candidate arcs passing temporal priority and strict probability raising.

    Arc (v, u) survives iff v may precede u (rank(v) <= rank(u)), both
    marginals are nondegenerate, and P(u=1 | v=1) > P(u=1 | v=0) strictly.
    The rank is the only temporal-priority test: give every variable the
    same rank when the data has no time order.  When equal-rank variables
    raise each other, only the direction with the larger raising margin is
    kept (ties go to the lower-index source), so the output never carries
    2-cycles between equally ranked variables.
    """
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

    # bidirectional conflict between equal ranks: keep the stronger raising
    # direction, the lower-index source on a tie
    idx = np.arange(n)
    loses = (margin < margin.T) | ((margin == margin.T) & (idx[:, None] > idx[None, :]))
    ok &= ~(ok.T & (rank[:, None] == rank[None, :]) & loses)
    return EdgeSet(n, zip(*np.nonzero(ok)))


def _grouped_rows(dataset: BinaryDataset) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's distinct rows as column-major float32, the layout and
    width ``_config_codes`` reads fastest, and how often each occurs, as
    float64."""
    rows, counts = dataset.distinct_rows
    return rows.astype(np.float32, order="F"), counts.astype(np.float64)


def _config_codes(x: np.ndarray, v: int, parents: tuple[int, ...]) -> np.ndarray:
    """Each row of ``x`` (from ``_grouped_rows``) coded as 2*config + value
    of v, with parent j weighted 2^(j+1), by one matvec.

    Every code and every partial sum is an integer below 2^(q+1) for q
    parents.  Up to _FLOAT32_MAX_PARENTS parents that is below 2^24, so the
    float32 product is exact in any summation order; above, the weights are
    float64, numpy upcasts the product, and sums of distinct powers of two
    below 2^53 are exact there.
    """
    q = len(parents)
    w = np.zeros(x.shape[1], np.float32 if q <= _FLOAT32_MAX_PARENTS else np.float64)
    w[v] = 1.0
    w[list(parents)] = _POWERS_OF_TWO[:q]
    return (x @ w).astype(np.intp)


def _node_counts(x: np.ndarray, v: int, parents: tuple[int, ...], counts: np.ndarray):
    """Per-configuration float64 (total, ones) counts for node ``v`` given its
    parents; ``ones`` is a strided view of the bincount.

    ``x`` and ``counts`` come from ``_grouped_rows``: each row of ``x`` is
    counted ``counts`` times.  One weighted bincount sums the rows' counts per
    ``_config_codes`` code.  The counts are integers, and float64 sums of
    integers below 2^53 are exact in any order, so the result is the integer
    count over all rows.
    """
    pairs = np.bincount(_config_codes(x, v, parents), weights=counts, minlength=2 << len(parents))
    ones = pairs[1::2]
    return pairs[0::2] + ones, ones


def _terms(c1: np.ndarray, t) -> np.ndarray:
    """The float64 log-likelihood term of each configuration seen in ``t`` rows,
    ``c1`` of them ones.  Both score kernels use it, so they agree bit for bit."""
    p = c1 / t
    return c1 * np.log(np.maximum(p, LOG_EPS)) + (t - c1) * np.log(np.maximum(1.0 - p, LOG_EPS))


def _node_ll(x: np.ndarray, counts: np.ndarray, v: int, parents: tuple[int, ...]) -> float:
    total, ones = _node_counts(x, v, parents, counts)
    seen = (total > 0).nonzero()[0]
    return float(np.add.reduce(_terms(ones[seen], total[seen])))


# _TERM_ROWS[t][c1] is the log-likelihood term of a configuration seen in t
# rows, c1 of them ones, by ``_terms`` as in ``_node_ll``.  It
# holds only values and grows only by rebinding to a longer list, so every
# table in the process (in any thread) can share it.
_TERM_ROWS: list[array] = []


def _term_rows(m: int) -> list[array]:
    """Term rows for every t <= m (m <= _PACKED_MAX_ROWS)."""
    global _TERM_ROWS
    rows = _TERM_ROWS
    if len(rows) <= m:
        rows = list(rows)
        with np.errstate(divide="ignore", invalid="ignore"):  # row 0 is never read
            for t in range(len(rows), m + 1):
                rows.append(array("d", _terms(np.arange(t + 1.0), t).tobytes()))
        _TERM_ROWS = rows
    return rows


class _ScoreTable:
    """Caches per-node log-likelihood terms for one dataset.

    On up to _PACKED_MAX_ROWS rows, parent sets of up to _PACKED_MAX_PARENTS
    parents are scored on the columns packed into Python int bitsets (bit i
    is row i).  Each configuration's rows are the AND of each parent column
    or its complement, built in ``_node_counts``' configuration order
    (parent j is bit j), so its counts are two popcounts.  Its term is read
    from ``_term_rows``, and ``_pairwise_sum`` adds the terms of the nonempty
    configurations in that order as numpy's ``add.reduce`` in ``_node_ll``
    does: every score is bit-equal to ``_node_ll``'s, which scores everything
    else over the dataset's distinct rows and their counts.

    The nonempty configuration bitsets of a parent tuple depend only on the
    tuple, not on the child, so ``_configs`` keeps them per tuple for every
    prefix ``parents[:-1]`` a packed score splits, and for that prefix's own
    prefixes: a key holds fewer than _PACKED_MAX_PARENTS parents and at most
    2^len(key) bitsets, and a first-time score adds at most
    _PACKED_MAX_PARENTS - 1 keys.
    """

    def __init__(self, dataset: BinaryDataset):
        self.m, self.n = dataset.m, dataset.n
        self._dataset = dataset
        self._cache: dict[tuple[int, tuple[int, ...]], float] = {}
        self._rows = None
        if dataset.m <= _PACKED_MAX_ROWS:
            self._rows = _term_rows(dataset.m)
            packed = np.packbits(dataset.values, axis=0, bitorder="little")
            self._ones = [int.from_bytes(col.tobytes(), "little") for col in packed.T]
            self._all = (1 << dataset.m) - 1
            self._zeros = [self._all ^ col for col in self._ones]
            self._configs: dict[tuple[int, ...], list[int]] = {(): [self._all]}

    def node_ll(self, v: int, parents: tuple[int, ...]) -> float:
        key = (v, parents)
        hit = self._cache.get(key)
        if hit is None:
            if self._rows is not None and len(parents) <= _PACKED_MAX_PARENTS:
                hit = self._packed_ll(v, parents)
            else:
                hit = _node_ll(*self._grouped, v, parents)
            self._cache[key] = hit
        return hit

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, np.ndarray]:
        # Built on the first score the packed kernel does not take: in
        # criterion 4's setting (sparse, 250 rows) 199 of 202 tables never
        # need it.
        return _grouped_rows(self._dataset)

    def _split(self, parents: tuple[int, ...]) -> list[int]:
        """The nonempty configuration bitsets of ``parents``, in
        ``_node_counts``' order: each of ``parents[:-1]``'s with the last
        parent off, then each with it on.  Stored, with every prefix built
        on the way."""
        configs = self._configs.get(parents)
        if configs is None:
            prefix = self._split(parents[:-1])
            off, on = self._zeros[parents[-1]], self._ones[parents[-1]]
            # an empty configuration stays empty, and dropping it keeps the
            # order of the rest
            configs = [c for r in prefix if (c := r & off)] + [c for r in prefix if (c := r & on)]
            self._configs[parents] = configs
        return configs

    def _packed_ll(self, v: int, parents: tuple[int, ...]) -> float:
        child, rows = self._ones[v], self._rows
        if not parents:
            return rows[self.m][child.bit_count()]
        configs = self._split(parents[:-1])
        # the last parent's split goes straight into the terms, in
        # ``_split``'s order, and is not stored
        off, on = self._zeros[parents[-1]], self._ones[parents[-1]]
        terms = [rows[c.bit_count()][(c & child).bit_count()] for r in configs if (c := r & off)]
        terms += [rows[c.bit_count()][(c & child).bit_count()] for r in configs if (c := r & on)]
        return _pairwise_sum(terms)


def _pairwise_sum(terms: list[float]) -> float:
    """The float64 sum of ``terms`` in the order of numpy's ``add.reduce``
    (pairwise summation, Higham 1993), so bit-equal to it, without building
    an array.  Below 8 terms: left to right from 0.0.  Up to 128: eight
    strided accumulators, combined pairwise, then the rest one by one.  Above:
    the sums of two halves, split at half the length rounded down to a
    multiple of 8.  Not ``sum``, which compensates float sums from Python
    3.12 on, nor ``math.fsum``: both round differently.
    """
    n = len(terms)
    if n < 8:
        s = 0.0
        for t in terms:
            s += t
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    end = n - n % 8
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    for i in range(8, end, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = terms[i:i + 8]
        r0 += a0; r1 += a1; r2 += a2; r3 += a3; r4 += a4; r5 += a5; r6 += a6; r7 += a7
    # numpy adds the pairwise sum to a start of 0.0, so terms that are all
    # -0.0 sum to 0.0; adding it here first changes no other sum
    s = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for t in terms[end:]:
        s += t
    return s


def log_likelihood(dataset: BinaryDataset, dag: Dag) -> float:
    """Maximum-likelihood log-likelihood of the data under the structure.

    Uses unsmoothed per-configuration frequencies; log(0) terms are floored
    at log(1e-12) so the result is always finite.
    """
    if dag.n != dataset.n:
        raise ValueError(f"structure has {dag.n} nodes, dataset has {dataset.n}")
    table = _ScoreTable(dataset)
    return sum(table.node_ll(v, dag.parents(v)) for v in range(dag.n))


def _score_weights(criterion: str, m: int) -> tuple[float, float]:
    """(log-likelihood weight, per-complexity-unit penalty)."""
    if criterion == "bic":
        return 2.0, float(np.log(m))
    return 1.0, 2.0


def _node_cost(q: int, penalty: str) -> float:
    """Complexity of one node with q parents: q arcs, or 2^q free CPT
    parameters (one Bernoulli entry per parent configuration)."""
    return float(q) if penalty == "arcs" else float(2**q)


def regularized_score(
    dataset: BinaryDataset,
    dag: Dag,
    criterion: str = "bic",
    penalty: str = "arcs",
) -> float:
    """Penalized likelihood score; higher is better.

    bic: 2*LL - k*ln(m).  aic: LL - 2k.  k is the arc count, or the
    free-parameter count with ``penalty="parameters"``.
    """
    _check_choice("criterion", criterion, CRITERIA)
    _check_choice("penalty", penalty, PENALTIES)
    w, unit = _score_weights(criterion, dataset.m)
    k = sum(_node_cost(len(dag.parents(v)), penalty) for v in range(dag.n))
    return w * log_likelihood(dataset, dag) - unit * k


def fit_cpts(dataset: BinaryDataset, dag: Dag, smoothing: float = 1.0) -> SbcnModel:
    """Estimate each node's CPT by (optionally smoothed) relative frequency.

    Entry for a configuration with t rows and c ones is
    (c + smoothing) / (t + 2*smoothing); an unobserved configuration with
    zero smoothing gets 0.5.
    """
    if dag.n != dataset.n:
        raise ValueError(f"structure has {dag.n} nodes, dataset has {dataset.n}")
    _check_smoothing(smoothing)
    x, counts = _grouped_rows(dataset)
    cpts = []
    for v in range(dag.n):
        parents = dag.parents(v)
        total, ones = _node_counts(x, v, parents, counts)
        denom = total + 2.0 * smoothing
        with np.errstate(divide="ignore", invalid="ignore"):
            table = (ones + smoothing) / denom
        table[denom == 0] = 0.5
        cpts.append(Cpt(v, parents, table))
    return SbcnModel(dag, cpts, dataset.rank, names=dataset.names)


def _add_descendants(desc: list[int], u: int, v: int) -> None:
    """Update descendant bitsets in place for a new arc u -> v.

    Bit b of ``desc[a]`` is set iff a path of one or more arcs leads from a
    to b.  The new paths are those through u -> v, so u and every node that
    reaches u gain v and v's descendants.
    """
    reach = desc[v] | 1 << v
    for a, d in enumerate(desc):
        if a == u or d >> u & 1:
            desc[a] = d | reach


def _descendants(parents: list[tuple[int, ...]], desc: list[int]) -> list[int]:
    """Descendant bitsets of the graph with parent tuples ``parents``, given
    ``desc``, those of a graph that holds every arc of it (the graph before
    a removal).

    In a DAG a node has strictly more descendants than any of its children,
    so ascending order of the old counts visits every child before its
    parents, in the old graph and in any subgraph of it: each node's set is
    final when it is visited and pushed to its parents.
    """
    new = [0] * len(desc)
    for c in sorted(range(len(desc)), key=lambda a: desc[a].bit_count()):
        reach = new[c] | 1 << c
        for p in parents[c]:
            new[p] |= reach
    return new


def _climb_once(
    table: _ScoreTable,
    candidates: list[tuple[int, int]],
    options: LearnOptions,
    seed: int,
) -> tuple[frozenset[tuple[int, int]], float, str, int]:
    """One hill climb from the empty graph over distinct candidate arcs.

    Returns the arcs, their score, why the climb stopped ("optimum",
    "streak" or "cap") and how many proposals it made.

    Each node keeps a version, bumped on every accept there, and each pick
    the child's version when it was last rejected: a toggle's score change
    depends only on its child's parents, so while the two match the pick is
    rejected again without being scored.  An addition u -> v closes a cycle
    iff bit u of v's descendant bitset is on.  Neither changes a draw or a
    decision, only the work spent on each.
    """
    m, n = table.m, table.n
    w, unit = _score_weights(options.criterion, m)
    penalty = options.penalty

    # the climb's one score lookup, so a table that overrides node_ll sees
    # every call
    lookup = table.node_ll
    parents: list[tuple[int, ...]] = [() for _ in range(n)]
    node_ll = [lookup(v, ()) for v in range(n)]
    score = w * sum(node_ll) - unit * n * _node_cost(0, penalty)
    if not candidates:
        return frozenset(), score, "optimum", 0

    n_cand = len(candidates)
    cand_u = [u for u, _ in candidates]
    cand_v = [v for _, v in candidates]
    present = [False] * n_cand  # is the pick's arc in the graph
    desc = [0] * n  # descendant bitsets, see _add_descendants
    version = [0] * n  # accepts so far at each node
    stamp = [-1] * n_cand  # the child's version when the pick was last rejected
    # cost[q]: complexity of a node with q parents, up to the most candidate
    # parents any node has
    cost = [_node_cost(q, penalty) for q in range(max(Counter(cand_v).values()) + 1)]

    rng = np.random.default_rng(seed)
    buf_len = 4096
    buffer = rng.integers(0, n_cand, size=buf_len).tolist()
    buf_pos = 0
    redraws = range(8 * n_cand)

    # Candidates rejected or found to close a cycle since the last accept.
    # The graph does not change between accepts, so once this covers every
    # candidate no later proposal could be accepted: the climb sits at a
    # certified local optimum.
    settled: set[int] = set()
    settle = settled.add
    proposals = 0
    rejects_in_a_row = 0
    max_iterations = options.max_iterations
    max_proposals = 100 * max_iterations
    while (
        len(settled) < n_cand
        and rejects_in_a_row < max_iterations
        and proposals < max_proposals
    ):
        # uniform pick over valid neighbors: removals are always valid,
        # additions only when acyclic; cycle-creating picks are redrawn
        for _ in redraws:
            if buf_pos == buf_len:
                buffer = rng.integers(0, n_cand, size=buf_len).tolist()
                buf_pos = 0
            pick = buffer[buf_pos]
            buf_pos += 1
            if present[pick] or not desc[cand_v[pick]] >> cand_u[pick] & 1:
                break
            settle(pick)
        else:
            # never empty: an arc in the graph can always be removed, and
            # on the empty graph no addition closes a cycle
            valid = [
                i for i in range(n_cand) if present[i] or not desc[cand_v[i]] >> cand_u[i] & 1
            ]
            pick = valid[rng.integers(0, len(valid))]

        proposals += 1
        v = cand_v[pick]
        if stamp[pick] != version[v]:
            u = cand_u[pick]
            old = parents[v]  # sorted, so the toggled tuple is two slices
            if present[pick]:
                i = old.index(u)
                new_parents = old[:i] + old[i + 1:]
            else:
                i = bisect_left(old, u)
                new_parents = old[:i] + (u,) + old[i:]
            new_ll = lookup(v, new_parents)
            delta = w * (new_ll - node_ll[v]) - unit * (cost[len(new_parents)] - cost[len(old)])
            if delta > 0:
                version[v] += 1
                parents[v] = new_parents
                node_ll[v] = new_ll
                if present[pick]:
                    desc = _descendants(parents, desc)
                else:
                    _add_descendants(desc, u, v)
                present[pick] = not present[pick]
                score += delta
                rejects_in_a_row = 0
                settled.clear()
                continue
            stamp[pick] = version[v]
        rejects_in_a_row += 1
        settle(pick)
    if len(settled) == n_cand:
        stop = "optimum"
    elif rejects_in_a_row >= max_iterations:
        stop = "streak"
    else:
        stop = "cap"
    return frozenset(e for e, on in zip(candidates, present) if on), score, stop, proposals


def hill_climb(dataset: BinaryDataset, allowed: EdgeSet, options: LearnOptions) -> Dag:
    """Randomized local search over arc additions/removals within ``allowed``.

    Starts from the empty graph; each step proposes one uniformly chosen
    valid neighbor (single arc toggled, staying inside ``allowed`` and
    acyclic) and accepts it only on strict score improvement.  A run stops
    after ``max_iterations`` consecutive rejections or 100x that many total
    proposals, or as soon as every candidate arc has been rejected (or found
    to close a cycle) since the last accept.  That last stop is a certified
    local optimum: no later proposal could be accepted, so stopping there
    returns exactly what the longer rejection streak would.  A rejected pick
    is not scored again until a toggle at its child is accepted (README,
    "Search notes"), so the draws, proposal count, stop and result are those
    of the full search.  With restarts, the best-scoring run wins (ties keep
    the earliest restart).
    """
    if allowed.n != dataset.n:
        raise ValueError(f"candidate set has {allowed.n} nodes, dataset has {dataset.n}")
    table = _ScoreTable(dataset)
    candidates = sorted(allowed.edges)
    best_edges: frozenset[tuple[int, int]] = frozenset()
    best_score = -np.inf
    for restart in range(options.restarts + 1):
        edges, score, _, _ = _climb_once(
            table, candidates, options, derive_seed(options.seed, restart)
        )
        if score > best_score:
            best_edges, best_score = edges, score
    return Dag(dataset.n, best_edges)


def _prima_facie_rule(dataset: BinaryDataset, options: LearnOptions) -> EdgeSet:
    # Calls prima_facie_edges by its module-level name, so a tracer that
    # patches that name sees every call.
    return prima_facie_edges(dataset)


def _all_pairs_rule(dataset: BinaryDataset, options: LearnOptions) -> EdgeSet:
    n = dataset.n
    return EdgeSet(n, [(u, v) for u in range(n) for v in range(n) if u != v])


#: Learner name -> candidate rule, (dataset, options) -> EdgeSet: the arcs
#: the shared search may use.  "bn" is the Bayesian-network baseline.
LEARNERS = {"sbcn": _prima_facie_rule, "bn": _all_pairs_rule}


def _candidate_rule(learner: str):
    _check_choice("learner", learner, LEARNERS)
    return LEARNERS[learner]


def learn_structure(
    dataset: BinaryDataset, options: LearnOptions = LearnOptions(), learner: str = "sbcn"
) -> Dag:
    """The structure the named learner finds: ``hill_climb`` over the arcs
    its candidate rule allows.  No CPTs are fitted."""
    return hill_climb(dataset, _candidate_rule(learner)(dataset, options), options)


def learn_sbcn(dataset: BinaryDataset, options: LearnOptions = LearnOptions()) -> SbcnModel:
    """Full pipeline: prima facie filtering, hill climbing, CPT fitting."""
    return fit_cpts(dataset, learn_structure(dataset, options, "sbcn"), options.smoothing)


def learn_bn(dataset: BinaryDataset, options: LearnOptions = LearnOptions()) -> SbcnModel:
    """Baseline learner: same search and scoring, but every ordered pair is
    a candidate (no temporal or probability-raising constraints)."""
    return fit_cpts(dataset, learn_structure(dataset, options, "bn"), options.smoothing)


def learn_model(
    dataset: BinaryDataset, options: LearnOptions = LearnOptions(), learner: str = "sbcn"
) -> SbcnModel:
    """The named learner's full pipeline, ``learn_<name>``.  It is looked up
    by its module-level name when called, so a tracer patching it sees it."""
    _candidate_rule(learner)  # reject an unknown name before the lookup
    return globals()[f"learn_{learner}"](dataset, options)
