"""Ancestral sampling and interventional clamping.

Clamping rewrites a node's CPT so it takes a fixed value with probability
one.  It is an intervention, not an observation: descendants respond to
the forced value, ancestors keep their original distributions.
"""

from __future__ import annotations

import numpy as np

from .model import Cpt, SbcnModel, topological_order


# Rows drawn per block.  PCG64 spends one 64-bit output per float64, so the
# blocks' uniforms are exactly the rows of one (count, n) draw, cell for cell;
# a block holds 8 * n * _BLOCK_ROWS bytes of uniforms (1 MB at n = 15).
_BLOCK_ROWS = 8192


def _blocks(model: SbcnModel, count: int, seed: int):
    """Yield the draw of :func:`ancestral_sample` as node-major ``(n, rows)``
    uint8 blocks of at most ``_BLOCK_ROWS`` rows, in row order.

    Cell (v, r) of a block is 1 exactly when uniform (r, v) of the block's
    ``rng.random((rows, n))`` lies below the CPT entry for row r's parent
    configuration.  Each yielded array is overwritten by the next block.
    A negative ``count`` fails at the first block, with no draw.

    A node is fixed, the same in every row, when the entries its fixed
    parents leave reachable are all 0.0 or all 1.0: uniforms lie in [0, 1),
    so none lies below 0.0 and every one lies below 1.0.  A fixed node's row
    is filled; its children read it as a constant, folded into the
    ``offset`` their index starts from (parent j at 1 sets bit j), and nodes
    with the same random parents and offset share that index.  A node whose
    reachable entries are all equal (every parentless and clamped node, and
    every node whose parents are all fixed) is compared with that one entry,
    with no index and no gather.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = model.n
    rng = np.random.default_rng(seed)
    fixed: dict[int, int] = {}  # node -> its value in every row
    nodes = []  # (node, its one entry or else its table, None or else (offset, random parents))
    for cpt in map(model.cpt, topological_order(model.dag)):
        mask = sum(1 << j for j, p in enumerate(cpt.parents) if p in fixed)
        offset = sum(fixed[p] << j for j, p in enumerate(cpt.parents) if p in fixed)
        entries = cpt.table[(np.arange(len(cpt.table)) & mask) == offset]
        if (entries == entries[0]).all():
            if entries[0] in (0.0, 1.0):
                fixed[cpt.node] = int(entries[0])
            nodes.append((cpt.node, entries[0], None))
        else:
            random = tuple((j, p) for j, p in enumerate(cpt.parents) if p not in fixed)
            nodes.append((cpt.node, cpt.table, (offset, random)))
    bits = np.empty((n, min(count, _BLOCK_ROWS)), dtype=np.uint8)
    for start in range(0, count, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, count - start)
        uniforms = rng.random((rows, n))
        block = bits[:, :rows]
        configs: dict[tuple, np.ndarray] = {}  # (offset, random parents) -> index
        for node, table, config in nodes:
            if node in fixed:
                block[node] = fixed[node]
            elif config is None:
                np.less(uniforms[:, node], table, out=block[node])
            else:
                idx = configs.get(config)
                if idx is None:
                    # parent j is bit j, the layout of Cpt.table
                    offset, random = config
                    idx = np.full(rows, offset, dtype=np.intp)
                    for j, p in random:
                        idx |= np.left_shift(block[p], j, dtype=np.intp)
                    configs[config] = idx
                np.less(uniforms[:, node], table[idx], out=block[node])
        yield block


def ancestral_sample(model: SbcnModel, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` scenarios, one per row, as a (count, n) 0/1 matrix.

    Nodes are visited in topological order; each node's value is Bernoulli
    with the CPT probability for its already-sampled parent configuration:
    cell (r, v) is 1 exactly when uniform (r, v) of ``rng.random((count, n))``
    lies below that probability.  The uniforms are drawn _BLOCK_ROWS rows at
    a time, which yields the same values in the same cells, so the result is
    that of one full draw while the work space stays bounded by the block.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty((count, model.n), dtype=np.uint8)
    start = 0
    for block in _blocks(model, count, seed):
        out[start : start + block.shape[1]] = block.T
        start += block.shape[1]
    return out


def clamp(model: SbcnModel, assignments: dict[int, int]) -> SbcnModel:
    """Force each assigned node to its value with probability one.

    Only the assigned nodes' CPTs change (every row becomes 0 or 1); the
    structure and all other tables are untouched.
    """
    for node, value in assignments.items():
        if not 0 <= node < model.n:
            raise ValueError(f"node {node} out of range for n={model.n}")
        if value not in (0, 1):
            raise ValueError(f"clamp value for node {node} must be 0 or 1, got {value!r}")
    if not assignments:
        return model
    cpts = []
    for cpt in model.cpts:
        if cpt.node in assignments:
            forced = float(assignments[cpt.node])
            cpts.append(Cpt(cpt.node, cpt.parents, np.full_like(cpt.table, forced)))
        else:
            cpts.append(cpt)
    return SbcnModel(model.dag, cpts, model.rank, model.confidence, model.names)


def stress_sample(
    model: SbcnModel, risky_assignment: dict[int, int], count: int, seed: int
) -> np.ndarray:
    """Scenarios from the model clamped to a risky configuration."""
    return ancestral_sample(clamp(model, risky_assignment), count, seed)
