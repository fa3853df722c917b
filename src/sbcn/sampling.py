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
    configuration.  Each yielded array is overwritten by the next block;
    ``count`` must be nonnegative.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    nodes = []  # (cpt, its one entry when all entries are equal, else None)
    for cpt in map(model.cpt, topological_order(model.dag)):
        table = cpt.table
        nodes.append((cpt, table[0] if (table == table[0]).all() else None))
    bits = np.empty((n, min(count, _BLOCK_ROWS)), dtype=np.uint8)
    for start in range(0, count, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, count - start)
        uniforms = rng.random((rows, n))
        block = bits[:, :rows]
        configs: dict[tuple[int, ...], np.ndarray] = {}  # parent set -> index
        for cpt, entry in nodes:
            if entry is not None:  # every parentless and every clamped node
                np.less(uniforms[:, cpt.node], entry, out=block[cpt.node])
                continue
            idx = configs.get(cpt.parents)
            if idx is None:
                # parent j is bit j, the layout of Cpt.table
                idx = np.zeros(rows, dtype=np.intp)
                for j, p in enumerate(cpt.parents):
                    idx |= np.left_shift(block[p], j, dtype=np.intp)
                configs[cpt.parents] = idx
            np.less(uniforms[:, cpt.node], cpt.table[idx], out=block[cpt.node])
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
