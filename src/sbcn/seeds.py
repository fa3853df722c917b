"""Deterministic sub-seed derivation.

Every random procedure in this package takes one 64-bit seed and derives
any internal seeds through :func:`derive_seed`, so a single top-level seed
pins the entire computation, including work fanned out to subprocesses.
"""

from __future__ import annotations

import numpy as np


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and an integer path.

    Uses ``numpy.random.SeedSequence`` spawn keys, so distinct paths give
    statistically independent streams and the mapping is stable across
    processes and platforms.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])

