"""Implicit balanced binary-tree layout for the Hilbert BVH.

The heap-order shape (:class:`BVHLayout`, re-exported from
:mod:`repro.geometry.heap`) is a pure function of the power-of-two leaf
count — the paper's "the number of BVH levels, nodes per level, and
total number of nodes, are predetermined" — so the skip (escape)
indices and DFS ranks are computed once per shape and cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.geometry.heap import BVHLayout, next_pow2  # noqa: F401
from repro.types import INDEX

#: Escape value meaning "traversal finished".
DONE = -1


@lru_cache(maxsize=64)
def bvh_dfs_ranks(n_leaves: int) -> np.ndarray:
    """DFS-preorder rank of every node (cached per tree shape).

    Used by the grouped traversal to order interaction-list entries the
    way the stackless per-node walk emits them.
    """
    layout = BVHLayout(n_leaves)
    rank = np.zeros(layout.n_nodes, dtype=INDEX)
    for level in range(layout.n_levels - 1):
        sl = layout.level_slice(level)
        k = np.arange(sl.start, sl.stop, dtype=INDEX)
        # A subtree rooted one level down holds 2^(n_levels-1-level) - 1
        # nodes; the right child's rank skips the whole left subtree.
        left_size = (1 << (layout.n_levels - 1 - level)) - 1
        rank[2 * k + 1] = rank[k] + 1
        rank[2 * k + 2] = rank[k] + 1 + left_size
    rank.setflags(write=False)
    return rank


@lru_cache(maxsize=64)
def bvh_escape_indices(n_leaves: int) -> np.ndarray:
    """Skip-list escape index per node (cached per tree shape).

    ``escape[k]`` is the next node in DFS order when ``k``'s subtree is
    skipped: the right sibling for a left child, else the parent's
    escape — allowing the multi-level jumps the paper describes.
    """
    layout = BVHLayout(n_leaves)
    n = layout.n_nodes
    escape = np.full(n, DONE, dtype=INDEX)
    for level in range(1, layout.n_levels):
        sl = layout.level_slice(level)
        k = np.arange(sl.start, sl.stop, dtype=INDEX)
        left = (k & 1) == 1  # left children are odd in heap order
        escape[sl] = np.where(left, k + 1, escape[(k - 1) // 2])
    escape.setflags(write=False)
    return escape
