"""Implicit balanced binary-tree layout in heap order.

With ``P`` (power-of-two) leaves the tree has ``2P - 1`` nodes in heap
order: node ``k`` has children ``2k+1`` and ``2k+2``; level ``l`` spans
indices ``[2^l - 1, 2^(l+1) - 1)``.  Everything about the shape is a
pure function of ``P``.  Two trees use it: the Hilbert BVH
(:mod:`repro.bvh.layout` re-exports it) and the dual walk's target tree
over body groups (:mod:`repro.traversal.dual`).  It lives outside the
``repro.bvh`` package so the traversal engine can import it without
loading the BVH force kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def next_pow2(n: int) -> int:
    """Smallest power of two >= max(n, 1)."""
    p = 1
    while p < max(n, 1):
        p <<= 1
    return p


@dataclass(frozen=True)
class BVHLayout:
    """Shape of a balanced BVH with ``n_leaves`` (power-of-two) leaves."""

    n_leaves: int

    def __post_init__(self) -> None:
        p = self.n_leaves
        if p < 1 or (p & (p - 1)) != 0:
            raise ValueError("n_leaves must be a positive power of two")

    @property
    def n_levels(self) -> int:
        return int(self.n_leaves).bit_length()

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    @property
    def first_leaf(self) -> int:
        return self.n_leaves - 1

    def level_slice(self, level: int) -> slice:
        lo = (1 << level) - 1
        return slice(lo, 2 * lo + 1)

    def level_of(self, nodes: np.ndarray) -> np.ndarray:
        """Level of each node index (0 = root)."""
        return np.int64(np.log2(np.asarray(nodes) + 1))

    def is_leaf(self, nodes) -> np.ndarray:
        return np.asarray(nodes) >= self.first_leaf

    def first_child(self, nodes) -> np.ndarray:
        return 2 * np.asarray(nodes) + 1

    def parent(self, nodes) -> np.ndarray:
        return (np.asarray(nodes) - 1) // 2
