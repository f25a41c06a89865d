"""Per-node drift bounds behind the cached-list validity gate.

With fixed masses and fixed leaf membership (both invariants of a
refit), a node's centre of mass is a convex combination of its bodies'
positions, so it moves by at most the maximum displacement of any body
below the node.  The same bound caps how far any body below the node
can be from where the list-building walk assumed it to be.  Tracking
that per-node maximum therefore lets cached grouped interaction lists
be revalidated with the *observed* drift instead of a worst-case
inflation.

Lists are built with an opening-radius margin ``m`` (the MAC accepts a
node only when ``size < theta * (dmin - m)``).  Re-using a list at
drifted positions stays a provable superset of the fresh-list MAC as
long as, for every approx entry ``(g, v)``::

    group_drift[g] + node_drift[v] * (1 + size_factor) <= m

where ``size_factor`` accounts for the node size term: an octree cell's
side never changes (``size_factor = 0``), while a refit BVH node's box
is refreshed and its longest side can grow by up to twice the node's
drift, which against the MAC threshold costs ``2 / theta``
(``size_factor = 2 / theta``).  Displacements are measured against the
positions the list was *built* at — not the epoch start — so a body
that wanders off and returns does not poison the gate.  The gate itself
is :func:`repro.traversal.engine.lists_valid`, next to the lists it
checks, and the per-group maximum
(:func:`repro.traversal.groups.group_drift`) lives with the body
groups, so the traversal package never imports this one.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.heap import BVHLayout
from repro.octree.layout import _BODY_BASE, OctreePool
from repro.types import FLOAT


def displacement(x: np.ndarray, x_ref: np.ndarray) -> np.ndarray:
    """Per-body Euclidean displacement between two snapshots."""
    d = np.asarray(x, dtype=FLOAT) - np.asarray(x_ref, dtype=FLOAT)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def bvh_node_drift(layout: BVHLayout, disp_sorted: np.ndarray) -> np.ndarray:
    """Max body displacement below each BVH node (leaf-order input).

    The same fused bottom-up level sweep as the refit itself — padding
    leaves hold zero, each coarser node takes the pairwise max.
    """
    nn = layout.n_nodes
    nd = np.zeros(nn, dtype=FLOAT)
    n = disp_sorted.shape[0]
    fl = layout.first_leaf
    nd[fl : fl + n] = disp_sorted
    for level in range(layout.n_levels - 2, -1, -1):
        sl = layout.level_slice(level)
        cl = layout.level_slice(level + 1)
        k = sl.stop - sl.start
        nd[sl] = nd[cl].reshape(k, 2).max(axis=1)
    return nd


def octree_node_drift(pool: OctreePool, disp: np.ndarray) -> np.ndarray:
    """Max body displacement below each octree node (body-id input)."""
    nn = pool.n_nodes
    nd = np.zeros(nn, dtype=FLOAT)
    leaves = pool.body_leaves()
    if leaves.size:
        # Scatter each leaf's bucket chain (usually length 1).
        nodes = leaves
        bodies = -pool.child[leaves] - _BODY_BASE
        while bodies.size:
            np.maximum.at(nd, nodes, disp[bodies])
            nxt = pool.next_body[bodies]
            alive = nxt >= 0
            nodes, bodies = nodes[alive], nxt[alive]
    internal = pool.internal_nodes()
    if internal.size:
        depth = pool.depth[:nn]
        lane = np.arange(pool.nchild)
        for d in range(int(depth[internal].max(initial=0)), -1, -1):
            level = internal[depth[internal] == d]
            if level.size:
                ch = pool.child[level][:, None] + lane
                nd[level] = np.maximum(nd[level], nd[ch].max(axis=1))
    return nd
