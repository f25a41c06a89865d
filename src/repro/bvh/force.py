"""CALCULATEFORCE over the Hilbert BVH (paper Section IV-B, step 3).

Identical in spirit to the octree traversal with two differences the
paper calls out: the balanced skip list allows multi-level jumps (our
precomputed escape indices), and the acceptance criterion uses the
node's *bounding-box* extent — BVH boxes may be elongated and overlap,
so for the same distance threshold more nodes are opened and the
accuracy differs from the octree's.

The kernel uses no atomics, so it runs under ``par_unseq``; the batch
implementation advances all (Hilbert-sorted) bodies in lockstep, which
both is fast in numpy and measures warp divergence the way a SIMT GPU
would experience it — low, because curve-adjacent bodies traverse
nearly identical paths.
"""

from __future__ import annotations

import numpy as np

from repro.bvh.build import BVH
from repro.bvh.layout import DONE, bvh_dfs_ranks
from repro.machine.counters import Counters
from repro.physics.gravity import (
    FLOPS_PER_INTERACTION,
    GravityParams,
    SPECIAL_PER_INTERACTION,
)
from repro.physics.multipole import (
    QUAD_EXTRA_BYTES,
    QUAD_EXTRA_FLOPS,
    quadrupole_accel,
)
from repro.traversal.driver import tree_accelerations
from repro.traversal.engine import (
    KLASS_INTERNAL,
    KLASS_POINT,
    KLASS_SKIP,
    TreeView,
)
# build_flat_lists stays bound here: hostbench's probe test looks it up
# on this module.
from repro.traversal.flat import build_flat_lists  # noqa: F401
from repro.types import FLOAT, INDEX

#: Bytes per node visit: bbox (2 * dim * 8) + com (dim * 8) + mass (8);
#: escape indices are implicit (computed from the node index).
def _visit_bytes(dim: int) -> float:
    return (3.0 * dim + 1.0) * 8.0


def bvh_accelerations(
    bvh: BVH,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
    ctx=None,
    simt_width: int = 32,
) -> np.ndarray:
    """Accelerations for all bodies, returned in the *caller's* body
    order (the Hilbert permutation is internal to the BVH)."""
    n = bvh.n_bodies
    dim = bvh.x_sorted.shape[1]
    if n == 0:
        return np.zeros((0, dim), dtype=FLOAT)

    x = bvh.x_sorted
    escape = bvh.escape
    first_leaf = bvh.layout.first_leaf
    com = bvh.com
    mass = bvh.mass
    count = bvh.count
    quad = bvh.quad
    size2 = bvh.node_size2()
    theta2 = theta * theta
    eps2 = params.eps2
    G = params.G

    acc = np.zeros((n, dim), dtype=FLOAT)
    ptr = np.zeros(n, dtype=INDEX)
    steps = np.zeros(n, dtype=np.int64)
    interactions = 0
    quad_terms = 0

    act = np.arange(n, dtype=INDEX)
    while act.size:
        nd = ptr[act]
        leaf = nd >= first_leaf
        empty = count[nd] == 0
        dvec = com[nd] - x[act]
        r2 = np.einsum("ij,ij->i", dvec, dvec)
        accept = ~leaf & ~empty & (size2[nd] < theta2 * r2)
        contrib = (accept | leaf) & ~empty

        if contrib.any():
            r2c = r2[contrib] + eps2
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(r2c > 0.0, G * mass[nd][contrib] * r2c ** -1.5, 0.0)
            acc[act[contrib]] += w[:, None] * dvec[contrib]
            interactions += int(np.count_nonzero(w))
            if quad is not None:
                q_rows = accept[contrib]
                if q_rows.any():
                    sel = np.nonzero(contrib)[0][q_rows]
                    acc[act[sel]] += quadrupole_accel(
                        dvec[sel], r2[sel] + eps2, quad[nd[sel]], G
                    )
                    quad_terms += int(q_rows.sum())

        skip = accept | leaf | empty
        ptr[act] = np.where(skip, escape[nd], 2 * nd + 1)
        steps[act] += 1
        act = act[ptr[act] != DONE]

    if ctx is not None:
        _account_force(steps, interactions, dim, simt_width, ctx.counters,
                       quad_terms=quad_terms)

    out = np.empty_like(acc)
    out[bvh.perm] = acc
    return out


def bvh_accelerations_scalar(
    bvh: BVH,
    params: GravityParams = GravityParams(),
    *,
    theta: float = 0.5,
) -> np.ndarray:
    """Per-body reference walker (bit-compatible with the batch path)."""
    n = bvh.n_bodies
    dim = bvh.x_sorted.shape[1]
    acc = np.zeros((n, dim), dtype=FLOAT)
    if n == 0:
        return acc
    escape = bvh.escape
    first_leaf = bvh.layout.first_leaf
    size2 = bvh.node_size2()
    theta2 = theta * theta
    eps2 = params.eps2
    for i in range(n):
        node = 0
        while node != DONE:
            leaf = node >= first_leaf
            empty_node = bvh.count[node] == 0
            dvec = bvh.com[node] - bvh.x_sorted[i]
            r2 = float(dvec @ dvec)
            accept = (not leaf) and (not empty_node) and size2[node] < theta2 * r2
            if (accept or leaf) and not empty_node:
                r2f = r2 + eps2
                if r2f > 0.0 and bvh.mass[node] > 0.0:
                    acc[i] += params.G * bvh.mass[node] * r2f**-1.5 * dvec
                    if accept and bvh.quad is not None:
                        acc[i] += quadrupole_accel(
                            dvec[None], np.array([r2f]),
                            bvh.quad[node][None], params.G,
                        )[0]
            node = int(escape[node]) if (accept or leaf or empty_node) else 2 * node + 1
    out = np.empty_like(acc)
    out[bvh.perm] = acc
    return out


def _account_force(
    steps: np.ndarray,
    interactions: int,
    dim: int,
    simt_width: int,
    counters: Counters,
    quad_terms: int = 0,
) -> None:
    total = float(steps.sum())
    n = steps.shape[0]
    pad = (-n) % simt_width
    warps = np.pad(steps, (0, pad)).reshape(-1, simt_width)
    warp_total = float(warps.max(axis=1).sum() * simt_width)
    vb = _visit_bytes(dim)
    counters.add(
        flops=(interactions * FLOPS_PER_INTERACTION + total * 10.0
               + quad_terms * QUAD_EXTRA_FLOPS),
        special_flops=interactions * SPECIAL_PER_INTERACTION,
        bytes_irregular=total * vb + quad_terms * QUAD_EXTRA_BYTES,
        bytes_read=total * vb + n * dim * 8.0 + quad_terms * QUAD_EXTRA_BYTES,
        bytes_written=n * dim * 8.0,
        traversal_steps=total,
        traversal_steps_max=float(steps.max(initial=0)),
        warp_traversal_steps=warp_total,
        mac_evals=total,  # every visit tests the MAC once
        loop_iterations=float(n),
        kernel_launches=1.0,
    )


# ----------------------------------------------------------------------
# Group-coherent traversal (one walk per leaf-aligned group of the
# already-Hilbert-sorted bodies).
# ----------------------------------------------------------------------

def _bvh_tree_view(bvh: BVH) -> TreeView:
    """Flat traversal-engine view of the BVH."""
    layout = bvh.layout
    nn = layout.n_nodes
    first_leaf = layout.first_leaf
    nodes = np.arange(nn, dtype=INDEX)
    leaf = nodes >= first_leaf
    klass = np.full(nn, KLASS_INTERNAL, dtype=np.int8)
    klass[leaf] = KLASS_POINT
    klass[bvh.count == 0] = KLASS_SKIP  # padding leaves / empty subtrees
    point_body = np.full(nn, -1, dtype=INDEX)
    occupied = leaf & (bvh.count > 0)
    point_body[occupied] = nodes[occupied] - first_leaf  # sorted row id
    dim = bvh.x_sorted.shape[1]
    return TreeView(
        com=bvh.com,
        mass=bvh.mass,
        size2=bvh.node_size2(),
        first_child=2 * nodes + 1,
        branch=2,
        klass=klass,
        point_body=point_body,
        dfs_rank=bvh_dfs_ranks(layout.n_leaves),
        quad=bvh.quad,
        visit_bytes=_visit_bytes(dim),
        flops_per_visit=10.0,
    )


#: Public alias: the distributed runtime builds LETs and cross-rank
#: interaction lists against this same view.
bvh_tree_view = _bvh_tree_view


def bvh_driver_args(bvh: BVH) -> dict:
    """The force driver's tree arguments for *bvh*: its view and the
    bodies, already in Hilbert (leaf) order."""
    return dict(view=bvh_tree_view(bvh), x=bvh.x_sorted, m=bvh.m_sorted,
                order=bvh.perm)


def bvh_accelerations_grouped(bvh: BVH,
                              params: GravityParams = GravityParams(),
                              **kw) -> np.ndarray:
    """BVH accelerations via group-coherent traversal.

    The BVH's leaf order *is* the Hilbert order, so contiguous groups of
    sorted bodies are leaf-aligned by construction.  *kw* are the
    keywords of :func:`~repro.traversal.driver.tree_accelerations`.  At
    ``group_size=1`` (monopole order) the result is bit-identical to
    :func:`bvh_accelerations`.
    """
    return tree_accelerations(**bvh_driver_args(bvh), params=params,
                              traversal="grouped", **kw)


def bvh_accelerations_dual(bvh: BVH, params: GravityParams = GravityParams(),
                           **kw) -> np.ndarray:
    """BVH accelerations via the dual-tree cell-cell traversal
    (:mod:`repro.traversal.dual`) over the same leaf-aligned groups.
    ``cc_mac=0`` is bit-identical to the grouped mode.
    """
    return tree_accelerations(**bvh_driver_args(bvh), params=params,
                              traversal="dual", **kw)
