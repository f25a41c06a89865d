"""Pair-coverage oracle for the grouped and dual force driver.

Whatever the tree and the traversal, every (target, source) body pair
must be accounted for exactly once: by a direct point leaf, by one
bucket-leaf expansion, inside one accepted node, or inside one far
cell-cell pair.  A dropped pair loses a force term; a doubled one
counts it twice.  Neither shows reliably in an error-bound test, so
this one reconstructs the coverage from the lists themselves, for the
single-rank driver and for the cross-rank (LET) evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.distributed.let import remote_accelerations
from repro.bvh.force import bvh_driver_args
from repro.octree.build_twostage import build_octree_twostage
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import octree_driver_args
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.traversal.driver import list_keys, near_lists, tree_accelerations
from repro.traversal.dual import DualLists
from repro.traversal.engine import KLASS_EXACT, KLASS_INTERNAL, KLASS_POINT
from repro.traversal.groups import make_groups

N = 160
GROUP_SIZE = 8
THETA = 0.6


def _cloud(coincident: bool):
    rng = np.random.default_rng(11)
    if coincident:
        # Four bodies per site on a coarse grid: bucket leaves.
        x = np.repeat(rng.random((N // 4, 3)), 4, axis=0)
        x += 1e-9 * rng.standard_normal(x.shape)
    else:
        x = rng.standard_normal((N, 3))
    return x, rng.random(N) + 0.1


def _octree_args(builder, coincident):
    x, m = _cloud(coincident)
    pool = builder(x, bits=3 if coincident else None)
    compute_multipoles_vectorized(pool, x, m, None)
    return octree_driver_args(pool, x, m)


TREES = {
    "octree-buckets": lambda: _octree_args(build_octree_vectorized, True),
    "octree-2stage": lambda: _octree_args(build_octree_twostage, False),
    "bvh": lambda: bvh_driver_args(build_bvh(*_cloud(False))),
}


def _bodies_below(view, node, exact_bodies):
    """View-space ids of every body under *node*."""
    out, stack = [], [int(node)]
    while stack:
        v = stack.pop()
        k = view.klass[v]
        if k == KLASS_POINT:
            out.append(int(view.point_body[v]))
        elif k == KLASS_EXACT:
            out.extend(int(b) for b in exact_bodies(v))
        elif k == KLASS_INTERNAL:
            c = int(view.first_child[v])
            stack.extend(range(c, c + view.branch))
    return np.asarray(out, dtype=np.int64)


def _groups_below(tt, node):
    out, stack = [], [int(node)]
    while stack:
        t = stack.pop()
        if t >= tt.first_leaf:
            if t - tt.first_leaf < tt.n_groups:
                out.append(t - tt.first_leaf)
        else:
            stack.extend((2 * t + 1, 2 * t + 2))
    return out


def _cover(lists, groups, view, exact, row_id, body_id):
    """(target, source) coverage counts of one grouped or dual build.

    *row_id* maps sorted target rows, *body_id* the view's point-leaf
    ids, to the ids the count matrix is indexed by.
    """
    near = near_lists(lists)
    cover = np.zeros((len(row_id), len(body_id)), dtype=np.int64)
    seen = {"near": 0, "exact": 0, "far": 0}

    def add(gs, sources, how):
        t = row_id[np.concatenate([np.arange(groups.offsets[g],
                                             groups.offsets[g + 1])
                                   for g in gs])]
        cover[np.ix_(t, sources)] += 1
        seen[how] += 1

    for g in range(groups.n_groups):
        for v in near.nodes[near.group_entries(g)]:
            add([g], body_id[_bodies_below(view, v, exact)], "near")
    for g, v in zip(near.exact_groups, near.exact_nodes):
        add([g], np.asarray(exact(int(v))), "exact")
    if isinstance(lists, DualLists):
        for t, s in zip(lists.far_t, lists.far_s):
            add(_groups_below(lists.tt, t),
                body_id[_bodies_below(view, s, exact)], "far")
    return cover, seen


def _check(cover, seen, *, buckets, traversal):
    assert seen["near"] > 0
    if buckets:
        assert seen["exact"] > 0  # the bucket path is exercised
    if traversal == "dual":
        assert seen["far"] > 0    # the cell-cell path is exercised
    dropped = np.argwhere(cover == 0)
    doubled = np.argwhere(cover > 1)
    assert dropped.size == 0, f"pairs never evaluated: {dropped[:5]}"
    assert doubled.size == 0, f"pairs evaluated twice: {doubled[:5]}"


@pytest.mark.parametrize("traversal", ["grouped", "dual"])
@pytest.mark.parametrize("tree", sorted(TREES))
def test_every_pair_covered_exactly_once(tree, traversal):
    args = TREES[tree]()
    cache: dict = {}
    tree_accelerations(**args, traversal=traversal, theta=THETA,
                       group_size=GROUP_SIZE, cc_mac=1.5, cache=cache)
    (key,) = list_keys(cache)
    entry = cache[key]
    order = args["order"]
    presorted = not callable(order)
    # Caller ids of sorted rows, and of the view's point-leaf ids.
    row_id = order if presorted else entry["perm"]
    body_id = order if presorted else np.arange(len(row_id))
    cover, seen = _cover(entry.get("dual", entry["lists"]), entry["groups"],
                         args["view"], args.get("exact_bodies"),
                         row_id, body_id)
    _check(cover, seen, buckets=tree == "octree-buckets",
           traversal=traversal)


@pytest.mark.parametrize("traversal", ["grouped", "dual"])
@pytest.mark.parametrize("tree", ["octree-buckets", "bvh"])
def test_remote_pairs_covered_exactly_once(tree, traversal):
    """Cross-rank evaluation: one source tree against another rank's
    groups, LET bucket expansion included."""
    args = TREES[tree]()
    rng = np.random.default_rng(5)
    # Hilbert-sorted destination bodies overlapping the source cloud.
    x_dst = build_bvh(0.5 + 0.5 * rng.standard_normal((96, 3)),
                      np.ones(96)).x_sorted
    groups = make_groups(x_dst, GROUP_SIZE)
    order = args["order"]
    x_src = args["x"] if callable(order) else args["x"][np.argsort(order)]
    m_src = args["m"] if callable(order) else args["m"][np.argsort(order)]
    exact = args.get("exact_bodies")
    _, lists, _ = remote_accelerations(
        args["view"], groups, x_dst, THETA, traversal=traversal,
        cc_mac=1.5, exact_bodies=exact, x_src=x_src, m_src=m_src)
    body_id = np.arange(len(x_src)) if callable(order) else order
    cover, seen = _cover(lists, groups, args["view"], exact,
                         np.arange(len(x_dst)), body_id)
    _check(cover, seen, buckets=tree == "octree-buckets",
           traversal=traversal)
