"""One grouped/dual force driver for every tree.

The octree and the BVH run the same CALCULATEFORCE; only the tree they
walk differs (paper Section IV-A/B).  :func:`tree_accelerations` runs
the whole sequence once, for any :class:`~repro.traversal.engine.TreeView`
and either traversal: look the lists up in the structure cache (or
build them: body order, Hilbert-contiguous groups, then the one-sided
group walk or the dual walk), fetch the eval mode's per-epoch
precompute, evaluate, expand bucket leaves exactly, charge the
counters, and un-permute into the caller's body order.  Its
build / evaluate / account core (:func:`build_lists`,
:func:`evaluate_lists`, :func:`account_force`) also serves the
cross-rank evaluation of :mod:`repro.distributed.let`.

This is the only module that knows the list-cache format.  A
structure-cache entry stores each traversal's lists under the key
``("ilists", theta, group_size)`` or
``("dlists", theta, group_size, cc_mac, expansion_order)``; the list
entry holds ``perm`` (the body order, when the driver computed it),
``groups``, ``lists`` (the near-field lists, for both kinds), ``dual``
(dual only) and the eval modes' ``flat`` / ``selfpairs`` precomputes.
The maintainer and the checkpoint code go through :func:`list_keys`,
:func:`key_settings` and :func:`cached_lists_valid`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.physics.gravity import GravityParams
from repro.traversal.dual import (
    DualLists,
    account_dual_force,
    build_dual_lists,
    build_target_tree,
    dual_lists_valid,
    evaluate_dual,
)
from repro.traversal.engine import (
    InteractionLists,
    TreeView,
    account_grouped_force,
    build_interaction_lists,
    evaluate_interaction_lists,
    lists_valid,
)
from repro.traversal.flat import eval_precomputes
from repro.traversal.groups import BodyGroups, group_drift, make_groups
from repro.types import FLOAT


def list_key(traversal: str, theta: float, group_size: int,
             cc_mac: float = 0.0, expansion_order: int = 0) -> tuple:
    """Structure-cache key of one traversal's lists."""
    if traversal == "dual":
        return ("dlists", float(theta), int(group_size), float(cc_mac),
                int(expansion_order))
    return ("ilists", float(theta), int(group_size))


def key_settings(key) -> dict:
    """The traversal settings a list key (or its JSON list form) names."""
    if key[0] == "dlists":
        return dict(traversal="dual", theta=float(key[1]),
                    group_size=int(key[2]), cc_mac=float(key[3]),
                    expansion_order=int(key[4]))
    return dict(traversal="grouped", theta=float(key[1]),
                group_size=int(key[2]))


def list_keys(entry: dict) -> list[tuple]:
    """Keys of the interaction lists cached in a structure-cache entry."""
    return [k for k in entry if isinstance(k, tuple) and k
            and k[0] in ("ilists", "dlists")]


def config_settings(config) -> dict:
    """The driver keywords a :class:`SimulationConfig` selects."""
    return dict(params=config.gravity, traversal=config.traversal,
                theta=config.theta, group_size=config.group_size,
                cc_mac=config.cc_mac, expansion_order=config.expansion_order,
                eval_mode=config.eval_mode, simt_width=config.simt_width)


def near_lists(lists: InteractionLists | DualLists) -> InteractionLists:
    """The per-group near-field lists of a grouped or dual build."""
    return lists.near if isinstance(lists, DualLists) else lists


def build_lists(
    view: TreeView, groups: BodyGroups, theta: float, *,
    traversal: str = "grouped", cc_mac: float = 1.5, mac_margin: float = 0.0,
) -> InteractionLists | DualLists:
    """The one-sided group walk's lists, or the dual walk's."""
    if traversal == "dual":
        return build_dual_lists(view, build_target_tree(groups), theta,
                                cc_mac=cc_mac, mac_margin=mac_margin)
    return build_interaction_lists(view, groups, theta, mac_margin=mac_margin)


def evaluate_lists(
    view: TreeView,
    lists: InteractionLists | DualLists,
    groups: BodyGroups,
    x_sorted: np.ndarray,
    m_sorted: np.ndarray | None,
    *,
    cached: dict,
    G: float = 1.0,
    eps2: float = 0.0,
    eval_mode: str = "auto",
    body_ids: np.ndarray | None = None,
    exact_bodies: Callable[[int], np.ndarray] | None = None,
    expansion_order: int = 2,
    ctx=None,
) -> tuple[np.ndarray, dict, bool]:
    """Evaluate grouped or dual *lists* at the current positions.

    The eval mode's per-epoch precompute is read from (or stored into)
    the list entry *cached*.  Returns the sorted-row accelerations, the
    eval-stats dict, and whether the bucket-leaf bodies of
    *exact_bodies* were already folded into the evaluation (flat mode).
    """
    mode, flat, self_pairs = eval_precomputes(
        eval_mode, cached, view, near_lists(lists), groups,
        body_ids=body_ids, exact_bodies=exact_bodies)
    kw = dict(G=G, eps2=eps2, body_ids=body_ids, mode=mode, flat=flat,
              m_sorted=m_sorted, self_pairs=self_pairs)
    if isinstance(lists, DualLists):
        acc, stats = evaluate_dual(view, lists, groups, x_sorted,
                                   expansion_order=expansion_order, ctx=ctx,
                                   **kw)
    else:
        acc, stats = evaluate_interaction_lists(view, lists, groups,
                                                x_sorted, **kw)
    return acc, stats, flat is not None and flat.includes_exact


def account_force(
    counters,
    lists: InteractionLists | DualLists,
    groups: BodyGroups,
    stats: dict,
    view: TreeView,
    *,
    n_bodies: int,
    simt_width: int,
    built: bool,
    expansion_order: int,
    sort_comparisons: float = 0.0,
    launches: float | None = None,
) -> None:
    """Charge one grouped or dual evaluation (see the ``account_*``
    functions of :mod:`~repro.traversal.engine` / ``dual``)."""
    kw = dict(
        n_bodies=n_bodies, dim=view.com.shape[1], simt_width=simt_width,
        pairs=stats["pairs"], quad_terms=stats["quad_terms"],
        visit_bytes=view.visit_bytes, flops_per_visit=view.flops_per_visit,
        built=built, sort_comparisons=sort_comparisons, launches=launches,
        flat_launches=stats["flat_launches"],
        near_pairs_naive=stats["near_pairs_naive"],
        near_pairs_evaluated=stats["near_pairs_evaluated"],
    )
    if isinstance(lists, DualLists):
        account_dual_force(counters, lists, groups, quad_far=stats["quad_far"],
                           expansion_order=expansion_order, **kw)
    else:
        account_grouped_force(counters, lists, groups, **kw)


def tree_accelerations(
    view: TreeView,
    x: np.ndarray,
    m: np.ndarray,
    params: GravityParams = GravityParams(),
    *,
    order: np.ndarray | Callable[[], np.ndarray],
    exact_bodies: Callable[[int], np.ndarray] | None = None,
    traversal: str = "grouped",
    theta: float = 0.5,
    group_size: int = 32,
    cc_mac: float = 1.5,
    expansion_order: int = 2,
    eval_mode: str = "auto",
    mac_margin: float = 0.0,
    ctx=None,
    simt_width: int = 32,
    cache: dict | None = None,
) -> np.ndarray:
    """Grouped (``traversal="grouped"``) or dual-tree (``"dual"``)
    accelerations of all bodies, in the caller's body order.

    *order* is the body order the groups are cut from: ``order[row]``
    is the caller's index of sorted row ``row``.  An array means *x*
    and *m* are already in that order and the view's point-leaf ids
    are sorted rows (the BVH).  A callable is invoked only when the
    lists are built, and its result is cached with them; *x* and *m*
    are then in the caller's order, which is also the view's id space
    (the octree), and the sort is charged.  *exact_bodies* maps a
    bucket leaf to the ids of its bodies, which are expanded exactly.

    *cache*, when given, is the structure-cache entry dict: the lists
    and their precomputes are stored in it and reused for as long as
    the entry lives.  *mac_margin* > 0 builds the lists with the
    drift-bounded MAC of :mod:`repro.maintenance`.  ``group_size=1``
    reproduces the lockstep kernels bit for bit (monopole order), and
    ``cc_mac=0`` makes the dual traversal bit-identical to the grouped
    one.
    """
    x = np.asarray(x, dtype=FLOAT)
    m = np.asarray(m, dtype=FLOAT)
    n, dim = x.shape
    if n == 0 or view.klass.shape[0] == 0:
        return np.zeros((n, dim), dtype=FLOAT)

    key = list_key(traversal, theta, group_size, cc_mac, expansion_order)
    cached = cache.get(key) if cache is not None else None
    built = cached is None or cached["groups"].n_bodies != n
    if built:
        cached = {"perm": order()} if callable(order) else {}
    perm = cached.get("perm")  # None: x is already in traversal order
    xs, ms = (x, m) if perm is None else (x[perm], m[perm])
    if built:
        groups = make_groups(xs, group_size)
        lists = build_lists(view, groups, theta, traversal=traversal,
                            cc_mac=cc_mac, mac_margin=mac_margin)
        cached["groups"] = groups
        if isinstance(lists, DualLists):
            cached["dual"] = lists
        cached["lists"] = near_lists(lists)
        if cache is not None:
            cache[key] = cached
    groups = cached["groups"]
    lists = cached.get("dual", cached["lists"])

    acc, stats, exact_done = evaluate_lists(
        view, lists, groups, xs, ms, cached=cached, G=params.G,
        eps2=params.eps2, eval_mode=eval_mode, body_ids=perm,
        exact_bodies=exact_bodies, expansion_order=expansion_order, ctx=ctx)

    if exact_bodies is not None and not exact_done:
        # Bucket leaves: the lockstep kernel's scalar math, verbatim.
        near = near_lists(lists)
        go = groups.offsets
        for g, node in zip(near.exact_groups, near.exact_nodes):
            bodies = exact_bodies(int(node))
            for row in range(int(go[g]), int(go[g + 1])):
                i = row if perm is None else int(perm[row])
                for b in bodies:
                    if b == i:
                        continue
                    d = x[b] - x[i]
                    r2b = float(d @ d) + params.eps2
                    if r2b > 0.0:
                        acc[row] += params.G * m[b] * r2b**-1.5 * d
                        stats["pairs"] += 1

    if ctx is not None:
        sort = built and perm is not None
        account_force(
            ctx.counters, lists, groups, stats, view, n_bodies=n,
            simt_width=simt_width, built=built,
            expansion_order=expansion_order,
            sort_comparisons=float(n) * float(np.log2(max(n, 2)))
            if sort else 0.0)

    out = np.empty_like(acc)
    out[order if perm is None else perm] = acc
    return out


def cached_lists_valid(
    cached: dict,
    disp: np.ndarray,
    node_drift: np.ndarray,
    *,
    size_factor: float,
    order: np.ndarray | None = None,
) -> tuple[bool, int]:
    """Drift-bounded gate of one cached list entry.

    *disp* is each body's displacement since the lists' snapshot, in
    the caller's order; *order* is the tree's body order for entries
    that do not carry their own (the BVH's).  Returns whether the lists
    may be reused and how many list entries the gate checked.
    """
    perm = cached.get("perm", order)
    grp = group_drift(cached["groups"].offsets, disp[perm])
    near = cached["lists"]
    dual = cached.get("dual")
    with np.errstate(invalid="ignore"):
        if dual is None:
            return (lists_valid(near, grp, node_drift,
                                size_factor=size_factor), near.n_entries)
        return (dual_lists_valid(dual, grp, node_drift,
                                 size_factor=size_factor),
                near.n_entries + dual.n_far)
