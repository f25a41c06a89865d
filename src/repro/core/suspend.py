"""Mid-epoch runtime-state capture/restore for checkpoints.

A checkpoint used to hold only ``(x, v, config)`` — enough for a
bit-exact resume when every step rebuilds its tree from scratch,
because the acceleration is then a pure function of the restored state.
It is **not** enough between list-build epochs: under
``tree_reuse_steps > 1`` or ``tree_update="refit"`` the next force
evaluation reads cached structures, interaction lists, drift-budget
counters, and adaptive MAC margins that were derived from *earlier*
positions.  A resume that silently rebuilt them from the restored
positions would change summation order — deterministic, but no longer
the original trajectory.

This module closes that gap.  :func:`capture_runtime_state` extracts
the minimal replayable state; :func:`apply_runtime_state` (invoked by
``Simulation(..., runtime_state=...)`` before the integrator's
construction-time force evaluation) reconstructs the caches by
re-running the *identical* deterministic build code on the captured
positions:

* **plain tree reuse** — the epoch build positions (``x_epoch``) and
  the entry age.  Restore replays one force evaluation at ``x_epoch``
  into a fresh cache, reproducing the structure, the interaction
  lists, and the flat expansions bit for bit, then rewinds the age by
  one so the construction-time evaluation re-ages it to the captured
  value.
* **tree maintenance** (``refit``) — the epoch positions ``x_ref``,
  the previous-step positions (drift sensing), the drift-budget
  scalars and event counts, and per cached list its build snapshot and
  MAC margin.  Restore rebuilds the epoch structure at ``x_ref``,
  refits it to each list's snapshot, and re-runs the list build with
  the captured margin — byte-identical lists, so the validity gate
  resumes exactly where it left off.  (``tree_update="auto"`` restores
  the same state but its cost-learning policy restarts, so the
  rebuild-vs-refit choices — not correctness — may differ.)
* **distributed** (``ranks > 1``, rebuild mode) — the domain
  decomposition (order/offsets/key splits), the rebalance cadence
  phase, and the work-feedback weights.  The runtime's first
  evaluation after restore replays the captured decomposition verbatim
  without advancing the cadence, so split points and re-bin timing
  match the original run.  Maintained distributed mode resumes
  deterministically but re-derives its epoch (documented divergence
  within the accuracy class).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import compute_bounding_box
from repro.physics.bodies import BodySystem
from repro.stdpar.context import ExecutionContext
from repro.traversal.driver import (
    config_settings,
    key_settings,
    list_key,
    tree_accelerations,
)
from repro.types import FLOAT, INDEX

#: Version tag of the runtime-state payload inside checkpoint headers.
RUNTIME_STATE_VERSION = 1

_REUSE_KEYS = ("octree", "bvh", "octree-2stage")


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def capture_runtime_state(sim) -> dict | None:
    """Replayable cross-step state of *sim*, or None when stateless."""
    state: dict = {"version": RUNTIME_STATE_VERSION}
    cache = sim._tree_cache
    config = sim.config

    if config.tree_reuse_steps > 1:
        for key in _REUSE_KEYS:
            entry = cache.get(key)
            if entry is not None and "x_epoch" in entry:
                state["reuse"] = {
                    "key": key,
                    "age": int(entry["age"]),
                    "x_epoch": np.asarray(entry["x_epoch"], dtype=FLOAT),
                }
                break

    maint = cache.get("_maintainer")
    if maint is not None and maint._x_ref is not None:
        lists = []
        for key, (cached_lists, snap_x) in maint._list_state.items():
            cached = maint.entry.get(key)
            if cached is None or cached.get("lists") is not cached_lists:
                continue  # dropped after its last snapshot: nothing live
            lists.append({
                "key": list(key),
                # A dual entry's near lists carry the walk's margin too.
                "margin": float(cached_lists.mac_margin),
                "x": np.asarray(snap_x, dtype=FLOAT),
            })
        state["maint"] = {
            "kind": "bvh" if maint._bvh is not None else "octree",
            "x_ref": np.asarray(maint._x_ref, dtype=FLOAT),
            "x_prev": (None if maint._x_prev is None
                       else np.asarray(maint._x_prev, dtype=FLOAT)),
            "step_drift": float(maint._step_drift),
            "budget_abs": float(maint._budget_abs),
            "counts": {k: int(v) for k, v in maint.counts.items()},
            "lists": lists,
        }

    dist = sim.distributed
    if (dist is not None and config.tree_update == "rebuild"
            and dist._decomp is not None):
        d = dist._decomp
        state["dist"] = {
            "calls": int(dist.balancer._calls),
            "mode": d.mode,
            "order": np.asarray(d.order),
            "offsets": np.asarray(d.offsets),
            "key_splits": np.asarray(d.key_splits),
            "weights": (None if dist.balancer.weights is None
                        else np.asarray(dist.balancer.weights, dtype=FLOAT)),
            "prev_rank_of": (None if dist._prev_rank_of is None
                             else np.asarray(dist._prev_rank_of)),
        }

    return state if len(state) > 1 else None


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def apply_runtime_state(sim, state: dict) -> None:
    """Reconstruct *sim*'s caches from a captured state.

    Runs inside ``Simulation.__init__`` after the distributed runtime
    exists and **before** the integrator's construction-time force
    evaluation, which therefore sees exactly the caches the suspended
    simulation had.  Rebuild work is charged to a scratch context — the
    resumed run's own accounting starts clean.
    """
    version = state.get("version")
    if version != RUNTIME_STATE_VERSION:
        raise ValueError(
            f"unsupported runtime-state version {version!r} "
            f"(expected {RUNTIME_STATE_VERSION})"
        )
    scratch = ExecutionContext(
        sim.ctx.device, backend=sim.ctx.backend, toolchain=sim.ctx.toolchain,
    )
    if "reuse" in state:
        _restore_reuse_entry(sim, state["reuse"], scratch)
    if "maint" in state:
        _restore_maintainer(sim, state["maint"], scratch)
    if "dist" in state and sim.distributed is not None:
        _restore_distributed(sim.distributed, state["dist"])


def _restore_reuse_entry(sim, reuse: dict, scratch) -> None:
    """Replay the epoch force evaluation at ``x_epoch`` (bit-exact)."""
    from repro.core.algorithms import get_algorithm

    x_epoch = np.asarray(reuse["x_epoch"], dtype=FLOAT)
    epoch_system = BodySystem(
        x_epoch.copy(), np.zeros_like(x_epoch),
        np.array(sim.system.m, copy=True),
    )
    tmp: dict = {}
    get_algorithm(sim.config.algorithm).accelerations(
        epoch_system, sim.config, scratch, cache=tmp
    )
    entry = tmp.get(reuse["key"])
    if entry is None:  # pragma: no cover - defensive
        return
    # The construction-time evaluation of the resumed simulation is one
    # extra pass the original timeline never ran; rewinding the age by
    # one makes it re-age the entry to the captured value, so every
    # subsequent rebuild falls on the original step.
    entry["age"] = max(int(reuse["age"]) - 1, 0)
    sim._tree_cache[reuse["key"]] = entry


def _restore_maintainer(sim, ms: dict, scratch) -> None:
    from repro.maintenance.maintainer import TreeMaintainer

    config = sim.config
    maint = TreeMaintainer(config, sim.ctx)
    x_ref = np.asarray(ms["x_ref"], dtype=FLOAT)
    dim = x_ref.shape[1]
    m = np.array(sim.system.m, copy=True)

    if ms["kind"] == "bvh":
        from repro.bvh.build import (
            assemble_bvh,
            default_sort_bits,
            hilbert_sort_permutation,
        )

        bits = config.bits if config.bits is not None else default_sort_bits(dim)
        box = compute_bounding_box(x_ref)
        perm = hilbert_sort_permutation(
            x_ref, box, bits=bits, ctx=scratch, curve=config.curve
        )
        maint._bvh = assemble_bvh(x_ref, m, perm, box, ctx=scratch,
                                  order=config.multipole_order)
    else:
        from repro.bvh.build import default_sort_bits

        pool = _build_epoch_pool(sim, x_ref, scratch)
        maint._pool = pool
        keys = maint.keycache.keys(x_ref, pool.box,
                                   bits=default_sort_bits(dim),
                                   curve="hilbert", ctx=scratch)
        maint._order = np.argsort(keys, kind="stable")

    maint._x_ref = x_ref.copy()
    maint._x_prev = (None if ms["x_prev"] is None
                     else np.asarray(ms["x_prev"], dtype=FLOAT).copy())
    maint._step_drift = float(ms["step_drift"])
    maint._budget_abs = float(ms["budget_abs"])
    maint.counts.update({k: int(v) for k, v in ms["counts"].items()})
    maint._update_margin()
    for item in ms["lists"]:
        _warm_cached_lists(sim, maint, item, m, scratch)
    sim._tree_cache["_maintainer"] = maint


def _build_epoch_pool(sim, x_ref: np.ndarray, scratch):
    """The octree epoch structure, via the algorithm's own builder."""
    config = sim.config
    box = compute_bounding_box(x_ref)
    if config.algorithm == "octree-2stage":
        from repro.octree.build_twostage import build_octree_twostage

        return build_octree_twostage(x_ref, bits=config.bits, box=box,
                                     ctx=scratch)
    if scratch.backend == "reference":
        from repro.octree.build_concurrent import build_octree_concurrent

        return build_octree_concurrent(x_ref, bits=config.bits, box=box,
                                       ctx=scratch)
    from repro.octree.build_vectorized import build_octree_vectorized

    return build_octree_vectorized(x_ref, bits=config.bits, box=box,
                                   ctx=scratch)


def _warm_cached_lists(sim, maint, item: dict, m: np.ndarray, scratch) -> None:
    """Re-run the list build at the captured snapshot and margin.

    The force driver runs verbatim on the epoch structure refit to the
    snapshot positions, so the lists (and their flat/self-pair
    precomputes) come out of the same code path — and therefore the
    same bytes — as the originals.  The evaluation result is discarded;
    the work is charged to the scratch context.
    """
    settings = key_settings(item["key"])
    snap_x = np.asarray(item["x"], dtype=FLOAT)
    config = sim.config
    if maint._bvh is not None:
        from repro.bvh.build import refit_bvh
        from repro.bvh.force import bvh_driver_args

        tree = bvh_driver_args(refit_bvh(maint._bvh, snap_x, ctx=scratch))
    else:
        from repro.octree.force import octree_driver_args
        from repro.octree.multipoles import compute_multipoles_vectorized

        # The octree's structure is static across an epoch but the
        # grouped MAC reads centres of mass, which the pipeline
        # refreshes at current positions every step — replay that.
        compute_multipoles_vectorized(maint._pool, snap_x, m, scratch,
                                      order=config.multipole_order)
        tree = octree_driver_args(maint._pool, snap_x, m)
    tree_accelerations(**tree, **{**config_settings(config), **settings},
                       ctx=scratch, cache=maint.entry,
                       mac_margin=float(item["margin"]))

    key = list_key(**settings)
    cached = maint.entry.get(key)
    if cached is not None:
        maint._list_state[key] = (cached["lists"], snap_x.copy())


def _restore_distributed(runtime, ds: dict) -> None:
    from repro.distributed.partition import DomainDecomposition

    decomp = DomainDecomposition(
        runtime.n_ranks,
        np.asarray(ds["order"]).astype(INDEX),
        np.asarray(ds["offsets"]).astype(INDEX),
        np.asarray(ds["key_splits"], dtype=np.uint64),
        str(ds["mode"]),
    )
    runtime._decomp = decomp
    runtime._prev_rank_of = (
        None if ds["prev_rank_of"] is None
        else np.asarray(ds["prev_rank_of"]).astype(INDEX)
    )
    runtime.balancer._calls = int(ds["calls"])
    w = ds.get("weights")
    runtime.balancer.weights = (
        None if w is None else np.asarray(w, dtype=FLOAT)
    )
    # The next evaluation (the integrator's construction-time pass,
    # which replays the suspended step's evaluation) must use this
    # decomposition verbatim without advancing the rebalance cadence.
    runtime._resume_replay = True
