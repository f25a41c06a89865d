"""Force algorithms behind a common interface.

Each algorithm implements the per-timestep force pipeline with the
paper's step structure, charging work to the context's step counters:

==============  =====================================================
step name       paper step
==============  =====================================================
bounding_box    CALCULATEBOUNDINGBOX (Alg. 3 transform_reduce)
sort            HILBERTSORT (BVH only, Alg. 7)
build_tree      BUILDTREE / BUILDTREEACCUMULATEMASS
multipoles      CALCULATEMULTIPOLES (octree only; fused for BVH)
force           CALCULATEFORCE
update_position UPDATEPOSITION (charged by the Simulation)
==============  =====================================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.config import SimulationConfig
from repro.errors import ForwardProgressError
from repro.geometry.aabb import AABB, compute_bounding_box
from repro.physics.bodies import BodySystem
from repro.stdpar.algorithms import transform_reduce
from repro.stdpar.context import ExecutionContext
from repro.stdpar.policy import par, par_unseq
from repro.stdpar.progress import ForwardProgress
from repro.traversal.driver import config_settings, tree_accelerations


class ForceAlgorithm(ABC):
    """One of the paper's four evaluated algorithms."""

    #: Registry name (matches the figures' legend).
    name: str = ""
    #: Asymptotic complexity class, for reporting.
    complexity: str = ""
    #: Strongest forward-progress guarantee any phase requires.
    required_progress: ForwardProgress = ForwardProgress.WEAKLY_PARALLEL
    #: Does any phase use atomics (and therefore the ``par`` policy)?
    uses_atomics: bool = False

    def supports(self, device, config: SimulationConfig) -> bool:
        """Can this algorithm run on *device* at all? (Paper Fig. 6:
        Octree only runs on CPUs and NVIDIA GPUs.)"""
        if device.progress.satisfies(self.required_progress):
            return True
        return self.allows_unsafe_relax and config.unsafe_relax_policy

    #: Whether the paper's par→par_unseq UB workaround applies.
    allows_unsafe_relax: bool = False

    @abstractmethod
    def accelerations(
        self,
        system: BodySystem,
        config: SimulationConfig,
        ctx: ExecutionContext,
        cache: dict | None = None,
    ) -> np.ndarray:
        """Accelerations of all bodies at the current positions.

        *cache*, when provided by the caller (one dict per simulation),
        lets tree algorithms keep state across timesteps: the tree
        structure while it is reused (``config.tree_reuse_steps``, or
        across a refit epoch under ``config.tree_update``), and inside
        the structure's entry the grouped/dual interaction lists with
        their per-epoch eval precomputes (format owned by
        :mod:`repro.traversal.driver`), which expire with it.  A
        ``"_shared"`` entry makes the lookup content-addressed across
        sessions.  Stateless algorithms ignore it.
        """

    # ------------------------------------------------------------------
    def _bounding_box(self, system: BodySystem, ctx: ExecutionContext) -> AABB:
        """CALCULATEBOUNDINGBOX as a stdpar transform_reduce (Alg. 3)."""
        with ctx.step("bounding_box"):
            x = system.x
            return transform_reduce(
                par_unseq,
                system.n,
                AABB.empty(system.dim),
                lambda a, b: a.merge(b),
                lambda i: AABB(x[i], x[i]),
                ctx,
                batch=lambda _idx: compute_bounding_box(x),
                flops_per_item=2.0 * system.dim,
                bytes_per_item=8.0 * system.dim,
            )


class AllPairs(ForceAlgorithm):
    """Classical O(N²), ``par_unseq`` over bodies."""

    name = "all-pairs"
    complexity = "O(N^2)"
    required_progress = ForwardProgress.WEAKLY_PARALLEL
    uses_atomics = False

    def accelerations(self, system, config, ctx, cache=None):
        from repro.allpairs.classic import allpairs_accelerations

        with ctx.step("force"):
            return allpairs_accelerations(system.x, system.m, config.gravity, ctx=ctx)


class AllPairsCol(ForceAlgorithm):
    """O(N²) over pairs with atomic accumulation, ``par``."""

    name = "all-pairs-col"
    complexity = "O(N^2)"
    required_progress = ForwardProgress.PARALLEL
    uses_atomics = True
    allows_unsafe_relax = True

    def accelerations(self, system, config, ctx, cache=None):
        from repro.allpairs.collision import allpairs_col_accelerations

        with ctx.step("force"):
            if config.unsafe_relax_policy and not ctx.device.progress.satisfies(
                ForwardProgress.PARALLEL
            ):
                # The paper's AMD/Intel workaround: run the
                # value-equivalent batch under par_unseq semantics.
                from repro.physics.gravity import pairwise_accelerations

                acc = pairwise_accelerations(system.x, system.m, config.gravity)
                self._account_relaxed(system, ctx)
                return acc
            return allpairs_col_accelerations(system.x, system.m, config.gravity, ctx=ctx)

    @staticmethod
    def _account_relaxed(system, ctx):
        from repro.physics.gravity import FLOPS_PER_INTERACTION, SPECIAL_PER_INTERACTION

        n, dim = system.n, system.dim
        n_pairs = n * (n - 1) / 2
        ctx.counters.add(
            flops=n_pairs * (FLOPS_PER_INTERACTION * 0.5 + 2.0 * dim),
            special_flops=n_pairs * SPECIAL_PER_INTERACTION * 0.5,
            atomic_ops=2.0 * dim * n_pairs,
            loop_iterations=n_pairs,
            kernel_launches=1.0,
            bytes_read=(dim + 1) * 8.0 * n,
            bytes_written=dim * 8.0 * n,
        )


class OctreeAlgorithm(ForceAlgorithm):
    """Concurrent Octree Barnes-Hut (paper Section IV-A)."""

    name = "octree"
    complexity = "O(N log N)"
    required_progress = ForwardProgress.PARALLEL  # build + multipoles use par
    uses_atomics = True

    def accelerations(self, system, config, ctx, cache=None):
        from repro.octree.build_concurrent import build_octree_concurrent
        from repro.octree.build_vectorized import build_octree_vectorized
        from repro.octree.force import octree_accelerations, octree_driver_args
        from repro.octree.multipoles import (
            compute_multipoles_concurrent,
            compute_multipoles_vectorized,
        )

        if not ctx.device.progress.satisfies(ForwardProgress.PARALLEL):
            if ctx.on_progress_violation == "raise":
                raise ForwardProgressError(
                    f"Concurrent Octree requires parallel forward progress; "
                    f"device {ctx.device.name!r} provides only "
                    f"{ctx.device.progress.name} (paper Section V-B: hangs)"
                )
        def build(box):
            if ctx.backend == "reference":
                return build_octree_concurrent(
                    system.x, bits=config.bits, box=box, ctx=ctx
                )
            return build_octree_vectorized(
                system.x, bits=config.bits, box=box, ctx=ctx
            )

        maint = None
        if config.tree_update != "rebuild":
            from repro.maintenance.maintainer import get_maintainer

            maint = get_maintainer(cache, config, ctx)
            pool = maint.maintain_octree(system, self, build)
            entry = maint.entry
        else:
            entry = _cache_entry(cache, "octree", config, system, ctx)
            pool = None if entry is None else entry["structure"]
            if pool is None:
                box = self._bounding_box(system, ctx)
                with ctx.step("build_tree"):
                    pool = build(box)
                entry = _store_structure(cache, "octree", pool, config, system)
        if not _moments_ready(entry):
            with ctx.step("multipoles"):
                if ctx.backend == "reference":
                    compute_multipoles_concurrent(pool, system.x, system.m, ctx,
                                                  order=config.multipole_order)
                else:
                    compute_multipoles_vectorized(pool, system.x, system.m, ctx,
                                                  order=config.multipole_order)
            _mark_moments_ready(entry)
        with ctx.step("force"):
            if config.traversal == "lockstep":
                acc = octree_accelerations(
                    pool, system.x, system.m, config.gravity,
                    theta=config.theta, ctx=ctx, simt_width=config.simt_width,
                )
            else:
                acc = tree_accelerations(
                    **octree_driver_args(pool, system.x, system.m),
                    **config_settings(config), ctx=ctx, cache=entry,
                    mac_margin=maint.mac_margin if maint is not None else 0.0,
                )
        if maint is not None:
            maint.finish_step(system.x)
        return acc


class BVHAlgorithm(ForceAlgorithm):
    """Hilbert-sorted balanced BVH (paper Section IV-B)."""

    name = "bvh"
    complexity = "O(N log N)"
    required_progress = ForwardProgress.WEAKLY_PARALLEL  # par_unseq only
    uses_atomics = False

    def accelerations(self, system, config, ctx, cache=None):
        from repro.bvh.build import assemble_bvh, hilbert_sort_permutation
        from repro.bvh.force import bvh_accelerations, bvh_driver_args

        maint = None
        if config.tree_update != "rebuild":
            from repro.maintenance.maintainer import get_maintainer

            maint = get_maintainer(cache, config, ctx)
            bvh = maint.maintain_bvh(system, self)
            entry = maint.entry
        else:
            entry = _cache_entry(cache, "bvh", config, system, ctx)
            if entry is not None:
                perm, box = entry["structure"]
            else:
                box = self._bounding_box(system, ctx)
                # HILBERTSORT and the fused build are separate steps so
                # Fig. 8's component breakdown can be reproduced.
                with ctx.step("sort"):
                    perm = hilbert_sort_permutation(
                        system.x, box, bits=config.bits, ctx=ctx, curve=config.curve
                    )
                entry = _store_structure(cache, "bvh", (perm, box), config, system)
            # Content-addressed shared entries were built at bit-identical
            # (x, m): the assembled tree itself is reusable, not just the
            # sort permutation.
            bvh = (entry.get("bvh")
                   if entry is not None and entry.get("exact") else None)
            if bvh is None:
                with ctx.step("build_tree"):
                    bvh = assemble_bvh(system.x, system.m, perm, box, ctx=ctx,
                                       order=config.multipole_order)
                if entry is not None and entry.get("exact"):
                    entry["bvh"] = bvh
        with ctx.step("force"):
            if config.traversal == "lockstep":
                acc = bvh_accelerations(
                    bvh, config.gravity,
                    theta=config.theta, ctx=ctx, simt_width=config.simt_width,
                )
            else:
                acc = tree_accelerations(
                    **bvh_driver_args(bvh), **config_settings(config),
                    ctx=ctx, cache=entry,
                    mac_margin=maint.mac_margin if maint is not None else 0.0,
                )
        if maint is not None:
            maint.finish_step(system.x)
        return acc


class TwoStageOctreeAlgorithm(ForceAlgorithm):
    """Two-stage octree (Burtscher-Pingali [29] via Thüring et al. [22]).

    The comparator the paper validates against: a single work-group
    serializes the contended top of the tree, then independent subtrees
    build in parallel.  No global locks, so — unlike the Concurrent
    Octree — it runs under weakly parallel forward progress on *any*
    GPU, paying for that portability with the serial first stage.
    """

    name = "octree-2stage"
    complexity = "O(N log N)"
    required_progress = ForwardProgress.WEAKLY_PARALLEL
    uses_atomics = False  # work-group-local synchronization only

    def accelerations(self, system, config, ctx, cache=None):
        from repro.octree.build_twostage import build_octree_twostage
        from repro.octree.force import octree_accelerations, octree_driver_args
        from repro.octree.multipoles import compute_multipoles_vectorized

        def build(box):
            return build_octree_twostage(
                system.x, bits=config.bits, box=box, ctx=ctx
            )

        maint = None
        if config.tree_update != "rebuild":
            from repro.maintenance.maintainer import get_maintainer

            maint = get_maintainer(cache, config, ctx)
            pool = maint.maintain_octree(system, self, build)
            entry = maint.entry
        else:
            entry = _cache_entry(cache, "octree-2stage", config, system, ctx)
            pool = None if entry is None else entry["structure"]
            if pool is None:
                box = self._bounding_box(system, ctx)
                with ctx.step("build_tree"):
                    pool = build(box)
                entry = _store_structure(
                    cache, "octree-2stage", pool, config, system)
        if not _moments_ready(entry):
            with ctx.step("multipoles"):
                compute_multipoles_vectorized(
                    pool, system.x, system.m, ctx,
                    order=config.multipole_order, account="levelwise",
                )
            _mark_moments_ready(entry)
        with ctx.step("force"):
            if config.traversal == "lockstep":
                acc = octree_accelerations(
                    pool, system.x, system.m, config.gravity,
                    theta=config.theta, ctx=ctx, simt_width=config.simt_width,
                )
            else:
                acc = tree_accelerations(
                    **octree_driver_args(pool, system.x, system.m),
                    **config_settings(config), ctx=ctx, cache=entry,
                    mac_margin=maint.mac_margin if maint is not None else 0.0,
                )
        if maint is not None:
            maint.finish_step(system.x)
        return acc


def _moments_ready(entry: dict | None) -> bool:
    """May the multipole pass be skipped for this cache entry?

    Only content-addressed shared entries (``exact``: keyed by the
    digest of the very positions and masses being evaluated) qualify —
    their pool already carries the moments of bit-identical inputs.
    Plain reuse entries age across drifting positions and must refresh
    moments every step.
    """
    return (entry is not None and bool(entry.get("exact"))
            and bool(entry.get("moments_ready")))


def _mark_moments_ready(entry: dict | None) -> None:
    if entry is not None and entry.get("exact"):
        entry["moments_ready"] = True


def _cache_entry(
    cache: dict | None,
    key: str,
    config: SimulationConfig,
    system: BodySystem | None = None,
    ctx: ExecutionContext | None = None,
) -> dict | None:
    """Return the cache entry if its tree structure is still fresh enough.

    The entry dict also carries per-structure derived state (the grouped
    traversal stores its interaction lists in it), which therefore
    expires exactly when the structure does.

    When the cache dict carries a ``"_shared"``
    :class:`~repro.serve.cache.SharedStructureCache`, lookups are
    content-addressed instead: the entry is served only on an exact
    (config fingerprint, position/mass digest) match, so sessions of
    identical tenants share structures and lists without any aging.
    """
    if cache is None:
        return None
    shared = cache.get("_shared")
    if shared is not None and system is not None:
        entry = shared.lookup(key, config, system, ctx=ctx)
        if entry is not None or shared.supports(config):
            return entry
    if config.tree_reuse_steps <= 1:
        return None
    entry = cache.get(key)
    if entry is None or entry["age"] >= config.tree_reuse_steps:
        return None
    entry["age"] += 1
    return entry


def _store_structure(
    cache: dict | None,
    key: str,
    structure,
    config: SimulationConfig | None = None,
    system: BodySystem | None = None,
) -> dict | None:
    if cache is None:
        return None
    shared = cache.get("_shared")
    if shared is not None and system is not None and config is not None:
        entry = shared.store(key, config, system, structure)
        if entry is not None:
            return entry
    entry: dict = {"structure": structure, "age": 1}
    if system is not None and config is not None and config.tree_reuse_steps > 1:
        # Positions the structure was built from: the mid-epoch
        # checkpoint path (repro.core.suspend) replays the epoch build
        # and list construction from these to resume bit-exact.
        entry["x_epoch"] = np.array(system.x, copy=True)
    cache[key] = entry
    return entry


ALGORITHMS: dict[str, ForceAlgorithm] = {
    a.name: a
    for a in (
        AllPairs(),
        AllPairsCol(),
        OctreeAlgorithm(),
        BVHAlgorithm(),
        TwoStageOctreeAlgorithm(),
    )
}


def get_algorithm(name: str) -> ForceAlgorithm:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; have {sorted(ALGORITHMS)}") from None


def list_algorithms() -> list[str]:
    return list(ALGORITHMS)
