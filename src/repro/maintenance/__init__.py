"""Incremental tree maintenance (refit-over-rebuild).

The paper rebuilds the octree/BVH from scratch every step; with the
grouped traversal's force evaluation ~5x cheaper, the Hilbert-encode +
sort + build pipeline dominates the amortized per-step cost.  Following
the incremental-maintenance line of Cornerstone (Keller et al.) and
Bonsai, this package refits the existing tree on steps where the
Hilbert ordering is still (nearly) valid:

* :mod:`keycache` — per-step space-filling-curve key cache, deduping
  the encode between the BVH sort and the distributed partitioner;
* :mod:`disorder` — vectorized measures of how far the body sequence
  has fallen out of curve order;
* :mod:`drift` — per-node maximum body displacement (the per-group
  maximum and the drift-bounded validity gate for cached interaction
  lists live in :mod:`repro.traversal`, next to the lists);
* :mod:`policy` — the rebuild-vs-refit decision (fixed threshold or
  cost-model-driven ``"auto"``);
* :mod:`maintainer` — the per-simulation orchestrator wired into the
  force algorithms via ``SimulationConfig.tree_update``.
"""

from repro.maintenance.disorder import (
    DisorderStats,
    coarsen_keys,
    key_disorder,
    sense_bits,
)
from repro.maintenance.drift import (
    bvh_node_drift,
    displacement,
    octree_node_drift,
)
from repro.maintenance.keycache import KeyCache
from repro.maintenance.maintainer import TreeMaintainer
from repro.maintenance.policy import Decision, MaintenancePolicy
from repro.traversal.engine import lists_valid
from repro.traversal.groups import group_drift

__all__ = [
    "DisorderStats",
    "key_disorder",
    "coarsen_keys",
    "sense_bits",
    "KeyCache",
    "displacement",
    "bvh_node_drift",
    "octree_node_drift",
    "group_drift",
    "lists_valid",
    "Decision",
    "MaintenancePolicy",
    "TreeMaintainer",
]
