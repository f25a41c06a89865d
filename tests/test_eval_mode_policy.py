"""The ``eval_mode="auto"`` policy and flat-kernel numerical hygiene.

``auto`` resolves in one place (:func:`repro.traversal.engine.
resolve_eval_mode`): tile for one-body groups, whose contract is bit
equality with the lockstep kernels, gemm for every multi-body group,
cached or not.  ``flat`` runs only when asked for.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.bvh.build import build_bvh
from repro.bvh.force import bvh_accelerations_dual, bvh_accelerations_grouped
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.octree.build_vectorized import build_octree_vectorized
from repro.octree.force import (
    octree_accelerations_dual,
    octree_accelerations_grouped,
)
from repro.octree.multipoles import compute_multipoles_vectorized
from repro.physics.accuracy import relative_l2_error
from repro.physics.bodies import BodySystem
from repro.physics.gravity import GravityParams
from repro.traversal import make_groups
from repro.traversal.engine import resolve_eval_mode
from repro.workloads import galaxy_collision, plummer_sphere

KERNELS = {
    ("bvh", "grouped"): bvh_accelerations_grouped,
    ("bvh", "dual"): bvh_accelerations_dual,
    ("octree", "grouped"): octree_accelerations_grouped,
    ("octree", "dual"): octree_accelerations_dual,
}
MATRIX = sorted(KERNELS)


def _forces(tree, traversal, x, m, params, **kw):
    """One force evaluation through the public grouped/dual entry."""
    fn = KERNELS[(tree, traversal)]
    if tree == "bvh":
        return fn(build_bvh(x, m), params, **kw)
    pool = build_octree_vectorized(x)
    compute_multipoles_vectorized(pool, x, m, None, order=1)
    return fn(pool, x, m, params, **kw)


def _list_entries(tree_cache: dict):
    """Every per-list structure-cache entry of a simulation."""
    found = []
    stack = list(tree_cache.values())
    while stack:
        obj = stack.pop()
        if hasattr(obj, "entry"):  # the refit maintainer
            obj = obj.entry
        if isinstance(obj, dict):
            if "lists" in obj:
                found.append(obj)
            stack.extend(obj.values())
    return found


class TestResolver:
    def test_policy(self):
        pts = np.random.default_rng(0).random((64, 3))
        many, one = make_groups(pts, 16), make_groups(pts, 1)
        assert resolve_eval_mode("auto", many) == "gemm"
        assert resolve_eval_mode("auto", one) == "tile"
        for mode in ("tile", "gemm", "flat"):
            assert resolve_eval_mode(mode, many) == mode
        with pytest.raises(ValueError):
            resolve_eval_mode("fast", many)


@pytest.mark.parametrize("tree,traversal", MATRIX)
class TestAutoIsGemm:
    @pytest.mark.parametrize("cached", [False, True])
    def test_multi_body_groups(self, small_cloud, soft_gravity, tree,
                               traversal, cached):
        x, m = small_cloud.x, small_cloud.m
        kw = dict(group_size=16)
        cache_auto = {} if cached else None
        cache_gemm = {} if cached else None
        auto = _forces(tree, traversal, x, m, soft_gravity,
                       eval_mode="auto", cache=cache_auto, **kw)
        gemm = _forces(tree, traversal, x, m, soft_gravity,
                       eval_mode="gemm", cache=cache_gemm, **kw)
        assert np.array_equal(auto, gemm)
        if cached:
            (entry,) = cache_auto.values()
            assert "flat" not in entry and "selfpairs" in entry

    def test_one_body_groups_stay_tile(self, small_cloud, soft_gravity,
                                       tree, traversal):
        x, m = small_cloud.x, small_cloud.m
        auto = _forces(tree, traversal, x, m, soft_gravity,
                       eval_mode="auto", group_size=1)
        tile = _forces(tree, traversal, x, m, soft_gravity,
                       eval_mode="tile", group_size=1)
        assert np.array_equal(auto, tile)


@pytest.mark.parametrize("algorithm", ["bvh", "octree"])
@pytest.mark.parametrize("traversal", ["grouped", "dual"])
@pytest.mark.parametrize("tree_update", ["rebuild", "refit"])
def test_default_simulation_never_expands_flat(algorithm, traversal,
                                               tree_update):
    s = galaxy_collision(400, seed=3)
    sim = Simulation(s, SimulationConfig(
        algorithm=algorithm, traversal=traversal, tree_update=tree_update,
        group_size=16))
    rep = sim.run(2)
    entries = _list_entries(sim._tree_cache)
    assert entries
    assert all("flat" not in e for e in entries)
    assert rep.counters.total().as_dict()["flat_launches"] == 0


@pytest.mark.parametrize("tree,traversal", MATRIX)
def test_flat_zero_mass_unsoftened_is_warning_free(tree, traversal):
    """Zero-mass tracers at eps2 = 0: a body's own zero-mass leaf must
    not form ``inf * 0`` inside the flat kernels."""
    s = plummer_sphere(500, seed=1)
    m = s.m.copy()
    m[::3] = 0.0
    system = BodySystem(s.x, s.v, m)
    params = GravityParams(G=1.0, softening=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        flat = _forces(tree, traversal, system.x, system.m, params,
                       eval_mode="flat", group_size=16)
    tile = _forces(tree, traversal, system.x, system.m, params,
                   eval_mode="tile", group_size=16)
    assert np.all(np.isfinite(flat))
    assert relative_l2_error(flat, tile) < 1e-12
