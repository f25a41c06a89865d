"""Hilbert-contiguous body groups for the grouped force traversal.

A group is a contiguous run of curve-sorted bodies (the BVH's leaf
order; the octree sorts bodies along the same Hilbert curve first), so
its members occupy a compact region of space and share most of their
tree path.  Each group carries its axis-aligned bounding box, which the
conservative multipole acceptance criterion tests instead of the
individual body positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types import FLOAT, INDEX


@dataclass(frozen=True)
class BodyGroups:
    """A partition of curve-sorted bodies into contiguous groups."""

    #: Body-range offsets: group ``g`` holds sorted rows
    #: ``offsets[g]:offsets[g+1]``.
    offsets: np.ndarray
    #: Group AABBs over the member positions, ``(n_groups, dim)`` each.
    lo: np.ndarray
    hi: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def n_bodies(self) -> int:
        return int(self.offsets[-1])

    @property
    def max_group_size(self) -> int:
        return int(np.diff(self.offsets).max(initial=0))

    def members(self, g: int) -> slice:
        """Sorted-row range of group *g*."""
        return slice(int(self.offsets[g]), int(self.offsets[g + 1]))


def make_groups(x_sorted: np.ndarray, group_size: int) -> BodyGroups:
    """Partition curve-sorted bodies into groups of *group_size*.

    The last group may be smaller.  ``group_size=1`` yields one group
    per body with a degenerate AABB (``lo == hi == x``), which makes the
    conservative group MAC coincide with the per-body criterion.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    x_sorted = np.asarray(x_sorted, dtype=FLOAT)
    n, dim = x_sorted.shape
    if n == 0:
        return BodyGroups(
            np.zeros(1, dtype=INDEX),
            np.empty((0, dim), dtype=FLOAT),
            np.empty((0, dim), dtype=FLOAT),
        )
    starts = np.arange(0, n, group_size, dtype=INDEX)
    offsets = np.append(starts, INDEX(n))
    lo = np.minimum.reduceat(x_sorted, starts, axis=0)
    hi = np.maximum.reduceat(x_sorted, starts, axis=0)
    return BodyGroups(offsets, lo, hi)


def group_drift(offsets: np.ndarray, disp_rows: np.ndarray) -> np.ndarray:
    """Max displacement per group (CSR offsets over group-row order)."""
    starts = offsets[:-1]
    ng = starts.shape[0]
    out = np.zeros(ng, dtype=FLOAT)
    if disp_rows.shape[0] == 0 or ng == 0:
        return out
    nonempty = offsets[1:] > starts
    if nonempty.any():
        # reduceat yields garbage for empty segments; mask them out.
        red = np.maximum.reduceat(
            disp_rows, np.minimum(starts, disp_rows.shape[0] - 1)
        )
        out[nonempty] = red[nonempty]
    return out
