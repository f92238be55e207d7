"""Reference column intervals, merge pyramid and mesh counts, kept
verbatim from before the content oracle built all of a shape's grid
depths from one edge grid and priced all of its exponents in one pass.

``column_intervals`` finds one depth's occupied cells with one
``slab_ranges`` call for one shift, on an edge grid of its own.
``merged_dyadic_cover`` runs the merge pyramid for one exponent: it pads
each level into a fresh zero grid and adds each parent's four children
with ``reshape(gx // 2, 2, gy // 2, 2).sum(axis=(1, 3))``.
``mesh_counts`` loops over the mesh steps in Python floats and integers.
``tests/test_content_reference.py`` holds the library's one-grid column
intervals, its stacked pass and its elementwise mesh counts to them bit
for bit.
"""
from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from beta_targets.polygons import cell_range, slab_ranges

_MESH_STEPS = 64


def column_intervals(lower: np.ndarray, upper: np.ndarray,
                     x0: float, x1: float, k: int):
    """Occupied dyadic cells per grid column at depth k.

    Returns (c0, lo, hi): columns c0..c0+len-1 where column i spans row
    cells lo[i]..hi[i] inclusive.  Cells follow cell_range's floor rule:
    column c counts when the polygon meets the half-open strip
    [c h, (c+1) h), and its rows are the half-open [r h, (r+1) h) that
    the polygon meets over the closed strip [c h, (c+1) h].  So a cell
    whose low edge touches the polygon counts; one whose high edge alone
    touches it does not, unless that edge is a column's right edge
    inside the polygon's x-extent.
    """
    h = 2.0 ** -k
    c0, c1 = cell_range(x0, x1, h, open=False)
    ylo, yhi = slab_ranges(lower, upper, np.zeros(1), np.array([c0]),
                           np.array([c1 - c0 + 1]), h)
    lo, hi = cell_range(ylo, yhi, h, open=False)
    return c0, lo, hi


def merged_dyadic_cover(c0: int, r0: int, occ: np.ndarray, k_top: int,
                        s: float) -> float:
    """Greedy bottom-up merge: cost(cell) = min(side^s, sum of children).

    Works on the occupied-cell mask of depth k_top (cell (c0 + i, r0 + j)
    at occ[i, j]) and its parents down to depth 1; the result is the best
    mixed-scale dyadic cover within that range.
    """
    side = 2.0 ** -k_top
    cost = np.where(occ, side ** s, 0.0)
    col_off, row_off = c0, r0
    for _ in range(k_top):
        # place the level at even absolute indices in an even-shaped grid
        pl, pb = col_off % 2, row_off % 2
        nx, ny = cost.shape
        grid = np.zeros((nx + pl + (nx + pl) % 2, ny + pb + (ny + pb) % 2))
        grid[pl:pl + nx, pb:pb + ny] = cost
        gx, gy = grid.shape
        sums = grid.reshape(gx // 2, 2, gy // 2, 2).sum(axis=(1, 3))
        side *= 2.0
        # a cell is occupied exactly when its children's sum is positive,
        # and an empty one keeps cost min(side^s, 0) = 0
        cost = np.minimum(side ** s, sums)
        col_off = (col_off - pl) // 2
        row_off = (row_off - pb) // 2
        if cost.size == 1:
            break
    return float(cost.sum())


def merged_dyadic_covers(c0: int, r0: int, occ: np.ndarray, k_top: int,
                         exponents) -> List[float]:
    """merged_dyadic_cover at each exponent, in the library's signature."""
    return [merged_dyadic_cover(c0, r0, occ, k_top, s) for s in exponents]


def mesh_counts(w: float, h: float) -> List[Tuple[int, float]]:
    """(squares, side) of the uniform covers anchored at the bounding box
    corner."""
    meshes = []
    for base in (w, h):
        for j in range(1, _MESH_STEPS + 1):
            delta = base / j
            if delta <= 0.0:
                continue
            nx = max(1, math.ceil(w / delta - 1e-12))
            ny = max(1, math.ceil(h / delta - 1e-12))
            meshes.append((nx * ny, delta))
    return meshes
