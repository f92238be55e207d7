"""Singular value function, content sandwich, and a 2-D content oracle.

All geometry is in the maximal norm, so a ball of radius r is an
axis-aligned square of side 2r and a cover may use squares of any size
and position.  For a hyperrectangle with sides a_1 >= ... >= a_d the
singular value function

    phi^s = a_1 ... a_m * a_{m+1}^(s-m),   m = floor(s)

pins the Hausdorff content up to constants: a set E inside the rectangle
carrying at least a c fraction of its volume satisfies

    c * 2^-d * phi^s  <=  H^s_inf(E)  <=  (covers built from the sides).

The brute-force oracle certifies both ends for convex polygons in the
unit square.  Its upper bound is a minimum over genuine covers: occupied
dyadic grid cells at several depths, a greedy bottom-up merge of those
cells into larger squares, uniform meshes anchored at the bounding box
corner, and a remainder-tiling of the bounding box by squares.  Its lower
bound runs the mass distribution principle with the normalized area
measure on the polygon.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError, DomainError
from .polygons import (
    box_areas,
    cell_range,
    ensure_ccw,
    envelope_chains,
    envelope_edges,
    polygon_area,
    polygon_bbox,
    slab_ranges,
)

__all__ = [
    "DEFAULT_DEPTHS",
    "SortedRectangle",
    "ContentEstimate",
    "singular_value_function",
    "content_sandwich",
    "mdp_lower_bound",
    "brute_force_content_2d",
]

_MODULE = "hausdorff_content"

# dyadic grid depths scanned by the oracle; the mixed-scale merge walks
# from _MERGE_DEPTH down, deeper grids only contribute plain cell counts
DEFAULT_DEPTHS = tuple(range(4, 13))
_MERGE_DEPTH = 9

# uniform anchored meshes try side/j for j up to this
_MESH_STEPS = 64


@dataclasses.dataclass(frozen=True)
class SortedRectangle:
    """Hyperrectangle remembered only through its sorted side lengths."""

    side_lengths: Tuple[float, ...]

    def __init__(self, side_lengths: Sequence[float]):
        sides = tuple(float(a) for a in side_lengths)
        if len(sides) < 1:
            raise DomainError("need at least one side", module=_MODULE)
        for a in sides:
            if not (a > 0.0) or not math.isfinite(a):
                raise DomainError(f"sides must be positive, got {a}",
                                  module=_MODULE)
        if any(sides[i] < sides[i + 1] for i in range(len(sides) - 1)):
            raise DomainError(f"sides must be non-increasing, got {sides}",
                              module=_MODULE)
        object.__setattr__(self, "side_lengths", sides)

    @classmethod
    def from_lengths(cls, lengths: Sequence[float]) -> "SortedRectangle":
        return cls(tuple(sorted((float(a) for a in lengths), reverse=True)))

    @property
    def dimension(self) -> int:
        return len(self.side_lengths)

    @property
    def volume(self) -> float:
        return float(np.prod(self.side_lengths))


@dataclasses.dataclass(frozen=True)
class ContentEstimate:
    lower: float
    upper: float
    scale_grid: Tuple[float, ...]

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper * (1.0 + 1e-12)):
            raise ConsistencyError(
                f"estimate out of order: lower={self.lower!r} "
                f"upper={self.upper!r}", module=_MODULE)


def singular_value_function(rect: SortedRectangle, s: float) -> float:
    """a_1...a_m * a_{m+1}^(s-m) with m = floor(s), for 0 < s <= d."""
    d = rect.dimension
    s = float(s)
    if not (0.0 < s <= d):
        raise DomainError(f"s must lie in (0, {d}], got {s}", module=_MODULE)
    a = rect.side_lengths
    m = int(math.floor(s))
    head = float(np.prod(a[:m])) if m > 0 else 1.0
    if m >= d:
        return head  # s == d, full product
    return head * a[m] ** (s - m)


def content_sandwich(rect: SortedRectangle, c: float,
                     s: float) -> Tuple[float, float]:
    """(c * 2^-d * phi^s, phi^s) for a set filling a c fraction of rect.

    The caller promises E is inside the rectangle with vol(E) >= c vol(R);
    the pair then brackets the s-dimensional Hausdorff content of E.
    """
    c = float(c)
    if not (0.0 < c <= 1.0):
        raise DomainError(f"volume fraction must be in (0, 1], got {c}",
                          module=_MODULE)
    phi = singular_value_function(rect, s)
    return (c * 2.0 ** (-rect.dimension) * phi, phi)


def mdp_lower_bound(measure_query: Callable[[Sequence[float], float], float],
                    total_mass: float, c: float, s: float,
                    spot_check: Iterable[Tuple[Sequence[float], float]] = ()
                    ) -> float:
    """Mass distribution principle: mu(B(x, r)) <= c r^s forces
    H^s_inf >= total_mass / c.

    The constant c is the caller's responsibility; any (center, radius)
    pairs in spot_check are verified against measure_query and a violation
    raises ConsistencyError.
    """
    c = float(c)
    if c <= 0.0:
        raise DomainError(f"bound constant must be positive, got {c}",
                          module=_MODULE)
    if float(total_mass) < 0.0:
        raise DomainError("total mass must be non-negative", module=_MODULE)
    for center, r in spot_check:
        mass = float(measure_query(center, float(r)))
        cap = c * float(r) ** s
        if mass > cap * (1.0 + 1e-9):
            raise ConsistencyError(
                f"ball measure {mass!r} at r={r!r} exceeds the promised "
                f"bound {cap!r}", module=_MODULE)
    return float(total_mass) / c


def _column_intervals(lower: np.ndarray, upper: np.ndarray,
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


def _dyadic_candidates(lower, upper, bbox, s: float,
                       depths: Sequence[int]) -> List[float]:
    """Plain occupied-cell cover values, one per depth."""
    x0, _, x1, _ = bbox
    vals = []
    for k in depths:
        _, lo, hi = _column_intervals(lower, upper, x0, x1, k)
        count = int(np.sum(hi - lo + 1))
        vals.append(count * (2.0 ** -k) ** s)
    return vals


def _merged_dyadic_cover(lower, upper, bbox, s: float, k_top: int) -> float:
    """Greedy bottom-up merge: cost(cell) = min(side^s, sum of children).

    Works on the occupied-cell masks of depths k_top down to 1; the
    result is the best mixed-scale dyadic cover within that range.
    """
    x0, _, x1, _ = bbox
    c0, lo, hi = _column_intervals(lower, upper, x0, x1, k_top)
    width = len(lo)
    height = int(hi.max() - lo.min() + 1)
    r0 = int(lo.min())
    rows = np.arange(r0, r0 + height)
    occ = (rows[None, :] >= lo[:, None]) & (rows[None, :] <= hi[:, None])
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


def _mesh_candidates(w: float, h: float, s: float) -> List[float]:
    """Uniform covers anchored at the bounding box corner."""
    vals = []
    for base in (w, h):
        for j in range(1, _MESH_STEPS + 1):
            delta = base / j
            if delta <= 0.0:
                continue
            nx = max(1, math.ceil(w / delta - 1e-12))
            ny = max(1, math.ceil(h / delta - 1e-12))
            vals.append(nx * ny * delta ** s)
    return vals


def _remainder_tiling(w: float, h: float, s: float) -> float:
    """Tile the box greedily by largest-fitting squares, cover the last
    sliver with one square of the current short side."""
    if h > w:
        w, h = h, w
    total = 0.0
    tol = 1e-9 * w
    for _ in range(64):
        if h <= tol:
            break
        k = int(math.floor(w / h + 1e-12))
        total += k * h ** s
        w, h = h, w - k * h
        if h > w:
            w, h = h, w
    if h > tol:
        total += math.ceil(w / h - 1e-12) * h ** s
    return total


def brute_force_content_2d(shape, s: float,
                           depths: Optional[Sequence[int]] = None
                           ) -> ContentEstimate:
    """Certified two-sided content estimate for a convex polygon in
    the unit square.

    upper is the value of the cheapest genuine square cover found
    (merged mixed-scale dyadic up to the merge depth, plain dyadic
    occupancy per deeper depth, anchored uniform meshes, remainder
    tiling of the bounding box); lower is the mass distribution bound
    with the normalized area measure, which by the sandwich equals
    area-ratio * 2^-d * phi^s of the bounding box.  Vertices up to
    1e-9 outside the unit square are clamped onto it; farther ones are
    refused.
    """
    if depths is None:
        depths = DEFAULT_DEPTHS
    depths = tuple(int(k) for k in depths)
    if not depths or any(k < 1 or k > 24 for k in depths):
        raise DomainError("grid depths must be integers in [1, 24]",
                          module=_MODULE)
    s = float(s)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"s must lie in (0, 2], got {s}", module=_MODULE)
    scale_grid = tuple(2.0 ** -k for k in depths)

    poly = np.asarray(shape, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise DomainError("shape must be an (m, 2) vertex array",
                          module=_MODULE)
    if poly.shape[0] < 3:
        return ContentEstimate(0.0, 0.0, scale_grid)
    if not np.all(np.isfinite(poly)):
        raise DomainError("vertices must be finite", module=_MODULE)
    if (poly.min() < -1e-9) or (poly.max() > 1.0 + 1e-9):
        raise DomainError("shape must lie inside the unit square",
                          module=_MODULE)
    poly = ensure_ccw(np.clip(poly, 0.0, 1.0))
    area = polygon_area(poly)
    if area <= 0.0:
        return ContentEstimate(0.0, 0.0, scale_grid)

    x0, y0, x1, y1 = polygon_bbox(poly)
    w, h = x1 - x0, y1 - y0
    if w <= 0.0 or h <= 0.0:
        return ContentEstimate(0.0, 0.0, scale_grid)
    lower_chain, upper_chain = envelope_chains(poly)

    # the merged cover dominates the plain ones at depths up to its own
    k_merge = min(max(depths), _MERGE_DEPTH)
    candidates = _dyadic_candidates(lower_chain, upper_chain,
                                    (x0, y0, x1, y1), s,
                                    [k for k in depths if k > k_merge])
    candidates.append(_merged_dyadic_cover(
        lower_chain, upper_chain, (x0, y0, x1, y1), s, k_merge))
    candidates.extend(_mesh_candidates(w, h, s))
    candidates.append(_remainder_tiling(w, h, s))
    upper = min(candidates)

    bbox_rect = SortedRectangle.from_lengths((w, h))
    phi = singular_value_function(bbox_rect, s)
    c_ratio = min(1.0, area / (w * h))
    c_mdp = 4.0 / (c_ratio * phi)  # mu(B) <= 2^d r^s / (c phi^s)

    # the four spot-check balls about the vertex centroid, in one batch
    cx = float(poly[:, 0].mean())
    cy = float(poly[:, 1].mean())
    radii = np.array([0.125 * h, 0.5 * h, 0.5 * w, max(w, h)])
    masses = box_areas(envelope_edges(poly), cx - radii - x0,
                       cx + radii - x0, cy - radii - y0,
                       cy + radii - y0) / area
    mass = dict(zip(radii.tolist(), masses.tolist()))
    lower = mdp_lower_bound(lambda center, r: mass[r], 1.0, c_mdp, s,
                            spot_check=[((cx, cy), r) for r in mass])
    return ContentEstimate(lower, upper, scale_grid)
