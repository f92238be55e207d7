"""Singular value function and a 2-D content oracle.

All geometry is in the maximal norm, so a ball of radius r is an
axis-aligned square of side 2r and a cover may use squares of any size
and position.  For a hyperrectangle with sides a_1 >= ... >= a_d the
singular value function

    phi^s = a_1 ... a_m * a_{m+1}^(s-m),   m = floor(s)

pins the Hausdorff content up to constants: a set E inside the rectangle
carrying at least a c fraction of its volume satisfies

    c * 2^-d * phi^s  <=  H^s_inf(E)  <=  (covers built from the sides).

The content oracle certifies both ends for convex polygons in the
unit square.  Its upper bound is a minimum over genuine covers: occupied
dyadic grid cells at several depths, a greedy bottom-up merge of those
cells into larger squares, uniform meshes anchored at the bounding box
corner, and a remainder-tiling of the bounding box by squares.  Its lower
bound runs the mass distribution principle with the normalized area
measure on the polygon.

Only the prices of those covers depend on s: the cell counts, the merge
depth's occupancy mask, the mesh counts and the spot-check ball masses
do not.  content_estimates_2d builds them once per shape and prices them
at each exponent of a list.

The merge prices all of the list's exponents in one stacked pass: each
level of its pyramid is an (S, nx, ny) stack, S the number of exponents,
and the zero-padded grids of all levels are views of one workspace per
call, as in polygons.box_areas.  At the merge depth 9 a wide shape's
stack of five exponents is a few hundred KB, above glibc's initial mmap
threshold, so one allocation per call, not one per level and exponent,
lets the heap reuse its pages.  The children are added in the order
numpy's four-axis sum took for one exponent, and the prices side^s and
count * delta^s stay Python floats, so every estimate equals a pass at
its s alone bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import (Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

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
    "ContentEstimate",
    "singular_value_function",
    "mdp_lower_bound",
    "content_estimates_2d",
]

_MODULE = "hausdorff_content"

# dyadic grid depths scanned by the oracle; the mixed-scale merge walks
# from _MERGE_DEPTH down, deeper grids only contribute plain cell counts
DEFAULT_DEPTHS = tuple(range(4, 13))
_MERGE_DEPTH = 9

# uniform anchored meshes try side/j for j up to this
_MESH_STEPS = 64

# a price side^s below this has underflowed: it lost bits, or all of
# them, so count * side^s is no upper bound and the cover is left out
_MIN_POWER = sys.float_info.min


@dataclasses.dataclass(frozen=True)
class ContentEstimate:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper * (1.0 + 1e-12)):
            raise ConsistencyError(
                f"estimate out of order: lower={self.lower!r} "
                f"upper={self.upper!r}", module=_MODULE)


def singular_value_function(sides: Sequence[float], s: float) -> float:
    """a_1...a_m * a_{m+1}^(s-m) with m = floor(s), for 0 < s <= d, of
    the positive side lengths sorted as a_1 >= ... >= a_d."""
    a = tuple(float(x) for x in sides)
    if not a:
        raise DomainError("need at least one side", module=_MODULE)
    for x in a:
        if not (x > 0.0) or not math.isfinite(x):
            raise DomainError(f"sides must be positive, got {x}",
                              module=_MODULE)
    a = tuple(sorted(a, reverse=True))
    d = len(a)
    s = float(s)
    if not (0.0 < s <= d):
        raise DomainError(f"s must lie in (0, {d}], got {s}", module=_MODULE)
    m = int(math.floor(s))
    head = float(np.prod(a[:m])) if m > 0 else 1.0
    if m >= d:
        return head  # s == d, full product
    return head * a[m] ** (s - m)


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


def _merged_dyadic_cover(c0: int, r0: int, occ: np.ndarray, k_top: int,
                         exponents: Sequence[float]) -> List[float]:
    """Greedy bottom-up merge: cost(cell) = min(side^s, sum of children),
    at each exponent s of a list.

    Works on the occupied-cell mask of depth k_top (cell (c0 + i, r0 + j)
    at occ[i, j]) and its parents down to depth 1; the result is the best
    mixed-scale dyadic cover within that range, one per exponent.

    The exponents share one pass (see the module docstring).  A parent
    adds its children a, b (left column, lower and upper row) and c, d
    (right column) as (a + b) + (c + d), or ((a + b) + c) + d when the
    level has one row pair: the order numpy's
    grid.reshape(gx // 2, 2, gy // 2, 2).sum(axis=(1, 3)) takes for one
    exponent's grid, so each cost is that of a pass at its s alone, bit
    for bit.
    """
    S = len(exponents)
    # each level's cells sit at even absolute indices of an even-shaped
    # grid: (offsets, cells, padded shape) per level, down to one cell
    levels = []
    nx, ny = occ.shape
    col_off, row_off = c0, r0
    for _ in range(k_top):
        pl, pb = col_off % 2, row_off % 2
        gx, gy = nx + pl + (nx + pl) % 2, ny + pb + (ny + pb) % 2
        levels.append((pl, pb, nx, ny, gx, gy))
        nx, ny = gx // 2, gy // 2
        col_off = (col_off - pl) // 2
        row_off = (row_off - pb) // 2
        if nx * ny == 1:
            break
    # the zero-padded grids, the last level's costs and a scratch slab
    # for c + d, as large as the first parent level, in one workspace
    sizes = [gx * gy for *_, gx, gy in levels] + [nx * ny]
    ws = np.zeros(S * (sum(sizes) + sizes[0] // 4))
    grids, off = [], 0
    for (*_, gx, gy), size in zip(levels, sizes):
        grids.append(ws[off:off + S * size].reshape(S, gx, gy))
        off += S * size
    costs = ws[off:off + S * nx * ny].reshape(S, nx, ny)
    scratch = ws[off + S * nx * ny:]
    cells = [g[:, pl:pl + nx, pb:pb + ny]
             for g, (pl, pb, nx, ny, _, _) in zip(grids, levels)]
    cells.append(costs)

    side = 2.0 ** -k_top
    caps = np.array([[(side * 2.0 ** i) ** s for s in exponents]
                     for i in range(len(levels) + 1)])[:, :, None, None]
    np.copyto(cells[0], caps[0], where=occ)
    for i, grid in enumerate(grids):
        out = cells[i + 1]
        np.add(grid[:, 0::2, 0::2], grid[:, 0::2, 1::2], out=out)
        if grid.shape[2] == 2:
            out += grid[:, 1::2, 0::2]
            out += grid[:, 1::2, 1::2]
        else:
            right = scratch[:out.size].reshape(out.shape)
            np.add(grid[:, 1::2, 0::2], grid[:, 1::2, 1::2], out=right)
            out += right
        # a cell is occupied exactly when its children's sum is positive,
        # and an empty one keeps cost min(side^s, 0) = 0
        np.minimum(caps[i + 1], out, out=out)
    return [float(c.sum()) for c in costs]


def _mesh_counts(w: float, h: float) -> List[Tuple[int, float]]:
    """(squares, side) of the uniform covers anchored at the bounding box
    corner.  A side too small for w / side or h / side to be finite makes
    no cover and is left out."""
    j = np.arange(1, _MESH_STEPS + 1)
    delta = np.concatenate([w / j, h / j])
    with np.errstate(over="ignore", divide="ignore"):
        counts = (np.maximum(1.0, np.ceil(w / delta - 1e-12))
                  * np.maximum(1.0, np.ceil(h / delta - 1e-12)))
    return [(int(count), side) for count, side
            in zip(counts.tolist(), delta.tolist()) if count < math.inf]


def _remainder_tiling(w: float, h: float, s: float) -> float:
    """Tile the box greedily by largest-fitting squares, cover the last
    sliver with one square of the current short side; inf, no cover, for
    a box that is all sliver or a square whose price underflowed."""
    if h > w:
        w, h = h, w
    total = 0.0
    tol = 1e-9 * w
    for _ in range(64):
        if h <= tol:
            break
        k = int(math.floor(w / h + 1e-12))
        price = h ** s
        if price < _MIN_POWER:
            return math.inf
        total += k * price
        w, h = h, w - k * h
        if h > w:
            w, h = h, w
    if h > tol:
        price = h ** s
        if price < _MIN_POWER:
            return math.inf
        total += math.ceil(w / h - 1e-12) * price
    return total or math.inf


def _check_exponent(s) -> float:
    s = float(s)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"s must lie in (0, 2], got {s}", module=_MODULE)
    return s


def _check_convex(poly: np.ndarray) -> None:
    """Refuses a counterclockwise vertex list that is not convex: one
    with a clockwise turn beyond |cross| <= 1e-12 |e1| |e2|, the slack
    that lets nearly collinear vertices pass, or whose turns add up to
    more than one revolution, as a pentagram's do."""
    pts = [tuple(p) for p in poly.tolist()]
    pts = [p for p, q in zip(pts, pts[-1:] + pts[:-1]) if p != q]
    # each edge over its largest component: scale-free, and no product of
    # tiny edges underflows
    edges = []
    for (x0, y0), (x1, y1) in zip(pts[-1:] + pts[:-1], pts):
        m = max(abs(x1 - x0), abs(y1 - y0))
        edges.append(((x1 - x0) / m, (y1 - y0) / m))
    turns = 0.0
    for (ax, ay), (bx, by) in zip(edges, edges[1:] + edges[:1]):
        cross = ax * by - ay * bx
        if cross < -1e-12 * math.hypot(ax, ay) * math.hypot(bx, by):
            turns = math.inf  # a clockwise turn
            break
        turns += abs(math.atan2(cross, ax * bx + ay * by))
    if turns > 3.0 * math.pi:
        raise DomainError("shape must be convex", module=_MODULE)


def _shape_covers(shape, depths: Tuple[int, ...]
                  ) -> Callable[[List[float]], Iterator[Tuple[float, float]]]:
    """Checks the shape and builds everything of its covers that does not
    depend on s; returns the (lower, upper) estimates as a function of a
    list of exponents, yielded in order."""
    poly = np.asarray(shape, dtype=float)
    if poly.ndim != 2 or poly.shape[1] != 2:
        raise DomainError("shape must be an (m, 2) vertex array",
                          module=_MODULE)
    if not np.all(np.isfinite(poly)):
        raise DomainError("vertices must be finite", module=_MODULE)
    if poly.size and ((poly.min() < -1e-9) or (poly.max() > 1.0 + 1e-9)):
        raise DomainError("shape must lie inside the unit square",
                          module=_MODULE)
    if poly.shape[0] < 3:
        return lambda exponents: ((0.0, 0.0) for _ in exponents)
    poly = ensure_ccw(np.clip(poly, 0.0, 1.0))
    _check_convex(poly)
    # relative to its first vertex, a polygon of zero width or height has
    # shoelace area exactly 0.0, so w and h below are positive
    area = polygon_area(poly)
    if area <= 0.0:
        return lambda exponents: ((0.0, 0.0) for _ in exponents)

    x0, y0, x1, y1 = polygon_bbox(poly)
    w, h = x1 - x0, y1 - y0
    lower_chain, upper_chain = envelope_chains(poly)

    # the merged cover dominates the plain ones at depths up to its own
    k_merge = min(max(depths), _MERGE_DEPTH)
    plain = []
    for k in depths:
        if k > k_merge:
            _, lo, hi = _column_intervals(lower_chain, upper_chain, x0, x1, k)
            plain.append((int(np.sum(hi - lo + 1)), k))
    c0, lo, hi = _column_intervals(lower_chain, upper_chain, x0, x1, k_merge)
    r0 = int(lo.min())
    rows = np.arange(r0, int(hi.max()) + 1)
    occ = (rows[None, :] >= lo[:, None]) & (rows[None, :] <= hi[:, None])
    meshes = _mesh_counts(w, h)

    c_ratio = min(1.0, area / (w * h))

    # the four spot-check balls about the vertex centroid, in one batch
    cx = float(poly[:, 0].mean())
    cy = float(poly[:, 1].mean())
    radii = np.array([0.125 * h, 0.5 * h, 0.5 * w, max(w, h)])
    masses = box_areas(envelope_edges(poly), cx - radii - x0,
                       cx + radii - x0, cy - radii - y0,
                       cy + radii - y0) / area
    mass = dict(zip(radii.tolist(), masses.tolist()))
    spot_check = [((cx, cy), r) for r in mass]

    def estimates(exponents: List[float]) -> Iterator[Tuple[float, float]]:
        merged = _merged_dyadic_cover(c0, r0, occ, k_merge, exponents)
        for s, merged_cost in zip(exponents, merged):
            candidates = [count * (2.0 ** -k) ** s for count, k in plain]
            candidates.append(merged_cost)
            for count, delta in meshes:
                price = delta ** s
                if price >= _MIN_POWER:
                    candidates.append(count * price)
            candidates.append(_remainder_tiling(w, h, s))
            upper = min(candidates)

            phi = singular_value_function((w, h), s)
            c_mdp = 4.0 / (c_ratio * phi)  # mu(B) <= 2^d r^s / (c phi^s)
            lower = mdp_lower_bound(lambda center, r: mass[r], 1.0, c_mdp,
                                    s, spot_check=spot_check)
            yield lower, upper

    return estimates


def content_estimates_2d(shape, exponents: Iterable[float],
                         depths: Optional[Sequence[int]] = None
                         ) -> List[ContentEstimate]:
    """Certified two-sided content estimates of a convex polygon in the
    unit square, one per exponent s, in the given order.

    upper is the value of the cheapest genuine square cover found
    (merged mixed-scale dyadic up to the merge depth, plain dyadic
    occupancy per deeper depth, anchored uniform meshes, remainder
    tiling of the bounding box); lower is the mass distribution bound
    with the normalized area measure, which by the sandwich equals
    area-ratio * 2^-d * phi^s of the bounding box.  Vertices up to
    1e-9 outside the unit square are clamped onto it; farther ones, and
    non-finite ones, are refused, whatever their number.  A shape of no
    area, fewer than three vertices included, gets (0, 0).  The depths
    are integers (bools excluded) in [1, 24].

    The covers are built once for the shape and then priced at each s
    with the float operations, in the same order, of an estimate at that
    s alone, so no estimate depends on the other exponents of the list.
    Errors come in the order separate estimates would raise them: the
    depths, the first s, the shape, then each later s just before its
    own estimate (so after any ConsistencyError of an earlier one).
    """
    depths = DEFAULT_DEPTHS if depths is None else tuple(depths)
    if not depths or any(isinstance(k, bool) or not isinstance(
            k, (int, np.integer)) or not 1 <= k <= 24 for k in depths):
        raise DomainError("grid depths must be integers in [1, 24]",
                          module=_MODULE)
    depths = tuple(map(int, depths))
    # the exponents before the first refused one are priced in one pass;
    # the refusal is raised after their estimates, so a refused s[0]
    # comes before any error of the shape, as separate estimates raise it
    checked, refused = [], None
    for s in exponents:
        try:
            checked.append(_check_exponent(s))
        except (DomainError, TypeError, ValueError, OverflowError) as exc:
            refused = exc
            break
    out = []
    if checked:
        out = [ContentEstimate(*e)
               for e in _shape_covers(shape, depths)(checked)]
    if refused is not None:
        raise refused
    return out
