"""Small convex-polygon helpers for the 2-D numerical work.

Polygons are (m, 2) float arrays of vertices in counterclockwise order
without a repeated closing vertex.  Everything here assumes convexity;
none of it is meant for general polygon soup.

Two kernels serve every planar check: one gives the polygon's y-range
over grid columns, with cell_range turning ranges into cell indices,
and box_areas gives its area inside axis-aligned boxes.  The cover
count runs the first as slab_ranges, for many x-shifts at one mesh.
The content oracle reads its slabs, for one shift at many dyadic
meshes, off an edge grid of its own.  Both widen the slabs by the
chain vertices through slab_vertices.

box_areas is edge-major: for E envelope edges and P boxes, each of its
temporaries is an (E, P) slab, one contiguous row of boxes per edge, of
a single (8, E, P) workspace that it allocates once per call and writes
in place.  So each ufunc runs along rows of P boxes rather than along
the E edges of one box, and a call makes one large allocation, not one
per temporary.  The per-edge areas are added in the order numpy's sum
over the edges would take, so the areas are those of the box-major
formula bit for bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "polygon_area",
    "ensure_ccw",
    "polygon_bbox",
    "parallelogram_polygon",
    "envelope_chains",
    "cell_range",
    "slab_vertices",
    "slab_ranges",
    "envelope_edges",
    "box_areas",
]


def polygon_area(vertices: np.ndarray) -> float:
    """Signed shoelace area; positive for counterclockwise order.

    Vertices are taken relative to the first one, so small polygons far
    from the origin keep the precision of their own extent.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        return 0.0
    v = v - v[0]
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def ensure_ccw(vertices: Sequence[Sequence[float]]) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if polygon_area(v) < 0.0:
        return v[::-1].copy()
    return v


def polygon_bbox(vertices: np.ndarray) -> Tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax)."""
    v = np.asarray(vertices, dtype=float)
    return (
        float(v[:, 0].min()),
        float(v[:, 1].min()),
        float(v[:, 0].max()),
        float(v[:, 1].max()),
    )


def parallelogram_polygon(origin, col1, col2) -> np.ndarray:
    """Vertices of origin + [0,1]*col1 + [0,1]*col2, counterclockwise."""
    o = np.asarray(origin, dtype=float)
    a = np.asarray(col1, dtype=float)
    b = np.asarray(col2, dtype=float)
    return ensure_ccw(np.stack([o, o + a, o + a + b, o + b]))


def envelope_chains(vertices: np.ndarray):
    """Lower and upper envelope chains of a convex ccw polygon, both with
    non-decreasing x.

    A vertical edge at either end of the x-extent belongs to neither
    chain, so np.interp reads each chain right at its ends too.
    """
    poly = np.asarray(vertices, dtype=float)
    m = poly.shape[0]
    xs, ys = poly[:, 0], poly[:, 1]

    def walk(i, stop):
        chain = [poly[i]]
        while i != stop:
            i = (i + 1) % m
            chain.append(poly[i])
        return chain

    low_left = min(range(m), key=lambda i: (xs[i], ys[i]))
    high_left = min(range(m), key=lambda i: (xs[i], -ys[i]))
    low_right = max(range(m), key=lambda i: (xs[i], -ys[i]))
    high_right = max(range(m), key=lambda i: (xs[i], ys[i]))
    return (np.array(walk(low_left, low_right)),
            np.array(walk(high_right, high_left)[::-1]))


def cell_range(lo, hi, h: float, open: bool):
    """First and last indices, as int64, of the mesh-h cells that the
    interval [lo, hi] books; last < first books none.

    With open set, cell k counts when its open interval (k h, (k+1) h)
    meets [lo, hi].  Otherwise the floor rule: cells floor(lo / h)
    through floor(hi / h), each the half-open [k h, (k+1) h).
    """
    first = np.floor(lo / h)
    if open:
        last = np.ceil(hi / h) - 1.0
        first += (first + 1.0) * h <= lo
        last -= last * h >= hi
    else:
        last = np.floor(hi / h)
    return first.astype(np.int64), last.astype(np.int64)


def slab_vertices(lower: np.ndarray, upper: np.ndarray, ylo: np.ndarray,
                  yhi: np.ndarray, start, shifts, first, last, h) -> None:
    """Widens slab y-ranges, read off the slabs' edges, by the inner
    vertices of the envelope chains; in place.

    ylo and yhi are flat.  Row i holds the closed slabs [k h, (k+1) h],
    k = first[i] + j for j = 0..last[i], of the polygon placed at
    x-offset shifts[i], at index start[i] + j.  A vertex inside a slab
    can beat both of its ends, so each inner chain vertex lowers ylo, or
    raises yhi, of the slab that its x floors into, clamped into the
    row.  Then yhi is raised to ylo where it lies below.  start, shifts,
    first and last are arrays over the rows, or scalars for one row.
    """
    for chain, y, op in ((lower, ylo, np.minimum), (upper, yhi, np.maximum)):
        for vx, vy in chain[1:-1]:
            kv = np.floor((vx + shifts) / h).astype(np.int64)
            at = start + np.minimum(np.maximum(kv - first, 0), last)
            y[at] = op(y[at], vy)
    np.maximum(yhi, ylo, out=yhi)


def slab_ranges(lower: np.ndarray, upper: np.ndarray, shifts: np.ndarray,
                first: np.ndarray, counts: np.ndarray, h: float):
    """y-range of a convex polygon over each of many mesh-h column slabs.

    lower and upper are the polygon's envelope chains.  Shift i places
    the polygon at x-offset shifts[i] and asks for its columns first[i]
    through first[i] + counts[i] - 1; column k is the closed slab
    [k h, (k+1) h] cut to the shifted polygon's x-extent.  Returns
    (ylo, yhi) per (shift, column), shift-major, in the polygon's own y
    coordinates, with ylo <= yhi.  The work is one row per shift, padded
    to the largest count, so the counts should be close to each other.
    The cover count runs it, at one mesh for many shifts.
    """
    m = max(int(counts.max()), 1)
    # adjacent columns share an edge.  Past the x-extent np.interp holds
    # the chain's end value, which with no vertical end edge is the
    # polygon's own there, so slabs need no cutting to the x-extent
    e = (np.arange(m + 1.0) + first[:, None]) * h - shifts[:, None]
    lo_e = np.interp(e, lower[:, 0], lower[:, 1])
    up_e = np.interp(e, upper[:, 0], upper[:, 1])
    ylo = np.minimum(lo_e[:, :-1], lo_e[:, 1:])
    yhi = np.maximum(up_e[:, :-1], up_e[:, 1:])
    # rows with no columns take the vertices' writes in their padding
    slab_vertices(lower, upper, ylo.reshape(-1), yhi.reshape(-1),
                  start=np.arange(0, ylo.size, m), shifts=shifts,
                  first=first, last=np.maximum(counts - 1, 0), h=h)
    if counts.min() == m:  # no padding to drop
        return ylo.ravel(), yhi.ravel()
    booked = np.arange(m) < counts[:, None]
    return ylo[booked], yhi[booked]


def envelope_edges(lower: np.ndarray, upper: np.ndarray):
    """(x0, y0, x1, y1, sign) of the non-vertical edges of a convex
    polygon's envelope chains, with coordinates relative to its bounding
    box's lower-left corner; sign is +1 on the upper chain and -1 on the
    lower one.  The lower chain starts at a leftmost vertex and holds a
    lowest one, so the corner is read off it."""
    points = np.concatenate([upper, lower])
    start, end = points[:-1], points[1:]
    # the pair that joins the chains is no edge, nor is a vertical one
    keep = end[:, 0] > start[:, 0]
    keep[len(upper) - 1] = False
    sign = np.where(np.arange(len(start)) < len(upper), 1.0, -1.0)
    e = np.column_stack([start, end, sign])[keep]
    x0, y0 = lower[0, 0], lower[:, 1].min()
    e[:, :4] -= (x0, y0, x0, y0)
    return e.T


def _sum_rows(rows):
    """Sum the rows of an (E, P) block into rows[0], in place, in the
    order numpy's pairwise sum adds E values along a contiguous axis:
    in turn below 8, through 8 running partial sums up to 128, halved
    (at a multiple of 8) above that.  So rows[0] ends as the sum(axis=1)
    of the block's C-ordered transpose, bit for bit up to the sign of a
    zero sum.
    """
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _sum_rows(rows[half:])
        _sum_rows(rows[:half])
        rows[0] += rows[half]
        return
    rest = 1
    if n >= 8:
        rest = n - n % 8
        for i in range(8, rest, 8):
            rows[:8] += rows[i:i + 8]
        rows[0:8:2] += rows[1:8:2]
        rows[0:8:4] += rows[2:8:4]
        rows[0] += rows[4]
    for i in range(rest, n):
        rows[0] += rows[i]


def box_areas(edges, a, b, lo, hi) -> np.ndarray:
    """Area of the polygon inside each box [a, b] x [lo, hi], the boxes
    given relative to the bounding box corner that envelope_edges uses.

    The area is the integral of clamp(upper) - clamp(lower) over x.  On
    each envelope edge, the clamped line is linear between the crossings
    of y = lo and y = hi, so three trapezoids per edge are exact.  The
    work is edge-major, in one workspace per call (see the module
    docstring).
    """
    x0, y0, x1, y1, sign = edges
    # an edge too flat for dx/dy, or too steep for dy/dx, to be a finite
    # float is less than 2^-1022 high or wide: take it as flat, which
    # moves its area by less than that
    with np.errstate(over="ignore"):
        dxdy = np.divide(x1 - x0, y1 - y0, out=np.zeros_like(x0),
                         where=y1 != y0)
        slope = (y1 - y0) / (x1 - x0)
    dxdy[np.isinf(dxdy)] = 0.0
    slope[np.isinf(slope)] = 0.0
    x0, y0, x1, dxdy, slope, sign = (
        v[:, None] for v in (x0, y0, x1, dxdy, slope, sign))
    ws = np.empty((8, len(x0), len(a)))
    x, y = ws[:4], ws[4:]
    # the clamp points p <= c1 <= c2 <= q on x, then their clamped ys
    p, c1, c2, q = x
    for end, v in ((a, p), (b, q)):
        np.maximum(end, x0, out=v)
        np.minimum(v, x1, out=v)
    t_lo, t_hi = y[:2]
    for level, t in ((lo, t_lo), (hi, t_hi)):
        np.subtract(level, y0, out=t)
        np.multiply(t, dxdy, out=t)
        np.add(x0, t, out=t)
    np.minimum(t_lo, t_hi, out=c1)
    np.maximum(t_lo, t_hi, out=c2)
    np.maximum(x[1:3], p, out=x[1:3])
    np.minimum(x[1:3], q, out=x[1:3])
    np.subtract(x, x0, out=y)
    np.multiply(y, slope, out=y)
    np.add(y0, y, out=y)
    np.maximum(y, lo, out=y)
    np.minimum(y, hi, out=y)
    # the three trapezoids' widths and summed heights, each slab read
    # before it is overwritten
    for i in (3, 2, 1):
        np.subtract(x[i], x[i - 1], out=x[i])
    for i in (0, 1, 2):
        np.add(y[i], y[i + 1], out=y[i])
    np.multiply(x[1:], y[:3], out=x[1:])
    per_edge = x[1]
    per_edge += x[2]
    per_edge += x[3]
    # 0.5 and then the sign, as one exact multiply by +-0.5
    per_edge *= 0.5 * sign
    _sum_rows(per_edge)
    # which also makes a zero sum +0.0
    return np.maximum(per_edge[0], 0.0)
