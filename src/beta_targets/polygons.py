"""Small convex-polygon helpers for the 2-D numerical work.

Polygons are (m, 2) float arrays of vertices in counterclockwise order
without a repeated closing vertex.  Everything here assumes convexity;
none of it is meant for general polygon soup.

Two kernels serve every planar check: slab_ranges gives the polygon's
y-range over grid columns, with cell_range turning ranges into cell
indices, and box_areas gives its area inside axis-aligned boxes.
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
    # a chain vertex inside a slab can beat both of the slab's ends; rows
    # with no columns take the write in their padding
    row = np.arange(len(counts))
    last = np.maximum(counts - 1, 0)
    for chain, y, op in ((lower, ylo, np.minimum), (upper, yhi, np.maximum)):
        for vx, vy in chain[1:-1]:
            kv = np.floor((vx + shifts) / h).astype(np.int64)
            col = np.minimum(np.maximum(kv - first, 0), last)
            y[row, col] = op(y[row, col], vy)
    yhi = np.maximum(yhi, ylo)
    if counts.min() == m:  # no padding to drop
        return ylo.ravel(), yhi.ravel()
    booked = np.arange(m) < counts[:, None]
    return ylo[booked], yhi[booked]


def envelope_edges(polygon: np.ndarray):
    """(x0, y0, x1, y1, sign) of the non-vertical envelope edges, with
    coordinates relative to the bounding box's lower-left corner; sign is
    +1 on the upper chain and -1 on the lower one."""
    lower, upper = envelope_chains(polygon)
    parts = []
    for chain, sign in ((upper, 1.0), (lower, -1.0)):
        e = np.hstack([chain[:-1], chain[1:]])
        e = e[e[:, 2] > e[:, 0]]
        parts.append(np.column_stack([e, np.full(len(e), sign)]))
    e = np.vstack(parts)
    e[:, [0, 2]] -= polygon[:, 0].min()
    e[:, [1, 3]] -= polygon[:, 1].min()
    return e.T


def box_areas(edges, a, b, lo, hi) -> np.ndarray:
    """Area of the polygon inside each box [a, b] x [lo, hi], the boxes
    given relative to the bounding box corner that envelope_edges uses.

    The area is the integral of clamp(upper) - clamp(lower) over x.  On
    each envelope edge, the clamped line is linear between the crossings
    of y = lo and y = hi, so three trapezoids per edge are exact.
    """
    x0, y0, x1, y1, sign = edges
    a, b, lo, hi = (v[:, None] for v in (a, b, lo, hi))
    p = np.clip(a, x0, x1)
    q = np.clip(b, x0, x1)
    dxdy = np.divide(x1 - x0, y1 - y0, out=np.zeros_like(x0),
                     where=y1 != y0)
    t_lo = x0 + (lo - y0) * dxdy
    t_hi = x0 + (hi - y0) * dxdy
    c1 = np.clip(np.minimum(t_lo, t_hi), p, q)
    c2 = np.clip(np.maximum(t_lo, t_hi), p, q)
    slope = (y1 - y0) / (x1 - x0)
    vp, v1, v2, vq = (np.clip(y0 + (x - x0) * slope, lo, hi)
                      for x in (p, c1, c2, q))
    per_edge = 0.5 * ((c1 - p) * (vp + v1) + (c2 - c1) * (v1 + v2)
                      + (q - c2) * (v2 + vq))
    return np.maximum((per_edge * sign).sum(axis=1), 0.0)
