"""Small convex-polygon helpers for the 2-D numerical work.

Polygons are (m, 2) float arrays of vertices in counterclockwise order
without a repeated closing vertex.  Everything here assumes convexity;
none of it is meant for general polygon soup.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "polygon_area",
    "ensure_ccw",
    "polygon_bbox",
    "parallelogram_polygon",
    "clip_halfplane",
    "clip_to_box",
    "envelope_chains",
]

# vertices closer than this (relative to scale) are fused after clipping
_FUSE_TOL = 1e-14


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


def _dedupe(poly: list) -> np.ndarray:
    if not poly:
        return np.empty((0, 2))
    out = [poly[0]]
    scale = max(1.0, max(abs(p[0]) + abs(p[1]) for p in poly))
    tol = _FUSE_TOL * scale
    for p in poly[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol:
            out.append(p)
    if len(out) > 1:
        p, q = out[-1], out[0]
        if abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol:
            out.pop()
    return np.array(out, dtype=float)


def clip_halfplane(vertices: np.ndarray, normal, offset: float) -> np.ndarray:
    """Clip a convex polygon to the half-plane normal . x <= offset.

    Sutherland-Hodgman against a single edge.  Returns an empty (0, 2)
    array when nothing survives.
    """
    v = np.asarray(vertices, dtype=float)
    if v.shape[0] == 0:
        return v
    nx, ny = float(normal[0]), float(normal[1])
    c = float(offset)
    m = v.shape[0]
    d = v[:, 0] * nx + v[:, 1] * ny - c
    out: list = []
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di <= 0.0:
            out.append((v[i, 0], v[i, 1]))
        if (di <= 0.0) != (dj <= 0.0):
            # edge crosses the boundary; di != dj here
            t = di / (di - dj)
            out.append((
                v[i, 0] + t * (v[j, 0] - v[i, 0]),
                v[i, 1] + t * (v[j, 1] - v[i, 1]),
            ))
    return _dedupe(out)


def clip_to_box(vertices: np.ndarray,
                xmin: float, ymin: float,
                xmax: float, ymax: float) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    for normal, offset in (
        ((-1.0, 0.0), -xmin),
        ((1.0, 0.0), xmax),
        ((0.0, -1.0), -ymin),
        ((0.0, 1.0), ymax),
    ):
        v = clip_halfplane(v, normal, offset)
        if v.shape[0] == 0:
            return v
    return v


def envelope_chains(vertices: np.ndarray):
    """Lower and upper envelope chains of a convex ccw polygon, both with
    non-decreasing x."""
    poly = np.asarray(vertices, dtype=float)
    m = poly.shape[0]
    xs = poly[:, 0]
    left = min(range(m), key=lambda i: (xs[i], poly[i, 1]))
    right = max(range(m), key=lambda i: (xs[i], poly[i, 1]))
    lower = [poly[left]]
    i = left
    while i != right:
        i = (i + 1) % m
        lower.append(poly[i])
    upper = [poly[right]]
    i = right
    while i != left:
        i = (i + 1) % m
        upper.append(poly[i])
    upper.reverse()
    return np.array(lower), np.array(upper)
