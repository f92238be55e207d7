"""Sutherland-Hodgman clipping of convex polygons, kept as a reference.

The library gets cell ranges and box areas in closed form
(``beta_targets.polygons``); the tests compare those kernels against
clipping the polygon one box at a time with the code here.
"""

import numpy as np

# vertices closer than this (relative to scale) are fused after clipping
_FUSE_TOL = 1e-14


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
