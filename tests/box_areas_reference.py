"""Reference box areas, kept verbatim from before the kernel went
edge-major.

``box_areas`` works on (boxes, edges) arrays: every temporary is a fresh
(P, 1)-by-(E,) broadcast whose inner loops run over the E edges only,
with ``np.clip`` for the clamps and one ``sum(axis=1)`` over the edges.
``tests/test_box_areas_reference.py`` holds the library kernel to it bit
for bit.
"""
from __future__ import annotations

import numpy as np


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
    # an edge too flat for dx/dy, or too steep for dy/dx, to be a finite
    # float is less than 2^-1022 high or wide: take it as flat, which
    # moves its area by less than that
    with np.errstate(over="ignore"):
        dxdy = np.divide(x1 - x0, y1 - y0, out=np.zeros_like(x0),
                         where=y1 != y0)
        slope = (y1 - y0) / (x1 - x0)
    dxdy[np.isinf(dxdy)] = 0.0
    slope[np.isinf(slope)] = 0.0
    t_lo = x0 + (lo - y0) * dxdy
    t_hi = x0 + (hi - y0) * dxdy
    c1 = np.clip(np.minimum(t_lo, t_hi), p, q)
    c2 = np.clip(np.maximum(t_lo, t_hi), p, q)
    vp, v1, v2, vq = (np.clip(y0 + (x - x0) * slope, lo, hi)
                      for x in (p, c1, c2, q))
    per_edge = 0.5 * ((c1 - p) * (vp + v1) + (c2 - c1) * (v1 + v2)
                      + (q - c2) * (v2 + vq))
    return np.maximum((per_edge * sign).sum(axis=1), 0.0)
