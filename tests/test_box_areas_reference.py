"""The edge-major box-area kernel against the box-major one it replaced
(``tests/box_areas_reference.py``), bit for bit.

Polygons have 3 to 8 vertices: generic convex ones, rectilinear ones
with vertical and horizontal edges, and ones with an edge so flat that
dx/dy, or so steep that dy/dx, overflows to inf (which the kernel takes
as 0).  Boxes are disjoint from the polygon, contain it, straddle it,
or are degenerate (a == b or lo == hi); their sides also fall on the
polygon's own vertex coordinates.  A seeded sweep adds polygons of up to
300 vertices, whose edge sums take numpy's blocked and halved pairwise
order.  Ball masses through the library kernel equal those through the
reference, over several pair chunks and for one ball that fills more
than a chunk on its own.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets import numerical_lab
from beta_targets.dimension_engine import TargetSpec
from beta_targets.numerical_lab import _ball_masses, build_measure
from beta_targets.parallelepiped_geometry import BetaSystem
from beta_targets.polygons import box_areas, ensure_ccw, envelope_edges
import box_areas_reference as ref
from family_reference import const_rotation

UNIT_D = ((0.0, 1.0), (0.0, 1.0))
# 2^-1060 is subnormal: against a unit run or rise, 2^1060 overflows
TINY = 2.0 ** -1060


def ellipse_polygon(angles, rx, ry, tilt, center):
    """Vertices at the given increasing angles on a tilted ellipse:
    convex and counterclockwise."""
    t = np.asarray(angles)
    u, v = rx * np.cos(t), ry * np.sin(t)
    c, s = math.cos(tilt), math.sin(tilt)
    return np.column_stack([center[0] + c * u - s * v,
                            center[1] + s * u + c * v])


def rectilinear_polygon(w, h, cuts):
    """The w x h box with the corners whose cut is positive cut off by a
    diagonal: vertical and horizontal edges, 4 to 8 vertices."""
    out = []
    for (x, y), (dx, dy), cut in zip(
            ((0.0, 0.0), (w, 0.0), (w, h), (0.0, h)),
            ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)), cuts):
        k = cut * min(w, h)
        if k > 0.0:
            # the corner's two cut points, in counterclockwise order
            pts = [(x, y + dy * k), (x + dx * k, y)]
            out.extend(pts if dx * dy > 0 else pts[::-1])
        else:
            out.append((x, y))
    return np.array(out)


# one edge too flat for dx/dy, or too steep for dy/dx, to be finite
EXTREME = [
    np.array([[0.0, 0.0], [1.0, TINY], [1.0, 1.0], [0.0, 1.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [TINY, 1.0]]),
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0 - TINY], [TINY, 1.0]]),
    np.array([[0.0, 0.0], [3.0, TINY], [3.0 - TINY, 2.0]]),
    np.array([[0.0, 1.0], [TINY, 0.0], [2.0, 0.0], [2.0, TINY],
              [1.0, 1.0 + TINY]]),
]


@st.composite
def polygons(draw):
    kind = draw(st.sampled_from(["ellipse", "rectilinear", "extreme"]))
    if kind == "ellipse":
        m = draw(st.integers(3, 8))
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        angles = np.cumsum(gaps) / sum(gaps) * 2.0 * math.pi
        poly = ellipse_polygon(
            angles, draw(st.floats(0.01, 4.0)), draw(st.floats(0.01, 4.0)),
            draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2])) if
            draw(st.booleans()) else draw(st.floats(0.0, math.pi)),
            (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))))
    elif kind == "rectilinear":
        cuts = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5]),
                             min_size=4, max_size=4))
        poly = rectilinear_polygon(draw(st.floats(0.1, 3.0)),
                                   draw(st.floats(0.1, 3.0)), cuts)
    else:
        poly = draw(st.sampled_from(EXTREME))
    return ensure_ccw(poly)


def box_sides(draw, ends, extent):
    """(low, high) of one box side: outside the extent, across it, on a
    vertex coordinate, or degenerate."""
    inside = st.floats(-0.5 * extent, 1.5 * extent)
    kind = draw(st.sampled_from(["below", "above", "across", "within",
                                 "vertex", "point"]))
    if kind == "below":
        lo = draw(st.floats(-3.0 * extent, -0.01 * extent))
        return lo, lo + draw(st.floats(0.0, -lo))
    if kind == "above":
        lo = draw(st.floats(1.01 * extent, 3.0 * extent))
        return lo, lo + draw(st.floats(0.0, extent))
    if kind == "across":
        return (draw(st.floats(-2.0 * extent, 0.0)),
                draw(st.floats(extent, 3.0 * extent)))
    if kind == "vertex":
        lo, hi = sorted([draw(st.sampled_from(ends)), draw(st.sampled_from(
            ends + [draw(inside)]))])
        return lo, hi
    lo = draw(inside)
    if kind == "point":
        return lo, lo
    return lo, lo + draw(st.floats(0.0, extent))


def check_boxes(edges, a, b, lo, hi):
    a, b, lo, hi = (np.asarray(v, dtype=float) for v in (a, b, lo, hi))
    with np.errstate(over="ignore"):
        want = ref.box_areas(edges, a, b, lo, hi)
        got = box_areas(edges, a, b, lo, hi)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(polygons(), st.data())
def test_matches_reference(poly, data):
    edges = envelope_edges(poly)
    rel = poly - poly.min(axis=0)
    w, h = rel.max(axis=0)
    xs, ys = rel[:, 0].tolist(), rel[:, 1].tolist()
    sides = [(box_sides(data.draw, xs, w), box_sides(data.draw, ys, h))
             for _ in range(data.draw(st.integers(1, 12)))]
    (a, b), (lo, hi) = (np.array(v).T for v in zip(*sides))
    check_boxes(edges, a, b, lo, hi)


def test_seeded_sweep():
    rng = np.random.default_rng(20240601)
    for trial in range(400):
        m = int(rng.integers(9, 301)) if trial % 8 == 0 else \
            int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        poly = ensure_ccw(ellipse_polygon(
            angles, *rng.uniform(0.01, 3.0, 2), rng.uniform(0.0, math.pi),
            rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-6.0, 3.0))
        if len(np.unique(poly, axis=0)) < 3:
            continue
        rel = poly - poly.min(axis=0)
        w, h = rel.max(axis=0)
        p = int(rng.integers(1, 300))
        a = rng.uniform(-0.5, 1.5, p) * w
        b = a + rng.uniform(0.0, 1.5, p) * w * (rng.random(p) > 0.1)
        lo = rng.uniform(-0.5, 1.5, p) * h
        hi = lo + rng.uniform(0.0, 1.5, p) * h * (rng.random(p) > 0.1)
        # some sides on vertex coordinates
        on = rng.random(p) < 0.2
        a[on] = rng.choice(rel[:, 0], on.sum())
        b[on] = np.maximum(b[on], a[on])
        on = rng.random(p) < 0.2
        hi[on] = np.maximum(lo[on], rng.choice(rel[:, 1], on.sum()))
        check_boxes(envelope_edges(poly), a, b, lo, hi)


def test_extreme_edges_take_the_zero_branch():
    # the flat edge's dx/dy and the steep edge's dy/dx are inf before the
    # kernel zeroes them
    for poly in EXTREME:
        e = envelope_edges(ensure_ccw(poly))
        dx, dy = e[2] - e[0], e[3] - e[1]
        rising = dy != 0.0
        with np.errstate(over="ignore"):
            assert np.isinf(dx[rising] / dy[rising]).any() or \
                np.isinf(dy / dx).any()
        grid = np.linspace(-0.5, 3.5, 9)
        a, lo = np.meshgrid(grid, grid)
        check_boxes(e, a.ravel(), a.ravel() + 0.75, lo.ravel(),
                    lo.ravel() + 0.75)


def reference_masses(monkeypatch, M, centers, radii):
    with monkeypatch.context() as m:
        m.setattr(numerical_lab, "box_areas", ref.box_areas)
        return _ball_masses(M, centers, radii)


def counted_masses(monkeypatch, M, centers, radii):
    """Masses through the library kernel, and the box count of each call."""
    sizes = []

    def counted(edges, a, *rest):
        sizes.append(len(a))
        return box_areas(edges, a, *rest)

    with monkeypatch.context() as m:
        m.setattr(numerical_lab, "box_areas", counted)
        return _ball_masses(M, centers, radii), sizes


def test_ball_masses_over_several_chunks(monkeypatch):
    spec = TargetSpec(BetaSystem((2.0, 4.0)), const_rotation(math.pi / 4))
    M = build_measure(spec, 5, UNIT_D, t=1.0)
    rng = np.random.default_rng(11)
    centers = rng.uniform(0.0, 1.0, (8000, 2))
    radii = np.exp(rng.uniform(math.log(1e-3), math.log(0.5), 8000))
    got, sizes = counted_masses(monkeypatch, M, centers, radii)
    assert len(sizes) >= 3
    assert max(sizes) <= numerical_lab._PAIR_CHUNK
    want = reference_masses(monkeypatch, M, centers, radii)
    assert got.tobytes() == want.tobytes()


def test_one_ball_past_a_chunk(monkeypatch):
    # a ball's pairs are never split: with a chunk of 16 pairs, this
    # ball's straddlers all go to one call of more than 16 boxes
    spec = TargetSpec(BetaSystem((2.0, 4.0)), const_rotation(0.9))
    M = build_measure(spec, 4, UNIT_D, t=1.0)
    centers = np.array([[0.4321, 0.5678]])
    radii = np.array([0.1])
    monkeypatch.setattr(numerical_lab, "_PAIR_CHUNK", 16)
    got, sizes = counted_masses(monkeypatch, M, centers, radii)
    assert len(sizes) == 1 and sizes[0] > 16
    want = reference_masses(monkeypatch, M, centers, radii)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("boxes", [0, 1])
def test_box_counts_of_none_and_one(boxes):
    poly = ensure_ccw(ellipse_polygon(np.linspace(0.0, 6.0, 7), 1.0, 0.5,
                                      0.3, (0.0, 0.0)))
    z = np.full(boxes, 0.25)
    check_boxes(envelope_edges(poly), z, z + 1.0, z, z + 0.5)
