"""The content oracle's one-grid column intervals, stacked merge pass and
elementwise mesh counts against the per-depth and per-exponent kernels
they replaced (``tests/content_reference.py``), bit for bit.

Shapes are random convex polygons inside the unit square: thin
rectangles and parallelograms as perfbench draws them, axis-aligned
rectangles (some with corners on the dyadic grid), tall vertical ones,
tiny ones down to 1e-9 across, and generic polygons of 3 to 8 vertices.
Depth lists often stop below the merge depth 9, and exponent lists
repeat entries.  The column intervals also see shapes whose x-extent
starts or ends on a grid line of one of the depths, and shapes that
touch x = 1.  The merge kernel is also run on bare occupancy masks,
among them grids of one row pair and of one column, where numpy's
reduction order for the four children changes.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beta_targets import hausdorff_content
from beta_targets.hausdorff_content import (
    _column_intervals,
    _merged_dyadic_cover,
    _mesh_counts,
    content_estimates_2d,
)
from beta_targets.polygons import ensure_ccw, envelope_chains, polygon_bbox
import content_reference as ref

EXPONENTS = (0.5, 1.0, 1.3, 1.7, 2.0)


def place(poly, u, v, snap):
    """poly moved into the unit square, at fractions u, v of the room
    left; snap puts its low corner on the depth-9 grid."""
    poly = np.asarray(poly, dtype=float)
    poly = poly - poly.min(axis=0)
    span = poly.max(axis=0)
    if span.max() > 0.998:
        poly *= 0.998 / span.max()
        span = poly.max(axis=0)
    corner = np.array([u, v]) * (0.999 - span) + 0.0005
    if snap:
        corner = np.floor(corner * 512.0) / 512.0
    return poly + corner


def parallelogram(w, aspect, kind, shear, tilt):
    h = w * aspect
    if kind == "rectangle":
        cols = np.array([[w, 0.0], [0.0, h]])
    elif kind == "sheared":
        cols = np.array([[w, shear * h], [0.0, h]])
    else:
        c, s = math.cos(tilt * aspect), math.sin(tilt * aspect)
        cols = np.array([[c, -s], [s, c]]) @ np.diag([w, h])
    return np.array([[0.0, 0.0], cols[:, 0], cols[:, 0] + cols[:, 1],
                     cols[:, 1]])


@st.composite
def shapes(draw):
    kind = draw(st.sampled_from(["thin", "axis", "vertical", "tiny",
                                 "generic"]))
    if kind in ("thin", "vertical", "tiny"):
        poly = parallelogram(
            draw(st.floats(0.05, 0.9)), draw(st.floats(0.002, 0.1)),
            draw(st.sampled_from(["rectangle", "sheared", "tilted"])),
            draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.25, 0.25)))
        if kind == "vertical":
            poly = poly[::-1, ::-1]  # mirrored in y = x, still ccw
        if kind == "tiny":
            poly = poly * 10.0 ** draw(st.floats(-9.0, -2.0))
    elif kind == "axis":
        w, h = draw(st.floats(0.001, 0.9)), draw(st.floats(0.001, 0.9))
        poly = [[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]
    else:
        m = draw(st.integers(3, 8))
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        t = np.cumsum(gaps) / sum(gaps) * 2.0 * math.pi
        rx, ry = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        tilt = draw(st.floats(0.0, math.pi))
        u, v = rx * np.cos(t), ry * np.sin(t)
        poly = np.column_stack([math.cos(tilt) * u - math.sin(tilt) * v,
                                math.sin(tilt) * u + math.cos(tilt) * v])
    return place(poly, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
                 draw(st.booleans()))


@st.composite
def exponent_lists(draw):
    exps = draw(st.lists(st.one_of(st.sampled_from(EXPONENTS),
                                   st.floats(0.01, 2.0)),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        exps.append(draw(st.sampled_from(exps)))
    return exps


def outcome(shape, exponents, depths):
    """The estimates as float.hex pairs, or the error raised."""
    try:
        return [(e.lower.hex(), e.upper.hex()) for e in
                content_estimates_2d(shape, exponents, depths)]
    except Exception as exc:
        return type(exc), str(exc)


def reference_outcome(shape, exponents, depths):
    with mock.patch.object(hausdorff_content, "_merged_dyadic_cover",
                           ref.merged_dyadic_covers), \
            mock.patch.object(hausdorff_content, "_mesh_counts",
                              ref.mesh_counts):
        return outcome(shape, exponents, depths)


@settings(max_examples=300, deadline=None)
@given(shapes(), exponent_lists(),
       st.lists(st.integers(1, 13), min_size=1, max_size=4))
def test_estimates_match_reference(shape, exponents, depths):
    # a tiny rectangle may fail its tight s = 2 spot check (ROADMAP item
    # 9); the reference kernels must then fail it the same way
    assert outcome(shape, exponents, depths) == \
        reference_outcome(shape, exponents, depths)


@st.composite
def depth_lists(draw):
    """Unsorted depths in [1, 16] with repeats; some lists stay below the
    merge depth 9."""
    top = draw(st.sampled_from([8, 16]))
    depths = draw(st.lists(st.integers(1, top), min_size=1, max_size=6))
    if draw(st.booleans()):
        depths.append(draw(st.sampled_from(depths)))
    return depths


@settings(max_examples=300, deadline=None)
@given(shapes(), depth_lists(),
       st.sampled_from(["as drawn", "starts on a grid line",
                        "ends on a grid line", "touches x = 1"]),
       st.integers(0, 6))
# a lower chain that falls across the depth-1 grid line y = 0.5 inside
# the shape's one depth-1 column, whose slab ends are both grid ends
@example(np.array([[0.1, 0.6], [0.4, 0.3], [0.4, 0.9]]), [1, 2], "as drawn",
         0)
def test_column_intervals_match_reference(shape, depths, align, line):
    x = shape[:, 0]
    if align == "touches x = 1":
        x = x - x.max() + 1.0
    elif align != "as drawn":
        # a line of a coarse depth, or of the deepest one
        scale = 2.0 ** depths[line % len(depths)]
        if align == "starts on a grid line":
            x = x - x.min() + math.floor(x.min() * scale) / scale
        else:
            x = x - x.max() + math.ceil(x.max() * scale) / scale
    poly = ensure_ccw(np.column_stack([x, shape[:, 1]]))
    lower, upper = envelope_chains(poly)
    x0, _, x1, _ = polygon_bbox(poly)
    got = list(_column_intervals(lower, upper, x0, x1, depths))
    want = [ref.column_intervals(lower, upper, x0, x1, k) for k in depths]
    assert len(got) == len(want)
    for (c0, lo, hi), (c0_ref, lo_ref, hi_ref) in zip(got, want):
        assert c0 == c0_ref
        assert lo.dtype == lo_ref.dtype and hi.dtype == hi_ref.dtype
        assert lo.tobytes() == lo_ref.tobytes()
        assert hi.tobytes() == hi_ref.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 9), st.integers(1, 40),
       st.integers(1, 40), exponent_lists())
def test_merge_matches_reference_on_masks(data, k_top, nx, ny, exponents):
    # any mask, convex or not, at any offset within the depth's grid
    c0 = data.draw(st.integers(0, max(0, 2 ** k_top - nx)))
    r0 = data.draw(st.integers(0, max(0, 2 ** k_top - ny)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    occ = np.random.default_rng(seed).random((nx, ny)) < \
        data.draw(st.floats(0.05, 1.0))
    occ.flat[data.draw(st.integers(0, nx * ny - 1))] = True
    want = ref.merged_dyadic_covers(c0, r0, occ, k_top, exponents)
    got = _merged_dyadic_cover(c0, r0, occ, k_top, exponents)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# grids of one row pair (gy == 2), where numpy adds the four children as
# ((a + b) + c) + d rather than (a + b) + (c + d), and of one column
@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 2), (2, 1), (2, 2),
                                    (1, 37), (37, 1), (37, 2), (2, 37),
                                    (300, 1), (300, 2), (1, 300)])
@pytest.mark.parametrize("c0, r0", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_merge_on_one_row_and_one_column(nx, ny, c0, r0):
    rng = np.random.default_rng(nx * 1000 + ny * 10 + 2 * c0 + r0)
    for k_top in (1, 4, 9):
        if max(c0 + nx, r0 + ny) > 2 ** k_top:
            continue
        for occ in [np.ones((nx, ny), dtype=bool)] + [
                rng.random((nx, ny)) < p for p in (0.3, 0.5, 0.7, 0.9)]:
            occ.flat[0] = True
            # many exponents, so that some sums round differently in the
            # two orders
            exps = np.linspace(0.01, 2.0, 200).tolist()
            want = ref.merged_dyadic_covers(c0, r0, occ, k_top, exps)
            got = _merged_dyadic_cover(c0, r0, occ, k_top, exps)
            assert [x.hex() for x in got] == [x.hex() for x in want]


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_mesh_counts_match_reference(w, h):
    got, want = _mesh_counts(w, h), ref.mesh_counts(w, h)
    assert [(n, d.hex()) for n, d in got] == [(n, d.hex()) for n, d in want]
    assert all(type(n) is int for n, _ in got)
