import numpy as np
import pytest

from beta_targets.polygons import (
    ensure_ccw,
    parallelogram_polygon,
    polygon_area,
    polygon_bbox,
)
from clipping import clip_halfplane, clip_to_box

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_area_unit_square():
    assert polygon_area(SQUARE) == 1.0


def test_area_translation_invariant():
    # a 5e-4 x 2e-3 box near (0.85, 0.6): absolute coordinates must not
    # cost the shoelace sum its relative precision
    box = np.array([[0.0, 0.0], [5e-4, 0.0], [5e-4, 2e-3], [0.0, 2e-3]])
    far = box + np.array([0.85, 0.6])
    assert polygon_area(far) == pytest.approx(polygon_area(box), rel=1e-12,
                                              abs=0.0)


def test_ensure_ccw_flips_clockwise():
    cw = SQUARE[::-1]
    assert polygon_area(cw) == -1.0
    assert polygon_area(ensure_ccw(cw)) == 1.0


def test_bbox():
    tri = np.array([[0.5, -1.0], [2.0, 0.5], [-0.25, 3.0]])
    assert polygon_bbox(tri) == (-0.25, -1.0, 2.0, 3.0)


def test_parallelogram_area_matches_det():
    poly = parallelogram_polygon((0.25, 0.5), (2.0, 1.0), (0.5, 3.0))
    assert polygon_area(poly) == pytest.approx(abs(2.0 * 3.0 - 1.0 * 0.5))
    assert polygon_area(poly) > 0.0


def test_clip_halfplane_splits_square():
    half = clip_halfplane(SQUARE, (1.0, 0.0), 0.5)  # keep x <= 0.5
    assert polygon_area(half) == pytest.approx(0.5)
    gone = clip_halfplane(SQUARE, (1.0, 0.0), -0.5)
    assert gone.shape[0] == 0


def test_clip_to_box_intersection():
    shifted = SQUARE + np.array([0.5, 0.5])
    inner = clip_to_box(shifted, 0.0, 0.0, 1.0, 1.0)
    assert polygon_area(inner) == pytest.approx(0.25)


def test_clip_area_never_grows():
    rng = np.random.default_rng(7)
    for _ in range(25):
        pts = rng.uniform(-1.0, 2.0, size=(4, 2))
        quad = ensure_ccw(np.array(
            [[pts[:, 0].min(), pts[:, 1].min()],
             [pts[:, 0].max(), pts[:, 1].min()],
             [pts[:, 0].max(), pts[:, 1].max()],
             [pts[:, 0].min(), pts[:, 1].max()]]))
        clipped = clip_to_box(quad, 0.0, 0.0, 1.0, 1.0)
        a = polygon_area(clipped)
        assert 0.0 <= a <= polygon_area(quad) + 1e-12
        assert a <= 1.0 + 1e-12
