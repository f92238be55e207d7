import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.errors import ConsistencyError, DomainError
from beta_targets.hausdorff_content import (
    ContentEstimate,
    SortedRectangle,
    brute_force_content_2d,
    content_sandwich,
    mdp_lower_bound,
    singular_value_function,
)
from beta_targets.polygons import ensure_ccw, polygon_bbox

# frozen independent-oracle values
PHI_HALF_TENTH_15 = 0.15811388300841897  # 0.5 * sqrt(0.1)
PHI_HALF_TENTH_2 = 0.05


def rect_poly(x0, y0, w, h):
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])


def thin_shapes(rng, count):
    """Random thin rectangles, sheared parallelograms, and mildly rotated
    rectangles; bounding-box aspect stays below 0.1."""
    shapes = []
    while len(shapes) < count:
        w = rng.uniform(0.1, 0.6)
        aspect = math.exp(rng.uniform(math.log(0.02), math.log(0.075)))
        h = w * aspect
        kind = int(rng.integers(0, 3))
        if kind == 0:
            cols = np.array([[w, 0.0], [0.0, h]])
        elif kind == 1:
            shear = rng.uniform(-2.0, 2.0) * h
            cols = np.array([[w, shear], [0.0, h]])
        else:
            theta = rng.uniform(-0.25, 0.25) * aspect
            c, s = math.cos(theta), math.sin(theta)
            cols = np.array([[c, -s], [s, c]]) @ np.array([[w, 0.0],
                                                           [0.0, h]])
        corners = np.array([[0.0, 0.0], cols[:, 0],
                            cols[:, 0] + cols[:, 1], cols[:, 1]])
        span = corners.max(axis=0) - corners.min(axis=0)
        if span.max() >= 0.98:
            continue
        x0 = rng.uniform(0.001, 0.999 - span[0]) - corners[:, 0].min()
        y0 = rng.uniform(0.001, 0.999 - span[1]) - corners[:, 1].min()
        shapes.append(ensure_ccw(corners + np.array([x0, y0])))
    return shapes


class TestSortedRectangle:
    def test_valid(self):
        r = SortedRectangle((0.5, 0.1))
        assert r.dimension == 2
        assert r.volume == pytest.approx(0.05)

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            SortedRectangle((0.1, 0.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            SortedRectangle((0.5, 0.0))

    def test_from_lengths_sorts(self):
        r = SortedRectangle.from_lengths((0.1, 0.5, 0.3))
        assert r.side_lengths == (0.5, 0.3, 0.1)


class TestSingularValueFunction:
    def test_frozen_values(self):
        r = SortedRectangle((0.5, 0.1))
        assert singular_value_function(r, 1.5) == pytest.approx(
            PHI_HALF_TENTH_15, rel=1e-15)
        assert singular_value_function(r, 2.0) == pytest.approx(
            PHI_HALF_TENTH_2, rel=1e-15)

    def test_cube_case(self):
        r = SortedRectangle((0.3, 0.3, 0.3))
        for s in (0.5, 1.0, 1.7, 2.4, 3.0):
            assert singular_value_function(r, s) == pytest.approx(0.3 ** s)

    def test_integer_s_truncates(self):
        r = SortedRectangle((0.5, 0.1))
        assert singular_value_function(r, 1.0) == 0.5

    def test_domain(self):
        r = SortedRectangle((0.5, 0.1))
        with pytest.raises(DomainError):
            singular_value_function(r, 0.0)
        with pytest.raises(DomainError):
            singular_value_function(r, 2.0001)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_monotone_in_s(self, sides, f1, f2):
        r = SortedRectangle.from_lengths(sides)
        d = r.dimension
        s1, s2 = sorted((f1 * d, f2 * d))
        if s1 <= 0.0:
            s1 = 1e-6
        assert singular_value_function(r, s1) >= singular_value_function(
            r, s2) * (1.0 - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
    def test_continuous_at_integer_s(self, sides):
        r = SortedRectangle.from_lengths(sides)
        for m in range(1, r.dimension + 1):
            at = singular_value_function(r, float(m))
            below = singular_value_function(r, m - 1e-9)
            assert at == pytest.approx(below, rel=1e-6)
            if m < r.dimension:
                above = singular_value_function(r, m + 1e-9)
                assert at == pytest.approx(above, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
           st.floats(0.1, 1.0), st.floats(0.1, 0.99))
    def test_scaling_law(self, sides, sfrac, lam):
        r = SortedRectangle.from_lengths(sides)
        s = max(1e-6, sfrac * r.dimension)
        scaled = SortedRectangle.from_lengths(
            [lam * a for a in r.side_lengths])
        assert singular_value_function(scaled, s) == pytest.approx(
            lam ** s * singular_value_function(r, s), rel=1e-9)


class TestContentSandwich:
    def test_plug_constants(self):
        r = SortedRectangle((0.5, 0.1))
        lo, up = content_sandwich(r, 1.0, 1.5)
        assert up == pytest.approx(PHI_HALF_TENTH_15)
        assert lo == pytest.approx(PHI_HALF_TENTH_15 / 4.0)

    def test_box_fraction_constant(self):
        # a parallelepiped fills 2^(-d(d+1)) of its bounding box, so the
        # content lower bound becomes 2^(-d(d+2)) phi^s
        d = 2
        r = SortedRectangle((0.5, 0.1))
        lo, up = content_sandwich(r, 2.0 ** (-d * (d + 1)), 1.5)
        assert lo == pytest.approx(2.0 ** (-d * (d + 2)) * up)

    def test_s_equals_d(self):
        r = SortedRectangle((0.5, 0.1))
        lo, up = content_sandwich(r, 0.5, 2.0)
        assert up == pytest.approx(r.volume)
        assert lo == pytest.approx(0.5 * 0.25 * r.volume)

    def test_validates_fraction(self):
        r = SortedRectangle((0.5, 0.1))
        with pytest.raises(DomainError):
            content_sandwich(r, 0.0, 1.5)
        with pytest.raises(DomainError):
            content_sandwich(r, 1.5, 1.5)


class TestMassDistribution:
    @staticmethod
    def lebesgue_square(center, r):
        cx, cy = center
        w = max(0.0, min(cx + r, 1.0) - max(cx - r, 0.0))
        h = max(0.0, min(cy + r, 1.0) - max(cy - r, 0.0))
        return w * h

    def test_lebesgue_on_unit_square(self):
        checks = [((0.5, 0.5), r) for r in (0.05, 0.2, 0.5)]
        bound = mdp_lower_bound(self.lebesgue_square, 1.0, 4.0, 2.0,
                                spot_check=checks)
        assert bound == pytest.approx(0.25)

    def test_doubling_c_halves_bound(self):
        b1 = mdp_lower_bound(self.lebesgue_square, 1.0, 4.0, 2.0)
        b2 = mdp_lower_bound(self.lebesgue_square, 1.0, 8.0, 2.0)
        assert b2 == pytest.approx(b1 / 2.0)

    def test_invalid_constant(self):
        with pytest.raises(DomainError):
            mdp_lower_bound(self.lebesgue_square, 1.0, 0.0, 2.0)

    def test_spot_check_catches_violation(self):
        with pytest.raises(ConsistencyError):
            mdp_lower_bound(self.lebesgue_square, 1.0, 0.5, 2.0,
                            spot_check=[((0.5, 0.5), 0.5)])


class TestBruteForce:
    def test_unit_square(self):
        est = brute_force_content_2d(rect_poly(0.0, 0.0, 1.0, 1.0), 2.0)
        assert 1.0 - 1e-9 <= est.upper <= 1.05
        assert est.lower >= 0.25 * (1.0 - 1e-9)
        assert est.lower <= est.upper

    def test_rectangle_hits_sandwich(self):
        poly = rect_poly(0.037, 0.213, 0.5, 0.1)
        r = SortedRectangle((0.5, 0.1))
        for s in (0.5, 1.0, 1.3, 1.5, 1.7, 2.0):
            est = brute_force_content_2d(poly, s)
            phi = singular_value_function(r, s)
            # exact-fit anchored mesh exists for this aspect ratio
            assert est.upper <= phi * (1.0 + 1e-9)
            assert est.lower == pytest.approx(phi / 4.0, rel=1e-9)

    def test_segment_like_thin_shape(self):
        poly = rect_poly(0.25, 0.5, 0.5, 0.002)
        for s in (0.5, 0.8, 1.0):
            est = brute_force_content_2d(poly, s)
            assert 0.5 ** s * (1.0 - 1e-9) <= est.upper <= 0.5 ** s * 1.02

    def test_thin_rectangle_far_from_origin(self):
        # at s = 2 the MDP spot check at r = h/8 holds with equality, so
        # the clipped areas must keep the precision of the shape itself
        poly = [[0.8, 0.6], [0.9, 0.6], [0.9, 0.602], [0.8, 0.602]]
        est = brute_force_content_2d(poly, 2.0)
        assert est.lower <= est.upper

    def test_empty_and_degenerate(self):
        est = brute_force_content_2d(np.zeros((2, 2)), 1.5)
        assert est.lower == 0.0 and est.upper == 0.0
        line = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        est = brute_force_content_2d(line, 1.5)
        assert est.upper == 0.0

    def test_rejects_out_of_square(self):
        with pytest.raises(DomainError):
            brute_force_content_2d(rect_poly(0.8, 0.8, 0.5, 0.1), 1.5)

    def test_rejects_bad_s(self):
        with pytest.raises(DomainError):
            brute_force_content_2d(rect_poly(0.1, 0.1, 0.5, 0.1), 0.0)

    def test_scaling_law(self):
        big = rect_poly(0.1, 0.1, 0.64, 0.04)
        small = rect_poly(0.1, 0.1, 0.32, 0.02)
        for s in (0.7, 1.4, 2.0):
            up_big = brute_force_content_2d(big, s).upper
            up_small = brute_force_content_2d(small, s).upper
            assert up_small == pytest.approx(0.5 ** s * up_big, rel=0.05)

    def test_scale_grid_reported(self):
        est = brute_force_content_2d(rect_poly(0.1, 0.1, 0.5, 0.1), 1.5,
                                     depths=(4, 6))
        assert est.scale_grid == (2.0 ** -4, 2.0 ** -6)

    def test_thin_random_shapes_within_sandwich(self):
        rng = np.random.default_rng(0)
        shapes = thin_shapes(rng, 20)
        for poly in shapes:
            x0, y0, x1, y1 = polygon_bbox(poly)
            r = SortedRectangle.from_lengths((x1 - x0, y1 - y0))
            for s in (0.5, 1.0, 1.3, 1.7, 2.0):
                est = brute_force_content_2d(poly, s)
                phi = singular_value_function(r, s)
                assert est.upper <= phi * 1.1
                from beta_targets.polygons import polygon_area
                c = polygon_area(poly) / ((x1 - x0) * (y1 - y0))
                assert est.lower >= c * 0.25 * phi * (1.0 - 0.1)
                assert est.lower <= est.upper * (1.0 + 1e-12)


class TestContentEstimateInvariant:
    def test_rejects_inverted(self):
        with pytest.raises(ConsistencyError):
            ContentEstimate(1.0, 0.5, (0.25,))
