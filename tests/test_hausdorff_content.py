import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beta_targets.errors import ConsistencyError, DomainError
from beta_targets.hausdorff_content import (
    ContentEstimate,
    SortedRectangle,
    _column_intervals,
    brute_force_content_2d,
    content_sandwich,
    mdp_lower_bound,
    singular_value_function,
)
from beta_targets.polygons import (
    ensure_ccw,
    envelope_chains,
    parallelogram_polygon,
    polygon_area,
    polygon_bbox,
)
from clipping import clip_to_box

# frozen independent-oracle values
PHI_HALF_TENTH_15 = 0.15811388300841897  # 0.5 * sqrt(0.1)
PHI_HALF_TENTH_2 = 0.05

CONTENT_S = (0.5, 1.0, 1.3, 1.7, 2.0)
CONTENT_SHAPES = {
    "triangle": [[0.1, 0.1], [0.7, 0.2], [0.3, 0.8]],
    "wide-triangle": [[0.05, 0.9], [0.95, 0.85], [0.5, 0.1]],
    "sliver-triangle": [[0.2, 0.3], [0.21, 0.31], [0.6, 0.32]],
    "grid-triangle": [[0.1, 0.1], [0.5, 0.1], [0.5, 0.5]],
    "skew-triangle": [[0.33, 0.17], [0.81, 0.44], [0.12, 0.63]],
    "thin-rectangle": [[0.037, 0.213], [0.537, 0.213], [0.537, 0.313],
                       [0.037, 0.313]],
    "sheared": [[0.1, 0.4], [0.6, 0.45], [0.61, 0.47], [0.11, 0.42]],
    "tilted": [[0.2, 0.2], [0.8, 0.5], [0.79, 0.52], [0.19, 0.22]],
    "grid-square": [[0.25, 0.25], [0.5, 0.25], [0.5, 0.5], [0.25, 0.5]],
    "far-sliver": [[0.8, 0.6], [0.9, 0.6], [0.9, 0.602], [0.8, 0.602]],
    "steep": [[0.4, 0.05], [0.43, 0.05], [0.53, 0.95], [0.5, 0.95]],
}
# brute_force_content_2d (lower, upper) as float.hex for each s in
# CONTENT_S: any change to the oracle's arithmetic shows here
CONTENT_HEX = {
    "triangle": [
        ("0x1.97f8ab65c79afp-4", "0x1.ac5eb3f7ab2f8p-1"),
        ("0x1.5555555555556p-4", "0x1.6666666666667p-1"),
        ("0x1.24d5f2e8c7167p-4", "0x1.4207e29c0d5e6p-1"),
        ("0x1.dd6f732f2e332p-5", "0x1.b8cb1470775c0p-2"),
        ("0x1.999999999999ap-5", "0x1.9a3f900000000p-3"),
    ],
    "wide-triangle": [
        ("0x1.d68c02ad10a28p-4", "0x1.e5b9d136c6d96p-1"),
        ("0x1.be66666666665p-4", "0x1.cccccccccccccp-1"),
        ("0x1.a17eb23b737eep-4", "0x1.be76765499c1dp-1"),
        ("0x1.7dd855e001786p-4", "0x1.6a4abccd885e9p-1"),
        ("0x1.651eb851eb852p-4", "0x1.658fb40000000p-2"),
    ],
    "sliver-triangle": [
        ("0x1.33a059d5e4569p-5", "0x1.43d136248490fp-1"),
        ("0x1.851eb851eb853p-6", "0x1.9999999999998p-2"),
        ("0x1.e1573511d103fp-8", "0x1.d69d21644cd2ap-4"),
        ("0x1.92a5a5c16be25p-10", "0x1.da928e2d1054ap-7"),
        ("0x1.f212d77318fcdp-12", "0x1.06a6000000000p-9"),
    ],
    "grid-triangle": [
        ("0x1.43d136248490fp-4", "0x1.43d136248490fp-1"),
        ("0x1.999999999999ap-5", "0x1.999999999999ap-2"),
        ("0x1.3727e49adfad4p-5", "0x1.3727e49adfad4p-2"),
        ("0x1.af5a249550820p-6", "0x1.9c8d9a4889a08p-3"),
        ("0x1.47ae147ae147cp-6", "0x1.48ebb00000000p-4"),
    ],
    "skew-triangle": [
        ("0x1.73d5d3aa5e686p-4", "0x1.a94c948e4800fp-1"),
        ("0x1.34de9bd37a6f5p-4", "0x1.6147ae147ae15p-1"),
        ("0x1.e95d4feea44cap-5", "0x1.3c10268902b22p-1"),
        ("0x1.66b41782def53p-5", "0x1.38f4d6c4a88c7p-2"),
        ("0x1.1c28f5c28f5c3p-5", "0x1.1cba400000000p-3"),
    ],
    "thin-rectangle": [
        ("0x1.6a09e667f3bcdp-3", "0x1.6a09e667f3bcdp-1"),
        ("0x1.0000000000000p-3", "0x1.0000000000000p-1"),
        ("0x1.009b9cf334252p-4", "0x1.009b9cf334252p-2"),
        ("0x1.98a13577c93c1p-6", "0x1.98a13577c93c0p-4"),
        ("0x1.999999999999ap-7", "0x1.9999999999999p-5"),
    ],
    "sheared": [
        ("0x1.8532a61fcf425p-5", "0x1.6da4217576971p-1"),
        ("0x1.15f15f15f15ebp-5", "0x1.051eb851eb852p-1"),
        ("0x1.f4a98ed137f37p-7", "0x1.d497fb2856d17p-3"),
        ("0x1.59a1d4912683bp-8", "0x1.6eeb1ff54c3b3p-5"),
        ("0x1.374bc6a7ef9d0p-9", "0x1.3bd3800000000p-7"),
    ],
    "tilted": [
        ("0x1.eba95fdbe7aedp-7", "0x1.8fe2812a529eep-1"),
        ("0x1.8000000000006p-7", "0x1.3851eb851eb86p-1"),
        ("0x1.10d1ec1106ceep-7", "0x1.420e123d444b6p-2"),
        ("0x1.59e996ecdf429p-8", "0x1.14ffe6ddfd14fp-4"),
        ("0x1.eb851eb851ec1p-9", "0x1.f370800000000p-7"),
    ],
    "grid-square": [
        ("0x1.0000000000000p-3", "0x1.0000000000000p-1"),
        ("0x1.0000000000000p-4", "0x1.0000000000000p-2"),
        ("0x1.51cb453b9536cp-5", "0x1.51cb453b9536cp-3"),
        ("0x1.8406003b2ae5dp-6", "0x1.8406003b2ae5dp-4"),
        ("0x1.0000000000000p-6", "0x1.ffffffffffffep-5"),
    ],
    "far-sliver": [
        ("0x1.43d136248490ep-4", "0x1.43d136248490ep-2"),
        ("0x1.9999999999998p-6", "0x1.9999999999998p-4"),
        ("0x1.fbe0a0d099dbap-9", "0x1.fbe0a0d099db8p-7"),
        ("0x1.52449bd052015p-12", "0x1.52449bd052010p-10"),
        ("0x1.a36e2eb1c4332p-15", "0x1.a36e2eb1c4329p-13"),
    ],
    "steep": [
        ("0x1.c05cc11edef00p-5", "0x1.e5b9d136c6d96p-1"),
        ("0x1.a95a95a95a959p-5", "0x1.cccccccccccccp-1"),
        ("0x1.cd475668095edp-6", "0x1.e8fb5c2c14a97p-2"),
        ("0x1.97ea7c9fa4fbep-7", "0x1.bc098a16c253dp-4"),
        ("0x1.ba5e353f7ced7p-8", "0x1.be98000000000p-6"),
    ],
}


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
                c = polygon_area(poly) / ((x1 - x0) * (y1 - y0))
                assert est.lower >= c * 0.25 * phi * (1.0 - 0.1)
                assert est.lower <= est.upper * (1.0 + 1e-12)


class TestFrozenContent:
    @pytest.mark.parametrize("name", sorted(CONTENT_SHAPES))
    def test_bit_identical(self, name):
        got = []
        for s in CONTENT_S:
            est = brute_force_content_2d(CONTENT_SHAPES[name], s)
            got.append((est.lower.hex(), est.upper.hex()))
        assert got == CONTENT_HEX[name]

    def test_tolerance_outside_square(self):
        # within 1e-9 of the square a vertex is clamped onto it
        inside = np.array([[0.0, 0.5], [0.6, 0.2], [0.7, 0.9]])
        nudged = inside + np.array([[-1e-10, 0.0], [0.0, 0.0], [0.0, 0.0]])
        for s in CONTENT_S:
            assert brute_force_content_2d(nudged, s) == \
                brute_force_content_2d(inside, s)
        with pytest.raises(DomainError):
            brute_force_content_2d(inside - np.array([2e-9, 0.0]), 1.0)


@st.composite
def unit_square_shapes(draw):
    """Triangles and parallelograms inside the unit square, with vertices
    often on dyadic grid lines."""
    coord = st.one_of(st.floats(0.01, 0.99),
                      st.integers(1, 63).map(lambda i: i / 64.0))
    pts = np.array([[draw(coord), draw(coord)] for _ in range(3)])
    if draw(st.booleans()):
        poly = ensure_ccw(pts)
    else:
        poly = parallelogram_polygon(pts[0], pts[1] - pts[0],
                                     0.3 * (pts[2] - pts[0]))
    assume(np.all((poly >= 0.0) & (poly <= 1.0)))
    assume(abs(polygon_area(poly)) > 1e-4)
    return poly


class TestColumnCells:
    def test_boundary_rule(self):
        # a low edge touching the shape books the cell, a high edge does
        # not, except a column's right edge inside the x-extent: the
        # triangle's corner (0.25, 0.25) books cell (0, 1)
        cases = [
            (CONTENT_SHAPES["grid-square"],
             {(1, 1), (1, 2), (2, 1), (2, 2)}),
            (CONTENT_SHAPES["grid-triangle"],
             {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
              (2, 2)}),
        ]
        for poly, want in cases:
            assert self.cells(ensure_ccw(poly), 2) == want

    @staticmethod
    def cells(poly, k):
        lower, upper = envelope_chains(poly)
        x0, _, x1, _ = polygon_bbox(poly)
        c0, lo, hi = _column_intervals(lower, upper, x0, x1, k)
        return {(int(c0) + i, r) for i in range(len(lo))
                for r in range(int(lo[i]), int(hi[i]) + 1)}

    @settings(max_examples=60, deadline=None)
    @given(unit_square_shapes(), st.integers(1, 5))
    def test_matches_clipping(self, poly, k):
        """A cell the shape enters by more than d = 1e-9 h is booked; one
        the shape misses by more than d is not."""
        h = 2.0 ** -k
        got = self.cells(poly, k)
        d = 1e-9 * h
        x0, y0, x1, y1 = polygon_bbox(poly)
        for c in range(int(x0 / h) - 1, int(x1 / h) + 2):
            for r in range(int(y0 / h) - 1, int(y1 / h) + 2):
                a, b, lo, hi = c * h, (c + 1) * h, r * h, (r + 1) * h
                if clip_to_box(poly, a + d, lo + d, b - d, hi - d).shape[0]:
                    assert (c, r) in got
                if not clip_to_box(poly, a - d, lo - d, b + d,
                                   hi + d).shape[0]:
                    assert (c, r) not in got


class TestContentEstimateInvariant:
    def test_rejects_inverted(self):
        with pytest.raises(ConsistencyError):
            ContentEstimate(1.0, 0.5, (0.25,))
