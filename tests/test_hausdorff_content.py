import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beta_targets import hausdorff_content
from beta_targets.errors import ConsistencyError, DomainError
from beta_targets.hausdorff_content import (
    ContentEstimate,
    _column_intervals,
    content_estimates_2d,
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

# a non-convex star: outside the oracle's domain, where it would break the
# mass distribution promise from s = 1.9 on
STAR = [[0.277, 0.389], [0.333, 0.143], [0.417, 0.261], [0.9, 0.255],
        [0.791, 0.6], [0.429, 0.621], [0.447, 0.466], [0.212, 0.486]]

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
# content_estimates_2d (lower, upper) as float.hex for each s in
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
    """The side lengths singular_value_function takes: positive, and in
    any order, which it sorts."""

    def test_valid(self):
        # two sides make a 2-D rectangle, whose exponents reach s = 2
        assert singular_value_function((0.5, 0.1), 2.0) == 0.5 * 0.1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            singular_value_function((0.5, 0.0), 1.0)

    def test_from_lengths_sorts(self):
        for s in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            assert singular_value_function((0.1, 0.5, 0.3), s) == \
                singular_value_function((0.5, 0.3, 0.1), s)


class TestSingularValueFunction:
    def test_frozen_values(self):
        r = (0.5, 0.1)
        assert singular_value_function(r, 1.5) == pytest.approx(
            PHI_HALF_TENTH_15, rel=1e-15)
        assert singular_value_function(r, 2.0) == pytest.approx(
            PHI_HALF_TENTH_2, rel=1e-15)

    def test_cube_case(self):
        r = (0.3, 0.3, 0.3)
        for s in (0.5, 1.0, 1.7, 2.4, 3.0):
            assert singular_value_function(r, s) == pytest.approx(0.3 ** s)

    def test_integer_s_truncates(self):
        r = (0.5, 0.1)
        assert singular_value_function(r, 1.0) == 0.5

    def test_domain(self):
        r = (0.5, 0.1)
        with pytest.raises(DomainError):
            singular_value_function(r, 0.0)
        with pytest.raises(DomainError):
            singular_value_function(r, 2.0001)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
           st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    def test_monotone_in_s(self, sides, f1, f2):
        r = sides
        d = len(r)
        s1, s2 = sorted((f1 * d, f2 * d))
        if s1 <= 0.0:
            s1 = 1e-6
        assert singular_value_function(r, s1) >= singular_value_function(
            r, s2) * (1.0 - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
    def test_continuous_at_integer_s(self, sides):
        r = sides
        for m in range(1, len(r) + 1):
            at = singular_value_function(r, float(m))
            below = singular_value_function(r, m - 1e-9)
            assert at == pytest.approx(below, rel=1e-6)
            if m < len(r):
                above = singular_value_function(r, m + 1e-9)
                assert at == pytest.approx(above, rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
           st.floats(0.1, 1.0), st.floats(0.1, 0.99))
    def test_scaling_law(self, sides, sfrac, lam):
        r = sides
        s = max(1e-6, sfrac * len(r))
        scaled = [lam * a for a in r]
        assert singular_value_function(scaled, s) == pytest.approx(
            lam ** s * singular_value_function(r, s), rel=1e-9)


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
        est = content_estimates_2d(rect_poly(0.0, 0.0, 1.0, 1.0), [2.0])[0]
        assert 1.0 - 1e-9 <= est.upper <= 1.05
        assert est.lower >= 0.25 * (1.0 - 1e-9)
        assert est.lower <= est.upper

    def test_rectangle_hits_sandwich(self):
        poly = rect_poly(0.037, 0.213, 0.5, 0.1)
        r = (0.5, 0.1)
        for s in (0.5, 1.0, 1.3, 1.5, 1.7, 2.0):
            est = content_estimates_2d(poly, [s])[0]
            phi = singular_value_function(r, s)
            # exact-fit anchored mesh exists for this aspect ratio
            assert est.upper <= phi * (1.0 + 1e-9)
            assert est.lower == pytest.approx(phi / 4.0, rel=1e-9)

    def test_segment_like_thin_shape(self):
        poly = rect_poly(0.25, 0.5, 0.5, 0.002)
        for s in (0.5, 0.8, 1.0):
            est = content_estimates_2d(poly, [s])[0]
            assert 0.5 ** s * (1.0 - 1e-9) <= est.upper <= 0.5 ** s * 1.02

    def test_thin_rectangle_far_from_origin(self):
        # at s = 2 the MDP spot check at r = h/8 holds with equality, so
        # the clipped areas must keep the precision of the shape itself
        poly = [[0.8, 0.6], [0.9, 0.6], [0.9, 0.602], [0.8, 0.602]]
        est = content_estimates_2d(poly, [2.0])[0]
        assert est.lower <= est.upper

    @pytest.mark.parametrize("poly", [
        *([[0.1, 0.3], [0.9, 0.3], [0.9, 0.3 + h], [0.1, 0.3 + h]]
          for h in (1e-10, 1e-12, 1e-14)),
        [[0.1, 0.1], [0.9, 0.1 + 1e-14], [0.9, 0.1 + 2e-14],
         [0.1, 0.1 + 1e-14]],
    ], ids=["rect-1e-10", "rect-1e-12", "rect-1e-14", "parallelogram-1e-14"])
    def test_sliver_is_estimated_below_s2(self, poly):
        # a box whose short side is at most 1e-9 of its long one has no
        # remainder tiling: 0.0 would be no cover, and out of order
        x0, y0, x1, y1 = polygon_bbox(np.array(poly))
        r = (x1 - x0, y1 - y0)
        for s, est in zip((0.5, 1.0, 1.5),
                          content_estimates_2d(poly, [0.5, 1.0, 1.5])):
            assert 0.0 < est.lower <= est.upper
            assert est.upper <= singular_value_function(r, s) * 1.1

    @pytest.mark.parametrize("w", [1e-200, 1e-300, 1e-320])
    def test_underflowed_price_is_no_cover(self, w):
        # the meshes of side w / j price count * (w / j)**s, whose power
        # underflows at s = 2 (and whose count overflows at w = 1e-320);
        # left out, they cannot win.  Every square cover of the triangle
        # costs at least its area at s = 2 and, at s <= 1, at least its
        # height 0.8 (its squares' sides add up to 0.8 or more)
        shape = [[0.0, 0.1], [w, 0.1], [0.0, 0.9]]
        area = polygon_area(ensure_ccw(np.array(shape)))
        for s, est in zip((0.5, 1.0, 2.0),
                          content_estimates_2d(shape, [0.5, 1.0, 2.0])):
            assert 0.0 <= est.lower <= est.upper
            assert est.upper >= (area if s == 2.0 else 0.8) * (1.0 - 1e-12)

    def test_underflowed_tiling_is_no_cover(self):
        # a tiling square of side 1e-155 prices 1e-310 at s = 2, below the
        # normal range, where it has lost bits
        assert hausdorff_content._remainder_tiling(1e-150, 1e-155, 2.0) \
            == math.inf
        assert hausdorff_content._remainder_tiling(1e-150, 1e-155, 1.0) \
            < math.inf

    def test_empty_and_degenerate(self):
        est = content_estimates_2d(np.zeros((2, 2)), [1.5])[0]
        assert est.lower == 0.0 and est.upper == 0.0
        line = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        est = content_estimates_2d(line, [1.5])[0]
        assert est.upper == 0.0

    @pytest.mark.parametrize("shape", [
        [[math.nan, 0.0], [0.5, 0.5]],
        [[5.0, 5.0], [6.0, 6.0]],
    ], ids=["nan", "outside"])
    def test_two_vertices_checked(self, shape):
        # a shape of fewer than three vertices has no area, but its
        # vertices are held to the same domain
        with pytest.raises(DomainError) as info:
            content_estimates_2d(shape, [1.0])
        assert info.value.code == "hausdorff_content.domain"

    @pytest.mark.parametrize("depth", [4.5, "7", True],
                             ids=["float", "string", "bool"])
    def test_depths_must_be_integers(self, depth):
        with pytest.raises(DomainError, match=r"integers in \[1, 24\]"):
            content_estimates_2d(CONTENT_SHAPES["triangle"], [1.0],
                                 depths=(depth,))

    def test_numpy_integer_depths(self):
        shape = CONTENT_SHAPES["triangle"]
        assert content_estimates_2d(shape, [1.0], np.arange(4, 7)) == \
            content_estimates_2d(shape, [1.0], (4, 5, 6))

    @pytest.mark.parametrize("shape", [
        STAR,
        STAR[::-1],
        # a pentagram: every turn counterclockwise, but twice around
        [[0.5 + 0.4 * math.sin(k * 4 * math.pi / 5),
          0.5 + 0.4 * math.cos(k * 4 * math.pi / 5)] for k in range(5)],
        # a bowtie, whose signed area is zero
        [[0.1, 0.1], [0.9, 0.9], [0.9, 0.1], [0.1, 0.9]],
        # a square with one vertex pushed in, and a thin rectangle with a
        # long edge bent in by 1e-9
        [[0.1, 0.1], [0.9, 0.1], [0.5, 0.5], [0.9, 0.9], [0.1, 0.9]],
        [[0.1, 0.3], [0.5, 0.3 + 1e-9], [0.9, 0.3], [0.9, 0.301],
         [0.1, 0.301]],
    ], ids=["star", "star-clockwise", "pentagram", "bowtie", "dent",
            "thin-dent"])
    def test_rejects_non_convex(self, shape):
        with pytest.raises(DomainError, match="shape must be convex"):
            content_estimates_2d(shape, [1.0])

    @pytest.mark.parametrize("shape", [
        # the thin rectangle bent in by rounding only
        [[0.1, 0.3], [0.5, 0.3 + 1e-16], [0.9, 0.3], [0.9, 0.301],
         [0.1, 0.301]],
        # a thin sheared parallelogram with a vertex inside each long edge
        [[0.2, 0.4], [0.45, 0.4025], [0.7, 0.405], [0.705, 0.407],
         [0.455, 0.4045], [0.205, 0.402]],
        # collinear and repeated vertices on a convex outline, both ways
        [[0.1, 0.1], [0.3, 0.1], [0.3, 0.1], [0.6, 0.1], [0.6, 0.4],
         [0.1, 0.4]],
        [[0.1, 0.4], [0.6, 0.4], [0.6, 0.1], [0.3, 0.1], [0.1, 0.1]],
        # edges less than 2^-1022 high or wide
        [[0.0, 0.0], [1.0, 5e-324], [1.0, 1e-323], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, 2.2250738585072014e-309], [0.0, 1.0]],
        [[0.0, 0.0], [1.0, 0.0], [5e-324, 1.0]],
    ], ids=["thin-rounding", "sheared", "collinear", "clockwise",
            "subnormal", "flat-edge", "steep-edge"])
    def test_accepts_nearly_degenerate_convex(self, shape):
        got = content_estimates_2d(shape, [1.0, 2.0])
        assert all(0.0 < est.lower <= est.upper for est in got)

    def test_rejects_out_of_square(self):
        with pytest.raises(DomainError):
            content_estimates_2d(rect_poly(0.8, 0.8, 0.5, 0.1), [1.5])

    def test_rejects_bad_s(self):
        with pytest.raises(DomainError):
            content_estimates_2d(rect_poly(0.1, 0.1, 0.5, 0.1), [0.0])

    def test_scaling_law(self):
        big = rect_poly(0.1, 0.1, 0.64, 0.04)
        small = rect_poly(0.1, 0.1, 0.32, 0.02)
        for s in (0.7, 1.4, 2.0):
            up_big = content_estimates_2d(big, [s])[0].upper
            up_small = content_estimates_2d(small, [s])[0].upper
            assert up_small == pytest.approx(0.5 ** s * up_big, rel=0.05)

    def test_thin_random_shapes_within_sandwich(self):
        rng = np.random.default_rng(0)
        shapes = thin_shapes(rng, 20)
        for poly in shapes:
            x0, y0, x1, y1 = polygon_bbox(poly)
            r = (x1 - x0, y1 - y0)
            for s in (0.5, 1.0, 1.3, 1.7, 2.0):
                est = content_estimates_2d(poly, [s])[0]
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
            est = content_estimates_2d(CONTENT_SHAPES[name], [s])[0]
            got.append((est.lower.hex(), est.upper.hex()))
        assert got == CONTENT_HEX[name]

    def test_tolerance_outside_square(self):
        # within 1e-9 of the square a vertex is clamped onto it
        inside = np.array([[0.0, 0.5], [0.6, 0.2], [0.7, 0.9]])
        nudged = inside + np.array([[-1e-10, 0.0], [0.0, 0.0], [0.0, 0.0]])
        for s in CONTENT_S:
            assert content_estimates_2d(nudged, [s])[0] == \
                content_estimates_2d(inside, [s])[0]
        with pytest.raises(DomainError):
            content_estimates_2d(inside - np.array([2e-9, 0.0]), [1.0])


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
    def cells(poly, k, depths=None):
        """Depth k's booked cells, from one kernel call over depths (k
        alone by default)."""
        depths = [k] if depths is None else depths
        lower, upper = envelope_chains(poly)
        x0, _, x1, _ = polygon_bbox(poly)
        by_depth = dict(zip(depths, _column_intervals(lower, upper, x0, x1,
                                                      depths)))
        c0, lo, hi = by_depth[k]
        return {(int(c0) + i, r) for i in range(len(lo))
                for r in range(int(lo[i]), int(hi[i]) + 1)}

    @settings(max_examples=60, deadline=None)
    @given(unit_square_shapes(),
           st.lists(st.integers(1, 5), min_size=1, max_size=4))
    def test_matches_clipping(self, poly, depths):
        """A cell the shape enters by more than d = 1e-9 h is booked; one
        the shape misses by more than d is not."""
        for k in depths:
            h = 2.0 ** -k
            got = self.cells(poly, k, depths)
            d = 1e-9 * h
            x0, y0, x1, y1 = polygon_bbox(poly)
            for c in range(int(x0 / h) - 1, int(x1 / h) + 2):
                for r in range(int(y0 / h) - 1, int(y1 / h) + 2):
                    a, b, lo, hi = c * h, (c + 1) * h, r * h, (r + 1) * h
                    if clip_to_box(poly, a + d, lo + d, b - d,
                                   hi - d).shape[0]:
                        assert (c, r) in got
                    if not clip_to_box(poly, a - d, lo - d, b + d,
                                       hi + d).shape[0]:
                        assert (c, r) not in got

    def test_deep_grid_spans_the_deepest_columns(self):
        # a shape 1e-6 wide spans five columns at depth 22; an edge grid
        # over the union of every listed depth's columns, depth 1's
        # included, would hold about 2^21 edges per array, 16 MB each
        shape = [[0.3, 0.2], [0.300001, 0.2], [0.300001, 0.7], [0.3, 0.7]]
        tracemalloc.start()
        try:
            content_estimates_2d(shape, CONTENT_S, depths=(1, 22))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def convex_hull(points):
    """Counter-clockwise hull of the points (Andrew's monotone chain)."""
    pts = sorted(map(tuple, points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))


@st.composite
def convex_shapes(draw):
    """Triangles, parallelograms and hulls of up to 8 points in the unit
    square."""
    if draw(st.booleans()):
        return draw(unit_square_shapes())
    coord = st.floats(0.0, 1.0)
    pts = [(draw(coord), draw(coord)) for _ in range(draw(st.integers(3, 8)))]
    poly = convex_hull(pts)
    assume(len(poly) >= 3 and polygon_area(poly) > 1e-4)
    return poly


@st.composite
def exponent_lists(draw):
    """Unsorted exponents in (0, 2], each list with a repeat."""
    s = st.one_of(st.sampled_from(CONTENT_S), st.floats(0.01, 2.0))
    exponents = draw(st.lists(s, min_size=1, max_size=5))
    exponents.append(draw(st.sampled_from(exponents)))
    return draw(st.permutations(exponents))


class TestContentBatch:
    @settings(max_examples=60, deadline=None)
    @given(convex_shapes(), exponent_lists(),
           st.one_of(st.none(), st.lists(st.integers(1, 13), min_size=1,
                                         max_size=5)))
    def test_equals_per_exponent_calls(self, poly, exponents, depths):
        def bits(est):
            return est.lower.hex(), est.upper.hex()

        got = content_estimates_2d(poly, exponents, depths)
        assert [bits(est) for est in got] == [
            bits(content_estimates_2d(poly, [s], depths)[0])
            for s in exponents]

    def test_frozen_values_in_one_batch(self):
        for name, want in CONTENT_HEX.items():
            got = content_estimates_2d(CONTENT_SHAPES[name],
                                       CONTENT_S[::-1] + CONTENT_S)
            assert [(e.lower.hex(), e.upper.hex()) for e in got] == \
                want[::-1] + want

    # each later s is checked just before its own estimate, so after the
    # spot check of an earlier one (the CLI tests pin the other orders);
    # a convex shape passes its spot checks, so the one at s = 2.0 is made
    # to fail
    @pytest.mark.parametrize("exponents, kind, message", [
        ([1.0, 2.0, 3.0], ConsistencyError, "spot check failed at s=2.0"),
        ([1.0, 3.0, 2.0], DomainError, "s must lie in (0, 2], got 3.0"),
    ], ids=["consistency-first", "domain-first"])
    def test_errors_in_per_exponent_order(self, monkeypatch, exponents, kind,
                                          message):
        def failing_at_two(query, mass, c, s, **kwargs):
            if s == 2.0:
                raise ConsistencyError("spot check failed at s=2.0")
            return mdp_lower_bound(query, mass, c, s, **kwargs)

        monkeypatch.setattr(hausdorff_content, "mdp_lower_bound",
                            failing_at_two)
        with pytest.raises(kind) as info:
            content_estimates_2d(CONTENT_SHAPES["triangle"], exponents)
        assert str(info.value) == message

    def test_no_exponents(self):
        # no estimate, so no check of the shape either
        assert content_estimates_2d([[2.0, 2.0]] * 3, []) == []


class TestContentEstimateInvariant:
    def test_rejects_inverted(self):
        with pytest.raises(ConsistencyError):
            ContentEstimate(1.0, 0.5)
