import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.dimension_engine import LinearFamily
from beta_targets.errors import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ScaleRangeError,
)
from beta_targets.parallelepiped_geometry import (
    BetaSystem,
    Parallelepiped,
    bounding_hyperrectangle,
    _rotation_rows,
    pivoted_orthogonalize,
    scale_by_f,
)
from frame_reference import scaled_frame

# Frozen oracle values (exact Fraction arithmetic, independent script).
# 2-D worked case: columns (1,0) and (3,3).
WORKED_COLS = np.array([[1.0, 3.0], [0.0, 3.0]])
WORKED_PERM = (2, 1)
WORKED_GAMMA1 = (3.0, 3.0)
WORKED_GAMMA2 = (0.5, -0.5)
WORKED_NORMS = (4.242640687119285, 0.7071067811865476)
WORKED_U01 = 1.0 / 6.0
WORKED_VOLUME = 3.0
WORKED_HALF_EXTENTS = (16.97056274847714, 2.8284271247461903)

# 4x4 integer case, |det| = 10.
INT4_COLS = np.array([
    [2.0, 1.0, 0.0, 3.0],
    [0.0, 1.0, 4.0, 1.0],
    [1.0, 0.0, 2.0, 0.0],
    [3.0, 1.0, 1.0, 2.0],
])
INT4_PERM = (3, 1, 4, 2)
INT4_NORMS = (4.58257569495584, 3.5790395093549625,
              1.8871508392184302, 0.32308533487561925)
INT4_U_ROW0 = (1.0, 0.23809523809523808, 0.2857142857142857,
               0.23809523809523808)
INT4_U_ROW1 = (0.0, 1.0, 0.8252788104089219, 0.29739776951672864)
INT4_U_ROW2 = (0.0, 0.0, 1.0, 0.40083507306889354)

# Extreme-scale 2-D case (mpmath at 80 digits): columns
# (2^-100, 2^-200) and (-2^-100, 2^-200).
EXTREME_LOG2_NORMS = (-100.0, -199.0)


def scaled_form(m):
    m = np.asarray(m, dtype=float)
    with np.errstate(divide="ignore"):
        lm = np.log2(np.abs(m))
    return np.sign(m), lm


def qr_reference(cols, permutation):
    """Frame of cols in the given pivot order from numpy's QR: the norms
    |diag R|, U = R / diag(R), and for each step k the largest residual
    of a column at or after k against the k pivots before it (the pivot
    norm must reach it)."""
    r = np.linalg.qr(cols[:, np.asarray(permutation) - 1], mode="r")
    d = r.shape[0]
    reach = np.array([max(np.linalg.norm(r[k:m + 1, m]) for m in range(k, d))
                      for k in range(d)])
    return np.abs(np.diag(r)), r / np.diag(r)[:, None], reach


def stretched_u(frame):
    """frame with U[0, d-1] raised to 2^d, past the pivot bound; U is a
    cached property, so the frozen frame takes it in its __dict__."""
    u = frame.U.copy()
    u[0, -1] = 2.0 ** frame.dimension
    frame.__dict__["U"] = u
    return frame


def box_contains(p, point, rtol=1e-9) -> bool:
    """Whether point lies in the bounding box of the parallelepiped p,
    centred at its origin along its frame axes, with the half extents of
    bounding_hyperrectangle widened by rtol."""
    frame = pivoted_orthogonalize(p)
    half = np.exp2(bounding_hyperrectangle(frame))
    axes = frame.gammas / frame.norms
    coords = axes.T @ (np.asarray(point, dtype=float) - p.origin)
    return bool(np.all(np.abs(coords) <= half * (1.0 + rtol)))


class TestWorkedExample:
    def test_permutation_and_gammas(self):
        frame = pivoted_orthogonalize(WORKED_COLS)
        assert frame.permutation == WORKED_PERM
        assert frame.gammas[:, 0] == pytest.approx(WORKED_GAMMA1)
        assert frame.gammas[:, 1] == pytest.approx(WORKED_GAMMA2)
        assert tuple(frame.norms) == pytest.approx(WORKED_NORMS)

    def test_u_entry_sign_and_value(self):
        frame = pivoted_orthogonalize(WORKED_COLS)
        assert frame.U[0, 0] == 1.0 and frame.U[1, 1] == 1.0
        assert frame.U[1, 0] == 0.0
        assert frame.U[0, 1] == pytest.approx(WORKED_U01, abs=1e-15)

    def test_reconstruction(self):
        frame = pivoted_orthogonalize(WORKED_COLS)
        perm0 = [i - 1 for i in frame.permutation]
        assert np.allclose(WORKED_COLS[:, perm0], frame.gammas @ frame.U)

    def test_volume_and_box(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        assert 2.0 ** p.log2_volume == pytest.approx(WORKED_VOLUME)
        box = bounding_hyperrectangle(pivoted_orthogonalize(p))
        assert tuple(np.exp2(box)) == pytest.approx(WORKED_HALF_EXTENTS)
        # box volume relation: vol(P) = 2^(-d(d+1)) vol(R), the sides of
        # R twice the half extents
        assert 2.0 ** (sum(box) + 2 - 6) == pytest.approx(WORKED_VOLUME)

    def test_box_contains_all_vertices(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        for v in p.vertices():
            assert box_contains(p, v)


class TestInteger4x4:
    def test_frozen_frame(self):
        frame = pivoted_orthogonalize(INT4_COLS)
        assert frame.permutation == INT4_PERM
        assert tuple(frame.norms) == pytest.approx(INT4_NORMS)
        assert tuple(frame.U[0]) == pytest.approx(INT4_U_ROW0)
        assert tuple(frame.U[1]) == pytest.approx(INT4_U_ROW1)
        assert tuple(frame.U[2]) == pytest.approx(INT4_U_ROW2)

    def test_norm_product_is_det(self):
        frame = pivoted_orthogonalize(INT4_COLS)
        assert float(np.prod(frame.norms)) == pytest.approx(10.0)

    def test_norms_non_increasing(self):
        frame = pivoted_orthogonalize(INT4_COLS)
        assert np.all(np.diff(frame.norms) <= 1e-12)

    def test_volume(self):
        p = Parallelepiped(np.zeros(4), INT4_COLS)
        assert 2.0 ** p.log2_volume == pytest.approx(10.0)


class TestSimpleCases:
    def test_identity_cube(self):
        frame = pivoted_orthogonalize(np.eye(3))
        assert frame.permutation == (1, 2, 3)  # ties go to smaller index
        assert np.allclose(frame.gammas, np.eye(3))
        assert np.allclose(frame.U, np.eye(3))
        assert bounding_hyperrectangle(frame) == (3.0, 3.0, 3.0)

    def test_axis_rectangle_pivots_long_side(self):
        cols = np.array([[1.0, 0.0], [0.0, 5.0]])
        frame = pivoted_orthogonalize(cols)
        assert cols.flags.writeable
        assert frame.permutation == (2, 1)
        assert frame.gammas[:, 0] == pytest.approx((0.0, 5.0))
        assert frame.gammas[:, 1] == pytest.approx((1.0, 0.0))
        assert frame.U[0, 1] == 0.0

    def test_degenerate_columns_raise(self):
        with pytest.raises(DegenerateInputError):
            pivoted_orthogonalize(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("scale", [0.0])
    def test_zero_or_underflowing_columns_raise(self, scale):
        with pytest.raises(DegenerateInputError):
            pivoted_orthogonalize(scale * np.eye(2))

    @pytest.mark.parametrize("scale", [1e-320, 1e-170])
    def test_underflowing_columns_stay_exact(self, scale):
        # squared norms underflow to 0 here; the log-domain frame does not
        frame = pivoted_orthogonalize(scale * np.eye(2))
        assert frame.permutation == (1, 2)
        assert frame.log2_norms == (math.log2(scale), math.log2(scale))
        assert np.array_equal(frame.U, np.eye(2))
        assert np.array_equal(frame.gammas, scale * np.eye(2))

    def test_float_norms_within_log_domain_bound(self):
        # norms is 2**log2_norms: a half-ulp error in a log2 near -565
        # becomes a relative error of a few 1e-14 in the norm
        frame = pivoted_orthogonalize(1e-170 * np.eye(2))
        for norm, log2_norm in zip(frame.norms, frame.log2_norms):
            assert abs(norm / 1e-170 - 1) <= abs(log2_norm) * 2.0 ** -52

    def test_constructor_rejects_dependent_columns(self):
        with pytest.raises(DegenerateInputError):
            Parallelepiped((0.0, 0.0), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_constructor_rejects_zero_column(self):
        with pytest.raises(DegenerateInputError):
            Parallelepiped((0.0, 0.0), np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            Parallelepiped((0.0,), np.eye(2))
        with pytest.raises(DomainError):
            pivoted_orthogonalize(np.ones((2, 3)))

    @pytest.mark.parametrize("call, what", [
        (lambda: Parallelepiped([0, 0], [[1, 0], [0]]), "the matrix"),
        (lambda: pivoted_orthogonalize([[1, 0], [0]]), "the matrix"),
        (lambda: Parallelepiped([0, 0], [[{}, 0], [0, 1]]), "the matrix"),
        (lambda: Parallelepiped(["x", 0], np.eye(2)), "origin"),
        (lambda: Parallelepiped([0, [0]], np.eye(2)), "origin"),
        (lambda: Parallelepiped([0, 0], [[10 ** 400, 0], [0, 1]]),
         "the matrix"),
        (lambda: Parallelepiped([10 ** 400, 0], np.eye(2)), "origin"),
        (lambda: LinearFamily([[1, 0], [0]], (1, 1)), "the matrix"),
        (lambda: LinearFamily([["x", 0], [0, 1]], (1, 1)), "the matrix"),
        (lambda: LinearFamily([[10 ** 400, 0], [0, 1]], (1, 1)),
         "the matrix"),
        (lambda: LinearFamily(np.eye(2), (1, 1), ["x", 0]), "origin"),
    ], ids=["ragged-columns", "ragged-orthogonalize", "dict-entry",
            "str-origin", "ragged-origin", "huge-int-columns", "huge-int-origin", "ragged-linear-rows",
            "str-linear-row", "huge-int-linear-rows", "str-linear-origin"])
    def test_ragged_or_non_numeric_input(self, call, what):
        # a bare ValueError, TypeError or OverflowError escaped before
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "parallelepiped_geometry.domain"
        assert str(info.value) == f"{what} must be a regular array of numbers"


class TestScaledRoute:
    def test_matches_plain_on_moderate_matrix(self):
        # the plain reference is numpy's QR of the pivoted columns
        sframe = scaled_frame(*scaled_form(INT4_COLS))
        norms, u, reach = qr_reference(INT4_COLS, sframe.permutation)
        assert sframe.permutation == INT4_PERM
        assert np.all(norms >= reach * (1.0 - 1e-12))
        assert np.allclose(np.exp2(sframe.log2_norms), norms,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(sframe.U, u, rtol=1e-12, atol=1e-15)

    def test_extreme_scales(self):
        signs = np.array([[1.0, -1.0], [1.0, 1.0]])
        lm = np.array([[-100.0, -100.0], [-200.0, -200.0]])
        sframe = scaled_frame(signs, lm)
        assert sframe.permutation == (1, 2)
        assert tuple(sframe.log2_norms) == pytest.approx(EXTREME_LOG2_NORMS,
                                                         abs=1e-12)

    def test_anti_parallel_contraction_family(self):
        # columns of a rotated square contracted n-fold per axis; a
        # float residual loses the last norm past n ~ 50, the log-domain
        # minors keep it: norms must satisfy prod = |det| at any n
        for n in (10, 60, 120, 300, 5000):
            lg1, lg2 = n * math.log2(2.0), n * math.log2(4.0)
            c = math.cos(math.pi / 4)
            signs = np.array([[1.0, -1.0], [1.0, 1.0]])
            lm = np.array([[math.log2(c) - lg1] * 2,
                           [math.log2(c) - lg2] * 2])
            sframe = scaled_frame(signs, lm)
            # det = 2 c^2 * 2^-(lg1+lg2); log2 sum of norms must match
            expect = 1.0 + 2.0 * math.log2(c) - lg1 - lg2
            assert float(np.sum(sframe.log2_norms)) == pytest.approx(
                expect, abs=1e-9)
            assert sframe.log2_norms[0] >= sframe.log2_norms[1]

    def test_zero_column_raises(self):
        signs = np.array([[0.0, 1.0], [0.0, 1.0]])
        lm = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
        with pytest.raises(DegenerateInputError):
            scaled_frame(signs, lm)

    @pytest.mark.parametrize("signs, lm", [
        ([["x"]], [[0.0]]),
        ([[None]], [[0.0]]),
        ([["1.5"]], [[0.0]]),
        ([[""]], [[0.0]]),
        ([[1.0]], [[None]]),
        ([[1.0]], [["1.5"]]),
        ([[1.0, None], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]),
        ([[1.0, "x"], [0.0, 1.0]], [[0.0, -np.inf], [0.0, 0.0]]),
        (np.array([["1.5"]]), [[0.0]]),
        (np.array([[None]]), [[0.0]]),
        ([[1.0]], [[10 ** 400]]),
        ([[10 ** 400]], [[0.0]]),
    ], ids=["str", "none", "numeric-str", "empty-str", "none-log",
            "numeric-str-log", "none-in-2x2", "str-over-zero", "str-array",
            "object-array", "huge-int-log", "huge-int-sign"])
    def test_non_numbers_raise_domain_error(self, signs, lm):
        # a bare TypeError escaped before; None read as a zero sign
        with pytest.raises(DomainError, match="must be numbers"):
            scaled_frame(signs, lm)

    def test_parallel_directions_raise(self):
        signs, lm = scaled_form(np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateInputError):
            scaled_frame(signs, lm)
        signs, lm = scaled_form(np.array([[0.1, 0.2], [0.1, 0.2]]))
        with pytest.raises(DegenerateInputError):
            scaled_frame(signs, lm - 3000.0)

    def test_column_spanning_beyond_float_range(self):
        # columns (1, 2^-1100) and (1, -2^-1100): normalized directions
        # flush to the same unit vector, the log-domain minors keep
        # |det| = 2^-1099
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])
        lm = np.array([[0.0, 0.0], [-1100.0, -1100.0]])
        sframe = scaled_frame(signs, lm)
        assert sframe.permutation == (1, 2)
        assert tuple(sframe.log2_norms) == pytest.approx((0.0, -1099.0),
                                                         abs=1e-12)

    @pytest.mark.parametrize("d", (6, 8))
    def test_higher_dimensions_match_plain(self, d):
        cols = np.random.default_rng(d).standard_normal((d, d))
        sframe = scaled_frame(*scaled_form(cols))
        norms, u, reach = qr_reference(cols, sframe.permutation)
        assert sframe.dimension == d
        assert np.all(norms >= reach * (1.0 - 1e-12))
        assert np.exp2(sframe.log2_norms) == pytest.approx(norms, rel=1e-12)
        assert np.allclose(sframe.U, u, rtol=1e-12, atol=1e-15)

    def test_frame_and_box_make_no_linalg_call(self, monkeypatch):
        p = Parallelepiped(np.zeros(4), INT4_COLS)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and \
                    not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        frame = pivoted_orthogonalize(p)
        box = bounding_hyperrectangle(frame)
        assert frame.permutation == INT4_PERM
        assert tuple(np.exp2(box)) == pytest.approx(
            tuple(16.0 * x for x in INT4_NORMS))

    def test_exact_zero_entries(self):
        signs, lm = scaled_form(np.array([[1.0, 0.0], [0.0, 5.0]]))
        sframe = scaled_frame(signs, lm)
        assert sframe.permutation == (2, 1)
        assert np.exp2(sframe.log2_norms) == pytest.approx((5.0, 1.0))


def test_caller_arrays_stay_writable():
    # each shape holds read-only copies; the caller's arrays were frozen
    origin, columns = np.zeros(2), np.eye(2)
    p = Parallelepiped(origin, columns)
    for a in (origin, columns):
        assert a.flags.writeable
        a += 1.0
    assert np.array_equal(p.columns, np.eye(2))
    assert not p.columns.flags.writeable and not p.origin.flags.writeable


@pytest.mark.parametrize("betas", [["x"], [10 ** 400], [2.0, None], 2.0],
                         ids=["str", "huge-int", "none", "scalar"])
def test_beta_system_needs_numbers(betas):
    # a bare ValueError, OverflowError or TypeError escaped before
    with pytest.raises(DomainError) as info:
        BetaSystem(betas)
    assert info.value.code == "parallelepiped_geometry.domain"


class TestScaling:
    def test_scale_by_f(self):
        p = Parallelepiped((1.0, 1.0), WORKED_COLS)
        q = scale_by_f(p, BetaSystem((2.0, 4.0)), 3)
        assert q.origin == pytest.approx((1.0 / 8.0, 1.0 / 64.0))
        assert q.columns[0] == pytest.approx(WORKED_COLS[0] / 8.0)
        assert q.columns[1] == pytest.approx(WORKED_COLS[1] / 64.0)

    def test_scale_zero_times_is_identity(self):
        p = Parallelepiped((0.5, 0.25), WORKED_COLS)
        q = scale_by_f(p, BetaSystem((2.0, 3.0)), 0)
        assert np.array_equal(q.columns, p.columns)
        assert np.array_equal(q.origin, p.origin)

    def test_scale_out_of_range(self):
        # 2^-1100 times the entries 1 and 3 is subnormal
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        with pytest.raises(ScaleRangeError, match="smallest normal float"):
            scale_by_f(p, BetaSystem((2.0, 2.0)), 1100)

    # the images are normal floats, although at n = 1050 the scale
    # 2^-1050 itself is subnormal
    @pytest.mark.parametrize("n, factor", [(1000, 1.0), (1050, 2.0 ** 40)])
    def test_scale_keeps_normal_images(self, n, factor):
        p = Parallelepiped((0.5 * factor, 0.25 * factor),
                           factor * WORKED_COLS)
        q = scale_by_f(p, BetaSystem((2.0, 2.0)), n)
        assert q.origin.tolist() == [math.ldexp(x, -n) for x in p.origin]
        assert q.columns.tolist() == [[math.ldexp(x, -n) for x in row]
                                      for row in p.columns]

    # levels with no float value, and one whose n log2 beta overflows:
    # typed refusals, not an OverflowError from float(n) or a warning
    @pytest.mark.parametrize("n, betas, message", [
        (10 ** 309, (2.0, 2.0), "past float range"),
        (int(sys.float_info.max) + 1, (2.0, 2.0), "past float range"),
        (10 ** 308, (4.0, 4.0), "smallest normal float"),
    ], ids=["1e309", "float-max-plus-1", "log2-overflow"])
    def test_scale_level_past_float_range(self, n, betas, message):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        with pytest.raises(ScaleRangeError, match=message):
            scale_by_f(p, BetaSystem(betas), n)

    def test_scale_validates_n(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        with pytest.raises(DomainError):
            scale_by_f(p, BetaSystem((2.0, 2.0)), -1)

    def test_volume_scales_by_det(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        q = scale_by_f(p, BetaSystem((2.0, 4.0)), 2)
        assert 2.0 ** q.log2_volume == pytest.approx(
            WORKED_VOLUME / (4.0 * 16.0))

    # volumes past float range keep their log2, with no numpy warning
    # (the suite turns RuntimeWarning into an error)
    @pytest.mark.parametrize("cols, log2_volume", [
        ([[1e308, 1e308], [1e308, -1e308]], 1.0 + 2.0 * math.log2(1e308)),
        ([[1e-170, 0.0], [0.0, 1e-170]], 2.0 * math.log2(1e-170)),
    ], ids=["near-1e308", "1e-170"])
    def test_volume_out_of_float_range(self, cols, log2_volume):
        p = Parallelepiped((0.0, 0.0), cols)
        assert p.log2_volume == pytest.approx(log2_volume, rel=1e-15)

    def test_box_out_of_float_range(self):
        # 2^d |gamma_i| = 2^2.5 * 1e308 overflows; its log2 does not
        frame = pivoted_orthogonalize([[1e308, 1e308], [1e308, -1e308]])
        assert bounding_hyperrectangle(frame) == pytest.approx(
            (2.5 + math.log2(1e308),) * 2, rel=1e-15)
        # 2^d |gamma_i| = 4e-170 is still a float
        tiny = pivoted_orthogonalize([[1e-170, 0.0], [0.0, 1e-170]])
        assert tuple(np.exp2(bounding_hyperrectangle(tiny))) == \
            pytest.approx((4e-170, 4e-170), rel=1e-12)

    @pytest.mark.parametrize("cols", [
        WORKED_COLS, [[1e308, 1e308], [1e308, -1e308]],
        [[1e-300, 0.0], [0.0, 1e300]]], ids=["worked", "near-1e308", "wide"])
    def test_box_refuses_u_past_the_bound(self, cols):
        # U[0, d-1] = 2^d: the last pivot reaches past 2^d |gamma_1|
        frame = stretched_u(pivoted_orthogonalize(cols))
        with pytest.raises(ConsistencyError, match="escapes its bounding"):
            bounding_hyperrectangle(frame)

    @pytest.mark.parametrize("cols", [
        [[1, 1], [1, 1.0000000001]], [[1, 2], [3, 6.000000001]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9.000000001]]],
        ids=["2d-1e-10", "2d-1e-9", "3d-1e-9"])
    def test_box_holds_nearly_dependent_columns(self, cols):
        # the float gammas of such columns tilt off orthogonal; the reach
        # comes from U, so they do not enter
        frame = pivoted_orthogonalize(cols)
        assert bounding_hyperrectangle(frame) == tuple(
            x + len(cols) for x in frame.log2_norms)


class TestRotation:
    def test_rotation_matrix_snaps_trig(self):
        r = _rotation_rows(math.pi / 2.0)
        assert r[0][0] == 0.0 and r[1][1] == 0.0
        assert r[1][0] == pytest.approx(1.0)

    def test_rotation_matrix_identity(self):
        assert np.array_equal(np.array(_rotation_rows(0.0)), np.eye(2))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan, "x",
                                       10 ** 400],
                             ids=["inf", "-inf", "nan", "str", "huge-int"])
    def test_rotation_matrix_needs_a_finite_angle(self, theta):
        # inf escaped as a bare "math domain error", nan gave NaN entries
        with pytest.raises(DomainError) as info:
            _rotation_rows(theta)
        assert info.value.code == "parallelepiped_geometry.domain"

    def test_rotation_preserves_volume_and_norms(self):
        q = Parallelepiped((0.25, 0.5),
                           np.array(_rotation_rows(0.3)) @ WORKED_COLS)
        assert 2.0 ** q.log2_volume == pytest.approx(WORKED_VOLUME)
        assert np.linalg.norm(q.columns, axis=0) == pytest.approx(
            np.linalg.norm(WORKED_COLS, axis=0))


def well_conditioned_matrices(dim):
    def ok(m):
        a = np.array(m, dtype=float).reshape(dim, dim)
        norms = np.linalg.norm(a, axis=0)
        if np.any(norms == 0.0):
            return False
        return abs(np.linalg.det(a)) > 2e-2 * float(np.prod(norms))

    return st.lists(
        st.integers(min_value=-4, max_value=4),
        min_size=dim * dim, max_size=dim * dim,
    ).map(lambda v: np.array(v, dtype=float).reshape(dim, dim)).filter(ok)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(well_conditioned_matrices))
    def test_frame_invariants(self, cols):
        frame = pivoted_orthogonalize(cols)
        d = cols.shape[0]
        # orthogonality
        g = frame.gammas
        gram = g.T @ g
        off = gram - np.diag(np.diag(gram))
        scale = np.outer(frame.norms, frame.norms)
        assert np.all(np.abs(off) <= 1e-9 * scale)
        # reconstruction and unit triangular U
        perm0 = [i - 1 for i in frame.permutation]
        assert np.allclose(cols[:, perm0], g @ frame.U, atol=1e-9)
        assert np.allclose(np.diag(frame.U), 1.0)
        assert np.allclose(np.tril(frame.U, -1), 0.0)
        # pivot order makes norms non-increasing
        assert np.all(np.diff(frame.norms) <= 1e-9 * frame.norms[:-1])
        # determinant identity
        assert float(np.prod(frame.norms)) == pytest.approx(
            abs(float(np.linalg.det(cols))), rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4).flatmap(well_conditioned_matrices))
    def test_box_contains_parallelepiped(self, cols):
        p = Parallelepiped(np.zeros(cols.shape[0]), cols)
        for v in p.vertices():
            assert box_contains(p, v, rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4).flatmap(well_conditioned_matrices))
    def test_scaled_route_agrees(self, cols):
        frame = pivoted_orthogonalize(cols)
        sframe = scaled_frame(*scaled_form(cols))
        norms, u, reach = qr_reference(cols, sframe.permutation)
        assert sframe.permutation == frame.permutation
        assert np.all(norms >= reach * (1.0 - 1e-9))
        assert np.allclose(np.exp2(sframe.log2_norms), norms, rtol=1e-9)
        assert np.allclose(frame.U, u, rtol=1e-9, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4).flatmap(well_conditioned_matrices),
           st.permutations(range(4)))
    def test_volume_permutation_invariant(self, cols, perm):
        d = cols.shape[0]
        take = [i % d for i in perm[:d]]
        if sorted(take) != list(range(d)):
            take = list(range(d))
        p = Parallelepiped(np.zeros(d), cols)
        q = Parallelepiped(np.zeros(d), cols[:, take])
        assert 2.0 ** q.log2_volume == pytest.approx(2.0 ** p.log2_volume,
                                                     rel=1e-9)
