import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.errors import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ScaleRangeError,
)
from beta_targets.parallelepiped_geometry import (
    BetaSystem,
    Hyperrectangle,
    Parallelepiped,
    bounding_hyperrectangle,
    pivoted_orthogonalize,
    pivoted_orthogonalize_scaled,
    rotate2d,
    rotation_matrix,
    scale_by_f,
    volume,
)

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
        assert volume(p) == pytest.approx(WORKED_VOLUME)
        box = bounding_hyperrectangle(p)
        assert tuple(box.half_extents) == pytest.approx(WORKED_HALF_EXTENTS)
        assert box.center == pytest.approx((0.0, 0.0))
        # box volume relation: vol(P) = 2^(-d(d+1)) vol(R)
        assert box.volume * 2.0 ** (-6) == pytest.approx(WORKED_VOLUME)

    def test_box_contains_all_vertices(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        box = bounding_hyperrectangle(p)
        for v in p.vertices():
            assert box.contains_point(v)


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
        assert volume(p) == pytest.approx(10.0)


class TestSimpleCases:
    def test_identity_cube(self):
        frame = pivoted_orthogonalize(np.eye(3))
        assert frame.permutation == (1, 2, 3)  # ties go to smaller index
        assert np.allclose(frame.gammas, np.eye(3))
        assert np.allclose(frame.U, np.eye(3))
        box = bounding_hyperrectangle(Parallelepiped(np.zeros(3), np.eye(3)))
        assert box.half_extents == pytest.approx((8.0, 8.0, 8.0))

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


class TestScaledRoute:
    def test_matches_plain_on_moderate_matrix(self):
        # the plain reference is numpy's QR of the pivoted columns
        sframe = pivoted_orthogonalize_scaled(*scaled_form(INT4_COLS))
        norms, u, reach = qr_reference(INT4_COLS, sframe.permutation)
        assert sframe.permutation == INT4_PERM
        assert np.all(norms >= reach * (1.0 - 1e-12))
        assert np.allclose(np.exp2(sframe.log2_norms), norms,
                           rtol=1e-12, atol=0.0)
        assert np.allclose(sframe.U, u, rtol=1e-12, atol=1e-15)

    def test_extreme_scales(self):
        signs = np.array([[1.0, -1.0], [1.0, 1.0]])
        lm = np.array([[-100.0, -100.0], [-200.0, -200.0]])
        sframe = pivoted_orthogonalize_scaled(signs, lm)
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
            sframe = pivoted_orthogonalize_scaled(signs, lm)
            # det = 2 c^2 * 2^-(lg1+lg2); log2 sum of norms must match
            expect = 1.0 + 2.0 * math.log2(c) - lg1 - lg2
            assert float(np.sum(sframe.log2_norms)) == pytest.approx(
                expect, abs=1e-9)
            assert sframe.log2_norms[0] >= sframe.log2_norms[1]

    def test_zero_column_raises(self):
        signs = np.array([[0.0, 1.0], [0.0, 1.0]])
        lm = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
        with pytest.raises(DegenerateInputError):
            pivoted_orthogonalize_scaled(signs, lm)

    def test_parallel_directions_raise(self):
        signs, lm = scaled_form(np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(DegenerateInputError):
            pivoted_orthogonalize_scaled(signs, lm)
        signs, lm = scaled_form(np.array([[0.1, 0.2], [0.1, 0.2]]))
        with pytest.raises(DegenerateInputError):
            pivoted_orthogonalize_scaled(signs, lm - 3000.0)

    def test_column_spanning_beyond_float_range(self):
        # columns (1, 2^-1100) and (1, -2^-1100): normalized directions
        # flush to the same unit vector, the log-domain minors keep
        # |det| = 2^-1099
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])
        lm = np.array([[0.0, 0.0], [-1100.0, -1100.0]])
        sframe = pivoted_orthogonalize_scaled(signs, lm)
        assert sframe.permutation == (1, 2)
        assert tuple(sframe.log2_norms) == pytest.approx((0.0, -1099.0),
                                                         abs=1e-12)

    @pytest.mark.parametrize("d", (6, 8))
    def test_higher_dimensions_match_plain(self, d):
        cols = np.random.default_rng(d).standard_normal((d, d))
        sframe = pivoted_orthogonalize_scaled(*scaled_form(cols))
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
        box = bounding_hyperrectangle(p, frame)
        assert frame.permutation == INT4_PERM
        assert tuple(box.half_extents) == pytest.approx(
            tuple(16.0 * x for x in INT4_NORMS))

    def test_exact_zero_entries(self):
        signs, lm = scaled_form(np.array([[1.0, 0.0], [0.0, 5.0]]))
        sframe = pivoted_orthogonalize_scaled(signs, lm)
        assert sframe.permutation == (2, 1)
        assert np.exp2(sframe.log2_norms) == pytest.approx((5.0, 1.0))


class TestHyperrectangle:
    def test_contains_point(self):
        box = Hyperrectangle((0.0, 0.0), np.eye(2), (1.0, 2.0))
        assert box.contains_point((0.5, -1.5))
        assert not box.contains_point((1.5, 0.0))
        assert box.volume == pytest.approx(8.0)

    def test_rejects_non_orthonormal_axes(self):
        with pytest.raises(DomainError):
            Hyperrectangle((0.0, 0.0), np.array([[1.0, 1.0], [0.0, 1.0]]),
                           (1.0, 1.0))

    def test_rejects_bad_extents(self):
        with pytest.raises(DomainError):
            Hyperrectangle((0.0, 0.0), np.eye(2), (1.0, 0.0))


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
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        with pytest.raises(ScaleRangeError):
            scale_by_f(p, BetaSystem((2.0, 2.0)), 1000)

    def test_scale_validates_n(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        with pytest.raises(DomainError):
            scale_by_f(p, BetaSystem((2.0, 2.0)), -1)

    def test_volume_scales_by_det(self):
        p = Parallelepiped((0.0, 0.0), WORKED_COLS)
        q = scale_by_f(p, BetaSystem((2.0, 4.0)), 2)
        assert volume(q) == pytest.approx(WORKED_VOLUME / (4.0 * 16.0))

    # under the suite's error::RuntimeWarning filter a numpy warning on
    # the way to the typed error fails these as well
    @pytest.mark.parametrize("cols", [
        [[1e308, 1e308], [1e308, -1e308]],
        [[1e-170, 0.0], [0.0, 1e-170]],
    ], ids=["near-1e308", "1e-170"])
    def test_volume_out_of_float_range(self, cols):
        with pytest.raises(ScaleRangeError):
            volume(Parallelepiped((0.0, 0.0), cols))

    def test_box_out_of_float_range(self):
        p = Parallelepiped((0.0, 0.0), [[1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ScaleRangeError):
            bounding_hyperrectangle(p)
        # 2^d |gamma_i| = 4e-170 is still a float
        tiny = Parallelepiped((0.0, 0.0), [[1e-170, 0.0], [0.0, 1e-170]])
        box = bounding_hyperrectangle(tiny)
        assert tuple(box.half_extents) == pytest.approx((4e-170, 4e-170),
                                                        rel=1e-12)


class TestRotation:
    def test_rotation_matrix_snaps_trig(self):
        r = rotation_matrix(math.pi / 2.0)
        assert r[0, 0] == 0.0 and r[1, 1] == 0.0
        assert r[1, 0] == pytest.approx(1.0)

    def test_rotation_matrix_identity(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_rotate2d_preserves_volume_and_norms(self):
        p = Parallelepiped((0.25, 0.5), WORKED_COLS)
        q = rotate2d(p, 0.3)
        assert volume(q) == pytest.approx(WORKED_VOLUME)
        assert np.array_equal(q.origin, p.origin)
        assert q.column_norms == pytest.approx(p.column_norms)

    def test_rotate2d_dimension_guard(self):
        p = Parallelepiped(np.zeros(3), np.eye(3))
        with pytest.raises(DomainError):
            rotate2d(p, 0.1)


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
        box = bounding_hyperrectangle(p)
        for v in p.vertices():
            assert box.contains_point(v, rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4).flatmap(well_conditioned_matrices))
    def test_scaled_route_agrees(self, cols):
        frame = pivoted_orthogonalize(cols)
        sframe = pivoted_orthogonalize_scaled(*scaled_form(cols))
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
        assert volume(q) == pytest.approx(volume(p), rel=1e-9)
