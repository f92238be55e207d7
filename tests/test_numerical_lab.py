"""Verification lab: frozen oracle values and invariants.

Grid counts and ball masses were frozen from an independent
implementation (cell-by-cell polygon clipping with its own
Sutherland-Hodgman code, no shared helpers).  The batched closed-form
ball masses are also checked against per-ball polygon clipping.
"""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.beta_dynamics import count_admissible, count_words
from beta_targets.dimension_engine import (
    ExplicitTargets,
    LinearFamily,
    TargetSpec,
    s_n,
)
from beta_targets.errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    ScaleRangeError,
    _as_float,
    _as_floats,
)
from beta_targets import numerical_lab
from beta_targets.numerical_lab import (
    _ball_masses,
    _radius_samplers,
    build_E_n,
    build_measure,
    cover_exponent_scan,
    empirical_cover_count,
    predicted_cover_count,
    verify_measure_bound,
)
from beta_targets.parallelepiped_geometry import (
    BetaSystem,
    Parallelepiped,
    _rotation_rows,
    scale_by_f,
)
from beta_targets.polygons import (
    envelope_chains,
    polygon_area,
    polygon_bbox,
)
from clipping import clip_to_box
from family_reference import axis_family, const_rotation

SYS24 = BetaSystem((2.0, 4.0))
UNIT_D = ((0.0, 1.0), (0.0, 1.0))
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def mu_ball_mass(M, center, r: float) -> float:
    """Exact mass of the max-norm ball B(center, r), as a batch of one
    through the kernel of verify_measure_bound, after refusing a radius
    that is not positive and a centre that is not two finite floats."""
    r = _as_float(r, "the radius", "numerical_lab")
    c = np.array([_as_floats(center, "every centre coordinate",
                             "numerical_lab")])
    if not (r > 0.0 and c.shape == (1, 2) and np.all(np.isfinite(c))):
        raise DomainError(f"need a finite center and a positive radius, "
                          f"got {c[0].tolist()} and {r}",
                          module="numerical_lab")
    return float(_ball_masses(M, c, np.array([r]))[0])


def pi4_spec():
    return TargetSpec(SYS24, const_rotation(math.pi / 4))


def square_spec():
    return TargetSpec(BetaSystem((2.0, 2.0)), axis_family((1.0, 1.0)))


# frozen independent-clipper values for Example family at theta=pi/4, n=2
COVER_PI4_N2 = {2.0 ** -6: 256, 2.0 ** -9: 6208}
MASS_CUTTING = 0.002338483047033657  # center (0.3675, 0.0525), r 0.0175


class TestBuildEn:
    def test_all_mode_copy_count(self):
        E = build_E_n(pi4_spec(), 2)
        assert E.copy_count == 64  # 2^2 * 4^2, integer bases are full
        assert E.z_star.shape == (64, 2)

    def test_dyadic_left_endpoints(self):
        E = build_E_n(square_spec(), 1)
        assert E.copy_count == 4
        got = sorted(map(tuple, E.z_star))
        assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]

    def test_full_mode_equals_all_for_integer_bases(self):
        Ea = build_E_n(pi4_spec(), 2)
        Ef = build_E_n(pi4_spec(), 2, D=UNIT_D)
        assert Ea.copy_count == Ef.copy_count
        assert np.array_equal(np.sort(Ea.z_star, axis=0),
                              np.sort(Ef.z_star, axis=0))

    def test_counts_match_recursion(self):
        spec = TargetSpec(BetaSystem((2.5, 1.9)), axis_family((1.0, 1.0)))
        E = build_E_n(spec, 3)
        assert E.copy_count == \
            count_admissible(2.5, 3) * count_admissible(1.9, 3)

    def test_full_mode_non_integer(self):
        spec = TargetSpec(BetaSystem((1.8, 1.8)),
                          axis_family((1.0, 1.0), origin=(0.2, 0.2)))
        E = build_E_n(spec, 3, D=UNIT_D)
        assert E.copy_count == count_words(1.8, 3)[1] ** 2

    @pytest.mark.parametrize("spec, n, D, area", [
        (pi4_spec(), 2, None, 2.0 ** -12),
        (TargetSpec(BetaSystem((2.0, 2.0)), axis_family((0.05, 0.05))), 480,
         [(0.0, 2.0 ** -475)] * 2, 2.0 ** -1008),
    ], ids=["pi4-n2", "axis-n480"])
    def test_copy_area_is_exact(self, spec, n, D, area):
        # numpy's det read the axis box 5.3e-14 high, through exp(log|det|)
        assert build_E_n(spec, n, D=D).copy_area == area

    def test_only_two_dimensional(self):
        spec = TargetSpec(BetaSystem((2.0,)), axis_family((1.0,)))
        with pytest.raises(DomainError):
            build_E_n(spec, 1)

    def test_mode_and_box_validation(self):
        spec = pi4_spec()
        with pytest.raises(DomainError):
            build_E_n(spec, 2, D=((0.0, 0.5), (0.0, 1.0)))  # not a hypercube
        with pytest.raises(DomainError):
            build_E_n(spec, 2, D=((0.0, 1.5), (0.0, 1.5)))  # outside [0,1]

    def test_level_too_small_for_box(self):
        # the side condition n >= -(1 + eps/d) log_beta |D| is the
        # measure's hypothesis, checked before any walk
        with pytest.raises(DomainError, match="level 1 too small"):
            build_measure(pi4_spec(), 1, ((0.2, 0.5), (0.1, 0.4)), t=0.5)

    def test_full_mode_needs_contained_target(self):
        spec = TargetSpec(SYS24, axis_family((1.0, 1.0), origin=(0.9, 0.9)))
        with pytest.raises(DomainError):
            build_E_n(spec, 1, D=UNIT_D)

    def test_copy_cap(self):
        with pytest.raises(ResourceLimitError):
            build_E_n(pi4_spec(), 6)

    def test_copy_cap_refused_before_counting(self):
        # 4**3000 words per axis: the refusal must neither count them nor
        # print a product past the 4300-digit int-to-str limit
        with pytest.raises(ResourceLimitError, match=r"4\.0\*\*3000"):
            build_E_n(pi4_spec(), 3000)

    @pytest.mark.parametrize("spec, n, D", [
        (TargetSpec(SYS24, const_rotation(0.7)), 2000, UNIT_D),
        (TargetSpec(SYS24, const_rotation(0.7)), 2 ** 64, UNIT_D),
        # P_n is normal, only f^n P_n's 2^-1200 underflows
        (TargetSpec(BetaSystem((2.0, 2.0)),
                    axis_family((1.0, 2.0), origin=(0.2, 0.2))),
         400, ((0.0, 1e-118), (0.0, 1e-118))),
    ], ids=["rot24-2000", "rot24-2**64", "axis-f^n-only"])
    def test_underflowing_level_refused(self, spec, n, D):
        # read as a degenerate "zero column" before
        with pytest.raises(ScaleRangeError) as info:
            build_E_n(spec, n, D=D)
        assert info.value.code == "numerical_lab.scale_range"

    @pytest.mark.parametrize("n", [895, 950])
    def test_normal_level_past_2_900_builds(self, n):
        # f^n P_n has entries near 2^-(1.05 n), normal floats, although
        # the contraction 2^-n passes 2^-900
        spec = TargetSpec(BetaSystem((2.0, 2.0)), axis_family((0.05, 0.05)))
        E = build_E_n(spec, n,
                      D=((0.0, 2.0 ** (5 - n)), (0.0, 2.0 ** (5 - n))))
        assert len(E.lefts[0]) * len(E.lefts[1]) == 1024
        assert np.all(np.abs(E.polygon[E.polygon != 0.0]) >= 2.0 ** -1022)

    def test_leak_seen_past_area_underflow(self, monkeypatch):
        # at n = 600 the copy's area, 2^-1260, is 0.0 as a float, so an
        # area comparison cannot see a copy moved to straddle its
        # cylinder's right edge; its vertices can
        def straddling(p, system, n):
            base = scale_by_f(p, system, n)
            shift = 2.0 ** -n - base.columns[0, 0] / 2.0
            return Parallelepiped(base.origin + shift, base.columns)

        monkeypatch.setattr(numerical_lab, "scale_by_f", straddling)
        spec = TargetSpec(BetaSystem((2.0, 2.0)), axis_family((0.05, 0.05)))
        with pytest.raises(ConsistencyError, match="contracted target "
                           "leaks out of its cylinder"):
            build_E_n(spec, 600, D=((0.0, 2.0 ** -595), (0.0, 2.0 ** -595)))

    def test_thin_copy_leak_seen(self, monkeypatch):
        # a copy whose area is about 2^-98 of its bounding box's, moved to
        # pass its cylinder's right edge by a tenth of the cylinder: any
        # area comparison rounding to the box's area misses it
        def straddling(p, system, n):
            base = scale_by_f(p, system, n)
            shift = 1.1 * 2.0 ** -n - base.vertices()[:, 0].max()
            return Parallelepiped(base.origin + [shift, 0.0], base.columns)

        spec = TargetSpec(BetaSystem((2.0, 2.0)),
                          const_rotation(0.7, (1.0, 0.01)))
        assert build_E_n(spec, 100, D=corner_box(-99)).copy_count == 4
        monkeypatch.setattr(numerical_lab, "scale_by_f", straddling)
        with pytest.raises(ConsistencyError, match="contracted target "
                           "leaks out of its cylinder"):
            build_E_n(spec, 100, D=corner_box(-99))

    def test_thin_copy_is_no_leak(self):
        # a copy 2^-25 of its bounding box in area fits its cylinder, though
        # its area and its area inside the cylinder round apart by 5e-9
        spec = TargetSpec(BetaSystem((2.0, 2.0)),
                          const_rotation(0.7, (0.0625, 0.01)))
        E = build_E_n(spec, 493, D=corner_box(-492))
        assert E.copy_count == 4

    @pytest.mark.parametrize("betas, n, D, copies", [
        ((2.0, 4.0), 2, UNIT_D, 64),
        # past its Renyi floor 1.8**6 = 34, short of its 7 * 7 words
        ((1.8, 1.8), 3, None, 49),
    ], ids=["betas0-2-full_in_D-64", "betas1-3-all-49"])
    def test_whole_windows_capped_before_walking(self, monkeypatch, betas,
                                                 n, D, copies):
        def refuse(*args, **kwargs):
            raise AssertionError("walked")

        monkeypatch.setattr(numerical_lab, "cylinder_blocks", refuse)
        spec = TargetSpec(BetaSystem(betas), const_rotation(math.pi / 4))
        with pytest.raises(ResourceLimitError,
                           match=f"^{copies} copies exceed cap 40$"):
            build_E_n(spec, n, D=D, copy_cap=40)

    @pytest.mark.parametrize("call", [
        lambda spec, n: build_E_n(spec, n),
        lambda spec, n: build_E_n(spec, n, D=UNIT_D),
        cover_exponent_scan,
    ], ids=["all", "full_in_D", "cover_exponent_scan"])
    def test_level_past_float_range(self, call):
        # n = 10**309 has no float value: a typed refusal, where the build
        # of every word raised a bare OverflowError from n * log(beta_1 beta_2)
        with pytest.raises(ScaleRangeError, match="past float range"):
            call(pi4_spec(), 10 ** 309)


def _grouped_arange(lengths):
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]), dtype=np.int64) - \
        np.repeat(ends - lengths, lengths)


def key_expansion_cover_count(E, tau):
    """Reference count: one int64 key per candidate cell, then np.unique.

    Same slab and row rules as the library, but every candidate cell is
    materialized, so memory grows with the cells, not the columns.
    """
    lower, upper = envelope_chains(E.polygon)
    bx0, _, bx1, _ = polygon_bbox(E.polygon)
    zx, zy = E.z_star[:, 0], E.z_star[:, 1]
    xmin, xmax = bx0 + zx, bx1 + zx
    k_low = np.floor(xmin / tau).astype(np.int64)
    k_low[(k_low + 1).astype(float) * tau <= xmin] += 1
    k_high = (np.ceil(xmax / tau) - 1).astype(np.int64)
    k_high[k_high.astype(float) * tau >= xmax] -= 1
    cols = np.maximum(k_high - k_low + 1, 0)
    copy_idx = np.repeat(np.arange(E.copy_count), cols)
    k_flat = k_low[copy_idx] + _grouped_arange(cols)
    a = np.maximum(k_flat.astype(float) * tau - zx[copy_idx], bx0)
    b = np.minimum((k_flat + 1).astype(float) * tau - zx[copy_idx], bx1)
    b = np.maximum(b, a)
    ylo = np.minimum(np.interp(a, lower[:, 0], lower[:, 1]),
                     np.interp(b, lower[:, 0], lower[:, 1]))
    yhi = np.maximum(np.interp(a, upper[:, 0], upper[:, 1]),
                     np.interp(b, upper[:, 0], upper[:, 1]))
    offsets = np.cumsum(cols) - cols
    for chain, buf, op in ((lower, ylo, np.minimum),
                           (upper, yhi, np.maximum)):
        for vx, vy in chain[1:-1]:
            kv = np.floor((vx + zx) / tau).astype(np.int64)
            pos = offsets + np.clip(kv - k_low, 0, np.maximum(cols - 1, 0))
            op.at(buf, pos[cols > 0], vy)
    yhi = np.maximum(yhi, ylo)
    ylo = ylo + zy[copy_idx]
    yhi = yhi + zy[copy_idx]
    l_low = np.floor(ylo / tau).astype(np.int64)
    l_low[(l_low + 1).astype(float) * tau <= ylo] += 1
    l_high = (np.ceil(yhi / tau) - 1).astype(np.int64)
    l_high[l_high.astype(float) * tau >= yhi] -= 1
    rows = np.maximum(l_high - l_low + 1, 0)
    keys = np.repeat(k_flat * (np.int64(1) << np.int64(32)) + l_low, rows) \
        + _grouped_arange(rows)
    return int(np.unique(keys).size)


class TestCoverCount:
    def test_frozen_rotated_counts(self):
        E = build_E_n(pi4_spec(), 2)
        for tau, want in COVER_PI4_N2.items():
            assert empirical_cover_count(E, tau) == want

    def test_unit_square_tiling(self):
        # copies tile [0,1]^2 exactly; mesh 1/8 gives the full 64 cells
        shape = Parallelepiped((0.0, 0.0), np.eye(2))
        spec = TargetSpec(BetaSystem((2.0, 2.0)), ExplicitTargets((shape,)))
        E = build_E_n(spec, 1)
        assert empirical_cover_count(E, 1.0 / 8.0) == 64
        # at mesh 0.37 both copies of a row book the middle column
        assert empirical_cover_count(E, 0.37) == \
            key_expansion_cover_count(E, 0.37) == 9

    def test_quarter_squares(self):
        E = build_E_n(square_spec(), 1)
        # four side-1/4 squares, each 2x2 cells at mesh 1/8
        assert empirical_cover_count(E, 1.0 / 8.0) == 16
        # aligned mesh 1/2: one cell per copy
        assert empirical_cover_count(E, 0.5) == 4
        # unaligned coarse mesh: between one and four cells per copy
        assert 4 <= empirical_cover_count(E, 0.37) <= 16

    def test_matches_brute_force_clipping(self):
        spec = TargetSpec(SYS24, const_rotation(0.7))
        E = build_E_n(spec, 2)
        tau = 1.0 / 40.0
        cells = set()
        for i in range(E.copy_count):
            poly = E.polygon + E.z_star[i]
            x0, y0 = poly.min(axis=0)
            x1, y1 = poly.max(axis=0)
            for k in range(int(x0 / tau) - 1, int(x1 / tau) + 2):
                for l in range(int(y0 / tau) - 1, int(y1 / tau) + 2):
                    piece = clip_to_box(poly, k * tau, l * tau,
                                        (k + 1) * tau, (l + 1) * tau)
                    if piece.shape[0] >= 3 and polygon_area(piece) > 1e-18:
                        cells.add((k, l))
        assert empirical_cover_count(E, tau) == len(cells)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2.0, 4.0), (2.5, PHI), (3.0, 2.0), (PHI, 3.7)]),
           st.one_of(st.sampled_from([0.0, math.pi / 4, math.pi / 2]),
                     st.floats(0.0, math.pi, exclude_max=True)),
           st.integers(1, 3), st.data())
    def test_matches_key_expansion(self, betas, theta, n, data):
        # the exact angles and dyadic meshes repeat y-ranges across slabs
        spec = TargetSpec(BetaSystem(betas),
                          const_rotation(theta))
        E = build_E_n(spec, n)
        tau = data.draw(st.one_of(
            st.sampled_from(s_n(spec, n).candidates),
            st.sampled_from([2.0 ** -k for k in range(3, 13)]),
            st.floats(0.002, 0.3, exclude_min=True, exclude_max=True)))
        assert empirical_cover_count(E, tau) == \
            key_expansion_cover_count(E, tau)

    @pytest.mark.parametrize("tau", [0.37, 0.1, 0.03])
    @pytest.mark.parametrize("side", [1.0, 0.75, 0.5])
    @pytest.mark.parametrize("betas", [(2.0, 2.0), (2.5, PHI), (3.0, 2.0)],
                             ids=["2-2", "2.5-phi", "3-2"])
    def test_abutting_squares_match_key_expansion(self, betas, side, tau):
        # copies of the side-1 square abut and the smaller ones leave
        # gaps; either way a column can hold the edges of two copies
        shape = Parallelepiped((0.0, 0.0), side * np.eye(2))
        spec = TargetSpec(BetaSystem(betas), ExplicitTargets((shape,)))
        E = build_E_n(spec, 1)
        assert empirical_cover_count(E, tau) == \
            key_expansion_cover_count(E, tau)

    @pytest.mark.parametrize("theta, n, tau", [
        (0.3, 6, None), (math.pi / 4, 2, 0.1)],
        ids=["0.3-6-coarsest", "pi4-2-0.1"])
    def test_columns_of_several_y_ranges_sort(self, monkeypatch, theta, n,
                                              tau):
        # on (2.5, phi), columns that several x-lefts book hold slabs of
        # different y-ranges, some with equal ylo: at n = 6 and the
        # coarsest candidate, about 17 x-lefts book each column
        spec = TargetSpec(BetaSystem((2.5, PHI)), const_rotation(theta))
        E = build_E_n(spec, n)
        tau = tau or max(s_n(spec, n).candidates)
        sorted_slabs = []
        union = numerical_lab._sorted_union

        def spy(col, *args):
            sorted_slabs.append(len(col))
            return union(col, *args)

        monkeypatch.setattr(numerical_lab, "_sorted_union", spy)
        assert empirical_cover_count(E, tau) == \
            key_expansion_cover_count(E, tau)
        assert sorted_slabs[0] > 0

    def test_cap_parity_on_one_y_range(self):
        # theta = 0 at n = 4: 4096 columns times 256 y-lefts, every slab
        # with one y-range; the cap still counts (copy, column) pairs
        E = build_E_n(TargetSpec(SYS24, const_rotation(0.0)), 4)
        tau = 2.0 ** -16
        with pytest.raises(ResourceLimitError, match=(
                "^1048576 grid columns exceed cap 1048575; raise cell_cap "
                "or coarsen the mesh$")) as info:
            empirical_cover_count(E, tau, cell_cap=1_048_575)
        assert info.value.code == "numerical_lab.resource_limit"
        assert empirical_cover_count(E, tau, cell_cap=1_048_576) == 1_048_576

    def test_cap_bounds_pairs_not_cells(self):
        # about 38k (copy, column) pairs but 2.28M candidate cells
        spec = TargetSpec(BetaSystem((2.5, PHI)),
                          const_rotation(0.3))
        E = build_E_n(spec, 6)
        tau = min(s_n(spec, 6).candidates)
        want = empirical_cover_count(E, tau)
        assert empirical_cover_count(E, tau, cell_cap=100_000) == want

    def test_validation_and_cap(self):
        E = build_E_n(square_spec(), 1)
        with pytest.raises(DomainError):
            empirical_cover_count(E, 0.0)
        with pytest.raises(DomainError):
            empirical_cover_count(E, 1.0)
        with pytest.raises(ResourceLimitError):
            empirical_cover_count(E, 1e-5, cell_cap=1000)

    def test_mesh_past_key_range(self):
        # grid indices past 2^31 would wrap the packed cell keys; at
        # 1e-300 they overflowed the int64 cast and the count read 0
        E = build_E_n(pi4_spec(), 2)
        with pytest.raises(ResourceLimitError):
            empirical_cover_count(E, 1e-300)


class TestPredicted:
    def test_axis_aligned_exact(self):
        # theta=0, n=2, tau=2^-8: copies tile rows exactly, so the
        # measured count equals the prediction on the nose
        spec = TargetSpec(SYS24, const_rotation(0.0))
        E = build_E_n(spec, 2)
        tau = 2.0 ** -8
        assert predicted_cover_count(spec, 2, tau) == pytest.approx(1024.0)
        assert empirical_cover_count(E, tau) == 1024

    def test_all_candidate_scales_within_factor(self):
        # grid occupancy vs prediction within 2^(2d+2) at every scale
        spec = pi4_spec()
        E = build_E_n(spec, 2)
        level = s_n(spec, 2)
        for tau in level.candidates:
            got = empirical_cover_count(E, tau)
            pred = predicted_cover_count(spec, 2, tau, level=level)
            assert pred / 64.0 <= got <= pred * 64.0, tau

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_cover_count(pi4_spec(), 2, 1.5)

    def test_count_beyond_float_range(self):
        spec = TargetSpec(SYS24, const_rotation(0.3))
        for call in (lambda: predicted_cover_count(spec, 2, 1e-300),
                     lambda: cover_exponent_scan(spec, 2, taus=[1e-300])):
            with pytest.raises(ScaleRangeError) as info:
                call()
            assert info.value.code == "numerical_lab.scale_range"
            assert "exceeds the float range" in str(info.value)


class TestCoverScan:
    def test_default_scan_rows(self):
        scan = cover_exponent_scan(pi4_spec(), 2)
        level = s_n(pi4_spec(), 2)
        assert scan.level.s_n == pytest.approx(level.s_n)
        assert len(scan.rows) == len(level.candidates)
        for row, tau in zip(scan.rows, level.candidates):
            assert row.tau == pytest.approx(tau)
            assert row.count >= 1
            assert row.ratio == pytest.approx(row.count / row.predicted)

    def test_supercritical_products_decay(self):
        spec = pi4_spec()
        mins = []
        for n in (2, 3):
            s = s_n(spec, n).s_n + 0.2
            scan = cover_exponent_scan(spec, n)
            mins.append(min(r.count * r.tau ** s for r in scan.rows))
        assert mins[1] < mins[0]

    def test_area_exponent_bounded_by_one(self):
        scan = cover_exponent_scan(pi4_spec(), 2)
        E_area = 64 * (2.0 ** -12)
        smallest = min(scan.rows, key=lambda r: r.tau)
        product = smallest.count * smallest.tau ** 2.0
        assert E_area * (1 - 1e-9) <= product <= 1.0


def clip_ball_mass(M, center, r):
    """Reference mass: Sutherland-Hodgman clipping of every straddling
    copy against the ball's square, one ball at a time."""
    cx, cy = float(center[0]), float(center[1])
    xlo, xhi = cx - r, cx + r
    ylo, yhi = cy - r, cy + r
    en = M.en
    bx0, by0, bx1, by1 = polygon_bbox(en.polygon)
    zx = en.z_star[:, 0]
    zy = en.z_star[:, 1]
    overlap = ((zx + bx0 < xhi) & (zx + bx1 > xlo) &
               (zy + by0 < yhi) & (zy + by1 > ylo))
    inside = (overlap &
              (zx + bx0 >= xlo) & (zx + bx1 <= xhi) &
              (zy + by0 >= ylo) & (zy + by1 <= yhi))
    w = M.weight
    total = float(np.count_nonzero(inside)) * w
    area = en.copy_area
    for i in np.nonzero(overlap & ~inside)[0]:
        piece = clip_to_box(en.polygon,
                            xlo - zx[i], ylo - zy[i],
                            xhi - zx[i], yhi - zy[i])
        if piece.shape[0] >= 3:
            total += polygon_area(piece) / area * w
    return float(total)


def reference_measure_bound(M, samples, rng_seed):
    """Per-ball loop over the same draws as verify_measure_bound:
    {regime: (peak ratio, center, radius, mass)} in regime order."""
    rng = np.random.default_rng(rng_seed)
    en = M.en
    idx = rng.integers(en.copy_count, size=samples)
    units = rng.random((samples, 3))
    cols = en.base.columns
    regimes = _radius_samplers(M)
    per = samples // len(regimes)
    extra = samples - per * len(regimes)
    out = {}
    j = 0
    for ridx, (name, bounds) in enumerate(regimes):
        peak = (-math.inf, None, None, None)
        for k in range(per + (extra if ridx == 0 else 0)):
            u, v, w = units[j]
            c = en.z_star[idx[j]] + en.base.origin + u * cols[:, 0] + \
                v * cols[:, 1]
            j += 1
            lo, hi = map(math.log, bounds[k % len(bounds)])
            r = math.exp(lo + (hi - lo) * float(w))
            mass = clip_ball_mass(M, c, r)
            ratio = mass * M.box_side ** 2 / r ** M.t
            if ratio > peak[0]:
                peak = (ratio, (float(c[0]), float(c[1])), r, mass)
        out[name] = peak
    return out


MEASURE_BETAS = [(2.0, 4.0), (3.0, 2.0), (2.5, PHI), (PHI, 3.7)]


def rotated_measure(betas, theta, n, D=UNIT_D):
    spec = TargetSpec(BetaSystem(betas),
                      const_rotation(theta))
    return build_measure(spec, n, D, t=0.5 * s_n(spec, n).s_n)


class TestBallMass:
    def test_frozen_values(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        assert mu_ball_mass(M, (0.3675, 0.0525), 0.0175) == pytest.approx(
            MASS_CUTTING, rel=1e-10)
        assert mu_ball_mass(M, (0.37, 0.22), 0.11) == pytest.approx(
            3.0 / 64.0, abs=1e-12)
        assert mu_ball_mass(M, (0.125, 0.03125), 0.125) == pytest.approx(
            2.0 / 64.0, abs=1e-12)
        assert mu_ball_mass(M, (0.5, 0.5), 2.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_one_full_copy(self):
        # square bases: ball exactly one cylinder -> one copy's mass
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        assert mu_ball_mass(M, (0.125, 0.125), 0.125) == pytest.approx(
            0.25, abs=1e-12)

    def test_miss_is_zero(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        assert mu_ball_mass(M, (0.97, 0.96), 0.001) == 0.0

    def test_disjoint_grid_adds_to_one(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        total = 0.0
        for i in range(4):
            for j in range(4):
                total += mu_ball_mass(
                    M, (i / 4.0 + 0.125, j / 4.0 + 0.125), 0.125)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_radius(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            c = rng.random(2)
            masses = [mu_ball_mass(M, c, r)
                      for r in (0.01, 0.05, 0.2, 0.7, 1.5)]
            assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_bad_radius(self):
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        with pytest.raises(DomainError):
            mu_ball_mass(M, (0.5, 0.5), 0.0)

    @pytest.mark.parametrize("center, r", [
        ((0.5, 0.5), math.nan), ((math.nan, 0.5), 0.1),
        ((0.5, math.inf), 0.1)], ids=["nan-radius", "nan-center",
                                      "inf-center"])
    def test_nan_ball_refused(self, center, r):
        # each gave a mass of 0.0
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        with pytest.raises(DomainError):
            mu_ball_mass(M, center, r)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(MEASURE_BETAS),
           st.floats(0.0, math.pi, exclude_max=True),
           st.sampled_from([2, 3]),
           st.sampled_from([UNIT_D, ((0.25, 0.75), (0.3, 0.8))]),
           st.data())
    def test_batch_matches_clipping(self, betas, theta, n, D, data):
        try:
            M = rotated_measure(betas, theta, n, D)
        except DomainError:
            return  # level too small for the sub-box
        en = M.en
        small = 2.0 ** M.level.gamma_log2[-1] * 1e-2
        balls = data.draw(st.lists(st.tuples(
            st.one_of(
                # a point of a copy, as verify_measure_bound draws them
                st.tuples(st.integers(0, en.copy_count - 1),
                          st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
                    lambda p: en.z_star[p[0]] + en.base.origin
                    + p[1] * en.base.columns[:, 0]
                    + p[2] * en.base.columns[:, 1]),
                st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))),
            # every radius regime, up to balls past the unit square
            st.floats(math.log(small), math.log(3.0))),
            min_size=1, max_size=40))
        centers = np.array([c for c, _ in balls], dtype=float)
        radii = np.exp([lr for _, lr in balls])
        want = [clip_ball_mass(M, c, r) for c, r in zip(centers, radii)]
        got = _ball_masses(M, centers, radii)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert mu_ball_mass(M, centers[0], radii[0]) == got[0]

    def test_batch_extremes(self):
        M = rotated_measure((2.5, PHI), 0.4, 3)
        centers = np.array([[5.0, 5.0], [-1.0, 0.5], [0.5, 0.5],
                            [0.5, 0.5], [0.0, 1.0], [0.3, 0.6]])
        radii = np.array([0.1, 0.5, 0.6, 2.5, 1.0, 1e-9])
        want = [clip_ball_mass(M, c, r) for c, r in zip(centers, radii)]
        got = _ball_masses(M, centers, radii)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        assert got[0] == got[1] == 0.0      # miss every copy
        assert got[2] == got[3] == 1.0      # contain every copy

    def test_chunks_do_not_change_masses(self, monkeypatch):
        M = rotated_measure((2.0, 4.0), 0.9, 3)
        rng = np.random.default_rng(4)
        centers = rng.uniform(-0.2, 1.2, (300, 2))
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(1.5), 300))
        whole = _ball_masses(M, centers, radii)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(numerical_lab, "_PAIR_CHUNK", chunk)
            assert np.array_equal(_ball_masses(M, centers, radii), whole)


class TestScalarRefusals:
    @pytest.mark.parametrize("call", [
        lambda M, E: mu_ball_mass(M, ("x", 0.5), 0.1),
        lambda M, E: mu_ball_mass(M, (0.5,), 0.1),
        lambda M, E: mu_ball_mass(M, 0.5, 0.1),
        lambda M, E: mu_ball_mass(M, (0.5, 0.5), "x"),
        lambda M, E: empirical_cover_count(E, "x"),
        lambda M, E: predicted_cover_count(pi4_spec(), 2, "x"),
        lambda M, E: build_measure(pi4_spec(), 2, UNIT_D, t="x"),
        lambda M, E: build_measure(pi4_spec(), 2, UNIT_D, t=1.0, eps="x"),
        lambda M, E: build_measure(pi4_spec(), 2, (("x", 1.0), (0.0, 1.0)),
                                   t=1.0),
        # a third end was dropped without a word
        lambda M, E: build_measure(pi4_spec(), 2,
                                   ((0.0, 1.0, 7.0), (0.0, 1.0)), t=1.0),
        lambda M, E: cover_exponent_scan(pi4_spec(), 2, taus=["x"]),
    ], ids=["str-center", "short-center", "scalar-center", "str-radius",
            "str-mesh", "str-predicted-mesh", "str-t", "str-eps", "str-D",
            "long-D", "str-taus"])
    def test_non_numbers_are_the_labs_domain_errors(self, call):
        # each escaped as a bare ValueError, TypeError or IndexError
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        with pytest.raises(DomainError) as info:
            call(M, M.en)
        assert info.value.code == "numerical_lab.domain"


class TestBuildMeasure:
    def test_nan_eps_keeps_the_side_condition(self):
        # eps = nan skipped both the eps test and the side condition
        # n >= -(1 + eps/2) log_beta |D|, and 64 copies were built
        spec = TargetSpec(SYS24, LinearFamily(
            _rotation_rows(0.7), (1, 1), (0.5, 0.5)))
        D = [(0.0, 2.0 ** -6)] * 2
        with pytest.raises(DomainError, match="level 6 too small"):
            build_measure(spec, 6, D, 0.5, eps=0.5)
        with pytest.raises(DomainError, match="need 0 < eps"):
            build_measure(spec, 6, D, 0.5, eps=math.nan)

    def test_defaults(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        s = M.level.s_n
        assert M.eps == pytest.approx((s - 1.0) / 2.0)
        assert M.weight == pytest.approx(1.0 / 64.0)
        assert M.box_side == 1.0

    def test_validation(self):
        spec = pi4_spec()
        s = s_n(spec, 2).s_n
        with pytest.raises(DomainError):
            build_measure(spec, 2, UNIT_D, t=s + 0.01)
        with pytest.raises(DomainError):
            build_measure(spec, 2, UNIT_D, t=1.0, eps=s - 1.0 + 0.05)
        with pytest.raises(DomainError):
            build_measure(spec, 2, UNIT_D, t=1.0, eps=0.0)

    def test_area_underflow_refused(self):
        # at n = 600 a copy's area, near 2^-1260, is 0.0 as a float: the
        # mass per unit area has no value, and the ball ratios divided by
        # zero in verify_measure_bound
        spec = TargetSpec(BetaSystem((2.0, 2.0)), axis_family((0.05, 0.05)))
        D = ((0.0, 2.0 ** -595), (0.0, 2.0 ** -595))
        with pytest.raises(ScaleRangeError, match=re.escape(
                "the copy area is 2^-1260, below the smallest normal float")):
            build_measure(spec, 600, D, t=1.8, eps=0.01)

    @pytest.mark.parametrize("t, error, message", [
        (1.0, DomainError, "level 10 too small for |D|=2.41e-181 under base "
         "2: need n >= 603.000"),
        (1.8, ScaleRangeError, "r^t at the least radius is 2^-1080, below "
         "the smallest normal float"),
    ])
    def test_copies_that_cannot_fit_D(self, t, error, message):
        # |D|^2 = 2^-1200 is no quantity of the float rule: copies that
        # fit D have no more area than D, so the copy area speaks first
        spec = TargetSpec(BetaSystem((2.0, 2.0)), axis_family((0.05, 0.05)))
        D = ((0.0, 2.0 ** -600), (0.0, 2.0 ** -600))
        with pytest.raises(error) as info:
            build_measure(spec, 10, D, t=t, eps=0.01)
        assert str(info.value) == message


# the smallest normal float
NORMAL = 2.0 ** -1022
# a refusal of the lab's float rule: (quantity, log2 of its value)
REFUSAL = re.compile(r"(.+) is 2\^(\S+), below the smallest normal float")
QUANTITIES = {"D's side", "the least nonzero entry of f^n P_n",
              "the copy area", "the least ball radius",
              "r^t at the least radius"}


def tiny_copies_spec(exponents=(0.05, 0.05)):
    """Axis boxes on (2, 2): f^n P_n is the box 2^(-n(1 + t_1)) by
    2^(-n(1 + t_2)), so its area passes 2^-1022 at n(2 + t_1 + t_2)."""
    return TargetSpec(BetaSystem((2.0, 2.0)), axis_family(exponents))


def corner_box(log2_side):
    side = 2.0 ** log2_side
    return ((0.0, side), (0.0, side))


class TestFloatRule:
    """One rule, decided in log2 before any float is built: the lab
    refuses a level whose copy area, ball radii or r^t would be below
    the smallest normal float."""

    @pytest.mark.parametrize("n, log2", [(500, -1050), (510, -1071)])
    def test_subnormal_copy_area_refused(self, n, log2):
        # copy areas of 8.3e-317 and 4e-323 (3 significant bits): every
        # straddler's mass would be divided by them
        with pytest.raises(ScaleRangeError) as info:
            build_measure(tiny_copies_spec(), n, corner_box(5 - n), t=1.8,
                          eps=0.01)
        assert info.value.code == "numerical_lab.scale_range"
        assert str(info.value) == (f"the copy area is 2^{log2}, below the "
                                   "smallest normal float")

    def test_cover_path_ignores_copy_area(self):
        # the same copies, past 2^-1022 in area, still build for covers
        E = build_E_n(tiny_copies_spec(), 500, D=corner_box(-495))
        assert E.copy_count == 1024 and E.copy_area < NORMAL

    @settings(max_examples=40, deadline=None)
    @given(base=st.sampled_from([2.0, 4.0]),
           theta=st.sampled_from([0.0, 0.3, 0.7]),
           exponents=st.tuples(st.floats(0.01, 1.5), st.floats(0.01, 1.5)),
           shift=st.integers(-8, 4), k=st.integers(1, 4),
           frac=st.floats(0.0, 0.99))
    def test_measure_on_normal_floats_or_refused(self, base, theta,
                                                exponents, shift, k, frac):
        # levels within a few of the one where the copy area passes
        # 2^-1022, D a corner box of 2^k cylinders a side
        family = (const_rotation(theta, exponents) if theta
                  else axis_family(exponents))
        spec = TargetSpec(BetaSystem((base, base)), family)
        l = spec.system.log2_betas[0]
        n = round(-1022.0 / family.log2_volume(spec.system.log2_betas, 1)) \
            + shift
        level = s_n(spec, n)
        t = frac * (level.s_n - 1e-3)
        try:
            M = build_measure(spec, n, corner_box(k - n * l), t, eps=1e-3)
            rep = verify_measure_bound(M, samples=16, rng_seed=n)
        except ScaleRangeError as exc:
            assert exc.code == "numerical_lab.scale_range"
            name, log2 = REFUSAL.fullmatch(str(exc)).groups()
            assert name in QUANTITIES and float(log2) < -1021.999999
            return
        assert M.en.copy_area >= NORMAL
        assert M.box_side ** 2 >= NORMAL
        for _, bounds in _radius_samplers(M):
            for lo, _ in bounds:
                assert lo >= NORMAL and lo ** t >= NORMAL
        for _, r, _ in rep.regime_witness.values():
            assert r >= NORMAL and r ** t >= NORMAL
        assert all(map(math.isfinite, rep.regime_max.values()))

    @pytest.mark.parametrize("spec, n, D, t", [
        (pi4_spec(), 3, ((0.0, 0.5), (0.0, 0.5)), 1.2),
        (tiny_copies_spec(), 1, UNIT_D, 1.0),
        (tiny_copies_spec(), 10, corner_box(-5), 1.85),
        (tiny_copies_spec((0.4, 1.2)), 40, corner_box(-36), 1.2),
    ], ids=["side-area", "radius", "r^t", "thin"])
    def test_log2_rule_matches_the_floats(self, monkeypatch, spec, n, D, t):
        # with the floor moved to just above each quantity in turn, the
        # rule must name the first quantity, in its order, whose float is
        # below that floor: each log2 agrees with the float it stands for.
        # The ids name the quantities that come first at some floor; |D|^2
        # never does, as a copy inside D has no more area than D.
        M = build_measure(spec, n, D, t, eps=1e-3)
        least = min(lo for _, bounds in _radius_samplers(M)
                    for lo, _ in bounds)
        floats = {"D's side": M.box_side, "the copy area": M.en.copy_area,
                  "|D|^2": M.box_side ** 2,
                  "the least ball radius": least,
                  "r^t at the least radius": least ** t}
        logs = {name: math.log2(v) for name, v in floats.items()}
        for floor in sorted(logs.values()):
            monkeypatch.setattr(numerical_lab, "_MIN_LOG2_NORMAL",
                                -floor - 0.5)
            first = next(name for name, x in logs.items() if x < floor + 0.5)
            with pytest.raises(ScaleRangeError) as info:
                build_measure(spec, n, D, t, eps=1e-3)
            name, log2 = REFUSAL.fullmatch(str(info.value)).groups()
            assert name == first
            assert float(log2) == pytest.approx(logs[first], rel=1e-5)
        monkeypatch.setattr(numerical_lab, "_MIN_LOG2_NORMAL",
                            -min(logs.values()) + 0.5)
        assert build_measure(spec, n, D, t, eps=1e-3).en.copy_count

    @pytest.mark.parametrize("call", [
        lambda: scale_by_f(Parallelepiped(np.full(2, 0.5), np.eye(2)),
                           BetaSystem((2.0, 2.0)), int(sys.float_info.max)),
        lambda: build_E_n(TargetSpec(SYS24, const_rotation(0.7)), 2 ** 64,
                          D=UNIT_D),
        lambda: build_measure(tiny_copies_spec(), 510, corner_box(-505),
                              t=1.8, eps=0.01),
        lambda: build_measure(tiny_copies_spec(), 10 ** 300, UNIT_D, t=1.8),
        lambda: build_E_n(pi4_spec(), 10 ** 309),
    ], ids=["scale_by_f-float-max", "entries-2**64",
            "copy-area-510", "copy-area-10**300", "level-10**309"])
    def test_messages_print_short_numbers(self, call):
        # a level near the float maximum has 309 digits
        with pytest.raises(ScaleRangeError) as info:
            call()
        numbers = re.findall(r"\d[\d.e+-]*", str(info.value))
        assert numbers and max(map(len, numbers)) <= 40, str(info.value)


class TestMeasureBound:
    def test_zero_exponent_ratio_is_mass(self):
        M = build_measure(square_spec(), 1, UNIT_D, t=0.0)
        rep = verify_measure_bound(M, samples=200, rng_seed=3)
        assert 0.0 < max(rep.regime_max.values()) <= 1.0 + 1e-12

    def test_deterministic_and_structured(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        a = verify_measure_bound(M, samples=240, rng_seed=11)
        b = verify_measure_bound(M, samples=240, rng_seed=11)
        assert a == b
        assert a.t == M.t
        assert set(a.regime_max) == {"beyond_box", "below_frame",
                                     "cylinder_to_box", "between_scales"}
        peak = max(a.regime_max.values())
        assert math.isfinite(peak) and peak > 0.0
        assert all(mass <= 1.0 + 1e-12
                   for _, _, mass in a.regime_witness.values())

    def test_seed_changes_draws(self):
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        a = verify_measure_bound(M, samples=60, rng_seed=1)
        b = verify_measure_bound(M, samples=60, rng_seed=2)
        assert [r for _, r, _ in a.regime_witness.values()] != \
            [r for _, r, _ in b.regime_witness.values()]

    @pytest.mark.parametrize("betas,theta,n,seed,samples", [
        ((2.0, 4.0), math.pi / 4, 2, 0, 402),
        ((2.0, 4.0), math.pi / 4, 3, 5, 402),
        ((2.0, 4.0), 0.0, 3, 1, 402),
        ((2.5, PHI), 2.2, 3, 9, 402),
        ((2.0, 4.0), 0.0, 3, 1, 401),
        ((2.5, PHI), 2.2, 3, 9, 403),
        # a single copy, whose integer draws take no bits
        (None, None, 1, 4, 401),
        (None, None, 1, 4000000000, 402),
    ], ids=["betas0-0.7853981633974483-2-0", "betas1-0.7853981633974483-3-5",
            "betas2-0.0-3-1", "betas3-2.2-3-9", "odd-401", "odd-403",
            "single-401", "single-402"])
    def test_witnesses_match_per_ball_loop(self, betas, theta, n, seed,
                                           samples):
        if betas is None:
            M = build_measure(
                TargetSpec(BetaSystem((3.0, 3.0)), axis_family((1.0, 1.0))),
                n, ((0.0, 0.5), (0.0, 0.5)), t=0.5)
            assert M.en.copy_count == 1
        else:
            M = rotated_measure(betas, theta, n)
        rep = verify_measure_bound(M, samples=samples, rng_seed=seed)
        ref = reference_measure_bound(M, samples, seed)
        assert list(rep.regime_max) == list(ref)
        for name, (ratio, center, radius, mass) in ref.items():
            got_center, got_radius, got_mass = rep.regime_witness[name]
            assert (got_center, got_radius) == (center, radius)
            assert got_mass == pytest.approx(mass, rel=0.0, abs=1e-12)
            assert rep.regime_max[name] == pytest.approx(ratio, rel=1e-12)

    def test_validation(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        with pytest.raises(DomainError):
            verify_measure_bound(dataclasses.replace(M, t=M.level.s_n),
                                 samples=100)
        with pytest.raises(DomainError):
            verify_measure_bound(M, samples=3)

    @pytest.mark.parametrize("change, kwargs", [
        ({"eps": math.nan}, {}),
        ({"t": math.nan}, {}),
        ({}, {"samples": 10.5}),
        ({}, {"samples": True}),
        ({}, {"rng_seed": -1}),
        ({}, {"rng_seed": 1.5}),
    ], ids=["nan-eps", "nan-t", "float-samples", "bool-samples",
            "negative-seed", "float-seed"])
    def test_refusals_are_typed(self, change, kwargs):
        # NaN passed the t / eps test; the rest escaped as TypeError or
        # ValueError
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        with pytest.raises(DomainError):
            verify_measure_bound(dataclasses.replace(M, **change), **kwargs)
