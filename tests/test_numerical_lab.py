"""Verification lab: frozen oracle values and invariants.

Grid counts and ball masses were frozen from an independent
implementation (cell-by-cell polygon clipping with its own
Sutherland-Hodgman code, no shared helpers).  The batched closed-form
ball masses are also checked against per-ball polygon clipping.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.beta_dynamics import count_admissible, count_full
from beta_targets.dimension_engine import (
    AxisFamily,
    ExplicitTargets,
    Rotated2DFamily,
    TargetSpec,
    s_n,
)
from beta_targets.errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)
from beta_targets import numerical_lab
from beta_targets.numerical_lab import (
    _ball_masses,
    _radius_samplers,
    build_E_n,
    build_measure,
    cover_exponent_scan,
    empirical_cover_count,
    mu_ball_mass,
    predicted_cover_count,
    verify_measure_bound,
)
from beta_targets.parallelepiped_geometry import BetaSystem, Parallelepiped
from beta_targets.polygons import (
    envelope_chains,
    polygon_area,
    polygon_bbox,
)
from clipping import clip_to_box

SYS24 = BetaSystem((2.0, 4.0))
UNIT_D = ((0.0, 1.0), (0.0, 1.0))
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def pi4_spec():
    return TargetSpec(SYS24, Rotated2DFamily("const", theta_value=math.pi / 4))


def square_spec():
    return TargetSpec(BetaSystem((2.0, 2.0)), AxisFamily((1.0, 1.0)))


# frozen independent-clipper values for Example family at theta=pi/4, n=2
COVER_PI4_N2 = {2.0 ** -6: 256, 2.0 ** -9: 6208}
MASS_CUTTING = 0.002338483047033657  # center (0.3675, 0.0525), r 0.0175


class TestBuildEn:
    def test_all_mode_copy_count(self):
        E = build_E_n(pi4_spec(), 2, mode="all")
        assert E.copy_count == 64  # 2^2 * 4^2, integer bases are full
        assert E.z_star.shape == (64, 2)

    def test_dyadic_left_endpoints(self):
        E = build_E_n(square_spec(), 1, mode="all")
        assert E.copy_count == 4
        got = sorted(map(tuple, E.z_star))
        assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]

    def test_full_mode_equals_all_for_integer_bases(self):
        Ea = build_E_n(pi4_spec(), 2, mode="all")
        Ef = build_E_n(pi4_spec(), 2, mode="full_in_D", D=UNIT_D)
        assert Ea.copy_count == Ef.copy_count
        assert np.array_equal(np.sort(Ea.z_star, axis=0),
                              np.sort(Ef.z_star, axis=0))

    def test_counts_match_recursion(self):
        spec = TargetSpec(BetaSystem((2.5, 1.9)), AxisFamily((1.0, 1.0)))
        E = build_E_n(spec, 3, mode="all")
        assert E.copy_count == \
            count_admissible(2.5, 3) * count_admissible(1.9, 3)

    def test_full_mode_non_integer(self):
        spec = TargetSpec(BetaSystem((1.8, 1.8)),
                          AxisFamily((1.0, 1.0), origin=(0.2, 0.2)))
        E = build_E_n(spec, 3, mode="full_in_D", D=UNIT_D)
        assert E.copy_count == count_full(1.8, 3) ** 2

    def test_only_two_dimensional(self):
        spec = TargetSpec(BetaSystem((2.0,)), AxisFamily((1.0,)))
        with pytest.raises(DomainError):
            build_E_n(spec, 1)

    def test_mode_and_box_validation(self):
        spec = pi4_spec()
        with pytest.raises(DomainError):
            build_E_n(spec, 2, mode="some")
        with pytest.raises(DomainError):
            build_E_n(spec, 2, mode="full_in_D")  # no D
        with pytest.raises(DomainError):
            build_E_n(spec, 2, mode="full_in_D",
                      D=((0.0, 0.5), (0.0, 1.0)))  # not a hypercube
        with pytest.raises(DomainError):
            build_E_n(spec, 2, mode="full_in_D",
                      D=((0.0, 1.5), (0.0, 1.5)))  # outside [0,1]

    def test_level_too_small_for_box(self):
        with pytest.raises(DomainError):
            build_E_n(pi4_spec(), 1, mode="full_in_D",
                      D=((0.2, 0.5), (0.1, 0.4)))

    def test_full_mode_needs_contained_target(self):
        spec = TargetSpec(SYS24, AxisFamily((1.0, 1.0), origin=(0.9, 0.9)))
        with pytest.raises(DomainError):
            build_E_n(spec, 1, mode="full_in_D", D=UNIT_D)

    def test_copy_cap(self):
        with pytest.raises(ResourceLimitError):
            build_E_n(pi4_spec(), 6, mode="all")


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
        E = build_E_n(pi4_spec(), 2, mode="all")
        for tau, want in COVER_PI4_N2.items():
            assert empirical_cover_count(E, tau) == want

    def test_unit_square_tiling(self):
        # copies tile [0,1]^2 exactly; mesh 1/8 gives the full 64 cells
        shape = Parallelepiped((0.0, 0.0), np.eye(2))
        spec = TargetSpec(BetaSystem((2.0, 2.0)), ExplicitTargets((shape,)))
        E = build_E_n(spec, 1, mode="all")
        assert empirical_cover_count(E, 1.0 / 8.0) == 64

    def test_quarter_squares(self):
        E = build_E_n(square_spec(), 1, mode="all")
        # four side-1/4 squares, each 2x2 cells at mesh 1/8
        assert empirical_cover_count(E, 1.0 / 8.0) == 16
        # aligned mesh 1/2: one cell per copy
        assert empirical_cover_count(E, 0.5) == 4
        # unaligned coarse mesh: between one and four cells per copy
        assert 4 <= empirical_cover_count(E, 0.37) <= 16

    def test_matches_brute_force_clipping(self):
        spec = TargetSpec(SYS24, Rotated2DFamily("const", theta_value=0.7))
        E = build_E_n(spec, 2, mode="all")
        tau = 1.0 / 40.0
        cells = set()
        for i in range(E.copy_count):
            poly = E.copy_polygon(i)
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
           st.floats(0.0, math.pi, exclude_max=True),
           st.integers(1, 3), st.data())
    def test_matches_key_expansion(self, betas, theta, n, data):
        spec = TargetSpec(BetaSystem(betas),
                          Rotated2DFamily("const", theta_value=theta))
        E = build_E_n(spec, n, mode="all")
        tau = data.draw(st.one_of(
            st.sampled_from(s_n(spec, n).candidates),
            st.floats(0.002, 0.3, exclude_min=True, exclude_max=True)))
        assert empirical_cover_count(E, tau) == \
            key_expansion_cover_count(E, tau)

    def test_cap_bounds_pairs_not_cells(self):
        # about 38k (copy, column) pairs but 2.28M candidate cells
        spec = TargetSpec(BetaSystem((2.5, PHI)),
                          Rotated2DFamily("const", theta_value=0.3))
        E = build_E_n(spec, 6, mode="all")
        tau = min(s_n(spec, 6).candidates)
        want = empirical_cover_count(E, tau)
        assert empirical_cover_count(E, tau, cell_cap=100_000) == want

    def test_validation_and_cap(self):
        E = build_E_n(square_spec(), 1, mode="all")
        with pytest.raises(DomainError):
            empirical_cover_count(E, 0.0)
        with pytest.raises(DomainError):
            empirical_cover_count(E, 1.0)
        with pytest.raises(ResourceLimitError):
            empirical_cover_count(E, 1e-5, cell_cap=1000)

    def test_mesh_past_key_range(self):
        # grid indices past 2^31 would wrap the packed cell keys; at
        # 1e-300 they overflowed the int64 cast and the count read 0
        E = build_E_n(pi4_spec(), 2, mode="all")
        with pytest.raises(ResourceLimitError):
            empirical_cover_count(E, 1e-300)


class TestPredicted:
    def test_axis_aligned_exact(self):
        # theta=0, n=2, tau=2^-8: copies tile rows exactly, so the
        # measured count equals the prediction on the nose
        spec = TargetSpec(SYS24, Rotated2DFamily("const", theta_value=0.0))
        E = build_E_n(spec, 2, mode="all")
        tau = 2.0 ** -8
        assert predicted_cover_count(spec, 2, tau) == pytest.approx(1024.0)
        assert empirical_cover_count(E, tau) == 1024

    def test_all_candidate_scales_within_factor(self):
        # grid occupancy vs prediction within 2^(2d+2) at every scale
        spec = pi4_spec()
        E = build_E_n(spec, 2, mode="all")
        level = s_n(spec, 2)
        for tau in level.candidates:
            got = empirical_cover_count(E, tau)
            pred = predicted_cover_count(spec, 2, tau, level=level)
            assert pred / 64.0 <= got <= pred * 64.0, tau

    def test_validation(self):
        with pytest.raises(DomainError):
            predicted_cover_count(pi4_spec(), 2, 1.5)

    def test_count_beyond_float_range(self):
        spec = TargetSpec(SYS24, Rotated2DFamily("const", theta_value=0.3))
        with pytest.raises(DomainError):
            predicted_cover_count(spec, 2, 1e-300)
        with pytest.raises(DomainError):
            cover_exponent_scan(spec, 2, taus=[1e-300])


class TestCoverScan:
    def test_default_scan_rows(self):
        scan = cover_exponent_scan(pi4_spec(), 2)
        level = s_n(pi4_spec(), 2)
        assert scan.s == pytest.approx(level.s_n)
        assert len(scan.rows) == len(level.candidates)
        for row, tau in zip(scan.rows, level.candidates):
            assert row.tau == pytest.approx(tau)
            assert row.count >= 1
            assert row.ratio == pytest.approx(row.count / row.predicted)
            assert row.s_product == pytest.approx(
                row.count * row.tau ** scan.s)

    def test_supercritical_products_decay(self):
        spec = pi4_spec()
        mins = []
        for n in (2, 3):
            s = s_n(spec, n).s_n + 0.2
            scan = cover_exponent_scan(spec, n, s=s)
            mins.append(min(r.s_product for r in scan.rows))
        assert mins[1] < mins[0]

    def test_area_exponent_bounded_by_one(self):
        scan = cover_exponent_scan(pi4_spec(), 2, s=2.0)
        E_area = 64 * (2.0 ** -12)
        smallest = min(scan.rows, key=lambda r: r.tau)
        assert E_area * (1 - 1e-9) <= smallest.s_product <= 1.0

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            cover_exponent_scan(pi4_spec(), 2, s=2.5)


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
    cols = en.base.columns
    regimes = _radius_samplers(M)
    per = samples // len(regimes)
    extra = samples - per * len(regimes)
    out = {}
    for ridx, (name, draw) in enumerate(regimes):
        peak = (-math.inf, None, None, None)
        for k in range(per + (extra if ridx == 0 else 0)):
            i = int(rng.integers(en.copy_count))
            u, v = rng.random(2)
            c = en.z_star[i] + en.base.origin + u * cols[:, 0] + \
                v * cols[:, 1]
            r = draw(rng, k)
            mass = clip_ball_mass(M, c, r)
            ratio = mass * M.box_side ** 2 / r ** M.t
            if ratio > peak[0]:
                peak = (ratio, (float(c[0]), float(c[1])), r, mass)
        out[name] = peak
    return out


MEASURE_BETAS = [(2.0, 4.0), (3.0, 2.0), (2.5, PHI), (PHI, 3.7)]


def rotated_measure(betas, theta, n, D=UNIT_D):
    spec = TargetSpec(BetaSystem(betas),
                      Rotated2DFamily("const", theta_value=theta))
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


class TestBuildMeasure:
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


class TestMeasureBound:
    def test_zero_exponent_ratio_is_mass(self):
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        rep = verify_measure_bound(M, t=0.0, samples=200, rng_seed=3)
        assert 0.0 < rep.max_ratio <= 1.0 + 1e-12

    def test_deterministic_and_structured(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        a = verify_measure_bound(M, samples=240, rng_seed=11)
        b = verify_measure_bound(M, samples=240, rng_seed=11)
        assert a == b
        assert a.t == M.t
        assert set(a.regime_max) == {"beyond_box", "below_frame",
                                     "cylinder_to_box", "between_scales"}
        assert a.max_ratio == pytest.approx(max(a.regime_max.values()))
        assert a.worst_regime in a.regime_max
        assert math.isfinite(a.max_ratio) and a.max_ratio > 0.0
        assert a.worst_mass <= 1.0 + 1e-12

    def test_seed_changes_draws(self):
        M = build_measure(square_spec(), 1, UNIT_D, t=0.4)
        a = verify_measure_bound(M, samples=60, rng_seed=1)
        b = verify_measure_bound(M, samples=60, rng_seed=2)
        assert a.worst_radius != b.worst_radius

    @pytest.mark.parametrize("betas,theta,n,seed", [
        ((2.0, 4.0), math.pi / 4, 2, 0),
        ((2.0, 4.0), math.pi / 4, 3, 5),
        ((2.0, 4.0), 0.0, 3, 1),
        ((2.5, PHI), 2.2, 3, 9),
    ])
    def test_witnesses_match_per_ball_loop(self, betas, theta, n, seed):
        M = rotated_measure(betas, theta, n)
        rep = verify_measure_bound(M, samples=402, rng_seed=seed)
        ref = reference_measure_bound(M, 402, seed)
        assert list(rep.regime_max) == list(ref)
        for name, (ratio, center, radius, mass) in ref.items():
            got_center, got_radius, got_mass = rep.regime_witness[name]
            assert (got_center, got_radius) == (center, radius)
            assert got_mass == pytest.approx(mass, rel=0.0, abs=1e-12)
            assert rep.regime_max[name] == pytest.approx(ratio, rel=1e-12)
        peak = max(ref, key=lambda k: ref[k][0])
        assert rep.worst_regime == peak
        assert (rep.worst_center, rep.worst_radius) == ref[peak][1:3]

    def test_validation(self):
        M = build_measure(pi4_spec(), 2, UNIT_D, t=1.0)
        with pytest.raises(DomainError):
            verify_measure_bound(M, t=M.level.s_n, samples=100)
        with pytest.raises(DomainError):
            verify_measure_bound(M, samples=3)
