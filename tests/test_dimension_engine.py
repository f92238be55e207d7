"""Dimension engine: frozen reference values, closed forms, invariants.

Reference s_n values were computed by an independent 60-digit
implementation of the candidate minimization (direct mpmath evaluation
of the defining objective, no shared code) and frozen here.
"""

import itertools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beta_targets.dimension_engine import (
    ExplicitTargets,
    LevelData,
    LinearFamily,
    Rotated2DFamily,
    TargetSpec,
    s_n,
    s_star,
)
from beta_targets.errors import (
    BetaTargetsError,
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ScaleRangeError,
)
from beta_targets.parallelepiped_geometry import BetaSystem, Parallelepiped
from closed_forms import closed_form_example, monomial_dimension
from family_reference import axis_family, const_rotation, rotation
from frame_reference import scaled_frame

SYS24 = BetaSystem((2.0, 4.0))


def rotated_spec(theta: float) -> TargetSpec:
    return TargetSpec(SYS24, const_rotation(theta))


def decay_spec(a: float) -> TargetSpec:
    return TargetSpec(SYS24, Rotated2DFamily(a))


# frozen reference values (independent extended-precision evaluation)
ROT_PI6_EXACT = {
    1: (1.2208237166164821, -3.8502198590705461),
    5: (1.2421454447964585, -19.792716025796481),
    50: (1.2492209963995866, -199.79248125036058),
}
DECAY_N200_EXACT = {
    0.0: 1.25,
    0.25: 1.2,
    0.5: 1.1428571428571429,
    0.75: 1.0769230769230769,
    1.0: 1.0008326394671107,
    2.0: 1.0,
}
AXIS3_N7 = (1.8760193491940685, -20.197730572445488)


class TestFrozenExact:
    def test_constant_rotation_drift(self):
        # at a fixed angle the finite-n value creeps toward 5/4 from
        # below; the constant log cos theta offset never fully decays
        spec = rotated_spec(math.pi / 6)
        for n, (val, tau_log2) in ROT_PI6_EXACT.items():
            lv = s_n(spec, n, mode="exact")
            assert lv.s_n == pytest.approx(val, rel=0, abs=1e-12)
            assert lv.argmin_tau_log2 == pytest.approx(tau_log2, abs=1e-9)
        assert ROT_PI6_EXACT[50][0] < 1.25 - 1e-4

    def test_axis_aligned_is_exact_at_every_level(self):
        lv = s_n(rotated_spec(0.0), 7, mode="exact")
        assert lv.s_n == pytest.approx(1.25, abs=1e-12)
        assert lv.argmin_tau_log2 == pytest.approx(-28.0, abs=1e-12)

    def test_right_angle(self):
        lv = s_n(rotated_spec(math.pi / 2), 7, mode="exact")
        assert lv.s_n == pytest.approx(1.0, abs=1e-12)
        assert lv.argmin_tau_log2 == pytest.approx(-21.0, abs=1e-12)

    def test_decaying_rotation_near_closed_form(self):
        for a, val in DECAY_N200_EXACT.items():
            lv = s_n(decay_spec(a), 200, mode="exact")
            assert lv.s_n == pytest.approx(val, rel=0, abs=1e-12), a
            cf = closed_form_example(2, a)
            assert abs(lv.s_n - cf) < 1e-2

    def test_three_dimensional_axis_family(self):
        sys3 = BetaSystem((2.0, math.e, 3.0))
        spec = TargetSpec(sys3, axis_family((0.5, 1.0, 2.0)))
        lv = s_n(spec, 7, mode="exact")
        assert lv.s_n == pytest.approx(AXIS3_N7[0], rel=0, abs=1e-12)
        assert lv.argmin_tau_log2 == pytest.approx(AXIS3_N7[1], abs=1e-9)

    def test_one_dimensional_closed_form(self):
        # single base: s_n = 1/(1+t) exactly at every level
        for beta, t in [(2.5, 3.0), (2.0, 1.0), (math.pi, 0.25)]:
            spec = TargetSpec(BetaSystem((beta,)), axis_family((t,)))
            for n in (1, 4, 9):
                lv = s_n(spec, n, mode="exact")
                assert lv.s_n == pytest.approx(1.0 / (1.0 + t), abs=1e-9)


class TestLimitMode:
    def test_constant_rotation_limit_is_flat(self):
        for theta in (0.0, math.pi / 6, math.pi / 4, 1.0):
            spec = rotated_spec(theta)
            for n in (1, 7, 50):
                lv = s_n(spec, n, mode="limit")
                assert lv.s_n == pytest.approx(1.25, abs=1e-12), theta

    def test_right_angle_limit(self):
        lv = s_n(rotated_spec(math.pi / 2), 3, mode="limit")
        assert lv.s_n == pytest.approx(1.0, abs=1e-12)

    def test_decay_limit_matches_closed_form(self):
        for a in (0.0, 0.3, 0.5, 1.0, 1.5, 7.0):
            lv = s_n(decay_spec(a), 11, mode="limit")
            assert lv.s_n == pytest.approx(closed_form_example(2, a),
                                           abs=1e-12), a

    def test_axis_limit_equals_exact(self):
        # no rotation, no constant offsets: the two modes coincide
        spec = TargetSpec(BetaSystem((2.0, 3.0)), axis_family((1.0, 0.5)))
        for n in (1, 5, 12):
            a = s_n(spec, n, mode="exact")
            b = s_n(spec, n, mode="limit")
            assert a.s_n == pytest.approx(b.s_n, abs=1e-12)
            assert a.argmin_tau_log2 == pytest.approx(b.argmin_tau_log2,
                                                      abs=1e-9)

    @pytest.mark.parametrize("make", [rotated_spec, decay_spec],
                             ids=["linear", "arccos"])
    def test_rates_computed_once_per_spec(self, monkeypatch, make):
        spec = make(0.3)
        family_type = type(spec.family)
        rates = family_type.rates
        calls = []

        def counted(self, log2_betas):
            calls.append(log2_betas)
            return rates(self, log2_betas)

        monkeypatch.setattr(family_type, "rates", counted)
        report = s_star(spec, 1, 40, window=10, mode="limit")
        assert len(report.levels) == 40
        assert calls == [SYS24.log2_betas]

    def test_explicit_targets_have_no_rates(self):
        shape = Parallelepiped((0.25, 0.25), np.diag([0.1, 0.1]))
        spec = TargetSpec(SYS24, ExplicitTargets((shape,)))
        with pytest.raises(DomainError):
            s_n(spec, 1, mode="limit")


class TestGammaMagnitudes:
    def test_rotation_hand_formula(self):
        # gamma_1 spans the image of the long side plus the in-plane
        # shear; gamma_2 follows from the volume identity
        for theta in (0.3, 1.0, math.pi / 4):
            c, s = math.cos(theta), math.sin(theta)
            spec = rotated_spec(theta)
            for n in (1, 3, 6):
                g1 = math.sqrt(2.0 ** (-4 * n) * c * c
                               + 2.0 ** (-6 * n) * s * s)
                g2 = 2.0 ** (-6 * n) / g1
                got = np.exp2(s_n(spec, n).gamma_log2)
                assert got[0] == pytest.approx(g1, rel=1e-12)
                assert got[1] == pytest.approx(g2, rel=1e-12)

    def test_log_form_survives_underflow(self):
        spec = rotated_spec(math.pi / 6)
        logs = s_n(spec, 400).gamma_log2
        # leading norm ~ 2^(-2n) cos theta, trailing carries the rest
        assert logs[0] == pytest.approx(-800 + math.log2(math.cos(math.pi / 6)),
                                        abs=1e-9)
        assert logs[0] + logs[1] == pytest.approx(-2400.0, abs=1e-6)

    def test_decay_family_both_terms_visible(self):
        # cos theta_n = 2^(-an) makes the leading norm a genuine
        # two-term mix; check against direct evaluation at modest n
        a, n = 0.5, 4
        c = 2.0 ** (-a * n)
        s = math.sqrt(1.0 - c * c)
        g1 = math.sqrt((2.0 ** (-2 * n) * c) ** 2 + (2.0 ** (-3 * n) * s) ** 2)
        got = np.exp2(s_n(decay_spec(a), n).gamma_log2)
        assert got[0] == pytest.approx(g1, rel=1e-12)
        assert got[0] * got[1] == pytest.approx(2.0 ** (-6 * n), rel=1e-12)

    def test_zero_angle_and_zero_decay_bit_identical(self):
        sa = decay_spec(0.0).family.log_columns(SYS24.log2_betas, 9)
        sb = rotated_spec(0.0).family.log_columns(SYS24.log2_betas, 9)
        assert np.array_equal(sa[0], sb[0])
        assert np.array_equal(sa[1], sb[1])
        assert s_n(decay_spec(0.0), 9).gamma_log2 == \
            s_n(rotated_spec(0.0), 9).gamma_log2


DEEP_LEVELS = (1075, 1811, 2119, 10 ** 5)
DEEP_SPECS = {
    "rot24-0.3": rotated_spec(0.3),
    "rot24-pi/4": rotated_spec(math.pi / 4),
    "rot24-1.0": rotated_spec(1.0),
    "rot23-0.7": TargetSpec(BetaSystem((2.0, 3.0)),
                            const_rotation(0.7)),
    "arccos-0.5": decay_spec(0.5),
    "arccos-1.5": decay_spec(1.5),
    "axis3": TargetSpec(BetaSystem((2.0, 3.0, (1 + 5 ** 0.5) / 2)),
                        axis_family((0.5, 1.0, 2.0))),
}
DENSE3 = np.array([[0.06, 0.02, 0.01],
                   [0.03, 0.07, 0.02],
                   [0.01, 0.03, 0.08]])


def mp_gamma_log2(columns, betas, n, dps=120):
    """Pivoted Gram-Schmidt of diag(beta^-n) @ columns in mpmath."""
    d = len(betas)
    with mpmath.workdps(dps):
        cols = [[mpmath.mpf(float(columns[i, j])) * mpmath.mpf(betas[i]) ** -n
                 for i in range(d)] for j in range(d)]
        basis, out, remaining = [], [], list(range(d))
        for _ in range(d):
            best = None
            for j in remaining:
                w = list(cols[j])
                for q in basis:
                    c = mpmath.fsum(a * b for a, b in zip(w, q))
                    w = [a - c * b for a, b in zip(w, q)]
                nw = mpmath.sqrt(mpmath.fsum(a * a for a in w))
                if best is None or nw > best[0]:
                    best = (nw, j, w)
            nw, j, w = best
            remaining.remove(j)
            basis.append([a / nw for a in w])
            out.append(float(mpmath.log(nw, 2)))
    return out


class TestDeepLevels:
    """Exact mode at levels whose frame entries span thousands of
    binary orders inside one column."""

    @pytest.mark.parametrize("n", DEEP_LEVELS)
    @pytest.mark.parametrize("name", sorted(DEEP_SPECS))
    def test_exact_tracks_limit(self, name, n):
        spec = DEEP_SPECS[name]
        exact = s_n(spec, n, mode="exact")
        limit = s_n(spec, n, mode="limit")
        vol = spec.family.log2_volume(spec.system.log2_betas, n)
        assert abs(sum(exact.gamma_log2) - vol) <= 1e-9 * abs(vol)
        assert n * abs(exact.s_n - limit.s_n) <= 0.5

    @pytest.mark.parametrize("n", (129, 2000))
    def test_dense_table(self, n):
        betas = (2.0, 2.5, 3.0)
        shape = Parallelepiped((0.4, 0.4, 0.4), DENSE3)
        spec = TargetSpec(BetaSystem(betas), ExplicitTargets((shape,) * n))
        got = s_n(spec, n).gamma_log2
        assert got == pytest.approx(mp_gamma_log2(DENSE3, betas, n),
                                    rel=1e-12)
        vol = spec.family.log2_volume(spec.system.log2_betas, n)
        assert abs(sum(got) - vol) <= 1e-9 * abs(vol)
        assert 0.0 < s_n(spec, n).s_n <= 3.0

    def test_two_d_makes_no_linalg_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)) and \
                    not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        for spec in (rotated_spec(0.7), decay_spec(0.5)):
            for n in (1, 40, 1075, 10 ** 5):
                assert 1.0 <= s_n(spec, n).s_n <= 2.0


class TestFloatRangeBound:
    """Exact mode refuses a level once 2 (d r + n sum_j (1 + t_j) l_j),
    which bounds the frame's doubled minor sums, passes the float
    maximum (r bounds |log2| of the entries of R)."""

    def test_arccos_runs_at_1e307(self):
        # 2d (r + n (max t l + max l)), the bound before, refused it
        level = s_n(decay_spec(0.5), 10 ** 307)
        assert 1.0 <= level.s_n <= 2.0
        assert all(map(math.isfinite, level.gamma_log2))
        assert level.s_n == s_n(decay_spec(0.5), 10 ** 307, "limit").s_n

    def test_rotated_edge(self):
        assert 1.0 <= s_n(rotated_spec(0.7), 10 ** 307).s_n <= 2.0
        with pytest.raises(ScaleRangeError):
            s_n(rotated_spec(0.7), 10 ** 308)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1.01, 16.0), min_size=2, max_size=2),
           st.lists(st.floats(0.05, 8.0), min_size=2, max_size=2),
           st.sampled_from(["axis", "const", "arccos"]),
           st.floats(0.0, 6.3), st.floats(0.5, 1.5))
    # 2 (d r + n sum (1 + t_j) l_j) is within one rounding of the float
    # maximum here, and the two diagonal logs, rounded apart, double past it
    @example(betas=[1.7025353299320911, 9.370403219739492],
             ex=[7.0, 4.530265511364365], kind="axis", angle=0.0,
             factor=1.0)
    def test_near_bound_finite_or_refused(self, betas, ex, kind, angle,
                                          factor):
        family = {"axis": lambda: axis_family(ex),
                  "const": lambda: const_rotation(angle, ex),
                  "arccos": lambda: Rotated2DFamily(angle, ex)}[kind]()
        spec = TargetSpec(BetaSystem(betas), family)
        rate = sum((1.0 + t) * math.log2(b) for t, b in zip(ex, betas))
        if kind == "arccos":
            rate += 2.0 * angle
        n = int(min(factor * (sys.float_info.max / 2.0 / rate),
                    sys.float_info.max))
        try:
            level = s_n(spec, n)
        except ScaleRangeError:
            return
        assert 0.0 < level.s_n <= 2.0
        assert all(map(math.isfinite, level.gamma_log2))


class TestObjectiveProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 1.55), st.integers(1, 9), st.data())
    def test_candidate_sufficiency(self, theta, n, data):
        # the objective is piecewise affine in 1/Lambda, so a fine grid
        # between consecutive candidates never beats the discrete min
        lv = s_n(rotated_spec(theta), n, mode="exact")
        w = [n * l for l in SYS24.log2_betas]
        g = [-x for x in lv.gamma_log2]
        lo = min(w + g) * 0.5
        hi = max(w + g) * 1.5
        lam = data.draw(st.floats(lo, hi))
        val = sum(1.0 if wi >= lam else wi / lam for wi in w) + \
            sum(1.0 - gi / lam for gi in g if gi <= lam)
        assert val >= lv.s_n - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.2, 9.0), st.floats(0.05, 4.0), st.integers(1, 6))
    def test_axis_scaling_monotone(self, beta, t, n):
        # shrinking the target faster can only lower the level value
        spec_slow = TargetSpec(BetaSystem((beta,)), axis_family((t,)))
        spec_fast = TargetSpec(BetaSystem((beta,)), axis_family((t * 2,)))
        assert s_n(spec_fast, n).s_n <= s_n(spec_slow, n).s_n + 1e-12

    def test_explicit_matches_axis(self):
        # feeding the axis family's own boxes through the explicit path
        # must reproduce the same levels
        sys2 = BetaSystem((2.0, 3.0))
        fam = axis_family((1.0, 0.5), origin=(0.1, 0.2))
        spec = TargetSpec(sys2, fam)
        shapes = tuple(spec.family.target(sys2.betas, n) for n in (1, 2, 3))
        espec = TargetSpec(sys2, ExplicitTargets(shapes))
        for n in (1, 2, 3):
            assert s_n(espec, n).s_n == pytest.approx(
                s_n(spec, n).s_n, abs=1e-12)

    def test_bad_levels_and_modes(self):
        spec = rotated_spec(0.0)
        with pytest.raises(DomainError):
            s_n(spec, 0)
        with pytest.raises(DomainError):
            s_n(spec, 2, mode="asymptotic")
        with pytest.raises(DomainError):
            s_n(spec, -3)

    def test_oversized_target_rejected(self):
        # a gamma norm at or above 1 leaves no admissible tau
        sys_slow = BetaSystem((1.05, 1.05))
        shape = Parallelepiped((0.0, 0.0), np.diag([1.2, 1.2]))
        spec = TargetSpec(sys_slow, ExplicitTargets((shape,)))
        with pytest.raises(DomainError):
            s_n(spec, 1)


class TestLevelData:
    def test_fields_and_views(self):
        lv = s_n(rotated_spec(0.3), 4)
        assert lv.n == 4 and lv.mode == "exact"
        assert lv.gamma_log2[0] >= lv.gamma_log2[1]
        assert list(lv.candidates_log2_tau) == \
            sorted(lv.candidates_log2_tau)
        assert lv.candidates == pytest.approx(
            [2.0 ** c for c in lv.candidates_log2_tau], rel=1e-15)
        assert any(abs(lv.argmin_tau_log2 - c) < 1e-9
                   for c in lv.candidates_log2_tau)

    def test_candidates_deduplicated(self):
        # theta = 0 collapses gamma norms onto the contraction scales
        lv = s_n(rotated_spec(0.0), 5)
        c = np.asarray(lv.candidates_log2_tau)
        assert np.all(np.diff(c) > 1e-9)

    def test_tied_norms_in_four_dimensions(self):
        # the sides of exponents 0.5 and 0.5 tie; the scan returns their
        # log2 norms a few ulps apart and out of order, within its tie band
        spec = TargetSpec(BetaSystem((2.0, 2.0, 2.0, 4.0)),
                          axis_family((0.5, 0.5, 0.2, 0.2)))
        lv = s_n(spec, 1)
        assert lv.gamma_log2[1] < lv.gamma_log2[2]
        assert lv.s_n == pytest.approx(s_n(spec, 1, mode="limit").s_n,
                                       abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(1, 5), st.data())
    def test_repeated_axis_sides_match_limit(self, d, n, data):
        # three values for d >= 3 sides repeat bases and exponents, so
        # norms tie; exact s_n must accept every such box, and on axis
        # boxes it equals the limit value
        betas = data.draw(st.lists(st.sampled_from([2.0, 4.0, 8.0]),
                                   min_size=d, max_size=d))
        exponents = data.draw(st.lists(st.sampled_from([0.2, 0.5, 1.0]),
                                       min_size=d, max_size=d))
        spec = TargetSpec(BetaSystem(betas), axis_family(exponents))
        assert s_n(spec, n).s_n == pytest.approx(
            s_n(spec, n, mode="limit").s_n, rel=0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4),
           st.sampled_from([1, 7, 50, 1000]) | st.integers(1, 1000),
           st.data())
    def test_monomial_matches_closed_form(self, d, n, data):
        # bases 2^k, rational exponents and a signed, scaled permutation R
        k = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        t = data.draw(st.lists(st.builds(Fraction, st.integers(1, 12),
                                         st.integers(1, 6)),
                               min_size=d, max_size=d))
        sigma = data.draw(st.permutations(range(d)))
        scale = data.draw(st.lists(st.sampled_from(
            [1.0, -1.0, 0.5, -0.5, 0.25, -0.25]), min_size=d, max_size=d))
        rows = [[scale[j] if sigma[j] == i else 0.0 for j in range(d)]
                for i in range(d)]
        spec = TargetSpec(BetaSystem([2.0 ** ki for ki in k]),
                          LinearFamily(rows, [float(tj) for tj in t]))
        oracle = monomial_dimension(k, t, sigma)
        assert s_n(spec, n, mode="limit").s_n == pytest.approx(
            float(oracle), rel=0, abs=1e-12)
        # Exact mode sees column j at log2 length -n g_j + log2|r_j|: the
        # oracle's objective with g_j - log2|r_j| / n for g_j.  Each
        # objective is monotone between its candidates and no lower past
        # them, so both values are minima over all lam > 0, reached at
        # lam >= min(k) >= 1, where the objective moves by at most
        # |dg_j| / lam per g_j.  So n |exact - oracle| <= K, the sum of
        # |log2|r_j||, at most 2d = 8; 1e-9 covers float rounding.
        K = sum(abs(math.log2(abs(r))) for r in scale)
        assert n * abs(s_n(spec, n).s_n - oracle) <= K + 1e-9

    @pytest.mark.parametrize("gamma_log2, ok", [
        ((-1.2, -1.5000000000000002, -1.5), True),
        ((-1.5, -1.5 + 2e-12), False),
        ((-2.0, -1.0), False),
    ], ids=["within-tie-band", "past-tie-band", "inverted"])
    def test_norm_order_is_the_scans_tie_rule(self, gamma_log2, ok):
        def level():
            return LevelData(n=1, gamma_log2=gamma_log2,
                             candidates_log2_tau=(-1.0,), s_n=1.0,
                             argmin_tau_log2=-1.0, mode="exact")
        if ok:
            assert level().gamma_log2 == gamma_log2
        else:
            with pytest.raises(ConsistencyError, match="must be sorted"):
                level()


class TestSStar:
    def test_windowed_report_converges_in_limit_mode(self):
        rep = s_star(rotated_spec(1.0), 1, 30, window=10, mode="limit")
        assert rep.s_star == pytest.approx(1.25, abs=1e-12)
        assert rep.converged
        assert len(rep.levels) == 30
        tail = [lv.s_n for lv in rep.levels[-10:]]
        # s_star's default tolerance
        assert max(tail) - min(tail) < 1e-3

    def test_exact_mode_flags_slow_drift(self):
        # at window 5 and tol 1e-9 the pi/6 drift is still visible
        rep = s_star(rotated_spec(math.pi / 6), 1, 25, window=5,
                     tolerance=1e-9, mode="exact")
        assert not rep.converged
        assert rep.s_star == max(lv.s_n for lv in rep.levels[-5:])
        loose = s_star(rotated_spec(math.pi / 6), 1, 25, window=5,
                       tolerance=1e-2, mode="exact")
        assert loose.converged

    def test_argument_validation(self):
        spec = rotated_spec(0.0)
        with pytest.raises(DomainError):
            s_star(spec, 5, 2)
        with pytest.raises(DomainError):
            s_star(spec, 1, 10, window=11)
        with pytest.raises(DomainError):
            s_star(spec, 1, 10, tolerance=0.0)
        # these raised TypeError, or ran (a NaN tolerance never converges)
        spec = rotated_spec(0.7)
        for args, kwargs in [
                ((1.0, 5), {"window": 5}), ((1, 5.0), {}), ((True, 5), {}),
                ((1, 5), {"window": 2.5}), ((1, 5), {"window": True}),
                ((1, 5), {"window": 5, "tolerance": math.nan}),
                ((1, 5), {"window": 5, "tolerance": "x"})]:
            with pytest.raises(DomainError):
                s_star(spec, *args, **kwargs)


# the last level with a float value
LAST_FLOAT_LEVEL = int(sys.float_info.max)


@st.composite
def level_blocks(draw):
    """(spec, mode, n_min, n_max) over every family kind: a linear family
    (axis boxes and rotations among its matrices), the arccos_pow2
    rotation, and explicit lists, which a block may run past.  Blocks
    sit at low levels, about 1e307, where exact mode starts to refuse,
    and at the last level with a float value, which limit mode reaches
    and passes."""
    kind = draw(st.sampled_from(["linear", "arccos", "explicit"]))
    d = 2 if kind == "arccos" else draw(st.integers(1, 3))
    betas = draw(st.lists(st.floats(1.01, 16.0), min_size=d, max_size=d))
    exponents = draw(st.lists(st.floats(0.05, 4.0), min_size=d,
                              max_size=d))
    if kind == "linear":
        # a permutation, then a rotation in the first coordinate plane
        rows = np.eye(d)[draw(st.permutations(range(d)))]
        if d > 1 and draw(st.booleans()):
            turn = np.eye(d)
            turn[:2, :2] = rotation(draw(st.floats(-3.2, 3.2)))
            rows = rows @ turn
        family = LinearFamily(rows * np.exp2(draw(st.lists(
            st.integers(-40, 40), min_size=d, max_size=d))), exponents)
    elif kind == "arccos":
        family = Rotated2DFamily(draw(st.floats(0.0, 2.0)), exponents)
    else:
        # lower triangular columns, as the benchmark's tables have them
        shapes = []
        for _ in range(draw(st.integers(1, 8))):
            below = np.array(draw(st.lists(st.floats(-0.05, 0.05),
                                           min_size=d * d, max_size=d * d)))
            shapes.append(Parallelepiped(np.zeros(d), np.tril(
                below.reshape(d, d), -1) + np.diag(draw(st.lists(
                    st.floats(0.04, 0.1), min_size=d, max_size=d)))))
        family = ExplicitTargets(shapes)
    n_min = draw(st.one_of(st.integers(1, 60), st.integers(1, 2000),
                           st.integers(10 ** 307, 2 * 10 ** 307),
                           st.integers(LAST_FLOAT_LEVEL - 4,
                                       LAST_FLOAT_LEVEL + 1)))
    return (TargetSpec(BetaSystem(betas), family),
            draw(st.sampled_from(["exact", "limit"])), n_min,
            n_min + draw(st.integers(0, 6)))


class TestSStarLevels:
    @settings(max_examples=300, deadline=None)
    @given(level_blocks())
    # three levels with a float value, then one without
    @example((TargetSpec(BetaSystem((1.01, 1.01)), axis_family((0.05, 0.05))),
              "limit", LAST_FLOAT_LEVEL - 2, LAST_FLOAT_LEVEL + 1))
    def test_block_is_its_levels(self, block):
        # s_star checks the block once and runs each level itself: its
        # levels are s_n's, bit for bit, and a block with a failing level
        # raises what s_n raises at the first one
        spec, mode, n_min, n_max = block
        levels, error = [], None
        for n in range(n_min, n_max + 1):
            try:
                levels.append(s_n(spec, n, mode))
            except BetaTargetsError as exc:
                error = exc
                break
        if error is not None:
            with pytest.raises(type(error)) as info:
                s_star(spec, n_min, n_max, window=1, mode=mode)
            assert str(info.value) == str(error)
            return
        report = s_star(spec, n_min, n_max, window=1, mode=mode)
        assert report.levels == tuple(levels)
        assert list(map(repr, report.levels)) == list(map(repr, levels))


class TestGenerateTarget:
    """P_n itself, as each family's target method builds it."""

    @staticmethod
    def target(spec, n):
        return spec.family.target(spec.system.betas, n)

    def test_axis_box(self):
        spec = TargetSpec(BetaSystem((2.0, 3.0)),
                          axis_family((1.0, 1.0), origin=(0.25, 0.25)))
        p = self.target(spec, 2)
        assert np.allclose(p.origin, [0.25, 0.25])
        assert np.allclose(p.columns, np.diag([2.0 ** -2, 3.0 ** -2]))

    def test_rotated_box_inside_unit_square(self):
        p = self.target(rotated_spec(math.pi / 4), 3)
        v = p.vertices()
        assert np.all(v >= 0.0) and np.all(v < 1.0)
        assert np.allclose(p.origin, [0.5, 0.5])

    def test_explicit_level_bounds(self):
        shape = Parallelepiped((0.2, 0.2), np.diag([0.1, 0.1]))
        spec = TargetSpec(SYS24, ExplicitTargets((shape,)))
        assert self.target(spec, 1) is shape
        with pytest.raises(DomainError):
            self.target(spec, 2)


class TestClosedForms:
    def test_values(self):
        assert closed_form_example(1, 0.0) == 1.25
        assert closed_form_example(1, 1.0) == 1.25
        assert closed_form_example(1, math.pi / 2) == 1.0
        assert closed_form_example(2, 0.0) == 1.25
        assert closed_form_example(2, 1.0) == 1.0
        assert closed_form_example(2, 0.5) == pytest.approx(
            1.0 + 0.5 / 3.5, abs=1e-15)
        assert closed_form_example(2, 3.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_example(1, -0.1)
        with pytest.raises(ValueError):
            closed_form_example(1, 2.0)
        with pytest.raises(ValueError):
            closed_form_example(2, -1.0)
        with pytest.raises(ValueError):
            closed_form_example(3, 0.0)


@st.composite
def nonsingular_matrices(draw):
    """P Q diag(2^k): a permutation, Givens rotations in every coordinate
    plane (angle 0 leaves the permutation alone) and column scales
    2^k, |k| <= 500; d <= 4."""
    d = draw(st.integers(1, 4))
    r = np.eye(d)[draw(st.permutations(range(d)))]
    for i, j in itertools.combinations(range(d), 2):
        g = np.eye(d)
        g[np.ix_([i, j], [i, j])] = rotation(draw(st.one_of(
            st.just(0.0), st.floats(-math.pi, math.pi))))
        r = r @ g
    return r * np.exp2(draw(st.lists(st.integers(-500, 500), min_size=d,
                                     max_size=d)))


class TestMatrixRule:
    """LinearFamily's R is checked and measured by Parallelepiped."""

    @settings(max_examples=150, deadline=None)
    @given(nonsingular_matrices())
    def test_log2_det_matches_the_frame(self, r):
        # the log-domain frame's norm product, the determinant that
        # LinearFamily once took, is the reference
        d = len(r)
        family = LinearFamily(r, (1.0,) * d)
        with np.errstate(divide="ignore"):
            frame = scaled_frame(np.sign(r), np.log2(np.abs(r)))
        log2_det = family.log2_volume((1.0,) * d, 0)
        assert abs(log2_det - math.fsum(frame.log2_norms)) <= 1e-12
        assert log2_det == Parallelepiped(np.zeros(d), r).log2_volume

    @pytest.mark.parametrize("scales", [(1.0, 1.0), (2.0 ** 500, 2.0 ** -500),
                                        (2.0 ** -500, 2.0 ** 500)])
    @pytest.mark.parametrize("turn", [0.0, 0.3])
    def test_degeneracy_threshold(self, turn, scales):
        # |det R| = ratio times the product of the column norms, to a
        # relative 1e-10; the rule's threshold is 1e-12
        for ratio, builds in ((1e-11, True), (1e-13, False)):
            r = rotation(turn) @ np.array(
                [[1.0, 1.0], [0.0, ratio]]) / np.array([1.0, math.hypot(
                    1.0, ratio)]) * np.array(scales)
            if builds:
                LinearFamily(r, (1.0, 1.0))
                continue
            with pytest.raises(DegenerateInputError) as info:
                LinearFamily(r, (1.0, 1.0))
            assert info.value.code == \
                "parallelepiped_geometry.degenerate_input"


class TestFamilyValidation:
    def test_axis(self):
        with pytest.raises(DomainError):
            axis_family(())
        with pytest.raises(DomainError):
            axis_family((1.0, -2.0))
        with pytest.raises(DomainError):
            axis_family((1.0,), origin=(0.0, 0.0))

    def test_rotated(self):
        with pytest.raises(DomainError):
            Rotated2DFamily(-1.0)
        with pytest.raises(DomainError):
            Rotated2DFamily(math.nan)
        with pytest.raises(DomainError):
            Rotated2DFamily(0.5, exponents=(1.0,))
        with pytest.raises(DomainError):
            const_rotation(math.nan)
        with pytest.raises(DomainError):
            const_rotation(0.3, exponents=(1.0,))

    @pytest.mark.parametrize("matrix", [
        [[1.0, 2.0], [2.0, 4.0]],
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-14]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
    ], ids=["dependent", "zero-column", "nearly-dependent", "3d"])
    def test_linear_singular_matrix(self, matrix):
        with pytest.raises(DegenerateInputError):
            LinearFamily(matrix, (1.0,) * len(matrix))

    @pytest.mark.parametrize("args", [
        ([[1.0, math.inf], [0.0, 1.0]], (1.0, 1.0), None),
        ([[1.0, math.nan], [0.0, 1.0]], (1.0, 1.0), None),
        ([[1.0, 0.0], [0.0, 1.0]], (1.0, 1.0), (0.5, math.inf)),
        ([[1.0, 0.0], [0.0, 1.0]], (1.0, 1.0, 1.0), None),
        ([[1.0, 0.0], [0.0, 1.0]], (1.0,), None),
        ([[1.0, 0.0], [0.0, 1.0]], (1.0, 1.0), (0.5,)),
        ([[1.0, 0.0], [0.0, 1.0]], (1.0, 0.0), None),
        ([[1.0, 0.0], [0.0]], (1.0, 1.0), None),
        ([], (), None),
    ], ids=["inf-entry", "nan-entry", "inf-origin", "long-exponents",
            "short-exponents", "short-origin", "zero-exponent", "ragged",
            "empty"])
    def test_linear_domain(self, args):
        with pytest.raises(DomainError):
            LinearFamily(*args)

    @pytest.mark.parametrize("make", [
        lambda: LinearFamily(np.eye(2), ("x", 1.0)),
        lambda: LinearFamily(np.eye(2), (10 ** 400, 1.0)),
        lambda: Rotated2DFamily("x"),
        lambda: Rotated2DFamily(10 ** 400),
        lambda: Rotated2DFamily(0.5, (None, 1.0)),
        lambda: LinearFamily(np.eye(1), 5),
        lambda: Rotated2DFamily(0.5, 5),
    ], ids=["str-exponent", "huge-int-exponent", "str-decay",
            "huge-int-decay", "none-exponent", "scalar-linear-exponents",
            "scalar-rotated-exponents"])
    def test_scalars_must_be_numbers(self, make):
        # a bare ValueError, OverflowError or TypeError escaped before
        with pytest.raises(DomainError) as info:
            make()
        assert info.value.code == "dimension_engine.domain"

    def test_linear_limit_needs_one_entry_per_column_in_3d(self):
        dense = [[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]]
        spec = TargetSpec(BetaSystem((2.0, 3.0, 5.0)),
                          LinearFamily(dense, (1.0, 1.0, 1.0)))
        assert 0.0 < s_n(spec, 3).s_n <= 3.0
        with pytest.raises(DomainError, match="one nonzero"):
            s_n(spec, 3, mode="limit")
        # a scaled permutation has orthogonal columns, so it has rates
        perm = [[0.0, 2.0, 0.0], [0.0, 0.0, -1.0], [0.5, 0.0, 0.0]]
        spec = TargetSpec(BetaSystem((2.0, 3.0, 5.0)),
                          LinearFamily(perm, (1.0, 0.5, 2.0)))
        for n in (1, 9):
            exact = s_n(spec, n)
            limit = s_n(spec, n, mode="limit")
            assert n * abs(exact.s_n - limit.s_n) <= 3.0

    def test_linear_equality_and_hash(self):
        a = LinearFamily(np.eye(2), [1, 1], [0.25, 0.5])
        b = LinearFamily(((1.0, 0.0), (0.0, 1.0)), (1.0, 1.0), (0.25, 0.5))
        assert a == b and hash(a) == hash(b)
        assert a.matrix == ((1.0, 0.0), (0.0, 1.0))
        assert a != LinearFamily(np.eye(2), (1.0, 1.0))

    def test_spec_dimension_checks(self):
        with pytest.raises(DomainError):
            TargetSpec(BetaSystem((2.0, 3.0, 5.0)), const_rotation(0.0))
        with pytest.raises(DomainError):
            TargetSpec(BetaSystem((2.0,)), axis_family((1.0, 1.0)))
        with pytest.raises(DomainError):
            ExplicitTargets(())

    @pytest.mark.parametrize("first", [1, None])
    def test_explicit_needs_shapes(self, first):
        # a non-shape first entry raised AttributeError
        shape = Parallelepiped([0.1, 0.1], np.eye(2) * 0.1)
        with pytest.raises(DomainError, match="parallelepipeds"):
            ExplicitTargets([first, 2])
        with pytest.raises(DomainError, match="parallelepipeds"):
            ExplicitTargets([first, shape])
        with pytest.raises(DomainError, match="parallelepipeds"):
            ExplicitTargets([shape, first])
