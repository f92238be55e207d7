"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints "[PASS]"/"[FAIL] criterion k: ..." with its tolerance and
measured runtime, then asserts.  Budgets are enforced, not aspirational.
"""

import math
import time

import numpy as np
import pytest

from beta_targets.beta_dynamics import (
    Interval,
    count_admissible,
    count_words,
    enumerate_cylinders,
)
from beta_targets.dimension_engine import (
    Rotated2DFamily,
    TargetSpec,
    s_n,
)
from beta_targets.hausdorff_content import (
    content_estimates_2d,
    singular_value_function,
)
from beta_targets.numerical_lab import (
    build_measure,
    cover_exponent_scan,
    verify_measure_bound,
)
from beta_targets.parallelepiped_geometry import (
    BetaSystem,
    bounding_hyperrectangle,
    pivoted_orthogonalize,
)
from beta_targets.polygons import ensure_ccw, polygon_area, polygon_bbox
from closed_forms import admissible_count_bounds, full_count_constant
from cylinder_reference import first_full_inside
from family_reference import axis_family, const_rotation

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def example1(theta):
    return TargetSpec(BetaSystem((2.0, 4.0)),
                      const_rotation(theta))


def example2(a):
    return TargetSpec(BetaSystem((2.0, 4.0)),
                      Rotated2DFamily(a))


def verdict(capsys, ok: bool, k: int, detail: str,
            elapsed: float, budget: float) -> None:
    word = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{word}] criterion {k}: {detail} "
              f"({elapsed:.2f}s < {budget:g}s budget)")


def test_criterion_1_rotated_family_closed_form(capsys):
    start = time.monotonic()
    bad = []
    for theta in (0.0, math.pi / 6, math.pi / 4, 1.0):
        spec = example1(theta)
        for n in range(1, 51):
            v = s_n(spec, n, mode="limit").s_n
            if abs(v - 1.25) > 1e-9:
                bad.append((theta, n, v))
    spec = example1(math.pi / 2)
    for n in range(1, 51):
        v = s_n(spec, n, mode="limit").s_n
        if abs(v - 1.0) > 1e-9:
            bad.append((math.pi / 2, n, v))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    verdict(capsys, ok, 1,
            "limit-mode s_n = 5/4 within 1e-9 for theta in "
            "{0, pi/6, pi/4, 1.0} and n in [1, 50]; s_n = 1 within 1e-9 "
            "at theta = pi/2", elapsed, 1.0)
    assert ok, f"violations: {bad[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_2_decaying_angle_closed_form(capsys):
    start = time.monotonic()
    bad = []
    for a in (0.0, 0.25, 0.5, 0.75):
        v = s_n(example2(a), 200, mode="exact").s_n
        want = 1.0 + (1.0 - a) / (4.0 - a)
        if abs(v - want) > 1e-2:
            bad.append((a, v, want))
    for a in (1.0, 2.0):
        v = s_n(example2(a), 200, mode="exact").s_n
        if abs(v - 1.0) > 1e-2:
            bad.append((a, v, 1.0))
    # a = 0 and theta = 0 are the same family; the log-domain columns and
    # the resulting s_n must agree bit for bit
    lg = BetaSystem((2.0, 4.0)).log2_betas
    cross = all(
        np.array_equal(np.asarray(example2(0.0).family.log_columns(lg, n)),
                       np.asarray(example1(0.0).family.log_columns(lg, n)))
        and s_n(example2(0.0), n).s_n == s_n(example1(0.0), n).s_n
        for n in (1, 7, 50, 200))
    elapsed = time.monotonic() - start
    ok = not bad and cross and elapsed < 1.0
    verdict(capsys, ok, 2,
            "exact s_200 within 1e-2 of 1 + (1-a)/(4-a) for a in "
            "{0, .25, .5, .75} and of 1 for a in {1, 2}; a = 0 matches "
            "theta = 0 bit for bit", elapsed, 1.0)
    assert ok, f"violations: {bad}, cross-check {cross}, {elapsed:.2f}s"


def test_criterion_3_one_dimensional_sanity(capsys):
    start = time.monotonic()
    bad = []
    for beta in (2.0, PHI, 2.5):
        for t in (0.5, 1.0, 3.0):
            spec = TargetSpec(BetaSystem((beta,)), axis_family((t,)))
            want = 1.0 / (1.0 + t)
            for n in (1, 3, 10, 30):
                v = s_n(spec, n, mode="exact").s_n
                if abs(v - want) > 1e-9:
                    bad.append((beta, t, n, v))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    verdict(capsys, ok, 3,
            "exact s_n = 1/(1+t) within 1e-9 for beta in {2, phi, 2.5}, "
            "t in {0.5, 1, 3}", elapsed, 1.0)
    assert ok, f"violations: {bad[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_4_counting_suite(capsys):
    start = time.monotonic()
    betas = (PHI, 2.5, math.e, 3.0)
    sandwich_bad = []
    lower_bad = []
    for beta in betas:
        c = full_count_constant(beta)
        for n in range(1, 13):
            count = count_admissible(beta, n)
            lo, hi = admissible_count_bounds(beta, n)
            if not (lo * (1 - 1e-12) <= count <= hi * (1 + 1e-12)):
                sandwich_bad.append((beta, n, count))
            full = count_words(beta, n)[1]
            if full < c * beta ** n * (1 - 1e-12):
                lower_bad.append((beta, n, full))

    # concatenation closure: every pairing of full words stays full
    closure_bad = 0
    pairs = 0
    for beta in betas:
        per = {n: np.array([float(node.left) for node in
                            enumerate_cylinders(beta, n, only_full=True)])
               for n in range(1, 13)}
        for n in range(1, 12):
            for m in range(1, 13 - n):
                cat = (per[n][:, None]
                       + beta ** (-n) * per[m][None, :]).ravel()
                ref = per[n + m]
                idx = np.clip(np.searchsorted(ref, cat), 0, len(ref) - 1)
                near = np.minimum(
                    np.abs(ref[idx] - cat),
                    np.abs(ref[np.maximum(idx - 1, 0)] - cat))
                closure_bad += int(np.count_nonzero(near > 1e-10))
                pairs += cat.size

    # full-cylinder search on random intervals meeting the lemma's window
    # hypothesis (beta*n0)**(1+delta) < beta**(n0*delta) and its size
    # precondition |I| < n0 * beta**-n0, as (delta, n0) per beta
    params = {PHI: (1.0, 13), 2.5: (0.5, 12), math.e: (0.5, 11),
              3.0: (0.5, 10)}
    rng = np.random.default_rng(42)
    search_bad = []
    for beta, (delta, n0) in params.items():
        assert (1 + delta) * math.log(beta * n0) < n0 * delta * math.log(beta)
        hi = n0 * beta ** (-n0) * 0.99
        for _ in range(250):
            length = math.exp(rng.uniform(math.log(1e-5), math.log(hi)))
            left = rng.uniform(0.0, 1.0 - length)
            I = Interval(left, left + length)
            node = first_full_inside(beta, I, delta)
            if node is None:
                search_bad.append((beta, I, None))
                continue
            word, node_left, image_length, node_length = node
            inside = (node_left >= I.left - 1e-15
                      and node_left + node_length <= I.right + 1e-15)
            in_window = (node_length <= I.length * (1 + 1e-12)
                         and node_length > I.length ** (1 + delta))
            if not (image_length == 1 and inside and in_window):
                search_bad.append((beta, I, word))

    elapsed = time.monotonic() - start
    ok = (not sandwich_bad and not lower_bad and closure_bad == 0
          and not search_bad and elapsed < 120.0)
    verdict(capsys, ok, 4,
            "Renyi sandwich and full-count lower bound hold for beta in "
            "{phi, 2.5, e, 3}, n <= 12 (zero violations); concatenation "
            f"closure over {pairs} full-word pairs with n+m <= 12 (tol "
            "1e-10, zero violations); full-cylinder search succeeded on "
            "1000 random intervals meeting the lemma's hypotheses",
            elapsed, 120.0)
    assert ok, (f"sandwich {sandwich_bad[:3]}, lower {lower_bad[:3]}, "
                f"closure {closure_bad}, search {search_bad[:3]}, "
                f"elapsed {elapsed:.2f}s")


def test_criterion_5_orthogonalization_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    fails = 0
    total = 0
    for d in (2, 3, 4, 5):
        done = 0
        while done < 2500:
            cols = rng.standard_normal((d, d))
            col_norms = np.linalg.norm(cols, axis=0)
            det = float(np.linalg.det(cols))
            if abs(det) < 1e-4 * float(np.prod(col_norms)):
                continue
            done += 1
            total += 1
            try:
                frame = pivoted_orthogonalize(cols)
                g = frame.gammas
                gn = np.linalg.norm(g, axis=0)
                gram = np.abs(g.T @ g) - np.diag(gn ** 2)
                ortho_ok = bool(
                    np.all(gram <= 1e-9 * np.outer(gn, gn) + 1e-300))
                sorted_ok = bool(
                    np.all(gn[1:] <= gn[:-1] * (1 + 1e-12)))
                u_ok = float(np.max(np.abs(frame.U))) <= 2.0 + 1e-9
                vol_ok = abs(float(np.prod(gn)) - abs(det)) <= \
                    1e-9 * abs(det)
                # raises ConsistencyError unless every vertex fits
                bounding_hyperrectangle(frame)
                if not (ortho_ok and sorted_ok and u_ok and vol_ok):
                    fails += 1
            except Exception:
                fails += 1
    elapsed = time.monotonic() - start
    ok = fails == 0 and total == 10000 and elapsed < 30.0
    verdict(capsys, ok, 5,
            "10^4 random parallelepipeds, d in {2..5}: orthogonality "
            "(rel 1e-9), non-increasing norms, |U| <= 2 + 1e-9, vertex "
            "containment in the bounding box, volume identity (rel 1e-9) "
            "with zero failures", elapsed, 30.0)
    assert ok, f"{fails} failures of {total}, elapsed {elapsed:.2f}s"


def _thin_shapes(rng, count):
    shapes = []
    while len(shapes) < count:
        w = rng.uniform(0.1, 0.6)
        aspect = math.exp(rng.uniform(math.log(0.02), math.log(0.075)))
        h = w * aspect
        kind = int(rng.integers(0, 3))
        if kind == 0:
            cols = np.array([[w, 0.0], [0.0, h]])
        elif kind == 1:
            cols = np.array([[w, rng.uniform(-2.0, 2.0) * h], [0.0, h]])
        else:
            theta = rng.uniform(-0.25, 0.25) * aspect
            c, s = math.cos(theta), math.sin(theta)
            cols = np.array([[c, -s], [s, c]]) @ np.diag([w, h])
        corners = np.array([[0.0, 0.0], cols[:, 0],
                            cols[:, 0] + cols[:, 1], cols[:, 1]])
        span = corners.max(axis=0) - corners.min(axis=0)
        if span.max() >= 0.98:
            continue
        x0 = rng.uniform(0.001, 0.999 - span[0]) - corners[:, 0].min()
        y0 = rng.uniform(0.001, 0.999 - span[1]) - corners[:, 1].min()
        shapes.append(ensure_ccw(corners + np.array([x0, y0])))
    return shapes


def test_criterion_6_content_sandwich(capsys):
    start = time.monotonic()
    shapes = _thin_shapes(np.random.default_rng(0), 100)
    bad = []
    for poly in shapes:
        x0, y0, x1, y1 = polygon_bbox(poly)
        rect = (x1 - x0, y1 - y0)
        frac = polygon_area(poly) / ((x1 - x0) * (y1 - y0))
        for s in (0.5, 1.0, 1.3, 1.7, 2.0):
            est = content_estimates_2d(poly, [s])[0]
            phi = singular_value_function(rect, s)
            lo = frac * 0.25 * phi * (1.0 - 0.1)
            hi = phi * (1.0 + 0.1)
            if not (lo <= est.lower <= est.upper <= hi):
                bad.append((s, est.lower, est.upper, lo, hi))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120.0
    verdict(capsys, ok, 6,
            "content oracle of 100 thin rectangles/parallelograms at "
            "s in {0.5, 1, 1.3, 1.7, 2} inside "
            "[c * 2^-d * phi^s * 0.9, phi^s * 1.1]", elapsed, 120.0)
    assert ok, f"violations: {bad[:5]}, elapsed {elapsed:.2f}s"


def test_criterion_7_cover_counts(capsys):
    start = time.monotonic()
    ratio_bad = []
    argmin_spread = []
    decreasing = True
    for theta in (0.0, math.pi / 4):
        spec = example1(theta)
        argmin_vals = {}
        sup_vals = {}
        for n in (2, 3, 4):
            scan = cover_exponent_scan(spec, n)
            for row in scan.rows:
                if not (1.0 / 64 * (1 - 1e-9) <= row.ratio
                        <= 64.0 * (1 + 1e-9)):
                    ratio_bad.append((theta, n, row.tau, row.ratio))
            s = scan.level.s_n
            argmin_vals[n] = min(row.count * row.tau ** s
                                 for row in scan.rows)
            sup_vals[n] = min(row.count * row.tau ** (s + 0.2)
                              for row in scan.rows)
        spread = max(argmin_vals.values()) / min(argmin_vals.values())
        argmin_spread.append((theta, spread))
        if not (sup_vals[2] > sup_vals[3] > sup_vals[4]):
            decreasing = False
    elapsed = time.monotonic() - start
    spread_ok = all(sp <= 256.0 * (1 + 1e-9) for _, sp in argmin_spread)
    ok = (not ratio_bad and spread_ok and decreasing and elapsed < 180.0)
    verdict(capsys, ok, 7,
            "grid cover counts for theta in {0, pi/4}, n in {2, 3, 4} "
            "within factor 64 of the scale-product prediction at every "
            "candidate scale; argmin count*tau^s_n spread across n at most "
            "2^8; count*tau^(s_n+0.2) strictly decreasing in n",
            elapsed, 180.0)
    assert ok, (f"ratios {ratio_bad[:5]}, spreads {argmin_spread}, "
                f"decreasing {decreasing}, elapsed {elapsed:.2f}s")


def test_criterion_8_measure_growth(capsys):
    start = time.monotonic()
    spec = example1(math.pi / 4)
    box = ((0.0, 1.0), (0.0, 1.0))
    max_ratio = {}
    for n in (2, 3):
        level = s_n(spec, n)
        M = build_measure(spec, n, box, level.s_n - 0.1)
        report = verify_measure_bound(M, samples=10 ** 4, rng_seed=0)
        max_ratio[n] = max(report.regime_max.values())
    elapsed = time.monotonic() - start
    finite = all(math.isfinite(v) and v > 0.0 for v in max_ratio.values())
    growth_ok = max_ratio[3] <= 2.0 * max_ratio[2]
    ok = finite and growth_ok and elapsed < 180.0
    verdict(capsys, ok, 8,
            "10^4 stratified balls at theta = pi/4, t = s_n - 0.1: "
            f"max mu(B)|D|^2/r^t finite (n=2: {max_ratio[2]:.3g}, "
            f"n=3: {max_ratio[3]:.3g}) and the n=3 maximum at most "
            "2x the n=2 maximum", elapsed, 180.0)
    assert ok, f"ratios {max_ratio}, elapsed {elapsed:.2f}s"
