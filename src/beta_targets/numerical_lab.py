"""Desk-scale 2-D verification of the covering and measure arguments.

Materializes the level-n approximant E_n = union of translated copies
f^n P_n + z* (one copy per admissible digit-word pair, z* the left
endpoint of the word's cylinder product), then checks the two proof
engines numerically:

  * covering: occupied-cell counts on a mesh-tau grid against the
    predicted ball count, and the decay of count * tau^s;
  * measure: the uniform per-copy area measure and the ball-mass bound
    mu(B(x, r)) <= C r^t / |D|^d over stratified radius regimes.

Everything here is 2-D by design: exact polygon clipping and envelope
walks make every number independently checkable.  The formula-side
modules handle general dimension; this lab is their witness, not their
replacement.

A grid cell is counted as occupied when its OPEN square meets a copy,
which for convex copies is the same as positive-area overlap with the
closed square.  The closed squares of the counted cells still cover
E_n, so counts keep their upper-bound meaning while exactly tiled
unions (integer bases, axis-aligned targets) come out sharp.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .beta_dynamics import (
    Interval,
    count_admissible,
    count_full,
    enumerate_cylinders,
)
from .dimension_engine import LevelData, TargetSpec, generate_target, s_n
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .parallelepiped_geometry import Parallelepiped, scale_by_f
from .polygons import (
    clip_to_box,
    ensure_ccw,
    envelope_chains,
    parallelogram_polygon,
    polygon_area,
    polygon_bbox,
)

__all__ = [
    "EnSet",
    "MuMeasure",
    "CoverRow",
    "CoverScan",
    "MeasureBoundReport",
    "build_E_n",
    "empirical_cover_count",
    "predicted_cover_count",
    "cover_exponent_scan",
    "build_measure",
    "mu_ball_mass",
    "verify_measure_bound",
]

_MODULE = "numerical_lab"

DEFAULT_COPY_CAP = 200_000
DEFAULT_CELL_CAP = 30_000_000

_KEY_SHIFT = np.int64(1) << np.int64(32)


@dataclasses.dataclass(frozen=True)
class EnSet:
    """All copies f^n P_n + z* at one level.

    The copies share one base shape; z_star holds the translations,
    row-major with the first axis varying slowest.
    """

    spec: TargetSpec
    n: int
    mode: str
    base: Parallelepiped
    polygon: np.ndarray
    z_star: np.ndarray
    D: Optional[Tuple[Interval, Interval]] = None

    @property
    def copy_count(self) -> int:
        return self.z_star.shape[0]

    @property
    def copy_area(self) -> float:
        return abs(float(np.linalg.det(self.base.columns)))

    def copy_polygon(self, i: int) -> np.ndarray:
        return self.polygon + self.z_star[i]


@dataclasses.dataclass(frozen=True)
class MuMeasure:
    """Uniform mass 1/N per copy, Lebesgue-uniform within each copy."""

    en: EnSet
    t: float
    eps: float
    level: LevelData

    @property
    def weight(self) -> float:
        return 1.0 / self.en.copy_count

    @property
    def box_side(self) -> float:
        return self.en.D[0].right - self.en.D[0].left


@dataclasses.dataclass(frozen=True)
class CoverRow:
    tau: float
    count: int
    predicted: float
    ratio: float
    s_product: float


@dataclasses.dataclass(frozen=True)
class CoverScan:
    n: int
    s: float
    level: LevelData
    rows: Tuple[CoverRow, ...]


@dataclasses.dataclass(frozen=True)
class MeasureBoundReport:
    max_ratio: float
    worst_center: Tuple[float, float]
    worst_radius: float
    worst_regime: str
    worst_mass: float
    regime_max: Dict[str, float]
    # per-regime witness of the max: (center, radius, mass)
    regime_witness: Dict[str, Tuple[Tuple[float, float], float, float]]
    samples: int
    seed: int
    t: float


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(float(x[0]), float(x[1]))


def _validate_box(D) -> Tuple[Interval, Interval]:
    if D is None:
        raise DomainError("full-word mode needs a hypercube D",
                          module=_MODULE)
    try:
        box = tuple(_as_interval(I) for I in D)
    except (TypeError, IndexError):
        raise DomainError(f"cannot read {D!r} as a product of intervals",
                          module=_MODULE)
    if len(box) != 2:
        raise DomainError("the lab is 2-D; D needs two intervals",
                          module=_MODULE)
    sides = [I.right - I.left for I in box]
    for I, s in zip(box, sides):
        if not (0.0 <= I.left < I.right <= 1.0):
            raise DomainError(f"D factor {I} not inside [0, 1]",
                              module=_MODULE)
    if abs(sides[0] - sides[1]) > 1e-12 * max(sides):
        raise DomainError("D must be a hypercube (equal side lengths)",
                          module=_MODULE)
    return box


def build_E_n(spec: TargetSpec, n: int, mode: str = "all",
              D=None, eps: float = 0.0,
              copy_cap: int = DEFAULT_COPY_CAP) -> EnSet:
    """Materialize the level-n copy set.

    mode "all" takes every admissible word along each axis; mode
    "full_in_D" keeps full words whose cylinder sits inside the matching
    factor of D, and requires n large enough that such cylinders exist
    at all (the side condition n >= -(1 + eps/d) log_beta |D|).
    """
    if spec.dimension != 2:
        raise DomainError("the lab is 2-D only", module=_MODULE)
    if mode not in ("all", "full_in_D"):
        raise DomainError(f"mode must be 'all' or 'full_in_D', got {mode!r}",
                          module=_MODULE)
    betas = spec.system.betas
    box: Optional[Tuple[Interval, Interval]] = None
    if mode == "all":
        counts = [count_admissible(b, n) for b in betas]
        if counts[0] * counts[1] > copy_cap:
            raise ResourceLimitError(
                f"{counts[0] * counts[1]} copies exceed cap {copy_cap}",
                module=_MODULE)
        per_axis = [list(enumerate_cylinders(b, n)) for b in betas]
        for nodes, want in zip(per_axis, counts):
            if len(nodes) != want:
                raise ConsistencyError(
                    "enumerated word count disagrees with the recursion "
                    f"count ({len(nodes)} vs {want})", module=_MODULE)
    else:
        box = _validate_box(D)
        side = box[0].right - box[0].left
        for b in betas:
            need = -(1.0 + eps / 2.0) * math.log(side) / math.log(b)
            if n < need - 1e-12:
                raise DomainError(
                    f"level {n} too small for |D|={side:.3g} under "
                    f"base {b:.6g}: need n >= {need:.3f}", module=_MODULE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            p = generate_target(spec, n)
        v = p.vertices()
        if np.any(v < 0.0) or np.any(v >= 1.0):
            raise DomainError(
                "full-word mode needs the target inside the unit cube",
                module=_MODULE)
        per_axis = []
        for b, I in zip(betas, box):
            nodes = list(enumerate_cylinders(b, n, only_full=True,
                                             within=I, node_cap=10 * copy_cap))
            if not nodes:
                raise DomainError(
                    f"no full words of length {n} inside {I} for base "
                    f"{b:.6g}", module=_MODULE)
            per_axis.append(nodes)
            if I.left == 0.0 and I.right == 1.0:
                want = count_full(b, n)
                if len(nodes) != want:
                    raise ConsistencyError(
                        "full-word count disagrees with the recursion "
                        f"count ({len(nodes)} vs {want})", module=_MODULE)
        if len(per_axis[0]) * len(per_axis[1]) > copy_cap:
            raise ResourceLimitError(
                f"{len(per_axis[0]) * len(per_axis[1])} copies exceed cap "
                f"{copy_cap}", module=_MODULE)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        target = generate_target(spec, n)
    base = scale_by_f(target, spec.system, n)
    poly = ensure_ccw(parallelogram_polygon(
        base.origin, base.columns[:, 0], base.columns[:, 1]))
    if mode == "full_in_D":
        # copies must stay inside their cylinder product, so clipping
        # the base to [0, beta^-n)^2 has to be a no-op
        clipped = clip_to_box(poly, 0.0, 0.0,
                              betas[0] ** float(-n), betas[1] ** float(-n))
        a0, a1 = polygon_area(poly), polygon_area(clipped)
        if abs(a0 - a1) > 1e-9 * a0:
            raise ConsistencyError(
                "contracted target leaks out of its cylinder product",
                module=_MODULE)

    lefts = [np.array([float(nd.left) for nd in nodes])
             for nodes in per_axis]
    n1, n2 = len(lefts[0]), len(lefts[1])
    z = np.empty((n1 * n2, 2))
    z[:, 0] = np.repeat(lefts[0], n2)
    z[:, 1] = np.tile(lefts[1], n1)
    return EnSet(spec=spec, n=n, mode=mode, base=base, polygon=poly,
                 z_star=z, D=box)


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(int(ends[-1]), dtype=np.int64) - \
        np.repeat(starts, lengths)


def empirical_cover_count(E: EnSet, tau: float,
                          cell_cap: int = DEFAULT_CELL_CAP) -> int:
    """Occupied cells of the mesh-tau grid, exactly.

    Works per copy through the shared base polygon: each grid column is
    an x-slab, the copy's y-range over the slab comes from the convex
    lower/upper envelope chains, and the touched rows follow.  Open-cell
    semantics at both steps (strict inequalities at slab and row
    boundaries), so abutting copies never double-book a boundary cell.
    The count is the size of the union of those row intervals within
    each column, so memory grows with the (copy, grid column) pairs, not
    with the cells; cell_cap bounds the number of such pairs.
    """
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise DomainError(f"mesh must lie in (0, 1), got {tau}",
                          module=_MODULE)
    lower, upper = envelope_chains(E.polygon)
    bx0, by0, bx1, by1 = polygon_bbox(E.polygon)
    zx = E.z_star[:, 0]
    zy = E.z_star[:, 1]
    ncop = E.copy_count

    # column range per copy: open slab (k tau, (k+1) tau) must meet
    # [xmin, xmax]
    xmin = bx0 + zx
    xmax = bx1 + zx
    k_low = np.floor(xmin / tau).astype(np.int64)
    k_low[(k_low + 1).astype(float) * tau <= xmin] += 1
    k_high = (np.ceil(xmax / tau) - 1).astype(np.int64)
    k_high[k_high.astype(float) * tau >= xmax] -= 1
    cols = np.maximum(k_high - k_low + 1, 0)
    total_cols = int(cols.sum())
    if total_cols > cell_cap:
        raise ResourceLimitError(
            f"{total_cols} grid columns exceed cap {cell_cap}; "
            "raise cell_cap or coarsen the mesh", module=_MODULE)

    copy_idx = np.repeat(np.arange(ncop), cols)
    k_flat = k_low[copy_idx] + _grouped_arange(cols)
    # slab in base coordinates, clamped to the polygon's x-extent
    a = np.maximum(k_flat.astype(float) * tau - zx[copy_idx], bx0)
    b = np.minimum((k_flat + 1).astype(float) * tau - zx[copy_idx], bx1)
    b = np.maximum(b, a)
    ylo = np.minimum(np.interp(a, lower[:, 0], lower[:, 1]),
                     np.interp(b, lower[:, 0], lower[:, 1]))
    yhi = np.maximum(np.interp(a, upper[:, 0], upper[:, 1]),
                     np.interp(b, upper[:, 0], upper[:, 1]))
    # per-pair arrays set the memory peak: each is dropped once dead
    del a, b
    # chain vertices interior to a slab can beat both slab endpoints
    offsets = np.cumsum(cols) - cols
    for chain, buf, op in ((lower, ylo, np.minimum),
                           (upper, yhi, np.maximum)):
        for vx, vy in chain[1:-1]:
            kv = np.floor((vx + zx) / tau).astype(np.int64)
            pos = offsets + np.clip(kv - k_low, 0, np.maximum(cols - 1, 0))
            keep = cols > 0
            op.at(buf, pos[keep], vy)
    yhi = np.maximum(yhi, ylo)
    ylo = ylo + zy[copy_idx]
    yhi = yhi + zy[copy_idx]
    del copy_idx

    l_low = np.floor(ylo / tau).astype(np.int64)
    l_low[(l_low + 1).astype(float) * tau <= ylo] += 1
    l_high = (np.ceil(yhi / tau) - 1).astype(np.int64)
    l_high[l_high.astype(float) * tau >= yhi] -= 1
    del ylo, yhi

    # union of the integer intervals [l_low, l_high] within each column:
    # sorted by start, an interval adds the rows past the running reach.
    # The column in the high bits keeps every reach inside its column.
    keep = l_high >= l_low
    col = k_flat[keep] * _KEY_SHIFT
    start = col + l_low[keep]
    end = col + l_high[keep]
    del k_flat, l_low, l_high, keep, col
    order = np.argsort(start, kind="stable")
    start = start[order]
    end = end[order]
    reach = np.maximum.accumulate(end)
    start[1:] = np.maximum(start[1:], reach[:-1] + 1)
    return int(np.maximum(end - start + 1, 0).sum())


def predicted_cover_count(spec: TargetSpec, n: int, tau: float,
                          level: Optional[LevelData] = None) -> float:
    """Ball count the covering argument predicts at mesh tau.

    Axes whose cylinders are finer than tau contribute 1/tau each (the
    copies merge into full lines); the rest contribute one copy per
    cylinder; within a copy every frame direction still longer than tau
    contributes its length in tau units.
    """
    if not (0.0 < tau < 1.0):
        raise DomainError(f"mesh must lie in (0, 1), got {tau}",
                          module=_MODULE)
    if level is None:
        level = s_n(spec, n)
    lt = math.log2(tau)
    out = 0.0
    for lg in spec.system.log2_betas:
        if -n * lg <= lt:
            out += -lt
        else:
            out += n * lg
    for g in level.gamma_log2:
        if g >= lt:
            out += g - lt
    return float(2.0 ** out)


def cover_exponent_scan(spec: TargetSpec, n: int,
                        taus: Optional[Sequence[float]] = None,
                        s: Optional[float] = None,
                        copy_cap: int = DEFAULT_COPY_CAP,
                        cell_cap: int = DEFAULT_CELL_CAP) -> CoverScan:
    """Occupancy counts across the candidate scales of level n.

    Each row reports the measured count, the predicted count, their
    ratio, and count * tau^s; with s = s_n the products stay bounded
    across n while any s above s_n sends them to zero.
    """
    level = s_n(spec, n)
    if s is None:
        s = level.s_n
    if not (0.0 < s <= 2.0):
        raise DomainError(f"exponent must lie in (0, 2], got {s}",
                          module=_MODULE)
    if taus is None:
        taus = level.candidates
    E = build_E_n(spec, n, mode="all", copy_cap=copy_cap)
    rows = []
    for tau in taus:
        tau = float(tau)
        count = empirical_cover_count(E, tau, cell_cap=cell_cap)
        pred = predicted_cover_count(spec, n, tau, level=level)
        rows.append(CoverRow(
            tau=tau,
            count=count,
            predicted=pred,
            ratio=count / pred,
            s_product=count * tau ** s,
        ))
    return CoverScan(n=n, s=float(s), level=level, rows=tuple(rows))


def build_measure(spec: TargetSpec, n: int, D, t: float,
                  eps: Optional[float] = None,
                  copy_cap: int = DEFAULT_COPY_CAP) -> MuMeasure:
    """Uniform measure on the full-word copies inside D.

    eps defaults to half the gap below the level value, mirroring how
    the proof splits s* - t; the side condition on n is checked with
    this eps.
    """
    level = s_n(spec, n)
    t = float(t)
    if not (0.0 <= t < level.s_n):
        raise DomainError(
            f"exponent t must lie in [0, s_n) = [0, {level.s_n:.6g})",
            module=_MODULE)
    if eps is None:
        eps = (level.s_n - t) / 2.0
    eps = float(eps)
    if eps <= 0.0 or t >= level.s_n - eps + 1e-12:
        raise DomainError(
            f"need 0 < eps < s_n - t = {level.s_n - t:.6g}, got {eps}",
            module=_MODULE)
    en = build_E_n(spec, n, mode="full_in_D", D=D, eps=eps,
                   copy_cap=copy_cap)
    return MuMeasure(en=en, t=t, eps=eps, level=level)


def mu_ball_mass(M: MuMeasure, center, r: float) -> float:
    """Exact mass of the max-norm ball B(center, r).

    Copies fully inside the ball's square contribute their whole weight;
    straddlers are clipped exactly.  Copies are scanned through a
    vectorized bounding-box prefilter, so only true straddlers pay for
    polygon clipping.
    """
    r = float(r)
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}",
                          module=_MODULE)
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


def _radius_samplers(M: MuMeasure):
    """The four radius regimes of the ball-mass argument."""
    side = M.box_side
    gamma_small = 2.0 ** M.level.gamma_log2[-1]
    beta_coarse = max(b ** float(-M.en.n) for b in M.en.spec.system.betas)
    taus = sorted((2.0 ** c for c in M.level.candidates_log2_tau),
                  reverse=True)

    def log_uniform(rng, lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    def spectrum(rng, k):
        if len(taus) < 2:
            return log_uniform(rng, gamma_small, side)
        j = k % (len(taus) - 1)
        return log_uniform(rng, taus[j + 1], taus[j])

    return [
        ("beyond_box", lambda rng, k: log_uniform(rng, side, 2.0 * side)),
        ("below_frame", lambda rng, k: log_uniform(
            rng, gamma_small * 1e-2, gamma_small)),
        ("cylinder_to_box", lambda rng, k: log_uniform(
            rng, beta_coarse, side)),
        ("between_scales", spectrum),
    ]


def verify_measure_bound(M: MuMeasure, t: Optional[float] = None,
                         samples: int = 2000,
                         rng_seed: int = 0) -> MeasureBoundReport:
    """Monte-Carlo check of mu(B(x, r)) <= C r^t / |D|^d.

    Centers are uniform over random copies (hence inside E_n and D);
    radii are stratified across four regimes so each branch of the
    ball-mass case analysis is exercised.  Returns the maximum of
    mu(B) |D|^d / r^t with its witness; deterministic for a fixed seed.
    """
    if t is None:
        t = M.t
    t = float(t)
    if t < 0.0 or t >= M.level.s_n - M.eps + 1e-12:
        raise DomainError(
            f"need 0 <= t < s_n - eps = {M.level.s_n - M.eps:.6g}, got {t}",
            module=_MODULE)
    if samples < 4:
        raise DomainError("need at least 4 samples", module=_MODULE)
    rng = np.random.default_rng(rng_seed)
    en = M.en
    origin = en.base.origin
    cols = en.base.columns
    side = M.box_side
    regimes = _radius_samplers(M)
    per = samples // len(regimes)
    extra = samples - per * len(regimes)

    best = -math.inf
    worst = ((math.nan, math.nan), math.nan, "", math.nan)
    regime_max: Dict[str, float] = {}
    regime_witness: Dict[str, Tuple[Tuple[float, float], float, float]] = {}
    for ridx, (name, draw) in enumerate(regimes):
        todo = per + (extra if ridx == 0 else 0)
        peak = -math.inf
        for k in range(todo):
            i = int(rng.integers(en.copy_count))
            u, v = rng.random(2)
            c = en.z_star[i] + origin + u * cols[:, 0] + v * cols[:, 1]
            r = draw(rng, k)
            mass = mu_ball_mass(M, c, r)
            ratio = mass * side ** 2 / r ** t
            if ratio > peak:
                peak = ratio
                regime_witness[name] = ((float(c[0]), float(c[1])), r, mass)
            if ratio > best:
                best = ratio
                worst = ((float(c[0]), float(c[1])), r, name, mass)
        regime_max[name] = peak
    return MeasureBoundReport(
        max_ratio=best,
        worst_center=worst[0],
        worst_radius=worst[1],
        worst_regime=worst[2],
        worst_mass=worst[3],
        regime_max=regime_max,
        regime_witness=regime_witness,
        samples=samples,
        seed=rng_seed,
        t=t,
    )
