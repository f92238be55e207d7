"""Desk-scale 2-D verification of the covering and measure arguments.

Materializes the level-n approximant E_n = union of translated copies
f^n P_n + z* (one copy per admissible digit-word pair, z* the left
endpoint of the word's cylinder product), then checks the two proof
engines numerically:

  * covering: occupied-cell counts on a mesh-tau grid against the
    predicted ball count, and the decay of count * tau^s;
  * measure: the uniform per-copy area measure and the ball-mass bound
    mu(B(x, r)) <= C r^t / |D|^d over stratified radius regimes.

Everything here is 2-D by design: envelope walks and exact integrals
between the envelope chains make every number independently checkable.
The formula-side modules handle general dimension; this lab is their
witness, not their replacement.

A grid cell is counted as occupied when its OPEN square meets a copy,
which for convex copies is the same as positive-area overlap with the
closed square.  The closed squares of the counted cells still cover
E_n, so counts keep their upper-bound meaning while exactly tiled
unions (integer bases, axis-aligned targets) come out sharp.
"""

from __future__ import annotations

import dataclasses
import functools
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
    box_areas,
    cell_range,
    ensure_ccw,
    envelope_chains,
    envelope_edges,
    parallelogram_polygon,
    polygon_area,
    polygon_bbox,
    slab_ranges,
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
# grid indices, coordinate / tau, must fit the halves of those keys
_INDEX_LIMIT = 2.0 ** 31
# (ball, copy) or (copy, column) pairs per kernel pass: bounds temporaries
_PAIR_CHUNK = 1 << 14


@dataclasses.dataclass(frozen=True)
class EnSet:
    """All copies f^n P_n + z* at one level.

    The copies share one base shape; lefts are the ascending cylinder
    left ends of each axis, and copy i * len(lefts[1]) + j sits at
    (lefts[0][i], lefts[1][j]).
    """

    spec: TargetSpec
    n: int
    mode: str
    base: Parallelepiped
    polygon: np.ndarray
    lefts: Tuple[np.ndarray, np.ndarray]
    D: Optional[Tuple[Interval, Interval]] = None

    @functools.cached_property
    def z_star(self) -> np.ndarray:
        """The translations, row-major with the first axis varying
        slowest."""
        xs, ys = self.lefts
        return np.column_stack([np.repeat(xs, len(ys)), np.tile(ys, len(xs))])

    @property
    def copy_count(self) -> int:
        return len(self.lefts[0]) * len(self.lefts[1])

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
        # copies must stay inside their cylinder product, so the base
        # must keep all its area inside [0, beta^-n)^2
        corner = poly.min(axis=0)
        top = np.array([b ** float(-n) for b in betas]) - corner
        a0 = polygon_area(poly)
        a1 = box_areas(envelope_edges(poly), -corner[:1], top[:1],
                       -corner[1:], top[1:])[0]
        if abs(a0 - a1) > 1e-9 * a0:
            raise ConsistencyError(
                "contracted target leaks out of its cylinder product",
                module=_MODULE)

    lefts = tuple(np.array([float(nd.left) for nd in nodes])
                  for nodes in per_axis)
    # lexicographic digit order is numeric order of the cylinders
    if any(np.any(np.diff(l) < 0.0) for l in lefts):
        raise ConsistencyError("cylinder left ends are not ascending",
                               module=_MODULE)
    return EnSet(spec=spec, n=n, mode=mode, base=base, polygon=poly,
                 lefts=lefts, D=box)


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(int(ends[-1]), dtype=np.int64) - \
        np.repeat(starts, lengths)


def empirical_cover_count(E: EnSet, tau: float,
                          cell_cap: int = DEFAULT_CELL_CAP) -> int:
    """Occupied cells of the mesh-tau grid, exactly.

    Each grid column is an x-slab; a copy's y-range over the slab comes
    from the base polygon's envelope chains, and the touched rows follow.
    The copies are the lattice lefts_x x lefts_y of one base polygon, so
    the slab ranges are computed once per x-left, and each y-left adds
    its shift to them before they become rows.  Open-cell semantics at
    both steps (strict inequalities at slab and row boundaries), so
    abutting copies never double-book a boundary cell.  The count is the
    size of the union of those row intervals within each column, so
    memory grows with the (copy, grid column) pairs, not with the cells;
    cell_cap bounds the number of such pairs.
    """
    tau = float(tau)
    if not (0.0 < tau < 1.0):
        raise DomainError(f"mesh must lie in (0, 1), got {tau}",
                          module=_MODULE)
    lower, upper = envelope_chains(E.polygon)
    bx0, _, bx1, _ = polygon_bbox(E.polygon)
    xs, ys = E.lefts
    reach = np.abs(np.concatenate(E.lefts)).max() + np.abs(E.polygon).max()
    if not reach / tau < _INDEX_LIMIT:
        raise ResourceLimitError(
            f"mesh {tau!r} too fine: grid indices would overflow the "
            "packed int64 cell keys",
            module=_MODULE)

    k_low, k_high = cell_range(bx0 + xs, bx1 + xs, tau, open=True)
    cols = np.maximum(k_high - k_low + 1, 0)
    pairs = int(cols.sum()) * len(ys)
    if pairs > cell_cap:
        raise ResourceLimitError(
            f"{pairs} grid columns exceed cap {cell_cap}; "
            "raise cell_cap or coarsen the mesh", module=_MODULE)
    ylo, yhi = slab_ranges(lower, upper, xs, k_low, cols, tau)
    # the column in the high bits keeps every row interval in its column
    col = (np.repeat(k_low, cols) + _grouped_arange(cols)) * _KEY_SHIFT

    # row intervals [start, end] per (x-left column, y-left), in chunks
    # that bound the float temporaries
    start = np.empty((len(col), len(ys)), dtype=np.int64)
    end = np.empty_like(start)
    step = max(1, _PAIR_CHUNK // len(ys))
    for r in range(0, len(col), step):
        rs = slice(r, r + step)
        l_low, l_high = cell_range(ylo[rs, None] + ys, yhi[rs, None] + ys,
                                   tau, open=True)
        start[rs] = col[rs, None] + l_low
        end[rs] = col[rs, None] + l_high
    # cell x is covered when more intervals start at or before x than end
    # before it.  An empty interval has end = start - 1 (cell_range is
    # monotone and ylo <= yhi), which moves neither count.  With starts
    # and ends sorted apart, the i-th term counts the cells of
    # (end[i-1], end[i]] from start[i] on: each covered cell once.  The
    # stable sort merges the ascending runs, one per x-left; the rest runs
    # in place, so the two key arrays set the memory peak.
    start, end = start.ravel(), end.ravel()
    start.sort(kind="stable")
    end.sort(kind="stable")
    start -= 1
    np.maximum(start[1:], end[:-1], out=start[1:])
    end -= start
    return int(np.maximum(end, 0, out=end).sum())


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
    if not out < 1024.0:
        raise DomainError(
            f"predicted count 2^{out:.6g} at mesh {tau!r} exceeds the float "
            "range", module=_MODULE)
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
        pred = predicted_cover_count(spec, n, tau, level=level)
        count = empirical_cover_count(E, tau, cell_cap=cell_cap)
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


def _axis_ranges(lo, hi, ends0, ends1):
    """Per ball, the copies along one axis that overlap [lo, hi], as
    [o0, o1), and those of them wholly inside it, as [i0, i1).

    ends0 and ends1 are the copies' low and high bounding-box ends on the
    axis, both ascending, so each set is one run of indices.
    """
    o0 = np.searchsorted(ends1, lo, side="right")
    o1 = np.maximum(np.searchsorted(ends0, hi, side="left"), o0)
    i0 = np.clip(np.searchsorted(ends0, lo, side="left"), o0, o1)
    i1 = np.clip(np.searchsorted(ends1, hi, side="right"), i0, o1)
    return o0, o1, i0, i1


def _ball_masses(M: MuMeasure, centers: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Masses of the max-norm balls B(centers[k], radii[k]).

    Copies whose bounding box lies in the ball's square add their whole
    weight; each straddler adds the weight times the fraction of its area
    inside the square, in ascending copy order per ball.
    """
    en = M.en
    bx0, by0, bx1, by1 = polygon_bbox(en.polygon)
    xs, ys = en.lefts
    cx, cy = centers[:, 0], centers[:, 1]
    xlo, xhi, ylo, yhi = cx - radii, cx + radii, cy - radii, cy + radii
    ox0, ox1, ix0, ix1 = _axis_ranges(xlo, xhi, xs + bx0, xs + bx1)
    oy0, oy1, iy0, iy1 = _axis_ranges(ylo, yhi, ys + by0, ys + by1)
    w = M.weight
    masses = ((ix1 - ix0) * (iy1 - iy0)).astype(float) * w

    # straddlers (O_x - I_x) x O_y and I_x x (O_y - I_y) as four blocks
    # of rows x columns per ball
    row0 = np.stack([ox0, ix1, ix0, ix0], axis=1)
    rows = np.stack([ix0 - ox0, ox1 - ix1, ix1 - ix0, ix1 - ix0], axis=1)
    col0 = np.stack([oy0, oy0, oy0, iy1], axis=1)
    cols = np.stack([oy1 - oy0, oy1 - oy0, iy0 - oy0, oy1 - iy1], axis=1)
    rows = np.where(cols > 0, rows, 0)
    pairs = np.cumsum((rows * cols).sum(axis=1))
    edges = envelope_edges(en.polygon)
    area = en.copy_area
    ncop = en.copy_count
    start = 0
    while start < len(radii):
        done = pairs[start - 1] if start else 0
        stop = max(int(np.searchsorted(pairs, done + _PAIR_CHUNK,
                                       side="right")), start + 1)
        if pairs[stop - 1] > done:
            blk = np.arange(4 * start, 4 * stop)
            nr = rows.ravel()[blk]
            blk = np.repeat(blk, nr)
            ix = row0.ravel()[blk] + _grouped_arange(nr)
            nc = cols.ravel()[blk]
            blk = np.repeat(blk, nc)
            ix = np.repeat(ix, nc)
            iy = col0.ravel()[blk] + _grouped_arange(nc)
            ball = blk // 4
            order = np.argsort(ball * ncop + ix * len(ys) + iy)
            ball, ix, iy = ball[order], ix[order], iy[order]
            piece = box_areas(edges, xlo[ball] - xs[ix] - bx0,
                              xhi[ball] - xs[ix] - bx0,
                              ylo[ball] - ys[iy] - by0,
                              yhi[ball] - ys[iy] - by0)
            np.add.at(masses, ball, piece / area * w)
        start = stop
    return masses


def mu_ball_mass(M: MuMeasure, center, r: float) -> float:
    """Exact mass of the max-norm ball B(center, r).

    Copies fully inside the ball's square contribute their whole weight;
    each straddler contributes its weight times the fraction of its area
    inside the square, integrated in closed form.  A batch of one through
    the kernel of verify_measure_bound.
    """
    r = float(r)
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}",
                          module=_MODULE)
    c = np.array([[float(center[0]), float(center[1])]])
    return float(_ball_masses(M, c, np.array([r]))[0])


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
    ball-mass case analysis is exercised.  All balls are drawn first and
    their masses computed in one batch, the same values mu_ball_mass
    gives one at a time.  Returns the maximum of mu(B) |D|^d / r^t with
    its witness, the first ball to reach it; deterministic for a fixed
    seed.
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

    # draw every ball first, with the RNG calls of a per-ball loop
    sizes = [per] * len(regimes)
    sizes[0] += extra
    idx = np.empty(samples, dtype=np.int64)
    uv = np.empty((samples, 2))
    radii = np.empty(samples)
    j = 0
    for (_, draw), size in zip(regimes, sizes):
        for k in range(size):
            idx[j] = rng.integers(en.copy_count)
            uv[j] = rng.random(2)
            radii[j] = draw(rng, k)
            j += 1
    centers = (en.z_star[idx] + origin + uv[:, :1] * cols[:, 0]
               + uv[:, 1:] * cols[:, 1])
    masses = _ball_masses(M, centers, radii)

    best = -math.inf
    worst = ((math.nan, math.nan), math.nan, "", math.nan)
    regime_max: Dict[str, float] = {}
    regime_witness: Dict[str, Tuple[Tuple[float, float], float, float]] = {}
    start = 0
    for (name, _), size in zip(regimes, sizes):
        peak = -math.inf
        # element by element: lists of all balls would leave the
        # interpreter's heap fragmented, raising later peak memory
        for j in range(start, start + size):
            c, r, mass = centers[j], float(radii[j]), float(masses[j])
            ratio = mass * side ** 2 / r ** t
            if ratio > peak:
                peak = ratio
                regime_witness[name] = ((float(c[0]), float(c[1])), r, mass)
            if ratio > best:
                best = ratio
                worst = ((float(c[0]), float(c[1])), r, name, mass)
        regime_max[name] = peak
        start += size
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
