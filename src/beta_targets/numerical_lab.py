"""Desk-scale 2-D verification of the covering and measure arguments.

Materializes the level-n approximant E_n = union of translated copies
f^n P_n + z* (one copy per admissible digit-word pair, z* the left
endpoint of the word's cylinder product), then checks the two proof
engines numerically:

  * covering: occupied-cell counts on a mesh-tau grid against the
    predicted ball count;
  * measure: the uniform per-copy area measure and the ball-mass bound
    mu(B(x, r)) <= C r^t / |D|^d over stratified radius regimes.  Each
    straddling (ball, copy) pair is one box of polygons.box_areas, which
    works edge-major (one row of boxes per polygon edge) in a workspace
    it allocates once per call.

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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .beta_dynamics import Interval, count_words, cylinder_blocks
from .dimension_engine import (
    LevelData,
    TargetSpec,
    _check_float_level,
    s_n,
)
from .errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    ScaleRangeError,
    _as_float,
    _as_floats,
)
from .parallelepiped_geometry import (_LOG2_RTOL, _MIN_LOG2_NORMAL,
                                      Parallelepiped, scale_by_f)
from .polygons import (
    box_areas,
    cell_range,
    envelope_chains,
    envelope_edges,
    parallelogram_polygon,
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
    "verify_measure_bound",
]

_MODULE = "numerical_lab"

DEFAULT_COPY_CAP = 200_000
DEFAULT_CELL_CAP = 30_000_000

_UNIT = Interval(0.0, 1.0)

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
    (lefts[0][i], lefts[1][j]).  D is None when every admissible word
    has its copy, else the box whose full words do.
    """

    spec: TargetSpec
    n: int
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
        """|det| of the base columns as the 2x2 cross product, which is
        exact on an axis box and a few roundings off wherever its two
        products share a sign, as on a rotated box.  2**base.log2_volume
        would add the error of its log2 and exp2, about |log2 area| 2^-53
        relative, and numpy's det goes through exp(log|det|) too."""
        (a, b), (c, d) = self.base.columns.tolist()
        return abs(a * d - b * c)


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
        return self.en.D[0].length


@dataclasses.dataclass(frozen=True)
class CoverRow:
    tau: float
    count: int
    predicted: float
    ratio: float


@dataclasses.dataclass(frozen=True)
class CoverScan:
    n: int
    level: LevelData
    rows: Tuple[CoverRow, ...]


@dataclasses.dataclass(frozen=True)
class MeasureBoundReport:
    regime_max: Dict[str, float]
    # per-regime witness of the max: (center, radius, mass)
    regime_witness: Dict[str, Tuple[Tuple[float, float], float, float]]
    t: float


def _validate_box(D) -> Tuple[Interval, Interval]:
    try:
        box = tuple(I if isinstance(I, Interval) else Interval(
            *_as_floats(I, "every end of D", _MODULE)) for I in D)
    except TypeError:
        raise DomainError(f"cannot read {D!r} as a product of intervals",
                          module=_MODULE)
    if len(box) != 2:
        raise DomainError("the lab is 2-D; D needs two intervals",
                          module=_MODULE)
    sides = [I.length for I in box]
    for I in box:
        if not (0.0 <= I.left < I.right <= 1.0):
            raise DomainError(f"D factor {I} not inside [0, 1]",
                              module=_MODULE)
    if abs(sides[0] - sides[1]) > 1e-12 * max(sides):
        raise DomainError("D must be a hypercube (equal side lengths)",
                          module=_MODULE)
    _require_normal([("D's side", math.log2(sides[0]))])
    return box


def _require_normal(quantities) -> None:
    """The lab's one float-range rule, decided in log2 before any float
    is built: refuses the first (name, log2 value) below 2^-1022, or
    within the relative 1e-9 that the floats built from it may round."""
    for name, log2 in quantities:
        if not log2 >= _LOG2_RTOL - _MIN_LOG2_NORMAL:
            raise ScaleRangeError(f"{name} is 2^{log2:.6g}, below the "
                                  "smallest normal float", module=_MODULE)


def build_E_n(spec: TargetSpec, n: int, D=None,
              copy_cap: int = DEFAULT_COPY_CAP) -> EnSet:
    """Materialize the level-n copy set.

    Each axis is walked within a window: without D every admissible
    word is taken; with D, the full words whose cylinder sits inside the
    matching factor of D, each copy inside its cylinder product.  Then
    one flow: D's side or a nonzero entry of f^n P_n below the smallest
    normal float is refused (ScaleRangeError), a walk over all of [0, 1)
    must match count_words, and the copies are held to copy_cap once
    their count is known, before walking when it can.
    """
    if spec.dimension != 2:
        raise DomainError("the lab is 2-D only", module=_MODULE)
    _check_float_level(n, _MODULE)
    betas = spec.system.betas
    full = D is not None
    box = _validate_box(D) if full else None
    # Renyi: each axis has at least beta**n words
    if not full and n * math.log(betas[0] * betas[1]) > \
            math.log(max(copy_cap, 1)) + 1e-6:
        raise ResourceLimitError(
            f"at least {betas[0]}**{n} * {betas[1]}**{n} copies exceed "
            f"cap {copy_cap}", module=_MODULE)
    windows = box or (None, None)
    walk = dict(only_full=True, node_cap=10 * copy_cap) if full else {}

    signs, logs = spec.family.log_columns(spec.system.log2_betas, n)
    _require_normal([("the least nonzero entry of f^n P_n", min(
        (x for srow, lrow in zip(signs, logs) for s, x in zip(srow, lrow)
         if s), default=0.0))])
    target = spec.family.target(betas, n)
    v = target.vertices()
    if full and (np.any(v < 0.0) or np.any(v >= 1.0)):
        raise DomainError(
            "full-word mode needs the target inside the unit cube",
            module=_MODULE)
    # a whole window's exact count, (admissible, full)[full]
    counts = [count_words(b, n)[full] if I in (None, _UNIT) else None
              for b, I in zip(betas, windows)]
    lefts = (np.concatenate([np.empty(0)] + [
        blk.lefts for blk in cylinder_blocks(b, n, within=I, **walk)])
        for b, I in zip(betas, windows))
    if None in counts:
        lefts = tuple(lefts)
        counts = [len(l) if c is None else c for l, c in zip(lefts, counts)]
    copies = counts[0] * counts[1]
    if copies > copy_cap:
        raise ResourceLimitError(f"{copies} copies exceed cap {copy_cap}",
                                 module=_MODULE)
    if not copies:
        raise DomainError(f"no full words of length {n} inside {box}",
                          module=_MODULE)
    lefts = tuple(lefts)
    if list(map(len, lefts)) != counts:
        raise ConsistencyError(
            f"walked word counts {list(map(len, lefts))} disagree with the "
            f"recursion counts {counts}", module=_MODULE)

    base = scale_by_f(target, spec.system, n)
    poly = parallelogram_polygon(base.origin, base.columns[:, 0],
                                 base.columns[:, 1])
    if full:
        # the base must lie in [0, beta^-n]^2; it is convex, so its vertices
        # decide, to 2^-40 of the cylinder's side: the float rule keeps
        # n log2 beta <= 1022, so scale_by_f's 2^-(n log2 beta) and
        # beta ** -n round apart by under 2^-42 of it
        top = np.array([b ** float(-n) for b in betas])
        tol = 2.0 ** -40 * top
        if np.any(poly < -tol) or np.any(poly > top + tol):
            raise ConsistencyError(
                "contracted target leaks out of its cylinder product",
                module=_MODULE)

    # lexicographic digit order is numeric order of the cylinders
    if any(np.any(np.diff(l) < 0.0) for l in lefts):
        raise ConsistencyError("cylinder left ends are not ascending",
                               module=_MODULE)
    return EnSet(spec=spec, n=n, base=base, polygon=poly, lefts=lefts, D=box)


def _grouped_arange(lengths: np.ndarray) -> np.ndarray:
    ends = np.cumsum(lengths)
    starts = ends - lengths
    return np.arange(int(ends[-1]), dtype=np.int64) - \
        np.repeat(starts, lengths)


def _runs(*keys: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal key tuples: run i is [at[i], at[i+1])."""
    new = np.zeros(len(keys[0]) + 1, dtype=bool)
    new[0] = new[-1] = True
    for k in keys:
        new[1:-1] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def _sorted_union(col: np.ndarray, ylo: np.ndarray, yhi: np.ndarray,
                  ys: np.ndarray, tau: float) -> int:
    """Cells covered by the row intervals of slabs (col, ylo, yhi) over
    all y-lefts, by one stable sort of packed keys."""
    # the column in the high bits keeps every row interval in its column
    col = col * _KEY_SHIFT
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
    # stable sort merges the ascending runs, one per slab.
    start, end = start.ravel(), end.ravel()
    start.sort(kind="stable")
    end.sort(kind="stable")
    start -= 1
    np.maximum(start[1:], end[:-1], out=start[1:])
    end -= start
    return int(np.maximum(end, 0, out=end).sum())


def _row_unions(ylo: np.ndarray, yhi: np.ndarray, repeats: np.ndarray,
                ys: np.ndarray, tau: float) -> int:
    """The cells that slab i's row intervals over all y-lefts cover,
    repeats[i] times, summed over the slabs: _sorted_union's sum, run
    along each slab's row with no sort."""
    total = 0
    step = max(1, _PAIR_CHUNK // len(ys))
    for r in range(0, len(ylo), step):
        rs = slice(r, r + step)
        start, end = cell_range(ylo[rs, None] + ys, yhi[rs, None] + ys,
                                tau, open=True)
        # flat, so that each step is one contiguous pass; a row's first
        # interval takes no end from the row before
        start, end = start.ravel(), end.ravel()
        first = start[::len(ys)] - 1
        start -= 1
        np.maximum(start[1:], end[:-1], out=start[1:])
        start[::len(ys)] = first
        end -= start
        np.maximum(end, 0, out=end)
        total += int(end.reshape(-1, len(ys)).sum(axis=1) @ repeats[rs])
    return total


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
    size of the union of those row intervals within each column.
    cell_cap bounds the (copy, grid column) pairs, checked before any
    row is computed.

    A column that one x-left books alone needs no sort: along the
    ascending y-lefts its row intervals have ascending starts and
    ascending ends, since float addition, floor, ceil and cell_range's
    open-cell nudges are all monotone, so the union runs along the row.
    Slabs with equal (ylo, yhi) book equal rows, so each distinct y-range
    is unioned once, in chunks, and counted once per column it books
    alone.  A column that several x-lefts book, where copies' x-extents
    meet, keeps one slab per distinct y-range; when more than one
    remains, their row intervals are sorted as packed int64 keys.  Time
    grows with the slabs, the distinct y-ranges times the y-lefts, and
    the pairs of the sorted columns; memory with the slabs and those
    sorted pairs, since the rest runs in chunks.
    """
    tau = _as_float(tau, "the mesh", _MODULE)
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
    count = 0
    # k_low and k_high ascend with the x-lefts, so a column that several
    # x-lefts book is booked by neighbours: the last meet[i] columns of
    # x-left i are the first of x-left i + 1
    if np.any(k_high[:-1] >= k_low[1:]):
        meet = np.maximum(k_high[:-1] - k_low[1:] + 1, 0)
        j = _grouped_arange(cols)
        shared = (j < np.repeat(np.concatenate([[0], meet]), cols)) | \
            (j >= np.repeat(cols - np.concatenate([meet, [0]]), cols))
        col = (np.repeat(k_low, cols) + j)[shared]
        y0, y1 = ylo[shared], yhi[shared]
        ylo, yhi = ylo[~shared], yhi[~shared]
        # equal slabs in one column book equal rows: keep one of each.  A
        # column left with one slab joins the columns booked alone
        order = np.lexsort((y1, y0, col))
        col, y0, y1 = col[order], y0[order], y1[order]
        at = _runs(col, y0, y1)[:-1]
        col, y0, y1 = col[at], y0[at], y1[at]
        alone = np.ones(len(col), dtype=bool)
        alone[1:] = col[1:] != col[:-1]
        alone[:-1] &= alone[1:]
        count = _sorted_union(col[~alone], y0[~alone], y1[~alone], ys, tau)
        ylo = np.concatenate([ylo, y0[alone]])
        yhi = np.concatenate([yhi, y1[alone]])
    # slabs with equal y-ranges book equal rows, so each run of them is
    # unioned once; sorted by ylo, they run together unless a slab of the
    # same ylo and another yhi falls between them
    order = np.argsort(ylo)
    ylo, yhi = ylo[order], yhi[order]
    at = _runs(ylo, yhi)
    return count + _row_unions(ylo[at[:-1]], yhi[at[:-1]], at[1:] - at[:-1],
                               ys, tau)


def predicted_cover_count(spec: TargetSpec, n: int, tau: float,
                          level: Optional[LevelData] = None) -> float:
    """Ball count the covering argument predicts at mesh tau.

    Axes whose cylinders are finer than tau contribute 1/tau each (the
    copies merge into full lines); the rest contribute one copy per
    cylinder; within a copy every frame direction still longer than tau
    contributes its length in tau units.
    """
    tau = _as_float(tau, "the mesh", _MODULE)
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
        raise ScaleRangeError(
            f"predicted count 2^{out:.6g} at mesh {tau!r} exceeds the float "
            "range", module=_MODULE)
    return float(2.0 ** out)


def cover_exponent_scan(spec: TargetSpec, n: int,
                        taus: Optional[Sequence[float]] = None,
                        copy_cap: int = DEFAULT_COPY_CAP,
                        cell_cap: int = DEFAULT_CELL_CAP) -> CoverScan:
    """Occupancy counts across the candidate scales of level n.

    Each row reports the measured count, the predicted count and their
    ratio; with s = s_n the products count * tau^s stay bounded across n
    while any s above s_n sends them to zero.
    """
    level = s_n(spec, n)
    if taus is None:
        taus = level.candidates
    E = build_E_n(spec, n, copy_cap=copy_cap)
    rows = []
    for tau in taus:
        tau = _as_float(tau, "every mesh", _MODULE)
        pred = predicted_cover_count(spec, n, tau, level=level)
        count = empirical_cover_count(E, tau, cell_cap=cell_cap)
        rows.append(CoverRow(tau=tau, count=count, predicted=pred,
                             ratio=count / pred))
    return CoverScan(n=n, level=level, rows=tuple(rows))


def build_measure(spec: TargetSpec, n: int, D, t: float,
                  eps: Optional[float] = None,
                  copy_cap: int = DEFAULT_COPY_CAP) -> MuMeasure:
    """Uniform measure on the full-word copies inside D.

    eps defaults to half the gap below the level value, mirroring how
    the proof splits s* - t.  Before any walk, a level short of the side
    condition n >= -(1 + eps/d) log_beta |D| is refused (DomainError), as
    is a copy area, ball radius or r^t below 2^-1022 (ScaleRangeError).
    """
    level = s_n(spec, n)
    t = _as_float(t, "the exponent t", _MODULE)
    if not (0.0 <= t < level.s_n):
        raise DomainError(
            f"exponent t must lie in [0, s_n) = [0, {level.s_n:.6g})",
            module=_MODULE)
    if eps is None:
        eps = (level.s_n - t) / 2.0
    eps = _as_float(eps, "eps", _MODULE)
    if not (eps > 0.0 and t < level.s_n - eps + 1e-12):
        raise DomainError(
            f"need 0 < eps < s_n - t = {level.s_n - t:.6g}, got {eps}",
            module=_MODULE)
    box = _validate_box(D)
    length = box[0].length
    # the least of the lower radii of _radius_samplers' regimes
    least = min(math.log2(length), level.gamma_log2[-1] + math.log2(1e-2),
                -n * min(spec.system.log2_betas), level.candidates_log2_tau[0])
    _require_normal([
        ("the copy area", spec.family.log2_volume(spec.system.log2_betas, n)),
        ("the least ball radius", least),
        ("r^t at the least radius", t * least)])
    if spec.dimension != 2:  # before the side condition, as build_E_n
        raise DomainError("the lab is 2-D only", module=_MODULE)
    for b in spec.system.betas:
        # from this level on, b**-n is at most length**(1 + eps/2)
        need = -(1 + eps / 2.0) * math.log(length) / math.log(b)
        if not n >= need - 1e-12:
            raise DomainError(
                f"level {n} too small for |D|={length:.3g} under "
                f"base {b:.6g}: need n >= {need:.3f}", module=_MODULE)
    en = build_E_n(spec, n, D=box, copy_cap=copy_cap)
    return MuMeasure(en=en, t=t, eps=eps, level=level)


def _axis_ranges(lo, hi, ends0, ends1):
    """Per ball, the copies along one axis that overlap [lo, hi], as
    [o0, o1), and those of them wholly inside it, as [i0, i1).

    ends0 and ends1 are the copies' low and high bounding-box ends on the
    axis, both ascending, so each set is one run of indices.
    """
    o0 = np.searchsorted(ends1, lo, side="right")
    o1 = np.maximum(np.searchsorted(ends0, hi, side="left"), o0)
    i0 = np.searchsorted(ends0, lo, side="left")
    i1 = np.searchsorted(ends1, hi, side="right")
    i0 = np.minimum(np.maximum(i0, o0), o1)
    i1 = np.minimum(np.maximum(i1, i0), o1)
    return o0, o1, i0, i1


def _ball_masses(M: MuMeasure, centers: np.ndarray,
                 radii: np.ndarray) -> np.ndarray:
    """Masses of the max-norm balls B(centers[k], radii[k]).

    Copies whose bounding box lies in the ball's square add their whole
    weight; each straddler adds the weight times the fraction of its area
    inside the square, in ascending copy order per ball.  The straddlers'
    areas come from box_areas in chunks of about _PAIR_CHUNK (ball,
    copy) pairs, each chunk one call and so one edge-major workspace;
    a ball's pairs are never split, so each ball gets the mass it would
    get alone.
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
    edges = envelope_edges(*envelope_chains(en.polygon))
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


def _radius_samplers(M: MuMeasure):
    """The four radius regimes of the ball-mass argument, as (name,
    bounds): the k-th ball of a regime draws its radius log-uniformly
    between the (lo, hi) of bounds[k % len(bounds)]."""
    side = M.box_side
    gamma_small = 2.0 ** M.level.gamma_log2[-1]
    beta_coarse = max(b ** float(-M.en.n) for b in M.en.spec.system.betas)
    taus = sorted((2.0 ** c for c in M.level.candidates_log2_tau),
                  reverse=True)
    # between adjacent candidate scales, each pair in turn
    spectrum = list(zip(taus[1:], taus[:-1])) or [(gamma_small, side)]
    return [
        ("beyond_box", [(side, 2.0 * side)]),
        ("below_frame", [(gamma_small * 1e-2, gamma_small)]),
        ("cylinder_to_box", [(beta_coarse, side)]),
        ("between_scales", spectrum),
    ]


def verify_measure_bound(M: MuMeasure, samples: int = 2000,
                         rng_seed: int = 0) -> MeasureBoundReport:
    """Monte-Carlo check of mu(B(x, r)) <= C r^t / |D|^d, t = M.t.

    Centers are uniform over random copies (hence inside E_n and D);
    radii are stratified across four regimes so each branch of the
    ball-mass case analysis is exercised.  The seed's generator draws
    every ball's copy in one rng.integers(copies, size=samples) call,
    then a (samples, 3) rng.random array: the point in the copy, and
    the fraction w of the way from log lo to log hi of the log radius.
    The masses come in one batch through _ball_masses, which gives each
    ball the mass it would get alone, while exp and r^t stay Python
    float calls: numpy's vectorised exp and power may round differently
    on another CPU.
    Returns each regime's maximum of mu(B) |D|^d / r^t with its witness,
    the regime's first ball to reach it; the same seed gives the same
    report.
    Every |D|^d, radius and r^t is normal for a measure of build_measure.
    """
    t = M.t
    if not 0.0 <= t < M.level.s_n - M.eps + 1e-12:
        raise DomainError(
            f"need 0 <= t < s_n - eps = {M.level.s_n - M.eps:.6g}, got {t}",
            module=_MODULE)
    if isinstance(samples, bool) or \
            not isinstance(samples, (int, np.integer)) or samples < 4:
        raise DomainError(f"need an integer of at least 4 samples, got "
                          f"{samples!r}", module=_MODULE)
    try:
        rng = np.random.default_rng(rng_seed)
    except (TypeError, ValueError):
        raise DomainError(f"rng_seed must be a non-negative integer, got "
                          f"{rng_seed!r}", module=_MODULE) from None
    en = M.en
    cols = en.base.columns
    regimes = _radius_samplers(M)
    per = samples // len(regimes)
    sizes = [per] * len(regimes)
    sizes[0] += samples - per * len(regimes)

    idx = rng.integers(en.copy_count, size=samples)
    units = rng.random((samples, 3))
    centers = (en.z_star[idx] + en.base.origin + units[:, :1] * cols[:, 0]
               + units[:, 1:2] * cols[:, 1])
    # the k-th ball of a regime between the logs of bounds[k % len(bounds)]
    lo, hi = np.concatenate([
        np.array([(math.log(a), math.log(b)) for a, b in bounds])[
            np.arange(size) % len(bounds)]
        for (_, bounds), size in zip(regimes, sizes)]).T
    radii = list(map(math.exp, (lo + (hi - lo) * units[:, 2]).tolist()))
    power = np.array([r ** t for r in radii])
    masses = _ball_masses(M, centers, np.array(radii))
    ratios = masses * M.box_side ** 2 / power

    regime_max: Dict[str, float] = {}
    regime_witness: Dict[str, Tuple[Tuple[float, float], float, float]] = {}
    start = 0
    for (name, _), size in zip(regimes, sizes):
        j = start + int(np.argmax(ratios[start:start + size]))
        regime_max[name] = float(ratios[j])
        regime_witness[name] = ((float(centers[j, 0]),
                                 float(centers[j, 1])),
                                radii[j], float(masses[j]))
        start += size
    return MeasureBoundReport(regime_max=regime_max,
                              regime_witness=regime_witness, t=t)
