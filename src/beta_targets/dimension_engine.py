"""Dimension formula for shrinking parallelepiped targets.

For a sequence of targets P_n and the product map contracting coordinate
i by beta_i per step, the candidate set at level n is

    A_n = {beta_1^-n, ..., beta_d^-n} u {|gamma_1|, ..., |gamma_d|}

with gamma_i the pivoted-orthogonalization norms of the contracted target
f^n P_n, and

    s_n = min over tau in A_n of
          #{i : beta_i^-n <= tau}
          + sum over the rest of n log beta_i / (-log tau)
          + sum over {i : |gamma_i| >= tau} of (1 - log|gamma_i|/log tau).

The dimension of the limsup set is the limsup of s_n; this module reports
a windowed max with an explicit convergence flag, never an extrapolation.

Everything runs in the log domain: the objective consumes only logarithms
and the gamma norms come from the log-domain orthogonalization, so
levels far beyond float range (beta_i^-n underflowing) cost nothing.

Every family (linear o + R diag(beta_j^(-n t_j)) [0,1]^d with R fixed,
rotated-2D with theta_n = arccos(2^(-a n)), explicit list) implements
the TargetFamily interface; the public functions validate the level once
and delegate to it.  Levels whose log2 scales leave float range raise
ScaleRangeError.

Two evaluation modes.  "exact" uses the finite-n magnitudes as defined
above.  "limit" replaces each log magnitude by its leading growth rate
per level (so constants like log cos(theta) drop out); for families whose
shape is constant in n this reproduces the limiting closed forms at
every n, where the exact finite-n value only approaches them as n grows.
Rate extraction needs an analytic family (for d >= 3, a matrix R with
one nonzero entry per column); other targets raise a domain error.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .beta_dynamics import _check_level
from .errors import (ConsistencyError, DomainError, ScaleRangeError,
                     _as_float, _as_floats)
from .parallelepiped_geometry import (
    BetaSystem,
    Parallelepiped,
    _beats,
    _floats,
    _pivot_scan,
)

__all__ = [
    "TargetFamily",
    "LinearFamily",
    "Rotated2DFamily",
    "ExplicitTargets",
    "TargetSpec",
    "LevelData",
    "DimensionReport",
    "s_n",
    "s_star",
]

_MODULE = "dimension_engine"

# relative dedup tolerance for the candidate set
_DEDUP_RTOL = 1e-12

_FLOAT_MAX = sys.float_info.max
# the last level with a float value
_LAST_FLOAT_LEVEL = int(_FLOAT_MAX)

_INF = math.inf


class TargetFamily(Protocol):
    """A family of targets P_n, n >= 1, as the dimension formula uses it.

    Levels arrive validated (positive integers); log2_betas and betas
    come from the BetaSystem of the TargetSpec.
    """

    dimension: int

    def log_columns(self, log2_betas, n: int):
        """Columns of f^n P_n as (signs, log2 magnitudes), each a
        sequence of matrix rows."""

    def target(self, betas, n: int) -> Parallelepiped:
        """P_n itself in plain floats."""

    def rates(self, log2_betas):
        """Leading gamma-norm decay rates per level, log2 units (the
        contraction rates are log2_betas in every family); DomainError
        when the family has no decay law."""

    def log2_volume(self, log2_betas, n: int) -> float:
        """log2 vol(f^n P_n), independent of the frame."""


def _log2_parts(v: float):
    """(sign, log2|v|), with sign 0 and -inf for an exact zero."""
    if v == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, v), math.log2(abs(v))


def _exponents(exponents, d: int) -> Tuple[float, ...]:
    ex = _as_floats(exponents, "every exponent", _MODULE)
    if len(ex) != d or not all(0.0 < t < math.inf for t in ex):
        raise DomainError(f"need {d} positive finite exponents, got "
                          f"{exponents!r}", module=_MODULE)
    return ex


def _contract(signs, logs, exponents, log2_betas, n: int, r_bound=1075.0):
    """Columns of f^n R diag(beta_j^(-n t_j)) as (signs, log2 magnitudes)
    from R's, at most r_bound in absolute value (1075 for any float):
    entry (i, j) is log2|R_ij| - n (t_j l_j + l_i), on the diagonal
    log2|R_jj| - n (1 + t_j) l_j, with l = log2_betas.  The frame doubles
    sums over minors, each taking every row and every column at most
    once, so B = 2 (d r_bound + n sum_j (1 + t_j) l_j) bounds them in
    exact arithmetic.  In floats each entry rounds at most five times
    (the product with n counts its int-to-float conversion), a minor's
    log at most d times more, and B itself at most d + 4 times: the
    doubled sums may pass the computed B by a relative (2 d + 9) 2^-53
    to first order.  So a level where B widened by (d + 4) 2^-50, over
    three times that, or n (1 + t_j) on the way to the diagonal, passes
    float range raises ScaleRangeError."""
    tl = [t * l for t, l in zip(exponents, log2_betas)]
    d = len(tl)
    if not 2.0 * (d * r_bound + n * _volume_rate(
            exponents, tuple(log2_betas))) * (1.0 + (d + 4) * 2.0 ** -50) \
            < _FLOAT_MAX or not n * (1.0 + max(exponents)) < _FLOAT_MAX:
        raise ScaleRangeError("the log2 magnitudes of f^n P_n are past "
                              "float range at this level", module=_MODULE)
    mags = []
    for i, (row, li) in enumerate(zip(logs, log2_betas)):
        mag = [r - n * (x + li) for r, x in zip(row, tl)]
        mag[i] = row[i] - n * (1.0 + exponents[i]) * li
        mags.append(mag)
    return signs, mags


def _entry_rate(i: int, j: int, exponents, log2_betas) -> float:
    """The per-level decay rate of entry (i, j) of _contract."""
    t, l = exponents[j], log2_betas[j]
    return (1.0 + t) * l if i == j else t * l + log2_betas[i]


@functools.lru_cache(maxsize=256)
def _volume_rate(exponents, log2_betas) -> float:
    """sum (1 + t_j) l_j, by which log2 vol(f^n P_n) of a linear family
    falls per level; cached, as every level of a run asks for it."""
    return sum((1.0 + t) * l for t, l in zip(exponents, log2_betas))


def _planar_rates(entry_rates, exponents, log2_betas):
    """d = 2: the least live entry rate, and the volume rate less it."""
    g1 = min(entry_rates)
    return g1, _volume_rate(exponents, log2_betas) - g1


def _frozen(x):
    """ndarray.tolist's floats and nested lists as nested tuples: a cache
    key, or rows shared between callers."""
    return tuple(map(_frozen, x)) if isinstance(x, list) else x


@functools.lru_cache(maxsize=256)
def _matrix_parts(rows, origin):
    """(signs, log2 magnitudes, log2|det|) of a matrix R, which
    Parallelepiped(origin, R) checks and measures; cached, as a run builds
    the same few matrices once per job."""
    log2_det = Parallelepiped(origin, rows).log2_volume
    signs, logs = zip(*(zip(*map(_log2_parts, row)) for row in rows))
    return signs, logs, log2_det


def _target(rot, betas, exponents, n: int, origin) -> Parallelepiped:
    sides = [b ** (-n * t) for b, t in zip(betas, exponents)]
    return Parallelepiped(origin, rot @ np.diag(sides))


@dataclasses.dataclass(frozen=True)
class LinearFamily:
    """P_n = origin + R diag(beta_j^(-n t_j)) [0, 1]^d for a fixed R, kept
    as a tuple of rows: R = I is the axis box, R a rotation the constantly
    rotated one.  R and the origin (0 by default) are refused as
    Parallelepiped(origin, R) refuses them."""

    matrix: Tuple[Tuple[float, ...], ...]
    exponents: Tuple[float, ...]
    origin: Tuple[float, ...]

    def __init__(self, matrix, exponents: Sequence[float],
                 origin: Optional[Sequence[float]] = None):
        m = _floats(matrix, "the matrix")
        org = np.zeros(m.shape[:1]) if origin is None else \
            _floats(origin, "origin")
        self._fill(_frozen(m.tolist()), exponents, _frozen(org.tolist()))

    def _fill(self, rows, exponents, origin) -> None:
        """The fields from R's rows and the origin as tuples of Python
        floats, what __init__ makes of its arguments; R and the origin are
        checked by _matrix_parts, then the exponents."""
        signs, logs, log2_det = _matrix_parts(rows, origin)
        vars(self).update(_signs=signs, _logs=logs, _log2_det=log2_det,
                          matrix=rows,
                          exponents=_exponents(exponents, len(rows)),
                          origin=origin)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def log_columns(self, log2_betas, n: int):
        return _contract(self._signs, self._logs, self.exponents,
                         log2_betas, n)

    def target(self, betas, n: int) -> Parallelepiped:
        return _target(np.array(self.matrix), betas, self.exponents, n,
                       self.origin)

    def rates(self, log2_betas):
        # one nonzero entry per column: orthogonal contracted columns
        rates = [_entry_rate(i, j, self.exponents, log2_betas)
                 for i, row in enumerate(self._signs)
                 for j, s in enumerate(row) if s]
        if len(rates) == self.dimension:
            return tuple(sorted(rates))
        if self.dimension != 2:
            raise DomainError("limit rates need d = 2 or one nonzero "
                              "entry per matrix column", module=_MODULE)
        return _planar_rates(rates, self.exponents, log2_betas)

    def log2_volume(self, log2_betas, n: int) -> float:
        return self._log2_det - n * _volume_rate(self.exponents,
                                                 tuple(log2_betas))


def _linear_family(rows, exponents, origin) -> LinearFamily:
    """LinearFamily(rows, exponents, origin) for rows and origin that are
    already tuples of Python floats, without their float array round
    trip."""
    family = object.__new__(LinearFamily)
    family._fill(rows, exponents, origin)
    return family


@dataclasses.dataclass(frozen=True)
class Rotated2DFamily:
    """P_n = (1/2, 1/2) + R(theta_n) diag(beta_j^(-n t_j)) [0, 1]^2 with
    cos theta_n = 2^(-a n), straightening as n grows when a > 0."""

    a: float
    exponents: Tuple[float, float] = (1.0, 1.0)

    def __init__(self, a: float, exponents: Sequence[float] = (1.0, 1.0)):
        a = _as_float(a, "the decay parameter", _MODULE)
        if not 0.0 <= a < math.inf:
            raise DomainError(f"decay parameter must be >= 0, got {a}",
                              module=_MODULE)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "exponents", _exponents(exponents, 2))

    dimension = 2
    _log2_det = 0.0
    log2_volume = LinearFamily.log2_volume

    def log_columns(self, log2_betas, n: int):
        # log2 cos theta_n = -a n exactly; sin^2 = 1 - 2^(-2an) by log1p
        lc, ss, ls = -self.a * n, 0.0, -math.inf
        x = 2.0 ** (-2.0 * self.a * n) if 2.0 * self.a * n < 1074 else 0.0
        if x < 1.0:
            ss, ls = 1.0, 0.5 * math.log1p(-x) / math.log(2.0)
        return _contract(((1.0, -ss), (ss, 1.0)), ((lc, ls), (ls, lc)),
                         self.exponents, log2_betas, n, 1075.0 - lc)

    def target(self, betas, n: int) -> Parallelepiped:
        c = 2.0 ** (-self.a * n)
        s = math.sqrt(1.0 - c * c)
        return _target(np.array([[c, -s], [s, c]]), betas, self.exponents,
                       n, (0.5, 0.5))

    def rates(self, log2_betas):
        # cos theta_n decays at rate a; sin theta_n at rate 0, or is 0
        live = ((0, 0), (1, 1), (0, 1), (1, 0)) if self.a else ((0, 0), (1, 1))
        return _planar_rates(
            [_entry_rate(i, j, self.exponents, log2_betas) + self.a * (i == j)
             for i, j in live], self.exponents, log2_betas)


@dataclasses.dataclass(frozen=True)
class ExplicitTargets:
    """P_n given outright; shapes[n-1] is the level-n target.  columns
    stacks their column matrices, (K, d, d), and log2_volumes holds their
    log2 |det|."""

    shapes: Tuple[Parallelepiped, ...]
    columns: np.ndarray = dataclasses.field(repr=False, compare=False)
    log2_volumes: Tuple[float, ...] = dataclasses.field(repr=False,
                                                        compare=False)

    def __init__(self, shapes: Sequence[Parallelepiped]):
        sh = tuple(shapes)
        if not sh:
            raise DomainError("need at least one target", module=_MODULE)
        if not all(isinstance(p, Parallelepiped) for p in sh):
            raise DomainError("explicit targets must be parallelepipeds",
                              module=_MODULE)
        if any(p.dimension != sh[0].dimension for p in sh):
            raise DomainError("all targets must share one dimension",
                              module=_MODULE)
        cols = np.stack([p.columns for p in sh])
        cols.setflags(write=False)
        object.__setattr__(self, "shapes", sh)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "log2_volumes",
                           tuple(p.log2_volume for p in sh))

    @property
    def dimension(self) -> int:
        return self.columns.shape[1]

    def _level(self, n: int) -> int:
        if n > len(self.shapes):
            raise DomainError(
                f"explicit target list has {len(self.shapes)} levels, "
                f"asked for {n}", module=_MODULE)
        return n - 1

    @functools.cached_property
    def _log_parts(self):
        """Signs and log2 magnitudes of every level's columns, taken once
        for the whole stack; the signs as tuples, since log_columns hands
        the same rows to every caller."""
        with np.errstate(divide="ignore"):
            logs = np.log2(np.abs(self.columns))
        return _frozen(np.sign(self.columns).tolist()), logs.tolist()

    def target(self, betas, n: int) -> Parallelepiped:
        return self.shapes[self._level(n)]

    def log_columns(self, log2_betas, n: int):
        k = self._level(n)
        signs, logs = self._log_parts
        shifts = [n * l for l in log2_betas]
        return signs[k], [[x - shift for x in row]
                          for row, shift in zip(logs[k], shifts)]

    def rates(self, log2_betas):
        raise DomainError(
            "explicit target lists have no asymptotic rates; use exact mode",
            module=_MODULE)

    def log2_volume(self, log2_betas, n: int) -> float:
        return self.log2_volumes[self._level(n)] - n * sum(log2_betas)


@dataclasses.dataclass(frozen=True)
class TargetSpec:
    system: BetaSystem
    family: TargetFamily

    def __post_init__(self):
        if self.family.dimension != self.system.dimension:
            raise DomainError(
                f"{type(self.family).__name__} has dimension "
                f"{self.family.dimension}, the system "
                f"{self.system.dimension}", module=_MODULE)

    @property
    def dimension(self) -> int:
        return self.system.dimension

    @property
    def rates(self):
        """The family's limit rates on this system, computed once.  Not a
        functools.cached_property, whose first use takes a lock in Python
        3.11 that costs as much as the rates."""
        cache = vars(self)
        if "_rates" not in cache:
            cache["_rates"] = self.family.rates(self.system.log2_betas)
        return cache["_rates"]


@dataclasses.dataclass(frozen=True)
class LevelData:
    """One level of the dimension computation, all magnitudes as log2.

    gamma_log2 is sorted non-increasing up to the pivot scan's tie band;
    candidates_log2_tau is the deduplicated A_n, ascending;
    argmin_tau_log2 is the minimizer.
    Positivity and ordering of the gamma norms are enforced on the log
    values, which stay finite long after the raw magnitudes underflow.
    """

    n: int
    gamma_log2: Tuple[float, ...]
    candidates_log2_tau: Tuple[float, ...]
    s_n: float
    argmin_tau_log2: float
    mode: str

    def __init__(self, n: int, gamma_log2: Tuple[float, ...],
                 candidates_log2_tau: Tuple[float, ...], s_n: float,
                 argmin_tau_log2: float, mode: str):
        # the fields in one update, not one object.__setattr__ each as a
        # generated frozen __init__ sets them: every level builds one
        vars(self).update(n=n, gamma_log2=gamma_log2,
                          candidates_log2_tau=candidates_log2_tau, s_n=s_n,
                          argmin_tau_log2=argmin_tau_log2, mode=mode)
        g = gamma_log2
        if not all(map(math.isfinite, g)):
            raise ConsistencyError("gamma norms must be positive and finite",
                                   module=_MODULE)
        # a later norm may pass an earlier one only within the pivot
        # scan's tie band, where the scan keeps the earlier column
        if any(map(operator.lt, g, g[1:])) and any(map(_beats, g[1:], g)):
            raise ConsistencyError("gamma norms must be sorted",
                                   module=_MODULE)
        if not (0.0 < s_n <= len(g) + 1e-12):
            raise ConsistencyError(f"s_n out of range: {s_n}",
                                   module=_MODULE)

    @property
    def candidates(self) -> Tuple[float, ...]:
        return tuple(float(np.exp2(c)) for c in self.candidates_log2_tau)


@dataclasses.dataclass(frozen=True)
class DimensionReport:
    levels: Tuple[LevelData, ...]
    s_star: float
    converged: bool


def _check_float_level(n, module: str = _MODULE) -> None:
    _check_level(n, module)
    if n > _FLOAT_MAX:  # n log2 beta_i has no float value
        raise ScaleRangeError("levels above 1.8e308 are past float range",
                              module=module)


def _minimize_objective(w: Sequence[float], g: Sequence[float]):
    """Discrete minimization of the s_n objective over A_n.

    Arguments are -log2 of the contraction scales and gamma norms (any
    consistent positive unit).  As a function of 1/Lambda the objective
    is piecewise affine with breakpoints exactly at the candidates, so
    the minimum over candidates is the true minimum over (0, 1).  Ties
    resolve to the largest Lambda, i.e. the smallest tau.
    """
    cands: List[float] = []
    for v in (*w, *g):
        if not 0.0 < v < _INF:
            if v == _INF:
                raise ScaleRangeError("a candidate scale is past float "
                                      "range even in log2", module=_MODULE)
            raise DomainError(
                "every candidate scale must be strictly below 1; "
                "the target or a gamma norm is too large", module=_MODULE)
        # v and c are positive: the larger is the larger magnitude (the
        # conditionals here pick what max and min would, without a call)
        for c in cands:
            if abs(v - c) <= _DEDUP_RTOL * (c if c > v else v):
                break
        else:
            cands.append(v)
    cands.sort()
    best_val, best_lam = _INF, cands[0]
    for lam in cands:
        val = 0.0
        for wi in w:
            val += 1.0 if wi >= lam else wi / lam
        for gi in g:
            if gi <= lam:
                val += 1.0 - gi / lam
        if val <= best_val + 1e-15:
            best_val, best_lam = (best_val if best_val < val else val), lam
    return best_val, best_lam, cands


def _gamma_log2(spec: TargetSpec, n: int) -> Tuple[float, ...]:
    """log2 |gamma_i| of f^n P_n at a checked level, sorted as the pivot
    scan leaves them: its log2 norms of the family's log columns, held to
    the volume identity.  They stay finite at any level with a float
    value, where the norms themselves flush to zero."""
    log2_betas = spec.system.log2_betas
    _, logs, _ = _pivot_scan(*spec.family.log_columns(log2_betas, n))
    _check_volume_identity(spec, n, logs)
    return logs


def _check_volume_identity(spec: TargetSpec, n: int,
                           gamma_log2: Sequence[float]) -> None:
    """prod |gamma_i| must equal vol(f^n P_n), checked in log2."""
    vol = spec.family.log2_volume(spec.system.log2_betas, n)
    total = float(sum(gamma_log2))
    if abs(total - vol) > 1e-9 * max(1.0, abs(vol)):
        raise ConsistencyError(
            f"gamma norm product (2^{total:.6f}) disagrees with the "
            f"volume of the contracted target (2^{vol:.6f}) at level {n}",
            module=_MODULE)


def _check_mode(mode) -> None:
    if mode not in ("exact", "limit"):
        raise DomainError(f"mode must be 'exact' or 'limit', got {mode!r}",
                          module=_MODULE)


def s_n(spec: TargetSpec, n: int, mode: str = "exact") -> LevelData:
    """Level-n value of the dimension formula.

    mode "exact" evaluates the definition at finite n; mode "limit"
    substitutes leading rates (see module docstring), reproducing the
    closed forms of constant-shape families at every n.
    """
    _check_mode(mode)
    _check_float_level(n)
    return _levels(spec, (n,), mode)[0]


def _levels(spec: TargetSpec, levels, mode: str) -> list:
    """[s_n(spec, n, mode) for n in levels] at checked levels and mode.
    What every level shares (the contraction rates, the limit rates, the
    mode) is read once; the limit rates only when there is a level, as
    reading them can raise."""
    log2_betas = spec.system.log2_betas
    limit = mode == "limit"
    rates = spec.rates if limit and levels else None
    out = []
    for n in levels:
        w = [n * l for l in log2_betas]
        if limit:
            g = [r * n for r in rates]
            gamma_log2 = tuple(map(operator.neg, g))
        else:
            gamma_log2 = _gamma_log2(spec, n)
            g = list(map(operator.neg, gamma_log2))
        value, lam, cands = _minimize_objective(w, g)
        out.append(LevelData(n, gamma_log2,
                             tuple(map(operator.neg, reversed(cands))),
                             value, -lam, mode))
    return out


def s_star(spec: TargetSpec, n_min: int, n_max: int, window: int = 20,
           tolerance: float = 1e-3, mode: str = "exact") -> DimensionReport:
    """Windowed limsup estimate: s* = max of s_n over the last `window`
    levels of [n_min, n_max], with converged set when that window's
    spread is below the tolerance.  No extrapolation is attempted.

    The mode and the levels are checked once for the block, and each
    level is s_n(spec, n, mode); a block whose levels pass float range
    raises, after the levels below it, what s_n raises there."""
    _check_level(n_min, _MODULE)
    _check_level(n_max, _MODULE)
    if n_min > n_max:
        raise DomainError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]",
                          module=_MODULE)
    count = n_max - n_min + 1
    if isinstance(window, bool) or not isinstance(window, int) or \
            not 1 <= window <= count:
        raise DomainError(f"window must be an integer in [1, {count}], "
                          f"got {window!r}", module=_MODULE)
    tolerance = _as_float(tolerance, "tolerance", _MODULE)
    if not tolerance > 0.0:
        raise DomainError("tolerance must be positive", module=_MODULE)
    _check_mode(mode)
    top = min(n_max, _LAST_FLOAT_LEVEL)
    levels = tuple(_levels(spec, range(n_min, top + 1), mode))
    if top < n_max:
        _check_float_level(n_max)
    tail = [lv.s_n for lv in levels[-window:]]
    return DimensionReport(levels=levels, s_star=max(tail),
                           converged=bool(max(tail) - min(tail) < tolerance))
