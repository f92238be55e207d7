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

Every family (axis, rotated-2D, explicit list) implements the
TargetFamily interface; the public functions validate the level once
and delegate to it.

Two evaluation modes.  "exact" uses the finite-n magnitudes as defined
above.  "limit" replaces each log magnitude by its leading growth rate
per level (so constants like log cos(theta) drop out); for families whose
shape is constant in n this reproduces the limiting closed forms at
every n, where the exact finite-n value only approaches them as n grows.
Rate extraction needs an analytic family (axis or rotated-2D); explicit
target lists have no asymptotic rates and raise a domain error.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .beta_dynamics import _check_level
from .errors import ConsistencyError, DomainError
from .parallelepiped_geometry import (
    BetaSystem,
    Parallelepiped,
    pivoted_orthogonalize_scaled,
    rotation_matrix,
)

__all__ = [
    "TargetFamily",
    "AxisFamily",
    "Rotated2DFamily",
    "ExplicitTargets",
    "TargetSpec",
    "LevelData",
    "DimensionReport",
    "generate_target",
    "log_columns",
    "gamma_magnitudes",
    "s_n",
    "s_star",
]

_MODULE = "dimension_engine"

# relative dedup tolerance for the candidate set
_DEDUP_RTOL = 1e-12


class TargetFamily(Protocol):
    """A family of targets P_n, n >= 1, as the dimension formula uses it.

    Levels arrive validated (positive integers); log2_betas and betas
    come from the BetaSystem of the TargetSpec.
    """

    dimension: int

    def log_columns(self, log2_betas, n: int):
        """Columns of f^n P_n as (signs, log2 magnitudes) arrays."""

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


@dataclasses.dataclass(frozen=True)
class AxisFamily:
    """P_n = origin + prod_i [0, beta_i^(-n t_i)] (no rotation)."""

    exponents: Tuple[float, ...]
    origin: Tuple[float, ...] = ()

    def __init__(self, exponents: Sequence[float],
                 origin: Optional[Sequence[float]] = None):
        ex = tuple(float(t) for t in exponents)
        if not ex or any(not math.isfinite(t) or t <= 0.0 for t in ex):
            raise DomainError("axis exponents must be positive and finite",
                              module=_MODULE)
        org = tuple(float(x) for x in origin) if origin is not None \
            else (0.0,) * len(ex)
        if len(org) != len(ex):
            raise DomainError("origin length must match exponents",
                              module=_MODULE)
        object.__setattr__(self, "exponents", ex)
        object.__setattr__(self, "origin", org)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def log_columns(self, log2_betas, n: int):
        d = self.dimension
        signs = np.zeros((d, d))
        mags = np.full((d, d), -np.inf)
        for i, (t, l) in enumerate(zip(self.exponents, log2_betas)):
            signs[i, i] = 1.0
            mags[i, i] = -n * (1.0 + t) * l
        return signs, mags

    def target(self, betas, n: int) -> Parallelepiped:
        sides = [b ** (-n * t) for b, t in zip(betas, self.exponents)]
        return Parallelepiped(self.origin, np.diag(sides))

    def rates(self, log2_betas):
        return tuple(sorted((1.0 + t) * l
                            for t, l in zip(self.exponents, log2_betas)))

    def log2_volume(self, log2_betas, n: int) -> float:
        return -n * sum((1.0 + t) * l
                        for t, l in zip(self.exponents, log2_betas))


@dataclasses.dataclass(frozen=True)
class Rotated2DFamily:
    """P_n = R(theta_n) (prod_i [0, beta_i^(-n t_i)]) + (1/2, 1/2).

    theta rule is either "const" (theta_value radians) or "arccos_pow2"
    (cos theta_n = 2^(-a n), so the rotation straightens as n grows when
    a > 0; a = 0 degenerates to no rotation).
    """

    theta: str
    theta_value: float = 0.0
    a: float = 0.0
    exponents: Tuple[float, float] = (1.0, 1.0)

    def __init__(self, theta: str, theta_value: float = 0.0, a: float = 0.0,
                 exponents: Sequence[float] = (1.0, 1.0)):
        if theta not in ("const", "arccos_pow2"):
            raise DomainError(
                f"theta rule must be 'const' or 'arccos_pow2', got {theta!r}",
                module=_MODULE)
        ex = tuple(float(t) for t in exponents)
        if len(ex) != 2 or any(t <= 0.0 or not math.isfinite(t) for t in ex):
            raise DomainError("need two positive exponents", module=_MODULE)
        if theta == "arccos_pow2" and (not math.isfinite(a) or a < 0.0):
            raise DomainError(f"decay parameter must be >= 0, got {a}",
                              module=_MODULE)
        if theta == "const" and not math.isfinite(theta_value):
            raise DomainError("theta_value must be finite", module=_MODULE)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_value", float(theta_value))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "exponents", ex)

    dimension = 2

    @functools.cached_property
    def _const_cos_sin(self) -> Tuple[float, float]:
        """cos and sin of the constant angle, near-zero values snapped."""
        c, s = rotation_matrix(self.theta_value)[:, 0].tolist()
        return c, s

    def _theta_parts(self, n: int):
        """(sign, log2 magnitude) for cos and sin of theta_n."""
        if self.theta == "const":
            c, s = self._const_cos_sin
            return _log2_parts(c), _log2_parts(s)
        # cos theta_n = 2^(-a n): exact in log2; sin from log1p for accuracy
        a = self.a
        if a == 0.0:
            return (1.0, 0.0), (0.0, -math.inf)
        lc = -a * n
        # sin^2 = 1 - 2^(-2an)
        x = 2.0 ** (-2.0 * a * n) if 2.0 * a * n < 1074 else 0.0
        ls = 0.5 * math.log1p(-x) / math.log(2.0) if x < 1.0 else -math.inf
        return (1.0, lc), (1.0, ls)

    def log_columns(self, log2_betas, n: int):
        (sc, lc), (ss, ls) = self._theta_parts(n)
        l1, l2 = log2_betas
        t1, t2 = self.exponents
        # column j = f^n R(theta) e_j * beta_j^(-n t_j)
        signs = np.array([[sc, -ss], [ss, sc]])
        mags = np.array([[lc - n * (1.0 + t1) * l1, ls - n * (t2 * l2 + l1)],
                         [ls - n * (t1 * l1 + l2), lc - n * (1.0 + t2) * l2]])
        return signs, mags

    def target(self, betas, n: int) -> Parallelepiped:
        if self.theta == "const":
            rot = rotation_matrix(self.theta_value)
        else:
            c = 2.0 ** (-self.a * n)
            rot = np.array([[c, -math.sqrt(1.0 - c * c)],
                            [math.sqrt(1.0 - c * c), c]])
        b1, b2 = betas
        t1, t2 = self.exponents
        cols = rot @ np.diag([b1 ** (-n * t1), b2 ** (-n * t2)])
        return Parallelepiped((0.5, 0.5), cols)

    def rates(self, log2_betas):
        l1, l2 = log2_betas
        t1, t2 = self.exponents
        if self.theta == "const":
            c, s = self._const_cos_sin
            cos_rate = 0.0 if c != 0.0 else None
            sin_rate = 0.0 if s != 0.0 else None
        elif self.a == 0.0:
            cos_rate, sin_rate = 0.0, None
        else:
            cos_rate, sin_rate = self.a, 0.0
        col1 = []
        col2 = []
        if cos_rate is not None:
            col1.append((1.0 + t1) * l1 + cos_rate)
            col2.append((1.0 + t2) * l2 + cos_rate)
        if sin_rate is not None:
            col1.append(t1 * l1 + l2 + sin_rate)
            col2.append(t2 * l2 + l1 + sin_rate)
        g1 = min(min(col1), min(col2))
        return g1, -self.log2_volume(log2_betas, 1) - g1

    # the rotation keeps the volume of the axis box
    log2_volume = AxisFamily.log2_volume


@dataclasses.dataclass(frozen=True)
class ExplicitTargets:
    """P_n given outright; shapes[n-1] is the level-n target."""

    shapes: Tuple[Parallelepiped, ...]

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
        object.__setattr__(self, "shapes", sh)

    @property
    def dimension(self) -> int:
        return self.shapes[0].dimension

    def target(self, betas, n: int) -> Parallelepiped:
        if n > len(self.shapes):
            raise DomainError(
                f"explicit target list has {len(self.shapes)} levels, "
                f"asked for {n}", module=_MODULE)
        return self.shapes[n - 1]

    def log_columns(self, log2_betas, n: int):
        cols = self.target(None, n).columns
        with np.errstate(divide="ignore"):
            base = np.log2(np.abs(cols))
        return np.sign(cols), base - n * np.array(log2_betas)[:, None]

    def rates(self, log2_betas):
        raise DomainError(
            "explicit target lists have no asymptotic rates; use exact mode",
            module=_MODULE)

    def log2_volume(self, log2_betas, n: int) -> float:
        return self.target(None, n).log2_volume - n * sum(log2_betas)


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


@dataclasses.dataclass(frozen=True)
class LevelData:
    """One level of the dimension computation, all magnitudes as log2.

    gamma_log2 is sorted non-increasing; candidates_log2_tau is the
    deduplicated A_n, ascending; argmin_tau_log2 is the minimizer.
    Positivity and ordering of the gamma norms are enforced on the log
    values, which stay finite long after the raw magnitudes underflow.
    """

    n: int
    gamma_log2: Tuple[float, ...]
    candidates_log2_tau: Tuple[float, ...]
    s_n: float
    argmin_tau_log2: float
    mode: str

    def __post_init__(self):
        d = len(self.gamma_log2)
        if any(not math.isfinite(g) for g in self.gamma_log2):
            raise ConsistencyError("gamma norms must be positive and finite",
                                   module=_MODULE)
        if any(self.gamma_log2[i] < self.gamma_log2[i + 1]
               for i in range(d - 1)):
            raise ConsistencyError("gamma norms must be sorted",
                                   module=_MODULE)
        if not (0.0 < self.s_n <= d + 1e-12):
            raise ConsistencyError(f"s_n out of range: {self.s_n}",
                                   module=_MODULE)

    @property
    def candidates(self) -> Tuple[float, ...]:
        return tuple(float(np.exp2(c)) for c in self.candidates_log2_tau)


@dataclasses.dataclass(frozen=True)
class DimensionReport:
    levels: Tuple[LevelData, ...]
    s_star: float
    converged: bool
    window: int
    tail_min: float
    tail_max: float
    tolerance: float


def log_columns(spec: TargetSpec, n: int):
    """Columns of f^n P_n as (signs, log2 magnitudes), computed without
    ever materializing the underflowing values."""
    _check_level(n, _MODULE)
    return spec.family.log_columns(spec.system.log2_betas, n)


def generate_target(spec: TargetSpec, n: int) -> Parallelepiped:
    """Materialize P_n itself (not its contraction) in plain floats.

    Warns when the target pokes outside [0,1)^d; degenerate targets fail
    in the Parallelepiped constructor.
    """
    _check_level(n, _MODULE)
    p = spec.family.target(spec.system.betas, n)
    v = p.vertices()
    if np.any(v < 0.0) or np.any(v >= 1.0):
        warnings.warn(f"target P_{n} is not contained in [0,1)^d",
                      RuntimeWarning, stacklevel=2)
    return p


def _minimize_objective(w: Sequence[float], g: Sequence[float]):
    """Discrete minimization of the s_n objective over A_n.

    Arguments are -log2 of the contraction scales and gamma norms (any
    consistent positive unit).  As a function of 1/Lambda the objective
    is piecewise affine with breakpoints exactly at the candidates, so
    the minimum over candidates is the true minimum over (0, 1).  Ties
    resolve to the largest Lambda, i.e. the smallest tau.
    """
    cands: List[float] = []
    for v in list(w) + list(g):
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(
                "every candidate scale must be strictly below 1; "
                "the target or a gamma norm is too large", module=_MODULE)
        if not any(abs(v - c) <= _DEDUP_RTOL * max(abs(v), abs(c))
                   for c in cands):
            cands.append(v)
    cands.sort()
    best_val, best_lam = math.inf, cands[0]
    for lam in cands:
        val = 0.0
        for wi in w:
            val += 1.0 if wi >= lam else wi / lam
        for gi in g:
            if gi <= lam:
                val += 1.0 - gi / lam
        if val <= best_val + 1e-15:
            best_val, best_lam = min(val, best_val), lam
    return best_val, best_lam, cands


def gamma_magnitudes(spec: TargetSpec, n: int,
                     as_log2: bool = False) -> Tuple[float, ...]:
    """Sorted norms of the orthogonal frame of f^n P_n.

    Always computed through the scaled orthogonalization, so the result
    is exact in the log domain at any level; as_log2 returns the log2
    values directly (the raw magnitudes flush to zero once they leave
    float range).
    """
    frame = pivoted_orthogonalize_scaled(*log_columns(spec, n))
    logs = frame.log2_norms
    _check_volume_identity(spec, n, logs)
    if as_log2:
        return logs
    return tuple(float(np.exp2(x)) for x in logs)


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


def s_n(spec: TargetSpec, n: int, mode: str = "exact") -> LevelData:
    """Level-n value of the dimension formula.

    mode "exact" evaluates the definition at finite n; mode "limit"
    substitutes leading rates (see module docstring), reproducing the
    closed forms of constant-shape families at every n.
    """
    if mode not in ("exact", "limit"):
        raise DomainError(f"mode must be 'exact' or 'limit', got {mode!r}",
                          module=_MODULE)
    _check_level(n, _MODULE)
    lg = spec.system.log2_betas
    w = [n * l for l in lg]
    if mode == "limit":
        g = [r * n for r in spec.family.rates(lg)]
        gamma_log2 = tuple(-x for x in g)
    else:
        gamma_log2 = gamma_magnitudes(spec, n, as_log2=True)
        g = [-x for x in gamma_log2]
    value, lam, cands = _minimize_objective(w, g)
    return LevelData(
        n=n,
        gamma_log2=gamma_log2,
        candidates_log2_tau=tuple(-c for c in reversed(cands)),
        s_n=float(value),
        argmin_tau_log2=-lam,
        mode=mode,
    )


def s_star(spec: TargetSpec, n_min: int, n_max: int, window: int = 20,
           tolerance: float = 1e-3, mode: str = "exact") -> DimensionReport:
    """Windowed limsup estimate: s* = max of s_n over the last `window`
    levels of [n_min, n_max], with converged set when that window's
    spread is below the tolerance.  No extrapolation is attempted."""
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
    if not tolerance > 0.0:
        raise DomainError("tolerance must be positive", module=_MODULE)
    levels = tuple(s_n(spec, n, mode=mode) for n in range(n_min, n_max + 1))
    tail = levels[-window:]
    tail_vals = [lv.s_n for lv in tail]
    tail_min, tail_max = min(tail_vals), max(tail_vals)
    return DimensionReport(
        levels=levels,
        s_star=tail_max,
        converged=bool(tail_max - tail_min < tolerance),
        window=window,
        tail_min=tail_min,
        tail_max=tail_max,
        tolerance=tolerance,
    )

