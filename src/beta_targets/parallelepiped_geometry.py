"""Parallelepipeds, pivoted orthogonalization, and bounding boxes.

A parallelepiped is origin + {sum_i t_i alpha_i : t in [0,1]^d} with the
alpha_i stored as matrix columns.  The pivoted Gram-Schmidt frame picks,
at every step, the remaining column with the largest residual against
the span already built.  That ordering is what makes the frame useful:
the norms come out non-increasing, the change-of-basis matrix U
(columns-after-permutation = gammas @ U) stays unit upper triangular
with controlled entries, and the hyperrectangle spanned by
2^d * |gamma_i| along each frame axis is guaranteed to contain the
parallelepiped; bounding_hyperrectangle checks that containment.

There is one route, in the log domain (the pivot scan `_pivot_scan`):
norms and U come from Cauchy-Binet sums of signed log2 minors, so
columns whose magnitudes differ by thousands of binary orders never
underflow and no numpy.linalg call is made.  `pivoted_orthogonalize` is
its float front end, which wraps the scan in an OrthoFrame and adds the
plain gamma vectors; the dimension formula reads the scan's log2 norms
without a frame.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ScaleRangeError,
    _as_float,
    _as_floats,
)

__all__ = [
    "DEGENERACY_RTOL",
    "BetaSystem",
    "Parallelepiped",
    "OrthoFrame",
    "pivoted_orthogonalize",
    "bounding_hyperrectangle",
    "scale_by_f",
]

# |det| below this times the product of the column norms: dependent columns
DEGENERACY_RTOL = 1e-12

# trig values this close to zero are snapped exactly (cos(pi/2) ~ 6.1e-17)
_TRIG_SNAP = 1e-15

# pivot keys within this relative band count as ties (smaller index wins);
# absorbs rounding fuzz so exact ties break to the smaller index
_PIVOT_TIE_TOL = 1e-12

# -log2 of the smallest normal float
_MIN_LOG2_NORMAL = 1022.0

# relative tolerance 1e-9 of the volume identities, in log2
_LOG2_RTOL = math.log2(1.0 + 1e-9)

_MODULE = "parallelepiped_geometry"

_INF = math.inf
_NEG_INF = -math.inf

# (sign, log2|minor|) of a minor with no nonzero term, as _log2_sum gives it
_ZERO_MINOR = (0.0, _NEG_INF)


def _floats(x, what: str) -> np.ndarray:
    """x copied to a float array; a ragged or non-numeric x, or an int
    past float range, raises DomainError."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a regular array of numbers",
                          module=_MODULE) from None


def _as_matrix(columns) -> np.ndarray:
    m = _floats(columns, "the matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square column matrix, got shape {m.shape}",
                          module=_MODULE)
    if m.shape[0] < 1:
        raise DomainError("need at least one column", module=_MODULE)
    if not np.all(np.isfinite(m)):
        raise DomainError("columns must be finite", module=_MODULE)
    return m


def _stack_log2_volumes(origins: np.ndarray, columns: np.ndarray) -> list:
    """The Parallelepiped rule over K shapes at once, origins (K, d) and
    columns (K, d, d): every entry finite, no zero column, and |det| at
    least DEGENERACY_RTOL times the product of the column norms.  The
    first shape that breaks it raises the error that its own
    Parallelepiped would; returns log2 |det columns[k]| per shape,
    finite where the determinant over- or underflows."""
    finite = np.isfinite(columns).all(axis=(1, 2)) & \
        np.isfinite(origins).all(axis=1)
    first_bad = int(np.argmin(finite)) if not finite.all() else len(finite)
    # column j of shape k divided by 2**e[k, j], e the binary exponent of
    # its largest |entry|: |det| / prod |a_j| is invariant under that
    exps = np.frexp(np.abs(columns[:first_bad]).max(axis=1))[1]
    scaled = np.ldexp(columns[:first_bad], -exps[:, None, :])
    sq_norms = np.einsum("kij,kij->kj", scaled, scaled)
    out = []
    for det, sq, e in zip(np.linalg.det(scaled).tolist(), sq_norms.tolist(),
                          exps.tolist()):
        if not all(sq):
            raise DegenerateInputError("zero column", module=_MODULE)
        ratio = abs(det) / math.sqrt(math.prod(sq))
        if ratio < DEGENERACY_RTOL:
            raise DegenerateInputError(
                f"columns nearly dependent: |det| is {ratio:.3e} times the "
                "product of the column norms", module=_MODULE)
        out.append(math.log2(abs(det)) + sum(e))
    if first_bad < len(finite):
        what = "origin" if np.isfinite(columns[first_bad]).all() \
            else "columns"
        raise DomainError(f"{what} must be finite", module=_MODULE)
    return out


@dataclasses.dataclass(frozen=True)
class BetaSystem:
    """Tuple of bases (beta_1, ..., beta_d), each > 1; log2_betas holds
    their log2 values."""

    betas: Tuple[float, ...]

    def __init__(self, betas: Sequence[float]):
        bs = _as_floats(betas, "every base", _MODULE)
        if len(bs) < 1:
            raise DomainError("need at least one base", module=_MODULE)
        for b in bs:
            if not math.isfinite(b) or b <= 1.0:
                raise DomainError(f"every base must exceed 1, got {b}",
                                  module=_MODULE)
        # not a field: equality and repr stay those of the bases
        vars(self).update(betas=bs, log2_betas=tuple(map(math.log2, bs)))

    @property
    def dimension(self) -> int:
        return len(self.betas)


@dataclasses.dataclass(frozen=True)
class Parallelepiped:
    """origin + {columns @ t : t in [0,1]^d}, columns as an (d, d) matrix."""

    origin: np.ndarray
    columns: np.ndarray
    # log2 |det columns|, finite where the determinant over- or underflows
    log2_volume: float = dataclasses.field(repr=False, compare=False)

    def __init__(self, origin, columns):
        cols = _as_matrix(columns)
        d = cols.shape[0]
        org = _floats(origin, "origin")
        if org.shape != (d,):
            raise DomainError(
                f"origin shape {org.shape} does not match dimension {d}",
                module=_MODULE)
        log2_volume, = _stack_log2_volumes(org[None], cols[None])
        org.setflags(write=False)
        cols.setflags(write=False)
        self._fill(org, cols, log2_volume)

    def _fill(self, origin: np.ndarray, columns: np.ndarray,
              log2_volume: float) -> None:
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "log2_volume", log2_volume)

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    def vertices(self) -> np.ndarray:
        """All 2^d corner points, origin first, as a (2^d, d) array."""
        d = self.dimension
        if d > 20:
            raise DomainError("vertex enumeration capped at dimension 20",
                              module=_MODULE)
        eps = ((np.arange(2 ** d)[:, None] >> np.arange(d)[None, :]) & 1)
        return self.origin[None, :] + eps.astype(float) @ self.columns.T


def _parallelepipeds(origins: np.ndarray, columns: np.ndarray
                     ) -> Tuple[Parallelepiped, ...]:
    """The parallelepipeds origins[k] + columns[k] [0, 1]^d of a finite
    float stack, validated as one (see _stack_log2_volumes); each holds
    read-only views of the two arrays."""
    log2_volumes = _stack_log2_volumes(origins, columns)
    origins.setflags(write=False)
    columns.setflags(write=False)
    shapes = []
    for org, cols, log2_volume in zip(origins, columns, log2_volumes):
        p = object.__new__(Parallelepiped)
        p._fill(org, cols, log2_volume)
        shapes.append(p)
    return tuple(shapes)


@dataclasses.dataclass(frozen=True)
class OrthoFrame:
    """Pivoted frame: permutation is 1-based (permutation[k] is the
    original index of the column whose residual is gamma_k), log2_norms[k]
    = log2 |gamma_k| stays finite where |gamma_k| leaves float range, and
    columns[:, permutation-1] == gammas @ U with U unit upper triangular.
    U and gammas are formed on first use; gammas needs the float columns,
    which only pivoted_orthogonalize keeps."""

    permutation: Tuple[int, ...]
    log2_norms: Tuple[float, ...]
    # per step k: (log2 Gram(S_k), {candidate l: minors of S_{k-1} + l
    # by row-set position, see _plan})
    _steps: tuple = dataclasses.field(repr=False, compare=False)
    _columns: Optional[np.ndarray] = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.log2_norms)

    @property
    def norms(self) -> np.ndarray:
        """|gamma_k| as floats, 2**log2_norms; 0.0 or inf once they leave
        float range.  The relative error is up to about
        |log2_norms[k]| * 2**-52 (1e-170 columns give
        1.0000000000000226e-170); use log2_norms where that matters."""
        with np.errstate(over="ignore"):
            return np.exp2(np.array(self.log2_norms))

    @functools.cached_property
    def U(self) -> np.ndarray:
        """U[k, m] = sum_R det A[R, S_k] det A[R, S_{k-1} + j] / Gram(S_k)
        by Cauchy-Binet, j the column of pivot m; step k built the minors,
        listed by row-set position."""
        u = np.eye(self.dimension)
        piv = [i - 1 for i in self.permutation]
        for k, (g, exts) in enumerate(self._steps):
            own = exts[piv[k]]
            for m in range(k + 1, self.dimension):
                signs, logs = [], []
                for (s, l), (t, lt) in zip(own, exts[piv[m]]):
                    if s and t:
                        signs.append(s * t)
                        logs.append(l + lt)
                s, l = _log2_sum(signs, logs)
                u[k, m] = s * 2.0 ** (l - g)
        return u

    @functools.cached_property
    def gammas(self) -> np.ndarray:
        """columns[:, permutation-1] @ U^-1, by back substitution."""
        if self._columns is None:
            raise DomainError("gammas need pivoted_orthogonalize's float "
                              "columns", module=_MODULE)
        g = self._columns[:, np.asarray(self.permutation) - 1]
        u = self.U
        for m in range(1, self.dimension):
            g[:, m] -= g[:, :m] @ u[:m, m]
        return g


def _rotation_rows(theta) -> tuple:
    """2-D rotation by theta as a tuple of rows of Python floats, with
    cos and sin within 1e-15 of 0 snapped exactly to 0; a theta that is
    not a finite number raises DomainError."""
    theta = _as_float(theta, "theta", _MODULE)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}",
                          module=_MODULE)
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < _TRIG_SNAP:
        c = 0.0
    if abs(s) < _TRIG_SNAP:
        s = 0.0
    return (c, -s), (s, c)


def _log2_sum(signs, logs):
    """(sign, log2|total|) of the sum of s * 2**l; (0.0, -inf) if the
    sum is empty or cancels exactly."""
    if not logs:
        return 0.0, -math.inf
    m = max(logs)
    total = 0.0
    for s, l in zip(signs, logs):
        total += s * 2.0 ** (l - m)
    if not total:
        return 0.0, -math.inf
    return math.copysign(1.0, total), math.log2(abs(total)) + m


@functools.cache
def _plan(d: int) -> tuple:
    """The Cauchy-Binet expansion of a frame of d columns, per step k =
    1..d: the row sets R of size k, in combinations order, each as its
    terms (row r, position of the (k-1)-set R - r in step k-1's order,
    parity of r's place in R).  A minor det A[R, S + (l,)] is the sum
    over the terms of parity * A[r, l] * det A[R - r, S]: its expansion
    along the newest column l."""
    plan, place = [], {(): 0}
    for k in range(1, d + 1):
        sets = list(itertools.combinations(range(d), k))
        plan.append(tuple(
            tuple((r, place[rows[:i] + rows[i + 1:]],
                   -1.0 if (k - 1 - i) % 2 else 1.0)
                  for i, r in enumerate(rows))
            for rows in sets))
        place = {rows: p for p, rows in enumerate(sets)}
    return tuple(plan)


def _beats(key: float, best: float) -> bool:
    """key wins only beyond the tie band, so earlier columns win ties."""
    if best == -math.inf:
        return key > best
    return key > best + _PIVOT_TIE_TOL * max(1.0, abs(best))


def _rows(m):
    """A matrix as a sequence of rows: an array through tolist, so that
    the scan works on Python floats; None for an array that is not 2-D.
    Row sequences are read as given, without a per-level copy."""
    if isinstance(m, np.ndarray):
        return m.astype(float, casting="same_kind").tolist() \
            if m.ndim == 2 else None
    return m


def _pivot_scan(signs, log2_magnitudes) -> tuple:
    """Pivoted orthogonalization of columns given as signs and log2
    magnitudes, computed entirely in the log domain: (permutation, log2
    norms, steps), which OrthoFrame takes in that order; steps is what
    the frame keeps for U.

    Entry (i, j) of the implied matrix A is signs[i, j] * 2**log2_magnitudes[i, j]
    (use sign 0 with magnitude -inf for exact zeros).  By Cauchy-Binet,
    |gamma_1 ... gamma_k|^2 = Gram(S_k), the sum of det(A[R, S_k])^2 over
    row sets R, so step k picks the remaining column l maximizing
    Gram(S_{k-1} + l) (the largest residual; ties within _PIVOT_TIE_TOL
    go to the smaller index) and sets

        log2|gamma_k| = (log2 Gram(S_k) - log2 Gram(S_{k-1})) / 2.

    Each minor is a signed log-sum-exp of its Leibniz terms, grouped by
    expansion along the newest column so that the minors of S_{k-1} are
    reused.  Every term takes one entry per row and per column, so when
    A = diag(r) M diag(c) all terms share the scales of r and c and only
    the cancellation of the moderate minor of M remains: levels whose
    entries span thousands of binary orders cost nothing extra.  For
    d = 2 this is the largest column norm followed by
    log2|det| - log2|gamma_1|.  A vanishing Gram sum raises
    DegenerateInputError.

    The expansion depends on d alone, so it is planned once per d and
    cached (_plan): for each k, the row sets of size k and, for each set,
    its terms (row, position of the (k-1)-subset, parity).  The minors
    of a step are lists indexed by row-set position; every candidate's
    list is kept for U.  The matrices may be arrays or sequences of rows
    of numbers; every sum and product is taken in one fixed order.  An
    entry that is not a number (None, a string, even a numeric one) or
    an int past float range raises DomainError.

    A minor with no nonzero term is _ZERO_MINOR, and one with one
    nonzero term s 2**v, s = +-1 and v finite, is (s, v): 2**(v - v) is
    1 and log2 1 is +0, which adds nothing to v, since no minor's log is
    -0.0.  So is a Gram sum of one term.  Any other minor, a non-finite
    one included, goes through _log2_sum."""
    try:
        sg, lm = _rows(signs), _rows(log2_magnitudes)
        try:
            d = len(sg)
            square = len(lm) == d and {*map(len, sg), *map(len, lm)} <= {d}
        except TypeError:
            square = False
        if not square:
            raise DomainError("signs and log2_magnitudes must be equal "
                              "square matrices", module=_MODULE)
        for row in lm:
            for x in row:
                if not x < _INF:
                    raise DomainError("log2 magnitudes must be < inf and "
                                      "not NaN", module=_MODULE)
        col_signs, col_logs = list(zip(*sg)), list(zip(*lm))
        remaining = list(range(d))
        chosen: list = []
        norms: list = []
        steps: list = []
        minors = [(1.0, 0.0)]  # the empty minor is 1
        g_prev = 0.0  # log2 Gram of the empty set
        for k, sets in enumerate(_plan(d), 1):
            exts: dict = {}
            best = None
            for l in remaining:
                cs, cl = col_signs[l], col_logs[l]
                ext = exts[l] = []
                doubled = []  # 2 log2|minor| of the nonzero minors
                for terms in sets:
                    live = 0  # nonzero terms, the first kept as s1, v1
                    for r, p, parity in terms:
                        s_sub, l_sub = minors[p]
                        s = s_sub * cs[r] * parity
                        if s and cl[r] != _NEG_INF:
                            if not live:
                                s1, v1 = s, l_sub + cl[r]
                            elif live == 1:
                                signs, logs = [s1, s], [v1, l_sub + cl[r]]
                            else:
                                signs.append(s)
                                logs.append(l_sub + cl[r])
                            live += 1
                    if not live:
                        ext.append(_ZERO_MINOR)
                        continue
                    if live == 1:
                        if (s1 == 1.0 or s1 == -1.0) and _NEG_INF < v1 < _INF:
                            ext.append((s1, v1))
                            doubled.append(2.0 * v1)
                            continue
                        signs, logs = (s1,), (v1,)
                    minor = _log2_sum(signs, logs)
                    ext.append(minor)
                    if minor[0]:
                        doubled.append(2.0 * minor[1])
                # log2 Gram(S_{k-1} + l), the sum of the squared minors
                g = _NEG_INF
                if len(doubled) == 1 and _NEG_INF < doubled[0] < _INF:
                    g = doubled[0]
                elif doubled:
                    m = max(doubled)
                    total = 0.0
                    for x in doubled:
                        total += 2.0 ** (x - m)
                    # abs, as in _log2_sum: a NaN total keeps no sign
                    g = math.log2(abs(total)) + m
                key = 0.5 * (g - g_prev)
                if best is None or _beats(key, best[0]):
                    best = (key, l, g)
            key, l, g_prev = best
            if g_prev == _NEG_INF:
                raise DegenerateInputError(
                    f"Gram sum vanished at step {k}: column {l + 1} lies in "
                    "the span of the pivots before it", module=_MODULE)
            minors = exts[l]
            steps.append((g_prev, exts))
            remaining.remove(l)
            chosen.append(l + 1)
            norms.append(key)
    except (TypeError, OverflowError) as exc:
        raise DomainError(f"signs and log2 magnitudes must be numbers: {exc}",
                          module=_MODULE) from None
    return tuple(chosen), tuple(norms), tuple(steps)


def pivoted_orthogonalize(columns) -> OrthoFrame:
    """The pivot scan (_pivot_scan) on the signs and log2 magnitudes of a
    Parallelepiped's columns, or of a square matrix validated by building
    one (zero or nearly dependent columns raise DegenerateInputError)."""
    if not isinstance(columns, Parallelepiped):
        cols = _as_matrix(columns)
        columns = Parallelepiped(np.zeros(cols.shape[:1]), cols)
    cols = columns.columns
    with np.errstate(divide="ignore"):
        return OrthoFrame(*_pivot_scan(np.sign(cols), np.log2(np.abs(cols))),
                          cols)


def bounding_hyperrectangle(frame: OrthoFrame) -> Tuple[float, ...]:
    """log2 half extents, log2_norms[i] + d, of the box centered at the
    origin vertex with half extents 2^d * |gamma_i| along the frame axes,
    which the pivot order guarantees to hold the frame's parallelepiped.

    Containment is verified directly.  Column permutation[m] is
    sum_j U[j, m] gamma_j with orthogonal gammas, so its projection on
    axis j is U[j, m] |gamma_j|, and the reach along axis j (the larger
    of the summed positive and the summed negative projections) is read
    off row j of U in units of |gamma_j|.  A reach past 2^d, up to
    relative 1e-9, raises ConsistencyError.  No half extent or gamma is
    formed as a float, so every frame is checked, scaled ones too.
    """
    d = frame.dimension
    u = frame.U
    reach = np.maximum(np.clip(u, 0.0, None).sum(axis=1),
                       np.clip(-u, 0.0, None).sum(axis=1))
    bad = ~(reach <= 2.0 ** d * (1.0 + 1e-9))
    if bad.any():
        j = int(np.argmax(bad))
        raise ConsistencyError(
            f"parallelepiped escapes its bounding box along axis {j + 1}: "
            f"reach {reach[j]:.6e} |gamma_{j + 1}| vs half extent "
            f"{2.0 ** d:g} |gamma_{j + 1}|", module=_MODULE)
    return tuple(x + d for x in frame.log2_norms)


def scale_by_f(p: Parallelepiped, system: BetaSystem, n: int) -> Parallelepiped:
    """Image of the parallelepiped under n applications of
    x |-> (beta_1^-1 x_1, ..., beta_d^-1 x_d).

    A level past float range, or a nonzero entry of the origin or the
    columns whose image falls below the smallest normal float (2^-1022),
    raises ScaleRangeError.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}",
                          module=_MODULE)
    if system.dimension != p.dimension:
        raise DomainError("system dimension does not match parallelepiped",
                          module=_MODULE)
    if n > sys.float_info.max:  # as dimension_engine._check_float_level
        raise ScaleRangeError("levels above 1.8e308 are past float range",
                              module=_MODULE)
    with np.errstate(over="ignore"):  # an infinite t scales entries to 0
        t = float(n) * np.array(system.log2_betas)
    # 2^-t as 2^-(t - q) * 2^-q with an integer q, so that a scale below
    # the normal range loses no bits; q = 0 while the scale is normal, and
    # q stops at 4096, past which every finite entry's image is 0
    q = np.where(t > _MIN_LOG2_NORMAL, np.minimum(np.floor(t), 4096.0), 0.0)
    scales, shift = np.exp2(-(t - q)), -q.astype(np.int64)
    origin = np.ldexp(scales * p.origin, shift)
    columns = np.ldexp(scales[:, None] * p.columns, shift[:, None])
    for old, new in ((p.origin, origin), (p.columns, columns)):
        if np.any((old != 0.0) & ~(np.abs(new) >= 2.0 ** -_MIN_LOG2_NORMAL)):
            raise ScaleRangeError(
                f"contraction by 2^{float(np.max(t)):.6g} takes a nonzero "
                "entry below the smallest normal float", module=_MODULE)
    return Parallelepiped(origin, columns)
