"""Parallelepipeds, pivoted orthogonalization, and bounding boxes.

A parallelepiped is origin + {sum_i t_i alpha_i : t in [0,1]^d} with the
alpha_i stored as matrix columns.  The pivoted Gram-Schmidt frame picks,
at every step, the remaining column with the largest residual against
the span already built.  That ordering is what makes the frame useful:
the norms come out non-increasing, the change-of-basis matrix U
(columns-after-permutation = gammas @ U) stays unit upper triangular
with controlled entries, and the hyperrectangle spanned by
2^d * |gamma_i| along each frame axis is guaranteed to contain the
parallelepiped.

There is one route, in the log domain (`pivoted_orthogonalize_scaled`):
norms and U come from Cauchy-Binet sums of signed log2 minors, so
columns whose magnitudes differ by thousands of binary orders never
underflow and no numpy.linalg call is made.  `pivoted_orthogonalize` is
its float front end, which adds the plain gamma vectors.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ScaleRangeError,
)

__all__ = [
    "DEGENERACY_RTOL",
    "BetaSystem",
    "Parallelepiped",
    "OrthoFrame",
    "Hyperrectangle",
    "rotation_matrix",
    "pivoted_orthogonalize",
    "pivoted_orthogonalize_scaled",
    "bounding_hyperrectangle",
    "volume",
    "scale_by_f",
    "rotate2d",
]

# |det| below this times the product of the column norms: dependent columns
DEGENERACY_RTOL = 1e-12

# trig values this close to zero are snapped exactly (cos(pi/2) ~ 6.1e-17)
_TRIG_SNAP = 1e-15

# pivot keys within this relative band count as ties (smaller index wins);
# absorbs rounding fuzz so exact ties break to the smaller index
_PIVOT_TIE_TOL = 1e-12

# log2 scale magnitude beyond which float64 work is refused
_MAX_LOG2_SCALE = 900.0

# relative tolerance 1e-9 of the volume identities, in log2
_LOG2_RTOL = math.log2(1.0 + 1e-9)

_MODULE = "parallelepiped_geometry"


def _as_matrix(columns) -> np.ndarray:
    m = np.asarray(columns, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square column matrix, got shape {m.shape}",
                          module=_MODULE)
    if m.shape[0] < 1:
        raise DomainError("need at least one column", module=_MODULE)
    if not np.all(np.isfinite(m)):
        raise DomainError("columns must be finite", module=_MODULE)
    return m


def _scaled_columns(cols: np.ndarray):
    """cols with column j divided by 2**e_j, e_j the binary exponent of its
    largest |entry|, and e: nonzero column norms land in [0.5, sqrt(d)]."""
    exps = np.frexp(np.abs(cols).max(axis=0))[1]
    return np.ldexp(cols, -exps), exps


@dataclasses.dataclass(frozen=True)
class BetaSystem:
    """Tuple of bases (beta_1, ..., beta_d), each > 1."""

    betas: Tuple[float, ...]

    def __init__(self, betas: Sequence[float]):
        bs = tuple(float(b) for b in betas)
        if len(bs) < 1:
            raise DomainError("need at least one base", module=_MODULE)
        for b in bs:
            if not math.isfinite(b) or b <= 1.0:
                raise DomainError(f"every base must exceed 1, got {b}",
                                  module=_MODULE)
        object.__setattr__(self, "betas", bs)

    @property
    def dimension(self) -> int:
        return len(self.betas)

    @property
    def log2_betas(self) -> Tuple[float, ...]:
        return tuple(math.log2(b) for b in self.betas)


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
        org = np.asarray(origin, dtype=float)
        if org.shape != (d,):
            raise DomainError(
                f"origin shape {org.shape} does not match dimension {d}",
                module=_MODULE)
        if not np.all(np.isfinite(org)):
            raise DomainError("origin must be finite", module=_MODULE)
        # |det| / prod |a_i| is invariant under scaling a column
        scaled, exps = _scaled_columns(cols)
        sq_norms = np.einsum("ij,ij->j", scaled, scaled)
        if not sq_norms.all():
            raise DegenerateInputError("zero column", module=_MODULE)
        det = float(np.linalg.det(scaled))
        ratio = abs(det) / math.sqrt(math.prod(sq_norms.tolist()))
        if ratio < DEGENERACY_RTOL:
            raise DegenerateInputError(
                f"columns nearly dependent: |det| is {ratio:.3e} times the "
                "product of the column norms", module=_MODULE)
        org.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "log2_volume",
                           math.log2(abs(det)) + int(exps.sum()))

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    @property
    def column_norms(self) -> np.ndarray:
        scaled, exps = _scaled_columns(self.columns)
        return np.ldexp(np.sqrt(np.einsum("ij,ij->j", scaled, scaled)), exps)

    def vertices(self) -> np.ndarray:
        """All 2^d corner points, origin first, as a (2^d, d) array."""
        d = self.dimension
        if d > 20:
            raise DomainError("vertex enumeration capped at dimension 20",
                              module=_MODULE)
        eps = ((np.arange(2 ** d)[:, None] >> np.arange(d)[None, :]) & 1)
        return self.origin[None, :] + eps.astype(float) @ self.columns.T


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
    # per step k: (log2 Gram(S_k), {candidate l: minors of S_{k-1} + l})
    _steps: tuple = dataclasses.field(repr=False, compare=False)
    _columns: Optional[np.ndarray] = dataclasses.field(
        default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.log2_norms)

    @property
    def norms(self) -> np.ndarray:
        """|gamma_k| as floats; 0.0 or inf once they leave float range."""
        with np.errstate(over="ignore"):
            return np.exp2(np.array(self.log2_norms))

    @functools.cached_property
    def U(self) -> np.ndarray:
        """U[k, m] = sum_R det A[R, S_k] det A[R, S_{k-1} + j] / Gram(S_k)
        by Cauchy-Binet, j the column of pivot m; step k built the minors."""
        u = np.eye(self.dimension)
        piv = [i - 1 for i in self.permutation]
        for k, (g, exts) in enumerate(self._steps):
            own = exts[piv[k]]
            for m in range(k + 1, self.dimension):
                other = exts[piv[m]]
                signs, logs = [], []
                for rows, (s, l) in own.items():
                    t, lt = other[rows]
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


@dataclasses.dataclass(frozen=True)
class Hyperrectangle:
    """center + {axes @ x : |x_i| <= half_extents_i}, axes orthonormal."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray

    def __init__(self, center, axes, half_extents):
        ax = _as_matrix(axes)
        d = ax.shape[0]
        ctr = np.asarray(center, dtype=float)
        he = np.asarray(half_extents, dtype=float)
        if ctr.shape != (d,) or he.shape != (d,):
            raise DomainError("center/half_extents shape mismatch",
                              module=_MODULE)
        if np.any(he <= 0.0) or not np.all(np.isfinite(he)):
            raise DomainError("half extents must be positive and finite",
                              module=_MODULE)
        gram = ax.T @ ax
        if not np.allclose(gram, np.eye(d), atol=1e-9):
            raise DomainError("axes must be orthonormal", module=_MODULE)
        for a in (ctr, ax, he):
            a.setflags(write=False)
        object.__setattr__(self, "center", ctr)
        object.__setattr__(self, "axes", ax)
        object.__setattr__(self, "half_extents", he)

    @property
    def dimension(self) -> int:
        return self.axes.shape[0]

    @property
    def side_lengths(self) -> np.ndarray:
        return 2.0 * self.half_extents

    @property
    def volume(self) -> float:
        return float(np.prod(self.side_lengths))

    def contains_point(self, point, rtol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float)
        coords = self.axes.T @ (x - self.center)
        return bool(np.all(np.abs(coords) <= self.half_extents * (1.0 + rtol)))


def rotation_matrix(theta: float) -> np.ndarray:
    """2-D rotation by theta, with near-zero trig snapped exactly to 0."""
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) < _TRIG_SNAP:
        c = 0.0
    if abs(s) < _TRIG_SNAP:
        s = 0.0
    return np.array([[c, -s], [s, c]])


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


def _extend_minors(sg, lm, minors: dict, l: int, k: int) -> dict:
    """Signed log2 minors det A[R, S + (l,)] for every row set R of size k.

    minors maps each (k-1)-row set R' to (sign, log2|det A[R', S]|).  The
    new minors are expanded along their last column l, which groups
    their Leibniz terms by the entry taken from column l.
    """
    out = {}
    for rows in itertools.combinations(range(len(sg)), k):
        signs, logs = [], []
        for i, r in enumerate(rows):
            s_sub, l_sub = minors[rows[:i] + rows[i + 1:]]
            s = s_sub * sg[r][l] * (-1.0 if (k - 1 - i) % 2 else 1.0)
            if s and lm[r][l] != -math.inf:
                signs.append(s)
                logs.append(l_sub + lm[r][l])
        out[rows] = _log2_sum(signs, logs)
    return out


def _beats(key: float, best: float) -> bool:
    """key wins only beyond the tie band, so earlier columns win ties."""
    if best == -math.inf:
        return key > best
    return key > best + _PIVOT_TIE_TOL * max(1.0, abs(best))


def pivoted_orthogonalize_scaled(signs, log2_magnitudes) -> OrthoFrame:
    """Pivoted orthogonalization of columns given as signs and log2
    magnitudes, computed entirely in the log domain.

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
    DegenerateInputError.  Every candidate's minors are kept for U.
    """
    return _pivot_scan(signs, log2_magnitudes)


def _pivot_scan(signs, log2_magnitudes, columns=None) -> OrthoFrame:
    """pivoted_orthogonalize_scaled, keeping columns for gammas."""
    sg = np.asarray(signs, dtype=float)
    lm = np.asarray(log2_magnitudes, dtype=float)
    if sg.shape != lm.shape or sg.ndim != 2 or sg.shape[0] != sg.shape[1]:
        raise DomainError("signs and log2_magnitudes must be equal square "
                          "matrices", module=_MODULE)
    sg, lm = sg.tolist(), lm.tolist()
    if any(x != x or x == math.inf for row in lm for x in row):
        raise DomainError("log2 magnitudes must be < inf and not NaN",
                          module=_MODULE)
    remaining = list(range(len(sg)))
    chosen: list = []
    norms: list = []
    steps: list = []
    minors = {(): (1.0, 0.0)}  # the empty minor is 1
    g_prev = 0.0  # log2 Gram of the empty set
    for k in range(1, len(sg) + 1):
        exts: dict = {}
        best = None
        for l in remaining:
            ext = exts[l] = _extend_minors(sg, lm, minors, l, k)
            doubled = [2.0 * v for s, v in ext.values() if s]
            _, g = _log2_sum([1.0] * len(doubled), doubled)
            key = 0.5 * (g - g_prev)
            if best is None or _beats(key, best[0]):
                best = (key, l, g)
        key, l, g_prev = best
        if g_prev == -math.inf:
            raise DegenerateInputError(
                f"Gram sum vanished at step {k}: column {l + 1} lies in "
                "the span of the pivots before it", module=_MODULE)
        minors = exts[l]
        steps.append((g_prev, exts))
        remaining.remove(l)
        chosen.append(l)
        norms.append(key)
    return OrthoFrame(tuple(i + 1 for i in chosen), tuple(norms),
                      tuple(steps), columns)


def pivoted_orthogonalize(columns) -> OrthoFrame:
    """pivoted_orthogonalize_scaled on the signs and log2 magnitudes of a
    Parallelepiped's columns, or of a square matrix validated by building
    one (zero or nearly dependent columns raise DegenerateInputError)."""
    if not isinstance(columns, Parallelepiped):
        # a copy, so the caller's array is not made read-only
        cols = np.array(columns, dtype=float)
        columns = Parallelepiped(np.zeros(cols.shape[:1]), cols)
    cols = columns.columns
    with np.errstate(divide="ignore"):
        return _pivot_scan(np.sign(cols), np.log2(np.abs(cols)), cols)


def bounding_hyperrectangle(p: Parallelepiped,
                            frame: Optional[OrthoFrame] = None
                            ) -> Hyperrectangle:
    """Hyperrectangle centered at the origin vertex with half extents
    2^d * |gamma_i| along the orthogonal frame axes.

    Containment of the parallelepiped is verified directly: along each
    frame axis the extreme vertex coordinate (max of the positive and
    negative parts of the column projections) must stay within the half
    extent.  Violation raises ConsistencyError; a half extent that is 0
    or inf as a float raises ScaleRangeError.
    """
    if frame is None:
        frame = pivoted_orthogonalize(p)
    d = p.dimension
    norms = frame.norms
    with np.errstate(over="ignore"):
        half = (2.0 ** d) * norms
    if not np.all((half > 0.0) & (half < np.inf)):
        raise ScaleRangeError(
            "a half extent 2^d |gamma_i| leaves float64 range",
            module=_MODULE)
    axes = frame.gammas / norms[None, :]
    proj = axes.T @ p.columns  # proj[j, i] = axis_j . alpha_i
    pos = np.sum(np.clip(proj, 0.0, None), axis=1)
    neg = np.sum(np.clip(-proj, 0.0, None), axis=1)
    reach = np.maximum(pos, neg)
    if np.any(reach > half * (1.0 + 1e-9)):
        j = int(np.argmax(reach / half))
        raise ConsistencyError(
            f"parallelepiped escapes its bounding box along axis {j + 1}: "
            f"reach {reach[j]:.6e} vs half extent {half[j]:.6e}",
            module=_MODULE)
    return Hyperrectangle(p.origin, axes, half)


def volume(p: Parallelepiped) -> float:
    """|det| of the columns, 2^log2_volume, cross-checked against the
    orthogonal frame.

    Asserts the two identities vol(P) = prod |gamma_i| and
    vol(P) = 2^(-d(d+1)) vol(R) for the bounding hyperrectangle R, both to
    relative 1e-9 and in log2, so no side over- or underflows;
    disagreement raises ConsistencyError.  A volume that is 0 or inf as a
    float raises ScaleRangeError.
    """
    log2_v = p.log2_volume
    frame = pivoted_orthogonalize(p)
    d = p.dimension
    box = bounding_hyperrectangle(p, frame)
    for label, other in (
            ("frame product", math.fsum(frame.log2_norms)),
            ("box scaling", -d * (d + 1) + float(
                np.sum(np.log2(box.side_lengths))))):
        if abs(other - log2_v) > _LOG2_RTOL:
            raise ConsistencyError(
                f"log2 volume via determinant ({log2_v!r}) disagrees with "
                f"{label} ({other!r})", module=_MODULE)
    with np.errstate(over="ignore", under="ignore"):
        v = float(np.exp2(log2_v))
    if not 0.0 < v < math.inf:
        raise ScaleRangeError(f"volume 2^{log2_v:.1f} leaves float64 range",
                              module=_MODULE)
    return v


def scale_by_f(p: Parallelepiped, system: BetaSystem, n: int) -> Parallelepiped:
    """Image of the parallelepiped under n applications of
    x |-> (beta_1^-1 x_1, ..., beta_d^-1 x_d)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n!r}",
                          module=_MODULE)
    if system.dimension != p.dimension:
        raise DomainError("system dimension does not match parallelepiped",
                          module=_MODULE)
    lg = np.array(system.log2_betas)
    if float(np.max(n * lg)) > _MAX_LOG2_SCALE:
        raise ScaleRangeError(
            f"contraction by 2^{float(np.max(n * lg)):.1f} leaves float64 "
            "range; use the scaled orthogonalization route instead",
            module=_MODULE)
    scales = np.exp2(-float(n) * lg)
    return Parallelepiped(scales * p.origin, scales[:, None] * p.columns)


def rotate2d(p: Parallelepiped, theta: float) -> Parallelepiped:
    """Rotate the shape about its origin vertex (2-D only)."""
    if p.dimension != 2:
        raise DomainError("rotate2d needs a 2-D parallelepiped",
                          module=_MODULE)
    return Parallelepiped(p.origin, rotation_matrix(theta) @ p.columns)
