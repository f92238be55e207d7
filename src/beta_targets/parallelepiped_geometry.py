"""Parallelepipeds, pivoted orthogonalization, and bounding boxes.

A parallelepiped is origin + {sum_i t_i alpha_i : t in [0,1]^d} with the
alpha_i stored as matrix columns.  The pivoted Gram-Schmidt here picks, at
every step, the remaining column with the largest residual against the
span already built.  That ordering is what makes the resulting orthogonal
frame useful: the norms come out non-increasing, the change-of-basis
matrix U (columns-after-permutation = gammas @ U) stays unit upper
triangular with controlled entries, and the hyperrectangle spanned by
2^d * |gamma_i| along each frame axis is guaranteed to contain the
parallelepiped.

Two routes are provided.  `pivoted_orthogonalize` works on plain float
columns and recomputes residuals from the original columns at each pivot
scan (classical, not modified, Gram-Schmidt).  `pivoted_orthogonalize_scaled`
takes every entry as a sign and a log2 magnitude and never leaves the log
domain: by Cauchy-Binet the squared product of the first k norms is a sum
of squared k x k minors, each minor is a signed log-sum-exp of its
Leibniz terms (grouped by expansion along the newest pivot column), and
the pivot choice "largest residual" becomes "largest Gram sum".  Columns
whose magnitudes differ by thousands of binary orders (images under
n-fold contraction) therefore never underflow, and no numpy.linalg call
is made.
"""

from __future__ import annotations

import dataclasses
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
    "ScaledOrthoFrame",
    "Hyperrectangle",
    "rotation_matrix",
    "pivoted_orthogonalize",
    "pivoted_orthogonalize_scaled",
    "bounding_hyperrectangle",
    "volume",
    "scale_by_f",
    "rotate2d",
]

# residual below this times the pivot column norm means dependent columns
DEGENERACY_RTOL = 1e-12

# trig values this close to zero are snapped exactly (cos(pi/2) ~ 6.1e-17)
_TRIG_SNAP = 1e-15

# pivot keys within this relative band count as ties (smaller index wins);
# absorbs rounding fuzz so both routes break exact ties the same way
_PIVOT_TIE_TOL = 1e-12

# log2 scale magnitude beyond which float64 work is refused
_MAX_LOG2_SCALE = 900.0

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
        norms = np.linalg.norm(cols, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateInputError("zero column", module=_MODULE)
        det = np.linalg.det(cols)
        if abs(det) < DEGENERACY_RTOL * float(np.prod(norms)):
            raise DegenerateInputError(
                f"columns nearly dependent: |det|={abs(det):.3e} against "
                f"norm product {float(np.prod(norms)):.3e}", module=_MODULE)
        org.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "origin", org)
        object.__setattr__(self, "columns", cols)

    @property
    def dimension(self) -> int:
        return self.columns.shape[0]

    @property
    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.columns, axis=0)

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
    """Result of pivoted orthogonalization on plain float columns.

    permutation is 1-based: permutation[k] is the original index of the
    column whose residual became gammas[:, k].  U is unit upper triangular
    and satisfies columns[:, permutation-1] == gammas @ U up to rounding.
    """

    permutation: Tuple[int, ...]
    gammas: np.ndarray
    U: np.ndarray

    @property
    def dimension(self) -> int:
        return self.gammas.shape[0]

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.gammas, axis=0)


@dataclasses.dataclass(frozen=True)
class ScaledOrthoFrame:
    """Log-domain frame: pivot order (1-based, as in OrthoFrame) and
    log2 |gamma_k|, which stay finite long after the norms underflow."""

    permutation: Tuple[int, ...]
    log2_norms: Tuple[float, ...]

    @property
    def dimension(self) -> int:
        return len(self.log2_norms)


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


def _residual(col: np.ndarray, basis: list) -> np.ndarray:
    w = col.copy()
    for q in basis:
        w -= (col @ q) * q
    return w


def pivoted_orthogonalize(columns) -> OrthoFrame:
    """Pivoted classical Gram-Schmidt on float columns.

    At step k the remaining column with the largest residual norm against
    span(gamma_1..gamma_{k-1}) is chosen (ties break to the smallest
    original index); its residual becomes gamma_k.  Residuals are always
    recomputed from the original columns.  For d > 4 a second projection
    sweep is applied to the winning residual, folding the correction back
    into U.  A residual below DEGENERACY_RTOL times its column's norm, or
    one whose norm is zero or underflows, raises DegenerateInputError.
    """
    if isinstance(columns, Parallelepiped):
        cols = columns.columns
    else:
        cols = _as_matrix(columns)
    d = cols.shape[0]
    remaining = list(range(d))
    basis: list = []  # orthonormal directions q_1..q_k
    gammas = np.zeros((d, d))
    U = np.eye(d)
    perm = []
    norms = []
    for k in range(d):
        best_l, best_norm = remaining[0], float(
            np.linalg.norm(_residual(cols[:, remaining[0]], basis)))
        for l in remaining[1:]:
            nl = float(np.linalg.norm(_residual(cols[:, l], basis)))
            if nl > best_norm * (1.0 + _PIVOT_TIE_TOL):
                best_l, best_norm = l, nl
        i_k = best_l
        remaining.remove(i_k)
        perm.append(i_k)
        a = cols[:, i_k]
        coeffs = np.array([a @ q for q in basis])
        w = a - sum(c * q for c, q in zip(coeffs, basis)) if basis else a.copy()
        if d > 4 and basis:
            extra = np.array([w @ q for q in basis])
            w = w - sum(c * q for c, q in zip(extra, basis))
            coeffs = coeffs + extra
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            raise DegenerateInputError(
                f"residual of column {i_k + 1} at step {k + 1} is zero or "
                "underflows", module=_MODULE)
        if nw < DEGENERACY_RTOL * float(np.linalg.norm(a)):
            raise DegenerateInputError(
                f"residual collapsed at step {k + 1}: column {i_k + 1} lies "
                "in the span of the pivots before it", module=_MODULE)
        gammas[:, k] = w
        for j in range(k):
            U[j, k] = coeffs[j] / norms[j]
        basis.append(w / nw)
        norms.append(nw)
    return OrthoFrame(tuple(i + 1 for i in perm), gammas, U)


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


def pivoted_orthogonalize_scaled(signs, log2_magnitudes) -> ScaledOrthoFrame:
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
    DegenerateInputError.
    """
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
    minors = {(): (1.0, 0.0)}  # the empty minor is 1
    g_prev = 0.0  # log2 Gram of the empty set
    for k in range(1, len(sg) + 1):
        best = None
        for l in remaining:
            ext = _extend_minors(sg, lm, minors, l, k)
            doubled = [2.0 * v for s, v in ext.values() if s]
            _, g = _log2_sum([1.0] * len(doubled), doubled)
            key = 0.5 * (g - g_prev)
            if best is None or _beats(key, best[0]):
                best = (key, l, g, ext)
        key, l, g_prev, minors = best
        if g_prev == -math.inf:
            raise DegenerateInputError(
                f"Gram sum vanished at step {k}: column {l + 1} lies in "
                "the span of the pivots before it", module=_MODULE)
        remaining.remove(l)
        chosen.append(l)
        norms.append(key)
    return ScaledOrthoFrame(tuple(i + 1 for i in chosen), tuple(norms))


def bounding_hyperrectangle(p: Parallelepiped,
                            frame: Optional[OrthoFrame] = None
                            ) -> Hyperrectangle:
    """Hyperrectangle centered at the origin vertex with half extents
    2^d * |gamma_i| along the orthogonal frame axes.

    Containment of the parallelepiped is verified directly: along each
    frame axis the extreme vertex coordinate (max of the positive and
    negative parts of the column projections) must stay within the half
    extent.  Violation raises ConsistencyError.
    """
    if frame is None:
        frame = pivoted_orthogonalize(p.columns)
    d = p.dimension
    norms = frame.norms
    axes = frame.gammas / norms[None, :]
    half = (2.0 ** d) * norms
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
    """|det| of the columns, cross-checked against the orthogonal frame.

    Asserts the two identities vol(P) = prod |gamma_i| and
    vol(P) = 2^(-d(d+1)) vol(R) for the bounding hyperrectangle R, both to
    relative 1e-9; disagreement raises ConsistencyError.
    """
    v = float(abs(np.linalg.det(p.columns)))
    frame = pivoted_orthogonalize(p.columns)
    v_frame = float(np.prod(frame.norms))
    d = p.dimension
    box = bounding_hyperrectangle(p, frame)
    v_box = (2.0 ** (-d * (d + 1))) * box.volume
    for label, other in (("frame product", v_frame), ("box scaling", v_box)):
        if abs(other - v) > 1e-9 * max(v, other):
            raise ConsistencyError(
                f"volume via determinant ({v!r}) disagrees with {label} "
                f"({other!r})", module=_MODULE)
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
