"""The log-domain pivot scan as it was before its Cauchy-Binet expansion
was planned once per dimension, kept verbatim.

``_log2_sum``, ``_extend_minors`` and ``_pivot_scan`` expand every minor
through ``itertools.combinations`` and dicts of row tuples at every
call; ``frame_u`` is the old ``OrthoFrame.U`` over that dict layout.
``tests/test_frame_reference.py`` holds the library's planned scan to
this reference bit for bit: pivot order, log2 norms, U, and the cases
that raise ``DegenerateInputError``.

``scaled_frame`` is the library's own frame of columns given as signs
and log2 magnitudes: its planned scan wrapped in an ``OrthoFrame``.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from beta_targets.errors import DegenerateInputError, DomainError
from beta_targets import parallelepiped_geometry as geometry

_MODULE = "parallelepiped_geometry"

# pivot keys within this relative band count as ties (smaller index wins);
# absorbs rounding fuzz so exact ties break to the smaller index
_PIVOT_TIE_TOL = 1e-12


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


def _pivot_scan(signs, log2_magnitudes):
    """(permutation, log2_norms, steps) of the old scan; steps is what
    the old OrthoFrame kept for U."""
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
    return tuple(i + 1 for i in chosen), tuple(norms), tuple(steps)


def frame_u(permutation, steps) -> np.ndarray:
    """U[k, m] = sum_R det A[R, S_k] det A[R, S_{k-1} + j] / Gram(S_k)
    by Cauchy-Binet, j the column of pivot m; step k built the minors."""
    u = np.eye(len(permutation))
    piv = [i - 1 for i in permutation]
    for k, (g, exts) in enumerate(steps):
        own = exts[piv[k]]
        for m in range(k + 1, len(permutation)):
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


def scaled_frame(signs, log2_magnitudes) -> geometry.OrthoFrame:
    """The library's frame of the columns signs * 2**log2_magnitudes (its
    scan, not the reference ``_pivot_scan`` above)."""
    return geometry.OrthoFrame(*geometry._pivot_scan(signs, log2_magnitudes))
