"""Per-node reference walk over the cylinder tree, in plain doubles.

Every node carries its float image length t and computes its children
from it with the tolerance rule of ``beta_dynamics``: digits
0..ceil(beta*t - SPURIOUS_CHILD_TOL) - 1, the child length beta*t - k
snapped to 1 when it is within FULLNESS_TOL of 1.  So t is propagated
through the float recursion (its error grows like beta**level) instead of
being read from the exact orbit of 1.  The stack order and the left
endpoint arithmetic are those of the library walk, so lefts and words
compare bit for bit.  Tests use it as the reference for
``enumerate_cylinders``.

``orbit_walk`` is the same per-node walk over the orbit of 1, computed
here in Fraction arithmetic, with the library's ``only_full`` and
``within`` filters: it must match the array walk bit for bit in words,
lefts, image lengths and lengths.

``cylinder_of_word`` reads one word's cylinder off ``orbit_table``, and
``first_full_inside`` scans the library's ``cylinder_blocks`` level by
level for the first full cylinder inside an interval.
"""
from __future__ import annotations

import math
from fractions import Fraction

from beta_targets.beta_dynamics import (FULLNESS_TOL, SPURIOUS_CHILD_TOL,
                                       Interval, cylinder_blocks)


def children(beta: float, t: float):
    """(digit, child image length) pairs for a node with image length t."""
    kmax = math.ceil(beta * t - SPURIOUS_CHILD_TOL) - 1
    out = []
    for k in range(kmax + 1):
        tc = beta * t - k
        if tc >= 1.0 - FULLNESS_TOL:
            tc = 1.0
        out.append((k, tc))
    return out


def walk(beta: float, n: int):
    """(word, left, image_length, length) of every level-n node, in
    lexicographic order."""
    out = []
    stack = [((), 0.0, 1.0, 1.0)]
    while stack:
        word, left, t, scale = stack.pop()
        if len(word) == n:
            out.append((word, left, t, t * scale))
            continue
        child_scale = scale / beta
        for k, tc in reversed(children(beta, t)):
            stack.append((word + (k,), left + k * child_scale, tc,
                          child_scale))
    return out


def orbit_table(beta: float, n: int):
    """(tops, nexts, ts) of the orbit of 1 for the float beta, in Fraction
    arithmetic on its exact value: state j has digits 0..tops[j], its top
    digit leads to state nexts[j] (0 when the top child is dropped as a
    ghost or snapped to full) and the others to state 0; ts[j] is t_j
    rounded once to a double."""
    b = Fraction(beta)
    spur, full = Fraction(SPURIOUS_CHILD_TOL), 1 - Fraction(FULLNESS_TOL)
    t = Fraction(1)
    tops, nexts, ts = [], [], [1.0]
    while len(tops) < n:
        k = math.floor(b * t)
        frac = b * t - k
        if frac <= spur:
            tops.append(k - 1)
            nexts.append(0)
            break
        tops.append(k)
        if frac >= full:
            nexts.append(0)
            break
        t = frac
        ts.append(float(t))
        nexts.append(len(ts) - 1)
    return tops, nexts, ts


def orbit_walk(beta: float, n: int, only_full: bool = False, within=None):
    """(word, left, image_length, length) of every level-n node, in
    lexicographic order, one node at a time over orbit_table.  ``within``
    is a (lo, hi) pair: subtrees whose cylinder misses [lo, hi) are
    pruned, and leaves must lie inside it; (0, 1) is no window."""
    tops, nexts, ts = orbit_table(beta, n)
    if within is not None and tuple(within) == (0.0, 1.0):
        within = None  # every cylinder lies in [0, 1), as in the library
    out = []
    stack = [((), 0.0, 0, 1.0)]
    while stack:
        word, left, j, scale = stack.pop()
        if len(word) == n:
            length = ts[j] * scale
            if only_full and j:
                continue
            # every cylinder ends at or before 1, so a window ending at 1
            # tests the left end only
            if within is not None and not (left >= within[0] and (
                    left + length <= within[1] or within[1] >= 1)):
                continue
            out.append((word, left, ts[j], length))
            continue
        child_scale = scale / beta
        for k in reversed(range(tops[j] + 1)):
            child = nexts[j] if k == tops[j] else 0
            cleft = left + k * child_scale
            if within is not None and not (
                    cleft < within[1]
                    and within[0] < cleft + ts[child] * child_scale):
                continue
            stack.append((word + (k,), cleft, child, child_scale))
    return out


def cylinder_of_word(beta: float, word):
    """(word, left, image_length, length) of a word's cylinder, with the
    walk's left-endpoint arithmetic, or None if the word is inadmissible."""
    tops, nexts, ts = orbit_table(beta, len(word))
    left, j, scale = 0.0, 0, 1.0
    for k in word:
        if k > tops[j]:
            return None
        scale = scale / beta
        left = left + k * scale
        j = nexts[j] if k == tops[j] else 0
    return tuple(word), left, ts[j], ts[j] * scale


def first_full_inside(beta: float, I: Interval, delta: float):
    """(word, left, image_length, length) of the first full cylinder
    inside I whose length lies in (|I|**(1+delta), |I|], over the levels
    in increasing order, from the library walk; None if that window of
    lengths holds none."""
    length = I.length
    m = 1
    while beta ** -m > length * (1 + 1e-12):
        m += 1
    while beta ** -m > length ** (1 + delta):
        for b in cylinder_blocks(beta, m, only_full=True, within=I):
            return (tuple(b.words[0].tolist()), float(b.lefts[0]),
                    float(b.image_lengths[0]), float(b.lengths[0]))
        m += 1
    return None
