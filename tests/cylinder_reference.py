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
"""
from __future__ import annotations

import math

from beta_targets.beta_dynamics import FULLNESS_TOL, SPURIOUS_CHILD_TOL


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
