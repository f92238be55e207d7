"""Reference orbit of 1, decided on the exact numerator of every t_j.

``orbit`` is the orbit of 1 as ``beta_dynamics`` computed it before it
decided each step at a working precision: t_j is held as the exact
fraction num / 2**shift, where beta = p / 2**e and shift grows by e per
step, and every digit and snap is an integer comparison on num.  So its
cost grows like e * n**2 bit operations, which is why the library no
longer uses it; tests compare the library's orbit and state table to it
bit for bit.

``state_table`` is ``beta_dynamics._state_table`` over this orbit: the
same (tops, nexts, ts), with each t_j rounded once from its exact value.
"""
from __future__ import annotations

from beta_targets.beta_dynamics import _dyadic


def orbit(ctx, n):
    """(top_j, t_{j+1}) for j = 0, 1, ... up to n steps, t_{j+1} the exact
    (num, shift), t_{j+1} = num / 2**shift, or None when the top child
    snaps, which closes the orbit.  ``ctx`` is a ``beta_dynamics._Ctx``."""
    p, e = _dyadic(ctx.beta)
    s, es = _dyadic(ctx.spur_tol)
    f, ef = _dyadic(ctx.full_tol)
    num, shift = 1, 0
    for _ in range(n):
        shift += e
        bt = p * num  # beta * t_j == bt / 2**shift
        k = bt >> shift
        frac = bt - (k << shift)
        if frac << es <= s << shift:
            # beta*t_j is within spur_tol above the integer k: digit k
            # would be a ghost, and the top child k - 1 has length >= 1
            yield k - 1, None
            return
        if frac << ef >= ((1 << ef) - f) << shift:
            yield k, None
            return
        num = frac
        yield k, (num, shift)


def state_table(ctx, n):
    """(tops, nexts, ts) as ``beta_dynamics._state_table`` gives them."""
    ts = [ctx.one]
    tops, nexts = [], []
    for top, nxt in orbit(ctx, n):
        if nxt is not None:
            ts.append(ctx.length(*nxt))
        tops.append(top)
        nexts.append(0 if nxt is None else len(ts) - 1)
    return tops, nexts, ts
