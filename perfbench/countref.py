"""Independent count of admissible words: the image-length recursion in
exact rational arithmetic on the float value of beta.

A node with image length t has a child for every digit k with
k < beta * t, and the child's image length is min(beta * t - k, 1).
Nothing is snapped or rounded, so the result is the exact count for the
float beta.  It costs about 0.6 s at n = 200 and grows quickly, so the
benchmark only uses it for n <= 200, and only as a diagnostic: which
count is "exact" for an irrational beta given as a float is a question
for the library, not for the benchmark.
"""

from __future__ import annotations

from fractions import Fraction


def exact_admissible_count(beta: float, n: int) -> int:
    b = Fraction(beta)
    one = Fraction(1)
    dist = {one: 1}
    for _ in range(n):
        nxt: dict = {}
        for t, count in dist.items():
            bt = b * t
            k = 0
            while k < bt:
                tc = min(bt - k, one)
                nxt[tc] = nxt.get(tc, 0) + count
                k += 1
        dist = nxt
    return sum(dist.values())
