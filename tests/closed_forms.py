"""Closed-form oracles the tests compare the library against.

``closed_form_example`` gives the known dimensions of the two worked 2-D
families (bases 2 and 4, unit exponents); ``admissible_count_bounds`` is
Renyi's sandwich for the number of admissible words, and
``full_count_constant`` the constant of the full words' lower bound.
"""
from __future__ import annotations

import math


def closed_form_example(which: int, param: float) -> float:
    """which=1: constant rotation by theta in [0, pi/2]; 5/4 except at the
    right angle, where the value drops to 1.
    which=2: cos theta_n = 2^(-a n) with a >= 0; 1 + (1-a)/(4-a) up to
    a = 1, then 1.
    """
    if which == 1:
        theta = float(param)
        if not (0.0 <= theta <= math.pi / 2.0):
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
        return 1.0 if theta == math.pi / 2.0 else 1.25
    if which == 2:
        a = float(param)
        if not (a >= 0.0 and math.isfinite(a)):
            raise ValueError(f"decay parameter must be >= 0, got {a}")
        return 1.0 + (1.0 - a) / (4.0 - a) if a <= 1.0 else 1.0
    raise ValueError(f"example must be 1 or 2, got {which!r}")


def admissible_count_bounds(beta: float, n: int) -> tuple:
    """The Renyi sandwich (beta**n, beta**(n+1)/(beta-1)) as floats."""
    b = float(beta)
    try:
        return b ** n, b ** (n + 1) / (b - 1)
    except OverflowError:
        return math.inf, math.inf


def full_count_constant(beta: float) -> float:
    """c with #(full words of length n) >= c * beta**n: 1 for integer
    beta, (beta-2)/(beta-1) for beta > 2, and the product prod_i
    (1 - beta**-i) for 1 < beta < 2, multiplied out until its factors
    reach 1 in double precision."""
    b = float(beta)
    if b.is_integer():
        return 1.0
    if b > 2:
        return (b - 2) / (b - 1)
    c, i = 1.0, 1
    while b ** -i > 2.0 ** -54:
        c *= 1.0 - b ** -i
        i += 1
    return c
