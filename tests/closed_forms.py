"""Closed-form oracles the tests compare the library against.

``closed_form_example`` gives the known dimensions of the two worked 2-D
families (bases 2 and 4, unit exponents); ``admissible_count_bounds`` is
Renyi's sandwich for the number of admissible words,
``full_count_constant`` the constant of the full words' lower bound, and
``monomial_dimension`` the exact dimension of the linear family of a
monomial matrix on bases that are powers of 2.
"""
from __future__ import annotations

import math
from fractions import Fraction


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


def monomial_dimension(k, t, sigma) -> Fraction:
    """s* of P_n = o + R diag(beta_j^(-n t_j)) [0,1]^d with beta_i = 2^k_i,
    rational t_j and R a signed, scaled permutation: column j of R is
    nonzero in row sigma[j] only, and its scale drops out of the limit.

    Column j of f^n P_n then has log2 length -n g_j + const with
    g_j = t_j k_j + k_sigma(j), and a cylinder side is 2^(-n w_i), w_i = k_i.
    At the scale tau = 2^(-n lam) the objective is
    sum_i min(1, w_i/lam) + sum_j max(0, 1 - g_j/lam); s* is its minimum
    over lam in {w} u {g}, all in exact rationals, repeats kept.
    """
    w = [Fraction(ki) for ki in k]
    g = [Fraction(tj) * k[j] + k[sigma[j]] for j, tj in enumerate(t)]
    return min(sum(min(Fraction(1), wi / lam) for wi in w)
               + sum(max(Fraction(0), 1 - gj / lam) for gj in g)
               for lam in w + g)
