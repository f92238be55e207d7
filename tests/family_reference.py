"""The axis and rotated target families as they were before one linear
family replaced them, kept verbatim, and the linear families that stand
for them now.

``AxisFamily`` and ``Rotated2DFamily`` here are the reference that
``LinearFamily`` and the library's ``Rotated2DFamily`` are checked
against bit for bit (see ``tests/test_family_reference.py``):
``axis_family`` and ``const_rotation`` build the linear family of an
axis box and of a constantly rotated box, with the arguments the old
classes took; ``rotation`` is the constant-angle rotation matrix, as the
library builds it.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Optional, Sequence, Tuple

import numpy as np

from beta_targets.dimension_engine import LinearFamily
from beta_targets.errors import DomainError
from beta_targets.parallelepiped_geometry import (
    Parallelepiped,
    _rotation_rows,
)

_MODULE = "dimension_engine"


def rotation(theta) -> np.ndarray:
    """The 2-D rotation by theta as an array, near-zero trig snapped to 0,
    as the library builds it for the rotated2d "const" kind."""
    return np.array(_rotation_rows(theta))


def axis_family(exponents, origin=None) -> LinearFamily:
    """The box origin + prod_i [0, beta_i^(-n t_i)], R = I."""
    return LinearFamily(np.eye(len(exponents)), exponents, origin)


def const_rotation(theta: float, exponents=(1.0, 1.0)) -> LinearFamily:
    """The box rotated by the constant angle theta about (1/2, 1/2), as
    the rotated2d config kind with theta 'const' builds it."""
    return LinearFamily(rotation(theta), exponents, (0.5, 0.5))


def _log2_parts(v: float):
    """(sign, log2|v|), with sign 0 and -inf for an exact zero."""
    if v == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, v), math.log2(abs(v))


@dataclasses.dataclass(frozen=True)
class AxisFamily:
    """P_n = origin + prod_i [0, beta_i^(-n t_i)] (no rotation)."""

    exponents: Tuple[float, ...]
    origin: Tuple[float, ...] = ()

    def __init__(self, exponents: Sequence[float],
                 origin: Optional[Sequence[float]] = None):
        ex = tuple(float(t) for t in exponents)
        if not ex or any(not math.isfinite(t) or t <= 0.0 for t in ex):
            raise DomainError("axis exponents must be positive and finite",
                              module=_MODULE)
        org = tuple(float(x) for x in origin) if origin is not None \
            else (0.0,) * len(ex)
        if len(org) != len(ex):
            raise DomainError("origin length must match exponents",
                              module=_MODULE)
        object.__setattr__(self, "exponents", ex)
        object.__setattr__(self, "origin", org)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    def log_columns(self, log2_betas, n: int):
        d = self.dimension
        signs = np.zeros((d, d))
        mags = np.full((d, d), -np.inf)
        for i, (t, l) in enumerate(zip(self.exponents, log2_betas)):
            signs[i, i] = 1.0
            mags[i, i] = -n * (1.0 + t) * l
        return signs, mags

    def target(self, betas, n: int) -> Parallelepiped:
        sides = [b ** (-n * t) for b, t in zip(betas, self.exponents)]
        return Parallelepiped(self.origin, np.diag(sides))

    def rates(self, log2_betas):
        return tuple(sorted((1.0 + t) * l
                            for t, l in zip(self.exponents, log2_betas)))

    def log2_volume(self, log2_betas, n: int) -> float:
        return -n * sum((1.0 + t) * l
                        for t, l in zip(self.exponents, log2_betas))


@dataclasses.dataclass(frozen=True)
class Rotated2DFamily:
    """P_n = R(theta_n) (prod_i [0, beta_i^(-n t_i)]) + (1/2, 1/2).

    theta rule is either "const" (theta_value radians) or "arccos_pow2"
    (cos theta_n = 2^(-a n), so the rotation straightens as n grows when
    a > 0; a = 0 degenerates to no rotation).
    """

    theta: str
    theta_value: float = 0.0
    a: float = 0.0
    exponents: Tuple[float, float] = (1.0, 1.0)

    def __init__(self, theta: str, theta_value: float = 0.0, a: float = 0.0,
                 exponents: Sequence[float] = (1.0, 1.0)):
        if theta not in ("const", "arccos_pow2"):
            raise DomainError(
                f"theta rule must be 'const' or 'arccos_pow2', got {theta!r}",
                module=_MODULE)
        ex = tuple(float(t) for t in exponents)
        if len(ex) != 2 or any(t <= 0.0 or not math.isfinite(t) for t in ex):
            raise DomainError("need two positive exponents", module=_MODULE)
        if theta == "arccos_pow2" and (not math.isfinite(a) or a < 0.0):
            raise DomainError(f"decay parameter must be >= 0, got {a}",
                              module=_MODULE)
        if theta == "const" and not math.isfinite(theta_value):
            raise DomainError("theta_value must be finite", module=_MODULE)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "theta_value", float(theta_value))
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "exponents", ex)

    dimension = 2

    @functools.cached_property
    def _const_cos_sin(self) -> Tuple[float, float]:
        """cos and sin of the constant angle, near-zero values snapped."""
        c, s = rotation(self.theta_value)[:, 0].tolist()
        return c, s

    def _theta_parts(self, n: int):
        """(sign, log2 magnitude) for cos and sin of theta_n."""
        if self.theta == "const":
            c, s = self._const_cos_sin
            return _log2_parts(c), _log2_parts(s)
        # cos theta_n = 2^(-a n): exact in log2; sin from log1p for accuracy
        a = self.a
        if a == 0.0:
            return (1.0, 0.0), (0.0, -math.inf)
        lc = -a * n
        # sin^2 = 1 - 2^(-2an)
        x = 2.0 ** (-2.0 * a * n) if 2.0 * a * n < 1074 else 0.0
        ls = 0.5 * math.log1p(-x) / math.log(2.0) if x < 1.0 else -math.inf
        return (1.0, lc), (1.0, ls)

    def log_columns(self, log2_betas, n: int):
        (sc, lc), (ss, ls) = self._theta_parts(n)
        l1, l2 = log2_betas
        t1, t2 = self.exponents
        # column j = f^n R(theta) e_j * beta_j^(-n t_j)
        signs = np.array([[sc, -ss], [ss, sc]])
        mags = np.array([[lc - n * (1.0 + t1) * l1, ls - n * (t2 * l2 + l1)],
                         [ls - n * (t1 * l1 + l2), lc - n * (1.0 + t2) * l2]])
        return signs, mags

    def target(self, betas, n: int) -> Parallelepiped:
        if self.theta == "const":
            rot = rotation(self.theta_value)
        else:
            c = 2.0 ** (-self.a * n)
            rot = np.array([[c, -math.sqrt(1.0 - c * c)],
                            [math.sqrt(1.0 - c * c), c]])
        b1, b2 = betas
        t1, t2 = self.exponents
        cols = rot @ np.diag([b1 ** (-n * t1), b2 ** (-n * t2)])
        return Parallelepiped((0.5, 0.5), cols)

    def rates(self, log2_betas):
        l1, l2 = log2_betas
        t1, t2 = self.exponents
        if self.theta == "const":
            c, s = self._const_cos_sin
            cos_rate = 0.0 if c != 0.0 else None
            sin_rate = 0.0 if s != 0.0 else None
        elif self.a == 0.0:
            cos_rate, sin_rate = 0.0, None
        else:
            cos_rate, sin_rate = self.a, 0.0
        col1 = []
        col2 = []
        if cos_rate is not None:
            col1.append((1.0 + t1) * l1 + cos_rate)
            col2.append((1.0 + t2) * l2 + cos_rate)
        if sin_rate is not None:
            col1.append(t1 * l1 + l2 + sin_rate)
            col2.append(t2 * l2 + l1 + sin_rate)
        g1 = min(min(col1), min(col2))
        return g1, -self.log2_volume(log2_betas, 1) - g1

    # the rotation keeps the volume of the axis box
    log2_volume = AxisFamily.log2_volume
