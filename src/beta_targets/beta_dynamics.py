"""Single-transformation machinery: digits, cylinders, fullness, counting.

Everything here is built on one recursion.  A cylinder of level n is the
half-open interval [left, left + t * beta**-n) described by its digit word
together with the parameter t in (0, 1], the length of the cylinder's image
under the n-fold map.  A node with image length t has a child for every
digit k with k/beta < t, and the child's image length is min(beta*t - k, 1).
Fullness is exactly t == 1, i.e. maximal length beta**-n.

Every image length the recursion produces is 1 or t_j = T^j(1), reached by
a run of j top digits after a full prefix (Parry 1960).  So the recursion
is an automaton on the orbit of 1: state j has digits 0..top_j, the lower
ones lead back to state 0 and the top one to state j + 1.  The orbit runs
once per call on the exact binary value of beta.  It holds each t_j as an
interval at a working precision of about n * log2(beta) bits, takes a
digit or a snap below only when the whole interval agrees on it, and
restarts at twice the precision, up to the exact one, when it does not; so
each is decided as exact arithmetic decides it, and t_j, taken the same
way, is rounded once to the working precision.  The counts are an integer
recurrence over the states; the walk reads each node's digit range from
the same table, which stores per state only top_j, the top child's state
and t_j.

The walk is one array walk for both precisions: a block of nodes of one
level is held as arrays of lefts, orbit states and digit words, and its
children come from np.repeat over each node's digit range (all of
0..top_j, or the digits whose cylinder meets the ``within`` window).
Blocks are expanded depth first, their children pushed as sub-blocks in
reverse, so the leaves come out in lexicographic order and the memory
stays bounded; node_cap is checked against the summed child counts
before each expansion is allocated.  Under mpmath the same code runs on
object arrays of mpf.  CylinderNode is built only by enumerate_cylinders;
cylinder_blocks hands out the leaf arrays themselves.  Both are lazy for
either precision: the arguments are checked at the call, and the walk
runs as its output is consumed.

Tolerances: a top child whose length lands within FULLNESS_TOL of 1 is
snapped to 1, and a digit k with beta*t - k at most SPURIOUS_CHILD_TOL is
a rounding ghost and dropped.  Non-top children are full without help, so
both rules can fire only on the orbit of 1, where a snap closes the orbit.
They keep the float golden mean counting Fibonacci, although its exact
binary value has beta*T(1) = 1 + 1e-16.  Both rules are applied to the
exact binary values of beta and the tolerances; the orbit's working
precision changes only the cost of deciding them, never the outcome.  For
beta near 1 or deep levels, construct BetaParam with dps set; the orbit
then uses beta rounded to that many digits, tolerance 10**(5 - dps), and
t_j and the walk run under mpmath.  That precision lives in a private
mpmath context, one per dps, never in the global mpmath.mp: every mpf the
module returns belongs to it, so it prints and computes at its own dps
wherever it goes next, and the caller's mpmath settings neither affect the
walk nor are touched by it.
"""
from __future__ import annotations

import functools
import logging
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .errors import (ConsistencyError, DomainError, ResourceLimitError,
                     _as_float)

__all__ = [
    "FULLNESS_TOL",
    "SPURIOUS_CHILD_TOL",
    "DEFAULT_NODE_CAP",
    "BetaParam",
    "Interval",
    "CylinderNode",
    "CylinderBlock",
    "transform",
    "digits",
    "cylinder_blocks",
    "enumerate_cylinders",
    "count_words",
    "count_admissible",
]

log = logging.getLogger(__name__)

FULLNESS_TOL = 1e-9
SPURIOUS_CHILD_TOL = 1e-12
DEFAULT_NODE_CAP = 10**8
# the walk expands its nodes in sub-blocks of at most this many children
# (more only when one node has more digits)
BLOCK = 1 << 12
# a count's cap on the word operations of its recurrence, n x live states
# x the 64-bit words of a count near beta**n, unless node_cap is larger:
# phi does 2.2e8 at n = 10**5 and 2.2e12 at n = 10**7
_COUNT_WORK_CAP = 10**11
# the orbit of 1 starts at this many bits past those its digits need
_GUARD_BITS = 64

Word = tuple  # digit tuples; level == len(word)


@dataclass(frozen=True)
class BetaParam:
    """Transformation parameter.

    ``beta`` may be a float or an mpmath number; it must be finite and
    exceed 1.  Setting ``dps``, an integer of at least 6, routes every
    operation through a private mpmath context at that many decimal
    digits and shrinks the snap tolerances to 10**(5 - dps), which is the
    escape hatch for beta near 1 or deep levels, where the double
    tolerances and cylinder endpoints are too coarse.  The mpf values
    handed back carry that context, so they print and compute at dps
    digits whatever the global mpmath precision is.
    """

    beta: object
    dps: Optional[int] = None

    def __post_init__(self):
        b = _as_float(self.beta, "beta", "beta_dynamics")
        if not (b > 1 and math.isfinite(b)):
            raise DomainError(
                f"beta must be finite and exceed 1, got {self.beta!r}",
                module="beta_dynamics")
        # below 6 digits the snap tolerance 10**(5 - dps) reaches 1
        if self.dps is not None and (
                not isinstance(self.dps, int) or isinstance(self.dps, bool)
                or self.dps < 6):
            raise DomainError(
                f"dps must be an integer >= 6, got {self.dps!r}",
                module="beta_dynamics")


BetaLike = Union[float, int, BetaParam]


def as_beta_param(beta: BetaLike) -> BetaParam:
    return beta if isinstance(beta, BetaParam) else BetaParam(beta)


@dataclass(frozen=True)
class Interval:
    """Half-open interval [left, right) of floats; ties resolve right-open."""

    left: float
    right: float

    def __post_init__(self):
        for end in ("left", "right"):
            object.__setattr__(self, end, _as_float(
                getattr(self, end), f"the {end} end", "beta_dynamics"))
        if not self.left < self.right:
            raise DomainError(f"empty interval [{self.left}, {self.right})",
                              module="beta_dynamics")

    @property
    def length(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class CylinderNode:
    """An admissible word with its interval data.

    ``image_length`` is the t parameter of the recursion; the interval is
    [left, left + length) with length == image_length * beta**-level, and
    the node is full exactly when image_length == 1.
    """

    word: Word
    left: float
    image_length: float
    length: float

    @property
    def level(self) -> int:
        return len(self.word)

    @property
    def right(self) -> float:
        return self.left + self.length

    @property
    def full(self) -> bool:
        return self.image_length == 1


@functools.lru_cache(maxsize=16)
def _mp_context(dps: int):
    """The private mpmath context at dps digits.  An mpf computes at the
    precision of its own context, so the numbers made here need no global
    precision switch.  A context takes about a millisecond to build, so
    the last few are cached; an evicted one lives on in its mpf values."""
    from mpmath.ctx_mp import MPContext

    mp = MPContext()
    mp.dps = dps
    return mp


class _Ctx:
    """Arithmetic context: plain doubles, or the private mpmath context
    of param.dps (``mp`` is that context, or None for doubles)."""

    def __init__(self, param: BetaParam):
        if param.dps is None:
            self.mp = None
            self.dtype = np.float64
            self.beta = float(param.beta)
            self.one, self.zero = 1.0, 0.0
            self.prec = sys.float_info.mant_dig
            self.full_tol, self.spur_tol = FULLNESS_TOL, SPURIOUS_CHILD_TOL
            self.floor = math.floor
        else:
            self.mp = mp = _mp_context(param.dps)
            self.dtype = object
            self.beta = mp.mpf(param.beta)
            self.one, self.zero = mp.one, mp.zero
            self.prec = mp.prec
            self.full_tol = self.spur_tol = mp.mpf(10) ** (5 - param.dps)
            self.floor = lambda x: int(mp.floor(x))

    def length(self, num: int, shift: int):
        """num / 2**shift rounded once to the working precision."""
        if self.mp is None:
            return num / (1 << shift)
        return self.mp.ldexp(self.mp.mpf(num), -shift)

    def array(self, values) -> np.ndarray:
        """values as a 1-D array of the working type (mpf objects under
        mpmath)."""
        out = np.empty(len(values), dtype=self.dtype)
        out[:] = values
        return out

    def multiples(self, ks: np.ndarray, scale) -> np.ndarray:
        """k * scale for each integer k of ks, as the scalar product
        rounds it; under mpmath one mpf product per distinct k."""
        if self.mp is None:
            return ks * scale
        used, which = np.unique(ks, return_inverse=True)
        return self.array([k * scale for k in used.tolist()])[which]

    def step(self, x):
        """One application of the map: x -> (digit, beta*x mod 1)."""
        y = self.beta * x
        k = self.floor(y)
        return k, y - k


def _dyadic(x) -> tuple:
    """(num, e) with x == num / 2**e exactly, for a float or an mpf."""
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        return num, den.bit_length() - 1
    man, exp = x.man_exp
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _orbit(ctx: _Ctx, n: int, length=None) -> Iterator[tuple]:
    """The orbit of 1 as automaton states, each decision taken at a working
    precision that widens until it is exact.

    State j stands for the image length t_j = T^j(1), with t_0 = 1; a node
    is in state j when its word ends in a run of j top digits after a full
    prefix.  Yields at most n pairs, for j = 0, 1, ...: the top digit of
    state j and the length t_{j+1} of its top child, or None when that
    child snaps to 1; the snap closes the orbit.  t_{j+1} comes as
    length(num, shift) of its exact value num / 2**shift (ctx.length
    rounds it once to the working precision), or as True when length is
    None.  The digits and snaps follow the tolerance rule of the module
    docstring, applied to the exact binary values of beta = p / 2**e and
    the tolerances.

    A pass holds t_j as an interval [num, num + err] / 2**shift around it:
    exact (err = 0) while shift, which grows by e a step, is at most bits,
    and rounded outward to that many bits after that.  A digit, a snap or
    a length is taken only when both ends of the interval agree on it, so
    it is the one exact arithmetic gives.  When they disagree, the pass
    stops and the next one starts over at twice the bits, yielding only
    past the decisions already taken.  The first pass takes the
    n * log2(beta) bits the digits need, plus the bits the error can grow
    by in n steps and _GUARD_BITS (and, for lengths, the bits that round
    the smallest t_j).  A pass that would take a quarter of e * n bits or
    more takes e * n instead: the orbit is then exact and takes every
    decision, in about e * n**2 / 2 bit operations.  The passes before it
    cost less than that together, so a restarted orbit costs at most
    about twice the exact one, and an orbit decided in its first pass
    about n**2 * log2(beta).
    """
    p, e = _dyadic(ctx.beta)
    s, es = _dyadic(ctx.spur_tol)
    f, ef = _dyadic(ctx.full_tol)
    # a step takes err below beta * err + 2, so err_j < 2 * j * beta**j,
    # and these bits keep err_j / 2**bits below 2**-_GUARD_BITS for j <= n;
    # a length needs ctx.prec bits of t_j, which exceeds the ghost
    # tolerance s / 2**es >= 2**-(es - s.bit_length() + 1)
    bits = (math.ceil(n * math.log2(float(ctx.beta))) + n.bit_length() + 1
            + _GUARD_BITS)
    if length is not None:
        bits += ctx.prec + es - s.bit_length() + 1
    done = 0  # the decisions yielded so far
    while True:
        if 4 * bits >= e * n:
            bits = e * n
        num, err, shift = 1, 0, 0
        at = -1  # the scale of the thresholds below
        for j in range(n):
            shift += e
            if shift != at:
                at = shift
                # frac <= ghost: a ghost; frac >= full: snapped to 1
                ghost = (s << shift) >> es
                full = -(((f - (1 << ef)) << shift) >> ef)
            lo = p * num  # beta * t_j in [lo, hi] / 2**shift
            k = lo >> shift
            lo -= k << shift
            hi = lo + p * err if err else lo
            if hi >> shift:
                break
            if hi <= ghost:
                # beta*t_j is within spur_tol above the integer k: digit k
                # would be a ghost, and the top child k - 1 has length >= 1
                top, t = k - 1, None
            elif lo <= ghost:
                break
            elif lo >= full:
                top, t = k, None
            elif hi >= full:
                break
            else:
                top = k
                if shift > bits:
                    cut = shift - bits
                    num = lo >> cut
                    err = -(-hi >> cut) - num
                    shift = bits
                else:
                    num, err = lo, hi - lo
                if length is None:
                    t = True
                else:
                    t = length(num, shift)
                    if err and length(num + err, shift) != t:
                        break
            if j == done:
                done += 1
                yield top, t
            if t is None:
                return
        else:
            return
        log.debug("orbit of 1 for beta=%s undecided at state %d with %d "
                  "bits; restarting with twice the bits", ctx.beta, j, bits)
        bits *= 2


def _state_table(ctx: _Ctx, n: int):
    """(tops, nexts, ts) for the orbit states that words shorter than n
    reach: state j has the digits 0..tops[j], the top one leads to state
    nexts[j] (0 when it snaps) and the others to state 0; ts[j] is t_j
    rounded once to the working precision."""
    ts = [ctx.one]
    tops, nexts = [], []
    for top, t in _orbit(ctx, n, ctx.length):
        if t is not None:
            ts.append(t)
        tops.append(top)
        nexts.append(0 if t is None else len(ts) - 1)
    return tops, nexts, ts


def _check_level(n, module="beta_dynamics") -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"level must be a positive integer, got {n!r}",
                          module=module)


def _check_indexable(n: int) -> None:
    if n > sys.maxsize:  # walks and counts index their levels
        raise ResourceLimitError(f"levels above {sys.maxsize} cannot be "
                                 "indexed", module="beta_dynamics")


def _check_unit_point(x):
    if not (0 <= x < 1):
        raise DomainError(f"point {x!r} outside [0, 1)",
                          module="beta_dynamics")


def _check_unit_interval(I: Interval):
    if not (0 <= I.left and I.right <= 1):
        raise DomainError(f"interval {I} not inside [0, 1]",
                          module="beta_dynamics")


def transform(beta: BetaLike, x):
    """One step of the map x -> beta*x mod 1 on [0, 1)."""
    param = as_beta_param(beta)
    _check_unit_point(x)
    return _Ctx(param).step(x)[1]


def digits(beta: BetaLike, x, n: int) -> Word:
    """First n digits of the expansion of x in base beta."""
    param = as_beta_param(beta)
    _check_unit_point(x)
    _check_level(n)
    step = _Ctx(param).step
    out = []
    for _ in range(n):
        k, x = step(x)
        out.append(k)
    return tuple(out)


def _power(base: float, exp: int) -> float:
    try:
        return float(base) ** exp
    except OverflowError:
        return math.inf


def _node_floor(ctx: _Ctx, n: int, within: Optional[Interval]) -> float:
    """(|I| - n * tol) * beta**n, a floor on the nodes of a level-n walk;
    I = [0, 1) without a window, and tol is the ghost tolerance.

    The level-n cylinders tile [0, 1), none longer than beta**-n (Renyi
    1957), so at least |I| * beta**n meet I; the walk makes each, and its
    n ancestors outnumber the two its float window tests can miss.  A
    dropped ghost leaves out at most tol * beta**-(l+1) under a level-l
    node at least beta**-(l+1) long, so at most tol of [0, 1) per level.
    """
    length = 1.0 if within is None else within.length
    return (length - n * float(ctx.spur_tol)) * _power(ctx.beta, n)


class CylinderBlock(NamedTuple):
    """Consecutive level-n cylinders in lexicographic order, as columns.

    Row i of ``words`` is a digit word; ``lefts``, ``image_lengths`` and
    ``lengths`` hold its CylinderNode fields (floats, or mpf objects under
    dps), and ``full`` says whether it is full.
    """

    words: np.ndarray
    lefts: np.ndarray
    image_lengths: np.ndarray
    lengths: np.ndarray
    full: np.ndarray


def cylinder_blocks(
    beta: BetaLike,
    n: int,
    *,
    only_full: bool = False,
    within: Optional[Interval] = None,
    node_cap: float = DEFAULT_NODE_CAP,
) -> Iterator[CylinderBlock]:
    """The cylinders of enumerate_cylinders, in blocks of arrays.

    Same order, filters and caps as enumerate_cylinders; the checks that
    need no walk, the node floor among them, raise at the call.  A
    window of all of [0, 1) is none: every cylinder lies in it.
    """
    param = as_beta_param(beta)
    _check_level(n)
    _check_indexable(n)
    if within is not None:
        _check_unit_interval(within)
        within = None if within == Interval(0.0, 1.0) else within
    ctx = _Ctx(param)
    floor = _node_floor(ctx, n, within)
    if floor > node_cap:
        raise ResourceLimitError(
            f"the walk makes at least {floor:.3g} nodes, past cap "
            f"{node_cap:.3g}; lower n, restrict the interval, or raise node_cap",
            module="beta_dynamics")
    return _walk_blocks(ctx, n, only_full, within, node_cap)


def enumerate_cylinders(
    beta: BetaLike,
    n: int,
    *,
    only_full: bool = False,
    within: Optional[Interval] = None,
    node_cap: float = DEFAULT_NODE_CAP,
) -> Iterator[CylinderNode]:
    """Every admissible word of length n, in lexicographic digit order.

    ``within`` restricts the output to nodes whose interval is contained in
    it (the walk also prunes subtrees that miss it, so narrow intervals are
    cheap).  ``only_full`` keeps full nodes only.  Refuses at the call when
    the walk's node floor, about |I| * beta**n, exceeds node_cap, else
    during the walk, before allocating the expansion that passes it.
    """
    return _block_nodes(cylinder_blocks(beta, n, only_full=only_full,
                                        within=within, node_cap=node_cap))


def _block_nodes(blocks) -> Iterator[CylinderNode]:
    for b in blocks:
        yield from map(CylinderNode, map(tuple, b.words.tolist()),
                       b.lefts.tolist(), b.image_lengths.tolist(),
                       b.lengths.tolist())


def _first_true(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per entry, the least k in [lo, hi) with pred(k) true, else hi, for
    a pred that is monotone (false, then true) in k; by bisection.  A
    settled entry has mid == hi, which either branch keeps."""
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        p = pred(mid)
        hi = np.where(p, mid, hi)
        lo = np.where(p, lo, mid + 1)
    return hi


def _window_digits(ctx, lefts, tops, t_top, child_scale, lo, hi):
    """(first digit, child count) per node: the digits whose child meets
    [lo, hi), decided by the walk's own float tests.

    A child k has left = left + k * child_scale and length child_scale,
    or t_top * child_scale for the top digit; both tests are monotone in
    k, so the kept digits are one range, found by bisection.
    """
    def cleft(k):
        return lefts + ctx.multiples(k, child_scale)

    zero = np.zeros_like(tops)
    # the first digit whose left reaches hi, so digits below it pass
    past = _first_true(lambda k: cleft(k) >= hi, zero, tops + 1)
    # the first non-top digit whose right end passes lo
    first = _first_true(lambda k: lo < cleft(k) + child_scale, zero, tops)
    top_kept = (past > tops) & (lo < cleft(tops) + t_top * child_scale)
    last = np.where(top_kept, tops, np.minimum(past - 1, tops - 1))
    return first, np.maximum(last - first + 1, 0)


def _walk_blocks(ctx, n, only_full, within, node_cap):
    """The array walk (see the module docstring): CylinderBlocks of the
    level-n leaves that pass the filters, in lexicographic order."""
    tops, nexts, ts = _state_table(ctx, n)
    if max(tops) >= np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"digit {max(tops)} of beta={ctx.beta} does not fit the walk's "
            "64-bit digit arrays", module="beta_dynamics")
    top = np.array(tops, dtype=np.int64)
    nxt = np.array(nexts, dtype=np.intp)
    t = ctx.array(ts)
    digit = np.min_scalar_type(max(tops))
    # bytes per child in the widest child array: its word row, or its
    # 8-byte left, state or digit; numpy addresses at most intp max bytes
    row_bytes = max(8, n * digit.itemsize)
    # sub-blocks of this many nodes have at most BLOCK children
    split = max(1, BLOCK // (max(tops) + 1))
    visited = 1
    # stack entries: (level, beta**-level, words, lefts, orbit states) of
    # consecutive nodes of one level; sub-blocks are pushed in reverse so
    # the smallest digits pop first (lex order)
    stack = [(0, ctx.one, np.zeros((1, n), dtype=digit),
              ctx.array([ctx.zero]), np.zeros(1, dtype=np.intp))]
    while stack:
        level, scale, words, lefts, states = stack.pop()
        child_scale = scale / ctx.beta
        ptop = top[states]
        if within is None:
            first = np.zeros_like(ptop)
            counts = ptop + 1
        else:
            first, counts = _window_digits(
                ctx, lefts, ptop, t[nxt[states]], child_scale, within.left,
                within.right)
        total = int(counts.sum())
        visited += total
        if visited > node_cap:
            raise ResourceLimitError(
                f"node walk exceeded cap {node_cap:.3g}",
                module="beta_dynamics")
        if total * row_bytes > np.iinfo(np.intp).max:
            raise ResourceLimitError(
                f"{total} children of one expansion exceed the arrays "
                "numpy can address", module="beta_dynamics")
        parent = np.repeat(np.arange(len(states)), counts)
        ks = np.arange(total) + (first - (np.cumsum(counts) - counts))[parent]
        states = np.where(ks == ptop[parent], nxt[states][parent], 0)
        lefts = lefts[parent] + ctx.multiples(ks, child_scale)
        words = words[parent]
        words[:, level] = ks
        level += 1
        if level < n:
            # copies, so that no pending sub-block keeps the whole level
            # alive: under mpmath its lefts are mpf objects
            for i in reversed(range(0, total, split)):
                stack.append((level, child_scale, words[i:i + split].copy(),
                              lefts[i:i + split].copy(),
                              states[i:i + split].copy()))
            continue
        full = states == 0
        lengths = (t * child_scale)[states]
        keep = full if only_full else None
        if within is not None:
            # every cylinder ends at or before 1, however its end rounds
            inside = (lefts >= within.left) & (
                (lefts + lengths <= within.right) | (within.right >= 1))
            keep = inside if keep is None else keep & inside
        if keep is not None:
            words, lefts, states, lengths, full = (
                a[keep] for a in (words, lefts, states, lengths, full))
        if len(states):
            yield CylinderBlock(words, lefts, t[states], lengths, full)


def _gather(idx: list):
    """c -> the tuple of c[i] for the indices idx, in one C call."""
    if len(idx) == 1:
        i, = idx
        return lambda c: (c[i],)
    return operator.itemgetter(*idx) if idx else lambda c: ()


def _counts(param: BetaParam, n: int, node_cap: float) -> tuple:
    """(admissible, full): the numbers of words of length n and of the full
    ones among them, from the orbit of 1.

    With gain_j the number of children of orbit state j that are full,
    c(m), the number of full words of length m, obeys
    c(m) = sum_j gain_j * c(m - 1 - j).  A word in state j is a full word
    followed by j top digits, so the admissible count is the sum of
    c(n - j) over the live states j.  The work, n times the live states,
    is checked against node_cap as the orbit grows, before the recurrence.
    So are its word operations, that work times the 64-bit words of a
    count near beta**n, against the larger of _COUNT_WORK_CAP and node_cap.
    """
    _check_indexable(n)
    gains = []
    for top, t in _orbit(_Ctx(param), n):
        gains.append(top + (t is None))
        # the top child's state is live unless it snapped back to state 0
        live = len(gains) + (t is not None)
        if n * live > node_cap:
            raise ResourceLimitError(
                f"count at n={n} over at least {live} orbit states: "
                f"n x states exceeds cap {node_cap:.3g}",
                module="beta_dynamics")
    work = n * live * (int(n * math.log2(float(param.beta)) // 64) + 1)
    if work > max(_COUNT_WORK_CAP, node_cap):
        raise ResourceLimitError(
            f"count at n={n} over {live} orbit states takes about "
            f"{work:.3g} big-integer word operations, past "
            f"{max(_COUNT_WORK_CAP, node_cap):.3g}; raise node_cap past it "
            "to count", module="beta_dynamics")
    # c[-1 - j] == c(m - 1 - j); the zeros stand for c at negative lengths.
    # States are grouped by gain, so each gain above 1 costs one product,
    # and each group's terms are gathered in one call.
    ones = _gather([-1 - j for j, g in enumerate(gains) if g == 1])
    scaled = [(a, _gather([-1 - j for j, g in enumerate(gains) if g == a]))
              for a in set(gains) if a > 1]
    c = [0] * (live - 1) + [1]
    for _ in range(n):
        c.append(sum([a * sum(get(c)) for a, get in scaled], sum(ones(c))))
        if len(c) > 2 * live:
            del c[:-live]
    return sum(c[-live:]), c[-1]


def count_words(beta: BetaLike, n: int,
                node_cap: float = DEFAULT_NODE_CAP) -> tuple:
    """(admissible, full) word counts of length n from one count: the
    first asserted as count_admissible asserts it, the second against
    the applicable lower bound (exact equality beta**n for integer
    beta)."""
    param = as_beta_param(beta)
    _check_level(n)
    admissible, full = _counts(param, n, node_cap)
    return _check_admissible(param, n, admissible), \
        _check_full(param, n, full)


def count_admissible(beta: BetaLike, n: int,
                     node_cap: float = DEFAULT_NODE_CAP) -> int:
    """Exact number of admissible words of length n.

    Counted on the orbit of 1 (see the module docstring); refuses when n
    times the number of orbit states it needs exceeds node_cap, or when
    that times the 64-bit words of beta**n exceeds both node_cap and
    10**11.  The
    result is asserted against Renyi's sandwich
    beta**n <= count <= beta**(n+1)/(beta-1) before being returned.
    """
    param = as_beta_param(beta)
    _check_level(n)
    return _check_admissible(param, n, _counts(param, n, node_cap)[0])


def _check_admissible(param: BetaParam, n: int, count: int) -> int:
    b = float(param.beta)
    logc = math.log(count)
    # dropped ghosts leave at most n * tol of [0, 1) uncovered, as in
    # _node_floor, so the lower side is (1 - n * tol) * beta**n
    covered = 1 - n * float(_Ctx(param).spur_tol)
    lo = n * math.log(b) + (math.log(covered) if covered > 0 else -math.inf)
    hi = (n + 1) * math.log(b) - math.log(b - 1)
    if logc < lo - 1e-9 or logc > hi + 1e-9:
        raise ConsistencyError(
            f"admissible count {count} escapes the Renyi sandwich for "
            f"beta={b}, n={n}", module="beta_dynamics")
    log.debug("count_admissible(beta=%s, n=%d): log count %.6g within "
              "[%.6g, %.6g]", b, n, logc, lo, hi)
    return count


def _log_full_count_constant(b: float) -> float:
    """log c, c the constant with #(full words of length n) >= c * beta**n:
    0 for integer beta, log((beta-2)/(beta-1)) for beta > 2, and for
    1 < beta < 2 the log of the infinite product prod_i (1 - beta**-i),
    with no loop over the product.

    With t = log beta the product is the Dedekind eta factor
    prod_i (1 - e**(-i t)), whose modular transform gives
    log prod = log(2 pi / t) / 2 - pi**2 / (6 t) + t / 24 + r with
    |r| < 2 exp(-4 pi**2 / t) < 1e-24 for beta < 2: exact to rounding.
    """
    if b.is_integer():
        return 0.0
    if b > 2:
        return math.log((b - 2) / (b - 1))
    t = math.log(b)
    return 0.5 * math.log(2 * math.pi / t) - math.pi ** 2 / (6 * t) + t / 24


def _check_full(param: BetaParam, n: int, count: int) -> int:
    b = float(param.beta)
    if b.is_integer():
        if count != int(b) ** n:
            raise ConsistencyError(
                f"integer beta={b} must have exactly beta**n full words, "
                f"got {count} at n={n}", module="beta_dynamics")
        return count
    lower_log = _log_full_count_constant(b) + n * math.log(b)
    if count <= 0 or math.log(count) < lower_log - 1e-9:
        raise ConsistencyError(
            f"full count {count} below c*beta**n = exp({lower_log:.6g}) for "
            f"beta={b}, n={n}", module="beta_dynamics")
    return count
