import hashlib
import logging
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cylinder_reference
import orbit_reference
from closed_forms import admissible_count_bounds
from cylinder_reference import cylinder_of_word, first_full_inside

from beta_targets import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
)
from beta_targets import beta_dynamics
from beta_targets.beta_dynamics import (
    BetaParam,
    Interval,
    count_admissible,
    count_words,
    cylinder_blocks,
    digits,
    enumerate_cylinders,
    transform,
)

PHI = (1 + math.sqrt(5)) / 2

# frozen by an independent interval-recursion oracle (direct left/right
# endpoints, no shared code with the package)
PHI_HALF = 0.8090169943749475
PHI_LEVEL2 = [
    ((0, 0), 0.0, 0.3819660112501051, True),
    ((0, 1), 0.3819660112501051, 0.2360679774997897, False),
    ((1, 0), 0.6180339887498948, 0.3819660112501051, True),
]
PHI_ADMISSIBLE = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
PHI_FULL = [1, 2, 3, 5, 8, 13, 21, 34]
# the product of (1 - PHI**-i) over i >= 1, from a 50-digit mpmath product
C_PHI = 0.12080192186170613
PHI_DIGITS_HALF = (0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0)


def fraction_level_distribution(beta, n):
    """Exact image length -> number of words of length n: the recursion in
    Fraction arithmetic on the float value of beta, with no tolerances."""
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
    return dist


def fibonacci(n):
    """F_n by fast doubling: F(2k) = F(k)(2F(k+1) - F(k)),
    F(2k+1) = F(k)**2 + F(k+1)**2."""
    def pair(m):
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c, d = a * (2 * b - a), a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return pair(n)[0]


def brute_cylinders(beta, n):
    """Independent recursion used to cross-check the package enumerator."""
    out = []

    def rec(word, left, t, scale):
        if len(word) == n:
            out.append((word, left, t * scale, t == 1.0))
            return
        kmax = math.ceil(beta * t - 1e-12) - 1
        for k in range(kmax + 1):
            tc = beta * t - k
            if tc >= 1 - 1e-9:
                tc = 1.0
            rec(word + (k,), left + k * scale / beta, tc, scale / beta)

    rec((), 0.0, 1.0, 1.0)
    return out


class TestTransform:
    def test_doubling(self):
        assert transform(2, 0.625) == 0.25

    def test_fixed_point(self):
        assert transform(2, 0) == 0

    def test_golden(self):
        assert transform(PHI, 0.5) == pytest.approx(PHI_HALF, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            transform(2, 1.0)
        with pytest.raises(DomainError):
            transform(2, -0.1)
        with pytest.raises(DomainError):
            BetaParam(1.0)

    @pytest.mark.parametrize("call", [
        lambda: BetaParam("x"),
        lambda: BetaParam(None),
        lambda: count_words("x", 3),
        lambda: digits(10 ** 400, 0.5, 3),
    ], ids=["str", "none", "str-count", "huge-int-digits"])
    def test_beta_must_be_a_number(self, call):
        # a bare ValueError, TypeError or OverflowError escaped before
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "beta_dynamics.domain"


class TestDigits:
    def test_binary(self):
        assert digits(2, 0.625, 3) == (1, 0, 1)

    def test_zero(self):
        assert digits(2, 0, 4) == (0, 0, 0, 0)

    def test_golden_periodic_orbit(self):
        assert digits(PHI, 0.5, 6) == PHI_DIGITS_HALF[:6]
        assert digits(PHI, 0.5, 12) == PHI_DIGITS_HALF

    def test_extended_precision_agrees(self):
        import mpmath

        with mpmath.workdps(60):
            beta = BetaParam((1 + mpmath.sqrt(5)) / 2, dps=60)
        assert digits(beta, 0.5, 12) == PHI_DIGITS_HALF

    def test_n_must_be_positive(self):
        with pytest.raises(DomainError):
            digits(2, 0.5, 0)


class TestEnumerate:
    def test_full_shift_level2(self):
        nodes = list(enumerate_cylinders(2, 2))
        assert [n.word for n in nodes] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(n.full and n.length == 0.25 for n in nodes)

    def test_golden_level2(self):
        nodes = list(enumerate_cylinders(PHI, 2))
        assert len(nodes) == 3
        for node, (word, left, length, full) in zip(nodes, PHI_LEVEL2):
            assert node.word == word
            assert node.left == pytest.approx(left, abs=1e-14)
            assert node.length == pytest.approx(length, rel=1e-12)
            assert node.full == full

    def test_golden_level3_full_filter(self):
        nodes = list(enumerate_cylinders(PHI, 3, only_full=True))
        assert len(nodes) == 3
        assert all(n.full for n in nodes)

    def test_matches_independent_recursion(self):
        for beta, n in [(PHI, 6), (2.5, 5), (math.e, 5), (3.0, 4)]:
            got = [(n_.word, n_.left, n_.length, n_.full)
                   for n_ in enumerate_cylinders(beta, n)]
            want = brute_cylinders(beta, n)
            assert [g[0] for g in got] == [w[0] for w in want]
            for g, w in zip(got, want):
                assert g[1] == pytest.approx(w[1], abs=1e-14)
                assert g[2] == pytest.approx(w[2], rel=1e-12)
                assert g[3] == w[3]

    def test_lex_order_and_uniqueness(self):
        words = [n.word for n in enumerate_cylinders(2.5, 5)]
        assert words == sorted(words)
        assert len(words) == len(set(words))

    def test_within_containment_semantics(self):
        I = Interval(0.25, 0.75)
        nodes = list(enumerate_cylinders(2, 3, within=I))
        assert [n.word for n in nodes] == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
        assert all(I.left <= n.left and n.right <= I.right for n in nodes)

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            list(enumerate_cylinders(2, 10, node_cap=100))
        with pytest.raises(ResourceLimitError):
            enumerate_cylinders(2, 1000)

    def test_interval_filter_relaxes_cap(self):
        # a narrow window keeps a deep level affordable
        I = Interval(0.5, 0.5 + 2**-20)
        nodes = list(enumerate_cylinders(2, 30, within=I, node_cap=10**5))
        assert len(nodes) == 2**10


class TestReferenceWalk:
    @pytest.mark.parametrize("beta, n", [(PHI, 20), (2.0, 14), (2.5, 10),
                                         (3.0, 9)])
    def test_bit_identical(self, beta, n):
        # every t_j here is exact in a double, however it is reached
        got = [(x.word, x.left, x.image_length, x.length)
               for x in enumerate_cylinders(beta, n)]
        assert got == cylinder_reference.walk(beta, n)

    @pytest.mark.parametrize("beta", [math.e, 3.7, 1.3, 1.8])
    def test_lengths_within_float_recursion_error(self, beta):
        # the reference propagates t through the float recursion, whose
        # error grows like beta**n; the library rounds the exact t_j once
        for n in range(1, 9):
            got = list(enumerate_cylinders(beta, n))
            want = cylinder_reference.walk(beta, n)
            assert [(x.word, x.left) for x in got] == \
                [(w[0], w[1]) for w in want]
            bound = beta ** n * 2.0 ** -52
            for x, w in zip(got, want):
                assert abs(x.image_length - w[2]) <= bound


def node_tuples(nodes):
    return [(x.word, x.left, x.image_length, x.length) for x in nodes]


@st.composite
def walk_cases(draw):
    """(beta, n, only_full, within) with at most about 4000 leaves."""
    n = draw(st.integers(min_value=1, max_value=8))
    beta = draw(st.floats(min_value=1.0, max_value=min(12.0, 4000 ** (1 / n)),
                          exclude_min=True))
    within = None
    if draw(st.booleans()):
        # the ends 0 and 1 are drawn often: a window ending at 1 keeps
        # every cylinder that starts in it
        end = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        a, b = sorted(draw(st.lists(end, min_size=2, max_size=2,
                                    unique=True)))
        within = (a, b)
    return beta, n, draw(st.booleans()), within


class TestArrayWalk:
    @settings(max_examples=150, deadline=None)
    @given(walk_cases())
    def test_matches_per_node_orbit_walk(self, case):
        beta, n, only_full, within = case
        got = enumerate_cylinders(
            beta, n, only_full=only_full,
            within=Interval(*within) if within else None)
        assert node_tuples(got) == cylinder_reference.orbit_walk(
            beta, n, only_full, within)

    @pytest.mark.parametrize("beta, dps, n, digest", [
        pytest.param(
            1.1, 30, 76,
            "ec30de1a611369c5a5f548e2d1f0742e30b04db2506670c535090155f5ee4c5f",
            id="1.1-30-76"),
        pytest.param(
            1.15, 40, 52,
            "b79de8908685ea8c652abe6c9147f3195ee957d1a01f5fb6a411272f1b07a48e",
            id="1.15-40-52"),
    ])
    def test_extended_precision_pinned(self, beta, dps, n, digest):
        # sha256 of the exact mantissas and exponents of every node, as the
        # per-node stack walk produced them
        h = hashlib.sha256()
        for x in enumerate_cylinders(BetaParam(beta, dps=dps), n):
            h.update(repr((x.word, x.left._mpf_, x.image_length._mpf_,
                           x.length._mpf_)).encode())
        assert h.hexdigest() == digest

    def test_window_projection_near_one(self):
        # the node floor |I| * beta**n is about 1 however close beta is to 1
        got = list(enumerate_cylinders(1.0000000000000002, 1,
                                       within=Interval(0, 1)))
        assert [x.word for x in got] == [(0,)]

    @pytest.mark.parametrize("beta, n", [(2.5, 12), (3.7, 7)])
    def test_whole_window_keeps_the_last_cylinder(self, beta, n):
        # the last cylinder's right end rounds past 1 (1.0000000000000002
        # for (2.5, 12)), and the window's containment test dropped it
        blocks = cylinder_blocks(beta, n, within=Interval(0, 1))
        assert sum(len(b.lefts) for b in blocks) == count_admissible(beta, n)

    @pytest.mark.parametrize("beta, n", [(3.7, 7), (2.5, 12)])
    def test_window_ending_at_one_keeps_the_last_cylinder(self, beta, n):
        # the last cylinder's float right end passes 1, and the right-end
        # test dropped it from a window [0.5, 1) (5242 of 5243 at (3.7, 7))
        want = sum(int((b.lefts >= 0.5).sum())
                   for b in cylinder_blocks(beta, n))
        blocks = cylinder_blocks(beta, n, within=Interval(0.5, 1.0))
        assert sum(len(b.lefts) for b in blocks) == want

    def test_digits_past_int64_are_refused(self):
        # the cap admits the 10**19 children of the root, but the walk
        # holds digits as 64-bit integers
        blocks = cylinder_blocks(1e19, 1, node_cap=1e20)
        with pytest.raises(ResourceLimitError, match="64-bit"):
            next(blocks)

    def test_unaddressable_expansion_is_refused(self):
        # 4e18 children fit the cap and int64, but not numpy's array size
        # limit; the refusal comes before anything is allocated
        with pytest.raises(ResourceLimitError, match="numpy can address"):
            next(cylinder_blocks(4e18, 1, node_cap=1e19))

    def test_dps_values_keep_their_precision(self):
        nodes = list(enumerate_cylinders(BetaParam(1.1, dps=30), 76))
        # mantissa bit counts: a right end of at most 53 bits has been
        # rounded to double precision
        assert max(x.right._mpf_[3] for x in nodes) > 53
        # arithmetic on the returned values stays at 30 digits too
        x = nodes[len(nodes) // 2]
        assert abs((x.right - x.left) / x.length - 1) < 1e-25

    def test_lazy_dps_walk_memory_is_bounded(self):
        # building all 58750 nodes before yielding the first would take
        # over 50 MiB
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_cylinders(
                BetaParam(1.5, dps=20), 26))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_admissible(1.5, 26)
        assert peak < 24 * 2**20

    def test_pending_dps_blocks_free_their_level(self):
        # pushed sub-blocks are copies, so a level's mpf arrays go once
        # its own sub-blocks are walked: 8.7 MiB when they were views
        tracemalloc.start()
        try:
            count = sum(len(b.lefts) for b in cylinder_blocks(
                BetaParam(1.1, dps=30), 76))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_admissible(BetaParam(1.1, dps=30), 76)
        assert peak < 7 * 2**20

    def test_blocks_are_the_nodes_as_columns(self):
        nodes = list(enumerate_cylinders(2.5, 7, within=Interval(0.1, 0.7)))
        blocks = list(cylinder_blocks(2.5, 7, within=Interval(0.1, 0.7)))
        assert [tuple(w) for b in blocks for w in b.words.tolist()] == \
            [x.word for x in nodes]
        for col, field in (("lefts", "left"), ("image_lengths", "image_length"),
                           ("lengths", "length"), ("full", "full")):
            assert [v for b in blocks for v in getattr(b, col).tolist()] == \
                [getattr(x, field) for x in nodes]

    def test_cap_refuses_a_level_before_allocating_it(self):
        # the node floor beta**1 == node_cap passes; the root's 10**6
        # children would take tens of MiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="node walk"):
                next(cylinder_blocks(1e6, 1, node_cap=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cap_raises_mid_walk(self):
        # the floor 2**16 fits the cap, the 2**17 - 1 nodes made do not
        nodes = enumerate_cylinders(2, 16, node_cap=10**5)
        assert next(nodes).word == (0,) * 16
        with pytest.raises(ResourceLimitError, match="node walk"):
            for _ in nodes:
                pass

    @pytest.mark.parametrize("beta, n", [
        (BetaParam(1.1, dps=30), 76), (BetaParam(1.15, dps=40), 52),
        (PHI, 30), (2.01, 17), (1.5, 27)])
    def test_walks_at_the_default_cap(self, beta, n):
        # 2**n, the bound of a two-letter alphabet, is past the cap in
        # each case; the leaves number a few thousand to two million
        leaves = sum(len(b.full) for b in cylinder_blocks(beta, n))
        assert leaves == count_admissible(beta, n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_node_floor_admits_the_cylinders_met(self, data):
        # a cap of the number of level-n cylinders meeting the window,
        # counted from the unfiltered walk, never refuses at the call
        n = data.draw(st.integers(min_value=1, max_value=12))
        beta = data.draw(st.floats(min_value=1.0,
                                   max_value=min(4.0, 4000 ** (1 / n)),
                                   exclude_min=True))
        within = None
        if data.draw(st.booleans()):
            within = Interval(*sorted(data.draw(st.lists(
                st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True))))
        met = 0
        for b in cylinder_blocks(beta, n):
            met += len(b.lefts) if within is None else int(
                ((b.lefts < within.right)
                 & (b.lefts + b.lengths > within.left)).sum())
        cylinder_blocks(beta, n, within=within, node_cap=met)

    def test_lazy_walk_memory_is_bounded(self):
        # 2**18 nodes held at once would take well over 50 MiB
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_cylinders(2, 18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**18
        assert peak < 16 * 2**20

    def test_wide_alphabet_window_visits_its_digits_only(self):
        I = Interval(0.5, 0.50001)
        tracemalloc.start()
        try:
            got = node_tuples(enumerate_cylinders(1e5, 1, within=I))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == cylinder_reference.orbit_walk(1e5, 1,
                                                    within=(0.5, 0.50001))
        assert [w for w, *_ in got] == [(50000,)]
        # a table of every digit of every state took 10 MiB here
        assert peak < 2**20


REFUSALS = {
    "digits-level-float": (lambda: digits(2, 0.3, 2.5), DomainError),
    "digits-level-bool": (lambda: digits(2, 0.3, True), DomainError),
    "admissible-level-float": (lambda: count_admissible(2, 2.5), DomainError),
    "admissible-level-bool": (lambda: count_admissible(2, True), DomainError),
    "full-level-zero": (lambda: count_words(2, 0)[1], DomainError),
    "count-words-level-bool": (lambda: count_words(2, True), DomainError),
    "blocks-level-float": (lambda: cylinder_blocks(2, 2.5), DomainError),
    "enumerate-level-bool": (lambda: enumerate_cylinders(2, True),
                             DomainError),
    # the walk died on such ends with a TypeError
    "interval-str-ends": (lambda: Interval("a", "b"), DomainError),
    "interval-none-end": (lambda: Interval(None, 0.5), DomainError),
    "beta-infinite": (lambda: count_admissible(math.inf, 2), DomainError),
    "beta-param-infinite": (lambda: BetaParam(math.inf, dps=20), DomainError),
    # below 6 digits the snap tolerance 10**(5 - dps) is at least 1
    **{f"dps-{dps!r}": (lambda dps=dps: count_admissible(
        BetaParam(1.5, dps=dps), 10), DomainError)
       for dps in (5, 3, 2.5, 0, -3, True)},
    # the node floor beta**n is past the float range: refused, not an
    # OverflowError
    "projection-past-float-range": (lambda: enumerate_cylinders(2, 1100),
                                    ResourceLimitError),
    # levels past sys.maxsize: an OverflowError from the node floor, and
    # a ValueError from itertools.islice
    "blocks-level-past-index": (lambda: cylinder_blocks(2, 10 ** 309),
                                ResourceLimitError),
    "count-words-level-past-index": (lambda: count_words(2.0, 2 ** 64),
                                     ResourceLimitError),
    # 0.3 * 2**40 nodes meet the window
    "node-floor-in-window": (lambda: enumerate_cylinders(
        2, 40, within=Interval(0.3, 0.6)), ResourceLimitError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_typed_refusal_at_the_call(call, error):
    with pytest.raises(error) as info:
        call()
    assert info.value.module == "beta_dynamics"


class TestCylinderOfWord:
    def test_roundtrip(self):
        # the walk's nodes against each word's cylinder read off the
        # reference orbit table
        for node in enumerate_cylinders(PHI, 5):
            again = cylinder_of_word(PHI, node.word)
            assert again is not None
            assert again[1] == node.left
            assert again[2] == node.image_length

    def test_inadmissible(self):
        assert (1, 1) not in {x.word for x in enumerate_cylinders(PHI, 2)}
        assert (0, 2) not in {x.word for x in enumerate_cylinders(2, 2)}


class TestCounts:
    def test_power_of_two(self):
        assert count_admissible(2, 5) == 32

    def test_golden_fibonacci(self):
        assert count_admissible(PHI, 4) == 8
        for n, want in enumerate(PHI_ADMISSIBLE, start=1):
            assert count_admissible(PHI, n) == want

    def test_level_one_alphabet(self):
        assert count_admissible(2.5, 1) == 3

    def test_full_integer_beta(self):
        assert count_words(3, 4)[1] == 81

    def test_full_golden(self):
        assert count_words(PHI, 2)[1] == 2
        assert count_words(PHI, 1)[1] == 1
        for n, want in enumerate(PHI_FULL, start=1):
            assert count_words(PHI, n)[1] == want

    def test_counts_match_enumeration(self):
        for beta in (PHI, 2.5, math.e, 3.0):
            for n in range(1, 9):
                nodes = list(enumerate_cylinders(beta, n))
                assert count_admissible(beta, n) == len(nodes)
                assert count_words(beta, n)[1] == \
                    sum(1 for x in nodes if x.full)

    def test_renyi_bounds_helper(self):
        lo, hi = admissible_count_bounds(2.5, 3)
        assert lo == 2.5**3
        assert hi == 2.5**4 / 1.5

    def test_full_constant(self):
        log_c = beta_dynamics._log_full_count_constant
        assert log_c(3.0) == 0.0
        assert math.exp(log_c(2.5)) == pytest.approx(1 / 3)
        assert math.exp(log_c(PHI)) == pytest.approx(C_PHI, rel=1e-12, abs=0)

    @pytest.mark.parametrize("beta", [1.01, 1.1, 1.3, PHI, 1.9, 1.999])
    def test_full_constant_is_the_infinite_product(self, beta):
        terms = math.fsum(math.log1p(-beta ** -i) for i in range(1, 20_000))
        assert beta_dynamics._log_full_count_constant(beta) == \
            pytest.approx(terms, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("beta, counts", [(1.0001, (6, 1)),
                                              (1 + 2**-52, (1, 1))])
    def test_counts_near_one(self, beta, counts):
        # c_beta underflows below beta ~ 1.0022; _check_full takes its log
        assert count_words(beta, 5) == counts
        assert (count_admissible(beta, 5), count_words(beta, 5)[1]) == counts

    def test_renyi_floor_allows_dropped_ghosts(self):
        # 1 + 2**-52 drops digit 1 as a ghost, so its count is 1 at every
        # n, below beta**n past n ~ 4.5e6; the dropped ghosts cover at most
        # n * SPURIOUS_CHILD_TOL of [0, 1), which the lower side allows
        from beta_targets.beta_dynamics import _check_admissible
        assert _check_admissible(BetaParam(1 + 2**-52), 5_000_000, 1) == 1
        # that allowance is 2e-11 at n = 20: a count 1e-8 short still fails
        short = math.ceil(2.5 ** 20 * (1 - 1e-8))
        with pytest.raises(ConsistencyError, match="Renyi sandwich"):
            _check_admissible(BetaParam(2.5), 20, short)

    def test_counts_deep_levels_cheap(self):
        # the distribution recursion is polynomial in n
        assert count_admissible(2, 200) == 2**200
        assert count_words(PHI, 300)[1] > 0

    def test_count_beyond_float_range(self):
        # phi**1500 overflows a float; the count is the Fibonacci F_1502
        a, b = 1, 1
        for _ in range(1500):
            a, b = b, a + b
        assert count_admissible(PHI, 1500) == b


    @pytest.mark.parametrize("n", [60, 90])
    @pytest.mark.parametrize("beta", [3.7, math.e, math.pi, 1.628, 2.5])
    def test_exact_oracle(self, beta, n):
        # float image-length keys drift at these levels; the orbit of 1,
        # each decision certified as exact arithmetic takes it, does not
        dist = fraction_level_distribution(beta, n)
        assert count_admissible(beta, n) == sum(dist.values())
        assert count_words(beta, n)[1] == dist[1]

    def test_deep_fibonacci_is_linear_work(self):
        # two orbit states, so the recurrence does O(n) big-integer adds
        assert count_admissible(PHI, 100_000) == fibonacci(100_002)
        assert count_words(PHI, 100_000)[1] == fibonacci(100_001)

    def test_work_cap_is_levels_times_orbit_states(self):
        # phi's orbit closes after two states; 1.3's stays open past n
        assert count_admissible(PHI, 1000, node_cap=2000) == fibonacci(1002)
        with pytest.raises(ResourceLimitError):
            count_words(1.3, 1000, node_cap=10**5)

    def test_big_integer_work_refused_at_the_call(self):
        # phi at n = 10**7 passes node_cap (two states), but its counts
        # have 108,468 words each: 2.2e12 word operations, refused before
        # a recurrence whose time grows like n^2
        with pytest.raises(ResourceLimitError,
                           match=r"2\.17e\+12 big-integer"):
            count_words(PHI, 10**7)

    def test_big_integer_work_cap_lifted_by_node_cap(self, monkeypatch):
        # phi at n = 1000 does 1000 x 2 x 11 = 22,000 word operations: past
        # a word cap of 10**4 unless node_cap is larger still
        monkeypatch.setattr(beta_dynamics, "_COUNT_WORK_CAP", 10**4)
        with pytest.raises(ResourceLimitError, match="past 1e\\+04"):
            count_words(PHI, 1000, node_cap=5000)
        assert count_words(PHI, 1000, node_cap=10**5) == \
            count_words(PHI, 1000)

    def test_extended_precision_matches_walk(self):
        beta = BetaParam(1.1, dps=30)
        nodes = list(enumerate_cylinders(beta, 40))
        assert count_admissible(beta, 40) == len(nodes)
        assert count_words(beta, 40)[1] == sum(1 for x in nodes if x.full)

    @pytest.mark.parametrize("beta, n", [(PHI, 30), (2.5, 40), (1.3, 200),
                                         (3.0, 12)])
    def test_count_words_is_both_counts(self, beta, n):
        assert count_words(beta, n) == (count_admissible(beta, n),
                                        count_words(beta, n)[1])

    def test_count_words_keeps_both_checks(self, monkeypatch):
        from beta_targets import beta_dynamics
        monkeypatch.setattr(beta_dynamics, "_counts",
                            lambda param, n, node_cap: (1, 1))
        with pytest.raises(ConsistencyError, match="Renyi sandwich"):
            count_words(2.5, 20)
        monkeypatch.setattr(beta_dynamics, "_counts",
                            lambda param, n, node_cap: (10**8, 1))
        with pytest.raises(ConsistencyError, match="full count 1 below"):
            count_words(2.5, 20)

    def test_full_count_failure_message_at_depth(self, monkeypatch):
        # beta**2000 overflows a float; the failed bound must still be
        # reported as a ConsistencyError, not an OverflowError
        from beta_targets import beta_dynamics
        # an admissible count of floor(2.5**n) passes its own check
        monkeypatch.setattr(beta_dynamics, "_counts",
                            lambda param, n, node_cap: (5 ** n // 2 ** n, 1))
        with pytest.raises(ConsistencyError, match="full count 1 below"):
            count_words(2.5, 2000)


# sha256 of "admissible,full", pinned from the counts of the exact orbit
# (tests/orbit_reference.py): open orbits at and past the benchmark's
# deepest counts, a short mantissa, and an mpmath orbit
COUNT_PINS = [
    pytest.param(1.3, 1500, "799d83f7082284b0d34f85947fd841245e7c541d826e"
                 "8630f04e571bced406bc", id="1.3-1500"),
    pytest.param(2.5, 700, "c46b71569acb3ef27a532eedb4b7f7d1b6e09044c914"
                 "2381df35b60316045096", id="2.5-700"),
    pytest.param(math.pi, 200, "9015e966463127c0342b46c2f295521291f15d442a"
                 "7cce8ecef8676af9911968", id="pi-200"),
    pytest.param(1.0001, 5000, "18fdf7965232a251b2db708db1aa20b0eb2a88dd50"
                 "c376fe763f07dfa75585a0", id="1.0001-5000"),
    pytest.param(7.9, 800, "f8b10f4e40a5decb692499c727a6afde3687ba009c3d"
                 "69aec3501bd41e1e0c60", id="7.9-800"),
    pytest.param(BetaParam(1.1, dps=30), 300, "f3148011c67cbd8ce15169882a"
                 "0e7fcd6aa8732be550037348fdeced6a958cec", id="1.1-dps30-300"),
]


@pytest.mark.parametrize("beta, n, digest", COUNT_PINS)
def test_counts_pinned(beta, n, digest):
    admissible, full = count_words(beta, n)
    assert hashlib.sha256(f"{admissible},{full}".encode()).hexdigest() == \
        digest


def table_bits(table):
    """A state table with each t_j as its type (float, or the mpf of one
    context) and exact binary value, so that == compares bits."""
    tops, nexts, ts = table
    return tops, nexts, [(type(t), beta_dynamics._dyadic(t)) for t in ts]


def restarts(caplog) -> int:
    n = sum("restarting" in r.getMessage() for r in caplog.records)
    caplog.clear()
    return n


class TestOrbit:
    """The orbit of 1 decided at a working precision equals the orbit on
    the exact numerator of every t_j, in digits, snaps and the rounded
    lengths of the state table."""

    def check(self, ctx, n):
        got = list(beta_dynamics._orbit(ctx, n))
        want = list(orbit_reference.orbit(ctx, n))
        assert [(k, t is None) for k, t in got] == \
            [(k, t is None) for k, t in want]
        assert table_bits(beta_dynamics._state_table(ctx, n)) == \
            table_bits(orbit_reference.state_table(ctx, n))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
               # orbits that close by a snap, a ghost or an integer
               st.sampled_from([PHI, 1 + 2**-52, 2.0, 7.0, 8.0, 1.0001]),
               st.floats(min_value=1.0, max_value=8.0, exclude_min=True)),
           st.integers(min_value=1, max_value=400),
           st.sampled_from([None, 20, 30]))
    def test_matches_exact_orbit(self, beta, n, dps):
        self.check(beta_dynamics._Ctx(BetaParam(beta, dps=dps)), n)

    def test_restarts_match_exact_orbit(self, monkeypatch, caplog):
        # no guard bits: the error of t_j grows like j * beta**j (near
        # beta = 1 like j), and a digit or snap the interval cannot decide
        # restarts the orbit; with no bits for the working precision
        # either, so do lengths.  The last four are floats near the Pisot
        # roots of x**3 - x**2 - 1 and x**2 - x - 1, whose orbits come
        # within the interval's width of the full threshold (one full, one
        # not), of an integer, or of the ghost threshold (a ghost 7e-13
        # above 1, from beta = phi + 7e-13 / sqrt(5)).
        monkeypatch.setattr(beta_dynamics, "_GUARD_BITS", 0)
        caplog.set_level(logging.DEBUG, logger=beta_dynamics.__name__)
        orbits = tables = 0
        for beta, dps, n in [(1.0001, None, 50), (1.0001, 30, 200),
                             (1.4655712318767677, 20, 33),
                             (1.4655712318767657, 20, 31),
                             (1.6180339887498985, 20, 57),
                             (1.618033988750208, None, 48)]:
            ctx = beta_dynamics._Ctx(BetaParam(beta, dps=dps))
            ctx.prec = 0
            assert list(beta_dynamics._orbit(ctx, n)) == [
                (k, None if t is None else True)
                for k, t in orbit_reference.orbit(ctx, n)]
            orbits += restarts(caplog)
            assert table_bits(beta_dynamics._state_table(ctx, n)) == \
                table_bits(orbit_reference.state_table(ctx, n))
            tables += restarts(caplog)
        assert orbits >= 6 and tables >= 3


class TestFindFull:
    """The first full cylinder inside I with length in
    (|I|**(1+delta), |I|], from the library's windowed walk."""

    def test_dyadic_window(self):
        # the lemma's hypotheses fail for this interval; the scan still
        # succeeds and the outcome is pinned by the independent oracle
        word, left, image_length, _ = first_full_inside(
            2, Interval(0.3, 0.45), 0.5)
        assert word == (0, 1, 0, 1)
        assert left == 0.3125
        assert image_length == 1

    def test_exact_fit(self):
        # length 2**-3 meets no n0 of the lemma, but the scan admits the
        # exact fit at its own level
        assert first_full_inside(2, Interval(0.0, 0.125), 0.5)[0] == \
            (0, 0, 0)

    def test_golden_interval(self):
        word, _, image_length, node_length = first_full_inside(
            PHI, Interval(0.2, 0.35), 1)
        assert word == (0, 0, 1, 0, 0)
        assert image_length == 1
        length = 0.15
        assert length ** 2 < node_length <= length

    def test_valid_params_no_warning(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            _, left, image_length, node_length = first_full_inside(
                2, Interval(0.300001, 0.3003), 0.5)
        assert image_length == 1
        assert 0.300001 <= left and left + node_length <= 0.3003

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_a_scan_of_unwindowed_walks(self, data):
        # the first full cylinder inside I over the same level window, in
        # level then lexicographic order, from the per-node reference walk
        beta = data.draw(st.floats(1.3, 4.0))
        delta = data.draw(st.floats(0.05, 2.0))
        # |I|**(1+delta) >= 1/4000 keeps every scanned level small, and
        # below 4000**-0.3 most windows hold a level
        length = 4000.0 ** (-data.draw(st.floats(0.3, 1.0)) / (1 + delta))
        left = data.draw(st.one_of(
            st.just(0.0), st.just(1.0 - length),
            st.floats(0.0, 1.0 - length)))
        I = Interval(left, min(1.0, left + length))
        levels = [m for m in range(1, 40)
                  if I.length ** (1 + delta) < beta ** -m
                  <= I.length * (1 + 1e-12)]
        want = [x for m in levels
                for x in cylinder_reference.orbit_walk(beta, m, only_full=True)
                if x[1] >= I.left and (x[1] + x[3] <= I.right or I.right >= 1)]
        assert first_full_inside(beta, I, delta) == \
            (want[0] if want else None)


def full_inside(beta, I, n):
    """The number of full level-n cylinders inside I, from the walk."""
    return sum(len(b.lefts) for b in cylinder_blocks(
        beta, n, only_full=True, within=I))


class TestCountFullInInterval:
    def test_whole_interval_dyadic(self):
        assert full_inside(2, Interval(0, 1), 3) == 8

    def test_ternary_grid(self):
        # exact grid arithmetic: levels [k/81, (k+1)/81) inside [0.1, 0.35)
        # are k = 9..27, nineteen of them
        assert full_inside(3, Interval(0.1, 0.35), 4) == 19

    def test_golden_small_interval(self):
        count = full_inside(PHI, Interval(0, 0.2), 8)
        assert count == 6
        assert count >= C_PHI * 0.2**2 * PHI**8

    def test_preconditions_hold_dyadic(self):
        # the lemma's preconditions hold at delta = 0.5, and the count
        # meets its bound c |I|**(1+delta) beta**n with c = 1
        I = Interval(0.5, 0.5 + 2**-12)
        n = 20  # comfortably above (1+delta) * log2 |I|
        count = full_inside(2, I, n)
        assert count == 2**8
        assert count >= I.length ** 1.5 * 2 ** n


class TestExtendedPrecision:
    def test_smallest_dps(self):
        param = BetaParam(1.5, dps=6)
        assert len(list(enumerate_cylinders(param, 10))) == 90
        assert count_admissible(param, 10) == 90

    def test_transform_mpf(self):
        import mpmath

        with mpmath.workdps(50):
            beta = BetaParam(mpmath.mpf(2), dps=50)
            y = transform(beta, mpmath.mpf("0.625"))
            assert y == mpmath.mpf("0.25")

    def test_enumerate_matches_float_path(self):
        import mpmath

        with mpmath.workdps(40):
            beta = BetaParam((1 + mpmath.sqrt(5)) / 2, dps=40)
        words_mp = [n.word for n in enumerate_cylinders(beta, 6)]
        words_float = [n.word for n in enumerate_cylinders(PHI, 6)]
        assert words_mp == words_float


betas = st.sampled_from([2.0, PHI, 2.5, math.e, 3.0, 1.3, 3.7])


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(betas, st.floats(min_value=0, max_value=1, exclude_max=True),
           st.integers(min_value=1, max_value=8))
    def test_digits_locate_the_point(self, beta, x, n):
        word = digits(beta, x, n)
        node = cylinder_of_word(beta, word)
        assert node is not None
        assert node[1] <= x
        assert x < node[1] + node[3] + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(betas, st.floats(min_value=0, max_value=1, exclude_max=True),
           st.integers(min_value=1, max_value=10))
    def test_digit_reconstruction(self, beta, x, n):
        word = digits(beta, x, n)
        approx = sum(k * beta ** -(i + 1) for i, k in enumerate(word))
        assert 0 <= x - approx < beta ** -n + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(betas, st.integers(min_value=2, max_value=6))
    def test_children_partition_parent(self, beta, n):
        parents = {p.word: p for p in enumerate_cylinders(beta, n - 1)} \
            if n > 1 else {(): None}
        children: dict = {}
        for node in enumerate_cylinders(beta, n):
            children.setdefault(node.word[:-1], []).append(node)
        for pword, kids in children.items():
            kids.sort(key=lambda c: c.word)
            for a, b in zip(kids, kids[1:]):
                assert b.left == pytest.approx(a.right, abs=1e-12)
            if n > 1:
                parent = parents[pword]
                assert kids[0].left == pytest.approx(parent.left, abs=1e-12)
                assert kids[-1].right == pytest.approx(parent.right, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(betas, st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=5), st.data())
    def test_full_concatenation(self, beta, n, m, data):
        fulls = list(enumerate_cylinders(beta, n, only_full=True))
        others = list(enumerate_cylinders(beta, m))
        u = data.draw(st.sampled_from(fulls))
        v = data.draw(st.sampled_from(others))
        uv = cylinder_of_word(beta, u.word + v.word)
        assert uv is not None
        assert uv[2] == v.image_length
        assert uv[3] == pytest.approx(u.length * v.length, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(betas, st.integers(min_value=1, max_value=9))
    def test_length_identity(self, beta, n):
        for node in enumerate_cylinders(beta, n):
            assert node.length == pytest.approx(
                node.image_length * beta ** -n, rel=1e-9)
            assert node.full == (node.length == pytest.approx(beta ** -n, rel=1e-9))

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1.05, max_value=4.0), st.integers(1, 7))
    def test_random_beta_counts_consistent(self, beta, n):
        nodes = list(enumerate_cylinders(beta, n))
        assert count_admissible(beta, n) == len(nodes)
        assert math.ceil(beta - 1) == max(
            max(node.word) for node in nodes)
