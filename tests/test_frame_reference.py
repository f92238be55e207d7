"""The planned pivot scan against the scan it replaced
(``tests/frame_reference.py``), bit for bit: permutation, log2 norms
and U, and DegenerateInputError in the same cases with the same message,
on drawn matrices and on a seeded sweep of Gaussian ones.

Matrices are drawn as diag(2^r) M diag(2^c) with row and column scales r,
c spanning +-1000 binary orders, so that no entry leaves float range only
through its log2 magnitude.  Entries of M include exact zeros (sign 0,
magnitude -inf), -inf magnitudes under a nonzero sign, small integer
magnitudes (exact pivot ties), and columns copied from another column
with some signs flipped (ties in norm) or not (dependent columns).
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beta_targets.errors import DegenerateInputError
from beta_targets.parallelepiped_geometry import OrthoFrame, _pivot_scan
import frame_reference as ref

# small scales too, where the last bits of a log2 norm survive
_SCALE = st.one_of(st.just(0.0), st.floats(-4.0, 4.0),
                   st.floats(-1000.0, 1000.0))
_MODERATE = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3).map(float),
                      st.just(-math.inf))
_SIGN = st.sampled_from((-1.0, 1.0, 1.0, 0.0))


@st.composite
def scaled_matrices(draw):
    d = draw(st.integers(1, 4))
    r = draw(st.lists(_SCALE, min_size=d, max_size=d))
    c = draw(st.lists(_SCALE, min_size=d, max_size=d))
    signs = [[draw(_SIGN) for _ in range(d)] for _ in range(d)]
    logs = [[draw(_MODERATE) for _ in range(d)] for _ in range(d)]
    # column j copies column i up to some sign flips (i < j)
    for j in range(1, d):
        if draw(st.booleans()):
            i = draw(st.integers(0, j - 1))
            for row in range(d):
                flip = -1.0 if draw(st.booleans()) else 1.0
                signs[row][j] = flip * signs[row][i]
                logs[row][j] = logs[row][i]
    logs = [[x + r[i] + c[j] for j, x in enumerate(row)]
            for i, row in enumerate(logs)]
    return signs, logs


def _bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def _outcome(run):
    try:
        return run(), None
    except (DegenerateInputError, OverflowError) as exc:
        return None, (type(exc), str(exc))


def _assert_same_frame(signs, logs):
    old, old_err = _outcome(lambda: ref._pivot_scan(signs, logs))
    new, new_err = _outcome(lambda: ref.scaled_frame(signs, logs))
    assert old_err == new_err
    if old_err is not None:
        return
    permutation, log2_norms, steps = old
    assert new.permutation == permutation
    assert _bits(new.log2_norms) == _bits(log2_norms)
    old_u, old_u_err = _outcome(lambda: ref.frame_u(permutation, steps))
    new_u, new_u_err = _outcome(lambda: new.U)
    assert old_u_err == new_u_err
    if old_u_err is None:
        assert new_u.tobytes() == old_u.tobytes()


@settings(max_examples=400, deadline=None)
@given(scaled_matrices())
def test_planned_scan_matches_reference(matrix):
    _assert_same_frame(*matrix)


def _seeded_matrices(count=600):
    """Gaussian matrices, half of them scaled by +-1000 binary orders per
    row and column, some with exact zeros: generic last bits, which the
    drawn matrices above, built from simple values, seldom have."""
    rng = np.random.default_rng(17)
    for k in range(count):
        d = 1 + k % 4
        m = rng.standard_normal((d, d))
        m[rng.random((d, d)) < 0.1] = 0.0
        with np.errstate(divide="ignore"):
            logs = np.log2(np.abs(m))
        if k % 2:
            logs += rng.uniform(-1000.0, 1000.0, (d, 1))
            logs += rng.uniform(-1000.0, 1000.0, (1, d))
        yield np.sign(m).tolist(), logs.tolist()


def test_seeded_matrices_match_reference():
    for signs, logs in _seeded_matrices():
        _assert_same_frame(signs, logs)


@settings(max_examples=100, deadline=None)
@given(scaled_matrices())
def test_array_and_list_inputs_agree(matrix):
    # the CLI and the families pass lists, pivoted_orthogonalize arrays
    signs, logs = matrix
    a, a_err = _outcome(lambda: ref.scaled_frame(signs, logs))
    b, b_err = _outcome(lambda: ref.scaled_frame(
        np.array(signs), np.array(logs)))
    assert a_err == b_err
    if a_err is None:
        assert a.permutation == b.permutation
        assert _bits(a.log2_norms) == _bits(b.log2_norms)


# where the scan core's shortcuts and their guards act: exact zeros,
# -0.0 magnitudes, signs other than +-1, and logs near +-1e308, whose
# sums and doubles leave float range (the non-finite path)
_EDGE_SIGN = st.sampled_from((-1.0, 1.0, 1.0, 0.0, -0.0, 2.0, -0.5))
_EDGE_LOG = st.one_of(
    st.just(-0.0), st.just(0.0), st.just(-math.inf),
    st.integers(-3, 3).map(float), st.floats(-4.0, 4.0),
    st.floats(1e307, 1.7e308), st.floats(-1.7e308, -1e307))


@st.composite
def edge_matrices(draw):
    """Matrices of up to four columns whose entries are exact zeros with
    a drawn probability, so that many minors keep one nonzero term."""
    d = draw(st.integers(1, 4))
    zero = draw(st.sampled_from((0.0, 0.3, 0.6)))
    signs, logs = [], []
    for _ in range(d):
        signs.append([]), logs.append([])
        for _ in range(d):
            if draw(st.floats(0.0, 1.0)) < zero:
                signs[-1].append(0.0), logs[-1].append(-math.inf)
            else:
                signs[-1].append(draw(_EDGE_SIGN))
                logs[-1].append(draw(_EDGE_LOG))
    return signs, logs


@settings(max_examples=400, deadline=None)
@given(edge_matrices())
def test_scan_core_matches_reference(matrix):
    # the core that s_n reads, without the frame around it
    signs, logs = matrix
    old, old_err = _outcome(lambda: ref._pivot_scan(signs, logs))
    new, new_err = _outcome(lambda: _pivot_scan(signs, logs))
    assert old_err == new_err
    if old_err is not None:
        return
    assert new[0] == old[0]
    assert _bits(new[1]) == _bits(old[1])
    old_u, old_u_err = _outcome(lambda: ref.frame_u(old[0], old[2]))
    new_u, new_u_err = _outcome(lambda: OrthoFrame(*new).U)
    assert old_u_err == new_u_err
    if old_u_err is None:
        assert new_u.tobytes() == old_u.tobytes()
