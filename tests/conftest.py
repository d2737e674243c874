"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own canonical-form
machinery: clopen sets are compared through brute-force bitmaps at a
common refinement depth, and elements through their pointwise action on
all cylinders of a common depth plus designated eventually-zero points.
"""

from __future__ import annotations

import itertools
import signal

import pytest

from fullgroup.backends import FullShift, Odometer, Piece
from fullgroup.clopen import ClopenSet
from fullgroup.errors import PreconditionError


def bitmap(words, base: int, depth: int) -> frozenset:
    """All depth-`depth` words whose cylinder lies inside the union of
    the given cylinder words."""
    out = set()
    for w in itertools.product(range(base), repeat=depth):
        for u in words:
            if len(u) <= depth and w[: len(u)] == u:
                out.add(w)
                break
    return frozenset(out)


def clopen_bitmap(A: ClopenSet, depth: int) -> frozenset:
    return bitmap(A.words, A.base, depth)


def same_set(A: ClopenSet, B: ClopenSet) -> bool:
    depth = max(A.max_depth(), B.max_depth(), 1)
    return clopen_bitmap(A, depth) == clopen_bitmap(B, depth)


def word_int(word, base: int) -> int:
    """Base-b value of a word read least-significant digit first, by
    Python's own integer parser (bases 2..10)."""
    return int("".join(map(str, reversed(word))) or "0", base)


def int_word(value: int, depth: int, base: int):
    """The `depth` digits of value mod base**depth, least significant first."""
    digits = []
    for _ in range(depth):
        value, digit = divmod(value, base)
        digits.append(digit)
    return tuple(digits)


def piece_image(piece, word, base: int):
    """Image of the cylinder [word] inside the piece's source, with what
    the map adds to the tail after it, by whole-integer arithmetic on the
    two models' semantics: a piece that keeps the depth is (u;+n) with
    n = value(v) - value(u) + c*b^|u|, which adds n to value(word) mod
    b^|word| and carries the quotient; any other is the prefix rewrite
    (u>v), which carries nothing."""
    u, v, c = piece.source, piece.target, piece.carry
    if word[: len(u)] != u:
        raise PreconditionError(f"cylinder {word} not contained in piece source {u}")
    if len(u) == len(v):
        total = word_int(word, base) + word_int(v, base) - word_int(u, base) + c * base ** len(u)
        return int_word(total, len(word), base), total // base ** len(word)
    if c:
        raise AssertionError(f"no model has the piece {piece}")
    return v + word[len(u):], 0


def apply_piece(piece, word, base: int):
    """Exact image word of the cylinder [word], which must lie inside the
    piece's source."""
    return piece_image(piece, word, base)[0]


def _acting_piece(elem, w):
    for p in elem.pieces:
        s = p.source
        if len(s) <= len(w) and w[: len(s)] == s:
            return p
    raise AssertionError("element sources do not cover the word")


def element_image(elem, word):
    """`piece_image` of [word] under the piece of elem whose source
    contains it."""
    return piece_image(_acting_piece(elem, word), word, elem.base)


def oracle_equal(f, g) -> bool:
    """Pointwise equality of two elements, independent of canonical forms.

    Both elements are refined to their common source depth; every
    cylinder at that depth is pushed through the piece acting on it, and
    the image words, with what each map adds to the tail after them, are
    compared: together they pin the map on the cylinder.
    """
    if f.backend != g.backend:
        return False
    depth = max(max(len(p.source) for p in f.pieces),
                max(len(p.source) for p in g.pieces), 1)
    return all(element_image(f, w) == element_image(g, w)
               for w in itertools.product(range(f.base), repeat=depth))


def overlapping_pairing(backend, S, T, **_):
    """A broken stand-in for `backends.pair_cylinders`: every cylinder of
    S at the common depth is mapped onto the first cylinder of T there,
    so the ranges overlap whenever S has two or more."""
    depth = max(S.max_depth(), T.max_depth())
    v = T.refine_to(depth)[0]
    return [Piece(u, v) for u in S.refine_to(depth)]


def first_range_emptied(source_range):
    """A broken stand-in for `source_range` in `transfers`: the first
    witness reports an empty range, so the intertwining's second round
    keeps the first round's range in its target and its comparison is
    refused."""
    calls = []

    def emptied(witness):
        calls.append(witness)
        source, image = source_range(witness)
        return (source, ClopenSet.empty(image.base)) if len(calls) == 1 else (source, image)

    return emptied


# Above the largest acceptance budget (120 s), so a near hang, such as a
# compose that stops merging, fails its test instead of stalling the run.
TEST_TIME_LIMIT_S = 180


def _over_time(signum, frame):
    pytest.fail(f"test ran over {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail any test that runs over TEST_TIME_LIMIT_S, by a SIGALRM
    real-time timer (pytest runs tests on the main thread)."""
    previous = signal.signal(signal.SIGALRM, _over_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[2, 3], ids=["b2", "b3"])
def base(request):
    return request.param


@pytest.fixture(params=["odometer", "shift"], ids=["odo", "shift"])
def backend(request, base):
    return Odometer(base) if request.param == "odometer" else FullShift(base)


@pytest.fixture
def odo2():
    return Odometer(2)


@pytest.fixture
def shift2():
    return FullShift(2)
