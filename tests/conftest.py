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

from fullgroup.backends import full_shift, odometer, word_value
from fullgroup.clopen import ClopenSet, PointName
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


def apply_piece(piece, word, base: int):
    """Exact image word of the cylinder [word], which must lie inside the
    piece's source."""
    if word[: len(piece.source)] != piece.source:
        raise PreconditionError(
            f"cylinder {word} not contained in piece source {piece.source}")
    return piece.restrict(word[len(piece.source):]).range_word(base)


def _acting_piece(elem, w):
    for p in elem.pieces:
        s = p.source
        if len(s) <= len(w) and w[: len(s)] == s:
            return p
    raise AssertionError("element sources do not cover the word")


def oracle_equal(f, g) -> bool:
    """Pointwise equality of two elements, independent of canonical forms.

    Both elements are refined to their common source depth; every
    cylinder at that depth is pushed through the piece acting on it and
    the image words are compared.  On the odometer the image of the
    eventually-zero point of the cylinder is compared as an exact base-b
    integer, which pins down the carry into the tail.
    """
    if f.backend != g.backend:
        return False
    base = f.base
    depth = max(max(len(p.source) for p in f.pieces),
                max(len(p.source) for p in g.pieces), 1)
    for w in itertools.product(range(base), repeat=depth):
        pf = _acting_piece(f, w)
        pg = _acting_piece(g, w)
        if apply_piece(pf, w, base) != apply_piece(pg, w, base):
            return False
        if f.backend.is_odometer:
            value = word_value(w, base)
            if value + pf.power != value + pg.power:
                return False
    return True


def overlapping_pairing(backend, S, T, **_):
    """A broken stand-in for `backends.pair_cylinders`: every cylinder of
    S at the common depth is mapped onto the first cylinder of T there,
    so the ranges overlap whenever S has two or more."""
    depth = max(S.max_depth(), T.max_depth())
    v = T.refine_to(depth)[0]
    return [backend.piece_between(u, v) for u in S.refine_to(depth)]


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


def odometer_point_value(point: PointName, digits: int) -> int:
    """Base-b value of the first `digits` digits, for hand-check math."""
    return word_value(point.prefix(digits), point.base)


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
    return odometer(base) if request.param == "odometer" else full_shift(base)


@pytest.fixture
def odo2():
    return odometer(2)


@pytest.fixture
def shift2():
    return full_shift(2)
