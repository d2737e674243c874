"""The two concrete ample groupoid models on the Cantor set.

* Odometer: the "+1 with carry" action of the integers on {0,..,b-1}^N
  read as base-b integers, least-significant digit first.  A piece
  (u, n) is the restriction of "add n" to the cylinder [u]; its image is
  the same-depth cylinder of (value(u) + n) mod b**|u| and the leftover
  carry propagates into the tail.  Uniquely ergodic: the Bernoulli
  measure is the single invariant measure.

* Full shift: prefix-rewrite pieces u.y -> v.y of arbitrary lag
  |u| - |v|.  No invariant probability measure exists, so comparison of
  clopen sets is unconditional.

Every rule that differs between the two models lives here: the piece
classes carry the per-piece rules (range, restriction, inverse,
composition, sibling merge, action on points), and `BackendId` builds
pieces and states the comparison hypothesis.  Both models are minimal
and second countable; this is a documented fact about the models, not a
runtime check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .clopen import (ClopenSet, Cylinder, PointName, Word, is_prefix,
                     overlapping_pair)
from .errors import MalformedInput, PostconditionError, PreconditionError

ODOMETER = "odometer"
FULL_SHIFT = "full-shift"

UNIQUE_ERGODIC = "unique-ergodic"
NO_INVARIANT_MEASURE = "empty"


@dataclass(frozen=True)
class BackendId:
    kind: str
    base: int

    def __post_init__(self):
        if self.kind not in (ODOMETER, FULL_SHIFT):
            raise MalformedInput(f"unknown groupoid kind {self.kind!r}")
        if self.base < 2:
            raise MalformedInput(f"base must be >= 2, got {self.base}")

    @property
    def is_odometer(self) -> bool:
        return self.kind == ODOMETER

    @property
    def measure_class(self) -> str:
        return UNIQUE_ERGODIC if self.is_odometer else NO_INVARIANT_MEASURE

    @property
    def tag(self) -> str:
        return ("odo" if self.is_odometer else "shift") + str(self.base)

    def __str__(self):
        return self.tag

    def piece_between(self, u: Word, v: Word) -> "Piece":
        """The piece mapping [u] onto [v]: the identity when u == v, a
        carry-free translation between same-depth cylinders on the
        odometer, the prefix rewrite u.y -> v.y on the shift."""
        if not self.is_odometer:
            return ShiftPiece(u, v)
        if len(u) != len(v):
            raise PreconditionError(
                f"odometer pieces keep the depth: {u} and {v} differ in length")
        return OdometerPiece(u, word_value(v, self.base) - word_value(u, self.base))

    def check_sets(self, A: ClopenSet, B: ClopenSet) -> None:
        """Reject clopen sets over another base than the backend's."""
        if A.base != self.base or B.base != self.base:
            raise MalformedInput("clopen sets do not match the backend base")

    def measure_below(self, A: ClopenSet, B: ClopenSet, factor: int = 1) -> bool:
        """The comparison hypothesis factor * mu(A) < mu(B) for every
        invariant probability measure mu; vacuously true on the shift."""
        return not self.is_odometer or factor * A.volume() < B.volume()

    def measure_equal(self, A: ClopenSet, B: ClopenSet) -> bool:
        """mu(A) = mu(B) for every invariant probability measure mu;
        vacuously true on the shift."""
        return not self.is_odometer or A.measure() == B.measure()


def odometer(base: int) -> BackendId:
    return BackendId(ODOMETER, base)


def full_shift(base: int) -> BackendId:
    return BackendId(FULL_SHIFT, base)


@dataclass(frozen=True)
class OdometerPiece:
    """Restriction of "add n in base b" to the source cylinder."""

    source: Word
    power: int

    def is_identity(self) -> bool:
        return self.power == 0

    def range_word(self, base: int) -> Word:
        return _odometer_range_word(self.source, self.power, base)

    def restrict(self, tail: Word) -> "OdometerPiece":
        """The same map on the sub-cylinder [source.tail]."""
        return OdometerPiece(self.source + tail, self.power)

    def inverse(self, base: int) -> "OdometerPiece":
        return OdometerPiece(self.range_word(base), -self.power)

    def after(self, inner: "OdometerPiece") -> "OdometerPiece":
        """self o inner, for an inner piece whose range lies in the source."""
        return OdometerPiece(inner.source, inner.power + self.power)

    @staticmethod
    def merge_siblings(parent: Word,
                       family: Sequence["OdometerPiece"]) -> "OdometerPiece | None":
        """One piece on [parent] for a complete sorted sibling family, or
        None: the powers must agree."""
        power = family[0].power
        if any(p.power != power for p in family[1:]):
            return None
        return OdometerPiece(parent, power)

    def image_point(self, point: PointName, base: int) -> PointName:
        """Image of a point of the source: the carry of value(source) +
        power propagates into the tail."""
        d = len(self.source)
        carry = (word_value(self.source, base) + self.power) // base ** d
        return point.drop(d).add_integer(carry).prepend(self.range_word(base))

    def separated_word(self, base: int) -> Word:
        """A word extending the source whose cylinder the piece moves off
        itself (power nonzero): the shallowest one along the 0 digits."""
        word = self.source
        while self.power % base ** len(word) == 0:
            word = word + (0,)
        return word


@dataclass(frozen=True)
class ShiftPiece:
    """Prefix rewrite source.y -> target.y (lengths may differ)."""

    source: Word
    target: Word

    def is_identity(self) -> bool:
        return self.source == self.target

    def range_word(self, base: int) -> Word:
        return self.target

    def restrict(self, tail: Word) -> "ShiftPiece":
        """The same map on the sub-cylinder [source.tail]."""
        return ShiftPiece(self.source + tail, self.target + tail)

    def inverse(self, base: int) -> "ShiftPiece":
        return ShiftPiece(self.target, self.source)

    def after(self, inner: "ShiftPiece") -> "ShiftPiece":
        """self o inner, for an inner piece whose range lies in the source."""
        return ShiftPiece(inner.source,
                          self.target + inner.target[len(self.source):])

    @staticmethod
    def merge_siblings(parent: Word,
                       family: Sequence["ShiftPiece"]) -> "ShiftPiece | None":
        """One piece on [parent] for a complete sorted sibling family, or
        None: every target must end in its source's last digit after a
        common stem."""
        if any(not p.target or p.target[-1] != p.source[-1] for p in family):
            return None
        stem = family[0].target[:-1]
        if any(p.target[:-1] != stem for p in family[1:]):
            return None
        return ShiftPiece(parent, stem)

    def image_point(self, point: PointName, base: int) -> PointName:
        """Image of a point of the source: the prefix is rewritten."""
        return point.drop(len(self.source)).prepend(self.target)

    def separated_word(self, base: int) -> Word:
        """A child of the source whose cylinder the piece moves off itself
        (source != target).  When one of source and target extends the
        other, the child's digit after the shorter one disagrees with the
        image; otherwise source and target are disjoint and the first
        child serves."""
        u, v = self.source, self.target
        if is_prefix(u, v) and u != v:
            return u + (((v[len(u)] + 1) % base),)
        if is_prefix(v, u):
            return u + (((u[len(v)] + 1) % base),)
        return u + (0,)


Piece = Union[OdometerPiece, ShiftPiece]


def word_value(word: Word, base: int) -> int:
    """Base-b integer value, least-significant digit first."""
    value = 0
    for d in reversed(word):
        value = value * base + d
    return value


def value_word(value: int, depth: int, base: int) -> Word:
    out = []
    for _ in range(depth):
        value, digit = divmod(value, base)
        out.append(digit)
    return tuple(out)


@lru_cache(maxsize=1 << 18)
def _odometer_range_word(source: Word, power: int, base: int) -> Word:
    d = len(source)
    return value_word((word_value(source, base) + power) % base ** d, d, base)


def apply_piece(piece: Piece, cyl: Cylinder) -> Cylinder:
    """Exact image of a cylinder contained in the piece's source."""
    if not is_prefix(piece.source, cyl.word):
        raise PreconditionError(
            f"cylinder {cyl.word} not contained in piece source {piece.source}")
    sub = piece.restrict(cyl.word[len(piece.source):])
    return Cylinder(cyl.base, sub.range_word(cyl.base))


def refine_piece_to(piece: Piece, depth: int, base: int) -> list[Piece]:
    """Sub-pieces with sources of exactly max(depth, current) digits."""
    d = len(piece.source)
    if depth <= d:
        return [piece]
    return [piece.restrict(t) for t in itertools.product(range(base), repeat=depth - d)]


@dataclass(frozen=True)
class Bisection:
    """A compact open bisection given by finitely many pieces."""

    backend: BackendId
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        want = OdometerPiece if self.backend.is_odometer else ShiftPiece
        for p in self.pieces:
            if not isinstance(p, want):
                raise MalformedInput(
                    f"piece {p!r} does not belong to backend {self.backend.tag}")

    @property
    def base(self) -> int:
        return self.backend.base

    def source_words(self) -> tuple[Word, ...]:
        return tuple(p.source for p in self.pieces)

    def range_words(self) -> tuple[Word, ...]:
        return tuple(p.range_word(self.base) for p in self.pieces)


@dataclass(frozen=True)
class Violation:
    which: str           # "source" | "range"
    first: Word
    second: Word

    def __str__(self):
        return f"{self.which} cylinders overlap: {self.first} vs {self.second}"


def validate_bisection(bis: Bisection) -> Violation | None:
    """None if sources and ranges are both pairwise disjoint, else the
    first offending pair."""
    pair = overlapping_pair(bis.source_words())
    if pair is not None:
        return Violation("source", *pair)
    pair = overlapping_pair(bis.range_words())
    if pair is not None:
        return Violation("range", *pair)
    return None


def check_bisection(bis: Bisection) -> Bisection:
    violation = validate_bisection(bis)
    if violation is not None:
        raise MalformedInput(f"invalid bisection: {violation}")
    return bis


def source_range(bis: Bisection) -> tuple[ClopenSet, ClopenSet]:
    return (ClopenSet.from_words(bis.base, bis.source_words()),
            ClopenSet.from_words(bis.base, bis.range_words()))


def refine_bisection(bis: Bisection, depth: int) -> Bisection:
    pieces: list[Piece] = []
    for p in bis.pieces:
        pieces.extend(refine_piece_to(p, depth, bis.base))
    return Bisection(bis.backend, tuple(pieces))


def pair_cylinders(backend: BackendId, S: ClopenSet, T: ClopenSet, *,
                   onto: bool = False) -> list[Piece]:
    """Odometer pairing: S and T are refined to their common depth and
    their cylinders matched in lexicographic order by carry-free
    translations.  Pairs all of S when mu(S) < mu(T); with `onto` the
    measures are equal and the ranges must fill T exactly."""
    depth = max(S.max_depth(), T.max_depth())
    src = S.refine_to(depth)
    dst = T.refine_to(depth)
    if onto and len(src) != len(dst):
        raise PostconditionError("equal measures must refine to equal counts")
    return [backend.piece_between(u, v) for u, v in zip(src, dst)]


def _suffix_length(count: int, base: int) -> int:
    """Length of the disjointness suffixes for shift comparison witnesses."""
    width = 1
    while base ** width < count:
        width += 1
    return width


def compare_clopen(backend: BackendId, A: ClopenSet, B: ClopenSet) -> Bisection:
    """A bisection U with source exactly A and range inside B.

    Odometer: requires the exact measure inequality mu(A) < mu(B); both
    sets are refined to a common depth and cylinders are matched
    injectively in lexicographic order by carry-free translation pieces.

    Full shift: unconditional (no invariant measure); every source
    cylinder is rewritten into the picked cylinder of B with a distinct
    fixed-length suffix, assigned in counting order.
    """
    backend.check_sets(A, B)
    if B.is_empty():
        raise PreconditionError("comparison target must be nonempty")
    if A.is_empty():
        return Bisection(backend, ())
    if not backend.measure_below(A, B):
        raise PreconditionError(
            f"comparison unavailable: mu(A)={A.measure()} is not below mu(B)={B.measure()}")
    if backend.is_odometer:
        pieces = pair_cylinders(backend, A, B)
    else:
        v = B.pick().word
        sources = sorted(A.words)
        width = _suffix_length(len(sources), backend.base)
        pieces = [backend.piece_between(u, v + value_word(i, width, backend.base)[::-1])
                  for i, u in enumerate(sources)]
    return check_bisection(Bisection(backend, tuple(pieces)))
