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

A backend is its model class, `Odometer` or `FullShift`: a frozen
subclass of `BackendId`, whose one field is the base.  The piece classes
carry the per-piece rules (range, restriction, inverse, composition, the
pull-back of a run of pieces, sibling merge, action on points, a
separated sub-cylinder).  A model class builds pieces (`piece_between`),
states the comparison hypothesis (`measure_below`, `measure_equal`:
vacuous on the shift), gives the depth below which cylinders have small
measure (`measure_depth`) and the cylinder a transfer keeps free
(`reserved_cylinder`), and pairs cylinders into a set (`pair_into`, for
`compare_clopen`) and onto one (`pair_onto`, for the exact swap and the
odometer decomposition).  `validate_bisection` asks the one overlap
rule, `clopen.check_cylinders`.  The algorithm choices that still ask
`is_odometer` live with their algorithms: the small-support
decomposition (`decompose`), the closure parking set (`certificates`),
piece syntax (`encoding`) and the samplers (`randomize`).  Both models
are minimal and second countable; this is a documented fact about the
models, not a runtime check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import ClassVar, Iterable, Sequence, Union

from .clopen import (ClopenSet, PointName, Word, check_cylinders, depth_for_measure_below,
                     expand_word, is_prefix, word_key)
from .errors import MalformedInput, PostconditionError, PreconditionError

_source = attrgetter("source")


@dataclass(frozen=True)
class BackendId:
    """A model over base-`base` sequences; equal only within one class."""

    base: int

    prefix: ClassVar[str]
    piece: ClassVar[type]
    is_odometer: ClassVar[bool]

    def __post_init__(self):
        if self.base < 2:
            raise MalformedInput(f"base must be >= 2, got {self.base}")

    @property
    def tag(self) -> str:
        return self.prefix + str(self.base)

    def __str__(self):
        return self.tag

    def check_pieces(self, pieces: Iterable["Piece"]) -> None:
        """Reject pieces of the other backend's piece class."""
        for p in pieces:
            if not isinstance(p, self.piece):
                raise MalformedInput(f"piece {p!r} does not belong to backend {self.tag}")

    def check_sets(self, A: ClopenSet, B: ClopenSet) -> None:
        """Reject clopen sets over another base than the backend's."""
        for S in (A, B):
            if S.base != self.base:
                raise MalformedInput(
                    f"clopen base {S.base} does not match backend {self.tag}")


@dataclass(frozen=True)
class OdometerPiece:
    """Restriction of "add n in base b" to the source cylinder."""

    source: Word
    power: int

    def is_identity(self) -> bool:
        return self.power == 0

    def range_word(self, base: int) -> Word:
        """Add power digit by digit from the least significant end; the
        carry out of the last digit is dropped (the sum is taken mod
        base**depth), and the digits above the one where the carry
        reaches 0 are copied."""
        out = list(self.source)
        carry = self.power
        for i in range(len(out)):
            if carry == 0:
                break
            carry, out[i] = divmod(out[i] + carry, base)
        return tuple(out)

    def restrict(self, tail: Word) -> "OdometerPiece":
        """The same map on the sub-cylinder [source.tail]."""
        return OdometerPiece(self.source + tail, self.power)

    def inverse(self, base: int) -> "OdometerPiece":
        return OdometerPiece(self.range_word(base), -self.power)

    def after(self, inner: "OdometerPiece") -> "OdometerPiece":
        """self o inner, for an inner piece whose range lies in the source."""
        return OdometerPiece(inner.source, inner.power + self.power)

    def pull_back(self, run: Sequence["OdometerPiece"],
                  base: int) -> list["OdometerPiece"]:
        """q o self on the preimage of each q.source, sorted by source, for
        a sorted run of pieces whose sources partition the range [v].  The
        piece maps [source.y] to [v.(y + c)] with c its carry, so the
        preimage of [v.s] is [source.s'] with s' = s - c mod b^|s|: the
        tails are rotated by c, which breaks their order unless c = 0."""
        d = len(self.source)
        carry = self.carry(base)
        pieces = [OdometerPiece(
            self.source + OdometerPiece(q.source[d:], -carry).range_word(base),
            self.power + q.power) for q in run]
        return sorted(pieces, key=_source) if carry else pieces

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
        return point.drop(d).add_integer(self.carry(base)).prepend(self.range_word(base))

    def carry(self, base: int) -> int:
        """What adding power to value(source) carries into the tail."""
        return (word_value(self.source, base) + self.power) // base ** len(self.source)

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

    def pull_back(self, run: Sequence["ShiftPiece"], base: int) -> list["ShiftPiece"]:
        """q o self on the preimage of each q.source, for a sorted run of
        pieces whose sources partition the range [target]: the preimage of
        [target.t] is [source.t], so the run's order is kept."""
        k = len(self.target)
        return [ShiftPiece(self.source + q.source[k:], q.target) for q in run]

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


@dataclass(frozen=True)
class Odometer(BackendId):
    """The odometer, whose one invariant measure is Bernoulli measure."""

    prefix = "odo"
    piece = OdometerPiece
    is_odometer = True

    def piece_between(self, u: Word, v: Word) -> OdometerPiece:
        """The carry-free translation of [u] onto the same-depth [v]."""
        if len(u) != len(v):
            raise PreconditionError(
                f"odometer pieces keep the depth: {u} and {v} differ in length")
        # the digits above the highest one where u and v differ cancel
        k = 0 if u == v else next(i + 1 for i in reversed(range(len(u))) if u[i] != v[i])
        return OdometerPiece(u, word_value(v[:k], self.base) - word_value(u[:k], self.base))

    def measure_below(self, A: ClopenSet, B: ClopenSet | Fraction,
                      factor: int = 1) -> bool:
        """The comparison hypothesis factor * mu(A) < mu(B) for the
        Bernoulli measure mu, where B is a clopen set or an exact bound."""
        bound = B.volume() if isinstance(B, ClopenSet) else B
        return factor * A.volume() < bound

    def measure_equal(self, A: ClopenSet, B: ClopenSet) -> bool:
        """mu(A) = mu(B) for the Bernoulli measure mu."""
        return A.volume() == B.volume()

    def measure_depth(self, bound: Fraction) -> int:
        """Smallest depth whose cylinders have measure below `bound`."""
        return depth_for_measure_below(self.base, bound)

    def reserved_cylinder(self, S: ClopenSet) -> ClopenSet:
        """Nothing: measure leaves a transfer into S its room."""
        return ClopenSet.empty(self.base)

    def pair_into(self, A: ClopenSet, B: ClopenSet) -> list[OdometerPiece]:
        """Pieces from all of A into B, for mu(A) < mu(B): cylinders
        matched in lexicographic order at a common depth."""
        return pair_cylinders(self, A, B)

    def pair_onto(self, S: ClopenSet, T: ClopenSet) -> list[OdometerPiece]:
        """Pieces from S onto T, for mu(S) = mu(T)."""
        return pair_cylinders(self, S, T, onto=True)


@dataclass(frozen=True)
class FullShift(BackendId):
    """The full shift: no invariant measure, so measure conditions are vacuous."""

    prefix = "shift"
    piece = ShiftPiece
    is_odometer = False

    def piece_between(self, u: Word, v: Word) -> ShiftPiece:
        """The prefix rewrite u.y -> v.y."""
        return ShiftPiece(u, v)

    def measure_below(self, A: ClopenSet, B: ClopenSet | Fraction,
                      factor: int = 1) -> bool:
        return True

    def measure_equal(self, A: ClopenSet, B: ClopenSet) -> bool:
        return True

    def measure_depth(self, bound: Fraction) -> int:
        return 0

    def reserved_cylinder(self, S: ClopenSet) -> ClopenSet:
        """`proper_subcylinder(S)`, or nothing when S is empty."""
        return ClopenSet.empty(self.base) if S.is_empty() else proper_subcylinder(S)

    def pair_into(self, A: ClopenSet, B: ClopenSet) -> list[ShiftPiece]:
        """Pieces from all of A into B: each cylinder of A is rewritten into
        B's picked cylinder with a distinct suffix, in counting order."""
        v = B.pick()
        width = _suffix_length(len(A.words), self.base)
        return [ShiftPiece(u, v + value_word(i, width, self.base)[::-1])
                for i, u in enumerate(A.words)]

    def pair_onto(self, S: ClopenSet, T: ClopenSet) -> list[ShiftPiece]:
        """Pieces from nonempty S onto nonempty T.  Cylinder counts must
        agree modulo base - 1 (splitting one cylinder into its children
        adds base - 1); the smaller list, depth first, is split until the
        counts match, and the lists are paired depth first."""
        base = self.base
        src = sorted(S.words, key=word_key)
        dst = sorted(T.words, key=word_key)
        if (len(src) - len(dst)) % (base - 1) != 0:
            raise PreconditionError(
                "clopen sets are not prefix-exchange equivalent: cylinder counts "
                f"{len(src)} and {len(dst)} differ modulo base-1 = {base - 1}")
        while len(src) != len(dst):
            words = src if len(src) < len(dst) else dst
            w = words.pop(0)
            words.extend(w + (a,) for a in range(base))
            words.sort(key=word_key)
        return [ShiftPiece(u, v) for u, v in zip(src, dst)]


odometer = Odometer
full_shift = FullShift


@dataclass(frozen=True)
class Bisection:
    """A compact open bisection given by finitely many pieces: the
    partial comparison witness of `compare_clopen`."""

    backend: BackendId
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        self.backend.check_pieces(self.pieces)

    @property
    def base(self) -> int:
        return self.backend.base

    def source_words(self) -> tuple[Word, ...]:
        return tuple(p.source for p in self.pieces)

    def range_words(self) -> tuple[Word, ...]:
        return tuple(p.range_word(self.base) for p in self.pieces)


def validate_bisection(bis: Bisection) -> str | None:
    """None if sources and ranges are both pairwise disjoint, else the
    message naming the first overlapping pair (`check_cylinders`)."""
    try:
        check_cylinders(bis.source_words(), bis.base, "source", cover=False)
        check_cylinders(bis.range_words(), bis.base, "range", cover=False)
    except MalformedInput as err:
        return str(err)
    return None


def source_range(bis: Bisection) -> tuple[ClopenSet, ClopenSet]:
    return (ClopenSet.from_words(bis.base, bis.source_words()),
            ClopenSet.from_words(bis.base, bis.range_words()))


def pair_cylinders(backend: BackendId, S: ClopenSet, T: ClopenSet, *,
                   onto: bool = False) -> list[Piece]:
    """Odometer pairing: S and T are refined to their common depth and
    their cylinders matched in lexicographic order by carry-free
    translations.  Pairs all of S when mu(S) < mu(T); with `onto` the
    measures are equal and the ranges must fill T exactly.  T is expanded
    lazily, so a shallow T costs only the cylinders that get paired."""
    base = backend.base
    depth = max(S.max_depth(), T.max_depth())
    src = S.refine_to(depth)
    # T.words is sorted, so expanding each word in order gives T.refine_to(depth)
    dst = (v for w in T.words for v in expand_word(w, base, depth))
    if onto and len(src) != sum(base ** (depth - len(w)) for w in T.words):
        raise PostconditionError("equal measures must refine to equal counts")
    return [backend.piece_between(u, v) for u, v in zip(src, dst)]


def proper_subcylinder(S: ClopenSet) -> ClopenSet:
    """A deterministic nonempty clopen set properly inside S: the first
    child of the picked cylinder."""
    w = S.pick()
    return ClopenSet.from_words(S.base, [w + (0,)])


def _suffix_length(count: int, base: int) -> int:
    """Length of the disjointness suffixes for shift comparison witnesses."""
    width = 1
    while base ** width < count:
        width += 1
    return width


def compare_clopen(backend: BackendId, A: ClopenSet, B: ClopenSet) -> Bisection:
    """A bisection U with source exactly A and range inside B, for
    mu(A) < mu(B) under every invariant probability measure mu: the
    model's `pair_into`."""
    backend.check_sets(A, B)
    if B.is_empty():
        raise PreconditionError("comparison target must be nonempty")
    if A.is_empty():
        return Bisection(backend, ())
    if not backend.measure_below(A, B):
        raise PreconditionError(
            f"comparison unavailable: mu(A)={A.volume_text()} "
            f"is not below mu(B)={B.volume_text()}")
    witness = Bisection(backend, tuple(backend.pair_into(A, B)))
    violation = validate_bisection(witness)
    if violation is not None:
        raise PostconditionError(f"comparison witness is not a bisection: {violation}")
    return witness
