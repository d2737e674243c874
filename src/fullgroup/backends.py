"""The two concrete ample groupoid models on the Cantor set, and their
one piece shape: (u, v, c) maps u.w to v.(w + c), where the tail w is
read as a base-b integer, least-significant digit first, and c is an
element of the model's tail group G, the normal form of V_b(G)
(Nekrashevych, *Self-similar groups*, AMS 2005).  Only `add_to_tail`
adds c to a tail digit by digit; the other piece rules are generic.

* Odometer: G = Z acting by the adding machine ("+1 with carry"), with
  |u| = |v| (`Odometer.check_pieces`).  The piece (u;+n), "add n" on
  [u], is (u, v, c) with v the low |u| digits of value(u) + n and c the
  carry into the tail, so
  n = value(v) - value(u) + c*b^|u| (`OdometerPiece`, `Odometer.power_of`).
  Uniquely ergodic: the Bernoulli measure is the single invariant measure.

* Full shift: G trivial (c = 0), prefix rewrites u.y -> v.y of arbitrary
  lag |u| - |v|.  No invariant probability measure exists, so comparison
  of clopen sets is unconditional.

A backend is its model class, `Odometer` or `FullShift` (`MODELS`, by
tag prefix): a frozen subclass of `BackendId`, whose one field is the
base.  A model class writes and reads its pieces (`format_piece`,
`parse_piece`), states which pieces are its own (`check_pieces`), picks
a word a piece moves off itself (`separated_word`), states the
comparison hypothesis (`measure_below`, `measure_equal`: vacuous on the
shift), gives the depth below which cylinders have small measure
(`measure_depth`) and the cylinder a transfer keeps free
(`reserved_cylinder`), and pairs cylinders into a set (`pair_into`, for
`compare_clopen` and the transfers) and onto one (`pair_onto`, for the
swap and the odometer decomposition).  `Bisection` asks the one overlap
rule, `clopen.check_cylinders`.  The algorithm choices that still ask
`is_odometer` live with their algorithms: the small-support
decomposition (`decompose`), the closure parking set (`certificates`)
and the samplers (`randomize`).  Both models are minimal and second
countable; this is a documented fact about the models, not a runtime
check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter
from typing import ClassVar, Iterable, NamedTuple, Sequence

from .clopen import (ClopenSet, PointName, Word, check_base, check_cylinders,
                     depth_for_measure_below, expand_word, format_word, is_prefix,
                     parse_word, word_key)
from .errors import MalformedInput, PostconditionError, PreconditionError

_source = attrgetter("source")


@dataclass(frozen=True)
class BackendId:
    """A model over base-`base` sequences; equal only within one class."""

    base: int

    prefix: ClassVar[str]
    is_odometer: ClassVar[bool]

    def __post_init__(self):
        check_base(self.base)

    @property
    def tag(self) -> str:
        return self.prefix + str(self.base)

    def check_sets(self, A: ClopenSet, B: ClopenSet) -> None:
        """Reject clopen sets over another base than the backend's."""
        for S in (A, B):
            if S.base != self.base:
                raise MalformedInput(
                    f"clopen base {S.base} does not match backend {self.tag}")


class Piece(NamedTuple):
    """The map source.w -> target.(w + carry) on the cylinder [source],
    for tails w read as base-b integers, least-significant digit first;
    carry is the tail-group element (0 on the shift).  A tuple, as every
    group operation builds and compares pieces."""

    source: Word
    target: Word
    carry: int = 0

    def is_identity(self) -> bool:
        return self.source == self.target and not self.carry

    def restrict(self, tail: Word, base: int) -> "Piece":
        """The same map on the sub-cylinder [source.tail]: the carry is
        added to the tail, and what it carries out of the tail moves the
        rest of the sequence."""
        moved, carry = add_to_tail(tail, self.carry, base)
        return new_piece((self.source + tail, self.target + moved, carry))

    def inverse(self) -> "Piece":
        return new_piece((self.target, self.source, -self.carry))

    def after(self, inner: "Piece", base: int) -> "Piece":
        """self o inner, for an inner piece whose range [source.t] lies in the
        source: inner if self is an identity, else t moved by self's carry."""
        if not self.carry and self.source == self.target:
            return inner
        tail = inner.target[len(self.source):]
        if not self.carry:
            return new_piece((inner.source, self.target + tail, inner.carry))
        moved, carry = add_to_tail(tail, self.carry, base)
        return new_piece((inner.source, self.target + moved, inner.carry + carry))

    def pull_back(self, run: Sequence["Piece"], base: int) -> list["Piece"]:
        """q o self on the preimage of each q.source, sorted by source, for
        a sorted run of pieces whose sources partition the range [target].
        The preimage of [target.s] is [source.t] for t = s - carry, and
        q o self carries q's carry less what t carries out; a nonzero carry
        rotates the tails, which breaks the run's order, so only then are
        the pieces sorted."""
        k, minus = len(self.target), -self.carry
        pieces = []
        for q in run:
            t, out = add_to_tail(q.source[k:], minus, base)
            pieces.append(new_piece((self.source + t, q.target, q.carry - out)))
        return sorted(pieces, key=_source) if minus else pieces

    @staticmethod
    def merge_siblings(parent: Word, family: Sequence["Piece"]) -> "Piece | None":
        """One piece (parent, stem, c) on [parent] for a complete sorted
        sibling family of b pieces, or None.  Its restriction to the child
        parent.a is (parent.a, stem.t, k) with t + b*k = a + c, so every
        target must be one digit t after a common stem, with one
        c = t + b*k - a for all children a."""
        base, (_, first, carry) = len(family), family[0]
        if not first:
            return None
        stem, carry = first[:-1], first[-1] + base * carry
        for a in range(1, base):
            _, t, c = family[a]
            if not t or t[-1] + base * c - a != carry or t[:-1] != stem:
                return None
        return new_piece((parent, stem, carry))

    def image_point(self, point: PointName) -> PointName:
        """Image of a point of the source: the carry moves the tail and the
        prefix is rewritten."""
        return point.drop(len(self.source)).add_integer(self.carry).prepend(self.target)


# how the piece rules build a piece from a (source, target, carry) triple:
# in C, where Piece(...) runs the named tuple's Python-level __new__
new_piece = partial(tuple.__new__, Piece)


def add_to_tail(tail: Word, carry: int, base: int) -> tuple[Word, int]:
    """tail + carry, with the tail read as a base-b integer,
    least-significant digit first: the carry is added digit by digit from
    the least significant end, the digits above the one where it reaches
    0 are copied, and what it carries out of the last digit is returned
    with the new tail."""
    if not carry:
        return tail, 0
    out = list(tail)
    for i in range(len(out)):
        carry, out[i] = divmod(out[i] + carry, base)
        if not carry:
            break
    return tuple(out), carry


def word_value(word: Word, base: int) -> int:
    """Base-b integer value, least-significant digit first."""
    value = 0
    for d in reversed(word):
        value = value * base + d
    return value


def OdometerPiece(source: Word, power: int, base: int = 2) -> Piece:
    """The odometer piece (u;+n), "add n" on [u] in base `base`: the
    whole-space piece (ε, ε, n) restricted to u, so v is the low |u|
    digits of value(u) + n and c what the sum carries into the tail."""
    return Piece((), (), power).restrict(source, base)


@dataclass(frozen=True)
class Odometer(BackendId):
    """The odometer, whose one invariant measure is Bernoulli measure."""

    prefix = "odo"
    is_odometer = True
    piece_re = re.compile(r"^\(([0-9]+|ε);([+-]?[0-9]+)\)$")

    def format_piece(self, piece: Piece) -> str:
        """(u;+n); a power that `parse_piece` would refuse as too long is
        refused here too, so what is written reads back."""
        power = self.power_of(piece)
        try:
            text = f"{power:+d}"
        except ValueError:  # over the interpreter's integer-conversion limit
            raise MalformedInput(f"odometer power of {power.bit_length()} bits "
                                 "is too long to write") from None
        return f"({format_word(piece.source)};{text})"

    def parse_piece(self, text: str) -> Piece:
        m = self.piece_re.match(text)
        if not m:
            raise MalformedInput(f"bad odometer piece {text!r}")
        try:
            power = int(m.group(2))
        except ValueError:  # over the interpreter's integer-conversion limit
            raise MalformedInput(
                f"odometer power of {len(m.group(2))} characters is too long") from None
        return OdometerPiece(parse_word(m.group(1), self.base), power, self.base)

    def power_of(self, piece: Piece) -> int:
        """The n of (u;+n) for the piece (u, v, c), the inverse of
        `OdometerPiece`: value(v) - value(u) + c*b^|u|, where the digits
        above the highest one in which u and v differ cancel."""
        u, v = piece.source, piece.target
        k = next((i + 1 for i in reversed(range(len(u))) if u[i] != v[i]), 0)
        return (word_value(v[:k], self.base) - word_value(u[:k], self.base)
                + piece.carry * self.base ** len(u))

    def check_pieces(self, pieces: Iterable[Piece]) -> None:
        """Reject pieces that change the depth, which "add n" keeps."""
        for p in pieces:
            if len(p.source) != len(p.target):
                raise MalformedInput(f"piece {p!r} does not belong to backend {self.tag}: "
                                     "odometer pieces keep the depth")

    def separated_word(self, piece: Piece) -> Word:
        """A word extending the source whose cylinder the piece moves off
        itself (power nonzero): the shallowest one along the 0 digits."""
        power, word = self.power_of(piece), piece.source
        while power % self.base ** len(word) == 0:
            word = word + (0,)
        return word

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

    def pair_into(self, A: ClopenSet, B: ClopenSet) -> list[Piece]:
        """Pieces from all of A into B, for mu(A) < mu(B): cylinders
        matched in lexicographic order at a common depth."""
        return pair_cylinders(self, A, B)

    def pair_onto(self, S: ClopenSet, T: ClopenSet) -> list[Piece]:
        """Pieces from S onto T, for mu(S) = mu(T)."""
        return pair_cylinders(self, S, T, onto=True)


@dataclass(frozen=True)
class FullShift(BackendId):
    """The full shift: no invariant measure, so measure conditions are vacuous."""

    prefix = "shift"
    is_odometer = False
    piece_re = re.compile(r"^\(([0-9]+|ε)>([0-9]+|ε)\)$")

    def format_piece(self, piece: Piece) -> str:
        """(u>v)."""
        return f"({format_word(piece.source)}>{format_word(piece.target)})"

    def parse_piece(self, text: str) -> Piece:
        m = self.piece_re.match(text)
        if not m:
            raise MalformedInput(f"bad shift piece {text!r}")
        u, v = m.groups()
        return new_piece((parse_word(u, self.base), parse_word(v, self.base), 0))

    def check_pieces(self, pieces: Iterable[Piece]) -> None:
        """Reject pieces with a carry: the shift's tail group is trivial."""
        for p in pieces:
            if p.carry:
                raise MalformedInput(f"piece {p!r} does not belong to backend {self.tag}: "
                                     "shift pieces carry nothing into the tail")

    def separated_word(self, piece: Piece) -> Word:
        """A child of the source whose cylinder the piece moves off itself
        (source != target).  When one of source and target extends the
        other, the child's digit after the shorter one disagrees with the
        image; otherwise source and target are disjoint and the first
        child serves."""
        u, v = piece.source, piece.target
        if is_prefix(u, v) and u != v:
            return u + (((v[len(u)] + 1) % self.base),)
        if is_prefix(v, u):
            return u + (((u[len(v)] + 1) % self.base),)
        return u + (0,)

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

    def pair_into(self, A: ClopenSet, B: ClopenSet) -> list[Piece]:
        """Pieces from all of A into B: the cylinders of A are rewritten,
        in order, onto the extensions of B's picked word v by the fewest
        digits that give enough of them (`expand_word`, lexicographic)."""
        v, width = B.pick(), 1
        while self.base ** width < len(A.words):
            width += 1
        return [new_piece((u, w, 0))
                for u, w in zip(A.words, expand_word(v, self.base, len(v) + width))]

    def pair_onto(self, S: ClopenSet, T: ClopenSet) -> list[Piece]:
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
        return [new_piece((u, v, 0)) for u, v in zip(src, dst)]


MODELS = {model.prefix: model for model in (Odometer, FullShift)}


@dataclass(frozen=True)
class Bisection:
    """A compact open bisection: finitely many pieces of its model, with
    pairwise disjoint sources and pairwise disjoint ranges (else
    MalformedInput).  The partial comparison witness of `compare_clopen`."""

    backend: BackendId
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        self.backend.check_pieces(self.pieces)
        check_cylinders([p.source for p in self.pieces], self.base, "source", cover=False)
        check_cylinders([p.target for p in self.pieces], self.base, "range", cover=False)

    @property
    def base(self) -> int:
        return self.backend.base


def source_range(bis: Bisection) -> tuple[ClopenSet, ClopenSet]:
    return (ClopenSet.from_words(bis.base, [p.source for p in bis.pieces]),
            ClopenSet.from_words(bis.base, [p.target for p in bis.pieces]))


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
    return [new_piece((u, v, 0)) for u, v in zip(src, dst)]


def proper_subcylinder(S: ClopenSet) -> ClopenSet:
    """A deterministic nonempty clopen set properly inside S: the first
    child of the picked cylinder."""
    w = S.pick()
    return ClopenSet.from_words(S.base, [w + (0,)])


def compare_clopen(backend: BackendId, A: ClopenSet, B: ClopenSet) -> Bisection:
    """A bisection U with source exactly A and range inside B, for
    mu(A) < mu(B) under every invariant probability measure mu: the
    model's `pair_into`."""
    backend.check_sets(A, B)
    if B.is_empty():
        raise PreconditionError("comparison target must be nonempty")
    if not backend.measure_below(A, B):
        raise PreconditionError(
            f"comparison unavailable: mu(A)={A.volume_text()} "
            f"is not below mu(B)={B.volume_text()}")
    pieces = tuple(backend.pair_into(A, B))  # a refused pairing is bad input
    try:
        return Bisection(backend, pieces)
    except MalformedInput as err:  # a pairing that breaks the definition is a bug
        raise PostconditionError(f"comparison witness is not a bisection: {err}") from None
