"""Group algebra of finitely piecewise homeomorphisms.

A group element is a bisection whose source and range cylinders both
partition the whole space.  Elements are kept in canonical form:
complete sibling families of pieces with the same behaviour are merged
(odometer: equal powers; shift: suffix-compatible targets) and pieces
are sorted by source, so syntactic equality coincides with equality of
the underlying homeomorphisms.

Composition f * g denotes x -> f(g(x)); group words read left to right
in the same order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import attrgetter
from typing import Iterable, Sequence

from .backends import Bisection, BackendId, Piece, check_bisection
from .clopen import (ClopenSet, PointName, Word, canonical_words, is_prefix,
                     merge_families, overlapping_pair)
from .errors import MalformedInput, PostconditionError, PreconditionError

_source = attrgetter("source")


def _merge_pieces(pieces: Iterable[Piece], base: int) -> tuple[Piece, ...]:
    """Sort pieces by source and merge complete sibling families with
    compatible behaviour."""
    ordered = sorted(pieces, key=_source)
    if any(p.source == q.source for p, q in zip(ordered, ordered[1:])):
        raise MalformedInput("duplicate source cylinders among pieces")
    return tuple(merge_families(ordered, base, _source, _join))


def _join(parent: Word, family: list[Piece]) -> Piece | None:
    return family[0].merge_siblings(parent, family)


def _check_partition(words: Sequence[Word], base: int, which: str) -> None:
    pair = overlapping_pair(words)
    if pair is not None:
        raise MalformedInput(f"{which} cylinders overlap: {pair[0]} vs {pair[1]}")
    if canonical_words(words, base) != ((),):
        raise MalformedInput(f"{which} cylinders do not cover the whole space")


@dataclass(frozen=True)
class GroupElement:
    """A full-group element with finitely many prefix-map pieces."""

    bisection: Bisection

    def __post_init__(self):
        base = self.bisection.base
        canon = _merge_pieces(self.bisection.pieces, base)
        object.__setattr__(self, "bisection", Bisection(self.bisection.backend, canon))
        _check_partition(self.bisection.source_words(), base, "source")
        _check_partition(self.bisection.range_words(), base, "range")

    @classmethod
    def _trusted(cls, backend: BackendId, pieces: Iterable[Piece]) -> "GroupElement":
        """Canonicalize without partition checks.  Only for pieces coming
        out of compose/inverse, which preserve validity by construction."""
        elem = object.__new__(cls)
        canon = _merge_pieces(pieces, backend.base)
        object.__setattr__(elem, "bisection", Bisection(backend, canon))
        return elem

    @property
    def backend(self) -> BackendId:
        return self.bisection.backend

    @property
    def base(self) -> int:
        return self.bisection.base

    @property
    def pieces(self) -> tuple[Piece, ...]:
        return self.bisection.pieces

    def is_identity(self) -> bool:
        return all(p.is_identity() for p in self.pieces)

    def _check_backend(self, other: "GroupElement") -> None:
        if other.backend != self.backend:
            raise MalformedInput(
                f"backend mismatch: {self.backend.tag} vs {other.backend.tag}")


def identity(backend: BackendId) -> GroupElement:
    return GroupElement(Bisection(backend, (backend.piece_between((), ()),)))


def element_from_pieces(backend: BackendId, pieces: Iterable[Piece],
                        fill_identity: bool = True) -> GroupElement:
    """Build an element from a partial list of pieces.

    With fill_identity, the complement of the union of sources (which
    must equal the complement of the union of ranges) is filled with
    identity pieces.
    """
    pieces = list(pieces)
    bis = check_bisection(Bisection(backend, tuple(pieces)))
    if fill_identity:
        src = ClopenSet.from_words(backend.base, bis.source_words())
        rng = ClopenSet.from_words(backend.base, bis.range_words())
        if src != rng:
            raise MalformedInput(
                "cannot fill with the identity: sources and ranges cover different sets")
        for w in src.complement().words:
            pieces.append(backend.piece_between(w, w))
    return GroupElement(Bisection(backend, tuple(pieces)))


def involution_from_partial(backend: BackendId, pieces: Iterable[Piece]) -> GroupElement:
    """The involution acting by the given pieces on their disjoint sources,
    by their inverses on the ranges, and trivially elsewhere."""
    pieces = list(pieces)
    base = backend.base
    src = ClopenSet.from_words(base, [p.source for p in pieces])
    rng = ClopenSet.from_words(base, [p.range_word(base) for p in pieces])
    if not src.intersect(rng).is_empty():
        raise PreconditionError("involution pieces must have disjoint sources and ranges")
    both = pieces + [p.inverse(base) for p in pieces]
    return element_from_pieces(backend, both, fill_identity=True)


def compose(f: GroupElement, g: GroupElement) -> GroupElement:
    """The element x -> f(g(x))."""
    f._check_backend(g)
    base = f.base
    by_source = {p.source: p for p in f.pieces}
    out: list[Piece] = []
    stack = list(g.pieces)
    while stack:
        p = stack.pop()
        w = p.range_word(base)
        hit = None
        for i in range(len(w), -1, -1):
            q = by_source.get(w[:i])
            if q is not None:
                hit = q
                break
        if hit is None:
            stack.extend(p.restrict((a,)) for a in range(base))
            continue
        out.append(hit.after(p))
    return GroupElement._trusted(f.backend, out)


def inverse(f: GroupElement) -> GroupElement:
    base = f.base
    return GroupElement._trusted(
        f.backend, [p.inverse(base) for p in f.pieces])


def equals(f: GroupElement, g: GroupElement) -> bool:
    f._check_backend(g)
    return f.bisection == g.bisection


def support(f: GroupElement) -> ClopenSet:
    """Closure of the moved points: the union of the sources of the
    non-identity pieces.  Exact on both backends (odometer pieces with
    nonzero power are fixed-point free; a shift piece with distinct
    source and target moves a dense subset of its source)."""
    return ClopenSet.from_words(
        f.base, [p.source for p in f.pieces if not p.is_identity()])


def restrict(f: GroupElement, w: Word) -> list[Piece]:
    """The pieces of f on the cylinder [w]: the piece whose source
    contains [w], restricted to [w], or else the pieces whose sources
    lie inside [w].  Pieces are sorted by source, so one binary search
    finds either."""
    pieces = f.pieces
    i = bisect_right(pieces, w, key=_source)
    if i and is_prefix(pieces[i - 1].source, w):
        p = pieces[i - 1]
        return [p.restrict(w[len(p.source):])]
    j = i
    while j < len(pieces) and is_prefix(w, pieces[j].source):
        j += 1
    return list(pieces[i:j])


def image_of_clopen(f: GroupElement, A: ClopenSet) -> ClopenSet:
    if A.base != f.base:
        raise MalformedInput("base mismatch between element and clopen set")
    return ClopenSet.from_words(
        f.base, [p.range_word(f.base) for w in A.words for p in restrict(f, w)])


def apply_point(f: GroupElement, point: PointName) -> PointName:
    if point.base != f.base:
        raise MalformedInput("base mismatch between element and point")
    for p in f.pieces:
        if point.prefix(len(p.source)) == p.source:
            return p.image_point(point, f.base)
    raise PostconditionError("element sources do not cover the point")


def commutator(f: GroupElement, g: GroupElement) -> tuple[GroupElement, "DerivedWitness"]:
    """f g f^-1 g^-1 together with its one-leaf derived witness."""
    f._check_backend(g)
    elem = compose(compose(compose(f, g), inverse(f)), inverse(g))
    return elem, DerivedWitness(((f, g),))


def conjugate(g: GroupElement, f: GroupElement) -> GroupElement:
    """g f g^-1."""
    return compose(compose(g, f), inverse(g))


@dataclass(frozen=True)
class DerivedWitness:
    """A product of commutator leaves certifying membership in the
    derived subgroup; evaluates to the element it accompanies."""

    factors: tuple[tuple[GroupElement, GroupElement], ...]

    def evaluate(self, backend: BackendId | None = None) -> GroupElement:
        if not self.factors:
            if backend is None:
                raise MalformedInput("empty witness needs an explicit backend")
            return identity(backend)
        leaves = [commutator(f, g)[0] for f, g in self.factors]
        return reduce(compose, leaves)

    def __mul__(self, other: "DerivedWitness") -> "DerivedWitness":
        return DerivedWitness(self.factors + other.factors)


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    vacuous: bool
    failures: tuple[ClopenSet, ...]


def check_measure_invariance(f: GroupElement,
                             trials: Iterable[ClopenSet]) -> InvarianceReport:
    """Exact check that mu(f(A)) = mu(A) for each trial set A.

    On the full shift the invariant measure set is empty, so the check
    passes vacuously.
    """
    if not f.backend.is_odometer:
        return InvarianceReport(passed=True, vacuous=True, failures=())
    bad = tuple(A for A in trials
                if image_of_clopen(f, A).measure() != A.measure())
    return InvarianceReport(passed=not bad, vacuous=False, failures=bad)
