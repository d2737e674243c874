"""Group algebra of finitely piecewise homeomorphisms.

A group element is a backend together with finitely many pieces
(source, target, carry) whose source and target cylinders both
partition the whole space (a compact open bisection with full source
and range).  Elements are kept in canonical form: a complete sibling
family of pieces that are the restrictions of one piece is merged into
it (`Piece.merge_siblings`), and pieces are sorted by source, so
syntactic equality coincides with equality of the underlying
homeomorphisms.

Composition f * g denotes x -> f(g(x)); group words read left to right
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .backends import BackendId, Piece, new_piece
from .clopen import (ClopenSet, PointName, Word, check_cylinders, check_word, meeting,
                     merge_families, merged_words)
from .errors import MalformedInput, PostconditionError, PreconditionError

_source = attrgetter("source")


@dataclass(frozen=True)
class GroupElement:
    """A full-group element: its backend and its sorted canonical pieces."""

    backend: BackendId
    pieces: tuple[Piece, ...]

    def __post_init__(self):
        object.__setattr__(self, "pieces", _assembled(self.backend, self.pieces, fill=False))

    @classmethod
    def _trusted(cls, backend: BackendId, pieces: tuple[Piece, ...]) -> "GroupElement":
        """An element from pieces already in canonical form, without
        model, partition or merge work; each caller states why its
        pieces are valid and canonical."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "backend", backend)
        object.__setattr__(elem, "pieces", pieces)
        return elem

    @property
    def base(self) -> int:
        return self.backend.base

    def is_identity(self) -> bool:
        return all(p.is_identity() for p in self.pieces)

    def _check_backend(self, other: "GroupElement") -> None:
        if other.backend != self.backend:
            raise MalformedInput(
                f"backend mismatch: {self.backend.tag} vs {other.backend.tag}")


def identity(backend: BackendId) -> GroupElement:
    return GroupElement._trusted(backend, (Piece((), ()),))  # (ε, ε, 0): canonical, any model


def element_from_pieces(backend: BackendId, pieces: Iterable[Piece],
                        fill_identity: bool = True) -> GroupElement:
    """An element from a partial list of pieces, each fact checked once (`_assembled`):
    with fill_identity, the sources' digits in the order given, their overlaps, then identity
    pieces on the gaps; without it, overlaps and cover; then the model's rule and the ranges."""
    return GroupElement._trusted(backend, _assembled(backend, pieces, fill_identity))


def _assembled(backend: BackendId, pieces: Iterable[Piece], fill: bool) -> tuple[Piece, ...]:
    """The checked constructor's and the fill's one assembly.  The fill's sort key checks every
    digit before any comparison; merging needs the source antichain, and keeps both unions."""
    base = backend.base
    ordered = sorted(pieces, key=(lambda p: check_word(p.source, base)) if fill else _source)
    sources = [p.source for p in ordered]
    check_cylinders(sources, base, "source", cover=not fill)
    if fill:
        gaps = ClopenSet._trusted(base, merged_words(sources, base)).complement().words
        ordered = sorted(ordered + [new_piece((w, w, 0)) for w in gaps], key=_source)
    backend.check_pieces(ordered)
    canon = tuple(merge_families(zip(ordered), base, _source, Piece.merge_siblings))
    check_cylinders([p.target for p in canon], base, "range", cover=True)
    return canon


def involution_from_partial(backend: BackendId, pieces: Iterable[Piece],
                            own: str | None = None) -> GroupElement:
    """The involution acting by the given pieces on their disjoint sources,
    by their inverses on the ranges, and trivially elsewhere, for pieces of
    the backend.  Two sources, two ranges or a source and a range
    meeting is an overlap among the sources of the pieces and their
    inverses, which the element's source check reports: a
    PreconditionError for a caller's pieces.  Pieces the library paired
    itself, named by `own`, make an overlap a bug (a PostconditionError
    "{own} overlap: ...") and are checked as alpha = alpha^-1."""
    pieces = list(pieces)
    both = pieces + [p.inverse() for p in pieces]
    try:
        alpha = element_from_pieces(backend, both, fill_identity=True)
    except MalformedInput as err:
        message = f"involution pieces must have disjoint sources and ranges: {err}"
        if own is None:
            raise PreconditionError(message) from None
        raise PostconditionError(f"{own} overlap: {message}") from None
    if own is not None and alpha.pieces != inverse(alpha).pieces:
        raise PostconditionError(f"{own} do not form an involution")
    return alpha


def compose(f: GroupElement, g: GroupElement) -> GroupElement:
    """The element x -> f(g(x)).  g's pieces are visited in source order.
    When a piece q of f covers the range [v] of a piece p of g, the
    result has q o p on p's source [u].  Otherwise the pieces of f inside
    [v] are one run of f's sorted sources that partitions [v], and p
    pulls it back: q o p on the preimage of each q.source, sorted by
    source (a carry-free p keeps the run's order; p's carry rotates the
    tails, so then they are sorted; an identity p keeps the run).
    The sources thus increase strictly; each covering piece, and each
    run whole, goes onto the sibling-merge stack as one block, and the
    result is the canonical merge of the pieces of f * g (valid, since
    the preimages partition the sources of g and f and g are bijections).
    Run lemma: a family that a run piece completes lies in the run (all
    extend u), and p, which is one piece on the family's parent, maps it
    onto a complete family of f's pieces inside [v].  Were the family
    the restrictions of one piece P, those pieces of f would be the
    restrictions of P o p^-1, which f's canonical form excludes; so,
    like f's, it cannot merge."""
    f._check_backend(g)
    return GroupElement._trusted(f.backend, tuple(merge_families(
        _composed_pieces(f, g), f.base, _source, Piece.merge_siblings)))


def _composed_pieces(f: GroupElement, g: GroupElement) -> Iterator[Sequence[Piece]]:
    base, pieces = f.base, f.pieces
    sources = [q.source for q in pieces]  # bisected with no key to call per probe
    for p in g.pieces:
        i, j = meeting(sources, p.target, base)
        if j == i + 1:  # one piece of f meets [v] only if it covers it
            yield (pieces[i].after(p, base),)
        else:
            yield pieces[i:j] if p.is_identity() else p.pull_back(pieces[i:j], base)


def inverse(f: GroupElement) -> GroupElement:
    """The inverse pieces (target, source, -carry), each built once, sorted by source,
    with no merge: a complete sibling family of them that merged would be the
    restrictions of one piece P, so their inverses, pieces of f, would be the
    restrictions of P^-1 to the complete family of P^-1's source, a mergeable family of
    f, which f's canonical form excludes.  The sort keeps its key: comparing the pieces
    themselves, a tuple subclass, costs more per comparison than comparing sources."""
    return GroupElement._trusted(
        f.backend, tuple(sorted([new_piece((t, s, -c)) for s, t, c in f.pieces], key=_source)))


def equals(f: GroupElement, g: GroupElement) -> bool:
    f._check_backend(g)
    return f.pieces == g.pieces


def support(f: GroupElement) -> ClopenSet:
    """Closure of the moved points: the union of the sources of the
    non-identity pieces.  Exact on both backends (odometer pieces that
    move are fixed-point free; a shift piece with distinct source and
    target moves a dense subset of its source)."""
    return ClopenSet(f.base, [p.source for p in f.pieces if not p.is_identity()])


def restrict(f: GroupElement, w: Word) -> list[Piece]:
    """The pieces of f on the cylinder [w]: the piece whose source
    contains [w], restricted to [w], or else the run of at least base
    pieces whose sources partition [w]."""
    i, j = meeting(f.pieces, w, f.base, _source)
    if j == i + 1:
        p = f.pieces[i]
        return [p.restrict(w[len(p.source):], f.base)]
    return list(f.pieces[i:j])


def image_of_clopen(f: GroupElement, A: ClopenSet) -> ClopenSet:
    if A.base != f.base:
        raise MalformedInput("base mismatch between element and clopen set")
    return ClopenSet(
        f.base, [p.target for w in A.words for p in restrict(f, w)])


def apply_point(f: GroupElement, point: PointName) -> PointName:
    if point.base != f.base:
        raise MalformedInput("base mismatch between element and point")
    depth = max(len(p.source) for p in f.pieces)
    i, j = meeting(f.pieces, point.prefix(depth), f.base, _source)
    if i == j:
        raise PostconditionError("element sources do not cover the point")
    return f.pieces[i].image_point(point)


def commutator(f: GroupElement,
               g: GroupElement) -> tuple[GroupElement, tuple[GroupElement, GroupElement]]:
    """f g f^-1 g^-1 together with its witness, the pair (f, g)."""
    f._check_backend(g)
    elem = compose(compose(compose(f, g), inverse(f)), inverse(g))
    return elem, (f, g)


def conjugate(g: GroupElement, f: GroupElement) -> GroupElement:
    """g f g^-1."""
    return compose(compose(g, f), inverse(g))


def check_measure_invariance(f: GroupElement,
                             trials: Iterable[ClopenSet]) -> tuple[ClopenSet, ...]:
    """The trial sets A with mu(f(A)) != mu(A) for some invariant
    probability measure mu, exactly; empty when f preserves the measure
    on every trial (always on the full shift, which has no such mu)."""
    return tuple(A for A in trials
                 if not f.backend.measure_equal(image_of_clopen(f, A), A))
