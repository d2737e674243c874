"""Decomposition into small-support factors, and displaced sets.

`decompose_small_support` factors any element into pieces supported in
proper clopen sets (of measure below a prescribed epsilon on the
odometer).  `separated_cylinder` and `displaced_set` find clopen sets
an element moves off themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clopen import SHORT_DEPTH, ClopenSet, Word, expand_word, word_key
from .elements import (GroupElement, compose, element_from_pieces,
                       image_of_clopen, inverse, involution_from_partial,
                       restrict, support)
from .errors import MalformedInput, PostconditionError, PreconditionError


# The most cells an odometer decomposition's partition may have (only the
# moved ones are visited): one needing more is refused before any is built.
MAX_DECOMPOSITION_CELLS = 1 << 13


@dataclass(frozen=True)
class DecompositionResult:
    factors: tuple[GroupElement, ...]
    bounds: tuple[ClopenSet, ...]
    epsilon: Fraction | None


def separated_cylinder(tau: GroupElement) -> ClopenSet:
    """A deterministic cylinder A with A disjoint from tau(A), both of
    depth at least two, and A u tau(A) proper.  Every [A.0^k] keeps these
    properties, since it lies in A and its image in tau(A).

    Starts from the word the first moved piece of tau moves off itself
    and descends lexicographically (always appending digit 0); freeness
    of the odometer and the locality of shift pieces guarantee
    termination.
    """
    if tau.is_identity():
        raise PreconditionError("the identity has no moved cylinder")
    base = tau.base
    piece = next(p for p in tau.pieces if not p.is_identity())
    word = tau.backend.separated_word(piece)
    while True:
        A = ClopenSet.from_words(base, [word])
        image = image_of_clopen(tau, A)
        if (A.intersect(image).is_empty()
                and len(word) >= 2
                and all(len(w) >= 2 for w in image.words)
                and not (A | image).is_whole()):
            return A
        word = word + (0,)


def displaced_set(tau: GroupElement) -> ClopenSet:
    """A deterministic clopen C with C disjoint from tau(C) and
    C u tau(C) proper, grown greedily from `separated_cylinder(tau)`.

    Each word of supp(tau) is refined one, two and three levels below
    its own depth, no deeper than three levels below the starting
    cylinder: the transfers that park into C refine it to their common
    depth, so C stays within three levels of its start.  Each candidate W,
    level by level and coarsest first then lexicographic within a level,
    is added when tau moves W off itself, W avoids
    C u tau(C) u tau^-1(C), and C u tau(C) stays proper with W added.
    The first two conditions keep C disjoint from tau(C) as it grows.
    """
    C = separated_cylinder(tau)
    tau_inv = inverse(tau)
    used = C | image_of_clopen(tau, C)
    blocked = used | image_of_clopen(tau_inv, C)
    supp = sorted(support(tau).words, key=word_key)   # coarsest first
    max_depth = C.max_depth() + 3
    for level in range(1, 4):
        for word in (x for w in supp if len(w) + level <= max_depth
                     for x in expand_word(w, tau.base, len(w) + level)):
            W = ClopenSet.from_words(tau.base, [word])
            if not W.intersect(blocked).is_empty():
                continue
            tau_W = image_of_clopen(tau, W)
            grown = used | W | tau_W
            if not W.intersect(tau_W).is_empty() or grown.is_whole():
                continue
            C, used = C | W, grown
            blocked = blocked | W | tau_W | image_of_clopen(tau_inv, W)
    image = image_of_clopen(tau, C)
    if C.is_empty():
        raise PostconditionError("displaced set is empty")
    if not C.intersect(image).is_empty():
        raise PostconditionError("displaced set meets its image")
    if (C | image).is_whole():
        raise PostconditionError("displaced set and its image fill the whole space")
    return C


def decompose_small_support(alpha: GroupElement,
                            epsilon: Fraction | None = None) -> DecompositionResult:
    """Write alpha as a left-to-right product of factors with proper
    clopen support bounds; on the odometer each bound has measure
    strictly below epsilon.

    On the odometer the first partition cell (measure below epsilon/2)
    that the residual moves is peeled until the residual is the identity:
    its factor is the residual on the cell with the image swapped back,
    bounded by the cell and its image; each cell comes after the last.

    A given epsilon must be positive on every backend.  On the full
    shift it is otherwise ignored (there is no invariant measure): a
    two-factor decomposition through a moved cylinder is returned, and
    its epsilon is None.
    """
    eps = None if epsilon is None else Fraction(epsilon)
    if eps is not None and eps <= 0:
        raise PreconditionError(f"decomposition needs epsilon > 0, got {eps}")
    if not alpha.backend.is_odometer:
        return (DecompositionResult((), (), None) if alpha.is_identity()
                else _decompose_shift(alpha))
    if alpha.is_identity():
        return DecompositionResult((), (), eps)
    if eps is None:
        raise PreconditionError("odometer decomposition needs epsilon > 0")
    return _decompose_odometer(alpha, eps)


def _decompose_odometer(alpha: GroupElement, eps: Fraction) -> DecompositionResult:
    base = alpha.base
    backend = alpha.backend
    # partition depth: cells measure below eps/2, and at least 2 so that
    # each bound A_i u residual(A_i) stays proper
    depth = max(2, backend.measure_depth(eps / 2))
    # base**depth is formed only for a depth that could keep it under the limit
    if depth >= MAX_DECOMPOSITION_CELLS.bit_length() or base ** depth > MAX_DECOMPOSITION_CELLS:
        cells = base ** depth if depth <= SHORT_DEPTH else f"{base}^{depth}"
        raise MalformedInput(
            f"odometer decomposition needs {cells} cells at depth {depth}, "
            f"over the limit of {MAX_DECOMPOSITION_CELLS}")
    factors: list[GroupElement] = []
    bounds: list[ClopenSet] = []
    residual = alpha
    last: Word = ()                   # precedes every cell of the partition
    while not residual.is_identity():
        # the first cell it moves: its first moving piece's source, at depth `depth`
        source = next(p.source for p in residual.pieces if not p.is_identity())
        cell_word = source[:depth] + (0,) * (depth - len(source))
        if cell_word <= last:
            raise PostconditionError("residual support re-entered a peeled cell")
        last = cell_word
        inside = restrict(residual, cell_word)
        cell = ClopenSet.from_words(base, [cell_word])
        moved = ClopenSet.from_words(base, [p.target for p in inside])
        extra = cell - moved          # A_i' : needs to receive the swap-back
        surplus = moved - cell        # B_i' : image overflow outside the cell
        # the pieces map the cell onto moved, so surplus and extra have equal
        # measure, and pair_onto pairs two empty sets to no pieces
        pieces = inside + backend.pair_onto(surplus, extra)
        try:
            factor = element_from_pieces(backend, pieces, fill_identity=True)
        except MalformedInput as err:  # the pieces are the decomposition's own
            raise PostconditionError(f"peeled factor is not an element: {err}") from None
        bound = cell | moved
        if not support(factor).is_subset(bound):
            raise PostconditionError("peeled factor escaped its bound")
        if not bound.volume() < eps:
            raise PostconditionError("bound measure reached epsilon")
        factors.append(factor)
        bounds.append(bound)
        residual = compose(inverse(factor), residual)
    return DecompositionResult(tuple(factors), tuple(bounds), eps)


def _decompose_shift(alpha: GroupElement) -> DecompositionResult:
    backend = alpha.backend
    A = separated_cylinder(alpha)
    image = image_of_clopen(alpha, A)
    inside = restrict(alpha, A.words[0])
    alpha1 = involution_from_partial(backend, inside, "two-factor pieces")
    alpha2 = compose(inverse(alpha1), alpha)
    bound1 = A | image
    bound2 = A.complement()
    if not support(alpha1).is_subset(bound1) or not support(alpha2).is_subset(bound2):
        raise PostconditionError("two-factor supports escaped their bounds")
    if bound1.is_whole() or bound2.is_whole():
        raise PostconditionError("two-factor bounds are not proper")
    if not compose(alpha1, alpha2) == alpha:
        raise PostconditionError("two-factor product does not reconstruct the element")
    factors = tuple(f for f in (alpha1, alpha2) if not f.is_identity())
    bounds = tuple(b for f, b in ((alpha1, bound1), (alpha2, bound2))
                   if not f.is_identity())
    return DecompositionResult(factors, bounds, None)
