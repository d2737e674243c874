"""Witness synthesizers: full-group transfers, commutator transfers,
exact swap involutions, and the truncated anchored intertwining.

Every synthesized element is certified against the postconditions of
the construction it realizes at build time; a failure raises
PostconditionError and indicates a bug, never an admissible input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .backends import BackendId, Piece, compare_clopen, pair_cylinders
from .clopen import ClopenSet, PointName, Word, word_key
from .elements import (DerivedWitness, GroupElement, commutator, compose,
                       identity, image_of_clopen, involution_from_partial,
                       support)
from .errors import PostconditionError, PreconditionError
from .measure import depth_for_measure_below

INVOLUTION_SMALL_SUPPORT = "InvolutionSmallSupport"
INSIDE_CASE_SUPPORT_BOUND = "InsideCaseSupportBound"
COMMUTATOR_CYCLIC = "CommutatorCyclic"
COMMUTATOR_INSIDE_CASE = "CommutatorInsideCase"


@dataclass(frozen=True)
class TransferResult:
    element: GroupElement
    witness: DerivedWitness | None
    postcondition_tag: str


def proper_subcylinder(S: ClopenSet) -> ClopenSet:
    """A deterministic nonempty clopen set properly inside S: the first
    child of the picked cylinder."""
    w = S.pick().word
    return ClopenSet.from_words(S.base, [w + (0,)])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PostconditionError(message)


def matching_pieces(backend: BackendId, S: ClopenSet, T: ClopenSet) -> list[Piece]:
    """Pieces realizing a bijection from S onto T, pairing cylinders in
    canonical order.

    Odometer: S and T must have equal measure; both refine to a common
    depth with equal cylinder counts and are paired by carry-free
    translations.  Full shift: cylinder counts must agree modulo
    base - 1 (splitting one cylinder into its children adds base - 1);
    the smaller list is split until the counts match.
    """
    base = backend.base
    if S.is_empty() and T.is_empty():
        return []
    if S.is_empty() or T.is_empty():
        raise PreconditionError("cannot match a nonempty set with an empty one")
    if not backend.measure_equal(S, T):
        raise PreconditionError(
            f"exact matching needs equal measures, got {S.measure()} vs {T.measure()}")
    if backend.is_odometer:
        return pair_cylinders(backend, S, T, onto=True)
    src = list(S.words)
    dst = list(T.words)
    if (len(src) - len(dst)) % (base - 1) != 0:
        raise PreconditionError(
            "clopen sets are not prefix-exchange equivalent: cylinder counts "
            f"{len(src)} and {len(dst)} differ modulo base-1 = {base - 1}")
    def grow(words: list[Word]) -> None:
        w = words.pop(0)
        words.extend(w + (a,) for a in range(base))
        words.sort(key=word_key)
    while len(src) < len(dst):
        grow(src)
    while len(dst) < len(src):
        grow(dst)
    return [backend.piece_between(u, v) for u, v in zip(src, dst)]


def exact_swap_involution(backend: BackendId, A: ClopenSet, B: ClopenSet) -> GroupElement:
    """The involution that maps A exactly onto B, fixes A n B and
    everything outside A u B.

    Odometer: requires mu(A) = mu(B) exactly.  Full shift: requires the
    symmetric difference halves to be prefix-exchange equivalent.
    """
    backend.check_sets(A, B)
    if not backend.measure_equal(A, B):
        raise PreconditionError(
            f"exact swap needs equal measures, got {A.measure()} vs {B.measure()}")
    A1 = A - B
    B1 = B - A
    if A1.is_empty() and B1.is_empty():
        return identity(backend)
    if A1.is_empty() or B1.is_empty():
        raise PreconditionError("exact swap needs both A\\B and B\\A nonempty")
    alpha = involution_from_partial(backend, matching_pieces(backend, A1, B1))
    _require(image_of_clopen(alpha, A) == B, "swap image is not exactly B")
    _require(compose(alpha, alpha).is_identity(), "swap is not an involution")
    _require(support(alpha) == A1 | B1, "swap support is not the symmetric difference")
    return alpha


def full_group_transfer(backend: BackendId, A: ClopenSet, B: ClopenSet) -> TransferResult:
    """An element alpha with alpha(A) inside B.

    If B \\ A is nonempty (always on the odometer), alpha is an
    involution supported in A u alpha(A).  If B is contained in A
    (possible only without invariant measures), alpha is a composition
    of two involutions built inside the complement of a reserved
    cylinder, so that A u supp(alpha) is not the whole space.
    """
    backend.check_sets(A, B)
    if A.is_whole():
        raise PreconditionError("transfer source must not be the whole space")
    if B.is_empty():
        raise PreconditionError("transfer target must be nonempty")
    if not backend.measure_below(A, B):
        raise PreconditionError(
            f"transfer unavailable: mu(A)={A.measure()} is not below mu(B)={B.measure()}")
    if A.is_subset(B):
        return TransferResult(identity(backend), None, INVOLUTION_SMALL_SUPPORT)
    if not (B - A).is_empty():
        alpha = _transfer_involution(backend, A, B)
        image = image_of_clopen(alpha, A)
        _require(image.is_subset(B), "transfer image escapes the target")
        _require(compose(alpha, alpha).is_identity(), "transfer is not an involution")
        _require(support(alpha).is_subset(A | image), "transfer support too large")
        return TransferResult(alpha, None, INVOLUTION_SMALL_SUPPORT)
    # inside case: B properly contained in A (full shift only)
    reserved = proper_subcylinder(A.complement())
    outside = A.complement() - reserved
    alpha2 = _transfer_involution(backend, A, outside)
    alpha1 = _transfer_involution(backend, outside, B)
    alpha = compose(alpha1, alpha2)
    image = image_of_clopen(alpha, A)
    _require(image.is_subset(B), "inside-case transfer image escapes the target")
    _require(not (A | support(alpha)).is_whole(),
             "inside-case transfer does not avoid the reserved cylinder")
    return TransferResult(alpha, None, INSIDE_CASE_SUPPORT_BOUND)


def _transfer_involution(backend: BackendId, A: ClopenSet, B: ClopenSet) -> GroupElement:
    """The sigma_U | sigma_U^-1 | id involution for U = compare(A\\B, B\\A)."""
    A1 = A - B
    if A1.is_empty():
        return identity(backend)
    U = compare_clopen(backend, A1, B - A)
    return involution_from_partial(backend, list(U.pieces))


def commutator_transfer(backend: BackendId, A: ClopenSet, B: ClopenSet) -> TransferResult:
    """A derived-subgroup element gamma = [alpha, beta] with gamma(A)
    inside B, built from two transfer involutions.

    Outside case: gamma cyclically permutes A\\B, alpha(A\\B), beta(A\\B)
    and fixes A n B, so gamma(A) and gamma^2(A) both land in B and the
    support stays inside A u gamma(A) u gamma^2(A).  Inside case (full
    shift): both involutions avoid a reserved cylinder, keeping
    A u supp(gamma) proper.
    """
    backend.check_sets(A, B)
    if A.is_whole():
        raise PreconditionError("transfer source must not be the whole space")
    if B.is_empty():
        raise PreconditionError("transfer target must be nonempty")
    if not backend.measure_below(A, B, factor=3):
        raise PreconditionError(
            f"commutator transfer needs 3*mu(A) < mu(B), got {A.measure()} vs {B.measure()}")
    A1 = A - B
    if A1.is_empty():
        return TransferResult(identity(backend), DerivedWitness(()), COMMUTATOR_CYCLIC)
    if not (B - A).is_empty():
        B1 = B - A
        target = B1
        if not backend.is_odometer:
            # keep part of the target free so beta has room
            target = B1 - proper_subcylinder(B1)
        alpha = full_group_transfer(backend, A1, target).element
        beta = full_group_transfer(backend, A1, B1 - image_of_clopen(alpha, A1)).element
        gamma, witness = commutator(alpha, beta)
        _require(gamma == compose(beta, alpha), "commutator does not reduce to beta*alpha")
        g1 = image_of_clopen(gamma, A)
        g2 = image_of_clopen(gamma, g1)
        _require(g1.is_subset(B) and g2.is_subset(B), "cyclic transfer escapes the target")
        _require(support(gamma).is_subset(A | g1 | g2), "cyclic transfer support too large")
        return TransferResult(gamma, witness, COMMUTATOR_CYCLIC)
    # inside case: B properly contained in A (full shift only)
    first = full_group_transfer(backend, A, B)
    alpha = first.element
    A2 = A | support(alpha)
    _require(not A2.is_whole(), "inside-case transfer support filled the space")
    reserved = proper_subcylinder(A2.complement())
    beta = _transfer_involution(backend, A2, A2.complement() - reserved)
    gamma, witness = commutator(alpha, beta)
    _require(image_of_clopen(gamma, A).is_subset(B), "inside-case commutator escapes B")
    _require(not (A | support(gamma)).is_whole(),
             "inside-case commutator support filled the space")
    return TransferResult(gamma, witness, COMMUTATOR_INSIDE_CASE)


@dataclass(frozen=True)
class GWState:
    """Truncated intertwining state: the partial involution built so
    far together with the residual neighbourhoods of the two anchors."""

    round: int
    partial: GroupElement
    residual_a: ClopenSet
    residual_b: ClopenSet
    anchor_a: PointName
    anchor_b: PointName


def _anchor_depth(backend: BackendId, res: ClopenSet, anchor: PointName,
                  n: int, below: Fraction) -> int:
    """Depth of a round-n anchor cylinder: one level deeper than the
    diameter requirement, properly inside the residual, and (on the
    odometer) of measure strictly below `below`.  Used for the kept
    neighbourhood (below half the residual measure) and for the
    opposite-anchor cylinder excluded from the transfer target (below
    the measure of the kept neighbourhood)."""
    fit = res.word_containing(anchor)
    if fit is None:
        raise PreconditionError("anchor escaped its residual neighbourhood")
    d = max(n + 1, len(fit) + 1)
    if backend.is_odometer:
        d = max(d, depth_for_measure_below(backend.base, below))
    return d


def gw_intertwining(backend: BackendId, A: ClopenSet, B: ClopenSet,
                    rounds: int) -> GWState:
    """Run the alternating annulus-transfer construction for `rounds`
    rounds, swapping ever larger portions of A\\B and B\\A while the
    residual neighbourhoods of the two anchors shrink.

    At every round n the support of the new involution is contained in
    the two annuli, the transferred annulus image is exactly the
    residual complement on the other side, and the source-side residual
    is a cylinder whose diameter bound is below 2**(1-n).
    """
    backend.check_sets(A, B)
    if rounds < 0:
        raise PreconditionError("rounds must be nonnegative")
    if not backend.measure_equal(A, B):
        raise PreconditionError("intertwining needs exactly equal measures")
    At = A - B
    Bt = B - A
    if At.is_empty() or Bt.is_empty():
        raise PreconditionError("intertwining needs both A\\B and B\\A nonempty")
    anchor_a = PointName.zeros_tail(A.base, At.pick().word)
    anchor_b = PointName.zeros_tail(B.base, Bt.pick().word)
    partial = identity(backend)
    res_a, res_b = At, Bt
    state = GWState(0, partial, A, B, anchor_a, anchor_b)
    for n in range(1, rounds + 1):
        if n % 2 == 1:
            src_res, src_anchor = res_a, anchor_a
            dst_res, dst_anchor = res_b, anchor_b
        else:
            src_res, src_anchor = res_b, anchor_b
            dst_res, dst_anchor = res_a, anchor_a
        kept = ClopenSet.from_words(
            backend.base,
            [src_anchor.prefix(_anchor_depth(backend, src_res, src_anchor, n,
                                             src_res.volume() / 2))])
        annulus = src_res - kept
        excluded = ClopenSet.from_words(
            backend.base,
            [dst_anchor.prefix(_anchor_depth(backend, dst_res, dst_anchor, n,
                                             kept.volume()))])
        step = full_group_transfer(backend, annulus, dst_res - excluded)
        image = image_of_clopen(step.element, annulus)
        _require(support(step.element).is_subset(annulus | image),
                 "round involution support escaped the annuli")
        if n % 2 == 1:
            res_a, res_b = kept, dst_res - image
        else:
            res_a, res_b = dst_res - image, kept
        partial = compose(step.element, partial)
        state = GWState(n, partial, res_a, res_b, anchor_a, anchor_b)
        _require(res_a.contains_point(anchor_a) and res_b.contains_point(anchor_b),
                 "anchors escaped their residuals")
        _require(Fraction(state.residual_a.diameter_bound().fraction) < Fraction(2) ** (1 - n),
                 "residual diameter bound violated")
    return state
