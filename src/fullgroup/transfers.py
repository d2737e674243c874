"""Witness synthesizers: full-group transfers, commutator transfers,
exact swap involutions, and the truncated anchored intertwining.

Every synthesized element is certified against the postconditions of
the construction it realizes at build time; a failure raises
PostconditionError and indicates a bug, never an admissible input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .backends import BackendId, Piece, compare_clopen, source_range
from .clopen import ClopenSet, PointName
from .elements import (GroupElement, commutator, compose, identity, image_of_clopen,
                       involution_from_partial, support)
from .errors import MalformedInput, PostconditionError, PreconditionError

INVOLUTION_SMALL_SUPPORT = "InvolutionSmallSupport"
INSIDE_CASE_SUPPORT_BOUND = "InsideCaseSupportBound"
COMMUTATOR_CYCLIC = "CommutatorCyclic"
COMMUTATOR_INSIDE_CASE = "CommutatorInsideCase"

# Each round refines deeper than the last and costs more, so
# `gw_intertwining` refuses more rounds than this before running any.
MAX_GW_ROUNDS = 64


@dataclass(frozen=True)
class TransferResult:
    element: GroupElement
    # (alpha, beta) with element = [alpha, beta]; None for a full-group transfer
    witness: tuple[GroupElement, GroupElement] | None
    postcondition_tag: str


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PostconditionError(message)


def _check_transfer_sets(backend: BackendId, A: ClopenSet, B: ClopenSet) -> None:
    """The sets every transfer needs: on the backend's base, a source
    that is not the whole space and a nonempty target."""
    backend.check_sets(A, B)
    if A.is_whole():
        raise PreconditionError("transfer source must not be the whole space")
    if B.is_empty():
        raise PreconditionError("transfer target must be nonempty")


def exact_swap_involution(backend: BackendId, A: ClopenSet, B: ClopenSet) -> GroupElement:
    """The involution that maps A exactly onto B, fixes A n B and
    everything outside A u B.

    Odometer: requires mu(A) = mu(B) exactly.  Full shift: requires the
    symmetric difference halves to be prefix-exchange equivalent.
    """
    backend.check_sets(A, B)
    if not backend.measure_equal(A, B):
        raise PreconditionError(
            f"exact swap needs equal measures, got {A.volume_text()} "
            f"vs {B.volume_text()}")
    A1 = A - B
    B1 = B - A
    if A1.is_empty() and B1.is_empty():
        return identity(backend)
    if A1.is_empty() or B1.is_empty():
        raise PreconditionError("exact swap needs both A\\B and B\\A nonempty")
    # mu(A1) = mu(A) - mu(A n B) = mu(B1)
    alpha = involution_from_partial(backend, backend.pair_onto(A1, B1), "swap pieces")
    _require(image_of_clopen(alpha, A) == B, "swap image is not exactly B")
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
    _check_transfer_sets(backend, A, B)
    if not backend.measure_below(A, B):
        raise PreconditionError(
            f"transfer unavailable: mu(A)={A.volume_text()} "
            f"is not below mu(B)={B.volume_text()}")
    if A.is_subset(B):
        return TransferResult(identity(backend), None, INVOLUTION_SMALL_SUPPORT)
    if not B.is_subset(A):
        alpha = _transfer_involution(backend, A, B)
        image = image_of_clopen(alpha, A)
        _require(image.is_subset(B), "transfer image escapes the target")
        _require(support(alpha).is_subset(A | image), "transfer support too large")
        return TransferResult(alpha, None, INVOLUTION_SMALL_SUPPORT)
    # inside case: B properly contained in A (full shift only)
    outside = A.complement() - backend.reserved_cylinder(A.complement())
    alpha2 = _transfer_involution(backend, A, outside)
    alpha1 = _transfer_involution(backend, outside, B)
    alpha = compose(alpha1, alpha2)
    image = image_of_clopen(alpha, A)
    _require(image.is_subset(B), "inside-case transfer image escapes the target")
    _require(not (A | support(alpha)).is_whole(),
             "inside-case transfer does not avoid the reserved cylinder")
    return TransferResult(alpha, None, INSIDE_CASE_SUPPORT_BOUND)


def _transfer_involution(backend: BackendId, A: ClopenSet, B: ClopenSet) -> GroupElement:
    """The sigma_U | sigma_U^-1 | id involution for U = compare(A\\B, B\\A),
    paired by the model as the swap is.  The comparison's gate is not asked
    again: the caller's measure_below(A, B) is mu(A\\B) < mu(B\\A), the inside
    cases run on the shift, where it is vacuous, and every call has A\\B and
    B\\A nonempty.  `involution_from_partial` re-checks the model's rule and every
    source and range overlap, then the involution."""
    return involution_from_partial(backend, backend.pair_into(A - B, B - A), "transfer pieces")


def commutator_transfer(backend: BackendId, A: ClopenSet, B: ClopenSet) -> TransferResult:
    """A derived-subgroup element gamma = [alpha, beta] with gamma(A)
    inside B, built from two transfer involutions.

    Outside case: gamma cyclically permutes A\\B, alpha(A\\B), beta(A\\B)
    and fixes A n B, so gamma(A) and gamma^2(A) both land in B and the
    support stays inside A u gamma(A) u gamma^2(A).  Inside case (full
    shift): both involutions avoid a reserved cylinder, keeping
    A u supp(gamma) proper.
    """
    _check_transfer_sets(backend, A, B)
    if not backend.measure_below(A, B, factor=3):
        raise PreconditionError(
            f"commutator transfer needs 3*mu(A) < mu(B), got {A.volume_text()} "
            f"vs {B.volume_text()}")
    A1 = A - B
    if A1.is_empty():
        e = identity(backend)
        return TransferResult(e, (e, e), COMMUTATOR_CYCLIC)
    if not B.is_subset(A):
        B1 = B - A
        # keep part of the target free so beta has room
        alpha = full_group_transfer(backend, A1,
                                    B1 - backend.reserved_cylinder(B1)).element
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
    reserved = backend.reserved_cylinder(A2.complement())
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
    diameter requirement, properly inside the residual, and of measure
    strictly below `below` for every invariant measure.  Used for the kept
    neighbourhood (below half the residual measure) and for the
    opposite-anchor cylinder excluded from the transfer target (below
    the measure of the kept neighbourhood)."""
    fit = res.word_containing(anchor)
    # the anchors are picked in A\B and B\A, and every round re-checks them
    _require(fit is not None, "anchor escaped its residual neighbourhood")
    return max(n + 1, len(fit) + 1, backend.measure_depth(below))


def gw_intertwining(backend: BackendId, A: ClopenSet, B: ClopenSet,
                    rounds: int) -> GWState:
    """Run the alternating annulus construction for `rounds` rounds,
    swapping ever larger portions of A\\B and B\\A while the residual
    neighbourhoods of the two anchors shrink.

    Round n is one comparison (`compare_clopen`) of the source-side
    annulus, the residual minus a cylinder around its anchor, into the
    other residual minus a cylinder around that anchor; its range then
    leaves that residual, and the source-side residual is a cylinder
    whose diameter bound is below 2**(1-n).  Earlier rounds fix the
    current residuals, so the partial involution, built once after the
    last round, is the rounds' witnesses with their inverses.  A refused
    comparison, a witness leaving its round, or an overlap among all
    rounds' sources and ranges, is a PostconditionError.
    """
    backend.check_sets(A, B)
    if rounds < 0:
        raise PreconditionError("rounds must be nonnegative")
    if rounds > MAX_GW_ROUNDS:
        raise MalformedInput(
            f"{rounds} intertwining rounds are over the limit of {MAX_GW_ROUNDS}")
    if not backend.measure_equal(A, B):
        raise PreconditionError("intertwining needs exactly equal measures")
    At = A - B
    Bt = B - A
    if At.is_empty() or Bt.is_empty():
        raise PreconditionError("intertwining needs both A\\B and B\\A nonempty")
    anchor_a = PointName.zeros_tail(A.base, At.pick())
    anchor_b = PointName.zeros_tail(B.base, Bt.pick())
    if rounds == 0:
        return GWState(0, identity(backend), A, B, anchor_a, anchor_b)
    witnesses: list[Piece] = []
    res, anchors = [At, Bt], (anchor_a, anchor_b)
    for n in range(1, rounds + 1):
        s, d = (0, 1) if n % 2 else (1, 0)
        kept = ClopenSet.from_words(backend.base, [anchors[s].prefix(
            _anchor_depth(backend, res[s], anchors[s], n, res[s].volume() / 2))])
        annulus = res[s] - kept
        excluded = ClopenSet.from_words(backend.base, [anchors[d].prefix(
            _anchor_depth(backend, res[d], anchors[d], n, kept.volume()))])
        target = res[d] - excluded
        try:
            witness = compare_clopen(backend, annulus, target)
        except PreconditionError as err:    # the rounds' measures balance
            raise PostconditionError(f"round {n} comparison refused: {err}") from None
        source, image = source_range(witness)
        _require(source == annulus and image.is_subset(target),
                 "round witness does not map its annulus into its target")
        res[s], res[d] = kept, res[d] - image
        witnesses += witness.pieces
        _require(res[0].contains_point(anchor_a) and res[1].contains_point(anchor_b),
                 "anchors escaped their residuals")
        _require(res[0].diameter_bound() < Fraction(2) ** (1 - n),
                 "residual diameter bound violated")
    partial = involution_from_partial(backend, witnesses, "intertwining rounds")
    return GWState(rounds, partial, res[0], res[1], anchor_a, anchor_b)
