"""Decomposition into small-support factors and the normal splitting.

`decompose_small_support` factors any element into pieces supported in
proper clopen sets (of measure below a prescribed epsilon on the
odometer).  `split_nontrivial_support` writes any nontrivial element as
a product of two elements with proper supports, together with a
two-conjugate certificate for the first factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .clopen import ClopenSet
from .elements import (GroupElement, commutator, compose,
                       element_from_pieces, image_of_clopen, inverse,
                       involution_from_partial, restrict, support)
from .errors import PostconditionError, PreconditionError
from .measure import depth_for_measure_below
from .transfers import (commutator_transfer, full_group_transfer,
                        matching_pieces, proper_subcylinder)


@dataclass(frozen=True)
class DecompositionResult:
    factors: tuple[GroupElement, ...]
    bounds: tuple[ClopenSet, ...]
    epsilon: Fraction | None


@dataclass(frozen=True)
class SplitResult:
    tau1: GroupElement
    tau2: GroupElement
    certificate: "ConjugateProduct"
    environment: "Environment"
    trace: dict = field(compare=False)


def separated_cylinder(tau: GroupElement, *,
                       volume_bound: Fraction = Fraction(1),
                       extra_depth: int = 0) -> ClopenSet:
    """A deterministic cylinder A with A disjoint from tau(A), both of
    depth at least two, A u tau(A) proper, and mu(A) < volume_bound.

    Starts from the word the first moved piece of tau moves off itself
    and descends lexicographically (always appending digit 0); freeness
    of the odometer and the locality of shift pieces guarantee
    termination.
    """
    if tau.is_identity():
        raise PreconditionError("the identity has no moved cylinder")
    base = tau.base
    piece = next(p for p in tau.pieces if not p.is_identity())
    word = piece.separated_word(base)
    for _ in range(extra_depth):
        word = word + (0,)
    while True:
        A = ClopenSet.from_words(base, [word])
        image = image_of_clopen(tau, A)
        if (A.intersect(image).is_empty()
                and len(word) >= 2
                and all(len(w) >= 2 for w in image.words)
                and A.volume() < volume_bound
                and not (A | image).is_whole()):
            return A
        word = word + (0,)


def decompose_small_support(alpha: GroupElement,
                            epsilon: Fraction | None = None) -> DecompositionResult:
    """Write alpha as a left-to-right product of factors with proper
    clopen support bounds; on the odometer each bound has measure
    strictly below epsilon.

    On the full shift epsilon is ignored (there is no invariant
    measure) and a two-factor decomposition through a moved cylinder is
    returned.
    """
    backend = alpha.backend
    if alpha.is_identity():
        return DecompositionResult((), (), _as_fraction(epsilon))
    if backend.is_odometer:
        eps = _as_fraction(epsilon)
        if eps is None or eps <= 0:
            raise PreconditionError("odometer decomposition needs epsilon > 0")
        return _decompose_odometer(alpha, eps)
    return _decompose_shift(alpha)


def _as_fraction(epsilon) -> Fraction | None:
    if epsilon is None:
        return None
    if hasattr(epsilon, "fraction"):
        return epsilon.fraction
    return Fraction(epsilon)


def _decompose_odometer(alpha: GroupElement, eps: Fraction) -> DecompositionResult:
    base = alpha.base
    backend = alpha.backend
    # partition depth: cells measure below eps/2, and at least 2 so that
    # each bound A_i u residual(A_i) stays proper
    depth = max(2, depth_for_measure_below(base, eps / 2))
    factors: list[GroupElement] = []
    bounds: list[ClopenSet] = []
    residual = alpha
    peeled = ClopenSet.empty(base)
    for cell_word in sorted(ClopenSet.whole(base).refine_to(depth)):
        cell = ClopenSet.from_words(base, [cell_word])
        moved = image_of_clopen(residual, cell)
        if residual.is_identity() or support(residual).intersect(cell).is_empty():
            continue
        extra = cell - moved          # A_i' : needs to receive the swap-back
        surplus = moved - cell        # B_i' : image overflow outside the cell
        pieces = restrict(residual, cell_word) + matching_pieces(backend, surplus, extra)
        factor = element_from_pieces(backend, pieces, fill_identity=True)
        bound = cell | moved
        if factor.is_identity():
            continue
        if not support(factor).is_subset(bound):
            raise PostconditionError("peeled factor escaped its bound")
        if not bound.volume() < eps:
            raise PostconditionError("bound measure reached epsilon")
        factors.append(factor)
        bounds.append(bound)
        residual = compose(inverse(factor), residual)
        peeled = peeled | cell
        if not support(residual).intersect(peeled).is_empty():
            raise PostconditionError("residual support re-entered a peeled cell")
    if not residual.is_identity():
        raise PostconditionError("decomposition left a nontrivial residual")
    return DecompositionResult(tuple(factors), tuple(bounds), eps)


def _decompose_shift(alpha: GroupElement) -> DecompositionResult:
    backend = alpha.backend
    A = separated_cylinder(alpha)
    image = image_of_clopen(alpha, A)
    inside = restrict(alpha, A.words[0])
    alpha1 = involution_from_partial(backend, inside)
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


def split_nontrivial_support(tau: GroupElement) -> SplitResult:
    """Split a nontrivial tau as tau1 * tau2 with both supports proper.

    tau1 is produced as a commutator conjugate of tau and comes with the
    two-conjugate certificate tau1 = (sigma gamma^-1) tau (sigma gamma^-1)^-1
    * gamma^-1 tau^-1 gamma over explicitly synthesized derived-subgroup
    elements sigma and gamma.
    """
    from .certificates import ConjugateFactor, ConjugateProduct, Environment, GroupWord

    if tau.is_identity():
        raise PreconditionError("cannot split the identity")
    backend = tau.backend
    base = tau.base
    bound = Fraction(1, 16) if backend.is_odometer else Fraction(1, 4)
    # shrink A until the three translates leave room for both the parked
    # copy of tau(A) and the clearing region C
    extra = 0
    while True:
        A = separated_cylinder(tau, volume_bound=bound, extra_depth=extra)
        tau_A = image_of_clopen(tau, A)
        tau_inv_A = image_of_clopen(inverse(tau), A)
        budget = 1 - A.volume() - tau_A.volume() - tau_inv_A.volume()
        if budget > 0:
            break
        extra += 1
    # sigma0 moves tau(A) off A u tau(A); on the shift the target is a
    # deepened cylinder so the union of the four sets stays proper
    outside = (A | tau_A).complement()
    if backend.is_odometer:
        target = outside
    else:
        word = outside.pick().word
        while Fraction(1, base ** len(word)) >= budget:
            word = word + (0,)
        target = ClopenSet.from_words(base, [word])
    sigma0 = full_group_transfer(backend, tau_A, target).element
    B = image_of_clopen(sigma0, tau_A)
    C = (A | tau_A | tau_inv_A | B).complement()
    if C.is_empty():
        raise PostconditionError("no room left for the clearing transfer")
    A0 = proper_subcylinder(A)
    tau_A0 = image_of_clopen(tau, A0)
    B0 = image_of_clopen(sigma0, tau_A0)
    sigma1 = involution_from_partial(
        backend, [p for w in A0.words for p in restrict(tau, w)])
    sigma2 = involution_from_partial(
        backend, [p for w in tau_A0.words for p in restrict(sigma0, w)])
    sigma, sigma_witness = commutator(sigma2, sigma1)
    if not sigma == compose(sigma1, sigma2):
        raise PostconditionError("three-cycle does not reduce to sigma1*sigma2")
    gamma_result = commutator_transfer(backend, tau_A | B, C)
    gamma = gamma_result.element
    tau0 = commutator(compose(compose(gamma, sigma), inverse(gamma)), tau)[0]
    tau1 = compose(compose(inverse(gamma), tau0), gamma)
    tau2 = compose(inverse(tau1), tau)
    if support(tau1).is_whole() or support(tau2).is_whole():
        raise PostconditionError("split factors do not have proper support")
    if not compose(tau1, tau2) == tau:
        raise PostconditionError("split product does not reconstruct tau")
    env = Environment(backend)
    env.define("tau", tau)
    env.define("sigma", sigma)
    env.define("gamma", gamma)
    certificate = ConjugateProduct("tau", (
        ConjugateFactor(GroupWord((("sigma", 1), ("gamma", -1))), 1),
        ConjugateFactor(GroupWord((("gamma", -1),)), -1),
    ))
    if not certificate.evaluate(env) == tau1:
        raise PostconditionError("two-conjugate certificate does not evaluate to tau1")
    from .encoding import format_clopen
    trace = {
        "separating": format_clopen(A),
        "shrunk": format_clopen(A0),
        "moved": format_clopen(tau_A),
        "parked": format_clopen(B),
        "cleared": format_clopen(C),
    }
    return SplitResult(tau1, tau2, certificate, env, trace)
