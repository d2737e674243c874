"""Small-support decomposition and the proper-support splitting."""

from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest

from fullgroup import certificates, decompose
from fullgroup.backends import FullShift, Odometer, OdometerPiece, Piece
from fullgroup.clopen import ClopenSet, depth_for_measure_below
from fullgroup.certificates import split_nontrivial_support, verify_certificate
from fullgroup.decompose import (decompose_small_support, displaced_set,
                                 separated_cylinder)
from fullgroup.elements import (compose, element_from_pieces, equals,
                                identity, image_of_clopen, inverse, restrict,
                                support)
from fullgroup.encoding import parse_clopen, parse_element
from fullgroup.errors import PostconditionError, PreconditionError
from fullgroup.randomize import random_element, substream

from conftest import _acting_piece, apply_piece, bitmap, clopen_bitmap


def cs(base, *words):
    return ClopenSet.from_words(base, words)


def full_flip(base=2):
    return element_from_pieces(
        FullShift(base), [Piece((0,), (1,)), Piece((1,), (0,))],
        fill_identity=True)


def odo_flip():
    return element_from_pieces(
        Odometer(2), [OdometerPiece((0,), 1), OdometerPiece((1,), -1)],
        fill_identity=True)


ALL_BACKENDS = [Odometer(2), FullShift(2), Odometer(3), FullShift(3)]


class TestSeparatedCylinder:
    def test_odometer_flip(self):
        A = separated_cylinder(odo_flip())
        image = image_of_clopen(odo_flip(), A)
        assert A.intersect(image).is_empty()
        assert not (A | image).is_whole()

    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            separated_cylinder(identity(Odometer(2)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_guarantees_hold_below_the_cylinder(self, backend):
        # split descends from A to [A.0^k]; each must stay separated
        rng = substream(36, f"separated:{backend.tag}")
        for _ in range(20):
            tau = random_element(rng, backend, 3, nontrivial=True)
            word = separated_cylinder(tau).words[0]
            for k in range(5):
                A = cs(backend.base, word + (0,) * k)
                image = image_of_clopen(tau, A)
                assert image == ClopenSet.from_words(
                    backend.base, pointwise_image_words(tau, A))
                assert A.intersect(image).is_empty()
                assert len(A.words[0]) >= 2
                assert all(len(w) >= 2 for w in image.words)
                assert not (A | image).is_whole()

    def test_nested_shift_piece(self):
        # source a prefix of target: the single fixed point must be avoided
        e = element_from_pieces(FullShift(2), [
            Piece((0,), (0, 0)), Piece((1, 0), (0, 1)),
            Piece((1, 1), (1,))], fill_identity=False)
        A = separated_cylinder(e)
        assert A.intersect(image_of_clopen(e, A)).is_empty()


def pointwise_image_words(tau, A):
    """Image words of A pushed cylinder by cylinder through the piece
    acting on it, at the depth of tau's deepest source."""
    depth = max(A.max_depth(), max(len(p.source) for p in tau.pieces))
    out = []
    for w in A.refine_to(depth):
        out.append(apply_piece(_acting_piece(tau, w), w, A.base))
    return out


class TestDisplacedSet:
    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            displaced_set(identity(Odometer(3)))

    def test_rotation_grows_past_one_cylinder(self):
        rotation = element_from_pieces(Odometer(2), [OdometerPiece((), 1)])
        C = displaced_set(rotation)
        assert C.volume() > separated_cylinder(rotation).volume()

    def test_mixed_depth_support_stays_shallow(self):
        # tau swaps [00] with [10] and two depth-40 cylinders; refining the
        # whole support below its deepest word would draw ~2^41 candidates
        deep = (0, 1) + (0,) * 38
        tau = element_from_pieces(Odometer(2), [
            OdometerPiece((0, 0), 1), OdometerPiece((1, 0), -1),
            OdometerPiece(deep, 1), OdometerPiece((1,) + deep[1:], -1)],
            fill_identity=True)
        assert support(tau).max_depth() == 40
        C = displaced_set(tau)
        assert separated_cylinder(tau).is_subset(C)
        assert C.max_depth() <= separated_cylinder(tau).max_depth() + 3
        image = image_of_clopen(tau, C)
        assert C.intersect(image).is_empty() and not (C | image).is_whole()

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_postconditions_against_bitmaps(self, backend):
        rng = substream(35, f"displaced:{backend.tag}")
        # shift images can be much deeper than their sources, and bitmaps
        # cost base**depth, so shift elements are drawn one level shallower
        max_depth = 3 if backend.is_odometer else 2
        for _ in range(20):
            tau = random_element(rng, backend, max_depth, nontrivial=True)
            C = displaced_set(tau)
            assert displaced_set(tau) == C
            assert separated_cylinder(tau).is_subset(C)
            image = pointwise_image_words(tau, C)
            depth = max([C.max_depth()] + [len(w) for w in image])
            c_bits = clopen_bitmap(C, depth)
            image_bits = bitmap(image, backend.base, depth)
            assert c_bits
            assert not c_bits & image_bits
            assert len(c_bits | image_bits) < backend.base ** depth


class TestDecompose:
    def test_identity_empty(self):
        res = decompose_small_support(identity(Odometer(2)), Fraction(1, 4))
        assert res.factors == () and res.bounds == ()

    def test_odometer_flip_three_eighths(self):
        alpha = odo_flip()
        res = decompose_small_support(alpha, Fraction(3, 8))
        prod = reduce(compose, res.factors, identity(Odometer(2)))
        assert equals(prod, alpha)
        assert all(b.volume() < Fraction(3, 8) for b in res.bounds)
        assert all(b.is_proper() for b in res.bounds)
        assert all(support(f).is_subset(b)
                   for f, b in zip(res.factors, res.bounds))

    def test_shift_two_factors(self):
        alpha = full_flip()
        res = decompose_small_support(alpha)
        assert len(res.factors) == 2
        prod = reduce(compose, res.factors, identity(FullShift(2)))
        assert equals(prod, alpha)
        assert all(b.is_proper() for b in res.bounds)

    def test_epsilon_required_on_odometer(self):
        with pytest.raises(PreconditionError):
            decompose_small_support(odo_flip(), None)
        with pytest.raises(PreconditionError):
            decompose_small_support(odo_flip(), Fraction(0))

    @pytest.mark.parametrize("alpha", [full_flip(), identity(FullShift(2)),
                                       identity(Odometer(2))],
                             ids=["shift-flip", "shift-identity", "odo-identity"])
    def test_nonpositive_epsilon_refused_on_every_backend(self, alpha):
        for eps in (Fraction(0), Fraction(-1)):
            with pytest.raises(PreconditionError, match="epsilon > 0"):
                decompose_small_support(alpha, eps)

    def test_measure_value_epsilon_accepted(self):
        res = decompose_small_support(odo_flip(), Fraction(1, 4))
        assert res.epsilon == Fraction(1, 4)

    def test_residual_telescoping(self):
        # replay the peeling loop: after each factor the residual must be
        # the identity on everything peeled so far.  The peeled cell is the
        # first partition cell of its bound, since the residual fixes every
        # earlier cell and so maps the rest of the space onto itself.
        alpha = random_element(substream(31, "tele"), Odometer(2), 4,
                               nontrivial=True)
        eps = Fraction(1, 4)
        depth = max(2, depth_for_measure_below(2, eps / 2))
        res = decompose_small_support(alpha, eps)
        residual = alpha
        cleared = ClopenSet.empty(2)
        for factor, bound in zip(res.factors, res.bounds):
            residual = compose(inverse(factor), residual)
            cleared = cleared | cs(2, bound.refine_to(depth)[0])
            assert support(residual).intersect(cleared).is_empty()
        assert residual.is_identity()
        assert len(res.factors) > 1

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_reconstruction(self, backend):
        rng = substream(32, f"dec:{backend.tag}")
        for i in range(30):
            alpha = random_element(rng, backend, 4, nontrivial=True)
            eps = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)][i % 3]
            res = decompose_small_support(alpha, eps)
            prod = reduce(compose, res.factors, identity(backend))
            assert equals(prod, alpha)
            assert all(b.is_proper() for b in res.bounds)
            assert all(support(f).is_subset(b)
                       for f, b in zip(res.factors, res.bounds))
            if backend.is_odometer:
                assert all(b.volume() < eps for b in res.bounds)


GOLDEN_ALPHA = "elem:odo2:[(00;+2),(01;-2),(1;+0)]"


def sweep_reference(alpha, eps):
    """The cell sweep the decomposition walk replaced, as the oracle: it
    visits every cell of the partition in lexicographic order and peels
    each one the residual moves."""
    base, backend = alpha.base, alpha.backend
    depth = max(2, depth_for_measure_below(base, eps / 2))
    factors, bounds = [], []
    residual = alpha
    peeled = ClopenSet.empty(base)
    for cell_word in ClopenSet.whole(base).refine_to(depth):
        inside = restrict(residual, cell_word)
        if all(p.is_identity() for p in inside):
            continue                  # supp(residual) misses the cell
        cell = ClopenSet.from_words(base, [cell_word])
        moved = ClopenSet.from_words(base, [p.target for p in inside])
        pieces = inside + backend.pair_onto(moved - cell, cell - moved)
        factor = element_from_pieces(backend, pieces, fill_identity=True)
        bound = cell | moved
        assert support(factor).is_subset(bound) and bound.volume() < eps
        factors.append(factor)
        bounds.append(bound)
        residual = compose(inverse(factor), residual)
        peeled = peeled | cell
        assert support(residual).intersect(peeled).is_empty()
    assert residual.is_identity()
    return tuple(factors), tuple(bounds)


class TestDecompositionWalk:
    @pytest.mark.parametrize("backend", [Odometer(2), Odometer(3)],
                             ids=lambda b: b.tag)
    def test_matches_the_sweep(self, backend):
        rng = substream(37, f"walk:{backend.tag}")
        epsilons = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64)]
        for i in range(400):
            alpha = random_element(rng, backend, 4, nontrivial=True)
            eps = epsilons[i % 4]
            res = decompose_small_support(alpha, eps)
            assert (res.factors, res.bounds) == sweep_reference(alpha, eps)

    def test_golden_alpha_matches_the_sweep(self):
        alpha, eps = parse_element(GOLDEN_ALPHA), Fraction(1, 512)
        res = decompose_small_support(alpha, eps)
        assert (res.factors, res.bounds) == sweep_reference(alpha, eps)

    def test_one_restrict_per_factor(self, monkeypatch):
        # the sweep restricted the residual to all 8192 cells at depth 13;
        # the walk restricts it once per moved cell it peels
        calls = []
        real = decompose.restrict

        def counted(elem, word):
            calls.append(word)
            return real(elem, word)

        monkeypatch.setattr(decompose, "restrict", counted)
        res = decompose_small_support(parse_element(GOLDEN_ALPHA), Fraction(1, 2048))
        assert len(res.factors) == 2048
        assert len(calls) == len(res.factors)
        assert calls == sorted(calls)

    def test_unchanged_residual_is_reentry(self, monkeypatch):
        monkeypatch.setattr(decompose, "compose", lambda f, g: g)
        with pytest.raises(PostconditionError, match="re-entered a peeled cell"):
            decompose_small_support(parse_element(GOLDEN_ALPHA), Fraction(1, 8))

    def test_moved_skipped_cell_is_reentry_at_once(self, monkeypatch):
        # alpha moves only [1]; after the first factor the golden alpha, a
        # swap of [00] and [01], cells the walk passed over, is slipped in
        alpha = parse_element("elem:odo2:[(0;+0),(10;+2),(11;-2)]")
        swap = parse_element(GOLDEN_ALPHA)
        real = decompose.compose
        composed = []

        def slipped(f, g):
            composed.append(f)
            return real(swap, real(f, g)) if len(composed) == 1 else real(f, g)

        monkeypatch.setattr(decompose, "compose", slipped)
        with pytest.raises(PostconditionError, match="re-entered a peeled cell"):
            decompose_small_support(alpha, Fraction(1, 8))
        assert len(composed) == 1

    def test_factor_outside_its_bound_is_named(self, monkeypatch):
        monkeypatch.setattr(decompose, "support", lambda f: ClopenSet.whole(f.base))
        with pytest.raises(PostconditionError, match="escaped its bound"):
            decompose_small_support(parse_element(GOLDEN_ALPHA), Fraction(1, 8))


# shift2 elements on which 1 - mu(A) - mu(tau A) - mu(tau^-1 A) is
# exactly 0 for the Bernoulli mu: a split that budgeted by a measure the
# shift does not preserve had no room on them
ZERO_BUDGET = [
    "elem:shift2:[(00>1),(010>0000),(0110>001),(0111>01),(1>0001)]",
    "elem:shift2:[(00>1),(010>0000),(0110>01),(0111>001),(1>0001)]",
    "elem:shift2:[(00>1),(010>0001),(0110>001),(0111>01),(1>0000)]",
    "elem:shift2:[(00>1),(010>0001),(0110>01),(0111>001),(1>0000)]",
    "elem:shift2:[(00>1),(0100>001),(0101>01),(011>0000),(1>0001)]",
    "elem:shift2:[(00>1),(0100>001),(0101>01),(011>0001),(1>0000)]",
    "elem:shift2:[(00>1),(0100>01),(0101>001),(011>0000),(1>0001)]",
    "elem:shift2:[(00>1),(0100>01),(0101>001),(011>0001),(1>0000)]",
]


def partitions(base, max_words):
    """Every partition of the space into at most max_words cylinders."""
    found = {((),)}
    frontier = [((),)]
    while frontier:
        words = frontier.pop()
        if len(words) + base - 1 > max_words:
            continue
        for i, w in enumerate(words):
            split = tuple(sorted(words[:i] + words[i + 1:]
                                 + tuple(w + (a,) for a in range(base))))
            if split not in found:
                found.add(split)
                frontier.append(split)
    return sorted(found)


def check_split(tau):
    res = split_nontrivial_support(tau)
    assert equals(compose(res.tau1, res.tau2), tau)
    assert not support(res.tau1).is_whole()
    assert not support(res.tau2).is_whole()
    assert verify_certificate(res.certificate, res.environment, res.tau1)


class TestSplit:
    def test_full_flip(self):
        tau = full_flip()
        res = split_nontrivial_support(tau)
        assert equals(compose(res.tau1, res.tau2), tau)
        assert not support(res.tau1).is_whole()
        assert not support(res.tau2).is_whole()

    def test_certificate_evaluates_to_tau1(self):
        res = split_nontrivial_support(full_flip())
        assert equals(res.certificate.evaluate(res.environment), res.tau1)
        assert len(res.certificate.factors) == 2
        signs = [f.sign for f in res.certificate.factors]
        assert signs == [1, -1]

    def test_support_omits_shrunk_annulus(self):
        # supp(tau1) misses A \ A0 from the construction trace
        for backend in ALL_BACKENDS:
            rng = substream(33, f"splitA:{backend.tag}")
            tau = random_element(rng, backend, 3, nontrivial=True)
            res = split_nontrivial_support(tau)
            A = parse_clopen(res.trace["separating"])
            A0 = parse_clopen(res.trace["shrunk"])
            assert support(res.tau1).intersect(A - A0).is_empty()

    def test_identity_rejected(self):
        with pytest.raises(PreconditionError):
            split_nontrivial_support(identity(FullShift(2)))

    def test_overlapping_own_pieces_are_a_postcondition_error(self, monkeypatch):
        # restrict reporting each piece twice makes sigma1's pieces overlap,
        # pieces the split built itself: a bug, not the caller's error
        real = certificates.restrict
        monkeypatch.setattr(certificates, "restrict", lambda elem, word: 2 * real(elem, word))
        with pytest.raises(PostconditionError, match="sigma1 pieces overlap"):
            split_nontrivial_support(full_flip())

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized(self, backend):
        rng = substream(34, f"split:{backend.tag}")
        for _ in range(15):
            tau = random_element(rng, backend, 4, nontrivial=True)
            res = split_nontrivial_support(tau)
            assert equals(compose(res.tau1, res.tau2), tau)
            assert not support(res.tau1).is_whole()
            assert not support(res.tau2).is_whole()
            assert equals(res.certificate.evaluate(res.environment), res.tau1)
            if backend.is_odometer:
                A = parse_clopen(res.trace["separating"])
                assert A.volume() < Fraction(1, 16)

    @pytest.mark.parametrize("text", ZERO_BUDGET)
    def test_zero_budget_elements(self, text):
        check_split(parse_element(text))

    def test_every_small_shift2_element(self):
        backend = FullShift(2)
        parts = partitions(2, 4)
        seen = set()
        for sources in parts:
            for targets in (t for t in parts if len(t) == len(sources)):
                for order in permutations(targets):
                    tau = element_from_pieces(
                        backend, [Piece(u, v) for u, v in zip(sources, order)])
                    if not tau.is_identity() and tau.pieces not in seen:
                        seen.add(tau.pieces)
                        check_split(tau)
        assert len(seen) == 551
