"""Transfer involutions, commutator transfers, exact swaps, intertwining."""

from fractions import Fraction

import pytest

from fullgroup.backends import compare_clopen, full_shift, odometer
from fullgroup.clopen import ClopenSet
from fullgroup.elements import (compose, equals, image_of_clopen, inverse,
                                support)
from fullgroup.errors import MalformedInput, PreconditionError
from fullgroup.randomize import (comparison_pair, substream,
                                 swap_equivalent_pair)
from fullgroup.transfers import (COMMUTATOR_CYCLIC, COMMUTATOR_INSIDE_CASE,
                                 INSIDE_CASE_SUPPORT_BOUND,
                                 INVOLUTION_SMALL_SUPPORT,
                                 commutator_transfer, exact_swap_involution,
                                 full_group_transfer, gw_intertwining)


def cs(base, *words):
    return ClopenSet.from_words(base, words)


ALL_BACKENDS = [odometer(2), full_shift(2), odometer(3), full_shift(3)]

SYNTHESIZERS = {
    "compare_clopen": compare_clopen,
    "exact_swap_involution": exact_swap_involution,
    "full_group_transfer": full_group_transfer,
    "commutator_transfer": commutator_transfer,
    "gw_intertwining": lambda backend, A, B: gw_intertwining(backend, A, B, 2),
}


@pytest.mark.parametrize("backend", [odometer(2), full_shift(2)], ids=lambda b: b.tag)
@pytest.mark.parametrize("name", list(SYNTHESIZERS))
def test_sets_over_another_base_rejected(name, backend):
    # without the base check these sets reach a measure test or a base
    # mismatch further down and fail there, with another error
    A, B = cs(3, (0,)), cs(3, (1,))
    with pytest.raises(MalformedInput, match="^clopen sets do not match the backend base$"):
        SYNTHESIZERS[name](backend, A, B)


class TestFullGroupTransfer:
    def test_odometer_example(self):
        A, B = cs(2, (0, 0)), cs(2, (1,))
        res = full_group_transfer(odometer(2), A, B)
        alpha = res.element
        assert res.postcondition_tag == INVOLUTION_SMALL_SUPPORT
        assert image_of_clopen(alpha, A) == cs(2, (1, 0))
        assert compose(alpha, alpha).is_identity()
        assert support(alpha) == cs(2, (0, 0), (1, 0))
        assert support(alpha).is_subset(A | image_of_clopen(alpha, A))

    def test_subset_gives_identity(self):
        res = full_group_transfer(odometer(2), cs(2, (0, 0)), cs(2, (0,)))
        assert res.element.is_identity()

    def test_shift_inside_case(self):
        A, B = cs(2, (0,)), cs(2, (0, 0))
        res = full_group_transfer(full_shift(2), A, B)
        assert res.postcondition_tag == INSIDE_CASE_SUPPORT_BOUND
        assert image_of_clopen(res.element, A).is_subset(B)
        assert not (A | support(res.element)).is_whole()

    def test_whole_source_rejected(self):
        with pytest.raises(PreconditionError):
            full_group_transfer(full_shift(2), ClopenSet.whole(2), cs(2, (0,)))

    def test_empty_target_rejected(self):
        with pytest.raises(PreconditionError):
            full_group_transfer(odometer(2), cs(2, (0, 0)), ClopenSet.empty(2))

    def test_odometer_measure_precondition(self):
        with pytest.raises(PreconditionError):
            full_group_transfer(odometer(2), cs(2, (0,)), cs(2, (1, 1)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_postconditions(self, backend):
        rng = substream(21, f"fgt:{backend.tag}")
        for _ in range(60):
            A, B = comparison_pair(rng, backend, 5)
            res = full_group_transfer(backend, A, B)
            alpha = res.element
            image = image_of_clopen(alpha, A)
            assert image.is_subset(B)
            if res.postcondition_tag == INVOLUTION_SMALL_SUPPORT:
                assert compose(alpha, alpha).is_identity()
                assert support(alpha).is_subset(A | image)
            else:
                assert res.postcondition_tag == INSIDE_CASE_SUPPORT_BOUND
                assert not backend.is_odometer
                assert not (A | support(alpha)).is_whole()


class TestCommutatorTransfer:
    def test_odometer_cycle(self):
        A, B = cs(2, (0, 0, 0)), cs(2, (1,))
        res = commutator_transfer(odometer(2), A, B)
        gamma = res.element
        assert res.postcondition_tag == COMMUTATOR_CYCLIC
        g1 = image_of_clopen(gamma, A)
        g2 = image_of_clopen(gamma, g1)
        assert g1.is_subset(B) and g2.is_subset(B)
        assert support(gamma).is_subset(A | g1 | g2)
        # gamma cyclically permutes A, gamma(A), gamma^2(A)
        assert image_of_clopen(gamma, g2) == A

    def test_empty_source(self):
        res = commutator_transfer(odometer(2), ClopenSet.empty(2), cs(2, (1,)))
        assert res.element.is_identity()
        assert res.witness is not None and res.witness.factors == ()

    def test_witness_reduces_to_beta_alpha(self):
        # [alpha, beta] = beta alpha for the constructed involutions
        A, B = cs(2, (0, 0, 0)), cs(2, (1,))
        res = commutator_transfer(odometer(2), A, B)
        (alpha, beta), = res.witness.factors
        assert equals(res.element, compose(beta, alpha))

    def test_measure_threshold(self):
        with pytest.raises(PreconditionError):
            commutator_transfer(odometer(2), cs(2, (0, 0)), cs(2, (1,)))

    def test_shift_inside_case(self):
        A, B = cs(2, (0,)), cs(2, (0, 0))
        res = commutator_transfer(full_shift(2), A, B)
        assert res.postcondition_tag == COMMUTATOR_INSIDE_CASE
        assert image_of_clopen(res.element, A).is_subset(B)
        assert not (A | support(res.element)).is_whole()
        assert equals(res.witness.evaluate(full_shift(2)), res.element)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_postconditions(self, backend):
        rng = substream(22, f"ct:{backend.tag}")
        for _ in range(40):
            A, B = comparison_pair(rng, backend, 5, factor=3)
            res = commutator_transfer(backend, A, B)
            gamma = res.element
            g1 = image_of_clopen(gamma, A)
            assert g1.is_subset(B)
            assert res.witness is not None
            assert equals(res.witness.evaluate(backend), gamma)
            if res.postcondition_tag == COMMUTATOR_CYCLIC:
                g2 = image_of_clopen(gamma, g1)
                assert g2.is_subset(B)
                assert support(gamma).is_subset(A | g1 | g2)
            else:
                assert not (A | support(gamma)).is_whole()


class TestExactSwap:
    def test_odometer_example(self):
        A, B = cs(2, (0, 0)), cs(2, (1, 0))
        alpha = exact_swap_involution(odometer(2), A, B)
        assert image_of_clopen(alpha, A) == B
        assert compose(alpha, alpha).is_identity()
        assert support(alpha) == A | B

    def test_equal_sets_identity(self):
        A = cs(2, (0, 1))
        assert exact_swap_involution(odometer(2), A, A).is_identity()

    def test_shift_full_flip(self):
        alpha = exact_swap_involution(full_shift(2), cs(2, (0,)), cs(2, (1,)))
        assert [(p.source, p.target) for p in alpha.pieces] == [((0,), (1,)), ((1,), (0,))]

    def test_shift_unequal_counts(self):
        # one cylinder against two: splitting bridges the count difference (base 2)
        A, B = cs(2, (0, 0)), cs(2, (0, 1), (1, 0))
        alpha = exact_swap_involution(full_shift(2), A, B)
        assert image_of_clopen(alpha, A) == B
        assert compose(alpha, alpha).is_identity()

    def test_shift_congruence_obstruction(self):
        # base 3: one cylinder vs two is unreachable by splitting
        A, B = cs(3, (0,)), cs(3, (1,), (2,))
        with pytest.raises(PreconditionError):
            exact_swap_involution(full_shift(3), A, B)

    def test_odometer_measure_mismatch(self):
        with pytest.raises(PreconditionError):
            exact_swap_involution(odometer(2), cs(2, (0,)), cs(2, (1, 0)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.tag)
    def test_randomized_postconditions(self, backend):
        rng = substream(23, f"swap:{backend.tag}")
        for _ in range(50):
            A, B = swap_equivalent_pair(rng, backend, 5)
            alpha = exact_swap_involution(backend, A, B)
            assert image_of_clopen(alpha, A) == B
            assert compose(alpha, alpha).is_identity()
            assert support(alpha) == (A | B) - (A & B)


class TestIntertwining:
    def test_zero_rounds(self):
        A, B = cs(2, (0, 0)), cs(2, (1, 0))
        state = gw_intertwining(odometer(2), A, B, 0)
        assert state.round == 0
        assert state.partial.is_identity()
        assert (state.residual_a, state.residual_b) == (A, B)

    def test_three_rounds_odometer(self):
        A, B = cs(2, (0, 0)), cs(2, (1, 0))
        state = gw_intertwining(odometer(2), A, B, 3)
        assert state.residual_a.diameter_bound().fraction < Fraction(1, 4)
        assert state.residual_a.contains_point(state.anchor_a)
        assert state.residual_b.contains_point(state.anchor_b)
        # the partial involution swaps the settled regions exactly
        settled_a = A - state.residual_a
        settled_b = B - state.residual_b
        assert image_of_clopen(state.partial, settled_a) == settled_b
        assert compose(state.partial, state.partial).is_identity()

    def test_prefix_property(self):
        A, B = cs(2, (0, 0)), cs(2, (1, 0))
        for backend in (odometer(2), full_shift(2)):
            for k in range(4):
                small = gw_intertwining(backend, A, B, k)
                big = gw_intertwining(backend, A, B, k + 1)
                settled = (A - small.residual_a) | (B - small.residual_b)
                for w in settled.words:
                    region = ClopenSet.from_words(2, [w])
                    assert image_of_clopen(small.partial, region) == \
                        image_of_clopen(big.partial, region)

    def test_overlapping_inputs(self):
        # identity on the intersection, residuals inside the differences
        A, B = cs(2, (0,)), cs(2, (0, 0), (1, 0))
        state = gw_intertwining(odometer(2), A, B, 2)
        inter = A & B
        assert image_of_clopen(state.partial, inter) == inter
        assert state.residual_a.is_subset(A - B)
        assert state.residual_b.is_subset(B - A)

    def test_measure_halving(self):
        A, B = cs(2, (0,)), cs(2, (1,))
        vol = (A - B).volume()
        for n in (1, 2, 3, 4):
            state = gw_intertwining(odometer(2), A, B, n)
            assert state.residual_a.volume() <= vol / 2 ** n
            assert state.residual_a.volume() == state.residual_b.volume()

    def test_per_round_conditions(self):
        for backend in ALL_BACKENDS:
            rng = substream(24, f"gw:{backend.tag}")
            for _ in range(8):
                A, B = swap_equivalent_pair(rng, backend, 4)
                prev = gw_intertwining(backend, A, B, 0)
                for n in range(1, 5):
                    state = gw_intertwining(backend, A, B, n)
                    bound = state.residual_a.diameter_bound().fraction
                    assert bound < Fraction(2) ** (1 - n)
                    step = compose(state.partial, inverse(prev.partial))
                    ann_a = prev.residual_a - state.residual_a
                    ann_b = prev.residual_b - state.residual_b
                    assert image_of_clopen(step, ann_a) == ann_b
                    assert support(step).is_subset(ann_a | ann_b)
                    assert state.residual_a.is_subset(prev.residual_a)
                    assert state.residual_b.is_subset(prev.residual_b)
                    prev = state

    def test_negative_rounds_rejected(self):
        with pytest.raises(PreconditionError):
            gw_intertwining(odometer(2), cs(2, (0, 0)), cs(2, (1, 0)), -1)

    def test_precondition_differences(self):
        with pytest.raises(PreconditionError):
            gw_intertwining(odometer(2), cs(2, (0,)), cs(2, (0,)), 1)
