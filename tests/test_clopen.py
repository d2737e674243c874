"""Canonical antichains, Boolean algebra, measure and metric utilities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup.clopen import (ClopenSet, Cylinder, PointName, canonicalize,
                              expand_word)
from fullgroup.errors import MalformedInput, PreconditionError
from fullgroup.measure import MeasureValue, depth_for_measure_below
from fullgroup.randomize import random_clopen

from conftest import clopen_bitmap, same_set


def cs(base, *words):
    return ClopenSet.from_words(base, words)


class TestCanonicalize:
    def test_sibling_completion(self):
        assert cs(2, (0, 0), (0, 1)) == cs(2, (0,))

    def test_prefix_absorption(self):
        assert cs(2, (0,), (0, 1)) == cs(2, (0,))

    def test_whole_space(self):
        assert cs(2, (0,), (1,)).is_whole()

    def test_idempotent_and_order_insensitive(self):
        a = cs(2, (0, 1), (1, 0), (1, 1))
        b = cs(2, (1, 1), (0, 1), (1, 0))
        assert a == b
        assert ClopenSet.from_words(2, a.words) == a

    def test_cylinder_interface(self):
        got = canonicalize([Cylinder(2, (0, 0)), Cylinder(2, (0, 1))])
        assert got == cs(2, (0,))

    def test_mixed_bases_rejected(self):
        with pytest.raises(MalformedInput):
            canonicalize([Cylinder(2, (0,)), Cylinder(3, (0,))])

    def test_bad_digit_rejected(self):
        with pytest.raises(MalformedInput):
            cs(2, (2,))

    @pytest.mark.parametrize("base", [2, 3])
    def test_refined_words_give_the_same_set(self, base):
        rng = random.Random(base)
        for _ in range(200):
            A = random_clopen(rng, base, 4)
            words = []
            for w in A.words:
                extra = rng.randint(0, 3)
                words.extend(expand_word(w, base, len(w) + extra))
                if extra and rng.random() < 0.5:
                    words.append(w)     # absorbs its own refinement
            rng.shuffle(words)
            assert ClopenSet.from_words(base, words).words == A.words


class TestBooleanOps:
    def test_complement_empty(self):
        assert ClopenSet.empty(2).complement().is_whole()

    def test_complement_half(self):
        assert cs(2, (0,)).complement() == cs(2, (1,))

    def test_complement_depth_two(self):
        assert cs(2, (0, 1)).complement() == cs(2, (1,), (0, 0))

    def test_intersect_nested(self):
        assert cs(2, (0,)).intersect(cs(2, (0, 1))) == cs(2, (0, 1))

    def test_intersect_disjoint(self):
        assert cs(2, (0,)).intersect(cs(2, (1,))).is_empty()

    def test_intersect_mixed(self):
        assert cs(2, (0,), (1, 0)).intersect(cs(2, (1,))) == cs(2, (1, 0))

    def test_subset(self):
        assert ClopenSet.empty(2).is_subset(cs(2, (1, 1)))
        assert cs(2, (0, 0)).is_subset(cs(2, (0,)))
        assert not cs(2, (0,)).is_subset(cs(2, (0, 0)))

    def test_base_mismatch(self):
        with pytest.raises(MalformedInput):
            cs(2, (0,)).intersect(cs(3, (0,)))

    def test_complement_of_deep_word(self):
        A = cs(2, (0,) * 5000)
        C = A.complement()
        assert C.words == tuple((0,) * i + (1,) for i in range(5000))
        assert C.complement() == A


def words_in(base):
    return st.lists(
        st.lists(st.integers(0, base - 1), min_size=0, max_size=5).map(tuple),
        min_size=0, max_size=5).map(tuple)


# every example draws its base, so merges of three siblings meet the
# oracles as well as merges of two
two_word_lists = st.sampled_from([2, 3]).flatmap(
    lambda base: st.tuples(st.just(base), words_in(base), words_in(base)))


@settings(max_examples=200, deadline=None)
@given(two_word_lists)
def test_ops_match_bitmap_oracle(case):
    base, aw, bw = case
    A = ClopenSet.from_words(base, aw)
    B = ClopenSet.from_words(base, bw)
    depth = max(A.max_depth(), B.max_depth(), 1)
    am, bm = clopen_bitmap(A, depth), clopen_bitmap(B, depth)
    assert clopen_bitmap(A | B, depth) == am | bm
    assert clopen_bitmap(A & B, depth) == am & bm
    assert clopen_bitmap(A - B, depth) == am - bm
    assert clopen_bitmap(A.complement(), depth) == clopen_bitmap(
        ClopenSet.whole(base), depth) - am
    assert A.is_subset(B) == (am <= bm)


@settings(max_examples=200, deadline=None)
@given(two_word_lists)
def test_canonical_form_is_normal(case):
    base, aw, bw = case
    A = ClopenSet.from_words(base, aw)
    B = ClopenSet.from_words(base, bw)
    assert (A == B) == same_set(A, B)


@settings(max_examples=100, deadline=None)
@given(two_word_lists)
def test_measure_additive_on_disjoint(case):
    base, aw, bw = case
    A = ClopenSet.from_words(base, aw)
    B = ClopenSet.from_words(base, bw)
    A = A - B
    assert (A | B).measure().fraction == A.measure().fraction + B.measure().fraction


class TestMeasure:
    def test_cylinder(self):
        assert cs(2, (0, 1)).measure() == MeasureValue(2, 1, 2)

    def test_sum(self):
        assert cs(2, (0,), (1, 0)).measure().fraction == Fraction(3, 4)

    def test_whole_and_empty(self):
        assert ClopenSet.whole(2).measure().fraction == 1
        assert ClopenSet.empty(2).measure().fraction == 0

    def test_reduction(self):
        v = MeasureValue(2, 2, 2)
        assert (v.numerator, v.exponent) == (1, 1)

    def test_depth_search(self):
        assert depth_for_measure_below(2, Fraction(3, 16)) == 3
        assert depth_for_measure_below(3, Fraction(1, 4)) == 2


class TestDiameter:
    def test_single_cylinder(self):
        assert cs(2, (0, 1)).diameter_bound().fraction == Fraction(1, 4)

    def test_whole(self):
        assert ClopenSet.whole(2).diameter_bound().fraction == 1

    def test_common_prefix(self):
        assert cs(2, (0, 0, 0), (0, 0, 1)).diameter_bound().fraction == Fraction(1, 4)

    def test_empty_raises(self):
        with pytest.raises(PreconditionError):
            ClopenSet.empty(2).diameter_bound()

    def test_small_diameter_small_measure(self):
        # diameter bound <= 2^-n forces measure <= b^-n
        rng = random.Random(0)
        for _ in range(100):
            words = [tuple(rng.randrange(2) for _ in range(rng.randint(1, 5)))
                     for _ in range(rng.randint(1, 4))]
            A = ClopenSet.from_words(2, words)
            n = len(A.common_prefix())
            assert A.measure().fraction <= Fraction(1, 2 ** n)
            assert A.measure().fraction >= Fraction(1, 2 ** A.max_depth())


class TestPick:
    def test_depth_order(self):
        assert cs(2, (1,), (0, 0)).pick().word == (1,)

    def test_lexicographic(self):
        assert cs(2, (0, 1), (1, 0)).pick().word == (0, 1)

    def test_whole(self):
        assert ClopenSet.whole(2).pick().word == ()

    def test_empty_raises(self):
        with pytest.raises(PreconditionError):
            ClopenSet.empty(2).pick()


class TestPointName:
    def test_normalization(self):
        # 011(01)* and 01(10)* name the same point
        assert PointName(2, (0, 1, 1), (0, 1)) == PointName(2, (0, 1), (1, 0))

    def test_primitive_period(self):
        assert PointName(2, (), (0, 1, 0, 1)).period == (0, 1)

    def test_digits(self):
        p = PointName(2, (1,), (0, 1))
        assert p.prefix(5) == (1, 0, 1, 0, 1)

    def test_membership(self):
        p = PointName.zeros_tail(2, (1, 1))
        assert cs(2, (1,)).contains_point(p)
        assert not cs(2, (0,)).contains_point(p)

    def test_add_integer_carry(self):
        # 110000... reads as 3; +1 = 4 = 001000...
        p = PointName.zeros_tail(2, (1, 1))
        assert p.add_integer(1) == PointName.zeros_tail(2, (0, 0, 1))

    def test_add_integer_infinite_carry(self):
        # ...111 + 1 = ...000
        p = PointName(2, (), (1,))
        assert p.add_integer(1) == PointName(2, (), (0,))

    def test_add_negative(self):
        p = PointName(2, (), (0,))
        assert p.add_integer(-1) == PointName(2, (), (1,))

    def test_empty_period_rejected(self):
        with pytest.raises(MalformedInput):
            PointName(2, (0,), ())
