"""Canonical antichains, Boolean algebra, measure and metric utilities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup.backends import FullShift, Odometer
from fullgroup.clopen import (SHORT_DEPTH, ClopenSet, MeasureValue, PointName,
                             depth_for_measure_below, expand_word, meeting)
from fullgroup.errors import MalformedInput, PreconditionError
from fullgroup.randomize import random_clopen

from conftest import clopen_bitmap, int_word, same_set, word_int


def cs(base, *words):
    return ClopenSet.from_words(base, words)


class TestCanonicalize:
    def test_sibling_completion(self):
        assert cs(2, (0, 0), (0, 1)) == cs(2, (0,))

    def test_prefix_absorption(self):
        assert cs(2, (0,), (0, 1)) == cs(2, (0,))

    def test_whole_space(self):
        assert cs(2, (0,), (1,)).is_whole()

    @pytest.mark.parametrize("base", [2, 3])
    def test_whole_and_empty_are_canonical_as_written(self, base):
        # built without canonicalizing: they equal the checked sets
        assert ClopenSet.whole(base) == ClopenSet(base, ((),)) == cs(base, ())
        assert ClopenSet.empty(base) == ClopenSet(base, ()) == cs(base)

    @pytest.mark.parametrize("make", [ClopenSet.whole, ClopenSet.empty])
    @pytest.mark.parametrize("base", [1, 0, -2])
    def test_whole_and_empty_check_the_base(self, make, base):
        with pytest.raises(MalformedInput, match=f"base must be >= 2, got {base}"):
            make(base)

    @pytest.mark.parametrize("make", [Odometer, FullShift, ClopenSet.whole])
    def test_bases_over_ten_are_refused_when_built(self, make):
        # no encoding writes a digit above 9, so no such base is ever built
        with pytest.raises(MalformedInput, match="base must be <= 10, got 11"):
            make(11)

    def test_idempotent_and_order_insensitive(self):
        a = cs(2, (0, 1), (1, 0), (1, 1))
        b = cs(2, (1, 1), (0, 1), (1, 0))
        assert a == b
        assert ClopenSet.from_words(2, a.words) == a

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

    def test_subset_of_merged_sibling_family(self):
        # the words 00, 010, 011 canonicalize to 0, so [0] has its word
        # as a prefix only after the merge
        assert cs(2, (0,)).is_subset(cs(2, (0, 0), (0, 1, 0), (0, 1, 1)))
        assert cs(2, (0, 0), (0, 1, 0), (0, 1, 1)).is_subset(cs(2, (0,)))

    def test_intersect_whole_returns_the_other_operand(self):
        A = cs(2, (0,), (1, 0))
        assert A & ClopenSet.whole(2) is A and ClopenSet.whole(2) & A is A

    def test_base_mismatch(self):
        with pytest.raises(MalformedInput):
            cs(2, (0,)).intersect(cs(3, (0,)))
        for A, B in ((ClopenSet.whole(2), cs(3, (0,))), (cs(2, (0,)), ClopenSet.whole(3))):
            with pytest.raises(MalformedInput, match="base mismatch"):
                A.intersect(B)
        with pytest.raises(MalformedInput):
            cs(2, (0,)).is_subset(cs(3, (0,)))

    def test_complement_of_deep_word(self):
        A = cs(2, (0,) * 5000)
        C = A.complement()
        assert C.words == tuple((0,) * i + (1,) for i in reversed(range(5000)))
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
    assert A.volume() == Fraction(len(am), base ** depth)
    # these three build their words in canonical form without the
    # canonicalizing constructor; passing through it changes nothing
    for X in (A.complement(), A & B, A - B):
        assert ClopenSet(base, X.words).words == X.words


@pytest.mark.parametrize("base", [2, 3])
def test_merge_walk_matches_bitmap_oracle(base):
    """intersect and is_subset walk both sorted antichains at once;
    against bitmaps on random pairs of up to 24 words, where B is often
    refined from A so nesting and containment are common."""
    rng = random.Random(1000 + base)
    depth = 8 if base == 2 else 6

    def some_words(count):
        return [tuple(rng.randrange(base) for _ in range(rng.randint(2, depth)))
                for _ in range(count)]

    for _ in range(150):
        A = ClopenSet.from_words(base, some_words(rng.randint(0, 24)))
        if rng.random() < 0.5:
            B = ClopenSet.from_words(base, some_words(rng.randint(0, 24)))
        else:
            B = ClopenSet.from_words(base, [
                (w + tuple(some_words(1)[0]))[:depth]
                for w in A.words if rng.random() < 0.8])
        am, bm = clopen_bitmap(A, depth), clopen_bitmap(B, depth)
        for X, Y, xm, ym in ((A, B, am, bm), (B, A, bm, am)):
            assert clopen_bitmap(X & Y, depth) == xm & ym
            assert X.is_subset(Y) == (xm <= ym)
            assert ClopenSet(base, (X & Y).words).words == (X & Y).words


def pairwise_intersect(A, B):
    """Reference intersection by the pairwise scan over all word pairs:
    [u] and [v] meet exactly when one word prefixes the other, and then
    in the longer one."""
    out = []
    for u in A.words:
        for v in B.words:
            k = min(len(u), len(v))
            if u[:k] == v[:k]:
                out.append(u if len(u) >= len(v) else v)
    return ClopenSet.from_words(A.base, out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_prefix_lookup_matches_pairwise_scan(base, data):
    """B has up to 40 words of up to 12 digits, deeper than bitmaps
    reach; A has up to 40 extensions of B's words (cut to 12 digits), so
    containment and nesting are common, plus up to 2 free words.  Each
    operand is stored in lexicographic order, and `meeting` gives the
    index range of exactly the words a linear scan finds meeting a probe:
    those that prefix it or extend it."""
    word = st.integers(0, 12).flatmap(
        lambda n: st.tuples(*[st.integers(0, base - 1)] * n))
    def some(words, most):
        return st.integers(0, most).flatmap(
            lambda n: st.lists(words, min_size=n, max_size=n))
    bw = data.draw(some(word, 40))
    grown = (st.tuples(st.sampled_from(bw), word).map(lambda wt: (wt[0] + wt[1])[:12])
             if bw else word)
    aw = data.draw(some(grown, 40))
    free = data.draw(some(word, 2))
    A = ClopenSet.from_words(base, aw + free)
    B = ClopenSet.from_words(base, bw)
    for X, Y in ((A, B), (B, A)):
        assert X.words == tuple(sorted(X.words))
        for u in Y.words + tuple(free):
            i, j = meeting(X.words, u, base)
            scan = [k for k, w in enumerate(X.words) if u[:len(w)] == w or w[:len(u)] == u]
            assert list(range(i, j)) == scan
        assert X & Y == pairwise_intersect(X, Y)
        assert X - Y == pairwise_intersect(X, Y.complement())
        assert X.is_subset(Y) == pairwise_intersect(X, Y.complement()).is_empty()


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
        assert cs(2, (0, 1)).measure() == MeasureValue(Fraction(1, 4))

    def test_sum(self):
        assert cs(2, (0,), (1, 0)).measure().fraction == Fraction(3, 4)

    def test_whole_and_empty(self):
        assert ClopenSet.whole(2).measure().fraction == 1
        assert ClopenSet.empty(2).measure().fraction == 0

    def test_measure_box(self):
        # the value bench/workloads.py reads: .fraction, <, == and str
        A, B = cs(3, (0,), (1, 2)), cs(3, (2,))
        assert A.measure().fraction == A.volume() == Fraction(4, 9)
        assert B.measure() < A.measure()
        assert not A.measure() < B.measure()
        assert str(A.measure()) == str(A.volume()) == "4/9"
        with pytest.raises(MalformedInput):
            MeasureValue(Fraction(3, 2))

    def test_volume_text(self):
        # a fraction while shallow; deeper, the exact sum over the depths,
        # whose terms the interpreter can print at any depth
        assert cs(2, (0,), (1, 0)).volume_text() == "3/4"
        assert ClopenSet.empty(2).volume_text() == "0"
        deep = (0,) * SHORT_DEPTH + (1,)
        A = cs(3, (1,), (2, 0), deep, (0,) * SHORT_DEPTH + (2,))
        assert A.volume_text() == f"1/3^1 + 1/3^2 + 2/3^{SHORT_DEPTH + 1}"
        B = cs(2, (0,) * 14400 + (1,))
        assert B.volume_text() == "1/2^14401"
        for S in (A, B):
            total = 0
            for term in S.volume_text().split(" + "):
                count, power = term.split("/")
                b, d = power.split("^")
                total += Fraction(int(count), int(b) ** int(d))
            assert total == S.volume()

    def test_depth_search(self):
        assert depth_for_measure_below(2, Fraction(3, 16)) == 3
        assert depth_for_measure_below(3, Fraction(1, 4)) == 2


class TestDiameter:
    def test_single_cylinder(self):
        assert cs(2, (0, 1)).diameter_bound() == Fraction(1, 4)

    def test_whole(self):
        assert ClopenSet.whole(2).diameter_bound() == 1

    def test_common_prefix(self):
        assert cs(2, (0, 0, 0), (0, 0, 1)).diameter_bound() == Fraction(1, 4)

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
        assert cs(2, (1,), (0, 0)).pick() == (1,)

    def test_lexicographic(self):
        assert cs(2, (0, 1), (1, 0)).pick() == (0, 1)

    def test_whole(self):
        assert ClopenSet.whole(2).pick() == ()

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

    @given(st.sampled_from([2, 3, 5, 10]), st.data())
    def test_add_integer_adds_on_every_prefix(self, base, data):
        digit = st.integers(0, base - 1)
        p = PointName(base, data.draw(st.lists(digit, max_size=6).map(tuple)),
                      data.draw(st.lists(digit, min_size=1, max_size=4).map(tuple)))
        n = data.draw(st.integers(-300, 300))
        k = data.draw(st.integers(0, 12))
        assert p.add_integer(n).prefix(k) == int_word(word_int(p.prefix(k), base) + n, k, base)
