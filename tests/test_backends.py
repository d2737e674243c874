"""Backend pieces, bisections, refinement and the comparison primitive."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup.backends import (Bisection, FullShift, Odometer,
                                OdometerPiece, Piece, compare_clopen,
                                pair_cylinders, source_range, word_value)
from fullgroup.clopen import ClopenSet
from fullgroup.encoding import parse_backend
from fullgroup.errors import MalformedInput, PostconditionError, PreconditionError
from fullgroup.randomize import comparison_pair, substream

from conftest import apply_piece, overlapping_pairing


def cs(base, *words):
    return ClopenSet.from_words(base, words)


class TestBackendId:
    def test_tags(self):
        assert Odometer(2).tag == "odo2"
        assert FullShift(3).tag == "shift3"

    def test_models_stay_distinct(self):
        # equality is by model class and base, so one base gives two keys
        assert Odometer(2) != FullShift(2)
        assert Odometer(2) == Odometer(2) and FullShift(2) == FullShift(2)
        assert len({Odometer(2): "odo", FullShift(2): "shift"}) == 2
        assert isinstance(parse_backend("odo3"), Odometer)
        assert isinstance(parse_backend("shift3"), FullShift)


class TestApplyPiece:
    def test_odometer_no_carry(self):
        # two-digit value 0 plus 3 stays below 4
        assert apply_piece(OdometerPiece((0, 0), 3), (0, 0), 2) == (1, 1)

    def test_odometer_with_carry(self):
        # value 3 plus 1 is 4 = 0 mod 4 with carry 1
        assert apply_piece(OdometerPiece((1, 1), 1), (1, 1), 2) == (0, 0)

    def test_shift_suffix(self):
        assert apply_piece(Piece((0,), (1, 1, 0)), (0, 1), 2) == (1, 1, 0, 1)

    def test_requires_containment(self):
        with pytest.raises(PreconditionError):
            apply_piece(OdometerPiece((0, 0), 1), (1,), 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(-10**4, 10**4), st.data())
def test_range_word_matches_integer_sum(base, power, data):
    """The carry-local add agrees with adding power to the word's value
    mod base**depth, for words of 0 to 40 digits."""
    word = data.draw(st.lists(st.integers(0, base - 1), max_size=40).map(tuple))
    d = len(word)
    value = (word_value(word, base) + power) % base ** d
    want = tuple(value // base ** i % base for i in range(d))
    assert OdometerPiece(word, power, base).target == want


class TestValidate:
    """The constructor asks the model's rule, then the overlap rule of the
    sources and of the ranges: a Bisection is a bisection."""

    def test_ok_shift(self):
        pieces = (Piece((0,), (1, 1)), Piece((1, 1), (0,)), Piece((1, 0), (1, 0)))
        assert Bisection(FullShift(2), pieces).pieces == pieces

    def test_range_violation(self):
        with pytest.raises(MalformedInput,
                           match=r"^range cylinders overlap: \(1,\) vs \(1, 1\)$"):
            Bisection(FullShift(2), (Piece((0,), (1,)), Piece((1, 0), (1, 1))))

    def test_source_violation(self):
        # the sources are checked before the ranges, which overlap too
        with pytest.raises(MalformedInput,
                           match=r"^source cylinders overlap: \(0,\) vs \(0, 1\)$"):
            Bisection(FullShift(2), (Piece((0,), (1,)), Piece((0, 1), (1, 1))))

    def test_odometer_involution(self):
        pieces = (OdometerPiece((0,), 1), OdometerPiece((1,), -1))
        bis = Bisection(Odometer(2), pieces)
        assert bis.pieces == pieces
        _, rng = source_range(bis)
        assert rng.is_whole()

    def test_wrong_piece_kind(self):
        # each model rejects a piece that breaks its rule: the odometer
        # keeps the depth, the shift carries nothing into the tail
        with pytest.raises(MalformedInput):
            Bisection(Odometer(2), (Piece((0,), (1, 1)),))
        with pytest.raises(MalformedInput):
            Bisection(FullShift(2), (Piece((0,), (1,), 1),))
        # (0)->(1) is the odometer piece (0;+1)
        assert Bisection(Odometer(2), (Piece((0,), (1,)),)).pieces == (OdometerPiece((0,), 1),)


class TestSourceRange:
    def test_empty(self):
        src, rng = source_range(Bisection(Odometer(2), ()))
        assert src.is_empty() and rng.is_empty()

    def test_translation(self):
        src, rng = source_range(Bisection(Odometer(2), (OdometerPiece((0, 0), 1),)))
        assert src == cs(2, (0, 0))
        assert rng == cs(2, (1, 0))

    def test_whole(self):
        bis = Bisection(FullShift(2), (
            Piece((0,), (1, 1)), Piece((1, 1), (0,)), Piece((1, 0), (1, 0))))
        src, rng = source_range(bis)
        assert src.is_whole() and rng.is_whole()


class TestCompare:
    def test_odometer_example(self):
        U = compare_clopen(Odometer(2), cs(2, (0, 0)), cs(2, (1,)))
        assert U.pieces == (OdometerPiece((0, 0), 1),)
        src, rng = source_range(U)
        assert src == cs(2, (0, 0))
        assert rng == cs(2, (1, 0))

    def test_empty_source(self):
        U = compare_clopen(Odometer(2), ClopenSet.empty(2), cs(2, (1,)))
        assert U.pieces == ()

    def test_shift_example(self):
        U = compare_clopen(FullShift(2), cs(2, (0,)), cs(2, (1, 1)))
        assert U.pieces == (Piece((0,), (1, 1, 0)),)
        src, rng = source_range(U)
        assert src == cs(2, (0,))
        assert rng.is_subset(cs(2, (1, 1)))

    def test_odometer_measure_precondition(self):
        with pytest.raises(PreconditionError):
            compare_clopen(Odometer(2), cs(2, (0,)), cs(2, (1, 0)))

    def test_empty_target(self):
        with pytest.raises(PreconditionError):
            compare_clopen(FullShift(2), cs(2, (0,)), ClopenSet.empty(2))

    def test_invalid_witness_is_internal_error(self, monkeypatch):
        monkeypatch.setattr("fullgroup.backends.pair_cylinders", overlapping_pairing)
        with pytest.raises(PostconditionError, match="range cylinders overlap"):
            compare_clopen(Odometer(2), cs(2, (0, 0), (0, 1, 0)), cs(2, (1,)))

    @pytest.mark.parametrize("kind", ["odometer", "shift"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_randomized_postconditions(self, kind, base):
        backend = Odometer(base) if kind == "odometer" else FullShift(base)
        rng = substream(101, f"cmp:{backend.tag}")
        for _ in range(60):
            A, B = comparison_pair(rng, backend, 5)
            U = compare_clopen(backend, A, B)
            assert Bisection(backend, U.pieces) == U
            src, dst = source_range(U)
            assert src == A
            assert dst.is_subset(B)
            if backend.is_odometer:
                # same-depth pieces preserve the measure cylinder-wise
                for piece in U.pieces:
                    assert len(piece.source) == len(
                        apply_piece(piece, piece.source, base))


@pytest.mark.parametrize("base", [2, 3])
def test_lazy_pairing_matches_refined_pairing(base):
    backend = Odometer(base)
    rng = substream(102, f"pair:{backend.tag}")
    for _ in range(60):
        S, T = comparison_pair(rng, backend, 5)
        depth = max(S.max_depth(), T.max_depth())
        want = [Piece(u, v) for u, v in zip(S.refine_to(depth), T.refine_to(depth))]
        assert pair_cylinders(backend, S, T) == want


class TestFreeness:
    def test_odometer_piece_moves_all(self):
        # a nonzero power never fixes a base-b integer
        from fullgroup.elements import apply_point, element_from_pieces
        from fullgroup.clopen import PointName
        elem = element_from_pieces(Odometer(2), [OdometerPiece((), 1)],
                                   fill_identity=False)
        for pre in ((0,), (1,), (0, 1), (1, 1)):
            p = PointName.zeros_tail(2, pre)
            assert apply_point(elem, p) != p
        assert apply_point(elem, PointName(2, (), (1,))) == PointName(2, (), (0,))

    def test_shift_piece_single_fixed_point(self):
        # (u > u t) fixes exactly the point u t t t ...
        from fullgroup.clopen import PointName
        piece = Piece((0,), (0, 1))
        fixed = PointName(2, (0,), (1,))
        assert apply_piece(piece, fixed.prefix(5), 2) == fixed.prefix(6)


class TestPieceProtocol:
    def test_piece_between(self):
        # the carry-free piece from [u] onto the same-depth [v] is the
        # odometer piece adding value(v) - value(u)
        assert Piece((0, 1), (1, 1)) == OdometerPiece((0, 1), 1)
        assert Piece((2,), (0,)) == OdometerPiece((2,), -2, 3)
        assert Piece((), ()) == OdometerPiece((), 0)

    def test_measure_hypothesis(self):
        A, B = cs(2, (0,)), cs(2, (1, 0))
        assert not Odometer(2).measure_below(A, B)
        assert Odometer(2).measure_below(B, A)
        assert not Odometer(2).measure_below(cs(2, (0, 0)), A, factor=2)
        assert Odometer(2).measure_equal(cs(2, (0, 0), (0, 1)), A)
        assert not Odometer(2).measure_equal(A, B)
        # no invariant measure: both hold vacuously
        assert FullShift(2).measure_below(A, B, factor=3)
        assert FullShift(2).measure_equal(A, B)

    def test_restrict_inverse_after(self):
        p = OdometerPiece((1,), 1)
        assert p == Piece((1,), (0,), 1)
        assert p.restrict((0, 1), 2) == OdometerPiece((1, 0, 1), 1)
        assert p.inverse() == OdometerPiece((0,), -1)
        assert p.after(p.inverse(), 2) == OdometerPiece((0,), 0)
        q = Piece((0,), (1, 1))
        assert q.restrict((1,), 2) == Piece((0, 1), (1, 1, 1))
        assert q.inverse() == Piece((1, 1), (0,))
        # (1 -> 00) after (0 -> 11) sends 0.y to 001.y
        assert Piece((1,), (0, 0)).after(q, 2) == Piece((0,), (0, 0, 1))

    def test_merge_siblings(self):
        assert Piece.merge_siblings(
            (1,), [OdometerPiece((1, 0), 2), OdometerPiece((1, 1), 2)]) == OdometerPiece((1,), 2)
        assert Piece.merge_siblings(
            (1,), [OdometerPiece((1, 0), 2), OdometerPiece((1, 1), 0)]) is None
        assert Piece.merge_siblings(
            (0,), [Piece((0, 0), (1, 0)), Piece((0, 1), (1, 1))]) == Piece((0,), (1,))
        assert Piece.merge_siblings(
            (0,), [Piece((0, 0), (1, 0)), Piece((0, 1), (0, 1))]) is None

    @pytest.mark.parametrize("model, piece", [
        (Odometer(2), OdometerPiece((), 4)), (Odometer(2), OdometerPiece((1,), -2)),
        (Odometer(2), OdometerPiece((0, 1), 3)), (FullShift(2), Piece((0,), (0, 1))),
        (FullShift(2), Piece((0, 1), (0,))), (FullShift(2), Piece((0,), (1, 1)))],
        ids=[f"piece{i}" for i in range(6)])
    def test_separated_word_is_moved_off_itself(self, model, piece):
        word = model.separated_word(piece)
        assert word[:len(piece.source)] == piece.source
        image = apply_piece(piece, word, 2)
        assert word[:len(image)] != image[:len(word)]
