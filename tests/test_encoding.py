"""Textual encodings: round-trips and malformed-input rejection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup.backends import (Bisection, FullShift, Odometer, OdometerPiece,
                                Piece)
from fullgroup.clopen import MAX_WORD_DEPTH, ClopenSet, parse_word
from fullgroup.elements import element_from_pieces
from fullgroup.encoding import (format_bisection, format_clopen, format_element,
                                parse_backend, parse_clopen, parse_element)
from fullgroup.errors import MalformedInput
from fullgroup.randomize import random_clopen, random_element, substream

BACKENDS = [Odometer(2), Odometer(3), FullShift(2), FullShift(3)]


class TestClopenCodec:
    @pytest.mark.parametrize("text", ["b2:{00,01,1}", "b2:{}", "b2:{ε}",
                                      "b3:{012,2}"])
    def test_roundtrip(self, text):
        A = parse_clopen(text)
        assert parse_clopen(format_clopen(A)) == A
        # stored lexicographically, printed depth first
        assert format_clopen(ClopenSet.from_words(2, [(0, 0), (1,)])) == "b2:{1,00}"

    def test_canonical_output(self):
        assert format_clopen(parse_clopen("b2:{00,01,1}")) == "b2:{ε}"

    def test_examples(self):
        assert parse_clopen("b2:{10}") == ClopenSet.from_words(2, [(1, 0)])
        assert parse_clopen("b2:{}").is_empty()
        assert parse_clopen("b2:{ε}").is_whole()

    # a base is read as written, 2 to 10 with no leading zero; a base of
    # 5000 digits would be over what int() reads
    @pytest.mark.parametrize("bad", ["b2:{2}", "x2:{0}", "b1:{0}", "b2:(0)",
                                     "b2:{0,}", "{0}", "b" + "2" * 5000 + ":{0}",
                                     "b0:{}", "b02:{0}", "b11:{0}"],
                             ids=lambda bad: bad[:8])
    def test_malformed(self, bad):
        with pytest.raises(MalformedInput):
            parse_clopen(bad)

    def test_word_epsilon(self):
        assert parse_word("ε", 2) == ()
        assert parse_word("011", 2) == (0, 1, 1)

    def test_word_depth_limit(self):
        assert parse_word("1" * MAX_WORD_DEPTH, 2) == (1,) * MAX_WORD_DEPTH
        with pytest.raises(MalformedInput, match=f"depth {MAX_WORD_DEPTH + 1} is over "
                                                 f"the limit of {MAX_WORD_DEPTH}"):
            parse_clopen("b2:{" + "1" * (MAX_WORD_DEPTH + 1) + "}")


class TestBackendCodec:
    def test_roundtrip(self):
        for backend in (Odometer(2), FullShift(3)):
            assert parse_backend(backend.tag) == backend

    @pytest.mark.parametrize("bad", ["odo", "shift", "odo1", "torus2", "2odo",
                                     "odo" + "2" * 5000, "odo02", "odo11", "shift11"],
                             ids=lambda bad: bad[:8])
    def test_malformed(self, bad):
        with pytest.raises(MalformedInput):
            parse_backend(bad)


class TestBisectionCodec:
    """Bisections are written, never read: their piece lists are parsed
    inside element encodings."""

    def test_odometer_example(self):
        bis = Bisection(Odometer(2), (OdometerPiece((0, 0), 1),))
        assert format_bisection(bis) == "odo2:[(00;+1)]"
        text = "elem:odo2:[(00;+1),(01;+0),(10;-1),(11;+0)]"
        assert format_element(parse_element(text)) == text

    def test_shift_example(self):
        bis = Bisection(FullShift(2), (Piece((0,), (1, 1)), Piece((1, 1), (0,)),
                                        Piece((1, 0), (1, 0))))
        assert format_bisection(bis) == "shift2:[(0>11),(11>0),(10>10)]"
        # an element's pieces come back sorted by source
        elem = parse_element("elem:shift2:[(0>11),(11>0),(10>10)]")
        assert elem.pieces == (Piece((0,), (1, 1)), Piece((1, 0), (1, 0)),
                               Piece((1, 1), (0,)))
        assert format_element(elem) == "elem:shift2:[(0>11),(10>10),(11>0)]"

    def test_negative_power(self):
        elem = parse_element("elem:odo2:[(1;-1),(0;+1)]")
        assert elem.pieces == (OdometerPiece((0,), 1), OdometerPiece((1,), -1))

    def test_power_too_long_to_write_is_refused(self):
        # parse_piece refuses a power over the interpreter's 4300-digit
        # limit, so format_piece does not write one
        odo2 = Odometer(2)
        for power in (2 ** 14400, -(2 ** 14400)):
            with pytest.raises(MalformedInput, match="too long to write"):
                odo2.format_piece(OdometerPiece((0,), power))
        longest = OdometerPiece((0,), -(10 ** 4299))
        assert odo2.parse_piece(odo2.format_piece(longest)) == longest

    def test_epsilon_source(self):
        assert parse_element("elem:odo2:[(ε;+1)]").pieces == (OdometerPiece((), 1),)

    def test_empty(self):
        with pytest.raises(MalformedInput, match="do not cover"):
            parse_element("elem:shift3:[]")

    @pytest.mark.parametrize("bad", ["odo2:[(0>1)]", "shift2:[(0;+1)]",
                                     "odo2:(0;+1)", "odo2:[(2;+1)]"])
    def test_malformed(self, bad):
        why = {"odo2:[(0>1)]": "bad odometer piece", "shift2:[(0;+1)]": "bad shift piece",
               "odo2:(0;+1)": "bad bisection encoding", "odo2:[(2;+1)]": "out of range"}
        with pytest.raises(MalformedInput, match=why[bad]):
            parse_element("elem:" + bad)

    def test_whitespace_around_commas(self):
        elem = parse_element(" elem:odo2:[ (0;+1) ,(1;-1)  ] ")
        assert elem.pieces == (OdometerPiece((0,), 1), OdometerPiece((1,), -1))

    # each input is a valid element once its separators are single commas
    @pytest.mark.parametrize("bad", [
        "odo2:[(0;+1)junk(1;-1)]",       # junk between pieces
        "odo2:[(0;+1)(1;-1)]",           # missing comma
        "odo2:[(0;+1),,,(1;-1)]",        # repeated commas
        "odo2:[(0;+1),,(1;-1)]",         # doubled comma
        "odo2:[(0;+1),(1;-1),]",         # trailing comma
        "odo2:[,(0;+1),(1;-1)]",         # leading comma
        "shift2:[(0>1) x,(1>0)]",        # junk after a piece
        "odo2:[(0;+1),(1;-1)]]",         # stray bracket
    ])
    def test_rejects_anything_but_comma_separators(self, bad):
        with pytest.raises(MalformedInput):
            parse_element("elem:" + bad)


class TestElementCodec:
    def test_roundtrip(self):
        elem = element_from_pieces(
            Odometer(2), [OdometerPiece((0,), 1), OdometerPiece((1,), -1)],
            fill_identity=False)
        assert parse_element(format_element(elem)) == elem

    def test_header_required(self):
        with pytest.raises(MalformedInput):
            parse_element("odo2:[(ε;+0)]")

    def test_non_element_bisection_rejected(self):
        with pytest.raises(MalformedInput):
            parse_element("elem:odo2:[(00;+1)]")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BACKENDS), st.integers(0, 2 ** 32 - 1))
def test_clopen_roundtrip_on_random_sets(backend, seed):
    A = random_clopen(substream(seed, f"codec:{backend.tag}"), backend.base, 6)
    text = format_clopen(A)
    assert parse_clopen(text) == A
    assert format_clopen(parse_clopen(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BACKENDS), st.integers(0, 2 ** 32 - 1))
def test_element_roundtrip_on_random_elements(backend, seed):
    f = random_element(substream(seed, f"codec:{backend.tag}"), backend, 4)
    text = format_element(f)
    assert parse_element(text) == f
    assert format_element(parse_element(text)) == text
