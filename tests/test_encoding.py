"""Textual encodings: round-trips and malformed-input rejection."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fullgroup.backends import (Bisection, FullShift, Odometer, OdometerPiece,
                                Piece)
from fullgroup.clopen import MAX_WORD_DEPTH, ClopenSet, parse_word
from fullgroup.elements import GroupElement, compose, element_from_pieces
from fullgroup.encoding import (format_bisection, format_clopen, format_element,
                                parse_backend, parse_clopen, parse_element)
from fullgroup.errors import MalformedInput
from fullgroup.randomize import random_clopen, random_element, substream
from fullgroup.transfers import exact_swap_involution

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
        # parse_pieces refuses a power over the interpreter's 4300-digit
        # limit, so format_piece does not write one
        odo2 = Odometer(2)
        for power in (2 ** 14400, -(2 ** 14400)):
            with pytest.raises(MalformedInput, match="too long to write"):
                odo2.format_piece(OdometerPiece((0,), power))
        longest = OdometerPiece((0,), -(10 ** 4299))
        assert odo2.parse_pieces(odo2.format_piece(longest)) == [longest]

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


def reference_parse_element(text: str) -> GroupElement:
    """The per-part reader: the piece list split at every comma, each part
    stripped and matched whole by its model's piece syntax, then its words
    read by `parse_word`, in list order."""
    text = text.strip()
    if not text.startswith("elem:"):
        raise MalformedInput(f"element encodings start with 'elem:', got {text!r}")
    text = text[len("elem:"):].strip()
    head, sep, body = text.partition(":")
    if not sep or not body.startswith("[") or not body.endswith("]"):
        raise MalformedInput(f"bad bisection encoding {text!r}")
    backend = parse_backend(head)
    parts = body[1:-1].split(",") if body[1:-1].strip() else ()
    return GroupElement(backend, tuple(reference_parse_piece(backend, part.strip())
                                       for part in parts))


def reference_parse_piece(backend, text: str) -> Piece:
    base = backend.base
    if backend.is_odometer:
        m = re.fullmatch(r"\(([0-9]+|ε);([+-]?[0-9]+)\)", text)
        if not m:
            raise MalformedInput(f"bad odometer piece {text!r}")
        try:
            power = int(m[2])
        except ValueError:
            raise MalformedInput(
                f"odometer power of {len(m[2])} characters is too long") from None
        return OdometerPiece(parse_word(m[1], base), power, base)
    m = re.fullmatch(r"\(([0-9]+|ε)>([0-9]+|ε)\)", text)
    if not m:
        raise MalformedInput(f"bad shift piece {text!r}")
    return Piece(parse_word(m[1], base), parse_word(m[2], base))


@st.composite
def deep_element_texts(draw) -> str:
    """A random element of one of the four backends composed with the swap
    of two disjoint cylinders of depth up to 60 (of one depth on the
    odometer, which keeps measure), encoded."""
    backend = draw(st.sampled_from(BACKENDS))
    base = backend.base
    rng = substream(draw(st.integers(0, 2 ** 32 - 1)), f"reader:{backend.tag}")
    u = [rng.randrange(base) for _ in range(draw(st.integers(1, 60)))]
    v = [(u[0] + 1) % base] + [rng.randrange(base) for _ in range(
        len(u) - 1 if backend.is_odometer else draw(st.integers(0, 59)))]
    swap = exact_swap_involution(backend, ClopenSet.from_words(base, [tuple(u)]),
                                 ClopenSet.from_words(base, [tuple(v)]))
    return format_element(compose(random_element(rng, backend, 4), swap))


# what a mutation puts in the text: Unicode whitespace (no-break, em and
# ideographic spaces, a file separator and a line separator) and Unicode
# digits (Arabic-Indic one, superscript two, fullwidth zero)
UNICODE_SPACES = ["\u00a0", "\u2003", "\u3000", "\x1c", "\u2028"]
UNICODE_DIGITS = ["\u0661", "\u00b2", "\uff10"]
JUNK = ["x", ")", "(", "]", "[", ";", ">", "(0>1)", "(0;+1)", "ε", "+"]


@st.composite
def mutated_element_texts(draw) -> str:
    """An encoded element with up to three edits inside its piece list: a
    comma dropped or doubled, stray ASCII or Unicode whitespace, a Unicode
    digit, a digit at or over the base, a word over the depth limit, a
    power over the interpreter's 4300-digit limit, or junk between pieces."""
    text = draw(deep_element_texts())
    base = int(re.search(r"[0-9]+", text).group())
    start = text.index("[") + 1
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop-comma", "double-comma", "space", "unicode-space",
                                     "unicode-digit", "digit-over-base", "deep-word",
                                     "long-power", "junk"]))
        if kind in ("space", "unicode-space", "junk"):   # an insertion anywhere in the list
            i = draw(st.integers(start, len(text) - 1))
            new = draw(st.sampled_from({"space": [" ", "\t", "\n"],
                                        "unicode-space": UNICODE_SPACES,
                                        "junk": JUNK}[kind]))
            text = text[:i] + new + text[i:]
            continue
        pattern = {"drop-comma": ",", "double-comma": ",", "unicode-digit": "[0-9]",
                   "digit-over-base": "[0-9]", "deep-word": r"(?<=[(>])(?:[0-9]+|ε)",
                   "long-power": r"(?<=;)[+-][0-9]+"}[kind]
        spans = [m.span() for m in re.compile(pattern).finditer(text, start)]
        if not spans or kind == "digit-over-base" and base == 10:
            continue
        i, j = draw(st.sampled_from(spans))
        new = {"drop-comma": "", "double-comma": ",,", "deep-word": "1" * (MAX_WORD_DEPTH + 1),
               "long-power": "+" + "7" * 4301}.get(kind)
        if kind == "unicode-digit":
            new = draw(st.sampled_from(UNICODE_DIGITS))
        elif kind == "digit-over-base":
            new = str(draw(st.integers(base, 9)))
        text = text[:i] + new + text[j:]
    return text


def outcome(parse, text):
    """The element a reader returns, or the class and message of what it raises."""
    try:
        return parse(text)
    except Exception as err:  # compared whatever it is
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(mutated_element_texts())
# two faults in one piece: the power is read before the word, and a
# shift piece's source before its target
@example("elem:odo2:[(2;+" + "7" * 4301 + "),(1;+0)]")
@example("elem:shift3:[(" + "1" * (MAX_WORD_DEPTH + 1) + ">3),(1>1)]")
@example("elem:shift3:[(0>3),(1>" + "1" * (MAX_WORD_DEPTH + 1) + ")]")
# a bad word in the first part comes before junk in a later one
@example("elem:odo3:[(3;+1),(1;+0) x,(2;+1)]")
def test_one_pass_reader_matches_the_per_part_reader(text):
    # the same element, or the same exception class and message: the first
    # bad part in list order is the one reported
    assert outcome(parse_element, text) == outcome(reference_parse_element, text)
