"""Textual encodings for clopen sets, pieces, bisections and elements,
and the one JSON encoding of the artifacts that carry them.

Formats (digits restricted to bases 2..10):

* clopen set   ``b2:{00,01,1}``, empty ``b2:{}``, whole space ``b2:{ε}``;
  printed depth first, then lexicographic: ``b2:{1,00}``
* odometer piece ``(u;+n)``, shift piece ``(u>v)``
* bisection    ``odo2:[(00;+1)]``, ``shift2:[(0>11),(11>0),(10>10)]``
  (written, never read); pieces are separated by single commas
  (whitespace allowed around them)
* element      bisection encoding with an ``elem:`` header
* artifact     JSON object under ``format_version``, keys sorted, indented
  by two, with a final newline (`encode_artifact`)
"""

from __future__ import annotations

import json
import re

from .backends import BackendId, Bisection, FullShift, Odometer, OdometerPiece, Piece
from .clopen import ClopenSet, Word, word_key
from .elements import GroupElement
from .errors import MalformedInput

EPSILON = "ε"

FORMAT_VERSION = 1

# The most digits a word may have: a deeper one is malformed input,
# refused before any cylinder or piece is built from it.
MAX_WORD_DEPTH = 4096

# Digits are the ASCII 0-9 only: `\d`, `str.isdigit` and `int` also take
# other Unicode digits, which no encoding writes.  A base is spelled as
# it is written, 2 to 10 with no leading zero, so the pattern alone
# refuses every other base.
_BASE = r"([2-9]|10)"
_CLOPEN_RE = re.compile(rf"^b{_BASE}:\{{(.*)\}}$")
_BACKEND_RE = re.compile(rf"^(odo|shift){_BASE}$")
_ODO_PIECE_RE = re.compile(r"^\(([0-9]+|ε);([+-]?[0-9]+)\)$")
_SHIFT_PIECE_RE = re.compile(r"^\(([0-9]+|ε)>([0-9]+|ε)\)$")
_WORD_RE = re.compile(r"[0-9]+")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))  # ASCII digits to values
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")  # and back, both in C


def encode_artifact(fields: dict) -> str:
    """The text of a JSON artifact: its fields under the format version."""
    return json.dumps({"format_version": FORMAT_VERSION, **fields},
                      sort_keys=True, indent=2) + "\n"


def format_word(word: Word) -> str:
    """The digits as ASCII text, or ε; `check_base` keeps every base at most 10, so d <= 9."""
    return bytes(word).translate(_DIGIT_TEXT).decode() if word else EPSILON


def parse_word(text: str, base: int) -> Word:
    text = text.strip()
    if text in ("", EPSILON):
        return ()
    if len(text) > MAX_WORD_DEPTH:
        raise MalformedInput(
            f"word of depth {len(text)} is over the limit of {MAX_WORD_DEPTH}")
    if not _WORD_RE.fullmatch(text):
        raise MalformedInput(f"bad word {text!r}")
    word = tuple(text.encode().translate(_DIGIT_VALUES))
    if max(word) >= base:
        raise MalformedInput(f"word {text!r} has digits out of range for base {base}")
    return word


def format_clopen(A: ClopenSet) -> str:
    words = sorted(A.words, key=word_key)
    return f"b{A.base}:{{{','.join(format_word(w) for w in words)}}}"


def parse_clopen(text: str) -> ClopenSet:
    m = _CLOPEN_RE.match(text.strip())
    if not m:
        raise MalformedInput(f"bad clopen encoding {text!r}")
    base = int(m.group(1))
    body = m.group(2).strip()
    if not body:
        return ClopenSet.empty(base)
    parts = [w.strip() for w in body.split(",")]
    if any(not w for w in parts):
        raise MalformedInput(f"empty word in clopen encoding {text!r}; "
                             f"use {EPSILON} for the whole space")
    return ClopenSet.from_words(base, [parse_word(w, base) for w in parts])


def parse_backend(tag: str) -> BackendId:
    m = _BACKEND_RE.match(tag.strip())
    if not m:
        raise MalformedInput(f"bad backend tag {tag!r}")
    model = Odometer if m.group(1) == "odo" else FullShift
    return model(int(m.group(2)))


def format_piece(piece: Piece, backend: BackendId) -> str:
    """The piece's text in the backend's syntax; an odometer power that
    `parse_piece` would refuse as too long is refused here too, so what
    is written reads back."""
    if not backend.is_odometer:
        return f"({format_word(piece.source)}>{format_word(piece.target)})"
    power = backend.power_of(piece)
    try:
        text = f"{power:+d}"
    except ValueError:  # over the interpreter's integer-conversion limit
        raise MalformedInput(f"odometer power of {power.bit_length()} bits "
                             "is too long to write") from None
    return f"({format_word(piece.source)};{text})"


def parse_piece(text: str, backend: BackendId) -> Piece:
    text = text.strip()
    if backend.is_odometer:
        m = _ODO_PIECE_RE.match(text)
        if not m:
            raise MalformedInput(f"bad odometer piece {text!r}")
        try:
            power = int(m.group(2))
        except ValueError:  # over the interpreter's integer-conversion limit
            raise MalformedInput(
                f"odometer power of {len(m.group(2))} characters is too long") from None
        return OdometerPiece(parse_word(m.group(1), backend.base), power, backend.base)
    m = _SHIFT_PIECE_RE.match(text)
    if not m:
        raise MalformedInput(f"bad shift piece {text!r}")
    return Piece(parse_word(m.group(1), backend.base),
                 parse_word(m.group(2), backend.base))


def _format_pieces(backend: BackendId, pieces: tuple[Piece, ...]) -> str:
    return f"{backend.tag}:[{','.join(format_piece(p, backend) for p in pieces)}]"


def _parse_pieces(text: str) -> tuple[BackendId, tuple[Piece, ...]]:
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep or not body.startswith("[") or not body.endswith("]"):
        raise MalformedInput(f"bad bisection encoding {text!r}")
    backend = parse_backend(head)
    inner = body[1:-1].strip()
    if not inner:
        return backend, ()
    # pieces contain no commas, so each comma-separated part must be
    # exactly one piece: junk and empty parts fail parse_piece
    return backend, tuple(parse_piece(p, backend) for p in inner.split(","))


def format_bisection(bis: Bisection) -> str:
    return _format_pieces(bis.backend, bis.pieces)


def format_element(elem: GroupElement) -> str:
    return "elem:" + _format_pieces(elem.backend, elem.pieces)


def parse_element(text: str) -> GroupElement:
    text = text.strip()
    if not text.startswith("elem:"):
        raise MalformedInput(f"element encodings start with 'elem:', got {text!r}")
    return GroupElement(*_parse_pieces(text[len("elem:"):]))
