"""Textual encodings for clopen sets, bisections and elements, and the
one JSON encoding of the artifacts that carry them.

Formats (digits restricted to bases 2..10):

* clopen set   ``b2:{00,01,1}``, empty ``b2:{}``, whole space ``b2:{ε}``;
  printed depth first, then lexicographic: ``b2:{1,00}``; words are
  written and read by `clopen.format_word` and `clopen.parse_word`
* bisection    ``odo2:[(00;+1)]``, ``shift2:[(0>11),(11>0),(10>10)]``
  (written, never read): the backend's tag (`backends.MODELS` maps its
  prefix to the model class), then its pieces in the model's own syntax
  (the backend's `format_piece` and `parse_piece`), separated by single
  commas (whitespace allowed around them)
* element      bisection encoding with an ``elem:`` header
* artifact     JSON object under ``format_version``, keys sorted, indented
  by two, with a final newline (`encode_artifact`)
"""

from __future__ import annotations

import json
import re

from .backends import MODELS, BackendId, Bisection
from .clopen import EPSILON, ClopenSet, format_word, parse_word, word_key
from .elements import GroupElement
from .errors import MalformedInput

FORMAT_VERSION = 1

# A base is spelled as it is written, 2 to 10 with no leading zero, in
# ASCII digits, so the pattern alone refuses every other base.
_BASE = r"([2-9]|10)"
_CLOPEN_RE = re.compile(rf"^b{_BASE}:\{{(.*)\}}$")
_BACKEND_RE = re.compile(rf"^({'|'.join(MODELS)}){_BASE}$")


def encode_artifact(fields: dict) -> str:
    """The text of a JSON artifact: its fields under the format version."""
    return json.dumps({"format_version": FORMAT_VERSION, **fields},
                      sort_keys=True, indent=2) + "\n"


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
    return MODELS[m.group(1)](int(m.group(2)))


def format_bisection(bis: Bisection | GroupElement) -> str:
    """A bisection's tag and pieces; an element is written as its bisection."""
    return f"{bis.backend.tag}:[{','.join(map(bis.backend.format_piece, bis.pieces))}]"


def format_element(elem: GroupElement) -> str:
    return "elem:" + format_bisection(elem)


def parse_element(text: str) -> GroupElement:
    text = text.strip()
    if not text.startswith("elem:"):
        raise MalformedInput(f"element encodings start with 'elem:', got {text!r}")
    text = text[len("elem:"):].strip()
    head, sep, body = text.partition(":")
    if not sep or not body.startswith("[") or not body.endswith("]"):
        raise MalformedInput(f"bad bisection encoding {text!r}")
    backend = parse_backend(head)
    # pieces contain no commas, so each comma-separated part must be
    # exactly one piece: junk and empty parts fail parse_piece
    parts = body[1:-1].split(",") if body[1:-1].strip() else ()
    return GroupElement(backend, tuple(backend.parse_piece(part.strip()) for part in parts))
