"""Exact Boolean algebra of clopen subsets of the Cantor space {0,..,b-1}^N.

A clopen set is stored as the canonical antichain of cylinder prefixes,
in lexicographic order: no prefix extends another, and no complete
family of b siblings is ever present (such a family merges into its
parent).  Canonical forms make equality of clopen sets a tuple
comparison, and the order makes "which words meet [u]" one index range
found by binary search (`meeting`), for the words of a set and for the
sources of an element alike.

Words are tuples of digits; index 0 is the first coordinate of the
infinite sequence (for the odometer, the least-significant digit).
Measures, diameter bounds and epsilons are exact `Fraction`s, never
floats.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import MalformedInput, PreconditionError

Word = tuple[int, ...]
T = TypeVar("T")

EPSILON = "ε"

# The most digits a word may have: a deeper one is malformed input,
# refused before any cylinder or piece is built from it.
MAX_WORD_DEPTH = 4096

# Digits are the ASCII 0-9 only: `\d`, `str.isdigit` and `int` also take
# other Unicode digits, which no encoding writes.
_WORD_RE = re.compile(r"[0-9]+")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))  # ASCII digits to values
_DIGIT_TEXT = bytes.maketrans(bytes(range(10)), b"0123456789")  # and back, both in C

# The most cylinders `ClopenSet.refine_to` may list: a refinement needing
# more is refused before any cell is built (65536 paired odometer cells
# take about 0.7 s and 50 MB).
MAX_REFINED_CELLS = 1 << 16

# The deepest word with which `ClopenSet.volume_text` still prints a plain
# fraction: its denominator has at most 33 digits in bases up to 10.
SHORT_DEPTH = 32


def check_base(base: int) -> None:
    """Bases 2..10, the ones whose digits are written as ASCII `0`-`9`."""
    if base < 2:
        raise MalformedInput(f"base must be >= 2, got {base}")
    if base > 10:
        raise MalformedInput(f"base must be <= 10, got {base}")


def check_word(word: Word, base: int) -> Word:
    for d in word:
        if not 0 <= d < base:
            raise MalformedInput(f"digit {d} out of range for base {base}")
    return word


def word_key(word: Word) -> tuple[int, Word]:
    """Sort key: depth first, then lexicographic."""
    return (len(word), word)


def is_prefix(shorter: Word, longer: Word) -> bool:
    return longer[: len(shorter)] == shorter


def format_word(word: Word) -> str:
    """The digits as ASCII text, or ε; `check_base` keeps every base at most 10, so d <= 9."""
    return bytes(word).translate(_DIGIT_TEXT).decode() if word else EPSILON


def parse_word(text: str, base: int) -> Word:
    """The word a stripped text writes: ASCII digits below the base, or ε."""
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


def check_cylinders(words: Iterable[Word], base: int, which: str, *, cover: bool) -> None:
    """One sorted pass: raise MalformedInput at the first pair of intersecting cylinders in
    lexicographic order (the words between a word and an extension of it extend it too, so
    that pair is adjacent), and with `cover` unless the words cover the whole space: disjoint
    words partition it when the first is all 0s, the last all b-1s, and each next one is u
    without its trailing b-1s, last digit + 1, then 0s.  That successor walk also bounds
    every digit by b-1, and the element constructor has no other digit check."""
    ordered = sorted(words)
    covers = cover and bool(ordered) and not any(ordered[0]) and set(ordered[-1]) <= {base - 1}
    for u, v in zip(ordered, ordered[1:]):
        if v[:len(u)] == u:
            raise MalformedInput(f"{which} cylinders overlap: {u} vs {v}")
        if covers:
            k = len(u)
            while k and u[k - 1] == base - 1:
                k -= 1
            covers = k > 0 and v[:k] == u[:k - 1] + (u[k - 1] + 1,) and not any(v[k:])
    if cover and not covers:
        raise MalformedInput(f"{which} cylinders do not cover the whole space")


def meeting(items: Sequence[T], word: Word, base: int,
            key: Callable[[T], Word] | None = None) -> tuple[int, int]:
    """The index range [i, j) of the items whose words (`key` of each, or
    the item itself) meet [word], for a lexicographically sorted antichain
    `items`.  Words extending a prefix p of `word` sort between p and
    `word`, so only the last item not after `word` can be its prefix, and
    it is then the one item meeting [word]; else the items meeting it are
    those extending it, the run between `word` and word + (base,).  In a
    canonical antichain S, [u] lies inside S exactly when u has a prefix
    in S: else the deepest word of S inside [u] has its complete sibling
    family in S, which canonical form merges."""
    i = bisect_right(items, word, key=key)
    if i and is_prefix(items[i - 1] if key is None else key(items[i - 1]), word):
        return i - 1, i
    return i, bisect_left(items, word + (base,), lo=i, key=key)


def expand_word(word: Word, base: int, depth: int) -> Iterator[Word]:
    """All extensions of `word` to exactly `depth` digits."""
    if depth < len(word):
        raise MalformedInput("cannot expand a word to a smaller depth")
    for tail in itertools.product(range(base), repeat=depth - len(word)):
        yield word + tail


def merge_families(blocks: Iterable[Sequence[T]], base: int, word_of: Callable[[T], Word],
                   join: Callable[[Word, list[T]], T | None]) -> list[T]:
    """Merge complete sibling families into their parents, deepest first.

    The items of `blocks` must be sorted by word, with no word a prefix
    of another.  One pass pushes each block onto a stack, then, while
    the top `base` items are the complete family parent.0, ...,
    parent.(b-1) and `join(parent, family)` returns an item (None
    rejects the family), replaces them by it.  A family is complete only
    once its last child is on top, and every deeper merge inside it has
    happened by then, so with one-item blocks the result is the fixpoint
    of merging in any order.  A longer block is checked at its last item
    only, as no other item of compose's pulled-back runs completes a
    mergeable family (run lemma: their families pull back canonical f's,
    whose pieces are not the restrictions of one piece).  The top
    `base` words increase strictly, so they are that family exactly when
    the first is parent.0 and all have one depth.
    """
    stack: list[T] = []
    for block in blocks:
        stack += block
        while len(stack) >= base:
            word = word_of(stack[-1])
            if not word or word[-1] != base - 1:
                break
            parent = word[:-1]
            if word_of(stack[-base]) != parent + (0,) or (base > 2 and any(
                    len(word_of(x)) != len(word) for x in stack[1 - base:-1])):
                break
            family = stack[-base:]
            joined = join(parent, family)
            if joined is None:
                break
            del stack[-base:]
            stack.append(joined)
    return stack


def canonical_words(words: Iterable[Word], base: int) -> tuple[Word, ...]:
    """Canonical antichain denoting the same union of cylinders."""
    # absorption: in lexicographic order every word that extends another
    # follows it with only extensions of that word in between
    kept: list[Word] = []
    for w in sorted(words):
        if not kept or not is_prefix(kept[-1], w):
            kept.append(w)
    return merged_words(kept, base)


def merged_words(words: Iterable[Word], base: int) -> tuple[Word, ...]:
    """A sorted antichain's canonical form: each word is its own key (`tuple`)."""
    return tuple(merge_families(zip(words), base, tuple, lambda parent, _: parent))


def _gaps(words: Sequence[Word], base: int, k: int) -> list[Word]:
    """The cylinders inside [p] that miss every word, for a nonempty
    sorted antichain of words that share the prefix p of length k, in
    lexicographic order: between consecutive words, the cylinders
    branching off their two paths below the first differing digit.
    Each gap's parent prefixes a word, so no gap's parent lies in the
    gaps: the output is the canonical antichain of [p] minus the words.
    Iterative and linear in the output, so arbitrarily deep words are
    fine."""
    out: list[Word] = []

    def after(u: Word, k: int) -> None:
        """The cylinders of [u[:k]] that lie after [u]; a level whose
        digit is base - 1 adds none."""
        for i in range(len(u) - 1, k - 1, -1):
            if u[i] < base - 1:
                p = u[:i]
                out.extend([p + (d,) for d in range(u[i] + 1, base)])

    def before(v: Word, k: int) -> None:
        """The cylinders of [v[:k]] that lie before [v]; a level whose
        digit is 0 adds none."""
        for i in range(k, len(v)):
            if v[i]:
                p = v[:i]
                out.extend([p + (d,) for d in range(v[i])])

    before(words[0], k)
    for u, v in zip(words, words[1:]):
        j = k  # distinct words of an antichain differ below both lengths
        while u[j] == v[j]:
            j += 1
        after(u, j + 1)
        out.extend([u[:j] + (d,) for d in range(u[j] + 1, v[j])])
        before(v, j + 1)
    after(words[-1], k)
    return out


def depth_for_measure_below(base: int, bound: Fraction) -> int:
    """Smallest depth d with base**(-d) strictly below `bound`, that is
    with base**d above q = floor(1/bound): the count of q's base-b
    digits.  The float estimate starts at most two below it, so a few
    integer powers settle it at any depth."""
    if bound <= 0:
        raise MalformedInput("bound must be positive")
    q = bound.denominator // bound.numerator
    d = max(0, int(q.bit_length() / math.log2(base)) - 1)
    while base ** d <= q:
        d += 1
    return d


@dataclass(frozen=True, order=True)
class MeasureValue:
    """A Bernoulli measure value in [0, 1], as `ClopenSet.measure()`
    returns it: ordered by and printed as its fraction."""

    fraction: Fraction

    def __post_init__(self):
        if not 0 <= self.fraction <= 1:
            raise MalformedInput(f"measure value {self.fraction} is not in [0, 1]")

    def __str__(self):
        return str(self.fraction)


@dataclass(frozen=True)
class ClopenSet:
    """Canonical antichain of cylinder prefixes over one base."""

    base: int
    words: tuple[Word, ...]

    def __post_init__(self):
        check_base(self.base)
        object.__setattr__(self, "words", canonical_words(self.words, self.base))

    # -- constructors (the empty and whole sets are canonical as written) --

    @classmethod
    def empty(cls, base: int) -> "ClopenSet":
        check_base(base)
        return cls._trusted(base, ())

    @classmethod
    def whole(cls, base: int) -> "ClopenSet":
        check_base(base)
        return cls._trusted(base, ((),))

    @classmethod
    def from_words(cls, base: int, words: Iterable[Word]) -> "ClopenSet":
        return cls(base, tuple(check_word(tuple(w), base) for w in words))

    @classmethod
    def _trusted(cls, base: int, words: tuple[Word, ...]) -> "ClopenSet":
        """A set from words already in canonical form, without
        canonicalizing them again; each caller states why its words are
        canonical."""
        A = object.__new__(cls)
        object.__setattr__(A, "base", base)
        object.__setattr__(A, "words", words)
        return A

    # -- predicates -----------------------------------------------------

    def is_empty(self) -> bool:
        return not self.words

    def is_whole(self) -> bool:
        return self.words == ((),)

    def is_proper(self) -> bool:
        """Nonempty and not the whole space."""
        return bool(self.words) and not self.is_whole()

    def _check_base(self, other: "ClopenSet") -> None:
        if other.base != self.base:
            raise MalformedInput(f"base mismatch: {self.base} vs {other.base}")

    # -- Boolean algebra -------------------------------------------------

    def complement(self) -> "ClopenSet":
        """The gaps the words leave in the whole space (`_gaps`): sorted
        and maximal, hence canonical."""
        if self.is_empty():
            return ClopenSet.whole(self.base)
        return ClopenSet._trusted(self.base, tuple(_gaps(self.words, self.base, 0)))

    def _meet(self, other: "ClopenSet") -> Iterator[Word]:
        """The words of self & other in order, canonical: one walk over both sorted antichains;
        cylinders meet only when one word prefixes the other, and then the longer (maximal in
        its operand) is kept and passed, else the smaller is passed; a shared word comes once."""
        a, b = self.words, other.words
        i = j = 0
        while i < len(a) and j < len(b):
            u, v = a[i], b[j]
            if v[:len(u)] == u:
                yield v
                j += 1
            elif u[:len(v)] == v:
                yield u
                i += 1
            else:   # disjoint: pass the smaller
                i, j = (i + 1, j) if u < v else (i, j + 1)

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check_base(other)
        if self.is_whole() or other.is_whole():  # X & A = A & X = A, canonical as it is
            return other if self.is_whole() else self
        return ClopenSet._trusted(self.base, tuple(self._meet(other)))

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check_base(other)
        return ClopenSet(self.base, self.words + other.words)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        """One pass over self: each word u is kept when no word of other
        meets [u] (`meeting`), dropped when the one word meeting it is no
        longer than u (a prefix of u), and else replaced by the gaps the
        run of other's words extending u leaves inside [u].  Canonical: a
        kept word is maximal in self, and each gap is maximal in [u]
        minus other (`_gaps`); the output follows self's order, and each
        gap run is sorted inside [u]."""
        self._check_base(other)
        theirs = other.words
        out: list[Word] = []
        for u in self.words:
            i, j = meeting(theirs, u, self.base)
            if i == j:
                out.append(u)
            elif len(theirs[i]) > len(u):
                out.extend(_gaps(theirs[i:j], self.base, len(u)))
        return ClopenSet._trusted(self.base, tuple(out))

    def is_subset(self, other: "ClopenSet") -> bool:
        self._check_base(other)
        return all(u == w for u, w in itertools.zip_longest(self.words, self._meet(other)))

    def __and__(self, other):
        return self.intersect(other)

    def __or__(self, other):
        return self.union(other)

    def __sub__(self, other):
        return self.difference(other)

    # -- metric and measure ----------------------------------------------

    def volume(self) -> Fraction:
        """Bernoulli measure: each cylinder weighs base**(-depth)."""
        e = self.max_depth()
        return Fraction(sum(self.base ** (e - len(w)) for w in self.words),
                        self.base ** e)

    def volume_text(self) -> str:
        """The volume, exact and short: a fraction while the words are at
        most SHORT_DEPTH deep, else the sum over the depths d of the words
        of (their count)/base^d, such as 1/2^14401, which is no longer than
        the set's own encoding (a fraction there can pass the interpreter's
        4300-digit limit for printing an integer)."""
        if self.max_depth() <= SHORT_DEPTH:
            return str(self.volume())
        counts = Counter(len(w) for w in self.words)
        return " + ".join(f"{counts[d]}/{self.base}^{d}" for d in sorted(counts))

    def measure(self) -> MeasureValue:
        """The volume as a `MeasureValue`."""
        return MeasureValue(self.volume())

    def common_prefix(self) -> Word:
        """Of all the words: in lexicographic order, of the first and last."""
        if self.is_empty():
            raise PreconditionError("empty set has no common prefix")
        first, last = self.words[0], self.words[-1]
        k = 0
        while k < min(len(first), len(last)) and first[k] == last[k]:
            k += 1
        return first[:k]

    def diameter_bound(self) -> Fraction:
        """2**(-l) where l is the common prefix length; an upper bound on
        the diameter in the metric d(x,y) = 2**(-first differing index)."""
        return Fraction(1, 2 ** len(self.common_prefix()))

    def max_depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    # -- choice and refinement --------------------------------------------

    def pick(self) -> Word:
        """The word of a deterministically chosen cylinder: minimal depth,
        then lexicographically least."""
        if self.is_empty():
            raise PreconditionError("cannot pick a cylinder from the empty set")
        return min(self.words, key=word_key)

    def refine_to(self, depth: int) -> tuple[Word, ...]:
        """All cylinder words of the set at exactly `depth` >= max_depth(),
        in lexicographic order; at most MAX_REFINED_CELLS of them."""
        count = sum(self.base ** (depth - len(w)) for w in self.words)
        if count > MAX_REFINED_CELLS:
            raise MalformedInput(
                f"refining to depth {depth} needs {count} cells, "
                f"over the limit of {MAX_REFINED_CELLS}")
        return tuple(v for w in self.words for v in expand_word(w, self.base, depth))

    def word_containing(self, point: "PointName") -> Word | None:
        """The word of the set whose cylinder contains the point, if any:
        the one word meeting the point's prefix as deep as the deepest
        word, which no word extends properly."""
        i, j = meeting(self.words, point.prefix(self.max_depth()), self.base)
        return self.words[i] if i < j else None

    def contains_point(self, point: "PointName") -> bool:
        return self.word_containing(point) is not None


def _primitive_period(period: Word) -> Word:
    n = len(period)
    for p in range(1, n + 1):
        if n % p == 0 and period[:p] * (n // p) == period:
            return period[:p]
    return period


@dataclass(frozen=True)
class PointName:
    """An eventually periodic point preperiod . period period ...

    Stored in normal form (primitive period, preperiod not ending in a
    rotation of the period) so equality of names is equality of points.
    """

    base: int
    preperiod: Word
    period: Word

    def __post_init__(self):
        if not self.period:
            raise MalformedInput("period must be nonempty")
        check_word(self.preperiod, self.base)
        check_word(self.period, self.base)
        pre, per = self.preperiod, _primitive_period(self.period)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def zeros_tail(cls, base: int, prefix: Word) -> "PointName":
        """The point prefix . 0 0 0 ..."""
        return cls(base, prefix, (0,))

    def digit(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, k: int) -> Word:
        return tuple(self.digit(i) for i in range(k))

    def drop(self, k: int) -> "PointName":
        """The tail sequence after the first k digits."""
        if k <= len(self.preperiod):
            return PointName(self.base, self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return PointName(self.base, (), self.period[r:] + self.period[:r])

    def prepend(self, word: Word) -> "PointName":
        return PointName(self.base, word + self.preperiod, self.period)

    def add_integer(self, n: int) -> "PointName":
        """Digit stream of (this point, read as a base-b integer) + n.

        Base-b addition with carries propagating into the tail; the result
        of adding an integer to an eventually periodic stream is again
        eventually periodic.
        """
        if n == 0:
            return self
        out: list[int] = []
        pre, per = self.preperiod, self.period
        carry = n
        i = 0
        seen: dict[tuple[int, int], int] = {}
        while True:
            if i < len(pre):
                d = pre[i]
            else:
                j = (i - len(pre)) % len(per)
                if carry == 0:
                    # remaining digits repeat the (rotated) period verbatim
                    return PointName(self.base, tuple(out), per[j:] + per[:j])
                state = (j, carry)
                if state in seen:
                    start = seen[state]
                    return PointName(self.base, tuple(out[:start]), tuple(out[start:]))
                seen[state] = len(out)
                d = per[j]
            t = d + carry
            out.append(t % self.base)
            carry = t // self.base
            i += 1

    def __str__(self):
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        return f"{pre}({per})*"
