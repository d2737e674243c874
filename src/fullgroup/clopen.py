"""Exact Boolean algebra of clopen subsets of the Cantor space {0,..,b-1}^N.

A clopen set is stored as the canonical antichain of cylinder prefixes:
no prefix extends another, and no complete family of b siblings is ever
present (such a family merges into its parent).  Canonical forms make
equality of clopen sets a tuple comparison.

Words are tuples of digits; index 0 is the first coordinate of the
infinite sequence (for the odometer, the least-significant digit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import MalformedInput, PreconditionError
from .measure import MeasureValue

Word = tuple[int, ...]


def check_word(word: Word, base: int) -> None:
    for d in word:
        if not 0 <= d < base:
            raise MalformedInput(f"digit {d} out of range for base {base}")


def word_key(word: Word) -> tuple[int, Word]:
    """Sort key: depth first, then lexicographic."""
    return (len(word), word)


def is_prefix(shorter: Word, longer: Word) -> bool:
    return longer[: len(shorter)] == shorter


def overlapping_pair(words: Iterable[Word]) -> tuple[Word, Word] | None:
    """The first pair of intersecting cylinders in sorted order, or None
    if the words form an antichain."""
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if is_prefix(a, b):
            return (a, b)
    return None


def comparable(u: Word, v: Word) -> bool:
    """True iff the cylinders [u] and [v] intersect (one prefixes the other)."""
    k = min(len(u), len(v))
    return u[:k] == v[:k]


def expand_word(word: Word, base: int, depth: int) -> Iterator[Word]:
    """All extensions of `word` to exactly `depth` digits."""
    if depth < len(word):
        raise MalformedInput("cannot expand a word to a smaller depth")
    for tail in itertools.product(range(base), repeat=depth - len(word)):
        yield word + tail


def canonical_words(words: Iterable[Word], base: int) -> tuple[Word, ...]:
    """Canonical antichain denoting the same union of cylinders."""
    pool = set(words)
    if not pool:
        return ()
    if () in pool:
        return ((),)
    # absorption: drop any word with a proper prefix in the pool
    kept = set()
    for w in pool:
        if not any(w[:i] in pool for i in range(len(w))):
            kept.add(w)
    pool = kept
    # merge complete sibling families, deepest level first
    for depth in range(max(len(w) for w in pool), 0, -1):
        parents: dict[Word, set[int]] = {}
        for w in pool:
            if len(w) == depth:
                parents.setdefault(w[:-1], set()).add(w[-1])
        for parent, digits in parents.items():
            if len(digits) == base:
                for a in range(base):
                    pool.discard(parent + (a,))
                pool.add(parent)
    if () in pool:
        return ((),)
    return tuple(sorted(pool, key=word_key))


@dataclass(frozen=True)
class Cylinder:
    """The basic clopen set [u] = {x : x starts with u}."""

    base: int
    word: Word

    def __post_init__(self):
        if self.base < 2:
            raise MalformedInput(f"base must be >= 2, got {self.base}")
        check_word(self.word, self.base)


@dataclass(frozen=True)
class ClopenSet:
    """Canonical antichain of cylinder prefixes over one base."""

    base: int
    words: tuple[Word, ...]

    def __post_init__(self):
        if self.base < 2:
            raise MalformedInput(f"base must be >= 2, got {self.base}")
        canon = canonical_words(self.words, self.base)
        object.__setattr__(self, "words", canon)

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, base: int) -> "ClopenSet":
        return cls(base, ())

    @classmethod
    def whole(cls, base: int) -> "ClopenSet":
        return cls(base, ((),))

    @classmethod
    def from_words(cls, base: int, words: Iterable[Word]) -> "ClopenSet":
        words = tuple(tuple(w) for w in words)
        for w in words:
            check_word(w, base)
        return cls(base, words)

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
        def rec(rel: list[Word]) -> list[Word]:
            out = []
            for a in range(self.base):
                sub = [w[1:] for w in rel if w[0] == a]
                if not sub:
                    out.append((a,))
                elif () not in sub:
                    out.extend((a,) + t for t in rec(sub))
            return out

        if self.is_empty():
            return ClopenSet.whole(self.base)
        if self.is_whole():
            return ClopenSet.empty(self.base)
        return ClopenSet(self.base, tuple(rec(list(self.words))))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check_base(other)
        out = []
        for u in self.words:
            for v in other.words:
                if comparable(u, v):
                    out.append(u if len(u) >= len(v) else v)
        return ClopenSet(self.base, tuple(out))

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check_base(other)
        return ClopenSet(self.base, self.words + other.words)

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "ClopenSet") -> bool:
        return self.difference(other).is_empty()

    def __and__(self, other):
        return self.intersect(other)

    def __or__(self, other):
        return self.union(other)

    def __sub__(self, other):
        return self.difference(other)

    # -- metric and measure ----------------------------------------------

    def measure(self) -> MeasureValue:
        """Bernoulli measure: each cylinder weighs base**(-depth)."""
        if self.is_empty():
            return MeasureValue.zero(self.base)
        e = max(len(w) for w in self.words)
        num = sum(self.base ** (e - len(w)) for w in self.words)
        return MeasureValue(self.base, num, e)

    def volume(self) -> Fraction:
        return self.measure().fraction

    def common_prefix(self) -> Word:
        if self.is_empty():
            raise PreconditionError("empty set has no common prefix")
        first = self.words[0]
        k = min(len(w) for w in self.words)
        while k > 0:
            if all(w[:k] == first[:k] for w in self.words):
                return first[:k]
            k -= 1
        return ()

    def diameter_bound(self) -> MeasureValue:
        """2**(-l) where l is the common prefix length; an upper bound on
        the diameter in the metric d(x,y) = 2**(-first differing index)."""
        return MeasureValue(2, 1, len(self.common_prefix()))

    def max_depth(self) -> int:
        return max((len(w) for w in self.words), default=0)

    # -- choice and refinement --------------------------------------------

    def pick(self) -> Cylinder:
        """Deterministic choice: minimal depth, then lexicographically least."""
        if self.is_empty():
            raise PreconditionError("cannot pick a cylinder from the empty set")
        return Cylinder(self.base, self.words[0])

    def refine_to(self, depth: int) -> tuple[Word, ...]:
        """All cylinder words of the set at exactly `depth` >= max_depth()."""
        out = []
        for w in self.words:
            out.extend(expand_word(w, self.base, depth))
        return tuple(sorted(out))

    def contains_point(self, point: "PointName") -> bool:
        return any(point.prefix(len(w)) == w for w in self.words)


def canonicalize(cylinders: Iterable[Cylinder]) -> ClopenSet:
    """Canonical clopen set denoting the union of the given cylinders."""
    cyls = list(cylinders)
    if not cyls:
        raise MalformedInput("canonicalize needs at least one cylinder; "
                             "use ClopenSet.empty for the empty set")
    base = cyls[0].base
    for c in cyls:
        if c.base != base:
            raise MalformedInput(f"mixed bases: {base} vs {c.base}")
    return ClopenSet.from_words(base, [c.word for c in cyls])


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
            if i >= len(pre) and carry == 0 and i == len(pre):
                return PointName(self.base, tuple(out), per)

    def __str__(self):
        pre = "".join(map(str, self.preperiod))
        per = "".join(map(str, self.period))
        return f"{pre}({per})*"
