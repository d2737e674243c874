"""Exact rational values with base-power denominators.

Values of the unique invariant Bernoulli measure on the base-b odometer
are always of the form numerator / base**exponent.  No floating point is
used anywhere; comparisons against arbitrary rationals go through
`fractions.Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedInput


@dataclass(frozen=True)
class MeasureValue:
    """A reduced rational numerator / base**exponent in [0, 1]."""

    base: int
    numerator: int
    exponent: int

    def __post_init__(self):
        if self.base < 2:
            raise MalformedInput(f"base must be >= 2, got {self.base}")
        if self.numerator < 0 or self.exponent < 0:
            raise MalformedInput("measure values are nonnegative with nonnegative exponent")
        num, exp = self.numerator, self.exponent
        if num == 0:
            exp = 0
        else:
            while exp > 0 and num % self.base == 0:
                num //= self.base
                exp -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "exponent", exp)
        if self.fraction > 1:
            raise MalformedInput(f"measure value {self.fraction} exceeds 1")

    @classmethod
    def zero(cls, base: int) -> "MeasureValue":
        return cls(base, 0, 0)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.base ** self.exponent)

    def _as_fraction(self, other) -> Fraction:
        if isinstance(other, MeasureValue):
            return other.fraction
        return Fraction(other)

    def __lt__(self, other):
        return self.fraction < self._as_fraction(other)

    def __le__(self, other):
        return self.fraction <= self._as_fraction(other)

    def __gt__(self, other):
        return self.fraction > self._as_fraction(other)

    def __ge__(self, other):
        return self.fraction >= self._as_fraction(other)

    def __str__(self):
        return str(self.fraction)


def depth_for_measure_below(base: int, bound: Fraction) -> int:
    """Smallest depth d with base**(-d) strictly below `bound`."""
    if bound <= 0:
        raise MalformedInput("bound must be positive")
    d = 0
    while Fraction(1, base ** d) >= bound:
        d += 1
    return d
