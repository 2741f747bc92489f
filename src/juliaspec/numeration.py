"""Cantor (mixed-radix) numeration: place values, digit expansions, counters.

A base sequence d̄ = (d_0, d_1, d_2, ...) with d_0 = 1 and d_j >= 2 defines
place values q_j = d_0·d_1···d_j and a unique expansion of every n >= 0,

    n = Σ_{j>=1} a_j(n) · q_{j-1},      0 <= a_j(n) <= d_j - 1,

stored little-endian (lowest position first).  Two derived indices drive the
adding machine: the counter ζ_n (first position whose digit is below its
maximum — the number of digit writes an increment performs) and the lowest
nonzero position ξ_m of m >= 1.  Both read one scan,
ν(m) = 1 + max{r : q_r | m}: ξ_m = ν(m) and ζ_n = ν(n + 1), so
ξ_{n+1} = ζ_n.

All state arithmetic is exact integer arithmetic; exceeding the configured
capacity raises instead of wrapping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import (
    DigitOutOfRangeError,
    IntegerOverflowError,
    OutOfRangeError,
    UndefinedForZeroError,
    check_int,
)
from .sequences import SequenceSpec, constant

__all__ = ["BaseSequence", "DigitExpansion"]


class BaseSequence:
    """Handle for one base sequence d̄ with memoized digit bases and place values.

    The memos of d_j and q_j are append-only and guarded by one lock, so a
    single instance may serve concurrent readers.
    """

    def __init__(self, spec: SequenceSpec | int, capacity_bits: int = 64):
        if isinstance(spec, int):
            spec = constant(spec, "d")
        if spec.codomain != "d":
            raise OutOfRangeError("BaseSequence needs a base-sequence spec (codomain 'd')")
        capacity_bits = check_int("capacity_bits", capacity_bits, 64)
        self.spec = spec
        self.capacity_bits = capacity_bits
        self.capacity = (1 << capacity_bits) - 1
        self._d: list[int] = []  # d_1, d_2, ...
        self._q = [1]  # q_0 = d_0 = 1
        self._lock = threading.RLock()

    def __repr__(self):
        return f"BaseSequence({self.spec!r}, capacity_bits={self.capacity_bits})"

    def __eq__(self, other):
        return (
            isinstance(other, BaseSequence)
            and self.spec == other.spec
            and self.capacity_bits == other.capacity_bits
        )

    def __hash__(self):
        return hash((self.spec, self.capacity_bits))

    def digit_base(self, j: int) -> int:
        """d_j for j >= 1 (d_0 = 1 is implicit and never queried)."""
        if type(j) is not int or j < 1:
            return int(self.spec.value_at(j))  # value_at checks j
        if j > len(self._d):
            with self._lock:
                while j > len(self._d):
                    self._d.append(int(self.spec.value_at(len(self._d) + 1)))
        return self._d[j - 1]

    def place_value(self, j: int) -> int:
        """q_j = d_0·d_1···d_j, exact; raises on capacity overflow."""
        j = check_int("place index", j, 0)
        if j >= len(self._q):
            with self._lock:
                while j >= len(self._q):
                    nxt = self._q[-1] * self.digit_base(len(self._q))
                    if nxt > self.capacity:
                        raise IntegerOverflowError(
                            f"place value q_{len(self._q)} exceeds {self.capacity_bits}-bit capacity"
                        )
                    self._q.append(nxt)
        return self._q[j]

    def _check_state(self, n: int, what: str = "state") -> int:
        n = check_int(what, n, 0)
        if n > self.capacity:
            raise IntegerOverflowError(f"{what} {n} exceeds {self.capacity_bits}-bit capacity")
        return n

    def to_digits(self, n: int) -> tuple[int, ...]:
        """Little-endian digits (a_1, ..., a_L) of n, trailing zeros trimmed."""
        n = self._check_state(n)
        digits = []
        j = 1
        while n > 0:
            n, a = divmod(n, self.digit_base(j))
            digits.append(a)
            j += 1
        return tuple(digits)

    def from_digits(self, digits) -> int:
        """Exact value Σ a_j q_{j-1}; validates every digit against its base."""
        n = 0
        for j, a in enumerate(digits, start=1):
            self._check_digit(j, a)
            if a:
                n += a * self.place_value(j - 1)
        return self._check_state(n, "value")

    def _check_digit(self, j: int, a) -> None:
        """Refuse a_j unless it is an int (not a bool) in [0, d_j - 1]."""
        d = self.digit_base(j)
        if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < d:
            raise DigitOutOfRangeError(f"digit a_{j}={a!r} outside [0, {d - 1}]")

    def counter(self, n: int) -> int:
        """ζ_n = ν(n + 1): the first position j >= 1 with a_j(n) != d_j - 1.

        Equals the number of digit writes the deterministic increment n -> n+1
        performs (positions 1..ζ−1 reset to zero, position ζ incremented).
        Only n is checked, so ζ of the capacity itself is defined.
        """
        return self._nu(self._check_state(n) + 1)

    def first_nonzero(self, m: int) -> int:
        """ξ_m = ν(m): the lowest position with a nonzero digit (m >= 1)."""
        m = self._check_state(m)
        if m == 0:
            raise UndefinedForZeroError("lowest nonzero digit is undefined for 0")
        return self._nu(m)

    def _nu(self, m: int) -> int:
        """ν(m) = 1 + max{r : q_r | m} for m >= 1, read digit by digit.

        The digits of n + 1 below ζ_n are the zeros left by the carry, and
        a_ζ(n + 1) = a_ζ(n) + 1 != 0, so ν(n + 1) = ζ_n and ξ_m = ν(m).
        """
        j = 1
        while True:
            m, a = divmod(m, self.digit_base(j))
            if a != 0:
                return j
            j += 1

    def level_of(self, n: int) -> int:
        """The number of digits of n (0 for n = 0): the smallest L >= 0 with n < q_L.

        Counted from the digits, so it holds up to the capacity even where
        q_L itself would exceed it.
        """
        return len(self.to_digits(n))


@dataclass(frozen=True)
class DigitExpansion:
    """A validated little-endian digit vector bound to its base sequence."""

    base: BaseSequence
    digits: tuple[int, ...]

    def __post_init__(self):
        for j, a in enumerate(self.digits, start=1):
            self.base._check_digit(j, a)

    @classmethod
    def of_int(cls, base: BaseSequence, n: int) -> "DigitExpansion":
        return cls(base, base.to_digits(n))

    @property
    def value(self) -> int:
        """The represented integer, recovered exactly."""
        return self.base.from_digits(self.digits)

    def __str__(self):
        return ";".join(str(a) for a in self.digits)
