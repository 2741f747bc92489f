"""Mixed-radix numeration: digits, place values, counters.

The main oracle is the defining property itself: for every n, the returned
digits must be in range and must reassemble to n against independently
accumulated place values.  The counter and first-nonzero indices are pinned
both to a direct digit-scan oracle and to the structural link between them.
"""

import random

import pytest

from juliaspec.errors import (
    DigitOutOfRangeError,
    IntegerOverflowError,
    OutOfRangeError,
    UndefinedForZeroError,
)
from juliaspec.numeration import BaseSequence, DigitExpansion
from juliaspec.sequences import constant, periodic, prefix_then, random_base

BASES = {
    "binary": BaseSequence(2),
    "ternary": BaseSequence(3),
    "mixed23": BaseSequence(periodic([2, 3], "d")),
    "random4": BaseSequence(random_base(4, 20260823)),
}


def place_values_oracle(base: BaseSequence, count: int) -> list[int]:
    """q_0..q_count accumulated directly from the base's sequence values."""
    qs = [1]
    for j in range(1, count + 1):
        qs.append(qs[-1] * int(base.spec.value_at(j)))
    return qs


@pytest.mark.parametrize("name", sorted(BASES))
def test_digits_reassemble_and_respect_ranges(name):
    base = BASES[name]
    qs = place_values_oracle(base, 16)
    for n in range(600):
        digits = base.to_digits(n)
        assert all(0 <= a < base.digit_base(j) for j, a in enumerate(digits, start=1))
        assert sum(a * qs[j - 1] for j, a in enumerate(digits, start=1)) == n
        if digits:
            assert digits[-1] != 0  # trailing zeros trimmed
        assert base.from_digits(digits) == n


@pytest.mark.parametrize("name", sorted(BASES))
def test_place_values_match_running_product(name):
    base = BASES[name]
    qs = place_values_oracle(base, 12)
    for j in range(13):
        assert base.place_value(j) == qs[j]
    with pytest.raises(OutOfRangeError):
        base.place_value(-1)


@pytest.mark.parametrize("name", sorted(BASES))
def test_counter_matches_digit_scan_oracle(name):
    base = BASES[name]
    for n in range(600):
        digits = base.to_digits(n)
        zeta = next(
            j
            for j, a in enumerate(list(digits) + [0], start=1)
            if a != base.digit_base(j) - 1
        )
        assert base.counter(n) == zeta


@pytest.mark.parametrize("name", sorted(BASES))
def test_first_nonzero_matches_digit_scan_oracle(name):
    base = BASES[name]
    for m in range(1, 600):
        digits = base.to_digits(m)
        xi = next(j for j, a in enumerate(digits, start=1) if a != 0)
        assert base.first_nonzero(m) == xi
    with pytest.raises(UndefinedForZeroError):
        base.first_nonzero(0)


@pytest.mark.parametrize("name", sorted(BASES))
def test_counter_links_to_first_nonzero_of_successor(name):
    base = BASES[name]
    for n in range(2000):
        assert base.counter(n) == base.first_nonzero(n + 1)


def scan_counter(base: BaseSequence, n: int) -> int:
    """ζ_n digit by digit: the first position whose digit is below its maximum."""
    j = 1
    while True:
        d = base.digit_base(j)
        n, a = divmod(n, d)
        if a != d - 1:
            return j
        j += 1


def scan_first_nonzero(base: BaseSequence, m: int) -> int:
    """ξ_m digit by digit: the first position whose digit is nonzero."""
    j = 1
    while True:
        m, a = divmod(m, base.digit_base(j))
        if a != 0:
            return j
        j += 1


NU_BASES = {
    "d2": BaseSequence(2),
    "d3": BaseSequence(3),
    "periodic23": BaseSequence(periodic([2, 3], "d")),
    "random5": BaseSequence(random_base(5, 7)),
    "prefix42-then-3": BaseSequence(prefix_then([4, 2], constant(3, "d"))),
}


@pytest.mark.parametrize("name", sorted(NU_BASES))
def test_one_scan_gives_counter_and_first_nonzero(name):
    # counter and first_nonzero share one scan; each must equal its own digit-by-digit form.
    base = NU_BASES[name]
    rng = random.Random(20261019)
    top = base.level_of(base.capacity)
    edges = [base.place_value(j) + k for j in range(top) for k in (-1, 0)]
    states = [
        *range(5000),
        *edges,
        base.capacity - 1,
        base.capacity,
        *(rng.randrange(base.capacity + 1) for _ in range(1000)),
        *(rng.randrange(1 << rng.randrange(1, 65)) for _ in range(1000)),
    ]
    for n in states:
        assert base.counter(n) == scan_counter(base, n), (name, n)
        if n:
            assert base.first_nonzero(n) == scan_first_nonzero(base, n), (name, n)
    for call in (base.counter, base.first_nonzero):
        with pytest.raises(IntegerOverflowError):
            call(base.capacity + 1)


@pytest.mark.parametrize("name", sorted(BASES))
def test_counter_at_place_value_minus_one(name):
    # n = q_j - 1 has maximal digits at positions 1..j, so its counter is j+1.
    base = BASES[name]
    for j in range(7):
        assert base.counter(base.place_value(j) - 1) == j + 1


@pytest.mark.parametrize("name", sorted(BASES))
def test_level_counts_digits(name):
    base = BASES[name]
    for n in range(600):
        level = base.level_of(n)
        assert level == len(base.to_digits(n))
        if n:
            assert base.place_value(level - 1) <= n < base.place_value(level)
    assert base.level_of(0) == 0
    assert base.level_of(base.capacity) == len(base.to_digits(base.capacity))


def test_from_digits_validates_each_digit():
    base = BASES["mixed23"]  # d = 2, 3, 2, 3, ...
    assert base.from_digits([1, 2, 1]) == 1 + 2 * 2 + 1 * 6
    with pytest.raises(DigitOutOfRangeError):
        base.from_digits([2])  # position 1 has base 2
    with pytest.raises(DigitOutOfRangeError):
        base.from_digits([0, 3])  # position 2 has base 3
    with pytest.raises(DigitOutOfRangeError):
        base.from_digits([-1])
    with pytest.raises(DigitOutOfRangeError):
        base.from_digits([0.5])
    with pytest.raises(DigitOutOfRangeError):
        base.from_digits([True, False, True])  # isinstance(True, int), yet no digit


def test_state_validation():
    base = BASES["binary"]
    with pytest.raises(OutOfRangeError):
        base.to_digits(-1)
    with pytest.raises(OutOfRangeError):
        base.counter("7")
    with pytest.raises(IntegerOverflowError):
        base.to_digits(1 << 64)  # beyond the 64-bit capacity


def test_capacity_bounds_place_values():
    base = BaseSequence(2)
    assert base.capacity == (1 << 64) - 1
    assert base.place_value(63) == 1 << 63
    with pytest.raises(IntegerOverflowError):
        base.place_value(64)
    assert BaseSequence(3).place_value(40) == 3**40
    with pytest.raises(IntegerOverflowError):
        BaseSequence(3).place_value(41)  # 3^41 > 2^64
    with pytest.raises(TypeError):  # the ceiling is fixed: no argument widens it
        BaseSequence(2, capacity_bits=64)


def test_base_sequence_rejects_probability_specs():
    with pytest.raises(OutOfRangeError):
        BaseSequence(constant("1/2"))


def test_base_sequence_equality_and_hash():
    a = BaseSequence(2)
    b = BaseSequence(constant(2, "d"))
    assert a == b and hash(a) == hash(b)
    assert a != BaseSequence(3)
    assert repr(a) == f"BaseSequence({constant(2, 'd')!r})"


def test_digit_expansion_round_trip_and_format():
    base = BASES["mixed23"]
    e = DigitExpansion.of_int(base, 17)  # 17 = 1 + 2*2 + 0*6 + 1*12
    assert e.digits == (1, 2, 0, 1)
    assert e.value == 17
    assert str(e) == "1;2;0;1"
    assert str(DigitExpansion.of_int(base, 0)) == ""
    with pytest.raises(DigitOutOfRangeError):
        DigitExpansion(base, (2, 0))
    with pytest.raises(DigitOutOfRangeError):
        DigitExpansion(base, (1, True))


def test_digit_bases_are_read_once(monkeypatch):
    from juliaspec.sequences import SequenceSpec

    reads = []
    value_at = SequenceSpec.value_at
    monkeypatch.setattr(
        SequenceSpec, "value_at", lambda self, j: reads.append(j) or value_at(self, j)
    )
    base = BaseSequence(periodic([2, 3], "d"))
    for n in range(2000):
        base.counter(n), base.to_digits(n)
    assert base.place_value(9) == 2**5 * 3**4
    assert [base.digit_base(j) for j in range(1, 6)] == [2, 3, 2, 3, 2]
    assert sorted(reads) == list(range(1, len(reads) + 1))  # each d_j read once
    with pytest.raises(OutOfRangeError):
        base.digit_base(0)
