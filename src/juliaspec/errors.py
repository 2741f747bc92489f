"""Exception types shared across the package, and its one argument rule.

Every error raised deliberately by this library derives from JuliaspecError,
so callers can catch one base class.  The CLI maps subclasses onto exit codes
(config -> 2, budget/overflow -> 3, invariant failure -> 4).

Every integer, exponent and point argument of the library API is checked by
`check_int`, `check_real` or `check_point`, which raise OutOfRangeError:

* an integer (a budget, depth, level, size, index, count, seed, ...) is a
  Python or numpy integer, never a bool, a float or a string;
* an exponent or tolerance is a finite real number (int, float, Fraction,
  numpy's too) or its text, such as "1.5", never a bool;
* a point (λ, z, a target) is a finite real or complex number or its
  text, never a bool.

An integer that sizes work or memory also has a cap: `check_int(what, v, lo,
cap)` refuses v > cap with BudgetExceededError (CLI exit code 3), one
comparison before the caller allocates anything.  The caps are 2^20 levels
for every iteration budget and level or sequence index
(`sequences._LEVEL_CAP`), 65 levels for the chain's exact level table
(`chain._EXACT_LEVELS`: a 64-bit state has at most 64 digits), 2^20 for a
digit base, 2^20 leaves or rows for preimage trees, truncations and
eigenvector heads (`dynamics._PREIMAGE_CAP`), 4096 rows for a dense matrix,
2^22 pixels for a raster and 2^20 steps for a trajectory.

JSON documents and CLI text keep their own rule (`json_int`,
`cli.parse_complex`): there 1.0 counts as an integer and a refusal is a
ConfigError.
"""

from __future__ import annotations

import cmath
import operator

__all__ = [
    "check_int",
    "check_real",
    "check_point",
    "json_int",
    "JuliaspecError",
    "ConfigError",
    "IntegerOverflowError",
    "DigitOutOfRangeError",
    "UndefinedForZeroError",
    "OutOfRangeError",
    "NotIrreducibleError",
    "BudgetExceededError",
    "DimensionMismatchError",
    "OriginEscapedError",
    "VerificationError",
]


class JuliaspecError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ConfigError(JuliaspecError):
    """A run configuration (JSON document or CLI flags) is invalid."""


class IntegerOverflowError(JuliaspecError):
    """A state or place value exceeded the 64-bit integer capacity."""


class DigitOutOfRangeError(JuliaspecError):
    """A digit lies outside [0, d_j - 1] for its position."""


class UndefinedForZeroError(JuliaspecError):
    """The requested quantity is undefined at zero (e.g. lowest nonzero digit)."""


class OutOfRangeError(JuliaspecError):
    """A scalar parameter lies outside its admissible range."""


class NotIrreducibleError(JuliaspecError):
    """The chain is not irreducible, so the requested classification is void."""


class BudgetExceededError(JuliaspecError):
    """An iteration or size budget was exceeded before a certificate was found."""


class DimensionMismatchError(JuliaspecError):
    """Vector length does not match the truncation size."""


class OriginEscapedError(JuliaspecError):
    """The pixel containing the origin is classified as escaped."""


class VerificationError(JuliaspecError):
    """An internal invariant check failed."""


def check_int(what: str, v, lo: int, cap: int | None = None) -> int:
    """v as an int >= lo: a Python or numpy integer, never a bool.

    Above `cap` it is refused with BudgetExceededError, before the caller
    allocates anything for it.
    """
    if type(v) is not int:
        v = _convert(what, v, operator.index, "an integer")
    if v < lo:
        raise OutOfRangeError(f"{what} must be >= {lo}, got {v}")
    if cap is not None and v > cap:
        raise BudgetExceededError(f"{what} {v} exceeds the cap {cap}")
    return v


def check_real(what: str, v, lo: float) -> float:
    """v as a float >= lo: a finite number or the text of one, never a bool."""
    x = _convert(what, v, float, "a finite number")
    if x < lo:
        raise OutOfRangeError(f"{what} must be >= {lo}, got {v}")
    return x


def check_point(what: str, z) -> complex:
    """z as a complex: a finite real or complex number or the text of one, never a bool."""
    return _convert(what, z, complex, "a finite complex number")


def json_int(what: str, v, lo=None, hi=None) -> int:
    """v as an int the way a JSON document states one, else ConfigError.

    Integral floats such as 1.0 count as integers; booleans do not.
    """
    if isinstance(v, bool) or not (isinstance(v, int) or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {v!r}")
    if lo is not None and not lo <= v <= hi:
        raise ConfigError(f"{what} must lie in [{lo}, {hi}], got {v!r}")
    return int(v)


def _convert(what: str, v, cast, noun: str):
    """cast(v), refusing a bool and any v that cast cannot turn into a finite value."""
    try:
        x = None if isinstance(v, bool) else cast(v)
        ok = x is not None and cmath.isfinite(x)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise OutOfRangeError(f"{what} must be {noun}, got {v!r}")
    return x
