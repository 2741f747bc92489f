"""Parameter sequences p̄ = (p_j) and d̄ = (d_j) with symbolic tail analysis.

A SequenceSpec describes an infinite sequence by a closed-form rule rather
than by a finite sample, so tail questions (does ∏ p_j vanish? does
Σ (1-p_j)^α diverge? is the sequence eventually ≥ some threshold?) can be
answered *analytically* per kind instead of being guessed from a prefix.
Numeric answers are exact `fractions.Fraction` values whenever the rule is
rational; only genuinely irrational quantities fall back to floats.

Kinds
-----
constant     value v                     (v ∈ (0,1] for p̄, integer ≥ 2 for d̄)
periodic     cyclic repetition of a finite tuple
geometric    p_j = 1 - c·γ^j  with 0 < γ < 1     (approaches 1 geometrically)
harmonic     p_j = 1 - c/(j+a)                    (approaches 1 harmonically)
prefix       finitely many explicit leading values, then another spec
random       i.i.d. values, a pure function of (seed, j):
             uniform on [low, high] ⊆ (0,1] for p̄, uniform on {2..max} for d̄

Indices are 1-based throughout: the first element of a sequence is j = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ConfigError, OutOfRangeError, check_int, check_real, json_int

__all__ = [
    "SequenceSpec",
    "ProductVerdict",
    "SumVerdict",
    "constant",
    "periodic",
    "geometric",
    "harmonic",
    "prefix_then",
    "random_uniform",
    "random_base",
    "product_verdict",
    "tail_product",
    "sum_alpha_verdict",
    "monotone_increasing",
    "limit_is_one",
    "threshold_index",
    "limsup_below_one",
    "irreducible",
    "max_base",
    "spec_to_json",
    "spec_from_json",
]

_P_KINDS = ("constant", "periodic", "geometric", "harmonic", "prefix", "random")
_D_KINDS = ("constant", "periodic", "prefix", "random")

# Term cap for the positive product limit, and the largest index
# threshold_index certifies on a geometric tail (its exact check computes γ^j).
_SCAN_CAP = 100_000


def _rat(x) -> Fraction:
    """Coerce x to an exact Fraction; floats go through their decimal repr."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise OutOfRangeError(f"boolean is not a valid scalar: {x!r}")
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, float):
        if not math.isfinite(x):
            raise OutOfRangeError(f"scalar must be finite, got {x!r}")
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise OutOfRangeError(f"cannot parse rational {x!r}") from exc
    raise OutOfRangeError(f"cannot coerce {type(x).__name__} to a rational")


def _real(x, what: str) -> float:
    """x as a float; OutOfRangeError when it is not a number."""
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise OutOfRangeError(f"{what} must be a number, got {x!r}") from exc


class ProductVerdict(Enum):
    """Analytic fate of the infinite product ∏ p_j."""

    TENDS_TO_ZERO = "tends-to-zero"
    CONVERGES_POSITIVE = "converges-positive"
    INCONCLUSIVE = "inconclusive"


class SumVerdict(Enum):
    """Analytic fate of the series Σ (1-p_j)^α."""

    DIVERGES = "diverges"
    CONVERGES = "converges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SequenceSpec:
    """Closed-form description of one parameter sequence.

    Instances are immutable and hashable; construct them through the factory
    functions (`constant`, `periodic`, `geometric`, `harmonic`, `prefix_then`,
    `random_uniform`, `random_base`) which validate ranges eagerly.
    """

    codomain: str  # "p" (probabilities) or "d" (digit bases)
    kind: str
    value: Fraction | int | None = None
    values: tuple | None = None
    c: Fraction | None = None
    gamma: Fraction | None = None
    a: Fraction | None = None
    prefix: tuple | None = None
    tail: "SequenceSpec | None" = None
    low: Fraction | None = None
    high: Fraction | int | None = None
    seed: int | None = None
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.codomain not in ("p", "d"):
            raise ConfigError(f"unknown codomain {self.codomain!r}")
        allowed = _P_KINDS if self.codomain == "p" else _D_KINDS
        if self.kind not in allowed:
            raise ConfigError(
                f"kind {self.kind!r} is not admissible for codomain {self.codomain!r}"
            )

    # -- evaluation ---------------------------------------------------------

    def value_at(self, j: int):
        """Exact value of the sequence at 1-based index j.

        Returns a Fraction (p̄) or int (d̄) except for random probability
        specs, which return floats.  Raises OutOfRangeError for j < 1.
        """
        j = check_int("sequence index", j, 1)
        k = self.kind
        if k == "constant":
            return self.value
        if k == "periodic":
            return self.values[(j - 1) % len(self.values)]
        if k == "geometric":
            return 1 - self.c * self.gamma**j
        if k == "harmonic":
            return 1 - self.c / (j + self.a)
        if k == "prefix":
            if j <= len(self.prefix):
                return self.prefix[j - 1]
            return self.tail.value_at(j - len(self.prefix))
        if k == "random":
            return self._draw(j)
        raise AssertionError(k)

    def float_at(self, j: int) -> float:
        """Value at index j as a float, avoiding huge exact intermediates."""
        j = check_int("sequence index", j, 1)
        k = self.kind
        if k == "geometric":
            return 1.0 - float(self.c) * float(self.gamma) ** j
        if k == "harmonic":
            return 1.0 - float(self.c) / (j + float(self.a))
        if k == "prefix" and j > len(self.prefix):
            return self.tail.float_at(j - len(self.prefix))
        return float(self.value_at(j))

    def _draw(self, j: int):
        got = self._memo.get(j)
        if got is None:
            rng = np.random.default_rng([int(self.seed), int(j)])
            if self.codomain == "p":
                lo, hi = float(self.low), float(self.high)
                got = lo + (hi - lo) * float(rng.random())
            else:
                got = int(rng.integers(2, int(self.high) + 1))
            self._memo[j] = got
        return got

    def is_rational(self) -> bool:
        """True when value_at always returns exact rationals/integers."""
        if self.kind == "random":
            return self.codomain == "d"
        if self.kind == "prefix":
            return self.tail.is_rational()
        return True


# -- factories --------------------------------------------------------------


def _check_p(v: Fraction, what: str) -> Fraction:
    if not (0 < v <= 1):
        raise OutOfRangeError(f"{what} must lie in (0, 1], got {v}")
    return v


def _check_d(v, what: str) -> int:
    if isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    return check_int(what, v, 2)


def _check_seed(seed) -> int:
    # An integral float such as 1.0 counts as an integer seed; a bool does not.
    if isinstance(seed, float) and seed.is_integer():
        seed = int(seed)
    return check_int("seed", seed, 0)


def constant(value, codomain: str = "p") -> SequenceSpec:
    """Constant sequence: probability in (0,1] or digit base >= 2."""
    if codomain == "p":
        return SequenceSpec("p", "constant", value=_check_p(_rat(value), "constant value"))
    return SequenceSpec("d", "constant", value=_check_d(value, "constant base"))


def periodic(values, codomain: str = "p") -> SequenceSpec:
    """Cyclic repetition of a nonempty finite tuple of values."""
    vals = tuple(values)
    if not vals:
        raise OutOfRangeError("periodic spec needs at least one value")
    if codomain == "p":
        vals = tuple(_check_p(_rat(v), "periodic value") for v in vals)
        return SequenceSpec("p", "periodic", values=vals)
    vals = tuple(_check_d(v, "periodic base") for v in vals)
    return SequenceSpec("d", "periodic", values=vals)


def geometric(c, gamma) -> SequenceSpec:
    """p_j = 1 - c·γ^j, approaching 1 geometrically; requires 0 < c·γ < 1."""
    c, gamma = _rat(c), _rat(gamma)
    if not (0 < gamma < 1):
        raise OutOfRangeError(f"geometric ratio must lie in (0, 1), got {gamma}")
    if c <= 0 or c * gamma >= 1:
        raise OutOfRangeError(f"geometric scale must satisfy 0 < c·γ < 1, got c={c}")
    return SequenceSpec("p", "geometric", c=c, gamma=gamma)


def harmonic(c, a) -> SequenceSpec:
    """p_j = 1 - c/(j+a), approaching 1 harmonically; requires 0 < c < 1 + a."""
    c, a = _rat(c), _rat(a)
    if a <= 0:
        raise OutOfRangeError(f"harmonic offset must be positive, got {a}")
    if not (0 < c < 1 + a):
        raise OutOfRangeError(f"harmonic scale must satisfy 0 < c < 1 + a, got {c}")
    return SequenceSpec("p", "harmonic", c=c, a=a)


def prefix_then(prefix, tail: SequenceSpec) -> SequenceSpec:
    """Finitely many explicit leading values, then `tail` (re-indexed from 1)."""
    if tail.kind == "prefix":
        # Flatten so tail analysis never recurses through nested prefixes.
        prefix = tuple(prefix) + tail.prefix
        tail = tail.tail
    if tail.codomain == "p":
        vals = tuple(_check_p(_rat(v), "prefix value") for v in prefix)
    else:
        vals = tuple(_check_d(v, "prefix base") for v in prefix)
    if not vals:
        return tail
    return SequenceSpec(tail.codomain, "prefix", prefix=vals, tail=tail)


def random_uniform(low, high, seed: int) -> SequenceSpec:
    """i.i.d. probabilities, uniform on [low, high] ⊆ (0, 1], seeded by an integer >= 0."""
    low, high = _rat(low), _rat(high)
    _check_p(low, "random low")
    _check_p(high, "random high")
    if low > high:
        raise OutOfRangeError(f"random bounds must satisfy low <= high, got {low} > {high}")
    return SequenceSpec("p", "random", low=low, high=high, seed=_check_seed(seed))


def random_base(d_max: int, seed: int) -> SequenceSpec:
    """i.i.d. digit bases, uniform on {2, ..., d_max}, seeded by an integer >= 0."""
    d_max = _check_d(d_max, "random base max")
    return SequenceSpec("d", "random", high=d_max, seed=_check_seed(seed))


# -- tail analysis ----------------------------------------------------------


def _tail(spec: SequenceSpec) -> SequenceSpec:
    """The spec without its prefix (`prefix_then` keeps prefixes flat)."""
    return spec.tail if spec.kind == "prefix" else spec


def _tail_range(spec: SequenceSpec):
    """(inf, sup) of the values the tail takes infinitely often, or None.

    None marks the geometric and harmonic tails, which increase strictly to 1.
    A random base sequence records only its sup (its inf is left as None).
    Every tail verdict below reads this one record.
    """
    t = _tail(spec)
    if t.kind == "constant":
        return t.value, t.value
    if t.kind == "periodic":
        return min(t.values), max(t.values)
    if t.kind == "random":
        return t.low, t.high
    return None


_PRODUCT_OF_SERIES = {
    SumVerdict.CONVERGES: ProductVerdict.CONVERGES_POSITIVE,
    SumVerdict.DIVERGES: ProductVerdict.TENDS_TO_ZERO,
    SumVerdict.INCONCLUSIVE: ProductVerdict.INCONCLUSIVE,
}


def product_verdict(spec: SequenceSpec) -> ProductVerdict:
    """Fate of ∏ p_j, provable from the spec kind alone.

    For p_j ∈ (0, 1], ∏ p_j > 0 iff Σ (1-p_j) < ∞, so this is the α = 1
    series verdict: TENDS_TO_ZERO iff the series provably diverges,
    CONVERGES_POSITIVE iff it provably converges, INCONCLUSIVE for
    non-degenerate random specs straddling 1.
    """
    return _PRODUCT_OF_SERIES[sum_alpha_verdict(spec, 1)]


def tail_product(spec: SequenceSpec):
    """The limit of the products P_J = p_1···p_J as J grows.

    Exactly 0 when the product provably vanishes, a float when it provably
    converges to a positive value; ConfigError when the fate is inconclusive.
    A finite P_J is `ChainConfig.success_prefix(J)`, exact where the spec is
    rational.
    """
    verdict = product_verdict(spec)
    if verdict is ProductVerdict.TENDS_TO_ZERO:
        return Fraction(0)
    if verdict is ProductVerdict.CONVERGES_POSITIVE:
        part = 1.0
        for j in range(1, _SCAN_CAP + 1):
            q = spec.float_at(j)
            part *= q
            if 1.0 - q < 1e-17:
                break
        return part
    raise ConfigError("product limit is inconclusive for this spec")


def sum_alpha_verdict(spec: SequenceSpec, alpha) -> SumVerdict:
    """Fate of Σ (1-p_j)^α for finite α >= 1, provable from the spec kind alone.

    The series converges on a geometric tail, on a harmonic tail when α > 1,
    and when the tail is identically 1.  It diverges when a value below 1
    surely recurs.  A random tail straddling 1 is inconclusive.
    """
    _need_p(spec)
    alpha = check_real("alpha", alpha, 1)
    r = _tail_range(spec)
    if r is None:
        if _tail(spec).kind == "geometric" or alpha > 1:
            return SumVerdict.CONVERGES
        return SumVerdict.DIVERGES
    if r[0] == 1:
        return SumVerdict.CONVERGES
    if r[1] < 1 or _tail(spec).kind != "random":
        return SumVerdict.DIVERGES
    return SumVerdict.INCONCLUSIVE


def monotone_increasing(spec: SequenceSpec) -> bool:
    """Certificate that p_j is monotone increasing (geometric/harmonic kinds)."""
    _need_p(spec)
    return spec.kind in ("geometric", "harmonic")


def limit_is_one(spec: SequenceSpec) -> bool:
    """Certificate that p_j -> 1 (False means: provably does not tend to 1)."""
    _need_p(spec)
    r = _tail_range(spec)
    return r is None or r[0] == 1


def threshold_index(spec: SequenceSpec, threshold: float) -> int | None:
    """Smallest certified j0 with p_j >= threshold for every j >= j0, or None.

    Values are compared exactly with the threshold (a float compares with a
    Fraction by its exact binary value).
    """
    _need_p(spec)
    thr = _real(threshold, "threshold")
    if math.isnan(thr):
        raise OutOfRangeError("threshold must be a number, got nan")
    t, r = _tail(spec), _tail_range(spec)
    if r is not None:
        j = 1 if r[0] >= thr else None
    elif thr >= 1:
        j = None  # a geometric or harmonic tail stays below 1
    else:
        # Clamped at 0, where every p_j > 0 qualifies (and Fraction takes no -inf).
        j = _first_within(t, 1 - Fraction(max(thr, 0.0)))
    if j is None or t is spec:
        return j
    if j > 1:
        return len(spec.prefix) + j
    j0 = len(spec.prefix) + 1
    while j0 > 1 and spec.prefix[j0 - 2] >= thr:
        j0 -= 1
    return j0


def _first_within(t: SequenceSpec, gap: Fraction) -> int | None:
    """Smallest j >= 1 with 1 - p_j <= gap on an increasing tail (0 < gap <= 1).

    The tail increases, so that j certifies every later index.  On a
    geometric tail the exact check computes γ^j, so an estimate past
    _SCAN_CAP gives None.
    """
    if t.kind == "harmonic":
        # c/(j + a) <= gap  <=>  j >= c/gap - a
        return max(1, math.ceil(t.c / gap - t.a))

    # c·γ^j <= gap: estimate j by logarithms, then settle it exactly.  The
    # logarithms are taken of numerators and denominators, which cannot
    # underflow to 0 as the float of a tiny Fraction can.
    def log(x: Fraction) -> float:
        return math.log(x.numerator) - math.log(x.denominator)

    j = max(1, math.ceil(log(gap / t.c) / log(t.gamma)))
    if j > _SCAN_CAP:
        return None
    while j > 1 and t.c * t.gamma ** (j - 1) <= gap:
        j -= 1
    while t.c * t.gamma**j > gap:
        j += 1
    return j


def limsup_below_one(spec: SequenceSpec) -> bool:
    """Certificate that limsup p_j < 1."""
    _need_p(spec)
    r = _tail_range(spec)
    return r is not None and r[1] < 1


def irreducible(spec: SequenceSpec) -> bool:
    """Certificate that p_j < 1 infinitely often (chain irreducibility)."""
    _need_p(spec)
    r = _tail_range(spec)
    return r is None or r[0] < 1


def max_base(spec: SequenceSpec) -> int:
    """Upper bound for a digit-base sequence (every d̄ kind is bounded)."""
    if spec.codomain != "d":
        raise ConfigError("max_base applies to base sequences only")
    head = spec.prefix if spec.kind == "prefix" else ()
    return max(int(v) for v in (*head, _tail_range(spec)[1]))


def _need_p(spec: SequenceSpec):
    if spec.codomain != "p":
        raise ConfigError("this analysis applies to probability sequences only")


# -- JSON (de)serialization -------------------------------------------------


def _num_to_json(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


def spec_to_json(spec: SequenceSpec) -> dict:
    """JSON-serializable description; rationals encoded as strings like "3/4"."""
    k = spec.kind
    if k == "constant":
        return {"kind": k, "value": _num_to_json(spec.value)}
    if k == "periodic":
        return {"kind": k, "values": [_num_to_json(v) for v in spec.values]}
    if k == "geometric":
        return {"kind": k, "c": _num_to_json(spec.c), "gamma": _num_to_json(spec.gamma)}
    if k == "harmonic":
        return {"kind": k, "c": _num_to_json(spec.c), "a": _num_to_json(spec.a)}
    if k == "prefix":
        return {
            "kind": k,
            "prefix": [_num_to_json(v) for v in spec.prefix],
            "tail": spec_to_json(spec.tail),
        }
    if spec.codomain == "p":
        return {
            "kind": "random",
            "low": _num_to_json(spec.low),
            "high": _num_to_json(spec.high),
            "seed": spec.seed,
        }
    return {"kind": "random", "max": int(spec.high), "seed": spec.seed}


def spec_from_json(obj, codomain: str) -> SequenceSpec:
    """Parse one sequence description; raises ConfigError on any defect."""
    if not isinstance(obj, dict):
        raise ConfigError(f"sequence spec must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")

    def num(v):  # a d value is an integer the way JSON states one (`json_int`)
        return json_int("base", v) if codomain == "d" else v

    try:
        if kind == "constant":
            return constant(num(obj["value"]), codomain)
        if kind == "periodic":
            return periodic([num(v) for v in obj["values"]], codomain)
        if kind == "geometric":
            if codomain != "p":
                raise ConfigError("geometric kind is only valid for p")
            return geometric(obj["c"], obj["gamma"])
        if kind == "harmonic":
            if codomain != "p":
                raise ConfigError("harmonic kind is only valid for p")
            return harmonic(obj["c"], obj["a"])
        if kind == "prefix":
            return prefix_then([num(v) for v in obj["prefix"]], spec_from_json(obj["tail"], codomain))
        if kind == "random":
            seed = json_int("seed", obj["seed"])
            if codomain == "p":
                return random_uniform(obj["low"], obj["high"], seed)
            return random_base(json_int("random base max", obj["max"]), seed)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"sequence spec kind {kind!r} is missing field {exc}") from exc
    except (OutOfRangeError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sequence spec: {exc}") from exc
    raise ConfigError(f"unknown sequence kind {kind!r}")
