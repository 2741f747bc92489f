"""Non-autonomous polynomial dynamics attached to the adding machine.

The fiber maps are f_j(z) = ((z - (1 - p_j)) / p_j)^{d_j}; their running
composition f̃_j = f_j ∘ ... ∘ f_1 (f̃_0 = identity) plays the role a single
polynomial's iterates play for an ordinary Julia set.  The filled set

    E = { z : sup_j |f̃_j(z)| < ∞ }

is contained in the closed disk around 1 - p_1 of radius p_1, hence in the
closed unit disk, and once some |f̃_r(z)| exceeds 1 the moduli grow
monotonically — so |f̃_r(z)| > 1 + slack is a sound escape certificate.

Eigenvector structure: with h_r(z) = (z - (1 - p_r)) / p_r, the factors
ι_λ(r) = h_r(f̃_{r-1}(λ)) obey ι_λ(r+1) = h_{r+1}(ι_λ(r)^{d_r}) and satisfy
f̃_r(λ) = ι_λ(r)^{d_r}; the candidate eigenvector of the transition operator
at λ is v_λ(n) = Π_r ι_λ(r)^{a_r(n)} over the digits of n.  One generator,
`FiberedSystem.orbit`, runs this recursion on one table of (1 - p_j, p_j, d_j).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import count, islice

from .errors import (
    BudgetExceededError,
    DivisionByZeroIotaError,
    OutOfRangeError,
)
from .numeration import BaseSequence
from .sequences import SequenceSpec, limit_is_one, threshold_index

__all__ = [
    "RHO",
    "FiberedSystem",
    "EscapeOutcome",
    "escape_classify",
    "TraceStatus",
    "FactorTrace",
    "factor_trace",
    "factor_values",
    "eigvec_entry",
    "eigvec_head",
    "dual_eigvec_entry",
    "preimages",
    "dedup_points",
    "ResidualSets",
    "residual_set",
]

#: Contraction threshold 2(√2 - 1): if p_j >= RHO from some index on and a
#: factor ι_λ(j0) enters the disk of radius RHO/2, the factors tend to 0.
RHO = 2.0 * (math.sqrt(2.0) - 1.0)

_DEFAULT_SLACK = 1e-9
_ONE_TOL = 1e-9
_PREIMAGE_CAP = 1 << 20


def _ipow(z: complex, n: int) -> complex:
    """z**n for integer n >= 0 by square-and-multiply (deterministic)."""
    out = 1 + 0j
    base = z
    while n:
        if n & 1:
            out *= base
        base *= base
        n >>= 1
    return out


class FiberedSystem:
    """The maps f_j, h_j and their compositions for one (d̄, p̄) pair."""

    def __init__(self, base: BaseSequence, p: SequenceSpec):
        if p.codomain != "p":
            raise OutOfRangeError("FiberedSystem needs a probability spec (codomain 'p')")
        self.base = base
        self.p = p
        self._levels: list[tuple[float, float, int]] = []

    def level(self, j: int) -> tuple[float, float, int]:
        """(1 - p_j, p_j, d_j) for fiber index j >= 1, from the level table."""
        if j < 1:
            raise OutOfRangeError(f"fiber index must be >= 1, got {j}")
        for i in range(len(self._levels) + 1, j + 1):
            p = self.p.float_at(i)
            self._levels.append((1.0 - p, p, self.digit_base(i)))
        return self._levels[j - 1]

    def digit_base(self, j: int) -> int:
        return self.base.digit_base(j)

    def p_float(self, j: int) -> float:
        return self.level(j)[1]

    def affine(self, j: int, z: complex) -> complex:
        """h_j(z) = (z - (1 - p_j)) / p_j."""
        c, p, _ = self.level(j)
        return (z - c) / p

    def fiber(self, j: int, z: complex) -> complex:
        """One fiber map f_j(z) = h_j(z)^{d_j}."""
        return _ipow(self.affine(j, z), self.digit_base(j))

    def orbit(self, z: complex) -> Iterator[tuple[complex, complex]]:
        """Endless (ι_j, f̃_j(z)), j = 1, 2, ...: ι_j = h_j(f̃_{j-1}(z)), f̃_j = ι_j^{d_j}."""
        w, levels = complex(z), self._levels
        for j in count():
            c, p, d = levels[j] if j < len(levels) else self.level(j + 1)
            iota = (w - c) / p
            w = _ipow(iota, d)
            yield iota, w

    def composed(self, j: int, z: complex) -> complex:
        """f̃_j(z) = f_j(...f_1(z)); f̃_0 is the identity."""
        return self.composed_with_derivative(j, z)[0]

    def composed_with_derivative(self, j: int, z: complex) -> tuple[complex, complex]:
        """(f̃_j(z), f̃_j'(z)) in one forward pass (chain rule)."""
        if j < 0:
            raise OutOfRangeError(f"composition depth must be >= 0, got {j}")
        v = complex(z)
        dv = 1 + 0j
        # zip reads level l of the table only after orbit has grown it to l.
        for (iota, v), (_, p, d) in zip(islice(self.orbit(v), j), self._levels):
            dv = d * _ipow(iota, d - 1) * (dv / p)
        return v, dv


@dataclass(frozen=True)
class EscapeOutcome:
    """Verdict of the escape test at one point.

    `escaped` verdicts are certificates (monotone growth past the radius).
    A bounded verdict is certified only when the orbit reached the invariant
    fixed point 1 exactly; otherwise it is an at-budget observation.
    """

    escaped: bool
    step: int | None
    modulus: float
    budget: int
    radius: float
    certified_bounded: bool = False


def escape_classify(
    sys: FiberedSystem, z: complex, budget: int, slack: float = _DEFAULT_SLACK
) -> EscapeOutcome:
    """Iterate f̃_j at z until |f̃_j| > 1 + slack or the budget runs out."""
    if budget < 1:
        raise OutOfRangeError(f"budget must be >= 1, got {budget}")
    radius = 1.0 + slack
    w = complex(z)
    if w == 1:  # invariant fixed point of every fiber map
        return EscapeOutcome(False, None, 1.0, budget, radius, certified_bounded=True)
    for j, (_, w) in enumerate(islice(sys.orbit(w), budget), 1):
        m = abs(w)
        if m > radius:
            return EscapeOutcome(True, j, m, budget, radius)
        if w == 1:
            return EscapeOutcome(False, None, 1.0, budget, radius, certified_bounded=True)
    return EscapeOutcome(False, None, abs(w), budget, radius)


class TraceStatus(Enum):
    ESCAPED = "escaped"
    CONVERGES_TO_ZERO = "converges-to-zero"
    CONVERGES_TO_ONE = "converges-to-one"
    BOUNDED_AT_BUDGET = "bounded-at-budget"


@dataclass(frozen=True)
class FactorTrace:
    """Factors ι_λ(1..k) with a stopping status.

    ESCAPED(k): |ι(k)| > 1 + slack, so λ is certified outside the filled set
    (all later factors keep growing).  CONVERGES_TO_ZERO(k): the tail of p̄ is
    certified >= RHO from some index j0 <= k, p_j -> 1, and |ι(k)| <= RHO/2 —
    a contraction certificate that ι -> 0.  CONVERGES_TO_ONE(k): two
    consecutive factors lie within 1e-9 of 1; the value 1 is a fixed point of
    the factor recursion and nearby values are repelled, so a double hit is a
    numerical certificate that the factors are identically 1 from k on.
    BOUNDED_AT_BUDGET carries no certificate.
    """

    lam: complex
    values: tuple[complex, ...]
    status: TraceStatus
    status_index: int | None
    budget: int


def factor_trace(
    sys: FiberedSystem,
    lam: complex,
    budget: int,
    slack: float = _DEFAULT_SLACK,
    one_tol: float = _ONE_TOL,
) -> FactorTrace:
    """Run the factor recursion ι(r+1) = h_{r+1}(ι(r)^{d_r}) with stopping rules."""
    if budget < 1:
        raise OutOfRangeError(f"budget must be >= 1, got {budget}")
    lam = complex(lam)
    if lam == 1:
        # Every factor is exactly 1; avoid float drift around the repelling point.
        vals = (1.0 + 0j,) * min(budget, 2)
        return FactorTrace(lam, vals, TraceStatus.CONVERGES_TO_ONE, 1, budget)

    rho_from = threshold_index(sys.p, RHO) if limit_is_one(sys.p) else None
    values: list[complex] = []
    near_one_run = 0
    for k, (v, _) in enumerate(islice(sys.orbit(lam), budget), 1):
        values.append(v)
        m = abs(v)
        if m > 1.0 + slack:
            return FactorTrace(lam, tuple(values), TraceStatus.ESCAPED, k, budget)
        if abs(v - 1.0) <= one_tol:
            near_one_run += 1
            if near_one_run >= 2:
                return FactorTrace(
                    lam, tuple(values), TraceStatus.CONVERGES_TO_ONE, k - 1, budget
                )
        else:
            near_one_run = 0
            if rho_from is not None and k >= rho_from and m <= RHO / 2.0:
                return FactorTrace(
                    lam, tuple(values), TraceStatus.CONVERGES_TO_ZERO, k, budget
                )
    return FactorTrace(lam, tuple(values), TraceStatus.BOUNDED_AT_BUDGET, None, budget)


def factor_values(sys: FiberedSystem, lam: complex, count: int) -> list[complex]:
    """Raw factors ι_λ(1..count) without stopping rules (may grow huge)."""
    if count < 0:
        raise OutOfRangeError(f"count must be >= 0, got {count}")
    lam = complex(lam)
    if lam == 1:
        return [1.0 + 0j] * count
    return [iota for iota, _ in islice(sys.orbit(lam), count)]


def eigvec_entry(
    sys: FiberedSystem, lam: complex, n: int, factors: list[complex] | None = None
) -> complex:
    """v_λ(n) = Π_r ι_λ(r)^{a_r(n)} over the digits of n (empty product 1)."""
    digits = sys.base.to_digits(n)
    if factors is None or len(factors) < len(digits):
        factors = factor_values(sys, lam, len(digits))
    out = 1 + 0j
    for r, a in enumerate(digits):
        if a:
            out *= _ipow(factors[r], a)
    return out


def eigvec_head(sys: FiberedSystem, lam: complex, length: int) -> list[complex]:
    """v_λ(0..length-1) as kron_r (1, ι_r, ..., ι_r^{d_r-1}), equal bit for bit to eigvec_entry."""
    head = [1 + 0j]
    for r, iota in enumerate(factor_values(sys, lam, sys.base.level_of(length - 1)), 1):
        q = len(head)
        for a in range(1, sys.digit_base(r)):
            pw = _ipow(iota, a)
            head.extend([v * pw for v in head[: min(q, length - len(head))]])
    return head


def dual_eigvec_entry(
    sys: FiberedSystem, lam: complex, m: int, factors: list[complex] | None = None
) -> complex:
    """Dual entry 1 / v_λ(m); raises when a needed factor vanishes."""
    digits = sys.base.to_digits(m)
    if factors is None or len(factors) < len(digits):
        factors = factor_values(sys, lam, len(digits))
    for r, a in enumerate(digits):
        if a and factors[r] == 0:
            raise DivisionByZeroIotaError(f"factor at position {r + 1} vanishes for λ={lam}")
    v = eigvec_entry(sys, lam, m, factors)
    if v == 0:
        raise DivisionByZeroIotaError(f"eigenvector entry underflowed to 0 at m={m}")
    return 1.0 / v


# -- preimages and the residual candidate set -------------------------------


def _unit_root(k: int, d: int) -> complex:
    """exp(2πik/d), with the exactly representable cases kept exact.

    Branch chains through critical points rely on values like -1 and ±i
    coming out noise-free: a 1e-16 sin(π) residue here turns an exact dyadic
    leaf into one that is only ~1e-9 accurate after polishing (double roots
    limit Newton to square-root precision).
    """
    k %= d
    if k == 0:
        return 1 + 0j
    if 2 * k == d:
        return -1 + 0j
    if 4 * k == d:
        return 1j
    if 4 * k == 3 * d:
        return -1j
    return cmath.exp(2j * math.pi * k / d)


def _droots(u: complex, d: int) -> list[complex]:
    """All d-th roots of u (a d-fold 0 when u = 0)."""
    if u == 0:
        return [0j] * d
    r = abs(u) ** (1.0 / d)
    theta = cmath.phase(u)
    principal = complex(r, 0.0) if theta == 0.0 else r * cmath.exp(1j * theta / d)
    return [principal * _unit_root(k, d) for k in range(d)]


def _polish(sys: FiberedSystem, depth: int, target: complex, z: complex) -> complex:
    """One damped Newton pass on f̃_depth(z) - target."""
    v, dv = sys.composed_with_derivative(depth, z)
    best = abs(v - target)
    if best == 0 or dv == 0:
        return z
    step = (v - target) / dv
    for _ in range(4):
        cand = z - step
        vc, _ = sys.composed_with_derivative(depth, cand)
        if abs(vc - target) <= best:
            return cand
        step /= 2
    return z


def preimages(
    sys: FiberedSystem, target: complex, depth: int, polish: bool = True
) -> list[complex]:
    """The multiset f̃_depth^{-1}{target}, size q_depth, via branch recursion.

    Levels are peeled outermost-first: solutions of f̃_n = w are preimages
    under f_n of solutions of f̃_{n-1} = w.  Each branch extracts d_j-th
    roots and undoes the affine map; a final damped Newton pass polishes
    every leaf against the full composition.
    """
    if depth < 0:
        raise OutOfRangeError(f"depth must be >= 0, got {depth}")
    if sys.base.place_value(depth) > _PREIMAGE_CAP:
        raise BudgetExceededError(
            f"preimage tree at depth {depth} exceeds {_PREIMAGE_CAP} leaves"
        )
    points = [complex(target)]
    for j in range(depth, 0, -1):
        c, p, d = sys.level(j)
        nxt = []
        for u in points:
            for w in _droots(u, d):
                nxt.append(c + p * w)
        points = nxt
    if polish and depth > 0:
        points = [_polish(sys, depth, complex(target), z) for z in points]
    return points


def dedup_points(points, tol: float) -> list[complex]:
    """Representatives of tol-clusters, in sorted (re, im) order."""
    kept: list[complex] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if not any(abs(z - w) <= tol for w in kept):
            kept.append(z)
    return kept


@dataclass(frozen=True)
class ResidualSets:
    """Depth-truncated residual candidate set X and its two ingredient unions.

    `ones` holds the preimages of 1 at `depth`, which contain those at every
    smaller depth since f_j(1) = 1; `zeros` collects preimages of 0 at depths
    0..depth (0 itself at depth 0).  `points` is ones minus zeros (within tol).
    """

    depth: int
    tol: float
    points: tuple[complex, ...]
    ones: tuple[complex, ...]
    zeros: tuple[complex, ...]


def residual_set(sys: FiberedSystem, depth: int, tol: float = 1e-8) -> ResidualSets:
    """Compute X at the given depth: ∪ f̃_n^{-1}{1} minus ∪ f̃_n^{-1}{0}."""
    if depth < 1:
        raise OutOfRangeError(f"depth must be >= 1, got {depth}")
    zeros_all: list[complex] = [0j]
    for n in range(1, depth + 1):
        zeros_all.extend(preimages(sys, 0.0, n))
    ones = dedup_points(preimages(sys, 1.0, depth), tol)
    zeros = dedup_points(zeros_all, tol)
    kept = tuple(z for z in ones if all(abs(z - w) > tol for w in zeros))
    return ResidualSets(depth=depth, tol=tol, points=kept, ones=tuple(ones), zeros=tuple(zeros))
