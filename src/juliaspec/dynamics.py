"""Non-autonomous polynomial dynamics attached to the adding machine.

The fiber maps are f_j(z) = ((z - (1 - p_j)) / p_j)^{d_j}; their running
composition f̃_j = f_j ∘ ... ∘ f_1 (f̃_0 = identity) plays the role a single
polynomial's iterates play for an ordinary Julia set.  The filled set

    E = { z : sup_j |f̃_j(z)| < ∞ }

is contained in the closed disk around 1 - p_1 of radius p_1, hence in the
closed unit disk, and once some |f̃_r(z)| exceeds 1 the moduli grow
monotonically — so |f̃_r(z)| > ESCAPE_RADIUS = 1 + 1e-9 is a sound escape
certificate.

Eigenvector structure: with h_r(z) = (z - (1 - p_r)) / p_r, the factors
ι_λ(r) = h_r(f̃_{r-1}(λ)) obey ι_λ(r+1) = h_{r+1}(ι_λ(r)^{d_r}) and satisfy
f̃_r(λ) = ι_λ(r)^{d_r}; the candidate eigenvector of the transition operator
at λ is v_λ(n) = Π_r ι_λ(r)^{a_r(n)} over the digits of n.  One generator,
`FiberedSystem.orbit`, runs this recursion on one table of (1 - p_j, p_j, d_j).

Interior traps: "inside" is otherwise only "did not escape within the
budget".  `FiberedSystem.contraction_disk` and `FiberedSystem.cycle_disk`
are disks (None when not certified) that an orbit never leaves once it is
in them, so a point found in one is certified bounded (it lies in the
filled set) and needs no further level.

* Contraction disk, on the factors: |ι_j| <= ρ/2 at a level j >= j0 =
  `rho_from`, when p_j -> 1 and p_i >= ρ = 2(√2 - 1) for every i >= j0.
  Proof: with R = ρ/2 < 1 and d >= 2, |ι_{j+1}| = |ι_j^{d_j} - (1 - p)| / p
  <= (R² + 1 - p) / p, p = p_{j+1} >= ρ.  That bound is decreasing in p and
  equals (1 - ρ/2)²/ρ at p = ρ, which is ρ/2 exactly: ρ² + 4ρ - 4 = 0.  So
  the disk maps into itself, with zero margin at p = ρ; at p = 5/6 (p_2 of
  mixed23-harmonic) the image radius is 0.406 < 0.414.  Rounding cannot
  carry an orbit out: an image of radius ρ/2 + e has radius at most
  ρ/2 + e + e²/ρ.  |f̃_j| = |ι_j|^{d_j} <= ρ²/4 then stays far inside the
  escape radius, and ι_j -> 0 (factor_trace's CONVERGES_TO_ZERO).
* Cycle disk, on the compositions: |f̃_j - ẑ| <= r at a level j >= J - 1,
  when p_i = p and d_i = d for every i >= J, so that f_{j+1} is the tail
  map g(z) = ((z - c)/p)^d, c = 1 - p.  The only critical value of g is 0,
  so iterating 0 finds an attracting fixed point ẑ if there is one.  On the
  disk, |g'(z)| <= L(r) = (d/p)·((|ẑ - c| + r)/p)^{d-1}, and the disk is
  convex, so |g(z) - ẑ| <= |g(z) - g(ẑ)| + |g(ẑ) - ẑ| <= L(r)·r + |g(ẑ) - ẑ|.
  The disk is taken when that is <= r with L(r) < 1, and when it lies well
  inside the unit disk (|ẑ| + r <= 0.9); r is 0.9 of the radius at which L
  reaches 1, which leaves (1 - L(r))·r of slack for rounding.  On binary-p34 (p = 3/4,
  d = 2): ẑ = 1/16, g'(ẑ) = -2/3, L(r) = 2/3 + 32r/9 < 1 for r < 3/32.  The
  dendrite (0 -> 1, a repelling fixed point) and ternary-p12 (0 escapes)
  get no cycle disk.

Preimage trees: the level trees T_k = f̃_k⁻¹{1 - p_{k+1}} (`level_tree`,
memoized per system) are the spectra of the finite truncations, and
f̃_n⁻¹{0} is T_{n-1} taken d_n times, since f_n vanishes only at 1 - p_n.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from operator import attrgetter

import numpy as np

from .errors import OutOfRangeError, check_int, check_point, check_real
from .numeration import _LEVEL_CAP, BaseSequence
from .sequences import SequenceSpec, _tail_range, limit_is_one, threshold_index

__all__ = [
    "RHO",
    "ESCAPE_RADIUS",
    "FiberedSystem",
    "TrapDisk",
    "EscapeOutcome",
    "escape_classify",
    "TraceStatus",
    "FactorTrace",
    "factor_trace",
    "factor_values",
    "eigvec_head",
    "preimages",
    "level_tree",
    "dedup_points",
    "residual_set",
]

#: Contraction threshold 2(√2 - 1): if p_j >= RHO from some index on and a
#: factor ι_λ(j0) enters the disk of radius RHO/2, the factors tend to 0.
RHO = 2.0 * (math.sqrt(2.0) - 1.0)

#: Escape certificate: once |f̃_r(z)| exceeds this radius the moduli grow without bound.
ESCAPE_RADIUS = 1.0 + 1e-9
#: Two consecutive factors this close to 1 certify the factors are identically 1.
_ONE_TOL = 1e-9
#: Iterations of the critical value 0 under a constant tail map in search of ẑ.
_CYCLE_SEARCH = 1000
#: Leaves of a preimage tree, rows of a truncation and entries of an
#: eigenvector head: about 16 B each per array, several arrays at once.
_PREIMAGE_CAP = 1 << 20
#: Leaves per array pass of the Newton polish; bounds its working memory.
_POLISH_BLOCK = 4096
#: Children of a tree level from which it is built as one array pass.  A pass
#: makes ~40 numpy calls whatever its size: it breaks even with the node-by-node
#: Python recursion near 64 children (d = 2; ~80 at d = 3), and is 2.7x faster at 512.
_ARRAY_CHILDREN = 64


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


@dataclass(frozen=True)
class TrapDisk:
    """The closed disk |x - center| <= radius, never left once entered at a level j >= start."""

    start: int
    center: complex
    radius: float

    def contains(self, x):
        """Whether x (a number, or elementwise an array) lies in the disk."""
        return abs(x - self.center) <= self.radius

    def holds(self, j: int, x: complex) -> bool:
        return j >= self.start and self.contains(x)


def _cycle_disk(sys: FiberedSystem) -> TrapDisk | None:
    """The attracting fixed point disk of a constant tail map, when one is certified."""
    tails = (_tail_range(sys.p), _tail_range(sys.base.spec))
    if any(t is None or t[0] != t[1] for t in tails):
        return None
    tail_from = 1 + max(len(s.prefix) if s.kind == "prefix" else 0 for s in (sys.p, sys.base.spec))
    c, p, d = sys.level(tail_from)
    z = 0j
    for _ in range(_CYCLE_SEARCH):
        z, prev = _ipow((z - c) / p, d), z
        if abs(z) > ESCAPE_RADIUS:
            return None
        if abs(z - prev) <= 1e-15:
            break
    a = abs(z - c)
    radius = 0.9 * (p * (p / d) ** (1.0 / (d - 1)) - a)  # L(r) = 1 at r = radius / 0.9
    if not radius > 0:
        return None
    lip = (d / p) * ((a + radius) / p) ** (d - 1)
    drift = abs(_ipow((z - c) / p, d) - z)
    if lip * radius + drift <= radius and abs(z) + radius <= 0.9:
        return TrapDisk(max(tail_from - 1, 1), z, radius)
    return None


class FiberedSystem:
    """The maps f_j, h_j and their compositions for one (d̄, p̄) pair."""

    def __init__(self, base: BaseSequence, p: SequenceSpec):
        if p.codomain != "p":
            raise OutOfRangeError("FiberedSystem needs a probability spec (codomain 'p')")
        self.base = base
        self.p = p
        self._levels: list[tuple[float, float, int]] = []
        self._trees: dict[int, np.ndarray] = {}
        self._residual: dict[int, tuple[complex, ...]] = {}

    def level(self, j: int) -> tuple[float, float, int]:
        """(1 - p_j, p_j, d_j) for fiber index 1 <= j <= `_LEVEL_CAP`, from the level table."""
        j = check_int("fiber index", j, 1, _LEVEL_CAP)
        for i in range(len(self._levels) + 1, j + 1):
            p = self.p.float_at(i)
            self._levels.append((1.0 - p, p, self.digit_base(i)))
        return self._levels[j - 1]

    def digit_base(self, j: int) -> int:
        return self.base.digit_base(j)

    @cached_property
    def rho_from(self) -> int | None:
        """Certified first index from which p_j >= RHO when p_j -> 1, else None."""
        return threshold_index(self.p, RHO) if limit_is_one(self.p) else None

    @cached_property
    def contraction_disk(self) -> TrapDisk | None:
        """The contraction disk |ι_j| <= ρ/2 from `rho_from` on, read on the factors ι_j."""
        j0 = self.rho_from
        return None if j0 is None else TrapDisk(j0, 0j, RHO / 2.0)

    @cached_property
    def cycle_disk(self) -> TrapDisk | None:
        """The attracting fixed point disk of a constant tail, read on the compositions f̃_j."""
        return _cycle_disk(self)

    def p_float(self, j: int) -> float:
        return self.level(j)[1]

    def affine(self, j: int, z: complex) -> complex:
        """h_j(z) = (z - (1 - p_j)) / p_j."""
        c, p, _ = self.level(j)
        return (z - c) / p

    def fiber(self, j: int, z: complex) -> complex:
        """One fiber map f_j(z) = h_j(z)^{d_j}."""
        return _ipow(self.affine(j, z), self.digit_base(j))

    def orbit(self, z: complex, start: int = 1) -> Iterator[tuple[complex, complex]]:
        """Endless (ι_j, f̃_j), j = start, start + 1, ...: ι_j = h_j(f̃_{j-1}), f̃_j = ι_j^{d_j}.

        z is f̃_{start-1}: from start = 1, the point itself.  The orbit stops
        with BudgetExceededError past level `_LEVEL_CAP`.
        """
        start = check_int("orbit start level", start, 1)
        w, levels = complex(z), self._levels
        for j in count(start - 1):
            c, p, d = levels[j] if j < len(levels) else self.level(j + 1)
            iota = (w - c) / p
            w = _ipow(iota, d)
            yield iota, w

    def composed(self, j: int, z: complex) -> complex:
        """f̃_j(z) = f_j(...f_1(z)); f̃_0 is the identity."""
        return self.composed_with_derivative(j, z)[0]

    def composed_with_derivative(self, j: int, z: complex) -> tuple[complex, complex]:
        """(f̃_j(z), f̃_j'(z)) in one forward pass (chain rule)."""
        j = check_int("composition depth", j, 0, _LEVEL_CAP)
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
    A bounded verdict is certified (`certified_bounded`) when the orbit
    reached the invariant fixed point 1 exactly or entered one of the
    system's trap disks; otherwise it is an at-budget observation.

    `modulus` is |f̃_j| at the escape step, else at the budget (1 once the
    orbit sits on the fixed point 1).  A trapped orbit stops where it entered
    the trap, and reading `modulus` runs it on from there to the budget.  An
    orbit that overflowed escapes, with `modulus` inf: its f̃_j is NaN (as
    (a + ai)² is, with real part inf - inf) or has a modulus past the float
    range.  A bounded orbit never overflows.
    """

    escaped: bool
    step: int | None
    budget: int
    radius: float
    certified_bounded: bool
    #: (system, f̃_j, j) at the level j where the test stopped.
    stop: tuple = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def modulus(self) -> float:
        sys, w, j = self.stop
        for _, w in islice(sys.orbit(w, j + 1), 0 if self.escaped else max(self.budget - j, 0)):
            pass
        try:
            return math.inf if cmath.isnan(w) else abs(w)
        except OverflowError:  # finite parts, a modulus past the float range
            return math.inf


def escape_classify(
    sys: FiberedSystem, z: complex, budget: int, start: int = 1
) -> EscapeOutcome:
    """Iterate f̃_j at z until |f̃_j| > ESCAPE_RADIUS, the orbit is trapped, or the budget runs out.

    A level whose f̃_j is exactly 1, whose ι_j lies in `sys.contraction_disk`
    or whose f̃_j lies in `sys.cycle_disk` certifies that the orbit stays
    bounded.  With start > 1, z stands for f̃_{start-1} of some point whose
    earlier levels are known not to decide the test; levels start..budget run.
    """
    budget = check_int("budget", budget, 1, _LEVEL_CAP)
    start = check_int("start", start, 1)
    radius = ESCAPE_RADIUS
    w = check_point("z", z)
    if w == 1:  # invariant fixed point of every fiber map
        return EscapeOutcome(False, None, budget, radius, True, stop=(sys, w, budget))
    con, cyc = sys.contraction_disk, sys.cycle_disk
    j = start - 1
    try:
        for j, (iota, w) in enumerate(islice(sys.orbit(w, start), max(budget - j, 0)), start):
            if not abs(w) <= radius:  # a NaN from an overflow escapes too
                return EscapeOutcome(True, j, budget, radius, False, stop=(sys, w, j))
            if w == 1:
                return EscapeOutcome(False, None, budget, radius, True, stop=(sys, w, budget))
            if (con and con.holds(j, iota)) or (cyc and cyc.holds(j, w)):
                return EscapeOutcome(False, None, budget, radius, True, stop=(sys, w, j))
    except OverflowError:  # abs(w) of finite parts past the float range: an escape
        return EscapeOutcome(True, j, budget, radius, False, stop=(sys, w, j))
    return EscapeOutcome(False, None, budget, radius, False, stop=(sys, w, j))


class TraceStatus(Enum):
    ESCAPED = "escaped"
    CONVERGES_TO_ZERO = "converges-to-zero"
    CONVERGES_TO_ONE = "converges-to-one"
    BOUNDED_AT_BUDGET = "bounded-at-budget"


@dataclass(frozen=True)
class FactorTrace:
    """Factors ι_λ(1..k) with a stopping status.

    ESCAPED(k): |ι(k)| > ESCAPE_RADIUS, or ι(k) overflowed, so λ is certified
    outside the filled set (all later factors keep growing).
    CONVERGES_TO_ZERO(k): ι(k) lies in the
    `FiberedSystem.contraction_disk`: the tail of p̄ is certified
    >= RHO from some index j0 <= k, p_j -> 1, and |ι(k)| <= RHO/2 — a
    certificate that ι -> 0.  CONVERGES_TO_ONE(k): two
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


def factor_trace(sys: FiberedSystem, lam: complex, budget: int) -> FactorTrace:
    """Run the factor recursion ι(r+1) = h_{r+1}(ι(r)^{d_r}) with stopping rules."""
    budget = check_int("budget", budget, 1, _LEVEL_CAP)
    lam = check_point("lambda", lam)
    if lam == 1:
        # Every factor is exactly 1; avoid float drift around the repelling point.
        vals = (1.0 + 0j,) * min(budget, 2)
        return FactorTrace(lam, vals, TraceStatus.CONVERGES_TO_ONE, 1, budget)

    contraction = sys.contraction_disk
    values: list[complex] = []
    near_one_run = 0
    try:
        for k, (v, _) in enumerate(islice(sys.orbit(lam), budget), 1):
            values.append(v)
            if not abs(v) <= ESCAPE_RADIUS:  # a NaN from an overflow escapes too
                return FactorTrace(lam, tuple(values), TraceStatus.ESCAPED, k, budget)
            if abs(v - 1.0) <= _ONE_TOL:
                near_one_run += 1
                if near_one_run >= 2:
                    return FactorTrace(
                        lam, tuple(values), TraceStatus.CONVERGES_TO_ONE, k - 1, budget
                    )
            else:
                near_one_run = 0
                if contraction is not None and contraction.holds(k, v):
                    return FactorTrace(
                        lam, tuple(values), TraceStatus.CONVERGES_TO_ZERO, k, budget
                    )
    except OverflowError:  # abs(v) of finite parts past the float range: an escape
        return FactorTrace(lam, tuple(values), TraceStatus.ESCAPED, k, budget)
    return FactorTrace(lam, tuple(values), TraceStatus.BOUNDED_AT_BUDGET, None, budget)


def factor_values(sys: FiberedSystem, lam: complex, count: int) -> list[complex]:
    """Raw factors ι_λ(1..count) without stopping rules.

    Past an overflow the entries are inf or NaN; `factor_trace` is the
    checked route.
    """
    count = check_int("count", count, 0, _LEVEL_CAP)
    lam = check_point("lambda", lam)
    if lam == 1:
        return [1.0 + 0j] * count
    return [iota for iota, _ in islice(sys.orbit(lam), count)]


def eigvec_head(sys: FiberedSystem, lam: complex, length: int) -> list[complex]:
    """v_λ(0..length-1) as kron_r (1, ι_r, ..., ι_r^{d_r-1}), length >= 1.

    Entry n is Π_r ι_r^{a_r(n)} over the digits of n, each power by `_ipow`
    and the product taken from the lowest digit up.  Digit r runs only the
    powers a < ⌈length / q_{r-1}⌉ that the head still needs.  A head with an
    inf or NaN entry, where λ escapes, is refused (OutOfRangeError).
    """
    length = check_int("length", length, 1, _PREIMAGE_CAP)
    head = [1 + 0j]
    for r, iota in enumerate(factor_values(sys, lam, sys.base.level_of(length - 1)), 1):
        q = len(head)
        for a in range(1, min(sys.digit_base(r), -(-length // q))):
            pw = _ipow(iota, a)
            head.extend([v * pw for v in head[: min(q, length - len(head))]])
    if not all(map(cmath.isfinite, head)):
        raise OutOfRangeError(f"eigenvector head at λ={lam}, length {length} overflows: λ escapes")
    return head


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


def _droots(u: complex, d: int, units: list[complex]) -> list[complex]:
    """All d-th roots of u (a d-fold 0 when u = 0); units[k] is `_unit_root(k, d)`."""
    if u == 0:
        return [0j] * d
    r = abs(u) ** (1.0 / d)
    theta = cmath.phase(u)
    principal = complex(r, 0.0) if theta == 0.0 else r * cmath.exp(1j * theta / d)
    return [principal * w for w in units]


# The split-complex helpers below take (re, im) pairs of float64 arrays and
# repeat, operation for operation, the C code CPython 3.11 runs for `complex`:
# numpy's own complex product may fuse multiply-adds, and its division by a
# real p multiplies by 1/p, so neither gives Python's bits.  Scalar operands
# are 0-d arrays, which numpy combines with an array faster than a float.

_ZERO = np.array(0.0)


def _real_divisor(p: float):
    """(ratio, denom) of CPython's complex quotient by p + 0j, as 0-d arrays."""
    ratio = 0.0 / p
    return np.array(ratio), np.array(p + 0.0 * ratio)


_HALVE = _real_divisor(2.0)


def _c_mul(ar, ai, br, bi):
    """a·b, as CPython's complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_div_real(ar, ai, divisor):
    """a / (p + 0j), divisor = `_real_divisor(p)`; the ±0.0 terms give Python's signs of zero."""
    ratio, denom = divisor
    return (ar + ai * ratio) / denom, (ai - ar * ratio) / denom


def _c_div(ar, ai, br, bi):
    """a / b, as CPython's complex quotient (Smith's method, branch on |b.re| >= |b.im|).

    Where b has a NaN part Python returns NaN; the second branch does too.
    """
    ratio = bi / br
    denom = br + bi * ratio
    rr, ri = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    sr, si = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    by_real = np.abs(br) >= np.abs(bi)
    return np.where(by_real, rr, sr), np.where(by_real, ri, si)


def _c_ipow(zr, zi, n: int):
    """`_ipow` for n >= 1: the same square-and-multiply from 1 + 0j."""
    out = None
    br, bi = zr, zi
    while n:
        if n & 1:
            # (1 + 0j)·b is b - 0.0·b.imag, b.imag + 0.0·b.real: 1.0·x is exact.
            out = (br - _ZERO * bi, bi + _ZERO * br) if out is None else _c_mul(*out, br, bi)
        n >>= 1
        if n:
            br, bi = _c_mul(br, bi, br, bi)
    return out


def _split_levels(sys: FiberedSystem, depth: int) -> list:
    """Levels 1..depth as (c, `_real_divisor(p)`, d, float(d)), c and float(d) as 0-d arrays."""
    return [
        (np.array(c), _real_divisor(p), d, np.array(float(d)))
        for c, p, d in map(sys.level, range(1, depth + 1))
    ]


def _composed_arrays(levels, zr, zi, derivative: bool):
    """`FiberedSystem.composed_with_derivative` over split arrays of points, bit for bit.

    `levels` comes from `_split_levels`.  Returns (v.re, v.im, dv.re, dv.im);
    the derivative parts are None unless asked for.
    """
    vr, vi = zr, zi
    dr = di = None
    if derivative:
        dr, di = np.ones_like(zr), np.zeros_like(zi)
    for c, divisor, d, fd in levels:
        # w - c leaves the imaginary part as it is (im - 0.0 == im, signed zeros too).
        ir, ii = _c_div_real(vr - c, vi, divisor)
        vr, vi = _c_ipow(ir, ii, d)
        if derivative:
            # d * g is complex(d) * g.
            gr, gi = _c_mul(fd, _ZERO, *_c_ipow(ir, ii, d - 1))
            dr, di = _c_mul(gr, gi, *_c_div_real(dr, di, divisor))
    return vr, vi, dr, di


def _polish_block(levels, target: complex, zr, zi, out):
    """One damped Newton pass on f̃_depth(z) - target for every point z = zr + i·zi, into out.

    Per point: take the Newton step, then keep the first of z - step,
    z - step/2, z - step/4, z - step/8 whose residual is no larger than that of
    z, else z itself.  Each try evaluates only the points still undecided.
    `out` is a complex array the size of zr; its real and imaginary parts are
    assigned apart, which keeps every sign of zero.
    """
    out.real, out.imag = zr, zi
    vr, vi, dr, di = _composed_arrays(levels, zr, zi, derivative=True)
    er, ei = vr - target.real, vi - target.imag
    best = np.hypot(er, ei)
    idx = np.flatnonzero((best != 0) & (np.hypot(dr, di) != 0))  # dv == 0 iff |dv| == 0
    if not idx.size:
        return
    sr, si = _c_div(er[idx], ei[idx], dr[idx], di[idx])
    best = best[idx]
    for _ in range(4):
        cr, ci = zr[idx] - sr, zi[idx] - si
        vr, vi, _, _ = _composed_arrays(levels, cr, ci, derivative=False)
        ok = np.hypot(vr - target.real, vi - target.imag) <= best
        out.real[idx[ok]], out.imag[idx[ok]] = cr[ok], ci[ok]
        miss = ~ok
        if not miss.any():
            break
        idx, best = idx[miss], best[miss]
        sr, si = _c_div_real(sr[miss], si[miss], _HALVE)


def preimages(sys: FiberedSystem, target: complex, depth: int) -> list[complex]:
    """The multiset f̃_depth^{-1}{target}, size q_depth, polished leaves in tree order.

    The leaves are those of the branch recursion (`_tree`), each then given
    one damped Newton pass against the full composition.  The tree's larger
    levels and the polish run over numpy arrays, the polish `_POLISH_BLOCK`
    leaves at a time, with real and imaginary parts kept apart so that every
    float operation is the one CPython's `complex` arithmetic performs: the
    leaves equal, bit for bit, a per-node scalar recursion followed by a
    per-leaf scalar polish through `composed_with_derivative`.  A tree of
    more than `_PREIMAGE_CAP` leaves is refused (BudgetExceededError), and so,
    at depth >= 1, is a target whose modulus passes the float range
    (OutOfRangeError).
    """
    depth = check_int("depth", depth, 0)
    _check_leaves(sys, depth)
    target = check_point("target", target)
    if depth == 0:
        return [target]
    try:
        abs(target)  # the tree's first |u|
    except OverflowError:
        raise OutOfRangeError(f"target {target} has a modulus past the float range") from None
    return _polished_tree(sys, target, depth).tolist()


def _check_leaves(sys: FiberedSystem, depth: int) -> None:
    """Refuse a tree of more than `_PREIMAGE_CAP` leaves, before anything is allocated for it."""
    check_int("preimage leaves", sys.base.place_value(depth), 1, _PREIMAGE_CAP)


def _polished_tree(sys: FiberedSystem, target: complex, depth: int, zeros=()) -> np.ndarray:
    """The polished leaves of `_tree(sys, target, depth, zeros)`, as a complex array in tree order."""
    levels = _split_levels(sys, depth)
    # Overflow and NaN pass silently, as they do in `complex` arithmetic.
    with np.errstate(all="ignore"):
        zr, zi = _tree(sys, target, depth, zeros)
        out = np.empty(zr.size, dtype=complex)
        for lo in range(0, zr.size, _POLISH_BLOCK):
            block = slice(lo, lo + _POLISH_BLOCK)
            _polish_block(levels, target, zr[block], zi[block], out[block])
    return out


def _tree(sys: FiberedSystem, target: complex, depth: int, zeros=()):
    """The unpolished leaves of f̃_depth^{-1}{target} by branch recursion, as (re, im) arrays.

    Levels are peeled outermost-first: solutions of f̃_n = w are preimages
    under f_n of solutions of f̃_{n-1} = w.  Each node u has the d_j-th roots
    of u (`_droots`), and each root w becomes the child c + p·w.  A level
    with fewer than `_ARRAY_CHILDREN` children is built node by node in
    Python, a larger one by one array pass (`_children`); both give the same
    bits.  `zeros` lists (index, position) pairs of nodes to leave out, with
    every node under them, as each level is built: the node at index n and
    position i of the whole tree is f̃_n of the leaves i·q_n up to
    (i + 1)·q_n, and its children are at positions i·d + k.  The leaves left
    come in tree order.
    """
    drop: dict[int, list[int]] = {}
    for n, i in zeros:
        drop.setdefault(n, []).append(i)
    points, j = [target], depth
    pos = [0] if drop else None  # the whole tree's positions of the nodes kept
    while j:
        c, p, d = sys.level(j)
        if len(points) * d >= _ARRAY_CHILDREN:
            break
        units = [_unit_root(k, d) for k in range(d)]
        points = [c + p * w for u in points for w in _droots(u, d, units)]
        j -= 1
        if pos is not None:
            pos = [i * d + k for i in pos for k in range(d)]
            if j in drop:
                gone = set(drop[j])
                points = [z for z, i in zip(points, pos) if i not in gone]
                pos = [i for i in pos if i not in gone]
    leaves = np.array(points, dtype=complex)
    zr, zi = leaves.real, leaves.imag
    for j in range(j, 0, -1):
        c, p, d = sys.level(j)
        zr, zi = _children(zr, zi, c, p, d)
        if pos is not None:
            pos = (np.asarray(pos)[:, None] * d + np.arange(d)).ravel()
            if j - 1 in drop:
                keep = ~np.isin(pos, drop[j - 1])
                zr, zi, pos = zr[keep], zi[keep], pos[keep]
    return zr, zi


def _children(zr, zi, c: float, p: float, d: int):
    """The children c + p·w of the nodes zr + i·zi, w over `_droots` of each, in tree order.

    One array pass, bit for bit the Python recursion: |u|, phase(u) and
    r = |u|^{1/d} are Python's libm calls, one per node, since numpy's differ
    from them in the last bit.  exp(iθ/d) is cos + i·sin of θ/d (exp(±0.0) =
    1.0), from numpy's cos and sin, which give libm's bits (the tests pin
    that).  Every product and sum is the one CPython's `complex` arithmetic
    performs, ±0.0 terms included, so θ = 0 gives the root r + 0j; a node
    u = 0 has d roots w = 0j.
    """
    nodes = np.empty(zr.size, dtype=complex)
    nodes.real, nodes.imag = zr, zi
    nodes = nodes.tolist()
    theta = np.fromiter(map(cmath.phase, nodes), float, len(nodes))
    # r = |u| ** (1/d), one libm pow per node.
    r = np.fromiter(map((1.0 / d).__rpow__, map(abs, nodes)), float, len(nodes))
    # r·exp(iθ/d) is (r + 0j)·(cos + i·sin).  At θ = ±0.0 that is exactly
    # r + 0j, `_droots`'s θ = 0 branch: cos is 1.0, sin is ±0.0, and ±0.0 + 0.0 = 0.0.
    a = theta / float(d)
    er, ei = np.cos(a), np.sin(a)
    pr, pi = r * er - 0.0 * ei, r * ei + 0.0 * er
    units = np.array([_unit_root(k, d) for k in range(d)])
    wr, wi = _c_mul(pr[:, None], pi[:, None], units.real, units.imag)
    zero = (zr == 0.0) & (zi == 0.0)
    wr[zero], wi[zero] = 0.0, 0.0
    # c + p·w is (c + 0j) + (p + 0j)·w.
    return (c + (p * wr - 0.0 * wi)).ravel(), (0.0 + (p * wi + 0.0 * wr)).ravel()


def level_tree(sys: FiberedSystem, k: int) -> np.ndarray:
    """T_k = f̃_k⁻¹{1 - p_{k+1}}, q_k points in tree order; memoized per system, read-only.

    T_k is the spectrum of the q_k truncation (`operator.truncated_eigenvalues`)
    and f̃_{k+1} vanishes on it.  The points are those `preimages` returns
    for target 1 - p_{k+1} at depth k (the array tree, then the polish), bit
    for bit.
    """
    k = check_int("level", k, 0)
    tree = sys._trees.get(k)
    if tree is None:
        tree = np.array(preimages(sys, sys.level(k + 1)[0], k), dtype=complex)
        tree.flags.writeable = False
        sys._trees[k] = tree
    return tree


_real_part = attrgetter("real")


def _near(pts, z, tol: float) -> list:
    """The points of `pts` (sorted by real part) with |re - z.re| <= 2·tol, by bisection.

    Any w with abs(z - w) <= tol lies in this window: the factor 2 covers the
    rounding of z.re ± 2·tol and of z - w.  The l^1 lookup of
    `spectra.classify` reads the residual candidates through it.
    """
    lo = bisect_left(pts, z.real - 2 * tol, key=_real_part)
    return pts[lo : bisect_right(pts, z.real + 2 * tol, lo, key=_real_part)]


def dedup_points(points, tol: float) -> list[complex]:
    """Representatives of tol-clusters (tol finite, >= 0), in sorted (re, im) order.

    Greedy: walking the points in sorted order, keep a point unless a kept one
    lies within tol.  Kept points are appended in order, so the candidates are
    found by bisecting their real parts (`_near`, which the l^1 lookup also
    reads).  No program code calls it; it stays while the benchmark's tracer
    (`perfbench/tracer.py`) wraps it.
    """
    tol = check_real("tol", tol, 0)
    kept: list[complex] = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if not any(abs(z - w) <= tol for w in _near(kept, z, tol)):
            kept.append(z)
    return kept


def _iroot(n: int, d: int) -> int | None:
    """The integer r with r**d == n, for an integer n >= 1; None when there is none."""
    r = 1 << -(-n.bit_length() // d)  # r**d > n: Newton's method descends from above
    while (s := ((d - 1) * r + n // r ** (d - 1)) // d) < r:
        r = s
    return r if r**d == n else None


def _rational_roots(v: Fraction, d: int) -> list[Fraction]:
    """The real rational w with w**d == v, for v != 0."""
    num, den = _iroot(abs(v.numerator), d), _iroot(v.denominator, d)
    if num is None or den is None or (v < 0 and d % 2 == 0):
        return []
    w = Fraction(num, den) if v > 0 else -Fraction(num, den)
    return [w, -w] if d % 2 == 0 else [w]


def _zero_nodes(sys: FiberedSystem, depth: int) -> Iterator[tuple[int, int]]:
    """(index, position) of each node of `preimages(sys, 1, depth)`'s tree that is exactly 0.

    The node at index n on a leaf z's path is f̃_n(z), the root (index depth)
    being 1.  Above a zero node at index n the path is the forward orbit
    f_{n+1}(0), f_{n+2}(f_{n+1}(0)), ..., 1 of 0, all real rationals: each
    node is c_j + p_j·w for a real rational d_j-th root w of its parent.  So
    a walk down from the root along the real rational roots of the nonzero
    nodes, in exact arithmetic with p_j from `SequenceSpec.value_at` (a
    random spec's float is exact as a Fraction), meets every zero node not
    under another one; those under one hold no leaf it does not, and are not
    reported.  The tree lists the children of the node at position i at
    positions i·d + k, k the index of the root among `_droots` of the node's
    float value; that float value is carried along the walk, computed as the
    tree computes it, and k is that of the float root nearest the exact one.
    """
    walk = [(depth, Fraction(1), 1 + 0j, 0)]  # (index, exact node, float node, position)
    while walk:
        n, v, u, i = walk.pop()
        c, p, d = sys.level(n)
        exact_p = Fraction(sys.p.value_at(n))
        roots = _droots(u, d, [_unit_root(k, d) for k in range(d)])
        for w in _rational_roots(v, d):
            k = min(range(d), key=lambda m: abs(roots[m] - float(w)))
            child, pos = 1 - exact_p + exact_p * w, i * d + k
            if child == 0:
                yield n - 1, pos
            elif n > 1:
                walk.append((n - 1, child, c + p * roots[k], pos))


def residual_set(sys: FiberedSystem, depth: int) -> tuple[complex, ...]:
    """X at the given depth: ∪ f̃_n⁻¹{1} minus ∪ f̃_n⁻¹{0} over n <= depth, each point once.

    Since f_j(1) = 1, the preimages of 1 at `depth` hold those at every
    smaller depth.  In their tree a nonzero node has d distinct roots, and
    distinct points have disjoint preimage sets, so two leaves are one point
    only when their paths split at a node that is exactly 0; and a leaf z is a
    preimage of 0 at depth n exactly when its node f̃_n(z) is 0.  So X is the
    set of polished leaves of `preimages(sys, 1, depth)` under no node that
    `_zero_nodes` finds, with no tolerance.  The tree is built without those
    nodes and what lies under them (`_tree`), so only the leaves of X are
    built and polished: dendrite's X = {1} costs one leaf at any depth.  The
    points come in sorted (re, im) order, memoized per depth on the system.
    """
    depth = check_int("depth", depth, 1)
    if depth not in sys._residual:
        _check_leaves(sys, depth)
        leaves = _polished_tree(sys, 1 + 0j, depth, list(_zero_nodes(sys, depth)))
        sys._residual[depth] = tuple(leaves[np.lexsort((leaves.imag, leaves.real))].tolist())
    return sys._residual[depth]
