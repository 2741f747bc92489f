"""Scalar references for the candidate eigenvector and its series, used by the tests only.

The library builds eigenvector heads whole (`dynamics.eigvec_head`, a
Kronecker product of per-digit factor vectors) and reads the α-series from
the factor trace (`spectra._series_product`).  The functions below compute
one entry, one dual entry, one partial sum and one head-identity defect at a
time, straight from the definitions, for the tests to check against.
"""

from juliaspec.dynamics import FiberedSystem, _ipow, factor_values
from juliaspec.errors import JuliaspecError, check_int
from juliaspec.spectra import _series_product


class DivisionByZeroIotaError(JuliaspecError):
    """A dual eigenvector entry requires dividing by a vanishing factor."""


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


def series_partial_sum(sys: FiberedSystem, lam: complex, depth: int, alpha: float = 1.0) -> float:
    """Σ_{n < q_depth} |v_λ(n)|^α = Σ_n Π_r |ι_λ(r)|^{a_r(n)·α} via the factored closed form.

    The sum over one digit block splits, so the whole partial sum equals
    Π_{k<=depth} (1 + |ι_λ(k)|^α + ... + |ι_λ(k)|^{(d_k - 1)α}).
    """
    depth = check_int("depth", depth, 0)
    return _series_product(sys, factor_values(sys, lam, depth), alpha)


def dual_consistency_residual(sys: FiberedSystem, lam: complex, terms: int) -> float:
    """Defect |ι_λ(1) - Σ_{i<=terms} (1-p_{i+1}) Π_{j=2..i} p_j / Π_{r<i} ι_λ(r)^{d_r-1}|.

    The full series is the head identity the dual eigenvector must satisfy at
    row 0; in the null-recurrent regime the defect tends to 0 along the
    residual candidate points, in the transient regime it stays bounded away.
    """
    terms = check_int("terms", terms, 1)
    fac = factor_values(sys, lam, terms)
    acc = 0j
    prod_p = 1.0
    prod_fac = 1 + 0j
    for i in range(1, terms + 1):
        if i >= 2:
            prod_p *= sys.p_float(i)
        if prod_fac == 0:
            raise DivisionByZeroIotaError(f"factor product vanishes before term {i}")
        acc += (1.0 - sys.p_float(i + 1)) * prod_p / prod_fac
        prod_fac *= _ipow(fac[i - 1], sys.digit_base(i) - 1)
    return abs(fac[0] - acc)
