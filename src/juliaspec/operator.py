"""Finite truncations of the transition operator and Weyl-type defect bounds.

The operator acts on sequences by (Ωv)(n) = Σ_m s(n, m) v(m).  A size-N
truncation keeps the top-left N×N block of the transition matrix exactly as
it is: probability mass that leaves the window is *dropped, never
renormalized*, so the truncation stays honest about being a sub-stochastic
approximation.  Entries are exact rationals whenever the success sequence
is rational.

The Weyl construction pads a candidate eigenvector (computed from the
factor products) with zeros and measures the α-norm defect of (A - λI)
against it on a window of twice the head length; the defect is small
because the only rows that feel the cut touch columns 0 and q_n, with
coefficient masses that telescope into closed forms.

Truncation spectra come from one table of preimage trees: the size-N
spectrum is the union of a_k copies of T_{k-1} = f̃_{k-1}⁻¹{1 - p_k} over the
digits a_k of N, N leaves in all, and every eigenvalue of one tree gets the
same escape tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .chain import ChainConfig, _check_model
from .dynamics import (
    _PREIMAGE_CAP,
    EscapeOutcome,
    FiberedSystem,
    _c_mul,
    eigvec_head,
    escape_classify,
    level_tree,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    OutOfRangeError,
    check_int,
    check_point,
    check_real,
)
from .sequences import tail_product

__all__ = [
    "SparseTruncation",
    "build_truncation",
    "weyl_vector",
    "WeylDefect",
    "weyl_defect",
    "truncated_eigenvalues",
    "eigenvalue_report",
    "write_eigenvalue_csv",
    "write_matrix_csv",
]

@dataclass(frozen=True, eq=False)
class SparseTruncation:
    """Top-left size×size block of the transition matrix, stored as its row law.

    With P_r = p_1···p_r and ζ_n = 1 + max{r : q_r | n + 1}, row n falls to
    n - (q_r - 1) with mass (1 - p_{r+1}) P_r for each r < ζ_n and moves up
    to n + 1 with mass P_ζ; zero masses are omitted.  So a row is fixed by
    its ζ, held in the read-only array `zeta`, and `laws[ζ - 1]` is the
    chain's `row_law(ζ)` for ζ = 1..L, the same tuples the chain holds:
    (column - n, mass) pairs in column order.  Masses are Fractions when
    `exact`, floats otherwise.

    A fall never leaves the window, so only row size - 1 loses mass to the
    cut, through its move up: outflow[n] is 0 for every other row and `lost`
    for that one.  The lost mass is kept for inspection, never folded back.
    `to_dense`, `apply` and `apply_dual` work in floats, exact entries
    rounded once; they read the falls of the top law, one strided slice per
    level, and give a CSR product's sums bit for bit.  The exact views
    (`rows`, `entry`, `row_sum`, `write_matrix_csv`) read law ζ_n for row n.
    `rows` is built on first use.
    """

    size: int
    exact: bool
    zeta: np.ndarray
    laws: tuple

    @property
    def _zero(self):
        return Fraction(0) if self.exact else 0.0

    def _up(self, law) -> Fraction | float:
        """The move-up mass of a law, 0 where it is omitted."""
        return law[-1][1] if law[-1][0] == 1 else self._zero

    def _row(self, n: int) -> list[tuple[int, Fraction | float]]:
        """Row n's (column, mass) pairs inside the window, in column order."""
        return [(n + d, m) for d, m in self.laws[self.zeta[n] - 1] if n + d < self.size]

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction | float], ...], ...]:
        """rows[n]: row n's (column, value) pairs in increasing column order."""
        return tuple(tuple(self._row(n)) for n in range(self.size))

    @property
    def lost(self) -> Fraction | float:
        """The mass of the last row's move up, which leaves the window."""
        return self._zero + self._up(self.laws[self.zeta[-1] - 1])

    @cached_property
    def outflow(self) -> tuple[Fraction | float, ...]:
        """outflow[n]: the mass of row n that fell outside the window."""
        return (self._zero,) * (self.size - 1) + (self.lost,)

    @cached_property
    def _float_levels(self) -> tuple[list[tuple[int, float]], np.ndarray]:
        """(q_r, fall mass) of every level r with nonzero falls, top level first,
        and the move-up mass P_ζ of each row but the last, all in floats."""
        falls = [(1 - d, float(m)) for d, m in self.laws[-1] if d != 1]
        ups = np.array([float(self._up(law)) for law in self.laws])
        return falls, ups[self.zeta[:-1] - 1]

    def entry(self, n: int, m: int):
        """Matrix entry at (row n, column m); 0 when absent."""
        n, m = self._check_index(n), self._check_index(m)
        return next((v for c, v in self._row(n) if c == m), self._zero)

    def row_sum(self, n: int):
        """In-window mass of row n (1 - outflow[n] for a stochastic source row)."""
        return sum((v for _, v in self._row(self._check_index(n))), self._zero)

    def to_dense(self) -> np.ndarray:
        """Dense float64 matrix: each entry is one mass of a law."""
        falls, up = self._float_levels
        dense = np.zeros(self.size * self.size)
        dense[1 :: self.size + 1] = up  # row n moves up to column n + 1
        for q, m in falls:  # row jq + q - 1 falls to column jq
            dense[(q - 1) * self.size :: q * (self.size + 1)] = m
        return dense.reshape(self.size, self.size)

    def apply(self, vec) -> np.ndarray:
        """Row action (A v)(n) = Σ_m A[n, m] v(m) in complex floats."""
        v = self._check_vector(vec)
        parts = self._row_action(v.real, self.size), self._row_action(v.imag, self.size)
        return np.column_stack(parts).view(complex).ravel()  # both parts kept bit for bit

    def apply_dual(self, vec) -> np.ndarray:
        """Column action (u A)(m) = Σ_n u(n) A[n, m] in complex floats."""
        u = self._check_vector(vec)
        parts = self._column_action(u.real), self._column_action(u.imag)
        return np.column_stack(parts).view(complex).ravel()

    def _row_action(self, x: np.ndarray, stop: int) -> np.ndarray:
        """Rows [0, stop) of A x for a real x, one strided slice per level.

        Row n sums its entries by increasing column from +0.0, as a CSR
        product does: its falls from the top level down, then its move up.
        """
        falls, up = self._float_levels
        y = np.zeros(stop)
        for q, m in falls:  # rows q - 1, 2q - 1, ... fall to columns 0, q, ...
            y[q - 1 :: q] += m * x[: stop // q * q : q]
        n = min(stop, self.size - 1)
        y[:n] += up[:n] * x[1 : n + 1]
        return y

    def _column_action(self, x: np.ndarray) -> np.ndarray:
        """x A for a real x: column m sums its entries by increasing row from
        +0.0, as the transposed CSR product does: the move up from row m - 1,
        then the falls from rows m + q_r - 1, the lowest level first."""
        falls, up = self._float_levels
        y = np.zeros(self.size)
        y[1:] += up * x[:-1]
        for q, m in reversed(falls):
            y[: self.size // q * q : q] += m * x[q - 1 :: q]
        return y

    def _check_vector(self, vec) -> np.ndarray:
        try:
            v = np.asarray(vec, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise OutOfRangeError(f"vector must hold numbers: {exc}") from None
        # numpy reads None as NaN; a NaN from a float stays (weyl_defect's overflow).
        if np.isnan(v).any() and any(x is None for x in np.asarray(vec, dtype=object).flat):
            raise OutOfRangeError("vector must hold numbers, not None")
        if v.shape != (self.size,):
            raise DimensionMismatchError(
                f"vector of shape {v.shape} does not match truncation size {self.size}"
            )
        return v

    def _check_index(self, i: int) -> int:
        if (i := check_int("index", i, 0)) >= self.size:
            raise OutOfRangeError(f"index {i} outside truncation of size {self.size}")
        return i


def build_truncation(cfg: ChainConfig, size: int) -> SparseTruncation:
    """Truncate the transition matrix to states {0, ..., size-1}.

    Stores the row law (see `SparseTruncation`): the chain's laws for
    ζ = 1..L, L the number of digits of size, past which no row reaches,
    and ζ per row, counted level by level: the rows with ζ_n > r are those
    with q_r | n + 1.  A size above 2^20, the cap of
    `truncated_eigenvalues`, is refused before anything is allocated.
    """
    size = check_int("truncation size", size, 1)
    if size > _PREIMAGE_CAP:
        raise BudgetExceededError(f"truncation size {size} exceeds {_PREIMAGE_CAP} rows")
    top = cfg.base.level_of(size)
    zeta = np.ones(size, dtype=np.int64)
    for q in map(cfg.base.place_value, range(1, top)):
        zeta[q - 1 :: q] += 1
    zeta.flags.writeable = False
    laws = tuple(map(cfg.row_law, range(1, top + 1)))
    return SparseTruncation(size, cfg.p.is_rational(), zeta, laws)


# -- Weyl defect vectors -----------------------------------------------------


def weyl_vector(sys: FiberedSystem, lam: complex, level: int, size: int) -> np.ndarray:
    """Candidate eigenvector head padded with zeros.

    Entries 0..q_level carry the factor-product values v_λ(m); entries above
    are zero.  `size` must be at least q_level + 1.
    """
    k = sys.base.place_value(check_int("level", level, 1))
    w = np.zeros(check_int("size", size, k + 1), dtype=complex)
    w[: k + 1] = eigvec_head(sys, lam, k + 1)
    return w


@dataclass(frozen=True)
class WeylDefect:
    """Measured α-norm defect of the padded eigenvector, with its closed-form bound.

    defect = ‖(A - λI) w‖_α / ‖w‖_α on the size-2q_level truncation.  The
    rows of the defect vector that survive touch only columns 0 and q_level
    of the head; their coefficient masses telescope to

      coeff_col0 = Σ_{i>=level+1} (1-p_{i+1}) Π_{j<=i} p_j
      coeff_colk = |1 - p_1 - λ| + p_1 - Π_{j<=level+1} p_j

    and bound = (C (coeff_col0 |w_0|^α + coeff_colk |w_k|^α))^{1/α} / ‖w‖_α
    with C = (1 + |λ|)^{α-1}.  coeff_col0 also covers the rows beyond the
    window, so the bound applies to the full operator, not just the block.
    """

    lam: complex
    alpha: float
    level: int
    k: int
    size: int
    defect: float
    bound: float
    coeff_col0: float
    coeff_colk: float
    head_norm: float

    def to_json(self) -> dict:
        """The fields in order, '_' read as '-', with λ as [re, im] under "lambda"."""
        fields = {k.replace("_", "-"): v for k, v in vars(self).items() if k != "lam"}
        return {"lambda": [self.lam.real, self.lam.imag], **fields}


def column0_coefficient(cfg: ChainConfig, level: int):
    """Σ_{i>=level+1} (1-p_{i+1}) Π_{j<=i} p_j, by telescoping.

    Equals Π_{j<=level+1} p_j minus the limit of the success products; exact
    Fraction when the sequence is rational and the limit is exactly 0.
    """
    head = cfg.success_prefix(check_int("level", level, 0) + 1)
    try:
        limit = tail_product(cfg.p)
    except ConfigError:
        # Inconclusive fate: fall back to a long partial product as the limit.
        limit = cfg.success_prefix(4096)
    return head - limit


@np.errstate(over="ignore", invalid="ignore")
def weyl_defect(
    cfg: ChainConfig, sys: FiberedSystem, lam: complex, level: int, alpha: float = 2.0
) -> WeylDefect:
    """Measure the α-norm defect at truncation size 2 q_level and bound it; raise on overflow.

    cfg and sys must be built from the same (d̄, p̄).
    """
    _check_model(cfg, sys)
    alpha = check_real("alpha", alpha, 1)
    lam = check_point("lambda", lam)
    level = check_int("level", level, 1)
    k = cfg.base.place_value(level)
    size = 2 * k
    trunc = build_truncation(cfg, size)
    w = weyl_vector(sys, lam, level, size)
    # λ·w as Python's complex product: numpy's complex multiply may fuse multiply-adds.
    lam_re, lam_im = _c_mul(lam.real, lam.imag, w.real, w.imag)
    u = trunc.apply(w) - (lam_re + 1j * lam_im)
    norm_w = float(np.linalg.norm(w, ord=alpha))
    defect = float(np.linalg.norm(u, ord=alpha)) / norm_w

    c0 = float(column0_coefficient(cfg, level))
    ck = abs(1.0 - cfg.p_float(1) - lam) + cfg.p_float(1) - float(
        cfg.success_prefix(level + 1)
    )
    big_c = (1.0 + abs(lam)) ** (alpha - 1.0)
    bound = (
        big_c * (c0 * abs(w[0]) ** alpha + ck * abs(w[k]) ** alpha)
    ) ** (1.0 / alpha) / norm_w
    if not np.isfinite([norm_w, defect, bound]).all():
        raise OutOfRangeError(f"Weyl defect at λ={lam}, level {level} overflows: λ escapes")
    return WeylDefect(
        lam=lam,
        alpha=alpha,
        level=level,
        k=k,
        size=size,
        defect=defect,
        bound=bound,
        coeff_col0=c0,
        coeff_colk=ck,
        head_norm=norm_w,
    )


# -- eigenvalue clouds -------------------------------------------------------


def truncated_eigenvalues(sys: FiberedSystem, size: int) -> np.ndarray:
    """Eigenvalues of the size×size truncation, sorted by decreasing modulus.

    They are the multiset union of a_k copies of T_{k-1} = f̃_{k-1}⁻¹{1 - p_k},
    where (a_1, a_2, ...) are the digits of size: size leaves in all.  A
    size above 2^20 is refused before any tree is built.

    Place values.  At size = q_n the spectrum is T_n, because, with
    P_r = p_1···p_r,

        det(zI - A_{q_n}) = Π_{j<=n} p_j^{q_n/q_{j-1}} · (f̃_n(z) - (1 - p_{n+1})).

    Derivation.  Let A_n(c) be the q_n-truncation with its one corner entry
    (row q_n - 1, column 0: the jump of all n maximal digits back to 0)
    set to c·P_n; the dropped-mass truncation is A_n(1 - p_{n+1}), and
    A_0(c) = [c].  Claim: det(zI - A_n(c)) = K_n (f̃_n(z) - c) with
    K_n = Π_{j<=n} p_j^{q_n/q_{j-1}}.  Split the states by their top digit
    a < d = d_n into d blocks of size m = q_{n-1}.  A row whose low digits
    are not all maximal stays in its block, and each block sees A_{n-1}
    there.  The row a·m + m - 1 jumps to a·m + m with mass P_n when
    a < d - 1, and to 0 with mass (1 - p_{n+1}) P_n = c P_n when
    a = d - 1; its other moves stay in the block, the r = n - 1 one at the
    block's corner.  So, with E = e_{m-1} e_0ᵀ and C the cyclic shift
    a -> a + 1 whose wrap d - 1 -> 0 has weight c,

        A_n(c) = I_d ⊗ B + P_n (C ⊗ E),     B = A_{n-1}(1 - p_n).

    Write D = det(zI - B) and ρ = ((zI - B)⁻¹)[0, m-1].  Sylvester's
    identity on the rank-d factorisation C ⊗ e_{m-1} e_0ᵀ gives
    det(zI - A_n(c)) = D^d det(I_d - P_n ρ C) = D^d (1 - c (P_n ρ)^d).
    The cofactor behind ρ leaves out row m - 1 and column 0, so it does
    not see B's corner, while det(zI - A_{n-1}(c')) is affine in c' with
    slope -P_{n-1} times that cofactor; the claim at n - 1 fixes it at
    K_{n-1}/P_{n-1}.  Hence P_n ρ = p_n K_{n-1}/D = 1/ι with
    ι = h_n(f̃_{n-1}(z)), as D = K_{n-1} p_n ι.  Then
    det(zI - A_n(c)) = K_{n-1}^d p_n^d (ι^d - c) = K_n (f̃_n(z) - c),
    a polynomial identity that holds for every z.

    Every size.  Let a be the top digit of size, at position n + 1, so
    size = a·q_n + r with r < q_n.  Split the states [0, a·q_n) by digit
    n + 1 into a blocks of q_n states.  A row of block b whose low n digits
    are not all maximal moves only inside the block, as in A_n.  The row
    with all of them maximal also falls back to the block's first state
    with mass (1 - p_{n+1}) P_n, the corner of A_n(1 - p_{n+1}), and its one
    move out of the block goes forward, to the next block's first state.
    The states [a·q_n, size) have low n digits t < r <= q_n - 1, never all
    maximal, so their rows change only low digits: they are the rows of
    the size-r truncation A_r shifted by a·q_n, and none reaches below
    a·q_n.  So the matrix is block upper-triangular, with a diagonal blocks
    A_n(1 - p_{n+1}) and one block A_r.  Its spectrum is a copies of T_n and
    that of A_r, and r has the lower digits of size: induction on size.
    """
    size = check_int("truncation size", size, 1)
    if size > _PREIMAGE_CAP:
        raise BudgetExceededError(f"truncation size {size} exceeds {_PREIMAGE_CAP} leaves")
    digits = sys.base.to_digits(size)
    vals = np.concatenate([level_tree(sys, k) for k, a in enumerate(digits) for _ in range(a)])
    order = np.lexsort((vals.imag, vals.real, -np.abs(vals)))
    return vals[order]


def _verdict(o: EscapeOutcome) -> str:
    if o.escaped:
        return "escaped"
    return "certified-bounded" if o.certified_bounded else "bounded-at-budget"


def _block_outcome(sys: FiberedSystem, k: int, budget: int) -> EscapeOutcome:
    """The escape test of every λ in T_k, as one orbit started at level k + 1 from 1 - p_{k+1}.

    On T_k, f̃_k = 1 - p_{k+1}, so ι_{k+1} = 0 and f̃_{k+1} = 0 exactly, and
    the levels from k + 2 on are the orbit of 0.  No level j <= k decides the
    test on its own: |f̃_j| > 1 would grow on to |f̃_k| > 1, f̃_j = 1 would
    stay 1, and an orbit in a trap disk at level j is still in it at level
    k + 1, where this test reads it.
    """
    return escape_classify(sys, sys.level(k + 1)[0], budget, start=k + 1)


def eigenvalue_report(sys: FiberedSystem, size: int, budget: int = 60) -> list[dict]:
    """Eigenvalues of the truncation tagged with their escape-test verdicts.

    Each tree T_k of the union with k < budget is tagged once
    (`_block_outcome`).  A tree with k >= budget ends its test before
    f̃_{k+1} = 0: no point of it escapes, and only a trap disk can certify
    one, so its points are tested one by one.  At a place value the
    spectrum is one tree, so the escaped fraction is 0 or 1.  A point in two
    trees T_j and T_k, j < k, gets the same tag from both: the orbit tested
    from level j + 1 is 0 again at level k + 1, where the test of T_k
    starts, and a trap it entered before that level still holds there.
    """
    budget = check_int("budget", budget, 1)
    vals = truncated_eigenvalues(sys, size).tolist()
    tags: dict[complex, str] = {}
    for k, a in enumerate(sys.base.to_digits(size)):
        if a and k < budget:
            tag = _verdict(_block_outcome(sys, k, budget))
            tags.update(dict.fromkeys(level_tree(sys, k).tolist(), tag))
        elif a:
            tags.update((lam, _verdict(escape_classify(sys, lam, budget)))
                        for lam in level_tree(sys, k).tolist())
    return [
        {"re": lam.real, "im": lam.imag, "modulus": abs(lam), "verdict": tags[lam]}
        for lam in vals
    ]


def write_eigenvalue_csv(report: list[dict], fileobj) -> None:
    """Write eigenvalue_report rows as re,im,modulus,verdict (floats by repr)."""
    fileobj.write("re,im,modulus,verdict\n")
    for row in report:
        fileobj.write(f"{row['re']!r},{row['im']!r},{row['modulus']!r},{row['verdict']}\n")


def write_matrix_csv(trunc: SparseTruncation, fileobj) -> None:
    """Write the nonzero entries in row-major order, one row per call.

    Exact truncations use the header row,col,num,den; float ones
    row,col,value.  Each law's masses are formatted once, and each row
    reads the formatted law of its ζ.
    """
    fileobj.write("row,col,num,den\n" if trunc.exact else "row,col,value\n")
    fmt = "{0.numerator},{0.denominator}\n" if trunc.exact else "{0!r}\n"
    laws = [[(d, fmt.format(m)) for d, m in law] for law in trunc.laws]
    for n, z in enumerate(trunc.zeta.tolist()):  # the last row's move up leaves the window
        fileobj.write("".join([f"{n},{c},{t}" for d, t in laws[z - 1] if (c := n + d) < trunc.size]))
