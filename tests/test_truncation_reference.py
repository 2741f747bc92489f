"""The row-law truncation against the per-row `Fraction` build it replaced.

`build_truncation` stores a truncation as its row law: ζ per row and the
chain's `row_law(ζ)` for each ζ up to the window's level count.  The float
actions read the falls of the top law, one strided slice per level, and
the exact views and `write_matrix_csv` read law ζ_n for row n: its
(column - n, mass) pairs.  The reference below is the earlier code: one
`transition_row` per row, a tuple of (column, value) pairs per row, and a
float CSR assembled from Python lists.  Every view of the two must agree
exactly: the rows, outflow and entries by value and type, the CSV bytes,
and the dense matrix and float actions bit for bit against the CSR's.
"""

import io
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_array

from juliaspec.chain import ChainConfig
from juliaspec.errors import DimensionMismatchError, OutOfRangeError
from juliaspec.numeration import BaseSequence
from juliaspec.operator import build_truncation, write_matrix_csv
from juliaspec.sequences import constant, prefix_then, random_uniform

# -- the reference (the per-row build, kept verbatim) ------------------------


@dataclass(frozen=True)
class SparseTruncation:
    """Top-left size×size block of the transition matrix, row-compressed.

    rows[n] lists (column, value) pairs in increasing column order; values
    are Fractions when `exact`, floats otherwise.  outflow[n] is the mass of
    row n that fell outside the window (kept for inspection, never folded
    back into the surviving entries).  `matrix` is the same block as a float
    CSR matrix (exact entries rounded once); the float actions go through it.
    """

    size: int
    rows: tuple[tuple[tuple[int, Fraction | float], ...], ...]
    outflow: tuple[Fraction | float, ...]
    exact: bool
    matrix: csr_array = field(repr=False, compare=False)

    def entry(self, n: int, m: int):
        """Matrix entry at (row n, column m); 0 when absent."""
        self._check_index(n)
        self._check_index(m)
        for col, val in self.rows[n]:
            if col == m:
                return val
        return Fraction(0) if self.exact else 0.0

    def row_sum(self, n: int):
        """In-window mass of row n (1 - outflow[n] for a stochastic source row)."""
        self._check_index(n)
        return sum((val for _, val in self.rows[n]), Fraction(0) if self.exact else 0.0)

    def to_dense(self) -> np.ndarray:
        """Dense float64 matrix."""
        return self.matrix.toarray()

    def apply(self, vec) -> np.ndarray:
        """Row action (A v)(n) = Σ_m A[n, m] v(m) in complex floats."""
        return self.matrix @ self._check_vector(vec)

    def apply_dual(self, vec) -> np.ndarray:
        """Column action (u A)(m) = Σ_n u(n) A[n, m] in complex floats."""
        return self._check_vector(vec) @ self.matrix

    def _check_vector(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=complex)
        if v.shape != (self.size,):
            raise DimensionMismatchError(
                f"vector of shape {v.shape} does not match truncation size {self.size}"
            )
        return v

    def _check_index(self, i: int):
        if not (0 <= i < self.size):
            raise OutOfRangeError(f"index {i} outside truncation of size {self.size}")


def reference_build_truncation(cfg: ChainConfig, size: int) -> SparseTruncation:
    """Truncate the transition matrix to states {0, ..., size-1}."""
    if size < 1:
        raise OutOfRangeError(f"truncation size must be >= 1, got {size}")
    exact = cfg.p.is_rational()
    zero = Fraction(0) if exact else 0.0
    rows = []
    outflow = []
    for n in range(size):
        row = cfg.transition_row(n)
        kept = tuple((t, v) for t, v in row.entries if t < size)
        lost = sum((v for t, v in row.entries if t >= size), zero)
        rows.append(kept)
        outflow.append(lost)
    values = [float(v) for row in rows for _, v in row]
    cols = [t for row in rows for t, _ in row]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    matrix = csr_array((values, cols, indptr), shape=(size, size))
    return SparseTruncation(
        size=size, rows=tuple(rows), outflow=tuple(outflow), exact=exact, matrix=matrix
    )


def reference_write_matrix_csv(trunc: SparseTruncation, fileobj) -> None:
    """Write the nonzero entries in row-major order.

    Exact truncations use the header row,col,num,den; float ones row,col,value.
    """
    if trunc.exact:
        fileobj.write("row,col,num,den\n")
        for n, row in enumerate(trunc.rows):
            for col, val in row:
                f = Fraction(val)
                fileobj.write(f"{n},{col},{f.numerator},{f.denominator}\n")
    else:
        fileobj.write("row,col,value\n")
        for n, row in enumerate(trunc.rows):
            for col, val in row:
                fileobj.write(f"{n},{col},{val!r}\n")


# -- the comparison ----------------------------------------------------------


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _csv(writer, trunc) -> str:
    buf = io.StringIO()
    writer(trunc, buf)
    return buf.getvalue()


def _sizes(cfg: ChainConfig) -> list[int]:
    """1, 2, q_k - 1, q_k, q_k + 1 for the first three levels and the last below 1,296, 1000, 1296."""
    qs = [cfg.base.place_value(k) for k in range(1, 12) if cfg.base.place_value(k) <= 1296]
    around = [q + e for q in qs[:3] + qs[-1:] for e in (-1, 0, 1)]
    return sorted({1, 2, 1000, 1296, *around})


def _chains(chains) -> dict[str, ChainConfig]:
    return {
        **chains,
        "random-uniform": ChainConfig(BaseSequence(3), random_uniform("1/3", "9/10", 5)),
        # p_2 = p_4 = 1: the falls that fail at writes 2 and 4 have mass 0 and are omitted.
        "certain-writes": ChainConfig(
            BaseSequence(2), prefix_then(["1/2", 1, "2/3", 1], constant("3/4"))
        ),
    }


def _typed(values) -> list:
    return [(v, type(v)) for v in values]


def _assert_same(cfg: ChainConfig, size: int, rng: np.random.Generator, label) -> None:
    ref, new = reference_build_truncation(cfg, size), build_truncation(cfg, size)
    assert (new.size, new.exact) == (ref.size, ref.exact), label
    assert new.rows == ref.rows, label
    assert _typed(c for r in new.rows for c, _ in r) == _typed(c for r in ref.rows for c, _ in r)
    assert _typed(v for r in new.rows for _, v in r) == _typed(v for r in ref.rows for _, v in r)
    assert _typed(new.outflow) == _typed(ref.outflow), label
    # Entries and row sums one by one: every row of a small block, 64 rows of a large one.
    sample = range(size) if size <= 64 else {0, size - 1, *rng.integers(0, size, 62).tolist()}
    for n in sample:
        assert _typed([new.row_sum(n)]) == _typed([ref.row_sum(n)]), (label, n)
        probes = {c for c, _ in ref.rows[n]} | {0, n, size - 1, *rng.integers(0, size, 3).tolist()}
        for m in probes:
            assert _typed([new.entry(n, m)]) == _typed([ref.entry(n, m)]), (label, n, m)
    assert _csv(write_matrix_csv, new) == _csv(reference_write_matrix_csv, ref), label
    assert _bits(new.to_dense()) == _bits(ref.to_dense()), label
    for v in (rng.standard_normal(size) + 1j * rng.standard_normal(size), rng.standard_normal(size)):
        assert _bits(new.apply(v)) == _bits(ref.apply(v)), label
        assert _bits(new.apply_dual(v)) == _bits(ref.apply_dual(v)), label


def test_arrays_match_the_per_row_build(chains):
    rng = np.random.default_rng(20260823)
    for name, cfg in _chains(chains).items():
        for size in _sizes(cfg):
            _assert_same(cfg, size, rng, (name, size))


def test_dendrite_at_two_to_the_twenty_without_rows(chains):
    cfg = chains["dendrite"]
    cfg.level(21)  # the level table, so that only the build's own arrays are traced
    tracemalloc.start()
    try:
        tr = build_truncation(cfg, 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ζ alone takes 8 bytes a row; no array of one entry per nonzero is built.
    assert peak < 2 * 8 * 2**20, peak
    # Every row falls ζ times (p ≡ 1/2: no zero mass) and all but the last move up.
    assert int(tr.zeta.sum()) + tr.size - 1 == 3_145_726
    # Row 2^20 - 1 is all ones: every one of its ζ = 21 writes must succeed to leave.
    assert tr.outflow[-1] == cfg.success_prefix(21) == Fraction(1, 2**21)
    assert "rows" not in vars(tr)
