"""The array eigenvalue report against the per-point dict report it replaced.

`truncated_eigenvalues` returns the sorted spectrum with the index k of the
tree T_k each point came from, and `eigenvalue_report` tags each tree once
(or each point of a tree with k >= budget) through that index.  The
reference below is the earlier code, kept verbatim: the spectrum sorted
alone, a dict from each complex value to its tag, one dict per row, and a
writer that reads those rows.  The CSV bytes of the two must be equal,
also where one point lies in two trees.
"""

import io
import tracemalloc

import numpy as np
import pytest

from juliaspec.canonical import CANONICAL_NAMES
from juliaspec.dynamics import FiberedSystem, escape_classify, level_tree
from juliaspec.numeration import BaseSequence
from juliaspec.operator import (
    _block_outcome,
    _verdict,
    eigenvalue_report,
    truncated_eigenvalues,
    write_eigenvalue_csv,
)
from juliaspec.sequences import constant, prefix_then

# -- the reference (the dict report, kept verbatim) ---------------------------


def _reference_truncated_eigenvalues(sys, size):
    digits = sys.base.to_digits(size)
    vals = np.concatenate([level_tree(sys, k) for k, a in enumerate(digits) for _ in range(a)])
    order = np.lexsort((vals.imag, vals.real, -np.hypot(vals.real, vals.imag)))
    return vals[order]


def _reference_report(sys, size, budget):
    vals = _reference_truncated_eigenvalues(sys, size).tolist()
    tags = {}
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


def _reference_csv(report):
    out = io.StringIO()
    out.write("re,im,modulus,verdict\n")
    for row in report:
        out.write(f"{row['re']!r},{row['im']!r},{row['modulus']!r},{row['verdict']}\n")
    return out.getvalue()


def _assert_same_report(sys, size, budget):
    values, verdicts = eigenvalue_report(sys, size, budget)
    want = _reference_report(sys, size, budget)
    assert values.tobytes() == _reference_truncated_eigenvalues(sys, size).tobytes()
    assert verdicts.tolist() == [row["verdict"] for row in want]
    out = io.StringIO()
    write_eigenvalue_csv((values, verdicts), out)
    assert out.getvalue() == _reference_csv(want)


# -- the pins ------------------------------------------------------------------

_SIZES = (1, 2, 27, 45, 100, 199, 1000, 1024, 1296, 4096)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
@pytest.mark.parametrize("budget", [3, 8, 40, 60])
def test_report_writes_the_dict_reports_bytes(systems, name, budget):
    for size in _SIZES:
        _assert_same_report(systems[name], size, budget)


@pytest.mark.parametrize("size", [3, 7, 100])
def test_a_point_in_two_trees_keeps_its_bytes(size):
    # p̄ = (1/2, 1) then 1/2: T_0 = {1/2} and T_1 = {1/2, 1/2}, so 1/2 lies in both.
    base = BaseSequence(2)
    sys = FiberedSystem(base, prefix_then(["1/2", 1], constant("1/2")))
    assert level_tree(sys, 0).tolist() == [0.5] and level_tree(sys, 1).tolist() == [0.5, 0.5]
    for budget in (1, 2, 3, 8, 60):
        _assert_same_report(sys, size, budget)


def test_levels_name_each_points_tree(systems):
    # levels[i] = k puts values[i] in T_k: the points at k are a_k copies of T_k, bit for bit.
    for name, sys in systems.items():
        for size in (45, 100, 199, 1000, 1296):
            vals, levels = truncated_eigenvalues(sys, size)
            for k, a in enumerate(sys.base.to_digits(size)):
                got, want = vals[levels == k], np.tile(level_tree(sys, k), a)
                assert np.sort_complex(got).tobytes() == np.sort_complex(want).tobytes(), (name, size, k)


def test_report_at_two_to_the_sixteen_stays_small(systems):
    # The dict report held one complex key and one row dict per point: a 23.5 MiB peak here.
    sys = systems["dendrite"]
    level_tree(sys, 16), sys.level(17)  # the trees and levels, so that only the report is traced
    tracemalloc.start()
    try:
        values, verdicts = eigenvalue_report(sys, 1 << 16, 60)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.size == verdicts.size == 1 << 16
    assert peak < 6 << 20, peak
    assert held < 2 << 20, held
