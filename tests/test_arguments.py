"""The one argument rule of the library API (`errors.check_int`, `check_real`, `check_point`).

One table names a public entry point per row, with one argument slot to
fill.  Every bad value in a slot raises a JuliaspecError and no other
exception, and a numpy integer in an integer slot gives what the equal
Python int gives, to the last character of the result's repr.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliaspec.canonical import canonical_config
from juliaspec.dynamics import (
    dedup_points,
    eigvec_head,
    escape_classify,
    factor_trace,
    factor_values,
    level_tree,
    preimages,
    residual_set,
)
from juliaspec.errors import BudgetExceededError, JuliaspecError
from juliaspec.numeration import BaseSequence
from juliaspec.operator import (
    build_truncation,
    column0_coefficient,
    eigenvalue_report,
    truncated_eigenvalues,
    weyl_defect,
    weyl_vector,
)
from juliaspec.render import GridSpec
from juliaspec.sequences import constant, periodic, prefix_then, random_base, sum_alpha_verdict
from juliaspec.spectra import (
    C0,
    classify,
    l_alpha,
    parse_space,
    point_c0,
    point_lalpha,
    residual_l1,
    spectrum_membership,
    spectrum_summary,
)

_RC = canonical_config("binary-p34")
_CFG, _SYS = _RC.chain(), _RC.system()
_DENDRITE = canonical_config("dendrite").system()  # its l^1 residual set is {1}
_TRUNC = build_truncation(_CFG, 8)
_LAM = 0.3 + 0.2j
_L1 = parse_space("l1")
_WINDOW = dict(re_min=-1.5, re_max=1.5, im_min=-1.5, im_max=1.5, width=4, height=4, max_iter=10)


def _slot(name, kind, lo, good, call, cap=None):
    return pytest.param(kind, lo, good, call, cap, id=name)


# The caps of `errors.check_int`, as the README states them.
_LEVELS = 1 << 20  # fiber levels and iteration budgets
_LEAVES = 1 << 20  # preimage leaves, truncation rows and eigenvector head entries
_STEPS = 1 << 20  # steps of one trajectory
_PIXELS = 1 << 22  # pixels of one raster

# One row per (entry point, argument): kind, lower bound (None for none), a good value, the
# call with that argument filled and every other one fixed and valid, and the largest value
# the slot takes (None for no cap).  A depth or level slot's cap is the one at which its tree
# or truncation reaches its cap on binary-p34 (d = 2).
SLOTS = [
    # dynamics
    _slot("escape_classify-z", "point", None, _LAM, lambda v: escape_classify(_SYS, v, 20)),
    _slot("escape_classify-budget", "int", 1, 20,
          lambda v: escape_classify(_SYS, _LAM, v), cap=_LEVELS),
    _slot("escape_classify-start", "int", 1, 2, lambda v: escape_classify(_SYS, _LAM, 20, v)),
    _slot("factor_trace-lambda", "point", None, _LAM, lambda v: factor_trace(_SYS, v, 20)),
    _slot("factor_trace-budget", "int", 1, 20, lambda v: factor_trace(_SYS, _LAM, v), cap=_LEVELS),
    _slot("factor_values-lambda", "point", None, _LAM, lambda v: factor_values(_SYS, v, 4)),
    _slot("factor_values-count", "int", 0, 4, lambda v: factor_values(_SYS, _LAM, v), cap=_LEVELS),
    _slot("eigvec_head-length", "int", 1, 4, lambda v: eigvec_head(_SYS, _LAM, v), cap=_LEAVES),
    _slot("preimages-target", "point", None, 1.0, lambda v: preimages(_SYS, v, 3)),
    _slot("preimages-depth", "int", 0, 3, lambda v: preimages(_SYS, 1.0, v), cap=20),
    _slot("level_tree-k", "int", 0, 2, lambda v: level_tree(_SYS, v), cap=20),
    _slot("residual_set-depth", "int", 1, 2, lambda v: residual_set(_SYS, v), cap=20),
    _slot("dedup_points-tol", "real", 0, 0.5, lambda v: dedup_points([0j, 0.1 + 0j, 1j], v)),
    _slot("FiberedSystem.level-j", "int", 1, 3, lambda v: _SYS.level(v), cap=_LEVELS),
    _slot("FiberedSystem.composed-j", "int", 0, 3, lambda v: _SYS.composed(v, _LAM), cap=_LEVELS),
    # spectra
    _slot("classify-lambda", "point", None, _LAM, lambda v: classify(_SYS, v, C0, budget=20)),
    _slot("classify-budget", "int", 1, 20,
          lambda v: classify(_SYS, _LAM, C0, budget=v), cap=_LEVELS),
    _slot("classify-depth", "int", 1, 2, lambda v: classify(_SYS, _LAM, _L1, budget=20, depth=v)),
    _slot("classify-budget-residual-point", "int", 1, 20,
          lambda v: classify(_DENDRITE, 1.0, _L1, budget=v, depth=2), cap=_LEVELS),
    _slot("spectrum_membership-lambda", "point", None, _LAM, lambda v: spectrum_membership(_SYS, v, 20)),
    _slot("spectrum_membership-budget", "int", 1, 20,
          lambda v: spectrum_membership(_SYS, _LAM, v), cap=_LEVELS),
    _slot("point_c0-lambda", "point", None, _LAM, lambda v: point_c0(_SYS, v, 20)),
    _slot("point_lalpha-alpha", "real", 1, 2.0, lambda v: point_lalpha(_SYS, _LAM, v, 20)),
    _slot("residual_l1-depth", "int", 1, 2, lambda v: residual_l1(_SYS, v)),
    _slot("spectrum_summary-lambdas", "point", None, _LAM,
          lambda v: spectrum_summary(_CFG, _SYS, lams=(v,), budget=20, depth=2)),
    _slot("spectrum_summary-budget", "int", 1, 20,
          lambda v: spectrum_summary(_CFG, _SYS, lams=(_LAM,), budget=v, depth=2), cap=_LEVELS),
    _slot("spectrum_summary-depth", "int", 1, 2, lambda v: spectrum_summary(_CFG, _SYS, depth=v)),
    _slot("spectrum_summary-alphas", "real", 1, 1.5,
          lambda v: spectrum_summary(_CFG, _SYS, depth=2, alphas=(v,))),
    _slot("l_alpha-alpha", "real", 1, 1.5, l_alpha),
    # operator
    _slot("build_truncation-size", "int", 1, 8, lambda v: build_truncation(_CFG, v), cap=_LEAVES),
    _slot("truncated_eigenvalues-size", "int", 1, 8,
          lambda v: truncated_eigenvalues(_SYS, v), cap=_LEAVES),
    _slot("eigenvalue_report-size", "int", 1, 8,
          lambda v: eigenvalue_report(_SYS, v, 20), cap=_LEAVES),
    _slot("eigenvalue_report-budget", "int", 1, 20,
          lambda v: eigenvalue_report(_SYS, 8, v), cap=_LEVELS),
    _slot("weyl_defect-lambda", "point", None, _LAM, lambda v: weyl_defect(_CFG, _SYS, v, 2)),
    _slot("weyl_defect-level", "int", 1, 2, lambda v: weyl_defect(_CFG, _SYS, _LAM, v), cap=19),
    _slot("weyl_defect-alpha", "real", 1, 1.5, lambda v: weyl_defect(_CFG, _SYS, _LAM, 2, v)),
    _slot("weyl_vector-level", "int", 1, 2, lambda v: weyl_vector(_SYS, _LAM, v, 8)),
    _slot("weyl_vector-size", "int", 5, 8, lambda v: weyl_vector(_SYS, _LAM, 2, v), cap=_LEAVES),
    _slot("column0_coefficient-level", "int", 0, 2, lambda v: column0_coefficient(_CFG, v)),
    _slot("SparseTruncation.entry-n", "int", 0, 3, lambda v: _TRUNC.entry(v, 0)),
    _slot("SparseTruncation.row_sum-n", "int", 0, 3, _TRUNC.row_sum),
    _slot("SparseTruncation.to_dense-size", "int", 1, 8,
          lambda v: build_truncation(_CFG, v).to_dense(), cap=4096),
    # chain
    _slot("simulate-start", "int", 0, 1, lambda v: _CFG.simulate(v, 20, 3)),
    _slot("simulate-steps", "int", 0, 20, lambda v: _CFG.simulate(1, v, 3), cap=_STEPS),
    _slot("simulate-seed", "int", 0, 3, lambda v: _CFG.simulate(1, 20, v)),
    _slot("return_statistics-start", "int", 0, 1, lambda v: _CFG.return_statistics(v, 4, 20, 3)),
    _slot("return_statistics-trajectories", "int", 1, 4,
          lambda v: _CFG.return_statistics(1, v, 20, 3)),
    _slot("return_statistics-horizon", "int", 0, 20, lambda v: _CFG.return_statistics(1, 4, v, 3)),
    _slot("return_statistics-seed", "int", 0, 3, lambda v: _CFG.return_statistics(1, 4, 20, v)),
    _slot("transition_row-n", "int", 0, 5, lambda v: _CFG.transition_row(v)),
    _slot("ChainConfig.level-j", "int", 1, 3, lambda v: _CFG.level(v)),
    _slot("ChainConfig.p_float-j", "int", 1, 3, lambda v: _CFG.p_float(v)),
    _slot("success_prefix-r", "int", 0, 3, lambda v: _CFG.success_prefix(v)),
    _slot("harmonic_value-m", "int", 1, 5, lambda v: _CFG.harmonic_value(v)),
    _slot("return_probability-m", "int", 0, 5, lambda v: _CFG.return_probability(v)),
    # numeration
    _slot("BaseSequence-capacity_bits", "int", 64, 70, lambda v: BaseSequence(2, v)),
    _slot("place_value-j", "int", 0, 3, lambda v: _CFG.base.place_value(v)),
    _slot("digit_base-j", "int", 1, 3, lambda v: _CFG.base.digit_base(v), cap=_LEVELS),
    _slot("to_digits-n", "int", 0, 11, lambda v: _CFG.base.to_digits(v)),
    _slot("counter-n", "int", 0, 11, lambda v: _CFG.base.counter(v)),
    # sequences
    _slot("value_at-j", "int", 1, 3, lambda v: _CFG.p.value_at(v)),
    _slot("float_at-j", "int", 1, 3, lambda v: _CFG.p.float_at(v)),
    _slot("sum_alpha_verdict-alpha", "real", 1, 1.5, lambda v: sum_alpha_verdict(_CFG.p, v)),
    _slot("constant-base", "int", 2, 3, lambda v: constant(v, "d")),
    _slot("periodic-base", "int", 2, 3, lambda v: periodic([2, v], "d")),
    _slot("prefix_then-base", "int", 2, 3, lambda v: prefix_then([v], constant(2, "d"))),
    _slot("random_base-d_max", "int", 2, 4, lambda v: random_base(v, 1)),
    _slot("ChainConfig.row_law-zeta", "int", 1, 3, lambda v: _CFG.row_law(v)),
    # render
    _slot("GridSpec-width", "int", 1, 4,
          lambda v: GridSpec(**dict(_WINDOW, width=v)), cap=_PIXELS // 4),
    _slot("GridSpec-height", "int", 1, 4,
          lambda v: GridSpec(**dict(_WINDOW, height=v)), cap=_PIXELS // 4),
    _slot("GridSpec-max_iter", "int", 1, 10,
          lambda v: GridSpec(**dict(_WINDOW, max_iter=v)), cap=_LEVELS),
    _slot("GridSpec-re_min", "real", None, -1.5, lambda v: GridSpec(**dict(_WINDOW, re_min=v))),
    _slot("GridSpec-re_max", "real", None, 1.5, lambda v: GridSpec(**dict(_WINDOW, re_max=v))),
    _slot("GridSpec-im_min", "real", None, -1.5, lambda v: GridSpec(**dict(_WINDOW, im_min=v))),
    _slot("GridSpec-im_max", "real", None, 1.5, lambda v: GridSpec(**dict(_WINDOW, im_max=v))),
    _slot("GridSpec-radius", "real", 1, 4.0, lambda v: GridSpec(**dict(_WINDOW, radius=v))),
    _slot("GridSpec.pixel_of-z", "point", None, _LAM, lambda v: GridSpec(**_WINDOW).pixel_of(v)),
]

_NAN, _INF = math.nan, math.inf
# The named bad values of each kind; an int or real slot also refuses lo - 1.
_NUMPY_BAD = [np.float64(2.0), np.True_, np.array([1, 2])]
BAD = {
    "int": [2.5, 2.0, True, None, "3", "x", _NAN, complex(_NAN, 0), *_NUMPY_BAD],
    "real": [True, None, "x", _NAN, _INF, -_INF, 1j, complex(_NAN, 0), np.array([1.0, 2.0])],
    "point": [True, None, "x", complex(_NAN, 0), complex(0, _INF), complex(_INF, _NAN), _NAN, -_INF,
              np.complex128(complex(_NAN, 1)), np.array([1j, 2])],
}


def _refused(call, v):
    try:
        call(v)
    except JuliaspecError:
        return True
    return False


@pytest.mark.parametrize("kind, lo, good, call, cap", SLOTS)
def test_named_bad_values_are_refused(kind, lo, good, call, cap):
    call(good)
    bad = BAD[kind] + ([] if lo is None else [lo - 1])
    accepted = [v for v in bad if not _refused(call, v)]
    assert accepted == []


@pytest.mark.parametrize("kind, lo, good, call, cap", [p for p in SLOTS if p.values[0] == "int"])
def test_numpy_integers_act_as_python_ints(kind, lo, good, call, cap):
    want = repr(call(good))
    for cast in (np.int64, np.uint16):
        assert repr(call(cast(good))) == want, cast


def _generated_bad(kind, lo):
    """Bad values beyond the named ones: the range below the bound, and wrong types."""
    no_number = st.one_of(st.none(), st.booleans(), st.text(alphabet="xyz ", max_size=3))
    non_finite = st.sampled_from([_NAN, _INF, -_INF])
    if kind == "int":
        return st.one_of(no_number, st.integers(max_value=lo - 1), st.floats(), st.complex_numbers())
    if kind == "real" and lo is None:
        return st.one_of(no_number, non_finite)
    if kind == "real":
        below = st.floats(max_value=lo, exclude_max=True, allow_nan=False)
        return st.one_of(no_number, non_finite, below, st.integers(max_value=lo - 1))
    part = st.floats()
    return st.one_of(
        no_number,
        st.builds(complex, part, non_finite),
        st.builds(complex, non_finite, part),
    )


@settings(max_examples=150)
@given(st.data())
def test_every_bad_argument_raises_a_juliaspec_error(data):
    kind, lo, _, call, _ = data.draw(st.sampled_from([p.values for p in SLOTS]))
    v = data.draw(_generated_bad(kind, lo))
    with pytest.raises(JuliaspecError):
        call(v)


@pytest.mark.parametrize("kind, lo, good, call, cap", [p for p in SLOTS if p.values[4] is not None])
def test_every_cap_refuses_one_more_before_allocating(kind, lo, good, call, cap):
    call(good)  # the memos a refusal may read are filled outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="exceeds"):
            call(cap + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
