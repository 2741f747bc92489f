"""Fibered polynomial dynamics: escape tests, factor recursion, preimages.

Route independence is the theme: the factor recursion is checked against a
direct evaluation through the orbit, derivatives against finite differences,
preimages by substitution into the forward composition.
"""

from itertools import islice

import numpy as np
import pytest
from eigvec_reference import DivisionByZeroIotaError, dual_eigvec_entry, eigvec_entry

from juliaspec.canonical import canonical_config
from juliaspec.dynamics import (
    RHO,
    FiberedSystem,
    TraceStatus,
    _ipow,
    _tree,
    dedup_points,
    escape_classify,
    factor_trace,
    factor_values,
    preimages,
    residual_set,
)
from juliaspec.errors import (
    BudgetExceededError,
    OutOfRangeError,
)
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant
from juliaspec.spectra import residual_l1


def shift_system() -> FiberedSystem:
    """p = 1: the compositions collapse to plain powers z^(2^j)."""
    return FiberedSystem(BaseSequence(2), constant(1))


def disk_points(rng, count):
    u = rng.random(count)
    theta = rng.random(count) * 2.0 * np.pi
    return np.sqrt(u) * np.exp(1j * theta)


# -- maps and compositions ---------------------------------------------------


def test_affine_and_fiber_closed_forms(systems):
    sys = systems["binary-p34"]
    z = 0.5 + 0.25j
    assert sys.affine(1, z) == pytest.approx((z - 0.25) / 0.75)
    assert sys.fiber(1, z) == pytest.approx(((z - 0.25) / 0.75) ** 2)
    tern = systems["ternary-p12"]
    assert tern.fiber(2, z) == pytest.approx((2 * z - 1) ** 3)


def test_composed_matches_manual_chain(systems):
    # Every consumer of the orbit recursion equals, bit for bit, a chain of
    # the single-level maps affine and fiber written out by hand.
    rng = np.random.default_rng(3)
    for name, sys in systems.items():
        for lam in disk_points(rng, 40):
            lam = complex(lam)
            iotas, ws, w, dw = [], [], lam, 1 + 0j
            for j in range(1, 13):
                iota = sys.affine(j, w)
                d = sys.digit_base(j)
                dw = d * _ipow(iota, d - 1) * (dw / sys.p_float(j))
                w = sys.fiber(j, w)
                iotas.append(iota)
                ws.append(w)
                assert sys.composed(j, lam) == w, (name, j)
                assert sys.composed_with_derivative(j, lam) == (w, dw), (name, j)
                if abs(w) > 1e6:
                    break  # escaped; one more level may overflow to inf/nan
            levels = len(ws)
            assert factor_values(sys, lam, levels) == iotas, name
            trace = factor_trace(sys, lam, levels)
            assert list(trace.values) == iotas[: len(trace.values)], name
            out = escape_classify(sys, lam, levels)
            assert out.modulus == abs(ws[(out.step or levels) - 1]), name
    assert systems["dendrite"].composed(0, 0.3 + 0.1j) == 0.3 + 0.1j
    with pytest.raises(OutOfRangeError):
        systems["dendrite"].composed(-1, 0j)
    with pytest.raises(OutOfRangeError):
        systems["dendrite"].composed_with_derivative(-1, 0j)


def test_composed_with_derivative_agrees_with_finite_differences(systems):
    h = 1e-6
    for name in ("dendrite", "mixed23-harmonic", "binary-geometric"):
        sys = systems[name]
        for z in (0.31 + 0.12j, -0.2 + 0.4j, 0.55 - 0.3j):
            for j in (1, 2, 3):
                v, dv = sys.composed_with_derivative(j, z)
                assert v == pytest.approx(sys.composed(j, z), rel=1e-12, abs=1e-12)
                fd = (sys.composed(j, z + h) - sys.composed(j, z - h)) / (2 * h)
                assert dv == pytest.approx(fd, rel=5e-5, abs=5e-5), (name, j, z)


def test_shift_case_compositions_are_powers():
    sys = shift_system()
    z = 0.7 + 0.2j
    for j in range(5):
        assert sys.composed(j, z) == pytest.approx(z ** (2**j), rel=1e-12)


# -- escape classification ---------------------------------------------------


def test_escape_certificates_in_the_shift_case():
    sys = shift_system()
    out = escape_classify(sys, 1.02, budget=50)
    assert out.escaped and out.step == 1  # 1.02^2 already exceeds the radius
    near = escape_classify(sys, 1.0005, budget=50)
    assert near.escaped and near.step >= 1
    inner = escape_classify(sys, 0.5, budget=50)
    assert not inner.escaped and inner.certified_bounded  # |f̃_1| = 1/4 lies in the trap
    fixed = escape_classify(sys, 1.0, budget=50)
    assert not fixed.escaped and fixed.certified_bounded
    zero = escape_classify(sys, 0.0, budget=50)
    assert not zero.escaped
    with pytest.raises(OutOfRangeError):
        escape_classify(sys, 0.5, budget=0)


def test_escape_moduli_grow_monotonically_after_crossing(systems):
    sys = systems["dendrite"]
    z = 0.9 + 0.9j
    out = escape_classify(sys, z, budget=30)
    assert out.escaped
    w = complex(z)
    prev = None
    for j in range(1, out.step + 3):
        w = sys.fiber(j, w)
        if prev is not None and prev > out.radius:
            assert abs(w) > prev
        prev = abs(w)


def test_exact_fixed_point_hit_is_certified(systems):
    # 0 maps to 1 in one step at p = 1/2, d = 2 — exactly, even in floats.
    out = escape_classify(systems["dendrite"], 0.0, budget=10)
    assert out.certified_bounded and out.modulus == 1.0


def test_orbit_and_escape_test_from_a_start_level(systems):
    # Started at level s from f̃_{s-1}(z), the orbit is the tail of the full one.
    for name, sys in systems.items():
        z = preimages(sys, 0.3 - 0.2j, 3)[1]
        full = list(islice(sys.orbit(z), 12))
        w = full[2][1]  # f̃_3(z), near 0.3 - 0.2i
        n = next((j for j, (_, v) in enumerate(full) if abs(v) > 1e6), 12)  # before overflow
        assert list(islice(sys.orbit(w, start=4), n - 3)) == full[3:n], name
        whole = escape_classify(sys, z, 12)
        tail = escape_classify(sys, w, 12, start=4)
        if whole.step is None or whole.step >= 4:
            assert (tail.escaped, tail.step, tail.certified_bounded) == (
                whole.escaped, whole.step, whole.certified_bounded), name
    out = escape_classify(systems["binary-p34"], 0j, 5, start=7)  # no level left to run
    assert not out.escaped and not out.certified_bounded
    with pytest.raises(OutOfRangeError):
        next(systems["dendrite"].orbit(0j, start=0))


# -- factor recursion --------------------------------------------------------


def test_factor_recursion_matches_direct_orbit_evaluation(systems):
    rng = np.random.default_rng(14)
    for name, sys in systems.items():
        for lam in disk_points(rng, 10):
            direct = [sys.affine(r, sys.composed(r - 1, lam)) for r in range(1, 16)]
            rec = factor_values(sys, complex(lam), 15)
            for a, b in zip(direct, rec):
                if abs(a) > 1e6:
                    break  # escaped: both routes overflow together
                assert b == pytest.approx(a, rel=1e-10, abs=1e-10), name


def test_factor_power_identity(systems):
    # The r-th composition equals the r-th factor raised to the r-th base.
    rng = np.random.default_rng(15)
    for name, sys in systems.items():
        for lam in disk_points(rng, 6):
            fac = factor_values(sys, complex(lam), 12)
            for r in range(1, 13):
                lhs = sys.composed(r, lam)
                if abs(lhs) > 1e6:
                    break
                rhs = fac[r - 1] ** sys.digit_base(r)
                assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-10), (name, r)


def test_factor_trace_statuses(systems):
    one = factor_trace(systems["dendrite"], 1.0, budget=40)
    assert one.status is TraceStatus.CONVERGES_TO_ONE
    assert all(v == 1 for v in one.values)

    far = factor_trace(systems["dendrite"], 2.0, budget=40)
    assert far.status is TraceStatus.ESCAPED and far.status_index == 1

    geo = factor_trace(systems["binary-geometric"], 0.0, budget=40)
    assert geo.status is TraceStatus.CONVERGES_TO_ZERO
    assert geo.status_index == 2

    mixed = factor_trace(systems["mixed23-harmonic"], 0.0, budget=40)
    assert mixed.status is TraceStatus.CONVERGES_TO_ZERO

    # Constant p = 1/2 never certifies decay or locking for a generic point.
    flat = factor_trace(systems["dendrite"], 0.2, budget=40)
    assert flat.status is TraceStatus.BOUNDED_AT_BUDGET
    assert flat.status_index is None and len(flat.values) == 40
    with pytest.raises(OutOfRangeError):
        factor_trace(systems["dendrite"], 0.2, budget=0)


def test_contraction_certificate_values(systems):
    # Geometric p: the second factor is tiny and exactly computable.
    fac = factor_values(systems["binary-geometric"], 0.0, 3)
    assert fac[0] == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert fac[1] == pytest.approx(7.0 / 135.0, rel=1e-12)
    assert abs(fac[1]) <= RHO / 2.0


def test_factor_trace_detects_preimages_of_one(systems):
    sys = systems["dendrite"]
    for lam in preimages(sys, 1.0, 3):
        trace = factor_trace(sys, lam, budget=30)
        assert trace.status is TraceStatus.CONVERGES_TO_ONE, lam


def test_factor_counts_and_validation(systems):
    sys = systems["dendrite"]
    assert factor_values(sys, 0.3, 0) == []
    assert len(factor_values(sys, 0.3, 9)) == 9
    with pytest.raises(OutOfRangeError):
        factor_values(sys, 0.3, -1)


# -- eigenvector entries -----------------------------------------------------


def test_eigvec_entries_multiply_factor_powers(systems):
    sys = systems["dendrite"]
    lam = 0.0  # factors are -1, 1, 1, ...
    assert eigvec_entry(sys, lam, 0) == 1
    assert eigvec_entry(sys, lam, 1) == -1
    assert eigvec_entry(sys, lam, 2) == 1
    assert eigvec_entry(sys, lam, 3) == -1

    mix = systems["mixed23-harmonic"]
    lam = 0.2 + 0.1j
    fac = factor_values(mix, lam, 6)
    for n in range(60):
        digits = mix.base.to_digits(n)
        expect = 1 + 0j
        for r, a in enumerate(digits, start=1):
            expect *= fac[r - 1] ** a
        assert eigvec_entry(mix, lam, n, fac) == pytest.approx(expect, rel=1e-12)


def test_single_place_value_entries_are_single_factors(systems):
    sys = systems["binary-geometric"]
    lam = 0.1 + 0.2j
    fac = factor_values(sys, lam, 6)
    for r in range(5):
        q = sys.base.place_value(r)
        assert eigvec_entry(sys, lam, q) == pytest.approx(fac[r], rel=1e-12)


def test_dual_entries_invert_and_guard_zero_factors(systems):
    sys = systems["binary-geometric"]
    lam = 0.1 + 0.2j
    for m in range(1, 30):
        assert dual_eigvec_entry(sys, lam, m) == pytest.approx(
            1.0 / eigvec_entry(sys, lam, m), rel=1e-12
        )
    dend = systems["dendrite"]
    # At lambda = 1 - p_1 = 1/2 the first factor vanishes exactly.
    assert eigvec_entry(dend, 0.5, 1) == 0
    with pytest.raises(DivisionByZeroIotaError):
        dual_eigvec_entry(dend, 0.5, 1)
    # m = 2 skips the vanished first factor; its only factor is h(0) = -1.
    assert dual_eigvec_entry(dend, 0.5, 2) == pytest.approx(-1.0)


# -- preimages ---------------------------------------------------------------


def test_preimages_of_the_fixed_point_dendrite(systems):
    sys = systems["dendrite"]
    depth1 = sorted(preimages(sys, 1.0, 1), key=lambda z: z.real)
    assert len(depth1) == 2
    assert depth1[0] == pytest.approx(0.0, abs=1e-12)
    assert depth1[1] == pytest.approx(1.0, abs=1e-12)
    depth2 = sorted(preimages(sys, 1.0, 2), key=lambda z: z.real)
    assert len(depth2) == 4
    expect = [0.0, 0.5, 0.5, 1.0]
    for z, e in zip(depth2, expect):
        assert z == pytest.approx(e, abs=1e-9)


def test_preimages_substitute_back(systems):
    for name in ("ternary-p12", "mixed23-harmonic", "binary-p34"):
        sys = systems[name]
        target = 0.7 + 0.1j
        depth = 3
        pts = preimages(sys, target, depth)
        assert len(pts) == sys.base.place_value(depth)
        for z in pts:
            assert sys.composed(depth, z) == pytest.approx(target, abs=1e-8), name


def test_preimages_depth_zero_and_validation(systems):
    sys = systems["dendrite"]
    assert preimages(sys, 0.25, 0) == [0.25 + 0j]
    with pytest.raises(OutOfRangeError):
        preimages(sys, 0.25, -1)
    with pytest.raises(BudgetExceededError):
        preimages(systems["ternary-p12"], 1.0, 13)  # 3^13 leaves exceed the cap


def test_preimages_of_a_target_past_the_float_range_are_refused(systems):
    # |1.7e308 + 1.7e308i| passes the float range: abs() of it raises
    # OverflowError, so the tree cannot start and the target is refused.
    big = 1.7e308 + 1.7e308j
    for name in ("dendrite", "ternary-p12"):
        assert preimages(systems[name], big, 0) == [big]
        for depth in (1, 2):
            with pytest.raises(OutOfRangeError, match="float range"):
                preimages(systems[name], big, depth)
    # The largest moduli that still work keep working, either sign.
    for target in (1e300, -6e299 - 8e299j, 1.2e308 + 1.2e308j):
        pts = preimages(systems["dendrite"], target, 2)
        assert len(pts) == 4 and all(np.isfinite(pts))


def test_polish_does_not_hurt(systems):
    sys = systems["mixed23-harmonic"]
    target = 0.3 + 0.4j
    raw = list(map(complex, *_tree(sys, target, 3)))
    polished = preimages(sys, target, 3)
    err_raw = max(abs(sys.composed(3, z) - target) for z in raw)
    err_pol = max(abs(sys.composed(3, z) - target) for z in polished)
    assert err_pol <= err_raw + 1e-12


def test_dedup_points_clusters():
    pts = [0.0, 1e-12, 1.0, 1.0 + 5e-9, 0.5]
    kept = dedup_points(pts, 1e-8)
    assert len(kept) == 3
    assert kept == sorted(kept, key=lambda z: (z.real, z.imag))


# -- residual candidate set --------------------------------------------------


def test_residual_set_dendrite_collapses_to_one(systems):
    sys = systems["dendrite"]
    assert residual_set(sys, depth=4) == (1 + 0j,)
    # 0 and 1/2 are reachable as preimages of 1 but excluded as preimages of 0
    # (0 itself at depth 0, 1/2 at depth 1).
    ones = preimages(sys, 1.0, 4)
    assert any(abs(z) < 1e-9 for z in ones)
    assert any(abs(z - 0.5) < 1e-9 for z in ones)
    assert all(abs(z - 0.5) < 1e-9 for z in preimages(sys, 0.0, 1))


@pytest.mark.parametrize("depth", [14, 16, 20])
def test_residual_set_dendrite_is_exactly_one_at_depth(depth):
    # A float route that drops a one within 1e-8 of a zero returned the empty set
    # here: the nearest preimage of 0 to 1 comes 4 times closer per level.
    assert residual_set(canonical_config("dendrite").system(), depth) == (1 + 0j,)


def test_residual_set_ternary_keeps_everything(systems):
    sys = systems["ternary-p12"]
    rs = residual_set(sys, depth=2)
    # No exclusions in the odd-base case: every preimage of 1, in sorted order.
    assert rs == tuple(sorted(preimages(sys, 1.0, 2), key=lambda z: (z.real, z.imag)))
    assert len(rs) == 9  # distinct depth-<=2 preimages of the fixed point


def test_residual_set_ternary_keeps_every_leaf_at_depth_12():
    # f(0) = -1 escapes, so 0 is never a preimage of 1: all 3^12 leaves stay.
    assert len(residual_set(canonical_config("ternary-p12").system(), 12)) == 3**12


def test_preimages_of_one_are_nested(systems):
    # f_j(1) = 1, so each depth's preimages of 1 reappear one level deeper;
    # residual_set relies on this to take `ones` from the deepest tree alone.
    for name, sys in systems.items():
        for depth in range(1, 5):
            deeper = preimages(sys, 1.0, depth + 1)
            for z in preimages(sys, 1.0, depth):
                assert min(abs(z - w) for w in deeper) <= 1e-8, (name, depth, z)


def test_residual_set_validation(systems):
    with pytest.raises(OutOfRangeError):
        residual_set(systems["dendrite"], depth=0)
    # The l^1 report checks depth before its transient early return.
    for name in ("dendrite", "binary-geometric"):
        for depth in (0, -3):
            with pytest.raises(OutOfRangeError):
                residual_l1(systems[name], depth)
