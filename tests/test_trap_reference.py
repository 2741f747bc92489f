"""Interior traps against the untrapped loops they shortcut.

`render_field` and `escape_classify` stop following an orbit once it enters
`FiberedSystem.contraction_disk` or `FiberedSystem.cycle_disk`.  The
reference loops below are the ones they replaced: every pixel and every λ
runs until it escapes or the budget ends.  A trap may only stop orbits that
never escape, so the escape steps must be identical.  The invariance checks
must fail once a disk is inflated past its bound.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliaspec.dynamics import (
    ESCAPE_RADIUS,
    RHO,
    FiberedSystem,
    TraceStatus,
    escape_classify,
    factor_trace,
)
from juliaspec.numeration import BaseSequence
from juliaspec.render import GridSpec, render_field
from juliaspec.sequences import constant, geometric, harmonic, prefix_then
from juliaspec.verify import _trap_invariance
from strategies import D_SPECS, PROB


def untrapped_steps(sys, grid):
    """The escape steps of every pixel: each runs until it escapes or max_iter levels end."""
    xs, ys = grid.axes()
    rows = (grid.height + 1) // 2 if np.array_equal(ys[::-1], -ys) else grid.height
    w = (xs[None, :] + 1j * ys[:rows, None]).ravel()
    steps = np.zeros((grid.height, grid.width), dtype=np.int32)
    flat = steps.reshape(-1)
    active = np.arange(w.size)
    mod = np.empty(w.size)
    for j in range(1, grid.max_iter + 1):
        c, p, d = sys.level(j)
        np.subtract(w, c, out=w)
        np.divide(w, p, out=w)
        w **= d
        escaped = np.abs(w, out=mod[: w.size]) > grid.radius
        if escaped.any():
            flat[active[escaped]] = j
            keep = ~escaped
            active = active[keep]
            w = w[keep]
            if active.size == 0:
                break
    steps[rows:] = steps[: grid.height - rows][::-1]
    return steps


def untrapped_escape(sys, z, budget):
    """(escaped, step) of the escape test without traps: it stops only on escape or on 1."""
    w = complex(z)
    if w == 1:
        return False, None
    for j, (_, w) in enumerate(islice(sys.orbit(w), budget), 1):
        if abs(w) > ESCAPE_RADIUS:
            return True, j
        if w == 1:
            return False, None
    return False, None


def _with_prefix(values, tail):
    """The tail alone, or behind a prefix of one or two values drawn from `values`."""
    return st.one_of(
        st.just(tail), st.builds(prefix_then, st.lists(values, min_size=1, max_size=2), st.just(tail))
    )


# Constant tails of p̄ and d̄ (high p gives an attracting fixed point), or p̄ tending to 1.
HIGH_PROB = st.fractions(min_value=Fraction(5, 8), max_value=1, max_denominator=16)
CONSTANT_TAILS = st.builds(
    FiberedSystem,
    st.integers(2, 4).flatmap(lambda d: _with_prefix(st.integers(2, 4), constant(d, "d"))).map(BaseSequence),
    st.one_of(PROB, HIGH_PROB).flatmap(lambda v: _with_prefix(PROB, constant(v))),
)
TO_ONE = st.builds(
    FiberedSystem,
    D_SPECS.map(BaseSequence),
    st.one_of(
        st.builds(geometric, st.sampled_from([Fraction(1, 2), 1]), st.sampled_from(["1/4", "1/2", "3/4"])),
        st.builds(harmonic, st.sampled_from(["1/2", 1]), st.sampled_from([1, 2])),
    ).flatmap(lambda tail: _with_prefix(PROB, tail)),
)
SYSTEMS = st.one_of(CONSTANT_TAILS, TO_ONE)


@st.composite
def windows(draw):
    """A grid inside [-1.6, 1.6]², mirrored about the real axis half of the time."""
    re_min = draw(st.floats(-1.6, 1.2))
    re_max = re_min + draw(st.floats(0.05, 1.6 - re_min))
    if draw(st.booleans()):
        half = draw(st.sampled_from([0.375, 0.75, 1.5]))
        im_min, im_max = -half, half
    else:
        im_min = draw(st.floats(-1.6, 1.2))
        im_max = im_min + draw(st.floats(0.05, 1.6 - im_min))
    size = st.integers(1, 24)
    return GridSpec(re_min, re_max, im_min, im_max, draw(size), draw(size), draw(st.integers(1, 80)))


@settings(max_examples=120)
@given(SYSTEMS, windows())
def test_trapped_render_and_escape_test_match_the_untrapped_loops(sys, grid):
    steps = render_field(sys, grid).steps
    assert np.array_equal(steps, untrapped_steps(sys, grid))
    xs, ys = grid.axes()
    for row in range(0, grid.height, 3):
        for col in range(0, grid.width, 3):
            z = complex(xs[col], ys[row])
            out = escape_classify(sys, z, grid.max_iter)
            assert (out.escaped, out.step) == untrapped_escape(sys, z, grid.max_iter)
            assert out.step == (steps[row, col] or None)


def test_traps_end_the_loops_early(systems, monkeypatch):
    # A window around 0: every pixel is decided long before the budget.
    for name, last in (("mixed23-harmonic", 20), ("binary-p34", 40)):
        sys = systems[name]
        read = []
        level = sys.level
        monkeypatch.setattr(sys, "level", lambda j: read.append(j) or level(j))
        field = render_field(sys, GridSpec(-0.2, 0.8, -0.5, 0.5, 64, 64, 200))
        assert field.inside_fraction() > 0.05 and max(read) <= last, (name, max(read))
    out = escape_classify(systems["binary-p34"], 0.1, 200)
    assert out.certified_bounded and out.stop[2] < 10
    assert out.modulus == abs(systems["binary-p34"].composed(200, 0.1))


def test_factor_trace_reads_the_contraction_disk(systems):
    for name in ("mixed23-harmonic", "binary-geometric"):
        sys = systems[name]
        disk = sys.contraction_disk
        assert (disk.start, disk.center, disk.radius) == (sys.rho_from, 0j, RHO / 2.0)
        trace = factor_trace(sys, 0.1 + 0.1j, 200)
        assert trace.status is TraceStatus.CONVERGES_TO_ZERO
        # The trace stops at the first factor in the disk from its start level on.
        first = next(k for k, v in enumerate(trace.values, 1) if k >= disk.start and abs(v) <= RHO / 2)
        assert trace.status_index == first == len(trace.values)
    for name in ("dendrite", "binary-p34", "ternary-p12"):
        assert systems[name].contraction_disk is None


def _rho_system():
    """p_j = ρ (as a float) for 66 levels, then 1: the contraction disk is invariant with zero margin."""
    return FiberedSystem(BaseSequence(2), prefix_then([Fraction(RHO)] * 66, constant(1)))


def test_contraction_disk_fails_once_inflated():
    sys = _rho_system()
    disk = sys.contraction_disk
    assert disk.start == 1 and sys.p_float(1) == RHO
    ok, detail = _trap_invariance(sys, disk, on_factor=True)
    assert ok, detail
    for factor in (1.001, 1.05):
        ok, detail = _trap_invariance(sys, replace(disk, radius=disk.radius * factor), on_factor=True)
        assert not ok, (factor, detail)


def test_cycle_disk_is_within_its_bound_and_fails_once_inflated(systems):
    sys = systems["binary-p34"]
    disk = sys.cycle_disk
    # ẑ = 1/16 and g'(ẑ) = -2/3, so L(r) = 2/3 + 32r/9 < 1 iff r < 3/32.
    assert abs(disk.center - 1 / 16) < 1e-14 and 0 < Fraction(disk.radius) < Fraction(3, 32)
    ok, detail = _trap_invariance(sys, disk, on_factor=False)
    assert ok, detail
    # Past 3/16 the disk is no longer invariant: g(ẑ - r) - ẑ = 2r/3 + 16r²/9 > r.
    for radius in (0.2, 0.3):
        ok, detail = _trap_invariance(sys, replace(disk, radius=radius), on_factor=False)
        assert not ok, (radius, detail)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_every_cycle_disk_is_invariant(d):
    # Near a period doubling the search for ẑ ends on a cycle, not a fixed
    # point; only the acceptance test L(r)·r + |g(ẑ) - ẑ| <= r refuses those.
    found = 0
    for k in range(1, 129):
        sys = FiberedSystem(BaseSequence(d), constant(Fraction(k, 128)))
        disk = sys.cycle_disk
        if disk is not None:
            found += 1
            ok, detail = _trap_invariance(sys, disk, on_factor=False)
            assert ok, (k, detail)
            c, q, _ = sys.level(1)
            lip = (d / q) * ((abs(disk.center - c) + disk.radius) / q) ** (d - 1)
            assert lip < 1 and abs(disk.center) + disk.radius < 1, k
    assert found >= 20
