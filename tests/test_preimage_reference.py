"""The batched preimage tree against its scalar reference implementations.

`preimages` polishes leaves in numpy blocks and `dedup_points` searches a
sorted window; both must give exactly what the straightforward per-point
code below gives: the same leaves bit for bit (signs of zero included) and
the same representatives in the same order.
"""

import numpy as np
import pytest

from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.dynamics import (
    _POLISH_BLOCK,
    _c_div,
    _c_div_real,
    _c_ipow,
    _c_mul,
    _composed_arrays,
    _ipow,
    _real_divisor,
    _split_levels,
    dedup_points,
    preimages,
    residual_set,
)
from juliaspec.errors import OutOfRangeError
from juliaspec.spectra import residual_l1, spectrum_summary


def scalar_polish(sys, depth, target, z):
    """One damped Newton pass on f̃_depth(z) - target, one leaf at a time."""
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


def quadratic_dedup(points, tol):
    """Greedy representatives in sorted (re, im) order, each compared with all kept."""
    kept = []
    for z in sorted(points, key=lambda w: (w.real, w.imag)):
        if not any(abs(z - w) <= tol for w in kept):
            kept.append(z)
    return kept


def bits(points):
    return [(z.real.hex(), z.imag.hex()) for z in points]


def _samples(n, seed):
    """Random complex values with signed zeros, equal-modulus parts and axis points mixed in."""
    rng = np.random.default_rng(seed)
    re, im = rng.normal(size=n), rng.normal(size=n)
    zero = rng.random(n)
    re[zero < 0.15] *= 0.0  # ±0.0, keeping the sign
    im[(zero > 0.15) & (zero < 0.3)] *= 0.0
    im[(zero > 0.3) & (zero < 0.4)] = re[(zero > 0.3) & (zero < 0.4)]
    im[(zero > 0.4) & (zero < 0.45)] = -re[(zero > 0.4) & (zero < 0.45)]
    return re, im


def test_split_arithmetic_matches_python_complex():
    ar, ai = _samples(4000, 1)
    br, bi = _samples(4000, 2)
    a = [complex(x, y) for x, y in zip(ar.tolist(), ai.tolist())]
    b = [complex(x, y) for x, y in zip(br.tolist(), bi.tolist())]

    def same(split, expect):
        got = [complex(x, y) for x, y in zip(split[0].tolist(), split[1].tolist())]
        assert bits(got) == bits(expect)

    same(_c_mul(ar, ai, br, bi), [x * y for x, y in zip(a, b)])
    nonzero = (br != 0) | (bi != 0)
    with np.errstate(all="ignore"):  # the unused branch of the quotient divides by 0
        quot = _c_div(ar[nonzero], ai[nonzero], br[nonzero], bi[nonzero])
    same(quot, [x / y for x, y, k in zip(a, b, nonzero) if k])
    for p in (0.5, 0.75, 2.0, 1.0 / 3.0):
        same(_c_div_real(ar, ai, _real_divisor(p)), [x / p for x in a])
    for n in range(1, 8):
        same(_c_ipow(ar, ai, n), [_ipow(x, n) for x in a])


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_composed_arrays_match_scalar_composition(systems, name):
    sys = systems[name]
    depth = 5
    levels = _split_levels(sys, depth)
    re, im = _samples(500, 3)
    re, im = 1.0 - 0.5 * np.abs(re), 0.3 * im  # near the filled set: finite orbits
    vr, vi, dr, di = _composed_arrays(levels, re, im, derivative=True)
    pts = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]
    ref = [sys.composed_with_derivative(depth, z) for z in pts]
    assert bits(map(complex, vr.tolist(), vi.tolist())) == bits(v for v, _ in ref)
    assert bits(map(complex, dr.tolist(), di.tolist())) == bits(dv for _, dv in ref)


def _check_polish(sys, target, depth):
    target = complex(target)
    raw = preimages(sys, target, depth, polish=False)
    ref = [scalar_polish(sys, depth, target, z) for z in raw] if depth else raw
    assert bits(preimages(sys, target, depth)) == bits(ref), (target, depth)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_array_polish_matches_scalar_bit_for_bit(systems, name):
    sys = systems[name]
    for depth in range(10):
        if sys.base.place_value(depth) > _POLISH_BLOCK:
            break
        for target in (0.0, 1.0, 1.0 - sys.p_float(depth + 1), 0.7 + 0.1j):
            _check_polish(sys, target, depth)


def test_array_polish_across_blocks(systems):
    sys = systems["ternary-p12"]
    assert sys.base.place_value(8) > _POLISH_BLOCK  # 6561 leaves: two blocks
    _check_polish(sys, 1.0, 8)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_window_dedup_matches_quadratic(systems, name):
    sys = systems[name]
    for depth in range(1, 9):
        if sys.base.place_value(depth) > 1300:
            break
        for target in (0.0, 1.0):
            pts = preimages(sys, target, depth)
            for tol in (0.0, 1e-8, 1e-3, 0.05):
                assert bits(dedup_points(pts, tol)) == bits(quadratic_dedup(pts, tol))


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_residual_set_matches_quadratic_filter(name):
    sys = canonical_config(name).system()
    for depth in (3, 6, 8):
        if sys.base.place_value(depth) > 1300:
            break
        for tol in (1e-8, 1e-3):
            rs = residual_set(sys, depth, tol)
            # The level trees T_{n-1} = f̃_{n-1}⁻¹{1 - p_n}: f̃_n⁻¹{0} without its d_n-fold copies.
            zeros_all = [0j]
            for n in range(1, depth + 1):
                zeros_all.extend(preimages(sys, 1.0 - sys.p_float(n), n - 1))
            zeros = quadratic_dedup(zeros_all, tol)
            ones = quadratic_dedup(preimages(sys, 1.0, depth), tol)
            kept = [z for z in ones if all(abs(z - w) > tol for w in zeros)]
            assert bits(rs.zeros) == bits(zeros)
            assert bits(rs.ones) == bits(ones)
            assert bits(rs.points) == bits(kept)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
def test_tol_must_be_finite_and_nonnegative(systems, tol):
    with pytest.raises(OutOfRangeError):
        dedup_points([0j, 1 + 0j], tol)
    with pytest.raises(OutOfRangeError):
        residual_set(systems["binary-p34"], 3, tol)


def test_residual_sets_refuse_tol_zero(systems):
    # Exact comparison of two polished trees is rounding noise; dedup alone may use it.
    assert dedup_points([0j, 0j, 1 + 0j], 0.0) == [0j, 1 + 0j]
    with pytest.raises(OutOfRangeError):
        residual_set(systems["dendrite"], 3, 0.0)
    for name in ("dendrite", "binary-geometric"):  # the transient report returns early
        with pytest.raises(OutOfRangeError):
            residual_l1(systems[name], 3, 0.0)


def test_residual_set_built_once_per_system(monkeypatch):
    import juliaspec.dynamics as dyn

    calls = []
    real = dyn.preimages

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["depth"])
        return real(*args, **kwargs)

    monkeypatch.setattr(dyn, "preimages", counting)
    rc = canonical_config("binary-p34")
    sys = rc.system()
    depth = 4
    lams = [0.1 + 0.2j, -0.3j, 0.5, 0.9 + 0.1j, 1.0]
    report = spectrum_summary(rc.chain(), sys, lams=lams, depth=depth, alphas=(1.0,))
    assert len(report["lambdas"]) == 5
    # One level tree T_k per k < depth and one tree for the ones: a single build.
    assert sorted(calls) == sorted(list(range(depth)) + [depth])
    assert residual_set(sys, depth) is residual_set(sys, depth)
    assert residual_set(sys, depth, 1e-6) is not residual_set(sys, depth)
