"""The batched preimage tree against its scalar reference implementations.

`_tree` builds the raw leaves (each larger level in one array pass),
`preimages` polishes them in numpy blocks and `dedup_points` searches a
sorted window; each must give exactly what the straightforward per-node and
per-point code below gives: the same leaves bit for bit (signs of zero
included) and the same representatives in the same order.
"""

import cmath
import math

import numpy as np
import pytest

from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.dynamics import (
    _POLISH_BLOCK,
    _PREIMAGE_CAP,
    _c_div,
    _c_div_real,
    _c_ipow,
    _c_mul,
    _children,
    _composed_arrays,
    _ipow,
    _real_divisor,
    _split_levels,
    _tree,
    _unit_root,
    dedup_points,
    preimages,
    residual_set,
)
from juliaspec.errors import OutOfRangeError
from juliaspec.spectra import residual_l1, spectrum_summary


def _droots(u, d, units):
    """All d-th roots of u (a d-fold 0 when u = 0); units[k] is `_unit_root(k, d)`."""
    if u == 0:
        return [0j] * d
    r = abs(u) ** (1.0 / d)
    theta = cmath.phase(u)
    principal = complex(r, 0.0) if theta == 0.0 else r * cmath.exp(1j * theta / d)
    return [principal * w for w in units]


def list_levels(sys, target, depth):
    """(nodes, d_j) for j = depth, ..., 1, then (leaves, None): the branch recursion over lists.

    Solutions of f̃_n = w are preimages under f_n of solutions of
    f̃_{n-1} = w; each node gives its d_j-th roots, and each root w the child
    c + p·w, all in Python `complex` arithmetic.
    """
    points = [target]
    for j in range(depth, 0, -1):
        c, p, d = sys.level(j)
        yield points, d
        units = [_unit_root(k, d) for k in range(d)]
        points = [c + p * w for u in points for w in _droots(u, d, units)]
    yield points, None


def list_tree(sys, target, depth):
    """The unpolished leaves of f̃_depth^{-1}{target}, one `_droots` per node."""
    *_, (points, _) = list_levels(sys, target, depth)
    return points


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


def tree_bits(sys, target, depth):
    return bits(map(complex, *(part.tolist() for part in _tree(sys, target, depth))))


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


# Points on every branch of a node's roots: u = 0 (a d-fold 0), θ = 0, θ = ±π and θ = ±π/2,
# with signed zeros in either part, and a modulus near the top of the float range.
EDGE_TARGETS = [
    0j,
    complex(-0.0, -0.0),
    complex(0.0, -0.0),
    complex(-0.0, 0.0),
    complex(-0.5, 0.0),
    complex(-0.5, -0.0),
    complex(-2.0, 0.0),
    complex(-2.0, -0.0),
    1j,
    -1j,
    complex(0.0, -1.0),
    complex(-0.0, 1.0),
    complex(1e300, 0.0),
    complex(-6e299, -8e299),
]


def test_level_pass_matches_the_python_level_bit_for_bit():
    # Signed zeros reach a level only through the tree's top node, which the
    # Python recursion builds; the array pass is held to the same bits on them.
    re, im = _samples(4000, 5)
    nodes = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())]
    nodes += EDGE_TARGETS + [complex(1.0, -5e-324), complex(-1.0, 5e-324), complex(-1e-300, -0.0)]
    zr, zi = np.array([z.real for z in nodes]), np.array([z.imag for z in nodes])
    for c, p, d in ((0.25, 0.75, 2), (0.5, 0.5, 3), (0.0, 1.0, 2), (1.0 / 6.0, 5.0 / 6.0, 3), (0.1, 0.9, 5)):
        units = [_unit_root(k, d) for k in range(d)]
        want = [c + p * w for u in nodes for w in _droots(u, d, units)]
        got = _children(zr, zi, c, p, d)
        assert bits(map(complex, *(part.tolist() for part in got))) == bits(want), (c, p, d)


def _check_polish(sys, target, depth):
    target = complex(target)
    raw = list_tree(sys, target, depth)
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


def _sampled_polish(sys, target, depth, count=1500):
    """`preimages` at depth against `scalar_polish` of the list tree's leaves, on every k-th leaf."""
    target = complex(target)
    raw = list_tree(sys, target, depth)
    got = preimages(sys, target, depth)
    step = max(len(raw) // count, 1)
    ref = [scalar_polish(sys, depth, target, z) for z in raw[::step]]
    assert bits(got[::step]) == bits(ref), (target, depth)
    return raw


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_array_tree_matches_list_tree_bit_for_bit(systems, name):
    sys = systems[name]
    depths = [k for k in range(13) if sys.base.place_value(k) <= _PREIMAGE_CAP]
    assert depths[-1] == 12
    for depth in depths:
        # 1 - p_{depth+1} is the level tree T_depth's target; 1 gives the residual set's ones.
        for target in (1.0 + 0j, complex(1.0 - sys.p_float(depth + 1))):
            raw = list_tree(sys, target, depth)
            assert tree_bits(sys, target, depth) == bits(raw), (target, depth)
    # The polished leaves of the deepest tree, sampled across every polish block.
    _sampled_polish(sys, 1.0, depths[-1])


def test_array_tree_matches_list_tree_at_depth_16(systems):
    sys = systems["binary-p34"]
    raw = _sampled_polish(sys, 1.0, 16)
    assert len(raw) == 1 << 16
    assert tree_bits(sys, 1.0 + 0j, 16) == bits(raw)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_edge_targets_match_the_list_tree_and_scalar_polish(systems, name):
    sys = systems[name]
    for target in EDGE_TARGETS:
        assert bits(preimages(sys, target, 0)) == bits([target])
        for depth in range(1, 7):
            raw = list_tree(sys, target, depth)
            assert tree_bits(sys, target, depth) == bits(raw), (target, depth)
            ref = [scalar_polish(sys, depth, target, z) for z in raw]
            assert bits(preimages(sys, target, depth)) == bits(ref), (target, depth)


def _tree_angles(sys, target, depth):
    """θ/d_j of every nonzero node of the tree: the arguments of its cos and sin."""
    return [
        cmath.phase(u) / d for nodes, d in list_levels(sys, target, depth) if d for u in nodes if u != 0
    ]


def test_numpy_cos_and_sin_equal_libm_bit_for_bit(systems):
    # The array tree takes cos and sin of θ/d_j from numpy, and Python's cmath.exp
    # from libm; the tree pins above hold only while the two agree to the last bit.
    angles = []
    for name in CANONICAL_NAMES:
        sys = systems[name]
        depth = max(k for k in range(13) if sys.base.place_value(k) <= 1 << 14)
        for target in (1.0 + 0j, complex(1.0 - sys.p_float(depth + 1)), *EDGE_TARGETS):
            angles.extend(_tree_angles(sys, target, depth))
    rng = np.random.default_rng(20261020)
    angles.extend(rng.uniform(-math.pi, math.pi, 100_000).tolist())
    angles.extend([math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0])
    a = np.array(angles)
    assert len(angles) > 150_000
    for np_f, libm_f in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.array([libm_f(x) for x in angles])
        differ = np.flatnonzero(np_f(a).view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (np_f.__name__, [angles[i] for i in differ[:5]])


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
