"""The batched preimage tree against its scalar reference implementations.

`_tree` builds the raw leaves (each larger level in one array pass),
`preimages` polishes them in numpy blocks and `dedup_points` searches a
sorted window; each must give exactly what the straightforward per-node and
per-point code below gives: the same leaves bit for bit (signs of zero
included) and the same representatives in the same order.  `residual_set`
must give the leaves that a brute force leaves over: exact forward iteration
of 0 finds the zero nodes, and the list tree places them.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.dynamics import (
    _POLISH_BLOCK,
    FiberedSystem,
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
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant, prefix_then, random_uniform
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
    # The float route that `residual_set` replaced: dedup the ones and the zeros
    # within tol, then drop every one within tol of a zero.  At these depths and
    # tol = 1e-8 it is right, and the exact route gives its bits.
    sys = canonical_config(name).system()
    tol = 1e-8
    for depth in (3, 6, 8):
        if sys.base.place_value(depth) > 1300:
            break
        # The level trees T_{n-1} = f̃_{n-1}⁻¹{1 - p_n}: f̃_n⁻¹{0} without its d_n-fold copies.
        zeros_all = [0j]
        for n in range(1, depth + 1):
            zeros_all.extend(preimages(sys, 1.0 - sys.p_float(n), n - 1))
        zeros = quadratic_dedup(zeros_all, tol)
        ones = quadratic_dedup(preimages(sys, 1.0, depth), tol)
        kept = [z for z in ones if all(abs(z - w) > tol for w in zeros)]
        assert bits(residual_set(sys, depth)) == bits(kept), depth


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-12])
def test_tol_must_be_finite_and_nonnegative(tol):
    with pytest.raises(OutOfRangeError):
        dedup_points([0j, 1 + 0j], tol)


def test_residual_sets_refuse_tol_zero(systems):
    # Exact comparison of two polished trees is rounding noise; dedup alone may use
    # it.  The residual sets compare no trees, so they take no tol at all.
    assert dedup_points([0j, 0j, 1 + 0j], 0.0) == [0j, 1 + 0j]
    with pytest.raises(TypeError):
        residual_set(systems["dendrite"], 3, 0.0)
    for name in ("dendrite", "binary-geometric"):  # the transient report returns early
        with pytest.raises(TypeError):
            residual_l1(systems[name], 3, 0.0)


def test_residual_set_built_once_per_system(monkeypatch):
    import juliaspec.dynamics as dyn

    calls = []
    real = dyn._polished_tree

    def counting(sys, target, depth, *args):
        calls.append(depth)
        return real(sys, target, depth, *args)

    monkeypatch.setattr(dyn, "_polished_tree", counting)
    rc = canonical_config("binary-p34")
    sys = rc.system()
    depth = 4
    lams = [0.1 + 0.2j, -0.3j, 0.5, 0.9 + 0.1j, 1.0]
    report = spectrum_summary(rc.chain(), sys, lams=lams, depth=depth, alphas=(1.0,))
    assert len(report["lambdas"]) == 5
    # One tree, that of the ones without its zero nodes, in a single build: no zero trees.
    assert calls == [depth]
    assert residual_set(sys, depth) is residual_set(sys, depth)
    assert calls == [depth]


def test_residual_set_builds_only_the_leaves_off_the_zero_paths(monkeypatch):
    # Dendrite's X is {1}: at every level one child of the node 1 is 0, so the
    # tree without its zero nodes has one node per level and one leaf to polish.
    import juliaspec.dynamics as dyn

    sizes, real = [], dyn._polish_block

    def counting(levels, target, zr, zi, out):
        sizes.append(zr.size)
        return real(levels, target, zr, zi, out)

    monkeypatch.setattr(dyn, "_polish_block", counting)
    sys = canonical_config("dendrite").system()
    assert residual_set(sys, 20) == (1 + 0j,)
    assert sizes == [1]


# -- the residual set against brute force ------------------------------------


def topmost_zero_indices(sys, depth):
    """The indices n < depth at which the tree of f̃_depth⁻¹{1} has a node exactly 0 not under another.

    Brute force in `Fraction`: 0 at index n is such a node when its forward
    orbit f_{n+1}(0), ..., f_depth(...) ends at 1 and meets no 0 on the way.
    """
    levels = [(Fraction(sys.p.value_at(j)), sys.digit_base(j)) for j in range(1, depth + 1)]
    out = []
    for n in range(depth):
        x, orbit = Fraction(0), []
        for p, d in levels[n:]:
            x = ((x - (1 - p)) / p) ** d
            orbit.append(x)
        if orbit[-1] == 1 and 0 not in orbit:
            out.append(n)
    return out


def brute_force_residual(sys, depth):
    """The leaves of `preimages(sys, 1, depth)` under no zero node, in sorted (re, im) order.

    A topmost zero index holds one zero node (its path to the root is the
    orbit of 0), and the float list tree puts it at the node of that index
    nearest 0; its leaves are the q_n from its position times q_n on.
    """
    nodes_at = [nodes for nodes, _ in list_levels(sys, 1 + 0j, depth)]  # index depth, ..., 0
    drop = set()
    for n in topmost_zero_indices(sys, depth):
        nodes = nodes_at[depth - n]
        i = min(range(len(nodes)), key=lambda i: abs(nodes[i]))
        assert abs(nodes[i]) <= 1e-9, (n, nodes[i])
        q = sys.base.place_value(n)
        drop.update(range(i * q, i * q + q))
    kept = [z for k, z in enumerate(preimages(sys, 1.0, depth)) if k not in drop]
    return sorted(kept, key=lambda z: (z.real, z.imag))


def prefix_system(p, d):
    return FiberedSystem(
        BaseSequence(prefix_then(d, constant(2, "d"))), prefix_then(p, constant(Fraction(1, 2)))
    )


# 1/2 three times over: p = 1/2 with d = 2 sends 0 to 1, so most specs have zero nodes.
_P_CHOICES = [Fraction(k, m) for k, m in ((1, 2), (1, 2), (1, 2), (1, 3), (2, 3), (3, 8), (5, 8), (1, 1))]


def test_residual_set_matches_brute_force_on_random_prefix_specs():
    rng = random.Random(2028)
    with_zero = 0
    for _ in range(200):
        d = [rng.choice((2, 3)) for _ in range(rng.randint(1, 8))]
        while math.prod(d) > 2048:
            d.pop()
        p = [rng.choice(_P_CHOICES) for _ in d]
        sys = prefix_system(p, d)
        with_zero += bool(topmost_zero_indices(sys, len(d)))
        assert bits(residual_set(sys, len(d))) == bits(brute_force_residual(sys, len(d))), (p, d)
    assert with_zero >= 100  # most of the specs exercise the zero paths


def test_a_zero_node_the_float_tree_misses():
    # The float tree computes this spec's zero node at index 0 (a leaf) as
    # 5.55e-17, not 0.0; the exact walk still finds it.
    p = [Fraction(2, 3), Fraction(1, 2), Fraction(3, 8), Fraction(5, 8),
         Fraction(2, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)]
    sys = prefix_system(p, [2, 2, 2, 2, 2, 2, 3, 2])
    nodes_at = [nodes for nodes, _ in list_levels(sys, 1 + 0j, 8)]
    nearest = {n: min(map(abs, nodes_at[8 - n])) for n in topmost_zero_indices(sys, 8)}
    assert sorted(nearest) == [0, 1, 5, 7] and 0 < nearest[0] < 1e-16
    assert sys.base.place_value(8) == 384
    got = residual_set(sys, 8)
    assert len(got) == 157
    assert bits(got) == bits(brute_force_residual(sys, 8))


def test_a_zero_path_through_a_negative_node():
    # 0 -> -1 under p = 1/2, d = 3, then -1 -> 1 under p = 1, d = 2: the leaf 0
    # sits under the cube root -1 of the float node -1, whose place in `_droots`
    # follows the sign of that node's phase.
    sys = prefix_system([Fraction(1, 2), Fraction(1), Fraction(3, 4), Fraction(3, 4)], [3, 2, 2, 2])
    assert topmost_zero_indices(sys, 4) == [0]
    got = residual_set(sys, 4)
    assert len(got) == 23 and 0j not in got
    assert bits(got) == bits(brute_force_residual(sys, 4))


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_residual_set_matches_brute_force_on_the_canonicals(name):
    sys = canonical_config(name).system()
    for depth in range(1, 9):
        if sys.base.place_value(depth) > 4096:
            break
        assert bits(residual_set(sys, depth)) == bits(brute_force_residual(sys, depth)), depth


def test_random_specs_read_their_floats_exactly():
    # A random p̄ holds floats; through Fraction they are exact dyadic rationals.
    # low = high = 1/2 draws 0.5 at every index: the dendrite, X = {1}.
    d = BaseSequence(2)
    assert residual_set(FiberedSystem(d, random_uniform("1/2", "1/2", 5)), 6) == (1 + 0j,)
    sys = FiberedSystem(d, random_uniform("1/4", "3/4", 5))
    assert bits(residual_set(sys, 6)) == bits(brute_force_residual(sys, 6))
