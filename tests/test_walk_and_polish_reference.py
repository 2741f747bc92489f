"""The integer zero-node walk and the one-pass polish against the code they replaced.

`_zero_nodes` walks exact node values as reduced (numerator, denominator)
pairs of Python ints; `reference_zero_nodes` below is the `Fraction` walk it
replaced, kept as it was, and the two must yield the same (index, position)
pairs in the same order.  `_polish_block` evaluates the three halved Newton
steps in one composition pass; `reference_polish_block` tries them one after
another, each over the leaves still undecided, and the two must give the same
bits, signs of zero included.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import juliaspec.dynamics as dyn
from juliaspec.canonical import CANONICAL_NAMES
from juliaspec.dynamics import (
    _HALVE,
    _POLISH_BLOCK,
    _PREIMAGE_CAP,
    FiberedSystem,
    _c_div,
    _c_div_real,
    _composed_arrays,
    _droots,
    _iroot,
    _polish_block,
    _split_levels,
    _tree,
    _unit_root,
    _zero_nodes,
)
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant, prefix_then, random_uniform

# -- the zero-node walk -------------------------------------------------------


def _rational_roots(v, d):
    """The real rational w with w**d == v, for v != 0."""
    num, den = _iroot(abs(v.numerator), d), _iroot(v.denominator, d)
    if num is None or den is None or (v < 0 and d % 2 == 0):
        return []
    w = Fraction(num, den) if v > 0 else -Fraction(num, den)
    return [w, -w] if d % 2 == 0 else [w]


def reference_zero_nodes(sys, depth):
    """The `Fraction` walk: one Fraction per node, a level's tables read per node."""
    walk = [(depth, Fraction(1), 1 + 0j, 0)]  # (index, exact node, float node, position)
    while walk:
        n, v, u, i = walk.pop()
        c, p, d = sys.level(n)
        exact_p = Fraction(sys.p.value_at(n))
        roots = _droots(u, d, [_unit_root(k, d) for k in range(d)])
        for w in _rational_roots(v, d):
            k = min(range(d), key=lambda m: abs(roots[m] - float(w)))
            child, pos = 1 - exact_p + exact_p * w, i * d + k
            if child == 0:
                yield n - 1, pos
            elif n > 1:
                walk.append((n - 1, child, c + p * roots[k], pos))


def _same_walk(sys, depth):
    got = list(_zero_nodes(sys, depth))
    assert got == list(reference_zero_nodes(sys, depth)), depth
    return got


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_walk_matches_the_fraction_walk_on_the_canonicals(systems, name):
    sys = systems[name]
    depths = [k for k in range(1, 21) if sys.base.place_value(k) <= _PREIMAGE_CAP]
    assert depths[-1] >= 12
    found = [_same_walk(sys, depth) for depth in depths]
    # Dendrite's node 1 has the child 0 at every level; no other canonical has a zero node.
    if name == "dendrite":
        assert all(len(pairs) == depth for pairs, depth in zip(found, depths))
    else:
        assert not any(found)


def prefix_system(p, d):
    return FiberedSystem(
        BaseSequence(prefix_then(d, constant(2, "d"))), prefix_then(p, constant(Fraction(1, 2)))
    )


# p = 1/2 sends 0 to 1 (d = 2) or to -1 (d = 3), and p = 5/8 with d = 2 sends 1 to
# -1/4, so zero nodes, negative nodes and children that reduce all come up.
_P_CHOICES = [Fraction(k, m) for k, m in ((1, 2), (1, 2), (1, 3), (2, 3), (3, 8), (5, 8), (1, 4), (3, 4), (1, 1))]


def test_walk_matches_the_fraction_walk_on_random_prefix_specs():
    rng = random.Random(2032)
    levels_with_zero, several = set(), 0
    for _ in range(300):
        depth = rng.randint(1, 14)
        d = [rng.choice((2, 3)) for _ in range(depth)]
        p = [rng.choice(_P_CHOICES) for _ in range(depth)]
        pairs = _same_walk(prefix_system(p, d), depth)
        indices = {n for n, _ in pairs}
        levels_with_zero |= indices
        several += len(indices) >= 2
    assert len(levels_with_zero) >= 10 and several >= 50


def test_walk_matches_the_fraction_walk_on_a_random_float_spec():
    # A random p̄ reads its floats as exact ratios; low = high = 1/2 draws 0.5
    # at every index, the dendrite's zero nodes.
    for low, high in (("1/2", "1/2"), ("1/4", "3/4")):
        sys = FiberedSystem(BaseSequence(3), random_uniform(low, high, 11))
        for depth in range(1, 13):
            _same_walk(sys, depth)
    sys = FiberedSystem(BaseSequence(2), random_uniform("1/2", "1/2", 5))
    assert len(_same_walk(sys, 20)) == 20


# -- the one-pass polish ------------------------------------------------------


def reference_polish_block(levels, target, zr, zi, out):
    """The sequential damped Newton pass: each try evaluates only the points still undecided."""
    out.real, out.imag = zr, zi
    vr, vi, dr, di = _composed_arrays(levels, zr, zi, derivative=True)
    er, ei = vr - target.real, vi - target.imag
    best = np.hypot(er, ei)
    idx = np.flatnonzero((best != 0) & (np.hypot(dr, di) != 0))  # dv == 0 iff |dv| == 0
    if not idx.size:
        return
    sr, si = _c_div(er[idx], ei[idx], dr[idx], di[idx])
    best = best[idx]
    for _ in range(4):
        cr, ci = zr[idx] - sr, zi[idx] - si
        vr, vi, _, _ = _composed_arrays(levels, cr, ci, derivative=False)
        ok = np.hypot(vr - target.real, vi - target.imag) <= best
        out.real[idx[ok]], out.imag[idx[ok]] = cr[ok], ci[ok]
        miss = ~ok
        if not miss.any():
            break
        idx, best = idx[miss], best[miss]
        sr, si = _c_div_real(sr[miss], si[miss], _HALVE)


def _same_polish(levels, target, zr, zi):
    got, want = np.empty(zr.size, dtype=complex), np.empty(zr.size, dtype=complex)
    with np.errstate(all="ignore"):
        _polish_block(levels, target, zr, zi, got)
        reference_polish_block(levels, target, zr, zi, want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), target


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_polish_matches_the_sequential_tries_on_the_canonicals(systems, name):
    sys = systems[name]
    for depth in range(1, 9):
        levels = _split_levels(sys, depth)
        for target in (1 + 0j, complex(1.0 - sys.p_float(depth + 1)), 0j, 0.7 + 0.1j):
            zr, zi = _tree(sys, target, depth)
            _same_polish(levels, target, zr[:_POLISH_BLOCK], zi[:_POLISH_BLOCK])


def halvings(sys, depth, target, z, tries=4):
    """The number of halvings before the scalar polish of z accepts a step; None if z is not
    moved, "none" if no try is accepted."""
    v, dv = sys.composed_with_derivative(depth, z)
    best = abs(v - target)
    if best == 0 or dv == 0:
        return None
    step = (v - target) / dv
    for t in range(tries):
        vc, _ = sys.composed_with_derivative(depth, z - step)
        if abs(vc - target) <= best:
            return t
        step /= 2
    return "none"


# (name, depth): the perturbed leaves of these trees need every number of halvings.
_PERTURBED = [("ternary-p12", 4), ("mixed23-harmonic", 5), ("binary-p34", 6)]


def perturbed_leaves(sys, depth, seed, copies=6):
    """Leaves of f̃_depth⁻¹{1} moved by 1e-3 to 1e-1, then NaN, inf, a critical point and 1 itself."""
    zr, zi = _tree(sys, 1 + 0j, depth)
    z = np.tile(zr + 1j * zi, copies)
    rng = np.random.default_rng(seed)
    z = z + 10 ** rng.uniform(-3, -1, z.size) * np.exp(2j * np.pi * rng.random(z.size))
    nan, inf = float("nan"), float("inf")
    c1 = sys.level(1)[0]  # h_1(c_1) = 0: the derivative of f̃_depth vanishes there
    edges = [complex(nan, 0.0), complex(0.5, nan), complex(inf, 0.0), complex(-inf, inf), complex(c1, 0.0), 1 + 0j]
    z = np.concatenate([z, edges])
    return np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)


@pytest.mark.parametrize("name, depth", _PERTURBED)
def test_polish_matches_the_sequential_tries_on_perturbed_leaves(systems, name, depth):
    sys = systems[name]
    levels = _split_levels(sys, depth)
    zr, zi = perturbed_leaves(sys, depth, 2032)
    assert zr.size <= _POLISH_BLOCK
    _same_polish(levels, 1 + 0j, zr, zi)
    seen = {}
    for z in map(complex, zr.tolist(), zi.tolist()):
        got = halvings(sys, depth, 1 + 0j, z)
        if got == "none" and halvings(sys, depth, 1 + 0j, z, 5) == 4:
            got = "a fifth"
        seen[got] = seen.get(got, 0) + 1
    # Points no try moves, points each try accepts, points none accepts, and points
    # only a fifth halving would accept: each is in the data.
    assert {None, 0, 1, 2, 3, "none", "a fifth"} <= set(seen), seen


def test_polish_runs_at_most_three_composition_passes(monkeypatch, systems):
    sys = systems["binary-p34"]
    levels = _split_levels(sys, 6)
    zr, zi = perturbed_leaves(sys, 6, 2032)
    calls = []
    real = dyn._composed_arrays

    def counting(levels, zr, zi, derivative):
        calls.append(zr.size)
        return real(levels, zr, zi, derivative)

    monkeypatch.setattr(dyn, "_composed_arrays", counting)
    out = np.empty(zr.size, dtype=complex)
    with np.errstate(all="ignore"):
        _polish_block(levels, 1 + 0j, zr, zi, out)
    # The derivative pass, z - s, then s/2, s/4 and s/8 together over the points
    # z - s left undecided: 3 candidates each, at most 3 × the block.
    assert len(calls) == 3 and calls[0] == zr.size
    assert calls[2] % 3 == 0 and 0 < calls[2] // 3 < calls[1]
