"""The lockstep Monte Carlo engine against the ζ-loop engine it replaced.

`_count_hits_lockstep` decides each step with one modulo (advance iff
n mod q_w ≠ q_w - 1, w the number of successful writes), drops each
trajectory at its first visit to 0 or once 0 is out of its reach, and walks
a block that starts with at most `_SCALAR_MAX` live trajectories as Python
ints.  The reference below computes ζ(n) level by level and steps every
trajectory to the horizon.  Both read the same per-trajectory streams, so
every hit count must be identical.  `zeta_loop_blocks` counts, from the
reference, which blocks the engine cuts and walks, so a case can state its
path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import LOCKSTEP_RUNS

from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.chain import _SCALAR_MAX, _count_hits_lockstep
from juliaspec.errors import IntegerOverflowError


def zeta_loop_hits(cfg, start, trajectories, horizon, seed):
    """Vectorized count of trajectories visiting 0, per-trajectory substreams."""
    bound = start + horizon + 2  # states move up by at most 1 per step
    qs = [1]
    while qs[-1] <= bound:
        qs.append(qs[-1] * cfg.base.digit_base(len(qs)))
    if qs[-1] > np.iinfo(np.int64).max:
        raise IntegerOverflowError(
            f"place value q_{len(qs) - 1} above start {start} + horizon {horizon} "
            "does not fit the 64-bit signed lockstep engine"
        )
    jmax = len(qs) - 1
    qs = np.array(qs, dtype=np.int64)
    pref = np.array([float(cfg.success_prefix(r)) for r in range(jmax + 1)], dtype=float)

    children = np.random.SeedSequence(seed).spawn(trajectories)
    gens = [np.random.default_rng(c) for c in children]
    block = 512

    states = np.full(trajectories, start, dtype=np.int64)
    hit = states == 0
    uniforms = np.empty((trajectories, block))
    neg_pref = -pref[1:]  # ascending; searchsorted counts prefixes >= u

    for t in range(horizon):
        if t % block == 0:
            for k, g in enumerate(gens):
                uniforms[k] = g.random(block)
        u = uniforms[:, t % block]

        zeta = np.ones(trajectories, dtype=np.int64)
        mask = states % qs[1] == qs[1] - 1
        j = 1
        while mask.any():
            j += 1
            zeta[mask] = j
            mask &= states % qs[j] == qs[j] - 1

        advance = u <= pref[zeta]
        writes = np.searchsorted(neg_pref, -u, side="right")  # failures: successful writes
        states = np.where(advance, states + 1, states - (qs[writes] - 1))
        hit |= states == 0
        if hit.all():
            break
    return int(hit.sum())


def zeta_loop_blocks(cfg, start, trajectories, horizon, seed):
    """(unhit, live) at each 512-step block start t0 of a ζ-loop run.

    unhit counts the trajectories that have not visited 0 before t0; live
    those of them within reach of 0: q_L - n <= horizon - t0 for n in block
    L = [q_{L-1}, q_L), the fewest steps from n to 0 (checked on the rows in
    `test_shortest_path_to_zero_is_the_block_distance`).  Same streams and
    step as `zeta_loop_hits`.
    """
    base = cfg.base
    qs = [1]
    while qs[-1] <= start + horizon + 2:
        qs.append(qs[-1] * base.digit_base(len(qs)))
    qs = np.array(qs, dtype=np.int64)
    pref = np.array([float(cfg.success_prefix(r)) for r in range(len(qs))])
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(trajectories)]
    block = 512
    states = np.full(trajectories, start, dtype=np.int64)
    hit = states == 0
    counts = []
    for t0 in range(0, horizon, block):
        reach = [
            n > 0 and base.place_value(base.level_of(n)) - n <= horizon - t0
            for n in states.tolist()
        ]
        counts.append((int((~hit).sum()), int((~hit & np.array(reach)).sum())))
        uniforms = np.array([g.random(block) for g in gens])
        for u in uniforms.T[: horizon - t0]:
            zeta = np.ones(trajectories, dtype=np.int64)
            mask = states % qs[1] == qs[1] - 1
            j = 1
            while mask.any():
                j += 1
                zeta[mask] = j
                mask &= states % qs[j] == qs[j] - 1
            writes = np.searchsorted(-pref[1:], -u, side="right")
            states = np.where(u <= pref[zeta], states + 1, states - (qs[writes] - 1))
            hit |= states == 0
    return counts


def _outcome(engine, *args):
    try:
        return engine(*args)
    except IntegerOverflowError:
        return "overflow"


HORIZONS = (0, 1, 511, 512, 513, 777, 2000)
TRAJECTORIES = (1, 7, 200)
SEEDS = (20260823, 1, 7, 2**40 + 3)
STARTS = ("0", "1", "q_3", "2^62-800")
# Each (canonical, start) pair runs every horizon; the trajectory count and the
# seed rotate with the pair's index, so every horizon meets every count and seed.
CASES = [(name, start) for name in CANONICAL_NAMES for start in STARTS]


@pytest.mark.parametrize("name,start", CASES)
def test_lockstep_matches_zeta_loop(name, start):
    c = CASES.index((name, start))
    cfg = canonical_config(name).chain()
    n = {"0": 0, "1": 1, "q_3": cfg.base.place_value(3), "2^62-800": 2**62 - 800}[start]
    for i, horizon in enumerate(HORIZONS):
        trajectories = TRAJECTORIES[(c + i) % len(TRAJECTORIES)]
        seed = SEEDS[(c + i) % len(SEEDS)]
        args = (cfg, n, trajectories, horizon, seed)
        want = _outcome(zeta_loop_hits, *args)
        assert _outcome(_count_hits_lockstep, *args) == want, (horizon, trajectories, seed)


def test_lockstep_matches_zeta_loop_when_all_hit_early():
    cfg = canonical_config("dendrite").chain()
    for seed in SEEDS:
        hits = _count_hits_lockstep(cfg, 1, 7, 2000, seed)
        assert hits == 7
        assert zeta_loop_hits(cfg, 1, 7, 2000, seed) == hits


def test_lockstep_overflow_refusal():
    cfg = canonical_config("binary-p34").chain()
    # q_62 = 2^62 still bounds 2^62 - 800 + 797 + 2; one more step needs q_63 = 2^63.
    assert _count_hits_lockstep(cfg, 2**62 - 800, 3, 797, 1) == 0
    with pytest.raises(IntegerOverflowError):
        _count_hits_lockstep(cfg, 2**62 - 800, 3, 798, 1)


def test_cut_fires_while_the_batch_is_lockstep():
    # Transient binary-geometric from 8: two trajectories visit 0 early; at
    # t0 = 2048, 45 of the other 198 are out of reach and 153 stay in
    # lockstep, and at t0 = 2560 the rest are cut.
    cfg = canonical_config("binary-geometric").chain()
    args = (cfg, 8, 200, 2700, 5)
    blocks = zeta_loop_blocks(*args)
    assert any(unhit > live > _SCALAR_MAX for unhit, live in blocks), blocks
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args) == 2


def test_stragglers_hand_over_from_lockstep_to_scalar():
    # Null-recurrent dendrite from 1: 200 live in the first block, then a few
    # stragglers that the later blocks walk as Python ints.
    cfg = canonical_config("dendrite").chain()
    args = (cfg, 1, 200, 3000, 20260823)
    live = [n for _, n in zeta_loop_blocks(*args)]
    assert live[0] > _SCALAR_MAX and 0 < min(live) <= _SCALAR_MAX, live
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args)


@settings(max_examples=40)
@given(LOCKSTEP_RUNS)
def test_lockstep_matches_zeta_loop_on_random_runs(run):
    name, start, trajectories, horizon, seed = run
    args = (canonical_config(name).chain(), start, trajectories, horizon, seed)
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args)
