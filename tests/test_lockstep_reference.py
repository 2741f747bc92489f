"""The lockstep Monte Carlo engine against the ζ-loop engine it replaced.

`_count_hits_lockstep` decides each step with one modulo (advance iff
n mod q_w ≠ q_w - 1, w the number of successful writes), drops each
trajectory at the end of the block of its first visit to 0 or once 0 is out
of its reach, steps a batch only at its events (1 <= w < v, the steps whose
move needs the modulo; two comparisons of the uniform with the float
prefixes P_1 and P_v mark the self-loops and the sure advances), and walks a
block that starts with at most `_SCALAR_MAX` live trajectories as Python
ints.  The reference below computes ζ(n) level by level and steps every
trajectory to the horizon.  Both read the same per-trajectory streams, so
every hit count must be identical.  `zeta_loop_blocks` counts, from the
reference, which blocks the engine cuts and walks, and `zeta_loop_visits`
when each trajectory is at 0, so a case can state its path.  The float
prefixes that the comparisons read are pinned nonincreasing, and
`_events` is pinned to `_walk` row by row on blocks of tied uniforms.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import LOCKSTEP_RUNS, P_SPECS

import juliaspec.chain as chain_mod
from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.chain import _SCALAR_MAX, ChainConfig, _count_hits_lockstep, _events, _walk
from juliaspec.errors import IntegerOverflowError
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant, prefix_then


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


def zeta_loop_path(cfg, start, trajectories, horizon, seed):
    """Yield the states at t = 0, 1, ..., horizon of a ζ-loop run that steps
    every trajectory to the horizon, past its visits to 0.  Same streams and
    step as `zeta_loop_hits`."""
    qs = [1]
    while qs[-1] <= start + horizon + 2:
        qs.append(qs[-1] * cfg.base.digit_base(len(qs)))
    qs = np.array(qs, dtype=np.int64)
    pref = np.array([float(cfg.success_prefix(r)) for r in range(len(qs))])
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(trajectories)]
    block = 512
    states = np.full(trajectories, start, dtype=np.int64)
    yield states
    for t0 in range(0, horizon, block):
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
            yield states


def zeta_loop_blocks(cfg, start, trajectories, horizon, seed):
    """(unhit, live) at each 512-step block start t0 of a ζ-loop run.

    unhit counts the trajectories that have not visited 0 before t0; live
    those of them within reach of 0: q_L - n <= horizon - t0 for n in block
    L = [q_{L-1}, q_L), the fewest steps from n to 0 (checked on the rows in
    `test_shortest_path_to_zero_is_the_block_distance`).
    """
    base = cfg.base
    hit = np.zeros(trajectories, dtype=bool)
    counts = []
    for t, states in enumerate(zeta_loop_path(cfg, start, trajectories, horizon, seed)):
        hit |= states == 0
        if t % 512 == 0 and t < horizon:
            reach = [
                n > 0 and base.place_value(base.level_of(n)) - n <= horizon - t
                for n in states.tolist()
            ]
            counts.append((int((~hit).sum()), int((~hit & np.array(reach)).sum())))
    return counts


def zeta_loop_visits(cfg, start, trajectories, horizon, seed):
    """The steps t >= 1 at which each trajectory of a ζ-loop run is at 0."""
    visits = [[] for _ in range(trajectories)]
    for t, states in enumerate(zeta_loop_path(cfg, start, trajectories, horizon, seed)):
        for k in np.flatnonzero(states == 0).tolist():
            if t:
                visits[k].append(t)
    return visits


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


def test_lockstep_overflow_refusal_with_a_batch():
    cfg = canonical_config("binary-p34").chain()
    assert 40 > _SCALAR_MAX
    assert _count_hits_lockstep(cfg, 2**62 - 800, 40, 797, 1) == 0
    with pytest.raises(IntegerOverflowError):
        _count_hits_lockstep(cfg, 2**62 - 800, 40, 798, 1)
    # 0 is q_62 - n = 800 steps away, so the cut drops every trajectory before
    # its first draw, in a batch as with 3; `test_events_match_the_walk` steps
    # states at the edge through the batch path.
    assert zeta_loop_blocks(cfg, 2**62 - 800, 40, 797, 1)[0] == (40, 0)


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


def test_repeated_spawns_continue_the_child_numbering():
    # Trajectories run a group at a time from one root: trajectory k keeps child k.
    whole = np.random.SeedSequence(5).spawn(200)
    root = np.random.SeedSequence(5)
    parts = root.spawn(64) + root.spawn(64) + root.spawn(72)
    assert [c.spawn_key for c in parts] == [c.spawn_key for c in whole]
    for a, b in zip(parts, whole):
        assert np.array_equal(np.random.default_rng(a).random(4), np.random.default_rng(b).random(4))


@pytest.mark.parametrize("group", [7, 64])
def test_hit_counts_do_not_depend_on_the_group_size(monkeypatch, group):
    paths = []
    monkeypatch.setattr(chain_mod, "_events", lambda *a: paths.append("batch") or _events(*a))
    monkeypatch.setattr(chain_mod, "_walk", lambda *a: paths.append("scalar") or _walk(*a))
    runs = [(canonical_config(name).chain(), start, 200, 2000, 11) for name in CANONICAL_NAMES for start in (1, 8)]
    want = [_count_hits_lockstep(*run) for run in runs]
    assert set(paths) == {"batch", "scalar"}
    paths.clear()
    monkeypatch.setattr(chain_mod, "_GROUP", group)
    assert [_count_hits_lockstep(*run) for run in runs] == want
    assert set(paths) == ({"scalar"} if group <= _SCALAR_MAX else {"batch", "scalar"})


def test_generators_are_made_a_group_at_a_time():
    cfg = canonical_config("dendrite").chain()
    cfg.success_prefix(20)  # the level table, so that only the run is traced
    tracemalloc.start()
    try:
        hits = _count_hits_lockstep(cfg, 1, 20_000, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A generator and its SeedSequence child take about 0.9 KB: all 20,000 at once peak near 20 MiB.
    assert peak < 8 * 2**20, peak
    assert 0 < hits < 20_000


@settings(max_examples=40)
@given(LOCKSTEP_RUNS)
def test_lockstep_matches_zeta_loop_on_random_runs(run):
    name, start, trajectories, horizon, seed = run
    args = (canonical_config(name).chain(), start, trajectories, horizon, seed)
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args)


def test_hit_mid_block_then_more_events_counts_once():
    # Dendrite from 1: the batch of 40 steps one block, and trajectories that
    # visit 0 early fall back to it later in the same block.
    cfg = canonical_config("dendrite").chain()
    args = (cfg, 1, 40, 512, 20260823)
    visits = zeta_loop_visits(*args)
    assert 40 > _SCALAR_MAX
    assert any(len(v) >= 2 and v[0] < 256 for v in visits), visits
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args) == sum(map(bool, visits))


def test_blocks_without_events():
    # p_2 = ... = p_12 = 1: P_v = P_1 for v <= 12, so while every state is
    # below q_12 - 512 = 3584 the cap v (q_v > n + 512) is at most 12 and a
    # block has no event at all, only self-loops and advances.  The states
    # climb for seven such blocks of 40 live trajectories, then reach block
    # [2048, 4096), where the fall from 4095 to 0 has mass.
    cfg = ChainConfig(BaseSequence(2), prefix_then([Fraction(1, 2)] + [1] * 11, constant("1/2")))
    assert float(cfg.success_prefix(12)) == float(cfg.success_prefix(1))
    args = (cfg, 1, 40, 9000, 1)
    live = [n for _, n in zeta_loop_blocks(*args)]
    assert min(live[:7]) == 40 > _SCALAR_MAX, live
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args) == 22


def test_hit_on_the_last_step_of_a_ragged_horizon():
    # Dendrite from 8, seed 1: one trajectory first visits 0 at step 1716,
    # in a last block of 180 steps that starts with 54 live trajectories.
    cfg = canonical_config("dendrite").chain()
    args = (cfg, 8, 200, 1716, 1)
    assert 1716 % 512 == 180
    assert zeta_loop_blocks(*args)[-1][1] > _SCALAR_MAX
    assert 1716 in [v[0] for v in zeta_loop_visits(*args) if v]
    assert _count_hits_lockstep(*args) == zeta_loop_hits(*args) == 147
    shorter = (cfg, 8, 200, 1715, 1)
    assert _count_hits_lockstep(*shorter) == zeta_loop_hits(*shorter) == 146


# -- the float shortcut ------------------------------------------------------


def _prefixes(cfg, top=63):
    return np.array([float(cfg.success_prefix(r)) for r in range(top + 1)])


def test_float_prefixes_are_nonincreasing_on_the_canonicals():
    for name in CANONICAL_NAMES:
        pref = _prefixes(canonical_config(name).chain())
        assert (pref[1:] <= pref[:-1]).all(), name


@settings(max_examples=60)
@given(P_SPECS)
def test_float_prefixes_are_nonincreasing(spec):
    pref = _prefixes(ChainConfig(BaseSequence(2), spec))
    assert (pref[1:] <= pref[:-1]).all()


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_step_classes_are_the_searchsorted_ones(name):
    # w = 0 iff u > P_1, and w >= v iff u <= P_v, a tie counting as w >= v.
    pref = _prefixes(canonical_config(name).chain())
    ties = pref[1:]
    u = np.concatenate(
        [np.random.default_rng(5).random(20000), ties, np.nextafter(ties, 0), np.nextafter(ties, 1)]
    )
    w = np.searchsorted(-pref[1:], -u, side="right")
    assert ((u > pref[1]) == (w == 0)).all()
    for v in range(1, 64):
        assert ((u <= pref[v]) == (w >= v)).all(), v


class _Preset:
    """Stands in for a trajectory's generator: draws the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, out):
        out[:] = self.uniforms
        return out


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_events_match_the_walk(name):
    """`_events` against `_walk` on each row of a block: uniforms drawn from
    the float prefixes, their neighbours and at random, from states on every
    level up to 800 below the top place value that fits int64.  A row that
    starts at q_L - 1 first draws u = P_L, the tie that falls to 0."""
    cfg = canonical_config(name).chain()
    qs = [1]
    while qs[-1] * cfg.base.digit_base(len(qs)) <= np.iinfo(np.int64).max:
        qs.append(qs[-1] * cfg.base.digit_base(len(qs)))
    edge = qs[-1] - 800
    low = sorted({q + d for q in qs[1:-1] for d in (-2, -1, 0, 1) if 1 <= q + d <= edge})
    rng = np.random.default_rng(19)
    hits = 0
    for steps in (512, 37, 1):
        states = np.array(low + [edge - 512, edge - steps, edge], dtype=np.int64)
        jmax = next(j for j, q in enumerate(qs) if q > edge + steps + 2)
        pref = np.array([float(cfg.success_prefix(r)) for r in range(jmax + 1)])
        ties = np.concatenate([pref[1:], np.nextafter(pref[1:], 0), np.nextafter(pref[1:], 1)])
        shape = (len(states), steps)
        uniforms = np.where(
            rng.random(shape) < 0.5, rng.random(shape), rng.choice(ties[ties < 1], size=shape)
        )
        for row, n in enumerate(states.tolist()):
            if n + 1 in qs[1:jmax]:
                uniforms[row, 0] = pref[qs.index(n + 1)]
        gens = [_Preset(u) for u in uniforms]
        got = _events(states, gens, steps, np.array(qs[: jmax + 1], dtype=np.int64), pref)
        want = [
            _walk(n, np.searchsorted(-pref[1:], -u, side="right").tolist(), qs[: jmax + 1])
            for n, u in zip(states.tolist(), uniforms)
        ]
        assert got.tolist() == want, steps
        hits += want.count(0)
    assert hits
