"""`ChainConfig.simulate` against a trajectory decided by the carry counter.

`simulate` moves by the Monte Carlo engine's rule: one uniform gives w, the
number of writes that succeed, and the state advances iff n mod q_w ≠ q_w - 1,
with no ζ(n) in sight.  The reference below reads the same uniforms from
default_rng(seed), one at a time, and decides each step from ζ(n) =
`base.counter(n)`: advance iff u <= P_ζ, else fall to n - (q_w - 1), w the
largest r < ζ with P_r >= u.  The two must agree state for state, also where
the int64 engine refuses the start.
"""

import numpy as np
import pytest

from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.chain import ChainConfig
from juliaspec.errors import IntegerOverflowError
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant


def zeta_walk(cfg, start, steps, seed):
    """Trajectory [X_0, ..., X_steps], each step decided by ζ(X_t)."""
    rng = np.random.default_rng(seed)
    traj = [start]
    n = start
    for _ in range(steps):
        u = rng.random()
        zeta = cfg.base.counter(n)
        prefixes = [float(cfg.success_prefix(r)) for r in range(zeta + 1)]  # P_0 = 1, ..., P_ζ
        if u <= prefixes[zeta]:
            n += 1
        else:
            w = max(r for r in range(zeta) if u <= prefixes[r])
            n -= cfg.base.place_value(w) - 1
        traj.append(n)
    return traj


STEPS = (0, 1, 511, 512, 513, 1300)  # within one block of draws, at its edge and across blocks


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_simulate_matches_the_zeta_walk(name):
    cfg = canonical_config(name).chain()
    q4 = cfg.base.place_value(4)
    for start in (0, 1, q4 - 1):  # q_4 - 1: a carry through four digits
        for seed, steps in enumerate(STEPS):
            traj = cfg.simulate(start, steps, seed)
            assert traj == zeta_walk(cfg, start, steps, seed), (start, steps, seed)
            assert len(traj) == steps + 1
            assert all(type(n) is int for n in traj)


def test_simulate_serves_starts_the_int64_engine_refuses():
    cfg = canonical_config("dendrite").chain()
    with pytest.raises(IntegerOverflowError):
        cfg.return_statistics(start=2**63, trajectories=3, horizon=10, seed=1)
    traj = cfg.simulate(2**63, 1300, 20260823)
    assert traj == zeta_walk(cfg, 2**63, 1300, 20260823)
    assert len(set(traj)) > 1


def test_simulate_refuses_iff_the_path_advances_past_the_capacity():
    cfg = ChainConfig(BaseSequence(2), constant(1))  # p ≡ 1: every step advances
    top = cfg.base.capacity
    assert cfg.simulate(top - 2, 2, 0) == [top - 2, top - 1, top]
    assert cfg.simulate(top, 0, 0) == [top]
    for start, steps in ((top - 2, 3), (top, 1), (top, 64)):
        with pytest.raises(IntegerOverflowError, match=f"successor of {top} exceeds 64-bit"):
            cfg.simulate(start, steps, 0)
