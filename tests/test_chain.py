"""Markov chain of the fallible adding machine.

The central oracle re-enacts the digit algorithm itself: enumerate every
way the increment can stop (failure at attempt 1, 2, ..., or full success)
and compute each outcome's state directly from the digits that were zeroed,
*not* from the closed-form q_r - 1 shift the implementation uses.  Exact
rational agreement on every row is then a real cross-check.

Sampling is pinned three ways: chi-square agreement of the per-write
sampler `step` (the fallible counter itself, kept here as the reference
mechanism) and of `simulate`'s moves with the exact row law, agreement of
the vectorized lockstep estimator with a loop of `step`, and bit-level
determinism.
"""

import tracemalloc
from collections import Counter, defaultdict, deque
from fractions import Fraction
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import sparse, stats
from strategies import P_SPECS

from juliaspec.canonical import CANONICAL_NAMES
from juliaspec.chain import (
    _EXACT_LEVELS,
    _STEPS_CAP,
    ChainConfig,
    Recurrence,
    _move_table,
    write_trajectory_csv,
)
from juliaspec.dynamics import FiberedSystem
from juliaspec.errors import (
    BudgetExceededError,
    ConfigError,
    IntegerOverflowError,
    NotIrreducibleError,
    OutOfRangeError,
)
from juliaspec.numeration import BaseSequence
from juliaspec.operator import column0_coefficient
from juliaspec.sequences import (
    constant,
    geometric,
    harmonic,
    periodic,
    prefix_then,
    random_base,
    random_uniform,
    tail_product,
)
from juliaspec.verify import _hit_probability, _mc_vs_exact, run_verify


def oracle_row(cfg: ChainConfig, n: int) -> dict:
    """Outcome distribution of one increment attempt, from first principles."""
    base = cfg.base
    digits = list(base.to_digits(n))
    zeta = next(
        j for j, a in enumerate(digits + [0], start=1) if a != base.digit_base(j) - 1
    )
    out: dict = {}
    prefix = Fraction(1)  # probability that attempts 1..r all succeeded
    zeroed = 0  # value removed by the digit writes performed so far
    for attempt in range(1, zeta + 1):
        p = Fraction(cfg.p_at(attempt))
        mass = prefix * (1 - p)
        if mass:
            target = n - zeroed
            out[target] = out.get(target, Fraction(0)) + mass
        prefix *= p
        if attempt <= len(digits):
            zeroed += digits[attempt - 1] * base.place_value(attempt - 1)
    if prefix:
        out[n + 1] = out.get(n + 1, Fraction(0)) + prefix
    return out


def test_rows_match_the_digit_algorithm_oracle(chains):
    for name, cfg in chains.items():
        q4 = cfg.base.place_value(4)
        for n in range(q4):
            row = cfg.transition_row(n)
            assert row.as_dict() == oracle_row(cfg, n), (name, n)
            assert row.source == n
            assert row.zeta == cfg.base.counter(n)


def test_row_laws_match_the_digit_algorithm_oracle(chains):
    # p_2 = p_4 = 1: the falls that fail at writes 2 and 4 have mass 0 and are left out.
    certain = ChainConfig(BaseSequence(2), prefix_then(["1/2", 1, "2/3", 1], constant("3/4")))
    for name, cfg in {**chains, "certain-writes": certain}.items():
        for zeta in range(1, 21):
            n = cfg.base.place_value(zeta - 1) - 1  # the first row with this ζ
            law = cfg.row_law(zeta)
            assert cfg.base.counter(n) == zeta, (name, zeta)
            assert {n + d: m for d, m in law} == oracle_row(cfg, n), (name, zeta)
            offsets = [d for d, _ in law]
            assert offsets == sorted(set(offsets)) and all(m != 0 for _, m in law), (name, zeta)
            assert cfg.row_law(zeta) is law  # built once per chain
    assert [d for d, _ in certain.row_law(5)] == [1 - 16, 1 - 4, 0, 1]


def test_rows_match_oracle_on_a_random_base_mixture():
    # Seeded random digit bases with exact success probabilities.
    cfg = ChainConfig(BaseSequence(random_base(4, 7)), constant("1/2"))
    for n in range(120):
        assert cfg.transition_row(n).as_dict() == oracle_row(cfg, n)


def test_rows_are_exactly_stochastic(chains):
    for name, cfg in chains.items():
        for n in range(cfg.base.place_value(3)):
            total = cfg.transition_row(n).total()
            assert isinstance(total, Fraction) and total == 1, (name, n)


def test_row_entry_targets_are_sorted_and_distinct(chains):
    for cfg in chains.values():
        for n in range(40):
            targets = [m for m, _ in cfg.transition_row(n).entries]
            assert targets == sorted(targets)
            assert len(targets) == len(set(targets))


def test_probability_to_reads_single_entries(chains):
    cfg = chains["dendrite"]
    row = cfg.transition_row(3)  # digits 1,1 -> counter 3
    assert row.probability_to(4) == Fraction(1, 8)
    assert row.probability_to(3) == Fraction(1, 2)
    assert row.probability_to(2) == Fraction(1, 4)
    assert row.probability_to(0) == Fraction(1, 8)
    assert row.probability_to(1) == 0


def test_self_loop_mass_is_first_failure(chains):
    for cfg in chains.values():
        p1 = cfg.p_at(1)
        for n in range(30):
            assert cfg.transition_row(n).probability_to(n) == 1 - p1


def test_success_prefix_accumulates_exactly(chains):
    cfg = chains["binary-geometric"]
    assert cfg.success_prefix(0) == 1
    assert cfg.success_prefix(1) == Fraction(3, 4)
    assert cfg.success_prefix(2) == Fraction(3, 4) * Fraction(15, 16)
    assert cfg.p_at(2) == Fraction(15, 16)
    with pytest.raises(OutOfRangeError):
        cfg.success_prefix(-1)
    with pytest.raises(OutOfRangeError):
        cfg.p_at(0)


def test_transition_row_overflow_at_capacity():
    cfg = ChainConfig(BaseSequence(2), constant("1/2"))
    with pytest.raises(IntegerOverflowError):
        cfg.transition_row((1 << 64) - 1)  # all digits maximal: carry overflows


def test_the_exact_level_table_stops_at_the_levels_a_64_bit_state_reaches():
    # A 64-bit state has at most 64 digits, and the move table of a path from the
    # capacity reads one level past them, P_65; no index above that is served.  On
    # binary-geometric P_j has the denominator 4^{j(j+1)/2}: success_prefix(1024)
    # once took 6.3 s and 183 MiB.
    cfg = ChainConfig(BaseSequence(2), geometric(1, "1/4"))
    qs, pref = _move_table(cfg, cfg.base.capacity, _STEPS_CAP)
    assert len(qs) == _EXACT_LEVELS + 1 == 66 and pref[-1] > 0
    calls = [
        lambda: cfg.level(66),
        lambda: cfg.p_at(66),
        lambda: cfg.success_prefix(1024),
        lambda: cfg.row_law(66),
        lambda: column0_coefficient(cfg, 65),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(BudgetExceededError, match="exceeds the cap 65"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- harmonic vector ---------------------------------------------------------


@settings(max_examples=40)
@given(P_SPECS)
@example(harmonic(1, 1))  # float(p_2) and 1 - 1/3 differ in the last bit
def test_chain_and_system_read_one_float_per_p(spec):
    # The sampler and the fiber maps of one (d, p) read the same float p_j.
    base = BaseSequence(2)
    chain, sys = ChainConfig(base, spec), FiberedSystem(base, spec)
    assert [chain.p_float(j) for j in range(1, 201)] == [sys.p_float(j) for j in range(1, 201)]


def test_harmonic_vector_is_fixed_by_the_chain_off_zero(chains):
    # Sum over the row's targets m >= 1 of s(n, m) v(m) must give back v(n):
    # the chain restricted to the positive states fixes the block-constant
    # vector exactly, in both the recurrent and the transient regime.
    for name in ("binary-geometric", "dendrite", "mixed23-harmonic"):
        cfg = chains[name]
        for n in range(1, cfg.base.place_value(4)):
            acc = Fraction(0)
            for m, s in cfg.transition_row(n).entries:
                if m >= 1:
                    acc += Fraction(s) * cfg.harmonic_value(m)
            assert acc == cfg.harmonic_value(n), (name, n)


def test_harmonic_vector_is_block_constant(chains):
    cfg = chains["binary-geometric"]
    for level in range(1, 5):
        lo, hi = cfg.base.place_value(level - 1), cfg.base.place_value(level)
        vals = {cfg.harmonic_value(m) for m in range(lo, hi)}
        assert len(vals) == 1
    assert cfg.harmonic_value(1) == 1
    assert cfg.harmonic_value(2) == Fraction(16, 15)  # 1 / p_2
    with pytest.raises(OutOfRangeError):
        cfg.harmonic_value(0)


def test_harmonic_vector_at_the_capacity_ceiling(chains):
    # 2^64 - 1 has 64 binary digits; q_64 = 2^64 itself is past the capacity.
    assert chains["dendrite"].harmonic_value(2**64 - 1) == 2**63
    assert chains["dendrite"].harmonic_value(2**63) == 2**63
    assert chains["dendrite"].harmonic_value(2**63 - 1) == 2**62


def test_harmonic_value_refuses_an_underflowed_product():
    # harmonic_value(m) is p_1 / P_L with P_L from the level table, L = level_of(m).
    # p_j ~ 1e-100: P_3 is a float, P_4 underflows to 0.0.
    cfg = ChainConfig(BaseSequence(2), random_uniform("1e-100", "1e-99", 3))
    assert cfg.harmonic_value(1) == 1.0
    assert cfg.harmonic_value(4) == cfg.p_at(1) / cfg.success_prefix(3) == 4.223463771038372e199
    with pytest.raises(OutOfRangeError):
        cfg.harmonic_value(8)
    # p_j ~ 1e-200: P_2 = p_1 p_2 underflows already, so m = 2 is refused.
    cfg = ChainConfig(BaseSequence(2), random_uniform("1e-200", "1e-199", 3))
    assert cfg.success_prefix(2) == 0.0
    with pytest.raises(OutOfRangeError):
        cfg.harmonic_value(2)
    # P_3 = (1/2) p_2 p_3 is subnormal but not 0; the quotient 1/2 / P_3 leaves the float range.
    cfg = ChainConfig(BaseSequence(2), prefix_then(["1/2"], random_uniform("1e-155", "2e-155", 3)))
    assert 0.0 < cfg.success_prefix(3) < 2.0**-1022
    with pytest.raises(OutOfRangeError, match="m=4"):
        cfg.harmonic_value(4)


def test_return_probability_never_reads_a_float_spec(monkeypatch):
    # Only a random tail makes p̄ a float spec. With p_j = 1 throughout the chain is
    # not irreducible, below 1 it is null recurrent and straddling 1 inconclusive:
    # never transient, the one branch that reads harmonic_value.
    monkeypatch.setattr(ChainConfig, "harmonic_value", None)
    base = BaseSequence(2)
    assert ChainConfig(base, random_uniform("1/2", "9/10", 3)).return_probability(5) == 1.0
    assert ChainConfig(base, prefix_then(["1/3"], random_uniform("1/2", "9/10", 3))).return_probability(5) == 1.0
    with pytest.raises(ConfigError):
        ChainConfig(base, random_uniform("1/2", 1, 3)).return_probability(5)
    with pytest.raises(NotIrreducibleError):
        ChainConfig(base, random_uniform(1, 1, 3)).return_probability(5)


def test_tail_product_lies_below_every_success_prefix(chains):
    # p_j = 1 - 4^-j: 0 < P_J - ∏ p_j = P_J (1 - ∏_{j>J} p_j) <= P_J Σ_{j>J} 4^-j < 4^-J.
    cfg = chains["binary-geometric"]
    limit = tail_product(cfg.p)
    assert isinstance(limit, float)
    gaps = [cfg.success_prefix(J) - Fraction(limit) for J in range(19)]
    assert all(0 < gap < Fraction(1, 4**J) for J, gap in enumerate(gaps)), gaps
    assert gaps == sorted(gaps, reverse=True)
    # A vanishing product is exactly 0.
    assert tail_product(chains["dendrite"].p) == 0


# -- sampling ----------------------------------------------------------------


def step(cfg: ChainConfig, n: int, rng: np.random.Generator) -> int:
    """One transition, drawn digit write by digit write.

    Attempt j succeeds when a fresh uniform is < p_j; the first failure
    after r successful writes aborts at n - (q_r - 1).
    """
    zeta = cfg.base.counter(n)
    for j in range(1, zeta + 1):
        if not rng.random() < cfg.p_float(j):
            return n - (cfg.base.place_value(j - 1) - 1)
    return n + 1


def test_step_sampler_agrees_with_the_row_law(chains):
    draws = 20000
    for name, state in (("dendrite", 3), ("mixed23-harmonic", 5)):
        cfg = chains[name]
        rng = np.random.default_rng(987)
        counts = Counter(step(cfg, state, rng) for _ in range(draws))
        row = cfg.transition_row(state).as_dict()
        assert set(counts) <= set(row)
        targets = sorted(row)
        f_obs = [counts.get(t, 0) for t in targets]
        f_exp = [float(row[t]) * draws for t in targets]
        result = stats.chisquare(f_obs, f_exp)
        assert result.pvalue > 1e-4, (name, state, result)


def test_simulate_moves_follow_the_row_law(chains):
    # Row n's law depends on n only through ζ_n, so by the strong Markov
    # property the moves out of the first visits to the rows with one ζ are
    # independent draws from row_law(ζ).
    draws = 1000
    for name in ("dendrite", "mixed23-harmonic"):
        cfg = chains[name]
        traj = cfg.simulate(start=5, steps=20000, seed=4242)
        moves = defaultdict(list)
        for x, y in zip(traj, traj[1:]):
            moves[cfg.base.counter(x)].append(y - x)
        for zeta in (1, 2, 3, 4):
            law = dict(cfg.row_law(zeta))
            counts = Counter(moves[zeta][:draws])
            assert sum(counts.values()) == draws, (name, zeta)
            assert set(counts) <= set(law)
            targets = sorted(law)
            f_obs = [counts.get(t, 0) for t in targets]
            f_exp = [float(law[t]) * draws for t in targets]
            result = stats.chisquare(f_obs, f_exp)
            assert result.pvalue > 1e-4, (name, zeta, result)


def test_simulate_is_deterministic_and_well_formed(chains):
    cfg = chains["dendrite"]
    a = cfg.simulate(start=5, steps=400, seed=11)
    b = cfg.simulate(start=5, steps=400, seed=11)
    assert a == b
    assert len(a) == 401 and a[0] == 5
    assert all(s >= 0 for s in a)
    # single-step moves only: up by one or down somewhere
    for x, y in zip(a, a[1:]):
        assert y == x + 1 or y <= x
    c = cfg.simulate(start=5, steps=400, seed=12)
    assert c != a
    with pytest.raises(OutOfRangeError):
        cfg.simulate(start=-1, steps=10, seed=0)


def test_simulate_past_the_step_cap_is_refused_before_allocating(chains):
    cfg = chains["dendrite"]
    assert cfg.simulate(start=1, steps=0, seed=0) == [1]
    for steps in (_STEPS_CAP + 1, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                cfg.simulate(start=1, steps=steps, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (steps, peak)


def test_return_statistics_matches_plain_loop_estimate(chains):
    # Two independent estimators of the same return probability.
    cfg = chains["dendrite"]
    horizon = 1500
    lock = cfg.return_statistics(start=1, trajectories=200, horizon=horizon, seed=5)

    rng = np.random.default_rng(909)
    hits = 0
    loops = 120
    for _ in range(loops):
        state = 1
        for _ in range(horizon):
            state = step(cfg, state, rng)
            if state == 0:
                hits += 1
                break
    loop_frac = hits / loops
    assert abs(lock.fraction - loop_frac) < 0.08
    assert lock.fraction > 0.9  # recurrent chain returns fast from state 1


def test_return_statistics_transient_start_high():
    cfg = ChainConfig(BaseSequence(2), geometric(1, "1/2"))
    stats_ = cfg.return_statistics(start=8, trajectories=150, horizon=3000, seed=5)
    # True return probability from q_3 = 8 is about 0.06 here.
    assert stats_.fraction < 0.2
    assert stats_.hits == round(stats_.fraction * stats_.trajectories)


def test_return_statistics_refuses_states_past_int64(chains):
    cfg = chains["dendrite"]
    with pytest.raises(IntegerOverflowError):
        cfg.return_statistics(start=2**63 - 800, trajectories=3, horizon=10, seed=1)
    stats_ = cfg.return_statistics(start=2**62 - 800, trajectories=3, horizon=10, seed=1)
    assert stats_.hits == 0


def test_return_statistics_is_deterministic(chains):
    cfg = chains["binary-geometric"]
    a = cfg.return_statistics(start=8, trajectories=60, horizon=500, seed=77)
    b = cfg.return_statistics(start=8, trajectories=60, horizon=500, seed=77)
    assert (a.hits, a.fraction) == (b.hits, b.fraction)
    c = cfg.return_statistics(start=8, trajectories=60, horizon=500, seed=78)
    assert (a.start, a.trajectories, a.horizon, a.seed) == (8, 60, 500, 77)
    assert 0.0 <= a.ci_low <= a.fraction <= a.ci_high <= 1.0
    assert c.seed == 78
    with pytest.raises(OutOfRangeError):
        cfg.return_statistics(start=1, trajectories=0, horizon=10, seed=0)


def test_immediate_hit_counts_when_starting_at_zero(chains):
    cfg = chains["dendrite"]
    s = cfg.return_statistics(start=0, trajectories=10, horizon=0, seed=0)
    assert s.hits == 10 and s.fraction == 1.0


# -- recurrence classification ----------------------------------------------


def test_recurrence_verdicts(chains):
    assert chains["dendrite"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert chains["binary-p34"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert chains["ternary-p12"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert chains["mixed23-harmonic"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert chains["binary-geometric"].classify_recurrence() is Recurrence.TRANSIENT


def test_recurrence_needs_irreducibility():
    cfg = ChainConfig(BaseSequence(2), constant(1))
    with pytest.raises(NotIrreducibleError):
        cfg.classify_recurrence()


def test_recurrence_inconclusive_for_straddling_random_spec():
    cfg = ChainConfig(BaseSequence(2), random_uniform("1/2", 1, 3))
    assert cfg.classify_recurrence() is Recurrence.INCONCLUSIVE
    low = ChainConfig(BaseSequence(2), random_uniform("1/4", "3/4", 3))
    assert low.classify_recurrence() is Recurrence.NULL_RECURRENT


# -- return probabilities ---------------------------------------------------


@pytest.mark.parametrize(
    "d,gamma,start",
    [(2, "1/2", 8), ((2, 3), "1/3", 2), (3, "1/3", 3)],
    ids=["binary-from-8", "mixed23-from-2", "ternary-from-3"],
)
def test_return_probability_bounds_the_finite_horizon_value(d, gamma, start):
    base = BaseSequence(periodic(d, "d") if isinstance(d, tuple) else d)
    cfg = ChainConfig(base, geometric(1, gamma))
    closed = cfg.return_probability(start)
    within = _hit_probability(cfg, start, 20_000)
    assert within <= closed <= within + 3e-4, (closed, within)


def _csr_hit_probability(cfg, start, horizon):
    """The reference: the whole truncation as a scipy CSR matrix, applied horizon times.

    The matrix is assembled from `transition_row`, one exact row at a time.
    """
    size = start + horizon + 2
    entries = [(n, t, float(v)) for n in range(size) for t, v in cfg.transition_row(n).entries]
    n, t, v = zip(*[e for e in entries if e[1] < size])
    a = sparse.csr_array((v, (n, t)), shape=(size, size))
    v = np.zeros(size)
    v[0] = 1.0
    for _ in range(horizon):
        v = a @ v
        v[0] = 1.0
    return float(v[start])


@pytest.mark.parametrize("name", ["dendrite", "ternary-p12", "mixed23-harmonic", "binary-geometric"])
def test_hit_probability_matches_the_csr_iteration(chains, name):
    cfg = chains[name]
    assert _hit_probability(cfg, 1, 20_000).hex() == _csr_hit_probability(cfg, 1, 20_000).hex()


def test_return_probability_is_block_constant_and_one_when_recurrent(chains):
    cfg = chains["binary-geometric"]
    assert cfg.return_probability(0) == 1.0
    for lo, hi in ((1, 2), (2, 4), (4, 8), (8, 16)):
        assert len({cfg.return_probability(m) for m in range(lo, hi)}) == 1
    # From [8, 16): 1 - u = 1 - ∏_{j>=5} (1 - 4^-j) ≈ Σ_{j>=5} 4^-j = 4^-5 · 4/3.
    assert abs(cfg.return_probability(8) - 4.0**-5 * 4 / 3) < 1e-6
    for name in ("dendrite", "binary-p34", "ternary-p12", "mixed23-harmonic"):
        assert chains[name].return_probability(12345) == 1.0


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_shortest_path_to_zero_is_the_block_distance(chains, name):
    # The lockstep engine drops a trajectory at n once fewer than q_L(n) - n
    # steps are left, n in block L = [q_{L-1}, q_L).  Here the distance comes
    # from the rows alone: one breadth-first search from 0 along reversed
    # positive-mass edges, over the states below a cap.  A path from n < 300
    # that leaves [0, cap) takes at least cap - n > q_L(n) - n steps, so the
    # capped distance is the true one wherever it equals q_L(n) - n.
    cfg = chains[name]
    cap = 2 * cfg.base.place_value(cfg.base.level_of(299))
    into = [[] for _ in range(cap)]
    for m in range(1, cap):
        for target, _ in cfg.transition_row(m).entries:
            if target < cap:
                into[target].append(m)
    dist, queue = {0: 0}, deque([0])
    while queue:
        t = queue.popleft()
        for m in into[t]:
            if m not in dist:
                dist[m] = dist[t] + 1
                queue.append(m)
    for n in range(1, 300):
        assert dist[n] == cfg.base.place_value(cfg.base.level_of(n)) - n, n


def test_return_probability_rejects_void_and_inconclusive_dichotomies(chains):
    with pytest.raises(NotIrreducibleError):
        ChainConfig(BaseSequence(2), constant(1)).return_probability(3)
    with pytest.raises(ConfigError):
        ChainConfig(BaseSequence(2), random_uniform("1/2", 1, 3)).return_probability(3)
    with pytest.raises(OutOfRangeError):
        chains["binary-geometric"].return_probability(-1)


def test_mc_vs_exact_checks_ignore_the_verify_seed(tmp_path):
    # Under --seed 3 a run seeded with 3 gives 2/400 hits from q_3 on
    # binary-geometric, whose Wilson interval [0.0014, 0.0180] misses the exact
    # 0.00130; the checks must run with the canonical seed instead.
    results = {r.name: r for r in run_verify(str(tmp_path), seed=3)}
    q3 = BaseSequence(2).place_value(3)
    for name, start in (("dendrite", 1), ("binary-geometric", q3)):
        got = results[f"mc-vs-exact[{name}]"]
        assert got.ok, got.detail
        assert (got.ok, got.detail) == _mc_vs_exact(name, start, 400, 2000)
        assert "canonical seed 20260823" in got.detail


# -- CSV output --------------------------------------------------------------


def test_trajectory_csv_golden(chains):
    cfg = chains["dendrite"]
    buf = StringIO()
    write_trajectory_csv(cfg, [0, 1, 2], buf)
    assert buf.getvalue() == (
        "step,state,zeta,digits\r\n"
        "0,0,1,\r\n"
        "1,1,2,1\r\n"
        "2,2,1,0;1\r\n"
    )
