"""The stochastic adding machine as a Markov chain on the nonnegative integers.

Incrementing n deterministically would zero the ζ_n - 1 maximal low digits and
then raise digit ζ_n by one.  The fallible counter attempts those ζ_n digit
writes in order, each succeeding independently with probability p_j; the first
failure aborts the procedure, leaving the earlier writes in place.  The result
is a Markov chain with transition probabilities

    s(n, n+1)            = p_1 ··· p_{ζ_n}
    s(n, n - (q_r - 1))  = (1 - p_{r+1}) · p_1 ··· p_r     (0 <= r < ζ_n)

(the r = 0 case is the self-loop with mass 1 - p_1; Σ_{j<=r} (d_j - 1) q_{j-1}
telescopes to q_r - 1).  Rows are exact rationals whenever the probability
spec is rational, and zero-probability entries are omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import inf, sqrt

import numpy as np

from .errors import (
    ConfigError,
    IntegerOverflowError,
    NotIrreducibleError,
    OutOfRangeError,
    check_int,
)
from .numeration import BaseSequence
from .sequences import ProductVerdict, SequenceSpec, irreducible, product_verdict, tail_product

__all__ = [
    "ChainConfig",
    "TransitionRow",
    "Recurrence",
    "ReturnStatistics",
    "write_trajectory_csv",
]


class Recurrence(Enum):
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TransitionRow:
    """One row of the transition matrix: sorted (target, probability) pairs."""

    source: int
    zeta: int
    entries: tuple[tuple[int, Fraction | float], ...]

    def as_dict(self) -> dict:
        return dict(self.entries)

    def probability_to(self, target: int):
        for m, s in self.entries:
            if m == target:
                return s
        return Fraction(0)

    def total(self):
        """Row sum (exactly 1 for exact rows)."""
        return sum(s for _, s in self.entries)


@dataclass(frozen=True)
class ReturnStatistics:
    """Monte Carlo summary of visits to state 0 within a horizon."""

    start: int
    trajectories: int
    horizon: int
    seed: int
    hits: int
    fraction: float
    ci_low: float
    ci_high: float


class ChainConfig:
    """Adding-machine chain over a base sequence d̄ with success spec p̄."""

    def __init__(self, base: BaseSequence, p: SequenceSpec):
        if p.codomain != "p":
            raise OutOfRangeError("ChainConfig needs a probability spec (codomain 'p')")
        self.base = base
        self.p = p
        self._levels: list[tuple] = []
        self._laws: list[tuple] = [()]  # row_law(ζ) at index ζ; no row has ζ = 0

    # -- parameter access ---------------------------------------------------

    def level(self, j: int) -> tuple:
        """(p_j, P_j = p_1···p_j, (1 - p_j) P_{j-1}) for 1 <= j <= `_EXACT_LEVELS`.

        All three are exact where the spec is rational; the third is the mass
        of the move that fails at write j.  Every partial product of the
        program is a P_j of this table.  On a geometric spec P_j has the
        denominator 4^{j(j+1)/2}, so an index above the cap is refused
        (BudgetExceededError) before any Fraction is built.
        """
        j = check_int("probability index", j, 1, _EXACT_LEVELS)
        while len(self._levels) < j:
            p = self.p.value_at(len(self._levels) + 1)
            prev = self._levels[-1][1] if self._levels else Fraction(1)
            self._levels.append((p, prev * p, (1 - p) * prev))
        return self._levels[j - 1]

    def p_at(self, j: int):
        """p_j, exact where the spec is rational."""
        return self.level(j)[0]

    def p_float(self, j: int) -> float:
        """p_j as the float `SequenceSpec.float_at(j)`, the one the fibered system reads."""
        return self.p.float_at(j)

    def success_prefix(self, r: int):
        """∏_{j<=r} p_j (empty product 1), exact where possible."""
        r = check_int("prefix length", r, 0, _EXACT_LEVELS)
        return self.level(r)[1] if r else Fraction(1)

    # -- transition structure ----------------------------------------------

    def row_law(self, zeta: int) -> tuple[tuple[int, Fraction | float], ...]:
        """The (target - n, mass) pairs of every row n with ζ_n = zeta.

        In ascending target order: the falls 1 - q_r for r = zeta - 1 down to
        0, then the move up +1 with mass P_zeta; zero masses are omitted.
        Law ζ is the fall of level ζ - 1, then law ζ - 1 without its move up,
        then the move up P_ζ.  Each law is built once per chain.
        """
        zeta = check_int("zeta", zeta, 1, _EXACT_LEVELS)
        for z in range(len(self._laws), zeta + 1):
            _, up, fall = self.level(z)
            below = self._laws[-1]
            law = ((1 - self.base.place_value(z - 1), fall),) if fall else ()
            law += below[:-1] if below and below[-1][0] == 1 else below  # law z - 1 without its move up
            self._laws.append(law + ((1, up),) if up else law)
        return self._laws[zeta]

    def transition_row(self, n: int) -> TransitionRow:
        """Row n of the transition matrix: law ζ_n shifted by n."""
        n = self.base._check_state(n)
        zeta = self.base.counter(n)
        law = self.row_law(zeta)
        if law[-1][0] == 1 and n + 1 > self.base.capacity:
            raise IntegerOverflowError(
                f"successor of {n} exceeds 64-bit capacity"
            )
        return TransitionRow(source=n, zeta=zeta, entries=tuple((n + d, s) for d, s in law))

    # -- sampling -----------------------------------------------------------

    def simulate(self, start: int, steps: int, seed: int) -> list[int]:
        """Trajectory [X_0, ..., X_steps] from a seeded generator.

        Step t reads the t-th uniform of default_rng(seed) and moves by the
        Monte Carlo engine's rule (see `_count_hits_lockstep`): w, the number
        of writes that succeed, from the first-failure inverse CDF, then the
        advance to n + 1 iff n mod q_w ≠ q_w - 1, else the fall to
        n + 1 - q_w.  States are Python ints, so a path may run up to the
        capacity; IntegerOverflowError is raised iff it advances past it.
        More than `_STEPS_CAP` steps are refused (BudgetExceededError)
        before anything is allocated.
        """
        steps = check_int("steps", steps, 0, _STEPS_CAP)
        start = self.base._check_state(start, "start state")
        rng = np.random.default_rng(check_int("seed", seed, 0))
        qs, pref = _move_table(self, start, steps)
        neg_pref = -pref[1:]
        traj = [start]
        for t0 in range(0, steps, _BLOCK):  # a block's uniforms at a time: the same stream
            u = rng.random(min(_BLOCK, steps - t0))
            for w in np.searchsorted(neg_pref, -u, side="right").tolist():
                traj.append(_walk(traj[-1], (w,), qs))  # one step
        if max(traj) > self.base.capacity:  # states rise by at most 1 per step
            raise IntegerOverflowError(
                f"successor of {self.base.capacity} exceeds 64-bit capacity"
            )
        return traj

    def return_statistics(
        self, start: int, trajectories: int, horizon: int, seed: int
    ) -> ReturnStatistics:
        """Fraction of independent trajectories that visit 0 within the horizon.

        Trajectory k draws its uniforms from the k-th spawned child of
        SeedSequence(seed), so each path is a pure function of (seed, k) and
        the result does not depend on scheduling or batch layout.  The engine
        reads each step through the first-failure inverse CDF: one uniform
        gives the number w of writes that succeed, and the step advances iff
        ζ(n) <= w ⟺ n mod q_w ≠ q_w - 1 (the low w digits of n spell q_w - 1
        exactly when all are maximal), and falls to n + 1 - q_w otherwise.
        Two comparisons of the uniform mark the self-loops (w = 0) and the
        steps that must advance (q_w above every state of the block), so a
        batch of trajectories is stepped only at its events, the steps that
        need the modulo.  That induces exactly the row law, and `simulate`
        walks the same rule one step at a time.  A trajectory
        stops at its first visit to 0, or once too few steps are left to
        reach 0 from its block.  `return_probability` is the value the
        fraction tends to as the horizon grows.
        """
        trajectories = check_int("trajectories", trajectories, 1)
        horizon = check_int("horizon", horizon, 0)
        seed = check_int("seed", seed, 0)
        start = self.base._check_state(start, "start state")
        hits = _count_hits_lockstep(self, start, trajectories, horizon, seed)
        frac = hits / trajectories
        lo, hi = _wilson_interval(hits, trajectories)
        return ReturnStatistics(
            start=start,
            trajectories=trajectories,
            horizon=horizon,
            seed=seed,
            hits=hits,
            fraction=frac,
            ci_low=lo,
            ci_high=hi,
        )

    # -- classification -----------------------------------------------------

    def classify_recurrence(self) -> Recurrence:
        """Null recurrent iff ∏ p_j = 0, transient iff ∏ p_j > 0.

        Requires irreducibility (p_j < 1 infinitely often); otherwise the
        dichotomy is void and NotIrreducibleError is raised.
        """
        if not irreducible(self.p):
            raise NotIrreducibleError("chain is not irreducible (p_j = 1 eventually)")
        verdict = product_verdict(self.p)
        if verdict is ProductVerdict.TENDS_TO_ZERO:
            return Recurrence.NULL_RECURRENT
        if verdict is ProductVerdict.CONVERGES_POSITIVE:
            return Recurrence.TRANSIENT
        return Recurrence.INCONCLUSIVE

    def harmonic_value(self, m: int):
        """Entry m >= 1 of the harmonic vector fixed by the chain off state 0.

        Piecewise constant on the blocks [q_{L-1}, q_L): equal to
        1 / (p_2 ··· p_L) = p_1 / P_L there, with P_L from the level table,
        and 1 on [1, q_1).  In the transient regime this is (up to scale)
        the probability of never visiting 0.  OutOfRangeError when a float
        quotient p_1 / P_L leaves the float range.
        """
        level = self.base.level_of(check_int("m", m, 1))  # q_{level-1} <= m < q_level
        prefix = self.success_prefix(level)
        value = self.p_at(1) / prefix if prefix else inf
        if value == inf:
            raise OutOfRangeError(f"harmonic value at m={m} overflows: p_1 / P_{level} leaves the float range")
        return value

    def return_probability(self, m: int) -> float:
        """Probability that the chain started at m ever visits 0 (time 0 counts).

        It is 1 when the chain is null recurrent.  When it is transient it is
        1 - u(m), with u(m) the probability of never visiting 0:

            u(m) = ∏_{j >= L+1} p_j = harmonic_value(m) · ∏_{j >= 2} p_j
            for m in block L = [q_{L-1}, q_L).

        Derivation.  Block L holds the states whose top nonzero digit sits at
        place L - 1.  A failure after r < ζ(n) successful writes clears only the
        r low digits, and an advance stays in the block unless n = q_L - 1, the
        one state of the block whose L low digits are all maximal (ζ = L + 1).
        From q_L - 1, the move that fails write L + 1 clears every digit and
        lands on 0, with mass (1 - p_{L+1}) P_L; the advance lands on q_L, the
        bottom of block L + 1, with mass P_{L+1}; a failure after r < L writes
        lands on q_L - q_r >= q_{L-1}, inside the block.  Every p_j > 0, so the
        chain reaches q_L - 1 from anywhere in the finite block with probability
        1, and leaves it with probability P_L > 0 at each visit; given that it
        leaves, it moves up with probability P_{L+1} / P_L = p_{L+1}.  By the
        strong Markov property at each exit, avoiding 0 forever from block L
        means moving up out of blocks L, L + 1, ... in turn, which has
        probability ∏_{j >= L+1} p_j.  That tail is 0 exactly when ∏ p_j = 0,
        the null-recurrent case; in the transient case it is ∏ p_j / P_L, and
        1 / P_L = harmonic_value(m) / p_1.

        Raises NotIrreducibleError when the dichotomy is void and ConfigError
        when the product criterion is inconclusive.  The transient value is a
        float: the limit ∏ p_j is one.
        """
        recurrence = self.classify_recurrence()
        if recurrence is Recurrence.INCONCLUSIVE:
            raise ConfigError("recurrence is inconclusive for this spec: no return probability")
        self.base._check_state(m, "start state")
        if m == 0 or recurrence is Recurrence.NULL_RECURRENT:
            return 1.0
        return 1.0 - float(self.harmonic_value(m)) * (tail_product(self.p) / self.p_float(1))


def _check_model(cfg: ChainConfig, sys) -> None:
    """Refuse a fibered system built from another (d̄, p̄) than the chain."""
    if cfg.base != sys.base or cfg.p != sys.p:
        raise OutOfRangeError("the chain and the fibered system have different (d, p)")


def _wilson_interval(hits: int, n: int):
    """Wilson 95% score interval for a binomial proportion."""
    z = 1.959963984540054  # the 97.5% quantile of the standard normal
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


#: Levels of the exact table: a 64-bit state has at most 64 digits, so ζ <= 65,
#: and `_move_table` reads one level past the top (q_65 > start + steps + 2).
_EXACT_LEVELS = 65
_BLOCK = 512  # steps whose uniforms a trajectory draws at once
_STEPS_CAP = 1 << 20  # steps of one `simulate` trajectory, which is held whole as Python ints
_CSV_BLOCK = 1 << 12  # rows per write of `write_trajectory_csv`
_SCALAR_MAX = 32  # a block with at most this many live trajectories steps them as ints
_DRAW_ROWS = 64  # trajectories drawn and classified at a time: bounds a block's temporaries
_GROUP = 4096  # trajectories spawned and run at a time: bounds the generators held at once


def _move_table(cfg: ChainConfig, start: int, steps: int) -> tuple[list[int], np.ndarray]:
    """The place values q_0..q_jmax, jmax the first level with q_jmax above
    start + steps + 2, and the float prefixes P_0..P_jmax (P_r = p_1···p_r):
    the table of the move rule for paths of `steps` steps from `start`."""
    bound = start + steps + 2  # states move up by at most 1 per step
    qs = [1]
    while qs[-1] <= bound:
        qs.append(qs[-1] * cfg.base.digit_base(len(qs)))
    return qs, np.array([float(cfg.success_prefix(r)) for r in range(len(qs))])


def _count_hits_lockstep(
    cfg: ChainConfig, start: int, trajectories: int, horizon: int, seed: int
) -> int:
    """Vectorized count of trajectories visiting 0, per-trajectory substreams.

    Each step draws one uniform u and reads off w, the number of writes that
    succeed: the largest r with P_r = p_1···p_r >= u, so P(w >= r) = P_r (the
    float prefixes are nonincreasing, as the exact ones are).  The move is
    decided by one modulo, with no ζ(n) in sight:

        ζ(n) <= w  ⟺  n mod q_w ≠ q_w - 1.

    Proof: n mod q_w is the number spelled by the low w digits of n, and
    Σ_{j<w} (d_{j+1} - 1) q_j telescopes to q_w - 1, so n mod q_w = q_w - 1
    exactly when those w digits are all maximal, i.e. when ζ(n) > w.  The
    increment needs its ζ(n) writes, so the chain advances to n + 1 iff
    ζ(n) <= w, and otherwise the (w+1)-th write fails after w successes and
    the chain falls to n - (q_w - 1) = n + 1 - q_w.  Both branches read the
    same q_w.  The search caps w at the top level jmax with q_jmax > start +
    horizon + 2; every state reached stays below q_jmax - 1, where
    n mod q_jmax = n ≠ q_jmax - 1, so the cap never turns an advance into a fall.

    At each 512-step block start, every live trajectory draws the uniforms of
    the whole block from its own stream.  A trajectory leaves the batch at
    the end of the block in which it first visits 0, and its stream is never
    read again, so a hit count does not depend on when the others stop.
    Nor does it depend on the grouping: trajectories are spawned and run
    `_GROUP` at a time, each group to its end before the next, and repeated
    `spawn` calls on the one root SeedSequence continue its child numbering,
    so trajectory k still draws from child k.  Only one group's generators
    are held at once.

    Three step classes.  Let a trajectory start a block of s steps at n.
    Every state it holds before a step of the block is at most n + s - 1, so
    each step of the block is one of:
      - w = 0 (u > P_1): q_0 = 1 divides n' + 1 and the fall lands on n',
        the self-loop; the state stays put.
      - w >= v (u <= P_v), v the first level with q_v > n + s: then
        0 < n' + 1 <= n + s < q_v <= q_w, so q_w cannot divide n' + 1, and
        the step is an advance.  This is the cap argument above, block by
        block; v <= jmax, so the capped w sorts the same way.
      - 1 <= w < v (P_v < u <= P_1): an event, the only steps that need the
        modulo.
    Two array comparisons, against P_1 and against each row's P_v, sort a
    block's steps; `_events` finds w for the events alone, lays each row's
    events out by rank with the advances since the row's previous event (a
    cumulative sum along the row), and runs the move rule once per event rank
    across the rows that have that many events: n += gap + 1, then n -= q_w
    where q_w | n.  A row ends the block at its last event's state plus the
    advances after it.  Only a fall reaches 0, so a row visits 0 iff its
    state is 0 after one of its events; the events after that move it on
    within [0, q_jmax) and are not read.  A block takes as many ranks as its
    busiest row has events: on binary-geometric, where u falls in
    (P_v, P_1] with probability at most P_1 - ∏ p_j ≈ 0.06, some 50 of 512.

    Reachability cut.  Let n >= 1 sit in block L, q_{L-1} <= n < q_L.  A
    fall n + 1 - q_w (q_w | n + 1) with w < L stays in the block: q_w divides
    q_{L-1} and n + 1 > q_{L-1}, so n + 1 >= q_{L-1} + q_w.  With w >= L,
    q_w | n + 1 <= q_L <= q_w forces n + 1 = q_w, that is w = L and
    n = q_L - 1, and the fall lands on 0: the one move to 0 from the block.
    States rise by at most 1 per step, so a trajectory at n needs at least
    q_L - n more steps to reach 0 (tight where those moves have mass:
    q_L - n - 1 advances, then that fall).  So at the start of each block, with R steps left, every
    trajectory with q_L(n) - n > R is a non-hit; it leaves the batch, and
    its stream is never read again, which by the remark above leaves every
    other count as it was.  A transient run ends once all climb out of reach.

    Scalar stragglers.  An event rank costs a handful of numpy calls
    whatever the batch size, some µs, against a fraction of a µs per
    trajectory-step for Python ints.  A null-recurrent run spends most of
    its steps on a few stragglers, so a block that starts with at most
    `_SCALAR_MAX` live trajectories walks each one through its row of w,
    with the same q_w and the same move rule.
    """
    qs_list, pref = _move_table(cfg, start, horizon)
    if qs_list[-1] > np.iinfo(np.int64).max:
        raise IntegerOverflowError(
            f"place value q_{len(qs_list) - 1} above start {start} + horizon {horizon} "
            "does not fit the 64-bit signed lockstep engine"
        )
    qs = np.array(qs_list, dtype=np.int64)
    neg_pref = -pref[1:]  # ascending; searchsorted counts the prefixes P_1..P_jmax >= u
    if start == 0:
        return trajectories

    root = np.random.SeedSequence(seed)
    hits = 0
    for first in range(0, trajectories, _GROUP):
        gens = [np.random.default_rng(c) for c in root.spawn(min(_GROUP, trajectories - first))]
        states = np.full(len(gens), start, dtype=np.int64)
        hits += len(gens)  # less those cut out of reach and those still out at the horizon
        for t0 in range(0, horizon, _BLOCK):
            reach = qs[qs.searchsorted(states, side="right")] - states <= horizon - t0
            if not reach.all():
                hits -= len(gens) - int(reach.sum())
                states = states[reach]
                gens = [g for g, keep in zip(gens, reach) if keep]
            if not gens:
                break
            steps = min(_BLOCK, horizon - t0)
            if len(gens) <= _SCALAR_MAX:
                ends = [
                    _walk(n, np.searchsorted(neg_pref, -g.random(steps), side="right").tolist(), qs_list)
                    for n, g in zip(states.tolist(), gens)
                ]
                ends = np.array(ends, dtype=np.int64)
            else:
                ends = _events(states, gens, steps, qs, pref)
            live = ends != 0
            states = ends[live]
            gens = [g for g, keep in zip(gens, live) if keep]
        hits -= len(gens)
        del gens  # this group's generators go before the next group's are made
    return hits


def _events(states, gens, steps, qs, pref):
    """One block of the batch: each trajectory draws its uniforms, and only its
    events are stepped (see `_count_hits_lockstep`); each row's end state, or
    0 if it visits 0."""
    m = len(gens)
    caps = pref[qs.searchsorted(states + steps, side="right")]  # P_v, q_v > n + steps
    neg_pref = -pref[1:]
    uniforms = np.empty((min(m, _DRAW_ROWS), steps))
    writes, before, counts, advances = [], [], [], []
    for k in range(0, m, _DRAW_ROWS):
        u = uniforms[: min(_DRAW_ROWS, m - k)]
        for g, row in zip(gens[k : k + _DRAW_ROWS], u):
            g.random(out=row)
        adv = u <= caps[k : k + _DRAW_ROWS, None]  # w >= v
        event = u <= pref[1]
        event ^= adv  # 1 <= w < v; adv is a subset, as P_v <= P_1
        at = np.flatnonzero(event)  # row by row, in step order
        w = np.searchsorted(neg_pref, -u.take(at), side="right")
        writes.append(w.astype(np.uint8))  # q_63 >= 2^63 bounds w by 63
        advanced = np.cumsum(adv, axis=1, dtype=np.int16)
        before.append(advanced.take(at))  # advances before each event
        advances.append(advanced[:, -1])
        counts.append(event.sum(axis=1))

    # Slot [k, r] holds the event of rank r of row k.
    counts = np.concatenate(counts)
    top = int(counts.max())
    ranked = np.arange(top) < counts[:, None]
    gaps = np.zeros((m, top), dtype=np.int16)
    gaps[ranked] = np.concatenate(before)
    tail = np.concatenate(advances) - gaps.max(axis=1, initial=0)  # advances after the last event
    gaps = np.diff(gaps, axis=1, prepend=np.int16(0))  # advances since the previous event
    gaps += 1  # and the event
    w = np.zeros((m, top), dtype=np.uint8)
    w[ranked] = np.concatenate(writes)

    # Rows with the most events first: rank r steps the rows [0, active[r]).
    order = np.argsort(-counts, kind="stable")
    active = np.searchsorted(-counts[order], -np.arange(top), side="left")
    n = states[order]
    low = n.copy()  # the lowest state after an event
    for k, jump, ws in zip(active.tolist(), gaps[order].T, w[order].T):
        x, q, lo = n[:k], qs.take(ws[:k]), low[:k]
        x += jump[:k]
        x -= q * (x % q == 0)  # x = n + 1 ≡ 0 (mod q_w): the fall
        np.minimum(lo, x, out=lo)
    n += tail[order]
    n[low == 0] = 0
    ends = np.empty_like(n)
    ends[order] = n
    return ends


def _walk(n: int, writes: list[int], qs: list[int]) -> int:
    """The lockstep move rule on Python ints, for one trajectory through its
    w of one block; 0 if it visits 0 (and stops there)."""
    for w in writes:
        q = qs[w]
        n += 1
        if n % q == 0:
            n -= q
            if not n:
                return 0
    return n


def write_trajectory_csv(cfg: ChainConfig, trajectory, fileobj) -> None:
    """Write (step, state, zeta, digits) rows; digits little-endian, ';'-joined.

    Each distinct state's `state,zeta,digits` is formatted once.  No field
    holds a delimiter, a quote or a line break, so the bytes are those of the
    csv module's default dialect, `\\r\\n` line ends included.  Rows are
    written `_CSV_BLOCK` at a time, and the memo of formatted states is
    emptied when it outgrows a block, so the writer's memory does not grow
    with the trajectory.
    """
    base = cfg.base
    tails = {}
    fileobj.write("step,state,zeta,digits\r\n")
    steps = enumerate(trajectory)
    while block := list(islice(steps, _CSV_BLOCK)):
        if len(tails) > _CSV_BLOCK:
            tails.clear()
        rows = []
        for t, n in block:
            key = (type(n), n)  # a bool is refused, not read as the int it equals
            tail = tails.get(key)
            if tail is None:
                digits = ";".join(map(str, base.to_digits(n)))
                tail = tails[key] = f"{n},{base.counter(n)},{digits}\r\n"
            rows.append(f"{t},{tail}")
        fileobj.write("".join(rows))
