"""Hypothesis strategies shared by the property tests: valid specs of p̄ and
d̄, and small Monte Carlo runs on the canonical configurations."""

from fractions import Fraction

from hypothesis import strategies as st

from juliaspec.canonical import CANONICAL_NAMES
from juliaspec.sequences import (
    constant,
    geometric,
    harmonic,
    periodic,
    prefix_then,
    random_base,
    random_uniform,
)

PROB = st.fractions(min_value=Fraction(1, 8), max_value=1, max_denominator=8)
PLAIN_P = st.one_of(
    st.builds(constant, PROB),
    st.builds(periodic, st.lists(PROB, min_size=1, max_size=3)),
    st.builds(
        geometric, st.sampled_from([Fraction(1, 2), 1]), st.sampled_from(["1/4", "1/2", "3/4"])
    ),
    st.builds(harmonic, st.sampled_from(["1/2", 1]), st.sampled_from([1, 2])),
    # high = 1 with low < 1: p̄ does not tend to 1, yet Σ (1 - p_j)^α is undecided.
    st.sampled_from([Fraction(1), Fraction(15, 16)]).flatmap(
        lambda high: st.builds(
            random_uniform,
            st.fractions(min_value=Fraction(1, 2), max_value=high, max_denominator=16),
            st.just(high),
            st.integers(0, 2**16),
        )
    ),
)
P_SPECS = st.one_of(
    PLAIN_P,
    st.builds(prefix_then, st.lists(PROB, min_size=1, max_size=2), PLAIN_P),
)
D_SPECS = st.one_of(
    st.builds(constant, st.integers(2, 4), st.just("d")),
    st.builds(periodic, st.lists(st.integers(2, 4), min_size=1, max_size=3), st.just("d")),
    st.builds(random_base, st.integers(2, 4), st.integers(0, 2**16)),
).flatmap(
    lambda tail: st.one_of(
        st.just(tail),
        st.builds(prefix_then, st.lists(st.integers(2, 4), min_size=1, max_size=2), st.just(tail)),
    )
)

# (canonical name, start, trajectories, horizon, seed) for `return_statistics`'
# engine: up to 64 trajectories, so a run crosses the scalar-straggler size.
LOCKSTEP_RUNS = st.tuples(
    st.sampled_from(CANONICAL_NAMES),
    st.one_of(st.integers(0, 40), st.integers(0, 3000)),
    st.integers(1, 64),
    st.integers(0, 1500),
    st.integers(0, 2**64 - 1),
)
