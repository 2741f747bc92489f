"""Parameter-sequence specs: exact evaluation, tail analysis, JSON round trips.

Oracles here are independent closed forms (geometric series, long numpy
partial products) — never the module's own formulas.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juliaspec.dynamics import RHO
from juliaspec.errors import ConfigError, OutOfRangeError
from juliaspec.sequences import (
    ProductVerdict,
    SumVerdict,
    constant,
    geometric,
    harmonic,
    irreducible,
    limit_is_one,
    limsup_below_one,
    max_base,
    monotone_increasing,
    periodic,
    prefix_then,
    product_verdict,
    random_base,
    random_uniform,
    spec_from_json,
    spec_to_json,
    sum_alpha_verdict,
    tail_product,
    threshold_index,
)
from strategies import P_SPECS

HALF = Fraction(1, 2)


# -- evaluation --------------------------------------------------------------


def test_constant_values_are_exact():
    s = constant("3/4")
    assert s.value_at(1) == Fraction(3, 4)
    assert s.value_at(10**6) == Fraction(3, 4)
    d = constant(3, "d")
    assert d.value_at(7) == 3


def test_periodic_cycles():
    s = periodic(["1/2", "2/3", "3/4"])
    expect = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]
    for j in range(1, 13):
        assert s.value_at(j) == expect[(j - 1) % 3]
    d = periodic([2, 3], "d")
    assert [d.value_at(j) for j in range(1, 5)] == [2, 3, 2, 3]


def test_geometric_closed_form():
    s = geometric(1, "1/4")
    for j in range(1, 8):
        assert s.value_at(j) == 1 - Fraction(1, 4) ** j
    assert s.value_at(2) == Fraction(15, 16)


def test_harmonic_closed_form():
    s = harmonic("1/2", 1)
    for j in range(1, 8):
        assert s.value_at(j) == 1 - Fraction(1, 2) / (j + 1)
    assert s.value_at(1) == Fraction(3, 4)


def test_prefix_reindexes_tail():
    s = prefix_then(["1/3", "2/3"], constant("1/2"))
    assert s.value_at(1) == Fraction(1, 3)
    assert s.value_at(2) == Fraction(2, 3)
    assert s.value_at(3) == HALF
    assert s.value_at(50) == HALF


def test_prefix_flattens_nested_prefixes():
    inner = prefix_then(["1/5"], constant("1/2"))
    outer = prefix_then(["1/7"], inner)
    assert outer.kind == "prefix"
    assert outer.prefix == (Fraction(1, 7), Fraction(1, 5))
    assert outer.tail.kind == "constant"
    # An empty prefix is just the tail.
    assert prefix_then([], constant("1/2")) == constant("1/2")


def test_random_uniform_is_a_pure_function_of_seed_and_index():
    a = random_uniform("1/4", "3/4", 17)
    b = random_uniform("1/4", "3/4", 17)
    vals_a = [a.value_at(j) for j in range(1, 30)]
    vals_b = [b.value_at(j) for j in range(1, 30)]
    assert vals_a == vals_b
    assert all(0.25 <= v <= 0.75 for v in vals_a)
    assert not a.is_rational()
    c = random_uniform("1/4", "3/4", 18)
    assert [c.value_at(j) for j in range(1, 30)] != vals_a


def test_random_base_draws_integers_in_range():
    d = random_base(4, 5)
    vals = [d.value_at(j) for j in range(1, 50)]
    assert all(isinstance(v, int) and 2 <= v <= 4 for v in vals)
    assert d.is_rational()
    assert set(vals) == {2, 3, 4}  # all admissible bases appear in 49 draws


def test_value_at_rejects_bad_indices():
    s = constant("1/2")
    for bad in (0, -3, 1.5):
        with pytest.raises(OutOfRangeError):
            s.value_at(bad)


def test_float_at_matches_value_at():
    for s in (constant("1/2"), geometric(1, "1/4"), harmonic("1/2", 1),
              prefix_then(["1/3"], geometric(1, "1/2"))):
        for j in (1, 2, 5, 20):
            assert s.float_at(j) == pytest.approx(float(s.value_at(j)), abs=1e-15)


# -- factory validation ------------------------------------------------------


def test_factories_reject_out_of_range_parameters():
    with pytest.raises(OutOfRangeError):
        constant(0)
    with pytest.raises(OutOfRangeError):
        constant("3/2")
    with pytest.raises(OutOfRangeError):
        constant(1, "d")  # digit bases start at 2
    with pytest.raises(OutOfRangeError):
        periodic([])
    with pytest.raises(OutOfRangeError):
        geometric(1, 1)  # ratio must be < 1
    with pytest.raises(OutOfRangeError):
        geometric(4, "1/4")  # c * gamma == 1 leaves p_1 = 0
    with pytest.raises(OutOfRangeError):
        harmonic(1, -1)
    with pytest.raises(OutOfRangeError):
        harmonic(3, 1)  # needs c < 1 + a
    with pytest.raises(OutOfRangeError):
        random_uniform("3/4", "1/4", 0)  # low > high
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(OutOfRangeError):
            constant(bad)
        with pytest.raises(OutOfRangeError):
            geometric(bad, "1/2")
    # Seeds are integers >= 0: no negative, fractional or boolean seeds.
    for seed in (-1, 1.5, True, False, float("nan"), "3", None):
        with pytest.raises(OutOfRangeError):
            random_uniform("1/2", 1, seed)
        with pytest.raises(OutOfRangeError):
            random_base(4, seed)
    assert random_uniform("1/2", 1, 2.0).seed == 2
    assert random_base(4, 2**70).seed == 2**70
    constant(1)  # p_j = 1 is allowed (the deterministic adding machine)


# Each factory slot that takes a rational or a seed, with a good integer for it; the
# base slots are in `tests/test_arguments.py`.
INTEGER_SLOTS = [
    pytest.param(lambda v: constant(v), 1, id="constant-value"),
    pytest.param(lambda v: periodic([v, "1/2"]), 1, id="periodic-value"),
    pytest.param(lambda v: geometric(v, "1/4"), 1, id="geometric-c"),
    pytest.param(lambda v: harmonic(v, 1), 1, id="harmonic-c"),
    pytest.param(lambda v: harmonic("1/2", v), 1, id="harmonic-a"),
    pytest.param(lambda v: prefix_then([v], constant("1/2")), 1, id="prefix_then-value"),
    pytest.param(lambda v: random_uniform(v, 1, 0), 1, id="random_uniform-low"),
    pytest.param(lambda v: random_uniform("1/2", v, 0), 1, id="random_uniform-high"),
    pytest.param(lambda v: random_uniform("1/4", "3/4", v), 3, id="random_uniform-seed"),
    pytest.param(lambda v: random_base(4, v), 1, id="random_base-seed"),
]


@pytest.mark.parametrize("call, good", INTEGER_SLOTS)
def test_numpy_integers_fill_every_factory_slot(call, good):
    want = repr(call(good))
    for cast in (np.int64, np.uint16, np.int8):
        assert repr(call(cast(good))) == want, cast
    for bad in (True, np.True_):
        with pytest.raises(OutOfRangeError):
            call(bad)


# -- tail analysis -----------------------------------------------------------


def test_product_verdicts():
    assert product_verdict(constant("1/2")) is ProductVerdict.TENDS_TO_ZERO
    assert product_verdict(constant(1)) is ProductVerdict.CONVERGES_POSITIVE
    assert product_verdict(periodic(["1/2", 1])) is ProductVerdict.TENDS_TO_ZERO
    assert product_verdict(geometric(1, "1/4")) is ProductVerdict.CONVERGES_POSITIVE
    assert product_verdict(harmonic("1/2", 1)) is ProductVerdict.TENDS_TO_ZERO
    assert product_verdict(prefix_then(["1/9"], geometric(1, "1/2"))) is (
        ProductVerdict.CONVERGES_POSITIVE
    )
    assert product_verdict(random_uniform("1/4", "3/4", 0)) is ProductVerdict.TENDS_TO_ZERO
    assert product_verdict(random_uniform("1/4", 1, 0)) is ProductVerdict.INCONCLUSIVE
    assert product_verdict(random_uniform(1, 1, 0)) is ProductVerdict.CONVERGES_POSITIVE


def test_tail_product_limit_matches_long_numpy_product():
    limit = tail_product(geometric(1, "1/4"))
    oracle = float(np.prod(1.0 - 0.25 ** np.arange(1, 80)))
    assert limit == pytest.approx(oracle, rel=1e-12)
    zero = tail_product(harmonic("1/2", 1))
    assert zero == 0 and isinstance(zero, Fraction)


def test_tail_product_limit_is_refused_when_inconclusive():
    with pytest.raises(ConfigError):
        tail_product(random_uniform("1/2", 1, 3))


def test_sum_alpha_verdicts():
    assert sum_alpha_verdict(constant("1/2"), 1) is SumVerdict.DIVERGES
    assert sum_alpha_verdict(constant("3/4"), 2) is SumVerdict.DIVERGES
    assert sum_alpha_verdict(geometric(1, "1/4"), 1) is SumVerdict.CONVERGES
    assert sum_alpha_verdict(harmonic("1/2", 1), 1) is SumVerdict.DIVERGES
    assert sum_alpha_verdict(harmonic("1/2", 1), 2) is SumVerdict.CONVERGES
    assert sum_alpha_verdict(random_uniform("1/2", 1, 0), 1) is SumVerdict.INCONCLUSIVE
    with pytest.raises(OutOfRangeError):
        sum_alpha_verdict(constant("1/2"), 0.5)
    for alpha in (float("nan"), float("inf"), "abc", None, [2], 10**400):
        with pytest.raises(OutOfRangeError):
            sum_alpha_verdict(constant("1/2"), alpha)


# -- qualitative certificates ------------------------------------------------


def test_monotone_and_limit_certificates():
    assert monotone_increasing(geometric(1, "1/4"))
    assert monotone_increasing(harmonic("1/2", 1))
    assert not monotone_increasing(constant("1/2"))
    assert limit_is_one(geometric(1, "1/4"))
    assert limit_is_one(constant(1))
    assert not limit_is_one(constant("1/2"))
    assert not limit_is_one(periodic(["1/2", 1]))
    assert not limit_is_one(random_uniform("1/2", 1, 0))
    assert limit_is_one(prefix_then(["1/9"], harmonic("1/2", 1)))


def test_threshold_index_monotone_kinds():
    # geometric(1, 1/4): p_1 = 0.75, p_2 = 0.9375; threshold 0.9 first holds at 2
    assert threshold_index(geometric(1, "1/4"), 0.9) == 2
    assert threshold_index(constant("1/2"), 0.5) == 1
    assert threshold_index(constant("1/2"), 0.6) is None
    assert threshold_index(periodic(["1/2", "3/4"]), 0.5) == 1
    assert threshold_index(periodic(["1/2", "3/4"]), 0.6) is None
    # harmonic("1/2", 1): p_j = 1 - 1/(2j + 2); p_4 = 0.9 exactly, below the float 0.9
    assert threshold_index(harmonic("1/2", 1), 0.9) == 5
    # p_499999 = 1 - 10^-6 exactly, just above the float 0.999999: no scan reaches it
    assert threshold_index(harmonic("1/2", 1), 0.999999) == 499_999
    assert threshold_index(geometric(1, "1/4"), 0.0) == 1
    assert threshold_index(geometric(1, "1/4"), -float("inf")) == 1
    # γ^j <= 1/2 first at j = 693,147: past the cap of the exact check, so no certificate
    assert threshold_index(geometric(1, "999999/1000000"), 0.5) is None
    for bad in ("x", None, float("nan")):
        with pytest.raises(OutOfRangeError):
            threshold_index(geometric(1, "1/4"), bad)


def test_threshold_index_never_certifies_one_on_increasing_tails():
    # p_27 = 1 - 4^-27 rounds to 1.0, yet every p_j < 1; no scan is needed to say so.
    assert geometric(1, "1/4").float_at(27) == 1.0
    for spec in (geometric(1, "1/4"), harmonic("1/2", 1), prefix_then(["1"], geometric(1, "1/2"))):
        assert threshold_index(spec, 1.0) is None
        assert threshold_index(spec, float("inf")) is None


def test_threshold_index_prefix_back_walk():
    tail = constant("19/20")
    # prefix value below the threshold blocks the walk back
    assert threshold_index(prefix_then(["9/10", "3/10"], tail), 0.5) == 3
    # qualifying prefix values extend the certified range to the front
    assert threshold_index(prefix_then(["9/10", "8/10"], tail), 0.5) == 1
    assert threshold_index(prefix_then(["3/10", "8/10"], tail), 0.5) == 2


def test_limsup_and_irreducibility():
    assert limsup_below_one(constant("1/2"))
    assert limsup_below_one(periodic(["1/2", "2/3"]))
    assert not limsup_below_one(geometric(1, "1/4"))
    assert not limsup_below_one(harmonic("1/2", 1))
    assert irreducible(constant("1/2"))
    assert not irreducible(constant(1))
    assert irreducible(periodic([1, "1/2"]))
    assert irreducible(harmonic("1/2", 1))
    assert not irreducible(random_uniform(1, 1, 0))


def test_max_base():
    assert max_base(constant(3, "d")) == 3
    assert max_base(periodic([2, 5, 3], "d")) == 5
    assert max_base(prefix_then([7], periodic([2, 3], "d"))) == 7
    assert max_base(random_base(6, 0)) == 6
    with pytest.raises(ConfigError):
        max_base(constant("1/2"))


def test_codomain_guards():
    with pytest.raises(ConfigError):
        product_verdict(constant(2, "d"))
    with pytest.raises(ConfigError):
        sum_alpha_verdict(constant(2, "d"), 1)


_SERIES_OF_PRODUCT = {
    ProductVerdict.TENDS_TO_ZERO: SumVerdict.DIVERGES,
    ProductVerdict.CONVERGES_POSITIVE: SumVerdict.CONVERGES,
    ProductVerdict.INCONCLUSIVE: SumVerdict.INCONCLUSIVE,
}


@settings(max_examples=200)
@given(
    spec=P_SPECS,
    offsets=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
    thr=st.one_of(st.sampled_from([RHO, 0.5, 0.9375, 1.0]), st.floats(0.0, 1.0)),
)
def test_tail_verdicts_agree_with_sampled_values(spec, offsets, thr):
    # ∏ p_j > 0 iff Σ (1 - p_j) < ∞ for p_j in (0, 1].
    assert sum_alpha_verdict(spec, 1) is _SERIES_OF_PRODUCT[product_verdict(spec)]
    start = len(spec.prefix) if spec.kind == "prefix" else 0
    tail = [start + k for k in offsets]
    if not irreducible(spec):
        assert all(spec.value_at(j) == 1 for j in tail)
    if limsup_below_one(spec):
        assert all(spec.float_at(j) < 1 for j in tail)
    j0 = threshold_index(spec, thr)
    if j0 is not None:
        # Exact values: Fractions for rational specs, and a float compares
        # with a Fraction by its exact binary value.
        assert all(spec.value_at(j) >= thr for j in range(j0, j0 + 65))
        assert j0 == 1 or spec.value_at(j0 - 1) < thr


# -- JSON round trips --------------------------------------------------------


@pytest.mark.parametrize(
    "spec, codomain",
    [
        (constant("1/2"), "p"),
        (constant(3, "d"), "d"),
        (periodic(["1/2", "2/3"]), "p"),
        (periodic([2, 3], "d"), "d"),
        (geometric(1, "1/4"), "p"),
        (harmonic("1/2", 1), "p"),
        (prefix_then(["1/3"], geometric(1, "1/2")), "p"),
        (prefix_then([4], constant(2, "d")), "d"),
        (random_uniform("1/4", "3/4", 9), "p"),
        (random_base(4, 9), "d"),
    ],
)
def test_json_round_trip_preserves_the_spec(spec, codomain):
    assert spec_from_json(spec_to_json(spec), codomain) == spec


def test_spec_from_json_rejects_defects():
    with pytest.raises(ConfigError):
        spec_from_json({"kind": "nope"}, "p")
    with pytest.raises(ConfigError):
        spec_from_json({"kind": "geometric", "c": 1}, "p")  # missing gamma
    with pytest.raises(ConfigError):
        spec_from_json({"kind": "geometric", "c": 1, "gamma": "1/4"}, "d")
    with pytest.raises(ConfigError):
        spec_from_json({"kind": "constant", "value": "3/2"}, "p")
    with pytest.raises(ConfigError):
        spec_from_json(["constant"], "p")
