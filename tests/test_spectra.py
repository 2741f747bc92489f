"""Spectral classifiers: membership, point spectra per space, residual sets.

Certificate discipline is the invariant under test: a resolved part always
implies certified membership, budget exhaustion never upgrades to a claim,
and every closed-form series identity is checked against a brute-force sum.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from eigvec_reference import dual_consistency_residual, series_partial_sum

import juliaspec.spectra as spectra
from juliaspec.chain import ChainConfig
from juliaspec.dynamics import FiberedSystem, eigvec_head, factor_values
from juliaspec.errors import BudgetExceededError, JuliaspecError, OutOfRangeError
from juliaspec.numeration import BaseSequence
from juliaspec.sequences import constant, geometric, periodic, random_uniform
from juliaspec.spectra import (
    C,
    C0,
    L_INF,
    Membership,
    SpectralPart,
    classify,
    l_alpha,
    parse_space,
    point_c,
    point_c0,
    point_lalpha,
    residual_l1,
    residual_verdict,
    spectrum_membership,
    spectrum_summary,
)
from strategies import P_SPECS

IN = Membership.IN_SPECTRUM
OUT = Membership.NOT_IN_SPECTRUM
UNKNOWN = Membership.INSIDE_BUDGET_UNKNOWN


# -- spaces ------------------------------------------------------------------


def test_space_parsing_and_formatting():
    assert parse_space("c0") == C0
    assert parse_space("c") == C
    assert parse_space("linf") == L_INF
    assert parse_space("l1") == l_alpha(1)
    assert parse_space("L2.5") == l_alpha(2.5)
    assert str(l_alpha(2)) == "l2"
    assert str(l_alpha(2.5)) == "l2.5"
    assert str(C0) == "c0"
    for bad in ("banach", 5, None, 2.0, b"c0", ["c0"]):
        with pytest.raises(OutOfRangeError):
            parse_space(bad)
    for bad in (0.5, "abc", None, [2]):
        with pytest.raises(OutOfRangeError):
            l_alpha(bad)


# -- membership --------------------------------------------------------------


def test_membership_verdicts(systems):
    sys = systems["dendrite"]
    out = spectrum_membership(sys, 2.0, budget=50)
    assert out.membership is OUT
    assert out.witness["escape-step"] == 1

    fixed = spectrum_membership(sys, 1.0, budget=50, space=L_INF)
    assert fixed.membership is IN and fixed.part is SpectralPart.POINT

    # A generic interior-ish point stays bounded but uncertified.
    hazy = spectrum_membership(sys, 0.3, budget=50)
    assert hazy.membership is UNKNOWN and hazy.part is SpectralPart.NOT_APPLICABLE


# -- point spectrum on c0 and c ----------------------------------------------


def test_point_c0_empty_when_p_stays_away_from_one(systems):
    sys = systems["dendrite"]
    rng = np.random.default_rng(8)
    for _ in range(25):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        v = point_c0(sys, lam, budget=40)
        assert v.membership is OUT
        assert v.witness["rules"] == ["point-empty-when-p-does-not-approach-1"]


def test_point_c0_contraction_certificate(systems):
    v = point_c0(systems["binary-geometric"], 0.0, budget=40)
    assert v.membership is IN and v.part is SpectralPart.POINT
    assert v.witness["certificate-index"] == 2
    w = point_c0(systems["mixed23-harmonic"], 0.0, budget=40)
    assert w.membership is IN and w.part is SpectralPart.POINT


def test_point_c0_rejects_unit_eigenvalue_and_escapes(systems):
    sys = systems["binary-geometric"]
    one = point_c0(sys, 1.0, budget=40)
    assert one.membership is OUT
    assert one.witness["rules"] == ["factors-approach-1-no-decay"]
    for lam in (3.0, 1e308 + 1e308j):  # |ι_1| past the float range, then ι_2 = NaN
        far = point_c0(sys, lam, budget=40)
        assert far.membership is OUT
        assert far.witness["rules"] == ["escape-certificate"]


def test_point_c_adds_the_unit_eigenvalue(systems):
    for name, sys in systems.items():
        v = point_c(sys, 1.0, budget=40)
        assert v.membership is IN and v.part is SpectralPart.POINT, name
        v0 = point_c0(sys, 1.0, budget=40)
        assert v0.membership is OUT, name
    # Away from 1, c matches c0.
    a = point_c(systems["binary-geometric"], 0.0, budget=40)
    assert a.membership is IN and a.part is SpectralPart.POINT


# -- point spectrum on l^alpha ----------------------------------------------


def test_point_lalpha_summability_gate(systems):
    for lam in (0.0, 0.3 + 0.2j, 1.0):
        v = point_lalpha(systems["dendrite"], lam, 1, budget=40)
        assert v.membership is OUT
        assert v.witness["rules"] == ["summability-gate-alpha"]
        w = point_lalpha(systems["binary-p34"], lam, 2, budget=40)
        assert w.membership is OUT


def test_point_lalpha_monotone_summable_delegates_to_c0(systems):
    sys = systems["binary-geometric"]
    v = point_lalpha(sys, 0.0, 1, budget=40)
    assert v.membership is IN and v.part is SpectralPart.POINT
    assert "monotone-summable-matches-c0" in v.witness["rules"]
    assert "alpha-series-partial" in v.witness
    h = point_lalpha(systems["mixed23-harmonic"], 0.0, 2, budget=40)
    assert h.membership is IN and h.part is SpectralPart.POINT


# -- series identities -------------------------------------------------------


def brute_alpha_series(sys, lam, depth, alpha=1.0):
    fac = factor_values(sys, lam, depth)
    total = 0.0
    for n in range(sys.base.place_value(depth)):
        digits = sys.base.to_digits(n)
        term = 1.0
        for r, a in enumerate(digits, start=1):
            term *= abs(fac[r - 1]) ** a
        total += term**alpha
    return total


def test_series_partial_sum_matches_brute_force(systems):
    cases = [
        ("dendrite", 0.3 + 0.1j),
        ("binary-geometric", 0.0),
        ("ternary-p12", 0.2j),
        ("mixed23-harmonic", 0.1 + 0.05j),
    ]
    for name, lam in cases:
        sys = systems[name]
        for depth in range(5):
            for alpha in (1, 1.5, 2):
                closed = series_partial_sum(sys, lam, depth, alpha)
                brute = brute_alpha_series(sys, lam, depth, alpha)
                assert closed == pytest.approx(brute, rel=1e-12), (name, depth, alpha)
    with pytest.raises(OutOfRangeError):
        series_partial_sum(systems["dendrite"], 0.0, -1)


def test_alpha_series_witness_is_the_alpha_series_partial_sum(systems):
    # Binary-geometric at λ = 0 on l2 certifies after k = 2 factors: the
    # witness is Σ_{n<q_2} |v(n)|², not (Σ_{n<q_2} |v(n)|)^{1/2} = 1.18426.
    sys = systems["binary-geometric"]
    v = point_lalpha(sys, 0.0, 2, budget=40)
    assert v.witness["trace-length"] == 2
    head = eigvec_head(sys, 0.0, sys.base.place_value(2))
    assert v.witness["alpha-series-partial"] == pytest.approx(sum(abs(x) ** 2 for x in head), rel=1e-14)
    assert v.witness["alpha-series-partial"] == pytest.approx(1.11410, abs=5e-6)
    # At α = 1 the witness is the plain partial sum Σ_{n<q_k} |v(n)|.
    w = point_lalpha(sys, 0.0, 1, budget=40)
    assert w.witness["alpha-series-partial"] == series_partial_sum(sys, 0.0, 2)


def test_dual_consistency_residual_exact_dyadic_tail(systems):
    # At lambda = 1 on the dendrite chain every term is an exact dyadic, so
    # the defect after N terms is exactly 2^-N.
    sys = systems["dendrite"]
    for terms in (5, 20):
        assert dual_consistency_residual(sys, 1.0, terms) == 2.0 ** (-terms)
    with pytest.raises(OutOfRangeError):
        dual_consistency_residual(sys, 1.0, 0)


def test_dual_consistency_residual_transient_floor():
    # For a transient chain the head series at lambda = 1 misses the mass
    # that escapes to infinity: the residual converges to the positive limit
    # (prod p_j) / p_1 instead of 0.
    sys = FiberedSystem(BaseSequence(2), geometric(1, "1/2"))
    floor = float(np.prod(1.0 - 0.5 ** np.arange(1, 200))) / 0.5
    got = dual_consistency_residual(sys, 1.0, 80)
    assert got == pytest.approx(floor, abs=1e-9)
    assert got > 0.5


# -- residual spectrum -------------------------------------------------------


def test_residual_l1_regimes(systems):
    eq = residual_l1(systems["dendrite"], depth=4)
    assert eq.regime == "equality"
    assert len(eq.points) == 1 and abs(eq.points[0] - 1.0) < 1e-8
    assert not eq.conjecture
    assert eq.ones_count >= 1 and eq.zeros_count >= 1

    sub = residual_l1(systems["mixed23-harmonic"], depth=3)
    assert sub.regime == "subset"  # p -> 1, so limsup < 1 fails

    tr = residual_l1(systems["binary-geometric"], depth=3)
    assert tr.regime == "transient"
    assert tr.points == () and tr.conjecture

    unres = residual_l1(
        FiberedSystem(BaseSequence(2), random_uniform("1/2", 1, 4)), depth=2
    )
    assert unres.regime == "unresolved"


def test_residual_verdict_families():
    assert residual_verdict(C0)["residual"] == "empty"
    assert residual_verdict(C)["residual"] == "empty"
    assert residual_verdict(L_INF)["residual"] == "empty"
    assert residual_verdict(l_alpha(2))["residual"] == "empty"
    assert residual_verdict(l_alpha(1))["residual"] == "delegated-to-l1"


# -- combined classification -------------------------------------------------


def test_classify_part_implies_membership(systems):
    spaces = [C0, C, L_INF, l_alpha(1), l_alpha(2)]
    sample = [1.0, 0.0, 0.3 + 0.2j, 2.0, -0.4 + 0.1j]
    for name, sys in systems.items():
        for lam in sample:
            for space in spaces:
                v = classify(sys, lam, space, budget=40, depth=3)
                if v.part is not SpectralPart.NOT_APPLICABLE:
                    assert v.membership is IN, (name, lam, str(space))
                json.dumps(v.to_json())  # payloads stay serializable


def test_classify_unit_eigenvalue_across_spaces(systems):
    dend = systems["dendrite"]
    assert classify(dend, 1.0, C).part is SpectralPart.POINT
    # On c0 the point part is excluded and the residual part is certified
    # empty, so membership resolves to continuous.
    v = classify(dend, 1.0, C0)
    assert v.membership is IN
    assert v.part is SpectralPart.CONTINUOUS_BY_ELIMINATION
    # On l1 the point 1 sits in the residual candidate set.
    r = classify(dend, 1.0, l_alpha(1), depth=4)
    assert r.membership is IN
    assert r.part is SpectralPart.RESIDUAL_CANDIDATE
    # linf is pure point.
    assert classify(dend, 1.0, L_INF).part is SpectralPart.POINT


def test_classify_l1_never_eliminates_to_continuous(systems):
    # Transient chain: 1 is not a residual candidate, the point part is
    # excluded, but l1's residual exclusion is only truncation-deep, so the
    # verdict stays IN with an unresolved part.
    v = classify(systems["binary-geometric"], 1.0, l_alpha(1), depth=3)
    assert v.membership is IN
    assert v.part is SpectralPart.NOT_APPLICABLE
    assert v.witness.get("residual") == "excluded only to truncation depth"


def test_classify_escapes_are_uniform_across_spaces(systems):
    # Far out the first iterate overflows: to NaN, as (a + ai)^2 does, or to
    # finite parts whose modulus is past the float range (1.44e308 + 1.3e308i).
    for name, lam in [("ternary-p12", 1.4 + 0.3j), ("binary-p34", 1e308 + 1e308j),
                      ("binary-p34", 9.75e153 + 3.75e153j)]:
        for space in (C0, C, L_INF, l_alpha(1), l_alpha(2)):
            v = classify(systems[name], lam, space, budget=40)
            assert v.membership is OUT
            assert v.part is SpectralPart.NOT_APPLICABLE
            assert v.witness["modulus"] > 1  # never NaN


def test_classify_certified_point_on_c0(systems):
    v = classify(systems["binary-geometric"], 0.0, C0)
    assert v.membership is IN and v.part is SpectralPart.POINT


def test_classify_keeps_certified_membership_when_point_part_is_undecided(systems):
    # f̃_1(-0.5) = 1 exactly, so membership is certified at budget 1 while the
    # point part is still open: the verdict names the spectrum, not the part.
    for space in (C0, C, l_alpha(1), l_alpha(2), l_alpha(1.5)):
        v = classify(systems["binary-geometric"], -0.5, space, budget=1)
        assert v.membership is IN, str(space)
        assert v.part is SpectralPart.NOT_APPLICABLE
        assert v.witness["point-part"] == "undecided at budget"
        assert "bounded-orbit-certificate" in v.witness["rules"]


def test_classify_names_the_membership_certificate_when_point_part_is_excluded(systems):
    # The orbit of 0.05 + 0.02i enters binary-p34's cycle disk, and p ≡ 3/4 empties the point
    # spectrum on c0, c and every l^α: the in-spectrum verdict cites both the certificate
    # that puts λ in the spectrum and the rules that exclude its point part.
    membership = ["spectrum-equals-filled-set", "bounded-orbit-certificate"]
    for space in (C0, C, l_alpha(1), l_alpha(2)):
        v = classify(systems["binary-p34"], 0.05 + 0.02j, space, budget=200)
        assert v.membership is IN, str(space)
        assert v.witness["point-part"] == "excluded"
        assert v.witness["rules"][:2] == membership, str(space)
        assert len(v.witness["rules"]) > 2
    v = classify(systems["dendrite"], 1.0, C0)
    assert v.part is SpectralPart.CONTINUOUS_BY_ELIMINATION
    assert v.witness["rules"] == [
        *membership, "point-empty-when-p-does-not-approach-1", "residual-empty-dual-bounded-below"
    ]


# -- summary reports ---------------------------------------------------------


def test_spectrum_summary_structure(chains, systems):
    rep = spectrum_summary(
        chains["dendrite"], systems["dendrite"], lams=[1.0, 2.0], depth=3
    )
    assert rep["recurrence"] == "null-recurrent"
    assert set(rep["spaces"]) == {"linf", "c0", "c", "l1", "l2"}
    assert rep["spaces"]["c0"]["point"]["rule"] == "point-empty-when-p-does-not-approach-1"
    assert rep["spaces"]["l1"]["residual-set"]["regime"] == "equality"
    assert len(rep["lambdas"]) == 2
    json.dumps(rep)

    geo = spectrum_summary(chains["binary-geometric"], systems["binary-geometric"], depth=3)
    assert geo["recurrence"] == "transient"
    assert geo["spaces"]["l1"]["residual-set"]["regime"] == "transient"
    assert geo["spaces"]["l1"]["residual-set"]["conjecture"] is True
    assert geo["spaces"]["c0"]["point"]["rule"] == "contraction-certificate-rho"
    assert geo["spaces"]["l1"]["point"]["rule"] == "contraction-certificate-rho"

    # Harmonic p: the alpha = 1 series diverges, alpha = 2 converges.
    mix = spectrum_summary(chains["mixed23-harmonic"], systems["mixed23-harmonic"], depth=3)
    assert mix["recurrence"] == "null-recurrent"
    assert mix["spaces"]["l1"]["point"]["rule"] == "summability-gate-alpha"
    assert mix["spaces"]["l2"]["point"]["rule"] == "contraction-certificate-rho"
    assert mix["spaces"]["l1"]["residual-set"]["regime"] == "subset"

    # A chain and a system of different p (dendrite against binary-p34) or d (ternary-p12).
    for other in ("binary-p34", "ternary-p12"):
        with pytest.raises(OutOfRangeError):
            spectrum_summary(chains["dendrite"], systems[other], lams=[0.3 + 0.2j], depth=3)


def test_spectrum_summary_not_irreducible():
    cfg = ChainConfig(BaseSequence(2), constant(1))
    rep = spectrum_summary(cfg, FiberedSystem(BaseSequence(2), constant(1)), depth=2)
    assert rep["recurrence"] == "not-irreducible"


# -- one orbit per λ ----------------------------------------------------------


def _count_orbit_runs(monkeypatch):
    calls = {"escape_classify": 0, "factor_trace": 0}
    for name in calls:
        real = getattr(spectra, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(spectra, name, counting)
    return calls


def test_one_escape_test_and_one_trace_per_lambda(monkeypatch, chains, systems):
    calls = _count_orbit_runs(monkeypatch)
    lams = [0.0, 1.0, 0.5, 0.3 + 0.2j, -0.4 + 0.1j, 2.0, 1j]
    for name, sys in systems.items():
        calls.update(escape_classify=0, factor_trace=0)
        rep = spectrum_summary(chains[name], sys, lams=lams, depth=3)
        assert len(rep["lambdas"]) == len(lams)
        assert calls["escape_classify"] <= len(lams), name
        assert calls["factor_trace"] <= len(lams), name
    for name in ("binary-geometric", "mixed23-harmonic"):
        calls.update(factor_trace=0)
        v = classify(systems[name], 0, l_alpha(2))
        assert v.part is SpectralPart.POINT
        assert calls["factor_trace"] <= 1, name


def test_l_alpha_eigenvalue_walks_its_orbit_twice(monkeypatch, canon):
    # One escape test and one factor trace; the α-series partial sum reads the trace's factors.
    sys = canon["binary-geometric"].system()
    real, calls = FiberedSystem.orbit, []

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FiberedSystem, "orbit", counting)
    v = classify(sys, 0, l_alpha(2), budget=80)
    assert v.membership is IN and v.part is SpectralPart.POINT
    assert "alpha-series-partial" in v.witness
    assert len(calls) == 2


def test_summary_builds_one_l1_residual_report(monkeypatch, chains, systems):
    real, calls = spectra.residual_l1, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectra, "residual_l1", counting)
    lams = [0.0, 1.0, 0.5, 0.3 + 0.2j, -0.4 + 0.1j, 2.0, 1j, 0.25 - 0.5j]
    rep = spectrum_summary(chains["dendrite"], systems["dendrite"], lams=lams, depth=3)
    assert len(rep["lambdas"]) == 8
    assert rep["lambdas"][1]["l1"]["part"] == SpectralPart.RESIDUAL_CANDIDATE.value
    assert len(calls) == 1


def test_budgets_past_the_cap_are_refused_before_the_l1_residual_set(monkeypatch, chains, systems):
    built = []
    monkeypatch.setattr(spectra, "residual_l1", lambda *args, **kwargs: built.append(args))
    over = (1 << 20) + 1
    with pytest.raises(BudgetExceededError):
        classify(systems["dendrite"], 0.3, l_alpha(1), budget=over)
    with pytest.raises(BudgetExceededError):
        spectrum_summary(chains["dendrite"], systems["dendrite"], budget=over)
    assert built == []


_BASES = st.sampled_from([2, 3, periodic([2, 3], "d")])
_COORD = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    p=P_SPECS,
    d=_BASES,
    lam=st.builds(complex, _COORD, _COORD),
    budget=st.integers(1, 60),
    depth=st.integers(1, 4),
)
def test_summary_rows_are_the_per_space_verdicts(p, d, lam, budget, depth):
    base = BaseSequence(d)
    sys = FiberedSystem(base, p)
    try:
        rep = spectrum_summary(
            ChainConfig(base, p), sys, lams=[lam], budget=budget, depth=depth,
            alphas=(1.0, 1.5, 2.0),
        )
        row = rep["lambdas"][0]
        for name, entry in rep["spaces"].items():
            v = classify(sys, lam, parse_space(name), budget, depth)
            assert row[name] == v.to_json(), name
            if v.part is not SpectralPart.NOT_APPLICABLE:
                assert v.membership is IN, name
            if entry["point"]["description"] == "empty":
                assert v.part is not SpectralPart.POINT, name
                assert v.witness.get("point-part") != "undecided at budget", name
    except JuliaspecError:
        pass  # a refusal is a verdict too; any other exception fails the test
