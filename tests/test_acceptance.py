"""Acceptance suite: fourteen end-to-end checks of the advertised guarantees.

Each test exercises one guarantee at its stated tolerance and, after all
assertions pass, prints a single ``criterion-NN ...: PASS`` line with the
measured figures, so the captured output reads as a checklist.  pytest's own
verdict is authoritative when an assertion fails.

Certified sample points for the eigenvector identities are preimages of the
fixed point 1 (distinct, polished, with a contraction certificate on the
factor trace), so every check here runs against independently constructed
witnesses rather than against the code paths being tested.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from eigvec_reference import dual_eigvec_entry, eigvec_entry, series_partial_sum

from juliaspec.canonical import CANONICAL_NAMES
from juliaspec.chain import ChainConfig, Recurrence
from juliaspec.cli import main
from juliaspec.dynamics import (
    FiberedSystem,
    TraceStatus,
    dedup_points,
    escape_classify,
    factor_trace,
    factor_values,
    preimages,
    residual_set,
)
from juliaspec.numeration import BaseSequence
from juliaspec.operator import build_truncation, column0_coefficient, weyl_defect
from juliaspec.render import GridSpec, component_of_zero, count_components, render_field
from juliaspec.sequences import constant, geometric
from juliaspec.spectra import (
    Membership,
    SpectralPart,
    point_c,
    point_c0,
    point_lalpha,
)

IN = Membership.IN_SPECTRUM
OUT = Membership.NOT_IN_SPECTRUM
POINT = SpectralPart.POINT

# Preimage-tree depth used to build certified inside samples per config:
# deep enough for well over 20 distinct certified points, shallow enough
# that the tree stays small (q_depth leaves).
_POOL_DEPTH = {
    "dendrite": 7,
    "binary-p34": 7,
    "ternary-p12": 4,
    "mixed23-harmonic": 5,
    "binary-geometric": 7,
}


def _certified_inside_points(sys: FiberedSystem, depth: int, count: int) -> list[complex]:
    """Distinct preimages of 1, kept only when independently certified.

    A point survives when its first five factors stay away from 0 (so the
    eigenvector and its dual are well defined over the scan window) and its
    factor trace locks onto 1.  Iteration order is the sorted dedup order,
    so the selection is deterministic.
    """
    picked: list[complex] = []
    for z in dedup_points(preimages(sys, 1.0, depth), 1e-9):
        lam = complex(z)
        fac = factor_values(sys, lam, 5)
        if min(abs(f) for f in fac) < 1e-3:
            continue
        if factor_trace(sys, lam, 40).status is not TraceStatus.CONVERGES_TO_ONE:
            continue
        picked.append(lam)
        if len(picked) == count:
            break
    return picked


def _float_rows(cfg: ChainConfig, count: int) -> list[tuple[tuple[int, float], ...]]:
    return [
        tuple((m, float(s)) for m, s in cfg.transition_row(n).entries)
        for n in range(count)
    ]


def test_criterion_01_shift_chain_unit_circle():
    """p̄ ≡ 1, d̄ ≡ 2: the escape raster recovers the closed unit disk."""
    sys = FiberedSystem(BaseSequence(2), constant(1))
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 512, 512, 200)
    field = render_field(sys, grid)
    xs = grid.re_min + (np.arange(grid.width) + 0.5) * grid.dx
    ys = grid.im_max - (np.arange(grid.height) + 0.5) * grid.dy
    mod = np.abs(xs[None, :] + 1j * ys[:, None])
    inside = field.inside
    missed_inside = int(np.count_nonzero(~inside & (mod <= 0.99)))
    missed_outside = int(np.count_nonzero(inside & (mod >= 1.01)))
    assert missed_inside == 0
    assert missed_outside == 0
    # Area sanity on a tight window: the unit disk fills pi/4.84 of [-1.1,1.1]^2.
    tight = GridSpec(-1.1, 1.1, -1.1, 1.1, 512, 512, 200)
    frac = render_field(sys, tight).inside_fraction()
    assert frac == pytest.approx(np.pi / 4.84, rel=0.02)
    print(
        f"criterion-01 shift-unit-circle: PASS "
        f"(0 misclassified of {mod.size} pixels; disk fraction {frac:.4f} vs {np.pi / 4.84:.4f})"
    )


def test_criterion_02_exact_row_and_column_sums(chains):
    """Rows n < q_5 sum to exactly 1; columns 1 <= m < q_5 telescope to exactly 1."""
    rows_checked = cols_checked = 0
    for name, cfg in chains.items():
        q4 = cfg.base.place_value(4)
        q5 = cfg.base.place_value(5)
        # Any row feeding a column m < q_5 lies below q_5 + q_4: a back-jump of
        # size q_r - 1 with r >= 5 out of row n needs n ≡ -1 (mod q_r), which
        # would force m ≡ 0 (mod q_r) — impossible for 1 <= m < q_5 <= q_r.
        rows = [cfg.transition_row(n) for n in range(q5 + q4)]
        for n in range(q5):
            assert rows[n].total() == 1, (name, n)
            rows_checked += 1
        colsum: dict[int, Fraction] = defaultdict(lambda: Fraction(0))
        for row in rows:
            for m, s in row.entries:
                if 1 <= m < q5:
                    colsum[m] += s
        for m in range(1, q5):
            assert colsum[m] == 1, (name, m)
            cols_checked += 1
    print(
        f"criterion-02 exact-stochasticity: PASS "
        f"({rows_checked} rows and {cols_checked} columns sum to exactly 1)"
    )


def test_criterion_03_self_similarity_blocks(chains):
    """Rows q_{j-1} <= n <= q_j - 2 are shifted copies of rows n - a q_{j-1},
    supported inside the block [q_{j-1}, q_j - 1]; the block's top row follows
    the carry-cascade closed form."""
    checked = 0
    for name, cfg in chains.items():
        base = cfg.base
        for j in range(2, 5):
            q_prev = base.place_value(j - 1)
            q_cur = base.place_value(j)
            for n in range(q_prev, q_cur - 1):
                shift = base.to_digits(n)[j - 1] * q_prev
                row = cfg.transition_row(n).as_dict()
                assert all(q_prev <= m <= q_cur - 1 for m in row), (name, j, n)
                reduced = cfg.transition_row(n - shift).as_dict()
                assert row == {m + shift: s for m, s in reduced.items()}, (name, j, n)
                checked += 1
        for j in range(1, 5):
            q_cur = base.place_value(j)
            top = cfg.transition_row(q_cur - 1)
            assert top.probability_to(q_cur) == cfg.success_prefix(j + 1), (name, j)
            assert top.probability_to(q_cur - 1) == 1 - cfg.p_at(1), (name, j)
            for r in range(1, j + 1):
                want = (1 - cfg.p_at(r + 1)) * cfg.success_prefix(r)
                assert top.probability_to(q_cur - base.place_value(r)) == want, (name, j, r)
            checked += 1
    print(f"criterion-03 self-similarity: PASS ({checked} exact row identities, 5 configs)")


def test_criterion_04_eigen_identity_and_dual(chains, systems):
    """20 certified inside points per config: the factor-product vector solves
    the eigen identity on rows n < q_5 - 1 (absolute residual < 1e-9) and its
    reciprocal solves the dual column identity for 1 <= m <= q_4 (normalized
    residual < 1e-9)."""
    worst_eigen = worst_dual = 0.0
    for name in CANONICAL_NAMES:
        cfg, sys = chains[name], systems[name]
        q4 = cfg.base.place_value(4)
        q5 = cfg.base.place_value(5)
        rows = _float_rows(cfg, max(q5 - 1, 2 * q4 + 1))
        lams = _certified_inside_points(sys, _POOL_DEPTH[name], 20)
        assert len(lams) == 20, (name, len(lams))
        for lam in lams:
            fac = factor_values(sys, lam, 5)
            v = [eigvec_entry(sys, lam, n, fac) for n in range(q5)]
            for n in range(q5 - 1):
                acc = sum(s * v[m] for m, s in rows[n])
                res = abs(acc - lam * v[n])
                assert res < 1e-9, (name, lam, n, res)
                worst_eigen = max(worst_eigen, res)

            cache: dict[int, complex] = {}

            def dual(n: int) -> complex:
                if n not in cache:
                    cache[n] = dual_eigvec_entry(sys, lam, n, fac)
                return cache[n]

            for m in range(1, q4 + 1):
                rhs = lam * dual(m)
                acc = 0j
                scale = abs(rhs)
                # Dual entries are evaluated only where the column carries
                # mass; the support provably stays below q_5, so no factor
                # beyond the certified first five is ever needed.
                for n in range(m - 1, m + q4 + 1):
                    mass = 0.0
                    for t, s in rows[n]:
                        if t == m:
                            mass = s
                            break
                    if mass:
                        term = mass * dual(n)
                        acc += term
                        scale += abs(term)
                rel = abs(acc - rhs) / scale
                assert rel < 1e-9, (name, lam, m, rel)
                worst_dual = max(worst_dual, rel)
    print(
        f"criterion-04 eigen-identities: PASS "
        f"(worst eigen residual {worst_eigen:.2e}, worst dual residual {worst_dual:.2e})"
    )


def test_criterion_05_factor_route_agreement(systems):
    """Three routes to the factors agree to 1e-10 relative for r <= 30 at 50
    random disk points per config: the library recursion, the two-term
    rescaling recursion on the previous factor's power, and the affine image
    of the directly composed orbit; and each composition equals the current
    factor's power."""
    rng = np.random.default_rng(20260823)
    worst = 0.0
    compared = 0
    for name, sys in systems.items():
        for _ in range(50):
            radius = float(np.sqrt(rng.random()))
            theta = 2.0 * np.pi * float(rng.random())
            lam = complex(radius * np.cos(theta), radius * np.sin(theta))
            fac = factor_values(sys, lam, 30)
            w = complex(lam)
            rec = 0j
            for r in range(1, 31):
                f = fac[r - 1]
                if abs(f) > 1e6:
                    break  # escaped: double-exponential growth past float comfort
                p = sys.p_float(r)
                if r == 1:
                    rec = lam / p - (1.0 - p) / p
                else:
                    prod = 1 + 0j
                    for _ in range(sys.digit_base(r - 1)):
                        prod *= rec
                    rec = prod / p - (1.0 - p) / p
                direct = sys.affine(r, w)
                scale = max(1.0, abs(f))
                dev = max(abs(direct - f), abs(rec - f))
                assert dev <= 1e-10 * scale, (name, lam, r, dev)
                worst = max(worst, dev / scale)
                w = sys.fiber(r, w)
                prod = 1 + 0j
                for _ in range(sys.digit_base(r)):
                    prod *= f
                dev_pow = abs(w - prod)
                assert dev_pow <= 1e-10 * max(1.0, abs(prod)), (name, lam, r, dev_pow)
                worst = max(worst, dev_pow / max(1.0, abs(prod)))
                compared += 1
    print(
        f"criterion-05 factor-routes: PASS "
        f"({compared} compared levels, worst relative deviation {worst:.2e})"
    )


def test_criterion_06_recurrence_dichotomy_and_monte_carlo(chains):
    """Verdicts from the product criterion plus a Monte Carlo check on the
    return-to-0 fractions: thresholds, and Wilson intervals that bracket the
    exact return probabilities."""
    transient_cfg = ChainConfig(BaseSequence(2), geometric(1, "1/2"))
    assert chains["dendrite"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert chains["mixed23-harmonic"].classify_recurrence() is Recurrence.NULL_RECURRENT
    assert transient_cfg.classify_recurrence() is Recurrence.TRANSIENT
    recurrent = chains["dendrite"].return_statistics(
        start=1, trajectories=200, horizon=100_000, seed=20260823
    )
    assert recurrent.fraction >= 0.95
    # The Wilson intervals must also bracket the exact return probabilities.
    assert recurrent.ci_low <= chains["dendrite"].return_probability(1) <= recurrent.ci_high
    start = transient_cfg.base.place_value(3)
    transient = transient_cfg.return_statistics(
        start=start, trajectories=200, horizon=100_000, seed=20260823
    )
    assert transient.fraction <= 0.90
    exact = transient_cfg.return_probability(start)
    assert transient.ci_low <= exact <= transient.ci_high, (transient, exact)
    print(
        f"criterion-06 recurrence: PASS "
        f"(verdicts exact; return fractions {recurrent.fraction:.3f} recurrent "
        f"vs {transient.fraction:.3f} transient; exact 1 vs {exact:.4f})"
    )


def test_criterion_07_dendrite_residual_candidate_is_one(systems):
    """Constant 1/2, binary: the depth-5 residual candidate set is exactly {1}."""
    report = residual_set(systems["dendrite"], 5)
    assert len(report.points) == 1
    gap = abs(report.points[0] - 1.0)
    assert gap < 1e-8
    print(f"criterion-07 dendrite-residual: PASS (single point, |z - 1| = {gap:.2e})")


def test_criterion_08_residual_sets_without_collisions(systems):
    """Ternary depth 3 and binary p=3/4 depth 4: no preimage of 1 collides with
    a preimage of 0, and the candidate set keeps every distinct preimage of 1."""
    figures = []
    for name, depth in (("ternary-p12", 3), ("binary-p34", 4)):
        sys = systems[name]
        report = residual_set(sys, depth)
        gap = min(abs(a - b) for a in report.ones for b in report.zeros)
        assert gap > 1e-8, (name, gap)
        distinct = dedup_points(preimages(sys, 1.0, depth), report.tol)
        assert len(report.points) == len(distinct), name
        assert len(report.points) == sys.base.place_value(depth), name
        figures.append(f"{name}: {len(report.points)} points, min gap {gap:.2e}")
    print(f"criterion-08 no-collisions: PASS ({'; '.join(figures)})")


def test_criterion_09_dendrite_half_is_excluded(systems):
    """Constant 1/2, binary: the point 1/2 is simultaneously a depth-2 preimage
    of 1 and a depth-1 preimage of 0, so the candidate set drops it."""
    sys = systems["dendrite"]
    as_one = min(abs(z - 0.5) for z in preimages(sys, 1.0, 2))
    as_zero = min(abs(z - 0.5) for z in preimages(sys, 0.0, 1))
    assert as_one < 1e-9
    assert as_zero < 1e-9
    report = residual_set(sys, 2)
    assert any(abs(z - 0.5) <= report.tol for z in report.ones)
    assert all(abs(z - 0.5) > report.tol for z in report.points)
    assert len(report.points) == 1 and abs(report.points[0] - 1.0) < 1e-8
    print(
        f"criterion-09 half-excluded: PASS "
        f"(1/2 hit as preimage of 1 to {as_one:.2e} and of 0 to {as_zero:.2e}; "
        f"depth-2 candidate set is {{1}})"
    )


def test_criterion_10_point_spectrum_on_c0_and_c(systems):
    """Geometric ratio-1/4 config carries λ=0 as certified point spectrum on
    c_0 (with ι(2) = 7/135); constant-1/2 has empty c_0 point spectrum; λ=1 is
    point spectrum on c but never on c_0."""
    geo = systems["binary-geometric"]
    verdict = point_c0(geo, 0.0, 40)
    assert verdict.membership is IN and verdict.part is POINT
    iota2 = factor_values(geo, 0.0, 2)[1]
    assert abs(iota2 - 7.0 / 135.0) < 1e-12
    dend = systems["dendrite"]
    rng = np.random.default_rng(20260823)
    for _ in range(100):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert point_c0(dend, lam, 40).membership is OUT
    for name, sys in systems.items():
        on_c = point_c(sys, 1.0, 40)
        assert on_c.membership is IN and on_c.part is POINT, name
        assert point_c0(sys, 1.0, 40).membership is OUT, name
    print(
        f"criterion-10 point-spectrum-c0-c: PASS "
        f"(ι(2) = {iota2:.12f} vs 7/135; 100 random λ empty on constant-1/2; "
        f"λ=1 point on c, not on c_0, all 5 configs)"
    )


def test_criterion_11_summability_gates_and_series(systems):
    """l^α gates: divergent Σ(1-p_j)^α forces empty point spectrum; the
    geometric config keeps λ=0 on l^1; the factored partial sum of the
    eigenvector series matches a brute-force digit sum."""
    for lam in (0.0, 0.3 + 0.2j, 1.0):
        gate = point_lalpha(systems["dendrite"], lam, 1, 40)
        assert gate.membership is OUT
        assert gate.witness["rules"] == ["summability-gate-alpha"]
        gate = point_lalpha(systems["binary-p34"], lam, 2, 40)
        assert gate.membership is OUT
        assert gate.witness["rules"] == ["summability-gate-alpha"]
    kept = point_lalpha(systems["binary-geometric"], 0.0, 1, 40)
    assert kept.membership is IN and kept.part is POINT

    worst = 0.0
    for name, lam in (
        ("dendrite", 0.3 + 0.2j),
        ("binary-p34", 0.3 + 0.2j),
        ("ternary-p12", 0.2j),
        ("mixed23-harmonic", 0.1 + 0j),
        ("binary-geometric", 0.0 + 0j),
    ):
        sys = systems[name]
        for depth in range(6):
            closed = series_partial_sum(sys, lam, depth)
            mags = [abs(f) for f in factor_values(sys, lam, depth)]
            brute = 0.0
            for n in range(sys.base.place_value(depth)):
                term = 1.0
                for r, a in enumerate(sys.base.to_digits(n)):
                    term *= mags[r] ** a
                brute += term
            rel = abs(closed - brute) / max(1.0, abs(brute))
            assert rel < 1e-12, (name, depth, closed, brute)
            worst = max(worst, rel)
    print(
        f"criterion-11 summability: PASS "
        f"(gates exact; series closed form vs brute sum worst rel {worst:.2e})"
    )


def test_criterion_12_truncation_defect_and_head_coefficients(chains, systems):
    """Truncation-defect decay for a point that is inside under p=3/4 (the same
    point is expelled at step 2 under p=1/2, settling which config the decay
    premise applies to), plus exact head coefficients for constant-1/2 by
    direct column summation."""
    lam = 0.3 + 0.2j
    expelled = escape_classify(systems["dendrite"], lam, 200)
    assert expelled.escaped and expelled.step == 2
    retained = escape_classify(systems["binary-p34"], lam, 200)
    assert not retained.escaped

    decay = []
    for alpha in (1.0, 2.0):
        d3 = weyl_defect(chains["binary-p34"], systems["binary-p34"], lam, 3, alpha)
        d6 = weyl_defect(chains["binary-p34"], systems["binary-p34"], lam, 6, alpha)
        assert d6.defect < d3.defect, alpha
        assert d6.defect < 0.5, alpha
        decay.append(f"α={alpha:g}: {d3.defect:.3f} → {d6.defect:.3f}")

    dend = chains["dendrite"]
    for level in range(5):
        assert column0_coefficient(dend, level) == Fraction(1, 2 ** (level + 1))

    # Direct column summation: the only rows feeding column 0 are q_r - 1.
    for i in range(1, 64):
        mass = dend.transition_row(i).probability_to(0)
        if (i + 1) & i == 0:  # i = 2^r - 1
            assert mass != 0, i
        else:
            assert mass == 0, i
    for level in range(1, 5):
        direct = sum(
            dend.transition_row(2**r - 1).probability_to(0) for r in range(level + 1, 41)
        )
        assert direct == dend.success_prefix(level + 1) - dend.success_prefix(41)
        assert direct == Fraction(1, 2 ** (level + 1)) - Fraction(1, 2**41)
        # Beyond the head, rows only reach back to columns 0 and q_level
        # among the columns <= q_level.
        q = 2**level
        trunc = build_truncation(dend, 2 * q)
        for i in range(q, 2 * q):
            low = {m for m, s in trunc.rows[i] if m <= q and s != 0}
            assert low <= {0, q}, (level, i)
    print(
        f"criterion-12 truncation-defect: PASS "
        f"({'; '.join(decay)}; head coefficients exact to 2^-41)"
    )


def test_criterion_13_connected_inside_component(systems):
    """Geometric ratio-1/4 config at 512^2: the inside set is one 4-connected
    component and it contains the origin."""
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 512, 512, 200)
    field = render_field(systems["binary-geometric"], grid)
    inside_count = int(field.inside.sum())
    assert inside_count > 0
    assert count_components(field) == 1
    mask = component_of_zero(field)
    assert int(mask.sum()) == inside_count
    print(
        f"criterion-13 connected-component: PASS "
        f"(1 component, {inside_count} inside pixels, origin included)"
    )


def test_criterion_14_verify_is_deterministic(tmp_path, capsys):
    """Two full verification runs with the same seed produce byte-identical
    artifacts (CSV, PPM, JSON)."""
    out_a = tmp_path / "run-a"
    out_b = tmp_path / "run-b"
    assert main(["verify", "--out", str(out_a), "--seed", "20260823"]) == 0
    assert main(["verify", "--out", str(out_b), "--seed", "20260823"]) == 0
    capsys.readouterr()
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    assert "summary.json" in names_a
    assert len(names_a) >= 6
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    print(
        f"criterion-14 determinism: PASS "
        f"({len(names_a)} artifacts byte-identical across two seeded runs)"
    )
