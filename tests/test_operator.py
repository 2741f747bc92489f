"""Finite truncations: exact sub-stochastic blocks, Weyl defects, eigenvalue clouds.

The load-bearing oracles: in-window mass plus outflow reproduces each
stochastic row exactly; the padded eigenvector annihilates every row whose
support fits in the head; the column-0 coefficient telescopes to a closed
form that a brute-force series sum must reproduce.
"""

import io
import json
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from eigvec_reference import eigvec_entry
from scipy.optimize import linear_sum_assignment

from juliaspec.chain import ChainConfig
from juliaspec.dynamics import FiberedSystem, escape_classify, level_tree, preimages
from juliaspec.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    OutOfRangeError,
)
from juliaspec.numeration import BaseSequence
from juliaspec.operator import (
    build_truncation,
    column0_coefficient,
    eigenvalue_report,
    truncated_eigenvalues,
    weyl_defect,
    weyl_vector,
    write_matrix_csv,
)
from juliaspec.sequences import constant, prefix_then, random_uniform
from juliaspec.verify import _tree_vs_dense


# -- truncation block --------------------------------------------------------


def test_rows_plus_outflow_restore_stochasticity(chains):
    for name, cfg in chains.items():
        tr = build_truncation(cfg, 40)
        assert tr.exact
        for n in range(40):
            assert tr.row_sum(n) + tr.outflow[n] == 1, (name, n)
            cols = [c for c, _ in tr.rows[n]]
            assert cols == sorted(set(cols))


def test_entries_match_transition_rows(chains):
    # The float matrix behind to_dense/apply is pinned to the exact rows it is built from.
    float_chain = ChainConfig(BaseSequence(3), random_uniform("1/3", "9/10", 5))
    for name, cfg in {**chains, "random-uniform": float_chain}.items():
        tr = build_truncation(cfg, 30)
        dense = tr.to_dense()
        for n in range(30):
            row = cfg.transition_row(n)
            for m in range(30):
                assert tr.entry(n, m) == row.probability_to(m), (name, n, m)
                assert dense[n, m] == float(tr.entry(n, m)), (name, n, m)
    cfg = chains["mixed23-harmonic"]
    tr = build_truncation(cfg, 30)
    assert tr.entry(5, 20) == Fraction(0)
    with pytest.raises(OutOfRangeError):
        tr.entry(30, 0)
    with pytest.raises(OutOfRangeError):
        tr.entry(0, -1)
    for size in (0, 2.5, "3", True, None):
        with pytest.raises(OutOfRangeError):
            build_truncation(cfg, size)


def test_float_truncation_for_irrational_specs():
    cfg = ChainConfig(BaseSequence(2), random_uniform("1/2", "3/4", 7))
    tr = build_truncation(cfg, 12)
    assert not tr.exact
    for n in range(12):
        assert isinstance(tr.row_sum(n), float)
        assert tr.row_sum(n) + tr.outflow[n] == pytest.approx(1.0, abs=1e-12)


def test_dense_and_actions_agree(chains):
    cfg = chains["binary-geometric"]
    tr = build_truncation(cfg, 24)
    a = tr.to_dense()
    assert a.shape == (24, 24)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    u = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    np.testing.assert_allclose(tr.apply(v), a @ v, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(tr.apply_dual(u), u @ a, rtol=1e-13, atol=1e-13)
    # Row and column actions are adjoint with respect to the bilinear pairing.
    assert np.dot(u, tr.apply(v)) == pytest.approx(np.dot(tr.apply_dual(u), v))
    with pytest.raises(DimensionMismatchError):
        tr.apply(np.ones(25))
    with pytest.raises(DimensionMismatchError):
        tr.apply_dual(np.ones(23))
    for bad in (["a"] * 24, "a" * 24, [object()] * 24, [{}] * 24):
        with pytest.raises(OutOfRangeError):
            tr.apply(bad)
        with pytest.raises(OutOfRangeError):
            tr.apply_dual(bad)


def test_actions_refuse_none_entries(chains):
    # numpy reads None as NaN; the actions refuse it, and keep taking the
    # non-finite floats that an overflowing Weyl vector carries.
    tr = build_truncation(chains["binary-p34"], 4)
    for bad in ([None, 1, 2, 3], np.array([1, None, 2, 3], dtype=object)):
        with pytest.raises(OutOfRangeError, match="None"):
            tr.apply(bad)
        with pytest.raises(OutOfRangeError, match="None"):
            tr.apply_dual(bad)
    assert np.isnan(tr.apply([float("nan"), 1, 2, 3])[0])
    assert np.isinf(tr.apply_dual([float("inf"), 1, 2, 3])).any()


# -- column pattern beyond the head ------------------------------------------


def test_rows_past_head_touch_only_columns_zero_and_q(chains):
    # A row at i >= q_n can reach a column <= q_n only by zeroing a full
    # prefix: the landing spots are exactly 0 and q_n.
    for name, cfg in chains.items():
        for level in (1, 2):
            q = cfg.base.place_value(level)
            tr = build_truncation(cfg, 2 * q)
            for i in range(q, 2 * q):
                low = {c for c, _ in tr.rows[i] if c <= q}
                assert low <= {0, q}, (name, level, i, low)


# -- Weyl vectors and defects ------------------------------------------------


def test_weyl_vector_head_and_padding(systems):
    # The Kronecker-product head equals the per-index digit products exactly.
    lam = 0.3 + 0.2j
    for name, sys in systems.items():
        for level in (3, 5):
            k = sys.base.place_value(level)
            w = weyl_vector(sys, lam, level, 2 * k)
            assert w.shape == (2 * k,)
            for m in range(k + 1):
                assert w[m] == eigvec_entry(sys, lam, m), (name, level, m)
            assert np.all(w[k + 1 :] == 0)
    sys = systems["binary-p34"]
    k = sys.base.place_value(3)
    with pytest.raises(OutOfRangeError):
        weyl_vector(sys, lam, 3, k)  # cannot hold entries 0..k
    with pytest.raises(OutOfRangeError):
        weyl_vector(sys, lam, 0, 64)


def test_weyl_defect_matches_dense_recomputation(chains, systems):
    cfg, sys = chains["binary-p34"], systems["binary-p34"]
    lam = 0.3 + 0.2j
    for alpha in (1.0, 2.0):
        d = weyl_defect(cfg, sys, lam, level=3, alpha=alpha)
        assert d.k == 8 and d.size == 16
        a = build_truncation(cfg, 16).to_dense()
        w = weyl_vector(sys, lam, 3, 16)
        u = a @ w - lam * w
        want = np.linalg.norm(u, ord=alpha) / np.linalg.norm(w, ord=alpha)
        assert d.defect == pytest.approx(want, rel=1e-12)
        assert d.head_norm == pytest.approx(np.linalg.norm(w, ord=alpha), rel=1e-12)
        json.dumps(d.to_json())


def test_weyl_defect_is_python_complex_arithmetic(chains, systems):
    # λ·w must round as Python's complex product entry by entry: numpy's complex
    # multiply may fuse multiply-adds, which would make the defect CPU-dependent.
    rng = np.random.default_rng(5)
    lams = [complex(x, y) for x, y in rng.uniform(-0.6, 0.6, size=(4, 2))]
    checked = 0
    for name in systems:
        cfg, sys = chains[name], systems[name]
        for lam in lams:
            for level in (3, 6):
                for alpha in (1.0, 2.0):
                    try:
                        d = weyl_defect(cfg, sys, lam, level, alpha)
                    except OutOfRangeError:
                        continue  # λ escapes too fast for this level
                    w = weyl_vector(sys, lam, level, d.size)
                    lam_w = np.array([lam * x for x in w.tolist()])
                    u = build_truncation(cfg, d.size).apply(w) - lam_w
                    want = float(np.linalg.norm(u, ord=alpha)) / float(np.linalg.norm(w, ord=alpha))
                    assert d.defect == want, (name, lam, level, alpha)
                    checked += 1
    assert checked >= 40


def test_weyl_defect_raises_where_it_would_overflow(chains, systems):
    # λ = 0.3+0.2i escapes the dendrite's filled set; by level 10 its head
    # overflows double precision, which used to surface as defect = bound = nan.
    cfg, sys = chains["dendrite"], systems["dendrite"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfRangeError):
            weyl_defect(cfg, sys, 0.3 + 0.2j, level=10)
        assert np.isfinite(weyl_defect(cfg, sys, 0.3 + 0.2j, level=9).defect)


def test_weyl_rows_inside_head_are_annihilated(chains, systems):
    # (A - lambda I) w vanishes on every row n < q_level: those rows read
    # only head columns, where w satisfies the eigen identity exactly.
    cases = [("dendrite", 0.3), ("binary-p34", 0.3 + 0.2j), ("mixed23-harmonic", 0.1)]
    for name, lam in cases:
        cfg, sys = chains[name], systems[name]
        k = cfg.base.place_value(3)
        tr = build_truncation(cfg, 2 * k)
        w = weyl_vector(sys, lam, 3, 2 * k)
        u = tr.apply(w) - lam * w
        assert np.max(np.abs(u[:k])) < 1e-10, name


def test_weyl_defect_obeys_closed_form_bound(chains, systems):
    cfg, sys = chains["binary-p34"], systems["binary-p34"]
    for lam in (0.3 + 0.2j, 0.1, 0.4j):
        for alpha in (1.0, 2.0):
            for level in (2, 3, 4):
                d = weyl_defect(cfg, sys, lam, level, alpha)
                assert d.defect <= d.bound + 1e-12, (lam, alpha, level)
    with pytest.raises(OutOfRangeError):
        weyl_defect(cfg, sys, 0.3, level=3, alpha=0.5)
    # A chain and a system of different (d, p): the dendrite chain with this system
    # gave defect 0.312 above its own bound 0.260 at level 5.
    for other in ("dendrite", "ternary-p12"):
        with pytest.raises(OutOfRangeError):
            weyl_defect(chains[other], sys, 0.3 + 0.2j, level=5)


def test_weyl_coefficients(chains, systems):
    cfg, sys = chains["binary-p34"], systems["binary-p34"]
    lam = 0.3 + 0.2j
    d = weyl_defect(cfg, sys, lam, level=4, alpha=2.0)
    assert d.coeff_col0 == pytest.approx(float(cfg.success_prefix(5)))
    want_ck = abs(1 - 0.75 - lam) + 0.75 - float(cfg.success_prefix(5))
    assert d.coeff_colk == pytest.approx(want_ck)


def test_weyl_defect_decays_with_level(chains, systems):
    cfg, sys = chains["binary-p34"], systems["binary-p34"]
    for alpha in (1.0, 2.0):
        d3 = weyl_defect(cfg, sys, 0.3 + 0.2j, 3, alpha)
        d5 = weyl_defect(cfg, sys, 0.3 + 0.2j, 5, alpha)
        assert d5.defect < d3.defect


def test_column0_coefficient_closed_forms(chains):
    # Vanishing success product: the tail telescopes to the head product.
    dend = chains["dendrite"]
    for level in range(5):
        c = column0_coefficient(dend, level)
        assert isinstance(c, Fraction)
        assert c == Fraction(1, 2 ** (level + 1))
    # Positive limit: head minus limit, cross-checked by direct summation.
    geo = chains["binary-geometric"]
    c2 = column0_coefficient(geo, 2)
    brute = 0.0
    prod = 1.0
    for j in range(1, 401):
        prod *= geo.p_float(j)
        if j >= 3:
            brute += (1.0 - geo.p_float(j + 1)) * prod
    assert c2 == pytest.approx(brute, rel=1e-10)
    with pytest.raises(OutOfRangeError):
        column0_coefficient(dend, -1)


def test_column0_coefficient_inconclusive_fallback():
    cfg = ChainConfig(BaseSequence(2), random_uniform("1/2", 1, 11))
    c = column0_coefficient(cfg, 2)
    assert isinstance(c, float)
    assert 0.0 <= c <= float(cfg.success_prefix(3))


# -- eigenvalue clouds -------------------------------------------------------


def test_truncated_eigenvalues_shape_and_bounds(systems):
    vals = truncated_eigenvalues(systems["dendrite"], 32)
    assert vals.shape == (32,)
    mods = np.abs(vals)
    # Sub-stochastic real matrix: spectrum in the closed unit disk,
    # sorted by non-increasing modulus, closed under conjugation.
    assert np.all(mods <= 1 + 1e-8)
    assert np.all(np.diff(mods) <= 1e-12)
    np.testing.assert_allclose(
        np.sort_complex(vals), np.sort_complex(np.conj(vals)), atol=1e-9
    )


def test_truncated_eigenvalues_cap(monkeypatch, systems):
    # Past the old 4096 cap of the dense route: q_12 + 1 is T_12 plus T_0.
    vals = truncated_eigenvalues(systems["dendrite"], 4097)
    assert vals.shape == (4097,)
    assert np.count_nonzero(vals == 0.5) == 1  # T_0 = {1 - p_1}
    # The 2^20 leaf cap refuses before any tree is built.
    import juliaspec.operator as op

    monkeypatch.setattr(op, "level_tree", None)
    with pytest.raises(BudgetExceededError):
        truncated_eigenvalues(systems["dendrite"], (1 << 20) + 1)
    with pytest.raises(OutOfRangeError):
        truncated_eigenvalues(systems["dendrite"], 0)


def test_truncation_sizes_past_the_cap_are_refused_before_allocating(chains, systems):
    # A truncation's spectrum is its tree leaves, so it shares their 2^20 cap;
    # size 2^20 itself builds (tests/test_truncation_reference.py).
    cfg, sys = chains["dendrite"], systems["dendrite"]
    cfg.level(22), sys.level(22)  # the level tables, so that only the refused calls are traced
    for call in (
        lambda: build_truncation(cfg, (1 << 20) + 1),
        lambda: weyl_defect(cfg, sys, 0.3 + 0.2j, 20),  # size 2 q_20 = 2^21
    ):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def _multiset_gap(a, b) -> float:
    """Largest distance in the closest one-to-one pairing of two point multisets."""
    dist = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(dist)
    return float(dist[rows, cols].max())


def test_tree_route_matches_dense_eigensolve(chains, systems):
    for name, cfg in chains.items():
        sizes = [cfg.base.place_value(n) for n in range(7)] + [45, 100, 199]
        for size in sizes:
            vals = truncated_eigenvalues(systems[name], size)
            assert vals.shape == (size,)
            assert np.all(np.diff(np.abs(vals)) <= 0), (name, size)
            dense = np.linalg.eigvals(build_truncation(cfg, size).to_dense())
            assert _multiset_gap(vals, dense) <= 1e-11, (name, size)
    assert truncated_eigenvalues(systems["dendrite"], 1).tolist() == [0.5]  # [1 - p_1]


def test_level_tree_is_the_zeros_tree_without_its_multiplicity(systems):
    # f̃_n⁻¹{0} is T_{n-1} taken d_n times, in the same tree order.
    for name, sys in systems.items():
        for n in range(1, 9):
            if sys.base.place_value(n) > 1300:
                break
            zeros = np.array(preimages(sys, 0.0, n)).reshape(sys.digit_base(n), -1)
            gap = np.abs(zeros - level_tree(sys, n - 1)).max()
            assert gap <= 1e-15, (name, n, gap)
    tree = level_tree(systems["dendrite"], 3)
    assert tree is level_tree(systems["dendrite"], 3)
    assert not tree.flags.writeable


def test_tree_route_keeps_repeated_roots():
    # p_{n+1} = 1 makes the target 0, the critical value of f_n: every
    # eigenvalue of the q_n truncation is then a d-fold root.
    base = BaseSequence(3)
    cfg = ChainConfig(base, prefix_then(["1/2", "1/2", "1"], constant("1/2")))
    vals = truncated_eigenvalues(FiberedSystem(base, cfg.p), 9)
    dense = np.linalg.eigvals(build_truncation(cfg, 9).to_dense())
    assert _multiset_gap(vals, dense) <= 1e-9
    assert len({complex(round(z.real, 6), round(z.imag, 6)) for z in vals}) == 3
    ok, detail = _tree_vs_dense(cfg, (2,))
    assert ok and "largest cluster 3" in detail, detail


def _lsa_tree_vs_dense(cfg, levels, sizes=()):
    """The reference: the tree-vs-dense check with the spectra paired by linear_sum_assignment."""
    sys = FiberedSystem(cfg.base, cfg.p)
    worst, worst_ratio, largest = 0.0, 0.0, 1
    for size in [cfg.base.place_value(n) for n in levels] + list(sizes):
        tree = truncated_eigenvalues(sys, size)
        dense = np.linalg.eigvals(build_truncation(cfg, size).to_dense())
        dist = np.abs(tree[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(dist)
        mult = (np.abs(tree[:, None] - tree[None, :]) <= 1e-6).sum(axis=1)[rows]
        err = dist[rows, cols]
        tol = (1e4 * np.finfo(float).eps) ** (1.0 / mult)
        worst = max(worst, float(err.max()))
        worst_ratio = max(worst_ratio, float((err / tol).max()))
        largest = max(largest, int(mult.max()))
    names = ", ".join([f"q_{n}" for n in levels] + [str(size) for size in sizes])
    detail = f"max |tree - dense| {worst:.3e} at {names} (largest cluster {largest})"
    if worst_ratio > 1:
        return False, detail + " exceeds the cluster tolerance"
    return True, detail


def test_nearest_match_reports_what_the_assignment_reported(chains):
    repeated = ChainConfig(BaseSequence(3), prefix_then(["1/2", "1/2", "1"], constant("1/2")))
    cases = [(cfg, (3, 4), (45, 199)) for cfg in chains.values()] + [(repeated, (2,), (5, 9))]
    for cfg, levels, sizes in cases:
        assert _tree_vs_dense(cfg, levels, sizes) == _lsa_tree_vs_dense(cfg, levels, sizes)


def _doctored_eigvals(monkeypatch, doctor):
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: doctor(eigvals(a)))


def test_tree_vs_dense_fails_on_an_eigenvalue_moved_to_another_cluster(chains, monkeypatch):
    cfg = chains["dendrite"]
    assert _tree_vs_dense(cfg, (3,))[0]

    def move(dense):
        dense = dense.copy()
        far = np.abs(dense - dense[0]).argmax()
        dense[0] = dense[far]  # one cluster short, another one over
        return dense

    _doctored_eigvals(monkeypatch, move)
    ok, detail = _tree_vs_dense(cfg, (3,))
    assert not ok and "clusters" in detail, detail


def test_tree_vs_dense_fails_on_an_eigenvalue_past_its_tolerance(chains, monkeypatch):
    cfg = chains["dendrite"]

    def nudge(dense):
        dense = dense.copy()
        dense[0] += 1e-9  # a simple root's tolerance is 1e4 ε ≈ 2.2e-12; its neighbours are far
        return dense

    _doctored_eigvals(monkeypatch, nudge)
    ok, detail = _tree_vs_dense(cfg, (3,))
    assert not ok and "exceeds the cluster tolerance" in detail, detail


def test_tree_route_past_the_dense_cap(systems):
    vals = truncated_eigenvalues(systems["dendrite"], 8192)  # q_13
    assert vals.shape == (8192,)
    err = max(abs(systems["dendrite"].composed(13, z) - 0.5) for z in vals)
    assert err <= 1e-8


def test_eigenvalue_report_tags(systems):
    rep = eigenvalue_report(systems["ternary-p12"], 27)
    assert len(rep) == 27
    allowed = {"escaped", "certified-bounded", "bounded-at-budget"}
    for item in rep:
        assert set(item) == {"re", "im", "modulus", "verdict"}
        assert item["verdict"] in allowed
        assert item["modulus"] == pytest.approx(abs(complex(item["re"], item["im"])))
    json.dumps(rep)


def test_eigenvalue_report_block_tags_match_per_lambda_tests(systems):
    # Off the place values the union mixes trees; each point keeps its own tree's tag.
    verdict = {(True, False): "escaped", (False, True): "certified-bounded",
               (False, False): "bounded-at-budget"}
    for name, sys in systems.items():
        for size, budget in ((45, 40), (100, 3), (199, 60)):
            for item in eigenvalue_report(sys, size, budget):
                o = escape_classify(sys, complex(item["re"], item["im"]), budget)
                assert item["verdict"] == verdict[o.escaped, o.certified_bounded], (name, size)


# -- CSV output --------------------------------------------------------------


def test_matrix_csv_exact_golden(chains):
    buf = io.StringIO()
    write_matrix_csv(build_truncation(chains["dendrite"], 3), buf)
    assert buf.getvalue() == (
        "row,col,num,den\n"
        "0,0,1,2\n"
        "0,1,1,2\n"
        "1,0,1,4\n"
        "1,1,1,2\n"
        "1,2,1,4\n"
        "2,2,1,2\n"
    )


def test_matrix_csv_float_branch():
    cfg = ChainConfig(BaseSequence(2), random_uniform("1/2", "3/4", 7))
    buf = io.StringIO()
    tr = build_truncation(cfg, 4)
    write_matrix_csv(tr, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 1 + sum(len(r) for r in tr.rows)
    n, c, val = lines[1].split(",")
    assert float(val) == float(tr.entry(int(n), int(c)))


def test_truncation_holds_the_chains_laws(chains):
    for name, cfg in chains.items():
        for size in (1, 2, 100, 1296):
            tr = build_truncation(cfg, size)
            assert len(tr.laws) == cfg.base.level_of(size), (name, size)
            assert all(law is cfg.row_law(z) for z, law in enumerate(tr.laws, start=1)), (name, size)
            assert not {"masses", "place_values", "_templates"} & set(dir(tr))


def test_a_move_up_that_underflows_is_left_out():
    # p_j below 1e-199: P_2 underflows to 0.0, so no row with ζ >= 2 moves up.
    cfg = ChainConfig(BaseSequence(2), random_uniform("1e-200", "1e-199", 3))
    assert [d for d, _ in cfg.row_law(2)] == [-1, 0]
    tr = build_truncation(cfg, 4)
    assert [c for c, _ in tr.rows[1]] == [0, 1] and [c for c, _ in tr.rows[2]] == [2, 3]
    assert type(tr.lost) is float and tr.lost == tr.outflow[-1] == 0.0
    dense = tr.to_dense()
    assert dense[1, 2] == dense[3, 0] == 0.0 and dense[2, 3] == cfg.p_float(1)
    e = np.eye(4)
    assert tr.apply(e[2])[1] == 0 and tr.apply_dual(e[1])[2] == 0
