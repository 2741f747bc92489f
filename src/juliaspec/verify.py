"""Cross-module invariant suite with deterministic artifacts.

`run_verify` executes a battery of exact and numerical checks over the five
canonical configurations and writes a fixed set of CSV/PPM/JSON artifacts.
Every byte of output is a pure function of the seed, so two runs with the
same seed must produce identical files — that determinism is itself part of
the contract and is checked in-process here as well.

Each check yields (name, ok, detail); the suite passes only if all do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import chain as chain_mod
from .canonical import CANONICAL_NAMES, canonical_config
from .chain import ChainConfig, Recurrence
from .dynamics import (
    FiberedSystem,
    TrapDisk,
    _c_mul,
    _ipow,
    _unit_root,
    eigvec_head,
    escape_classify,
    factor_trace,
    factor_values,
    level_tree,
    preimages,
    residual_set,
)
from .jsontext import indented_json
from .operator import (
    _block_outcome,
    _verdict,
    build_truncation,
    eigenvalue_report,
    truncated_eigenvalues,
    weyl_defect,
    write_eigenvalue_csv,
)
from .render import EscapeField, GridSpec, render_field, write_field_csv, write_image, write_points_csv

__all__ = ["CheckResult", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _row_stochastic(cfg: ChainConfig, limit: int) -> tuple[bool, str]:
    for n in range(limit):
        total = cfg.transition_row(n).total()
        if total != 1:
            return False, f"row {n} sums to {total}"
    return True, f"rows 0..{limit - 1} sum to 1 exactly"


def _column_telescoping(cfg: ChainConfig, limit: int) -> tuple[bool, str]:
    # Column m of the transition matrix: sources m-1 (head advance), m
    # (self-loop) and m + q_r - 1 for 1 <= r < ξ_m (failed carries).
    for m in range(1, limit):
        total = cfg.transition_row(m - 1).probability_to(m)
        total += cfg.transition_row(m).probability_to(m)
        xi = cfg.base.first_nonzero(m)
        for r in range(1, xi):
            src = m + cfg.base.place_value(r) - 1
            total += cfg.transition_row(src).probability_to(m)
        if total != 1:
            return False, f"column {m} sums to {total}"
    return True, f"columns 1..{limit - 1} sum to 1 exactly"


def _self_similarity(cfg: ChainConfig, max_level: int) -> tuple[bool, str]:
    # For n in [q_{j-1}, q_j - 1), stripping the top digit shifts the whole
    # row: s(n, m) = s(n - shift, m - shift) with shift = a_j(n) q_{j-1}.
    checked = 0
    for j in range(2, max_level + 1):
        qjm1 = cfg.base.place_value(j - 1)
        qj = cfg.base.place_value(j)
        for n in range(qjm1, qj - 1):
            digits = cfg.base.to_digits(n)
            shift = digits[j - 1] * qjm1 if len(digits) >= j else 0
            if shift == 0:
                continue
            row = cfg.transition_row(n)
            row0 = cfg.transition_row(n - shift)
            got = {t - shift: v for t, v in row.entries}
            want = dict(row0.entries)
            if got != want:
                return False, f"self-similarity fails at n={n} (level {j})"
            checked += 1
    return True, f"{checked} shifted rows match exactly"


def _sample_inside_lambdas(
    sys: FiberedSystem, rng: np.random.Generator, count: int
) -> list[complex]:
    """Sample certified members of the filled set: preimages of the fixed point 1 at depth 5.

    Rejection sampling against the escape test would stall on thin filled
    sets (their neighborhoods have tiny area); preimages of 1 are inside by
    construction, at every parameter choice.
    """
    pts = preimages(sys, 1.0, 5)
    idx = rng.choice(len(pts), size=count, replace=len(pts) < count)
    return [pts[int(i)] for i in idx]


def _eigen_identity(
    cfg: ChainConfig, sys: FiberedSystem, lams, limit: int, tol: float
) -> tuple[bool, str]:
    # Rows 0..limit-1 reach at most column limit, so none loses mass to the cut.
    trunc = build_truncation(cfg, limit + 1)
    worst = 0.0
    for lam in lams:
        values = np.array(eigvec_head(sys, lam, limit + 1))
        head = values[:limit]
        # λ·v as Python's complex product: numpy's complex multiply fuses (FMA) on
        # some CPUs, which would make the residual in summary.json machine-dependent.
        lam_re, lam_im = _c_mul(lam.real, lam.imag, head.real, head.imag)
        resid = trunc.apply(values)[:limit] - (lam_re + 1j * lam_im)
        worst = max(worst, float(np.abs(resid).max()))
    if worst >= tol:
        return False, f"max eigen-identity residual {worst:.3e} >= {tol}"
    return True, f"max eigen-identity residual {worst:.3e}"


def _tree_vs_dense(cfg: ChainConfig, levels, sizes=()) -> tuple[bool, str]:
    # truncated_eigenvalues returns the tree f̃_n⁻¹{1 - p_{n+1}} at size q_n and a
    # union of such trees at any other size.  Match the dense eigensolve to it as
    # multisets: each dense eigenvalue goes to its nearest tree point, and each
    # cluster of k tree points (within 1e-6 of each other) must receive exactly k.
    # Newton and LAPACK reach only about ε^{1/k} at a k-fold root, so each pair's
    # tolerance is (1e4 ε)^{1/k}.
    sys = FiberedSystem(cfg.base, cfg.p)
    worst, worst_ratio, largest = 0.0, 0.0, 1
    for size in [cfg.base.place_value(n) for n in levels] + list(sizes):
        tree = truncated_eigenvalues(sys, size)
        dense = np.linalg.eigvals(build_truncation(cfg, size).to_dense())
        near = np.abs(tree[:, None] - tree[None, :]) <= 1e-6
        cluster, mult = near.argmax(axis=1), near.sum(axis=1)  # a cluster is named by its first point
        nearest = np.abs(dense[:, None] - tree[None, :]).argmin(axis=1)
        if not np.array_equal(np.sort(cluster[nearest]), np.sort(cluster)):
            return False, f"at size {size} the dense eigenvalues do not fill the tree's clusters"
        err = np.abs(dense - tree[nearest])
        tol = (1e4 * np.finfo(float).eps) ** (1.0 / mult[nearest])
        worst = max(worst, float(err.max()))
        worst_ratio = max(worst_ratio, float((err / tol).max()))
        largest = max(largest, int(mult.max()))
    names = ", ".join([f"q_{n}" for n in levels] + [str(size) for size in sizes])
    detail = f"max |tree - dense| {worst:.3e} at {names} (largest cluster {largest})"
    if worst_ratio > 1:
        return False, detail + " exceeds the cluster tolerance"
    return True, detail


def _hit_probability(cfg: ChainConfig, start: int, horizon: int) -> float:
    """P_start(visit 0 within horizon steps), exactly up to float rounding.

    v_t(n) = P_n(visit 0 within t steps) obeys v_0 = e_0 and v_{t+1} = A·v_t off
    state 0, with v_{t+1}(0) = 1.  A chain moves up by at most one per step, so
    v_horizon(start) reads v_t only on states <= start + horizon - t: step t
    computes those rows alone, and the truncation to start + horizon + 1
    states holds every row and column they read.
    """
    size = start + horizon + 1
    trunc = build_truncation(cfg, size)
    v = np.zeros(size)
    v[0] = 1.0
    for stop in range(size - 1, start, -1):
        v = trunc._row_action(v, stop)
        v[0] = 1.0
    return float(v[start])


def _mc_vs_exact(name: str, start: int, trajectories: int, horizon: int) -> tuple[bool, str]:
    # The Wilson interval of a run must bracket the exact value.  The run uses
    # the canonical seed, never the --seed of verify: a 95% interval misses by
    # chance for about one seed in twenty, so a check that followed --seed
    # would fail on correct code.
    rc = canonical_config(name)
    cfg = rc.chain()
    stats = cfg.return_statistics(start, trajectories, horizon, rc.seed)
    exact = _hit_probability(cfg, start, horizon)
    detail = (
        f"{stats.hits}/{trajectories} returned from {start} within {horizon} "
        f"(canonical seed {rc.seed}): "
        f"Wilson [{stats.ci_low:.4f}, {stats.ci_high:.4f}] vs exact {exact:.5f}"
    )
    return stats.ci_low <= exact <= stats.ci_high, detail


def _block_tags(sys: FiberedSystem, levels, budget: int) -> tuple[bool, str]:
    # eigenvalue_report tags each tree T_k from one escape test; the per-λ test
    # must agree with it, escape step included.
    tags = []
    for k in levels:
        block = _block_outcome(sys, k, budget)
        want = (_verdict(block), block.step)
        for lam in level_tree(sys, k).tolist():
            o = escape_classify(sys, lam, budget)
            if (_verdict(o), o.step) != want:
                return False, f"λ={lam!r} in T_{k}: {_verdict(o)} at step {o.step}, block {want}"
        tags.append(f"T_{k} {want[0]}" + (f" at step {block.step}" if block.escaped else ""))
    return True, f"per-λ escape tests match the block tags at budget {budget}: " + ", ".join(tags)


def _factor_routes(sys: FiberedSystem, lams, depth: int, tol: float) -> tuple[bool, str]:
    # Route 1: the factor recursion; route 2: apply the affine map to the
    # composed orbit directly.  Also the power identity composed = factor^d.
    worst = 0.0
    for lam in lams:
        fac = factor_values(sys, lam, depth)
        w = complex(lam)
        for r in range(1, depth + 1):
            direct = sys.affine(r, w)  # h_r(f̃_{r-1}(λ))
            worst = max(worst, abs(direct - fac[r - 1]))
            w = sys.fiber(r, w)
            worst = max(worst, abs(w - fac[r - 1] ** sys.digit_base(r)))
            if abs(w) > 1e6:
                break
    if worst >= tol:
        return False, f"max two-route factor deviation {worst:.3e} >= {tol}"
    return True, f"max two-route factor deviation {worst:.3e}"


def _escape_disk_bound(sys: FiberedSystem, rng: np.random.Generator) -> tuple[bool, str]:
    # Everything strictly outside D̄(1-p_1, p_1) leaves at the first level.
    center, radius, _ = sys.level(1)
    for _ in range(50):
        rho = radius + 0.01 + rng.random()
        theta = 2.0 * np.pi * rng.random()
        z = complex(center + rho * np.cos(theta), rho * np.sin(theta))
        out = escape_classify(sys, z, 5)
        if not out.escaped or out.step != 1:
            return False, f"point {z} outside the covering disk did not escape at step 1"
    return True, "50 points outside the covering disk escape at step 1"


def _trap_invariance(sys: FiberedSystem, disk: TrapDisk, on_factor: bool) -> tuple[bool, str]:
    """Points on the boundary of a trap disk at its first level stay in the disk.

    `on_factor` reads the disk on ι_j (the contraction disk), else on f̃_j
    (the cycle disk).  The 64 boundary points are center + radius·e^{2πik/64};
    each is followed for 64 levels, and the check fails when one ends a
    level farther than radius·(1 + 1e-12) from the center.
    """
    start, center, radius = disk.start, disk.center, disk.radius
    worst = 0.0
    for k in range(64):
        x = center + radius * _unit_root(k, 64)
        w = _ipow(x, sys.digit_base(start)) if on_factor else x  # f̃ at the start level
        for iota, w in islice(sys.orbit(w, start + 1), 64):
            worst = max(worst, abs((iota if on_factor else w) - center) / radius)
    what = "ι_j" if on_factor else "f̃_j"
    detail = (
        f"64 points on |{what} - {center.real:.6g}| = {radius:.6g} at level {start}: "
        f"largest distance/radius over 64 levels {worst:.6f}"
    )
    return worst <= 1 + 1e-12, detail


def _mirror_symmetry(field: EscapeField) -> tuple[bool, str]:
    inside = field.inside
    if not np.array_equal(inside, inside[::-1, :]):
        return False, "inside mask is not symmetric under conjugation"
    return True, "inside mask symmetric under conjugation"


def _round_trip(grid: GridSpec) -> tuple[bool, str]:
    for row in range(grid.height):
        for col in range(grid.width):
            if grid.pixel_of(grid.complex_at(row, col)) != (row, col):
                return False, f"pixel ({row}, {col}) does not round-trip"
    return True, "pixel->complex->pixel is the identity"


def run_verify(out_dir: str, seed: int | None = None) -> list[CheckResult]:
    """Run the suite, write artifacts under out_dir, return all check results.

    Each canonical configuration gets one chain and one fibered system, and
    the checks read them.  Two helpers build their own: `_tree_vs_dense` a
    system from the chain it is given, and `_mc_vs_exact` the canonical
    chain, since it runs with the canonical seed under any --seed.
    """
    configs = {name: canonical_config(name) for name in CANONICAL_NAMES}
    if seed is not None:
        configs = {name: rc.with_seed(seed) for name, rc in configs.items()}
    models = {name: (rc.chain(), rc.system()) for name, rc in configs.items()}
    os.makedirs(out_dir, exist_ok=True)
    results: list[CheckResult] = []

    def check(name: str, ok, detail: str):
        results.append(CheckResult(name, bool(ok), str(detail)))

    # Exact structure of the transition matrix, all five configs.
    for name, (cfg, _) in models.items():
        limit = cfg.base.place_value(3)
        ok, detail = _row_stochastic(cfg, limit)
        check(f"row-stochastic[{name}]", ok, detail)
        ok, detail = _column_telescoping(cfg, limit)
        check(f"column-telescoping[{name}]", ok, detail)
        ok, detail = _self_similarity(cfg, 3)
        check(f"self-similarity[{name}]", ok, detail)

    # Eigen-identity and factor-route agreement on sampled bounded points.
    for name, (cfg, sys) in models.items():
        rng = np.random.default_rng([configs[name].seed, 1])
        lams = _sample_inside_lambdas(sys, rng, 5)
        limit = cfg.base.place_value(3) - 1
        ok, detail = _eigen_identity(cfg, sys, lams, limit, 1e-9)
        check(f"eigen-identity[{name}]", ok, detail)
        disk = [
            complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(10)
        ]
        ok, detail = _factor_routes(sys, disk, 15, 1e-10)
        check(f"factor-routes[{name}]", ok, detail)
        ok, detail = _escape_disk_bound(sys, rng)
        check(f"escape-disk-bound[{name}]", ok, detail)

    # Every canonical trap disk maps into itself.
    for name, (_, sys) in models.items():
        for kind, disk in (("contraction", sys.contraction_disk), ("cycle", sys.cycle_disk)):
            if disk is not None:
                ok, detail = _trap_invariance(sys, disk, on_factor=kind == "contraction")
                check(f"trap-invariance[{name}:{kind}]", ok, detail)

    # Truncation spectra from the tree table against the dense oracle, and the
    # block tags of eigenvalue_report against per-λ escape tests.
    for name, (cfg, _) in models.items():
        ok, detail = _tree_vs_dense(cfg, (3, 4), (45, 199))
        check(f"truncation-tree-vs-dense[{name}]", ok, detail)
    for name, (_, sys) in models.items():
        ok, detail = _block_tags(sys, (3, 4), 40)
        check(f"truncation-block-tags[{name}]", ok, detail)

    # Recurrence classification and Monte Carlo witnesses.
    expected = {
        "dendrite": Recurrence.NULL_RECURRENT,
        "mixed23-harmonic": Recurrence.NULL_RECURRENT,
        "binary-geometric": Recurrence.TRANSIENT,
    }
    for name, want in expected.items():
        got = models[name][0].classify_recurrence()
        check(
            f"recurrence[{name}]",
            got is want,
            f"classified {got.value} (expected {want.value})",
        )

    cfg_d, sys_d = models["dendrite"]
    cfg_g, _ = models["binary-geometric"]
    stats = cfg_d.return_statistics(
        start=1, trajectories=100, horizon=20_000, seed=configs["dendrite"].seed
    )
    check(
        "mc-return[dendrite]",
        stats.fraction >= 0.95,
        f"{stats.hits}/{stats.trajectories} trajectories returned to 0",
    )
    q3 = cfg_g.base.place_value(3)
    stats_t = cfg_g.return_statistics(
        start=q3, trajectories=100, horizon=20_000, seed=configs["binary-geometric"].seed
    )
    check(
        "mc-return[binary-geometric]",
        stats_t.fraction <= 0.90,
        f"{stats_t.hits}/{stats_t.trajectories} trajectories returned to 0 from {q3}",
    )

    for name, start in (("dendrite", 1), ("binary-geometric", q3)):
        ok, detail = _mc_vs_exact(name, start, 400, 2000)
        check(f"mc-vs-exact[{name}]", ok, detail)

    # Residual candidate set of the dendrite case collapses to exactly {1}, also
    # at the leaf cap, where preimages of 0 come 4 times closer to 1 per level
    # (9.2e-9 at depth 14): no distance test tells them from 1 there.
    for name, depth in (("residual-dendrite", 4), ("residual-dendrite-deep", 20)):
        rs = residual_set(sys_d, depth)
        check(
            name,
            rs == (1 + 0j,),
            f"{len(rs)} candidate point(s), nearest-to-1 error "
            f"{min((abs(z - 1) for z in rs), default=float('nan')):.2e}",
        )
    rs = residual_set(sys_d, 4)

    # Weyl defect shrinks with the level and respects its closed-form bound.
    # The probe point must lie inside the filled set for the construction to
    # mean anything; 0.3+0.2i is inside for p≡3/4 (it escapes under p≡1/2).
    cfg_w, sys_w = models["binary-p34"]
    lam = 0.3 + 0.2j
    w2 = weyl_defect(cfg_w, sys_w, lam, level=2, alpha=2.0)
    w5 = weyl_defect(cfg_w, sys_w, lam, level=5, alpha=2.0)
    check(
        "weyl-decay[binary-p34]",
        w5.defect < w2.defect and w5.defect <= w5.bound * (1 + 1e-12),
        f"defect(level 5) = {w5.defect:.3e} < defect(level 2) = {w2.defect:.3e}, "
        f"bound {w5.bound:.3e}",
    )

    # Factors of λ = 1 stay pinned at the fixed point.
    tr = factor_trace(sys_d, 1.0, 30)
    check(
        "unit-factor-trace",
        all(v == 1 for v in tr.values),
        "factors at λ=1 are identically 1",
    )

    # Raster artifacts: field, image, trajectory, residual set, eigenvalues.
    grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 96, 96, max_iter=60)
    field = render_field(sys_d, grid)
    ok, detail = _mirror_symmetry(field)
    check("render-mirror[dendrite]", ok, detail)
    ok, detail = _round_trip(GridSpec(-1.5, 1.5, -1.0, 1.0, 48, 32, max_iter=5))
    check("grid-round-trip", ok, detail)

    field2 = render_field(sys_d, grid)
    check(
        "render-deterministic",
        np.array_equal(field.steps, field2.steps),
        "two renders of the same grid agree pixelwise",
    )

    with open(os.path.join(out_dir, "field-dendrite.ppm"), "wb") as fh:
        write_image(field, fh, overlays=[(rs, (255, 255, 255))])
    with open(os.path.join(out_dir, "field-dendrite.csv"), "w", encoding="utf-8", newline="\n") as fh:
        write_field_csv(field, fh)

    traj = cfg_d.simulate(start=1, steps=300, seed=configs["dendrite"].seed)
    with open(os.path.join(out_dir, "trajectory-dendrite.csv"), "w", encoding="utf-8", newline="\n") as fh:
        chain_mod.write_trajectory_csv(cfg_d, traj, fh)

    with open(os.path.join(out_dir, "residual-dendrite.csv"), "w", encoding="utf-8", newline="\n") as fh:
        write_points_csv(rs, fh)

    eig = eigenvalue_report(sys_d, size=32, budget=40)
    with open(os.path.join(out_dir, "eigenvalues-dendrite.csv"), "w", encoding="utf-8", newline="\n") as fh:
        write_eigenvalue_csv(eig, fh)

    summary = {
        "seed": {name: rc.seed for name, rc in configs.items()},
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "all-ok": all(r.ok for r in results),
        "return-statistics": {
            "dendrite": float(stats.fraction),
            "binary-geometric": float(stats_t.fraction),
        },
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(indented_json(summary) + "\n")
    return results
