"""Seeded op lists for the four workloads.

A workload is a fixed list of ops repeated once per pass.  An op is one
`juliaspec` CLI call (argv only, outputs to the op's own directory) or one
call of the library entry point `operator.weyl_defect`.  Every λ, the Weyl
probe and every `--seed` come from the benchmark seed, drawn with the
independent mathematics in `oracles`; the program sees only the argv.

Each workload has a heavy part, the commands it exists to stress, and a
light tail: every other command once at a small size.  The tail makes every
end-to-end metric exist on every workload at a few percent of the pass time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

import oracles as O

WORKLOADS = ("inverse-tree", "truncation", "forward-orbit", "return-mc")

# Command groups, in the order the metrics are reported.
COMMANDS = (
    "preimages",
    "residual-set",
    "classify",
    "truncate",
    "weyl-defect",
    "render",
    "spectrum-report",
    "simulate",
)


@dataclass
class Op:
    """One call.  `argv` holds "{dir}" where the op's output directory goes;
    `lib` is (canonical name, λ, level) for the library call."""

    cmd: str
    label: str
    argv: list[str] | None = None
    lib: tuple | None = None
    check: object = None  # callable(op_dir, stdout, result) raising OracleError
    outputs: list[str] = field(default_factory=list)


def fmt(z: complex) -> str:
    """A complex number in a form `parse_complex` reads back exactly."""
    z = complex(z)
    return f"{z.real!r}{z.imag:+}j"


def _in_disk(rng, name: str, n: int) -> np.ndarray:
    """Uniform points of the closed disk around 1 - p_1 of radius p_1 (it holds the filled set)."""
    p = float(O.p_at(name, 1))
    r = p * np.sqrt(rng.random(n))
    return (1.0 - p) + r * np.exp(2j * np.pi * rng.random(n))


def _inside(rng, name: str, n: int, budget: int) -> list[complex]:
    """n seeded points bounded for `budget` fiber maps (inside the filled set)."""
    out: list[complex] = []
    while len(out) < n:
        z = _in_disk(rng, name, 4 * n)
        out += [complex(w) for w in z[O.bounded(name, z, budget)]]
    return out[:n]


# -- op constructors ---------------------------------------------------------


def preimages(name, depth):
    return Op(
        "preimages",
        f"preimages {name} depth {depth}",
        ["preimages", "--canonical", name, "--depth", str(depth), "--out", "{dir}/pre.csv"],
        check=lambda d, out, res: O.check_preimages(f"{d}/pre.csv", name, depth),
        outputs=["pre.csv"],
    )


def residual_set(name, depth, tol=1e-8):
    expected = O.residual_points(name, depth, tol)
    return Op(
        "residual-set",
        f"residual-set {name} depth {depth}",
        ["residual-set", "--canonical", name, "--depth", str(depth), "--out", "{dir}/res.csv"],
        check=lambda d, out, res: O.check_residual_set(f"{d}/res.csv", name, expected, tol),
        outputs=["res.csv"],
    )


def classify_ops(rng, name, depth, count):
    """count/2 λ drawn from the residual set (hits), count/2 from the bounded region (misses)."""
    residual = O.residual_points(name, depth)
    simple = residual[np.abs(O.composed_with_derivative(name, depth, residual)[1]) > 1e-3]
    hits = list(rng.choice(simple, size=count // 2, replace=False))
    misses = [z for z in _inside(rng, name, 4 * count, 80) if np.min(np.abs(residual - z)) > 1e-6]
    ops = []
    pairs = [(z, hit) for h, m in zip(hits, misses) for z, hit in ((h, True), (m, False))]
    for lam, hit in pairs:
        ops.append(
            Op(
                "classify",
                f"classify {name} l1 depth {depth} {'hit' if hit else 'miss'}",
                ["classify", "--canonical", name, "--space", "l1", "--depth", str(depth), f"--lambda={fmt(lam)}"],
                check=partial(lambda hit, d, out, res: O.check_classify(out, hit), hit),
            )
        )
    return ops


def truncate(name, size):
    return Op(
        "truncate",
        f"truncate {name} size {size}",
        ["truncate", "--canonical", name, "--size", str(size), "--out-prefix", "{dir}/tr"],
        check=lambda d, out, res: O.check_truncate(f"{d}/tr-matrix.csv", f"{d}/tr-eigenvalues.csv", name, size),
        outputs=["tr-matrix.csv", "tr-eigenvalues.csv"],
    )


def weyl(rng, name, level):
    lam = _inside(rng, name, 1, 200)[0]
    return Op(
        "weyl-defect",
        f"weyl_defect {name} level {level}",
        lib=(name, lam, level),
        check=lambda d, out, res: O.check_weyl(res),
    )


def render(name, window, size, max_iter):
    re_min, re_max, im_min, im_max = window
    argv = ["render", "--canonical", name, "--width", str(size), "--height", str(size)]
    argv += ["--max-iter", str(max_iter), "--out-prefix", "{dir}/img"]
    argv += [f"--re-min={re_min}", f"--re-max={re_max}", f"--im-min={im_min}", f"--im-max={im_max}"]
    return Op(
        "render",
        f"render {name} {window} {size}^2",
        argv,
        check=lambda d, out, res: O.check_render(f"{d}/img.ppm", f"{d}/img.csv", size, size, im_min == -im_max),
        outputs=["img.csv", "img.ppm"],
    )


def spectrum_report(rng, name, count, budget, depth):
    """count/2 λ bounded at the budget (inside the filled set), count/2 uniform in [-1, 1]²."""
    inside = _inside(rng, name, count // 2, budget)
    square = rng.uniform(-1, 1, size=(count - len(inside), 2))
    lams = inside + [complex(a, b) for a, b in square]
    argv = ["spectrum-report", "--canonical", name, "--budget", str(budget), "--depth", str(depth)]
    argv.append("--lambdas=" + ",".join(fmt(z) for z in lams))
    return Op(
        "spectrum-report",
        f"spectrum-report {name} {count} λ budget {budget} depth {depth}",
        argv,
        check=lambda d, out, res: O.check_spectrum_report(out, count),
    )


def simulate(rng, name, start, steps, trajectories, horizon):
    seed = int(rng.integers(2**63))
    argv = ["simulate", "--canonical", name, "--start", str(start), "--steps", str(steps)]
    argv += ["--trajectories", str(trajectories), "--horizon", str(horizon), f"--seed={seed}"]
    argv += ["--out", "{dir}/traj.csv"]
    return Op(
        "simulate",
        f"simulate {name} from {start}",
        argv,
        check=lambda d, out, res: O.check_simulate(out, f"{d}/traj.csv", steps, name),
        outputs=["traj.csv"],
    )


# -- workloads ---------------------------------------------------------------

FULL_WINDOW = (-1.5, 1.5, -1.5, 1.5)
ZOOM_WINDOW = (-0.2, 0.8, -0.5, 0.5)


def _heavy(workload: str, rng, smoke: bool) -> list[Op]:
    s = smoke
    if workload == "inverse-tree":
        return [
            preimages("mixed23-harmonic", 6 if s else 12),
            residual_set("binary-p34", 5 if s else 10),
            residual_set("dendrite", 5 if s else 10),
            residual_set("mixed23-harmonic", 4 if s else 8),
        ] + classify_ops(rng, "binary-p34", 4 if s else 7, 4 if s else 40)
    if workload == "truncation":
        return [
            truncate("binary-p34", 32 if s else 1024),
            truncate("mixed23-harmonic", 36 if s else 1296),
            truncate("binary-p34", 30 if s else 1000),
            weyl(rng, "binary-p34", 4 if s else 12),
            weyl(rng, "mixed23-harmonic", 4 if s else 10),
        ]
    if workload == "forward-orbit":
        return [
            render("mixed23-harmonic", ZOOM_WINDOW, 32 if s else 512, 200),
            render("binary-p34", FULL_WINDOW, 32 if s else 512, 200),
            spectrum_report(rng, "mixed23-harmonic", 8 if s else 256, 200, 5),
            spectrum_report(rng, "binary-p34", 8 if s else 256, 200, 5),
        ]
    if workload == "return-mc":
        return [
            simulate(rng, "dendrite", 1, 2000, 200, 2000 if s else 20000),
            simulate(rng, "binary-geometric", 8, 2000, 200, 2000 if s else 20000),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _light(cmd: str, rng, smoke: bool) -> list[Op]:
    """The small version of one command, for workloads that do not stress it."""
    s = smoke
    if cmd == "preimages":
        return [preimages("binary-p34", 4 if s else 9)]
    if cmd == "residual-set":
        return [residual_set("dendrite", 4 if s else 7)]
    if cmd == "classify":
        return classify_ops(rng, "binary-p34", 4 if s else 5, 4 if s else 40)
    if cmd == "truncate":
        return [truncate("binary-p34", 16 if s else 128)]
    if cmd == "weyl-defect":
        return [weyl(rng, "binary-p34", 3 if s else 9)]
    if cmd == "render":
        return [render("binary-p34", FULL_WINDOW, 16 if s else 96, 60)]
    if cmd == "spectrum-report":
        # mixed23-harmonic has p -> 1, so its verdicts run the factor traces.
        return [spectrum_report(rng, "mixed23-harmonic", 4 if s else 8, 60, 4)]
    if cmd == "simulate":
        return [simulate(rng, "binary-geometric", 8, 200, 20, 500 if s else 1000)]
    raise ValueError(cmd)


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's op list, a pure function of (workload, seed, smoke).

    A shared machine's speed drifts within seconds, so a small op's latency is a
    snapshot of the drift.  The small ops are therefore spread between the
    big ones: classify calls one by one, alternating hits and misses, and
    the light tail as one block (one op per command) in every gap.  Each
    small command then samples the whole pass, not one stretch of it.
    """
    rng = np.random.default_rng(seed)
    heavy = _heavy(workload, rng, smoke)
    present = {op.cmd for op in heavy}
    classify = [op for op in heavy if op.cmd == "classify"]
    block = []
    for cmd in COMMANDS:
        if cmd not in present:
            light = _light(cmd, rng, smoke)
            if cmd == "classify":
                classify = light
            else:
                block += light
    big = [op for op in heavy if op.cmd != "classify"]
    groups = [[[op] for op in classify], [block] * len(big)]
    small = [unit for _, _, unit in sorted(
        ((k + 0.5) / len(g), gi, unit) for gi, g in enumerate(groups) for k, unit in enumerate(g)
    )]
    ops = []
    for i, op in enumerate(big):
        lo, hi = len(small) * i // len(big), len(small) * (i + 1) // len(big)
        ops.append(op)
        ops += [o for unit in small[lo:hi] for o in unit]
    return ops
