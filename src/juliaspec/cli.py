"""Command-line surface: render | simulate | classify | spectrum-report |
preimages | residual-set | truncate | verify.

Configuration comes from a JSON document (--config FILE or --canonical NAME);
individual command parameters live in the document's "command" object and are
overridden by CLI flags.  Exit codes: 0 success, 2 invalid configuration or
usage, 3 budget/capacity exceeded, 4 invariant-suite failure.

All randomness flows from the single 64-bit seed in the configuration
(overridable with --seed), so every command is deterministic given
(config, seed).
"""

from __future__ import annotations

import argparse
import cmath
import json
import re
import sys
from contextlib import contextmanager

from . import chain as chain_mod
from .canonical import CANONICAL_NAMES, canonical_config
from .config import RunConfig, load_config_file
from .dynamics import preimages as dyn_preimages
from .errors import (
    BudgetExceededError,
    ConfigError,
    IntegerOverflowError,
    JuliaspecError,
    VerificationError,
)
from .operator import build_truncation, eigenvalue_report, write_eigenvalue_csv, write_matrix_csv
from .render import GridSpec, component_of_zero, count_components, render_field, write_field_csv, write_image, write_points_csv
from .spectra import classify, parse_space, residual_l1, spectrum_summary
from .verify import run_verify

__all__ = ["main", "build_parser", "parse_complex"]


# 'i' as the imaginary unit, but not inside the words 'inf', 'infinity' or 'nan'.
_UNIT_I = re.compile(r"(?i:infinity|inf|nan)|i")


def parse_complex(text: str) -> complex:
    """Parse '0.3+0.2i', '1+0j', '-0.5i' or plain reals into a finite complex number."""
    t = _UNIT_I.sub(lambda m: "j" if m[0] == "i" else m[0], str(text).strip().replace(" ", ""))
    try:
        z = complex(t)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a JSON configuration file")
    p.add_argument(
        "--canonical",
        choices=CANONICAL_NAMES,
        help="use one of the packaged canonical configurations",
    )
    p.add_argument("--seed", type=int, help="override the configuration seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="juliaspec",
        description=(
            "Stochastic adding machines over mixed-radix numeration: spectra of "
            "their transition operators via fibered polynomial dynamics."
        ),
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("render", help="raster escape classification of the filled set")
    _add_config_flags(p)
    p.add_argument("--re-min", type=float)
    p.add_argument("--re-max", type=float)
    p.add_argument("--im-min", type=float)
    p.add_argument("--im-max", type=float)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--overlay", choices=["none", "residual", "eigenvalues"])
    p.add_argument("--depth", type=int, help="overlay: residual-set truncation depth")
    p.add_argument("--trunc-size", type=int, help="overlay: truncation size for eigenvalues")
    p.add_argument("--out-prefix", help="output prefix for .ppm and .csv")

    p = sub.add_parser("simulate", help="sample trajectories of the adding-machine chain")
    _add_config_flags(p)
    p.add_argument("--start", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--trajectories", type=int, help="also estimate the return probability")
    p.add_argument("--horizon", type=int)
    p.add_argument("--out", help="trajectory CSV path (default: stdout)")

    p = sub.add_parser("classify", help="spectral verdict for one λ on one space")
    _add_config_flags(p)
    p.add_argument("--lambda", dest="lam", required=True, help="complex λ, e.g. 0.3+0.2i")
    p.add_argument("--space", required=True, help="c0 | c | linf | l<alpha>")
    p.add_argument("--budget", type=int)
    p.add_argument("--depth", type=int)

    p = sub.add_parser("spectrum-report", help="per-space spectral summary")
    _add_config_flags(p)
    p.add_argument("--lambdas", help="comma-separated list of complex samples")
    p.add_argument("--budget", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--alphas", help="comma-separated α values (default 1,2)")

    p = sub.add_parser("preimages", help="preimages of a target under the compositions")
    _add_config_flags(p)
    p.add_argument("--target", help="complex target (default 1)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("residual-set", help="depth-truncated residual candidate set")
    _add_config_flags(p)
    p.add_argument("--depth", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("truncate", help="finite truncation matrix and its eigenvalues")
    _add_config_flags(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=int, help="escape budget for eigenvalue tagging")
    p.add_argument("--out-prefix")

    p = sub.add_parser("verify", help="run the invariant suite; nonzero exit on failure")
    p.add_argument("--seed", type=int, help="override the seed of every canonical configuration")
    p.add_argument("--out", help="artifact directory (default: verify-out)")
    return ap


def _resolve(args) -> RunConfig:
    if getattr(args, "config", None):
        rc = load_config_file(args.config)
    elif getattr(args, "canonical", None):
        rc = canonical_config(args.canonical)
    else:
        raise ConfigError("provide --config FILE or --canonical NAME")
    if getattr(args, "seed", None) is not None:
        rc = rc.with_seed(args.seed)
    return rc


def _param(args, rc: RunConfig, key: str, default=None):
    """Flag value if given, else the config's command object, else default."""
    v = getattr(args, key.replace("-", "_"), None)
    if v is None:
        v = rc.command.get(key, default)
    return v


@contextmanager
def _open_out(args, rc: RunConfig):
    """The --out file (else the config's "out"), or stdout when neither is set."""
    path = getattr(args, "out", None) or rc.command.get("out")
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- command implementations -------------------------------------------------


def _cmd_render(args) -> int:
    rc = _resolve(args)
    sys_ = rc.system()
    kwargs = dict(
        re_min=float(_param(args, rc, "re-min", -1.5)),
        re_max=float(_param(args, rc, "re-max", 1.5)),
        im_min=float(_param(args, rc, "im-min", -1.5)),
        im_max=float(_param(args, rc, "im-max", 1.5)),
        width=int(_param(args, rc, "width", 512)),
        height=int(_param(args, rc, "height", 512)),
        max_iter=int(_param(args, rc, "max-iter", 200)),
    )
    radius = _param(args, rc, "radius")
    if radius is not None:
        kwargs["radius"] = float(radius)
    grid = GridSpec(**kwargs)
    field = render_field(sys_, grid)

    overlays = []
    overlay = _param(args, rc, "overlay", "none")
    if overlay == "residual":
        rep = residual_l1(sys_, int(_param(args, rc, "depth", 4)))
        overlays.append((rep.points, (255, 255, 255)))
    elif overlay == "eigenvalues":
        size = int(_param(args, rc, "trunc-size", 32))
        pts = [complex(e["re"], e["im"]) for e in eigenvalue_report(sys_, size)]
        overlays.append((pts, (255, 215, 0)))

    prefix = _param(args, rc, "out-prefix", "juliaspec-render")
    ppm_path, csv_path = f"{prefix}.ppm", f"{prefix}.csv"
    with open(ppm_path, "wb") as fh:
        write_image(field, fh, overlays=overlays)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        write_field_csv(field, fh)
    _print_json(
        {
            "inside-fraction": field.inside_fraction(),
            "components": count_components(field),
            "origin-component-size": int(component_of_zero(field).sum())
            if field.inside.any()
            else 0,
            "ppm": ppm_path,
            "csv": csv_path,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    rc = _resolve(args)
    cfg = rc.chain()
    start = int(_param(args, rc, "start", 1))
    steps = int(_param(args, rc, "steps", 200))
    traj = cfg.simulate(start=start, steps=steps, seed=rc.seed)
    # Estimate before writing: a refused estimate must not leave a trajectory artifact behind.
    trajectories = _param(args, rc, "trajectories")
    stats = None
    if trajectories is not None:
        horizon = int(_param(args, rc, "horizon", 100_000))
        stats = cfg.return_statistics(
            start=start, trajectories=int(trajectories), horizon=horizon, seed=rc.seed
        )
    with _open_out(args, rc) as out:
        chain_mod.write_trajectory_csv(cfg, traj, out)
    if stats is not None:
        payload = {
            "start": stats.start,
            "trajectories": stats.trajectories,
            "horizon": stats.horizon,
            "seed": stats.seed,
            "hits": stats.hits,
            "fraction": stats.fraction,
            "ci95": [stats.ci_low, stats.ci_high],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        # Keep the CSV stream clean when it goes to stdout.
        print(text, file=sys.stderr if out is sys.stdout else sys.stdout)
    return 0


def _cmd_classify(args) -> int:
    rc = _resolve(args)
    lam = parse_complex(args.lam)
    space = parse_space(args.space)
    verdict = classify(
        rc.system(),
        lam,
        space,
        budget=int(_param(args, rc, "budget", 80)),
        depth=int(_param(args, rc, "depth", 5)),
    )
    _print_json(verdict.to_json())
    return 0


def _cmd_spectrum_report(args) -> int:
    rc = _resolve(args)
    raw = _param(args, rc, "lambdas")
    lams = [parse_complex(t) for t in str(raw).split(",")] if raw else []
    raw_alphas = _param(args, rc, "alphas", "1,2")
    try:
        alphas = [float(t) for t in str(raw_alphas).split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse alpha values {raw_alphas!r}") from exc
    report = spectrum_summary(
        rc.chain(),
        rc.system(),
        lams=lams,
        budget=int(_param(args, rc, "budget", 80)),
        depth=int(_param(args, rc, "depth", 5)),
        alphas=alphas,
    )
    _print_json(report)
    return 0


def _cmd_preimages(args) -> int:
    rc = _resolve(args)
    target = parse_complex(_param(args, rc, "target", "1"))
    depth = int(_param(args, rc, "depth", 3))
    pts = dyn_preimages(rc.system(), target, depth)
    with _open_out(args, rc) as out:
        write_points_csv(pts, out)
    return 0


def _cmd_residual_set(args) -> int:
    rc = _resolve(args)
    depth = int(_param(args, rc, "depth", 5))
    tol = float(_param(args, rc, "tol", 1e-8))
    rep = residual_l1(rc.system(), depth, tol)
    with _open_out(args, rc) as out:
        write_points_csv(rep.points, out)
    note = {"regime": rep.regime, "note": rep.note, "conjecture": rep.conjecture}
    print(json.dumps(note, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_truncate(args) -> int:
    rc = _resolve(args)
    size = int(args.size)
    prefix = _param(args, rc, "out-prefix", "juliaspec-trunc")
    matrix_path = f"{prefix}-matrix.csv"
    eig_path = f"{prefix}-eigenvalues.csv"
    # Solve before writing: a refused size must not leave a partial
    # artifact pair behind.
    report = eigenvalue_report(rc.system(), size, budget=int(_param(args, rc, "budget", 60)))
    trunc = build_truncation(rc.chain(), size)
    with open(matrix_path, "w", encoding="utf-8", newline="\n") as fh:
        write_matrix_csv(trunc, fh)
    with open(eig_path, "w", encoding="utf-8", newline="\n") as fh:
        write_eigenvalue_csv(report, fh)
    _print_json({"size": size, "exact": trunc.exact, "matrix": matrix_path, "eigenvalues": eig_path})
    return 0


def _cmd_verify(args) -> int:
    out_dir = args.out or "verify-out"
    results = run_verify(out_dir, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed; artifacts in {out_dir}")
    if failed:
        raise VerificationError(f"{len(failed)} invariant check(s) failed")
    return 0


_DISPATCH = {
    "render": _cmd_render,
    "simulate": _cmd_simulate,
    "classify": _cmd_classify,
    "spectrum-report": _cmd_spectrum_report,
    "preimages": _cmd_preimages,
    "residual-set": _cmd_residual_set,
    "truncate": _cmd_truncate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (BudgetExceededError, IntegerOverflowError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except JuliaspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
