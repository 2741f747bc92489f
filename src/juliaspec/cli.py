"""Command-line surface: render | simulate | classify | spectrum-report |
preimages | residual-set | truncate | verify.

Configuration comes from a JSON document (--config FILE or --canonical NAME);
individual command parameters live in the document's "command" object and are
overridden by CLI flags.  Exit codes: 0 success, 2 invalid configuration or
usage, 3 budget/capacity exceeded, 4 invariant-suite failure.

Each command parameter is declared once, in `_COMMANDS`: that table builds the
flags and their --help, and `_params` resolves every value (the flag, else
the "command" entry checked against the flag's type, else the default).

All randomness flows from the single 64-bit seed in the configuration
(overridable with --seed), so every command is deterministic given
(config, seed).
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import json
import re
import sys
from contextlib import contextmanager

from . import chain as chain_mod
from .canonical import CANONICAL_NAMES, canonical_config
from .config import RunConfig, load_config_file
from .dynamics import ESCAPE_RADIUS
from .dynamics import preimages as dyn_preimages
from .errors import BudgetExceededError, ConfigError, IntegerOverflowError, JuliaspecError, VerificationError, json_int
from .jsontext import indented_json
from .operator import build_truncation, eigenvalue_report, truncated_eigenvalues, write_eigenvalue_csv, write_matrix_csv
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


def _path(text: str) -> str | None:
    """A file path or prefix; the empty string leaves it unset."""
    return text or None


@contextmanager
def _open_out(path):
    """The file at path, or stdout when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _print_json(obj, file=None):
    print(indented_json(obj), file=file)


# -- command implementations -------------------------------------------------


def _cmd_render(rc: RunConfig, p: dict) -> int:
    sys_ = rc.system()
    grid = GridSpec(**{f.name: p[f.name] for f in dataclasses.fields(GridSpec)})
    field = render_field(sys_, grid)

    overlays = []
    if p["overlay"] == "residual":
        rep = residual_l1(sys_, p["depth"])
        overlays.append((rep.points, (255, 255, 255)))
    elif p["overlay"] == "eigenvalues":
        overlays.append((truncated_eigenvalues(sys_, p["trunc_size"]).tolist(), (255, 215, 0)))

    ppm_path, csv_path = f"{p['out_prefix']}.ppm", f"{p['out_prefix']}.csv"
    with open(ppm_path, "wb") as fh:
        write_image(field, fh, overlays=overlays)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        write_field_csv(field, fh)
    _print_json({
        "inside-fraction": field.inside_fraction(),
        "components": count_components(field),
        "origin-component-size": int(component_of_zero(field).sum()) if field.inside.any() else 0,
        "ppm": ppm_path,
        "csv": csv_path,
    })
    return 0


def _cmd_simulate(rc: RunConfig, p: dict) -> int:
    cfg = rc.chain()
    traj = cfg.simulate(start=p["start"], steps=p["steps"], seed=rc.seed)
    # Estimate before writing: a refused estimate must not leave a trajectory artifact behind.
    stats = None
    if p["trajectories"] is not None:
        stats = cfg.return_statistics(
            start=p["start"], trajectories=p["trajectories"], horizon=p["horizon"], seed=rc.seed
        )
    with _open_out(p["out"]) as out:
        chain_mod.write_trajectory_csv(cfg, traj, out)
    if stats is not None:
        payload = dataclasses.asdict(stats)
        payload["ci95"] = [payload.pop("ci_low"), payload.pop("ci_high")]
        # Keep the CSV stream clean when it goes to stdout.
        _print_json(payload, file=sys.stderr if out is sys.stdout else sys.stdout)
    return 0


def _cmd_classify(rc: RunConfig, p: dict) -> int:
    lam, space = parse_complex(p["lambda"]), parse_space(p["space"])
    _print_json(classify(rc.system(), lam, space, budget=p["budget"], depth=p["depth"]).to_json())
    return 0


def _cmd_spectrum_report(rc: RunConfig, p: dict) -> int:
    lams = [parse_complex(t) for t in p["lambdas"].split(",")] if p["lambdas"] else []
    alphas = p["alphas"].split(",")  # spectra.l_alpha reads and checks each one
    _print_json(spectrum_summary(
        rc.chain(), rc.system(), lams=lams, budget=p["budget"], depth=p["depth"], alphas=alphas
    ))
    return 0


def _cmd_preimages(rc: RunConfig, p: dict) -> int:
    pts = dyn_preimages(rc.system(), parse_complex(p["target"]), p["depth"])
    with _open_out(p["out"]) as out:
        write_points_csv(pts, out)
    return 0


def _cmd_residual_set(rc: RunConfig, p: dict) -> int:
    rep = residual_l1(rc.system(), p["depth"])
    with _open_out(p["out"]) as out:
        write_points_csv(rep.points, out)
    note = {"regime": rep.regime, "note": rep.note, "conjecture": rep.conjecture}
    print(json.dumps(note, sort_keys=True), file=sys.stderr)
    return 0


def _cmd_truncate(rc: RunConfig, p: dict) -> int:
    size = p["size"]
    matrix_path, eig_path = f"{p['out_prefix']}-matrix.csv", f"{p['out_prefix']}-eigenvalues.csv"
    # Solve before writing: a refused size must not leave a partial
    # artifact pair behind.
    report = eigenvalue_report(rc.system(), size, budget=p["budget"])
    trunc = build_truncation(rc.chain(), size)
    with open(matrix_path, "w", encoding="utf-8", newline="\n") as fh:
        write_matrix_csv(trunc, fh)
    with open(eig_path, "w", encoding="utf-8", newline="\n") as fh:
        write_eigenvalue_csv(report, fh)
    _print_json({"size": size, "exact": trunc.exact, "matrix": matrix_path, "eigenvalues": eig_path})
    return 0


def _cmd_verify(rc: None, p: dict) -> int:
    results = run_verify(p["out"], seed=p["seed"])
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed; artifacts in {p['out']}")
    if failed:
        raise VerificationError(f"{len(failed)} invariant check(s) failed")
    return 0


# -- the parameter table -----------------------------------------------------

_REQUIRED = object()  # the default of a required flag
# Parameter kinds besides the choice tuples: int, float, str (text such as
# complex numbers or comma lists, which a command entry may write as a number)
# and _path.
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string or a number", _path: "a string"}
_STDOUT = "(default: stdout)"

# Per subcommand: its function, its help, then one row per parameter:
# (flag, kind, default, help).
_COMMANDS = {
    "render": (_cmd_render, "raster escape classification of the filled set", (
        ("--re-min", float, -1.5, "window: smallest real part"),
        ("--re-max", float, 1.5, "window: largest real part"),
        ("--im-min", float, -1.5, "window: smallest imaginary part"),
        ("--im-max", float, 1.5, "window: largest imaginary part"),
        ("--width", int, 512, "pixel columns"),
        ("--height", int, 512, "pixel rows"),
        ("--max-iter", int, 200, "fiber maps applied per pixel"),
        ("--radius", float, ESCAPE_RADIUS, "escape radius, > 1"),
        ("--overlay", ("none", "residual", "eigenvalues"), "none", "points drawn over the raster"),
        ("--depth", int, 4, "overlay: residual-set truncation depth"),
        ("--trunc-size", int, 32, "overlay: truncation size for eigenvalues"),
        ("--out-prefix", _path, "juliaspec-render", "output prefix for .ppm and .csv"),
    )),
    "simulate": (_cmd_simulate, "sample trajectories of the adding-machine chain", (
        ("--start", int, 1, "initial state"),
        ("--steps", int, 200, "moves of the printed trajectory"),
        ("--trajectories", int, None, "also estimate the return probability (default: no estimate)"),
        ("--horizon", int, 100_000, "estimate: steps a trajectory has to return to 0"),
        ("--out", _path, None, f"trajectory CSV path {_STDOUT}"),
    )),
    "classify": (_cmd_classify, "spectral verdict for one λ on one space", (
        ("--lambda", str, _REQUIRED, "complex λ, e.g. 0.3+0.2i"),
        ("--space", str, _REQUIRED, "c0 | c | linf | l<alpha>"),
        ("--budget", int, 80, "fiber maps applied before a verdict is undecided"),
        ("--depth", int, 5, "truncation depth of the l^1 residual candidate set"),
    )),
    "spectrum-report": (_cmd_spectrum_report, "per-space spectral summary", (
        ("--lambdas", str, None, "comma-separated list of complex samples (default: none)"),
        ("--budget", int, 80, "fiber maps applied before a verdict is undecided"),
        ("--depth", int, 5, "truncation depth of the l^1 residual candidate set"),
        ("--alphas", str, "1,2", "comma-separated α values of the l^α spaces"),
    )),
    "preimages": (_cmd_preimages, "preimages of a target under the compositions", (
        ("--target", str, "1", "complex target"),
        ("--depth", int, _REQUIRED, "composition depth"),
        ("--out", _path, None, f"CSV path {_STDOUT}"),
    )),
    "residual-set": (_cmd_residual_set, "depth-truncated residual candidate set", (
        ("--depth", int, 5, "truncation depth"),
        ("--out", _path, None, f"CSV path {_STDOUT}"),
    )),
    "truncate": (_cmd_truncate, "finite truncation matrix and its eigenvalues", (
        ("--size", int, _REQUIRED, "truncation size"),
        ("--budget", int, 60, "escape budget for eigenvalue tagging"),
        ("--out-prefix", _path, "juliaspec-trunc", "output prefix for the two CSV files"),
    )),
    "verify": (_cmd_verify, "run the invariant suite; nonzero exit on failure", (
        ("--seed", int, None, "override the seed of every canonical configuration (default: their own)"),
        ("--out", _path, "verify-out", "artifact directory"),
    )),
}


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to a JSON configuration file")
    p.add_argument("--canonical", choices=CANONICAL_NAMES,
                   help="use one of the packaged canonical configurations")
    p.add_argument("--seed", type=int, help="override the configuration seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="juliaspec", description=(
        "Stochastic adding machines over mixed-radix numeration: spectra of "
        "their transition operators via fibered polynomial dynamics."
    ))
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (_, text, rows) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        if cmd != "verify":  # verify always runs every canonical configuration
            _add_config_flags(p)
        for flag, kind, default, help_ in rows:
            if default is not _REQUIRED and default is not None:
                help_ = f"{help_} (default: {default})"
            if isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=help_)
            else:
                p.add_argument(flag, type=kind, required=default is _REQUIRED, help=help_)
    return ap


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _resolve(args) -> RunConfig:
    if args.config:
        rc = load_config_file(args.config)
    elif args.canonical:
        rc = canonical_config(args.canonical)
    else:
        raise ConfigError("provide --config FILE or --canonical NAME")
    return rc if args.seed is None else rc.with_seed(args.seed)


def _entry(key: str, kind, v):
    """A "command" entry checked against its flag's kind; ConfigError on a mismatch."""
    what = f"config command {key}"
    if kind is int:
        return json_int(what, v)
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if kind is float and number and abs(v) <= sys.float_info.max:
        return float(v)
    if kind is str and (number or isinstance(v, str)):
        return str(v)
    if kind is _path and isinstance(v, str):
        return _path(v)
    if isinstance(kind, tuple) and v in kind:
        return v
    must = "one of " + ", ".join(kind) if isinstance(kind, tuple) else _KIND_NAMES[kind]
    raise ConfigError(f"{what} must be {must}, got {v!r}")


def _params(args, rc: RunConfig | None) -> dict:
    """The command's parameters by flag name (underscored): the flag if given,
    else the config's command entry, else the default."""
    out = {}
    for flag, kind, default, _ in _COMMANDS[args.cmd][2]:
        key = flag[2:]
        dest = key.replace("-", "_")
        v = getattr(args, dest)
        if v is None and rc is not None and rc.command.get(key) is not None:
            v = _entry(key, kind, rc.command[key])
        out[dest] = default if v is None else v
    return out


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        rc = None if args.cmd == "verify" else _resolve(args)
        return _COMMANDS[args.cmd][0](rc, _params(args, rc))
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
