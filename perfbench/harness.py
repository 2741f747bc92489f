"""Runs one workload in this process and turns the timings into metrics.

The CLI is driven in-process through `juliaspec.cli.main(argv)` with stdout
and stderr captured; `operator.weyl_defect` is called directly.  Each pass
runs the workload's whole op list under one timer; the oracles and output
digests are checked after the pass, outside the timer.
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import juliaspec
import juliaspec.cli as cli_mod
import juliaspec.operator as operator_mod
from juliaspec.canonical import canonical_config

import oracles as O
import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 3  # untraced passes per run; wall_s is their median
MIN_TRACED_PASSES = 2


@dataclasses.dataclass
class Record:
    """One execution of one op."""

    index: int
    rc: int
    stdout: str
    result: object
    t0: float
    t1: float
    error: str | None = None


# -- environment -------------------------------------------------------------


def _openblas():
    """(config string, thread count) from the OpenBLAS numpy loaded, or Nones."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                cfg = getattr(lib, f"{prefix}_get_config{suffix}")
                nthreads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            cfg.restype, nthreads.restype = ctypes.c_char_p, ctypes.c_int
            return cfg().decode(), int(nthreads())
    return None, None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "juliaspec": juliaspec.__file__,
    }


# -- set-up ------------------------------------------------------------------


def canonical_names(ops) -> list[str]:
    names = []
    for op in ops:
        name = op.lib[0] if op.lib else op.argv[op.argv.index("--canonical") + 1]
        if name not in names:
            names.append(name)
    return names


def setup_time(names) -> float:
    """Cold set-up time of one fresh process, from spawn to ready."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *names],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1]) - t0


def warm(names) -> None:
    """The same set-up in this process, so no timed pass pays for it."""
    for name in names:
        rc = canonical_config(name)
        rc.chain(), rc.system()
    np.linalg.eigvals(np.random.default_rng(0).random((256, 256)))


# -- passes ------------------------------------------------------------------


def run_op(op, op_dir: str, tracer, op_id: int, lib_configs: dict) -> Record:
    if op.lib:
        name, lam, level = op.lib
        rc = lib_configs[name]
        cfg, sys_ = rc.chain(), rc.system()  # fresh objects: no memo carried between passes
        if tracer:
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            result = operator_mod.weyl_defect(cfg, sys_, lam, level)
        except Exception:
            return Record(op_id, 1, "", None, t0, perf_counter(), traceback.format_exc())
        return Record(op_id, 0, "", result, t0, perf_counter())

    argv = [a.replace("{dir}", op_dir) for a in op.argv]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        if tracer:
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            rc = cli_mod.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc, error = 1, traceback.format_exc()
        t1 = perf_counter()
    if rc != 0 and error is None:
        error = f"exit {rc}: {err.getvalue().strip()[-500:]}"
    return Record(op_id, rc, out.getvalue(), None, t0, t1, error)


def run_pass(ops, dirs, tracer, first_id: int, lib_configs) -> tuple[float, list[Record]]:
    records = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        records.append(run_op(op, dirs[i], tracer, first_id + i, lib_configs))
    return perf_counter() - t0, records


def corrupt(op, op_dir: str, rec: Record) -> None:
    """Damage one output of the op (self-check only)."""
    if op.outputs:
        path = os.path.join(op_dir, op.outputs[0])
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines[:-2] + [b""]))
    elif op.lib:
        rec.result = dataclasses.replace(rec.result, defect=2 * rec.result.bound + 1.0)
    else:
        rec.stdout = rec.stdout[: len(rec.stdout) // 2]


def check_pass(ops, dirs, records, digests: list) -> list[str]:
    """Oracles and digest comparison; returns one message per failed op."""
    failures = []
    for i, (op, d, rec) in enumerate(zip(ops, dirs, records)):
        msg = rec.error
        if msg is None:
            try:
                op.check(d, rec.stdout, rec.result)
            except (O.OracleError, KeyError, ValueError, OSError) as exc:
                msg = f"oracle: {type(exc).__name__}: {exc}"
        if msg is None:
            parts = [rec.rc, rec.stdout, repr(rec.result)]
            parts += [Path(d, name).read_bytes() for name in op.outputs]
            dig = O.digest(*parts)
            if digests[i] is None:
                digests[i] = dig
            elif digests[i] != dig:
                msg = "output digest differs from the first pass"
        if msg is not None:
            failures.append(f"{op.label}: {msg}")
    return failures


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        self.ops = W.build(workload, seed, smoke)
        self.names = canonical_names(self.ops)
        self.lib_configs = {op.lib[0]: canonical_config(op.lib[0]) for op in self.ops if op.lib}
        self.digests = [None] * len(self.ops)
        self.attempted = 0
        self.failures: list[str] = []
        self.next_id = 0
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT)
        self.dirs = []
        for i in range(len(self.ops)):
            d = os.path.join(self.tmp, f"op{i:03d}")
            os.mkdir(d)
            self.dirs.append(d)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def one_pass(self, tracer=None, damage=False) -> tuple[float, list[Record]]:
        gc.collect()
        wall, records = run_pass(self.ops, self.dirs, tracer, self.next_id, self.lib_configs)
        self.next_id += len(self.ops)
        if damage:
            for op, d, rec in zip(self.ops, self.dirs, records):
                if rec.error is None:
                    corrupt(op, d, rec)
        self.attempted += len(records)
        self.failures += check_pass(self.ops, self.dirs, records, self.digests)
        return wall, records


# -- metrics -----------------------------------------------------------------


def latencies(run: Run, passes) -> dict[str, list[float]]:
    """Latency samples per op label (a label repeated in the list pools its samples)."""
    out: dict[str, list[float]] = {}
    for records in passes:
        for op, rec in zip(run.ops, records):
            out.setdefault(op.label, []).append(rec.t1 - rec.t0)
    return out


def end_to_end(run: Run, setups, walls, passes) -> dict:
    lat = latencies(run, passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((run.attempted - len(run.failures)) / run.attempted, "fraction"),
    }
    for cmd in W.COMMANDS:
        labels = sorted({op.label for op in run.ops if op.cmd == cmd})
        if cmd == "classify":
            samples = [1e3 * t for label in labels for t in lat[label]]
            cuts = statistics.quantiles(samples, n=100)
            metrics["classify_p50_ms"] = (cuts[49], "ms")
            metrics["classify_p90_ms"] = (cuts[89], "ms")
        else:
            metrics[f"{cmd}_s"] = (sum(statistics.median(lat[label]) for label in labels), "s")
    return metrics


def _enough(count: int, minimum: int, t_start: float, seconds: float) -> bool:
    """Stop once `minimum` passes ran and another pass of the mean length would overrun."""
    elapsed = perf_counter() - t_start
    return count >= minimum and elapsed + elapsed / count > seconds


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            damage: bool = False) -> tuple[dict, dict]:
    """One run: returns the result object and the detailed record, also written under out/."""
    run = Run(workload, seed, smoke)
    try:
        warm(run.names)
        before = T.namespace_snapshot()
        detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "smoke": smoke, "ops": len(run.ops), "env": environment()}
        errors = []
        tag = "smoke" if smoke else f"seed{seed}"
        t_start = perf_counter()
        if not trace:
            # One cold set-up probe after each pass spreads the probes over the run.
            walls, passes, setups = [], [], []
            while not _enough(len(passes), 1 if damage else MIN_PASSES, t_start, seconds):
                wall, records = run.one_pass(damage=damage)
                walls.append(wall)
                passes.append(records)
                setups.append(setup_time(run.names))
            metrics = end_to_end(run, setups, walls, passes)
            detail["pass_walls_s"] = walls
            detail["setup_probes_s"] = setups
            detail["op_medians_s"] = {k: statistics.median(v) for k, v in latencies(run, passes).items()}
        else:
            untraced_wall, _ = run.one_pass()
            tracer = T.Tracer()
            tracer.install()
            walls, intervals = [], {}
            try:
                while not _enough(len(walls) + 1, MIN_TRACED_PASSES + 1, t_start, seconds):
                    wall, records = run.one_pass(tracer=tracer)
                    walls.append(wall)
                    intervals.update({r.index: (r.t0, r.t1) for r in records})
            finally:
                tracer.uninstall()
            errors += tracer.coverage_errors(intervals)
            metrics = {
                name: (value / len(walls), "s" if name.endswith("_s") else "count")
                for name, value in tracer.stats().items()
            }
            traced_wall = statistics.median(walls)
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
            detail["pass_walls_s"] = [untraced_wall] + walls
            detail["spans"] = len(tracer.spans)
            tracer.write(OUT / f"spans-{workload}-{tag}.csv.gz")
        patched = T.patched_attributes(before)
        if patched:
            errors.append(f"juliaspec attributes left patched: {patched[:10]}")
        detail["failures"] = run.failures
        detail["errors"] = errors
        result = {
            "correct": not run.failures and not errors,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        detail["result"] = result
        (OUT / f"result-{workload}-{tag}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
        return result, detail
    finally:
        run.close()
