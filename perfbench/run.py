"""juliaspec benchmark.

Run one workload and print its result as the last line of stdout:

    python3 perfbench/run.py --workload inverse-tree --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
wraps the layers' public functions and reports per-layer calls, total and
self time, counters and the tracing overhead.  Run from the repository root;
the program is imported from ./src.

    python3 perfbench/run.py --self-check

runs every workload of BENCHMARK.json at tiny sizes in both modes, checks
that every metric it names is emitted with its unit, and checks that a
damaged output of every op registers as a failed op.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def limit_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    On a 2-vCPU machine the dense eigensolves here are no faster on two
    threads, and a spinning second BLAS thread lets any other load slow them
    by up to 20 times.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def self_check() -> int:
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = harness.measure(name, 7, 0, trace, smoke=True)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={int(trace)}: failures in smoke run")
            got = result["metrics"]
            for m in spec[key]:
                entry = got.get(m["name"])
                if entry is None or entry["unit"] != m["unit"]:
                    problems.append(f"{name} trace={int(trace)}: {m['name']} missing or wrong unit ({entry})")
                elif not math.isfinite(entry["value"]) or entry["value"] == 0:
                    problems.append(f"{name} trace={int(trace)}: {m['name']} = {entry['value']}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name} trace={int(trace)}: metrics not in BENCHMARK.json: {sorted(extra)}")
        result, _ = harness.measure(name, 7, 0, False, smoke=True, damage=True)
        if result["failed"] != result["attempted"] or result["correct"]:
            problems.append(f"{name}: {result['failed']}/{result['attempted']} damaged ops detected")
        print(f"self-check {name}: done", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "juliaspec" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'juliaspec'}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.self_check:
        return self_check()

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, detail = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in detail["failures"] + detail["errors"]:
        print("FAILED", failure, file=sys.stderr)
    print("env", json.dumps(detail["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
