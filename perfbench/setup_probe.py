"""One cold set-up of the program, timed from process start by the parent.

Usage: python3 setup_probe.py ROOT CANONICAL_NAME...

Imports the CLI (and with it every layer), parses the named canonical
configurations, makes the first LAPACK call, then prints the monotonic clock,
which the parent compares with the clock it read before starting this process.
"""

import sys
import time

root, names = sys.argv[1], sys.argv[2:]
sys.path.insert(0, f"{root}/src")

import numpy as np  # noqa: E402

import juliaspec.cli  # noqa: E402,F401
from juliaspec.canonical import canonical_config  # noqa: E402

for name in names:
    rc = canonical_config(name)
    rc.chain(), rc.system()
np.linalg.eigvals(np.random.default_rng(0).random((256, 256)))
print(repr(time.perf_counter()))
