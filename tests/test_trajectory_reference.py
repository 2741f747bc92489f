"""The trajectory CSV writer against the csv-module writer it replaced.

`write_trajectory_csv` formats each distinct state's `state,zeta,digits`
once and writes the rows a block at a time.  The reference below is the former
writer, kept verbatim: one `csv.writer` row per step, with the carry counter
and a `DigitExpansion` per row.  The two must agree byte for byte.
"""

import csv
import tracemalloc
from io import StringIO

import numpy as np
import pytest

from juliaspec import chain
from juliaspec.canonical import CANONICAL_NAMES, canonical_config
from juliaspec.chain import write_trajectory_csv
from juliaspec.errors import OutOfRangeError
from juliaspec.numeration import DigitExpansion
from juliaspec.verify import run_verify


def reference_trajectory_csv(cfg, trajectory, fileobj) -> None:
    """Write (step, state, zeta, digits) rows; digits little-endian, ';'-joined."""
    writer = csv.writer(fileobj)
    writer.writerow(["step", "state", "zeta", "digits"])
    for t, n in enumerate(trajectory):
        writer.writerow([t, n, cfg.base.counter(n), str(DigitExpansion.of_int(cfg.base, n))])


def _both(cfg, trajectory):
    got, want = StringIO(newline=""), StringIO(newline="")
    write_trajectory_csv(cfg, trajectory, got)
    reference_trajectory_csv(cfg, trajectory, want)
    return got.getvalue(), want.getvalue()


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_trajectory_csv_matches_the_csv_module(name):
    cfg = canonical_config(name).chain()
    q4 = cfg.base.place_value(4)
    cases = [
        cfg.simulate(1, 2000, 7),
        cfg.simulate(8, 2000, 1801),
        cfg.simulate(q4 - 1, 300, 20260823),  # the carry through four digits
        [0, 0, 1, 2, 2, 1, 0],
        [2**62 - 800, 2**62 - 799],
        list(np.arange(5, dtype=np.int64)),  # numpy ints act as ints
        [],
    ]
    for trajectory in cases:
        got, want = _both(cfg, trajectory)
        assert got == want
        assert got.count("\r\n") == len(trajectory) + 1


@pytest.mark.parametrize("name", ["dendrite", "binary-geometric"])
def test_trajectory_csv_across_blocks(monkeypatch, name):
    # Blocks of 5 rows: the last block full or short, the memo emptied often.
    monkeypatch.setattr(chain, "_CSV_BLOCK", 5)
    cfg = canonical_config(name).chain()
    for trajectory in (cfg.simulate(1, 599, 3), cfg.simulate(8, 600, 4), list(range(10)), [3]):
        got, want = _both(cfg, trajectory)
        assert got == want


def test_trajectory_csv_memory_does_not_grow_with_the_steps():
    # Written whole, 2^17 dendrite rows peaked at about 13 MiB.
    cfg = canonical_config("dendrite").chain()
    trajectory = cfg.simulate(1, 1 << 17, 5)
    tracemalloc.start()
    try:
        write_trajectory_csv(cfg, trajectory, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


class _Discard:
    def write(self, text):
        pass


def test_trajectory_csv_refuses_what_the_reference_refuses():
    cfg = canonical_config("dendrite").chain()
    for trajectory in ([1, True], [True], [1, 1.0], [-1]):
        with pytest.raises(OutOfRangeError):
            reference_trajectory_csv(cfg, trajectory, StringIO())
        with pytest.raises(OutOfRangeError):
            write_trajectory_csv(cfg, trajectory, StringIO())


def test_verify_trajectory_artifact_is_the_reference(tmp_path):
    run_verify(str(tmp_path))
    rc = canonical_config("dendrite")
    cfg = rc.chain()
    traj = cfg.simulate(start=1, steps=300, seed=rc.seed)
    ref = tmp_path / "reference.csv"
    with open(ref, "w", encoding="utf-8", newline="\n") as fh:
        reference_trajectory_csv(cfg, traj, fh)
    assert (tmp_path / "trajectory-dendrite.csv").read_bytes() == ref.read_bytes()
